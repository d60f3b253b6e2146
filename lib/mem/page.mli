(** Page geometry shared by every memory subsystem module.

    The simulated machine uses 4 KiB pages, like the x86 hardware the paper
    targets; all address-space state is tracked at page granularity and COW
    copies move exactly one page. *)

val shift : int
(** log2 of the page size (12). *)

val size : int
(** Page size in bytes (4096). *)

val offset_mask : int
(** [addr land offset_mask] is the offset within the page. *)

val vpn_of_addr : int -> int
(** Virtual page number containing byte address [addr]. *)

val addr_of_vpn : int -> int
(** First byte address of a page. *)

val offset_of_addr : int -> int

val round_up : int -> int
(** Smallest page-aligned value >= the argument. *)

val round_down : int -> int
val is_aligned : int -> bool

val iter_chunks : addr:int -> len:int -> (int -> int -> int -> int -> unit) -> unit
(** [iter_chunks ~addr ~len f] splits [addr, addr + len) at page
    boundaries and calls [f a off pos chunk] for each piece in address
    order: [a] is its first address, [off] its page offset, [pos] its
    offset into the range and [chunk] its length. *)
