(** Persistent integer maps implemented as little-endian Patricia tries
    (Okasaki & Gill, "Fast Mergeable Integer Maps").

    This is the workhorse behind {!Mem.Addr_space}: a snapshot of an address
    space is just a reference to a trie root, so capture is O(1) and two
    snapshots share all unmodified subtrees structurally.  Keys may be any
    native [int], including negative ones. *)

type 'a t

val empty : 'a t
val is_empty : 'a t -> bool
val singleton : int -> 'a -> 'a t

val mem : int -> 'a t -> bool
val find_opt : int -> 'a t -> 'a option

val find : int -> 'a t -> 'a
(** @raise Not_found when the key is unbound. *)

val add : int -> 'a -> 'a t -> 'a t

val update : int -> ('a option -> 'a option) -> 'a t -> 'a t
(** [update k f m] rebinds [k] according to [f (find_opt k m)]: [None]
    removes the binding, [Some v] (re)binds it to [v]. *)

val remove : int -> 'a t -> 'a t
val cardinal : 'a t -> int

val iter : (int -> 'a -> unit) -> 'a t -> unit
val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
val for_all : (int -> 'a -> bool) -> 'a t -> bool
val exists : (int -> 'a -> bool) -> 'a t -> bool
val filter : (int -> 'a -> bool) -> 'a t -> 'a t
val map : ('a -> 'b) -> 'a t -> 'b t
val mapi : (int -> 'a -> 'b) -> 'a t -> 'b t

val choose_opt : 'a t -> (int * 'a) option
val min_binding_opt : 'a t -> (int * 'a) option
val max_binding_opt : 'a t -> (int * 'a) option

val union : (int -> 'a -> 'a -> 'a) -> 'a t -> 'a t -> 'a t
(** [union f a b] contains all keys of [a] and [b]; keys present in both are
    combined with [f]. *)

val diff_iter :
  ('a -> 'a -> bool) -> absent:'a -> (int -> 'a -> 'a -> unit) -> 'a t -> 'a t -> unit
(** [diff_iter eq ~absent f a b] calls [f k x y] once for every key [k]
    whose bindings differ between [a] and [b]: [x] is [k]'s binding in [a]
    and [y] its binding in [b], with [absent] standing in for a side that
    does not bind [k].  Keys bound on both sides are reported only when
    [eq] rejects the pair.  The walk merges the two tries structurally:
    physically equal subtrees are pruned, so diffing two snapshots of the
    same lineage costs in proportion to the pages that differ, not to the
    address-space size, and nothing is allocated beyond what [f] does.
    Callers pick an [absent] they can tell apart from every real binding
    (physical equality against a sentinel).  Keys are visited in no
    particular order. *)

val sym_diff : ('a -> 'a -> bool) -> 'a t -> 'a t -> (int * 'a option * 'a option) list
(** [sym_diff eq a b] lists what {!diff_iter} reports, with missing
    bindings as [None]: the list form, for consumers that keep the
    delta. *)

val equal : ('a -> 'a -> bool) -> 'a t -> 'a t -> bool
val bindings : 'a t -> (int * 'a) list
(** Bindings in increasing (unsigned) key order within each sign class; use
    only where order does not matter or keys are non-negative. *)

val of_list : (int * 'a) list -> 'a t
val pp : (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a t -> unit
