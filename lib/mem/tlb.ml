(* A direct-mapped software TLB of vpn -> frame entries, shared by both
   address-space backends.  Entries cache the binding only, never a
   permission: whether a frame may be written in place is decided by its
   [owner] at each store, so a generation change leaves every entry valid.
   The owner must [invalidate] each vpn whose binding changes and [flush]
   when its map is replaced wholesale.  Hits, misses (each also a walk) and
   flushes are counted in the physical memory's metrics. *)

let bits = 8
let size = 1 lsl bits
let mask = size - 1

type t = {
  vpns : int array; (* -1 = invalid *)
  frames : Phys_mem.frame array;
  metrics : Mem_metrics.t;
}

let create phys =
  { vpns = Array.make size (-1);
    frames = Array.make size Phys_mem.no_frame;
    metrics = Phys_mem.metrics phys }

(* The cached frame (a hit), or [Phys_mem.no_frame] (a miss: the caller
   walks and [fill]s). *)
let find t vpn =
  let i = vpn land mask in
  if Array.unsafe_get t.vpns i = vpn then begin
    t.metrics.tlb_hits <- t.metrics.tlb_hits + 1;
    Array.unsafe_get t.frames i
  end
  else begin
    t.metrics.tlb_misses <- t.metrics.tlb_misses + 1;
    t.metrics.pt_walks <- t.metrics.pt_walks + 1;
    Phys_mem.no_frame
  end

let fill t vpn f =
  let i = vpn land mask in
  Array.unsafe_set t.vpns i vpn;
  Array.unsafe_set t.frames i f

(* Rebind [vpn] if it is cached: the COW fault path. *)
let update t vpn f =
  let i = vpn land mask in
  if Array.unsafe_get t.vpns i = vpn then Array.unsafe_set t.frames i f

let invalidate t vpn =
  let i = vpn land mask in
  if Array.unsafe_get t.vpns i = vpn then Array.unsafe_set t.vpns i (-1)

let flush t =
  Array.fill t.vpns 0 size (-1);
  t.metrics.tlb_flushes <- t.metrics.tlb_flushes + 1

let iter f t =
  Array.iteri (fun i vpn -> if vpn >= 0 then f vpn t.frames.(i)) t.vpns
