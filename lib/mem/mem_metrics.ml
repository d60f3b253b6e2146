type t = {
  mutable cow_faults : int;
  mutable zero_fills : int;
  mutable pages_copied : int;
  mutable bytes_copied : int;
  mutable frames_allocated : int;
  mutable snapshots : int;
  mutable restores : int;
  mutable tlb_hits : int;
  mutable tlb_misses : int;
  mutable tlb_flushes : int;
  mutable tlb_shootdowns : int;
  mutable pt_walks : int;
  mutable pt_node_copies : int;
  mutable frames_freed : int;
  mutable frames_recycled : int;
  mutable zero_fills_elided : int;
}

let create () =
  { cow_faults = 0; zero_fills = 0; pages_copied = 0; bytes_copied = 0;
    frames_allocated = 0; snapshots = 0; restores = 0; tlb_hits = 0;
    tlb_misses = 0; tlb_flushes = 0; tlb_shootdowns = 0; pt_walks = 0;
    pt_node_copies = 0;
    frames_freed = 0; frames_recycled = 0; zero_fills_elided = 0 }

let add acc x =
  acc.cow_faults <- acc.cow_faults + x.cow_faults;
  acc.zero_fills <- acc.zero_fills + x.zero_fills;
  acc.pages_copied <- acc.pages_copied + x.pages_copied;
  acc.bytes_copied <- acc.bytes_copied + x.bytes_copied;
  acc.frames_allocated <- acc.frames_allocated + x.frames_allocated;
  acc.snapshots <- acc.snapshots + x.snapshots;
  acc.restores <- acc.restores + x.restores;
  acc.tlb_hits <- acc.tlb_hits + x.tlb_hits;
  acc.tlb_misses <- acc.tlb_misses + x.tlb_misses;
  acc.tlb_flushes <- acc.tlb_flushes + x.tlb_flushes;
  acc.tlb_shootdowns <- acc.tlb_shootdowns + x.tlb_shootdowns;
  acc.pt_walks <- acc.pt_walks + x.pt_walks;
  acc.pt_node_copies <- acc.pt_node_copies + x.pt_node_copies;
  acc.frames_freed <- acc.frames_freed + x.frames_freed;
  acc.frames_recycled <- acc.frames_recycled + x.frames_recycled;
  acc.zero_fills_elided <- acc.zero_fills_elided + x.zero_fills_elided

let copy x =
  let t = create () in
  add t x; t

let diff a b =
  { cow_faults = a.cow_faults - b.cow_faults;
    zero_fills = a.zero_fills - b.zero_fills;
    pages_copied = a.pages_copied - b.pages_copied;
    bytes_copied = a.bytes_copied - b.bytes_copied;
    frames_allocated = a.frames_allocated - b.frames_allocated;
    snapshots = a.snapshots - b.snapshots;
    restores = a.restores - b.restores;
    tlb_hits = a.tlb_hits - b.tlb_hits;
    tlb_misses = a.tlb_misses - b.tlb_misses;
    tlb_flushes = a.tlb_flushes - b.tlb_flushes;
    tlb_shootdowns = a.tlb_shootdowns - b.tlb_shootdowns;
    pt_walks = a.pt_walks - b.pt_walks;
    pt_node_copies = a.pt_node_copies - b.pt_node_copies;
    frames_freed = a.frames_freed - b.frames_freed;
    frames_recycled = a.frames_recycled - b.frames_recycled;
    zero_fills_elided = a.zero_fills_elided - b.zero_fills_elided }

let pp fmt t =
  Format.fprintf fmt
    "@[<v>cow_faults=%d zero_fills=%d pages_copied=%d bytes_copied=%d@ \
     frames_allocated=%d snapshots=%d restores=%d@ \
     tlb: hits=%d misses=%d flushes=%d shootdowns=%d pt_walks=%d \
     pt_node_copies=%d@ \
     frames_freed=%d frames_recycled=%d zero_fills_elided=%d@]"
    t.cow_faults t.zero_fills t.pages_copied t.bytes_copied
    t.frames_allocated t.snapshots t.restores t.tlb_hits t.tlb_misses
    t.tlb_flushes t.tlb_shootdowns t.pt_walks t.pt_node_copies
    t.frames_freed t.frames_recycled t.zero_fills_elided
