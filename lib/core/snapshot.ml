module As = Mem.Addr_space

type t = {
  id : int;
  regs : Vcpu.Cpu.saved;
  mem : As.snapshot;
  os : Os.Libos.os_state;
  parent : t option;
  depth : int;
  chain : int;
  (* Explicit-release bookkeeping (see [release_ext]).  [ext_refs] counts
     frontier extensions (plus pins) that may still restore this snapshot;
     [child_refs] counts live child snapshots whose maps share our frames.
     Both are plain ints: a snapshot's refcounts are only ever mutated by
     the domain that owns it — single-threaded schedulers trivially, and
     the domains backend routes cross-domain releases through per-domain
     mailboxes back to the owner ([Parallel.Mailbox]). *)
  mutable ext_refs : int;
  mutable child_refs : int;
  mutable freed : bool;
  mutable adopted : bool;
      (* restored via [restore_adopting]: its frames now change in place,
         so restoring it again would observe the adopter's writes *)
}

(* Snapshot ids are allocated per exploration run, not from a process-global
   counter: two runs (possibly concurrent — the domains backend captures
   from several domains at once) never share an allocator, and within a run
   the counter is atomic so captures racing across domains still get
   distinct ids. *)
type ids = int Atomic.t

let ids () = Atomic.make 0

let capture ~ids ?parent ~depth (machine : Os.Libos.t) =
  let id = Atomic.fetch_and_add ids 1 in
  if Obs.Trace.enabled () then
    Obs.Trace.instant ~a:id
      ~b:(match parent with Some p -> p.id | None -> -1)
      Obs.Names.snap_capture;
  (match parent with Some p -> p.child_refs <- p.child_refs + 1 | None -> ());
  { id;
    regs = Vcpu.Cpu.save machine.cpu;
    mem = As.snapshot machine.aspace;
    os = Os.Libos.os_capture machine;
    parent;
    depth;
    chain = (match parent with Some p -> p.chain + 1 | None -> 1);
    ext_refs = 0;
    child_refs = 0;
    freed = false;
    adopted = false }

let restore (machine : Os.Libos.t) t =
  if Obs.Trace.enabled () then
    Obs.Trace.instant ~a:t.id Obs.Names.snap_restore;
  Vcpu.Cpu.load machine.cpu t.regs;
  As.restore machine.aspace t.mem;
  Os.Libos.os_restore machine t.os

(* {1 Explicit release}

   A snapshot is dead — its private frames reusable — exactly when no
   frontier extension can restore it any more ([ext_refs] = 0) and no child
   snapshot shares its frames ([child_refs] = 0).  Death cascades upward: a
   parent whose extensions all drained may only have been kept alive by
   us.  Roots (no parent) are never freed: there is no base to compute
   their delta against, and the scheduler restores them after exhaustion.

   The counts are advisory in one direction only: failing to release leaks
   nothing (the GC is still underneath), but releasing twice would free
   live frames — which is why every transition here is guarded. *)

let retain ?(n = 1) t = t.ext_refs <- t.ext_refs + n

let sole_extension t =
  t.ext_refs = 1 && t.child_refs = 0 && t.parent <> None
  && not t.freed && not t.adopted

let adopted t = t.adopted

let rec try_free ~phys t =
  if
    (not t.freed) && t.ext_refs <= 0 && t.child_refs = 0
    && Mem.Phys_mem.recycling phys
  then
    match t.parent with
    | None -> ()
    | Some p ->
      t.freed <- true;
      ignore (As.release_snapshot ~phys ~parent:p.mem t.mem);
      p.child_refs <- p.child_refs - 1;
      try_free ~phys p

let release_ext ~phys t =
  t.ext_refs <- t.ext_refs - 1;
  try_free ~phys t

let free_delta ~phys ~parent t =
  if t.freed then 0
  else begin
    t.freed <- true;
    As.release_snapshot ~phys ~parent:parent.mem t.mem
  end

let restore_adopting (machine : Os.Libos.t) t =
  match t.parent with
  | None -> invalid_arg "Snapshot.restore_adopting: snapshot has no parent"
  | Some p ->
    if Obs.Trace.enabled () then
      Obs.Trace.instant ~a:t.id Obs.Names.snap_restore;
    Vcpu.Cpu.load machine.cpu t.regs;
    ignore (As.restore_adopt machine.aspace ~parent:p.mem t.mem);
    Os.Libos.os_restore machine t.os;
    t.adopted <- true

let pages t = As.snapshot_pages t.mem

let distinct_frames snaps = As.distinct_frames (List.map (fun s -> s.mem) snaps)

let delta_pages a b = As.delta_pages a.mem b.mem

let rec lineage t =
  t :: (match t.parent with None -> [] | Some p -> lineage p)
