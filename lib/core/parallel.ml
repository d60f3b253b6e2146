module Libos = Os.Libos
module Cpu = Vcpu.Cpu
module Reg = Isa.Reg
module As = Mem.Addr_space
module Frontier = Search.Frontier

type backend = [ `Cooperative | `Domains ]

type config = {
  workers : int;
  quantum : int;
  strategy : Explorer.strategy;
  mode : [ `Run_to_completion | `First_exit ];
  max_extensions : int;
  backend : backend;
  retry_budget : int;
  faults : Inject.plan option;
}

let default_config =
  { workers = 4;
    quantum = 20_000;
    strategy = `Dfs;
    mode = `Run_to_completion;
    max_extensions = max_int;
    backend = `Cooperative;
    retry_budget = 3;
    faults = None }

type result = {
  outcome : Explorer.outcome;
  transcript : string;
  terminals : Explorer.terminal list;
  rounds : int;
  busy_rounds : int array;
  stats : Stats.t;
  domain_metrics : Obs.Metrics.t array;
}

exception Abort of string
exception Done of Explorer.outcome

(* Resolve the strategy exactly like the cooperative scheduler: the guest's
   id wins while the config keeps the default. *)
let resolve_strategy config id =
  match config.strategy with
  | `Dfs -> (
    match Explorer.strategy_of_id id with
    | Some s -> s
    | None -> raise (Abort (Printf.sprintf "unknown strategy id %d" id)))
  | other -> other

let arm_faults config =
  match config.faults with Some p -> Inject.arm p | None -> Inject.none

let quarantine_message e budget =
  Printf.sprintf "crash: %s (quarantined after %d attempts)"
    (Printexc.to_string e) budget

(* ------------------------------------------------------------------ *)
(* Cooperative backend: deterministic round-robin over one Phys_mem.  *)
(* ------------------------------------------------------------------ *)

type worker = {
  machine : Libos.t;
  mutable busy : bool;
  mutable marker : string list;      (* stdout harvest point *)
  mutable pending_hint : int;
  mutable depth : int;
  mutable snap : Snapshot.t option;  (* candidate this path descends from *)
  mutable origin : Ext.t option;     (* the popped extension: restart point
                                        for crash recovery (None = the
                                        scope-opening root path) *)
  mutable retries : int;
  mutable epoch : int;               (* this worker's aspace epoch right
                                        after its last restore; see
                                        [Addr_space.discard_segment] *)
}

let run_cooperative ~(config : config) (image : Isa.Asm.image) =
  let ids = Snapshot.ids () in
  let phys = Mem.Phys_mem.create () in
  let inj = arm_faults config in
  (* Eager snapshot release, as in [Explorer.run].  Disabled under fault
     injection: chaos runs crash paths at arbitrary points and the extra
     invariant surface buys nothing there. *)
  let recycle_snaps = config.faults = None && Mem.Phys_mem.recycling phys in
  let stats = Stats.create () in
  let mem_before = Mem.Mem_metrics.copy (Mem.Phys_mem.metrics phys) in
  let workers =
    Array.init config.workers (fun _ ->
        let machine = Libos.boot phys image in
        { machine;
          busy = false;
          marker = Libos.stdout_chunks machine;
          pending_hint = 0;
          depth = 0;
          snap = None;
          origin = None;
          retries = 0;
          epoch = -1 })
  in
  let transcript = Buffer.create 256 in
  let terminals = ref [] in
  let rounds = ref 0 in
  let busy_rounds = Array.make config.workers 0 in

  let harvest w =
    let cur = Libos.stdout_chunks w.machine in
    let rec collect acc l =
      if l == w.marker then acc
      else match l with [] -> acc | chunk :: rest -> collect (chunk :: acc) rest
    in
    let chunks = collect [] cur in
    w.marker <- cur;
    let text = String.concat "" chunks in
    Buffer.add_string transcript text;
    text
  in
  let record kind output depth =
    terminals := { Explorer.kind; output; depth } :: !terminals
  in

  (* Same extent accounting as [Explorer.run]'s [track_extents]: live
     snapshots are the frontier plus the lineages of every busy path. *)
  let track_extents frontier =
    let frontier_len = frontier.Frontier.length () in
    stats.Stats.max_frontier <- max stats.Stats.max_frontier frontier_len;
    let lineage =
      Array.fold_left
        (fun acc w ->
          if not w.busy then acc
          else
            match w.snap with
            | None -> acc
            | Some s -> acc + s.Snapshot.chain)
        0 workers
    in
    stats.Stats.max_live_snapshots <-
      max stats.Stats.max_live_snapshots (frontier_len + lineage)
  in

  let w0 = workers.(0) in

  (* Phase 1: worker 0 runs alone up to sys_guess_strategy.  Coordinator
     phases are not supervised: no fault ticks, no alloc hook yet. *)
  let to_scope () =
    match Libos.run w0.machine ~fuel:max_int with
    | Libos.Guess_strategy { strategy = id } ->
      let strat = resolve_strategy config id in
      ignore (harvest w0);
      Cpu.set w0.machine.Libos.cpu Reg.rax 0;
      let root = Snapshot.capture ~ids ~depth:0 w0.machine in
      stats.Stats.snapshots_created <- stats.Stats.snapshots_created + 1;
      Cpu.set w0.machine.Libos.cpu Reg.rax 1;
      root, Explorer.make_frontier strat
    | Libos.Exited { status } ->
      ignore (harvest w0);
      raise (Done (Explorer.Completed status))
    | Libos.Killed reason ->
      raise (Abort (Format.asprintf "%a" Libos.pp_reason reason))
    | Libos.Guess _ | Libos.Guess_fail | Libos.Guess_hint _ ->
      raise (Abort "guess before sys_guess_strategy")
  in

  let snap_of (ext : Ext.t) =
    match ext.Ext.payload with
    | Ext.Snap s -> s
    | Ext.Ref _ -> raise (Abort "managed extension in the parallel scheduler")
  in

  (* End of a worker's path segment: free its COW tail (unless a capture
     froze it) and give the origin's extension ref back.  The worker's map
     dangles until its next restore; it is never read in between, even if
     another worker recycles the freed buffers meanwhile. *)
  let retire w =
    if recycle_snaps then
      match w.snap with
      | None -> ()
      | Some p ->
        ignore
          (As.discard_segment w.machine.Libos.aspace ~epoch:w.epoch
             ~base:p.Snapshot.mem);
        Snapshot.release_ext ~phys p
  in

  let pop_into frontier w =
    match frontier.Frontier.pop () with
    | None -> ()
    | Some (ext : Ext.t) ->
      let snap = snap_of ext in
      if recycle_snaps && Snapshot.sole_extension snap then begin
        (* Last reference anywhere — running paths still hold their refs
           until [retire], so [ext_refs = 1] really means no other worker
           is on this snapshot.  Adopt its frames instead of re-COWing. *)
        Snapshot.restore_adopting w.machine snap;
        stats.Stats.adopting_restores <- stats.Stats.adopting_restores + 1
      end
      else Snapshot.restore w.machine snap;
      w.epoch <- As.epoch w.machine.Libos.aspace;
      w.marker <- Libos.stdout_chunks w.machine;
      Cpu.set w.machine.Libos.cpu Reg.rax ext.Ext.index;
      w.depth <- ext.Ext.meta.Frontier.depth;
      w.snap <- Some snap;
      w.origin <- Some ext;
      w.retries <- 0;
      w.busy <- true;
      stats.Stats.extensions_evaluated <- stats.Stats.extensions_evaluated + 1;
      stats.Stats.restores <- stats.Stats.restores + 1
  in

  (* Supervision: an exception out of a worker's quantum (injected crash,
     allocation failure) re-runs the path from its origin under a bounded
     retry budget, then quarantines it.  Safe because a path segment has no
     observable side effects before its terminal scheduling event. *)
  let crashed frontier ~root w e =
    let origin_adopted =
      recycle_snaps
      && (match w.snap with Some s -> Snapshot.adopted s | None -> false)
    in
    if (not origin_adopted) && w.retries < config.retry_budget - 1 then begin
      w.retries <- w.retries + 1;
      stats.Stats.requeues <- stats.Stats.requeues + 1;
      if Obs.Trace.enabled () then
        Obs.Trace.instant ~a:w.retries Obs.Names.sched_requeue;
      (* free the crashed attempt's COW tail before re-restoring *)
      if recycle_snaps then
        (match w.snap with
        | Some p ->
          ignore
            (As.discard_segment w.machine.Libos.aspace ~epoch:w.epoch
               ~base:p.Snapshot.mem)
        | None -> ());
      (match w.origin with
      | Some ext ->
        Snapshot.restore w.machine (snap_of ext);
        Cpu.set w.machine.Libos.cpu Reg.rax ext.Ext.index;
        w.depth <- ext.Ext.meta.Frontier.depth
      | None ->
        (* the scope-opening path restarts from the root, exploring *)
        Snapshot.restore w.machine root;
        Cpu.set w.machine.Libos.cpu Reg.rax 1;
        w.depth <- 0);
      w.epoch <- As.epoch w.machine.Libos.aspace;
      w.marker <- Libos.stdout_chunks w.machine
    end
    else begin
      if Obs.Trace.enabled () then Obs.Trace.instant Obs.Names.sched_quarantine;
      stats.Stats.quarantined <- stats.Stats.quarantined + 1;
      stats.Stats.kills <- stats.Stats.kills + 1;
      record (Explorer.Path_killed (quarantine_message e config.retry_budget))
        "" w.depth;
      retire w;
      w.busy <- false;
      w.retries <- 0;
      pop_into frontier w
    end
  in

  (* One scheduling event for a busy worker. *)
  let handle_stop frontier w stop =
    match stop with
    | Libos.Killed Libos.Fuel_exhausted ->
      (* quantum expired; stays busy and resumes next round *)
      ()
    | Libos.Guess { n } ->
      ignore (harvest w);
      if n <= 0 then begin
        stats.Stats.fails <- stats.Stats.fails + 1;
        record Explorer.Fail "" w.depth;
        retire w;
        w.busy <- false;
        pop_into frontier w
      end
      else begin
        let snap = Snapshot.capture ~ids ?parent:w.snap ~depth:w.depth w.machine in
        stats.Stats.guesses <- stats.Stats.guesses + 1;
        stats.Stats.snapshots_created <- stats.Stats.snapshots_created + 1;
        let meta = { Frontier.depth = w.depth + 1; hint = w.pending_hint } in
        w.pending_hint <- 0;
        frontier.Frontier.push_batch
          (List.init n (fun index ->
               meta, { Ext.payload = Ext.Snap snap; index; meta }));
        if recycle_snaps then Snapshot.retain ~n snap;
        stats.Stats.extensions_pushed <- stats.Stats.extensions_pushed + n;
        track_extents frontier;
        if stats.Stats.extensions_pushed > config.max_extensions then
          raise (Abort "extension budget exhausted");
        retire w;
        w.busy <- false;
        pop_into frontier w
      end
    | Libos.Guess_fail ->
      let output = harvest w in
      stats.Stats.fails <- stats.Stats.fails + 1;
      record Explorer.Fail output w.depth;
      retire w;
      w.busy <- false;
      pop_into frontier w
    | Libos.Guess_hint { dist } ->
      w.pending_hint <- dist;
      Cpu.set w.machine.Libos.cpu Reg.rax 0
    | Libos.Guess_strategy _ -> raise (Abort "nested sys_guess_strategy")
    | Libos.Exited { status } ->
      let output = harvest w in
      stats.Stats.exits <- stats.Stats.exits + 1;
      record (Explorer.Exit status) output w.depth;
      (match config.mode with
      | `First_exit -> raise (Done (Explorer.Stopped_first_exit status))
      | `Run_to_completion -> ());
      retire w;
      w.busy <- false;
      pop_into frontier w
    | Libos.Killed reason ->
      let output = harvest w in
      stats.Stats.kills <- stats.Stats.kills + 1;
      record (Explorer.Path_killed (Format.asprintf "%a" Libos.pp_reason reason))
        output w.depth;
      retire w;
      w.busy <- false;
      pop_into frontier w
  in

  let outcome =
    try
      let root, frontier = to_scope () in
      w0.busy <- true;
      w0.snap <- Some root;
      w0.origin <- None;
      (* one ref for the scope-opening path, balancing its [retire] *)
      if recycle_snaps then Snapshot.retain root;
      w0.epoch <- As.epoch w0.machine.Libos.aspace;
      (* Worker paths start here: arm the allocation fault for the shared
         allocator and tick the stop clock from now on. *)
      Mem.Phys_mem.set_alloc_fault phys (Inject.alloc_hook inj);
      (* Phase 2: round-robin quanta until the scope drains. *)
      let continue_ = ref true in
      while !continue_ do
        incr rounds;
        let any_busy = ref false in
        Array.iteri
          (fun idx w ->
            if not w.busy then pop_into frontier w;
            if w.busy then begin
              any_busy := true;
              busy_rounds.(idx) <- busy_rounds.(idx) + 1;
              let dropped = frontier.Frontier.evicted () in
              stats.Stats.evicted <- stats.Stats.evicted + List.length dropped;
              (* evicted extensions will never run: give their refs back
                 (any snapshot on a busy path's lineage stays pinned by a
                 live child or the path's own unreleased ref) *)
              if recycle_snaps then
                List.iter
                  (fun (e : Ext.t) ->
                    match e.Ext.payload with
                    | Ext.Snap s -> Snapshot.release_ext ~phys s
                    | Ext.Ref _ -> ())
                  dropped;
              match
                (try
                   let stop =
                     if Obs.Trace.enabled () then begin
                       let r0 = w.machine.Libos.cpu.Cpu.retired in
                       Obs.Trace.span_begin ~a:idx Obs.Names.worker_eval;
                       Fun.protect
                         ~finally:(fun () ->
                           Obs.Trace.span_end ~a:idx
                             ~b:(w.machine.Libos.cpu.Cpu.retired - r0)
                             Obs.Names.worker_eval)
                         (fun () ->
                           Libos.run w.machine
                             ~fuel:(Inject.jitter inj ~base:config.quantum))
                     end
                     else
                       Libos.run w.machine
                         ~fuel:(Inject.jitter inj ~base:config.quantum)
                   in
                   Inject.stop_tick inj;
                   `Stop stop
                 with e -> `Crash e)
              with
              | `Stop stop -> handle_stop frontier w stop
              | `Crash e -> crashed frontier ~root w e
            end)
          workers;
        if (not !any_busy) && frontier.Frontier.length () = 0 then continue_ := false
      done;
      (* Scope exhausted: resume worker 0 from the root with rax = 0.  The
         drain phase is a coordinator phase again — unsupervised. *)
      Mem.Phys_mem.set_alloc_fault phys None;
      Snapshot.restore w0.machine root;
      w0.marker <- Libos.stdout_chunks w0.machine;
      stats.Stats.restores <- stats.Stats.restores + 1;
      let rec drain () =
        match Libos.run w0.machine ~fuel:max_int with
        | Libos.Exited { status } ->
          ignore (harvest w0);
          Explorer.Completed status
        | Libos.Guess_strategy _ -> raise (Abort "second sys_guess_strategy scope")
        | Libos.Guess _ | Libos.Guess_fail -> raise (Abort "guess after scope")
        | Libos.Guess_hint _ ->
          Cpu.set w0.machine.Libos.cpu Reg.rax 0;
          drain ()
        | Libos.Killed reason ->
          raise (Abort (Format.asprintf "%a" Libos.pp_reason reason))
      in
      drain ()
    with
    | Done outcome -> outcome
    | Abort message -> Explorer.Aborted message
  in
  stats.Stats.instructions <-
    Array.fold_left (fun acc w -> acc + w.machine.Libos.cpu.Cpu.retired) 0 workers;
  Mem.Mem_metrics.add stats.Stats.mem
    (Mem.Mem_metrics.diff (Mem.Phys_mem.metrics phys) mem_before);
  { outcome;
    transcript = Buffer.contents transcript;
    terminals = List.rev !terminals;
    rounds = !rounds;
    busy_rounds;
    stats;
    domain_metrics = [||] }

(* ------------------------------------------------------------------ *)
(* Domains backend: one OCaml 5 domain per worker, each with a        *)
(* domain-private Phys_mem running the full frame-recycling           *)
(* lifecycle (free list, zero-fill elision, release/adopt).  Work     *)
(* items carry the producer's snapshot by reference through the       *)
(* sharded queue: the producer's own pops restore it directly         *)
(* (adopting its frames when it is the last reference), a thief       *)
(* rebuilds the state as its own root plus a private copy of the      *)
(* delta pages, and the reference travels back through the            *)
(* producer's mailbox so refcounts stay single-writer.                *)
(* ------------------------------------------------------------------ *)

type item = {
  it_snap : Snapshot.t;
      (* the producer's snapshot.  To the producing domain this is
         directly restorable; to every other domain it is an immutable
         description — saved registers, OS state, and a page map whose
         frames belong to retired generations — pinned against reuse by
         the extension ref the producer took at push time. *)
  it_root_map : As.snapshot;
      (* the producer's root page map: the base [it_snap]'s delta is
         computed against when a thief rebuilds the state *)
  it_index : int;
  it_meta : Frontier.meta;
  it_origin : int;  (* producing domain *)
  it_retries : int; (* crash-recovery attempts already spent on this item *)
}

(* The full root state, replicated once into every domain at startup. *)
type root_state = {
  r_pages : (int * string) list;
  r_shared : (int * string) list;  (* explicitly shared pages (sys_share) *)
  r_regs : Cpu.saved;
  r_os : Libos.os_state;
}

(* Cross-domain snapshot-reference returns.  Only the owner domain ever
   mutates its snapshots' refcounts, so a consumer of a foreign item posts
   the snapshot here when it retires the path and the owner releases it at
   its next retire.  The post happens strictly after the consumer stopped
   reading the snapshot's frames, so a release that frees them cannot race
   an import. *)
module Mailbox = struct
  type t = { lock : Mutex.t; mutable posted : Snapshot.t list }

  let create () = { lock = Mutex.create (); posted = [] }

  let post mb s =
    Mutex.lock mb.lock;
    mb.posted <- s :: mb.posted;
    Mutex.unlock mb.lock

  let drain mb =
    if mb.posted == [] then [] (* racy peek: a miss surfaces next drain *)
    else begin
      Mutex.lock mb.lock;
      let l = mb.posted in
      mb.posted <- [];
      Mutex.unlock mb.lock;
      l
    end
end

(* State shared by all worker domains.  The queue's shard mutexes provide
   the happens-before edges for everything an item references. *)
type shared = {
  queue : item Work_queue.t;
  outcome_cell : Explorer.outcome option Atomic.t;
  sh_ids : Snapshot.ids;
  sh_quantum : int;
  sh_mode : [ `Run_to_completion | `First_exit ];
  sh_max_extensions : int;
  sh_retry_budget : int;
  sh_recycle : bool;
      (* eager frame recycling on every domain; off under fault injection,
         exactly like the cooperative backend *)
  sh_mailboxes : Mailbox.t array;  (* indexed by producing domain *)
  sh_inj : Inject.t;  (* fire-state is atomic: shared by all domains *)
}

(* One frontier per queue shard: the factory runs once per domain. *)
let make_item_frontier :
    Explorer.strategy -> (unit -> item Frontier.t) option = function
  | `Dfs -> Some Frontier.dfs
  | `Bfs -> Some Frontier.bfs
  | `Astar -> Some Frontier.astar
  | `Sma capacity -> Some (fun () -> Frontier.sma ~capacity ())
  | `Wastar weight -> Some (fun () -> Frontier.wastar ~weight ())
  | `Beam width -> Some (fun () -> Frontier.beam ~width ())
  | `Dfs_bounded max_depth -> Some (fun () -> Frontier.dfs_bounded ~max_depth ())
  | `Random seed -> Some (fun () -> Frontier.random ~seed ())
  | `Custom _ -> None

let page_string aspace vpn =
  Bytes.to_string
    (As.read_bytes aspace ~addr:(Mem.Page.addr_of_vpn vpn) ~len:Mem.Page.size)

let serialize_root (m : Libos.t) =
  let vpns = As.mapped_vpns m.Libos.aspace in
  let shared, priv = List.partition (fun vpn -> As.is_shared m.Libos.aspace ~vpn) vpns in
  { r_pages = List.map (fun vpn -> vpn, page_string m.Libos.aspace vpn) priv;
    r_shared = List.map (fun vpn -> vpn, page_string m.Libos.aspace vpn) shared;
    r_regs = Cpu.save m.Libos.cpu;
    r_os = Libos.os_capture m }

(* Boot a fresh machine on a domain-private Phys_mem and rebuild the root
   state in it.  The caller then captures a local root snapshot, which
   retires the generation — so the rebuilt pages are immutable-until-COW
   and the decode cache works exactly as on domain 0. *)
let rehydrate_root image (root : root_state) =
  let phys = Mem.Phys_mem.create () in
  let m = Libos.boot phys image in
  let aspace = m.Libos.aspace in
  List.iter (fun vpn -> As.unmap aspace ~vpn) (As.mapped_vpns aspace);
  List.iter (fun (vpn, data) -> As.map_data aspace ~vpn data) root.r_pages;
  List.iter
    (fun (vpn, data) ->
      As.map_data aspace ~vpn data;
      As.map_shared aspace ~vpn)
    root.r_shared;
  Cpu.load m.Libos.cpu root.r_regs;
  Libos.os_restore m root.r_os;
  phys, m

(* The per-domain evaluation loop.  [entry] is [`Root] for the domain that
   natively carries the scope's root path (counted by the queue's
   [initial_paths]), [`Take] for domains that start by pulling work. *)
let eval_domain sh ~dom ~(machine : Libos.t) ~phys ~(d_root : Snapshot.t)
    ~(st : Stats.t) ~buf ~terminals ~items ~entry =
  let inj = sh.sh_inj in
  let aspace = machine.Libos.aspace in
  let recycle = sh.sh_recycle && Mem.Phys_mem.recycling phys in
  let marker = ref (Libos.stdout_chunks machine) in
  let depth = ref 0 in
  let pending_hint = ref 0 in
  let cur_snap : Snapshot.t option ref = ref None in
  let seg_epoch = ref (-1) in
  (* this domain's aspace epoch right after the last [prepare]; see
     [Addr_space.discard_segment] *)

  let harvest () =
    let cur = Libos.stdout_chunks machine in
    let rec collect acc l =
      if l == !marker then acc
      else match l with [] -> acc | chunk :: rest -> collect (chunk :: acc) rest
    in
    let chunks = collect [] cur in
    marker := cur;
    let text = String.concat "" chunks in
    Buffer.add_string buf text;
    text
  in
  let record kind output =
    terminals := { Explorer.kind; output; depth = !depth } :: !terminals
  in
  let set_outcome o =
    ignore (Atomic.compare_and_set sh.outcome_cell None (Some o))
  in
  let abort msg =
    set_outcome (Explorer.Aborted msg);
    Work_queue.stop sh.queue
  in
  let track_live () =
    let frontier_len = Work_queue.length sh.queue in
    let lineage =
      match !cur_snap with
      | Some s -> s.Snapshot.chain
      | None -> !depth + 1  (* foreign path: its lineage lives elsewhere *)
    in
    st.Stats.max_live_snapshots <-
      max st.Stats.max_live_snapshots (frontier_len + lineage)
  in

  (* Give an item's consumption ref back.  Own snapshots release directly;
     foreign ones travel through the producer's mailbox, so a snapshot's
     refcounts are only ever mutated by the domain that owns it. *)
  let return_ref (it : item) =
    if it.it_origin = dom then Snapshot.release_ext ~phys it.it_snap
    else Mailbox.post sh.sh_mailboxes.(it.it_origin) it.it_snap
  in
  let drain_mailbox () =
    List.iter (Snapshot.release_ext ~phys) (Mailbox.drain sh.sh_mailboxes.(dom))
  in
  (* Evicted extensions will never run: give their refs back.  (Any
     snapshot on a busy path's lineage stays pinned by a live child or the
     path's own unreleased ref.) *)
  let drop_evicted () =
    match Work_queue.drain_dropped sh.queue with
    | [] -> ()
    | dropped -> if recycle then List.iter return_ref dropped
  in

  (* Put the machine in the item's entry state and deliver the extension
     number.  Own items restore their snapshot directly — adopting its
     frames when this item is the last reference anywhere.  Foreign items
     restore the local root replica and graft a private copy of the
     producer's delta pages on top; the consumption ref (returned only at
     retire, so a crash-requeue keeps the pin) holds those frames immutable
     in retired generations for the whole read. *)
  let prepare (it : item) =
    cur_snap := None;
    seg_epoch := -1;
    if it.it_origin = dom then begin
      let snap = it.it_snap in
      if recycle && Snapshot.sole_extension snap then begin
        Snapshot.restore_adopting machine snap;
        st.Stats.adopting_restores <- st.Stats.adopting_restores + 1
      end
      else Snapshot.restore machine snap;
      cur_snap := Some snap
    end
    else begin
      st.Stats.steals <- st.Stats.steals + 1;
      if Obs.Trace.enabled () then
        Obs.Trace.instant ~a:it.it_origin ~b:dom Obs.Names.queue_steal;
      Snapshot.restore machine d_root;
      ignore
        (As.import_delta aspace ~base:it.it_root_map
           ~target:it.it_snap.Snapshot.mem);
      Cpu.load machine.Libos.cpu it.it_snap.Snapshot.regs;
      Libos.os_restore machine it.it_snap.Snapshot.os
    end;
    seg_epoch := As.epoch aspace;
    marker := Libos.stdout_chunks machine;
    Cpu.set machine.Libos.cpu Reg.rax it.it_index;
    depth := it.it_meta.Frontier.depth
  in

  (* Free the path segment's COW tail — the frames dirtied since [prepare]
     — unless a capture froze it (the epoch moved).  For a foreign segment
     the base is the local root, so the imported delta pages are freed
     along with the tail. *)
  let discard_tail () =
    if recycle then begin
      let base =
        match !cur_snap with
        | Some s -> s.Snapshot.mem
        | None -> d_root.Snapshot.mem
      in
      ignore (As.discard_segment aspace ~epoch:!seg_epoch ~base)
    end
  in

  (* End of a path segment: free its COW tail, give the consumption ref
     back, and release whatever refs foreign consumers have returned to
     this domain meanwhile. *)
  let retire (it : item) =
    if recycle then begin
      discard_tail ();
      return_ref it;
      drain_mailbox ()
    end;
    cur_snap := None;
    seg_epoch := -1
  in

  (* Run the current path to its terminal scheduling event.  Returns
     normally when the path is fully handled; the caller then retires it
     from the queue ([finish_path]). *)
  let rec path () =
    let stop =
      if Obs.Trace.enabled () then begin
        let r0 = machine.Libos.cpu.Cpu.retired in
        Obs.Trace.span_begin ~a:dom Obs.Names.worker_eval;
        Fun.protect
          ~finally:(fun () ->
            Obs.Trace.span_end ~a:dom
              ~b:(machine.Libos.cpu.Cpu.retired - r0)
              Obs.Names.worker_eval)
          (fun () ->
            Libos.run machine ~fuel:(Inject.jitter inj ~base:sh.sh_quantum))
      end
      else Libos.run machine ~fuel:(Inject.jitter inj ~base:sh.sh_quantum)
    in
    Inject.stop_tick inj;
    match stop with
    | Libos.Killed Libos.Fuel_exhausted ->
      (* quantum expired: the stop-flag check is what lets first-exit and
         aborts interrupt long-running sibling paths *)
      if Work_queue.stopped sh.queue then () else path ()
    | Libos.Guess { n } ->
      ignore (harvest ());
      if n <= 0 then begin
        st.Stats.fails <- st.Stats.fails + 1;
        record Explorer.Fail ""
      end
      else begin
        (* A foreign segment's capture parents to the local root replica —
           physically right (the machine's map derives from it) and it
           makes the foreign subtree recyclable on this domain. *)
        let parent = match !cur_snap with Some s -> s | None -> d_root in
        let snap =
          Snapshot.capture ~ids:sh.sh_ids ~parent ~depth:!depth machine
        in
        st.Stats.guesses <- st.Stats.guesses + 1;
        st.Stats.snapshots_created <- st.Stats.snapshots_created + 1;
        let meta = { Frontier.depth = !depth + 1; hint = !pending_hint } in
        pending_hint := 0;
        (* refs must exist before another domain can pop the items *)
        if recycle then Snapshot.retain ~n snap;
        Work_queue.push_batch sh.queue ~dom
          (List.init n (fun index ->
               ( meta,
                 { it_snap = snap;
                   it_root_map = d_root.Snapshot.mem;
                   it_index = index;
                   it_meta = meta;
                   it_origin = dom;
                   it_retries = 0 } )));
        drop_evicted ();
        st.Stats.extensions_pushed <- st.Stats.extensions_pushed + n;
        track_live ();
        if Work_queue.pushed sh.queue > sh.sh_max_extensions then
          abort "extension budget exhausted"
      end
    | Libos.Guess_fail ->
      let output = harvest () in
      st.Stats.fails <- st.Stats.fails + 1;
      record Explorer.Fail output
    | Libos.Guess_hint { dist } ->
      pending_hint := dist;
      Cpu.set machine.Libos.cpu Reg.rax 0;
      path ()
    | Libos.Guess_strategy _ -> abort "nested sys_guess_strategy"
    | Libos.Exited { status } -> (
      let output = harvest () in
      st.Stats.exits <- st.Stats.exits + 1;
      record (Explorer.Exit status) output;
      match sh.sh_mode with
      | `First_exit ->
        set_outcome (Explorer.Stopped_first_exit status);
        Work_queue.stop sh.queue
      | `Run_to_completion -> ())
    | Libos.Killed reason ->
      let output = harvest () in
      st.Stats.kills <- st.Stats.kills + 1;
      record (Explorer.Path_killed (Format.asprintf "%a" Libos.pp_reason reason))
        output
  in

  (* Supervision: a crash while preparing or evaluating [it] (injected, or
     a failed allocation) requeues the item with its retry count bumped —
     any domain can pick it up — until the budget is spent, then the item
     is quarantined as a killed path.  Push-before-finish ordering keeps
     the queue's termination count sound either way.  Safe because a path
     has no observable side effects (harvest, record, push) before its
     terminal scheduling event, and those all happen after the last
     crash point. *)
  let run_guarded (origin : item) =
    (match (try `Ok (prepare origin; path ()) with e -> `Crash e) with
    | `Ok () -> retire origin
    | `Crash e ->
      (* free the crashed attempt's COW tail before anything else *)
      discard_tail ();
      let origin_adopted =
        recycle && origin.it_origin = dom && Snapshot.adopted origin.it_snap
      in
      cur_snap := None;
      seg_epoch := -1;
      if (not origin_adopted) && origin.it_retries < sh.sh_retry_budget - 1
      then begin
        st.Stats.requeues <- st.Stats.requeues + 1;
        if Obs.Trace.enabled () then
          Obs.Trace.instant ~a:(origin.it_retries + 1) Obs.Names.sched_requeue;
        (* the requeued item keeps the consumption ref: whoever picks it
           up next still needs the snapshot's frames pinned *)
        Work_queue.push_batch sh.queue ~dom
          [ (origin.it_meta, { origin with it_retries = origin.it_retries + 1 }) ];
        drop_evicted ()
      end
      else begin
        if Obs.Trace.enabled () then
          Obs.Trace.instant Obs.Names.sched_quarantine;
        st.Stats.quarantined <- st.Stats.quarantined + 1;
        st.Stats.kills <- st.Stats.kills + 1;
        depth := origin.it_meta.Frontier.depth;
        record
          (Explorer.Path_killed (quarantine_message e sh.sh_retry_budget))
          "";
        if recycle then begin
          return_ref origin;
          drain_mailbox ()
        end
      end);
    Work_queue.finish_path sh.queue
  in

  let rec consume () =
    match Work_queue.take sh.queue ~dom with
    | None -> ()
    | Some it ->
      incr items;
      st.Stats.extensions_evaluated <- st.Stats.extensions_evaluated + 1;
      st.Stats.restores <- st.Stats.restores + 1;
      run_guarded it;
      drop_evicted ();
      consume ()
  in
  if Obs.Trace.enabled () then Obs.Trace.span_begin ~a:dom Obs.Names.worker;
  (try
    (match entry with
    | `Root ->
      (* The scope-opening path, encoded as an item so crash recovery can
         requeue it like any other: the root snapshot itself, entered with
         1 in rax (the exploring branch).  The retain balances its retire;
         the root is parentless, so it is never actually freed. *)
      if recycle then Snapshot.retain d_root;
      run_guarded
        { it_snap = d_root;
          it_root_map = d_root.Snapshot.mem;
          it_index = 1;
          it_meta = { Frontier.depth = 0; hint = 0 };
          it_origin = dom;
          it_retries = 0 }
    | `Take -> ());
    consume ();
    (* refs posted by foreign consumers after our last retire *)
    if recycle then drain_mailbox ()
  with e ->
    (* A crashed worker loop must not leave the others blocked in [take]. *)
    abort (Printf.sprintf "worker %d: %s" dom (Printexc.to_string e)));
  if Obs.Trace.enabled () then Obs.Trace.span_end ~a:dom Obs.Names.worker

let run_domains ~(config : config) (image : Isa.Asm.image) =
  let phys0 = Mem.Phys_mem.create () in
  let inj = arm_faults config in
  (* Eager snapshot release on every domain, as in the cooperative backend.
     Disabled under fault injection for the same reason. *)
  let recycle = config.faults = None && Mem.Phys_mem.recycling phys0 in
  (* Domain 0's own counters; the aggregate [stats] is assembled at the
     end so the per-domain registries stay separable. *)
  let st0 = Stats.create () in
  let mem_before = Mem.Mem_metrics.copy (Mem.Phys_mem.metrics phys0) in
  let m0 = Libos.boot phys0 image in
  let transcript = Buffer.create 256 in
  let terminals0 = ref [] in
  let busy_rounds = Array.make config.workers 0 in
  let marker0 = ref (Libos.stdout_chunks m0) in
  let harvest0 () =
    let cur = Libos.stdout_chunks m0 in
    let rec collect acc l =
      if l == !marker0 then acc
      else match l with [] -> acc | chunk :: rest -> collect (chunk :: acc) rest
    in
    let chunks = collect [] cur in
    marker0 := cur;
    Buffer.add_string transcript (String.concat "" chunks)
  in
  let worker_tail = ref [] in
  let worker_stats : (Stats.t * Obs.Metrics.t) list ref = ref [] in
  let queue_peak = ref 0 in
  let queue_evicted = ref 0 in
  let queue_steal_batches = ref 0 in
  let queue_stolen = ref 0 in
  let outcome =
    try
      (* Phase 1: domain 0 runs alone up to sys_guess_strategy. *)
      let strat =
        match Libos.run m0 ~fuel:max_int with
        | Libos.Guess_strategy { strategy = id } -> resolve_strategy config id
        | Libos.Exited { status } ->
          harvest0 ();
          raise (Done (Explorer.Completed status))
        | Libos.Killed reason ->
          raise (Abort (Format.asprintf "%a" Libos.pp_reason reason))
        | Libos.Guess _ | Libos.Guess_fail | Libos.Guess_hint _ ->
          raise (Abort "guess before sys_guess_strategy")
      in
      let mk_frontier =
        match make_item_frontier strat with
        | Some f -> f
        | None ->
          raise (Abort "`Custom strategies require the `Cooperative backend")
      in
      harvest0 ();
      (* The root must observe 0 when restored after exhaustion; serialize
         it with 0 in rax so every domain's replica agrees. *)
      Cpu.set m0.Libos.cpu Reg.rax 0;
      let ids = Snapshot.ids () in
      let root_state = serialize_root m0 in
      let d_root0 = Snapshot.capture ~ids ~depth:0 m0 in
      st0.Stats.snapshots_created <- st0.Stats.snapshots_created + 1;
      Cpu.set m0.Libos.cpu Reg.rax 1;
      let sh =
        { queue =
            Work_queue.create ~shards:config.workers ~initial_paths:1
              ~meta_of:(fun it -> it.it_meta)
              mk_frontier;
          outcome_cell = Atomic.make None;
          sh_ids = ids;
          sh_quantum = config.quantum;
          sh_mode = config.mode;
          sh_max_extensions = config.max_extensions;
          sh_retry_budget = config.retry_budget;
          sh_recycle = recycle;
          sh_mailboxes = Array.init config.workers (fun _ -> Mailbox.create ());
          sh_inj = inj }
      in
      (* Phase 2: spawn the other domains; each rebuilds the root on a
         private Phys_mem, then all pull from the shared queue.  The alloc
         fault arms per-domain only once the replica stands — rehydration
         failures would abort the run, not a path. *)
      let handles =
        List.init (config.workers - 1) (fun i ->
            let dom = i + 1 in
            Domain.spawn (fun () ->
                let st = Stats.create () in
                let reg = Obs.Metrics.create () in
                let buf = Buffer.create 256 in
                let terms = ref [] in
                let items = ref 0 in
                (try
                   let phys, machine = rehydrate_root image root_state in
                   let d_root = Snapshot.capture ~ids:sh.sh_ids ~depth:0 machine in
                   st.Stats.snapshots_created <- st.Stats.snapshots_created + 1;
                   Mem.Phys_mem.set_alloc_fault phys (Inject.alloc_hook inj);
                   eval_domain sh ~dom ~machine ~phys ~d_root ~st ~buf
                     ~terminals:terms ~items ~entry:`Take;
                   st.Stats.instructions <- machine.Libos.cpu.Cpu.retired;
                   Mem.Mem_metrics.add st.Stats.mem (Mem.Phys_mem.metrics phys)
                 with e ->
                   ignore
                     (Atomic.compare_and_set sh.outcome_cell None
                        (Some
                           (Explorer.Aborted
                              (Printf.sprintf "worker %d: %s" dom
                                 (Printexc.to_string e)))));
                   Work_queue.stop sh.queue);
                Stats.publish st reg;
                st, reg, Buffer.contents buf, List.rev !terms, !items))
      in
      let items0 = ref 0 in
      Mem.Phys_mem.set_alloc_fault phys0 (Inject.alloc_hook inj);
      eval_domain sh ~dom:0 ~machine:m0 ~phys:phys0 ~d_root:d_root0 ~st:st0
        ~buf:transcript ~terminals:terminals0 ~items:items0 ~entry:`Root;
      busy_rounds.(0) <- !items0;
      let results = List.map Domain.join handles in
      List.iteri
        (fun i (st, reg, tr, terms, items) ->
          busy_rounds.(i + 1) <- items;
          worker_stats := !worker_stats @ [ (st, reg) ];
          Buffer.add_string transcript tr;
          worker_tail := !worker_tail @ terms)
        results;
      queue_peak := Work_queue.max_length sh.queue;
      queue_evicted := Work_queue.evicted sh.queue;
      queue_steal_batches := Work_queue.steal_batches sh.queue;
      queue_stolen := Work_queue.stolen_items sh.queue;
      match Atomic.get sh.outcome_cell with
      | Some o -> o
      | None ->
        (* Scope exhausted: resume domain 0 from the root with rax = 0.
           The drain is a coordinator phase — unsupervised. *)
        Mem.Phys_mem.set_alloc_fault phys0 None;
        Snapshot.restore m0 d_root0;
        marker0 := Libos.stdout_chunks m0;
        st0.Stats.restores <- st0.Stats.restores + 1;
        let rec drain () =
          match Libos.run m0 ~fuel:max_int with
          | Libos.Exited { status } ->
            harvest0 ();
            Explorer.Completed status
          | Libos.Guess_strategy _ ->
            raise (Abort "second sys_guess_strategy scope")
          | Libos.Guess _ | Libos.Guess_fail -> raise (Abort "guess after scope")
          | Libos.Guess_hint _ ->
            Cpu.set m0.Libos.cpu Reg.rax 0;
            drain ()
          | Libos.Killed reason ->
            raise (Abort (Format.asprintf "%a" Libos.pp_reason reason))
        in
        drain ()
    with
    | Done outcome -> outcome
    | Abort message -> Explorer.Aborted message
  in
  st0.Stats.instructions <- st0.Stats.instructions + m0.Libos.cpu.Cpu.retired;
  Mem.Mem_metrics.add st0.Stats.mem
    (Mem.Mem_metrics.diff (Mem.Phys_mem.metrics phys0) mem_before);
  (* Domain 0's registry is published only now, after its memory metrics
     landed — otherwise its mem.* counters would all read zero. *)
  let reg0 = Obs.Metrics.create () in
  Stats.publish st0 reg0;
  Obs.Metrics.incr reg0 ~by:!queue_steal_batches "queue.steal_batches";
  Obs.Metrics.incr reg0 ~by:!queue_stolen "queue.stolen_items";
  let stats = Stats.create () in
  Stats.merge stats st0;
  List.iter (fun (st, _) -> Stats.merge stats st) !worker_stats;
  stats.Stats.max_frontier <- max stats.Stats.max_frontier !queue_peak;
  stats.Stats.evicted <- stats.Stats.evicted + !queue_evicted;
  { outcome;
    transcript = Buffer.contents transcript;
    terminals = List.rev !terminals0 @ !worker_tail;
    rounds = 0;
    busy_rounds;
    stats;
    domain_metrics = Array.of_list (reg0 :: List.map snd !worker_stats) }

let run ?(config = default_config) (image : Isa.Asm.image) =
  if config.workers < 1 then invalid_arg "Parallel.run: need at least one worker";
  match config.backend with
  | `Cooperative -> run_cooperative ~config image
  | `Domains -> run_domains ~config image
