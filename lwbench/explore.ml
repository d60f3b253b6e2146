(* The Explorer-driven workloads: [queens] (the paper's Figure 1) and
   [compute] (dispatch-bound Locality search).  A unit of work is one
   exploration to completion on a freshly booted machine. *)

module Explorer = Core.Explorer
module Stats = Core.Stats

type spec = {
  name : string;
  image : unit -> Isa.Asm.image;
  check : Explorer.result -> string option;  (* [Some why] on a wrong result *)
}

let outcome_error (r : Explorer.result) =
  match r.outcome with
  | Explorer.Completed 0 -> None
  | Explorer.Completed s -> Some (Printf.sprintf "exit status %d" s)
  | Explorer.Stopped_first_exit s ->
    Some (Printf.sprintf "stopped at first exit (%d)" s)
  | Explorer.Aborted why -> Some ("aborted: " ^ why)

let lines s = List.filter (fun l -> l <> "") (String.split_on_char '\n' s)

let queens ~wrong =
  let boards = Workloads.Nqueens.host_boards 8 in
  (* [wrong] drops one expected board: the smoke check's proof that a
     wrong answer is caught *)
  let expected = if wrong then List.tl boards else boards in
  { name = "queens";
    image = (fun () -> Workloads.Nqueens.program ~n:8);
    check =
      (fun r ->
        match outcome_error r with
        | Some e -> Some e
        | None when lines r.transcript <> expected ->
          Some "transcript differs from Nqueens.host_boards 8"
        | None -> None) }

let compute_params =
  { Workloads.Locality.depth = 4; branch = 3; touch_pages = 1; work = 10_000;
    arena_pages = 32 }

let compute ~wrong =
  let expected =
    Workloads.Locality.expected_paths compute_params + if wrong then 1 else 0
  in
  { name = "compute";
    image = (fun () -> Workloads.Locality.program compute_params);
    check =
      (fun r ->
        match outcome_error r with
        | Some e -> Some e
        | None when r.stats.fails <> expected ->
          Some
            (Printf.sprintf "%d failed leaves, expected %d" r.stats.fails
               expected)
        | None -> None) }

let counters (s : Stats.t) =
  { Report.instructions = s.instructions; cow_faults = s.mem.cow_faults;
    restores = s.restores; demotions = s.demotions;
    promotions = s.promotions }

(* Set-up of one unit: assemble the image, create physical memory, boot. *)
let setup ?(track_live = false) spec =
  let t0 = Clock.now_ns () in
  let image = spec.image () in
  let machine = Os.Libos.boot (Mem.Phys_mem.create ~track_live ()) image in
  machine, Clock.seconds_since t0

(* Check a unit's result and its counters against the run's reference
   (the first unit's, which is recorded here). *)
let verify r spec reference ~what (res : Explorer.result) =
  Report.attempt r;
  (match spec.check res with
  | Some why -> Report.fail r (Printf.sprintf "%s %s: %s" spec.name what why)
  | None -> ());
  let c = counters res.stats in
  match !reference with
  | None -> reference := Some c
  | Some reference -> Report.check_counters r ~what ~reference c

(* Explorations at least this many, so that 10 samples lie beyond p90. *)
let min_units = 110

(* {1 The untraced run: end-to-end metrics} *)

let run spec ~seconds r =
  let reference = ref None in
  let setups = ref [] in
  (* The stop clock stamps every scheduler stop without allocating: the
     interval between consecutive [eval]s is one extension (restore,
     guest segment, capture and scheduling). *)
  let resume = Clock.samples () and last = ref 0 in
  let probe =
    { Record.Probe.eval =
        (fun ~retired:_ _ ->
          let now = Clock.now_ns () in
          Clock.add resume (now - !last);
          last := now);
      crash = (fun ~retired:_ _ -> ());
      capture = (fun ~snap:_ -> ());
      resume = (fun ~snap:_ ~rax:_ -> ());
      set_rax = (fun _ -> ()) }
  in
  let runs = Clock.samples ~capacity:(1 lsl 16) () in
  let ext = ref 0 and instr = ref 0 and timed_ns = ref 0 and words = ref 0.0 in
  let one ~timed =
    let machine, setup_s = setup spec in
    setups := setup_s :: !setups;
    let w0 = Gc.minor_words () in
    let t0 = Clock.now_ns () in
    last := t0;
    let res = Explorer.run ~probe machine in
    let t1 = Clock.now_ns () in
    let w1 = Gc.minor_words () in
    verify r spec reference ~what:"exploration" res;
    if timed then begin
      Clock.add runs (t1 - t0);
      ext := !ext + res.stats.extensions_evaluated;
      instr := !instr + res.stats.instructions;
      timed_ns := !timed_ns + (t1 - t0);
      words := !words +. (w1 -. w0)
    end
  in
  one ~timed:false;
  Clock.reset resume;
  Clock.loop_until ~seconds ~min:min_units (fun () -> one ~timed:true);
  let heap_mb = Clock.host_heap_mb () in
  (* The simulated footprint needs live-frame tracking, which puts a GC
     finaliser on every frame: measured on one extra, untimed unit. *)
  let machine, _ = setup ~track_live:true spec in
  verify r spec reference ~what:"footprint exploration" (Explorer.run machine);
  let peak = Mem.Phys_mem.peak_frames_live (Mem.Addr_space.phys machine.aspace) in
  let runs = Clock.sorted runs and resumes = Clock.sorted resume in
  (* The exploration median and the extension p99 are printed, not
     declared: on a shared host they jump from run to run (README.md). *)
  Printf.printf "  %s: exploration ms at p10..p90:" spec.name;
  List.iter
    (fun p -> Printf.printf " %.2f" (float_of_int (Clock.percentile runs p) *. 1e-6))
    [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9 ];
  print_newline ();
  Printf.printf "  %s: extension us at p50 p90 p99 p99.9 max:" spec.name;
  List.iter
    (fun p -> Printf.printf " %.2f" (float_of_int (Clock.percentile resumes p) *. 1e-3))
    [ 0.5; 0.9; 0.99; 0.999; 1.0 ];
  print_newline ();
  let timed_s = float_of_int !timed_ns *. 1e-9 in
  Report.float r "setup_s" "s" (Clock.median_float !setups);
  Report.float r "ext_per_s" "1/s" (float_of_int !ext /. timed_s);
  Report.float r "guest_mips" "Minstr/s" (float_of_int !instr /. timed_s /. 1e6);
  Report.float r "run_ms_p90" "ms" (float_of_int (Clock.percentile runs 0.9) *. 1e-6);
  Report.float r "resume_us_p50" "us"
    (float_of_int (Clock.percentile resumes 0.5) *. 1e-3);
  Report.float r "resume_us_p90" "us"
    (float_of_int (Clock.percentile resumes 0.9) *. 1e-3);
  Report.float r "alloc_words_per_ext" "words" (!words /. float_of_int !ext);
  Report.int r "peak_frames" "frames" peak;
  Report.float r "host_heap_mb" "MB" heap_mb;
  Printf.printf
    "  %s: %d explorations timed (%d beyond run p90), %d extension \
     latencies (%d kept, %d beyond p90), %d set-ups\n"
    spec.name (Array.length runs) (Clock.beyond runs 0.9)
    (Clock.count resume) (Array.length resumes)
    (Clock.beyond resumes 0.9 * resume.Clock.stride)
    (List.length !setups)

(* {1 The traced run: per-layer metrics} *)

let run_traced spec ~seconds r =
  let costs = Calib.measure () in
  let reference = ref None in
  let gc = Perlayer.gc_zero () in
  let layers = Layers.create () in
  let un_ext = ref 0 and un_ns = ref 0 and un_units = ref 0 in
  let tr_ext = ref 0 and tr_units = ref 0 in
  let last_stats = ref None and last_machine = ref None in
  let untraced () =
    let machine, _ = setup spec in
    let t0 = Clock.now_ns () in
    let res = Perlayer.gc_measure gc (fun () -> Explorer.run machine) in
    un_ns := !un_ns + (Clock.now_ns () - t0);
    verify r spec reference ~what:"untraced exploration" res;
    un_ext := !un_ext + res.stats.extensions_evaluated;
    incr un_units
  in
  let traced () =
    let machine, _ = setup spec in
    let res = Layers.run layers machine in
    verify r spec reference ~what:"probed exploration" res;
    tr_ext := !tr_ext + res.stats.extensions_evaluated;
    incr tr_units;
    last_stats := Some res.stats;
    last_machine := Some machine
  in
  (* warm-up; records the reference counters *)
  let machine, _ = setup spec in
  verify r spec reference ~what:"warm-up exploration" (Explorer.run machine);
  Clock.loop_until ~seconds ~min:3 (fun () -> untraced (); traced ());
  let (), events, dropped =
    Perlayer.with_trace (fun () ->
        let machine, _ = setup spec in
        verify r spec reference ~what:"Obs.Trace exploration"
          (Explorer.run machine))
  in
  let sys_us, promote_us = Perlayer.span_means events in
  let s = Option.get !last_stats and machine = Option.get !last_machine in
  let m = s.Stats.mem in
  let per_ext = float_of_int s.extensions_evaluated in
  let fuses, hits, splits =
    Option.value (Os.Libos.block_counts machine) ~default:(0, 0, 0)
  in
  let syscalls = Array.fold_left ( + ) 0 machine.counters.syscall_count in
  let tr = float_of_int (max 1 !tr_ext) in
  let ns x = float_of_int x /. tr in
  let measured_ns = float_of_int !un_ns /. float_of_int !un_units in
  let predicted =
    Calib.print_ledger costs ~name:spec.name
      ~extensions:s.extensions_evaluated ~measured_ns
      { Calib.instructions = s.instructions;
        captures = s.snapshots_created; restores = s.restores;
        cow_faults = m.cow_faults; pushes = s.guesses;
        pops = s.extensions_evaluated + 1 }
  in
  let l = layers in
  let sum = l.guest_ns + l.sched_ns + l.residual_ns in
  Printf.printf
    "\n  probed time split (%s, ns per extension over %d explorations)\n\
    \  guest %.1f + scheduler %.1f + residual %.1f = %.1f; measured %.1f\n\
    \  scheduler detail: capture %.1f, push %.1f, pop %.1f, restore %.1f, \
     other %.1f\n"
    spec.name !tr_units (ns l.guest_ns) (ns l.sched_ns) (ns l.residual_ns)
    (ns sum) (ns l.measured_ns) (ns l.capture_ns) (ns l.push_ns) (ns l.pop_ns)
    (ns l.restore_ns)
    (ns (l.sched_ns - l.capture_ns - l.push_ns - l.pop_ns - l.restore_ns));
  Report.check r (sum = l.measured_ns) "probed time split does not add up";
  let mean a n = if n = 0 then 0.0 else float_of_int a /. float_of_int n in
  let untraced_rate = float_of_int !un_ext /. (float_of_int !un_ns *. 1e-9) in
  let traced_rate = float_of_int !tr_ext /. (float_of_int l.measured_ns *. 1e-9) in
  Perlayer.emit r
    ([ "vcpu.ns_per_instr",
       float_of_int l.guest_ns /. float_of_int (!tr_units * s.instructions);
       "vcpu.block_hit_ratio", Report.ratio hits (hits + fuses);
       "vcpu.block_splits", float_of_int splits;
       "vcpu.instructions", float_of_int s.instructions;
       "os.syscalls_per_ext", float_of_int syscalls /. per_ext;
       "os.demand_pages", float_of_int machine.counters.demand_pages;
       "os.syscall_self_us", sys_us;
       "mem.cow_faults_per_ext", float_of_int m.cow_faults /. per_ext;
       "mem.pages_copied", float_of_int m.pages_copied;
       "mem.tlb_miss_ratio", Report.ratio m.tlb_misses (m.tlb_hits + m.tlb_misses);
       "mem.tlb_flushes_per_restore", Report.ratio m.tlb_flushes m.restores;
       "mem.frames_recycled_ratio",
       Report.ratio m.frames_recycled m.frames_allocated;
       "mem.zero_fills_elided", float_of_int m.zero_fills_elided;
       "search.push_ns", mean l.push_ns l.pushes;
       "search.pop_ns", mean l.pop_ns l.pops;
       "search.max_frontier", float_of_int s.max_frontier;
       "snapshot.capture_ns", mean l.capture_ns l.captures;
       "snapshot.restore_ns", mean l.restore_ns l.restores;
       "snapshot.adopting_ratio", Report.ratio s.adopting_restores s.restores;
       "snapshot.max_live", float_of_int s.max_live_snapshots;
       "explorer.guest_ns_per_ext", ns l.guest_ns;
       "explorer.sched_ns_per_ext", ns l.sched_ns;
       "explorer.residual_ns_per_ext", ns l.residual_ns;
       "explorer.guest_alloc_words_per_ext", Layers.guest_words l /. tr;
       "explorer.sched_alloc_words_per_ext", Layers.sched_words l /. tr;
       "reclaim.demotions", float_of_int s.demotions;
       "reclaim.promotions", float_of_int s.promotions;
       "reclaim.replays", float_of_int s.replays;
       "reclaim.promote_us", promote_us;
       "ledger.predicted_ns_per_ext", predicted;
       "ledger.measured_ns_per_ext", measured_ns /. per_ext;
       "ledger.residual_ratio",
       (measured_ns /. per_ext -. predicted) /. (measured_ns /. per_ext);
       "trace.overhead", traced_rate /. untraced_rate;
       "trace.dropped", float_of_int dropped ]
    @ Perlayer.gc_values gc ~units:!un_units ~extensions:!un_ext)
