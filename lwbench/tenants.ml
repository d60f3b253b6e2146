(* The [service] workload: a closed loop of 64 clients over one shared
   [Core.Tenancy] pool (the paper's externally driven solver service,
   section 3.2).  Each tenant boots the same Locality image; its client
   walks a seeded random path from the tenant's immutable root candidate
   to a leaf, one outstanding request at a time, releases the path's
   references and starts again from the root.  Round robin: every round
   serves each tenant once.  A unit of work is one pass: boot a fresh
   pool, serve [rounds] rounds, tear the pool down. *)

module Tenancy = Core.Tenancy
module Service = Core.Service
module Phys = Mem.Phys_mem
module MM = Mem.Mem_metrics

let tenants = 64

let params =
  { Workloads.Locality.depth = 6; branch = 3; touch_pages = 8; work = 20;
    arena_pages = 64 }

(* Frames in the shared pool: below a pass's footprint, so pressure
   demotes and promotes steadily (see README.md). *)
let capacity = 8000

let rounds = 782  (* 50,048 resumes per pass *)

type pass = {
  counters : Report.counters;
  resumes : int;
  publishes : int;
  timed_ns : int;  (* wall time of the rounds *)
  words : float;   (* minor words allocated inside post+step *)
  setup_s : float;
  peak : int;
  pressure_events : int;
  level2 : int;
  dedup_ratio : float;
  replays : int;
  mem : MM.t;
  blocks : int * int * int;
  syscalls : int;
  demand_pages : int;
  max_live : int;
}

let boot () =
  let t0 = Clock.now_ns () in
  let image = Workloads.Locality.program params in
  let pool = Tenancy.create ~capacity () in
  let roots =
    Array.init tenants (fun i ->
        match Tenancy.boot pool image with
        | Tenancy.Admitted (id, Service.Ready { candidate; arity; _ })
          when id = i && arity = params.branch ->
          candidate
        | _ -> failwith (Printf.sprintf "service: tenant %d failed to boot" i))
  in
  pool, roots, Clock.seconds_since t0

let describe = function
  | Service.Ready { arity; _ } -> Printf.sprintf "Ready(arity %d)" arity
  | Service.Finished { status; _ } -> Printf.sprintf "Finished(%d)" status
  | Service.Failed _ -> "Failed"
  | Service.Crashed why -> "Crashed: " ^ why

(* Serve the rounds; returns everything but the drain check, so the pool
   is garbage once this returns. *)
let serve r ~seed ~wrong ~latencies ~round_times =
  let pool, roots, setup_s = boot () in
  let phys = Tenancy.phys pool in
  let svc = Array.init tenants (Tenancy.service pool) in
  let machines = Array.map Service.machine svc in
  let retired () =
    Array.fold_left (fun acc m -> acc + m.Os.Libos.cpu.Vcpu.Cpu.retired) 0
      machines
  in
  let retired0 = retired () in
  let mem0 = MM.copy (Phys.metrics phys) in
  let rng = Random.State.make [| seed |] in
  let expected_arity = params.branch + if wrong then 1 else 0 in
  let cur = Array.copy roots in
  let depth = Array.make tenants 0 in
  let path = Array.make tenants [] in
  let words = Float.Array.make 1 0.0 in
  let timed_ns = ref 0 and publishes = ref 0 and max_live = ref 0 in
  let restart i =
    List.iter (Service.release svc.(i)) path.(i);
    path.(i) <- [];
    cur.(i) <- roots.(i);
    depth.(i) <- 0
  in
  for _ = 1 to rounds do
    let round0 = Clock.now_ns () in
    for i = 0 to tenants - 1 do
      let choice = Random.State.int rng params.branch in
      let w0 = Gc.minor_words () in
      let t0 = Clock.now_ns () in
      let posted = Tenancy.post pool i cur.(i) ~choice () in
      let served = Tenancy.step pool in
      let t1 = Clock.now_ns () in
      Float.Array.set words 0
        (Float.Array.get words 0 +. (Gc.minor_words () -. w0));
      Clock.add latencies (t1 - t0);
      Report.attempt r;
      match served with
      | Some (id, outcome) when posted && id = i -> (
        let d = depth.(i) + 1 in
        match outcome with
        | Service.Ready { candidate; arity; _ }
          when arity = expected_arity && d < params.depth ->
          incr publishes;
          path.(i) <- candidate :: path.(i);
          cur.(i) <- candidate;
          depth.(i) <- d
        | Service.Failed _ when d = params.depth -> restart i
        | o ->
          Report.fail r
            (Printf.sprintf "service: tenant %d at depth %d returned %s" i d
               (describe o));
          (match o with Service.Ready { candidate; _ } ->
             path.(i) <- candidate :: path.(i) | _ -> ());
          restart i)
      | _ ->
        Report.fail r (Printf.sprintf "service: tenant %d was not served" i);
        restart i
    done;
    let dt = Clock.now_ns () - round0 in
    Clock.add round_times dt;
    timed_ns := !timed_ns + dt;
    let live = Array.fold_left (fun acc s -> acc + Service.live_candidates s) 0 svc in
    if live > !max_live then max_live := live
  done;
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 svc in
  let mem = MM.diff (Phys.metrics phys) mem0 in
  let blocks =
    Array.fold_left
      (fun (f, h, s) m ->
        match Os.Libos.block_counts m with
        | Some (f', h', s') -> f + f', h + h', s + s'
        | None -> f, h, s)
      (0, 0, 0) machines
  in
  let syscalls =
    Array.fold_left
      (fun acc m -> acc + Array.fold_left ( + ) 0 m.Os.Libos.counters.syscall_count)
      0 machines
  in
  let demand_pages =
    Array.fold_left (fun acc m -> acc + m.Os.Libos.counters.demand_pages) 0 machines
  in
  let pass =
    { counters =
        { Report.instructions = retired () - retired0;
          cow_faults = mem.cow_faults; restores = mem.restores;
          demotions = sum Service.demotions;
          promotions = sum Service.promotions };
      resumes = rounds * tenants; publishes = !publishes; timed_ns = !timed_ns;
      words = Float.Array.get words 0; setup_s; peak = Phys.peak_frames_live phys;
      pressure_events = Phys.pressure_events phys;
      level2 = Tenancy.pressure_level2 pool;
      dedup_ratio = Tenancy.dedup_ratio pool; replays = sum Service.replays;
      mem; blocks; syscalls; demand_pages; max_live = !max_live }
  in
  (* teardown: retire every tenant (returns its dedup references) and
     detach the pool's pressure handler, the last path from the physical
     memory back to the pool *)
  for i = 0 to tenants - 1 do
    Tenancy.kill pool i
  done;
  Phys.set_pressure_handler phys None;
  phys, pass

(* One pass, then check that frames and dedup references drained. *)
let pass r ~seed ~wrong ~latencies ~round_times =
  let phys, p = serve r ~seed ~wrong ~latencies ~round_times in
  Report.attempt r;
  Report.check r (Phys.dedup_refs phys = 0)
    (Printf.sprintf "service: %d dedup references outlived teardown"
       (Phys.dedup_refs phys));
  Gc.full_major ();
  Gc.full_major ();
  Report.check r (Phys.frames_live phys = 0)
    (Printf.sprintf "service: %d frames still live after teardown"
       (Phys.frames_live phys));
  p

let run ~seed ~wrong ~seconds r =
  let latencies = Clock.samples ()
  and round_times = Clock.samples ~capacity:(1 lsl 16) () in
  let reference = ref None in
  let check (p : pass) =
    match !reference with
    | None -> reference := Some p.counters
    | Some reference ->
      Report.check_counters r ~what:"service pass" ~reference p.counters
  in
  let one () = pass r ~seed ~wrong ~latencies ~round_times in
  (* Warm-up, not a counter reference: pressure counts depend on when the
     GC finalises dropped frames, and the first pass of a process runs on
     a cold heap (see README.md). *)
  ignore (one ());
  Clock.reset latencies;
  Clock.reset round_times;
  let passes = ref [] in
  Clock.loop_until ~seconds ~min:2 (fun () ->
      let p = one () in
      check p;
      passes := p :: !passes);
  let heap_mb = Clock.host_heap_mb () in
  let passes = List.rev !passes in
  (* Throughput is the median over passes: a pass is a natural repetition,
     and the median keeps one pass caught in a slow host spell from
     moving the run's figure. *)
  let rate (p : pass) =
    float_of_int p.resumes /. (float_of_int p.timed_ns *. 1e-9)
  in
  Printf.printf "  service: resumes/s per pass:";
  List.iter (fun p -> Printf.printf " %.0f" (rate p)) passes;
  print_newline ();
  let total f = List.fold_left (fun acc p -> acc + f p) 0 passes in
  let resumes = total (fun p -> p.resumes) in
  let words = List.fold_left (fun acc p -> acc +. p.words) 0.0 passes in
  let lat = Clock.sorted latencies and rounds_sorted = Clock.sorted round_times in
  Report.float r "setup_s" "s" (Clock.median_float (List.map (fun p -> p.setup_s) passes));
  Report.float r "ext_per_s" "1/s" (Clock.median_float (List.map rate passes));
  Report.float r "guest_mips" "Minstr/s"
    (Clock.median_float
       (List.map
          (fun p -> rate p *. float_of_int p.counters.instructions
                    /. float_of_int p.resumes /. 1e6)
          passes));
  Report.float r "run_ms_p90" "ms"
    (float_of_int (Clock.percentile rounds_sorted 0.9) *. 1e-6);
  Report.float r "resume_us_p50" "us" (float_of_int (Clock.percentile lat 0.5) *. 1e-3);
  Report.float r "resume_us_p90" "us" (float_of_int (Clock.percentile lat 0.9) *. 1e-3);
  Report.float r "alloc_words_per_ext" "words" (words /. float_of_int resumes);
  Report.int r "peak_frames" "frames" (List.fold_left (fun acc p -> max acc p.peak) 0 passes);
  Report.float r "host_heap_mb" "MB" heap_mb;
  Printf.printf
    "  service: %d passes, %d resumes timed (%d kept, %d beyond p99), %d \
     rounds (%d beyond p90), round ms p50 %.3f, resume us p99 %.2f p99.9 \
     %.2f\n"
    (List.length passes) (Clock.count latencies) (Array.length lat)
    (Clock.beyond lat 0.99 * latencies.Clock.stride)
    (Array.length rounds_sorted) (Clock.beyond rounds_sorted 0.9)
    (float_of_int (Clock.percentile rounds_sorted 0.5) *. 1e-6)
    (float_of_int (Clock.percentile lat 0.99) *. 1e-3)
    (float_of_int (Clock.percentile lat 0.999) *. 1e-3)

let run_traced ~seed ~wrong ~seconds r =
  let costs = Calib.measure () in
  let latencies = Clock.samples ()
  and round_times = Clock.samples ~capacity:(1 lsl 16) () in
  let reference = ref None in
  let check ~what (p : pass) =
    match !reference with
    | None -> reference := Some p.counters
    | Some reference -> Report.check_counters r ~what ~reference p.counters
  in
  let one () = pass r ~seed ~wrong ~latencies ~round_times in
  ignore (one ());
  let gc = Perlayer.gc_zero () in
  let un_ns = ref 0 and un_resumes = ref 0 and un_passes = ref 0 in
  let tr_ns = ref 0 and tr_resumes = ref 0 in
  let last = ref None in
  Clock.loop_until ~seconds ~min:1 (fun () ->
      let p = Perlayer.gc_measure gc one in
      check ~what:"untraced pass" p;
      un_ns := !un_ns + p.timed_ns;
      un_resumes := !un_resumes + p.resumes;
      incr un_passes;
      let p, events, dropped = Perlayer.with_trace one in
      check ~what:"traced pass" p;
      tr_ns := !tr_ns + p.timed_ns;
      tr_resumes := !tr_resumes + p.resumes;
      last := Some (p, events, dropped));
  let p, events, dropped = Option.get !last in
  let sys_us, promote_us = Perlayer.span_means events in
  let m = p.mem in
  let fuses, hits, splits = p.blocks in
  let per_ext = float_of_int p.resumes in
  let measured_ns = float_of_int !un_ns /. float_of_int !un_passes in
  let predicted =
    Calib.print_ledger costs ~name:"service" ~extensions:p.resumes ~measured_ns
      { Calib.instructions = p.counters.instructions; captures = p.publishes;
        restores = m.restores; cow_faults = m.cow_faults; pushes = 0; pops = 0 }
  in
  let rate ns n = float_of_int n /. (float_of_int ns *. 1e-9) in
  Perlayer.emit r
    ([ "vcpu.block_hit_ratio", Report.ratio hits (hits + fuses);
       "vcpu.block_splits", float_of_int splits;
       "vcpu.instructions", float_of_int p.counters.instructions;
       "os.syscalls_per_ext", float_of_int p.syscalls /. per_ext;
       "os.demand_pages", float_of_int p.demand_pages;
       "os.syscall_self_us", sys_us;
       "mem.cow_faults_per_ext", float_of_int m.cow_faults /. per_ext;
       "mem.pages_copied", float_of_int m.pages_copied;
       "mem.tlb_miss_ratio", Report.ratio m.tlb_misses (m.tlb_hits + m.tlb_misses);
       "mem.tlb_flushes_per_restore", Report.ratio m.tlb_flushes m.restores;
       "mem.frames_recycled_ratio",
       Report.ratio m.frames_recycled m.frames_allocated;
       "mem.zero_fills_elided", float_of_int m.zero_fills_elided;
       "mem.pressure_events", float_of_int p.pressure_events;
       "snapshot.max_live", float_of_int p.max_live;
       "reclaim.demotions", float_of_int p.counters.demotions;
       "reclaim.promotions", float_of_int p.counters.promotions;
       "reclaim.replays", float_of_int p.replays;
       "reclaim.promote_us", promote_us;
       "tenancy.pressure_level2", float_of_int p.level2;
       "tenancy.dedup_ratio", p.dedup_ratio;
       "ledger.predicted_ns_per_ext", predicted;
       "ledger.measured_ns_per_ext", measured_ns /. per_ext;
       "ledger.residual_ratio",
       (measured_ns /. per_ext -. predicted) /. (measured_ns /. per_ext);
       "trace.overhead", rate !tr_ns !tr_resumes /. rate !un_ns !un_resumes;
       "trace.dropped", float_of_int dropped ]
    @ Perlayer.gc_values gc ~units:!un_passes ~extensions:!un_resumes)
