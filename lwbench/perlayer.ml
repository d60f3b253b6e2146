(* The per-layer metric set printed by a traced run, in one table so every
   workload prints every name with the same unit.  A workload supplies the
   values its layers produce; a metric a workload's layers cannot produce
   (no frontier under [Tenancy], no reclaim under an unbounded explorer)
   prints as 0. *)

let metrics =
  [ "vcpu.ns_per_instr", "ns";
    "vcpu.block_hit_ratio", "ratio";
    "vcpu.block_splits", "count";
    "vcpu.instructions", "count";
    "os.syscalls_per_ext", "count";
    "os.demand_pages", "count";
    "os.syscall_self_us", "us";
    "mem.cow_faults_per_ext", "count";
    "mem.pages_copied", "count";
    "mem.tlb_miss_ratio", "ratio";
    "mem.tlb_flushes_per_restore", "count";
    "mem.frames_recycled_ratio", "ratio";
    "mem.zero_fills_elided", "count";
    "mem.pressure_events", "count";
    "search.push_ns", "ns";
    "search.pop_ns", "ns";
    "search.max_frontier", "count";
    "snapshot.capture_ns", "ns";
    "snapshot.restore_ns", "ns";
    "snapshot.adopting_ratio", "ratio";
    "snapshot.max_live", "count";
    "explorer.guest_ns_per_ext", "ns";
    "explorer.sched_ns_per_ext", "ns";
    "explorer.residual_ns_per_ext", "ns";
    "explorer.guest_alloc_words_per_ext", "words";
    "explorer.sched_alloc_words_per_ext", "words";
    "reclaim.demotions", "count";
    "reclaim.promotions", "count";
    "reclaim.replays", "count";
    "reclaim.promote_us", "us";
    "tenancy.pressure_level2", "count";
    "tenancy.dedup_ratio", "ratio";
    "gc.minor_collections_per_kext", "count";
    "gc.major_collections", "count";
    "gc.promoted_words_per_ext", "words";
    "ledger.predicted_ns_per_ext", "ns";
    "ledger.measured_ns_per_ext", "ns";
    "ledger.residual_ratio", "ratio";
    "trace.overhead", "ratio";
    "trace.dropped", "count" ]

let emit r values =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name metrics) then
        invalid_arg ("Perlayer.emit: unknown metric " ^ name))
    values;
  List.iter
    (fun (name, unit) ->
      Report.float r name unit
        (Option.value (List.assoc_opt name values) ~default:0.0))
    metrics

(* GC activity over an interval, from [Gc.quick_stat] deltas. *)
type gc = {
  mutable minor_collections : int;
  mutable major_collections : int;
  mutable promoted_words : float;
}

let gc_zero () = { minor_collections = 0; major_collections = 0; promoted_words = 0.0 }

let gc_measure acc f =
  let s0 = Gc.quick_stat () in
  let x = f () in
  let s1 = Gc.quick_stat () in
  acc.minor_collections <-
    acc.minor_collections + (s1.Gc.minor_collections - s0.Gc.minor_collections);
  acc.major_collections <-
    acc.major_collections + (s1.Gc.major_collections - s0.Gc.major_collections);
  acc.promoted_words <-
    acc.promoted_words +. (s1.Gc.promoted_words -. s0.Gc.promoted_words);
  x

let gc_values g ~units ~extensions =
  let ext = float_of_int (max 1 extensions) in
  [ "gc.minor_collections_per_kext",
    1000.0 *. float_of_int g.minor_collections /. ext;
    "gc.major_collections",
    float_of_int g.major_collections /. float_of_int (max 1 units);
    "gc.promoted_words_per_ext", g.promoted_words /. ext ]

(* Mean self time of the ordinary-syscall spans ("sys.*") and of one
   named span, in microseconds, from an [Obs.Trace] session.  Syscall
   spans have no child spans, so a span's duration is its self time. *)
let span_means events =
  let summary = Obs.Export.span_summary events in
  let sys_us, sys_n =
    List.fold_left
      (fun (us, n) (name, (a : Obs.Export.span_agg)) ->
        if String.length name > 4 && String.sub name 0 4 = "sys." then
          us + a.s_total_us, n + a.s_count
        else us, n)
      (0, 0) summary
  in
  let mean name =
    match List.assoc_opt name summary with
    | Some a when a.Obs.Export.s_count > 0 ->
      float_of_int a.s_total_us /. float_of_int a.s_count
    | _ -> 0.0
  in
  (if sys_n = 0 then 0.0 else float_of_int sys_us /. float_of_int sys_n),
  mean Obs.Names.reclaim_promote

let with_trace f =
  Obs.Trace.start ~capacity:(1 lsl 18) ();
  let x = Fun.protect ~finally:Obs.Trace.stop f in
  let events = Obs.Trace.events () in
  let dropped = Obs.Trace.dropped () in
  Obs.Trace.clear ();
  x, events, dropped
