(* Per-layer time and allocation accounting for [Explorer]-driven runs,
   taken entirely from outside [lib/]: the [?probe] callbacks of
   [Explorer.run] split wall time into guest segments and scheduler work,
   and a timed DFS frontier passed as [`Custom] times the search layer.

   Every nanosecond of a probed run lands in exactly one of three
   buckets, so guest + scheduler + residual is the measured time:

   - guest: from the callback that ends scheduler work (a [resume] after a
     restore, or a [set_rax]) to the [eval] that ends the segment — the
     vcpu/os/mem work of evaluating one extension.  The first segment
     (boot to the strategy scope) starts when [Explorer.run] is entered.
   - scheduler: from [eval] to the next segment start — harvest, capture,
     frontier push/pop, release and restore.
   - residual: after the last [eval] until [Explorer.run] returns (the
     run's own summary work).

   Minor-heap words are sampled at the same points.  Stamps use the
   allocation-free clock, and word counts live in a flat float array, so
   the probe itself allocates nothing. *)

module Frontier = Search.Frontier

type t = {
  mutable in_guest : bool;
  mutable phase_ns : int;
  mutable guest_ns : int;
  mutable sched_ns : int;
  mutable residual_ns : int;
  mutable measured_ns : int;
  mutable segments : int;
  mutable capture_from : int;  (* eval stamp of a pending Guess; -1 none *)
  mutable capture_ns : int;
  mutable captures : int;
  mutable pop_end : int;  (* stamp when the last pop returned; -1 none *)
  mutable restore_ns : int;
  mutable restores : int;
  mutable push_ns : int;
  mutable pushes : int;
  mutable pop_ns : int;
  mutable pops : int;
  words : Float.Array.t;
      (* 0: words at phase start; 1: guest; 2: scheduler; 3: residual *)
}

let create () =
  { in_guest = true; phase_ns = 0; guest_ns = 0; sched_ns = 0;
    residual_ns = 0; measured_ns = 0; segments = 0; capture_from = -1;
    capture_ns = 0; captures = 0; pop_end = -1; restore_ns = 0;
    restores = 0; push_ns = 0; pushes = 0; pop_ns = 0; pops = 0;
    words = Float.Array.make 4 0.0 }

let bump_words t slot =
  let w = Gc.minor_words () in
  Float.Array.set t.words slot
    (Float.Array.get t.words slot +. (w -. Float.Array.get t.words 0));
  Float.Array.set t.words 0 w

let guest_words t = Float.Array.get t.words 1
let sched_words t = Float.Array.get t.words 2

let to_sched t now =
  if t.in_guest then begin
    t.guest_ns <- t.guest_ns + (now - t.phase_ns);
    bump_words t 1;
    t.in_guest <- false;
    t.phase_ns <- now
  end

let to_guest t now =
  if not t.in_guest then begin
    t.sched_ns <- t.sched_ns + (now - t.phase_ns);
    bump_words t 2;
    t.in_guest <- true;
    t.phase_ns <- now
  end

let probe t =
  { Record.Probe.eval =
      (fun ~retired:_ stop ->
        let now = Clock.now_ns () in
        to_sched t now;
        t.segments <- t.segments + 1;
        t.capture_from <-
          (match stop with Os.Libos.Guess _ -> now | _ -> -1));
    crash = (fun ~retired:_ _ -> to_sched t (Clock.now_ns ()));
    capture =
      (fun ~snap:_ ->
        if t.capture_from >= 0 then begin
          t.capture_ns <- t.capture_ns + (Clock.now_ns () - t.capture_from);
          t.captures <- t.captures + 1;
          t.capture_from <- -1
        end);
    resume =
      (fun ~snap:_ ~rax:_ ->
        let now = Clock.now_ns () in
        if t.pop_end >= 0 then begin
          t.restore_ns <- t.restore_ns + (now - t.pop_end);
          t.restores <- t.restores + 1;
          t.pop_end <- -1
        end;
        to_guest t now);
    set_rax = (fun _ -> to_guest t (Clock.now_ns ())) }

(* [Frontier.dfs] with every push and pop timed. *)
let timed_dfs t () =
  let f = Frontier.dfs () in
  { f with
    Frontier.push_batch =
      (fun batch ->
        let t0 = Clock.now_ns () in
        f.Frontier.push_batch batch;
        t.push_ns <- t.push_ns + (Clock.now_ns () - t0);
        t.pushes <- t.pushes + 1);
    pop =
      (fun () ->
        let t0 = Clock.now_ns () in
        let r = f.Frontier.pop () in
        let t1 = Clock.now_ns () in
        t.pop_ns <- t.pop_ns + (t1 - t0);
        t.pops <- t.pops + 1;
        t.pop_end <- t1;
        r) }

(* One probed exploration of a booted machine; accumulates into [t]. *)
let run t machine =
  let probe = probe t and strategy = `Custom (timed_dfs t) in
  let start = Clock.now_ns () in
  t.in_guest <- true;
  t.phase_ns <- start;
  t.capture_from <- -1;
  t.pop_end <- -1;
  Float.Array.set t.words 0 (Gc.minor_words ());
  let result =
    Core.Explorer.run ~strategy_override:strategy ~probe machine
  in
  let stop = Clock.now_ns () in
  if t.in_guest then begin
    t.guest_ns <- t.guest_ns + (stop - t.phase_ns);
    bump_words t 1
  end
  else begin
    t.residual_ns <- t.residual_ns + (stop - t.phase_ns);
    bump_words t 3
  end;
  t.measured_ns <- t.measured_ns + (stop - start);
  result
