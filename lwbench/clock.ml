(* Nanosecond monotonic clock and bounded latency sample buffers.

   [now_ns] is a [@@noalloc] external returning an unboxed int64, so a
   timestamp costs one vDSO call and allocates nothing: the benchmark can
   stamp every scheduler stop of n-queens without moving the allocation
   figures it reports. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* A fixed-capacity sample buffer that decimates instead of overflowing:
   it keeps every [stride]-th sample offered, and when full keeps every
   other retained one and doubles the stride.  The retained set stays an
   evenly spaced subsequence of everything offered, so its percentiles
   estimate the whole run's.  Adding never allocates. *)
type samples = {
  buf : int array;
  mutable len : int;
  mutable stride : int;
  mutable seen : int;
}

let samples ?(capacity = 1 lsl 20) () =
  { buf = Array.make (max 2 (capacity land lnot 1)) 0; len = 0; stride = 1;
    seen = 0 }

let add s v =
  let i = s.seen in
  s.seen <- i + 1;
  if i land (s.stride - 1) = 0 then begin
    if s.len = Array.length s.buf then begin
      let half = s.len / 2 in
      for k = 0 to half - 1 do
        s.buf.(k) <- s.buf.(2 * k)
      done;
      s.len <- half;
      s.stride <- 2 * s.stride
    end;
    if i land (s.stride - 1) = 0 then begin
      s.buf.(s.len) <- v;
      s.len <- s.len + 1
    end
  end

let count s = s.seen

let sorted s =
  let a = Array.sub s.buf 0 s.len in
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted array ([p] in [0, 1]). *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then 0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

(* Samples of a sorted array strictly above its [p] percentile. *)
let beyond a p =
  let v = percentile a p in
  Array.fold_left (fun acc x -> if x > v then acc + 1 else acc) 0 a

let median_float xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let reset s =
  s.len <- 0;
  s.stride <- 1;
  s.seen <- 0

let host_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* Hard stop well inside the per-run time limit, whatever [--seconds]. *)
let max_wall_s = 120.0

(* Repeat [f] for [seconds] of wall clock, and at least [min] times. *)
let loop_until ~seconds ~min f =
  let t0 = now_ns () in
  let n = ref 0 in
  while
    let elapsed = seconds_since t0 in
    elapsed < max_wall_s && (elapsed < seconds || !n < min)
  do
    f ();
    incr n
  done
