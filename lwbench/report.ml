(* Result assembly: named metrics with units, a human-readable table on
   stdout, and the one-line JSON result that ends the output. *)

type value = Int of int | Float of float

type t = {
  mutable metrics : (string * value * string) list;  (* reversed *)
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (* reversed; first few reported *)
}

let create () = { metrics = []; attempted = 0; failed = 0; failures = [] }

let float r name unit v = r.metrics <- (name, Float v, unit) :: r.metrics
let int r name unit v = r.metrics <- (name, Int v, unit) :: r.metrics

let attempt r = r.attempted <- r.attempted + 1

(* Count a failed operation; [why] is reported for the first few. *)
let fail r why =
  r.failed <- r.failed + 1;
  if List.length r.failures < 8 then r.failures <- why :: r.failures

let check r ok why = if not ok then fail r why

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let value_to_string = function
  | Int n -> string_of_int n
  | Float f when Float.is_integer f && Float.abs f < 1e15 -> Printf.sprintf "%.1f" f
  | Float f -> Printf.sprintf "%.17g" f

let print_table r =
  List.iter
    (fun (name, v, unit) ->
      Printf.printf "  %-36s %20s %s\n" name (value_to_string v) unit)
    (List.rev r.metrics)

let json_string s = Printf.sprintf "%S" s

let print_json r =
  List.iter
    (fun (_, v, _) ->
      match v with
      | Float f when not (Float.is_finite f) ->
        failwith "lwbench: a metric is not a finite number"
      | _ -> ())
    r.metrics;
  let fields =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
          (value_to_string v) (json_string unit))
      (List.rev r.metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (r.failed = 0) r.attempted r.failed
    (String.concat ", " fields)

let finish r =
  print_table r;
  Printf.printf "  %-36s %20d / %d\n" "failed / attempted" r.failed r.attempted;
  Printf.printf "  %-36s %20.17g\n" "fail_ratio" (ratio r.failed (max 1 r.attempted));
  List.iter (Printf.printf "  FAILED: %s\n") (List.rev r.failures);
  print_json r;
  flush stdout

(* The deterministic counters of one workload unit.  Every unit of a run,
   and the traced run's instrumented units, must reproduce the first
   untraced unit's counters exactly: a difference means the program (or
   the instrumentation) changed what was executed. *)
type counters = {
  instructions : int;
  cow_faults : int;
  restores : int;
  demotions : int;
  promotions : int;
}

let counters_to_string c =
  Printf.sprintf "instructions=%d cow_faults=%d restores=%d demotions=%d \
                  promotions=%d"
    c.instructions c.cow_faults c.restores c.demotions c.promotions

let check_counters r ~what ~reference c =
  check r (c = reference)
    (Printf.sprintf "%s counters differ: %s, reference %s" what
       (counters_to_string c) (counters_to_string reference))
