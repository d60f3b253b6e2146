(* lwbench: the lwsnap benchmark.  See README.md for the workloads, the
   metrics and how to run it.

     lwbench --workload queens|compute|service --seed N --seconds S
             --trace 0|1

   Prints a human-readable report, then as its last line one JSON object
   {correct, attempted, failed, metrics}: the end-to-end metrics with
   --trace 0, the per-layer metrics with --trace 1.  Exits 1 when an
   output was wrong, 2 on bad arguments. *)

let usage =
  "lwbench --workload queens|compute|service --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let wrong = ref false in
  Arg.parse
    [ "--workload", Arg.Set_string workload, " queens, compute or service";
      "--seed", Arg.Set_int seed, " seed of the service's choice stream";
      "--seconds", Arg.Set_int seconds, " measuring time per run";
      "--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer";
      "--wrong-expected", Arg.Set wrong,
      " expect a deliberately wrong answer (the smoke check's self-test)" ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if
    !seconds < 1
    || (!trace <> 0 && !trace <> 1)
    || not (List.mem !workload [ "queens"; "compute"; "service" ])
  then begin
    prerr_endline usage;
    exit 2
  end;
  let seconds = float_of_int !seconds and traced = !trace = 1 in
  let r = Report.create () in
  let explore spec =
    if traced then Explore.run_traced spec ~seconds r
    else Explore.run spec ~seconds r
  in
  Printf.printf "lwbench: workload %s, seed %d, %.0f s, trace %d\n%!" !workload
    !seed seconds !trace;
  (match !workload with
  | "queens" -> explore (Explore.queens ~wrong:!wrong)
  | "compute" -> explore (Explore.compute ~wrong:!wrong)
  | "service" ->
    (if traced then Tenants.run_traced else Tenants.run)
      ~seed:!seed ~wrong:!wrong ~seconds r
  | _ -> assert false);
  Report.finish r;
  exit (if r.failed = 0 then 0 else 1)
