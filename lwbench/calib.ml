(* Unit-cost calibration for the cost ledger: direct calls into the
   public entry points of each layer, timed in isolation.  The ledger then
   predicts a workload's time as sum(count x unit cost) over the
   deterministic event counters and reports the residual — the share of
   measured time no calibrated unit explains.  A report, not a gate. *)

module As = Mem.Addr_space

type costs = {
  dispatch_ns : float;  (* per guest instruction, straight-line ALU *)
  snapshot_ns : float;  (* Addr_space.snapshot *)
  restore_ns : float;   (* Addr_space.restore to a map one page apart *)
  cow_ns : float;       (* write_u64 to a page of a retired generation *)
  push_ns : float;      (* Frontier.dfs push_batch of 8 *)
  pop_ns : float;       (* Frontier.dfs pop *)
}

let median_of n f =
  Clock.median_float (List.init n (fun _ -> f ()))

let dispatch () =
  let iters = 20_000 in
  let image = Workloads.Dispatch_micro.work_heavy ~iters () in
  let insns = Workloads.Dispatch_micro.work_heavy_insns ~iters () in
  median_of 7 (fun () ->
      let m = Os.Libos.boot (Mem.Phys_mem.create ()) image in
      let t0 = Clock.now_ns () in
      (match Os.Libos.run m ~fuel:max_int with
      | Os.Libos.Exited _ -> ()
      | stop ->
        failwith (Format.asprintf "calibration guest stopped: %a"
                    Os.Libos.pp_stop stop));
      float_of_int (Clock.now_ns () - t0) /. float_of_int insns)

(* An address space of [pages] private pages: the size of a small guest. *)
let private_space pages =
  let a = As.create (Mem.Phys_mem.create ()) in
  for vpn = 16 to 16 + pages - 1 do
    As.map_zero a ~vpn;
    As.write_u64 a (vpn * Mem.Page.size) vpn
  done;
  a

let reps = 20_000

let snapshot_restore_cow () =
  let a = private_space 16 in
  let addr = 16 * Mem.Page.size in
  let snap_ns = ref 0 and cow_ns = ref 0 and restore_ns = ref 0 in
  let s0 = As.snapshot a in
  As.write_u64 a addr 1;
  let s1 = As.snapshot a in
  for k = 1 to reps do
    let t0 = Clock.now_ns () in
    ignore (As.snapshot a);
    let t1 = Clock.now_ns () in
    (* the snapshot retired the page's generation: this store copies *)
    As.write_u64 a addr k;
    let t2 = Clock.now_ns () in
    As.restore a (if k land 1 = 0 then s0 else s1);
    let t3 = Clock.now_ns () in
    snap_ns := !snap_ns + (t1 - t0);
    cow_ns := !cow_ns + (t2 - t1);
    restore_ns := !restore_ns + (t3 - t2)
  done;
  let per r = float_of_int !r /. float_of_int reps in
  per snap_ns, per restore_ns, per cow_ns

let frontier () =
  let f = Search.Frontier.dfs () in
  let meta = { Search.Frontier.depth = 1; hint = 0 } in
  let batch = List.init 8 (fun i -> meta, i) in
  let push = ref 0 and pop = ref 0 in
  for _ = 1 to reps do
    let t0 = Clock.now_ns () in
    f.Search.Frontier.push_batch batch;
    let t1 = Clock.now_ns () in
    for _ = 1 to 8 do
      ignore (f.Search.Frontier.pop ())
    done;
    pop := !pop + (Clock.now_ns () - t1);
    push := !push + (t1 - t0)
  done;
  float_of_int !push /. float_of_int reps,
  float_of_int !pop /. float_of_int (8 * reps)

let measure () =
  let dispatch_ns = dispatch () in
  let snapshot_ns, restore_ns, cow_ns = snapshot_restore_cow () in
  let push_ns, pop_ns = frontier () in
  { dispatch_ns; snapshot_ns; restore_ns; cow_ns; push_ns; pop_ns }

(* Event counts of one workload unit, the ledger's input. *)
type counts = {
  instructions : int;
  captures : int;
  restores : int;
  cow_faults : int;
  pushes : int;
  pops : int;
}

let print_ledger c ~name ~extensions ~measured_ns (n : counts) =
  let rows =
    [ "dispatch", float_of_int n.instructions *. c.dispatch_ns,
      n.instructions, c.dispatch_ns;
      "snapshot capture", float_of_int n.captures *. c.snapshot_ns,
      n.captures, c.snapshot_ns;
      "restore", float_of_int n.restores *. c.restore_ns, n.restores,
      c.restore_ns;
      "cow fault", float_of_int n.cow_faults *. c.cow_ns, n.cow_faults,
      c.cow_ns;
      "frontier push", float_of_int n.pushes *. c.push_ns, n.pushes, c.push_ns;
      "frontier pop", float_of_int n.pops *. c.pop_ns, n.pops, c.pop_ns ]
  in
  let ext = float_of_int (max 1 extensions) in
  let predicted = List.fold_left (fun acc (_, ns, _, _) -> acc +. ns) 0.0 rows in
  Printf.printf "\n  cost ledger (%s, per extension; %d extensions per unit)\n"
    name extensions;
  Printf.printf "  %-18s %12s %12s %14s\n" "layer" "count/ext" "unit ns"
    "predicted ns";
  List.iter
    (fun (label, ns, count, unit_ns) ->
      Printf.printf "  %-18s %12.3f %12.2f %14.1f\n" label
        (float_of_int count /. ext) unit_ns (ns /. ext))
    rows;
  let measured = measured_ns /. ext in
  Printf.printf "  %-18s %12s %12s %14.1f\n" "predicted" "" "" (predicted /. ext);
  Printf.printf "  %-18s %12s %12s %14.1f\n" "measured" "" "" measured;
  Printf.printf "  %-18s %12s %12s %14.1f  (%.1f%% of measured)\n" "residual"
    "" "" (measured -. (predicted /. ext))
    (100.0 *. (measured -. (predicted /. ext)) /. measured);
  predicted /. ext
