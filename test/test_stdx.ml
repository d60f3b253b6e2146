(* Substrate data structures: Patricia tries, pairing heaps, PRNG, vectors. *)

module Ptmap = Stdx.Ptmap
module Pheap = Stdx.Pheap
module Prng = Stdx.Prng
module Vec = Stdx.Vec
module Intset = Stdx.Intset

let check = Alcotest.check
let qtest ?(count = 500) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* {1 Ptmap} *)

let ptmap_basic () =
  let m = Ptmap.of_list [ 1, "a"; 2, "b"; 3, "c" ] in
  check (Alcotest.option Alcotest.string) "find 2" (Some "b") (Ptmap.find_opt 2 m);
  check Alcotest.int "cardinal" 3 (Ptmap.cardinal m);
  let m = Ptmap.remove 2 m in
  check (Alcotest.option Alcotest.string) "removed" None (Ptmap.find_opt 2 m);
  check Alcotest.bool "mem 1" true (Ptmap.mem 1 m);
  check Alcotest.bool "empty" true (Ptmap.is_empty Ptmap.empty)

let ptmap_overwrite () =
  let m = Ptmap.add 7 "x" (Ptmap.add 7 "y" Ptmap.empty) in
  check Alcotest.int "single binding" 1 (Ptmap.cardinal m);
  check (Alcotest.option Alcotest.string) "latest wins" (Some "x") (Ptmap.find_opt 7 m)

let ptmap_negative_keys () =
  let m = Ptmap.of_list [ -5, 1; 3, 2; min_int, 3; max_int, 4 ] in
  check (Alcotest.option Alcotest.int) "neg" (Some 1) (Ptmap.find_opt (-5) m);
  check (Alcotest.option Alcotest.int) "min_int" (Some 3) (Ptmap.find_opt min_int m);
  check (Alcotest.option Alcotest.int) "max_int" (Some 4) (Ptmap.find_opt max_int m);
  check Alcotest.int "cardinal" 4 (Ptmap.cardinal m)

let ptmap_update () =
  let m = Ptmap.of_list [ 1, 10 ] in
  let m = Ptmap.update 1 (Option.map (( + ) 5)) m in
  check (Alcotest.option Alcotest.int) "updated" (Some 15) (Ptmap.find_opt 1 m);
  let m = Ptmap.update 1 (fun _ -> None) m in
  check Alcotest.bool "deleted" false (Ptmap.mem 1 m);
  let m = Ptmap.update 9 (fun _ -> Some 42) m in
  check (Alcotest.option Alcotest.int) "inserted" (Some 42) (Ptmap.find_opt 9 m)

let ptmap_union () =
  let a = Ptmap.of_list [ 1, 1; 2, 2; 3, 3 ] in
  let b = Ptmap.of_list [ 3, 30; 4, 40 ] in
  let u = Ptmap.union (fun _ x y -> x + y) a b in
  check (Alcotest.option Alcotest.int) "left only" (Some 1) (Ptmap.find_opt 1 u);
  check (Alcotest.option Alcotest.int) "right only" (Some 40) (Ptmap.find_opt 4 u);
  check (Alcotest.option Alcotest.int) "combined" (Some 33) (Ptmap.find_opt 3 u)

let ptmap_sym_diff () =
  let a = Ptmap.of_list [ 1, 1; 2, 2; 3, 3 ] in
  let b = Ptmap.add 2 20 (Ptmap.remove 3 a) in
  let diff = Ptmap.sym_diff ( = ) a b in
  check Alcotest.int "two differences" 2 (List.length diff);
  check (Alcotest.list Alcotest.int) "no self diff" []
    (List.map (fun (k, _, _) -> k) (Ptmap.sym_diff ( = ) a a))

(* model-based property: a Ptmap behaves like a Hashtbl under a random
   script of add/remove operations *)
let ptmap_model =
  let gen = QCheck2.Gen.(list (pair (int_range (-100) 100) (option small_int))) in
  qtest "ptmap agrees with Hashtbl model" gen (fun script ->
      let tbl = Hashtbl.create 32 in
      let m =
        List.fold_left
          (fun m (k, op) ->
            match op with
            | Some v ->
              Hashtbl.replace tbl k v;
              Ptmap.add k v m
            | None ->
              Hashtbl.remove tbl k;
              Ptmap.remove k m)
          Ptmap.empty script
      in
      Hashtbl.length tbl = Ptmap.cardinal m
      && Hashtbl.fold (fun k v acc -> acc && Ptmap.find_opt k m = Some v) tbl true)

let ptmap_union_model =
  let gen =
    QCheck2.Gen.(pair (list (pair (int_range 0 63) small_int))
                   (list (pair (int_range 0 63) small_int)))
  in
  qtest "union = right-biased merge of models" gen (fun (la, lb) ->
      let a = Ptmap.of_list la and b = Ptmap.of_list lb in
      let u = Ptmap.union (fun _ _ y -> y) a b in
      List.for_all
        (fun k ->
          let expect =
            match Ptmap.find_opt k b with
            | Some v -> Some v
            | None -> Ptmap.find_opt k a
          in
          Ptmap.find_opt k u = expect)
        (List.init 64 Fun.id))

(* [Ptmap.diff_iter] and [Ptmap.sym_diff] against a naive reference built
   from [bindings]: every key bound on either side, reported once, unless
   both sides bind it to [eq]-equal values.  Values are small non-negative
   ints, [eq] identifies them mod 3 (so the walk must consult it, not
   structural equality) and -1 is the [~absent] sentinel. *)
let diff_eq x y = x mod 3 = y mod 3

let diff_reference a b =
  let ba = Ptmap.bindings a and bb = Ptmap.bindings b in
  let keys = List.sort_uniq compare (List.map fst ba @ List.map fst bb) in
  List.filter_map
    (fun k ->
      match List.assoc_opt k ba, List.assoc_opt k bb with
      | Some x, Some y when diff_eq x y -> None
      | x, y -> Some (k, x, y))
    keys

let diff_agrees (a, b) =
  let expect = diff_reference a b in
  let seen = ref [] in
  Ptmap.diff_iter diff_eq ~absent:(-1)
    (fun k x y ->
      let side v = if v = -1 then None else Some v in
      seen := (k, side x, side y) :: !seen)
    a b;
  List.sort compare !seen = expect
  && List.sort compare (Ptmap.sym_diff diff_eq a b) = expect

(* keys mixing dense small values, scattered large ones and the sign bit,
   so branching masks of every height (including [min_int]) occur *)
let diff_key =
  QCheck2.Gen.(
    frequency
      [ 6, int_range (-40) 40;
        2, map (fun x -> x * 1_000_003) small_signed_int;
        1, oneofl [ min_int; max_int; 0; -1 ] ])

let diff_bindings = QCheck2.Gen.(list (pair diff_key (int_range 0 20)))

let diff_derive base script =
  List.fold_left
    (fun m (k, op) ->
      match op with Some v -> Ptmap.add k v m | None -> Ptmap.remove k m)
    base script

let ptmap_diff_shared =
  let script = QCheck2.Gen.(small_list (pair diff_key (option (int_range 0 20)))) in
  qtest ~count:1000 "diff_iter on tries derived from a common base"
    QCheck2.Gen.(triple diff_bindings script script)
    (fun (base, sa, sb) ->
      let base = Ptmap.of_list base in
      diff_agrees (diff_derive base sa, diff_derive base sb)
      && diff_agrees (base, diff_derive base sb))

let ptmap_diff_unrelated =
  (* independent tries: mismatched shapes, often [Empty] or a single
     [Leaf] on one side *)
  let side =
    QCheck2.Gen.(
      frequency
        [ 1, return [];
          2, map (fun b -> [ b ]) (pair diff_key (int_range 0 20));
          4, diff_bindings ])
  in
  qtest ~count:1000 "diff_iter on unrelated tries" QCheck2.Gen.(pair side side)
    (fun (la, lb) -> diff_agrees (Ptmap.of_list la, Ptmap.of_list lb))

let ptmap_diff_absent () =
  (* the sentinel stands in for the missing side, in both directions *)
  let a = Ptmap.of_list [ 1, 10; 2, 20 ] and b = Ptmap.of_list [ 2, 21; 3, 30 ] in
  let seen = ref [] in
  Ptmap.diff_iter ( = ) ~absent:0 (fun k x y -> seen := (k, x, y) :: !seen) a b;
  check
    (Alcotest.list (Alcotest.triple Alcotest.int Alcotest.int Alcotest.int))
    "left-only, changed, right-only"
    [ 1, 10, 0; 2, 20, 21; 3, 0, 30 ]
    (List.sort compare !seen);
  let calls = ref 0 in
  Ptmap.diff_iter ( = ) ~absent:0 (fun _ _ _ -> incr calls) a a;
  check Alcotest.int "physically equal tries: no calls" 0 !calls

(* {1 Pheap} *)

let pheap_order () =
  let h =
    List.fold_left
      (fun h (p, v) -> Pheap.insert ~prio:p v h)
      Pheap.empty
      [ 3.0, "c"; 1.0, "a"; 2.0, "b"; 1.5, "ab" ]
  in
  let drained = List.map snd (Pheap.to_sorted_list h) in
  check (Alcotest.list Alcotest.string) "sorted" [ "a"; "ab"; "b"; "c" ] drained

let pheap_fifo_ties () =
  let h =
    List.fold_left (fun h v -> Pheap.insert ~prio:1.0 v h) Pheap.empty [ 1; 2; 3 ]
  in
  check (Alcotest.list Alcotest.int) "FIFO on equal priorities" [ 1; 2; 3 ]
    (List.map snd (Pheap.to_sorted_list h))

let pheap_delete_max () =
  let h =
    List.fold_left
      (fun h (p, v) -> Pheap.insert ~prio:p v h)
      Pheap.empty [ 1.0, "a"; 5.0, "worst"; 3.0, "b" ]
  in
  match Pheap.delete_max h with
  | Some ((p, v), rest) ->
    check (Alcotest.float 0.0) "max prio" 5.0 p;
    check Alcotest.string "max value" "worst" v;
    check Alcotest.int "size" 2 (Pheap.size rest)
  | None -> Alcotest.fail "expected a max"

let pheap_model =
  let gen = QCheck2.Gen.(list (pair (float_bound_inclusive 100.0) small_int)) in
  qtest "pheap drains in sorted order" gen (fun entries ->
      let h =
        List.fold_left (fun h (p, v) -> Pheap.insert ~prio:p v h) Pheap.empty entries
      in
      let drained = List.map fst (Pheap.to_sorted_list h) in
      List.sort compare drained = drained
      && List.length drained = List.length entries)

(* {1 Prng} *)

let prng_deterministic () =
  let a = Prng.create ~seed:99 and b = Prng.create ~seed:99 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Prng.next a) (Prng.next b)
  done

let prng_bounds () =
  let rng = Prng.create ~seed:7 in
  for _ = 1 to 10_000 do
    let v = Prng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.fail "out of bounds"
  done;
  for _ = 1 to 10_000 do
    let f = Prng.float rng 1.0 in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "float out of bounds"
  done

let prng_shuffle_permutes () =
  let rng = Prng.create ~seed:3 in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "permutation" (Array.init 50 Fun.id) sorted

(* {1 Vec} *)

let vec_push_pop () =
  let v = Vec.create ~dummy:0 () in
  for k = 0 to 99 do
    ignore (Vec.push v k)
  done;
  check Alcotest.int "length" 100 (Vec.length v);
  check Alcotest.int "get" 42 (Vec.get v 42);
  check (Alcotest.option Alcotest.int) "pop" (Some 99) (Vec.pop v);
  Vec.truncate v 10;
  check Alcotest.int "truncated" 10 (Vec.length v);
  check (Alcotest.list Alcotest.int) "to_list" (List.init 10 Fun.id) (Vec.to_list v)

let vec_bounds () =
  let v = Vec.create ~dummy:0 () in
  ignore (Vec.push v 1);
  Alcotest.check_raises "get oob" (Invalid_argument "Vec.get: index 1 out of bounds [0,1)")
    (fun () -> ignore (Vec.get v 1))

(* {1 Intset} *)

let intset_ops () =
  let s = Intset.of_list [ 5; 1; 5; 9 ] in
  check Alcotest.int "dedup" 3 (Intset.cardinal s);
  check Alcotest.bool "mem" true (Intset.mem 9 s);
  check Alcotest.bool "subset" true (Intset.subset (Intset.of_list [ 1; 5 ]) s);
  check Alcotest.bool "not subset" false (Intset.subset s (Intset.of_list [ 1; 5 ]));
  check (Alcotest.list Alcotest.int) "union"
    [ 1; 2; 5; 9 ]
    (List.sort compare (Intset.elements (Intset.union s (Intset.of_list [ 2; 1 ]))))

let tests =
  [ Alcotest.test_case "ptmap basic" `Quick ptmap_basic;
    Alcotest.test_case "ptmap overwrite" `Quick ptmap_overwrite;
    Alcotest.test_case "ptmap negative keys" `Quick ptmap_negative_keys;
    Alcotest.test_case "ptmap update" `Quick ptmap_update;
    Alcotest.test_case "ptmap union" `Quick ptmap_union;
    Alcotest.test_case "ptmap sym_diff" `Quick ptmap_sym_diff;
    Alcotest.test_case "ptmap diff_iter absent" `Quick ptmap_diff_absent;
    ptmap_diff_shared;
    ptmap_diff_unrelated;
    ptmap_model;
    ptmap_union_model;
    Alcotest.test_case "pheap order" `Quick pheap_order;
    Alcotest.test_case "pheap fifo ties" `Quick pheap_fifo_ties;
    Alcotest.test_case "pheap delete_max" `Quick pheap_delete_max;
    pheap_model;
    Alcotest.test_case "prng deterministic" `Quick prng_deterministic;
    Alcotest.test_case "prng bounds" `Quick prng_bounds;
    Alcotest.test_case "prng shuffle permutes" `Quick prng_shuffle_permutes;
    Alcotest.test_case "vec push/pop" `Quick vec_push_pop;
    Alcotest.test_case "vec bounds" `Quick vec_bounds;
    Alcotest.test_case "intset ops" `Quick intset_ops ]
