(* Little-endian Patricia tries (Okasaki & Gill).  The branching bit is the
   lowest bit in which the two subtrees' keys differ; [prefix] holds the bits
   below the branching bit. *)

type 'a t =
  | Empty
  | Leaf of int * 'a
  | Branch of int * int * 'a t * 'a t
      (* Branch (prefix, branching_bit, left, right): [left] holds the keys
         whose [branching_bit] is 0, [right] those where it is 1. *)

let empty = Empty

let is_empty = function Empty -> true | Leaf _ | Branch _ -> false

let singleton k v = Leaf (k, v)

(* Lowest set bit of [x]; relies on two's-complement [x land (-x)]. *)
let lowest_bit x = x land (-x)

let branching_bit p0 p1 = lowest_bit (p0 lxor p1)

let mask k m = k land (m - 1)

let zero_bit k m = k land m = 0

let match_prefix k p m = mask k m = p

let rec mem k = function
  | Empty -> false
  | Leaf (j, _) -> j = k
  | Branch (p, m, l, r) ->
    match_prefix k p m && mem k (if zero_bit k m then l else r)

let rec find_opt k = function
  | Empty -> None
  | Leaf (j, v) -> if j = k then Some v else None
  | Branch (p, m, l, r) ->
    if match_prefix k p m then find_opt k (if zero_bit k m then l else r)
    else None

let find k t = match find_opt k t with Some v -> v | None -> raise Not_found

let branch p m l r =
  match l, r with
  | Empty, t | t, Empty -> t
  | _, _ -> Branch (p, m, l, r)

let join p0 t0 p1 t1 =
  let m = branching_bit p0 p1 in
  if zero_bit p0 m then Branch (mask p0 m, m, t0, t1)
  else Branch (mask p0 m, m, t1, t0)

let rec add k v = function
  | Empty -> Leaf (k, v)
  | Leaf (j, _) as t ->
    if j = k then Leaf (k, v) else join k (Leaf (k, v)) j t
  | Branch (p, m, l, r) as t ->
    if match_prefix k p m then
      if zero_bit k m then Branch (p, m, add k v l, r)
      else Branch (p, m, l, add k v r)
    else join k (Leaf (k, v)) p t

let rec remove k = function
  | Empty -> Empty
  | Leaf (j, _) as t -> if j = k then Empty else t
  | Branch (p, m, l, r) as t ->
    if match_prefix k p m then
      if zero_bit k m then branch p m (remove k l) r
      else branch p m l (remove k r)
    else t

let update k f t =
  match f (find_opt k t) with
  | None -> remove k t
  | Some v -> add k v t

let rec cardinal = function
  | Empty -> 0
  | Leaf _ -> 1
  | Branch (_, _, l, r) -> cardinal l + cardinal r

let rec iter f = function
  | Empty -> ()
  | Leaf (k, v) -> f k v
  | Branch (_, _, l, r) -> iter f l; iter f r

let rec fold f t acc =
  match t with
  | Empty -> acc
  | Leaf (k, v) -> f k v acc
  | Branch (_, _, l, r) -> fold f r (fold f l acc)

let rec for_all p = function
  | Empty -> true
  | Leaf (k, v) -> p k v
  | Branch (_, _, l, r) -> for_all p l && for_all p r

let rec exists p = function
  | Empty -> false
  | Leaf (k, v) -> p k v
  | Branch (_, _, l, r) -> exists p l || exists p r

let rec filter p = function
  | Empty -> Empty
  | Leaf (k, v) as t -> if p k v then t else Empty
  | Branch (pr, m, l, r) -> branch pr m (filter p l) (filter p r)

let rec map f = function
  | Empty -> Empty
  | Leaf (k, v) -> Leaf (k, f v)
  | Branch (p, m, l, r) -> Branch (p, m, map f l, map f r)

let rec mapi f = function
  | Empty -> Empty
  | Leaf (k, v) -> Leaf (k, f k v)
  | Branch (p, m, l, r) -> Branch (p, m, mapi f l, mapi f r)

let rec choose_opt = function
  | Empty -> None
  | Leaf (k, v) -> Some (k, v)
  | Branch (_, _, l, _) -> choose_opt l

let min_binding_opt t =
  fold
    (fun k v acc ->
      match acc with
      | Some (k', _) when k' <= k -> acc
      | Some _ | None -> Some (k, v))
    t None

let max_binding_opt t =
  fold
    (fun k v acc ->
      match acc with
      | Some (k', _) when k' >= k -> acc
      | Some _ | None -> Some (k, v))
    t None

(* Unsigned comparison of branching bits: a mask equal to [min_int] (sign
   bit) is the *highest* little-endian branching bit, not the lowest. *)
let mask_lt m n = (m lxor min_int) < (n lxor min_int)

let rec union f a b =
  match a, b with
  | Empty, t | t, Empty -> t
  | Leaf (k, v), t -> update k (function None -> Some v | Some w -> Some (f k v w)) t
  | t, Leaf (k, v) -> update k (function None -> Some v | Some w -> Some (f k w v)) t
  | Branch (p, m, l0, r0), Branch (q, n, l1, r1) ->
    if m = n && p = q then Branch (p, m, union f l0 l1, union f r0 r1)
    else if mask_lt m n && match_prefix q p m then
      (* [b] fits inside one side of [a]. *)
      if zero_bit q m then Branch (p, m, union f l0 b, r0)
      else Branch (p, m, l0, union f r0 b)
    else if mask_lt n m && match_prefix p q n then
      if zero_bit p n then Branch (q, n, union f a l1, r1)
      else Branch (q, n, l1, union f a r1)
    else join p a q b

let bindings t = List.rev (fold (fun k v acc -> (k, v) :: acc) t [])

let of_list l = List.fold_left (fun t (k, v) -> add k v t) empty l

let rec equal eqv a b =
  a == b
  ||
  match a, b with
  | Empty, Empty -> true
  | Leaf (k0, v0), Leaf (k1, v1) -> k0 = k1 && eqv v0 v1
  | Branch (p0, m0, l0, r0), Branch (p1, m1, l1, r1) ->
    p0 = p1 && m0 = m1 && equal eqv l0 l1 && equal eqv r0 r1
  | (Empty | Leaf _ | Branch _), _ -> false

(* {1 Diff walk}

   [walk_diff] merges two tries structurally, the way [union] does:
   physically equal subtrees are pruned, matching branches recurse pairwise,
   and a subtree present on one side only is reported wholesale.  Nothing is
   allocated beyond what the callback does.  Every reported side goes
   through [inj] so the same walk serves both the sentinel-based
   [diff_iter] ([inj] = identity) and the option-based [sym_diff]. *)

let rec iter_left inj absent f = function
  | Empty -> ()
  | Leaf (k, v) -> f k (inj v) absent
  | Branch (_, _, l, r) -> iter_left inj absent f l; iter_left inj absent f r

let rec iter_right inj absent f = function
  | Empty -> ()
  | Leaf (k, v) -> f k absent (inj v)
  | Branch (_, _, l, r) -> iter_right inj absent f l; iter_right inj absent f r

(* The single binding [k -> v] on the left against the trie [t]. *)
let rec leaf_left eq inj absent f k v t =
  match t with
  | Empty -> f k (inj v) absent
  | Leaf (j, w) ->
    if j = k then (if not (eq v w) then f k (inj v) (inj w))
    else begin
      f k (inj v) absent;
      f j absent (inj w)
    end
  | Branch (p, m, l, r) ->
    if not (match_prefix k p m) then begin
      f k (inj v) absent;
      iter_right inj absent f t
    end
    else if zero_bit k m then begin
      leaf_left eq inj absent f k v l;
      iter_right inj absent f r
    end
    else begin
      iter_right inj absent f l;
      leaf_left eq inj absent f k v r
    end

(* The trie [t] on the left against the single binding [k -> w] on the
   right. *)
let rec leaf_right eq inj absent f t k w =
  match t with
  | Empty -> f k absent (inj w)
  | Leaf (j, v) ->
    if j = k then (if not (eq v w) then f k (inj v) (inj w))
    else begin
      f j (inj v) absent;
      f k absent (inj w)
    end
  | Branch (p, m, l, r) ->
    if not (match_prefix k p m) then begin
      iter_left inj absent f t;
      f k absent (inj w)
    end
    else if zero_bit k m then begin
      leaf_right eq inj absent f l k w;
      iter_left inj absent f r
    end
    else begin
      iter_left inj absent f l;
      leaf_right eq inj absent f r k w
    end

let rec walk_diff eq inj absent f a b =
  if a != b then
    match a, b with
    | Empty, t -> iter_right inj absent f t
    | t, Empty -> iter_left inj absent f t
    | Leaf (k, v), t -> leaf_left eq inj absent f k v t
    | t, Leaf (k, w) -> leaf_right eq inj absent f t k w
    | Branch (p, m, l0, r0), Branch (q, n, l1, r1) ->
      if m = n && p = q then begin
        walk_diff eq inj absent f l0 l1;
        walk_diff eq inj absent f r0 r1
      end
      else if mask_lt m n && match_prefix q p m then
        (* [b] fits inside one side of [a]. *)
        if zero_bit q m then begin
          walk_diff eq inj absent f l0 b;
          iter_left inj absent f r0
        end
        else begin
          iter_left inj absent f l0;
          walk_diff eq inj absent f r0 b
        end
      else if mask_lt n m && match_prefix p q n then
        if zero_bit p n then begin
          walk_diff eq inj absent f a l1;
          iter_right inj absent f r1
        end
        else begin
          iter_right inj absent f l1;
          walk_diff eq inj absent f a r1
        end
      else begin
        (* disjoint prefixes: no key in common *)
        iter_left inj absent f a;
        iter_right inj absent f b
      end

let diff_iter eq ~absent f a b = walk_diff eq Fun.id absent f a b

let sym_diff eq a b =
  let acc = ref [] in
  walk_diff eq Option.some None (fun k x y -> acc := (k, x, y) :: !acc) a b;
  !acc

let pp ppv fmt t =
  Format.fprintf fmt "@[<hov 1>{";
  let first = ref true in
  iter
    (fun k v ->
      if !first then first := false else Format.fprintf fmt ";@ ";
      Format.fprintf fmt "%d -> %a" k ppv v)
    t;
  Format.fprintf fmt "}@]"
