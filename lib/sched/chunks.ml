module Im = Loopcoal_util.Intmath

let check ~k ~n ~p =
  if k < 1 then invalid_arg "Chunks: k must be >= 1";
  if n < 0 then invalid_arg "Chunks: n must be >= 0";
  if p < 1 then invalid_arg "Chunks: p must be >= 1"

(* Fold [f] over a dynamic policy's chunk sizes in dispatch order. A
   decaying policy's own size is raised to [k] and cut to what remains,
   so every chunk but the last covers at least [k] iterations; at
   [k = 1] these are exactly [Gss], [Factoring] and [Trapezoid]'s
   sequences. *)
let fold_sizes (policy : Policy.t) ~k ~n ~p f acc =
  (* [size i r]: the [i]-th chunk (from 0), [r] iterations remaining *)
  let rec drain size i r acc =
    if r = 0 then acc
    else
      let c = size i r in
      drain size (i + 1) (r - c) (f acc c)
  in
  let take want r = min r (max k want) in
  let size =
    match policy with
    | Static_block | Static_cyclic -> invalid_arg "Chunks: static policy"
    | Self_sched c -> fun _ r -> min c r
    | Gss -> fun _ r -> take (Im.cdiv r p) r
    | Factoring ->
        (* batches of [p] equal chunks, each batch half the remainder *)
        let want = ref 0 in
        fun i r ->
          if i mod p = 0 then want := Im.cdiv r (2 * p);
          take !want r
    | Trapezoid ->
        let first = Trapezoid.first_chunk ~n ~p in
        let dec = Trapezoid.decrement ~n ~p in
        fun i r -> take (first - (i * dec)) r
  in
  drain size 0 n acc

let dynamic_sizes policy ~k ~n ~p =
  check ~k ~n ~p;
  if Policy.is_dynamic policy then
    Some (List.rev (fold_sizes policy ~k ~n ~p (fun acc c -> c :: acc) []))
  else None

let sequence_of_sizes sizes =
  let arr = Array.make (List.length sizes) (0, 0) in
  let t0 = ref 1 in
  List.iteri
    (fun k len ->
      arr.(k) <- (!t0, len);
      t0 := !t0 + len)
    sizes;
  arr

let dynamic_sequence policy ~k ~n ~p =
  Option.map sequence_of_sizes (dynamic_sizes policy ~k ~n ~p)

let count policy ~k ~n ~p =
  check ~k ~n ~p;
  match (policy : Policy.t) with
  | Static_block -> min p n
  | Static_cyclic ->
      (* Contiguous runs of cyclic ownership: singletons when p > 1, one
         whole-range run per (single) processor otherwise. *)
      if n = 0 then 0 else if p = 1 then 1 else n
  | Self_sched c -> Im.cdiv n c
  | Gss | Factoring | Trapezoid ->
      fold_sizes policy ~k ~n ~p (fun acc _ -> acc + 1) 0

let sync_ops policy ~k ~n ~p =
  check ~k ~n ~p;
  if n = 0 then 0
  else if not (Policy.is_dynamic policy) then 0
  else count policy ~k ~n ~p + p

let per_worker_bound policy ~k ~n ~p =
  check ~k ~n ~p;
  match (policy : Policy.t) with
  | Static_block -> 1
  | Static_cyclic -> if p = 1 then 1 else Im.cdiv n p
  | Self_sched _ | Gss | Factoring | Trapezoid ->
      (* Any one worker could claim every chunk. *)
      count policy ~k ~n ~p
