(* Quotient/remainder normal form over a coalesced loop index.

   A coalesced DOALL runs one index J over [1..N] and recovers the
   original nest indexes with integer division:

     div/mod:   ik = ((J-1) / Tk) mod Nk + 1
     ceiling:   ik = ceil(J/Tk) - Nk * (ceil(J/(Nk*Tk)) - 1)     (the paper's)

   where Tk is the suffix product of the inner sizes. [Affine.of_expr]
   rightly refuses such expressions, so a dependence test that sees the
   raw recovery arithmetic can only answer "may depend". This module
   closes that gap: it recognizes a block of recovery definitions as a
   mixed-radix *digit decomposition* of J — each recovered variable
   becomes a fresh bounded pseudo-index ik in [lo_k, lo_k + Nk - 1], tied
   to J by the stride equality

     J - 1 = sum_k (ik - lo_k) * Tk       (a bijection onto [1..N])

   after which every subscript is affine in the pseudo-indices and the
   existing GCD/Banerjee pipeline in {!Depend} applies unchanged to
   post-coalescing bodies.

   Recognition is layered: a syntactic matcher handles the two families
   {!Loopcoal_transform.Index_recovery} emits (including the constant
   foldings its simplifier performs), and a numeric fallback certifies
   any other definition block by evaluating it over the whole coalesced
   range and checking the stride equality pointwise — exact, and cheap
   for every trip count this repo ships. *)

open Loopcoal_ir

type digit = {
  d_var : Ast.var;
  d_lo : int;  (** lowest recovered value *)
  d_size : int;  (** number of distinct values (the Nk of the paper) *)
  d_stride : int;  (** suffix product Tk in the stride equality *)
}

type t = {
  q_coalesced : Ast.var;
  q_trip : int;
  q_digits : digit list;  (** outermost first *)
}

let digit_range d = (d.d_lo, d.d_lo + d.d_size - 1)

let linear_of_coalesced t : Ast.expr =
  (* J = 1 + sum (ik - lo_k) * Tk, emitted fully folded so that
     [Affine.of_expr] turns it into one linear form. *)
  List.fold_left
    (fun acc d ->
      let term : Ast.expr =
        Bin (Mul, Int d.d_stride, Bin (Sub, Var d.d_var, Int d.d_lo))
      in
      Ast.Bin (Add, acc, term))
    (Ast.Int 1) t.q_digits

(* ---------- closed evaluation of a recovery definition ---------- *)

exception Opaque of string

let rec eval_at ~coalesced j (e : Ast.expr) =
  match e with
  | Int n -> n
  | Var v when String.equal v coalesced -> j
  | Var v -> raise (Opaque (Printf.sprintf "free variable %s" v))
  | Real _ -> raise (Opaque "real literal")
  | Load _ -> raise (Opaque "array load")
  | Neg a -> -eval_at ~coalesced j a
  | Bin (op, a, b) -> (
      let x = eval_at ~coalesced j a and y = eval_at ~coalesced j b in
      match op with
      | Add -> x + y
      | Sub -> x - y
      | Mul -> x * y
      | Min -> min x y
      | Max -> max x y
      | Div -> if y = 0 then raise (Opaque "division by zero") else x / y
      | Mod -> if y = 0 then raise (Opaque "mod by zero") else x mod y
      | Cdiv ->
          if y <= 0 then raise (Opaque "ceildiv by non-positive divisor")
          else Loopcoal_util.Intmath.cdiv x y)

(* ---------- syntactic matcher for the emitted families ---------- *)

(* A size or stride as a product [m_c * f1 * ... * fk]: the literal part
   and the non-literal factors, sorted, so products compare structurally.
   Literal sizes have no factors. *)
type mono = { m_c : int; m_f : Ast.expr list }

let rec mono (e : Ast.expr) =
  match e with
  | Int n -> { m_c = n; m_f = [] }
  | Bin (Mul, a, b) -> mul (mono a) (mono b)
  | e -> { m_c = 1; m_f = [ e ] }

and mul a b = { m_c = a.m_c * b.m_c; m_f = List.sort compare (a.m_f @ b.m_f) }

let one = { m_c = 1; m_f = [] }

(* [a / b] when [b] divides [a]: its literal part, and its factors as a
   sub-multiset of [a]'s. *)
let quotient a b =
  let rec remove x = function
    | [] -> None
    | y :: ys when y = x -> Some ys
    | y :: ys -> Option.map (fun ys -> y :: ys) (remove x ys)
  in
  if b.m_c = 0 || a.m_c mod b.m_c <> 0 then None
  else
    Option.map
      (fun f -> { m_c = a.m_c / b.m_c; m_f = f })
      (List.fold_left
         (fun acc x -> Option.bind acc (remove x))
         (Some a.m_f) b.m_f)

(* One recovered definition, reduced to its (stride, size) shape. The
   outermost index never needs a wrap, so its size is unknown at match
   time and is reconstructed from the trip count. *)
type shape = { s_t : mono; s_n : mono option }

let is_j ~j (e : Ast.expr) =
  match e with Var v -> String.equal v j | _ -> false

(* j - 1, as emitted by the div/mod strategy. *)
let is_jm1 ~j (e : Ast.expr) =
  match e with
  | Bin (Sub, v, Int 1) -> is_j ~j v
  | _ -> false

(* ceil(j / t): [Cdiv (j, t)], or plain [j] when t = 1 (the simplifier
   folds ceildiv(j, 1)). Returns t. *)
let match_ceil ~j (e : Ast.expr) =
  match e with
  | Bin (Cdiv, v, t) when is_j ~j v -> Some (mono t)
  | v when is_j ~j v -> Some one
  | _ -> None

(* (j - 1) / t, with the t = 1 division folded away. Returns t. *)
let match_quot ~j (e : Ast.expr) =
  match e with
  | Bin (Div, base, t) when is_jm1 ~j base -> Some (mono t)
  | base when is_jm1 ~j base -> Some one
  | _ -> None

let match_shape ~j (e : Ast.expr) : shape option =
  match e with
  (* div/mod, wrapped: ((j-1) / t) mod n + 1 *)
  | Bin (Add, Bin (Mod, q, n), Int 1) -> (
      match match_quot ~j q with
      | Some t -> Some { s_t = t; s_n = Some (mono n) }
      | None -> None)
  (* div/mod, outermost: (j-1) / t + 1 *)
  | Bin (Add, q, Int 1) -> (
      match match_quot ~j q with
      | Some t -> Some { s_t = t; s_n = None }
      | None -> None)
  (* ceiling, wrapped: ceil(j/t) - n * (ceil(j/(n*t)) - 1) *)
  | Bin (Sub, q, Bin (Mul, n, Bin (Sub, outer, Int 1))) -> (
      let n = mono n in
      match (match_ceil ~j q, match_ceil ~j outer) with
      | Some t, Some t_outer when t_outer = mul n t ->
          Some { s_t = t; s_n = Some n }
      | _ -> None)
  (* ceiling, wrapped, n = 1 folded out of the product:
     ceil(j/t) - (ceil(j/t') - 1) with t' = t *)
  | Bin (Sub, q, Bin (Sub, outer, Int 1)) -> (
      match (match_ceil ~j q, match_ceil ~j outer) with
      | Some t, Some t_outer when t_outer = t ->
          Some { s_t = t; s_n = Some one }
      | _ -> None)
  (* ceiling, outermost: ceil(j/t) (covers plain [j] for t = 1) *)
  | _ -> (
      match match_ceil ~j e with
      | Some t -> Some { s_t = t; s_n = None }
      | None -> None)

(* A non-literal size factor the decomposition accepts: [max(e, c)] or
   [max(c, e)] with a literal [c >= 0], as the coalescing transform
   emits trip counts, over variables [invariant] holds for. Such a
   factor is never negative, so when the coalesced loop runs (its trip,
   the product of the sizes, is at least 1) every size is at least 1. *)
let size_factor ~invariant (e : Ast.expr) =
  (match e with
  | Bin (Max, _, Int c) | Bin (Max, Int c, _) -> c >= 0
  | _ -> false)
  && List.for_all invariant (Ast.expr_vars e)

(* The sizes of a matched definition block, outermost first: each wrap's
   size, and the outermost one [trip / t0]. The innermost stride must be
   1, each stride the product of the inner size and stride, every size a
   positive literal times accepted factors, and the sizes must multiply
   to the trip. *)
let assemble_sizes ~invariant ~trip shapes =
  let rec strides_ok = function
    | [] -> false
    | [ s ] -> s.s_t = one
    | a :: (b :: _ as rest) ->
        (match b.s_n with Some n -> a.s_t = mul n b.s_t | None -> false)
        && strides_ok rest
  in
  if not (strides_ok shapes) then None
  else
    match quotient trip (List.hd shapes).s_t with
    | None -> None
    | Some n0 ->
        let sizes =
          List.mapi
            (fun k s ->
              match s.s_n with
              | Some n -> n
              | None -> if k = 0 then n0 else { m_c = 0; m_f = [] })
            shapes
        in
        if
          List.for_all
            (fun n -> n.m_c >= 1 && List.for_all (size_factor ~invariant) n.m_f)
            sizes
          && List.fold_left mul one sizes = trip
        then Some sizes
        else None

let symbolic ~coalesced ~trip defs =
  let shapes =
    List.map (fun (_, e) -> match_shape ~j:coalesced e) defs
  in
  if List.exists Option.is_none shapes then None
  else
    let shapes = List.map Option.get shapes in
    match
      assemble_sizes ~invariant:(fun _ -> false) ~trip:(mono (Int trip)) shapes
    with
    | None -> None
    | Some sizes ->
        Some
          {
            q_coalesced = coalesced;
            q_trip = trip;
            q_digits =
              List.map2
                (fun ((v, _), s) n ->
                  { d_var = v; d_lo = 1; d_size = n.m_c; d_stride = s.s_t.m_c })
                (List.combine defs shapes)
                sizes;
          }

(* ---------- numeric certification ---------- *)

let suffix_products sizes = Loopcoal_util.Intmath.suffix_products sizes

let numeric ~coalesced ~trip defs =
  let m = List.length defs in
  let vals = Array.make_matrix m trip 0 in
  try
    List.iteri
      (fun k (_, e) ->
        for j = 1 to trip do
          vals.(k).(j - 1) <- eval_at ~coalesced j e
        done)
      defs;
    let los = Array.map (fun row -> Array.fold_left min row.(0) row) vals in
    let his = Array.map (fun row -> Array.fold_left max row.(0) row) vals in
    let sizes = Array.init m (fun k -> his.(k) - los.(k) + 1) in
    if Array.fold_left ( * ) 1 sizes <> trip then
      Error "recovered values do not tile the coalesced range"
    else begin
      let strides = Array.of_list (suffix_products (Array.to_list sizes)) in
      let ok = ref true in
      for j = 1 to trip do
        let sum = ref 0 in
        for k = 0 to m - 1 do
          sum := !sum + ((vals.(k).(j - 1) - los.(k)) * strides.(k))
        done;
        if !sum <> j - 1 then ok := false
      done;
      if not !ok then Error "stride equality J-1 = sum (ik-lo)*Tk fails"
      else
        Ok
          {
            q_coalesced = coalesced;
            q_trip = trip;
            q_digits =
              List.mapi
                (fun k (v, _) ->
                  {
                    d_var = v;
                    d_lo = los.(k);
                    d_size = sizes.(k);
                    d_stride = strides.(k);
                  })
                defs;
          }
    end
  with Opaque why -> Error ("definition is not closed over the index: " ^ why)

let default_budget = 1 lsl 20

let decompose ?(budget = default_budget) ~coalesced ~trip defs =
  if defs = [] then Error "no recovery definitions"
  else if trip < 1 then Error "empty coalesced range"
  else if
    List.exists (fun (v, _) -> String.equal v coalesced) defs
    || List.length (List.sort_uniq String.compare (List.map fst defs))
       <> List.length defs
  then Error "recovery definitions must bind distinct non-index variables"
  else
    match symbolic ~coalesced ~trip defs with
    | Some t -> Ok t
    | None ->
        if trip > budget then
          Error
            (Printf.sprintf
               "unrecognized recovery form and trip count %d exceeds the \
                numeric-certification budget %d"
               trip budget)
        else numeric ~coalesced ~trip defs

let verify_hint ~coalesced ~trip ~sizes defs =
  (* Metadata handed over by the transformation: digit names and sizes in
     nest order. Build the decomposition directly and spot-check the
     definitions at a few points of the range — the transformation is
     trusted for the rest. *)
  if List.length sizes <> List.length defs then Error "hint arity mismatch"
  else if List.exists (fun (_, n) -> n < 1) sizes then
    Error "hint sizes must be positive"
  else if List.fold_left (fun acc (_, n) -> acc * n) 1 sizes <> trip then
    Error "hint sizes do not multiply to the trip count"
  else if
    not
      (List.for_all2
         (fun (v, _) (w, _) -> String.equal v w)
         sizes defs)
  then Error "hint names do not match the recovery definitions"
  else
    let strides = suffix_products (List.map snd sizes) in
    let digits =
      List.map2
        (fun (v, n) stride ->
          { d_var = v; d_lo = 1; d_size = n; d_stride = stride })
        sizes strides
    in
    let t = { q_coalesced = coalesced; q_trip = trip; q_digits = digits } in
    let expected j d = (((j - 1) / d.d_stride) mod d.d_size) + 1 in
    let probes =
      List.sort_uniq compare [ 1; min 2 trip; ((trip + 1) / 2); trip ]
    in
    let check j =
      List.for_all2
        (fun d (_, e) ->
          match eval_at ~coalesced j e with
          | v -> v = expected j d
          | exception Opaque _ -> false)
        digits defs
    in
    if List.for_all check probes then Ok t
    else Error "recovery definitions disagree with the hint at a probe point"

let decompose_sizes ~coalesced ~trip ~invariant defs =
  let shapes = List.map (fun (_, e) -> match_shape ~j:coalesced e) defs in
  let invariant v =
    invariant v
    && not (String.equal v coalesced || List.mem_assoc v defs)
  in
  if defs = [] || List.exists Option.is_none shapes then
    Error "unrecognized recovery form"
  else
    match
      assemble_sizes ~invariant ~trip:(mono trip) (List.map Option.get shapes)
    with
    | None -> Error "recovery sizes do not tile the coalesced range"
    | Some sizes ->
        Ok
          (List.map2
             (fun (v, _) n -> (v, if n.m_f = [] then Some n.m_c else None))
             defs sizes)
