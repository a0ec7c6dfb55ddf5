open Loopcoal_ir

type coupling = Clt | Cgt | Ceq | Cany

type var_class = Coupled of coupling | Shared | Private1 | Private2

type query = {
  classify : Ast.var -> var_class;
  range_of : Ast.var -> (int * int) option;
}

(* ---------- extended-integer intervals ---------- *)

type bound = Neg_inf | Fin of int | Pos_inf

let badd a b =
  match (a, b) with
  | Neg_inf, Pos_inf | Pos_inf, Neg_inf ->
      invalid_arg "Depend.badd: inf - inf"
  | Neg_inf, _ | _, Neg_inf -> Neg_inf
  | Pos_inf, _ | _, Pos_inf -> Pos_inf
  | Fin a, Fin b -> Fin (a + b)

type interval = { lo : bound; hi : bound }

let point n = { lo = Fin n; hi = Fin n }
let unbounded = { lo = Neg_inf; hi = Pos_inf }
let iadd a b = { lo = badd a.lo b.lo; hi = badd a.hi b.hi }

let contains_zero { lo; hi } =
  let ge0 = match hi with Pos_inf -> true | Fin h -> h >= 0 | Neg_inf -> false in
  let le0 = match lo with Neg_inf -> true | Fin l -> l <= 0 | Pos_inf -> false in
  ge0 && le0

(* c * [l, u] for a finite range. *)
let scale_range c (l, u) =
  if c = 0 then point 0
  else if c > 0 then { lo = Fin (c * l); hi = Fin (c * u) }
  else { lo = Fin (c * u); hi = Fin (c * l) }

let term_interval c range =
  if c = 0 then point 0
  else match range with Some r -> scale_range c r | None -> unbounded

(* Bounds of [a*x - b*y] under a coupling constraint over a shared range.
   For [Clt]/[Cgt] the feasible region is a triangle whose vertices give the
   extrema of the linear objective; for [Cany] it is the full box. Assumes
   the region is non-empty (checked by callers for Clt/Cgt). With no range
   and [a = b] the direction alone bounds [a*(x - y)] on one side:
   [x < y] gives [x - y <= -1], [x > y] gives [x - y >= 1]. *)
let coupled_interval a b coupling range =
  if a = 0 && b = 0 then point 0
  else
    match range with
    | None -> (
        (* [a * (x - y)] for [x - y] at least [d] ([up]) or at most [d] *)
        let ray d up =
          if a > 0 = up then { lo = Fin (a * d); hi = Pos_inf }
          else { lo = Neg_inf; hi = Fin (a * d) }
        in
        match coupling with
        | _ when a <> b -> unbounded
        | Ceq -> point 0
        | Clt -> ray (-1) false
        | Cgt -> ray 1 true
        | Cany -> unbounded)
    | Some (l, u) -> (
        let at x y = (a * x) - (b * y) in
        let of_vertices vs =
          let values = List.map (fun (x, y) -> at x y) vs in
          {
            lo = Fin (List.fold_left min max_int values);
            hi = Fin (List.fold_left max min_int values);
          }
        in
        match coupling with
        | Ceq -> scale_range (a - b) (l, u)
        | Clt -> of_vertices [ (l, l + 1); (u - 1, u); (l, u) ]
        | Cgt -> of_vertices [ (l + 1, l); (u, u - 1); (u, l) ]
        | Cany -> of_vertices [ (l, l); (l, u); (u, l); (u, u) ])

(* ---------- per-dimension solvability ---------- *)

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(* One subscript dimension: can f(x-vars) = g(y-vars) hold? *)
let dimension_solvable q (f : Affine.form) (g : Affine.form) =
  (* Collect coefficient terms. Coupled and shared variables are keyed by
     name; private variables are kept per-side so that a name used as an
     inner index by both references stays two distinct variables. *)
  let shared = Hashtbl.create 8 in
  let coupled = Hashtbl.create 4 in
  let privates = ref [] in
  let note_coupled v side c =
    let a, b = try Hashtbl.find coupled v with Not_found -> (0, 0) in
    Hashtbl.replace coupled v (match side with `X -> (a + c, b) | `Y -> (a, b + c))
  in
  let note v side c =
    match q.classify v with
    | Coupled _ -> note_coupled v side c
    | Shared ->
        let cur = try Hashtbl.find shared v with Not_found -> 0 in
        let delta = match side with `X -> c | `Y -> -c in
        Hashtbl.replace shared v (cur + delta)
    | Private1 | Private2 -> privates := (v, side, c) :: !privates
  in
  List.iter (fun (v, c) -> note v `X c) f.Affine.coeffs;
  List.iter (fun (v, c) -> note v `Y c) g.Affine.coeffs;
  let const = f.Affine.const - g.Affine.const in
  (* GCD filter: all integer coefficients of free variables. For a Ceq
     coupling x = y, the variable is really one variable with coefficient
     a - b. *)
  let coeffs = ref [] in
  Hashtbl.iter (fun _ c -> coeffs := c :: !coeffs) shared;
  List.iter (fun (_, _, c) -> coeffs := c :: !coeffs) !privates;
  Hashtbl.iter
    (fun v (a, b) ->
      match q.classify v with
      | Coupled Ceq -> coeffs := (a - b) :: !coeffs
      | Coupled (Clt | Cgt | Cany) -> coeffs := a :: -b :: !coeffs
      | Shared | Private1 | Private2 -> assert false)
    coupled;
  let g_all = List.fold_left gcd 0 !coeffs in
  let gcd_ok = if g_all = 0 then const = 0 else const mod g_all = 0 in
  if not gcd_ok then false
  else begin
    (* Banerjee interval: sum the contribution of every term. *)
    let acc = ref (point const) in
    Hashtbl.iter
      (fun v c -> acc := iadd !acc (term_interval c (q.range_of v)))
      shared;
    (* Private terms enter h with the side sign: y-side negatively. *)
    List.iter
      (fun (v, side, c) ->
        let signed = match side with `X -> c | `Y -> -c in
        acc := iadd !acc (term_interval signed (q.range_of v)))
      !privates;
    Hashtbl.iter
      (fun v (a, b) ->
        let cpl =
          match q.classify v with
          | Coupled cpl -> cpl
          | Shared | Private1 | Private2 -> assert false
        in
        acc := iadd !acc (coupled_interval a b cpl (q.range_of v)))
      coupled;
    contains_zero !acc
  end

let may_depend q subs1 subs2 =
  if List.length subs1 <> List.length subs2 then true
  else
    let solvable s1 s2 =
      match
        ( Affine.of_expr ~is_index:(fun _ -> true) s1,
          Affine.of_expr ~is_index:(fun _ -> true) s2 )
      with
      | Some f, Some g -> dimension_solvable q f g
      | _ -> true (* non-affine: cannot disprove *)
    in
    List.for_all2 solvable subs1 subs2

let carried ~level ~range ~classify_rest ~range_of subs1 subs2 =
  let enough_iterations =
    match range with Some (l, u) -> u - l >= 1 | None -> true
  in
  enough_iterations
  &&
  let query cpl =
    {
      classify =
        (fun v ->
          if String.equal v level then Coupled cpl else classify_rest v);
      range_of =
        (fun v -> if String.equal v level then range else range_of v);
    }
  in
  may_depend (query Clt) subs1 subs2 || may_depend (query Cgt) subs1 subs2
