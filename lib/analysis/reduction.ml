open Loopcoal_ir

type op = Sum | Product

type t = { scalar : Ast.var; op : op; identity : float; acc_left : bool }

let binop_of = function Sum -> Ast.Add | Product -> Ast.Mul

let make scalar (op, acc_left) =
  {
    scalar;
    op;
    identity = (match op with Sum -> 0.0 | Product -> 1.0);
    acc_left;
  }

(* [s = s op e] or [s = e op s], with e free of s: the operator and
   whether the accumulator is its left operand. *)
let update_shape (s : Ast.stmt) =
  let shape v bop e acc_left =
    if List.mem v (Ast.expr_vars e) then None
    else
      match (bop : Ast.binop) with
      | Add -> Some (v, (Sum, acc_left))
      | Mul -> Some (v, (Product, acc_left))
      | Sub | Div | Mod | Cdiv | Min | Max -> None
  in
  match s with
  | Assign (Scalar v, Bin (bop, Var w, e)) when String.equal v w ->
      shape v bop e true
  | Assign (Scalar v, Bin (bop, e, Var w)) when String.equal v w ->
      shape v bop e false
  | Assign _ | If _ | For _ -> None

let detect (body : Ast.block) =
  (* Candidates: top-level update statements of the right shape. Updates
     buried under ifs or inner loops run a data-dependent number of times,
     which is still a valid reduction for + and *, but partial-result
     rewriting would need masking — keep to the classic top-level case. *)
  let updates =
    List.filteri (fun _ s -> update_shape s <> None) body
    |> List.map (fun s -> (s, Option.get (update_shape s)))
  in
  let occurrences v (s : Ast.stmt) =
    let rec count_expr (e : Ast.expr) =
      match e with
      | Var w -> if String.equal v w then 1 else 0
      | Int _ | Real _ -> 0
      | Neg a -> count_expr a
      | Bin (_, a, b) -> count_expr a + count_expr b
      | Load (_, subs) -> List.fold_left (fun n e -> n + count_expr e) 0 subs
    in
    let rec count_cond (c : Ast.cond) =
      match c with
      | True -> 0
      | Cmp (_, a, b) -> count_expr a + count_expr b
      | And (a, b) | Or (a, b) -> count_cond a + count_cond b
      | Not a -> count_cond a
    in
    let rec count_stmt (s : Ast.stmt) =
      match s with
      | Assign (Scalar w, e) ->
          (if String.equal v w then 1 else 0) + count_expr e
      | Assign (Elem (_, subs), e) ->
          List.fold_left (fun n x -> n + count_expr x) 0 subs + count_expr e
      | If (c, t, f) ->
          count_cond c
          + List.fold_left (fun n x -> n + count_stmt x) 0 t
          + List.fold_left (fun n x -> n + count_stmt x) 0 f
      | For l ->
          count_expr l.lo + count_expr l.hi + count_expr l.step
          + List.fold_left (fun n x -> n + count_stmt x) 0 l.body
    in
    count_stmt s
  in
  List.filter_map
    (fun (update, (v, op)) ->
      (* The update itself mentions v exactly twice (lhs + rhs); any other
         occurrence in the body disqualifies. *)
      let total =
        List.fold_left (fun n s -> n + occurrences v s) 0 body
      in
      let in_update = occurrences v update in
      if in_update = 2 && total = 2 then Some (make v op) else None)
    updates
