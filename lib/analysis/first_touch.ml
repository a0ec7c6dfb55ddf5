(* First-touch analysis: see the interface for the rule and the
   soundness argument. *)

open Loopcoal_ir
open Ast

type box = (int * int) array

(* [a + c], or [None] on overflow. *)
let add a c =
  let s = a + c in
  if (c >= 0 && s < a) || (c < 0 && s >= a) then None else Some s

(* The range of values a constant level's index takes, if it is
   contiguous and non-empty. *)
let level_range lo hi step =
  if step <= 0 || hi < lo then None
  else if step = 1 then Some (lo, hi)
  else
    (* more than one iteration leaves holes; [hi - lo] may overflow *)
    let d = hi - lo in
    if d >= 0 && d < step then Some (lo, lo) else None

(* The value of an integer expression over literals alone, computed
   as the interpreter computes it (wrapping on overflow). *)
let rec const = function
  | Int n -> Some n
  | Neg a -> Option.map (fun a -> -a) (const a)
  | Bin (((Add | Sub | Mul | Min | Max) as op), a, b) -> (
      match (const a, const b) with
      | Some a, Some b ->
          Some
            (match op with
            | Add -> a + b
            | Sub -> a - b
            | Mul -> a * b
            | Min -> min a b
            | _ -> max a b)
      | _ -> None)
  | _ -> None

(* Each level's index and range, when every level of the nest has
   constant bounds and step and its own index. *)
let levels (n : Nest.t) =
  List.fold_left
    (fun acc (l : loop) ->
      match (acc, const l.lo, const l.hi, const l.step) with
      | Some acc, Some lo, Some hi, Some step
        when not (List.mem_assoc l.index acc) ->
          Option.map (fun r -> (l.index, r) :: acc) (level_range lo hi step)
      | _ -> None)
    (Some []) n.loops

(* A subscript [v + c] as (v, c). *)
let sub_form = function
  | Var v -> Some (v, 0)
  | Bin (Add, Var v, Int c) | Bin (Add, Int c, Var v) -> Some (v, c)
  | Bin (Sub, Var v, Int c) when c <> min_int -> Some (v, -c)
  | _ -> None

(* The subscripts of each mention of [x] in [b]. *)
let mentions x b =
  List.filter_map
    (fun (r : Usedef.array_ref) ->
      if String.equal r.arr x then Some r.subs else None)
    (Usedef.array_refs b)

(* The subscripts of the store of [x] that is the first mention of [x]
   in the innermost body of [n]: a statement at its top level whose
   value does not read [x], every later mention of [x] at the same
   subscripts and under no loop that rebinds an index of [n]. *)
let store (n : Nest.t) x =
  let rec go = function
    | [] -> None
    | st :: rest when mentions x [ st ] = [] -> go rest
    | (Assign (Elem (y, subs), _) as st) :: rest
      when String.equal x y
           && List.length (mentions x [ st ]) = 1
           && List.for_all (( = ) subs) (mentions x rest)
           && not
                (List.exists
                   (fun (l : loop) ->
                     List.mem l.index (bound_indices_block rest))
                   n.loops) ->
        Some subs
    | _ -> None
  in
  go n.body

(* The box [stmt] covers in [x], its first mention of [x] being the
   store [store] finds. *)
let cover ~dims x stmt =
  match Nest.of_stmt stmt with
  | None -> None
  | Some n -> (
      match (levels n, store n x) with
      | Some levels, Some subs
        when List.length subs = List.length levels && List.length subs = dims ->
          let rec box used = function
            | [] -> Some []
            | s :: rest -> (
                match sub_form s with
                | Some (v, c) when not (List.mem v used) -> (
                    match List.assoc_opt v levels with
                    | Some (lo, hi) -> (
                        match (add lo c, add hi c, box (v :: used) rest) with
                        | Some a, Some b, Some rest -> Some ((a, b) :: rest)
                        | _ -> None)
                    | None -> None)
                | _ -> None)
          in
          Option.map Array.of_list (box [] subs)
      | _ -> None)

let boxes (p : program) =
  let first (seen, found) stmt =
    let ms =
      List.map
        (fun (r : Usedef.array_ref) -> r.arr)
        (Usedef.array_refs [ stmt ])
    in
    List.fold_left
      (fun (seen, found) x ->
        if List.mem x seen then (seen, found)
        else
          let box =
            match
              List.find_opt
                (fun (a : array_decl) -> String.equal a.arr_name x)
                p.arrays
            with
            | Some a -> cover ~dims:(List.length a.dims) x stmt
            | _ -> None
          in
          (x :: seen, match box with Some b -> (x, b) :: found | None -> found))
      (seen, found) ms
  in
  let _, found = List.fold_left first ([], []) p.body in
  List.filter_map
    (fun (a : array_decl) ->
      Option.map (fun b -> (a.arr_name, b)) (List.assoc_opt a.arr_name found))
    p.arrays
