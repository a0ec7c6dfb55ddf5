(* A recipe is a named, serializable sequence of pipeline passes — the
   unit of currency of the transformation searcher and of
   [loopc transform].  The string form is the plan-cache replay format,
   so the round-trip must be exact and the grammar is deliberately tiny
   (recipe.mli states it): atoms joined by '+', each atom either a bare
   word or word(args).  The empty recipe prints as "id". *)

open Loopcoal_ir

type atom =
  | Normalize
  | Infer
  | Interchange
  | Hoist
  | Distribute
  | Fuse
  | Shrink
  | Unroll of int
  | Peel of { count : int; from_end : bool }
  | Tile of int * int
  | Preduce of { pr_index : string; pr_scalar : string; pr_procs : int }
  | Coalesce of Index_recovery.strategy
  | Chunked of int

type t = atom list

let identity : t = []
let is_identity r = r = []

let strategy_name = function
  | Index_recovery.Div_mod -> "divmod"
  | Index_recovery.Ceiling -> "ceiling"
  | Index_recovery.Incremental -> "incremental"

let atom_to_string = function
  | Normalize -> "normalize"
  | Infer -> "infer"
  | Interchange -> "interchange"
  | Hoist -> "hoist"
  | Distribute -> "distribute"
  | Fuse -> "fuse"
  | Shrink -> "shrink"
  | Unroll u -> Printf.sprintf "unroll(%d)" u
  | Peel { count; from_end = false } -> Printf.sprintf "peel(%d)" count
  | Peel { count; from_end = true } -> Printf.sprintf "peel(%d,end)" count
  | Tile (c1, c2) when c1 = c2 -> Printf.sprintf "tile(%d)" c1
  | Tile (c1, c2) -> Printf.sprintf "tile(%d,%d)" c1 c2
  | Preduce { pr_index; pr_scalar; pr_procs } ->
      Printf.sprintf "preduce(%s,%s,%d)" pr_index pr_scalar pr_procs
  | Coalesce s -> Printf.sprintf "coalesce(%s)" (strategy_name s)
  | Chunked c -> Printf.sprintf "chunked(%d)" c

let to_string = function
  | [] -> "id"
  | atoms -> String.concat "+" (List.map atom_to_string atoms)

(* ---------- parsing ---------- *)

let is_ident s =
  String.length s > 0
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s

let pos_int s =
  match int_of_string_opt s with Some n when n >= 1 -> Some n | _ -> None

let atom_of_string s =
  let s = String.trim s in
  let head, args =
    match String.index_opt s '(' with
    | Some i when String.length s > 0 && s.[String.length s - 1] = ')' ->
        ( String.sub s 0 i,
          Some
            (String.split_on_char ','
               (String.sub s (i + 1) (String.length s - i - 2))
            |> List.map String.trim) )
    | _ -> (s, None)
  in
  let sized what c k =
    match pos_int c with
    | Some c -> Ok (k c)
    | None -> Error (Printf.sprintf "recipe: bad %s %S" what c)
  in
  match (head, args) with
  | "normalize", None -> Ok Normalize
  | "infer", None -> Ok Infer
  | "interchange", None -> Ok Interchange
  | "hoist", None -> Ok Hoist
  | "distribute", None -> Ok Distribute
  | "fuse", None -> Ok Fuse
  | "shrink", None -> Ok Shrink
  | "unroll", Some [ u ] -> sized "unroll factor" u (fun u -> Unroll u)
  | "peel", Some [ k ] ->
      sized "peel count" k (fun count -> Peel { count; from_end = false })
  | "peel", Some [ k; "end" ] ->
      sized "peel count" k (fun count -> Peel { count; from_end = true })
  | "tile", Some [ c ] -> sized "tile size" c (fun c -> Tile (c, c))
  | "tile", Some [ c1; c2 ] -> (
      match (pos_int c1, pos_int c2) with
      | Some c1, Some c2 -> Ok (Tile (c1, c2))
      | _ -> Error (Printf.sprintf "recipe: bad tile sizes %S" s))
  | "chunked", Some [ c ] -> sized "chunk size" c (fun c -> Chunked c)
  | "preduce", Some [ i; sc; pr ] -> (
      match (is_ident i && is_ident sc, pos_int pr) with
      | true, Some pr_procs ->
          Ok (Preduce { pr_index = i; pr_scalar = sc; pr_procs })
      | _ -> Error (Printf.sprintf "recipe: bad preduce arguments %S" s))
  | "coalesce", Some [ st ] -> (
      match st with
      | "divmod" -> Ok (Coalesce Index_recovery.Div_mod)
      | "ceiling" -> Ok (Coalesce Index_recovery.Ceiling)
      (* Incremental recovery is chunk-local code (the [chunked] atom),
         never a whole-loop rewrite: accepting it here would let a
         stored recipe reach [Coalesce.apply_all_program], which raises. *)
      | _ -> Error (Printf.sprintf "recipe: unknown recovery strategy %S" st))
  | _ -> Error (Printf.sprintf "recipe: unknown atom %S" s)

let of_string s =
  let s = String.trim s in
  if s = "" then Error "recipe: empty string"
  else if s = "id" then Ok identity
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | part :: rest -> (
          match atom_of_string part with
          | Ok a -> go (a :: acc) rest
          | Error _ as e -> e)
    in
    go [] (String.split_on_char '+' s)

(* ---------- lowering to passes ---------- *)

let passes (r : t) : Pipeline.pass list =
  List.concat_map
    (function
      | Normalize -> [ Pipeline.normalize ]
      | Infer -> [ Pipeline.infer_parallel ]
      | Interchange -> [ Pipeline.interchange_outer ]
      | Hoist -> [ Pipeline.hoist_parallel_all ]
      | Distribute -> [ Pipeline.distribute_all ]
      | Fuse -> [ Pipeline.fuse_all ]
      | Shrink -> [ Pipeline.cycle_shrink_all ]
      | Unroll factor -> [ Pipeline.unroll_first ~factor ]
      | Peel { count; from_end } -> [ Pipeline.peel_first ~count ~from_end ]
      | Tile (c1, c2) -> [ Pipeline.normalize; Pipeline.tile_all ~c1 ~c2 ]
      | Preduce { pr_index; pr_scalar; pr_procs } ->
          [
            Pipeline.parallel_reduce ~loop_index:pr_index ~scalar:pr_scalar
              ~processors:pr_procs;
          ]
      | Coalesce s -> [ Pipeline.coalesce_all ~strategy:s () ]
      | Chunked c -> [ Pipeline.coalesce_chunked ~chunk:c ])
    r

module Registry = Loopcoal_obs.Registry

(* [transform.<atom>.fired]: applications of the atom that changed the
   program, one handle per atom made at module init. *)
let atom_names =
  [
    "normalize"; "infer"; "interchange"; "hoist"; "distribute"; "fuse";
    "shrink"; "unroll"; "peel"; "tile"; "preduce"; "coalesce"; "chunked";
  ]

let fired_counters =
  List.map
    (fun name ->
      (name, Registry.counter (Printf.sprintf "transform.%s.fired" name)))
    atom_names

(* An atom's head word: [tile(8)] is [tile]. *)
let atom_name a =
  let s = atom_to_string a in
  match String.index_opt s '(' with Some i -> String.sub s 0 i | None -> s

(* Atom by atom, so each one that changes the program bumps its
   counter; a pass that declines leaves the program as it was and the
   rest still run, the first failure reported. *)
let apply (r : t) (p : Ast.program) : (Ast.program, string) result =
  let program, failures =
    List.fold_left
      (fun (p, failures) atom ->
        let o = Pipeline.run ~verify:false (passes [ atom ]) p in
        if o.Pipeline.program <> p then
          Registry.incr (List.assoc (atom_name atom) fired_counters);
        (o.Pipeline.program, failures @ o.Pipeline.failures))
      (p, []) r
  in
  match failures with
  | [] -> Ok program
  | (pass, reason) :: _ -> Error (pass ^ ": " ^ reason)
