open Loopcoal_ir

type pass = {
  name : string;
  transform : Ast.program -> (Ast.program, string) result;
}

let normalize =
  { name = "normalize"; transform = (fun p -> Ok (Normalize.program p)) }

let infer_parallel =
  {
    name = "infer-parallel";
    transform =
      (fun p ->
        Ok { p with body = Loopcoal_analysis.Loop_class.infer_block p.body });
  }

let describe_error = function
  | Coalesce.Not_a_nest m -> "not a nest: " ^ m
  | Coalesce.Not_coalescible m -> "not coalescible: " ^ m
  | Coalesce.Bad_strategy m -> "bad strategy: " ^ m

let coalesce ?strategy ?depth () =
  {
    name = "coalesce";
    transform =
      (fun p ->
        match Coalesce.apply_program ?strategy ?depth p with
        | Ok p' -> Ok p'
        | Error e -> Error (describe_error e));
  }

let coalesce_all ?strategy () =
  {
    name = "coalesce-all";
    transform =
      (fun p ->
        let p', _count = Coalesce.apply_all_program ?strategy p in
        Ok p');
  }

let coalesce_chunked ~chunk =
  {
    name = Printf.sprintf "coalesce-chunked(%d)" chunk;
    transform =
      (fun p ->
        match Coalesce_chunked.apply_program ~chunk p with
        | Ok p' -> Ok p'
        | Error e -> Error (describe_error e));
  }

let distribute_all =
  {
    name = "distribute-all";
    transform =
      (fun p ->
        let p', _count = Distribute.apply_program p in
        Ok p');
  }

let fuse_all =
  {
    name = "fuse-all";
    transform =
      (fun p ->
        let body, _count = Fuse.apply_block p.Ast.body in
        Ok { p with Ast.body });
  }

let hoist_parallel_all =
  {
    name = "hoist-parallel";
    transform =
      (fun p ->
        let rec blk (b : Ast.block) : Ast.block = List.map stmt b
        and stmt (s : Ast.stmt) : Ast.stmt =
          match s with
          | Assign _ -> s
          | If (c, t, f) -> If (c, blk t, blk f)
          | For _ -> (
              let s', _ = Interchange.hoist_parallel s in
              match s' with
              | For l -> For { l with body = blk l.body }
              | other -> other)
        in
        Ok { p with Ast.body = blk p.Ast.body });
  }

let cycle_shrink_all =
  {
    name = "cycle-shrink-all";
    transform =
      (fun p ->
        let p', _factors = Cycle_shrink.apply_program p in
        Ok p');
  }

let tile_all ~c1 ~c2 =
  {
    name = Printf.sprintf "tile-all(%d,%d)" c1 c2;
    transform =
      (fun p ->
        let count = ref 0 in
        let avoid = Names.in_program p in
        let rec blk (b : Ast.block) : Ast.block = List.map stmt b
        and stmt (s : Ast.stmt) : Ast.stmt =
          match s with
          | Assign _ -> s
          | If (cnd, t, f) -> If (cnd, blk t, blk f)
          | For l -> (
              match Tile.apply ~avoid ~c1 ~c2 s with
              | Ok s' ->
                  incr count;
                  s'
              | Error _ -> For { l with body = blk l.body })
        in
        let body = blk p.Ast.body in
        if !count = 0 then Error "no tileable nest found"
        else Ok { p with Ast.body });
  }

let parallel_reduce ~loop_index ~scalar ~processors =
  {
    name = Printf.sprintf "parallel-reduce(%s,%s,%d)" loop_index scalar processors;
    transform =
      (fun p ->
        match Parallel_reduce.apply p ~loop_index ~scalar ~processors with
        | Ok p' -> Ok p'
        | Error
            ( Parallel_reduce.Not_found_loop m
            | Parallel_reduce.Not_a_reduction m
            | Parallel_reduce.Non_constant_bounds m
            | Parallel_reduce.Bad_processors m ) ->
            Error m);
  }

let interchange_outer =
  {
    name = "interchange-outer";
    transform =
      (fun p ->
        let applied = ref false in
        let rec blk (b : Ast.block) : Ast.block = List.map stmt b
        and stmt (s : Ast.stmt) : Ast.stmt =
          match s with
          | Assign _ -> s
          | If (c, t, f) -> If (c, blk t, blk f)
          | For l -> (
              if !applied then s
              else
                match Interchange.apply s with
                | Ok s' ->
                    applied := true;
                    s'
                | Error _ -> For { l with body = blk l.body })
        in
        let body = blk p.body in
        if !applied then Ok { p with body }
        else Error "no interchangeable nest found");
  }

(* Rewrite the first top-level loop the transformation accepts. *)
let first_loop ~name ~what rewrite =
  {
    name;
    transform =
      (fun p ->
        let rec go = function
          | [] -> None
          | (Ast.For _ as s) :: rest -> (
              match rewrite p s with
              | Ok stmts -> Some (stmts @ rest)
              | Error _ -> Option.map (fun rest -> s :: rest) (go rest))
          | s :: rest -> Option.map (fun rest -> s :: rest) (go rest)
        in
        match go p.Ast.body with
        | Some body -> Ok { p with Ast.body }
        | None -> Error ("no top-level loop accepts " ^ what));
  }

let unroll_first ~factor =
  first_loop
    ~name:(Printf.sprintf "unroll-first(%d)" factor)
    ~what:"unrolling"
    (fun p s -> Unroll.apply ~avoid:(Names.in_program p) ~factor s)

let peel_first ~count ~from_end =
  first_loop
    ~name:
      (Printf.sprintf "peel-first(%d%s)" count
         (if from_end then ",end" else ""))
    ~what:"peeling"
    (fun _ s -> Peel.apply ~from_end ~count s)

type verification_failure = { pass_name : string; detail : string }

type outcome = {
  program : Ast.program;
  applied : string list;
  failures : (string * string) list;
  verification : verification_failure option;
}

let observably_equal ?fuel ~reference candidate =
  let run p =
    match Eval.run ?fuel p with
    | st -> Ok st
    | exception Eval.Runtime_error m -> Error m
  in
  match (run reference, run candidate) with
  | Error _, Error _ -> Ok () (* both fault: equivalent behaviour *)
  | Error m, Ok _ -> Error ("reference faults (" ^ m ^ ") but candidate runs")
  | Ok _, Error m -> Error ("candidate faults: " ^ m)
  | Ok s1, Ok s2 -> (
      (* Only the reference's arrays are observable: the candidate must
         declare each with equal contents and may add temporaries. *)
      let arrays1, _ = Eval.dump s1 in
      let arrays2, _ = Eval.dump s2 in
      let array_diff =
        List.find_map
          (fun (n, d1) ->
            match List.assoc_opt n arrays2 with
            | None -> Some ("array " ^ n ^ " not declared by the candidate")
            | Some d2 when d1 <> d2 -> Some ("array " ^ n ^ " differs")
            | Some _ -> None)
          arrays1
      in
      match array_diff with
      | Some d -> Error d
      | None -> (
          let scalar_diff =
            List.find_opt
              (fun (s : Ast.scalar_decl) ->
                Eval.scalar_value s1 s.sc_name
                <> Eval.scalar_value s2 s.sc_name)
              reference.Ast.scalars
          in
          match scalar_diff with
          | Some s -> Error ("scalar " ^ s.Ast.sc_name ^ " differs")
          | None -> Ok ()))

let run ?(verify = true) ?fuel passes program =
  let rec go program applied failures = function
    | [] -> { program; applied; failures; verification = None }
    | pass :: rest -> (
        match pass.transform program with
        | Error reason ->
            go program applied ((pass.name, reason) :: failures) rest
        | Ok program' ->
            if verify then
              match observably_equal ?fuel ~reference:program program' with
              | Ok () -> go program' (pass.name :: applied) failures rest
              | Error detail ->
                  {
                    program;
                    applied;
                    failures;
                    verification = Some { pass_name = pass.name; detail };
                  }
            else go program' (pass.name :: applied) failures rest)
  in
  let o = go program [] [] passes in
  { o with applied = List.rev o.applied; failures = List.rev o.failures }
