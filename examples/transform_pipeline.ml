(* The transformation toolbox on one program, as one recipe: a
   non-perfect nest distributes into perfect nests, which coalesce; a
   recurrence that the DOALL test rejects cycle-shrinks into partial
   parallelism; and the schedules are compared on the simulated machine.
   The result is verified against the reference interpreter.

     dune exec examples/transform_pipeline.exe *)

open Loopcoal
module B = Builder

(* A program with two parallelization stories:
   1. a non-perfect doubly-parallel nest (needs distribution first),
   2. a distance-8 recurrence (needs cycle shrinking). *)
let program =
  B.program
    ~arrays:
      [ B.array "A" [ 24; 40 ]; B.array "B" [ 24; 40 ]; B.array "R" [ 128 ] ]
    [
      (* 1: imperfect nest *)
      B.doall "i" (B.int 1) (B.int 24)
        [
          B.doall "j" (B.int 1) (B.int 40)
            [ B.store "A" [ B.var "i"; B.var "j" ] B.(var "i" + var "j") ];
          B.doall "j" (B.int 1) (B.int 40)
            [ B.store "B" [ B.var "i"; B.var "j" ] B.(var "i" * var "j") ];
        ];
      (* 2: recurrence with distance 8 *)
      B.doall "k" (B.int 1) (B.int 128)
        [ B.store "R" [ B.var "k" ] B.(var "k" * int 3) ];
      B.for_ "k" (B.int 1) (B.int 120)
        [
          B.store "R" [ B.(var "k" + int 8) ]
            B.(load "R" [ var "k" ] + real 1.0);
        ];
    ]

let show_counts label p =
  let parallel = ref 0 and serial = ref 0 in
  let rec stmt (s : Ast.stmt) =
    match s with
    | Assign _ -> ()
    | If (_, t, f) ->
        List.iter stmt t;
        List.iter stmt f
    | For l ->
        (match l.par with
        | Parallel -> incr parallel
        | Serial -> incr serial);
        List.iter stmt l.body
  in
  List.iter stmt p.Ast.body;
  Printf.printf "%-28s %d parallel loops, %d serial loops, %d statements\n"
    label !parallel !serial (Ast.block_size p.Ast.body)

let () =
  show_counts "original:" program;

  (* Distribute, re-infer annotations, coalesce everything coalescible,
     then cycle-shrink the recurrence that stayed serial — the same
     string `loopc transform` takes. *)
  let recipe = "distribute+infer+coalesce(ceiling)+shrink" in
  let p =
    match Result.bind (Recipe.of_string recipe) (Fun.flip Recipe.apply program)
    with
    | Ok p -> p
    | Error m -> failwith m
  in
  (match Pipeline.observably_equal ~reference:program p with
  | Ok () -> ()
  | Error d -> failwith ("the recipe changed the program's results: " ^ d));
  Printf.printf "recipe %s: interpreter equivalence verified\n" recipe;
  show_counts "after all transformations:" p;
  print_newline ();
  print_string (Pretty.program_to_string p);

  (* Profile-and-schedule the transformed program's first nest. *)
  print_newline ();
  match Driver.schedule_program ~p:32 p with
  | Error m -> failwith m
  | Ok (prof, lines) ->
      Printf.printf
        "first nest profiled: %s, measured body cost %.1f ops/iteration\n"
        (String.concat "x" (List.map string_of_int prof.Driver.p_shape))
        prof.Driver.p_body_cost;
      List.iter
        (fun (l : Driver.sim_line) ->
          Printf.printf "  %-24s completion %8.0f  speedup %6.2fx\n"
            l.Driver.label l.Driver.completion l.Driver.speedup)
        lines
