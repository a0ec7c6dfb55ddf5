(* Tests for the static validator, loop unrolling, deep interchange /
   parallel hoisting, and the transpose/histogram kernels. *)

open Loopcoal
module B = Builder

let check = Alcotest.check

let observably_equal p p' =
  Pipeline.observably_equal ~fuel:500_000 ~reference:p p'

(* ---------- Validate ---------- *)

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let assert_invalid expected p =
  match Validate.check_program p with
  | [] -> Alcotest.failf "expected %s to be reported" expected
  | issues ->
      if
        not
          (List.exists
             (fun (i : Validate.issue) ->
               contains_substring i.Validate.what expected)
             issues)
      then
        Alcotest.failf "expected %S among: %s" expected
          (String.concat " | "
             (List.map (fun (i : Validate.issue) -> i.Validate.what) issues))

let test_validate_kernels_clean () =
  List.iter
    (fun name ->
      let p = (Option.get (Kernels.by_name name)) () in
      match Validate.check_program p with
      | [] -> ()
      | i :: _ ->
          Alcotest.failf "kernel %s: %s (%s)" name i.Validate.what
            i.Validate.where)
    Kernels.all_names

let test_validate_undeclared () =
  assert_invalid "undeclared"
    (B.program [ B.assign "nope" (B.int 1) ]);
  assert_invalid "undeclared"
    (B.program ~scalars:[ B.int_scalar "s" ] [ B.assign "s" (B.var "ghost") ])

let test_validate_arity () =
  assert_invalid "rank"
    (B.program
       ~arrays:[ B.array "A" [ 3; 3 ] ]
       [ B.store "A" [ B.int 1 ] (B.int 0) ])

let test_validate_assign_to_index () =
  assert_invalid "loop index"
    (B.program ~scalars:[ B.int_scalar "s" ]
       [ B.for_ "i" (B.int 1) (B.int 3) [ B.assign "i" (B.int 0) ] ])

let test_validate_real_subscript () =
  assert_invalid "subscript"
    (B.program
       ~arrays:[ B.array "A" [ 5 ] ]
       [ B.store "A" [ B.real 1.5 ] (B.int 0) ])

let test_validate_real_to_int () =
  assert_invalid "int scalar"
    (B.program ~scalars:[ B.int_scalar "n" ] [ B.assign "n" (B.real 1.5) ])

let test_validate_duplicate_decl () =
  assert_invalid "duplicate"
    (B.program
       ~arrays:[ B.array "x" [ 2 ] ]
       ~scalars:[ B.int_scalar "x" ] [])

let test_validate_mod_on_real () =
  assert_invalid "integer operands"
    (B.program ~scalars:[ B.real_scalar "x" ]
       [ B.assign "x" B.(real 1.5 % int 2) ])

let test_validate_array_as_scalar () =
  assert_invalid "as a scalar"
    (B.program
       ~arrays:[ B.array "A" [ 2 ] ]
       ~scalars:[ B.real_scalar "x" ]
       [ B.assign "x" (B.var "A") ])

let test_validate_bad_step () =
  assert_invalid "non-positive"
    (B.program ~scalars:[ B.int_scalar "s" ]
       [ B.for_ ~step:(B.int 0) "i" (B.int 1) (B.int 3) [ B.assign "s" (B.int 1) ] ])

let prop_valid_programs_run =
  QCheck.Test.make
    ~name:"validator accepts exactly the generator's programs" ~count:200
    Gen.arbitrary_program (fun p -> Validate.is_valid p)

let prop_transforms_preserve_validity =
  QCheck.Test.make ~name:"coalescing output is still valid" ~count:150
    Gen.arbitrary_perfect_nest (fun p ->
      let p', _ = Coalesce.apply_all_program p in
      Validate.is_valid p')

(* ---------- Unroll ---------- *)

let unroll_program n =
  B.program
    ~arrays:[ B.array "A" [ n ] ]
    [
      B.for_ "i" (B.int 1) (B.int n)
        [ B.store "A" [ B.var "i" ] B.(var "i" * int 3) ];
    ]

let test_unroll_exact_division () =
  let p = unroll_program 12 in
  match p.Ast.body with
  | [ s ] -> (
      match Unroll.apply ~avoid:(Names.in_program p) ~factor:4 s with
      | Ok [ Ast.For l ] ->
          check Alcotest.(option int) "3 blocks" (Some 3) (Nest.trip_count l);
          check Alcotest.int "4 statements" 4 (List.length l.body);
          let p' = { p with Ast.body = [ Ast.For l ] } in
          (match observably_equal p p' with
          | Ok () -> ()
          | Error d -> Alcotest.fail d)
      | Ok _ -> Alcotest.fail "even division should drop the remainder"
      | Error _ -> Alcotest.fail "unroll failed")
  | _ -> assert false

let test_unroll_with_remainder () =
  let p = unroll_program 13 in
  match p.Ast.body with
  | [ s ] -> (
      match Unroll.apply ~avoid:(Names.in_program p) ~factor:4 s with
      | Ok ([ _; _ ] as stmts) -> (
          let p' = { p with Ast.body = stmts } in
          match observably_equal p p' with
          | Ok () -> ()
          | Error d -> Alcotest.fail d)
      | Ok _ -> Alcotest.fail "expected unrolled + remainder"
      | Error _ -> Alcotest.fail "unroll failed")
  | _ -> assert false

let prop_unroll_preserves =
  QCheck.Test.make ~name:"unrolling preserves semantics" ~count:150
    (QCheck.pair Gen.arbitrary_perfect_nest (QCheck.int_range 2 6))
    (fun (p, factor) ->
      let p = Normalize.program p in
      match p.Ast.body with
      | [ s ] -> (
          match Unroll.apply ~avoid:(Names.in_program p) ~factor s with
          | Ok stmts ->
              Result.is_ok (observably_equal p { p with Ast.body = stmts })
          | Error _ -> false)
      | _ -> QCheck.assume_fail ())

let test_unroll_rejects () =
  let s = B.for_ "i" (B.int 2) (B.int 9) [] in
  (match Unroll.apply ~avoid:[] ~factor:2 s with
  | Error (Unroll.Not_normalized _) -> ()
  | _ -> Alcotest.fail "must require normalized");
  let s2 = B.for_ "i" (B.int 1) (B.int 9) [] in
  match Unroll.apply ~avoid:[] ~factor:1 s2 with
  | Error (Unroll.Bad_factor _) -> ()
  | _ -> Alcotest.fail "factor 1 is not an unroll"

(* ---------- deep interchange / hoisting ---------- *)

let triple_nest par1 par2 par3 =
  Ast.For
    {
      index = "i";
      lo = Int 1;
      hi = Int 3;
      step = Int 1;
      par = par1;
      body =
        [
          Ast.For
            {
              index = "j";
              lo = Int 1;
              hi = Int 4;
              step = Int 1;
              par = par2;
              body =
                [
                  Ast.For
                    {
                      index = "k";
                      lo = Int 1;
                      hi = Int 5;
                      step = Int 1;
                      par = par3;
                      body =
                        [
                          B.store "U"
                            [ B.var "i"; B.var "j"; B.var "k" ]
                            B.(var "i" + var "j" + var "k");
                        ];
                    };
                ];
            };
        ];
    }

let index_order s =
  let rec go (s : Ast.stmt) =
    match s with
    | Ast.For l -> l.index :: (match l.body with [ inner ] -> go inner | _ -> [])
    | _ -> []
  in
  go s

let test_interchange_at_level_2 () =
  let s = triple_nest Ast.Parallel Ast.Parallel Ast.Parallel in
  match Interchange.apply_at ~level:2 s with
  | Ok s' -> Alcotest.(check (list string)) "order" [ "i"; "k"; "j" ] (index_order s')
  | Error _ -> Alcotest.fail "level-2 interchange failed"

let test_hoist_parallel () =
  (* serial, serial, parallel: the parallel loop bubbles to the top. *)
  let s = triple_nest Ast.Serial Ast.Serial Ast.Parallel in
  let s', swaps = Interchange.hoist_parallel s in
  check Alcotest.int "two swaps" 2 swaps;
  Alcotest.(check (list string)) "order" [ "k"; "i"; "j" ] (index_order s');
  (* and semantics are preserved *)
  let mk body = B.program ~arrays:[ B.array "U" [ 3; 4; 5 ] ] [ body ] in
  match observably_equal (mk s) (mk s') with
  | Ok () -> ()
  | Error d -> Alcotest.fail d

let test_hoist_stops_when_illegal () =
  (* A (<,>)-style dependence blocks the hoist. *)
  let s =
    B.for_ "i" (B.int 2) (B.int 5)
      [
        B.doall "j" (B.int 1) (B.int 4)
          [
            B.store "W"
              [ B.var "i"; B.var "j" ]
              (B.load "W" [ B.(var "i" - int 1); B.(var "j" + int 1) ]);
          ];
      ]
  in
  let _, swaps = Interchange.hoist_parallel s in
  check Alcotest.int "no swaps" 0 swaps

(* ---------- new kernels ---------- *)

let test_transpose_reference () =
  let st = Eval.run (Kernels.transpose ~n:7) in
  Alcotest.(check (array (float 0.0)))
    "B" (Kernels.transpose_reference ~n:7)
    (Eval.array_contents st "B")

let test_transpose_interchange_and_tile () =
  let p = Kernels.transpose ~n:8 in
  match List.nth p.Ast.body 1 with
  | Ast.For _ as s -> (
      (match Interchange.apply s with
      | Ok s' ->
          let p' = { p with Ast.body = [ List.hd p.Ast.body; s' ] } in
          (match observably_equal p p' with
          | Ok () -> ()
          | Error d -> Alcotest.fail d)
      | Error _ -> Alcotest.fail "transpose must interchange");
      match Tile.apply ~verify_parallel:true ~avoid:(Names.in_program p) ~c1:4 ~c2:4 s with
      | Ok s' -> (
          let p' = { p with Ast.body = [ List.hd p.Ast.body; s' ] } in
          match observably_equal p p' with
          | Ok () -> ()
          | Error d -> Alcotest.fail d)
      | Error _ -> Alcotest.fail "transpose must tile")
  | _ -> Alcotest.fail "expected loop"

let test_histogram_reference () =
  let st = Eval.run (Kernels.histogram ~n:100 ~buckets:7) in
  Alcotest.(check (array (float 0.0)))
    "H"
    (Kernels.histogram_reference ~n:100 ~buckets:7)
    (Eval.array_contents st "H")

let test_histogram_not_parallelizable () =
  let p = Kernels.histogram ~n:50 ~buckets:5 in
  match p.Ast.body with
  | [ Ast.For l ] -> (
      assert (not (Loop_class.is_doall l));
      match Distance.min_carried_distance l with
      | Distance.Unknown -> ()
      | _ -> Alcotest.fail "non-affine subscript must be Unknown")
  | _ -> Alcotest.fail "expected one loop"

let suite =
  [
    Alcotest.test_case "kernels validate cleanly" `Quick
      test_validate_kernels_clean;
    Alcotest.test_case "undeclared names" `Quick test_validate_undeclared;
    Alcotest.test_case "subscript arity" `Quick test_validate_arity;
    Alcotest.test_case "assign to index" `Quick test_validate_assign_to_index;
    Alcotest.test_case "real subscript" `Quick test_validate_real_subscript;
    Alcotest.test_case "real to int" `Quick test_validate_real_to_int;
    Alcotest.test_case "duplicate declaration" `Quick
      test_validate_duplicate_decl;
    Alcotest.test_case "mod on real" `Quick test_validate_mod_on_real;
    Alcotest.test_case "array as scalar" `Quick test_validate_array_as_scalar;
    Alcotest.test_case "bad step" `Quick test_validate_bad_step;
    Gen.to_alcotest prop_valid_programs_run;
    Gen.to_alcotest prop_transforms_preserve_validity;
    Alcotest.test_case "unroll even" `Quick test_unroll_exact_division;
    Alcotest.test_case "unroll remainder" `Quick test_unroll_with_remainder;
    Gen.to_alcotest prop_unroll_preserves;
    Alcotest.test_case "unroll rejections" `Quick test_unroll_rejects;
    Alcotest.test_case "interchange at level" `Quick
      test_interchange_at_level_2;
    Alcotest.test_case "hoist parallel" `Quick test_hoist_parallel;
    Alcotest.test_case "hoist stops when illegal" `Quick
      test_hoist_stops_when_illegal;
    Alcotest.test_case "transpose reference" `Quick test_transpose_reference;
    Alcotest.test_case "transpose interchange+tile" `Quick
      test_transpose_interchange_and_tile;
    Alcotest.test_case "histogram reference" `Quick test_histogram_reference;
    Alcotest.test_case "histogram conservative" `Quick
      test_histogram_not_parallelizable;
  ]

(* ---------- peeling ---------- *)

let peel_program =
  B.program
    ~arrays:[ B.array "A" [ 9 ] ]
    [
      B.for_ "i" (B.int 2) (B.int 8)
        [ B.store "A" [ B.var "i" ] B.(var "i" * int 7) ];
    ]

let run_peel ?from_end count =
  match peel_program.Ast.body with
  | [ s ] -> Peel.apply ?from_end ~count s
  | _ -> assert false

let test_peel_front () =
  match run_peel 2 with
  | Ok stmts -> (
      check Alcotest.int "2 peeled + loop" 3 (List.length stmts);
      (match List.nth stmts 2 with
      | Ast.For l -> check Alcotest.string "new lo" "4" (Pretty.expr_to_string l.lo)
      | _ -> Alcotest.fail "expected remainder loop");
      match observably_equal peel_program { peel_program with Ast.body = stmts } with
      | Ok () -> ()
      | Error d -> Alcotest.fail d)
  | Error _ -> Alcotest.fail "peel failed"

let test_peel_back () =
  match run_peel ~from_end:true 3 with
  | Ok stmts -> (
      check Alcotest.int "loop + 3 peeled" 4 (List.length stmts);
      match observably_equal peel_program { peel_program with Ast.body = stmts } with
      | Ok () -> ()
      | Error d -> Alcotest.fail d)
  | Error _ -> Alcotest.fail "peel failed"

let test_peel_whole_loop () =
  match run_peel 7 with
  | Ok stmts -> (
      (* 7 iterations fully unrolled, no remainder loop *)
      check Alcotest.int "all straight-line" 7 (List.length stmts);
      assert (List.for_all (fun (s : Ast.stmt) -> match s with Ast.Assign _ -> true | _ -> false) stmts);
      match observably_equal peel_program { peel_program with Ast.body = stmts } with
      | Ok () -> ()
      | Error d -> Alcotest.fail d)
  | Error _ -> Alcotest.fail "peel failed"

let test_peel_rejections () =
  (match run_peel 8 with
  | Error (Peel.Bad_count _) -> ()
  | _ -> Alcotest.fail "over-peel must fail");
  (match run_peel 0 with
  | Error (Peel.Bad_count _) -> ()
  | _ -> Alcotest.fail "count 0 must fail");
  let symbolic = B.for_ "i" (B.int 1) (B.var "n") [] in
  match Peel.apply ~count:1 symbolic with
  | Error (Peel.Not_constant _) -> ()
  | _ -> Alcotest.fail "symbolic bounds must fail"

let prop_peel_preserves =
  QCheck.Test.make ~name:"peeling preserves semantics" ~count:150
    (QCheck.pair Gen.arbitrary_perfect_nest (QCheck.int_range 1 4))
    (fun (p, count) ->
      match p.Ast.body with
      | [ (Ast.For l as s) ] -> (
          let trips =
            match Nest.trip_count l with Some t -> t | None -> 0
          in
          if trips < count then QCheck.assume_fail ()
          else
            match Peel.apply ~count s with
            | Ok stmts ->
                Result.is_ok (observably_equal p { p with Ast.body = stmts })
            | Error _ -> false)
      | _ -> QCheck.assume_fail ())

let suite =
  suite
  @ [
      Alcotest.test_case "peel front" `Quick test_peel_front;
      Alcotest.test_case "peel back" `Quick test_peel_back;
      Alcotest.test_case "peel whole loop" `Quick test_peel_whole_loop;
      Alcotest.test_case "peel rejections" `Quick test_peel_rejections;
      Gen.to_alcotest prop_peel_preserves;
    ]

(* ---------- hostile input ---------- *)

(* Seeded mutations of the example programs, and random bytes: loading
   returns [Ok] or [Error], and validation and verification of whatever
   loads return their reports. None of them raises. *)
let corpus =
  lazy
    (let dir = "../examples/programs" in
     Sys.readdir dir |> Array.to_list
     |> List.filter (fun f -> Filename.check_suffix f ".loop")
     |> List.sort compare
     |> List.map (fun f ->
            In_channel.with_open_bin (Filename.concat dir f)
              In_channel.input_all))

let fuzz_tokens =
  [|
    "doall"; "do"; "end"; "if"; "then"; "else"; "begin"; "program"; "real";
    "int"; "min("; "max("; "ceildiv("; "("; ")"; "["; "]"; ","; "="; "-"; "%";
    "/"; "*"; "0"; "-1"; "4611686018427387903"; "99999999999999999999";
    "1e999"; "0.5"; "i"; "j"; "A"; "\n"; " ";
  |]

(* 1-4 edits: delete, duplicate or overwrite a span, or insert a token *)
let mutate rng src =
  let edit s =
    let n = String.length s in
    let pos = Random.State.int rng (n + 1) in
    let len = min (n - pos) (1 + Random.State.int rng 8) in
    let cut = String.sub s 0 pos and rest = String.sub s pos (n - pos) in
    match Random.State.int rng 4 with
    | 0 -> cut ^ String.sub rest len (String.length rest - len)
    | 1 -> cut ^ String.sub rest 0 len ^ rest
    | 2 ->
        cut
        ^ String.make len (Char.chr (32 + Random.State.int rng 95))
        ^ String.sub rest len (String.length rest - len)
    | _ ->
        cut
        ^ fuzz_tokens.(Random.State.int rng (Array.length fuzz_tokens))
        ^ rest
  in
  let s = ref src in
  for _ = 0 to Random.State.int rng 4 do
    s := edit !s
  done;
  !s

let load_check_verify text =
  match Driver.load_string text with
  | Error _ -> ()
  | Ok p ->
      ignore (Validate.check_program p : Validate.issue list);
      ignore (Verify.check_program p : Verify.result)

let test_hostile_input () =
  let rng = Random.State.make [| 27 |] in
  let progs = Array.of_list (Lazy.force corpus) in
  let survive what text =
    match load_check_verify text with
    | () -> ()
    | exception e ->
        Alcotest.failf "%s raised %s on:\n%s" what (Printexc.to_string e) text
  in
  for k = 1 to 3000 do
    survive
      (Printf.sprintf "mutation %d" k)
      (mutate rng progs.(k mod Array.length progs))
  done;
  for k = 1 to 500 do
    survive
      (Printf.sprintf "random bytes %d" k)
      (String.init (Random.State.int rng 200) (fun _ ->
           Char.chr (Random.State.int rng 256)))
  done

let suite =
  suite
  @ [
      Alcotest.test_case "hostile input: load, validate, verify never raise"
        `Quick test_hostile_input;
    ]
