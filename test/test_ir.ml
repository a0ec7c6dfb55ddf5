(* IR tests: builder/AST helpers, pretty/parse round-trips, evaluator
   semantics and operation counting. *)

open Loopcoal
module B = Builder

let check = Alcotest.check

(* ---------- AST helpers ---------- *)

let test_subst () =
  let e = B.(var "i" + (var "j" * var "i")) in
  let e' = Ast.subst_expr "i" (B.int 5) e in
  check Alcotest.string "subst" "5 + j * 5" (Pretty.expr_to_string e')

let test_subst_stops_at_rebinding () =
  let inner = B.for_ "i" (B.int 1) (B.var "i") [ B.assign "s" (B.var "i") ] in
  let s' = Ast.subst_stmt "i" (B.int 9) inner in
  match s' with
  | Ast.For l ->
      (* The bound is an outer use: substituted. The body index is
         rebound: untouched. *)
      check Alcotest.string "bound" "9" (Pretty.expr_to_string l.hi);
      check Alcotest.string "body" "s = i"
        (Pretty.block_to_string l.body)
  | _ -> Alcotest.fail "expected a loop"

let test_fresh_var () =
  check Alcotest.string "free base" "x" (Ast.fresh_var ~avoid:[ "y" ] "x");
  check Alcotest.string "collision" "x1" (Ast.fresh_var ~avoid:[ "x" ] "x");
  check Alcotest.string "double collision" "x2"
    (Ast.fresh_var ~avoid:[ "x"; "x1" ] "x")

let test_block_size () =
  let b =
    [
      B.assign "s" (B.int 1);
      B.if_ Ast.True [ B.assign "s" (B.int 2) ] [];
      B.for_ "i" (B.int 1) (B.int 3) [ B.assign "s" (B.var "i") ];
    ]
  in
  check Alcotest.int "size" 5 (Ast.block_size b)

(* ---------- pretty / parse round trip ---------- *)

(* One print/parse trip may canonicalize (e.g. [Neg (Int 2)] becomes
   [Int (-2)]), so the property is: the trip preserves semantics, and a
   second trip is the identity. Kernels contain no such forms and
   round-trip exactly. *)
let roundtrip_program p =
  let reparse q = Parser.parse_program (Pretty.program_to_string q) in
  match reparse p with
  | p1 ->
      Ast.equal_program p1 (reparse p1)
      && Result.is_ok
           (Pipeline.observably_equal ~fuel:200_000 ~reference:p p1)
  | exception _ -> false

let test_roundtrip_kernels () =
  List.iter
    (fun name ->
      match Kernels.by_name name with
      | Some mk ->
          if not (roundtrip_program (mk ())) then
            Alcotest.failf "kernel %s does not round-trip" name
      | None -> Alcotest.failf "unknown kernel %s" name)
    Kernels.all_names

let prop_roundtrip =
  QCheck.Test.make ~name:"pretty/parse round-trip" ~count:200
    Gen.arbitrary_program roundtrip_program

let test_parse_errors () =
  let bad = [ "program begin end end"; "program begin x = end"; "" ] in
  List.iter
    (fun src ->
      match Parser.parse_program src with
      | _ -> Alcotest.failf "expected parse error for %S" src
      | exception (Parser.Parse_error _ | Lexer.Lex_error _) -> ())
    bad

let test_parse_precedence () =
  let e = Parser.parse_expr "1 + 2 * 3 - 4 / 2" in
  (match Eval.run (B.program ~scalars:[ B.int_scalar "r" ] [ B.assign "r" e ]) with
  | st -> (
      match Eval.scalar_value st "r" with
      | Eval.Vint v -> check Alcotest.int "precedence" 5 v
      | Eval.Vreal _ -> Alcotest.fail "expected int"));
  let e2 = Parser.parse_expr "(1 + 2) * 3" in
  check Alcotest.string "parens survive" "(1 + 2) * 3"
    (Pretty.expr_to_string e2)

let test_parse_cond_backtracking () =
  (* "(a + 1) < 2" needs the comparison branch after seeing "(",
     "(a < 1) and true" needs the grouped-condition branch. *)
  let block =
    Parser.parse_block "if (s + 1) < 2 then s = 1 end if (s < 1) and true then s = 2 end"
  in
  check Alcotest.int "two ifs" 2 (List.length block)

let test_lexer_comments () =
  let p =
    Parser.parse_program
      "program # header comment\n int s = 1 # decl\n begin\n s = 2 # set\n end"
  in
  check Alcotest.int "one stmt" 1 (List.length p.Ast.body)

(* ---------- evaluator ---------- *)

let test_eval_matmul_values () =
  let p = Kernels.matmul ~ra:4 ~ca:3 ~cb:5 in
  let st = Eval.run p in
  Alcotest.(check (array (float 1e-9)))
    "C matches reference"
    (Kernels.matmul_reference ~ra:4 ~ca:3 ~cb:5)
    (Eval.array_contents st "C")

let test_eval_bounds_check () =
  let p =
    B.program
      ~arrays:[ B.array "A" [ 3 ] ]
      [ B.store "A" [ B.int 4 ] (B.real 1.0) ]
  in
  match Eval.run p with
  | _ -> Alcotest.fail "expected bounds error"
  | exception Eval.Runtime_error _ -> ()

let test_eval_div_by_zero () =
  let p =
    B.program ~scalars:[ B.int_scalar "s" ]
      [ B.assign "s" B.(int 1 / int 0) ]
  in
  match Eval.run p with
  | _ -> Alcotest.fail "expected division error"
  | exception Eval.Runtime_error _ -> ()

let test_eval_fuel () =
  let p =
    B.program ~scalars:[ B.int_scalar "s" ]
      [ B.for_ "i" (B.int 1) (B.int 1000) [ B.assign "s" (B.var "i") ] ]
  in
  match Eval.run ~fuel:10 p with
  | _ -> Alcotest.fail "expected fuel exhaustion"
  | exception Eval.Runtime_error _ -> ()

let test_eval_nonpositive_step () =
  let p =
    B.program ~scalars:[ B.int_scalar "s" ]
      [ B.for_ ~step:(B.int 0) "i" (B.int 1) (B.int 3) [ B.assign "s" (B.var "i") ] ]
  in
  match Eval.run p with
  | _ -> Alcotest.fail "expected step error"
  | exception Eval.Runtime_error _ -> ()

let test_eval_assign_to_index_rejected () =
  let p =
    B.program ~scalars:[ B.int_scalar "i" ]
      [ B.for_ "i" (B.int 1) (B.int 3) [ B.assign "i" (B.int 0) ] ]
  in
  match Eval.run p with
  | _ -> Alcotest.fail "expected loop-index assignment error"
  | exception Eval.Runtime_error _ -> ()

let test_eval_int_real_coercion () =
  let p =
    B.program
      ~scalars:[ B.real_scalar "x"; B.int_scalar "n" ]
      [
        B.assign "x" B.(int 3 / int 2);
        (* int division: 1, then coerced *)
        B.assign "n" (B.int 7);
      ]
  in
  let st = Eval.run p in
  (match Eval.scalar_value st "x" with
  | Eval.Vreal v -> check (Alcotest.float 0.0) "int div then coerce" 1.0 v
  | Eval.Vint _ -> Alcotest.fail "x should be real");
  match Eval.scalar_value st "n" with
  | Eval.Vint 7 -> ()
  | _ -> Alcotest.fail "n should be 7"

let test_eval_real_to_int_rejected () =
  let p =
    B.program ~scalars:[ B.int_scalar "n" ]
      [ B.assign "n" (B.real 1.5) ]
  in
  match Eval.run p with
  | _ -> Alcotest.fail "expected type error"
  | exception Eval.Runtime_error _ -> ()

let test_eval_counters () =
  let p =
    B.program
      ~arrays:[ B.array "A" [ 10 ] ]
      [
        B.for_ "i" (B.int 1) (B.int 10)
          [ B.store "A" [ B.var "i" ] B.(load "A" [ var "i" ] + var "i") ];
      ]
  in
  let c = Eval.counters (Eval.run p) in
  check Alcotest.int "iterations" 10 c.Eval.loop_iters;
  check Alcotest.int "stores" 10 c.Eval.stores;
  check Alcotest.int "loads" 10 c.Eval.loads;
  check Alcotest.int "real adds" 10 c.Eval.real_ops

let test_eval_loop_zero_trips () =
  let p =
    B.program ~scalars:[ B.int_scalar "s" ]
      [ B.for_ "i" (B.int 5) (B.int 4) [ B.assign "s" (B.int 1) ] ]
  in
  let st = Eval.run p in
  match Eval.scalar_value st "s" with
  | Eval.Vint 0 -> ()
  | _ -> Alcotest.fail "zero-trip loop must not execute"

let test_eval_cdiv_semantics () =
  let p =
    B.program ~scalars:[ B.int_scalar "a"; B.int_scalar "b" ]
      [
        B.assign "a" (B.cdiv (B.int 7) (B.int 2));
        B.assign "b" (B.cdiv (B.int 8) (B.int 2));
      ]
  in
  let st = Eval.run p in
  (match Eval.scalar_value st "a" with
  | Eval.Vint 4 -> ()
  | _ -> Alcotest.fail "ceildiv(7,2) = 4");
  match Eval.scalar_value st "b" with
  | Eval.Vint 4 -> ()
  | _ -> Alcotest.fail "ceildiv(8,2) = 4"

let prop_generated_programs_run =
  QCheck.Test.make ~name:"generated programs execute without faulting"
    ~count:200 Gen.arbitrary_program (fun p ->
      match Eval.run ~fuel:100_000 p with
      | _ -> true
      | exception Eval.Runtime_error _ -> false)

let test_state_equal_reflexive () =
  let p = Kernels.stencil ~n:6 in
  let s1 = Eval.run p and s2 = Eval.run p in
  assert (Eval.state_equal s1 s2);
  assert (Eval.same_behaviour p p)

let suite =
  [
    Alcotest.test_case "substitution" `Quick test_subst;
    Alcotest.test_case "substitution stops at rebinding" `Quick
      test_subst_stops_at_rebinding;
    Alcotest.test_case "fresh_var" `Quick test_fresh_var;
    Alcotest.test_case "block_size" `Quick test_block_size;
    Alcotest.test_case "kernels round-trip" `Quick test_roundtrip_kernels;
    Gen.to_alcotest prop_roundtrip;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "parse precedence" `Quick test_parse_precedence;
    Alcotest.test_case "cond backtracking" `Quick test_parse_cond_backtracking;
    Alcotest.test_case "comments" `Quick test_lexer_comments;
    Alcotest.test_case "matmul values" `Quick test_eval_matmul_values;
    Alcotest.test_case "bounds check" `Quick test_eval_bounds_check;
    Alcotest.test_case "division by zero" `Quick test_eval_div_by_zero;
    Alcotest.test_case "fuel" `Quick test_eval_fuel;
    Alcotest.test_case "non-positive step" `Quick test_eval_nonpositive_step;
    Alcotest.test_case "assign to index rejected" `Quick
      test_eval_assign_to_index_rejected;
    Alcotest.test_case "int/real coercion" `Quick test_eval_int_real_coercion;
    Alcotest.test_case "real to int rejected" `Quick
      test_eval_real_to_int_rejected;
    Alcotest.test_case "operation counters" `Quick test_eval_counters;
    Alcotest.test_case "zero-trip loop" `Quick test_eval_loop_zero_trips;
    Alcotest.test_case "ceildiv semantics" `Quick test_eval_cdiv_semantics;
    Gen.to_alcotest prop_generated_programs_run;
    Alcotest.test_case "state equality" `Quick test_state_equal_reflexive;
  ]

let test_parse_error_positions () =
  let src = "program\n int s = 0\nbegin\n s = 1 +\nend\n" in
  match Parser.parse_program src with
  | _ -> Alcotest.fail "expected parse error"
  | exception Parser.Parse_error m ->
      (* the dangling '+' makes "end" (line 5, column 1) unexpected *)
      let contains needle =
        let nh = String.length m and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub m i nn = needle || go (i + 1)) in
        go 0
      in
      if not (contains "line 5" && contains "column 1") then
        Alcotest.failf "position missing in %S" m

(* Literals past max_int are a lexer diagnostic at the literal's offset,
   not an escaping [int_of_string] failure; max_int itself lexes. *)
let test_int_literal_out_of_range () =
  let src = "program\n int s = 0\nbegin\n s = 4611686018427387904\nend\n" in
  (match Parser.parse_program src with
  | _ -> Alcotest.fail "expected a lex error"
  | exception Lexer.Lex_error (m, pos) ->
      Alcotest.(check string) "message" "integer literal out of range" m;
      Alcotest.(check int) "offset of the literal" (String.index src '4') pos);
  match Parser.parse_program "program int s = 0 begin s = 4611686018427387903 end" with
  | p -> (
      match Eval.scalar_value (Eval.run p) "s" with
      | Eval.Vint n -> Alcotest.(check int) "max_int literal" max_int n
      | _ -> Alcotest.fail "s is not an int")
  | exception Lexer.Lex_error (m, _) -> Alcotest.failf "max_int: %s" m

(* [sc_init] is a float, so an int initializer is exact only up to 2^53;
   anything larger is rejected with a diagnostic naming the scalar. *)
let test_int_init_range () =
  let parse init =
    Parser.parse_program (Printf.sprintf "program int s = %s begin end" init)
  in
  List.iter
    (fun init ->
      match parse init with
      | p ->
          let d = List.hd p.Ast.scalars in
          Alcotest.(check string)
            init init
            (Printf.sprintf "%.0f" d.Ast.sc_init)
      | exception Parser.Parse_error m ->
          Alcotest.failf "%s rejected: %s" init m)
    [ "9007199254740992"; "-9007199254740992" ];
  List.iter
    (fun init ->
      match parse init with
      | _ -> Alcotest.failf "%s accepted" init
      | exception Parser.Parse_error m ->
          let want = "int scalar s: initializer " in
          if String.length m < String.length want
             || String.sub m 0 (String.length want) <> want
          then
            Alcotest.failf "%s: diagnostic %S does not name the scalar" init m)
    [ "9007199254740993"; "-9007199254740993"; "4611686018427387902" ]

let test_lexer_position () =
  Alcotest.(check (pair int int)) "origin" (1, 1) (Lexer.position "abc" 0);
  Alcotest.(check (pair int int)) "mid-line" (1, 3) (Lexer.position "abc" 2);
  Alcotest.(check (pair int int)) "after newline" (2, 1) (Lexer.position "a\nb" 2);
  Alcotest.(check (pair int int)) "second line col" (2, 2) (Lexer.position "a\nbc" 3)

let suite =
  suite
  @ [
      Alcotest.test_case "parse error positions" `Quick
        test_parse_error_positions;
      Alcotest.test_case "lexer positions" `Quick test_lexer_position;
      Alcotest.test_case "int literal out of range" `Quick
        test_int_literal_out_of_range;
      Alcotest.test_case "int initializer beyond 2^53" `Quick
        test_int_init_range;
    ]
