(* Transformation tests: index recovery (unit + property), normalization,
   coalescing (semantic preservation on random nests), interchange,
   chunking and the pass pipeline. *)

open Loopcoal
module B = Builder
module IR = Index_recovery

let check = Alcotest.check

let observably_equal p p' =
  Pipeline.observably_equal ~fuel:500_000 ~reference:p p'

let assert_equal_behaviour name p p' =
  match observably_equal p p' with
  | Ok () -> ()
  | Error detail -> Alcotest.failf "%s: %s" name detail

(* ---------- index recovery ---------- *)

let test_recover_known () =
  (* shape 2x3: j = 1..6 maps to (1,1) (1,2) (1,3) (2,1) (2,2) (2,3) *)
  let expect =
    [ (1, [ 1; 1 ]); (2, [ 1; 2 ]); (3, [ 1; 3 ]); (4, [ 2; 1 ]); (6, [ 2; 3 ]) ]
  in
  List.iter
    (fun (j, v) ->
      Alcotest.(check (list int))
        (Printf.sprintf "div_mod j=%d" j)
        v
        (IR.recover_div_mod ~sizes:[ 2; 3 ] j);
      Alcotest.(check (list int))
        (Printf.sprintf "ceiling j=%d" j)
        v
        (IR.recover_ceiling ~sizes:[ 2; 3 ] j))
    expect

let test_recover_out_of_range () =
  Alcotest.check_raises "j too large"
    (Invalid_argument "Index_recovery.recover: coalesced index out of range")
    (fun () -> ignore (IR.recover_div_mod ~sizes:[ 2; 3 ] 7));
  Alcotest.check_raises "j zero"
    (Invalid_argument "Index_recovery.recover: coalesced index out of range")
    (fun () -> ignore (IR.recover_ceiling ~sizes:[ 2; 3 ] 0))

let prop_linearize_recover =
  QCheck.Test.make ~name:"recover inverts linearize (all strategies)"
    ~count:300 Gen.arbitrary_sizes (fun sizes ->
      let n = Intmath.product sizes in
      let ok = ref true in
      for j = 1 to n do
        let a = IR.recover_div_mod ~sizes j in
        let b = IR.recover_ceiling ~sizes j in
        if a <> b then ok := false;
        if IR.linearize ~sizes a <> j then ok := false
      done;
      !ok)

let prop_cursor_matches_closed_form =
  QCheck.Test.make ~name:"odometer cursor agrees with closed forms"
    ~count:200 Gen.arbitrary_sizes (fun sizes ->
      let n = Intmath.product sizes in
      let start = 1 + ((n - 1) / 2) in
      let c = IR.cursor_start ~sizes start in
      let ok = ref (IR.cursor_indices c = IR.recover_div_mod ~sizes start) in
      for j = start + 1 to n do
        IR.cursor_next c;
        if IR.cursor_indices c <> IR.recover_div_mod ~sizes j then ok := false
      done;
      !ok)

let test_cursor_at_end () =
  let c = IR.cursor_start ~sizes:[ 2; 2 ] 4 in
  Alcotest.check_raises "advance past end"
    (Invalid_argument "Index_recovery.cursor_next: at end") (fun () ->
      IR.cursor_next c)

let test_measured_ops_ordering () =
  (* Incremental must beat the closed forms on any multi-dimensional
     shape; deeper nests cost more for closed forms. *)
  let sizes = [ 6; 5; 4 ] in
  let dm = IR.measured_ops IR.Div_mod ~sizes in
  let ce = IR.measured_ops IR.Ceiling ~sizes in
  let inc = IR.measured_ops IR.Incremental ~sizes in
  assert (inc < ce);
  assert (inc < dm);
  let dm2 = IR.measured_ops IR.Div_mod ~sizes:[ 6; 5 ] in
  assert (dm2 < dm)

let test_recovery_block_executes () =
  (* The generated recovery statements assign exactly the recovered
     indices, for both codegen strategies, including non-unit lows. *)
  let sizes = [ 3; 4 ] and los = [ 2; 5 ] in
  List.iter
    (fun strategy ->
      let targets =
        List.map2
          (fun (name, lo) n -> (name, B.int lo, B.int n))
          [ ("a", List.nth los 0); ("b", List.nth los 1) ]
          sizes
      in
      let body = IR.recovery_block strategy ~coalesced:"j" ~targets in
      let program =
        B.program
          ~scalars:[ B.int_scalar "a"; B.int_scalar "b"; B.int_scalar "chk" ]
          [
            B.for_ "j" (B.int 1) (B.int 12)
              (body
              @ [
                  (* accumulate a checksum so every iteration matters *)
                  B.assign "chk"
                    B.((var "chk" * int 100) + (var "a" * int 10) + var "b");
                ]);
          ]
      in
      let st = Eval.run program in
      let expected = ref 0 in
      for j = 1 to 12 do
        match IR.recover_div_mod ~sizes j with
        | [ i1; i2 ] ->
            let a = 2 + i1 - 1 and b = 5 + i2 - 1 in
            expected := (!expected * 100) + (a * 10) + b;
            ignore j
        | _ -> assert false
      done;
      match Eval.scalar_value st "chk" with
      | Eval.Vint v ->
          check Alcotest.int (IR.strategy_name strategy) !expected v
      | Eval.Vreal _ -> Alcotest.fail "checksum should be int")
    [ IR.Div_mod; IR.Ceiling ]

let test_recovery_block_rejects_incremental () =
  match
    IR.recovery_block IR.Incremental ~coalesced:"j"
      ~targets:[ ("a", B.int 1, B.int 3); ("b", B.int 1, B.int 4) ]
  with
  | _ -> Alcotest.fail "expected rejection"
  | exception Invalid_argument _ -> ()

let test_simp_folds () =
  let cases =
    [
      (B.(int 2 + int 3), "5");
      (B.(var "x" * int 1), "x");
      (B.(var "x" * int 0), "0");
      (B.(var "x" + int 0), "x");
      (B.cdiv (B.var "x") (B.int 1), "x");
      (B.(neg (int 4)), "(-4)");
    ]
  in
  List.iter
    (fun (e, s) ->
      check Alcotest.string s s (Pretty.expr_to_string (IR.simp e)))
    cases

(* ---------- normalization ---------- *)

let test_normalize_loop () =
  let s = B.for_ ~step:(B.int 3) "i" (B.int 2) (B.int 11) [ B.store "A" [ B.var "i" ] (B.int 1) ] in
  match Normalize.block [ s ] with
  | [ Ast.For l ] ->
      assert (Normalize.is_normalized l);
      check Alcotest.string "trip" "4" (Pretty.expr_to_string l.hi)
  | _ -> Alcotest.fail "expected loop"

let prop_normalize_preserves =
  QCheck.Test.make ~name:"normalization preserves semantics" ~count:200
    Gen.arbitrary_program (fun p ->
      Result.is_ok (observably_equal p (Normalize.program p)))

let test_normalize_idempotent () =
  let p = Kernels.stencil ~n:8 in
  let p1 = Normalize.program p in
  let p2 = Normalize.program p1 in
  assert (Ast.equal_program p1 p2)

(* ---------- coalescing ---------- *)

let prop_coalesce_preserves =
  QCheck.Test.make ~name:"coalescing preserves semantics (random nests)"
    ~count:300 Gen.arbitrary_perfect_nest (fun p ->
      let p', count = Coalesce.apply_all_program p in
      count >= 1 && Result.is_ok (observably_equal p p'))

let prop_coalesce_ceiling_and_divmod_agree =
  QCheck.Test.make ~name:"both codegen strategies agree" ~count:150
    Gen.arbitrary_perfect_nest (fun p ->
      let a, _ = Coalesce.apply_all_program ~strategy:IR.Ceiling p in
      let b, _ = Coalesce.apply_all_program ~strategy:IR.Div_mod p in
      Result.is_ok (observably_equal a b))

let test_coalesce_structure () =
  let p = Kernels.matmul ~ra:4 ~ca:3 ~cb:5 in
  let p', count = Coalesce.apply_all_program p in
  check Alcotest.int "three nests coalesced" 3 count;
  (* every top-level statement is now a depth-1 doall *)
  List.iter
    (fun (s : Ast.stmt) ->
      match s with
      | Ast.For l -> (
          assert (l.par = Ast.Parallel);
          match Nest.trip_count l with
          | Some n -> assert (n = 4 * 3 || n = 3 * 5 || n = 4 * 5)
          | None -> Alcotest.fail "expected constant trip count")
      | _ -> Alcotest.fail "expected loop")
    p'.Ast.body;
  assert_equal_behaviour "matmul" p p'

let test_coalesced_loop_annotation () =
  (* The coalesced loop is parallel by construction (legality was checked
     before the rewrite). The dependence analysis itself cannot re-prove it
     — recovered indices are div/mod functions of the coalesced index,
     beyond affine subscript analysis — which is exactly why the
     transformation carries the annotation forward. The recovery scalars
     must at least be privatizable. *)
  let p = Kernels.stencil ~n:8 in
  let p', _ = Coalesce.apply_all_program p in
  List.iter
    (fun (s : Ast.stmt) ->
      match s with
      | Ast.For l ->
          assert (l.par = Ast.Parallel);
          assert (
            Usedef.Vset.is_empty (Privatize.blocking_scalars l.Ast.body))
      | _ -> Alcotest.fail "expected loop")
    p'.Ast.body

let test_coalesce_depth_2_of_3 () =
  let p =
    B.program
      ~arrays:[ B.array "T" [ 3; 4; 5 ] ]
      [
        B.doall "i" (B.int 1) (B.int 3)
          [
            B.doall "j" (B.int 1) (B.int 4)
              [
                B.doall "k" (B.int 1) (B.int 5)
                  [
                    B.store "T"
                      [ B.var "i"; B.var "j"; B.var "k" ]
                      B.((var "i" * int 100) + (var "j" * int 10) + var "k");
                  ];
              ];
          ];
      ]
  in
  match Coalesce.apply_program ~depth:2 p with
  | Error _ -> Alcotest.fail "depth-2 coalesce failed"
  | Ok p' ->
      assert_equal_behaviour "partial" p p';
      (* outer loop now has trip 12 and contains the k loop *)
      (match p'.Ast.body with
      | [ Ast.For l ] ->
          check Alcotest.(option int) "trip 12" (Some 12) (Nest.trip_count l)
      | _ -> Alcotest.fail "expected single loop")

let test_coalesce_rejects_serial () =
  let p =
    B.program
      ~arrays:[ B.array "A" [ 4; 4 ] ]
      [
        B.for_ "i" (B.int 1) (B.int 4)
          [
            B.for_ "j" (B.int 1) (B.int 4)
              [ B.store "A" [ B.var "i"; B.var "j" ] (B.int 1) ];
          ];
      ]
  in
  match Coalesce.apply_program p with
  | Error (Coalesce.Not_coalescible _) -> ()
  | Ok _ -> Alcotest.fail "must reject serial nest"
  | Error _ -> Alcotest.fail "wrong error"

let test_coalesce_rejects_incremental_strategy () =
  let p = Kernels.stencil ~n:6 in
  match Coalesce.apply_program ~strategy:IR.Incremental p with
  | Error (Coalesce.Bad_strategy _) -> ()
  | _ -> Alcotest.fail "must reject incremental strategy"

let test_coalesce_empty_dimension () =
  (* A zero-trip dimension must zero the whole coalesced loop. *)
  let p =
    B.program
      ~arrays:[ B.array "A" [ 4; 4 ] ]
      ~scalars:[ B.int_scalar ~init:0 "n" ]
      [
        B.doall "i" (B.int 1) (B.int 4)
          [
            B.doall "j" (B.int 1) (B.var "n")
              [ B.store "A" [ B.var "i"; B.var "j" ] (B.int 1) ];
          ];
      ]
  in
  match Coalesce.apply_program p with
  | Error _ -> Alcotest.fail "should coalesce symbolic bounds"
  | Ok p' -> assert_equal_behaviour "empty dim" p p'

let test_coalesce_gauss_jordan_hybrid () =
  (* Only the back-substitution nest is perfectly nested; apply_all must
     coalesce exactly one nest (plus the two setup loops are not perfect —
     the setup i-loop has two inner loops). *)
  let p = Kernels.gauss_jordan ~n:6 ~m:2 in
  let p', count = Coalesce.apply_all_program p in
  check Alcotest.int "one nest" 1 count;
  assert_equal_behaviour "gauss-jordan" p p'

let test_coalesce_index_shadowing () =
  (* A declared scalar shares the loop-index name: coalescing reuses the
     name as the recovery target, which would clobber the scalar — the
     implementation must keep observable behaviour (it skips adding a
     duplicate declaration and the scalar is overwritten only if the
     original loop also left it... we simply require verified equality). *)
  let p =
    B.program
      ~arrays:[ B.array "A" [ 3; 3 ] ]
      ~scalars:[ B.int_scalar ~init:7 "other" ]
      [
        B.doall "u" (B.int 1) (B.int 3)
          [
            B.doall "v" (B.int 1) (B.int 3)
              [ B.store "A" [ B.var "u"; B.var "v" ] (B.var "other") ];
          ];
      ]
  in
  let p', count = Coalesce.apply_all_program p in
  check Alcotest.int "coalesced" 1 count;
  assert_equal_behaviour "shadowing" p p'

(* ---------- interchange ---------- *)

let test_interchange_parallel_pair () =
  let s =
    B.doall "i" (B.int 1) (B.int 3)
      [
        B.doall "j" (B.int 1) (B.int 4)
          [ B.store "W" [ B.var "i"; B.var "j" ] B.(var "i" + var "j") ];
      ]
  in
  match Interchange.apply s with
  | Ok (Ast.For l) ->
      check Alcotest.string "outer is j" "j" l.index;
      let p_before =
        B.program ~arrays:[ B.array "W" [ 6; 6 ] ] [ s ]
      in
      let p_after =
        B.program ~arrays:[ B.array "W" [ 6; 6 ] ] [ Ast.For l ]
      in
      assert_equal_behaviour "interchange" p_before p_after
  | Ok _ -> Alcotest.fail "expected loop"
  | Error _ -> Alcotest.fail "parallel pair must interchange"

let test_interchange_legal_by_analysis () =
  (* Serial annotations, but analysis can prove independence. *)
  let s =
    B.for_ "i" (B.int 1) (B.int 4)
      [
        B.for_ "j" (B.int 1) (B.int 4)
          [ B.store "W" [ B.var "i"; B.var "j" ] B.(var "i" * var "j") ];
      ]
  in
  match Interchange.apply s with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "analysis should prove legality"

let test_interchange_illegal () =
  (* A(i-1, j+1) read: the (<, >) direction, textbook-illegal. *)
  let s =
    B.for_ "i" (B.int 2) (B.int 5)
      [
        B.for_ "j" (B.int 1) (B.int 4)
          [
            B.store "W"
              [ B.var "i"; B.var "j" ]
              (B.load "W" [ B.(var "i" - int 1); B.(var "j" + int 1) ]);
          ];
      ]
  in
  match Interchange.apply s with
  | Error (Interchange.Illegal _) -> ()
  | Ok _ -> Alcotest.fail "(<,>) dependence must block interchange"
  | Error (Interchange.Not_a_nest _) -> Alcotest.fail "wrong error"

let test_interchange_triangular_rejected () =
  let s =
    B.doall "i" (B.int 1) (B.int 4)
      [
        B.doall "j" (B.int 1) (B.var "i")
          [ B.store "V" [ B.var "j" ] (B.int 1) ];
      ]
  in
  match Interchange.apply s with
  | Error (Interchange.Illegal _) -> ()
  | _ -> Alcotest.fail "triangular bounds must be rejected"

let test_interchange_wavefront_legal () =
  (* Wavefront deps are (<, =) and (=, <): interchange IS legal (it is
     parallelization that is not). *)
  let p = Kernels.wavefront ~n:6 in
  match List.nth p.Ast.body 1 with
  | Ast.For _ as s -> (
      match Interchange.apply s with
      | Ok s' ->
          let p' = { p with Ast.body = [ List.nth p.Ast.body 0; s' ] } in
          assert_equal_behaviour "wavefront interchange" p p'
      | Error _ -> Alcotest.fail "(<,=)/(=,<) deps permit interchange")
  | _ -> Alcotest.fail "expected loop"

(* ---------- chunking ---------- *)

let test_chunk_structure () =
  let s =
    B.doall "i" (B.int 1) (B.int 10) [ B.store "V" [ B.var "i" ] (B.int 1) ]
  in
  match Chunk.apply ~avoid:[] ~chunk:4 s with
  | Ok (Ast.For outer) ->
      check Alcotest.(option int) "3 chunks" (Some 3) (Nest.trip_count outer);
      assert (outer.par = Ast.Parallel);
      (match outer.body with
      | [ Ast.For inner ] -> assert (inner.par = Ast.Serial)
      | _ -> Alcotest.fail "expected inner loop")
  | Ok _ -> Alcotest.fail "expected loop"
  | Error _ -> Alcotest.fail "chunking failed"

let prop_chunk_preserves =
  QCheck.Test.make ~name:"chunking preserves semantics" ~count:200
    (QCheck.pair Gen.arbitrary_perfect_nest (QCheck.int_range 1 9))
    (fun (p, c) ->
      (* normalize first so the outer loop qualifies, then chunk it *)
      let p = Normalize.program p in
      match p.Ast.body with
      | [ (Ast.For _ as s) ] -> (
          match Chunk.apply ~avoid:(Names.in_program p) ~chunk:c s with
          | Ok s' ->
              Result.is_ok (observably_equal p { p with Ast.body = [ s' ] })
          | Error _ -> false)
      | _ -> QCheck.assume_fail ())

let test_chunk_rejects_unnormalized () =
  let s = B.for_ "i" (B.int 2) (B.int 9) [] in
  match Chunk.apply ~avoid:[] ~chunk:2 s with
  | Error (Chunk.Not_normalized _) -> ()
  | _ -> Alcotest.fail "must require normalized loop"

let test_chunk_rejects_bad_size () =
  let s = B.for_ "i" (B.int 1) (B.int 9) [] in
  match Chunk.apply ~avoid:[] ~chunk:0 s with
  | Error (Chunk.Bad_chunk _) -> ()
  | _ -> Alcotest.fail "must reject chunk 0"

(* ---------- pipeline ---------- *)

let test_pipeline_end_to_end () =
  let p = Kernels.matmul ~ra:5 ~ca:4 ~cb:3 in
  let o =
    Pipeline.run
      [ Pipeline.normalize; Pipeline.infer_parallel; Pipeline.coalesce_all () ]
      p
  in
  assert (o.Pipeline.verification = None);
  Alcotest.(check (list string))
    "applied"
    [ "normalize"; "infer-parallel"; "coalesce-all" ]
    o.Pipeline.applied;
  assert_equal_behaviour "pipeline" p o.Pipeline.program

let test_pipeline_records_failures () =
  let p = Kernels.calculate_pi ~intervals:10 in
  let o = Pipeline.run [ Pipeline.coalesce () ] p in
  (match o.Pipeline.failures with
  | [ ("coalesce", _) ] -> ()
  | _ -> Alcotest.fail "expected recorded failure");
  assert (Ast.equal_program p o.Pipeline.program)

let test_pipeline_catches_bad_pass () =
  (* A deliberately wrong pass must be rolled back by verification. *)
  let clobber =
    {
      Pipeline.name = "clobber";
      transform =
        (fun (p : Ast.program) ->
          Ok { p with Ast.body = List.tl p.Ast.body });
    }
  in
  let p = Kernels.stencil ~n:6 in
  let o = Pipeline.run [ clobber ] p in
  (match o.Pipeline.verification with
  | Some f -> check Alcotest.string "pass name" "clobber" f.Pipeline.pass_name
  | None -> Alcotest.fail "verification should have caught the clobber");
  assert (Ast.equal_program p o.Pipeline.program)

(* [observably_equal] compares the reference's arrays only: a candidate
   may add temporaries (preduce's partials array) but must keep every
   reference array, with its contents. *)
let reduction_loop () =
  match Driver.load_file "../examples/programs/reduction.loop" with
  | Ok p -> p
  | Error m -> Alcotest.fail m

let test_equal_allows_temporaries () =
  let p = reduction_loop () in
  match Recipe.of_string "preduce(i,s,4)" with
  | Error m -> Alcotest.fail m
  | Ok r -> (
      match Recipe.apply r p with
      | Error m -> Alcotest.fail m
      | Ok p' ->
          Alcotest.(check bool) "preduce adds an array" true
            (List.length p'.Ast.arrays > List.length p.Ast.arrays);
          assert_equal_behaviour "preduce(i,s,4) on reduction.loop" p p')

let test_equal_rejects_dropped_array () =
  let p =
    B.program
      ~arrays:[ B.array "A" [ 4 ]; B.array "T" [ 4 ] ]
      [ B.doall "i" (B.int 1) (B.int 4) [ B.store "A" [ B.var "i" ] (B.real 1.0) ] ]
  in
  let dropped = { p with Ast.arrays = [ B.array "A" [ 4 ] ] } in
  Alcotest.(check bool) "dropping a reference array fails" true
    (Result.is_error (observably_equal p dropped))

let test_equal_rejects_changed_array () =
  let fill x =
    B.program
      ~arrays:[ B.array "A" [ 4 ] ]
      [ B.doall "i" (B.int 1) (B.int 4) [ B.store "A" [ B.var "i" ] (B.real x) ] ]
  in
  Alcotest.(check bool) "changing a reference array fails" true
    (Result.is_error (observably_equal (fill 1.0) (fill 2.0)))

let suite =
  [
    Alcotest.test_case "recover known values" `Quick test_recover_known;
    Alcotest.test_case "recover range check" `Quick test_recover_out_of_range;
    Gen.to_alcotest prop_linearize_recover;
    Gen.to_alcotest prop_cursor_matches_closed_form;
    Alcotest.test_case "cursor end" `Quick test_cursor_at_end;
    Alcotest.test_case "measured ops ordering" `Quick
      test_measured_ops_ordering;
    Alcotest.test_case "recovery block executes" `Quick
      test_recovery_block_executes;
    Alcotest.test_case "recovery rejects incremental" `Quick
      test_recovery_block_rejects_incremental;
    Alcotest.test_case "simp folds" `Quick test_simp_folds;
    Alcotest.test_case "normalize loop" `Quick test_normalize_loop;
    Gen.to_alcotest prop_normalize_preserves;
    Alcotest.test_case "normalize idempotent" `Quick test_normalize_idempotent;
    Gen.to_alcotest prop_coalesce_preserves;
    Gen.to_alcotest prop_coalesce_ceiling_and_divmod_agree;
    Alcotest.test_case "coalesce structure" `Quick test_coalesce_structure;
    Alcotest.test_case "coalesced loop annotation" `Quick
      test_coalesced_loop_annotation;
    Alcotest.test_case "partial depth" `Quick test_coalesce_depth_2_of_3;
    Alcotest.test_case "rejects serial nest" `Quick test_coalesce_rejects_serial;
    Alcotest.test_case "rejects incremental strategy" `Quick
      test_coalesce_rejects_incremental_strategy;
    Alcotest.test_case "empty symbolic dimension" `Quick
      test_coalesce_empty_dimension;
    Alcotest.test_case "gauss-jordan hybrid" `Quick
      test_coalesce_gauss_jordan_hybrid;
    Alcotest.test_case "index shadowing" `Quick test_coalesce_index_shadowing;
    Alcotest.test_case "interchange parallel pair" `Quick
      test_interchange_parallel_pair;
    Alcotest.test_case "interchange by analysis" `Quick
      test_interchange_legal_by_analysis;
    Alcotest.test_case "interchange illegal" `Quick test_interchange_illegal;
    Alcotest.test_case "interchange triangular" `Quick
      test_interchange_triangular_rejected;
    Alcotest.test_case "interchange wavefront" `Quick
      test_interchange_wavefront_legal;
    Alcotest.test_case "chunk structure" `Quick test_chunk_structure;
    Gen.to_alcotest prop_chunk_preserves;
    Alcotest.test_case "chunk rejects unnormalized" `Quick
      test_chunk_rejects_unnormalized;
    Alcotest.test_case "chunk rejects bad size" `Quick
      test_chunk_rejects_bad_size;
    Alcotest.test_case "pipeline end-to-end" `Quick test_pipeline_end_to_end;
    Alcotest.test_case "pipeline records failures" `Quick
      test_pipeline_records_failures;
    Alcotest.test_case "pipeline catches bad pass" `Quick
      test_pipeline_catches_bad_pass;
    Alcotest.test_case "equal allows added temporaries" `Quick
      test_equal_allows_temporaries;
    Alcotest.test_case "equal rejects a dropped array" `Quick
      test_equal_rejects_dropped_array;
    Alcotest.test_case "equal rejects a changed array" `Quick
      test_equal_rejects_changed_array;
  ]
