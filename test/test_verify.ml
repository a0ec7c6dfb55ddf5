(* Static race verifier, QNF recognition, diagnostics framework, and the
   static-vs-sanitizer differential. *)

open Loopcoal

let parse = Parser.parse_program
let pe = Parser.parse_expr

(* ---------- Affine: div/mod folding ---------- *)

let all_index = Affine.of_expr ~is_index:(fun _ -> true)

let affine_str e =
  match all_index (pe e) with None -> "<none>" | Some f -> Affine.to_string f

let test_affine_folds () =
  let check expr expected =
    Alcotest.(check string) expr expected (affine_str expr)
  in
  check "(2 * i + 3) / 1" (Affine.to_string (Option.get (all_index (pe "2 * i + 3"))));
  check "ceildiv(i + j, 1)" (Affine.to_string (Option.get (all_index (pe "i + j"))));
  check "i % 1" "0";
  check "6 / 3" "2";
  check "7 / 2" "3";
  check "ceildiv(7, 2)" "4";
  check "7 % 2" "1"

let test_affine_nonfolds () =
  let none expr =
    Alcotest.(check bool) (expr ^ " stays opaque") true (all_index (pe expr) = None)
  in
  none "i / 2";
  none "i % 2";
  none "ceildiv(i, 2)";
  none "5 / 0";
  none "5 % 0";
  none "ceildiv(5, 0)";
  (* Cdiv folds only for positive constant divisors. *)
  none "ceildiv(5, 0 - 2)";
  none "i * j"

(* ---------- QNF recognition ---------- *)

let digits_str (q : Qnf.t) =
  String.concat "; "
    (List.map
       (fun (d : Qnf.digit) ->
         Printf.sprintf "%s lo=%d n=%d t=%d" d.Qnf.d_var d.d_lo d.d_size
           d.d_stride)
       q.Qnf.q_digits)

let two_digit_expected = "i1 lo=1 n=4 t=8; i2 lo=1 n=8 t=1"

let test_qnf_divmod () =
  match
    Qnf.decompose ~coalesced:"j" ~trip:32
      [ ("i1", pe "(j - 1) / 8 + 1"); ("i2", pe "(j - 1) % 8 + 1") ]
  with
  | Error m -> Alcotest.failf "divmod not recognized: %s" m
  | Ok q -> Alcotest.(check string) "digits" two_digit_expected (digits_str q)

let test_qnf_ceiling () =
  match
    Qnf.decompose ~coalesced:"j" ~trip:32
      [ ("i1", pe "ceildiv(j, 8)"); ("i2", pe "j - 8 * (ceildiv(j, 8) - 1)") ]
  with
  | Error m -> Alcotest.failf "ceiling not recognized: %s" m
  | Ok q -> Alcotest.(check string) "digits" two_digit_expected (digits_str q)

(* An equivalent but differently-shaped formula: the syntactic matcher
   fails, the numeric certifier proves the same decomposition. *)
let test_qnf_numeric_fallback () =
  match
    Qnf.decompose ~coalesced:"j" ~trip:32
      [ ("i1", pe "(j + 7) / 8"); ("i2", pe "(j - 1) % 8 + 1") ]
  with
  | Error m -> Alcotest.failf "numeric fallback failed: %s" m
  | Ok q -> Alcotest.(check string) "digits" two_digit_expected (digits_str q)

let test_qnf_rejects_non_bijection () =
  match
    Qnf.decompose ~coalesced:"j" ~trip:16
      [ ("i1", pe "(j * j) % 4 + 1"); ("i2", pe "(j - 1) % 4 + 1") ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-bijective recovery accepted"

let test_qnf_hint () =
  let defs =
    [ ("i1", pe "(j - 1) / 8 + 1"); ("i2", pe "(j - 1) % 8 + 1") ]
  in
  (match
     Qnf.verify_hint ~coalesced:"j" ~trip:32
       ~sizes:[ ("i1", 4); ("i2", 8) ]
       defs
   with
  | Error m -> Alcotest.failf "correct hint rejected: %s" m
  | Ok q -> Alcotest.(check string) "digits" two_digit_expected (digits_str q));
  match
    Qnf.verify_hint ~coalesced:"j" ~trip:32
      ~sizes:[ ("i1", 8); ("i2", 4) ]
      defs
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong hint accepted"

(* linear_of_coalesced inverts the recovery: substituting the recovered
   digit values reproduces every j of the range. *)
let test_qnf_linear_inverse () =
  let defs =
    [ ("i1", pe "(j - 1) / 6 + 1"); ("i2", pe "(j - 1) % 6 + 1") ]
  in
  match Qnf.decompose ~coalesced:"j" ~trip:30 defs with
  | Error m -> Alcotest.failf "not recognized: %s" m
  | Ok q ->
      let lin = Qnf.linear_of_coalesced q in
      for j = 1 to 30 do
        let valuation =
          List.map (fun (v, e) -> (v, Qnf.eval_at ~coalesced:"j" j e)) defs
        in
        let rec ev (e : Ast.expr) =
          match e with
          | Int n -> n
          | Var v -> List.assoc v valuation
          | Bin (Add, a, b) -> ev a + ev b
          | Bin (Sub, a, b) -> ev a - ev b
          | Bin (Mul, a, b) -> ev a * ev b
          | _ -> Alcotest.fail "linear form contains unexpected operator"
        in
        Alcotest.(check int) (Printf.sprintf "j = %d" j) j (ev lin)
      done

(* ---------- Diag framework ---------- *)

let test_diag_catalog () =
  let codes = List.map (fun (c, _, _) -> c) Diag.catalog in
  Alcotest.(check (list string))
    "codes in order"
    [ "LC001"; "LC002"; "LC003"; "LC004"; "LC005"; "LC006"; "LC007";
      "LC008"; "LC009"; "LC010"; "LC011"; "LC012"; "LC013"; "LC014";
      "LC015" ]
    codes;
  Alcotest.(check bool) "severity lookup" true
    (Diag.severity_of_code "LC004" = Some Diag.Warning
    && Diag.severity_of_code "LC001" = Some Diag.Error
    && Diag.severity_of_code "LC012" = Some Diag.Error
    && Diag.severity_of_code "LC999" = None)

let test_diag_counts_worst () =
  let d code region =
    Diag.make ~code
      ~severity:(Option.get (Diag.severity_of_code code))
      ~region ~subject:"A" "m"
  in
  let diags = [ d "LC006" 1; d "LC004" 1; d "LC001" 2 ] in
  Alcotest.(check (triple int int int)) "counts" (1, 1, 1) (Diag.counts diags);
  Alcotest.(check bool) "worst" true (Diag.worst diags = Some Diag.Error);
  Alcotest.(check bool) "worst empty" true (Diag.worst [] = None)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_diag_json_escaping () =
  let report =
    {
      Diag.target = "a\"b\\c";
      regions = [];
      diags =
        [
          Diag.make ~code:"LC001" ~severity:Diag.Error ~region:1 ~subject:"A"
            "quote \" backslash \\ newline \n done";
        ];
    }
  in
  let s = Diag.render_json report in
  Alcotest.(check bool) "target escaped" true (contains s "a\\\"b\\\\c");
  Alcotest.(check bool) "message escaped" true
    (contains s "quote \\\" backslash \\\\ newline \\n done")

(* ---------- Verifier verdicts ---------- *)

let verdict_of p =
  let res = Verify.check_program p in
  (res, Verify.race_free res)

let has_code (res : Verify.result) code =
  List.exists
    (fun (r : Verify.region) ->
      List.exists (fun (d : Diag.t) -> d.Diag.code = code) r.Verify.diags)
    res.Verify.regions

let test_verify_race_free () =
  let p =
    parse
      {|program
 real A[16]
 real B[16]
begin
 doall i = 1, 16
  A[i] = B[i] + 1.0
 end
end|}
  in
  let res, free = verdict_of p in
  Alcotest.(check bool) "race free" true free;
  Alcotest.(check bool) "LC006 emitted" true (has_code res "LC006")

let test_verify_rw_race () =
  let p =
    parse
      {|program
 real A[10]
begin
 doall i = 1, 9
  A[i] = A[i + 1]
 end
end|}
  in
  let res, free = verdict_of p in
  Alcotest.(check bool) "not race free" false free;
  Alcotest.(check bool) "LC002" true (has_code res "LC002")

let test_verify_ww_race () =
  let p =
    parse
      {|program
 real A[8]
begin
 doall i = 1, 8
  A[1] = 2.0
 end
end|}
  in
  let res, free = verdict_of p in
  Alcotest.(check bool) "not race free" false free;
  Alcotest.(check bool) "LC001" true (has_code res "LC001")

let test_verify_scalar_carry () =
  let p =
    parse
      {|program
 real A[8]
 real B[8]
 real s = 0.0
begin
 doall i = 1, 8
  B[i] = s
  s = A[i]
 end
end|}
  in
  let res, free = verdict_of p in
  Alcotest.(check bool) "not race free" false free;
  Alcotest.(check bool) "LC003" true (has_code res "LC003")

let test_verify_reduction_ok () =
  let p =
    parse
      {|program
 real A[8]
 real s = 0.0
begin
 doall i = 1, 8
  s = s + A[i]
 end
end|}
  in
  let res, free = verdict_of p in
  Alcotest.(check bool) "race free" true free;
  Alcotest.(check bool) "LC008" true (has_code res "LC008")

let test_verify_nonaffine_warns () =
  let p =
    parse
      {|program
 real A[64]
begin
 doall i = 1, 8
  A[i * i] = 1.0
 end
end|}
  in
  let res, free = verdict_of p in
  Alcotest.(check bool) "unverified, not proven" false free;
  Alcotest.(check bool) "LC004" true (has_code res "LC004");
  Alcotest.(check bool) "but no error" true
    (match res.Verify.regions with
    | [ r ] -> r.Verify.verdict = Verify.Unverified
    | _ -> false)

let test_verify_coalesced_recognized () =
  let p =
    parse
      {|program
 real A[4, 8]
 int i1 = 0
 int i2 = 0
begin
 doall j = 1, 32
  i1 = (j - 1) / 8 + 1
  i2 = (j - 1) % 8 + 1
  A[i1, i2] = 1.0
 end
end|}
  in
  let res, free = verdict_of p in
  Alcotest.(check bool) "race free through recovery" true free;
  Alcotest.(check bool) "LC007" true (has_code res "LC007")

let test_verify_shadowed_index () =
  (* A serial inner loop rebinding the parallel index: the verifier
     refuses to reason about the region (LC009) rather than mislabel the
     subscripts. Built via AST because the surface program is perverse. *)
  let body_inner =
    [ Ast.Assign (Ast.Elem ("A", [ Ast.Var "i" ]), Ast.Real 1.0) ]
  in
  let p =
    {
      Ast.arrays = [ { Ast.arr_name = "A"; dims = [ 4 ] } ];
      scalars = [];
      body =
        [
          Ast.For
            {
              index = "i";
              lo = Int 1;
              hi = Int 4;
              step = Int 1;
              par = Parallel;
              body =
                [
                  Ast.For
                    {
                      index = "i";
                      lo = Int 1;
                      hi = Int 2;
                      step = Int 1;
                      par = Serial;
                      body = body_inner;
                    };
                ];
            };
        ];
    }
  in
  let res, free = verdict_of p in
  Alcotest.(check bool) "not proven" false free;
  Alcotest.(check bool) "LC009" true (has_code res "LC009")

(* ---------- strip-mine recognition (LC015) ---------- *)

let test_verify_tiled_nest_race_free () =
  (* The transformation search emits tiled candidates; the verifier must
     not downgrade them, or every tile recipe would be pruned. Tiling a
     race-free doall nest yields parallel tile loops over serial strip
     loops whose subscripts are [c*v + r] shapes — LC015 records the
     recognition and the verdict stays race-free. *)
  let p =
    parse
      {|program
 real A[8, 8]
begin
 doall i = 1, 8
  doall j = 1, 8
   A[i, j] = 1.0 * i + 2.0 * j
  end
 end
end|}
  in
  Alcotest.(check bool) "untiled race free" true (snd (verdict_of p));
  match Recipe.apply [ Recipe.Tile (4, 4) ] p with
  | Error m -> Alcotest.failf "tile recipe declined: %s" m
  | Ok tiled ->
      let res, free = verdict_of tiled in
      Alcotest.(check bool) "tiled still race free" true free;
      Alcotest.(check bool) "LC015 recognition recorded" true
        (has_code res "LC015")

let test_verify_overlapping_strips_flagged () =
  (* Same [c*v + r] shape but with stride 2 under a width-4 remainder:
     consecutive ii blocks overlap, so distinct parallel iterations
     write the same elements. The strip recognizer must not talk the
     race checker out of flagging it. *)
  let p =
    parse
      {|program
 real A[16]
begin
 doall ii = 1, 4
  do r = 1, 4
   A[2 * ii + r] = 1.0
  end
 end
end|}
  in
  let _, free = verdict_of p in
  Alcotest.(check bool) "overlapping strips not race free" false free

(* ---------- coalesced-iff-original on kernels and examples ---------- *)

let hints_of metas =
  List.filter_map
    (fun (m : Coalesce.recovery_meta) ->
      Option.map
        (fun digits ->
          { Verify.h_coalesced = m.Coalesce.rm_coalesced; h_digits = digits })
        m.Coalesce.rm_digits)
    metas

let check_iff name p =
  let orig_free = Verify.race_free (Verify.check_program p) in
  List.iter
    (fun (sname, strategy) ->
      let p', metas = Coalesce.apply_all_program_meta ~strategy p in
      let free' =
        Verify.race_free (Verify.check_program ~hints:(hints_of metas) p')
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: coalesced (%s) race-free iff original" name sname)
        orig_free free')
    [ ("ceiling", Index_recovery.Ceiling); ("divmod", Index_recovery.Div_mod) ]

let test_kernels_iff () =
  List.iter
    (fun name ->
      match Kernels.by_name name with
      | None -> ()
      | Some mk -> check_iff name (mk ()))
    Kernels.all_names

let example_files () =
  let dir = "../examples/programs" in
  let list d =
    if Sys.file_exists d && Sys.is_directory d then
      Sys.readdir d |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".loop")
      |> List.map (Filename.concat d)
    else []
  in
  List.sort String.compare (list dir @ list (Filename.concat dir "diagnostics"))

let test_examples_iff () =
  let files = example_files () in
  Alcotest.(check bool)
    (Printf.sprintf "example corpus found (%d files)" (List.length files))
    true
    (List.length files >= 10);
  List.iter
    (fun file ->
      match Driver.load_file file with
      | Error m -> Alcotest.failf "%s: %s" file m
      | Ok p -> check_iff file p)
    files

(* ---------- sanitizer ---------- *)

let sanitize_total ?policy ?domains p =
  let _, sh = Runtime.Exec.run_sanitized ?policy ?domains p in
  snd (Runtime.Sanitize.results sh)

let test_sanitizer_clean () =
  let p = Kernels.matmul ~ra:5 ~ca:4 ~cb:6 in
  List.iter
    (fun domains ->
      Alcotest.(check int)
        (Printf.sprintf "matmul clean at %d domains" domains)
        0
        (sanitize_total ~policy:Policy.Gss ~domains p))
    [ 1; 2; 4 ]

let test_sanitizer_flags_rw () =
  let p =
    parse
      {|program
 real A[10]
begin
 doall i = 1, 9
  A[i] = A[i + 1]
 end
end|}
  in
  (* 1 domain: iterations run in coalesced order, detection is exact. *)
  let total = sanitize_total ~domains:1 p in
  Alcotest.(check int) "all 8 cross-iteration conflicts seen" 8 total

let test_sanitizer_flags_ww () =
  let p =
    parse
      {|program
 real A[8]
begin
 doall i = 1, 8
  A[1] = 2.0
 end
end|}
  in
  let _, sh = Runtime.Exec.run_sanitized ~domains:1 p in
  let reports, total = Runtime.Sanitize.results sh in
  Alcotest.(check bool) "W/W conflicts seen" true (total >= 7);
  Alcotest.(check bool) "kind is write/write" true
    (List.for_all
       (fun (r : Runtime.Sanitize.report) -> r.Runtime.Sanitize.rep_kind = Ww)
       reports)

let test_sanitizer_report_cap () =
  let p =
    parse
      {|program
 real A[8]
begin
 doall i = 1, 100
  A[1] = 2.0
 end
end|}
  in
  let _, sh = Runtime.Exec.run_sanitized ~domains:1 ~limit:10 p in
  let reports, total = Runtime.Sanitize.results sh in
  Alcotest.(check int) "total counted past cap" 99 total;
  Alcotest.(check int) "retained capped" 10 (List.length reports)

(* ---------- static/dynamic differential ---------- *)

(* Statically race-free  =>  zero sanitizer reports, on every scheduler
   at 1/2/4 domains. Programs come from the affine generator; the
   verifier's verdict selects the race-free subpopulation (the racy rest
   double-checks that the verifier still accepts >0 programs). *)
let test_differential () =
  let rand = Random.State.make [| 0x10C0a1e5; 0xce |] in
  let policies =
    [
      Policy.Static_block;
      Policy.Static_cyclic;
      Policy.Self_sched 2;
      Policy.Gss;
      Policy.Factoring;
      Policy.Trapezoid;
    ]
  in
  let clean = ref 0 and flagged = ref 0 and attempts = ref 0 in
  while !clean < 200 && !attempts < 4000 do
    incr attempts;
    let p = Gen.verifiable_program_gen rand in
    if Verify.race_free (Verify.check_program p) then begin
      incr clean;
      List.iter
        (fun policy ->
          List.iter
            (fun domains ->
              let total = sanitize_total ~policy ~domains p in
              if total > 0 then
                Alcotest.failf
                  "sanitizer found %d race(s) in statically race-free \
                   program (policy %s, %d domains):\n%s"
                  total (Policy.name policy) domains
                  (Pretty.program_to_string p))
            [ 1; 2; 4 ])
        policies
    end
    else incr flagged
  done;
  Alcotest.(check bool)
    (Printf.sprintf
       "collected 200 statically race-free cases (%d attempts, %d flagged)"
       !attempts !flagged)
    true (!clean >= 200);
  Alcotest.(check bool) "generator also produces statically racy programs"
    true (!flagged > 0)

(* The seeded racy program is flagged by both ends of the differential. *)
let test_differential_racy_agrees () =
  let p =
    parse
      {|program
 real A[10]
begin
 doall i = 1, 9
  A[i] = A[i + 1]
 end
end|}
  in
  Alcotest.(check bool) "static verdict racy" false
    (Verify.race_free (Verify.check_program p));
  Alcotest.(check bool) "sanitizer agrees" true (sanitize_total ~domains:1 p > 0)


(* ---------- bounds that are not literals ---------- *)

(* A doall whose range is unknown at check time: a scalar bound [n], an
   enclosing serial index [t], and [doall i = 1, t] under [doall q]
   (coalesced by the runtime, and checked coalesced too, in both
   recovery forms). The direction of two iterations alone keeps
   [A[.., i]] apart; [A[.., i + 1]], [A[.., 1]] and [A[.., 2 * i]]
   against [A[.., i]] must still be flagged. *)
let test_verify_unknown_ranges () =
  let contexts =
    [
      ( "scalar bound",
        Printf.sprintf " doall i = 1, n\n  %s\n end\n" );
      ( "serial index",
        Printf.sprintf " do t = 1, 4\n  doall i = 1, t\n   %s\n  end\n end\n"
      );
      ( "coalesced",
        Printf.sprintf
          " do t = 1, 4\n\
          \  doall q = 1, 3\n\
          \   doall i = 1, t\n\
          \    %s\n\
          \   end\n\
          \  end\n\
          \ end\n" );
    ]
  in
  let bodies =
    [
      ("A[q, i] = A[q, i] + 1.0", true);
      ("A[q, i] = A[q, i + 1]", false);
      ("A[q, i] = A[q, 1]", false);
      ("A[q, 2 * i] = A[q, i]", false);
    ]
  in
  List.iter
    (fun (where, wrap) ->
      List.iter
        (fun (body, free) ->
          let body =
            if where = "coalesced" then body
            else String.concat "2" (String.split_on_char 'q' body)
          in
          let p =
            parse
              (Printf.sprintf
                 "program\n real A[3, 20]\n int n = 7\nbegin\n%send\n"
                 (wrap body))
          in
          let what = Printf.sprintf "%s: %s" where body in
          Alcotest.(check bool)
            what free
            (Verify.race_free (Verify.check_program p));
          List.iter
            (fun (sname, strategy) ->
              let p', metas = Coalesce.apply_all_program_meta ~strategy p in
              Alcotest.(check bool)
                (Printf.sprintf "%s, coalesced (%s)" what sname)
                free
                (Verify.race_free
                   (Verify.check_program ~hints:(hints_of metas) p')))
            [
              ("ceiling", Index_recovery.Ceiling);
              ("divmod", Index_recovery.Div_mod);
            ])
        bodies)
    contexts

let suite =
  [
    Alcotest.test_case "affine div/mod folds" `Quick test_affine_folds;
    Alcotest.test_case "affine non-folds" `Quick test_affine_nonfolds;
    Alcotest.test_case "qnf divmod" `Quick test_qnf_divmod;
    Alcotest.test_case "qnf ceiling" `Quick test_qnf_ceiling;
    Alcotest.test_case "qnf numeric fallback" `Quick test_qnf_numeric_fallback;
    Alcotest.test_case "qnf rejects non-bijection" `Quick
      test_qnf_rejects_non_bijection;
    Alcotest.test_case "qnf hint" `Quick test_qnf_hint;
    Alcotest.test_case "qnf linear inverse" `Quick test_qnf_linear_inverse;
    Alcotest.test_case "diag catalog" `Quick test_diag_catalog;
    Alcotest.test_case "diag counts/worst" `Quick test_diag_counts_worst;
    Alcotest.test_case "diag json escaping" `Quick test_diag_json_escaping;
    Alcotest.test_case "verify race-free" `Quick test_verify_race_free;
    Alcotest.test_case "verify R/W race" `Quick test_verify_rw_race;
    Alcotest.test_case "verify W/W race" `Quick test_verify_ww_race;
    Alcotest.test_case "verify scalar carry" `Quick test_verify_scalar_carry;
    Alcotest.test_case "verify reduction" `Quick test_verify_reduction_ok;
    Alcotest.test_case "verify non-affine" `Quick test_verify_nonaffine_warns;
    Alcotest.test_case "verify coalesced recovery" `Quick
      test_verify_coalesced_recognized;
    Alcotest.test_case "verify shadowed index" `Quick
      test_verify_shadowed_index;
    Alcotest.test_case "verify tiled nest race free (LC015)" `Quick
      test_verify_tiled_nest_race_free;
    Alcotest.test_case "verify overlapping strips flagged" `Quick
      test_verify_overlapping_strips_flagged;
    Alcotest.test_case "kernels: coalesced iff original" `Quick
      test_kernels_iff;
    Alcotest.test_case "examples: coalesced iff original" `Quick
      test_examples_iff;
    Alcotest.test_case "sanitizer clean on matmul" `Quick test_sanitizer_clean;
    Alcotest.test_case "sanitizer flags R/W" `Quick test_sanitizer_flags_rw;
    Alcotest.test_case "sanitizer flags W/W" `Quick test_sanitizer_flags_ww;
    Alcotest.test_case "sanitizer report cap" `Quick test_sanitizer_report_cap;
    Alcotest.test_case "differential: static => dynamic" `Slow
      test_differential;
    Alcotest.test_case "differential: racy agrees" `Quick
      test_differential_racy_agrees;
    Alcotest.test_case "verify: bounds that are not literals" `Quick
      test_verify_unknown_ranges;
  ]
