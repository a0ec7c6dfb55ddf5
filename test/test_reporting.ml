(* Tests for the dependence report, the Gantt renderer, the standard
   pipeline recipe, and golden-output checks on the code generators. *)

open Loopcoal
module B = Builder

let check = Alcotest.check

(* ---------- Dep_report ---------- *)

let test_dep_report_recurrence () =
  let l =
    match
      B.for_ "i" (B.int 2) (B.int 10)
        [
          B.store "A" [ B.var "i" ]
            B.(load "A" [ var "i" - int 1 ] + load "B" [ var "i" ]);
          B.store "B" [ B.var "i" ] (B.int 0);
        ]
    with
    | Ast.For l -> l
    | _ -> assert false
  in
  let deps = Dep_report.loop_dependences l in
  let find kind array =
    List.find_opt
      (fun (e : Dep_report.entry) ->
        e.Dep_report.kind = kind && e.Dep_report.array = array)
      deps
  in
  (* A[i] = A[i-1]: write-then-read textual order gives a flow dep,
     carried. *)
  (match find Dep_report.Flow "A" with
  | Some e -> assert (e.Dep_report.carrier = Dep_report.Carried)
  | None -> Alcotest.fail "missing flow dependence on A");
  (* B read in stmt 1, written in stmt 2: anti, same iteration only. *)
  match find Dep_report.Anti "B" with
  | Some e -> assert (e.Dep_report.carrier = Dep_report.Loop_independent)
  | None -> Alcotest.fail "missing anti dependence on B"

let test_dep_report_clean_doall () =
  let l =
    match
      B.doall "i" (B.int 1) (B.int 10)
        [ B.store "A" [ B.var "i" ] (B.load "B" [ B.var "i" ]) ]
    with
    | Ast.For l -> l
    | _ -> assert false
  in
  check Alcotest.int "no dependences" 0
    (List.length (Dep_report.loop_dependences l))

let test_dep_report_output_dep () =
  let l =
    match
      B.for_ "i" (B.int 1) (B.int 10)
        [ B.store "A" [ B.int 3 ] (B.var "i") ]
    with
    | Ast.For l -> l
    | _ -> assert false
  in
  match Dep_report.loop_dependences l with
  | [ e ] ->
      assert (e.Dep_report.kind = Dep_report.Output);
      assert (e.Dep_report.carrier = Dep_report.Carried)
  | other -> Alcotest.failf "expected one entry, got %d" (List.length other)

let test_dep_report_program_rendering () =
  let text = Dep_report.to_string (Dep_report.report (Kernels.wavefront ~n:5)) in
  assert (String.length text > 0);
  (* the wavefront's serial nest must mention a carried flow dep on A *)
  let contains needle =
    let nh = String.length text and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub text i nn = needle || go (i + 1)) in
    go 0
  in
  assert (contains "flow dependence on A");
  assert (contains "carried")

(* ---------- Gantt ---------- *)

let test_gantt_renders () =
  let r =
    Event_sim.simulate ~machine:(Machine.default ~p:4) ~policy:Policy.Gss
      ~n:64 ~chunk_cost:(fun ~start:_ ~len -> float_of_int (len * 5))
  in
  let g = Gantt.render ~width:40 r in
  (* one line per processor plus the header *)
  let lines = String.split_on_char '\n' (String.trim g) in
  check Alcotest.int "5 lines" 5 (List.length lines);
  assert (String.contains g '#')

let test_gantt_empty_trace_rejected () =
  let r =
    Event_sim.simulate ~machine:(Machine.default ~p:2)
      ~policy:Policy.Static_block ~n:0 ~chunk_cost:(fun ~start:_ ~len ->
        float_of_int len)
  in
  Alcotest.check_raises "empty" (Invalid_argument "Gantt.render: empty trace")
    (fun () -> ignore (Gantt.render r))

(* ---------- standard pipeline ---------- *)

(* The optimizing recipe, run pass by pass with interpreter verification. *)
let standard =
  match
    Recipe.of_string "normalize+distribute+infer+hoist+coalesce(ceiling)+shrink"
  with
  | Ok r -> Recipe.passes r
  | Error m -> failwith m

let test_standard_pipeline_on_kernels () =
  List.iter
    (fun name ->
      let p = (Option.get (Kernels.by_name name)) () in
      let o = Pipeline.run ~fuel:2_000_000 standard p in
      match o.Pipeline.verification with
      | None -> ()
      | Some f ->
          Alcotest.failf "kernel %s: pass %s changed behaviour (%s)" name
            f.Pipeline.pass_name f.Pipeline.detail)
    Kernels.all_names

let test_standard_pipeline_coalesces_matmul () =
  let p = Kernels.matmul ~ra:6 ~ca:5 ~cb:4 in
  let o = Pipeline.run standard p in
  (* after the standard recipe every top-level statement of matmul is a
     single coalesced doall *)
  List.iter
    (fun (s : Ast.stmt) ->
      match s with
      | Ast.For l -> assert (l.par = Ast.Parallel)
      | _ -> Alcotest.fail "expected loop")
    o.Pipeline.program.Ast.body

(* ---------- golden codegen ---------- *)

let canonical_nest =
  B.program
    ~arrays:[ B.array "A" [ 3; 4 ] ]
    [
      B.doall "i" (B.int 1) (B.int 3)
        [
          B.doall "k" (B.int 1) (B.int 4)
            [ B.store "A" [ B.var "i"; B.var "k" ] B.(var "i" + var "k") ];
        ];
    ]

let golden_check name got expected =
  if String.trim got <> String.trim expected then
    Alcotest.failf "%s: golden mismatch.\n--- got ---\n%s\n--- want ---\n%s"
      name got expected

let test_golden_ceiling () =
  match Coalesce.apply_program canonical_nest with
  | Error _ -> Alcotest.fail "coalesce failed"
  | Ok p ->
      golden_check "ceiling" (Pretty.program_to_string p)
        {|program
  real A[3, 4]
  int i = 0
  int k = 0
begin
  doall j = 1, 12
    i = ceildiv(j, 4)
    k = j - 4 * (ceildiv(j, 4) - 1)
    A[i, k] = i + k
  end
end|}

let test_golden_divmod () =
  match
    Coalesce.apply_program ~strategy:Index_recovery.Div_mod canonical_nest
  with
  | Error _ -> Alcotest.fail "coalesce failed"
  | Ok p ->
      golden_check "divmod" (Pretty.program_to_string p)
        {|program
  real A[3, 4]
  int i = 0
  int k = 0
begin
  doall j = 1, 12
    i = (j - 1) / 4 + 1
    k = (j - 1) % 4 + 1
    A[i, k] = i + k
  end
end|}

let test_golden_chunked () =
  match Coalesce_chunked.apply_program ~chunk:5 canonical_nest with
  | Error _ -> Alcotest.fail "chunked coalesce failed"
  | Ok p ->
      golden_check "chunked" (Pretty.program_to_string p)
        {|program
  real A[3, 4]
  int i = 0
  int k = 0
begin
  doall jc = 1, 3
    i = (jc - 1) * 5 / 4 + 1
    k = (jc - 1) * 5 % 4 + 1
    do j = (jc - 1) * 5 + 1, min(jc * 5, 12)
      A[i, k] = i + k
      k = k + 1
      if k > 4 then
        k = 1
        i = i + 1
      end
    end
  end
end|}

let suite =
  [
    Alcotest.test_case "dep report recurrence" `Quick
      test_dep_report_recurrence;
    Alcotest.test_case "dep report clean doall" `Quick
      test_dep_report_clean_doall;
    Alcotest.test_case "dep report output dep" `Quick
      test_dep_report_output_dep;
    Alcotest.test_case "dep report rendering" `Quick
      test_dep_report_program_rendering;
    Alcotest.test_case "gantt renders" `Quick test_gantt_renders;
    Alcotest.test_case "gantt empty trace" `Quick
      test_gantt_empty_trace_rejected;
    Alcotest.test_case "standard pipeline on kernels" `Quick
      test_standard_pipeline_on_kernels;
    Alcotest.test_case "standard pipeline coalesces matmul" `Quick
      test_standard_pipeline_coalesces_matmul;
    Alcotest.test_case "golden: ceiling" `Quick test_golden_ceiling;
    Alcotest.test_case "golden: div/mod" `Quick test_golden_divmod;
    Alcotest.test_case "golden: chunked" `Quick test_golden_chunked;
  ]
