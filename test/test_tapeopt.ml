(* Golden tests for the tape optimizer pipeline, written against the
   stable textual tape format ([Bytecode.pp_tape], the same text
   [loopc run --dump-tape] prints).

   Each test compiles a pinned kernel with [Compile.compile ~tape_dump]
   and compares the dump of one pass verbatim. The texts below are the
   contract: register numbering, instruction spelling and access lines
   may only change together with a deliberate format or pipeline
   change — update the goldens when they do, never loosen them. *)

open Loopcoal
module Compile = Runtime.Compile
module Exec = Runtime.Exec
module Tapeopt = Runtime.Tapeopt
module Bytecode = Runtime.Bytecode
module Recipe = Loopcoal_transform.Recipe
module B = Builder

(* Capture every (plan, pass, text) triple a compile reports. *)
let dumps prog =
  let acc = ref [] in
  let dump ~plan ~pass t = acc := (plan, pass, Bytecode.pp_tape t) :: !acc in
  ignore (Compile.compile ~tape_dump:dump prog);
  List.rev !acc

let pass_of prog ~plan ~pass =
  match
    List.find_opt (fun (p, n, _) -> p = plan && n = pass) (dumps prog)
  with
  | Some (_, _, text) -> text
  | None -> Alcotest.failf "no dump for plan %d pass %s" plan pass

let check_golden what expected got =
  if got <> expected then
    Alcotest.failf "%s: dump differs from golden\n--- expected ---\n%s\n--- got ---\n%s"
      what expected got

(* ---------- LICM: invariant load hoisted out of a serial loop ---------- *)

(* A's subscript chain and its load do not depend on the serial j loop;
   cross-block LICM must move them above the loop top (the back edge
   retargets from op 2 to op 6) and float the strip-invariant bound
   snapshots into the preamble. The W element does depend on j, so its
   load and store stay put. *)
let licm_prog =
  B.program
    ~arrays:[ B.array "A" [ 9 ]; B.array "W" [ 6; 8 ] ]
    [
      B.doall "i" (B.int 1) (B.int 6)
        [
          B.for_ "j" (B.int 1) (B.int 8)
            [
              B.store "W"
                [ B.var "i"; B.var "j" ]
                B.(
                  load "W" [ var "i"; var "j" ]
                  + load "A" [ B.imin B.((var "i" * var "i") + int 1) (B.int 9) ]);
            ];
        ];
    ]

let licm_golden =
  "pre:\n\
  \   0: i5 <- 8\n\
  \   1: i8 <- 9\n\
   ops:\n\
  \   0: i4 <- 1\n\
  \   1: jii gt i4 i5 -> 10\n\
  \   2: i6 <- i3 * i3\n\
  \   3: i7 <- 1 + 1*i6\n\
  \   4: i9 <- min i7 i8\n\
  \   5: r0 <- load[1]\n\
  \   6: r1 <- load[2]\n\
  \   7: r2 <- r1 + r0\n\
  \   8: store[0] <- r2\n\
  \   9: loopc i4 += 1 while <= i5 -> 6\n\
   accs:\n\
  \   0: W  inv = -9  var = 0 + 8*i3 + 1*i4  off = inv + 8*i3 + 1*i4\n\
  \   1: A  inv = -1  var = 0 + 1*i9  off = inv + 1*i9\n\
  \   2: W  inv = -9  var = 0 + 8*i3 + 1*i4  off = inv + 8*i3 + 1*i4\n\
   sanitize=false\n"

let test_licm_golden () =
  check_golden "licm kernel, licm" licm_golden
    (pass_of licm_prog ~plan:0 ~pass:"licm")

(* ---------- LICM aliasing: loads never hoist over same-array stores ---------- *)

(* The load A[i] has region-invariant subscripts, but the loop also
   stores into A — and with i = 2 the store hits the loaded element, so
   each iteration must reload. A hoisted (stale) load yields s = 15
   instead of 48. *)
let licm_alias_prog =
  B.program
    ~arrays:[ B.array "A" [ 4 ] ]
    ~scalars:[ B.real_scalar "s" ]
    [
      B.doall "k" (B.int 1) (B.int 4) [ B.store "A" [ B.var "k" ] (B.real 3.0) ];
      B.doall "i" (B.int 2) (B.int 2)
        [
          B.for_ "j" (B.int 1) (B.int 5)
            [
              B.assign "s" B.(var "s" + load "A" [ var "i" ]);
              B.store "A" [ B.int 2 ] (B.var "s");
            ];
        ];
    ]

let test_licm_alias () =
  let st = Eval.run licm_alias_prog in
  List.iter
    (fun lvl ->
      let outcome =
        Exec.run ~domains:1 ~engine:Exec.Bytecode ~opt_level:lvl
          licm_alias_prog
      in
      if not (Exec.agrees_with_interpreter outcome st) then
        Alcotest.failf "aliased invariant load: -O%d differs from interpreter"
          lvl)
    [ 0; 2 ]

(* ---------- dump plumbing ---------- *)

(* Every plan reports the pipeline stages in order, and the dumped
   stages are exactly [Tapeopt.pass_names] at -O2: on a plan with a
   serial loop (licm_prog) and on a straight-line one (licm_alias_prog's
   first plan). *)
let test_pass_sequence () =
  List.iter
    (fun prog ->
      let seq =
        List.filter_map
          (fun (p, n, _) -> if p = 0 then Some n else None)
          (dumps prog)
      in
      Alcotest.(check (list string)) "stages in pipeline order"
        Tapeopt.pass_names seq)
    [ licm_prog; licm_alias_prog ];
  (* At -O0 only the raw lowering is reported. *)
  let acc = ref [] in
  ignore
    (Compile.compile ~opt_level:0
       ~tape_dump:(fun ~plan:_ ~pass t ->
         acc := (pass, Bytecode.pp_tape t) :: !acc)
       licm_prog);
  Alcotest.(check (list string)) "-O0 dumps lowering only" [ "lower" ]
    (List.map fst !acc)

(* The pinned rewrite is semantics-preserving: the kernel agrees with
   the interpreter at every opt level. *)
let test_golden_kernels_agree () =
  List.iter
    (fun (what, prog) ->
      let st = Eval.run prog in
      List.iter
        (fun lvl ->
          let outcome =
            Exec.run ~domains:2 ~engine:Exec.Bytecode ~opt_level:lvl prog
          in
          if not (Exec.agrees_with_interpreter outcome st) then
            Alcotest.failf "%s: -O%d differs from interpreter" what lvl)
        [ 0; 2 ])
    [ ("licm kernel", licm_prog) ]

(* ---------- searched candidates: -O0 = -O2 = Eval ---------- *)

(* The transformation search's candidates give the optimizer shapes no
   hand-written kernel has (tiled and chunked nests, divmod and ceiling
   index recovery, guards around recovered indexes). Every non-identity
   candidate of every kernel and of both explicit-recovery examples
   must give the same bits at -O0 and -O2 on bytecode, at 1 and 2
   domains under GSS, and agree with [Eval] of the candidate bit for
   bit: arrays always, scalars on one domain (the interpreter's final
   scalars are the sequentially last iteration's). *)
let search_corpus () =
  let example f =
    let path = Filename.concat "../examples/programs" f in
    match
      Driver.load_string (In_channel.with_open_bin path In_channel.input_all)
    with
    | Ok p -> (f, p)
    | Error m -> Alcotest.failf "%s: %s" f m
  in
  List.filter_map
    (fun n -> Option.map (fun mk -> (n, mk ())) (Kernels.by_name n))
    Kernels.all_names
  @ List.map example [ "coalesced_divmod.loop"; "coalesced_ceiling.loop" ]

let test_searched_candidates_agree () =
  let checked = ref 0 in
  List.iter
    (fun (name, prog) ->
      List.iter
        (fun r ->
          if not (Recipe.is_identity r) then
            match Recipe.apply r prog with
            | Error _ -> ()
            | Ok p ->
                incr checked;
                let what = Printf.sprintf "%s [%s]" name (Recipe.to_string r) in
                let st = Eval.run p in
                let c0 = Compile.compile ~opt_level:0 p
                and c2 = Compile.compile ~opt_level:2 p in
                List.iter
                  (fun domains ->
                    let run c =
                      Exec.run_compiled ~domains ~policy:Policy.Gss
                        ~engine:Exec.Bytecode c
                    in
                    let o0 = run c0 and o2 = run c2 in
                    let fail why =
                      Alcotest.failf "%s, %d domain(s): %s" what domains why
                    in
                    if not (Test_bytecode.same_bits o0 o2) then
                      fail "-O0 and -O2 differ";
                    let eval_arrays =
                      { o2 with Exec.arrays = fst (Eval.dump st) }
                    in
                    if not (Test_bytecode.same_bits eval_arrays o2) then
                      fail "arrays differ from Eval";
                    if
                      domains = 1
                      && not
                           (Exec.agrees_with_interpreter ~compare_scalars:true
                              o2 st)
                    then fail "scalars differ from Eval")
                  [ 1; 2 ])
        (Loopcoal_transform.Search.enumerate ~procs:2 ~budget:64 prog))
    (search_corpus ());
  if !checked < 100 then
    Alcotest.failf "only %d searched candidates applied" !checked

(* ---------- fired counters ---------- *)

(* [tapeopt.<pass>.fired] counts a pass's rewrites, so a pass that
   leaves the tape length unchanged (licm) still shows its work.
   tri_gather hoists its loop-invariant row offset out of the serial
   [k] loop. Every delta is taken around one cold compile. *)
let test_fired_counters () =
  let fired pass prog =
    let c = Registry.counter (Printf.sprintf "tapeopt.%s.fired" pass) in
    let v0 = Registry.value c in
    ignore (Compile.compile ~opt_level:2 prog);
    Registry.value c - v0
  in
  let tri = Kernels.tri_gather ~n:10 in
  let licm = fired "licm" tri in
  if licm < 1 then Alcotest.failf "licm fired %d times on tri_gather" licm;
  Alcotest.(check int) "-O0 runs no pass" 0
    (let c = Registry.counter "tapeopt.licm.fired" in
     let v0 = Registry.value c in
     ignore (Compile.compile ~opt_level:0 tri);
     Registry.value c - v0)

let suite =
  [
    Alcotest.test_case "licm golden dump" `Quick test_licm_golden;
    Alcotest.test_case "dump reports the pass pipeline" `Quick
      test_pass_sequence;
    Alcotest.test_case "licm never hoists over same-array stores" `Quick
      test_licm_alias;
    Alcotest.test_case "golden kernels agree with interpreter" `Quick
      test_golden_kernels_agree;
    Alcotest.test_case "fired counters: licm hoists" `Quick
      test_fired_counters;
    Alcotest.test_case "searched candidates: -O0 = -O2 = Eval" `Quick
      test_searched_candidates_agree;
  ]
