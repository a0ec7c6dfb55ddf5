(* Golden tests for the SSA optimizer pipeline, written against the
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

(* ---------- GVN: repeated subscript chains collapse ---------- *)

(* The clamped square subscript [min(i*i, 40)] is computed twice — once
   for the load, once for the store of the same element. Dominator-tree
   GVN must rewrite the whole second chain to one move of the first
   result ([i6 <- 0 + 1*i3]) and DCE must drop the dead intermediates. *)
let gvn_prog =
  B.program
    ~arrays:[ B.array "V" [ 40 ] ]
    [
      B.doall "i" (B.int 1) (B.int 6)
        [
          B.store "V"
            [ B.imin B.(var "i" * var "i") (B.int 40) ]
            B.(load "V" [ B.imin B.(var "i" * var "i") (B.int 40) ] + real 1.0);
        ];
    ]

let gvn_lower_golden =
  "pre:\n\
  \   0: r0 <- 0x1p+0\n\
   ops:\n\
  \   0: i1 <- i0 * i0\n\
  \   1: i2 <- 40\n\
  \   2: i3 <- min i1 i2\n\
  \   3: i4 <- i0 * i0\n\
  \   4: i5 <- 40\n\
  \   5: i6 <- min i4 i5\n\
  \   6: r1 <- load[1]\n\
  \   7: r2 <- r1 + r0\n\
  \   8: store[0] <- r2\n\
   accs:\n\
  \   0: V  inv = -1  var = 0 + 1*i3  off = inv + 1*i3\n\
  \   1: V  inv = -1  var = 0 + 1*i6  off = inv + 1*i6\n\
   streams=0 sanitize=false\n"

let gvn_golden =
  "pre:\n\
  \   0: r0 <- 0x1p+0\n\
   ops:\n\
  \   0: i1 <- i0 * i0\n\
  \   1: i2 <- 40\n\
  \   2: i3 <- min i1 i2\n\
  \   3: i6 <- 0 + 1*i3\n\
  \   4: r1 <- load[1]\n\
  \   5: r2 <- r1 + r0\n\
  \   6: store[0] <- r2\n\
   accs:\n\
  \   0: V  inv = -1  var = 0 + 1*i3  off = inv + 1*i3\n\
  \   1: V  inv = -1  var = 0 + 1*i6  off = inv + 1*i6\n\
   streams=0 sanitize=false\n"

let test_gvn_golden () =
  check_golden "gvn kernel, lower" gvn_lower_golden
    (pass_of gvn_prog ~plan:0 ~pass:"lower");
  check_golden "gvn kernel, gvn" gvn_golden
    (pass_of gvn_prog ~plan:0 ~pass:"gvn")

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
  \   0: i2 <- 8\n\
  \   1: i5 <- 9\n\
   ops:\n\
  \   0: i1 <- 1\n\
  \   1: jii gt i1 i2 -> 10\n\
  \   2: i3 <- i0 * i0\n\
  \   3: i4 <- 1 + 1*i3\n\
  \   4: i6 <- min i4 i5\n\
  \   5: r0 <- load[1]\n\
  \   6: r1 <- load[2]\n\
  \   7: r2 <- r1 + r0\n\
  \   8: store[0] <- r2\n\
  \   9: loopc i1 += 1 while <= i2 -> 6\n\
   accs:\n\
  \   0: W  inv = -9  var = 0 + 8*i0 + 1*i1  off = inv + 8*i0 + 1*i1\n\
  \   1: A  inv = -1  var = 0 + 1*i6  off = inv + 1*i6\n\
  \   2: W  inv = -9  var = 0 + 8*i0 + 1*i1  off = inv + 8*i0 + 1*i1\n\
   streams=0 sanitize=false\n"

let test_licm_golden () =
  check_golden "licm kernel, licm" licm_golden
    (pass_of licm_prog ~plan:0 ~pass:"licm")

(* ---------- dump plumbing ---------- *)

(* Every plan reports the pipeline stages in order, and the dumped
   stages are exactly [Tapeopt.pass_names] at -O2. *)
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
    [ gvn_prog; licm_prog ];
  (* At -O0 only the raw lowering is reported. *)
  let acc = ref [] in
  ignore
    (Compile.compile ~opt_level:0
       ~tape_dump:(fun ~plan:_ ~pass t ->
         acc := (pass, Bytecode.pp_tape t) :: !acc)
       gvn_prog);
  Alcotest.(check (list string)) "-O0 dumps lowering only" [ "lower" ]
    (List.map fst !acc)

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

(* The pinned rewrites are semantics-preserving: both kernels agree with
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
    [ ("gvn kernel", gvn_prog); ("licm kernel", licm_prog) ]

let suite =
  [
    Alcotest.test_case "gvn golden dump" `Quick test_gvn_golden;
    Alcotest.test_case "licm golden dump" `Quick test_licm_golden;
    Alcotest.test_case "dump reports the pass pipeline" `Quick
      test_pass_sequence;
    Alcotest.test_case "licm never hoists over same-array stores" `Quick
      test_licm_alias;
    Alcotest.test_case "golden kernels agree with interpreter" `Quick
      test_golden_kernels_agree;
  ]
