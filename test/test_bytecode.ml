(* Bytecode execution tier: strip geometry, checked-then-unsafe access,
   register promotion, and differential equivalence between raw and
   optimized tapes and against the reference interpreter.

   The strip decomposition is pinned exactly (it determines which
   iterations run without an odometer step), and every differential
   property runs all policies on 1, 2 and 4 domains so chunk boundaries
   land both inside and across inner-digit runs. *)

open Loopcoal
module B = Builder
module Exec = Runtime.Exec
module Compile = Runtime.Compile
module Bytecode = Runtime.Bytecode
module Sanitize = Runtime.Sanitize

let all_policies =
  [
    Policy.Static_block;
    Policy.Static_cyclic;
    Policy.Self_sched 1;
    Policy.Self_sched 7;
    Policy.Gss;
    Policy.Factoring;
    Policy.Trapezoid;
  ]

let domain_counts = [ 1; 2; 4 ]

(* Optimizer-level configurations: together with the reference
   interpreter these make every differential three-way — raw bytecode
   (-O0) and the full Tapeopt pipeline (-O2) must both agree with it. *)
let configs =
  [
    ("bytecode -O0", Exec.Bytecode, 0);
    ("bytecode -O2", Exec.Bytecode, 2);
  ]

let check_all_engines ~what prog =
  let st = Eval.run prog in
  List.iter
    (fun policy ->
      List.iter
        (fun domains ->
          List.iter
            (fun (cname, engine, opt_level) ->
              let outcome = Exec.run ~domains ~policy ~engine ~opt_level prog in
              if not (Exec.agrees_with_interpreter outcome st) then
                Alcotest.failf "%s: %s engine (%d domains, %s) differs" what
                  cname domains (Policy.name policy))
            configs)
        domain_counts)
    all_policies

(* ---------- strip geometry ---------- *)

let strips = Alcotest.(list (pair int int))

let test_strip_bounds () =
  (* A chunk entering mid-digit: partial strip, full strip, partial
     strip. *)
  Alcotest.check strips "mid-digit entry"
    [ (3, 3); (6, 5); (11, 2) ]
    (Bytecode.strip_bounds ~inner:5 ~t0:3 ~len:10);
  (* Aligned chunks decompose into whole digits. *)
  Alcotest.check strips "aligned" [ (5, 4); (9, 4) ]
    (Bytecode.strip_bounds ~inner:4 ~t0:5 ~len:8);
  (* Singleton inner digit: every iteration is its own strip. *)
  Alcotest.check strips "inner size 1"
    [ (4, 1); (5, 1); (6, 1) ]
    (Bytecode.strip_bounds ~inner:1 ~t0:4 ~len:3);
  (* A one-iteration chunk strictly inside a digit. *)
  Alcotest.check strips "singleton chunk" [ (7, 1) ]
    (Bytecode.strip_bounds ~inner:5 ~t0:7 ~len:1);
  (* Degenerate inputs produce no strips. *)
  Alcotest.check strips "empty chunk" [] (Bytecode.strip_bounds ~inner:5 ~t0:3 ~len:0);
  Alcotest.check strips "empty space" [] (Bytecode.strip_bounds ~inner:0 ~t0:1 ~len:4);
  (* Coverage: strips tile the chunk exactly, in order. *)
  for inner = 1 to 7 do
    for t0 = 1 to 9 do
      for len = 0 to 11 do
        let ss = Bytecode.strip_bounds ~inner ~t0 ~len in
        let covered = List.fold_left (fun acc (_, n) -> acc + n) 0 ss in
        Alcotest.(check int) "strips cover the chunk" len covered;
        ignore
          (List.fold_left
             (fun expect (t, n) ->
               Alcotest.(check int) "strips are contiguous" expect t;
               Alcotest.(check bool) "strip stays inside one digit" true
                 (n <= inner - ((t - 1) mod inner));
               t + n)
             t0 ss)
      done
    done
  done

(* ---------- unit programs pinning engine behaviour ---------- *)

(* Depth-1 space with a non-unit step: strips advance the loop variable
   by the step itself. *)
let nonunit_step_flat =
  B.program
    ~arrays:[ B.array "V" [ 8 ] ]
    [
      B.doall ~step:(B.int 3) "i" (B.int 1) (B.int 8)
        [ B.store "V" [ B.var "i" ] B.(var "i" * int 2) ];
    ]

(* Non-unit outer step over a unit inner loop: the outer digit changes
   between strips, the inner one within them. *)
let nonunit_step_outer =
  B.program
    ~arrays:[ B.array "W" [ 6; 6 ] ]
    [
      B.doall ~step:(B.int 2) "i" (B.int 1) (B.int 6)
        [
          B.doall "j" (B.int 1) (B.int 6)
            [ B.store "W" [ B.var "i"; B.var "j" ] B.((var "i" * int 10) + var "j") ];
        ];
    ]

(* Innermost digit of size one: every strip is a single iteration. *)
let singleton_inner =
  B.program
    ~arrays:[ B.array "W" [ 6; 6 ] ]
    [
      B.doall "i" (B.int 1) (B.int 6)
        [
          B.doall "j" (B.int 1) (B.int 1)
            [ B.store "W" [ B.var "i"; B.var "j" ] (B.var "i") ];
        ];
    ]

(* Empty coalesced space: no fork, no writes. *)
let empty_space =
  B.program
    ~arrays:[ B.array "V" [ 8 ] ]
    [ B.doall "i" (B.int 1) (B.int 0) [ B.store "V" [ B.int 1 ] (B.real 99.0) ] ]

(* Zero-trip serial loop inside the nest: the promoted element must not
   be loaded or stored at all (W stays at its initial value). *)
let zero_trip_serial =
  B.program
    ~arrays:[ B.array "W" [ 6; 6 ] ]
    [
      B.doall "i" (B.int 1) (B.int 6)
        [
          B.doall "j" (B.int 1) (B.int 6)
            [
              B.for_ "k" (B.int 1) (B.int 0)
                [
                  B.store "W"
                    [ B.var "i"; B.var "j" ]
                    B.(load "W" [ var "i"; var "j" ] + int 1);
                ];
            ];
        ];
    ]

(* Accumulation over a non-unit-step serial loop: the register-promotion
   path with a loop the entry guard sometimes skips. *)
let serial_accumulation =
  B.program
    ~arrays:[ B.array "W" [ 6; 6 ] ]
    [
      B.doall "i" (B.int 1) (B.int 6)
        [
          B.doall "j" (B.int 1) (B.int 6)
            [
              B.for_ ~step:(B.int 2) "k" (B.int 1) (B.int 7)
                [
                  B.store "W"
                    [ B.var "i"; B.var "j" ]
                    B.(
                      load "W" [ var "i"; var "j" ]
                      + (var "i" * var "k") + var "j");
                ];
            ];
        ];
    ]

(* Subscript through [mod]: in bounds at runtime ((i-1) mod 8 + 1 = i),
   but outside the tape's provable affine fragment — the whole-range
   test cannot pass, so every access must take the checked
   per-iteration path and still agree. *)
let mod_subscript =
  B.program
    ~arrays:[ B.array "V" [ 8 ] ]
    [
      B.doall "i" (B.int 1) (B.int 8)
        [
          B.store "V"
            [ B.(((var "i" - int 1) % int 8) + int 1) ]
            (B.var "i");
        ];
    ]

let test_unit_programs () =
  List.iter
    (fun (what, prog) -> check_all_engines ~what prog)
    [
      ("non-unit step, depth 1", nonunit_step_flat);
      ("non-unit outer step", nonunit_step_outer);
      ("singleton inner digit", singleton_inner);
      ("empty space", empty_space);
      ("zero-trip serial loop", zero_trip_serial);
      ("serial accumulation", serial_accumulation);
      ("mod subscript takes checked path", mod_subscript);
    ]

(* ---------- checked fallback on a failing range test ---------- *)

(* The affine range [1..9] exceeds the extent, so the chunk-wide test
   fails, the strips run checked, and the fault surfaces with the same
   message on both engines. *)
let test_range_fail_falls_back () =
  let oob =
    B.program
      ~arrays:[ B.array "V" [ 8 ] ]
      [
        B.doall "i" (B.int 1) (B.int 9)
          [ B.store "V" [ B.var "i" ] (B.var "i") ];
      ]
  in
  let message engine =
    match Exec.run ~domains:1 ~engine oob with
    | _ -> None
    | exception Compile.Error m -> Some m
  in
  let mb = message Exec.Bytecode in
  Alcotest.(check bool) "bytecode engine faults" true (mb <> None);
  Alcotest.(check (option string)) "same fault as the interpreter"
    (match Eval.run oob with
    | _ -> None
    | exception Eval.Runtime_error m -> Some m)
    mb;
  (* In-bounds prefix of the same shape runs unchecked and agrees. *)
  let ok =
    B.program
      ~arrays:[ B.array "V" [ 8 ] ]
      [
        B.doall "i" (B.int 1) (B.int 8)
          [ B.store "V" [ B.var "i" ] (B.var "i") ];
      ]
  in
  check_all_engines ~what:"in-bounds prefix" ok

(* ---------- sanitized tapes keep every access checked ---------- *)

let sanitizable =
  B.program
    ~arrays:[ B.array "W" [ 6; 6 ] ]
    [
      B.doall "i" (B.int 1) (B.int 6)
        [
          B.doall "j" (B.int 1) (B.int 6)
            [
              B.store "W"
                [ B.var "i"; B.var "j" ]
                B.(load "W" [ var "i"; var "j" ] + var "i" + var "j");
            ];
        ];
    ]

(* Each fork's proof, taken on the bounds the top-level tape set; the
   plans' bounds here are unit-step literals, so hi is attained. *)
let plan_flags compiled =
  let flags = ref [] in
  let env = Compile.make_env compiled in
  let fork (pl : Compile.plan) =
    let tape = pl.Compile.tape in
    let reg r = env.Compile.ints.(r) in
    let lo = Array.map reg pl.Compile.lo_regs in
    let hi = Array.map reg pl.Compile.hi_regs in
    flags :=
      ( tape,
        Bytecode.unsafe_flags
          (Bytecode.prepare tape ~ints:env.Compile.ints ~lo ~hi) )
      :: !flags
  in
  Compile.run_code compiled env ~fork;
  List.rev !flags

let test_sanitized_tape_stays_checked () =
  (* Instrumented tapes must never take the unsafe path: the shadow
     hooks live on the checked access. *)
  List.iter
    (fun (tape, flags) ->
      Alcotest.(check bool) "tape is sanitized" true (Bytecode.sanitized tape);
      Alcotest.(check bool) "every access stays checked" true
        (Array.for_all not flags))
    (plan_flags (Compile.compile ~sanitize:true sanitizable));
  (* The same in-bounds program without instrumentation does prove its
     ranges and runs unchecked — the contract has teeth. *)
  List.iter
    (fun (tape, flags) ->
      Alcotest.(check bool) "tape is not sanitized" false
        (Bytecode.sanitized tape);
      Alcotest.(check bool) "accesses run unchecked" true
        (Array.for_all Fun.id flags && Array.length flags > 0))
    (plan_flags (Compile.compile sanitizable))

let test_sanitizer_on_bytecode () =
  (* Race-free: clean on the bytecode engine, any domain count. *)
  let st = Eval.run sanitizable in
  List.iter
    (fun domains ->
      let outcome, sh =
        Exec.run_sanitized ~domains ~engine:Exec.Bytecode sanitizable
      in
      Alcotest.(check bool) "race-free program agrees" true
        (Exec.agrees_with_interpreter outcome st);
      Alcotest.(check int) "race-free program is clean" 0
        (snd (Sanitize.results sh)))
    domain_counts;
  (* Racy: every iteration writes W(1,1); with one domain the sanitizer
     sees each cross-iteration conflict deterministically, which also
     pins that instrumented tape ops report per-iteration attribution. *)
  let racy =
    B.program
      ~arrays:[ B.array "W" [ 6; 6 ] ]
      [
        B.doall "i" (B.int 1) (B.int 6)
          [ B.store "W" [ B.int 1; B.int 1 ] (B.var "i") ];
      ]
  in
  let _, sh = Exec.run_sanitized ~domains:1 ~engine:Exec.Bytecode racy in
  Alcotest.(check bool) "racy program is flagged" true
    (snd (Sanitize.results sh) > 0)

(* ---------- differential properties ---------- *)

(* Race-free DOALL nests (writes indexed exactly by the nest indices):
   interpreter, bytecode -O0 and bytecode -O2 agree bit-for-bit under
   every policy and domain count, and the sanitized bytecode run is
   clean. *)
let differential arb ~name ~count =
  QCheck.Test.make ~count ~name arb (fun prog ->
      let st = Eval.run prog in
      List.for_all
        (fun policy ->
          List.for_all
            (fun domains ->
              List.for_all
                (fun (_, engine, opt_level) ->
                  Exec.agrees_with_interpreter
                    (Exec.run ~domains ~policy ~engine ~opt_level prog)
                    st)
                configs)
            domain_counts)
        all_policies
      &&
      let outcome, sh =
        Exec.run_sanitized ~domains:2 ~engine:Exec.Bytecode prog
      in
      Exec.agrees_with_interpreter outcome st
      && snd (Sanitize.results sh) = 0)

let prop_doall_nests_agree =
  differential Test_runtime.arbitrary_doall_nest ~count:10
    ~name:"bytecode -O0 = -O2 = interpreter (random DOALL nests)"

(* Nests whose innermost statement is a serial accumulation into the
   element the nest indexes — the register-promotion fragment: invariant
   element, unconditional top-level store, optional conditional extra
   store and clamped loads, zero-trip loops included. *)
let serial_accum_gen : Ast.program QCheck.Gen.t =
  let open QCheck.Gen in
  let* ni = int_range 1 6 in
  let* nj = int_range 1 6 in
  let* klo = int_range 1 3 in
  let* ktrips = int_range 0 4 in
  let* kstep = int_range 1 3 in
  let* with_load = bool in
  let+ with_cond = bool in
  let khi = klo + (ktrips * kstep) - 1 in
  let wij = Ast.Load ("W", [ Ast.Var "i"; Ast.Var "j" ]) in
  let acc =
    let base = Ast.Bin (Ast.Add, wij, Bin (Mul, Var "i", Var "k")) in
    if with_load then
      Ast.Bin (Ast.Add, base, Load ("V", [ Gen.clamp 8 (Ast.Var "k") ]))
    else Ast.Bin (Ast.Add, base, Var "j")
  in
  let store = Ast.Assign (Elem ("W", [ Var "i"; Var "j" ]), acc) in
  let cond_store =
    Ast.If
      ( Cmp (Le, Var "k", Int 2),
        [ Ast.Assign (Elem ("W", [ Var "i"; Var "j" ]), Bin (Add, wij, Int 1)) ],
        [] )
  in
  let kloop =
    Ast.For
      {
        index = "k";
        lo = Int klo;
        hi = Int khi;
        step = Int kstep;
        par = Serial;
        body = (if with_cond then [ store; cond_store ] else [ store ]);
      }
  in
  let doall index hi body : Ast.stmt =
    For { index; lo = Int 1; hi = Int hi; step = Int 1; par = Parallel; body }
  in
  {
    Ast.arrays =
      [ { Ast.arr_name = "W"; dims = [ 6; 6 ] };
        { Ast.arr_name = "V"; dims = [ 8 ] } ];
    scalars = [];
    body =
      [
        doall "q" 8 [ Ast.Assign (Elem ("V", [ Var "q" ]), Bin (Mul, Var "q", Int 3)) ];
        doall "i" ni [ doall "j" nj [ kloop ] ];
      ];
  }

let prop_promotion_agrees =
  differential
    (QCheck.make ~print:Pretty.program_to_string serial_accum_gen)
    ~count:12
    ~name:"bytecode -O0 = -O2 = interpreter (serial accumulation nests)"

(* Branchy bodies over variable-step serial loops — the fragment the SSA
   pipeline value-numbers across exclusive if/else arms writing the
   same element, under a serial step depending on the outer index. The
   accumulator scalar is privatized per iteration by writing it before
   the k loop. *)
let branchy_varstep_gen : Ast.program QCheck.Gen.t =
  let open QCheck.Gen in
  let* ni = int_range 1 5 in
  let* nj = int_range 1 5 in
  let* klo = int_range 1 3 in
  let* khi = int_range 0 9 in
  let* step_bias = int_range 0 2 in
  let* with_else = bool in
  let+ divisor = int_range 2 3 in
  let aik =
    Ast.Bin
      (Ast.Mul, Load ("A", [ Ast.Var "k" ]), Load ("A", [ Ast.Var "i" ]))
  in
  let kloop =
    Ast.For
      {
        index = "k";
        lo = Int klo;
        hi = Int khi;
        step =
          (if step_bias = 0 then Ast.Var "i"
           else Bin (Add, Var "i", Int step_bias));
        par = Serial;
        body = [ Ast.Assign (Scalar "s", Bin (Add, Var "s", aik)) ];
      }
  in
  let wij subexpr = Ast.Assign (Elem ("W", [ Var "i"; Var "j" ]), subexpr) in
  let branch =
    Ast.If
      ( Cmp
          ( Le,
            Bin (Mod, Bin (Add, Var "i", Bin (Mul, Int 2, Var "j")), Int divisor),
            Int 0 ),
        [ wij (Bin (Mul, Var "s", Real 0.25)) ],
        if with_else then [ wij (Bin (Add, Var "s", Real 1.0)) ] else [] )
  in
  let doall index hi body : Ast.stmt =
    For { index; lo = Int 1; hi = Int hi; step = Int 1; par = Parallel; body }
  in
  {
    Ast.arrays =
      [
        { Ast.arr_name = "A"; dims = [ 9 ] };
        { Ast.arr_name = "W"; dims = [ 6; 6 ] };
      ];
    scalars = [ { Ast.sc_name = "s"; sc_kind = Kreal; sc_init = 0.0 } ];
    body =
      [
        doall "q" 9
          [ Ast.Assign (Elem ("A", [ Var "q" ]), Bin (Mul, Var "q", Int 3)) ];
        doall "i" ni
          [
            doall "j" nj
              [ Ast.Assign (Scalar "s", Real 0.0); kloop; branch ];
          ];
      ];
  }

let prop_branchy_varstep_agrees =
  differential
    (QCheck.make ~print:Pretty.program_to_string branchy_varstep_gen)
    ~count:12
    ~name:"bytecode -O0 = -O2 = interpreter (branchy variable-step nests)"

(* ---------- scalar strips: the strip back-edge ---------- *)

(* A 2-level DOALL whose inner digit has exactly [trips] iterations, so
   every strip a whole-row schedule executes has length [trips] and the
   scalar runner takes its strip back-edge [trips - 1] times per strip.
   The serial k-loop gives the optimizer hoisting and promotion. *)
let trip_prog ~trips =
  let wij = Ast.Load ("W", [ Ast.Var "i"; Ast.Var "j" ]) in
  let store =
    Ast.Assign
      ( Elem ("W", [ Var "i"; Var "j" ]),
        Bin (Add, wij, Bin (Mul, Var "i", Var "k")) )
  in
  let kloop =
    Ast.For
      { index = "k"; lo = Int 1; hi = Int 3; step = Int 1; par = Serial;
        body = [ store ] }
  in
  let doall index hi body : Ast.stmt =
    For { index; lo = Int 1; hi = Int hi; step = Int 1; par = Parallel; body }
  in
  {
    Ast.arrays = [ { Ast.arr_name = "W"; dims = [ 7; max 8 trips ] } ];
    scalars = [];
    body = [ doall "i" 6 [ doall "j" trips [ kloop ] ] ];
  }

(* Branchy variant with the same strip geometry: the store is picked by
   a data-dependent branch (exclusive arms writing the same element)
   and the k loop's step is the outer index (known only at run
   time). *)
let trip_prog_branchy ~trips =
  let wij = Ast.Load ("W", [ Ast.Var "i"; Ast.Var "j" ]) in
  let store e = Ast.Assign (Elem ("W", [ Var "i"; Var "j" ]), e) in
  let branch =
    Ast.If
      ( Cmp (Le, Bin (Mod, Bin (Add, Var "j", Var "k"), Int 2), Int 0),
        [ store (Bin (Add, wij, Bin (Mul, Var "i", Var "k"))) ],
        [ store (Bin (Add, wij, Int 1)) ] )
  in
  let kloop =
    Ast.For
      { index = "k"; lo = Int 1; hi = Int 5; step = Var "i"; par = Serial;
        body = [ branch ] }
  in
  let doall index hi body : Ast.stmt =
    For { index; lo = Int 1; hi = Int hi; step = Int 1; par = Parallel; body }
  in
  {
    Ast.arrays = [ { Ast.arr_name = "W"; dims = [ 7; max 8 trips ] } ];
    scalars = [];
    body = [ doall "i" 6 [ doall "j" trips [ kloop ] ] ];
  }

(* A carried float sum next to a strip-indexed access: every iteration
   reads and writes [s]. Written [s = s + W[i, j]] or, with [~right],
   [s = W[i, j] + s], [s] is a fold register, so the lane path folds it
   in iteration order; sanitized runs keep the scalar runner, [s]
   carried across its back-edge. The addends are quarters, so every
   partial sum is exact and the domain-order reduction merge equals
   [Eval]'s sequential sum bit for bit at any domain count. *)
let trip_prog_sum ?(right = false) ~trips () =
  let wij = Ast.Load ("W", [ Ast.Var "i"; Ast.Var "j" ]) in
  let quarter =
    Ast.Bin
      ( Mul,
        Real 0.25,
        Bin (Mod, Bin (Add, Var "i", Bin (Mul, Int 2, Var "j")), Int 7) )
  in
  let doall index hi body : Ast.stmt =
    For { index; lo = Int 1; hi = Int hi; step = Int 1; par = Parallel; body }
  in
  let sum =
    if right then Ast.Bin (Add, wij, Var "s") else Bin (Add, Var "s", wij)
  in
  {
    Ast.arrays = [ { Ast.arr_name = "W"; dims = [ 6; max 8 trips ] } ];
    scalars = [ { Ast.sc_name = "s"; sc_kind = Ast.Kreal; sc_init = 0.0 } ];
    body =
      [
        doall "i" 6
          [
            doall "j" trips
              [
                Ast.Assign (Elem ("W", [ Var "i"; Var "j" ]), quarter);
                Ast.Assign (Scalar "s", sum);
              ];
          ];
      ];
  }

(* [X[1]] read and written by every iteration: under one domain the
   sanitizer flags each iteration [t > 1] against [t - 1], a read and
   then a write, so the report list pins every iteration number the
   scalar runner hands the shadow hooks. *)
let trip_prog_racy ~trips =
  let doall index hi body : Ast.stmt =
    For { index; lo = Int 1; hi = Int hi; step = Int 1; par = Parallel; body }
  in
  let x1 = Ast.Load ("X", [ Ast.Int 1 ]) in
  {
    Ast.arrays =
      [
        { Ast.arr_name = "X"; dims = [ 1 ] };
        { Ast.arr_name = "W"; dims = [ 6; max 8 trips ] };
      ];
    scalars = [];
    body =
      [
        doall "i" 6
          [
            doall "j" trips
              [
                Ast.Assign
                  ( Elem ("X", [ Int 1 ]),
                    Bin (Add, x1, Ast.Load ("W", [ Var "i"; Var "j" ])) );
              ];
          ];
      ];
  }

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let with_domains domains f =
  if domains = 1 then f None
  else Runtime.Pool.with_pool domains (fun p -> f (Some p))

(* Everything observable must be identical between -O0 and -O2 and
   agree with [Eval] bit for bit: arrays and scalars, the traced chunk
   decomposition and the scheduler metrics derived from it (timestamps
   are the only fields allowed to differ), and the sanitizer's
   iteration numbers. Strips run whole rows (static block) and cut
   short by chunk:3 and GSS at 1-3 domains, at every strip length 1-9
   and 255-259. *)
let strip_trips = List.init 9 (fun k -> k + 1) @ [ 255; 256; 257; 258; 259 ]

let strip_schedules =
  List.map (fun d -> (Policy.Static_block, d)) [ 1; 2 ]
  @ List.concat_map
      (fun d -> [ (Policy.Self_sched 3, d); (Policy.Gss, d) ])
      [ 1; 2; 3 ]

let test_strip_backedge_identical () =
  List.iter
    (fun (what, build) ->
      List.iter
        (fun trips ->
          let prog : Ast.program = build ~trips in
          let st = Eval.run prog in
          let c0 = Compile.compile ~opt_level:0 prog in
          let c2 = Compile.compile ~opt_level:2 prog in
          List.iter
            (fun (policy, domains) ->
              let where =
                Printf.sprintf "%s trips=%d %s domains=%d" what trips
                  (Policy.name policy) domains
              in
              let run c =
                with_domains domains (fun pool ->
                    let tracer = Trace.create ~p:domains () in
                    let outcome =
                      Exec.run_compiled ?pool ~domains ~policy
                        ~engine:Exec.Bytecode ~trace:tracer c
                    in
                    (outcome, Trace.snapshot tracer))
              in
              let o0, t0 = run c0 in
              let o2, t2 = run c2 in
              if not (Exec.agrees_with_interpreter ~compare_scalars:true o0 st)
              then
                Alcotest.failf "%s: -O0 differs from Eval" where;
              if not (Exec.agrees_with_interpreter ~compare_scalars:true o2 st)
              then
                Alcotest.failf "%s: -O2 differs from Eval" where;
              (* Chunks are sorted by timestamp in the snapshot; re-sort
                 by coalesced position so only schedule-invariant fields
                 are compared. Dynamic schedules may hand a chunk to any
                 worker, so workers are compared only under static
                 block. *)
              let static = policy = Policy.Static_block in
              let shape (tr : Trace.t) =
                ( Array.to_list tr.Trace.chunks
                  |> List.map (fun (c : Trace.chunk) ->
                         ( c.Trace.epoch,
                           (if static then c.Trace.worker else 0),
                           c.Trace.start,
                           c.Trace.len ))
                  |> List.sort compare,
                  Array.to_list tr.Trace.forks
                  |> List.map (fun (f : Trace.fork) ->
                         ( f.Trace.f_epoch,
                           Policy.name f.Trace.f_policy,
                           f.Trace.f_n,
                           f.Trace.f_p )) )
              in
              if shape t0 <> shape t2 then
                Alcotest.failf "%s: trace shape differs" where;
              let counts (tr : Trace.t) =
                let m = Metrics.of_trace tr in
                ( m.Metrics.total_chunks,
                  m.Metrics.total_iters,
                  List.map
                    (fun (f : Metrics.fork_metrics) ->
                      ( f.Metrics.n,
                        f.Metrics.p,
                        f.Metrics.chunks_dispatched,
                        f.Metrics.iterations ))
                    m.Metrics.forks )
              in
              if static && counts t0 <> counts t2 then
                Alcotest.failf "%s: metrics differ" where;
              (* Race-free: the sanitized tape reports nothing and still
                 matches [Eval]. *)
              let o, sh =
                with_domains domains (fun pool ->
                    Exec.run_sanitized ?pool ~domains ~policy
                      ~engine:Exec.Bytecode prog)
              in
              if not (Exec.agrees_with_interpreter ~compare_scalars:true o st)
              then
                Alcotest.failf "%s: sanitized run differs from Eval" where;
              if snd (Sanitize.results sh) <> 0 then
                Alcotest.failf "%s: sanitizer flags a race-free program" where)
            strip_schedules)
        strip_trips)
    [
      ("plain", trip_prog);
      ("branchy variable-step", trip_prog_branchy);
      ("carried sum", fun ~trips -> trip_prog_sum ~trips ());
      ( "carried sum, accumulator on the right",
        fun ~trips -> trip_prog_sum ~right:true ~trips () );
    ];
  (* Racy: one domain visits iterations 1..n in order, whatever the
     chunking, so the reports are exactly (t-1, t) read then write. *)
  List.iter
    (fun trips ->
      let n = 6 * trips in
      let want =
        List.concat_map
          (fun t ->
            [ (Sanitize.Rw, t - 1, t); (Sanitize.Ww, t - 1, t) ])
          (List.init (n - 1) (fun k -> k + 2))
      in
      List.iter
        (fun policy ->
          let _, sh =
            Exec.run_sanitized ~domains:1 ~policy ~engine:Exec.Bytecode
              ~limit:(4 * n) (trip_prog_racy ~trips)
          in
          let reports, total = Sanitize.results sh in
          Alcotest.(check int)
            (Printf.sprintf "racy trips=%d %s: report count" trips
               (Policy.name policy))
            (List.length want) total;
          if
            List.map
              (fun (r : Sanitize.report) ->
                Sanitize.(r.rep_kind, r.rep_iter_a, r.rep_iter_b))
              reports
            <> want
          then
            Alcotest.failf "racy trips=%d %s: iteration numbers differ" trips
              (Policy.name policy))
        [ Policy.Static_block; Policy.Self_sched 3; Policy.Gss ])
    strip_trips;
  (* The carried sum runs on lanes, [s] a fold register, with the
     accumulator on either side. *)
  List.iter
    (fun (what, right, want) ->
      Alcotest.(check (list string))
        what [ want ]
        (List.map
           (fun (pl : Compile.plan) ->
             let jslot = pl.Compile.index_slots.(pl.Compile.depth - 1) in
             match
               Bytecode.lane_plan ~jslot
                 ~lits:(Bytecode.const_regs ~jslot pl.Compile.tape)
                 pl.Compile.tape
             with
             | Ok lp ->
                 Printf.sprintf "%d fold" (Bytecode.IntSet.cardinal lp.lp_folds)
             | Error rule -> rule)
           (Compile.plans
              (Compile.compile ~opt_level:2 (trip_prog_sum ~right ~trips:9 ())))))
    [
      ("carried sum is a lane fold", false, "1 fold");
      ("right-hand carried sum is a lane fold", true, "1 fold");
    ]

(* The sanitizer must see the exact same accesses at every level — the
   optimizer leaves instrumented tapes untouched, so reports and summary
   are identical, on race-free and racy programs alike. *)
let test_sanitizer_identical_across_opt () =
  let racy =
    B.program
      ~arrays:[ B.array "W" [ 6; 6 ] ]
      [
        B.doall "i" (B.int 1) (B.int 6)
          [ B.store "W" [ B.int 1; B.int 1 ] (B.var "i") ];
      ]
  in
  List.iter
    (fun prog ->
      let observe lvl =
        let _, sh =
          Exec.run_sanitized ~domains:1 ~engine:Exec.Bytecode ~opt_level:lvl
            prog
        in
        (Sanitize.results sh, Sanitize.summary_to_string sh)
      in
      if observe 0 <> observe 2 then
        Alcotest.fail "sanitizer output differs between -O0 and -O2")
    [
      sanitizable;
      racy;
      (* branchy body and variable-step serial loop: the shapes the SSA
         pipeline now optimizes must still leave sanitized tapes alone *)
      Kernels.cond_stencil ~n:12;
      Kernels.tri_gather ~n:10;
      trip_prog_branchy ~trips:3;
    ]

(* ---------- lane path ---------- *)

(* A matmul-shaped [doall i / doall j / do k] nest around [body], with
   [nj] columns: every strip has at most [nj] iterations, so extents 1-9
   give strips shorter than the native tier's jammed group of four and
   every remainder, and extents around [Bytecode.lane_width] strips that
   fill, cross and just miss one lane pass. [t] is written in the body
   and read after the nest, so the written-back registers must be the
   sequentially last iteration's. *)
let jam_nest ?(decls = "") ?(nk = 3) ~nj body =
  let kd = max 1 nk in
  Printf.sprintf
    "program\n\
    \  real A[3, %d]\n\
    \  real B[%d, %d]\n\
    \  real C[3, %d]\n\
    \  real T[3]\n\
    \  real E[2]\n\
    \  real t = 0.0\n\
     %sbegin\n\
    \  doall i = 1, 3\n\
    \    doall k = 1, %d\n\
    \      A[i, k] = i + 2 * k + 0.5\n\
    \    end\n\
    \  end\n\
    \  doall k = 1, %d\n\
    \    doall j = 1, %d\n\
    \      B[k, j] = k - j * 0.75\n\
    \    end\n\
    \  end\n\
    \  doall i = 1, 3\n\
    \    doall j = 1, %d\n\
     %s\
    \    end\n\
    \  end\n\
    \  E[1] = t\n\
     end\n"
    kd kd nj nj decls kd kd nj nj body

let jam_matmul ~nk =
  Printf.sprintf
    "      t = j * 0.25 + i\n\
    \      C[i, j] = t\n\
    \      do k = 1, %d\n\
    \        C[i, j] = C[i, j] + A[i, k] * B[k, j] * t\n\
    \      end\n"
    nk

(* jammed shapes with more control: a bound and a branch on the outer
   index, and a serial loop nested in another *)
let jam_positives =
  [
    ( "outer-index bound and branch",
      "      C[i, j] = 0.0\n\
      \      if i > 1 then\n\
      \        do k = 1, i + 1, 2\n\
      \          C[i, j] = C[i, j] + A[i, k] * B[k, j]\n\
      \        end\n\
      \      end\n" );
    ( "nested serial loops",
      "      C[i, j] = 0.0\n\
      \      do k = 1, 3\n\
      \        do l = 1, 2\n\
      \          C[i, j] = C[i, j] * 0.5 + A[i, k] * B[k, j] + l\n\
      \        end\n\
      \      end\n" );
  ]

(* shapes that must run in order, with the lane rule each fails first: a
   strip-carried scalar (an int sum: fold registers are float), a
   divisor that is not a literal, a store every iteration would
   make to one element, and a data-dependent branch *)
let jam_negatives =
  [
    ( "strip-carried scalar",
      "  int n = 0\n",
      "      C[i, j] = 0.0\n\
      \      do k = 1, 3\n\
      \        C[i, j] = C[i, j] + A[i, k] * B[k, j]\n\
      \      end\n\
      \      n = n + j\n",
      "carried" );
    ( "non-literal divisor",
      "  int d = 2\n",
      "      C[i, j] = 0.0\n\
      \      do k = 1, 3\n\
      \        C[i, j] = C[i, j] + A[i, k] * ((j + k) / d)\n\
      \      end\n",
      "may_raise" );
    ( "store at a strip-invariant element",
      "",
      "      C[i, j] = 0.0\n\
      \      do k = 1, 3\n\
      \        C[i, j] = C[i, j] + A[i, k] * B[k, j]\n\
      \      end\n\
      \      T[i] = A[i, 1] * 2.0\n",
      "stored_offset" );
    ( "data-dependent if",
      "",
      "      C[i, j] = 0.0\n\
      \      do k = 1, 3\n\
      \        if B[k, j] > 0.0 then\n\
      \          C[i, j] = C[i, j] + A[i, k]\n\
      \        end\n\
      \      end\n",
      "float_compare" );
  ]


(* A strip sum after a serial loop, the accumulator on either side:
   [t] is a fold register, so lanes take the body, but the native tier
   must not jam it (its four copies would fold out of order). *)
let jam_folds =
  List.map
    (fun (what, sum) ->
      ( what,
        "      C[i, j] = 0.0\n\
        \      do k = 1, 3\n\
        \        C[i, j] = C[i, j] + A[i, k] * B[k, j]\n\
        \      end\n\
        \      t = " ^ sum ^ "\n" ))
    [
      ("strip sum after a serial loop", "t + C[i, j]");
      ("commuted strip sum after a serial loop", "C[i, j] + t");
    ]

let parse what text =
  match Driver.load_string text with
  | Ok p -> p
  | Error m -> Alcotest.failf "%s: parse error: %s" what m

let lane_forks = Registry.counter "exec.lane_forks"

let fbits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

(* Every bit of every array. *)
let same_array_bits (a : Exec.outcome) (b : Exec.outcome) =
  List.equal
    (fun (n1, d1) (n2, d2) ->
      String.equal n1 n2
      && Array.length d1 = Array.length d2
      && Array.for_all2 fbits d1 d2)
    a.Exec.arrays b.Exec.arrays

(* The first array element whose bits differ, for a failure message. *)
let array_diff (a : Exec.outcome) (b : Exec.outcome) =
  List.fold_left2
    (fun acc (n1, d1) (_, d2) ->
      match acc with
      | Some _ -> acc
      | None ->
          Seq.find_map
            (fun k ->
              if fbits d1.(k) d2.(k) then None
              else Some (Printf.sprintf "%s[%d]: %h vs %h" n1 k d1.(k) d2.(k)))
            (Seq.init (min (Array.length d1) (Array.length d2)) Fun.id))
    None a.Exec.arrays b.Exec.arrays
  |> Option.value ~default:"lengths"

(* Every bit of every array and scalar. *)
let same_bits (a : Exec.outcome) (b : Exec.outcome) =
  same_array_bits a b
  && List.equal
       (fun (n1, v1) (n2, v2) ->
         String.equal n1 n2
         &&
         match (v1, v2) with
         | Eval.Vreal x, Eval.Vreal y -> fbits x y
         | _ -> v1 = v2)
       a.Exec.scalars b.Exec.scalars

let lane_policies = [ Policy.Static_block; Policy.Gss; Policy.Self_sched 3 ]

(* The lane path against the scalar interpreter (a profiler attached
   keeps every fork scalar) and the reference interpreter, at -O0 and
   -O2 on 1-3 domains: arrays and scalars bit for bit, the
   interpreter's scalars on one domain, where the last iteration is
   the sequentially last one. [lanes] says whether some fork must take
   the lane path. Returns a failure message. *)
let lane_mismatch ?(lanes = false) ?(domains = [ 1; 2; 3 ])
    ?(policies = lane_policies) prog =
  let st = Eval.run prog in
  let fail = ref None in
  List.iter
    (fun lvl ->
      let t = Compile.compile ~opt_level:lvl prog in
      List.iter
        (fun policy ->
          List.iter
            (fun d ->
              let where =
                Printf.sprintf "-O%d, %d domains, %s" lvl d (Policy.name policy)
              in
              let scalar =
                Exec.run_compiled ~domains:d ~policy
                  ~profile:(Runtime.Profile.create ()) t
              in
              let before = Registry.value lane_forks in
              let lane = Exec.run_compiled ~domains:d ~policy t in
              let took = Registry.value lane_forks > before in
              let why =
                if lanes && not took then Some "no fork took the lane path"
                else if not (same_bits lane scalar) then
                  Some
                    ("lane path differs from the scalar interpreter: "
                    ^ array_diff lane scalar)
                else if
                  not
                    (Exec.agrees_with_interpreter ~compare_scalars:(d = 1) lane
                       st)
                then Some "differs from the reference interpreter"
                else None
              in
              match (!fail, why) with
              | None, Some w -> fail := Some (Printf.sprintf "%s (%s)" w where)
              | _ -> ())
            domains)
        policies)
    [ 0; 2 ];
  !fail

let check_lanes ?lanes ?domains ?policies ~what prog =
  match lane_mismatch ?lanes ?domains ?policies prog with
  | Some m -> Alcotest.failf "%s: %s" what m
  | None -> ()

(* The reason {!Bytecode.lane_plan} gives for each plan of [prog] at
   -O2, in plan order. *)
let lane_reasons ?sanitize prog =
  List.map
    (fun (pl : Compile.plan) ->
      let jslot = pl.Compile.index_slots.(pl.Compile.depth - 1) in
      match
        Bytecode.lanes ~jslot ~scalar_reals:pl.Compile.scalar_reals
          ~scalar_ints:pl.Compile.scalar_ints pl.Compile.tape
      with
      | Ok _ -> "ok"
      | Error why -> why)
    (Compile.plans (Compile.compile ?sanitize ~opt_level:2 prog))

(* A stored array pinned to its iteration by one subscript, its other
   subscript a serial loop's counter (the search's fused matmul
   initialisation); and one whose only strip-index subscript also reads
   a serial counter, so iterations overlap. *)
let pinned_prog =
  "program\n\
  \  real A[300, 5]\n\
  \  real B[300, 4]\n\
   begin\n\
  \  doall i = 1, 300\n\
  \    doall k = 1, 5\n\
  \      A[i, k] = i + 2 * k\n\
  \    end\n\
  \    doall j = 1, 4\n\
  \      B[i, j] = A[i, j + 1] - j\n\
  \    end\n\
  \  end\n\
   end\n"

let overlapping_prog =
  "program\n\
  \  real V[303]\n\
   begin\n\
  \  doall i = 1, 300\n\
  \    do k = 1, 3\n\
  \      V[i + k] = V[i + k] + i * k\n\
  \    end\n\
  \  end\n\
   end\n"

let test_lane_reasons () =
  Alcotest.(check (list string))
    "pinned rows" [ "ok" ]
    (lane_reasons (parse "pinned" pinned_prog));
  Alcotest.(check (list string))
    "overlapping rows"
    [ "stored_offset" ]
    (lane_reasons (parse "overlapping" overlapping_prog));
  List.iter
    (fun (what, decls, body, why) ->
      Alcotest.(check (list string))
        what [ "ok"; "ok"; why ]
        (lane_reasons (parse what (jam_nest ~decls ~nj:7 body))))
    jam_negatives;
  List.iter
    (fun (what, body) ->
      Alcotest.(check (list string))
        what [ "ok"; "ok"; "ok" ]
        (lane_reasons (parse what (jam_nest ~nk:4 ~nj:7 body))))
    (jam_positives @ jam_folds);
  Alcotest.(check (list string))
    "sanitized tape" [ "sanitized" ]
    (lane_reasons ~sanitize:true sanitizable)

(* Strip lengths 1 .. lane_width + 1, one strip per row on one domain,
   then extents that cross a lane pass under chunked schedules. *)
let test_lane_strip_lengths () =
  let w = Bytecode.lane_width in
  for nj = 1 to w + 1 do
    check_lanes ~lanes:(nj > 1) ~domains:[ 1 ]
      ~policies:[ Policy.Static_block ]
      ~what:(Printf.sprintf "nj=%d" nj)
      (parse "lanes" (jam_nest ~nj (jam_matmul ~nk:2)))
  done;
  List.iter
    (fun nj ->
      check_lanes ~lanes:true
        ~what:(Printf.sprintf "nj=%d" nj)
        (parse "lanes" (jam_nest ~nj (jam_matmul ~nk:3))))
    [ w - 1; w + 3; (2 * w) + 5 ];
  check_lanes ~lanes:true ~what:"zero-trip k loop"
    (parse "lanes" (jam_nest ~nk:0 ~nj:6 (jam_matmul ~nk:0)))

(* The shapes the native tier jams, the ones it must not, the kernel
   corpus and the example programs. *)
let test_lane_corpus () =
  let dir = "../examples/programs" in
  List.iter
    (fun (what, body) ->
      check_lanes ~lanes:true ~what (parse what (jam_nest ~nk:4 ~nj:300 body)))
    (jam_positives @ jam_folds);
  List.iter
    (fun (what, decls, body, _) ->
      check_lanes ~what (parse what (jam_nest ~decls ~nj:7 body)))
    jam_negatives;
  List.iter
    (fun name ->
      match Kernels.by_name name with
      | Some prog -> check_lanes ~what:name (prog ())
      | None -> ())
    Kernels.all_names;
  check_lanes ~lanes:true ~what:"relax" (Kernels.relax ~n:600 ~steps:3);
  check_lanes ~lanes:true ~what:"pinned rows" (parse "pinned" pinned_prog);
  check_lanes ~domains:[ 1 ] ~what:"overlapping rows"
    (parse "overlapping" overlapping_prog);
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".loop" then
        let text =
          In_channel.with_open_bin (Filename.concat dir f)
            In_channel.input_all
        in
        check_lanes ~what:f (parse f text))
    (Sys.readdir dir)

(* Gathers: a load through a varying register other than the strip
   index runs lane by lane; the same shape with an unprovable subscript
   fails the fork's proof and runs scalar. *)
let gather_prog ~sub =
  Printf.sprintf
    "program\n\
    \  real A[40]\n\
    \  real B[300]\n\
     begin\n\
    \  doall i = 1, 40\n\
    \    A[i] = i * 0.5\n\
    \  end\n\
    \  doall i = 1, 300\n\
    \    B[i] = A[%s] + A[min(i, 7)] * i\n\
    \  end\n\
     end\n"
    sub

let test_lane_fallbacks () =
  check_lanes ~lanes:true ~what:"gather"
    (parse "gather" (gather_prog ~sub:"min(i, 40)"));
  let unproved = parse "unproved" (gather_prog ~sub:"(i - 1) / 8 + 1") in
  check_lanes ~what:"unproved gather" unproved;
  let t = Compile.compile unproved in
  let before = Registry.value lane_forks in
  ignore (Exec.run_compiled ~domains:2 ~policy:Policy.Gss t : Exec.outcome);
  Alcotest.(check int) "an unproved fork runs scalar" 1
    (Registry.value lane_forks - before);
  (* profiled and sanitized runs stay scalar: the same dispatch counts
     and shadow reports as without lanes *)
  let mm = Kernels.matmul ~ra:5 ~ca:4 ~cb:40 in
  let profiled () =
    let pc = Runtime.Profile.create () in
    ignore
      (Exec.run_compiled ~domains:2 ~policy:Policy.Gss ~profile:pc
         (Compile.compile mm)
        : Exec.outcome);
    let sm = Runtime.Profile.summarize pc in
    (sm.Runtime.Profile.sm_dispatches, sm.Runtime.Profile.sm_iters)
  in
  let before = Registry.value lane_forks in
  let d1 = profiled () in
  Alcotest.(check int) "profiled forks run scalar" before
    (Registry.value lane_forks);
  Alcotest.(check (pair int int)) "profiled dispatches repeat" d1 (profiled ());
  let racy = parse "racy" (jam_nest ~nj:20 "      T[i] = j * 1.0\n") in
  let observe () =
    let _, sh = Exec.run_sanitized ~domains:1 racy in
    (Sanitize.results sh, Sanitize.summary_to_string sh)
  in
  let before = Registry.value lane_forks in
  let r = observe () in
  Alcotest.(check int) "sanitized forks run scalar" before
    (Registry.value lane_forks);
  Alcotest.(check bool) "racy program is flagged" true (snd (fst r) > 0);
  Alcotest.(check bool) "shadow reports repeat" true (r = observe ())

(* Lane operands of every step class over [n]-long strips: a negative
   step ([B[i, n + 1 - j]]), a zero step ([A[i, 1]]), unit steps, a
   large step ([T[j, i]]), a strided destination ([C[j, i]]), with
   [~gather] a gather ([A[i, min(j, 7)]]), a multi-register [Iaff]
   ([j + 2 * (j % 3)]), an int min/mod/ceildiv chain and a strip of
   step 3. examples/programs/strided_lanes.loop is this program at
   n = 257 without the gather: a gather's subscript is not affine, and
   the strict race check over the examples rejects the warning. *)
let strided_lanes_prog ?(gather = false) n =
  Printf.sprintf
    "program\n\
    \  real A[4, %d]\n\
    \  real T[%d, 6]\n\
    \  real B[4, %d]\n\
    \  real C[%d, 4]\n\
    \  real D[4, %d]\n\
    \  real E[4, %d]\n\
     begin\n\
    \  doall i = 1, 4\n\
    \    doall j = 1, %d\n\
    \      A[i, j] = i * 0.25 - j * 0.125\n\
    \    end\n\
    \  end\n\
    \  doall j = 1, %d\n\
    \    doall i = 1, 6\n\
    \      T[j, i] = j * 0.0625 + i\n\
    \    end\n\
    \  end\n\
    \  doall i = 1, 4\n\
    \    doall j = 1, %d\n\
    \      B[i, j] = T[j, i] * 0.5 + A[i, 1] - j\n\
    \    end\n\
    \  end\n\
    \  doall i = 1, 4\n\
    \    doall j = 1, %d\n\
    \      C[j, i] = B[i, %d + 1 - j] - A[i, j]\n\
    \      D[i, j] = %s(j + 2 * (j %% 3)) * 0.5 + ceildiv(min(j, %d - 3) %% 7 + 1, 2)\n\
    \    end\n\
    \  end\n\
    \  doall i = 1, 4\n\
    \    doall j = 1, %d, 3\n\
    \      E[i, j] = -(A[i, j] * B[i, j])\n\
    \    end\n\
    \  end\n\
     end\n"
    n n n n n n n n n n n
    (if gather then "A[i, min(j, 7)] + " else "")
    n n

(* Extents below, at and across [lane_width]: every plan takes the lane
   path, bit-identical to scalar bytecode and Eval on 1-3 domains under
   static, GSS and chunk:3. *)
let test_lane_strides () =
  let w = Bytecode.lane_width in
  let example =
    In_channel.with_open_bin "../examples/programs/strided_lanes.loop"
      In_channel.input_all
  in
  Alcotest.(check string) "the example is the program at n = 257"
    (strided_lanes_prog 257) example;
  List.iter
    (fun n ->
      List.iter
        (fun gather ->
          let what = Printf.sprintf "strided lanes, n=%d, gather=%b" n gather in
          let prog = parse what (strided_lanes_prog ~gather n) in
          Alcotest.(check (list string))
            what [ "ok"; "ok"; "ok"; "ok"; "ok" ] (lane_reasons prog);
          check_lanes ~lanes:true ~what prog)
        [ true; false ])
    [ w - 1; w; w + 1; (2 * w) + 5 ]

(* ---------- range proof through a scalar assigned once ---------- *)

(* An int scalar the body assigns exactly once, by a top-level
   statement, takes its right-hand side's range at every read lowered
   after the assignment: [B[k]] with [k = 21 - j] is proved, so both
   forks run on lanes. examples/programs/scalar_gather.loop is this
   program with the default body. *)
let scalar_gather_prog ?(body = "    k = 21 - j\n    A[j] = B[k]\n") () =
  Printf.sprintf
    "program\n\
    \  real A[20]\n\
    \  real B[20]\n\
    \  int k = 1\n\
     begin\n\
    \  doall j = 1, 20\n\
    \    B[j] = j * 0.5\n\
    \  end\n\
    \  doall j = 1, 20\n\
     %s\
    \  end\n\
     end\n"
    body

(* Forks of [prog] that take the lane path on one domain under GSS. *)
let lane_fork_count prog =
  let t = Compile.compile prog in
  let before = Registry.value lane_forks in
  ignore (Exec.run_compiled ~domains:1 ~policy:Policy.Gss t : Exec.outcome);
  Registry.value lane_forks - before

let test_scalar_range () =
  let example =
    In_channel.with_open_bin "../examples/programs/scalar_gather.loop"
      In_channel.input_all
  in
  Alcotest.(check string) "the example is the program" (scalar_gather_prog ())
    example;
  let proved = parse "scalar gather" example in
  check_lanes ~lanes:true ~what:"scalar gather" proved;
  Alcotest.(check int) "both forks run on lanes" 2 (lane_fork_count proved);
  (* [k] reaches 21: the proof fails and every engine faults with the
     interpreter's bounds message. *)
  let oob =
    parse "oob" (scalar_gather_prog ~body:"    k = 22 - j\n    A[j] = B[k]\n" ())
  in
  let want =
    match Eval.run oob with
    | _ -> Alcotest.fail "oob: interpreter ran without an error"
    | exception Eval.Runtime_error m -> m
  in
  Alcotest.(check string) "interpreter error"
    "array B: subscript 21 out of bounds 1..20" want;
  List.iter
    (fun (ename, engine) ->
      List.iter
        (fun opt_level ->
          let what = Printf.sprintf "oob: %s -O%d" ename opt_level in
          match Exec.run ~domains:1 ~engine ~opt_level oob with
          | _ -> Alcotest.failf "%s ran without an error" what
          | exception Compile.Error m -> Alcotest.(check string) what want m)
        [ 0; 2 ])
    [ ("bytecode", Exec.Bytecode); ("native", Exec.Native) ];
  (* Unproved: a read before the assignment (it sees the previous
     iteration's [k], a value in 1..20 that [* 0.0] cancels), two
     assignments, and an assignment under an [if]. The second fork runs
     scalar and still agrees with Eval. *)
  List.iter
    (fun (what, body) ->
      let prog = parse what (scalar_gather_prog ~body ()) in
      check_lanes ~what prog;
      Alcotest.(check int) (what ^ ": one fork on lanes") 1
        (lane_fork_count prog))
    [
      ("read before assignment", "    A[j] = B[k] * 0.0 + j\n    k = 21 - j\n");
      ( "assigned twice",
        "    k = 21 - j\n    A[j] = B[k]\n    k = j\n    A[j] = A[j] + B[k]\n" );
      ( "assigned under if",
        "    if j > 0 then\n      k = 21 - j\n    end\n    A[j] = B[k]\n" );
    ]

(* ---------- lane folds ---------- *)

(* Fold shapes, one [doall i = 1, 3 / doall j = 1, nj] nest each, so
   every strip has [nj] iterations: name, the fold scalars with their
   initial values, and the body. -O2 fuses the sum, difference and
   product into [Fldadd]/[Fldsub]/[Fldmul], the dot product and
   difference into [Fmac2]/[Fmsb2], the scaled ones into
   [Fldmac]/[Fldmsb] and the index ones into [Fmac]/[Fmsb]. *)
let fold_shapes =
  [
    ("sum", [ ("s", "0.0") ], "s = s + A[i, j]");
    ("difference", [ ("s", "0.0") ], "s = s - A[i, j]");
    ("product", [ ("s", "1.0") ], "s = s * B[i, j]");
    ("quotient", [ ("s", "1.0") ], "s = s / B[i, j]");
    ("dot product", [ ("s", "0.0") ], "s = s + A[i, j] * B[i, j]");
    ("dot difference", [ ("s", "0.0") ], "s = s - A[i, j] * B[i, j]");
    ("scaled sum", [ ("s", "0.0") ], "s = s + (j * 0.5) * A[i, j]");
    ("scaled difference", [ ("s", "0.0") ], "s = s - (j * 0.5) * A[i, j]");
    ("index products", [ ("s", "0.0") ], "s = s + (i * 0.5) * (j * 0.25)");
    ( "index differences",
      [ ("s", "0.0") ],
      "s = s - (i * 0.5) * (j * 0.25)" );
    ("commuted sum", [ ("s", "0.0") ], "s = A[i, j] + s");
    ("commuted difference", [ ("s", "0.0") ], "s = A[i, j] - s");
    ("commuted product", [ ("s", "1.0") ], "s = B[i, j] * s");
    ("min", [ ("s", "100.0") ], "s = min(s, A[i, j])");
    ("max", [ ("s", "-100.0") ], "s = max(s, A[i, j])");
    ( "two accumulators",
      [ ("s", "0.0"); ("u", "1.0") ],
      "s = s + A[i, j]\n      u = u * B[i, j]" );
  ]

(* Every shape of [shapes] in one program, its scalars renamed apart
   ([s] of shape [k] is [s<k>]). [~exact] fills [A] with quarters and
   [B] with 0.5 and 2.0, so every partial result is exact and a
   domain-order merge equals the sequential fold; otherwise the values
   are inexact and the result depends on the order of every step. *)
let fold_prog ~exact ~nj shapes =
  let b = Buffer.create 1024 in
  let add fmt = Printf.bprintf b fmt in
  add "program\n  real A[3, %d]\n  real B[3, %d]\n" nj nj;
  (* no keyword or array name in a body has an [s] or a [u] *)
  let rename k text =
    String.to_seq text
    |> Seq.map (function
         | ('s' | 'u') as c -> Printf.sprintf "%c%d" c k
         | c -> String.make 1 c)
    |> List.of_seq |> String.concat ""
  in
  List.iteri
    (fun k (_, scalars, _) ->
      List.iter (fun (v, x) -> add "  real %s%d = %s\n" v k x) scalars)
    shapes;
  add "begin\n  doall i = 1, 3\n    doall j = 1, %d\n" nj;
  if exact then
    add
      "      A[i, j] = (i + 3 * j) %% 7 * 0.25\n\
      \      B[i, j] = (i + j) %% 2 * 1.5 + 0.5\n"
  else
    add
      "      A[i, j] = 1.0 / (i + 3 * j)\n\
      \      B[i, j] = 1.0 + 0.5 / (2 * i + j)\n";
  add "    end\n  end\n";
  List.iteri
    (fun k (_, _, body) ->
      add "  doall i = 1, 3\n    doall j = 1, %d\n      %s\n    end\n  end\n" nj
        (rename k body))
    shapes;
  add "end\n";
  Buffer.contents b

(* Per plan of [prog] at level [lvl] after the first (which fills the
   arrays): the fold registers' count. *)
let lane_folds ~lvl prog =
  List.map
    (fun (pl : Compile.plan) ->
      let jslot = pl.Compile.index_slots.(pl.Compile.depth - 1) in
      let tp = pl.Compile.tape in
      match
        Bytecode.lane_plan ~jslot ~lits:(Bytecode.const_regs ~jslot tp) tp
      with
      | Ok lp -> Bytecode.IntSet.cardinal lp.Bytecode.lp_folds
      | Error why -> Alcotest.failf "lane rule fails: %s" why)
    (List.tl (Compile.plans (Compile.compile ~opt_level:lvl prog)))

(* Shapes that must stay scalar, each with the rule it fails: [s]
   updated twice, a scan storing [s] after its update, an update inside
   a serial loop, and a chain whose operation reads [s] twice. *)
let fold_negatives =
  [
    ("two updates", "s = s + A[i, j]\n      s = s + B[i, j]");
    ("scan", "s = s + A[i, j]\n      B[i, j] = s");
    ( "update inside do k",
      "do k = 1, 2\n        s = s + A[i, j] * k\n      end" );
    ("s * 0.5 + A", "s = s * 0.5 + A[i, j]");
  ]

let fold_negative_prog what body =
  fold_prog ~exact:false ~nj:7 [ (what, [ ("s", "0.0") ], body) ]

(* Commuted folds over NaNs of two payloads, the default NaN and its
   negation: [s] starts as the negation, [A] holds both, the default one
   last. A fold that ran [e op s] as [s op e] would keep the
   accumulator's payload where the scalar runner and [Eval] take the
   element's. *)
let commuted_nan_prog ~nj =
  Printf.sprintf
    "program\n\
    \  real A[3, %d]\n\
    \  real s0 = 0.0\n\
    \  real s1 = 1.0\n\
    \  real s2 = 0.0\n\
    \  real z = 0.0\n\
     begin\n\
    \  doall i = 1, 3\n\
    \    doall j = 1, %d\n\
    \      A[i, j] = (i + 3 * j) * 0.25\n\
    \    end\n\
    \  end\n\
    \  A[2, 3] = -(z / z)\n\
    \  A[3, 2] = z / z\n\
    \  s0 = -(z / z)\n\
    \  s1 = -(z / z)\n\
    \  doall i = 1, 3\n\
    \    doall j = 1, %d\n\
    \      s0 = A[i, j] + s0\n\
    \      s1 = A[i, j] * s1\n\
    \      s2 = A[i, j] - s2\n\
    \    end\n\
    \  end\n\
     end\n"
    nj nj nj

(* Lanes against the scalar runner (a profiler attached) bit for bit at
   -O0 and -O2 on 1-3 domains, every fork on lanes, and against [Eval]
   on one domain. On more, the domain-order merge decides which
   partial's NaN survives, on the scalar runner too, so [Eval]'s
   payload is compared where the fold order is the whole order. *)
let check_commuted_nans ~nj =
  let prog = parse "commuted NaNs" (commuted_nan_prog ~nj) in
  let st = Eval.run prog in
  List.iter
    (fun lvl ->
      let t = Compile.compile ~opt_level:lvl prog in
      List.iter
        (fun policy ->
          List.iter
            (fun d ->
              let where =
                Printf.sprintf "commuted NaNs nj=%d -O%d, %d domains, %s" nj
                  lvl d (Policy.name policy)
              in
              let scalar =
                Exec.run_compiled ~domains:d ~policy
                  ~profile:(Runtime.Profile.create ()) t
              in
              let before = Registry.value lane_forks in
              let lane = Exec.run_compiled ~domains:d ~policy t in
              Alcotest.(check int) (where ^ ": lane forks") 2
                (Registry.value lane_forks - before);
              if not (same_bits lane scalar) then
                Alcotest.failf "%s: lanes differ from the scalar runner" where;
              if
                d = 1
                && not (Exec.agrees_with_interpreter ~compare_scalars:true lane st)
              then Alcotest.failf "%s: lanes differ from Eval" where)
            [ 1; 2; 3 ])
        lane_policies)
    [ 0; 2 ]

let test_lane_folds () =
  let shapes = fold_shapes in
  let nfolds = List.map (fun (_, sc, _) -> List.length sc) shapes in
  List.iter
    (fun nj ->
      let exact = parse "folds" (fold_prog ~exact:true ~nj shapes) in
      let inexact = parse "folds" (fold_prog ~exact:false ~nj shapes) in
      List.iter
        (fun lvl ->
          Alcotest.(check (list int))
            (Printf.sprintf "nj=%d -O%d: fold registers per plan" nj lvl)
            nfolds (lane_folds ~lvl exact))
        [ 0; 2 ];
      (* every fork on lanes: the fork count is the plan count *)
      Alcotest.(check int)
        (Printf.sprintf "nj=%d: lane forks" nj)
        (1 + List.length shapes)
        (lane_fork_count exact);
      check_lanes ~lanes:true
        ~what:(Printf.sprintf "exact folds nj=%d" nj)
        exact;
      (* on one domain the fold order is every step's: a fold out of
         iteration order differs in the last bits *)
      check_lanes ~lanes:true ~domains:[ 1 ]
        ~what:(Printf.sprintf "inexact folds nj=%d" nj)
        inexact)
    strip_trips;
  List.iter (fun nj -> check_commuted_nans ~nj) [ 7; 257 ];
  (* the fused forms the kernels cover *)
  let ops =
    List.concat_map
      (fun (pl : Compile.plan) -> Array.to_list pl.Compile.tape.Bytecode.tp_ops)
      (Compile.plans
         (Compile.compile ~opt_level:2
            (parse "folds" (fold_prog ~exact:true ~nj:5 shapes))))
  in
  List.iter
    (fun (what, is) ->
      Alcotest.(check bool) ("-O2 fuses a fold into " ^ what) true
        (List.exists is ops))
    [
      ("Fldadd", function Bytecode.Fldadd _ -> true | _ -> false);
      ("Fldsub", function Bytecode.Fldsub _ -> true | _ -> false);
      ("Fldmul", function Bytecode.Fldmul _ -> true | _ -> false);
      ("Fmac2", function Bytecode.Fmac2 _ -> true | _ -> false);
      ("Fldmac", function Bytecode.Fldmac _ -> true | _ -> false);
      ("Fmsb2", function Bytecode.Fmsb2 _ -> true | _ -> false);
      ("Fldmsb", function Bytecode.Fldmsb _ -> true | _ -> false);
      ("Fmac", function Bytecode.Fmac _ -> true | _ -> false);
      ("Fmsb", function Bytecode.Fmsb _ -> true | _ -> false);
    ];
  List.iter
    (fun (what, body) ->
      let prog = parse what (fold_negative_prog what body) in
      Alcotest.(check (list string))
        what
        [ "ok"; "carried" ]
        (lane_reasons prog);
      check_lanes ~domains:[ 1 ] ~what prog)
    fold_negatives

(* Why forks ran scalar: [exec.scalar_forks.<reason>] counts each
   bytecode fork on the scalar interpreter once, under the lane rule its
   body fails, [unproved] or [profiled]. The sweeps of a sum reduction
   (perfbench's reduce family) fold on lanes; cond_stencil's main plan
   fails [float_compare]. *)
let scalar_forks slug = Registry.counter ("exec.scalar_forks." ^ slug)

let slugs =
  [
    "sanitized";
    "float_compare";
    "varying_control";
    "carried";
    "stored_offset";
    "may_raise";
    "unproved";
    "profiled";
  ]

(* The change in every [exec.scalar_forks.*] counter and in
   [exec.lane_forks] over [f ()], the nonzero ones. *)
let fork_counts f =
  let read () =
    ("lane", Registry.value lane_forks)
    :: List.map (fun s -> (s, Registry.value (scalar_forks s))) slugs
  in
  let before = read () in
  f ();
  List.filter_map
    (fun ((k, a), (_, b)) -> if b > a then Some (k, b - a) else None)
    (List.combine before (read ()))

let reduce_prog =
  "program\n\
  \  real A[2048]\n\
  \  real s = 0.0\n\
   begin\n\
  \  doall i = 1, 2048\n\
  \    A[i] = i % 5 * 0.25\n\
  \  end\n\
  \  do t = 1, 30\n\
  \    doall i = 1, 2048\n\
  \      s = s + A[i]\n\
  \    end\n\
  \  end\n\
   end\n"

let test_scalar_fork_reasons () =
  let run ?profile ?(domains = 2) prog () =
    ignore
      (Exec.run_compiled ~domains ~policy:Policy.Gss ?profile
         (Compile.compile prog)
        : Exec.outcome)
  in
  let counts = Alcotest.(list (pair string int)) in
  let reduce = parse "reduce" reduce_prog in
  Alcotest.check counts "reduce: every sweep on lanes" [ ("lane", 31) ]
    (fork_counts (run reduce));
  Alcotest.check counts "reduce, profiled" [ ("profiled", 31) ]
    (fork_counts (run ~profile:(Runtime.Profile.create ()) reduce));
  Alcotest.check counts "cond_stencil: main plan fails float_compare"
    [ ("lane", 1); ("float_compare", 1) ]
    (fork_counts (run (Kernels.cond_stencil ~n:40)));
  Alcotest.check counts "unproved gather"
    [ ("lane", 1); ("unproved", 1) ]
    (fork_counts (run (parse "unproved" (gather_prog ~sub:"(i - 1) / 8 + 1"))));
  List.iter
    (fun (what, body) ->
      Alcotest.check counts what
        [ ("lane", 1); ("carried", 1) ]
        (fork_counts
           (run ~domains:1 (parse what (fold_negative_prog what body)))))
    fold_negatives;
  Alcotest.check counts "sanitized" [ ("sanitized", 31) ]
    (fork_counts (fun () ->
         ignore (Exec.run_sanitized ~domains:1 (parse "reduce" reduce_prog))))

(* Race-free DOALL nests, and nests around serial accumulations and
   branchy variable-step loops (promoted elements, uniform branches),
   on 1-3 domains: every program of these generators takes the lane
   path somewhere. *)
let lane_prop ~count ~name arb =
  QCheck.Test.make ~count ~name arb (fun prog ->
      match lane_mismatch prog with
      | None -> true
      | Some m -> QCheck.Test.fail_report m)

let prop_lanes_agree =
  lane_prop ~count:30
    ~name:"lane path = scalar bytecode = interpreter (random DOALL nests)"
    Test_runtime.arbitrary_doall_nest

let prop_lanes_serial_loops =
  lane_prop ~count:40
    ~name:"lane path over serial loops = scalar = interpreter (random)"
    (QCheck.make ~print:Pretty.program_to_string
       (QCheck.Gen.oneof [ serial_accum_gen; branchy_varstep_gen ]))

(* ---------- lane kernels: operand step classes ---------- *)

(* Float operands of every step class for a strip over [j = 1 .. n],
   reading array [a]: unit ([a[j]], or a lane register once loaded), a
   broadcast scalar, a broadcast NaN, strided, negative, and gathered
   (the subscript reads [min(j, 5)], a lane register). *)
let class_operands ~n a =
  let x = a = "X" in
  [
    a ^ "[j]";
    (if x then "c" else "e");
    (if x then "nn" else "pn");
    a ^ "[2 * j]";
    Printf.sprintf "%s[%d - j]" a (n + 1);
    a ^ "[min(j, 5)]";
  ]

let float_ops = [ "+"; "-"; "*"; "/"; "min"; "max" ]

let apply op l r =
  match op with
  | "min" | "max" -> Printf.sprintf "%s(%s, %s)" op l r
  | _ -> Printf.sprintf "%s %s %s" l op r

(* Operands of [a + x * y]: each class in each position with the others
   unit (class 0), and every mix of unit and broadcast (class 1). *)
let mac_operands ~n =
  let xs = Array.of_list (class_operands ~n "X") in
  let ys = Array.of_list (class_operands ~n "Y") in
  let classes = List.init (Array.length xs) Fun.id in
  List.concat_map
    (fun i ->
      List.concat_map
        (fun j ->
          List.filter_map
            (fun k ->
              let cs = [ i; j; k ] in
              if
                List.length (List.filter (( <> ) 0) cs) <= 1
                || List.for_all (( >= ) 1) cs
              then Some (xs.(i), ys.(j), xs.(k))
              else None)
            classes)
        classes)
    classes

let int_exprs ~n =
  [
    "j * m"; "m * j"; "j * j"; "min(j, m)"; "min(m, j)";
    Printf.sprintf "min(j, %d - j)" (n + 1); "max(j, m)"; "max(m, j)";
    Printf.sprintf "max(j, %d - j)" (n + 1);
  ]

(* -O0 keeps a literal divisor out of the prologue, so these run on
   lanes at -O2 only ([may_raise]) *)
let int_divisions =
  [
    "j / 3"; "(5 - j) / 3"; "j % 3"; "(5 - j) % 3"; "ceildiv(j, 4)";
    "ceildiv(5 - j, 4)";
  ]

(* Five DOALLs over [j = 1 .. n], each one plan of one kernel family:
   binary operations (every class pair, [X] left and [Y] right), fused
   multiply-adds, moves, stores and int operations, int divisions, and
   folds with the accumulator on either side. [X] and [Y] hold NaNs of
   opposite signs at 1 (both), 3 and 4 (one each), and [nn] and [pn] are
   the same two NaNs as broadcasts, so the operand order of every
   operation decides a NaN payload somewhere, inside a fold too. The
   moves end with a lane register [t] written from a load and from a
   constant. *)
let step_class_prog n =
  let xs = class_operands ~n "X" and ys = class_operands ~n "Y" in
  let bins =
    List.concat_map
      (fun op -> List.concat_map (fun l -> List.map (apply op l) ys) xs)
      float_ops
  in
  let macs =
    List.concat_map
      (fun s ->
        List.map
          (fun (a, x, y) -> Printf.sprintf "%s %s %s * %s" a s x y)
          (mac_operands ~n))
      [ "+"; "-" ]
  in
  let moves =
    List.concat_map (fun l -> [ l; "-(" ^ l ^ ")" ]) xs @ int_exprs ~n
  in
  let folds =
    List.concat_map
      (fun op ->
        List.concat_map
          (fun r -> [ (op, apply op "s" r); (op, apply op r "s") ])
          ys)
      float_ops
    @ List.map
        (fun e -> ("+", e))
        [ "s + X[j] * Y[2 * j]"; "s - c * Y[j]"; "s + X[min(j, 5)] * pn" ]
  in
  let b = Buffer.create 8192 in
  let add fmt = Printf.bprintf b fmt in
  let rows name es = add "  real %s[%d, %d]\n" name (List.length es) n in
  add "program\n  real X[%d]\n  real Y[%d]\n" ((2 * n) + 5) ((2 * n) + 5);
  rows "D" bins;
  rows "M" macs;
  rows "V" (moves @ [ "t"; "t" ]);
  rows "W" int_divisions;
  add "  real E[%d]\n  real F[%d]\n  real G[%d]\n" (2 * n) n n;
  add
    "  real c = 1.25\n\
    \  real e = -0.75\n\
    \  real z = 0.0\n\
    \  real nn = 0.0\n\
    \  real pn = 0.0\n\
    \  real t = 0.0\n\
    \  int m = 3\n";
  List.iteri
    (fun k (op, _) ->
      add "  real s%d = %s\n" k (if op = "*" || op = "/" then "1.0" else "0.0"))
    folds;
  add
    "begin\n\
    \  doall j = 1, %d\n\
    \    X[j] = 1.0 + 1.0 / (j + 2)\n\
    \    Y[j] = 1.0 - 0.5 / (j + 3)\n\
    \  end\n\
    \  nn = z / z\n\
    \  pn = -(z / z)\n\
    \  X[1] = nn\n\
    \  Y[1] = pn\n\
    \  X[3] = pn\n\
    \  Y[4] = nn\n"
    ((2 * n) + 5);
  let doall stmts =
    add "  doall j = 1, %d\n" n;
    List.iter (add "    %s\n") stmts;
    add "  end\n"
  in
  let store name =
    List.mapi (fun k -> Printf.sprintf "%s[%d, j] = %s" name (k + 1))
  in
  let nv = List.length moves in
  doall (store "D" bins);
  doall (store "M" macs);
  doall
    (store "V" moves
    @ [
        "t = X[j]";
        Printf.sprintf "V[%d, j] = t" (nv + 1);
        "t = 2.5";
        Printf.sprintf "V[%d, j] = t" (nv + 2);
        "E[2 * j] = X[j]";
        Printf.sprintf "F[%d - j] = Y[j] * 2.0" (n + 1);
        "G[j] = Y[2 * j]";
      ]);
  doall (store "W" int_divisions);
  (* [s] of fold [k] is [s<k>]: no other name has an [s] *)
  doall
    (List.mapi
       (fun k (_, e) ->
         let e =
           String.concat (Printf.sprintf "s%d" k) (String.split_on_char 's' e)
         in
         Printf.sprintf "s%d = %s" k e)
       folds);
  add "end\n";
  Buffer.contents b

(* A plan's tape, strip index register and lane program, when it has
   one. *)
let lane_program (pl : Compile.plan) =
  let tape = pl.Compile.tape in
  let jslot = pl.Compile.index_slots.(pl.Compile.depth - 1) in
  Result.to_option
    (Result.map
       (fun ln -> (tape, jslot, ln))
       (Bytecode.lanes ~jslot ~scalar_reals:pl.Compile.scalar_reals
          ~scalar_ints:pl.Compile.scalar_ints tape))

let step_class_policies = [ Policy.Static_block; Policy.Self_sched 3 ]

(* The lane kernels against the scalar runner and [Eval], bit for bit,
   at -O0 and -O2 on 1-3 domains: arrays always (every element is one
   iteration's), scalars on one domain (on more, the domain-order merge
   of fold partials decides a NaN's payload, on the scalar runner too).
   Piece lengths 1-9 cover every remainder of the four-element unroll;
   255-257 fill, miss and cross one lane pass. *)
let test_lane_step_classes () =
  let forms = ref [] in
  List.iter
    (fun n ->
      let what = Printf.sprintf "step classes, n=%d" n in
      let prog = parse what (step_class_prog n) in
      Alcotest.(check (list string))
        (what ^ ": lane rules at -O2")
        [ "ok"; "ok"; "ok"; "ok"; "ok"; "ok" ]
        (lane_reasons prog);
      let reference =
        let arrays, scalars = Eval.dump (Eval.run prog) in
        { Exec.arrays; scalars }
      in
      List.iter
        (fun lvl ->
          let t = Compile.compile ~opt_level:lvl prog in
          let laned = List.filter_map lane_program (Compile.plans t) in
          List.iter
            (fun (tape, _, _) ->
              Array.iter
                (fun i -> forms := Bytecode.instr_mnemonic i :: !forms)
                tape.Bytecode.tp_ops)
            laned;
          List.iter
            (fun policy ->
              List.iter
                (fun d ->
                  let where =
                    Printf.sprintf "%s -O%d, %d domains, %s" what lvl d
                      (Policy.name policy)
                  in
                  let scalar =
                    Exec.run_compiled ~domains:d ~policy
                      ~profile:(Runtime.Profile.create ()) t
                  in
                  let before = Registry.value lane_forks in
                  let lane = Exec.run_compiled ~domains:d ~policy t in
                  (* a one-iteration DOALL runs no lane pass *)
                  if n > 1 then
                    Alcotest.(check int) (where ^ ": lane forks")
                      (List.length laned)
                      (Registry.value lane_forks - before);
                  (* dynamic schedules fold different partials per run *)
                  let same =
                    if d = 1 || policy = Policy.Static_block then same_bits
                    else same_array_bits
                  in
                  if not (same lane scalar) then
                    Alcotest.failf "%s: lanes differ from the scalar runner"
                      where;
                  if not (same_array_bits lane reference) then
                    Alcotest.failf "%s: arrays differ from Eval: %s" where
                      (array_diff lane reference);
                  if d = 1 && not (same_bits lane reference) then
                    Alcotest.failf "%s: scalars differ from Eval" where)
                [ 1; 2; 3 ])
            step_class_policies)
        [ 0; 2 ])
    (List.init 9 (fun k -> k + 1) @ [ 255; 256; 257 ]);
  List.iter
    (fun f ->
      if not (List.mem f !forms) then Alcotest.failf "no lane program has %s" f)
    [
      "fmov"; "fneg"; "fofi"; "fload"; "fstore"; "fldst"; "fadd"; "fsub";
      "fmul"; "fdiv"; "fmin"; "fmax"; "fmac"; "fmsb"; "fmac2"; "fmsb2";
      "fldmac"; "fldmsb"; "fldadd"; "fldsub"; "fldmul"; "fld2add"; "imul";
      "idiv"; "imod"; "icdiv"; "imin"; "imax";
    ]

(* One-fold lane loops over two rows of [nj] columns, a nest per trip
   count in [trips] and per form: [+] and [-], with the broadcast
   [A[i, k]] as [x] ([C[i, j] op A[i, k] * B[k, j]]) or as [y]
   ([C[i, j] op B[k, j] * A[i, k]]). Each accumulator starts from
   [W[j]], [-0.0] but for NaNs of both signs at columns 2 and 4. The
   terms round ([k / 3.0], [j / 7.0]), so their order shows. [A] holds
   a zero at [k = 1], whose products with [B]'s row of signed zeros are
   signed zeros, and NaNs of both signs in row 2; [B] holds NaNs of
   both signs at rows 2 and 3 of column 3, which meet in one lane's
   first block of trips, and at row 6. Without [rows], each fold nest
   is its row 2 alone; every nest is then one level, and a strip of up
   to [nj] iterations stays in bounds in every plan. *)
let blocked_fold_prog ?(rows = true) ~trips nj =
  let kd = List.fold_left max 1 trips in
  let ka = max kd nj and i = if rows then "i" else "2" in
  let when_ ok s = if ok then s else "" in
  let forms =
    [
      ("P", "+", Printf.sprintf "A[%s, k] * B[k, j]" i);
      ("M", "-", Printf.sprintf "A[%s, k] * B[k, j]" i);
      ("Q", "+", Printf.sprintf "B[k, j] * A[%s, k]" i);
      ("N", "-", Printf.sprintf "B[k, j] * A[%s, k]" i);
    ]
  in
  let folds =
    List.concat_map
      (fun t ->
        List.map
          (fun (f, op, term) -> (Printf.sprintf "%s%d" f t, t, op, term))
          forms)
      trips
  in
  String.concat ""
    ([
       "program\n";
       Printf.sprintf "  real A[2, %d]\n  real B[%d, %d]\n  real W[%d]\n" ka kd
         nj nj;
     ]
    @ List.map
        (fun (c, _, _, _) -> Printf.sprintf "  real %s[2, %d]\n" c nj)
        folds
    @ [
        "  real z = 0.0\nbegin\n";
        Printf.sprintf
          "  doall k = 1, %d\n\
          \    A[1, k] = k * 0.1\n\
          \    A[2, k] = k / 3.0 + 1.0\n\
          \  end\n\
          \  doall j = 1, %d\n\
          \    W[j] = -z\n\
          \    do k = 1, %d\n\
          \      B[k, j] = k * 0.7 - j / 7.0\n\
          \    end\n\
          \    B[1, j] = (j %% 2 * 2 - 1) * z\n\
          \  end\n\
          \  A[1, 1] = z\n"
          ka nj kd;
        when_ (nj >= 2) "  W[2] = z / z\n";
        when_ (nj >= 4) "  W[4] = -(z / z)\n";
        when_ (kd >= 2) "  A[2, 2] = -(z / z)\n";
        when_ (kd >= 5) "  A[2, 5] = z / z\n";
        when_ (kd >= 3 && nj >= 3) "  B[2, 3] = z / z\n  B[3, 3] = -(z / z)\n";
        when_ (kd >= 6) "  B[6, 1] = -(z / z)\n";
      ]
    @ List.map
        (fun (c, t, op, term) ->
          let nest =
            Printf.sprintf
              "  doall j = 1, %d\n\
              \    %s[%s, j] = W[j]\n\
              \    do k = 1, %d\n\
              \      %s[%s, j] = %s[%s, j] %s %s\n\
              \    end\n\
              \  end\n"
              nj c i t c i c i op term
          in
          if rows then "  doall i = 1, 2\n" ^ nest ^ "  end\n" else nest)
        folds
    @ [ "end\n" ])

(* Minor words [f ()] allocates. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* One-level lane plans whose strips hold lane loops: a dot product, a
   multi-instruction body, a register step and a downward walk. *)
let lane_loop_1d n =
  Printf.sprintf
    "program\n\
    \  real A[9]\n\
    \  real B[9, %d]\n\
    \  real C[%d]\n\
    \  real D[%d]\n\
    \  int s = 2\n\
     begin\n\
    \  doall j = 1, %d\n\
    \    C[j] = 0.0\n\
    \    do k = 1, 9\n\
    \      C[j] = C[j] + A[k] * B[k, j]\n\
    \    end\n\
    \  end\n\
    \  doall j = 1, %d\n\
    \    D[j] = 1.0\n\
    \    do k = 1, 9, s\n\
    \      D[j] = D[j] * 0.5 + A[10 - k] * B[10 - k, j] - B[k, j] / 3.0\n\
    \    end\n\
    \  end\n\
     end\n"
    n n n n n

(* Index progressions ({!Bytecode.lane_index}) over [nj]-column rows,
   one nest each: stencil's and transpose's inits ([mod] by a literal
   and int-to-float on progressions, [T]'s conversion writing through
   its fused store's view); dividends that cross zero inside a pass
   ([Z]), negative ones and negative literal divisors ([N]); values
   that overflow inside a pass, by a large coefficient or a large base
   ([O]); progressions read by a gather ([kk]) and by a lane loop's body
   ([q], and the strip index through [j * 3 + k]); one read only after
   its nest, through the copy-out ([m]); and a one-level nest whose
   strip index feeds [mod] and int-to-float directly.
   examples/programs/lane_index.loop is this program at [nj = 300]. *)
let lane_index_prog nj =
  let nest body =
    Printf.sprintf
      "  doall i = 1, 3\n    doall j = 1, %d\n%s    end\n  end\n" nj body
  in
  Printf.sprintf
    "program\n\
    \  real A[3, %d]\n\
    \  real T[3, %d]\n\
    \  real Z[3, %d]\n\
    \  real N[3, %d]\n\
    \  real O[3, %d]\n\
    \  real G[3, %d]\n\
    \  real L[3, %d]\n\
    \  real M[3, %d]\n\
    \  real R[%d]\n\
    \  int kk = 0\n\
    \  int m = 0\n\
    \  int q = 0\n\
     begin\n\
     %s%s%s%s%s%s\
    \  doall j = 1, %d\n\
    \    R[j] = j %% 5 * 0.125 + j * 0.5\n\
    \  end\n\
     end\n"
    nj nj nj nj nj nj nj nj nj
    (nest
       "      A[i, j] = (i * 3 + j * 5) % 11 * 0.5\n\
       \      T[i, j] = i * 103 + j * 7\n")
    (nest
       "      Z[i, j] = (j - 300) % 7 + (j - 300) % -4\n\
       \      N[i, j] = (i * 3 - j * 5) % -11 * 0.25\n")
    (nest
       "      O[i, j] = (j * 36028797018963968 + i) % 7 + (j + \
        4611686018427387800) % 9\n")
    (nest
       (Printf.sprintf "      kk = %d - j\n      G[i, j] = A[i, kk]\n" (nj + 1)))
    (nest
       "      q = j * 2 + i\n\
       \      L[i, j] = 0.0\n\
       \      do k = 1, 3\n\
       \        L[i, j] = L[i, j] + q * k + (j * 3 + k) * 0.5\n\
       \      end\n")
    (nest "      m = i * 3 + j * 7\n      M[i, j] = m % 13 * 0.5\n")
    nj

(* [lane_index_prog]'s shapes in one-level nests of [n] iterations,
   every strip from 1 with step 1 in bounds. *)
let lane_index_1d n =
  Printf.sprintf
    "program\n\
    \  real A[%d]\n\
    \  real T[%d]\n\
    \  real O[%d]\n\
    \  real G[%d]\n\
    \  real L[%d]\n\
    \  int kk = 0\n\
    \  int m = 0\n\
    \  int q = 0\n\
     begin\n\
    \  doall j = 1, %d\n\
    \    A[j] = (j * 5 + 3) %% 11 * 0.5 + (j - 100) %% -7\n\
    \    T[j] = j * 7 + 103\n\
    \    O[j] = (j + 4611686018427387800) %% 9 + (j * 36028797018963968) %% 7\n\
    \  end\n\
    \  doall j = 1, %d\n\
    \    kk = %d - j\n\
    \    G[j] = A[kk]\n\
    \    m = j * 3 + 1\n\
    \  end\n\
    \  doall j = 1, %d\n\
    \    q = j * 2 + 1\n\
    \    L[j] = 0.0\n\
    \    do k = 1, 3\n\
    \      L[j] = L[j] + q * k\n\
    \    end\n\
    \  end\n\
     end\n"
    n n n n n n n (n + 1) n

(* One-level nests of [n] iterations, every strip from 1 with step 1
   (so that a strip of any length up to [n] stays in bounds): a
   relax-shaped body, plan scalars loaded and read after a store to
   the array ([w]), computed and stored ([t]), loaded and read twice
   ([u]), stored and read again ([v]), and a one-call [Fmsb2] loop over
   [X[1 .. 9]], zero past [n]. *)
let lane_view_1d n =
  Printf.sprintf
    "program\n\
    \  real A[%d]\n\
    \  real B[%d]\n\
    \  real D[%d]\n\
    \  real E[%d]\n\
    \  real F[%d]\n\
    \  real X[%d]\n\
    \  real Y[9, %d]\n\
    \  real G[%d]\n\
    \  real t = 0.0\n\
    \  real u = 0.0\n\
    \  real v = 0.0\n\
    \  real w = 0.0\n\
     begin\n\
    \  doall j = 1, %d\n\
    \    A[j] = j * 0.5\n\
    \    B[j] = j * 0.25 - 3.0\n\
    \    X[j] = j + 0.5\n\
    \    do k = 1, 9\n\
    \      Y[k, j] = k - j * 0.75\n\
    \    end\n\
    \  end\n\
    \  doall j = 1, %d\n\
    \    A[j] = 0.99 * A[j] + B[j]\n\
    \  end\n\
    \  doall j = 1, %d\n\
    \    w = A[j]\n\
    \    A[j] = B[j] * 0.5\n\
    \    D[j] = w + A[j]\n\
    \  end\n\
    \  doall j = 1, %d\n\
    \    t = A[j] * 0.5 + B[j]\n\
    \    E[j] = t\n\
    \  end\n\
    \  doall j = 1, %d\n\
    \    u = B[j]\n\
    \    F[j] = u * u - u\n\
    \  end\n\
    \  doall j = 1, %d\n\
    \    v = D[j] - 1.0\n\
    \    E[j] = v\n\
    \    F[j] = v * F[j]\n\
    \  end\n\
    \  doall j = 1, %d\n\
    \    G[j] = 1.0\n\
    \    do k = 1, 9\n\
    \      G[j] = G[j] - X[k] * Y[k, j]\n\
    \    end\n\
    \  end\n\
     end\n"
    n n n n n (n + 9) n n n n n n n n n

(* Every chain kernel in one-level nests of [n] iterations, every strip
   from 1 with step 1 in bounds: sums of 2 to 5 loads and [float (p mod
   5)] with no tail or each tail operator on each side, and [float p]
   with each tail; in the unit shape ([s = 1]) and the running-offset
   shape ([s = 2]). *)
let lane_chain_1d n =
  let tails =
    [
      ("", ""); ("", " + u"); ("u + ", ""); ("", " - u"); ("u - ", "");
      ("", " * u"); ("u * ", ""); ("", " / u"); ("u / ", "");
    ]
  in
  let stmts s =
    let sum nl =
      String.concat " + "
        (List.init nl (fun k -> Printf.sprintf "A[%d * j + %d]" s k))
    in
    List.concat_map
      (fun nl -> List.map (fun t -> (sum nl, t)) tails)
      [ 2; 3; 4; 5 ]
    @ List.map (fun t -> ("(j * 3 + 7) % 5", t)) tails
    @ List.map (fun t -> ("(j * 3 + 7)", t)) (List.tl tails)
    |> List.mapi (fun k (e, (l, r)) ->
           (Printf.sprintf "D%d_%d" s k, Printf.sprintf "%s(%s)%s" l e r))
  in
  let all = stmts 1 @ stmts 2 in
  String.concat ""
    ([ "program\n"; Printf.sprintf "  real A[%d]\n" ((2 * n) + 8) ]
    @ List.map (fun (d, _) -> Printf.sprintf "  real %s[%d]\n" d (2 * n)) all
    @ [
        "  real u = 1.5\nbegin\n";
        Printf.sprintf "  doall j = 1, %d\n    A[j] = j * 0.75 - 2.0\n  end\n"
          ((2 * n) + 8);
      ]
    @ List.map
        (fun s ->
          Printf.sprintf "  doall j = 1, %d\n%s  end\n" n
            (String.concat ""
               (List.map
                  (fun (d, e) -> Printf.sprintf "    %s[%d * j] = %s\n" d s e)
                  (stmts s))))
        [ 1; 2 ]
    @ [ "end\n" ])

(* Every lane program of the step-class program, [lane_loop_1d],
   [lane_view_1d], [lane_index_1d], [lane_chain_1d] and
   [blocked_fold_prog] at -O0 and -O2, its strips run by
   [Bytecode.lane_runner] on a bound lane state: a repeat call allocates
   nothing, whatever the strip's length. *)
let test_lane_runner_allocation () =
  let n = 257 in
  let base = minor_words ignore in
  List.iter
    (fun (what, text) ->
      let prog = parse what text in
      List.iter
        (fun lvl ->
          let t = Compile.compile ~opt_level:lvl prog in
          let env = Compile.make_env t in
          List.iteri
            (fun k (tape, jslot, ln) ->
              let run =
                Bytecode.lane_runner tape ln (Bytecode.make_lane_state ln)
                  ~ints:env.Compile.ints ~reals:env.Compile.reals
                  ~arrays:env.Compile.arrays ~inv:(Bytecode.make_scratch tape)
                  ~jslot
              in
              List.iter
                (fun len ->
                  run 1 1 len;
                  Alcotest.(check (float 0.0))
                    (Printf.sprintf
                       "%s, -O%d lane program %d, strip of %d: minor words" what
                       lvl k len)
                    base
                    (minor_words (fun () -> run 1 1 len)))
                [ 1; 2; 3; 4; 5; 7; 255; 256; n ])
            (List.filter_map lane_program (Compile.plans t)))
        [ 0; 2 ])
    [
      ("step classes", step_class_prog n);
      ("lane loops", lane_loop_1d n);
      ("lane views", lane_view_1d n);
      ("lane progressions", lane_index_1d n);
      ("lane chains", lane_chain_1d n);
      ("blocked folds", blocked_fold_prog ~rows:false ~trips:[ 3; 9 ] n);
    ]

(* Register promotion hoists a promoted element's load, checked unless
   the fork's proof covers it, above the serial loop. [A[5]] is out of
   bounds: where a division by zero comes first in the body, or in the
   stored value's right operand, which the interpreter evaluates first,
   the run must report it, as the interpreter does, and not the hoisted
   load's bounds error. Where the store comes first, both report the
   bounds error. Bytecode, and native where a toolchain exists, at 1 and 2
   domains. *)
let test_promotion_fault_order () =
  let program body =
    Driver.load_string
      (Printf.sprintf
         "program\n real A[4]\n int z = 0\n int n = 0\nbegin\n doall i = 1, 2\n  do j = 1, 2\n%s\n  end\n end\nend\n"
         body)
    |> Result.get_ok
  in
  let engines =
    Exec.Bytecode
    :: (if Runtime.Natgen.available () = Ok () then [ Exec.Native ] else [])
  in
  List.iter
    (fun (body, want) ->
      let p = program body in
      (match Eval.run p with
      | _ -> Alcotest.fail "Eval ran"
      | exception Eval.Runtime_error m -> Alcotest.(check string) "Eval" want m);
      let t = Compile.compile p in
      List.iter
        (fun engine ->
          List.iter
            (fun domains ->
              match Exec.run_compiled ~domains ~policy:Policy.Gss ~engine t with
              | _ -> Alcotest.fail "ran"
              | exception Compile.Error m ->
                  Alcotest.(check string)
                    (Printf.sprintf "%s, %d domain(s)"
                       (if engine = Exec.Native then "native" else "bytecode")
                       domains)
                    want m)
            [ 1; 2 ])
        engines)
    [
      ("   n = 1 / z\n   A[5] = 1.0", "integer division by zero");
      ("   A[5] = A[5] + 1 / z", "integer division by zero");
      ("   A[5] = 1.0\n   n = 1 / z", "array A: subscript 5 out of bounds 1..4");
    ]


(* ---------- lane loops ---------- *)

(* Serial loops inside lane plans over [nj]-column rows, one nest each:
   a one-instruction dot product, a multi-instruction body, a body with
   a uniform instruction ([A[i, k] * 0.5]), a register step ([s]), a
   zero-trip loop ([m = 0]), a downward walk ([10 - k]) and a loop
   nested in another (the inner one fused, the outer one not).
   examples/programs/lane_loops.loop is this program at [nj = 300]. *)
let lane_loop_prog ?(s = 2) nj =
  let nest name init body =
    Printf.sprintf
      "  doall i = 1, 4\n\
      \    doall j = 1, %d\n\
      \      %s[i, j] = %s\n\
       %s\
      \    end\n\
      \  end\n"
      nj name init body
  in
  let dot = "C[i, j] = C[i, j] + A[i, k] * B[k, j]" in
  Printf.sprintf
    "program\n\
    \  real A[4, 9]\n\
    \  real B[9, %d]\n\
    \  real C[4, %d]\n\
    \  real D[4, %d]\n\
    \  real E[4, %d]\n\
    \  real F[4, %d]\n\
    \  real G[4, %d]\n\
    \  real H[4, %d]\n\
    \  real P[4, %d]\n\
    \  int s = %d\n\
    \  int m = 0\n\
     begin\n\
    \  doall i = 1, 4\n\
    \    doall k = 1, 9\n\
    \      A[i, k] = i + 2 * k + 0.5\n\
    \    end\n\
    \  end\n\
    \  doall k = 1, 9\n\
    \    doall j = 1, %d\n\
    \      B[k, j] = k - j * 0.75\n\
    \    end\n\
    \  end\n\
     %s%s%s%s%s%s%s\
     end\n"
    nj nj nj nj nj nj nj nj s nj
    (nest "C" "0.0" ("      do k = 1, 9\n        " ^ dot ^ "\n      end\n"))
    (nest "D" "1.0"
       "      do k = 1, 9\n\
       \        D[i, j] = D[i, j] * 0.5 + A[i, k] * B[k, j] - B[k, j] / 3.0\n\
       \      end\n")
    (nest "E" "0.0"
       "      do k = 1, 9\n\
       \        E[i, j] = E[i, j] + A[i, k] * 0.5 * B[k, j]\n\
       \      end\n")
    (nest "F" "0.0"
       "      do k = 1, 9, s\n\
       \        F[i, j] = F[i, j] + A[i, k] * B[k, j]\n\
       \      end\n")
    (nest "G" "1.0"
       "      do k = 1, m\n\
       \        G[i, j] = G[i, j] + A[i, k] * B[k, j]\n\
       \      end\n")
    (nest "H" "0.0"
       "      do k = 1, 9\n\
       \        H[i, j] = H[i, j] + A[i, 10 - k] * B[10 - k, j]\n\
       \      end\n")
    (nest "P" "0.0"
       "      do l = 1, 2\n\
       \        do k = 1, 9\n\
       \          P[i, j] = P[i, j] * 0.5 + A[i, k] * B[k, j] + l\n\
       \        end\n\
       \      end\n")

(* Serial loops the lane path keeps on its dispatch loop: one reads a
   gathered access ([min(j, 6)] is a lane register), one an access
   whose offset reads a register the body writes ([k * k]). *)
let generic_loop_prog nj =
  Printf.sprintf
    "program\n\
    \  real A[4, 9]\n\
    \  real B[9, %d]\n\
    \  real Q[4, %d]\n\
    \  real R[4, %d]\n\
     begin\n\
    \  doall i = 1, 4\n\
    \    doall k = 1, 9\n\
    \      A[i, k] = i + 2 * k + 0.5\n\
    \    end\n\
    \  end\n\
    \  doall k = 1, 9\n\
    \    doall j = 1, %d\n\
    \      B[k, j] = k - j * 0.75\n\
    \    end\n\
    \  end\n\
    \  doall i = 1, 4\n\
    \    doall j = 1, %d\n\
    \      Q[i, j] = 0.0\n\
    \      do k = 1, 3\n\
    \        Q[i, j] = Q[i, j] + A[i, min(j, 6) + k] * B[k, j]\n\
    \      end\n\
    \    end\n\
    \  end\n\
    \  doall i = 1, 4\n\
    \    doall j = 1, %d\n\
    \      R[i, j] = 0.0\n\
    \      do k = 1, 3\n\
    \        R[i, j] = R[i, j] + A[i, k * k] * B[k, j]\n\
    \      end\n\
    \    end\n\
    \  end\n\
     end\n"
    nj nj nj nj nj nj

(* Lane loops over every access form of the lane kernels, each access
   stepping by a coefficient of its own: [fldst] and [fld2add] walk [B]
   down and [W] and [U] up, the register forms read broadcast scalars,
   and [fmsb2] steps [A] by 1 and [B] by a row. The fused forms appear
   at -O2. *)
let lane_loop_forms nj =
  Printf.sprintf
    "program\n\
    \  real A[4, 9]\n\
    \  real B[9, %d]\n\
    \  real W[9, %d]\n\
    \  real U[9, %d]\n\
    \  real V[9, %d]\n\
    \  real X[9, %d]\n\
    \  real Y[9, %d]\n\
    \  real Z[9, %d]\n\
    \  real D[9, %d]\n\
    \  real C[4, %d]\n\
    \  real c = 1.5\n\
    \  real e = 0.25\n\
     begin\n\
    \  doall i = 1, 4\n\
    \    doall k = 1, 9\n\
    \      A[i, k] = i + 2 * k + 0.5\n\
    \    end\n\
    \  end\n\
    \  doall k = 1, 9\n\
    \    doall j = 1, %d\n\
    \      B[k, j] = k - j * 0.75\n\
    \    end\n\
    \  end\n\
    \  doall j = 1, %d\n\
    \    do k = 1, 9\n\
    \      W[k, j] = B[10 - k, j]\n\
    \      U[k, j] = B[k, j] + B[10 - k, j]\n\
    \      V[k, j] = c + B[k, j]\n\
    \      X[k, j] = c - B[k, j]\n\
    \      Y[k, j] = c * B[k, j]\n\
    \      Z[k, j] = c + e * B[k, j]\n\
    \      D[k, j] = c - e * B[k, j]\n\
    \    end\n\
    \  end\n\
    \  doall i = 1, 4\n\
    \    doall j = 1, %d\n\
    \      C[i, j] = 0.0\n\
    \      do k = 1, 9\n\
    \        C[i, j] = C[i, j] - A[i, k] * B[k, j]\n\
    \      end\n\
    \    end\n\
    \  end\n\
     end\n"
    nj nj nj nj nj nj nj nj nj nj nj nj

(* The serial loops of a lane plan's tape, by back edge: whether each is
   a one-fold loop, read off the tape and {!Bytecode.lane_plan} — a body
   of one varying [Fmac2]/[Fmsb2] fold [d <- d op x * y], an index
   stepping by a uniform increment, and neither access reading a varying
   register besides the strip index. *)
let one_folds (tape, jslot, _) =
  let open Bytecode in
  let ops = tape.tp_ops in
  let lp =
    Result.get_ok (lane_plan ~jslot ~lits:(const_regs ~jslot tape) tape)
  in
  let viewed id =
    Array.for_all
      (fun r -> r = jslot || not (IntSet.mem r lp.lp_vary_i))
      tape.tp_accs.(id).ac_var.regs
  in
  let fold q top uniform =
    top = q - 1 && uniform
    &&
    match ops.(top) with
    | Fmac2 (d, a, i1, i2) | Fmsb2 (d, a, i1, i2) ->
        d = a && IntSet.mem d lp.lp_vary_f && viewed i1 && viewed i2
    | _ -> false
  in
  List.filter_map
    (fun q ->
      match ops.(q) with
      | Iloopc (_, _, _, top) -> Some (fold q top true)
      | Iloop (r, a, _, top) -> Some (fold q top (aff_coef a r = 1))
      | _ -> None)
    (List.init (Array.length ops) Fun.id)

(* Per lane plan of [prog] at -O[lvl]: its serial loops' [one_folds],
   and the lane loops {!Bytecode.lane_views} counts. *)
let lane_loops ~lvl prog =
  List.filter_map
    (fun pl ->
      Option.map
        (fun ((_, _, ln) as l) ->
          let _, _, calls = Bytecode.lane_views ln in
          (one_folds l, calls))
        (lane_program pl))
    (Compile.plans (Compile.compile ~opt_level:lvl prog))

(* Each one-fold loop is a lane loop, run as one call per entry, and
   every other serial loop runs on the lane dispatch loop: per lane plan
   of [prog], its one-fold loops are as many as its lane loops. Returns
   the one-fold flags. *)
let check_one_folds ~what ~lvl prog =
  List.map
    (fun (folds, calls) ->
      Alcotest.(check int)
        (Printf.sprintf "%s -O%d: lane loops = one-fold loops" what lvl)
        (List.length (List.filter Fun.id folds))
        calls;
      folds)
    (lane_loops ~lvl prog)

(* The instructions in the bodies of [prog]'s serial loops inside lane
   plans at -O[lvl]. *)
let loop_forms ~lvl prog =
  List.concat_map
    (fun (tape, _, _) ->
      let ops = tape.Bytecode.tp_ops in
      List.concat_map
        (fun q ->
          match ops.(q) with
          | Bytecode.Iloop (_, _, _, top) | Bytecode.Iloopc (_, _, _, top) ->
              List.init (q - top) (fun p ->
                  Bytecode.instr_mnemonic ops.(top + p))
          | _ -> [])
        (List.init (Array.length ops) Fun.id))
    (List.filter_map lane_program
       (Compile.plans (Compile.compile ~opt_level:lvl prog)))

(* At -O0 every loop body loads and stores apart, so no loop is a
   one-fold loop. At -O2 the dot product, the register step, the
   zero-trip loop and the downward walk are; the multi-instruction
   bodies, the uniform instruction, the nested loops, the gathered
   access, the written offset and the access forms' copies run on the
   dispatch loop. Over the kernels and the example programs too, each
   one-fold loop is a lane loop and no other loop is. *)
let test_lane_loop_rules () =
  let folds ~lvl what text = check_one_folds ~what ~lvl (parse what text) in
  List.iter
    (fun lvl ->
      let fold b = [ lvl = 2 && b ] in
      Alcotest.(check (list (list bool)))
        (Printf.sprintf "-O%d: lane loops" lvl)
        ([ []; [] ]
        @ List.map fold [ true; false; false; true; true; true ]
        @ [ [ false; false ] ])
        (folds ~lvl "lane loops" (lane_loop_prog 20));
      Alcotest.(check (list (list bool)))
        (Printf.sprintf "-O%d: generic loops" lvl)
        [ []; []; [ false ]; [ false ] ]
        (folds ~lvl "generic loops" (generic_loop_prog 20));
      Alcotest.(check (list (list bool)))
        (Printf.sprintf "-O%d: access forms" lvl)
        [ []; []; [ false ]; fold true ]
        (folds ~lvl "access forms" (lane_loop_forms 20)))
    [ 0; 2 ];
  let dir = "../examples/programs" in
  List.iter
    (fun (what, prog) ->
      List.iter (fun lvl -> ignore (check_one_folds ~what ~lvl prog)) [ 0; 2 ])
    (List.filter_map
       (fun name -> Option.map (fun p -> (name, p ())) (Kernels.by_name name))
       Kernels.all_names
    @ List.filter_map
        (fun f ->
          if Filename.check_suffix f ".loop" then
            Some
              ( f,
                parse f
                  (In_channel.with_open_bin (Filename.concat dir f)
                     In_channel.input_all) )
          else None)
        (Array.to_list (Sys.readdir dir)));
  (* every access form of the lane kernels runs in a serial loop of a
     lane plan *)
  let forms =
    List.concat_map
      (fun lvl ->
        List.concat_map
          (fun text -> loop_forms ~lvl (parse "forms" text))
          [ lane_loop_prog 20; lane_loop_forms 20 ])
      [ 0; 2 ]
  in
  List.iter
    (fun f ->
      if not (List.mem f forms) then Alcotest.failf "no serial loop runs %s" f)
    [
      "fload"; "fstore"; "fmac2"; "fmsb2"; "fldmac"; "fldmsb"; "fldadd";
      "fldsub"; "fldmul"; "fld2add"; "fldst";
    ]

(* One-fold loops outside [k_fmac_trips]'s unit shape, whose trips it
   runs pass by pass, one nest each over [nj] columns: [y] over a
   strided destination's columns ([S[i, 2 * j]], [B[k, 2 * j]]), [y]
   stepping down the columns ([B[k, nj + 1 - j]]), and a register step
   ([doall j = 1, nj, s]), which keeps [j] a serial loop around the
   fold, so that the strip runs over [i] and [A[i, k]] steps by a row.
   [B]'s column 2 holds NaNs of both signs, so the terms' order shows. *)
let strided_fold_prog nj =
  let nest cols dst y =
    Printf.sprintf
      "  doall i = 1, 2\n\
      \    doall j = 1, %s\n\
      \      %s = i * 0.5\n\
      \      do k = 1, 9\n\
      \        %s = %s + A[i, k] * %s\n\
      \      end\n\
      \    end\n\
      \  end\n"
      cols dst dst dst y
  in
  Printf.sprintf
    "program\n\
    \  real A[2, 9]\n\
    \  real B[9, %d]\n\
    \  real S[2, %d]\n\
    \  real D[2, %d]\n\
    \  real R[2, %d]\n\
    \  real z = 0.0\n\
    \  int s = 2\n\
     begin\n\
    \  doall i = 1, 2\n\
    \    doall k = 1, 9\n\
    \      A[i, k] = i + k / 3.0\n\
    \    end\n\
    \  end\n\
    \  doall k = 1, 9\n\
    \    doall j = 1, %d\n\
    \      B[k, j] = k - j / 7.0\n\
    \    end\n\
    \  end\n\
    \  B[2, 2] = z / z\n\
    \  B[5, 2] = -(z / z)\n\
     %s%s%s\
     end\n"
    (2 * nj) (2 * nj) nj nj (2 * nj)
    (nest (string_of_int nj) "S[i, 2 * j]" "B[k, 2 * j]")
    (nest (string_of_int nj) "D[i, j]" (Printf.sprintf "B[k, %d - j]" (nj + 1)))
    (nest (string_of_int nj ^ ", s") "R[i, j]" "B[k, j]")

(* Serial loops in lane plans, the generic ones, the access forms and
   the one-fold loops outside the unit shape against the scalar
   interpreter and [Eval], bit for bit, at -O0 and -O2 on 1-3 domains
   under static block, GSS and chunk:3, over strips of 1, 255, 256, 257
   and 517 iterations. *)
let test_lane_loop_strips () =
  List.iter
    (fun nj ->
      List.iter
        (fun (what, prog) ->
          check_lanes ~lanes:(nj > 1)
            ~what:(Printf.sprintf "%s, nj=%d" what nj)
            (parse what (prog nj)))
        [
          ("lane loops", lane_loop_prog ?s:None);
          ("generic loops", generic_loop_prog);
          ("access forms", lane_loop_forms);
          ("strided folds", strided_fold_prog);
        ])
    [ 1; 255; 256; 257; 517 ];
  Alcotest.(check (list (list bool)))
    "strided folds: one-fold loops at -O2"
    [ []; []; [ true ]; [ true ]; [ true; false ] ]
    (check_one_folds ~what:"strided folds" ~lvl:2
       (parse "strided folds" (strided_fold_prog 20)))

(* [exec.lane_views.call] counts each lane loop once per lane fork: the
   matmul kernel's k loop on its one lane fork with a loop, at 1 and 2
   domains; the example's four likewise, and none of the generic loops.
   A non-positive register step in a lane plan raises [Eval]'s
   message. *)
let test_lane_loop_counts () =
  let calls = Registry.counter "exec.lane_views.call" in
  let delta t domains =
    let before = Registry.value calls in
    ignore (Exec.run_compiled ~domains ~policy:Policy.Gss t : Exec.outcome);
    Registry.value calls - before
  in
  let mm = Compile.compile (Option.get (Kernels.by_name "matmul") ()) in
  let ll = Compile.compile (parse "lane loops" (lane_loop_prog 40)) in
  let gl = Compile.compile (parse "generic loops" (generic_loop_prog 40)) in
  List.iter
    (fun d ->
      let what = Printf.sprintf "%d domain(s)" d in
      Alcotest.(check int) ("matmul, " ^ what) 1 (delta mm d);
      Alcotest.(check int) ("lane loops, " ^ what) 4 (delta ll d);
      Alcotest.(check int) ("generic loops, " ^ what) 0 (delta gl d))
    [ 1; 2 ];
  let p = parse "zero step" (lane_loop_prog ~s:0 40) in
  let want =
    match Eval.run p with
    | _ -> Alcotest.fail "Eval ran"
    | exception Eval.Runtime_error m -> m
  in
  List.iter
    (fun d ->
      let before = Registry.value lane_forks in
      let t = Compile.compile p in
      match Exec.run_compiled ~domains:d ~policy:Policy.Gss t with
      | _ -> Alcotest.fail "ran"
      | exception Compile.Error m ->
          Alcotest.(check string)
            (Printf.sprintf "zero step, %d domain(s)" d)
            want m;
          Alcotest.(check bool) "raised on lanes" true
            (Registry.value lane_forks > before))
    [ 1; 2 ]

(* ---------- lane views ---------- *)

(* Lane passes over array views, one [doall i = 1, 2 / doall j = 1, nj]
   nest each: a relax-shaped body (its load forwarded, its store fused);
   shapes that must keep their lane arrays, written through plan
   scalars, the only registers the source can name: a load read after
   a store to its array ([w]), a computed value stored and read after
   the nest ([t]), a load with two readers ([u]) and a stored value
   read again ([v]); and one-call lane loops: an [Fmsb2] fold, a step
   of 2, a register step ([s]), bounds up to [max_int - 1] with steps 1
   and 2, and a step-2 loop whose bound is too near [max_int] for one
   call. Near [max_int] the loads read [Z] by [k - p], [p] a few below
   the bounds: the fork's range proof, which evaluates [k - m + 4] as
   [4 + k - m] and an offset that multiplies [m] by a row length,
   would overflow and send the fork to the scalar runner. *)
let lane_view_prog nj =
  let nest body =
    Printf.sprintf
      "  doall i = 1, 2\n    doall j = 1, %d\n%s    end\n  end\n" nj body
  in
  let dot name loop sub y =
    nest
      (Printf.sprintf
         "      %s[i, j] = 1.0\n\
         \      do k = %s\n\
         \        %s[i, j] = %s[i, j] - X[i, %s] * %s\n\
         \      end\n"
         name loop name name sub y)
  in
  let row sub = Printf.sprintf "Y[%s, j]" sub and col sub = "Z[" ^ sub ^ "]" in
  Printf.sprintf
    "program\n\
    \  real A[2, %d]\n\
    \  real B[2, %d]\n\
    \  real D[2, %d]\n\
    \  real E[2, %d]\n\
    \  real F[2, %d]\n\
    \  real X[2, 9]\n\
    \  real Y[9, %d]\n\
    \  real Z[9]\n\
    \  real G[2, %d]\n\
    \  real H[2, %d]\n\
    \  real P[2, %d]\n\
    \  real Q[2, %d]\n\
    \  real R[2, %d]\n\
    \  real S[2, %d]\n\
    \  real T[2]\n\
    \  real t = 0.0\n\
    \  real u = 0.0\n\
    \  real v = 0.0\n\
    \  real w = 0.0\n\
    \  int s = 2\n\
    \  int m = 0\n\
    \  int p4 = 0\n\
    \  int p5 = 0\n\
    \  int p7 = 0\n\
     begin\n\
    \  m = 4611686018427387903\n\
    \  p4 = m - 4\n\
    \  p5 = m - 5\n\
    \  p7 = m - 7\n\
     %s%s%s%s%s%s%s%s%s%s%s%s\
    \  T[1] = t\n\
    \  T[2] = u + v + w\n\
     end\n"
    nj nj nj nj nj nj nj nj nj nj nj nj
    (nest "      A[i, j] = i + j * 0.5\n      B[i, j] = i - j * 0.25\n")
    (Printf.sprintf
       "  doall i = 1, 2\n\
       \    doall k = 1, 9\n\
       \      X[i, k] = i + 2 * k + 0.5\n\
       \    end\n\
       \  end\n\
       \  doall k = 1, 9\n\
       \    doall j = 1, %d\n\
       \      Y[k, j] = k - j * 0.75\n\
       \    end\n\
       \    Z[k] = k * 0.125 + 1.0\n\
       \  end\n"
       nj)
    (nest "      A[i, j] = 0.99 * A[i, j] + B[i, j]\n")
    (nest
       "      w = A[i, j]\n\
       \      A[i, j] = B[i, j] * 0.5\n\
       \      D[i, j] = w + A[i, j]\n")
    (nest "      t = A[i, j] * 0.5 + B[i, j]\n      E[i, j] = t\n")
    (nest "      u = B[i, j]\n      F[i, j] = u * u - u\n")
    (nest
       "      v = D[i, j] - 1.0\n\
       \      E[i, j] = v\n\
       \      F[i, j] = v * F[i, j]\n")
    (dot "G" "1, 9" "k" (row "k"))
    (dot "H" "1, 9, 2" "k" (row "k"))
    (dot "P" "2, 9, s" "k" (row "k"))
    (dot "Q" "m - 3, m - 1" "k - p4" (col "k - p4"))
    (dot "R" "m - 6, m - 2, 2" "k - p7" (col "k - p7")
    ^ dot "S" "m - 4, m - 1, 2" "k - p5" (col "k - p5"))

let lane_views_counted () =
  List.map
    (fun k -> Registry.value (Registry.counter ("exec.lane_views." ^ k)))
    [ "load"; "store"; "call" ]

(* Every case bit-identical to scalar bytecode and [Eval] over strips
   of 1 to 517 under static block, GSS and chunk:3 at 1-2 domains. At
   -O2 the relax nest forwards its load and fuses its store, no plan
   scalar is read or written through a view, and the six dot products
   are lane loops ([S]'s trips run on the dispatch loop, too near
   [max_int] for one call); every fork takes
   the lane path and counts its views once. *)
let test_lane_views () =
  List.iter
    (fun nj ->
      check_lanes ~lanes:(nj > 1) ~domains:[ 1; 2 ]
        ~what:(Printf.sprintf "lane views, nj=%d" nj)
        (parse "lane views" (lane_view_prog nj)))
    [ 1; 2; 3; 5; 255; 256; 257; 517 ];
  let prog = parse "lane views" (lane_view_prog 40) in
  let views =
    List.filter_map
      (fun pl ->
        Option.map
          (fun (_, _, ln) ->
            let l, s, c = Bytecode.lane_views ln in
            [ l; s; c ])
          (lane_program pl))
      (Compile.plans (Compile.compile ~opt_level:2 prog))
  in
  (* per plan: the three inits, the third fusing [Y]'s store in its
     serial loop's body and [Z]'s after it; relax; [w]'s nest forwards [B[i, j]]
     and fuses both stores, [t]'s forwards both loads and keeps [t]'s
     store, [u]'s fuses [F]'s store, [v]'s forwards [D[i, j]] and fuses
     [F]'s store; the six dot products *)
  Alcotest.(check (list (list int)))
    "-O2 views per lane plan"
    ([
       [ 0; 2; 0 ]; [ 0; 1; 0 ]; [ 0; 2; 0 ]; [ 1; 1; 0 ]; [ 1; 2; 0 ];
       [ 2; 0; 0 ]; [ 0; 1; 0 ]; [ 1; 1; 0 ];
     ]
    @ List.init 6 (fun _ -> [ 0; 0; 1 ]))
    views;
  let t = Compile.compile prog in
  List.iter
    (fun d ->
      let before = lane_views_counted () in
      ignore (Exec.run_compiled ~domains:d ~policy:Policy.Gss t : Exec.outcome);
      Alcotest.(check (list int))
        (Printf.sprintf "counted once per lane fork, %d domain(s)" d)
        [ 5; 10; 6 ]
        (List.map2 ( - ) (lane_views_counted ()) before))
    [ 1; 2 ]

(* ---------- blocked lane folds ---------- *)

let blocked_trips = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 255; 256; 257 ]

(* [blocked_fold_prog] over every trip count of [blocked_trips] on rows
   of as many columns: bit-identical to the scalar runner (one trip at
   a time) and [Eval] at -O0 and -O2 on 1-3 domains under static block,
   GSS and chunk:3, NaN payloads and signed zeros included. At -O2
   every fold nest is one kernel call per entry. [C[i, j] + A[i, k] *
   C[i, j]] reads its accumulator as [y]: it reaches no kernel call. *)
let test_blocked_folds () =
  List.iter
    (fun nj ->
      check_lanes ~lanes:(nj > 1)
        ~what:(Printf.sprintf "blocked folds, nj=%d" nj)
        (parse "blocked folds" (blocked_fold_prog ~trips:blocked_trips nj)))
    blocked_trips;
  let calls text =
    List.filter_map
      (fun pl ->
        Option.map
          (fun (_, _, ln) ->
            let _, _, c = Bytecode.lane_views ln in
            c)
          (lane_program pl))
      (Compile.plans (Compile.compile ~opt_level:2 (parse "calls" text)))
  in
  Alcotest.(check int)
    "-O2 one-call fold nests" (4 * List.length blocked_trips)
    (List.fold_left ( + ) 0 (calls (blocked_fold_prog ~trips:blocked_trips 9)));
  let self =
    "program\n\
    \  real A[2, 9]\n\
    \  real C[2, 9]\n\
     begin\n\
    \  doall i = 1, 2\n\
    \    doall j = 1, 9\n\
    \      C[i, j] = i - j * 0.5\n\
    \      A[i, j] = j * 0.25\n\
    \    end\n\
    \  end\n\
    \  doall i = 1, 2\n\
    \    doall j = 1, 9\n\
    \      do k = 1, 9\n\
    \        C[i, j] = C[i, j] + A[i, k] * C[i, j]\n\
    \      end\n\
    \    end\n\
    \  end\n\
     end\n"
  in
  Alcotest.(check (list int)) "-O2 accumulator as y: no call" [ 0; 0 ]
    (calls self);
  let t = Compile.compile (parse "self" self) in
  let before = lane_views_counted () in
  ignore (Exec.run_compiled ~domains:1 ~policy:Policy.Gss t : Exec.outcome);
  Alcotest.(check int) "accumulator as y: exec.lane_views.call" 0
    (List.nth (List.map2 ( - ) (lane_views_counted ()) before) 2);
  check_lanes ~lanes:true ~what:"accumulator as y" (parse "self" self)

(* [trips] passes of [d.(l) <- a.(l) op x.(l) * y.(l)] one pass at a
   time, the reference for {!Bytecode.k_fmac_trips}. *)
let fmac_passes ~add trips tx ty n (d : float Bytecode.view)
    (a : float Bytecode.view) (x : float Bytecode.view)
    (y : float Bytecode.view) =
  for t = 0 to trips - 1 do
    for l = 0 to n - 1 do
      let c = a.arr.(a.base + (l * a.step)) in
      let xv = x.arr.(x.base + (t * tx) + (l * x.step)) in
      let yv = y.arr.(y.base + (t * ty) + (l * y.step)) in
      let p = xv *. yv in
      d.arr.(d.base + (l * d.step)) <- (if add then c +. p else c -. p)
    done
  done

(* {!Bytecode.k_fmac_trips} against [fmac_passes] on operands no tape
   gives it (a tape's fold accumulator is always a lane array): with
   [x] or [y] over the accumulator's own elements, with an addend other
   than the destination or the destination's array at another base,
   with [x] or [y] outside the unit shape (a row per lane, a walk down
   the lanes), all of which must run pass by pass; and the blocked shape
   itself.
   Trips 1-9 and 255-257 over 1-9 and 255-257 lanes, [+] and [-], the
   broadcast on [x] and on [y], NaNs of both signs and signed zeros. *)
let test_blocked_fold_kernel () =
  let view arr base step = { Bytecode.arr; base; step } in
  let sizes = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 255; 256; 257 ] in
  let value k =
    match k mod 29 with
    | 17 -> Float.nan
    | 23 -> -.Float.nan
    | 5 -> -0.0
    | 11 -> 0.0
    | m -> (float_of_int m /. 3.0) -. 1.7
  in
  let cases trips n =
    (* each: the name, then (destination, addend, x, y, tx, ty) over
       fresh arrays *)
    let acc () = Array.init (n + 8) (fun k -> value (k + 3)) in
    let ops () = Array.init ((trips + 1) * (n + 8)) value in
    let row = n + 8 in
    [
      ( "x broadcast",
        fun () ->
          let m = acc () in
          (view m 1 1, view m 1 1, view (ops ()) 2 0, view (ops ()) 1 1, 1, row)
      );
      ( "y broadcast",
        fun () ->
          let m = acc () in
          (view m 2 1, view m 2 1, view (ops ()) 0 1, view (ops ()) 5 0, row, 1)
      );
      ( "y is the accumulator",
        fun () ->
          let m = acc () in
          (view m 1 1, view m 1 1, view (ops ()) 2 0, view m 1 1, 1, 0) );
      ( "x is the accumulator",
        fun () ->
          let m = acc () in
          (view m 0 1, view m 0 1, view m 0 1, view (ops ()) 3 0, 0, 1) );
      ( "addend elsewhere",
        fun () ->
          (view (acc ()) 1 1, view (acc ()) 1 1, view (ops ()) 2 0,
           view (ops ()) 1 1, 1, row) );
      ( "addend at another base",
        fun () ->
          let m = acc () in
          (view m 1 1, view m 2 1, view (ops ()) 2 0, view (ops ()) 1 1, 1, row)
      );
      ( "x over a row per lane",
        fun () ->
          let m = acc () in
          ( view m 1 1,
            view m 1 1,
            view (ops ()) 0 (trips + 1),
            view (ops ()) 1 0,
            1,
            1 ) );
      ( "y down the lanes",
        fun () ->
          let m = acc () in
          ( view m 0 1,
            view m 0 1,
            view (ops ()) 4 0,
            view (ops ()) (n + 7) (-1),
            1,
            row ) );
    ]
  in
  List.iter
    (fun trips ->
      List.iter
        (fun n ->
          List.iter
            (fun (what, mk) ->
              List.iter
                (fun add ->
                  let d, a, x, y, tx, ty = mk () in
                  let d', a', x', y', _, _ = mk () in
                  Bytecode.k_fmac_trips ~add trips tx ty n d a x y;
                  fmac_passes ~add trips tx ty n d' a' x' y';
                  if
                    not
                      (bits_equal
                         (Array.concat [ d.arr; x.arr; y.arr ])
                         (Array.concat [ d'.arr; x'.arr; y'.arr ]))
                  then
                    Alcotest.failf "%s, %s, %d trips, %d lanes: differs" what
                      (if add then "+" else "-")
                      trips n)
                [ true; false ])
            (cases trips n))
        sizes)
    sizes

(* The view rules with every float register counted a body temporary
   ([scalar_reals = 0]), so that plan scalars — the only registers the
   source can name — take them: at each fork of [prog] the plan runs on
   copies of the registers and arrays under {!Bytecode.lane_runner}, in
   strips of at most [strip] iterations, and under
   {!Bytecode.exec_strip}, whose run the program goes on from; every
   array must agree bit for bit. Returns each lane plan's views. *)
let runner_views ?(what = "") ~lvl ~strip prog =
  let t = Compile.compile ~opt_level:lvl prog in
  let env = Compile.make_env t in
  let ints = env.Compile.ints and reals = env.Compile.reals in
  let arrays = env.Compile.arrays in
  let views = ref [] in
  let fork (pl : Compile.plan) =
    let tape = pl.Compile.tape and d = pl.Compile.depth in
    let slots = pl.Compile.index_slots in
    let jslot = slots.(d - 1) in
    (* level [k] runs from [lo.(k)] by [step k] for [trips k] iterations *)
    let lo = Array.map (fun r -> ints.(r)) pl.Compile.lo_regs in
    let step k = if k = 0 then ints.(pl.Compile.step_reg) else 1 in
    let trips k =
      let h = ints.(pl.Compile.hi_regs.(k)) in
      if h < lo.(k) then 0 else ((h - lo.(k)) / step k) + 1
    in
    let hi = Array.init d (fun k -> lo.(k) + ((trips k - 1) * step k)) in
    let empty = List.exists (fun k -> trips k = 0) (List.init d Fun.id) in
    let len = trips (d - 1) and js = step (d - 1) in
    let pr = Bytecode.prepare tape ~ints ~lo ~hi in
    (* [f] once per strip, the outer indexes set in [ints'] *)
    let nest ints' f =
      let rec go k =
        if k = d - 1 then f ()
        else
          for m = 0 to trips k - 1 do
            ints'.(slots.(k)) <- lo.(k) + (m * step k);
            go (k + 1)
          done
      in
      if not empty then go 0
    in
    let scalar () =
      let inv = Bytecode.make_scratch tape in
      nest ints (fun () ->
          Bytecode.exec_strip tape pr ~ints ~reals ~arrays ~shadow:None ~inv
            ~jslot ~j0:lo.(d - 1) ~jstep:js ~len ~iter0:0)
    in
    match Bytecode.lanes ~jslot ~scalar_reals:0 ~scalar_ints:0 tape with
    | Ok ln
      when (not empty) && Array.for_all Fun.id (Bytecode.unsafe_flags pr) ->
        let l_ints = Array.copy ints and l_arrays = Array.map Array.copy arrays in
        let run =
          Bytecode.lane_runner tape ln (Bytecode.make_lane_state ln)
            ~ints:l_ints ~reals:(Array.copy reals) ~arrays:l_arrays
            ~inv:(Bytecode.make_scratch tape) ~jslot
        in
        nest l_ints (fun () ->
            let p = ref 0 in
            while !p < len do
              let n = min strip (len - !p) in
              run (lo.(d - 1) + (!p * js)) js n;
              p := !p + n
            done);
        scalar ();
        Array.iteri
          (fun a x ->
            Array.iteri
              (fun k v ->
                if not (fbits v l_arrays.(a).(k)) then
                  Alcotest.failf
                    "%s -O%d, strips of %d, plan %d: array %d[%d]: %h vs %h"
                    what lvl strip (List.length !views) a k l_arrays.(a).(k) v)
              x)
          arrays;
        let l, s, c = Bytecode.lane_views ln in
        views := [ l; s; c ] :: !views
    | _ -> scalar ()
  in
  Compile.run_code t env ~fork;
  List.rev !views

(* With plan scalars counted temporaries: the init fuses [Y]'s store
   in its serial loop's body too; [w], loaded and read after a
   store to its array, is not forwarded; [t] is fused into its store;
   [u]'s load is forwarded to its two readers; [v], stored and read
   again, keeps its lane array. Over 1 to 517 iterations in strips of
   1, 3, 256 and the whole. *)
let test_lane_view_rules () =
  List.iter
    (fun n ->
      let prog = parse "views" (lane_view_1d n) in
      List.iter
        (fun lvl ->
          List.iter
            (fun strip ->
              let views = runner_views ~lvl ~strip prog in
              if n > 1 then
                Alcotest.(check (list (list int)))
                  (Printf.sprintf "n=%d, -O%d, strips of %d: views" n lvl strip)
                  (if lvl = 0 then
                     [
                       [ 0; 4; 0 ]; [ 2; 1; 0 ]; [ 2; 2; 0 ]; [ 2; 1; 0 ];
                       [ 1; 1; 0 ]; [ 2; 1; 0 ]; [ 0; 0; 0 ];
                     ]
                   else
                     [
                       [ 0; 4; 0 ]; [ 1; 1; 0 ]; [ 1; 2; 0 ]; [ 2; 1; 0 ];
                       [ 1; 1; 0 ]; [ 1; 1; 0 ]; [ 0; 0; 1 ];
                     ])
                  views)
            [ 1; 3; 256; n ])
        [ 0; 2 ])
    [ 1; 2; 7; 255; 257; 517 ]

(* [runner_views] over the lane corpus: the kernels, the example
   programs and the jam, lane-loop and step-class shapes, whose plan
   scalars, branches and serial loops take the view rules as body
   temporaries would. *)
let test_lane_view_corpus () =
  let dir = "../examples/programs" in
  let files =
    List.filter
      (fun f -> Filename.check_suffix f ".loop")
      (Array.to_list (Sys.readdir dir))
  in
  let progs =
    List.filter_map
      (fun name -> Option.map (fun p -> (name, p ())) (Kernels.by_name name))
      Kernels.all_names
    @ List.map
        (fun f ->
          ( f,
            parse f
              (In_channel.with_open_bin (Filename.concat dir f)
                 In_channel.input_all) ))
        files
    @ List.map
        (fun (what, body) -> (what, parse what (jam_nest ~nk:4 ~nj:9 body)))
        (jam_positives @ jam_folds)
    @ List.map
        (fun (what, text) -> (what, parse what text))
        [
          ("lane loops", lane_loop_prog 9);
          ("generic loops", generic_loop_prog 9);
          ("access forms", lane_loop_forms 9);
          ("step classes", step_class_prog 9);
          ("lane views", lane_view_prog 9);
        ]
  in
  List.iter
    (fun (what, prog) ->
      match Eval.run prog with
      | exception Eval.Runtime_error _ -> ()
      | _ ->
          List.iter
            (fun lvl ->
              List.iter
                (fun strip -> ignore (runner_views ~what ~lvl ~strip prog))
                [ 2; 256 ])
            [ 0; 2 ])
    progs

(* ---------- lane progressions ---------- *)

let lane_index_counted () =
  List.map
    (fun k -> Registry.value (Registry.counter ("exec.lane_views." ^ k)))
    [ "index"; "divmod" ]

(* [lane_index_prog] and [lane_index_1d] bit-identical to scalar
   bytecode and [Eval] over strips of 1 to 517 under static block, GSS
   and chunk:3 at 1-3 domains, [m]'s and [q]'s last values included. At
   -O2, per plan: the inits leave the strip index and both [Iaff]s
   unfilled and run one [mod] on a progression; [Z] and [N] leave
   three [Iaff]s and the index unfilled and run three; [O] two and two;
   [kk]'s gather fills [kk] but not the index; the lane loop fills [q]
   and the index; [m] is read only by a [mod] and the copy-out; the
   one-level nest's index feeds a conversion and a [mod]. Every fork
   counts its progressions once. *)
let test_lane_index () =
  List.iter
    (fun nj ->
      List.iter
        (fun (what, prog) ->
          check_lanes ~lanes:(nj > 1)
            ~what:(Printf.sprintf "%s, nj=%d" what nj)
            (parse what (prog nj)))
        [
          ("lane progressions", lane_index_prog);
          ("one-level progressions", lane_index_1d);
        ])
    [ 1; 2; 3; 255; 256; 257; 517 ];
  let prog = parse "lane progressions" (lane_index_prog 300) in
  let t = Compile.compile ~opt_level:2 prog in
  Alcotest.(check (list (pair int int)))
    "-O2 unfilled progressions and mods per lane plan"
    [ (3, 1); (4, 3); (3, 2); (1, 0); (2, 0); (2, 1); (1, 1) ]
    (List.filter_map
       (fun pl ->
         Option.map (fun (_, _, ln) -> Bytecode.lane_index ln) (lane_program pl))
       (Compile.plans t));
  List.iter
    (fun d ->
      let before = lane_index_counted () in
      ignore (Exec.run_compiled ~domains:d ~policy:Policy.Gss t : Exec.outcome);
      Alcotest.(check (list int))
        (Printf.sprintf "counted once per lane fork, %d domain(s)" d)
        [ 16; 8 ]
        (List.map2 ( - ) (lane_index_counted ()) before))
    [ 1; 2 ]

(* ---------- lane chains ---------- *)

(* Lane chains ({!Bytecode.lane_chains}) over [nj]-column rows, one
   nest per group, on [A], whose rows 2 and 3 hold NaNs of two payloads
   (the default one and its negation) at columns 2 and 3. Chains:
   [A]'s init ([mod] of a progression, then [* 0.5]); stencil's 5-load
   sum [/ 5.0] and stencil1's [0.5 * (l1 + l2)]; sums of 2, 3 and 4
   loads; each tail operator with the uniform [u] on each side, and
   again with the NaN [w]; [float (p mod m) * c] with dividends that
   cross zero, a negative divisor, and passes that overflow; relax's
   [float (p mod 5)] store; [float p] of a progression with a tail on
   each side. Where chains stop: at [x], a plan scalar read twice; at
   a gathered load; before a varying tail operand ([j * 0.5], itself a
   chain) and a fold ([s]); and at a [mod] copied into a plan scalar
   ([m], and [m2], which an access offset reads). *)
let lane_chain_prog nj =
  let sum2 = "(A[i + 1, j] + A[i + 1, j + 1])" in
  let tails v =
    List.mapi
      (fun k (l, r) -> Printf.sprintf "%s[i, j] = %s %s\n" (Printf.sprintf "%c%d" (if v = "u" then 'T' else 'N') (k + 1)) l r)
      [
        (sum2, "+ " ^ v); (v, "+ " ^ sum2); (sum2, "- " ^ v); (v, "- " ^ sum2);
        (sum2, "* " ^ v); (v, "* " ^ sum2); (sum2, "/ " ^ v); (v, "/ " ^ sum2);
      ]
    |> String.concat ""
  in
  let arrays =
    [ "S"; "P"; "Q2"; "Q3"; "Q4" ]
    @ List.init 8 (fun k -> Printf.sprintf "T%d" (k + 1))
    @ List.init 8 (fun k -> Printf.sprintf "N%d" (k + 1))
    @ [ "M1"; "M2"; "M3"; "M4"; "R"; "F1"; "F2"; "G"; "H"; "K"; "V"; "X"; "Y"; "Z" ]
  in
  let nest body =
    Printf.sprintf "  doall i = 1, 3\n    doall j = 1, %d\n%s    end\n  end\n"
      nj
      (String.concat ""
         (List.map (fun l -> "      " ^ l)
            (String.split_on_char '\n' (String.trim body))
         |> List.map (fun l -> l ^ "\n")))
  in
  String.concat ""
    ([
       "program\n";
       Printf.sprintf "  real A[5, %d]\n" (nj + 2);
     ]
    @ List.map (fun a -> Printf.sprintf "  real %s[3, %d]\n" a nj) arrays
    @ [
        "  real u = 1.5\n  real w = 0.0\n  real z = 0.0\n  real x = 0.0\n";
        "  real s = 0.0\n  int kk = 0\n  int m = 0\n  int m2 = 0\n";
        "begin\n";
        Printf.sprintf
          "  doall i = 1, 5\n\
          \    doall j = 1, %d\n\
          \      A[i, j] = (i * 3 + j * 5) %% 11 * 0.5\n\
          \    end\n\
          \  end\n"
          (nj + 2);
        "  A[2, 2] = -(z / z)\n  A[2, 3] = z / z\n  A[3, 2] = z / z\n\
        \  A[3, 3] = -(z / z)\n  w = -(z / z)\n";
        nest
          "S[i, j] = (A[i, j + 1] + A[i + 2, j + 1] + A[i + 1, j] + A[i + 1, j \
           + 2] + A[i + 1, j + 1]) / 5.0\n\
           P[i, j] = 0.5 * (A[i + 1, j] + A[i + 1, j + 2])";
        nest
          ("Q2[i, j] = " ^ sum2
         ^ "\nQ3[i, j] = A[i, j] + A[i + 1, j] + A[i + 2, j]\n\
            Q4[i, j] = A[i, j] + A[i + 1, j + 1] + A[i + 2, j + 2] + A[i + \
            1, j]");
        nest (tails "u");
        nest (tails "w");
        nest
          "M1[i, j] = (j - 300) % 7 * 0.5\n\
           M2[i, j] = (i * 3 - j * 5) % -11 * 0.25\n\
           M3[i, j] = (j * 36028797018963968 + i) % 7 * 2.0\n\
           M4[i, j] = 1.5 - (j + 4611686018427387800) % 9\n\
           R[i, j] = (i + j) % 5";
        nest "F1[i, j] = (i * 103 + j * 7) * 0.5\nF2[i, j] = 2.0 / (j - 4)";
      ]
    @ [
        nest ("x = " ^ sum2 ^ "\nG[i, j] = x * 2.0\nH[i, j] = x * 3.0");
        nest
          (Printf.sprintf "kk = %d - j\nK[i, j] = A[i + 1, kk] + A[i + 1, j]"
             (nj + 1));
        nest
          ("V[i, j] = " ^ sum2 ^ " * (j * 0.5)\ns = s + (A[4, j] + A[5, j])");
        nest "m = (i * 3 + j * 5) % 11\nX[i, j] = m * 0.5";
        nest "m2 = j % 3\nY[i, j] = A[i + 1, m2 + 1] * m2\nZ[i, j] = m2 + 0.5";
        "end\n";
      ])

(* Stencil's 5-load sum [/ 5.0] in the body of a serial loop inside a
   lane plan of [n] rows, a chain the dispatch loop runs each trip; [A]'s
   init, itself a chain, puts NaNs of two payloads in row 2. *)
let chain_loop_prog n =
  Printf.sprintf
    "program\n\
    \  real A[%d, 7]\n\
    \  real B[%d, 5]\n\
    \  real z = 0.0\n\
     begin\n\
    \  doall i = 1, %d\n\
    \    doall j = 1, 7\n\
    \      A[i, j] = (i * 3 + j * 5) %% 11 * 0.5\n\
    \    end\n\
    \  end\n\
    \  A[2, 2] = -(z / z)\n\
    \  A[2, 3] = z / z\n\
    \  doall i = 1, %d\n\
    \    do j = 1, 5\n\
    \      B[i, j] = (A[i, j + 1] + A[i + 2, j + 1] + A[i + 1, j] + A[i + 1, j \
     + 2] + A[i + 1, j + 1]) / 5.0\n\
    \    end\n\
    \  end\n\
     end\n"
    (n + 2) n (n + 2) n

(* One strip of [n] iterations of hand-built [tape], on the lane runner
   and on {!Bytecode.exec_strip}, from copies of [env]'s registers (with
   [extra] more of each kind) and arrays, in row 1 of a depth-2 plan:
   every array element and int register must agree bit for bit. Returns the lane program's chain
   count. *)
let strip_lanes_vs_scalar ~what ~scalar_ints ~jslot ~n ?(extra = 4)
    (env : Compile.env) tape =
  let lo = [| 1; 1 |] and hi = [| 1; n |] in
  let ln =
    match Bytecode.lanes ~jslot ~scalar_reals:0 ~scalar_ints tape with
    | Ok ln -> ln
    | Error why -> Alcotest.failf "%s: no lane program: %s" what why
  in
  let ints () = Array.append env.Compile.ints (Array.make extra 0) in
  let reals () = Array.append env.Compile.reals (Array.make extra 0.0) in
  let arrays () = Array.map Array.copy env.Compile.arrays in
  let ints_s = ints () and arrays_s = arrays () in
  let pr = Bytecode.prepare tape ~ints:ints_s ~lo ~hi in
  Bytecode.exec_strip tape pr ~ints:ints_s ~reals:(reals ()) ~arrays:arrays_s
    ~shadow:None ~inv:(Bytecode.make_scratch tape) ~jslot ~j0:1 ~jstep:1 ~len:n
    ~iter0:0;
  let ints_l = ints () and arrays_l = arrays () in
  Bytecode.lane_runner tape ln (Bytecode.make_lane_state ln) ~ints:ints_l
    ~reals:(reals ()) ~arrays:arrays_l ~inv:(Bytecode.make_scratch tape) ~jslot
    1 1 n;
  Array.iteri
    (fun a x ->
      Array.iteri
        (fun e v ->
          if not (fbits v arrays_l.(a).(e)) then
            Alcotest.failf "%s: array %d[%d]: lanes %h, scalar %h" what a e
              arrays_l.(a).(e) v)
        x)
    arrays_s;
  Array.iteri
    (fun r v ->
      if v <> ints_l.(r) then
        Alcotest.failf "%s: i%d: lanes %d, scalar %d" what r ints_l.(r) v)
    ints_s;
  Bytecode.lane_chains ln

(* The rules no source program reaches, on tapes built by hand around a
   compiled plan's accesses and registers. A chain stops at a block
   start: [t]'s sum, then a serial loop (kept off lane loops by a jump)
   whose top is [D[j] = t * w], [w] uniform and stepped by the loop;
   chaining the top into the sum would run it once, before the loop,
   with the first trip's [w]. A [mod] that writes a plan scalar ([m3],
   whose last value the copy-out must restore), or an int that an
   access offset reads ([m2], with every register counted a temporary),
   is no chain's temporary. *)
let test_chain_hand_tapes () =
  let n = 9 in
  let prog =
    parse "hand tapes"
      (Printf.sprintf
         "program\n\
         \  real A[5, %d]\n\
         \  real Y[3, %d]\n\
         \  real Z[3, %d]\n\
         \  int m2 = 0\n\
         \  int m3 = 0\n\
          begin\n\
         \  doall i = 1, 5\n\
         \    doall j = 1, %d\n\
         \      A[i, j] = i * 3 - j * 0.75\n\
         \    end\n\
         \  end\n\
         \  doall i = 1, 3\n\
         \    doall j = 1, %d\n\
         \      m2 = j %% 3\n\
         \      m3 = j %% 5\n\
         \      Y[i, j] = m2 * 0.5 + A[i + 1, m2 + 1]\n\
         \      Z[i, j] = m3 * 0.5\n\
         \      A[i, j] = A[i + 1, j] + A[i + 2, j]\n\
         \    end\n\
         \  end\n\
          end\n"
         (n + 1) n n (n + 1) n)
  in
  let t = Compile.compile ~opt_level:2 prog in
  let env = Compile.make_env t in
  Compile.run_code t env ~fork:(fun _ -> ());
  let pl = List.nth (Compile.plans t) 1 in
  let tp = pl.Compile.tape in
  let jslot = pl.Compile.index_slots.(1) in
  (* the outer index at row 1 *)
  env.Compile.ints.(pl.Compile.index_slots.(0)) <- 1;
  let with_ops pre ops =
    {
      tp with
      Bytecode.tp_pre = Array.append tp.Bytecode.tp_pre pre;
      tp_ops = ops;
      tp_src = Array.make (Array.length ops) 0;
      tp_pre_src = Array.make (Array.length tp.Bytecode.tp_pre + Array.length pre) 0;
    }
  in
  let ni = Array.length env.Compile.ints and nf = Array.length env.Compile.reals in
  match tp.Bytecode.tp_ops with
  | Bytecode.
      [|
        Imod (_, j, l3);
        Iaff (m2, _);
        Imod (_, _, l5);
        Iaff (m3, _);
        Fofi (f2, _);
        Fload (x, ia);
        Fmac (y, _, _, half);
        Fstore (_, iy);
        Fofi (f3, _);
        Fmul (z, _, _);
        Fstore (_, iz);
        Fld2add (_, a1, a2);
        Fstore (_, ida);
      |]
    when j = jslot ->
      let k = ni and bnd = ni + 1 in
      let one = nf and w = nf + 1 and t1 = nf + 2 and t2 = nf + 3 in
      let block =
        with_ops
          Bytecode.[| Fconst (one, 1.0); Iconst (bnd, 2) |]
          Bytecode.
            [|
              Iconst (k, 1);
              Fmov (w, one);
              Fld2add (t1, a1, a2);
              Fmul (t2, t1, w);
              Fstore (t2, ida);
              Fadd (w, w, one);
              Jmp 7;
              Iloopc (k, 1, bnd, 3);
            |]
      in
      Alcotest.(check int) "block start: the sum alone chains" 1
        (strip_lanes_vs_scalar ~what:"block start" ~scalar_ints:0 ~jslot ~n env
           block);
      let scalar =
        with_ops [||]
          Bytecode.
            [| Imod (m3, j, l5); Fofi (f3, m3); Fmul (z, f3, half); Fstore (z, iz) |]
      in
      Alcotest.(check int) "mod into a plan scalar: no chain" 0
        (strip_lanes_vs_scalar ~what:"plan scalar"
           ~scalar_ints:pl.Compile.scalar_ints ~jslot ~n env scalar);
      let offset =
        with_ops [||]
          Bytecode.
            [|
              Imod (m2, j, l3);
              Fofi (f2, m2);
              Fload (x, ia);
              Fmac (y, x, f2, half);
              Fstore (y, iy);
            |]
      in
      Alcotest.(check int) "mod read by an offset: no chain" 0
        (strip_lanes_vs_scalar ~what:"offset" ~scalar_ints:0 ~jslot ~n env
           offset)
  | _ -> Alcotest.failf "unexpected -O2 tape:\n%s" (Bytecode.pp_tape tp)

let lane_chains_counted () =
  Registry.value (Registry.counter "exec.lane_views.chain")

(* [lane_chain_prog] bit-identical to scalar bytecode and [Eval] over
   strips of 1 to 517 under static block, GSS and chunk:3 at 1-3
   domains, NaN payloads included, and [chain_loop_prog] likewise; with
   plan scalars counted temporaries on a runner ([runner_views]), where
   [x], [m] and [m2] would chain if the rules let them; and each plan's
   chains pinned at -O2, counted once per lane fork. *)
let test_lane_chains () =
  List.iter
    (fun nj ->
      check_lanes ~lanes:(nj > 1)
        ~what:(Printf.sprintf "lane chains nj=%d" nj)
        (parse "lane chains" (lane_chain_prog nj));
      check_lanes ~lanes:(nj > 1)
        ~what:(Printf.sprintf "chain in a serial loop, n=%d" nj)
        (parse "chain in a serial loop" (chain_loop_prog nj)))
    [ 1; 2; 3; 255; 256; 257; 517 ];
  List.iter
    (fun n ->
      check_lanes ~lanes:(n > 1)
        ~what:(Printf.sprintf "chain kernels, n=%d" n)
        (parse "chain kernels" (lane_chain_1d n)))
    [ 1; 2; 5; 257 ];
  Alcotest.(check (list int))
    "-O2 chain kernels: chains per lane plan" [ 1; 53; 53 ]
    (List.filter_map
       (fun pl ->
         Option.map (fun (_, _, ln) -> Bytecode.lane_chains ln) (lane_program pl))
       (Compile.plans
          (Compile.compile ~opt_level:2 (parse "chain kernels" (lane_chain_1d 9)))));
  let looped =
    Compile.compile ~opt_level:2 (parse "loop" (chain_loop_prog 300))
  in
  Alcotest.(check (list int))
    "-O2 chain in a serial loop: chains per lane plan" [ 1; 1 ]
    (List.filter_map
       (fun pl ->
         Option.map (fun (_, _, ln) -> Bytecode.lane_chains ln) (lane_program pl))
       (Compile.plans looped));
  List.iter
    (fun d ->
      let before = lane_chains_counted () in
      ignore
        (Exec.run_compiled ~domains:d ~policy:Policy.Gss looped : Exec.outcome);
      Alcotest.(check int)
        (Printf.sprintf "chain in a serial loop: counted, %d domain(s)" d)
        2
        (lane_chains_counted () - before))
    [ 1; 2 ];
  let prog = parse "lane chains" (lane_chain_prog 300) in
  List.iter
    (fun lvl ->
      List.iter
        (fun strip ->
          ignore (runner_views ~what:"lane chains" ~lvl ~strip prog))
        [ 1; 3; 256; 300 ])
    [ 0; 2 ];
  let t = Compile.compile ~opt_level:2 prog in
  Alcotest.(check (list int))
    "-O2 chains per lane plan"
    [ 1; 2; 3; 8; 8; 5; 2; 1; 0; 3; 0; 0 ]
    (List.filter_map
       (fun pl ->
         Option.map (fun (_, _, ln) -> Bytecode.lane_chains ln) (lane_program pl))
       (Compile.plans t));
  List.iter
    (fun d ->
      let before = lane_chains_counted () in
      ignore (Exec.run_compiled ~domains:d ~policy:Policy.Gss t : Exec.outcome);
      Alcotest.(check int)
        (Printf.sprintf "counted once per lane fork, %d domain(s)" d)
        33
        (lane_chains_counted () - before))
    [ 1; 2 ]

(* A fused form's loads fault in the interpreter's order, right operand
   first, on the checked path: the dot product's [B[k, j]] before
   [A[i, k]] at [k = 10], and [A[i + 9]] before [A[i + 5]]. [Eval],
   bytecode and native where a toolchain exists, at -O0 and -O2 and 1
   and 2 domains. *)
let test_fused_fault_order () =
  let engines =
    Exec.Bytecode
    :: (if Runtime.Natgen.available () = Ok () then [ Exec.Native ] else [])
  in
  List.iter
    (fun (text, want) ->
      let p = parse "fault order" text in
      (match Eval.run p with
      | _ -> Alcotest.fail "Eval ran"
      | exception Eval.Runtime_error m -> Alcotest.(check string) "Eval" want m);
      List.iter
        (fun lvl ->
          let t = Compile.compile ~opt_level:lvl p in
          List.iter
            (fun engine ->
              List.iter
                (fun domains ->
                  match
                    Exec.run_compiled ~domains ~policy:Policy.Gss ~engine t
                  with
                  | _ -> Alcotest.fail "ran"
                  | exception Compile.Error m ->
                      Alcotest.(check string)
                        (Printf.sprintf "%s -O%d, %d domain(s)"
                           (if engine = Exec.Native then "native"
                            else "bytecode")
                           lvl domains)
                        want m)
                [ 1; 2 ])
            engines)
        [ 0; 2 ])
    [
      ( "program\n\
        \  real A[4, 9]\n\
        \  real B[9, 5]\n\
        \  real C[4, 5]\n\
         begin\n\
        \  doall i = 1, 4\n\
        \    doall j = 1, 5\n\
        \      do k = 8, 10\n\
        \        C[i, j] = C[i, j] + A[i, k] * B[k, j]\n\
        \      end\n\
        \    end\n\
        \  end\n\
         end\n",
        "array B: subscript 10 out of bounds 1..9" );
      ( "program\n\
        \  real A[4]\n\
        \  real B[4]\n\
         begin\n\
        \  doall i = 1, 4\n\
        \    B[i] = A[i + 5] + A[i + 9]\n\
        \  end\n\
         end\n",
        "array A: subscript 10 out of bounds 1..4" );
    ]

(* ---------- range proof: soundness, overflow, allocation ---------- *)

(* The hull evaluator as it was written before it moved onto a two-slot
   scratch, tuples and all: the rewrite must agree with it exactly,
   [None] included. *)
let reference_hull ~ints ~lo ~hi (r : Bytecode.rng) =
  let exception Unknown in
  let exception Over in
  let add a b =
    let s = a + b in
    if (a >= 0) = (b >= 0) && (s >= 0) <> (a >= 0) then raise Over else s
  in
  let mul a b =
    if a = 0 || b = 0 then 0
    else if (a = -1 && b = min_int) || (b = -1 && a = min_int) then raise Over
    else
      let p = a * b in
      if p / b <> a then raise Over else p
  in
  let rec go : Bytecode.rng -> int * int = function
    | Rux -> raise Unknown
    | Rconst n -> (n, n)
    | Rplan k -> (lo.(k), hi.(k))
    | Rreg s -> (ints.(s), ints.(s))
    | Raff (base, terms) ->
        Array.fold_left
          (fun (a, b) (c, t) ->
            let x, y = go t in
            let p = mul c x and q = mul c y in
            (add a (min p q), add b (max p q)))
          (base, base) terms
    | Rmul (a, b) ->
        let al, ah = go a and bl, bh = go b in
        let p1 = mul al bl and p2 = mul al bh in
        let p3 = mul ah bl and p4 = mul ah bh in
        (min (min p1 p2) (min p3 p4), max (max p1 p2) (max p3 p4))
    | Rmin (a, b) ->
        let al, ah = go a and bl, bh = go b in
        (min al bl, min ah bh)
    | Rmax (a, b) ->
        let al, ah = go a and bl, bh = go b in
        (max al bl, max ah bh)
    | Rspan (a, b) ->
        let al, _ = go a and _, bh = go b in
        (al, bh)
  in
  match go r with h -> Some h | exception (Unknown | Over) -> None

(* Skeletons over plan levels 0-1 and registers 0-2, leaves and
   coefficients from [value]; [Rux] is rare. *)
let rng_gen (value : int QCheck.Gen.t) : Bytecode.rng QCheck.Gen.t =
  let open QCheck.Gen in
  let leaf =
    frequency
      [
        (1, return Bytecode.Rux);
        (3, map (fun n -> Bytecode.Rconst n) value);
        (4, map (fun k -> Bytecode.Rplan k) (int_range 0 1));
        (3, map (fun r -> Bytecode.Rreg r) (int_range 0 2));
      ]
  in
  fix
    (fun self d ->
      if d = 0 then leaf
      else
        let sub = self (d - 1) in
        frequency
          [
            (3, leaf);
            ( 2,
              map2
                (fun b ts -> Bytecode.Raff (b, Array.of_list ts))
                value
                (list_size (int_range 1 3) (pair value sub)) );
            (1, map2 (fun a b -> Bytecode.Rmul (a, b)) sub sub);
            (1, map2 (fun a b -> Bytecode.Rmin (a, b)) sub sub);
            (1, map2 (fun a b -> Bytecode.Rmax (a, b)) sub sub);
            (1, map2 (fun a b -> Bytecode.Rspan (a, b)) sub sub);
          ])
    3

let rec rng_to_string : Bytecode.rng -> string = function
  | Rux -> "?"
  | Rconst n -> string_of_int n
  | Rplan k -> Printf.sprintf "p%d" k
  | Rreg r -> Printf.sprintf "r%d" r
  | Raff (b, ts) ->
      Printf.sprintf "(%d%s)" b
        (String.concat ""
           (Array.to_list
              (Array.map
                 (fun (c, t) -> Printf.sprintf " + %d*%s" c (rng_to_string t))
                 ts)))
  | Rmul (a, b) -> Printf.sprintf "(%s * %s)" (rng_to_string a) (rng_to_string b)
  | Rmin (a, b) -> Printf.sprintf "min(%s, %s)" (rng_to_string a) (rng_to_string b)
  | Rmax (a, b) -> Printf.sprintf "max(%s, %s)" (rng_to_string a) (rng_to_string b)
  | Rspan (a, b) -> Printf.sprintf "[%s .. %s]" (rng_to_string a) (rng_to_string b)

(* A fork's inputs: register values and each plan level's [lo <= hi]. *)
let box_gen (value : int QCheck.Gen.t) =
  let open QCheck.Gen in
  let level = map2 (fun a b -> (min a b, max a b)) value value in
  triple (array_size (return 3) value) level level

let hull_case value =
  QCheck.make
    ~print:(fun (r, (ints, (l0, h0), (l1, h1))) ->
      Printf.sprintf "%s  regs [%s]  p0 %d..%d  p1 %d..%d" (rng_to_string r)
        (String.concat "; " (Array.to_list (Array.map string_of_int ints)))
        l0 h0 l1 h1)
    QCheck.Gen.(pair (rng_gen value) (box_gen value))

(* Every value a skeleton takes at plan point [x]: a serial index
   ([Rspan]) every value between one of its bounds' lows and one of its
   highs; [None] under an [Rux]. *)
let rec rng_values ints x : Bytecode.rng -> int list option =
  let uniq l = Some (List.sort_uniq Int.compare l) in
  let both a b f =
    match (rng_values ints x a, rng_values ints x b) with
    | Some va, Some vb -> uniq (List.concat_map (fun u -> List.concat_map (f u) vb) va)
    | _ -> None
  in
  function
  | Rux -> None
  | Rconst n -> Some [ n ]
  | Rplan k -> Some [ x.(k) ]
  | Rreg r -> Some [ ints.(r) ]
  | Raff (b, ts) ->
      Array.fold_left
        (fun acc (c, t) ->
          match (acc, rng_values ints x t) with
          | Some va, Some vt ->
              uniq (List.concat_map (fun a -> List.map (fun v -> a + (c * v)) vt) va)
          | _ -> None)
        (Some [ b ]) ts
  | Rmul (a, b) -> both a b (fun u v -> [ u * v ])
  | Rmin (a, b) -> both a b (fun u v -> [ min u v ])
  | Rmax (a, b) -> both a b (fun u v -> [ max u v ])
  | Rspan (a, b) -> both a b (fun u v -> List.init (max 0 (v - u + 1)) (( + ) u))

(* Soundness, by enumeration over small boxes: the hull holds every
   value the skeleton takes at every plan point, and it is [None] only
   under an [Rux] (nothing here can overflow). *)
let prop_hull_sound =
  QCheck.Test.make ~count:500 ~name:"range proof: hull holds every value"
    (hull_case QCheck.Gen.(int_range (-3) 3))
    (fun (r, (ints, (l0, h0), (l1, h1))) ->
      let lo = [| l0; l1 |] and hi = [| h0; h1 |] in
      let hull = Bytecode.rng_eval ~ints ~lo ~hi r in
      let points =
        List.concat_map
          (fun a -> List.init (h1 - l1 + 1) (fun b -> [| a; l1 + b |]))
          (List.init (h0 - l0 + 1) (( + ) l0))
      in
      hull = reference_hull ~ints ~lo ~hi r
      &&
      match hull with
      | None -> Option.is_none (rng_values ints [| l0; l1 |] r)
      | Some (l, h) ->
          List.for_all
            (fun x ->
              match rng_values ints x r with
              | Some vs -> List.for_all (fun v -> l <= v && v <= h) vs
              | None -> false)
            points)

(* Values at the edges of the int range, where a bound can wrap. *)
let edge_value =
  let open QCheck.Gen in
  oneof
    [
      int_range (-3) 3;
      map (fun d -> max_int - d) (int_range 0 3);
      map (fun d -> min_int + d) (int_range 0 3);
      map (fun d -> (1 lsl 61) + d) (int_range (-2) 2);
      map (fun d -> -(1 lsl 61) + d) (int_range (-2) 2);
      map (fun d -> (1 lsl 31) + d) (int_range (-2) 2);
    ]

(* Exact integers for the overflow model: a sign and a magnitude in
   base-2^15 digits, least significant first, without high zeros. *)
module Exact = struct
  type t = bool * int list (* negative, magnitude *)

  let base = 1 lsl 15

  let of_int n : t =
    (* [n mod base] and [n / base] round towards zero, so the digits of
       a negative [n] (min_int too) are the absolute remainders *)
    let rec digits n = if n = 0 then [] else abs (n mod base) :: digits (n / base) in
    (n < 0, digits n)

  let rec trim = function
    | [] -> []
    | d :: rest -> (
        match trim rest with [] when d = 0 -> [] | rest -> d :: rest)

  let rec mag_cmp a b =
    match (a, b) with
    | [], [] -> 0
    | [], _ -> -1
    | _, [] -> 1
    | x :: a', y :: b' ->
        let c = mag_cmp a' b' in
        if c <> 0 then c else compare x y

  let mag_cmp a b = mag_cmp (trim a) (trim b)

  let rec mag_add carry a b =
    match (a, b) with
    | [], [] -> if carry = 0 then [] else [ carry ]
    | x :: a', [] | [], x :: a' ->
        let s = x + carry in
        (s mod base) :: mag_add (s / base) a' []
    | x :: a', y :: b' ->
        let s = x + y + carry in
        (s mod base) :: mag_add (s / base) a' b'

  (* [a - b] for [a >= b] *)
  let rec mag_sub borrow a b =
    match (a, b) with
    | [], _ -> []
    | x :: a', _ ->
        let y, b' = match b with [] -> (0, []) | y :: b' -> (y, b') in
        let d = x - y - borrow in
        if d < 0 then (d + base) :: mag_sub 1 a' b' else d :: mag_sub 0 a' b'

  let mag_mul a b =
    List.fold_left
      (fun (acc, shift) x ->
        let row = List.map (fun y -> x * y) b in
        (* propagate carries through the row, then add it shifted *)
        let rec carry c = function
          | [] -> if c = 0 then [] else (c mod base) :: carry (c / base) []
          | d :: rest ->
              let s = d + c in
              (s mod base) :: carry (s / base) rest
        in
        (mag_add 0 acc (List.init shift (fun _ -> 0) @ carry 0 row), shift + 1))
      ([], 0) a
    |> fst

  let norm ((neg, m) : t) : t =
    let m = trim m in
    (neg && m <> [], m)

  let add ((na, a) : t) ((nb, b) : t) =
    if na = nb then norm (na, mag_add 0 a b)
    else if mag_cmp a b >= 0 then norm (na, mag_sub 0 a b)
    else norm (nb, mag_sub 0 b a)

  let mul ((na, a) : t) ((nb, b) : t) = norm (na <> nb, mag_mul a b)

  let compare ((na, a) : t) ((nb, b) : t) =
    match (na, nb) with
    | false, true -> 1
    | true, false -> -1
    | false, false -> mag_cmp a b
    | true, true -> mag_cmp b a

  let min a b = if compare a b <= 0 then a else b
  let max a b = if compare a b >= 0 then a else b
  let fits x = compare x (of_int min_int) >= 0 && compare x (of_int max_int) <= 0
  let equal_int x n = compare x (of_int n) = 0
end

(* The skeleton's hull in exact arithmetic, following the evaluator's
   formulas, and whether a sum or product it forms leaves the int range;
   [None] under an [Rux]. *)
let exact_hull ~ints ~lo ~hi r =
  let left = ref false in
  let chk x =
    if not (Exact.fits x) then left := true;
    x
  in
  let ( +! ) a b = chk (Exact.add a b) and ( *! ) a b = chk (Exact.mul a b) in
  let e = Exact.of_int in
  let exception Unknown in
  let rec go : Bytecode.rng -> Exact.t * Exact.t = function
    | Rux -> raise Unknown
    | Rconst n -> (e n, e n)
    | Rplan k -> (e lo.(k), e hi.(k))
    | Rreg s -> (e ints.(s), e ints.(s))
    | Raff (base, terms) ->
        Array.fold_left
          (fun (a, b) (c, t) ->
            let x, y = go t in
            let p = e c *! x and q = e c *! y in
            (a +! Exact.min p q, b +! Exact.max p q))
          (e base, e base) terms
    | Rmul (a, b) ->
        let al, ah = go a and bl, bh = go b in
        let ps = [ al *! bl; al *! bh; ah *! bl; ah *! bh ] in
        ( List.fold_left Exact.min (List.hd ps) ps,
          List.fold_left Exact.max (List.hd ps) ps )
    | Rmin (a, b) ->
        let al, ah = go a and bl, bh = go b in
        (Exact.min al bl, Exact.min ah bh)
    | Rmax (a, b) ->
        let al, ah = go a and bl, bh = go b in
        (Exact.max al bl, Exact.max ah bh)
    | Rspan (a, b) ->
        let al, _ = go a and _, bh = go b in
        (al, bh)
  in
  match go r with h -> Some (h, !left) | exception Unknown -> None

(* Overflow: with values at the edges of the int range, a sum or product
   that leaves it makes the hull [None], and a hull that is returned is
   the exact one, never one wrapped round the int range. *)
let prop_hull_overflow =
  QCheck.Test.make ~count:2000 ~name:"range proof: overflow never wraps a hull"
    (hull_case edge_value)
    (fun (r, (ints, (l0, h0), (l1, h1))) ->
      let lo = [| l0; l1 |] and hi = [| h0; h1 |] in
      let hull = Bytecode.rng_eval ~ints ~lo ~hi r in
      hull = reference_hull ~ints ~lo ~hi r
      &&
      match (hull, exact_hull ~ints ~lo ~hi r) with
      | None, None -> true
      | None, Some (_, left) -> left
      | Some _, None -> false
      | Some (l, h), Some ((el, eh), left) ->
          (not left) && Exact.equal_int el l && Exact.equal_int eh h)

(* [A[i * c + k]] in a 10-element array: the plan's tape, read in a
   fork hook, and the slots of [c] and [k]. *)
let wrap_tape =
  lazy
    (let prog =
       parse "wrap"
         "program\n\
         \  real A[10]\n\
         \  int c = 0\n\
         \  int k = 0\n\
          begin\n\
         \  c = 3\n\
         \  k = -2\n\
         \  doall i = 1, 10\n\
         \    A[i * c + k] = 1.0\n\
         \  end\n\
          end\n"
     in
     let t = Compile.compile prog in
     let env = Compile.make_env t in
     let found = ref None in
     Compile.run_code t env ~fork:(fun pl -> found := Some pl.Compile.tape);
     let tape = Option.get !found in
     (* the proof's two register inputs, found by the values set above *)
     let slot v =
       match
         List.find_opt
           (fun s -> env.Compile.ints.(s) = v)
           (Array.to_list (Bytecode.proof_inputs tape))
       with
       | Some s -> s
       | None -> Alcotest.failf "wrap: no proof input holds %d" v
     in
     (tape, slot 3, slot (-2)))

(* Exact [a * b] and [a + b], [None] when the result leaves the int
   range. *)
let mul_exact a b =
  if a = 0 || b = 0 then Some 0
  else if (a = -1 && b = min_int) || (b = -1 && a = min_int) then None
  else
    let p = a * b in
    if p / b = a then Some p else None

let add_exact a b =
  let s = a + b in
  if (a >= 0) = (b >= 0) && (s >= 0) <> (a >= 0) then None else Some s

(* The access of [wrap_tape] is proved exactly when [i * c + k] stays in
   the int range at every step and lies in [1 .. 10] at both ends of the
   fork's [i] range: a product that wraps round to a subscript in range
   (say [4 * (2^61 + 1)]) leaves it checked. *)
let prop_access_overflow =
  QCheck.Test.make ~count:2000
    ~name:"range proof: a wrapping access stays checked"
    QCheck.(
      make
        ~print:(fun (c, k, (l, h)) ->
          Printf.sprintf "c=%d k=%d i=%d..%d" c k l h)
        Gen.(
          triple edge_value edge_value
            (map2 (fun a b -> (min a b, max a b)) edge_value edge_value)))
    (fun (c, k, (l, h)) ->
      let tape, c_slot, k_slot = Lazy.force wrap_tape in
      let ints = Array.make (max c_slot k_slot + 1) 0 in
      ints.(c_slot) <- c;
      ints.(k_slot) <- k;
      let pr = Bytecode.prepare tape ~ints ~lo:[| l |] ~hi:[| h |] in
      let in_range i =
        match Option.bind (mul_exact i c) (add_exact k) with
        | Some v -> 1 <= v && v <= 10
        | None -> false
      in
      Bytecode.all_unsafe pr = (in_range l && in_range h))

(* [prepare] allocates its flags array (a header and a word per access)
   and its two-field record, nothing else: not on the kernels' forks,
   and not when a bound overflows ([wrap_tape] at [c = 2^61 + 1]). *)
let test_prepare_allocation () =
  let base = minor_words ignore in
  let check what tape ~ints ~lo ~hi =
    let allowed = Array.length tape.Bytecode.tp_accs + 1 + 3 in
    ignore (Bytecode.prepare tape ~ints ~lo ~hi : Bytecode.prep);
    let words =
      minor_words (fun () ->
          ignore
            (Sys.opaque_identity (Bytecode.prepare tape ~ints ~lo ~hi)
              : Bytecode.prep))
    in
    if words -. base > float allowed then
      Alcotest.failf "%s: prepare allocated %.0f words, at most %d allowed" what
        (words -. base) allowed
  in
  List.iter
    (fun name ->
      let t = Compile.compile ((Option.get (Kernels.by_name name)) ()) in
      let env = Compile.make_env t in
      let ints = env.Compile.ints in
      Compile.run_code t env ~fork:(fun pl ->
          let reg r = ints.(r) in
          check name pl.Compile.tape ~ints
            ~lo:(Array.map reg pl.Compile.lo_regs)
            ~hi:(Array.map reg pl.Compile.hi_regs)))
    Kernels.all_names;
  let tape, c_slot, _ = Lazy.force wrap_tape in
  let ints = Array.make (c_slot + 8) 0 in
  ints.(c_slot) <- (1 lsl 61) + 1;
  check "overflowing product" tape ~ints ~lo:[| 4 |] ~hi:[| 4 |];
  Alcotest.(check bool) "overflowing product: checked" false
    (Bytecode.all_unsafe (Bytecode.prepare tape ~ints ~lo:[| 4 |] ~hi:[| 4 |]))

let suite =
  [
    Alcotest.test_case "strip bounds pinned" `Quick test_strip_bounds;
    Alcotest.test_case "unit programs across engines" `Quick
      test_unit_programs;
    Alcotest.test_case "failing range test falls back checked" `Quick
      test_range_fail_falls_back;
    Alcotest.test_case "sanitized tape stays checked" `Quick
      test_sanitized_tape_stays_checked;
    Alcotest.test_case "sanitizer on bytecode engine" `Quick
      test_sanitizer_on_bytecode;
    Alcotest.test_case
      "strip back-edge: -O2 = -O0 = Eval (results, traces, metrics, sanitizer)"
      `Quick test_strip_backedge_identical;
    Alcotest.test_case "sanitizer identical across opt levels" `Quick
      test_sanitizer_identical_across_opt;
    Alcotest.test_case "lane rules: first failing rule per shape" `Quick
      test_lane_reasons;
    Alcotest.test_case "lane path: strips 1 .. lane_width + 1 and across"
      `Slow test_lane_strip_lengths;
    Alcotest.test_case "lane path: jam shapes, kernels, examples" `Quick
      test_lane_corpus;
    Alcotest.test_case "lane path: gathers and scalar fallbacks" `Quick
      test_lane_fallbacks;
    Gen.to_alcotest prop_lanes_agree;
    Gen.to_alcotest prop_lanes_serial_loops;
    Gen.to_alcotest prop_doall_nests_agree;
    Gen.to_alcotest prop_promotion_agrees;
    Gen.to_alcotest prop_branchy_varstep_agrees;
    Alcotest.test_case "lane path: operand step classes across lane_width"
      `Quick test_lane_strides;
    Alcotest.test_case "range proof through a scalar assigned once" `Quick
      test_scalar_range;
    Alcotest.test_case "lane folds: bit-identical to scalar and Eval" `Quick
      test_lane_folds;
    Alcotest.test_case "scalar fork reasons" `Quick test_scalar_fork_reasons;
    Alcotest.test_case
      "lane kernels: every form and operand step class = scalar = Eval"
      `Quick test_lane_step_classes;
    Alcotest.test_case "lane runner: a repeat strip allocates nothing" `Quick
      test_lane_runner_allocation;
    Alcotest.test_case "promotion keeps the interpreter's fault order" `Quick
      test_promotion_fault_order;
    Alcotest.test_case "lane loops: fused and generic loops per rule" `Quick
      test_lane_loop_rules;
    Alcotest.test_case "lane loops: strips of 1 .. 517 = scalar = Eval" `Slow
      test_lane_loop_strips;
    Alcotest.test_case "lane loops: counted per lane fork; a zero step raises"
      `Quick test_lane_loop_counts;
    Alcotest.test_case "lane views: strips of 1 .. 517 = scalar = Eval" `Slow
      test_lane_views;
    Alcotest.test_case "lane views: forwarding and fusion rules on a runner"
      `Quick test_lane_view_rules;
    Alcotest.test_case "lane views: plan scalars as temporaries, lane corpus"
      `Quick test_lane_view_corpus;
    Alcotest.test_case "lane progressions: strips 1 .. 517 = scalar = Eval"
      `Slow test_lane_index;
    Alcotest.test_case "fused loads keep the interpreter's fault order" `Quick
      test_fused_fault_order;
    Alcotest.test_case "lane chains: strips 1 .. 517 = scalar = Eval" `Slow
      test_lane_chains;
    Alcotest.test_case "lane chains: hand-built tapes the source cannot reach"
      `Quick test_chain_hand_tapes;
    Alcotest.test_case "blocked lane folds = per-trip = Eval" `Slow
      test_blocked_folds;
    Alcotest.test_case "blocked lane folds: kernel shapes = per-trip" `Quick
      test_blocked_fold_kernel;
    Gen.to_alcotest prop_hull_sound;
    Gen.to_alcotest prop_hull_overflow;
    Gen.to_alcotest prop_access_overflow;
    Alcotest.test_case "range proof: prepare allocates flags and record only"
      `Quick test_prepare_allocation;
  ]
