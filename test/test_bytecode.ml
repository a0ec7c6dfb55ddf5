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

let plan_flags compiled =
  let env = Compile.make_env compiled ~fork:(fun _ _ -> ()) in
  List.map
    (fun (pl : Compile.plan) ->
      let tape = pl.Compile.tape in
      let lo = Array.map (fun f -> f env) pl.Compile.lo_x in
      let hi = Array.map (fun f -> f env) pl.Compile.hi_x in
      ( tape,
        Bytecode.unsafe_flags
          (Bytecode.prepare tape ~ints:env.Compile.ints ~lo ~hi) ))
    (Compile.plans compiled)

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
   pipeline streams with shared store slots (exclusive if/else arms
   writing the same element) and run-time offset bumps (serial step
   depending on the outer index). The accumulator scalar is privatized
   per iteration by writing it before the k loop. *)
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
   The serial k-loop gives the optimizer streamed offsets and
   promotion. *)
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
   a data-dependent branch (exclusive arms writing the same element, so
   the optimizer shares one stream slot across them) and the k loop's
   step is the outer index (a run-time offset bump). *)
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

(* A carried float sum next to a strip stream: every iteration reads
   and writes [s], so lanes reject the body and every strip runs on the
   scalar runner. The addends are quarters, so every partial sum is
   exact and the domain-order reduction merge equals [Eval]'s
   sequential sum bit for bit at any domain count. *)
let trip_prog_sum ~trips =
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
                Ast.Assign (Scalar "s", Bin (Add, Var "s", wij));
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

(* Arrays and scalars bit for bit against [Eval]'s final store. *)
let same_bits_as_eval (o : Exec.outcome) st =
  let arrays, scalars = Eval.dump st in
  List.equal
    (fun (n1, d1) (n2, d2) -> String.equal n1 n2 && bits_equal d1 d2)
    arrays o.Exec.arrays
  && List.equal
       (fun (n1, v1) (n2, v2) ->
         String.equal n1 n2
         &&
         match (v1, v2) with
         | Eval.Vreal x, Eval.Vreal y -> bits_equal [| x |] [| y |]
         | v1, v2 -> v1 = v2)
       scalars o.Exec.scalars

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
              if not (same_bits_as_eval o0 st) then
                Alcotest.failf "%s: -O0 differs from Eval" where;
              if not (same_bits_as_eval o2 st) then
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
              if not (same_bits_as_eval o st) then
                Alcotest.failf "%s: sanitized run differs from Eval" where;
              if snd (Sanitize.results sh) <> 0 then
                Alcotest.failf "%s: sanitizer flags a race-free program" where)
            strip_schedules)
        strip_trips)
    [
      ("plain", trip_prog);
      ("branchy variable-step", trip_prog_branchy);
      ("carried sum", trip_prog_sum);
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
  (* The carried sum really runs scalar: lanes reject its body. *)
  Alcotest.(check (list string))
    "carried sum is not lane-eligible"
    [ "register carried across iterations" ]
    (List.map
       (fun (pl : Compile.plan) ->
         let jslot = pl.Compile.index_slots.(pl.Compile.depth - 1) in
         match Bytecode.lanes ~jslot pl.Compile.tape with
         | Ok _ -> "ok"
         | Error why -> why)
       (Compile.plans (Compile.compile ~opt_level:2 (trip_prog_sum ~trips:9))))

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
   strip-carried scalar, a divisor that is not a literal, a store every
   iteration would make to one element, and a data-dependent branch *)
let jam_negatives =
  [
    ( "strip-carried scalar",
      "",
      "      C[i, j] = 0.0\n\
      \      do k = 1, 3\n\
      \        C[i, j] = C[i, j] + A[i, k] * B[k, j]\n\
      \      end\n\
      \      t = t + C[i, j]\n",
      "register carried across iterations" );
    ( "non-literal divisor",
      "  int d = 2\n",
      "      C[i, j] = 0.0\n\
      \      do k = 1, 3\n\
      \        C[i, j] = C[i, j] + A[i, k] * ((j + k) / d)\n\
      \      end\n",
      "may raise" );
    ( "store at a strip-invariant element",
      "",
      "      C[i, j] = 0.0\n\
      \      do k = 1, 3\n\
      \        C[i, j] = C[i, j] + A[i, k] * B[k, j]\n\
      \      end\n\
      \      T[i] = A[i, 1] * 2.0\n",
      "stored array not at one offset inv + c*j" );
    ( "data-dependent if",
      "",
      "      C[i, j] = 0.0\n\
      \      do k = 1, 3\n\
      \        if B[k, j] > 0.0 then\n\
      \          C[i, j] = C[i, j] + A[i, k]\n\
      \        end\n\
      \      end\n",
      "float compare" );
  ]


let parse what text =
  match Driver.load_string text with
  | Ok p -> p
  | Error m -> Alcotest.failf "%s: parse error: %s" what m

let lane_forks = Registry.counter "exec.lane_forks"

(* Every bit of every array and scalar. *)
let same_bits (a : Exec.outcome) (b : Exec.outcome) =
  let fbits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  List.equal
    (fun (n1, d1) (n2, d2) ->
      String.equal n1 n2
      && Array.length d1 = Array.length d2
      && Array.for_all2 fbits d1 d2)
    a.Exec.arrays b.Exec.arrays
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
  let reference =
    let arrays, scalars = Eval.dump st in
    { Exec.arrays; scalars }
  in
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
                  Some "lane path differs from the scalar interpreter"
                else if
                  not
                    (Exec.agrees_with_interpreter ~compare_scalars:(d = 1) lane
                       st)
                then Some "differs from the reference interpreter"
                else if d = 1 && not (same_bits lane reference) then
                  Some "not bit-identical to the reference interpreter"
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
      match Bytecode.lanes ~jslot pl.Compile.tape with
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
    [ "stored array not at one offset inv + c*j" ]
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
    jam_positives;
  Alcotest.(check (list string))
    "sanitized tape" [ "sanitized tape" ]
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
    jam_positives;
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

(* Race-free DOALL nests, and nests around serial accumulations and
   branchy variable-step loops (streams, promoted elements, uniform
   branches), on 1-3 domains: every program of these generators takes
   the lane path somewhere. *)
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
  ]
