(* Runtime tests: the staging compiler and the multi-domain executor.

   The load-bearing property: for every built-in kernel and every
   scheduling policy, parallel execution on 1, 2 and 4 domains produces
   arrays bit-identical to the sequential reference interpreter —
   including reduction kernels, whose per-domain partials merge exactly
   because the test reductions accumulate integral values (FP addition
   of integers is exact, so any association agrees bit-for-bit). *)

open Loopcoal
module B = Builder
module Exec = Runtime.Exec
module Compile = Runtime.Compile
module Pool = Runtime.Pool

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

let check_against_interp ?(compare_scalars = false) ~what prog ~domains
    ~policy =
  let st = Eval.run prog in
  let outcome = Exec.run ~domains ~policy prog in
  if not (Exec.agrees_with_interpreter ~compare_scalars outcome st) then
    Alcotest.failf "%s: parallel (%d domains, %s) differs from interpreter"
      what domains (Policy.name policy)

(* ---------- every kernel x every policy x 1/2/4 domains ---------- *)

let test_kernels_all_policies () =
  List.iter
    (fun name ->
      let prog = Option.get (Kernels.by_name name) () in
      List.iter
        (fun policy ->
          List.iter
            (fun domains ->
              (* Sequential staging must reproduce the full store exactly;
                 with domains > 1, arrays must still be bit-identical. *)
              check_against_interp ~compare_scalars:(domains = 1)
                ~what:("kernel " ^ name) prog ~domains ~policy)
            domain_counts)
        all_policies)
    Kernels.all_names

(* ---------- reduction kernels ---------- *)

(* Integral sum over a depth-2 DOALL nest: exact under any association,
   so the domain-ordered merge must agree bit-for-bit. *)
let sum_nest =
  B.program
    ~scalars:[ B.real_scalar "s" ]
    [
      B.doall "i" (B.int 1) (B.int 37)
        [
          B.doall "j" (B.int 1) (B.int 23)
            [ B.assign "s" B.(var "s" + (var "i" * var "j")) ];
        ];
    ]

(* Integral product: s starts at 1 and doubles 40 times (exact in
   double precision). *)
let product_loop =
  B.program
    ~scalars:[ B.real_scalar ~init:1.0 "s" ]
    [
      B.doall "i" (B.int 1) (B.int 40)
        [ B.assign "s" B.(var "s" * real 2.0) ];
    ]

(* A reduction alongside independent array writes, three levels deep. *)
let mixed_reduction =
  B.program
    ~arrays:[ B.array "U" [ 4; 3; 3 ] ]
    ~scalars:[ B.real_scalar "acc" ]
    [
      B.doall "i" (B.int 1) (B.int 4)
        [
          B.doall "j" (B.int 1) (B.int 3)
            [
              B.doall "k" (B.int 1) (B.int 3)
                [
                  B.store "U"
                    [ B.var "i"; B.var "j"; B.var "k" ]
                    B.((var "i" * int 100) + (var "j" * int 10) + var "k");
                  B.assign "acc"
                    B.(var "acc" + (var "i" + var "j" + var "k"));
                ];
            ];
        ];
    ]

let test_reduction_kernels () =
  List.iter
    (fun (what, prog) ->
      List.iter
        (fun policy ->
          List.iter
            (fun domains ->
              check_against_interp ~compare_scalars:true ~what prog ~domains
                ~policy)
            domain_counts)
        all_policies)
    [
      ("sum nest", sum_nest);
      ("product loop", product_loop);
      ("mixed reduction", mixed_reduction);
    ]

(* ---------- coalesced IR through the runtime ---------- *)

let test_coalesced_program () =
  let prog = Kernels.matmul ~ra:7 ~ca:5 ~cb:6 in
  let coalesced, n = Coalesce.apply_all_program prog in
  Alcotest.(check bool) "something coalesced" true (n > 0);
  let st = Eval.run prog in
  List.iter
    (fun domains ->
      let outcome = Exec.run ~domains ~policy:Policy.Gss coalesced in
      if not (Exec.agrees_with_interpreter outcome st) then
        Alcotest.failf
          "coalesced matmul (%d domains) differs from original interpreter"
          domains)
    domain_counts

(* ---------- error parity with the interpreter ---------- *)

let interp_outcome prog =
  match Eval.run prog with
  | _ -> Ok ()
  | exception Eval.Runtime_error m -> Error m

let compiled_outcome engine prog =
  match Exec.run ~domains:1 ~engine prog with
  | _ -> Ok ()
  | exception Compile.Error m -> Error m

(* A plan's bounds, level by level: [doall i = 1, hi, step] around
   [doall j = 1, 10 / k] with [k = 0]. *)
let bounds_prog ~hi ~step =
  B.program
    ~arrays:[ B.array "A" [ 5; 10 ] ]
    ~scalars:[ B.int_scalar "k"; B.int_scalar "z" ]
    [
      B.doall ~step "i" (B.int 1) hi
        [
          B.doall "j" (B.int 1)
            B.(int 10 / var "k")
            [ B.store "A" [ B.var "i"; B.var "j" ] (B.real 1.0) ];
        ];
    ]

(* Each case faults, or not, with the interpreter's message on every
   engine. *)
let test_error_parity () =
  let cases =
    [
      ( "div by zero",
        true,
        B.program
          ~scalars:[ B.int_scalar "s" ]
          [ B.assign "s" B.(int 1 / int 0) ] );
      ( "store out of bounds",
        true,
        B.program
          ~arrays:[ B.array "A" [ 4 ] ]
          [ B.store "A" [ B.int 5 ] (B.real 1.0) ] );
      ( "load out of bounds in loop",
        true,
        B.program
          ~arrays:[ B.array "A" [ 4 ] ]
          [
            B.doall "i" (B.int 1) (B.int 9)
              [ B.store "A" [ B.var "i" ] (B.real 0.5) ];
          ] );
      ( "non-positive step",
        true,
        B.program
          [ B.for_ ~step:(B.int 0) "i" (B.int 1) (B.int 3) [] ] );
      ( "mod by zero",
        true,
        B.program
          ~scalars:[ B.int_scalar "s" ]
          [ B.assign "s" B.(int 7 % int 0) ] );
      (* The inner bound is never evaluated under an empty outer level. *)
      ( "inner bound under an empty outer level",
        false,
        bounds_prog ~hi:(B.int 0) ~step:(B.int 1) );
      (* The outer step is checked before any inner bound. *)
      ( "outer step before inner bound",
        true,
        bounds_prog ~hi:(B.int 5) ~step:(B.var "z") );
    ]
  in
  List.iter
    (fun (what, faults, prog) ->
      let want = interp_outcome prog in
      Alcotest.(check bool) (what ^ ": interpreter faults") faults
        (Result.is_error want);
      List.iter
        (fun (ename, engine) ->
          Alcotest.(check (result unit string))
            (Printf.sprintf "%s: %s = interpreter" what ename)
            want
            (compiled_outcome engine prog))
        [ ("bytecode", Exec.Bytecode); ("native", Exec.Native) ])
    cases;
  (* Parallel faults must propagate through the join, too. *)
  let oob =
    B.program
      ~arrays:[ B.array "A" [ 4 ] ]
      [
        B.doall "i" (B.int 1) (B.int 9)
          [ B.store "A" [ B.var "i" ] (B.real 0.5) ];
      ]
  in
  Alcotest.(check bool) "parallel bounds fault propagates" true
    (match Exec.run ~domains:2 ~policy:(Policy.Self_sched 1) oob with
    | _ -> false
    | exception Compile.Error _ -> true)

let test_assign_to_index_rejected () =
  let prog =
    B.program
      ~scalars:[ B.int_scalar "i" ]
      [ B.doall "i" (B.int 1) (B.int 3) [ B.assign "i" (B.int 0) ] ]
  in
  match Compile.compile_result prog with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "assignment to loop index should be rejected"

(* Every static error a plan body can raise, one fault per program,
   inside [do k / doall i]. The expected messages are the ones the
   staging compiler gave before plan bodies were compiled only to tapes,
   including which fault wins when a store's value and target are both
   wrong: the value's. *)
let test_lowering_error_parity () =
  let open B in
  let x = real 1.5 in
  let cases =
    [
      ([ store "A" [ var "i" ] (var "zz") ], "unbound variable zz");
      ([ assign "zz" (int 1) ], "unbound scalar zz");
      ([ store "Z" [ var "i" ] (real 1.0) ], "unbound array Z");
      ( [ store "M" [ var "i" ] (real 1.0) ],
        "array M: 1 subscripts for 2 dimensions" );
      ([ store "A" [ x ] (real 1.0) ], "subscript: expected an integer value");
      ([ assign "n" (var "i" % x) ], "mod: expected an integer value");
      ([ assign "n" (cdiv x (var "i")) ], "ceildiv: expected an integer value");
      ( [ for_ "j" (int 1) (var "r") [ store "A" [ var "j" ] x ] ],
        "loop bound: expected an integer value" );
      ( [ for_ ~step:x "j" (int 1) (int 2) [ store "A" [ var "j" ] x ] ],
        "loop step: expected an integer value" );
      ([ assign "i" (int 0) ], "cannot assign to loop index i");
      ([ assign "k" (int 0) ], "cannot assign to loop index k");
      ( [ for_ "j" (int 1) (int 2) [ assign "j" (int 0) ] ],
        "cannot assign to loop index j" );
      ([ assign "n" x ], "assigning real to int scalar n");
      (* A store with both parts wrong, both ways round. *)
      ([ store "A" [ x ] (var "zz") ], "unbound variable zz");
      ( [ store "A" [ var "zz" ] (load "A" [ x ]) ],
        "subscript: expected an integer value" );
      ([ store "Z" [ var "i" ] (var "zz") ], "unbound variable zz");
      (* An operator's right operand is checked first. *)
      ([ assign "r" (var "yy" + var "zz") ], "unbound variable zz");
      (* A promotable store in a serial loop with a faulty subscript does
         not hide an earlier statement's fault. *)
      ( [
          for_ "j" (int 1) (int 2)
            [ assign "n" (var "zz"); store "A" [ x ] (real 0.0) ];
        ],
        "unbound variable zz" );
    ]
  in
  List.iter
    (fun (body, expected) ->
      let prog =
        program
          ~arrays:[ array "A" [ 4 ]; array "M" [ 4; 4 ] ]
          ~scalars:[ int_scalar "n"; real_scalar "r" ]
          [ for_ "k" (int 1) (int 2) [ doall "i" (int 1) (int 4) body ] ]
      in
      match Compile.compile_result prog with
      | Error m -> Alcotest.(check string) expected expected m
      | Ok _ -> Alcotest.failf "%s: compiled without error" expected)
    cases

(* ---------- pool ---------- *)

let test_pool_runs_all_workers () =
  Pool.with_pool 4 (fun pool ->
      let hits = Array.make 4 0 in
      Pool.run pool (fun q -> hits.(q) <- hits.(q) + 1);
      Pool.run pool (fun q -> hits.(q) <- hits.(q) + 1);
      Alcotest.(check (array int)) "each worker ran twice" [| 2; 2; 2; 2 |] hits)

let test_pool_propagates_exception () =
  Pool.with_pool 3 (fun pool ->
      match Pool.run pool (fun q -> if q = 2 then failwith "boom") with
      | () -> Alcotest.fail "expected exception"
      | exception Failure m -> Alcotest.(check string) "message" "boom" m);
  (* The pool must survive a failed run. *)
  Pool.with_pool 2 (fun pool ->
      (match Pool.run pool (fun _ -> failwith "x") with
      | () -> ()
      | exception Failure _ -> ());
      let ok = ref false in
      Pool.run pool (fun q -> if q = 0 then ok := true);
      Alcotest.(check bool) "usable after failure" true !ok)

(* The handshake tests below bound every wait with a watchdog domain: a
   lost wake-up ends the test binary with a message instead of hanging
   the whole suite. *)
let with_watchdog ?(seconds = 60.) name f =
  let finished = Atomic.make false in
  let dog =
    Domain.spawn (fun () ->
        let deadline = Unix.gettimeofday () +. seconds in
        while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.01
        done;
        if not (Atomic.get finished) then begin
          Printf.eprintf "pool watchdog: %s hung for %.0f s\n%!" name seconds;
          Unix._exit 3
        end)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set finished true;
      Domain.join dog)
    f

(* [forks] runs of [job] on [pool]; after each one, every worker id must
   have run exactly once. *)
let fork_checked ?(between = ignore) pool ~forks job =
  let n = Pool.size pool in
  let runs = Array.make n 0 in
  for k = 1 to forks do
    between k;
    Pool.run pool (fun q ->
        runs.(q) <- runs.(q) + 1;
        job k q);
    Array.iteri
      (fun q r ->
        if r <> k then
          Alcotest.failf "fork %d: worker %d ran %d times in total" k q r)
      runs
  done

let test_pool_spin_path () =
  with_watchdog "spin path" @@ fun () ->
  Pool.with_pool 2 (fun pool ->
      fork_checked pool ~forks:100_000 (fun _ _ -> ()))

let test_pool_park_path () =
  with_watchdog "park path" @@ fun () ->
  Pool.with_pool 2 (fun pool ->
      (* Idle gaps far longer than the spin window park the workers;
         workers other than the caller sleeping inside the job park the
         caller in the join. *)
      fork_checked pool ~forks:40
        ~between:(fun _ -> Unix.sleepf 0.002)
        (fun k q -> if q > 0 && k mod 2 = 0 then Unix.sleepf 0.002))

let test_pool_oversubscribed () =
  with_watchdog "oversubscribed" @@ fun () ->
  let p = Domain.recommended_domain_count () + 2 in
  Pool.with_pool p (fun pool ->
      fork_checked pool ~forks:2_000 (fun _ _ -> ());
      fork_checked pool ~forks:20
        ~between:(fun _ -> Unix.sleepf 0.001)
        (fun _ _ -> ()))

let test_pool_random_exceptions () =
  with_watchdog "random exceptions" @@ fun () ->
  let rng = Random.State.make [| 15 |] in
  List.iter
    (fun p ->
      Pool.with_pool p (fun pool ->
          for _ = 1 to 300 do
            let raising = Array.init p (fun _ -> Random.State.int rng 3 = 0) in
            let ran = Array.make p false in
            let expect =
              let rec first q =
                if q = p then None
                else if raising.(q) then Some q
                else first (q + 1)
              in
              first 0
            in
            let got =
              match
                Pool.run pool (fun q ->
                    ran.(q) <- true;
                    if raising.(q) then raise (Failure (string_of_int q)))
              with
              | () -> None
              | exception Failure m -> Some (int_of_string m)
            in
            Alcotest.(check (option int)) "lowest-id exception" expect got;
            Alcotest.(check bool) "every worker ran" true
              (Array.for_all Fun.id ran)
          done))
    [ 2; 3; Domain.recommended_domain_count () + 2 ]

let test_pool_counts_parks () =
  with_watchdog "parks counter" @@ fun () ->
  let parks = Registry.counter "pool.parks" in
  let p = 2 and forks = 10 in
  (* Read before the pool exists, so the first idle gap (right after the
     workers start) is inside the count too. *)
  let before = Registry.value parks in
  Pool.with_pool p (fun pool ->
      (* Each gap is 100x the spin window, so every worker parks once per
         gap: the window is bounded by time, not by an iteration count. *)
      fork_checked pool ~forks
        ~between:(fun _ -> Unix.sleepf 0.005)
        (fun _ _ -> ());
      Unix.sleepf 0.005;
      let parked = Registry.value parks - before in
      if parked < (p - 1) * (forks + 1) then
        Alcotest.failf "%d parks over %d idle gaps of %d workers" parked
          (forks + 1) (p - 1))

let test_pool_shutdown () =
  with_watchdog "shutdown" @@ fun () ->
  List.iter
    (fun p ->
      let pool = Pool.create p in
      Pool.run pool ignore;
      Pool.shutdown pool;
      Alcotest.check_raises "run after shutdown"
        (Invalid_argument "Pool.run: pool is shut down") (fun () ->
          Pool.run pool ignore);
      Pool.shutdown pool)
    [ 1; 2; 3 ];
  (* [with_pool]'s own shutdown after an explicit one is a no-op too. *)
  Pool.with_pool 2 Pool.shutdown

(* ---------- properties ---------- *)

(* Staging correctness: arbitrary programs, sequential compiled execution
   must reproduce the interpreter's full final store. *)
let prop_compiled_seq_equals_interp =
  QCheck.Test.make ~count:60 ~name:"compiled(1 domain) = interpreter"
    Gen.arbitrary_program (fun prog ->
      let st = Eval.run prog in
      let outcome = Exec.run ~domains:1 prog in
      Exec.agrees_with_interpreter ~compare_scalars:true outcome st)

(* Conflict-free rectangular DOALL nests: parallel execution under every
   policy and 1/2/4 domains is bit-identical on arrays. Writes target
   distinct elements by construction (subscripts are exactly the nest
   indexes), so the DOALL annotation is genuinely valid. *)
let doall_nest_gen : Ast.program QCheck.Gen.t =
  let open QCheck.Gen in
  let* depth = int_range 1 3 in
  let dims =
    match depth with 1 -> [ 8 ] | 2 -> [ 6; 6 ] | _ -> [ 4; 3; 3 ]
  in
  let target = match depth with 1 -> "V" | 2 -> "W" | _ -> "U" in
  let indices =
    List.filteri (fun k _ -> k < depth) [ "i"; "j"; "k" ]
  in
  let* sizes = flatten_l (List.map (fun d -> int_range 1 d) dims) in
  (* Loads only from arrays other than the store target: reading the
     written array would be a cross-iteration dependence, making the
     DOALL annotation (and hence order-independence) invalid. *)
  let other_ref =
    let sources = List.filter (fun (n, _) -> n <> target) Gen.array_dims in
    let* name, adims = oneofl sources in
    let+ subs =
      flatten_l (List.map (fun d -> map (Gen.clamp d) (Gen.int_expr indices)) adims)
    in
    Ast.Load (name, subs)
  in
  let+ rhs =
    frequency
      [
        (2, Gen.int_expr indices);
        ( 3,
          let* l = other_ref in
          let+ extra = Gen.int_expr indices in
          Ast.Bin (Add, l, extra) );
      ]
  in
  let body =
    [ Ast.Assign (Elem (target, List.map (fun v -> Ast.Var v) indices), rhs) ]
  in
  let rec build idxs szs : Ast.stmt =
    match (idxs, szs) with
    | [ ix ], [ n ] ->
        For
          {
            index = ix;
            lo = Int 1;
            hi = Int n;
            step = Int 1;
            par = Parallel;
            body;
          }
    | ix :: idxs, n :: szs ->
        For
          {
            index = ix;
            lo = Int 1;
            hi = Int n;
            step = Int 1;
            par = Parallel;
            body = [ build idxs szs ];
          }
    | _ -> assert false
  in
  {
    Ast.arrays =
      List.map
        (fun (n, dims) -> { Ast.arr_name = n; dims })
        [ ("W", [ 6; 6 ]); ("V", [ 8 ]); ("U", [ 4; 3; 3 ]) ];
    scalars = [];
    body = [ build indices sizes ];
  }

let arbitrary_doall_nest =
  QCheck.make ~print:Pretty.program_to_string doall_nest_gen

let prop_parallel_equals_interp =
  QCheck.Test.make ~count:25
    ~name:"parallel DOALL nest = interpreter (all policies, 1/2/4 domains)"
    arbitrary_doall_nest (fun prog ->
      let st = Eval.run prog in
      List.for_all
        (fun policy ->
          List.for_all
            (fun domains ->
              let outcome = Exec.run ~domains ~policy prog in
              Exec.agrees_with_interpreter outcome st)
            domain_counts)
        all_policies)

(* gauss_jordan's [mult] is a private scalar assigned under [if i <> j]:
   the chunk holding the last iteration may leave it unassigned. What the
   join adopts must still be the same on every run of a dynamic
   schedule, whichever earlier chunks the adopting domain happened to
   take. *)
let test_adopted_scalars_repeatable () =
  let prog = (Option.get (Kernels.by_name "gauss_jordan")) () in
  List.iter
    (fun policy ->
      let first = Exec.run ~domains:4 ~policy prog in
      for _ = 2 to 20 do
        if Exec.run ~domains:4 ~policy prog <> first then
          Alcotest.failf "%s: outcome changed between runs" (Policy.name policy)
      done)
    [ Policy.Gss; Policy.Factoring; Policy.Self_sched 1 ]

(* The back-off rule against scripted spin outcomes, independent of
   the host's timing. *)
let test_pool_backoff_rule () =
  let step s (idle_spun, woke, join_window, joined) =
    Pool.next_backoff s ~idle_spun ~woke ~join_window ~joined
  in
  let check what (want_q, want_b) (s : Pool.backoff) =
    Alcotest.(check (pair int int)) what (want_q, want_b) (s.quiet, s.backoff)
  in
  let woken = (true, true, false, false)
  and join_ran_out = (true, false, true, false)
  and spun = (true, false, true, true)
  and parked = (false, false, false, false) in
  (* Spins that keep running out double the back-off up to 1024. *)
  let s = ref { Pool.quiet = 0; backoff = 0 } in
  List.iteri
    (fun k want ->
      s := step !s (if k mod 2 = 0 then woken else join_ran_out);
      check (Printf.sprintf "run-out %d" (k + 1)) (want, want) !s)
    [ 1; 3; 7; 15; 31; 63; 127; 255; 511; 1023; 1024; 1024 ];
  (* A fork that started quiet parks at once: no spin, no change to the
     back-off, one fewer quiet fork. *)
  s := step !s parked;
  check "quiet fork" (1023, 1024) !s;
  for _ = 1 to 1023 do
    s := step !s parked
  done;
  check "quiet run over" (0, 1024) !s;
  (* Each fork whose spins all succeed halves it. *)
  List.iter
    (fun want ->
      s := step !s spun;
      check "spun" (0, want) !s)
    [ 512; 256; 128; 64; 32; 16; 8; 4; 2; 1; 0; 0 ];
  (* A probe that ran out mid-halving doubles from where it stands. *)
  s := step { Pool.quiet = 0; backoff = 5 } woken;
  check "run-out after halving" (11, 11) !s;
  (* The workers' idle spin alone — the fork started quiet, so its join
     did not spin — still counts as a success. *)
  check "idle spin only" (2, 2)
    (step { Pool.quiet = 3; backoff = 5 } (true, false, false, false));
  check "join spin only" (0, 2)
    (step { Pool.quiet = 0; backoff = 5 } (false, false, true, true))

(* ---------- per-plan fork state ---------- *)

(* A plan keeps its fork state (clones, chunk sequence, range proof)
   across forks and runs. Reusing a proof is sound only on identical
   inputs; these programs change exactly those inputs between forks. *)

let parse what text =
  match Driver.load_string text with
  | Ok p -> p
  | Error m -> Alcotest.failf "%s: parse error: %s" what m

let fork_policies = [ Policy.Static_block; Policy.Gss; Policy.Self_sched 1 ]

(* The serial [k] shifts the subscript: sweeps 1-2 share k = 0 (the
   proof repeats), 3-5 share k = 5 and sweep 6 has k = 16, where one
   iteration, the last, reaches A[41] — so its message does not depend
   on the schedule. *)
let shift_prog sweeps =
  parse "shift"
    (Printf.sprintf
       {|program
  real A[40]
  int k = 0
begin
  do t = 1, %d
    k = (t / 3) * 5 + (t / 6) * 6
    doall i = 1, 25
      A[i + k] = A[i + k] + t
    end
  end
end
|}
       sweeps)

(* The bounds change on every fork; [s] is an exact integer sum. *)
let triangle_prog =
  parse "triangle"
    {|program
  real A[12, 12]
  int s = 0
begin
  do i = 1, 12
    doall j = 1, i
      A[i, j] = A[j, j] + i * j
      s = s + i * j
    end
  end
end
|}

let relax_prog = Kernels.relax ~n:64 ~steps:20

let agrees ~what (o : Exec.outcome) st =
  if not (Exec.agrees_with_interpreter ~compare_scalars:true o st) then
    Alcotest.failf "%s differs from the interpreter" what

let check_shift_sweeps engine =
  let ok = shift_prog 5 and last = shift_prog 6 in
  let st = Eval.run ok in
  let want =
    match Eval.run last with
    | _ -> Alcotest.fail "the interpreter ran the out-of-bounds sweep"
    | exception Eval.Runtime_error m -> m
  in
  List.iter
    (fun policy ->
      let what = Policy.name policy in
      let t_ok = Compile.compile ok and t_last = Compile.compile last in
      (* Twice each: a second run starts from the state the first kept. *)
      for _ = 1 to 2 do
        agrees ~what (Exec.run_compiled ~domains:2 ~policy ~engine t_ok) st;
        match Exec.run_compiled ~domains:2 ~policy ~engine t_last with
        | _ -> Alcotest.failf "%s: the out-of-bounds sweep ran" what
        | exception Compile.Error m -> Alcotest.(check string) what want m
      done)
    fork_policies

let check_triangle engine =
  let st = Eval.run triangle_prog in
  List.iter
    (fun policy ->
      let t = Compile.compile triangle_prog in
      for _ = 1 to 2 do
        agrees ~what:(Policy.name policy)
          (Exec.run_compiled ~domains:2 ~policy ~engine t)
          st
      done)
    fork_policies

let test_fork_state_proof_reuse () =
  check_shift_sweeps Exec.Bytecode;
  check_triangle Exec.Bytecode

(* One compiled program run from two domains at once, each with its own
   pool: forks of the same plan contend for its state, and the loser
   runs on a private one. *)
let test_fork_state_concurrent_runs () =
  let st = Eval.run relax_prog in
  let t = Compile.compile relax_prog in
  List.iter
    (fun policy ->
      let run () =
        Pool.with_pool 2 (fun pool -> Exec.run_compiled ~pool ~policy t)
      in
      let other = Domain.spawn run in
      let mine = run () in
      let theirs = Domain.join other in
      agrees ~what:(Policy.name policy ^ ", caller") mine st;
      agrees ~what:(Policy.name policy ^ ", spawned") theirs st)
    all_policies

(* A worker's fault re-raises through the join and releases the state:
   the next run of the program claims it again. [d] is zero in sweep 3
   exactly when the arrays start at 1.0. *)
let fault_prog =
  parse "fault"
    {|program
  real A[40]
  int d = 1
begin
  do t = 1, 5
    if A[40] > 0.5 then
      d = 3 - t
    else
      d = 1
    end
    doall i = 1, 39
      A[i] = A[i] + i / d
    end
  end
end
|}

let test_fork_state_fault_release () =
  let want =
    match Eval.run ~array_init:1.0 fault_prog with
    | _ -> Alcotest.fail "the interpreter ran the zero divisor"
    | exception Eval.Runtime_error m -> m
  in
  let st = Eval.run fault_prog in
  let builds = Registry.counter "exec.fork_states" in
  List.iter
    (fun policy ->
      let what = Policy.name policy in
      let t = Compile.compile fault_prog in
      Pool.with_pool 2 (fun pool ->
          agrees ~what (Exec.run_compiled ~pool ~policy t) st;
          (match Exec.run_compiled ~array_init:1.0 ~pool ~policy t with
          | _ -> Alcotest.failf "%s: the zero divisor ran" what
          | exception Compile.Error m -> Alcotest.(check string) what want m);
          let before = Registry.value builds in
          agrees ~what (Exec.run_compiled ~pool ~policy t) st;
          Alcotest.(check int)
            (what ^ ": later run reuses the state")
            before (Registry.value builds));
      List.iter
        (fun (plan : Compile.plan) ->
          match plan.Compile.fork_state with
          | None -> ()
          | Some fs ->
              Alcotest.(check bool) (what ^ ": released") false
                (Atomic.get fs.Compile.fs_busy);
              Alcotest.(check bool) (what ^ ": run's binding dropped") true
                (Option.is_none fs.Compile.fs_bound))
        (Compile.plans t))
    all_policies

let suite =
  [
    Alcotest.test_case "kernels x policies x domains" `Quick
      test_kernels_all_policies;
    Alcotest.test_case "reduction kernels bit-identical" `Quick
      test_reduction_kernels;
    Alcotest.test_case "coalesced IR through runtime" `Quick
      test_coalesced_program;
    Alcotest.test_case "error parity with interpreter" `Quick
      test_error_parity;
    Alcotest.test_case "assign to index rejected" `Quick
      test_assign_to_index_rejected;
    Alcotest.test_case "lowering errors match the stager's" `Quick
      test_lowering_error_parity;
    Alcotest.test_case "pool runs all workers" `Quick
      test_pool_runs_all_workers;
    Alcotest.test_case "pool propagates exceptions" `Quick
      test_pool_propagates_exception;
    Alcotest.test_case "pool spin path: 100k back-to-back forks" `Quick
      test_pool_spin_path;
    Alcotest.test_case "pool park path: idle workers and joining caller"
      `Quick test_pool_park_path;
    Alcotest.test_case "pool oversubscribed" `Quick test_pool_oversubscribed;
    Alcotest.test_case "pool random exceptions" `Quick
      test_pool_random_exceptions;
    Alcotest.test_case "pool.parks counts idle gaps" `Quick
      test_pool_counts_parks;
    Alcotest.test_case "pool back-off rule: scripted spin outcomes" `Quick
      test_pool_backoff_rule;
    Alcotest.test_case "pool shutdown: run raises, second is a no-op"
      `Quick test_pool_shutdown;
    Alcotest.test_case "adopted scalars repeatable under dynamic schedules"
      `Quick test_adopted_scalars_repeatable;
    Alcotest.test_case "fork state: proof reused only on equal inputs"
      `Quick test_fork_state_proof_reuse;
    Alcotest.test_case "fork state: one program run from two domains" `Quick
      test_fork_state_concurrent_runs;
    Alcotest.test_case "fork state: released after a worker fault" `Quick
      test_fork_state_fault_release;
    Gen.to_alcotest prop_compiled_seq_equals_interp;
    Gen.to_alcotest prop_parallel_equals_interp;
  ]
