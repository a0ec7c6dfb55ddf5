(* Scheduler tests: static partitions, GSS chunk sequences, processor
   allocation search, and the analytic bounds (including the paper's
   central inequality as a property). *)

open Loopcoal

let check = Alcotest.check

(* ---------- Static ---------- *)

let test_block_balanced () =
  let a = Static.block ~n:10 ~p:3 in
  Alcotest.(check (array int)) "counts" [| 4; 3; 3 |] (Static.counts a);
  Alcotest.(check (list int)) "proc 0" [ 1; 2; 3; 4 ] (Static.iterations_of a 0);
  Alcotest.(check (list int)) "proc 2" [ 8; 9; 10 ] (Static.iterations_of a 2)

let test_block_contiguous () =
  let a = Static.block ~n:17 ~p:5 in
  for q = 0 to 4 do
    check Alcotest.int
      (Printf.sprintf "proc %d one run" q)
      1
      (List.length (Static.chunks_of a q))
  done

let test_cyclic () =
  let a = Static.cyclic ~n:7 ~p:3 in
  Alcotest.(check (list int)) "proc 0" [ 1; 4; 7 ] (Static.iterations_of a 0);
  Alcotest.(check (list int)) "proc 1" [ 2; 5 ] (Static.iterations_of a 1);
  Alcotest.(check (array int)) "counts" [| 3; 2; 2 |] (Static.counts a)

let test_more_procs_than_iterations () =
  let a = Static.block ~n:3 ~p:8 in
  Alcotest.(check (array int))
    "counts" [| 1; 1; 1; 0; 0; 0; 0; 0 |] (Static.counts a)

let test_empty_space () =
  let a = Static.block ~n:0 ~p:4 in
  Alcotest.(check (array int)) "counts" [| 0; 0; 0; 0 |] (Static.counts a)

let prop_partition =
  QCheck.Test.make ~name:"static assignments partition the space" ~count:300
    (QCheck.pair (QCheck.int_range 0 200) (QCheck.int_range 1 17))
    (fun (n, p) ->
      let block = Static.block ~n ~p and cyclic = Static.cyclic ~n ~p in
      Static.is_partition block
      && Static.is_partition cyclic
      && Array.fold_left ( + ) 0 (Static.counts block) = n
      && Array.fold_left ( + ) 0 (Static.counts cyclic) = n)

let prop_block_balance =
  QCheck.Test.make ~name:"block shares differ by at most one" ~count:300
    (QCheck.pair (QCheck.int_range 0 200) (QCheck.int_range 1 17))
    (fun (n, p) ->
      let c = Static.counts (Static.block ~n ~p) in
      let mx = Array.fold_left max 0 c
      and mn = Array.fold_left min max_int c in
      mx - mn <= 1 && mx = Intmath.cdiv n p)

(* The executor's per-domain Static_block dispatch computes each block
   in closed form instead of scanning [1..n]; it must own exactly what
   the scanned partition gives the domain. *)
let prop_block_chunk_closed_form =
  QCheck.Test.make ~name:"block_chunk = chunks_of (block) q" ~count:300
    (QCheck.pair (QCheck.int_range 0 10_000) (QCheck.int_range 1 8))
    (fun (n, p) ->
      let sched = Static.block ~n ~p in
      List.for_all
        (fun q ->
          Option.to_list (Static.block_chunk ~n ~p q)
          = Static.chunks_of sched q)
        (List.init p Fun.id))

(* ---------- GSS ---------- *)

let test_gss_known_sequence () =
  (* n=100, p=4: 25 19 14 11 8 6 5 3 3 2 1 1 1 1 — textbook decay. *)
  let chunks = Gss.chunk_sizes ~n:100 ~p:4 in
  Alcotest.(check (list int))
    "sequence"
    [ 25; 19; 14; 11; 8; 6; 5; 3; 3; 2; 1; 1; 1; 1 ]
    chunks

let test_gss_p1 () =
  Alcotest.(check (list int)) "p=1 takes all" [ 10 ] (Gss.chunk_sizes ~n:10 ~p:1)

let test_gss_empty () =
  Alcotest.(check (list int)) "n=0" [] (Gss.chunk_sizes ~n:0 ~p:4);
  check Alcotest.int "count 0" 0 (Gss.dispatch_count ~n:0 ~p:4)

let prop_gss_sums_to_n =
  QCheck.Test.make ~name:"GSS chunks sum to n, decrease, end at 1" ~count:300
    (QCheck.pair (QCheck.int_range 0 5000) (QCheck.int_range 1 64))
    (fun (n, p) ->
      let chunks = Gss.chunk_sizes ~n ~p in
      let sum = List.fold_left ( + ) 0 chunks in
      let rec non_increasing = function
        | a :: (b :: _ as rest) -> a >= b && non_increasing rest
        | _ -> true
      in
      sum = n
      && non_increasing chunks
      && List.length chunks = Gss.dispatch_count ~n ~p
      && List.for_all (fun c -> c >= 1) chunks)

let prop_gss_fewer_dispatches_than_ss =
  QCheck.Test.make ~name:"GSS dispatches <= n, ~ p log(n/p) scale" ~count:200
    (QCheck.pair (QCheck.int_range 1 5000) (QCheck.int_range 1 64))
    (fun (n, p) ->
      let d = Gss.dispatch_count ~n ~p in
      d <= n && d >= min n p)

(* ---------- Alloc / Bounds ---------- *)

let test_alloc_steps () =
  check Alcotest.int "10x10 on 2x2" 25 (Alloc.steps ~shape:[ 10; 10 ] ~alloc:[ 2; 2 ]);
  check Alcotest.int "10x10 on 4x1" 30 (Alloc.steps ~shape:[ 10; 10 ] ~alloc:[ 4; 1 ])

let test_alloc_best () =
  let alloc, steps = Alloc.best ~shape:[ 10; 10 ] ~p:4 in
  Alcotest.(check (list int)) "2x2 wins" [ 2; 2 ] alloc;
  check Alcotest.int "steps" 25 steps;
  (* uneven shape: giving all 5 processors to the 5-wide inner dimension
     divides evenly (7 steps); the outer-heavy split wastes them (10). *)
  let alloc2, steps2 = Alloc.best ~shape:[ 7; 5 ] ~p:5 in
  Alcotest.(check (list int)) "inner wins" [ 1; 5 ] alloc2;
  check Alcotest.int "steps2" 7 steps2

let test_outer_only () =
  Alcotest.(check (list int))
    "outer only" [ 6; 1; 1 ]
    (Alloc.outer_only ~shape:[ 9; 9; 9 ] ~p:6)

let test_bounds_known () =
  check Alcotest.int "coalesced 100/16" 7 (Bounds.coalesced_steps ~n:100 ~p:16);
  check Alcotest.int "outer-only 10x10 p=16" 10
    (Bounds.outer_only_steps ~shape:[ 10; 10 ] ~p:16);
  (* coalesced wins: ceil(100/16)=7 vs 10 *)
  assert (
    Bounds.coalesced_steps ~n:100 ~p:16
    < Bounds.outer_only_steps ~shape:[ 10; 10 ] ~p:16)

let shape_alloc_gen =
  let open QCheck.Gen in
  let* dims = int_range 1 4 in
  let* shape = flatten_l (List.init dims (fun _ -> int_range 1 30)) in
  let+ alloc = flatten_l (List.init dims (fun _ -> int_range 1 8)) in
  (shape, alloc)

let prop_coalescing_never_loses =
  QCheck.Test.make
    ~name:"paper inequality: ceil(N/p) <= prod ceil(nk/pk)" ~count:1000
    (QCheck.make
       ~print:(fun (s, a) ->
         Printf.sprintf "shape=%s alloc=%s"
           (String.concat "x" (List.map string_of_int s))
           (String.concat "x" (List.map string_of_int a)))
       shape_alloc_gen)
    (fun (shape, alloc) -> Bounds.coalescing_never_loses ~shape ~alloc)

let prop_advantage_at_least_one =
  QCheck.Test.make ~name:"advantage >= 1" ~count:200
    (QCheck.pair (QCheck.int_range 1 20)
       (QCheck.pair (QCheck.int_range 1 20) (QCheck.int_range 1 32)))
    (fun (n1, (n2, p)) -> Bounds.advantage ~shape:[ n1; n2 ] ~p >= 1.0)

let test_policy_validate () =
  assert (Result.is_error (Policy.validate (Policy.Self_sched 0)));
  assert (Result.is_ok (Policy.validate (Policy.Self_sched 1)));
  assert (Result.is_ok (Policy.validate Policy.Gss));
  assert (Policy.is_dynamic Policy.Gss);
  assert (not (Policy.is_dynamic Policy.Static_block))

let suite =
  [
    Alcotest.test_case "block balanced" `Quick test_block_balanced;
    Alcotest.test_case "block contiguous" `Quick test_block_contiguous;
    Alcotest.test_case "cyclic" `Quick test_cyclic;
    Alcotest.test_case "more procs than iters" `Quick
      test_more_procs_than_iterations;
    Alcotest.test_case "empty space" `Quick test_empty_space;
    Gen.to_alcotest prop_partition;
    Gen.to_alcotest prop_block_balance;
    Gen.to_alcotest prop_block_chunk_closed_form;
    Alcotest.test_case "gss known sequence" `Quick test_gss_known_sequence;
    Alcotest.test_case "gss p=1" `Quick test_gss_p1;
    Alcotest.test_case "gss empty" `Quick test_gss_empty;
    Gen.to_alcotest prop_gss_sums_to_n;
    Gen.to_alcotest prop_gss_fewer_dispatches_than_ss;
    Alcotest.test_case "alloc steps" `Quick test_alloc_steps;
    Alcotest.test_case "alloc best" `Quick test_alloc_best;
    Alcotest.test_case "outer only" `Quick test_outer_only;
    Alcotest.test_case "bounds known" `Quick test_bounds_known;
    Gen.to_alcotest prop_coalescing_never_loses;
    Gen.to_alcotest prop_advantage_at_least_one;
    Alcotest.test_case "policy validation" `Quick test_policy_validate;
  ]

(* ---------- Trapezoid ---------- *)

let test_tss_sequence_properties () =
  let chunks = Trapezoid.chunk_sizes ~n:1000 ~p:10 in
  Alcotest.(check int) "sums" 1000 (List.fold_left ( + ) 0 chunks);
  (* first chunk is ceil(n/2p) = 50; sizes never increase *)
  (match chunks with
  | first :: _ -> Alcotest.(check int) "first" 50 first
  | [] -> Alcotest.fail "empty");
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> a >= b && non_increasing rest
    | _ -> true
  in
  assert (non_increasing chunks);
  (* TSS avoids GSS's long unit tail: fewer dispatches *)
  assert (Trapezoid.dispatch_count ~n:1000 ~p:10 < Gss.dispatch_count ~n:1000 ~p:10)

let prop_tss_sums =
  QCheck.Test.make ~name:"TSS chunks sum to n and stay positive" ~count:300
    (QCheck.pair (QCheck.int_range 0 5000) (QCheck.int_range 1 64))
    (fun (n, p) ->
      let chunks = Trapezoid.chunk_sizes ~n ~p in
      List.fold_left ( + ) 0 chunks = n && List.for_all (fun c -> c >= 1) chunks)

let test_tss_simulated_covers () =
  let n = 700 and p = 6 in
  let r =
    Event_sim.simulate ~machine:(Machine.default ~p) ~policy:Policy.Trapezoid
      ~n ~chunk_cost:(fun ~start:_ ~len -> float_of_int len)
  in
  Alcotest.(check int)
    "covered" n
    (List.fold_left (fun acc c -> acc + c.Event_sim.len) 0 r.Event_sim.trace)

(* ---------- Granularity ---------- *)

let test_granularity_closed_forms () =
  let feq = Alcotest.float 1e-9 in
  (* efficiency (s+2)/(o+s) *)
  Alcotest.check feq "efficiency" ((100.0 +. 2.0) /. (400.0 +. 100.0))
    (Granularity.efficiency ~n:64 ~overhead:400.0 ~body:100.0);
  (* body_for_efficiency inverts efficiency *)
  let s = Granularity.body_for_efficiency ~overhead:451.0 ~target:0.5 in
  Alcotest.check feq "inverse" 0.5
    (Granularity.efficiency ~n:10 ~overhead:451.0 ~body:s);
  (* LBG: SEQ = PAR at s = lbg *)
  let lbg = Granularity.lower_bound_granularity ~n:100 ~overhead:1000.0 in
  Alcotest.check feq "break-even"
    (Granularity.seq_instructions ~n:100 ~body:lbg)
    (Granularity.par_instructions ~overhead:1000.0 ~body:lbg);
  (* amortized overhead: lbg clamps to zero *)
  Alcotest.check feq "clamped" 0.0
    (Granularity.lower_bound_granularity ~n:100 ~overhead:100.0)

let prop_granularity_lbg_is_threshold =
  QCheck.Test.make ~name:"LBG is the break-even body size" ~count:300
    (QCheck.pair (QCheck.int_range 2 500)
       (QCheck.map float_of_int (QCheck.int_range 0 10000)))
    (fun (n, overhead) ->
      let lbg = Granularity.lower_bound_granularity ~n ~overhead in
      let seq b = Granularity.seq_instructions ~n ~body:b in
      let par b = Granularity.par_instructions ~overhead ~body:b in
      (* above the threshold the parallel form wins *)
      seq (lbg +. 1.0) >= par (lbg +. 1.0)
      (* and below it (when the threshold is real) it loses *)
      && (lbg = 0.0 || seq (Float.max 0.0 (lbg -. 1.0)) <= par (Float.max 0.0 (lbg -. 1.0)) +. 1e-6))

let extra_suite =
  [
    Alcotest.test_case "TSS sequence" `Quick test_tss_sequence_properties;
    Gen.to_alcotest prop_tss_sums;
    Alcotest.test_case "TSS simulated" `Quick test_tss_simulated_covers;
    Alcotest.test_case "granularity closed forms" `Quick
      test_granularity_closed_forms;
    Gen.to_alcotest prop_granularity_lbg_is_threshold;
  ]

let suite = suite @ extra_suite
