(* Observability tests: the tracing layer, its derived metrics, and the
   machine-readable surfaces built on them.

   The load-bearing invariants:
   - traced chunks exactly partition [1..N] for every policy and domain
     count (the executor dispatched everything, once);
   - dynamic policies' traced dispatch counts equal the closed-form
     chunk sequences of [lib/sched] — the paper's analytic counts,
     observed;
   - running with tracing changes no computed result bit;
   - the Chrome trace export is valid JSON; the --time line is stably
     parseable. *)

open Loopcoal
module B = Builder
module Exec = Runtime.Exec

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

(* One perfect doubly-parallel nest: a single fork-join region of
   23 * 11 = 253 coalesced iterations. *)
let nest_rows = 23
let nest_cols = 11
let nest_n = nest_rows * nest_cols

let single_nest =
  B.program
    ~arrays:[ B.array "W" [ nest_rows; nest_cols ] ]
    [
      B.doall "i" (B.int 1) (B.int nest_rows)
        [
          B.doall "j" (B.int 1) (B.int nest_cols)
            [ B.store "W" [ B.var "i"; B.var "j" ] B.(var "i" + var "j") ];
        ];
    ]

let traced_run ?(prog = single_nest) ~domains ~policy () =
  let tracer = Trace.create ~p:domains () in
  let outcome = Exec.run ~domains ~policy ~trace:tracer prog in
  (outcome, Trace.snapshot tracer)

(* ---------- partition invariant ---------- *)

let test_partition_all_policies () =
  List.iter
    (fun policy ->
      List.iter
        (fun domains ->
          (* Single-nest and multi-nest programs both tile exactly. *)
          List.iter
            (fun (what, prog) ->
              let _, tr = traced_run ~prog ~domains ~policy () in
              match Metrics.check_partition tr with
              | Ok () -> ()
              | Error m ->
                  Alcotest.failf "%s (%s, %d domains): %s" what
                    (Policy.name policy) domains m)
            [
              ("single nest", single_nest);
              ("matmul", Kernels.matmul ~ra:7 ~ca:5 ~cb:6);
            ])
        domain_counts)
    all_policies

let test_partition_detects_gap_and_overlap () =
  let fake chunks =
    let c = Trace.create ~p:2 () in
    Trace.fork_begin c ~policy:Policy.Gss ~k:1 ~n:10 ~p:2;
    List.iter
      (fun (start, len) ->
        Trace.record c ~worker:0 ~start ~len ~t0:0 ~t1:1)
      chunks;
    Trace.fork_end c;
    Trace.snapshot c
  in
  (match Metrics.check_partition (fake [ (1, 4); (6, 5) ]) with
  | Ok () -> Alcotest.fail "gap not detected"
  | Error _ -> ());
  (match Metrics.check_partition (fake [ (1, 6); (6, 5) ]) with
  | Ok () -> Alcotest.fail "overlap not detected"
  | Error _ -> ());
  (match Metrics.check_partition (fake [ (1, 4); (5, 6) ]) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "exact tiling rejected: %s" m);
  match Metrics.check_partition (fake [ (1, 4) ]) with
  | Ok () -> Alcotest.fail "truncation not detected"
  | Error _ -> ()

(* ---------- dispatch counts vs closed forms ---------- *)

(* A loop-free nest whose floored GSS, factoring and TSS sequences have
   at least four chunks at 2 and 4 domains. *)
let wide_rows = 64
let wide_cols = 32

let wide_nest =
  B.program
    ~arrays:[ B.array "W" [ wide_rows; wide_cols ] ]
    [
      B.doall "i" (B.int 1) (B.int wide_rows)
        [
          B.doall "j" (B.int 1) (B.int wide_cols)
            [ B.store "W" [ B.var "i"; B.var "j" ] B.(var "i" - var "j") ];
        ];
    ]

(* The single nest with a serial loop in its body: a chunk of it is
   not bounded work, so its minimum chunk stays 1. *)
let serial_nest =
  B.program
    ~arrays:[ B.array "W" [ nest_rows; nest_cols ] ]
    [
      B.doall "i" (B.int 1) (B.int nest_rows)
        [
          B.doall "j" (B.int 1) (B.int nest_cols)
            [
              B.store "W" [ B.var "i"; B.var "j" ] (B.var "i");
              B.for_ "k" (B.int 1) (B.var "j")
                [
                  B.store "W" [ B.var "i"; B.var "j" ]
                    B.(load "W" [ var "i"; var "j" ] + var "k");
                ];
            ];
        ];
    ]

(* Each closed-form nest with its iterations and the minimum chunk its
   plan must derive. *)
let closed_form_nests =
  [
    ("single nest", single_nest, nest_n, Runtime.Bytecode.lane_width);
    ("wide nest", wide_nest, wide_rows * wide_cols, Runtime.Bytecode.lane_width);
    ("serial-loop nest", serial_nest, nest_n, 1);
  ]

(* The one fork region of a traced run, with its recorded minimum
   chunk. *)
let one_fork what tr =
  match (Metrics.of_trace tr, tr.Trace.forks) with
  | { Metrics.forks = [ f ]; _ }, [| tf |] -> (f, tf.Trace.f_k)
  | m, _ ->
      Alcotest.failf "%s: expected one fork region, got %d" what
        (List.length m.Metrics.forks)

(* Whether a fork of [n] iterations at minimum chunk [k] is one chunk
   under [policy], so runs on the caller. *)
let runs_inline (policy : Policy.t) ~k n =
  match policy with
  | Gss | Factoring | Trapezoid -> n <= k
  | Self_sched c -> n <= c
  | Static_block | Static_cyclic -> false

(* The trace of a fork run on the caller: one chunk, on worker 0, that
   tiles the space. *)
let check_inline where tr =
  (match tr.Trace.chunks with
  | [| c |] -> Alcotest.(check int) (where ^ ": on worker 0") 0 c.Trace.worker
  | cs -> Alcotest.failf "%s: %d chunks, want 1" where (Array.length cs));
  match Metrics.check_partition tr with
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s: %s" where m

(* The 253-iteration single nest is one chunk under the decaying
   policies, so runs on the caller: one chunk, no sync. The closed forms
   of splitting forks are checked on the wide nest. *)
let test_dispatch_counts_match_closed_forms () =
  List.iter
    (fun (what, prog, n, k) ->
      List.iter
        (fun policy ->
          List.iter
            (fun domains ->
              if domains > 1 then begin
                let _, tr = traced_run ~prog ~domains ~policy () in
                let where =
                  Printf.sprintf "%s, %s @ %d domains" what
                    (Policy.name policy) domains
                in
                let f, fk = one_fork where tr in
                Alcotest.(check int) (where ^ ": n") n f.Metrics.n;
                Alcotest.(check int) (where ^ ": k") k fk;
                Alcotest.(check int)
                  (where ^ ": dispatches")
                  (Chunks.count policy ~k ~n ~p:domains)
                  f.Metrics.chunks_dispatched;
                if runs_inline policy ~k n then begin
                  check_inline where tr;
                  Alcotest.(check int) (where ^ ": no sync") 0
                    f.Metrics.sync_ops
                end
                else
                  Alcotest.(check int)
                    (where ^ ": sync ops")
                    (Chunks.sync_ops policy ~k ~n ~p:domains)
                    f.Metrics.sync_ops
              end)
            domain_counts)
        all_policies)
    closed_form_nests

(* The three decaying policies, at the plan's minimum chunk. A plan with
   a serial loop dispatches exactly the policies' own chunk_sizes
   modules — not just through Chunks — so a drift in either shows up;
   the loop-free wide nest still splits into at least four chunks. *)
let test_decaying_policies_exact () =
  List.iter
    (fun (what, prog, n, k) ->
      List.iter
        (fun (policy, plain_count) ->
          List.iter
            (fun domains ->
              let _, tr = traced_run ~prog ~domains ~policy () in
              let where =
                Printf.sprintf "%s, %s @ %d" what (Policy.name policy) domains
              in
              let f, _ = one_fork where tr in
              let got = f.Metrics.chunks_dispatched in
              Alcotest.(check int)
                (where ^ ": closed form")
                (Chunks.count policy ~k ~n ~p:domains)
                got;
              if k = 1 then
                Alcotest.(check int)
                  (where ^ ": plain sequence")
                  (plain_count ~n ~p:domains) got;
              if prog == wide_nest && got < 4 then
                Alcotest.failf "%s: %d chunks, want at least 4" where got)
            [ 2; 4 ])
        [
          (Policy.Gss, Gss.dispatch_count);
          (Policy.Factoring, Factoring.dispatch_count);
          (Policy.Trapezoid, Trapezoid.dispatch_count);
        ])
    closed_form_nests

(* Traced chunk boundaries of the dynamic policies must be exactly the
   closed-form (start, len) sequence — not merely the same count. *)
let test_chunk_boundaries_match_sequence () =
  List.iter
    (fun (what, prog, n, k) ->
      List.iter
        (fun policy ->
          List.iter
            (fun domains ->
              let _, tr = traced_run ~prog ~domains ~policy () in
              let expected =
                match Chunks.dynamic_sequence policy ~k ~n ~p:domains with
                | Some seq -> seq
                | None -> Alcotest.fail "dynamic policy has no sequence"
              in
              let traced =
                Array.to_list tr.Trace.chunks
                |> List.map (fun (c : Trace.chunk) ->
                       (c.Trace.start, c.Trace.len))
                |> List.sort compare
              in
              let expected = Array.to_list expected |> List.sort compare in
              Alcotest.(check (list (pair int int)))
                (Printf.sprintf "%s, %s @ %d: chunk boundaries" what
                   (Policy.name policy) domains)
                expected traced)
            [ 2; 4 ])
        [ Policy.Self_sched 7; Policy.Gss; Policy.Factoring; Policy.Trapezoid ])
    closed_form_nests

(* ---------- tracing is observation only ---------- *)

let outcomes_identical (a : Exec.outcome) (b : Exec.outcome) =
  a.Exec.arrays = b.Exec.arrays && a.Exec.scalars = b.Exec.scalars

let test_tracing_changes_nothing () =
  List.iter
    (fun name ->
      let prog = Option.get (Kernels.by_name name) () in
      List.iter
        (fun policy ->
          List.iter
            (fun domains ->
              let plain = Exec.run ~domains ~policy prog in
              let traced, _ = traced_run ~prog ~domains ~policy () in
              if not (outcomes_identical plain traced) then
                Alcotest.failf
                  "kernel %s (%s, %d domains): traced run differs" name
                  (Policy.name policy) domains)
            domain_counts)
        [ Policy.Static_block; Policy.Gss ])
    Kernels.all_names

(* ---------- metrics sanity ---------- *)

let test_metrics_accounting () =
  let wide_n = wide_rows * wide_cols in
  let _, tr = traced_run ~prog:wide_nest ~domains:4 ~policy:Policy.Factoring () in
  let m = Metrics.of_trace tr in
  let f = List.hd m.Metrics.forks in
  Alcotest.(check int) "iterations covered" wide_n f.Metrics.iterations;
  Alcotest.(check int) "worker arrays sized p" 4
    (Array.length f.Metrics.busy_ns);
  Alcotest.(check int) "chunk counts sum" f.Metrics.chunks_dispatched
    (Array.fold_left ( + ) 0 f.Metrics.chunks_per_worker);
  Alcotest.(check bool) "imbalance >= 1" true (f.Metrics.imbalance >= 1.0);
  Alcotest.(check bool) "imbalance <= p" true
    (f.Metrics.imbalance <= 4.0 +. 1e-9);
  let busy_total = Array.fold_left ( + ) 0 f.Metrics.busy_ns in
  Alcotest.(check bool) "busy time positive" true (busy_total > 0);
  Alcotest.(check bool) "wall >= max busy" true
    (f.Metrics.wall_ns >= Array.fold_left max 0 f.Metrics.busy_ns);
  Alcotest.(check bool) "sync/iter matches closed form" true
    (Float.abs
       (f.Metrics.sync_ops_per_iter
       -. float_of_int
            (Chunks.sync_ops Policy.Factoring ~k:Runtime.Bytecode.lane_width
               ~n:wide_n ~p:4)
          /. float_of_int wide_n)
    < 1e-12);
  (* The single nest is one chunk: one region of one worker. *)
  let _, tr = traced_run ~domains:4 ~policy:Policy.Factoring () in
  let f, _ = one_fork "single nest, inline" tr in
  Alcotest.(check int) "inline: iterations covered" nest_n f.Metrics.iterations;
  Alcotest.(check int) "inline: one worker" 1 (Array.length f.Metrics.busy_ns);
  check_inline "single nest, inline" tr

let test_sequential_region_traced_as_block () =
  let _, tr = traced_run ~domains:1 ~policy:Policy.Gss () in
  match Array.to_list tr.Trace.forks with
  | [ f ] ->
      Alcotest.(check string) "seq fallback policy" "static-block"
        (Policy.name f.Trace.f_policy);
      Alcotest.(check int) "seq fallback p" 1 f.Trace.f_p;
      Alcotest.(check int) "one chunk" 1 (Array.length tr.Trace.chunks)
  | forks -> Alcotest.failf "expected one region, got %d" (List.length forks)

(* ---------- Chunks closed forms (property) ---------- *)

let prop_chunks_sequence_tiles =
  QCheck.Test.make ~count:200 ~name:"Chunks.dynamic_sequence tiles [1..n]"
    QCheck.(pair (int_range 0 400) (int_range 1 16))
    (fun (n, p) ->
      List.for_all
        (fun policy ->
          match Chunks.dynamic_sequence policy ~k:1 ~n ~p with
          | None -> true
          | Some seq ->
              let total = Array.fold_left (fun acc (_, l) -> acc + l) 0 seq in
              let sorted_ok =
                Array.to_list seq
                |> List.fold_left
                     (fun (ok, next) (start, len) ->
                       (ok && start = next && len > 0, next + len))
                     (true, 1)
                |> fst
              in
              total = n && sorted_ok
              && Array.length seq = Chunks.count policy ~k:1 ~n ~p
              && (n = 0
                 || Chunks.sync_ops policy ~k:1 ~n ~p = Array.length seq + p))
        [ Policy.Self_sched 1; Policy.Self_sched 5; Policy.Gss;
          Policy.Factoring; Policy.Trapezoid ])

let prop_chunks_static_counts =
  QCheck.Test.make ~count:200 ~name:"Chunks.count static policies"
    QCheck.(pair (int_range 0 400) (int_range 1 16))
    (fun (n, p) ->
      Chunks.count Policy.Static_block ~k:1 ~n ~p = min p n
      && Chunks.sync_ops Policy.Static_block ~k:1 ~n ~p = 0
      && Chunks.sync_ops Policy.Static_cyclic ~k:1 ~n ~p = 0
      &&
      let cyclic = Chunks.count Policy.Static_cyclic ~k:1 ~n ~p in
      if n = 0 then cyclic = 0 else if p = 1 then cyclic = 1 else cyclic = n)

(* The floored sequences: they tile [1..n], every chunk but the last
   covers at least [k] iterations, count and sync_ops agree with them,
   and [k = 1] reproduces the policies' own chunk_sizes modules. *)
let prop_chunks_floored =
  QCheck.Test.make ~count:300 ~name:"Chunks floored sequences (GSS(k) etc.)"
    QCheck.(triple (int_range 0 3000) (int_range 1 16) (int_range 1 300))
    (fun (n, p, k) ->
      List.for_all
        (fun (policy, plain) ->
          let sizes = Option.get (Chunks.dynamic_sizes policy ~k ~n ~p) in
          let seq = Option.get (Chunks.dynamic_sequence policy ~k ~n ~p) in
          let rec floored = function
            | [] | [ _ ] -> true
            | c :: rest -> c >= k && floored rest
          in
          let tiles, _ =
            Array.fold_left
              (fun (ok, next) (start, len) ->
                (ok && start = next && len > 0, next + len))
              (true, 1) seq
          in
          List.fold_left ( + ) 0 sizes = n
          && tiles
          && Array.to_list (Array.map snd seq) = sizes
          && floored sizes
          && List.length sizes = Chunks.count policy ~k ~n ~p
          && List.length sizes = Chunks.per_worker_bound policy ~k ~n ~p
          && (n = 0 || Chunks.sync_ops policy ~k ~n ~p = List.length sizes + p)
          && Chunks.dynamic_sizes policy ~k:1 ~n ~p = Some (plain ~n ~p))
        [
          (Policy.Gss, Gss.chunk_sizes);
          (Policy.Factoring, Factoring.chunk_sizes);
          (Policy.Trapezoid, Trapezoid.chunk_sizes);
        ])

(* ---------- Chrome trace export ---------- *)

(* A minimal JSON syntax checker: accepts exactly one value spanning the
   whole input. Enough to guarantee about://tracing will not reject the
   file on syntax. *)
let json_valid s =
  let n = String.length s in
  let pos = ref 0 in
  let fail () = raise Exit in
  let peek () = if !pos >= n then fail () else s.[!pos] in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\n' | '\t' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let lit w =
    String.iter
      (fun c ->
        if peek () <> c then fail ();
        advance ())
      w
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      advance ()
    done;
    if !pos = start then fail ()
  in
  let string_ () =
    if peek () <> '"' then fail ();
    advance ();
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          advance ();
          go ()
      | _ ->
          advance ();
          go ()
    in
    go ()
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' -> obj ()
    | '[' -> arr ()
    | '"' -> string_ ()
    | 't' -> lit "true"
    | 'f' -> lit "false"
    | 'n' -> lit "null"
    | '-' | '0' .. '9' -> number ()
    | _ -> fail ()
  and obj () =
    advance ();
    skip_ws ();
    if peek () = '}' then advance ()
    else
      let rec members () =
        skip_ws ();
        string_ ();
        skip_ws ();
        if peek () <> ':' then fail ();
        advance ();
        value ();
        skip_ws ();
        match peek () with
        | ',' ->
            advance ();
            members ()
        | '}' -> advance ()
        | _ -> fail ()
      in
      members ()
  and arr () =
    advance ();
    skip_ws ();
    if peek () = ']' then advance ()
    else
      let rec elems () =
        value ();
        skip_ws ();
        match peek () with
        | ',' ->
            advance ();
            elems ()
        | ']' -> advance ()
        | _ -> fail ()
      in
      elems ()
  in
  match
    value ();
    skip_ws ();
    !pos = n
  with
  | b -> b
  | exception Exit -> false

let test_chrome_trace_valid_json () =
  List.iter
    (fun (domains, policy) ->
      let _, tr = traced_run ~domains ~policy () in
      let s = Chrome_trace.to_string tr in
      Alcotest.(check bool)
        (Printf.sprintf "valid JSON (%s, %d domains)" (Policy.name policy)
           domains)
        true (json_valid s);
      (* One event per chunk and fork, plus p+2 metadata events, all
         inside the traceEvents array. *)
      let count_needle needle =
        let rec go from acc =
          match String.index_from_opt s from '"' with
          | None -> acc
          | Some _ -> (
              match
                if from + String.length needle <= String.length s then
                  String.sub s from (String.length needle) = needle
                else false
              with
              | true -> go (from + 1) (acc + 1)
              | false -> go (from + 1) acc)
        in
        go 0 0
      in
      let chunk_events = count_needle "\"name\":\"chunk [" in
      Alcotest.(check int) "one event per chunk"
        (Array.length tr.Trace.chunks)
        chunk_events;
      (* The fork's args carry the plan's minimum chunk: the nest has
         no serial loop. *)
      Alcotest.(check int) "fork args carry k"
        (Array.length tr.Trace.forks)
        (count_needle
           (Printf.sprintf "\"k\":%d," Runtime.Bytecode.lane_width)))
    [ (1, Policy.Static_block); (4, Policy.Gss) ]

let test_chrome_trace_escapes () =
  Alcotest.(check bool) "json self-test rejects garbage" false
    (json_valid "{\"a\": [1, 2,}");
  Alcotest.(check bool) "json self-test accepts object" true
    (json_valid "{\"a\": [1, 2.5e-3, \"x\\\"y\"], \"b\": null}\n")

(* ---------- the --time line and renderers ---------- *)

let test_time_line_format () =
  let line =
    Report.time_line ~engine:"compiled" ~domains:4 ~policy:"GSS"
      ~wall_s:0.001234
  in
  Alcotest.(check string) "exact format"
    "time engine=compiled domains=4 policy=GSS wall_s=0.001234" line;
  (* Machine-parseable: split on spaces, each field key=value. *)
  match String.split_on_char ' ' line with
  | "time" :: fields ->
      let kv =
        List.map
          (fun f ->
            match String.index_opt f '=' with
            | Some i ->
                ( String.sub f 0 i,
                  String.sub f (i + 1) (String.length f - i - 1) )
            | None -> Alcotest.failf "field %S is not key=value" f)
          fields
      in
      Alcotest.(check (list string)) "stable keys"
        [ "engine"; "domains"; "policy"; "wall_s" ]
        (List.map fst kv);
      Alcotest.(check int) "domains parses" 4
        (int_of_string (List.assoc "domains" kv));
      Alcotest.(check bool) "wall_s parses" true
        (float_of_string (List.assoc "wall_s" kv) > 0.0)
  | _ -> Alcotest.fail "line must start with 'time '"

let test_time_suffix_contract () =
  Alcotest.(check string) "suffix format"
    " opt=2 plan_cache=hit"
    (Report.time_suffix ~opt:2 ~plan_cache:"hit" ());
  Alcotest.(check string) "extra fields append in order"
    " opt=0 plan_cache=off profile=on x=1"
    (Report.time_suffix ~extra:[ ("profile", "on"); ("x", "1") ] ~opt:0
       ~plan_cache:"off" ());
  (* The full --time line: stable prefix, suffix appended — a prefix
     consumer parsing up to wall_s= keeps working as fields grow. *)
  let line =
    Report.time_line ~engine:"bytecode" ~domains:2 ~policy:"GSS"
      ~wall_s:0.5
    ^ Report.time_suffix ~opt:2 ~plan_cache:"miss" ()
  in
  Alcotest.(check string) "pinned full line"
    "time engine=bytecode domains=2 policy=GSS wall_s=0.500000 opt=2 \
     plan_cache=miss"
    line;
  (* The tapecheck field the CLI appends under --time rides the same
     append-only contract: existing consumers see an unchanged prefix. *)
  let validated =
    Report.time_line ~engine:"bytecode" ~domains:2 ~policy:"GSS"
      ~wall_s:0.5
    ^ Report.time_suffix
        ~extra:[ ("tapecheck", "ok") ]
        ~opt:2 ~plan_cache:"off" ()
  in
  Alcotest.(check string) "pinned line with tapecheck field"
    "time engine=bytecode domains=2 policy=GSS wall_s=0.500000 opt=2 \
     plan_cache=off tapecheck=ok"
    validated;
  (* The search field ([loopc run --search]) appends after every earlier
     extra: off (no search), hit (warm-cache recipe replay) or the
     budget that was enumerated. Same append-only contract. *)
  let searched =
    Report.time_line ~engine:"bytecode" ~domains:2 ~policy:"GSS"
      ~wall_s:0.5
    ^ Report.time_suffix
        ~extra:[ ("tapecheck", "off"); ("search", "hit") ]
        ~opt:2 ~plan_cache:"hit" ()
  in
  Alcotest.(check string) "pinned line with search field"
    "time engine=bytecode domains=2 policy=GSS wall_s=0.500000 opt=2 \
     plan_cache=hit tapecheck=off search=hit"
    searched;
  (* The inline field (forks run on the caller, counted under
     exec.inline_forks.one_chunk) appends after search. *)
  let inlined =
    Report.time_line ~engine:"bytecode" ~domains:2 ~policy:"GSS"
      ~wall_s:0.5
    ^ Report.time_suffix
        ~extra:[ ("tapecheck", "off"); ("search", "off"); ("inline", "13") ]
        ~opt:2 ~plan_cache:"hit" ()
  in
  Alcotest.(check string) "pinned line with inline field"
    "time engine=bytecode domains=2 policy=GSS wall_s=0.500000 opt=2 \
     plan_cache=hit tapecheck=off search=off inline=13"
    inlined

(* ---------- metrics registry ---------- *)

let test_registry_counters_gauges () =
  let c = Registry.counter "test_obs.ctr" in
  let c' = Registry.counter "test_obs.ctr" in
  Registry.incr c;
  Registry.add c' 4;
  Alcotest.(check int) "same name, same counter" 5 (Registry.value c);
  let g = Registry.gauge "test_obs.gauge" in
  Registry.set g 2.5;
  Alcotest.(check (float 0.0)) "gauge last-write-wins" 2.5 (Registry.get g);
  (* Re-registering a name as a different kind is a programming error. *)
  Alcotest.check_raises "kind mismatch rejected"
    (Invalid_argument "Registry: metric kind mismatch for test_obs.ctr")
    (fun () -> ignore (Registry.gauge "test_obs.ctr"))

let test_registry_histogram_percentiles () =
  let h = Registry.histogram "test_obs.hist" in
  (* 90 small values in [1,1] and 10 large in [1024, 2047]: p50 lands in
     the small bucket, p99 in the large one; percentiles report the
     matched bucket's lower bound. *)
  for _ = 1 to 90 do
    Registry.observe h 1
  done;
  for i = 1 to 10 do
    Registry.observe h (1024 + i)
  done;
  let s = Registry.hstats h in
  Alcotest.(check int) "count" 100 s.Registry.count;
  Alcotest.(check int) "sum" (90 + (10 * 1024) + 55) s.Registry.sum;
  Alcotest.(check int) "p50 lower bound" 1 s.Registry.p50;
  Alcotest.(check int) "p99 lower bound" 1024 s.Registry.p99;
  Alcotest.(check int) "max exact" 1034 s.Registry.max_v;
  (* Empty histogram: all-zero stats, no division by zero. *)
  let e = Registry.hstats (Registry.histogram "test_obs.hist_empty") in
  Alcotest.(check int) "empty count" 0 e.Registry.count;
  Alcotest.(check int) "empty p99" 0 e.Registry.p99

let test_registry_snapshot_and_json () =
  ignore (Registry.counter "test_obs.snap_a" : Registry.counter);
  ignore (Registry.histogram "test_obs.snap_b" : Registry.histogram);
  let names = List.map fst (Registry.snapshot ()) in
  Alcotest.(check bool) "snapshot sorted" true
    (List.sort String.compare names = names);
  Alcotest.(check bool) "snapshot has both" true
    (List.mem "test_obs.snap_a" names && List.mem "test_obs.snap_b" names);
  Alcotest.(check bool) "registry dump is valid JSON" true
    (json_valid (Registry.to_json ()));
  Alcotest.(check bool) "render mentions metrics" true
    (String.length (Registry.render ()) > 0)

let test_registry_reset () =
  (* [reset] zeroes every metric any module registered, the plan-cache
     pair included. *)
  let hits = Registry.counter "plan_cache.hit" in
  let c = Registry.counter "test_obs.reset_me" in
  let h = Registry.histogram "test_obs.reset_hist" in
  Registry.incr hits;
  Registry.incr c;
  Registry.observe h 42;
  Registry.reset ();
  Alcotest.(check int) "plan cache hits zeroed" 0 (Registry.value hits);
  Alcotest.(check int) "other counters zeroed" 0 (Registry.value c);
  Alcotest.(check int) "histograms zeroed" 0 (Registry.hstats h).Registry.count

let test_measured_gantt_rows () =
  let rows prog =
    let _, tr = traced_run ~prog ~domains:4 ~policy:Policy.Trapezoid () in
    let f = (Metrics.of_trace tr).Metrics.forks |> List.hd in
    let g = Report.measured_gantt ~width:40 tr ~epoch:f.Metrics.epoch in
    String.split_on_char '\n' g
    |> List.filter (fun l -> String.length l > 0 && l.[0] = 'p')
  in
  (* Every forked worker gets a row, even one that executed nothing. *)
  Alcotest.(check int) "one row per worker" 4 (List.length (rows wide_nest));
  (* The single nest is one chunk, run on the caller alone. *)
  Alcotest.(check int) "inline fork: one row" 1 (List.length (rows single_nest))

let test_side_by_side () =
  let joined = Report.side_by_side "aa\nb\n" "xxx\nyyyy\nz\n" in
  Alcotest.(check (list string)) "lines paired and padded"
    [ "aa   xxx"; "b    yyyy"; "     z"; "" ]
    (String.split_on_char '\n' joined)

let test_model_check_grades () =
  let side speedup = { Model_check.speedup; dispatches = 10; imbalance = 1.0 } in
  let s =
    Model_check.score ~kernel:"k" ~policy:"GSS" ~domains:4
      ~predicted:(side 4.0) ~measured:(side 3.0)
  in
  Alcotest.(check string) "within 2x is good" "good" s.Model_check.grade;
  Alcotest.(check bool) "dispatches exact" true s.Model_check.dispatches_exact;
  let s =
    Model_check.score ~kernel:"k" ~policy:"GSS" ~domains:4
      ~predicted:(side 4.0) ~measured:(side 0.5)
  in
  Alcotest.(check string) "8x off is poor" "poor" s.Model_check.grade;
  (* Table and summary render without raising. *)
  Alcotest.(check bool) "summary mentions counts" true
    (String.length (Model_check.summary [ s ]) > 0);
  ignore (Table.render (Model_check.table [ s ]))

(* [Recipe.apply] counts each atom that changed the program under
   [transform.<atom>.fired]: coalescing matmul's nests fires
   [coalesce] once; coalescing the result again changes nothing. *)
let test_transform_fired () =
  let fired atom =
    Registry.value (Registry.counter ("transform." ^ atom ^ ".fired"))
  in
  let prog =
    Result.get_ok (Driver.load_file "../examples/programs/matmul.loop")
  in
  let r = Result.get_ok (Recipe.of_string "coalesce(ceiling)") in
  let before = fired "coalesce" in
  let once = Result.get_ok (Recipe.apply r prog) in
  Alcotest.(check int) "matmul coalesced" 1 (fired "coalesce" - before);
  ignore (Result.get_ok (Recipe.apply r once) : Ast.program);
  Alcotest.(check int) "coalesced again: unchanged" 1
    (fired "coalesce" - before)

let suite =
  [
    Alcotest.test_case "chunks partition [1..N] (all policies x domains)"
      `Quick test_partition_all_policies;
    Alcotest.test_case "partition check detects gaps/overlaps" `Quick
      test_partition_detects_gap_and_overlap;
    Alcotest.test_case "dispatch counts match closed forms" `Quick
      test_dispatch_counts_match_closed_forms;
    Alcotest.test_case "GSS/factoring/TSS exact dispatch counts" `Quick
      test_decaying_policies_exact;
    Alcotest.test_case "chunk boundaries match closed-form sequence" `Quick
      test_chunk_boundaries_match_sequence;
    Alcotest.test_case "tracing changes no result bit" `Quick
      test_tracing_changes_nothing;
    Alcotest.test_case "metrics accounting" `Quick test_metrics_accounting;
    Alcotest.test_case "sequential fallback traced as static block" `Quick
      test_sequential_region_traced_as_block;
    Alcotest.test_case "chrome trace is valid JSON" `Quick
      test_chrome_trace_valid_json;
    Alcotest.test_case "json checker self-test" `Quick
      test_chrome_trace_escapes;
    Alcotest.test_case "--time line format is stable" `Quick
      test_time_line_format;
    Alcotest.test_case "--time suffix contract" `Quick
      test_time_suffix_contract;
    Alcotest.test_case "registry counters and gauges" `Quick
      test_registry_counters_gauges;
    Alcotest.test_case "registry histogram percentiles" `Quick
      test_registry_histogram_percentiles;
    Alcotest.test_case "registry snapshot and JSON dump" `Quick
      test_registry_snapshot_and_json;
    Alcotest.test_case "reset clears all metrics" `Quick test_registry_reset;
    Alcotest.test_case "measured gantt has one row per worker" `Quick
      test_measured_gantt_rows;
    Alcotest.test_case "side-by-side pairing" `Quick test_side_by_side;
    Alcotest.test_case "model check grading" `Quick test_model_check_grades;
    Gen.to_alcotest prop_chunks_sequence_tiles;
    Gen.to_alcotest prop_chunks_static_counts;
    Gen.to_alcotest prop_chunks_floored;
    Alcotest.test_case "transform atoms count fired" `Quick
      test_transform_fired;
  ]
