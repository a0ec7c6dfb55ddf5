(* Runtime bench: measured wall-clock for the compiled multicore runtime
   vs the tree-walking interpreter, across kernels, scheduling policies
   and domain counts — with the event simulator's predicted speedup
   alongside, so the paper's analytic claims can be compared against
   real execution on every PR.

   Each parallel configuration is additionally run once under the
   tracing layer, so every record carries measured dispatch behaviour
   (chunks dispatched, load imbalance, sync ops per iteration), and the
   simulator's model is scored against the traced execution in a final
   model-check table. Rows with more domains than host cores are marked
   oversubscribed: their wall-clock "scaling" is time-slicing, not
   parallelism.

   Emits BENCH_runtime.json (machine-readable, one record per
   measurement) and BENCH_opt.md, and prints summary tables. A [--gate]
   run covers only the gate kernels at one domain and writes
   BENCH_runtime.gate.json and BENCH_opt.gate.md instead, so it never
   overwrites the full sweep's files. *)

open Loopcoal
module Exec = Runtime.Exec
module Compile = Runtime.Compile
module Pool = Runtime.Pool
module Profile = Runtime.Profile

let now () = Unix.gettimeofday ()

(* Every benched compile runs under the Tapecheck per-pass hook: the
   perf gates measure execution with validation enabled at compile
   time (validation must never touch the hot path), and a validator
   finding on a bench kernel is a hard failure, not a perf delta. *)
let validate ~plan ~pass ds =
  List.iter
    (fun (d : Diag.t) ->
      Printf.eprintf "tapecheck: plan %d after %s: %s %s: %s\n" plan pass
        d.Diag.code
        (Diag.severity_to_string d.Diag.severity)
        d.Diag.message)
    ds;
  if List.exists (fun (d : Diag.t) -> d.Diag.severity = Diag.Error) ds then
    failwith "tape validation failed"

let compile_validated ?opt_level prog =
  Compile.compile ?opt_level ~validate prog

(* Minimum of [reps] timed runs; [f] must be self-contained. *)
let time_min reps f =
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = now () in
    f ();
    let dt = now () -. t0 in
    if dt < !best then best := dt
  done;
  !best

type record = {
  kernel : string;
  engine : string;
      (* "interpreter" | "bytecode" | "native" |
         "bytecode-prof" (bytecode with the tape-profile collector
         attached) *)
  policy : string option;
  domains : int;
  opt_level : int option;  (* bytecode rows only: Tapeopt level *)
  iters : int;
  time_s : float;
  speedup_vs_interp : float option;
  speedup_vs_1dom : float option;
  predicted_speedup : float option;
  chunks_dispatched : int option;  (* traced, whole program *)
  imbalance : float option;  (* traced, max/mean busy of largest region *)
  sync_ops_per_iter : float option;  (* traced, whole program *)
  note : string option;
  profile : string option;
      (* pre-serialized JSON profile summary; profiled rows only *)
}

let ns_per_iter r = r.time_s *. 1e9 /. float_of_int (max 1 r.iters)

let json_of_record r =
  let opt_f = function
    | None -> "null"
    | Some x -> Printf.sprintf "%.4f" x
  in
  let opt_i = function
    | None -> "null"
    | Some n -> string_of_int n
  in
  let opt_s = function
    | None -> "null"
    | Some s -> Printf.sprintf "%S" s
  in
  Printf.sprintf
    "    {\"kernel\": %S, \"engine\": %S, \"policy\": %s, \"domains\": %d, \
     \"opt_level\": %s, \"iters\": %d, \"time_s\": %.6f, \"ns_per_iter\": \
     %.2f, \"speedup_vs_interp\": %s, \"speedup_vs_1dom\": %s, \
     \"predicted_speedup\": %s, \"chunks_dispatched\": %s, \
     \"imbalance\": %s, \"sync_ops_per_iter\": %s, \"note\": %s, \
     \"profile\": %s}"
    r.kernel r.engine (opt_s r.policy) r.domains (opt_i r.opt_level) r.iters
    r.time_s (ns_per_iter r)
    (opt_f r.speedup_vs_interp)
    (opt_f r.speedup_vs_1dom)
    (opt_f r.predicted_speedup)
    (opt_i r.chunks_dispatched)
    (opt_f r.imbalance)
    (opt_f r.sync_ops_per_iter)
    (opt_s r.note)
    (match r.profile with None -> "null" | Some j -> j)

(* Profile summary for a record's "profile" field: the source-loop and
   opcode views the tape profiler attributes through the provenance
   side tables, top five rows each. *)
let json_of_summary (sm : Profile.summary) =
  let top n l = List.filteri (fun i _ -> i < n) l in
  let loops =
    String.concat ", "
      (List.map
         (fun (lr : Profile.loop_row) ->
           Printf.sprintf "{\"loop\": %S, \"stmt\": %S, \"dispatches\": %d}"
             lr.Profile.lr_loop lr.Profile.lr_stmt lr.Profile.lr_dispatches)
         (top 5 sm.Profile.sm_loops))
  in
  let opcodes =
    String.concat ", "
      (List.map
         (fun (op, n) ->
           Printf.sprintf "{\"opcode\": %S, \"dispatches\": %d}" op n)
         (top 5 sm.Profile.sm_opcodes))
  in
  Printf.sprintf
    "{\"dispatches\": %d, \"iters\": %d, \"strips\": %d, \
     \"dispatches_per_iter\": %.3f, \"attributed_fraction\": %.4f, \
     \"hot_loops\": [%s], \"hot_opcodes\": [%s]}"
    sm.Profile.sm_dispatches sm.Profile.sm_iters sm.Profile.sm_strips
    (float_of_int sm.Profile.sm_dispatches
    /. float_of_int (max 1 sm.Profile.sm_iters))
    (Profile.attributed_fraction sm)
    loops opcodes

let bench_policies =
  [
    Policy.Static_block;
    Policy.Static_cyclic;
    Policy.Self_sched 1;
    Policy.Self_sched 16;
    Policy.Gss;
    Policy.Factoring;
    Policy.Trapezoid;
  ]

let host_cores = Domain.recommended_domain_count ()

(* The host a run measured: its CPU model (the first "model name" of
   /proc/cpuinfo, where the system has one), cores and OCaml version. *)
let host =
  let model =
    try
      In_channel.with_open_text "/proc/cpuinfo" (fun ic ->
          let rec find () =
            match In_channel.input_line ic with
            | None -> None
            | Some l -> (
                match String.index_opt l ':' with
                | Some k when String.starts_with ~prefix:"model name" l ->
                    let n = String.length l - k - 1 in
                    Some (String.trim (String.sub l (k + 1) n))
                | _ -> find ())
          in
          find ())
    with Sys_error _ -> None
  in
  Printf.sprintf "%s, %d cores, OCaml %s"
    (Option.value ~default:"unknown CPU" model)
    host_cores Sys.ocaml_version

(* Robust per-kernel sequential ratios, filled by [bench_kernel] and
   read back by the headline tables and perf gates: kernel ->
   (median interpreter/-O2 time ratio, median -O0/-O2 time ratio). Each
   ratio is computed within one interleaved round — both sides see the
   same host-speed drift window — and the median over rounds rejects
   the rounds a noisy neighbour poisoned. Minima of independent
   per-config times (the ns/iter columns) do not have this property:
   the two minima can come from different drift windows and their
   ratio then swings run to run. *)
let seq_ratios : (string, float * float) Hashtbl.t = Hashtbl.create 16

(* Per-kernel native-tier ratios, same construction: kernel -> median
   bytecode--O2/native time ratio (the native tier's speedup). Filled
   only when the host has a usable ocamlopt; informational, not gated. *)
let native_ratios : (string, float) Hashtbl.t = Hashtbl.create 16

(* Per-kernel profiler ratios, same per-round-median construction:
   kernel -> (median off-repeat time ratio, median profiler-on/off time
   ratio). The first is a noise canary — two identical profiler-off
   configurations in the same interleaved rounds — because a
   pre-profiler binary is not available in-tree to difference against;
   the off path's absolute speed is guarded by Gate 1's floor. The
   second prices turning the collector on. *)
let prof_ratios : (string, float * float) Hashtbl.t = Hashtbl.create 16

let median = function
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The default sweep never exceeds the host's cores: oversubscribed rows
   measure time-slicing, not parallelism, and made headline
   speedup_vs_1dom numbers on small hosts read as regressions. They are
   opt-in via --oversubscribe. *)
let domain_counts ~oversubscribe =
  List.sort_uniq compare [ 1; 2; 4; min 8 host_cores ]
  |> List.filter (fun d -> d <= host_cores || oversubscribe)

(* The compiled engines measured at every configuration; the
   tree-walking interpreter is sequential-only. Bytecode is measured at
   optimizer level 0 (raw lowering) sequentially, to price the Tapeopt
   pipeline, and at level 2 (the default) everywhere. *)

(* Predicted coalesced speedup from the event simulator at p domains,
   using the interpreter-profiled body cost of the kernel's first
   constant nest (the same pipeline `loopc schedule` uses). *)
let predicted prog ~policy ~p =
  match Driver.schedule_program ~policy ~p prog with
  | Error _ -> None
  | Ok (_, lines) -> (
      match lines with
      | (l : Driver.sim_line) :: _ -> Some l.Driver.speedup
      | [] -> None)

(* The simulator's full prediction for the profiled nest: dispatch count
   and busy-time balance, not just the speedup headline. *)
let predicted_side (prof : Driver.profile) ~policy ~p =
  let sizes = prof.Driver.p_shape in
  let n = Intmath.product sizes in
  let chunk_cost =
    Workload_cost.chunk_cost ~strategy:Index_recovery.Incremental ~sizes
      ~body:(Bodies.uniform prof.Driver.p_body_cost)
  in
  let machine = Machine.default ~p in
  let r = Event_sim.simulate ~machine ~policy ~n ~chunk_cost in
  let spec =
    {
      Driver.shape = sizes;
      body = Bodies.uniform prof.Driver.p_body_cost;
      machine;
      strategy = Index_recovery.Incremental;
    }
  in
  let busy = r.Event_sim.busy in
  let max_busy = Array.fold_left Float.max 0.0 busy in
  let mean_busy =
    Array.fold_left ( +. ) 0.0 busy /. float_of_int (max 1 (Array.length busy))
  in
  ( n,
    {
      Model_check.speedup = Driver.serial_time spec /. r.Event_sim.completion;
      dispatches = r.Event_sim.dispatches;
      imbalance = (if mean_busy <= 0.0 then 1.0 else max_busy /. mean_busy);
    } )

let bench_kernel ~out ~score ~domain_counts (name, mk) =
  let prog : Ast.program = mk () in
  (* Iteration count measured once by the reference interpreter; the
     same denominator is used for every engine so ns/iter is
     comparable. *)
  let st = Eval.run ~fuel:max_int prog in
  let iters = (Eval.counters st).Eval.loop_iters in
  let compiled = compile_validated prog in
  let compiled0 = compile_validated ~opt_level:0 prog in
  (* Sequential baseline per engine configuration; parallel rows report
     their speedup_vs_1dom against the same configuration's baseline.
     The bytecode tier appears twice at 1 domain — raw lowering (-O0)
     and the full Tapeopt pipeline (-O2) — but only -O2 joins the
     parallel sweep. *)
  (* The native tier rides along when the host can build it: runners are
     prepared (codegen + out-of-process ocamlopt + Dynlink) before any
     timing starts, so native rows measure execution, not compilation. *)
  let native_ok =
    match Runtime.Natgen.available () with
    | Error m ->
        Printf.eprintf "note: native tier not benched (%s)\n%!" m;
        false
    | Ok () -> (
        match Runtime.Natgen.prepare compiled with
        | Runtime.Natgen.Ready _ -> true
        | Runtime.Natgen.Unavailable m ->
            Printf.eprintf "note: native tier not benched for %s (%s)\n%!"
              name m;
            false)
  in
  let seq_configs =
    [
      ("bytecode", Exec.Bytecode, compiled0, Some 0);
      ("bytecode", Exec.Bytecode, compiled, Some 2);
    ]
    @ (if native_ok then [ ("native", Exec.Native, compiled, Some 2) ] else [])
  in
  (* Sequential baselines are timed in interleaved rounds — one rep of
     every configuration per round — rather than all reps of one
     configuration back to back. Host speed drifts on minute scales
     (frequency scaling, noisy neighbours); interleaving shows every
     configuration the same drift, so the cross-config ratios the perf
     gates check stay stable even when absolute times move. Each
     configuration reports its best round; the gate ratios take the
     median over all rounds, so the round count (odd, and large enough
     that a handful of poisoned rounds cannot move the middle) bounds
     the gate's run-to-run variance. The interpreter runs in every round
     too, as the fixed yardstick of Gate 1.

     A run reads differently depending on which configuration ran just
     before it (timed back to back, swapping -O0 and -O2 moved their
     geomean ratio by 2-3%), so every compiled configuration is timed
     right after one untimed run of itself: no timed run follows
     another configuration, and the configuration order no longer
     moves the ratios. The interpreter opens each round, after the
     previous round's last compiled run. *)
  let seq_best =
    let runs =
      (false, fun () -> ignore (Eval.run ~fuel:max_int prog))
      :: List.map
           (fun (_, engine, c, _) ->
             (true, fun () -> ignore (Exec.run_compiled ~domains:1 ~engine c)))
           seq_configs
    in
    let n = List.length runs in
    let best = Array.make n infinity in
    let rounds = ref [] in
    for _ = 1 to 41 do
      let times = Array.make n 0.0 in
      List.iteri
        (fun i (warm, run) ->
          if warm then run ();
          let t0 = now () in
          run ();
          let dt = now () -. t0 in
          times.(i) <- dt;
          if dt < best.(i) then best.(i) <- dt)
        runs;
      rounds := times :: !rounds
    done;
    (* Run order: the interpreter, bytecode -O0, -O2, then the native
       tier when present. *)
    let ratio i j = median (List.map (fun a -> a.(i) /. a.(j)) !rounds) in
    Hashtbl.replace seq_ratios name (ratio 0 2, ratio 1 2);
    if native_ok then Hashtbl.replace native_ratios name (ratio 2 3);
    best
  in
  let t_interp = seq_best.(0) in
  out
    {
      kernel = name;
      engine = "interpreter";
      policy = None;
      domains = 1;
      opt_level = None;
      iters;
      time_s = t_interp;
      speedup_vs_interp = None;
      speedup_vs_1dom = None;
      predicted_speedup = None;
      chunks_dispatched = None;
      imbalance = None;
      sync_ops_per_iter = None;
      note = None;
      profile = None;
    };
  let seq_times =
    List.mapi
      (fun i (ename, engine, c, lvl) ->
        let t_seq = seq_best.(i + 1) in
        out
          {
            kernel = name;
            engine = ename;
            policy = None;
            domains = 1;
            opt_level = lvl;
            iters;
            time_s = t_seq;
            speedup_vs_interp = Some (t_interp /. t_seq);
            speedup_vs_1dom = Some 1.0;
            predicted_speedup = None;
            chunks_dispatched = None;
            imbalance = None;
            sync_ops_per_iter = None;
            note = None;
            profile = None;
          };
        (ename, engine, c, lvl, t_seq))
      seq_configs
  in
  (* Profiler-overhead rounds, same interleaved-median discipline as the
     sequential sweep: profiler off, profiler on (fresh collector per
     rep), and profiler off again. The off/off-repeat ratio is the
     noise canary [prof_ratios] documents; on/off is the collector's
     price. A profiled run also furnishes the record's profile summary
     — the same attribution `loopc run --profile` prints. As in the
     sequential rounds, each configuration is timed right after one
     untimed run of itself, so the two off runs never differ by what ran
     before them. *)
  let t_prof_on =
    let best = Array.make 3 infinity in
    let rounds = ref [] in
    for _ = 1 to 21 do
      let times = Array.make 3 0.0 in
      let timed i f =
        f ();
        let t0 = now () in
        f ();
        let dt = now () -. t0 in
        times.(i) <- dt;
        if dt < best.(i) then best.(i) <- dt
      in
      timed 0 (fun () ->
          ignore (Exec.run_compiled ~domains:1 ~engine:Exec.Bytecode compiled));
      timed 1 (fun () ->
          let pc = Profile.create () in
          ignore
            (Exec.run_compiled ~domains:1 ~engine:Exec.Bytecode ~profile:pc
               compiled));
      timed 2 (fun () ->
          ignore (Exec.run_compiled ~domains:1 ~engine:Exec.Bytecode compiled));
      rounds := times :: !rounds
    done;
    let ratio i j = median (List.map (fun a -> a.(i) /. a.(j)) !rounds) in
    Hashtbl.replace prof_ratios name (ratio 2 0, ratio 1 0);
    best.(1)
  in
  let profile_json =
    let pc = Profile.create () in
    ignore (Exec.run_compiled ~domains:1 ~engine:Exec.Bytecode ~profile:pc compiled);
    json_of_summary (Profile.summarize pc)
  in
  out
    {
      kernel = name;
      engine = "bytecode-prof";
      policy = None;
      domains = 1;
      opt_level = Some 2;
      iters;
      time_s = t_prof_on;
      speedup_vs_interp = Some (t_interp /. t_prof_on);
      speedup_vs_1dom = None;
      predicted_speedup = None;
      chunks_dispatched = None;
      imbalance = None;
      sync_ops_per_iter = None;
      note =
        Some
          "tape-profile collector attached; compare against the plain \
           bytecode -O2 row for the profiler's price";
      profile = Some profile_json;
    };
  let par_configs =
    List.filter (fun (_, _, _, lvl, _) -> lvl <> Some 0) seq_times
  in
  let prof =
    match Driver.profile_first_nest prog with
    | Ok prof -> Some prof
    | Error _ -> None
  in
  List.iter
    (fun domains ->
      if domains > 1 then
        Pool.with_pool domains (fun pool ->
            List.iter
              (fun policy ->
                List.iter
                  (fun (ename, engine, compiled, lvl, t_seq) ->
                    let t_par =
                      time_min 3 (fun () ->
                          ignore (Exec.run_compiled ~pool ~policy ~engine compiled))
                    in
                    (* One extra traced run: the measured dispatch
                       behaviour of this exact configuration. *)
                    let tracer = Trace.create ~p:domains () in
                    ignore
                      (Exec.run_compiled ~pool ~policy ~engine ~trace:tracer
                         compiled);
                    let m = Metrics.of_trace (Trace.snapshot tracer) in
                    let note =
                      if domains > host_cores then
                        Some
                          (Printf.sprintf
                             "oversubscribed: %d domains on %d host core(s); \
                              wall-clock scaling reflects time-slicing"
                             domains host_cores)
                      else None
                    in
                    (* The simulator is scored against the default
                       (bytecode) engine only, once per configuration. *)
                    (if String.equal ename "bytecode" then
                       match prof with
                       | None -> ()
                       | Some prof -> (
                           let nest_n, pside =
                             predicted_side prof ~policy ~p:domains
                           in
                           (* Score against the first traced region that
                              executed the profiled nest, when there is
                              one. *)
                           match
                             List.find_opt
                               (fun (f : Metrics.fork_metrics) ->
                                 f.Metrics.n = nest_n)
                               m.Metrics.forks
                           with
                           | None -> ()
                           | Some f ->
                               score
                                 (Model_check.score ~kernel:name
                                    ~policy:(Policy.name policy) ~domains
                                    ~predicted:pside
                                    ~measured:
                                      {
                                        Model_check.speedup = t_seq /. t_par;
                                        dispatches = f.Metrics.chunks_dispatched;
                                        imbalance = f.Metrics.imbalance;
                                      })));
                    out
                      {
                        kernel = name;
                        engine = ename;
                        policy = Some (Policy.name policy);
                        domains;
                        opt_level = lvl;
                        iters;
                        time_s = t_par;
                        speedup_vs_interp = Some (t_interp /. t_par);
                        speedup_vs_1dom = Some (t_seq /. t_par);
                        predicted_speedup = predicted prog ~policy ~p:domains;
                        chunks_dispatched = Some m.Metrics.total_chunks;
                        imbalance = Some m.Metrics.imbalance;
                        sync_ops_per_iter =
                          Some
                            (float_of_int m.Metrics.total_sync_ops
                            /. float_of_int (max 1 m.Metrics.total_iters));
                        note;
                        profile = None;
                      })
                  par_configs)
              bench_policies))
    domain_counts

let bench_kernels =
  [
    ("matmul", fun () -> Kernels.matmul ~ra:48 ~ca:48 ~cb:48);
    ("stencil", fun () -> Kernels.stencil ~n:180);
    ("transpose", fun () -> Kernels.transpose ~n:200);
    ("gauss_jordan", fun () -> Kernels.gauss_jordan ~n:48 ~m:6);
    (* The SSA-pipeline shapes: a branchy body (exclusive if/else
       arms) and a variable-step serial loop (a hoisted invariant
       load). *)
    ("cond_stencil", fun () -> Kernels.cond_stencil ~n:24000);
    ("tri_gather", fun () -> Kernels.tri_gather ~n:2500);
    (* The transformation-search shapes: a time-stepped sweep whose
       parallel loop the searcher hoists outward (many small forks
       become one), and a serial real reduction it parallelizes. *)
    ("relax", fun () -> Kernels.relax ~n:2048 ~steps:64);
    ("pi", fun () -> Kernels.calculate_pi ~intervals:100_000);
  ]

(* The CI perf-smoke gates (relative guards — absolute thresholds flake
   on shared runners), both scaled by LOOPC_GATE_FACTOR: each kernel's
   1-domain bytecode -O2 speedup over the interpreter must stay within
   5% of its floor in [interp_speedup_floors], and the -O0/-O2 geomean
   speedup must reach 1.15x. *)
let gate_kernels =
  [ "matmul"; "stencil"; "transpose"; "cond_stencil"; "tri_gather" ]

(* Gate 1's floors: each gate kernel's 1-domain speedup over the
   interpreter when plan bodies still ran on a staged closure tree — the
   tier Gate 1 used to time beside the tape. Measured as the gate
   measures -O2 (median per-round ratio, the interpreter opening each
   round, the closure tier timed after an untimed run of itself); median
   of five bench runs on a 2-core Intel Xeon host. The floors are
   calibrated on that host and are not portable: a host where the
   interpreter is relatively slower passes with a wide margin, one where
   it is relatively faster can fail. The gate prints each kernel's
   margin on every run; LOOPC_GATE_FACTOR relaxes it on slower or
   noisier runners. *)
let interp_speedup_floors =
  [
    ("matmul", 13.46);
    ("stencil", 7.42);
    ("transpose", 7.09);
    ("cond_stencil", 6.76);
    ("tri_gather", 12.70);
  ]

let geomean = function
  | [] -> nan
  | l ->
      exp
        (List.fold_left (fun a x -> a +. log x) 0.0 l
        /. float_of_int (List.length l))

(* ---------- searched recipe vs default pipeline ----------

   For each kernel, run the model-guided transformation search (budget
   16, fp-reassociation allowed — the bench owns its kernels and their
   reductions tolerate reassociated sums) and time the winner's program
   against the untransformed one, both at bytecode -O2 on 1 domain, in
   interleaved rounds with the median per-round ratio as the headline —
   the same drift-immune construction as [seq_ratios]. The search gate
   asserts the winner is never slower than the default pipeline; the
   acceptance headline counts the kernels it beats by >= 1.10x. *)

type search_row = {
  sr_kernel : string;
  sr_recipe : string;
  sr_default_ns : float;  (* best-round ns/iter, default pipeline *)
  sr_searched_ns : float;  (* best-round ns/iter, winning recipe *)
  sr_ratio : float;  (* median per-round default/searched wall ratio *)
}

let search_kernels =
  [
    ("matmul", fun () -> Kernels.matmul ~ra:48 ~ca:48 ~cb:48);
    ("stencil", fun () -> Kernels.stencil ~n:180);
    ("transpose", fun () -> Kernels.transpose ~n:200);
    ("relax", fun () -> Kernels.relax ~n:2048 ~steps:64);
    ("pi", fun () -> Kernels.calculate_pi ~intervals:100_000);
  ]

let json_of_search_row r =
  Printf.sprintf
    "    {\"kernel\": %S, \"recipe\": %S, \"default_ns_per_iter\": %.2f, \
     \"searched_ns_per_iter\": %.2f, \"speedup\": %.4f}"
    r.sr_kernel r.sr_recipe r.sr_default_ns r.sr_searched_ns r.sr_ratio

let bench_search ~out () =
  let ctx = Search.default_ctx ~p:1 () in
  List.map
    (fun (name, mk) ->
      let prog : Ast.program = mk () in
      let st = Eval.run ~fuel:max_int prog in
      let iters = (Eval.counters st).Eval.loop_iters in
      let rep = Search.run ~budget:16 ~fp_reassoc:true ~label:name ~ctx prog in
      let recipe = Recipe.to_string rep.Search.rp_winner in
      let cd = compile_validated prog in
      let cs = compile_validated rep.Search.rp_program in
      let best_d = ref infinity and best_s = ref infinity in
      let rounds = ref [] in
      let timed c =
        let t0 = now () in
        ignore (Exec.run_compiled ~domains:1 ~engine:Exec.Bytecode c);
        now () -. t0
      in
      (* Warm both sides, then alternate which goes first within each
         round: running second is systematically slower (allocator and
         cache state left by the first), and with a fixed order that
         bias survives the per-round median. *)
      ignore (timed cd);
      ignore (timed cs);
      for r = 1 to 21 do
        let td, ts =
          if r mod 2 = 1 then
            let td = timed cd in
            (td, timed cs)
          else
            let ts = timed cs in
            (timed cd, ts)
        in
        if td < !best_d then best_d := td;
        if ts < !best_s then best_s := ts;
        rounds := (td, ts) :: !rounds
      done;
      let ratio = median (List.map (fun (d, s) -> d /. s) !rounds) in
      (* One record per searched configuration; ns/iter uses the default
         program's interpreter-counted iteration total on both sides so
         the two stay comparable (recipes can change the loop count). *)
      out
        {
          kernel = name;
          engine = "bytecode-searched";
          policy = None;
          domains = 1;
          opt_level = Some 2;
          iters;
          time_s = !best_s;
          speedup_vs_interp = None;
          speedup_vs_1dom = None;
          predicted_speedup = None;
          chunks_dispatched = None;
          imbalance = None;
          sync_ops_per_iter = None;
          note =
            Some
              (Printf.sprintf
                 "winning recipe %s; median default/searched ratio %.2fx \
                  (see the search table)"
                 recipe ratio);
          profile = None;
        };
      {
        sr_kernel = name;
        sr_recipe = recipe;
        sr_default_ns = !best_d *. 1e9 /. float_of_int (max 1 iters);
        sr_searched_ns = !best_s *. 1e9 /. float_of_int (max 1 iters);
        sr_ratio = ratio;
      })
    search_kernels

let run ?(oversubscribe = false) ?(gate = false) () =
  let json_file, opt_file =
    if gate then ("BENCH_runtime.gate.json", "BENCH_opt.gate.md")
    else ("BENCH_runtime.json", "BENCH_opt.md")
  in
  let kernels =
    if gate then
      List.filter (fun (n, _) -> List.mem n gate_kernels) bench_kernels
    else bench_kernels
  in
  let domain_counts = if gate then [ 1 ] else domain_counts ~oversubscribe in
  let records = ref [] in
  let scores = ref [] in
  let t =
    Table.create
      [
        ("kernel", Table.Left);
        ("engine", Table.Left);
        ("policy", Table.Left);
        ("domains", Table.Right);
        ("opt", Table.Right);
        ("ns/iter", Table.Right);
        ("vs interp", Table.Right);
        ("vs 1-dom", Table.Right);
        ("predicted", Table.Right);
        ("chunks", Table.Right);
        ("imbalance", Table.Right);
        ("sync/iter", Table.Right);
      ]
  in
  let out r =
    records := r :: !records;
    let opt = function None -> "-" | Some x -> Printf.sprintf "%.2fx" x in
    let opt_plain fmt = function None -> "-" | Some x -> Printf.sprintf fmt x in
    Table.add_row t
      [
        r.kernel;
        r.engine;
        (match r.policy with None -> "-" | Some p -> p);
        Table.cell_int r.domains;
        opt_plain "%d" r.opt_level;
        Table.cell_float ~dec:1 (ns_per_iter r);
        opt r.speedup_vs_interp;
        opt r.speedup_vs_1dom;
        opt r.predicted_speedup;
        opt_plain "%d" r.chunks_dispatched;
        opt_plain "%.2f" r.imbalance;
        opt_plain "%.4f" r.sync_ops_per_iter;
      ]
  in
  let score s = scores := s :: !scores in
  Printf.printf "== runtime: measured wall-clock (host: %d core(s)) ==\n%!"
    host_cores;
  List.iter (bench_kernel ~out ~score ~domain_counts) kernels;
  let search_rows = bench_search ~out () in
  Table.print t;
  (match List.rev !scores with
  | [] -> ()
  | scores ->
      Table.print (Model_check.table scores);
      print_endline (Model_check.summary scores));
  let records = List.rev !records in
  let oc = open_out json_file in
  Printf.fprintf oc
    "{\n  \"host\": %S,\n  \"host_cores\": %d,\n  \"note\": \"engine is interpreter, \
     bytecode (flat register tape, strip-mined; eligible strips run \
     lane-at-a-time unless profiled) or \
     native (the -O2 tape Dynlink-compiled to machine code; rows present \
     only when the host has ocamlopt); \
     opt_level on bytecode rows is the Tapeopt level (0 = raw lowering, 2 = \
     licm + fuse; parallel rows run -O2); \
     speedups are wall-clock; speedup_vs_1dom is against the same engine and \
     opt_level at 1 domain; predicted is the event simulator's coalesced \
     speedup at the same p; chunks/imbalance/sync_ops_per_iter are traced \
     from a real run; rows noted oversubscribed exceed the host's cores \
     (opt-in via --oversubscribe); bytecode-prof rows rerun the 1-domain \
     -O2 configuration with the tape-profile collector attached and carry \
     the profiler's source-loop/opcode attribution in their profile field; \
     bytecode-searched rows rerun 1-domain -O2 on the transformation \
     search's winning recipe, with the search table's per-kernel \
     default-vs-searched median ratios\",\n\
     \  \"search\": [\n%s\n  ],\n\
     \  \"results\": [\n%s\n  ]\n}\n"
    host host_cores
    (String.concat ",\n" (List.map json_of_search_row search_rows))
    (String.concat ",\n" (List.map json_of_record records));
  close_out oc;
  Printf.printf "wrote %s (%d records)\n%!" json_file (List.length records);
  (* Bytecode-vs-interpreter and -O2-vs-O0 headlines at 1 domain, and
     the perf gates. LOOPC_GATE_FACTOR > 1 relaxes every threshold for
     noisy shared runners. *)
  let gate_factor =
    match Sys.getenv_opt "LOOPC_GATE_FACTOR" with
    | Some s -> ( match float_of_string_opt s with Some f when f > 0.0 -> f | _ -> 1.0)
    | None -> 1.0
  in
  let seq_row kname ename lvl =
    List.find_opt
      (fun r ->
        String.equal r.kernel kname
        && String.equal r.engine ename
        && r.domains = 1 && r.policy = None && r.opt_level = lvl)
      records
  in
  (* Speedup columns and gates use the drift-immune per-round median
     ratio from [seq_ratios]; the ns/iter columns stay best-round
     absolute times. *)
  let pairs =
    List.filter_map
      (fun (kname, _) ->
        match (seq_row kname "interpreter" None, seq_row kname "bytecode" (Some 2)) with
        | Some i, Some b ->
            let r =
              match Hashtbl.find_opt seq_ratios kname with
              | Some (r, _) -> r
              | None -> ns_per_iter i /. ns_per_iter b
            in
            Some (kname, ns_per_iter i, ns_per_iter b, r)
        | _ -> None)
      kernels
  in
  let opt_pairs =
    List.filter_map
      (fun (kname, _) ->
        match
          (seq_row kname "bytecode" (Some 0), seq_row kname "bytecode" (Some 2))
        with
        | Some o0, Some o2 ->
            let r =
              match Hashtbl.find_opt seq_ratios kname with
              | Some (_, r) -> r
              | None -> ns_per_iter o0 /. ns_per_iter o2
            in
            Some (kname, ns_per_iter o0, ns_per_iter o2, r)
        | _ -> None)
      kernels
  in
  let st =
    Table.create
      [
        ("kernel", Table.Left);
        ("interp ns/iter", Table.Right);
        ("bytecode ns/iter", Table.Right);
        ("speedup", Table.Right);
        ("gate floor", Table.Right);
      ]
  in
  List.iter
    (fun (k, i, b, r) ->
      Table.add_row st
        [
          k;
          Table.cell_float ~dec:1 i;
          Table.cell_float ~dec:1 b;
          Printf.sprintf "%.2fx" r;
          (match List.assoc_opt k interp_speedup_floors with
          | Some f -> Printf.sprintf "%.2fx" f
          | None -> "-");
        ])
    pairs;
  Printf.printf "\n== bytecode -O2 vs interpreter, 1 domain ==\n";
  Table.print st;
  (* Tapeopt price table: raw lowering (-O0) vs the full pipeline (-O2)
     at 1 domain — printed, and written to BENCH_opt.md so CI can keep
     it as an artifact. *)
  let ot =
    Table.create
      [
        ("kernel", Table.Left);
        ("-O0 ns/iter", Table.Right);
        ("-O2 ns/iter", Table.Right);
        ("speedup", Table.Right);
      ]
  in
  List.iter
    (fun (k, o0, o2, r) ->
      Table.add_row ot
        [
          k;
          Table.cell_float ~dec:1 o0;
          Table.cell_float ~dec:1 o2;
          Printf.sprintf "%.2fx" r;
        ])
    opt_pairs;
  let opt_geomean = geomean (List.map (fun (_, _, _, r) -> r) opt_pairs) in
  Printf.printf "\n== bytecode -O2 vs -O0 (tape optimizer), 1 domain ==\n";
  Table.print ot;
  (match opt_pairs with
  | [] -> ()
  | _ -> Printf.printf "geomean speedup: %.2fx\n%!" opt_geomean);
  (let oc = open_out opt_file in
   Printf.fprintf oc
     "# Bytecode tape optimizer: -O2 vs -O0, 1 domain\n\n\
      host: %s\n\n\
      ns/iter is best-round wall-clock over the interpreter-counted\n\
      iteration total; speedup is the median of per-round -O0/-O2\n\
      ratios (drift-immune), so it need not equal the quotient of the\n\
      two best-round columns.\n\n\
      | kernel | -O0 ns/iter | -O2 ns/iter | speedup |\n\
      |---|---:|---:|---:|\n"
     host;
   List.iter
     (fun (k, o0, o2, r) ->
       Printf.fprintf oc "| %s | %.1f | %.1f | %.2fx |\n" k o0 o2 r)
     opt_pairs;
   (match opt_pairs with
   | [] -> ()
   | _ -> Printf.fprintf oc "\ngeomean speedup: %.2fx\n" opt_geomean);
   close_out oc);
  Printf.printf "wrote %s (%d kernels)\n%!" opt_file (List.length opt_pairs);
  (* Native tier vs bytecode -O2 at 1 domain — informational only, never
     a gate: absolute machine-code speedups vary too much across hosts
     to guard, and hosts without ocamlopt have no native rows at all. *)
  let native_pairs =
    List.filter_map
      (fun (kname, _) ->
        match
          ( seq_row kname "bytecode" (Some 2),
            seq_row kname "native" (Some 2),
            Hashtbl.find_opt native_ratios kname )
        with
        | Some b, Some n, Some r -> Some (kname, ns_per_iter b, ns_per_iter n, r)
        | _ -> None)
      kernels
  in
  (match native_pairs with
  | [] ->
      print_endline
        "\n== native vs bytecode -O2, 1 domain: no native rows (toolchain \
         missing or tier disabled) =="
  | _ ->
      let nt =
        Table.create
          [
            ("kernel", Table.Left);
            ("bytecode ns/iter", Table.Right);
            ("native ns/iter", Table.Right);
            ("speedup", Table.Right);
          ]
      in
      List.iter
        (fun (k, b, n, r) ->
          Table.add_row nt
            [
              k;
              Table.cell_float ~dec:1 b;
              Table.cell_float ~dec:1 n;
              Printf.sprintf "%.2fx" r;
            ])
        native_pairs;
      Printf.printf
        "\n== native vs bytecode -O2, 1 domain (informational, not gated) ==\n";
      Table.print nt;
      Printf.printf "geomean speedup: %.2fx\n%!"
        (geomean (List.map (fun (_, _, _, r) -> r) native_pairs)));
  (* Profiler price table: plain bytecode -O2 vs the same run with the
     tape-profile collector attached, and the off-repeat noise canary
     (two identical profiler-off configurations; their median per-round
     ratio is pure measurement noise because profiling-off selects the
     exact pre-profiler closures). *)
  let prof_rows =
    List.filter_map
      (fun (kname, _) ->
        match
          ( seq_row kname "bytecode" (Some 2),
            seq_row kname "bytecode-prof" (Some 2),
            Hashtbl.find_opt prof_ratios kname )
        with
        | Some off, Some on_, Some (off_repeat, overhead) ->
            Some (kname, ns_per_iter off, ns_per_iter on_, overhead, off_repeat)
        | _ -> None)
      kernels
  in
  let pt =
    Table.create
      [
        ("kernel", Table.Left);
        ("off ns/iter", Table.Right);
        ("on ns/iter", Table.Right);
        ("on/off", Table.Right);
        ("off repeat", Table.Right);
      ]
  in
  List.iter
    (fun (k, off, on_, ov, rep) ->
      Table.add_row pt
        [
          k;
          Table.cell_float ~dec:1 off;
          Table.cell_float ~dec:1 on_;
          Printf.sprintf "%.2fx" ov;
          Printf.sprintf "%.3fx" rep;
        ])
    prof_rows;
  Printf.printf "\n== tape profiler price, bytecode -O2, 1 domain ==\n";
  Table.print pt;
  (* Searched recipe vs the default pipeline, bytecode -O2, 1 domain. *)
  let srt =
    Table.create
      [
        ("kernel", Table.Left);
        ("recipe", Table.Left);
        ("default ns/iter", Table.Right);
        ("searched ns/iter", Table.Right);
        ("speedup", Table.Right);
      ]
  in
  List.iter
    (fun r ->
      Table.add_row srt
        [
          r.sr_kernel;
          r.sr_recipe;
          Table.cell_float ~dec:1 r.sr_default_ns;
          Table.cell_float ~dec:1 r.sr_searched_ns;
          Printf.sprintf "%.2fx" r.sr_ratio;
        ])
    search_rows;
  Printf.printf "\n== searched recipe vs default pipeline, bytecode -O2, \
                 1 domain ==\n";
  Table.print srt;
  if gate then begin
    let missing pairs =
      List.filter_map
        (fun k ->
          if List.exists (fun (k', _, _, _) -> String.equal k k') pairs then
            None
          else Some (k, nan, nan, nan))
        gate_kernels
    in
    (* Gate 1: bytecode -O2's speedup over the interpreter must stay
       within 5% of the kernel's floor. *)
    let floor_band = 1.05 *. gate_factor in
    let floor k = List.assoc k interp_speedup_floors /. floor_band in
    (* The floors are host-calibrated, so print every margin: a margin
       far above zero on every kernel means the gate barely bites on
       this host. *)
    List.iter
      (fun (k, _, _, r) ->
        if List.mem k gate_kernels then
          Printf.printf
            "perf gate: %s speedup %.2fx, threshold %.2fx, margin %+.0f%%\n%!"
            k r (floor k)
            (100.0 *. ((r /. floor k) -. 1.0)))
      pairs;
    let failures =
      List.filter (fun (k, _, _, r) -> not (r >= floor k)) pairs
      @ missing pairs
    in
    (match failures with
    | [] ->
        Printf.printf
          "perf gate: OK (bytecode speedup over interp >= floor / %.2f)\n%!"
          floor_band
    | fs ->
        List.iter
          (fun (k, _, _, r) ->
            Printf.printf
              "perf gate FAILED: %s interp/bytecode median ratio %.2fx < \
               %.2fx\n\
               %!"
              k r (floor k))
          fs;
        exit 1);
    (* Gate 2: the optimizer must pay for itself — geomean -O0/-O2
       ns/iter over the gate kernels at or above 1.15x. *)
    let opt_thresh = 1.15 /. gate_factor in
    let opt_missing = missing opt_pairs in
    if opt_missing <> [] then begin
      List.iter
        (fun (k, _, _, _) ->
          Printf.printf "opt gate FAILED: no -O0/-O2 pair for %s\n%!" k)
        opt_missing;
      exit 1
    end;
    if opt_geomean < opt_thresh then begin
      Printf.printf
        "opt gate FAILED: geomean -O2 speedup %.2fx < %.2fx over %s\n%!"
        opt_geomean opt_thresh
        (String.concat ", " gate_kernels);
      exit 1
    end;
    Printf.printf "opt gate: OK (geomean -O2 speedup %.2fx >= %.2fx)\n%!"
      opt_geomean opt_thresh;
    (match native_pairs with
    | [] ->
        print_endline
          "native tier: no rows (toolchain missing or disabled) — \
           informational only, never gated"
    | _ ->
        Printf.printf
          "native tier (informational, not gated): geomean speedup %.2fx vs \
           bytecode -O2\n\
           %!"
          (geomean (List.map (fun (_, _, _, r) -> r) native_pairs)));
    (* Gate 3: profiler-off noise canary. The profiled interpreter and
       chunk runner are compiled-in twins selected once per run binding,
       so with no collector attached the executor runs the exact
       pre-profiler closures — two identical off configurations must
       agree within Gate 1's relative band. A genuine off-path slowdown
       would also trip Gate 1 above; this canary certifies the rounds
       were quiet enough for that verdict to mean something. *)
    (* Search gates. Never-slower: the winner's median ratio must stay
       within Gate 1's relative band — the
       identity recipe is always a search survivor and ties go to the
       baseline, so a slower winner means the scorer ranked candidates
       backwards. Win-count: the searcher must actually find speedups,
       not just avoid losses — at least two kernels at >= 1.10x. *)
    let search_band = 1.05 *. gate_factor in
    let search_slow =
      List.filter (fun r -> not (r.sr_ratio >= 1.0 /. search_band)) search_rows
    in
    (match search_slow with
    | [] ->
        Printf.printf
          "search gate: OK (searched plan never slower than %.2fx default \
           on %s)\n\
           %!"
          search_band
          (String.concat ", " (List.map (fun r -> r.sr_kernel) search_rows))
    | rs ->
        List.iter
          (fun r ->
            Printf.printf
              "search gate FAILED: %s searched recipe %s median ratio %.2fx \
               < %.2fx\n\
               %!"
              r.sr_kernel r.sr_recipe r.sr_ratio (1.0 /. search_band))
          rs;
        exit 1);
    let win_thresh = 1.10 /. gate_factor in
    let search_wins =
      List.filter (fun r -> r.sr_ratio >= win_thresh) search_rows
    in
    if List.length search_wins < 2 then begin
      Printf.printf
        "search gate FAILED: only %d kernel(s) at >= %.2fx (need 2): %s\n%!"
        (List.length search_wins) win_thresh
        (String.concat ", "
           (List.map
              (fun r -> Printf.sprintf "%s=%.2fx" r.sr_kernel r.sr_ratio)
              search_rows));
      exit 1
    end;
    Printf.printf "search gate: OK (%d kernel(s) at >= %.2fx: %s)\n%!"
      (List.length search_wins) win_thresh
      (String.concat ", "
         (List.map
            (fun r -> Printf.sprintf "%s=%.2fx" r.sr_kernel r.sr_ratio)
            search_wins));
    let prof_band = 1.05 *. gate_factor in
    let prof_missing =
      List.filter_map
        (fun k ->
          if List.exists (fun (k', _, _, _, _) -> String.equal k k') prof_rows
          then None
          else Some (k, nan, nan, nan, nan))
        gate_kernels
    in
    let prof_failures =
      List.filter
        (fun (_, _, _, _, rep) ->
          not (rep <= prof_band && rep >= 1.0 /. prof_band))
        prof_rows
      @ prof_missing
    in
    match prof_failures with
    | [] ->
        Printf.printf
          "profiler gate: OK (off-path repeat ratio within %.2fx)\n%!"
          prof_band
    | fs ->
        List.iter
          (fun (k, _, _, _, rep) ->
            Printf.printf
              "profiler gate FAILED: %s off-path repeat ratio %.3fx outside \
               [%.2fx, %.2fx]\n\
               %!"
              k rep (1.0 /. prof_band) prof_band)
          fs;
        exit 1
  end
