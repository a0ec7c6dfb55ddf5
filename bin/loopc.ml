(* loopc: command-line front end for the loop-coalescing library.

   Subcommands:
     show      parse a program and pretty-print it with a nest summary
     analyze   classify loops, verify parallel annotations
     coalesce  apply the transformation (verified) and print the result
     simulate  schedule a rectangular iteration space on the machine model
     kernel    dump a built-in kernel as surface syntax *)

open Cmdliner
module L = Loopcoal

let read_program path =
  match L.Driver.load_file path with
  | Ok p -> Ok p
  | Error m -> Error (`Msg m)

let program_conv =
  Arg.conv (read_program, fun fmt _ -> Format.fprintf fmt "<program>")

let program_arg =
  Arg.(
    required
    & pos 0 (some program_conv) None
    & info [] ~docv:"FILE" ~doc:"Program in the loopc surface language.")

let strategy_conv =
  let parse = function
    | "ceiling" -> Ok L.Index_recovery.Ceiling
    | "divmod" -> Ok L.Index_recovery.Div_mod
    | s -> Error (`Msg (Printf.sprintf "unknown strategy %S (ceiling|divmod)" s))
  in
  Arg.conv
    (parse, fun fmt s -> Format.pp_print_string fmt (L.Index_recovery.strategy_name s))

let strategy_arg =
  Arg.(
    value
    & opt strategy_conv L.Index_recovery.Ceiling
    & info [ "strategy"; "s" ] ~docv:"STRAT"
        ~doc:"Index-recovery codegen: $(b,ceiling) (the paper's) or $(b,divmod).")

(* ---------- show ---------- *)

let nest_summary p =
  List.iteri
    (fun i (n : L.Driver.nest_info) ->
      Printf.printf "nest %d: indices [%s], shape %s, parallel depth %d, \
                     coalescible depth %d\n"
        i
        (String.concat "; " n.L.Driver.indices)
        (match n.L.Driver.shape with
        | Some s -> String.concat "x" (List.map string_of_int s)
        | None -> "symbolic")
        n.L.Driver.parallel_depth n.L.Driver.coalescible_depth)
    (L.Driver.nests p)

let report_validation p =
  match L.Validate.check_program p with
  | [] -> ()
  | issues ->
      List.iter
        (fun (i : L.Validate.issue) ->
          Printf.eprintf "warning: %s (%s)\n" i.L.Validate.what
            i.L.Validate.where)
        issues

let show_cmd =
  let run p =
    report_validation p;
    print_string (L.Pretty.program_to_string p);
    print_newline ();
    nest_summary p
  in
  Cmd.v (Cmd.info "show" ~doc:"Parse and pretty-print a program.")
    Term.(const run $ program_arg)

(* ---------- analyze ---------- *)

let analyze_cmd =
  let deps_flag =
    Arg.(
      value & flag
      & info [ "deps" ]
          ~doc:"Also print the may-dependence report for every loop.")
  in
  let run deps p =
    report_validation p;
    if deps then print_string (L.Dep_report.to_string (L.Dep_report.report p));
    let problems = L.Loop_class.verify_annotations p.L.Ast.body in
    if problems = [] then
      print_endline "all parallel annotations confirmed by the analysis"
    else
      List.iter
        (fun (index, reason) ->
          Printf.printf "loop %s: annotation not confirmed: %s\n" index reason)
        problems;
    let inferred = L.Loop_class.infer_block p.L.Ast.body in
    print_endline "--- with inferred parallel annotations ---";
    print_string (L.Pretty.program_to_string { p with L.Ast.body = inferred });
    nest_summary p
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Run dependence analysis: verify and infer parallel annotations.")
    Term.(const run $ deps_flag $ program_arg)

(* ---------- coalesce ---------- *)

let chunk_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "chunk" ] ~docv:"C"
        ~doc:
          "Emit chunked code: each processor chunk of $(docv) coalesced \
           iterations recovers indices once and advances them with the \
           O(1) odometer.")

let verified_print p p' banner =
  print_string (L.Pretty.program_to_string p');
  let verdict =
    match L.Pipeline.observably_equal ~reference:p p' with
    | Ok () -> "verified"
    | Error d -> "NOT verified: " ^ d
  in
  Printf.eprintf "%s; interpreter equivalence: %s\n" banner verdict

let coalesce_cmd =
  let run strategy chunk p =
    match chunk with
    | None -> (
        match L.Driver.coalesce_report ~strategy p with
        | Error m ->
            Printf.eprintf "error: %s\n" m;
            exit 1
        | Ok r ->
            print_string r.L.Driver.after_text;
            Printf.eprintf
              "coalesced %d nest(s); interpreter equivalence: %s\n"
              r.L.Driver.nests_coalesced
              (if r.L.Driver.verified then "verified" else "NOT verified"))
    | Some c -> (
        match L.Coalesce_chunked.apply_program ~chunk:c p with
        | Error _ ->
            Printf.eprintf "error: no coalescible nest (or bad chunk)\n";
            exit 1
        | Ok p' -> verified_print p p' "chunk-coalesced first nest")
  in
  Cmd.v
    (Cmd.info "coalesce"
       ~doc:
         "Coalesce every maximal parallel nest and print the transformed \
          program (equivalence checked with the reference interpreter). \
          With $(b,--chunk), rewrite the first nest into chunked form \
          with odometer index recovery instead.")
    Term.(const run $ strategy_arg $ chunk_arg $ program_arg)

let distribute_cmd =
  let run p =
    let p', count = L.Distribute.apply_program p in
    verified_print p p' (Printf.sprintf "distributed %d loop(s)" count)
  in
  Cmd.v
    (Cmd.info "distribute"
       ~doc:
         "Split loops around independent statement groups (fission), \
          exposing perfect nests for coalescing.")
    Term.(const run $ program_arg)

let fuse_cmd =
  let run p =
    let body, count = L.Fuse.apply_block p.L.Ast.body in
    let p' = { p with L.Ast.body = body } in
    verified_print p p' (Printf.sprintf "performed %d fusion(s)" count)
  in
  Cmd.v
    (Cmd.info "fuse" ~doc:"Fuse adjacent compatible loops.")
    Term.(const run $ program_arg)

let reduce_cmd =
  let index_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "index"; "i" ] ~docv:"VAR" ~doc:"Loop index of the reduction.")
  in
  let scalar_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "scalar" ] ~docv:"VAR" ~doc:"Accumulator scalar.")
  in
  let procs_arg =
    Arg.(value & opt int 8 & info [ "p" ] ~docv:"P" ~doc:"Partial results.")
  in
  let run index scalar procs p =
    match L.Parallel_reduce.apply p ~loop_index:index ~scalar ~processors:procs with
    | Error _ ->
        Printf.eprintf "error: no such reduction (index %s, scalar %s)\n"
          index scalar;
        exit 1
    | Ok p' ->
        print_string (L.Pretty.program_to_string p');
        Printf.eprintf
          "parallelized reduction on %s (note: re-associates floating \
           point)\n"
          scalar
  in
  Cmd.v
    (Cmd.info "reduce"
       ~doc:
         "Parallelize a recognized reduction into per-processor partial \
          results.")
    Term.(const run $ index_arg $ scalar_arg $ procs_arg $ program_arg)

(* ---------- simulate ---------- *)

let shape_conv =
  let parse s =
    try
      let dims = String.split_on_char 'x' s |> List.map int_of_string in
      if dims = [] || List.exists (fun d -> d < 1) dims then
        Error (`Msg "shape must be positive ints like 60x25")
      else Ok dims
    with Failure _ -> Error (`Msg "shape must look like 60x25")
  in
  Arg.conv
    ( parse,
      fun fmt s ->
        Format.pp_print_string fmt (String.concat "x" (List.map string_of_int s)) )

let policy_conv =
  let parse s =
    match s with
    | "block" -> Ok L.Policy.Static_block
    | "cyclic" -> Ok L.Policy.Static_cyclic
    | "ss" -> Ok (L.Policy.Self_sched 1)
    | "gss" -> Ok L.Policy.Gss
    | "factoring" -> Ok L.Policy.Factoring
    | "tss" -> Ok L.Policy.Trapezoid
    | s when String.length s > 6 && String.sub s 0 6 = "chunk:" -> (
        match int_of_string_opt (String.sub s 6 (String.length s - 6)) with
        | Some c when c >= 1 -> Ok (L.Policy.Self_sched c)
        | _ -> Error (`Msg "chunk:<positive int>"))
    | s ->
        Error
          (`Msg (Printf.sprintf "unknown policy %S (block|cyclic|ss|chunk:N|gss|factoring|tss)" s))
  in
  Arg.conv (parse, fun fmt p -> Format.pp_print_string fmt (L.Policy.name p))

let body_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ "uniform"; c ] -> (
        match float_of_string_opt c with
        | Some c when c >= 0.0 -> Ok (`Uniform c)
        | _ -> Error (`Msg "uniform:<cost>"))
    | [ "triangular"; c ] -> (
        match float_of_string_opt c with
        | Some c when c >= 0.0 -> Ok (`Triangular c)
        | _ -> Error (`Msg "triangular:<scale>"))
    | [ "random"; lo; hi ] -> (
        match (float_of_string_opt lo, float_of_string_opt hi) with
        | Some lo, Some hi when 0.0 <= lo && lo <= hi -> Ok (`Random (lo, hi))
        | _ -> Error (`Msg "random:<lo>:<hi>"))
    | _ ->
        Error
          (`Msg "body model: uniform:<c> | triangular:<scale> | random:<lo>:<hi>")
  in
  let print fmt = function
    | `Uniform c -> Format.fprintf fmt "uniform:%g" c
    | `Triangular c -> Format.fprintf fmt "triangular:%g" c
    | `Random (lo, hi) -> Format.fprintf fmt "random:%g:%g" lo hi
  in
  Arg.conv (parse, print)

let simulate_cmd =
  let shape =
    Arg.(
      value & opt shape_conv [ 60; 25 ]
      & info [ "shape" ] ~docv:"N1xN2x..." ~doc:"Nest trip counts.")
  in
  let procs =
    Arg.(value & opt int 16 & info [ "p" ] ~docv:"P" ~doc:"Processors.")
  in
  let policy =
    Arg.(
      value
      & opt policy_conv L.Policy.Static_block
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:"block | cyclic | ss | chunk:N | gss | factoring | tss.")
  in
  let body =
    Arg.(
      value
      & opt body_conv (`Uniform 20.0)
      & info [ "body" ] ~docv:"MODEL"
          ~doc:"Per-iteration cost: uniform:<c>, triangular:<s>, random:<lo>:<hi>.")
  in
  let serialized =
    Arg.(
      value & flag
      & info [ "no-combining" ]
          ~doc:"Serialize dispatches (no combining network).")
  in
  let trace_flag =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:"Render the coalesced schedule as a per-processor Gantt chart.")
  in
  let doacross_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "doacross" ] ~docv:"LAMBDA"
          ~doc:
            "Also simulate DOACROSS execution of the flattened space with \
             the given dependence distance (post/wait sync cost 20).")
  in
  let run shape p policy body serialized trace doacross =
    if p < 1 then begin
      prerr_endline "error: p must be >= 1";
      exit 1
    end;
    let body_fn =
      match body with
      | `Uniform c -> L.Bodies.uniform c
      | `Triangular s -> L.Bodies.triangular s
      | `Random (lo, hi) -> L.Bodies.random_uniform ~seed:42 ~lo ~hi
    in
    let machine =
      let m = L.Machine.default ~p in
      if serialized then { m with L.Machine.serialized_dispatch = true } else m
    in
    let spec =
      {
        L.Driver.shape;
        body = body_fn;
        machine;
        strategy = L.Index_recovery.Incremental;
      }
    in
    let lines =
      [
        L.Driver.simulate_coalesced spec ~policy;
        L.Driver.simulate_nested_best spec;
        L.Driver.simulate_nested_outer_only spec;
      ]
    in
    let t =
      L.Table.create
        [
          ("schedule", L.Table.Left);
          ("completion", L.Table.Right);
          ("speedup", L.Table.Right);
          ("efficiency", L.Table.Right);
          ("dispatches", L.Table.Right);
          ("imbalance", L.Table.Right);
        ]
    in
    List.iter
      (fun (l : L.Driver.sim_line) ->
        L.Table.add_row t
          [
            l.L.Driver.label;
            L.Table.cell_float ~dec:0 l.L.Driver.completion;
            L.Table.cell_ratio l.L.Driver.speedup;
            L.Table.cell_float l.L.Driver.efficiency;
            L.Table.cell_int l.L.Driver.dispatches;
            L.Table.cell_float l.L.Driver.imbalance;
          ])
      lines;
    L.Table.print t;
    if trace then begin
      let n = L.Intmath.product shape in
      let chunk_cost =
        L.Workload_cost.chunk_cost ~strategy:L.Index_recovery.Incremental
          ~sizes:shape ~body:body_fn
      in
      let r = L.Event_sim.simulate ~machine ~policy ~n ~chunk_cost in
      L.Gantt.print r
    end;
    (match doacross with
    | None -> ()
    | Some lambda when lambda < 1 ->
        prerr_endline "error: lambda must be >= 1";
        exit 1
    | Some lambda ->
        let n = L.Intmath.product shape in
        let sizes = shape in
        let r =
          L.Event_sim.simulate_doacross ~machine ~n ~lambda ~sync_cost:20.0
            ~body_cost:(fun j ->
              body_fn (L.Index_recovery.recover_div_mod ~sizes j))
        in
        Printf.printf
          "doacross (lambda = %d): completion %.0f, %d post/wait pairs\n"
          lambda r.L.Event_sim.d_completion r.L.Event_sim.d_syncs)
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Simulate schedules of a rectangular nest on the machine model.")
    Term.(
      const run $ shape $ procs $ policy $ body $ serialized $ trace_flag
      $ doacross_arg)

(* ---------- schedule (profile a real program) ---------- *)

let schedule_cmd =
  let procs_arg =
    Arg.(value & opt int 16 & info [ "p" ] ~docv:"P" ~doc:"Processors.")
  in
  let run procs p =
    match L.Driver.schedule_program ~p:procs p with
    | Error m ->
        Printf.eprintf "error: %s\n" m;
        exit 1
    | Ok (prof, lines) ->
        Printf.printf
          "profiled nest: shape %s, %d iterations, measured body cost %.1f \
           weighted ops/iteration\n"
          (String.concat "x" (List.map string_of_int prof.L.Driver.p_shape))
          prof.L.Driver.p_iterations prof.L.Driver.p_body_cost;
        let t =
          L.Table.create
            [
              ("schedule", L.Table.Left);
              ("completion", L.Table.Right);
              ("speedup", L.Table.Right);
              ("efficiency", L.Table.Right);
            ]
        in
        List.iter
          (fun (l : L.Driver.sim_line) ->
            L.Table.add_row t
              [
                l.L.Driver.label;
                L.Table.cell_float ~dec:0 l.L.Driver.completion;
                L.Table.cell_ratio l.L.Driver.speedup;
                L.Table.cell_float l.L.Driver.efficiency;
              ])
          lines;
        L.Table.print t
  in
  Cmd.v
    (Cmd.info "schedule"
       ~doc:
         "Profile the program's first constant-shape nest with the \
          interpreter and simulate coalesced vs nested schedules using the \
          measured body cost.")
    Term.(const run $ procs_arg $ program_arg)

(* ---------- shrink ---------- *)

let shrink_cmd =
  let run p =
    let p', factors = L.Cycle_shrink.apply_program p in
    verified_print p p'
      (Printf.sprintf "cycle-shrunk %d loop(s)%s" (List.length factors)
         (if factors = [] then ""
          else
            " with lambda = "
            ^ String.concat ", " (List.map string_of_int factors)))
  in
  Cmd.v
    (Cmd.info "shrink"
       ~doc:
         "Cycle shrinking: split serial loops whose carried dependences \
          all span >= lambda iterations into serial groups of lambda \
          parallel iterations.")
    Term.(const run $ program_arg)

(* ---------- unroll / peel ---------- *)

let first_loop_rewrite p ~name ~rewrite =
  (* Rewrite the first top-level loop the transformation accepts. *)
  let done_ = ref false in
  let body =
    List.concat_map
      (fun (s : L.Ast.stmt) ->
        if !done_ then [ s ]
        else
          match s with
          | L.Ast.For _ -> (
              match rewrite s with
              | Ok stmts ->
                  done_ := true;
                  stmts
              | Error _ -> [ s ])
          | _ -> [ s ])
      p.L.Ast.body
  in
  if !done_ then Some { p with L.Ast.body }
  else begin
    Printf.eprintf "error: no top-level loop accepts %s\n" name;
    None
  end

let unroll_cmd =
  let factor_arg =
    Arg.(value & opt int 4 & info [ "factor"; "u" ] ~docv:"U" ~doc:"Unroll factor.")
  in
  let run factor p =
    let avoid = L.Names.in_program p in
    match
      first_loop_rewrite p ~name:"unrolling" ~rewrite:(fun s ->
          L.Unroll.apply ~avoid ~factor s)
    with
    | Some p' -> verified_print p p' "unrolled first loop"
    | None -> exit 1
  in
  Cmd.v
    (Cmd.info "unroll"
       ~doc:"Unroll the first (normalized) top-level loop by a factor.")
    Term.(const run $ factor_arg $ program_arg)

let peel_cmd =
  let count_arg =
    Arg.(value & opt int 1 & info [ "count"; "k" ] ~docv:"K" ~doc:"Iterations to peel.")
  in
  let from_end_arg =
    Arg.(value & flag & info [ "from-end" ] ~doc:"Peel from the back instead.")
  in
  let run count from_end p =
    match
      first_loop_rewrite p ~name:"peeling" ~rewrite:(fun s ->
          L.Peel.apply ~from_end ~count s)
    with
    | Some p' -> verified_print p p' "peeled first loop"
    | None -> exit 1
  in
  Cmd.v
    (Cmd.info "peel"
       ~doc:"Peel iterations off the first top-level loop with literal bounds.")
    Term.(const run $ count_arg $ from_end_arg $ program_arg)

(* ---------- interchange / tile ---------- *)

let interchange_cmd =
  let run p =
    match
      first_loop_rewrite p ~name:"interchange" ~rewrite:(fun s ->
          Result.map (fun s' -> [ s' ]) (L.Interchange.apply s))
    with
    | Some p' -> verified_print p p' "interchanged outer loop pair"
    | None -> exit 1
  in
  Cmd.v
    (Cmd.info "interchange"
       ~doc:"Swap the two outermost loops of the first legal perfect nest.")
    Term.(const run $ program_arg)

let tile_cmd =
  let c1_arg =
    Arg.(value & opt int 8 & info [ "c1" ] ~docv:"C1" ~doc:"Outer tile size.")
  in
  let c2_arg =
    Arg.(value & opt int 8 & info [ "c2" ] ~docv:"C2" ~doc:"Inner tile size.")
  in
  let run c1 c2 p =
    let avoid = L.Names.in_program p in
    match
      first_loop_rewrite p ~name:"tiling" ~rewrite:(fun s ->
          Result.map (fun s' -> [ s' ]) (L.Tile.apply ~avoid ~c1 ~c2 s))
    with
    | Some p' -> verified_print p p' "tiled first parallel nest"
    | None -> exit 1
  in
  Cmd.v
    (Cmd.info "tile"
       ~doc:"Tile the first normalized doubly parallel perfect nest.")
    Term.(const run $ c1_arg $ c2_arg $ program_arg)

(* ---------- optimize ---------- *)

let optimize_cmd =
  let run p =
    let o = L.Pipeline.run L.Pipeline.standard p in
    (match o.L.Pipeline.verification with
    | Some f ->
        Printf.eprintf "internal error: pass %s changed behaviour: %s\n"
          f.L.Pipeline.pass_name f.L.Pipeline.detail;
        exit 2
    | None -> ());
    print_string (L.Pretty.program_to_string o.L.Pipeline.program);
    Printf.eprintf "passes applied: %s\n"
      (String.concat ", " o.L.Pipeline.applied);
    List.iter
      (fun (name, reason) ->
        Printf.eprintf "pass %s declined: %s\n" name reason)
      o.L.Pipeline.failures
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:
         "Run the standard verified pipeline: normalize, distribute, infer \
          parallelism, hoist parallel loops, coalesce, cycle-shrink.")
    Term.(const run $ program_arg)

(* ---------- emit-c ---------- *)

let emit_c_cmd =
  let collapse_flag =
    Arg.(
      value & flag
      & info [ "collapse" ]
          ~doc:
            "Emit perfectly nested parallel groups as one pragma with \
             $(b,collapse(d)) and let the OpenMP runtime coalesce.")
  in
  let coalesce_flag =
    Arg.(
      value & flag
      & info [ "coalesce" ]
          ~doc:
            "Apply the coalescing transformation before emission, so the \
             generated C carries the paper's flattened single loops \
             instead of the original nests. Mutually exclusive with \
             $(b,--collapse).")
  in
  let output_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the C source to $(docv) instead of standard output.")
  in
  let run collapse coalesce output p =
    if collapse && coalesce then begin
      Printf.eprintf
        "error: --coalesce and --collapse are mutually exclusive (flatten \
         before emission, or let the OpenMP runtime collapse)\n";
      exit 1
    end;
    let p =
      if not coalesce then p
      else
        let p', n = L.Coalesce.apply_all_program p in
        Printf.eprintf "coalesced %d nest(s)\n" n;
        p'
    in
    match L.Emit_c.program_to_c ~collapse p with
    | Ok source -> (
        match output with
        | None -> print_string source
        | Some file -> (
            match
              let oc = open_out file in
              output_string oc source;
              close_out oc
            with
            | () -> Printf.eprintf "wrote %s\n" file
            | exception Sys_error m ->
                Printf.eprintf "error: %s\n" m;
                exit 1))
    | Error m ->
        Printf.eprintf "error: %s\n" m;
        exit 1
  in
  Cmd.v
    (Cmd.info "emit-c"
       ~doc:
         "Translate the program to self-contained C99 with OpenMP pragmas \
          (compile with cc -O2 -fopenmp). $(b,--coalesce) exports the \
          paper's flattened form; $(b,--collapse) defers coalescing to \
          the OpenMP runtime via collapse(d).")
    Term.(const run $ collapse_flag $ coalesce_flag $ output_arg $ program_arg)

(* ---------- run (compiled runtime) ---------- *)

type run_engine = Interp | Bytecode | Native

let run_engine_name = function
  | Interp -> "interp"
  | Bytecode -> "bytecode"
  | Native -> "native"

let engine_conv =
  let parse = function
    | "interp" -> Ok Interp
    | "bytecode" -> Ok Bytecode
    | "native" -> Ok Native
    | s ->
        Error
          (`Msg
             (Printf.sprintf
                "unknown engine %S (interp|bytecode|native)" s))
  in
  Arg.conv (parse, fun fmt e -> Format.pp_print_string fmt (run_engine_name e))

(* ---------- transformation-search plumbing (tune / calibrate / run --search) *)

(* Where the search scorer's per-op costs come from: [LOOPC_MACHINE]
   names a calibration file explicitly, otherwise [machine.json] in the
   plan-cache directory — the default [loopc calibrate] output — is
   consulted. A missing file silently falls back on the built-in default
   ratios; an unreadable one warns first. *)
let machine_json_default () =
  Option.map
    (fun d -> Filename.concat d "machine.json")
    (L.Runtime.Plancache.default_dir ())

let load_search_calibration () =
  let candidate =
    match Sys.getenv_opt "LOOPC_MACHINE" with
    | Some f when f <> "" -> Some f
    | _ -> machine_json_default ()
  in
  match candidate with
  | Some f when Sys.file_exists f -> (
      match L.Machine.load_calibration f with
      | Ok cal -> cal
      | Error m ->
          Printf.eprintf "warning: ignoring calibration %s: %s\n" f m;
          L.Machine.default_calibration)
  | _ -> L.Machine.default_calibration

(* Measure-mode callback: one wall-clocked run of the candidate on the
   real engine, in nanoseconds. A candidate that faults simply loses. *)
let search_measure ~engine ~domains ~policy p' =
  let t0 = Unix.gettimeofday () in
  match L.Runtime.Exec.run ~domains ~policy ~engine p' with
  | (_ : L.Runtime.Exec.outcome) -> (Unix.gettimeofday () -. t0) *. 1e9
  | exception _ -> infinity

let exec_engine_of = function
  | Bytecode -> Some L.Runtime.Exec.Bytecode
  | Native -> Some L.Runtime.Exec.Native
  | Interp -> None

(* The tape optimizer has two levels: 0 runs the raw lowered tape, 2 the
   full pipeline. *)
let require_opt_level n =
  if n <> 0 && n <> 2 then begin
    Printf.eprintf "error: --opt-level must be 0 or 2 (got %d)\n" n;
    exit 1
  end

let run_cmd =
  let parallel_flag =
    Arg.(
      value & flag
      & info [ "parallel" ]
          ~doc:
            "Execute parallel loops across OCaml domains (one fork-join \
             per coalesced nest). Without this flag the staged program \
             runs sequentially.")
  in
  let procs_arg =
    Arg.(
      value & opt int 0
      & info [ "p" ] ~docv:"P"
          ~doc:
            "Domains for $(b,--parallel); 0 (default) uses the \
             recommended domain count of the machine.")
  in
  let policy_arg =
    Arg.(
      value
      & opt policy_conv L.Policy.Gss
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:"block | cyclic | ss | chunk:N | gss | factoring | tss.")
  in
  let coalesce_flag =
    Arg.(
      value & flag
      & info [ "coalesce" ]
          ~doc:"Apply the coalescing transformation before staging.")
  in
  let compare_flag =
    Arg.(
      value & flag
      & info [ "compare" ]
          ~doc:
            "Also run the reference interpreter and check that the final \
             arrays are identical.")
  in
  let time_flag =
    Arg.(
      value & flag
      & info [ "time" ]
          ~doc:
            "Report wall-clock execution time as one stable \
             machine-readable line: $(b,time engine=... domains=... \
             policy=... wall_s=...).")
  in
  let trace_arg =
    Arg.(
      value
      & opt ~vopt:(Some "loopc_trace.json") (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record per-domain dispatch events (chunk ranges, monotonic \
             timestamps) and write a Chrome trace_event JSON file \
             (default $(b,loopc_trace.json)) for about://tracing.")
  in
  let metrics_flag =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Trace the run and print scheduler metrics (dispatches, sync \
             ops per iteration, load imbalance, fork/join latency) plus a \
             measured ASCII Gantt chart, side by side with the event \
             simulator's predicted schedule when the program's first nest \
             is profilable.")
  in
  let sanitize_flag =
    Arg.(
      value & flag
      & info [ "sanitize" ]
          ~doc:
            "Instrument every array access with race-sanitizer shadow \
             cells: write/write and read/write conflicts between distinct \
             iterations of the same parallel region are reported after \
             the run, and the exit status is nonzero if any were seen.")
  in
  let engine_arg =
    Arg.(
      value
      & opt engine_conv Bytecode
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:
            "Execution tier: $(b,bytecode) (default) runs plan bodies on \
             a flat register tape with strip-mined unchecked inner loops, \
             $(b,native) compiles the same tapes to OCaml machine code \
             out of process and Dynlinks the result (per-plan fallback \
             to bytecode when no toolchain is present), \
             $(b,interp) uses the sequential reference interpreter \
             (incompatible with $(b,--parallel), $(b,--trace), \
             $(b,--metrics) and $(b,--sanitize)).")
  in
  let opt_level_arg =
    Arg.(
      value & opt int 2
      & info [ "opt-level" ] ~docv:"N"
          ~doc:
            "Bytecode tape optimizer level: $(b,0) runs the raw lowered \
             tape, $(b,2) (default) the full pipeline (value numbering, \
             invariant motion, offset streaming, load fusion). Results, \
             traces and metrics are identical at both levels.")
  in
  let no_plan_cache_flag =
    Arg.(
      value & flag
      & info [ "no-plan-cache" ]
          ~doc:
            "Disable the persistent plan cache: always lower and \
             optimize tapes from scratch instead of reusing a cached \
             plan from \\$XDG_CACHE_HOME/loopc (or ~/.cache/loopc).")
  in
  let dump_tape_arg =
    Arg.(
      value
      & opt ~vopt:(Some "all") (some string) None
      & info [ "dump-tape" ] ~docv:"PASS"
          ~doc:
            "Print each plan's bytecode tape as it moves through the \
             optimizer pipeline, in the stable textual format the golden \
             tests pin. With no argument (or $(b,all)) every stage is \
             printed; naming one stage of $(b,lower), $(b,gvn), \
             $(b,licm), $(b,stream), $(b,fuse) prints the tape before \
             and after that stage. Implies \
             $(b,--no-plan-cache) for this run, since a cache hit skips \
             the pipeline.")
  in
  let validate_tape_flag =
    Arg.(
      value & flag
      & info [ "validate-tape" ]
          ~doc:
            "Run the $(b,Tapecheck) static validator on every plan's tape \
             after each optimizer pass; findings (stable LC010-LC014 \
             codes, naming the guilty pass) go to stderr and any error \
             aborts before execution. Implies $(b,--no-plan-cache), \
             since a cache hit skips the pipeline.")
  in
  let stats_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-json" ] ~docv:"FILE"
          ~doc:
            "Dump the whole metrics registry (plan cache and native \
             artifact hits, native codegen/build/load timings and \
             fallbacks, compile and optimizer pass timings, pool \
             fork/join latency, run times) as JSON after the run.")
  in
  let search_arg =
    Arg.(
      value
      & opt ~vopt:(Some "16") (some string) None
      & info [ "search" ] ~docv:"SPEC"
          ~doc:
            "Run the model-guided transformation search before compiling \
             and execute the winning recipe. $(docv) is a candidate \
             budget (default $(b,16)) or $(b,measure[:K]) to also time \
             the top K predicted finalists (default 3) on the real \
             engine. The winner is recorded in the plan cache, so warm \
             runs replay it with zero search cost ($(b,search=hit) under \
             $(b,--time)).")
  in
  let explain_flag =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "With $(b,--search): print the candidate table (predicted \
             and measured times, prune reasons, winner) before running, \
             or the replayed recipe on a warm cache hit.")
  in
  let fp_reassoc_flag =
    Arg.(
      value & flag
      & info [ "fp-reassoc" ]
          ~doc:
            "Let $(b,--search) consider floating-point-reassociating \
             parallel-reduction recipes; sums may differ from the \
             serial order in the last bits.")
  in
  let write_file path s =
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)
  in
  let run parallel procs policy coalesce compare time trace_file metrics
      sanitize engine opt_level no_plan_cache dump_tape validate_tape
      stats_file search explain fp_reassoc p =
    require_opt_level opt_level;
    (match dump_tape with
    | Some pass
      when pass <> "all" && not (List.mem pass L.Runtime.Tapeopt.pass_names) ->
        Printf.eprintf "error: --dump-tape: unknown pass %S (all|%s)\n" pass
          (String.concat "|" L.Runtime.Tapeopt.pass_names);
        exit 1
    | _ -> ());
    let search_plan =
      match search with
      | None -> None
      | Some s -> (
          let s = String.trim s in
          match int_of_string_opt s with
          | Some b when b >= 1 -> Some (`Model b)
          | Some b ->
              Printf.eprintf "error: --search budget must be >= 1 (got %d)\n" b;
              exit 1
          | None ->
              if s = "measure" then Some (`Measure (16, 3))
              else if String.length s > 8 && String.sub s 0 8 = "measure:"
              then (
                match
                  int_of_string_opt (String.sub s 8 (String.length s - 8))
                with
                | Some k when k >= 1 -> Some (`Measure (16, k))
                | _ ->
                    Printf.eprintf "error: --search measure:<positive int>\n";
                    exit 1)
              else begin
                Printf.eprintf
                  "error: --search expects a budget or measure[:K] (got %S)\n"
                  s;
                exit 1
              end)
    in
    report_validation p;
    let orig = p in
    let p =
      if not coalesce then p
      else
        let p', n = L.Coalesce.apply_all_program p in
        Printf.eprintf "coalesced %d nest(s)\n" n;
        p'
    in
    let domains =
      if not parallel then 1
      else if procs > 0 then procs
      else Domain.recommended_domain_count ()
    in
    match engine with
    | Interp -> (
        if parallel || trace_file <> None || metrics || sanitize
           || dump_tape <> None || validate_tape || search_plan <> None
        then begin
          Printf.eprintf
            "error: --engine interp is the sequential reference \
             interpreter; it supports none of --parallel, --trace, \
             --metrics, --sanitize, --dump-tape, --validate-tape, \
             --search\n";
          exit 1
        end;
        if compare then
          prerr_endline "note: --compare is a no-op under --engine interp";
        let t0 = Unix.gettimeofday () in
        match L.Eval.run p with
        | exception L.Eval.Runtime_error m ->
            Printf.eprintf "runtime error: %s\n" m;
            exit 1
        | st ->
            let elapsed = Unix.gettimeofday () -. t0 in
            print_endline "engine: reference interpreter, 1 domain(s)";
            let arrays, scalars = L.Eval.dump st in
            List.iter
              (fun (name, v) ->
                match (v : L.Eval.value) with
                | Vint n -> Printf.printf "scalar %s = %d\n" name n
                | Vreal x -> Printf.printf "scalar %s = %g\n" name x)
              scalars;
            List.iter
              (fun (name, data) ->
                Printf.printf "array %s: %d elements, sum %g\n" name
                  (Array.length data)
                  (Array.fold_left ( +. ) 0.0 data))
              arrays;
            if time then
              print_endline
                (L.Report.time_line ~engine:"interp" ~domains:1
                   ~policy:(L.Policy.name policy) ~wall_s:elapsed))
    | (Bytecode | Native) as eng -> (
    let exec_engine =
      match eng with
      | Native -> L.Runtime.Exec.Native
      | _ -> L.Runtime.Exec.Bytecode
    in
    let cache_off = no_plan_cache || dump_tape <> None || validate_tape in
    let cache =
      if cache_off then None
      else Some (L.Runtime.Plancache.create ?dir:(L.Runtime.Plancache.default_dir ()) ())
    in
    (* --search rewrites the program before staging. The winning recipe
       is keyed like a plan-cache entry (over the pre-search program,
       with a search-distinguishing salt so --fp-reassoc runs never
       share entries with plain ones): warm runs replay the stored
       recipe string with zero enumeration, cold ones run the searcher
       and record the winner. *)
    let p, search_state =
      match search_plan with
      | None -> (p, "off")
      | Some spec -> (
          let budget, mode =
            match spec with
            | `Model b -> (b, L.Search.Model)
            | `Measure (b, k) -> (b, L.Search.Measure k)
          in
          let salt =
            "search:" ^ run_engine_name eng
            ^ if fp_reassoc then "+fp" else ""
          in
          let rkey = L.Runtime.Plancache.key ~sanitize ~opt_level ~salt p in
          let replay =
            match cache with
            | None -> None
            | Some c -> (
                match L.Runtime.Plancache.find_recipe c rkey with
                | None -> None
                | Some s -> (
                    match L.Recipe.of_string s with
                    | Error _ -> None
                    | Ok r -> (
                        match L.Recipe.apply r p with
                        | Ok p' -> Some (r, p')
                        | Error _ -> None)))
          in
          match replay with
          | Some (r, p') ->
              if explain then
                Printf.printf "search: replaying cached recipe %s\n"
                  (L.Recipe.to_string r);
              (p', "hit")
          | None ->
              let ctx =
                L.Search.default_ctx ~policy
                  ~cal:(load_search_calibration ()) ~p:domains ()
              in
              let measure_fn =
                match mode with
                | L.Search.Measure _ ->
                    Some
                      (search_measure ~engine:exec_engine ~domains ~policy)
                | L.Search.Model -> None
              in
              let rep =
                L.Search.run ~budget ~mode ?measure:measure_fn ~fp_reassoc
                  ~label:"program" ~ctx p
              in
              if explain then print_string (L.Search.explain_to_string rep);
              (match cache with
              | Some c ->
                  L.Runtime.Plancache.store_recipe c rkey
                    (L.Recipe.to_string rep.L.Search.rp_winner)
              | None -> ());
              ( rep.L.Search.rp_program,
                match spec with
                | `Measure _ -> "measure"
                | `Model b -> string_of_int b ))
    in
    (* [prev] remembers each plan's previous stage so a named pass can
       show the tape it rewrote ("before gvn") next to its output. *)
    let prev : (int, string * string) Hashtbl.t = Hashtbl.create 4 in
    let tape_dump =
      Option.map
        (fun sel ->
          fun ~plan ~pass tape ->
           let text = L.Runtime.Bytecode.pp_tape tape in
           if sel = "all" then
             Printf.printf "== plan %d: after %s ==\n%s" plan pass text
           else if pass = sel then begin
             (match Hashtbl.find_opt prev plan with
             | Some (prev_pass, prev_text) ->
                 Printf.printf "== plan %d: before %s (after %s) ==\n%s" plan
                   sel prev_pass prev_text
             | None -> ());
             Printf.printf "== plan %d: after %s ==\n%s" plan sel text
           end;
           Hashtbl.replace prev plan (pass, text))
        dump_tape
    in
    let tape_errors = ref 0 in
    let validate =
      if not validate_tape then None
      else
        Some
          (fun ~plan ~pass:_ ds ->
            List.iter
              (fun (d : L.Diag.t) ->
                if d.L.Diag.severity = L.Diag.Error then incr tape_errors;
                Printf.eprintf "tapecheck: plan %d: %s %s: %s%s\n" plan
                  d.L.Diag.code
                  (L.Diag.severity_to_string d.L.Diag.severity)
                  (if d.L.Diag.subject = "" then ""
                   else d.L.Diag.subject ^ ": ")
                  d.L.Diag.message)
              ds)
    in
    let hits0, _ = L.Counters.plan_cache_stats () in
    match
      L.Runtime.Compile.compile_result ~sanitize ~opt_level ?cache ?tape_dump
        ?validate ~cache_salt:(run_engine_name eng) p
    with
    | Error m ->
        Printf.eprintf "staging error: %s\n" m;
        exit 1
    | Ok compiled -> (
        if !tape_errors > 0 then begin
          Printf.eprintf "error: tape validation failed (%d error(s))\n"
            !tape_errors;
          exit 1
        end;
        let plan_cache_state =
          if cache_off then "off"
          else if fst (L.Counters.plan_cache_stats ()) > hits0 then "hit"
          else "miss"
        in
        (* The native tier is prepared here (rather than letting
           [Exec.run_compiled] auto-prepare) so a plan-cache-keyed
           artifact hit can skip codegen entirely and so [--time] can
           report [build=hit|miss|none]. *)
        let native_build =
          match eng with
          | Native -> (
              let key =
                if cache_off then None
                else
                  Some
                    (L.Runtime.Plancache.key ~sanitize ~opt_level
                       ~salt:(run_engine_name eng) p)
              in
              match
                L.Runtime.Natgen.prepare ?key ~persist:(not cache_off)
                  compiled
              with
              | L.Runtime.Natgen.Ready { artifact_hit } ->
                  Some (if artifact_hit then "hit" else "miss")
              | L.Runtime.Natgen.Unavailable reason ->
                  Printf.eprintf
                    "note: native tier unavailable (%s); falling back to \
                     bytecode\n"
                    reason;
                  Some "none")
          | _ -> None
        in
        let tracer =
          if trace_file <> None || metrics then
            Some (L.Trace.create ~p:domains ())
          else None
        in
        let shadow =
          if sanitize then
            Some
              (L.Runtime.Sanitize.create
                 (L.Runtime.Compile.shadow_layout compiled))
          else None
        in
        let t0 = Unix.gettimeofday () in
        match L.Runtime.Exec.run_compiled ~domains ~policy ~engine:exec_engine
                ?trace:tracer ?shadow compiled with
        | exception L.Runtime.Compile.Error m ->
            Printf.eprintf "runtime error: %s\n" m;
            exit 1
        | outcome ->
            let elapsed = Unix.gettimeofday () -. t0 in
            Printf.printf
              "engine: compiled runtime (%s), %d domain(s), policy %s\n"
              (run_engine_name eng) domains (L.Policy.name policy);
            List.iter
              (fun (name, v) ->
                match (v : L.Eval.value) with
                | Vint n -> Printf.printf "scalar %s = %d\n" name n
                | Vreal x -> Printf.printf "scalar %s = %g\n" name x)
              outcome.L.Runtime.Exec.scalars;
            List.iter
              (fun (name, data) ->
                Printf.printf "array %s: %d elements, sum %g\n" name
                  (Array.length data)
                  (Array.fold_left ( +. ) 0.0 data))
              outcome.L.Runtime.Exec.arrays;
            (match tracer with
            | None -> ()
            | Some tracer ->
                let tr = L.Trace.snapshot tracer in
                (match trace_file with
                | None -> ()
                | Some file ->
                    L.Chrome_trace.to_file file tr;
                    Printf.printf
                      "wrote Chrome trace %s (%d chunks, %d regions); load \
                       it in about://tracing\n"
                      file
                      (Array.length tr.L.Trace.chunks)
                      (Array.length tr.L.Trace.forks));
                if metrics then begin
                  let m = L.Metrics.of_trace tr in
                  L.Table.print (L.Report.metrics_table m);
                  (* The biggest region carries the story: per-worker
                     breakdown and measured-vs-predicted Gantt. *)
                  match
                    List.fold_left
                      (fun best (f : L.Metrics.fork_metrics) ->
                        match best with
                        | Some (b : L.Metrics.fork_metrics)
                          when b.L.Metrics.iterations >= f.L.Metrics.iterations
                          ->
                            best
                        | _ -> Some f)
                      None m.L.Metrics.forks
                  with
                  | None -> ()
                  | Some f ->
                      L.Table.print (L.Report.worker_table f);
                      let measured =
                        L.Report.measured_gantt ~width:60 tr
                          ~epoch:f.L.Metrics.epoch
                      in
                      let predicted =
                        match L.Driver.profile_first_nest orig with
                        | Error _ -> None
                        | Ok prof ->
                            let sizes = prof.L.Driver.p_shape in
                            let n = L.Intmath.product sizes in
                            if n <> f.L.Metrics.n then None
                            else
                              let chunk_cost =
                                L.Workload_cost.chunk_cost
                                  ~strategy:L.Index_recovery.Incremental
                                  ~sizes
                                  ~body:
                                    (L.Bodies.uniform prof.L.Driver.p_body_cost)
                              in
                              let r =
                                L.Event_sim.simulate
                                  ~machine:(L.Machine.default ~p:domains)
                                  ~policy ~n ~chunk_cost
                              in
                              Some (L.Gantt.render ~width:60 r)
                      in
                      print_string
                        (match predicted with
                        | Some pred ->
                            L.Report.side_by_side measured
                              ("predicted (event simulator)\n" ^ pred)
                        | None -> measured)
                end);
            if time then
              (* Extra fields ride after the stable [Report.time_line]
                 text so existing prefix consumers keep working; anything
                 new appends through [Report.time_suffix]. *)
              Printf.printf "%s%s\n"
                (L.Report.time_line ~engine:(run_engine_name eng) ~domains
                   ~policy:(L.Policy.name policy) ~wall_s:elapsed)
                (L.Report.time_suffix
                   ~extra:
                     ([ ("tapecheck", if validate_tape then "ok" else "off") ]
                     @ (match native_build with
                       | Some b -> [ ("build", b) ]
                       | None -> [])
                     @ [ ("search", search_state) ])
                   ~opt:opt_level ~plan_cache:plan_cache_state ());
            (match stats_file with
            | None -> ()
            | Some f ->
                write_file f (L.Registry.to_json ());
                Printf.printf "wrote metrics registry %s\n" f);
            (if compare then
               match L.Eval.run p with
               | exception L.Eval.Runtime_error m ->
                   Printf.eprintf
                     "interpreter faulted (%s) but compiled run succeeded\n" m;
                   exit 1
               | st ->
                   if L.Runtime.Exec.agrees_with_interpreter outcome st then
                     print_endline "interpreter equivalence: arrays identical"
                   else begin
                     print_endline "interpreter equivalence: MISMATCH";
                     exit 1
                   end);
            match shadow with
            | Some sh ->
                print_endline (L.Runtime.Sanitize.summary_to_string sh);
                if snd (L.Runtime.Sanitize.results sh) > 0 then exit 1
            | None -> ()))
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Compile a program and execute it with the multicore runtime — \
          sequentially, or with $(b,--parallel) across OCaml domains \
          under a real scheduling policy (static block/cyclic, \
          self-scheduling via atomic fetch-and-add, GSS, factoring, \
          trapezoid). $(b,--engine) $(i,interp|bytecode|native) \
          picks the execution tier (default $(b,bytecode): flat register \
          tape, tuned by $(b,--opt-level) $(i,0|2) and reused across \
          invocations via a persistent plan cache unless \
          $(b,--no-plan-cache) is given; $(b,native) Dynlink-compiles \
          the same tapes to machine code, caching $(i,.cmxs) artifacts \
          alongside the plans).")
    Term.(
      const run $ parallel_flag $ procs_arg $ policy_arg $ coalesce_flag
      $ compare_flag $ time_flag $ trace_arg $ metrics_flag $ sanitize_flag
      $ engine_arg $ opt_level_arg $ no_plan_cache_flag $ dump_tape_arg
      $ validate_tape_flag $ stats_arg $ search_arg $ explain_flag
      $ fp_reassoc_flag $ program_arg)

(* ---------- tune ---------- *)

let tune_cmd =
  let budget_arg =
    Arg.(
      value & opt int 16
      & info [ "budget" ] ~docv:"N"
          ~doc:"Maximum number of candidate recipes to consider.")
  in
  let procs_arg =
    Arg.(
      value & opt int 0
      & info [ "p" ] ~docv:"P"
          ~doc:
            "Processors the scored machine model has; 0 (default) uses \
             the recommended domain count.")
  in
  let policy_arg =
    Arg.(
      value
      & opt policy_conv L.Policy.Static_block
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:"block | cyclic | ss | chunk:N | gss | factoring | tss.")
  in
  let measure_arg =
    Arg.(
      value
      & opt ~vopt:(Some 3) (some int) None
      & info [ "measure" ] ~docv:"K"
          ~doc:
            "Also time the top $(docv) (default 3) predicted finalists \
             plus the identity on the real engine, in interleaved \
             rounds, and let the measured medians pick the winner.")
  in
  let engine_arg =
    Arg.(
      value
      & opt engine_conv Bytecode
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:"Execution tier $(b,--measure) times candidates on.")
  in
  let fp_reassoc_flag =
    Arg.(
      value & flag
      & info [ "fp-reassoc" ]
          ~doc:
            "Consider floating-point-reassociating parallel-reduction \
             recipes; sums may differ from the serial order in the last \
             bits.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the explain report as JSON to $(docv).")
  in
  let emit_flag =
    Arg.(
      value & flag
      & info [ "emit" ]
          ~doc:"Print the winning program after the report.")
  in
  let path_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"Program in the loopc surface language.")
  in
  let run budget procs policy measure engine fp_reassoc json emit path =
    match read_program path with
    | Error (`Msg m) ->
        Printf.eprintf "error: %s\n" m;
        exit 1
    | Ok p ->
        report_validation p;
        let procs =
          if procs > 0 then procs else Domain.recommended_domain_count ()
        in
        let ctx =
          L.Search.default_ctx ~policy ~cal:(load_search_calibration ())
            ~p:procs ()
        in
        let mode, measure_fn =
          match measure with
          | None -> (L.Search.Model, None)
          | Some k -> (
              match exec_engine_of engine with
              | None ->
                  Printf.eprintf
                    "error: --measure needs a compiled engine \
                     (bytecode|native)\n";
                  exit 1
              | Some eng ->
                  ( L.Search.Measure k,
                    Some (search_measure ~engine:eng ~domains:procs ~policy)
                  ))
        in
        let label = Filename.remove_extension (Filename.basename path) in
        let rep =
          L.Search.run ~budget ~mode ?measure:measure_fn ~fp_reassoc ~label
            ~ctx p
        in
        print_string (L.Search.explain_to_string rep);
        (match json with
        | None -> ()
        | Some f ->
            let oc = open_out f in
            Fun.protect
              ~finally:(fun () -> close_out oc)
              (fun () -> output_string oc (L.Search.explain_to_json rep));
            Printf.eprintf "wrote %s\n" f);
        if emit then
          print_string (L.Pretty.program_to_string rep.L.Search.rp_program)
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:
         "Model-guided transformation search: enumerate a budgeted set \
          of recipes (interchange, hoisting, distribution, fusion, \
          tiling, coalescing variants, and with $(b,--fp-reassoc) \
          parallel reductions), prune any whose static race-verifier \
          verdict degrades, score the survivors with the calibrated \
          event-driven machine model, and report the predicted-fastest \
          recipe. $(b,--measure) settles the finalists on the real \
          engine instead. [loopc run --search] applies the winner and \
          caches it for replay.")
    Term.(
      const run $ budget_arg $ procs_arg $ policy_arg $ measure_arg
      $ engine_arg $ fp_reassoc_flag $ json_arg $ emit_flag $ path_arg)

(* ---------- calibrate ---------- *)

let calibrate_cmd =
  let procs_arg =
    Arg.(
      value & opt int 0
      & info [ "p" ] ~docv:"P"
          ~doc:
            "Domains for the fork/join probe; 0 (default) uses the \
             recommended domain count.")
  in
  let rounds_arg =
    Arg.(
      value & opt int 5
      & info [ "rounds" ] ~docv:"R"
          ~doc:"Median-of-$(docv) rounds for every probe.")
  in
  let output_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:
            "Write the calibration JSON to $(docv) instead of \
             $(b,machine.json) in the plan-cache directory.")
  in
  let median l =
    let a = List.sort Float.compare l in
    List.nth a (List.length a / 2)
  in
  let rec mkdirs d =
    if not (Sys.file_exists d) then begin
      mkdirs (Filename.dirname d);
      try Sys.mkdir d 0o755 with Sys_error _ -> ()
    end
  in
  (* Total weighted ops the search scorer sees in [prog], tape tier or
     host tier only: score it on a machine whose only nonzero cost is
     one op of that tier at 1ns, with every overhead zeroed. Dividing a
     measured wall time by this count yields a per-op cost in exactly
     the unit the scorer multiplies by, so predictions and measurements
     stay on one scale. *)
  let unit_ops ~tape prog =
    let cal =
      {
        L.Machine.cal_p = 1;
        dispatch_ns = 0.0;
        fork_ns = 0.0;
        barrier_ns = 0.0;
        tape_op_ns = (if tape then 1.0 else 0.0);
        closure_op_ns = (if tape then 0.0 else 1.0);
      }
    in
    L.Search.cost ~ctx:(L.Search.default_ctx ~cal ~p:1 ()) prog
  in
  let kernel name =
    match L.Kernels.by_name name with
    | Some mk -> mk ()
    | None ->
        Printf.eprintf "internal error: probe kernel %s missing\n" name;
        exit 2
  in
  (* Sequential wall time of one staged run, amortized over enough
     repetitions to dwarf timer resolution. *)
  let time_program ~rounds prog =
    match L.Runtime.Compile.compile_result ~sanitize:false ~opt_level:2 prog with
    | Error m ->
        Printf.eprintf "error: probe failed to stage: %s\n" m;
        exit 2
    | Ok compiled ->
        let reps = 300 in
        ignore (L.Runtime.Exec.run_compiled compiled : L.Runtime.Exec.outcome);
        median
          (List.init rounds (fun _ ->
               let t0 = Unix.gettimeofday () in
               for _ = 1 to reps do
                 ignore
                   (L.Runtime.Exec.run_compiled compiled
                     : L.Runtime.Exec.outcome)
               done;
               (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int reps))
  in
  let run procs rounds output =
    let p = if procs > 0 then procs else Domain.recommended_domain_count () in
    let rounds = max 1 rounds in
    (* One dispatch is one fetch&add on the shared iteration counter. *)
    let dispatch_ns =
      let iters = 1_000_000 in
      median
        (List.init rounds (fun _ ->
             let c = Atomic.make 0 in
             let t0 = Unix.gettimeofday () in
             for _ = 1 to iters do
               ignore (Atomic.fetch_and_add c 1 : int)
             done;
             (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters))
    in
    (* A no-op pool run is one wake plus one join; the probe can only
       see their sum, so split it with the default model's ratio. *)
    let fork_join_ns =
      L.Runtime.Pool.with_pool p (fun pool ->
          for _ = 1 to 32 do
            L.Runtime.Pool.run pool (fun _ -> ())
          done;
          let iters = 500 in
          median
            (List.init rounds (fun _ ->
                 let t0 = Unix.gettimeofday () in
                 for _ = 1 to iters do
                   L.Runtime.Pool.run pool (fun _ -> ())
                 done;
                 (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters)))
    in
    let d = L.Machine.default_calibration in
    let fork_share =
      d.L.Machine.fork_ns /. (d.L.Machine.fork_ns +. d.L.Machine.barrier_ns)
    in
    let fork_ns = fork_join_ns *. fork_share in
    let barrier_ns = fork_join_ns -. fork_ns in
    (* Per-op costs: a region-dominated kernel prices the bytecode tape,
       then a serial-reduction kernel prices host code once the (small)
       tape share of its wall time is deducted. *)
    let tape_probe = kernel "matmul" in
    let host_probe = kernel "pi" in
    let tape_ops = unit_ops ~tape:true tape_probe in
    let tape_op_ns =
      if tape_ops <= 0.0 then d.L.Machine.tape_op_ns
      else time_program ~rounds tape_probe /. tape_ops
    in
    let host_ops = unit_ops ~tape:false host_probe in
    let closure_op_ns =
      if host_ops <= 0.0 then d.L.Machine.closure_op_ns
      else
        let wall = time_program ~rounds host_probe in
        let tape_share = tape_op_ns *. unit_ops ~tape:true host_probe in
        Float.max (0.25 *. tape_op_ns) ((wall -. tape_share) /. host_ops)
    in
    let cal =
      {
        L.Machine.cal_p = p;
        dispatch_ns;
        fork_ns;
        barrier_ns;
        tape_op_ns;
        closure_op_ns;
      }
    in
    (match L.Machine.validate_calibration cal with
    | Ok () -> ()
    | Error m ->
        Printf.eprintf "error: calibration failed validation: %s\n" m;
        exit 1);
    Printf.printf
      "calibrated p=%d: dispatch=%.1fns fork=%.0fns barrier=%.0fns \
       tape_op=%.2fns closure_op=%.2fns\n"
      p dispatch_ns fork_ns barrier_ns tape_op_ns closure_op_ns;
    let out =
      match output with
      | Some f -> f
      | None -> (
          match machine_json_default () with
          | Some f -> f
          | None ->
              Printf.eprintf
                "error: no cache directory (set XDG_CACHE_HOME or HOME) \
                 — use -o FILE\n";
              exit 1)
    in
    mkdirs (Filename.dirname out);
    (match
       let oc = open_out out in
       Fun.protect
         ~finally:(fun () -> close_out oc)
         (fun () ->
           output_string oc (L.Machine.calibration_to_json cal);
           output_string oc "\n")
     with
    | () -> Printf.printf "wrote %s\n" out
    | exception Sys_error m ->
        Printf.eprintf "error: %s\n" m;
        exit 1);
    if Sys.getenv_opt "LOOPC_MACHINE" <> None then
      prerr_endline
        "note: LOOPC_MACHINE is set and takes precedence over the file \
         just written"
  in
  Cmd.v
    (Cmd.info "calibrate"
       ~doc:
         "Micro-time this machine's scheduling primitives — dispatch \
          (atomic fetch&add), fork/join (no-op pool run) — and per-op \
          tape and host costs (staged probe kernels divided by the \
          search scorer's weighted op counts), then write the \
          calibration JSON that [loopc tune] and [loopc run --search] \
          score candidates with. $(b,LOOPC_MACHINE) overrides the \
          default location.")
    Term.(const run $ procs_arg $ rounds_arg $ output_arg)

(* ---------- profile ---------- *)

let profile_cmd =
  let parallel_flag =
    Arg.(
      value & flag
      & info [ "parallel" ]
          ~doc:"Profile the parallel execution across OCaml domains.")
  in
  let procs_arg =
    Arg.(
      value & opt int 0
      & info [ "p" ] ~docv:"P"
          ~doc:
            "Domains for $(b,--parallel); 0 (default) uses the \
             recommended domain count of the machine.")
  in
  let policy_arg =
    Arg.(
      value
      & opt policy_conv L.Policy.Gss
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:"block | cyclic | ss | chunk:N | gss | factoring | tss.")
  in
  let coalesce_flag =
    Arg.(
      value & flag
      & info [ "coalesce" ]
          ~doc:"Apply the coalescing transformation before staging.")
  in
  let opt_level_arg =
    Arg.(
      value & opt int 2
      & info [ "opt-level" ] ~docv:"N"
          ~doc:"Bytecode tape optimizer level (0|2), as in $(b,run).")
  in
  let top_arg =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N"
          ~doc:"Rows in the hot-loop and hot-opcode tables (default 10).")
  in
  let folded_arg =
    Arg.(
      value
      & opt ~vopt:(Some "loopc_profile.folded") (some string) None
      & info [ "folded" ] ~docv:"FILE"
          ~doc:
            "Write flamegraph folded stacks (one \
             $(i,root;loop;...;stmt count) line per source location, \
             default $(b,loopc_profile.folded)); feed to any folded-format \
             flamegraph renderer.")
  in
  let trace_arg =
    Arg.(
      value
      & opt ~vopt:(Some "loopc_trace.json") (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record dispatch events and write a Chrome trace_event JSON \
             file carrying an extra profiler track (per-loop dispatch \
             shares) alongside the per-domain chunk lanes.")
  in
  let stats_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-json" ] ~docv:"FILE"
          ~doc:
            "Dump the whole metrics registry (plan cache, compile and \
             optimizer pass timings, pool fork/join latency, run times) \
             as JSON after the run.")
  in
  let engine_arg =
    Arg.(
      value
      & opt engine_conv Bytecode
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:
            "Execution tier to profile. Only $(b,bytecode) is supported: \
             the profiler counts per-opcode tape dispatches, which the \
             other tiers do not perform.")
  in
  let write_file path s =
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)
  in
  let run parallel procs policy coalesce engine opt_level top folded_file
      trace_file stats_file p =
    (match engine with
    | Bytecode -> ()
    | other ->
        Printf.eprintf
          "error: loopc profile: unsupported engine %S; supported engines: \
           bytecode\n"
          (run_engine_name other);
        exit 1);
    require_opt_level opt_level;
    report_validation p;
    let p =
      if not coalesce then p
      else begin
        let p', n = L.Coalesce.apply_all_program p in
        Printf.eprintf "coalesced %d nest(s)\n" n;
        p'
      end
    in
    let domains =
      if not parallel then 1
      else if procs > 0 then procs
      else Domain.recommended_domain_count ()
    in
    (* Always a cold compile: a plan-cache hit would skip the optimizer
       pipeline and leave the tapeopt pass metrics empty in the dump. *)
    match L.Runtime.Compile.compile_result ~opt_level p with
    | Error m ->
        Printf.eprintf "staging error: %s\n" m;
        exit 1
    | Ok compiled -> (
        let tracer =
          Option.map (fun _ -> L.Trace.create ~p:domains ()) trace_file
        in
        let profile = L.Runtime.Profile.create () in
        let t0 = Unix.gettimeofday () in
        match
          L.Runtime.Exec.run_compiled ~domains ~policy
            ~engine:L.Runtime.Exec.Bytecode ?trace:tracer ~profile compiled
        with
        | exception L.Runtime.Compile.Error m ->
            Printf.eprintf "runtime error: %s\n" m;
            exit 1
        | _outcome ->
            let elapsed = Unix.gettimeofday () -. t0 in
            let sm = L.Runtime.Profile.summarize profile in
            Printf.printf
              "engine: compiled runtime (bytecode), %d domain(s), policy \
               %s, opt-level %d, wall_s=%.6f\n\n"
              domains (L.Policy.name policy) opt_level elapsed;
            if sm.L.Runtime.Profile.sm_dispatches = 0 then
              print_endline
                "no tape dispatches recorded (no parallel plan lowered to \
                 bytecode — annotate a loop nest with doall)"
            else print_string (L.Runtime.Profile.render ~top sm);
            (match folded_file with
            | None -> ()
            | Some f ->
                write_file f (L.Runtime.Profile.folded sm);
                Printf.printf "wrote folded stacks %s (%d locations)\n" f
                  (List.length sm.L.Runtime.Profile.sm_loops));
            (match (trace_file, tracer) with
            | Some f, Some tracer ->
                let tr = L.Trace.snapshot tracer in
                let track =
                  List.map
                    (fun (r : L.Runtime.Profile.loop_row) ->
                      ( r.L.Runtime.Profile.lr_loop ^ " :: "
                        ^ r.L.Runtime.Profile.lr_stmt,
                        r.L.Runtime.Profile.lr_dispatches ))
                    sm.L.Runtime.Profile.sm_loops
                in
                L.Chrome_trace.to_file ~profile:track f tr;
                Printf.printf
                  "wrote Chrome trace %s (%d chunks, %d regions, profiler \
                   track); load it in about://tracing\n"
                  f
                  (Array.length tr.L.Trace.chunks)
                  (Array.length tr.L.Trace.forks)
            | _ -> ());
            match stats_file with
            | None -> ()
            | Some f ->
                write_file f (L.Registry.to_json ());
                Printf.printf "wrote metrics registry %s\n" f)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Execute a program on the bytecode tier with the tape profiler \
          on and print hot-loop and hot-opcode tables: every dispatched \
          instruction is counted and attributed to the source loop nest \
          and statement it was lowered from, through every optimizer \
          pass. $(b,--folded) writes flamegraph folded stacks, \
          $(b,--trace) a Chrome trace with a profiler track, \
          $(b,--stats-json) the whole metrics registry.")
    Term.(
      const run $ parallel_flag $ procs_arg $ policy_arg $ coalesce_flag
      $ engine_arg $ opt_level_arg $ top_arg $ folded_arg $ trace_arg
      $ stats_arg $ program_arg)

(* ---------- check ---------- *)

(* Deliberate tape corruptions for the validator's must-fail smoke test
   (CI runs one of these and asserts a nonzero exit). Each kind breaks a
   different invariant [Tapecheck] guards: a negative register, a jump
   out of its section, an access offset that no longer matches its
   subscripts, a provenance tag outside the tag table, a stream-init
   aimed at a nonexistent scratch slot. *)
let mutate_kinds = [ "neg-reg"; "bad-jump"; "offset"; "prov"; "slot" ]

let apply_mutation kind (t : L.Runtime.Bytecode.tape) =
  let module B = L.Runtime.Bytecode in
  let exception Inapplicable of string in
  let fail m = raise (Inapplicable m) in
  let first arr p =
    let n = Array.length arr in
    let rec go i =
      if i >= n then None else if p arr.(i) then Some i else go (i + 1)
    in
    go 0
  in
  let ops = t.B.tp_ops in
  let go () =
    match kind with
    | "neg-reg" -> (
        match
          first ops (function B.Fstore _ | B.Fload _ -> true | _ -> false)
        with
        | Some i ->
            ops.(i) <-
              (match ops.(i) with
              | B.Fstore (_, id) -> B.Fstore (-1, id)
              | B.Fload (_, id) -> B.Fload (-1, id)
              | op -> op)
        | None -> fail "tape has no load or store to corrupt")
    | "bad-jump" -> (
        let target = Array.length ops + 5 in
        match
          first ops (function
            | B.Iloop _ | B.Iloopc _ | B.Jmp _ | B.Jii _ | B.Jff _ | B.Jffn _
              ->
                true
            | _ -> false)
        with
        | Some i ->
            ops.(i) <-
              (match ops.(i) with
              | B.Iloop (r, a, b, _) -> B.Iloop (r, a, b, target)
              | B.Iloopc (r, c, b, _) -> B.Iloopc (r, c, b, target)
              | B.Jmp _ -> B.Jmp target
              | B.Jii (op, a, b, _) -> B.Jii (op, a, b, target)
              | B.Jff (op, a, b, _) -> B.Jff (op, a, b, target)
              | B.Jffn (op, a, b, _) -> B.Jffn (op, a, b, target)
              | op -> op)
        | None -> fail "tape has no jump to corrupt")
    | "offset" ->
        if Array.length t.B.tp_accs = 0 then fail "tape has no array accesses"
        else begin
          let a = t.B.tp_accs.(0) in
          if Array.length a.B.ac_subs = 0 then fail "access has no subscripts"
          else a.B.ac_subs.(0) <- B.aff_add (B.aff_const 1) a.B.ac_subs.(0)
        end
    | "prov" ->
        if Array.length t.B.tp_src = 0 then fail "tape body is empty"
        else t.B.tp_src.(0) <- 99_999
    | "slot" ->
        let bogus = Array.length t.B.tp_accs + t.B.tp_nstreams + 7 in
        let rec seek = function
          | [] -> fail "tape has no streamed offsets (needs --opt-level 2)"
          | arr :: rest -> (
              match first arr (function B.Sinit _ -> true | _ -> false) with
              | Some i ->
                  arr.(i) <-
                    (match arr.(i) with
                    | B.Sinit (_, a) -> B.Sinit (bogus, a)
                    | op -> op)
              | None -> seek rest)
        in
        seek [ t.B.tp_pre; ops ]
    | k ->
        fail
          (Printf.sprintf "unknown kind %S (one of %s)" k
             (String.concat ", " mutate_kinds))
  in
  try Ok (go ()) with Inapplicable m -> Error m

let check_cmd =
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the report as JSON instead of text.")
  in
  let strict_flag =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"Exit nonzero on warnings too, not just errors.")
  in
  let coalesce_flag =
    Arg.(
      value & flag
      & info [ "coalesce" ]
          ~doc:
            "Coalesce every nest first and check the transformed program, \
             feeding the verifier the recovery metadata the transformation \
             emits.")
  in
  let tape_flag =
    Arg.(
      value & flag
      & info [ "tape" ]
          ~doc:
            "Instead of the source-level race verifier, run the \
             $(b,Tapecheck) translation validator: compile the program \
             to the bytecode tier and statically check every plan's tape \
             after each optimizer pass — register def-before-use, \
             instruction well-formedness, stream-slot protocol, offset \
             ranges against the once-per-fork bounds check, and \
             footprint equivalence with the unoptimized tape. Findings \
             use stable LC010-LC014 codes.")
  in
  let list_flag =
    Arg.(
      value & flag
      & info [ "list" ]
          ~doc:
            "Print the catalog of diagnostic codes (code, severity, \
             meaning) and exit.")
  in
  let opt_level_arg =
    Arg.(
      value & opt int 2
      & info [ "opt-level" ] ~docv:"N"
          ~doc:
            "With $(b,--tape): optimizer level to validate (0 or 2, \
             default 2).")
  in
  let sanitize_arg =
    Arg.(
      value & flag
      & info [ "sanitize" ]
          ~doc:
            "With $(b,--tape): validate the sanitizer-instrumented tapes \
             instead of the unsafe-path ones.")
  in
  let mutate_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "mutate" ] ~docv:"KIND"
          ~doc:
            (Printf.sprintf
               "With $(b,--tape): deliberately corrupt the first bytecode \
                plan after compiling, then validate — a self-test that \
                the validator rejects broken tapes (the exit status must \
                be nonzero). $(i,KIND) is one of %s."
               (String.concat ", " mutate_kinds)))
  in
  let path_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"Program in the loopc surface language.")
  in
  let run json strict coalesce strategy tape list_diags opt_level sanitize
      mutate path =
    if list_diags then begin
      List.iter
        (fun (code, sev, desc) ->
          Printf.printf "%s  %-7s  %s\n" code
            (L.Diag.severity_to_string sev)
            desc)
        L.Diag.catalog;
      exit 0
    end;
    let path =
      match path with
      | Some p -> p
      | None ->
          Printf.eprintf "error: missing FILE argument (or use --list)\n";
          exit 2
    in
    require_opt_level opt_level;
    (match mutate with
    | Some k when not (List.mem k mutate_kinds) ->
        Printf.eprintf "error: --mutate: unknown kind %S (one of %s)\n" k
          (String.concat ", " mutate_kinds);
        exit 1
    | Some _ when not tape ->
        Printf.eprintf "error: --mutate requires --tape\n";
        exit 1
    | _ -> ());
    match L.Driver.load_file path with
    | Error m ->
        Printf.eprintf "error: %s\n" m;
        exit 2
    | Ok p ->
        let p, hints =
          if coalesce then
            let p', metas = L.Coalesce.apply_all_program_meta ~strategy p in
            ( p',
              List.filter_map
                (fun (m : L.Coalesce.recovery_meta) ->
                  Option.map
                    (fun digits ->
                      {
                        L.Verify.h_coalesced = m.L.Coalesce.rm_coalesced;
                        h_digits = digits;
                      })
                    m.L.Coalesce.rm_digits)
                metas )
          else (p, [])
        in
        let report, diags =
          if not tape then
            let res = L.Verify.check_program ~hints p in
            (L.Verify.report ~target:path res, res.L.Verify.diags)
          else begin
            let module C = L.Runtime.Compile in
            (* Findings from the per-pass hook during a cold compile; a
               mutated run instead corrupts a finished tape and re-checks
               structurally, since the pipeline must not run on (and
               possibly be confused by) a broken input. *)
            let collected = ref [] in
            let validate =
              if mutate <> None then None
              else Some (fun ~plan:_ ~pass:_ ds -> collected := !collected @ ds)
            in
            match C.compile_result ~sanitize ~opt_level ?validate p with
            | Error m ->
                Printf.eprintf "staging error: %s\n" m;
                exit 2
            | Ok compiled ->
                let plans = C.plans compiled in
                (match mutate with
                | None -> ()
                | Some kind ->
                    (* First plan the corruption applies to; e.g. a
                       jump mutation needs a plan with a serial loop. *)
                    let rec try_tapes last = function
                      | [] ->
                          Printf.eprintf "error: --mutate %s: %s\n" kind
                            (Option.value last
                               ~default:"the program has no parallel plan");
                          exit 2
                      | t :: rest -> (
                          match apply_mutation kind t with
                          | Ok () -> ()
                          | Error m -> try_tapes (Some m) rest)
                    in
                    try_tapes None (List.map (fun pl -> pl.C.tape) plans);
                    List.iteri
                      (fun i pl ->
                        collected :=
                          !collected
                          @ L.Runtime.Tapecheck.check_entry ~region:(i + 1)
                              pl.C.tape)
                      plans);
                let regions =
                  List.mapi
                    (fun i pl ->
                      let names =
                        String.concat "."
                          (Array.to_list pl.C.index_names)
                      in
                      {
                        L.Diag.ri_ordinal = i + 1;
                        ri_label = "doall " ^ names;
                        ri_iters = None;
                      })
                    plans
                in
                ( { L.Diag.target = path; regions; diags = !collected },
                  !collected )
          end
        in
        print_string
          (if json then L.Diag.render_json report
           else L.Diag.render_text report);
        let e, w, _ = L.Diag.counts diags in
        if e > 0 || (strict && w > 0) then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Statically verify the program: by default that every parallel \
          region the runtime would fork is race-free; with $(b,--tape), \
          that every bytecode tape the compiler emits is well-formed, \
          in-bounds and footprint-equivalent to its unoptimized form. \
          Diagnostics use stable LCnnn codes ($(b,--list) prints the \
          catalog).")
    Term.(
      const run $ json_flag $ strict_flag $ coalesce_flag $ strategy_arg
      $ tape_flag $ list_flag $ opt_level_arg $ sanitize_arg $ mutate_arg
      $ path_arg)

(* ---------- kernel ---------- *)

let kernel_cmd =
  let kernel_name =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"NAME"
          ~doc:
            (Printf.sprintf "Built-in kernel: %s."
               (String.concat ", " L.Kernels.all_names)))
  in
  let run name =
    match L.Kernels.by_name name with
    | Some mk -> print_string (L.Pretty.program_to_string (mk ()))
    | None ->
        Printf.eprintf "unknown kernel %S; available: %s\n" name
          (String.concat ", " L.Kernels.all_names);
        exit 1
  in
  Cmd.v (Cmd.info "kernel" ~doc:"Print a built-in kernel program.")
    Term.(const run $ kernel_name)

let main =
  Cmd.group
    (Cmd.info "loopc" ~version:"1.0.0"
       ~doc:"Loop coalescing: transformation, analysis and schedule simulation.")
    [ show_cmd; analyze_cmd; coalesce_cmd; distribute_cmd; fuse_cmd;
      reduce_cmd; shrink_cmd; unroll_cmd; peel_cmd; interchange_cmd;
      tile_cmd; optimize_cmd; emit_c_cmd; simulate_cmd; schedule_cmd;
      run_cmd; tune_cmd; calibrate_cmd; profile_cmd; check_cmd; kernel_cmd ]

let () = exit (Cmd.eval main)
