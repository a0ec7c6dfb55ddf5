(* Bench harness entry point.

   Usage:
     dune exec bench/main.exe            # every experiment + micro-benches
     dune exec bench/main.exe e3 e5     # selected experiments
     dune exec bench/main.exe micro     # Bechamel micro-benchmarks only
     dune exec bench/main.exe runtime   # multicore runtime vs interpreter
     dune exec bench/main.exe verify    # static race verifier on deep nests

   Each experiment regenerates one reconstructed table or figure of the
   evaluation (see DESIGN.md and EXPERIMENTS.md). *)

let usage () =
  print_endline
    "usage: main.exe [e1..e8 | micro | all]... [--oversubscribe] [--gate]";
  print_endline "available experiments:";
  List.iter (fun (id, _) -> Printf.printf "  %s\n" id) Experiments.all;
  print_endline "  micro";
  print_endline "  runtime";
  print_endline "  verify";
  print_endline "flags (runtime bench only):";
  print_endline
    "  --oversubscribe   include domain counts beyond the host's cores";
  print_endline
    "  --gate            1-domain perf gates: bytecode speedup over the \
     interpreter >= per-kernel floor / 1.05, -O2 geomean >= 1.15x -O0, \
     search never slower, and the profiler-off repeat-run noise canary \
     (exit 1 on failure)"

let run_id ~oversubscribe ~gate id =
  match List.assoc_opt id Experiments.all with
  | Some f -> f ()
  | None -> (
      match id with
      | "micro" -> Micro.run ()
      | "runtime" -> Runtime_bench.run ~oversubscribe ~gate ()
      | "verify" -> Verify_bench.run ()
      | "all" ->
          List.iter (fun (_, f) -> f ()) Experiments.all;
          Micro.run ();
          Runtime_bench.run ~oversubscribe ~gate ();
          Verify_bench.run ()
      | _ ->
          Printf.printf "unknown experiment %S\n" id;
          usage ();
          exit 1)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let is_flag a = String.length a >= 2 && String.equal (String.sub a 0 2) "--" in
  let flags, ids = List.partition is_flag args in
  let known = [ "--oversubscribe"; "--gate"; "--help" ] in
  match List.find_opt (fun f -> not (List.mem f known)) flags with
  | Some f ->
      Printf.printf "unknown flag %S\n" f;
      usage ();
      exit 1
  | None ->
      if List.mem "--help" flags || List.mem "-h" ids then usage ()
      else begin
        let oversubscribe = List.mem "--oversubscribe" flags in
        let gate = List.mem "--gate" flags in
        let run = run_id ~oversubscribe ~gate in
        match ids with [] -> run "all" | ids -> List.iter run ids
      end
