(* Native execution tier: plans pretty-printed to OCaml, compiled out
   of process and Dynlinked back in must be observationally identical
   to the bytecode tier — bit-identical arrays and scalars, the same
   chunk decomposition in traces and the same scheduler metrics — on
   every corpus program, at every opt level, on 1, 2 and 4 domains.

   Every test (except the codegen-shape and CLI ones) skips cleanly
   when the host has no usable ocamlopt, mirroring the executor's own
   per-plan fallback. *)

open Loopcoal
module B = Builder
module Exec = Runtime.Exec
module Compile = Runtime.Compile
module Natgen = Runtime.Natgen
module Pool = Runtime.Pool
module Bytecode = Runtime.Bytecode

(* Keep native [.cmxs] artifacts (and any plan-cache traffic from the
   CLI subprocess below) out of the user's real cache directory. The
   putenv runs at module initialization, before any suite executes. *)
let scratch_cache =
  let d = Filename.temp_file "loopcoal_natcache" "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  at_exit (fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote d))));
  Unix.putenv "XDG_CACHE_HOME" d;
  d

let toolchain = lazy (Natgen.available ())

let require_toolchain () =
  match Lazy.force toolchain with
  | Ok () -> ()
  | Error _ -> Alcotest.skip ()

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
  in
  nn > 0 && go 0

(* ---------- five-way differential over the full corpus ---------- *)

(* Interpreter oracle plus raw and optimized bytecode, and the native
   tier at both opt levels. Native outcomes must additionally be
   *exactly* equal to same-level bytecode outcomes, scalars included:
   the generated code preserves the tape's float operation structure,
   so there is no tolerance to hide behind. *)
let configs =
  [
    ("bytecode -O0", Exec.Bytecode, 0);
    ("bytecode -O2", Exec.Bytecode, 2);
    ("native -O0", Exec.Native, 0);
    ("native -O2", Exec.Native, 2);
  ]

let check_five_way ?(domain_counts = [ 1; 2; 4 ])
    ?(policies = [ Policy.Static_block; Policy.Gss ]) ~what prog =
  let st = Eval.run prog in
  List.iter
    (fun policy ->
      List.iter
        (fun domains ->
          let outcomes =
            List.map
              (fun (cname, engine, opt_level) ->
                let o = Exec.run ~domains ~policy ~engine ~opt_level prog in
                if not (Exec.agrees_with_interpreter o st) then
                  Alcotest.failf "%s: %s (%d domains, %s) differs from interp"
                    what cname domains (Policy.name policy);
                (cname, opt_level, o))
              configs
          in
          List.iter
            (fun (cname, lvl, (o : Exec.outcome)) ->
              if String.length cname >= 6 && String.sub cname 0 6 = "native"
              then
                let _, _, ob =
                  List.find (fun (c, l, _) -> c <> cname && l = lvl) outcomes
                in
                if not (Test_bytecode.same_array_bits o ob) then
                  Alcotest.failf
                    "%s: %s arrays not bit-identical to bytecode (%d domains)"
                    what cname domains
                else if not (Test_bytecode.same_bits o ob) then
                  Alcotest.failf
                    "%s: %s scalars not bit-identical to bytecode (%d domains)"
                    what cname domains)
            outcomes)
        domain_counts)
    policies

let parse what text =
  match Driver.load_string text with
  | Ok p -> p
  | Error m -> Alcotest.failf "%s: parse error: %s" what m

let compiled_error ~what prog =
  List.map
    (fun (cname, engine, opt_level) ->
      match Exec.run ~engine ~opt_level prog with
      | _ -> Alcotest.failf "%s: %s ran without a runtime error" what cname
      | exception Compile.Error m -> (cname, m))
    configs

let test_kernels_five_way () =
  require_toolchain ();
  List.iter
    (fun name ->
      check_five_way ~what:name ((Option.get (Kernels.by_name name)) ()))
    Kernels.all_names

let example_files () =
  let dir = "../examples/programs" in
  let list d =
    if Sys.file_exists d && Sys.is_directory d then
      Sys.readdir d |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".loop")
      |> List.map (Filename.concat d)
    else []
  in
  List.sort String.compare (list dir @ list (Filename.concat dir "diagnostics"))

let test_examples_five_way () =
  require_toolchain ();
  let files = example_files () in
  Alcotest.(check bool)
    (Printf.sprintf "example corpus found (%d files)" (List.length files))
    true
    (List.length files >= 10);
  List.iter
    (fun file ->
      match Driver.load_file file with
      | Error m -> Alcotest.failf "%s: %s" file m
      | Ok p ->
          check_five_way ~domain_counts:[ 1; 4 ]
            ~what:(Filename.basename file) p)
    files

(* ---------- QCheck: the promotion and serial-loop fragments ---------- *)

(* The register-promotion and serial-loop fragments are where the
   generated code diverges most from a naive transliteration (float
   refs, inner do-while loops) — rerun [Test_bytecode]'s generators
   with the native engine in the mix. Counts stay small: every distinct
   program is one out-of-process ocamlopt run. *)
let native_differential gen ~name =
  QCheck.Test.make ~name ~count:8
    (QCheck.make ~print:Pretty.program_to_string gen)
    (fun prog ->
      match Lazy.force toolchain with
      | Error _ -> true
      | Ok () ->
          let st = Eval.run prog in
          List.for_all
            (fun domains ->
              let on = Exec.run ~domains ~engine:Exec.Native prog in
              let ob = Exec.run ~domains ~engine:Exec.Bytecode prog in
              Exec.agrees_with_interpreter on st && Test_bytecode.same_bits on ob)
            [ 1; 3 ])

let prop_serial_accum =
  native_differential Test_bytecode.serial_accum_gen
    ~name:"native = bytecode = interp (serial accumulation nests)"

let prop_branchy_varstep =
  native_differential Test_bytecode.branchy_varstep_gen
    ~name:"native = bytecode = interp (branchy variable-step nests)"

(* ---------- trace and metrics shape: native vs bytecode ---------- *)

(* Chunk boundaries, fork events and the scheduler metrics derived from
   them must be engine-invariant: the native runner slots into the same
   per-strip dispatch the bytecode tier uses, so only timestamps may
   differ. *)
let test_trace_shape_identical () =
  require_toolchain ();
  List.iter
    (fun trips ->
      let prog : Ast.program = Test_bytecode.trip_prog ~trips in
      let st = Eval.run prog in
      List.iter
        (fun domains ->
          let run engine =
            let compiled = Compile.compile ~opt_level:2 prog in
            (if engine = Exec.Native then
               match Natgen.prepare compiled with
               | Natgen.Ready _ -> ()
               | Natgen.Unavailable m ->
                   Alcotest.failf "native tier unavailable: %s" m);
            let tracer = Trace.create ~p:domains () in
            let outcome =
              Exec.run_compiled ~domains ~policy:Policy.Static_block ~engine
                ~trace:tracer compiled
            in
            (outcome, Trace.snapshot tracer)
          in
          let ob, tb = run Exec.Bytecode in
          let on, tn = run Exec.Native in
          if not (Exec.agrees_with_interpreter on st) then
            Alcotest.failf "trips=%d domains=%d: native differs from interp"
              trips domains;
          if on.Exec.arrays <> ob.Exec.arrays
             || on.Exec.scalars <> ob.Exec.scalars
          then
            Alcotest.failf "trips=%d domains=%d: native result differs" trips
              domains;
          let shape (tr : Trace.t) =
            ( Array.to_list tr.Trace.chunks
              |> List.map (fun (c : Trace.chunk) ->
                     (c.Trace.epoch, c.Trace.worker, c.Trace.start, c.Trace.len))
              |> List.sort compare,
              Array.to_list tr.Trace.forks
              |> List.map (fun (f : Trace.fork) ->
                     ( f.Trace.f_epoch,
                       Policy.name f.Trace.f_policy,
                       f.Trace.f_n,
                       f.Trace.f_p )) )
          in
          if shape tb <> shape tn then
            Alcotest.failf "trips=%d domains=%d: trace shape differs" trips
              domains;
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
          if counts tb <> counts tn then
            Alcotest.failf "trips=%d domains=%d: metrics differ" trips domains)
        [ 1; 2; 4 ])
    [ 1; 4; 5 ]

(* ---------- toolchain-missing fallback ---------- *)

(* With the compiler pinned to a nonexistent path the tier must report
   unavailable (not raise), attach nothing, and the executor must fall
   back to bytecode per plan and still agree with the interpreter. A
   fresh program keeps the in-process artifact table from short-
   circuiting the compiler probe. *)
let test_toolchain_missing_fallback () =
  let prog =
    B.program
      ~arrays:[ B.array "F" [ 5; 7 ] ]
      [
        B.doall "i" (B.int 1) (B.int 5)
          [
            B.doall "j" (B.int 1) (B.int 7)
              [
                B.store "F" [ B.var "i"; B.var "j" ]
                  B.((real 0.125 * var "j") + (var "i" * int 19));
              ];
          ];
      ]
  in
  Unix.putenv "LOOPC_NATIVE_OCAMLOPT" "/nonexistent/loopc-test/ocamlopt";
  Fun.protect
    ~finally:(fun () ->
      (* The empty string reads back as unset for this knob. *)
      Unix.putenv "LOOPC_NATIVE_OCAMLOPT" "")
    (fun () ->
      let compiled = Compile.compile prog in
      (match Natgen.prepare compiled with
      | Natgen.Unavailable m ->
          Alcotest.(check bool)
            "reason names the pinned compiler" true
            (String.length m > 0
            && String.sub m 0 (min 15 (String.length m)) = "native compiler")
      | Natgen.Ready _ ->
          Alcotest.fail "prepare must not succeed without a compiler");
      List.iter
        (fun (p : Compile.plan) ->
          if p.Compile.native <> None then
            Alcotest.fail "no runner may be attached without a compiler")
        (Compile.plans compiled);
      let st = Eval.run prog in
      let o = Exec.run_compiled ~domains:2 ~engine:Exec.Native compiled in
      if not (Exec.agrees_with_interpreter o st) then
        Alcotest.fail "bytecode fallback differs from interpreter")

(* ---------- compiler invocations ---------- *)

(* A cold build runs the compiler once, with no [-version] probe before
   it; only a failed build probes, to pick its diagnostic. The compiler
   is pinned to a wrapper script that logs every call and forwards to
   [ocamlfind ocamlopt] (or, with [~build_fails], answers [-version] but
   refuses to build; with [~sleeps], answers [-version] but turns a
   build into a 30 s sleep whose pid it writes to [<script>.pid]). *)
let with_logging_compiler ?(build_fails = false) ?(sleeps = false) f =
  if Sys.command "ocamlfind ocamlopt -version >/dev/null 2>&1" <> 0 then
    Alcotest.skip ();
  let script = Filename.temp_file ~temp_dir:scratch_cache "ocamlopt" ".sh" in
  let log = script ^ ".log" in
  Out_channel.with_open_text script (fun oc ->
      Printf.fprintf oc "#!/bin/sh\necho \"$*\" >> %s\n" (Filename.quote log);
      if build_fails then
        Printf.fprintf oc
          "case \"$1\" in -version) exec ocamlfind ocamlopt -version ;; \
           esac\necho 'wrapper: build refused' >&2\nexit 2\n"
      else if sleeps then
        Printf.fprintf oc
          "case \"$1\" in -version) exec ocamlfind ocamlopt -version ;; \
           esac\necho $$ > %s\nexec sleep 30\n"
          (Filename.quote (script ^ ".pid"))
      else Printf.fprintf oc "exec ocamlfind ocamlopt \"$@\"\n");
  Unix.chmod script 0o755;
  let calls () =
    if Sys.file_exists log then
      In_channel.with_open_text log In_channel.input_lines
    else []
  in
  Unix.putenv "LOOPC_NATIVE_OCAMLOPT" script;
  Fun.protect
    ~finally:(fun () -> Unix.putenv "LOOPC_NATIVE_OCAMLOPT" "")
    (fun () -> f calls)

(* A program no other test compiles, so neither the in-process artifact
   table nor an artifact on disk can stand in for the build. *)
let fresh_prog scale =
  B.program
    ~arrays:[ B.array "G" [ 6; 9 ] ]
    [
      B.doall "i" (B.int 1) (B.int 6)
        [
          B.doall "j" (B.int 1) (B.int 9)
            [
              B.store "G" [ B.var "i"; B.var "j" ]
                B.((real scale * var "i") - var "j");
            ];
        ];
    ]

let test_one_compiler_call_per_cold_build () =
  require_toolchain ();
  with_logging_compiler (fun calls ->
      let dir = Filename.concat scratch_cache "one-call" in
      let prog = fresh_prog 0.6875 in
      let key = "test-one-compiler-call" in
      (match Natgen.prepare ~key ~dir (Compile.compile prog) with
      | Natgen.Ready { artifact_hit } ->
          Alcotest.(check bool) "cold prepare builds" false artifact_hit
      | Natgen.Unavailable m -> Alcotest.failf "cold prepare: %s" m);
      let cold = calls () in
      Alcotest.(check int) "one compiler call" 1 (List.length cold);
      List.iter
        (fun c ->
          if contains c "-version" then
            Alcotest.failf "cold prepare probed the compiler: %s" c)
        cold;
      let warm = Compile.compile prog in
      (match Natgen.prepare ~key ~dir warm with
      | Natgen.Ready { artifact_hit } ->
          Alcotest.(check bool) "warm prepare hits" true artifact_hit
      | Natgen.Unavailable m -> Alcotest.failf "warm prepare: %s" m);
      Alcotest.(check int)
        "warm prepare calls no compiler" 1
        (List.length (calls ()));
      let o = Exec.run_compiled ~domains:2 ~engine:Exec.Native warm in
      if not (Exec.agrees_with_interpreter o (Eval.run prog)) then
        Alcotest.fail "runners built through the wrapper differ from interp")

let test_failing_build_diagnosed () =
  require_toolchain ();
  with_logging_compiler ~build_fails:true (fun calls ->
      let prog = fresh_prog 0.8125 in
      let compiled = Compile.compile prog in
      (match Natgen.prepare ~persist:false compiled with
      | Natgen.Unavailable m ->
          Alcotest.(check string)
            "reason names the build, not the compiler"
            "native build failed: wrapper: build refused" m
      | Natgen.Ready _ -> Alcotest.fail "a refused build must not be Ready");
      (match calls () with
      | [ build; probe ] ->
          Alcotest.(check bool) "build first" false (contains build "-version");
          Alcotest.(check string) "then one probe" "-version" probe
      | cs ->
          Alcotest.failf "expected build + probe, got %d calls"
            (List.length cs));
      let o = Exec.run_compiled ~domains:2 ~engine:Exec.Native compiled in
      if not (Exec.agrees_with_interpreter o (Eval.run prog)) then
        Alcotest.fail "bytecode fallback differs from interpreter")

(* A compiler that never finishes: the build is killed at its bound
   (the internal [~build_timeout]; the CLI keeps the 120 s default), the
   reason names the timeout, the compiler is not probed, and every fork
   runs on bytecode, counted under [native.fallbacks]. *)
let test_build_timeout () =
  require_toolchain ();
  with_logging_compiler ~sleeps:true (fun calls ->
      let pidfile = Sys.getenv "LOOPC_NATIVE_OCAMLOPT" ^ ".pid" in
      let prog = fresh_prog 0.9375 in
      let compiled = Compile.compile prog in
      let t0 = Unix.gettimeofday () in
      (match Natgen.prepare ~persist:false ~build_timeout:0.5 compiled with
      | Natgen.Unavailable m ->
          Alcotest.(check string)
            "reason names the timeout" "native build timed out after 0.5 s" m
      | Natgen.Ready _ -> Alcotest.fail "a timed-out build must not be Ready");
      let waited = Unix.gettimeofday () -. t0 in
      if waited > 10.0 then
        Alcotest.failf "prepare returned after %.1f s, not at the bound" waited;
      (match calls () with
      | [ build ] ->
          Alcotest.(check bool) "no probe" false (contains build "-version")
      | cs ->
          Alcotest.failf "expected one build call, got %d" (List.length cs));
      (* the compiler was killed and reaped, not left sleeping *)
      (match In_channel.with_open_text pidfile In_channel.input_line with
      | Some pid -> (
          match Unix.kill (int_of_string pid) 0 with
          | () -> Alcotest.failf "compiler %s still running" pid
          | exception Unix.Unix_error (Unix.ESRCH, _, _) -> ())
      | None | (exception Sys_error _) -> ());
      let fallbacks = Registry.counter "native.fallbacks" in
      let before = Registry.value fallbacks in
      let o = Exec.run_compiled ~domains:2 ~engine:Exec.Native compiled in
      if Registry.value fallbacks <= before then
        Alcotest.fail "timed-out build: no fork counted under native.fallbacks";
      if not (Exec.agrees_with_interpreter o (Eval.run prog)) then
        Alcotest.fail "bytecode fallback differs from interpreter")

(* ---------- artifact cache ---------- *)

(* Two compiles of the same program prepared under the same caller key:
   the first builds and persists a [.cmxs], the second must report an
   artifact hit (no rebuild) and still attach working runners. *)
let test_artifact_cache_hit () =
  require_toolchain ();
  let dir = Filename.concat scratch_cache "artifacts" in
  let prog = (Option.get (Kernels.by_name "matmul")) () in
  let key = "test-artifact-cache-matmul" in
  let first = Compile.compile prog in
  (match Natgen.prepare ~key ~dir first with
  | Natgen.Ready { artifact_hit } ->
      Alcotest.(check bool) "first prepare builds" false artifact_hit
  | Natgen.Unavailable m -> Alcotest.failf "first prepare: %s" m);
  let cmxs =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".cmxs")
  in
  Alcotest.(check bool) "a .cmxs artifact was persisted" true (cmxs <> []);
  let second = Compile.compile prog in
  (match Natgen.prepare ~key ~dir second with
  | Natgen.Ready { artifact_hit } ->
      Alcotest.(check bool) "second prepare hits" true artifact_hit
  | Natgen.Unavailable m -> Alcotest.failf "second prepare: %s" m);
  let st = Eval.run prog in
  let o = Exec.run_compiled ~engine:Exec.Native second in
  if not (Exec.agrees_with_interpreter o st) then
    Alcotest.fail "runners from a cached artifact differ from interpreter"

(* ---------- tiled strips ---------- *)

let tiled_forks = Registry.counter "exec.tiled_forks"

(* Transposes of 37 rows (two groups of sixteen and a partial one) by
   each inner extent of 1, 7, 8, 9, 255, 256, 257 and 517, one nest
   each, all tiled; then the nests that must not be: a reduction, one
   that leaves a last-value plan scalar, and a stencil. *)
let tiled_prog =
  let nr = 37 and cols = [ 1; 7; 8; 9; 255; 256; 257; 517 ] in
  let b = Buffer.create 4096 in
  let add fmt = Printf.bprintf b fmt in
  add "program\n";
  List.iter
    (fun nc -> add "  real A%d[%d, %d]\n  real B%d[%d, %d]\n" nc nc nr nc nr nc)
    cols;
  add "  real S[%d, 10]\n  real T[%d, 10]\n  real s = 0.0\n  real v = 0.0\n"
    nr nr;
  add "begin\n";
  List.iter
    (fun nc ->
      add
        "  doall i = 1, %d\n\
        \    doall j = 1, %d\n\
        \      A%d[i, j] = i * 0.5 - j * 0.25\n\
        \    end\n\
        \  end\n\
        \  doall i = 1, %d\n\
        \    doall j = 1, %d\n\
        \      B%d[i, j] = A%d[j, i] * 2.0 + i\n\
        \    end\n\
        \  end\n"
        nc nr nc nr nc nc nc)
    cols;
  add
    "  doall i = 1, %d\n\
    \    doall j = 1, 9\n\
    \      s = s + A9[j, i]\n\
    \      v = A9[j, i] * 3.0\n\
    \      S[i, j] = v\n\
    \    end\n\
    \  end\n\
    \  doall i = 1, %d\n\
    \    doall j = 1, 9\n\
    \      v = A9[j, i] - 1.0\n\
    \      T[i, j] = v\n\
    \    end\n\
    \  end\n\
    \  doall i = 2, %d\n\
    \    doall j = 2, 8\n\
    \      S[i, j] = (B9[i - 1, j] + B9[i + 1, j] + B9[i, j]) / 3.0\n\
    \    end\n\
    \  end\n\
     end\n"
    nr nr (nr - 1);
  Buffer.contents b

let tiled_engines () =
  Exec.Bytecode
  :: (if Lazy.force toolchain = Ok () then [ Exec.Native ] else [])

(* Tiled runs, on lanes and native code, against untiled scalar
   bytecode (a profiler attached) and [Eval], bit for bit: arrays
   always, scalars on one domain or under static block (elsewhere the
   chunk partials' merge follows the schedule, on every engine). At
   1-3 domains under static block, static cyclic, GSS, chunk:3 and
   chunk:1000, so chunks start and end mid-row; every transpose fork
   and no other runs tiled; and a traced tiled run records the chunks
   an untiled one does. *)
let test_tiled_strips () =
  let prog = Test_bytecode.parse "tiled" tiled_prog in
  let st = Eval.run prog in
  let reference =
    let arrays, scalars = Eval.dump st in
    { Exec.arrays; scalars }
  in
  let t = Compile.compile ~opt_level:2 prog in
  (match Natgen.prepare t with Natgen.Ready _ | Natgen.Unavailable _ -> ());
  let chunks (tr : Trace.t) static =
    Array.to_list tr.Trace.chunks
    |> List.map (fun (c : Trace.chunk) ->
           ((if static then c.Trace.worker else 0), c.Trace.start, c.Trace.len))
    |> List.sort compare
  in
  List.iter
    (fun policy ->
      List.iter
        (fun d ->
          let static = policy = Policy.Static_block in
          let untiled_trace = Trace.create ~p:d () in
          let untiled =
            Exec.run_compiled ~domains:d ~policy ~trace:untiled_trace
              ~profile:(Runtime.Profile.create ()) t
          in
          List.iter
            (fun engine ->
              let where =
                Printf.sprintf "%s, %d domain(s), %s"
                  (if engine = Exec.Native then "native" else "bytecode")
                  d (Policy.name policy)
              in
              let tr = Trace.create ~p:d () in
              let before = Registry.value tiled_forks in
              let tiled = Exec.run_compiled ~domains:d ~policy ~engine ~trace:tr t in
              Alcotest.(check int) (where ^ ": tiled forks") 8
                (Registry.value tiled_forks - before);
              let same =
                if d = 1 || static then Test_bytecode.same_bits
                else Test_bytecode.same_array_bits
              in
              if not (same tiled untiled) then
                Alcotest.failf "%s: tiled differs from untiled: %s" where
                  (Test_bytecode.array_diff tiled untiled);
              if not (Test_bytecode.same_array_bits tiled reference) then
                Alcotest.failf "%s: arrays differ from Eval: %s" where
                  (Test_bytecode.array_diff tiled reference);
              if d = 1 && not (Test_bytecode.same_bits tiled reference) then
                Alcotest.failf "%s: scalars differ from Eval" where;
              if
                chunks (Trace.snapshot tr) static
                <> chunks (Trace.snapshot untiled_trace) static
              then Alcotest.failf "%s: traced chunks differ" where)
            (tiled_engines ()))
        [ 1; 2; 3 ])
    [
      Policy.Static_block; Policy.Static_cyclic; Policy.Gss; Policy.Self_sched 3;
      Policy.Self_sched 1000;
    ]

(* A transpose whose range proof fails runs untiled, checked, and
   faults with [Eval]'s message on every engine. *)
let test_tiled_unproved () =
  let prog =
    Test_bytecode.parse "unproved"
      "program\n\
      \  real A[300, 20]\n\
      \  real B[20, 300]\n\
       begin\n\
      \  doall i = 1, 20\n\
      \    doall j = 1, 300\n\
      \      B[i, j] = A[j, i + 1]\n\
      \    end\n\
      \  end\n\
       end\n"
  in
  let want =
    match Eval.run prog with
    | _ -> Alcotest.fail "Eval ran"
    | exception Eval.Runtime_error m -> m
  in
  let t = Compile.compile ~opt_level:2 prog in
  List.iter
    (fun engine ->
      List.iter
        (fun d ->
          let before = Registry.value tiled_forks in
          (match Exec.run_compiled ~domains:d ~policy:Policy.Gss ~engine t with
          | _ -> Alcotest.fail "ran"
          | exception Compile.Error m ->
              Alcotest.(check string)
                (Printf.sprintf "%d domain(s): message" d)
                want m);
          Alcotest.(check int) "untiled" 0 (Registry.value tiled_forks - before))
        [ 1; 2; 3 ])
    (tiled_engines ())

(* A truncated and a zero-byte [.cmxs] in the artifact cache: each
   [loopc run] is a fresh process, so the warm run finds the damaged file
   on disk, where [Dynlink] would fault mapping a truncated plugin. It
   must drop the file and rebuild it — one artifact miss, no hit — run
   every fork natively (no [native.fallbacks]) and print what [Eval]
   computes. *)
let test_damaged_artifact () =
  require_toolchain ();
  let loopc = "../bin/loopc.exe" in
  if not (Sys.file_exists loopc) then Alcotest.skip ();
  let prog = "../examples/programs/matmul.loop" in
  List.iter
    (fun (what, damage) ->
      let home = Filename.concat scratch_cache ("damaged-" ^ what) in
      let json = Filename.concat scratch_cache ("damaged-" ^ what ^ ".json") in
      let out = Filename.concat scratch_cache ("damaged-" ^ what ^ ".out") in
      let run () =
        Sys.command
          (Printf.sprintf
             "XDG_CACHE_HOME=%s %s run --engine native --compare --stats-json \
              %s %s >%s 2>&1"
             (Filename.quote home) loopc (Filename.quote json)
             (Filename.quote prog) (Filename.quote out))
      in
      let stats () = In_channel.with_open_text json In_channel.input_all in
      let counter name v =
        Printf.sprintf "\"%s\": {\"type\": \"counter\", \"value\": %d}" name v
      in
      Alcotest.(check int) (what ^ ": cold run") 0 (run ());
      let dir = Filename.concat home "loopc" in
      let cmxs =
        match
          List.filter
            (fun f -> Filename.check_suffix f ".cmxs")
            (Array.to_list (Sys.readdir dir))
        with
        | [ f ] -> Filename.concat dir f
        | fs -> Alcotest.failf "%s: %d artifacts" what (List.length fs)
      in
      let built = In_channel.with_open_bin cmxs In_channel.input_all in
      Out_channel.with_open_bin cmxs (fun oc ->
          output_string oc (damage built));
      Alcotest.(check int) (what ^ ": warm run") 0 (run ());
      let text = In_channel.with_open_text out In_channel.input_all in
      if not (contains text "interpreter equivalence: arrays identical") then
        Alcotest.failf "%s: output differs from Eval:\n%s" what text;
      List.iter
        (fun (name, v) ->
          if not (contains (stats ()) (counter name v)) then
            Alcotest.failf "%s: %s is not %d" what name v)
        [
          ("plan_cache.artifact.miss", 1);
          ("plan_cache.artifact.hit", 0);
          ("native.fallbacks", 0);
        ];
      Alcotest.(check int)
        (what ^ ": the artifact is rebuilt")
        (String.length built)
        (In_channel.with_open_bin cmxs In_channel.length |> Int64.to_int))
    [
      ("truncated", fun s -> String.sub s 0 (String.length s / 2));
      ("zero-byte", fun _ -> "");
    ]

(* ---------- generated source shape ---------- *)

(* One plan's runner out of a plugin source: from [let rN] up to the
   next top-level binding. *)
let runner_src src idx =
  let head = Printf.sprintf "let r%d " idx in
  let rec find i =
    if i + String.length head > String.length src then
      Alcotest.failf "no runner r%d in the source" idx
    else if String.sub src i (String.length head) = head then i
    else find (i + 1)
  in
  let start = find 0 in
  let rec stop i =
    if i + 5 > String.length src then String.length src
    else if String.sub src i 5 = "\nlet " then i
    else stop (i + 1)
  in
  String.sub src start (stop (start + 1) - start)

let count_lines p text =
  List.length (List.filter p (String.split_on_char '\n' text))

let test_codegen_shape () =
  let prog = (Option.get (Kernels.by_name "matmul")) () in
  let compiled = Compile.compile ~opt_level:2 prog in
  let src, elig = Natgen.source compiled in
  Alcotest.(check bool)
    "at least one plan is native-eligible" true
    (List.exists Fun.id elig);
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "source contains %S" needle)
        true (contains src needle))
    [
      (* the registration handshake and runner signature *)
      "Natapi.register";
      ": Natapi.runner";
      (* unsafe accesses only — bounds were proven once per fork *)
      "Array.unsafe_get";
      "Array.unsafe_set";
      (* promoted float registers are local refs *)
      "let fr";
      (* serial loops and the strip loop are real loops, not dispatch *)
      "for _k = 0 to len - 1 do";
    ];
  Alcotest.(check bool)
    "no checked array access in generated code" false
    (contains src "Array.get ");
  (* one closure-free function per plan: blocks are [match] arms *)
  Alcotest.(check bool) "no let rec in generated code" false
    (contains src "let rec");
  (* int registers are read from [ints] once, in the runner prologue
     ([let irN = ref (Array.unsafe_get ints N) in]), never in the body *)
  List.iter
    (fun line ->
      if contains line "Array.unsafe_get ints"
         && not (contains line "let ir" && contains line "= ref (")
      then Alcotest.failf "int register file read after the prologue: %s" line)
    (String.split_on_char '\n' src);
  (* A literal serial-loop bound (lowered as a constant [Iaff]) is read
     as an immediate, not a register. *)
  let mm160 =
    let p = Kernels.matmul ~ra:4 ~ca:160 ~cb:5 in
    fst (Natgen.source (Compile.compile ~opt_level:2 p))
  in
  let inner = runner_src mm160 2 in
  Alcotest.(check bool) "matmul: k loop compares against 160" true
    (contains inner " <= 160) do () done;");
  Alcotest.(check bool) "matmul: no bound register" false
    (contains inner "<= !ir");
  Alcotest.(check bool) "matmul: jammed by eight" true
    (contains inner "for _g = 1 to len / 8 do");
  (* The sanitized build carries shadow instrumentation the generated
     code does not replay: every plan must be ineligible. *)
  let sanitized = Compile.compile ~sanitize:true prog in
  let _, elig_s = Natgen.source sanitized in
  Alcotest.(check bool)
    "sanitized plans are never native-eligible" false
    (List.exists Fun.id elig_s)

(* Offsets keep the affine access form, and registers only ever set to a
   literal are read as that literal, so a nonzero constant divisor needs
   no zero test. *)
let test_codegen_tight_strips () =
  let src_of name =
    let prog = (Option.get (Kernels.by_name name)) () in
    fst (Natgen.source (Compile.compile ~opt_level:2 prog))
  in
  let stencil = runner_src (src_of "stencil") 1 in
  Alcotest.(check bool) "5-point stencil: no per-iteration offset bump" false
    (contains stencil "* jstep);");
  let relax = src_of "relax" in
  Alcotest.(check bool) "relax: literal mod" true (contains relax "mod 5)");
  Alcotest.(check bool) "relax: no zero test on a nonzero literal" false
    (contains relax "by zero");
  (* a body without control flow has no block dispatch *)
  Alcotest.(check bool) "relax update: straight-line body" false
    (contains (runner_src relax 1) "match !bk");
  let cond = runner_src (src_of "cond_stencil") 1 in
  Alcotest.(check bool) "cond_stencil: still dispatches blocks" true
    (contains cond "match !bk")

(* Strip-index coefficients that differ between accesses ([B[2*i]]
   next to [A[i-1]], [A[i+1]]) and constant displacements, in a 1-D and
   a coalesced 2-D body: every tier must agree bit for bit. *)
let mixed_streams_prog =
  {|program
  real A[402]
  real B[802]
  real C[400]
  real E[20, 82]
  real D[20, 40]
begin
  doall i = 1, 402
    A[i] = i * 0.5
  end
  doall i = 1, 802
    B[i] = i % 7 - 2.5
  end
  doall i = 1, 20
    doall j = 1, 82
      E[i, j] = i * 0.25 + j % 5
    end
  end
  doall i = 2, 400
    C[i] = A[i - 1] + A[i + 1] * B[2 * i]
  end
  doall i = 1, 20
    doall j = 2, 39
      D[i, j] = E[i, j - 1] - E[i, j + 1] * E[i, 2 * j]
    end
  end
end
|}

let test_mixed_streams_five_way () =
  require_toolchain ();
  let prog = parse "mixed streams" mixed_streams_prog in
  check_five_way ~domain_counts:[ 1; 2 ] ~what:"mixed streams" prog

let test_cond_stencil_five_way () =
  require_toolchain ();
  check_five_way ~domain_counts:[ 1; 2 ] ~what:"cond_stencil"
    (Kernels.cond_stencil ~n:301)

(* ---------- unroll-and-jam ---------- *)

let jam_nest = Test_bytecode.jam_nest
let jam_matmul = Test_bytecode.jam_matmul

let jams src idx = contains (runner_src src idx) "for _g = 1 to len / 8 do"

let check_jam ~what ~jam prog =
  List.iter
    (fun lvl ->
      let src = fst (Natgen.source (Compile.compile ~opt_level:lvl prog)) in
      List.iter
        (fun idx ->
          if jams src idx <> (jam && idx = 2) then
            Alcotest.failf "%s -O%d: runner r%d %s" what lvl idx
              (if jam && idx = 2 then "is not jammed" else "is jammed"))
        [ 0; 1; 2 ])
    [ 0; 2 ];
  if Lazy.force toolchain = Ok () then
    check_five_way ~domain_counts:[ 1; 2; 3 ]
      ~policies:[ Policy.Static_block; Policy.Gss; Policy.Self_sched 3 ]
      ~what prog

(* Strips of every length 1-17 (every remainder of a group of eight
   after none, one and two groups), a zero-trip inner loop, and the
   negative shapes, under static, guided and fixed-chunk schedules
   (chunks of 3 cut strips short): native must stay bit-identical to
   bytecode. *)
let test_jam_five_way () =
  List.iter
    (fun nj ->
      check_jam ~jam:true
        ~what:(Printf.sprintf "jam nj=%d" nj)
        (parse "jam" (jam_nest ~nj (jam_matmul ~nk:3))))
    (List.init 17 succ);
  check_jam ~jam:true ~what:"jam, zero-trip k loop"
    (parse "jam" (jam_nest ~nk:0 ~nj:6 (jam_matmul ~nk:0)));
  List.iter
    (fun (what, body) ->
      check_jam ~jam:true ~what (parse what (jam_nest ~nk:4 ~nj:15 body)))
    Test_bytecode.jam_positives;
  List.iter
    (fun (what, decls, body, _) ->
      check_jam ~jam:false ~what (parse what (jam_nest ~decls ~nj:7 body)))
    Test_bytecode.jam_negatives;
  let tri = Kernels.tri_gather ~n:50 in
  let src = fst (Natgen.source (Compile.compile ~opt_level:2 tri)) in
  Alcotest.(check bool) "tri_gather: not jammed" false
    (contains src "for _g");
  if Lazy.force toolchain = Ok () then
    check_five_way ~domain_counts:[ 1; 2; 3 ]
      ~policies:[ Policy.Static_block; Policy.Gss; Policy.Self_sched 3 ]
      ~what:"tri_gather" tri

(* Fold plans: the lane path folds their carried float chain in order,
   the native tier leaves them single ([jam_plan] is [None] for every
   plan with a fold register, a strip sum after a serial loop included,
   which would jam otherwise), and all five engines agree on the fold
   example at 1-3 domains under static, guided and fixed-chunk
   schedules. *)
let test_fold_plans () =
  let example =
    parse "fold_lanes"
      (In_channel.with_open_bin "../examples/programs/fold_lanes.loop"
         In_channel.input_all)
  in
  let progs =
    example
    :: List.map
         (fun (what, body) -> parse what (jam_nest ~nk:4 ~nj:7 body))
         Test_bytecode.jam_folds
    @ List.map
        (fun nj ->
          parse "folds"
            (Test_bytecode.fold_prog ~exact:true ~nj Test_bytecode.fold_shapes))
        [ 1; 5; 257 ]
  in
  let folds = ref 0 in
  List.iter
    (fun prog ->
      List.iter
        (fun lvl ->
          List.iter
            (fun (pl : Compile.plan) ->
              let jslot = pl.Compile.index_slots.(pl.Compile.depth - 1) in
              let tp = pl.Compile.tape in
              let lits = Bytecode.const_regs ~jslot tp in
              match Bytecode.lane_plan ~jslot ~lits tp with
              | Ok lp when not (Bytecode.IntSet.is_empty lp.Bytecode.lp_folds)
                ->
                  incr folds;
                  if Option.is_some (Natgen.jam_plan ~jslot ~lits tp) then
                    Alcotest.failf "-O%d: a fold plan is jammed" lvl
              | _ -> ())
            (Compile.plans (Compile.compile ~opt_level:lvl prog)))
        [ 0; 2 ])
    progs;
  Alcotest.(check bool) "fold plans seen" true (!folds >= 2 * 30);
  List.iter
    (fun (what, body) ->
      check_jam ~jam:false ~what (parse what (jam_nest ~nk:4 ~nj:7 body)))
    Test_bytecode.jam_folds;
  if Lazy.force toolchain = Ok () then
    check_five_way ~domain_counts:[ 1; 2; 3 ]
      ~policies:[ Policy.Static_block; Policy.Gss; Policy.Self_sched 3 ]
      ~what:"fold_lanes.loop" example

(* A literal zero (or, for ceildiv, non-positive) divisor is decided at
   generation time, but must still raise the tape's exact message — not
   [Division_by_zero] — on every engine. *)
let zero_divisor_progs =
  List.map
    (fun (what, rhs, msg) ->
      ( what,
        Printf.sprintf
          "program\n  real A[8]\nbegin\n  doall i = 1, 8\n    A[i] = %s\n  \
           end\nend\n"
          rhs,
        msg ))
    [
      ("mod", "i % 0", "mod by zero");
      ("div", "i / 0", "integer division by zero");
      ("ceildiv", "ceildiv(i, 0 - 3)", "ceildiv: non-positive divisor -3");
    ]

let test_literal_zero_divisor () =
  List.iter
    (fun (what, text, want) ->
      let prog = parse what text in
      (match Eval.run prog with
      | _ -> Alcotest.failf "%s: interpreter ran without an error" what
      | exception Eval.Runtime_error m ->
          Alcotest.(check string) (what ^ ": interpreter") want m);
      let src = fst (Natgen.source (Compile.compile ~opt_level:2 prog)) in
      Alcotest.(check bool)
        (what ^ ": raised unconditionally") true
        (contains src "\n    failwith ");
      List.iter
        (fun (cname, m) -> Alcotest.(check string) (what ^ ": " ^ cname) want m)
        (compiled_error ~what prog))
    zero_divisor_progs

(* ---------- allocation: registers stay in machine registers ---------- *)

(* Every register a runner touches is a non-escaping local ref, which
   ocamlopt keeps in a machine register (floats unboxed). A boxed float
   per register write would cost at least 2 minor words per iteration;
   a 1-domain run must stay under 0.01 words per coalesced iteration,
   fixed per-run costs (environment, outcome) included. *)
let alloc_kernels =
  [
    ("matmul", fun () -> Kernels.matmul ~ra:500 ~ca:4 ~cb:500);
    ("stencil", fun () -> Kernels.stencil ~n:400);
    ("transpose", fun () -> Kernels.transpose ~n:400);
    ("cond_stencil", fun () -> Kernels.cond_stencil ~n:200_000);
    ("tri_gather", fun () -> Kernels.tri_gather ~n:100_000);
    ("relax", fun () -> Kernels.relax ~n:50_000 ~steps:4);
  ]

let test_native_no_alloc () =
  require_toolchain ();
  List.iter
    (fun (name, mk) ->
      let compiled = Compile.compile ~opt_level:2 (mk ()) in
      (match Natgen.prepare compiled with
      | Natgen.Ready _ -> ()
      | Natgen.Unavailable m ->
          Alcotest.failf "%s: native unavailable: %s" name m);
      (* the traced run counts the coalesced iterations and warms up *)
      let tracer = Trace.create ~p:1 () in
      ignore (Exec.run_compiled ~engine:Exec.Native ~trace:tracer compiled);
      let iters =
        (Metrics.of_trace (Trace.snapshot tracer)).Metrics.total_iters
      in
      let w0 = Gc.minor_words () in
      ignore (Exec.run_compiled ~engine:Exec.Native compiled);
      let words = Gc.minor_words () -. w0 in
      let per_iter = words /. float_of_int iters in
      if per_iter >= 0.01 then
        Alcotest.failf
          "%s: %.0f minor words over %d iterations (%.4f per iteration)" name
          words iters per_iter)
    alloc_kernels

(* ---------- per-plan fork state ---------- *)

(* The range proof a fork reuses must be the one its inputs would
   produce: on the native tier a stale "all in bounds" would run the
   out-of-bounds sweep unchecked. *)
let test_fork_state_proof_reuse () =
  require_toolchain ();
  Test_runtime.check_shift_sweeps Exec.Native;
  Test_runtime.check_triangle Exec.Native

(* Engines alternate on one compiled program: a bytecode run's decision
   must not leak into the native run, which must run its plans' runners
   on every fork, and must not leak back. The runners are wrapped to
   count their strips. *)
let test_fork_state_engine_switch () =
  require_toolchain ();
  let prog = Test_runtime.relax_prog in
  let st = Eval.run prog in
  let t = Compile.compile prog in
  (match Natgen.prepare t with
  | Natgen.Ready _ -> ()
  | Natgen.Unavailable m -> Alcotest.failf "native unavailable: %s" m);
  let strips = Atomic.make 0 in
  List.iter
    (fun (plan : Compile.plan) ->
      plan.Compile.native <-
        Option.map
          (fun nr ints reals arrays j0 jstep len ->
            Atomic.incr strips;
            nr ints reals arrays j0 jstep len)
          plan.Compile.native)
    (Compile.plans t);
  let fallbacks = Registry.counter "native.fallbacks" in
  Pool.with_pool 2 (fun pool ->
      List.iter
        (fun engine ->
          let before = Registry.value fallbacks in
          Atomic.set strips 0;
          Test_runtime.agrees ~what:"relax"
            (Exec.run_compiled ~pool ~policy:Policy.Gss ~engine t)
            st;
          if engine = Exec.Native then begin
            Alcotest.(check int) "native run: no fallback" before
              (Registry.value fallbacks);
            (* 21 forks, each at least one strip *)
            Alcotest.(check bool) "native run: runners ran" true
              (Atomic.get strips >= 21)
          end
          else Alcotest.(check int) "bytecode run: no runner" 0
              (Atomic.get strips))
        [ Exec.Bytecode; Exec.Native; Exec.Bytecode ])

(* Per fork, the caller refreshes a kept state instead of rebuilding
   clones, runners, chunk queue and proof: relax's 401 forks at 2
   domains under GSS stay under 100 minor words each on the caller's
   domain, fixed per-run costs included. *)
let test_fork_alloc_bound () =
  require_toolchain ();
  let compiled = Compile.compile (Kernels.relax ~n:4096 ~steps:400) in
  (match Natgen.prepare compiled with
  | Natgen.Ready _ -> ()
  | Natgen.Unavailable m -> Alcotest.failf "native unavailable: %s" m);
  let forks = Registry.counter "pool.forks" in
  let fallbacks = Registry.counter "native.fallbacks" in
  Pool.with_pool 2 (fun pool ->
      let run () =
        ignore
          (Exec.run_compiled ~pool ~policy:Policy.Gss ~engine:Exec.Native
             compiled)
      in
      run ();
      let f0 = Registry.value forks and fb0 = Registry.value fallbacks in
      let w0 = Gc.minor_words () in
      run ();
      let words = Gc.minor_words () -. w0 in
      let n = Registry.value forks - f0 in
      Alcotest.(check int) "no fallback" fb0 (Registry.value fallbacks);
      let per_fork = words /. float_of_int n in
      if per_fork > 100.0 then
        Alcotest.failf "%.0f minor words over %d forks (%.1f per fork)" words
          n per_fork)

(* ---------- profile CLI guard ---------- *)

(* [loopc run --profile] only profiles the bytecode tier; any other
   engine is a clean one-line error naming the supported set: no crash,
   no silent fallback. *)
let test_profile_engine_cli_error () =
  let loopc = "../bin/loopc.exe" in
  if not (Sys.file_exists loopc) then Alcotest.skip ();
  let err = Filename.temp_file "loopc_profile" ".err" in
  let folded = Filename.remove_extension err ^ ".folded" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove err with Sys_error _ -> ())
    (fun () ->
      let code =
        Sys.command
          (Printf.sprintf
             "%s run --profile %s --engine native \
              ../examples/programs/matmul.loop >/dev/null 2>%s"
             loopc (Filename.quote folded) (Filename.quote err))
      in
      Alcotest.(check int) "exit status" 1 code;
      Alcotest.(check bool) "no folded stacks written" false
        (Sys.file_exists folded);
      let lines = In_channel.with_open_text err In_channel.input_lines in
      Alcotest.(check (list string))
        "pinned one-line error"
        [
          "error: --profile: unsupported engine \"native\"; supported \
           engines: bytecode";
        ]
        lines)

(* ---------- adversarial overflow ---------- *)

(* Subscripts whose range hull wraps: [4611686018427387903 * i]
   overflows for i >= 2, and a wrapped hull certifies 1..3 for values
   that really are 3, -4611686018427387902, ... The range proof must
   give up, leaving the access on the checked path, so every engine
   raises the interpreter's bounds error instead of reading or writing
   out of bounds. *)
let overflow_subscript_progs =
  [
    ( "load",
      {|program
  real A[10]
  real B[3]
begin
  doall i = 1, 3
    B[i] = A[4611686018427387903 * i - 4611686018427387900]
  end
end
|} );
    ( "store",
      {|program
  real A[10]
begin
  doall i = 1, 3
    A[4611686018427387903 * i - 4611686018427387900] = 1.0
  end
end
|} );
  ]

(* 2^32 * 2^31 iterations: the coalesced trip count wraps to 0. *)
let overflow_trip_prog =
  {|program
  real A[10]
begin
  doall i = 1, 4294967296
    doall j = 1, 2147483648
      A[1] = 1.0
    end
  end
end
|}

let test_overflow_subscript () =
  List.iter
    (fun (what, text) ->
      let prog = parse what text in
      let want =
        match Eval.run prog with
        | _ -> Alcotest.failf "%s: interpreter ran without an error" what
        | exception Eval.Runtime_error m -> m
      in
      Alcotest.(check string)
        (what ^ ": interpreter error")
        "array A: subscript -4611686018427387902 out of bounds 1..10" want;
      List.iter
        (fun (cname, m) ->
          Alcotest.(check string) (what ^ ": " ^ cname) want m)
        (compiled_error ~what prog))
    overflow_subscript_progs

(* ceildiv with operands at the int range edges: [a + b - 1] and
   [-min_int] wrap, so every engine (the interpreter and the serial
   closure code through [Intmath.cdiv], the tape tiers in the plan,
   native through its inline copy) must use the non-wrapping form. *)
let cdiv_edge_prog =
  {|program
  real A[2]
  real B[2]
  int s = 0
  int x = 0
begin
  s = 4611686018427387903
  x = ceildiv(s, 2)
  doall i = 1, 2
    A[i] = ceildiv(s, i + 1)
    B[i] = ceildiv(-s - 1, i + 2)
  end
end
|}

let test_cdiv_int_range () =
  let prog = parse "cdiv" cdiv_edge_prog in
  let st = Eval.run prog in
  (match Eval.scalar_value st "x" with
  | Eval.Vint x -> Alcotest.(check int) "interp x" 2305843009213693952 x
  | Eval.Vreal _ -> Alcotest.fail "x is not an int");
  let arrays, _ = Eval.dump st in
  Alcotest.(check (array (float 0.0)))
    "interp A" [| 2305843009213693952.; 1537228672809129301. |]
    (List.assoc "A" arrays);
  Alcotest.(check (array (float 0.0)))
    "interp B" [| -1537228672809129301.; -1152921504606846976. |]
    (List.assoc "B" arrays);
  List.iter
    (fun (cname, engine, opt_level) ->
      let o = Exec.run ~engine ~opt_level prog in
      if not (Exec.agrees_with_interpreter ~compare_scalars:true o st) then
        Alcotest.failf "%s differs from the interpreter" cname)
    configs

let test_overflow_trip_count () =
  let prog = parse "trip" overflow_trip_prog in
  List.iter
    (fun (cname, m) ->
      Alcotest.(check string) cname
        "loop i.j: coalesced trip count exceeds the int range" m)
    (compiled_error ~what:"trip count" prog)

(* ---------- serial code around forks ---------- *)

(* Arrays and scalars bit for bit, NaN payloads included, against
   [Eval] on every engine configuration at 1-3 domains under static
   block, GSS and chunk:3. *)
let check_eval_bits ~what prog =
  let st = Eval.run prog in
  List.iter
    (fun policy ->
      List.iter
        (fun domains ->
          List.iter
            (fun (cname, engine, opt_level) ->
              let o = Exec.run ~domains ~policy ~engine ~opt_level prog in
              if not (Exec.agrees_with_interpreter ~compare_scalars:true o st)
              then
                Alcotest.failf "%s: %s (%d domains, %s) differs from Eval" what
                  cname domains (Policy.name policy))
            configs)
        [ 1; 2; 3 ])
    [ Policy.Static_block; Policy.Gss; Policy.Self_sched 3 ]

(* examples/programs/serial_forks.loop: forks inside serial loops, with
   what each fork must see of the code around it — an element the loop
   stores and the fork reads or writes, never held in a register across
   the fork; a scalar the fork leaves that top-level code then
   subscripts with; forks under an [if]; inner bounds that read the
   enclosing serial index, re-evaluated per fork. *)
let test_serial_forks () =
  let file = "../examples/programs/serial_forks.loop" in
  match Driver.load_file file with
  | Error m -> Alcotest.failf "%s: %s" file m
  | Ok prog -> check_eval_bits ~what:"serial forks" prog

(* A merged reduction keeps [Eval]'s NaN: with NaNs of opposite signs
   in two elements, [s = A[i] + s] ends with the last one's payload and
   [s = s + A[i]] with the first one's, whichever domains or chunks
   hold them. A sum of negative zeros stays negative. *)
let nan_reduction_prog =
  "program\n\
  \  real A[64]\n\
  \  real s = 0.0\n\
  \  real t = 0.0\n\
  \  real p = 1.0\n\
  \  real q = 1.0\n\
  \  real u = 0.0\n\
  \  real w = 0.0\n\
  \  real z = 0.0\n\
   begin\n\
  \  doall i = 1, 64\n\
  \    A[i] = i\n\
  \  end\n\
  \  u = -z\n\
  \  w = -z\n\
  \  A[10] = -(z / z)\n\
  \  A[60] = z / z\n\
  \  doall i = 1, 64\n\
  \    s = A[i] + s\n\
  \    t = t + A[i]\n\
  \    p = A[i] * p\n\
  \    q = q * A[i]\n\
  \    u = u + -z\n\
  \    w = -z + w\n\
  \  end\n\
   end\n"

let test_reduction_nan_payload () =
  check_eval_bits ~what:"NaN reductions" (parse "nan" nan_reduction_prog)

(* A serial loop stepping by a register the body never writes: the
   step check is uniform, so the jam keeps it in each copy (the first
   copy raises the message the first iteration would), and a zero step
   raises Eval's message on every engine. *)
let test_jam_register_step () =
  let body =
    "      C[i, j] = 0.0\n\
    \      do k = 1, 5, s\n\
    \        C[i, j] = C[i, j] + A[i, k] * B[k, j]\n\
    \      end\n"
  in
  let prog s =
    parse "register step"
      (jam_nest ~decls:(Printf.sprintf "  int s = %d\n" s) ~nk:5 ~nj:15 body)
  in
  check_jam ~jam:true ~what:"register step" (prog 2);
  let zero = prog 0 in
  let want =
    match Eval.run zero with
    | _ -> Alcotest.fail "zero step: interpreter ran without an error"
    | exception Eval.Runtime_error m -> m
  in
  if Lazy.force toolchain = Ok () then
    List.iter
      (fun (cname, m) -> Alcotest.(check string) ("zero step: " ^ cname) want m)
      (compiled_error ~what:"zero step" zero)

let suite =
  [
    Alcotest.test_case "codegen shape" `Quick test_codegen_shape;
    Alcotest.test_case "tight strips: shared offsets, literal constants"
      `Quick test_codegen_tight_strips;
    Alcotest.test_case "literal zero divisor keeps the tape message" `Quick
      test_literal_zero_divisor;
    Alcotest.test_case "toolchain-missing fallback" `Quick
      test_toolchain_missing_fallback;
    Alcotest.test_case "cold build: one compiler call, no probe" `Quick
      test_one_compiler_call_per_cold_build;
    Alcotest.test_case "failing build: diagnosed after one probe" `Quick
      test_failing_build_diagnosed;
    Alcotest.test_case "artifact cache hit" `Quick test_artifact_cache_hit;
    Alcotest.test_case "native runs allocate nothing per iteration" `Quick
      test_native_no_alloc;
    Alcotest.test_case "fork state: proof reused only on equal inputs"
      `Quick test_fork_state_proof_reuse;
    Alcotest.test_case "fork state: bytecode, native, bytecode" `Quick
      test_fork_state_engine_switch;
    Alcotest.test_case "fork state: under 100 words per fork" `Quick
      test_fork_alloc_bound;
    Alcotest.test_case "profile --engine rejects native" `Quick
      test_profile_engine_cli_error;
    Alcotest.test_case "trace and metrics shape vs bytecode" `Slow
      test_trace_shape_identical;
    Alcotest.test_case "kernels (five-way differential)" `Slow
      test_kernels_five_way;
    Alcotest.test_case "examples (five-way differential)" `Slow
      test_examples_five_way;
    Alcotest.test_case "mixed stream coefficients (five-way)" `Slow
      test_mixed_streams_five_way;
    Alcotest.test_case "cond_stencil exclusive arms (five-way)" `Slow
      test_cond_stencil_five_way;
    Alcotest.test_case "unroll-and-jam: strips 1-9, negatives (five-way)"
      `Slow test_jam_five_way;
    Alcotest.test_case "fold plans: not jammed, five-way on fold_lanes"
      `Slow test_fold_plans;
    Alcotest.test_case "serial code around forks = Eval (five-way)" `Slow
      test_serial_forks;
    Alcotest.test_case "reduction merge keeps Eval's NaN payload" `Slow
      test_reduction_nan_payload;
  ]
  @ [
      Gen.to_alcotest prop_serial_accum;
      Gen.to_alcotest prop_branchy_varstep;
      Alcotest.test_case "overflowing subscript hull stays checked" `Quick
        test_overflow_subscript;
      Alcotest.test_case "overflowing coalesced trip count is an error"
        `Quick test_overflow_trip_count;
      Alcotest.test_case "ceildiv at the int range edges, every engine"
        `Quick test_cdiv_int_range;
      Alcotest.test_case "build timeout: killed, diagnosed, bytecode" `Quick
        test_build_timeout;
      Alcotest.test_case "unroll-and-jam: a step over a uniform register"
        `Slow test_jam_register_step;
      Alcotest.test_case "damaged artifacts are rebuilt" `Quick
        test_damaged_artifact;
      Alcotest.test_case "tiled strips = untiled = Eval" `Slow
        test_tiled_strips;
      Alcotest.test_case "tiled strips: an unproved fork runs untiled" `Quick
        test_tiled_unproved;
    ]
