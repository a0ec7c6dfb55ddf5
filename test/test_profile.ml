(* Tape profiler and provenance side tables.

   Load-bearing invariants:
   - every lowered tape keeps its provenance arrays aligned with its
     instruction arrays through the whole optimizer pipeline, with every
     tag in range and tag 0 the plan root;
   - a matmul profile attributes >= 90% of dispatches to concrete source
     statements/loops (not strip-level glue) at every opt level — the
     acceptance bar for the provenance plumbing surviving licm and
     fusion;
   - running with the profiler on changes no result bit and no trace
     structure, on any engine, opt level, policy or domain count. *)

open Loopcoal
module Exec = Runtime.Exec
module Compile = Runtime.Compile
module Bytecode = Runtime.Bytecode
module Profile = Runtime.Profile

let opt_levels = [ 0; 2 ]

(* ---------- provenance invariants ---------- *)

let check_tape_provenance what (t : Bytecode.tape) =
  let ntags = Array.length t.Bytecode.tp_tags in
  let section name ops src =
    if Array.length src <> Array.length ops then
      Alcotest.failf "%s: %s provenance length %d <> %d instrs" what name
        (Array.length src) (Array.length ops);
    Array.iter
      (fun tag ->
        if tag < 0 || tag >= ntags then
          Alcotest.failf "%s: %s tag %d out of range [0,%d)" what name tag
            ntags)
      src
  in
  if ntags = 0 then Alcotest.failf "%s: empty tag table" what;
  Alcotest.(check string)
    (what ^ ": tag 0 is the plan root") "strip"
    t.Bytecode.tp_tags.(0).Bytecode.sl_stmt;
  section "ops" t.Bytecode.tp_ops t.Bytecode.tp_src;
  section "pre" t.Bytecode.tp_pre t.Bytecode.tp_pre_src

let test_provenance_invariants () =
  List.iter
    (fun name ->
      let mk = Option.get (Kernels.by_name name) in
      List.iter
        (fun opt_level ->
          let c = Compile.compile ~opt_level (mk ()) in
          List.iteri
            (fun i (p : Compile.plan) ->
              check_tape_provenance
                (Printf.sprintf "%s -O%d plan %d" name opt_level i)
                p.Compile.tape)
            (Compile.plans c))
        opt_levels)
    Kernels.all_names

(* pp_provenance renders every tag and is stable under re-rendering. *)
let test_pp_provenance () =
  let c = Compile.compile ~opt_level:2 (Kernels.matmul ~ra:4 ~ca:5 ~cb:3) in
  let tapes = List.map (fun p -> p.Compile.tape) (Compile.plans c) in
  Alcotest.(check bool) "matmul lowers" true (tapes <> []);
  List.iter
    (fun t ->
      let s = Bytecode.pp_provenance t in
      Alcotest.(check bool) "mentions the tag table" true
        (String.length s > 0);
      Alcotest.(check string) "deterministic" s (Bytecode.pp_provenance t))
    tapes

(* ---------- attribution ---------- *)

let collector_of ?(domains = 1) ?policy ~opt_level prog =
  let c = Compile.compile ~opt_level prog in
  let pc = Profile.create () in
  ignore (Exec.run_compiled ~domains ?policy ~profile:pc c : Exec.outcome);
  pc

let profile_of ?domains ?policy ~opt_level prog =
  Profile.summarize (collector_of ?domains ?policy ~opt_level prog)

let test_matmul_attribution () =
  List.iter
    (fun opt_level ->
      let sm = profile_of ~opt_level (Kernels.matmul ~ra:8 ~ca:6 ~cb:7) in
      Alcotest.(check bool)
        (Printf.sprintf "-O%d records dispatches" opt_level)
        true
        (sm.Profile.sm_dispatches > 0);
      Alcotest.(check bool)
        (Printf.sprintf "-O%d iterations counted" opt_level)
        true (sm.Profile.sm_iters > 0);
      let frac = Profile.attributed_fraction sm in
      if frac < 0.9 then
        Alcotest.failf "-O%d attribution %.3f < 0.9" opt_level frac;
      (* The inner serial k loop must be visible as its own row. *)
      Alcotest.(check bool)
        (Printf.sprintf "-O%d attributes the k loop" opt_level)
        true
        (List.exists
           (fun r -> r.Profile.lr_loop = "i.j/k")
           sm.Profile.sm_loops))
    opt_levels

(* Body dispatch counts are schedule-invariant: the same iterations
   execute the same body instructions regardless of domains and policy.
   Strip-prologue dispatches (root-tagged glue) scale with strip count,
   which chunk boundaries legitimately change — so the invariant covers
   the body per non-root tag. *)
let body_rows entries =
  List.concat_map
    (fun ((t : Bytecode.tape), (pf : Bytecode.profile)) ->
      let acc = Hashtbl.create 16 in
      let add src counts =
        Array.iteri
          (fun i c ->
            let tag = src.(i) in
            if c > 0 && tag <> 0 then
              let loc = t.Bytecode.tp_tags.(tag) in
              let key = (loc.Bytecode.sl_loop, loc.Bytecode.sl_stmt) in
              Hashtbl.replace acc key
                (c + Option.value ~default:0 (Hashtbl.find_opt acc key)))
          counts
      in
      add t.Bytecode.tp_src pf.Bytecode.pf_ops;
      Hashtbl.fold (fun k v l -> (k, v) :: l) acc [])
    entries
  |> List.sort compare

let test_attribution_schedule_invariant () =
  let prog = Kernels.tri_gather ~n:10 in
  let base_pc = collector_of ~opt_level:2 prog in
  let base_iters = (Profile.summarize base_pc).Profile.sm_iters in
  let base = body_rows (Profile.tapes base_pc) in
  Alcotest.(check bool) "baseline has body rows" true (base <> []);
  List.iter
    (fun (domains, policy) ->
      let pc = collector_of ~domains ~policy ~opt_level:2 prog in
      Alcotest.(check int)
        (Printf.sprintf "iters (%d domains, %s)" domains (Policy.name policy))
        base_iters
        (Profile.summarize pc).Profile.sm_iters;
      Alcotest.(check bool)
        (Printf.sprintf "body dispatch rows (%d domains, %s)" domains
           (Policy.name policy))
        true
        (base = body_rows (Profile.tapes pc)))
    [ (2, Policy.Static_block); (4, Policy.Gss); (3, Policy.Self_sched 2) ]

(* ---------- folded stacks ---------- *)

let test_folded_format () =
  let sm = profile_of ~opt_level:2 (Kernels.matmul ~ra:6 ~ca:4 ~cb:5) in
  let folded = Profile.folded sm in
  let lines =
    String.split_on_char '\n' folded |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one line per location"
    (List.length sm.Profile.sm_loops)
    (List.length lines);
  let total =
    List.fold_left
      (fun acc line ->
        (* Folded format: frames up to the last space, count after it. *)
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "folded line %S has no count" line
        | Some i ->
            let frames = String.sub line 0 i in
            let count =
              String.sub line (i + 1) (String.length line - i - 1)
            in
            if frames = "" then Alcotest.failf "empty frames in %S" line;
            acc + int_of_string count)
      0 lines
  in
  Alcotest.(check int) "counts sum to total dispatches"
    sm.Profile.sm_dispatches total

(* ---------- profiler on/off is invisible ---------- *)

let trace_shape (tr : Trace.t) =
  ( Array.to_list
      (Array.map
         (fun (f : Trace.fork) ->
           (f.Trace.f_epoch, Policy.name f.Trace.f_policy, f.Trace.f_n,
            f.Trace.f_p))
         tr.Trace.forks),
    List.sort compare
      (Array.to_list
         (Array.map
            (fun (c : Trace.chunk) ->
              (c.Trace.epoch, c.Trace.worker, c.Trace.start, c.Trace.len))
            tr.Trace.chunks)) )

let test_profiled_run_identical () =
  let prog = Kernels.cond_stencil ~n:12 in
  List.iter
    (fun opt_level ->
      List.iter
        (fun domains ->
          let c = Compile.compile ~opt_level prog in
          let off = Exec.run_compiled ~domains c in
          let pc = Profile.create () in
          let on = Exec.run_compiled ~domains ~profile:pc c in
          if off <> on then
            Alcotest.failf "-O%d %d domains: profiled outcome differs"
              opt_level domains;
          (* Trace structure is profile-invariant too (timestamps are
             not — compare epochs, ownership and chunk geometry). *)
          let tr_off = Trace.create ~p:domains () in
          let tr_on = Trace.create ~p:domains () in
          ignore (Exec.run_compiled ~domains ~trace:tr_off c);
          let pc2 = Profile.create () in
          ignore (Exec.run_compiled ~domains ~trace:tr_on ~profile:pc2 c);
          if
            trace_shape (Trace.snapshot tr_off)
            <> trace_shape (Trace.snapshot tr_on)
          then
            Alcotest.failf "-O%d %d domains: profiled trace shape differs"
              opt_level domains)
        [ 1; 3 ])
    opt_levels

let prop_profile_onoff =
  QCheck.Test.make ~count:8
    ~name:"profiler on/off bit-identical (random DOALL nests)"
    Test_runtime.arbitrary_doall_nest
    (fun prog ->
      List.for_all
        (fun opt_level ->
          let c = Compile.compile ~opt_level prog in
          List.for_all
            (fun domains ->
              List.for_all
                (fun policy ->
                  let off = Exec.run_compiled ~domains ~policy c in
                  let pc = Profile.create () in
                  let on =
                    Exec.run_compiled ~domains ~policy ~profile:pc c
                  in
                  off = on
                  (* Profiled runs must actually count. *)
                  && (Profile.summarize pc).Profile.sm_dispatches > 0)
                [ Policy.Static_block; Policy.Gss ])
            [ 1; 2 ])
        opt_levels)

(* ---------- instrumentation ---------- *)

let kernel_tapes opt_level =
  List.concat_map
    (fun name ->
      let prog = (Option.get (Kernels.by_name name)) () in
      let c = Compile.compile ~opt_level prog in
      List.map (fun (p : Compile.plan) -> p.Compile.tape) (Compile.plans c))
    Kernels.all_names

let counting_copy t = Profile.instrumented (Profile.bind (Profile.create ()) t)

(* Erase the counters of a counting section: each surviving instruction
   keeps its tag, and a jump aimed at position [p] of the copy goes to
   the original index of the first surviving instruction at or after
   [p]. *)
let erase ops src =
  let n = Array.length ops in
  let before = Array.make (n + 1) 0 in
  Array.iteri
    (fun p op ->
      before.(p + 1) <-
        (before.(p) + match op with Bytecode.Icount _ -> 0 | _ -> 1))
    ops;
  let kept =
    List.filter_map
      (fun p ->
        match ops.(p) with
        | Bytecode.Icount _ -> None
        | op -> Some (Bytecode.map_targets (fun t -> before.(t)) op, src.(p)))
      (List.init n Fun.id)
  in
  (Array.of_list (List.map fst kept), Array.of_list (List.map snd kept))

(* The counting copy is the tape plus one counter per block: erasing
   the counters gives back every section, every jump of the copy lands
   on a counter (or the end), the counters use distinct fresh scratch
   slots, and the prologue, accesses and tag table are the tape's own. *)
let test_counting_copy_shape () =
  List.iter
    (fun opt_level ->
      List.iter
        (fun (t : Bytecode.tape) ->
          let c = counting_copy t in
          let section name ops src ops' src' =
            let e_ops, e_src = erase ops' src' in
            if e_ops <> ops || e_src <> src then
              Alcotest.failf "-O%d %s: erasing counters changes the section"
                opt_level name;
            Array.iteri
              (fun i op ->
                List.iter
                  (fun tgt ->
                    if tgt < Array.length ops' then
                      match ops'.(tgt) with
                      | Bytecode.Icount _ -> ()
                      | _ ->
                          Alcotest.failf
                            "-O%d %s[%d]: jump to %d misses its counter"
                            opt_level name i tgt)
                  (Bytecode.instr_targets op))
              ops'
          in
          section "ops" t.tp_ops t.tp_src c.tp_ops c.tp_src;
          Alcotest.(check bool) "prologue, accesses and tags shared" true
            (c.tp_pre == t.tp_pre && c.tp_accs == t.tp_accs
            && c.tp_tags == t.tp_tags);
          let base = Array.length t.tp_accs + t.tp_ncounters in
          let slots =
            Array.fold_left
              (fun acc -> function Bytecode.Icount k -> k :: acc | _ -> acc)
              [] c.tp_ops
            |> List.sort compare
          in
          Alcotest.(check (list int))
            (Printf.sprintf "-O%d counter slots" opt_level)
            (List.init (c.tp_ncounters - t.tp_ncounters) (fun k -> base + k))
            slots)
        (kernel_tapes opt_level))
    opt_levels

(* A counting copy passes the structural validator: counters sit on
   fresh scratch slots and every jump keeps its shape. *)
let test_counting_copy_validates () =
  List.iter
    (fun opt_level ->
      List.iter
        (fun (t : Bytecode.tape) ->
          let c = counting_copy t in
          match Runtime.Tapecheck.check_entry ~region:0 c with
          | [] -> ()
          | ds ->
              Alcotest.failf "-O%d: %s" opt_level
                (String.concat "; "
                   (List.map
                      (fun (d : Diag.t) -> d.Diag.code ^ " " ^ d.Diag.message)
                      ds)))
        (kernel_tapes opt_level))
    opt_levels

(* Counting copies are private to the collector: a profiled run (on
   any engine) leaves every plan's tape — the one the plan cache stores
   and native code generation reads — physically unchanged and free of
   counters. *)
let test_plan_tapes_untouched () =
  let c = Compile.compile ~opt_level:2 (Kernels.matmul ~ra:6 ~ca:4 ~cb:5) in
  let before =
    List.map (fun (p : Compile.plan) -> p.Compile.tape) (Compile.plans c)
  in
  List.iter
    (fun engine ->
      ignore
        (Exec.run_compiled ~domains:2 ~engine ~profile:(Profile.create ()) c
          : Exec.outcome))
    [ Exec.Bytecode; Exec.Native ];
  List.iter2
    (fun t0 (p : Compile.plan) ->
      let t = p.Compile.tape in
      Alcotest.(check bool) "same tape" true (t0 == t);
      Alcotest.(check bool) "no counters" false
        (Array.exists
           (function Bytecode.Icount _ -> true | _ -> false)
           (Array.append t.tp_pre t.tp_ops)))
    before (Compile.plans c)

(* ---------- pinned counts ---------- *)

(* The exact profile of each built-in kernel as `loopc kernel K | loopc
   profile --opt-level N` reports it at 1 domain (GSS, bytecode): the
   kernel's printed text is parsed back, compiled cold and run once.
   Counts are a property of the tape and the strip geometry, not of the
   host, so any change to how the profiler collects them must reproduce
   these numbers exactly. *)
let pinned_totals =
  [
    ("matmul", (1958, 146, 22), (1238, 146, 22));
    ("stencil", (1012, 164, 18), (692, 164, 18));
    ("cond_stencil", (186, 22, 2), (140, 22, 2));
    ("tri_gather", (229, 20, 2), (167, 20, 2));
    ("transpose", (500, 200, 20), (400, 200, 20));
    ("relax", (1381, 312, 13), (1047, 312, 13));
  ]

let cli_profile name opt_level =
  let text =
    Pretty.program_to_string ((Option.get (Kernels.by_name name)) ())
  in
  let prog =
    match Driver.load_string text with
    | Ok p -> p
    | Error m -> Alcotest.failf "%s: reparse failed: %s" name m
  in
  match Compile.compile_result ~opt_level prog with
  | Error m -> Alcotest.failf "%s: staging error: %s" name m
  | Ok c ->
      let pc = Profile.create () in
      ignore
        (Exec.run_compiled ~domains:1 ~policy:Policy.Gss
           ~engine:Exec.Bytecode ~profile:pc c
          : Exec.outcome);
      Profile.summarize pc

let test_pinned_totals () =
  List.iter
    (fun (name, o0, o2) ->
      List.iter
        (fun (opt_level, want) ->
          let sm = cli_profile name opt_level in
          Alcotest.(check (triple int int int))
            (Printf.sprintf "%s -O%d dispatches/iterations/strips" name
               opt_level)
            want
            (sm.Profile.sm_dispatches, sm.Profile.sm_iters,
             sm.Profile.sm_strips))
        [ (0, o0); (2, o2) ])
    pinned_totals

let test_pinned_matmul_rows () =
  let sm = cli_profile "matmul" 2 in
  Alcotest.(check (list (triple string string int)))
    "matmul -O2 hot loops"
    [
      ("i.j/k", "C[] =", 336);
      ("i.j/k", "for k", 336);
      ("i.j", "for k", 232);
      ("i.k", "A[] =", 144);
      ("k.j", "B[] =", 126);
      ("i.j", "C[] =", 56);
      ("i.j", "strip", 8);
    ]
    (List.map
       (fun r ->
         (r.Profile.lr_loop, r.Profile.lr_stmt, r.Profile.lr_dispatches))
       sm.Profile.sm_loops);
  Alcotest.(check (list (pair string int)))
    "matmul -O2 hot opcodes"
    [
      ("fmac2", 336); ("iloopc", 336); ("fstore", 202); ("iaff", 154);
      ("fofi", 90); ("fload", 56); ("jii", 56); ("fconst", 8);
    ]
    sm.Profile.sm_opcodes

(* ---------- rendering ---------- *)

let test_render_tables () =
  let sm = profile_of ~opt_level:2 (Kernels.matmul ~ra:6 ~ca:4 ~cb:5) in
  let s = Profile.render ~top:5 sm in
  List.iter
    (fun needle ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "render mentions %S" needle)
        true (contains s needle))
    [ "hot loops"; "hot opcodes"; "dispatches"; "i.j/k"; "fmac2" ]

let suite =
  [
    Alcotest.test_case "provenance aligned through all passes (kernels x \
                        opt levels)" `Quick test_provenance_invariants;
    Alcotest.test_case "pp_provenance stable" `Quick test_pp_provenance;
    Alcotest.test_case "matmul attribution >= 90% at every opt level" `Quick
      test_matmul_attribution;
    Alcotest.test_case "attribution is schedule-invariant" `Quick
      test_attribution_schedule_invariant;
    Alcotest.test_case "folded stacks well-formed and complete" `Quick
      test_folded_format;
    Alcotest.test_case "profiler on/off identical (results + trace shape)"
      `Quick test_profiled_run_identical;
    Alcotest.test_case "render has hot-loop and hot-opcode tables" `Quick
      test_render_tables;
    Alcotest.test_case "pinned kernel totals (-O0/-O2, 1 domain)" `Quick
      test_pinned_totals;
    Alcotest.test_case "pinned matmul -O2 hot rows" `Quick
      test_pinned_matmul_rows;
    Alcotest.test_case "counting copy = tape + one counter per block" `Quick
      test_counting_copy_shape;
    Alcotest.test_case "counting copy validates" `Quick
      test_counting_copy_validates;
    Alcotest.test_case "profiling leaves plan tapes untouched" `Quick
      test_plan_tapes_untouched;
    Gen.to_alcotest prop_profile_onoff;
  ]
