(* Tapecheck, the bytecode-tier translation validator.

   Two halves, mirrored:
   - soundness of the *validator*: the full corpus — example programs,
     built-in kernels, the random fragments the optimizer tests
     exercise — validates clean at every optimizer level, sanitized and
     not (no false positives);
   - soundness of the *checks*: deliberately corrupted tapes are each
     rejected with the expected stable code (no false negatives). The
     corruptions are injected through [Compile]'s [tape_dump] hook, so
     the finding that rejects them comes from the same per-pass
     validation pipeline the CLI's [--validate-tape] runs.

   Plus the plan-cache contract: a disk entry that deserializes but
   fails validation is a miss (recompiled, overwritten, counted under
   [plan_cache.reject]), never executed. *)

open Loopcoal
module B = Builder
module Compile = Runtime.Compile
module Bytecode = Runtime.Bytecode
module Plancache = Runtime.Plancache

(* Compile [prog] cold with the per-pass validation hook, returning
   every finding; [mutate = (pass, f)] corrupts the tape right after
   [pass] rewrites it and right before that stage's validation. *)
let findings ?(sanitize = false) ?(opt_level = 0) ?mutate prog =
  let collected = ref [] in
  let tape_dump =
    Option.map
      (fun (sel, f) ->
        fun ~plan:_ ~pass tape -> if String.equal pass sel then f tape)
      mutate
  in
  let validate ~plan:_ ~pass:_ ds = collected := !collected @ ds in
  let (_ : Compile.t) =
    Compile.compile ~sanitize ~opt_level ?tape_dump ~validate prog
  in
  !collected

let has code ds = List.exists (fun (d : Diag.t) -> d.Diag.code = code) ds

let show ds =
  String.concat "; "
    (List.map (fun (d : Diag.t) -> d.Diag.code ^ " " ^ d.Diag.message) ds)

let check_code name code ds =
  if not (has code ds) then
    Alcotest.failf "%s: expected %s, got [%s]" name code (show ds)

(* ---------- fixture programs ---------- *)

(* Serial accumulation: exercises the rotated const-step loop, register
   promotion, span ranges. *)
let serial_prog =
  B.program
    ~arrays:[ B.array "W" [ 6; 6 ] ]
    [
      B.doall "i" (B.int 1) (B.int 6)
        [
          B.doall "j" (B.int 1) (B.int 6)
            [
              B.for_ "k" (B.int 1) (B.int 4)
                [
                  B.store "W"
                    [ B.var "i"; B.var "j" ]
                    B.(load "W" [ var "i"; var "j" ] + var "k");
                ];
            ];
        ];
    ]

(* Two accesses varying along the strip index with distinct offsets. *)
let stream_prog =
  B.program
    ~arrays:[ B.array "W" [ 6; 6 ]; B.array "V" [ 6 ] ]
    [
      B.doall "i" (B.int 1) (B.int 6)
        [
          B.doall "j" (B.int 1) (B.int 6)
            [
              B.store "W"
                [ B.var "i"; B.var "j" ]
                B.(load "W" [ var "i"; var "j" ] + load "V" [ var "j" ]);
            ];
        ];
    ]

(* ---------- mutations: each rejected with its stable code ---------- *)

(* Retarget the serial loop's index initialization at the loop's bound
   register: the index register is then read (back edge, subscripts)
   with no definition on any path. *)
let kill_loop_init (t : Bytecode.tape) =
  let ops = t.Bytecode.tp_ops in
  match
    Array.find_map
      (function Bytecode.Iloopc (r, _, bnd, _) -> Some (r, bnd) | _ -> None)
      ops
  with
  | None -> Alcotest.fail "fixture has no const-step serial loop"
  | Some (r, bnd) ->
      let found = ref false in
      Array.iteri
        (fun i op ->
          if not !found then
            match op with
            | Bytecode.Iaff (d, a) when d = r ->
                ops.(i) <- Bytecode.Iaff (bnd, a);
                found := true
            | Bytecode.Iconst (d, n) when d = r ->
                ops.(i) <- Bytecode.Iconst (bnd, n);
                found := true
            | _ -> ())
        ops;
      if not !found then Alcotest.fail "no loop-index initialization found"

let test_undefined_read () =
  check_code "killed loop init" "LC010"
    (findings ~mutate:("lower", kill_loop_init) serial_prog)

(* Aim a store's float operand into the int register file (any index far
   past the float file): the per-opcode type discipline is violated. *)
let cross_file_operand (t : Bytecode.tape) =
  let ops = t.Bytecode.tp_ops in
  match
    Array.find_map
      (fun i ->
        match ops.(i) with Bytecode.Fstore _ -> Some i | _ -> None)
      (Array.init (Array.length ops) Fun.id)
  with
  | None -> Alcotest.fail "fixture has no store"
  | Some i ->
      (match ops.(i) with
      | Bytecode.Fstore (src, id) ->
          ops.(i) <- Bytecode.Fstore (src + 1_000_000, id)
      | _ -> assert false)

let test_cross_file_operand () =
  check_code "float operand out of its file" "LC011"
    (findings ~mutate:("lower", cross_file_operand) stream_prog)

(* Shrink a stored subscript range to a single point: the once-per-fork
   check no longer covers the offsets the instruction stream derives. *)
let shrink_range (t : Bytecode.tape) =
  if Array.length t.Bytecode.tp_accs = 0 then
    Alcotest.fail "fixture has no accesses"
  else begin
    let a = t.Bytecode.tp_accs.(0) in
    if Array.length a.Bytecode.ac_rngs = 0 then
      Alcotest.fail "access has no subscripts"
    else a.Bytecode.ac_rngs.(0) <- Bytecode.Rconst 1
  end

let test_offset_outside_range () =
  check_code "narrowed stored range" "LC012"
    (findings ~mutate:("lower", shrink_range) stream_prog)

(* Point an instruction's provenance tag past the tag table. *)
let break_provenance (t : Bytecode.tape) =
  if Array.length t.Bytecode.tp_src = 0 then
    Alcotest.fail "fixture has an empty body"
  else t.Bytecode.tp_src.(0) <- 424_242

let test_missing_provenance () =
  check_code "provenance tag out of table" "LC013"
    (findings ~mutate:("lower", break_provenance) stream_prog)

(* Retarget a store at another array's access: the optimized tape's
   write footprint no longer matches the unoptimized tape's. *)
let retarget_store (t : Bytecode.tape) =
  let ops = t.Bytecode.tp_ops in
  let accs = t.Bytecode.tp_accs in
  let other id =
    let slot = accs.(id).Bytecode.ac_slot in
    let r = ref None in
    Array.iteri
      (fun id' a ->
        if !r = None && a.Bytecode.ac_slot <> slot then r := Some id')
      accs;
    !r
  in
  let found = ref false in
  Array.iteri
    (fun i op ->
      if not !found then
        match op with
        | Bytecode.Fstore (src, id) -> (
            match other id with
            | Some id' ->
                ops.(i) <- Bytecode.Fstore (src, id');
                found := true
            | None -> ())
        | _ -> ())
    ops;
  if not !found then Alcotest.fail "no store retargetable to another array"

let test_footprint_divergence () =
  check_code "store retargeted across arrays" "LC014"
    (findings ~opt_level:2 ~mutate:("fuse", retarget_store) stream_prog)

(* ---------- no false positives: the clean corpus ---------- *)

let assert_clean what prog =
  List.iter
    (fun opt_level ->
      List.iter
        (fun sanitize ->
          let ds = findings ~sanitize ~opt_level prog in
          if ds <> [] then
            Alcotest.failf "%s -O%d%s: [%s]" what opt_level
              (if sanitize then " sanitized" else "")
              (show ds))
        [ false; true ])
    [ 0; 2 ]

let test_examples_clean () =
  let dir = "../examples/programs" in
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".loop" then
        match Driver.load_file (Filename.concat dir f) with
        | Error m -> Alcotest.failf "%s: %s" f m
        | Ok p -> assert_clean f p)
    (Sys.readdir dir)

let test_kernels_clean () =
  List.iter
    (fun name ->
      match Kernels.by_name name with
      | None -> ()
      | Some mk -> assert_clean ("kernel " ^ name) (mk ()))
    Kernels.all_names

let prop_clean gen ~name =
  Gen.to_alcotest
    (QCheck.Test.make ~count:8 ~name
       (QCheck.make ~print:Pretty.program_to_string gen)
       (fun prog ->
         List.for_all
           (fun opt_level ->
             List.for_all
               (fun sanitize -> findings ~sanitize ~opt_level prog = [])
               [ false; true ])
           [ 0; 2 ]))

(* ---------- metrics ---------- *)

let test_metrics_recorded () =
  let ns = Registry.histogram "tapecheck.ns" in
  let total = Registry.counter "tapecheck.findings" in
  let runs0 = (Registry.hstats ns).Registry.count in
  let found0 = Registry.value total in
  let ds = findings ~mutate:("lower", break_provenance) stream_prog in
  Alcotest.(check bool) "timer observed every check" true
    ((Registry.hstats ns).Registry.count > runs0);
  Alcotest.(check bool) "findings counter advanced by the report" true
    (Registry.value total >= found0 + List.length ds)

(* ---------- plan cache: disk hits are validated ---------- *)

let test_disk_hit_validated () =
  Test_plancache.with_temp_dir (fun dir ->
      Registry.reset ();
      let reject0 = Registry.value (Registry.counter "plan_cache.reject") in
      let c1 =
        Compile.compile ~cache:(Plancache.create ~dir ()) Test_plancache.prog
      in
      Alcotest.(check (pair int int))
        "cold compile misses" (0, 1)
        (Test_plancache.stats ());
      (* Corrupt the stored tapes' provenance in place, keeping the
         files loadable: deserialization succeeds, validation must
         not. *)
      Array.iter
        (fun f ->
          if Filename.check_suffix f ".plan" then begin
            let path = Filename.concat dir f in
            let ic = open_in_bin path in
            let v, (e : Plancache.entry) =
              (input_value ic : int * Plancache.entry)
            in
            close_in ic;
            List.iter
              (fun ((t : Bytecode.tape), _, _) ->
                if Array.length t.Bytecode.tp_src > 0 then
                  t.Bytecode.tp_src.(0) <- 424_242)
              e.Plancache.e_plans;
            let oc = open_out_bin path in
            output_value oc (v, e);
            close_out oc
          end)
        (Sys.readdir dir);
      let c2 =
        Compile.compile ~cache:(Plancache.create ~dir ()) Test_plancache.prog
      in
      Alcotest.(check (pair int int))
        "rejected disk entry recompiles as a miss" (0, 2)
        (Test_plancache.stats ());
      Alcotest.(check bool) "rejection counted" true
        (Registry.value (Registry.counter "plan_cache.reject") > reject0);
      Alcotest.(check bool) "recompile reproduces the cold tapes" true
        (Test_plancache.tapes c1 = Test_plancache.tapes c2);
      (* The recompile overwrote the corrupt file: a third instance
         hits from disk again, now clean. *)
      let (_ : Compile.t) =
        Compile.compile ~cache:(Plancache.create ~dir ()) Test_plancache.prog
      in
      Alcotest.(check (pair int int))
        "overwritten entry hits" (1, 2)
        (Test_plancache.stats ()))

(* A profiler counter must bump a fresh scratch slot: one aimed past
   the scratch array or at an access's hoisted offset would write out
   of bounds or corrupt an unchecked access's offset. *)
let test_icount_slot () =
  let c = Compile.compile ~opt_level:2 stream_prog in
  let t =
    match Compile.plans c with
    | p :: _ -> p.Compile.tape
    | [] -> Alcotest.fail "fixture has no plan"
  in
  let copy =
    Runtime.Profile.instrumented
      (Runtime.Profile.bind (Runtime.Profile.create ()) t)
  in
  Alcotest.(check int) "counting copy validates" 0
    (List.length (Runtime.Tapecheck.check_entry ~region:0 copy));
  let nslots =
    Array.length copy.Bytecode.tp_accs + copy.Bytecode.tp_ncounters
  in
  List.iter
    (fun (what, slot) ->
      let ops = Array.copy copy.Bytecode.tp_ops in
      let i =
        Option.get
          (Array.find_index
             (function Bytecode.Icount _ -> true | _ -> false)
             ops)
      in
      ops.(i) <- Bytecode.Icount slot;
      check_code what "LC011"
        (Runtime.Tapecheck.check_entry ~region:0
           { copy with Bytecode.tp_ops = ops }))
    [
      ("counter past the scratch array", nslots);
      ("counter on an access offset", 0);
    ]

(* Only top-level code forks: a plan tape holding an [Ifork], whether
   a pass produced it or a disk entry carried it, is rejected. *)
let test_fork_in_plan_tape () =
  let fork_first (t : Bytecode.tape) =
    t.Bytecode.tp_ops.(0) <- Bytecode.Ifork 0
  in
  check_code "fork after lowering" "LC011"
    (findings ~mutate:("lower", fork_first) stream_prog);
  let c = Compile.compile ~opt_level:2 stream_prog in
  let t =
    match Compile.plans c with
    | p :: _ -> p.Compile.tape
    | [] -> Alcotest.fail "fixture has no plan"
  in
  Alcotest.(check int) "plan tape validates" 0
    (List.length (Runtime.Tapecheck.check_entry ~region:0 t));
  let ops = Array.copy t.Bytecode.tp_ops in
  ops.(Array.length ops - 1) <- Bytecode.Ifork 0;
  check_code "fork in a cached plan tape" "LC011"
    (Runtime.Tapecheck.check_entry ~region:0
       { t with Bytecode.tp_ops = ops })

let suite =
  [
    Alcotest.test_case "undefined register read -> LC010" `Quick
      test_undefined_read;
    Alcotest.test_case "operand outside its register file -> LC011" `Quick
      test_cross_file_operand;
    Alcotest.test_case "offset outside checked range -> LC012" `Quick
      test_offset_outside_range;
    Alcotest.test_case "missing provenance tag -> LC013" `Quick
      test_missing_provenance;
    Alcotest.test_case "footprint divergence -> LC014" `Quick
      test_footprint_divergence;
    Alcotest.test_case "counter off its scratch range -> LC011" `Quick
      test_icount_slot;
    Alcotest.test_case "fork in a plan tape -> LC011" `Quick
      test_fork_in_plan_tape;
    Alcotest.test_case "example programs validate clean" `Quick
      test_examples_clean;
    Alcotest.test_case "built-in kernels validate clean" `Quick
      test_kernels_clean;
    prop_clean Test_bytecode.serial_accum_gen
      ~name:"random serial-accumulation nests validate clean";
    prop_clean Test_bytecode.branchy_varstep_gen
      ~name:"random branchy variable-step nests validate clean";
    Alcotest.test_case "tapecheck metrics recorded" `Quick
      test_metrics_recorded;
    Alcotest.test_case "invalid disk cache entry is a rejected miss" `Quick
      test_disk_hit_validated;
  ]
