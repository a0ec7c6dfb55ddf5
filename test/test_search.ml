(* Transformation-search tests.

   The invariants that make search safe to leave on:
   - recipe strings round-trip exactly (they are the plan-cache replay
     format);
   - the winner's program computes bit-identical results to the input
     across engines and domain counts (searched plans never change
     observable behaviour; FP-reassociating candidates only exist
     behind the opt-in flag);
   - the identity recipe always survives, so search never picks
     something its own model considers worse than doing nothing;
   - verifier-pruned candidates are counted and carry a reason. *)

open Loopcoal
module Exec = Runtime.Exec
module Search = Loopcoal_transform.Search
module Recipe = Loopcoal_transform.Recipe

let ctx = Search.default_ctx ~p:4 ()

(* ---------- recipe round-trip ---------- *)

let some_recipes : (string * Recipe.t) list =
  [
    ("id", []);
    ("hoist", [ Recipe.Hoist ]);
    ("interchange", [ Recipe.Interchange ]);
    ("distribute", [ Recipe.Distribute ]);
    ("fuse", [ Recipe.Fuse ]);
    ("tile(8)", [ Recipe.Tile (8, 8) ]);
    ("chunked(64)", [ Recipe.Chunked 64 ]);
    ("coalesce(ceiling)", [ Recipe.Coalesce Index_recovery.Ceiling ]);
    ("coalesce(divmod)", [ Recipe.Coalesce Index_recovery.Div_mod ]);
    ( "preduce(c,pi_val,4)",
      [ Recipe.Preduce { pr_index = "c"; pr_scalar = "pi_val"; pr_procs = 4 } ]
    );
    ("normalize", [ Recipe.Normalize ]);
    ("infer", [ Recipe.Infer ]);
    ("shrink", [ Recipe.Shrink ]);
    ("unroll(4)", [ Recipe.Unroll 4 ]);
    ("peel(2)", [ Recipe.Peel { count = 2; from_end = false } ]);
    ("peel(3,end)", [ Recipe.Peel { count = 3; from_end = true } ]);
    ("tile(4,16)", [ Recipe.Tile (4, 16) ]);
    ( "normalize+distribute+infer+hoist+coalesce(ceiling)+shrink",
      [
        Recipe.Normalize;
        Recipe.Distribute;
        Recipe.Infer;
        Recipe.Hoist;
        Recipe.Coalesce Index_recovery.Ceiling;
        Recipe.Shrink;
      ] );
    ( "distribute+interchange+tile(4)",
      [ Recipe.Distribute; Recipe.Interchange; Recipe.Tile (4, 4) ] );
  ]

let test_recipe_round_trip () =
  List.iter
    (fun (s, r) ->
      Alcotest.(check string) ("to_string " ^ s) s (Recipe.to_string r);
      match Recipe.of_string s with
      | Ok r' ->
          Alcotest.(check bool) ("of_string " ^ s) true (r = r')
      | Error m -> Alcotest.failf "of_string %S failed: %s" s m)
    some_recipes

let test_recipe_rejects_garbage () =
  List.iter
    (fun s ->
      match Recipe.of_string s with
      | Ok _ -> Alcotest.failf "recipe %S should not parse" s
      | Error _ -> ())
    [
      "";
      "frobnicate";
      "tile()";
      "tile(0)";
      "tile(-3)";
      "tile(x)";
      "chunked(1.5)";
      "coalesce(odometer)";
      (* incremental recovery is chunk-local code, not a loop rewrite *)
      "coalesce(incremental)";
      "unroll()";
      "unroll(0)";
      "peel(2,start)";
      "peel(2,end,end)";
      "tile(4,0)";
      "tile(1,2,3)";
      "normalize(1)";
      "shrink()";
      "preduce(c,pi_val)";
      "preduce(1c,pi,4)";
      "hoist+";
      "id+hoist";
    ]

let atom_pool =
  [
    Recipe.Normalize;
    Recipe.Infer;
    Recipe.Shrink;
    Recipe.Unroll 2;
    Recipe.Unroll 8;
    Recipe.Peel { count = 1; from_end = false };
    Recipe.Peel { count = 3; from_end = true };
    Recipe.Tile (8, 8);
    Recipe.Tile (4, 16);
    Recipe.Hoist;
    Recipe.Interchange;
    Recipe.Distribute;
    Recipe.Fuse;
    Recipe.Tile (4, 4);
    Recipe.Tile (32, 32);
    Recipe.Chunked 16;
    Recipe.Coalesce Index_recovery.Ceiling;
    Recipe.Coalesce Index_recovery.Div_mod;
    Recipe.Preduce { pr_index = "i"; pr_scalar = "s_1"; pr_procs = 8 };
  ]

let prop_recipe_round_trip =
  QCheck.Test.make ~count:200 ~name:"Recipe.of_string (to_string r) = r"
    QCheck.(
      list_of_size (Gen.int_range 0 5)
        (int_range 0 (List.length atom_pool - 1)))
    (fun idxs ->
      let r = List.map (List.nth atom_pool) idxs in
      match Recipe.of_string (Recipe.to_string r) with
      | Ok r' -> r = r'
      | Error _ -> false)

(* Every recipe [of_string] accepts must apply without raising: a
   cached recipe is replayed unconditionally, so an exception there
   kills [loopc run --search] instead of falling back to a search. *)
let example_programs =
  lazy
    (let dir = "../examples/programs" in
     Sys.readdir dir |> Array.to_list
     |> List.filter (fun f -> Filename.check_suffix f ".loop")
     |> List.sort compare
     |> List.map (fun f ->
            match Driver.load_file (Filename.concat dir f) with
            | Ok p -> (f, p)
            | Error m -> failwith (f ^ ": " ^ m)))

let atom_strings =
  List.map (fun a -> Recipe.to_string [ a ]) atom_pool
  @ [
      "coalesce(incremental)";
      "unroll(1)";
      "peel(1000)";
      "tile(1)";
      "chunked(1)";
      "preduce(i,s,4)";
      "preduce(zz,s,2)";
      "frobnicate";
    ]

let prop_apply_never_raises =
  QCheck.Test.make ~count:100
    ~name:"Recipe.apply never raises on an accepted recipe"
    QCheck.(
      list_of_size (Gen.int_range 1 4) (oneofl ~print:Fun.id atom_strings))
    (fun parts ->
      match Recipe.of_string (String.concat "+" parts) with
      | Error _ -> true
      | Ok r ->
          List.for_all
            (fun (f, p) ->
              match Recipe.apply r p with
              | Ok _ | Error _ -> true
              | exception e ->
                  QCheck.Test.fail_reportf "%s on %s raised %s"
                    (Recipe.to_string r) f (Printexc.to_string e))
            (Lazy.force example_programs))

(* ---------- search basics ---------- *)

let test_identity_always_survives () =
  List.iter
    (fun name ->
      let p = Option.get (Kernels.by_name name) () in
      let rp = Search.run ~budget:16 ~label:name ~ctx p in
      let id_status =
        List.find_map
          (fun (c : Search.candidate) ->
            if Recipe.is_identity c.Search.cd_recipe then
              Some c.Search.cd_status
            else None)
          rp.Search.rp_candidates
      in
      match id_status with
      | Some (Search.Winner | Search.Scored) -> ()
      | Some _ -> Alcotest.failf "%s: identity was pruned" name
      | None -> Alcotest.failf "%s: identity not considered" name)
    Kernels.all_names

let test_budget_respected () =
  let p = Kernels.matmul ~ra:6 ~ca:5 ~cb:4 in
  List.iter
    (fun budget ->
      let rp = Search.run ~budget ~ctx p in
      Alcotest.(check bool)
        (Printf.sprintf "budget %d respected" budget)
        true
        (rp.Search.rp_considered <= max 1 budget
        && rp.Search.rp_considered >= 1))
    [ -3; 0; 1; 3; 16; 100 ]

let test_winner_never_worse_than_identity () =
  List.iter
    (fun name ->
      let p = Option.get (Kernels.by_name name) () in
      let rp = Search.run ~budget:16 ~label:name ~ctx p in
      let pred r =
        List.find_map
          (fun (c : Search.candidate) ->
            if c.Search.cd_recipe = r then c.Search.cd_predicted_ns else None)
          rp.Search.rp_candidates
      in
      match (pred rp.Search.rp_winner, pred Recipe.identity) with
      | Some w, Some id ->
          Alcotest.(check bool)
            (name ^ ": winner <= identity under the model")
            true (w <= id)
      | _ -> Alcotest.failf "%s: missing predictions" name)
    Kernels.all_names

let test_relax_search_finds_hoist () =
  let p = Kernels.relax ~n:24 ~steps:12 in
  let rp = Search.run ~budget:16 ~label:"relax" ~ctx p in
  Alcotest.(check bool) "relax winner is not identity" false
    (Recipe.is_identity rp.Search.rp_winner)

let test_pi_preduce_needs_opt_in () =
  let p = Kernels.calculate_pi ~intervals:1000 in
  let has_preduce rp =
    List.exists
      (fun (c : Search.candidate) ->
        List.exists
          (function Recipe.Preduce _ -> true | _ -> false)
          c.Search.cd_recipe)
      rp.Search.rp_candidates
  in
  let off = Search.run ~budget:20 ~ctx p in
  Alcotest.(check bool) "no preduce candidate without fp_reassoc" false
    (has_preduce off);
  let on = Search.run ~budget:20 ~fp_reassoc:true ~ctx p in
  Alcotest.(check bool) "preduce candidate with fp_reassoc" true
    (has_preduce on);
  Alcotest.(check bool) "pi winner reassociates the reduction" true
    (List.exists
       (function Recipe.Preduce _ -> true | _ -> false)
       on.Search.rp_winner)

let test_pruned_candidates_counted_with_reason () =
  let p = Kernels.matmul ~ra:8 ~ca:6 ~cb:7 in
  let rp = Search.run ~budget:20 ~ctx p in
  let pruned =
    List.filter
      (fun (c : Search.candidate) ->
        match c.Search.cd_status with Search.Pruned _ -> true | _ -> false)
      rp.Search.rp_candidates
  in
  Alcotest.(check int) "rp_pruned matches statuses"
    (List.length pruned) rp.Search.rp_pruned;
  List.iter
    (fun (c : Search.candidate) ->
      match c.Search.cd_status with
      | Search.Pruned why ->
          Alcotest.(check bool)
            (Recipe.to_string c.Search.cd_recipe ^ ": reason non-empty")
            true
            (String.length why > 0)
      | _ -> ())
    pruned

let test_search_metrics_flow () =
  let before = Registry.value (Registry.counter "search.candidates") in
  let p = Kernels.stencil ~n:10 in
  let rp = Search.run ~budget:8 ~ctx p in
  let after = Registry.value (Registry.counter "search.candidates") in
  Alcotest.(check int) "search.candidates counts considered"
    rp.Search.rp_considered (after - before);
  Alcotest.(check bool) "search.win_ns observed" true
    ((Registry.hstats (Registry.histogram "search.win_ns")).Registry.count > 0)

(* ---------- the winner changes no observable result ---------- *)

let differential_kernels =
  [ "matmul"; "stencil"; "transpose"; "relax"; "gauss_jordan"; "swap" ]

let test_searched_results_bit_identical () =
  List.iter
    (fun name ->
      let p = Option.get (Kernels.by_name name) () in
      let rp = Search.run ~budget:16 ~label:name ~ctx p in
      (* interpreter-level equivalence of the winning program *)
      (match Pipeline.observably_equal ~reference:p rp.Search.rp_program with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: searched program differs: %s" name m);
      (* at every domain count: original and searched agree bit for bit *)
      List.iter
        (fun domains ->
          let a = Exec.run ~domains p in
          let b = Exec.run ~domains rp.Search.rp_program in
          if a.Exec.arrays <> b.Exec.arrays then
            Alcotest.failf "%s: arrays differ (%d domains)" name domains;
          (* searched programs may introduce temporaries; the original
             program's scalars must be unchanged *)
          List.iter
            (fun (s : Ast.scalar_decl) ->
              let v o = List.assoc_opt s.Ast.sc_name o.Exec.scalars in
              if v a <> v b then
                Alcotest.failf "%s: scalar %s differs (%d domains)" name
                  s.Ast.sc_name domains)
            p.Ast.scalars)
        [ 1; 2; 4 ])
    differential_kernels

let test_pi_preduce_close_to_reference () =
  let intervals = 1000 in
  let p = Kernels.calculate_pi ~intervals in
  let rp = Search.run ~budget:20 ~fp_reassoc:true ~ctx p in
  let out = Exec.run ~domains:4 rp.Search.rp_program in
  match List.assoc "pi_val" out.Exec.scalars with
  | Eval.Vreal got ->
      let want = Kernels.calculate_pi_reference ~intervals in
      Alcotest.(check bool) "pi within reassociation tolerance" true
        (Float.abs (got -. want) < 1e-9)
  | _ -> Alcotest.fail "pi_val is not a real"

(* ---------- measure mode ---------- *)

let test_measure_mode_picks_measured_winner () =
  let p = Kernels.relax ~n:24 ~steps:12 in
  (* a fake measurement that inverts the model's preference: identity is
     "fastest", so measure mode must return identity *)
  let measure p' = if p' = p then 1.0 else 1e9 in
  let rp =
    Search.run ~budget:16 ~mode:(Search.Measure 3) ~measure ~ctx p
  in
  Alcotest.(check bool) "measured winner is identity" true
    (Recipe.is_identity rp.Search.rp_winner);
  (* finalists carry measured medians *)
  Alcotest.(check bool) "identity has a measured time" true
    (List.exists
       (fun (c : Search.candidate) ->
         Recipe.is_identity c.Search.cd_recipe
         && c.Search.cd_measured_ns <> None)
       rp.Search.rp_candidates)

(* ---------- calibration profile ---------- *)

let test_first_region_profile () =
  match Search.first_region_profile (Kernels.matmul ~ra:8 ~ca:6 ~cb:7) with
  | Some (n, ops) ->
      Alcotest.(check int) "first region is the 8x6 init nest" 48 n;
      Alcotest.(check bool) "per-iteration ops positive" true (ops > 0.0)
  | None -> Alcotest.fail "matmul has a parallel region"

let test_first_region_profile_serial_program () =
  Alcotest.(check bool) "pi has no parallel region" true
    (Search.first_region_profile (Kernels.calculate_pi ~intervals:100) = None)

(* ---------- explain renderers ---------- *)

let test_explain_renders () =
  let p = Kernels.matmul ~ra:8 ~ca:6 ~cb:7 in
  let rp = Search.run ~budget:20 ~label:"matmul" ~ctx p in
  let text = Search.explain_to_string rp in
  let has needle s =
    let nl = String.length needle and sl = String.length s in
    let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "header names the program" true
    (has "search(matmul): budget=20 mode=model p=4 policy=static-block" text);
  Alcotest.(check bool) "identity row present" true (has "\n  id " text);
  Alcotest.(check bool) "winner line present" true (has "winner=" text);
  List.iter
    (fun (c : Search.candidate) ->
      Alcotest.(check bool)
        (Recipe.to_string c.Search.cd_recipe ^ " row present")
        true
        (has (Recipe.to_string c.Search.cd_recipe) text))
    rp.Search.rp_candidates

(* ---------- warm-cache recipe replay ---------- *)

let with_temp_cache_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "loopc_search_test_%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Fun.protect
    ~finally:(fun () ->
      (try
         Array.iter
           (fun name -> try Sys.remove (Filename.concat dir name) with _ -> ())
           (Sys.readdir dir)
       with _ -> ());
      try Unix.rmdir dir with _ -> ())
    (fun () -> f dir)

let test_warm_cache_recipe_replay () =
  with_temp_cache_dir @@ fun dir ->
  let p = Kernels.relax ~n:24 ~steps:12 in
  let key =
    Runtime.Plancache.key ~sanitize:false ~opt_level:2 ~salt:"search:bytecode" p
  in
  (* cold run: search, record the winner — what [loopc run --search] does *)
  let rp = Search.run ~budget:16 ~label:"relax" ~ctx p in
  Alcotest.(check bool) "relax winner is not the identity" false
    (Recipe.is_identity rp.Search.rp_winner);
  let cold = Runtime.Plancache.create ~dir () in
  Runtime.Plancache.store_recipe cold key (Recipe.to_string rp.Search.rp_winner);
  (* warm run: a fresh cache instance (fresh process) replays the recipe
     from disk with zero enumeration — the candidates counter must not
     move on this path *)
  let candidates = Registry.counter "search.candidates" in
  let before = Registry.value candidates in
  let warm = Runtime.Plancache.create ~dir () in
  (match Runtime.Plancache.find_recipe warm key with
  | None -> Alcotest.fail "warm cache missed the stored recipe"
  | Some s -> (
      match Recipe.of_string s with
      | Error m -> Alcotest.failf "stored recipe unparsable: %s" m
      | Ok r -> (
          match Recipe.apply r p with
          | Error m -> Alcotest.failf "stored recipe failed to replay: %s" m
          | Ok p' ->
              Alcotest.(check bool) "replayed program = searched program" true
                (p' = rp.Search.rp_program);
              let a = Exec.run ~domains:2 p
              and b = Exec.run ~domains:2 p' in
              Alcotest.(check bool) "replayed results bit-identical" true
                (a.Exec.arrays = b.Exec.arrays))));
  Alcotest.(check int) "no enumeration on the warm path" before
    (Registry.value candidates)

(* A stored recipe this build no longer accepts is a cache miss: the
   run searches again, stores its winner over the bad string and exits
   0. *)
let test_bad_cached_recipe_falls_back () =
  let loopc = "../bin/loopc.exe" in
  if not (Sys.file_exists loopc) then Alcotest.skip ();
  with_temp_cache_dir @@ fun dir ->
  let run () =
    Sys.command
      (Printf.sprintf
         "XDG_CACHE_HOME=%s %s run --engine bytecode --search \
          ../examples/programs/matmul.loop >/dev/null"
         (Filename.quote dir) loopc)
  in
  let recipes () =
    let cache = Filename.concat dir "loopc" in
    Sys.readdir cache |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".recipe")
    |> List.map (Filename.concat cache)
  in
  let read f = String.trim (In_channel.with_open_bin f In_channel.input_all) in
  Fun.protect
    ~finally:(fun () ->
      ignore
        (Sys.command
           ("rm -rf " ^ Filename.quote (Filename.concat dir "loopc"))))
    (fun () ->
      Alcotest.(check int) "cold run" 0 (run ());
      let files = recipes () in
      Alcotest.(check int) "one stored recipe" 1 (List.length files);
      List.iter
        (fun f ->
          Out_channel.with_open_bin f (fun oc ->
              output_string oc "coalesce(incremental)\n"))
        files;
      Alcotest.(check int) "run over the bad recipe" 0 (run ());
      List.iter
        (fun f ->
          let r = read f in
          Alcotest.(check bool)
            (Printf.sprintf "re-searched winner %S stored" r)
            true
            (Result.is_ok (Recipe.of_string r)))
        files)

let suite =
  [
    Alcotest.test_case "recipe strings round-trip" `Quick
      test_recipe_round_trip;
    Alcotest.test_case "recipe parser rejects garbage" `Quick
      test_recipe_rejects_garbage;
    Gen.to_alcotest prop_recipe_round_trip;
    Gen.to_alcotest prop_apply_never_raises;
    Alcotest.test_case "identity always survives" `Quick
      test_identity_always_survives;
    Alcotest.test_case "budget respected" `Quick test_budget_respected;
    Alcotest.test_case "winner never worse than identity (model)" `Quick
      test_winner_never_worse_than_identity;
    Alcotest.test_case "relax: search finds a non-identity win" `Quick
      test_relax_search_finds_hoist;
    Alcotest.test_case "pi: preduce only behind fp-reassoc opt-in" `Quick
      test_pi_preduce_needs_opt_in;
    Alcotest.test_case "pruned candidates counted with reasons" `Quick
      test_pruned_candidates_counted_with_reason;
    Alcotest.test_case "search metrics flow" `Quick test_search_metrics_flow;
    Alcotest.test_case "searched results bit-identical (engines x domains)"
      `Quick test_searched_results_bit_identical;
    Alcotest.test_case "pi preduce close to reference" `Quick
      test_pi_preduce_close_to_reference;
    Alcotest.test_case "measure mode picks measured winner" `Quick
      test_measure_mode_picks_measured_winner;
    Alcotest.test_case "first_region_profile" `Quick test_first_region_profile;
    Alcotest.test_case "first_region_profile on serial program" `Quick
      test_first_region_profile_serial_program;
    Alcotest.test_case "explain renderers" `Quick test_explain_renders;
    Alcotest.test_case "warm-cache recipe replay" `Quick
      test_warm_cache_recipe_replay;
    Alcotest.test_case "bad cached recipe falls back to search" `Quick
      test_bad_cached_recipe_falls_back;
  ]
