(* Plan cache: hit/miss accounting, key discrimination (sanitize flag,
   optimizer level, engine salt), the no-cache bypass, and the on-disk
   layer including corrupt-file tolerance.

   The invariant under test: a cache hit must be indistinguishable from
   a cold compile — same plan tapes, same register numbering, same
   results — while a sanitized compile must never see an unsanitized
   tape (and vice versa). *)

open Loopcoal
module Compile = Runtime.Compile
module Exec = Runtime.Exec
module Plancache = Runtime.Plancache
module Bytecode = Runtime.Bytecode
module B = Builder

let prog =
  B.program
    ~arrays:[ B.array "W" [ 6; 6 ] ]
    [
      B.doall "i" (B.int 1) (B.int 6)
        [
          B.doall "j" (B.int 1) (B.int 6)
            [
              B.store "W"
                [ B.var "i"; B.var "j" ]
                B.(load "W" [ var "i"; var "j" ] + var "i" + var "j");
            ];
        ];
    ]

let other_prog =
  B.program
    ~arrays:[ B.array "V" [ 9 ] ]
    [ B.doall "q" (B.int 1) (B.int 9) [ B.store "V" [ B.var "q" ] (B.var "q") ] ]

let stats () =
  ( Registry.value (Registry.counter "plan_cache.hit"),
    Registry.value (Registry.counter "plan_cache.miss") )

let check_stats what (h, m) =
  Alcotest.(check (pair int int)) what (h, m) (stats ())

let tapes compiled =
  List.map (fun (p : Compile.plan) -> p.Compile.tape) (Compile.plans compiled)

let test_hit_miss_counters () =
  Registry.reset ();
  let cache = Plancache.create () in
  let c1 = Compile.compile ~cache prog in
  check_stats "first compile misses" (0, 1);
  let c2 = Compile.compile ~cache prog in
  check_stats "second compile hits" (1, 1);
  let _ = Compile.compile ~cache other_prog in
  check_stats "different program misses" (1, 2);
  (* A hit replays the cold compile exactly: same tapes, same results. *)
  Alcotest.(check bool) "hit replays identical tapes" true
    (tapes c1 = tapes c2);
  let o1 = Exec.run_compiled ~domains:2 c1 in
  let o2 = Exec.run_compiled ~domains:2 c2 in
  Alcotest.(check bool) "hit runs identically" true
    (o1.Exec.arrays = o2.Exec.arrays && o1.Exec.scalars = o2.Exec.scalars)

let test_key_discrimination () =
  Registry.reset ();
  let cache = Plancache.create () in
  let _ = Compile.compile ~cache prog in
  (* Sanitized compile after an unsanitized one must miss, and its tapes
     must carry the instrumentation flag. *)
  let cs = Compile.compile ~cache ~sanitize:true prog in
  check_stats "sanitize changes the key" (0, 2);
  List.iter
    (fun t ->
      Alcotest.(check bool) "cached-path tape is sanitized" true
        (Bytecode.sanitized t))
    (tapes cs);
  (* ... and re-compiling each flavor now hits its own entry. *)
  let cs2 = Compile.compile ~cache ~sanitize:true prog in
  let cu = Compile.compile ~cache prog in
  check_stats "each flavor has its own entry" (2, 2);
  Alcotest.(check bool) "sanitized hit stays sanitized" true
    (tapes cs = tapes cs2);
  List.iter
    (fun t ->
      Alcotest.(check bool) "unsanitized hit stays unsanitized" false
        (Bytecode.sanitized t))
    (tapes cu);
  (* Opt level and engine salt are part of the key too. *)
  let _ = Compile.compile ~cache ~opt_level:0 prog in
  check_stats "opt level changes the key" (2, 3);
  let _ = Compile.compile ~cache ~cache_salt:"native" prog in
  check_stats "engine salt changes the key" (2, 4)

let test_no_cache_bypass () =
  Registry.reset ();
  let c1 = Compile.compile prog in
  let c2 = Compile.compile prog in
  check_stats "no cache, no counter traffic" (0, 0);
  Alcotest.(check bool) "uncached compiles still agree" true
    (tapes c1 = tapes c2)

let with_temp_dir f =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "loopc-plancache-%d" (Random.bits ()))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists d then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat d f))
          (Sys.readdir d);
        Sys.rmdir d
      end)
    (fun () -> f d)

let test_disk_persistence () =
  with_temp_dir (fun dir ->
      Registry.reset ();
      let c1 = Compile.compile ~cache:(Plancache.create ~dir ()) prog in
      check_stats "cold disk cache misses" (0, 1);
      Alcotest.(check bool) "one entry written" true
        (Sys.readdir dir |> Array.exists (fun f -> Filename.check_suffix f ".plan"));
      (* A fresh cache instance — a new process, effectively — finds the
         entry on disk and replays it. *)
      let c2 = Compile.compile ~cache:(Plancache.create ~dir ()) prog in
      check_stats "fresh instance hits from disk" (1, 1);
      Alcotest.(check bool) "disk hit replays identical tapes" true
        (tapes c1 = tapes c2);
      (* Corrupt every entry: the next fresh instance must fall back to
         a miss and recompile, not crash. *)
      Array.iter
        (fun f ->
          if Filename.check_suffix f ".plan" then begin
            let oc = open_out_bin (Filename.concat dir f) in
            output_string oc "not a marshaled plan";
            close_out oc
          end)
        (Sys.readdir dir);
      let c3 = Compile.compile ~cache:(Plancache.create ~dir ()) prog in
      check_stats "corrupt entry is a miss" (1, 2);
      Alcotest.(check bool) "recompile after corruption agrees" true
        (tapes c1 = tapes c3))

(* The entry layout of format version 6, when a plan's tape was
   optional: what an older build leaves on disk. *)
type v6_entry = { v6_plans : (Bytecode.tape option * int * int) list }

(* A well-formed entry marshaled under an older format version — the
   tape layout it carries may not match the current [Bytecode.tape] —
   must be skipped as a counted miss, not deserialized or treated as an
   error. *)
let test_stale_format_is_a_miss () =
  List.iter
    (fun (what, stale) ->
      with_temp_dir (fun dir ->
          Registry.reset ();
          let evict = Registry.counter "plan_cache.evict" in
          let c1 = Compile.compile ~cache:(Plancache.create ~dir ()) prog in
          check_stats (what ^ ": cold disk cache misses") (0, 1);
          Array.iter
            (fun f ->
              if Filename.check_suffix f ".plan" then begin
                let oc = open_out_bin (Filename.concat dir f) in
                stale oc c1;
                close_out oc
              end)
            (Sys.readdir dir);
          let evicted0 = Registry.value evict in
          let c2 = Compile.compile ~cache:(Plancache.create ~dir ()) prog in
          check_stats (what ^ ": stale format version is a miss") (0, 2);
          Alcotest.(check bool) (what ^ ": stale entry counted") true
            (Registry.value evict > evicted0);
          Alcotest.(check bool) (what ^ ": recompile after format skew agrees")
            true
            (tapes c1 = tapes c2);
          let o1 = Exec.run_compiled ~domains:2 c1 in
          let o2 = Exec.run_compiled ~domains:2 c2 in
          Alcotest.(check bool) (what ^ ": recompile runs identically") true
            (o1.Exec.arrays = o2.Exec.arrays && o1.Exec.scalars = o2.Exec.scalars)))
    [
      ( "version 2, no plans",
        fun oc _ -> output_value oc (2, { Plancache.e_plans = [] }) );
      ( "version 6, tape options",
        fun oc c1 ->
          output_value oc
            (6, { v6_plans = List.map (fun t -> (Some t, 0, 0)) (tapes c1) }) );
      ( "version 8, streamed offsets",
        fun oc c1 ->
          output_value oc
            ( 8,
              {
                Plancache.e_plans = List.map (fun t -> (t, 0, 0)) (tapes c1);
              } ) );
    ]

(* ---------- winning-recipe side files ---------- *)

let test_recipe_side_files () =
  with_temp_dir (fun dir ->
      let k = Plancache.key ~sanitize:false ~opt_level:2 ~salt:"search" prog in
      let c1 = Plancache.create ~dir () in
      Alcotest.(check bool) "cold cache has no recipe" true
        (Plancache.find_recipe c1 k = None);
      Plancache.store_recipe c1 k "interchange+tile(8)";
      Alcotest.(check (option string)) "memory hit" (Some "interchange+tile(8)")
        (Plancache.find_recipe c1 k);
      Alcotest.(check bool) "side file written" true
        (Sys.readdir dir
        |> Array.exists (fun f -> Filename.check_suffix f ".recipe"));
      (* A fresh instance — a new process — replays from disk. *)
      let c2 = Plancache.create ~dir () in
      Alcotest.(check (option string)) "disk hit" (Some "interchange+tile(8)")
        (Plancache.find_recipe c2 k);
      (* Another key stays independent. *)
      let k' =
        Plancache.key ~sanitize:false ~opt_level:2 ~salt:"search" other_prog
      in
      Alcotest.(check bool) "other key misses" true
        (Plancache.find_recipe c2 k' = None);
      (* An empty/whitespace side file is a miss, not Some "". *)
      let oc = open_out (Filename.concat dir (k' ^ ".recipe")) in
      output_string oc "\n";
      close_out oc;
      Alcotest.(check bool) "blank side file is a miss" true
        (Plancache.find_recipe c2 k' = None))

(* ---------- LOOPC_CACHE_MAX_MB eviction ---------- *)

let with_cache_cap mb f =
  let old = Sys.getenv_opt "LOOPC_CACHE_MAX_MB" in
  Unix.putenv "LOOPC_CACHE_MAX_MB" mb;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "LOOPC_CACHE_MAX_MB" (Option.value old ~default:""))
    f

let evict_count () =
  Registry.value (Registry.counter "plan_cache.evict")

let test_size_cap_evicts_lru () =
  with_temp_dir (fun dir ->
      Unix.mkdir dir 0o755;
      (* Three 1 MiB decoys with staggered mtimes, oldest first. *)
      let mib = String.make (1024 * 1024) 'x' in
      let decoy i = Filename.concat dir (Printf.sprintf "decoy%d.plan" i) in
      List.iter
        (fun i ->
          let oc = open_out_bin (decoy i) in
          output_string oc mib;
          close_out oc;
          (* mtimes 30,20,10 seconds in the past: decoy 0 is the LRU *)
          let t = Unix.gettimeofday () -. float_of_int (10 * (3 - i)) in
          Unix.utimes (decoy i) t t)
        [ 0; 1; 2 ];
      (* Non-cache files are never touched by the cap. *)
      let keep = Filename.concat dir "README.txt" in
      let oc = open_out keep in
      output_string oc mib;
      close_out oc;
      with_cache_cap "2" (fun () ->
          Registry.reset ();
          Plancache.enforce_cap dir;
          Alcotest.(check bool) "oldest decoy evicted" false
            (Sys.file_exists (decoy 0));
          Alcotest.(check bool) "newer decoys survive" true
            (Sys.file_exists (decoy 1) && Sys.file_exists (decoy 2));
          Alcotest.(check bool) "non-cache file untouched" true
            (Sys.file_exists keep);
          Alcotest.(check int) "eviction counted" 1 (evict_count ());
          (* Storing through a capped cache keeps the newest entries:
             the store itself must survive its own enforcement. *)
          let k =
            Plancache.key ~sanitize:false ~opt_level:2 ~salt:"test" prog
          in
          let c = Plancache.create ~dir () in
          Plancache.store_recipe c k "hoist";
          Alcotest.(check (option string)) "fresh store survives cap"
            (Some "hoist")
            (Plancache.find_recipe (Plancache.create ~dir ()) k)))

let test_cap_unset_is_noop () =
  with_temp_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let f = Filename.concat dir "x.plan" in
      let oc = open_out_bin f in
      output_string oc (String.make 4096 'y');
      close_out oc;
      with_cache_cap "" (fun () ->
          Plancache.enforce_cap dir;
          Alcotest.(check bool) "no cap, nothing evicted" true
            (Sys.file_exists f));
      with_cache_cap "not-a-number" (fun () ->
          Plancache.enforce_cap dir;
          Alcotest.(check bool) "unparsable cap ignored" true
            (Sys.file_exists f)))

let suite =
  [
    Alcotest.test_case "hit/miss counters" `Quick test_hit_miss_counters;
    Alcotest.test_case "key discrimination (sanitize, opt level, salt)" `Quick
      test_key_discrimination;
    Alcotest.test_case "no cache is a true bypass" `Quick test_no_cache_bypass;
    Alcotest.test_case "disk persistence and corruption tolerance" `Quick
      test_disk_persistence;
    Alcotest.test_case "stale on-disk format is a miss" `Quick
      test_stale_format_is_a_miss;
    Alcotest.test_case "winning-recipe side files" `Quick
      test_recipe_side_files;
    Alcotest.test_case "size cap evicts least-recently-used" `Quick
      test_size_cap_evicts_lru;
    Alcotest.test_case "unset/unparsable cap is a no-op" `Quick
      test_cap_unset_is_noop;
  ]
