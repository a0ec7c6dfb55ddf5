(* Keyed plan cache: lowered+optimized tapes survive across compiles of
   the same program, in memory and optionally on disk.

   The key digests the whole program AST together with everything that
   changes what lowering produces: the sanitize flag (a sanitized run
   must never reuse an unsanitized tape — the tapes differ in promotion,
   unsafe flags and optimizer output), the optimizer level, a
   caller-supplied salt (the CLI passes the engine name), a format
   version bumped whenever the tape representation changes, and the
   producing binary's identity (see [build_stamp]).

   A cached entry stores, per plan in program order, the tape and
   how many int/float registers its lowering+optimization allocated; on
   a hit the compiler replays those deltas against its own counters, so
   register numbering and environment sizing are identical to a cold
   compile. Tapes hold no closures, so [Marshal] round-trips them; any
   unreadable or version-skewed disk file is simply a miss. *)

open Loopcoal_ir

(* Bump when [Bytecode.instr]/[tape] or the entry layout changes.
   3: SSA optimizer pipeline — run-time-bump offset kind, general strip
      preamble.
   4: provenance side tables — per-section instruction tags and
      [tp_tags] carry instr -> source-loop attribution.
   5: transformation-search era — winning recipes ride next to plans as
      [<key>.recipe] side files and cached programs may be
      recipe-transformed, so pre-search entries must not be replayed.
   6: [Icount] (the profiler's block counter) joins [Bytecode.instr].
   7: every plan has a tape — entries hold [tape], not [tape option].
   8: one body per tape — the x4 unrolled body, its provenance table
      and its strip-advance instruction are deleted.
   9: offset streaming deleted — no stream-init instruction, no [Vs]
      offset kinds.
   10: top-level code lowers to a tape first — plan register numbers
      shift past its bound registers, and [Ifork] joins
      [Bytecode.instr]. *)
let format_version = 10

(* A disk entry that fails to load — unreadable, corrupt, or written by
   a different format/build — is treated as a miss; count those
   separately from plain misses so cache churn after upgrades shows up
   in the registry. *)
let evictions = Loopcoal_obs.Registry.counter "plan_cache.evict"

(* The hand-bumped [format_version] alone cannot protect against a tape
   layout change that forgets to bump it: [Marshal] is not type-safe,
   and replaying a stale tape against a changed [Bytecode.instr] layout
   yields garbage that the unsafe execution path then dereferences
   (a segfault, not an exception). Fold the producing binary's identity
   (path, size, mtime — one [stat], computed once per process) into the
   key, so entries written by any other build are misses by
   construction. *)
let build_stamp =
  lazy
    (let exe = Sys.executable_name in
     match Unix.stat exe with
     | { Unix.st_size; st_mtime; _ } ->
         Printf.sprintf "%s:%d:%h" exe st_size st_mtime
     | exception _ -> exe)

let stamp () = Lazy.force build_stamp

type entry = { e_plans : (Bytecode.tape * int * int) list }

type t = {
  mem : (string, entry) Hashtbl.t;
  recipes : (string, string) Hashtbl.t;  (** key -> recipe string *)
  dir : string option;
  mutable disabled : bool;  (** set when the disk dir is unusable *)
}

let create ?dir () =
  { mem = Hashtbl.create 8; recipes = Hashtbl.create 8; dir; disabled = false }

let default_dir () =
  match Sys.getenv_opt "XDG_CACHE_HOME" with
  | Some d when d <> "" -> Some (Filename.concat d "loopc")
  | _ -> (
      match Sys.getenv_opt "HOME" with
      | Some h when h <> "" ->
          Some (Filename.concat (Filename.concat h ".cache") "loopc")
      | _ -> None)

let key ~sanitize ~opt_level ~salt (p : Ast.program) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (format_version, Lazy.force build_stamp, sanitize, opt_level, salt, p)
          []))

let path_ext c k ext =
  match c.dir with
  | Some d when not c.disabled -> Some (Filename.concat d (k ^ ext))
  | _ -> None

let path c k = path_ext c k ".plan"

(* ---------- size cap (LRU by mtime) ----------

   [LOOPC_CACHE_MAX_MB] bounds the total size of everything the cache
   directory accumulates: marshaled plans, recipe side files, and the
   native tier's dynlinked [.cmxs] artifacts (plus their [.c]/[.o]/
   [.cmx] build leftovers). Disk hits bump the file's mtime, so sorting
   by mtime is a faithful least-recently-used order. Evictions fire the
   same [plan_cache.evict] counter as corrupt/stale entries: either way
   the next compile of that key is a miss. *)

let cache_max_bytes () =
  match Sys.getenv_opt "LOOPC_CACHE_MAX_MB" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some mb when mb >= 0 -> Some (mb * 1024 * 1024)
      | _ -> None)

let cached_file name =
  List.exists
    (Filename.check_suffix name)
    [ ".plan"; ".recipe"; ".cmxs"; ".c"; ".o"; ".cmx"; ".cmi" ]

(* Refresh the file's recency for the LRU order; best-effort. *)
let touch f = try Unix.utimes f 0.0 0.0 with Unix.Unix_error _ -> ()

let enforce_cap dir =
  match cache_max_bytes () with
  | None -> ()
  | Some cap -> (
      match Sys.readdir dir with
      | exception Sys_error _ -> ()
      | names ->
          let files =
            Array.to_list names
            |> List.filter cached_file
            |> List.filter_map (fun name ->
                   let f = Filename.concat dir name in
                   match Unix.stat f with
                   | { Unix.st_kind = Unix.S_REG; st_size; st_mtime; _ } ->
                       Some (f, st_size, st_mtime)
                   | _ -> None
                   | exception Unix.Unix_error _ -> None)
          in
          let total = List.fold_left (fun a (_, s, _) -> a + s) 0 files in
          if total > cap then begin
            let oldest_first =
              List.sort (fun (_, _, a) (_, _, b) -> Float.compare a b) files
            in
            let rec drop total = function
              | _ when total <= cap -> ()
              | [] -> ()
              | (f, sz, _) :: tl ->
                  (try
                     Sys.remove f;
                     Loopcoal_obs.Registry.incr evictions
                   with Sys_error _ -> ());
                  drop (total - sz) tl
            in
            drop total oldest_first
          end)

let enforce_cap_of c = match c.dir with Some d -> enforce_cap d | None -> ()

let read_file f =
  match open_in_bin f with
  | exception Sys_error _ -> None
  | ic -> (
      match (input_value ic : int * entry) with
      | exception _ ->
          close_in_noerr ic;
          Loopcoal_obs.Registry.incr evictions;
          None
      | v, e ->
          close_in_noerr ic;
          if v = format_version then Some e
          else begin
            Loopcoal_obs.Registry.incr evictions;
            None
          end)

let find_origin c k =
  match Hashtbl.find_opt c.mem k with
  | Some e -> Some (e, `Mem)
  | None -> (
      match path c k with
      | None -> None
      | Some f -> (
          match read_file f with
          | Some e ->
              Hashtbl.replace c.mem k e;
              touch f;
              Some (e, `Disk)
          | None -> None))

let find c k = Option.map fst (find_origin c k)

(* A disk entry that loads but fails validation (see [Tapecheck]): the
   caller treats it as a miss; drop the memory copy [find_origin] just
   installed so the recompile's [store] is the only surviving version. *)
let rejections = Loopcoal_obs.Registry.counter "plan_cache.reject"

let reject c k =
  Hashtbl.remove c.mem k;
  Loopcoal_obs.Registry.incr rejections

let rec mkdirs d =
  if not (Sys.file_exists d) then begin
    mkdirs (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let store c k e =
  Hashtbl.replace c.mem k e;
  (match path c k with
  | None -> ()
  | Some f -> (
      try
        mkdirs (Filename.dirname f);
        let tmp = f ^ ".tmp" in
        let oc = open_out_bin tmp in
        output_value oc (format_version, e);
        close_out oc;
        Sys.rename tmp f
      with Sys_error _ ->
        (* Disk persistence is best-effort; keep the in-memory entry and
           stop touching an unusable directory. *)
        c.disabled <- true));
  enforce_cap_of c

(* ---------- winning-recipe side files ----------

   The searcher's winner for a program is a plain {!Recipe} string; it
   rides next to the plan entry as [<key>.recipe] so warm runs replay
   the transformation with zero enumeration. Text, not [Marshal]: the
   format is the recipe grammar itself, and the format version is
   already folded into the key. *)

let find_recipe c k =
  match Hashtbl.find_opt c.recipes k with
  | Some r -> Some r
  | None -> (
      match path_ext c k ".recipe" with
      | None -> None
      | Some f -> (
          match open_in_bin f with
          | exception Sys_error _ -> None
          | ic ->
              let len = in_channel_length ic in
              let s = really_input_string ic len in
              close_in_noerr ic;
              let s = String.trim s in
              if s = "" then None
              else begin
                Hashtbl.replace c.recipes k s;
                touch f;
                Some s
              end))

let store_recipe c k r =
  Hashtbl.replace c.recipes k r;
  (match path_ext c k ".recipe" with
  | None -> ()
  | Some f -> (
      try
        mkdirs (Filename.dirname f);
        let tmp = f ^ ".tmp" in
        let oc = open_out_bin tmp in
        output_string oc (r ^ "\n");
        close_out oc;
        Sys.rename tmp f
      with Sys_error _ -> c.disabled <- true));
  enforce_cap_of c
