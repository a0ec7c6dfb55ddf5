(* Native execution tier: tape -> OCaml source -> ocamlopt -> Dynlink.

   The bytecode interpreter executes one [match] dispatch per tape
   instruction; at -O2 that is ~15-30 ns per coalesced iteration, an
   order of magnitude above what the loop bodies cost as straight-line
   machine code. This module removes the dispatch: it pretty-prints each
   plan's optimized tape ([tp_pre] + [tp_ops] over the access table) to
   OCaml source implementing {!Natapi.runner} — the strip-runner
   signature {!Bytecode.exec_strip} implements interpretively — compiles
   it out of process with [ocamlopt -shared], loads the resulting
   [.cmxs] with [Dynlink.loadfile_private], and attaches the registered
   runners to the compiled program's plans.

   Semantics contract: the generated code replays [exec_strip]'s exact
   unsafe-path evaluation order — prologue, per-access invariant
   hoisting, then per-iteration block dispatch — with the same float
   operation structure (no reassociation: ocamlopt never reorders float
   arithmetic) and byte-identical error messages, raised as [Failure]
   (the executor maps both [Bytecode.Error] and [Failure] to
   [Compile.Error]). Two deliberate deviations, both unobservable:

   - float registers are promoted to local [ref]s for the strip and
     written back on normal exit (nothing reads [reals] mid-strip);
   - the x4-unrolled body is ignored — unrolling only amortizes
     interpreter dispatch, which native code does not pay.

   The generator only ever emits the *unsafe* access path, so the
   executor uses a plan's native runner for a fork only when
   {!Bytecode.prepare} proved every access in bounds for that fork's
   whole iteration space; any checked access falls the fork back to the
   bytecode tier (counted under [native.fallbacks]).

   Artifacts persist in the plan-cache directory as
   [loopc_nat_<digest>.cmxs], keyed over the plan-cache key (or the
   generated source), the {!Plancache.stamp} producing-binary identity
   and {!Natapi.abi_version} — a warm cache pays zero codegen and zero
   compiler cost. *)

module Registry = Loopcoal_obs.Registry

let h_codegen_ns = Registry.histogram "native.codegen_ns"
let h_build_ns = Registry.histogram "native.build_ns"
let h_load_ns = Registry.histogram "native.load_ns"
let c_art_hit = Registry.counter "plan_cache.artifact.hit"
let c_art_miss = Registry.counter "plan_cache.artifact.miss"

(* ---------- code generation ---------- *)

let relop_str (op : Loopcoal_ir.Ast.relop) =
  match op with
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let ilit n = if n < 0 then Printf.sprintf "(%d)" n else string_of_int n

let flit (x : float) =
  if Float.is_nan x then "nan"
  else if x = Float.infinity then "infinity"
  else if x = Float.neg_infinity then "neg_infinity"
  else Printf.sprintf "(%h)" x

let iget r = Printf.sprintf "(Array.unsafe_get ints %d)" r

let aff_str (a : Bytecode.aff) =
  let terms =
    Array.to_list (Array.mapi (fun i c -> (c, a.Bytecode.regs.(i))) a.Bytecode.coefs)
  in
  match terms with
  | [] -> ilit a.Bytecode.base
  | _ ->
      let ts =
        List.map (fun (c, r) -> Printf.sprintf "(%s * %s)" (ilit c) (iget r)) terms
      in
      Printf.sprintf "(%s + %s)" (ilit a.Bytecode.base) (String.concat " + " ts)

let is_control (i : Bytecode.instr) =
  match i with
  | Jmp _ | Jii _ | Jff _ | Jffn _ | Iloop _ | Iloopc _ -> true
  | _ -> false

(* Registers the instruction reads from / writes to the float file. *)
let freg_uses (i : Bytecode.instr) =
  match i with
  | Fconst (d, _) -> ([ d ], [])
  | Fmov (d, s) | Fneg (d, s) -> ([ d ], [ s ])
  | Fadd (d, a, b)
  | Fsub (d, a, b)
  | Fmul (d, a, b)
  | Fdiv (d, a, b)
  | Fmin (d, a, b)
  | Fmax (d, a, b) ->
      ([ d ], [ a; b ])
  | Fofi (d, _) -> ([ d ], [])
  | Fmac (d, a, x, y) | Fmsb (d, a, x, y) -> ([ d ], [ a; x; y ])
  | Fload (d, _) -> ([ d ], [])
  | Fstore (s, _) -> ([], [ s ])
  | Fmac2 (d, a, _, _) | Fmsb2 (d, a, _, _) -> ([ d ], [ a ])
  | Fldmac (d, a, x, _) | Fldmsb (d, a, x, _) -> ([ d ], [ a; x ])
  | Fldadd (d, x, _) | Fldsub (d, x, _) | Fldmul (d, x, _) -> ([ d ], [ x ])
  | Fld2add (d, _, _) -> ([ d ], [])
  | Jff (_, a, b, _) | Jffn (_, a, b, _) -> ([], [ a; b ])
  | _ -> ([], [])

module IntSet = Set.Make (Int)

(* Pretty-print one plan's tape as a [Natapi.runner]; [None] when the
   plan has no tape, is sanitized, or uses an instruction the generator
   declines ([Jadv] outside the unrolled body, control flow in the
   prologue — neither is produced by the current lowering). *)
let plan_runner_src ~idx (p : Compile.plan) : string option =
  match p.Compile.tape with
  | None -> None
  | Some tp when tp.Bytecode.tp_sanitize -> None
  | Some tp -> (
      let open Bytecode in
      let pre_ok =
        Array.for_all (fun i -> (not (is_control i)) && i <> Jadv) tp.tp_pre
      in
      let ops_ok = Array.for_all (fun i -> i <> Jadv) tp.tp_ops in
      if not (pre_ok && ops_ok) then None
      else
        let depth = p.Compile.depth in
        let jslot = p.Compile.index_slots.(depth - 1) in
        let naccs = Array.length tp.tp_accs in
        let b = Buffer.create 4096 in
        let out fmt =
          Printf.ksprintf
            (fun s ->
              Buffer.add_string b s;
              Buffer.add_char b '\n')
            fmt
        in
        let nloc = ref 0 in
        let fresh pfx =
          incr nloc;
          Printf.sprintf "%s%d" pfx !nloc
        in
        (* ---- emission helpers over the access table ---- *)
        let emit_off id =
          let ac = tp.tp_accs.(id) in
          let o = fresh "o" in
          (match ac.ac_vk with
          | V0 -> out "    let %s = iv%d in" o id
          | V1 (c, r) ->
              out "    let %s = iv%d + (%s * %s) in" o id (ilit c) (iget r)
          | V2 (c1, r1, c2, r2) ->
              out "    let %s = iv%d + (%s * %s) + (%s * %s) in" o id (ilit c1)
                (iget r1) (ilit c2) (iget r2)
          | Vn -> out "    let %s = iv%d + %s in" o id (aff_str ac.ac_var)
          | Vs (s, bump) ->
              out "    let %s = !sl%d in" o s;
              out "    sl%d := !sl%d + %s;" s s (ilit bump)
          | Vsj (s, c) ->
              out "    let %s = !sl%d in" o s;
              out "    sl%d := !sl%d + (%s * jstep);" s s (ilit c)
          | Vsv (s, bs) ->
              out "    let %s = !sl%d in" o s;
              out "    sl%d := !sl%d + !sl%d;" s s bs);
          o
        in
        let emit_load id =
          let o = emit_off id in
          let v = fresh "v" in
          out "    let %s = Array.unsafe_get a%d %s in" v
            tp.tp_accs.(id).ac_slot o;
          v
        in
        let emit_store id src =
          let o = emit_off id in
          out "    Array.unsafe_set a%d %s %s;" tp.tp_accs.(id).ac_slot o src
        in
        let iset d e = out "    Array.unsafe_set ints %d %s;" d e in
        (* ---- straight-line instruction -> statements ---- *)
        let emit_instr (i : instr) =
          match i with
          | Iconst (d, v) -> iset d (ilit v)
          | Iaff (d, a) -> iset d (aff_str a)
          | Imul (d, a, b) ->
              iset d (Printf.sprintf "(%s * %s)" (iget a) (iget b))
          | Idiv (d, a, b) ->
              let y = fresh "y" in
              out "    let %s = %s in" y (iget b);
              out "    if %s = 0 then failwith \"integer division by zero\";" y;
              iset d (Printf.sprintf "(%s / %s)" (iget a) y)
          | Imod (d, a, b) ->
              let y = fresh "y" in
              out "    let %s = %s in" y (iget b);
              out "    if %s = 0 then failwith \"mod by zero\";" y;
              iset d (Printf.sprintf "(%s mod %s)" (iget a) y)
          | Icdiv (d, a, b) ->
              let y = fresh "y" and x = fresh "x" in
              out "    let %s = %s in" y (iget b);
              out
                "    if %s <= 0 then failwith (Printf.sprintf \"ceildiv: \
                 non-positive divisor %%d\" %s);"
                y y;
              out "    let %s = %s in" x (iget a);
              iset d
                (Printf.sprintf
                   "(if %s > 0 then (%s + %s - 1) / %s else -(- %s / %s))" x x y
                   y x y)
          | Imin (d, a, b) ->
              iset d
                (Printf.sprintf
                   "(let x = %s and y = %s in if x <= y then x else y)" (iget a)
                   (iget b))
          | Imax (d, a, b) ->
              iset d
                (Printf.sprintf
                   "(let x = %s and y = %s in if x >= y then x else y)" (iget a)
                   (iget b))
          | Istep (r, name) ->
              out "    if %s <= 0 then failwith %S;" (iget r)
                (Printf.sprintf "loop %s: step must be positive" name)
          | Fconst (d, x) -> out "    fr%d := %s;" d (flit x)
          | Fmov (d, s) -> out "    fr%d := !fr%d;" d s
          | Fadd (d, a, b) -> out "    fr%d := !fr%d +. !fr%d;" d a b
          | Fsub (d, a, b) -> out "    fr%d := !fr%d -. !fr%d;" d a b
          | Fmul (d, a, b) -> out "    fr%d := !fr%d *. !fr%d;" d a b
          | Fdiv (d, a, b) -> out "    fr%d := !fr%d /. !fr%d;" d a b
          | Fmin (d, a, b) ->
              out
                "    fr%d := (let x = !fr%d and y = !fr%d in if x <= y then x \
                 else y);"
                d a b
          | Fmax (d, a, b) ->
              out
                "    fr%d := (let x = !fr%d and y = !fr%d in if x >= y then x \
                 else y);"
                d a b
          | Fneg (d, s) -> out "    fr%d := -. !fr%d;" d s
          | Fofi (d, s) ->
              out "    fr%d := float_of_int (Array.unsafe_get ints %d);" d s
          | Fmac (d, a, x, y) ->
              out "    fr%d := !fr%d +. (!fr%d *. !fr%d);" d a x y
          | Fmsb (d, a, x, y) ->
              out "    fr%d := !fr%d -. (!fr%d *. !fr%d);" d a x y
          | Fload (d, id) ->
              let v = emit_load id in
              out "    fr%d := %s;" d v
          | Fstore (s, id) -> emit_store id (Printf.sprintf "!fr%d" s)
          | Sinit (s, a) -> out "    sl%d := %s;" s (aff_str a)
          | Fmac2 (d, a, i1, i2) ->
              let v1 = emit_load i1 in
              let v2 = emit_load i2 in
              out "    fr%d := !fr%d +. (%s *. %s);" d a v1 v2
          | Fmsb2 (d, a, i1, i2) ->
              let v1 = emit_load i1 in
              let v2 = emit_load i2 in
              out "    fr%d := !fr%d -. (%s *. %s);" d a v1 v2
          | Fldmac (d, a, x, id) ->
              let v = emit_load id in
              out "    fr%d := !fr%d +. (!fr%d *. %s);" d a x v
          | Fldmsb (d, a, x, id) ->
              let v = emit_load id in
              out "    fr%d := !fr%d -. (!fr%d *. %s);" d a x v
          | Fldadd (d, x, id) ->
              let v = emit_load id in
              out "    fr%d := !fr%d +. %s;" d x v
          | Fldsub (d, x, id) ->
              let v = emit_load id in
              out "    fr%d := !fr%d -. %s;" d x v
          | Fldmul (d, x, id) ->
              let v = emit_load id in
              out "    fr%d := !fr%d *. %s;" d x v
          | Fld2add (d, i1, i2) ->
              let v1 = emit_load i1 in
              let v2 = emit_load i2 in
              out "    fr%d := %s +. %s;" d v1 v2
          | Fldst (i1, i2) ->
              let v = emit_load i1 in
              emit_store i2 v
          | Jadv | Jmp _ | Jii _ | Jff _ | Jffn _ | Iloop _ | Iloopc _ ->
              assert false
          | Icount _ ->
              (* plan tapes never carry the profiler's counters *)
              assert false
        in
        (* ---- runner header ---- *)
        out "let r%d : Natapi.runner =" idx;
        out " fun ints reals arrays j0 jstep len ->";
        let slots =
          Array.fold_left
            (fun s (ac : access) -> IntSet.add ac.ac_slot s)
            IntSet.empty tp.tp_accs
        in
        IntSet.iter
          (fun s -> out "  let a%d = Array.unsafe_get arrays %d in" s s)
          slots;
        let used, written =
          Array.fold_left
            (fun (u, w) i ->
              let ws, rs = freg_uses i in
              ( List.fold_left (fun s r -> IntSet.add r s) u (ws @ rs),
                List.fold_left (fun s r -> IntSet.add r s) w ws ))
            (IntSet.empty, IntSet.empty)
            (Array.append tp.tp_pre tp.tp_ops)
        in
        IntSet.iter
          (fun r -> out "  let fr%d = ref (Array.unsafe_get reals %d) in" r r)
          used;
        for s = naccs to naccs + tp.tp_nstreams - 1 do
          out "  let sl%d = ref 0 in" s
        done;
        out "  Array.unsafe_set ints %d j0;" jslot;
        (* strip prologue, interpreter order: prologue ops first, then
           the per-access invariant offsets *)
        Array.iter emit_instr tp.tp_pre;
        Array.iteri
          (fun id (ac : access) -> out "  let iv%d = %s in" id (aff_str ac.ac_inv))
          tp.tp_accs;
        (* ---- per-iteration body as mutually tail-calling blocks ---- *)
        let cfg = build_cfg tp.tp_ops in
        let blk t = cfg.cf_block_of.(t) in
        let n = Array.length tp.tp_ops in
        Array.iteri
          (fun bid (bb : bblock) ->
            out "  %s b%d () =" (if bid = 0 then "let rec" else "and") bid;
            if bb.bb_start >= n then out "    ()"
            else begin
              let last = bb.bb_stop - 1 in
              for i = bb.bb_start to last - 1 do
                emit_instr tp.tp_ops.(i)
              done;
              let term = tp.tp_ops.(last) in
              if not (is_control term) then begin
                emit_instr term;
                out "    b%d ()" (blk bb.bb_stop)
              end
              else
                let fall = if bb.bb_stop <= n then blk bb.bb_stop else bid in
                match term with
                | Jmp t -> out "    b%d ()" (blk t)
                | Jii (op, x, y, t) ->
                    out "    if %s %s %s then b%d () else b%d ()" (iget x)
                      (relop_str op) (iget y) (blk t) fall
                | Jff (op, x, y, t) ->
                    out "    if !fr%d %s !fr%d then b%d () else b%d ()" x
                      (relop_str op) y (blk t) fall
                | Jffn (op, x, y, t) ->
                    out "    if !fr%d %s !fr%d then b%d () else b%d ()" x
                      (relop_str op) y fall (blk t)
                | Iloop (r, a, bnd, top) ->
                    let v = fresh "v" in
                    out "    let %s = %s in" v (aff_str a);
                    out "    Array.unsafe_set ints %d %s;" r v;
                    out "    if %s <= %s then b%d () else b%d ()" v (iget bnd)
                      (blk top) fall
                | Iloopc (r, c, bnd, top) ->
                    let v = fresh "v" in
                    out "    let %s = %s + %s in" v (iget r) (ilit c);
                    out "    Array.unsafe_set ints %d %s;" r v;
                    out "    if %s <= %s then b%d () else b%d ()" v (iget bnd)
                      (blk top) fall
                | _ -> assert false
            end)
          cfg.cf_blocks;
        out "  in";
        (* ---- strip loop + float write-back ---- *)
        out "  let j = ref j0 in";
        out "  for _k = 0 to len - 1 do";
        out "    Array.unsafe_set ints %d !j;" jslot;
        out "    b%d ();" (blk 0);
        out "    j := !j + jstep";
        out "  done;";
        IntSet.iter
          (fun r -> out "  Array.unsafe_set reals %d !fr%d;" r r)
          written;
        out "  ()";
        out "";
        Some (Buffer.contents b))

(* Whole-plugin source: one runner per eligible plan plus the
   registration call the host consumes after [Dynlink]. Deterministic
   for a given compiled program — the artifact digest is taken over it. *)
let source (t : Compile.t) : string * bool list =
  let plans = Compile.plans t in
  let b = Buffer.create 8192 in
  Printf.bprintf b
    "(* generated by loopc natgen (abi %d); one runner per plan *)\n\n"
    Natapi.abi_version;
  let elig =
    List.mapi
      (fun idx p ->
        match plan_runner_src ~idx p with
        | Some src ->
            Buffer.add_string b src;
            true
        | None -> false)
      plans
  in
  Printf.bprintf b "let () =\n  Natapi.register\n    [|";
  List.iteri
    (fun idx ok ->
      Buffer.add_string b
        (if ok then Printf.sprintf " Some r%d;" idx else " None;"))
    elig;
  Printf.bprintf b " |]\n";
  (Buffer.contents b, elig)

(* ---------- toolchain, artifact cache, Dynlink ---------- *)

type status = Ready of { artifact_hit : bool } | Unavailable of string

let disabled () =
  match Sys.getenv_opt "LOOPC_NATIVE" with
  | Some ("off" | "0") -> true
  | _ -> false

(* One shell probe per candidate compiler command per process. *)
let probe_tbl : (string, bool) Hashtbl.t = Hashtbl.create 4

let cmd_ok cmd =
  match Hashtbl.find_opt probe_tbl cmd with
  | Some r -> r
  | None ->
      let r = Sys.command (cmd ^ " -version >/dev/null 2>&1") = 0 in
      Hashtbl.replace probe_tbl cmd r;
      r

let compiler () =
  match Sys.getenv_opt "LOOPC_NATIVE_OCAMLOPT" with
  | Some c when c <> "" ->
      if cmd_ok c then Ok c
      else Error (Printf.sprintf "native compiler %s not usable" c)
  | _ -> (
      let cands = [ "ocamlfind ocamlopt"; "ocamlopt.opt"; "ocamlopt" ] in
      match List.find_opt cmd_ok cands with
      | Some c -> Ok c
      | None -> Error "no ocamlopt found (tried ocamlfind ocamlopt, ocamlopt)")

let available () =
  if disabled () then Error "disabled via LOOPC_NATIVE"
  else if not Dynlink.is_native then
    Error "bytecode host cannot load native plugins"
  else match compiler () with Ok _ -> Ok () | Error m -> Error m

let read_first_line f =
  try
    let ic = open_in f in
    let l = try input_line ic with End_of_file -> "" in
    close_in ic;
    if l = "" then None else Some l
  with _ -> None

(* Generated plugins compile against nothing but [natapi.cmi]. Locate
   it: explicit override, then the dune build tree the running
   executable lives in (covers bin/, test/ and bench/ binaries under
   _build/default), then an installed loopcoal.natapi via ocamlfind. *)
let natapi_dirs () =
  match Sys.getenv_opt "LOOPC_NATAPI_DIR" with
  | Some d when d <> "" -> [ d ]
  | _ -> (
      let objs_of d = Filename.concat d "lib/natapi/.loopcoal_natapi.objs" in
      let rec walk d n =
        let objs = objs_of d in
        let byte = Filename.concat objs "byte" in
        if Sys.file_exists (Filename.concat byte "natapi.cmi") then
          [ byte; Filename.concat objs "native" ]
        else
          let parent = Filename.dirname d in
          if n <= 0 || parent = d then [] else walk parent (n - 1)
      in
      match walk (Filename.dirname Sys.executable_name) 10 with
      | _ :: _ as dirs -> List.filter Sys.file_exists dirs
      | [] -> (
          if not (cmd_ok "ocamlfind") then []
          else
            let f = Filename.temp_file "loopc_nat" ".query" in
            let code =
              Sys.command
                (Printf.sprintf "ocamlfind query loopcoal.natapi >%s 2>/dev/null"
                   (Filename.quote f))
            in
            let dir = if code = 0 then read_first_line f else None in
            (try Sys.remove f with Sys_error _ -> ());
            match dir with
            | Some d when Sys.file_exists (Filename.concat d "natapi.cmi") ->
                [ d ]
            | _ -> []))

let with_tmpdir f =
  let base = Filename.temp_file "loopc_nat" ".build" in
  Sys.remove base;
  Sys.mkdir base 0o700;
  Fun.protect
    ~finally:(fun () ->
      (try
         Array.iter
           (fun e ->
             try Sys.remove (Filename.concat base e) with Sys_error _ -> ())
           (Sys.readdir base)
       with Sys_error _ -> ());
      try Sys.rmdir base with Sys_error _ -> ())
    (fun () -> f base)

let copy_file src dst =
  let ic = open_in_bin src in
  let n = in_channel_length ic in
  let buf = really_input_string ic n in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc buf;
  close_out oc

let rec mkdirs d =
  if d <> "" && d <> "/" && not (Sys.file_exists d) then begin
    mkdirs (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let build_cmxs ~oc ~incdirs ~src ~out =
  let log = src ^ ".log" in
  let incs =
    String.concat " " (List.map (fun d -> "-I " ^ Filename.quote d) incdirs)
  in
  let cmd =
    Printf.sprintf "%s -shared -w -a %s -o %s %s 2>%s" oc incs
      (Filename.quote out) (Filename.quote src) (Filename.quote log)
  in
  if Sys.command cmd = 0 && Sys.file_exists out then Ok ()
  else
    Error
      (match read_first_line log with
      | Some l -> l
      | None -> "compiler exited nonzero")

let load_runners path nplans =
  Registry.time h_load_ns (fun () ->
      match Dynlink.loadfile_private path with
      | () -> (
          match Natapi.take () with
          | Some rs when Array.length rs = nplans -> Ok rs
          | Some _ -> Error "artifact registered a wrong plan count"
          | None -> Error "artifact did not register runners")
      | exception Dynlink.Error e -> Error (Dynlink.error_message e)
      | exception e -> Error (Printexc.to_string e))

(* Same-process reuse: a digest we already loaded hands back the live
   runners without touching Dynlink again. *)
let loaded : (string, Natapi.runner option array) Hashtbl.t = Hashtbl.create 8

let attach t rs =
  List.iteri
    (fun i (p : Compile.plan) -> p.Compile.native <- rs.(i))
    (Compile.plans t);
  Compile.set_native_state t `Ready

let prepare ?key ?dir ?(persist = true) (t : Compile.t) : status =
  match Compile.native_state t with
  | `Ready -> Ready { artifact_hit = true }
  | `Unavailable m -> Unavailable m
  | `Untried -> (
      let fail m =
        Compile.set_native_state t (`Unavailable m);
        Unavailable m
      in
      if disabled () then fail "disabled via LOOPC_NATIVE"
      else if not Dynlink.is_native then
        fail "bytecode host cannot load native plugins"
      else
        let nplans = List.length (Compile.plans t) in
        (* With a caller key (the plan-cache key: AST + opt level +
           producing binary) an artifact hit skips codegen entirely;
           without one the digest is taken over the generated source. *)
        let pregen =
          match key with
          | Some _ -> None
          | None -> Some (Registry.time h_codegen_ns (fun () -> source t))
        in
        let digest =
          Digest.to_hex
            (Digest.string
               (match (key, pregen) with
               | Some k, _ ->
                   Printf.sprintf "natgen:%d:%s" Natapi.abi_version k
               | None, Some (src, _) ->
                   Printf.sprintf "natgen:%d:%s:%s" Natapi.abi_version
                     (Plancache.stamp ()) src
               | None, None -> assert false))
        in
        let unit_name = "loopc_nat_" ^ digest in
        let build_and_load cached_path =
          let src, elig =
            match pregen with
            | Some se -> se
            | None -> Registry.time h_codegen_ns (fun () -> source t)
          in
          if not (List.exists Fun.id elig) then
            fail "no native-eligible plans (sanitized or not lowered)"
          else
            match compiler () with
            | Error m -> fail m
            | Ok oc -> (
                match natapi_dirs () with
                | [] -> fail "cannot locate natapi.cmi for plugin compilation"
                | incdirs ->
                    with_tmpdir (fun tmp ->
                        let ml = Filename.concat tmp (unit_name ^ ".ml") in
                        let och = open_out ml in
                        output_string och src;
                        close_out och;
                        let out = Filename.concat tmp (unit_name ^ ".cmxs") in
                        match
                          Registry.time h_build_ns (fun () ->
                              build_cmxs ~oc ~incdirs ~src:ml ~out)
                        with
                        | Error m -> fail ("native build failed: " ^ m)
                        | Ok () -> (
                            (* persist into the plan cache, best effort;
                               tmp-then-rename keeps concurrent writers
                               atomic *)
                            let final =
                              match cached_path with
                              | Some p -> (
                                  try
                                    mkdirs (Filename.dirname p);
                                    let tmpn =
                                      Printf.sprintf "%s.tmp.%d" p
                                        (Unix.getpid ())
                                    in
                                    copy_file out tmpn;
                                    Sys.rename tmpn p;
                                    Plancache.enforce_cap
                                      (Filename.dirname p);
                                    p
                                  with Sys_error _ | Unix.Unix_error _ -> out)
                              | None -> out
                            in
                            match load_runners final nplans with
                            | Error m -> fail ("native load failed: " ^ m)
                            | Ok rs ->
                                Hashtbl.replace loaded digest rs;
                                attach t rs;
                                Registry.incr c_art_miss;
                                Ready { artifact_hit = false })))
        in
        match Hashtbl.find_opt loaded digest with
        | Some rs ->
            attach t rs;
            Registry.incr c_art_hit;
            Ready { artifact_hit = true }
        | None -> (
            let cache_dir =
              if not persist then None
              else
                match dir with
                | Some d -> Some d
                | None -> Plancache.default_dir ()
            in
            let cached_path =
              Option.map
                (fun d -> Filename.concat d (unit_name ^ ".cmxs"))
                cache_dir
            in
            match cached_path with
            | Some p when Sys.file_exists p -> (
                match load_runners p nplans with
                | Ok rs when Array.exists Option.is_some rs ->
                    Hashtbl.replace loaded digest rs;
                    attach t rs;
                    Registry.incr c_art_hit;
                    (* refresh LRU recency under LOOPC_CACHE_MAX_MB *)
                    (try Unix.utimes p 0.0 0.0 with Unix.Unix_error _ -> ());
                    Ready { artifact_hit = true }
                | Ok _ | Error _ ->
                    (* stale or corrupt artifact: drop it, rebuild once *)
                    (try Sys.remove p with Sys_error _ -> ());
                    build_and_load cached_path)
            | _ -> build_and_load cached_path))
