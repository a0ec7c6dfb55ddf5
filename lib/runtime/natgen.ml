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

   Code shape: each runner is one function with no inner closures.
   Every int register and float register the tape touches is a
   non-escaping local [ref], so ocamlopt keeps it in a machine
   register and unboxes the floats. A body that is one block with no
   control terminator is emitted straight-line; otherwise the tape's
   basic blocks are the arms of one [match] over a local block number
   inside a [while], and a block whose [Iloop]/[Iloopc] jumps back to
   its own leader (every serial inner loop the lowering emits) is an
   inner do-while loop.

   Every access reads its offset in the tape's affine form: the
   invariant part hoisted once per strip ([ivN]) plus the variant part
   over the current registers. An int register whose only writer is a
   prologue constant ([Iconst], or a term-free [Iaff], the lowering's
   form of a literal loop bound) is read as a literal, so a constant
   divisor compiles to multiply-shift without a zero test and loop
   bounds compare against an immediate; a literal invalid divisor still
   raises the tape's message.

   Semantics contract: the generated code replays [exec_strip]'s exact
   unsafe-path evaluation order — prologue, per-access invariant
   hoisting, then per-iteration block dispatch — with the same float
   operation structure (no reassociation: ocamlopt never reorders float
   arithmetic) and byte-identical error messages, raised as [Failure]
   (the executor maps both [Bytecode.Error] and [Failure] to
   [Compile.Error]). Three deliberate deviations, all unobservable:

   - registers are read from [ints]/[reals] once at runner entry and the
     written ones are stored back on normal exit (nothing reads the
     register files mid-strip, and a raised error aborts the run);
   - an eligible body is unrolled and jammed: a main loop runs groups
     of [jam_width] (eight) strip iterations ([j], [j + jstep], ...,
     [j + 7 jstep]) through one block dispatcher, and the
     [len mod 8] left over run the single-iteration loop. In the group,
     a strip-uniform instruction (one reading only literals, prologue
     registers, registers the body never writes and other uniform
     registers) is emitted once; any other is emitted once per copy,
     copy 0 first, in place, with its varying int and float registers
     renamed per copy (the last copy keeps the plain names, so the
     written-back registers are the sequentially last iteration's), the
     strip index among them, so each copy's offsets read its own
     iteration. A load at a uniform offset is shared by the copies; in
     matmul's [k] loop that gives eight independent accumulator chains
     over one [A[i,k]] load and one row of [B]. Whether the interleaving
     equals running the iterations in order, whatever the [doall]
     annotation claims, is {!Bytecode.lane_plan}'s analysis, shared
     with the bytecode tier's lane path: uniform control and no float
     compare, no register carried across iterations, every stored
     array confined to one element per iteration, and nothing that can
     raise, so errors and their order stay the bytecode tier's.
     [jam_plan] adds the emitter's own filters: a self-loop block (a
     serial inner loop; straight-line bodies gain nothing from
     jamming), every stored array at one flat offset
     [inv + c * jslot], c <> 0 (the analysis also accepts an array
     pinned by one subscript), and no fold register (the analysis
     also accepts a float chain [r <- r op e] or [r <- e op r], which
     the lane path folds in order; strip reductions stay single
     here).

   The generator only ever emits the *unsafe* access path, so the
   executor uses a plan's native runner for a fork only when
   {!Bytecode.prepare} proved every access in bounds for that fork's
   whole iteration space; any checked access falls the fork back to the
   bytecode tier (counted under [native.fallbacks]).

   Artifacts persist in the plan-cache directory as
   [loopc_nat_<digest>.cmxs], keyed over the plan-cache key (or the
   generated source), the {!Plancache.stamp} producing-binary identity
   and {!Natapi.abi_version} — a warm cache pays zero codegen and zero
   compiler cost. A cached artifact that is truncated or fails to load
   is dropped and rebuilt ([intact]). A cold build is one compiler
   process: the build runs directly, and only a failed build probes the
   compiler ([-version]) to choose between trying the next candidate
   and reporting the build's error. A build that outlives
   [build_timeout_s] is killed and reported without a probe. *)

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

(* [reg r] prints a read of int register [r]. *)
let aff_str reg (a : Bytecode.aff) =
  let open Bytecode in
  let terms = Array.to_list (Array.mapi (fun i c -> (c, a.regs.(i))) a.coefs) in
  match terms with
  | [] -> ilit a.base
  | _ ->
      let term (c, r) = Printf.sprintf "(%s * %s)" (ilit c) (reg r) in
      let ts = List.map term terms in
      Printf.sprintf "(%s + %s)" (ilit a.base) (String.concat " + " ts)

let is_control (i : Bytecode.instr) =
  match i with
  | Jmp _ | Jii _ | Jff _ | Jffn _ | Iloop _ | Iloopc _ -> true
  | _ -> false

module IntSet = Bytecode.IntSet
module IntMap = Bytecode.IntMap

(* ---------- unroll-and-jam analysis ---------- *)

(* Strip iterations per jammed group. *)
let jam_width = 8

(* Whether to jam: {!Bytecode.lane_plan} decides whether running
   [jam_width] consecutive strip iterations instruction by instruction,
   in place, equals running them in order; on top of it the emitter
   wants a self-loop block (a serial inner loop), every stored array at
   one flat offset and no fold register (a strip reduction stays
   single: the copies would fold out of order). [lits] are the
   registers read as literals. The plan's varying registers are renamed
   per copy; [lp_uniform] marks the accesses whose load the copies
   share. *)
let jam_plan ~jslot ~lits (tp : Bytecode.tape) =
  match Bytecode.lane_plan ~jslot ~lits tp with
  | Error _ -> None
  | Ok lp ->
      let open Bytecode in
      let ops = tp.tp_ops in
      let cfg = build_cfg ops in
      let exit = cfg.cf_block_of.(Array.length ops) in
      let self_loop bid =
        let bb = cfg.cf_blocks.(bid) in
        bb.bb_stop > bb.bb_start
        &&
        match ops.(bb.bb_stop - 1) with
        | Iloop (_, _, _, top) | Iloopc (_, _, _, top) -> top = bb.bb_start
        | _ -> false
      in
      if
        lp.lp_flat_stores
        && IntSet.is_empty lp.lp_folds
        && List.exists self_loop (List.init exit Fun.id)
      then Some lp
      else None

(* Pretty-print one plan's tape as a [Natapi.runner]; [None] when the
   tape is sanitized or its prologue holds control flow (the current
   lowering never produces one). *)
let plan_runner_src ~idx (p : Compile.plan) : string option =
  match p.Compile.tape with
  | tp when tp.Bytecode.tp_sanitize -> None
  | tp -> (
      let open Bytecode in
      if Array.exists is_control tp.tp_pre then None
      else
        let depth = p.Compile.depth in
        let jslot = p.Compile.index_slots.(depth - 1) in
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
        (* ---- registers: local refs, recorded as the body is emitted;
           the header binding them is prepended at the end ---- *)
        let iused = ref IntSet.empty and iwritten = ref IntSet.empty in
        let fused = ref IntSet.empty and fwritten = ref IntSet.empty in
        let note set r = set := IntSet.add r !set in
        (* constant registers currently read as literals *)
        let consts = Bytecode.const_regs ~jslot tp in
        let lits = ref IntMap.empty in
        (* unroll-and-jam: the copy being emitted (-1 outside the jammed
           loop) and the registers renamed per copy; the last copy keeps
           the plain names, so the written-back values are the
           sequentially last iteration's *)
        let jam = ref None and cur = ref (-1) in
        let copy_refs = ref [] in
        let copy_name pfx r =
          match !jam with
          | Some (jm : lane_plan)
            when !cur >= 0 && !cur < jam_width - 1
                 && IntSet.mem r
                      (if pfx = "ir" then jm.lp_vary_i else jm.lp_vary_f) ->
              let n = Printf.sprintf "%s%dc%d" pfx r !cur in
              if not (List.mem n !copy_refs) then copy_refs := n :: !copy_refs;
              Some n
          | _ -> None
        in
        let ir r =
          match IntMap.find_opt r !lits with
          | Some v -> ilit v
          | None -> (
              match copy_name "ir" r with
              | Some n -> "!" ^ n
              | None ->
                  note iused r;
                  Printf.sprintf "!ir%d" r)
        in
        let fr r =
          match copy_name "fr" r with
          | Some n -> "!" ^ n
          | None ->
              note fused r;
              Printf.sprintf "!fr%d" r
        in
        let iset d e =
          match copy_name "ir" d with
          | Some n -> out "    %s := %s;" n e
          | None ->
              note iused d;
              note iwritten d;
              out "    ir%d := %s;" d e
        in
        let fset d e =
          match copy_name "fr" d with
          | Some n -> out "    %s := %s;" n e
          | None ->
              note fused d;
              note fwritten d;
              out "    fr%d := %s;" d e
        in
        let aff = aff_str ir in
        (* ---- emission helpers over the access table ---- *)
        (* Within one jammed instruction, copy 0's loaded values by
           operand position: a later copy takes a load at a strip-uniform
           offset from copy 0. *)
        let opnd = ref 0 in
        let val0 = Hashtbl.create 4 in
        let emit_off id =
          let ac = tp.tp_accs.(id) in
          let o = fresh "o" in
          (match ac.ac_vk with
          | V0 -> out "    let %s = iv%d in" o id
          | V1 (c, r) ->
              out "    let %s = iv%d + (%s * %s) in" o id (ilit c) (ir r)
          | V2 (c1, r1, c2, r2) ->
              out "    let %s = iv%d + (%s * %s) + (%s * %s) in" o id (ilit c1)
                (ir r1) (ilit c2) (ir r2)
          | Vn -> out "    let %s = iv%d + %s in" o id (aff ac.ac_var));
          o
        in
        let emit_load id =
          let k = !opnd in
          incr opnd;
          match Hashtbl.find_opt val0 k with
          | Some v when !cur > 0 -> v
          | _ ->
              let o = emit_off id in
              let v = fresh "v" in
              out "    let %s = Array.unsafe_get a%d %s in" v
                tp.tp_accs.(id).ac_slot o;
              (match !jam with
              | Some jm when !cur = 0 && jm.lp_uniform.(id) ->
                  Hashtbl.replace val0 k v
              | _ -> ());
              v
        in
        let emit_store id src =
          let o = emit_off id in
          out "    Array.unsafe_set a%d %s %s;" tp.tp_accs.(id).ac_slot o src
        in
        (* The divisor of [/], [mod] or ceildiv, behind the tape's fault
           test ([= 0], or [<= 0] for ceildiv); [fault y] is the
           message expression for divisor [y]. A literal divisor is
           tested here instead: a valid one is printed as is (ocamlopt
           then divides by multiply-shift), an invalid one raises
           unconditionally. *)
        let divisor b ~ceil fault =
          let bad = if ceil then "<=" else "=" in
          match IntMap.find_opt b !lits with
          | Some v ->
              if (ceil && v <= 0) || v = 0 then
                out "    failwith %s;" (fault (ilit v));
              ilit v
          | None ->
              let y = fresh "y" in
              out "    let %s = %s in" y (ir b);
              out "    if %s %s 0 then failwith %s;" y bad (fault y);
              y
        in
        (* ---- straight-line instruction -> statements ---- *)
        let emit_instr (i : instr) =
          match i with
          | Iconst (d, v) | Iaff (d, { base = v; coefs = [||]; _ })
            when IntMap.mem d consts && not (IntSet.mem d !iused) ->
              lits := IntMap.add d v !lits
          | Iconst (d, v) -> iset d (ilit v)
          | Iaff (d, a) -> iset d (aff a)
          | Imul (d, a, b) ->
              iset d (Printf.sprintf "(%s * %s)" (ir a) (ir b))
          | Idiv (d, a, b) ->
              let y =
                divisor b ~ceil:false (fun _ -> {|"integer division by zero"|})
              in
              iset d (Printf.sprintf "(%s / %s)" (ir a) y)
          | Imod (d, a, b) ->
              let y = divisor b ~ceil:false (fun _ -> {|"mod by zero"|}) in
              iset d (Printf.sprintf "(%s mod %s)" (ir a) y)
          | Icdiv (d, a, b) ->
              let fault =
                Printf.sprintf
                  {|(Printf.sprintf "ceildiv: non-positive divisor %%d" %s)|}
              in
              let y = divisor b ~ceil:true fault in
              let x = fresh "x" in
              out "    let %s = %s in" x (ir a);
              (* Intmath.cdiv, inlined *)
              iset d
                (Printf.sprintf
                   "(if %s > 0 then ((%s - 1) / %s) + 1 else %s / %s)" x x y x
                   y)
          | Imin (d, a, b) ->
              iset d
                (Printf.sprintf
                   "(let x = %s and y = %s in if x <= y then x else y)" (ir a)
                   (ir b))
          | Imax (d, a, b) ->
              iset d
                (Printf.sprintf
                   "(let x = %s and y = %s in if x >= y then x else y)" (ir a)
                   (ir b))
          | Istep (r, name) ->
              out "    if %s <= 0 then failwith %S;" (ir r)
                (Printf.sprintf "loop %s: step must be positive" name)
          | Fconst (d, x) -> fset d (flit x)
          | Fmov (d, s) -> fset d (fr s)
          | Fadd (d, a, b) -> fset d (Printf.sprintf "%s +. %s" (fr a) (fr b))
          | Fsub (d, a, b) -> fset d (Printf.sprintf "%s -. %s" (fr a) (fr b))
          | Fmul (d, a, b) -> fset d (Printf.sprintf "%s *. %s" (fr a) (fr b))
          | Fdiv (d, a, b) -> fset d (Printf.sprintf "%s /. %s" (fr a) (fr b))
          | Fmin (d, a, b) ->
              fset d
                (Printf.sprintf
                   "(let x = %s and y = %s in if x <= y then x else y)" (fr a)
                   (fr b))
          | Fmax (d, a, b) ->
              fset d
                (Printf.sprintf
                   "(let x = %s and y = %s in if x >= y then x else y)" (fr a)
                   (fr b))
          | Fneg (d, s) -> fset d ("-. " ^ fr s)
          | Fofi (d, s) -> fset d ("float_of_int " ^ ir s)
          | Fmac (d, a, x, y) ->
              fset d (Printf.sprintf "%s +. (%s *. %s)" (fr a) (fr x) (fr y))
          | Fmsb (d, a, x, y) ->
              fset d (Printf.sprintf "%s -. (%s *. %s)" (fr a) (fr x) (fr y))
          | Fload (d, id) -> fset d (emit_load id)
          | Fstore (s, id) -> emit_store id (fr s)
          | Fmac2 (d, a, i1, i2) ->
              let v1 = emit_load i1 in
              let v2 = emit_load i2 in
              fset d (Printf.sprintf "%s +. (%s *. %s)" (fr a) v1 v2)
          | Fmsb2 (d, a, i1, i2) ->
              let v1 = emit_load i1 in
              let v2 = emit_load i2 in
              fset d (Printf.sprintf "%s -. (%s *. %s)" (fr a) v1 v2)
          | Fldmac (d, a, x, id) ->
              let v = emit_load id in
              fset d (Printf.sprintf "%s +. (%s *. %s)" (fr a) (fr x) v)
          | Fldmsb (d, a, x, id) ->
              let v = emit_load id in
              fset d (Printf.sprintf "%s -. (%s *. %s)" (fr a) (fr x) v)
          | Fldadd (d, x, id) ->
              let v = emit_load id in
              fset d (Printf.sprintf "%s +. %s" (fr x) v)
          | Fldsub (d, x, id) ->
              let v = emit_load id in
              fset d (Printf.sprintf "%s -. %s" (fr x) v)
          | Fldmul (d, x, id) ->
              let v = emit_load id in
              fset d (Printf.sprintf "%s *. %s" (fr x) v)
          | Fld2add (d, i1, i2) ->
              let v1 = emit_load i1 in
              let v2 = emit_load i2 in
              fset d (Printf.sprintf "%s +. %s" v1 v2)
          | Fldst (i1, i2) ->
              let v = emit_load i1 in
              emit_store i2 v
          | Jmp _ | Jii _ | Jff _ | Jffn _ | Iloop _ | Iloopc _ ->
              assert false
          | Icount _ | Ifork _ ->
              (* plan tapes never carry the profiler's counters or a
                 fork *)
              assert false
        in
        (* ---- strip prologue, interpreter order: prologue ops first,
           then the per-access invariant offsets ---- *)
        iset jslot "j0";
        Array.iter emit_instr tp.tp_pre;
        Array.iteri
          (fun id (ac : access) -> out "  let iv%d = %s in" id (aff ac.ac_inv))
          tp.tp_accs;
        (* ---- per-iteration body: straight-line code for a single
           block without a control terminator, otherwise one [match] arm
           per basic block, dispatched on a local block number; -1 is
           the exit ---- *)
        let cfg = build_cfg tp.tp_ops in
        let n = Array.length tp.tp_ops in
        let exit = cfg.cf_block_of.(n) in
        let goto t =
          let bid = cfg.cf_block_of.(t) in
          if bid = exit then "(-1)" else string_of_int bid
        in
        let iteration emit_one =
          if exit = 1 && not (is_control tp.tp_ops.(n - 1)) then
            Array.iter emit_one tp.tp_ops
          else if exit > 0 then begin
            out "    let bk = ref 0 in";
            out "    while !bk >= 0 do";
            out "    match !bk with";
            for bid = 0 to exit - 1 do
              let bb = cfg.cf_blocks.(bid) in
              out "    | %s ->"
                (if bid = exit - 1 then "_" else string_of_int bid);
              let last = bb.bb_stop - 1 in
              let term = tp.tp_ops.(last) in
              (* a block looping to its own leader is a serial inner loop:
                 emit it as a do-while *)
              let self_loop =
                match term with
                | Iloop (_, _, _, top) | Iloopc (_, _, _, top) ->
                    top = bb.bb_start
                | _ -> false
              in
              if self_loop then out "    while (";
              let stop = if is_control term then last else bb.bb_stop in
              for i = bb.bb_start to stop - 1 do
                emit_one tp.tp_ops.(i)
              done;
              (* serial-loop back-edge: bump, then test against the bound *)
              let back_edge r next bnd top =
                let v = fresh "v" in
                out "    let %s = %s in" v next;
                iset r v;
                if self_loop then begin
                  out "    %s <= %s) do () done;" v (ir bnd);
                  out "    bk := %s" (goto bb.bb_stop)
                end
                else
                  out "    bk := (if %s <= %s then %s else %s)" v (ir bnd)
                    (goto top) (goto bb.bb_stop)
              in
              match term with
              | Jmp t -> out "    bk := %s" (goto t)
              | Jii (op, x, y, t) ->
                  out "    bk := (if %s %s %s then %s else %s)" (ir x)
                    (relop_str op) (ir y) (goto t) (goto bb.bb_stop)
              | Jff (op, x, y, t) ->
                  out "    bk := (if %s %s %s then %s else %s)" (fr x)
                    (relop_str op) (fr y) (goto t) (goto bb.bb_stop)
              | Jffn (op, x, y, t) ->
                  out "    bk := (if %s %s %s then %s else %s)" (fr x)
                    (relop_str op) (fr y) (goto bb.bb_stop) (goto t)
              | Iloop (r, a, bnd, top) -> back_edge r (aff a) bnd top
              | Iloopc (r, c, bnd, top) ->
                  back_edge r (Printf.sprintf "%s + %s" (ir r) (ilit c)) bnd top
              | _ -> out "    bk := %s" (goto bb.bb_stop)
            done;
            out "    done;"
          end
        in
        out "  let j = ref j0 in";
        (* ---- unroll-and-jam main loop: groups of [jam_width]
           iterations, one dispatcher; a strip-uniform instruction is
           emitted once, any other once per copy, copy 0 first; the
           remainder runs the single-iteration loop below ---- *)
        jam := jam_plan ~jslot ~lits:!lits tp;
        (match !jam with
        | None -> ()
        | Some jm ->
            let ops_of i =
              Hashtbl.reset val0;
              let varies =
                match i with
                | Fstore _ | Fldst _ -> true
                | _ ->
                    Option.fold ~none:false
                      ~some:(fun d -> IntSet.mem d jm.lp_vary_i)
                      (int_dst i)
                    || Option.fold ~none:false
                         ~some:(fun d -> IntSet.mem d jm.lp_vary_f)
                         (float_dst i)
              in
              for u = 0 to if varies then jam_width - 1 else 0 do
                cur := u;
                opnd := 0;
                emit_instr i
              done;
              cur := -1
            in
            out "  for _g = 1 to len / %d do" jam_width;
            for u = 0 to jam_width - 1 do
              cur := u;
              iset jslot
                (match u with
                | 0 -> "!j"
                | 1 -> "!j + jstep"
                | u -> Printf.sprintf "!j + (%d * jstep)" u)
            done;
            cur := -1;
            iteration ops_of;
            out "    j := !j + (%d * jstep)" jam_width;
            out "  done;";
            out "  let len = len mod %d in" jam_width);
        out "  for _k = 0 to len - 1 do";
        iset jslot "!j";
        iteration emit_instr;
        out "    j := !j + jstep";
        out "  done;";
        IntSet.iter (fun r -> out "  Array.unsafe_set ints %d !ir%d;" r r)
          !iwritten;
        IntMap.iter (fun r v -> out "  Array.unsafe_set ints %d %s;" r (ilit v))
          !lits;
        IntSet.iter (fun r -> out "  Array.unsafe_set reals %d !fr%d;" r r)
          !fwritten;
        out "  ()";
        out "";
        (* ---- runner header: array slots, then every register the body
           touched as a local ref, read from its file once ---- *)
        let h = Buffer.create (Buffer.length b + 1024) in
        let hdr fmt = Printf.kbprintf (fun h -> Buffer.add_char h '\n') h fmt in
        hdr "let r%d : Natapi.runner =" idx;
        hdr " fun ints reals arrays j0 jstep len ->";
        let slots =
          Array.fold_left
            (fun s (ac : access) -> IntSet.add ac.ac_slot s)
            IntSet.empty tp.tp_accs
        in
        IntSet.iter
          (fun s -> hdr "  let a%d = Array.unsafe_get arrays %d in" s s)
          slots;
        IntSet.iter
          (fun r -> hdr "  let ir%d = ref (Array.unsafe_get ints %d) in" r r)
          !iused;
        IntSet.iter
          (fun r -> hdr "  let fr%d = ref (Array.unsafe_get reals %d) in" r r)
          !fused;
        List.iter
          (fun n ->
            hdr "  let %s = ref %s in" n (if n.[0] = 'i' then "0" else "0."))
          (List.sort compare !copy_refs);
        Buffer.add_buffer h b;
        Some (Buffer.contents h))

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

(* Compiler commands: [LOOPC_NATIVE_OCAMLOPT] alone when set, otherwise
   the default candidates in order. *)
let compilers () =
  match Sys.getenv_opt "LOOPC_NATIVE_OCAMLOPT" with
  | Some c when c <> "" -> [ c ]
  | _ -> [ "ocamlfind ocamlopt"; "ocamlopt.opt"; "ocamlopt" ]

let no_compiler () =
  match Sys.getenv_opt "LOOPC_NATIVE_OCAMLOPT" with
  | Some c when c <> "" -> Printf.sprintf "native compiler %s not usable" c
  | _ -> "no ocamlopt found (tried ocamlfind ocamlopt, ocamlopt)"

(* Whether a compiler command works, per process: a [-version] probe,
   or a successful build. *)
let probe_tbl : (string, bool) Hashtbl.t = Hashtbl.create 4

let cmd_ok cmd =
  match Hashtbl.find_opt probe_tbl cmd with
  | Some r -> r
  | None ->
      let r = Sys.command (cmd ^ " -version >/dev/null 2>&1") = 0 in
      Hashtbl.replace probe_tbl cmd r;
      r

let compiler () =
  match List.find_opt cmd_ok (compilers ()) with
  | Some c -> Ok c
  | None -> Error (no_compiler ())

(* How a build did not produce an artifact: the compiler failed (its
   first log line), or it was killed after this many seconds. *)
type build_error = Failed of string | Timed_out of float

(* Run [build oc] with the first compiler not known to be broken, with
   no probe first: a cold build is one compiler process. Only a failed
   build probes, to tell a broken compiler (try the next one) from a
   failing build (report its first log line); a timed-out build is not
   probed, since the probe could hang as well. *)
let with_compiler build =
  let rec go = function
    | [] -> Error (no_compiler ())
    | oc :: rest -> (
        match build oc with
        | Ok () ->
            Hashtbl.replace probe_tbl oc true;
            Ok ()
        | Error (Timed_out s) ->
            Error (Printf.sprintf "native build timed out after %g s" s)
        | Error (Failed log) ->
            if cmd_ok oc then Error ("native build failed: " ^ log)
            else go rest)
  in
  go
    (List.filter
       (fun oc -> Hashtbl.find_opt probe_tbl oc <> Some false)
       (compilers ()))

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

(* A persisted artifact is the plugin followed by a trailer: [magic] and
   the plugin's length, eight bytes little-endian. The dynamic loader
   ignores bytes past the image, and a file that lost its tail — a
   truncated copy, a zero-byte file — lacks the trailer, so [intact]
   rejects it before [Dynlink] maps it: mapping a truncated plugin
   faults (SIGBUS) instead of raising. *)
let magic = "loopcmxs"

let persist_artifact src dst =
  let ic = open_in_bin src in
  let n = in_channel_length ic in
  let buf = really_input_string ic n in
  close_in ic;
  let len = Bytes.create 8 in
  Bytes.set_int64_le len 0 (Int64.of_int n);
  let oc = open_out_bin dst in
  output_string oc buf;
  output_string oc magic;
  output_bytes oc len;
  close_out oc

let intact path =
  let tl = String.length magic + 8 in
  try
    In_channel.with_open_bin path (fun ic ->
        let size = Int64.to_int (In_channel.length ic) in
        size >= tl
        && begin
             In_channel.seek ic (Int64.of_int (size - tl));
             match In_channel.really_input_string ic tl with
             | Some t ->
                 String.starts_with ~prefix:magic t
                 && Int64.to_int (String.get_int64_le t (String.length magic))
                    = size - tl
             | None -> false
           end)
  with Sys_error _ -> false

let rec mkdirs d =
  if d <> "" && d <> "/" && not (Sys.file_exists d) then begin
    mkdirs (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

(* Seconds a plugin build may run before it is killed and the plans
   fall back to bytecode. Builds take well under a second today. *)
let build_timeout_s = 120.0

let rec restart f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart f

(* [/bin/sh -c "exec cmd"] with a pipe as its standard output, waited
   for at most [timeout] seconds: [Some status] when it exits (127 when
   it cannot start), [None] when it was killed at the deadline. The
   pipe reads end of file once the compiler and every process it
   started have exited, so [select] wakes at once, with no polling
   interval. *)
let run_bounded ~timeout cmd =
  let rd, wr = Unix.pipe ~cloexec:true () in
  match
    Unix.create_process "/bin/sh"
      [| "/bin/sh"; "-c"; "exec " ^ cmd |]
      Unix.stdin wr Unix.stderr
  with
  | exception Unix.Unix_error _ ->
      Unix.close rd;
      Unix.close wr;
      Some (Unix.WEXITED 127)
  | pid ->
      Unix.close wr;
      let deadline = Unix.gettimeofday () +. timeout in
      let buf = Bytes.create 4096 in
      let rec wait () =
        let left = deadline -. Unix.gettimeofday () in
        left > 0.0
        &&
        match restart (fun () -> Unix.select [ rd ] [] [] left) with
        | [], _, _ -> wait ()
        | _ -> restart (fun () -> Unix.read rd buf 0 4096) = 0 || wait ()
      in
      let exited = Fun.protect ~finally:(fun () -> Unix.close rd) wait in
      if not exited then (
        try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      let _, status = restart (fun () -> Unix.waitpid [] pid) in
      if exited then Some status else None

let build_cmxs ?(timeout = build_timeout_s) ~oc ~incdirs ~src ~out () =
  let log = src ^ ".log" in
  let incs =
    String.concat " " (List.map (fun d -> "-I " ^ Filename.quote d) incdirs)
  in
  let cmd =
    Printf.sprintf "%s -shared -w -a %s -o %s %s 2>%s" oc incs
      (Filename.quote out) (Filename.quote src) (Filename.quote log)
  in
  match run_bounded ~timeout cmd with
  | None -> Error (Timed_out timeout)
  | Some (Unix.WEXITED 0) when Sys.file_exists out -> Ok ()
  | Some _ ->
      Error
        (Failed
           (match read_first_line log with
           | Some l -> l
           | None -> "compiler exited nonzero"))

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

let prepare ?key ?dir ?(persist = true) ?build_timeout (t : Compile.t) :
    status =
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
                      with_compiler (fun oc ->
                          Registry.time h_build_ns (fun () ->
                              build_cmxs ?timeout:build_timeout ~oc ~incdirs
                                ~src:ml ~out ()))
                    with
                    | Error m -> fail m
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
                                persist_artifact out tmpn;
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
                            Ready { artifact_hit = false }))
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
                match
                  if intact p then load_runners p nplans
                  else Error "truncated artifact"
                with
                | Ok rs when Array.exists Option.is_some rs ->
                    Hashtbl.replace loaded digest rs;
                    attach t rs;
                    Registry.incr c_art_hit;
                    (* refresh LRU recency under LOOPC_CACHE_MAX_MB *)
                    (try Unix.utimes p 0.0 0.0 with Unix.Unix_error _ -> ());
                    Ready { artifact_hit = true }
                | Ok _ | Error _ ->
                    (* stale, truncated or corrupt artifact: drop it,
                       rebuild once *)
                    (try Sys.remove p with Sys_error _ -> ());
                    build_and_load cached_path)
            | _ -> build_and_load cached_path))
