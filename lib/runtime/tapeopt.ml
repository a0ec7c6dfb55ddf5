(* Tape optimizer: an SSA-based pass pipeline over the flat register
   tape.

   The tape is lowered once ({!Bytecode.lower}), then rewritten by a
   fixed pipeline. Every analysis pass is built on the same scaffolding:
   the CFG ({!Bytecode.build_cfg}: basic blocks split at jump targets
   and after control instructions), an iterative dominator computation,
   dominance frontiers, and minimal SSA over the int registers (phi
   placement at iterated frontiers of the def sites; phis live in side
   tables only and are never materialized — registers are not renumbered,
   so lowering back out of SSA is the identity and "copy coalescing"
   into the existing register files is free).

   Pipeline (level 2; level 0 is the lowering output untouched):
   dominator-tree global value numbering over the pure int ops
   (subsumes block-local CSE: values stay valid across branches and
   joins, invalidated by SSA versioning) and dead-write elimination;
   cross-block loop-invariant code motion (pure ops and fault-safe
   invariant loads move to serial-loop preheaders; strip-invariant pure
   ops move into the per-strip preamble); offset streaming — a group of
   accesses with one identical affine offset, executing exactly once
   per back-edge of some region (proved by a path-count dataflow over
   the CFG with back edges removed — branchy bodies qualify), trades
   its per-iteration multiply-add chain for one scratch slot
   initialized at region entry ([Sinit]) and self-bumped after each use
   ([Vs]/[Vsj], or [Vsv] with a second slot holding a run-time bump for
   variable-step loops); and superinstruction fusion. The strip body
   stays one iteration long: the executor's strip back-edge, not a
   replicated body, amortizes the per-iteration dispatch entry.

   Everything here preserves the tape's sequential results exactly:
   float operand order is never changed (results stay bit-identical)
   and stores are never reordered. Loads may move across other accesses
   (LICM hoisting, fusion-enabling sinking) — on the checked path this
   can only change which of two out-of-bounds errors reports first,
   never whether a run faults. Sanitized tapes are returned untouched,
   so sanitizer event order is trivially preserved. *)

open Bytecode

(* ---------- instruction analysis ---------- *)

let is_ctl = function
  | Jmp _ | Jii _ | Jff _ | Jffn _ | Iloop _ | Iloopc _ -> true
  | _ -> false

let pure_int = function
  | Iconst _ | Iaff _ | Imul _ | Imin _ | Imax _ -> true
  | _ -> false

let pure_float = function
  | Fmov _ | Fadd _ | Fsub _ | Fmul _ | Fdiv _ | Fmin _ | Fmax _ | Fneg _
  | Fofi _ | Fmac _ | Fmsb _ ->
      true
  | _ -> false

let iter_int_reads f = function
  | Iaff (_, a) | Sinit (_, a) -> Array.iter f a.regs
  | Imul (_, a, b)
  | Idiv (_, a, b)
  | Imod (_, a, b)
  | Icdiv (_, a, b)
  | Imin (_, a, b)
  | Imax (_, a, b)
  | Jii (_, a, b, _) ->
      f a;
      f b
  | Istep (r, _) | Fofi (_, r) -> f r
  | Iloop (_, a, bnd, _) ->
      Array.iter f a.regs;
      f bnd
  | Iloopc (r, _, bnd, _) ->
      f r;
      f bnd
  | Iconst _ | Fconst _ | Fmov _ | Fadd _ | Fsub _ | Fmul _ | Fdiv _
  | Fmin _ | Fmax _ | Fneg _ | Fmac _ | Fmsb _ | Fload _ | Fstore _ | Jmp _
  | Jff _ | Jffn _ | Fmac2 _ | Fmsb2 _ | Fldmac _ | Fldmsb _ | Fldadd _ | Fldsub _
  | Fldmul _ | Fld2add _ | Fldst _ | Icount _ ->
      ()

let iter_float_reads f = function
  | Fmov (_, s) | Fneg (_, s) | Fstore (s, _) -> f s
  | Fadd (_, a, b)
  | Fsub (_, a, b)
  | Fmul (_, a, b)
  | Fdiv (_, a, b)
  | Fmin (_, a, b)
  | Fmax (_, a, b)
  | Jff (_, a, b, _) | Jffn (_, a, b, _) ->
      f a;
      f b
  | Fmac (_, a, x, y) | Fmsb (_, a, x, y) ->
      f a;
      f x;
      f y
  | Fmac2 (_, a, _, _) | Fmsb2 (_, a, _, _) -> f a
  | Fldmac (_, a, x, _) | Fldmsb (_, a, x, _) ->
      f a;
      f x
  | Fldadd (_, x, _) | Fldsub (_, x, _) | Fldmul (_, x, _) -> f x
  | Iconst _ | Iaff _ | Imul _ | Idiv _ | Imod _ | Icdiv _ | Imin _ | Imax _
  | Istep _ | Fconst _ | Fofi _ | Fload _ | Sinit _ | Jmp _ | Jii _ | Iloop _
  | Iloopc _ | Fld2add _ | Fldst _ | Icount _ ->
      ()

let rec iter_rng_regs f = function
  | Rux | Rconst _ | Rplan _ -> ()
  | Rreg r -> f r
  | Raff (_, ts) -> Array.iter (fun (_, t) -> iter_rng_regs f t) ts
  | Rmul (a, b) | Rmin (a, b) | Rmax (a, b) | Rspan (a, b) ->
      iter_rng_regs f a;
      iter_rng_regs f b

(* ---------- jump-target bookkeeping ---------- *)

let target_flags ops =
  let n = Array.length ops in
  let t = Array.make (n + 1) false in
  Array.iter (fun op -> List.iter (fun x -> t.(x) <- true) (instr_targets op)) ops;
  t

(* Insert instructions before given positions. Every explicit jump
   target is remapped to the new index of the instruction it pointed at,
   so a jump to position [p] skips instructions inserted before [p] —
   exactly what a serial-loop back edge wants of an entry [Sinit] or a
   hoisted preheader op. The provenance array [src] is co-rewritten:
   each insert carries its own tag, surviving instructions keep theirs.
   Returns the rewritten arrays and the position map (old index -> new
   index of that same instruction). *)
let insert_at_map ops src inserts =
  let n = Array.length ops in
  let by_pos = Array.make (n + 1) [] in
  List.iter
    (fun (p, i, tag) -> by_pos.(p) <- (i, tag) :: by_pos.(p))
    (List.rev inserts);
  let newpos = Array.make (n + 1) 0 in
  let added = ref 0 in
  for i = 0 to n do
    added := !added + List.length by_pos.(i);
    newpos.(i) <- i + !added
  done;
  let out = Array.make (n + !added) (Jmp 0) in
  let osrc = Array.make (n + !added) 0 in
  let k = ref 0 in
  let put i tag =
    out.(!k) <- i;
    osrc.(!k) <- tag;
    incr k
  in
  for i = 0 to n - 1 do
    List.iter (fun (op, tag) -> put op tag) by_pos.(i);
    put (map_targets (fun t -> newpos.(t)) ops.(i)) src.(i)
  done;
  List.iter (fun (op, tag) -> put op tag) by_pos.(n);
  (out, osrc, newpos)

let insert_at ops src inserts =
  let out, osrc, _ = insert_at_map ops src inserts in
  (out, osrc)

(* Delete flagged instructions. A jump whose target died lands on the
   next surviving instruction. *)
let delete_at ops src dead =
  let n = Array.length ops in
  let newpos = Array.make (n + 1) 0 in
  let k = ref 0 in
  for i = 0 to n - 1 do
    newpos.(i) <- !k;
    if not dead.(i) then incr k
  done;
  newpos.(n) <- !k;
  let out = Array.make !k (Jmp 0) in
  let osrc = Array.make !k 0 in
  let k = ref 0 in
  for i = 0 to n - 1 do
    if not dead.(i) then begin
      out.(!k) <- map_targets (fun t -> newpos.(t)) ops.(i);
      osrc.(!k) <- src.(i);
      incr k
    end
  done;
  (out, osrc)

(* ---------- dominators, frontiers, minimal SSA ---------- *)

(* Block indexes are a reverse postorder of the CFG with back edges
   removed (lowering emits forward jumps only, plus the [Iloop]/[Iloopc]
   back edges), so the standard iterative dominator algorithm processes
   blocks in index order. *)
type dom = {
  d_idom : int array;  (** immediate dominator per block; -1 = unreachable *)
  d_children : int list array;  (** dominator-tree children *)
  d_phis : int list array;
      (** per block: int registers that carry a phi at block entry —
          minimal SSA via iterated dominance frontiers of the def sites.
          Phis are analysis-only: versions in the renaming walk, never
          instructions. *)
}

let max_int_reg ops =
  let m = ref (-1) in
  Array.iter
    (fun op ->
      iter_int_reads (fun r -> if r > !m then m := r) op;
      match int_dst op with Some d when d > !m -> m := d | _ -> ())
    ops;
  !m + 1

let build_dom (cfg : cfg) ops =
  let nb = Array.length cfg.cf_blocks in
  let idom = Array.make nb (-1) in
  idom.(0) <- 0;
  let rec intersect a b =
    if a = b then a
    else if a > b then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = 1 to nb - 1 do
      let preds =
        List.filter (fun p -> idom.(p) >= 0) cfg.cf_blocks.(b).bb_preds
      in
      match preds with
      | [] -> ()
      | p :: rest ->
          let ni = List.fold_left intersect p rest in
          if idom.(b) <> ni then begin
            idom.(b) <- ni;
            changed := true
          end
    done
  done;
  (* Dominance frontiers (reachable blocks only). *)
  let df = Array.make nb [] in
  for b = 0 to nb - 1 do
    if idom.(b) >= 0 then begin
      let preds =
        List.filter (fun p -> idom.(p) >= 0) cfg.cf_blocks.(b).bb_preds
      in
      match preds with
      | _ :: _ :: _ ->
          List.iter
            (fun p ->
              let r = ref p in
              while !r <> idom.(b) do
                if not (List.mem b df.(!r)) then df.(!r) <- b :: df.(!r);
                r := idom.(!r)
              done)
            preds
      | _ -> ()
    end
  done;
  (* Phi placement: iterated dominance frontiers of each register's def
     blocks. *)
  let nregs = max_int_reg ops in
  let defblocks = Array.make (max 1 nregs) [] in
  Array.iteri
    (fun i op ->
      match int_dst op with
      | Some d ->
          let b = cfg.cf_block_of.(i) in
          if idom.(b) >= 0 && not (List.mem b defblocks.(d)) then
            defblocks.(d) <- b :: defblocks.(d)
      | None -> ())
    ops;
  let phis = Array.make nb [] in
  for r = 0 to nregs - 1 do
    if defblocks.(r) <> [] then begin
      let work = Queue.create () in
      let onwork = Array.make nb false in
      let placed = Array.make nb false in
      List.iter
        (fun b ->
          onwork.(b) <- true;
          Queue.add b work)
        defblocks.(r);
      while not (Queue.is_empty work) do
        let b = Queue.pop work in
        List.iter
          (fun d ->
            if not placed.(d) then begin
              placed.(d) <- true;
              phis.(d) <- r :: phis.(d);
              if not onwork.(d) then begin
                onwork.(d) <- true;
                Queue.add d work
              end
            end)
          df.(b)
      done
    end
  done;
  let children = Array.make nb [] in
  for b = nb - 1 downto 1 do
    if idom.(b) >= 0 then children.(idom.(b)) <- b :: children.(idom.(b))
  done;
  { d_idom = idom; d_children = children; d_phis = phis }

(* ---------- dominator-tree global value numbering (ints) ---------- *)

type ckey =
  | Kconst of int
  | Kaff of int * (int * int) array  (** base, (coef, value number) *)
  | Kmul of int * int
  | Kmin of int * int
  | Kmax of int * int

(* Value numbering over the pure int ops (faulting ops — div/mod/cdiv/
   step — are neither candidates nor keys), keyed on SSA versions: the
   renaming walk runs down the dominator tree with a scoped value table,
   so a value computed before a branch stays available in both arms and
   after the join, while any register redefined on a non-dominating path
   is invalidated by the phi version at the merge. A duplicate becomes a
   register move; the dead-write pass below then drops writes nothing
   reads. *)
let gvn ops =
  let n = Array.length ops in
  if n = 0 then ops
  else begin
    let cfg = build_cfg ops in
    let dom = build_dom cfg ops in
    let nregs = max_int_reg ops in
    let stacks = Array.make (max 1 nregs) [] in
    let top r = match stacks.(r) with v :: _ -> v | [] -> 0 in
    let next = ref 1 in
    let table : (ckey, int * int) Hashtbl.t = Hashtbl.create 64 in
    let out = Array.copy ops in
    let rec walk b =
      let pushed = ref [] and added = ref [] in
      let push_ver r v =
        stacks.(r) <- v :: stacks.(r);
        pushed := r :: !pushed
      in
      let push r =
        push_ver r !next;
        incr next
      in
      List.iter push dom.d_phis.(b);
      let blk = cfg.cf_blocks.(b) in
      for i = blk.bb_start to blk.bb_stop - 1 do
        let op = ops.(i) in
        (* A register's value number: its top SSA version (globally
           unique — the counter never repeats), or a negative per-register
           encoding for live-ins that share version 0. *)
        let vn r =
          let v = top r in
          if v = 0 then -(r + 1) else v
        in
        let key =
          match op with
          | Iconst (_, v) -> Some (Kconst v)
          | Iaff (_, a) ->
              Some
                (Kaff
                   (a.base, Array.mapi (fun m r -> (a.coefs.(m), vn r)) a.regs))
          | Imul (_, a, b) -> Some (Kmul (vn a, vn b))
          | Imin (_, a, b) -> Some (Kmin (vn a, vn b))
          | Imax (_, a, b) -> Some (Kmax (vn a, vn b))
          | _ -> None
        in
        match (key, int_dst op) with
        | Some k, Some d -> (
            match Hashtbl.find_opt table k with
            | Some (x, vx) when top x = vx && x <> d ->
                out.(i) <- Iaff (d, aff_reg x);
                (* [d] now aliases [x]: give it [x]'s value number so
                   expressions over [d] keep hitting downstream. *)
                push_ver d vx
            | _ ->
                push d;
                Hashtbl.add table k (d, top d);
                added := k :: !added)
        | None, Some d -> push d
        | _, None -> ()
      done;
      List.iter walk dom.d_children.(b);
      List.iter (fun k -> Hashtbl.remove table k) !added;
      List.iter (fun r -> stacks.(r) <- List.tl stacks.(r)) !pushed
    in
    walk 0;
    out
  end

(* ---------- dead-write elimination (ints) ---------- *)

(* Drop pure int writes nothing reads: not another instruction (or a
   stream initializer), not an access subscript/offset, not a symbolic
   range. Registers below [int_base] are observable program scalars and
   are always kept. *)
let dce ~int_base (t : tape) =
  let rec go (ops, src) rounds =
    if rounds = 0 then (ops, src)
    else begin
      let read = Hashtbl.create 64 in
      let mark r = Hashtbl.replace read r () in
      Array.iter (iter_int_reads mark) ops;
      Array.iter (iter_int_reads mark) t.tp_pre;
      Array.iter
        (fun ac ->
          Array.iter (fun a -> Array.iter mark a.regs) ac.ac_subs;
          Array.iter mark ac.ac_var.regs;
          Array.iter mark ac.ac_inv.regs;
          Array.iter (iter_rng_regs mark) ac.ac_rngs)
        t.tp_accs;
      let dead =
        Array.map
          (fun op ->
            match op with
            | Iconst (d, _) | Iaff (d, _) | Imul (d, _, _) | Imin (d, _, _)
            | Imax (d, _, _) ->
                d >= int_base && not (Hashtbl.mem read d)
            | _ -> false)
          ops
      in
      if Array.exists Fun.id dead then go (delete_at ops src dead) (rounds - 1)
      else (ops, src)
    end
  in
  let ops, src = go (t.tp_ops, t.tp_src) 4 in
  { t with tp_ops = ops; tp_src = src }

(* ---------- cross-block loop-invariant code motion ---------- *)

(* Serial-loop regions [l_top, l_back] and the strip itself. A candidate
   is a single-def register (so moving the one def cannot clobber
   another live value, and any extra execution — a def hoisted from
   under a branch — only writes a register whose every read is dominated
   by this same def) above the base (program scalars keep their
   per-iteration writes), whose operands have no def inside the region
   (or only defs that are themselves being hoisted, so chains move
   together in textual order).

   Pure int/float ops hoist from anywhere in the region. An invariant
   load additionally requires: its access id occurs exactly once in the
   tape, every register its offset/subscripts read is region-invariant,
   no instruction of the region stores into the load's array slot
   (region-invariant subscripts say nothing about whether another
   access of the same array aliases it across iterations), and no
   control flow sits between the region top and the load — the
   preheader copy then executes exactly when the first iteration of an
   entered loop would have. Hoisting a load past an earlier faulting
   instruction (another access's bounds check, a division) is allowed:
   whether the region faults is unchanged, only which of two faulting
   instructions reports first may differ on the checked path. Loads
   never move to the strip preamble ([tp_pre] stays access-free).

   The preheader is the insertion point [l_top]: the back edge is
   remapped past the inserts by [insert_at_map], and the loop's entry
   guard sits before them — a zero-trip loop executes nothing, exactly
   as before. *)

type loopinfo = {
  l_top : int;
  l_back : int;
  l_reg : int;
  l_bump : [ `Const of int | `Aff of aff ];
      (** per-iteration induction increment: constant, or an affine form
          over registers written outside the loop (variable step) *)
}

let collect_loops ops =
  let loops = ref [] in
  Array.iteri
    (fun i op ->
      match op with
      | Iloopc (r, c, _, top) ->
          loops := { l_top = top; l_back = i; l_reg = r; l_bump = `Const c } :: !loops
      | Iloop (r, incr, _, top) ->
          loops :=
            { l_top = top; l_back = i; l_reg = r; l_bump = `Aff (aff_sub incr (aff_reg r)) }
            :: !loops
      | _ -> ())
    ops;
  !loops

let count_writes ops pre =
  let ints = Hashtbl.create 32 and flts = Hashtbl.create 32 in
  let bump tbl r =
    Hashtbl.replace tbl r (1 + Option.value ~default:0 (Hashtbl.find_opt tbl r))
  in
  let scan op =
    (match int_dst op with Some d -> bump ints d | None -> ());
    match float_dst op with Some d -> bump flts d | None -> ()
  in
  Array.iter scan ops;
  Array.iter scan pre;
  (ints, flts)

let acc_id_positions ops naccs =
  let pos = Array.make (max 1 naccs) [] in
  Array.iteri
    (fun i op ->
      let add id = pos.(id) <- i :: pos.(id) in
      match op with
      | Fload (_, id) | Fstore (_, id) -> add id
      | Fldst (i1, i2) ->
          add i1;
          add i2
      | Fmac2 (_, _, i1, i2) | Fmsb2 (_, _, i1, i2) | Fld2add (_, i1, i2) ->
          add i1;
          add i2
      | Fldmac (_, _, _, id) | Fldmsb (_, _, _, id) | Fldadd (_, _, id)
      | Fldsub (_, _, id) | Fldmul (_, _, id) ->
          add id
      | _ -> ())
    ops;
  pos

(* Hoistable set of one region, in textual order. *)
let region_hoists ~int_base ~real_base (t : tape) ops (l : loopinfo) =
  let ints_c, flts_c = count_writes ops t.tp_pre in
  let count tbl r = Option.value ~default:0 (Hashtbl.find_opt tbl r) in
  let idpos = acc_id_positions ops (Array.length t.tp_accs) in
  let rdef_i = Hashtbl.create 16 and rdef_f = Hashtbl.create 16 in
  for i = l.l_top to l.l_back do
    (match int_dst ops.(i) with
    | Some d -> Hashtbl.replace rdef_i d ()
    | None -> ());
    match float_dst ops.(i) with
    | Some d -> Hashtbl.replace rdef_f d ()
    | None -> ()
  done;
  let hoist_i = Hashtbl.create 8 and hoist_f = Hashtbl.create 8 in
  let inv_i r = (not (Hashtbl.mem rdef_i r)) || Hashtbl.mem hoist_i r in
  let inv_f r = (not (Hashtbl.mem rdef_f r)) || Hashtbl.mem hoist_f r in
  (* Array slots some iteration of the region stores into. An
     "invariant" load from one of these could read a value a previous
     iteration wrote (the subscripts being region-invariant says nothing
     about what other accesses of the same array alias), so such loads
     never hoist, wherever the store sits. *)
  let stored_slots = Hashtbl.create 4 in
  for i = l.l_top to l.l_back do
    match ops.(i) with
    | Fstore (_, id) | Fldst (_, id) ->
        Hashtbl.replace stored_slots t.tp_accs.(id).ac_slot ()
    | _ -> ()
  done;
  let moves = ref [] in
  let safe = ref true in
  for i = l.l_top to l.l_back - 1 do
    let op = ops.(i) in
    let ops_inv = ref true in
    iter_int_reads (fun r -> if not (inv_i r) then ops_inv := false) op;
    iter_float_reads (fun r -> if not (inv_f r) then ops_inv := false) op;
    let cand =
      if pure_int op then
        match int_dst op with
        | Some d when d >= int_base && count ints_c d = 1 && !ops_inv ->
            Some (`I d)
        | _ -> None
      else if pure_float op then
        match float_dst op with
        | Some d when d >= real_base && count flts_c d = 1 && !ops_inv ->
            Some (`F d)
        | _ -> None
      else
        match op with
        | Fload (d, id)
          when !safe && d >= real_base
               && count flts_c d = 1
               && (match idpos.(id) with [ _ ] -> true | _ -> false)
               && not (Hashtbl.mem stored_slots t.tp_accs.(id).ac_slot) ->
            let ac = t.tp_accs.(id) in
            let ok = ref true in
            let chk r = if not (inv_i r) then ok := false in
            Array.iter (fun a -> Array.iter chk a.regs) ac.ac_subs;
            Array.iter chk ac.ac_inv.regs;
            Array.iter chk ac.ac_var.regs;
            if !ok then Some (`F d) else None
        | _ -> None
    in
    match cand with
    | Some (`I d) ->
        moves := (i, op) :: !moves;
        Hashtbl.replace hoist_i d ()
    | Some (`F d) ->
        moves := (i, op) :: !moves;
        Hashtbl.replace hoist_f d ()
    | None -> if is_ctl op then safe := false
  done;
  List.rev !moves

(* Move [moves] (textual order) to the preheader at [l_top]: insert
   copies before the loop top — the back edge is remapped past them —
   then delete the originals. Each hoisted copy keeps the original's
   provenance tag. *)
let apply_hoist ops src l_top moves =
  let inserts = List.map (fun (p, op) -> (l_top, op, src.(p))) moves in
  let out, osrc, newpos = insert_at_map ops src inserts in
  let dead = Array.make (Array.length out) false in
  List.iter (fun (p, _) -> dead.(newpos.(p)) <- true) moves;
  delete_at out osrc dead

let licm_serial ~int_base ~real_base (t : tape) =
  let rec round (ops, src) budget =
    if budget = 0 then (ops, src)
    else begin
      let loops =
        List.sort
          (fun a b -> compare (a.l_back - a.l_top) (b.l_back - b.l_top))
          (collect_loops ops)
      in
      let rec try_loops = function
        | [] -> (ops, src)
        | l :: rest -> (
            match region_hoists ~int_base ~real_base t ops l with
            | [] -> try_loops rest
            | moves -> round (apply_hoist ops src l.l_top moves) (budget - 1))
      in
      try_loops loops
    end
  in
  let ops, src = round (t.tp_ops, t.tp_src) 16 in
  { t with tp_ops = ops; tp_src = src }

(* Strip-level motion: pure ops whose operands have no def anywhere in
   the body and are not the strip index move to the per-strip preamble
   ([tp_pre] runs once per strip, after the strip index is set). Loads
   stay in the body — streaming covers their cost. *)
let licm_strip ~int_base ~real_base ~jslot (t : tape) =
  let ops = t.tp_ops in
  let ints_c, flts_c = count_writes ops t.tp_pre in
  let count tbl r = Option.value ~default:0 (Hashtbl.find_opt tbl r) in
  let hoist_i = Hashtbl.create 8 and hoist_f = Hashtbl.create 8 in
  let inv_i r =
    r <> jslot && (count ints_c r = 0 || Hashtbl.mem hoist_i r)
  in
  let inv_f r = count flts_c r = 0 || Hashtbl.mem hoist_f r in
  let moves = ref [] in
  Array.iteri
    (fun i op ->
      let ops_inv = ref true in
      iter_int_reads (fun r -> if not (inv_i r) then ops_inv := false) op;
      iter_float_reads (fun r -> if not (inv_f r) then ops_inv := false) op;
      let cand =
        if pure_int op then
          match int_dst op with
          | Some d when d >= int_base && count ints_c d = 1 && !ops_inv ->
              Some (`I d)
          | _ -> None
        else if pure_float op then
          match float_dst op with
          | Some d when d >= real_base && count flts_c d = 1 && !ops_inv ->
              Some (`F d)
          | _ -> None
        else None
      in
      match cand with
      | Some (`I d) ->
          moves := (i, op) :: !moves;
          Hashtbl.replace hoist_i d ()
      | Some (`F d) ->
          moves := (i, op) :: !moves;
          Hashtbl.replace hoist_f d ()
      | None -> ())
    ops;
  match List.rev !moves with
  | [] -> t
  | moves ->
      let dead = Array.make (Array.length ops) false in
      List.iter (fun (p, _) -> dead.(p) <- true) moves;
      let ops', src' = delete_at ops t.tp_src dead in
      {
        t with
        tp_pre =
          Array.append t.tp_pre (Array.of_list (List.map snd moves));
        tp_pre_src =
          Array.append t.tp_pre_src
            (Array.of_list (List.map (fun (p, _) -> t.tp_src.(p)) moves));
        tp_ops = ops';
        tp_src = src';
      }

let licm ~int_base ~real_base ~jslot (t : tape) =
  licm_strip ~int_base ~real_base ~jslot (licm_serial ~int_base ~real_base t)

(* ---------- offset streaming ---------- *)

(* A group of accesses sharing one offset function streams through one
   scratch slot when exactly one member executes per back-edge of the
   region — proved by a path-count dataflow over the CFG with back edges
   removed (block order is a topological order of that DAG). Masks carry
   the set of possible counts {0, 1, >=2} as bits. *)
let mshift mask k =
  if k = 0 then mask
  else begin
    let out = ref 0 in
    for b = 0 to 2 do
      if mask land (1 lsl b) <> 0 then out := !out lor (1 lsl min 2 (b + k))
    done;
    !out
  end

(* Exactly once on every path from tape entry to tape exit. *)
let once_strip (cfg : cfg) counts =
  let nb = Array.length cfg.cf_blocks in
  let inm = Array.make nb 0 in
  inm.(0) <- 1;
  for b = 0 to nb - 1 do
    if inm.(b) <> 0 then begin
      let out = mshift inm.(b) counts.(b) in
      List.iter
        (fun s -> if s > b then inm.(s) <- inm.(s) lor out)
        cfg.cf_blocks.(b).bb_succs
    end
  done;
  inm.(nb - 1) = 2

(* Exactly once on every path from the region entry block through the
   back-edge block, with no edges entering or leaving the region body
   elsewhere. *)
let once_region (cfg : cfg) counts ~entry ~stop_b =
  let ok = ref true in
  for b = entry + 1 to stop_b do
    List.iter
      (fun p -> if p < entry || p > stop_b then ok := false)
      cfg.cf_blocks.(b).bb_preds
  done;
  let inm = Array.make (Array.length cfg.cf_blocks) 0 in
  inm.(entry) <- 1;
  for b = entry to stop_b - 1 do
    if inm.(b) <> 0 then begin
      let out = mshift inm.(b) counts.(b) in
      List.iter
        (fun s ->
          if s > b && s <= stop_b then inm.(s) <- inm.(s) lor out
          else if s > stop_b then ok := false)
        cfg.cf_blocks.(b).bb_succs
    end
  done;
  !ok && mshift inm.(stop_b) counts.(stop_b) = 2

let stream ~jslot (t : tape) =
  let ops = t.tp_ops in
  let naccs = Array.length t.tp_accs in
  if naccs = 0 then t
  else begin
    let cfg = build_cfg ops in
    let pos = acc_id_positions ops naccs in
    let loops = collect_loops ops in
    let innermost p =
      List.fold_left
        (fun best l ->
          if l.l_top <= p && p < l.l_back then
            match best with
            | Some b when b.l_top >= l.l_top -> best
            | _ -> Some l
          else best)
        None loops
    in
    let written_in lo hi_excl r =
      let w = ref false in
      for i = lo to hi_excl - 1 do
        match int_dst ops.(i) with Some d when d = r -> w := true | _ -> ()
      done;
      !w
    in
    let shape id =
      let ac = t.tp_accs.(id) in
      (ac.ac_slot, ac.ac_subs, ac.ac_rngs, ac.ac_inv, ac.ac_var)
    in
    let nstreams = ref t.tp_nstreams in
    let pre_adds = ref [] and ops_adds = ref [] in
    let accs = Array.copy t.tp_accs in
    (* Try one candidate member set (same shape) against one shared
       slot; returns true when slots were assigned. The whole shape
       group is tried first — exclusive branch arms stream together —
       then each member alone (a same-shape load/store pair fails the
       group's exactly-once count but each side streams fine by
       itself). An access id appearing twice (promoted element) fails
       both ways and stays unstreamed. *)
    let try_members members =
      let ps = List.concat_map (fun j -> pos.(j)) members in
      let ac = t.tp_accs.(List.hd members) in
      let full = aff_add ac.ac_inv ac.ac_var in
      let counts = Array.make (Array.length cfg.cf_blocks) 0 in
      List.iter
        (fun p ->
          let b = cfg.cf_block_of.(p) in
          counts.(b) <- counts.(b) + 1)
        ps;
      let regions = List.map innermost ps in
      match regions with
      | [] -> false
      | None :: rest when List.for_all (( = ) None) rest -> (
          (* Strip-level stream: variant part is the strip index alone
             and the group executes exactly once per iteration. *)
          match ac.ac_vk with
          | V1 (c, r) when r = jslot && once_strip cfg counts ->
              let s = naccs + !nstreams in
              incr nstreams;
              pre_adds := Sinit (s, full) :: !pre_adds;
              List.iter
                (fun j -> accs.(j) <- { accs.(j) with ac_vk = Vsj (s, c) })
                members;
              true
          | _ -> false)
      | Some l :: rest
        when List.for_all
               (function
                 | Some l' -> l'.l_top = l.l_top && l'.l_back = l.l_back
                 | None -> false)
               rest ->
          (* Serial-loop stream: all members sit directly in one loop
             region (not in a nested loop). The variant part must have
             a term on the loop induction and every other register
             must be loop-invariant. *)
          let lcoef = ref 0 and others_ok = ref true in
          Array.iteri
            (fun m r ->
              if r = l.l_reg then lcoef := ac.ac_var.coefs.(m)
              else if written_in l.l_top l.l_back r then others_ok := false)
            ac.ac_var.regs;
          let entry = cfg.cf_block_of.(l.l_top)
          and stop_b = cfg.cf_block_of.(l.l_back) in
          if
            !lcoef <> 0 && !others_ok
            && once_region cfg counts ~entry ~stop_b
          then begin
            match l.l_bump with
            | `Const c ->
                let s = naccs + !nstreams in
                incr nstreams;
                (* Entry [Sinit]s run once per loop entry: tag them with
                   the loop they stream (the back edge's tag). *)
                ops_adds :=
                  (l.l_top, Sinit (s, full), t.tp_src.(l.l_back)) :: !ops_adds;
                List.iter
                  (fun j ->
                    accs.(j) <- { accs.(j) with ac_vk = Vs (s, !lcoef * c) })
                  members;
                true
            | `Aff step ->
                let bump = aff_scale !lcoef step in
                if
                  Array.for_all
                    (fun r -> not (written_in l.l_top (l.l_back + 1) r))
                    bump.regs
                then begin
                  let s = naccs + !nstreams in
                  let bs = s + 1 in
                  nstreams := !nstreams + 2;
                  let tag = t.tp_src.(l.l_back) in
                  ops_adds :=
                    (l.l_top, Sinit (bs, bump), tag)
                    :: (l.l_top, Sinit (s, full), tag)
                    :: !ops_adds;
                  List.iter
                    (fun j -> accs.(j) <- { accs.(j) with ac_vk = Vsv (s, bs) })
                    members;
                  true
                end
                else false
          end
          else false
      | _ -> false
    in
    let grouped = Array.make naccs false in
    for id = 0 to naccs - 1 do
      if (not grouped.(id)) && pos.(id) <> [] then begin
        let members = ref [] in
        for j = naccs - 1 downto id do
          if (not grouped.(j)) && pos.(j) <> [] && shape j = shape id then begin
            grouped.(j) <- true;
            members := j :: !members
          end
        done;
        let members = !members in
        if not (try_members members) then
          match members with
          | _ :: _ :: _ ->
              List.iter (fun j -> ignore (try_members [ j ])) members
          | _ -> ()
      end
    done;
    if !nstreams = t.tp_nstreams then t
    else begin
      let pre_adds = List.rev !pre_adds in
      let ops', src' = insert_at ops t.tp_src (List.rev !ops_adds) in
      {
        t with
        tp_pre = Array.append t.tp_pre (Array.of_list pre_adds);
        tp_pre_src =
          Array.append t.tp_pre_src
            (Array.make (List.length pre_adds) 0);
        tp_ops = ops';
        tp_src = src';
        tp_accs = accs;
        tp_nstreams = !nstreams;
      }
    end
  end

(* ---------- load sinking ---------- *)

(* Move single-use [Fload]s down to sit immediately above their unique
   consumer, so the adjacency-based fuser below can collapse the pair.
   Lowering emits all of a statement's loads first, so an expression
   with three or more loads leaves every load except the last separated
   from its consumer and the fuser blind to it — sinking turns e.g. a
   5-point stencil body (5 loads + 4 adds) into an [Fld2add] plus a
   chain of [Fldadd]s.

   A load may cross the gap when the gap is straight-line (no control
   instruction, and no jump target anywhere in [old pos, new pos] —
   moving across a target would let control skip the load), no op in
   the gap stores into the load's array slot, writes its destination
   register, writes an int register its checked-path subscripts or
   variant offset read, or re-initializes its stream scratch slot.
   Streamed offsets self-bump per use of their own access, so crossing
   other accesses leaves every offset sequence unchanged. Crossing
   another faulting op only changes which of two errors reports first
   (see the module header). *)
let sink_loads ~real_base (t : tape) =
  let acc_regs id =
    let acc = t.tp_accs.(id) in
    let rs = ref [] in
    let add r = if not (List.mem r !rs) then rs := r :: !rs in
    Array.iter (fun (a : aff) -> Array.iter add a.regs) acc.ac_subs;
    Array.iter add acc.ac_var.regs;
    Array.iter add acc.ac_inv.regs;
    !rs
  in
  let acc_streams id =
    match t.tp_accs.(id).ac_vk with
    | Vs (s, _) | Vsj (s, _) -> [ s ]
    | Vsv (s, b) -> [ s; b ]
    | V0 | V1 _ | V2 _ | Vn -> []
  in
  let rec pass (ops, src) budget =
    if budget = 0 then (ops, src)
    else begin
      let n = Array.length ops in
      let tflags = target_flags ops in
      let reads = Hashtbl.create 32 in
      Array.iteri
        (fun i op ->
          iter_float_reads
            (fun r ->
              Hashtbl.replace reads r
                (i :: Option.value ~default:[] (Hashtbl.find_opt reads r)))
            op)
        ops;
      let moved = ref None in
      let i = ref 0 in
      while !moved = None && !i < n do
        (match ops.(!i) with
        | Fload (d, id) when d >= real_base -> (
            match Hashtbl.find_opt reads d with
            | Some [ j ] when j > !i + 1 ->
                let regs = acc_regs id and streams = acc_streams id in
                let slot = t.tp_accs.(id).ac_slot in
                let ok = ref true in
                for k = !i to j do
                  if tflags.(k) then ok := false
                done;
                for k = !i + 1 to j - 1 do
                  let op = ops.(k) in
                  if is_ctl op then ok := false;
                  (match op with
                  | Fstore (_, id2) | Fldst (_, id2) ->
                      if t.tp_accs.(id2).ac_slot = slot then ok := false
                  | Sinit (s, _) -> if List.mem s streams then ok := false
                  | _ -> ());
                  (match int_dst op with
                  | Some r when List.mem r regs -> ok := false
                  | _ -> ());
                  match float_dst op with
                  | Some r when r = d -> ok := false
                  | _ -> ()
                done;
                if !ok then moved := Some (!i, j)
            | _ -> ())
        | _ -> ());
        incr i
      done;
      match !moved with
      | None -> (ops, src)
      | Some (i, j) ->
          let ld = ops.(i) and lt = src.(i) in
          let out = Array.make n ld in
          let osrc = Array.make n lt in
          Array.blit ops 0 out 0 i;
          Array.blit ops (i + 1) out i (j - i - 1);
          out.(j - 1) <- ld;
          Array.blit ops j out j (n - j);
          Array.blit src 0 osrc 0 i;
          Array.blit src (i + 1) osrc i (j - i - 1);
          osrc.(j - 1) <- lt;
          Array.blit src j osrc j (n - j);
          pass (out, osrc) (budget - 1)
    end
  in
  let ops, src = pass (t.tp_ops, t.tp_src) 64 in
  { t with tp_ops = ops; tp_src = src }

(* ---------- superinstruction fusion ---------- *)

(* Collapse a load (or a load pair) into its unique adjacent consumer.
   Requirements: the load destination is a lowering temporary (>= the
   plan's first fresh register) with exactly one read in the whole tape,
   the consumed instructions are not jump targets (the group head may
   be), and float operand order is preserved exactly — so results,
   checked-path fault order and shadow-hook order are bit-identical.
   Two adjacent loads never share a stream slot (a shared slot requires
   exclusive branch arms), so swapping the ids of a reversed pair only
   swaps independent offset computations. *)
let fuse ~real_base (t : tape) =
  let rec pass (ops, src) budget =
    if budget = 0 then (ops, src)
    else begin
      let n = Array.length ops in
      let tflags = target_flags ops in
      let rc : (int, int) Hashtbl.t = Hashtbl.create 32 in
      Array.iter
        (iter_float_reads (fun r ->
             Hashtbl.replace rc r
               (1 + Option.value ~default:0 (Hashtbl.find_opt rc r))))
        ops;
      let rc1 r = r >= real_base && Hashtbl.find_opt rc r = Some 1 in
      let work = Array.copy ops in
      let dead = Array.make n false in
      let changed = ref false in
      let i = ref 0 in
      while !i < n do
        let fused3 =
          if !i + 2 < n && (not tflags.(!i + 1)) && not tflags.(!i + 2) then
            match (work.(!i), work.(!i + 1), work.(!i + 2)) with
            | Fload (a, i1), Fload (b, i2), Fmac (d, acc, x, y)
              when x = a && y = b && a <> b && rc1 a && rc1 b && acc <> a
                   && acc <> b ->
                Some (Fmac2 (d, acc, i1, i2))
            (* Operands in reverse load order: swap the ids so the fused
               multiply keeps the original operand order bit-exactly. *)
            | Fload (a, i1), Fload (b, i2), Fmac (d, acc, x, y)
              when x = b && y = a && a <> b && rc1 a && rc1 b && acc <> a
                   && acc <> b ->
                Some (Fmac2 (d, acc, i2, i1))
            | Fload (a, i1), Fload (b, i2), Fmsb (d, acc, x, y)
              when x = a && y = b && a <> b && rc1 a && rc1 b && acc <> a
                   && acc <> b ->
                Some (Fmsb2 (d, acc, i1, i2))
            | Fload (a, i1), Fload (b, i2), Fmsb (d, acc, x, y)
              when x = b && y = a && a <> b && rc1 a && rc1 b && acc <> a
                   && acc <> b ->
                Some (Fmsb2 (d, acc, i2, i1))
            | Fload (a, i1), Fload (b, i2), Fadd (d, x, y)
              when x = a && y = b && a <> b && rc1 a && rc1 b ->
                Some (Fld2add (d, i1, i2))
            | Fload (a, i1), Fload (b, i2), Fadd (d, x, y)
              when x = b && y = a && a <> b && rc1 a && rc1 b ->
                Some (Fld2add (d, i2, i1))
            | _ -> None
          else None
        in
        let fused2 =
          if fused3 <> None then None
          else if !i + 1 < n && not tflags.(!i + 1) then
            match (work.(!i), work.(!i + 1)) with
            | Fload (a, id), Fmac (d, acc, x, y)
              when y = a && x <> a && acc <> a && rc1 a ->
                Some (Fldmac (d, acc, x, id))
            | Fload (a, id), Fmsb (d, acc, x, y)
              when y = a && x <> a && acc <> a && rc1 a ->
                Some (Fldmsb (d, acc, x, id))
            | Fload (a, id), Fadd (d, x, y) when y = a && x <> a && rc1 a ->
                Some (Fldadd (d, x, id))
            | Fload (a, id), Fsub (d, x, y) when y = a && x <> a && rc1 a ->
                Some (Fldsub (d, x, id))
            | Fload (a, id), Fmul (d, x, y) when y = a && x <> a && rc1 a ->
                Some (Fldmul (d, x, id))
            | Fload (a, id), Fstore (s, id2) when s = a && rc1 a ->
                Some (Fldst (id, id2))
            | _ -> None
          else None
        in
        match (fused3, fused2) with
        | Some f, _ ->
            work.(!i) <- f;
            dead.(!i + 1) <- true;
            dead.(!i + 2) <- true;
            changed := true;
            i := !i + 3
        | None, Some f ->
            work.(!i) <- f;
            dead.(!i + 1) <- true;
            changed := true;
            i := !i + 2
        | None, None -> incr i
      done;
      if !changed then pass (delete_at work src dead) (budget - 1)
      else (ops, src)
    end
  in
  let ops, src = pass (t.tp_ops, t.tp_src) 8 in
  { t with tp_ops = ops; tp_src = src }

(* Branch inversion: a conditional that skips exactly one unconditional
   jump (the lowering shape for an if/else: [jcc -> then; jmp else])
   becomes a single conditional to the else target, saving a dispatch on
   every then-path iteration. Int comparisons negate exactly; float
   comparisons keep their NaN behavior by negating the jump direction
   ([Jffn]) instead of the operator. The skipped [Jmp] must not itself
   be a jump target. *)
let invert_branches (t : tape) =
  let ops = t.tp_ops in
  let n = Array.length ops in
  let tflags = target_flags ops in
  let neg : Loopcoal_ir.Ast.relop -> Loopcoal_ir.Ast.relop = function
    | Eq -> Ne
    | Ne -> Eq
    | Lt -> Ge
    | Le -> Gt
    | Gt -> Le
    | Ge -> Lt
  in
  let work = Array.copy ops in
  let dead = Array.make n false in
  let changed = ref false in
  for i = 0 to n - 2 do
    match (ops.(i), ops.(i + 1)) with
    | Jii (op, a, b, t0), Jmp e when t0 = i + 2 && not tflags.(i + 1) ->
        work.(i) <- Jii (neg op, a, b, e);
        dead.(i + 1) <- true;
        changed := true
    | Jff (op, a, b, t0), Jmp e when t0 = i + 2 && not tflags.(i + 1) ->
        work.(i) <- Jffn (op, a, b, e);
        dead.(i + 1) <- true;
        changed := true
    | _ -> ()
  done;
  if !changed then begin
    let ops', src' = delete_at work t.tp_src dead in
    { t with tp_ops = ops'; tp_src = src' }
  end
  else t

(* ---------- driver ---------- *)

module Registry = Loopcoal_obs.Registry

let pass_names = [ "lower"; "gvn"; "licm"; "stream"; "fuse" ]

(* Per-pass wall-time histograms and instruction-delta counters, keyed
   by pass name. Handles are created once at module init; the hot path
   only touches their atomics. *)
let pass_metrics =
  List.map
    (fun name ->
      ( name,
        ( Registry.histogram (Printf.sprintf "tapeopt.%s.ns" name),
          Registry.counter (Printf.sprintf "tapeopt.%s.instrs_in" name),
          Registry.counter (Printf.sprintf "tapeopt.%s.instrs_out" name) ) ))
    (List.filter (fun n -> n <> "lower") pass_names)

let tape_len (t : tape) = Array.length t.tp_pre + Array.length t.tp_ops

(* Every pass must keep the provenance side tables aligned with the
   instruction arrays it rewrites; a skew here would silently
   mis-attribute profiles, so fail loudly. *)
let check_provenance name (t : tape) =
  let chk what a b =
    if a <> b then
      invalid_arg
        (Printf.sprintf "Tapeopt.%s: %s provenance skew (%d tags, %d instrs)"
           name what a b)
  in
  chk "ops" (Array.length t.tp_src) (Array.length t.tp_ops);
  chk "pre" (Array.length t.tp_pre_src) (Array.length t.tp_pre)

let optimize ?dump ~level ~jslot ~int_base ~real_base tape =
  let emit name t =
    check_provenance name t;
    (match dump with Some f -> f ~pass:name t | None -> ());
    t
  in
  let stage name f t =
    let h, c_in, c_out = List.assoc name pass_metrics in
    Registry.add c_in (tape_len t);
    let t' = Registry.time h (fun () -> f t) in
    Registry.add c_out (tape_len t');
    emit name t'
  in
  let tape = emit "lower" tape in
  if level <= 0 || sanitized tape then tape
  else begin
    let t =
      stage "gvn"
        (fun t -> dce ~int_base { t with tp_ops = gvn t.tp_ops })
        tape
    in
    let t = stage "licm" (licm ~int_base ~real_base ~jslot) t in
    let t = stage "stream" (stream ~jslot) t in
    stage "fuse"
      (fun t -> fuse ~real_base (sink_loads ~real_base (invert_branches t)))
      t
  end

let describe (t : tape) =
  let fused = ref 0 in
  Array.iter
    (function
      | Fmac2 _ | Fmsb2 _ | Fldmac _ | Fldmsb _ | Fldadd _ | Fldsub _
      | Fldmul _ | Fld2add _ | Fldst _ ->
          incr fused
      | _ -> ())
    t.tp_ops;
  Printf.sprintf "streams=%d fused=%d" t.tp_nstreams !fused
