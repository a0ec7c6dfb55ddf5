(* Tape optimizer: a fixed pass pipeline over the flat register tape.

   The tape is lowered once ({!Bytecode.lower}), then rewritten at
   level 2 (level 0 is the lowering output untouched) by cross-block
   loop-invariant code motion (pure ops and fault-safe invariant loads
   move to serial-loop preheaders found from the [Iloop]/[Iloopc] back
   edges; strip-invariant pure ops move into the per-strip preamble)
   and superinstruction fusion over adjacent instructions. No pass
   needs a CFG, dominators or SSA. Array offsets keep their affine
   access form: an unchecked access reads its hoisted invariant part
   plus its variant part. The strip body stays one iteration long: the
   executor's strip back-edge, not a replicated body, amortizes the
   per-iteration dispatch entry.

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
  | Iaff (_, a) -> Array.iter f a.regs
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
  | Fldmul _ | Fld2add _ | Fldst _ | Icount _ | Ifork _ ->
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
  | Istep _ | Fconst _ | Fofi _ | Fload _ | Jmp _ | Jii _ | Iloop _
  | Iloopc _ | Fld2add _ | Fldst _ | Icount _ | Ifork _ ->
      ()

(* ---------- jump-target bookkeeping ---------- *)

let target_flags ops =
  let n = Array.length ops in
  let t = Array.make (n + 1) false in
  Array.iter (fun op -> List.iter (fun x -> t.(x) <- true) (instr_targets op)) ops;
  t

(* Insert instructions before given positions. Every explicit jump
   target is remapped to the new index of the instruction it pointed at,
   so a jump to position [p] skips instructions inserted before [p] —
   exactly what a serial-loop back edge wants of a hoisted preheader
   op. The provenance array [src] is co-rewritten:
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

type loopinfo = { l_top : int; l_back : int }

let collect_loops ops =
  let loops = ref [] in
  Array.iteri
    (fun i op ->
      match op with
      | Iloopc (_, _, _, top) | Iloop (_, _, _, top) ->
          loops := { l_top = top; l_back = i } :: !loops
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

let licm_serial ~int_base ~real_base hoisted (t : tape) =
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
            | moves ->
                hoisted := !hoisted + List.length moves;
                round (apply_hoist ops src l.l_top moves) (budget - 1))
      in
      try_loops loops
    end
  in
  let ops, src = round (t.tp_ops, t.tp_src) 16 in
  { t with tp_ops = ops; tp_src = src }

(* Strip-level motion: pure ops whose operands have no def anywhere in
   the body and are not the strip index move to the per-strip preamble
   ([tp_pre] runs once per strip, after the strip index is set). Loads
   stay in the body ([tp_pre] stays access-free). *)
let licm_strip ~int_base ~real_base ~jslot hoisted (t : tape) =
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
      hoisted := !hoisted + List.length moves;
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

(* Returns the tape and the number of instructions hoisted. *)
let licm ~int_base ~real_base ~jslot (t : tape) =
  let hoisted = ref 0 in
  let t =
    licm_strip ~int_base ~real_base ~jslot hoisted
      (licm_serial ~int_base ~real_base hoisted t)
  in
  (t, !hoisted)

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
   register, or writes an int register its checked-path subscripts or
   variant offset read. Crossing another faulting op only changes which
   of two errors reports first (see the module header). *)
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
                let regs = acc_regs id in
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
   Offsets are pure functions of registers, so swapping the ids of a
   reversed pair only swaps independent offset computations. Returns the
   tape and the number of loads fused into a consumer (one per pair). *)
let fuse ~real_base (t : tape) =
  let fused = ref 0 in
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
            fused := !fused + 2;
            changed := true;
            i := !i + 3
        | None, Some f ->
            work.(!i) <- f;
            dead.(!i + 1) <- true;
            incr fused;
            changed := true;
            i := !i + 2
        | None, None -> incr i
      done;
      if !changed then pass (delete_at work src dead) (budget - 1)
      else (ops, src)
    end
  in
  let ops, src = pass (t.tp_ops, t.tp_src) 8 in
  ({ t with tp_ops = ops; tp_src = src }, !fused)

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

let pass_names = [ "lower"; "licm"; "fuse" ]

(* Per-pass wall-time histograms, instruction-delta counters and fired
   counters (rewrites the pass made), keyed by pass name. Handles are
   created once at module init; the hot path only touches their
   atomics. *)
let pass_metrics =
  List.map
    (fun name ->
      let c what =
        Registry.counter (Printf.sprintf "tapeopt.%s.%s" name what)
      in
      ( name,
        ( Registry.histogram (Printf.sprintf "tapeopt.%s.ns" name),
          c "instrs_in",
          c "instrs_out",
          c "fired" ) ))
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
    let h, c_in, c_out, c_fired = List.assoc name pass_metrics in
    Registry.add c_in (tape_len t);
    let t', fired = Registry.time h (fun () -> f t) in
    Registry.add c_out (tape_len t');
    Registry.add c_fired fired;
    emit name t'
  in
  let tape = emit "lower" tape in
  if level <= 0 || sanitized tape then tape
  else begin
    let t = stage "licm" (licm ~int_base ~real_base ~jslot) tape in
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
  Printf.sprintf "fused=%d" !fused
