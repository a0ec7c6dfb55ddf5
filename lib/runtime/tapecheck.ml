(* Translation validator for the bytecode tier.

   Every check here re-derives its facts from the instruction stream
   with code independent of lowering and of the optimizer passes, so a
   bug in either shows up as a finding instead of a memory error on the
   unsafe path. The module deliberately does not reuse Tapeopt's
   read/write iterators: a validator sharing its model of the
   instruction set with the code under test would inherit its bugs.

   Checks, by diagnostic code:

   - LC010  def-before-use on both register files: a sequential scan of
     the prologue, then a forward must-analysis (intersection at joins)
     over [Bytecode.build_cfg] of the body.
     Registers below the plan's base are environment state and start
     defined; everything above must be written on every path first.
   - LC011  malformed instructions: register-file and access-id bounds,
     jump shape (forward-only except [Iloop]/[Iloopc] back edges,
     targets inside the section), prologue restrictions (no control
     flow, no array accesses), [Sinit] targets inside the stream-slot
     range, and stream slots shared only between accesses streaming the
     same offset.
   - LC012  offset discipline: the split offset [ac_inv + ac_var] must
     equal the subscript form [sum (sub_k - 1) * stride_k]; the variant
     kind must agree with [ac_var]'s terms and, for streamed kinds,
     with a matching [Sinit] and the loop that bumps the slot; and the
     stored per-subscript range skeleton (what the once-per-fork check
     evaluates before granting the unsafe path) must cover the range
     the subscript can actually take, re-derived from the instruction
     stream and compared on sample fork boxes.
   - LC013  provenance: every instruction of every section carries a
     tag indexing the tape's tag table.
   - LC014  footprint: per-array read/write sets keyed by (array slot,
     subscript form) must match the unoptimized tape's. *)

open Bytecode
module Diag = Loopcoal_verify.Diag
module Registry = Loopcoal_obs.Registry

let ns_hist = Registry.histogram "tapecheck.ns"
let findings_total = Registry.counter "tapecheck.findings"

type ctx = { pass : string option; region : int; mutable ds : Diag.t list }

let severity_of code =
  match Diag.severity_of_code code with Some s -> s | None -> Diag.Error

let report ctx code ~subject fmt =
  Printf.ksprintf
    (fun msg ->
      let msg =
        match ctx.pass with
        | Some p -> Printf.sprintf "after %s: %s" p msg
        | None -> msg
      in
      ctx.ds <-
        Diag.make ~code ~severity:(severity_of code) ~region:ctx.region
          ~subject msg
        :: ctx.ds)
    fmt

(* ---------- instruction metadata (independent of Tapeopt's) ---------- *)

let is_ctl = function
  | Jmp _ | Jii _ | Jff _ | Jffn _ | Iloop _ | Iloopc _ -> true
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
  | Iconst _ | Fconst _ | Fmov _ | Fadd _ | Fsub _ | Fmul _ | Fdiv _ | Fmin _
  | Fmax _ | Fneg _ | Fmac _ | Fmsb _ | Fload _ | Fstore _ | Fmac2 _ | Fmsb2 _
  | Fldmac _ | Fldmsb _ | Fldadd _ | Fldsub _ | Fldmul _ | Fld2add _ | Fldst _
  | Jmp _ | Jff _ | Jffn _ | Icount _ ->
      ()

let int_write = function
  | Iconst (d, _)
  | Iaff (d, _)
  | Imul (d, _, _)
  | Idiv (d, _, _)
  | Imod (d, _, _)
  | Icdiv (d, _, _)
  | Imin (d, _, _)
  | Imax (d, _, _)
  | Iloop (d, _, _, _)
  | Iloopc (d, _, _, _) ->
      Some d
  | _ -> None

let iter_float_reads f = function
  | Fmov (_, s) | Fneg (_, s) | Fstore (s, _) -> f s
  | Fadd (_, a, b)
  | Fsub (_, a, b)
  | Fmul (_, a, b)
  | Fdiv (_, a, b)
  | Fmin (_, a, b)
  | Fmax (_, a, b)
  | Jff (_, a, b, _)
  | Jffn (_, a, b, _) ->
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

let float_write = function
  | Fconst (d, _)
  | Fmov (d, _)
  | Fadd (d, _, _)
  | Fsub (d, _, _)
  | Fmul (d, _, _)
  | Fdiv (d, _, _)
  | Fmin (d, _, _)
  | Fmax (d, _, _)
  | Fneg (d, _)
  | Fofi (d, _)
  | Fmac (d, _, _, _)
  | Fmsb (d, _, _, _)
  | Fload (d, _)
  | Fmac2 (d, _, _, _)
  | Fmsb2 (d, _, _, _)
  | Fldmac (d, _, _, _)
  | Fldmsb (d, _, _, _)
  | Fldadd (d, _, _)
  | Fldsub (d, _, _)
  | Fldmul (d, _, _)
  | Fld2add (d, _, _) ->
      Some d
  | _ -> None

(* Array effects of one instruction: access ids read / written. *)
let access_effects = function
  | Fload (_, id) -> [ (id, `R) ]
  | Fstore (_, id) -> [ (id, `W) ]
  | Fldst (i1, i2) -> [ (i1, `R); (i2, `W) ]
  | Fmac2 (_, _, i1, i2) | Fmsb2 (_, _, i1, i2) | Fld2add (_, i1, i2) ->
      [ (i1, `R); (i2, `R) ]
  | Fldmac (_, _, _, id)
  | Fldmsb (_, _, _, id)
  | Fldadd (_, _, id)
  | Fldsub (_, _, id)
  | Fldmul (_, _, id) ->
      [ (id, `R) ]
  | _ -> []

(* ---------- provenance (LC013) ---------- *)

let check_provenance ctx t =
  let ntags = Array.length t.tp_tags in
  if ntags = 0 then
    report ctx "LC013" ~subject:"tags" "provenance tag table is empty";
  let section name ops src =
    if Array.length src <> Array.length ops then
      report ctx "LC013" ~subject:name
        "provenance table has %d tags for %d instructions" (Array.length src)
        (Array.length ops)
    else
      Array.iteri
        (fun i tag ->
          if tag < 0 || tag >= ntags then
            report ctx "LC013"
              ~subject:(Printf.sprintf "%s[%d]" name i)
              "source tag %d outside the tag table (size %d)" tag ntags)
        src
  in
  section "pre" t.tp_pre t.tp_pre_src;
  section "ops" t.tp_ops t.tp_src

(* ---------- structure: bounds, jumps, prologue (LC011) ---------- *)

type fullctx = {
  fc_int_base : int;
  fc_real_base : int;
  fc_n_ints : int;
  fc_n_reals : int;
  fc_plan_slots : int array;
}

(* Returns false when a register or access id is out of range somewhere:
   the dataflow and interval passes index arrays by those values and are
   skipped to stay total on corrupt input. *)
let check_structure ctx ?full t =
  let ok = ref true in
  let naccs = Array.length t.tp_accs in
  let nslots = naccs + t.tp_nstreams in
  let bad subject fmt =
    ok := false;
    report ctx "LC011" ~subject fmt
  in
  (* Slots holding stream offsets or bumps: a counter there would
     corrupt an unchecked access's offset. *)
  let stream_slots = Hashtbl.create 8 in
  let stream s = Hashtbl.replace stream_slots s () in
  List.iter
    (Array.iter (function Sinit (s, _) -> stream s | _ -> ()))
    [ t.tp_pre; t.tp_ops ];
  Array.iter
    (fun ac ->
      match ac.ac_vk with
      | Vs (s, _) | Vsj (s, _) -> stream s
      | Vsv (s, bs) ->
          stream s;
          stream bs
      | V0 | V1 _ | V2 _ | Vn -> ())
    t.tp_accs;
  let check_instr name i op =
    let subject = Printf.sprintf "%s[%d]" name i in
    (match full with
    | Some fc ->
        let ireg r =
          if r < 0 || r >= fc.fc_n_ints then
            bad subject "int register r%d outside the register file (size %d)"
              r fc.fc_n_ints
        in
        let freg r =
          if r < 0 || r >= fc.fc_n_reals then
            bad subject
              "float register f%d outside the register file (size %d)" r
              fc.fc_n_reals
        in
        iter_int_reads ireg op;
        iter_float_reads freg op;
        (match int_write op with Some d -> ireg d | None -> ());
        (match float_write op with Some d -> freg d | None -> ())
    | None ->
        let nonneg r =
          if r < 0 then bad subject "negative register %d" r
        in
        iter_int_reads nonneg op;
        iter_float_reads nonneg op;
        (match int_write op with Some d -> nonneg d | None -> ());
        (match float_write op with Some d -> nonneg d | None -> ()));
    List.iter
      (fun (id, _) ->
        if id < 0 || id >= naccs then
          bad subject "access id %d outside the access table (size %d)" id
            naccs)
      (access_effects op);
    match op with
    | Sinit (s, _) ->
        if s < naccs || s >= nslots then
          bad subject
            "Sinit targets scratch slot %d outside the stream range %d..%d" s
            naccs (nslots - 1)
    | Icount k ->
        if k < naccs || k >= nslots then
          bad subject
            "Icount targets scratch slot %d outside the stream range %d..%d"
            k naccs (nslots - 1)
        else if Hashtbl.mem stream_slots k then
          bad subject "Icount bumps stream slot %d" k
    | _ -> ()
  in
  (* Prologue: straight-line and access-free. *)
  Array.iteri
    (fun i op ->
      check_instr "pre" i op;
      let subject = Printf.sprintf "pre[%d]" i in
      if is_ctl op then
        bad subject "control-flow instruction in the strip prologue";
      if access_effects op <> [] then
        bad subject "array access in the strip prologue")
    t.tp_pre;
  (* Body: forward jumps only, except loop back edges. *)
  let n = Array.length t.tp_ops in
  Array.iteri
    (fun i op ->
      check_instr "ops" i op;
      let subject = Printf.sprintf "ops[%d]" i in
      List.iter
        (fun tgt ->
          match op with
          | Iloop _ | Iloopc _ ->
              if tgt < 0 || tgt > i then
                bad subject "back edge target %d is not backward in 0..%d" tgt
                  i
          | _ ->
              if tgt <= i || tgt > n then
                bad subject "jump target %d is not forward in %d..%d" tgt
                  (i + 1) n)
        (instr_targets op))
    t.tp_ops;
  !ok

(* ---------- offset and stream discipline (LC011 / LC012) ---------- *)

let aff_str (a : aff) =
  Printf.sprintf "%d%s" a.base
    (String.concat ""
       (List.map
          (fun (c, r) -> Printf.sprintf "%+d*r%d" c r)
          (aff_terms a)))

(* Find every [Sinit] initializing slot [s], across prologue and body. *)
let sinits_of t s =
  let found = ref [] in
  let scan ops =
    Array.iter
      (function
        | Sinit (s', a) when s' = s -> found := a :: !found
        | _ -> ())
      ops
  in
  scan t.tp_pre;
  scan t.tp_ops;
  !found

let check_accesses ctx ?full t =
  let naccs = Array.length t.tp_accs in
  let nslots = naccs + t.tp_nstreams in
  let jslot =
    match full with
    | Some fc when Array.length fc.fc_plan_slots > 0 ->
        Some fc.fc_plan_slots.(Array.length fc.fc_plan_slots - 1)
    | _ -> None
  in
  (* slot -> (access id, full offset) of the first streaming user *)
  let slot_users = Hashtbl.create 8 in
  let bump_slots = Hashtbl.create 8 in
  Array.iteri
    (fun id ac ->
      let subject = ac.ac_name in
      let nd = Array.length ac.ac_dims in
      if
        Array.length ac.ac_subs <> nd
        || Array.length ac.ac_strides <> nd
        || Array.length ac.ac_rngs <> nd
      then
        report ctx "LC012" ~subject
          "access %d: subscript/stride/range tables disagree on rank %d" id nd
      else begin
        (* Offset identity: inv + var must be the subscript form. *)
        let expected = ref (aff_const 0) in
        Array.iteri
          (fun k sub ->
            expected :=
              aff_add !expected
                (aff_add
                   (aff_scale ac.ac_strides.(k) sub)
                   (aff_const (-ac.ac_strides.(k)))))
          ac.ac_subs;
        let got = aff_add ac.ac_inv ac.ac_var in
        if got <> !expected then
          report ctx "LC012" ~subject
            "access %d: split offset %s does not equal the subscript form %s"
            id (aff_str got) (aff_str !expected);
        if ac.ac_var.base <> 0 then
          report ctx "LC012" ~subject
            "access %d: variant offset part has non-zero base %d" id
            ac.ac_var.base;
        let terms = aff_terms ac.ac_var in
        let full_off = aff_add ac.ac_inv ac.ac_var in
        let stream_slot kind s =
          if s < naccs || s >= nslots then
            report ctx "LC011" ~subject
              "access %d: %s slot %d outside the stream range %d..%d" id kind
              s naccs (nslots - 1)
        in
        let require_sinit s =
          let inits = sinits_of t s in
          if inits = [] then
            report ctx "LC011" ~subject
              "access %d: streamed slot %d has no Sinit" id s
          else if not (List.exists (fun a -> a = full_off) inits) then
            report ctx "LC011" ~subject
              "access %d: no Sinit of slot %d matches the full offset %s" id s
              (aff_str full_off)
        in
        let claim_slot s =
          match Hashtbl.find_opt slot_users s with
          | None -> Hashtbl.add slot_users s (id, full_off)
          | Some (id0, off0) ->
              if off0 <> full_off then
                report ctx "LC011" ~subject
                  "access %d: stream slot %d already carries access %d's \
                   offset %s"
                  id s id0 (aff_str off0)
        in
        match ac.ac_vk with
        | V0 ->
            if terms <> [] then
              report ctx "LC012" ~subject
                "access %d: kind V0 but variant part %s has terms" id
                (aff_str ac.ac_var)
        | V1 (c, r) ->
            if terms <> [ (c, r) ] then
              report ctx "LC012" ~subject
                "access %d: kind V1(%d,r%d) disagrees with variant part %s" id
                c r (aff_str ac.ac_var)
        | V2 (c1, r1, c2, r2) ->
            if terms <> [ (c1, r1); (c2, r2) ] then
              report ctx "LC012" ~subject
                "access %d: kind V2 disagrees with variant part %s" id
                (aff_str ac.ac_var)
        | Vn -> ()
        | Vs (s, b) ->
            stream_slot "stream" s;
            claim_slot s;
            require_sinit s;
            let matches =
              Array.exists
                (function
                  | Iloopc (lr, c, _, _) ->
                      List.exists (fun (lc, r) -> r = lr && lc * c = b) terms
                  | _ -> false)
                t.tp_ops
            in
            if not matches then
              report ctx "LC012" ~subject
                "access %d: stream bump %d matches no constant-step loop of \
                 the variant part %s"
                id b (aff_str ac.ac_var)
        | Vsj (s, c) ->
            stream_slot "stream" s;
            claim_slot s;
            require_sinit s;
            (match jslot with
            | Some j ->
                if terms <> [ (c, j) ] then
                  report ctx "LC012" ~subject
                    "access %d: kind Vsj(%d) wants variant part %+d*r%d, got \
                     %s"
                    id c c j (aff_str ac.ac_var)
            | None ->
                if List.length terms <> 1 || List.map fst terms <> [ c ] then
                  report ctx "LC012" ~subject
                    "access %d: kind Vsj(%d) disagrees with variant part %s"
                    id c (aff_str ac.ac_var))
        | Vsv (s, bs) ->
            stream_slot "stream" s;
            stream_slot "bump" bs;
            if s = bs then
              report ctx "LC011" ~subject
                "access %d: offset and bump share scratch slot %d" id s;
            Hashtbl.replace bump_slots bs id;
            claim_slot s;
            require_sinit s;
            let bump_affs = sinits_of t bs in
            if bump_affs = [] then
              report ctx "LC011" ~subject
                "access %d: bump slot %d has no Sinit" id bs
            else begin
              let matches =
                Array.exists
                  (function
                    | Iloop (lr, incr, _, _) ->
                        List.exists
                          (fun (lc, r) ->
                            r = lr
                            && List.exists
                                 (fun a ->
                                   a
                                   = aff_scale lc (aff_sub incr (aff_reg lr)))
                                 bump_affs)
                          terms
                    | _ -> false)
                  t.tp_ops
              in
              if not matches then
                report ctx "LC012" ~subject
                  "access %d: bump slot %d matches no variable-step loop of \
                   the variant part %s"
                  id bs (aff_str ac.ac_var)
            end
      end)
    t.tp_accs;
  (* A slot cannot be both an offset stream and a run-time bump. *)
  Hashtbl.iter
    (fun s id ->
      match Hashtbl.find_opt slot_users s with
      | Some (id0, _) ->
          report ctx "LC011" ~subject:t.tp_accs.(id).ac_name
            "bump slot %d of access %d is also access %d's offset stream" s id
            id0
      | None -> ())
    bump_slots

(* ---------- def-before-use (LC010) ---------- *)

(* Int registers an access instruction needs live: the variant offset
   part (unsafe path) and the subscript forms (checked path). *)
let iter_access_int_reads accs f op =
  let naccs = Array.length accs in
  List.iter
    (fun (id, _) ->
      if id >= 0 && id < naccs then begin
        let ac = accs.(id) in
        Array.iter f ac.ac_var.regs;
        Array.iter (fun sub -> Array.iter f sub.regs) ac.ac_subs
      end)
    (access_effects op)

let check_defuse ctx fc t =
  let n_ints = max 1 fc.fc_n_ints and n_reals = max 1 fc.fc_n_reals in
  let pre_i = Array.make n_ints false and pre_f = Array.make n_reals false in
  for r = 0 to min fc.fc_int_base n_ints - 1 do
    pre_i.(r) <- true
  done;
  for r = 0 to min fc.fc_real_base n_reals - 1 do
    pre_f.(r) <- true
  done;
  let flag name i kind r =
    report ctx "LC010"
      ~subject:(Printf.sprintf "%s[%d]" name i)
      "%s register %s%d read with no prior definition on some path"
      (if kind = `I then "int" else "float")
      (if kind = `I then "r" else "f")
      r
  in
  Array.iteri
    (fun i op ->
      iter_int_reads (fun r -> if not pre_i.(r) then flag "pre" i `I r) op;
      iter_float_reads (fun r -> if not pre_f.(r) then flag "pre" i `F r) op;
      (match int_write op with Some d -> pre_i.(d) <- true | None -> ());
      match float_write op with Some d -> pre_f.(d) <- true | None -> ())
    t.tp_pre;
  (* Invariant offset parts are evaluated right after the prologue. *)
  Array.iteri
    (fun id ac ->
      Array.iter
        (fun r ->
          if not pre_i.(r) then
            report ctx "LC010" ~subject:ac.ac_name
              "access %d: invariant offset reads r%d, undefined at strip \
               entry"
              id r)
        ac.ac_inv.regs)
    t.tp_accs;
  (* Body sections: forward must-analysis over the CFG; a register is
     defined at a join only if it is defined on every incoming path. *)
  let section name ops =
    if Array.length ops > 0 then begin
      let cfg = build_cfg ops in
      let nb = Array.length cfg.cf_blocks in
      let out_i = Array.init nb (fun _ -> Array.make n_ints true) in
      let out_f = Array.init nb (fun _ -> Array.make n_reals true) in
      let in_of b =
        let ii = Array.make n_ints (b <> 0) and ff = Array.make n_reals (b <> 0) in
        if b = 0 then begin
          Array.blit pre_i 0 ii 0 n_ints;
          Array.blit pre_f 0 ff 0 n_reals
        end;
        let first = ref (b <> 0) in
        List.iter
          (fun p ->
            if !first then begin
              Array.blit out_i.(p) 0 ii 0 n_ints;
              Array.blit out_f.(p) 0 ff 0 n_reals;
              first := false
            end
            else
              for r = 0 to max n_ints n_reals - 1 do
                if r < n_ints then ii.(r) <- ii.(r) && out_i.(p).(r);
                if r < n_reals then ff.(r) <- ff.(r) && out_f.(p).(r)
              done)
          cfg.cf_blocks.(b).bb_preds;
        (* The entry block additionally receives the strip-entry state. *)
        if b = 0 && cfg.cf_blocks.(b).bb_preds <> [] then begin
          for r = 0 to n_ints - 1 do
            ii.(r) <- ii.(r) || pre_i.(r)
          done;
          for r = 0 to n_reals - 1 do
            ff.(r) <- ff.(r) || pre_f.(r)
          done
        end;
        (ii, ff)
      in
      let transfer b ii ff =
        for i = cfg.cf_blocks.(b).bb_start to cfg.cf_blocks.(b).bb_stop - 1 do
          (match int_write ops.(i) with Some d -> ii.(d) <- true | None -> ());
          match float_write ops.(i) with
          | Some d -> ff.(d) <- true
          | None -> ()
        done
      in
      let changed = ref true and rounds = ref 0 in
      while !changed && !rounds < 4 * (nb + 2) do
        changed := false;
        incr rounds;
        for b = 0 to nb - 1 do
          let ii, ff = in_of b in
          transfer b ii ff;
          if ii <> out_i.(b) || ff <> out_f.(b) then begin
            out_i.(b) <- ii;
            out_f.(b) <- ff;
            changed := true
          end
        done
      done;
      for b = 0 to nb - 1 do
        let ii, ff = in_of b in
        for i = cfg.cf_blocks.(b).bb_start to cfg.cf_blocks.(b).bb_stop - 1 do
          let op = ops.(i) in
          iter_int_reads (fun r -> if not ii.(r) then flag name i `I r) op;
          iter_access_int_reads t.tp_accs
            (fun r -> if not ii.(r) then flag name i `I r)
            op;
          iter_float_reads (fun r -> if not ff.(r) then flag name i `F r) op;
          (match int_write op with Some d -> ii.(d) <- true | None -> ());
          match float_write op with Some d -> ff.(d) <- true | None -> ()
        done
      done
    end
  in
  section "ops" t.tp_ops

(* ---------- interval abstract interpretation (LC012) ---------- *)

(* Re-derive a range skeleton for each subscript from the instruction
   stream: plan slots become [Rplan], registers the tape never writes
   become [Rreg], single-definition temporaries recurse through their
   defining instruction, and the init/back-edge pair of a serial loop
   becomes [Rspan]. Anything else is [Rux]. The result is compared
   against the stored [ac_rngs] skeleton — the one [prepare] trusts to
   grant the unsafe path — on sample fork boxes: wherever both sides
   evaluate, the stored hull must contain the derived hull. The audit
   is falsification-only: an unanalyzable derivation (optimizers may
   alias the defining instructions past this flat reconstruction) or an
   inverted stored span (a zero-trip loop, never executed) proves
   nothing and is skipped. *)

let derive_rngs fc t =
  let plan_idx = Hashtbl.create 8 in
  Array.iteri (fun d r -> Hashtbl.replace plan_idx r d) fc.fc_plan_slots;
  let defs = Hashtbl.create 32 in
  let scan ops =
    Array.iter
      (fun op ->
        match int_write op with
        | Some d ->
            let prev =
              Option.value ~default:[] (Hashtbl.find_opt defs d)
            in
            Hashtbl.replace defs d (op :: prev)
        | None -> ())
      ops
  in
  scan t.tp_pre;
  scan t.tp_ops;
  let memo = Hashtbl.create 32 in
  let rec rng_of depth r =
    if depth <= 0 then Rux
    else
      match Hashtbl.find_opt plan_idx r with
      | Some d -> Rplan d
      | None -> (
          match Hashtbl.find_opt memo r with
          | Some v -> v
          | None ->
              Hashtbl.add memo r Rux;
              let v =
                match Hashtbl.find_opt defs r with
                | None -> Rreg r
                | Some [ d ] -> rng_of_def depth d
                | Some ds -> (
                    match
                      List.partition
                        (function Iloop _ | Iloopc _ -> true | _ -> false)
                        ds
                    with
                    | [ (Iloop (_, _, bnd, _) | Iloopc (_, _, bnd, _)) ],
                      [ init ] ->
                        Rspan (rng_of_def (depth - 1) init,
                               rng_of (depth - 1) bnd)
                    | _ -> Rux)
              in
              Hashtbl.replace memo r v;
              v)
  and rng_of_def depth = function
    | Iconst (_, n) -> Rconst n
    | Iaff (_, a) ->
        Raff
          ( a.base,
            Array.init (Array.length a.regs) (fun i ->
                (a.coefs.(i), rng_of (depth - 1) a.regs.(i))) )
    | Imul (_, a, b) -> Rmul (rng_of (depth - 1) a, rng_of (depth - 1) b)
    | Imin (_, a, b) -> Rmin (rng_of (depth - 1) a, rng_of (depth - 1) b)
    | Imax (_, a, b) -> Rmax (rng_of (depth - 1) a, rng_of (depth - 1) b)
    | _ -> Rux
  in
  let of_aff (a : aff) =
    Raff
      ( a.base,
        Array.init (Array.length a.regs) (fun i ->
            (a.coefs.(i), rng_of 64 a.regs.(i))) )
  in
  Array.map (fun ac -> Array.map of_aff ac.ac_subs) t.tp_accs

let rec rng_fold f acc = function
  | Rux | Rconst _ -> acc
  | Rplan k -> f acc (`Plan k)
  | Rreg s -> f acc (`Reg s)
  | Raff (_, ts) ->
      Array.fold_left (fun acc (_, r) -> rng_fold f acc r) acc ts
  | Rmul (a, b) | Rmin (a, b) | Rmax (a, b) | Rspan (a, b) ->
      rng_fold f (rng_fold f acc a) b

let check_intervals ctx fc t =
  let derived = derive_rngs fc t in
  let maxes acc r =
    rng_fold
      (fun (mp, mr) -> function
        | `Plan k -> (max mp k, mr)
        | `Reg s -> (mp, max mr s))
      acc r
  in
  let mp, mr =
    Array.fold_left
      (fun acc ac -> Array.fold_left maxes acc ac.ac_rngs)
      (Array.length fc.fc_plan_slots - 1, 0)
      t.tp_accs
  in
  let mp, mr =
    Array.fold_left (fun acc rs -> Array.fold_left maxes acc rs) (mp, mr)
      derived
  in
  let nlv = mp + 1 and nregs = mr + 1 in
  if nlv > 0 then begin
    let boxes =
      [
        (Array.make nlv 1, Array.make nlv 1);
        (Array.make nlv 1, Array.make nlv 4);
        (Array.init nlv (fun k -> k + 1), Array.init nlv (fun k -> (2 * k) + 6));
        (Array.make nlv 2, Array.make nlv 13);
      ]
    in
    let valuations =
      [
        Array.make nregs 1;
        Array.init nregs (fun r -> (r mod 7) + 1);
      ]
    in
    Array.iteri
      (fun id ac ->
        Array.iteri
          (fun k stored ->
            let flagged = ref false in
            List.iteri
              (fun bi (lo, hi) ->
                List.iter
                  (fun ints ->
                    if not !flagged then
                      match rng_eval ~ints ~lo ~hi stored with
                      | None -> () (* checked path; nothing claimed *)
                      | Some (sl, sh) when sl > sh ->
                          (* Inverted span: a zero-trip loop under this
                             box, so the access never executes here and
                             any claim is vacuously covered. *)
                          ()
                      | Some (sl, sh) -> (
                          match rng_eval ~ints ~lo ~hi derived.(id).(k) with
                          | None ->
                              (* The instruction stream does not pin the
                                 subscript down (e.g. a value-numbered
                                 bound snapshot aliases the index back
                                 into its own span): nothing to falsify
                                 against, so no claim either way. *)
                              ()
                          | Some (dl, dh) ->
                              (* [Raff] hulls are normalized; mirror
                                 that on the derived side so an empty
                                 derived span compares as empty. *)
                              let dl, dh = (min dl dh, max dl dh) in
                              if not (sl <= dl && dh <= sh) then begin
                                flagged := true;
                                report ctx "LC012" ~subject:ac.ac_name
                                  "access %d subscript %d: stored range \
                                   [%d,%d] does not cover derived range \
                                   [%d,%d] on sample fork box %d"
                                  id k sl sh dl dh bi
                              end))
                  valuations)
              boxes)
          ac.ac_rngs)
      t.tp_accs
  end

(* ---------- footprints (LC014) ---------- *)

(* Key accesses by array slot and subscript form rather than by access
   id: GVN may legitimately drop one of two identical loads, and
   register renames never touch the subscript tables. *)
let acc_key accs id =
  let ac = accs.(id) in
  Printf.sprintf "%d:%s" ac.ac_slot
    (String.concat ";" (Array.to_list (Array.map aff_str ac.ac_subs)))

let footprint accs ops =
  let set = Hashtbl.create 16 in
  Array.iter
    (fun op ->
      List.iter
        (fun (id, rw) ->
          if id >= 0 && id < Array.length accs then
            Hashtbl.replace set (acc_key accs id, rw) accs.(id).ac_name)
        (access_effects op))
    ops;
  set

let footprint_diff ctx ~subj_of ~have ~want ~msg =
  Hashtbl.iter
    (fun ((_, rw) as key) name ->
      if not (Hashtbl.mem have key) then
        report ctx "LC014" ~subject:(subj_of name)
          "%s %s of array %s" msg
          (match rw with `R -> "read" | `W -> "write")
          name)
    want

let check_baseline ctx baseline t =
  let nb = Array.length baseline.tp_accs
  and nt = Array.length t.tp_accs in
  if nb <> nt then
    report ctx "LC014" ~subject:"accesses"
      "optimized tape has %d accesses, unoptimized tape has %d" nt nb
  else
    Array.iteri
      (fun id ac ->
        let b = baseline.tp_accs.(id) in
        if ac.ac_slot <> b.ac_slot || ac.ac_subs <> b.ac_subs then
          report ctx "LC014" ~subject:ac.ac_name
            "access %d changed array or subscript form across optimization"
            id)
      t.tp_accs;
  let want = footprint baseline.tp_accs baseline.tp_ops in
  let have = footprint t.tp_accs t.tp_ops in
  let subj_of name = name in
  footprint_diff ctx ~subj_of ~have ~want ~msg:"optimization dropped the";
  footprint_diff ctx ~subj_of ~have:want ~want:have
    ~msg:"optimization invented a"

(* ---------- entry points ---------- *)

let run ?baseline ?pass ?full ~region t =
  Registry.time ns_hist (fun () ->
      let ctx = { pass; region; ds = [] } in
      check_provenance ctx t;
      let bounds_ok = check_structure ctx ?full t in
      check_accesses ctx ?full t;
      (match full with
      | Some fc when bounds_ok ->
          check_defuse ctx fc t;
          check_intervals ctx fc t
      | _ -> ());
      (match baseline with
      | Some b -> check_baseline ctx b t
      | None -> ());
      let ds = List.rev ctx.ds in
      Registry.add findings_total (List.length ds);
      ds)

let check ?baseline ?pass ~region ~int_base ~real_base ~n_ints ~n_reals
    ~plan_slots t =
  run ?baseline ?pass
    ~full:
      {
        fc_int_base = int_base;
        fc_real_base = real_base;
        fc_n_ints = n_ints;
        fc_n_reals = n_reals;
        fc_plan_slots = plan_slots;
      }
    ~region t

let check_entry ~region t = run ~region t
