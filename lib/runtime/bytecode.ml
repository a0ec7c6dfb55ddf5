(* Bytecode tier: staged plan bodies lowered to a flat register tape.

   The tape is a linear [instr array] over the register files of the
   compiled program's environment (its [ints]/[reals] slot arrays), so
   reductions, scalar privatization and the executor's adoption/merge
   logic work unchanged. Control flow is absolute jumps; expression
   trees become three-address instructions over fresh temporary
   registers allocated from the host compiler's slot counters.

   Address arithmetic is kept symbolic through lowering as affine forms
   [base + sum coef*reg]. Each array access records, besides the checked
   per-subscript form, its flat offset split into a strip-invariant part
   (hoisted once per strip into a scratch register) and a variant part
   (evaluated per execution); and a per-subscript symbolic range used by
   [prepare] to decide, once per fork, whether the access can run with
   [Array.unsafe_get/set] for that fork's whole iteration space. *)

open Loopcoal_ir

exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* ---------- affine forms ---------- *)

(* value = base + sum_i coefs.(i) * ints.(regs.(i)); regs strictly
   ascending, coefs non-zero. *)
type aff = { base : int; coefs : int array; regs : int array }

let aff_const n = { base = n; coefs = [||]; regs = [||] }
let aff_reg r = { base = 0; coefs = [| 1 |]; regs = [| r |] }
let aff_is_const (a : aff) = Array.length a.regs = 0

let aff_terms (a : aff) =
  Array.to_list (Array.map2 (fun c r -> (c, r)) a.coefs a.regs)

let aff_make base terms =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (c, r) ->
      let c0 = Option.value ~default:0 (Hashtbl.find_opt tbl r) in
      Hashtbl.replace tbl r (c0 + c))
    terms;
  let terms =
    Hashtbl.fold (fun r c acc -> if c = 0 then acc else (r, c) :: acc) tbl []
    |> List.sort compare
  in
  {
    base;
    coefs = Array.of_list (List.map snd terms);
    regs = Array.of_list (List.map fst terms);
  }

let aff_add a b = aff_make (a.base + b.base) (aff_terms a @ aff_terms b)

let aff_scale k a =
  if k = 0 then aff_const 0
  else { a with base = k * a.base; coefs = Array.map (fun c -> k * c) a.coefs }

let aff_sub a b = aff_add a (aff_scale (-1) b)

let[@inline] aff_eval (ints : int array) (a : aff) =
  let acc = ref a.base in
  for m = 0 to Array.length a.coefs - 1 do
    acc :=
      !acc
      + Array.unsafe_get a.coefs m
        * Array.unsafe_get ints (Array.unsafe_get a.regs m)
  done;
  !acc

(* ---------- symbolic ranges ---------- *)

(* Conservative interval skeleton for an int value over one fork:
   [Rplan k] is the fork's level-k index range, [Rreg r] a register the
   tape never writes (so its fork-entry value is its value throughout),
   [Rspan (lo, hi)] a serial-loop index, [Rux] unknown. Evaluated once
   per fork by [prepare]; any [Rux] poisons the access to checked. *)
type rng =
  | Rux
  | Rconst of int
  | Rplan of int
  | Rreg of int
  | Raff of int * (int * rng) array
  | Rmul of rng * rng
  | Rmin of rng * rng
  | Rmax of rng * rng
  | Rspan of rng * rng

(* No [Rux] leaf: the skeleton can evaluate. *)
let rec rng_known = function
  | Rux -> false
  | Rconst _ | Rplan _ | Rreg _ -> true
  | Raff (_, ts) -> Array.for_all (fun (_, t) -> rng_known t) ts
  | Rmul (a, b) | Rmin (a, b) | Rmax (a, b) | Rspan (a, b) ->
      rng_known a && rng_known b

let r_addc c r =
  if c = 0 then r
  else
    match r with
    | Rconst x -> Rconst (x + c)
    | Raff (b, ts) -> Raff (b + c, ts)
    | _ -> Raff (c, [| (1, r) |])

let r_add a b =
  match (a, b) with
  | Rconst x, r | r, Rconst x -> r_addc x r
  | _ -> Raff (0, [| (1, a); (1, b) |])

let r_sub a b =
  match b with
  | Rconst y -> r_addc (-y) a
  | _ -> Raff (0, [| (1, a); (-1, b) |])

let r_scale k r =
  if k = 0 then Rconst 0
  else if k = 1 then r
  else match r with Rconst x -> Rconst (k * x) | _ -> Raff (0, [| (k, r) |])

(* Hull arithmetic raises on overflow: a wrapped bound could certify an
   out-of-range subscript, so an overflowing skeleton is unanalyzable. *)
exception Overflow

let add_ov a b =
  let s = a + b in
  if (a >= 0) = (b >= 0) && (s >= 0) <> (a >= 0) then raise Overflow else s

let mul_ov a b =
  if a = 0 || b = 0 then 0
  else if (a = -1 && b = min_int) || (b = -1 && a = min_int) then raise Overflow
  else
    let p = a * b in
    if p / b <> a then raise Overflow else p

(* The hull of [r] into [s.(0)] (low) and [s.(1)] (high); false when a
   leaf is [Rux]. Raises [Overflow]. A node's operand bounds are read out
   of [s] into locals before its next operand overwrites them, so the
   walk allocates nothing. *)
let rec rng_hull s ints lo hi = function
  | Rux -> false
  | Rconst n ->
      s.(0) <- n;
      s.(1) <- n;
      true
  | Rplan k ->
      s.(0) <- lo.(k);
      s.(1) <- hi.(k);
      true
  | Rreg r ->
      let v = ints.(r) in
      s.(0) <- v;
      s.(1) <- v;
      true
  | Raff (base, terms) -> aff_hull s ints lo hi terms 0 base base
  | Rmul (a, b) ->
      rng_hull s ints lo hi a
      &&
      let al = s.(0) and ah = s.(1) in
      rng_hull s ints lo hi b
      &&
      let bl = s.(0) and bh = s.(1) in
      let p1 = mul_ov al bl and p2 = mul_ov al bh in
      let p3 = mul_ov ah bl and p4 = mul_ov ah bh in
      s.(0) <- Int.min (Int.min p1 p2) (Int.min p3 p4);
      s.(1) <- Int.max (Int.max p1 p2) (Int.max p3 p4);
      true
  | Rmin (a, b) ->
      rng_hull s ints lo hi a
      &&
      let al = s.(0) and ah = s.(1) in
      rng_hull s ints lo hi b
      &&
      (s.(0) <- Int.min al s.(0);
       s.(1) <- Int.min ah s.(1);
       true)
  | Rmax (a, b) ->
      rng_hull s ints lo hi a
      &&
      let al = s.(0) and ah = s.(1) in
      rng_hull s ints lo hi b
      &&
      (s.(0) <- Int.max al s.(0);
       s.(1) <- Int.max ah s.(1);
       true)
  | Rspan (a, b) ->
      (* A serial index takes values in [lo .. hi]; executed accesses
         only see iterations where lo <= hi, so the hull is sound. *)
      rng_hull s ints lo hi a
      &&
      let al = s.(0) in
      rng_hull s ints lo hi b
      &&
      (s.(0) <- al;
       true)

(* [Raff]'s terms from [i] on, onto the partial hull [a .. b]. *)
and aff_hull s ints lo hi terms i a b =
  if i = Array.length terms then begin
    s.(0) <- a;
    s.(1) <- b;
    true
  end
  else
    let c, t = terms.(i) in
    rng_hull s ints lo hi t
    &&
    let p = mul_ov c s.(0) and q = mul_ov c s.(1) in
    aff_hull s ints lo hi terms (i + 1)
      (add_ov a (Int.min p q))
      (add_ov b (Int.max p q))

(* Each domain's two-slot scratch for [rng_hull]. *)
let hull_scratch = Domain.DLS.new_key (fun () -> Array.make 2 0)

let rng_eval ~ints ~lo ~hi (r : rng) : (int * int) option =
  let s = Domain.DLS.get hull_scratch in
  match rng_hull s ints lo hi r with
  | true -> Some (s.(0), s.(1))
  | false -> None
  | exception Overflow -> None

(* ---------- instruction set ---------- *)

type instr =
  | Iconst of int * int
  | Iaff of int * aff  (** dst <- affine combination; also mov/add/sub *)
  | Imul of int * int * int
  | Idiv of int * int * int
  | Imod of int * int * int
  | Icdiv of int * int * int
  | Imin of int * int * int
  | Imax of int * int * int
  | Istep of int * string  (** raise unless reg > 0 (serial loop step) *)
  | Fconst of int * float
  | Fmov of int * int
  | Fadd of int * int * int
  | Fsub of int * int * int
  | Fmul of int * int * int
  | Fdiv of int * int * int
  | Fmin of int * int * int
  | Fmax of int * int * int
  | Fneg of int * int
  | Fofi of int * int  (** float register <- int register *)
  | Fmac of int * int * int * int  (** d <- a +. x *. y (fused peephole) *)
  | Fmsb of int * int * int * int  (** d <- a -. x *. y (fused peephole) *)
  | Fload of int * int  (** dst real reg <- element via access id *)
  | Fstore of int * int  (** element via access id <- src real reg *)
  | Fmac2 of int * int * int * int
      (** d <- a +. load id1 *. load id2 (fused, optimizer only) *)
  | Fmsb2 of int * int * int * int  (** d <- a -. load id1 *. load id2 *)
  | Fldmac of int * int * int * int  (** d <- a +. x *. load id *)
  | Fldmsb of int * int * int * int  (** d <- a -. x *. load id *)
  | Fldadd of int * int * int  (** d <- x +. load id *)
  | Fldsub of int * int * int  (** d <- x -. load id *)
  | Fldmul of int * int * int  (** d <- x *. load id *)
  | Fld2add of int * int * int  (** d <- load id1 +. load id2 *)
  | Fldst of int * int  (** element via access id2 <- element via id1 *)
  | Jmp of int
  | Jii of Ast.relop * int * int * int  (** jump if int cmp holds *)
  | Jff of Ast.relop * int * int * int  (** jump if float cmp holds *)
  | Jffn of Ast.relop * int * int * int
      (** jump if float cmp does NOT hold (NaN-correct negation of
          [Jff]; branch-inversion peephole only) *)
  | Iloop of int * aff * int * int
      (** serial-loop back-edge, rotated: reg <- incr; jump to target
          while reg <= bound-reg *)
  | Iloopc of int * int * int * int
      (** back-edge with constant step: reg <- reg + c; jump while
          reg <= bound-reg *)
  | Icount of int
      (** scratch slot += 1: a block counter, inserted by the profiler
          only *)
  | Ifork of int
      (** run plan k through the fork hook: top-level tapes only *)

type access = {
  ac_slot : int;
  ac_name : string;
  ac_dims : int array;
  ac_strides : int array;
  ac_subs : aff array;  (** per-subscript, for the checked path *)
  ac_rngs : rng array;  (** per-subscript symbolic ranges *)
  ac_inv : aff;  (** strip-invariant offset part (includes base) *)
  ac_var : aff;  (** strip-variant offset part (base 0) *)
  ac_vk : vkind;  (** variant part specialized for the unsafe path *)
}

(* Variant offset shapes, specialized so the common one- and two-term
   forms avoid the generic affine loop on the unsafe path. *)
and vkind =
  | V0
  | V1 of int * int  (** coef, reg *)
  | V2 of int * int * int * int  (** coef1, reg1, coef2, reg2 *)
  | Vn

(* Provenance: every tape instruction carries the source loop nest and
   statement it was lowered from, as an index into a per-tape tag table.
   Tag 0 is the plan root (the coalesced parallel nest itself); serial
   loops extend the root path with "/index" per nesting level. The
   optimizer passes thread these side tables through every rewrite, so
   profiler reports can name the originating loop even on a
   licm/fuse'd tape. *)
type srcloc = {
  sl_loop : string;
      (** loop path: plan indexes joined with ".", then "/index" per
          enclosing serial loop (e.g. ["i.j/k"]) *)
  sl_stmt : string;  (** statement label, e.g. ["C[] ="], ["for k"], ["if"] *)
}

type tape = {
  tp_pre : instr array;  (** strip prologue: float consts, hoisted ops *)
  tp_ops : instr array;  (** single-iteration body *)
  tp_accs : access array;
  tp_ncounters : int;  (** profiler block counters past the per-access slots *)
  tp_sanitize : bool;
  tp_src : int array;  (** per-[tp_ops] instruction tag (index into [tp_tags]) *)
  tp_pre_src : int array;  (** per-[tp_pre] instruction tag *)
  tp_tags : srcloc array;  (** tag table; entry 0 is the plan root *)
}

let sanitized t = t.tp_sanitize
let n_instrs t = Array.length t.tp_ops
let n_accesses t = Array.length t.tp_accs

(* The int, resp. float, register an instruction writes. *)
let int_dst = function
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

let float_dst = function
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


(* ---------- lowering ----------

   Lowering is total: a body it rejects is a static error ([Error], with
   the message the reference interpreter's type rules give), never a
   fallback. *)

type binding = Bint of int | Breal of int | Bindex of int

type array_ref = {
  ba_slot : int;
  ba_name : string;
  ba_dims : int array;
  ba_strides : int array;
}

(* An int value during lowering: affine form plus symbolic range. Float
   values are just the register holding them. *)
type ival = { va : aff; vr : rng }
type xval = Xi of ival | Xr of int

type raw_access = {
  ra_ref : array_ref;
  ra_subs : aff array;
  ra_rngs : rng array;
  ra_off : aff;
}

type fork_site = {
  fk_loops : Ast.loop list;
  fk_body : Ast.block;
  fk_scope : (string * int) list;
  fk_lo : int array;
  fk_hi : int array;
  fk_step : int;
}

type st = {
  lookup : string -> binding option;
  arr : string -> array_ref option;
  fresh_i : unit -> int;
  fresh_r : unit -> int;
  assigned : string list;
  once : string list;
      (** scalars the body assigns exactly once, by a top-level statement *)
  mutable known : (string * rng) list;
      (** [once] scalars already assigned, with their right-hand side's
          range: every later read in the iteration sees that value *)
  plan_names : string array;
  plan_slots : int array;
  sanitize : bool;
  fork : (fork_site -> int) option;
      (** top-level code: parallel loops lower to [Ifork] *)
  mutable scope : (string * (int * rng)) list;  (** serial-loop indexes *)
  mutable promo : (string * Ast.expr list * int) list;
      (** array elements promoted to real registers across a serial loop:
          (array, subscript exprs, register) *)
  mutable code : instr array;
  mutable srcs : int array;  (** per-[code] provenance tag, same length *)
  mutable len : int;
  mutable cur_tag : int;  (** tag stamped on the next [emit] *)
  mutable path : string;  (** current loop path (root + serial nesting) *)
  tags : (string * string, int) Hashtbl.t;  (** (loop, stmt) -> tag id *)
  mutable tag_list : srcloc list;  (** reversed tag table *)
  mutable ntags : int;
  mutable pre : instr list;  (** reversed float-constant prologue *)
  consts : (float, int) Hashtbl.t;
  mutable raccs : raw_access list;  (** reversed *)
  mutable nacc : int;
  written : (int, unit) Hashtbl.t;  (** int regs the tape writes *)
  pinned : (int, unit) Hashtbl.t;
      (** real regs with a live value (promoted elements, assigned
          scalars): peepholes must not steal or drop writes to them *)
}

(* Tag interning: one id per distinct (loop path, statement label). The
   table is tiny (a handful of statements per plan), so a list rebuild
   at the end is fine. *)
let intern_tag st loop stmt =
  match Hashtbl.find_opt st.tags (loop, stmt) with
  | Some id -> id
  | None ->
      let id = st.ntags in
      st.ntags <- id + 1;
      st.tag_list <- { sl_loop = loop; sl_stmt = stmt } :: st.tag_list;
      Hashtbl.add st.tags (loop, stmt) id;
      id

let set_tag st stmt = st.cur_tag <- intern_tag st st.path stmt

let emit st i =
  if st.len = Array.length st.code then begin
    let bigger = Array.make (max 64 (2 * st.len)) (Jmp 0) in
    Array.blit st.code 0 bigger 0 st.len;
    st.code <- bigger;
    let bsrc = Array.make (Array.length bigger) 0 in
    Array.blit st.srcs 0 bsrc 0 st.len;
    st.srcs <- bsrc
  end;
  st.code.(st.len) <- i;
  st.srcs.(st.len) <- st.cur_tag;
  st.len <- st.len + 1;
  Option.iter (fun d -> Hashtbl.replace st.written d ()) (int_dst i)

let patch st pos target =
  st.code.(pos) <-
    (match st.code.(pos) with
    | Jmp _ -> Jmp target
    | Jii (op, a, b, _) -> Jii (op, a, b, target)
    | Jff (op, a, b, _) -> Jff (op, a, b, target)
    | _ -> assert false)

let patch_all st positions target =
  List.iter (fun p -> patch st p target) positions

(* Materialize an int value into a register (reusing the register when
   the form already is one). *)
let materialize st (v : ival) =
  match v.va with
  | { base = 0; coefs = [| 1 |]; regs = [| r |] } -> r
  | { base; coefs = [||]; regs = [||] } ->
      let d = st.fresh_i () in
      emit st (Iconst (d, base));
      d
  | a ->
      let d = st.fresh_i () in
      emit st (Iaff (d, a));
      d

(* Float constants load once per strip (prologue), not per use. *)
let float_const st x =
  match Hashtbl.find_opt st.consts x with
  | Some r -> r
  | None ->
      let r = st.fresh_r () in
      st.pre <- Fconst (r, x) :: st.pre;
      Hashtbl.add st.consts x r;
      r

let to_real st = function
  | Xr r -> r
  | Xi v ->
      if aff_is_const v.va then float_const st (float_of_int v.va.base)
      else begin
        let s = materialize st v in
        let d = st.fresh_r () in
        emit st (Fofi (d, s));
        d
      end

let to_int what = function
  | Xi v -> v
  | Xr _ -> error "%s: expected an integer value" what

(* Move [src] into [dst] — retargeting the just-emitted producer of
   [src] instead when [src] is its single-use destination temporary.
   [dst] becomes pinned; pinned registers are never retargeted, since a
   write to them is observable beyond the producing expression. *)
let emit_mov st dst src =
  Hashtbl.replace st.pinned dst ();
  if dst <> src then begin
    let retarget =
      if st.len = 0 || Hashtbl.mem st.pinned src then None
      else
        match st.code.(st.len - 1) with
        | Fadd (d, a, b) when d = src -> Some (Fadd (dst, a, b))
        | Fsub (d, a, b) when d = src -> Some (Fsub (dst, a, b))
        | Fmul (d, a, b) when d = src -> Some (Fmul (dst, a, b))
        | Fdiv (d, a, b) when d = src -> Some (Fdiv (dst, a, b))
        | Fmin (d, a, b) when d = src -> Some (Fmin (dst, a, b))
        | Fmax (d, a, b) when d = src -> Some (Fmax (dst, a, b))
        | Fmac (d, a, x, y) when d = src -> Some (Fmac (dst, a, x, y))
        | Fmsb (d, a, x, y) when d = src -> Some (Fmsb (dst, a, x, y))
        | Fneg (d, a) when d = src -> Some (Fneg (dst, a))
        | Fofi (d, a) when d = src -> Some (Fofi (dst, a))
        | Fload (d, id) when d = src -> Some (Fload (dst, id))
        | _ -> None
    in
    match retarget with
    | Some i -> st.code.(st.len - 1) <- i
    | None -> emit st (Fmov (dst, src))
  end

(* ---------- serial-loop register promotion analysis ---------- *)

(* Scalars assigned and loop indexes bound anywhere in a block. *)
let rec block_writes b = List.concat_map stmt_writes b

and stmt_writes = function
  | Ast.Assign (Scalar v, _) -> [ v ]
  | Assign (Elem _, _) -> []
  | If (_, t, f) -> block_writes t @ block_writes f
  | For l -> l.index :: block_writes l.body

(* Scalar names assigned anywhere in a block, loop indexes excluded. *)
let rec assigned_scalars (b : Ast.block) =
  List.concat_map
    (fun (s : Ast.stmt) ->
      match s with
      | Assign (Scalar v, _) -> [ v ]
      | Assign (Elem _, _) -> []
      | If (_, t, f) -> assigned_scalars t @ assigned_scalars f
      | For l -> assigned_scalars l.body)
    b

(* The maximal rectangular perfectly-nested parallel prefix rooted at
   [l], mirroring [Nest.check_coalescible]: every extended level is a
   singleton-body [Parallel] loop with syntactic unit step, distinct
   index, and bounds free of outer nest indexes and of scalars its body
   assigns (the interpreter re-evaluates inner bounds per outer
   iteration, a flattened plan does not). Returns the levels, outer
   first, and the innermost body. *)
let coalesced_nest (l : Ast.loop) =
  let rec collect acc (cur : Ast.loop) =
    let names = List.map (fun (x : Ast.loop) -> x.index) (cur :: acc) in
    match cur.body with
    | [ For inner ]
      when inner.par = Parallel
           && Ast.equal_expr inner.step (Ast.Int 1)
           && (not (List.mem inner.index names))
           &&
           let bound_vars = Ast.expr_vars inner.lo @ Ast.expr_vars inner.hi in
           let assigned = assigned_scalars inner.body in
           List.for_all
             (fun v -> not (List.mem v names || List.mem v assigned))
             bound_vars ->
        collect (cur :: acc) inner
    | _ -> (List.rev (cur :: acc), cur.body)
  in
  collect [] l

(* Every array access in a block, as (name, subscripts). *)
let rec expr_accesses acc = function
  | Ast.Int _ | Real _ | Var _ -> acc
  | Bin (_, a, b) -> expr_accesses (expr_accesses acc a) b
  | Neg a -> expr_accesses acc a
  | Load (a, subs) -> List.fold_left expr_accesses ((a, subs) :: acc) subs

let rec cond_accesses acc = function
  | Ast.True -> acc
  | Cmp (_, a, b) -> expr_accesses (expr_accesses acc a) b
  | And (a, b) | Or (a, b) -> cond_accesses (cond_accesses acc a) b
  | Not a -> cond_accesses acc a

let rec block_accesses acc b = List.fold_left stmt_accesses acc b

and stmt_accesses acc = function
  | Ast.Assign (Scalar _, e) -> expr_accesses acc e
  | Assign (Elem (a, subs), e) ->
      expr_accesses (List.fold_left expr_accesses ((a, subs) :: acc) subs) e
  | If (c, t, f) -> block_accesses (block_accesses (cond_accesses acc c) t) f
  | For l ->
      block_accesses
        (expr_accesses (expr_accesses (expr_accesses acc l.lo) l.hi) l.step)
        l.body

let rec expr_has_load = function
  | Ast.Int _ | Real _ | Var _ -> false
  | Bin (_, a, b) -> expr_has_load a || expr_has_load b
  | Neg a -> expr_has_load a
  | Load _ -> true

let subs_equal s1 s2 =
  List.length s1 = List.length s2 && List.for_all2 Ast.equal_expr s1 s2

(* Arrays whose every access in the loop body is the same loop-invariant
   element: candidates for promotion to a register across the loop. The
   subscripts must not read arrays or anything the body writes (so the
   element cannot alias another access or move between iterations), and
   at least one store must sit unconditionally at the top level so the
   loop, once entered, always writes the element — keeping the sunk
   store equivalent to what the loop would have written. *)
let promotable (l : Ast.loop) =
  let writes = l.index :: block_writes l.body in
  let accs = block_accesses [] l.body in
  let top_stores =
    List.filter_map
      (function Ast.Assign (Elem (a, subs), _) -> Some (a, subs) | _ -> None)
      l.body
  in
  let ok (a, subs) =
    List.for_all
      (fun (a', subs') -> (not (String.equal a a')) || subs_equal subs subs')
      accs
    && (not (List.exists expr_has_load subs))
    && List.for_all
         (fun s -> List.for_all (fun v -> not (List.mem v writes)) (Ast.expr_vars s))
         subs
  in
  let seen = Hashtbl.create 4 in
  List.filter
    (fun (a, subs) ->
      if Hashtbl.mem seen a then false
      else begin
        Hashtbl.add seen a ();
        ok (a, subs)
      end)
    top_stores

(* Whether one iteration of a serial loop over [index] with body [body]
   may raise, in the interpreter's evaluation order (a binary operator's
   right operand first, a store's subscripts, then its value), before
   it first accesses array [a]. What may raise: an integer division or
   remainder whose divisor is not a suitable literal, and an inner loop
   whose step is not a positive literal. An access that may not run (in
   a branch, an inner loop or a short-circuited operand) does not count
   as the first. Bounds faults of other arrays are not counted: in that
   order matmul's [C[i, j] + A[i, k] * B[k, j]] reads [B] first, so
   counting them would stop the promotion the serial [k] loop lives on,
   and with both elements out of bounds the hoisted load's message
   names [C] where the interpreter's names [B]. [real v] tells whether
   scalar [v] is real. *)
let raises_before_access ~real a index (body : Ast.block) =
  let ( >>> ) r k = match r with `Clean -> k () | r -> r in
  let maybe = function `Raises -> `Raises | _ -> `Clean in
  let rec is_int bound = function
    | Ast.Int _ -> true
    | Real _ | Load _ -> false
    | Var v -> List.mem v bound || not (real v)
    | Neg x -> is_int bound x
    | Bin (_, x, y) -> is_int bound x && is_int bound y
  in
  let access b = if String.equal a b then `Reached else `Clean in
  let rec expr bound = function
    | Ast.Int _ | Real _ | Var _ -> `Clean
    | Neg x -> expr bound x
    | Load (b, subs) -> exprs bound subs >>> fun () -> access b
    | Bin (op, x, y) -> (
        expr bound y >>> fun () ->
        expr bound x >>> fun () ->
        let raises =
          match (op, y) with
          | (Div | Mod), Int c -> c = 0
          | Div, _ -> is_int bound x && is_int bound y
          | Mod, _ -> true
          | Cdiv, Int c -> c <= 0
          | Cdiv, _ -> true
          | (Add | Sub | Mul | Min | Max), _ -> false
        in
        if raises then `Raises else `Clean)
  and exprs bound es =
    List.fold_left (fun r e -> r >>> fun () -> expr bound e) `Clean es
  in
  let rec cond bound = function
    | Ast.True -> `Clean
    | Cmp (_, x, y) -> exprs bound [ x; y ]
    | And (x, y) | Or (x, y) -> cond bound x >>> fun () -> maybe (cond bound y)
    | Not x -> cond bound x
  in
  let rec stmt bound = function
    | Ast.Assign (Scalar _, e) -> expr bound e
    | Assign (Elem (b, subs), e) ->
        exprs bound (subs @ [ e ]) >>> fun () -> access b
    | If (c, t, f) -> (
        cond bound c >>> fun () ->
        match (block bound t, block bound f) with
        | `Raises, _ | _, `Raises -> `Raises
        | `Reached, `Reached -> `Reached
        | _ -> `Clean)
    | For l -> (
        exprs bound [ l.lo; l.hi; l.step ] >>> fun () ->
        match l.step with
        | Int c when c > 0 -> maybe (block (l.index :: bound) l.body)
        | _ -> `Raises)
  and block bound b =
    List.fold_left (fun r s -> r >>> fun () -> stmt bound s) `Clean b
  in
  block [ index ] body <> `Reached

let plan_level st v =
  let n = Array.length st.plan_names in
  let rec go k =
    if k >= n then None
    else if String.equal st.plan_names.(k) v then Some k
    else go (k + 1)
  in
  go 0

(* Register the access [aname[subs]] (subscripts already lowered) and
   return its id. The array is resolved, and then the subscripts checked
   for arity and kind, only after every subscript lowered. *)
let make_access st aname (subs : xval list) =
  match st.arr aname with
  | None -> error "unbound array %s" aname
  | Some info ->
      if List.length subs <> Array.length info.ba_dims then
        error "array %s: %d subscripts for %d dimensions" aname
          (List.length subs) (Array.length info.ba_dims);
      let subs = Array.of_list (List.map (to_int "subscript") subs) in
      let off = ref (aff_const (-Array.fold_left ( + ) 0 info.ba_strides)) in
      Array.iteri
        (fun k v -> off := aff_add !off (aff_scale info.ba_strides.(k) v.va))
        subs;
      let id = st.nacc in
      st.nacc <- id + 1;
      st.raccs <-
        {
          ra_ref = info;
          ra_subs = Array.map (fun v -> v.va) subs;
          ra_rngs = Array.map (fun v -> v.vr) subs;
          ra_off = !off;
        }
        :: st.raccs;
      id

let rec lower_expr st (e : Ast.expr) : xval =
  match e with
  | Int n -> Xi { va = aff_const n; vr = Rconst n }
  | Real x -> Xr (float_const st x)
  | Var v -> (
      match List.assoc_opt v st.scope with
      | Some (r, rng) -> Xi { va = aff_reg r; vr = rng }
      | None -> (
          match plan_level st v with
          | Some k -> Xi { va = aff_reg st.plan_slots.(k); vr = Rplan k }
          | None -> (
              match st.lookup v with
              | Some (Bint s | Bindex s) ->
                  let vr =
                    match List.assoc_opt v st.known with
                    | Some r -> r
                    | None ->
                        if List.mem v st.assigned || Hashtbl.mem st.written s
                        then Rux
                        else Rreg s
                  in
                  Xi { va = aff_reg s; vr }
              | Some (Breal s) -> Xr s
              | None -> error "unbound variable %s" v)))
  | Neg a -> (
      match lower_expr st a with
      | Xi v -> Xi { va = aff_scale (-1) v.va; vr = r_scale (-1) v.vr }
      | Xr r ->
          let d = st.fresh_r () in
          emit st (Fneg (d, r));
          Xr d)
  | Load (a, subs) -> (
      match
        List.find_opt
          (fun (a', subs', _) -> String.equal a a' && subs_equal subs subs')
          st.promo
      with
      | Some (_, _, r) -> Xr r
      | None ->
          let id = make_access st a (List.map (lower_expr st) subs) in
          let d = st.fresh_r () in
          emit st (Fload (d, id));
          Xr d)
  | Bin (op, a, b) -> lower_bin st op (lower_expr st a) (lower_expr st b)

and lower_bin st (op : Ast.binop) xa xb : xval =
  let int3 mk vr va vb =
    let ra = materialize st va and rb = materialize st vb in
    let d = st.fresh_i () in
    emit st (mk d ra rb);
    Xi { va = aff_reg d; vr }
  in
  let flt2 mk =
    let ra = to_real st xa and rb = to_real st xb in
    let d = st.fresh_r () in
    emit st (mk d ra rb);
    Xr d
  in
  (* Multiply-accumulate peephole: a +/- x*y where the product is the
     instruction just emitted fuses into one dispatch. Product
     destinations are single-use temporaries, so dropping the [Fmul] is
     safe; the replacement lands at the same position, keeping already
     patched jump targets valid. *)
  let fuse_mac ~add =
    let ra = to_real st xa in
    let rb = to_real st xb in
    let d = st.fresh_r () in
    let last = if st.len > 0 then Some st.code.(st.len - 1) else None in
    (match last with
    | Some (Fmul (t, x, y)) when t = rb && not (Hashtbl.mem st.pinned t) ->
        st.len <- st.len - 1;
        emit st (if add then Fmac (d, ra, x, y) else Fmsb (d, ra, x, y))
    | Some (Fmul (t, x, y)) when t = ra && add && not (Hashtbl.mem st.pinned t)
      ->
        st.len <- st.len - 1;
        emit st (Fmac (d, rb, x, y))
    | _ -> emit st (if add then Fadd (d, ra, rb) else Fsub (d, ra, rb)));
    Xr d
  in
  match (op, xa, xb) with
  | Add, Xi a, Xi b -> Xi { va = aff_add a.va b.va; vr = r_add a.vr b.vr }
  | Sub, Xi a, Xi b -> Xi { va = aff_sub a.va b.va; vr = r_sub a.vr b.vr }
  | Mul, Xi a, Xi b when aff_is_const a.va ->
      Xi { va = aff_scale a.va.base b.va; vr = r_scale a.va.base b.vr }
  | Mul, Xi a, Xi b when aff_is_const b.va ->
      Xi { va = aff_scale b.va.base a.va; vr = r_scale b.va.base a.vr }
  | Mul, Xi a, Xi b -> int3 (fun d x y -> Imul (d, x, y)) (Rmul (a.vr, b.vr)) a b
  | Min, Xi a, Xi b -> int3 (fun d x y -> Imin (d, x, y)) (Rmin (a.vr, b.vr)) a b
  | Max, Xi a, Xi b -> int3 (fun d x y -> Imax (d, x, y)) (Rmax (a.vr, b.vr)) a b
  | Div, Xi a, Xi b -> int3 (fun d x y -> Idiv (d, x, y)) Rux a b
  | Mod, Xi a, Xi b -> int3 (fun d x y -> Imod (d, x, y)) Rux a b
  | Cdiv, Xi a, Xi b -> int3 (fun d x y -> Icdiv (d, x, y)) Rux a b
  | Mod, _, _ -> error "mod: expected an integer value"
  | Cdiv, _, _ -> error "ceildiv: expected an integer value"
  | Add, _, _ -> fuse_mac ~add:true
  | Sub, _, _ -> fuse_mac ~add:false
  | Mul, _, _ -> flt2 (fun d x y -> Fmul (d, x, y))
  | Div, _, _ -> flt2 (fun d x y -> Fdiv (d, x, y))
  | Min, _, _ -> flt2 (fun d x y -> Fmin (d, x, y))
  | Max, _, _ -> flt2 (fun d x y -> Fmax (d, x, y))

(* Lower a condition to branch chains. Returns the positions of pending
   jumps taken when the condition is true resp. false; both lists must
   be patched by the caller. Short-circuit order matches the
   interpreter's. *)
let rec lower_cond st (c : Ast.cond) : int list * int list =
  match c with
  | True ->
      let p = st.len in
      emit st (Jmp (-1));
      ([ p ], [])
  | Cmp (op, a, b) -> (
      match (lower_expr st a, lower_expr st b) with
      | Xi va, Xi vb ->
          let ra = materialize st va and rb = materialize st vb in
          let pt = st.len in
          emit st (Jii (op, ra, rb, -1));
          let pf = st.len in
          emit st (Jmp (-1));
          ([ pt ], [ pf ])
      | xa, xb ->
          let ra = to_real st xa and rb = to_real st xb in
          let pt = st.len in
          emit st (Jff (op, ra, rb, -1));
          let pf = st.len in
          emit st (Jmp (-1));
          ([ pt ], [ pf ]))
  | And (a, b) ->
      let ta, fa = lower_cond st a in
      patch_all st ta st.len;
      let tb, fb = lower_cond st b in
      (tb, fa @ fb)
  | Or (a, b) ->
      let ta, fa = lower_cond st a in
      patch_all st fa st.len;
      let tb, fb = lower_cond st b in
      (ta @ tb, fb)
  | Not a ->
      let t, f = lower_cond st a in
      (f, t)

let rec lower_stmt st (s : Ast.stmt) =
  match s with
  | Assign (Scalar v, e) -> (
      set_tag st (v ^ " =");
      match st.lookup v with
      | Some (Bindex _) -> error "cannot assign to loop index %s" v
      | _ when List.mem_assoc v st.scope || plan_level st v <> None ->
          error "cannot assign to loop index %s" v
      | target -> (
          match (target, lower_expr st e) with
          | Some (Bint slot), Xi iv ->
              emit st (Iaff (slot, iv.va));
              if List.mem v st.once && rng_known iv.vr then
                st.known <- (v, iv.vr) :: st.known
          | Some (Bint _), Xr _ -> error "assigning real to int scalar %s" v
          | Some (Breal slot), x -> emit_mov st slot (to_real st x)
          | _ -> error "unbound scalar %s" v))
  | Assign (Elem (a, subs), e) -> (
      set_tag st (a ^ "[] =");
      match
        List.find_opt
          (fun (a', subs', _) -> String.equal a a' && subs_equal subs subs')
          st.promo
      with
      | Some (_, _, reg) ->
          let r = to_real st (lower_expr st e) in
          emit_mov st reg r
      | None ->
          (* The target's code comes first, but a static error in the
             stored value takes precedence over one in the target. *)
          let id =
            match make_access st a (List.map (lower_expr st) subs) with
            | id -> id
            | exception (Error _ as target_error) ->
                ignore (lower_expr st e : xval);
                raise target_error
          in
          let r = to_real st (lower_expr st e) in
          emit st (Fstore (r, id)))
  | If (c, t, []) ->
      set_tag st "if";
      let tp, fp = lower_cond st c in
      patch_all st tp st.len;
      lower_block st t;
      patch_all st fp st.len
  | If (c, t, f) ->
      set_tag st "if";
      let tp, fp = lower_cond st c in
      patch_all st tp st.len;
      lower_block st t;
      set_tag st "if";
      let pend = st.len in
      emit st (Jmp (-1));
      patch_all st fp st.len;
      lower_block st f;
      patch st pend st.len
  | For l -> (
      match st.fork with
      | Some fork when l.par = Parallel -> lower_fork st fork l
      | _ -> lower_serial_loop st l)

(* A parallel loop in top-level code: evaluate its coalesced nest's
   bounds into fresh registers in the interpreter's order — the outer
   level's lo, hi and (checked) step, then each inner level's lo and hi,
   skipping to the fork at the first empty level, whose inner bounds the
   interpreter never evaluates — and fork. The fork runs even on an
   empty space, which reads no bound past the first empty level. *)
and lower_fork st fork (l : Ast.loop) =
  set_tag st ("doall " ^ l.index);
  let loops, body = coalesced_nest l in
  let depth = List.length loops in
  let bound what e =
    let v = to_int what (lower_expr st e) in
    let r = st.fresh_i () in
    emit st (Iaff (r, v.va));
    r
  in
  let lo = Array.make depth 0 and hi = Array.make depth 0 in
  let step = ref 0 and empty = ref [] in
  List.iteri
    (fun k (x : Ast.loop) ->
      lo.(k) <- bound "loop bound" x.lo;
      hi.(k) <- bound "loop bound" x.hi;
      if k = 0 then begin
        step := bound "loop step" x.step;
        emit st (Istep (!step, x.index))
      end;
      if k < depth - 1 then begin
        empty := st.len :: !empty;
        emit st (Jii (Gt, lo.(k), hi.(k), -1))
      end)
    loops;
  let id =
    fork
      {
        fk_loops = loops;
        fk_body = body;
        fk_scope = List.map (fun (v, (r, _)) -> (v, r)) st.scope;
        fk_lo = lo;
        fk_hi = hi;
        fk_step = !step;
      }
  in
  patch_all st !empty st.len;
  emit st (Ifork id)

and lower_serial_loop st (l : Ast.loop) =
  (* Header (bounds, step, entry guard, promotion loads) belongs to the
     enclosing path; the body — and the back edge, which runs once per
     iteration — to the extended path. *)
  set_tag st ("for " ^ l.index);
  let lo = to_int "loop bound" (lower_expr st l.lo) in
  let hi = to_int "loop bound" (lower_expr st l.hi) in
  let step = to_int "loop step" (lower_expr st l.step) in
  let ri = st.fresh_i () in
  emit st (Iaff (ri, lo.va));
  (* Snapshot the bound and step once per entry, like the interpreter:
     the body may mutate scalars they read. *)
  let rh = st.fresh_i () in
  emit st (Iaff (rh, hi.va));
  let back =
    if aff_is_const step.va && step.va.base > 0 then
      let c = step.va.base in
      fun top -> Iloopc (ri, c, rh, top)
    else begin
      let rs = st.fresh_i () in
      emit st (Iaff (rs, step.va));
      emit st (Istep (rs, l.index));
      let incr = aff_make 0 [ (1, ri); (1, rs) ] in
      fun top -> Iloop (ri, incr, rh, top)
    end
  in
  (* Rotated loop: one entry guard, then a single fused
     increment-test-branch dispatch per iteration. *)
  let pentry = st.len in
  emit st (Jii (Gt, ri, rh, -1));
  (* Register promotion: a loop-invariant element the body always
     stores loads once here — after the trip-count guard, so a
     zero-trip loop touches nothing — lives in a register for the whole
     loop, and stores back once past the back edge. Skipped on
     sanitized tapes, which keep the per-iteration shadow protocol, and
     in top-level code, where a fork in the loop may read or write the
     element and the load, always checked there, must not fault ahead
     of the statements before the store. An element whose reference is
     statically wrong is not promoted: its store reports the error in
     statement order. Nor is one the body may fault before reaching:
     the hoisted load, checked unless the fork's proof covers it, would
     report its bounds error ahead of that fault. *)
  let real v =
    (not (List.mem_assoc v st.scope || plan_level st v <> None))
    && match st.lookup v with Some (Breal _) -> true | _ -> false
  in
  let promos =
    if st.sanitize || Option.is_some st.fork then []
    else
      List.filter_map
        (fun (a, subs) ->
          if
            List.exists (fun (a', _, _) -> String.equal a a') st.promo
            || raises_before_access ~real a l.index l.body
          then None
          else
            match make_access st a (List.map (lower_expr st) subs) with
            | exception Error _ -> None
            | id ->
                let r = st.fresh_r () in
                Hashtbl.replace st.pinned r ();
                emit st (Fload (r, id));
                Some (a, subs, r, id))
        (promotable l)
  in
  st.promo <- List.map (fun (a, s, r, _) -> (a, s, r)) promos @ st.promo;
  let top = st.len in
  st.scope <- (l.index, (ri, Rspan (lo.vr, hi.vr))) :: st.scope;
  let parent_path = st.path in
  st.path <- parent_path ^ "/" ^ l.index;
  lower_block st l.body;
  st.cur_tag <- intern_tag st st.path ("for " ^ l.index);
  st.path <- parent_path;
  st.scope <- List.tl st.scope;
  let n_promo = List.length promos in
  st.promo <- List.filteri (fun i _ -> i >= n_promo) st.promo;
  emit st (back top);
  set_tag st ("for " ^ l.index);
  List.iter (fun (_, _, r, id) -> emit st (Fstore (r, id))) promos;
  patch st pentry st.len

and lower_block st (b : Ast.block) = List.iter (lower_stmt st) b

let lower ?fork ~lookup ~array_ref ~fresh_int ~fresh_real ~plan_names
    ~plan_slots ~sanitize (body : Ast.block) : tape =
  let root = String.concat "." (Array.to_list plan_names) in
  let assigned = assigned_scalars body in
  let writes = block_writes body in
  let once =
    List.filter_map
      (function
        | Ast.Assign (Scalar v, _)
          when List.length (List.filter (String.equal v) writes) = 1 ->
            Some v
        | _ -> None)
      body
  in
  let st =
    {
      lookup;
      arr = array_ref;
      fresh_i = fresh_int;
      fresh_r = fresh_real;
      assigned;
      once;
      known = [];
      plan_names;
      plan_slots;
      sanitize;
      fork;
      scope = [];
      promo = [];
      code = Array.make 64 (Jmp 0);
      srcs = Array.make 64 0;
      len = 0;
      cur_tag = 0;
      path = root;
      tags = Hashtbl.create 8;
      tag_list = [];
      ntags = 0;
      pre = [];
      consts = Hashtbl.create 8;
      raccs = [];
      nacc = 0;
      written = Hashtbl.create 16;
      pinned = Hashtbl.create 8;
    }
  in
  (* Tag 0 is the plan root: strip-level code (the float-constant
     prologue, optimizer-hoisted ops) and anything else not attributed
     to a specific statement. *)
  ignore (intern_tag st root "strip" : int);
  lower_block st body;
  (* Top-level code has no strip index. *)
  let jj =
    if plan_slots = [||] then -1 else plan_slots.(Array.length plan_slots - 1)
  in
  let finish (ra : raw_access) =
    (* Split the flat offset: terms over registers the tape never
       writes and that are not the strip index are constant for a
       whole strip. *)
    let inv = ref [] and var = ref [] in
    Array.iteri
      (fun m r ->
        let t = (ra.ra_off.coefs.(m), r) in
        if r = jj || Hashtbl.mem st.written r then var := t :: !var
        else inv := t :: !inv)
      ra.ra_off.regs;
    let ac_var = aff_make 0 !var in
    let ac_vk =
      match Array.length ac_var.regs with
      | 0 -> V0
      | 1 -> V1 (ac_var.coefs.(0), ac_var.regs.(0))
      | 2 ->
          V2
            ( ac_var.coefs.(0),
              ac_var.regs.(0),
              ac_var.coefs.(1),
              ac_var.regs.(1) )
      | _ -> Vn
    in
    {
      ac_slot = ra.ra_ref.ba_slot;
      ac_name = ra.ra_ref.ba_name;
      ac_dims = ra.ra_ref.ba_dims;
      ac_strides = ra.ra_ref.ba_strides;
      ac_subs = ra.ra_subs;
      ac_rngs = ra.ra_rngs;
      ac_inv = aff_make ra.ra_off.base !inv;
      ac_var;
      ac_vk;
    }
  in
  let pre = Array.of_list (List.rev st.pre) in
  {
    tp_pre = pre;
    tp_ops = Array.sub st.code 0 st.len;
    tp_accs = Array.map finish (Array.of_list (List.rev st.raccs));
    tp_ncounters = 0;
    tp_sanitize = sanitize;
    tp_src = Array.sub st.srcs 0 st.len;
    tp_pre_src = Array.make (Array.length pre) 0;
    tp_tags = Array.of_list (List.rev st.tag_list);
  }

(* ---------- per-fork preparation ---------- *)

type prep = { pr_unsafe : bool array; pr_all : bool }

(* The all-unsafe flag by a loop: [Array.for_all] allocates a closure. *)
let prep_of flags =
  let all = ref true in
  for i = 0 to Array.length flags - 1 do
    if not flags.(i) then all := false
  done;
  { pr_unsafe = flags; pr_all = !all }

(* Whether subscripts [k..] of an access provably stay in [1 .. dims]. *)
let rec subs_in_bounds s ints lo hi rngs dims k =
  k = Array.length rngs
  || (match rng_hull s ints lo hi rngs.(k) with
     | true -> 1 <= s.(0) && s.(1) <= dims.(k)
     | false | (exception Overflow) -> false)
     && subs_in_bounds s ints lo hi rngs dims (k + 1)

(* Allocates the flags and the record only: each skeleton is evaluated
   into the domain's [hull_scratch]. *)
let prepare tape ~ints ~lo ~hi =
  let accs = tape.tp_accs in
  let flags = Array.make (Array.length accs) false in
  if not tape.tp_sanitize then begin
    let s = Domain.DLS.get hull_scratch in
    for i = 0 to Array.length accs - 1 do
      let ac = accs.(i) in
      flags.(i) <- subs_in_bounds s ints lo hi ac.ac_rngs ac.ac_dims 0
    done
  end;
  prep_of flags

let unsafe_flags p = Array.copy p.pr_unsafe
let all_unsafe p = p.pr_all

(* [prepare] reads [ints] only at the [Rreg] leaves of the access
   ranges, so its flags are a function of those slots' values and of
   [lo]/[hi]. *)
let proof_inputs tape =
  let rec regs acc = function
    | Rux | Rconst _ | Rplan _ -> acc
    | Rreg s -> s :: acc
    | Raff (_, terms) -> Array.fold_left (fun acc (_, r) -> regs acc r) acc terms
    | Rmul (a, b) | Rmin (a, b) | Rmax (a, b) | Rspan (a, b) ->
        regs (regs acc a) b
  in
  Array.fold_left
    (fun acc ac -> Array.fold_left regs acc ac.ac_rngs)
    [] tape.tp_accs
  |> List.sort_uniq Int.compare |> Array.of_list

(* Words past the end of every array one domain writes per strip or
   per pass (register files, scratch, lane state): two cache lines, one
   and the line the adjacent-line prefetcher pairs with it, so that two
   domains' arrays allocated back to back share no line. *)
let domain_pad = 16

let make_scratch tape =
  Array.make
    (max 1 (Array.length tape.tp_accs + tape.tp_ncounters) + domain_pad)
    0

(* ---------- profiling ---------- *)

(* Per-position dispatch counts for one tape, plus strip/iteration/time
   totals; {!Profile} rebuilds them from a counting copy's block
   counters. *)
type profile = {
  pf_pre : int array;  (** per-[tp_pre] position dispatch count *)
  pf_ops : int array;  (** per-[tp_ops] position dispatch count *)
  pf_strips : int;
  pf_iters : int;
  pf_ns : int;  (** wall ns spent inside profiled chunk execution *)
}

(* ---------- execution ---------- *)

let checked_offset ints (ac : access) =
  let off = ref 0 in
  for k = 0 to Array.length ac.ac_subs - 1 do
    let s = aff_eval ints (Array.unsafe_get ac.ac_subs k) in
    let d = Array.unsafe_get ac.ac_dims k in
    if s < 1 || s > d then
      error "array %s: subscript %d out of bounds 1..%d" ac.ac_name s d;
    off := !off + ((s - 1) * Array.unsafe_get ac.ac_strides k)
  done;
  !off

let[@inline] icmp (op : Ast.relop) x y =
  match op with
  | Eq -> x = y
  | Ne -> x <> y
  | Lt -> x < y
  | Le -> x <= y
  | Gt -> x > y
  | Ge -> x >= y

let[@inline] fcmp (op : Ast.relop) (x : float) (y : float) =
  match op with
  | Eq -> x = y
  | Ne -> x <> y
  | Lt -> x < y
  | Le -> x <= y
  | Gt -> x > y
  | Ge -> x >= y

(* The dispatch loop of both runners. [fork] runs an [Ifork]'s plan;
   strips never meet one. *)
let exec_tape ~fork tape prep ~ints ~reals ~arrays ~shadow ~inv ~jslot ~jstep
    ~len ~iter0 =
  let accs = tape.tp_accs in
  let unsafe = prep.pr_unsafe in
  (* Offset of one access execution: the hoisted invariant part plus
     the variant part on the unsafe path, the subscripts otherwise. *)
  let off_of id (ac : access) =
    if Array.unsafe_get unsafe id then
      match ac.ac_vk with
      | V0 -> Array.unsafe_get inv id
      | V1 (c, r) -> Array.unsafe_get inv id + (c * Array.unsafe_get ints r)
      | V2 (c1, r1, c2, r2) ->
          Array.unsafe_get inv id
          + (c1 * Array.unsafe_get ints r1)
          + (c2 * Array.unsafe_get ints r2)
      | Vn -> Array.unsafe_get inv id + aff_eval ints ac.ac_var
    else checked_offset ints ac
  in
  let[@inline] load_elem id iter =
    let ac = Array.unsafe_get accs id in
    let off = off_of id ac in
    (match shadow with
    | Some sh -> Sanitize.on_read sh ~slot:ac.ac_slot ~off ~iter
    | None -> ());
    Array.unsafe_get (Array.unsafe_get arrays ac.ac_slot) off
  in
  (* A fused form loads [i1], its left operand, first; the interpreter
     evaluates the right one first. When [i1] is checked, [i2]'s
     subscripts are checked before it, so an out-of-bounds [i2] faults
     first, as in the interpreter. *)
  let[@inline] check_right i1 i2 =
    if not (Array.unsafe_get unsafe i1) then
      ignore (checked_offset ints (Array.unsafe_get accs i2) : int)
  in
  (* Runs [len] strip iterations of [ops], the first numbered [iter0]
     for the sanitizer. When [pc] falls off the body, the strip
     back-edge advances the strip index by [jstep] and the iteration
     number by one and restarts at 0; the index is left at the last
     iteration's value.

     A left operand of [+.] or [*.] is bound before the operation when
     the right one is not a plain read: amd64 instruction selection
     moves an unbound read to the right of a commutative operation, and
     with NaNs on both sides the left one's payload is the one [Eval]
     keeps. *)
  let exec_ops ops iter0 len =
    let stop = Array.length ops in
    let pc = ref 0 and iter = ref iter0 in
    let last = iter0 + len - 1 in
    while !iter <= last do
      while !pc < stop do
        match Array.unsafe_get ops !pc with
        | Iconst (d, v) ->
            Array.unsafe_set ints d v;
            incr pc
        | Iaff (d, a) ->
            Array.unsafe_set ints d (aff_eval ints a);
            incr pc
        | Imul (d, a, b) ->
            Array.unsafe_set ints d
              (Array.unsafe_get ints a * Array.unsafe_get ints b);
            incr pc
        | Idiv (d, a, b) ->
            let y = Array.unsafe_get ints b in
            if y = 0 then error "integer division by zero";
            Array.unsafe_set ints d (Array.unsafe_get ints a / y);
            incr pc
        | Imod (d, a, b) ->
            let y = Array.unsafe_get ints b in
            if y = 0 then error "mod by zero";
            Array.unsafe_set ints d (Array.unsafe_get ints a mod y);
            incr pc
        | Icdiv (d, a, b) ->
            let y = Array.unsafe_get ints b in
            if y <= 0 then error "ceildiv: non-positive divisor %d" y;
            Array.unsafe_set ints d
              (Loopcoal_util.Intmath.cdiv (Array.unsafe_get ints a) y);
            incr pc
        | Imin (d, a, b) ->
            let x = Array.unsafe_get ints a and y = Array.unsafe_get ints b in
            Array.unsafe_set ints d (if x <= y then x else y);
            incr pc
        | Imax (d, a, b) ->
            let x = Array.unsafe_get ints a and y = Array.unsafe_get ints b in
            Array.unsafe_set ints d (if x >= y then x else y);
            incr pc
        | Istep (r, name) ->
            if Array.unsafe_get ints r <= 0 then
              error "loop %s: step must be positive" name;
            incr pc
        | Fconst (d, x) ->
            Array.unsafe_set reals d x;
            incr pc
        | Fmov (d, s) ->
            Array.unsafe_set reals d (Array.unsafe_get reals s);
            incr pc
        | Fadd (d, a, b) ->
            Array.unsafe_set reals d
              (Array.unsafe_get reals a +. Array.unsafe_get reals b);
            incr pc
        | Fsub (d, a, b) ->
            Array.unsafe_set reals d
              (Array.unsafe_get reals a -. Array.unsafe_get reals b);
            incr pc
        | Fmul (d, a, b) ->
            Array.unsafe_set reals d
              (Array.unsafe_get reals a *. Array.unsafe_get reals b);
            incr pc
        | Fdiv (d, a, b) ->
            Array.unsafe_set reals d
              (Array.unsafe_get reals a /. Array.unsafe_get reals b);
            incr pc
        | Fmin (d, a, b) ->
            let x = Array.unsafe_get reals a and y = Array.unsafe_get reals b in
            Array.unsafe_set reals d (if x <= y then x else y);
            incr pc
        | Fmax (d, a, b) ->
            let x = Array.unsafe_get reals a and y = Array.unsafe_get reals b in
            Array.unsafe_set reals d (if x >= y then x else y);
            incr pc
        | Fneg (d, s) ->
            Array.unsafe_set reals d (-.Array.unsafe_get reals s);
            incr pc
        | Fofi (d, s) ->
            Array.unsafe_set reals d (float_of_int (Array.unsafe_get ints s));
            incr pc
        | Fmac (d, a, x, y) ->
            let a = Array.unsafe_get reals a in
            Array.unsafe_set reals d
              (a +. (Array.unsafe_get reals x *. Array.unsafe_get reals y));
            incr pc
        | Fmsb (d, a, x, y) ->
            Array.unsafe_set reals d
              (Array.unsafe_get reals a
              -. (Array.unsafe_get reals x *. Array.unsafe_get reals y));
            incr pc
        | Fload (d, id) ->
            let ac = Array.unsafe_get accs id in
            let off = off_of id ac in
            (match shadow with
            | Some sh -> Sanitize.on_read sh ~slot:ac.ac_slot ~off ~iter:!iter
            | None -> ());
            Array.unsafe_set reals d
              (Array.unsafe_get (Array.unsafe_get arrays ac.ac_slot) off);
            incr pc
        | Fstore (s, id) ->
            let ac = Array.unsafe_get accs id in
            let off = off_of id ac in
            (match shadow with
            | Some sh -> Sanitize.on_write sh ~slot:ac.ac_slot ~off ~iter:!iter
            | None -> ());
            Array.unsafe_set
              (Array.unsafe_get arrays ac.ac_slot)
              off (Array.unsafe_get reals s);
            incr pc
        | Fmac2 (d, a, i1, i2) ->
            check_right i1 i2;
            let l1 = load_elem i1 !iter in
            let l2 = load_elem i2 !iter in
            let a = Array.unsafe_get reals a in
            Array.unsafe_set reals d (a +. (l1 *. l2));
            incr pc
        | Fmsb2 (d, a, i1, i2) ->
            check_right i1 i2;
            let l1 = load_elem i1 !iter in
            let l2 = load_elem i2 !iter in
            Array.unsafe_set reals d (Array.unsafe_get reals a -. (l1 *. l2));
            incr pc
        | Fldmac (d, a, x, id) ->
            let l = load_elem id !iter in
            let a = Array.unsafe_get reals a and x = Array.unsafe_get reals x in
            Array.unsafe_set reals d (a +. (x *. l));
            incr pc
        | Fldmsb (d, a, x, id) ->
            let l = load_elem id !iter in
            let x = Array.unsafe_get reals x in
            Array.unsafe_set reals d (Array.unsafe_get reals a -. (x *. l));
            incr pc
        | Fldadd (d, x, id) ->
            let l = load_elem id !iter in
            let x = Array.unsafe_get reals x in
            Array.unsafe_set reals d (x +. l);
            incr pc
        | Fldsub (d, x, id) ->
            let l = load_elem id !iter in
            Array.unsafe_set reals d (Array.unsafe_get reals x -. l);
            incr pc
        | Fldmul (d, x, id) ->
            let l = load_elem id !iter in
            let x = Array.unsafe_get reals x in
            Array.unsafe_set reals d (x *. l);
            incr pc
        | Fld2add (d, i1, i2) ->
            check_right i1 i2;
            let l1 = load_elem i1 !iter in
            let l2 = load_elem i2 !iter in
            Array.unsafe_set reals d (l1 +. l2);
            incr pc
        | Fldst (i1, i2) ->
            let v = load_elem i1 !iter in
            let ac = Array.unsafe_get accs i2 in
            let off = off_of i2 ac in
            (match shadow with
            | Some sh -> Sanitize.on_write sh ~slot:ac.ac_slot ~off ~iter:!iter
            | None -> ());
            Array.unsafe_set (Array.unsafe_get arrays ac.ac_slot) off v;
            incr pc
        | Jmp t -> pc := t
        | Jii (op, a, b, t) ->
            if icmp op (Array.unsafe_get ints a) (Array.unsafe_get ints b) then
              pc := t
            else incr pc
        | Jff (op, a, b, t) ->
            if fcmp op (Array.unsafe_get reals a) (Array.unsafe_get reals b) then
              pc := t
            else incr pc
        | Jffn (op, a, b, t) ->
            if fcmp op (Array.unsafe_get reals a) (Array.unsafe_get reals b) then
              incr pc
            else pc := t
        | Iloop (r, a, bnd, top) ->
            let v = aff_eval ints a in
            Array.unsafe_set ints r v;
            if v <= Array.unsafe_get ints bnd then pc := top else incr pc
        | Iloopc (r, c, bnd, top) ->
            let v = Array.unsafe_get ints r + c in
            Array.unsafe_set ints r v;
            if v <= Array.unsafe_get ints bnd then pc := top else incr pc
        | Icount k ->
            Array.unsafe_set inv k (Array.unsafe_get inv k + 1);
            incr pc
        | Ifork k ->
            fork k;
            incr pc
      done;
      if !iter < last then
        Array.unsafe_set ints jslot (Array.unsafe_get ints jslot + jstep);
      incr iter;
      pc := 0
    done
  in
  (* Strip prologue: float constants and strip-invariant ops hoisted by
     the optimizer run through the general dispatch (no access
     instructions land here), then the per-access invariant offsets are
     hoisted. Both read the strip index, which was set to the strip's
     first iteration above. *)
  Array.iter
    (function
      | Fconst (d, x) -> Array.unsafe_set reals d x
      | op -> exec_ops [| op |] iter0 1)
    tape.tp_pre;
  for a = 0 to Array.length accs - 1 do
    Array.unsafe_set inv a (aff_eval ints (Array.unsafe_get accs a).ac_inv)
  done;
  exec_ops tape.tp_ops iter0 len

let no_fork _ = invalid_arg "Bytecode.exec_strip: fork in a plan tape"

let exec_strip tape prep ~ints ~reals ~arrays ~shadow ~inv ~jslot ~j0 ~jstep
    ~len ~iter0 =
  Array.unsafe_set ints jslot j0;
  exec_tape ~fork:no_fork tape prep ~ints ~reals ~arrays ~shadow ~inv ~jslot
    ~jstep ~len ~iter0

(* Top-level code runs once, every access checked: its registers change
   between statements, so no once-per-run proof holds. With one
   iteration there is no strip advance, so the strip index is unused. *)
let exec_top tape ~ints ~reals ~arrays ~fork =
  exec_tape ~fork tape
    (prep_of (Array.make (Array.length tape.tp_accs) false))
    ~ints ~reals ~arrays ~shadow:None ~inv:(make_scratch tape) ~jslot:0
    ~jstep:0 ~len:1 ~iter0:0

(* ---------- strip geometry ---------- *)

let strip_bounds ~inner ~t0 ~len =
  if inner <= 0 || len <= 0 then []
  else begin
    let tlast = t0 + len - 1 in
    let rec go t acc =
      if t > tlast then List.rev acc
      else begin
        let pos = (t - 1) mod inner in
        let slen = min (tlast - t + 1) (inner - pos) in
        go (t + slen) ((t, slen) :: acc)
      end
    in
    go t0 []
  end

(* ---------- CFG over a lowered instruction array ---------- *)

(* Basic blocks split at jump targets and after control instructions.
   Lowering emits forward jumps only except for the [Iloop]/[Iloopc]
   back edges, so block order (= instruction order) is a topological
   order of the graph with back edges removed. The final block is a
   synthetic empty exit block at position [n]. *)
type bblock = {
  bb_start : int;  (** first instruction index *)
  bb_stop : int;  (** one past the last instruction *)
  bb_succs : int list;  (** successor block ids *)
  bb_preds : int list;  (** predecessor block ids *)
}

type cfg = {
  cf_blocks : bblock array;
  cf_block_of : int array;  (** instruction index (0..n incl.) -> block id *)
}

let instr_targets = function
  | Jmp t -> [ t ]
  | Jii (_, _, _, t) | Jff (_, _, _, t) | Jffn (_, _, _, t) -> [ t ]
  | Iloop (_, _, _, top) | Iloopc (_, _, _, top) -> [ top ]
  | _ -> []

let map_targets f = function
  | Jmp t -> Jmp (f t)
  | Jii (op, a, b, t) -> Jii (op, a, b, f t)
  | Jff (op, a, b, t) -> Jff (op, a, b, f t)
  | Jffn (op, a, b, t) -> Jffn (op, a, b, f t)
  | Iloop (r, a, bnd, top) -> Iloop (r, a, bnd, f top)
  | Iloopc (r, c, bnd, top) -> Iloopc (r, c, bnd, f top)
  | i -> i

let build_cfg (ops : instr array) : cfg =
  let n = Array.length ops in
  let leader = Array.make (n + 1) false in
  leader.(0) <- true;
  leader.(n) <- true;
  Array.iteri
    (fun i op ->
      match instr_targets op with
      | [] -> ()
      | ts ->
          List.iter (fun t -> leader.(t) <- true) ts;
          if i + 1 <= n then leader.(i + 1) <- true)
    ops;
  let starts = ref [] in
  for i = n downto 0 do
    if leader.(i) then starts := i :: !starts
  done;
  let starts = Array.of_list !starts in
  let nb = Array.length starts in
  let block_of = Array.make (n + 1) (nb - 1) in
  let bounds =
    Array.mapi
      (fun k s ->
        let stop = if k + 1 < nb then starts.(k + 1) else n in
        for i = s to stop - 1 do
          block_of.(i) <- k
        done;
        (s, stop))
      starts
  in
  block_of.(n) <- nb - 1;
  let succs = Array.make nb [] and preds = Array.make nb [] in
  let edge a b =
    if not (List.mem b succs.(a)) then begin
      succs.(a) <- b :: succs.(a);
      preds.(b) <- a :: preds.(b)
    end
  in
  Array.iteri
    (fun k (s, stop) ->
      if stop > s then begin
        let last = ops.(stop - 1) in
        (match last with
        | Jmp t -> edge k block_of.(t)
        | Jii (_, _, _, t) | Jff (_, _, _, t) | Jffn (_, _, _, t) ->
            edge k block_of.(t);
            edge k block_of.(stop)
        | Iloop (_, _, _, top) | Iloopc (_, _, _, top) ->
            edge k block_of.(top);
            edge k block_of.(stop)
        | _ -> edge k block_of.(stop))
      end)
    bounds;
  {
    cf_blocks =
      Array.mapi
        (fun k (s, stop) ->
          {
            bb_start = s;
            bb_stop = stop;
            bb_succs = List.rev succs.(k);
            bb_preds = List.rev preds.(k);
          })
        bounds;
    cf_block_of = block_of;
  }

(* ---------- strip-lane legality ----------

   Whether running consecutive strip iterations one instruction at a
   time across all of them, in place, equals running them in order:
   the lane path below runs up to [lane_width] iterations per pass, the
   native tier's unroll-and-jam four. The rules, checked in this order
   (the first that fails is the reason):

   - uniform control: every branch and every serial-loop counter's
     start, step and bound is uniform — computed only from literals,
     prologue registers, registers the body never writes and other
     uniform registers — and there is no float compare;
   - nothing carried: every register the body reads is defined earlier
     on every path through the same iteration, or never written in it,
     or is a fold register (below);
   - one element per iteration: every stored array is accessed, in all
     of its loads and stores, at one offset [inv + c * j], c <> 0, or
     with one subscript [c * j + inv] and no other varying one, so
     iterations touch distinct elements and none reads another's;
   - nothing can raise: every [Istep] is over a uniform register, and
     every divisor is a valid literal, so errors and their order cannot
     depend on the interleaving: every iteration reaches a step check at
     the same position with the same value, so the first pass (or jammed
     copy) raises the message the first iteration would.

   A fold register is a float register [r] carried through one chain
   [r <- r op e] or [r <- e op r]: exactly one instruction [F] writes
   it, with [r] as either operand of [+ - * / min max] or as the
   accumulator of a fused multiply-add form; [e] does not read [r]; no
   other instruction reads [r]; and [F] is not inside a serial loop.
   It is neither carried nor varying: it stays scalar, and the lane
   path folds [F] over a pass's iterations in iteration order
   (recurrence fission) and operand order, so no operation is
   reassociated or commuted. *)

module IntSet = Set.Make (Int)
module IntMap = Map.Make (Int)

let reads = function
  | Iconst _ | Fconst _ | Jmp _ | Icount _ | Ifork _ -> ([], [], [])
  | Iaff (_, a) -> (Array.to_list a.regs, [], [])
  | Imul (_, a, b)
  | Idiv (_, a, b)
  | Imod (_, a, b)
  | Icdiv (_, a, b)
  | Imin (_, a, b)
  | Imax (_, a, b)
  | Jii (_, a, b, _) ->
      ([ a; b ], [], [])
  | Istep (r, _) | Fofi (_, r) -> ([ r ], [], [])
  | Iloop (_, a, bnd, _) -> (bnd :: Array.to_list a.regs, [], [])
  | Iloopc (r, _, bnd, _) -> ([ r; bnd ], [], [])
  | Fmov (_, s) | Fneg (_, s) -> ([], [ s ], [])
  | Fadd (_, a, b)
  | Fsub (_, a, b)
  | Fmul (_, a, b)
  | Fdiv (_, a, b)
  | Fmin (_, a, b)
  | Fmax (_, a, b)
  | Jff (_, a, b, _)
  | Jffn (_, a, b, _) ->
      ([], [ a; b ], [])
  | Fmac (_, a, x, y) | Fmsb (_, a, x, y) -> ([], [ a; x; y ], [])
  | Fload (_, id) -> ([], [], [ id ])
  | Fstore (s, id) -> ([], [ s ], [ id ])
  | Fmac2 (_, a, i1, i2) | Fmsb2 (_, a, i1, i2) -> ([], [ a ], [ i1; i2 ])
  | Fldmac (_, a, x, id) | Fldmsb (_, a, x, id) -> ([], [ a; x ], [ id ])
  | Fldadd (_, x, id) | Fldsub (_, x, id) | Fldmul (_, x, id) ->
      ([], [ x ], [ id ])
  | Fld2add (_, i1, i2) | Fldst (i1, i2) -> ([], [], [ i1; i2 ])

(* Int registers an access's unsafe-path offset reads per execution. *)
let acc_regs (ac : access) =
  match ac.ac_vk with
  | V1 (_, r) -> [ r ]
  | V2 (_, r1, _, r2) -> [ r1; r2 ]
  | Vn -> Array.to_list ac.ac_var.regs
  | V0 -> []

(* How many times [f] lists each register over the prologue and the
   body: its writers, say, with [f] an instruction's destinations. *)
let reg_counts (tp : tape) f =
  let h = Hashtbl.create 16 in
  let get r = Option.value ~default:0 (Hashtbl.find_opt h r) in
  let add r = Hashtbl.replace h r (1 + get r) in
  Array.iter (fun i -> List.iter add (f i)) tp.tp_pre;
  Array.iter (fun i -> List.iter add (f i)) tp.tp_ops;
  get

let int_writers tp = reg_counts tp (fun i -> Option.to_list (int_dst i))

let const_regs ~jslot (tp : tape) =
  let writes = int_writers tp in
  Array.fold_left
    (fun m i ->
      match i with
      | (Iconst (d, v) | Iaff (d, { base = v; coefs = [||]; _ }))
        when d <> jslot && writes d = 1 ->
          IntMap.add d v m
      | _ -> m)
    IntMap.empty tp.tp_pre

let aff_coef (a : aff) r =
  let c = ref 0 in
  Array.iteri (fun m r' -> if r' = r then c := a.coefs.(m)) a.regs;
  !c

type lane_plan = {
  lp_vary_i : IntSet.t;
  lp_vary_f : IntSet.t;
  lp_folds : IntSet.t;
  lp_flat_stores : bool;
  lp_uniform : bool array;
  lp_written_i : IntSet.t;
  lp_starts : bool array;
}

(* The accumulator of a fold form [r <- r op e] or [r <- e op r]: the
   register it writes, when it is also an operand of [+ - * / min max]
   or the accumulator of a fused form. *)
let fold_acc = function
  | Fadd (d, a, b)
  | Fsub (d, a, b)
  | Fmul (d, a, b)
  | Fdiv (d, a, b)
  | Fmin (d, a, b)
  | Fmax (d, a, b)
    when a = d || b = d ->
      Some d
  | Fmac (d, a, _, _)
  | Fmsb (d, a, _, _)
  | Fmac2 (d, a, _, _)
  | Fmsb2 (d, a, _, _)
  | Fldmac (d, a, _, _)
  | Fldmsb (d, a, _, _)
  | Fldadd (d, a, _)
  | Fldsub (d, a, _)
  | Fldmul (d, a, _)
    when a = d ->
      Some d
  | _ -> None

let lane_plan ~jslot ~lits (tp : tape) =
  let ops = tp.tp_ops in
  let cfg = build_cfg ops in
  let exit = cfg.cf_block_of.(Array.length ops) in
  let acc id = tp.tp_accs.(id) in
  let set_of f =
    Array.fold_left
      (fun s i -> match f i with Some d -> IntSet.add d s | None -> s)
      IntSet.empty ops
  in
  let written_i = set_of int_dst and written_f = set_of float_dst in
  (* fold registers: one writer, a fold form outside every serial loop
     (a back-edge at [q] to [top] spans [top .. q - 1]), and no read but
     its own accumulator operand *)
  let folds =
    let ops_l = Array.to_list ops in
    let freads =
      List.concat_map
        (fun i ->
          let _, fr, _ = reads i in
          fr)
        ops_l
    in
    let fwrites = List.filter_map float_dst ops_l in
    let once xs r = List.length (List.filter (Int.equal r) xs) = 1 in
    let loops =
      List.concat
        (List.mapi
           (fun q -> function
             | Iloop (_, _, _, top) | Iloopc (_, _, _, top) -> [ (top, q) ]
             | _ -> [])
           ops_l)
    in
    List.fold_left
      (fun s (p, i) ->
        match fold_acc i with
        | Some r
          when once fwrites r && once freads r
               && not (List.exists (fun (top, q) -> top <= p && p < q) loops)
          ->
            IntSet.add r s
        | _ -> s)
      IntSet.empty
      (List.mapi (fun p i -> (p, i)) ops_l)
  in
  (* registers that vary with the strip index *)
  let vi = ref (IntSet.singleton jslot) and vf = ref IntSet.empty in
  let acc_varies id =
    List.exists (fun r -> IntSet.mem r !vi) (acc_regs (acc id))
  in
  let changed = ref true in
  let add set x =
    if not (IntSet.mem x !set) then begin
      set := IntSet.add x !set;
      changed := true
    end
  in
  while !changed do
    changed := false;
    Array.iter
      (fun i ->
        let ir, fr, ids = reads i in
        if
          List.exists (fun r -> IntSet.mem r !vi) ir
          || List.exists (fun r -> IntSet.mem r !vf) fr
          || List.exists acc_varies ids
        then begin
          Option.iter (add vi) (int_dst i);
          Option.iter (add vf) (float_dst i)
        end)
      ops
  done;
  let uniform r = not (IntSet.mem r !vi) in
  let varying_control () =
    Array.exists
      (fun i ->
        match i with
        | Jii _ | Iloop _ | Iloopc _ ->
            let ir, _, _ = reads i in
            not
              (List.for_all uniform ir
              && Option.fold ~none:true ~some:uniform (int_dst i))
        | _ -> false)
      ops
  in
  (* nothing carried: a read of anything the body writes must follow a
     write on every path through the iteration (keys: int 2r, float
     2r+1) *)
  let carried () =
    let needs i =
      let ir, fr, ids = reads i in
      let ir = ir @ List.concat_map (fun id -> acc_regs (acc id)) ids in
      List.filter_map
        (fun r -> if IntSet.mem r written_i then Some (2 * r) else None)
        ir
      @ List.filter_map
          (fun r ->
            if IntSet.mem r written_f && not (IntSet.mem r folds) then
              Some ((2 * r) + 1)
            else None)
          fr
    in
    let defs d i =
      let add k r = IntSet.add ((2 * r) + k) in
      let d = Option.fold ~none:d ~some:(fun r -> add 0 r d) (int_dst i) in
      Option.fold ~none:d ~some:(fun r -> add 1 r d) (float_dst i)
    in
    let outs = Array.make exit None in
    let block_in bid =
      if bid = 0 then Some IntSet.empty
      else
        List.fold_left
          (fun acc p ->
            match (acc, if p < exit then outs.(p) else None) with
            | None, o | o, None -> o
            | Some a, Some b -> Some (IntSet.inter a b))
          None cfg.cf_blocks.(bid).bb_preds
    in
    let bad = ref false in
    let walk bid check =
      match block_in bid with
      | None -> None
      | Some d ->
          let bb = cfg.cf_blocks.(bid) in
          let d = ref d in
          for p = bb.bb_start to bb.bb_stop - 1 do
            let defined k = IntSet.mem k !d in
            if check && not (List.for_all defined (needs ops.(p))) then
              bad := true;
            d := defs !d ops.(p)
          done;
          Some !d
    in
    let stable = ref false in
    while not !stable do
      stable := true;
      for bid = 0 to exit - 1 do
        let o = walk bid false in
        if o <> outs.(bid) then begin
          stable := false;
          outs.(bid) <- o
        end
      done
    done;
    for bid = 0 to exit - 1 do
      ignore (walk bid true)
    done;
    !bad
  in
  (* every stored array is accessed at one element per iteration, in
     one of two forms: flat, the same [ac_inv] and [ac_var = c * jslot],
     c <> 0, in every access; or pinned, one subscript the same
     [c * jslot + e] in every access (e over registers the body never
     writes) and no subscript reading a varying register but the strip
     index — the range proof a lane fork needs keeps subscripts in
     bounds, so distinct iterations touch distinct rows *)
  let body_accs =
    List.concat_map
      (fun i ->
        let _, _, ids = reads i in
        ids)
      (Array.to_list ops)
  in
  let stored =
    Array.fold_left
      (fun s i ->
        match i with
        | Fstore (_, id) | Fldst (_, id) -> IntSet.add (acc id).ac_slot s
        | _ -> s)
      IntSet.empty ops
  in
  let same_slot (ac : access) =
    List.filter_map
      (fun id ->
        let ac' = acc id in
        if ac'.ac_slot = ac.ac_slot then Some ac' else None)
      body_accs
  in
  let flat id =
    let ac = acc id in
    (not (IntSet.mem ac.ac_slot stored))
    || ac.ac_var.base = 0
       && ac.ac_var.regs = [| jslot |]
       && ac.ac_var.coefs.(0) <> 0
       && Array.for_all (fun r -> not (IntSet.mem r written_i)) ac.ac_inv.regs
       && List.for_all
            (fun (ac' : access) ->
              ac'.ac_inv = ac.ac_inv && ac'.ac_var = ac.ac_var)
            (same_slot ac)
  in
  let pinned id =
    let ac = acc id in
    let others = same_slot ac in
    let pins (a : aff) =
      aff_coef a jslot <> 0
      && Array.for_all
           (fun r -> r = jslot || not (IntSet.mem r written_i))
           a.regs
    in
    List.for_all
      (fun (ac' : access) ->
        Array.for_all
          (fun (a : aff) ->
            Array.for_all (fun r -> r = jslot || uniform r) a.regs)
          ac'.ac_subs)
      others
    && Array.exists Fun.id
         (Array.mapi
            (fun d a ->
              pins a
              && List.for_all
                   (fun (ac' : access) -> ac'.ac_subs.(d) = a)
                   others)
            ac.ac_subs)
  in
  let shared_store () =
    not (List.for_all (fun id -> flat id || pinned id) body_accs)
  in
  let may_raise () =
    let valid_lit b p =
      match IntMap.find_opt b lits with Some v -> p v | None -> false
    in
    Array.exists
      (fun i ->
        match i with
        | Istep (r, _) -> not (uniform r)
        | Idiv (_, _, b) | Imod (_, _, b) -> not (valid_lit b (fun v -> v <> 0))
        | Icdiv (_, _, b) -> not (valid_lit b (fun v -> v > 0))
        | _ -> false)
      ops
  in
  let float_compare () =
    Array.exists (function Jff _ | Jffn _ -> true | _ -> false) ops
  in
  let rules =
    [
      ("sanitized", fun () -> tp.tp_sanitize);
      ("float_compare", float_compare);
      ("varying_control", varying_control);
      ("carried", carried);
      ("stored_offset", shared_store);
      ("may_raise", may_raise);
    ]
  in
  match List.find_opt (fun (_, fails) -> fails ()) rules with
  | Some (rule, _) -> Result.Error rule
  | None ->
      Result.Ok
        {
          lp_vary_i = !vi;
          lp_vary_f = IntSet.diff !vf folds;
          lp_folds = folds;
          lp_flat_stores = List.for_all flat body_accs;
          lp_uniform =
            Array.init (Array.length tp.tp_accs) (fun id ->
                not (acc_varies id));
          lp_written_i = written_i;
          lp_starts =
            (let starts = Array.make (Array.length ops + 1) false in
             Array.iter (fun bb -> starts.(bb.bb_start) <- true) cfg.cf_blocks;
             starts);
        }

(* ---------- lane execution ----------

   An eligible strip runs in pieces of up to [lane_width] iterations.
   Control and uniform registers stay scalar, in the register files,
   and run once per piece; a varying register lives in a lane array,
   one slot per iteration of the piece, and an instruction writing one
   (or storing) runs as one loop over the piece. Every operand is a
   strided view over an array: a lane array (step 1), a scalar register
   (step 0) or an array access whose offset is evaluated at the piece's
   first iteration and steps by [c * jstep], [c] its strip-index
   coefficient. A kernel keeps one running offset per operand and adds
   its step per element. An access whose offset
   reads a varying register other than the strip index is gathered lane
   by lane. The strip index register holds the piece's first iteration,
   so offsets evaluate there; its lane array, and an affine int's over
   it, are filled only where read ([progressions]). After the strip the
   last iteration's varying registers go back to the register files. A
   fold register stays in the register file: its one writer runs over
   the piece like a varying one, but its accumulator operand and destination are the
   same step-0 view, and a kernel reads element [l]'s operands before
   writing element [l], so the piece folds in iteration order with the
   scalar runner's operation and operand order.

   The dispatch loop binds each instruction's view slots to its
   operands and runs its kernel over them ([lane_step]). A serial loop
   in the body runs on it one trip at a time, unless it is a lane loop:
   its one body instruction is a varying [Fmac2]/[Fmsb2] fold
   [d <- d op x * y], its index steps by a uniform increment and neither
   access is gathered. Reaching its [top], the piece runs every trip as
   one [k_fmac_trips] call, which moves [x] and [y] by their index
   coefficient times the step per trip, what re-evaluating their offsets
   would give; when the trip count is not sure, the piece runs that trip
   as the dispatch loop would and goes on at the back edge. *)

let lane_width = 256

type lane_acc =
  | La_fix  (** [V0]: the hoisted invariant offset *)
  | La_aff of int  (** invariant + variant part; strip coefficient *)
  | La_gather  (** reads a varying register besides the strip index *)

(* A lane loop: the body is its [top] alone, a varying [Fmac2]/[Fmsb2]
   fold [d <- d op x * y]; the index's coefficient in the offsets of [x]
   and [y]. *)
type lane_loop = {
  ll_back : int;  (** the back edge's position *)
  ll_cx : int;
  ll_cy : int;
}

type fop = Kadd | Ksub | Kmul | Kdiv | Kmin | Kmax

(* A lane chain's tail: none, [u op t] or [t op u], [u] uniform. *)
type side = Snone | Sleft | Sright

type chain_head =
  | Ch_sum of int array
      (** [load id1 + load id2], then [+ load id] per further id, in
          that order *)
  | Ch_ofi of int * int
      (** [float p] of progression [p], or [float (p mod m)] when the
          second is [m]'s literal register (else -1) *)

(* A chain ([chains]): one pass per strip piece in place of one per
   position. *)
type chain = {
  ch_head : chain_head;
  ch_side : side;
  ch_op : fop;  (** the tail's operation ([Kadd] when [Snone]) *)
  ch_u : int;  (** the tail's uniform register, or -1 *)
  ch_dst : int;  (** the last position's register *)
}

type lanes = {
  ln_ilane : int array;  (** int register -> lane array base, or -1 *)
  ln_flane : int array;
      (** float register -> lane array base, or -1, or [-2 - id]: read or
          written through access [id]'s view ([view_regs]) *)
  ln_iregs : int array;  (** varying int registers, in lane order *)
  ln_fregs : int array;  (** varying float registers, in lane order *)
  ln_acc : lane_acc array;
  ln_sums : bool;  (** a gather or an [Iaff] over two lane registers *)
  ln_run : int array;
      (** per [tp_ops] position, what the dispatch loop does there: enter
          the lane loop whose [top] it is (its index), or run it across
          lanes (-1: it varies) or once (-2), or nothing (-3: a forwarded
          load, a fused store or a chain's position past its head), or
          run its progression kernel
          ([lane_prog]: -4, or -5 for an [Iaff] that also fills its lane
          array), or run chain [-6 - k] of [ln_chains] (-6 and below) *)
  ln_chains : chain array;
  ln_iprog : bool array;
      (** per varying int register, in lane order: a progression, whose
          last value the copy-out takes from its pair *)
  ln_jfill : bool;  (** the strip index's lane array is read *)
  ln_loops : lane_loop array;
  ln_views : int * int * int;  (** forwarded loads, fused stores, lane loops *)
  ln_index : int * int;
      (** progressions left unfilled, [mod] positions on a progression *)
}

(* The lane loop whose back edge sits at [q], if any: a body of one
   varying [Fmac2]/[Fmsb2] fold [d <- d op x * y], an index stepping by
   a uniform increment, and neither access gathered. *)
let lane_loop_of (tp : tape) acc vary q =
  let ops = tp.tp_ops in
  let fold r top uniform =
    match ops.(top) with
    | (Fmac2 (d, a, i1, i2) | Fmsb2 (d, a, i1, i2))
      when top = q - 1 && vary.(top) && d = a && uniform
           && acc.(i1) <> La_gather
           && acc.(i2) <> La_gather ->
        let coef id = aff_coef tp.tp_accs.(id).ac_var r in
        Some { ll_back = q; ll_cx = coef i1; ll_cy = coef i2 }
    | _ -> None
  in
  match ops.(q) with
  | Iloopc (r, _, _, top) -> fold r top true
  | Iloop (r, a, _, top) -> fold r top (aff_coef a r = 1)
  | _ -> None

(* Float lane registers a pass reads or writes through an array view in
   place of a lane array, so that the instruction whose pass moved the
   value runs no pass ([ln_run] -3). Only body temporaries qualify —
   registers at or above [scalar_reals], which no code after the fork
   reads — varying and written by one instruction:

   - a forwarded load: [r <- load X] whose every reader follows it in
     one straight run (no jump in it, no block start after the load)
     with no store to [X] before the reader; the access is not gathered
     and its offset reads no register the body writes, the strip index
     aside, so every reader's view is the load's element;
   - a fused store: [t]'s one writer is followed at once by
     [store X <- t], its only reader, and the store is no jump target,
     so the writer writes through the store's view.

   Lane rule 4 ([lane_plan]) makes both exact: every access of a stored
   array is at its iteration's own element, so a lane reads and writes
   only its own element, and a kernel reads element [l]'s operands
   before it writes element [l]. Returns (register, access id, skipped
   position) per forwarded load, then per fused store. *)
let view_regs ~jslot ~scalar_reals (lp : lane_plan) acc (tp : tape) =
  let ops = tp.tp_ops in
  let n = Array.length ops in
  let freads i =
    let _, fr, _ = reads i in
    fr
  in
  let writers = reg_counts tp (fun i -> Option.to_list (float_dst i)) in
  let readers = reg_counts tp freads in
  let starts = lp.lp_starts and written_i = lp.lp_written_i in
  let jump i = instr_targets i <> [] in
  let temp r =
    r >= scalar_reals && IntSet.mem r lp.lp_vary_f && writers r = 1
  in
  let viewed id = match acc.(id) with La_gather -> false | _ -> true in
  (* the reads of [r] in the straight run after [q], up to the first
     store to [slot] *)
  let rec run_reads r slot x k =
    if x >= n || starts.(x) then k
    else
      let i = ops.(x) in
      let k = k + List.length (List.filter (Int.equal r) (freads i)) in
      match i with
      | (Fstore (_, id) | Fldst (_, id)) when tp.tp_accs.(id).ac_slot = slot
        ->
          k
      | _ -> if jump i then k else run_reads r slot (x + 1) k
  in
  let loads =
    List.filter_map
      (fun q ->
        match ops.(q) with
        | Fload (r, id)
          when temp r && viewed id
               && Array.for_all
                    (fun r' -> r' = jslot || not (IntSet.mem r' written_i))
                    tp.tp_accs.(id).ac_var.regs
               && run_reads r tp.tp_accs.(id).ac_slot (q + 1) 0 = readers r ->
            Some (r, id, q)
        | _ -> None)
      (List.init n Fun.id)
  in
  let stores =
    List.filter_map
      (fun s ->
        match ops.(s) with
        | Fstore (t, id)
          when s > 0
               && float_dst ops.(s - 1) = Some t
               && temp t && readers t = 1 && (not starts.(s))
               && viewed id
               && not (List.exists (fun (r, _, _) -> r = t) loads) ->
            Some (t, id, s)
        | _ -> None)
      (List.init n Fun.id)
  in
  (loads, stores)

(* Int lane registers a pass keeps as progressions, a pair (first value,
   increment) per pass in place of a lane array: the strip index, and
   the register of an [Iaff] at a varying position that has one writer
   and whose terms over varying registers are all progressions. An
   [Iaff] over progressions computes its pair from theirs; [Fofi] of a
   progression converts a running int; [Imod] of a progression by a
   literal keeps a running remainder. Any other reader (a gathered
   offset, any other instruction) reads the lane array, which the
   progression's writer then fills. [lane_plan]'s rules make the pairs
   current wherever they are read: no register is carried, so a
   progression's writer runs before its readers in every pass, and the
   passes of a strip take the same path. Returns the progressions, the
   positions that run on them and the progressions whose lane array is
   read. *)
let progressions ~jslot ~lits (lp : lane_plan) acc vary (tp : tape) =
  let ops = tp.tp_ops in
  let writers = int_writers tp in
  let over prog (a : aff) =
    Array.for_all
      (fun r -> IntSet.mem r prog || not (IntSet.mem r lp.lp_vary_i))
      a.regs
  in
  let rec grow prog =
    let prog' = ref prog in
    Array.iteri
      (fun p i ->
        match i with
        | Iaff (d, a) when vary.(p) && writers d = 1 && over prog a ->
            prog' := IntSet.add d !prog'
        | _ -> ())
      ops;
    if IntSet.equal prog !prog' then prog else grow !prog'
  in
  let prog =
    grow
      (if writers jslot > 0 then IntSet.empty else IntSet.singleton jslot)
  in
  let kernel =
    Array.mapi
      (fun p i ->
        vary.(p)
        &&
        match i with
        | Iaff (d, _) -> IntSet.mem d prog
        | Fofi (_, s) -> IntSet.mem s prog
        | Imod (_, a, b) -> IntSet.mem a prog && IntMap.mem b lits
        | _ -> false)
      ops
  in
  let read = ref IntSet.empty in
  let add_all rs = read := IntSet.union !read (IntSet.of_list rs) in
  Array.iteri
    (fun p i ->
      if not kernel.(p) then begin
        let ir, _, _ = reads i in
        add_all ir
      end)
    ops;
  Array.iteri
    (fun id (ac : access) ->
      if acc.(id) = La_gather then add_all (Array.to_list ac.ac_var.regs))
    tp.tp_accs;
  (prog, kernel, IntSet.inter prog !read)

(* Lane chains: runs of consecutive positions that one kernel runs in
   one pass over the piece, in place of one pass per position ([ln_run]
   [-6 - k] at the head, -3 past it). A chain sits on the dispatch
   loop, in one straight run with no block start after its head, and
   every value one position hands the next is a body temporary with one
   writer whose only reader is that next position: a float register at
   or above [scalar_reals] that no view reads or writes, or, from a
   [mod] to its conversion, an int register at or above [scalar_ints]
   that no access offset reads. No code after the fork reads a body
   temporary, and no other position reads one, so a chain writes only
   its last register: its lane array, or its fused store's view. The
   heads:

   - a sum: [load + load], then up to three [+ load] (no gathered
     load), five loads in all;
   - [float (p mod m)], [p] a progression and [m] a literal, on the
     running remainder of [k_imod_run];
   - [float p] of a progression, which chains only with a tail;

   then at most one tail, [+ - * /] with a uniform register on either
   side. A sum alone is a chain; [float] of a [mod] or of a progression
   needs what follows it. Each element's operations
   run on the same operands in the same order as on the positions'
   own passes, so chaining is exact. Returns the chains with their
   head and last positions. *)
let chains ~scalar_reals ~scalar_ints (lp : lane_plan) acc run views
    (tp : tape) =
  let ops = tp.tp_ops in
  let n = Array.length ops in
  let fwriters = reg_counts tp (fun i -> Option.to_list (float_dst i)) in
  let iwriters = int_writers tp in
  let freaders =
    reg_counts tp (fun i ->
        let _, fr, _ = reads i in
        fr)
  in
  let ireaders =
    reg_counts tp (fun i ->
        let ir, _, _ = reads i in
        ir)
  in
  let offset_regs =
    Array.fold_left
      (fun s (ac : access) ->
        Array.fold_right IntSet.add ac.ac_inv.regs
          (Array.fold_right IntSet.add ac.ac_var.regs s))
      IntSet.empty tp.tp_accs
  in
  (* position [q] continues a chain: it runs across lanes on the
     dispatch loop and is reached only from [q - 1] *)
  let next q = q < n && run.(q) = -1 && not lp.lp_starts.(q) in
  let ftemp r =
    r >= scalar_reals && IntSet.mem r lp.lp_vary_f && fwriters r = 1
    && freaders r = 1
    && not (List.mem r views)
  in
  let itemp r =
    r >= scalar_ints && iwriters r = 1 && ireaders r = 1
    && not (IntSet.mem r offset_regs)
  in
  let load id = acc.(id) <> La_gather in
  let uniform t u =
    u <> t
    && (not (IntSet.mem u lp.lp_vary_f))
    && not (IntSet.mem u lp.lp_folds)
  in
  (* the tail at [q] over [t]: side, operation, uniform register and
     destination *)
  let tail q t =
    if not (next q && ftemp t) then None
    else
      let op, d, a, b =
        match ops.(q) with
        | Fadd (d, a, b) -> (Some Kadd, d, a, b)
        | Fsub (d, a, b) -> (Some Ksub, d, a, b)
        | Fmul (d, a, b) -> (Some Kmul, d, a, b)
        | Fdiv (d, a, b) -> (Some Kdiv, d, a, b)
        | _ -> (None, 0, 0, 0)
      in
      match op with
      | Some op when a = t && uniform t b -> Some (Sright, op, b, d)
      | Some op when b = t && uniform t a -> Some (Sleft, op, a, d)
      | _ -> None
  in
  (* the chain from head [p], whose value so far is [t] at [q - 1]; it
     may end there when [bare] *)
  let finish p q t head ~bare =
    let chain side op u d =
      { ch_head = head; ch_side = side; ch_op = op; ch_u = u; ch_dst = d }
    in
    match tail q t with
    | Some (side, op, u, d) -> Some (p, q, chain side op u d)
    | None when bare -> Some (p, q - 1, chain Snone Kadd (-1) t)
    | None -> None
  in
  let rec sum p q t ids =
    let more =
      if List.length ids < 5 && next q && ftemp t then
        match ops.(q) with
        | Fldadd (d, x, id) when x = t && load id -> Some (d, id)
        | _ -> None
      else None
    in
    match more with
    | Some (d, id) -> sum p (q + 1) d (ids @ [ id ])
    | None -> finish p q t (Ch_sum (Array.of_list ids)) ~bare:true
  in
  let at p =
    if run.(p) <> -1 && run.(p) <> -4 then None
    else
      match ops.(p) with
      | Fld2add (d, i1, i2) when load i1 && load i2 ->
          sum p (p + 1) d [ i1; i2 ]
      | Imod (m, a, b) when run.(p) = -4 && itemp m && next (p + 1) -> (
          match ops.(p + 1) with
          | Fofi (d, m') when m' = m ->
              finish p (p + 2) d (Ch_ofi (a, b)) ~bare:true
          | _ -> None)
      | Fofi (d, a) when run.(p) = -4 ->
          finish p (p + 1) d (Ch_ofi (a, -1)) ~bare:false
      | _ -> None
  in
  let rec scan p acc =
    if p >= n then List.rev acc
    else
      match at p with
      | Some ((_, last, _) as c) -> scan (last + 1) (c :: acc)
      | None -> scan (p + 1) acc
  in
  scan 0 []

let lanes ~jslot ~scalar_reals ~scalar_ints (tp : tape) =
  let lits = const_regs ~jslot tp in
  match lane_plan ~jslot ~lits tp with
  | Result.Error why -> Result.Error why
  | Result.Ok lp ->
      let varies i =
        match i with
        | Fstore _ | Fldst _ -> true
        | _ ->
            Option.fold ~none:false
              ~some:(fun d -> IntSet.mem d lp.lp_vary_i)
              (int_dst i)
            || Option.fold ~none:false
                 ~some:(fun d ->
                   IntSet.mem d lp.lp_vary_f || IntSet.mem d lp.lp_folds)
                 (float_dst i)
      in
      let lacc (ac : access) =
        match ac.ac_vk with
        | V0 -> La_fix
        | V1 _ | V2 _ | Vn ->
            if
              Array.for_all
                (fun r -> r = jslot || not (IntSet.mem r lp.lp_vary_i))
                ac.ac_var.regs
            then La_aff (aff_coef ac.ac_var jslot)
            else La_gather
      in
      let acc = Array.map lacc tp.tp_accs in
      let multi = function
        | Iaff (_, a) ->
            Array.fold_left
              (fun k r -> if IntSet.mem r lp.lp_vary_i then k + 1 else k)
              0 a.regs
            > 1
        | _ -> false
      in
      let vary = Array.map varies tp.tp_ops in
      let run = Array.map (fun v -> if v then -1 else -2) vary in
      let loops =
        List.filter_map (lane_loop_of tp acc vary)
          (List.init (Array.length tp.tp_ops) Fun.id)
      in
      List.iteri (fun k ll -> run.(ll.ll_back - 1) <- k) loops;
      let loads, stores = view_regs ~jslot ~scalar_reals lp acc tp in
      let views = loads @ stores in
      List.iter (fun (_, _, p) -> run.(p) <- -3) views;
      let prog, kernel, filled = progressions ~jslot ~lits lp acc vary tp in
      Array.iteri
        (fun p k ->
          if k then
            run.(p) <-
              (match tp.tp_ops.(p) with
              | Iaff (d, _) when IntSet.mem d filled -> -5
              | _ -> -4))
        kernel;
      let chained =
        chains ~scalar_reals ~scalar_ints lp acc run
          (List.map (fun (r, _, _) -> r) views)
          tp
      in
      List.iteri
        (fun k (head, last, _) ->
          run.(head) <- -6 - k;
          for p = head + 1 to last do
            run.(p) <- -3
          done)
        chained;
      let iregs = Array.of_list (IntSet.elements lp.lp_vary_i) in
      let fregs =
        Array.of_list
          (List.filter
             (fun r -> not (List.exists (fun (r', _, _) -> r = r') views))
             (IntSet.elements lp.lp_vary_f))
      in
      let map regs size =
        let m = Array.make (Array.fold_left max (size - 1) regs + 1) (-1) in
        Array.iteri (fun k r -> m.(r) <- k * lane_width) regs;
        m
      in
      let flane =
        map fregs (1 + List.fold_left (fun m (r, _, _) -> max m r) (-1) views)
      in
      List.iter (fun (r, id, _) -> flane.(r) <- -2 - id) views;
      Result.Ok
        {
          ln_ilane = map iregs 0;
          ln_flane = flane;
          ln_iregs = iregs;
          ln_fregs = fregs;
          ln_acc = acc;
          ln_sums = Array.mem La_gather acc || Array.exists multi tp.tp_ops;
          ln_run = run;
          ln_chains = Array.of_list (List.map (fun (_, _, c) -> c) chained);
          ln_iprog = Array.map (fun r -> IntSet.mem r prog) iregs;
          ln_jfill = IntSet.mem jslot filled || not (IntSet.mem jslot prog);
          ln_loops = Array.of_list loops;
          ln_views = (List.length loads, List.length stores, List.length loops);
          ln_index =
            ( IntSet.cardinal (IntSet.diff prog filled),
              Array.fold_left ( + ) 0
                (Array.mapi
                   (fun p k ->
                     match tp.tp_ops.(p) with Imod _ when k -> 1 | _ -> 0)
                   kernel) );
        }

let lane_views ln = ln.ln_views
let lane_index ln = ln.ln_index
let lane_chains ln = Array.length ln.ln_chains

(* A strided view: element [l] sits [l] steps past [base]. *)
type 'a view = {
  mutable arr : 'a array;
  mutable base : int;
  mutable step : int;
}

(* Lane kernels: [n] iterations over views; element [l] of every
   operand is read before element [l] of the destination is written, so
   a destination may alias an operand. None allocates. Each call picks
   one of three loop shapes from its views' steps:

   - unit: the destination has step 1 and every operand step 1 or 0.
     Step-1 operands are indexed from one offset shared by all, and the
     loop runs four elements per trip, then at most three. A step-0
     (broadcast) operand is read once, before the loop. That is sound
     under [lane_plan]'s rules: every access of a stored array is at
     one offset per iteration with strip coefficient [c <> 0] (or is
     pinned to its iteration), so no step-0 operand reads an element a
     step-1 destination writes; and a fold register is read only by its
     writer, whose destination has step 0.
   - fold: the destination has step 0 and is the accumulator operand (a
     fold register's writer, or a uniform instruction run once): the
     accumulator stays in a local for the piece and is stored once.
   - otherwise every operand walks a running offset, advanced by its
     step per element: strided, negative and [c * jstep] accesses.

   Every shape performs each element's operation on the same operands in
   the same order, so results and NaN payloads are bit-identical across
   shapes. Each shape is written once, [@inline], and every call passes
   the operation and broadcast flags as constants, so ocamlopt resolves
   the matches on them where it inlines the shape; a shape called with a
   variable operation would box every element (test_bytecode.ml's
   allocation test runs every kernel form). The operations take their
   operands as arguments of inlined functions, which binds them, so
   instruction selection keeps their order (see [exec_strip]). *)

(* step 0 or 1 *)
let unit_step (v : _ view) = v.step land lnot 1 = 0

(* [v] is the step-0 element [d] writes: the accumulator of a fold *)
let accumulates (d : _ view) (v : _ view) =
  d.step = 0 && v.step = 0 && v.arr == d.arr && v.base = d.base

(* A unit-shape operand at [i]: [x0], read before the loop, if it is a
   broadcast. *)
let[@inline] fget bc (x0 : float) (a : float array) i =
  if bc then x0 else Array.unsafe_get a i

let[@inline] iget bc (x0 : int) (a : int array) i =
  if bc then x0 else Array.unsafe_get a i

let[@inline] u_ffill n (da : float array) od x =
  for q = 0 to (n lsr 2) - 1 do
    let o = od + (q lsl 2) in
    Array.unsafe_set da o x;
    Array.unsafe_set da (o + 1) x;
    Array.unsafe_set da (o + 2) x;
    Array.unsafe_set da (o + 3) x
  done;
  for o = od + (n land lnot 3) to od + n - 1 do
    Array.unsafe_set da o x
  done

let k_ffill n (d : float view) x =
  let da = d.arr and ds = d.step in
  if ds = 1 then u_ffill n da d.base x
  else begin
    let od = ref d.base in
    for _ = 1 to n do
      Array.unsafe_set da !od x;
      od := !od + ds
    done
  end

let[@inline] fsign neg (x : float) = if neg then -.x else x

(* d <- a, or -a *)
let[@inline] k_fmove ~neg n (d : float view) (a : float view) =
  let da = d.arr and ds = d.step and aa = a.arr and as_ = a.step in
  let od = d.base and oa = a.base in
  if ds = 1 && as_ = 0 then u_ffill n da od (fsign neg (Array.unsafe_get aa oa))
  else if ds = 1 && as_ = 1 then begin
    for q = 0 to (n lsr 2) - 1 do
      let o = q lsl 2 in
      Array.unsafe_set da (od + o) (fsign neg (Array.unsafe_get aa (oa + o)));
      Array.unsafe_set da (od + o + 1)
        (fsign neg (Array.unsafe_get aa (oa + o + 1)));
      Array.unsafe_set da (od + o + 2)
        (fsign neg (Array.unsafe_get aa (oa + o + 2)));
      Array.unsafe_set da (od + o + 3)
        (fsign neg (Array.unsafe_get aa (oa + o + 3)))
    done;
    for o = n land lnot 3 to n - 1 do
      Array.unsafe_set da (od + o) (fsign neg (Array.unsafe_get aa (oa + o)))
    done
  end
  else begin
    let od = ref od and oa = ref oa in
    for _ = 1 to n do
      Array.unsafe_set da !od (fsign neg (Array.unsafe_get aa !oa));
      od := !od + ds;
      oa := !oa + as_
    done
  end

let k_fcopy n d a = k_fmove ~neg:false n d a
let k_fneg n d a = k_fmove ~neg:true n d a

let k_fofi n (d : float view) (a : int view) =
  let da = d.arr and ds = d.step and aa = a.arr and as_ = a.step in
  let od = d.base and oa = a.base in
  if ds = 1 && as_ = 0 then
    u_ffill n da od (float_of_int (Array.unsafe_get aa oa))
  else if ds = 1 && as_ = 1 then begin
    for q = 0 to (n lsr 2) - 1 do
      let o = q lsl 2 in
      Array.unsafe_set da (od + o)
        (float_of_int (Array.unsafe_get aa (oa + o)));
      Array.unsafe_set da (od + o + 1)
        (float_of_int (Array.unsafe_get aa (oa + o + 1)));
      Array.unsafe_set da (od + o + 2)
        (float_of_int (Array.unsafe_get aa (oa + o + 2)));
      Array.unsafe_set da (od + o + 3)
        (float_of_int (Array.unsafe_get aa (oa + o + 3)))
    done;
    for o = n land lnot 3 to n - 1 do
      Array.unsafe_set da (od + o) (float_of_int (Array.unsafe_get aa (oa + o)))
    done
  end
  else begin
    let od = ref od and oa = ref oa in
    for _ = 1 to n do
      Array.unsafe_set da !od (float_of_int (Array.unsafe_get aa !oa));
      od := !od + ds;
      oa := !oa + as_
    done
  end

let[@inline] fbin_op op (x : float) y =
  match op with
  | Kadd -> x +. y
  | Ksub -> x -. y
  | Kmul -> x *. y
  | Kdiv -> x /. y
  | Kmin -> if x <= y then x else y
  | Kmax -> if x >= y then x else y

let[@inline] u_fbin op ~ab ~bb n da od aa oa ba ob =
  let a0 = if ab then Array.unsafe_get aa oa else 0.0 in
  let b0 = if bb then Array.unsafe_get ba ob else 0.0 in
  for q = 0 to (n lsr 2) - 1 do
    let o = q lsl 2 in
    Array.unsafe_set da (od + o)
      (fbin_op op (fget ab a0 aa (oa + o)) (fget bb b0 ba (ob + o)));
    Array.unsafe_set da (od + o + 1)
      (fbin_op op (fget ab a0 aa (oa + o + 1)) (fget bb b0 ba (ob + o + 1)));
    Array.unsafe_set da (od + o + 2)
      (fbin_op op (fget ab a0 aa (oa + o + 2)) (fget bb b0 ba (ob + o + 2)));
    Array.unsafe_set da (od + o + 3)
      (fbin_op op (fget ab a0 aa (oa + o + 3)) (fget bb b0 ba (ob + o + 3)))
  done;
  for o = n land lnot 3 to n - 1 do
    Array.unsafe_set da (od + o)
      (fbin_op op (fget ab a0 aa (oa + o)) (fget bb b0 ba (ob + o)))
  done

(* acc <- acc op x, or x op acc when not [left] *)
let[@inline] f_fbin op ~left n da od (xa : float array) ox xs =
  let acc = ref (Array.unsafe_get da od) and ox = ref ox in
  for _ = 1 to n do
    let x = Array.unsafe_get xa !ox in
    acc := if left then fbin_op op !acc x else fbin_op op x !acc;
    ox := !ox + xs
  done;
  Array.unsafe_set da od !acc

let[@inline] fbin op n (d : float view) (a : float view) (b : float view) =
  let da = d.arr and ds = d.step and aa = a.arr and as_ = a.step in
  let ba = b.arr and bs = b.step in
  let od = d.base and oa = a.base and ob = b.base in
  if ds = 1 && unit_step a && unit_step b then
    match (as_, bs) with
    | 1, 1 -> u_fbin op ~ab:false ~bb:false n da od aa oa ba ob
    | 1, _ -> u_fbin op ~ab:false ~bb:true n da od aa oa ba ob
    | _, 1 -> u_fbin op ~ab:true ~bb:false n da od aa oa ba ob
    | _ -> u_fbin op ~ab:true ~bb:true n da od aa oa ba ob
  else if accumulates d a && not (accumulates d b) then
    f_fbin op ~left:true n da od ba ob bs
  else if accumulates d b && not (accumulates d a) then
    f_fbin op ~left:false n da od aa oa as_
  else begin
    let od = ref od and oa = ref oa and ob = ref ob in
    for _ = 1 to n do
      Array.unsafe_set da !od
        (fbin_op op (Array.unsafe_get aa !oa) (Array.unsafe_get ba !ob));
      od := !od + ds;
      oa := !oa + as_;
      ob := !ob + bs
    done
  end

let k_fbin op n d a b =
  match op with
  | Kadd -> fbin Kadd n d a b
  | Ksub -> fbin Ksub n d a b
  | Kmul -> fbin Kmul n d a b
  | Kdiv -> fbin Kdiv n d a b
  | Kmin -> fbin Kmin n d a b
  | Kmax -> fbin Kmax n d a b

(* a +. x *. y, or a -. x *. y *)
let[@inline] mac add (a : float) x y =
  if add then a +. (x *. y) else a -. (x *. y)

let[@inline] u_fmac add ~ab ~xb ~yb n da od aa oa xa ox ya oy =
  let a0 = if ab then Array.unsafe_get aa oa else 0.0 in
  let x0 = if xb then Array.unsafe_get xa ox else 0.0 in
  let y0 = if yb then Array.unsafe_get ya oy else 0.0 in
  for q = 0 to (n lsr 2) - 1 do
    let o = q lsl 2 in
    Array.unsafe_set da (od + o)
      (mac add (fget ab a0 aa (oa + o)) (fget xb x0 xa (ox + o))
         (fget yb y0 ya (oy + o)));
    Array.unsafe_set da (od + o + 1)
      (mac add
         (fget ab a0 aa (oa + o + 1))
         (fget xb x0 xa (ox + o + 1))
         (fget yb y0 ya (oy + o + 1)));
    Array.unsafe_set da (od + o + 2)
      (mac add
         (fget ab a0 aa (oa + o + 2))
         (fget xb x0 xa (ox + o + 2))
         (fget yb y0 ya (oy + o + 2)));
    Array.unsafe_set da (od + o + 3)
      (mac add
         (fget ab a0 aa (oa + o + 3))
         (fget xb x0 xa (ox + o + 3))
         (fget yb y0 ya (oy + o + 3)))
  done;
  for o = n land lnot 3 to n - 1 do
    Array.unsafe_set da (od + o)
      (mac add (fget ab a0 aa (oa + o)) (fget xb x0 xa (ox + o))
         (fget yb y0 ya (oy + o)))
  done

let[@inline] fmac add n (d : float view) (a : float view) (x : float view)
    (y : float view) =
  let da = d.arr and ds = d.step and aa = a.arr and as_ = a.step in
  let xa = x.arr and xs = x.step and ya = y.arr and ys = y.step in
  let od = d.base and oa = a.base and ox = x.base and oy = y.base in
  if ds = 1 && unit_step a && unit_step x && unit_step y then
    match (as_, xs, ys) with
    | 1, 1, 1 ->
        u_fmac add ~ab:false ~xb:false ~yb:false n da od aa oa xa ox ya oy
    | 1, 1, _ ->
        u_fmac add ~ab:false ~xb:false ~yb:true n da od aa oa xa ox ya oy
    | 1, _, 1 ->
        u_fmac add ~ab:false ~xb:true ~yb:false n da od aa oa xa ox ya oy
    | 1, _, _ ->
        u_fmac add ~ab:false ~xb:true ~yb:true n da od aa oa xa ox ya oy
    | _, 1, 1 ->
        u_fmac add ~ab:true ~xb:false ~yb:false n da od aa oa xa ox ya oy
    | _, 1, _ ->
        u_fmac add ~ab:true ~xb:false ~yb:true n da od aa oa xa ox ya oy
    | _, _, 1 ->
        u_fmac add ~ab:true ~xb:true ~yb:false n da od aa oa xa ox ya oy
    | _ ->
        u_fmac add ~ab:true ~xb:true ~yb:true n da od aa oa xa ox ya oy
  else if accumulates d a && not (accumulates d x || accumulates d y) then begin
    let acc = ref (Array.unsafe_get da od) and ox = ref ox and oy = ref oy in
    for _ = 1 to n do
      acc := mac add !acc (Array.unsafe_get xa !ox) (Array.unsafe_get ya !oy);
      ox := !ox + xs;
      oy := !oy + ys
    done;
    Array.unsafe_set da od !acc
  end
  else begin
    let od = ref od and oa = ref oa and ox = ref ox and oy = ref oy in
    for _ = 1 to n do
      Array.unsafe_set da !od
        (mac add (Array.unsafe_get aa !oa) (Array.unsafe_get xa !ox)
           (Array.unsafe_get ya !oy));
      od := !od + ds;
      oa := !oa + as_;
      ox := !ox + xs;
      oy := !oy + ys
    done
  end

(* d <- a +. x *. y, or a -. x *. y *)
let k_fmac ~add n d a x y =
  if add then fmac true n d a x y else fmac false n d a x y

(* One lane's eight trips of a blocked fold: the accumulator at [i]
   read once, the terms at [ix], [ix + tx], ... and [iy], [iy + ty], ...
   (or the trips' broadcasts [x0 .. x7], [y0 .. y7]) added in trip
   order, stored once. *)
let[@inline] fmac_lane add ~xb ~yb da i xa ix tx ya iy ty x0 x1 x2 x3 x4 x5
    x6 x7 y0 y1 y2 y3 y4 y5 y6 y7 =
  let c = Array.unsafe_get da i in
  let c = mac add c (fget xb x0 xa ix) (fget yb y0 ya iy) in
  let ix = ix + tx and iy = iy + ty in
  let c = mac add c (fget xb x1 xa ix) (fget yb y1 ya iy) in
  let ix = ix + tx and iy = iy + ty in
  let c = mac add c (fget xb x2 xa ix) (fget yb y2 ya iy) in
  let ix = ix + tx and iy = iy + ty in
  let c = mac add c (fget xb x3 xa ix) (fget yb y3 ya iy) in
  let ix = ix + tx and iy = iy + ty in
  let c = mac add c (fget xb x4 xa ix) (fget yb y4 ya iy) in
  let ix = ix + tx and iy = iy + ty in
  let c = mac add c (fget xb x5 xa ix) (fget yb y5 ya iy) in
  let ix = ix + tx and iy = iy + ty in
  let c = mac add c (fget xb x6 xa ix) (fget yb y6 ya iy) in
  let ix = ix + tx and iy = iy + ty in
  let c = mac add c (fget xb x7 xa ix) (fget yb y7 ya iy) in
  Array.unsafe_set da i c

(* Four lanes' eight trips: four independent chains, interleaved trip
   by trip so that each add overlaps the other lanes', each lane's
   terms still added in trip order. *)
let[@inline] fmac_lanes4 add ~xb ~yb da i xa ix tx ya iy ty x0 x1 x2 x3 x4 x5
    x6 x7 y0 y1 y2 y3 y4 y5 y6 y7 =
  let c0 = Array.unsafe_get da i and c1 = Array.unsafe_get da (i + 1) in
  let c2 = Array.unsafe_get da (i + 2) and c3 = Array.unsafe_get da (i + 3) in
  let c0 = mac add c0 (fget xb x0 xa ix) (fget yb y0 ya iy) in
  let c1 = mac add c1 (fget xb x0 xa (ix + 1)) (fget yb y0 ya (iy + 1)) in
  let c2 = mac add c2 (fget xb x0 xa (ix + 2)) (fget yb y0 ya (iy + 2)) in
  let c3 = mac add c3 (fget xb x0 xa (ix + 3)) (fget yb y0 ya (iy + 3)) in
  let ix = ix + tx and iy = iy + ty in
  let c0 = mac add c0 (fget xb x1 xa ix) (fget yb y1 ya iy) in
  let c1 = mac add c1 (fget xb x1 xa (ix + 1)) (fget yb y1 ya (iy + 1)) in
  let c2 = mac add c2 (fget xb x1 xa (ix + 2)) (fget yb y1 ya (iy + 2)) in
  let c3 = mac add c3 (fget xb x1 xa (ix + 3)) (fget yb y1 ya (iy + 3)) in
  let ix = ix + tx and iy = iy + ty in
  let c0 = mac add c0 (fget xb x2 xa ix) (fget yb y2 ya iy) in
  let c1 = mac add c1 (fget xb x2 xa (ix + 1)) (fget yb y2 ya (iy + 1)) in
  let c2 = mac add c2 (fget xb x2 xa (ix + 2)) (fget yb y2 ya (iy + 2)) in
  let c3 = mac add c3 (fget xb x2 xa (ix + 3)) (fget yb y2 ya (iy + 3)) in
  let ix = ix + tx and iy = iy + ty in
  let c0 = mac add c0 (fget xb x3 xa ix) (fget yb y3 ya iy) in
  let c1 = mac add c1 (fget xb x3 xa (ix + 1)) (fget yb y3 ya (iy + 1)) in
  let c2 = mac add c2 (fget xb x3 xa (ix + 2)) (fget yb y3 ya (iy + 2)) in
  let c3 = mac add c3 (fget xb x3 xa (ix + 3)) (fget yb y3 ya (iy + 3)) in
  let ix = ix + tx and iy = iy + ty in
  let c0 = mac add c0 (fget xb x4 xa ix) (fget yb y4 ya iy) in
  let c1 = mac add c1 (fget xb x4 xa (ix + 1)) (fget yb y4 ya (iy + 1)) in
  let c2 = mac add c2 (fget xb x4 xa (ix + 2)) (fget yb y4 ya (iy + 2)) in
  let c3 = mac add c3 (fget xb x4 xa (ix + 3)) (fget yb y4 ya (iy + 3)) in
  let ix = ix + tx and iy = iy + ty in
  let c0 = mac add c0 (fget xb x5 xa ix) (fget yb y5 ya iy) in
  let c1 = mac add c1 (fget xb x5 xa (ix + 1)) (fget yb y5 ya (iy + 1)) in
  let c2 = mac add c2 (fget xb x5 xa (ix + 2)) (fget yb y5 ya (iy + 2)) in
  let c3 = mac add c3 (fget xb x5 xa (ix + 3)) (fget yb y5 ya (iy + 3)) in
  let ix = ix + tx and iy = iy + ty in
  let c0 = mac add c0 (fget xb x6 xa ix) (fget yb y6 ya iy) in
  let c1 = mac add c1 (fget xb x6 xa (ix + 1)) (fget yb y6 ya (iy + 1)) in
  let c2 = mac add c2 (fget xb x6 xa (ix + 2)) (fget yb y6 ya (iy + 2)) in
  let c3 = mac add c3 (fget xb x6 xa (ix + 3)) (fget yb y6 ya (iy + 3)) in
  let ix = ix + tx and iy = iy + ty in
  let c0 = mac add c0 (fget xb x7 xa ix) (fget yb y7 ya iy) in
  let c1 = mac add c1 (fget xb x7 xa (ix + 1)) (fget yb y7 ya (iy + 1)) in
  let c2 = mac add c2 (fget xb x7 xa (ix + 2)) (fget yb y7 ya (iy + 2)) in
  let c3 = mac add c3 (fget xb x7 xa (ix + 3)) (fget yb y7 ya (iy + 3)) in
  Array.unsafe_set da i c0;
  Array.unsafe_set da (i + 1) c1;
  Array.unsafe_set da (i + 2) c2;
  Array.unsafe_set da (i + 3) c3

(* [trips] passes of [fmac] whose operands [x] and [y] move by [tx] and
   [ty] per trip, the destination and [a] fixed: a lane loop whose body
   is one fold, in the unit shape. The shape is picked once, then trips
   run outside and lanes inside, the walk of [trips] separate passes.
   When [blocked] (the destination is the accumulator and neither [x]
   nor [y] reads its array), the trips run in blocks of eight, each a
   walk of the lanes in steps of four with every lane's accumulator in
   a register for the block; the trips left over run as separate
   passes. No lane reads another's element, and no term reads an
   element the walk writes, so every lane sees the same operations in
   trip order. *)
let[@inline] t_fmac add ~xb ~yb ~blocked trips tx ty n da od aa oa xa ox ya oy
    =
  let tb = if blocked then trips land lnot 7 else 0 in
  for b = 0 to (tb lsr 3) - 1 do
    let ox = ox + (8 * b * tx) and oy = oy + (8 * b * ty) in
    let x0 = if xb then Array.unsafe_get xa ox else 0.0 in
    let x1 = if xb then Array.unsafe_get xa (ox + tx) else 0.0 in
    let x2 = if xb then Array.unsafe_get xa (ox + (2 * tx)) else 0.0 in
    let x3 = if xb then Array.unsafe_get xa (ox + (3 * tx)) else 0.0 in
    let x4 = if xb then Array.unsafe_get xa (ox + (4 * tx)) else 0.0 in
    let x5 = if xb then Array.unsafe_get xa (ox + (5 * tx)) else 0.0 in
    let x6 = if xb then Array.unsafe_get xa (ox + (6 * tx)) else 0.0 in
    let x7 = if xb then Array.unsafe_get xa (ox + (7 * tx)) else 0.0 in
    let y0 = if yb then Array.unsafe_get ya oy else 0.0 in
    let y1 = if yb then Array.unsafe_get ya (oy + ty) else 0.0 in
    let y2 = if yb then Array.unsafe_get ya (oy + (2 * ty)) else 0.0 in
    let y3 = if yb then Array.unsafe_get ya (oy + (3 * ty)) else 0.0 in
    let y4 = if yb then Array.unsafe_get ya (oy + (4 * ty)) else 0.0 in
    let y5 = if yb then Array.unsafe_get ya (oy + (5 * ty)) else 0.0 in
    let y6 = if yb then Array.unsafe_get ya (oy + (6 * ty)) else 0.0 in
    let y7 = if yb then Array.unsafe_get ya (oy + (7 * ty)) else 0.0 in
    for q = 0 to (n lsr 2) - 1 do
      let o = q lsl 2 in
      fmac_lanes4 add ~xb ~yb da (od + o) xa (ox + o) tx ya (oy + o) ty x0 x1
        x2 x3 x4 x5 x6 x7 y0 y1 y2 y3 y4 y5 y6 y7
    done;
    for o = n land lnot 3 to n - 1 do
      fmac_lane add ~xb ~yb da (od + o) xa (ox + o) tx ya (oy + o) ty x0 x1 x2
        x3 x4 x5 x6 x7 y0 y1 y2 y3 y4 y5 y6 y7
    done
  done;
  for t = tb to trips - 1 do
    u_fmac add ~ab:false ~xb ~yb n da od aa oa xa (ox + (t * tx)) ya
      (oy + (t * ty))
  done

let[@inline] fmac_trips add trips tx ty n (d : float view) (a : float view)
    (x : float view) (y : float view) =
  let da = d.arr and od = d.base and aa = a.arr and oa = a.base in
  let xa = x.arr and xs = x.step and ya = y.arr and ys = y.step in
  let ox = x.base and oy = y.base in
  if d.step = 1 && a.step = 1 && unit_step x && unit_step y then begin
    let blocked = aa == da && oa = od && xa != da && ya != da in
    (match (xs, ys) with
    | 1, 1 ->
        t_fmac add ~xb:false ~yb:false ~blocked trips tx ty n da od aa oa xa ox
          ya oy
    | 1, _ ->
        t_fmac add ~xb:false ~yb:true ~blocked trips tx ty n da od aa oa xa ox
          ya oy
    | _, 1 ->
        t_fmac add ~xb:true ~yb:false ~blocked trips tx ty n da od aa oa xa ox
          ya oy
    | _ ->
        t_fmac add ~xb:true ~yb:true ~blocked trips tx ty n da od aa oa xa ox
          ya oy)
  end
  else begin
    (* any other shape: [k_fmac] per trip over [x] and [y] moved *)
    for t = 0 to trips - 1 do
      x.base <- ox + (t * tx);
      y.base <- oy + (t * ty);
      k_fmac ~add n d a x y
    done;
    x.base <- ox;
    y.base <- oy
  end

let k_fmac_trips ~add trips tx ty n d a x y =
  if add then fmac_trips true trips tx ty n d a x y
  else fmac_trips false trips tx ty n d a x y

type iop = Kimul | Kidiv | Kimod | Kicdiv | Kimin | Kimax

let[@inline] ibin_op op (x : int) y =
  match op with
  | Kimul -> x * y
  | Kidiv -> x / y
  | Kimod -> x mod y
  | Kicdiv -> Loopcoal_util.Intmath.cdiv x y
  | Kimin -> if x <= y then x else y
  | Kimax -> if x >= y then x else y

let[@inline] u_ibin op ~ab ~bb n da od aa oa ba ob =
  let a0 = if ab then Array.unsafe_get aa oa else 0 in
  let b0 = if bb then Array.unsafe_get ba ob else 0 in
  for q = 0 to (n lsr 2) - 1 do
    let o = q lsl 2 in
    Array.unsafe_set da (od + o)
      (ibin_op op (iget ab a0 aa (oa + o)) (iget bb b0 ba (ob + o)));
    Array.unsafe_set da (od + o + 1)
      (ibin_op op (iget ab a0 aa (oa + o + 1)) (iget bb b0 ba (ob + o + 1)));
    Array.unsafe_set da (od + o + 2)
      (ibin_op op (iget ab a0 aa (oa + o + 2)) (iget bb b0 ba (ob + o + 2)));
    Array.unsafe_set da (od + o + 3)
      (ibin_op op (iget ab a0 aa (oa + o + 3)) (iget bb b0 ba (ob + o + 3)))
  done;
  for o = n land lnot 3 to n - 1 do
    Array.unsafe_set da (od + o)
      (ibin_op op (iget ab a0 aa (oa + o)) (iget bb b0 ba (ob + o)))
  done

let[@inline] ibin op n (d : int view) (a : int view) (b : int view) =
  let da = d.arr and ds = d.step and aa = a.arr and as_ = a.step in
  let ba = b.arr and bs = b.step in
  let od = d.base and oa = a.base and ob = b.base in
  if ds = 1 && unit_step a && unit_step b then
    match (as_, bs) with
    | 1, 1 -> u_ibin op ~ab:false ~bb:false n da od aa oa ba ob
    | 1, _ -> u_ibin op ~ab:false ~bb:true n da od aa oa ba ob
    | _, 1 -> u_ibin op ~ab:true ~bb:false n da od aa oa ba ob
    | _ -> u_ibin op ~ab:true ~bb:true n da od aa oa ba ob
  else begin
    let od = ref od and oa = ref oa and ob = ref ob in
    for _ = 1 to n do
      Array.unsafe_set da !od
        (ibin_op op (Array.unsafe_get aa !oa) (Array.unsafe_get ba !ob));
      od := !od + ds;
      oa := !oa + as_;
      ob := !ob + bs
    done
  end

(* Divisors are valid literals ([lane_plan]). *)
let k_ibin (i : instr) n d a b =
  match i with
  | Imul _ -> ibin Kimul n d a b
  | Idiv _ -> ibin Kidiv n d a b
  | Imod _ -> ibin Kimod n d a b
  | Icdiv _ -> ibin Kicdiv n d a b
  | Imin _ -> ibin Kimin n d a b
  | _ -> ibin Kimax n d a b

(* Progression kernels: the operand is [n] ints [v0], [v0 + dv], ...,
   in wrapping int arithmetic, as the lane array would hold them. *)

(* d <- the progression itself *)
let k_ifill n (d : int array) od v0 dv =
  let v = ref v0 in
  for o = od to od + n - 1 do
    Array.unsafe_set d o !v;
    v := !v + dv
  done

(* d <- float v *)
let k_fofi_run n (d : float view) v0 dv =
  let da = d.arr and ds = d.step in
  let od = ref d.base and v = ref v0 in
  for _ = 1 to n do
    Array.unsafe_set da !od (float_of_int !v);
    od := !od + ds;
    v := !v + dv
  done

(* How [n] values [v0 + l * dv] take [mod m], [m] a nonzero literal:
   with one division and a running remainder when the values neither
   overflow nor change sign over the pass, else by [mod] per value (0).
   With every value >= 0 the remainders lie in [0, |m|), with every
   value <= 0 in (-|m|, 0]; stepping by [dv mod |m|] and wrapping once
   into that range gives the one remainder of each value there. The
   result is the bound past which a remainder wraps: [|m|] for values
   >= 0, 1 for values <= 0. *)
let rem_hi n v0 dv m =
  let lim = max_int / lane_width and a = abs m in
  let s = (n - 1) * dv in
  let last = v0 + s in
  let exact =
    dv >= -lim && dv <= lim
    && ((v0 >= 0) <> (s >= 0) || (last >= 0) = (v0 >= 0))
    && a > 0
    && a <= max_int / 4
  in
  if exact && v0 >= 0 && last >= 0 then a
  else if exact && v0 <= 0 && last <= 0 then 1
  else 0

(* [dv mod |m|], in [0, |m|) *)
let rem_step dv m =
  let a = abs m in
  let dr = dv mod a in
  if dr < 0 then dr + a else dr

(* d <- v mod m *)
let k_imod_run n (d : int view) v0 dv m =
  let da = d.arr and ds = d.step in
  let od = ref d.base in
  let hi = rem_hi n v0 dv m in
  if hi > 0 then begin
    let a = abs m and dr = rem_step dv m in
    let r = ref (v0 mod m) in
    for _ = 1 to n do
      Array.unsafe_set da !od !r;
      od := !od + ds;
      let x = !r + dr in
      r := if x >= hi then x - a else x
    done
  end
  else begin
    let v = ref v0 in
    for _ = 1 to n do
      Array.unsafe_set da !od (!v mod m);
      od := !od + ds;
      v := !v + dv
    done
  end

(* Chain kernels ([chains]): a whole chain per element, in one pass, in
   the unit shape (the destination and every load step 1, one offset
   shared by all) or the running-offset shape. Every call passes the
   load count, [mod] flag, side and operation as constants, so each
   specialization is its own loop (see the lane kernels above). The
   tail's uniform operand is read once, from [reals], before the
   loop. *)

let[@inline] tail side op (u : float) (x : float) =
  match side with
  | Snone -> x
  | Sleft -> fbin_op op u x
  | Sright -> fbin_op op x u

(* The sum of [nl] loads, left to right, as [Fld2add] then [Fldadd]s
   take it. *)
let[@inline] sum_at nl (a1 : float array) o1 (a2 : float array) o2
    (a3 : float array) o3 (a4 : float array) o4 (a5 : float array) o5 =
  let x = Array.unsafe_get a1 o1 in
  let y = Array.unsafe_get a2 o2 in
  let s = x +. y in
  let s =
    if nl >= 3 then
      let z = Array.unsafe_get a3 o3 in
      s +. z
    else s
  in
  let s =
    if nl >= 4 then
      let z = Array.unsafe_get a4 o4 in
      s +. z
    else s
  in
  if nl >= 5 then
    let z = Array.unsafe_get a5 o5 in
    s +. z
  else s

let[@inline] sum_chain nl side op n (d : float view) (v1 : float view)
    (v2 : float view) (v3 : float view) (v4 : float view) (v5 : float view)
    (reals : float array) ur =
  let u = match side with Snone -> 0.0 | _ -> Array.unsafe_get reals ur in
  let da = d.arr and a1 = v1.arr and a2 = v2.arr and a3 = v3.arr in
  let a4 = v4.arr and a5 = v5.arr in
  if
    d.step = 1 && v1.step = 1 && v2.step = 1
    && (nl < 3 || v3.step = 1)
    && (nl < 4 || v4.step = 1)
    && (nl < 5 || v5.step = 1)
  then begin
    let od = d.base and o1 = v1.base and o2 = v2.base and o3 = v3.base in
    let o4 = v4.base and o5 = v5.base in
    for l = 0 to n - 1 do
      Array.unsafe_set da (od + l)
        (tail side op u
           (sum_at nl a1 (o1 + l) a2 (o2 + l) a3 (o3 + l) a4 (o4 + l) a5
              (o5 + l)))
    done
  end
  else begin
    let od = ref d.base and o1 = ref v1.base and o2 = ref v2.base in
    let o3 = ref v3.base and o4 = ref v4.base and o5 = ref v5.base in
    for _ = 1 to n do
      Array.unsafe_set da !od
        (tail side op u (sum_at nl a1 !o1 a2 !o2 a3 !o3 a4 !o4 a5 !o5));
      od := !od + d.step;
      o1 := !o1 + v1.step;
      o2 := !o2 + v2.step;
      if nl >= 3 then o3 := !o3 + v3.step;
      if nl >= 4 then o4 := !o4 + v4.step;
      if nl >= 5 then o5 := !o5 + v5.step
    done
  end

let[@inline] sum_loads nl side op n d v1 v2 v3 v4 v5 reals ur =
  match nl with
  | 2 -> sum_chain 2 side op n d v1 v2 v3 v4 v5 reals ur
  | 3 -> sum_chain 3 side op n d v1 v2 v3 v4 v5 reals ur
  | 4 -> sum_chain 4 side op n d v1 v2 v3 v4 v5 reals ur
  | _ -> sum_chain 5 side op n d v1 v2 v3 v4 v5 reals ur

(* d <- the sum of loads [v1 .. v_nl], through the tail *)
let k_sum nl side op n d v1 v2 v3 v4 v5 reals ur =
  match (side, op) with
  | Snone, _ -> sum_loads nl Snone Kadd n d v1 v2 v3 v4 v5 reals ur
  | Sleft, Kadd -> sum_loads nl Sleft Kadd n d v1 v2 v3 v4 v5 reals ur
  | Sleft, Ksub -> sum_loads nl Sleft Ksub n d v1 v2 v3 v4 v5 reals ur
  | Sleft, Kmul -> sum_loads nl Sleft Kmul n d v1 v2 v3 v4 v5 reals ur
  | Sleft, _ -> sum_loads nl Sleft Kdiv n d v1 v2 v3 v4 v5 reals ur
  | Sright, Kadd -> sum_loads nl Sright Kadd n d v1 v2 v3 v4 v5 reals ur
  | Sright, Ksub -> sum_loads nl Sright Ksub n d v1 v2 v3 v4 v5 reals ur
  | Sright, Kmul -> sum_loads nl Sright Kmul n d v1 v2 v3 v4 v5 reals ur
  | Sright, _ -> sum_loads nl Sright Kdiv n d v1 v2 v3 v4 v5 reals ur

(* The [n] values [v0 + l * dv], or their remainders by [m] when [md],
   through [float_of_int] and the tail into [da] from [od], by [ds]
   unless [unit]. *)
let[@inline] ofi_pass ~unit md side op n da od ds v0 dv m u =
  let hi = if md then rem_hi n v0 dv m else 0 in
  if md && hi > 0 then begin
    let a = abs m and dr = rem_step dv m in
    let r = ref (v0 mod m) and o = ref od in
    for l = 0 to n - 1 do
      Array.unsafe_set da
        (if unit then od + l else !o)
        (tail side op u (float_of_int !r));
      if not unit then o := !o + ds;
      let x = !r + dr in
      r := if x >= hi then x - a else x
    done
  end
  else begin
    let v = ref v0 and o = ref od in
    for l = 0 to n - 1 do
      let w = if md then !v mod m else !v in
      Array.unsafe_set da
        (if unit then od + l else !o)
        (tail side op u (float_of_int w));
      if not unit then o := !o + ds;
      v := !v + dv
    done
  end

let[@inline] ofi_chain md side op n (d : float view) v0 dv m
    (reals : float array) ur =
  let u = match side with Snone -> 0.0 | _ -> Array.unsafe_get reals ur in
  if d.step = 1 then ofi_pass ~unit:true md side op n d.arr d.base 1 v0 dv m u
  else ofi_pass ~unit:false md side op n d.arr d.base d.step v0 dv m u

let[@inline] ofi_mod md side op n d v0 dv m reals ur =
  if md then ofi_chain true side op n d v0 dv m reals ur
  else ofi_chain false side op n d v0 dv m reals ur

(* d <- float v, or float (v mod m) when [md], through the tail *)
let k_ofi md side op n d v0 dv m reals ur =
  match (side, op) with
  | Snone, _ -> ofi_mod md Snone Kadd n d v0 dv m reals ur
  | Sleft, Kadd -> ofi_mod md Sleft Kadd n d v0 dv m reals ur
  | Sleft, Ksub -> ofi_mod md Sleft Ksub n d v0 dv m reals ur
  | Sleft, Kmul -> ofi_mod md Sleft Kmul n d v0 dv m reals ur
  | Sleft, _ -> ofi_mod md Sleft Kdiv n d v0 dv m reals ur
  | Sright, Kadd -> ofi_mod md Sright Kadd n d v0 dv m reals ur
  | Sright, Ksub -> ofi_mod md Sright Ksub n d v0 dv m reals ur
  | Sright, Kmul -> ofi_mod md Sright Kmul n d v0 dv m reals ur
  | Sright, _ -> ofi_mod md Sright Kdiv n d v0 dv m reals ur

(* One domain's lane arrays: they hold no register file or array, so a
   fork state keeps them across runs. Each ends in [domain_pad] unused
   words. *)
type lane_state = {
  ls_i : int array;  (** int lane arrays *)
  ls_f : float array;  (** float lane arrays *)
  ls_off : int array;  (** gathered offsets, multi-register sums *)
  ls_g : float array;  (** gathered loads, one lane array per operand *)
  ls_dirty : bool array;  (** varying registers written, ints then floats *)
  ls_pf : int array;  (** per int register: a progression's first value *)
  ls_pi : int array;  (** and its increment, for the current pass *)
}

let make_lane_state ln =
  let nvi = Array.length ln.ln_iregs and nvf = Array.length ln.ln_fregs in
  let gathers = Array.mem La_gather ln.ln_acc in
  let nregs = Array.length ln.ln_ilane in
  let pad = domain_pad in
  {
    ls_pf = Array.make (nregs + pad) 0;
    ls_pi = Array.make (nregs + pad) 0;
    ls_i = Array.make ((nvi * lane_width) + pad) 0;
    ls_f = Array.make ((nvf * lane_width) + pad) 0.0;
    ls_off = (if ln.ln_sums then Array.make (lane_width + pad) 0 else [||]);
    ls_g = (if gathers then Array.make ((4 * lane_width) + pad) 0.0 else [||]);
    ls_dirty = Array.make (nvi + nvf + pad) false;
  }

(* One domain's lane runner: what its strips read, and the operand
   views — four float and three int slots, slot 0 the destination, then
   the operands, and six more float slots for chains ([lane_chain]). *)
type lane_run = {
  lr_tape : tape;
  lr_ln : lanes;
  lr_ls : lane_state;
  lr_ints : int array;
  lr_reals : float array;
  lr_arrays : float array array;
  lr_inv : int array;
  lr_fv : float view array;
  lr_iv : int view array;
  mutable lr_jstep : int;
}

(* A view slot mostly sees the same array again: skip the write barrier
   then. *)
let set_view (v : _ view) arr base step =
  if v.arr != arr then v.arr <- arr;
  v.base <- base;
  v.step <- step

(* The lane array base of a register, or -1 for a scalar one; [lanes]
   is false in the prologue, which runs on the register files alone. *)
let ibase lr ~lanes r =
  let m = lr.lr_ln.ln_ilane in
  if lanes && r < Array.length m then Array.unsafe_get m r else -1

let fbase lr ~lanes r =
  let m = lr.lr_ln.ln_flane in
  if lanes && r < Array.length m then Array.unsafe_get m r else -1

(* Int view [k] over register [r]: a lane array, or the register file *)
let ireg lr ~lanes k r =
  let b = ibase lr ~lanes r in
  if b >= 0 then set_view lr.lr_iv.(k) lr.lr_ls.ls_i b 1
  else set_view lr.lr_iv.(k) lr.lr_ints r 0

let idst lr ~lanes k r =
  let b = ibase lr ~lanes r in
  if b >= 0 then begin
    Array.unsafe_set lr.lr_ls.ls_dirty (b / lane_width) true;
    set_view lr.lr_iv.(k) lr.lr_ls.ls_i b 1
  end
  else set_view lr.lr_iv.(k) lr.lr_ints r 0

(* The part of [a] over scalar registers, plus [k]. *)
let aff_scalar lr ~lanes k (a : aff) =
  let ints = lr.lr_ints and k = ref k in
  for m = 0 to Array.length a.regs - 1 do
    let r = a.regs.(m) in
    if ibase lr ~lanes r < 0 then
      k := !k + (a.coefs.(m) * Array.unsafe_get ints r)
  done;
  !k

(* [ls_off.(l)] <- [k] plus the terms of [a] over lane registers at
   lane [l], for [l < n]: one pass per lane register, each lane base
   looked up once. *)
let lane_sum lr n k (a : aff) =
  let off = lr.lr_ls.ls_off and li = lr.lr_ls.ls_i in
  Array.fill off 0 n k;
  for m = 0 to Array.length a.regs - 1 do
    let b = ibase lr ~lanes:true a.regs.(m) in
    if b >= 0 then begin
      let c = a.coefs.(m) in
      for l = 0 to n - 1 do
        Array.unsafe_set off l
          (Array.unsafe_get off l + (c * Array.unsafe_get li (b + l)))
      done
    end
  done

(* Float view [s + k] over access [id] for a use by [n] iterations; a
   gather fills operand [k]'s gather lane array. *)
let fmem lr s k n id =
  let ac = Array.unsafe_get lr.lr_tape.tp_accs id in
  let a = Array.unsafe_get lr.lr_arrays ac.ac_slot in
  let inv = lr.lr_inv and js = lr.lr_jstep in
  let v = lr.lr_fv.(s + k) in
  match Array.unsafe_get lr.lr_ln.ln_acc id with
  | La_fix -> set_view v a (Array.unsafe_get inv id) 0
  | La_aff c ->
      let o = Array.unsafe_get inv id + aff_eval lr.lr_ints ac.ac_var in
      set_view v a o (c * js)
  | La_gather ->
      let off = lr.lr_ls.ls_off in
      lane_sum lr n
        (aff_scalar lr ~lanes:true (Array.unsafe_get inv id) ac.ac_var)
        ac.ac_var;
      let g = lr.lr_ls.ls_g and gb = k * lane_width in
      for l = 0 to n - 1 do
        Array.unsafe_set g (gb + l)
          (Array.unsafe_get a (Array.unsafe_get off l))
      done;
      set_view v g gb 1

(* Float view [k] over register [r]: a lane array, the register file,
   or the view of the access it is read or written through (never a
   gather, [view_regs]). *)
let freg lr ~lanes k r =
  let b = fbase lr ~lanes r in
  if b >= 0 then set_view lr.lr_fv.(k) lr.lr_ls.ls_f b 1
  else if b = -1 then set_view lr.lr_fv.(k) lr.lr_reals r 0
  else fmem lr k 0 1 (-2 - b)

let fdst lr ~lanes k r =
  let b = fbase lr ~lanes r in
  if b >= 0 then begin
    Array.unsafe_set lr.lr_ls.ls_dirty
      (Array.length lr.lr_ln.ln_iregs + (b / lane_width))
      true;
    set_view lr.lr_fv.(k) lr.lr_ls.ls_f b 1
  end
  else if b = -1 then set_view lr.lr_fv.(k) lr.lr_reals r 0
  else fmem lr k 0 1 (-2 - b)

(* dst view [v] <- base + sum coef * reg: the terms over scalar
   registers sum once *)
let lane_aff lr ~lanes n (v : int view) (a : aff) =
  let li = lr.lr_ls.ls_i in
  let nlane = ref 0 and lc = ref 0 and lb = ref 0 in
  for m = 0 to Array.length a.regs - 1 do
    let b = ibase lr ~lanes a.regs.(m) in
    if b >= 0 then begin
      incr nlane;
      lc := a.coefs.(m);
      lb := b
    end
  done;
  let k = aff_scalar lr ~lanes a.base a in
  (* a destination may be one of the registers: sum before writing *)
  if !nlane > 1 then lane_sum lr n k a;
  let da = v.arr and ds = v.step and od = ref v.base in
  if !nlane = 0 then
    for _ = 1 to n do
      Array.unsafe_set da !od k;
      od := !od + ds
    done
  else if !nlane = 1 then begin
    let c = !lc and ol = ref !lb in
    for _ = 1 to n do
      Array.unsafe_set da !od (k + (c * Array.unsafe_get li !ol));
      od := !od + ds;
      incr ol
    done
  end
  else begin
    let off = lr.lr_ls.ls_off in
    for l = 0 to n - 1 do
      Array.unsafe_set da !od (Array.unsafe_get off l);
      od := !od + ds
    done
  end

(* The straight-line instruction [i] over [n] iterations: point the
   view slots at its operands, slot 0 its destination, then run its
   kernel over them. *)
let lane_step lr ~lanes n (i : instr) =
  let fv = lr.lr_fv and iv = lr.lr_iv in
  match i with
  | Iconst (d, x) ->
      idst lr ~lanes 0 d;
      let v = iv.(0) in
      let da = v.arr and ds = v.step and od = ref v.base in
      for _ = 1 to n do
        Array.unsafe_set da !od x;
        od := !od + ds
      done
  | Iaff (d, a) ->
      idst lr ~lanes 0 d;
      lane_aff lr ~lanes n iv.(0) a
  | Imul (d, a, b)
  | Idiv (d, a, b)
  | Imod (d, a, b)
  | Icdiv (d, a, b)
  | Imin (d, a, b)
  | Imax (d, a, b) ->
      ireg lr ~lanes 1 a;
      ireg lr ~lanes 2 b;
      idst lr ~lanes 0 d;
      k_ibin i n iv.(0) iv.(1) iv.(2)
  | Fconst (d, x) ->
      fdst lr ~lanes 0 d;
      k_ffill n fv.(0) x
  | Fmov (d, s) ->
      freg lr ~lanes 1 s;
      fdst lr ~lanes 0 d;
      k_fcopy n fv.(0) fv.(1)
  | Fneg (d, s) ->
      freg lr ~lanes 1 s;
      fdst lr ~lanes 0 d;
      k_fneg n fv.(0) fv.(1)
  | Fofi (d, s) ->
      ireg lr ~lanes 1 s;
      fdst lr ~lanes 0 d;
      k_fofi n fv.(0) iv.(1)
  | Fadd (d, a, b)
  | Fsub (d, a, b)
  | Fmul (d, a, b)
  | Fdiv (d, a, b)
  | Fmin (d, a, b)
  | Fmax (d, a, b) ->
      freg lr ~lanes 1 a;
      freg lr ~lanes 2 b;
      fdst lr ~lanes 0 d;
      let op =
        match i with
        | Fadd _ -> Kadd
        | Fsub _ -> Ksub
        | Fmul _ -> Kmul
        | Fdiv _ -> Kdiv
        | Fmin _ -> Kmin
        | _ -> Kmax
      in
      k_fbin op n fv.(0) fv.(1) fv.(2)
  | Fmac (d, a, x, y) | Fmsb (d, a, x, y) ->
      freg lr ~lanes 1 a;
      freg lr ~lanes 2 x;
      freg lr ~lanes 3 y;
      fdst lr ~lanes 0 d;
      k_fmac
        ~add:(match i with Fmac _ -> true | _ -> false)
        n fv.(0) fv.(1) fv.(2) fv.(3)
  | Fload (d, id) ->
      fmem lr 0 1 n id;
      fdst lr ~lanes 0 d;
      k_fcopy n fv.(0) fv.(1)
  | Fstore (s, id) ->
      freg lr ~lanes 1 s;
      fmem lr 0 0 n id;
      k_fcopy n fv.(0) fv.(1)
  | Fmac2 (d, a, i1, i2) | Fmsb2 (d, a, i1, i2) ->
      freg lr ~lanes 1 a;
      fmem lr 0 2 n i1;
      fmem lr 0 3 n i2;
      fdst lr ~lanes 0 d;
      k_fmac
        ~add:(match i with Fmac2 _ -> true | _ -> false)
        n fv.(0) fv.(1) fv.(2) fv.(3)
  | Fldmac (d, a, x, id) | Fldmsb (d, a, x, id) ->
      freg lr ~lanes 1 a;
      freg lr ~lanes 2 x;
      fmem lr 0 3 n id;
      fdst lr ~lanes 0 d;
      k_fmac
        ~add:(match i with Fldmac _ -> true | _ -> false)
        n fv.(0) fv.(1) fv.(2) fv.(3)
  | Fldadd (d, x, id) | Fldsub (d, x, id) | Fldmul (d, x, id) ->
      freg lr ~lanes 1 x;
      fmem lr 0 2 n id;
      fdst lr ~lanes 0 d;
      let op = match i with Fldadd _ -> Kadd | Fldsub _ -> Ksub | _ -> Kmul in
      k_fbin op n fv.(0) fv.(1) fv.(2)
  | Fld2add (d, i1, i2) ->
      fmem lr 0 1 n i1;
      fmem lr 0 2 n i2;
      fdst lr ~lanes 0 d;
      k_fbin Kadd n fv.(0) fv.(1) fv.(2)
  | Fldst (i1, i2) ->
      fmem lr 0 1 n i1;
      fmem lr 0 0 n i2;
      k_fcopy n fv.(0) fv.(1)
  | Istep (r, name) ->
      if Array.unsafe_get lr.lr_ints r <= 0 then
        error "loop %s: step must be positive" name
  | Icount _ | Ifork _ | Jmp _ | Jii _ | Jff _ | Jffn _ | Iloop _ | Iloopc _
    ->
      assert false

(* A position [progressions] runs on progressions ([ln_run] -4, or -5
   to fill the [Iaff]'s lane array too), over [n] iterations: an [Iaff]
   sets its register's pair from its terms', [Fofi] and [Imod] read
   their operand's pair. *)
let lane_prog lr n ~fill (i : instr) =
  let ls = lr.lr_ls in
  let pf = ls.ls_pf and pi = ls.ls_pi in
  match i with
  | Iaff (d, a) ->
      let v0 = ref a.base and dv = ref 0 in
      for m = 0 to Array.length a.regs - 1 do
        let r = Array.unsafe_get a.regs m and c = Array.unsafe_get a.coefs m in
        if ibase lr ~lanes:true r >= 0 then begin
          v0 := !v0 + (c * Array.unsafe_get pf r);
          dv := !dv + (c * Array.unsafe_get pi r)
        end
        else v0 := !v0 + (c * Array.unsafe_get lr.lr_ints r)
      done;
      Array.unsafe_set pf d !v0;
      Array.unsafe_set pi d !dv;
      let b = Array.unsafe_get lr.lr_ln.ln_ilane d in
      Array.unsafe_set ls.ls_dirty (b / lane_width) true;
      if fill then k_ifill n ls.ls_i b !v0 !dv
  | Fofi (d, s) ->
      fdst lr ~lanes:true 0 d;
      k_fofi_run n lr.lr_fv.(0) (Array.unsafe_get pf s) (Array.unsafe_get pi s)
  | Imod (d, a, b) ->
      idst lr ~lanes:true 0 d;
      k_imod_run n lr.lr_iv.(0) (Array.unsafe_get pf a) (Array.unsafe_get pi a)
        (Array.unsafe_get lr.lr_ints b)
  | _ -> assert false

(* Chain [ch] over [n] iterations, on the chain's view slots: the last
   six, the destination and then the loads. *)
let lane_chain lr n (ch : chain) =
  let fv = lr.lr_fv and c = Array.length lr.lr_fv - 6 in
  fdst lr ~lanes:true c ch.ch_dst;
  match ch.ch_head with
  | Ch_sum ids ->
      let nl = Array.length ids in
      for k = 0 to nl - 1 do
        fmem lr c (k + 1) n (Array.unsafe_get ids k)
      done;
      k_sum nl ch.ch_side ch.ch_op n fv.(c) fv.(c + 1) fv.(c + 2) fv.(c + 3)
        fv.(c + 4) fv.(c + 5) lr.lr_reals ch.ch_u
  | Ch_ofi (p, m) ->
      let ls = lr.lr_ls in
      k_ofi (m >= 0) ch.ch_side ch.ch_op n fv.(c) (Array.unsafe_get ls.ls_pf p)
        (Array.unsafe_get ls.ls_pi p)
        (if m >= 0 then Array.unsafe_get lr.lr_ints m else 1)
        lr.lr_reals ch.ch_u

(* Lane loop [ll], entered at its [top] by a pass of [n] iterations.
   When the trip count is sure (a positive step, an index at most the
   bound and no overflow), every trip runs as one [k_fmac_trips] call
   and the index ends past the bound, as the back edge leaves it: the
   position past the back edge. Else this trip runs as the dispatch
   loop runs it: the back edge. *)
let lane_loop lr n (ll : lane_loop) top =
  let ints = lr.lr_ints and back = ll.ll_back in
  let ops = lr.lr_tape.tp_ops in
  let r, step, bnd =
    match Array.unsafe_get ops back with
    | Iloopc (r, c, bnd, _) -> (r, c, bnd)
    | Iloop (r, a, bnd, _) ->
        (r, aff_eval ints a - Array.unsafe_get ints r, bnd)
    | _ -> assert false
  in
  let v0 = Array.unsafe_get ints r and hi = Array.unsafe_get ints bnd in
  let i = Array.unsafe_get ops top in
  if
    step > 0
    && hi <= max_int - step
    && v0 <= hi
    && (v0 >= 0 || hi <= max_int + v0)
  then begin
    match i with
    | Fmac2 (d, a, i1, i2) | Fmsb2 (d, a, i1, i2) ->
        let fv = lr.lr_fv and trips = ((hi - v0) / step) + 1 in
        freg lr ~lanes:true 1 a;
        fmem lr 0 2 n i1;
        fmem lr 0 3 n i2;
        fdst lr ~lanes:true 0 d;
        k_fmac_trips
          ~add:(match i with Fmac2 _ -> true | _ -> false)
          trips (ll.ll_cx * step) (ll.ll_cy * step) n fv.(0) fv.(1) fv.(2)
          fv.(3);
        Array.unsafe_set ints r (v0 + (trips * step));
        back + 1
    | _ -> assert false
  end
  else begin
    lane_step lr ~lanes:true n i;
    back
  end

let lane_strip lr ~jslot j0 jstep len =
  let tape = lr.lr_tape and ln = lr.lr_ln and ints = lr.lr_ints in
  let li = lr.lr_ls.ls_i and dirty = lr.lr_ls.ls_dirty in
  let pf = lr.lr_ls.ls_pf in
  let accs = tape.tp_accs and pre = tape.tp_pre in
  let ops = tape.tp_ops and run = ln.ln_run in
  let stop = Array.length ops in
  let jb = Array.unsafe_get ln.ln_ilane jslot in
  lr.lr_jstep <- jstep;
  (* strip prologue and invariant offsets, as [exec_strip] *)
  Array.unsafe_set ints jslot j0;
  for p = 0 to Array.length pre - 1 do
    lane_step lr ~lanes:false 1 (Array.unsafe_get pre p)
  done;
  for a = 0 to Array.length accs - 1 do
    Array.unsafe_set lr.lr_inv a
      (aff_eval ints (Array.unsafe_get accs a).ac_inv)
  done;
  Array.fill dirty 0
    (Array.length ln.ln_iregs + Array.length ln.ln_fregs)
    false;
  let p = ref 0 and n = ref 0 in
  while !p < len do
    n := if len - !p < lane_width then len - !p else lane_width;
    let j = j0 + (!p * jstep) in
    Array.unsafe_set ints jslot j;
    Array.unsafe_set pf jslot j;
    Array.unsafe_set lr.lr_ls.ls_pi jslot jstep;
    if ln.ln_jfill then k_ifill !n li jb j jstep;
    let pc = ref 0 in
    while !pc < stop do
      let k = Array.unsafe_get run !pc in
      if k >= 0 then pc := lane_loop lr !n (Array.unsafe_get ln.ln_loops k) !pc
      else
        match Array.unsafe_get ops !pc with
        | Jmp t -> pc := t
        | Jii (op, a, b, t) ->
            if icmp op (Array.unsafe_get ints a) (Array.unsafe_get ints b)
            then pc := t
            else incr pc
        | Iloop (r, a, bnd, top) ->
            let v = aff_eval ints a in
            Array.unsafe_set ints r v;
            if v <= Array.unsafe_get ints bnd then pc := top else incr pc
        | Iloopc (r, c, bnd, top) ->
            let v = Array.unsafe_get ints r + c in
            Array.unsafe_set ints r v;
            if v <= Array.unsafe_get ints bnd then pc := top else incr pc
        | i ->
            if k >= -2 then
              lane_step lr ~lanes:true (if k = -1 then !n else 1) i
            else if k <= -6 then
              lane_chain lr !n (Array.unsafe_get ln.ln_chains (-6 - k))
            else if k <> -3 then lane_prog lr !n ~fill:(k = -5) i;
            incr pc
    done;
    p := !p + !n
  done;
  (* the last iteration's varying registers, the strip index included;
     a progression's from its pair *)
  if len > 0 then begin
    let last = !n - 1 and nvi = Array.length ln.ln_iregs in
    Array.unsafe_set dirty (jb / lane_width) true;
    for k = 0 to nvi - 1 do
      if dirty.(k) then begin
        let r = ln.ln_iregs.(k) in
        ints.(r) <-
          (if ln.ln_iprog.(k) then pf.(r) + (last * lr.lr_ls.ls_pi.(r))
           else li.((k * lane_width) + last))
      end
    done;
    for k = 0 to Array.length ln.ln_fregs - 1 do
      if dirty.(nvi + k) then
        lr.lr_reals.(ln.ln_fregs.(k)) <- lr.lr_ls.ls_f.((k * lane_width) + last)
    done
  end

let lane_runner tape ln ls ~ints ~reals ~arrays ~inv ~jslot =
  let lr =
    {
      lr_tape = tape;
      lr_ln = ln;
      lr_ls = ls;
      lr_ints = ints;
      lr_reals = reals;
      lr_arrays = arrays;
      lr_inv = inv;
      lr_fv = Array.init 10 (fun _ -> { arr = reals; base = 0; step = 0 });
      lr_iv = Array.init 3 (fun _ -> { arr = ints; base = 0; step = 0 });
      lr_jstep = 0;
    }
  in
  fun j0 jstep len -> lane_strip lr ~jslot j0 jstep len

(* ---------- stable textual form (for --dump-tape and golden tests) ---------- *)

let pp_aff (a : aff) =
  let b = Buffer.create 16 in
  Buffer.add_string b (string_of_int a.base);
  Array.iteri
    (fun m r -> Buffer.add_string b (Printf.sprintf " + %d*i%d" a.coefs.(m) r))
    a.regs;
  Buffer.contents b

let pp_relop : Ast.relop -> string = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"

let pp_instr (op : instr) =
  let f = Printf.sprintf in
  match op with
  | Iconst (d, v) -> f "i%d <- %d" d v
  | Iaff (d, a) -> f "i%d <- %s" d (pp_aff a)
  | Imul (d, a, b) -> f "i%d <- i%d * i%d" d a b
  | Idiv (d, a, b) -> f "i%d <- i%d / i%d" d a b
  | Imod (d, a, b) -> f "i%d <- i%d mod i%d" d a b
  | Icdiv (d, a, b) -> f "i%d <- i%d /^ i%d" d a b
  | Imin (d, a, b) -> f "i%d <- min i%d i%d" d a b
  | Imax (d, a, b) -> f "i%d <- max i%d i%d" d a b
  | Istep (r, nm) -> f "step i%d (%s)" r nm
  | Fconst (d, x) -> f "r%d <- %h" d x
  | Fmov (d, s) -> f "r%d <- r%d" d s
  | Fadd (d, a, b) -> f "r%d <- r%d + r%d" d a b
  | Fsub (d, a, b) -> f "r%d <- r%d - r%d" d a b
  | Fmul (d, a, b) -> f "r%d <- r%d * r%d" d a b
  | Fdiv (d, a, b) -> f "r%d <- r%d / r%d" d a b
  | Fmin (d, a, b) -> f "r%d <- min r%d r%d" d a b
  | Fmax (d, a, b) -> f "r%d <- max r%d r%d" d a b
  | Fneg (d, s) -> f "r%d <- -r%d" d s
  | Fofi (d, s) -> f "r%d <- float i%d" d s
  | Fmac (d, a, x, y) -> f "r%d <- r%d + r%d * r%d" d a x y
  | Fmsb (d, a, x, y) -> f "r%d <- r%d - r%d * r%d" d a x y
  | Fload (d, id) -> f "r%d <- load[%d]" d id
  | Fstore (s, id) -> f "store[%d] <- r%d" id s
  | Fmac2 (d, a, i1, i2) -> f "r%d <- r%d + load[%d] * load[%d]" d a i1 i2
  | Fmsb2 (d, a, i1, i2) -> f "r%d <- r%d - load[%d] * load[%d]" d a i1 i2
  | Fldmac (d, a, x, id) -> f "r%d <- r%d + r%d * load[%d]" d a x id
  | Fldmsb (d, a, x, id) -> f "r%d <- r%d - r%d * load[%d]" d a x id
  | Fldadd (d, x, id) -> f "r%d <- r%d + load[%d]" d x id
  | Fldsub (d, x, id) -> f "r%d <- r%d - load[%d]" d x id
  | Fldmul (d, x, id) -> f "r%d <- r%d * load[%d]" d x id
  | Fld2add (d, i1, i2) -> f "r%d <- load[%d] + load[%d]" d i1 i2
  | Fldst (i1, i2) -> f "store[%d] <- load[%d]" i2 i1
  | Jmp t -> f "jmp %d" t
  | Jii (op, a, b, t) -> f "jii %s i%d i%d -> %d" (pp_relop op) a b t
  | Jff (op, a, b, t) -> f "jff %s r%d r%d -> %d" (pp_relop op) a b t
  | Jffn (op, a, b, t) -> f "jffn %s r%d r%d -> %d" (pp_relop op) a b t
  | Iloop (r, a, bnd, top) ->
      f "loop i%d <- %s while <= i%d -> %d" r (pp_aff a) bnd top
  | Iloopc (r, c, bnd, top) ->
      f "loopc i%d += %d while <= i%d -> %d" r c bnd top
  | Icount k -> f "count s%d" k
  | Ifork k -> f "fork plan %d" k

(* One lowercase mnemonic per constructor, for per-opcode profiler
   tables and folded stacks. *)
let instr_mnemonic = function
  | Iconst _ -> "iconst"
  | Iaff _ -> "iaff"
  | Imul _ -> "imul"
  | Idiv _ -> "idiv"
  | Imod _ -> "imod"
  | Icdiv _ -> "icdiv"
  | Imin _ -> "imin"
  | Imax _ -> "imax"
  | Istep _ -> "istep"
  | Fconst _ -> "fconst"
  | Fmov _ -> "fmov"
  | Fadd _ -> "fadd"
  | Fsub _ -> "fsub"
  | Fmul _ -> "fmul"
  | Fdiv _ -> "fdiv"
  | Fmin _ -> "fmin"
  | Fmax _ -> "fmax"
  | Fneg _ -> "fneg"
  | Fofi _ -> "fofi"
  | Fmac _ -> "fmac"
  | Fmsb _ -> "fmsb"
  | Fload _ -> "fload"
  | Fstore _ -> "fstore"
  | Fmac2 _ -> "fmac2"
  | Fmsb2 _ -> "fmsb2"
  | Fldmac _ -> "fldmac"
  | Fldmsb _ -> "fldmsb"
  | Fldadd _ -> "fldadd"
  | Fldsub _ -> "fldsub"
  | Fldmul _ -> "fldmul"
  | Fld2add _ -> "fld2add"
  | Fldst _ -> "fldst"
  | Jmp _ -> "jmp"
  | Jii _ -> "jii"
  | Jff _ -> "jff"
  | Jffn _ -> "jffn"
  | Iloop _ -> "iloop"
  | Iloopc _ -> "iloopc"
  | Icount _ -> "icount"
  | Ifork _ -> "ifork"

let pp_vkind = function
  | V0 -> "inv"
  | V1 (c, r) -> Printf.sprintf "inv + %d*i%d" c r
  | V2 (c1, r1, c2, r2) -> Printf.sprintf "inv + %d*i%d + %d*i%d" c1 r1 c2 r2
  | Vn -> "inv + var"

let pp_tape (t : tape) =
  let b = Buffer.create 256 in
  let section name ops =
    if Array.length ops > 0 then begin
      Buffer.add_string b (name ^ ":\n");
      Array.iteri
        (fun i op -> Buffer.add_string b (Printf.sprintf "%4d: %s\n" i (pp_instr op)))
        ops
    end
  in
  section "pre" t.tp_pre;
  section "ops" t.tp_ops;
  if Array.length t.tp_accs > 0 then begin
    Buffer.add_string b "accs:\n";
    Array.iteri
      (fun i ac ->
        Buffer.add_string b
          (Printf.sprintf "%4d: %s  inv = %s  var = %s  off = %s\n" i ac.ac_name
             (pp_aff ac.ac_inv) (pp_aff ac.ac_var) (pp_vkind ac.ac_vk)))
      t.tp_accs
  end;
  Buffer.add_string b
    (Printf.sprintf "sanitize=%b\n" t.tp_sanitize);
  Buffer.contents b

(* Provenance dump, separate from [pp_tape] so the latter's golden
   format stays byte-stable. *)
let pp_provenance (t : tape) =
  let b = Buffer.create 256 in
  Buffer.add_string b "tags:\n";
  Array.iteri
    (fun i tag ->
      Buffer.add_string b
        (Printf.sprintf "%4d: %s :: %s\n" i tag.sl_loop tag.sl_stmt))
    t.tp_tags;
  let section name srcs =
    if Array.length srcs > 0 then begin
      Buffer.add_string b (name ^ " tags:");
      Array.iter (fun s -> Buffer.add_string b (Printf.sprintf " %d" s)) srcs;
      Buffer.add_string b "\n"
    end
  in
  section "pre" t.tp_pre_src;
  section "ops" t.tp_src;
  Buffer.contents b
