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

let rng_eval ~ints ~lo ~hi (r : rng) : (int * int) option =
  let exception Unknown in
  let rec go = function
    | Rux -> raise Unknown
    | Rconst n -> (n, n)
    | Rplan k -> (lo.(k), hi.(k))
    | Rreg s ->
        let v = ints.(s) in
        (v, v)
    | Raff (base, terms) ->
        Array.fold_left
          (fun (a, b) (c, t) ->
            let x, y = go t in
            let p = mul_ov c x and q = mul_ov c y in
            (add_ov a (min p q), add_ov b (max p q)))
          (base, base) terms
    | Rmul (a, b) ->
        let al, ah = go a and bl, bh = go b in
        let p1 = mul_ov al bl and p2 = mul_ov al bh in
        let p3 = mul_ov ah bl and p4 = mul_ov ah bh in
        (min (min p1 p2) (min p3 p4), max (max p1 p2) (max p3 p4))
    | Rmin (a, b) ->
        let al, ah = go a and bl, bh = go b in
        (min al bl, min ah bh)
    | Rmax (a, b) ->
        let al, ah = go a and bl, bh = go b in
        (max al bl, max ah bh)
    | Rspan (a, b) ->
        (* A serial index takes values in [lo .. hi]; executed accesses
           only see iterations where lo <= hi, so the hull is sound. *)
        let al, _ = go a and _, bh = go b in
        (al, bh)
  in
  match go r with hull -> Some hull | exception (Unknown | Overflow) -> None

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
  | Sinit of int * aff
      (** stream scratch slot <- full affine offset, evaluated at strip
          entry (prologue) or serial-loop entry (body). Emitted by the
          tape optimizer only. *)
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
  | Vs of int * int
      (** streamed: scratch slot holding the full offset, self-bumped by
          a constant after each use (serial-loop stream) *)
  | Vsj of int * int
      (** streamed over the strip index: scratch slot, bumped by
          [coef * jstep] after each use (strip stream) *)
  | Vsv of int * int
      (** streamed with a run-time bump: offset scratch slot, bump
          scratch slot — both initialized by [Sinit]s at region entry
          (variable-step serial loops) *)

(* Provenance: every tape instruction carries the source loop nest and
   statement it was lowered from, as an index into a per-tape tag table.
   Tag 0 is the plan root (the coalesced parallel nest itself); serial
   loops extend the root path with "/index" per nesting level. The
   optimizer passes thread these side tables through every rewrite, so
   profiler reports can name the originating loop even on a
   gvn/licm/stream/fuse'd tape. *)
type srcloc = {
  sl_loop : string;
      (** loop path: plan indexes joined with ".", then "/index" per
          enclosing serial loop (e.g. ["i.j/k"]) *)
  sl_stmt : string;  (** statement label, e.g. ["C[] ="], ["for k"], ["if"] *)
}

type tape = {
  tp_pre : instr array;  (** strip prologue: float consts and stream inits *)
  tp_ops : instr array;  (** single-iteration body *)
  tp_accs : access array;
  tp_nstreams : int;  (** scratch slots past the per-access invariant ones *)
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

type st = {
  lookup : string -> binding option;
  arr : string -> array_ref option;
  fresh_i : unit -> int;
  fresh_r : unit -> int;
  assigned : string list;
  plan_names : string array;
  plan_slots : int array;
  sanitize : bool;
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
                    if List.mem v st.assigned || Hashtbl.mem st.written s then
                      Rux
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
          | Some (Bint slot), Xi iv -> emit st (Iaff (slot, iv.va))
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
  | For l -> lower_serial_loop st l

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
     sanitized tapes, which keep the per-iteration shadow protocol. An
     element whose reference is statically wrong is not promoted: its
     store reports the error in statement order. *)
  let promos =
    if st.sanitize then []
    else
      List.filter_map
        (fun (a, subs) ->
          if List.exists (fun (a', _, _) -> String.equal a a') st.promo then
            None
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

let lower ~lookup ~array_ref ~fresh_int ~fresh_real ~assigned ~plan_names
    ~plan_slots ~sanitize (body : Ast.block) : tape =
  let root = String.concat "." (Array.to_list plan_names) in
  let st =
    {
      lookup;
      arr = array_ref;
      fresh_i = fresh_int;
      fresh_r = fresh_real;
      assigned;
      plan_names;
      plan_slots;
      sanitize;
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
  let jj = plan_slots.(Array.length plan_slots - 1) in
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
    tp_nstreams = 0;
    tp_sanitize = sanitize;
    tp_src = Array.sub st.srcs 0 st.len;
    tp_pre_src = Array.make (Array.length pre) 0;
    tp_tags = Array.of_list (List.rev st.tag_list);
  }

(* ---------- per-fork preparation ---------- *)

type prep = { pr_unsafe : bool array }

let prepare tape ~ints ~lo ~hi =
  let n = Array.length tape.tp_accs in
  let flags =
    if tape.tp_sanitize then Array.make n false
    else
      Array.init n (fun i ->
          let ac = tape.tp_accs.(i) in
          let ok = ref true in
          Array.iteri
            (fun k r ->
              match rng_eval ~ints ~lo ~hi r with
              | Some (l, h) when 1 <= l && h <= ac.ac_dims.(k) -> ()
              | _ -> ok := false)
            ac.ac_rngs;
          !ok)
  in
  { pr_unsafe = flags }

let unsafe_flags p = Array.copy p.pr_unsafe

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

let make_scratch tape =
  Array.make (max 1 (Array.length tape.tp_accs + tape.tp_nstreams)) 0

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

let exec_strip tape prep ~ints ~reals ~arrays ~shadow ~inv ~jslot ~j0 ~jstep
    ~len ~iter0 =
  let accs = tape.tp_accs in
  let unsafe = prep.pr_unsafe in
  Array.unsafe_set ints jslot j0;
  (* Offset of one access execution. Streamed kinds self-bump their
     scratch slot; checked accesses recompute from the subscripts (and
     leave any stream slot untouched — it is never read again). *)
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
      | Vs (s, b) ->
          let v = Array.unsafe_get inv s in
          Array.unsafe_set inv s (v + b);
          v
      | Vsj (s, c) ->
          let v = Array.unsafe_get inv s in
          Array.unsafe_set inv s (v + (c * jstep));
          v
      | Vsv (s, bs) ->
          let v = Array.unsafe_get inv s in
          Array.unsafe_set inv s (v + Array.unsafe_get inv bs);
          v
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
  (* Runs [len] strip iterations of [ops], the first numbered [iter0]
     for the sanitizer. When [pc] falls off the body, the strip
     back-edge advances the strip index by [jstep] and the iteration
     number by one and restarts at 0; the index is left at the last
     iteration's value. *)
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
            Array.unsafe_set reals d
              (Array.unsafe_get reals a
              +. (Array.unsafe_get reals x *. Array.unsafe_get reals y));
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
        | Sinit (s, a) ->
            Array.unsafe_set inv s (aff_eval ints a);
            incr pc
            | Fmac2 (d, a, i1, i2) ->
            let l1 = load_elem i1 !iter in
            let l2 = load_elem i2 !iter in
            Array.unsafe_set reals d (Array.unsafe_get reals a +. (l1 *. l2));
            incr pc
        | Fmsb2 (d, a, i1, i2) ->
            let l1 = load_elem i1 !iter in
            let l2 = load_elem i2 !iter in
            Array.unsafe_set reals d (Array.unsafe_get reals a -. (l1 *. l2));
            incr pc
        | Fldmac (d, a, x, id) ->
            let l = load_elem id !iter in
            Array.unsafe_set reals d
              (Array.unsafe_get reals a +. (Array.unsafe_get reals x *. l));
            incr pc
        | Fldmsb (d, a, x, id) ->
            let l = load_elem id !iter in
            Array.unsafe_set reals d
              (Array.unsafe_get reals a -. (Array.unsafe_get reals x *. l));
            incr pc
        | Fldadd (d, x, id) ->
            let l = load_elem id !iter in
            Array.unsafe_set reals d (Array.unsafe_get reals x +. l);
            incr pc
        | Fldsub (d, x, id) ->
            let l = load_elem id !iter in
            Array.unsafe_set reals d (Array.unsafe_get reals x -. l);
            incr pc
        | Fldmul (d, x, id) ->
            let l = load_elem id !iter in
            Array.unsafe_set reals d (Array.unsafe_get reals x *. l);
            incr pc
        | Fld2add (d, i1, i2) ->
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
      done;
      if !iter < last then
        Array.unsafe_set ints jslot (Array.unsafe_get ints jslot + jstep);
      incr iter;
      pc := 0
    done
  in
  (* Strip prologue: float constants, strip-invariant ops hoisted by the
     optimizer and stream-offset initializers run through the general
     dispatch (no access instructions land here), then the per-access
     invariant offsets are hoisted. Both read the strip index, which was
     set to the strip's first iteration above. *)
  Array.iter
    (function
      | Fconst (d, x) -> Array.unsafe_set reals d x
      | Sinit (s, a) -> Array.unsafe_set inv s (aff_eval ints a)
      | op -> exec_ops [| op |] iter0 1)
    tape.tp_pre;
  for a = 0 to Array.length accs - 1 do
    Array.unsafe_set inv a (aff_eval ints (Array.unsafe_get accs a).ac_inv)
  done;
  exec_ops tape.tp_ops iter0 len

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
   - stream offsets: a stream initialized in the body reads no varying
     register besides the strip index, with one coefficient per slot;
   - nothing carried: every register the body reads is defined earlier
     on every path through the same iteration, or never written in it;
   - one element per iteration: every stored array is accessed, in all
     of its loads and stores, at one offset [inv + c * j], c <> 0, or
     with one subscript [c * j + inv] and no other varying one, so
     iterations touch distinct elements and none reads another's;
   - nothing can raise: no [Istep], no variable-step stream, and every
     divisor a valid literal, so errors and their order cannot depend
     on the interleaving. *)

module IntSet = Set.Make (Int)
module IntMap = Map.Make (Int)

let reads = function
  | Iconst _ | Fconst _ | Jmp _ | Icount _ -> ([], [], [])
  | Iaff (_, a) | Sinit (_, a) -> (Array.to_list a.regs, [], [])
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
  | V0 | Vs _ | Vsj _ | Vsv _ -> []

let const_regs ~jslot (tp : tape) =
  let writes = Hashtbl.create 16 in
  let count i =
    match int_dst i with
    | Some d ->
        Hashtbl.replace writes d
          (1 + Option.value ~default:0 (Hashtbl.find_opt writes d))
    | None -> ()
  in
  Array.iter count tp.tp_pre;
  Array.iter count tp.tp_ops;
  Array.fold_left
    (fun m i ->
      match i with
      | (Iconst (d, v) | Iaff (d, { base = v; coefs = [||]; _ }))
        when d <> jslot && Hashtbl.find writes d = 1 ->
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
  lp_stride : int IntMap.t;
  lp_flat_stores : bool;
  lp_uniform : bool array;
}

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
  (* registers and stream slots that vary with the strip index *)
  let vi = ref (IntSet.singleton jslot) and vf = ref IntSet.empty in
  let vs = ref IntSet.empty in
  let acc_varies id =
    let ac = acc id in
    match ac.ac_vk with
    | V0 -> false
    | V1 _ | V2 _ | Vn -> List.exists (fun r -> IntSet.mem r !vi) (acc_regs ac)
    | Vsj _ -> true
    | Vs (s, _) | Vsv (s, _) -> IntSet.mem s !vs
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
          (match i with Sinit (s, _) -> add vs s | _ -> ());
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
  (* strip coefficients of the body's [Sinit]s: they must agree per slot
     and read no varying register besides the strip index *)
  let stride = ref IntMap.empty and stream_ok = ref true in
  Array.iter
    (fun i ->
      match i with
      | Sinit (s, a) ->
          let c = aff_coef a jslot in
          if not (Array.for_all (fun r -> r = jslot || uniform r) a.regs) then
            stream_ok := false;
          (match IntMap.find_opt s !stride with
          | Some c' when c' <> c -> stream_ok := false
          | _ -> ());
          stride := IntMap.add s c !stride
      | _ -> ())
    ops;
  (* nothing carried: a read of anything the body writes must follow a
     write on every path through the iteration (keys: int 3r, float
     3r+1, stream slot 3s+2) *)
  let carried () =
    let needs i =
      let ir, fr, ids = reads i in
      List.filter_map
        (fun r -> if IntSet.mem r written_i then Some (3 * r) else None)
        ir
      @ List.filter_map
          (fun r -> if IntSet.mem r written_f then Some ((3 * r) + 1) else None)
          fr
      @ List.concat_map
          (fun id ->
            let ac = acc id in
            List.filter_map
              (fun r -> if IntSet.mem r written_i then Some (3 * r) else None)
              (acc_regs ac)
            @
            match ac.ac_vk with
            | Vs (s, _) -> [ (3 * s) + 2 ]
            | V0 | V1 _ | V2 _ | Vn | Vsj _ | Vsv _ -> [])
          ids
    in
    let defs d i =
      let add k r = IntSet.add ((3 * r) + k) in
      let d = Option.fold ~none:d ~some:(fun r -> add 0 r d) (int_dst i) in
      let d = Option.fold ~none:d ~some:(fun r -> add 1 r d) (float_dst i) in
      match i with Sinit (s, _) -> add 2 s d | _ -> d
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
  (* a [Vsv] stream belongs to a variable-step loop, whose [Istep] stays
     in the body *)
  let may_raise () =
    let valid_lit b p =
      match IntMap.find_opt b lits with Some v -> p v | None -> false
    in
    Array.exists
      (fun i ->
        let _, _, ids = reads i in
        List.exists
          (fun id -> match (acc id).ac_vk with Vsv _ -> true | _ -> false)
          ids
        ||
        match i with
        | Istep _ -> true
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
      ("sanitized tape", fun () -> tp.tp_sanitize);
      ("float compare", float_compare);
      ("varying control", varying_control);
      ("varying stream offset", fun () -> not !stream_ok);
      ("register carried across iterations", carried);
      ("stored array not at one offset inv + c*j", shared_store);
      ("may raise", may_raise);
    ]
  in
  match List.find_opt (fun (_, fails) -> fails ()) rules with
  | Some (why, _) -> Result.Error why
  | None ->
      Result.Ok
        {
          lp_vary_i = !vi;
          lp_vary_f = !vf;
          lp_stride = IntMap.filter (fun _ c -> c <> 0) !stride;
          lp_flat_stores = List.for_all flat body_accs;
          lp_uniform =
            Array.init (Array.length tp.tp_accs) (fun id ->
                not (acc_varies id));
        }

(* ---------- lane execution ----------

   An eligible strip runs in pieces of up to [lane_width] iterations.
   Control, uniform registers and stream slots stay scalar, in the
   register files and scratch, and run once per piece; a varying
   register lives in a lane array, one slot per iteration of the piece,
   and an instruction writing one (or storing) runs as one loop over
   the piece. Every operand is a strided view [arr.(base + l * step)]:
   a lane array (step 1), a scalar register (step 0) or an array access
   whose offset at iteration [l] of the piece is its offset at the
   piece's first iteration plus [l * c * jstep] — streams are bumped
   once per piece. An access whose offset reads a varying register
   other than the strip index is gathered lane by lane. The strip index
   register holds the piece's first iteration, so offsets and stream
   initializers evaluate there. After the strip the last iteration's
   varying registers go back to the register files. *)

let lane_width = 256

type lane_acc =
  | La_fix  (** [V0]: the hoisted invariant offset *)
  | La_aff of int  (** invariant + variant part; strip coefficient *)
  | La_gather  (** reads a varying register besides the strip index *)
  | La_stream of int * int * int  (** [Vs]: slot, bump, strip coefficient *)
  | La_strip of int * int  (** [Vsj]: slot, strip coefficient *)

type lanes = {
  ln_vary : bool array;  (** per [tp_ops] position: runs across lanes *)
  ln_ilane : int array;  (** int register -> lane array base, or -1 *)
  ln_flane : int array;  (** float register -> lane array base, or -1 *)
  ln_iregs : int array;  (** varying int registers, in lane order *)
  ln_fregs : int array;  (** varying float registers, in lane order *)
  ln_acc : lane_acc array;
}

let lanes ~jslot (tp : tape) =
  match lane_plan ~jslot ~lits:(const_regs ~jslot tp) tp with
  | Result.Error why -> Result.Error why
  | Result.Ok lp ->
      let iregs = Array.of_list (IntSet.elements lp.lp_vary_i) in
      let fregs = Array.of_list (IntSet.elements lp.lp_vary_f) in
      let map regs =
        let m = Array.make (Array.fold_left max (-1) regs + 1) (-1) in
        Array.iteri (fun k r -> m.(r) <- k * lane_width) regs;
        m
      in
      let varies i =
        match i with
        | Fstore _ | Fldst _ -> true
        | _ ->
            Option.fold ~none:false
              ~some:(fun d -> IntSet.mem d lp.lp_vary_i)
              (int_dst i)
            || Option.fold ~none:false
                 ~some:(fun d -> IntSet.mem d lp.lp_vary_f)
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
        | Vs (s, b) ->
            let c = Option.value ~default:0 (IntMap.find_opt s lp.lp_stride) in
            La_stream (s, b, c)
        | Vsj (s, c) -> La_strip (s, c)
        | Vsv _ ->
            (* only in an access no instruction reads: [lane_plan]
               rejects the variable-step loops these stream *)
            La_gather
      in
      Result.Ok
        {
          ln_vary = Array.map varies tp.tp_ops;
          ln_ilane = map iregs;
          ln_flane = map fregs;
          ln_iregs = iregs;
          ln_fregs = fregs;
          ln_acc = Array.map lacc tp.tp_accs;
        }

(* A strided view [arr.(base + l * step)]. *)
type 'a view = {
  mutable arr : 'a array;
  mutable base : int;
  mutable step : int;
}

(* Lane kernels: [n] iterations over views; element [l] of every
   operand is read before element [l] of the destination is written, so
   a destination may alias an operand. No kernel allocates. *)

let k_fcopy n (d : float view) (a : float view) =
  let da = d.arr and db = d.base and ds = d.step in
  let aa = a.arr and ab = a.base and as_ = a.step in
  for l = 0 to n - 1 do
    Array.unsafe_set da (db + (l * ds)) (Array.unsafe_get aa (ab + (l * as_)))
  done

let k_ffill n (d : float view) x =
  let da = d.arr and db = d.base and ds = d.step in
  for l = 0 to n - 1 do
    Array.unsafe_set da (db + (l * ds)) x
  done

let k_fneg n (d : float view) (a : float view) =
  let da = d.arr and db = d.base and ds = d.step in
  let aa = a.arr and ab = a.base and as_ = a.step in
  for l = 0 to n - 1 do
    Array.unsafe_set da (db + (l * ds)) (-.Array.unsafe_get aa (ab + (l * as_)))
  done

let k_fofi n (d : float view) (a : int view) =
  let da = d.arr and db = d.base and ds = d.step in
  let aa = a.arr and ab = a.base and as_ = a.step in
  for l = 0 to n - 1 do
    Array.unsafe_set da (db + (l * ds))
      (float_of_int (Array.unsafe_get aa (ab + (l * as_))))
  done

type fop = Kadd | Ksub | Kmul | Kdiv | Kmin | Kmax

let k_fbin op n (d : float view) (a : float view) (b : float view) =
  let da = d.arr and db = d.base and ds = d.step in
  let aa = a.arr and ab = a.base and as_ = a.step in
  let ba = b.arr and bb = b.base and bs = b.step in
  match op with
  | Kadd ->
      for l = 0 to n - 1 do
        Array.unsafe_set da (db + (l * ds))
          (Array.unsafe_get aa (ab + (l * as_))
          +. Array.unsafe_get ba (bb + (l * bs)))
      done
  | Ksub ->
      for l = 0 to n - 1 do
        Array.unsafe_set da (db + (l * ds))
          (Array.unsafe_get aa (ab + (l * as_))
          -. Array.unsafe_get ba (bb + (l * bs)))
      done
  | Kmul ->
      for l = 0 to n - 1 do
        Array.unsafe_set da (db + (l * ds))
          (Array.unsafe_get aa (ab + (l * as_))
          *. Array.unsafe_get ba (bb + (l * bs)))
      done
  | Kdiv ->
      for l = 0 to n - 1 do
        Array.unsafe_set da (db + (l * ds))
          (Array.unsafe_get aa (ab + (l * as_))
          /. Array.unsafe_get ba (bb + (l * bs)))
      done
  | Kmin ->
      for l = 0 to n - 1 do
        let x = Array.unsafe_get aa (ab + (l * as_))
        and y = Array.unsafe_get ba (bb + (l * bs)) in
        Array.unsafe_set da (db + (l * ds)) (if x <= y then x else y)
      done
  | Kmax ->
      for l = 0 to n - 1 do
        let x = Array.unsafe_get aa (ab + (l * as_))
        and y = Array.unsafe_get ba (bb + (l * bs)) in
        Array.unsafe_set da (db + (l * ds)) (if x >= y then x else y)
      done

(* d <- a +. x *. y, or a -. x *. y *)
let k_fmac ~add n (d : float view) (a : float view) (x : float view)
    (y : float view) =
  let da = d.arr and db = d.base and ds = d.step in
  let aa = a.arr and ab = a.base and as_ = a.step in
  let xa = x.arr and xb = x.base and xs = x.step in
  let ya = y.arr and yb = y.base and ys = y.step in
  if add then
    for l = 0 to n - 1 do
      Array.unsafe_set da (db + (l * ds))
        (Array.unsafe_get aa (ab + (l * as_))
        +. (Array.unsafe_get xa (xb + (l * xs))
           *. Array.unsafe_get ya (yb + (l * ys))))
    done
  else
    for l = 0 to n - 1 do
      Array.unsafe_set da (db + (l * ds))
        (Array.unsafe_get aa (ab + (l * as_))
        -. (Array.unsafe_get xa (xb + (l * xs))
           *. Array.unsafe_get ya (yb + (l * ys))))
    done

(* divisors are valid literals ([lane_plan]) *)
let k_ibin (i : instr) n (d : int view) (a : int view) (b : int view) =
  let da = d.arr and db = d.base and ds = d.step in
  let aa = a.arr and ab = a.base and as_ = a.step in
  let ba = b.arr and bb = b.base and bs = b.step in
  for l = 0 to n - 1 do
    let x = Array.unsafe_get aa (ab + (l * as_))
    and y = Array.unsafe_get ba (bb + (l * bs)) in
    Array.unsafe_set da (db + (l * ds))
      (match i with
      | Imul _ -> x * y
      | Idiv _ -> x / y
      | Imod _ -> x mod y
      | Icdiv _ -> Loopcoal_util.Intmath.cdiv x y
      | Imin _ -> if x <= y then x else y
      | _ -> if x >= y then x else y)
  done

(* One domain's lane arrays: they hold no register file or array, so a
   fork state keeps them across runs. *)
type lane_state = {
  ls_i : int array;  (** int lane arrays *)
  ls_f : float array;  (** float lane arrays *)
  ls_off : int array;  (** gathered offsets *)
  ls_g : float array;  (** gathered loads, one lane array per operand *)
  ls_dirty : bool array;  (** varying registers written, ints then floats *)
}

let make_lane_state ln =
  let nvi = Array.length ln.ln_iregs and nvf = Array.length ln.ln_fregs in
  let gathers = Array.mem La_gather ln.ln_acc in
  {
    ls_i = Array.make (nvi * lane_width) 0;
    ls_f = Array.make (nvf * lane_width) 0.0;
    ls_off = (if gathers then Array.make lane_width 0 else [||]);
    ls_g = (if gathers then Array.make (4 * lane_width) 0.0 else [||]);
    ls_dirty = Array.make (nvi + nvf) false;
  }

(* One domain's lane runner: what its strips read, and the operand
   views — slot 0 the destination, then the operands. *)
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

let ireg lr ~lanes k r =
  let b = ibase lr ~lanes r in
  if b >= 0 then set_view lr.lr_iv.(k) lr.lr_ls.ls_i b 1
  else set_view lr.lr_iv.(k) lr.lr_ints r 0

let freg lr ~lanes k r =
  let b = fbase lr ~lanes r in
  if b >= 0 then set_view lr.lr_fv.(k) lr.lr_ls.ls_f b 1
  else set_view lr.lr_fv.(k) lr.lr_reals r 0

let idst lr ~lanes r =
  let b = ibase lr ~lanes r in
  if b >= 0 then begin
    Array.unsafe_set lr.lr_ls.ls_dirty (b / lane_width) true;
    set_view lr.lr_iv.(0) lr.lr_ls.ls_i b 1
  end
  else set_view lr.lr_iv.(0) lr.lr_ints r 0

let fdst lr ~lanes r =
  let b = fbase lr ~lanes r in
  if b >= 0 then begin
    Array.unsafe_set lr.lr_ls.ls_dirty
      (Array.length lr.lr_ln.ln_iregs + (b / lane_width))
      true;
    set_view lr.lr_fv.(0) lr.lr_ls.ls_f b 1
  end
  else set_view lr.lr_fv.(0) lr.lr_reals r 0

(* View [k] over access [id] for a use by [n] iterations. *)
let fmem lr k n id =
  let ac = Array.unsafe_get lr.lr_tape.tp_accs id in
  let a = Array.unsafe_get lr.lr_arrays ac.ac_slot in
  let inv = lr.lr_inv and js = lr.lr_jstep in
  let v = lr.lr_fv.(k) in
  match Array.unsafe_get lr.lr_ln.ln_acc id with
  | La_fix -> set_view v a (Array.unsafe_get inv id) 0
  | La_aff c ->
      let o = Array.unsafe_get inv id + aff_eval lr.lr_ints ac.ac_var in
      set_view v a o (c * js)
  | La_stream (s, b, c) ->
      let o = Array.unsafe_get inv s in
      Array.unsafe_set inv s (o + b);
      set_view v a o (c * js)
  | La_strip (s, c) ->
      let o = Array.unsafe_get inv s in
      Array.unsafe_set inv s (o + (n * c * js));
      set_view v a o (c * js)
  | La_gather ->
      let off = lr.lr_ls.ls_off and li = lr.lr_ls.ls_i and var = ac.ac_var in
      Array.fill off 0 n (Array.unsafe_get inv id);
      for m = 0 to Array.length var.regs - 1 do
        let c = var.coefs.(m) and r = var.regs.(m) in
        let b = ibase lr ~lanes:true r in
        if b >= 0 then
          for l = 0 to n - 1 do
            Array.unsafe_set off l
              (Array.unsafe_get off l + (c * Array.unsafe_get li (b + l)))
          done
        else
          let x = c * Array.unsafe_get lr.lr_ints r in
          for l = 0 to n - 1 do
            Array.unsafe_set off l (Array.unsafe_get off l + x)
          done
      done;
      let g = lr.lr_ls.ls_g and gb = k * lane_width in
      for l = 0 to n - 1 do
        Array.unsafe_set g (gb + l)
          (Array.unsafe_get a (Array.unsafe_get off l))
      done;
      set_view v g gb 1

(* dst <- base + sum coef * reg: the terms over scalar registers sum
   once *)
let lane_aff lr ~lanes n d (a : aff) =
  let ints = lr.lr_ints and li = lr.lr_ls.ls_i in
  let k = ref a.base and nlane = ref 0 and lc = ref 0 and lb = ref 0 in
  for m = 0 to Array.length a.regs - 1 do
    let r = a.regs.(m) and c = a.coefs.(m) in
    let b = ibase lr ~lanes r in
    if b >= 0 then begin
      incr nlane;
      lc := c;
      lb := b
    end
    else k := !k + (c * Array.unsafe_get ints r)
  done;
  idst lr ~lanes d;
  let v = lr.lr_iv.(0) in
  let da = v.arr and db = v.base and ds = v.step in
  let k = !k and c = !lc and b = !lb in
  if !nlane = 0 then
    for l = 0 to n - 1 do
      Array.unsafe_set da (db + (l * ds)) k
    done
  else if !nlane = 1 then
    for l = 0 to n - 1 do
      Array.unsafe_set da (db + (l * ds))
        (k + (c * Array.unsafe_get li (b + l)))
    done
  else
    for l = 0 to n - 1 do
      let x = ref k in
      for m = 0 to Array.length a.regs - 1 do
        let b = ibase lr ~lanes a.regs.(m) in
        if b >= 0 then x := !x + (a.coefs.(m) * Array.unsafe_get li (b + l))
      done;
      Array.unsafe_set da (db + (l * ds)) !x
    done

(* One straight-line instruction over [n] iterations. *)
let lane_step lr ~lanes n (i : instr) =
  let fv = lr.lr_fv and iv = lr.lr_iv in
  match i with
  | Iconst (d, x) ->
      idst lr ~lanes d;
      let v = iv.(0) in
      for l = 0 to n - 1 do
        Array.unsafe_set v.arr (v.base + (l * v.step)) x
      done
  | Iaff (d, a) -> lane_aff lr ~lanes n d a
  | Imul (d, a, b)
  | Idiv (d, a, b)
  | Imod (d, a, b)
  | Icdiv (d, a, b)
  | Imin (d, a, b)
  | Imax (d, a, b) ->
      ireg lr ~lanes 1 a;
      ireg lr ~lanes 2 b;
      idst lr ~lanes d;
      k_ibin i n iv.(0) iv.(1) iv.(2)
  | Fconst (d, x) ->
      fdst lr ~lanes d;
      k_ffill n fv.(0) x
  | Fmov (d, s) ->
      freg lr ~lanes 1 s;
      fdst lr ~lanes d;
      k_fcopy n fv.(0) fv.(1)
  | Fneg (d, s) ->
      freg lr ~lanes 1 s;
      fdst lr ~lanes d;
      k_fneg n fv.(0) fv.(1)
  | Fofi (d, s) ->
      ireg lr ~lanes 1 s;
      fdst lr ~lanes d;
      k_fofi n fv.(0) iv.(1)
  | Fadd (d, a, b)
  | Fsub (d, a, b)
  | Fmul (d, a, b)
  | Fdiv (d, a, b)
  | Fmin (d, a, b)
  | Fmax (d, a, b) ->
      let op =
        match i with
        | Fadd _ -> Kadd
        | Fsub _ -> Ksub
        | Fmul _ -> Kmul
        | Fdiv _ -> Kdiv
        | Fmin _ -> Kmin
        | _ -> Kmax
      in
      freg lr ~lanes 1 a;
      freg lr ~lanes 2 b;
      fdst lr ~lanes d;
      k_fbin op n fv.(0) fv.(1) fv.(2)
  | Fmac (d, a, x, y) | Fmsb (d, a, x, y) ->
      freg lr ~lanes 1 a;
      freg lr ~lanes 2 x;
      freg lr ~lanes 3 y;
      fdst lr ~lanes d;
      k_fmac
        ~add:(match i with Fmac _ -> true | _ -> false)
        n fv.(0) fv.(1) fv.(2) fv.(3)
  | Fload (d, id) ->
      fmem lr 1 n id;
      fdst lr ~lanes d;
      k_fcopy n fv.(0) fv.(1)
  | Fstore (s, id) ->
      freg lr ~lanes 1 s;
      fmem lr 0 n id;
      k_fcopy n fv.(0) fv.(1)
  | Fmac2 (d, a, i1, i2) | Fmsb2 (d, a, i1, i2) ->
      freg lr ~lanes 1 a;
      fmem lr 2 n i1;
      fmem lr 3 n i2;
      fdst lr ~lanes d;
      k_fmac
        ~add:(match i with Fmac2 _ -> true | _ -> false)
        n fv.(0) fv.(1) fv.(2) fv.(3)
  | Fldmac (d, a, x, id) | Fldmsb (d, a, x, id) ->
      freg lr ~lanes 1 a;
      freg lr ~lanes 2 x;
      fmem lr 3 n id;
      fdst lr ~lanes d;
      k_fmac
        ~add:(match i with Fldmac _ -> true | _ -> false)
        n fv.(0) fv.(1) fv.(2) fv.(3)
  | Fldadd (d, x, id) | Fldsub (d, x, id) | Fldmul (d, x, id) ->
      freg lr ~lanes 1 x;
      fmem lr 2 n id;
      fdst lr ~lanes d;
      let op = match i with Fldadd _ -> Kadd | Fldsub _ -> Ksub | _ -> Kmul in
      k_fbin op n fv.(0) fv.(1) fv.(2)
  | Fld2add (d, i1, i2) ->
      fmem lr 1 n i1;
      fmem lr 2 n i2;
      fdst lr ~lanes d;
      k_fbin Kadd n fv.(0) fv.(1) fv.(2)
  | Fldst (i1, i2) ->
      fmem lr 1 n i1;
      fmem lr 0 n i2;
      k_fcopy n fv.(0) fv.(1)
  | Sinit (s, a) -> Array.unsafe_set lr.lr_inv s (aff_eval lr.lr_ints a)
  | Istep _ | Icount _ | Jmp _ | Jii _ | Jff _ | Jffn _ | Iloop _
  | Iloopc _ ->
      assert false

let lane_strip lr ~jslot j0 jstep len =
  let tape = lr.lr_tape and ln = lr.lr_ln and ints = lr.lr_ints in
  let li = lr.lr_ls.ls_i and dirty = lr.lr_ls.ls_dirty in
  let accs = tape.tp_accs and pre = tape.tp_pre in
  let ops = tape.tp_ops and vary = ln.ln_vary in
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
  Array.fill dirty 0 (Array.length dirty) false;
  let p = ref 0 and n = ref 0 in
  while !p < len do
    n := if len - !p < lane_width then len - !p else lane_width;
    let j = j0 + (!p * jstep) in
    Array.unsafe_set ints jslot j;
    for l = 0 to !n - 1 do
      Array.unsafe_set li (jb + l) (j + (l * jstep))
    done;
    let pc = ref 0 in
    while !pc < stop do
      match Array.unsafe_get ops !pc with
      | Jmp t -> pc := t
      | Jii (op, a, b, t) ->
          if icmp op (Array.unsafe_get ints a) (Array.unsafe_get ints b) then
            pc := t
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
          let n = if Array.unsafe_get vary !pc then !n else 1 in
          lane_step lr ~lanes:true n i;
          incr pc
    done;
    p := !p + !n
  done;
  (* the last iteration's varying registers, the strip index included *)
  if len > 0 then begin
    let last = !n - 1 and nvi = Array.length ln.ln_iregs in
    Array.unsafe_set dirty (jb / lane_width) true;
    for k = 0 to nvi - 1 do
      if dirty.(k) then ints.(ln.ln_iregs.(k)) <- li.((k * lane_width) + last)
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
      lr_fv = Array.init 4 (fun _ -> { arr = reals; base = 0; step = 0 });
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
  | Sinit (s, a) -> f "s%d <- %s" s (pp_aff a)
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
  | Sinit _ -> "sinit"
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

let pp_vkind = function
  | V0 -> "inv"
  | V1 (c, r) -> Printf.sprintf "inv + %d*i%d" c r
  | V2 (c1, r1, c2, r2) -> Printf.sprintf "inv + %d*i%d + %d*i%d" c1 r1 c2 r2
  | Vn -> "inv + var"
  | Vs (s, b) -> Printf.sprintf "stream s%d bump %d" s b
  | Vsj (s, c) -> Printf.sprintf "stream s%d bump %d*jstep" s c
  | Vsv (s, bs) -> Printf.sprintf "stream s%d bump s%d" s bs

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
    (Printf.sprintf "streams=%d sanitize=%b\n" t.tp_nstreams t.tp_sanitize);
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
