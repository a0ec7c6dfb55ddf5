(** Bytecode execution tier: plan bodies lowered to a flat register
    tape, strip-mined over the innermost coalesced digit.

    {!lower} turns a coalesced plan body into a linear array of
    register-machine instructions — int and float register files, array
    operations carrying precomputed row-major strides — executed by a
    tight dispatch loop with no closures on the hot path. Three
    optimizations make it fast:

    - {b strip mining}: the executor decomposes each schedule chunk into
      maximal runs over the innermost coalesced digit and executes each
      run as one strip: the inner index advances by a constant
      increment, with no odometer carry and no div/mod, and the
      sanitizer iteration id is one base plus the in-strip offset. The
      scalar runner keeps one body per tape and runs the whole strip in
      one dispatch loop whose back-edge is the strip advance; eligible
      strips run lane-at-a-time instead (see {!lane_plan});
    - {b invariant hoisting}: every access's flat offset is split into a
      strip-invariant affine part (outer indexes, unmodified scalars),
      evaluated once per strip into a scratch register, and a variant
      part evaluated per execution;
    - {b checked-then-unsafe access}: {!prepare} evaluates each
      subscript's symbolic range over the fork's whole iteration space;
      accesses whose range provably fits the array extents use
      [Array.unsafe_get]/[unsafe_set] inside strips, all others fall
      back to the per-execution checked path with interpreter-identical
      error messages. Tapes lowered with [~sanitize:true] never take the
      unsafe path: every access runs checked and drives the
      {!Sanitize} shadow cells with its iteration id.

    Lowering is total: every plan body runs on a tape (or on native code
    generated from it), and a body the tape rejects is a static error. *)

open Loopcoal_ir

exception Error of string
(** Static errors from {!lower} (unbound names, int/real mismatches,
    assignment to a loop index) and runtime faults on the tape (bounds,
    zero division, non-positive steps), with messages identical to
    [Compile.Error]'s. The compiler and the executor re-raise them as
    [Compile.Error]. *)

(** How the host compiler resolves a free name: an int or float register
    (= scalar slot) in the shared environment, or the int register of an
    enclosing loop's index, which the body may read but not assign. *)
type binding = Bint of int | Breal of int | Bindex of int

type array_ref = {
  ba_slot : int;
  ba_name : string;
  ba_dims : int array;
  ba_strides : int array;  (** row-major suffix products *)
}

(** {1 Tape representation}

    The representation is public so the tape optimizer ({!Tapeopt}) can
    rewrite instruction arrays and access kinds in place. Everything
    outside [lib/runtime] should treat a [tape] as opaque and use the
    executor entry points below. *)

type aff = { base : int; coefs : int array; regs : int array }
(** Affine int form: value = [base + sum coefs.(i) * ints.(regs.(i))].
    Built canonically ([regs] ascending, [coefs] non-zero) by lowering;
    the evaluator does not rely on the ordering. *)

val aff_const : int -> aff
val aff_reg : int -> aff
val aff_make : int -> (int * int) list -> aff
(** [aff_make base terms] with [(coef, reg)] terms, canonicalized. *)

val aff_terms : aff -> (int * int) list
val aff_add : aff -> aff -> aff
val aff_scale : int -> aff -> aff
val aff_sub : aff -> aff -> aff
val aff_eval : int array -> aff -> int

val aff_coef : aff -> int -> int
(** The coefficient of a register in a form, 0 when absent. *)

(** Symbolic per-fork range skeleton (see [prepare]). *)
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

val rng_eval :
  ints:int array -> lo:int array -> hi:int array -> rng -> (int * int) option
(** Interval hull of a symbolic range for a fork whose level-[k] plan
    index spans [lo.(k) .. hi.(k)]. [None] means unanalyzable ([Rux]
    somewhere in the skeleton, or a hull bound that overflows the int
    range); such accesses take the checked path.
    Exposed for {!Tapecheck}'s independent in-bounds audit. *)

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
      (** scratch slot += 1: a basic-block counter, inserted by
          {!Profile}'s instrumentation only *)
  | Ifork of int
      (** run plan [k] through {!exec_top}'s fork hook; only a
          top-level tape ({!lower} with [~fork]) holds it *)

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

(** Variant offset shapes on the unsafe path: the offset of an
    unchecked access is its hoisted [ac_inv] plus this part. *)
and vkind =
  | V0
  | V1 of int * int  (** coef, reg *)
  | V2 of int * int * int * int  (** coef1, reg1, coef2, reg2 *)
  | Vn

type srcloc = {
  sl_loop : string;
      (** loop path: plan indexes joined with ".", extended with
          "/index" per enclosing serial loop (e.g. ["i.j/k"]) *)
  sl_stmt : string;  (** statement label, e.g. ["C[] ="], ["for k"], ["if"] *)
}
(** Provenance tag: the source loop nest and statement an instruction
    was lowered from. Tag 0 of every tape is the plan root (strip-level
    code). The optimizer passes keep the per-instruction tag arrays in
    sync through every rewrite, so profiler reports stay attributable
    at -O2. *)

type tape = {
  tp_pre : instr array;
      (** strip prologue: float consts and optimizer-hoisted
          strip-invariant ops; executed once per strip, never contains
          array accesses *)
  tp_ops : instr array;  (** single-iteration body *)
  tp_accs : access array;
  tp_ncounters : int;
      (** scratch slots past the per-access invariant ones: {!Profile}'s
          block counters on an instrumented tape, else 0 *)
  tp_sanitize : bool;
  tp_src : int array;
      (** per-[tp_ops] provenance tag (index into [tp_tags]); same
          length as [tp_ops] *)
  tp_pre_src : int array;  (** per-[tp_pre] provenance tag *)
  tp_tags : srcloc array;  (** tag table; entry 0 is the plan root *)
}

type fork_site = {
  fk_loops : Ast.loop list;  (** the coalesced nest, outer first *)
  fk_body : Ast.block;  (** the innermost level's body *)
  fk_scope : (string * int) list;
      (** enclosing serial loops' indexes and their int registers,
          innermost first *)
  fk_lo : int array;  (** per-level lower-bound registers *)
  fk_hi : int array;  (** per-level upper-bound registers (inclusive) *)
  fk_step : int;  (** the outer level's step register *)
}
(** A parallel loop in top-level code, as {!lower} hands it to its
    [fork] hook. The top-level tape sets the bound registers before it
    forks: the outer level's lo, hi and step (checked positive), then
    each inner level's lo and hi up to the first empty level. Registers
    past that level are stale when the fork runs. *)

val lower :
  ?fork:(fork_site -> int) ->
  lookup:(string -> binding option) ->
  array_ref:(string -> array_ref option) ->
  fresh_int:(unit -> int) ->
  fresh_real:(unit -> int) ->
  plan_names:string array ->
  plan_slots:int array ->
  sanitize:bool ->
  Ast.block ->
  tape
(** Lower a block to a tape: a coalesced plan body or, with [fork],
    top-level code.

    For a plan body, [plan_names]/[plan_slots] are the flattened nest's
    indexes, outer first; the last slot is the strip index. [lookup]
    resolves free names exactly as the staging compiler scoped them.
    Reads of a scalar the body assigns get no range, except reads of an
    int scalar the body assigns exactly once, by a top-level statement
    (not under an [if] or a serial loop), from a right-hand side with a
    known range (no [/], [%] or [ceildiv] in it): a read lowered after
    that assignment takes that range.

    With [fork] (and no plan indexes), every parallel loop, at any
    depth of serial loops and [if]s, lowers to the code that sets its
    {!fork_site}'s bound registers and an [Ifork k], [k] being what
    [fork] returns for the site; serial loops promote no element to a
    register. Such a tape runs only under {!exec_top}.

    [fresh_int]/[fresh_real] allocate temporary registers from the host
    register files. Raises {!exception:Error} on a statically ill-typed
    block: the first fault in evaluation order (an expression's right
    operand before its left, a stored value before its target), with
    the interpreter's message. *)

val sanitized : tape -> bool
val n_instrs : tape -> int
val n_accesses : tape -> int

(** {1 CFG metadata}

    Basic blocks over a lowered instruction array, split at jump targets
    and after control instructions. Lowering emits forward jumps only,
    except for the [Iloop]/[Iloopc] back edges, so block order is a
    topological order of the graph with back edges removed. The last
    block is a synthetic empty exit block at position [n]; jumps to [n]
    (fall off the tape) resolve to it. Natgen, the profiler and
    {!Tapecheck} walk this graph. *)

type bblock = {
  bb_start : int;  (** first instruction index *)
  bb_stop : int;  (** one past the last instruction *)
  bb_succs : int list;  (** successor block ids, in edge order *)
  bb_preds : int list;  (** predecessor block ids *)
}

type cfg = {
  cf_blocks : bblock array;
  cf_block_of : int array;  (** instruction index (0..n incl.) -> block id *)
}

val build_cfg : instr array -> cfg
val instr_targets : instr -> int list
(** Explicit jump targets of one instruction (empty for straight-line). *)

val map_targets : (int -> int) -> instr -> instr
(** Rewrite an instruction's explicit jump targets (identity on
    straight-line instructions). *)

(** {1 Stable textual form} — used by [--dump-tape] and golden tests;
    deterministic, one line per instruction. *)

val pp_instr : instr -> string
val pp_tape : tape -> string

val instr_mnemonic : instr -> string
(** Lowercase constructor mnemonic ("fmac2", "iloopc", ...), for
    per-opcode profiler tables and folded stacks. *)

val pp_provenance : tape -> string
(** Tag table plus the per-section tag assignments. Separate from
    {!pp_tape}, whose golden format stays byte-stable. *)

type prep
(** Per-fork preparation: which accesses may run unchecked, valid for
    every chunk of that fork's iteration space. *)

val prepare : tape -> ints:int array -> lo:int array -> hi:int array -> prep
(** Decide checked-vs-unsafe per access for a fork whose level-[k] index
    ranges over [lo.(k) .. hi.(k)] (inclusive, actual attained values).
    [ints] supplies the values of fork-invariant registers referenced by
    bounds or subscripts. On a sanitized tape every flag is false.
    Allocates the flags array and the result record only: each range
    skeleton is evaluated into a per-domain two-slot scratch. *)

val unsafe_flags : prep -> bool array
(** Copy of the per-access unsafe flags, in access order. *)

val all_unsafe : prep -> bool
(** Whether every access may run unchecked (true on a tape without
    accesses): the conjunction of {!unsafe_flags}, without the copy. *)

val proof_inputs : tape -> int array
(** The int slots {!prepare} reads through [ints], ascending: the
    [Rreg] leaves of every access range. Two [prepare] calls on one tape
    return the same flags when these slots hold the same values and
    [lo]/[hi] are equal. *)

val domain_pad : int
(** Unused words at the end of each array that one domain writes on
    every strip or lane pass — its register files, its scratch, its lane
    state — so that arrays of two domains allocated back to back share
    no cache line. *)

val make_scratch : tape -> int array
(** Per-domain scratch: hoisted invariant offsets, then (on an
    instrumented tape) the block counters, then {!domain_pad} words;
    never shared. *)

val exec_strip :
  tape ->
  prep ->
  ints:int array ->
  reals:float array ->
  arrays:float array array ->
  shadow:Sanitize.t option ->
  inv:int array ->
  jslot:int ->
  j0:int ->
  jstep:int ->
  len:int ->
  iter0:int ->
  unit
(** Execute [len] consecutive iterations: the strip index register
    [jslot] takes [j0], [j0+jstep], ... and the [k]-th iteration runs
    the tape with sanitizer iteration id [iter0 + k]. One dispatch loop
    runs the whole strip: falling off the end of [tp_ops] is the strip
    back-edge (advance the index, restart at 0), so no iteration pays a
    call. On return [jslot] holds the last iteration's index. Outer
    index registers must already be set. [inv] is a {!make_scratch}
    array; invariant offset parts are (re)hoisted into it on entry. *)

val exec_top :
  tape ->
  ints:int array ->
  reals:float array ->
  arrays:float array array ->
  fork:(int -> unit) ->
  unit
(** Run a top-level tape once, every access checked, calling [fork k]
    at each [Ifork k]. *)

(** {1 Lane execution}

    An eligible strip runs up to {!lane_width} iterations per pass: one
    dispatch per instruction per pass instead of per iteration. See
    {!lane_plan} for the rules that make this equal to running the
    iterations in order. *)

module IntSet : Set.S with type elt = int
module IntMap : Map.S with type key = int

val int_dst : instr -> int option
(** The int register an instruction writes. *)

val float_dst : instr -> int option
(** The float register an instruction writes. *)

val reads : instr -> int list * int list * int list
(** What one instruction reads: int registers, float registers, and
    access ids in operand order. *)

val const_regs : jslot:int -> tape -> int IntMap.t
(** Int registers whose only writer is a prologue constant ([Iconst],
    or a term-free [Iaff]), other than the strip index: register ->
    value. *)

type lane_plan = {
  lp_vary_i : IntSet.t;  (** int registers that vary with the strip index *)
  lp_vary_f : IntSet.t;  (** float registers that vary with it *)
  lp_folds : IntSet.t;
      (** fold registers: float registers carried through one chain
          [r <- r op e], kept scalar and folded in iteration order *)
  lp_flat_stores : bool;
      (** every stored array at one flat offset [inv + c * jslot]; else
          some is only pinned to its iteration by one subscript *)
  lp_uniform : bool array;
      (** per access: every iteration of a strip reads the same element *)
  lp_written_i : IntSet.t;  (** int registers the body writes *)
  lp_starts : bool array;
      (** per position [0 .. n]: a basic block starts there (the first
          position, a jump target, the position after a jump or [n]) *)
}

val lane_plan :
  jslot:int -> lits:int IntMap.t -> tape -> (lane_plan, string) result
(** Whether running consecutive strip iterations one instruction at a
    time across all of them, in place, equals running them in order —
    the legality analysis of both the lane path and the native tier's
    unroll-and-jam. [lits] are the registers known to hold literals
    (for divisors). [Error] names the first rule that fails, in order:
    ["sanitized"] (a sanitized tape), ["float_compare"],
    ["varying_control"], ["carried"] (a register carried across
    iterations), ["stored_offset"] (a stored array not at one offset
    [inv + c * j]), ["may_raise"] (a serial-loop step check over a
    register that is not uniform, or a divisor that is not a valid
    literal; a step check over a uniform register passes, since every
    iteration raises its message at the same position or none does). A
    float register carried only
    through one chain [r <- r op e] outside serial loops (a fold
    register, in [lp_folds]) is not carried: the lane path folds it in
    iteration order. *)

val lane_width : int
(** Iterations per lane pass. *)

type lanes
(** A tape's lane program: {!lane_plan} with [lits = const_regs]. *)

val lanes :
  jslot:int ->
  scalar_reals:int ->
  scalar_ints:int ->
  tape ->
  (lanes, string) result
(** The lane program of a plan body whose first [scalar_reals] float
    and [scalar_ints] int registers are the plan's scalars, the only
    ones code after the fork reads: a body temporary (any other
    register) that a plain load
    writes is read through the load's array view when every reader
    follows the load in one straight run with no store to its array
    between, and one whose only reader is the store right after its one
    writer is written through the store's view, so neither the load nor
    the store runs a pass of its own. The strip index, and an int an
    [Iaff] computes from it, are index progressions (see
    {!lane_index}). A run of positions that hand each other body
    temporaries runs as one kernel pass (see {!lane_chains}). *)

val lane_views : lanes -> int * int * int
(** How many loads the lane program forwards, stores it fuses into
    their writer, and lane loops it has: serial loops whose body is one
    varying [Fmac2]/[Fmsb2] fold [d <- d op x * y], run as one
    {!k_fmac_trips} call per entry when the trip count is sure. Every
    other serial loop runs on the lane dispatch loop, one trip at a
    time. *)

type 'a view = { mutable arr : 'a array; mutable base : int; mutable step : int }
(** A strided operand of a lane kernel: element [l] sits [l] steps past
    [base]. *)

val k_fmac_trips :
  add:bool ->
  int ->
  int ->
  int ->
  int ->
  float view ->
  float view ->
  float view ->
  float view ->
  unit
(** [k_fmac_trips ~add trips tx ty n d a x y], the kernel of a one-fold
    lane loop: [trips] passes of [d.(l) <- a.(l) +. x.(l) *. y.(l)]
    ([-.] unless [add]) over lanes [l < n], [x] and [y] moving by [tx]
    and [ty] elements per pass. In the unit shape ([d] and [a] of step
    1, [x] and [y] of step 0 or 1), when [d] is [a] and neither [x] nor
    [y] views [d]'s array, the passes run in blocks of eight with each
    lane's accumulator held in a register for the block, which is
    bit-identical to running them in order; otherwise every pass is one
    walk of the lanes. *)

val lane_index : lanes -> int * int
(** How many index progressions the lane program leaves unfilled (the
    strip index, and [Iaff] registers over progressions, kept as a first
    value and an increment per pass because no reader needs their lane
    array), and how many [mod]-by-literal positions run on a progression
    as a running remainder. *)

val lane_chains : lanes -> int
(** How many lane chains the lane program runs: runs of consecutive
    positions, each handing the next a body temporary that nothing else
    reads, that one kernel runs in one pass — a sum of two to five
    loads, or [float] of an index progression or of its [mod] by a
    literal, then at most one [+ - * /] with a uniform register. *)

type lane_state
(** One domain's lane arrays. They reference no register file or array,
    so they can outlive the runs that use them; never shared between
    domains. *)

val make_lane_state : lanes -> lane_state

val lane_runner :
  tape ->
  lanes ->
  lane_state ->
  ints:int array ->
  reals:float array ->
  arrays:float array array ->
  inv:int array ->
  jslot:int ->
  int ->
  int ->
  int ->
  unit
(** [lane_runner tape ln ls ~ints ~reals ~arrays ~inv ~jslot] is one
    domain's strip runner [fun j0 jstep len -> ...] over lane arrays
    [ls]: {!exec_strip} on the lane path, for a fork whose proof made
    every access unchecked on a tape that is not sanitized — the same
    arrays, and the same registers after the strip. [inv] is a
    {!make_scratch} array. The runner allocates nothing. *)

val strip_bounds : inner:int -> t0:int -> len:int -> (int * int) list
(** Pure model of the executor's chunk decomposition: the maximal
    contiguous strips [(t_start, strip_len)] covering coalesced range
    [t0 .. t0+len-1] without crossing a boundary of the innermost digit
    of size [inner]. Empty when [len <= 0] or [inner <= 0]. *)

(** {1 Profiling}

    Per-position dispatch counts for one tape, as {!Profile} reports
    them. The profiler runs {!exec_strip} on a copy of the tape with an
    [Icount] at every basic-block leader; each position's count is its
    block's counter, and every prologue position runs once per strip. Per-opcode
    and per-source-loop views are derived at report time by joining the
    counts with the instruction arrays and the provenance tables. *)

type profile = {
  pf_pre : int array;  (** per-[tp_pre] position dispatch count *)
  pf_ops : int array;  (** per-[tp_ops] position dispatch count *)
  pf_strips : int;  (** strips executed *)
  pf_iters : int;  (** coalesced iterations executed *)
  pf_ns : int;  (** wall ns inside profiled chunk execution *)
}
