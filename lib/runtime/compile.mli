(** Staging compiler: AST -> slot-resolved executable code.

    Compilation resolves every name once — scalars and loop indexes to
    slots in flat arrays, array references to pre-computed row-major
    strides — and infers int/real kinds statically. Parallel loops
    (outside an enclosing parallel region) compile to {!plan}s:
    flattened, coalesced iteration spaces whose body is lowered to one
    bytecode tape ({!Bytecode.lower}), dispatched through the
    environment's [fork] hook, which the executor binds to sequential or
    multi-domain execution. The serial code around the plans compiles to
    a closure tree that runs with no hash lookups, no list folds and no
    value boxing.

    The interpreter's runtime error conditions (bounds, zero division,
    non-positive steps, int/real mismatches) are preserved as
    {!exception:Error}; its operation counters and fuel are not. *)

open Loopcoal_ir

exception Error of string
(** Raised both at staging time (unbound names, static type errors,
    assignment to a loop index, bad declarations) and at run time
    (bounds violations, division by zero, non-positive steps). *)

type env = {
  ints : int array;
  reals : float array;
  arrays : float array array;
  fork : plan -> env -> unit;
  shadow : Sanitize.t option;
      (** race-sanitizer shadow state, shared across clones; consulted
          only by tapes lowered with [~sanitize:true] *)
}

and plan = {
  depth : int;
  index_slots : int array;
  index_names : string array;
  lo_x : (env -> int) array;
  hi_x : (env -> int) array;
  step_x : env -> int;
  reductions : red array;
  tape : Bytecode.tape;
      (** the body lowered to the bytecode tier ({!Bytecode.lower}) and
          optimized ({!Tapeopt}): the one executable form of the body,
          run by the bytecode engine and compiled further by {!Natgen} *)
  mutable native : Natapi.runner option;
      (** the tape compiled to machine code by {!Natgen} and loaded via
          [Dynlink], or [None] before {!Natgen.prepare} ran (or when it
          declined the plan) — the native engine then falls back to the
          bytecode runner for this plan *)
  mutable fork_state : fork_state option;
      (** the executor's state for forks of this plan: [None] until the
          plan first forks, then kept across forks and runs *)
}

and space = {
  sizes : int array;  (** per-level trip counts *)
  los : int array;  (** per-level lower bounds *)
  his : int array;  (** per-level upper bounds (inclusive) *)
  mutable step0 : int;  (** outermost step *)
  mutable total : int;  (** coalesced trip count, the product of [sizes] *)
}
(** One fork's coalesced iteration space. *)

and fork_state = {
  fs_busy : bool Atomic.t;  (** held by the fork that uses the state *)
  fs_space : space;  (** the running fork's space, refilled in place *)
  fs_inputs : int array;
      (** the int slots the range proof reads ({!Bytecode.proof_inputs}) *)
  fs_key : int array;
      (** the inputs' values, then each level's lo, then its attained
          hi, of the proof on record *)
  fs_hi : int array;  (** scratch: attained hi per level *)
  mutable fs_prep : Bytecode.prep option;  (** the proof on record *)
  mutable fs_all_unsafe : bool;  (** every access of [fs_prep] unchecked *)
  mutable fs_mode : fork_mode option;
      (** the running fork's engine decision; [None] before the first *)
  mutable fs_seq_key : Loopcoal_sched.Policy.t * int * int;
      (** policy, n and p of [fs_seq] *)
  mutable fs_seq : (int * int) array;
      (** a dynamic policy's chunk sequence, memoised *)
  fs_next : int Atomic.t;  (** shared dispatch index of dynamic policies *)
  fs_saved_ints : int array;  (** master's pre-fork reduction values *)
  fs_saved_reals : float array;
  fs_part_ints : int array;  (** reduction partials across a restart *)
  fs_part_reals : float array;
  mutable fs_bound : binding option;
      (** clones and closures of the current run; dropped when the run
          ends *)
  mutable fs_solo : solo option;
      (** the current run's sequential runner; dropped when the run
          ends *)
  fs_lanes : (Bytecode.lanes, string) result;
      (** the body's lane program ({!Bytecode.lanes}), or the first lane
          rule it fails *)
  mutable fs_lane_states : Bytecode.lane_state array;
      (** lane arrays per domain, kept across runs *)
}
(** What one fork of a plan leaves for the next, so a fork
    refreshes only what changed ({!Exec} owns every field). A fork
    claims it by setting [fs_busy]; a fork that finds it held — the same
    compiled program running on another domain — builds a private one. *)

and fork_mode =
  | Fork_tape of Bytecode.prep  (** tape strips under this proof *)
  | Fork_lanes of Bytecode.prep
      (** tape strips on the lane path (every access unchecked under
          this proof) *)
  | Fork_native of Natapi.runner  (** machine-code strips *)

and solo = {
  so_env : env;
  so_profile : Profile.collector option;
  so_run : fork_mode -> int -> int -> unit;
      (** the chunk runner bound to [so_env] *)
}
(** The chunk runner of sequential forks, bound to the master
    environment itself: built on a run's first sequential fork of the
    plan, shared by the run's later ones. *)

and binding = {
  b_master : env;
  b_p : int;  (** domains *)
  b_policy : Loopcoal_sched.Policy.t;
  b_trace : Loopcoal_obs.Trace.collector option;
  b_profile : Profile.collector option;
  b_clones : env array;  (** one private scalar store per domain *)
  b_marks : int array;  (** highest iteration per domain, padded apart *)
  b_worker : int -> unit;  (** the pool job: domain [q]'s dispatch loop *)
}
(** Per-domain clones of one master environment and the closures bound
    to them: built on a run's first fork of the plan, shared by the
    run's later forks. *)

and red = {
  r_name : string;
  r_slot : int;
  r_real : bool;
  r_op : Loopcoal_analysis.Reduction.op;
}

type t

val compile :
  ?sanitize:bool ->
  ?opt_level:int ->
  ?cache:Plancache.t ->
  ?cache_salt:string ->
  ?tape_dump:(plan:int -> pass:string -> Bytecode.tape -> unit) ->
  ?validate:(plan:int -> pass:string -> Loopcoal_verify.Diag.t list -> unit) ->
  Ast.program ->
  t
(** Stage a program. Raises {!exception:Error} on programs the
    interpreter would also reject, and on statically detectable type
    errors the interpreter would only hit when the offending statement
    executes — in a plan body, the ones {!Bytecode.lower} reports. With
    [~sanitize:true] (default false), every array access in a plan body
    additionally drives the {!Sanitize} shadow cells through the
    environment's [shadow] field.

    [opt_level] (default 2) selects the {!Tapeopt} pipeline applied to
    each lowered tape: 0 = raw lowering output, 2 = the full SSA
    pipeline (dominator-tree GVN, cross-block LICM, streaming, fusion).
    Each tape keeps one single-iteration body either way. Sanitized
    tapes are never optimized regardless of level.

    With [cache], lowered+optimized tapes are reused across compiles of
    the same program (keyed over the AST, [sanitize], [opt_level] and
    [cache_salt]); one {!Loopcoal_obs.Counters} hit or miss is recorded
    per call. A hit replays the stored register-counter deltas, so the
    resulting plans are identical to a cold compile.

    [tape_dump], when given, observes each plan's tape after every
    optimizer stage ({!Tapeopt.pass_names}); [plan] counts plans in
    compilation order. Cache hits skip lowering and report nothing —
    pass [?cache:None] to observe a full pipeline.

    [validate], when given, runs {!Tapecheck.check} on each plan's tape
    after every optimizer stage (with the "lower" output as the
    footprint baseline for later stages) and hands the hook that
    stage's findings — empty on a clean tape — so failures name the
    guilty pass. Like [tape_dump], it observes nothing on a cache hit;
    independently of this hook, tapes served from the cache's disk
    layer are always structurally validated ({!Tapecheck.check_entry})
    and rejected entries recompile as misses under the
    [plan_cache.reject] counter. *)

val compile_result :
  ?sanitize:bool ->
  ?opt_level:int ->
  ?cache:Plancache.t ->
  ?cache_salt:string ->
  ?tape_dump:(plan:int -> pass:string -> Bytecode.tape -> unit) ->
  ?validate:(plan:int -> pass:string -> Loopcoal_verify.Diag.t list -> unit) ->
  Ast.program ->
  (t, string) result

val shadow_layout : t -> (string * int) array
(** Per-slot array names and flat sizes, in slot order — the layout
    {!Sanitize.create} expects. *)

val plans : t -> plan list
(** Every compiled parallel plan, in compilation order — for engine
    introspection (how many bodies lowered to the bytecode tier). *)

val native_state : t -> [ `Untried | `Ready | `Unavailable of string ]
(** Whether {!Natgen.prepare} has attached native runners to this
    program's plans: [`Untried] until it ran, [`Ready] once at least one
    plan carries a runner, [`Unavailable reason] when codegen was
    declined (no toolchain, bytecode host, sanitized tapes, ...). *)

val set_native_state : t -> [ `Untried | `Ready | `Unavailable of string ] -> unit
(** For {!Natgen}'s use: record the outcome of a prepare attempt so the
    executor neither retries a known-unavailable toolchain per fork nor
    re-runs codegen for an already-attached program. *)

val make_env :
  ?array_init:float -> ?shadow:Sanitize.t -> t -> fork:(plan -> env -> unit) -> env
(** Fresh initial store: arrays filled with [array_init] (default 0.0),
    scalars at their declared initial values. *)

val clone_env : env -> env
(** Private copies of the scalar stores; the array data stays shared. *)

val run_code : t -> env -> unit

val read_arrays : t -> env -> (string * float array) list
(** Final array contents, sorted by name (same order as [Eval.dump]). *)

val read_scalars : t -> env -> (string * Eval.value) list
