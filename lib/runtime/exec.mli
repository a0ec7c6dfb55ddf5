(** Parallel executor: runs compiled programs on OCaml 5 domains under
    the paper's scheduling policies.

    Each compiled parallel plan (a flattened DOALL nest) is one coalesced
    iteration space executed with a single fork-join. Static block/cyclic
    ownership comes from [Static]; self-scheduling performs one atomic
    fetch-and-add on the shared coalesced index per dispatch; GSS,
    factoring and trapezoid serve their [chunk_sizes] sequences from an
    atomic chunk queue. A chunk runs as strips over the innermost
    coalesced digit: the outer indexes are recovered once per strip by
    div/mod, the inner one advances by a constant increment.

    Arrays are shared between domains (DOALL iterations write disjoint
    elements by assumption of the [Parallel] annotation); scalars are
    per-domain private. After the join, recognized reductions are merged
    in iteration order (per domain under static block, per chunk under
    the other policies) and remaining scalars are adopted from the
    domain that executed the highest coalesced iteration. *)

open Loopcoal_ir

type outcome = {
  arrays : (string * float array) list;  (** sorted by name *)
  scalars : (string * Eval.value) list;  (** sorted by name *)
}

type engine = Closure | Bytecode | Native
(** How plan bodies execute within chunks. [Bytecode] (the default)
    dispatches each chunk as contiguous strips over the innermost
    coalesced digit on the plan's lowered tape ({!Bytecode.tape}):
    invariant address parts hoisted per strip, accesses proven in-range
    for the whole fork run unchecked. A fork whose body has a lane
    program ({!Bytecode.lanes}), whose accesses all proved in range and
    that runs unprofiled takes the lane path — one dispatch per
    instruction per {!Bytecode.lane_width} iterations — counted under
    [exec.lane_forks]. [Native] runs the same strips
    through {!Natgen}'s Dynlink-loaded machine-code runners; forks whose
    accesses are not all proven in bounds, plans without runners (no
    toolchain, sanitized) and profiled runs fall back to the bytecode
    tier per fork, counted under [native.fallbacks]. Chunk boundaries,
    schedules, traces and results are identical across engines.
    Top-level code runs on its own tape, every access checked, on every
    engine. [Closure] is a synonym for [Bytecode], kept for existing
    callers: every statement runs on a tape, so there is no closure
    engine. *)

val run_compiled :
  ?array_init:float ->
  ?unfilled:float ->
  ?pool:Pool.t ->
  ?policy:Loopcoal_sched.Policy.t ->
  ?domains:int ->
  ?engine:engine ->
  ?trace:Loopcoal_obs.Trace.collector ->
  ?profile:Profile.collector ->
  ?shadow:Sanitize.t ->
  Compile.t ->
  outcome
(** Execute a compiled program. With [domains = 1] (default) and no
    [pool], every plan runs sequentially. With [domains = p > 1], a
    fresh pool of [p] domains is created at the run's first fork that
    splits (none for a run whose forks all run on the caller) and shut
    down when the run ends; passing [pool] instead reuses an existing
    pool (its size wins over [domains]). A fork whose schedule is one
    chunk — GSS, factoring or TSS over at most the plan's minimum chunk,
    self-scheduling over at most its chunk — runs on the caller as a
    sequential fork does, counted under [exec.inline_forks.one_chunk]
    and once in [pool.forks].
    [policy] (default [Static_block]) selects the dispatcher for
    parallel plans. Raises [Compile.Error] on runtime faults.

    [trace] turns on dispatch tracing: every top-level parallel region
    opens a fork-join epoch in the collector and every executed chunk is
    recorded with monotonic timestamps from its executing domain. The
    collector must have at least as many worker slots as the pool has
    domains. With no [trace] (the default) the untraced code paths run —
    tracing has strictly zero cost when off. Regions that fall back to
    sequential execution (one domain, a single-iteration space, or a
    schedule of one chunk) are recorded as a one-chunk [Static_block]
    region at [p = 1], since that is the dispatch that actually
    happened.

    [profile] turns on tape profiling: each worker runs the collector's
    counting copy of the plan's tape (block counters at every basic-block
    leader, see {!Profile}) through the same strip runner and tape
    interpreter, and brackets each chunk with two clock reads; summarize
    with {!Profile.summarize}. Results, traces and schedules are
    identical with and without it, and — like [trace] — the choice is
    made once per fork binding, so an unprofiled run executes the plain
    tape with no counting. Every plan's forks are profiled on its tape;
    profiled [Native] forks run on the bytecode tier.

    Arrays start at [array_init] (default 0.0), except for the
    elements each array's first mention overwrites before any read,
    which {!Compile.make_env} leaves unfilled; [unfilled], a test hook,
    fills those with its value instead. The allocation is timed under
    [exec.alloc_ns] and the elements left unfilled are counted under
    [exec.fill_elided].

    [shadow] attaches race-sanitizer shadow state to the run; it only
    has an effect on programs compiled with [Compile.compile
    ~sanitize:true]. Prefer {!run_sanitized}, which wires both ends. *)

val run :
  ?array_init:float ->
  ?pool:Pool.t ->
  ?policy:Loopcoal_sched.Policy.t ->
  ?domains:int ->
  ?engine:engine ->
  ?trace:Loopcoal_obs.Trace.collector ->
  ?profile:Profile.collector ->
  ?opt_level:int ->
  Ast.program ->
  outcome
(** [compile] + [run_compiled]. [opt_level] is forwarded to
    {!Compile.compile} (default 2). *)

val run_sanitized :
  ?array_init:float ->
  ?pool:Pool.t ->
  ?policy:Loopcoal_sched.Policy.t ->
  ?domains:int ->
  ?engine:engine ->
  ?limit:int ->
  ?opt_level:int ->
  Ast.program ->
  outcome * Sanitize.t
(** Compile with [~sanitize:true], run with fresh shadow state, and
    return it alongside the outcome; inspect with {!Sanitize.results} or
    {!Sanitize.summary_to_string}. On a race-free program the sanitizer
    reports nothing, on any policy and domain count; on a racy one
    reports are schedule-dependent, except under 1 domain where every
    same-element cross-iteration conflict is flagged deterministically.
    [limit] caps retained reports (default 1024; the total is always
    counted). *)

val agrees_with_interpreter :
  ?compare_scalars:bool -> outcome -> Eval.state -> bool
(** Differential check against the reference interpreter: arrays must be
    identical bit for bit, element by element (a NaN agrees with a NaN
    of the same payload, [-0.0] disagrees with [0.0]).
    [compare_scalars] (default false) also requires scalar agreement,
    real scalars bit for bit — meaningful for sequential runs and for
    programs whose parallel-loop scalars are recognized reductions. *)
