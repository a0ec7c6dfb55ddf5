(** Optimizer pipeline over the flat register tape.

    Runs after {!Bytecode.lower}, while the host compiler's register
    counters are still live (new registers allocated here extend the
    plan's register files before environments are sized). The passes are
    built on shared SSA scaffolding — the CFG ({!Bytecode.build_cfg}),
    iterative dominators, dominance frontiers, and minimal SSA over the
    int registers with phi placement at iterated frontiers (phis live in
    side tables only; registers are never renumbered, so lowering back
    out of SSA is the identity) — and all preserve the tape's sequential
    semantics {e exactly}: float operand order, access execution order,
    checked-path fault messages and shadow-hook order are unchanged, so
    results are bit-identical to the unoptimized tape.

    Pipeline, in pass order (see {!pass_names}); every pass runs at
    level 2:

    - {b gvn}: dominator-tree global value numbering over
      the pure int instructions — a value computed before a branch stays
      available in both arms and after the join; registers redefined on
      non-dominating paths are invalidated by SSA versioning — followed
      by deletion of int writes nothing reads (program scalars are
      always kept).
    - {b licm}: cross-block loop-invariant code motion.
      Pure ops and fault-order-safe invariant loads move to serial-loop
      preheaders (the back edge is remapped past them; the rotated
      loop's entry guard keeps zero-trip loops exact); strip-invariant
      pure ops move into the per-strip preamble.
    - {b stream}: offset streaming. A group of same-shape
      accesses executing exactly once per back-edge of a region — proved
      by a path-count dataflow over the CFG, so exclusive branch arms
      qualify — keeps its full affine offset in one scratch slot,
      initialized by a [Sinit] at region entry and self-bumped after
      each use: by a constant ([Vs]), by [coef * jstep] ([Vsj]), or by a
      second slot holding a run-time bump for variable-step serial loops
      ([Vsv]). Checked accesses still recompute from subscripts.
    - {b fuse}: adjacent load/consumer pairs collapse into
      superinstructions (one dispatch).

    The body stays one iteration long; {!Bytecode.exec_strip} runs a
    whole strip through it in one dispatch loop.

    Sanitized tapes are returned untouched at every level: the
    sanitizer's per-iteration shadow protocol stays on the one proven
    path. *)

val pass_names : string list
(** Pipeline stage names in execution order, starting with ["lower"]
    (the untouched lowering output). Valid arguments for the [?dump]
    hook's pass filter ([loopc run --dump-tape=PASS]). *)

val optimize :
  ?dump:(pass:string -> Bytecode.tape -> unit) ->
  level:int ->
  jslot:int ->
  int_base:int ->
  real_base:int ->
  Bytecode.tape ->
  Bytecode.tape
(** [optimize ~level ...] returns the tape rewritten for [level] (0 =
    untouched, 2 = the full pipeline; the CLI accepts only these two,
    and any positive level runs the full pipeline). [jslot] is the strip
    index register; [int_base]/[real_base] are the first registers
    lowering was allowed to allocate (anything below is an observable
    program slot and is never deleted; the passes allocate no
    registers). [dump], when given, is called once per pipeline stage
    (including the initial ["lower"]) with the tape as that stage left
    it — stages a level does not run are not reported. *)

val describe : Bytecode.tape -> string
(** One-line pass summary ("streams=2 fused=1"), for
    diagnostics and tests. *)
