(** Optimizer pipeline over the flat register tape.

    Runs after {!Bytecode.lower}, while the host compiler's register
    counters are still live. The passes work on the tape directly:
    serial loops are found from their [Iloop]/[Iloopc] back edges and
    fusion works on adjacent instructions, so no pass builds a CFG,
    dominators or SSA. All preserve the tape's sequential semantics
    {e exactly}: float operand order, access execution order,
    checked-path fault messages and shadow-hook order are unchanged, so
    results are bit-identical to the unoptimized tape.

    Pipeline, in pass order (see {!pass_names}); every pass runs at
    level 2:

    - {b licm}: cross-block loop-invariant code motion.
      Pure ops and fault-order-safe invariant loads move to serial-loop
      preheaders (the back edge is remapped past them; the rotated
      loop's entry guard keeps zero-trip loops exact); strip-invariant
      pure ops move into the per-strip preamble.
    - {b fuse}: adjacent load/consumer pairs collapse into
      superinstructions (one dispatch).

    Array offsets keep their affine access form (hoisted invariant part
    plus variant part). The body stays one iteration long;
    {!Bytecode.exec_strip} runs a whole strip through it in one dispatch
    loop.

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
(** One-line pass summary ("fused=1"), for
    diagnostics and tests. *)
