(** Translation validator and abstract interpreter for the bytecode
    tier.

    The tape optimizer ({!Tapeopt}) rewrites instruction arrays that
    execute through [Array.unsafe_get]/[unsafe_set]; one malformed tape
    reaching the unsafe path is a segfault, not an exception. This
    module re-checks, with machinery independent of the code that
    produced the tape, that a lowered or optimized tape is safe to run:

    - {b well-formedness dataflow}: def-before-use on the int and float
      register files (a must-analysis over {!Bytecode.build_cfg}),
      register-file and access-id bounds per opcode, jump shape
      (forward-only except [Iloop]/[Iloopc] back edges, targets inside
      the section), block counters inside the counter range, the
      variant offset kind against the split offset, and provenance
      completeness (every instruction carries a valid source tag);
    - {b interval abstract interpretation}: each access's per-subscript
      symbolic range ([ac_rngs], the skeleton the once-per-fork range
      check evaluates before granting the unsafe path) is re-derived
      from the instruction stream and compared against the stored
      skeleton over sample fork boxes — a stored range narrower than
      what the subscript can actually take means the range check does
      not cover the access;
    - {b footprint equivalence}: the per-array read/write sets of the
      optimized tape (keyed by array slot and subscript form, so
      value-numbering rewrites don't matter) must match
      the unoptimized tape's, catching a pass that drops or invents a
      memory effect.

    Findings are reported through {!Loopcoal_verify.Diag} as the stable
    codes LC010 (undefined register read), LC011 (malformed
    instruction / protocol violation, including an [Ifork]: only
    top-level code forks), LC012 (offset form or range
    coverage), LC013 (provenance), LC014 (footprint mismatch). The
    validator never mutates the tape and runs only at compile/validate
    time; metrics land in the registry as [tapecheck.ns] and
    [tapecheck.findings]. *)

val check :
  ?baseline:Bytecode.tape ->
  ?pass:string ->
  region:int ->
  int_base:int ->
  real_base:int ->
  n_ints:int ->
  n_reals:int ->
  plan_slots:int array ->
  Bytecode.tape ->
  Loopcoal_verify.Diag.t list
(** Full validation of one plan's tape. [int_base]/[real_base] are the
    register-file sizes before the plan's body was lowered (everything
    below them is environment state, defined at strip entry);
    [n_ints]/[n_reals] are the current file sizes (every register the
    tape names must fit); [plan_slots] are the flattened nest's index
    registers, outer first, the last being the strip index. [baseline]
    is the same plan's unoptimized ("lower") tape for the footprint
    check; [pass] names the optimizer pass just run, so findings name
    the guilty pass. Diagnostics carry [region] as their region
    ordinal. An empty list means the tape passed. *)

val check_entry : region:int -> Bytecode.tape -> Loopcoal_verify.Diag.t list
(** Structural subset of {!check} for tapes deserialized from the plan
    cache's disk layer, where no compile context exists: access-id and
    jump-shape bounds, prologue and counter-slot rules, offset-form
    consistency and provenance completeness.
    Register-file bounds, def-before-use and the interval comparison
    need the host register context and are skipped. *)
