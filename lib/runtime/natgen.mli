(** Native execution tier: plans pretty-printed to OCaml source,
    compiled out of process with [ocamlopt -shared], loaded via
    [Dynlink.loadfile_private] and attached to {!Compile.plan}s as
    {!Natapi.runner}s.

    The generated code replays {!Bytecode.exec_strip}'s unsafe-path
    semantics exactly (same evaluation order, same float operation
    structure, byte-identical error messages raised as [Failure]); the
    executor therefore uses a plan's runner only for forks whose
    {!Bytecode.prepare} proved every access in bounds, falling back to
    the bytecode tier otherwise.

    Compiled [.cmxs] artifacts persist in the plan-cache directory,
    keyed over the plan-cache key (or the generated source), the
    {!Plancache.stamp} producing-binary identity and
    {!Natapi.abi_version}; registry metrics [native.codegen_ns],
    [native.build_ns], [native.load_ns] and
    [plan_cache.artifact.hit]/[.miss] record the costs.

    Environment knobs: [LOOPC_NATIVE=off] disables the tier,
    [LOOPC_NATIVE_OCAMLOPT] pins the compiler command (an unusable one
    then reports unavailable instead of trying the defaults),
    [LOOPC_NATAPI_DIR] pins the directory holding [natapi.cmi]. *)

type status =
  | Ready of { artifact_hit : bool }
      (** runners attached; [artifact_hit] when a cached [.cmxs] (or an
          already-loaded digest) made the build step free *)
  | Unavailable of string
      (** nothing attached — the executor falls back to bytecode; the
          reason is a single clean line for the CLI notice *)

val available : unit -> (unit, string) result
(** Cheap toolchain probe (env kill-switch, native host, compiler on
    PATH), memoized per command; does not look at artifacts. {!prepare}
    does not call it: a cold build runs the compiler directly and probes
    only when the build fails. *)

val source : Compile.t -> string * bool list
(** The plugin source that {!prepare} would compile, plus per-plan
    eligibility (in plan order) — exposed for tests and debugging. *)

val jam_plan :
  jslot:int ->
  lits:int Bytecode.IntMap.t ->
  Bytecode.tape ->
  Bytecode.lane_plan option
(** Whether a plan's runner is unrolled and jammed by eight:
    {!Bytecode.lane_plan}'s legality plus the emitter's filters (a
    serial inner loop, every stored array at one flat offset, no fold
    register). [lits] are the registers read as literals. Exposed for
    tests. *)

val prepare :
  ?key:string ->
  ?dir:string ->
  ?persist:bool ->
  ?build_timeout:float ->
  Compile.t ->
  status
(** Generate, build (or reuse a cached artifact), load and attach
    runners for every eligible plan of [t]. Idempotent per [t]: the
    outcome is memoized in {!Compile.native_state}. [key] is the
    caller's plan-cache key — when given, an artifact hit skips codegen
    entirely; [dir] overrides {!Plancache.default_dir} as the artifact
    directory; [persist:false] (for [--no-plan-cache]) neither reads nor
    writes disk artifacts — every prepare builds in a scratch directory
    (the in-process digest table still applies). A compiler that runs
    longer than [build_timeout] seconds (default 120) is killed and the
    outcome is [Unavailable "native build timed out after N s"]. *)
