(** Model-guided transformation search.

    [run] enumerates a budgeted, deterministic set of {!Recipe}s for a
    program, gates every candidate through the static race verifier —
    a recipe whose output has a {e worse} verification verdict than the
    input is pruned and counted — scores the survivors with the machine
    model ({!Loopcoal_machine.Event_sim} over a weighted static op
    count, per-op scale from a {!Loopcoal_machine.Machine.calibration}),
    and declares the cheapest survivor the winner.  The identity recipe
    is always a survivor, so search can never pick something worse than
    "do nothing" under its own model, and ties go to the baseline.

    In [Measure k] mode (with a [measure] callback) the top-[k]
    predicted finalists plus the identity are timed on the real engine
    in interleaved rounds and the measured medians pick the winner
    instead.

    Metrics: counters [search.candidates] and [search.pruned], histogram
    [search.win_ns] (wall time of the whole search). *)

open Loopcoal_ir

type ctx = {
  sx_p : int;  (** processors the scored machine has *)
  sx_policy : Loopcoal_sched.Policy.t;  (** scheduling policy to model *)
  sx_cal : Loopcoal_machine.Machine.calibration;  (** per-op cost scale *)
}

val default_ctx :
  ?policy:Loopcoal_sched.Policy.t ->
  ?cal:Loopcoal_machine.Machine.calibration ->
  p:int ->
  unit ->
  ctx

val cost : ctx:ctx -> Ast.program -> float
(** Predicted completion time in (calibrated) nanoseconds: serial host
    code at [closure_op_ns] (one op of serial host code) per weighted
    op, each maximal parallel prefix
    simulated as a fork-join region over the tape at [tape_op_ns]. *)

val first_region_profile : Ast.program -> (int * float) option
(** [(iterations, weighted ops per iteration)] of the first region the
    runtime would fork — the denominator [loopc calibrate] divides its
    measured per-iteration nanoseconds by. [None] when the program has
    no parallel loop or a statically-zero trip count. *)

val enumerate :
  ?fp_reassoc:bool -> procs:int -> budget:int -> Ast.program -> Recipe.t list
(** The deterministic candidate list, identity first, truncated to
    [budget] (at least 1). [fp_reassoc] adds floating-point-reassociating
    [Preduce] candidates for recognized real-scalar reductions. *)

type status =
  | Winner
  | Scored  (** survived the gate, lost on predicted/measured time *)
  | Pruned of string  (** verifier verdict degraded; the worst diagnostic *)
  | Inapplicable of string  (** a pass declined or was the identity *)

type candidate = {
  cd_recipe : Recipe.t;
  cd_status : status;
  cd_predicted_ns : float option;
  cd_measured_ns : float option;  (** median over rounds, measure mode only *)
}

type mode = Model | Measure of int  (** measure the top-k finalists *)

type report = {
  rp_label : string;
  rp_budget : int;
  rp_mode : mode;
  rp_p : int;
  rp_policy : Loopcoal_sched.Policy.t;
  rp_winner : Recipe.t;
  rp_program : Ast.program;  (** the winner applied to the input *)
  rp_candidates : candidate list;  (** in enumeration order *)
  rp_considered : int;
  rp_pruned : int;
}

val run :
  ?budget:int ->
  ?mode:mode ->
  ?fp_reassoc:bool ->
  ?measure:(Ast.program -> float) ->
  ?label:string ->
  ctx:ctx ->
  Ast.program ->
  report
(** Search. [budget] defaults to 16; [measure p'] must return
    nanoseconds for one run of [p'] on the real engine ([Measure _]
    without it falls back to model scoring). *)

val explain_to_string : report -> string
(** Human-readable candidate table with predictions, measurements,
    prune reasons, and the winner. *)
