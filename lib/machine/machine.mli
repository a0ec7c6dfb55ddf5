(** Shared-memory parallel machine model.

    Costs are in abstract "instructions", matching the original
    evaluation's static instruction counting. The dispatch cost models the
    fetch&add on the shared iteration counter; [serialized_dispatch]
    models a machine {e without} a combining network, where simultaneous
    fetch&adds queue up. *)

type t = {
  p : int;  (** number of processors, >= 1 *)
  dispatch_cost : float;
      (** per chunk claimed from the shared counter (dynamic policies) or
          per processor start (static policies) *)
  fork_cost : float;  (** one-time cost to start the parallel loop *)
  barrier_cost : float;  (** one-time cost to join *)
  serialized_dispatch : bool;
}

val ideal : p:int -> t
(** Zero-overhead machine: the analytic bounds should match exactly. *)

val default : p:int -> t
(** Overheads in the spirit of the 1987 measurements: dispatch 10,
    fork 250, barrier 100, combining network present. *)

val no_combining : p:int -> t
(** Like [default] but dispatches serialize. *)

val validate : t -> (unit, string) result

(** {1 Host calibration}

    Measured per-primitive costs in nanoseconds, produced by
    [loopc calibrate] and consumed by the transformation-search scorer
    ({!Loopcoal_transform.Search} at the umbrella layer). When no
    calibration file exists the scorer falls back on
    [default_calibration], whose ratios mirror the bench history. *)

type calibration = {
  cal_p : int;  (** processors the calibration run saw *)
  dispatch_ns : float;  (** one fetch&add on the shared counter *)
  fork_ns : float;  (** starting a parallel loop (pool wake) *)
  barrier_ns : float;  (** joining it *)
  tape_op_ns : float;  (** one weighted op on the bytecode tape *)
  closure_op_ns : float;
      (** one weighted op of serial host code (the top-level tape,
          every access checked); the name is kept for [machine.json] *)
}

val default_calibration : calibration

val machine_of_calibration : p:int -> calibration -> t
(** Machine model in nanosecond units for [p] processors. *)

val validate_calibration : calibration -> (unit, string) result
val calibration_to_json : calibration -> string

val calibration_of_json : string -> (calibration, string) result
(** Parses the flat numeric object [calibration_to_json] writes; missing
    fields keep their default values, malformed input is an [Error]. *)

val load_calibration : string -> (calibration, string) result
