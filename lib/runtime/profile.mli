(** Tape-profile collection and reporting.

    Profiling instruments the tape rather than the interpreter: once per
    (collector, tape) the profiler copies the tape with an [Icount] at
    every basic-block leader of its body, counting into extra scratch
    slots, and the executor runs the copy through the ordinary
    {!Bytecode.exec_strip}. Each worker owns one {!binding} per
    fork and tape and counts without synchronization; {!tapes} rebuilds
    per-position dispatch counts from the block counters, and
    {!summarize} joins them with each tape's provenance side tables into
    source-loop and opcode views. *)

type collector

val create : unit -> collector

type binding
(** One worker's counters for one tape in one fork. *)

val bind : collector -> Bytecode.tape -> binding
(** Register a fresh zeroed binding for [tape], instrumenting the tape
    on its first binding in this collector. Takes the collector's mutex
    once; the caller then owns the binding. *)

val instrumented : binding -> Bytecode.tape
(** The counting copy of the bound tape: same prologue, accesses and
    provenance, [Icount]s at the block leaders of the body. Run it with
    the bound tape's {!Bytecode.prep}. *)

val scratch : binding -> int array
(** The binding's {!Bytecode.make_scratch} array for {!instrumented};
    its slots past the per-access ones are the block counters. *)

val count_strip : binding -> len:int -> unit
(** Account one executed strip of [len] iterations. *)

val add_ns : binding -> int -> unit
(** Account wall nanoseconds spent executing the binding's chunks. *)

val tapes : collector -> (Bytecode.tape * Bytecode.profile) list
(** One profile per distinct bound tape (physical equality), summed
    over its bindings, in first-binding order. *)

type loop_row = {
  lr_loop : string;  (** source loop path, e.g. ["i.j/k"] *)
  lr_stmt : string;  (** statement label, e.g. ["C[] ="], ["for k"] *)
  lr_dispatches : int;
}

type summary = {
  sm_dispatches : int;  (** total dispatched instructions *)
  sm_iters : int;  (** coalesced iterations executed *)
  sm_strips : int;
  sm_ns : int;  (** wall ns inside profiled strip execution *)
  sm_loops : loop_row list;  (** descending by dispatches *)
  sm_opcodes : (string * int) list;  (** descending by dispatches *)
}

val summarize : collector -> summary

val attributed_fraction : summary -> float
(** Fraction of dispatches carrying a non-root provenance tag (i.e.
    attributed to a concrete source statement or serial loop rather
    than strip-level glue). [1.0] on an empty summary. *)

val render : ?top:int -> summary -> string
(** Header line plus hot-loop and hot-opcode tables ([top] rows each,
    default 10). *)

val folded : summary -> string
(** Flamegraph folded stacks: one ["root;loop;...;stmt count"] line per
    (loop path, statement). *)
