(** Named pass pipeline with built-in semantic verification.

    A pass maps programs to programs (possibly failing with a reason).
    [run ~verify] additionally executes the program before and after every
    pass with the reference interpreter and compares the array stores and
    the originally-declared scalars — transformation-introduced temporaries
    are allowed to differ, everything visible to the original program must
    not. A pass that changes behaviour is reported, not silently applied. *)

open Loopcoal_ir

type pass = { name : string; transform : Ast.program -> (Ast.program, string) result }

val normalize : pass
val infer_parallel : pass
(** Promote provable DOALLs to [Parallel] annotations. *)

val coalesce : ?strategy:Index_recovery.strategy -> ?depth:int -> unit -> pass
(** Coalesce the first coalescible nest. *)

val coalesce_all : ?strategy:Index_recovery.strategy -> unit -> pass
(** Coalesce every maximal coalescible nest (never fails; identity when
    there is nothing to do). *)

val interchange_outer : pass
(** Interchange the two outermost loops of the first interchangeable
    perfect nest. *)

val coalesce_chunked : chunk:int -> pass
(** Chunk-coalesce the first coalescible nest with odometer recovery. *)

val tile_all : c1:int -> c2:int -> pass
(** Tile every doubly-parallel perfect nest with [c1 x c2] tiles
    (fails when no nest is tileable). Run {!normalize} first: tiling
    requires lo = 1, step = 1 loops. *)

val parallel_reduce :
  loop_index:string -> scalar:string -> processors:int -> pass
(** Rewrite the reduction on [scalar] in the loop with index [loop_index]
    into per-processor partials ({!Parallel_reduce.apply}). Re-associates
    floating-point combination — opt-in only. *)

val unroll_first : factor:int -> pass
(** Unroll the first top-level loop {!Unroll.apply} accepts (a
    normalized one) by [factor]; fails when none does. *)

val peel_first : count:int -> from_end:bool -> pass
(** Peel [count] iterations off the front (or, with [from_end], the
    back) of the first top-level loop {!Peel.apply} accepts; fails when
    none does. *)

val distribute_all : pass
(** Distribute every splittable loop (never fails; identity when there is
    nothing to split). *)

val fuse_all : pass
(** Fuse adjacent fusable loops everywhere (never fails). *)

val hoist_parallel_all : pass
(** Bubble parallel loops outward past serial ancestors wherever the
    interchange is legal (never fails). *)

val cycle_shrink_all : pass
(** Cycle-shrink every applicable serial loop (never fails). *)

type verification_failure = {
  pass_name : string;
  detail : string;
}

type outcome = {
  program : Ast.program;
  applied : string list;  (** names of passes that ran successfully *)
  failures : (string * string) list;  (** passes that declined, with reason *)
  verification : verification_failure option;
      (** [Some _] when a pass changed observable behaviour; the returned
          program is the last verified-good one *)
}

val run : ?verify:bool -> ?fuel:int -> pass list -> Ast.program -> outcome
(** Apply passes in order. A pass returning [Error] is recorded in
    [failures] and skipped. With [verify] (default true), a pass whose
    output misbehaves is rolled back and the pipeline stops. *)

val observably_equal :
  ?fuel:int -> reference:Ast.program -> Ast.program -> (unit, string) result
(** The equivalence judgment used by [run]: every array [reference]
    declares is declared by the candidate with equal contents (the
    candidate may add temporaries), and the scalars [reference] declares
    have equal values. *)
