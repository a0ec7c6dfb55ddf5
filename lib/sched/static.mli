(** Static partitions of a 1-D iteration space [1..n] over [p] processors. *)

type t = {
  n : int;
  p : int;
  proc_of : int -> int;  (** iteration (1-based) -> processor (0-based) *)
}

val block : n:int -> p:int -> t
(** Balanced contiguous blocks: the first [n mod p] processors get
    [⌈n/p⌉] iterations, the rest [⌊n/p⌋]. Every processor's share is
    contiguous. Requires [n >= 0], [p >= 1]. *)

val block_chunk : n:int -> p:int -> int -> (int * int) option
(** Processor [q]'s share of {!block} as [(start, len)], in closed form;
    [None] when it owns nothing. Equals [chunks_of (block ~n ~p) q]
    without the scan over [1..n]. *)

val cyclic : n:int -> p:int -> t
(** Iteration [j] on processor [(j-1) mod p]. *)

val of_policy : Policy.t -> n:int -> p:int -> t option
(** [None] for dynamic policies. *)

val iterations_of : t -> int -> int list
(** The (ascending) iterations owned by a processor. *)

val counts : t -> int array
(** Iterations per processor. *)

val chunks_of : t -> int -> (int * int) list
(** The processor's iterations as maximal contiguous [(start, len)] runs —
    a block partition yields one run, a cyclic one [counts] runs. *)

val is_partition : t -> bool
(** Every iteration is owned by exactly one in-range processor — the
    property tests' soundness check. *)
