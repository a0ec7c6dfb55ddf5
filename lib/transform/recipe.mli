(** Serializable transformation recipes.

    A recipe names a sequence of {!Pipeline} passes compactly enough to
    live in the plan cache: warm runs parse the stored string and replay
    the exact winning transformation with zero search cost, and
    [loopc transform RECIPE FILE] applies one from the command line.

    {2 Grammar}

    A recipe is [id] (the identity) or atoms joined by ['+'], applied
    left to right.  Sizes and counts are integers [>= 1].

    {v
    normalize            lo = 1, step = 1 loops
    infer                promote provable DOALLs to parallel annotations
    interchange          swap the outer pair of the first legal perfect nest
    hoist                move parallel loops outward past serial ones
    distribute           loop fission around independent statement groups
    fuse                 fuse adjacent compatible loops
    shrink               cycle-shrink serial loops with long dependences
    unroll(U)            unroll the first top-level loop that accepts it
    peel(K)              peel K iterations off the first top-level loop
    peel(K,end)          ... from its back instead
    tile(C1,C2)          normalize, then tile every doubly parallel nest;
    tile(C)              C x C tiles (tile(C,C) prints as tile(C))
    preduce(I,S,P)       reduction on S in loop I into P partial results
                         (re-associates floating point)
    coalesce(ceiling)    coalesce every nest, the paper's recovery
    coalesce(divmod)     ... with div/mod recovery
    chunked(C)           chunk-coalesce the first nest, odometer recovery
    v}

    [coalesce(incremental)] is rejected: incremental recovery is
    chunk-local code, which [chunked(C)] emits.  [to_string]/[of_string]
    round-trip every recipe [of_string] accepts.  The optimizing recipe
    is [normalize+distribute+infer+hoist+coalesce(ceiling)+shrink]. *)

open Loopcoal_ir

type atom =
  | Normalize  (** {!Pipeline.normalize} *)
  | Infer  (** {!Pipeline.infer_parallel} *)
  | Interchange  (** {!Pipeline.interchange_outer} *)
  | Hoist  (** {!Pipeline.hoist_parallel_all} *)
  | Distribute  (** {!Pipeline.distribute_all} *)
  | Fuse  (** {!Pipeline.fuse_all} *)
  | Shrink  (** {!Pipeline.cycle_shrink_all} *)
  | Unroll of int  (** {!Pipeline.unroll_first} *)
  | Peel of { count : int; from_end : bool }  (** {!Pipeline.peel_first} *)
  | Tile of int * int  (** normalize, then {!Pipeline.tile_all} *)
  | Preduce of { pr_index : string; pr_scalar : string; pr_procs : int }
      (** {!Pipeline.parallel_reduce}: FP-reassociating, opt-in only *)
  | Coalesce of Index_recovery.strategy  (** {!Pipeline.coalesce_all} *)
  | Chunked of int  (** {!Pipeline.coalesce_chunked} *)

type t = atom list
(** Atoms apply left to right. The empty list is the identity recipe. *)

val identity : t
val is_identity : t -> bool

val to_string : t -> string
(** [to_string identity = "id"]; otherwise atoms joined by ['+']. *)

val of_string : string -> (t, string) result
(** Inverse of {!to_string}; rejects unknown atoms, malformed argument
    lists, sizes below 1, non-identifier preduce names, and
    [coalesce(incremental)]. *)

val passes : t -> Pipeline.pass list
(** Lower to pipeline passes ([Tile] expands to normalize + tile-all). *)

val apply : t -> Ast.program -> (Ast.program, string) result
(** Run the recipe's passes with {!Pipeline.run} (no interpreter
    verification — callers gate candidates with the static verifier).
    [Error] when any pass declines: a stored recipe must replay fully or
    not at all. *)
