(** Reduction recognition.

    A scalar [s] is a recognized reduction of a loop body when it is
    updated by exactly one statement of the form [s = s op e] (or
    [s = e op s] for commutative [op]) with [op] one of [+] or [*], [e]
    not mentioning [s], and [s] not touched anywhere else in the body.
    Such loops are not DOALLs, but they parallelize with per-processor
    partial results — the transformation
    {!Loopcoal_transform.Parallel_reduce} performs the rewrite. *)

open Loopcoal_ir

type op = Sum | Product

type t = {
  scalar : Ast.var;
  op : op;
  identity : float;  (** 0 for sums, 1 for products *)
  acc_left : bool;
      (** the update is [s = s op e] (else [s = e op s]): NaN payloads
          depend on the operand order, so merges keep it *)
}

val detect : Ast.block -> t list
(** All recognized reductions of the body, in textual order of their
    update statements. Conservative: any irregular access to a candidate
    disqualifies it. *)

val binop_of : op -> Ast.binop
