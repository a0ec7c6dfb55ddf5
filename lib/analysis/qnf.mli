(** Quotient/remainder normal form over a coalesced loop index.

    Recognizes the index-recovery definitions a coalesced DOALL computes
    from its single index [J] — the paper's ceiling form
    [ik = ceil(J/Tk) - Nk*(ceil(J/(Nk*Tk)) - 1)] and the div/mod form
    [ik = ((J-1)/Tk) mod Nk + 1] — as a mixed-radix digit decomposition:
    each recovered variable becomes a fresh bounded pseudo-index with a
    stride equality [J - 1 = sum (ik - lo_k) * Tk] that is a bijection
    onto the coalesced range. Subscripts rewritten through
    {!linear_of_coalesced} are then affine in the pseudo-indices and the
    GCD/Banerjee pipeline in {!Depend} applies to post-coalescing
    bodies. *)

open Loopcoal_ir

type digit = {
  d_var : Ast.var;
  d_lo : int;  (** lowest recovered value *)
  d_size : int;  (** number of distinct values (the paper's Nk) *)
  d_stride : int;  (** suffix product Tk in the stride equality *)
}

type t = {
  q_coalesced : Ast.var;
  q_trip : int;
  q_digits : digit list;  (** outermost first *)
}

val digit_range : digit -> int * int
(** Inclusive value range of a pseudo-index. *)

val linear_of_coalesced : t -> Ast.expr
(** [1 + sum (ik - lo_k) * Tk] — substitute this for the coalesced index
    in subscripts to make them affine in the pseudo-indices. *)

val decompose :
  ?budget:int ->
  coalesced:Ast.var ->
  trip:int ->
  (Ast.var * Ast.expr) list ->
  (t, string) result
(** Recognize recovery definitions (outermost first, each closed over the
    coalesced index) as a digit decomposition. A syntactic matcher covers
    the forms {!Loopcoal_transform.Index_recovery} emits; anything else is
    certified numerically by checking the stride equality over the whole
    coalesced range, provided [trip <= budget] (default 2^20). *)

val decompose_sizes :
  coalesced:Ast.var ->
  trip:Ast.expr ->
  invariant:(Ast.var -> bool) ->
  (Ast.var * Ast.expr) list ->
  ((Ast.var * int option) list, string) result
(** The syntactic matcher of {!decompose} over a trip that need not be a
    literal: each size is a positive literal times factors [max(e, c)]
    ([c >= 0] a literal, [e] over variables [invariant] holds for, never
    the coalesced index or a recovered name), which the coalescing
    transform emits for a nest bound that is not a literal. Whenever the
    loop runs every size is then positive, so the digits are a bijection
    onto [1..trip]. Returns each digit, outermost first, with its size
    when that is a literal (its values are [1..size]). The strides are
    not literals, so no affine form of the coalesced index exists: the
    caller must not need one. *)

val verify_hint :
  coalesced:Ast.var ->
  trip:int ->
  sizes:(Ast.var * int) list ->
  (Ast.var * Ast.expr) list ->
  (t, string) result
(** Build the decomposition from transformation metadata ([sizes]: digit
    names with constant sizes, outermost first) and spot-check the
    definitions against it at a few points of the range. *)

val eval_at : coalesced:Ast.var -> int -> Ast.expr -> int
(** Evaluate an expression closed over the coalesced index at a point.
    @raise Opaque if the expression mentions anything else. *)

exception Opaque of string
