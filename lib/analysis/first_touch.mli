(** First-touch analysis: the elements of an array its first mention
    overwrites before anything can read them.

    Coalescing runs a nest as one index J over the product of its trip
    counts. When each iteration of the nest mentions an array [X] first
    in a store [X[i1 + c1, ..., id + cd]] whose subscripts use the
    nest's indexes each exactly once, and then only at that element, J
    maps one-to-one onto a box of [X]: every iteration writes its own
    element of the box before anything reads it. If that nest is also
    the first top-level statement to mention [X], no element of the box
    can be read before the nest writes it, so its initial value is dead
    and the runtime need not fill it ([Compile.make_env]).

    {b The rule.} The box of [X] is non-empty only when the first
    top-level statement mentioning [X] (loading or storing it, anywhere,
    loop bounds and conditions included) is
    - a perfect nest of [doall] or serial loops with distinct indexes
      whose bounds and steps are integer constants (literals, or
      literals under [+], [-], [*], [min], [max] and negation, such as
      [n - 1] in a generated kernel), the steps positive,
    - whose first mention of [X] in the innermost body is a store at
      its top level (not under an [if]) whose value does not read [X],
      every later mention of [X] in the body being at the same
      subscripts, under no loop that rebinds an index of the nest (so
      matmul's [C[i, j] = 0.0] before its [do k] loop over [C[i, j]]
      qualifies),
    - whose subscripts are each [v], [v + c], [c + v] or [v - c] for an
      integer literal [c], where the [v] are the nest's indexes, each
      used exactly once, in any order, one per dimension of [X].
    Each dimension's range is its index's range shifted by [c]. A level
    with no iterations makes the box empty. So does a level whose step
    is not 1, unless it makes exactly one iteration: it would leave
    holes. Any overflow in the shift empties the box.

    {b Soundness.} Every element of the box is written before [X] can
    be read, in every run that shows its arrays:
    - Statements before the nest do not mention [X], so they read no
      element of it.
    - Inside the nest, each iteration mentions [X] first in the store,
      whose subscripts and value do not read it, and afterwards only at
      the same subscripts, which read nothing but the nest's indexes: so
      each iteration touches its own element alone and writes it before
      reading it, whatever order the iterations run in and however they
      are split across domains.
    - The nest has constant bounds, so it runs exactly the iterations
      the box is computed from, and each of them stores its element
      unconditionally. A statement before the store in the innermost
      body, or the store itself (out of bounds), may raise; so may a
      statement before the nest.
    - A run that faults before the covering nest finishes raises, so it
      never shows its arrays. Any other run has written the whole box
      before the first read of [X].

    The box may run past [X]'s extents; such a nest raises a bounds
    error, and the caller clips the box to the extents. *)

open Loopcoal_ir

type box = (int * int) array
(** Per dimension of the array, the inclusive range of 1-based
    subscripts the covering store writes; non-empty in every
    dimension. *)

val boxes : Ast.program -> (Ast.var * box) list
(** The declared arrays whose box is non-empty, in declaration order,
    each with its box. An array not listed has an empty box. One pass
    over the program body. *)
