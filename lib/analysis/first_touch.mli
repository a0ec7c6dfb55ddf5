(** First-touch analysis: the elements of an array its first mention
    overwrites before anything can read them.

    Coalescing runs a nest as one index J over the product of its trip
    counts. When the nest's only mention of an array [X] is one store
    [X[i1 + c1, ..., id + cd]] whose subscripts use the nest's indexes
    each exactly once, J maps one-to-one onto a box of [X]: the nest
    writes every element of that box exactly once. If that nest is also
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
    - whose only mention of [X] is one store at the top level of the
      innermost body (not under an [if]),
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
    - Inside the nest, nothing but the store mentions [X], and the
      store's own subscripts and value do not read it. So no iteration
      reads an element of [X], whatever order the iterations run in and
      however they are split across domains.
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
