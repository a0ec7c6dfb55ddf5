(** IR kernels: the programs the examples, tests and benches compile.

    Each kernel comes with a plain-OCaml reference implementation so the
    full pipeline (parse/build -> transform -> interpret) can be validated
    against independently computed results. *)

open Loopcoal_ir

(** {1 Matrix multiply} — the classic coalescing motivation: the [i, j]
    DOALLs collapse into one loop of [rows_a * cols_b] iterations. *)

val matmul : ra:int -> ca:int -> cb:int -> Ast.program
(** Arrays [A(ra, ca)], [B(ca, cb)], [C(ra, cb)]. [A] and [B] are first
    filled with deterministic values by (parallel) init nests, then
    [C = A * B] is computed by the doubly-parallel nest with a serial
    k-loop inside. *)

val matmul_reference : ra:int -> ca:int -> cb:int -> float array
(** Row-major contents of [C] computed directly in OCaml. *)

(** {1 Gauss-Jordan elimination} — solves [A X = B] for [X]
    ([n] x [n] system with [m] right-hand sides), with the augmented matrix
    [AB(n, n+m)]. The second phase (back-substitution into X) is the
    perfectly-nested doubly-parallel loop the thesis text coalesces; the
    first phase's parallel loops are not perfectly nested (hybrid case). *)

val gauss_jordan : n:int -> m:int -> Ast.program
(** Builds a well-conditioned system (diagonally dominant), eliminates, and
    leaves the solution in [X(n, m)]. *)

val gauss_jordan_reference : n:int -> m:int -> float array
(** Row-major [X] computed directly in OCaml with the same algorithm. *)

(** {1 Pi integration} — [integral of 4/(1+x^2) over [0,1]] by midpoint
    rule with [intervals] points; a 1-D reduction, deliberately {e not}
    coalescible (depth 1) and not a DOALL (accumulates into a scalar).
    Used as the control kernel. *)

val calculate_pi : intervals:int -> Ast.program
(** The result accumulates into scalar [pi]. *)

val calculate_pi_reference : intervals:int -> float

(** {1 Five-point stencil sweep} — one Jacobi step [B = stencil(A)] on an
    [n] x [n] grid interior: a doubly-parallel perfect nest with
    neighbouring loads, coalescible, dependence-test exercise. *)

val stencil : n:int -> Ast.program
val stencil_reference : n:int -> float array
(** Row-major contents of [B]. *)

(** {1 Array swap} — elementwise swap through a scalar temporary, which
    scalar privatization proves iteration-private, so the swap loop is a
    DOALL. *)

val swap : n:int -> Ast.program

(** {1 Wavefront} — [A(i,j) = A(i-1,j) + A(i,j-1)] over the interior: a
    genuinely serial-carried nest the dependence analysis must refuse to
    mark parallel. *)

val wavefront : n:int -> Ast.program

(** {1 Matrix transpose} — [B = A^T]: a doubly-parallel perfect nest whose
    two reference orders (row-major write, column-major read) make it the
    canonical interchange/tiling subject. *)

val transpose : n:int -> Ast.program
val transpose_reference : n:int -> float array
(** Row-major contents of [B]. *)

(** {1 Histogram} — [H[(i*7) mod buckets + 1] += 1]: a non-affine
    subscript the dependence analysis cannot see through, so it must
    refuse to parallelize (two iterations can hit the same bucket) —
    the conservative path's control kernel. *)

val histogram : n:int -> buckets:int -> Ast.program
val histogram_reference : n:int -> buckets:int -> float array

(** {1 Conditional stencil} — a three-point gather whose write picks its
    scale behind a data-dependent branch: [B(i) = t * 0.25] or
    [t * 0.5] depending on [C(i)]. A DOALL with a branchy body — the
    shape the optimizer fuses inside each exclusive arm. *)

val cond_stencil : n:int -> Ast.program
val cond_stencil_reference : n:int -> float array
(** Contents of [B]. *)

(** {1 Triangular gather} — [S(i) = sum over j = i, 2i, 3i, .. n of
    A(i)*A(j)]: a DOALL over a variable-step (step [i]) serial loop with
    a loop-invariant load. Exercises cross-block LICM (hoisting [A(i)])
    above a loop whose step is only known at run time. *)

val tri_gather : n:int -> Ast.program
val tri_gather_reference : n:int -> float array
(** Contents of [S]. *)

(** {1 Relaxation sweeps} — [steps] Jacobi-style updates
    [A(i) = 0.99*A(i) + B(i)] under a serial time loop: as written the
    runtime forks once per sweep; hoisting the parallel loop outward
    (legal — the carried dependence is elementwise) leaves one fork
    total. The canonical subject of the transformation searcher. *)

val relax : n:int -> steps:int -> Ast.program
val relax_reference : n:int -> steps:int -> float array
(** Contents of [A] after [steps] sweeps. *)

val all_names : string list
val by_name : string -> (unit -> Ast.program) option
(** Kernels at a small default size, for the CLI. *)
