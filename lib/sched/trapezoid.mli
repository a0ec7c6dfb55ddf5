(** Trapezoid self-scheduling (Tzen & Ni): the k-th dispatched chunk has
    size [max 1 (f - k*d)] where [f = ceil(n/(2p))] is the first chunk and
    the decrement [d] is chosen so the sizes decay linearly to 1 over
    about [N = ceil(2n/(f+1))] dispatches. Linear decay avoids GSS's long
    unit-chunk tail while keeping early chunks moderate. *)

val chunk_sizes : n:int -> p:int -> int list
(** The dispatch sequence; sums to [n]. [n >= 0], [p >= 1]. *)

val dispatch_count : n:int -> p:int -> int

val first_chunk : n:int -> p:int -> int
(** [max 1 (ceil (n / 2p))]; 0 when n = 0. *)

val decrement : n:int -> p:int -> int
(** The per-dispatch decrement [d]: [(f - 1) / (N - 1)], 0 when n = 0
    or [N <= 1]. *)
