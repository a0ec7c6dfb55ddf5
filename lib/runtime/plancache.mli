(** Keyed plan cache for the bytecode tier.

    Repeated compiles of the same program — successive [loopc run]
    invocations of one file, or a bench harness's trials — skip lowering
    and optimization entirely: {!Compile.compile} consults the cache and
    replays the stored tapes plus their register-counter deltas, so a
    hit produces a plan list bit-identical to a cold compile.

    The key covers the full program AST, the sanitize flag, the
    optimizer level, a caller salt (the CLI passes the engine name) and
    a tape-format version — a sanitized run can never reuse an
    unsanitized tape, and stale disk entries from an older build are
    misses. Hit/miss totals land in the [plan_cache.hit] and
    [plan_cache.miss] registry counters. *)

open Loopcoal_ir

type entry = { e_plans : (Bytecode.tape * int * int) list }
(** Per plan in program order: the tape and the int/float
    register-counter deltas its lowering+optimization consumed. *)

type t

val create : ?dir:string -> unit -> t
(** In-memory cache; with [dir], entries also persist to one marshaled
    file per key under [dir] (created on demand). Unreadable, corrupt or
    version-skewed files are misses; write failures disable the disk
    layer but keep the in-memory one. *)

val default_dir : unit -> string option
(** [$XDG_CACHE_HOME/loopc], falling back to [$HOME/.cache/loopc]. *)

val key : sanitize:bool -> opt_level:int -> salt:string -> Ast.program -> string

val stamp : unit -> string
(** The producing-binary identity folded into every {!key} (path, size,
    mtime of the running executable). {!Natgen} folds the same stamp
    into its [.cmxs] artifact keys, so native artifacts are invalidated
    exactly when plan-cache entries are. *)

val find : t -> string -> entry option

val find_origin : t -> string -> (entry * [ `Mem | `Disk ]) option
(** Like {!find}, but says which layer served the hit. Entries produced
    by this process live in memory; [`Disk] entries are deserialized
    bytes the caller should validate (see [Tapecheck]) before trusting
    them on the unsafe execution path. *)

val reject : t -> string -> unit
(** Drop the in-memory copy of a disk entry that failed validation and
    count it under the [plan_cache.reject] registry counter; the caller
    treats the lookup as a miss and the recompile overwrites the entry
    on disk. *)

val store : t -> string -> entry -> unit

val find_recipe : t -> string -> string option
(** The stored winning-recipe string for a key ([Recipe.of_string]
    grammar), from memory or the [<key>.recipe] side file. A disk hit
    refreshes the file's LRU recency. *)

val store_recipe : t -> string -> string -> unit
(** Record the searcher's winner for a key; persists to [<key>.recipe]
    next to the plan when the disk layer is usable, so warm runs replay
    the transformation with zero search cost. *)

val enforce_cap : string -> unit
(** Apply the [LOOPC_CACHE_MAX_MB] size cap to a cache directory:
    when the total size of cached files ([.plan], [.recipe], and the
    native tier's artifacts) exceeds the cap, least-recently-used files
    are deleted (mtime order — hits touch their files) until under it,
    each counted under [plan_cache.evict]. No-op when the variable is
    unset or unparsable. {!store} and {!store_recipe} call it on their
    own directory; {!Natgen} calls it after writing a [.cmxs]. *)
