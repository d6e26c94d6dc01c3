(** A fixed-footprint log-bucketed histogram for latency distributions.

    {!Trace} dists record only count/sum/min/max; the serving layer also
    needs p50/p99 under sustained load.  Buckets are geometric (4 per
    doubling from 1 µs), so any reported quantile overstates the true
    one by at most ~19% and the whole structure is a small int array —
    mergeable across sessions deterministically.

    Not thread-safe: one writer at a time, or an external lock. *)

type t

val create : unit -> t
val add : t -> float -> unit
(** Record one observation, in seconds (any non-negative float works;
    NaN is treated as 0). *)

val count : t -> int
val sum : t -> float
val mean : t -> float
val min_value : t -> float
val max_value : t -> float

val quantile : t -> float -> float
(** [quantile t q] for [q] in [[0, 1]]: the upper boundary of the bucket
    holding the rank, clamped to the observed maximum.  0 when empty. *)

val p50 : t -> float
val p90 : t -> float
val p99 : t -> float

val merge : into:t -> t -> unit
(** Bucket-wise fold of the second histogram into [into]; order of a
    sequence of merges does not affect the result. *)

val clear : t -> unit

val summary_string : t -> string
(** One line: [n=... mean=... p50=... p90=... p99=... max=...]. *)
