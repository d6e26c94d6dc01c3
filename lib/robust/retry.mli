(** Retry with exponential backoff and jitter.

    The serving layer uses this for transient conditions — a full
    write-lane queue, a momentarily saturated listener — where failing
    immediately would shed load the system could handle a few
    milliseconds later, but retrying in lock-step across sessions would
    just reproduce the collision.  Jitter decorrelates the retries.

    Everything nondeterministic is injectable ([rand], [sleep], the
    monotonic clock through {!Mono_clock}), so tests drive the policy
    deterministically. *)

type policy = {
  max_attempts : int;  (** total tries, including the first (>= 1) *)
  base_delay : float;  (** seconds before the first retry *)
  multiplier : float;  (** backoff factor between consecutive retries *)
  max_delay : float;  (** per-retry cap on the computed delay, seconds *)
  jitter : float;
      (** fraction of the delay randomized away, [0, 1]: the actual
          sleep is uniform in [[d*(1-jitter), d]] *)
  max_elapsed : float option;
      (** overall budget: give up (re-raising the last error) once this
          much wall time has elapsed since the first attempt *)
}

val default : policy
(** 5 attempts, 2 ms base, ×2 backoff capped at 100 ms, 0.5 jitter, no
    overall budget. *)

val seeded_rand : seed:int -> float -> float
(** A fresh, private jitter stream derived from [seed]: same seed, same
    delay sequence, so retry timing replays deterministically.  Not
    safe to share across domains — make one per lane/session. *)

val delay_for : policy -> rand:(float -> float) -> attempt:int -> float
(** The jittered sleep before retry number [attempt] (1 = the first
    retry).  [rand bound] must return a uniform float in [[0, bound)].
    Exposed for tests. *)

exception Gave_up of { attempts : int; elapsed : float; last : exn }
(** Raised by {!run} when every attempt failed with a retryable error:
    carries the count, the elapsed seconds and the last error. *)

val run :
  ?policy:policy ->
  ?rand:(float -> float) ->
  ?sleep:(float -> unit) ->
  retryable:(exn -> bool) ->
  (unit -> 'a) ->
  'a
(** [run ~retryable f] calls [f], retrying per the policy while [f]
    raises an exception [retryable] accepts.  A non-retryable exception
    propagates immediately.  When attempts (or the elapsed budget) run
    out, {!Gave_up} is raised.  [rand] defaults to a process-global
    seeded PRNG; [sleep] to [Unix.sleepf]. *)
