(** Resource guards for temporal execution.

    A guard holds configurable limits (wall-clock deadline, row budget,
    loop-iteration cap, routine recursion depth) plus the running state
    of the current outermost execution.  Checks are designed to be
    near-free when a limit is not armed: one branch on an immediate
    field.  When a limit is exceeded the guard raises a typed
    [Taupsm_error.Error] with code [Resource_exhausted]. *)

type t = {
  (* limits -- mutable so callers can tune a catalog's guard in place *)
  mutable deadline_seconds : float option;
  mutable row_budget : int option;  (** rows produced or inserted *)
  mutable loop_cap : int option;  (** iterations of a single PSM loop *)
  mutable depth_cap : int;  (** routine recursion depth *)
  mutable fallback_to_max : bool;
      (** retry a failed PERST execution under MAX (stratum-level) *)
  mutable atomic : bool;  (** journal + roll back failed executions *)
  (* running state of the current outermost execution *)
  mutable active : int;  (** execution nesting depth *)
  mutable expires_at : float;  (** absolute deadline; [infinity] = none *)
  mutable rows_used : int;
  mutable ticks : int;
}

val default : unit -> t
(** No deadline, no row budget, no loop cap, depth cap 200,
    no PERST fallback, atomic execution on. *)

val copy : t -> t
(** Same limits, fresh running state.  Used by [Catalog.copy] so engine
    copies never share guard state. *)

val enter : t -> unit
(** Begin a (possibly nested) guarded execution.  The outermost [enter]
    resets the row count and arms the absolute deadline against
    {!Mono_clock} (not the wall clock), so clock skew can neither fire
    a deadline early nor extend one. *)

val leave : t -> unit

val step : t -> unit
(** Statement-boundary check: amortised deadline test (every 8th tick
    while a deadline is armed, otherwise one float compare). *)

val check_deadline : t -> unit
(** Unamortised deadline test; called at loop iterations and routine
    entries where a stuck execution is most likely to live. *)

val charge_rows : t -> int -> unit
(** Charge [n] rows against the budget, as [n] charges of one row: when
    that exceeds the budget [b], [rows_used] stops at [b + 1] and the
    call raises. *)

val check_loop : t -> int -> unit
(** [check_loop g iters] with the current iteration count of one loop. *)

val check_depth : t -> int -> unit
(** [check_depth g d] with the current routine recursion depth. *)
