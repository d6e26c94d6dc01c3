(** Zero-dependency tracing core: hierarchical spans, named counters,
    value distributions, and a ring-buffered event log.

    One {!t} value is shared by a whole engine stack (storage,
    evaluator, stratum) and gated by a single {!enabled} flag.  When
    disabled, every entry point is one field load plus a branch — no
    allocation, no clock read — so instrumentation can stay compiled in
    permanently.  Callers that would allocate to {e build} an event
    string must guard on {!enabled} themselves.

    Thread-safety: a sink must only ever be written by one domain at a
    time.  Concurrent server sessions each write their own read view's
    sink; the only shared state, the {!now} clock clamp, is advanced
    atomically. *)

(** {1 Clock} *)

val now : unit -> float
(** Wall-clock seconds, clamped to be nondecreasing across calls, so
    that a parent span's elapsed time is always at least the sum of its
    children's. *)

(** {1 Trace objects} *)

type t
(** A mutable trace sink. *)

val create : ?ring:int -> ?enabled:bool -> unit -> t
(** [create ()] makes a fresh sink.  [ring] is the event-log capacity
    (default 1024; older events are overwritten).  [enabled] defaults
    to [false]. *)

val null : t
(** A shared sink that can never be enabled: the default for storage
    objects not yet attached to an engine.  {!set_enabled} on it is a
    no-op. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit

val reset : t -> unit
(** Drop all recorded spans, counters, distributions and events.  The
    enabled flag is unchanged. *)

(** {1 Spans}

    Spans nest dynamically: a span opened while another is open becomes
    its child.  Use {!with_span} rather than the begin/end pair unless
    the region cannot be expressed as a closure. *)

type span = {
  sp_name : string;
  sp_start : float;
  mutable sp_elapsed : float;  (** seconds; set when the span closes *)
  mutable sp_children : span list;  (** in opening order once closed *)
}

val with_span : t -> string -> (unit -> 'a) -> 'a
(** [with_span t name f] runs [f] inside a span named [name].  The span
    closes even if [f] raises.  When [t] is disabled this is exactly
    [f ()]. *)

val span_begin : t -> string -> unit
val span_end : t -> unit

val roots : t -> span list
(** Closed top-level spans, oldest first. *)

(** {1 Counters} *)

val count : t -> string -> int -> unit
(** [count t name n] adds [n] to counter [name] (created at 0). *)

val get_count : t -> string -> int
(** Current value; 0 for a counter never bumped. *)

val counts : t -> (string * int) list
(** All counters, sorted by name. *)

(** {1 Distributions} *)

type dist = {
  mutable d_count : int;
  mutable d_sum : float;
  mutable d_min : float;
  mutable d_max : float;
}

val record : t -> string -> float -> unit
(** [record t name v] folds [v] into distribution [name]. *)

val time : t -> string -> (unit -> 'a) -> 'a
(** [time t name f] runs [f] and records its wall-clock seconds into
    distribution [name]; exactly [f ()] when disabled. *)

val get_dist : t -> string -> dist option
val dists : t -> (string * dist) list

(** {1 Events}

    A bounded log of discrete occurrences (index rebuilds, plan-cache
    probes, per-scan decisions).  The newest [ring] events are
    retained; the total emitted count is tracked so overflow is
    visible. *)

type event = {
  ev_seq : int;  (** position in the global emission order, from 0 *)
  ev_label : string;
  ev_detail : string;
}

val event : t -> string -> string -> unit
(** [event t label detail] appends to the ring. *)

val events : t -> event list
(** Retained events, oldest first. *)

val events_emitted : t -> int
val events_dropped : t -> int

(** {1 Rendering} *)

val pp_seconds : float -> string
(** ["1.234 s"], ["1.234 ms"] or ["1.2 us"] as magnitude dictates. *)

val summary_to_string : ?show_timings:bool -> ?with_events:bool -> t -> string
(** Human-readable dump of spans, counters, distributions and retained
    events.  [~show_timings:false] elides every wall-clock figure so
    the output is deterministic (used by golden tests);
    [~with_events:false] omits the raw event log (useful when the
    caller has already rendered a deduplicated view of it). *)
