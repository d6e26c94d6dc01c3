(** EXPLAIN and metrics for the temporal stratum.

    {!explain} transforms a temporal statement, executes it on a
    throwaway {!Sqleval.Engine.copy} with tracing enabled, and returns a
    {!report} pairing the transformed SQL/PSM and observed plan (access
    paths, index windows, cache behaviour) with the cost model's
    estimates and the measured actuals.  The caller's engine is never
    mutated.

    {!metrics} is the flat counter snapshot of a trace sink, which
    {!report} carries for the observed run.

    The span/counter/event taxonomy these reports draw on is documented
    in DESIGN.md §7. *)

(** {1 Metrics} *)

type metrics = {
  plan_cache_hits : int;
  plan_cache_misses : int;
  scans_indexed : int;  (** interval-indexed period-overlap scans *)
  scans_full : int;
  scans_hash : int;  (** equi-join hash probes *)
  residual_fallbacks : int;
      (** period plans abandoned at runtime on a non-date bound *)
  rows_probed : int;  (** rows offered to per-row conjunct checks *)
  rows_matched : int;  (** rows surviving them *)
  conjuncts_elided : int;
      (** per-row checks skipped because the access path enforced them *)
  index_builds : int;
  index_rebuilds : int;  (** rebuilds forced by table mutation *)
  routine_calls : int;
  constant_period_calls : int;
      (** invocations of taupsm_constant_periods (MAX's driver) *)
  constant_periods : int;  (** total constant periods those produced *)
  selects_compiled : int;
      (** SELECT evaluations served by a compiled plan closure *)
  selects_interpreted : int;
      (** SELECT evaluations that fell back to the interpreter (with
          compilation on; 0 when [options.compile] is off) *)
}

val metrics_of : Trace.t -> metrics
(** Snapshot a trace sink's counters. *)

val plan_cache_hit_rate : metrics -> float
(** hits / (hits + misses); 0.0 when the cache was never consulted. *)

(** {1 EXPLAIN} *)

type outcome =
  | Rows of int  (** a query; the row count of its result *)
  | Affected of int
  | Done
  | Failed of string  (** transformation or execution raised *)

type report = {
  rp_strategy : Stratum.strategy option;
      (** [None] for current/nonsequenced statements, which have exactly
          one transformation *)
  rp_strategy_source :
    [ `Requested
    | `Cost_model
    | `Auto of Stratum.decision_source
    | `Not_applicable ];
      (** [`Auto] when the engine's [auto_strategy] option drove the
          choice; the payload says whether calibration, exploration, the
          cost model, or the §VII-F heuristic decided *)
  rp_sql : string option;
      (** the transformed conventional SQL/PSM; [None] for sequenced
          modifications, which are spliced natively on storage *)
  rp_merge : Temporal_merge.plan option;
      (** the read-only merge plan for a TEMPORAL MERGE statement —
          segments examined, coalescing, and the exact insert/update/
          delete payloads — computed before execution *)
  rp_estimate : Cost_model.estimate option;
      (** cost-model prediction; [None] for non-sequenced statements *)
  rp_calibration : string option;
      (** one-line calibration-state summary; present under [`Auto] *)
  rp_outcome : outcome;
  rp_seconds : float;  (** wall-clock of the execution *)
  rp_metrics : metrics;
  rp_trace : Trace.t;  (** the full sink, for custom drill-down *)
}

val explain :
  ?strategy:Stratum.strategy -> Sqleval.Engine.t ->
  Sqlast.Ast.temporal_stmt -> report
(** Explain-and-run on a copy of the engine.  Without [?strategy], a
    sequenced statement's strategy comes from {!Stratum.decide} when the
    engine has [auto_strategy] on, else from the cost model (and the
    report says which). *)

val explain_sql :
  ?strategy:Stratum.strategy -> Sqleval.Engine.t -> string -> report
(** {!explain} after parsing one temporal statement. *)

val report_to_string : ?show_timings:bool -> report -> string
(** Render a report for humans: transformed SQL, deduplicated plan
    events (join orders, scan windows, index maintenance), counter
    totals, and estimates next to actuals.  [~show_timings:false]
    elides every wall-clock figure, making the output deterministic —
    the form the golden tests pin. *)
