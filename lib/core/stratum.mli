(** The temporal stratum (paper §III): the layer above the conventional
    SQL/PSM engine that accepts Temporal SQL/PSM, transforms it
    source-to-source according to its statement modifier, and executes
    the conventional result.

    - no modifier: {e current} semantics via {!Current} (preserving
      temporal upward compatibility);
    - [VALIDTIME [bt, et)]: {e sequenced} semantics via {!Max_slicing}
      or {!Perst_slicing}, chosen explicitly or by {!Heuristic};
    - [NONSEQUENCED VALIDTIME]: via {!Nonseq}.

    Sequenced transformations are cached per (strategy, statement) in
    {!Sqleval.Catalog}'s plan cache and revalidated against the catalog
    generation and database schema version.  When
    [Catalog.options.observe] is set, the stratum records rewrite time
    ([stratum.transform_seconds]), a [transform] event per rewrite, and
    constant-period statistics into the engine's shared {!Trace.t};
    {!Observe.explain} renders all of it as an EXPLAIN report. *)

type strategy = Strategy.t = Max | Perst
(** Re-export of {!Strategy.t}: [Stratum.Max] and [Strategy.Max] are
    the same constructor. *)

val strategy_to_string : strategy -> string

val install : Sqleval.Engine.t -> unit
(** Install the stratum's engine-level natives (the constant-period
    table function) into an engine.  Idempotent; performed implicitly by
    the [exec*] entry points. *)

exception Unsupported of string
(** Alias of {!Max_slicing.Max_unsupported}. *)

val transform :
  ?strategy:strategy -> Sqleval.Engine.t -> Sqlast.Ast.temporal_stmt ->
  Sqlast.Ast.stmt list
(** The conventional statements a temporal statement transforms into,
    in execution order (preparation, routine definitions, main).  Pure:
    nothing is executed. *)

val transform_to_sql :
  ?strategy:strategy -> Sqleval.Engine.t -> Sqlast.Ast.temporal_stmt -> string
(** {!transform}, rendered as SQL/PSM text — the paper's Figures 5/6,
    9/10 and 11. *)

val exec_plan :
  ?tt_mode:Sqleval.Eval.tt_mode -> Sqleval.Engine.t -> Sqlast.Ast.stmt list ->
  Sqleval.Eval.exec_result

val stmt_writes : Sqlast.Ast.stmt -> bool
(** Does a conventional statement write (DML or DDL)?  Queries and PSM
    control flow do not; a CALLed procedure's body must be scanned
    separately through the reachable-routine set (see {!read_only}). *)

val read_only : Sqleval.Catalog.t -> Sqlast.Ast.temporal_stmt -> bool
(** Is a temporal statement read-only — safe to execute against a
    published MVCC snapshot?  True when the statement itself does not
    write and no reachable routine body writes.  The serving layer uses
    this to route statements between lock-free snapshot readers and the
    single-writer commit lane. *)

val tt_mode_of :
  Sqleval.Engine.t -> Sqlast.Ast.temporal_stmt -> Sqleval.Eval.tt_mode
(** The transaction-time reading mode a statement's modifier requests. *)

(** {1 Adaptive strategy choice}

    The §VII-F choice, made live: with
    [Catalog.options.auto_strategy] set and no strategy forced, {!exec}
    runs {!decide} per sequenced query/CALL and feeds the measured wall
    time back into the catalog's {!Sqleval.Calibration}. *)

type decision_source =
  | Calibrated  (** both arms measured under the current plan token *)
  | Explored  (** deliberate one-shot run of the unmeasured arm *)
  | Modeled  (** {!Cost_model}'s verdict (possibly cached) *)
  | Heuristic_fallback  (** the literal §VII-F rules; model failed *)

val decision_source_to_string : decision_source -> string

val calibration_key :
  Sqleval.Engine.t -> Sqlast.Ast.temporal_stmt ->
  string * int * int
(** The calibration-table key of a sequenced statement: a digest of
    the statement with its VALIDTIME period removed × context-length
    bucket × database size class.  The same query over two contexts in
    one bucket shares a key; any other literal still separates keys.
    Exposed so tests and benchmarks can seed or inspect
    {!Sqleval.Calibration} entries. *)

val auto_eligible : Sqlast.Ast.temporal_stmt -> bool
(** Statements Auto applies to: sequenced queries and CALLs — the only
    statements with a MAX/PERST choice.  Sequenced DML and TEMPORAL
    MERGE splice natively; current/nonsequenced have one transformation. *)

val decide :
  Sqleval.Engine.t -> Sqlast.Ast.temporal_stmt -> strategy * decision_source
(** The strategy Auto would pick right now, and why.  Pure: nothing is
    executed and no calibration state changes except caching the cost
    model's verdict. *)

val exec :
  ?strategy:strategy -> Sqleval.Engine.t ->
  Sqlast.Ast.temporal_stmt -> Sqleval.Eval.exec_result
(** Transform (reusing a cached plan when its validity token still
    holds) and execute.  When [strategy] is omitted: sequenced queries
    and CALLs go through {!decide} if [Catalog.options.auto_strategy]
    is set (an Auto-chosen PERST that fails recoverably always retries
    under MAX, regardless of [Guard.fallback_to_max]), and default to
    MAX otherwise. *)

val exec_sql :
  ?strategy:strategy -> Sqleval.Engine.t -> string ->
  Sqleval.Eval.exec_result
(** {!exec} on parsed text. *)

val query :
  ?strategy:strategy -> Sqleval.Engine.t -> string ->
  Sqleval.Result_set.t
(** {!exec_sql} restricted to statements producing rows. *)

val exec_script :
  ?strategy:strategy -> Sqleval.Engine.t -> string ->
  Sqleval.Eval.exec_result
(** Execute [;]-separated temporal statements; the last result wins. *)

val exec_counting_calls :
  ?strategy:strategy -> Sqleval.Engine.t -> Sqlast.Ast.temporal_stmt ->
  Sqleval.Eval.exec_result * int
(** Execute and report the number of stored-routine invocations (the
    paper's Figure-7 asterisks). *)

(** {1 Sequenced modifications}

    Valid-time splicing: the statement applies within the context
    period; validity outside it survives, split as needed.  DELETE and
    UPDATE share one splice: a read-only pass over the pre-statement
    table gathers the write set (UPDATE's [SET] sees the stored row),
    and {!Sqleval.Versions.apply} writes it. *)

val sequenced_insert :
  Sqleval.Engine.t ->
  context:(Sqlast.Ast.expr * Sqlast.Ast.expr) option ->
  string -> string list option -> Sqlast.Ast.insert_src ->
  Sqleval.Eval.exec_result

val sequenced_delete :
  Sqleval.Engine.t ->
  context:(Sqlast.Ast.expr * Sqlast.Ast.expr) option ->
  string -> Sqlast.Ast.expr option -> Sqleval.Eval.exec_result

val sequenced_update :
  Sqleval.Engine.t ->
  context:(Sqlast.Ast.expr * Sqlast.Ast.expr) option ->
  string -> (string * Sqlast.Ast.expr) list -> Sqlast.Ast.expr option ->
  Sqleval.Eval.exec_result

(** {1 Temporal result utilities} *)

val timeslice_result : Sqleval.Result_set.t -> Sqldb.Date.t -> Sqleval.Result_set.t
(** Rows valid at the instant, timestamp columns dropped. *)

val coalesce_result : Sqleval.Result_set.t -> Sqleval.Result_set.t
(** Merge value-equivalent rows with adjacent/overlapping periods into
    maximal periods. *)
