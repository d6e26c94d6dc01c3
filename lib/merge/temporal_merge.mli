(** Set-based sequenced writes: the engine behind [TEMPORAL MERGE].

    A merge statement reconciles a target valid-time table with a source
    query whose rows carry [begin_time] / [end_time] columns.  Planning
    is read-only: per entity key, the union of target-row and source-row
    period boundaries induces atomic segments; each segment's final
    payload is derived from the merge mode; adjacent segments with equal
    non-ephemeral payloads are coalesced; and the result is diffed
    against the stored rows into inserts, updates and deletes.
    Execution then hands the plan to {!Sqleval.Versions.apply}, which
    writes through the ordinary table mutators — INSERTs first
    (sql_saga's add-then-modify order) — so undo journaling, WAL
    durability and crash recovery are inherited from the storage
    layer.

    Mode semantics per atomic segment (see docs/merge_semantics.md for
    the full matrix and worked examples):
    - [MREPLACE]: the source payload is the whole truth; source columns
      absent from the statement become [NULL].
    - [MUPSERT]: present source columns overwrite the target payload;
      an explicit [NULL] overwrites.
    - [MPATCH]: like upsert, but an explicit [NULL] means "no change".

    Periods the source does not mention are never touched, in any mode. *)

(** A computed, read-only merge plan. *)
type plan = {
  pl_target : string;  (** target table name *)
  pl_mode : Sqlast.Ast.merge_mode;
  pl_keys : string list;  (** resolved key columns, lowercase *)
  pl_segments : int;  (** atomic segments examined *)
  pl_coalesced : int;  (** segments eliminated by coalescing *)
  pl_inserts : Sqldb.Value.t array list;  (** rows to insert *)
  pl_updates : ((int * Sqldb.Value.t array) * Sqldb.Value.t array) list;
      (** ((position, stored row), replacement) pairs with identical
          periods; the stored row is the physical array at that storage
          position *)
  pl_deletes : (int * Sqldb.Value.t array) list;
      (** (position, stored row) of the rows whose validity the merge
          retracts *)
}

val plan_writes : plan -> int
(** Total writes the plan will perform (inserts + updates + deletes). *)

val plan :
  Sqleval.Catalog.t ->
  now:Sqldb.Date.t ->
  ?tt_mode:Sqleval.Eval.tt_mode ->
  Sqlast.Ast.merge_stmt ->
  plan
(** Evaluate the source query and compute the merge plan without
    touching the target table.  The stored rows of each source key come
    from the target's key index ({!Sqldb.Table.lookup}), so planning
    reads only the source's keys; their number is added to the
    [merge.rows_examined] counter.  Raises {!Sqleval.Eval.Sql_error} on
    semantic errors: a non-temporal target, missing [begin_time] /
    [end_time] or key columns in the source, unknown or duplicate source
    columns, [NULL] key values, empty or overlapping source periods for
    one key, or a missing [KEY] clause on a table with no declared
    temporal primary key. *)

val execute : Sqleval.Catalog.t -> now:Sqldb.Date.t -> plan -> int
(** Apply a plan through {!Sqleval.Versions.apply}, the versioned-write
    executor shared with sequenced and transaction-time DML, returning
    the number of writes.  On a transaction-time table the updates and
    deletes of rows first recorded before [now] are append-only (the old
    version is closed at [now]); same-day rows are modified in place. *)

val exec :
  Sqleval.Catalog.t ->
  now:Sqldb.Date.t ->
  ?tt_mode:Sqleval.Eval.tt_mode ->
  Sqlast.Ast.merge_stmt ->
  Sqleval.Eval.exec_result
(** Plan, execute, emit trace counters, and — unless the catalog's
    [check_constraints] option is off — run the incremental
    {!Temporal_constraints.check_written} pass over exactly the rows
    written and the windows vacated.  A constraint violation raises
    {!Taupsm_error.Error} with code [Constraint_violation]; the caller
    (the temporal stratum) runs this inside its atomic scope, so the
    statement rolls back as a unit. *)
