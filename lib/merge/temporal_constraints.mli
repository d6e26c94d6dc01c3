(** Temporal integrity constraints: no-overlap primary keys and
    coverage-without-gaps foreign keys.

    Constraints are declared at [CREATE TABLE] time and carried
    immutably on the schema ({!Sqldb.Schema.tconstraint}):

    - [TEMPORAL PRIMARY KEY (cols)] — among the transaction-time-current
      rows, no two rows with equal key values may have overlapping
      valid-time periods.
    - [TEMPORAL FOREIGN KEY (cols) REFERENCES t (cols)] — every current
      referencing row's period must be covered, without gaps, by the
      union of the matching current referenced rows' periods (the
      covers-without-gaps sweep of sql_saga).

    Rows with a [NULL] key column are exempt from both checks, as in
    standard SQL; key values are equal when their SQL literals are
    ({!Sqldb.Table.key_id}).  Both checks run one key at a time: the
    key's rows come from the table's key index ({!Sqldb.Table.lookup}),
    and one sweep over their sorted tt-current periods decides it, so
    checking a key costs O(k log k) in that key's rows rather than a
    table scan.

    Violations raise {!Taupsm_error.Error} with code
    [Constraint_violation] and the offending valid-time period attached;
    the temporal stratum raises them inside its atomic scope, so the
    violating statement rolls back (and aborts its WAL batch) as a
    unit. *)

val check_table : Sqleval.Catalog.t -> Sqldb.Table.t -> unit
(** Check every declared constraint of one table: the per-key checks
    over every key.  No-op for tables without constraints. *)

type snapshot
(** Cheap fingerprint of table versions, taken before a statement
    executes, so the post-statement check can skip untouched tables. *)

val snapshot : Sqleval.Catalog.t -> snapshot
(** Record the current version of every table.  Returns an empty
    snapshot instantly when no table declares constraints. *)

val check_changed : Sqleval.Catalog.t -> snapshot -> unit
(** Re-run {!check_table} for each constrained table that changed since
    the snapshot — or whose referenced tables changed, since shrinking a
    referenced table can open a gap under an untouched referencing
    row. *)

val check_written :
  Sqleval.Catalog.t ->
  Sqldb.Table.t ->
  written:Sqldb.Value.t array list ->
  removed:Sqldb.Value.t array list ->
  unit
(** Incremental check used by the merge engine, which knows exactly
    which rows it wrote and which it removed or rewrote: each key of a
    written row gets the primary-key and outgoing foreign-key checks;
    each referenced key of a [removed] row gets the foreign-key check
    on every table referencing this one.  Reads only those keys' rows,
    and adds their number to the [merge.rows_examined] counter. *)
