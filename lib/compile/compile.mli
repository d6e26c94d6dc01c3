(** Plan compilation: closure-compiled SELECT evaluation.

    The compiler takes the interpreter's own plan from
    {!Sqleval.Select_plan} — join order, conjunct placement, hash and
    interval-index access paths — and maps an expression compiler over
    it once per (statement, plan token): column references become array
    offsets and comparators get int/date fast paths.  The compiled plan
    then runs through the same join loop as the interpreter, so trace
    counters, events and guard charges match by construction; only
    expression evaluation differs.  Row lists and hash indexes are
    cached across runs while a scanned table is unchanged.  A SELECT
    over anything but base tables falls back to the interpreter per
    evaluation; the [compile.compiled] / [compile.interpreted] trace
    counters expose the split per statement. *)

val install : unit -> unit
(** Register the compiler as {!Sqleval.Eval.select_compiler}.  The hook
    is consulted only when [options.compile] is on; installing is
    idempotent. *)

val prewarm : Sqleval.Catalog.t -> Sqlast.Ast.query -> unit
(** Compile the query's top-level SELECT into the catalog's shared plan
    store ahead of execution.  Read-view catalogs share their parent's
    store, so pre-warming on the parent hands every parallel worker a
    ready closure.  No-op for non-SELECT queries or when compilation is
    off. *)

val adjacent_periods :
  bt:Sqldb.Date.t ->
  et:Sqldb.Date.t ->
  Sqldb.Date.t list ->
  Sqldb.Value.t array list
(** The sort-adjacent step of the constant-period primitive, compiled:
    sorts the date points inside [(bt, et)] with [bt] and [et] as
    sentinels and pairs adjacent distinct points into ascending
    [[| Date a; Date b |]] rows — exactly the rows of the interpreted
    list-based variant. *)
