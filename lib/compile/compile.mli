(** Plan compilation: closure-compiled SELECT evaluation.

    The compiler takes the interpreter's own plan from
    {!Sqleval.Select_plan} — join order, conjunct placement, hash and
    interval-index access paths — and maps an expression compiler over
    it once per statement, at the SELECT node's first evaluation:
    column references become array offsets and comparators get int/date
    fast paths.  The plan lives in the node's per-statement slot
    ({!Sqleval.Eval.memo_slot}) and is compiled afresh when the slot's
    stamp moves.  The compiled plan then runs through the same join loop
    as the interpreter, so trace counters, events and guard charges
    match by construction; only expression evaluation differs.  Row
    lists and hash indexes are cached in the plan across runs while a
    scanned table is unchanged.  A SELECT over anything but base tables
    falls back to the interpreter per evaluation; the
    [compile.compiled] / [compile.interpreted] trace counters expose the
    split per statement. *)

val install : unit -> unit
(** Register the compiler as {!Sqleval.Eval.select_compiler}.  The hook
    is consulted only when [options.compile] is on; installing is
    idempotent. *)
