(* The one writer of versioned rows.

   Every statement that changes a temporal table through a write set —
   sequenced VALIDTIME UPDATE/DELETE, UPDATE/DELETE on a
   transaction-time table, and TEMPORAL MERGE — hands its write set to
   {!apply}, which enforces one rule:

   - a new version is stamped [now, forever) in transaction time;
   - a version first recorded before today is closed at [now], never
     changed (the history stays append-only);
   - a version recorded today is changed or removed in place (a
     zero-length transaction period would be invalid).

   On a table without transaction time every version is "recorded
   today": updates rewrite in place and deletes remove.  Stored rows are
   named by storage position (paired with the stored row itself), so
   callers gather the write set in a read-only pass over the
   pre-statement table — or from its key index — and apply it in one
   go. *)

module Value = Sqldb.Value
module Date = Sqldb.Date
module Schema = Sqldb.Schema
module Table = Sqldb.Table

type row = Value.t array

(* Is [row] the current version in transaction time?  Always true
   without transaction time.  A malformed tt_end cell counts as current,
   so such a row is never silently exempt from writes or constraint
   checks.  Applied to the schema alone it resolves the tt_end column
   once, for callers testing many rows. *)
let tt_current schema =
  if not schema.Schema.transaction then fun (_ : row) -> true
  else
    let tt_end = Schema.tt_end_index schema in
    fun (row : row) ->
      match row.(tt_end) with Value.Date d -> d = Date.forever | _ -> true

(* Stamp a new version [now, forever) in transaction time (no-op on a
   table without it). *)
let stamp schema ~now (row : row) =
  if schema.Schema.transaction then begin
    row.(Schema.tt_begin_index schema) <- Value.Date now;
    row.(Schema.tt_end_index schema) <- Value.Date Date.forever
  end

(* The tt-current rows of [t] satisfying [p] with their positions, in
   storage order. *)
let current_rows t p =
  let current = tt_current (Table.schema t) in
  let acc = ref [] in
  Table.iteri
    (fun i row -> if current row && p row then acc := (i, row) :: !acc)
    t;
  List.rev !acc

(* Apply a write set to [t]: [inserts] are new versions, [updates] pair
   a stored row — [(position, row)] as read from [t] — with its
   replacement, [deletes] are stored rows whose versions end.  Each
   position may appear at most once across [updates] and [deletes].
   The table sees the inserts first (together with the replacements of
   closed versions; appending leaves every stored position in place),
   then one {!Table.update_at} for rewrites and closes, then one
   {!Table.delete_at} — so undo journaling, WAL events and crash
   recovery come from the ordinary mutators, and each pass touches only
   the write set.  A position whose stored row is no longer the one the
   caller read raises a typed internal error before anything is
   written.

   On a base table without transaction time the valid-time boundary
   points the write set adds and removes are spliced into the catalog's
   constant-period memo ({!Cp_memo.note_write}) instead of forcing a
   rescan.  Transactional and temporary tables are never memoized (a
   temporary table may shadow a memoized base table of the same name),
   and a rollback re-bumps the table version, which invalidates the
   splice on its own. *)
let apply (cat : Catalog.t) ~now t ~inserts ~updates ~deletes =
  let schema = Table.schema t in
  let transactional = schema.Schema.transaction in
  let version_before = t.Table.version in
  let stored (p, (row : row)) =
    if p < 0 || p >= Table.row_count t || Table.get t p != row then
      Taupsm_error.raise_error Taupsm_error.Internal
        "versioned write on %s: stored row at position %d has moved"
        (Table.name t) p
  in
  List.iter (fun (old, _) -> stored old) updates;
  List.iter stored deletes;
  let closes (row : row) =
    transactional
    && not (Value.equal row.(Schema.tt_begin_index schema) (Value.Date now))
  in
  let close (row : row) =
    let closed = Array.copy row in
    closed.(Schema.tt_end_index schema) <- Value.Date now;
    closed
  in
  let rewrite = ref [] and remove = ref [] in
  let reopened =
    List.filter_map
      (fun ((p, old_row), replacement) ->
        if closes old_row then begin
          rewrite := (p, close old_row) :: !rewrite;
          Some replacement
        end
        else begin
          stamp schema ~now replacement;
          rewrite := (p, replacement) :: !rewrite;
          None
        end)
      updates
  in
  List.iter
    (fun (p, old_row) ->
      if closes old_row then rewrite := (p, close old_row) :: !rewrite
      else remove := p :: !remove)
    deletes;
  for _ = 1 to List.length inserts + List.length updates + List.length deletes do
    Fault.hit Fault.Period_slice
  done;
  List.iter
    (fun row ->
      stamp schema ~now row;
      Table.insert t row)
    (inserts @ reopened);
  if !rewrite <> [] then Table.update_at t !rewrite;
  if !remove <> [] then Table.delete_at t !remove;
  let memoized =
    (not transactional)
    &&
    match Hashtbl.find_opt cat.Catalog.db.Sqldb.Database.tables
            (String.lowercase_ascii (Table.name t))
    with
    | Some base -> base == t
    | None -> false
  in
  if memoized then begin
    let bi = Schema.begin_index schema and ei = Schema.end_index schema in
    let points rows =
      List.concat_map
        (fun (r : row) ->
          match (r.(bi), r.(ei)) with
          | Value.Date a, Value.Date b -> [ a; b ]
          | _ -> [])
        rows
    in
    Cp_memo.note_write cat.Catalog.cp_memo ~table:(Table.name t)
      ~from_version:version_before ~to_version:t.Table.version
      ~added:(points (inserts @ List.map snd updates))
      ~removed:
        (points
           (List.map snd deletes @ List.map (fun ((_, r), _) -> r) updates))
  end
