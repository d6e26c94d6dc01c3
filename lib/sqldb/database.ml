(* The storage-level catalog: named base tables and temporary tables.
   Views and stored routines carry SQL ASTs, so their registries live one
   layer up, in the engine (lib/sqleval).  Names are case-insensitive. *)

(* [version] counts changes to the *base* visible schema of the
   database (table creation and removal) and is the storage half of the
   stratum's plan-cache invalidation token.  Temporary-table churn is
   counted separately in [temp_epoch]: a temp table can shadow a base
   table — which changes what statements mean, so the plan cache must
   see it — but it is session noise to the learned calibration and the
   constant-period memo, whose validity tracks only durable schema.
   Re-creating a temporary table with an unchanged visible schema — the
   per-execution churn of the stratum's own taupsm_ts/taupsm_cp scratch
   tables — bumps neither counter, so cached transformed plans survive
   their own execution. *)
(* [undo] is the database-wide undo journal; it is propagated onto every
   table added here (like [obs]) and driven by {!with_atomic}. *)
(* [wal] is the durability hook (see {!Wal_hook}), installed by the
   durable store and propagated onto every table (like [obs] and
   [undo]).  [copy] deliberately does not carry it: engine copies made
   by benchmarks and the commutativity checker are volatile. *)
type t = {
  tables : (string, Table.t) Hashtbl.t;
  temp_tables : (string, Table.t) Hashtbl.t;
  mutable version : int;
  mutable temp_epoch : int;  (* temp-table shadowing churn; see above *)
  mutable obs : Trace.t;  (* propagated onto every table added here *)
  undo : Undo_log.t;
  mutable wal : Wal_hook.t option;
}

let create () =
  {
    tables = Hashtbl.create 16;
    temp_tables = Hashtbl.create 16;
    version = 0;
    temp_epoch = 0;
    obs = Trace.null;
    undo = Undo_log.create ();
    wal = None;
  }

(* Point this database — and every table it holds now or later — at
   [obs].  The engine layer calls this once per catalog so storage-level
   events (index builds) land in the same sink as evaluator events. *)
let set_observe db obs =
  db.obs <- obs;
  Hashtbl.iter (fun _ t -> Table.set_observe t obs) db.tables;
  Hashtbl.iter (fun _ t -> Table.set_observe t obs) db.temp_tables

let version db = db.version
let temp_epoch db = db.temp_epoch

(* Point this database — and every table it holds now or later — at the
   durability hook [wal] (or detach with [None]). *)
let set_wal db wal =
  db.wal <- wal;
  Hashtbl.iter (fun _ t -> Table.set_wal t wal) db.tables;
  Hashtbl.iter (fun _ t -> Table.set_wal t wal) db.temp_tables

let wal db = db.wal

(* Emit a durability event on behalf of this database or an upper layer
   (the engine catalog routes view/routine DDL through here).  No-op
   when no hook is attached. *)
let wal_emit db ev =
  match db.wal with None -> () | Some w -> w.Wal_hook.emit ev

(* Statement-boundary notifications for the non-atomic execution path;
   {!with_atomic} drives these itself for atomic statements. *)
let wal_commit db =
  match db.wal with None -> () | Some w -> w.Wal_hook.commit ()

let wal_abort db =
  match db.wal with None -> () | Some w -> w.Wal_hook.abort ()

let wal_savepoint db =
  match db.wal with None -> 0 | Some w -> w.Wal_hook.savepoint ()

let wal_rollback_to db sp =
  match db.wal with None -> () | Some w -> w.Wal_hook.rollback_to sp

let key = String.lowercase_ascii

exception No_such_table of string
exception Duplicate_table of string

let find_table db name =
  let k = key name in
  match Hashtbl.find_opt db.temp_tables k with
  | Some t -> Some t
  | None -> Hashtbl.find_opt db.tables k

let find_table_exn db name =
  match find_table db name with Some t -> t | None -> raise (No_such_table name)

let mem db name = find_table db name <> None

let add_table db table =
  let k = key (Table.name table) in
  if Hashtbl.mem db.tables k then raise (Duplicate_table (Table.name table));
  db.version <- db.version + 1;
  Table.set_observe table db.obs;
  Table.set_undo table db.undo;
  Table.set_wal table db.wal;
  wal_emit db
    (Wal_hook.Table_create (Table.schema table, false, Table.to_list table));
  Undo_log.log db.undo (fun () ->
      Hashtbl.remove db.tables k;
      db.version <- db.version + 1);
  Hashtbl.replace db.tables k table

(* Temporary tables shadow base tables and may be re-created freely.
   The version bumps only when the visible schema under that name
   actually changes (see the [version] comment above). *)
let add_temp_table db table =
  let k = key (Table.name table) in
  let visible_schema =
    match Hashtbl.find_opt db.temp_tables k with
    | Some t -> Some (Table.schema t)
    | None -> Option.map Table.schema (Hashtbl.find_opt db.tables k)
  in
  if visible_schema <> Some (Table.schema table) then
    db.temp_epoch <- db.temp_epoch + 1;
  Table.set_observe table db.obs;
  Table.set_undo table db.undo;
  Table.set_wal table db.wal;
  wal_emit db
    (Wal_hook.Table_create (Table.schema table, true, Table.to_list table));
  (if Undo_log.is_active db.undo then
     let prev = Hashtbl.find_opt db.temp_tables k in
     Undo_log.log db.undo (fun () ->
         (match prev with
         | None -> Hashtbl.remove db.temp_tables k
         | Some t -> Hashtbl.replace db.temp_tables k t);
         db.temp_epoch <- db.temp_epoch + 1));
  Hashtbl.replace db.temp_tables k table

let drop_table db name =
  let k = key name in
  let drop_from ~bump tables =
    bump ();
    wal_emit db (Wal_hook.Table_drop name);
    (if Undo_log.is_active db.undo then
       let prev = Hashtbl.find tables k in
       Undo_log.log db.undo (fun () ->
           Hashtbl.replace tables k prev;
           bump ()));
    Hashtbl.remove tables k
  in
  let bump_base () = db.version <- db.version + 1 in
  let bump_temp () = db.temp_epoch <- db.temp_epoch + 1 in
  if Hashtbl.mem db.temp_tables k then
    drop_from ~bump:bump_temp db.temp_tables
  else if Hashtbl.mem db.tables k then drop_from ~bump:bump_base db.tables
  else raise (No_such_table name)

let drop_temp_tables db =
  if Hashtbl.length db.temp_tables > 0 then begin
    db.temp_epoch <- db.temp_epoch + 1;
    wal_emit db Wal_hook.Temp_tables_drop;
    if Undo_log.is_active db.undo then begin
      let prev = Hashtbl.fold (fun k t acc -> (k, t) :: acc) db.temp_tables [] in
      Undo_log.log db.undo (fun () ->
          List.iter (fun (k, t) -> Hashtbl.replace db.temp_tables k t) prev;
          db.temp_epoch <- db.temp_epoch + 1)
    end
  end;
  Hashtbl.reset db.temp_tables

let table_names db =
  Hashtbl.fold (fun _ t acc -> Table.name t :: acc) db.tables []
  |> List.sort String.compare

(* Direct enumerations for the durable layer's snapshot writer: unlike
   {!find_table} these never apply temp-over-base shadowing, so a
   snapshot captures both tables under a shadowed name. *)
let by_name a b = String.compare (Table.name a) (Table.name b)

let base_tables db =
  Hashtbl.fold (fun _ t acc -> t :: acc) db.tables [] |> List.sort by_name

let temp_tables db =
  Hashtbl.fold (fun _ t acc -> t :: acc) db.temp_tables [] |> List.sort by_name

(* A deep copy, used by tests and by the commutativity checker to evaluate
   the same workload against multiple strategies without interference. *)
let copy db =
  let db' = create () in
  let clone t =
    let t' = Table.copy t in
    Table.set_undo t' db'.undo;
    t'
  in
  Hashtbl.iter (fun k t -> Hashtbl.replace db'.tables k (clone t)) db.tables;
  Hashtbl.iter
    (fun k t -> Hashtbl.replace db'.temp_tables k (clone t))
    db.temp_tables;
  db'

(* A read-only snapshot view: every table becomes a {!Table.read_view}
   (shared row storage, private index cache, no obs/undo/wal wiring) in
   fresh name tables, and the schema version is preserved so plan-cache
   validity tokens computed against the view match the original.  The
   view has its own (inactive) undo journal and no WAL hook; callers
   must not mutate the shared base tables through it, but may freely
   shadow them with view-local temp tables.  Sound only while the
   original is not mutated — the server guarantees this by viewing only
   published snapshots, which no writer touches again. *)
let read_view db =
  let db' =
    {
      tables = Hashtbl.create (Hashtbl.length db.tables);
      temp_tables = Hashtbl.create (max 16 (Hashtbl.length db.temp_tables));
      version = db.version;
      temp_epoch = db.temp_epoch;
      obs = Trace.null;
      undo = Undo_log.create ();
      wal = None;
    }
  in
  let view t =
    let t' = Table.read_view t in
    Table.set_undo t' db'.undo;
    t'
  in
  Hashtbl.iter (fun k t -> Hashtbl.replace db'.tables k (view t)) db.tables;
  Hashtbl.iter
    (fun k t -> Hashtbl.replace db'.temp_tables k (view t))
    db.temp_tables;
  db'

(* Publish an immutable snapshot of this database and switch every live
   table to copy-on-write (see {!Table.freeze}).  O(tables), not O(rows):
   each table contributes a new record sharing its backing row array plus
   a copy of its index cache.  The snapshot has no obs/undo/wal wiring
   and preserves [version] so plan-cache tokens computed against it match
   the live database at publication time.  Unlike {!read_view} the result
   is safe to retain across later mutations of the original: the first
   post-freeze mutation of each table privatizes its storage. *)
let freeze db =
  let db' =
    {
      tables = Hashtbl.create (max 16 (Hashtbl.length db.tables));
      temp_tables = Hashtbl.create (max 16 (Hashtbl.length db.temp_tables));
      version = db.version;
      temp_epoch = db.temp_epoch;
      obs = Trace.null;
      undo = Undo_log.create ();
      wal = None;
    }
  in
  Hashtbl.iter (fun k t -> Hashtbl.replace db'.tables k (Table.freeze t)) db.tables;
  Hashtbl.iter
    (fun k t -> Hashtbl.replace db'.temp_tables k (Table.freeze t))
    db.temp_tables;
  db'

let undo db = db.undo

(* Run [f] as an atomic unit against this database.  The outermost call
   activates the undo journal: on success the journal is discarded
   (commit), on any exception the journal is replayed so the database —
   rows, temp-table bindings, catalog entries logged by upper layers —
   returns to its pre-call state (with version counters bumped, never
   rewound).  A nested call degrades to a savepoint: rollback on
   exception, nothing on success (the enclosing unit owns the commit).

   The outermost boundary also drives the durability hook: commit on
   success (the WAL appends the buffered records plus a commit marker),
   abort on rollback (the buffer is discarded).  Savepoint scopes keep
   the WAL buffer in step with the undo journal: the nested rollback's
   exception may be swallowed upstream (e.g. a lateral-subquery probe),
   letting the enclosing unit commit, so the inner unit's buffered
   events must be dropped here or recovery would replay effects that
   were undone in memory. *)
let with_atomic db f =
  let j = db.undo in
  if Undo_log.is_active j then begin
    let sp = Undo_log.savepoint j in
    let wsp = wal_savepoint db in
    try f ()
    with e ->
      Undo_log.rollback_to j sp;
      wal_rollback_to db wsp;
      raise e
  end
  else begin
    Undo_log.activate j;
    match f () with
    | r -> (
        (* Durability decides first: only once the WAL has accepted the
           commit group may the undo journal be discarded.  If the
           commit fails (ENOSPC mid-append — the store erases the
           half-appended group and stays live), the journal rolls the
           in-memory effects back too, so disk and memory agree the
           statement never happened. *)
        match wal_commit db with
        | () ->
            Undo_log.deactivate j;
            Undo_log.clear j;
            r
        | exception e ->
            Undo_log.rollback_to j (Undo_log.top j);
            Undo_log.deactivate j;
            Undo_log.clear j;
            raise e)
    | exception e ->
        Undo_log.rollback_to j (Undo_log.top j);
        Undo_log.deactivate j;
        Undo_log.clear j;
        wal_abort db;
        raise e
  end
