(* Engine-level durability: glue between an {!Engine.t} and the
   durable store (lib/durable).

   The store itself speaks only storage types — tables, rows, opaque
   DDL strings.  This module closes the loop at the engine layer:
   snapshots capture the engine clock and the catalog's view/routine
   definitions (via {!Catalog.ddl_dump}); recovery re-parses replayed
   DDL and re-registers it, which also bumps the catalog generation so
   any plan cached against pre-recovery state is invalid. *)

type handle = { dir : string; store : Durable.Store.t }

(* Re-apply one recovered DDL statement.  The recovering database has
   no WAL hook installed, so re-registration writes nothing back. *)
let apply_ddl cat sql =
  match Sqlparse.Parser.parse_stmt_string sql with
  | Sqlast.Ast.Screate_view (name, q) -> Catalog.add_view cat name q
  | Sqlast.Ast.Screate_function r ->
      Catalog.add_routine ~replace:true cat Catalog.Rfunction r
  | Sqlast.Ast.Screate_procedure r ->
      Catalog.add_routine ~replace:true cat Catalog.Rprocedure r
  | _ ->
      Taupsm_error.raise_error Taupsm_error.Durability
        "recovered WAL carries a non-DDL catalog statement: %s" sql
  | exception e ->
      Taupsm_error.raise_error Taupsm_error.Durability
        "recovered DDL does not re-parse (%s): %s" (Printexc.to_string e) sql

let obs_of obs cat = match obs with Some o -> o | None -> Catalog.trace cat

(* Auxiliary engine state riding in the WAL/snapshot stream.  Today
   that is one record: the adaptive-strategy calibration (keyed blobs
   are open-ended — adding a record kind later costs nothing).  Aux
   records are advisory: recovery applies whatever survives on disk and
   the engine re-learns the rest, so they sit outside the
   committed-prefix guarantee. *)
let calibration_aux_name = "calibration"

let aux_closures cat =
  let aux () =
    if Calibration.size cat.Catalog.calibration = 0 then []
    else [ (calibration_aux_name, Calibration.save cat.Catalog.calibration) ]
  in
  let aux_dirty () =
    match Calibration.take_dirty cat.Catalog.calibration with
    | Some blob -> [ (calibration_aux_name, blob) ]
    | None -> []
  in
  (aux, aux_dirty)

let on_aux cat name blob =
  if name = calibration_aux_name then
    Calibration.load cat.Catalog.calibration blob

(* Fresh attach: snapshot the engine as it stands and start logging. *)
let attach ?policy ?snapshot_every ?obs ~dir (e : Engine.t) =
  let cat = Engine.catalog e in
  let aux, aux_dirty = aux_closures cat in
  let store =
    Durable.Store.init ?policy ?snapshot_every ~obs:(obs_of obs cat) ~dir
      ~db:(Engine.database e)
      ~now:(fun () -> Engine.now e)
      ~ddl:(fun () -> Catalog.ddl_dump cat)
      ~aux ~aux_dirty ()
  in
  { dir; store }

(* Rebuild a fresh engine from the durable state in [dir].  The engine
   is *not* yet attached — a fuzzing harness may want to inspect the
   recovered state without opening a new WAL; call {!resume} to go
   live. *)
let recover ?obs ?stop_at_serial ~dir () =
  let e = Engine.create () in
  let cat = Engine.catalog e in
  let report =
    Durable.Store.recover ~obs:(obs_of obs cat) ?stop_at_serial ~dir
      ~db:(Engine.database e)
      ~on_ddl:(apply_ddl cat)
      ~on_now:(fun d -> Engine.set_now e d)
      ~on_aux:(on_aux cat) ()
  in
  (* The recovered entries were stamped against the writing engine's
     plan token; this engine replayed the same history but its version
     counters took a different path (replay has no rollbacks or temp
     churn).  The data is identical, so re-stamp rather than discard. *)
  Calibration.stamp_all cat.Catalog.calibration (Catalog.plan_token cat);
  (e, report)

(* Attach after {!recover}: truncate the torn/corrupt WAL tail and
   append from the last intact record, serial numbering continuous. *)
let resume ?policy ?snapshot_every ?obs ~dir (e : Engine.t) report =
  let cat = Engine.catalog e in
  let aux, aux_dirty = aux_closures cat in
  let store =
    Durable.Store.resume ?policy ?snapshot_every ~obs:(obs_of obs cat) ~dir
      ~db:(Engine.database e)
      ~now:(fun () -> Engine.now e)
      ~ddl:(fun () -> Catalog.ddl_dump cat)
      ~aux ~aux_dirty report
  in
  (* Resume may have truncated a torn tail that carried the latest aux
     records; mark the calibration dirty so the next commit group (or
     detach) re-flushes the full state. *)
  if Calibration.size cat.Catalog.calibration > 0 then
    Calibration.mark_dirty cat.Catalog.calibration;
  { dir; store }

(* Recover-or-init: the CLI's --db-dir semantics.  An existing store is
   recovered and resumed; an empty or absent directory starts fresh. *)
let open_dir ?policy ?snapshot_every ?obs ~dir () =
  if Durable.Store.exists dir then begin
    let e, report = recover ?obs ~dir () in
    let h = resume ?policy ?snapshot_every ?obs ~dir e report in
    (e, h, Some report)
  end
  else begin
    let e = Engine.create () in
    let h = attach ?policy ?snapshot_every ?obs ~dir e in
    (e, h, None)
  end

let snapshot h = Durable.Store.snapshot h.store

let detach h =
  (* Flush the full calibration state before closing so a clean
     shutdown never loses learned timings, even mid-commit-group. *)
  Durable.Store.flush_aux h.store;
  Durable.Store.detach h.store
let store h = h.store
let sync h = Durable.Store.sync h.store
let serial h = Durable.Store.serial h.store
let is_degraded h = Durable.Store.is_degraded h.store

(* Operator surface: scrub / hot backup / point-in-time restore. *)

let scrub ?obs ?quarantine ~dir () = Durable.Store.scrub ?obs ?quarantine ~dir ()
let backup h ~target = Durable.Store.backup h.store ~target
let backup_dir ?obs ~dir ~target () = Durable.Store.backup_dir ?obs ~dir ~target ()

(* Point-in-time restore: recover [archive] frozen at [as_of_serial]
   (latest committed state when omitted) and materialize the result as
   a FRESH store in [dir].  The archive is never written to — a botched
   restore can always be re-run from the same bytes. *)
let restore ?policy ?snapshot_every ?obs ?as_of_serial ~archive ~dir () =
  let e = Engine.create () in
  let cat = Engine.catalog e in
  let report =
    Durable.Store.recover ~obs:(obs_of obs cat) ?stop_at_serial:as_of_serial
      ~dir:archive ~db:(Engine.database e)
      ~on_ddl:(apply_ddl cat)
      ~on_now:(fun d -> Engine.set_now e d)
      ~on_aux:(on_aux cat) ()
  in
  Calibration.stamp_all cat.Catalog.calibration (Catalog.plan_token cat);
  (match as_of_serial with
  | Some n when report.Durable.Store.last_serial <> n ->
      Taupsm_error.raise_error Taupsm_error.Durability
        "archive cannot restore to commit %d: replay reached serial %d \
         (stop=%s)"
        n report.Durable.Store.last_serial report.Durable.Store.stop
  | _ -> ());
  let h = attach ?policy ?snapshot_every ?obs ~dir e in
  (e, h, report)

let report_to_string (r : Durable.Store.report) =
  Printf.sprintf
    "recovered snapshot %d + %d commit(s) (%d record(s), %d byte(s), \
     stop=%s, serial=%d%s) in %.3fs"
    r.Durable.Store.snapshot_id r.Durable.Store.commits_replayed
    r.Durable.Store.records_scanned r.Durable.Store.bytes_scanned
    r.Durable.Store.stop r.Durable.Store.last_serial
    ((if r.Durable.Store.snapshots_skipped > 0 then
        Printf.sprintf ", %d generation(s) skipped"
          r.Durable.Store.snapshots_skipped
      else "")
    ^
    if r.Durable.Store.wal_generation > r.Durable.Store.snapshot_id then
      Printf.sprintf ", chained to wal generation %d"
        r.Durable.Store.wal_generation
    else "")
    r.Durable.Store.seconds
