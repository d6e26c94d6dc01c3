(* Storage-fault robustness: syscall-level fault injection against the
   durable layer.  Each test arms one Fault.arm_io point — ENOSPC / EIO
   / short write / lying fsync / bit flip at a specific syscall site —
   and checks the typed-degradation contract: statements abort
   atomically, the engine stays live where the policy says it must,
   silent corruption is caught by CRC at recovery/scrub, and scrub /
   backup / restore are exact and idempotent, including after a second
   fault or a crash lands mid-operation.  The disk fuzz closes the file:
   300 seeded points across every fault class × site, plus hot-backup
   and point-in-time-restore legs. *)

module Engine = Sqleval.Engine
module Persist = Sqleval.Persist
module Database = Sqldb.Database
module Table = Sqldb.Table
module Wal = Durable.Wal
module Store = Durable.Store
module Stratum = Taupsm.Stratum
module Resilient = Taupsm.Resilient

let tmp_dir prefix = Filename.temp_dir ("taupsm_" ^ prefix) ""

let exec e sql = ignore (Stratum.exec_sql e sql)

(* A fresh engine with [n] rows committed through an attached store. *)
let fresh_store ?policy ?snapshot_every ~dir n =
  let e = Engine.create () in
  Stratum.install e;
  let h = Persist.attach ?policy ?snapshot_every ~dir e in
  exec e "CREATE TABLE t (k INT)";
  for i = 1 to n do
    exec e (Printf.sprintf "INSERT INTO t VALUES (%d)" i)
  done;
  (e, h)

let row_count e =
  Table.row_count (Database.find_table_exn (Engine.database e) "t")

let check_durability_error name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected a typed Durability error" name
  | exception Taupsm_error.Error err ->
      Alcotest.(check string)
        (name ^ " error code") "durability"
        (Taupsm_error.code_string err.Taupsm_error.code)

let check_same_db name a b =
  match Resilient.db_diff a b with
  | None -> ()
  | Some d -> Alcotest.failf "%s: states diverge: %s" name d

(* ------------------------------------------------------------------ *)
(* WAL-append faults: statement aborts atomically, engine stays live   *)
(* ------------------------------------------------------------------ *)

let append_fault_aborts_statement fault () =
  let dir = tmp_dir "append_fault" in
  let e, h = fresh_store ~policy:Wal.Off ~dir 3 in
  Fault.arm_io ~site:Fault.Wal_append ~fault ~countdown:1 ();
  check_durability_error "aborted insert" (fun () ->
      Stratum.exec_sql e "INSERT INTO t VALUES (99)");
  Alcotest.(check bool) "fault fired" true (Fault.io_fired ());
  (* the statement rolled back in memory too *)
  Alcotest.(check int) "rows after abort" 3 (row_count e);
  Alcotest.(check bool) "store degraded" true (Persist.is_degraded h);
  (* the engine is live: the next statement commits normally *)
  exec e "INSERT INTO t VALUES (4)";
  Alcotest.(check int) "rows after retry" 4 (row_count e);
  let live = Database.copy (Engine.database e) in
  Persist.detach h;
  (* the healed log recovers cleanly: no torn bytes, no ghost of the
     aborted statement *)
  let e', report = Persist.recover ~dir () in
  Alcotest.(check string) "clean stop" "eof" report.Store.stop;
  check_same_db "recovered = live" live (Engine.database e')

let test_enospc_append = append_fault_aborts_statement Fault.Io_enospc
let test_eio_append = append_fault_aborts_statement Fault.Io_eio

(* A short write persists a prefix of the record before failing; the
   heal-truncate must cut that prefix back off the log. *)
let test_short_write_append = append_fault_aborts_statement Fault.Io_short_write

(* ------------------------------------------------------------------ *)
(* Fsync faults                                                        *)
(* ------------------------------------------------------------------ *)

(* EIO from fsync is fatal to the log (a failed fsync means unknown
   durability for everything since the last good one), but the failure
   is a typed error, not a crash, and recovery still lands on a
   committed prefix. *)
let test_eio_fsync () =
  let dir = tmp_dir "eio_fsync" in
  let e, h = fresh_store ~policy:Wal.Always ~dir 3 in
  Fault.arm_io ~site:Fault.Wal_sync ~fault:Fault.Io_eio ~countdown:1 ();
  check_durability_error "failed commit" (fun () ->
      Stratum.exec_sql e "INSERT INTO t VALUES (99)");
  Alcotest.(check bool) "store dead" true (Store.is_dead (Persist.store h));
  (* every further statement fails typed, the process does not die *)
  check_durability_error "dead store rejects" (fun () ->
      Stratum.exec_sql e "INSERT INTO t VALUES (100)");
  Persist.detach h;
  let e', report = Persist.recover ~dir () in
  (* the unacked commit may or may not have reached the disk (that is
     the at-least-once ambiguity of an unacknowledged commit), but the
     recovered state must be an exact committed prefix *)
  let n = row_count e' in
  Alcotest.(check bool)
    (Printf.sprintf "prefix rows (got %d)" n)
    true
    (n = 3 || n = 4);
  Alcotest.(check int) "serial matches rows" (n + 1) report.Store.last_serial

(* A lying fsync succeeds silently — the statement commits, nothing
   degrades — but the drop is counted for the operator. *)
let test_fsync_drop () =
  let dir = tmp_dir "fsync_drop" in
  let e, h = fresh_store ~policy:Wal.Always ~dir 2 in
  let c0 = Fault.fsync_drop_count () in
  Fault.arm_io ~site:Fault.Wal_sync ~fault:Fault.Io_fsync_drop ~countdown:1 ();
  exec e "INSERT INTO t VALUES (3)";
  Alcotest.(check int) "commit succeeded" 3 (row_count e);
  Alcotest.(check int) "drop counted" (c0 + 1) (Fault.fsync_drop_count ());
  Alcotest.(check bool) "not degraded" false (Persist.is_degraded h);
  Persist.detach h;
  let e', _ = Persist.recover ~dir () in
  Alcotest.(check int) "recovers fully" 3 (row_count e')

(* ------------------------------------------------------------------ *)
(* Rotation faults: snapshot failure falls back, never loses the WAL   *)
(* ------------------------------------------------------------------ *)

let test_snapshot_write_fallback () =
  let dir = tmp_dir "snap_fallback" in
  let e = Engine.create () in
  Stratum.install e;
  let h = Persist.attach ~policy:Wal.Off ~snapshot_every:3 ~dir e in
  exec e "CREATE TABLE t (k INT)";
  exec e "INSERT INTO t VALUES (1)";
  Fault.arm_io ~site:Fault.Snapshot_write ~fault:Fault.Io_enospc ~countdown:1 ();
  (* this commit triggers rotation; the snapshot write fails but the
     commit itself already succeeded — the store stays on the previous
     generation and keeps appending to the old WAL *)
  exec e "INSERT INTO t VALUES (2)";
  Alcotest.(check bool) "rotation fault fired" true (Fault.io_fired ());
  Alcotest.(check bool) "degraded after fallback" true (Persist.is_degraded h);
  Alcotest.(check bool)
    "still on generation 0" true
    (Sys.file_exists (Filename.concat dir "snap-00000000.bin")
    && not (Sys.file_exists (Filename.concat dir "snap-00000001.bin")));
  exec e "INSERT INTO t VALUES (3)";
  let live = Database.copy (Engine.database e) in
  Persist.detach h;
  let e', report = Persist.recover ~dir () in
  Alcotest.(check int) "recovered from gen 0" 0 report.Store.snapshot_id;
  check_same_db "fallback recovers everything" live (Engine.database e')

(* The orphan case: the snapshot installs, then creating its fresh WAL
   fails.  The store must neutralize the orphan snapshot (a snapshot
   with no WAL would silently lose every later commit on recovery) and
   stay live on the old generation. *)
let test_rotation_orphan_neutralized () =
  let dir = tmp_dir "rot_orphan" in
  let e = Engine.create () in
  Stratum.install e;
  let h = Persist.attach ~policy:Wal.Off ~snapshot_every:3 ~dir e in
  exec e "CREATE TABLE t (k INT)";
  exec e "INSERT INTO t VALUES (1)";
  (* Rotation-site syscalls during rotate: (1) install rename of the
     new snapshot, (2..) creation of its fresh WAL.  Fail the WAL
     creation. *)
  Fault.arm_io ~site:Fault.Rotation ~fault:Fault.Io_eio ~countdown:2 ();
  exec e "INSERT INTO t VALUES (2)";
  Alcotest.(check bool) "fault fired" true (Fault.io_fired ());
  Alcotest.(check bool)
    "orphan snapshot neutralized" true
    (not (Sys.file_exists (Filename.concat dir "snap-00000001.bin")));
  exec e "INSERT INTO t VALUES (3)";
  let live = Database.copy (Engine.database e) in
  Persist.detach h;
  let e', _report = Persist.recover ~dir () in
  check_same_db "recovers despite orphan" live (Engine.database e')

(* ------------------------------------------------------------------ *)
(* Bit flips: silent at write time, caught by CRC, never quarantined   *)
(* past the safe line                                                  *)
(* ------------------------------------------------------------------ *)

let test_bit_flip_caught () =
  let dir = tmp_dir "bit_flip" in
  let e, h = fresh_store ~policy:Wal.Off ~dir 2 in
  let golden_at_2 = Database.copy (Engine.database e) in
  Fault.arm_io ~site:Fault.Wal_append ~fault:Fault.Io_bit_flip ~countdown:1 ();
  exec e "INSERT INTO t VALUES (3)";  (* silently corrupted on disk *)
  exec e "INSERT INTO t VALUES (4)";
  Persist.detach h;
  let e', report = Persist.recover ~dir () in
  (* the flip is detected, recovery stops at the committed prefix *)
  Alcotest.(check string) "stop is bad_crc" "bad_crc" report.Store.stop;
  check_same_db "prefix before the flip" golden_at_2 (Engine.database e');
  (* scrub agrees, and must NOT quarantine the only generation: its WAL
     prefix is the only copy of the surviving commits *)
  let r = Store.scrub ~dir () in
  Alcotest.(check int) "recoverable serial" report.Store.last_serial
    r.Store.recoverable_serial;
  Alcotest.(check (list string)) "nothing quarantined" [] r.Store.quarantined;
  let e2, report2 = Persist.recover ~dir () in
  Alcotest.(check int)
    "scrub preserved recovery" report.Store.last_serial
    report2.Store.last_serial;
  check_same_db "still recoverable after scrub" golden_at_2
    (Engine.database e2)

(* ------------------------------------------------------------------ *)
(* Scrub: quarantines corrupt superseded generations, idempotent,      *)
(* completes a half-done (crashed) quarantine                          *)
(* ------------------------------------------------------------------ *)

let flip_byte path off =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x40));
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd

let test_scrub_quarantines_old_generation () =
  let dir = tmp_dir "scrub_old" in
  let e, h = fresh_store ~policy:Wal.Off ~snapshot_every:2 ~dir 6 in
  let live = Database.copy (Engine.database e) in
  Persist.detach h;
  Alcotest.(check bool)
    "built multiple generations" true
    (Sys.file_exists (Filename.concat dir "snap-00000001.bin"));
  (* rot in a superseded generation's snapshot *)
  let old_snap = Filename.concat dir "snap-00000000.bin" in
  flip_byte old_snap 40;
  let r = Store.scrub ~dir () in
  Alcotest.(check bool)
    "old snapshot quarantined" true
    (List.exists
       (fun f -> Filename.basename f = "snap-00000000.bin")
       r.Store.quarantined);
  Alcotest.(check bool)
    "renamed aside, not deleted" true
    (Sys.file_exists (old_snap ^ ".quarantine")
    && not (Sys.file_exists old_snap));
  (* recovery is untouched: the newest generation is intact *)
  let e', report = Persist.recover ~dir () in
  Alcotest.(check int) "no fallback needed" 0 report.Store.snapshots_skipped;
  check_same_db "full state survives" live (Engine.database e');
  (* idempotent: a second scrub finds the same line, renames nothing *)
  let r2 = Store.scrub ~dir () in
  Alcotest.(check (list string)) "second scrub quarantines nothing" []
    r2.Store.quarantined;
  Alcotest.(check int)
    "same recoverable serial" r.Store.recoverable_serial
    r2.Store.recoverable_serial

(* A crash between the two renames of a quarantine leaves one file
   moved and one not; the next scrub completes the job instead of
   erroring or double-renaming. *)
let test_scrub_completes_after_crash () =
  let dir = tmp_dir "scrub_crash" in
  let _e, h = fresh_store ~policy:Wal.Off ~snapshot_every:2 ~dir 6 in
  Persist.detach h;
  let old_snap = Filename.concat dir "snap-00000000.bin" in
  flip_byte old_snap 40;
  (* simulate the crashed half-scrub: the snapshot is already aside *)
  Unix.rename old_snap (old_snap ^ ".quarantine");
  let r = Store.scrub ~dir () in
  Alcotest.(check bool)
    "newest generation intact" true
    (r.Store.intact_generations >= 1);
  Alcotest.(check bool)
    "rerun scrub completes cleanly" true
    (r.Store.recoverable_serial > 0);
  let _e', report = Persist.recover ~dir () in
  Alcotest.(check int) "recovery unaffected" 0 report.Store.snapshots_skipped

(* ------------------------------------------------------------------ *)
(* Double fault: the fault point armed during recovery itself          *)
(* ------------------------------------------------------------------ *)

let test_fault_during_recovery () =
  let dir = tmp_dir "rec_fault" in
  let e, h = fresh_store ~policy:Wal.Off ~dir 4 in
  let live = Database.copy (Engine.database e) in
  Persist.detach h;
  (* Recovery-site syscalls: (1) snapshot read, (2) WAL read.  Fail the
     WAL read: recovery must report it loudly (stop=io_error) and land
     on the snapshot state, never half-apply. *)
  Fault.arm_io ~site:Fault.Recovery_read ~fault:Fault.Io_eio ~countdown:2 ();
  let e1, r1 = Persist.recover ~dir () in
  Alcotest.(check string) "loud io_error stop" "io_error" r1.Store.stop;
  Alcotest.(check int) "no commits applied" 0 r1.Store.commits_replayed;
  Alcotest.(check int) "snapshot state only" 0
    (List.length (Database.table_names (Engine.database e1)));
  (* the fault point is one-shot: the retry recovers everything *)
  let e2, r2 = Persist.recover ~dir () in
  Alcotest.(check string) "clean rerun" "eof" r2.Store.stop;
  check_same_db "rerun recovers fully" live (Engine.database e2)

let test_snapshot_read_fault_falls_back () =
  let dir = tmp_dir "rec_snap_fault" in
  let e, h = fresh_store ~policy:Wal.Off ~snapshot_every:2 ~dir 6 in
  let live = Database.copy (Engine.database e) in
  Persist.detach h;
  (* fail the newest snapshot's read: recovery falls back a generation
     and says so in the report (the CLI turns this into exit 3), but
     WAL chaining still recovers every acked commit *)
  Fault.arm_io ~site:Fault.Recovery_read ~fault:Fault.Io_eio ~countdown:1 ();
  let e1, r1 = Persist.recover ~dir () in
  Alcotest.(check bool)
    "fallback reported" true
    (r1.Store.snapshots_skipped > 0);
  Alcotest.(check bool)
    "chained past the unreadable snapshot" true
    (r1.Store.wal_generation > r1.Store.snapshot_id);
  check_same_db "no acked commit lost" live (Engine.database e1);
  (* and the one-shot rerun uses the newest generation again *)
  let _e2, r2 = Persist.recover ~dir () in
  Alcotest.(check int) "rerun skips nothing" 0 r2.Store.snapshots_skipped

(* ------------------------------------------------------------------ *)
(* Backup / restore                                                    *)
(* ------------------------------------------------------------------ *)

let test_hot_backup_under_writers () =
  let dir = tmp_dir "hot_backup" in
  let target = tmp_dir "hot_backup_arch" in
  Unix.rmdir target;
  let e = Engine.create () in
  Stratum.install e;
  let h = Persist.attach ~policy:Wal.Off ~snapshot_every:8 ~dir e in
  exec e "CREATE TABLE t (k INT)";
  let golden = Hashtbl.create 64 in
  let mu = Mutex.create () in
  let record () =
    Mutex.lock mu;
    Hashtbl.replace golden
      (Store.serial (Persist.store h))
      (Database.copy (Engine.database e));
    Mutex.unlock mu
  in
  record ();
  (* a writer keeps committing while the main thread backs up: backup
     reads only immutable files + the last-commit consistency point, so
     it needs no pause *)
  let writer =
    Domain.spawn (fun () ->
        for i = 1 to 40 do
          exec e (Printf.sprintf "INSERT INTO t VALUES (%d)" i);
          record ()
        done)
  in
  Unix.sleepf 0.005;
  let report = Persist.backup h ~target in
  Domain.join writer;
  Persist.detach h;
  Alcotest.(check bool)
    "captured a live commit" true
    (report.Store.backup_serial >= 1);
  let er, hr, rr =
    Persist.restore ~archive:target ~dir:(tmp_dir "hot_restore") ()
  in
  Persist.detach hr;
  Alcotest.(check int)
    "restores to the captured commit" report.Store.backup_serial
    rr.Store.last_serial;
  let g = Hashtbl.find golden report.Store.backup_serial in
  check_same_db "bit-identical to the captured commit" g (Engine.database er)

let test_crash_mid_backup_then_retry () =
  let dir = tmp_dir "backup_crash" in
  let target = tmp_dir "backup_crash_arch" in
  Unix.rmdir target;
  let e, h = fresh_store ~policy:Wal.Off ~dir 5 in
  let live = Database.copy (Engine.database e) in
  Persist.detach h;
  (* tear the very first durable write of the backup copy *)
  Fault.arm_crash ~at_bytes:10;
  (match Store.backup_dir ~dir ~target () with
  | _ -> Alcotest.fail "backup should have crashed"
  | exception Fault.Crash _ -> ());
  Fault.disarm_crash ();
  (* no partial file under a final name: the target is not a store *)
  Alcotest.(check bool) "no torn archive" false (Store.exists target);
  (* the retry overwrites the leftovers and produces an exact archive *)
  let report = Store.backup_dir ~dir ~target () in
  let er, hr, rr = Persist.restore ~archive:target ~dir:(tmp_dir "backup_crash_restore") () in
  Persist.detach hr;
  Alcotest.(check int) "archive serial" report.Store.backup_serial
    rr.Store.last_serial;
  check_same_db "retried backup is exact" live (Engine.database er)

let test_pitr_three_points () =
  let dir = tmp_dir "pitr" in
  let target = tmp_dir "pitr_arch" in
  Unix.rmdir target;
  let e = Engine.create () in
  Stratum.install e;
  let h = Persist.attach ~policy:Wal.Off ~dir e in
  exec e "CREATE TABLE t (k INT)";
  let golden = Hashtbl.create 16 in
  Hashtbl.replace golden
    (Store.serial (Persist.store h))
    (Database.copy (Engine.database e));
  for i = 1 to 9 do
    exec e (Printf.sprintf "INSERT INTO t VALUES (%d)" i);
    Hashtbl.replace golden
      (Store.serial (Persist.store h))
      (Database.copy (Engine.database e))
  done;
  let final = Store.serial (Persist.store h) in
  Persist.detach h;
  ignore (Store.backup_dir ~dir ~target ());
  List.iter
    (fun serial ->
      let er, hr, rr =
        Persist.restore ~as_of_serial:serial ~archive:target
          ~dir:(tmp_dir (Printf.sprintf "pitr_%d" serial))
          ()
      in
      Persist.detach hr;
      Alcotest.(check int)
        (Printf.sprintf "restored exactly to %d" serial)
        serial rr.Store.last_serial;
      check_same_db
        (Printf.sprintf "state at commit %d" serial)
        (Hashtbl.find golden serial)
        (Engine.database er))
    [ 2; 5; final ];
  (* asking for a commit past the archive is a typed error, never a
     silent partial restore *)
  check_durability_error "past-the-end restore" (fun () ->
      Persist.restore
        ~as_of_serial:(final + 7)
        ~archive:target
        ~dir:(tmp_dir "pitr_past")
        ())

(* ------------------------------------------------------------------ *)
(* Stale tmp cleanup on open                                           *)
(* ------------------------------------------------------------------ *)

let test_stale_tmp_cleaned () =
  let dir = tmp_dir "tmp_clean" in
  let _e, h = fresh_store ~policy:Wal.Off ~dir 2 in
  Persist.detach h;
  (* a crash mid-snapshot leaves *.tmp files behind; opening the store
     sweeps them *)
  let stale = Filename.concat dir "snap-00000042.bin.tmp" in
  let out = open_out stale in
  output_string out "torn snapshot bytes";
  close_out out;
  let e', report = Persist.recover ~dir () in
  let h' = Persist.resume ~dir e' report in
  Alcotest.(check bool) "stale tmp swept" false (Sys.file_exists stale);
  Persist.detach h'

(* ------------------------------------------------------------------ *)
(* Disk fuzz: seeded syscall faults across classes × sites             *)
(* ------------------------------------------------------------------ *)

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p

(* Temporal and plain DML with enough statements that rotations happen
   (snapshot_every 4) and every syscall site is hit repeatedly; small
   tables keep the per-commit golden copies cheap. *)
let disk_fuzz_workload =
  [
    "CREATE TABLE ft (name VARCHAR(10), pct DOUBLE) WITH VALIDTIME";
    "VALIDTIME [DATE '2010-01-01', DATE '2011-01-01') INSERT INTO ft VALUES \
     ('base', 5.0)";
    "VALIDTIME [DATE '2010-02-01', DATE '2010-06-01') INSERT INTO ft VALUES \
     ('extra', 2.0)";
    "CREATE TABLE plain (k INT, v VARCHAR(10))";
    "INSERT INTO plain VALUES (1, 'one')";
    "INSERT INTO plain VALUES (2, 'two')";
    "VALIDTIME [DATE '2010-03-01', DATE '2010-04-01') UPDATE ft SET pct = 9.9 \
     WHERE name = 'base'";
    "INSERT INTO plain VALUES (3, 'three')";
    "VALIDTIME [DATE '2010-04-01', DATE '2010-05-01') DELETE FROM ft WHERE \
     name = 'extra'";
    "CREATE VIEW cheap AS SELECT name FROM ft WHERE pct < 3.0";
    "INSERT INTO plain VALUES (4, 'four')";
    "UPDATE plain SET v = 'IV' WHERE k = 4";
    "CREATE TABLE fp (sku VARCHAR(10), name VARCHAR(20)) WITH VALIDTIME \
     TEMPORAL PRIMARY KEY (sku)";
    "INSERT INTO fp (sku, name, begin_time, end_time) VALUES ('a', 'A', DATE \
     '2010-01-01', DATE '9999-12-31')";
    "TEMPORAL MERGE INTO fp USING (SELECT 'a' AS sku, 'A2' AS name, DATE \
     '2010-03-01' AS begin_time, DATE '2010-04-01' AS end_time) MODE PATCH";
    "INSERT INTO plain VALUES (5, 'five')";
    "DELETE FROM plain WHERE k = 1";
    "INSERT INTO plain VALUES (6, 'six')";
    "INSERT INTO plain VALUES (7, 'seven')";
    "INSERT INTO plain VALUES (8, 'eight')";
  ]

(* One seeded fault point: arm [Fault.arm_io_seeded], run the workload
   through an attached store, then check the recovery contract.  The
   outcome is `Exact (recovery reproduced the live state), `Prefix (the
   fault was detected loudly and recovery landed on an acked state),
   `Overshoot (the one unacked in-flight commit survived: at-least-once
   ambiguity, Wal_sync only), `Loud (attach or recovery failed typed,
   explained by the fault), `Unfired (the countdown was never reached)
   or `Violation. *)
let disk_fuzz_point ~seed =
  Fault.arm_io_seeded ~seed;
  let site, fault, countdown =
    match Fault.io_armed () with
    | Some a -> a
    | None -> Alcotest.fail "arm_io_seeded armed nothing"
  in
  let policy =
    match seed mod 3 with 0 -> Wal.Always | 1 -> Wal.Batch 4 | _ -> Wal.Off
  in
  let dir = tmp_dir "diskfuzz" in
  let finish outcome =
    Fault.disarm_io ();
    rm_rf dir;
    (site, fault, outcome)
  in
  let e = Engine.create () in
  Stratum.install e;
  match Persist.attach ~policy ~snapshot_every:4 ~dir e with
  | exception Taupsm_error.Error _ when Fault.io_fired () ->
      finish `Loud (* init refused; nothing was ever acked *)
  | h -> (
      (* acked states by serial.  A failed commit can bump the serial
         without acking (its record may be durable: the overshoot case)
         and a later zero-row write is acked without advancing it, so
         only a statement that moves the serial past everything seen
         defines a new recovery point.  An aborted CREATE cascades into
         plain engine errors on the missing table: any raising statement
         is simply not acked. *)
      let states = Hashtbl.create 32 in
      let record () =
        Hashtbl.replace states
          (Store.serial (Persist.store h))
          (Database.copy (Engine.database e))
      in
      record ();
      let last_seen = ref (Persist.serial h) in
      List.iter
        (fun sql ->
          (match Stratum.exec_sql e sql with
          | _ -> if Persist.serial h > !last_seen then record ()
          | exception _ -> ());
          last_seen := max !last_seen (Persist.serial h))
        disk_fuzz_workload;
      let smax = Hashtbl.fold (fun s _ m -> max s m) states (-1) in
      let live = Hashtbl.find states smax in
      (try Persist.detach h with _ -> ());
      let fired_in_run = Fault.io_fired () in
      let exact (e', r) =
        r.Store.last_serial = smax
        && Resilient.db_diff live (Engine.database e') = None
      in
      let on_acked_state (e', r) =
        match Hashtbl.find_opt states r.Store.last_serial with
        | None -> false
        | Some g -> Resilient.db_diff g (Engine.database e') = None
      in
      let loud (r : Store.report) =
        List.mem r.Store.stop
          [ "bad_crc"; "bad_record"; "bad_magic"; "io_error" ]
        || r.Store.snapshots_skipped > 0
      in
      if site = Fault.Recovery_read then (
        (* the fault fires during recovery itself (a double fault): the
           first recovery must be loud or exact, the rerun exact *)
        let first_ok =
          match Persist.recover ~dir () with
          | exception _ -> Fault.io_fired ()
          | er ->
              if not (Fault.io_fired ()) then exact er
              else exact er || (loud (snd er) && on_acked_state er)
        in
        Fault.disarm_io ();
        if not first_ok then
          finish (`Violation "recovery-read fault: silent divergence")
        else
          match Persist.recover ~dir () with
          | exception exn ->
              finish
                (`Violation
                  ("clean rerun raised " ^ Printexc.to_string exn))
          | er ->
              if exact er then finish `Exact
              else finish (`Violation "clean rerun diverges from live"))
      else
        match Persist.recover ~dir () with
        | exception Taupsm_error.Error _ when fired_in_run ->
            (* e.g. a bit flip in the sole generation's snapshot body:
               unrecoverable single-copy loss, reported loudly *)
            finish `Loud
        | exception exn ->
            finish
              (`Violation
                ("recovery raised without a fired fault: "
                ^ Printexc.to_string exn))
        | er ->
            if exact er then finish (if fired_in_run then `Exact else `Unfired)
            else if not fired_in_run then
              finish (`Violation "diverged with no fired fault")
            else if loud (snd er) && on_acked_state er then finish `Prefix
            else if
              (* the dying statement's group may have fully reached the
                 file before its fsync failed: the unacked commit
                 survives, which is allowed if deterministic *)
              site = Fault.Wal_sync
              && (snd er).Store.last_serial = smax + 1
              &&
              match Persist.recover ~dir () with
              | e2, r2 ->
                  r2.Store.last_serial = smax + 1
                  && Resilient.db_diff (Engine.database (fst er))
                       (Engine.database e2)
                     = None
              | exception _ -> false
            then finish `Overshoot
            else
              finish
                (`Violation
                  (Printf.sprintf
                     "silent divergence (countdown=%d stop=%s serial=%d \
                      smax=%d gen=%d skipped=%d: %s)"
                     countdown (snd er).Store.stop (snd er).Store.last_serial
                     smax (snd er).Store.wal_generation
                     (snd er).Store.snapshots_skipped
                     (Option.value ~default:"serial mismatch only"
                        (Resilient.db_diff live (Engine.database (fst er)))))))

(* Backup legs: a hot backup under a live writer restores bit-identically
   to its captured commit; point-in-time restore reproduces three
   commit points out of one archive and refuses one below its floor. *)
let disk_fuzz_backup_legs () =
  let violations = ref [] in
  let violation fmt =
    Printf.ksprintf (fun m -> violations := m :: !violations) fmt
  in
  let dir = tmp_dir "dfbk" in
  let target = Filename.concat dir "archive" in
  let e = Engine.create () in
  Stratum.install e;
  let h = Persist.attach ~policy:Wal.Off ~snapshot_every:8 ~dir e in
  exec e "CREATE TABLE t (k INT)";
  let golden = Hashtbl.create 64 in
  let mu = Mutex.create () in
  let record () =
    Mutex.protect mu (fun () ->
        Hashtbl.replace golden
          (Store.serial (Persist.store h))
          (Database.copy (Engine.database e)))
  in
  record ();
  let writer =
    Domain.spawn (fun () ->
        for i = 1 to 60 do
          exec e (Printf.sprintf "INSERT INTO t VALUES (%d)" i);
          record ()
        done)
  in
  Unix.sleepf 0.003;
  let hot = Persist.backup h ~target in
  Domain.join writer;
  let final = Persist.serial h in
  Persist.detach h;
  (match
     Persist.restore ~archive:target ~dir:(Filename.concat dir "restore") ()
   with
  | er, hr, rr -> (
      Persist.detach hr;
      let serial = rr.Store.last_serial in
      if serial <> hot.Store.backup_serial then
        violation "hot backup: archive serial %d <> %d" serial
          hot.Store.backup_serial
      else
        match Hashtbl.find_opt golden serial with
        | None -> violation "hot backup serial %d never acked" serial
        | Some g -> (
            match Resilient.db_diff g (Engine.database er) with
            | None -> ()
            | Some d -> violation "hot backup diverges at %d: %s" serial d))
  | exception exn ->
      violation "hot backup restore raised %s" (Printexc.to_string exn));
  (* A backup is one generation pair, so its restore window is [snapshot
     serial of the archived generation, last commit]: 61 commits at
     snapshot_every 8 put the floor at 56, and a point below it must be
     refused typed, not silently rounded up. *)
  let cold = Filename.concat dir "cold" in
  ignore (Store.backup_dir ~dir ~target:cold ());
  (match
     Persist.restore ~as_of_serial:2 ~archive:cold
       ~dir:(Filename.concat dir "pitr-floor") ()
   with
  | _, hr, _ ->
      Persist.detach hr;
      violation "pitr below the archive floor silently accepted"
  | exception Taupsm_error.Error _ -> ()
  | exception exn ->
      violation "pitr floor refusal raised %s (untyped)"
        (Printexc.to_string exn));
  let restored = ref 0 in
  List.iter
    (fun serial ->
      let pdir = Filename.concat dir (Printf.sprintf "pitr%d" serial) in
      match Persist.restore ~as_of_serial:serial ~archive:cold ~dir:pdir () with
      | er, hr, rr ->
          Persist.detach hr;
          let golden_ok =
            match Hashtbl.find_opt golden serial with
            | Some g -> Resilient.db_diff g (Engine.database er) = None
            | None -> false
          in
          if rr.Store.last_serial = serial && golden_ok then incr restored
          else violation "pitr %d diverges" serial
      | exception exn ->
          violation "pitr %d raised %s" serial (Printexc.to_string exn))
    [ final - 4; final - 2; final ];
  rm_rf dir;
  (!restored, List.rev !violations)

(* 300 seeded fault points, a third under each sync policy: every fault
   class of [Fault.io_matrix] must fire at least once, and no point may
   end in a violation. *)
let test_disk_fuzz () =
  let violations = ref [] in
  let violation fmt =
    Printf.ksprintf (fun m -> violations := m :: !violations) fmt
  in
  let fired = Hashtbl.create 16 in
  for seed = 0 to 299 do
    let site, fault, outcome = disk_fuzz_point ~seed in
    (match outcome with
    | `Unfired -> ()
    | `Exact | `Prefix | `Overshoot | `Loud ->
        Hashtbl.replace fired (site, fault) ()
    | `Violation reason ->
        Hashtbl.replace fired (site, fault) ();
        violation "seed %d (%s/%s): %s" seed (Fault.io_site_name site)
          (Fault.io_fault_name fault) reason)
  done;
  let pitr_points, backup_violations = disk_fuzz_backup_legs () in
  Alcotest.(check int) "fault classes exercised"
    (Array.length Fault.io_matrix)
    (Hashtbl.length fired);
  Alcotest.(check int) "point-in-time restores reproduced exactly" 3
    pitr_points;
  Alcotest.(check (list string)) "violations" []
    (List.rev_append !violations backup_violations)

let suite =
  [
    ( "storage-fault",
      [
        Alcotest.test_case "enospc on append aborts statement" `Quick
          test_enospc_append;
        Alcotest.test_case "eio on append aborts statement" `Quick
          test_eio_append;
        Alcotest.test_case "short write healed off the log" `Quick
          test_short_write_append;
        Alcotest.test_case "eio on fsync dies typed, prefix recovers" `Quick
          test_eio_fsync;
        Alcotest.test_case "lying fsync is counted" `Quick test_fsync_drop;
        Alcotest.test_case "snapshot write failure falls back" `Quick
          test_snapshot_write_fallback;
        Alcotest.test_case "rotation orphan neutralized" `Quick
          test_rotation_orphan_neutralized;
        Alcotest.test_case "bit flip caught at recovery + scrub" `Quick
          test_bit_flip_caught;
      ] );
    ( "scrub-backup-restore",
      [
        Alcotest.test_case "scrub quarantines old generation" `Quick
          test_scrub_quarantines_old_generation;
        Alcotest.test_case "scrub completes after crash mid-scrub" `Quick
          test_scrub_completes_after_crash;
        Alcotest.test_case "fault during recovery is loud then clean" `Quick
          test_fault_during_recovery;
        Alcotest.test_case "snapshot read fault falls back loudly" `Quick
          test_snapshot_read_fault_falls_back;
        Alcotest.test_case "hot backup under concurrent writers" `Quick
          test_hot_backup_under_writers;
        Alcotest.test_case "crash mid-backup, retry is exact" `Quick
          test_crash_mid_backup_then_retry;
        Alcotest.test_case "point-in-time restore, three points" `Quick
          test_pitr_three_points;
        Alcotest.test_case "stale tmp swept on open" `Quick
          test_stale_tmp_cleaned;
        Alcotest.test_case "disk fuzz: 300 seeded fault points" `Slow
          test_disk_fuzz;
      ] );
  ]
