(* The durable store: snapshot + WAL pairs in a directory, the
   Wal_hook implementation that feeds them, and the recovery path.
   See store.mli for the protocol and guarantees. *)

open Sqldb

let snap_magic = "TPSMSNP2"
let snap_name id = Printf.sprintf "snap-%08d.bin" id
let wal_name id = Printf.sprintf "wal-%08d.log" id

type t = {
  dir : string;
  policy : Wal.sync_policy;
  snapshot_every : int option;
  obs : Trace.t;
  db : Database.t;
  now : unit -> int;
  ddl : unit -> string list;
  aux : unit -> (string * string) list;
      (* full dump of auxiliary engine state, polled at snapshot time
         (and by {!flush_aux}) like [now] and [ddl] *)
  aux_dirty : unit -> (string * string) list;
      (* drain of aux entries changed since the last drain; appended as
         tag-10 records inside the next commit group *)
  mutable wal : Wal.t;
  mutable snap_id : int;
  mutable serial : int;
  mutable commits_since_snap : int;
  mutable buffer : string list;  (* encoded event payloads, newest first *)
  mutable dead : bool;
  mutable degraded : bool;  (* survived a storage fault; data still safe *)
  (* (snap_id, serial, wal committed offset) as of the last fully
     appended commit group — read by hot backup from another domain, so
     the triple must change atomically. *)
  last_commit : (int * int * int) Atomic.t;
}

type report = {
  snapshot_id : int;
  wal_generation : int;
      (* generation whose WAL is the live log after replay; greater
         than [snapshot_id] when recovery chained across rotations *)
  snapshots_skipped : int;
  commits_replayed : int;
  records_scanned : int;
  bytes_scanned : int;
  stop : string;
  last_serial : int;
  snapshot_now : int;
  wal_good_offset : int;
  wal_committed_offset : int;
  seconds : float;
}

(* ------------------------------------------------------------------ *)
(* Directory plumbing                                                  *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Make the rename of a snapshot itself durable.  Some filesystems
   refuse fsync on a directory fd; that only weakens real-crash
   durability, never the simulated-crash model, so errors are ignored. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())

(* Snapshot generations present in [dir], newest first. *)
let snapshot_ids dir =
  (if Sys.file_exists dir then Sys.readdir dir else [||])
  |> Array.to_list
  |> List.filter_map (fun f ->
         Scanf.sscanf_opt f "snap-%d.bin%!" (fun i -> i))
  |> List.sort (fun a b -> compare b a)

let exists dir = snapshot_ids dir <> []

(* Remove stale [*.tmp] files left by a crash between tmp-write and
   rename (snapshot installs and rotation orphans both use the suffix).
   Only called at open time — recovery ignores these files, but they
   accumulate forever otherwise. *)
let cleanup_tmp ~obs dir =
  let cleaned = ref 0 in
  (if Sys.file_exists dir then Sys.readdir dir else [||])
  |> Array.iter (fun f ->
         if Filename.check_suffix f ".tmp" then
           match Sys.remove (Filename.concat dir f) with
           | () -> incr cleaned
           | exception Sys_error _ -> ());
  if !cleaned > 0 then Trace.count obs "store.tmp_cleaned" !cleaned;
  !cleaned

(* ------------------------------------------------------------------ *)
(* Snapshot write / read                                               *)
(* ------------------------------------------------------------------ *)

let dump_tables tables =
  List.map (fun t -> (Table.schema t, Table.to_list t)) tables

(* Write snapshot [id] atomically: tmp file, fsync, rename, dir fsync.
   A crash at any point leaves either no snap-[id] (older generations
   still recoverable) or a complete one. *)
let write_snapshot ~dir ~obs ~id ~serial ~now ~ddl ~aux ~db =
  let body =
    Codec.encode_snapshot
      {
        Codec.serial;
        now;
        ddl;
        base = dump_tables (Database.base_tables db);
        temp = dump_tables (Database.temp_tables db);
        aux;
      }
  in
  let final = Filename.concat dir (snap_name id) in
  let tmp = final ^ ".tmp" in
  let fd =
    Io.openfile ~site:Fault.Snapshot_write tmp
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  (try
     Io.write fd ~site:Fault.Snapshot_write (snap_magic ^ Wal.frame body);
     Io.fsync fd ~site:Fault.Snapshot_write;
     Unix.close fd
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     (* drop the half-written tmp now rather than waiting for the
        open-time sweep; best effort *)
     (match e with
     | Fault.Crash _ -> ()
     | _ -> ( try Sys.remove tmp with Sys_error _ -> ()));
     raise e);
  Io.rename ~site:Fault.Rotation tmp final;
  fsync_dir dir;
  Trace.count obs "wal.snapshots" 1;
  Trace.count obs "wal.snapshot_bytes" (String.length body)

(* Read and validate snapshot [id]; None when missing, torn, corrupt or
   unreadable (recovery then falls back to the previous generation). *)
let load_snapshot ~dir ~id =
  let path = Filename.concat dir (snap_name id) in
  match Io.read_file ~site:Fault.Recovery_read path with
  | exception Sys_error _ -> None
  | exception Unix.Unix_error _ -> None
  | s -> (
      let m = String.length snap_magic in
      if String.length s < m + 8 || String.sub s 0 m <> snap_magic then None
      else
        let blen = Int32.to_int (String.get_int32_le s m) land 0xFFFFFFFF in
        let crc = Int32.to_int (String.get_int32_le s (m + 4)) land 0xFFFFFFFF in
        if m + 8 + blen <> String.length s then None
        else
          let body = String.sub s (m + 8) blen in
          if Crc32.digest body <> crc then None
          else match Codec.decode_snapshot body with
            | snap -> Some snap
            | exception Codec.Corrupt _ -> None)

(* ------------------------------------------------------------------ *)
(* The durability hook                                                 *)
(* ------------------------------------------------------------------ *)

(* Encode at emit time: the row arrays inside events alias live table
   storage, which later statements mutate in place.  Taking the bytes
   now makes the buffered event immutable for free. *)
(* Buffer even on a dead store: commit uses a non-empty group to tell
   a write statement (must be rejected, typed) from a read (fine). *)
let emit st ev = st.buffer <- Codec.encode_event ev :: st.buffer

let abort st = st.buffer <- []

(* Savepoints over the (newest-first) buffer: the mark is the event
   count at scope entry; rollback drops everything emitted since. *)
let buffer_savepoint st = List.length st.buffer

let buffer_rollback_to st mark =
  let rec drop l k = if k <= 0 then l else
    match l with [] -> [] | _ :: tl -> drop tl (k - 1)
  in
  let len = List.length st.buffer in
  if len > mark then st.buffer <- drop st.buffer (len - mark)

(* Commit with an explicit degradation policy:

   - [Fault.Crash]: the process is dying; store dead, harness recovers.
   - WAL dead (fsync EIO, unhealable append): nothing further can be
     made durable — store dead, typed error propagates, the serving
     layer poisons the batch.
   - append failure with the log healed (ENOSPC/EIO on a write): the
     half-appended group is truncated back off the file, the serial is
     un-bumped, and a typed [Durability] error aborts just this
     statement.  The store stays LIVE (degraded flag set): reads and
     later commits proceed — the canonical disk-full experience. *)
let rec commit st =
  if st.dead then begin
    (* A dead store must not silently accept writes: the in-memory
       mutation would never be durable.  Reads (empty group) proceed. *)
    let had_events = st.buffer <> [] in
    st.buffer <- [];
    if had_events then
      Taupsm_error.raise_error Taupsm_error.Durability
        "store is dead after a storage failure: commit rejected (recover \
         the directory to resume)"
  end
  else begin
    let evs = List.rev st.buffer in
    st.buffer <- [];
    if evs <> [] then begin
      let group_start = Wal.offset st.wal in
      st.serial <- st.serial + 1;
      (* Dirty aux entries ride inside the commit group, ahead of the
         marker.  They are advisory: a truncated group loses them from
         the log (the next snapshot carries the full dump), and replay
         applies them on scan without any prefix obligation. *)
      let auxes =
        List.map
          (fun (name, blob) -> Codec.encode_aux ~name ~blob)
          (st.aux_dirty ())
      in
      (match
         List.iter (Wal.append st.wal) evs;
         List.iter (Wal.append st.wal) auxes;
         Wal.append st.wal (Codec.encode_commit ~serial:st.serial);
         Wal.commit_done st.wal
       with
      | () -> ()
      | exception (Fault.Crash _ as e) ->
          st.dead <- true;
          raise e
      | exception e when Wal.is_dead st.wal ->
          st.dead <- true;
          raise e
      | exception e ->
          st.serial <- st.serial - 1;
          st.degraded <- true;
          Trace.count st.obs "store.commit_aborts" 1;
          Wal.truncate_to st.wal group_start;
          if Wal.is_dead st.wal then st.dead <- true;
          raise e);
      st.commits_since_snap <- st.commits_since_snap + 1;
      Atomic.set st.last_commit (st.snap_id, st.serial, Wal.offset st.wal);
      match st.snapshot_every with
      | Some n when st.commits_since_snap >= max 1 n -> rotate st
      | _ -> ()
    end
  end

(* Rotate to generation [snap_id + 1]: write the new snapshot and open
   the new WAL while the old WAL is still the log of record, then cut
   over.  A crash inside here is safe at every point — either the old
   pair or the new pair is recoverable.

   A snapshot-write failure is survivable: the store falls back to the
   current generation (old WAL still open, every commit still durable)
   and retries at the next rotation window.  A new-WAL failure AFTER
   the snapshot is installed is trickier: recovery would pick the new
   snapshot while fresh commits land in the old WAL — silent loss — so
   the orphan snapshot is neutralized (renamed aside) before falling
   back; only if even that rename fails does the store die. *)
and rotate st =
  let id = st.snap_id + 1 in
  match
    write_snapshot ~dir:st.dir ~obs:st.obs ~id ~serial:st.serial
      ~now:(st.now ()) ~ddl:(st.ddl ()) ~aux:(st.aux ()) ~db:st.db
  with
  | exception (Fault.Crash _ as e) ->
      st.dead <- true;
      raise e
  | exception _ ->
      st.degraded <- true;
      st.commits_since_snap <- 0;
      Trace.count st.obs "store.rotate_fallbacks" 1
  | () -> (
      match
        Wal.create ~policy:st.policy ~obs:st.obs
          (Filename.concat st.dir (wal_name id))
      with
      | exception (Fault.Crash _ as e) ->
          st.dead <- true;
          raise e
      | exception _ -> (
          st.degraded <- true;
          st.commits_since_snap <- 0;
          Trace.count st.obs "store.rotate_fallbacks" 1;
          let orphan = Filename.concat st.dir (snap_name id) in
          match Unix.rename orphan (orphan ^ ".orphan.tmp") with
          | () -> fsync_dir st.dir
          | exception Unix.Unix_error (err, _, _) ->
              st.dead <- true;
              Taupsm_error.raise_error Taupsm_error.Durability
                "rotation failed and orphan snapshot %s cannot be \
                 neutralized (%s): store closed to prevent silent loss"
                (snap_name id) (Unix.error_message err))
      | wal ->
          Wal.close st.wal;
          st.wal <- wal;
          st.snap_id <- id;
          st.commits_since_snap <- 0;
          Atomic.set st.last_commit (id, st.serial, Wal.offset wal))

let hook st =
  {
    Wal_hook.emit = emit st;
    commit = (fun () -> commit st);
    abort = (fun () -> abort st);
    savepoint = (fun () -> buffer_savepoint st);
    rollback_to = buffer_rollback_to st;
  }

(* ------------------------------------------------------------------ *)
(* Attach / recover / resume                                           *)
(* ------------------------------------------------------------------ *)

let init ?(policy = Wal.Batch 16) ?snapshot_every ?(obs = Trace.null)
    ?(aux = fun () -> []) ?(aux_dirty = fun () -> []) ~dir ~db ~now ~ddl () =
  mkdir_p dir;
  ignore (cleanup_tmp ~obs dir);
  let id = match snapshot_ids dir with [] -> 0 | i :: _ -> i + 1 in
  (* a brand-new store has no previous generation to fall back to: a
     storage failure here is typed and the directory left sweepable *)
  let wal =
    try
      write_snapshot ~dir ~obs ~id ~serial:0 ~now:(now ()) ~ddl:(ddl ())
        ~aux:(aux ()) ~db;
      Wal.create ~policy ~obs (Filename.concat dir (wal_name id))
    with Unix.Unix_error (err, _, path) ->
      Taupsm_error.raise_error Taupsm_error.Durability
        "cannot create store generation %d in %s: %s (%s)" id dir
        (Unix.error_message err) path
  in
  fsync_dir dir;
  let st =
    {
      dir;
      policy;
      snapshot_every;
      obs;
      db;
      now;
      ddl;
      aux;
      aux_dirty;
      wal;
      snap_id = id;
      serial = 0;
      commits_since_snap = 0;
      buffer = [];
      dead = false;
      degraded = false;
      last_commit = Atomic.make (id, 0, Wal.offset wal);
    }
  in
  Database.set_wal db (Some (hook st));
  st

(* Apply one replayed event to the recovering database.  Positional
   delete/update records replay through the positional mutators against
   the same row numbering the original run saw, so no predicate
   re-evaluation is needed (or possible — predicates are long gone). *)
let apply_event db ~on_ddl ev =
  match ev with
  | Wal_hook.Row_insert (tname, row) ->
      Table.insert (Database.find_table_exn db tname) row
  | Wal_hook.Rows_delete (tname, positions) ->
      Table.delete_at
        (Database.find_table_exn db tname)
        (Array.to_list positions)
  | Wal_hook.Rows_update (tname, pairs) ->
      Table.update_at (Database.find_table_exn db tname) (Array.to_list pairs)
  | Wal_hook.Table_clear tname -> Table.clear (Database.find_table_exn db tname)
  | Wal_hook.Table_create (sch, temp, rows) ->
      let t = Table.of_rows sch rows in
      if temp then Database.add_temp_table db t else Database.add_table db t
  | Wal_hook.Table_drop tname -> Database.drop_table db tname
  | Wal_hook.Temp_tables_drop -> Database.drop_temp_tables db
  | Wal_hook.Catalog_ddl sql -> on_ddl sql

let recover ?(obs = Trace.null) ?(on_aux = fun _ _ -> ()) ?stop_at_serial ~dir
    ~db ~on_ddl ~on_now () =
  let t0 = Mono_clock.now () in
  Trace.with_span obs "recover" (fun () ->
      let ids = snapshot_ids dir in
      if ids = [] then
        Taupsm_error.raise_error Taupsm_error.Durability
          "no durable store in %s" dir;
      (* newest intact snapshot, falling back generation by generation;
         under [stop_at_serial] a snapshot taken after the target
         serial is useless (its state is already past the mark), so
         fall back until one at or before the target is found *)
      let skipped = ref 0 in
      let rec pick = function
        | [] ->
            Taupsm_error.raise_error Taupsm_error.Durability
              "no usable snapshot in %s (%d generation(s)%s)" dir
              (List.length ids)
              (match stop_at_serial with
              | None -> ", all corrupt"
              | Some n -> Printf.sprintf " corrupt or past serial %d" n)
        | id :: rest -> (
            match load_snapshot ~dir ~id with
            | Some snap
              when (match stop_at_serial with
                   | Some n -> snap.Codec.serial > n
                   | None -> false) ->
                incr skipped;
                Trace.count obs "recover.snapshots_skipped" 1;
                pick rest
            | Some snap -> (id, snap)
            | None ->
                incr skipped;
                Trace.count obs "recover.snapshots_skipped" 1;
                pick rest)
      in
      let id, snap = pick ids in
      Trace.with_span obs "recover.load_snapshot" (fun () ->
          List.iter
            (fun (sch, rows) -> Database.add_table db (Table.of_rows sch rows))
            snap.Codec.base;
          List.iter
            (fun (sch, rows) ->
              Database.add_temp_table db (Table.of_rows sch rows))
            snap.Codec.temp;
          List.iter on_ddl snap.Codec.ddl;
          List.iter (fun (name, blob) -> on_aux name blob) snap.Codec.aux;
          on_now snap.Codec.now);
      (* Replay: buffer each record group, apply only on its intact
         commit marker.  An uncommitted suffix — torn tail, corrupt
         record, or simply no marker yet — is never applied, which is
         the whole committed-prefix guarantee.  [committed] tracks the
         offset just past the last intact commit marker: that — not
         the last intact record — is where {!resume} must truncate, or
         intact-but-uncommitted event records surviving a torn tail
         would be adopted by the next statement's commit marker.

         Under [stop_at_serial] (point-in-time restore) groups with a
         later serial are scanned but not applied: replay freezes at
         the target commit while the scan still validates the rest of
         the log. *)
      let pending = ref [] in
      let commits = ref 0 in
      let serial = ref snap.Codec.serial in
      let committed = ref Wal.header_len in
      let fatal = ref None in
      let frozen = ref false in
      let records = ref 0 in
      let bytes = ref 0 in
      let replay_wal g =
        pending := [];
        committed := Wal.header_len;
        Wal.scan
          (Filename.concat dir (wal_name g))
          ~f:(fun ~off payload ->
                if not !frozen then
                  match Codec.decode_record payload with
                  | Codec.Revent ev -> pending := ev :: !pending
                  | Codec.Raux (name, blob) ->
                      (* Advisory: applied on scan, independent of the
                         commit-marker discipline — even the dirty-drain
                         records of a group whose marker never made it
                         carry valid (merely newer) engine state. *)
                      on_aux name blob
                  | Codec.Rcommit s
                    when (match stop_at_serial with
                         | Some n -> s > n
                         | None -> false) ->
                      frozen := true;
                      pending := []
                  | Codec.Rcommit s ->
                      (* The whole group decoded (every event record's
                         payload parsed before its marker was reached);
                         an apply failure here is a semantically bad but
                         CRC-valid record and must fail recovery loudly:
                         earlier events of the group are already in, so
                         silently stopping would hand back a database
                         with a partially applied statement. *)
                      (match List.iter (apply_event db ~on_ddl) (List.rev !pending)
                       with
                      | () -> ()
                      | exception e ->
                          fatal := Some (s, e);
                          raise e);
                      pending := [];
                      incr commits;
                      serial := s;
                      committed := off)
      in
      (* Replay the picked generation's WAL, then CHAIN into each newer
         generation's WAL while the current one scanned clean to EOF: a
         generation's log begins exactly where its predecessor's ends
         (rotation happens only after a commit), so a corrupt or
         quarantined snapshot costs nothing as long as the WAL chain
         from the last loadable snapshot is unbroken.  A WAL that stops
         early (torn tail, bad CRC) ends the chain — newer logs assume
         a base state this replay never reached. *)
      let rec chain g =
        let scan =
          Trace.with_span obs "recover.replay" (fun () -> replay_wal g)
        in
        (match !fatal with
        | Some (s, e) ->
            Taupsm_error.raise_error Taupsm_error.Durability
              "recovery failed applying committed statement %d — WAL record \
               is CRC-valid but semantically inconsistent (%s)"
              s (Printexc.to_string e)
        | None -> ());
        records := !records + scan.Wal.records;
        bytes := !bytes + scan.Wal.bytes;
        if
          scan.Wal.stop = Wal.Eof
          && !pending = []
          && (not !frozen)
          && Sys.file_exists (Filename.concat dir (wal_name (g + 1)))
        then begin
          Trace.count obs "recover.wal_chained" 1;
          chain (g + 1)
        end
        else (g, scan)
      in
      let live_gen, scan = chain id in
      let seconds = Mono_clock.now () -. t0 in
      Trace.count obs "recover.commits_replayed" !commits;
      Trace.count obs "recover.records" !records;
      Trace.count obs "recover.bytes" !bytes;
      {
        snapshot_id = id;
        wal_generation = live_gen;
        snapshots_skipped = !skipped;
        commits_replayed = !commits;
        records_scanned = !records;
        bytes_scanned = !bytes;
        stop = Wal.stop_string scan.Wal.stop;
        last_serial = !serial;
        snapshot_now = snap.Codec.now;
        wal_good_offset = scan.Wal.good_offset;
        wal_committed_offset = !committed;
        seconds;
      })

let resume ?(policy = Wal.Batch 16) ?snapshot_every ?(obs = Trace.null)
    ?(aux = fun () -> []) ?(aux_dirty = fun () -> []) ~dir ~db ~now ~ddl
    (r : report) =
  ignore (cleanup_tmp ~obs dir);
  (* continue on the generation whose WAL is the live log — past the
     chain, when recovery walked across rotations *)
  let path = Filename.concat dir (wal_name r.wal_generation) in
  let wal =
    (* Truncate to the last intact COMMIT marker, not the last intact
       record: a crash mid-statement leaves that statement's event
       records intact ahead of the marker, and keeping them would let
       the next commit marker adopt a statement that never committed. *)
    if Sys.file_exists path && r.stop <> Wal.stop_string Wal.Bad_magic then
      Wal.reopen ~policy ~obs path ~good_offset:r.wal_committed_offset
    else Wal.create ~policy ~obs path
  in
  let st =
    {
      dir;
      policy;
      snapshot_every;
      obs;
      db;
      now;
      ddl;
      aux;
      aux_dirty;
      wal;
      snap_id = r.wal_generation;
      serial = r.last_serial;
      commits_since_snap = r.commits_replayed;
      buffer = [];
      dead = false;
      degraded = false;
      last_commit =
        Atomic.make (r.wal_generation, r.last_serial, Wal.offset wal);
    }
  in
  Database.set_wal db (Some (hook st));
  st

let snapshot st = if not st.dead then rotate st

(* Append the full aux dump to the live WAL, outside any commit group.
   Used at detach so the last statements' calibration updates (drained
   dirty sets ride only on the NEXT commit) reach disk: recovery applies
   tag-10 records on scan, so a trailing marker-less record still
   loads — {!resume} then truncates it away and the engine re-flushes. *)
let flush_aux st =
  if not st.dead then begin
    let entries = st.aux () in
    if entries <> [] then begin
      List.iter
        (fun (name, blob) -> Wal.append st.wal (Codec.encode_aux ~name ~blob))
        entries;
      Wal.sync st.wal
    end
  end

let detach st =
  if not st.dead then begin
    Database.set_wal st.db None;
    Wal.close st.wal;
    st.dead <- true
  end

(* Group-commit hook: force the WAL to disk now.  A store attached with
   policy [Off] defers every per-commit fsync to explicit calls here —
   the serving layer's writer lane executes a batch of statements, syncs
   once, and only then acks every session in the batch. *)
let sync st = if not st.dead then Wal.sync st.wal

let serial st = st.serial
let is_dead st = st.dead
let is_degraded st = st.degraded
let last_commit st = Atomic.get st.last_commit

(* ------------------------------------------------------------------ *)
(* Online scrub                                                        *)
(* ------------------------------------------------------------------ *)

type gen_status = {
  gen_id : int;
  snap_ok : bool;
  snap_serial : int;  (* -1 when the snapshot is unreadable *)
  wal_stop : string;
  wal_records : int;
  wal_commits : int;
  wal_last_serial : int;  (* snapshot serial when no commit is intact *)
  gen_quarantined : string list;
}

type scrub_report = {
  generations : gen_status list;  (* newest first *)
  intact_generations : int;
  recoverable_serial : int;  (* -1 when nothing is recoverable *)
  quarantined : string list;
}

(* CRC-walk one generation without touching any database. *)
let scrub_generation ~dir id =
  let snap = load_snapshot ~dir ~id in
  let snap_serial = match snap with Some s -> s.Codec.serial | None -> -1 in
  let commits = ref 0 in
  let last = ref snap_serial in
  let scan =
    Wal.scan
      (Filename.concat dir (wal_name id))
      ~f:(fun ~off:_ payload ->
        match Codec.decode_record payload with
        | Codec.Revent _ | Codec.Raux _ -> ()
        | Codec.Rcommit s ->
            incr commits;
            last := s)
  in
  {
    gen_id = id;
    snap_ok = snap <> None;
    snap_serial;
    wal_stop = Wal.stop_string scan.Wal.stop;
    wal_records = scan.Wal.records;
    wal_commits = !commits;
    wal_last_serial = !last;
    gen_quarantined = [];
  }

(* Scrub every retained generation: CRC-walk each snapshot and WAL,
   quarantine corrupt files of generations OLDER than the newest one
   (renamed to [*.quarantine], never deleted), and report which commits
   remain recoverable.  The newest generation is never touched — it may
   be live under a serving store, and even offline its corruption is an
   operator decision, not a janitorial one.  A torn WAL tail is a
   normal crash artifact, not corruption: the committed prefix ahead of
   it is good, so the file stays.  Reads go through {!Io.read_file}, so
   scrub itself is exercised by the fault harness; re-running after any
   interruption is safe because quarantine renames are idempotent. *)
(* Generations present in [dir]: union of snapshot and WAL ids, newest
   first — after a quarantine a generation can be WAL-only, and that
   WAL is still load-bearing for chained recovery. *)
let generation_ids dir =
  let files = if Sys.file_exists dir then Sys.readdir dir else [||] in
  let ids =
    Array.to_list files
    |> List.filter_map (fun f ->
           match Scanf.sscanf_opt f "snap-%d.bin%!" (fun i -> i) with
           | Some i -> Some i
           | None -> Scanf.sscanf_opt f "wal-%d.log%!" (fun i -> i))
  in
  List.sort_uniq (fun a b -> compare b a) ids

let scrub ?(obs = Trace.null) ?(quarantine = true) ~dir () =
  Trace.with_span obs "scrub" (fun () ->
      let ids = generation_ids dir in
      let quarantined = ref [] in
      let put_aside id g =
        let files = ref [] in
        if not g.snap_ok && Sys.file_exists (Filename.concat dir (snap_name id))
        then files := snap_name id :: !files;
        (match g.wal_stop with
        | "bad_crc" | "bad_record" | "bad_magic" ->
            if Sys.file_exists (Filename.concat dir (wal_name id)) then
              files := wal_name id :: !files
        | _ -> ());
        let moved =
          List.filter
            (fun f ->
              let src = Filename.concat dir f in
              match Unix.rename src (src ^ ".quarantine") with
              | () -> true
              | exception Unix.Unix_error _ -> false)
            !files
        in
        if moved <> [] then begin
          fsync_dir dir;
          Trace.count obs "scrub.quarantined" (List.length moved);
          quarantined := !quarantined @ moved
        end;
        moved
      in
      let statuses = List.map (fun id -> scrub_generation ~dir id) ids in
      (* Only generations STRICTLY OLDER than the newest one with an
         intact snapshot may be quarantined: everything at or above
         that line is (or may become) load-bearing for recovery, and a
         fallback WAL's committed prefix must never disappear while a
         corrupt newer snapshot could still force recovery onto it. *)
      let safe_line =
        List.fold_left
          (fun acc g -> if acc = max_int && g.snap_ok then g.gen_id else acc)
          max_int statuses
      in
      let generations =
        List.map
          (fun g ->
            if quarantine && g.gen_id < safe_line then
              { g with gen_quarantined = put_aside g.gen_id g }
            else g)
          statuses
      in
      let intact =
        List.filter
          (fun g ->
            g.snap_ok
            && (match g.wal_stop with
               | "eof" | "torn_tail" | "missing" -> true
               | _ -> false))
          generations
      in
      let recoverable_serial =
        (* recovery loads the newest loadable snapshot, replays its
           WAL, and chains into each newer generation's WAL while the
           current one scans clean to EOF — mirror that walk here *)
        let rec base = function
          | [] -> None
          | g :: rest -> if g.snap_ok then Some g else base rest
        in
        match base generations with
        | None -> -1
        | Some b ->
            let rec extend serial g =
              match
                List.find_opt (fun s -> s.gen_id = g) generations
              with
              | None -> serial
              | Some st ->
                  let serial = max serial st.wal_last_serial in
                  if st.wal_stop = "eof" then extend serial (g + 1)
                  else serial
            in
            extend b.snap_serial b.gen_id
      in
      Trace.count obs "scrub.generations" (List.length generations);
      {
        generations;
        intact_generations = List.length intact;
        recoverable_serial;
        quarantined = !quarantined;
      })

(* ------------------------------------------------------------------ *)
(* Hot backup                                                          *)
(* ------------------------------------------------------------------ *)

type backup_report = {
  backup_snapshot_id : int;
  backup_serial : int;
  backup_wal_bytes : int;
  backup_snap_bytes : int;
}

let meta_name = "backup.meta"

let write_meta ~target (r : backup_report) =
  let body =
    Printf.sprintf "snapshot_id=%d\nserial=%d\nwal_bytes=%d\nsnap_bytes=%d\n"
      r.backup_snapshot_id r.backup_serial r.backup_wal_bytes
      r.backup_snap_bytes
  in
  let tmp = Filename.concat target (meta_name ^ ".tmp") in
  let oc = open_out_bin tmp in
  output_string oc body;
  close_out oc;
  Unix.rename tmp (Filename.concat target meta_name)

(* Copy generation [id] truncated to [wal_len] committed bytes into
   [target].  The snapshot file is immutable once renamed into place
   and WAL bytes below a committed offset are never rewritten, so the
   copies are consistent even while a serving store keeps appending.
   Each file lands via tmp+rename ({!Io.copy_file}), so a backup
   interrupted at any point leaves no partial file under a final name
   and re-running simply overwrites — idempotent by construction. *)
let backup_pair ~obs ~dir ~target ~id ~serial ~wal_len =
  mkdir_p target;
  let snap_bytes =
    Io.copy_file ~site:Fault.Snapshot_write
      (Filename.concat dir (snap_name id))
      (Filename.concat target (snap_name id))
  in
  let wal_src = Filename.concat dir (wal_name id) in
  let wal_bytes =
    if Sys.file_exists wal_src then
      Io.copy_file ~len:wal_len ~site:Fault.Snapshot_write wal_src
        (Filename.concat target (wal_name id))
    else 0
  in
  let r =
    {
      backup_snapshot_id = id;
      backup_serial = serial;
      backup_wal_bytes = wal_bytes;
      backup_snap_bytes = snap_bytes;
    }
  in
  write_meta ~target r;
  fsync_dir target;
  Trace.count obs "backup.files" 2;
  Trace.count obs "backup.bytes" (snap_bytes + wal_bytes);
  r

(* Hot backup: capture the (snap_id, serial, committed offset) triple
   the commit path maintains atomically, then copy those immutable
   bytes while serving continues.  The archive is itself a valid store
   directory whose recovery ends exactly at the captured commit. *)
let backup st ~target =
  if st.dead then
    Taupsm_error.raise_error Taupsm_error.Durability
      "cannot back up a dead store";
  let id, serial, wal_len = Atomic.get st.last_commit in
  (* a store resumed past a quarantined snapshot has a WAL-only live
     generation; the single-pair archive needs its base snapshot back *)
  if not (Sys.file_exists (Filename.concat st.dir (snap_name id))) then
    Taupsm_error.raise_error Taupsm_error.Durability
      "cannot back up: snapshot generation %d is missing (quarantined?) — \
       take a fresh snapshot first"
      id;
  backup_pair ~obs:st.obs ~dir:st.dir ~target ~id ~serial ~wal_len

(* Cold backup of a store directory nobody is serving from: pick the
   newest intact generation and its committed WAL prefix by scanning. *)
let backup_dir ?(obs = Trace.null) ~dir ~target () =
  let ids = snapshot_ids dir in
  if ids = [] then
    Taupsm_error.raise_error Taupsm_error.Durability
      "no durable store in %s" dir;
  let rec pick = function
    | [] ->
        Taupsm_error.raise_error Taupsm_error.Durability
          "no intact snapshot in %s" dir
    | id :: rest -> (
        match load_snapshot ~dir ~id with
        | Some snap -> (id, snap)
        | None -> pick rest)
  in
  let id, snap = pick ids in
  let serial = ref snap.Codec.serial in
  let committed = ref Wal.header_len in
  ignore
    (Wal.scan
       (Filename.concat dir (wal_name id))
       ~f:(fun ~off payload ->
         match Codec.decode_record payload with
         | Codec.Revent _ | Codec.Raux _ -> ()
         | Codec.Rcommit s ->
             serial := s;
             committed := off));
  backup_pair ~obs ~dir ~target ~id ~serial:!serial ~wal_len:!committed
