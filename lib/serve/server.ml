(* The multi-session server.

   Architecture (one process, OCaml 5 domains):

   - The caller's thread runs the accept loop: bind, listen, accept
     with a 250 ms select tick so a drain request is noticed promptly.
     Admission control lives here — a connection beyond the bounded
     pending queue is told {"error":{"code":"overloaded"}} and closed
     immediately (fail fast, never hang).
   - A fixed pool of worker domains each serves one session at a time:
     read statements execute lock-free against the currently published
     MVCC snapshot (a private {!Sqleval.Catalog.read_view} per
     statement, with the session's guard deadline / row budget); write
     statements are submitted to the single-writer {!Commit_lane},
     which group-commits across sessions and acks only after the
     batch's fsync.
   - Idle sessions are closed after [idle_timeout].
   - Drain (SIGTERM → {!request_drain}): stop accepting, tell queued
     sessions "draining", let in-flight statements finish under
     [drain_deadline], flush the WAL, exit 0.

   Snapshot publication: the lane calls {!Sqleval.Catalog.publish}
   after each batch and stores the frozen catalog in an [Atomic.t].
   Readers [Atomic.get] it per statement — the OCaml memory model makes
   the atomic a release/acquire pair, so everything the writer did
   before publishing is visible — and never block a writer or each
   other. *)

type config = {
  host : string;
  port : int;  (* 0 = ephemeral; see {!port} for the bound one *)
  workers : int;  (* worker domains = max concurrent sessions *)
  queue_depth : int;  (* accepted-but-unserved connections *)
  idle_timeout : float;  (* seconds a session may sit between requests *)
  drain_deadline : float;  (* seconds to let in-flight work finish *)
  stmt_deadline : float option;  (* per-statement guard deadline *)
  max_rows : int option;  (* per-statement guard row budget *)
  retry_seed : int option;
      (* when set, write-lane resubmission jitter is drawn from a
         per-session stream seeded from this, so serve-fuzz failures
         replay with identical backoff timing *)
  default_strategy : Taupsm.Stratum.strategy option;
      (* forced strategy for requests that don't carry their own; None
         (the default) leaves the choice to the engine — the adaptive
         chooser when its [auto_strategy] option is on, MAX otherwise *)
  lane : Commit_lane.config;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7411;
    workers = 4;
    queue_depth = 16;
    idle_timeout = 60.;
    drain_deadline = 10.;
    stmt_deadline = Some 30.;
    max_rows = None;
    retry_seed = None;
    default_strategy = None;
    lane = Commit_lane.default_config;
  }

let protocol_version = 1

type snapshot = {
  snap_cat : Sqleval.Catalog.t;  (* frozen; readers take read_views *)
  snap_now : Sqldb.Date.t;
  snap_serial : int;  (* durable commit serial at publication *)
}

(* Mutable server-wide counters, all under [mmu]. *)
type metrics = {
  mmu : Mutex.t;
  mutable sessions : int;
  mutable admission_rejections : int;
  mutable drained_connections : int;
  mutable idle_closes : int;
  mutable reads : int;
  mutable writes : int;
  mutable errors : int;
  mutable write_retries : int;
  read_latency : Histo.t;
  write_latency : Histo.t;
}

type t = {
  cfg : config;
  master : Sqleval.Engine.t;
  persist : Sqleval.Persist.handle option;
  published : snapshot Atomic.t;
  lane : Commit_lane.t;
  listen_fd : Unix.file_descr;
  bound_port : int;
  stop : bool Atomic.t;
  qmu : Mutex.t;
  qcond : Condition.t;
  connq : Unix.file_descr Queue.t;
  busy : int Atomic.t;  (* workers currently inside a session *)
  active_fds : (int, Unix.file_descr) Hashtbl.t;  (* under qmu *)
  session_ctr : int Atomic.t;
  m : metrics;
  mutable workers : unit Domain.t list;
  started : float;
}

let port t = t.bound_port

(* ------------------------------------------------------------------ *)
(* Publication                                                         *)
(* ------------------------------------------------------------------ *)

let publish_snapshot t =
  let serial =
    match t.persist with Some h -> Sqleval.Persist.serial h | None -> 0
  in
  Atomic.set t.published
    {
      snap_cat = Sqleval.Catalog.publish (Sqleval.Engine.catalog t.master);
      snap_now = Sqleval.Engine.now t.master;
      snap_serial = serial;
    }

(* ------------------------------------------------------------------ *)
(* Statement execution                                                 *)
(* ------------------------------------------------------------------ *)

let strategy_of_string = function
  | "max" -> Ok (Some Taupsm.Stratum.Max)
  | "perst" -> Ok (Some Taupsm.Stratum.Perst)
  | "auto" -> Ok None
      (* no forced strategy: the engine's adaptive chooser decides when
         its [auto_strategy] option is on (the CLI default), else MAX *)
  | s -> Error (Printf.sprintf "unknown strategy %S (want auto|max|perst)" s)

(* Execute a read-only statement against the published snapshot: a
   private read view pins the snapshot for the duration (later
   publications are invisible), with the session's own guard budgets. *)
let exec_read t ?strategy (ts : Sqlast.Ast.temporal_stmt) =
  let snap = Atomic.get t.published in
  let view = Sqleval.Catalog.read_view snap.snap_cat in
  let o = view.Sqleval.Catalog.options in
  let g = o.Sqleval.Catalog.guards in
  g.Guard.deadline_seconds <- t.cfg.stmt_deadline;
  g.Guard.row_budget <- t.cfg.max_rows;
  let e = Sqleval.Engine.of_catalog ~now:snap.snap_now view in
  Taupsm.Stratum.exec ?strategy e ts

(* The lane's executor: runs on the lane domain against the master
   engine, under the submitting session's guard budgets. *)
let exec_write t (req : Commit_lane.request) =
  let g = Sqleval.Engine.guards t.master in
  g.Guard.deadline_seconds <- req.Commit_lane.deadline;
  g.Guard.row_budget <- req.Commit_lane.max_rows;
  let strategy =
    match req.Commit_lane.strategy with
    | Some s -> (
        match strategy_of_string s with Ok st -> st | Error _ -> None)
    | None -> None
  in
  Taupsm.Stratum.exec_sql ?strategy t.master req.Commit_lane.sql

(* ------------------------------------------------------------------ *)
(* Socket plumbing                                                     *)
(* ------------------------------------------------------------------ *)

let rec write_all fd s pos len =
  if len > 0 then
    let n = Unix.write_substring fd s pos len in
    write_all fd s (pos + n) (len - n)

let send_json fd j =
  let line = Json.to_string j ^ "\n" in
  try
    write_all fd line 0 (String.length line);
    true
  with Unix.Unix_error _ -> false

type reader = {
  rfd : Unix.file_descr;
  chunk : Bytes.t;
  mutable acc : string;
}

let make_reader fd = { rfd = fd; chunk = Bytes.create 65536; acc = "" }

type read_ev = Line of string | Eof | Idle | Drain

(* Read one '\n'-terminated line, waking every 250 ms to notice a drain
   request, and giving up after [idle] seconds without a complete
   request.  Statements in flight are unaffected — idleness is only
   measured while waiting for input. *)
let read_line_ev t rd ~idle =
  let deadline = Mono_clock.now () +. idle in
  let rec go () =
    match String.index_opt rd.acc '\n' with
    | Some i ->
        let line = String.sub rd.acc 0 i in
        rd.acc <- String.sub rd.acc (i + 1) (String.length rd.acc - i - 1);
        Line line
    | None ->
        if Atomic.get t.stop then Drain
        else if Mono_clock.now () > deadline then Idle
        else begin
          match Unix.select [ rd.rfd ] [] [] 0.25 with
          | [], _, _ -> go ()
          | _ -> (
              match Unix.read rd.rfd rd.chunk 0 (Bytes.length rd.chunk) with
              | 0 -> Eof
              | n ->
                  rd.acc <- rd.acc ^ Bytes.sub_string rd.chunk 0 n;
                  go ()
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
              | exception Unix.Unix_error _ -> Eof)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          | exception Unix.Unix_error _ -> Eof
        end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let histo_json h =
  Json.Obj
    [
      ("count", Json.Int (Histo.count h));
      ("mean_seconds", Json.Float (Histo.mean h));
      ("p50_seconds", Json.Float (Histo.p50 h));
      ("p90_seconds", Json.Float (Histo.p90 h));
      ("p99_seconds", Json.Float (Histo.p99 h));
      ("max_seconds", Json.Float (Histo.max_value h));
    ]

let stats_json t =
  let ls = Commit_lane.stats t.lane in
  Mutex.lock t.m.mmu;
  let j =
    Json.Obj
      [
        ("uptime_seconds", Json.Float (Mono_clock.now () -. t.started));
        ("sessions", Json.Int t.m.sessions);
        ("busy_workers", Json.Int (Atomic.get t.busy));
        ("admission_rejections", Json.Int t.m.admission_rejections);
        ("idle_closes", Json.Int t.m.idle_closes);
        ("reads", Json.Int t.m.reads);
        ("writes", Json.Int t.m.writes);
        ("errors", Json.Int t.m.errors);
        ("write_retries", Json.Int t.m.write_retries);
        ("read_latency", histo_json t.m.read_latency);
        ("write_latency", histo_json t.m.write_latency);
        ("snapshot_serial", Json.Int (Atomic.get t.published).snap_serial);
        ( "lane",
          Json.Obj
            [
              ("submitted", Json.Int ls.Commit_lane.submitted);
              ("committed", Json.Int ls.Commit_lane.committed);
              ("failed", Json.Int ls.Commit_lane.failed);
              ("rejected", Json.Int ls.Commit_lane.rejected);
              ("batches", Json.Int ls.Commit_lane.batches);
              ("fsyncs", Json.Int ls.Commit_lane.fsyncs);
              ("max_batch", Json.Int ls.Commit_lane.max_batch_size);
              ("queue_depth", Json.Int ls.Commit_lane.queue_depth);
              ( "fsyncs_per_commit",
                Json.Float (Commit_lane.fsyncs_per_commit t.lane) );
              ( "storage_degraded",
                Json.Bool ls.Commit_lane.storage_degraded );
            ] );
        ( "storage_degraded",
          Json.Bool
            (ls.Commit_lane.storage_degraded
            ||
            match t.persist with
            | Some h -> Sqleval.Persist.is_degraded h
            | None -> false) );
      ]
  in
  Mutex.unlock t.m.mmu;
  j

(* ------------------------------------------------------------------ *)
(* Session loop                                                        *)
(* ------------------------------------------------------------------ *)

let classify_error e =
  match e with
  | Taupsm_error.Error te -> te
  | e -> Taupsm.Resilient.classify e

(* ------------------------------------------------------------------ *)
(* Operator ops: scrub and hot backup                                   *)
(* ------------------------------------------------------------------ *)

let scrub_json (r : Durable.Store.scrub_report) =
  Json.Obj
    [
      ("recoverable_serial", Json.Int r.Durable.Store.recoverable_serial);
      ("intact_generations", Json.Int r.Durable.Store.intact_generations);
      ( "quarantined",
        Json.List (List.map (fun f -> Json.Str f) r.Durable.Store.quarantined)
      );
      ( "generations",
        Json.List
          (List.map
             (fun (g : Durable.Store.gen_status) ->
               Json.Obj
                 [
                   ("id", Json.Int g.Durable.Store.gen_id);
                   ("snap_ok", Json.Bool g.Durable.Store.snap_ok);
                   ("wal_stop", Json.Str g.Durable.Store.wal_stop);
                   ("wal_commits", Json.Int g.Durable.Store.wal_commits);
                   ("last_serial", Json.Int g.Durable.Store.wal_last_serial);
                 ])
             r.Durable.Store.generations) );
    ]

let backup_json (r : Durable.Store.backup_report) =
  Json.Obj
    [
      ("snapshot_id", Json.Int r.Durable.Store.backup_snapshot_id);
      ("serial", Json.Int r.Durable.Store.backup_serial);
      ("wal_bytes", Json.Int r.Durable.Store.backup_wal_bytes);
      ("snap_bytes", Json.Int r.Durable.Store.backup_snap_bytes);
    ]

(* Both run on the worker domain serving this session — never on the
   commit lane, which keeps batching while the walk/copy proceeds.
   They only read immutable files (and rename strictly-older corrupt
   generations aside), so concurrent commits are safe. *)
let handle_scrub t ~id fd =
  match t.persist with
  | None ->
      send_json fd
        (Wire.error ?id ~code:"bad_request"
           ~message:"server is running without a durable store" ())
  | Some h -> (
      match
        Sqleval.Persist.scrub ~dir:h.Sqleval.Persist.dir ()
      with
      | r -> send_json fd (Wire.ok_scrub ?id (scrub_json r))
      | exception e ->
          Mutex.lock t.m.mmu;
          t.m.errors <- t.m.errors + 1;
          Mutex.unlock t.m.mmu;
          send_json fd (Wire.error_of ?id (classify_error e)))

let handle_backup t ~id ~target fd =
  match t.persist with
  | None ->
      send_json fd
        (Wire.error ?id ~code:"bad_request"
           ~message:"server is running without a durable store" ())
  | Some h -> (
      match Sqleval.Persist.backup h ~target with
      | r -> send_json fd (Wire.ok_backup ?id (backup_json r))
      | exception e ->
          Mutex.lock t.m.mmu;
          t.m.errors <- t.m.errors + 1;
          Mutex.unlock t.m.mmu;
          send_json fd (Wire.error_of ?id (classify_error e)))

let handle_stmt t ~sid ~id ~sql ~strategy fd =
  match Option.map strategy_of_string strategy with
  | Some (Error msg) ->
      send_json fd (Wire.error ?id ~code:"bad_request" ~message:msg ())
  | (None | Some (Ok _)) as validated -> (
      let strategy =
        match validated with
        | Some (Ok (Some _ as st)) -> st
        | _ -> t.cfg.default_strategy
      in
      match Sqlparse.Parser.parse_temporal_stmt sql with
      | exception e ->
          Mutex.lock t.m.mmu;
          t.m.errors <- t.m.errors + 1;
          Mutex.unlock t.m.mmu;
          send_json fd (Wire.error_of ?id (classify_error e))
      | ts ->
          let snap = Atomic.get t.published in
          let is_read = Taupsm.Stratum.read_only snap.snap_cat ts in
          let t0 = Mono_clock.now () in
          let resp =
            if is_read then begin
              match exec_read t ?strategy ts with
              | r ->
                  let dt = Mono_clock.now () -. t0 in
                  Mutex.lock t.m.mmu;
                  t.m.reads <- t.m.reads + 1;
                  Histo.add t.m.read_latency dt;
                  Mutex.unlock t.m.mmu;
                  Wire.ok_result ?id ~seconds:dt r
              | exception e ->
                  Mutex.lock t.m.mmu;
                  t.m.errors <- t.m.errors + 1;
                  Mutex.unlock t.m.mmu;
                  Wire.error_of ?id (classify_error e)
            end
            else begin
              let on_retry () =
                Mutex.lock t.m.mmu;
                t.m.write_retries <- t.m.write_retries + 1;
                Mutex.unlock t.m.mmu
              in
              let strategy_str =
                match strategy with
                | Some Taupsm.Stratum.Max -> Some "max"
                | Some Taupsm.Stratum.Perst -> Some "perst"
                | None -> None
              in
              let rand =
                (* a fresh per-statement stream decorrelated by session
                   id: deterministic under a fixed seed, distinct
                   across sessions *)
                Option.map
                  (fun seed -> Retry.seeded_rand ~seed:(seed + (sid * 7919)))
                  t.cfg.retry_seed
              in
              match
                Commit_lane.submit_retry ?rand t.lane ~session:sid
                  ?strategy:strategy_str ?deadline:t.cfg.stmt_deadline
                  ?max_rows:t.cfg.max_rows ~on_retry sql
              with
              | Ok (Commit_lane.Done r) ->
                  let dt = Mono_clock.now () -. t0 in
                  Mutex.lock t.m.mmu;
                  t.m.writes <- t.m.writes + 1;
                  Histo.add t.m.write_latency dt;
                  Mutex.unlock t.m.mmu;
                  Wire.ok_result ?id ~seconds:dt r
              | Ok (Commit_lane.Failed e) ->
                  Mutex.lock t.m.mmu;
                  t.m.errors <- t.m.errors + 1;
                  Mutex.unlock t.m.mmu;
                  Wire.error_of ?id (classify_error e)
              | Error `Overloaded ->
                  Mutex.lock t.m.mmu;
                  t.m.errors <- t.m.errors + 1;
                  Mutex.unlock t.m.mmu;
                  Wire.error ?id ~code:"overloaded"
                    ~message:"write lane saturated; retry later" ()
              | Error (`Draining | `Dead) ->
                  Wire.error ?id ~code:"draining"
                    ~message:"server is shutting down" ()
            end
          in
          send_json fd resp)

let serve_session t fd =
  let sid = Atomic.fetch_and_add t.session_ctr 1 in
  Mutex.lock t.m.mmu;
  t.m.sessions <- t.m.sessions + 1;
  Mutex.unlock t.m.mmu;
  Mutex.lock t.qmu;
  Hashtbl.replace t.active_fds sid fd;
  Mutex.unlock t.qmu;
  let cleanup () =
    Mutex.lock t.qmu;
    Hashtbl.remove t.active_fds sid;
    Mutex.unlock t.qmu
  in
  Fun.protect ~finally:cleanup (fun () ->
      if send_json fd (Wire.hello ~session:sid ~version:protocol_version) then begin
        let rd = make_reader fd in
        let rec loop () =
          match read_line_ev t rd ~idle:t.cfg.idle_timeout with
          | Eof -> ()
          | Drain ->
              ignore
                (send_json fd
                   (Wire.error ~code:"draining"
                      ~message:"server is shutting down" ()))
          | Idle ->
              Mutex.lock t.m.mmu;
              t.m.idle_closes <- t.m.idle_closes + 1;
              Mutex.unlock t.m.mmu;
              ignore
                (send_json fd
                   (Wire.error ~code:"idle_timeout"
                      ~message:
                        (Printf.sprintf "no request for %.0fs"
                           t.cfg.idle_timeout)
                      ()))
          | Line line when String.trim line = "" -> loop ()
          | Line line -> (
              match Wire.parse_request line with
              | Error msg ->
                  if
                    send_json fd
                      (Wire.error ~code:"bad_request" ~message:msg ())
                  then loop ()
              | Ok (id, Wire.Ping) ->
                  if send_json fd (Wire.ok_pong ?id ()) then loop ()
              | Ok (id, Wire.Stats) ->
                  if send_json fd (Wire.ok_stats ?id (stats_json t)) then
                    loop ()
              | Ok (id, Wire.Scrub) ->
                  if handle_scrub t ~id fd then loop ()
              | Ok (id, Wire.Backup { target }) ->
                  if handle_backup t ~id ~target fd then loop ()
              | Ok (id, Wire.Close) ->
                  ignore (send_json fd (Wire.ok_bye ?id ()))
              | Ok (id, Wire.Stmt { sql; strategy }) ->
                  if handle_stmt t ~sid ~id ~sql ~strategy fd then loop ())
        in
        loop ()
      end)

(* ------------------------------------------------------------------ *)
(* Workers                                                             *)
(* ------------------------------------------------------------------ *)

let pop_conn t =
  Mutex.lock t.qmu;
  let rec wait () =
    if not (Queue.is_empty t.connq) then Some (Queue.pop t.connq)
    else if Atomic.get t.stop then None
    else begin
      Condition.wait t.qcond t.qmu;
      wait ()
    end
  in
  let c = wait () in
  Mutex.unlock t.qmu;
  c

let rec worker_loop t =
  match pop_conn t with
  | None -> ()
  | Some fd ->
      ignore (Atomic.fetch_and_add t.busy 1);
      (try serve_session t fd with _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ());
      ignore (Atomic.fetch_and_add t.busy (-1));
      worker_loop t

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let create ?(cfg = default_config) ~engine ?persist () =
  (match Sys.os_type with "Unix" -> Sys.set_signal Sys.sigpipe Sys.Signal_ignore | _ -> ());
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.bind listen_fd
    (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
  Unix.listen listen_fd (max 8 (cfg.workers + cfg.queue_depth));
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> cfg.port
  in
  let published =
    Atomic.make
      {
        snap_cat = Sqleval.Catalog.publish (Sqleval.Engine.catalog engine);
        snap_now = Sqleval.Engine.now engine;
        snap_serial =
          (match persist with Some h -> Sqleval.Persist.serial h | None -> 0);
      }
  in
  let m =
    {
      mmu = Mutex.create ();
      sessions = 0;
      admission_rejections = 0;
      drained_connections = 0;
      idle_closes = 0;
      reads = 0;
      writes = 0;
      errors = 0;
      write_retries = 0;
      read_latency = Histo.create ();
      write_latency = Histo.create ();
    }
  in
  let t_ref = ref None in
  let lane =
    Commit_lane.create ~cfg:cfg.lane
      ~exec:(fun req ->
        match !t_ref with
        | Some t -> exec_write t req
        | None -> assert false)
      ~sync_wal:(fun () ->
        match persist with Some h -> Sqleval.Persist.sync h | None -> ())
      ~publish:(fun () ->
        match !t_ref with Some t -> publish_snapshot t | None -> ())
      ()
  in
  let t =
    {
      cfg;
      master = engine;
      persist;
      published;
      lane;
      listen_fd;
      bound_port;
      stop = Atomic.make false;
      qmu = Mutex.create ();
      qcond = Condition.create ();
      connq = Queue.create ();
      busy = Atomic.make 0;
      active_fds = Hashtbl.create 16;
      session_ctr = Atomic.make 1;
      m;
      workers = [];
      started = Mono_clock.now ();
    }
  in
  t_ref := Some t;
  t.workers <-
    List.init cfg.workers (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let request_drain t = Atomic.set t.stop true
(* Signal-handler safe: one atomic store.  The accept loop notices
   within its 250 ms tick and performs the actual teardown. *)

(* Admit or reject one fresh connection. *)
let admit t fd =
  Mutex.lock t.qmu;
  let depth = Queue.length t.connq in
  if depth >= t.cfg.queue_depth then begin
    Mutex.unlock t.qmu;
    Mutex.lock t.m.mmu;
    t.m.admission_rejections <- t.m.admission_rejections + 1;
    Mutex.unlock t.m.mmu;
    ignore
      (send_json fd
         (Wire.error ~code:"overloaded"
            ~message:
              (Printf.sprintf "session queue full (%d waiting, %d workers)"
                 depth t.cfg.workers)
            ()));
    try Unix.close fd with Unix.Unix_error _ -> ()
  end
  else begin
    Queue.push fd t.connq;
    Condition.signal t.qcond;
    Mutex.unlock t.qmu
  end

(* Run the accept loop until drain, then tear down in order: stop
   accepting; bounce still-queued connections; wait (bounded) for
   in-flight statements; force-close laggards; join workers; drain the
   write lane; final fsync + detach.  Returns the exit code. *)
let run t =
  while not (Atomic.get t.stop) do
    match Unix.select [ t.listen_fd ] [] [] 0.25 with
    | [], _, _ -> ()
    | _ -> (
        match Unix.accept ~cloexec:true t.listen_fd with
        | fd, _ -> admit t fd
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | exception Unix.Unix_error _ -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (* bounce queued-but-unserved connections and wake every worker *)
  Mutex.lock t.qmu;
  let pending = ref [] in
  Queue.iter (fun fd -> pending := fd :: !pending) t.connq;
  Queue.clear t.connq;
  Condition.broadcast t.qcond;
  Mutex.unlock t.qmu;
  List.iter
    (fun fd ->
      Mutex.lock t.m.mmu;
      t.m.drained_connections <- t.m.drained_connections + 1;
      Mutex.unlock t.m.mmu;
      ignore
        (send_json fd
           (Wire.error ~code:"draining" ~message:"server is shutting down" ()));
      try Unix.close fd with Unix.Unix_error _ -> ())
    !pending;
  (* in-flight statements get [drain_deadline] to finish *)
  let give_up = Mono_clock.now () +. t.cfg.drain_deadline in
  while Atomic.get t.busy > 0 && Mono_clock.now () < give_up do
    Unix.sleepf 0.02
  done;
  let forced = Atomic.get t.busy > 0 in
  if forced then begin
    (* past the deadline: sever the sockets; workers notice on their
       next read and exit.  Guard deadlines bound the statements
       themselves. *)
    Mutex.lock t.qmu;
    Hashtbl.iter
      (fun _ fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      t.active_fds;
    Mutex.unlock t.qmu
  end;
  List.iter Domain.join t.workers;
  t.workers <- [];
  (* the lane finishes (group-committing) everything already queued *)
  Commit_lane.drain t.lane;
  (match t.persist with
  | Some h ->
      Sqleval.Persist.sync h;
      Sqleval.Persist.detach h
  | None -> ());
  if forced then 1 else 0

(* Convenience for tests: run in a background thread, return a handle
   the test joins after {!request_drain}. *)
let run_async t =
  let code = ref (-1) in
  let th = Thread.create (fun () -> code := run t) () in
  (th, code)

let wait (th, code) =
  Thread.join th;
  !code
