(* Serving-layer tests: JSON wire round-trips, retry backoff
   determinism, latency histograms, MVCC snapshot isolation (COW freeze
   invariants and the qcheck no-torn-reads property driving reader
   domains against a stream of TEMPORAL MERGEs), commit-lane group
   commit / admission / crash poisoning, the kill -9 durability test
   (acked commits survive, unacked vanish), the 300-point crash fuzz
   through the commit lane, and a socket end-to-end pass over a real
   server (DDL + merge + reads, served = direct, stats, admission
   rejection, idle timeout, group commit under 4 writers, drain). *)

module Engine = Sqleval.Engine
module Eval = Sqleval.Eval
module Catalog = Sqleval.Catalog
module RS = Sqleval.Result_set
module Stratum = Taupsm.Stratum
module Json = Serve.Json
module Wire = Serve.Wire
module Lane = Serve.Commit_lane
module Server = Serve.Server
module Client = Serve.Client

let rows_str = function
  | Eval.Rows rs ->
      List.sort compare
        (List.map
           (fun r ->
             String.concat "|"
               (List.map Sqldb.Value.to_string (Array.to_list r)))
           rs.RS.rows)
  | _ -> []

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let cases =
    [
      Json.Null;
      Json.Bool true;
      Json.Int 42;
      Json.Int (-7);
      Json.Float 1.5;
      Json.Str "plain";
      Json.Str "esc \"q\" \\ \n \t \r del";
      Json.Str "unicode \xc3\xa9";
      Json.List [ Json.Int 1; Json.Str "two"; Json.Null ];
      Json.Obj
        [
          ("a", Json.Int 1);
          ("nested", Json.Obj [ ("b", Json.List [ Json.Bool false ]) ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      match Json.parse (Json.to_string v) with
      | Ok v' ->
          Alcotest.(check bool)
            (Printf.sprintf "round-trip %s" (Json.to_string v))
            true (v = v')
      | Error m -> Alcotest.failf "parse failed: %s" m)
    cases;
  (* int/float distinction survives *)
  (match Json.parse "{\"i\":3,\"f\":3.0}" with
  | Ok j ->
      Alcotest.(check (option int)) "int stays int" (Some 3)
        (Json.member_int j "i");
      Alcotest.(check bool) "float stays float" true
        (match Json.member "f" j with Some (Json.Float _) -> true | _ -> false)
  | Error m -> Alcotest.failf "parse failed: %s" m);
  (* malformed inputs are rejected, not crashed on *)
  List.iter
    (fun s ->
      match Json.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed %S" s)
    [ "{"; "[1,"; "\"open"; "{\"a\" 1}"; "1 2"; "nul"; "" ]

let test_wire_requests () =
  (match Wire.parse_request {|{"op":"stmt","sql":"SELECT 1","id":3}|} with
  | Ok (Some (Json.Int 3), Wire.Stmt { sql = "SELECT 1"; strategy = None }) ->
      ()
  | _ -> Alcotest.fail "stmt request");
  (match Wire.parse_request {|{"op":"stmt","sql":"x","strategy":"perst"}|} with
  | Ok (None, Wire.Stmt { strategy = Some "perst"; _ }) -> ()
  | _ -> Alcotest.fail "strategy carried");
  (match Wire.parse_request {|{"op":"ping"}|} with
  | Ok (None, Wire.Ping) -> ()
  | _ -> Alcotest.fail "ping");
  (match Wire.parse_request {|{"op":"stmt"}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "stmt without sql must be rejected");
  match Wire.parse_request "not json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must be rejected"

(* ------------------------------------------------------------------ *)
(* Retry                                                               *)
(* ------------------------------------------------------------------ *)

exception Flaky

let test_retry_backoff () =
  (* deterministic: rand consumes nothing, sleep records delays *)
  let slept = ref [] in
  let attempts = ref 0 in
  let policy =
    {
      Retry.max_attempts = 4;
      base_delay = 0.010;
      multiplier = 2.0;
      max_delay = 1.0;
      jitter = 0.0;
      max_elapsed = None;
    }
  in
  let r =
    Retry.run ~policy
      ~rand:(fun _ -> 0.0)
      ~sleep:(fun d -> slept := d :: !slept)
      ~retryable:(function Flaky -> true | _ -> false)
      (fun () ->
        incr attempts;
        if !attempts < 3 then raise Flaky else 99)
  in
  Alcotest.(check int) "result" 99 r;
  Alcotest.(check int) "attempts" 3 !attempts;
  Alcotest.(check (list (float 1e-9))) "exponential delays" [ 0.020; 0.010 ]
    !slept;
  (* exhaustion raises Gave_up with the last exception *)
  attempts := 0;
  (match
     Retry.run ~policy
       ~rand:(fun _ -> 0.0)
       ~sleep:(fun _ -> ())
       ~retryable:(fun _ -> true)
       (fun () ->
         incr attempts;
         raise Flaky)
   with
  | _ -> Alcotest.fail "must raise"
  | exception Retry.Gave_up { attempts = a; last = Flaky; _ } ->
      Alcotest.(check int) "gave up after max_attempts" 4 a;
      Alcotest.(check int) "tried max_attempts times" 4 !attempts
  | exception e -> Alcotest.failf "wrong exn %s" (Printexc.to_string e));
  (* non-retryable errors propagate immediately *)
  attempts := 0;
  match
    Retry.run ~policy
      ~rand:(fun _ -> 0.0)
      ~sleep:(fun _ -> ())
      ~retryable:(fun _ -> false)
      (fun () ->
        incr attempts;
        raise Flaky)
  with
  | _ -> Alcotest.fail "must raise"
  | exception Flaky -> Alcotest.(check int) "single attempt" 1 !attempts
  | exception e -> Alcotest.failf "wrong exn %s" (Printexc.to_string e)

let test_retry_jitter_bounds () =
  (* jitter only ever shortens the delay, never below (1-jitter)·d *)
  let policy = { Retry.default with jitter = 0.5; base_delay = 0.1 } in
  List.iter
    (fun u ->
      let d = Retry.delay_for policy ~rand:(fun b -> u *. b) ~attempt:1 in
      Alcotest.(check bool)
        (Printf.sprintf "delay in [0.05;0.1] for u=%.2f" u)
        true
        (d >= 0.05 -. 1e-9 && d <= 0.1 +. 1e-9))
    [ 0.0; 0.25; 0.5; 0.99; 1.0 ]

(* ------------------------------------------------------------------ *)
(* Histo                                                               *)
(* ------------------------------------------------------------------ *)

let test_histo () =
  let h = Histo.create () in
  for i = 1 to 100 do
    Histo.add h (float_of_int i /. 1000.)
  done;
  Alcotest.(check int) "count" 100 (Histo.count h);
  let p50 = Histo.p50 h and p99 = Histo.p99 h in
  Alcotest.(check bool) "p50 near 50ms" true (p50 >= 0.045 && p50 <= 0.065);
  Alcotest.(check bool) "p99 near 99ms" true (p99 >= 0.09 && p99 <= 0.11);
  Alcotest.(check bool) "p50 <= p99" true (p50 <= p99);
  (* quantiles never exceed the observed max *)
  Alcotest.(check bool) "p99 <= max" true (p99 <= Histo.max_value h +. 1e-12);
  (* merge = union of observations *)
  let a = Histo.create () and b = Histo.create () in
  for i = 1 to 50 do
    Histo.add a (float_of_int i /. 1000.)
  done;
  for i = 51 to 100 do
    Histo.add b (float_of_int i /. 1000.)
  done;
  Histo.merge ~into:a b;
  Alcotest.(check int) "merged count" 100 (Histo.count a);
  Alcotest.(check (float 1e-9)) "merged p99 = whole p99" (Histo.p99 h)
    (Histo.p99 a)

(* ------------------------------------------------------------------ *)
(* MVCC: COW freeze invariants                                         *)
(* ------------------------------------------------------------------ *)

let test_publish_isolation () =
  let e = Engine.create () in
  Stratum.install e;
  Engine.exec_script e
    "CREATE TABLE t (id INTEGER, v INTEGER);\n\
     INSERT INTO t VALUES (1, 10), (2, 20)";
  let snap = Catalog.publish (Engine.catalog e) in
  (* mutate the live catalog after publication *)
  ignore (Stratum.exec_sql e "UPDATE t SET v = 99 WHERE id = 1");
  ignore (Stratum.exec_sql e "INSERT INTO t VALUES (3, 30)");
  let read cat sql =
    let view = Catalog.read_view cat in
    rows_str (Stratum.exec_sql (Engine.of_catalog view) sql)
  in
  Alcotest.(check (list string))
    "snapshot still sees the pre-publication state"
    [ "1|10"; "2|20" ]
    (read snap "SELECT id, v FROM t");
  Alcotest.(check (list string))
    "live catalog sees the new state"
    [ "1|99"; "2|20"; "3|30" ]
    (read (Engine.catalog e) "SELECT id, v FROM t");
  (* second publication picks the changes up *)
  Alcotest.(check (list string))
    "republished snapshot sees the new state"
    [ "1|99"; "2|20"; "3|30" ]
    (read (Catalog.publish (Engine.catalog e)) "SELECT id, v FROM t")

let test_frozen_table_rejects_mutation () =
  let e = Engine.create () in
  Stratum.install e;
  Engine.exec_script e "CREATE TABLE t (id INTEGER); INSERT INTO t VALUES (1)";
  let snap = Catalog.publish (Engine.catalog e) in
  let frozen = Sqldb.Database.find_table_exn snap.Catalog.db "t" in
  match Sqldb.Table.touch frozen with
  | () -> Alcotest.fail "mutating a frozen snapshot table must raise"
  | exception Taupsm_error.Error te ->
      Alcotest.(check bool) "typed Internal error" true
        (te.Taupsm_error.code = Taupsm_error.Internal)

(* ------------------------------------------------------------------ *)
(* qcheck: no torn reads under concurrent merges                       *)
(* ------------------------------------------------------------------ *)

(* A random stream of TEMPORAL MERGEs runs on the master engine; after
   each statement the catalog is published.  Reader domains repeatedly
   pin a snapshot and evaluate the same sequenced query; every result
   they observe must equal the query's value at some serial prefix of
   the stream — a result matching no prefix is a torn read. *)
let gen_merge_stream =
  QCheck.Gen.(
    let merge =
      let* sku = oneofl [ "a"; "b"; "c" ] in
      let* qty = int_range 1 99 in
      let* m0 = int_range 1 9 in
      let* len = int_range 1 3 in
      let* mode = oneofl [ "UPSERT"; "PATCH"; "REPLACE" ] in
      return
        (Printf.sprintf
           "TEMPORAL MERGE INTO st USING (SELECT '%s' AS sku, %d AS qty, \
            DATE '2010-%02d-01' AS begin_time, DATE '2010-%02d-01' AS \
            end_time) MODE %s"
           sku qty m0 (m0 + len) mode)
    in
    list_size (int_range 8 16) merge)

let setup_merge_engine () =
  let e = Engine.create () in
  Stratum.install e;
  ignore
    (Stratum.exec_sql e
       "CREATE TABLE st (sku VARCHAR(8), qty INT) WITH VALIDTIME TEMPORAL \
        PRIMARY KEY (sku)");
  e

let probe = "VALIDTIME SELECT sku, qty FROM st"

let no_torn_reads_prop stream =
  (* golden prefix states, serial i = after the first i merges *)
  let golden = Hashtbl.create 32 in
  let g = setup_merge_engine () in
  Hashtbl.replace golden (rows_str (Stratum.exec_sql g probe)) 0;
  List.iteri
    (fun i sql ->
      ignore (Stratum.exec_sql g sql);
      Hashtbl.replace golden (rows_str (Stratum.exec_sql g probe)) (i + 1))
    stream;
  (* live run: writer publishes after every merge, readers race it *)
  let e = setup_merge_engine () in
  let published = Atomic.make (Catalog.publish (Engine.catalog e)) in
  let stop = Atomic.make false in
  let torn = Atomic.make 0 in
  let reads = Atomic.make 0 in
  let readers =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            while not (Atomic.get stop) do
              let snap = Atomic.get published in
              let view = Catalog.read_view snap in
              let r = rows_str (Stratum.exec_sql (Engine.of_catalog view) probe) in
              Atomic.incr reads;
              if not (Hashtbl.mem golden r) then Atomic.incr torn
            done))
  in
  List.iter
    (fun sql ->
      ignore (Stratum.exec_sql e sql);
      Atomic.set published (Catalog.publish (Engine.catalog e)))
    stream;
  (* let readers observe the final state too *)
  let deadline = Mono_clock.now () +. 0.05 in
  while Mono_clock.now () < deadline do
    Domain.cpu_relax ()
  done;
  Atomic.set stop true;
  List.iter Domain.join readers;
  if Atomic.get torn > 0 then
    QCheck.Test.fail_reportf "%d torn read(s) out of %d" (Atomic.get torn)
      (Atomic.get reads)
  else true

let qcheck_no_torn_reads =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:5
       ~name:"reader domains only ever see committed prefix states"
       (QCheck.make gen_merge_stream)
       no_torn_reads_prop)

(* ------------------------------------------------------------------ *)
(* Commit lane                                                         *)
(* ------------------------------------------------------------------ *)

let test_lane_group_commit () =
  let executed = ref [] in
  let syncs = ref 0 in
  let lane =
    Lane.create
      ~cfg:{ Lane.default_config with batch_window = 0.02 }
      ~exec:(fun req ->
        executed := req.Lane.sql :: !executed;
        Eval.Unit)
      ~sync_wal:(fun () -> incr syncs)
      ~publish:(fun () -> ())
      ()
  in
  (* concurrent submitters: acks arrive, every exec precedes its ack *)
  let n = 8 in
  let acked = Atomic.make 0 in
  let threads =
    List.init n (fun i ->
        Thread.create
          (fun () ->
            match Lane.submit lane ~session:i (Printf.sprintf "s%d" i) with
            | Error _ -> ()
            | Ok req -> (
                match Lane.await lane req with
                | Lane.Done _ -> Atomic.incr acked
                | Lane.Failed _ -> ()))
          ())
  in
  List.iter Thread.join threads;
  Lane.drain lane;
  Alcotest.(check int) "all acked" n (Atomic.get acked);
  Alcotest.(check int) "all executed" n (List.length !executed);
  let s = Lane.stats lane in
  Alcotest.(check int) "committed" n s.Lane.committed;
  Alcotest.(check bool)
    (Printf.sprintf "grouped: %d fsyncs for %d commits" !syncs n)
    true
    (!syncs = s.Lane.fsyncs && !syncs <= n);
  Alcotest.(check bool) "fsyncs/commit <= 1" true
    (Lane.fsyncs_per_commit lane <= 1.0)

let test_lane_overload_rejection () =
  let release = Atomic.make false in
  let lane =
    Lane.create
      ~cfg:{ Lane.default_config with queue_cap = 2; batch_window = 0. }
      ~exec:(fun _ ->
        while not (Atomic.get release) do
          Thread.yield ()
        done;
        Eval.Unit)
      ~sync_wal:(fun () -> ())
      ~publish:(fun () -> ())
      ()
  in
  (* first submission is picked up by the lane; fill the queue behind it *)
  let first = Lane.submit lane ~session:0 "w0" in
  Alcotest.(check bool) "first accepted" true (Result.is_ok first);
  Unix.sleepf 0.05;
  (* lane is stuck in exec; the queue holds up to queue_cap more *)
  let accepted = ref [] in
  let rejections = ref 0 in
  for i = 1 to 4 do
    match Lane.submit lane ~session:i (Printf.sprintf "w%d" i) with
    | Ok r -> accepted := r :: !accepted
    | Error `Overloaded -> incr rejections
    | Error _ -> Alcotest.fail "unexpected rejection kind"
  done;
  Alcotest.(check int) "queue_cap accepted" 2 (List.length !accepted);
  Alcotest.(check int) "rest rejected fast" 2 !rejections;
  Atomic.set release true;
  (match first with
  | Ok r -> (
      match Lane.await lane r with
      | Lane.Done _ -> ()
      | Lane.Failed e -> Alcotest.failf "first failed %s" (Printexc.to_string e))
  | Error _ -> ());
  Lane.drain lane;
  let s = Lane.stats lane in
  Alcotest.(check int) "rejected counter" 2 s.Lane.rejected;
  (* a drained lane refuses everything *)
  match Lane.submit lane ~session:9 "late" with
  | Error (`Draining | `Dead) -> ()
  | _ -> Alcotest.fail "post-drain submit must be rejected"

let test_lane_crash_poisons () =
  let lane =
    Lane.create
      ~cfg:{ Lane.default_config with batch_window = 0. }
      ~exec:(fun req ->
        if req.Lane.sql = "boom" then raise (Fault.Crash "injected")
        else Eval.Unit)
      ~sync_wal:(fun () -> ())
      ~publish:(fun () -> ())
      ()
  in
  (match Lane.submit lane ~session:0 "ok" with
  | Ok r -> (
      match Lane.await lane r with
      | Lane.Done _ -> ()
      | Lane.Failed _ -> Alcotest.fail "pre-crash statement must commit")
  | Error _ -> Alcotest.fail "submit");
  (match Lane.submit lane ~session:0 "boom" with
  | Ok r -> (
      match Lane.await lane r with
      | Lane.Failed (Taupsm_error.Error te) ->
          Alcotest.(check bool) "typed Durability failure" true
            (te.Taupsm_error.code = Taupsm_error.Durability)
      | Lane.Failed e -> Alcotest.failf "untyped %s" (Printexc.to_string e)
      | Lane.Done _ -> Alcotest.fail "crashed statement must not ack")
  | Error _ -> Alcotest.fail "submit");
  (* lane is dead: fail fast, never hang *)
  Unix.sleepf 0.05;
  (match Lane.submit lane ~session:0 "after" with
  | Error `Dead -> ()
  | Ok r -> (
      match Lane.await lane r with
      | Lane.Failed _ -> ()
      | Lane.Done _ -> Alcotest.fail "post-crash statement must not commit")
  | Error _ -> ());
  Alcotest.(check bool) "crash recorded" true (Lane.crashed lane <> None);
  Lane.drain lane

(* ------------------------------------------------------------------ *)
(* kill -9: acked commits survive, unacked vanish                      *)
(* ------------------------------------------------------------------ *)

let stmt_of_serial i = Printf.sprintf "INSERT INTO killme VALUES (%d, %d)" i (i * 7)

let kill9_env = "TAUPSM_KILL9_CHILD"

(* The victim process: an endless single-session write stream through a
   group-commit lane over a real store, reporting every ACK on stdout
   only after the lane acks (= after the batch fsync).  Runs as a
   re-exec of the test binary because [Unix.fork] is unavailable once
   any domain has been spawned in this process. *)
let kill9_child dir =
  (try
     let e = Engine.create () in
     Stratum.install e;
     let h =
       Sqleval.Persist.attach ~policy:Durable.Wal.Off ~snapshot_every:16 ~dir e
     in
     ignore (Stratum.exec_sql e "CREATE TABLE killme (a INTEGER, b INTEGER)");
     Sqleval.Persist.sync h;
     let lane =
       Lane.create
         ~cfg:{ Lane.default_config with batch_window = 0. }
         ~exec:(fun req -> Stratum.exec_sql e req.Lane.sql)
         ~sync_wal:(fun () -> Sqleval.Persist.sync h)
         ~publish:(fun () -> ())
         ()
     in
     let i = ref 0 in
     while true do
       incr i;
       match Lane.submit lane ~session:0 (stmt_of_serial !i) with
       | Error _ -> raise Exit
       | Ok req -> (
           match Lane.await lane req with
           | Lane.Done _ ->
               let line = Printf.sprintf "%d\n" !i in
               ignore
                 (Unix.write_substring Unix.stdout line 0 (String.length line))
           | Lane.Failed _ -> raise Exit)
     done
   with _ -> Unix._exit 1);
  Unix._exit 0

(* Intercept child mode before Alcotest ever starts. *)
let () =
  match Sys.getenv_opt kill9_env with
  | Some dir -> kill9_child dir
  | None -> ()

let test_kill9_acked_commits_survive () =
  let dir = Filename.temp_dir "taupsm_kill9" "" in
  let r_fd, w_fd = Unix.pipe () in
  let env =
    Array.append (Unix.environment ())
      [| Printf.sprintf "%s=%s" kill9_env dir |]
  in
  let pid =
    Unix.create_process_env Sys.executable_name
      [| Sys.executable_name |]
      env Unix.stdin w_fd Unix.stderr
  in
  Unix.close w_fd;
  Fun.protect ~finally:(fun () -> try Unix.close r_fd with Unix.Unix_error _ -> ())
  @@ fun () ->
      (* read acks until we have enough mid-load, then SIGKILL *)
      let buf = Bytes.create 4096 in
      let acc = Buffer.create 256 in
      let acked = ref 0 in
      let deadline = Unix.gettimeofday () +. 30. in
      while !acked < 40 && Unix.gettimeofday () < deadline do
        match Unix.read r_fd buf 0 (Bytes.length buf) with
        | 0 -> Alcotest.fail "child died before 40 acks"
        | n ->
            Buffer.add_subbytes acc buf 0 n;
            (* count only integer lines: the runtime may print its own
               banner lines on the child's stdout before the acks *)
            acked :=
              List.length
                (List.filter_map int_of_string_opt
                   (String.split_on_char '\n' (Buffer.contents acc)))
      done;
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      Unix.close r_fd;
      let acked_serials =
        List.filter_map int_of_string_opt
          (String.split_on_char '\n' (Buffer.contents acc))
      in
      let max_acked = List.fold_left max 0 acked_serials in
      Alcotest.(check bool) "killed mid-load" true (max_acked >= 40);
      (* recovery: every acked serial survives; state = exact prefix *)
      let e', report = Sqleval.Persist.recover ~dir () in
      let s = report.Durable.Store.last_serial in
      Alcotest.(check bool)
        (Printf.sprintf "recovered serial %d >= max acked %d" s max_acked)
        true
        (s >= max_acked + 1 (* +1: the CREATE TABLE commit *));
      let replay = Engine.create () in
      Stratum.install replay;
      ignore (Stratum.exec_sql replay "CREATE TABLE killme (a INTEGER, b INTEGER)");
      for i = 1 to s - 1 do
        ignore (Stratum.exec_sql replay (stmt_of_serial i))
      done;
      (match
         Taupsm.Resilient.db_diff (Engine.database replay) (Engine.database e')
       with
      | None -> ()
      | Some diff -> Alcotest.failf "recovered state is not a prefix: %s" diff);
      (* unacked inserts vanished: row count is exactly s - 1 *)
      (match (Engine.query e' "SELECT COUNT(*) AS n FROM killme").RS.rows with
      | [ [| Sqldb.Value.Int n |] ] ->
          Alcotest.(check int) "exactly the committed prefix" (s - 1) n
      | _ -> Alcotest.fail "count shape");
      rm_rf dir

(* ------------------------------------------------------------------ *)
(* Serve fuzz: crash points under concurrent group commit              *)
(* ------------------------------------------------------------------ *)

let fuzz_stmts_of s =
  [
    Printf.sprintf "CREATE TABLE fzs_%d (id INTEGER, v INTEGER)" s;
    Printf.sprintf "INSERT INTO fzs_%d VALUES (1, 10), (2, 20), (3, 30)" s;
    Printf.sprintf "UPDATE fzs_%d SET v = v + 1 WHERE id = 2" s;
    Printf.sprintf
      "CREATE TABLE fzt_%d (sku VARCHAR(8), qty INT) WITH VALIDTIME TEMPORAL \
       PRIMARY KEY (sku)"
      s;
    Printf.sprintf
      "TEMPORAL MERGE INTO fzt_%d USING (SELECT 'a' AS sku, 5 AS qty, DATE \
       '2010-01-01' AS begin_time, DATE '2010-06-01' AS end_time) MODE UPSERT"
      s;
    Printf.sprintf "DELETE FROM fzs_%d WHERE id = 3" s;
  ]

(* Four submitter threads race disjoint statement streams into the
   commit lane over a durable store whose every write is under a seeded
   byte budget; returns the lane's execution order and the acked
   statements, or [None] when the crash hit attach.  All mutation stays
   on the lane domain. *)
let fuzz_trial ~sessions dir =
  let e = Engine.create () in
  Stratum.install e;
  let order = ref [] and omu = Mutex.create () in
  let acked = ref [] and amu = Mutex.create () in
  match
    Sqleval.Persist.attach ~policy:Durable.Wal.Off ~snapshot_every:8 ~dir e
  with
  | exception Fault.Crash _ -> None
  | h ->
      let lane =
        Lane.create
          ~cfg:{ Lane.default_config with batch_window = 0.0 }
          ~on_exec:(fun sql ->
            Mutex.protect omu (fun () -> order := sql :: !order))
          ~exec:(fun req -> Stratum.exec_sql e req.Lane.sql)
          ~sync_wal:(fun () -> Sqleval.Persist.sync h)
          ~publish:(fun () -> ())
          ()
      in
      let threads =
        List.init sessions (fun s ->
            Thread.create
              (fun () ->
                List.iter
                  (fun sql ->
                    match Lane.submit lane ~session:s sql with
                    | Error _ -> ()
                    | Ok req -> (
                        match Lane.await lane req with
                        | Lane.Done _ ->
                            Mutex.protect amu (fun () -> acked := sql :: !acked)
                        | Lane.Failed _ -> ()))
                  (fuzz_stmts_of s))
              ())
      in
      List.iter Thread.join threads;
      Lane.drain lane;
      if not (Durable.Store.is_dead (Sqleval.Persist.store h)) then
        Sqleval.Persist.detach h;
      Some (List.rev !order, !acked)

(* 300 crash points.  Recovery must reproduce the replay of exactly the
   first [last_serial] statements of the lane's order, and every
   statement acked before the crash must lie inside that prefix: an ack
   strictly follows its batch's fsync, so a lost acked commit is a
   durability lie. *)
let test_serve_fuzz () =
  let sessions = 4 in
  let total =
    let big = 1 lsl 30 in
    Fault.arm_crash ~at_bytes:big;
    let dir = Filename.temp_dir "taupsm_serve_fuzz_measure" "" in
    ignore (fuzz_trial ~sessions dir);
    rm_rf dir;
    let remaining = Option.value ~default:0 (Fault.crash_armed ()) in
    Fault.disarm_crash ();
    big - remaining
  in
  let rng = Random.State.make [| 0x5e2; sessions |] in
  let violations = ref [] in
  let violation fmt =
    Printf.ksprintf (fun m -> violations := m :: !violations) fmt
  in
  for _ = 1 to 300 do
    let at_bytes = Random.State.int rng total in
    let dir = Filename.temp_dir "taupsm_serve_fuzz" "" in
    Fault.arm_crash ~at_bytes;
    let outcome = fuzz_trial ~sessions dir in
    Fault.disarm_crash ();
    (match outcome with
    | None -> (
        (* attach crashed mid-snapshot: recovery must still work *)
        if Durable.Store.exists dir then
          match Sqleval.Persist.recover ~dir () with
          | _ -> ()
          | exception exn ->
              violation "crash@%d: attach-leg recovery raised %s" at_bytes
                (Printexc.to_string exn))
    | Some (order, acked) -> (
        match Sqleval.Persist.recover ~dir () with
        | exception exn ->
            violation "crash@%d: recovery raised %s" at_bytes
              (Printexc.to_string exn)
        | e', report ->
            let s = report.Durable.Store.last_serial in
            if s > List.length order then
              violation "crash@%d: serial %d exceeds %d executed" at_bytes s
                (List.length order)
            else begin
              let replay = Engine.create () in
              Stratum.install replay;
              List.iteri
                (fun i sql -> if i < s then ignore (Stratum.exec_sql replay sql))
                order;
              (match
                 Taupsm.Resilient.db_diff (Engine.database replay)
                   (Engine.database e')
               with
              | None -> ()
              | Some diff -> violation "crash@%d serial=%d: %s" at_bytes s diff);
              List.iter
                (fun sql ->
                  let idx = ref (-1) in
                  List.iteri (fun i o -> if o = sql then idx := i) order;
                  if !idx < 0 || !idx >= s then
                    violation
                      "crash@%d: acked commit lost (index %d, recovered \
                       prefix %d): %s"
                      at_bytes !idx s sql)
                acked
            end));
    rm_rf dir
  done;
  Alcotest.(check (list string)) "violations" [] (List.rev !violations)

(* ------------------------------------------------------------------ *)
(* Socket end-to-end                                                   *)
(* ------------------------------------------------------------------ *)

let base_cfg =
  {
    Server.host = "127.0.0.1";
    port = 0;
    workers = 2;
    queue_depth = 4;
    idle_timeout = 60.;
    drain_deadline = 5.;
    stmt_deadline = Some 30.;
    max_rows = None;
    retry_seed = None;
    default_strategy = None;
    lane = Lane.default_config;
  }

let with_server ?(cfg = base_cfg) f =
  let e = Engine.create () in
  Stratum.install e;
  let srv = Server.create ~cfg ~engine:e () in
  let handle = Server.run_async srv in
  Fun.protect
    ~finally:(fun () ->
      Server.request_drain srv;
      ignore (Server.wait handle))
    (fun () -> f srv (Server.port srv))

(* 2000 rows in 16 groups, loaded 200 rows per statement. *)
let kv_load =
  "CREATE TABLE kv (id INTEGER, grp INTEGER, v INTEGER)"
  :: List.init 10 (fun c ->
         "INSERT INTO kv VALUES "
         ^ String.concat ", "
             (List.init 200 (fun i ->
                  let id = (c * 200) + i in
                  Printf.sprintf "(%d, %d, %d)" id (id mod 16) (id * 7 mod 1000))))

let test_e2e_session () =
  with_server (fun _srv port ->
      let c = Client.connect ~port () in
      Alcotest.(check bool) "session id assigned" true (Client.session c >= 1);
      let r =
        Client.stmt c
          "CREATE TABLE st (sku VARCHAR(8), qty INT) WITH VALIDTIME TEMPORAL \
           PRIMARY KEY (sku)"
      in
      Alcotest.(check bool) "ddl ok" true (Client.ok r);
      let r =
        Client.stmt c
          "TEMPORAL MERGE INTO st USING (SELECT 'a' AS sku, 5 AS qty, DATE \
           '2010-01-01' AS begin_time, DATE '2010-06-01' AS end_time) MODE \
           UPSERT"
      in
      Alcotest.(check bool) "merge ok" true (Client.ok r);
      Alcotest.(check (option int)) "merge affected" (Some 1) (Client.affected r);
      let r = Client.stmt c "VALIDTIME SELECT sku, qty FROM st" in
      Alcotest.(check bool) "read ok" true (Client.ok r);
      (match Client.rows r with
      | Some (cols, [ row ]) ->
          Alcotest.(check bool) "cols include sku" true (List.mem "sku" cols);
          Alcotest.(check bool) "row has the merged values" true
            (List.mem (Json.Str "a") row && List.mem (Json.Int 5) row)
      | _ -> Alcotest.fail "rows shape");
      (* errors are typed, session survives them *)
      let r = Client.stmt c "SELECT nope FROM missing" in
      Alcotest.(check bool) "error not ok" true (not (Client.ok r));
      Alcotest.(check bool) "error has a code" true (Client.error_code r <> None);
      let r = Client.stmt c ~strategy:"bogus" "SELECT 1" in
      Alcotest.(check (option string)) "bad strategy is bad_request"
        (Some "bad_request") (Client.error_code r);
      (* stats shape *)
      let r = Client.stats c in
      Alcotest.(check bool) "stats ok" true (Client.ok r);
      (match Json.member "stats" r with
      | Some stats ->
          List.iter
            (fun k ->
              Alcotest.(check bool) (Printf.sprintf "stats.%s present" k) true
                (Json.member k stats <> None))
            [
              "sessions"; "reads"; "writes"; "admission_rejections";
              "read_latency"; "write_latency"; "lane"; "snapshot_serial";
            ]
      | None -> Alcotest.fail "stats payload");
      let r = Client.ping c in
      Alcotest.(check bool) "pong" true (Client.ok r);
      (* served = direct: the same stream through the session and through
         a direct engine agrees result for result *)
      let direct = Engine.create () in
      Stratum.install direct;
      List.iter
        (fun sql ->
          let resp = Client.stmt c sql in
          Alcotest.(check bool) (sql ^ ": served ok") true (Client.ok resp);
          let expect =
            match Stratum.exec_sql direct sql with
            | Eval.Rows rs ->
                Some
                  (List.sort compare
                     (List.map
                        (fun row ->
                          Json.to_string
                            (Json.List
                               (List.map Wire.json_of_value (Array.to_list row))))
                        rs.RS.rows))
            | _ -> None
          in
          Alcotest.(check (option (list string)))
            (sql ^ ": served = direct") expect (Client.row_bag resp))
        (kv_load
        @ [
            "CREATE TABLE pf (id INTEGER, v INTEGER)";
            "INSERT INTO pf VALUES (1, 10), (2, 20), (3, 30), (4, 40)";
            "UPDATE pf SET v = v + 5 WHERE id <= 2";
            "SELECT id, v FROM pf";
            "DELETE FROM pf WHERE id = 4";
            "SELECT COUNT(*) AS n, SUM(v) AS s FROM pf";
            "SELECT grp, COUNT(*) AS n FROM kv GROUP BY grp";
          ]);
      Client.close c)

let test_e2e_admission_control () =
  with_server
    ~cfg:{ base_cfg with workers = 1; queue_depth = 1 }
    (fun _srv port ->
      (* first session occupies the single worker *)
      let c1 = Client.connect ~port () in
      let r = Client.stmt c1 "SELECT 1" in
      Alcotest.(check bool) "first session works" true (Client.ok r);
      (* a raw connection parks in the (depth-1) admission queue; no
         hello arrives until a worker frees, so don't read from it *)
      let parked = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect parked
        (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
      Unix.sleepf 0.3;
      (* third connection: queue full -> immediate typed rejection *)
      (match Client.connect ~port () with
      | c3 ->
          Client.abandon c3;
          Alcotest.fail "third connection must be rejected"
      | exception Client.Protocol_error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "typed overloaded rejection (%s)" msg)
            true
            (Astring.String.is_infix ~affix:"overloaded" msg));
      (try Unix.close parked with Unix.Unix_error _ -> ());
      Client.close c1)

let test_e2e_idle_timeout () =
  with_server
    ~cfg:{ base_cfg with idle_timeout = 0.3 }
    (fun _srv port ->
      let c = Client.connect ~port () in
      Unix.sleepf 0.8;
      (* the server has sent an idle_timeout error and closed; the next
         request sees one or the other depending on timing *)
      match Client.stmt c "SELECT 1" with
      | r ->
          Alcotest.(check (option string)) "idle_timeout error"
            (Some "idle_timeout") (Client.error_code r);
          Client.abandon c
      | exception Client.Protocol_error _ -> Client.abandon c)

(* Four writer sessions racing 80 single-row UPDATEs each into a live
   server over a store must share fsyncs: the commit lane groups
   concurrent commits, so fsyncs per commit stays strictly below 1. *)
let test_e2e_group_commit () =
  let dir = Filename.temp_dir "taupsm_serve_gc" "" in
  let e = Engine.create () in
  Stratum.install e;
  let h = Sqleval.Persist.attach ~policy:Durable.Wal.Off ~dir e in
  List.iter (fun sql -> ignore (Stratum.exec_sql e sql)) kv_load;
  let srv =
    Server.create
      ~cfg:{ base_cfg with workers = 8; queue_depth = 64 }
      ~engine:e ~persist:h ()
  in
  let handle = Server.run_async srv in
  let port = Server.port srv in
  let lane_stats () =
    let c = Client.connect ~port () in
    let lane =
      Option.bind (Json.member "stats" (Client.stats c)) (Json.member "lane")
    in
    Client.close c;
    match lane with
    | Some l ->
        ( Option.value ~default:0 (Json.member_int l "fsyncs"),
          Option.value ~default:0 (Json.member_int l "committed") )
    | None -> Alcotest.fail "stats carry no lane"
  in
  let f0, c0 = lane_stats () in
  let errors = Atomic.make 0 in
  let writers =
    List.init 4 (fun w ->
        Thread.create
          (fun () ->
            let c = Client.connect ~port () in
            for i = 1 to 80 do
              let sql =
                Printf.sprintf "UPDATE kv SET v = v + 1 WHERE id = %d"
                  ((w * 80) + i)
              in
              if not (Client.ok (Client.stmt c sql)) then Atomic.incr errors
            done;
            Client.close c)
          ())
  in
  List.iter Thread.join writers;
  let f1, c1 = lane_stats () in
  Server.request_drain srv;
  Alcotest.(check int) "drain exits 0" 0 (Server.wait handle);
  rm_rf dir;
  Alcotest.(check int) "no write errors" 0 (Atomic.get errors);
  Alcotest.(check int) "every UPDATE committed" 320 (c1 - c0);
  let per_commit = float_of_int (f1 - f0) /. float_of_int (c1 - c0) in
  Alcotest.(check bool)
    (Printf.sprintf "fsyncs/commit %.3f < 1.0" per_commit)
    true (per_commit < 1.0)

let test_e2e_drain () =
  let e = Engine.create () in
  Stratum.install e;
  let srv = Server.create ~cfg:base_cfg ~engine:e () in
  let handle = Server.run_async srv in
  let port = Server.port srv in
  let c = Client.connect ~port () in
  ignore (Client.stmt c "CREATE TABLE t (x INTEGER)");
  ignore (Client.stmt c "INSERT INTO t VALUES (1)");
  Server.request_drain srv;
  let code = Server.wait handle in
  Alcotest.(check int) "graceful drain exits 0" 0 code;
  (* the draining server told the session before closing it *)
  (match Client.stmt c "SELECT * FROM t" with
  | r ->
      Alcotest.(check (option string)) "draining notice" (Some "draining")
        (Client.error_code r)
  | exception Client.Protocol_error _ -> ());
  Client.abandon c;
  (* post-drain connections are refused outright *)
  match Client.connect ~port () with
  | c2 ->
      Client.abandon c2;
      Alcotest.fail "post-drain connect must fail"
  | exception (Unix.Unix_error _ | Client.Protocol_error _) -> ()

let suite =
  [
    ( "serve-wire",
      [
        Alcotest.test_case "json round-trips" `Quick test_json_roundtrip;
        Alcotest.test_case "request parsing" `Quick test_wire_requests;
      ] );
    ( "serve-robust",
      [
        Alcotest.test_case "retry backoff determinism" `Quick
          test_retry_backoff;
        Alcotest.test_case "retry jitter bounds" `Quick
          test_retry_jitter_bounds;
        Alcotest.test_case "latency histogram" `Quick test_histo;
      ] );
    ( "serve-mvcc",
      [
        Alcotest.test_case "published snapshots are immutable" `Quick
          test_publish_isolation;
        Alcotest.test_case "frozen tables reject mutation" `Quick
          test_frozen_table_rejects_mutation;
        qcheck_no_torn_reads;
      ] );
    ( "serve-lane",
      [
        Alcotest.test_case "group commit acks after one fsync" `Quick
          test_lane_group_commit;
        Alcotest.test_case "overload rejects fast" `Quick
          test_lane_overload_rejection;
        Alcotest.test_case "crash poisons the lane" `Quick
          test_lane_crash_poisons;
        Alcotest.test_case "kill -9: acked survive, unacked vanish" `Slow
          test_kill9_acked_commits_survive;
        Alcotest.test_case "serve fuzz: 300 crash points, 4 sessions" `Slow
          test_serve_fuzz;
      ] );
    ( "serve-e2e",
      [
        Alcotest.test_case "session lifecycle over a socket" `Slow
          test_e2e_session;
        Alcotest.test_case "admission control rejects typed" `Slow
          test_e2e_admission_control;
        Alcotest.test_case "idle sessions time out" `Slow test_e2e_idle_timeout;
        Alcotest.test_case "group commit: 4 writers x 80 UPDATEs" `Slow
          test_e2e_group_commit;
        Alcotest.test_case "SIGTERM drain is graceful" `Slow test_e2e_drain;
      ] );
  ]
