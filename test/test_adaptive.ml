(* Adaptive strategy choice (§VII-F made live) and memoized constant
   periods: the Auto chooser's decision ladder (calibrated → explore →
   cost model → heuristic), result equivalence of Auto against both
   forced strategies and against forced MAX on the 16 τPSM queries,
   regret counting, context-free calibration keys and the calibration
   read views share with their master, the blob version and the
   dirty-flag drain, the DDL-invalidation regression for memo and
   calibration,
   calibration survival across detach/recover/resume, the qcheck
   property that incrementally-maintained constant periods are
   identical to full recomputation under a random merge/DML stream, and
   the TEMPORAL MERGE EXPLAIN plan report. *)

module Engine = Sqleval.Engine
module Catalog = Sqleval.Catalog
module Calibration = Sqleval.Calibration
module Cp_memo = Sqleval.Cp_memo
module Persist = Sqleval.Persist
module RS = Sqleval.Result_set
module Value = Sqldb.Value
module Date = Sqldb.Date
module Database = Sqldb.Database
module Stratum = Taupsm.Stratum
module Observe = Taupsm.Observe
module Datasets = Taubench.Datasets
module Queries = Taubench.Queries

let d = Date.of_string_exn

let rows_of rs =
  List.map (fun r -> List.map Value.to_string (Array.to_list r)) rs.RS.rows

let tmp_dir prefix = Filename.temp_dir ("taupsm_" ^ prefix) ""

(* Two items valid from January / February 2024 onwards. *)
let setup () =
  let e = Engine.create ~now:(d "2024-06-01") () in
  Stratum.install e;
  Engine.exec_script e
    "CREATE TABLE item (id INTEGER, title VARCHAR(50)) WITH VALIDTIME;\n\
     INSERT INTO item (id, title, begin_time, end_time) VALUES (1, 'Book \
     One', DATE '2024-01-01', DATE '9999-12-31'), (2, 'Book Two', DATE \
     '2024-02-01', DATE '9999-12-31');";
  e

let seq_select =
  "VALIDTIME [DATE '2024-01-01', DATE '2024-07-01') SELECT id, title FROM \
   item WHERE id <= 2"

(* Outer joins are PERST-inapplicable (per-statement slicing cannot
   host them), so this pins the cm=2 never-explore arm. *)
let seq_outer =
  "VALIDTIME [DATE '2024-01-01', DATE '2024-07-01') SELECT a.id, b.id FROM \
   item a LEFT JOIN item b ON a.id = b.id + 1"

let parse = Sqlparse.Parser.parse_temporal_stmt

let observed e =
  let cat = Engine.catalog e in
  cat.Catalog.options.Catalog.observe <- true;
  let tr = Catalog.trace cat in
  Trace.reset tr;
  tr

(* ------------------------------------------------------------------ *)
(* Auto equals both forced strategies, and is counted                  *)
(* ------------------------------------------------------------------ *)

let test_auto_matches_forced () =
  (* MAX emits one row per constant period while PERST coalesces, so
     equivalence is up to coalescing and order — as everywhere else. *)
  let run f =
    let e = setup () in
    match f e with
    | Sqleval.Eval.Rows rs ->
        List.sort compare (rows_of (Stratum.coalesce_result rs))
    | _ -> Alcotest.fail "expected rows"
  in
  let forced s e = Stratum.exec_sql ~strategy:s e seq_select in
  let auto e =
    (Engine.catalog e).Catalog.options.Catalog.auto_strategy <- true;
    Stratum.exec_sql e seq_select
  in
  let max_rows = run (forced Stratum.Max) in
  Alcotest.(check (list (list string)))
    "auto = forced MAX" max_rows (run auto);
  Alcotest.(check (list (list string)))
    "forced PERST = forced MAX" max_rows
    (run (forced Stratum.Perst));
  (* the auto path is visible in the trace *)
  let e = setup () in
  (Engine.catalog e).Catalog.options.Catalog.auto_strategy <- true;
  let tr = observed e in
  ignore (Stratum.exec_sql e seq_select);
  ignore (Stratum.exec_sql e seq_select);
  let c = Trace.get_count tr in
  Alcotest.(check int) "every run chose an arm" 2
    (c "strategy.auto.max" + c "strategy.auto.perst")

(* The same equivalence over the 16 τPSM queries on DS1-SMALL with a
   1-month context: one Auto engine answers them all in turn, so its
   calibration and memo carry over from query to query. *)
let test_auto_matches_max_taubench () =
  let e0 =
    Datasets.load { Datasets.ds = Datasets.DS1; size = Taupsm.Heuristic.Small }
  in
  Queries.install e0;
  let e_auto = Engine.copy e0 and e_max = Engine.copy e0 in
  (Engine.catalog e_auto).Catalog.options.Catalog.auto_strategy <- true;
  let context = (d "2010-06-01", d "2010-07-01") in
  let coalesced = function
    | Sqleval.Eval.Rows rs ->
        List.sort compare (rows_of (Stratum.coalesce_result rs))
    | _ -> Alcotest.fail "expected rows"
  in
  List.iter
    (fun (q : Queries.t) ->
      let ts = parse (Queries.sequenced ~context q) in
      let auto = coalesced (Stratum.exec e_auto ts) in
      Alcotest.(check (list (list string)))
        (q.Queries.id ^ ": auto = forced MAX")
        (coalesced (Stratum.exec ~strategy:Stratum.Max e_max ts))
        auto)
    Queries.all

let test_auto_ignores_dml () =
  let e = setup () in
  (Engine.catalog e).Catalog.options.Catalog.auto_strategy <- true;
  let tr = observed e in
  (match
     Stratum.exec_sql e
       "VALIDTIME [DATE '2024-03-01', DATE '2024-04-01') DELETE FROM item \
        WHERE id = 2"
   with
  | Sqleval.Eval.Affected n -> Alcotest.(check int) "one row spliced" 1 n
  | _ -> Alcotest.fail "expected Affected");
  let c = Trace.get_count tr in
  Alcotest.(check int) "sequenced DML never enters the chooser" 0
    (c "strategy.auto.max" + c "strategy.auto.perst")

(* ------------------------------------------------------------------ *)
(* The decision ladder                                                 *)
(* ------------------------------------------------------------------ *)

let test_perst_unsupported_never_explored () =
  let e = setup () in
  let cat = Engine.catalog e in
  cat.Catalog.options.Catalog.auto_strategy <- true;
  let ts = parse seq_outer in
  (match Stratum.decide e ts with
  | Stratum.Max, Stratum.Modeled -> ()
  | s, src ->
      Alcotest.failf "expected MAX/cost-model, got %s/%s"
        (Stratum.strategy_to_string s)
        (Stratum.decision_source_to_string src));
  (* run it well past the exploration threshold: the cm=2 statement
     must keep choosing MAX (a PERST attempt would raise) *)
  for i = 1 to 4 do
    match Stratum.exec_sql e seq_outer with
    | Sqleval.Eval.Rows rs ->
        Alcotest.(check int)
          (Printf.sprintf "outer-join run %d stable" i)
          3
          (List.length rs.RS.rows)
    | _ -> Alcotest.fail "expected rows"
  done;
  match Stratum.decide e ts with
  | Stratum.Max, _ -> ()
  | s, _ ->
      Alcotest.failf "cm=2 statement drifted to %s"
        (Stratum.strategy_to_string s)

let test_calibrated_beats_model () =
  let e = setup () in
  let cat = Engine.catalog e in
  cat.Catalog.options.Catalog.auto_strategy <- true;
  let ts = parse seq_select in
  let key = Stratum.calibration_key e ts in
  let token = Catalog.plan_token cat in
  let cal = cat.Catalog.calibration in
  Calibration.record cal ~key ~token ~arm:0 ~seconds:1.0;
  Calibration.record cal ~key ~token ~arm:1 ~seconds:0.1;
  (match Stratum.decide e ts with
  | Stratum.Perst, Stratum.Calibrated -> ()
  | s, src ->
      Alcotest.failf "expected PERST/calibrated, got %s/%s"
        (Stratum.strategy_to_string s)
        (Stratum.decision_source_to_string src));
  (* drive the PERST EMA above MAX: the verdict flips *)
  for _ = 1 to 20 do
    Calibration.record cal ~key ~token ~arm:1 ~seconds:10.0
  done;
  match Stratum.decide e ts with
  | Stratum.Max, Stratum.Calibrated -> ()
  | s, src ->
      Alcotest.failf "expected MAX/calibrated after flip, got %s/%s"
        (Stratum.strategy_to_string s)
        (Stratum.decision_source_to_string src)

let test_explore_unmeasured_arm () =
  let e = setup () in
  let cat = Engine.catalog e in
  cat.Catalog.options.Catalog.auto_strategy <- true;
  let ts = parse seq_select in
  let key = Stratum.calibration_key e ts in
  let token = Catalog.plan_token cat in
  let cal = cat.Catalog.calibration in
  (* model says MAX (PERST feasible); MAX already measured twice *)
  Calibration.set_cm cal ~key ~token 0;
  Calibration.record cal ~key ~token ~arm:0 ~seconds:0.5;
  Calibration.record cal ~key ~token ~arm:0 ~seconds:0.5;
  (match Stratum.decide e ts with
  | Stratum.Perst, Stratum.Explored -> ()
  | s, src ->
      Alcotest.failf "expected PERST/explore, got %s/%s"
        (Stratum.strategy_to_string s)
        (Stratum.decision_source_to_string src));
  (* one Auto execution performs the exploration; the entry is then
     fully measured and the chooser graduates to calibrated *)
  ignore (Stratum.exec_sql e seq_select);
  Alcotest.(check bool) "both arms measured" true
    (Calibration.measured cal ~key ~token <> None);
  match Stratum.decide e ts with
  | _, Stratum.Calibrated -> ()
  | _, src ->
      Alcotest.failf "expected calibrated after exploration, got %s"
        (Stratum.decision_source_to_string src)

(* A wrong model pick is counted once exploration exposes it: the model
   says MAX, MAX's two seeded runs are far slower than anything real,
   so the explored PERST run wins and both MAX runs were mispredicts. *)
let test_explore_counts_regret () =
  let e = setup () in
  let cat = Engine.catalog e in
  cat.Catalog.options.Catalog.auto_strategy <- true;
  let ts = parse seq_select in
  let key = Stratum.calibration_key e ts in
  let token = Catalog.plan_token cat in
  let cal = cat.Catalog.calibration in
  Calibration.set_cm cal ~key ~token 0;
  Calibration.record cal ~key ~token ~arm:0 ~seconds:100.0;
  Calibration.record cal ~key ~token ~arm:0 ~seconds:100.0;
  let tr = observed e in
  ignore (Stratum.exec e ts);
  Alcotest.(check int) "explored PERST" 1
    (Trace.get_count tr "strategy.auto.perst");
  Alcotest.(check int) "both modeled MAX runs were mispredicts" 2
    (Trace.get_count tr "strategy.mispredict")

(* ------------------------------------------------------------------ *)
(* Context-free keys and learning shared with read views               *)
(* ------------------------------------------------------------------ *)

let select_over b e' =
  Printf.sprintf
    "VALIDTIME [DATE '%s', DATE '%s') SELECT id, title FROM item WHERE id      <= 2"
    b e'

let test_key_ignores_context () =
  let e = setup () in
  let key sql = Stratum.calibration_key e (parse sql) in
  (* two 5-day contexts months apart: one bucket, one key *)
  let a = key (select_over "2024-01-01" "2024-01-06") in
  Alcotest.(check bool) "same statement, same bucket: one key" true
    (a = key (select_over "2024-04-10" "2024-04-15"));
  Alcotest.(check bool) "a 6-month context is another bucket" false
    (a = key seq_select);
  Alcotest.(check bool) "another statement body is another key" false
    (a
    = key
        "VALIDTIME [DATE '2024-01-01', DATE '2024-01-06') SELECT id, title          FROM item WHERE id <= 1")

let test_learning_carries_over_contexts () =
  let e = setup () in
  (Engine.catalog e).Catalog.options.Catalog.auto_strategy <- true;
  let on_a = select_over "2024-01-01" "2024-01-06" in
  (* modeled twice, then the other arm explored *)
  for _ = 1 to 3 do
    ignore (Stratum.exec_sql e on_a)
  done;
  match Stratum.decide e (parse (select_over "2024-05-01" "2024-05-04")) with
  | _, Stratum.Calibrated -> ()
  | _, src ->
      Alcotest.failf "a new context in the bucket decided by %s"
        (Stratum.decision_source_to_string src)

let test_read_view_feeds_master () =
  let e = setup () in
  let cat = Engine.catalog e in
  cat.Catalog.options.Catalog.auto_strategy <- true;
  let ts = parse seq_select in
  let key = Stratum.calibration_key e ts in
  let runs c =
    Calibration.runs c.Catalog.calibration ~key ~token:(Catalog.plan_token c)
  in
  let run_on view = ignore (Stratum.exec (Engine.of_catalog view) ts) in
  run_on (Catalog.read_view (Catalog.publish cat));
  run_on (Catalog.read_view cat);
  let m, p = runs cat in
  Alcotest.(check int) "both view runs measured in the master" 2 (m + p);
  let copy = Catalog.copy cat in
  run_on copy;
  let m', p' = runs cat in
  Alcotest.(check int) "a copy's run stays in the copy" 2 (m' + p');
  let cm, cp = runs copy in
  Alcotest.(check bool) "the copy learned for itself" true (cm + cp > 0)

(* Version-2 blobs round-trip byte for byte; a version-1 blob (whole-
   statement fingerprints, which no key matches any more) loads
   nothing. *)
let test_blob_versions () =
  let cal = Calibration.create () in
  let key = ("fp", 1, 2) and token = (1, 2, 3) in
  Calibration.record cal ~key ~token ~arm:0 ~seconds:0.25;
  Calibration.record cal ~key ~token ~arm:1 ~seconds:0.5;
  Calibration.set_cm cal ~key ~token 1;
  let blob = Calibration.save cal in
  Alcotest.(check int) "version byte" 2 (Char.code blob.[0]);
  let back = Calibration.create () in
  Calibration.load back blob;
  Alcotest.(check (option (pair (float 0.) (float 0.))))
    "v2 round-trips the measurement" (Some (0.25, 0.5))
    (Calibration.measured back ~key ~token);
  Alcotest.(check string) "v2 round-trips byte for byte" blob
    (Calibration.save back);
  let v1 = Bytes.of_string blob in
  Bytes.set v1 0 '\001';
  let old = Calibration.create () in
  Calibration.record old ~key ~token ~arm:0 ~seconds:1.0;
  Calibration.load old (Bytes.to_string v1);
  Alcotest.(check int) "v1 loads nothing" 1 (Calibration.size old);
  Alcotest.(check (pair int int)) "v1 left the table as it was" (1, 0)
    (Calibration.runs old ~key ~token)

(* The commit path takes the dirty table once; a record after the take
   makes it dirty again. *)
let test_take_dirty () =
  let cal = Calibration.create () in
  let key = ("fp", 0, 0) and token = (0, 0, 0) in
  Alcotest.(check bool) "fresh table is clean" true
    (Calibration.take_dirty cal = None);
  Calibration.record cal ~key ~token ~arm:0 ~seconds:0.1;
  Alcotest.(check bool) "a record dirties it" true
    (Calibration.take_dirty cal <> None);
  Alcotest.(check bool) "taken once" true (Calibration.take_dirty cal = None);
  Calibration.record cal ~key ~token ~arm:1 ~seconds:0.1;
  match Calibration.take_dirty cal with
  | Some blob ->
      let back = Calibration.create () in
      Calibration.load back blob;
      Alcotest.(check bool) "the taken blob holds the new record" true
        (Calibration.measured back ~key ~token <> None)
  | None -> Alcotest.fail "record after a take was lost"

(* ------------------------------------------------------------------ *)
(* DDL invalidation: the satellite regression                          *)
(* ------------------------------------------------------------------ *)

(* Re-creating a table is the only way to change its period columns
   (there is no ALTER), and it must invalidate both the constant-period
   memo and the learned calibration.  Before the plan-token stamps were
   wired through, the stale memo could serve the old table's event
   points and the stale calibration could answer for a differently
   shaped table. *)
let test_ddl_invalidation () =
  let e = setup () in
  let cat = Engine.catalog e in
  cat.Catalog.options.Catalog.auto_strategy <- true;
  cat.Catalog.options.Catalog.memoize_constant_periods <- true;
  let ts = parse seq_select in
  let key = Stratum.calibration_key e ts in
  let token = Catalog.plan_token cat in
  let cal = cat.Catalog.calibration in
  Calibration.record cal ~key ~token ~arm:0 ~seconds:1.0;
  Calibration.record cal ~key ~token ~arm:1 ~seconds:0.1;
  let memo_pairs () =
    (Cp_memo.periods cat.Catalog.cp_memo ~generation:cat.Catalog.generation
       ~db:cat.Catalog.db ~tables:[ "item" ] ~bt:(d "2024-01-01")
       ~et:(d "2024-07-01"))
      .Cp_memo.pairs
  in
  (* only 2024-02-01 falls strictly inside the context: two periods *)
  let before = memo_pairs () in
  Alcotest.(check int) "two constant periods before DDL" 2
    (List.length before);
  (* drop + re-create with a different valid-time shape *)
  Engine.exec_script e
    "DROP TABLE item;\n\
     CREATE TABLE item (id INTEGER, title VARCHAR(50)) WITH VALIDTIME;\n\
     INSERT INTO item (id, title, begin_time, end_time) VALUES (9, 'Only', \
     DATE '2024-03-01', DATE '2024-05-01');";
  let token' = Catalog.plan_token cat in
  Alcotest.(check bool) "DDL moved the plan token" false (token = token');
  Alcotest.(check (pair int int))
    "calibration forgotten under the new token" (0, 0)
    (Calibration.runs cal ~key ~token:token');
  let after = memo_pairs () in
  Alcotest.(check
              (list (pair int int)))
    "memo rescanned the re-created table"
    [
      (d "2024-01-01", d "2024-03-01");
      (d "2024-03-01", d "2024-05-01");
      (d "2024-05-01", d "2024-07-01");
    ]
    after;
  (* and the memoized query path agrees with the classic pipeline *)
  let run () =
    match Stratum.exec_sql ~strategy:Stratum.Max e seq_select with
    | Sqleval.Eval.Rows rs -> rows_of rs
    | _ -> Alcotest.fail "expected rows"
  in
  let memoized = run () in
  cat.Catalog.options.Catalog.memoize_constant_periods <- false;
  Alcotest.(check (list (list string)))
    "memoized = classic after DDL" (run ()) memoized

(* ------------------------------------------------------------------ *)
(* Merge keeps the memo warm; plain DML forces a rescan                *)
(* ------------------------------------------------------------------ *)

let stock_engine () =
  let e = Engine.create ~now:(d "2024-06-01") () in
  Stratum.install e;
  Engine.exec_script e
    "CREATE TABLE stock (sku VARCHAR(10), qty INT) WITH VALIDTIME TEMPORAL \
     PRIMARY KEY (sku);\n\
     INSERT INTO stock (sku, qty, begin_time, end_time) VALUES ('apple', \
     10, DATE '2024-01-01', DATE '9999-12-31')";
  e

let stock_query =
  "VALIDTIME [DATE '2024-01-01', DATE '2024-12-01') SELECT sku, qty FROM \
   stock"

let merge_stmt bt et qty =
  Printf.sprintf
    "TEMPORAL MERGE INTO stock USING (SELECT 'apple' AS sku, %d AS qty, \
     DATE '%s' AS begin_time, DATE '%s' AS end_time) MODE UPSERT"
    qty bt et

let test_merge_keeps_memo_warm () =
  let e = stock_engine () in
  let cat = Engine.catalog e in
  cat.Catalog.options.Catalog.memoize_constant_periods <- true;
  let tr = observed e in
  let c = Trace.get_count tr in
  ignore (Stratum.exec_sql ~strategy:Stratum.Max e stock_query);
  Alcotest.(check int) "first query scans" 1 (c "cp_memo.rescans");
  (* scratch tables registered by the MAX rewrite bump the temp epoch,
     not the schema version — the second query hits straight away *)
  ignore (Stratum.exec_sql ~strategy:Stratum.Max e stock_query);
  Alcotest.(check int) "warm query hits the result cache" 1
    (c "cp_memo.hits");
  let rescans_warm = c "cp_memo.rescans" in
  Alcotest.(check int) "no rescan on the warm query" 1 rescans_warm;
  (* a merge splices its boundary deltas: the next query must not rescan *)
  ignore (Stratum.exec_sql e (merge_stmt "2024-03-01" "2024-04-01" 12));
  ignore (Stratum.exec_sql ~strategy:Stratum.Max e stock_query);
  Alcotest.(check int) "merge splices instead of rescanning" rescans_warm
    (c "cp_memo.rescans");
  let _, _, splices = Cp_memo.stats (Engine.catalog e).Catalog.cp_memo in
  Alcotest.(check bool) "the merge spliced" true (splices >= 1);
  (* plain DML bypasses note_write: the stamp fails and we rescan *)
  ignore
    (Engine.exec e
       "INSERT INTO stock (sku, qty, begin_time, end_time) VALUES ('pear', \
        1, DATE '2024-05-01', DATE '2024-06-01')");
  ignore (Stratum.exec_sql ~strategy:Stratum.Max e stock_query);
  Alcotest.(check int) "plain DML forces one rescan" (rescans_warm + 1)
    (c "cp_memo.rescans")

let test_sequenced_dml_splices_memo () =
  let e = stock_engine () in
  let cat = Engine.catalog e in
  cat.Catalog.options.Catalog.memoize_constant_periods <- true;
  ignore (Stratum.exec_sql ~strategy:Stratum.Max e stock_query);
  let _, rescans, splices = Cp_memo.stats cat.Catalog.cp_memo in
  ignore
    (Stratum.exec_sql e
       "VALIDTIME [DATE '2024-03-01', DATE '2024-04-01') UPDATE stock SET \
        qty = 12 WHERE sku = 'apple'");
  ignore (Stratum.exec_sql ~strategy:Stratum.Max e stock_query);
  let _, rescans', splices' = Cp_memo.stats cat.Catalog.cp_memo in
  Alcotest.(check int) "sequenced UPDATE splices" (splices + 1) splices';
  Alcotest.(check int) "sequenced UPDATE does not rescan" rescans rescans'

(* ------------------------------------------------------------------ *)
(* qcheck: incremental maintenance = full recomputation                *)
(* ------------------------------------------------------------------ *)

let month_date m =
  Printf.sprintf "%04d-%02d-01" (2024 + (m / 12)) ((m mod 12) + 1)

(* An op is a merge or a sequenced UPDATE/DELETE (spliced into the live
   memo via note_write) or a plain insert/delete (stamp miss, rescan).  The property: after every
   op, the long-lived memo agrees pair-for-pair with a fresh memo that
   recomputes from scratch, and the memoized MAX query returns exactly
   the classic pipeline's rows. *)
type op =
  | Omerge of string * int * int * int (* sku, qty, from month, months *)
  | Oinsert of string * int * int * int
  | Odelete of string
  | Oseq_update of string * int * int * int (* sku, qty, from month, months *)
  | Oseq_delete of string * int * int (* sku, from month, months *)

let gen_op =
  QCheck.Gen.(
    let sku = oneofl [ "apple"; "pear"; "plum" ] in
    let month = int_range 0 9 in
    let span = int_range 1 3 in
    frequency
      [
        (4, map (fun (s, q, m, n) -> Omerge (s, q, m, n))
              (quad sku (int_range 0 99) month span));
        (2, map (fun (s, q, m, n) -> Oinsert (s, q, m, n))
              (quad sku (int_range 0 99) month span));
        (1, map (fun s -> Odelete s) sku);
        (2, map (fun (s, q, m, n) -> Oseq_update (s, q, m, n))
              (quad sku (int_range 0 99) month span));
        (1, map (fun (s, m, n) -> Oseq_delete (s, m, n)) (triple sku month span));
      ])

let arb_ops =
  QCheck.make
    ~print:(fun ops -> string_of_int (List.length ops) ^ " op(s)")
    QCheck.Gen.(list_size (int_range 1 12) gen_op)

let apply_op e = function
  | Omerge (sku, qty, m, n) ->
      ignore
        (Stratum.exec_sql e
           (Printf.sprintf
              "TEMPORAL MERGE INTO stock USING (SELECT '%s' AS sku, %d AS \
               qty, DATE '%s' AS begin_time, DATE '%s' AS end_time) MODE \
               UPSERT"
              sku qty (month_date m)
              (month_date (m + n))))
  | Oinsert (sku, qty, m, n) -> (
      (* a current insert may violate the temporal key; treat a
         violation as a no-op — the stream just moves on.  It goes
         through the stratum, whose check rolls a violating insert
         back: unchecked, the overlap would stay behind and fail a
         later statement's whole-table check. *)
      try
        ignore
          (Stratum.exec_sql e
             (Printf.sprintf
                "INSERT INTO stock (sku, qty, begin_time, end_time) VALUES \
                 ('%s-%d', %d, DATE '%s', DATE '%s')"
                sku m qty (month_date m)
                (month_date (m + n))))
      with _ -> ())
  | Odelete sku -> (
      try
        ignore
          (Engine.exec e
             (Printf.sprintf "DELETE FROM stock WHERE sku = '%s'" sku))
      with _ -> ())
  | Oseq_update (sku, qty, m, n) ->
      ignore
        (Stratum.exec_sql e
           (Printf.sprintf
              "VALIDTIME [DATE '%s', DATE '%s') UPDATE stock SET qty = %d \
               WHERE sku = '%s'"
              (month_date m)
              (month_date (m + n))
              qty sku))
  | Oseq_delete (sku, m, n) ->
      ignore
        (Stratum.exec_sql e
           (Printf.sprintf
              "VALIDTIME [DATE '%s', DATE '%s') DELETE FROM stock WHERE sku \
               = '%s'"
              (month_date m)
              (month_date (m + n))
              sku))

let prop_incremental_equals_full ops =
  let e = stock_engine () in
  let cat = Engine.catalog e in
  cat.Catalog.options.Catalog.memoize_constant_periods <- true;
  let bt = d "2024-01-01" and et = d "2025-01-01" in
  let live () =
    (Cp_memo.periods cat.Catalog.cp_memo ~generation:cat.Catalog.generation
       ~db:cat.Catalog.db ~tables:[ "stock" ] ~bt ~et)
      .Cp_memo.pairs
  in
  let full () =
    (Cp_memo.periods (Cp_memo.create ())
       ~generation:cat.Catalog.generation ~db:cat.Catalog.db
       ~tables:[ "stock" ] ~bt ~et)
      .Cp_memo.pairs
  in
  ignore (live ());
  List.iteri
    (fun i op ->
      apply_op e op;
      let l = live () and f = full () in
      if l <> f then
        QCheck.Test.fail_reportf
          "op %d: incremental %d pair(s) <> full %d pair(s)" i
          (List.length l) (List.length f);
      let rows () =
        match Stratum.exec_sql ~strategy:Stratum.Max e stock_query with
        | Sqleval.Eval.Rows rs -> rows_of rs
        | _ -> QCheck.Test.fail_reportf "op %d: expected rows" i
      in
      let memoized = rows () in
      cat.Catalog.options.Catalog.memoize_constant_periods <- false;
      let classic = rows () in
      cat.Catalog.options.Catalog.memoize_constant_periods <- true;
      if memoized <> classic then
        QCheck.Test.fail_reportf "op %d: memoized rows <> classic rows" i)
    ops;
  true

(* ------------------------------------------------------------------ *)
(* Calibration durability: detach / recover / resume                   *)
(* ------------------------------------------------------------------ *)

let test_calibration_survives_recovery () =
  let dir = tmp_dir "adaptive" in
  let e = setup () in
  let cat = Engine.catalog e in
  cat.Catalog.options.Catalog.auto_strategy <- true;
  let h = Persist.attach ~dir e in
  (* three Auto runs measure one arm twice and explore the other *)
  for _ = 1 to 3 do
    ignore (Stratum.exec_sql e seq_select)
  done;
  let ts = parse seq_select in
  let key = Stratum.calibration_key e ts in
  let emas =
    Calibration.measured cat.Catalog.calibration ~key
      ~token:(Catalog.plan_token cat)
  in
  Alcotest.(check bool) "both arms measured before detach" true (emas <> None);
  Persist.detach h;
  (* recover: the learned entry is back, re-stamped to the fresh token *)
  let e2, report = Persist.recover ~dir () in
  let cat2 = Engine.catalog e2 in
  cat2.Catalog.options.Catalog.auto_strategy <- true;
  let key2 = Stratum.calibration_key e2 (parse seq_select) in
  Alcotest.(check string) "key is engine-independent" (let k, _, _ = key in k)
    (let k, _, _ = key2 in k);
  let emas2 =
    Calibration.measured cat2.Catalog.calibration ~key:key2
      ~token:(Catalog.plan_token cat2)
  in
  (match (emas, emas2) with
  | Some (m1, p1), Some (m2, p2) ->
      Alcotest.(check bool) "recovered EMAs identical" true
        (m1 = m2 && p1 = p2)
  | _ -> Alcotest.fail "calibration lost across recovery");
  (match Stratum.decide e2 (parse seq_select) with
  | _, Stratum.Calibrated -> ()
  | _, src ->
      Alcotest.failf "recovered chooser fell back to %s"
        (Stratum.decision_source_to_string src));
  (* resume, learn more, crash-less detach, recover again *)
  let h2 = Persist.resume ~dir e2 report in
  ignore (Stratum.exec_sql e2 seq_select);
  Persist.detach h2;
  let e3, _ = Persist.recover ~dir () in
  let cat3 = Engine.catalog e3 in
  Alcotest.(check bool) "still present after a second cycle" true
    (Calibration.size cat3.Catalog.calibration > 0)

(* ------------------------------------------------------------------ *)
(* EXPLAIN: merge plans and the auto annotation                        *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let test_explain_merge_plan () =
  let e = stock_engine () in
  let rp =
    Observe.explain_sql e (merge_stmt "2024-03-01" "2024-04-01" 12)
  in
  let s = Observe.report_to_string ~show_timings:false rp in
  Alcotest.(check bool) "merge plan section" true
    (contains s "-- merge plan --");
  Alcotest.(check bool) "target/mode/keys line" true
    (contains s "target=stock mode=UPSERT keys=(sku)");
  Alcotest.(check bool) "segment accounting" true (contains s "segments: ");
  Alcotest.(check bool) "write counts" true
    (contains s "writes: 3 insert(s), 0 update(s), 1 delete(s)");
  Alcotest.(check bool) "no native-splice fallthrough" false
    (contains s "spliced natively")

let test_explain_auto_annotation () =
  let e = setup () in
  (Engine.catalog e).Catalog.options.Catalog.auto_strategy <- true;
  let rp = Observe.explain_sql e seq_select in
  let s = Observe.report_to_string ~show_timings:false rp in
  Alcotest.(check bool) "auto source annotated" true (contains s "(auto: ");
  Alcotest.(check bool) "calibration summary line" true
    (contains s "calibration: ")

(* ------------------------------------------------------------------ *)

let suite =
  [
    ( "adaptive",
      [
        Alcotest.test_case "auto = forced MAX = forced PERST" `Quick
          test_auto_matches_forced;
        Alcotest.test_case "16 queries: auto = forced MAX" `Slow
          test_auto_matches_max_taubench;
        Alcotest.test_case "sequenced DML bypasses the chooser" `Quick
          test_auto_ignores_dml;
        Alcotest.test_case "PERST-inapplicable is never explored" `Quick
          test_perst_unsupported_never_explored;
        Alcotest.test_case "calibrated verdict beats the model" `Quick
          test_calibrated_beats_model;
        Alcotest.test_case "unmeasured arm is explored once" `Quick
          test_explore_unmeasured_arm;
        Alcotest.test_case "exploration counts the model's regret" `Quick
          test_explore_counts_regret;
        Alcotest.test_case "the key ignores the context's dates" `Quick
          test_key_ignores_context;
        Alcotest.test_case "learning carries over to a new context" `Quick
          test_learning_carries_over_contexts;
        Alcotest.test_case "read views feed the master calibration" `Quick
          test_read_view_feeds_master;
        Alcotest.test_case "calibration blob versions" `Quick
          test_blob_versions;
        Alcotest.test_case "dirty calibration is taken once" `Quick
          test_take_dirty;
        Alcotest.test_case "DDL invalidates memo and calibration" `Quick
          test_ddl_invalidation;
        Alcotest.test_case "merge splices keep the memo warm" `Quick
          test_merge_keeps_memo_warm;
        Alcotest.test_case "sequenced DML splices the memo" `Quick
          test_sequenced_dml_splices_memo;
        Alcotest.test_case "calibration survives detach/recover/resume"
          `Quick test_calibration_survives_recovery;
        Alcotest.test_case "EXPLAIN prints the merge plan" `Quick
          test_explain_merge_plan;
        Alcotest.test_case "EXPLAIN annotates the auto choice" `Quick
          test_explain_auto_annotation;
      ]
      @ List.map QCheck_alcotest.to_alcotest
          [
            QCheck.Test.make ~count:40
              ~name:"incremental constant periods = full recomputation"
              arb_ops prop_incremental_equals_full;
          ] );
  ]
