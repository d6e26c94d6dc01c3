(* Observability-layer tests: span nesting and timing, counter accuracy
   against a hand-counted plan, plan-cache hit/miss accounting across
   catalog invalidation, EXPLAIN golden reports (one MAX, one PERST),
   and the off-switch guarantee that a disabled trace records nothing.

   The golden strings are the exact output of
   [Observe.report_to_string ~show_timings:false] on the small engine
   built by [setup_small] — regenerate them by printing that call if
   the transformation or report format changes intentionally. *)

module Engine = Sqleval.Engine
module Catalog = Sqleval.Catalog
module Stratum = Taupsm.Stratum
module Observe = Taupsm.Observe

let d s = Sqldb.Date.of_string_exn s

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  let tr = Trace.create ~enabled:true () in
  let r =
    Trace.with_span tr "outer" (fun () ->
        Trace.with_span tr "inner1" (fun () ->
            ignore (Sys.opaque_identity (List.init 1000 (fun i -> i * i))));
        Trace.with_span tr "inner2" (fun () -> ());
        17)
  in
  Alcotest.(check int) "with_span returns f's result" 17 r;
  match Trace.roots tr with
  | [ sp ] ->
      Alcotest.(check string) "root name" "outer" sp.Trace.sp_name;
      Alcotest.(check (list string))
        "children in opening order" [ "inner1"; "inner2" ]
        (List.map (fun c -> c.Trace.sp_name) sp.Trace.sp_children);
      List.iter
        (fun c ->
          Alcotest.(check bool)
            (c.Trace.sp_name ^ " elapsed nonnegative")
            true
            (c.Trace.sp_elapsed >= 0.0))
        sp.Trace.sp_children;
      let child_sum =
        List.fold_left
          (fun acc c -> acc +. c.Trace.sp_elapsed)
          0.0 sp.Trace.sp_children
      in
      (* The clock is clamped nondecreasing, so a parent can never be
         shorter than the sum of its children. *)
      Alcotest.(check bool)
        "parent covers children" true
        (sp.Trace.sp_elapsed >= child_sum)
  | roots ->
      Alcotest.failf "expected exactly one root span, got %d"
        (List.length roots)

let test_span_exception () =
  let tr = Trace.create ~enabled:true () in
  (try Trace.with_span tr "boom" (fun () -> failwith "boom")
   with Failure _ -> ());
  match Trace.roots tr with
  | [ sp ] ->
      Alcotest.(check string) "span closed on raise" "boom" sp.Trace.sp_name
  | _ -> Alcotest.fail "span not closed on raise"

(* ------------------------------------------------------------------ *)
(* Counter accuracy on a hand-counted plan                             *)
(* ------------------------------------------------------------------ *)

(* Two items valid from 2010-01-01 / 2010-02-01 to forever, plus a
   routine, mirroring the EXPLAIN golden setup below. *)
let setup_small () =
  let e = Engine.create ~now:(d "2010-07-01") () in
  Stratum.install e;
  Engine.exec_script e
    "CREATE TABLE item (id INTEGER, title VARCHAR(50)) WITH VALIDTIME;\n\
     INSERT INTO item (id, title, begin_time, end_time) VALUES (1, 'Book \
     One', DATE '2010-01-01', DATE '9999-12-31'), (2, 'Book Two', DATE \
     '2010-02-01', DATE '9999-12-31');";
  Engine.exec_script e
    "CREATE FUNCTION item_count () RETURNS INTEGER READS SQL DATA LANGUAGE \
     SQL BEGIN DECLARE n INTEGER; SET n = (SELECT COUNT(*) FROM item); \
     RETURN n; END";
  e

let observed_trace e =
  let cat = Engine.catalog e in
  cat.Catalog.options.Catalog.observe <- true;
  let tr = Catalog.trace cat in
  Trace.reset tr;
  tr

let test_counter_accuracy () =
  let e = setup_small () in
  let tr = observed_trace e in
  let c = Trace.get_count tr in
  (* A stab at 2010-01-15: only item 1 is valid then, so the interval
     index must probe exactly one row, and both period conjuncts are
     enforced exactly by the window (no residuals). *)
  let stab =
    "SELECT id FROM item WHERE begin_time <= DATE '2010-01-15' AND DATE \
     '2010-01-15' < end_time"
  in
  ignore (Engine.exec e stab);
  Alcotest.(check int) "indexed scan" 1 (c "scan.indexed");
  Alcotest.(check int) "indexed scan on item" 1 (c "scan.indexed:item");
  Alcotest.(check int) "no full scan" 0 (c "scan.full");
  Alcotest.(check int) "index built once" 1 (c "index.build");
  Alcotest.(check int) "no rebuild yet" 0 (c "index.rebuild");
  Alcotest.(check int) "one row probed" 1 (c "rows.probed");
  Alcotest.(check int) "one row matched" 1 (c "rows.matched");
  Alcotest.(check int) "both conjuncts elided" 2 (c "conjuncts.elided");
  (* Re-running reuses the cached interval index: no build, no rebuild. *)
  ignore (Engine.exec e stab);
  Alcotest.(check int) "second indexed scan" 2 (c "scan.indexed");
  Alcotest.(check int) "index reused (no second build)" 1 (c "index.build");
  Alcotest.(check int) "index reused (no rebuild)" 0 (c "index.rebuild");
  (* An insert bumps the table version; the next probe must rebuild, and
     the new row (valid over the stab point) doubles the matches. *)
  ignore
    (Engine.exec e
       "INSERT INTO item (id, title, begin_time, end_time) VALUES (3, 'Book \
        Three', DATE '2010-01-10', DATE '2010-01-20')");
  ignore (Engine.exec e stab);
  Alcotest.(check int) "rebuild after insert" 1 (c "index.rebuild");
  Alcotest.(check int) "third probe sees two rows" 4 (c "rows.probed");
  Alcotest.(check int) "third probe matches two rows" 4 (c "rows.matched")

(* ------------------------------------------------------------------ *)
(* Plan-cache accounting                                               *)
(* ------------------------------------------------------------------ *)

let seq_query =
  "VALIDTIME [DATE '2010-02-01', DATE '2010-03-01') SELECT id FROM item"

let test_plan_cache_counters () =
  let e = setup_small () in
  let ts = Sqlparse.Parser.parse_temporal_stmt seq_query in
  (* Warm up unobserved: the first execution registers max_ routines and
     creates the scratch tables, both of which invalidate the plan it
     just stored; from the third execution on the token is stable. *)
  ignore (Stratum.exec ~strategy:Stratum.Max e ts);
  ignore (Stratum.exec ~strategy:Stratum.Max e ts);
  let tr = observed_trace e in
  let c = Trace.get_count tr in
  ignore (Stratum.exec ~strategy:Stratum.Max e ts);
  Alcotest.(check int) "steady state hits" 1 (c "plan_cache.hit");
  Alcotest.(check int) "steady state misses" 0 (c "plan_cache.miss");
  (* Registering a routine bumps the catalog generation, invalidating
     every cached plan; the next execution misses then re-caches. *)
  ignore
    (Engine.exec e
       "CREATE FUNCTION pc_gen_bump () RETURNS INTEGER READS SQL DATA \
        LANGUAGE SQL BEGIN RETURN 1; END");
  Trace.reset tr;
  ignore (Stratum.exec ~strategy:Stratum.Max e ts);
  Alcotest.(check int) "invalidated: miss" 1 (c "plan_cache.miss");
  Alcotest.(check int) "invalidated: no hit" 0 (c "plan_cache.hit");
  ignore (Stratum.exec ~strategy:Stratum.Max e ts);
  Alcotest.(check int) "re-cached: hit" 1 (c "plan_cache.hit");
  (* The metrics snapshot agrees with the raw counters. *)
  let m = Observe.metrics_of tr in
  Alcotest.(check int) "metrics hits" 1 m.Observe.plan_cache_hits;
  Alcotest.(check int) "metrics misses" 1 m.Observe.plan_cache_misses;
  Alcotest.(check (float 1e-9))
    "hit rate" 0.5
    (Observe.plan_cache_hit_rate m)

(* ------------------------------------------------------------------ *)
(* EXPLAIN goldens                                                     *)
(* ------------------------------------------------------------------ *)

let explain_query =
  "VALIDTIME [DATE '2010-02-01', DATE '2010-03-01') SELECT item_count() \
   FROM item WHERE id = 1"

let golden_max =
  String.concat "\n"
    [
      "EXPLAIN strategy=MAX";
      "-- transformed SQL/PSM --";
      "CREATE TEMPORARY TABLE taupsm_ts";
      "  AS (SELECT begin_time AS time_point FROM item";
      "      UNION";
      "      SELECT end_time AS time_point FROM item);";
      "";
      "CREATE TEMPORARY TABLE taupsm_cp";
      "  AS (SELECT *";
      "        FROM TABLE(taupsm_constant_periods('taupsm_ts',";
      "             DATE '2010-02-01',";
      "             DATE '2010-03-01')) cpsrc);";
      "";
      "CREATE FUNCTION max_item_count (taupsm_bt DATE)";
      "  RETURNS INTEGER";
      "  READS SQL DATA";
      "  LANGUAGE SQL";
      "  BEGIN";
      "    DECLARE n INTEGER;";
      "    SET n =";
      "      (SELECT COUNT(*)";
      "         FROM item";
      "         WHERE item.begin_time <= taupsm_bt AND taupsm_bt < item.end_time);";
      "    RETURN n;";
      "  END;";
      "";
      "SELECT max_item_count(cp.begin_time),";
      "       cp.begin_time AS begin_time,";
      "       cp.end_time AS end_time";
      "  FROM taupsm_cp cp, item";
      "  WHERE id = 1";
      "        AND (item.begin_time <= cp.begin_time";
      "             AND cp.begin_time < item.end_time)";
      "-- plan --";
      "  plan cache: 1 hit(s), 1 miss(es)";
      "  join order=item:full  (x2)";
      "  join order=cpsrc:full  (x1)";
      "  join order=cp:full,item:hash(id)  (x1)";
      "  join order=item:index  (x1)";
      "  scan indexed table=item window=(2010-02-01,2010-02-02) probes=2 elided=2  (x1)";
      "  index build table=item cols=(2,3) rows=2 residuals=0  (x1)";
      "  scans: 1 indexed, 4 full, 1 hash, 0 residual fallback(s)";
      "  rows: 9 probed, 9 matched; 3 conjunct check(s) elided";
      "  selects: 4 compiled, 1 interpreted, 0 memo hit(s)";
      "-- cost model vs actuals --";
      "  estimated: MAX cost=134, PERST cost=113, constant periods=2";
      "  actual:    1 row(s); 1 routine call(s), 1 constant period(s)";
      "-- trace --";
      "spans:";
      "  exec";
      "counters:";
      "  compile.compiled                     4";
      "  compile.interpreted                  1";
      "  conjuncts.elided                     3";
      "  constant_periods.calls               1";
      "  constant_periods.periods             1";
      "  index.build                          1";
      "  plan_cache.hit                       1";
      "  plan_cache.miss                      1";
      "  routine.calls                        1";
      "  rows.matched                         9";
      "  rows.probed                          9";
      "  scan.full                            4";
      "  scan.full:cpsrc                      1";
      "  scan.full:item                       2";
      "  scan.full:taupsm_cp                  1";
      "  scan.hash                            1";
      "  scan.indexed                         1";
      "  scan.indexed:item                    1";
      "distributions:";
      "  routine.seconds                      n=1";
      "  stratum.transform_seconds            n=1";
    ]
  ^ "\n"

let golden_perst =
  String.concat "\n"
    [
      "EXPLAIN strategy=PERST";
      "-- transformed SQL/PSM --";
      "CREATE FUNCTION ps_item_count (taupsm_bt DATE, taupsm_et DATE)";
      "  RETURNS TABLE (taupsm_result INTEGER, begin_time DATE, end_time DATE)";
      "  READS SQL DATA";
      "  LANGUAGE SQL";
      "  BEGIN";
      "    CREATE TEMPORARY TABLE taupsm_ret_item_count (taupsm_result INTEGER,";
      "                                                  begin_time DATE,";
      "                                                  end_time DATE);";
      "    CREATE TEMPORARY TABLE taupsm_v_item_count_n (taupsm_val INTEGER,";
      "                                                  begin_time DATE,";
      "                                                  end_time DATE);";
      "    CREATE TEMPORARY TABLE taupsm_pts_item_count_1";
      "      AS (SELECT begin_time AS time_point FROM item";
      "          UNION";
      "          SELECT end_time AS time_point FROM item);";
      "    CREATE TEMPORARY TABLE taupsm_set_item_count_3";
      "      AS (SELECT (SELECT COUNT(*)";
      "                    FROM item";
      "                    WHERE item.begin_time <= taupsm_cps_item_count_2.begin_time";
      "                          AND taupsm_cps_item_count_2.begin_time < item.end_time) AS taupsm_val,";
      "                 taupsm_cps_item_count_2.begin_time AS begin_time,";
      "                 taupsm_cps_item_count_2.end_time AS end_time";
      "            FROM TABLE(taupsm_constant_periods('taupsm_pts_item_count_1',";
      "                 taupsm_bt,";
      "                 taupsm_et)) taupsm_cps_item_count_2);";
      "    INSERT INTO taupsm_v_item_count_n";
      "      SELECT taupsm_val, begin_time, taupsm_bt";
      "        FROM taupsm_v_item_count_n";
      "        WHERE begin_time < taupsm_bt AND taupsm_bt < end_time;";
      "    INSERT INTO taupsm_v_item_count_n";
      "      SELECT taupsm_val, taupsm_et, end_time";
      "        FROM taupsm_v_item_count_n";
      "        WHERE begin_time < taupsm_et AND taupsm_et < end_time;";
      "    DELETE FROM taupsm_v_item_count_n";
      "      WHERE begin_time < taupsm_et AND taupsm_bt < end_time;";
      "    INSERT INTO taupsm_v_item_count_n SELECT * FROM taupsm_set_item_count_3;";
      "    INSERT INTO taupsm_ret_item_count";
      "      SELECT taupsm_w_item_count_4.taupsm_val AS taupsm_result,";
      "             last_instance(taupsm_w_item_count_4.begin_time,";
      "             taupsm_bt) AS begin_time,";
      "             first_instance(taupsm_w_item_count_4.end_time,";
      "             taupsm_et) AS end_time";
      "        FROM taupsm_v_item_count_n taupsm_w_item_count_4";
      "        WHERE last_instance(taupsm_w_item_count_4.begin_time,";
      "              taupsm_bt) < first_instance(taupsm_w_item_count_4.end_time,";
      "              taupsm_et);";
      "    RETURN TABLE (SELECT * FROM taupsm_ret_item_count);";
      "  END;";
      "";
      "SELECT taupsm_f_main_1.taupsm_result,";
      "       last_instance(last_instance(item.begin_time,";
      "       taupsm_f_main_1.begin_time),";
      "       DATE '2010-02-01') AS begin_time,";
      "       first_instance(first_instance(item.end_time,";
      "       taupsm_f_main_1.end_time),";
      "       DATE '2010-03-01') AS end_time";
      "  FROM item,";
      "       TABLE(ps_item_count(DATE '2010-02-01',";
      "       DATE '2010-03-01')) taupsm_f_main_1";
      "  WHERE id = 1";
      "        AND last_instance(last_instance(item.begin_time,";
      "        taupsm_f_main_1.begin_time),";
      "        DATE '2010-02-01') < first_instance(first_instance(item.end_time,";
      "        taupsm_f_main_1.end_time),";
      "        DATE '2010-03-01')";
      "-- plan --";
      "  plan cache: 1 hit(s), 1 miss(es)";
      "  join order=item:full  (x2)";
      "  join order=taupsm_cps_item_count_2:full  (x1)";
      "  join order=item:index  (x1)";
      "  join order=taupsm_v_item_count_n:full  (x2)";
      "  join order=taupsm_set_item_count_3:full  (x1)";
      "  join order=taupsm_w_item_count_4:full  (x1)";
      "  join order=taupsm_ret_item_count:full  (x1)";
      "  join order=item:hash(id),taupsm_f_main_1:full  (x1)";
      "  scan indexed table=item window=(2010-02-01,2010-02-02) probes=2 elided=2  (x1)";
      "  index build table=item cols=(2,3) rows=2 residuals=0  (x1)";
      "  scans: 1 indexed, 9 full, 1 hash, 0 residual fallback(s)";
      "  rows: 12 probed, 12 matched; 3 conjunct check(s) elided";
      "  selects: 8 compiled, 2 interpreted, 0 memo hit(s)";
      "-- cost model vs actuals --";
      "  estimated: MAX cost=134, PERST cost=113, constant periods=2";
      "  actual:    1 row(s); 1 routine call(s), 1 constant period(s)";
      "-- trace --";
      "spans:";
      "  exec";
      "counters:";
      "  compile.compiled                     8";
      "  compile.interpreted                  2";
      "  conjuncts.elided                     3";
      "  constant_periods.calls               1";
      "  constant_periods.periods             1";
      "  index.build                          1";
      "  plan_cache.hit                       1";
      "  plan_cache.miss                      1";
      "  routine.calls                        1";
      "  rows.matched                         12";
      "  rows.probed                          12";
      "  scan.full                            9";
      "  scan.full:item                       2";
      "  scan.full:taupsm_cps_item_count_2    1";
      "  scan.full:taupsm_f_main_1            1";
      "  scan.full:taupsm_ret_item_count      1";
      "  scan.full:taupsm_set_item_count_3    1";
      "  scan.full:taupsm_v_item_count_n      3";
      "  scan.hash                            1";
      "  scan.indexed                         1";
      "  scan.indexed:item                    1";
      "distributions:";
      "  routine.seconds                      n=1";
      "  stratum.transform_seconds            n=1";
    ]
  ^ "\n"

let run_golden strategy golden name =
  let e = setup_small () in
  let rp =
    Observe.explain ~strategy e
      (Sqlparse.Parser.parse_temporal_stmt explain_query)
  in
  Alcotest.(check string)
    name golden
    (Observe.report_to_string ~show_timings:false rp)

let test_golden_max () = run_golden Stratum.Max golden_max "MAX report"
let test_golden_perst () = run_golden Stratum.Perst golden_perst "PERST report"

(* EXPLAIN runs on a copy: the caller's engine keeps its own trace
   (disabled, empty) and its plan cache is untouched. *)
let test_explain_is_isolated () =
  let e = setup_small () in
  ignore
    (Observe.explain ~strategy:Stratum.Max e
       (Sqlparse.Parser.parse_temporal_stmt explain_query));
  let cat = Engine.catalog e in
  Alcotest.(check bool)
    "caller's observe flag untouched" false
    cat.Catalog.options.Catalog.observe;
  Alcotest.(check (list (pair string int)))
    "caller's trace untouched" []
    (Trace.counts cat.Catalog.obs)

(* ------------------------------------------------------------------ *)
(* Off switch                                                          *)
(* ------------------------------------------------------------------ *)

let test_off_switch () =
  let e = setup_small () in
  let cat = Engine.catalog e in
  (* observe defaults to off — exercise every instrumented path. *)
  Alcotest.(check bool) "observe defaults off" false
    cat.Catalog.options.Catalog.observe;
  ignore
    (Engine.exec e
       "SELECT id FROM item WHERE begin_time <= DATE '2010-01-15' AND DATE \
        '2010-01-15' < end_time");
  let ts = Sqlparse.Parser.parse_temporal_stmt explain_query in
  ignore (Stratum.exec ~strategy:Stratum.Max e ts);
  ignore (Stratum.exec ~strategy:Stratum.Perst e ts);
  let tr = cat.Catalog.obs in
  Alcotest.(check (list (pair string int))) "no counters" [] (Trace.counts tr);
  Alcotest.(check int) "no events" 0 (Trace.events_emitted tr);
  Alcotest.(check (list string))
    "no spans" []
    (List.map (fun sp -> sp.Trace.sp_name) (Trace.roots tr));
  Alcotest.(check (list string))
    "no distributions" []
    (List.map fst (Trace.dists tr))

(* ------------------------------------------------------------------ *)

let suite =
  [
    ( "observe",
      [
        Alcotest.test_case "span nesting and timing" `Quick test_span_nesting;
        Alcotest.test_case "span closes on raise" `Quick test_span_exception;
        Alcotest.test_case "counters match a hand-counted plan" `Quick
          test_counter_accuracy;
        Alcotest.test_case "plan-cache hit/miss accounting" `Quick
          test_plan_cache_counters;
        Alcotest.test_case "EXPLAIN golden: MAX" `Quick test_golden_max;
        Alcotest.test_case "EXPLAIN golden: PERST" `Quick test_golden_perst;
        Alcotest.test_case "EXPLAIN leaves the engine untouched" `Quick
          test_explain_is_isolated;
        Alcotest.test_case "disabled trace records nothing" `Quick
          test_off_switch;
      ] );
  ]
