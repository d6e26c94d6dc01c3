(* Edge cases of the stratum: DDL pass-through, explicit-history loads,
   temporal views, sequenced CALL, unsupported shapes, error surfaces.
   Several of these are regressions for bugs found while building the
   examples. *)

module Engine = Sqleval.Engine
module Eval = Sqleval.Eval
module RS = Sqleval.Result_set
module Value = Sqldb.Value
module Stratum = Taupsm.Stratum

let d = Sqldb.Date.of_string_exn

let fresh () =
  let e = Engine.create ~now:(d "2010-07-01") () in
  Stratum.install e;
  e

let rows_of rs =
  List.map (fun r -> List.map Value.to_string (Array.to_list r)) rs.RS.rows

let check_rows name expected actual =
  Alcotest.(check (list (list string))) name expected actual

(* Regression: defining a routine *through the stratum* must store it
   verbatim; currency predicates belong to invocations, not catalogs. *)
let test_ddl_passthrough () =
  let e = fresh () in
  ignore (Stratum.exec_sql e "CREATE TABLE t (x INTEGER) WITH VALIDTIME");
  ignore
    (Stratum.exec_sql e
       "INSERT INTO t (x, begin_time, end_time) VALUES (1, DATE \
        '2010-01-01', DATE '2010-02-01')");
  ignore
    (Stratum.exec_sql e
       "CREATE FUNCTION past_count () RETURNS INTEGER BEGIN RETURN (SELECT \
        COUNT(*) FROM t); END");
  (* A sequenced invocation must see the January row — it would not if
     the definition had been current-transformed at CREATE time. *)
  let rs =
    match
      Stratum.exec_sql ~strategy:Stratum.Max e
        "VALIDTIME [DATE '2010-01-10', DATE '2010-01-11') SELECT \
         past_count() FROM t"
    with
    | Eval.Rows rs -> rs
    | _ -> Alcotest.fail "expected rows"
  in
  check_rows "sequenced sees history"
    [ [ "1"; "2010-01-10"; "2010-01-11" ] ]
    (rows_of rs)

(* Regression: a current INSERT that names the timestamp columns is an
   explicit history load, not a now-to-forever insert. *)
let test_explicit_history_insert () =
  let e = fresh () in
  ignore (Stratum.exec_sql e "CREATE TABLE t (x INTEGER) WITH VALIDTIME");
  ignore
    (Stratum.exec_sql e
       "INSERT INTO t (x, begin_time, end_time) VALUES (7, DATE \
        '2009-01-01', DATE '2009-06-01')");
  let rs =
    Stratum.query e
      "NONSEQUENCED VALIDTIME SELECT x, begin_time, end_time FROM t"
  in
  check_rows "explicit period preserved"
    [ [ "7"; "2009-01-01"; "2009-06-01" ] ]
    (rows_of rs)

let test_duplicate_insert_column_rejected () =
  let e = fresh () in
  ignore (Stratum.exec_sql e "CREATE TABLE t (x INTEGER) WITH VALIDTIME");
  match
    Engine.exec e "INSERT INTO t (x, x, begin_time, end_time) VALUES (1, 2, \
                   DATE '2010-01-01', DATE '2010-02-01')"
  with
  | exception Eval.Sql_error _ -> ()
  | _ -> Alcotest.fail "duplicate column should be rejected"

(* Temporal views: sequenced queries through a view over temporal data. *)
let test_temporal_view_sequenced () =
  let e = fresh () in
  Engine.exec_script e
    "CREATE TABLE t (x INTEGER, tag VARCHAR(5)) WITH VALIDTIME;\n\
     INSERT INTO t (x, tag, begin_time, end_time) VALUES (1, 'a', DATE \
     '2010-01-01', DATE '2010-03-01'), (2, 'a', DATE '2010-03-01', DATE \
     '9999-12-31'), (9, 'b', DATE '2010-01-01', DATE '9999-12-31');\n\
     CREATE VIEW only_a AS (SELECT x FROM t WHERE tag = 'a')";
  List.iter
    (fun strategy ->
      let rs =
        match
          Stratum.exec_sql ~strategy e
            "VALIDTIME [DATE '2010-02-01', DATE '2010-04-01') SELECT x FROM \
             only_a"
        with
        | Eval.Rows rs -> Stratum.coalesce_result rs
        | _ -> Alcotest.fail "expected rows"
      in
      check_rows
        (Printf.sprintf "view history (%s)" (Stratum.strategy_to_string strategy))
        [
          [ "1"; "2010-02-01"; "2010-03-01" ];
          [ "2"; "2010-03-01"; "2010-04-01" ];
        ]
        (List.sort compare (rows_of rs)))
    [ Stratum.Max; Stratum.Perst ]

(* Sequenced CALL of a procedure (per constant period under MAX). *)
let test_sequenced_call () =
  let e = fresh () in
  Engine.exec_script e
    "CREATE TABLE src (x INTEGER) WITH VALIDTIME;\n\
     CREATE TABLE log_t (x INTEGER, at DATE);\n\
     INSERT INTO src (x, begin_time, end_time) VALUES (1, DATE \
     '2010-01-01', DATE '2010-02-01'), (2, DATE '2010-02-01', DATE \
     '2010-03-01');\n\
     CREATE PROCEDURE log_count (IN dummy INTEGER) BEGIN DECLARE n INTEGER; \
     SELECT COUNT(*) INTO n FROM src; INSERT INTO log_t VALUES (n, \
     CURRENT_DATE); END"
  |> ignore;
  ignore
    (Stratum.exec_sql ~strategy:Stratum.Max e
       "VALIDTIME [DATE '2010-01-01', DATE '2010-03-01') CALL log_count(0)");
  let rs = Engine.query e "SELECT x FROM log_t ORDER BY x" in
  (* Two constant periods, each logging the count valid then. *)
  check_rows "one call per constant period" [ [ "1" ]; [ "1" ] ] (rows_of rs)

let test_max_rejects_temporal_derived_table () =
  let e = fresh () in
  ignore (Stratum.exec_sql e "CREATE TABLE t (x INTEGER) WITH VALIDTIME");
  match
    Stratum.exec_sql ~strategy:Stratum.Max e
      "VALIDTIME SELECT * FROM (SELECT x FROM t) sub"
  with
  | exception Taupsm.Max_slicing.Max_unsupported _ -> ()
  | _ -> Alcotest.fail "temporal derived table should be rejected under MAX"

let test_sequenced_dml_requires_temporal () =
  let e = fresh () in
  ignore (Stratum.exec_sql e "CREATE TABLE plain (x INTEGER)");
  match
    Stratum.sequenced_delete e
      ~context:
        (Some (Sqlast.Ast.lit_date (d "2010-01-01"), Sqlast.Ast.lit_date (d "2010-02-01")))
      "plain" None
  with
  | exception Eval.Sql_error _ -> ()
  | _ -> Alcotest.fail "sequenced DELETE on a nontemporal table must fail"

(* Routines that only touch nontemporal data run unchanged in every
   context; PERST must not wrap them either. *)
let test_nontemporal_routine_all_contexts () =
  let e = fresh () in
  Engine.exec_script e
    "CREATE TABLE t (x INTEGER) WITH VALIDTIME;\n\
     INSERT INTO t (x, begin_time, end_time) VALUES (3, DATE '2010-01-01', \
     DATE '9999-12-31');\n\
     CREATE FUNCTION twice (a INTEGER) RETURNS INTEGER BEGIN RETURN a * 2; \
     END";
  List.iter
    (fun (label, sql, strategy) ->
      let rs =
        match Stratum.exec_sql ?strategy e sql with
        | Eval.Rows rs -> rs
        | _ -> Alcotest.fail "expected rows"
      in
      Alcotest.(check string) label "6" (Value.to_string (List.hd rs.RS.rows).(0)))
    [
      ("current", "SELECT twice(x) FROM t", None);
      ("sequenced max", "VALIDTIME SELECT twice(x) FROM t", Some Stratum.Max);
      ("sequenced perst", "VALIDTIME SELECT twice(x) FROM t", Some Stratum.Perst);
      ("nonsequenced", "NONSEQUENCED VALIDTIME SELECT twice(x) FROM t", None);
    ]

(* The coalesce/timeslice utilities. *)
let test_coalesce_result () =
  let rs =
    {
      RS.cols = [ "v"; "begin_time"; "end_time" ];
      rows =
        [
          [| Value.Str "a"; Value.Date (d "2010-01-01"); Value.Date (d "2010-02-01") |];
          [| Value.Str "a"; Value.Date (d "2010-02-01"); Value.Date (d "2010-03-01") |];
          [| Value.Str "b"; Value.Date (d "2010-01-15"); Value.Date (d "2010-01-20") |];
        ];
    }
  in
  let c = Stratum.coalesce_result rs in
  check_rows "coalesced"
    [
      [ "a"; "2010-01-01"; "2010-03-01" ];
      [ "b"; "2010-01-15"; "2010-01-20" ];
    ]
    (List.sort compare (rows_of c));
  let sliced = Stratum.timeslice_result rs (d "2010-01-16") in
  check_rows "timeslice" [ [ "a" ]; [ "b" ] ] (List.sort compare (rows_of sliced))

(* [Stratum.read_only] is the server's MVCC routing gate: true sends a
   statement to a lock-free snapshot reader, false to the single-writer
   commit lane.  A write reachable through any routine — a CALLed
   procedure, a function a SELECT evaluates, a handler body, a nested
   CALL — must route to the lane. *)
let test_read_only_routing () =
  let e = fresh () in
  Engine.exec_script e
    "CREATE TABLE t (x INTEGER) WITH VALIDTIME;\n\
     CREATE TABLE log (x INTEGER);\n\
     CREATE PROCEDURE ro_proc (OUT n INTEGER) BEGIN SET n = (SELECT \
     COUNT(*) FROM t); END;\n\
     CREATE PROCEDURE if_writer (IN a INTEGER) BEGIN IF a > 0 THEN INSERT \
     INTO log VALUES (a); END IF; END;\n\
     CREATE FUNCTION fn_writer (a INTEGER) RETURNS INTEGER BEGIN INSERT \
     INTO log VALUES (a); RETURN a; END;\n\
     CREATE PROCEDURE handler_writer () BEGIN DECLARE v INTEGER; DECLARE \
     CONTINUE HANDLER FOR NOT FOUND INSERT INTO log VALUES (0); SET v = \
     (SELECT COUNT(*) FROM t); END;\n\
     CREATE PROCEDURE calls_writer () BEGIN CALL if_writer(1); END";
  let cat = Engine.catalog e in
  List.iter
    (fun (label, sql, expected) ->
      Alcotest.(check bool) label expected
        (Stratum.read_only cat (Sqlparse.Parser.parse_temporal_stmt sql)))
    [
      ("plain SELECT", "SELECT x FROM t", true);
      ("VALIDTIME SELECT", "VALIDTIME SELECT x FROM t", true);
      ("CALL of a read-only procedure", "CALL ro_proc(0)", true);
      ("CALL of a procedure writing inside IF", "CALL if_writer(1)", false);
      ("SELECT of a writing function", "SELECT fn_writer(x) FROM t", false);
      ("CALL of a procedure whose handler writes", "CALL handler_writer()",
       false);
      ("CALL of a procedure calling a writer", "CALL calls_writer()", false);
      ("sequenced INSERT",
       "VALIDTIME [DATE '2010-01-01', DATE '2010-02-01') INSERT INTO t (x) \
        VALUES (1)",
       false);
      ("sequenced DELETE",
       "VALIDTIME [DATE '2010-01-01', DATE '2010-02-01') DELETE FROM t", false);
    ]

(* A table and a view of one name: every path (evaluator, Current, MAX,
   PERST) reads the table, a temporary one first. *)
let test_table_shadows_view () =
  let e = fresh () in
  ignore
    (Stratum.exec_script e
       "CREATE TABLE x (v INTEGER); INSERT INTO x VALUES (1); CREATE TABLE y \
        (v INTEGER); INSERT INTO y VALUES (2); CREATE VIEW x AS SELECT v \
        FROM y");
  let reads name sql =
    check_rows name [ [ "1" ] ] (rows_of (Stratum.query e sql))
  in
  reads "current" "SELECT * FROM x";
  reads "nonsequenced" "NONSEQUENCED VALIDTIME SELECT * FROM x";
  ignore
    (Stratum.exec_script e
       "CREATE TABLE s (v INTEGER) WITH VALIDTIME; INSERT INTO s (v, \
        begin_time, end_time) VALUES (1, DATE '2010-01-01', DATE \
        '2010-03-01'); CREATE TABLE z (v INTEGER) WITH VALIDTIME; INSERT INTO \
        z (v, begin_time, end_time) VALUES (2, DATE '2010-01-01', DATE \
        '2010-03-01'); CREATE VIEW s AS SELECT v FROM z");
  List.iter
    (fun strategy ->
      check_rows
        ("sequenced, " ^ Stratum.strategy_to_string strategy)
        [ [ "1"; "2010-01-01"; "2010-03-01" ] ]
        (rows_of
           (Stratum.query ~strategy e
              "VALIDTIME [DATE '2010-01-01', DATE '2010-06-01') SELECT v FROM \
               s")))
    [ Stratum.Max; Stratum.Perst ];
  ignore
    (Stratum.exec_script e
       "CREATE VIEW w AS SELECT v FROM y; CREATE TEMPORARY TABLE w (v \
        INTEGER); INSERT INTO w VALUES (1)");
  reads "temp table over a view, current" "SELECT * FROM w";
  reads "temp table over a view, nonsequenced"
    "NONSEQUENCED VALIDTIME SELECT * FROM w"

let suite =
  [
    ( "stratum-edge",
      [
        Alcotest.test_case "DDL passes through verbatim" `Quick
          test_ddl_passthrough;
        Alcotest.test_case "explicit history insert" `Quick
          test_explicit_history_insert;
        Alcotest.test_case "duplicate INSERT column" `Quick
          test_duplicate_insert_column_rejected;
        Alcotest.test_case "temporal view, sequenced" `Quick
          test_temporal_view_sequenced;
        Alcotest.test_case "sequenced CALL" `Quick test_sequenced_call;
        Alcotest.test_case "temporal derived table rejected (MAX)" `Quick
          test_max_rejects_temporal_derived_table;
        Alcotest.test_case "sequenced DML type check" `Quick
          test_sequenced_dml_requires_temporal;
        Alcotest.test_case "nontemporal routine untouched everywhere" `Quick
          test_nontemporal_routine_all_contexts;
        Alcotest.test_case "coalesce / timeslice utilities" `Quick
          test_coalesce_result;
        Alcotest.test_case "read_only routes every reachable write" `Quick
          test_read_only_routing;
        Alcotest.test_case "a table shadows a view of its name" `Quick
          test_table_shadows_view;
      ] );
  ]
