(* PSM interpreter tests: stored functions and procedures, control
   statements, cursors, handlers, table-valued functions. *)

module Engine = Sqleval.Engine
module Eval = Sqleval.Eval
module RS = Sqleval.Result_set
module Value = Sqldb.Value

let setup () =
  let e = Engine.create () in
  Engine.exec_script e
    "CREATE TABLE nums (n INTEGER);\n\
     INSERT INTO nums VALUES (1), (2), (3), (4), (5);\n\
     CREATE TABLE author (author_id VARCHAR(10), first_name VARCHAR(50));\n\
     INSERT INTO author VALUES ('a1', 'Ben'), ('a2', 'Rick');";
  e

let rows e sql =
  let rs = Engine.query e sql in
  List.map (fun r -> List.map Value.to_string (Array.to_list r)) rs.RS.rows

let check_rows name expected actual =
  Alcotest.(check (list (list string))) name expected actual

let test_scalar_function () =
  let e = setup () in
  Engine.exec_script e
    "CREATE FUNCTION get_author_name (aid VARCHAR(10)) RETURNS VARCHAR(50) \
     READS SQL DATA LANGUAGE SQL BEGIN DECLARE fname VARCHAR(50); SET fname \
     = (SELECT first_name FROM author WHERE author_id = aid); RETURN fname; \
     END";
  check_rows "paper's running example" [ [ "Ben" ] ]
    (rows e "SELECT get_author_name('a1') FROM nums WHERE n = 1");
  check_rows "function in where" [ [ "1" ] ]
    (rows e "SELECT n FROM nums WHERE n = 1 AND get_author_name('a2') = 'Rick'")

let test_function_with_control_flow () =
  let e = setup () in
  Engine.exec_script e
    "CREATE FUNCTION fact (n INTEGER) RETURNS INTEGER BEGIN DECLARE acc \
     INTEGER DEFAULT 1; DECLARE i INTEGER DEFAULT 1; WHILE i <= n DO SET \
     acc = acc * i; SET i = i + 1; END WHILE; RETURN acc; END";
  check_rows "factorial via WHILE" [ [ "120" ] ]
    (rows e "SELECT fact(5) FROM nums WHERE n = 1")

let test_if_case () =
  let e = setup () in
  Engine.exec_script e
    "CREATE FUNCTION classify (x INTEGER) RETURNS VARCHAR(10) BEGIN DECLARE \
     r VARCHAR(10); IF x < 0 THEN SET r = 'neg'; ELSEIF x = 0 THEN SET r = \
     'zero'; ELSE SET r = 'pos'; END IF; RETURN r; END";
  check_rows "if/elseif/else"
    [ [ "pos"; "zero"; "neg" ] ]
    (rows e "SELECT classify(5), classify(0), classify(-3) FROM nums WHERE n = 1");
  Engine.exec_script e
    "CREATE FUNCTION sign_word (x INTEGER) RETURNS VARCHAR(10) BEGIN \
     DECLARE r VARCHAR(10); CASE WHEN x > 0 THEN SET r = 'plus'; WHEN x < 0 \
     THEN SET r = 'minus'; ELSE SET r = 'nil'; END CASE; RETURN r; END";
  check_rows "case statement"
    [ [ "plus"; "nil" ] ]
    (rows e "SELECT sign_word(2), sign_word(0) FROM nums WHERE n = 1")

let test_repeat_loop_leave () =
  let e = setup () in
  Engine.exec_script e
    "CREATE FUNCTION count_to (lim INTEGER) RETURNS INTEGER BEGIN DECLARE i \
     INTEGER DEFAULT 0; REPEAT SET i = i + 1; UNTIL i >= lim END REPEAT; \
     RETURN i; END";
  check_rows "repeat/until" [ [ "7" ] ]
    (rows e "SELECT count_to(7) FROM nums WHERE n = 1");
  (* REPEAT always executes at least once. *)
  check_rows "repeat executes once" [ [ "1" ] ]
    (rows e "SELECT count_to(0) FROM nums WHERE n = 1");
  Engine.exec_script e
    "CREATE FUNCTION leave_early (lim INTEGER) RETURNS INTEGER BEGIN \
     DECLARE i INTEGER DEFAULT 0; l1: LOOP SET i = i + 1; IF i >= lim THEN \
     LEAVE l1; END IF; END LOOP; RETURN i; END";
  check_rows "loop/leave" [ [ "4" ] ]
    (rows e "SELECT leave_early(4) FROM nums WHERE n = 1")

let test_iterate () =
  let e = setup () in
  Engine.exec_script e
    "CREATE FUNCTION sum_odds (lim INTEGER) RETURNS INTEGER BEGIN DECLARE i \
     INTEGER DEFAULT 0; DECLARE s INTEGER DEFAULT 0; l1: WHILE i < lim DO \
     SET i = i + 1; IF MOD(i, 2) = 0 THEN ITERATE l1; END IF; SET s = s + \
     i; END WHILE; RETURN s; END";
  check_rows "iterate skips evens" [ [ "9" ] ]
    (rows e "SELECT sum_odds(5) FROM nums WHERE n = 1")

let test_for_loop () =
  let e = setup () in
  Engine.exec_script e
    "CREATE FUNCTION sum_all () RETURNS INTEGER BEGIN DECLARE total INTEGER \
     DEFAULT 0; FOR SELECT n FROM nums DO SET total = total + n; END FOR; \
     RETURN total; END";
  check_rows "for over query" [ [ "15" ] ]
    (rows e "SELECT sum_all() FROM nums WHERE n = 1")

let test_cursor_fetch_handler () =
  let e = setup () in
  Engine.exec_script e
    "CREATE FUNCTION sum_cursor () RETURNS INTEGER BEGIN DECLARE total \
     INTEGER DEFAULT 0; DECLARE v INTEGER DEFAULT 0; DECLARE done_flag \
     INTEGER DEFAULT 0; DECLARE c CURSOR FOR SELECT n FROM nums; DECLARE \
     CONTINUE HANDLER FOR NOT FOUND SET done_flag = 1; OPEN c; FETCH c INTO \
     v; l1: WHILE done_flag = 0 DO SET total = total + v; FETCH c INTO v; \
     END WHILE; CLOSE c; RETURN total; END";
  check_rows "cursor loop with handler" [ [ "15" ] ]
    (rows e "SELECT sum_cursor() FROM nums WHERE n = 1")

let test_select_into () =
  let e = setup () in
  Engine.exec_script e
    "CREATE FUNCTION max_n () RETURNS INTEGER BEGIN DECLARE m INTEGER; \
     SELECT MAX(n) INTO m FROM nums; RETURN m; END";
  check_rows "select into" [ [ "5" ] ]
    (rows e "SELECT max_n() FROM nums WHERE n = 1")

let test_procedure_out_param () =
  let e = setup () in
  Engine.exec_script e
    "CREATE PROCEDURE double_it (IN a INTEGER, OUT b INTEGER) BEGIN SET b = \
     a * 2; END;\n\
     CREATE PROCEDURE add_one (INOUT x INTEGER) BEGIN SET x = x + 1; END;\n\
     CREATE FUNCTION use_procs (v INTEGER) RETURNS INTEGER BEGIN DECLARE r \
     INTEGER DEFAULT 0; CALL double_it(v, r); CALL add_one(r); RETURN r; END";
  check_rows "procedure call with OUT and INOUT" [ [ "21" ] ]
    (rows e "SELECT use_procs(10) FROM nums WHERE n = 1")

let test_nested_function_calls () =
  let e = setup () in
  Engine.exec_script e
    "CREATE FUNCTION inc (x INTEGER) RETURNS INTEGER BEGIN RETURN x + 1; END;\n\
     CREATE FUNCTION inc3 (x INTEGER) RETURNS INTEGER BEGIN RETURN \
     inc(inc(inc(x))); END";
  check_rows "nested calls" [ [ "13" ] ]
    (rows e "SELECT inc3(10) FROM nums WHERE n = 1")

let test_recursion_guard () =
  let e = setup () in
  Engine.exec_script e
    "CREATE FUNCTION boom (x INTEGER) RETURNS INTEGER BEGIN RETURN boom(x); \
     END";
  match rows e "SELECT boom(1) FROM nums WHERE n = 1" with
  | exception
      Taupsm_error.Error
        {
          code = Taupsm_error.Resource_exhausted Taupsm_error.Recursion_depth;
          message;
          routine;
          _;
        } ->
      Alcotest.(check bool) "mentions recursion" true
        (Astring.String.is_infix ~affix:"recursion" message);
      Alcotest.(check (option string)) "routine context" (Some "boom") routine
  | _ -> Alcotest.fail "unbounded recursion should be stopped"

let test_table_function () =
  let e = setup () in
  Engine.exec_script e
    "CREATE FUNCTION evens () RETURNS TABLE (v INTEGER) BEGIN RETURN TABLE \
     (SELECT n FROM nums WHERE MOD(n, 2) = 0); END";
  check_rows "table function in FROM" [ [ "2" ]; [ "4" ] ]
    (rows e "SELECT v FROM TABLE(evens()) t ORDER BY v")

let test_lateral_table_function () =
  let e = setup () in
  Engine.exec_script e
    "CREATE FUNCTION upto (k INTEGER) RETURNS TABLE (v INTEGER) BEGIN \
     RETURN TABLE (SELECT n FROM nums WHERE n <= k); END";
  (* Argument correlated with an earlier FROM item. *)
  check_rows "lateral correlation"
    [ [ "1"; "1" ]; [ "2"; "1" ]; [ "2"; "2" ] ]
    (rows e
       "SELECT n, v FROM nums, TABLE(upto(n)) t WHERE n <= 2 ORDER BY n, v")

let test_temp_table_in_routine () =
  let e = setup () in
  Engine.exec_script e
    "CREATE FUNCTION via_temp () RETURNS INTEGER BEGIN CREATE TEMPORARY \
     TABLE scratch AS (SELECT n FROM nums WHERE n > 3); RETURN (SELECT \
     COUNT(*) FROM scratch); END";
  check_rows "temp table in routine" [ [ "2" ] ]
    (rows e "SELECT via_temp() FROM nums WHERE n = 1")

let test_routine_isolation () =
  let e = setup () in
  Engine.exec_script e
    "CREATE FUNCTION probe () RETURNS INTEGER BEGIN RETURN n; END";
  (* The function body must not see the calling query's columns. *)
  match rows e "SELECT probe() FROM nums" with
  | exception Eval.Sql_error _ -> ()
  | _ -> Alcotest.fail "routine saw the caller's columns"

let test_missing_return () =
  let e = setup () in
  Engine.exec_script e
    "CREATE FUNCTION no_ret (x INTEGER) RETURNS INTEGER BEGIN SET x = x + \
     1; END";
  match rows e "SELECT no_ret(1) FROM nums WHERE n = 1" with
  | exception Eval.Sql_error _ -> ()
  | _ -> Alcotest.fail "function without RETURN should fail"

let test_block_scoping () =
  let e = setup () in
  Engine.exec_script e
    "CREATE FUNCTION shadow () RETURNS INTEGER BEGIN DECLARE x INTEGER \
     DEFAULT 1; BEGIN DECLARE x INTEGER DEFAULT 2; END; RETURN x; END";
  check_rows "inner block shadows then pops" [ [ "1" ] ]
    (rows e "SELECT shadow() FROM nums WHERE n = 1")

(* ------------------------------------------------------------------ *)
(* Regression: ddl_dump orders by object name                          *)
(* ------------------------------------------------------------------ *)

let test_ddl_dump_name_order () =
  let e = Engine.create () in
  (* registration order zzz-then-aaa, and rendered-text order puts
     "CREATE FUNCTION zzz" before "CREATE PROCEDURE aaa"; only a sort
     by *name* lists aaa first *)
  Engine.exec_script e
    "CREATE FUNCTION zzz () RETURNS INTEGER BEGIN RETURN 1; END;\n\
     CREATE PROCEDURE aaa () BEGIN INSERT INTO nowhere VALUES (1); END;\n\
     CREATE FUNCTION mmm () RETURNS INTEGER BEGIN RETURN 2; END";
  let dump = Sqleval.Catalog.ddl_dump (Engine.catalog e) in
  let heads =
    List.map
      (fun stmt ->
        match String.index_opt stmt '(' with
        | Some i -> String.trim (String.sub stmt 0 i)
        | None -> stmt)
      dump
  in
  Alcotest.(check (list string))
    "entries sorted by object name"
    [ "CREATE PROCEDURE aaa"; "CREATE FUNCTION mmm"; "CREATE FUNCTION zzz" ]
    heads

(* ------------------------------------------------------------------ *)
(* Regression: tf_cache is keyed on the catalog generation             *)
(* ------------------------------------------------------------------ *)

let test_tf_cache_redefine_in_call () =
  let e = Engine.create () in
  Taupsm.Stratum.install e;
  Engine.exec_script e
    "CREATE TABLE src (v INTEGER);\n\
     INSERT INTO src VALUES (1);\n\
     CREATE FUNCTION tf () RETURNS TABLE (v INTEGER) BEGIN RETURN TABLE \
     (SELECT v FROM src); END;\n\
     CREATE TABLE outt (a INTEGER, b INTEGER)";
  (* both invocations happen inside ONE top-level statement, so they
     share one tf_cache; the CREATE FUNCTION in between bumps the
     catalog generation and must orphan the first invocation's entry *)
  Engine.exec_script e
    "CREATE PROCEDURE redef () BEGIN DECLARE a INTEGER; DECLARE b INTEGER; \
     SET a = (SELECT MAX(t.v) FROM TABLE(tf()) t); CREATE FUNCTION tf () \
     RETURNS TABLE (v INTEGER) BEGIN RETURN TABLE (SELECT v + 100 FROM \
     src); END; SET b = (SELECT MAX(t.v) FROM TABLE(tf()) t); INSERT INTO \
     outt VALUES (a, b); END;\n\
     CALL redef()";
  Alcotest.(check (list (list string)))
    "second invocation sees the new definition"
    [ [ "1"; "101" ] ]
    (rows e "SELECT a, b FROM outt")

(* ------------------------------------------------------------------ *)
(* Regression: tf_cache replays only under unchanged base tables and    *)
(* tells argument values apart as the SELECT memo does                 *)
(* ------------------------------------------------------------------ *)

let tf_count_setup () =
  let e = Engine.create () in
  Engine.exec_script e
    "CREATE TABLE t (v INTEGER);\n\
     CREATE FUNCTION f () RETURNS TABLE (n INTEGER) READS SQL DATA \
     LANGUAGE SQL BEGIN RETURN TABLE (SELECT COUNT(*) AS n FROM t); END";
  e

let test_tf_cache_base_write () =
  let e = tf_count_setup () in
  Engine.exec_script e
    "CREATE FUNCTION g () RETURNS INTEGER MODIFIES SQL DATA LANGUAGE SQL \
     BEGIN DECLARE x INTEGER; DECLARE y INTEGER; SET x = (SELECT n FROM \
     TABLE(f()) a); INSERT INTO t VALUES (1); SET y = (SELECT n FROM \
     TABLE(f()) a); RETURN x * 100 + y; END";
  check_rows "the second call sees the insert" [ [ "1" ] ]
    (rows e "SELECT g()")

let test_tf_cache_temp_write () =
  let e = tf_count_setup () in
  let cat = Engine.catalog e in
  cat.Sqleval.Catalog.options.Sqleval.Catalog.observe <- true;
  Engine.exec_script e
    "CREATE FUNCTION g () RETURNS INTEGER MODIFIES SQL DATA LANGUAGE SQL \
     BEGIN DECLARE x INTEGER; DECLARE y INTEGER; SET x = (SELECT n FROM \
     TABLE(f()) a); CREATE TEMPORARY TABLE tmp (a INTEGER); INSERT INTO tmp \
     VALUES (1); SET y = (SELECT n FROM TABLE(f()) a); RETURN x * 100 + y; \
     END";
  let obs = Sqleval.Catalog.trace cat in
  let before = Trace.get_count obs "routine.calls" in
  check_rows "same rows" [ [ "0" ] ] (rows e "SELECT g()");
  Alcotest.(check int)
    "a temp-table write keeps the entry: g and one call of f" 2
    (Trace.get_count obs "routine.calls" - before)

let test_tf_cache_signed_zero () =
  let e = Engine.create () in
  Engine.exec_script e
    "CREATE FUNCTION f (x DOUBLE) RETURNS TABLE (y VARCHAR(20)) READS SQL \
     DATA LANGUAGE SQL BEGIN RETURN TABLE (SELECT CAST(x AS VARCHAR(20)) AS \
     y); END";
  check_rows "-0.0 and 0.0 are different arguments" [ [ "-0.0"; "0.0" ] ]
    (rows e "SELECT * FROM TABLE(f(-0.0)) b, TABLE(f(0.0)) a")

let suite =
  [
    ( "psm",
      [
        Alcotest.test_case "scalar function" `Quick test_scalar_function;
        Alcotest.test_case "while loop" `Quick test_function_with_control_flow;
        Alcotest.test_case "if / case stmt" `Quick test_if_case;
        Alcotest.test_case "repeat / loop / leave" `Quick test_repeat_loop_leave;
        Alcotest.test_case "iterate" `Quick test_iterate;
        Alcotest.test_case "for loop" `Quick test_for_loop;
        Alcotest.test_case "cursor + handler" `Quick test_cursor_fetch_handler;
        Alcotest.test_case "select into" `Quick test_select_into;
        Alcotest.test_case "procedure out params" `Quick test_procedure_out_param;
        Alcotest.test_case "nested calls" `Quick test_nested_function_calls;
        Alcotest.test_case "recursion guard" `Quick test_recursion_guard;
        Alcotest.test_case "table function" `Quick test_table_function;
        Alcotest.test_case "lateral table function" `Quick
          test_lateral_table_function;
        Alcotest.test_case "temp table in routine" `Quick
          test_temp_table_in_routine;
        Alcotest.test_case "routine isolation" `Quick test_routine_isolation;
        Alcotest.test_case "missing return" `Quick test_missing_return;
        Alcotest.test_case "block scoping" `Quick test_block_scoping;
        Alcotest.test_case "ddl_dump: by-name order" `Quick
          test_ddl_dump_name_order;
        Alcotest.test_case "tf_cache: redefine inside CALL" `Quick
          test_tf_cache_redefine_in_call;
        Alcotest.test_case "tf_cache: base-table write" `Quick
          test_tf_cache_base_write;
        Alcotest.test_case "tf_cache: temp-table write keeps it" `Quick
          test_tf_cache_temp_write;
        Alcotest.test_case "tf_cache: -0.0 vs 0.0" `Quick
          test_tf_cache_signed_zero;
      ] );
  ]
