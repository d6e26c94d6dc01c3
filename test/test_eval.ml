(* Query-evaluator tests: joins, predicates, NULL semantics, aggregates,
   subqueries, set operations, DML, views. *)

module Engine = Sqleval.Engine
module Eval = Sqleval.Eval
module RS = Sqleval.Result_set
module Value = Sqldb.Value

let setup () =
  let e = Engine.create () in
  Engine.exec_script e
    "CREATE TABLE item (id INTEGER, title VARCHAR(50), price DOUBLE);\n\
     CREATE TABLE author (id INTEGER, name VARCHAR(50), country VARCHAR(20));\n\
     CREATE TABLE item_author (item_id INTEGER, author_id INTEGER);\n\
     INSERT INTO item VALUES (1, 'SQL Basics', 10.0), (2, 'Advanced SQL', \
     20.0), (3, 'Temporal DB', 30.0);\n\
     INSERT INTO author VALUES (1, 'Ben', 'US'), (2, 'Rick', 'US'), (3, \
     'Dana', 'CA');\n\
     INSERT INTO item_author VALUES (1, 1), (2, 1), (2, 2), (3, 3);";
  e

let rows e sql =
  let rs = Engine.query e sql in
  List.map (fun r -> List.map Value.to_string (Array.to_list r)) rs.RS.rows

let check_rows name expected actual =
  Alcotest.(check (list (list string))) name expected actual

let test_projection () =
  let e = setup () in
  check_rows "simple projection"
    [ [ "SQL Basics" ]; [ "Advanced SQL" ]; [ "Temporal DB" ] ]
    (rows e "SELECT title FROM item");
  check_rows "expression projection" [ [ "11.0" ] ]
    (rows e "SELECT price + 1 FROM item WHERE id = 1")

let test_where () =
  let e = setup () in
  check_rows "comparison" [ [ "Temporal DB" ] ]
    (rows e "SELECT title FROM item WHERE price > 20.0");
  check_rows "and/or"
    [ [ "SQL Basics" ]; [ "Temporal DB" ] ]
    (rows e "SELECT title FROM item WHERE price < 15.0 OR price > 25.0")

let test_join () =
  let e = setup () in
  check_rows "two-way join"
    [ [ "SQL Basics"; "Ben" ]; [ "Advanced SQL"; "Ben" ] ]
    (rows e
       "SELECT i.title, a.name FROM item i, item_author ia, author a WHERE \
        i.id = ia.item_id AND ia.author_id = a.id AND a.name = 'Ben' ORDER \
        BY i.id")

let test_self_join () =
  let e = setup () in
  check_rows "self join"
    [ [ "1"; "2" ] ]
    (rows e
       "SELECT x.author_id, y.author_id FROM item_author x, item_author y \
        WHERE x.item_id = y.item_id AND x.author_id < y.author_id")

let test_null_semantics () =
  let e = setup () in
  ignore (Engine.exec e "INSERT INTO item VALUES (4, 'Mystery', NULL)");
  check_rows "null not matched by comparison" []
    (rows e "SELECT title FROM item WHERE price = NULL");
  check_rows "is null" [ [ "Mystery" ] ]
    (rows e "SELECT title FROM item WHERE price IS NULL");
  check_rows "null excluded from predicate"
    [ [ "SQL Basics" ] ]
    (rows e "SELECT title FROM item WHERE price < 15.0");
  (* NOT (NULL comparison) is still unknown, not true. *)
  check_rows "not of unknown"
    [ [ "Advanced SQL" ]; [ "Temporal DB" ] ]
    (rows e "SELECT title FROM item WHERE NOT (price < 15.0)")

let test_in_null () =
  let e = setup () in
  (* x IN (..., NULL) with no match is UNKNOWN, so NOT IN filters row out. *)
  check_rows "not in with null" []
    (rows e "SELECT title FROM item WHERE id = 1 AND 5 NOT IN (1, NULL)");
  check_rows "in with match despite null" [ [ "SQL Basics" ] ]
    (rows e "SELECT title FROM item WHERE id = 1 AND 1 IN (1, NULL)")

let test_aggregates () =
  let e = setup () in
  check_rows "count star" [ [ "3" ] ] (rows e "SELECT COUNT(*) FROM item");
  check_rows "sum/avg/min/max" [ [ "60.0"; "20.0"; "10.0"; "30.0" ] ]
    (rows e "SELECT SUM(price), AVG(price), MIN(price), MAX(price) FROM item");
  check_rows "group by"
    [ [ "1"; "1" ]; [ "2"; "2" ]; [ "3"; "1" ] ]
    (rows e
       "SELECT item_id, COUNT(*) FROM item_author GROUP BY item_id ORDER BY \
        item_id");
  check_rows "having" [ [ "2" ] ]
    (rows e
       "SELECT item_id FROM item_author GROUP BY item_id HAVING COUNT(*) > 1");
  check_rows "count on empty input is zero" [ [ "0" ] ]
    (rows e "SELECT COUNT(*) FROM item WHERE id > 100");
  check_rows "count distinct" [ [ "3" ] ]
    (rows e "SELECT COUNT(DISTINCT author_id) FROM item_author")

let test_distinct_order () =
  let e = setup () in
  check_rows "distinct" [ [ "1" ]; [ "2" ]; [ "3" ] ]
    (rows e "SELECT DISTINCT author_id FROM item_author ORDER BY author_id");
  check_rows "order desc"
    [ [ "Temporal DB" ]; [ "Advanced SQL" ]; [ "SQL Basics" ] ]
    (rows e "SELECT title FROM item ORDER BY price DESC");
  check_rows "fetch first" [ [ "SQL Basics" ] ]
    (rows e "SELECT title FROM item ORDER BY price FETCH FIRST 1 ROWS ONLY")

let test_subqueries () =
  let e = setup () in
  check_rows "scalar subquery" [ [ "Temporal DB" ] ]
    (rows e
       "SELECT title FROM item WHERE price = (SELECT MAX(price) FROM item)");
  check_rows "correlated exists"
    [ [ "Advanced SQL" ] ]
    (rows e
       "SELECT i.title FROM item i WHERE EXISTS (SELECT 1 FROM item_author \
        ia WHERE ia.item_id = i.id AND ia.author_id = 2)");
  check_rows "in subquery"
    [ [ "SQL Basics" ]; [ "Advanced SQL" ] ]
    (rows e
       "SELECT title FROM item WHERE id IN (SELECT item_id FROM item_author \
        WHERE author_id = 1) ORDER BY id");
  check_rows "derived table" [ [ "2" ] ]
    (rows e
       "SELECT COUNT(*) FROM (SELECT item_id FROM item_author WHERE \
        author_id = 1) sub")

let test_set_ops () =
  let e = setup () in
  check_rows "union dedupes" [ [ "1" ]; [ "2" ]; [ "3" ] ]
    (rows e
       "SELECT item_id FROM item_author UNION SELECT author_id FROM \
        item_author ORDER BY item_id");
  Alcotest.(check int)
    "union all keeps duplicates" 8
    (List.length
       (rows e
          "SELECT item_id FROM item_author UNION ALL SELECT author_id FROM \
           item_author"));
  check_rows "except" [ [ "10.0" ] ]
    (rows e
       "SELECT price FROM item EXCEPT SELECT price FROM item WHERE price > \
        15.0");
  check_rows "intersect" [ [ "2" ] ]
    (rows e
       "SELECT item_id FROM item_author WHERE author_id = 1 INTERSECT \
        SELECT item_id FROM item_author WHERE author_id = 2")

let test_dml () =
  let e = setup () in
  (match Engine.exec e "UPDATE item SET price = price * 2 WHERE id = 1" with
  | Eval.Affected 1 -> ()
  | _ -> Alcotest.fail "expected 1 row updated");
  check_rows "update applied" [ [ "20.0" ] ]
    (rows e "SELECT price FROM item WHERE id = 1");
  (match Engine.exec e "DELETE FROM item WHERE id = 2" with
  | Eval.Affected 1 -> ()
  | _ -> Alcotest.fail "expected 1 row deleted");
  Alcotest.(check int) "two rows left" 2 (List.length (rows e "SELECT * FROM item"));
  (match
     Engine.exec e "INSERT INTO item (title, id) VALUES ('Partial', 9)"
   with
  | Eval.Affected 1 -> ()
  | _ -> Alcotest.fail "expected 1 row inserted");
  check_rows "missing column is null" [ [ "9"; "Partial"; "NULL" ] ]
    (rows e "SELECT * FROM item WHERE id = 9")

let test_views () =
  let e = setup () in
  ignore
    (Engine.exec e
       "CREATE VIEW cheap AS (SELECT title FROM item WHERE price < 15.0)");
  check_rows "view works" [ [ "SQL Basics" ] ] (rows e "SELECT * FROM cheap");
  ignore (Engine.exec e "INSERT INTO item VALUES (5, 'Pamphlet', 2.0)");
  check_rows "view sees new data"
    [ [ "SQL Basics" ]; [ "Pamphlet" ] ]
    (rows e "SELECT * FROM cheap")

let test_temp_table () =
  let e = setup () in
  ignore
    (Engine.exec e
       "CREATE TEMPORARY TABLE expensive AS (SELECT * FROM item WHERE price \
        > 15.0)");
  Alcotest.(check int) "temp table rows" 2
    (List.length (rows e "SELECT * FROM expensive"));
  (* Re-creating a temporary table replaces it. *)
  ignore
    (Engine.exec e
       "CREATE TEMPORARY TABLE expensive AS (SELECT * FROM item WHERE price \
        > 25.0)");
  Alcotest.(check int) "temp table replaced" 1
    (List.length (rows e "SELECT * FROM expensive"))

let test_builtin_functions () =
  let e = setup () in
  check_rows "string functions" [ [ "BEN"; "3" ] ]
    (rows e "SELECT UPPER(name), CHAR_LENGTH(name) FROM author WHERE id = 1");
  check_rows "like" [ [ "Advanced SQL" ] ]
    (rows e "SELECT title FROM item WHERE title LIKE 'Adv%'");
  check_rows "like underscore" [ [ "Ben" ] ]
    (rows e "SELECT name FROM author WHERE name LIKE 'B_n'");
  check_rows "coalesce" [ [ "fallback" ] ]
    (rows e "SELECT COALESCE(NULL, 'fallback') FROM item WHERE id = 1");
  check_rows "first/last instance" [ [ "1"; "2" ] ]
    (rows e
       "SELECT FIRST_INSTANCE(1, 2), LAST_INSTANCE(1, 2) FROM item WHERE id \
        = 1")

let test_date_arithmetic () =
  let e = setup () in
  check_rows "date plus int"
    [ [ "2010-01-11" ] ]
    (rows e "SELECT DATE '2010-01-01' + 10 FROM item WHERE id = 1");
  check_rows "date difference" [ [ "31" ] ]
    (rows e
       "SELECT DATE '2010-02-01' - DATE '2010-01-01' FROM item WHERE id = 1")

let test_current_date () =
  let e = Engine.create ~now:(Sqldb.Date.of_ymd ~y:2010 ~m:7 ~d:4) () in
  ignore (Engine.exec e "CREATE TABLE one (x INTEGER)");
  ignore (Engine.exec e "INSERT INTO one VALUES (1)");
  check_rows "current_date reflects session now" [ [ "2010-07-04" ] ]
    (rows e "SELECT CURRENT_DATE FROM one")

let test_errors () =
  let e = setup () in
  let expect_sql_error sql =
    match Engine.exec e sql with
    | exception Eval.Sql_error _ -> ()
    | _ -> Alcotest.failf "expected Sql_error for %S" sql
  in
  expect_sql_error "SELECT * FROM no_such_table";
  expect_sql_error "SELECT no_such_col FROM item";
  expect_sql_error "SELECT unknown_fun(1) FROM item";
  expect_sql_error "SELECT title FROM item WHERE price = (SELECT price FROM item)"

let test_ambiguous_column () =
  let e = setup () in
  match Engine.exec e "SELECT id FROM item, author" with
  | exception Eval.Sql_error _ -> ()
  | _ -> Alcotest.fail "ambiguous column should be rejected"

(* A view that reaches itself is refused at CREATE VIEW, directly, through
   another view or a subquery, and even where a table of its name exists
   (the stratum expands views before tables).  A cycle that bypasses the
   check — recovered DDL registers views without it — is an SQL error at
   use, in the evaluator and in the stratum, not a recursion without
   end. *)
let test_view_cycles () =
  let e = Engine.create () in
  let sql_error what f affix =
    match f () with
    | _ -> Alcotest.failf "%s: expected an SQL error" what
    | exception Eval.Sql_error msg ->
        if not (Astring.String.is_infix ~affix msg) then
          Alcotest.failf "%s: expected %S in the error, got %S" what affix msg
  in
  let refused sql affix = sql_error sql (fun () -> Engine.exec e sql) affix in
  ignore (Engine.exec e "CREATE TABLE f (v INTEGER)");
  refused "CREATE VIEW vw AS SELECT * FROM vw"
    "view vw is defined in terms of itself";
  ignore (Engine.exec e "CREATE VIEW a AS SELECT * FROM b");
  refused "CREATE VIEW b AS SELECT * FROM a"
    "view b is defined in terms of itself";
  refused "CREATE VIEW b AS SELECT v FROM f WHERE EXISTS (SELECT 1 FROM a)"
    "view b is defined in terms of itself";
  refused "CREATE VIEW f AS SELECT v + 1 AS v FROM f"
    "view f is defined in terms of itself";
  ignore (Engine.exec e "CREATE VIEW b AS SELECT v FROM f");
  ignore (Engine.exec e "INSERT INTO f VALUES (7)");
  check_rows "an acyclic chain of views" [ [ "7" ] ] (rows e "SELECT * FROM a");
  let query sql =
    match Sqlparse.Parser.parse_stmt_string sql with
    | Sqlast.Ast.Squery q -> q
    | _ -> assert false
  in
  let cat = Engine.catalog e in
  Sqleval.Catalog.add_view cat "b" (query "SELECT * FROM a");
  Sqleval.Catalog.add_view cat "vw" (query "SELECT * FROM vw");
  List.iter
    (fun (sql, affix) ->
      sql_error (sql ^ " (evaluator)") (fun () -> Engine.query e sql) affix;
      sql_error (sql ^ " (stratum)")
        (fun () -> Taupsm.Stratum.query e sql)
        affix)
    [
      ("SELECT * FROM a", "view a is defined in terms of itself");
      ("SELECT * FROM vw", "view vw is defined in terms of itself");
    ]

let suite =
  [
    ( "eval",
      [
        Alcotest.test_case "projection" `Quick test_projection;
        Alcotest.test_case "where" `Quick test_where;
        Alcotest.test_case "join" `Quick test_join;
        Alcotest.test_case "self join" `Quick test_self_join;
        Alcotest.test_case "null 3VL" `Quick test_null_semantics;
        Alcotest.test_case "in with null" `Quick test_in_null;
        Alcotest.test_case "aggregates" `Quick test_aggregates;
        Alcotest.test_case "distinct/order/fetch" `Quick test_distinct_order;
        Alcotest.test_case "subqueries" `Quick test_subqueries;
        Alcotest.test_case "set operations" `Quick test_set_ops;
        Alcotest.test_case "dml" `Quick test_dml;
        Alcotest.test_case "views" `Quick test_views;
        Alcotest.test_case "temporary tables" `Quick test_temp_table;
        Alcotest.test_case "builtins" `Quick test_builtin_functions;
        Alcotest.test_case "date arithmetic" `Quick test_date_arithmetic;
        Alcotest.test_case "current_date" `Quick test_current_date;
        Alcotest.test_case "runtime errors" `Quick test_errors;
        Alcotest.test_case "ambiguous column" `Quick test_ambiguous_column;
        Alcotest.test_case "self-referencing views are SQL errors" `Quick
          test_view_cycles;
      ] );
  ]
