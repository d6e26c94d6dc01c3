(* FROM-item decorrelation.  A table function, derived table or view
   whose column references reach no sibling FROM item is closed: it is
   evaluated once, before the join, and joined as materialised rows (so
   an equality on it plans a hash join).  One that reads a preceding
   item stays lateral and is re-evaluated per outer row, seeing only
   the items before it.  One that reads itself or a later item is a
   typed SQL error, never an internal one. *)

module Engine = Sqleval.Engine
module Eval = Sqleval.Eval
module Catalog = Sqleval.Catalog
module RS = Sqleval.Result_set
module Value = Sqldb.Value
module Date = Sqldb.Date
module Stratum = Taupsm.Stratum
module Datasets = Taubench.Datasets
module Queries = Taubench.Queries

let rows_of rs =
  List.map (fun r -> List.map Value.to_string (Array.to_list r)) rs.RS.rows

let check_rows name expected actual =
  Alcotest.(check (list (list string))) name expected actual

(* The join events and counters of one traced statement. *)
let traced e f =
  let cat = Engine.catalog e in
  cat.Catalog.options.Catalog.observe <- true;
  let tr = Catalog.trace cat in
  Trace.reset tr;
  let r = f () in
  let joins =
    List.filter_map
      (fun ev ->
        if ev.Trace.ev_label = "join" then Some ev.Trace.ev_detail else None)
      (Trace.events tr)
  in
  cat.Catalog.options.Catalog.observe <- false;
  (r, joins, Trace.get_count tr)

let check_join name joins expected =
  if not (List.mem expected joins) then
    Alcotest.failf "%s: no join %S among [%s]" name expected
      (String.concat "; " joins)

(* ------------------------------------------------------------------ *)
(* Bad references are typed errors                                     *)
(* ------------------------------------------------------------------ *)

let setup_fg () =
  let e = Engine.create () in
  Engine.exec_script e
    "CREATE TABLE f (v INTEGER);\n\
     CREATE TABLE g (w INTEGER);\n\
     INSERT INTO f VALUES (1);\n\
     INSERT INTO g VALUES (5);\n\
     CREATE FUNCTION gs (x INTEGER) RETURNS TABLE (y INTEGER) READS SQL DATA \
     LANGUAGE SQL BEGIN RETURN TABLE (SELECT w + x FROM g); END";
  e

let expect_sql_error e sql affix =
  match Engine.exec e sql with
  | _ -> Alcotest.failf "%s: expected an SQL error" sql
  | exception Eval.Sql_error msg ->
      if not (Astring.String.is_infix ~affix msg) then
        Alcotest.failf "%s: expected %S in the error, got %S" sql affix msg

let test_bad_references () =
  let e = setup_fg () in
  (* an unknown name inside a closed item is unknown, not the item's own
     (unbound) column *)
  expect_sql_error e "SELECT * FROM f, (SELECT bogus FROM f) d"
    "unknown column or variable bogus";
  expect_sql_error e "SELECT * FROM (SELECT f.v + 1 AS x FROM g) d, f"
    "FROM item d refers to f, which follows it";
  expect_sql_error e
    "SELECT * FROM f, (SELECT e.y + 1 AS x FROM g) d, (SELECT f.v AS y FROM \
     g) e"
    "FROM item d refers to e, which follows it";
  expect_sql_error e "SELECT * FROM (SELECT v + 1 AS x FROM g) d, f"
    "FROM item d refers to column v of f, which follows it";
  expect_sql_error e "SELECT * FROM f, (SELECT d.x FROM g) d"
    "FROM item d refers to itself";
  expect_sql_error e "SELECT * FROM TABLE(gs(f.v)) t, f"
    "FROM item t refers to f, which follows it";
  (* correlated on f, so lateral; its unqualified x is its own output
     column, which a lateral item does not see *)
  expect_sql_error e "SELECT * FROM f, (SELECT f.v AS x, x AS z FROM g) d"
    "unknown column or variable x"

(* A WHERE subquery's unqualified reference to a later FROM item places
   the conjunct at that item's level, not before it is bound. *)
let test_subquery_conjunct_level () =
  let e = setup_fg () in
  check_rows "EXISTS on the second item's column" [ [ "5"; "1" ] ]
    (rows_of
       (Engine.query e
          "SELECT * FROM g, f WHERE EXISTS (SELECT 1 FROM g g2 WHERE g2.w > \
           v)"))

(* ------------------------------------------------------------------ *)
(* Closed and correlated table functions                               *)
(* ------------------------------------------------------------------ *)

let setup_nums () =
  let e = Engine.create () in
  Engine.exec_script e
    "CREATE TABLE nums (n INTEGER);\n\
     INSERT INTO nums VALUES (1), (2), (3), (4), (5);\n\
     CREATE TABLE none (n INTEGER);\n\
     CREATE FUNCTION tf (x INTEGER) RETURNS TABLE (k INTEGER, m INTEGER) \
     READS SQL DATA LANGUAGE SQL BEGIN RETURN TABLE (SELECT n, n * x FROM \
     nums WHERE n > 2); END";
  e

let test_closed_literal () =
  let e = setup_nums () in
  let rs, joins, count =
    traced e (fun () ->
        Engine.query e
          "SELECT nums.n, t.m FROM nums, TABLE(tf(10)) t WHERE nums.n = t.k")
  in
  check_rows "rows" [ [ "3"; "30" ]; [ "4"; "40" ]; [ "5"; "50" ] ]
    (rows_of rs);
  check_join "literal argument" joins "order=nums:full,t:hash(k)";
  Alcotest.(check int) "no lateral scan" 0 (count "scan.lateral");
  Alcotest.(check int) "one hash probe per nums row" 5 (count "scan.hash")

let test_closed_parameter () =
  let e = setup_nums () in
  Engine.exec_script e
    "CREATE FUNCTION total (p INTEGER) RETURNS INTEGER READS SQL DATA \
     LANGUAGE SQL BEGIN DECLARE s INTEGER; SET s = (SELECT SUM(t.m) FROM \
     nums, TABLE(tf(p)) t WHERE nums.n = t.k); RETURN s; END";
  let rs, joins, count =
    traced e (fun () -> Engine.query e "SELECT total(10) FROM nums WHERE n = 1")
  in
  check_rows "sum" [ [ "120" ] ] (rows_of rs);
  check_join "parameter argument" joins "order=nums:full,t:hash(k)";
  Alcotest.(check int) "no lateral scan" 0 (count "scan.lateral")

(* Column lookup prefers a FROM item's column to a routine parameter of
   the same name, so the call reads the outer row and stays lateral. *)
let test_parameter_shadowed_by_column () =
  let e = setup_nums () in
  Engine.exec_script e
    "CREATE FUNCTION total2 (n INTEGER) RETURNS INTEGER READS SQL DATA \
     LANGUAGE SQL BEGIN DECLARE s INTEGER; SET s = (SELECT SUM(t.m) FROM \
     nums, TABLE(tf(n)) t WHERE nums.n = t.k); RETURN s; END";
  let rs, joins, count =
    traced e (fun () ->
        Engine.query e "SELECT total2(100) FROM nums WHERE n = 1")
  in
  (* tf(r) at nums row r: its row k = r carries m = r * r *)
  check_rows "sum of squares 3..5" [ [ "50" ] ] (rows_of rs);
  check_join "column argument" joins "order=nums:full,t:lateral";
  Alcotest.(check int) "one lateral scan per nums row" 5 (count "scan.lateral")

let test_correlated_preceding () =
  let e = setup_nums () in
  let rs, joins, count =
    traced e (fun () ->
        Engine.query e
          "SELECT nums.n, t.m FROM nums, TABLE(tf(nums.n)) t WHERE t.k = 3")
  in
  check_rows "rows" [ [ "1"; "3" ]; [ "2"; "6" ]; [ "3"; "9" ]; [ "4"; "12" ];
                      [ "5"; "15" ] ]
    (rows_of rs);
  check_join "qualified argument" joins "order=nums:full,t:lateral";
  Alcotest.(check int) "lateral scans" 5 (count "scan.lateral")

(* A closed item runs before the join, as a non-LATERAL derived table
   does in SQL, even when a sibling has no rows. *)
let test_closed_runs_once () =
  let e = setup_nums () in
  let rs, _, count =
    traced e (fun () ->
        Engine.query e "SELECT * FROM none, TABLE(tf(1)) t")
  in
  check_rows "no rows" [] (rows_of rs);
  Alcotest.(check int) "called once" 1 (count "routine.calls");
  let _, _, count =
    traced e (fun () ->
        Engine.query e "SELECT * FROM none, TABLE(tf(none.n)) t")
  in
  Alcotest.(check int) "a lateral call needs an outer row" 0
    (count "routine.calls")

let test_derived_and_view () =
  let e = setup_nums () in
  Engine.exec e "CREATE VIEW big AS SELECT n AS b FROM nums WHERE n > 3"
  |> ignore;
  let rs, joins, count =
    traced e (fun () ->
        Engine.query e
          "SELECT nums.n, d.b FROM nums, (SELECT n AS b FROM nums WHERE n < \
           3) d, big WHERE nums.n = d.b AND big.b = nums.n + 3")
  in
  check_rows "rows" [ [ "1"; "1" ]; [ "2"; "2" ] ] (rows_of rs);
  check_join "closed derived table and view" joins
    "order=nums:full,d:hash(b),big:hash(b)";
  Alcotest.(check int) "no lateral scan" 0 (count "scan.lateral");
  let rs, joins, _ =
    traced e (fun () ->
        Engine.query e
          "SELECT nums.n, d.c FROM nums, (SELECT COUNT(*) AS c FROM nums n2 \
           WHERE n2.n < nums.n) d")
  in
  check_rows "correlated derived table"
    [ [ "1"; "0" ]; [ "2"; "1" ]; [ "3"; "2" ]; [ "4"; "3" ]; [ "5"; "4" ] ]
    (rows_of rs);
  check_join "correlated derived table" joins "order=nums:full,d:lateral"

(* ------------------------------------------------------------------ *)
(* q19 under MAX and PERST                                             *)
(* ------------------------------------------------------------------ *)

let small_ds1 =
  lazy
    (Datasets.load { Datasets.ds = Datasets.DS1; size = Taupsm.Heuristic.Small })

let test_q19_max_equals_perst () =
  let q = Queries.find "q19" in
  let day s = Date.of_string_exn s in
  let from = day "2010-06-01" in
  List.iter
    (fun (what, ctx, nonempty) ->
      let run strategy =
        let e = Engine.copy (Lazy.force small_ds1) in
        Queries.install e;
        traced e (fun () ->
            Stratum.query ~strategy e (Queries.sequenced ~context:ctx q))
      in
      let max_rs, _, _ = run Stratum.Max in
      let perst_rs, joins, count = run Stratum.Perst in
      let coalesced rs =
        List.sort compare (rows_of (Stratum.coalesce_result rs))
      in
      let max_rows = coalesced max_rs in
      Alcotest.(check bool)
        (what ^ ": rows present") nonempty (max_rows <> []);
      Alcotest.(check (list (list string)))
        (what ^ ": MAX = PERST") max_rows (coalesced perst_rs);
      check_join what joins "order=i:full,t:hash(iid)";
      Alcotest.(check int) (what ^ ": no lateral scan under PERST") 0
        (count "scan.lateral"))
    [
      ("1 day", (from, Date.add_days from 1), true);
      ("14 days", (from, Date.add_days from 14), true);
      ("365 days", (from, Date.add_days from 365), true);
      ("no history", (day "2009-01-01", day "2009-02-01"), false);
    ]

let suite =
  [
    ( "lateral",
      [
        Alcotest.test_case "bad FROM references are SQL errors" `Quick
          test_bad_references;
        Alcotest.test_case "subquery conjunct waits for its item" `Quick
          test_subquery_conjunct_level;
        Alcotest.test_case "closed TABLE(f(1)) hash-joins" `Quick
          test_closed_literal;
        Alcotest.test_case "closed TABLE(f(p)) hash-joins" `Quick
          test_closed_parameter;
        Alcotest.test_case "parameter named like a column stays lateral"
          `Quick test_parameter_shadowed_by_column;
        Alcotest.test_case "correlated TABLE(f(x.c)) stays lateral" `Quick
          test_correlated_preceding;
        Alcotest.test_case "closed item runs once, before the join" `Quick
          test_closed_runs_once;
        Alcotest.test_case "closed derived table and view hash-join" `Quick
          test_derived_and_view;
        Alcotest.test_case "q19: MAX = PERST, hash join" `Quick
          test_q19_max_equals_perst;
      ] );
  ]
