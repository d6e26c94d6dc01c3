(* Explicit JOIN syntax: INNER JOIN (desugared to a cross product with
   the ON condition conjoined) and LEFT JOIN (null extension), both
   conventionally and under temporal semantics. *)

module Engine = Sqleval.Engine
module Eval = Sqleval.Eval
module RS = Sqleval.Result_set
module Value = Sqldb.Value
module Stratum = Taupsm.Stratum

let d = Sqldb.Date.of_string_exn

let rows_of rs =
  List.map (fun r -> List.map Value.to_string (Array.to_list r)) rs.RS.rows

let check_rows name expected actual =
  Alcotest.(check (list (list string))) name expected actual

let setup () =
  let e = Engine.create () in
  Engine.exec_script e
    "CREATE TABLE dept (id INTEGER, dname VARCHAR(10));\n\
     CREATE TABLE emp (name VARCHAR(10), dept_id INTEGER);\n\
     INSERT INTO dept VALUES (1, 'eng'), (2, 'ops'), (3, 'empty');\n\
     INSERT INTO emp VALUES ('ada', 1), ('bob', 1), ('cyn', 2), ('drift', \
     NULL)";
  e

let test_inner_join () =
  let e = setup () in
  check_rows "inner join"
    [ [ "ada"; "eng" ]; [ "bob"; "eng" ]; [ "cyn"; "ops" ] ]
    (rows_of
       (Engine.query e
          "SELECT e.name, d.dname FROM emp e INNER JOIN dept d ON e.dept_id \
           = d.id ORDER BY e.name"));
  (* The INNER keyword is optional. *)
  Alcotest.(check int) "bare JOIN" 3
    (RS.row_count
       (Engine.query e
          "SELECT e.name FROM emp e JOIN dept d ON e.dept_id = d.id"))

let test_left_join () =
  let e = setup () in
  check_rows "left join null-extends"
    [
      [ "ada"; "eng" ]; [ "bob"; "eng" ]; [ "cyn"; "ops" ];
      [ "drift"; "NULL" ];
    ]
    (rows_of
       (Engine.query e
          "SELECT e.name, d.dname FROM emp e LEFT JOIN dept d ON e.dept_id \
           = d.id ORDER BY e.name"));
  (* WHERE applies after the extension: the classic not-matched filter. *)
  check_rows "anti-join via left join"
    [ [ "drift" ] ]
    (rows_of
       (Engine.query e
          "SELECT e.name FROM emp e LEFT OUTER JOIN dept d ON e.dept_id = \
           d.id WHERE d.id IS NULL"))

let test_left_join_preserves_unmatched_left_table () =
  let e = setup () in
  check_rows "departments without employees"
    [ [ "empty" ] ]
    (rows_of
       (Engine.query e
          "SELECT d.dname FROM dept d LEFT JOIN emp e ON e.dept_id = d.id \
           WHERE e.name IS NULL"))

let test_join_chain () =
  let e = setup () in
  Engine.exec_script e
    "CREATE TABLE site (dept_id INTEGER, city VARCHAR(10));\n\
     INSERT INTO site VALUES (1, 'berlin')";
  check_rows "inner then left"
    [ [ "ada"; "berlin" ]; [ "bob"; "berlin" ]; [ "cyn"; "NULL" ] ]
    (rows_of
       (Engine.query e
          "SELECT e.name, s.city FROM emp e JOIN dept d ON e.dept_id = d.id \
           LEFT JOIN site s ON s.dept_id = d.id ORDER BY e.name"))

let test_join_roundtrip () =
  let src =
    "SELECT e.name FROM emp e INNER JOIN dept d ON e.dept_id = d.id LEFT \
     JOIN site s ON s.dept_id = d.id"
  in
  let q1 = Sqlparse.Parser.parse_stmt_string src in
  let q2 =
    Sqlparse.Parser.parse_stmt_string (Sqlast.Pretty.stmt_to_string q1)
  in
  Alcotest.(check bool) "pretty/parse roundtrip" true (q1 = q2)

(* ------------------- temporal interplay ------------------- *)

(* A join nested right of a LEFT JOIN is rejected by the planner's FROM
   flattening, which the interpreter and the plan compiler share: one
   message whether compilation is on or off.  The parser never nests a
   join there, so the statement is built as an AST. *)
let test_nested_left_join_rejected () =
  let open Sqlast.Ast in
  Compile.install ();
  let nested =
    Tjoin
      ( Tref ("emp", Some "e"),
        Jleft,
        Tjoin
          ( Tref ("dept", Some "d"),
            Jinner,
            Tref ("emp", Some "f"),
            qcol "f" "dept_id" === qcol "d" "id" ),
        qcol "e" "dept_id" === qcol "d" "id" )
  in
  let stmt =
    Squery
      (Select
         {
           select_default with
           proj = [ Proj_expr (qcol "e" "name", None) ];
           from = [ nested ];
         })
  in
  let message compile =
    let cat = Engine.catalog (setup ()) in
    cat.Sqleval.Catalog.options.Sqleval.Catalog.compile <- compile;
    match Eval.exec_toplevel cat stmt with
    | exception Eval.Sql_error m -> m
    | _ -> Alcotest.fail "nested join right of a LEFT JOIN was accepted"
  in
  let interpreted = message false in
  Alcotest.(check string) "interpreted"
    "a nested join on the right of a LEFT JOIN is not supported" interpreted;
  Alcotest.(check string) "compiled" interpreted (message true)

let setup_temporal () =
  let e = Engine.create ~now:(d "2010-07-01") () in
  Stratum.install e;
  Engine.exec_script e
    "CREATE TABLE emp (name VARCHAR(10), dept_id INTEGER) WITH VALIDTIME;\n\
     CREATE TABLE dept (id INTEGER, dname VARCHAR(10)) WITH VALIDTIME;\n\
     INSERT INTO emp (name, dept_id, begin_time, end_time) VALUES ('ada', \
     1, DATE '2010-01-01', DATE '9999-12-31'), ('bob', 2, DATE \
     '2010-03-01', DATE '2010-06-01');\n\
     INSERT INTO dept (id, dname, begin_time, end_time) VALUES (1, 'eng', \
     DATE '2010-01-01', DATE '9999-12-31'), (2, 'ops', DATE '2010-04-01', \
     DATE '9999-12-31')";
  e

let test_current_inner_join_temporal () =
  let e = setup_temporal () in
  (* bob's row ended in June; currently only ada matches. *)
  check_rows "current inner join"
    [ [ "ada"; "eng" ] ]
    (rows_of
       (Stratum.query e
          "SELECT e.name, d.dname FROM emp e JOIN dept d ON e.dept_id = d.id"))

let test_current_left_join_temporal () =
  let e = setup_temporal () in
  ignore
    (Stratum.exec_sql e
       "INSERT INTO emp (name, dept_id) VALUES ('new', 9)");
  (* The currency predicate for dept must live in the ON clause: 'new'
     still appears, null-extended. *)
  check_rows "current left join keeps unmatched"
    [ [ "ada"; "eng" ]; [ "new"; "NULL" ] ]
    (rows_of
       (Stratum.query e
          "SELECT e.name, d.dname FROM emp e LEFT JOIN dept d ON e.dept_id \
           = d.id ORDER BY e.name"))

let test_sequenced_inner_join () =
  let e = setup_temporal () in
  (* bob was in ops only while both his row and ops existed: Apr-Jun. *)
  let rs =
    Stratum.coalesce_result
      (Stratum.query ~strategy:Stratum.Max e
         "VALIDTIME SELECT e.name FROM emp e JOIN dept d ON e.dept_id = \
          d.id WHERE d.dname = 'ops'")
  in
  check_rows "sequenced inner join"
    [ [ "bob"; "2010-04-01"; "2010-06-01" ] ]
    (rows_of rs);
  (* PERST agrees (inner joins are normalized before slicing). *)
  let rs2 =
    Stratum.coalesce_result
      (Stratum.query ~strategy:Stratum.Perst e
         "VALIDTIME SELECT e.name FROM emp e JOIN dept d ON e.dept_id = \
          d.id WHERE d.dname = 'ops'")
  in
  check_rows "PERST agrees" [ [ "bob"; "2010-04-01"; "2010-06-01" ] ] (rows_of rs2)

let test_sequenced_left_join_max () =
  let e = setup_temporal () in
  (* Sequenced left join under MAX: bob is null-extended before ops
     exists (Mar), matched Apr-Jun. *)
  let rs =
    Stratum.coalesce_result
      (Stratum.query ~strategy:Stratum.Max e
         "VALIDTIME [DATE '2010-03-01', DATE '2010-06-01') SELECT e.name, \
          d.dname FROM emp e LEFT JOIN dept d ON e.dept_id = d.id WHERE \
          e.name = 'bob'")
  in
  check_rows "sequenced left join (MAX)"
    [
      [ "bob"; "NULL"; "2010-03-01"; "2010-04-01" ];
      [ "bob"; "ops"; "2010-04-01"; "2010-06-01" ];
    ]
    (List.sort compare (rows_of rs))

let test_sequenced_left_join_perst_unsupported () =
  let e = setup_temporal () in
  match
    Stratum.exec_sql ~strategy:Stratum.Perst e
      "VALIDTIME SELECT e.name FROM emp e LEFT JOIN dept d ON e.dept_id = \
       d.id"
  with
  | exception Taupsm.Perst_slicing.Perst_unsupported _ -> ()
  | _ -> Alcotest.fail "temporal left join under PERST should be rejected"

let suite =
  [
    ( "joins",
      [
        Alcotest.test_case "inner join" `Quick test_inner_join;
        Alcotest.test_case "left join" `Quick test_left_join;
        Alcotest.test_case "left join, unmatched left" `Quick
          test_left_join_preserves_unmatched_left_table;
        Alcotest.test_case "join chain" `Quick test_join_chain;
        Alcotest.test_case "pretty/parse roundtrip" `Quick test_join_roundtrip;
        Alcotest.test_case "nested join right of LEFT JOIN rejected" `Quick
          test_nested_left_join_rejected;
        Alcotest.test_case "current + inner join" `Quick
          test_current_inner_join_temporal;
        Alcotest.test_case "current + left join" `Quick
          test_current_left_join_temporal;
        Alcotest.test_case "sequenced inner join (MAX & PERST)" `Quick
          test_sequenced_inner_join;
        Alcotest.test_case "sequenced left join (MAX)" `Quick
          test_sequenced_left_join_max;
        Alcotest.test_case "temporal left join under PERST rejected" `Quick
          test_sequenced_left_join_perst_unsupported;
      ] );
  ]
