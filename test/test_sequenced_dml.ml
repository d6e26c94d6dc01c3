(* Sequenced modifications through the SQL surface
   (VALIDTIME [bt,et) INSERT/DELETE/UPDATE as statements), and the
   bitemporal replay property: at every transaction instant, the AS OF
   view equals what an independently maintained valid-time-only replica
   contained at that instant. *)

module Engine = Sqleval.Engine
module Eval = Sqleval.Eval
module RS = Sqleval.Result_set
module Value = Sqldb.Value
module Date = Sqldb.Date
module Stratum = Taupsm.Stratum

let d = Date.of_string_exn

let rows_of rs =
  List.map (fun r -> List.map Value.to_string (Array.to_list r)) rs.RS.rows

let check_rows name expected actual =
  Alcotest.(check (list (list string))) name expected actual

let setup () =
  let e = Engine.create ~now:(d "2010-07-01") () in
  Stratum.install e;
  Engine.exec_script e
    "CREATE TABLE tariff (name VARCHAR(10), pct DOUBLE) WITH VALIDTIME;\n\
     INSERT INTO tariff (name, pct, begin_time, end_time) VALUES ('base', \
     5.0, DATE '2010-01-01', DATE '9999-12-31')";
  e

let test_sequenced_delete_sql () =
  let e = setup () in
  (match
     Stratum.exec_sql e
       "VALIDTIME [DATE '2010-03-01', DATE '2010-04-01') DELETE FROM tariff \
        WHERE name = 'base'"
   with
  | Eval.Affected 1 -> ()
  | _ -> Alcotest.fail "expected one spliced row");
  check_rows "validity removed over March"
    [
      [ "2010-01-01"; "2010-03-01" ];
      [ "2010-04-01"; "9999-12-31" ];
    ]
    (rows_of
       (Stratum.query e
          "NONSEQUENCED VALIDTIME SELECT begin_time, end_time FROM tariff \
           ORDER BY begin_time"))

let test_sequenced_update_sql () =
  let e = setup () in
  ignore
    (Stratum.exec_sql e
       "VALIDTIME [DATE '2010-02-01', DATE '2010-03-01') UPDATE tariff SET \
        pct = 7.5 WHERE name = 'base'");
  check_rows "February spike"
    [
      [ "5.0"; "2010-01-01"; "2010-02-01" ];
      [ "7.5"; "2010-02-01"; "2010-03-01" ];
      [ "5.0"; "2010-03-01"; "9999-12-31" ];
    ]
    (rows_of
       (Stratum.query e
          "NONSEQUENCED VALIDTIME SELECT pct, begin_time, end_time FROM \
           tariff ORDER BY begin_time"))

let test_sequenced_insert_sql () =
  let e = setup () in
  ignore
    (Stratum.exec_sql e
       "VALIDTIME [DATE '2010-05-01', DATE '2010-06-01') INSERT INTO tariff \
        (name, pct) VALUES ('promo', 0.0)");
  check_rows "promo valid only in May"
    [ [ "promo"; "2010-05-01"; "2010-06-01" ] ]
    (rows_of
       (Stratum.query e
          "NONSEQUENCED VALIDTIME SELECT name, begin_time, end_time FROM \
           tariff WHERE name = 'promo'"))

(* SET is evaluated against the pre-statement table: a subquery over
   the target counts both stored rows for both keys, on a valid-time
   table and on a bitemporal one, whatever order the rows are spliced
   in. *)
let test_set_sees_pre_statement_table () =
  List.iter
    (fun support ->
      let e = Engine.create ~now:(d "2010-07-01") () in
      Stratum.install e;
      Engine.exec_script e
        (Printf.sprintf
           "CREATE TABLE t (k INTEGER, v INTEGER) WITH %s;\n\
            INSERT INTO t (k, v, begin_time, end_time) VALUES (1, 10, DATE \
            '2010-01-01', DATE '2010-12-01'), (2, 20, DATE '2010-01-01', \
            DATE '2010-12-01')"
           support);
      ignore
        (Stratum.exec_sql e
           "VALIDTIME [DATE '2010-03-01', DATE '2010-04-01') UPDATE t SET v \
            = (SELECT COUNT(*) FROM t)");
      check_rows (support ^ ": both keys see two rows")
        [ [ "1"; "2" ]; [ "2"; "2" ] ]
        (rows_of
           (Stratum.query e
              "NONSEQUENCED VALIDTIME SELECT k, v FROM t WHERE begin_time = \
               DATE '2010-03-01' ORDER BY k")))
    [ "VALIDTIME"; "VALIDTIME AND TRANSACTIONTIME" ]

(* ------------------------------------------------------------------ *)
(* Bitemporal replay property                                          *)
(* ------------------------------------------------------------------ *)

(* A random modification script applied to a bitemporal table; the same
   script drives a family of vt-only replicas, one frozen per
   transaction instant.  The AS OF views must match the replicas. *)
type op =
  | Insert of int * int * int * int  (* key, value, vt offsets b/e *)
  | Seq_update of int * int * int * int  (* key, new value, vt offsets *)
  | Seq_delete of int * int * int  (* key, vt offsets *)

let gen_op =
  QCheck.Gen.(
    let* key = int_range 1 3 in
    let* v = int_range 0 9 in
    let* b = int_range 0 40 in
    let* len = int_range 1 20 in
    oneofl
      [
        Insert (key, v, b, b + len);
        Seq_update (key, v, b, b + len);
        Seq_delete (key, b, b + len);
      ])
  [@@warning "-26"]

let pp_op = function
  | Insert (k, v, b, e) -> Printf.sprintf "ins k%d=%d @%d-%d" k v b e
  | Seq_update (k, v, b, e) -> Printf.sprintf "upd k%d=%d @%d-%d" k v b e
  | Seq_delete (k, b, e) -> Printf.sprintf "del k%d @%d-%d" k b e

let d0 = Date.of_ymd ~y:2020 ~m:1 ~d:1

let apply_op e op =
  let date off = Date.to_string (Date.add_days d0 off) in
  let sql =
    match op with
    | Insert (k, v, b, en) ->
        Printf.sprintf
          "VALIDTIME [DATE '%s', DATE '%s') INSERT INTO bt (k, v) VALUES \
           (%d, %d)"
          (date b) (date en) k v
    | Seq_update (k, v, b, en) ->
        Printf.sprintf
          "VALIDTIME [DATE '%s', DATE '%s') UPDATE bt SET v = %d WHERE k = %d"
          (date b) (date en) v k
    | Seq_delete (k, b, en) ->
        Printf.sprintf
          "VALIDTIME [DATE '%s', DATE '%s') DELETE FROM bt WHERE k = %d"
          (date b) (date en) k
  in
  ignore (Stratum.exec_sql e sql)

let vt_rows e sql = Stratum.query e sql

let prop_bitemporal_replay =
  QCheck.Test.make ~name:"AS OF t equals the vt replica frozen at t" ~count:25
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
       QCheck.Gen.(list_size (int_range 1 6) gen_op))
    (fun ops ->
      (* The bitemporal subject: one transaction day per operation. *)
      let bt = Engine.create ~now:d0 () in
      Stratum.install bt;
      ignore
        (Stratum.exec_sql bt
           "CREATE TABLE bt (k INTEGER, v INTEGER) WITH VALIDTIME AND \
            TRANSACTIONTIME");
      (* The replicas: a vt-only engine snapshot after each prefix. *)
      let vt = Engine.create ~now:d0 () in
      Stratum.install vt;
      ignore
        (Stratum.exec_sql vt "CREATE TABLE bt (k INTEGER, v INTEGER) WITH VALIDTIME");
      let snapshots = ref [] in
      List.iteri
        (fun i op ->
          let tx_day = Date.add_days d0 (i + 1) in
          Engine.set_now bt tx_day;
          Engine.set_now vt tx_day;
          apply_op bt op;
          apply_op vt op;
          snapshots := (tx_day, Engine.copy vt) :: !snapshots)
        ops;
      Engine.set_now bt (Date.add_days d0 100);
      List.for_all
        (fun (tx_day, replica) ->
          let asof =
            vt_rows bt
              (Printf.sprintf
                 "NONSEQUENCED VALIDTIME TRANSACTIONTIME AS OF DATE '%s' \
                  SELECT k, v, begin_time, end_time FROM bt"
                 (Date.to_string tx_day))
          in
          let expected =
            vt_rows replica
              "NONSEQUENCED VALIDTIME SELECT k, v, begin_time, end_time FROM bt"
          in
          RS.equal_bag asof expected)
        !snapshots)

let suite =
  [
    ( "sequenced-dml-sql",
      [
        Alcotest.test_case "VALIDTIME DELETE statement" `Quick
          test_sequenced_delete_sql;
        Alcotest.test_case "VALIDTIME UPDATE statement" `Quick
          test_sequenced_update_sql;
        Alcotest.test_case "VALIDTIME INSERT statement" `Quick
          test_sequenced_insert_sql;
        Alcotest.test_case "SET sees the pre-statement table" `Quick
          test_set_sees_pre_statement_table;
        QCheck_alcotest.to_alcotest prop_bitemporal_replay;
      ] );
  ]
