(* TEMPORAL MERGE and temporal integrity constraints.

   Mode-matrix goldens mirror the worked examples of
   docs/merge_semantics.md; the qcheck property checks that merging and
   then reading the table at any instant equals applying the source
   snapshot-wise; constraint tests assert typed errors and clean
   rollback (empty db_diff), including under seeded faults; a 200-SKU
   merge must equal the sequenced UPDATEs it replaces. *)

open Sqlast.Ast
module P = Sqlparse.Parser
module Pretty = Sqlast.Pretty
module Engine = Sqleval.Engine
module Eval = Sqleval.Eval
module RS = Sqleval.Result_set
module Value = Sqldb.Value
module Date = Sqldb.Date
module Database = Sqldb.Database
module Table = Sqldb.Table
module Stratum = Taupsm.Stratum
module Resilient = Taupsm.Resilient
module TE = Taupsm_error

let d = Date.of_string_exn

let rows_of rs =
  List.map (fun r -> List.map Value.to_string (Array.to_list r)) rs.RS.rows

let check_rows name expected actual =
  Alcotest.(check (list (list string))) name expected actual

let affected name n = function
  | Eval.Affected m -> Alcotest.(check int) name n m
  | _ -> Alcotest.failf "%s: expected Affected" name

(* ------------------------------------------------------------------ *)
(* Grammar: parse / pretty round-trips and structure                   *)
(* ------------------------------------------------------------------ *)

let roundtrip src () =
  let s1 = P.parse_stmt_string src in
  let printed = Pretty.stmt_to_string s1 in
  let s2 =
    try P.parse_stmt_string printed
    with P.Parse_error (msg, line) ->
      Alcotest.failf "re-parse failed (%s, line %d) for:\n%s" msg line printed
  in
  if s1 <> s2 then Alcotest.failf "round-trip changed the AST:\n%s" printed

let test_parse_structure () =
  (match
     P.parse_stmt_string
       "TEMPORAL MERGE INTO stock USING (SELECT 1) MODE PATCH KEY (sku) \
        EPHEMERAL (audit, note)"
   with
  | Smerge m ->
      Alcotest.(check string) "target" "stock" m.m_target;
      Alcotest.(check bool) "mode" true (m.m_mode = Mpatch);
      Alcotest.(check (list string)) "keys" [ "sku" ] m.m_keys;
      Alcotest.(check (list string)) "ephemeral" [ "audit"; "note" ]
        m.m_ephemeral
  | _ -> Alcotest.fail "expected Smerge");
  match
    P.parse_stmt_string
      "CREATE TABLE s (k INT, r INT) WITH VALIDTIME TEMPORAL PRIMARY KEY \
       (k) TEMPORAL FOREIGN KEY (r) REFERENCES parent (k)"
  with
  | Screate_table ct ->
      Alcotest.(check bool)
        "constraints" true
        (ct.ct_constraints
        = [ Ct_temporal_pk [ "k" ]; Ct_temporal_fk ([ "r" ], "parent", [ "k" ]) ])
  | _ -> Alcotest.fail "expected Screate_table"

(* ------------------------------------------------------------------ *)
(* Mode matrix goldens (docs/merge_semantics.md)                       *)
(* ------------------------------------------------------------------ *)

(* One target row: qty 10, note 'initial', valid [Jan 2024, forever). *)
let setup_stock () =
  let e = Engine.create ~now:(d "2024-06-01") () in
  Stratum.install e;
  Engine.exec_script e
    "CREATE TABLE stock (sku VARCHAR(10), qty INT, note VARCHAR(20)) WITH \
     VALIDTIME TEMPORAL PRIMARY KEY (sku);\n\
     INSERT INTO stock (sku, qty, note, begin_time, end_time) VALUES \
     ('apple', 10, 'initial', DATE '2024-01-01', DATE '9999-12-31')";
  e

let stock_rows e =
  rows_of
    (Stratum.query e
       "NONSEQUENCED VALIDTIME SELECT qty, note, begin_time, end_time FROM \
        stock WHERE sku = 'apple' ORDER BY begin_time")

(* Source row [Mar, Apr): qty 12, note explicitly NULL. *)
let correction mode =
  Printf.sprintf
    "TEMPORAL MERGE INTO stock USING (SELECT 'apple' AS sku, 12 AS qty, \
     NULL AS note, DATE '2024-03-01' AS begin_time, DATE '2024-04-01' AS \
     end_time) MODE %s"
    mode

let test_mode_upsert () =
  let e = setup_stock () in
  ignore (Stratum.exec_sql e (correction "UPSERT"));
  (* explicit NULL overwrites *)
  check_rows "upsert golden"
    [
      [ "10"; "initial"; "2024-01-01"; "2024-03-01" ];
      [ "12"; "NULL"; "2024-03-01"; "2024-04-01" ];
      [ "10"; "initial"; "2024-04-01"; "9999-12-31" ];
    ]
    (stock_rows e)

let test_mode_patch () =
  let e = setup_stock () in
  ignore (Stratum.exec_sql e (correction "PATCH"));
  (* explicit NULL means "no change" *)
  check_rows "patch golden"
    [
      [ "10"; "initial"; "2024-01-01"; "2024-03-01" ];
      [ "12"; "initial"; "2024-03-01"; "2024-04-01" ];
      [ "10"; "initial"; "2024-04-01"; "9999-12-31" ];
    ]
    (stock_rows e)

let test_mode_replace () =
  let e = setup_stock () in
  (* note is absent from the source: REPLACE nulls it *)
  ignore
    (Stratum.exec_sql e
       "TEMPORAL MERGE INTO stock USING (SELECT 'apple' AS sku, 12 AS qty, \
        DATE '2024-03-01' AS begin_time, DATE '2024-04-01' AS end_time) \
        MODE REPLACE");
  check_rows "replace golden"
    [
      [ "10"; "initial"; "2024-01-01"; "2024-03-01" ];
      [ "12"; "NULL"; "2024-03-01"; "2024-04-01" ];
      [ "10"; "initial"; "2024-04-01"; "9999-12-31" ];
    ]
    (stock_rows e)

(* UPSERT with absent column: the target's value survives. *)
let test_upsert_absent_column () =
  let e = setup_stock () in
  ignore
    (Stratum.exec_sql e
       "TEMPORAL MERGE INTO stock USING (SELECT 'apple' AS sku, 12 AS qty, \
        DATE '2024-03-01' AS begin_time, DATE '2024-04-01' AS end_time) \
        MODE UPSERT");
  check_rows "upsert absent-column golden"
    [
      [ "10"; "initial"; "2024-01-01"; "2024-03-01" ];
      [ "12"; "initial"; "2024-03-01"; "2024-04-01" ];
      [ "10"; "initial"; "2024-04-01"; "9999-12-31" ];
    ]
    (stock_rows e)

(* A second identical merge is a no-op; re-patching the original value
   coalesces the splits back into one row. *)
let test_idempotence_and_coalescing () =
  let e = setup_stock () in
  ignore (Stratum.exec_sql e (correction "PATCH"));
  affected "identical merge writes nothing" 0
    (Stratum.exec_sql e (correction "PATCH"));
  ignore
    (Stratum.exec_sql e
       "TEMPORAL MERGE INTO stock USING (SELECT 'apple' AS sku, 10 AS qty, \
        DATE '2024-03-01' AS begin_time, DATE '2024-04-01' AS end_time) \
        MODE PATCH");
  check_rows "coalesced back to one row"
    [ [ "10"; "initial"; "2024-01-01"; "9999-12-31" ] ]
    (stock_rows e)

(* Ephemeral columns: excluded from change detection, so a merge that
   changes only an ephemeral column writes nothing at all. *)
let test_ephemeral () =
  let e = setup_stock () in
  affected "ephemeral-only change writes nothing" 0
    (Stratum.exec_sql e
       "TEMPORAL MERGE INTO stock USING (SELECT 'apple' AS sku, 'seen' AS \
        note, DATE '2024-03-01' AS begin_time, DATE '2024-04-01' AS \
        end_time) MODE UPSERT EPHEMERAL (note)");
  check_rows "table untouched"
    [ [ "10"; "initial"; "2024-01-01"; "9999-12-31" ] ]
    (stock_rows e)

(* Source periods the target does not cover become fresh rows, and
   target-only periods always survive (every mode). *)
let test_fill_gap () =
  let e = Engine.create ~now:(d "2024-06-01") () in
  Stratum.install e;
  Engine.exec_script e
    "CREATE TABLE stock (sku VARCHAR(10), qty INT, note VARCHAR(20)) WITH \
     VALIDTIME TEMPORAL PRIMARY KEY (sku);\n\
     INSERT INTO stock (sku, qty, note, begin_time, end_time) VALUES \
     ('apple', 10, 'initial', DATE '2024-01-01', DATE '2024-03-01')";
  ignore
    (Stratum.exec_sql e
       "TEMPORAL MERGE INTO stock USING (SELECT 'apple' AS sku, 7 AS qty, \
        DATE '2024-05-01' AS begin_time, DATE '2024-06-01' AS end_time) \
        MODE REPLACE");
  check_rows "gap filled, existing row untouched"
    [
      [ "10"; "initial"; "2024-01-01"; "2024-03-01" ];
      [ "7"; "NULL"; "2024-05-01"; "2024-06-01" ];
    ]
    (stock_rows e)

(* ------------------------------------------------------------------ *)
(* Semantic errors                                                     *)
(* ------------------------------------------------------------------ *)

let expect_sql_error name e sql =
  match Stratum.exec_sql e sql with
  | _ -> Alcotest.failf "%s: expected Sql_error" name
  | exception Eval.Sql_error _ -> ()

let test_merge_errors () =
  let e = setup_stock () in
  Engine.exec_script e "CREATE TABLE plain (k INT, v INT)";
  expect_sql_error "non-temporal target" e
    "TEMPORAL MERGE INTO plain USING (SELECT 1 AS k, DATE '2024-01-01' AS \
     begin_time, DATE '2024-02-01' AS end_time) MODE UPSERT";
  expect_sql_error "missing period columns" e
    "TEMPORAL MERGE INTO stock USING (SELECT 'apple' AS sku, 1 AS qty) \
     MODE UPSERT";
  expect_sql_error "missing key column" e
    "TEMPORAL MERGE INTO stock USING (SELECT 1 AS qty, DATE '2024-01-01' \
     AS begin_time, DATE '2024-02-01' AS end_time) MODE UPSERT";
  expect_sql_error "unknown source column" e
    "TEMPORAL MERGE INTO stock USING (SELECT 'apple' AS sku, 1 AS wat, \
     DATE '2024-01-01' AS begin_time, DATE '2024-02-01' AS end_time) MODE \
     UPSERT";
  expect_sql_error "NULL key" e
    "TEMPORAL MERGE INTO stock USING (SELECT NULL AS sku, 1 AS qty, DATE \
     '2024-01-01' AS begin_time, DATE '2024-02-01' AS end_time) MODE UPSERT";
  expect_sql_error "empty period" e
    "TEMPORAL MERGE INTO stock USING (SELECT 'apple' AS sku, 1 AS qty, \
     DATE '2024-02-01' AS begin_time, DATE '2024-02-01' AS end_time) MODE \
     UPSERT";
  expect_sql_error "VALIDTIME modifier rejected" e
    "VALIDTIME TEMPORAL MERGE INTO stock USING (SELECT 'apple' AS sku, 1 \
     AS qty, DATE '2024-01-01' AS begin_time, DATE '2024-02-01' AS \
     end_time) MODE UPSERT"

(* ------------------------------------------------------------------ *)
(* Constraints: typed errors, atomic rollback                          *)
(* ------------------------------------------------------------------ *)

let setup_constrained () =
  let e = Engine.create ~now:(d "2024-06-01") () in
  Stratum.install e;
  Engine.exec_script e
    "CREATE TABLE product (sku VARCHAR(10), name VARCHAR(30)) WITH \
     VALIDTIME TEMPORAL PRIMARY KEY (sku);\n\
     INSERT INTO product (sku, name, begin_time, end_time) VALUES ('apple', \
     'Apple', DATE '2024-01-01', DATE '9999-12-31'), ('pear', 'Pear', DATE \
     '2024-01-01', DATE '2024-07-01');\n\
     CREATE TABLE stock (sku VARCHAR(10), qty INT) WITH VALIDTIME TEMPORAL \
     PRIMARY KEY (sku) TEMPORAL FOREIGN KEY (sku) REFERENCES product (sku);\n\
     INSERT INTO stock (sku, qty, begin_time, end_time) VALUES ('pear', 5, \
     DATE '2024-02-01', DATE '2024-07-01')";
  e

let expect_violation name e sql =
  let pre = Database.copy (Engine.database e) in
  (match Stratum.exec_sql e sql with
  | _ -> Alcotest.failf "%s: violation not detected" name
  | exception TE.Error { code = TE.Constraint_violation; _ } -> ()
  | exception exn ->
      Alcotest.failf "%s: expected Constraint_violation, got %s" name
        (Printexc.to_string exn));
  match Resilient.db_diff pre (Engine.database e) with
  | None -> ()
  | Some diff -> Alcotest.failf "%s: rollback not clean: %s" name diff

let test_pk_violations () =
  let e = setup_constrained () in
  expect_violation "INSERT overlap" e
    "INSERT INTO product (sku, name, begin_time, end_time) VALUES ('apple', \
     'Apple II', DATE '2024-03-01', DATE '2024-05-01')";
  expect_violation "sequenced UPDATE key collision" e
    "VALIDTIME [DATE '2024-03-01', DATE '2024-04-01') UPDATE product SET \
     sku = 'apple' WHERE sku = 'pear'";
  (* adjacent periods do not overlap: [_, Mar) + [Mar, _) is fine *)
  ignore
    (Stratum.exec_sql e
       "INSERT INTO product (sku, name, begin_time, end_time) VALUES \
        ('plum', 'Plum A', DATE '2024-01-01', DATE '2024-03-01'), ('plum', \
        'Plum B', DATE '2024-03-01', DATE '2024-05-01')")

let test_fk_violations () =
  let e = setup_constrained () in
  expect_violation "merge beyond referenced validity" e
    "TEMPORAL MERGE INTO stock USING (SELECT 'pear' AS sku, 9 AS qty, DATE \
     '2024-06-01' AS begin_time, DATE '2024-09-01' AS end_time) MODE UPSERT";
  expect_violation "merge with unknown key" e
    "TEMPORAL MERGE INTO stock USING (SELECT 'kiwi' AS sku, 1 AS qty, DATE \
     '2024-02-01' AS begin_time, DATE '2024-03-01' AS end_time) MODE UPSERT";
  expect_violation "shrinking the referenced table opens a gap" e
    "VALIDTIME [DATE '2024-03-01', DATE '2024-04-01') DELETE FROM product \
     WHERE sku = 'pear'";
  (* coverage across two adjacent product rows has no gap *)
  ignore
    (Stratum.exec_sql e
       "INSERT INTO product (sku, name, begin_time, end_time) VALUES \
        ('pear', 'Pear v2', DATE '2024-07-01', DATE '9999-12-31')");
  ignore
    (Stratum.exec_sql e
       "TEMPORAL MERGE INTO stock USING (SELECT 'pear' AS sku, 9 AS qty, \
        DATE '2024-06-01' AS begin_time, DATE '2024-09-01' AS end_time) \
        MODE UPSERT")

let test_create_table_constraint_errors () =
  let e = Engine.create ~now:(d "2024-06-01") () in
  Stratum.install e;
  expect_sql_error "constraints need VALIDTIME" e
    "CREATE TABLE t (k INT) TEMPORAL PRIMARY KEY (k)";
  expect_sql_error "unknown PK column" e
    "CREATE TABLE t (k INT) WITH VALIDTIME TEMPORAL PRIMARY KEY (zzz)";
  expect_sql_error "timestamp PK column" e
    "CREATE TABLE t (k INT) WITH VALIDTIME TEMPORAL PRIMARY KEY (begin_time)";
  expect_sql_error "unknown referenced table" e
    "CREATE TABLE t (k INT) WITH VALIDTIME TEMPORAL FOREIGN KEY (k) \
     REFERENCES nope (k)";
  expect_sql_error "FK arity mismatch" e
    (let _ =
       Stratum.exec_sql e
         "CREATE TABLE parent (a INT, b INT) WITH VALIDTIME"
     in
     "CREATE TABLE t (k INT) WITH VALIDTIME TEMPORAL FOREIGN KEY (k) \
      REFERENCES parent (a, b)")

(* Constraints checked across a transaction-time history: closed rows
   are exempt, current ones are not. *)
let test_constraints_bitemporal () =
  let e = Engine.create ~now:(d "2024-06-01") () in
  Stratum.install e;
  Engine.exec_script e
    "CREATE TABLE product (sku VARCHAR(10), name VARCHAR(30)) WITH \
     VALIDTIME AND TRANSACTIONTIME TEMPORAL PRIMARY KEY (sku);\n\
     INSERT INTO product (sku, name, begin_time, end_time) VALUES ('apple', \
     'Apple', DATE '2024-01-01', DATE '9999-12-31')";
  (* a sequenced delete closes part of the history (tt-closed versions
     stay behind), after which re-inserting that window is legal *)
  ignore
    (Stratum.exec_sql e
       "VALIDTIME [DATE '2024-02-01', DATE '2024-03-01') DELETE FROM \
        product WHERE sku = 'apple'");
  ignore
    (Stratum.exec_sql e
       "TEMPORAL MERGE INTO product USING (SELECT 'apple' AS sku, 'Apple \
        Feb' AS name, DATE '2024-02-01' AS begin_time, DATE '2024-03-01' \
        AS end_time) MODE UPSERT");
  expect_violation "current overlap still caught" e
    "INSERT INTO product (sku, name, begin_time, end_time) VALUES ('apple', \
     'dup', DATE '2024-02-15', DATE '2024-02-20')"

(* ------------------------------------------------------------------ *)
(* Seeded faults: merge must roll back atomically                      *)
(* ------------------------------------------------------------------ *)

let prop_merge_atomic_under_fault seed =
  let e = setup_constrained () in
  let pre = Database.copy (Engine.database e) in
  Fault.arm_seeded ~seed;
  let outcome =
    try
      Ok
        (Stratum.exec_sql e
           "TEMPORAL MERGE INTO stock USING (SELECT 'apple' AS sku, 3 AS \
            qty, DATE '2024-01-01' AS begin_time, DATE '2024-05-01' AS \
            end_time) MODE UPSERT")
    with exn -> Error exn
  in
  Fault.disarm ();
  match outcome with
  | Ok _ -> true
  | Error _ -> (
      match Resilient.db_diff pre (Engine.database e) with
      | None -> true
      | Some diff -> QCheck.Test.fail_reportf "seed=%d: %s" seed diff)

(* ------------------------------------------------------------------ *)
(* Property: merge REPLACE = snapshot-wise application of the source   *)
(* ------------------------------------------------------------------ *)

(* Entities live on a month grid: each (key, month) cell is either
   absent or holds a qty.  REPLACE-merging a source built from such
   cells must yield, at every month, the source cell when present and
   the target cell otherwise. *)
let month_date m = Printf.sprintf "%04d-%02d-01" (2024 + (m / 12)) ((m mod 12) + 1)

let gen_cells =
  QCheck.Gen.(
    list_size (int_range 0 10)
      (triple (oneofl [ "a"; "b" ]) (int_range 0 5) (int_range 0 99)))

let arb_merge_case =
  QCheck.make
    QCheck.Gen.(pair gen_cells gen_cells)
    ~print:(fun (tgt, src) ->
      let p cells =
        String.concat ";"
          (List.map (fun (k, m, q) -> Printf.sprintf "%s/%d=%d" k m q) cells)
      in
      Printf.sprintf "target[%s] source[%s]" (p tgt) (p src))

(* last write wins per (key, month) within one cell list *)
let dedup cells =
  List.fold_left
    (fun acc (k, m, q) ->
      (k, m, q) :: List.filter (fun (k', m', _) -> (k', m') <> (k, m)) acc)
    [] cells

let prop_replace_snapshotwise (tgt_cells, src_cells) =
  let tgt_cells = dedup tgt_cells and src_cells = dedup src_cells in
  let e = Engine.create ~now:(d "2024-06-01") () in
  Stratum.install e;
  ignore
    (Stratum.exec_sql e
       "CREATE TABLE grid (k VARCHAR(5), qty INT) WITH VALIDTIME TEMPORAL \
        PRIMARY KEY (k)");
  ignore
    (Stratum.exec_sql e
       "CREATE TABLE feed (k VARCHAR(5), qty INT, begin_time DATE, \
        end_time DATE)");
  let insert table (k, m, q) =
    ignore
      (Stratum.exec_sql e
         (Printf.sprintf
            "INSERT INTO %s (k, qty, begin_time, end_time) VALUES ('%s', \
             %d, DATE '%s', DATE '%s')"
            table k q (month_date m)
            (month_date (m + 1))))
  in
  List.iter (insert "grid") tgt_cells;
  List.iter (insert "feed") src_cells;
  ignore (Stratum.exec_sql e "TEMPORAL MERGE INTO grid USING feed MODE REPLACE");
  let expected k m =
    match List.find_opt (fun (k', m', _) -> k' = k && m' = m) src_cells with
    | Some (_, _, q) -> Some q
    | None -> (
        match
          List.find_opt (fun (k', m', _) -> k' = k && m' = m) tgt_cells
        with
        | Some (_, _, q) -> Some q
        | None -> None)
  in
  List.for_all
    (fun k ->
      List.for_all
        (fun m ->
          let rs =
            Stratum.query e
              (Printf.sprintf
                 "NONSEQUENCED VALIDTIME SELECT qty FROM grid WHERE k = \
                  '%s' AND begin_time <= DATE '%s' AND DATE '%s' < end_time"
                 k (month_date m) (month_date m))
          in
          let got =
            match rs.RS.rows with
            | [] -> None
            | [ [| Value.Int q |] ] -> Some q
            | _ -> QCheck.Test.fail_reportf "%s month %d: multiple rows" k m
          in
          if got <> expected k m then
            QCheck.Test.fail_reportf "%s month %d: got %s, expected %s" k m
              (match got with Some q -> string_of_int q | None -> "none")
              (match expected k m with
              | Some q -> string_of_int q
              | None -> "none")
          else true)
        [ 0; 1; 2; 3; 4; 5 ])
    [ "a"; "b" ]

(* ------------------------------------------------------------------ *)
(* Property: constraint checks = a naive reference over current rows  *)
(* ------------------------------------------------------------------ *)

(* A parent table keyed on [k] and a child keyed on [c] whose [pk]
   references it, optionally bitemporal.  Every statement runs twice:
   on a copy with constraint checking off, where an O(n^2) reference
   check over the tt-current rows decides whether the result violates a
   key, and on the engine itself, which must raise Constraint_violation
   exactly then — leaving an empty db_diff — and otherwise reach the
   copy's state. *)
let gen_period =
  QCheck.Gen.(
    map2 (fun m len -> (m, m + len)) (int_range 0 12) (int_range 1 6))

let gen_constraint_stmt =
  let open QCheck.Gen in
  let key = int_range 0 4 in
  let fk = frequency [ (6, map string_of_int key); (1, return "NULL") ] in
  let period_lit (m1, m2) =
    Printf.sprintf "DATE '%s', DATE '%s'" (month_date m1) (month_date m2)
  in
  let context (m1, m2) =
    Printf.sprintf "VALIDTIME [DATE '%s', DATE '%s')" (month_date m1)
      (month_date m2)
  in
  let mode = oneofl [ "UPSERT"; "PATCH"; "REPLACE" ] in
  let distinct_rows gen =
    map
      (fun rows ->
        List.fold_left
          (fun acc ((k, _, _) as r) ->
            if List.exists (fun (k', _, _) -> k' = k) acc then acc
            else r :: acc)
          [] rows)
      (list_size (int_range 1 4) gen)
  in
  let src_select (b, e) cols =
    Printf.sprintf "SELECT %s, DATE '%s' AS begin_time, DATE '%s' AS end_time"
      cols (month_date b) (month_date e)
  in
  oneof
    [
      map2
        (fun rows mode ->
          Printf.sprintf "TEMPORAL MERGE INTO parent USING (%s) MODE %s"
            (String.concat " UNION ALL "
               (List.map
                  (fun (k, n, p) ->
                    src_select p (Printf.sprintf "%d AS k, 'n%d' AS name" k n))
                  rows))
            mode)
        (distinct_rows (triple key (int_range 0 9) gen_period))
        mode;
      (* keyed on the name, so an update may move a row to another [k]
         and vacate the old key's window under its children *)
      map
        (fun rows ->
          Printf.sprintf
            "TEMPORAL MERGE INTO parent USING (%s) MODE UPSERT KEY (name)"
            (String.concat " UNION ALL "
               (List.map
                  (fun (n, k, p) ->
                    src_select p (Printf.sprintf "'%s' AS name, %d AS k" n k))
                  rows)))
        (distinct_rows
           (triple (oneofl [ "a"; "b"; "c" ]) key
              (frequency
                 [
                   (1, return (0, 12)); (1, return (0, 6)); (1, gen_period);
                 ])));
      map2
        (fun rows mode ->
          Printf.sprintf "TEMPORAL MERGE INTO child USING (%s) MODE %s"
            (String.concat " UNION ALL "
               (List.map
                  (fun (c, pk, p) ->
                    src_select p
                      (Printf.sprintf "%d AS c, %s AS pk, 1 AS qty" c pk))
                  rows))
            mode)
        (distinct_rows (triple key fk gen_period))
        mode;
      map2
        (fun k p ->
          Printf.sprintf
            "INSERT INTO parent (k, name, begin_time, end_time) VALUES (%d, \
             'i', %s)"
            k (period_lit p))
        key gen_period;
      map3
        (fun c pk p ->
          Printf.sprintf
            "INSERT INTO child (c, pk, qty, begin_time, end_time) VALUES \
             (%d, %s, 2, %s)"
            c pk (period_lit p))
        key fk gen_period;
      map (Printf.sprintf "DELETE FROM parent WHERE k = %d") key;
      map2
        (fun p k ->
          Printf.sprintf "%s DELETE FROM parent WHERE k = %d" (context p) k)
        gen_period key;
      map2 (Printf.sprintf "UPDATE child SET pk = %s WHERE c = %d") fk key;
      map3
        (fun p k k' ->
          Printf.sprintf "%s UPDATE parent SET k = %d WHERE k = %d"
            (context p) k' k)
        gen_period key key;
      return "TICK";
    ]

let arb_constraint_case =
  QCheck.make
    QCheck.Gen.(pair bool (list_size (int_range 1 14) gen_constraint_stmt))
    ~print:(fun (bitemporal, stmts) ->
      Printf.sprintf "bitemporal=%b\n%s" bitemporal (String.concat ";\n" stmts))

(* The reference: every pair of current parent rows and every pair of
   current child rows with one non-NULL key must not overlap, and every
   current child period with a non-NULL [pk] must be covered by the
   union of the matching current parent periods. *)
let naive_violation db =
  let current name =
    let t = Database.find_table_exn db name in
    let sch = Table.schema t in
    let bi = Sqldb.Schema.begin_index sch and ei = Sqldb.Schema.end_index sch in
    List.filter_map
      (fun (r : Value.t array) ->
        match (r.(bi), r.(ei)) with
        | Value.Date b, Value.Date e
          when b < e && Sqleval.Versions.tt_current sch r ->
            Some (r, b, e)
        | _ -> None)
      (Table.to_list t)
  in
  let parents = current "parent" and children = current "child" in
  let overlap col rows =
    List.exists
      (fun (r1, b1, e1) ->
        List.exists
          (fun (r2, b2, e2) ->
            r1 != r2 && r1.(col) <> Value.Null
            && Value.to_literal r1.(col) = Value.to_literal r2.(col)
            && b1 < e2 && b2 < e1)
          rows)
      rows
  in
  let covered key b e =
    let rec reach cover =
      cover >= e
      ||
      match
        List.find_opt
          (fun (r, pb, pe) ->
            Value.to_literal r.(0) = key && pb <= cover && cover < pe)
          parents
      with
      | Some (_, _, pe) -> reach pe
      | None -> false
    in
    reach b
  in
  overlap 0 parents || overlap 0 children
  || List.exists
       (fun (r, b, e) ->
         r.(1) <> Value.Null && not (covered (Value.to_literal r.(1)) b e))
       children

let prop_constraints_match_reference (bitemporal, stmts) =
  let e = Engine.create ~now:(d "2024-06-01") () in
  Stratum.install e;
  let tt = if bitemporal then " AND TRANSACTIONTIME" else "" in
  Engine.exec_script e
    (Printf.sprintf
       "CREATE TABLE parent (k INT, name VARCHAR(10)) WITH VALIDTIME%s \
        TEMPORAL PRIMARY KEY (k);\n\
        CREATE TABLE child (c INT, pk INT, qty INT) WITH VALIDTIME%s \
        TEMPORAL PRIMARY KEY (c) TEMPORAL FOREIGN KEY (pk) REFERENCES \
        parent (k);\n\
        INSERT INTO parent (k, name, begin_time, end_time) VALUES (0, 'a', \
        DATE '2024-01-01', DATE '2025-01-01'), (1, 'b', DATE '2024-01-01', \
        DATE '2024-07-01'), (2, 'c', DATE '2024-03-01', DATE '9999-12-31');\n\
        INSERT INTO child (c, pk, qty, begin_time, end_time) VALUES (0, 0, \
        1, DATE '2024-02-01', DATE '2024-06-01'), (1, 1, 1, DATE \
        '2024-01-01', DATE '2024-07-01'), (2, NULL, 1, DATE '2024-01-01', \
        DATE '2024-02-01')"
       tt tt);
  List.iteri
    (fun i sql ->
      if sql = "TICK" then Engine.set_now e (Date.add_days (Engine.now e) 1)
      else begin
        let db = Engine.database e in
        let pre = Database.copy db in
        let shadow = Engine.copy e in
        (Engine.catalog shadow).Sqleval.Catalog.options
          .Sqleval.Catalog.check_constraints <- false;
        let fail fmt =
          QCheck.Test.fail_reportf ("stmt %d (%s): " ^^ fmt) i sql
        in
        match Stratum.exec_sql shadow sql with
        | exception _ -> (
            (* rejected for reasons of its own: the engine must reject it
               too, and cleanly *)
            match Stratum.exec_sql e sql with
            | _ -> fail "accepted only with constraint checks on"
            | exception _ -> (
                match Resilient.db_diff pre db with
                | None -> ()
                | Some diff -> fail "failed statement left %s" diff))
        | _ -> (
            let expected = naive_violation (Engine.database shadow) in
            match Stratum.exec_sql e sql with
            | _ -> (
                if expected then fail "violation not detected";
                match Resilient.db_diff (Engine.database shadow) db with
                | None -> ()
                | Some diff -> fail "differs from the unchecked run: %s" diff)
            | exception TE.Error { code = TE.Constraint_violation; _ } -> (
                if not expected then fail "spurious violation";
                match Resilient.db_diff pre db with
                | None -> ()
                | Some diff -> fail "violation left %s" diff)
            | exception exn -> fail "raised %s" (Printexc.to_string exn))
      end)
    stmts;
  true

(* ------------------------------------------------------------------ *)
(* Cost by count: merge work follows the write set, not the table      *)
(* ------------------------------------------------------------------ *)

let sku i = Printf.sprintf "sku%04d" i

(* [n] products, each with two stock periods, and a traced engine. *)
let product_stock ?(stock_end = "2011-01-01") n =
  let e = Engine.create ~now:(d "2024-06-01") () in
  Stratum.install e;
  let values f = String.concat ", " (List.init n f) in
  Engine.exec_script e
    ("CREATE TABLE product (sku VARCHAR(10), name VARCHAR(30)) WITH \
      VALIDTIME TEMPORAL PRIMARY KEY (sku);\n\
      CREATE TABLE stock (sku VARCHAR(10), qty INT) WITH VALIDTIME \
      TEMPORAL PRIMARY KEY (sku) TEMPORAL FOREIGN KEY (sku) REFERENCES \
      product (sku);\n\
      INSERT INTO product (sku, name, begin_time, end_time) VALUES "
    ^ values (fun i ->
          Printf.sprintf "('%s', 'P', DATE '2010-01-01', DATE '9999-12-31')"
            (sku i))
    ^ ";\nINSERT INTO stock (sku, qty, begin_time, end_time) VALUES "
    ^ values (fun i ->
          Printf.sprintf
            "('%s', %d, DATE '2010-01-01', DATE '%s'), ('%s', %d, DATE \
             '%s', DATE '9999-12-31')"
            (sku i) (i mod 10) stock_end (sku i) (10 + (i mod 7)) stock_end));
  let cat = Engine.catalog e in
  cat.Sqleval.Catalog.options.Sqleval.Catalog.observe <- true;
  e

let traced_merge e sql =
  let tr = Sqleval.Catalog.trace (Engine.catalog e) in
  Trace.reset tr;
  ignore (Stratum.exec_sql e sql);
  let c name =
    Option.value ~default:0 (List.assoc_opt name (Trace.counts tr))
  in
  (c "merge.rows_examined", c "merge.writes")

let patch_merge keys =
  Printf.sprintf "TEMPORAL MERGE INTO stock USING (%s) MODE PATCH"
    (String.concat " UNION ALL "
       (List.map
          (fun k ->
            Printf.sprintf
              "SELECT '%s' AS sku, %d AS qty, DATE '2010-0%d-01' AS \
               begin_time, DATE '2010-0%d-15' AS end_time"
              (sku k) (k + 50) (1 + (k mod 8)) (1 + (k mod 8)))
          keys))

let test_rows_examined_scale_free () =
  let merge = patch_merge (List.init 20 (fun i -> i * 7)) in
  let small = traced_merge (product_stock 200) merge in
  let large = traced_merge (product_stock 5000) merge in
  Alcotest.(check bool) "the merge wrote" true (snd small > 0);
  Alcotest.(check (pair int int)) "same rows examined and written" small large

(* Many entities sharing aligned periods: a merge over all of them must
   pass and read each entity's rows a bounded number of times. *)
let test_aligned_periods () =
  let n = 200 in
  let e = product_stock ~stock_end:"2024-01-01" n in
  let examined, writes =
    traced_merge e
      (Printf.sprintf "TEMPORAL MERGE INTO stock USING (%s) MODE UPSERT"
         (String.concat " UNION ALL "
            (List.init n (fun i ->
                 Printf.sprintf
                   "SELECT '%s' AS sku, 99 AS qty, DATE '2023-03-01' AS \
                    begin_time, DATE '2023-06-01' AS end_time"
                   (sku i)))))
  in
  (* the covering stock row is replaced by three pieces *)
  Alcotest.(check int) "four writes per entity" (4 * n) writes;
  Alcotest.(check bool)
    (Printf.sprintf "rows examined linear in the write set (%d)" examined)
    true
    (examined <= 12 * n);
  expect_violation "aligned merge past the product's validity" e
    (Printf.sprintf "TEMPORAL MERGE INTO stock USING (%s) MODE UPSERT"
       (String.concat " UNION ALL "
          (List.init n (fun i ->
               Printf.sprintf
                 "SELECT '%s' AS sku, 1 AS qty, DATE '%s' AS begin_time, \
                  DATE '%s' AS end_time"
                 (sku i)
                 (if i = n - 1 then "2009-06-01" else "2023-03-01")
                 "2023-06-01"))))

(* ------------------------------------------------------------------ *)
(* A merge = the sequenced UPDATEs it replaces                         *)
(* ------------------------------------------------------------------ *)

(* 200 SKUs under temporal PK/FK and a staging feed holding one
   mid-window correction per SKU: one UPSERT of the whole feed must
   leave [stock] exactly as 200 hand-written sequenced UPDATEs do. *)
let test_merge_equals_sequenced_updates () =
  let n = 200 in
  let sku i = Printf.sprintf "sku%03d" i in
  let values f = String.concat ", " (List.init n f) in
  let e0 = Engine.create ~now:(d "2010-06-01") () in
  Stratum.install e0;
  Engine.exec_script e0
    ("CREATE TABLE product (sku VARCHAR(10), name VARCHAR(30)) WITH \
      VALIDTIME TEMPORAL PRIMARY KEY (sku);\n\
      CREATE TABLE stock (sku VARCHAR(10), qty INT, note VARCHAR(20)) WITH \
      VALIDTIME TEMPORAL PRIMARY KEY (sku) TEMPORAL FOREIGN KEY (sku) \
      REFERENCES product (sku);\n\
      CREATE TABLE feed (sku VARCHAR(10), qty INT, note VARCHAR(20), \
      begin_time DATE, end_time DATE);\n\
      INSERT INTO product (sku, name, begin_time, end_time) VALUES "
    ^ values (fun i ->
          Printf.sprintf "('%s', 'P%d', DATE '2010-01-01', DATE '9999-12-31')"
            (sku i) i)
    ^ ";\nINSERT INTO stock (sku, qty, note, begin_time, end_time) VALUES "
    ^ values (fun i ->
          Printf.sprintf
            "('%s', %d, 'load', DATE '2010-01-01', DATE '9999-12-31')" (sku i)
            (i mod 50))
    ^ ";\nINSERT INTO feed VALUES "
    ^ values (fun i ->
          Printf.sprintf
            "('%s', %d, 'fix', DATE '2010-03-01', DATE '2010-04-01')" (sku i)
            ((i + 7) mod 50)));
  let stock_state e =
    rows_of
      (Stratum.query e
         "NONSEQUENCED VALIDTIME SELECT sku, qty, note, begin_time, end_time \
          FROM stock ORDER BY sku, begin_time, end_time")
  in
  let merged = Engine.copy e0 and updated = Engine.copy e0 in
  ignore
    (Stratum.exec_sql merged "TEMPORAL MERGE INTO stock USING feed MODE UPSERT");
  for i = 0 to n - 1 do
    ignore
      (Stratum.exec_sql updated
         (Printf.sprintf
            "VALIDTIME [DATE '2010-03-01', DATE '2010-04-01') UPDATE stock \
             SET qty = %d, note = 'fix' WHERE sku = '%s'"
            ((i + 7) mod 50) (sku i)))
  done;
  let expected = stock_state updated in
  Alcotest.(check int) "three periods per SKU" (3 * n) (List.length expected);
  check_rows "merge = sequenced UPDATEs" expected (stock_state merged)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~count:60 ~name:"REPLACE merge = snapshot-wise source"
        arb_merge_case prop_replace_snapshotwise;
      QCheck.Test.make ~count:40 ~name:"seeded fault => merge rolls back"
        QCheck.(int_range 0 9999)
        prop_merge_atomic_under_fault;
      QCheck.Test.make ~count:200
        ~name:"constraint violations = naive reference check"
        arb_constraint_case prop_constraints_match_reference;
    ]

let suite =
  [
    ( "merge",
      [
        Alcotest.test_case "roundtrip: merge minimal" `Quick
          (roundtrip "TEMPORAL MERGE INTO t USING (SELECT 1 AS k)");
        Alcotest.test_case "roundtrip: merge full" `Quick
          (roundtrip
             "TEMPORAL MERGE INTO t USING (SELECT k, q, begin_time, \
              end_time FROM s WHERE q > 1) MODE REPLACE KEY (k) EPHEMERAL \
              (note)");
        Alcotest.test_case "roundtrip: constrained create" `Quick
          (roundtrip
             "CREATE TABLE s (k INT, r INT) WITH VALIDTIME AND \
              TRANSACTIONTIME TEMPORAL PRIMARY KEY (k) TEMPORAL FOREIGN \
              KEY (r) REFERENCES parent (k)");
        Alcotest.test_case "parse structure" `Quick test_parse_structure;
        Alcotest.test_case "mode matrix: upsert" `Quick test_mode_upsert;
        Alcotest.test_case "mode matrix: patch" `Quick test_mode_patch;
        Alcotest.test_case "mode matrix: replace" `Quick test_mode_replace;
        Alcotest.test_case "mode matrix: upsert absent column" `Quick
          test_upsert_absent_column;
        Alcotest.test_case "idempotence and coalescing" `Quick
          test_idempotence_and_coalescing;
        Alcotest.test_case "ephemeral columns" `Quick test_ephemeral;
        Alcotest.test_case "gap fill" `Quick test_fill_gap;
        Alcotest.test_case "semantic errors" `Quick test_merge_errors;
        Alcotest.test_case "temporal PK violations" `Quick test_pk_violations;
        Alcotest.test_case "temporal FK violations" `Quick test_fk_violations;
        Alcotest.test_case "constraint DDL errors" `Quick
          test_create_table_constraint_errors;
        Alcotest.test_case "constraints on bitemporal tables" `Quick
          test_constraints_bitemporal;
        Alcotest.test_case "merge rows examined independent of table size"
          `Quick test_rows_examined_scale_free;
        Alcotest.test_case "aligned periods: large merge stays linear" `Quick
          test_aligned_periods;
        Alcotest.test_case "200-SKU merge = 200 sequenced UPDATEs" `Quick
          test_merge_equals_sequenced_updates;
      ]
      @ qcheck_tests );
  ]
