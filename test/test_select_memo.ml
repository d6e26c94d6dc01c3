(* The per-statement SELECT memo.  A SELECT that reads only base tables
   and calls only builtins is run once per binding within a statement:
   while the tables it reads keep their physical identity and version,
   and its outward references and the reading mode keep their values, a
   repeat evaluation replays the last run.  Each test pairs what the memo
   must not change (rows, row-budget charges) with evidence that it
   fired ([select.memo_hit]); the twins here add [ident(1) = 1], a
   stored function, so they never qualify. *)

module Engine = Sqleval.Engine
module Catalog = Sqleval.Catalog
module RS = Sqleval.Result_set
module Value = Sqldb.Value
module Date = Sqldb.Date
module Stratum = Taupsm.Stratum
module Datasets = Taubench.Datasets
module Queries = Taubench.Queries
module TE = Taupsm_error

let rows_of rs =
  List.map (fun r -> List.map Value.to_string (Array.to_list r)) rs.RS.rows

let hit = Sqleval.Select_plan.Counter.select_memo_hit

(* Run [f] traced; its result and the memo hits it counted. *)
let hits e f =
  let cat = Engine.catalog e in
  cat.Catalog.options.Catalog.observe <- true;
  let tr = Catalog.trace cat in
  Trace.reset tr;
  let r = f () in
  cat.Catalog.options.Catalog.observe <- false;
  (r, Trace.get_count tr hit)

(* ------------------------------------------------------------------ *)
(* q17b and its twin                                                   *)
(* ------------------------------------------------------------------ *)

let small_ds1 =
  lazy
    (Datasets.load { Datasets.ds = Datasets.DS1; size = Taupsm.Heuristic.Small })

let ident =
  "CREATE FUNCTION ident (x INTEGER) RETURNS INTEGER LANGUAGE SQL BEGIN \
   RETURN x; END"

(* q17b with [interleaved_scan] renamed and its FOR query extended by
   [AND ident(1) = 1]: the same rows, but a SELECT that never qualifies. *)
let q17b_twin =
  let q = Queries.find "q17b" in
  let twin s =
    let swap ~sub ~by s =
      match Astring.String.cut ~sep:sub s with
      | Some (a, b) -> a ^ by ^ b
      | None -> invalid_arg ("q17b_twin: no " ^ sub)
    in
    s
    |> swap ~sub:"interleaved_scan" ~by:"interleaved_twin"
    |> fun s ->
    if Astring.String.is_infix ~affix:"item_id <= 5" s then
      swap ~sub:"item_id <= 5" ~by:"item_id <= 5 AND ident(1) = 1" s
    else s
  in
  {
    q with
    Queries.id = "q17b-twin";
    routines = List.map twin q.Queries.routines;
    body = twin q.Queries.body;
  }

let q17b_engine () =
  let e = Engine.copy (Lazy.force small_ds1) in
  Queries.install e;
  List.iter
    (fun sql -> ignore (Engine.exec e sql))
    (ident :: q17b_twin.Queries.routines);
  e

let from = Date.of_string_exn "2010-06-01"

let contexts =
  [
    ("1 day", (from, Date.add_days from 1));
    ("14 days", (from, Date.add_days from 14));
    ("365 days", (from, Date.add_days from 365));
  ]

let test_q17b_twin () =
  List.iter
    (fun (what, ctx) ->
      let run q =
        let e = q17b_engine () in
        hits e (fun () ->
            rows_of
              (Stratum.query ~strategy:Stratum.Max e
                 (Queries.sequenced ~context:ctx q)))
      in
      let rows, h = run (Queries.find "q17b") in
      let twin_rows, twin_h = run q17b_twin in
      Alcotest.(check bool) (what ^ ": rows present") true (rows <> []);
      Alcotest.(check (list (list string))) (what ^ ": rows = twin's") twin_rows
        rows;
      if h = 0 then Alcotest.failf "%s: no memo hit" what;
      Alcotest.(check int) (what ^ ": the twin never hits") 0 twin_h)
    contexts

(* A hit charges the rows its run charged, so a row budget trips at the
   same count with the memo as without it.  The budgets sit below the
   statement's full charge, where the routine calls (and the hits) are. *)
let test_row_budget () =
  let ctx = List.assoc "14 days" contexts in
  let outcome q budget =
    let e = q17b_engine () in
    let g = Engine.guards e in
    g.Guard.row_budget <- Some budget;
    let r =
      match
        Stratum.query ~strategy:Stratum.Max e
          (Queries.sequenced ~context:ctx q)
      with
      | rs -> Printf.sprintf "%d row(s)" (List.length rs.RS.rows)
      | exception TE.Error { code = TE.Resource_exhausted TE.Row_budget; message; _ }
        ->
          message
    in
    (r, g.Guard.rows_used)
  in
  let _, total = outcome q17b_twin 1_000_000 in
  List.iter
    (fun budget ->
      let r, used = outcome (Queries.find "q17b") budget in
      let tr, tused = outcome q17b_twin budget in
      let what = Printf.sprintf "budget %d" budget in
      Alcotest.(check string) (what ^ ": outcome") tr r;
      Alcotest.(check int) (what ^ ": rows_used") tused used)
    (1_000_000 :: List.init 40 (fun i -> total - 1 - (i * 37)))

(* ------------------------------------------------------------------ *)
(* Validity: tables, physical identity, key types                      *)
(* ------------------------------------------------------------------ *)

let scalar e sql =
  match rows_of (Engine.query e sql) with
  | [ [ v ] ] -> v
  | r ->
      Alcotest.failf "%s: expected one value, got %d row(s)" sql
        (List.length r)

(* The loop re-reads [acc] three times per round (two hits), then
   inserts into it: the next round must count the new row. *)
let test_insert_in_loop () =
  let e = Engine.create () in
  Engine.exec_script e
    "CREATE TABLE acc (v INTEGER);\n\
     CREATE FUNCTION grow (n INTEGER) RETURNS INTEGER LANGUAGE SQL BEGIN \
     DECLARE i INTEGER DEFAULT 0; DECLARE j INTEGER; DECLARE total INTEGER \
     DEFAULT 0; WHILE i < n DO SET j = 0; WHILE j < 3 DO SET total = total + \
     (SELECT COUNT(*) FROM acc); SET j = j + 1; END WHILE; INSERT INTO acc \
     VALUES (i); SET i = i + 1; END WHILE; RETURN total; END";
  let v, h = hits e (fun () -> scalar e "SELECT grow(4)") in
  (* rounds see 0, 1, 2, 3 rows, three times each *)
  Alcotest.(check string) "total" "18" v;
  if h = 0 then Alcotest.fail "no memo hit"

(* [tmp] is re-created inside the call, once in place and once after a
   DROP; each new table holds one row and so has the version the old one
   had.  Only physical identity tells them apart. *)
let test_recreated_temp () =
  let e = Engine.create () in
  Engine.exec_script e
    "CREATE FUNCTION rounds () RETURNS INTEGER LANGUAGE SQL BEGIN DECLARE r \
     INTEGER DEFAULT 1; DECLARE j INTEGER; DECLARE total INTEGER DEFAULT 0; \
     WHILE r <= 3 DO IF r = 3 THEN DROP TABLE tmp; END IF; CREATE TEMPORARY \
     TABLE tmp (v INTEGER); INSERT INTO tmp VALUES (r * 10); SET j = 0; \
     WHILE j < 3 DO SET total = total + (SELECT SUM(v) FROM tmp); SET j = j \
     + 1; END WHILE; SET r = r + 1; END WHILE; RETURN total; END";
  let v, h = hits e (fun () -> scalar e "SELECT rounds()") in
  Alcotest.(check string) "total" "180" v;
  if h = 0 then Alcotest.fail "no memo hit"

(* A variable's value is compared by type and, for floats, bit for bit:
   1, 1.0, 0.0 and -0.0 each get their own run (four evaluations each,
   so the repeats hit). *)
let test_typed_key () =
  let e = Engine.create () in
  Engine.exec_script e
    "CREATE TABLE one (k INTEGER);\n\
     INSERT INTO one VALUES (1);\n\
     CREATE FUNCTION typed () RETURNS VARCHAR(200) LANGUAGE SQL BEGIN \
     DECLARE x DOUBLE; DECLARE i INTEGER DEFAULT 0; DECLARE s VARCHAR(200) \
     DEFAULT ''; WHILE i < 16 DO IF i = 0 THEN SET x = 1; END IF; IF i = 4 \
     THEN SET x = 1.0; END IF; IF i = 8 THEN SET x = 0.0; END IF; IF i = 12 \
     THEN SET x = -0.0; END IF; SET s = s || (SELECT x FROM one) || ';'; SET \
     i = i + 1; END WHILE; RETURN s; END";
  let v, h = hits e (fun () -> scalar e "SELECT typed()") in
  let four s = String.concat "" (List.init 4 (fun _ -> s ^ ";")) in
  Alcotest.(check string) "typed values"
    (four "1" ^ four "1.0" ^ four "0.0" ^ four "-0.0")
    v;
  if h = 0 then Alcotest.fail "no memo hit"

let suite =
  [
    ( "select-memo",
      [
        Alcotest.test_case "q17b = its non-qualifying twin, with hits" `Quick
          test_q17b_twin;
        Alcotest.test_case "row budget trips at the same count" `Quick
          test_row_budget;
        Alcotest.test_case "an INSERT in the loop is seen next round" `Quick
          test_insert_in_loop;
        Alcotest.test_case "a re-created temp table is a different table"
          `Quick test_recreated_temp;
        Alcotest.test_case "1, 1.0, 0.0 and -0.0 are different keys" `Quick
          test_typed_key;
      ] );
  ]
