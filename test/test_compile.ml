(* Plan-compilation tests: closure-compiled evaluation must be
   row-for-row identical to the tree-walking interpreter.  The suite
   runs the 16 τPSM queries compiled against an interpreted baseline,
   asserts the compiled path actually fired (not silently falling back
   everywhere), checks the per-query compiled/interpreted counters, and
   closes with a qcheck property comparing the two evaluators on
   randomly generated temporal databases seeded with NULL keys and
   empty ([b, b)) periods: equal rows, equal access-path counters and
   the same [join] events. *)

module Engine = Sqleval.Engine
module Catalog = Sqleval.Catalog
module RS = Sqleval.Result_set
module Value = Sqldb.Value
module Date = Sqldb.Date
module Stratum = Taupsm.Stratum
module Datasets = Taubench.Datasets
module Queries = Taubench.Queries

let rows_of rs =
  List.map (fun r -> List.map Value.to_string (Array.to_list r)) rs.RS.rows

(* ------------------------------------------------------------------ *)
(* Compiled ≡ interpreted over the τPSM benchmark                      *)
(* ------------------------------------------------------------------ *)

let small_ds1 =
  lazy
    (Datasets.load { Datasets.ds = Datasets.DS1; size = Taupsm.Heuristic.Small })

let load_fresh () =
  let e = Engine.copy (Lazy.force small_ds1) in
  Queries.install e;
  e

let ctx = (Date.of_ymd ~y:2010 ~m:3 ~d:1, Date.of_ymd ~y:2010 ~m:4 ~d:15)

let run_query ~compile q =
  let e = load_fresh () in
  let cat = Engine.catalog e in
  cat.Catalog.options.Catalog.observe <- true;
  cat.Catalog.options.Catalog.compile <- compile;
  let rs =
    Stratum.query ~strategy:Stratum.Max e (Queries.sequenced ~context:ctx q)
  in
  let c = Trace.get_count (Catalog.trace cat) in
  (rs.RS.cols, rows_of rs, c "compile.compiled", c "compile.interpreted")

let test_equivalence () =
  let compiled_total = ref 0 in
  List.iter
    (fun q ->
      (* the interpreter is the baseline the compiled run must hit *)
      let cols0, rows0, comp0, _ = run_query ~compile:false q in
      Alcotest.(check int)
        (q.Queries.id ^ ": interpreter never counts compiled")
        0 comp0;
      let name = q.Queries.id ^ " compiled" in
      let cols, rows, comp, _ = run_query ~compile:true q in
      Alcotest.(check (list string)) (name ^ ": columns") cols0 cols;
      Alcotest.(check (list (list string))) (name ^ ": rows, in order") rows0 rows;
      compiled_total := !compiled_total + comp)
    Queries.all;
  (* the compiled path must carry real weight across the suite, not
     punt to the interpreter fallback on every query *)
  Alcotest.(check bool)
    (Printf.sprintf "compiled SELECTs across the suite (%d)" !compiled_total)
    true
    (!compiled_total >= 16)

(* ------------------------------------------------------------------ *)
(* qcheck: compiled ≡ interpreted on random temporal databases         *)
(* ------------------------------------------------------------------ *)

(* Random databases deliberately include the evaluator's edge cases:
   NULL keys and NULL group columns (three-valued comparisons must not
   differ between the two paths) and empty [b, b) periods (overlap
   nothing, but must not derail period plans or constant-period
   slicing). *)
let random_engine seed =
  let st = Random.State.make [| 0xc0de; seed |] in
  let e = Engine.create ~now:(Date.of_ymd ~y:2010 ~m:12 ~d:1) () in
  Taupsm.Stratum.install e;
  Engine.exec_script e
    "CREATE TABLE t (k INTEGER, g INTEGER) WITH VALIDTIME;\n\
     CREATE TABLE lab (g INTEGER, name VARCHAR(10));\n\
     CREATE VIEW named_lab AS SELECT g, name FROM lab WHERE g IS NOT NULL;\n\
     CREATE FUNCTION labs_from (x INTEGER) RETURNS TABLE (g INTEGER, name \
     VARCHAR(10)) READS SQL DATA LANGUAGE SQL BEGIN RETURN TABLE (SELECT g, \
     name FROM lab WHERE g >= x); END";
  Engine.exec e
    "INSERT INTO lab VALUES (0, 'zero'), (1, 'one'), (2, 'two'), (3, \
     'three'), (NULL, 'none')"
  |> ignore;
  let n = 30 + Random.State.int st 51 in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "INSERT INTO t (k, g, begin_time, end_time) VALUES ";
  for i = 0 to n - 1 do
    let day = Random.State.int st 300 in
    (* one period in five is empty: end_time = begin_time *)
    let len = if Random.State.int st 5 = 0 then 0 else 1 + Random.State.int st 60 in
    let b = Date.add_days (Date.of_ymd ~y:2010 ~m:1 ~d:1) day in
    let lit x lim =
      (* one value in six is NULL *)
      if x = 0 then "NULL" else string_of_int (Random.State.int st lim)
    in
    Buffer.add_string buf
      (Printf.sprintf "%s(%s, %s, DATE '%s', DATE '%s')"
         (if i = 0 then "" else ", ")
         (lit (Random.State.int st 6) 100)
         (lit (Random.State.int st 6) 5)
         (Date.to_string b)
         (Date.to_string (Date.add_days b len)))
  done;
  Engine.exec e (Buffer.contents buf) |> ignore;
  e

(* One query per draw, each aimed at an access path of the shared
   planner: a hash join over NULL-bearing keys, a LEFT JOIN whose ON
   carries a period window, a begin_time equality (indexed, never
   elided; hash joins are off for it, since an equality with a constant
   side is otherwise a hash probe), an exact period window (indexed,
   both comparisons elided), and FROM items the compiler leaves to the
   interpreter: a closed table function, one correlated on the item
   before it, a closed and a correlated derived table, and a view.  Two
   more draw a correlated scalar subquery and an EXISTS evaluated at
   every (t, lab) pair but reading only t's row, so their outer values
   repeat and the SELECT memo replays them.  Returns the query and the
   [hash_joins] setting to run it under. *)
let random_db_query seed =
  let st = Random.State.make [| 0x5ba9e; seed |] in
  let day () =
    Date.to_string
      (Date.add_days (Date.of_ymd ~y:2010 ~m:1 ~d:1) (Random.State.int st 300))
  in
  match Random.State.int st 11 with
  | 0 ->
      ( "VALIDTIME [DATE '2010-03-01', DATE '2010-06-01') SELECT t.k, \
         lab.name FROM t, lab WHERE t.g = lab.g AND (t.k < 50 OR t.k IS NULL)",
        true )
  | 1 ->
      ( Printf.sprintf
          "NONSEQUENCED VALIDTIME SELECT lab.name, t.k FROM lab LEFT JOIN t \
           ON t.g = lab.g AND t.begin_time < DATE '%s' AND t.end_time > DATE \
           '%s'"
          (day ()) (day ()),
        true )
  | 2 ->
      ( Printf.sprintf
          "NONSEQUENCED VALIDTIME SELECT t.k, t.g FROM t WHERE t.begin_time = \
           DATE '%s'"
          (day ()),
        false )
  | 3 ->
      ( Printf.sprintf
          "NONSEQUENCED VALIDTIME SELECT t.k, t.end_time FROM t WHERE \
           t.begin_time < DATE '%s' AND t.end_time > DATE '%s'"
          (day ()) (day ()),
        true )
  | 4 ->
      ( Printf.sprintf
          "VALIDTIME [DATE '2010-03-01', DATE '2010-06-01') SELECT t.k, f.name \
           FROM t, TABLE(labs_from(%d)) f WHERE t.g = f.g"
          (Random.State.int st 4),
        true )
  | 5 ->
      ( "NONSEQUENCED VALIDTIME SELECT t.k, f.name FROM t, \
         TABLE(labs_from(t.g)) f WHERE f.g <= t.g + 1",
        true )
  | 6 ->
      ( Printf.sprintf
          "NONSEQUENCED VALIDTIME SELECT t.k, d.name FROM t, (SELECT g, name \
           FROM lab WHERE g < %d) d WHERE t.g = d.g AND t.begin_time < DATE \
           '%s'"
          (Random.State.int st 4) (day ()),
        true )
  | 7 ->
      ( "NONSEQUENCED VALIDTIME SELECT t.k, d.n FROM t, (SELECT COUNT(*) AS \
         n FROM lab WHERE lab.g > t.g) d",
        true )
  | 8 ->
      ( "VALIDTIME [DATE '2010-03-01', DATE '2010-06-01') SELECT t.k, \
         v.name FROM t, named_lab v WHERE t.g = v.g",
        true )
  | 9 ->
      ( Printf.sprintf
          "NONSEQUENCED VALIDTIME SELECT t.k, lab.name, (SELECT COUNT(*) FROM \
           lab l2 WHERE l2.g <= t.g) AS c FROM t, lab WHERE lab.g < %d"
          (1 + Random.State.int st 4),
        true )
  | _ ->
      ( Printf.sprintf
          "NONSEQUENCED VALIDTIME SELECT t.k, lab.name FROM t, lab WHERE \
           lab.g < %d AND (EXISTS (SELECT 1 FROM lab l2 WHERE l2.g = t.g + 1) \
           OR lab.name = 'none')"
          (1 + Random.State.int st 4),
        true )

(* The counters of the planner's access paths and of the SELECT memo:
   both evaluators run the same join loop behind the same memo, so they
   must agree on every one. *)
let access_counters =
  [
    "scan.indexed"; "scan.hash"; "scan.full"; "scan.residual_fallback";
    "scan.lateral"; "rows.probed"; "rows.matched"; "conjuncts.elided";
    "select.memo_hit";
  ]

let prop_random_db_equivalence seed =
  let query, hash_joins = random_db_query seed in
  let answer ~compile =
    let e = random_engine seed in
    let cat = Engine.catalog e in
    cat.Catalog.options.Catalog.compile <- compile;
    cat.Catalog.options.Catalog.hash_joins <- hash_joins;
    cat.Catalog.options.Catalog.observe <- true;
    let rows = rows_of (Stratum.query ~strategy:Stratum.Max e query) in
    let tr = Catalog.trace cat in
    let joins =
      List.filter_map
        (fun ev ->
          if ev.Trace.ev_label = "join" then Some ev.Trace.ev_detail else None)
        (Trace.events tr)
    in
    (rows, List.map (Trace.get_count tr) access_counters, joins,
     Trace.get_count tr "compile.compiled")
  in
  let interp, icounts, ijoins, _ = answer ~compile:false in
  let rows, counts, joins, compiled = answer ~compile:true in
  if rows <> interp then
    QCheck.Test.fail_reportf
      "seed=%d: compiled %d row(s) <> interpreted %d row(s)\n%s" seed
      (List.length rows) (List.length interp) query;
  if compiled = 0 then
    QCheck.Test.fail_reportf "seed=%d: no SELECT compiled\n%s" seed query;
  List.iter2
    (fun (name, i) c ->
      if c <> i then
        QCheck.Test.fail_reportf "seed=%d: %s compiled %d <> interpreted %d\n%s"
          seed name c i query)
    (List.combine access_counters icounts)
    counts;
  if joins <> ijoins then
    QCheck.Test.fail_reportf "seed=%d: join events differ\n%s" seed query;
  true

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~count:40
        ~name:"random db (NULLs, empty periods): compiled = interpreted"
        QCheck.(make Gen.(int_range 0 9999) ~print:string_of_int)
        prop_random_db_equivalence;
    ]

(* ------------------------------------------------------------------ *)
(* A temp table re-created with another schema within one statement    *)
(* ------------------------------------------------------------------ *)

(* The second SELECT has the same text as the first but reads the new
   table's columns, so it must not run a plan made for the old ones. *)
let test_temp_reshape () =
  List.iter
    (fun compile ->
      let e = Engine.create () in
      Stratum.install e;
      (Engine.catalog e).Catalog.options.Catalog.compile <- compile;
      Engine.exec_script e
        "CREATE FUNCTION f () RETURNS INTEGER LANGUAGE SQL BEGIN DECLARE x \
         INTEGER; DECLARE y INTEGER; CREATE TEMPORARY TABLE tt (a INTEGER, b \
         INTEGER); INSERT INTO tt VALUES (1, 2); SET x = (SELECT b FROM tt); \
         CREATE TEMPORARY TABLE tt (b INTEGER); INSERT INTO tt VALUES (5); \
         SET y = (SELECT b FROM tt); RETURN x * 100 + y; END";
      Alcotest.(check (list (list string)))
        (Printf.sprintf "each SELECT reads its own table (compile %b)" compile)
        [ [ "205" ] ]
        (rows_of (Engine.query e "SELECT f()")))
    [ true; false ]

(* ------------------------------------------------------------------ *)

let suite =
  [
    ( "compile",
      [
        Alcotest.test_case "16 queries: {compiled,interp} rows agree" `Slow
          test_equivalence;
        Alcotest.test_case "temp table re-created with another schema"
          `Quick test_temp_reshape;
      ] );
    ("compile-equivalence", qcheck_tests);
  ]
