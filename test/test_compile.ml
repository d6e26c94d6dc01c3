(* Plan-compilation tests: closure-compiled evaluation must be
   row-for-row identical to the tree-walking interpreter.  The suite
   runs the 16 τPSM queries compiled at jobs {1, 2, 4} and interpreted
   at jobs 4 against one interpreted-serial baseline, asserts the
   compiled path actually fired (not silently falling back everywhere),
   checks the per-query compiled/interpreted counters, and closes with
   a qcheck property comparing the two evaluators on randomly generated
   temporal databases seeded with NULL keys and empty ([b, b))
   periods: equal rows, equal access-path counters and the same [join]
   events. *)

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

let run_query ~compile ~jobs q =
  let e = load_fresh () in
  let cat = Engine.catalog e in
  cat.Catalog.options.Catalog.observe <- true;
  cat.Catalog.options.Catalog.compile <- compile;
  let rs =
    Stratum.query ~strategy:Stratum.Max ~jobs e
      (Queries.sequenced ~context:ctx q)
  in
  let c = Trace.get_count (Catalog.trace cat) in
  (rs.RS.cols, rows_of rs, c "compile.compiled", c "compile.interpreted")

let test_equivalence () =
  let compiled_total = ref 0 in
  List.iter
    (fun q ->
      (* interpreted serial is the baseline the other four must hit *)
      let cols0, rows0, comp0, _ = run_query ~compile:false ~jobs:1 q in
      Alcotest.(check int)
        (q.Queries.id ^ ": interpreter never counts compiled")
        0 comp0;
      List.iter
        (fun (compile, jobs) ->
          let name =
            Printf.sprintf "%s %s jobs=%d" q.Queries.id
              (if compile then "compiled" else "interpreted")
              jobs
          in
          let cols, rows, comp, _ = run_query ~compile ~jobs q in
          Alcotest.(check (list string)) (name ^ ": columns") cols0 cols;
          Alcotest.(check (list (list string)))
            (name ^ ": rows, in order")
            rows0 rows;
          if (not compile) && comp > 0 then
            Alcotest.failf "%s: counted %d compiled SELECT(s)" name comp;
          if compile && jobs = 1 then compiled_total := !compiled_total + comp)
        [ (true, 1); (true, 2); (false, 4); (true, 4) ])
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
     CREATE TABLE lab (g INTEGER, name VARCHAR(10))";
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
   side is otherwise a hash probe) and an exact period window (indexed,
   both comparisons elided).  Returns the query and the [hash_joins]
   setting to run it under. *)
let random_db_query seed =
  let st = Random.State.make [| 0x5ba9e; seed |] in
  let day () =
    Date.to_string
      (Date.add_days (Date.of_ymd ~y:2010 ~m:1 ~d:1) (Random.State.int st 300))
  in
  match Random.State.int st 4 with
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
  | _ ->
      ( Printf.sprintf
          "NONSEQUENCED VALIDTIME SELECT t.k, t.end_time FROM t WHERE \
           t.begin_time < DATE '%s' AND t.end_time > DATE '%s'"
          (day ()) (day ()),
        true )

(* The counters of the planner's access paths: both evaluators run the
   same join loop, so they must agree on every one. *)
let access_counters =
  [
    "scan.indexed"; "scan.hash"; "scan.full"; "scan.residual_fallback";
    "rows.probed"; "rows.matched"; "conjuncts.elided";
  ]

let prop_random_db_equivalence seed =
  let query, hash_joins = random_db_query seed in
  let answer ~compile ~jobs =
    let e = random_engine seed in
    let cat = Engine.catalog e in
    cat.Catalog.options.Catalog.compile <- compile;
    cat.Catalog.options.Catalog.hash_joins <- hash_joins;
    cat.Catalog.options.Catalog.observe <- true;
    let rows = rows_of (Stratum.query ~strategy:Stratum.Max ~jobs e query) in
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
  let interp, icounts, ijoins, _ = answer ~compile:false ~jobs:1 in
  let check label rows =
    if rows <> interp then
      QCheck.Test.fail_reportf
        "seed=%d: %s %d row(s) <> interpreted %d row(s)\n%s" seed label
        (List.length rows) (List.length interp) query
  in
  let rows, counts, joins, compiled = answer ~compile:true ~jobs:1 in
  check "compiled jobs=1" rows;
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
  let rows, _, _, _ = answer ~compile:true ~jobs:4 in
  check "compiled jobs=4" rows;
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

let suite =
  [
    ( "compile",
      [
        Alcotest.test_case "16 queries: {compiled,interp} x jobs {1,2,4}" `Slow
          test_equivalence;
      ] );
    ("compile-equivalence", qcheck_tests);
  ]
