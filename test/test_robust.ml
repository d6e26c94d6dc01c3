(* Robustness tests: the guard matrix (every resource guard fires with a
   typed error and a clean rollback), the qcheck atomicity property
   (seeded fault × τPSM query ⇒ pre/post database equality), the
   inject-then-rollback-then-query staleness regression for the plan
   cache and interval index, PERST→MAX graceful degradation, and the
   exhaustive fault sweep over seeds 0-7 × 16 queries × both
   strategies. *)

module Engine = Sqleval.Engine
module Eval = Sqleval.Eval
module RS = Sqleval.Result_set
module Value = Sqldb.Value
module Date = Sqldb.Date
module Table = Sqldb.Table
module Database = Sqldb.Database
module Stratum = Taupsm.Stratum
module Resilient = Taupsm.Resilient
module Datasets = Taubench.Datasets
module Queries = Taubench.Queries
module TE = Taupsm_error

let d = Date.of_string_exn

let rows_of rs =
  List.map (fun r -> List.map Value.to_string (Array.to_list r)) rs.RS.rows

(* ------------------------------------------------------------------ *)
(* Guard matrix: each guard fires typed, and rolls back cleanly        *)
(* ------------------------------------------------------------------ *)

let setup_guarded () =
  let e = Engine.create () in
  Stratum.install e;
  Engine.exec_script e
    "CREATE TABLE nums (n INTEGER);\n\
     INSERT INTO nums VALUES (1), (2), (3);\n\
     CREATE FUNCTION boom (x INTEGER) RETURNS INTEGER BEGIN RETURN boom(x); \
     END;\n\
     CREATE PROCEDURE fill (lim INTEGER) BEGIN DECLARE i INTEGER DEFAULT 0; \
     WHILE i < lim DO INSERT INTO nums VALUES (100 + i); SET i = i + 1; END \
     WHILE; END";
  e

(* Run [f]; it must raise [Resource_exhausted which] AND leave the
   database exactly as it was. *)
let expect_guard name which e f =
  let pre = Database.copy (Engine.database e) in
  (match f () with
  | _ -> Alcotest.failf "%s: guard did not fire" name
  | exception TE.Error { code = TE.Resource_exhausted r; _ } ->
      if r <> which then Alcotest.failf "%s: wrong resource guard fired" name
  | exception exn ->
      Alcotest.failf "%s: expected a typed guard error, got %s" name
        (Printexc.to_string exn));
  match Resilient.db_diff pre (Engine.database e) with
  | None -> ()
  | Some diff -> Alcotest.failf "%s: rollback was not clean: %s" name diff

let test_guard_matrix () =
  let e = setup_guarded () in
  let g = Engine.guards e in
  g.Guard.depth_cap <- 5;
  expect_guard "recursion depth" TE.Recursion_depth e (fun () ->
      Engine.query e "SELECT boom(1) FROM nums WHERE n = 1");
  g.Guard.depth_cap <- 200;
  g.Guard.loop_cap <- Some 10;
  expect_guard "loop iterations" TE.Loop_iterations e (fun () ->
      Engine.exec e "CALL fill(50)");
  g.Guard.loop_cap <- None;
  g.Guard.row_budget <- Some 10;
  expect_guard "row budget" TE.Row_budget e (fun () ->
      Engine.exec e "CALL fill(50)");
  g.Guard.row_budget <- None;
  g.Guard.deadline_seconds <- Some (-1.0);
  expect_guard "deadline" TE.Deadline e (fun () ->
      Engine.exec e "CALL fill(50)");
  g.Guard.deadline_seconds <- None;
  (* with every guard back off, the same call commits *)
  ignore (Engine.exec e "CALL fill(50)");
  Alcotest.(check int)
    "guards off: inserts landed" 53
    (Table.row_count (Database.find_table_exn (Engine.database e) "nums"))

(* A failed procedure call must undo its partial inserts even with no
   guard involved: plain statement atomicity. *)
let test_statement_atomicity () =
  let e = setup_guarded () in
  Engine.exec_script e
    "CREATE PROCEDURE partial () BEGIN INSERT INTO nums VALUES (7), (8); \
     SELECT no_such_fun(1) FROM nums; END";
  let pre = Database.copy (Engine.database e) in
  (match Engine.exec e "CALL partial()" with
  | _ -> Alcotest.fail "partial() should fail"
  | exception Eval.Sql_error _ -> ());
  match Resilient.db_diff pre (Engine.database e) with
  | None -> ()
  | Some diff -> Alcotest.failf "partial effects survived: %s" diff

(* Version counters must move forward across a rollback, never rewind. *)
let test_rollback_bumps_versions () =
  let e = setup_guarded () in
  let t = Database.find_table_exn (Engine.database e) "nums" in
  let v0 = t.Table.version and dbv0 = Database.version (Engine.database e) in
  Fault.arm ~site:Fault.Table_mutation ~countdown:2;
  (match Engine.exec e "CALL fill(10)" with
  | _ -> Alcotest.fail "armed fault did not fire"
  | exception TE.Error { code = TE.Injected_fault; _ } -> ());
  Fault.disarm ();
  Alcotest.(check bool) "table version advanced" true (t.Table.version > v0);
  Alcotest.(check bool)
    "db version not rewound" true
    (Database.version (Engine.database e) >= dbv0)

(* ------------------------------------------------------------------ *)
(* Typed-error plumbing                                                *)
(* ------------------------------------------------------------------ *)

let test_classification () =
  let check_code name code exn =
    Alcotest.(check string)
      name
      (TE.code_string code)
      (TE.code_string (Resilient.classify exn).TE.code)
  in
  check_code "sql" TE.Sql (Eval.Sql_error "x");
  check_code "unknown object" TE.Unknown_object (Database.No_such_table "t");
  check_code "unsupported" TE.Unsupported
    (Taupsm.Perst_slicing.Perst_unsupported "fetch");
  check_code "parse" TE.Parse (Sqlparse.Parser.Parse_error ("x", 3));
  check_code "internal" TE.Internal (Failure "boom");
  let e =
    TE.make ~routine:"r1" ~statement:"update"
      ~period:(d "2010-01-01", d "2010-02-01")
      (TE.Resource_exhausted TE.Deadline)
      "too slow"
  in
  let s = TE.to_string e in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "rendering mentions %s" needle)
        true
        (Astring.String.is_infix ~affix:needle s))
    [ "resource.deadline"; "too slow"; "r1"; "update"; "2010-01-01" ]

(* ------------------------------------------------------------------ *)
(* Staleness regression: inject, roll back, query                      *)
(* ------------------------------------------------------------------ *)

(* A rolled-back mutation must not leave a warm plan cache or interval
   index serving pre-fault answers built from rolled-back state — nor
   stale answers built from the failed mutation's transient state. *)
let test_inject_rollback_query () =
  let e = Engine.create ~now:(d "2010-07-01") () in
  Stratum.install e;
  Engine.exec_script e
    "CREATE TABLE tariff (name VARCHAR(10), pct DOUBLE) WITH VALIDTIME;\n\
     INSERT INTO tariff (name, pct, begin_time, end_time) VALUES ('base', \
     5.0, DATE '2010-01-01', DATE '9999-12-31'), ('extra', 2.0, DATE \
     '2010-02-01', DATE '2010-06-01')";
  let q =
    "VALIDTIME [DATE '2010-02-01', DATE '2010-05-01') SELECT name, pct FROM \
     tariff WHERE pct > 1.0"
  in
  (* Warm the interval index and the transformed-plan cache. *)
  let r1 = rows_of (Stratum.query e q) in
  let r1' = rows_of (Stratum.query e q) in
  Alcotest.(check (list (list string))) "warm run is stable" r1 r1';
  (* Fault a sequenced UPDATE mid-splice: phase one (closing rows) has
     run by the time the splice loop's insert hits the armed fault. *)
  Fault.arm ~site:Fault.Table_mutation ~countdown:3;
  (match
     Stratum.exec_sql e
       "VALIDTIME [DATE '2010-03-01', DATE '2010-04-01') UPDATE tariff SET \
        pct = 9.9 WHERE name = 'base'"
   with
  | _ -> Alcotest.fail "armed fault did not fire"
  | exception TE.Error { code = TE.Injected_fault; _ } -> ());
  Fault.disarm ();
  Alcotest.(check bool) "fault fired" true (Fault.fired ());
  (* The rolled-back update must be invisible: same answer as before,
     and identical to a fresh engine evaluating from scratch. *)
  let r2 = rows_of (Stratum.query e q) in
  Alcotest.(check (list (list string))) "post-rollback query unchanged" r1 r2;
  (* Re-run the update cleanly: the index and plan must now see it. *)
  ignore
    (Stratum.exec_sql e
       "VALIDTIME [DATE '2010-03-01', DATE '2010-04-01') UPDATE tariff SET \
        pct = 9.9 WHERE name = 'base'");
  let r3 =
    rows_of
      (Stratum.query e
         "VALIDTIME [DATE '2010-03-01', DATE '2010-04-01') SELECT name, pct \
          FROM tariff WHERE pct > 9.0")
  in
  Alcotest.(check bool) "committed update visible" true (r3 <> [])

(* ------------------------------------------------------------------ *)
(* PERST → MAX graceful degradation                                    *)
(* ------------------------------------------------------------------ *)

let small_ds1 =
  lazy
    (Datasets.load { Datasets.ds = Datasets.DS1; size = Taupsm.Heuristic.Small })

let load_fresh () = Engine.copy (Lazy.force small_ds1)

let ctx = (Date.of_ymd ~y:2010 ~m:3 ~d:1, Date.of_ymd ~y:2010 ~m:4 ~d:15)

let max_answer q =
  let e = load_fresh () in
  Queries.install e;
  match Stratum.exec_sql ~strategy:Stratum.Max e (Queries.sequenced ~context:ctx q) with
  | Eval.Rows rs -> rows_of rs
  | _ -> Alcotest.failf "%s (MAX) did not produce rows" q.Queries.id

(* q17b is not PERST-expressible: with fallback on, a PERST request must
   transparently produce MAX's answer. *)
let test_fallback_unsupported () =
  let q = Queries.find "q17b" in
  let e = load_fresh () in
  Queries.install e;
  (Engine.guards e).Guard.fallback_to_max <- true;
  match Stratum.exec_sql ~strategy:Stratum.Perst e (Queries.sequenced ~context:ctx q) with
  | Eval.Rows rs ->
      Alcotest.(check (list (list string)))
        "fallback answer = MAX answer" (max_answer q) (rows_of rs)
  | _ -> Alcotest.fail "fallback did not produce rows"

(* A fault injected mid-PERST consumes the arming; the MAX retry runs
   clean and must match a clean MAX run. *)
let test_fallback_injected_fault () =
  let q = Queries.find "q2" in
  let e = load_fresh () in
  Queries.install e;
  (Engine.guards e).Guard.fallback_to_max <- true;
  Fault.arm ~site:Fault.Routine_call ~countdown:1;
  let r =
    match Stratum.exec_sql ~strategy:Stratum.Perst e (Queries.sequenced ~context:ctx q) with
    | Eval.Rows rs -> rows_of rs
    | _ -> Alcotest.fail "fallback did not produce rows"
  in
  Fault.disarm ();
  Alcotest.(check bool) "fault fired during PERST" true (Fault.fired ());
  Alcotest.(check (list (list string))) "fault+fallback = clean MAX" (max_answer q) r

(* ------------------------------------------------------------------ *)
(* qcheck: atomicity under seeded faults across the 16 queries         *)
(* ------------------------------------------------------------------ *)

let queries_arr = Array.of_list Queries.all

let arb_fault_case =
  QCheck.make
    QCheck.Gen.(
      triple
        (int_range 0 (Array.length queries_arr - 1))
        bool (int_range 0 9999))
    ~print:(fun (qi, perst, seed) ->
      Printf.sprintf "%s/%s seed=%d" queries_arr.(qi).Queries.id
        (if perst then "PERST" else "MAX")
        seed)

let prop_atomic_under_fault (qi, perst, seed) =
  let q = queries_arr.(qi) in
  let e = load_fresh () in
  Queries.install e;
  let strategy = if perst then Stratum.Perst else Stratum.Max in
  let sql = Queries.sequenced ~context:ctx q in
  let pre = Database.copy (Engine.database e) in
  Fault.arm_seeded ~seed;
  let outcome = try Ok (Stratum.exec_sql ~strategy e sql) with exn -> Error exn in
  Fault.disarm ();
  match outcome with
  | Ok _ -> true
  | Error exn -> (
      (* any failure — injected or not — must leave the database intact *)
      match Resilient.db_diff pre (Engine.database e) with
      | None -> true
      | Some diff ->
          QCheck.Test.fail_reportf "%s/%s seed=%d: %s (raised %s)"
            q.Queries.id
            (if perst then "PERST" else "MAX")
            seed diff
            (TE.to_string (Resilient.classify exn)))

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~count:40 ~name:"seeded fault => atomic rollback"
        arb_fault_case prop_atomic_under_fault;
    ]

(* ------------------------------------------------------------------ *)
(* Fault sweep: seeds 0-7 × 16 queries × both strategies               *)
(* ------------------------------------------------------------------ *)

(* The exhaustive companion of the property above, over a 1-month
   context: every seeded fault must surface typed and leave the
   database bit-identical, and a fault mid-PERST with fallback on must
   still produce MAX's clean answer. *)
let test_fault_sweep () =
  let context = (Date.of_ymd ~y:2010 ~m:6 ~d:1, Date.of_ymd ~y:2010 ~m:7 ~d:1) in
  let e0 = load_fresh () in
  Queries.install e0;
  let violations = ref [] and runs = ref 0 in
  let violation fmt =
    Printf.ksprintf (fun m -> violations := m :: !violations) fmt
  in
  List.iter
    (fun (q : Queries.t) ->
      let sql = Queries.sequenced ~context q in
      List.iter
        (fun strategy ->
          if strategy = Stratum.Max || q.Queries.perst_supported then
            for seed = 0 to 7 do
              incr runs;
              let e = Engine.copy e0 in
              let pre = Database.copy (Engine.database e) in
              Fault.arm_seeded ~seed;
              (match Stratum.exec_sql ~strategy e sql with
              | _ -> ()
              | exception exn -> (
                  let te = Resilient.classify exn in
                  let tag =
                    Printf.sprintf "%s/%s seed=%d" q.Queries.id
                      (Stratum.strategy_to_string strategy)
                      seed
                  in
                  if not (Fault.fired ()) then
                    violation "UNTYPED/UNEXPECTED %s: %s" tag (TE.to_string te);
                  match Resilient.db_diff pre (Engine.database e) with
                  | None -> ()
                  | Some diff -> violation "NOT ATOMIC %s: %s" tag diff));
              Fault.disarm ()
            done)
        [ Stratum.Max; Stratum.Perst ])
    Queries.all;
  let fallbacks = ref 0 in
  List.iter
    (fun (q : Queries.t) ->
      if q.Queries.perst_supported then begin
        let sql = Queries.sequenced ~context q in
        let clean_max =
          match Stratum.exec_sql ~strategy:Stratum.Max (Engine.copy e0) sql with
          | Eval.Rows rs -> Some rs.RS.rows
          | _ -> None
        in
        let e = Engine.copy e0 in
        (Engine.guards e).Guard.fallback_to_max <- true;
        Fault.arm ~site:Fault.Routine_call ~countdown:1;
        (match Stratum.exec_sql ~strategy:Stratum.Perst e sql with
        | Eval.Rows rs ->
            incr fallbacks;
            let same =
              match clean_max with
              | Some rows ->
                  List.length rows = List.length rs.RS.rows
                  && List.for_all2 (Array.for_all2 Value.equal) rows rs.RS.rows
              | None -> false
            in
            if not same then violation "FALLBACK MISMATCH %s" q.Queries.id
        | _ -> ()
        | exception exn ->
            violation "FALLBACK RAISED %s: %s" q.Queries.id
              (Printexc.to_string exn));
        Fault.disarm ()
      end)
    Queries.all;
  let perst_queries =
    List.length (List.filter (fun q -> q.Queries.perst_supported) Queries.all)
  in
  Alcotest.(check int) "8 seeds x every (query, strategy)"
    (8 * (List.length Queries.all + perst_queries))
    !runs;
  Alcotest.(check int) "every fallback equivalence checked" perst_queries
    !fallbacks;
  Alcotest.(check (list string)) "violations" [] (List.rev !violations)

let suite =
  [
    ( "robust",
      [
        Alcotest.test_case "guard matrix" `Quick test_guard_matrix;
        Alcotest.test_case "statement atomicity" `Quick test_statement_atomicity;
        Alcotest.test_case "rollback bumps versions" `Quick
          test_rollback_bumps_versions;
        Alcotest.test_case "error classification" `Quick test_classification;
        Alcotest.test_case "inject-rollback-query staleness" `Quick
          test_inject_rollback_query;
        Alcotest.test_case "PERST fallback: unsupported" `Slow
          test_fallback_unsupported;
        Alcotest.test_case "PERST fallback: injected fault" `Slow
          test_fallback_injected_fault;
        Alcotest.test_case "fault sweep: 8 seeds x 16 queries x MAX/PERST"
          `Slow test_fault_sweep;
      ] );
    ("robust-atomicity", qcheck_tests);
  ]
