(* τPSM benchmark tests: dataset generation invariants, and the paper's
   §VII-B correctness methodology over all 16 queries — commutativity of
   sequenced evaluation with timeslicing, and MAX ≡ PERST. *)

module Engine = Sqleval.Engine
module Eval = Sqleval.Eval
module RS = Sqleval.Result_set
module Value = Sqldb.Value
module Date = Sqldb.Date
module Period = Sqldb.Period
module Stratum = Taupsm.Stratum
module Datasets = Taubench.Datasets
module Queries = Taubench.Queries

let small_ds1 =
  lazy (Datasets.load { Datasets.ds = Datasets.DS1; size = Taupsm.Heuristic.Small })

let load_fresh () = Engine.copy (Lazy.force small_ds1)

(* ------------------------------------------------------------------ *)
(* Generator invariants                                                *)
(* ------------------------------------------------------------------ *)

let test_determinism () =
  let e1 = Datasets.load { Datasets.ds = Datasets.DS1; size = Taupsm.Heuristic.Small } in
  let e2 = Datasets.load { Datasets.ds = Datasets.DS1; size = Taupsm.Heuristic.Small } in
  List.iter
    (fun name ->
      let rows eng =
        Sqldb.Table.to_list
          (Sqldb.Database.find_table_exn (Engine.database eng) name)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s identical across runs" name)
        true
        (List.for_all2
           (fun a b -> Array.for_all2 Value.equal a b)
           (rows e1) (rows e2)))
    Taubench.Dcsd.table_names

let test_periods_valid () =
  let e = load_fresh () in
  List.iter
    (fun name ->
      let t = Sqldb.Database.find_table_exn (Engine.database e) name in
      let schema = Sqldb.Table.schema t in
      Alcotest.(check bool) (name ^ " is temporal") true schema.Sqldb.Schema.temporal;
      let bi = Sqldb.Schema.begin_index schema
      and ei = Sqldb.Schema.end_index schema in
      Sqldb.Table.iter
        (fun row ->
          let b = Value.to_date_exn row.(bi) and e = Value.to_date_exn row.(ei) in
          if b >= e then
            Alcotest.failf "%s has an empty or inverted period [%s, %s)" name
              (Date.to_string b) (Date.to_string e))
        t)
    Taubench.Dcsd.table_names

(* Versions of the same key must not overlap in time: at any instant a
   key has at most one version (item/author/publisher keyed by id). *)
let test_no_overlapping_versions () =
  let e = load_fresh () in
  List.iter
    (fun (name, key_cols) ->
      let t = Sqldb.Database.find_table_exn (Engine.database e) name in
      let schema = Sqldb.Table.schema t in
      let bi = Sqldb.Schema.begin_index schema
      and ei = Sqldb.Schema.end_index schema in
      let by_key = Hashtbl.create 64 in
      Sqldb.Table.iter
        (fun row ->
          let key = List.map (fun i -> row.(i)) key_cols in
          let p =
            Period.make
              ~begin_:(Value.to_date_exn row.(bi))
              ~end_:(Value.to_date_exn row.(ei))
          in
          let existing = Option.value (Hashtbl.find_opt by_key key) ~default:[] in
          List.iter
            (fun p' ->
              if Period.overlaps p p' then
                Alcotest.failf "%s: overlapping versions %s and %s" name
                  (Period.to_string p) (Period.to_string p'))
            existing;
          Hashtbl.replace by_key key (p :: existing))
        t)
    [ ("item", [ 0 ]); ("author", [ 0 ]); ("publisher", [ 0 ]) ]

let test_current_rows_open () =
  let e = load_fresh () in
  (* Each item key must have exactly one version open until forever. *)
  let t = Sqldb.Database.find_table_exn (Engine.database e) "item" in
  let schema = Sqldb.Table.schema t in
  let ei = Sqldb.Schema.end_index schema in
  let open_count = Hashtbl.create 64 in
  Sqldb.Table.iter
    (fun row ->
      if Value.to_date_exn row.(ei) = Date.forever then
        Hashtbl.replace open_count row.(0)
          (1 + Option.value (Hashtbl.find_opt open_count row.(0)) ~default:0))
    t;
  Hashtbl.iter
    (fun k n ->
      if n <> 1 then
        Alcotest.failf "item %s has %d open versions" (Value.to_string k) n)
    open_count

let test_dataset_shapes () =
  let specs =
    [
      ({ Datasets.ds = Datasets.DS1; size = Taupsm.Heuristic.Small }, 104);
      ({ Datasets.ds = Datasets.DS3; size = Taupsm.Heuristic.Small }, 693);
    ]
  in
  List.iter
    (fun (spec, expected_steps) ->
      let cfg =
        Datasets.sim_config spec.Datasets.ds
          ~total_changes:(snd (Datasets.shape spec.Datasets.size))
      in
      Alcotest.(check int)
        (Datasets.spec_to_string spec ^ " steps")
        expected_steps cfg.Taubench.Simulate.n_steps)
    specs;
  (* DS3 trades slice count against changes per slice: same total. *)
  let total ds =
    let cfg =
      Datasets.sim_config ds
        ~total_changes:(snd (Datasets.shape Taupsm.Heuristic.Small))
    in
    cfg.Taubench.Simulate.n_steps * cfg.Taubench.Simulate.changes_per_step
  in
  let t1 = total Datasets.DS1 and t3 = total Datasets.DS3 in
  Alcotest.(check bool)
    (Printf.sprintf "DS1 (%d) and DS3 (%d) change totals close" t1 t3)
    true
    (abs (t1 - t3) * 10 < max t1 t3 * 3)

let test_hotspot_skew () =
  (* DS2's victims concentrate on low item ids: the first decile of
     items must take well over its proportional share of changes. *)
  let e_uni = Datasets.load { Datasets.ds = Datasets.DS1; size = Taupsm.Heuristic.Small } in
  let e_hot = Datasets.load { Datasets.ds = Datasets.DS2; size = Taupsm.Heuristic.Small } in
  let versions_of_low_items eng =
    let t = Sqldb.Database.find_table_exn (Engine.database eng) "item" in
    let low = ref 0 and all = ref 0 in
    Sqldb.Table.iter
      (fun row ->
        incr all;
        if Value.to_int_exn row.(0) <= 4 then incr low)
      t;
    float_of_int !low /. float_of_int !all
  in
  let f_uni = versions_of_low_items e_uni in
  let f_hot = versions_of_low_items e_hot in
  Alcotest.(check bool)
    (Printf.sprintf "hot-spot skew (uniform %.3f < hotspot %.3f)" f_uni f_hot)
    true (f_hot > f_uni)

(* ------------------------------------------------------------------ *)
(* The 16 queries: current evaluation sanity                           *)
(* ------------------------------------------------------------------ *)

let test_queries_run_current () =
  let e = load_fresh () in
  Queries.install e;
  List.iter
    (fun (q : Queries.t) ->
      match Stratum.exec_sql e q.Queries.body with
      | Eval.Rows _ -> ()
      | _ -> Alcotest.failf "%s did not produce rows" q.Queries.id
      | exception exn ->
          Alcotest.failf "%s (current) raised %s" q.Queries.id
            (Printexc.to_string exn))
    Queries.all

(* ------------------------------------------------------------------ *)
(* §VII-B: commutativity and MAX ≡ PERST on every query                *)
(* ------------------------------------------------------------------ *)

(* A short context keeps the check fast; it spans several change steps
   of DS1-SMALL (weekly changes). *)
let ctx_b = Date.of_ymd ~y:2010 ~m:3 ~d:1
let ctx_e = Date.of_ymd ~y:2010 ~m:4 ~d:15

let context_sql =
  Printf.sprintf "[DATE '%s', DATE '%s')" (Date.to_string ctx_b)
    (Date.to_string ctx_e)

let check_one_query (q : Queries.t) () =
  let e = load_fresh () in
  Queries.install e;
  (* Commutativity of the MAX evaluation. *)
  let failures =
    Taupsm.Commute.check_commutes ~strategy:Stratum.Max e ~context_sql
      ~query_sql:q.Queries.body ()
  in
  (match failures with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "%s (MAX) violates commutativity:@ %s" q.Queries.id
        (Format.asprintf "%a" Taupsm.Commute.pp_failure f));
  (* MAX vs PERST equivalence (vacuous for q17b). *)
  let failures =
    Taupsm.Commute.check_equivalence e ~context_sql ~query_sql:q.Queries.body ()
  in
  match failures with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "%s: MAX and PERST disagree:@ %s" q.Queries.id
        (Format.asprintf "%a" Taupsm.Commute.pp_failure f)

let test_q17b_perst_unsupported () =
  let e = load_fresh () in
  Queries.install e;
  let q = Queries.find "q17b" in
  match
    Stratum.exec_sql ~strategy:Stratum.Perst e (Queries.sequenced q)
  with
  | exception Taupsm.Perst_slicing.Perst_unsupported _ -> ()
  | _ -> Alcotest.fail "q17b must be rejected by PERST"

let suite =
  [
    ( "taubench-data",
      [
        Alcotest.test_case "deterministic generation" `Quick test_determinism;
        Alcotest.test_case "periods well-formed" `Quick test_periods_valid;
        Alcotest.test_case "no overlapping versions" `Quick
          test_no_overlapping_versions;
        Alcotest.test_case "one open version per key" `Quick
          test_current_rows_open;
        Alcotest.test_case "dataset shapes" `Quick test_dataset_shapes;
        Alcotest.test_case "DS2 hot-spot skew" `Quick test_hotspot_skew;
      ] );
    ( "taubench-queries",
      Alcotest.test_case "all queries run (current)" `Quick
        test_queries_run_current
      :: Alcotest.test_case "q17b unsupported by PERST" `Quick
           test_q17b_perst_unsupported
      :: List.map
           (fun (q : Queries.t) ->
             Alcotest.test_case
               (Printf.sprintf "%s: commutativity + MAX=PERST (%s)"
                  q.Queries.id q.Queries.construct)
               `Slow (check_one_query q))
           Queries.all );
  ]
