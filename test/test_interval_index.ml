(* Interval-index tests: the qcheck equivalence property against a
   naive filter, the key index's maintenance property against a
   from-scratch grouping, edge cases, and the evaluator-level ablation —
   with the index on and off, sequenced evaluation of all 16 τPSM
   queries must produce identical results under both MAX and PERST.
   Also pins the stratum's
   transformed-plan cache: physical reuse across executions and
   invalidation on DDL. *)

module II = Sqldb.Interval_index
module Date = Sqldb.Date
module Value = Sqldb.Value
module Schema = Sqldb.Schema
module Table = Sqldb.Table
module Database = Sqldb.Database
module Engine = Sqleval.Engine
module Catalog = Sqleval.Catalog
module RS = Sqleval.Result_set
module Stratum = Taupsm.Stratum
module Datasets = Taubench.Datasets
module Queries = Taubench.Queries

(* ------------------------------------------------------------------ *)
(* Property: indexed overlap = naive filter                            *)
(* ------------------------------------------------------------------ *)

(* An item: Some (b, e) indexed interval, or None (a residual the index
   must return on every probe).  Lengths range over negative (inverted),
   zero (empty) and ordinary periods; some ends are Date.forever. *)
let gen_item =
  QCheck.Gen.(
    frequency
      [
        ( 8,
          map2
            (fun b len -> Some (b, b + len))
            (int_range 0 100) (int_range (-5) 30) );
        (2, map (fun b -> Some (b, Date.forever)) (int_range 0 100));
        (1, return None);
      ])

let gen_case =
  QCheck.Gen.(
    triple
      (list_size (int_range 0 60) gen_item)
      (int_range (-10) 120) (int_range (-5) 40))

let arb_case =
  QCheck.make gen_case ~print:(fun (items, b, len) ->
      Printf.sprintf "%d items, probe [%d, %d)" (List.length items) b (b + len))

(* Naive reference: residuals always match; an interval matches the
   half-open overlap test. *)
let naive items ~begin_ ~end_ =
  List.filter
    (fun (_, it) ->
      match it with
      | None -> true
      | Some (b, e) -> b < end_ && e > begin_)
    items

let prop_matches_naive (items, pb, plen) =
  let items = List.mapi (fun i it -> (i, it)) items in
  let idx = II.build ~extract:snd (Array.of_list items) in
  let pe = pb + plen in
  II.overlapping idx ~begin_:pb ~end_:pe = naive items ~begin_:pb ~end_:pe

(* ------------------------------------------------------------------ *)
(* Property: maintained key index = from-scratch grouping              *)
(* ------------------------------------------------------------------ *)

(* Rows are (k1, k2, v); the key columns mix NULL, integers, floats,
   strings that spell other literals, dates and booleans, so key
   identity must follow the SQL literal ([1], [1.0] and ['1'] are three
   keys). *)
let gen_key_value =
  QCheck.Gen.oneofl
    [
      Value.Null; Value.Int 0; Value.Int 1; Value.Float 1.0; Value.Str "1";
      Value.Str "NULL"; Value.Str "a'b"; Value.Date 0; Value.Bool true;
    ]

type key_op =
  | Ins of Value.t * Value.t * int
  | Upd_where of int * Value.t * Value.t
      (* rows with v mod 3 = m get a new key *)
  | Del_where of int  (* rows with v mod 4 = m *)
  | Upd_at of int list * Value.t * Value.t  (* positions, taken mod row count *)
  | Del_at of int list
  | Clear
  | Rolled_back of key_op list  (* inside Database.with_atomic, then raise *)
  | Freeze_then of key_op  (* freeze, then mutate the live table *)

let rec key_op_to_string = function
  | Ins (a, b, v) ->
      Printf.sprintf "ins(%s,%s,%d)" (Value.to_literal a) (Value.to_literal b) v
  | Upd_where (m, a, b) ->
      Printf.sprintf "upd_where(%d->%s,%s)" m (Value.to_literal a)
        (Value.to_literal b)
  | Del_where m -> Printf.sprintf "del_where(%d)" m
  | Upd_at (ps, a, b) ->
      Printf.sprintf "upd_at([%s]->%s,%s)"
        (String.concat ";" (List.map string_of_int ps))
        (Value.to_literal a) (Value.to_literal b)
  | Del_at ps ->
      Printf.sprintf "del_at([%s])"
        (String.concat ";" (List.map string_of_int ps))
  | Clear -> "clear"
  | Rolled_back ops ->
      "rollback[" ^ String.concat " " (List.map key_op_to_string ops) ^ "]"
  | Freeze_then op -> "freeze;" ^ key_op_to_string op

let gen_key_ops =
  let open QCheck.Gen in
  let positions = list_size (int_range 1 4) (int_range 0 1000) in
  let kv = gen_key_value in
  let plain =
    frequency
      [
        (8, map3 (fun a b v -> Ins (a, b, v)) kv kv (int_range 0 99));
        (2, map3 (fun m a b -> Upd_where (m, a, b)) (int_range 0 2) kv kv);
        (2, map (fun m -> Del_where m) (int_range 0 3));
        (2, map3 (fun ps a b -> Upd_at (ps, a, b)) positions kv kv);
        (2, map (fun ps -> Del_at ps) positions);
        (1, return Clear);
      ]
  in
  let rolled_back = map (fun ops -> Rolled_back ops) in
  list_size (int_range 1 40)
    (frequency
       [
         (12, plain);
         (2, rolled_back (list_size (int_range 1 4) plain));
         (2, map (fun op -> Freeze_then op) plain);
       ])

let key_cols = [ [ 0 ]; [ 0; 1 ]; [ 1 ] ]

(* Key identity as merge planning and constraint checking have always
   grouped rows: by SQL literal. *)
let literal_id key = String.concat "\x00" (List.map Value.to_literal key)

(* From scratch: key id -> ascending positions, keys in order of first
   position. *)
let grouping rows cols =
  let h = Hashtbl.create 16 and order = ref [] in
  List.iteri
    (fun p (r : Value.t array) ->
      let key = List.map (fun i -> r.(i)) cols in
      let id = literal_id key in
      match Hashtbl.find_opt h id with
      | Some (k, ps) -> Hashtbl.replace h id (k, p :: ps)
      | None ->
          Hashtbl.add h id (key, [ p ]);
          order := id :: !order)
    rows;
  List.rev_map
    (fun id ->
      let key, ps = Hashtbl.find h id in
      (key, List.rev ps))
    !order

(* Every key's lookup returns exactly its rows, physically, with their
   positions, and the index holds no other key. *)
let index_matches what t =
  let rows = Table.to_list t in
  List.iter
    (fun cols ->
      let expected = grouping rows cols in
      let ids ks = List.map literal_id ks in
      if ids (List.map fst (Table.groups t ~cols)) <> ids (List.map fst expected)
      then
        QCheck.Test.fail_reportf "%s: keys differ over cols [%s]" what
          (String.concat ";" (List.map string_of_int cols));
      List.iter
        (fun (key, ps) ->
          let got = Table.lookup t ~cols key in
          let same (p, r) p' = p = p' && r == List.nth rows p' in
          if List.map fst got <> ps || not (List.for_all2 same got ps) then
            QCheck.Test.fail_reportf "%s: lookup (%s) over cols [%s] is wrong"
              what (literal_id key)
              (String.concat ";" (List.map string_of_int cols)))
        expected)
    key_cols

let prop_key_index_maintained ops =
  let db = Database.create () in
  let schema =
    Schema.make ~name:"k" ~temporal:false
      ~columns:
        [
          Schema.column ~name:"k1" ~ty:Value.Tstring;
          Schema.column ~name:"k2" ~ty:Value.Tstring;
          Schema.column ~name:"v" ~ty:Value.Tint;
        ]
      ()
  in
  let t = Table.create schema in
  Database.add_table db t;
  let v_of (r : Value.t array) = match r.(2) with Value.Int v -> v | _ -> 0 in
  let rekey a b (r : Value.t array) = [| a; b; r.(2) |] in
  let frozen = ref [] in
  let rec run = function
    | Ins (a, b, v) -> Table.insert t [| a; b; Value.Int v |]
    | Upd_where (m, a, b) ->
        ignore (Table.update_where (fun r -> v_of r mod 3 = m) (rekey a b) t)
    | Del_where m -> ignore (Table.delete_where (fun r -> v_of r mod 4 = m) t)
    | Upd_at (ps, a, b) ->
        let n = Table.row_count t in
        if n > 0 then
          let ps = List.sort_uniq compare (List.map (fun p -> p mod n) ps) in
          Table.update_at t
            (List.map (fun p -> (p, rekey a b (Table.get t p))) ps)
    | Del_at ps ->
        let n = Table.row_count t in
        if n > 0 then Table.delete_at t (List.map (fun p -> p mod n) ps)
    | Clear -> Table.clear t
    | Rolled_back ops -> (
        try
          Database.with_atomic db (fun () ->
              List.iter run ops;
              raise Exit)
        with Exit -> ())
    | Freeze_then op ->
        let fr = Table.freeze t in
        frozen := (fr, Table.to_list fr) :: !frozen;
        run op
  in
  List.iteri
    (fun i op ->
      let before = Table.to_list t in
      run op;
      (match op with
      | Rolled_back _ ->
          if Table.to_list t <> before then
            QCheck.Test.fail_reportf "step %d: rollback changed the rows" i
      | _ -> ());
      let what = Printf.sprintf "step %d (%s)" i (key_op_to_string op) in
      index_matches what t;
      List.iter
        (fun (fr, rows) ->
          if Table.to_list fr <> rows then
            QCheck.Test.fail_reportf "%s: a frozen copy changed" what;
          index_matches (what ^ ", frozen copy") fr)
        !frozen)
    ops;
  true

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~count:500 ~name:"indexed overlap = naive filter"
        arb_case prop_matches_naive;
      QCheck.Test.make ~count:200 ~name:"stabbing = [at, at+1) overlap"
        arb_case
        (fun (items, at, _) ->
          let items = List.mapi (fun i it -> (i, it)) items in
          let idx = II.build ~extract:snd (Array.of_list items) in
          II.stabbing idx ~at = naive items ~begin_:at ~end_:(at + 1));
      QCheck.Test.make ~count:300 ~name:"maintained key index = fresh grouping"
        (QCheck.make gen_key_ops ~print:(fun ops ->
             String.concat " " (List.map key_op_to_string ops)))
        prop_key_index_maintained;
    ]

(* ------------------------------------------------------------------ *)
(* Edge cases                                                          *)
(* ------------------------------------------------------------------ *)

let test_empty () =
  let idx = II.build ~extract:(fun x -> Some x) [||] in
  Alcotest.(check int) "length" 0 (II.length idx);
  Alcotest.(check (list (pair int int)))
    "no matches" []
    (II.overlapping idx ~begin_:min_int ~end_:max_int)

let test_all_residual () =
  let idx = II.build ~extract:(fun _ -> None) [| "a"; "b"; "c" |] in
  Alcotest.(check int) "residuals" 3 (II.residual_count idx);
  Alcotest.(check (list string))
    "every probe returns the residuals in order" [ "a"; "b"; "c" ]
    (II.overlapping idx ~begin_:5 ~end_:5)

let test_forever_and_order () =
  let items = [| (10, 20); (0, Date.forever); (15, 16); (30, 30) |] in
  let idx = II.build ~extract:(fun x -> Some x) items in
  (* A current-style probe: rows whose end is past forever - 1. *)
  Alcotest.(check (list (pair int int)))
    "forever rows" [ (0, Date.forever) ]
    (II.overlapping idx ~begin_:(Date.forever - 1) ~end_:max_int);
  (* Matches come back in the original array order, not begin order. *)
  Alcotest.(check (list (pair int int)))
    "original order" [ (10, 20); (0, Date.forever); (15, 16) ]
    (II.overlapping idx ~begin_:12 ~end_:18);
  (* The raw half-open test is applied verbatim: the empty period
     (30, 30) matches a probe that strictly contains its point but not
     one that merely touches it.  Exact semantics (Period.overlaps says
     an empty period overlaps nothing) are the re-checked conjuncts'
     job; the index only promises a superset. *)
  Alcotest.(check (list (pair int int)))
    "empty period inside the probe" [ (0, Date.forever); (30, 30) ]
    (II.overlapping idx ~begin_:25 ~end_:40);
  Alcotest.(check (list (pair int int)))
    "empty period at the probe edge" [ (0, Date.forever) ]
    (II.overlapping idx ~begin_:30 ~end_:40)

(* ------------------------------------------------------------------ *)
(* Evaluator ablation: index on = index off                            *)
(* ------------------------------------------------------------------ *)

let ds1 =
  lazy
    (let e =
       Datasets.load { Datasets.ds = Datasets.DS1; size = Taupsm.Heuristic.Small }
     in
     Queries.install e;
     e)

let context = (Date.of_ymd ~y:2010 ~m:6 ~d:1, Date.of_ymd ~y:2010 ~m:9 ~d:1)

let run_with ~index ~context strategy (q : Queries.t) : RS.t =
  let e = Engine.copy (Lazy.force ds1) in
  (Engine.catalog e).Catalog.options.Catalog.temporal_index <- index;
  match Stratum.exec_sql ~strategy e (Queries.sequenced ~context q) with
  | Sqleval.Eval.Rows rs -> rs
  | _ -> Alcotest.fail "expected rows"

let rs_equal (a : RS.t) (b : RS.t) =
  a.RS.cols = b.RS.cols
  && List.length a.RS.rows = List.length b.RS.rows
  && List.for_all2
       (fun r1 r2 ->
         Array.length r1 = Array.length r2 && Array.for_all2 Value.equal r1 r2)
       a.RS.rows b.RS.rows

(* Every query under every strategy that applies to it (31 points: q17b
   is not PERST-expressible), over a 3-month and a 1-year context. *)
let test_ablation_identical () =
  let one_year = (Date.of_ymd ~y:2010 ~m:6 ~d:1, Date.of_ymd ~y:2011 ~m:6 ~d:1) in
  List.iter
    (fun context ->
      let checked = ref 0 in
      List.iter
        (fun (q : Queries.t) ->
          List.iter
            (fun strategy ->
              if strategy = Stratum.Max || q.Queries.perst_supported then begin
                incr checked;
                let on = run_with ~index:true ~context strategy q in
                let off = run_with ~index:false ~context strategy q in
                Alcotest.(check bool)
                  (Printf.sprintf "%s %s: indexed = unindexed" q.Queries.id
                     (Stratum.strategy_to_string strategy))
                  true (rs_equal on off)
              end)
            [ Stratum.Max; Stratum.Perst ])
        Queries.all;
      Alcotest.(check int) "strategy points" 31 !checked)
    [ context; one_year ]

(* ------------------------------------------------------------------ *)
(* Plan cache                                                          *)
(* ------------------------------------------------------------------ *)

let test_plan_cache () =
  let e = Engine.copy (Lazy.force ds1) in
  let q = Queries.find "q2" in
  let ts =
    Sqlparse.Parser.parse_temporal_stmt (Queries.sequenced ~context q)
  in
  (* First execution registers the max_ routines (bumping the catalog
     generation); from the second on the token is stable. *)
  ignore (Stratum.exec ~strategy:Stratum.Max e ts);
  ignore (Stratum.exec ~strategy:Stratum.Max e ts);
  let p1 = Stratum.transform ~strategy:Stratum.Max e ts in
  let p2 = Stratum.transform ~strategy:Stratum.Max e ts in
  Alcotest.(check bool) "plan physically reused" true (p1 == p2);
  ignore (Engine.exec e "CREATE TABLE pc_probe (x INTEGER)");
  let p3 = Stratum.transform ~strategy:Stratum.Max e ts in
  Alcotest.(check bool) "DDL invalidates the cached plan" true (p3 != p1);
  (* The cached and re-derived plans are the same transformation. *)
  Alcotest.(check bool) "re-derived plan is equal" true (p3 = p1)

(* ------------------------------------------------------------------ *)
(* Regression: the plan-cache token covers the evaluation options      *)
(* ------------------------------------------------------------------ *)

let seq_query =
  "VALIDTIME [DATE '2010-02-01', DATE '2010-03-01') SELECT id FROM item"

let setup_item () =
  let e = Engine.create ~now:(Date.of_ymd ~y:2010 ~m:7 ~d:1) () in
  Stratum.install e;
  Engine.exec_script e
    "CREATE TABLE item (id INTEGER, title VARCHAR(50)) WITH VALIDTIME;\n\
     INSERT INTO item (id, title, begin_time, end_time) VALUES (1, 'One', \
     DATE '2010-01-01', DATE '9999-12-31'), (2, 'Two', DATE '2010-02-10', \
     DATE '9999-12-31')";
  e

let test_plan_cache_options_token () =
  let e = setup_item () in
  let cat = Engine.catalog e in
  let ts = Sqlparse.Parser.parse_temporal_stmt seq_query in
  (* warm up until the token is stable (first runs register max_
     routines and scratch tables, invalidating their own plans) *)
  ignore (Stratum.exec ~strategy:Stratum.Max e ts);
  ignore (Stratum.exec ~strategy:Stratum.Max e ts);
  cat.Catalog.options.Catalog.observe <- true;
  let tr = Catalog.trace cat in
  let c = Trace.get_count tr in
  ignore (Stratum.exec ~strategy:Stratum.Max e ts);
  Alcotest.(check int) "steady state: hit" 1 (c "plan_cache.hit");
  (* flipping an evaluation option must orphan the cached plan: before
     the options fingerprint joined the token this was a (stale) hit *)
  cat.Catalog.options.Catalog.temporal_index <-
    not cat.Catalog.options.Catalog.temporal_index;
  Trace.reset tr;
  ignore (Stratum.exec ~strategy:Stratum.Max e ts);
  Alcotest.(check int) "option flipped: miss" 1 (c "plan_cache.miss");
  Alcotest.(check int) "option flipped: no hit" 0 (c "plan_cache.hit");
  Trace.reset tr;
  ignore (Stratum.exec ~strategy:Stratum.Max e ts);
  Alcotest.(check int) "re-cached under new token: hit" 1 (c "plan_cache.hit");
  (* flipping back differs from the latest cached token again *)
  cat.Catalog.options.Catalog.temporal_index <-
    not cat.Catalog.options.Catalog.temporal_index;
  Trace.reset tr;
  ignore (Stratum.exec ~strategy:Stratum.Max e ts);
  Alcotest.(check int) "flipped back: miss" 1 (c "plan_cache.miss")

(* A stream of distinct statements cannot grow the plan cache past its
   bound, and a statement repeated after it still hits. *)
let test_plan_cache_bound () =
  let e = setup_item () in
  let cat = Engine.catalog e in
  let bound = Catalog.plan_cache_bound in
  for i = 0 to bound do
    ignore
      (Stratum.transform ~strategy:Stratum.Max e
         (Sqlparse.Parser.parse_temporal_stmt
            (Printf.sprintf "%s WHERE id = %d" seq_query i)))
  done;
  Alcotest.(check bool)
    "at most bound entries" true
    (Hashtbl.length cat.Catalog.plan_cache <= bound);
  let ts = Sqlparse.Parser.parse_temporal_stmt seq_query in
  let p1 = Stratum.transform ~strategy:Stratum.Max e ts in
  let p2 = Stratum.transform ~strategy:Stratum.Max e ts in
  Alcotest.(check bool) "a repeated statement still hits" true (p1 == p2)

let suite =
  [
    ( "interval-index",
      qcheck_tests
      @ [
          Alcotest.test_case "empty index" `Quick test_empty;
          Alcotest.test_case "all-residual index" `Quick test_all_residual;
          Alcotest.test_case "forever ends, order, empty periods" `Quick
            test_forever_and_order;
          Alcotest.test_case "sequenced results identical with index on/off"
            `Quick test_ablation_identical;
          Alcotest.test_case "plan cache reuses and invalidates" `Quick
            test_plan_cache;
          Alcotest.test_case "plan cache: options join the token" `Quick
            test_plan_cache_options_token;
          Alcotest.test_case "plan cache: bounded" `Quick
            test_plan_cache_bound;
        ] );
  ]
