(* Unit tests for the smaller substrate modules: Vec, Builtins,
   Result_set, Prng, Schema, Table. *)

module Vec = Sqldb.Vec
module Value = Sqldb.Value
module Schema = Sqldb.Schema
module Table = Sqldb.Table
module RS = Sqleval.Result_set
module Builtins = Sqleval.Builtins
module Prng = Taubench.Prng

(* ------------------------------- Vec ------------------------------- *)

let test_vec_basics () =
  let v = Vec.create () in
  Alcotest.(check int) "empty" 0 (Vec.length v);
  for i = 1 to 100 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 42 (Vec.get v 41);
  Vec.set v 41 1000;
  Alcotest.(check int) "set" 1000 (Vec.get v 41);
  Alcotest.(check int) "fold" (5050 - 42 + 1000) (Vec.fold_left ( + ) 0 v);
  (* the odd values sit at the even positions *)
  Vec.remove_sorted v (Array.init 50 (fun i -> 2 * i));
  Alcotest.(check int) "removed" 50 (Vec.length v);
  Alcotest.(check bool) "remove_sorted keeps evens" true
    (Vec.fold_left (fun acc x -> acc && x mod 2 = 0) true v);
  Vec.map_in_place (fun x -> x + 1) v;
  Alcotest.(check bool) "map applied" true (Vec.exists (fun x -> x = 3) v);
  Vec.clear v;
  Alcotest.(check int) "cleared" 0 (Vec.length v)

let test_vec_of_list () =
  let v = Vec.of_list [ 3; 1; 2 ] in
  Alcotest.(check (list int)) "roundtrip" [ 3; 1; 2 ] (Vec.to_list v);
  Alcotest.check_raises "bounds" (Invalid_argument "Vec.get") (fun () ->
      ignore (Vec.get v 3))

let prop_vec_roundtrip =
  QCheck.Test.make ~name:"vec: to_list . of_list = id" ~count:200
    QCheck.(list int)
    (fun l -> Vec.to_list (Vec.of_list l) = l)

(* ----------------------------- Builtins ---------------------------- *)

let now = Sqldb.Date.of_ymd ~y:2010 ~m:1 ~d:1

let call name args = Builtins.call ~now name args

let test_builtin_null_propagation () =
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ " propagates NULL")
        true
        (Value.is_null (call name [ Value.Null; Value.Int 1 ])))
    [ "first_instance"; "last_instance"; "nullif"; "mod"; "days_between" ]

let test_builtin_instances () =
  Alcotest.(check bool) "first_instance picks earlier" true
    (call "first_instance" [ Value.Int 3; Value.Int 5 ] = Value.Int 3);
  Alcotest.(check bool) "last_instance picks later" true
    (call "last_instance" [ Value.Int 3; Value.Int 5 ] = Value.Int 5)

let test_builtin_strings () =
  Alcotest.(check bool) "substr" true
    (call "substr" [ Value.Str "temporal"; Value.Int 4; Value.Int 3 ]
    = Value.Str "por");
  Alcotest.(check bool) "substr out of range clamps" true
    (call "substr" [ Value.Str "ab"; Value.Int 1; Value.Int 99 ] = Value.Str "ab");
  Alcotest.(check bool) "coalesce picks first non-null" true
    (call "coalesce" [ Value.Null; Value.Null; Value.Int 7 ] = Value.Int 7)

let test_builtin_dates () =
  Alcotest.(check bool) "year/month/day" true
    (call "year" [ Value.Date (Sqldb.Date.of_ymd ~y:2012 ~m:5 ~d:9) ]
     = Value.Int 2012
    && call "month" [ Value.Date (Sqldb.Date.of_ymd ~y:2012 ~m:5 ~d:9) ]
       = Value.Int 5
    && call "day" [ Value.Date (Sqldb.Date.of_ymd ~y:2012 ~m:5 ~d:9) ]
       = Value.Int 9)

let test_like_matcher () =
  let m pat s = Builtins.like_match ~pattern:pat s in
  Alcotest.(check bool) "percent" true (m "a%c" "abbbc");
  Alcotest.(check bool) "underscore" true (m "a_c" "abc");
  Alcotest.(check bool) "underscore strict" false (m "a_c" "abbc");
  Alcotest.(check bool) "empty percent" true (m "%" "");
  Alcotest.(check bool) "anchored" false (m "abc" "xabc");
  Alcotest.(check bool) "multi percent" true (m "%b%d%" "abcd")

let prop_like_literal =
  QCheck.Test.make ~name:"like: a pattern without wildcards is equality"
    ~count:200
    QCheck.(string_of_size (QCheck.Gen.int_range 0 12))
    (fun s ->
      let safe = not (String.exists (fun c -> c = '%' || c = '_') s) in
      QCheck.assume safe;
      Builtins.like_match ~pattern:s s)

(* ---------------------------- Result_set --------------------------- *)

let rs cols rows = { RS.cols; rows }

let test_result_set_equal_bag () =
  let a = rs [ "x" ] [ [| Value.Int 1 |]; [| Value.Int 2 |] ] in
  let b = rs [ "x" ] [ [| Value.Int 2 |]; [| Value.Int 1 |] ] in
  Alcotest.(check bool) "order-insensitive" true (RS.equal_bag a b);
  let c = rs [ "x" ] [ [| Value.Int 1 |]; [| Value.Int 1 |] ] in
  Alcotest.(check bool) "bag, not set" false (RS.equal_bag a c);
  Alcotest.(check bool) "cardinality matters" false
    (RS.equal_bag a (rs [ "x" ] [ [| Value.Int 1 |] ]))

let test_result_set_columns () =
  let a = rs [ "Alpha"; "beta" ] [] in
  Alcotest.(check (option int)) "case-insensitive lookup" (Some 0)
    (RS.column_index a "alpha");
  Alcotest.(check (option int)) "missing" None (RS.column_index a "gamma")

(* ------------------------------- Prng ------------------------------ *)

let test_prng_determinism () =
  let a = Prng.create ~seed:7 and b = Prng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done;
  let c = Prng.create ~seed:8 in
  let diverged = ref false in
  for _ = 1 to 20 do
    if Prng.int a 1000 <> Prng.int c 1000 then diverged := true
  done;
  Alcotest.(check bool) "different seeds diverge" true !diverged

let prop_prng_bounds =
  QCheck.Test.make ~name:"prng: int stays in bounds" ~count:300
    QCheck.(pair (int_range 1 1000) small_int)
    (fun (bound, seed) ->
      let rng = Prng.create ~seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let x = Prng.int rng bound in
        if x < 0 || x >= bound then ok := false
      done;
      !ok)

let prop_prng_range =
  QCheck.Test.make ~name:"prng: int_range inclusive" ~count:200
    QCheck.(triple small_int (int_range 0 50) (int_range 0 50))
    (fun (seed, a, b) ->
      let lo = min a b and hi = max a b in
      let rng = Prng.create ~seed in
      let x = Prng.int_range rng lo hi in
      lo <= x && x <= hi)

let test_gaussian_moments () =
  let rng = Prng.create ~seed:123 in
  let n = 20000 in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  for _ = 1 to n do
    let g = Prng.gaussian rng in
    sum := !sum +. g;
    sumsq := !sumsq +. (g *. g)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool)
    (Printf.sprintf "mean ~ 0 (%.3f)" mean)
    true
    (Float.abs mean < 0.05);
  Alcotest.(check bool)
    (Printf.sprintf "variance ~ 1 (%.3f)" var)
    true
    (Float.abs (var -. 1.0) < 0.1)

(* --------------------------- Schema/Table -------------------------- *)

let test_schema_temporal () =
  let s =
    Schema.make ~name:"t" ~temporal:true
      ~columns:[ Schema.column ~name:"x" ~ty:Value.Tint ] ()
  in
  Alcotest.(check (list string)) "timestamps appended"
    [ "x"; "begin_time"; "end_time" ]
    (Schema.column_names s);
  Alcotest.(check int) "begin index" 1 (Schema.begin_index s);
  Alcotest.(check int) "end index" 2 (Schema.end_index s);
  Alcotest.(check (list string)) "data columns" [ "x" ]
    (List.map (fun c -> c.Schema.col_name) (Schema.data_columns s));
  Alcotest.check_raises "duplicate column rejected"
    (Invalid_argument "Schema.make: duplicate column X in t") (fun () ->
      ignore
        (Schema.make ~name:"t" ~temporal:false
           ~columns:
             [ Schema.column ~name:"x" ~ty:Value.Tint;
               Schema.column ~name:"X" ~ty:Value.Tint ] ()))

let test_table_dml_helpers () =
  let s =
    Schema.make ~name:"t" ~temporal:false
      ~columns:[ Schema.column ~name:"x" ~ty:Value.Tint ] ()
  in
  let t = Table.of_rows s [ [| Value.Int 1 |]; [| Value.Int 2 |]; [| Value.Int 3 |] ] in
  Alcotest.(check int) "rows" 3 (Table.row_count t);
  let n = Table.update_where (fun r -> r.(0) = Value.Int 2)
      (fun r -> [| Value.Int 20 |] |> fun r' -> ignore r; r') t in
  Alcotest.(check int) "one updated" 1 n;
  let n = Table.delete_where (fun r -> Value.to_int_exn r.(0) > 10) t in
  Alcotest.(check int) "one deleted" 1 n;
  Alcotest.(check int) "two remain" 2 (Table.row_count t);
  Alcotest.check_raises "arity check"
    (Invalid_argument "Table t: row arity 2, expected 1") (fun () ->
      Table.insert t [| Value.Int 1; Value.Int 2 |])

let suite =
  [
    ( "vec",
      [
        Alcotest.test_case "basics" `Quick test_vec_basics;
        Alcotest.test_case "of_list / bounds" `Quick test_vec_of_list;
        QCheck_alcotest.to_alcotest prop_vec_roundtrip;
      ] );
    ( "builtins",
      [
        Alcotest.test_case "null propagation" `Quick test_builtin_null_propagation;
        Alcotest.test_case "first/last instance" `Quick test_builtin_instances;
        Alcotest.test_case "string functions" `Quick test_builtin_strings;
        Alcotest.test_case "date parts" `Quick test_builtin_dates;
        Alcotest.test_case "LIKE matcher" `Quick test_like_matcher;
        QCheck_alcotest.to_alcotest prop_like_literal;
      ] );
    ( "result-set",
      [
        Alcotest.test_case "bag equality" `Quick test_result_set_equal_bag;
        Alcotest.test_case "column lookup" `Quick test_result_set_columns;
      ] );
    ( "prng",
      [
        Alcotest.test_case "determinism" `Quick test_prng_determinism;
        Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
        QCheck_alcotest.to_alcotest prop_prng_bounds;
        QCheck_alcotest.to_alcotest prop_prng_range;
      ] );
    ( "schema-table",
      [
        Alcotest.test_case "temporal schema" `Quick test_schema_temporal;
        Alcotest.test_case "table DML helpers" `Quick test_table_dml_helpers;
      ] );
  ]
