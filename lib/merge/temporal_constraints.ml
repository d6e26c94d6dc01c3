(* Temporal integrity constraint checking.

   Two constraint families, both declared at CREATE TABLE time and
   carried immutably on the schema (Sqldb.Schema.tconstraint):

   - TEMPORAL PRIMARY KEY (cols): among the tt-current rows of the
     table, no two rows with equal key values may have overlapping
     valid-time periods.
   - TEMPORAL FOREIGN KEY (cols) REFERENCES t (cols): every tt-current
     referencing row's period must be covered, without gaps, by the
     union of the matching tt-current referenced rows' periods (the
     covers-without-gaps sweep of sql_saga).

   Both checks work one key at a time: the rows of a key come from the
   table's key index ({!Sqldb.Table.lookup}), their tt-current periods
   are sorted once, and one sweep finds an overlap (PK) or a gap under a
   referencing period (FK).  A key costs O(k log k) in its own rows,
   however many other entities share its periods.  {!check_table}
   runs the per-key checks over every key of a table; the stratum runs
   it through {!check_changed} at statement commit for arbitrary DML.
   The merge engine runs {!check_written} over exactly the keys it
   wrote and the keys whose windows it vacated. *)

open Sqldb
module Catalog = Sqleval.Catalog

let lc = String.lowercase_ascii

let violation ~period fmt =
  Taupsm_error.raise_error ?period Taupsm_error.Constraint_violation fmt

let row_dates (row : Value.t array) ~bi ~ei =
  match (row.(bi), row.(ei)) with
  | Value.Date b, Value.Date e when b < e -> Some (b, e)
  | _ -> None

let key_values idxs (row : Value.t array) = List.map (fun i -> row.(i)) idxs
let has_null vs = List.exists (fun v -> v = Value.Null) vs
let key_string vs = String.concat ", " (List.map Value.to_string vs)

let count cat name n =
  let tr = Catalog.trace cat in
  if Trace.enabled tr then Trace.count tr name n

(* ------------------------------------------------------------------ *)
(* Per-key checks                                                      *)
(* ------------------------------------------------------------------ *)

(* A table with the columns every per-key check reads resolved once. *)
type frame = {
  table : Table.t;
  bi : int;
  ei : int;
  current : Value.t array -> bool;  (* tt-current; malformed cells count *)
}

let frame (t : Table.t) =
  let schema = Table.schema t in
  {
    table = t;
    bi = Schema.begin_index schema;
    ei = Schema.end_index schema;
    current = Sqleval.Versions.tt_current schema;
  }

(* The valid-time periods of the tt-current rows among [rows] — stored
   rows as {!Table.lookup} returns them — sorted by begin; rows with
   malformed or empty periods are skipped.  Every row is added to
   [examined]. *)
let periods ~examined f rows =
  examined := !examined + List.length rows;
  List.filter_map
    (fun (_, row) ->
      if f.current row then row_dates row ~bi:f.bi ~ei:f.ei else None)
    rows
  |> List.stable_sort (fun (a, _) (b, _) -> Date.compare a b)

(* TEMPORAL PRIMARY KEY on one key, given the key's rows: sorted
   adjacent periods must not intersect (if any two overlap, some
   adjacent pair does).  Rows with a NULL key column are exempt: as in
   SQL, NULL never identifies. *)
let check_pk_key ~examined f (key, rows) =
  if not (has_null key) then begin
    let rec go = function
      | (_, e1) :: ((b2, e2) :: _ as rest) ->
          if b2 < e1 then
            violation
              ~period:(Some (b2, min e1 e2))
              "temporal primary key violation on %s: key (%s) has \
               overlapping periods"
              (Table.name f.table) (key_string key)
          else go rest
      | _ -> ()
    in
    go (periods ~examined f rows)
  end

(* The union of periods sorted by begin, as maximal disjoint intervals
   (touching periods join: [a, b) and [b, c) cover [a, c) without a
   gap). *)
let union sorted =
  List.rev
    (List.fold_left
       (fun acc (b, e) ->
         match acc with
         | (ub, ue) :: rest when b <= ue -> (ub, max ue e) :: rest
         | _ -> (b, e) :: acc)
       [] sorted)
  |> Array.of_list

(* Is [b, e) inside one interval of [cover] (disjoint, ascending)? *)
let covered cover b e =
  let lo = ref 0 and hi = ref (Array.length cover) in
  (* last interval beginning at or before [b] *)
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if fst cover.(mid) <= b then lo := mid + 1 else hi := mid
  done;
  !lo > 0 && snd cover.(!lo - 1) >= e

(* The referenced side of [fk]: the referenced table's frame and key
   columns, or None when that table does not exist. *)
let referenced cat (_, ref_table, ref_cols) =
  Option.map
    (fun rt ->
      (frame rt, List.map (Schema.column_index_exn (Table.schema rt)) ref_cols))
    (Database.find_table cat.Catalog.db ref_table)

(* TEMPORAL FOREIGN KEY on one key, given the referencing rows whose
   [fk] columns equal [key]: every tt-current period among them must be
   covered without gaps by the union of the referenced table's
   tt-current periods of that key (the covers-without-gaps test of
   sql_saga). *)
let check_fk_key ~examined f ~fk ~referenced (key, rows) =
  let _, ref_table, _ = fk in
  if not (has_null key) then
    match periods ~examined f rows with
    | [] -> ()
    | first :: _ as need -> (
        match referenced with
        | None ->
            violation ~period:(Some first)
              "temporal foreign key violation on %s: referenced table %s \
               does not exist"
              (Table.name f.table) ref_table
        | Some (rf, cols) ->
            let cover =
              union (periods ~examined rf (Table.lookup rf.table ~cols key))
            in
            List.iter
              (fun (b, e) ->
                if not (covered cover b e) then
                  violation ~period:(Some (b, e))
                    "temporal foreign key violation on %s: key (%s) not \
                     covered by %s without gaps"
                    (Table.name f.table) (key_string key) ref_table)
              need)

let fk_positions (t : Table.t) (fk_cols, _, _) =
  List.map (Schema.column_index_exn (Table.schema t)) fk_cols

(* The primary-key and outgoing foreign-key checks of [t], over the
   (key, rows) groups [groups_of cols] gives for each constraint's
   column positions. *)
let check_keys cat ~examined (t : Table.t) groups_of =
  let schema = Table.schema t in
  let f = frame t in
  Option.iter
    (fun cols ->
      let cols = List.map (Schema.column_index_exn schema) cols in
      List.iter (check_pk_key ~examined f) (groups_of cols))
    (Schema.temporal_pk schema);
  List.iter
    (fun fk ->
      List.iter
        (check_fk_key ~examined f ~fk ~referenced:(referenced cat fk))
        (groups_of (fk_positions t fk)))
    (Schema.temporal_fks schema)

(* ------------------------------------------------------------------ *)
(* Whole-table and whole-database checks                               *)
(* ------------------------------------------------------------------ *)

let check_table cat (t : Table.t) =
  let schema = Table.schema t in
  if schema.Schema.temporal && schema.Schema.constraints <> [] then begin
    count cat "constraint.table_checks" 1;
    check_keys cat ~examined:(ref 0) t (fun cols -> Table.groups t ~cols)
  end

let all_tables db = Database.base_tables db @ Database.temp_tables db

let constrained db =
  List.filter
    (fun t -> (Table.schema t).Schema.constraints <> [])
    (all_tables db)

type snapshot = (string * int) list

let snapshot cat : snapshot =
  let db = cat.Catalog.db in
  if constrained db = [] then []
  else
    List.map (fun t -> (lc (Table.name t), t.Table.version)) (all_tables db)

let check_changed cat (snap : snapshot) =
  let db = cat.Catalog.db in
  match constrained db with
  | [] -> ()
  | cs ->
      let changed (t : Table.t) =
        List.assoc_opt (lc (Table.name t)) snap <> Some t.Table.version
      in
      List.iter
        (fun t ->
          let refs =
            List.map (fun (_, rt, _) -> lc rt)
              (Schema.temporal_fks (Table.schema t))
          in
          let ref_changed =
            List.exists
              (fun rn ->
                match Database.find_table db rn with
                | Some rt -> changed rt
                | None -> true)
              refs
          in
          if changed t || ref_changed then check_table cat t)
        cs

(* ------------------------------------------------------------------ *)
(* Incremental checking for the merge engine                           *)
(* ------------------------------------------------------------------ *)

(* The distinct [cols] keys of [rows], in first-seen order. *)
let distinct_keys cols rows =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun row ->
      let key = key_values cols row in
      let id = Table.key_id key in
      if Hashtbl.mem seen id then None
      else begin
        Hashtbl.add seen id ();
        Some key
      end)
    rows

(* [keys] with their rows in [t] over [cols]. *)
let looked_up (t : Table.t) cols keys =
  List.map (fun key -> (key, Table.lookup t ~cols key)) keys

let check_written cat (t : Table.t) ~written ~removed =
  let db = cat.Catalog.db in
  let schema = Table.schema t in
  if schema.Schema.temporal then begin
    let examined = ref 0 in
    if written <> [] then begin
      count cat "constraint.incremental_rows" (List.length written);
      check_keys cat ~examined t (fun cols ->
          looked_up t cols (distinct_keys cols written))
    end;
    (* Removal may open a gap under a row of a table referencing this
       one: re-check the referencing rows of exactly the vacated keys. *)
    if removed <> [] then begin
      let tname = lc (Table.name t) in
      List.iter
        (fun (r : Table.t) ->
          List.iter
            (fun ((_, rt_name, ref_cols) as fk) ->
              if lc rt_name = tname then
                let vacated =
                  distinct_keys
                    (List.map (Schema.column_index_exn schema) ref_cols)
                    removed
                in
                List.iter
                  (check_fk_key ~examined (frame r) ~fk
                     ~referenced:(referenced cat fk))
                  (looked_up r (fk_positions r fk) vacated))
            (Schema.temporal_fks (Table.schema r)))
        (all_tables db)
    end;
    count cat "merge.rows_examined" !examined
  end
