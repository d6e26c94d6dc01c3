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

   Both checks probe the PR1 interval index (Table.overlapping), so a
   single row costs O(log n + k) rather than a full scan.  The stratum
   runs {!check_changed} at statement commit for arbitrary DML; the
   merge engine runs the finer-grained {!check_written} over exactly
   the rows it wrote and the windows it vacated. *)

open Sqldb
module Catalog = Sqleval.Catalog

let lc = String.lowercase_ascii

let violation ~period fmt =
  Taupsm_error.raise_error ?period Taupsm_error.Constraint_violation fmt

(* Malformed timestamp cells count as current, so such rows are never
   silently exempt from checking. *)
let tt_current = Sqleval.Versions.tt_current

let row_dates (row : Value.t array) ~bi ~ei =
  match (row.(bi), row.(ei)) with
  | Value.Date b, Value.Date e when b < e -> Some (b, e)
  | _ -> None

let key_values idxs (row : Value.t array) = List.map (fun i -> row.(i)) idxs
let has_null vs = List.exists (fun v -> v = Value.Null) vs
let keys_equal a b = List.for_all2 Value.equal a b
let key_string vs = String.concat ", " (List.map Value.to_string vs)

let count cat name n =
  let tr = Catalog.trace cat in
  if Trace.enabled tr then Trace.count tr name n

(* ------------------------------------------------------------------ *)
(* TEMPORAL PRIMARY KEY: no-overlap per key                            *)
(* ------------------------------------------------------------------ *)

(* Does [row] overlap another tt-current row of [t] with the same key?
   Probes the interval index; rows with a NULL key column are exempt
   (as in SQL, NULL never equals NULL for identification purposes). *)
let check_pk_row (t : Table.t) ~key_idx (row : Value.t array) =
  let schema = Table.schema t in
  let bi = Schema.begin_index schema and ei = Schema.end_index schema in
  match row_dates row ~bi ~ei with
  | None -> ()
  | Some (b, e) ->
      let key = key_values key_idx row in
      if not (has_null key) then
        List.iter
          (fun (c : Value.t array) ->
            if c != row && tt_current schema c then
              match row_dates c ~bi ~ei with
              | Some (cb, ce)
                when cb < e && ce > b && keys_equal key (key_values key_idx c)
                ->
                  violation
                    ~period:(Some (max b cb, min e ce))
                    "temporal primary key violation on %s: key (%s) has \
                     overlapping periods"
                    (Table.name t) (key_string key)
              | _ -> ())
          (Table.overlapping t ~bi ~ei ~begin_:b ~end_:e)

(* ------------------------------------------------------------------ *)
(* TEMPORAL FOREIGN KEY: coverage without gaps                         *)
(* ------------------------------------------------------------------ *)

(* Is [b, e) covered without gaps by the tt-current rows of [rt] whose
   [ref_idx] columns equal [key]?  Classic sweep over the overlapping
   candidates sorted by begin (cf. sql_saga's covers_without_gaps.c). *)
let covers_without_gaps (rt : Table.t) ~ref_idx ~key b e =
  let rsch = Table.schema rt in
  let bi = Schema.begin_index rsch and ei = Schema.end_index rsch in
  let segs =
    List.filter_map
      (fun (c : Value.t array) ->
        match row_dates c ~bi ~ei with
        | Some (cb, ce)
          when cb < e && ce > b && tt_current rsch c
               && keys_equal key (key_values ref_idx c) ->
            Some (cb, ce)
        | _ -> None)
      (Table.overlapping rt ~bi ~ei ~begin_:b ~end_:e)
  in
  let segs = List.sort (fun (a, _) (b, _) -> compare a b) segs in
  let rec sweep cover = function
    | _ when cover >= e -> true
    | [] -> false
    | (sb, se) :: rest -> if sb > cover then false else sweep (max cover se) rest
  in
  sweep b segs

let check_fk_row cat (t : Table.t) ~fk (row : Value.t array) =
  let fk_cols, ref_table, ref_cols = fk in
  let schema = Table.schema t in
  let bi = Schema.begin_index schema and ei = Schema.end_index schema in
  match row_dates row ~bi ~ei with
  | None -> ()
  | Some (b, e) -> (
      let fk_idx = List.map (Schema.column_index_exn schema) fk_cols in
      let key = key_values fk_idx row in
      if not (has_null key) then
        match Database.find_table cat.Catalog.db ref_table with
        | None ->
            violation ~period:(Some (b, e))
              "temporal foreign key violation on %s: referenced table %s \
               does not exist"
              (Table.name t) ref_table
        | Some rt ->
            let ref_idx =
              List.map (Schema.column_index_exn (Table.schema rt)) ref_cols
            in
            if not (covers_without_gaps rt ~ref_idx ~key b e) then
              violation ~period:(Some (b, e))
                "temporal foreign key violation on %s: key (%s) not covered \
                 by %s without gaps"
                (Table.name t) (key_string key) ref_table)

(* ------------------------------------------------------------------ *)
(* Key-grouped bulk sweeps                                             *)
(* ------------------------------------------------------------------ *)

(* The per-row interval-index probes above are ideal for small write
   sets, but degrade to O(n^2) when many entities share the same
   periods (every probe returns most of the table as candidates).  Bulk
   checks instead group the tt-current periods by key once — O(n) — and
   sweep each group sorted, which is O(n log n) regardless of overlap
   structure. *)

let group_key key = String.concat "\x00" (List.map Value.to_literal key)

(* key-string -> (key, periods) for the tt-current rows of [t] *)
let key_groups (t : Table.t) ~idx =
  let schema = Table.schema t in
  let bi = Schema.begin_index schema and ei = Schema.end_index schema in
  let h : (string, Value.t list * (Date.t * Date.t) list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  Table.iter
    (fun row ->
      if tt_current schema row then
        match row_dates row ~bi ~ei with
        | None -> ()
        | Some be ->
            let key = key_values idx row in
            if not (has_null key) then begin
              let ks = group_key key in
              let cell =
                match Hashtbl.find_opt h ks with
                | Some (_, c) -> c
                | None ->
                    let c = ref [] in
                    Hashtbl.add h ks (key, c);
                    c
              in
              cell := be :: !cell
            end)
    t;
  h

let sorted_periods cell =
  List.sort (fun (a, _) (b, _) -> compare a b) !cell

(* no-overlap per key: sorted adjacent pairs must not intersect *)
let pk_sweep (t : Table.t) groups =
  Hashtbl.iter
    (fun _ (key, cell) ->
      let rec go = function
        | (_b1, e1) :: ((b2, _) :: _ as rest) ->
            if b2 < e1 then
              violation
                ~period:(Some (b2, min e1 (snd (List.hd rest))))
                "temporal primary key violation on %s: key (%s) has \
                 overlapping periods"
                (Table.name t) (key_string key)
            else go rest
        | _ -> ()
      in
      go (sorted_periods cell))
    groups

(* covers_without_gaps against a pre-grouped referenced table *)
let covered_by_groups ref_groups ~key b e =
  match Hashtbl.find_opt ref_groups (group_key key) with
  | None -> false
  | Some (_, cell) ->
      let rec sweep cover = function
        | _ when cover >= e -> true
        | [] -> false
        | (sb, se) :: rest ->
            if sb > cover then false else sweep (max cover se) rest
      in
      sweep b (sorted_periods cell)

let ref_groups_of cat ~fk =
  let _, ref_table, ref_cols = fk in
  match Database.find_table cat.Catalog.db ref_table with
  | None -> None
  | Some rt ->
      let ref_idx =
        List.map (Schema.column_index_exn (Table.schema rt)) ref_cols
      in
      Some (key_groups rt ~idx:ref_idx)

(* bulk variant of {!check_fk_row}: same violations, grouped probe *)
let check_fk_row_bulk (t : Table.t) ~fk ~ref_groups (row : Value.t array) =
  let fk_cols, ref_table, _ = fk in
  let schema = Table.schema t in
  let bi = Schema.begin_index schema and ei = Schema.end_index schema in
  match row_dates row ~bi ~ei with
  | None -> ()
  | Some (b, e) -> (
      let fk_idx = List.map (Schema.column_index_exn schema) fk_cols in
      let key = key_values fk_idx row in
      if not (has_null key) then
        match ref_groups with
        | None ->
            violation ~period:(Some (b, e))
              "temporal foreign key violation on %s: referenced table %s \
               does not exist"
              (Table.name t) ref_table
        | Some groups ->
            if not (covered_by_groups groups ~key b e) then
              violation ~period:(Some (b, e))
                "temporal foreign key violation on %s: key (%s) not covered \
                 by %s without gaps"
                (Table.name t) (key_string key) ref_table)

(* ------------------------------------------------------------------ *)
(* Whole-table and whole-database checks                               *)
(* ------------------------------------------------------------------ *)

let check_table cat (t : Table.t) =
  let schema = Table.schema t in
  if schema.Schema.temporal && schema.Schema.constraints <> [] then begin
    count cat "constraint.table_checks" 1;
    (match Schema.temporal_pk schema with
    | None -> ()
    | Some cols ->
        let key_idx = List.map (Schema.column_index_exn schema) cols in
        pk_sweep t (key_groups t ~idx:key_idx));
    List.iter
      (fun fk ->
        let ref_groups = ref_groups_of cat ~fk in
        Table.iter
          (fun row ->
            if tt_current schema row then
              check_fk_row_bulk t ~fk ~ref_groups row)
          t)
      (Schema.temporal_fks schema)
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

(* Above this many touched rows the per-row interval-index probes are
   abandoned for the grouped sweeps: a probe's candidate list grows with
   the number of co-overlapping entities, so large merges over entities
   with aligned periods would otherwise go quadratic. *)
let bulk_threshold = 16

let check_written cat (t : Table.t) ~written ~removed =
  let db = cat.Catalog.db in
  let schema = Table.schema t in
  if schema.Schema.temporal then begin
    if written <> [] then begin
      count cat "constraint.incremental_rows" (List.length written);
      let bulk = List.length written > bulk_threshold in
      (match Schema.temporal_pk schema with
      | None -> ()
      | Some cols ->
          let key_idx = List.map (Schema.column_index_exn schema) cols in
          if bulk then pk_sweep t (key_groups t ~idx:key_idx)
          else List.iter (check_pk_row t ~key_idx) written);
      List.iter
        (fun fk ->
          if bulk then begin
            let ref_groups = ref_groups_of cat ~fk in
            List.iter (check_fk_row_bulk t ~fk ~ref_groups) written
          end
          else List.iter (check_fk_row cat t ~fk) written)
        (Schema.temporal_fks schema)
    end;
    (* Removal may open a gap under a row of a table referencing this
       one: re-check exactly the referencing rows overlapping a vacated
       window. *)
    if removed <> [] then begin
      let tname = lc (Table.name t) in
      let bi = Schema.begin_index schema and ei = Schema.end_index schema in
      let bulk = List.length removed > bulk_threshold in
      List.iter
        (fun (r : Table.t) ->
          let rsch = Table.schema r in
          List.iter
            (fun ((_, rt_name, _) as fk) ->
              if lc rt_name = tname then
                if bulk then begin
                  (* many vacated windows: one grouped pass over the
                     whole referencing table beats per-window probes *)
                  let ref_groups = ref_groups_of cat ~fk in
                  Table.iter
                    (fun c ->
                      if tt_current rsch c then
                        check_fk_row_bulk r ~fk ~ref_groups c)
                    r
                end
                else begin
                  let rbi = Schema.begin_index rsch
                  and rei = Schema.end_index rsch in
                  List.iter
                    (fun old_row ->
                      match row_dates old_row ~bi ~ei with
                      | None -> ()
                      | Some (b, e) ->
                          List.iter
                            (fun c ->
                              if tt_current rsch c then
                                check_fk_row cat r ~fk c)
                            (Table.overlapping r ~bi:rbi ~ei:rei ~begin_:b
                               ~end_:e))
                    removed
                end)
            (Schema.temporal_fks rsch))
        (all_tables db)
    end
  end
