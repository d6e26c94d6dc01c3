(* The set-based sequenced write engine behind TEMPORAL MERGE.

   Architecture (after sql_saga's temporal_merge): a read-only planning
   phase computes, per entity key, the atomic time segments induced by
   the union of target-row and source-row period boundaries, derives
   each segment's final payload from the merge mode, coalesces adjacent
   segments with identical payloads, and diffs the result against the
   existing rows.  The execution phase then hands the plan to the shared
   versioned-write executor ({!Sqleval.Versions.apply}), which writes
   through the ordinary table mutators, INSERTs first — so undo
   journaling, WAL events and crash recovery all come for free.

   Mode semantics per atomic segment (t = target payload, s = source):
   - REPLACE  final = s            (absent source columns become NULL)
   - UPSERT   final = t <- s       (every present source column wins,
                                    explicit NULL overwrites)
   - PATCH    final = t <- strip_nulls s  (explicit NULL is "no change")
   Segments covered only by the target always survive unchanged; merge
   never deletes periods the source does not mention.

   Ephemeral columns are written through when a row changes for other
   reasons but are excluded from change detection and from coalescing
   equality; a planned row differing from the stored row only in
   ephemeral columns produces no write at all. *)

open Sqldb
module Ast = Sqlast.Ast
module Catalog = Sqleval.Catalog
module Eval = Sqleval.Eval
module RS = Sqleval.Result_set

let lc = String.lowercase_ascii

(* [merge.rows_examined]: stored rows read by planning and by the
   incremental constraint checks — the write set's keys, never the
   whole table. *)
let count_examined cat n =
  let tr = Catalog.trace cat in
  if Trace.enabled tr then Trace.count tr "merge.rows_examined" n

let sql_error fmt = Printf.ksprintf (fun m -> raise (Eval.Sql_error m)) fmt

(* ------------------------------------------------------------------ *)
(* Plans                                                               *)
(* ------------------------------------------------------------------ *)

type plan = {
  pl_target : string;
  pl_mode : Ast.merge_mode;
  pl_keys : string list;  (* resolved key columns, lowercase *)
  pl_segments : int;  (* atomic segments examined *)
  pl_coalesced : int;  (* segments eliminated by coalescing *)
  pl_inserts : Value.t array list;
  pl_updates : ((int * Value.t array) * Value.t array) list;
      (* ((position, stored row), replacement) — identical periods *)
  pl_deletes : (int * Value.t array) list;  (* (position, stored row) *)
}

let plan_writes pl =
  List.length pl.pl_inserts + List.length pl.pl_updates
  + List.length pl.pl_deletes

(* A source row, reduced to the target's frame of reference. *)
type srow = {
  s_begin : Date.t;
  s_end : Date.t;
  s_payload : Value.t option array;
      (* indexed by target column; None = column absent from the source *)
}

let mode_string = function
  | Ast.Mupsert -> "UPSERT"
  | Ast.Mpatch -> "PATCH"
  | Ast.Mreplace -> "REPLACE"

(* ------------------------------------------------------------------ *)
(* Planning                                                            *)
(* ------------------------------------------------------------------ *)

let plan (cat : Catalog.t) ~now ?(tt_mode = `Current) (m : Ast.merge_stmt) :
    plan =
  let t = Database.find_table_exn cat.Catalog.db m.Ast.m_target in
  let schema = Table.schema t in
  if not schema.Schema.temporal then
    sql_error "TEMPORAL MERGE requires a VALIDTIME table (%s)" (Table.name t);
  let bi = Schema.begin_index schema and ei = Schema.end_index schema in
  let arity = Schema.arity schema in
  let data_idx =
    List.mapi (fun i c -> (i, c)) schema.Schema.columns
    |> List.filter_map (fun (i, c) ->
           if Schema.is_timestamp_col schema c.Schema.col_name then None
           else Some i)
  in
  (* Resolve keys: explicit KEY clause, else the declared temporal PK. *)
  let keys =
    match m.Ast.m_keys with
    | [] -> (
        match Schema.temporal_pk schema with
        | Some cols -> cols
        | None ->
            sql_error
              "TEMPORAL MERGE on %s: no KEY clause and no TEMPORAL PRIMARY \
               KEY declared"
              (Table.name t))
    | ks -> ks
  in
  let resolve what c =
    match Schema.column_index schema c with
    | Some i when not (Schema.is_timestamp_col schema c) -> i
    | Some _ -> sql_error "TEMPORAL MERGE: %s column %s is a timestamp" what c
    | None ->
        sql_error "TEMPORAL MERGE: %s column %s not in table %s" what c
          (Table.name t)
  in
  let keys = List.map lc keys in
  let key_idx = List.map (resolve "key") keys in
  let eph_idx = List.map (resolve "ephemeral") m.Ast.m_ephemeral in
  List.iter
    (fun i ->
      if List.mem i key_idx then
        sql_error "TEMPORAL MERGE: an ephemeral column cannot be a key")
    eph_idx;
  let is_eph i = List.mem i eph_idx in
  (* Evaluate the source query (read-only). *)
  let env = Eval.create_env ~now ~tt_mode cat in
  let rs = Eval.eval_query env m.Ast.m_source in
  let src_cols = List.map lc rs.RS.cols in
  let pos_of name =
    let rec go i = function
      | [] -> None
      | c :: rest -> if c = name then Some i else go (i + 1) rest
    in
    go 0 src_cols
  in
  let sb_pos =
    match pos_of Schema.begin_time_col with
    | Some p -> p
    | None -> sql_error "TEMPORAL MERGE source must produce a %s column"
                Schema.begin_time_col
  in
  let se_pos =
    match pos_of Schema.end_time_col with
    | Some p -> p
    | None -> sql_error "TEMPORAL MERGE source must produce a %s column"
                Schema.end_time_col
  in
  (* Map each remaining source column onto a target data column; absent
     target columns stay unmapped (that is the NULL-vs-absent axis). *)
  let seen = Hashtbl.create 8 in
  let src_map =
    List.mapi
      (fun p c ->
        if p = sb_pos || p = se_pos then None
        else begin
          if Hashtbl.mem seen c then
            sql_error "TEMPORAL MERGE source has duplicate column %s" c;
          Hashtbl.add seen c ();
          Some (p, resolve "source" c)
        end)
      src_cols
    |> List.filter_map Fun.id
  in
  List.iter
    (fun k ->
      if not (Hashtbl.mem seen k) then
        sql_error "TEMPORAL MERGE source must produce key column %s" k)
    keys;
  let col_ty i = (List.nth schema.Schema.columns i).Schema.col_ty in
  (* Extract and group source rows by key, preserving first-seen order. *)
  let key_of_row resolve_cell =
    List.map
      (fun i ->
        match resolve_cell i with
        | Value.Null ->
            sql_error "TEMPORAL MERGE: NULL key column in source row"
        | v -> v)
      key_idx
  in
  let groups : (string, srow list ref * Value.t list) Hashtbl.t =
    Hashtbl.create 64
  in
  let order = ref [] in
  List.iter
    (fun (row : Value.t array) ->
      let date_at what p =
        match row.(p) with
        | Value.Date d -> d
        | v ->
            sql_error "TEMPORAL MERGE: source %s is %s, expected a DATE" what
              (Value.to_string v)
      in
      let s_begin = date_at Schema.begin_time_col sb_pos in
      let s_end = date_at Schema.end_time_col se_pos in
      if s_begin >= s_end then
        sql_error "TEMPORAL MERGE: empty source period [%s, %s)"
          (Date.to_string s_begin) (Date.to_string s_end);
      let payload = Array.make arity None in
      List.iter
        (fun (p, i) -> payload.(i) <- Some (Value.cast ~ty:(col_ty i) row.(p)))
        src_map;
      let key = key_of_row (fun i -> match payload.(i) with
        | Some v -> v
        | None -> Value.Null)
      in
      let id = Table.key_id key in
      let cell =
        match Hashtbl.find_opt groups id with
        | Some (rows, _) -> rows
        | None ->
            let rows = ref [] in
            Hashtbl.add groups id (rows, key);
            order := id :: !order;
            rows
      in
      cell := { s_begin; s_end; s_payload = payload } :: !cell)
    rs.RS.rows;
  let order = List.rev !order in
  (* The existing tt-current rows of each source key come from the
     target's key index, with their positions, in storage order. *)
  let examined = ref 0 in
  let current = Sqleval.Versions.tt_current schema in
  let existing_rows key =
    let rows = Table.lookup t ~cols:key_idx key in
    examined := !examined + List.length rows;
    List.filter (fun (_, row) -> current row) rows
  in
  (* Per key: atomic segments -> mode payloads -> coalesce -> diff. *)
  let segments = ref 0 and coalesced = ref 0 in
  let inserts = ref [] and updates = ref [] and deletes = ref [] in
  let equal_modulo_ephemeral (a : Value.t array) (b : Value.t array) =
    List.for_all
      (fun i -> is_eph i || Value.equal a.(i) b.(i))
      data_idx
  in
  List.iter
    (fun id ->
      let srows_ref, key = Hashtbl.find groups id in
      let srows =
        List.sort (fun a b -> compare a.s_begin b.s_begin) !srows_ref
      in
      (* Overlapping source periods for one key are ambiguous. *)
      let rec overlap_check = function
        | a :: (b :: _ as rest) ->
            if b.s_begin < a.s_end then
              sql_error
                "TEMPORAL MERGE: source rows overlap for key (%s) at %s"
                (String.concat ", " (List.map Value.to_string key))
                (Date.to_string b.s_begin);
            overlap_check rest
        | _ -> ()
      in
      overlap_check srows;
      let existing = existing_rows key in
      (* Atomic segment boundaries. *)
      let bounds =
        List.concat_map (fun s -> [ s.s_begin; s.s_end ]) srows
        @ List.concat_map
            (fun (_, (r : Value.t array)) ->
              match (r.(bi), r.(ei)) with
              | Value.Date b, Value.Date e -> [ b; e ]
              | _ -> [])
            existing
        |> List.sort_uniq compare
      in
      let covering_target b =
        (* With a temporal PK there is at most one; otherwise the last
           stored covering row wins (documented). *)
        List.fold_left
          (fun acc (_, (r : Value.t array)) ->
            match (r.(bi), r.(ei)) with
            | Value.Date rb, Value.Date re when rb <= b && b < re -> Some r
            | _ -> acc)
          None existing
      in
      let covering_source b =
        List.find_opt (fun s -> s.s_begin <= b && b < s.s_end) srows
      in
      let rec segs acc = function
        | b :: (e :: _ as rest) ->
            let tgt = covering_target b and src = covering_source b in
            let acc =
              if tgt = None && src = None then acc
              else begin
                incr segments;
                let final = Array.make arity Value.Null in
                (match tgt with
                | Some r -> Array.blit r 0 final 0 arity
                | None -> List.iter2 (fun i v -> final.(i) <- v) key_idx key);
                (match src with
                | None -> ()
                | Some s -> (
                    match m.Ast.m_mode with
                    | Ast.Mreplace ->
                        List.iter
                          (fun i ->
                            final.(i) <-
                              (match s.s_payload.(i) with
                              | Some v -> v
                              | None -> Value.Null))
                          data_idx
                    | Ast.Mupsert ->
                        List.iter
                          (fun i ->
                            match s.s_payload.(i) with
                            | Some v -> final.(i) <- v
                            | None -> ())
                          data_idx
                    | Ast.Mpatch ->
                        List.iter
                          (fun i ->
                            match s.s_payload.(i) with
                            | Some Value.Null | None -> ()
                            | Some v -> final.(i) <- v)
                          data_idx));
                final.(bi) <- Value.Date b;
                final.(ei) <- Value.Date e;
                final :: acc
              end
            in
            segs acc rest
        | _ -> List.rev acc
      in
      let planned = segs [] bounds in
      (* Coalesce adjacent segments with identical non-ephemeral
         payloads; the earlier segment's ephemeral values win. *)
      let planned =
        List.rev
          (List.fold_left
             (fun acc seg ->
               match acc with
               | prev :: rest
                 when Value.equal prev.(ei) seg.(bi)
                      && equal_modulo_ephemeral prev seg ->
                   incr coalesced;
                   let merged = Array.copy prev in
                   merged.(ei) <- seg.(ei);
                   merged :: rest
               | _ -> seg :: acc)
             [] planned)
      in
      (* Diff against the stored rows: equal rows (modulo ephemeral)
         produce no write; equal periods become UPDATEs; the rest are
         INSERTs and DELETEs. *)
      let same_period (a : Value.t array) (b : Value.t array) =
        Value.equal a.(bi) b.(bi) && Value.equal a.(ei) b.(ei)
      in
      let remaining = ref existing in
      let take pred =
        let rec go acc = function
          | [] -> None
          | x :: rest ->
              if pred x then begin
                remaining := List.rev_append acc rest;
                Some x
              end
              else go (x :: acc) rest
        in
        go [] !remaining
      in
      List.iter
        (fun seg ->
          match
            take (fun (_, x) ->
                same_period x seg && equal_modulo_ephemeral x seg)
          with
          | Some _ -> ()  (* unchanged (possibly modulo ephemeral): no write *)
          | None -> (
              match take (fun (_, x) -> same_period x seg) with
              | Some x -> updates := (x, seg) :: !updates
              | None -> inserts := seg :: !inserts))
        planned;
      deletes := List.rev_append !remaining !deletes)
    order;
  count_examined cat !examined;
  {
    pl_target = Table.name t;
    pl_mode = m.Ast.m_mode;
    pl_keys = keys;
    pl_segments = !segments;
    pl_coalesced = !coalesced;
    pl_inserts = List.rev !inserts;
    pl_updates = List.rev !updates;
    pl_deletes = List.rev !deletes;
  }

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let execute (cat : Catalog.t) ~now (pl : plan) : int =
  Sqleval.Versions.apply cat ~now
    (Database.find_table_exn cat.Catalog.db pl.pl_target)
    ~inserts:pl.pl_inserts ~updates:pl.pl_updates ~deletes:pl.pl_deletes;
  plan_writes pl

(* ------------------------------------------------------------------ *)
(* End to end                                                          *)
(* ------------------------------------------------------------------ *)

let exec (cat : Catalog.t) ~now ?tt_mode (m : Ast.merge_stmt) :
    Eval.exec_result =
  let pl = plan cat ~now ?tt_mode m in
  let n = execute cat ~now pl in
  let tr = Catalog.trace cat in
  if Trace.enabled tr then begin
    Trace.count tr "merge.segments" pl.pl_segments;
    Trace.count tr "merge.coalesced" pl.pl_coalesced;
    Trace.count tr "merge.writes" n;
    Trace.event tr "merge"
      (Printf.sprintf
         "%s mode=%s segments=%d coalesced=%d +%d ~%d -%d" pl.pl_target
         (mode_string pl.pl_mode) pl.pl_segments pl.pl_coalesced
         (List.length pl.pl_inserts)
         (List.length pl.pl_updates)
         (List.length pl.pl_deletes))
  end;
  if cat.Catalog.options.Catalog.check_constraints then begin
    let t = Database.find_table_exn cat.Catalog.db pl.pl_target in
    (* Written rows must satisfy the PK and outgoing FKs; a deleted row
       vacates its window, and so does an updated one under a KEY
       clause that lets the merge rewrite a referenced column — either
       may break incoming FKs. *)
    Temporal_constraints.check_written cat t
      ~written:(pl.pl_inserts @ List.map snd pl.pl_updates)
      ~removed:
        (List.map snd pl.pl_deletes
        @ List.map (fun ((_, old_row), _) -> old_row) pl.pl_updates)
  end;
  Eval.Affected n
