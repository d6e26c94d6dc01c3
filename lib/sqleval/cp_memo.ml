(* Memoized constant periods with incremental maintenance.

   The MAX transformation's per-statement prep recomputes the event
   point set (taupsm_ts) and the constant periods (taupsm_cp) from
   scratch on every execution.  This module keeps, per base temporal
   table, the multiset of its begin/end event points, tagged with the
   {!Sqldb.Table.version} it was scanned at — so a merge-then-query
   workload pays one scan per table and then only boundary deltas.

   Validity is layered exactly like the stratum's plan cache:

   - a GLOBAL token (catalog generation, database version) guards
     against DDL: any CREATE/DROP — including period-column or
     temporal-constraint changes, which can only happen through
     re-creation since there is no ALTER — bumps the database version
     and empties the memo wholesale;
   - a PER-TABLE version stamp guards against DML: a table mutated
     outside the {!note_write} protocol (plain DML, an undo rollback —
     {!Sqldb.Table.version} bumps on every mutation and is never
     rewound) fails the stamp check and is rescanned.

   {!note_write} is the incremental path: the versioned-write executor
   ({!Versions.apply}, behind TEMPORAL MERGE and sequenced DML) knows
   exactly which valid-time boundary points its write set adds and
   removes, so it splices them into the multiset and advances the
   stamp, keeping the memo warm across write/read alternation.

   Only non-transactional base tables are memoized (the caller gates
   eligibility): tt-closed rows stay physically present in a
   transactional table, so a raw point scan would disagree with the
   tt-filtered taupsm_ts; and a temporary table re-created with an
   identical schema does not bump the database version while its fresh
   {!Sqldb.Table.version} counter could collide with the stale stamp. *)

module Database = Sqldb.Database
module Table = Sqldb.Table
module Schema = Sqldb.Schema
module Value = Sqldb.Value

type entry = {
  mutable tversion : int;  (* Table.version at last scan/splice *)
  points : (int, int) Hashtbl.t;  (* event point -> multiplicity *)
}

type t = {
  mutable token : (int * int) option;  (* (generation, db version) *)
  tables : (string, entry) Hashtbl.t;  (* lowercased base-table name *)
  mutable revision : int;
      (* bumped on every point-set change; keys the result cache so any
         table rescan or splice invalidates derived period lists *)
  results : (string * int * int * int, (int * int) list) Hashtbl.t;
      (* (sorted table names, bt, et, revision) -> period pairs *)
  mutable hits : int;
  mutable rescans : int;
  mutable splices : int;
  m : Mutex.t;
}

let create () =
  {
    token = None;
    tables = Hashtbl.create 8;
    revision = 0;
    results = Hashtbl.create 16;
    hits = 0;
    rescans = 0;
    splices = 0;
    m = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let invalidate t =
  locked t (fun () ->
      t.token <- None;
      Hashtbl.reset t.tables;
      Hashtbl.reset t.results;
      t.revision <- t.revision + 1)

(* Full rescan of one table's begin/end point multiset. *)
let scan_table tbl (e : entry) =
  let schema = Table.schema tbl in
  let bi = Schema.begin_index schema and ei = Schema.end_index schema in
  Hashtbl.reset e.points;
  let add d =
    Hashtbl.replace e.points d
      (1 + Option.value ~default:0 (Hashtbl.find_opt e.points d))
  in
  Table.iter
    (fun row ->
      (match row.(bi) with Value.Date d -> add d | _ -> ());
      match row.(ei) with Value.Date d -> add d | _ -> ())
    tbl;
  e.tversion <- tbl.Table.version

type result = { pairs : (int * int) list; cache_hit : bool; rescanned : int }

(* The constant periods of [tables] clipped to [bt, et): adjacent pairs
   of the sorted distinct event points strictly inside the context plus
   its two bounds — row-identical to the classic
   taupsm_ts/taupsm_constant_periods pipeline over the same tables. *)
let periods t ~generation ~db ~tables ~bt ~et : result =
  locked t (fun () ->
      let tok = (generation, Database.version db) in
      if t.token <> Some tok then begin
        Hashtbl.reset t.tables;
        Hashtbl.reset t.results;
        t.revision <- t.revision + 1;
        t.token <- Some tok
      end;
      let names =
        List.sort_uniq compare (List.map String.lowercase_ascii tables)
      in
      let rescanned = ref 0 in
      List.iter
        (fun name ->
          let tbl = Database.find_table_exn db name in
          match Hashtbl.find_opt t.tables name with
          | Some e when e.tversion = tbl.Table.version -> ()
          | existing ->
              let e =
                match existing with
                | Some e -> e
                | None ->
                    let e = { tversion = -1; points = Hashtbl.create 64 } in
                    Hashtbl.replace t.tables name e;
                    e
              in
              scan_table tbl e;
              incr rescanned;
              t.rescans <- t.rescans + 1;
              t.revision <- t.revision + 1)
        names;
      let key = (String.concat "," names, bt, et, t.revision) in
      match Hashtbl.find_opt t.results key with
      | Some pairs ->
          t.hits <- t.hits + 1;
          { pairs; cache_hit = true; rescanned = !rescanned }
      | None ->
          let points =
            List.fold_left
              (fun l name ->
                match Hashtbl.find_opt t.tables name with
                | Some e -> Hashtbl.fold (fun d _ l -> d :: l) e.points l
                | None -> l)
              [] names
          in
          let pairs = Sqldb.Period.constant_periods ~bt ~et points in
          Hashtbl.replace t.results key pairs;
          { pairs; cache_hit = false; rescanned = !rescanned })

(* Incremental maintenance: the writer tells us which boundary points
   its statement added/removed on [table], and which version
   transition the write performed.  The splice applies only when the
   memo's stamp matches the pre-write version — anything else (a table
   never scanned, or mutated since) just drops the entry and lets the
   next {!periods} rescan. *)
let note_write t ~table ~from_version ~to_version ~added ~removed =
  locked t (fun () ->
      let name = String.lowercase_ascii table in
      match Hashtbl.find_opt t.tables name with
      | None -> ()
      | Some e when e.tversion <> from_version ->
          Hashtbl.remove t.tables name;
          t.revision <- t.revision + 1
      | Some e ->
          let ok = ref true in
          List.iter
            (fun d ->
              Hashtbl.replace e.points d
                (1 + Option.value ~default:0 (Hashtbl.find_opt e.points d)))
            added;
          List.iter
            (fun d ->
              match Hashtbl.find_opt e.points d with
              | Some 1 -> Hashtbl.remove e.points d
              | Some n when n > 1 -> Hashtbl.replace e.points d (n - 1)
              | _ ->
                  (* removing a point we never counted: the delta and
                     the scan disagree — drop the entry, never guess *)
                  ok := false)
            removed;
          if !ok then begin
            e.tversion <- to_version;
            t.splices <- t.splices + 1
          end
          else Hashtbl.remove t.tables name;
          t.revision <- t.revision + 1)

let stats t = locked t (fun () -> (t.hits, t.rescans, t.splices))

(* Test hook: the memoized point multiset of one table, sorted. *)
let table_points t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.tables (String.lowercase_ascii name) with
      | None -> None
      | Some e ->
          Some
            (Hashtbl.fold (fun d n l -> (d, n) :: l) e.points []
            |> List.sort compare))
