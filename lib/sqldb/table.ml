(* In-memory table storage: a schema plus a growable vector of rows.
   A row is a [Value.t array] positionally matching the schema; a row's
   position is its index in that vector, which is how the write-ahead
   log names stored rows (see {!update_at} / {!delete_at}). *)

type row = Value.t array

(* [version] counts mutations (insert / delete / update / clear): any
   cached derived structure over the rows — notably the lazily-built
   interval indexes in [indexes] — is valid only for the version at
   which it was built.  [indexes] maps a (begin column, end column)
   index pair to its interval index and the version it reflects. *)
(* [obs] is the trace sink index maintenance reports into; tables start
   on the shared null sink and are pointed at an engine's sink when
   added to its database (see {!Database.set_observe}). *)
(* [undo] is the database-wide undo journal this table participates in
   (see {!Database.with_atomic}); tables start on the shared inert
   journal and are pointed at a database's journal when added to it.
   [undo_mark] / [undo_full] implement at-most-one journal entry per
   savepoint scope (see [log_undo]). *)
(* [wal] is the durability hook (see {!Wal_hook}): when set, every
   mutation also emits a logical event for the write-ahead log.  Like
   [obs] and [undo] it is propagated by the owning database; tables not
   yet registered anywhere stay silent (their rows travel inside the
   [Table_create] event when they are registered). *)
(* [share] is the copy-on-write state for MVCC snapshot publication
   (see {!freeze}):
   - [Live]: sole owner of the backing row array; mutate in place.
   - [Shared]: a published frozen snapshot still references the backing
     array; the first mutation copies the array ({!Vec.unshare}) and
     returns to [Live], so readers of the snapshot never observe a torn
     mid-statement state.
   - [Frozen]: an immutable published snapshot (or a read view of one);
     any mutation attempt is a bug in write/read classification and
     raises a typed internal error instead of corrupting every reader. *)
type share = Live | Shared | Frozen

(* [key_indexes]: for each requested column list, the key of every
   stored row (see {!key_id}) maps to that key's storage positions,
   ascending.  An index is built the first time something
   asks for it ({!lookup}, {!groups}) and from then on every mutator
   keeps it exact: [insert] appends the new position, the update paths
   move a position whose key changed, the delete paths drop the removed
   positions and renumber the rest, [clear] empties it.  Its
   invariants under the other machinery:
   - undo: a rollback restores the row vector wholesale and drops every
     key index, so the next lookup rebuilds from the restored rows;
   - copy-on-write: positions survive {!Vec.unshare}, so a [Shared]
     table keeps its index;
   - [freeze], [read_view] and [copy] start with an empty key-index
     table of their own: the live table mutates its indexes in place,
     so a snapshot must never share them. *)
type slots = { mutable pos : int array; mutable n : int }

type t = {
  schema : Schema.t;
  rows : row Vec.t;
  mutable version : int;
  indexes : (int * int, int * row Interval_index.t) Hashtbl.t;
  mutable obs : Trace.t;
  mutable undo : Undo_log.t;
  mutable undo_mark : int;
  mutable undo_full : bool;
  mutable wal : Wal_hook.t option;
  mutable share : share;
  key_indexes : (int list, (string, slots) Hashtbl.t) Hashtbl.t;
}

let create schema =
  {
    schema;
    rows = Vec.create ();
    version = 0;
    indexes = Hashtbl.create 2;
    obs = Trace.null;
    undo = Undo_log.null;
    undo_mark = 0;
    undo_full = false;
    wal = None;
    share = Live;
    key_indexes = Hashtbl.create 1;
  }

let set_observe t obs = t.obs <- obs
let set_undo t undo = t.undo <- undo
let set_wal t wal = t.wal <- wal

(* Journal an undo entry for the mutation about to happen — at most one
   per savepoint scope per table.  A destructive mutation snapshots the
   live row-pointer array (shallow: sound because every mutator copies a
   row before modifying it); an append-only mutation logs a cheaper
   truncate-to-previous-length entry, upgraded to a full snapshot if a
   destructive mutation follows in the same scope (rollback then runs the
   snapshot restore first, newest-first, and the truncate second, which
   yields the original prefix).  Undo *bumps* [version] instead of
   restoring it so a rolled-back mutation can never revalidate a stale
   interval index or cached plan, and drops the key indexes, which the
   next lookup rebuilds from the restored rows. *)
let log_undo t ~full =
  if Undo_log.is_active t.undo then begin
    let undone () =
      t.version <- t.version + 1;
      Hashtbl.reset t.key_indexes
    in
    let snapshot_entry () =
      let saved = Vec.snapshot t.rows in
      Undo_log.log t.undo (fun () ->
          Vec.restore t.rows saved;
          undone ())
    in
    let mark = Undo_log.serial t.undo in
    if t.undo_mark < mark then begin
      t.undo_mark <- mark;
      t.undo_full <- full;
      if full then snapshot_entry ()
      else begin
        let len = Vec.length t.rows in
        Undo_log.log t.undo (fun () ->
            Vec.truncate t.rows len;
            undone ())
      end
    end
    else if full && not t.undo_full then begin
      t.undo_full <- true;
      snapshot_entry ()
    end
  end

(* Every mutator passes through here: copy-on-write check, fault
   injection point, undo journaling, then the version bump that
   invalidates derived caches. *)
let touch ?(append = false) t =
  (match t.share with
  | Live -> ()
  | Shared ->
      Vec.unshare t.rows;
      t.share <- Live
  | Frozen ->
      Taupsm_error.raise_error Taupsm_error.Internal
        "mutation of frozen snapshot table %s" t.schema.Schema.name);
  Fault.hit Fault.Table_mutation;
  log_undo t ~full:(not append);
  t.version <- t.version + 1

let of_rows schema rows =
  let t = create schema in
  List.iter (fun r -> Vec.push t.rows r) rows;
  t

let schema t = t.schema
let name t = t.schema.Schema.name
let row_count t = Vec.length t.rows

let check_row t (r : row) =
  let expected = Schema.arity t.schema in
  if Array.length r <> expected then
    invalid_arg
      (Printf.sprintf "Table %s: row arity %d, expected %d" (name t)
         (Array.length r) expected)

(* ------------------------------------------------------------------ *)
(* Key indexes                                                         *)
(* ------------------------------------------------------------------ *)

(* The identity of a key: values are equal as keys exactly when their
   SQL literals are ([Int 1] and [Float 1.0] are different keys; NULL
   is a key like any other, and callers that exempt NULL keys skip it
   themselves). *)
let key_id = function
  | [ v ] -> Value.to_literal v
  | vs -> String.concat "\x00" (List.map Value.to_literal vs)

let row_key cols (r : row) = key_id (List.map (fun i -> r.(i)) cols)

(* First index below [n] of the ascending [a] holding a value >= [p]. *)
let lower_bound a n p =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < p then lo := mid + 1 else hi := mid
  done;
  !lo

let slots_grow s =
  if s.n = Array.length s.pos then begin
    let a = Array.make (max 4 (2 * s.n)) 0 in
    Array.blit s.pos 0 a 0 s.n;
    s.pos <- a
  end

(* Insert position [p] keeping [s] ascending. *)
let slots_insert s p =
  slots_grow s;
  let i = lower_bound s.pos s.n p in
  Array.blit s.pos i s.pos (i + 1) (s.n - i);
  s.pos.(i) <- p;
  s.n <- s.n + 1

let slots_remove s p =
  let i = lower_bound s.pos s.n p in
  if i < s.n && s.pos.(i) = p then begin
    Array.blit s.pos (i + 1) s.pos i (s.n - i - 1);
    s.n <- s.n - 1
  end

let index_add idx k p =
  match Hashtbl.find_opt idx k with
  | Some s -> slots_insert s p
  | None -> Hashtbl.add idx k { pos = [| p |]; n = 1 }

let index_remove idx k p =
  match Hashtbl.find_opt idx k with
  | Some s ->
      slots_remove s p;
      if s.n = 0 then Hashtbl.remove idx k
  | None -> ()

(* Renumber after a deletion: [moved.(p)] is the new position of old
   position [p], or -1 if that row was removed. *)
let index_renumber idx moved =
  Hashtbl.filter_map_inplace
    (fun _ s ->
      let j = ref 0 in
      for i = 0 to s.n - 1 do
        let p = moved.(s.pos.(i)) in
        if p >= 0 then begin
          s.pos.(!j) <- p;
          incr j
        end
      done;
      s.n <- !j;
      if s.n = 0 then None else Some s)
    idx

(* The key index over [cols], built on first use. *)
let key_index t cols =
  match Hashtbl.find_opt t.key_indexes cols with
  | Some idx -> idx
  | None ->
      let idx = Hashtbl.create (max 16 (Vec.length t.rows / 2)) in
      Vec.iteri (fun p r -> index_add idx (row_key cols r) p) t.rows;
      Hashtbl.replace t.key_indexes cols idx;
      if Trace.enabled t.obs then Trace.count t.obs "index.key_build" 1;
      idx

let slot_rows t s =
  List.init s.n (fun i ->
      let p = s.pos.(i) in
      (p, Vec.get t.rows p))

(* The stored rows whose [cols] equal [key] (see {!key_id}), with their
   positions, in storage order. *)
let lookup t ~cols key =
  match Hashtbl.find_opt (key_index t cols) (key_id key) with
  | None -> []
  | Some s -> slot_rows t s

(* Every distinct key over [cols] with its rows as {!lookup} returns
   them, keys in the storage order of their first rows. *)
let groups t ~cols =
  Hashtbl.fold (fun _ s acc -> s :: acc) (key_index t cols) []
  |> List.sort (fun a b -> Int.compare a.pos.(0) b.pos.(0))
  |> List.map (fun s ->
         let r = Vec.get t.rows s.pos.(0) in
         (List.map (fun i -> r.(i)) cols, slot_rows t s))

(* ------------------------------------------------------------------ *)
(* Mutators                                                            *)
(* ------------------------------------------------------------------ *)

let insert t r =
  check_row t r;
  touch ~append:true t;
  (match t.wal with
  | None -> ()
  | Some w -> w.Wal_hook.emit (Wal_hook.Row_insert (name t, Array.copy r)));
  let p = Vec.length t.rows in
  Vec.push t.rows r;
  if Hashtbl.length t.key_indexes > 0 then
    Hashtbl.iter
      (fun cols idx -> index_add idx (row_key cols r) p)
      t.key_indexes

let iter f t = Vec.iter f t.rows
let iteri f t = Vec.iteri f t.rows
let fold f init t = Vec.fold_left f init t.rows
let to_list t = Vec.to_list t.rows
let get t p = Vec.get t.rows p

let check_positions t what ps =
  let len = Vec.length t.rows in
  List.iter
    (fun p ->
      if p < 0 || p >= len then
        Taupsm_error.raise_error Taupsm_error.Internal
          "%s on %s: position %d out of range (%d rows)" what (name t) p len)
    ps

(* Replace the rows at the given positions (ascending, distinct) —
   the common tail of every update path, after [touch].  With a WAL
   hook attached the (position, new row) pairs are emitted; positions
   are stable because updates never reorder the vector. *)
let set_rows t pairs =
  if pairs <> [] then begin
    List.iter
      (fun (p, r') ->
        let r = Vec.get t.rows p in
        Vec.set t.rows p r';
        if Hashtbl.length t.key_indexes > 0 then
          Hashtbl.iter
            (fun cols idx ->
              let k = row_key cols r and k' = row_key cols r' in
              if k <> k' then begin
                index_remove idx k p;
                index_add idx k' p
              end)
            t.key_indexes)
      pairs;
    match t.wal with
    | None -> ()
    | Some w ->
        w.Wal_hook.emit
          (Wal_hook.Rows_update
             ( name t,
               Array.of_list
                 (List.map (fun (p, r') -> (p, Array.copy r')) pairs) ))
  end

(* Remove the rows at [gone] (ascending, distinct) — the common tail
   of every delete path, after [touch].  With a WAL hook attached the
   removed positions (pre-delete numbering) are emitted, so recovery
   replays the deletion positionally. *)
let remove_rows t gone =
  if gone <> [] then begin
    let gone = Array.of_list gone in
    let len = Vec.length t.rows in
    Vec.remove_sorted t.rows gone;
    if Hashtbl.length t.key_indexes > 0 then begin
      let moved = Array.make len (-1) and k = ref 0 in
      for p = 0 to len - 1 do
        if !k < Array.length gone && gone.(!k) = p then incr k
        else moved.(p) <- p - !k
      done;
      Hashtbl.iter (fun _ idx -> index_renumber idx moved) t.key_indexes
    end;
    match t.wal with
    | None -> ()
    | Some w -> w.Wal_hook.emit (Wal_hook.Rows_delete (name t, gone))
  end

(* The positions of the rows satisfying [p], ascending.  Read-only: a
   predicate that reads this table sees it whole. *)
let positions_where p t =
  let acc = ref [] in
  Vec.iteri (fun i r -> if p r then acc := i :: !acc) t.rows;
  List.rev !acc

(* Replace the row at each position by its paired row.  Each position
   at most once. *)
let update_at t pairs =
  check_positions t "update_at" (List.map fst pairs);
  touch t;
  set_rows t (List.sort (fun (a, _) (b, _) -> Int.compare a b) pairs)

(* Remove the rows at the given positions (pre-delete numbering). *)
let delete_at t positions =
  check_positions t "delete_at" positions;
  touch t;
  remove_rows t (List.sort_uniq Int.compare positions)

(* Delete rows satisfying [p]; returns the number deleted.  [p] sees
   the table before any row is removed. *)
let delete_where p t =
  touch t;
  let gone = positions_where p t in
  remove_rows t gone;
  List.length gone

(* Update rows satisfying [p] with [f]; returns the number updated.
   [p] and [f] see the table before any row is replaced. *)
let update_where p f t =
  touch t;
  let pairs =
    List.map (fun i -> (i, f (Vec.get t.rows i))) (positions_where p t)
  in
  set_rows t pairs;
  List.length pairs

let clear t =
  touch t;
  (match t.wal with
  | None -> ()
  | Some w -> w.Wal_hook.emit (Wal_hook.Table_clear (name t)));
  Vec.clear t.rows;
  Hashtbl.iter (fun _ idx -> Hashtbl.reset idx) t.key_indexes

let get_value t r cname = r.(Schema.column_index_exn t.schema cname)

(* The valid-time period of a row in a temporal table. *)
let row_period t (r : row) =
  let b = Value.to_date_exn r.(Schema.begin_index t.schema) in
  let e = Value.to_date_exn r.(Schema.end_index t.schema) in
  Period.make ~begin_:b ~end_:e

(* All valid-time periods in a temporal table. *)
let periods t = fold (fun acc r -> row_period t r :: acc) [] t

let copy t =
  let t' = create t.schema in
  iter (fun r -> Vec.push t'.rows (Array.copy r)) t;
  t'

(* A read-only view over this table's live storage: the row vector and
   schema are shared (no per-row copy), so the view is sound only while
   the original is not mutated.  Observation, undo and WAL wiring are
   severed — a view must never journal into or emit events for the
   original — and the index cache is a private copy: already-built
   interval indexes (immutable once built) are shared, while any index a
   view builds lazily lands in its own table, never racing with siblings
   reading the original's cache.  Key indexes are mutable, so the view
   starts with none. *)
let read_view t =
  {
    schema = t.schema;
    rows = t.rows;
    version = t.version;
    indexes = Hashtbl.copy t.indexes;
    obs = Trace.null;
    undo = Undo_log.null;
    undo_mark = 0;
    undo_full = false;
    wal = None;
    (* A view of a frozen snapshot is itself frozen; a view of a live
       table keeps the live table's CoW discipline out of the picture —
       the view shares the backing array, so mutating it would corrupt
       the original.  Mark it frozen too: read views are read-only by
       contract, and the typed error beats silent corruption. *)
    share = Frozen;
    key_indexes = Hashtbl.create 1;
  }

(* Publish an immutable snapshot of this table and switch the live table
   to copy-on-write.  The frozen record shares the current backing row
   array and a copy of the interval-index cache (already-built interval
   indexes are immutable once built) but no key index (the live table
   maintains those in place); the live table is marked [Shared] so its next
   mutation privatizes the array first.  O(1) in the number of rows.
   The caller must establish a happens-before edge (e.g. an [Atomic.set]
   of the published catalog) before handing the frozen table to another
   domain. *)
let freeze t =
  let fr =
    {
      schema = t.schema;
      rows = Vec.shallow t.rows;
      version = t.version;
      indexes = Hashtbl.copy t.indexes;
      obs = Trace.null;
      undo = Undo_log.null;
      undo_mark = 0;
      undo_full = false;
      wal = None;
      share = Frozen;
      key_indexes = Hashtbl.create 1;
    }
  in
  (match t.share with Frozen -> () | Live | Shared -> t.share <- Shared);
  fr

(* ------------------------------------------------------------------ *)
(* Interval-indexed period-overlap scans                               *)
(* ------------------------------------------------------------------ *)

(* The interval index over the (bi, ei) date column pair, built lazily
   and rebuilt whenever the table has been mutated since. *)
let interval_index t ~bi ~ei =
  match Hashtbl.find_opt t.indexes (bi, ei) with
  | Some (v, idx) when v = t.version -> idx
  | stale ->
      Fault.hit Fault.Index_rebuild;
      let snapshot = Array.make (Vec.length t.rows) [||] in
      Vec.iteri (fun i r -> snapshot.(i) <- r) t.rows;
      let extract (r : row) =
        match (r.(bi), r.(ei)) with
        | Value.Date b, Value.Date e -> Some (b, e)
        | _ -> None
      in
      let idx = Interval_index.build ~extract snapshot in
      Hashtbl.replace t.indexes (bi, ei) (t.version, idx);
      if Trace.enabled t.obs then begin
        (* a stale entry means a previous build was invalidated by a
           mutation; a missing one is the first (lazy) build *)
        let kind = if stale = None then "index.build" else "index.rebuild" in
        Trace.count t.obs kind 1;
        Trace.event t.obs "index"
          (Printf.sprintf "%s table=%s cols=(%d,%d) rows=%d residuals=%d"
             (if stale = None then "build" else "rebuild")
             (name t) bi ei (row_count t)
             (Interval_index.residual_count idx))
      end;
      idx

(* Rows whose [bi]/[ei] period overlaps [begin_, end_) under the
   half-open test (begin < end_ AND end > begin_), plus any rows whose
   timestamp columns are not dates — a superset safe for exact
   re-filtering — in insertion order.  O(log n + k) per query against
   the cached index. *)
let overlapping t ~bi ~ei ~begin_ ~end_ =
  Interval_index.overlapping (interval_index t ~bi ~ei) ~begin_ ~end_

(* Rows whose (bi, ei) columns are not both dates.  When zero, every
   query result of {!overlapping} satisfies the overlap test exactly
   (no unchecked residuals), so callers may treat the window bounds as
   already-enforced predicates. *)
let overlap_residuals t ~bi ~ei =
  Interval_index.residual_count (interval_index t ~bi ~ei)

let pp ppf t =
  Format.fprintf ppf "@[<v>%a@ %d row(s)@]" Schema.pp t.schema (row_count t)
