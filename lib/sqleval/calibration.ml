(* Learned strategy calibration: per-(statement shape, context-bucket,
   size-class) exponential moving averages of measured MAX and PERST
   wall times, recorded by the stratum's adaptive chooser.

   The table is keyed by an opaque statement fingerprint (the stratum
   digests the pretty-printed statement with its VALIDTIME period
   removed), a context-length bucket and a size-class tag — so one
   entry covers every run of the same query over contexts of
   comparable length and data volumes, whatever the context's dates.
   Each entry is stamped with the catalog's plan-cache token: DDL or an
   option flip bumps the token and the stale entry is treated as absent
   (and reset on the next write), reusing the plan cache's invalidation
   discipline instead of inventing a parallel one.

   Sharing: one table serves a catalog and every read view and
   published snapshot taken of it (see {!Catalog.read_view}), so a
   served read's measurement reaches the master; every operation takes
   the table's mutex.  {!copy_into} gives engine copies their own.

   Persistence: {!save} serializes the whole table as one little-endian
   blob (format version byte first) that rides in the durable store as
   a named aux record; {!take_dirty} does the same for the commit path,
   clearing the dirty flag under the same lock.  {!load} replaces the
   table from a blob, silently loading nothing from an unparseable one
   or one of another version — calibration is advisory, so a corrupt or
   outdated blob must never fail recovery.  After recovery the token
   components (generation, version) differ from the recording session
   even though the data is identical, so {!stamp_all} re-stamps every
   entry with the post-recovery token. *)

type arm = { mutable ema : float; mutable runs : int }

type entry = {
  mutable token : int * int * int;  (* Catalog.plan_token at last write *)
  max_arm : arm;
  perst_arm : arm;
  mutable cm_choice : int option;
      (* cached cost-model verdict (0 = MAX, 1 = PERST), valid under
         [token] — saves re-running table statistics on every decide *)
}

type t = {
  tbl : (string * int * int, entry) Hashtbl.t;
      (* (statement fingerprint, context bucket, size tag) *)
  mutable dirty : bool;
  m : Mutex.t;
}

(* EMA smoothing: recent runs dominate (the data keeps growing under
   DML) without a single noisy run flipping the choice. *)
let alpha = 0.3

let create () = { tbl = Hashtbl.create 16; dirty = false; m = Mutex.create () }

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

(* Context-length buckets: a week (the §VII-F "short" class), a month,
   a year, unbounded — matching where the MAX/PERST break-evens move. *)
let bucket_of_days d =
  if d <= 7 then 0 else if d <= 31 then 1 else if d <= 366 then 2 else 3

let fresh_arm () = { ema = 0.0; runs = 0 }

let find_or_create t key token =
  match Hashtbl.find_opt t.tbl key with
  | Some e when e.token = token -> e
  | Some e ->
      (* stale under the plan-cache token: DDL or an option flip since
         the entry was written — start over *)
      e.token <- token;
      e.max_arm.ema <- 0.0;
      e.max_arm.runs <- 0;
      e.perst_arm.ema <- 0.0;
      e.perst_arm.runs <- 0;
      e.cm_choice <- None;
      e
  | None ->
      let e =
        {
          token;
          max_arm = fresh_arm ();
          perst_arm = fresh_arm ();
          cm_choice = None;
        }
      in
      Hashtbl.replace t.tbl key e;
      e

let arm_of e = function 0 -> e.max_arm | _ -> e.perst_arm

(* Record a measured run of [arm] (0 = MAX, 1 = PERST). *)
let record t ~key ~token ~arm ~seconds =
  locked t (fun () ->
      let e = find_or_create t key token in
      let a = arm_of e arm in
      a.ema <-
        (if a.runs = 0 then seconds
         else (alpha *. seconds) +. ((1.0 -. alpha) *. a.ema));
      a.runs <- a.runs + 1;
      t.dirty <- true)

(* The measured verdict: [Some (max_ema, perst_ema)] once BOTH arms
   have at least one valid-token run — before that the chooser falls
   back to the cost model. *)
let measured t ~key ~token =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some e when e.token = token && e.max_arm.runs > 0 && e.perst_arm.runs > 0
        ->
          Some (e.max_arm.ema, e.perst_arm.ema)
      | _ -> None)

let runs t ~key ~token =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some e when e.token = token -> (e.max_arm.runs, e.perst_arm.runs)
      | _ -> (0, 0))

(* Cached cost-model verdict under [token] (0 = MAX, 1 = PERST). *)
let cm_cached t ~key ~token =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some e when e.token = token -> e.cm_choice
      | _ -> None)

let set_cm t ~key ~token choice =
  locked t (fun () ->
      let e = find_or_create t key token in
      e.cm_choice <- Some choice;
      t.dirty <- true)

(* Re-stamp every entry after recovery: the recovered catalog counts
   its generation and version from scratch, but the data state is
   identical to what the entries measured, so the knowledge is valid —
   only the stamp needs refreshing. *)
let stamp_all t token =
  locked t (fun () -> Hashtbl.iter (fun _ e -> e.token <- token) t.tbl)

let size t = locked t (fun () -> Hashtbl.length t.tbl)
let mark_dirty t = locked t (fun () -> t.dirty <- true)

let clear t =
  locked t (fun () ->
      Hashtbl.reset t.tbl;
      t.dirty <- false)

(* Deep content copy (for {!Catalog.copy}): the copy's knowledge starts
   as a snapshot of the source's and diverges freely — shared mutable
   calibration across engine copies would leak one run's measurements
   into another's replay. *)
let copy_into src =
  let dst = create () in
  locked src (fun () ->
      Hashtbl.iter
        (fun k e ->
          Hashtbl.replace dst.tbl k
            {
              token = e.token;
              max_arm = { ema = e.max_arm.ema; runs = e.max_arm.runs };
              perst_arm = { ema = e.perst_arm.ema; runs = e.perst_arm.runs };
              cm_choice = e.cm_choice;
            })
        src.tbl);
  dst

(* ------------------------------------------------------------------ *)
(* Blob format (little-endian, version byte first)                     *)
(* ------------------------------------------------------------------ *)

(* Version 2: fingerprints leave the VALIDTIME period out.  Version-1
   entries digest whole statements and could never match a key again. *)
let blob_version = 2

let w_u8 b n = Buffer.add_char b (Char.chr (n land 0xff))
let w_u32 b n = Buffer.add_int32_le b (Int32.of_int n)
let w_i64 b n = Buffer.add_int64_le b (Int64.of_int n)
let w_f64 b f = Buffer.add_int64_le b (Int64.bits_of_float f)

let w_str b s =
  w_u32 b (String.length s);
  Buffer.add_string b s

exception Bad_blob

type cursor = { s : string; mutable pos : int }

let need c n = if c.pos + n > String.length c.s then raise Bad_blob

let r_u8 c =
  need c 1;
  let v = Char.code c.s.[c.pos] in
  c.pos <- c.pos + 1;
  v

let r_u32 c =
  need c 4;
  let v = Int32.to_int (String.get_int32_le c.s c.pos) land 0xFFFFFFFF in
  c.pos <- c.pos + 4;
  v

let r_i64 c =
  need c 8;
  let v = Int64.to_int (String.get_int64_le c.s c.pos) in
  c.pos <- c.pos + 8;
  v

let r_f64 c =
  need c 8;
  let v = Int64.float_of_bits (String.get_int64_le c.s c.pos) in
  c.pos <- c.pos + 8;
  v

let r_str c =
  let n = r_u32 c in
  need c n;
  let v = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  v

let serialize t =
  let b = Buffer.create 256 in
  w_u8 b blob_version;
  w_u32 b (Hashtbl.length t.tbl);
  (* sorted by key so identical tables serialize identically —
     byte-stable blobs keep crash-fuzz golden comparisons quiet *)
  Hashtbl.fold (fun k e acc -> (k, e) :: acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun ((fp, bkt, sz), e) ->
         w_str b fp;
         w_u8 b bkt;
         w_u8 b sz;
         let g, v, o = e.token in
         w_i64 b g;
         w_i64 b v;
         w_i64 b o;
         w_f64 b e.max_arm.ema;
         w_u32 b e.max_arm.runs;
         w_f64 b e.perst_arm.ema;
         w_u32 b e.perst_arm.runs;
         match e.cm_choice with
         | None -> w_u8 b 255
         | Some c -> w_u8 b c);
  Buffer.contents b

let save t = locked t (fun () -> serialize t)

(* The blob for the commit path: [Some] the whole table if anything was
   recorded since the last take, clearing the flag under the same lock
   so a measurement recorded concurrently is never lost. *)
let take_dirty t =
  locked t (fun () ->
      if t.dirty then begin
        t.dirty <- false;
        Some (serialize t)
      end
      else None)

(* Replace the table from a blob.  Unknown version or any parse failure
   loads nothing: calibration is advisory and must never fail recovery. *)
let load t blob =
  match
    let c = { s = blob; pos = 0 } in
    if r_u8 c <> blob_version then raise Bad_blob;
    let n = r_u32 c in
    let entries = ref [] in
    for _ = 1 to n do
      let fp = r_str c in
      let bkt = r_u8 c in
      let sz = r_u8 c in
      let g = r_i64 c in
      let v = r_i64 c in
      let o = r_i64 c in
      let max_ema = r_f64 c in
      let max_runs = r_u32 c in
      let perst_ema = r_f64 c in
      let perst_runs = r_u32 c in
      let cm = match r_u8 c with 255 -> None | x -> Some x in
      entries :=
        ( (fp, bkt, sz),
          {
            token = (g, v, o);
            max_arm = { ema = max_ema; runs = max_runs };
            perst_arm = { ema = perst_ema; runs = perst_runs };
            cm_choice = cm;
          } )
        :: !entries
    done;
    if c.pos <> String.length blob then raise Bad_blob;
    !entries
  with
  | exception Bad_blob -> ()
  | entries ->
      locked t (fun () ->
          Hashtbl.reset t.tbl;
          List.iter (fun (k, e) -> Hashtbl.replace t.tbl k e) entries;
          t.dirty <- false)

(* One-line summary for EXPLAIN and the REPL. *)
let summary t =
  locked t (fun () ->
      let n = Hashtbl.length t.tbl in
      let measured =
        Hashtbl.fold
          (fun _ e acc ->
            if e.max_arm.runs > 0 && e.perst_arm.runs > 0 then acc + 1 else acc)
          t.tbl 0
      in
      Printf.sprintf "%d entr%s (%d with both arms measured)" n
        (if n = 1 then "y" else "ies")
        measured)
