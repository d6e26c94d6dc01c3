(* Durability tests: golden CRC-32 vectors and pinned record bytes (the
   on-disk format is a contract), qcheck round-trips for the WAL codec,
   torn-tail / corrupt-record scan behaviour, crash-point fuzzing with
   the committed-prefix consistency property (a qcheck property and
   the 300-point recovery fuzz over DS1-DS3), snapshot equivalence
   across the τPSM benchmark queries, snapshot-generation fallback, and
   the monotonic clock guard fix. *)

module Engine = Sqleval.Engine
module Eval = Sqleval.Eval
module Persist = Sqleval.Persist
module RS = Sqleval.Result_set
module Value = Sqldb.Value
module Date = Sqldb.Date
module Schema = Sqldb.Schema
module Database = Sqldb.Database
module Table = Sqldb.Table
module Wal_hook = Sqldb.Wal_hook
module Crc32 = Durable.Crc32
module Codec = Durable.Codec
module Wal = Durable.Wal
module Store = Durable.Store
module Stratum = Taupsm.Stratum
module Resilient = Taupsm.Resilient
module Datasets = Taubench.Datasets
module Queries = Taubench.Queries

let tmp_dir prefix = Filename.temp_dir ("taupsm_" ^ prefix) ""

let rows_of rs =
  List.map (fun r -> List.map Value.to_string (Array.to_list r)) rs.RS.rows

(* ------------------------------------------------------------------ *)
(* CRC-32 golden vectors                                               *)
(* ------------------------------------------------------------------ *)

let test_crc32_goldens () =
  let check name expect s =
    Alcotest.(check int) name expect (Crc32.digest s)
  in
  check "empty" 0x00000000 "";
  check "check value" 0xCBF43926 "123456789";
  check "single byte" 0xE8B7BE43 "a";
  check "binary zeros" 0x2144DF1C "\x00\x00\x00\x00";
  (* incremental update must agree with one-shot digest *)
  let s = "the quick brown fox jumps over the lazy dog" in
  let crc_oneshot = Crc32.digest s in
  Alcotest.(check int) "incremental = one-shot" crc_oneshot
    (Crc32.update (Crc32.digest (String.sub s 0 17)) s 17 (String.length s - 17))

(* ------------------------------------------------------------------ *)
(* Pinned on-disk bytes: the format is a contract                      *)
(* ------------------------------------------------------------------ *)

let hex s =
  String.concat "" (List.map (Printf.sprintf "%02x") (List.map Char.code (List.init (String.length s) (String.get s))))

let test_pinned_record_bytes () =
  (* commit marker: tag 9, serial as i64 LE *)
  Alcotest.(check string)
    "commit marker" "090700000000000000"
    (hex (Codec.encode_commit ~serial:7));
  (* row insert: tag 1, table name, row of one Int *)
  Alcotest.(check string)
    "row insert" "01010000007401000000010100000000000000"
    (hex (Codec.encode_event (Wal_hook.Row_insert ("t", [| Value.Int 1 |]))));
  (* framing: u32 LE length, u32 LE CRC of payload, payload *)
  let payload = Codec.encode_commit ~serial:1 in
  let framed = Wal.frame payload in
  Alcotest.(check int) "frame adds 8 bytes" (String.length payload + 8)
    (String.length framed);
  Alcotest.(check string) "frame length field" "09000000"
    (hex (String.sub framed 0 4));
  Alcotest.(check int) "frame crc field"
    (Crc32.digest payload)
    (Int32.to_int (String.get_int32_le framed 4) land 0xFFFFFFFF);
  Alcotest.(check string) "wal magic" "TPSMWAL2" Wal.magic

(* ------------------------------------------------------------------ *)
(* qcheck: codec round-trips                                           *)
(* ------------------------------------------------------------------ *)

let gen_value =
  QCheck.Gen.(
    oneof
      [
        return Value.Null;
        map (fun n -> Value.Int n) int;
        map (fun f -> Value.Float f) float;
        map (fun s -> Value.Str s) (string_size (int_range 0 64));
        (* long strings and embedded NULs must survive *)
        map (fun s -> Value.Str s) (string_size (int_range 1000 5000));
        map (fun b -> Value.Bool b) bool;
        map (fun d -> Value.Date d) (int_range (-400000) 4000000);
      ])

let gen_row = QCheck.Gen.(map Array.of_list (list_size (int_range 0 8) gen_value))

let gen_name =
  QCheck.Gen.(
    string_size ~gen:(map Char.chr (int_range 97 122)) (int_range 1 12))

let gen_constraint =
  QCheck.Gen.(
    oneof
      [
        map
          (fun cols -> Schema.Temporal_pk cols)
          (list_size (int_range 1 3) gen_name);
        map3
          (fun fk_cols ref_table ref_cols ->
            Schema.Temporal_fk { fk_cols; ref_table; ref_cols })
          (list_size (int_range 1 3) gen_name)
          gen_name
          (list_size (int_range 1 3) gen_name);
      ])

let gen_schema =
  QCheck.Gen.(
    let gen_ty =
      oneofl [ Value.Tint; Value.Tfloat; Value.Tstring; Value.Tbool; Value.Tdate ]
    in
    map2
      (fun (name, cols, temporal, transaction) constraints ->
        {
          Schema.name;
          columns =
            List.map (fun (n, ty) -> { Schema.col_name = n; col_ty = ty }) cols;
          temporal;
          transaction;
          (* the engine only attaches constraints to VALIDTIME tables, but
             the codec must round-trip whatever the record carries *)
          constraints = (if temporal then constraints else []);
        })
      (quad gen_name
         (list_size (int_range 0 6) (pair gen_name gen_ty))
         bool bool)
      (list_size (int_range 0 2) gen_constraint))

let gen_event =
  QCheck.Gen.(
    oneof
      [
        map2 (fun t r -> Wal_hook.Row_insert (t, r)) gen_name gen_row;
        map2
          (fun t ps -> Wal_hook.Rows_delete (t, Array.of_list ps))
          gen_name
          (list_size (int_range 0 10) (int_range 0 100000));
        map2
          (fun t prs -> Wal_hook.Rows_update (t, Array.of_list prs))
          gen_name
          (list_size (int_range 0 6) (pair (int_range 0 100000) gen_row));
        map (fun t -> Wal_hook.Table_clear t) gen_name;
        map3
          (fun sch temp rows -> Wal_hook.Table_create (sch, temp, rows))
          gen_schema bool
          (list_size (int_range 0 5) gen_row);
        map (fun t -> Wal_hook.Table_drop t) gen_name;
        return Wal_hook.Temp_tables_drop;
        map (fun s -> Wal_hook.Catalog_ddl s) (string_size (int_range 0 2000));
      ])

let arb_event = QCheck.make gen_event ~print:Wal_hook.event_name

let prop_event_roundtrip ev =
  let enc = Codec.encode_event ev in
  match Codec.decode_record enc with
  | Codec.Rcommit _ -> QCheck.Test.fail_report "event decoded as commit"
  | Codec.Raux _ -> QCheck.Test.fail_report "event decoded as aux"
  | Codec.Revent ev' ->
      (* structural equality, plus byte equality of a re-encode (the
         latter also covers NaN floats, where (=) would lie) *)
      ev' = ev && Codec.encode_event ev' = enc

let prop_commit_roundtrip serial =
  match Codec.decode_record (Codec.encode_commit ~serial) with
  | Codec.Rcommit s -> s = serial
  | Codec.Revent _ | Codec.Raux _ -> false

let prop_aux_roundtrip (name, blob) =
  match Codec.decode_record (Codec.encode_aux ~name ~blob) with
  | Codec.Raux (n, b) -> n = name && b = blob
  | Codec.Revent _ | Codec.Rcommit _ -> false

let gen_snapshot =
  QCheck.Gen.(
    let gen_table = pair gen_schema (list_size (int_range 0 6) gen_row) in
    map3
      (fun (serial, now, ddl) (base, temp) aux ->
        { Codec.serial; now; ddl; base; temp; aux })
      (triple (int_range 0 1000000) (int_range 0 4000000)
         (list_size (int_range 0 4) (string_size (int_range 0 200))))
      (pair
         (list_size (int_range 0 3) gen_table)
         (list_size (int_range 0 3) gen_table))
      (list_size (int_range 0 2)
         (pair gen_name (string_size (int_range 0 100)))))

let prop_snapshot_roundtrip snap =
  let enc = Codec.encode_snapshot snap in
  let snap' = Codec.decode_snapshot enc in
  snap' = snap && Codec.encode_snapshot snap' = enc

let codec_qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~count:300 ~name:"event encode/decode round-trip"
        arb_event prop_event_roundtrip;
      QCheck.Test.make ~count:100 ~name:"commit marker round-trip"
        QCheck.(map abs int)
        prop_commit_roundtrip;
      QCheck.Test.make ~count:100 ~name:"aux record round-trip"
        QCheck.(
          pair
            (string_gen_of_size Gen.(int_range 0 24) Gen.printable)
            (string_gen_of_size Gen.(int_range 0 500) Gen.char))
        prop_aux_roundtrip;
      QCheck.Test.make ~count:100 ~name:"snapshot encode/decode round-trip"
        (QCheck.make gen_snapshot ~print:(fun s ->
             Printf.sprintf "snapshot serial=%d (%d base, %d temp)"
               s.Codec.serial (List.length s.Codec.base)
               (List.length s.Codec.temp)))
        prop_snapshot_roundtrip;
    ]

(* corrupt payloads must raise Corrupt, never allocate absurdly or
   return garbage *)
let test_codec_rejects_garbage () =
  let expect_corrupt name payload =
    match Codec.decode_record payload with
    | _ -> Alcotest.failf "%s: decoded garbage" name
    | exception Codec.Corrupt _ -> ()
  in
  expect_corrupt "empty payload" "";
  expect_corrupt "unknown tag" "\xff";
  expect_corrupt "truncated commit" "\x09\x01\x02";
  (* huge claimed count fails fast on the first missing byte *)
  expect_corrupt "huge row count"
    ("\x01\x01\x00\x00\x00t" ^ "\xff\xff\xff\x7f");
  let good = Codec.encode_event (Wal_hook.Table_clear "t") in
  expect_corrupt "trailing garbage" (good ^ "x")

(* ------------------------------------------------------------------ *)
(* WAL file scan: torn tails and corrupt records                       *)
(* ------------------------------------------------------------------ *)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let build_wal dir payloads =
  let path = Filename.concat dir "wal-00000000.log" in
  let w = Wal.create ~policy:Wal.Off path in
  List.iter (Wal.append w) payloads;
  Wal.close w;
  path

let scan_all path =
  let got = ref [] in
  let scan = Wal.scan path ~f:(fun ~off:_ p -> got := p :: !got) in
  (scan, List.rev !got)

let test_wal_scan_clean () =
  let dir = tmp_dir "wal" in
  let payloads = [ "alpha"; ""; "gamma-longer-payload"; "\x00\x01\x02" ] in
  let path = build_wal dir payloads in
  let scan, got = scan_all path in
  Alcotest.(check (list string)) "all payloads back" payloads got;
  Alcotest.(check string) "clean eof" "eof" (Wal.stop_string scan.Wal.stop);
  Alcotest.(check int) "good offset = file size" scan.Wal.bytes
    scan.Wal.good_offset

let test_wal_scan_torn_tail () =
  let dir = tmp_dir "torn" in
  let payloads = [ "alpha"; "beta"; "gamma" ] in
  let path = build_wal dir payloads in
  let whole = read_file path in
  (* cut inside the final record: every prefix length from just after
     record 2 up to just before the end must yield exactly two records *)
  let full_scan, _ = scan_all path in
  let end2 =
    Wal.header_len + (8 + 5) + (8 + 4)
    (* alpha, beta frames *)
  in
  Alcotest.(check int) "full file sanity" full_scan.Wal.bytes
    (end2 + 8 + 5);
  for cut = end2 + 1 to String.length whole - 1 do
    write_file path (String.sub whole 0 cut);
    let scan, got = scan_all path in
    Alcotest.(check (list string))
      (Printf.sprintf "cut at %d keeps prefix" cut)
      [ "alpha"; "beta" ] got;
    Alcotest.(check string)
      (Printf.sprintf "cut at %d is torn" cut)
      "torn_tail"
      (Wal.stop_string scan.Wal.stop);
    Alcotest.(check int)
      (Printf.sprintf "cut at %d good offset" cut)
      end2 scan.Wal.good_offset
  done

let test_wal_scan_bad_crc () =
  let dir = tmp_dir "crc" in
  let payloads = [ "alpha"; "beta"; "gamma" ] in
  let path = build_wal dir payloads in
  let whole = read_file path in
  (* flip one byte inside record 2's payload *)
  let off = Wal.header_len + (8 + 5) + 8 + 1 in
  let b = Bytes.of_string whole in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xFF));
  write_file path (Bytes.to_string b);
  let scan, got = scan_all path in
  Alcotest.(check (list string)) "stops after record 1" [ "alpha" ] got;
  Alcotest.(check string) "bad crc" "bad_crc" (Wal.stop_string scan.Wal.stop)

let test_wal_reopen_appends () =
  let dir = tmp_dir "reopen" in
  let path = build_wal dir [ "alpha"; "beta" ] in
  (* simulate a torn tail, then resume at the good offset *)
  let whole = read_file path in
  write_file path (String.sub whole 0 (String.length whole - 2));
  let scan1, _ = scan_all path in
  let w = Wal.reopen path ~good_offset:scan1.Wal.good_offset in
  Wal.append w "gamma";
  Wal.close w;
  let scan2, got = scan_all path in
  Alcotest.(check (list string)) "torn tail replaced" [ "alpha"; "gamma" ] got;
  Alcotest.(check string) "clean after resume" "eof"
    (Wal.stop_string scan2.Wal.stop)

(* ------------------------------------------------------------------ *)
(* Crash-point fuzzing: committed-prefix consistency                   *)
(* ------------------------------------------------------------------ *)

(* A small deterministic workload exercising every WAL record kind:
   table DDL, sequenced and conventional DML, view and routine DDL,
   a temporal query (temp-table churn), and a drop. *)
let workload =
  [
    "CREATE TABLE tariff (name VARCHAR(10), pct DOUBLE) WITH VALIDTIME";
    "VALIDTIME [DATE '2010-01-01', DATE '2011-01-01') INSERT INTO tariff \
     VALUES ('base', 5.0)";
    "VALIDTIME [DATE '2010-02-01', DATE '2010-06-01') INSERT INTO tariff \
     VALUES ('extra', 2.0)";
    "CREATE VIEW cheap AS SELECT name FROM tariff WHERE pct < 3.0";
    "VALIDTIME [DATE '2010-03-01', DATE '2010-04-01') UPDATE tariff SET pct \
     = 9.9 WHERE name = 'base'";
    "CREATE FUNCTION twice (x DOUBLE) RETURNS DOUBLE BEGIN RETURN x * 2.0; \
     END";
    "VALIDTIME SELECT name, pct FROM tariff WHERE pct > 1.0";
    "VALIDTIME [DATE '2010-04-01', DATE '2010-05-01') DELETE FROM tariff \
     WHERE name = 'extra'";
    "CREATE TABLE audit (note VARCHAR(20))";
    "INSERT INTO audit VALUES ('done')";
    "DROP TABLE audit";
  ]

(* Golden run: execute the workload with a store attached and no crash
   point, capturing a deep copy of the database keyed by the store
   serial after every statement.  Recovery reporting last_serial = s
   must reproduce exactly prefixes[s]. *)
let golden_run () =
  let dir = tmp_dir "golden" in
  let e = Engine.create () in
  Stratum.install e;
  let h = Persist.attach ~policy:(Wal.Batch 4) ~snapshot_every:4 ~dir e in
  let prefixes = Hashtbl.create 16 in
  Hashtbl.replace prefixes
    (Store.serial (Persist.store h))
    (Database.copy (Engine.database e));
  List.iter
    (fun sql ->
      ignore (Stratum.exec_sql e sql);
      Hashtbl.replace prefixes
        (Store.serial (Persist.store h))
        (Database.copy (Engine.database e)))
    workload;
  let final_serial = Store.serial (Persist.store h) in
  Persist.detach h;
  (prefixes, final_serial)

let golden = lazy (golden_run ())

(* Total durable bytes a clean run writes, measured with a huge armed
   budget (crash_allowance drains it without firing). *)
let total_durable_bytes =
  lazy
    (let big = 1 lsl 30 in
     Fault.arm_crash ~at_bytes:big;
     let dir = tmp_dir "measure" in
     let e = Engine.create () in
     Stratum.install e;
     let h = Persist.attach ~policy:(Wal.Batch 4) ~snapshot_every:4 ~dir e in
     List.iter (fun sql -> ignore (Stratum.exec_sql e sql)) workload;
     Persist.detach h;
     let remaining =
       match Fault.crash_armed () with Some r -> r | None -> 0
     in
     Fault.disarm_crash ();
     big - remaining)

let prop_crash_recovers_prefix raw =
  let prefixes, final_serial = Lazy.force golden in
  let total = Lazy.force total_durable_bytes in
  let at_bytes = raw mod total in
  let dir = tmp_dir "crash" in
  Fault.arm_crash ~at_bytes;
  let crashed_in_attach = ref false in
  let crashed = ref false in
  (try
     let e = Engine.create () in
     Stratum.install e;
     let h =
       try Persist.attach ~policy:(Wal.Batch 4) ~snapshot_every:4 ~dir e
       with Fault.Crash _ ->
         crashed_in_attach := true;
         raise Exit
     in
     (try
        List.iter (fun sql -> ignore (Stratum.exec_sql e sql)) workload
      with Fault.Crash _ -> crashed := true);
     if not !crashed then Persist.detach h
   with Exit -> ());
  Fault.disarm_crash ();
  (* in-memory engine is gone; all we have is the directory *)
  if !crashed_in_attach && not (Store.exists dir) then
    (* died before the first snapshot landed: durably nothing, vacuous *)
    true
  else begin
    let e', report = Persist.recover ~dir () in
    let s = report.Store.last_serial in
    if not !crashed && not !crashed_in_attach then
      (* clean run: recovery must reproduce the final state *)
      QCheck.(
        if s <> final_serial then
          Test.fail_reportf "clean run recovered serial %d, expected %d" s
            final_serial);
    match Hashtbl.find_opt prefixes s with
    | None ->
        QCheck.Test.fail_reportf
          "crash at %d bytes: recovered serial %d is not a committed prefix"
          at_bytes s
    | Some golden_db -> (
        match Resilient.db_diff golden_db (Engine.database e') with
        | None -> true
        | Some diff ->
            QCheck.Test.fail_reportf
              "crash at %d bytes: recovered state diverges from committed \
               prefix %d: %s"
              at_bytes s diff)
  end

let crash_qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~count:60 ~name:"crash point => committed prefix"
        QCheck.(
          make
            Gen.(int_range 0 999_983)
            ~print:(fun r -> Printf.sprintf "offset witness %d" r))
        prop_crash_recovers_prefix;
    ]

(* Deterministic corners the uniform fuzz may miss: crash exactly at
   record boundaries (budget run out with zero torn bytes). *)
let test_crash_at_exact_boundaries () =
  let prefixes, _ = Lazy.force golden in
  (* replay a clean run recording the wal offset after every commit,
     then crash exactly at each of those offsets *)
  let total = Lazy.force total_durable_bytes in
  List.iter
    (fun frac ->
      let at_bytes = total * frac / 16 in
      Alcotest.(check bool)
        (Printf.sprintf "boundary %d/16" frac)
        true
        (let dir = tmp_dir "bound" in
         Fault.arm_crash ~at_bytes;
         let crashed_early = ref false in
         (try
            let e = Engine.create () in
            Stratum.install e;
            let h = Persist.attach ~policy:Wal.Always ~snapshot_every:4 ~dir e in
            (try List.iter (fun sql -> ignore (Stratum.exec_sql e sql)) workload
             with Fault.Crash _ -> ());
            if not (Store.is_dead (Persist.store h)) then Persist.detach h
          with Fault.Crash _ -> crashed_early := true);
         Fault.disarm_crash ();
         if !crashed_early && not (Store.exists dir) then true
         else begin
           let e', report = Persist.recover ~dir () in
           match Hashtbl.find_opt prefixes report.Store.last_serial with
           | None -> false
           | Some g -> Resilient.db_diff g (Engine.database e') = None
         end))
    [ 1; 3; 5; 7; 9; 11; 13; 15 ]

(* A corrupt record in the *middle* of the WAL: recovery stops there
   and still reports a committed prefix. *)
let test_corrupt_mid_wal () =
  let prefixes, final_serial = Lazy.force golden in
  let dir = tmp_dir "midcrc" in
  let e = Engine.create () in
  Stratum.install e;
  (* no rotation: keep everything in wal-0 so the flip lands mid-history *)
  let h = Persist.attach ~policy:Wal.Off ~dir e in
  List.iter (fun sql -> ignore (Stratum.exec_sql e sql)) workload;
  Persist.detach h;
  let path = Filename.concat dir "wal-00000000.log" in
  let whole = read_file path in
  let b = Bytes.of_string whole in
  let off = String.length whole / 2 in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xFF));
  write_file path (Bytes.to_string b);
  let e', report = Persist.recover ~dir () in
  Alcotest.(check bool)
    "scan stopped on corruption" true
    (List.mem report.Store.stop [ "bad_crc"; "bad_record"; "torn_tail" ]);
  Alcotest.(check bool)
    "replayed strictly less than everything" true
    (report.Store.last_serial < final_serial);
  match Hashtbl.find_opt prefixes report.Store.last_serial with
  | None -> Alcotest.fail "recovered serial is not a committed prefix"
  | Some g -> (
      match Resilient.db_diff g (Engine.database e') with
      | None -> ()
      | Some diff -> Alcotest.failf "prefix diverges: %s" diff)

(* Latest snapshot corrupt: recovery falls back a generation for its
   base state, then CHAINS through the newer generation's WAL — each
   generation's log begins exactly where its predecessor's ends, so the
   corrupt snapshot costs nothing and the full final state comes back. *)
let test_snapshot_fallback () =
  let dir = tmp_dir "fallback" in
  let e = Engine.create () in
  Stratum.install e;
  let h = Persist.attach ~policy:Wal.Off ~dir e in
  List.iteri
    (fun i sql ->
      ignore (Stratum.exec_sql e sql);
      if i = 5 then Persist.snapshot h)
    workload;
  let live = Database.copy (Engine.database e) in
  Persist.detach h;
  (* corrupt snapshot generation 1 (written by the forced rotation) *)
  let snap1 = Filename.concat dir "snap-00000001.bin" in
  let whole = read_file snap1 in
  let b = Bytes.of_string whole in
  Bytes.set b (String.length whole - 3)
    (Char.chr (Char.code (Bytes.get b (String.length whole - 3)) lxor 0xFF));
  write_file snap1 (Bytes.to_string b);
  let e', report = Persist.recover ~dir () in
  Alcotest.(check int) "fell back to generation 0" 0 report.Store.snapshot_id;
  Alcotest.(check int) "chained into generation 1's wal" 1
    report.Store.wal_generation;
  match Resilient.db_diff live (Engine.database e') with
  | None -> ()
  | Some diff -> Alcotest.failf "chained recovery diverges: %s" diff

(* ------------------------------------------------------------------ *)
(* Snapshot equivalence across the τPSM benchmark queries              *)
(* ------------------------------------------------------------------ *)

let small_ds1 =
  lazy
    (Datasets.load { Datasets.ds = Datasets.DS1; size = Taupsm.Heuristic.Small })

let ctx = (Date.of_ymd ~y:2010 ~m:3 ~d:1, Date.of_ymd ~y:2010 ~m:4 ~d:15)

(* For every benchmark query: run it live with a store attached,
   recover into a fresh engine, and demand (a) the recovered database
   is bit-identical (db_diff) to the live one and (b) the recovered
   engine — whose views/routines travelled as re-parsed DDL — computes
   the same answer. *)
let test_snapshot_equivalence_queries () =
  List.iter
    (fun q ->
      let e = Engine.copy (Lazy.force small_ds1) in
      Queries.install e;
      let dir = tmp_dir ("snapeq_" ^ q.Queries.id) in
      let h = Persist.attach ~policy:Wal.Off ~dir e in
      let sql = Queries.sequenced ~context:ctx q in
      let live_rows =
        match Stratum.exec_sql ~strategy:Stratum.Max e sql with
        | Eval.Rows rs -> rows_of rs
        | _ -> Alcotest.failf "%s did not produce rows" q.Queries.id
      in
      Persist.detach h;
      let e', _report = Persist.recover ~dir () in
      (match Resilient.db_diff (Engine.database e) (Engine.database e') with
      | None -> ()
      | Some diff ->
          Alcotest.failf "%s: recovered database diverges: %s" q.Queries.id
            diff);
      let recovered_rows =
        match Stratum.exec_sql ~strategy:Stratum.Max e' sql with
        | Eval.Rows rs -> rows_of rs
        | _ -> Alcotest.failf "%s (recovered) did not produce rows" q.Queries.id
      in
      Alcotest.(check (list (list string)))
        (Printf.sprintf "%s: recovered answer = live answer" q.Queries.id)
        live_rows recovered_rows)
    Queries.all

(* Sequenced DML against a recovered-and-resumed store must keep
   working and persisting (serial numbering continuous). *)
let test_resume_continues () =
  let dir = tmp_dir "resume" in
  let e = Engine.create () in
  Stratum.install e;
  let h = Persist.attach ~policy:(Wal.Batch 2) ~dir e in
  List.iteri
    (fun i sql -> if i <= 2 then ignore (Stratum.exec_sql e sql))
    workload;
  Persist.detach h;
  (* first recovery + resume: append more statements *)
  let e1, r1 = Persist.recover ~dir () in
  Stratum.install e1;
  let h1 = Persist.resume ~policy:(Wal.Batch 2) ~dir e1 r1 in
  ignore
    (Stratum.exec_sql e1
       "VALIDTIME [DATE '2010-07-01', DATE '2010-08-01') INSERT INTO tariff \
        VALUES ('late', 7.5)");
  let serial_after = Store.serial (Persist.store h1) in
  Persist.detach h1;
  Alcotest.(check bool)
    "serial advanced past recovery" true
    (serial_after > r1.Store.last_serial);
  (* second recovery sees the post-resume statement *)
  let e2, r2 = Persist.recover ~dir () in
  Alcotest.(check int) "second recovery reaches new serial" serial_after
    r2.Store.last_serial;
  match Resilient.db_diff (Engine.database e1) (Engine.database e2) with
  | None -> ()
  | Some diff -> Alcotest.failf "post-resume state diverges: %s" diff

let append_raw path s =
  let oc = open_out_gen [ Open_binary; Open_append ] 0o644 path in
  output_string oc s;
  close_out oc

(* The crash -> recover -> resume -> recover path.  A mid-statement
   crash can leave the statement's event records intact with no commit
   marker (the tear landed on the marker itself); resume must truncate
   those orphans away.  Were resume to cut only at the last intact
   *record*, the next statement's commit marker would adopt the
   orphans, committing a statement that never committed. *)
let test_resume_discards_uncommitted_tail () =
  let dir = tmp_dir "orphan" in
  let e = Engine.create () in
  Stratum.install e;
  let h = Persist.attach ~policy:Wal.Off ~dir e in
  List.iteri
    (fun i sql -> if i <= 2 then ignore (Stratum.exec_sql e sql))
    workload;
  Persist.detach h;
  (* simulate the torn commit: two intact event records, no marker *)
  let orphan_schema =
    {
      Schema.name = "orphan";
      columns = [ { Schema.col_name = "x"; col_ty = Value.Tint } ];
      temporal = false;
      transaction = false;
      constraints = [];
    }
  in
  let path = Filename.concat dir "wal-00000000.log" in
  append_raw path
    (Wal.frame
       (Codec.encode_event (Wal_hook.Table_create (orphan_schema, false, []))));
  append_raw path
    (Wal.frame
       (Codec.encode_event (Wal_hook.Row_insert ("orphan", [| Value.Int 1 |]))));
  (* first recovery: the suffix is intact (scan ends at a clean eof)
     yet uncommitted, so it must not be replayed *)
  let e1, r1 = Persist.recover ~dir () in
  Stratum.install e1;
  Alcotest.(check string) "orphan suffix scans clean" "eof" r1.Store.stop;
  Alcotest.(check bool)
    "committed boundary is before the orphans" true
    (r1.Store.wal_committed_offset < r1.Store.wal_good_offset);
  Alcotest.(check bool)
    "orphan table not replayed" false
    (Database.mem (Engine.database e1) "orphan");
  (* resume, commit one more statement, crash-recover again *)
  let h1 = Persist.resume ~policy:Wal.Off ~dir e1 r1 in
  ignore
    (Stratum.exec_sql e1
       "VALIDTIME [DATE '2010-07-01', DATE '2010-08-01') INSERT INTO tariff \
        VALUES ('late', 7.5)");
  Persist.detach h1;
  let e2, r2 = Persist.recover ~dir () in
  Alcotest.(check bool)
    "orphans not adopted by the post-resume commit" false
    (Database.mem (Engine.database e2) "orphan");
  Alcotest.(check int) "serials continuous" (r1.Store.last_serial + 1)
    r2.Store.last_serial;
  match Resilient.db_diff (Engine.database e1) (Engine.database e2) with
  | None -> ()
  | Some diff -> Alcotest.failf "post-resume state diverges: %s" diff

(* A nested atomic scope whose rollback is swallowed upstream (the
   enclosing statement still commits) must not leak its buffered WAL
   events: recovery would otherwise replay effects the undo journal
   reverted in memory. *)
let test_nested_rollback_drops_wal_events () =
  let dir = tmp_dir "nested" in
  let e = Engine.create () in
  Stratum.install e;
  let h = Persist.attach ~policy:Wal.Off ~dir e in
  ignore (Stratum.exec_sql e "CREATE TABLE nest (x INT)");
  let db = Engine.database e in
  let t = Database.find_table_exn db "nest" in
  Database.with_atomic db (fun () ->
      Table.insert t [| Value.Int 1 |];
      (try
         Database.with_atomic db (fun () ->
             Table.insert t [| Value.Int 2 |];
             failwith "probe failure")
       with Failure _ -> ());
      Table.insert t [| Value.Int 3 |]);
  Persist.detach h;
  let e', _ = Persist.recover ~dir () in
  (match Resilient.db_diff db (Engine.database e') with
  | None -> ()
  | Some diff -> Alcotest.failf "recovered state diverges from live: %s" diff);
  let rows =
    List.map
      (fun r -> Value.to_string r.(0))
      (Table.to_list (Database.find_table_exn (Engine.database e') "nest"))
  in
  Alcotest.(check (list string)) "rolled-back insert absent" [ "1"; "3" ] rows

(* A CRC-valid but semantically impossible commit group (an event
   referencing a table that does not exist) must fail recovery loudly
   with a typed Durability error — never return a silently partial
   database. *)
let test_bad_group_fails_loudly () =
  let dir = tmp_dir "badgroup" in
  let e = Engine.create () in
  Stratum.install e;
  let h = Persist.attach ~policy:Wal.Off ~dir e in
  List.iteri
    (fun i sql -> if i <= 1 then ignore (Stratum.exec_sql e sql))
    workload;
  Persist.detach h;
  let path = Filename.concat dir "wal-00000000.log" in
  append_raw path
    (Wal.frame
       (Codec.encode_event (Wal_hook.Row_insert ("nosuch", [| Value.Int 1 |]))));
  append_raw path (Wal.frame (Codec.encode_commit ~serial:99));
  match Persist.recover ~dir () with
  | _ -> Alcotest.fail "recovery silently accepted a bad commit group"
  | exception Taupsm_error.Error err ->
      Alcotest.(check string) "typed as durability" "durability"
        (Taupsm_error.code_string err.Taupsm_error.code)

(* ------------------------------------------------------------------ *)
(* Recovery fuzz: seeded crash points across DS1-DS3 workloads        *)
(* ------------------------------------------------------------------ *)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (try Sys.readdir dir with Sys_error _ -> [||]);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

(* Scratch-table DDL, sequenced DML and TEMPORAL MERGE under temporal
   constraints (valid on any dataset), so crash points also land inside
   merge plans and constraint checks. *)
let fuzz_dml =
  [
    "CREATE TABLE fuzz_tariff (name VARCHAR(10), pct DOUBLE) WITH VALIDTIME";
    "VALIDTIME [DATE '2010-01-01', DATE '2011-01-01') INSERT INTO fuzz_tariff \
     VALUES ('base', 5.0)";
    "VALIDTIME [DATE '2010-02-01', DATE '2010-06-01') INSERT INTO fuzz_tariff \
     VALUES ('extra', 2.0)";
    "CREATE VIEW fuzz_cheap AS SELECT name FROM fuzz_tariff WHERE pct < 3.0";
    "VALIDTIME [DATE '2010-03-01', DATE '2010-04-01') UPDATE fuzz_tariff SET \
     pct = 9.9 WHERE name = 'base'";
    "VALIDTIME [DATE '2010-04-01', DATE '2010-05-01') DELETE FROM fuzz_tariff \
     WHERE name = 'extra'";
    "CREATE TABLE fuzz_product (sku VARCHAR(10), name VARCHAR(20)) WITH \
     VALIDTIME TEMPORAL PRIMARY KEY (sku)";
    "INSERT INTO fuzz_product (sku, name, begin_time, end_time) VALUES ('a', \
     'A', DATE '2010-01-01', DATE '9999-12-31'), ('b', 'B', DATE \
     '2010-01-01', DATE '9999-12-31')";
    "CREATE TABLE fuzz_stock (sku VARCHAR(10), qty INT) WITH VALIDTIME \
     TEMPORAL PRIMARY KEY (sku) TEMPORAL FOREIGN KEY (sku) REFERENCES \
     fuzz_product (sku)";
    "TEMPORAL MERGE INTO fuzz_stock USING (SELECT 'a' AS sku, 10 AS qty, DATE \
     '2010-01-01' AS begin_time, DATE '2010-06-01' AS end_time) MODE UPSERT";
    "TEMPORAL MERGE INTO fuzz_stock USING (SELECT 'a' AS sku, 12 AS qty, DATE \
     '2010-03-01' AS begin_time, DATE '2010-04-01' AS end_time) MODE PATCH";
    "TEMPORAL MERGE INTO fuzz_stock USING (SELECT 'b' AS sku, 3 AS qty, DATE \
     '2010-02-01' AS begin_time, DATE '2010-05-01' AS end_time) MODE REPLACE";
  ]

(* A bitemporal table written over three transaction days, so crash
   points land among new versions, closes of versions recorded on an
   earlier day, in-place rewrites and removals of same-day versions. *)
let fuzz_ledger =
  [
    ( 0,
      "CREATE TABLE fuzz_ledger (acct VARCHAR(10), bal INT) WITH VALIDTIME AND \
       TRANSACTIONTIME" );
    ( 0,
      "INSERT INTO fuzz_ledger (acct, bal, begin_time, end_time) VALUES ('a', \
       100, DATE '2010-01-01', DATE '9999-12-31'), ('b', 50, DATE \
       '2010-01-01', DATE '9999-12-31'), ('c', 7, DATE '2010-01-01', DATE \
       '9999-12-31')" );
    ( 1,
      "VALIDTIME [DATE '2010-03-01', DATE '2010-06-01') UPDATE fuzz_ledger SET \
       bal = bal + 10 WHERE acct <> 'c'" );
    (1, "UPDATE fuzz_ledger SET bal = bal * 2 WHERE acct = 'a'");
    (2, "DELETE FROM fuzz_ledger WHERE acct = 'b'");
    (2, "UPDATE fuzz_ledger SET bal = 0 WHERE acct = 'c'");
    (2, "DELETE FROM fuzz_ledger WHERE acct = 'c'");
  ]

(* (transaction day counted from the dataset's now, statement), ending
   with benchmark queries over a 1-month context (temp-table churn). *)
let fuzz_workload qids =
  let context = (Date.of_ymd ~y:2010 ~m:6 ~d:1, Date.of_ymd ~y:2010 ~m:7 ~d:1) in
  List.map (fun sql -> (0, sql)) fuzz_dml
  @ fuzz_ledger
  @ List.map (fun id -> (2, Queries.sequenced ~context (Queries.find id))) qids

(* On each of DS1-DS3 the workload runs against a durable store whose
   every write is under a seeded byte budget: 120 + 90 + 90 crash
   points.  Recovery from each torn directory must reproduce the
   database exactly as of some committed-statement prefix, and a
   resumed store must commit on top of it and re-recover to the same
   state. *)
let recovery_fuzz ?(jobs = 1) ?compile () =
  let all_ids = List.map (fun (q : Queries.t) -> q.Queries.id) Queries.all in
  let plan =
    [
      (Datasets.DS1, fuzz_workload all_ids, 120);
      (Datasets.DS2, fuzz_workload [ "q2"; "q5"; "q8"; "q11"; "q17"; "q19" ],
       90);
      (Datasets.DS3, fuzz_workload [ "q3"; "q6"; "q9"; "q14"; "q17b"; "q20" ],
       90);
    ]
  in
  let policy = Wal.Batch 8 and snapshot_every = 8 in
  let violations = ref [] and trials = ref 0 in
  let violation fmt =
    Printf.ksprintf (fun m -> violations := m :: !violations) fmt
  in
  List.iter
    (fun (ds, workload, n_points) ->
      let name = Datasets.ds_to_string ds in
      let base = Datasets.load { Datasets.ds; size = Taupsm.Heuristic.Small } in
      Queries.install base;
      let opts = (Engine.catalog base).Sqleval.Catalog.options in
      opts.Sqleval.Catalog.jobs <- jobs;
      Option.iter (fun c -> opts.Sqleval.Catalog.compile <- c) compile;
      (* Auto strategy + memoized constant periods: each query records a
         calibration entry, so every leg's WAL carries aux records and
         crash points land inside and around them.  Each statement runs
         once per leg, so no arm reaches the measured state and every
         choice stays a pure function of (statement, catalog): the legs
         remain deterministic replicas. *)
      opts.Sqleval.Catalog.auto_strategy <- true;
      opts.Sqleval.Catalog.memoize_constant_periods <- true;
      let run_step e (day, sql) =
        Engine.set_now e (Date.add_days (Engine.now base) day);
        ignore (Stratum.exec_sql e sql)
      in
      (* golden run: prefix states keyed by commit serial *)
      let golden_dir = tmp_dir "fuzz_gold" in
      let e = Engine.copy base in
      let h = Persist.attach ~policy ~snapshot_every ~dir:golden_dir e in
      let prefixes = Hashtbl.create 64 in
      let record () =
        Hashtbl.replace prefixes
          (Store.serial (Persist.store h))
          (Database.copy (Engine.database e))
      in
      record ();
      List.iter
        (fun step ->
          run_step e step;
          record ())
        workload;
      Persist.detach h;
      rm_rf golden_dir;
      (* total durable bytes, via a huge armed budget that never fires *)
      let total =
        let big = 1 lsl 30 in
        Fault.arm_crash ~at_bytes:big;
        let dir = tmp_dir "fuzz_measure" in
        let e = Engine.copy base in
        let h = Persist.attach ~policy ~snapshot_every ~dir e in
        List.iter (run_step e) workload;
        Persist.detach h;
        rm_rf dir;
        let remaining = Option.value ~default:0 (Fault.crash_armed ()) in
        Fault.disarm_crash ();
        big - remaining
      in
      let rng = Random.State.make [| 0x7a5; Hashtbl.hash ds |] in
      for _ = 1 to n_points do
        incr trials;
        let at_bytes = Random.State.int rng total in
        let dir = tmp_dir "fuzz" in
        Fault.arm_crash ~at_bytes;
        let crashed_in_attach = ref false in
        (try
           let e = Engine.copy base in
           let h =
             try Persist.attach ~policy ~snapshot_every ~dir e
             with Fault.Crash _ ->
               crashed_in_attach := true;
               raise Exit
           in
           (try List.iter (run_step e) workload with Fault.Crash _ -> ());
           (* detach flushes dirty aux records (calibration), so the
              budget can fire here too: a crash during the final flush,
              validated like any other *)
           try
             if not (Store.is_dead (Persist.store h)) then Persist.detach h
           with Fault.Crash _ -> ()
         with Exit -> ());
        Fault.disarm_crash ();
        (* a crash before the first snapshot landed is durably nothing *)
        if not (!crashed_in_attach && not (Store.exists dir)) then begin
          match Persist.recover ~dir () with
          | exception exn ->
              violation "%s crash@%d: recovery raised %s" name at_bytes
                (Printexc.to_string exn)
          | e', report -> (
              let s = report.Store.last_serial in
              match Hashtbl.find_opt prefixes s with
              | None ->
                  violation "%s crash@%d: serial %d is not a committed prefix"
                    name at_bytes s
              | Some g -> (
                  match Resilient.db_diff g (Engine.database e') with
                  | Some diff ->
                      violation "%s crash@%d serial=%d: %s" name at_bytes s diff
                  | None -> (
                      (* second leg, crash -> recover -> resume -> commit ->
                         recover: resume must not keep intact-but-
                         uncommitted orphan records past the last commit
                         marker, or the probe's marker would adopt them *)
                      match
                        Stratum.install e';
                        let h' =
                          Persist.resume ~policy ~snapshot_every ~dir e' report
                        in
                        List.iter
                          (fun sql -> ignore (Stratum.exec_sql e' sql))
                          [
                            "CREATE TABLE fuzz_probe (x INT)";
                            "INSERT INTO fuzz_probe VALUES (1)";
                          ];
                        Persist.detach h';
                        let e'', _ = Persist.recover ~dir () in
                        Resilient.db_diff (Engine.database e')
                          (Engine.database e'')
                      with
                      | None -> ()
                      | Some diff ->
                          violation "%s crash@%d: resume leg diverges: %s" name
                            at_bytes diff
                      | exception exn ->
                          violation "%s crash@%d: resume leg raised %s" name
                            at_bytes (Printexc.to_string exn))))
        end;
        rm_rf dir
      done)
    plan;
  Alcotest.(check int) "crash points" 300 !trials;
  Alcotest.(check (list string)) "prefix violations" [] (List.rev !violations)

(* ------------------------------------------------------------------ *)
(* Monotonic clock                                                     *)
(* ------------------------------------------------------------------ *)

let test_mono_clock () =
  (* an injectable source that steps backwards must never make the
     clock retreat *)
  let steps = ref [ 10.0; 20.0; 15.0; 5.0; 25.0 ] in
  Mono_clock.set_source (fun () ->
      match !steps with
      | [] -> 30.0
      | t :: rest ->
          steps := rest;
          t);
  let a = Mono_clock.now () in
  let b = Mono_clock.now () in
  let c = Mono_clock.now () in
  let d = Mono_clock.now () in
  let e = Mono_clock.now () in
  Mono_clock.use_wall_clock ();
  Alcotest.(check (list (float 0.0)))
    "never decreases"
    [ 10.0; 20.0; 20.0; 20.0; 25.0 ]
    [ a; b; c; d; e ];
  (* back on the wall clock, the guard deadline still fires (and the
     reset in set_source means history from the test source cannot pin
     the clock) *)
  let t1 = Mono_clock.now () in
  let t2 = Mono_clock.now () in
  Alcotest.(check bool) "wall clock moves forward" true (t2 >= t1 && t1 > 25.0)

let suite =
  [
    ( "durable-codec",
      [
        Alcotest.test_case "crc32 golden vectors" `Quick test_crc32_goldens;
        Alcotest.test_case "pinned record bytes" `Quick test_pinned_record_bytes;
        Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage;
      ]
      @ codec_qcheck_tests );
    ( "durable-wal",
      [
        Alcotest.test_case "scan clean file" `Quick test_wal_scan_clean;
        Alcotest.test_case "scan torn tail" `Quick test_wal_scan_torn_tail;
        Alcotest.test_case "scan bad crc" `Quick test_wal_scan_bad_crc;
        Alcotest.test_case "reopen truncates + appends" `Quick
          test_wal_reopen_appends;
      ] );
    ( "durable-recovery",
      [
        Alcotest.test_case "crash at exact boundaries" `Slow
          test_crash_at_exact_boundaries;
        Alcotest.test_case "corrupt mid-wal stops at prefix" `Quick
          test_corrupt_mid_wal;
        Alcotest.test_case "snapshot generation fallback" `Quick
          test_snapshot_fallback;
        Alcotest.test_case "resume continues the log" `Quick
          test_resume_continues;
        Alcotest.test_case "resume discards uncommitted tail" `Quick
          test_resume_discards_uncommitted_tail;
        Alcotest.test_case "nested rollback drops WAL events" `Quick
          test_nested_rollback_drops_wal_events;
        Alcotest.test_case "bad commit group fails loudly" `Quick
          test_bad_group_fails_loudly;
        Alcotest.test_case "snapshot equivalence (16 queries)" `Slow
          test_snapshot_equivalence_queries;
        Alcotest.test_case "recovery fuzz (default): 300 crash points" `Slow
          (fun () -> recovery_fuzz ());
        Alcotest.test_case "recovery fuzz (jobs 4): 300 crash points" `Slow
          (fun () -> recovery_fuzz ~jobs:4 ());
        Alcotest.test_case "recovery fuzz (interpreted): 300 crash points"
          `Slow
          (fun () -> recovery_fuzz ~compile:false ());
      ]
      @ crash_qcheck_tests );
    ( "durable-clock",
      [ Alcotest.test_case "monotonic clock" `Quick test_mono_clock ] );
  ]
