(* The four workloads.  Their statement streams are generated from the
   seed; the engine receives only statement text.  The τBench dataset
   is the one its default seed generates, so that a run's numbers move
   with the statements it draws and not with the data under them.

   Engine options are those of the CLI (bin/taupsm_cli.ml) defaults:
   Auto strategy, constant-period memo, plan compilation, one job.
   Direct durable runs use --wal-sync batch:16, and the server runs
   group sync with 4 workers and batches of at most 64.

   A workload sets up several times and reports the median set-up
   time, then measures for the configured seconds.  A traced run splits
   those seconds into an untraced half, the baseline for the tracing
   overhead, and a traced half that yields the per-layer metrics. *)

module Engine = Sqleval.Engine
module Persist = Sqleval.Persist
module Stratum = Taupsm.Stratum
module Date = Sqldb.Date
module Datasets = Taubench.Datasets
module Queries = Taubench.Queries
module Prng = Taubench.Prng

let now = Mono_clock.now

type config = {
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool; (* tiny datasets and a single set-up *)
  dir : string; (* scratch directory for durable stores *)
}

(* What one measured phase produced. *)
type phase = {
  mutable reads : (string * float) list; (* statement class, ms *)
  mutable writes : float list; (* ms *)
  mutable elapsed : float; (* seconds measured *)
  mutable attempted : int;
  mutable failed : int;
}

type outcome = {
  setup_s : float;
  untraced : phase;
  traced : (phase * Layers.t) option;
  checks : (string * bool) list;
  info : (string * float * string) list;
      (* measured and printed, but not part of the declared metric set
         because not every workload has them *)
}

let new_phase () =
  { reads = []; writes = []; elapsed = 0.; attempted = 0; failed = 0 }

let ms s = 1000. *. s

let merge_phase ~into p =
  into.reads <- p.reads @ into.reads;
  into.writes <- p.writes @ into.writes;
  into.attempted <- into.attempted + p.attempted;
  into.failed <- into.failed + p.failed

(* Run one statement, counting it and any failure. *)
let attempt ph f =
  ph.attempted <- ph.attempted + 1;
  match f () with
  | r -> Some r
  | exception e ->
      ph.failed <- ph.failed + 1;
      prerr_endline ("statement failed: " ^ Taupsm.Resilient.error_message e);
      None

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let cli_options e =
  let o = (Engine.catalog e).Sqleval.Catalog.options in
  o.Sqleval.Catalog.auto_strategy <- true;
  o.Sqleval.Catalog.memoize_constant_periods <- true;
  o.Sqleval.Catalog.compile <- true;
  o.Sqleval.Catalog.jobs <- 1

let load cfg =
  let size =
    if cfg.smoke then Taupsm.Heuristic.Small else Taupsm.Heuristic.Large
  in
  let spec = { Datasets.ds = Datasets.DS1; size } in
  let e = Datasets.load ~seed:Datasets.default_seed spec in
  Queries.install e;
  cli_options e;
  e

(* Set up at least three times and until a second has gone into it (at
   most 50 times), keep the last state, and report the median time. *)
let setup_median cfg build teardown =
  let rec go i times =
    let t0 = now () in
    let st = build i in
    let times = (now () -. t0) :: times in
    let total = List.fold_left ( +. ) 0. times in
    if cfg.smoke || (i >= 2 && (total >= 1. || i >= 49)) then
      (Stats.median times, st)
    else begin
      teardown st;
      Gc.full_major ();
      go (i + 1) times
    end
  in
  go 0 []

(* Untraced phase, then (when tracing) the traced phase. *)
let measure cfg phase =
  let half = if cfg.trace then cfg.seconds /. 2. else cfg.seconds in
  let untraced = phase (Layers.create ~on:false) half in
  let traced =
    if cfg.trace then begin
      let l = Layers.create ~on:true in
      Some (phase l half, l)
    end
    else None
  in
  (untraced, traced)

(* Days from the first simulated day, 2010-01-01. *)
let day n = Date.add_days Taubench.Dcsd.base_date n
let date_lit d = Printf.sprintf "DATE '%s'" (Date.to_string d)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* The 16 queries in rounds, each round in a fresh seeded order: every
   query runs equally often, so throughput does not depend on how often
   a draw happened to pick the slow ones. *)
let query_rounds rng =
  let order = Array.of_list Queries.all in
  let pos = ref 0 in
  fun () ->
    if !pos = 0 then shuffle rng order;
    let q = order.(!pos) in
    pos := (!pos + 1) mod Array.length order;
    q

(* [k] distinct integers in [lo, lo + n). *)
let distinct rng ~k ~lo ~n =
  let seen = Hashtbl.create k in
  let rec go acc =
    if List.length acc = k then List.rev acc
    else
      let x = lo + Prng.int rng n in
      if Hashtbl.mem seen x then go acc
      else begin
        Hashtbl.add seen x ();
        go (x :: acc)
      end
  in
  go []

(* ------------------------------------------------------------------ *)
(* Correctness: Auto against forced MAX                                *)
(* ------------------------------------------------------------------ *)

let sorted_rows = function
  | Sqleval.Eval.Rows rs ->
      List.sort compare (Stratum.coalesce_result rs).Sqleval.Result_set.rows
  | _ -> []

(* Each sampled (statement, Auto result) must equal forced MAX on a
   copy of the engine, as sorted rows of the coalesced result. *)
let auto_matches_max e samples =
  let copy = Engine.copy e in
  let max_rows = Hashtbl.create 32 in
  List.for_all
    (fun (sql, auto) ->
      let expect =
        match Hashtbl.find_opt max_rows sql with
        | Some r -> r
        | None ->
            let r =
              sorted_rows
                (Stratum.exec ~strategy:Stratum.Max copy
                   (Sqlparse.Parser.parse_temporal_stmt sql))
            in
            Hashtbl.add max_rows sql r;
            r
      in
      let ok = sorted_rows auto = expect in
      if not ok then prerr_endline ("Auto differs from forced MAX: " ^ sql);
      ok)
    samples

let samples_wanted = 32

(* A closed loop of direct statements on one engine until [seconds]
   pass; [next ()] gives the statement class, its text, and whether to
   keep its result as a correctness sample. *)
let direct_loop layers e ~seconds ~samples next =
  let ph = new_phase () in
  Layers.observe layers e;
  let t0 = now () in
  while now () -. t0 < seconds do
    let cls, sql, keep = next () in
    let run () = Layers.timed layers (fun () -> Layers.exec layers e sql) in
    match attempt ph run with
    | Some (r, dt) ->
        ph.reads <- (cls, ms dt) :: ph.reads;
        if keep && List.length !samples < samples_wanted then
          samples := (sql, r) :: !samples
    | None -> ()
  done;
  ph.elapsed <- now () -. t0;
  Layers.absorb layers (Sqleval.Catalog.trace (Engine.catalog e));
  ph

(* ------------------------------------------------------------------ *)
(* report-1y                                                           *)
(* ------------------------------------------------------------------ *)

(* The 16 queries over the 1-year context from 2010-06-01 that the
   paper's figures use, in closed-loop rounds of a seeded order, after a
   warm-up that runs each query until Auto decides from calibration
   (q17b, which PERST cannot express, never gets there and is run
   once). *)
let report cfg =
  let context = (day 151, day (151 + 365)) in
  let query = query_rounds (Prng.create ~seed:cfg.seed) in
  let warm e =
    List.iter
      (fun (q : Queries.t) ->
        let ts =
          Sqlparse.Parser.parse_temporal_stmt (Queries.sequenced ~context q)
        in
        let rec go n =
          ignore (Stratum.exec e ts);
          if n > 1 && snd (Stratum.decide e ts) <> Stratum.Calibrated then
            go (n - 1)
        in
        go (if q.Queries.perst_supported then 8 else 1))
      Queries.all
  in
  let setup_s, e =
    setup_median cfg
      (fun _ ->
        let e = load cfg in
        warm e;
        e)
      ignore
  in
  let samples = ref [] in
  let next () =
    let q = query () in
    (q.Queries.id, Queries.sequenced ~context q, true)
  in
  let untraced, traced =
    measure cfg (fun layers seconds ->
        direct_loop layers e ~seconds ~samples next)
  in
  let checks =
    [ ("report-1y: Auto = forced MAX", auto_matches_max e !samples) ]
  in
  { setup_s; untraced; traced; checks; info = [] }

(* ------------------------------------------------------------------ *)
(* adhoc-ctx                                                           *)
(* ------------------------------------------------------------------ *)

(* Each query over a random 1-30 day context anywhere in the two
   simulated years: every statement is new to the plan cache. *)
let adhoc cfg =
  let rng = Prng.create ~seed:cfg.seed in
  let query = query_rounds rng in
  let setup_s, e = setup_median cfg (fun _ -> load cfg) ignore in
  let samples = ref [] in
  let next () =
    let q = query () in
    let days = 1 + Prng.int rng 30 in
    let start = Prng.int rng (730 - days) in
    let keep = Prng.int rng 8 = 0 in
    let context = (day start, day (start + days)) in
    (q.Queries.id, Queries.sequenced ~context q, keep)
  in
  let untraced, traced =
    measure cfg (fun layers seconds ->
        direct_loop layers e ~seconds ~samples next)
  in
  let checks =
    [ ("adhoc-ctx: Auto = forced MAX", auto_matches_max e !samples) ]
  in
  { setup_s; untraced; traced; checks; info = [] }

(* ------------------------------------------------------------------ *)
(* ingest-merge                                                        *)
(* ------------------------------------------------------------------ *)

let sku i = Printf.sprintf "sku%04d" i

let ingest_schema =
  [
    "CREATE TABLE product (sku VARCHAR(10), name VARCHAR(30)) WITH VALIDTIME \
     TEMPORAL PRIMARY KEY (sku)";
    "CREATE TABLE stock (sku VARCHAR(10), qty INT, note VARCHAR(20)) WITH \
     VALIDTIME TEMPORAL PRIMARY KEY (sku) TEMPORAL FOREIGN KEY (sku) \
     REFERENCES product (sku)";
    "CREATE FUNCTION low_stock_count (t INTEGER) RETURNS INTEGER BEGIN RETURN \
     (SELECT COUNT(*) FROM stock WHERE qty < t); END";
    "CREATE FUNCTION sku_qty (k VARCHAR(10)) RETURNS INTEGER BEGIN RETURN \
     (SELECT qty FROM stock WHERE sku = k); END";
  ]

(* Product and stock for [n] SKUs; each SKU's stock has two periods. *)
let ingest_base n =
  let e = Engine.create ~now:Datasets.now_date () in
  Stratum.install e;
  cli_options e;
  let exec sql = ignore (Stratum.exec_sql e sql) in
  List.iter exec ingest_schema;
  let values f = String.concat ", " (List.concat (List.init n f)) in
  exec
    ("INSERT INTO product (sku, name, begin_time, end_time) VALUES "
    ^ values (fun i ->
          [
            Printf.sprintf
              "('%s', 'P%d', DATE '2010-01-01', DATE '9999-12-31')" (sku i) i;
          ]));
  exec
    ("INSERT INTO stock (sku, qty, note, begin_time, end_time) VALUES "
    ^ values (fun i ->
          [
            Printf.sprintf
              "('%s', %d, 'load', DATE '2010-01-01', DATE '2011-01-01')"
              (sku i) (i mod 100);
            Printf.sprintf
              "('%s', %d, 'load', DATE '2011-01-01', DATE '9999-12-31')"
              (sku i)
              (i * 7 mod 100);
          ]));
  e

(* Statement [i] of an epoch: one in eight is a sequenced 1-month read
   calling a PSM function over stock; the rest are PATCH merges of 20
   distinct SKUs over random periods. *)
let ingest_stmt rng ~skus i =
  if i mod 8 = 7 then begin
    let start = Prng.int rng 700 in
    let ctx =
      Printf.sprintf "VALIDTIME [%s, %s)"
        (date_lit (day start))
        (date_lit (day (start + 30)))
    in
    if Prng.bool rng then
      ( "low_stock_count",
        Printf.sprintf
          "%s SELECT low_stock_count(%d) AS n FROM product WHERE sku = '%s'" ctx
          (1 + Prng.int rng 10)
          (sku (Prng.int rng skus)) )
    else
      let keys = distinct rng ~k:3 ~lo:0 ~n:skus in
      ( "sku_qty",
        Printf.sprintf
          "%s SELECT p.sku, sku_qty(p.sku) AS qty FROM product p WHERE p.sku \
           IN (%s)"
          ctx
          (String.concat ", " (List.map (fun k -> "'" ^ sku k ^ "'") keys)) )
  end
  else
    let row k =
      let start = Prng.int rng 700 in
      Printf.sprintf
        "SELECT '%s' AS sku, %d AS qty, %s AS begin_time, %s AS end_time"
        (sku k) (Prng.int rng 100)
        (date_lit (day start))
        (date_lit (day (start + 1 + Prng.int rng 60)))
    in
    let rows = List.map row (distinct rng ~k:20 ~lo:0 ~n:skus) in
    ( "merge",
      Printf.sprintf "TEMPORAL MERGE INTO stock USING (%s) MODE PATCH"
        (String.concat " UNION ALL " rows) )

(* A CDC-style feed in epochs: each epoch starts from a copy of the
   preloaded tables with a fresh store and runs a fixed number of
   statements, so the table sizes a statement sees do not depend on how
   fast earlier statements ran.  Starting an epoch is not measured. *)
let ingest cfg =
  let skus = if cfg.smoke then 100 else 2000 in
  let epoch_len = if cfg.smoke then 16 else 320 in
  let setup_s, base = setup_median cfg (fun _ -> ingest_base skus) ignore in
  let epochs = ref 0 in
  let recovered_ok = ref true and recover_s = ref [] and store_mb = ref [] in
  (* the last epoch's store must recover to the live tables *)
  let check_store layers (e, dir) =
    let mb = float_of_int (Layers.dir_bytes dir) /. 1e6 in
    Layers.set layers "durable.store_mb" mb;
    let r, dt = Layers.recover layers ~dir in
    (match
       Taupsm.Resilient.db_diff (Engine.database e) (Engine.database r)
     with
    | None -> ()
    | Some diff ->
        recovered_ok := false;
        prerr_endline ("ingest-merge: recovered store differs: " ^ diff));
    recover_s := dt :: !recover_s;
    store_mb := mb :: !store_mb;
    rm_rf dir
  in
  let phase layers seconds =
    let ph = new_phase () in
    let last = ref None in
    while ph.elapsed < seconds do
      let k = !epochs in
      incr epochs;
      let rng = Prng.create ~seed:((cfg.seed * 7919) + k) in
      let dir = Filename.concat cfg.dir (Printf.sprintf "epoch%d" k) in
      let e = Engine.copy base in
      Layers.observe layers e;
      let h = Persist.attach ~policy:(Durable.Wal.Batch 16) ~dir e in
      let t0 = now () in
      let i = ref 0 in
      while !i < epoch_len && ph.elapsed +. (now () -. t0) < seconds do
        let cls, sql = ingest_stmt rng ~skus !i in
        let run () = Layers.timed layers (fun () -> Layers.exec layers e sql) in
        (match attempt ph run with
        | Some (_, dt) when cls = "merge" -> ph.writes <- ms dt :: ph.writes
        | Some (_, dt) -> ph.reads <- (cls, ms dt) :: ph.reads
        | None -> ());
        incr i
      done;
      ph.elapsed <- ph.elapsed +. (now () -. t0);
      Persist.detach h;
      Layers.absorb layers (Sqleval.Catalog.trace (Engine.catalog e));
      Option.iter (fun (_, dir) -> rm_rf dir) !last;
      last := Some (e, dir)
    done;
    Option.iter (check_store layers) !last;
    ph
  in
  let untraced, traced = measure cfg phase in
  {
    setup_s;
    untraced;
    traced;
    checks =
      [ ("ingest-merge: recovered store = live database", !recovered_ok) ];
    info =
      [
        ("recover_s", Stats.median !recover_s, "s");
        ("store_mb", Stats.median !store_mb, "MB");
      ];
  }

(* ------------------------------------------------------------------ *)
(* serve-mixed                                                         *)
(* ------------------------------------------------------------------ *)

type server = {
  master : Engine.t;
  store : string;
  srv : Serve.Server.t;
  handle : Thread.t * int ref;
  reader : Serve.Client.t;
  writer : Serve.Client.t;
}

let write_rate = 20.

(* As `taupsm serve` runs by default, on an ephemeral port. *)
let server_config =
  {
    Serve.Server.default_config with
    port = 0;
    workers = 4;
    stmt_deadline = None;
    lane =
      {
        Serve.Commit_lane.default_config with
        max_batch = 64;
        sync_each = false;
      };
  }

let start_server cfg i =
  let master = load cfg in
  let store = Filename.concat cfg.dir (Printf.sprintf "serve%d" i) in
  (* group sync: the commit lane issues the fsyncs *)
  let h = Persist.attach ~policy:Durable.Wal.Off ~dir:store master in
  let srv =
    Serve.Server.create ~cfg:server_config ~engine:master ~persist:h ()
  in
  let handle = Serve.Server.run_async srv in
  let port = Serve.Server.port srv in
  let reader = Serve.Client.connect ~port () in
  let writer = Serve.Client.connect ~port () in
  { master; store; srv; handle; reader; writer }

(* Close the sessions and drain; the server's exit code. *)
let stop_server s =
  Serve.Client.close s.reader;
  Serve.Client.close s.writer;
  Serve.Server.request_drain s.srv;
  Serve.Server.wait s.handle

let row_bag = function
  | Sqleval.Eval.Rows rs ->
      let row r =
        Serve.Json.to_string
          (Serve.Json.List
             (Array.to_list (Array.map Serve.Wire.json_of_value r)))
      in
      Some (List.sort compare (List.map row rs.Sqleval.Result_set.rows))
  | _ -> None

(* The 16 queries served (forced MAX) must equal the direct engine. *)
let served_matches_direct cfg s =
  let direct = Engine.copy s.master in
  let start = Prng.int (Prng.create ~seed:cfg.seed) 700 in
  List.for_all
    (fun q ->
      let sql = Queries.sequenced ~context:(day start, day (start + 30)) q in
      let served =
        Serve.Client.row_bag (Serve.Client.stmt ~strategy:"max" s.reader sql)
      in
      let expect =
        row_bag
          (Stratum.exec ~strategy:Stratum.Max direct
             (Sqlparse.Parser.parse_temporal_stmt sql))
      in
      let ok = served <> None && served = expect in
      if not ok then prerr_endline ("served differs from direct: " ^ sql);
      ok)
    Queries.all

let price_fix rng ~items =
  let row id =
    let start = Prng.int rng 700 in
    Printf.sprintf
      "SELECT %d AS id, %.2f AS price, %s AS begin_time, %s AS end_time" id
      (5. +. Prng.float rng 95.)
      (date_lit (day start))
      (date_lit (day (start + 7 + Prng.int rng 60)))
  in
  let rows = List.map row (distinct rng ~k:10 ~lo:1 ~n:items) in
  Printf.sprintf "TEMPORAL MERGE INTO item USING (%s) MODE PATCH KEY (id)"
    (String.concat " UNION ALL " rows)

(* Two sessions on an in-process server: an open-loop writer sending
   price corrections at [write_rate], each timed from its due time, and
   a closed-loop reader running the queries in rounds over random
   14-day contexts until the writer is done. *)
let serve cfg =
  let items = if cfg.smoke then 40 else 400 in
  let setup_s, s =
    setup_median cfg (start_server cfg) (fun s ->
        ignore (stop_server s);
        rm_rf s.store)
  in
  let preflight = served_matches_direct cfg s in
  let rng = Prng.create ~seed:cfg.seed in
  let query = query_rounds rng in
  let phase layers seconds =
    let on = layers.Layers.on in
    let rl = Layers.create ~on and wl = Layers.create ~on in
    let rph = new_phase () and wph = new_phase () in
    let n_writes = int_of_float (seconds *. write_rate) in
    let wsql = Array.init n_writes (fun _ -> price_fix rng ~items) in
    (* the lane is idle between phases, so its engine's options can change *)
    Layers.observe layers s.master;
    let lane0 = Layers.lane_stats s.reader in
    let writing = Atomic.make true in
    let t0 = now () in
    let writer () =
      Array.iteri
        (fun i sql ->
          let due = t0 +. (float_of_int i /. write_rate) in
          let wait = due -. now () in
          if wait > 0. then Thread.delay wait;
          Layers.count wl "merge.stmts" 1.;
          if now () -. due > 0.005 then Layers.count wl "serve.late_writes" 1.;
          let send () =
            fst (Layers.timed wl (fun () -> Layers.served wl s.writer sql))
          in
          match attempt wph send with
          | Some resp when Serve.Client.ok resp ->
              wph.writes <- ms (now () -. due) :: wph.writes
          | Some resp ->
              wph.failed <- wph.failed + 1;
              prerr_endline ("write failed: " ^ Serve.Json.to_string resp)
          | None -> ())
        wsql;
      Atomic.set writing false
    in
    let reader () =
      while Atomic.get writing do
        let q = query () in
        let start = Prng.int rng (730 - 14) in
        let sql = Queries.sequenced ~context:(day start, day (start + 14)) q in
        let send () =
          Layers.timed rl (fun () -> Layers.served rl s.reader sql)
        in
        match attempt rph send with
        | Some (resp, dt) when Serve.Client.ok resp ->
            rph.reads <- (q.Queries.id, ms dt) :: rph.reads
        | Some (resp, _) ->
            rph.failed <- rph.failed + 1;
            prerr_endline ("read failed: " ^ Serve.Json.to_string resp)
        | None -> ()
      done
    in
    List.iter Thread.join [ Thread.create writer (); Thread.create reader () ];
    let ph = new_phase () in
    ph.elapsed <- now () -. t0;
    merge_phase ~into:ph rph;
    merge_phase ~into:ph wph;
    Layers.merge ~into:layers rl;
    Layers.merge ~into:layers wl;
    let lane1 = Layers.lane_stats s.reader in
    let delta k = lane1 k -. lane0 k in
    List.iter
      (fun k -> Layers.count layers ("lane." ^ k) (delta k))
      [ "fsyncs"; "committed"; "batches" ];
    Layers.set layers "lane.max_batch" (lane1 "max_batch");
    (* the master engine runs what the lane commits: the writes, and the
       reads whose routines write temporary tables *)
    let acked = float_of_int (List.length wph.writes) in
    Layers.count layers "engine.stmts" (delta "committed");
    Layers.count layers "serve.reads" (float_of_int (List.length rph.reads));
    Layers.count layers "serve.lane_reads" (delta "committed" -. acked);
    Layers.absorb layers (Sqleval.Catalog.trace (Engine.catalog s.master));
    ph
  in
  let untraced, traced = measure cfg phase in
  let code = stop_server s in
  let layers =
    match traced with Some (_, l) -> l | None -> Layers.create ~on:false
  in
  let mb = float_of_int (Layers.dir_bytes s.store) /. 1e6 in
  Layers.set layers "durable.store_mb" mb;
  let r, recover_s = Layers.recover layers ~dir:s.store in
  let diff =
    Taupsm.Resilient.db_diff (Engine.database s.master) (Engine.database r)
  in
  Option.iter
    (fun d -> prerr_endline ("serve-mixed: recovered store differs: " ^ d))
    diff;
  rm_rf s.store;
  {
    setup_s;
    untraced;
    traced;
    checks =
      [
        ("serve-mixed: served = direct (16 queries)", preflight);
        ("serve-mixed: drained cleanly", code = 0);
        ("serve-mixed: recovered store = master", diff = None);
      ];
    info = [ ("recover_s", recover_s, "s"); ("store_mb", mb, "MB") ];
  }

let all =
  [
    ("report-1y", report);
    ("adhoc-ctx", adhoc);
    ("ingest-merge", ingest);
    ("serve-mixed", serve);
  ]
