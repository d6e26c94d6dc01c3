(* The engine-level catalog: storage tables plus views and stored
   routines (which carry ASTs, so they live above lib/sqldb). *)

type routine_kind = Rfunction | Rprocedure

(* A native (OCaml-implemented) table function, installable by upper
   layers such as the temporal stratum.  [ntf_fn] receives the calling
   catalog and the evaluated argument values and produces rows matching
   [ntf_cols].  Taking the catalog as an argument (rather than closing
   over it) keeps natives valid across {!copy}. *)
type native_table_fun = {
  ntf_cols : string list;
  ntf_fn : t -> Sqldb.Value.t list -> Result_set.t;
}

and t = {
  db : Sqldb.Database.t;
  views : (string, Sqlast.Ast.query) Hashtbl.t;
  routines : (string, routine_kind * Sqlast.Ast.routine) Hashtbl.t;
  native_table_funs : (string, native_table_fun) Hashtbl.t;
  options : options;
  obs : Trace.t;
      (* the engine-wide trace sink; the storage layer shares it (see
         {!Sqldb.Database.set_observe}).  Its enabled flag mirrors
         [options.observe] — read it through {!trace}, which syncs. *)
  mutable generation : int;
      (* counts *semantic* changes to views and routines; together with
         {!Sqldb.Database.version} it forms the stratum's plan-cache
         invalidation token.  Re-registering an identical definition —
         e.g. the MAX plan re-creating its own max_ routines on every
         execution — does not bump it, and neither does the *first*
         install of a stratum-derived routine (see
         {!register_derived_prefixes}): learned calibration must survive
         the rewrite machinery's own bookkeeping. *)
  mutable derived_epoch : int;
      (* counts installs of stratum-derived routines (names matching
         {!t.derived_prefixes}).  Part of the plan-cache token — a
         derived body can change when its source routine does — but
         deliberately absent from {!plan_token}, which stamps
         calibration entries and the constant-period memo. *)
  mutable derived_prefixes : string list;
      (* lowercase name prefixes that mark a routine as
         stratum-generated rather than user DDL; registered by the
         stratum at install time so this layer needs no knowledge of
         the naming convention *)
  plan_cache :
    ( string * Sqlast.Ast.temporal_stmt,
      ((int * int * int) * (int * int)) * Sqlast.Ast.stmt list )
    Hashtbl.t;
      (* transformed-plan cache, written and read by the stratum:
         (strategy tag, temporal statement) -> (validity token, plan).
         The token is {!plan_token} plus the database's temp-table
         epoch and the catalog's derived-routine epoch: temp shadowing
         and re-derived routine bodies change what a statement
         transforms into, so cached plans must react to them even
         though the durable-schema token does not — see
         {!cache_token}.  Emptied once it holds {!plan_cache_bound}
         entries, so a stream of distinct statements cannot grow it
         without end. *)
  calibration : Calibration.t;
      (* learned MAX/PERST timings for the adaptive chooser, stamped
         with {!plan_token} per entry; persisted through the durable
         store as an aux blob (see {!Persist}).  {!read_view} and
         {!publish} share this mutex-guarded table, so a served read's
         measurement reaches the master and its next aux record;
         {!copy} takes a content copy, so engine copies never see each
         other's measurements *)
  cp_memo : Cp_memo.t;
      (* memoized constant-period point sets, token-guarded by
         (generation, database version); always fresh in copies and
         views — it re-warms from the data in one scan *)
  memo_inputs :
    ( Sqlast.Ast.select,
      (int * int * int) * (string array * Sqlast.Ast.expr array) option )
    Hashtbl.t;
      (* the evaluator's SELECT-memo verdicts (see
         [Select_plan.memo_inputs]), each stamped with the generation,
         database version and temp-table epoch it holds under, so a
         SELECT repeated inside every statement is analysed once, not
         once per statement.  Fresh in copies and views: a view's own
         temp-table churn moves its counters apart from the parent's *)
}

(* Evaluator switches, exposed for ablation experiments. *)
and options = {
  mutable hash_joins : bool;  (* opportunistic equi-join hash indexes *)
  mutable temporal_index : bool;
      (* interval-indexed period-overlap scans of temporal tables:
         O(log n + k) stabbing queries instead of full scans *)
  mutable observe : bool;
      (* execution tracing and metrics (spans, counters, events) into
         {!t.obs}; off by default — when off, instrumentation costs one
         flag test per site *)
  mutable jobs : int;
      (* read by nothing: sequenced evaluation is serial.  Kept only
         because the repository benchmark still assigns it; the next
         benchmark change deletes that assignment and then this field *)
  mutable compile : bool;
      (* closure-compilation of SELECT plans (lib/compile): when on, the
         evaluator consults the installed compiler before interpreting
         a SELECT and runs a ready closure on coverage.  Part of the
         plan-cache fingerprint, as the other evaluator switches are *)
  mutable check_constraints : bool;
      (* enforcement of declared temporal integrity constraints
         (TEMPORAL PRIMARY KEY / FOREIGN KEY) at statement commit; off
         only in tests.  Not part of the plan-cache fingerprint:
         checking happens after execution and never changes a
         transformed plan *)
  mutable memoize_constant_periods : bool;
      (* serve MAX's constant-period prep from the {!Cp_memo} cache
         (incrementally maintained under merge DML) instead of the
         per-statement taupsm_ts rebuild; changes the transformed plan's
         prep shape, so it IS part of the plan-cache fingerprint.  Off
         by default — the CLI, the repository benchmark and the
         recovery fuzz opt in *)
  mutable auto_strategy : bool;
      (* when no strategy is forced on a sequenced statement, let the
         stratum choose MAX vs PERST adaptively (§VII-F features, cost
         model, learned calibration) instead of defaulting to MAX.  Not
         part of the fingerprint: plans are cached under whichever
         strategy was chosen *)
  guards : Guard.t;
      (* resource limits (deadline, row budget, loop cap, recursion
         depth) plus the atomic-execution and PERST→MAX fallback
         switches; checked at evaluator step boundaries *)
}

exception No_such_routine of string
exception Duplicate_routine of string

let default_options () =
  {
    hash_joins = true;
    temporal_index = true;
    observe = false;
    jobs = 1;
    compile = true;
    check_constraints = true;
    memoize_constant_periods = false;
    auto_strategy = false;
    guards = Guard.default ();
  }

let create () =
  let db = Sqldb.Database.create () in
  let obs = Trace.create () in
  Sqldb.Database.set_observe db obs;
  {
    db;
    views = Hashtbl.create 16;
    routines = Hashtbl.create 16;
    native_table_funs = Hashtbl.create 4;
    options = default_options ();
    obs;
    generation = 0;
    derived_epoch = 0;
    derived_prefixes = [];
    plan_cache = Hashtbl.create 16;
    calibration = Calibration.create ();
    cp_memo = Cp_memo.create ();
    memo_inputs = Hashtbl.create 16;
  }

(* The catalog's trace sink with its enabled flag synced to
   [options.observe].  Hot paths bind this once per statement and then
   test [Trace.enabled] directly. *)
let trace cat =
  Trace.set_enabled cat.obs cat.options.observe;
  cat.obs

let key = String.lowercase_ascii

(* View / routine registration journals an undo entry through the
   database's journal whenever the definition *semantically* changes, so
   a rolled-back execution also restores the catalog (and re-bumps the
   generation, keeping cached plans conservatively invalid).

   The same semantic-change condition gates durability: the definition
   is pretty-printed back to one conventional SQL statement and funneled
   through the database's WAL hook as an opaque [Catalog_ddl] event
   (recovery re-parses and re-registers it).  Identical re-registration
   — the MAX plan re-creating its own max_ routines on every execution —
   writes nothing, keeping the WAL proportional to real DDL. *)
let add_view cat name q =
  let k = key name in
  let prev = Hashtbl.find_opt cat.views k in
  if prev <> Some q then begin
    cat.generation <- cat.generation + 1;
    Undo_log.log
      (Sqldb.Database.undo cat.db)
      (fun () ->
        (match prev with
        | None -> Hashtbl.remove cat.views k
        | Some v -> Hashtbl.replace cat.views k v);
        cat.generation <- cat.generation + 1);
    Sqldb.Database.wal_emit cat.db
      (Sqldb.Wal_hook.Catalog_ddl
         (Sqlast.Pretty.stmt_to_string (Sqlast.Ast.Screate_view (name, q))))
  end;
  Hashtbl.replace cat.views k q

let find_view cat name = Hashtbl.find_opt cat.views (key name)

(* What a FROM item's name denotes: a table — temporary first, then
   base, as temp shadowing means — and only when there is none, a view.
   Every layer that resolves a FROM name (evaluator, planner, analysis,
   the temporal transformations) asks here, so a view and a table of
   the same name mean the same thing on every path. *)
let resolve_from cat name =
  match Sqldb.Database.find_table cat.db name with
  | Some t -> `Table t
  | None -> (
      match find_view cat name with Some q -> `View q | None -> `Unknown)

(* The view a FROM item's name reads, if it reads one (see
   {!resolve_from}). *)
let from_view cat name =
  match resolve_from cat name with
  | `View q -> Some q
  | `Table _ | `Unknown -> None

(* Every view and routine definition as one re-parseable conventional
   SQL statement — the catalog half of a durable snapshot.  Sorted {e
   by name} at the fold sites, so the output order is pinned however
   the hash tables happen to be populated (insertion order, a copy, a
   recovery replay); order between entries is otherwise irrelevant
   because registration never resolves references. *)
let sorted_by_name entries =
  List.sort (fun (a, _) (b, _) -> String.compare a b) entries |> List.map snd

let ddl_dump cat =
  let views =
    Hashtbl.fold
      (fun name q acc ->
        ( name,
          Sqlast.Pretty.stmt_to_string (Sqlast.Ast.Screate_view (name, q)) )
        :: acc)
      cat.views []
    |> sorted_by_name
  in
  let routines =
    Hashtbl.fold
      (fun name (kind, r) acc ->
        let stmt =
          match kind with
          | Rfunction -> Sqlast.Ast.Screate_function r
          | Rprocedure -> Sqlast.Ast.Screate_procedure r
        in
        (name, Sqlast.Pretty.stmt_to_string stmt) :: acc)
      cat.routines []
    |> sorted_by_name
  in
  views @ routines

(* Tell the catalog which routine-name prefixes belong to the stratum's
   generated code.  Installing (or re-deriving) such a routine bumps
   {!t.derived_epoch} rather than {!t.generation}: the plan cache still
   invalidates, but calibration and the constant-period memo — stamped
   with {!plan_token} — keep their learning. *)
let register_derived_prefixes cat prefixes =
  cat.derived_prefixes <- List.map key prefixes

let is_derived_name cat k =
  List.exists (fun p -> String.starts_with ~prefix:p k) cat.derived_prefixes

let add_routine ?(replace = false) cat kind (r : Sqlast.Ast.routine) =
  let k = key r.Sqlast.Ast.r_name in
  if (not replace) && Hashtbl.mem cat.routines k then
    raise (Duplicate_routine r.Sqlast.Ast.r_name);
  let prev = Hashtbl.find_opt cat.routines k in
  if prev <> Some (kind, r) then begin
    let bump =
      if is_derived_name cat k then fun () ->
        cat.derived_epoch <- cat.derived_epoch + 1
      else fun () -> cat.generation <- cat.generation + 1
    in
    bump ();
    Undo_log.log
      (Sqldb.Database.undo cat.db)
      (fun () ->
        (match prev with
        | None -> Hashtbl.remove cat.routines k
        | Some x -> Hashtbl.replace cat.routines k x);
        bump ());
    let stmt =
      match kind with
      | Rfunction -> Sqlast.Ast.Screate_function r
      | Rprocedure -> Sqlast.Ast.Screate_procedure r
    in
    Sqldb.Database.wal_emit cat.db
      (Sqldb.Wal_hook.Catalog_ddl (Sqlast.Pretty.stmt_to_string stmt))
  end;
  Hashtbl.replace cat.routines k (kind, r)

let find_routine cat name = Hashtbl.find_opt cat.routines (key name)

let find_function cat name =
  match find_routine cat name with
  | Some (Rfunction, r) -> Some r
  | _ -> None

let find_procedure cat name =
  match find_routine cat name with
  | Some (Rprocedure, r) -> Some r
  | _ -> None

let find_routine_exn cat name =
  match find_routine cat name with
  | Some x -> x
  | None -> raise (No_such_routine name)

let routine_names cat =
  Hashtbl.fold (fun k _ acc -> k :: acc) cat.routines [] |> List.sort compare

let add_native_table_fun cat name ntf =
  Hashtbl.replace cat.native_table_funs (key name) ntf

let find_native_table_fun cat name =
  Hashtbl.find_opt cat.native_table_funs (key name)

(* ------------------------------------------------------------------ *)
(* Transformed-plan cache (read and written by the stratum)            *)
(* ------------------------------------------------------------------ *)

(* The evaluator options a transformed plan may have been specialized
   under, packed into one integer.  Flipping an option does not bump the
   catalog generation (nothing semantic changed), so without this
   fingerprint in the validity token an engine whose options are
   toggled while it runs could replay a plan built under the old
   options. *)
let options_fingerprint o =
  (if o.hash_joins then 1 else 0)
  lor (if o.temporal_index then 2 else 0)
  lor (if o.compile then 4 else 0)
  lor (if o.memoize_constant_periods then 8 else 0)

(* Validity token: a cached plan holds only as long as no view, routine
   or table definition has changed — and no evaluator option has been
   flipped — since it was transformed. *)
let plan_token cat =
  ( cat.generation,
    Sqldb.Database.version cat.db,
    options_fingerprint cat.options )

(* The plan cache additionally reacts to temp-table churn and to
   derived-routine installs: a session temp table can shadow a base
   table, and a re-derived max_/ps_ routine body can change what a
   statement transforms into.  Calibration stamps and the
   constant-period memo deliberately use the narrower {!plan_token} —
   artifacts created by the rewrite machinery itself must not
   invalidate learning. *)
let cache_token cat =
  (plan_token cat, (Sqldb.Database.temp_epoch cat.db, cat.derived_epoch))

let find_plan cat key =
  let t = trace cat in
  match Hashtbl.find_opt cat.plan_cache key with
  | Some (token, plan) when token = cache_token cat ->
      if Trace.enabled t then begin
        Trace.count t "plan_cache.hit" 1;
        Trace.event t "plan-cache" (Printf.sprintf "hit strategy=%s" (fst key))
      end;
      Some plan
  | stale ->
      if Trace.enabled t then begin
        Trace.count t "plan_cache.miss" 1;
        Trace.event t "plan-cache"
          (Printf.sprintf "miss strategy=%s%s" (fst key)
             (if stale = None then "" else " (invalidated)"))
      end;
      None

(* Past this many entries the plan cache starts over.  Its keys hash on
   the top of the statement's AST only, so a long run of distinct
   statements would otherwise make every lookup walk long chains. *)
let plan_cache_bound = 1024

let store_plan cat key plan =
  if Hashtbl.length cat.plan_cache >= plan_cache_bound then
    Hashtbl.reset cat.plan_cache;
  Hashtbl.replace cat.plan_cache key (cache_token cat, plan)

(* Deep copy: storage is copied; views/routines (immutable ASTs) and
   natives (parameterized over the catalog) are shared.  The plan cache
   starts empty: its validity token is tied to this catalog's own
   version counters. *)
let copy cat =
  let db = Sqldb.Database.copy cat.db in
  let obs = Trace.create () in
  Sqldb.Database.set_observe db obs;
  {
    db;
    views = Hashtbl.copy cat.views;
    routines = Hashtbl.copy cat.routines;
    native_table_funs = Hashtbl.copy cat.native_table_funs;
    (* fresh Guard: copies must not share running guard state *)
    options = { cat.options with guards = Guard.copy cat.options.guards };
    obs;
    generation = cat.generation;
    derived_epoch = cat.derived_epoch;
    derived_prefixes = cat.derived_prefixes;
    plan_cache = Hashtbl.create 16;
    calibration = Calibration.copy_into cat.calibration;
    cp_memo = Cp_memo.create ();
    memo_inputs = Hashtbl.create 16;
  }

(* A read-only snapshot view for serving sessions:
   storage becomes a {!Sqldb.Database.read_view} (shared row vectors, no
   per-row copy, no obs/undo/wal), views/routines/natives become
   *private hashtable copies* — the ASTs themselves are shared and
   immutable, but full statement execution re-registers the stratum's
   own max_ routines per execution, and concurrent views writing into a
   shared registry would race — and the guard is fresh (each view
   tracks its own budgets).  Both version counters are preserved; the
   plan cache, constant-period memo and SELECT-memo verdicts start
   empty, and compiled SELECT plans never outlive a statement anyway
   (see [Eval.memo_slot]), so a view shares no cache with its parent
   but the calibration.  That one is the parent's own (mutex-guarded):
   what Auto measures on a view, it learns for the parent.  Sound only
   while the underlying database is not mutated; views of a
   {!publish}ed snapshot are safe forever. *)
let read_view cat =
  let db = Sqldb.Database.read_view cat.db in
  let obs = Trace.create () in
  Sqldb.Database.set_observe db obs;
  {
    db;
    views = Hashtbl.copy cat.views;
    routines = Hashtbl.copy cat.routines;
    native_table_funs = Hashtbl.copy cat.native_table_funs;
    options = { cat.options with guards = Guard.copy cat.options.guards };
    obs;
    generation = cat.generation;
    derived_epoch = cat.derived_epoch;
    derived_prefixes = cat.derived_prefixes;
    plan_cache = Hashtbl.create 16;
    calibration = cat.calibration;
    cp_memo = Cp_memo.create ();
    memo_inputs = Hashtbl.create 16;
  }

(* Publish an immutable snapshot of this catalog for concurrent readers:
   storage is {!Sqldb.Database.freeze}-d (O(tables) copy-on-write — the
   next write to each live table privatizes its row array, so the
   snapshot never sees a torn state), views/routines/natives are
   hashtable copies taken at publication time, version counters are
   preserved, the calibration is shared with the publisher, and every
   other cache starts empty.  The publisher must make the snapshot
   visible through an [Atomic.t] (release/acquire) before other domains
   read it; readers then take a {!read_view} of the snapshot per
   statement, which is safe indefinitely — unlike a read view of a live
   catalog. *)
let publish cat =
  {
    db = Sqldb.Database.freeze cat.db;
    views = Hashtbl.copy cat.views;
    routines = Hashtbl.copy cat.routines;
    native_table_funs = Hashtbl.copy cat.native_table_funs;
    options = { cat.options with guards = Guard.copy cat.options.guards };
    obs = Trace.null;
    generation = cat.generation;
    derived_epoch = cat.derived_epoch;
    derived_prefixes = cat.derived_prefixes;
    plan_cache = Hashtbl.create 16;
    calibration = cat.calibration;
    cp_memo = Cp_memo.create ();
    memo_inputs = Hashtbl.create 16;
  }
