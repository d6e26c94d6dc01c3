(* The evaluator: expressions (SQL three-valued logic), queries (FROM
   sources resolved here, then planned and joined by {!Select_plan}),
   DML, and the PSM interpreter (control statements, cursors, stored
   functions and procedures, table-valued functions).

   Everything is mutually recursive by nature (expressions contain
   subqueries, queries call functions, functions contain statements), so
   it lives in one module. *)

open Sqlast.Ast
module Value = Sqldb.Value
module Date = Sqldb.Date
module Schema = Sqldb.Schema
module Table = Sqldb.Table
module Database = Sqldb.Database

exception Sql_error = Select_plan.Sql_error

let sql_error = Select_plan.sql_error

(* ------------------------------------------------------------------ *)
(* Environment                                                         *)
(* ------------------------------------------------------------------ *)

(* One FROM item bound to its current row during join iteration. *)
type binding = Select_plan.binding = {
  b_alias : string;  (* lowercase *)
  b_cols : string array;  (* lowercase column names *)
  mutable b_row : Value.t array;
}

type cursor_state = {
  c_query : query;
  mutable c_rows : Result_set.t option;  (* Some once opened *)
  mutable c_pos : int;
}

type scope = {
  vars : (string, Value.t ref) Hashtbl.t;
  cursors : (string, cursor_state) Hashtbl.t;
  mutable handler : stmt option;  (* NOT FOUND continue handler *)
}

(* The transaction-time reading mode of a statement: the current
   database state (default), the state AS OF a past instant, or the raw
   timestamped rows (nonsequenced).  Transaction time is system-
   maintained, so this is an execution-environment concern rather than
   a source-to-source one. *)
type tt_mode = Select_plan.tt_mode

(* The per-statement state of one SELECT node, found by physical
   identity and started over when the catalog generation, database
   version or temp-table epoch it records moves.  It holds the compiled
   plan the compile hook cached for the node ([ms_plan]), the SELECT
   memo's verdict ({!Select_plan.memo_inputs}, taken at the node's
   second evaluation: a node run once has nothing to replay, and most
   run once) and the node's last run: the tables it read, by physical
   identity and mutation version, the reading mode and
   outward-reference values it ran under, the rows it charged to the
   row budget, and its result.  A node that keeps missing backs off:
   from its second consecutive miss it runs the next 1, 2, 4, ... (at
   most 64) evaluations without the memo before it probes again, so a
   binding that changes at every evaluation costs a few probes per
   statement rather than one per evaluation; a hit ends the back-off. *)
type memo_run = {
  mr_tables : Table.t array;
  mr_versions : int array;
  mr_tt : tt_mode;
  mr_key : Value.t array;
  mr_rows : int;
  mr_result : Result_set.t;
}

type memo_slot = {
  ms_generation : int;
  ms_version : int;
  ms_epoch : int;
  mutable ms_inputs :
    [ `Once | `Pure of string array * expr array | `Impure ];
  mutable ms_last : memo_run option;
  mutable ms_misses : int;  (* consecutive misses *)
  mutable ms_skip : int;  (* evaluations left to run without the memo *)
  mutable ms_plan : Catalog.ext option;
}

module Select_memo = Hashtbl.Make (struct
  type t = select

  let equal = ( == )
  let hash = Hashtbl.hash
end)

type env = {
  cat : Catalog.t;
  now : Date.t;
  tt_mode : tt_mode;
  mutable frames : binding list list;  (* innermost query first *)
  mutable scopes : scope list;  (* innermost block first; [] at top level *)
  depth : int ref;  (* shared routine-recursion guard *)
  (* Per-statement memo cache for table-valued function invocations:
     key = (catalog generation, function name, argument values).  The
     generation component makes entries self-invalidating: a CALL that
     executes DDL redefining a routine mid-statement bumps the
     generation, so later invocations cannot be served rows computed
     under the old definition. *)
  tf_cache : (int * string * Value.t list, Result_set.t) Hashtbl.t;
  select_memo : memo_slot Select_memo.t;
      (* per-statement SELECT state (see {!memo_slot}); shared, like
         [tf_cache], by routine child environments *)
  mutable expanding : string list;
      (* the views whose queries are being evaluated, innermost first: a
         view met again inside its own expansion is a cycle *)
  mutable calls : int;  (* statistics: routine invocations *)
  guard : Guard.t;  (* the catalog's resource guard, bound once *)
  ext_state : Catalog.ext option ref;
      (* opaque per-statement scratch slot for the plan-compilation
         layer (lib/compile): caches per-plan scan rows and hash
         indexes across the many SELECT evaluations of one top-level
         statement.  One shared ref cell, so routine child environments
         (which copy the record) reuse the same cache. *)
}

let new_scope () =
  { vars = Hashtbl.create 8; cursors = Hashtbl.create 4; handler = None }

let create_env ?(now = Date.of_ymd ~y:2011 ~m:1 ~d:1) ?(tt_mode = `Current) cat
    =
  (* Sync the trace sink's enabled flag to [options.observe] once per
     statement; the hot paths below then test [Trace.enabled] directly. *)
  ignore (Catalog.trace cat);
  {
    cat;
    now;
    tt_mode;
    frames = [];
    scopes = [];
    depth = ref 0;
    tf_cache = Hashtbl.create 64;
    select_memo = Select_memo.create 16;
    expanding = [];
    calls = 0;
    guard = cat.Catalog.options.Catalog.guards;
    ext_state = ref None;
  }

(* A child environment for a routine body: fresh frames and scopes so the
   routine cannot see the caller's columns or variables.  A view read
   again through a routine call is recursion, which the depth guard
   bounds, so the routine starts with no views being expanded. *)
let routine_env env =
  { env with frames = []; scopes = [ new_scope () ]; expanding = [] }

let find_var env name =
  let name = String.lowercase_ascii name in
  let rec go = function
    | [] -> None
    | s :: rest -> (
        match Hashtbl.find_opt s.vars name with
        | Some r -> Some r
        | None -> go rest)
  in
  go env.scopes

let declare_var env name v =
  match env.scopes with
  | [] -> sql_error "DECLARE outside of a routine body"
  | s :: _ -> Hashtbl.replace s.vars (String.lowercase_ascii name) (ref v)

let find_cursor env name =
  let name = String.lowercase_ascii name in
  let rec go = function
    | [] -> None
    | s :: rest -> (
        match Hashtbl.find_opt s.cursors name with
        | Some c -> Some c
        | None -> go rest)
  in
  go env.scopes

let find_handler env =
  let rec go = function
    | [] -> None
    | s :: rest -> ( match s.handler with Some h -> Some h | None -> go rest)
  in
  go env.scopes

(* Column lookup across the frame stack: innermost frame first; within a
   frame an unqualified name must be unambiguous.  Falls back to PSM
   variables, so a query inside a routine can reference its parameters. *)
let lookup_col env qualifier name =
  let lname = String.lowercase_ascii name in
  let in_binding (b : binding) =
    let n = Array.length b.b_cols in
    let rec go i =
      if i >= n then None else if b.b_cols.(i) = lname then Some i else go (i + 1)
    in
    go 0
  in
  match qualifier with
  | Some q ->
      let lq = String.lowercase_ascii q in
      let rec search = function
        | [] -> None
        | frame :: rest -> (
            match List.find_opt (fun b -> b.b_alias = lq) frame with
            | Some b -> (
                match in_binding b with
                | Some i -> Some b.b_row.(i)
                | None -> sql_error "no column %s in %s" name q)
            | None -> search rest)
      in
      search env.frames
  | None ->
      let rec search = function
        | [] -> None
        | frame :: rest -> (
            let hits =
              List.filter_map
                (fun b -> Option.map (fun i -> (b, i)) (in_binding b))
                frame
            in
            match hits with
            | [ (b, i) ] -> Some b.b_row.(i)
            | [] -> search rest
            | _ -> sql_error "ambiguous column reference %s" name)
      in
      search env.frames

(* ------------------------------------------------------------------ *)
(* Three-valued logic helpers                                          *)
(* ------------------------------------------------------------------ *)

let truthy = function Value.Bool true -> true | _ -> false

let v_and a b =
  match (a, b) with
  | Value.Bool false, _ | _, Value.Bool false -> Value.Bool false
  | Value.Null, _ | _, Value.Null -> Value.Null
  | Value.Bool x, Value.Bool y -> Value.Bool (x && y)
  | _ -> sql_error "AND applied to non-boolean"

let v_or a b =
  match (a, b) with
  | Value.Bool true, _ | _, Value.Bool true -> Value.Bool true
  | Value.Null, _ | _, Value.Null -> Value.Null
  | Value.Bool x, Value.Bool y -> Value.Bool (x || y)
  | _ -> sql_error "OR applied to non-boolean"

let v_not = function
  | Value.Null -> Value.Null
  | Value.Bool b -> Value.Bool (not b)
  | _ -> sql_error "NOT applied to non-boolean"

let v_compare op a b =
  match Value.compare_sql a b with
  | None -> Value.Null
  | Some c ->
      let r =
        match op with
        | Eq -> c = 0
        | Neq -> c <> 0
        | Lt -> c < 0
        | Le -> c <= 0
        | Gt -> c > 0
        | Ge -> c >= 0
        | _ -> assert false
      in
      Value.Bool r

let v_arith op a b =
  match (a, b) with
  | Value.Null, _ | _, Value.Null -> Value.Null
  | Value.Date d, Value.Int n -> (
      match op with
      | Add -> Value.Date (Date.add_days d n)
      | Sub -> Value.Date (Date.add_days d (-n))
      | _ -> sql_error "unsupported arithmetic on dates")
  | Value.Int n, Value.Date d when op = Add -> Value.Date (Date.add_days d n)
  | Value.Date d1, Value.Date d2 when op = Sub -> Value.Int (d1 - d2)
  | Value.Int x, Value.Int y -> (
      match op with
      | Add -> Value.Int (x + y)
      | Sub -> Value.Int (x - y)
      | Mul -> Value.Int (x * y)
      | Div ->
          if y = 0 then sql_error "division by zero" else Value.Int (x / y)
      | Mod ->
          if y = 0 then sql_error "division by zero" else Value.Int (x mod y)
      | _ -> assert false)
  | (Value.Int _ | Value.Float _), (Value.Int _ | Value.Float _) -> (
      let x = Value.to_float_exn a and y = Value.to_float_exn b in
      match op with
      | Add -> Value.Float (x +. y)
      | Sub -> Value.Float (x -. y)
      | Mul -> Value.Float (x *. y)
      | Div ->
          if y = 0. then sql_error "division by zero" else Value.Float (x /. y)
      | Mod -> Value.Float (Float.rem x y)
      | _ -> assert false)
  | _ ->
      sql_error "arithmetic on non-numeric values %s, %s" (Value.to_string a)
        (Value.to_string b)

let v_concat a b =
  match (a, b) with
  | Value.Null, _ | _, Value.Null -> Value.Null
  | _ -> Value.Str (Value.to_string a ^ Value.to_string b)

(* ------------------------------------------------------------------ *)
(* Group context for aggregate evaluation                              *)
(* ------------------------------------------------------------------ *)

type group_ctx = {
  g_bindings : binding list;
  g_rows : Value.t array array list;  (* member rows: one sub-array per binding *)
}

let set_bindings bindings snapshot =
  List.iteri (fun i b -> b.b_row <- snapshot.(i)) bindings

(* ------------------------------------------------------------------ *)
(* Control-flow exceptions for PSM                                     *)
(* ------------------------------------------------------------------ *)

exception Return_value of Value.t
exception Return_table of Result_set.t
exception Leave_loop of string
exception Iterate_loop of string
exception Not_found_condition

(* Control-flow exceptions are success paths: the savepoint machinery
   below must let them pass without rolling anything back. *)
let control_exn = function
  | Return_value _ | Return_table _ | Leave_loop _ | Iterate_loop _
  | Not_found_condition ->
      true
  | _ -> false

(* Run [f] as an atomic unit when the guard's atomic switch is on.  The
   outermost call (per engine) activates the database undo journal and
   commits or rolls back the whole unit; a nested call — a routine body
   inside an already-atomic statement — degrades to a savepoint that
   rolls back only the routine's own effects on failure. *)
let atomically env f =
  if not env.guard.Guard.atomic then f ()
  else begin
    let db = env.cat.Catalog.db in
    let j = Database.undo db in
    if Undo_log.is_active j then begin
      let sp = Undo_log.savepoint j in
      (* WAL savepoint in step with the undo one: should a caller
         catch the raise below and let the outer statement commit, the
         rolled-back scope's buffered events must not go with it. *)
      let wsp = Database.wal_savepoint db in
      try f ()
      with e when not (control_exn e) ->
        Undo_log.rollback_to j sp;
        Database.wal_rollback_to db wsp;
        raise e
    end
    else begin
      Undo_log.activate j;
      (* Durability decides first: only once the WAL has accepted the
         commit group may the undo journal be discarded.  If the commit
         fails (ENOSPC mid-append — the store erases the half-appended
         group and stays live), the journal rolls the in-memory effects
         back too, so disk and memory agree the statement never
         happened. *)
      let commit_then fin =
        match Database.wal_commit db with
        | () ->
            Undo_log.deactivate j;
            Undo_log.clear j;
            fin ()
        | exception ce ->
            Undo_log.rollback_to j (Undo_log.top j);
            Undo_log.deactivate j;
            Undo_log.clear j;
            raise ce
      in
      match f () with
      | r -> commit_then (fun () -> r)
      | exception e when control_exn e ->
          (* control-flow exceptions are success paths: their effects
             survive in memory, so they must also reach the WAL *)
          commit_then (fun () -> raise e)
      | exception e ->
          Undo_log.rollback_to j (Undo_log.top j);
          Undo_log.deactivate j;
          Undo_log.clear j;
          Database.wal_abort db;
          raise e
    end
  end

type exec_result = Rows of Result_set.t | Affected of int | Unit

(* ------------------------------------------------------------------ *)
(* Plan-compilation hook                                               *)
(* ------------------------------------------------------------------ *)

(* Set by lib/compile (which depends on this library) at stratum
   installation.  When [options.compile] is on, {!eval_select} consults
   the hook first: [Some rs] means a compiled closure covered the whole
   SELECT — bit-identical to the interpreter by construction — and
   [None] falls through to the interpreter.  The hook may keep its plan
   for the node in the slot's [ms_plan].  The compiled/interpreted
   counters make coverage visible per query in EXPLAIN. *)
let select_compiler : (env -> memo_slot -> select -> Result_set.t option) ref
    =
  ref (fun _ _ _ -> None)

(* {!Select_plan.memo_inputs} of [s], through the catalog's verdicts
   (reset once they number 4096). *)
let memo_inputs (cat : Catalog.t) stamp s =
  let verdicts = cat.Catalog.memo_inputs in
  match Hashtbl.find_opt verdicts s with
  | Some (st, v) when st = stamp -> v
  | _ ->
      let v = Select_plan.memo_inputs cat s in
      if Hashtbl.length verdicts >= 4096 then Hashtbl.reset verdicts;
      Hashtbl.replace verdicts s (stamp, v);
      v

(* The memo slot of [s] in this statement, started over when a view or
   routine definition or the visible schema changed since it was made. *)
let memo_slot env s =
  let cat = env.cat in
  let db = cat.Catalog.db in
  match Select_memo.find_opt env.select_memo s with
  | Some m
    when m.ms_generation = cat.Catalog.generation
         && m.ms_version = Database.version db
         && m.ms_epoch = Database.temp_epoch db ->
      (match m.ms_inputs with
      | `Once ->
          m.ms_inputs <-
            (match
               memo_inputs cat (m.ms_generation, m.ms_version, m.ms_epoch) s
             with
            | Some (tables, refs) -> `Pure (tables, refs)
            | None -> `Impure)
      | `Pure _ | `Impure -> ());
      m
  | _ ->
      let m =
        {
          ms_generation = cat.Catalog.generation;
          ms_version = Database.version db;
          ms_epoch = Database.temp_epoch db;
          ms_inputs = `Once;
          ms_last = None;
          ms_misses = 0;
          ms_skip = 0;
          ms_plan = None;
        }
      in
      Select_memo.replace env.select_memo s m;
      m

(* Outward-reference values that no SELECT can tell apart: structurally
   equal, so [Int 1] and [Float 1.0] differ, and floats bit for bit, so
   [0.0] and [-0.0] differ too. *)
let same_key (a : Value.t array) b =
  let n = Array.length a in
  let rec go i =
    i >= n
    ||
    match (a.(i), b.(i)) with
    | Value.Float x, Value.Float y ->
        Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
        && go (i + 1)
    | x, y -> x = y && go (i + 1)
  in
  go 0

(* Do [names] still resolve to the tables [m] read: the same physical
   table at the same mutation version, name by name? *)
let same_tables db names m =
  let n = Array.length names in
  let rec go i =
    i >= n
    ||
    match Database.find_table db names.(i) with
    | Some t ->
        t == m.mr_tables.(i) && t.Table.version = m.mr_versions.(i)
        && go (i + 1)
    | None -> false
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                               *)
(* ------------------------------------------------------------------ *)

let rec eval_expr env ?group (e : expr) : Value.t =
  match e with
  | Lit v -> v
  | Col (q, name) -> (
      match lookup_col env q name with
      | Some v -> v
      | None -> (
          match (q, find_var env name) with
          | None, Some r -> !r
          | _ ->
              sql_error "unknown column or variable %s%s"
                (match q with Some q -> q ^ "." | None -> "")
                name))
  | Binop (And, a, b) -> v_and (eval_expr env ?group a) (eval_expr env ?group b)
  | Binop (Or, a, b) -> v_or (eval_expr env ?group a) (eval_expr env ?group b)
  | Binop (((Eq | Neq | Lt | Le | Gt | Ge) as op), a, b) ->
      v_compare op (eval_expr env ?group a) (eval_expr env ?group b)
  | Binop (Concat, a, b) ->
      v_concat (eval_expr env ?group a) (eval_expr env ?group b)
  | Binop (op, a, b) ->
      v_arith op (eval_expr env ?group a) (eval_expr env ?group b)
  | Unop (Not, a) -> v_not (eval_expr env ?group a)
  | Unop (Neg, a) -> (
      match eval_expr env ?group a with
      | Value.Null -> Value.Null
      | Value.Int i -> Value.Int (-i)
      | Value.Float f -> Value.Float (-.f)
      | v -> sql_error "cannot negate %s" (Value.to_string v))
  | Fun_call (name, args) ->
      let argv = List.map (eval_expr env ?group) args in
      eval_fun_call env name argv
  | Agg (af, distinct, operand) -> (
      match group with
      | None -> sql_error "aggregate outside of a grouped query"
      | Some g -> eval_aggregate env g af distinct operand)
  | Cast (e, ty) -> Value.cast ~ty (eval_expr env ?group e)
  | Case c -> eval_case env ?group c
  | Exists q ->
      let rs = eval_query env q in
      Value.Bool (rs.Result_set.rows <> [])
  | In_pred (e, src, neg) -> (
      let v = eval_expr env ?group e in
      let members =
        match src with
        | In_list es -> List.map (eval_expr env ?group) es
        | In_query q ->
            let rs = eval_query env q in
            if Result_set.arity rs <> 1 then
              sql_error "IN subquery must return one column";
            List.map (fun r -> r.(0)) rs.Result_set.rows
      in
      let result =
        if Value.is_null v then Value.Null
        else
          let any_null = List.exists Value.is_null members in
          if List.exists (fun m -> (not (Value.is_null m)) && Value.equal m v) members
          then Value.Bool true
          else if any_null then Value.Null
          else Value.Bool false
      in
      if neg then v_not result else result)
  | Between (e, lo, hi, neg) ->
      let v = eval_expr env ?group e in
      let l = eval_expr env ?group lo and h = eval_expr env ?group hi in
      let r = v_and (v_compare Le l v) (v_compare Le v h) in
      if neg then v_not r else r
  | Is_null (e, neg) ->
      let isnull = Value.is_null (eval_expr env ?group e) in
      Value.Bool (if neg then not isnull else isnull)
  | Like (e, pat, neg) -> (
      let v = eval_expr env ?group e and p = eval_expr env ?group pat in
      match (v, p) with
      | Value.Null, _ | _, Value.Null -> Value.Null
      | _ ->
          let m =
            Builtins.like_match ~pattern:(Value.to_str_exn p) (Value.to_str_exn v)
          in
          Value.Bool (if neg then not m else m))
  | Scalar_subquery q -> (
      let rs = eval_query env q in
      if Result_set.arity rs <> 1 then
        sql_error "scalar subquery must return one column";
      match rs.Result_set.rows with
      | [] -> Value.Null
      | [ r ] -> r.(0)
      | _ -> sql_error "scalar subquery returned more than one row")

and eval_case env ?group c =
  match c.case_operand with
  | Some op ->
      let v = eval_expr env ?group op in
      let rec go = function
        | [] -> (
            match c.case_else with
            | Some e -> eval_expr env ?group e
            | None -> Value.Null)
        | (w, t) :: rest ->
            if truthy (v_compare Eq v (eval_expr env ?group w)) then
              eval_expr env ?group t
            else go rest
      in
      go c.case_branches
  | None ->
      let rec go = function
        | [] -> (
            match c.case_else with
            | Some e -> eval_expr env ?group e
            | None -> Value.Null)
        | (w, t) :: rest ->
            if truthy (eval_expr env ?group w) then eval_expr env ?group t
            else go rest
      in
      go c.case_branches

and eval_aggregate env g af distinct operand =
  match af with
  | Count_star -> Value.Int (List.length g.g_rows)
  | _ ->
      let operand =
        match operand with
        | Some e -> e
        | None -> sql_error "aggregate needs an operand"
      in
      (* Evaluate the operand for each member row; NULLs are skipped. *)
      let saved = List.map (fun b -> b.b_row) g.g_bindings in
      let values = ref [] in
      List.iter
        (fun snapshot ->
          set_bindings g.g_bindings snapshot;
          let v = eval_expr env operand in
          if not (Value.is_null v) then values := v :: !values)
        g.g_rows;
      List.iteri (fun i b -> b.b_row <- List.nth saved i) g.g_bindings;
      let values =
        if distinct then List.sort_uniq Value.compare_total !values
        else List.rev !values
      in
      if values = [] then
        match af with Count -> Value.Int 0 | _ -> Value.Null
      else begin
        match af with
        | Count -> Value.Int (List.length values)
        | Min ->
            List.fold_left
              (fun acc v -> if Value.compare_total v acc < 0 then v else acc)
              (List.hd values) values
        | Max ->
            List.fold_left
              (fun acc v -> if Value.compare_total v acc > 0 then v else acc)
              (List.hd values) values
        | Sum | Avg -> (
            let all_int =
              List.for_all (function Value.Int _ -> true | _ -> false) values
            in
            if all_int && af = Sum then
              Value.Int
                (List.fold_left (fun acc v -> acc + Value.to_int_exn v) 0 values)
            else
              let total =
                List.fold_left (fun acc v -> acc +. Value.to_float_exn v) 0. values
              in
              match af with
              | Sum -> Value.Float total
              | _ -> Value.Float (total /. float_of_int (List.length values)))
        | Count_star -> assert false
      end

and eval_fun_call env name argv : Value.t =
  if Builtins.is_builtin name then Builtins.call ~now:env.now name argv
  else
    match Catalog.find_function env.cat name with
    | Some r -> (
        match r.r_returns with
        | Some (Ret_scalar _) -> invoke_scalar_function env r argv
        | Some (Ret_table _) ->
            sql_error "table function %s used in a scalar context" name
        | None -> assert false)
    | None -> sql_error "unknown function %s" name

(* ------------------------------------------------------------------ *)
(* Query evaluation                                                    *)
(* ------------------------------------------------------------------ *)

and eval_query env (q : query) : Result_set.t =
  match q with
  | Select s -> eval_select env s
  | Union (all, a, b) ->
      let ra = eval_query env a and rb = eval_query env b in
      let rows = ra.Result_set.rows @ rb.Result_set.rows in
      let rows = if all then rows else dedupe_rows rows in
      { Result_set.cols = ra.Result_set.cols; rows }
  | Except (all, a, b) ->
      let ra = eval_query env a and rb = eval_query env b in
      let rows =
        if all then
          (* Bag difference. *)
          let remaining = ref rb.Result_set.rows in
          List.filter
            (fun r ->
              match
                List.partition (fun r' -> row_equal r r') !remaining
              with
              | [], _ -> true
              | _ :: dropped_rest, others ->
                  remaining := dropped_rest @ others;
                  false)
            ra.Result_set.rows
        else
          dedupe_rows
            (List.filter
               (fun r ->
                 not (List.exists (fun r' -> row_equal r r') rb.Result_set.rows))
               ra.Result_set.rows)
      in
      { Result_set.cols = ra.Result_set.cols; rows }
  | Intersect (all, a, b) ->
      let ra = eval_query env a and rb = eval_query env b in
      let rows =
        if all then begin
          let remaining = ref rb.Result_set.rows in
          List.filter
            (fun r ->
              match List.partition (fun r' -> row_equal r r') !remaining with
              | [], _ -> false
              | _ :: kept_rest, others ->
                  remaining := kept_rest @ others;
                  true)
            ra.Result_set.rows
        end
        else
          dedupe_rows
            (List.filter
               (fun r -> List.exists (fun r' -> row_equal r r') rb.Result_set.rows)
               ra.Result_set.rows)
      in
      { Result_set.cols = ra.Result_set.cols; rows }

and row_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 Value.equal a b

and dedupe_rows rows =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun r ->
      let key = Array.to_list r in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    rows

(* Resolve a FROM item into its columns and row source.  A closed item
   (see {!Select_plan.correlated}) is evaluated here, once, before the
   join — even when a sibling turns out empty, as a non-LATERAL derived
   table is in SQL; a correlated one is re-evaluated at every row of the
   items before it. *)
and resolve_item env (it : Select_plan.item) ~correlated :
    string array
    * [ `Rows of Value.t array list
      | `Scan of Table.t
      | `Lateral of expr list * string
      | `Lateral_sub of query * string option ]
    =
  let derived ?view q =
    if correlated then
      match Select_plan.query_columns env.cat q with
      | Some cols -> (cols, `Lateral_sub (q, view))
      | None -> sql_error "cannot infer the columns of a lateral derived table"
    else
      let rs = expand_view env view (fun () -> eval_query env q) in
      ( Array.of_list (List.map String.lowercase_ascii rs.Result_set.cols),
        `Rows rs.Result_set.rows )
  in
  match it with
  | Select_plan.From_name (name, _) -> (
      match Database.find_table env.cat.Catalog.db name with
      | Some t -> (Select_plan.columns (Table.schema t), `Scan t)
      | None -> (
          match Catalog.find_view env.cat name with
          | Some q -> derived ~view:(String.lowercase_ascii name) q
          | None -> sql_error "unknown table or view %s" name))
  | Select_plan.From_query (q, _) -> derived q
  | Select_plan.From_fun (fname, args, _) ->
      let cols =
        match Select_plan.table_fun_columns env.cat fname with
        | Ok cols -> cols
        | Error msg -> raise (Sql_error msg)
      in
      if correlated then (cols, `Lateral (args, fname))
      else (cols, `Rows (table_function_rows env fname args))

(* Evaluate [f], the query of [view] (if a view), with the view marked
   as being expanded. *)
and expand_view : 'a. env -> string option -> (unit -> 'a) -> 'a =
 fun env view f ->
  match view with
  | None -> f ()
  | Some v ->
      if List.mem v env.expanding then
        sql_error "view %s is defined in terms of itself" v;
      let saved = env.expanding in
      env.expanding <- v :: saved;
      Fun.protect ~finally:(fun () -> env.expanding <- saved) f

(* A table function's rows for [args] evaluated in the current frames;
   a NULL argument yields no rows. *)
and table_function_rows env fname args =
  let argv = List.map (eval_expr env) args in
  if List.exists Value.is_null argv then []
  else (invoke_table_function env fname argv).Result_set.rows

(* Invoke a table function, memoizing on argument values for the duration
   of the enclosing top-level statement.  Native table functions are not
   memoized: they may read mutable temporary state (e.g. the stratum's
   runtime constant-period computation over variable tables). *)
and invoke_table_function env fname argv : Result_set.t =
  match Catalog.find_native_table_fun env.cat fname with
  | Some ntf -> ntf.Catalog.ntf_fn env.cat argv
  | None -> (
      (* Keyed on the catalog generation so mid-statement DDL that
         redefines a routine orphans every entry computed under the old
         definitions instead of serving stale rows. *)
      let key =
        (env.cat.Catalog.generation, String.lowercase_ascii fname, argv)
      in
      match Hashtbl.find_opt env.tf_cache key with
      | Some rs -> rs
      | None ->
          let r =
            match Catalog.find_function env.cat fname with
            | Some r -> r
            | None -> sql_error "unknown table function %s" fname
          in
          let rs = invoke_routine_table env r argv in
          Hashtbl.add env.tf_cache key rs;
          rs)

(* A SELECT whose verdict qualifies (see {!memo_slot}) replays its last
   run when that run read the same tables at the same versions, under
   the same reading mode and outward-reference values: the result is a
   function of nothing else.  The replay charges the run's rows to the
   row budget again.  A reference that does not resolve leaves the
   evaluation to the run, which raises or never reads it. *)
and eval_select env (s : select) : Result_set.t =
  let slot = memo_slot env s in
  match slot.ms_inputs with
  | `Once | `Impure -> run_select_node env slot s
  | `Pure _ when slot.ms_skip > 0 ->
      slot.ms_skip <- slot.ms_skip - 1;
      run_select_node env slot s
  | `Pure (names, refs) -> (
      let key () =
        match Array.map (eval_expr env) refs with
        | k -> Some k
        | exception Sql_error _ -> None
      in
      match slot.ms_last with
      | Some m
        when m.mr_tt = env.tt_mode && same_tables env.cat.Catalog.db names m
        -> (
          match key () with
          | Some k when same_key k m.mr_key ->
              slot.ms_misses <- 0;
              Trace.count env.cat.Catalog.obs Select_plan.Counter.select_memo_hit
                1;
              Guard.charge_rows env.guard m.mr_rows;
              m.mr_result
          | k -> memo_run env slot s names (fun () -> k))
      | _ -> memo_run env slot s names key)

(* Run [s] and keep the run in its slot, keyed by [key ()] taken after
   it (a pure run moves no outward reference).  Every name resolves: the
   slot's stamp still holds, and the verdict found each a table under
   it. *)
and memo_run env slot s names key =
  slot.ms_misses <- slot.ms_misses + 1;
  if slot.ms_misses >= 2 then
    slot.ms_skip <- 1 lsl min 6 (slot.ms_misses - 2);
  let tables = Array.map (Database.find_table_exn env.cat.Catalog.db) names in
  let versions = Array.map (fun t -> t.Table.version) tables in
  let used = env.guard.Guard.rows_used in
  let rs = run_select_node env slot s in
  (match key () with
  | Some k ->
      slot.ms_last <-
        Some
          {
            mr_tables = tables;
            mr_versions = versions;
            mr_tt = env.tt_mode;
            mr_key = k;
            mr_rows = env.guard.Guard.rows_used - used;
            mr_result = rs;
          }
  | None -> ());
  rs

and run_select_node env slot (s : select) : Result_set.t =
  if not env.cat.Catalog.options.Catalog.compile then eval_select_interp env s
  else
    match !select_compiler env slot s with
    | Some rs ->
        Trace.count env.cat.Catalog.obs "compile.compiled" 1;
        rs
    | None ->
        Trace.count env.cat.Catalog.obs "compile.interpreted" 1;
        eval_select_interp env s

and eval_select_interp env (s : select) : Result_set.t =
  let from, join_conjuncts = Select_plan.flatten s in
  let items = Array.of_list (List.map fst from) in
  let correlated = Select_plan.correlated env.cat items in
  let resolved =
    Array.mapi
      (fun i it -> resolve_item env it ~correlated:correlated.(i))
      items
  in
  let plan =
    Select_plan.plan env.cat s join_conjuncts
      (List.mapi
         (fun i (it, on) ->
           let cols, src = resolved.(i) in
           let kind =
             match src with
             | `Scan t -> Select_plan.Base (Table.schema t)
             | `Rows _ -> Select_plan.Derived
             | `Lateral _ | `Lateral_sub _ -> Select_plan.Lateral
           in
           { Select_plan.alias = Select_plan.item_alias it; cols; kind; on })
         from)
  in
  let srcs = Array.map snd resolved in
  let binds = Select_plan.bindings plan in
  (* A correlated item is evaluated with only the items before it bound
     (and the enclosing queries' frames). *)
  let outer = env.frames in
  let lateral i f =
    let frames = env.frames in
    env.frames <- Array.to_list (Array.sub binds 0 i) :: outer;
    Fun.protect ~finally:(fun () -> env.frames <- frames) f
  in
  (* Base-table rows and hash indexes are built at most once per
     evaluation; lateral sources re-evaluate at every outer row. *)
  let scanned = Array.map (fun _ -> None) srcs in
  let hashed = Array.map (fun _ -> None) srcs in
  let rows i =
    match srcs.(i) with
    | `Rows rows -> rows
    | `Scan t -> (
        match scanned.(i) with
        | Some rows -> rows
        | None ->
            let rows =
              Select_plan.base_rows
                ~temporal_index:env.cat.Catalog.options.Catalog.temporal_index
                env.tt_mode t
            in
            scanned.(i) <- Some rows;
            rows)
    | `Lateral (args, fname) ->
        lateral i (fun () -> table_function_rows env fname args)
    | `Lateral_sub (q, view) ->
        lateral i (fun () ->
            expand_view env view (fun () -> (eval_query env q).Result_set.rows))
  in
  let hash i ci =
    match hashed.(i) with
    | Some h -> h
    | None ->
        let h = Select_plan.hash_rows ci (rows i) in
        hashed.(i) <- Some h;
        h
  in
  let base i =
    match srcs.(i) with
    | `Scan t -> Some (t, Select_plan.tt_filter (Table.schema t) env.tt_mode)
    | `Rows _ | `Lateral _ | `Lateral_sub _ -> None
  in
  let bindings = Array.to_list binds in
  run_select env s plan binds ~value:(eval_expr env)
    ~pass:(Array.for_all (fun c -> truthy (eval_expr env c)))
    { Select_plan.rows; hash; base }
    ~flat_row:(fun () ->
      let out = eval_projection env s bindings in
      let keys = List.map (fun (e, _) -> eval_expr env e) s.order_by in
      Array.of_list (out @ keys))

(* Run [plan]'s join with [binds] pushed as the innermost frame, then
   finish the joined rows: a grouped query snapshots each for
   [finish_grouped]; a flat one turns each into its output columns
   followed by its ORDER BY keys ([flat_row]) for [finish_flat]. *)
and run_select :
      'e.
      env ->
      select ->
      'e Select_plan.t ->
      binding array ->
      value:('e -> Value.t) ->
      pass:('e array -> bool) ->
      Select_plan.access ->
      flat_row:(unit -> Value.t array) ->
      Result_set.t =
 fun env s plan binds ~value ~pass access ~flat_row ->
  let bindings = Array.to_list binds in
  let saved_frames = env.frames in
  env.frames <- bindings :: env.frames;
  Fun.protect
    ~finally:(fun () -> env.frames <- saved_frames)
    (fun () ->
      let grouped = plan.Select_plan.grouped in
      let snapshots = ref [] in
      let flat_rows = ref [] in
      let emit () =
        Guard.charge_rows env.guard 1;
        if grouped then
          snapshots := Array.map (fun b -> b.b_row) binds :: !snapshots
        else flat_rows := flat_row () :: !flat_rows
      in
      Select_plan.run env.cat.Catalog.obs plan binds ~value ~pass access ~emit;
      if grouped then finish_grouped env s bindings (List.rev !snapshots)
      else finish_flat env s (List.rev !flat_rows))

(* Output column names for a projection. *)
and projection_columns env s (bindings : binding list) =
  List.concat_map
    (function
      | Star ->
          List.concat_map (fun b -> Array.to_list b.b_cols) bindings
      | Qual_star q -> (
          let lq = String.lowercase_ascii q in
          match List.find_opt (fun b -> b.b_alias = lq) bindings with
          | Some b -> Array.to_list b.b_cols
          | None -> sql_error "unknown alias %s.*" q)
      | Proj_expr (_, Some a) -> [ a ]
      | Proj_expr (e, None) -> [ Select_plan.column_name e ])
    s.proj
  |> fun cols ->
  ignore env;
  cols

(* Evaluate the projection against the currently-bound rows. *)
and eval_projection env s (bindings : binding list) : Value.t list =
  List.concat_map
    (function
      | Star -> List.concat_map (fun b -> Array.to_list b.b_row) bindings
      | Qual_star q -> (
          let lq = String.lowercase_ascii q in
          match List.find_opt (fun b -> b.b_alias = lq) bindings with
          | Some b -> Array.to_list b.b_row
          | None -> sql_error "unknown alias %s.*" q)
      | Proj_expr (e, _) -> [ eval_expr env e ])
    s.proj

and finish_flat env (s : select) rows_with_keys : Result_set.t =
  let nkeys = List.length s.order_by in
  let cols =
    (* Column names need bindings; recompute from a representative.  The
       projection columns don't depend on row values. *)
    match env.frames with
    | frame :: _ -> projection_columns env s frame
    | [] -> assert false
  in
  let nout = List.length cols in
  let rows_with_keys =
    if s.distinct then
      let seen = Hashtbl.create 64 in
      List.filter
        (fun (r : Value.t array) ->
          let key = Array.to_list (Array.sub r 0 nout) in
          if Hashtbl.mem seen key then false
          else begin
            Hashtbl.add seen key ();
            true
          end)
        rows_with_keys
    else rows_with_keys
  in
  let rows_with_keys =
    if nkeys = 0 then rows_with_keys
    else
      let dirs = Array.of_list (List.map snd s.order_by) in
      List.stable_sort
        (fun (a : Value.t array) b ->
          let rec go i =
            if i >= nkeys then 0
            else
              let c = Value.compare_total a.(nout + i) b.(nout + i) in
              let c = match dirs.(i) with Asc -> c | Desc -> -c in
              if c <> 0 then c else go (i + 1)
          in
          go 0)
        rows_with_keys
  in
  let rows = List.map (fun r -> Array.sub r 0 nout) rows_with_keys in
  let count_of e = Value.to_int_exn (eval_expr env e) in
  let rows =
    match s.offset with
    | None -> rows
    | Some k ->
        let k = count_of k in
        List.filteri (fun i _ -> i >= k) rows
  in
  let rows =
    match s.fetch_first with
    | None -> rows
    | Some k ->
        let k = count_of k in
        List.filteri (fun i _ -> i < k) rows
  in
  { Result_set.cols; rows }

and finish_grouped env (s : select) bindings snapshots : Result_set.t =
  let cols = projection_columns env s bindings in
  (* Group snapshots by the GROUP BY key. *)
  let groups : (Value.t list, Value.t array array list) Hashtbl.t =
    Hashtbl.create 64
  in
  let order = ref [] in
  List.iter
    (fun snap ->
      set_bindings bindings snap;
      let key = List.map (eval_expr env) s.group_by in
      (match Hashtbl.find_opt groups key with
      | Some members -> Hashtbl.replace groups key (snap :: members)
      | None ->
          order := key :: !order;
          Hashtbl.replace groups key [ snap ]))
    snapshots;
  let keys_in_order = List.rev !order in
  let keys_in_order =
    (* No GROUP BY but aggregates: a single group over all rows, present
       even when the input is empty. *)
    if s.group_by = [] then [ [] ] else keys_in_order
  in
  let out_rows = ref [] in
  List.iter
    (fun key ->
      let members =
        match Hashtbl.find_opt groups key with
        | Some ms -> List.rev ms
        | None -> []
      in
      let g = { g_bindings = bindings; g_rows = members } in
      (match members with
      | snap :: _ -> set_bindings bindings snap
      | [] -> ());
      let ok =
        match s.having with
        | None -> true
        | Some h ->
            if members = [] && s.group_by = [] then
              truthy (eval_expr env ~group:g h)
            else truthy (eval_expr env ~group:g h)
      in
      if ok then begin
        let row =
          List.concat_map
            (function
              | Star | Qual_star _ ->
                  sql_error "SELECT * is not allowed in a grouped query"
              | Proj_expr (e, _) -> [ eval_expr env ~group:g e ])
            s.proj
        in
        let keys =
          List.map (fun (e, _) -> eval_expr env ~group:g e) s.order_by
        in
        out_rows := Array.of_list (row @ keys) :: !out_rows
      end)
    keys_in_order;
  finish_flat env { s with distinct = s.distinct } (List.rev !out_rows)
  |> fun rs -> { rs with Result_set.cols = cols }

(* ------------------------------------------------------------------ *)
(* Routine invocation                                                  *)
(* ------------------------------------------------------------------ *)

and bind_params env (r : routine) argv =
  if List.length r.r_params <> List.length argv then
    sql_error "%s expects %d argument(s), got %d" r.r_name
      (List.length r.r_params) (List.length argv);
  List.iter2 (fun p v -> declare_var env p.p_name v) r.r_params argv

and invoke_scalar_function env (r : routine) argv : Value.t =
  Fault.hit Fault.Routine_call;
  incr env.depth;
  Guard.check_depth env.guard !(env.depth);
  Fun.protect
    ~finally:(fun () -> decr env.depth)
    (fun () ->
      env.calls <- env.calls + 1;
      let obs = env.cat.Catalog.obs in
      Trace.count obs "routine.calls" 1;
      Taupsm_error.with_routine r.r_name (fun () ->
          atomically env (fun () ->
              Trace.time obs "routine.seconds" (fun () ->
                  let renv = routine_env env in
                  bind_params renv r argv;
                  match exec_stmts renv r.r_body with
                  | () -> sql_error "function %s ended without RETURN" r.r_name
                  | exception Return_value v -> v))))

and invoke_routine_table env (r : routine) argv : Result_set.t =
  Fault.hit Fault.Routine_call;
  incr env.depth;
  Guard.check_depth env.guard !(env.depth);
  Fun.protect
    ~finally:(fun () -> decr env.depth)
    (fun () ->
      env.calls <- env.calls + 1;
      let obs = env.cat.Catalog.obs in
      Trace.count obs "routine.calls" 1;
      Taupsm_error.with_routine r.r_name (fun () ->
          atomically env (fun () ->
              Trace.time obs "routine.seconds" (fun () ->
                  let renv = routine_env env in
                  bind_params renv r argv;
                  match exec_stmts renv r.r_body with
                  | () ->
                      sql_error "table function %s ended without RETURN"
                        r.r_name
                  | exception Return_table rs -> rs
                  | exception Return_value _ ->
                      sql_error "table function %s returned a scalar" r.r_name))))

and invoke_procedure env (r : routine) (args : expr list) : unit =
  Fault.hit Fault.Routine_call;
  incr env.depth;
  Guard.check_depth env.guard !(env.depth);
  Fun.protect
    ~finally:(fun () -> decr env.depth)
    (fun () ->
      env.calls <- env.calls + 1;
      Trace.count env.cat.Catalog.obs "routine.calls" 1;
      if List.length r.r_params <> List.length args then
        sql_error "%s expects %d argument(s), got %d" r.r_name
          (List.length r.r_params) (List.length args);
      Taupsm_error.with_routine r.r_name @@ fun () ->
      atomically env @@ fun () ->
      let renv = routine_env env in
      (* IN params: by value.  OUT/INOUT: the argument must be a variable
         of the caller; copy back after the body runs. *)
      let copy_backs = ref [] in
      List.iter2
        (fun p arg ->
          match p.p_mode with
          | Pin -> declare_var renv p.p_name (eval_expr env arg)
          | Pout | Pinout ->
              let var_name =
                match arg with
                | Col (None, v) -> v
                | _ ->
                    sql_error "OUT argument of %s must be a variable" r.r_name
              in
              let caller_ref =
                match find_var env var_name with
                | Some rf -> rf
                | None -> sql_error "unknown variable %s" var_name
              in
              let init = if p.p_mode = Pinout then !caller_ref else Value.Null in
              declare_var renv p.p_name init;
              copy_backs := (p.p_name, caller_ref) :: !copy_backs)
        r.r_params args;
      (match exec_stmts renv r.r_body with
      | () -> ()
      | exception Return_value _ -> ());
      List.iter
        (fun (pname, caller_ref) ->
          match find_var renv pname with
          | Some rf -> caller_ref := !rf
          | None -> ())
        !copy_backs)

(* ------------------------------------------------------------------ *)
(* Statement execution                                                 *)
(* ------------------------------------------------------------------ *)

and exec_stmts env (stmts : stmt list) : unit =
  List.iter (fun s -> ignore (exec_stmt env s)) stmts

and not_found env vars =
  (* NOT FOUND condition: run the CONTINUE handler if one is declared,
     otherwise set the target variables to NULL. *)
  match find_handler env with
  | Some h -> ignore (exec_stmt env h)
  | None ->
      List.iter
        (fun v ->
          match find_var env v with
          | Some r -> r := Value.Null
          | None -> ())
        vars

and exec_stmt env (s : stmt) : exec_result =
  Guard.step env.guard;
  match s with
  | Squery q -> Rows (eval_query env q)
  | Sinsert (tname, cols, src) -> exec_insert env tname cols src
  | Supdate (tname, sets, where) -> exec_update env tname sets where
  | Sdelete (tname, where) -> exec_delete env tname where
  | Smerge _ ->
      sql_error
        "TEMPORAL MERGE must be executed through the temporal stratum"
  | Screate_table ct -> exec_create_table env ct
  | Sdrop_table name ->
      Database.drop_table env.cat.Catalog.db name;
      Unit
  | Screate_view (name, q) ->
      if Select_plan.reaches_view env.cat name q then
        sql_error "view %s is defined in terms of itself" name;
      Catalog.add_view env.cat name q;
      Unit
  | Screate_function r ->
      Catalog.add_routine ~replace:true env.cat Catalog.Rfunction r;
      Unit
  | Screate_procedure r ->
      Catalog.add_routine ~replace:true env.cat Catalog.Rprocedure r;
      Unit
  | Scall (name, args) -> (
      match Catalog.find_procedure env.cat name with
      | Some r ->
          invoke_procedure env r args;
          Unit
      | None -> sql_error "unknown procedure %s" name)
  | Sdeclare (names, ty, init) ->
      let v =
        match init with
        | Some e -> Value.cast ~ty (eval_expr env e)
        | None -> Value.Null
      in
      List.iter (fun n -> declare_var env n v) names;
      Unit
  | Sdeclare_cursor (name, q) ->
      (match env.scopes with
      | [] -> sql_error "DECLARE CURSOR outside of a routine body"
      | sc :: _ ->
          Hashtbl.replace sc.cursors
            (String.lowercase_ascii name)
            { c_query = q; c_rows = None; c_pos = 0 });
      Unit
  | Sdeclare_handler h ->
      (match env.scopes with
      | [] -> sql_error "DECLARE HANDLER outside of a routine body"
      | sc :: _ -> sc.handler <- Some h);
      Unit
  | Sset (v, e) -> (
      match find_var env v with
      | Some r ->
          r := eval_expr env e;
          Unit
      | None -> sql_error "unknown variable %s" v)
  | Sselect_into (sel, vars) -> (
      let rs = eval_select env sel in
      match rs.Result_set.rows with
      | [] ->
          not_found env vars;
          Unit
      | row :: _ ->
          if List.length vars <> Array.length row then
            sql_error "SELECT INTO: %d variable(s) for %d column(s)"
              (List.length vars) (Array.length row);
          List.iteri
            (fun i v ->
              match find_var env v with
              | Some r -> r := row.(i)
              | None -> sql_error "unknown variable %s" v)
            vars;
          Unit)
  | Sif (branches, els) -> (
      let rec go = function
        | [] -> ( match els with Some body -> exec_stmts env body | None -> ())
        | (cond, body) :: rest ->
            if truthy (eval_expr env cond) then exec_stmts env body else go rest
      in
      go branches;
      Unit)
  | Scase_stmt (operand, branches, els) -> (
      let test =
        match operand with
        | Some op ->
            let v = eval_expr env op in
            fun w -> truthy (v_compare Eq v (eval_expr env w))
        | None -> fun w -> truthy (eval_expr env w)
      in
      let rec go = function
        | [] -> ( match els with Some body -> exec_stmts env body | None -> ())
        | (w, body) :: rest -> if test w then exec_stmts env body else go rest
      in
      go branches;
      Unit)
  | Swhile (label, cond, body) ->
      exec_loop env label (fun () ->
          if truthy (eval_expr env cond) then begin
            exec_stmts env body;
            true
          end
          else false);
      Unit
  | Srepeat (label, body, until) ->
      exec_loop env label (fun () ->
          exec_stmts env body;
          not (truthy (eval_expr env until)));
      Unit
  | Sloop (label, body) ->
      exec_loop env label (fun () ->
          exec_stmts env body;
          true);
      Unit
  | Sfor f ->
      let rs = eval_query env f.for_query in
      let cols =
        Array.of_list (List.map String.lowercase_ascii rs.Result_set.cols)
      in
      let b = { b_alias = "#for"; b_cols = cols; b_row = [||] } in
      let saved = env.frames in
      env.frames <- [ b ] :: env.frames;
      Fun.protect
        ~finally:(fun () -> env.frames <- saved)
        (fun () ->
          (try
             let iters = ref 0 in
             List.iter
               (fun row ->
                 incr iters;
                 Guard.check_loop env.guard !iters;
                 b.b_row <- row;
                 try exec_stmts env f.for_body
                 with Iterate_loop l
                 when Some (String.lowercase_ascii l)
                      = Option.map String.lowercase_ascii f.for_label ->
                   ())
               rs.Result_set.rows
           with Leave_loop l
           when Some (String.lowercase_ascii l)
                = Option.map String.lowercase_ascii f.for_label ->
             ());
          Unit)
  | Sleave l -> raise (Leave_loop l)
  | Siterate l -> raise (Iterate_loop l)
  | Sopen name -> (
      match find_cursor env name with
      | Some c ->
          c.c_rows <- Some (eval_query env c.c_query);
          c.c_pos <- 0;
          Unit
      | None -> sql_error "unknown cursor %s" name)
  | Sclose name -> (
      match find_cursor env name with
      | Some c ->
          c.c_rows <- None;
          c.c_pos <- 0;
          Unit
      | None -> sql_error "unknown cursor %s" name)
  | Sfetch (name, vars) -> (
      match find_cursor env name with
      | Some c -> (
          match c.c_rows with
          | None -> sql_error "cursor %s is not open" name
          | Some rs ->
              (match List.nth_opt rs.Result_set.rows c.c_pos with
              | None -> not_found env vars
              | Some row ->
                  c.c_pos <- c.c_pos + 1;
                  if List.length vars <> Array.length row then
                    sql_error "FETCH: %d variable(s) for %d column(s)"
                      (List.length vars) (Array.length row);
                  List.iteri
                    (fun i v ->
                      match find_var env v with
                      | Some r -> r := row.(i)
                      | None -> sql_error "unknown variable %s" v)
                    vars);
              Unit)
      | None -> sql_error "unknown cursor %s" name)
  | Sreturn None -> raise (Return_value Value.Null)
  | Sreturn (Some e) -> raise (Return_value (eval_expr env e))
  | Sreturn_query q -> raise (Return_table (eval_query env q))
  | Sbegin body ->
      let saved = env.scopes in
      env.scopes <- new_scope () :: env.scopes;
      Fun.protect
        ~finally:(fun () -> env.scopes <- saved)
        (fun () ->
          exec_stmts env body;
          Unit)
  | Stemporal _ ->
      sql_error
        "temporal statement modifier reached the conventional engine; \
         routines containing VALIDTIME are only invocable from a \
         nonsequenced context (the stratum rejects or rewrites them)"

and exec_loop env label step =
  let matches l =
    match label with
    | Some l' -> String.lowercase_ascii l = String.lowercase_ascii l'
    | None -> false
  in
  let rec go iters =
    Guard.check_loop env.guard iters;
    let continue_ =
      try step () with
      | Iterate_loop l when matches l -> true
      | Leave_loop l when matches l -> false
    in
    if continue_ then go (iters + 1)
  in
  go 1

and exec_insert env tname cols src : exec_result =
  let t = Database.find_table_exn env.cat.Catalog.db tname in
  let schema = Table.schema t in
  let arity = Schema.arity schema in
  let transactional = schema.Schema.transaction in
  (* Transaction time is system-maintained: users may not write it, and
     every inserted row is stamped [now, forever). *)
  (if transactional then
     match cols with
     | Some cs ->
         List.iter
           (fun c ->
             let k = String.lowercase_ascii c in
             if k = Schema.tt_begin_col || k = Schema.tt_end_col then
               sql_error
                 "column %s is system-maintained (transaction time)" c)
           cs
     | None -> ());
  let positions =
    match cols with
    | None ->
        if transactional then Array.init (arity - 2) Fun.id
        else Array.init arity Fun.id
    | Some cs ->
        let seen = Hashtbl.create 8 in
        List.iter
          (fun c ->
            let k = String.lowercase_ascii c in
            if Hashtbl.mem seen k then
              sql_error "INSERT names column %s twice" c;
            Hashtbl.add seen k ())
          cs;
        Array.of_list (List.map (Schema.column_index_exn schema) cs)
  in
  let tys =
    Array.of_list (List.map (fun c -> c.Schema.col_ty) schema.Schema.columns)
  in
  let insert_values vs =
    if List.length vs <> Array.length positions then
      sql_error "INSERT: %d value(s) for %d column(s)" (List.length vs)
        (Array.length positions);
    let row = Array.make arity Value.Null in
    List.iteri
      (fun i v ->
        let pos = positions.(i) in
        row.(pos) <- Value.cast ~ty:tys.(pos) v)
      vs;
    Versions.stamp schema ~now:env.now row;
    Guard.charge_rows env.guard 1;
    Table.insert t row
  in
  match src with
  | Ivalues rows ->
      List.iter (fun es -> insert_values (List.map (eval_expr env) es)) rows;
      Affected (List.length rows)
  | Iquery q ->
      let rs = eval_query env q in
      List.iter (fun r -> insert_values (Array.to_list r)) rs.Result_set.rows;
      Affected (List.length rs.Result_set.rows)

and with_table_binding env t f =
  let b =
    {
      b_alias = String.lowercase_ascii (Table.name t);
      b_cols = Select_plan.columns (Table.schema t);
      b_row = [||];
    }
  in
  let saved = env.frames in
  env.frames <- [ b ] :: env.frames;
  Fun.protect ~finally:(fun () -> env.frames <- saved) (fun () -> f b)

(* An UPDATE's SET list, resolved against [schema]: applied to a stored
   row (bound by the caller, so the expressions see it) it yields the
   modified copy.  Transaction-time columns are system-maintained. *)
and set_columns env (schema : Schema.t) sets =
  let set_idx =
    List.map
      (fun (c, e) ->
        let k = String.lowercase_ascii c in
        if
          schema.Schema.transaction
          && (k = Schema.tt_begin_col || k = Schema.tt_end_col)
        then sql_error "column %s is system-maintained (transaction time)" c;
        let i = Schema.column_index_exn schema c in
        (i, (List.nth schema.Schema.columns i).Schema.col_ty, e))
      sets
  in
  fun (row : Value.t array) ->
    let row' = Array.copy row in
    List.iter
      (fun (i, ty, e) -> row'.(i) <- Value.cast ~ty (eval_expr env e))
      set_idx;
    row'

and exec_update env tname sets where : exec_result =
  let t = Database.find_table_exn env.cat.Catalog.db tname in
  let schema = Table.schema t in
  let set = set_columns env schema sets in
  with_table_binding env t (fun b ->
      let matches row =
        b.b_row <- row;
        match where with None -> true | Some w -> truthy (eval_expr env w)
      in
      let modified row =
        b.b_row <- row;
        set row
      in
      if not schema.Schema.transaction then
        Affected (Table.update_where matches modified t)
      else begin
        (* Transaction-time table: the update is append-only.  The
           replacements are computed against the pre-statement table;
           {!Versions.apply} closes the old versions (or rewrites the
           ones opened today) and stamps the new ones. *)
        let updates =
          List.map
            (fun ((_, row) as stored) -> (stored, modified row))
            (Versions.current_rows t matches)
        in
        Versions.apply env.cat ~now:env.now t ~inserts:[] ~updates
          ~deletes:[];
        Affected (List.length updates)
      end)

and exec_delete env tname where : exec_result =
  let t = Database.find_table_exn env.cat.Catalog.db tname in
  with_table_binding env t (fun b ->
      let matches row =
        b.b_row <- row;
        match where with None -> true | Some w -> truthy (eval_expr env w)
      in
      if not (Table.schema t).Schema.transaction then
        Affected (Table.delete_where matches t)
      else begin
        (* Transaction-time table: a delete closes the current version
           at [now]; versions opened today are removed outright. *)
        let deletes = Versions.current_rows t matches in
        Versions.apply env.cat ~now:env.now t ~inserts:[] ~updates:[]
          ~deletes;
        Affected (List.length deletes)
      end)

and exec_create_table env ct : exec_result =
  let from_result rs =
    (* Infer column types from the first row with a non-NULL value. *)
    List.mapi
      (fun i cname ->
        let ty =
          let rec scan = function
            | [] -> Value.Tstring
            | (r : Value.t array) :: rest -> (
                match Value.type_of r.(i) with
                | Some ty -> ty
                | None -> scan rest)
          in
          scan rs.Result_set.rows
        in
        Schema.column ~name:cname ~ty)
      rs.Result_set.cols
  in
  let rs = Option.map (eval_query env) ct.ct_as in
  let columns =
    if ct.ct_cols <> [] then
      List.map (fun cd -> Schema.column ~name:cd.cd_name ~ty:cd.cd_ty) ct.ct_cols
    else
      match rs with
      | Some rs -> from_result rs
      | None -> sql_error "CREATE TABLE %s lacks both columns and AS query" ct.ct_name
  in
  (* For a temporal table defined AS a query, the query's own trailing
     begin_time/end_time columns serve as the timestamps. *)
  let temporal_cols_from_query =
    ct.ct_temporal && ct.ct_cols = []
    && List.exists
         (fun (c : Schema.column) ->
           String.lowercase_ascii c.Schema.col_name = Schema.begin_time_col)
         columns
  in
  let schema =
    Schema.make ~name:ct.ct_name ~columns ~transaction:ct.ct_transaction
      ~temporal:(ct.ct_temporal && not temporal_cols_from_query) ()
  in
  let schema =
    if temporal_cols_from_query then { schema with Schema.temporal = true }
    else schema
  in
  let constraints =
    List.map
      (function
        | Ct_temporal_pk cols -> Schema.Temporal_pk cols
        | Ct_temporal_fk (cols, rt, rcols) ->
            Schema.Temporal_fk
              { fk_cols = cols; ref_table = rt; ref_cols = rcols })
      ct.ct_constraints
  in
  if constraints <> [] && not schema.Schema.temporal then
    sql_error "temporal constraints require a VALIDTIME table (%s)" ct.ct_name;
  let check_cols owner cols =
    if cols = [] then
      sql_error "empty constraint column list on table %s" ct.ct_name;
    List.iter
      (fun c ->
        if Schema.is_timestamp_col owner c then
          sql_error "constraint column %s of %s is a timestamp column" c
            owner.Schema.name;
        if Schema.column_index owner c = None then
          sql_error "constraint column %s not in table %s" c owner.Schema.name)
      cols
  in
  List.iter
    (function
      | Schema.Temporal_pk cols -> check_cols schema cols
      | Schema.Temporal_fk { fk_cols; ref_table; ref_cols } -> (
          check_cols schema fk_cols;
          if List.length fk_cols <> List.length ref_cols then
            sql_error
              "TEMPORAL FOREIGN KEY on %s: column count mismatch with %s"
              ct.ct_name ref_table;
          match Database.find_table env.cat.Catalog.db ref_table with
          | None ->
              sql_error "TEMPORAL FOREIGN KEY on %s references unknown table %s"
                ct.ct_name ref_table
          | Some rt ->
              let rsch = Table.schema rt in
              if not rsch.Schema.temporal then
                sql_error
                  "TEMPORAL FOREIGN KEY on %s references non-VALIDTIME table %s"
                  ct.ct_name ref_table;
              check_cols rsch ref_cols))
    constraints;
  let schema =
    if constraints = [] then schema else { schema with Schema.constraints }
  in
  let table = Table.create schema in
  (match rs with
  | Some rs ->
      List.iter
        (fun r ->
          if Array.length r <> Schema.arity schema then
            sql_error "CREATE TABLE AS: arity mismatch for %s" ct.ct_name;
          Table.insert table (Array.copy r))
        rs.Result_set.rows
  | None -> ());
  if ct.ct_temp then Database.add_temp_table env.cat.Catalog.db table
  else Database.add_table env.cat.Catalog.db table;
  Unit

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

(* Execute a conventional (already transformed) statement. *)
let exec_toplevel ?now ?tt_mode cat (s : stmt) : exec_result =
  let env = create_env ?now ?tt_mode cat in
  (* A top-level statement may be a bare PSM block (used by generated
     code); give it a scope. *)
  env.scopes <- [ new_scope () ];
  Guard.enter env.guard;
  Fun.protect
    ~finally:(fun () -> Guard.leave env.guard)
    (fun () -> atomically env (fun () -> exec_stmt env s))
