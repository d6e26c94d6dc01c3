(* The evaluator: expressions (SQL three-valued logic), queries (nested-
   loop join with predicate pushdown and opportunistic hash joins),
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

exception Sql_error of string

let sql_error fmt = Printf.ksprintf (fun s -> raise (Sql_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Environment                                                         *)
(* ------------------------------------------------------------------ *)

(* One FROM item bound to its current row during join iteration. *)
type binding = {
  b_alias : string;  (* lowercase *)
  b_cols : string array;  (* lowercase column names *)
  mutable b_row : Value.t array;
}

(* A base-table FROM item.  Keeping the table handle (rather than an
   eagerly materialized row list) lets the join loop route period-overlap
   conjuncts through the table's interval index; [sc_rows] is the
   conventional transaction-time-filtered full scan, forced only when no
   index path applies, and [sc_tt_filter] is the exact transaction-time
   predicate re-applied to index candidates. *)
type scan = {
  sc_table : Table.t;
  sc_rows : Value.t array list Lazy.t;
  sc_tt_filter : (Value.t array -> bool) option;
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
type tt_mode = [ `Current | `Asof of Date.t | `All ]

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
    calls = 0;
    guard = cat.Catalog.options.Catalog.guards;
    ext_state = ref None;
  }

(* A child environment for a routine body: fresh frames and scopes so the
   routine cannot see the caller's columns or variables. *)
let routine_env env =
  { env with frames = []; scopes = [ new_scope () ] }

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
      (* WAL savepoint in step with the undo one: the raise below can
         be swallowed upstream (try_materialize's lateral-subquery
         probe) with the outer statement still committing, so the
         rolled-back scope's buffered events must go too. *)
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
   [None] falls through to the interpreter.  The compiled/interpreted
   counters make coverage visible per query in EXPLAIN. *)
let select_compiler : (env -> select -> Result_set.t option) ref =
  ref (fun _ _ -> None)

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

(* Resolve a FROM item into (alias, columns, row source).

   A derived table (or view) whose query references a sibling FROM item
   cannot be materialized up front; when its evaluation fails on an
   unknown column we defer it to join time (`Lateral_sub`), giving it
   quasi-LATERAL semantics.  Genuine unknown-column errors re-raise
   identically during the join. *)
and eval_table_ref env (tr : table_ref) :
    string
    * string array
    * [ `Rows of Value.t array list
      | `Scan of scan
      | `Lateral of expr list * string
      | `Lateral_sub of query ]
    =
  let try_materialize alias q =
    match eval_query env q with
    | rs ->
        ( alias,
          Array.of_list (List.map String.lowercase_ascii rs.Result_set.cols),
          `Rows rs.Result_set.rows )
    | exception Sql_error msg
      when String.length msg >= 14 && String.sub msg 0 14 = "unknown column" ->
        (* Column names must still be known up front: take them from a
           probe evaluation against empty bindings is impossible, so
           derive them from the query's projection. *)
        ( alias,
          Array.of_list (List.map String.lowercase_ascii (query_columns env q)),
          `Lateral_sub q )
  in
  match tr with
  | Tref (name, alias) -> (
      let alias = Option.value alias ~default:name in
      match Database.find_table env.cat.Catalog.db name with
      | Some t ->
          let schema = Table.schema t in
          let cols =
            Array.of_list
              (List.map
                 (fun c -> String.lowercase_ascii c.Schema.col_name)
                 schema.Schema.columns)
          in
          (* Transaction-time filtering is system-enforced at the scan.
             When the interval index is enabled, the AS OF / CURRENT
             filters become stabbing queries on the (tt_begin, tt_end)
             pair; candidates are still re-checked by the exact
             predicate, so results match the filtered full scan. *)
          let tt_filter =
            if not schema.Schema.transaction then None
            else
              let bi = Schema.tt_begin_index schema
              and ei = Schema.tt_end_index schema in
              match env.tt_mode with
              | `All -> None
              | `Current ->
                  Some
                    (fun (r : Value.t array) ->
                      Value.to_date_exn r.(ei) = Date.forever)
              | `Asof d ->
                  Some
                    (fun (r : Value.t array) ->
                      Value.to_date_exn r.(bi) <= d
                      && d < Value.to_date_exn r.(ei))
          in
          let sc_rows =
            lazy
              (match tt_filter with
              | None -> Table.to_list t
              | Some p ->
                  if env.cat.Catalog.options.Catalog.temporal_index then
                    let bi = Schema.tt_begin_index schema
                    and ei = Schema.tt_end_index schema in
                    let begin_, end_ =
                      match env.tt_mode with
                      | `Asof d -> (d, d + 1)
                      | _ -> (Date.forever - 1, max_int)
                    in
                    List.filter p (Table.overlapping t ~bi ~ei ~begin_ ~end_)
                  else List.filter p (Table.to_list t))
          in
          (alias, cols, `Scan { sc_table = t; sc_rows; sc_tt_filter = tt_filter })
      | None -> (
          match Catalog.find_view env.cat name with
          | Some q -> try_materialize alias q
          | None -> sql_error "unknown table or view %s" name))
  | Tsub (q, alias) -> try_materialize alias q
  | Tjoin _ ->
      (* Joins are flattened by eval_select before sources are resolved. *)
      assert false
  | Tfun (fname, args, alias) ->
      let cols =
        match Catalog.find_native_table_fun env.cat fname with
        | Some ntf ->
            Array.of_list (List.map String.lowercase_ascii ntf.Catalog.ntf_cols)
        | None -> (
            match Catalog.find_function env.cat fname with
            | Some { r_returns = Some (Ret_table cds); _ } ->
                Array.of_list
                  (List.map (fun cd -> String.lowercase_ascii cd.cd_name) cds)
            | Some _ -> sql_error "%s is not a table function" fname
            | None -> sql_error "unknown table function %s" fname)
      in
      (alias, cols, `Lateral (args, fname))

(* The output column names of a query, statically (used when a lateral
   derived table cannot be materialized up front).  Star projections of
   base tables are resolvable; anything else must use explicit names. *)
and query_columns env (q : query) : string list =
  match q with
  | Select s ->
      List.concat_map
        (function
          | Proj_expr (_, Some a) -> [ a ]
          | Proj_expr (Col (_, c), None) -> [ c ]
          | Proj_expr (_, None) -> [ "?column?" ]
          | Star ->
              let rec cols_of = function
                | Tref (name, _) -> (
                    match Database.find_table env.cat.Catalog.db name with
                    | Some t ->
                        List.map
                          (fun c -> c.Schema.col_name)
                          (Table.schema t).Schema.columns
                    | None -> sql_error "cannot infer columns of %s" name)
                | Tjoin (l, _, r, _) -> cols_of l @ cols_of r
                | _ ->
                    sql_error
                      "cannot infer the columns of a lateral derived table \
                       with SELECT *"
              in
              List.concat_map cols_of s.from
          | Qual_star _ ->
              sql_error
                "cannot infer the columns of a lateral derived table with \
                 qualified *")
        s.proj
  | Union (_, a, _) | Except (_, a, _) | Intersect (_, a, _) ->
      query_columns env a

(* Invoke a table function, memoizing on argument values for the duration
   of the enclosing top-level statement.  Native table functions are not
   memoized: they may read mutable temporary state (e.g. the stratum's
   runtime constant-period computation over variable tables). *)
and invoke_table_function env fname argv : Result_set.t =
  match Catalog.find_native_table_fun env.cat fname with
  | Some ntf -> ntf.Catalog.ntf_fn env.cat argv
  | None -> (
      let memoize = env.cat.Catalog.options.Catalog.memoize_table_functions in
      (* Keyed on the catalog generation so mid-statement DDL that
         redefines a routine orphans every entry computed under the old
         definitions instead of serving stale rows. *)
      let key =
        (env.cat.Catalog.generation, String.lowercase_ascii fname, argv)
      in
      match if memoize then Hashtbl.find_opt env.tf_cache key else None with
      | Some rs -> rs
      | None ->
          let r =
            match Catalog.find_function env.cat fname with
            | Some r -> r
            | None -> sql_error "unknown table function %s" fname
          in
          let rs = invoke_routine_table env r argv in
          if memoize then Hashtbl.add env.tf_cache key rs;
          rs)

and eval_select env (s : select) : Result_set.t =
  if not env.cat.Catalog.options.Catalog.compile then eval_select_interp env s
  else
    match !select_compiler env s with
    | Some rs ->
        Trace.count env.cat.Catalog.obs "compile.compiled" 1;
        rs
    | None ->
        Trace.count env.cat.Catalog.obs "compile.interpreted" 1;
        eval_select_interp env s

and eval_select_interp env (s : select) : Result_set.t =
  (* Flatten explicit joins: inner-join ON conditions become ordinary
     conjuncts; a left join marks its right side with the ON condition
     so the join loop can null-extend unmatched combinations. *)
  let rec flatten_from (tr : table_ref) :
      (table_ref * expr option (* left-join ON *)) list * expr list =
    match tr with
    | Tjoin (l, Jinner, r, on) ->
        let ul, cl = flatten_from l in
        let ur, cr = flatten_from r in
        (ul @ ur, cl @ cr @ [ on ])
    | Tjoin (l, Jleft, r, on) ->
        let ul, cl = flatten_from l in
        (match r with
        | Tjoin _ ->
            sql_error "a nested join on the right of a LEFT JOIN is not supported"
        | _ -> ());
        (ul @ [ (r, Some on) ], cl)
    | _ -> ([ (tr, None) ], [])
  in
  let flat_from, join_conjuncts =
    List.fold_left
      (fun (us, cs) tr ->
        let u, c = flatten_from tr in
        (us @ u, cs @ c))
      ([], []) s.from
  in
  let sources =
    List.map (fun (tr, on) -> (eval_table_ref env tr, on)) flat_from
  in
  let bindings =
    List.map
      (fun (((alias, cols, _), _) : _ * expr option) ->
        { b_alias = String.lowercase_ascii alias; b_cols = cols; b_row = [||] })
      sources
  in
  let n = List.length sources in
  let bindings_arr = Array.of_list bindings in
  let sources_arr = Array.of_list sources in
  let local_aliases = List.map (fun b -> b.b_alias) bindings in
  (* Split WHERE into conjuncts and assign each to the earliest join level
     at which all its locally-referenced aliases are bound. *)
  let conjuncts =
    let rec split = function
      | Binop (And, a, b) -> split a @ split b
      | e -> [ e ]
    in
    join_conjuncts
    @ (match s.where with None -> [] | Some w -> split w)
  in
  let alias_level =
    List.mapi (fun i a -> (a, i)) local_aliases
  in
  (* Which local aliases does an expression reference?  An unqualified
     column counts for the first local source that has the column. *)
  let rec expr_aliases acc (e : expr) =
    match e with
    | Col (Some q, _) -> (
        let lq = String.lowercase_ascii q in
        match List.assoc_opt lq alias_level with
        | Some lvl -> lvl :: acc
        | None -> acc)
    | Col (None, c) -> (
        let lc = String.lowercase_ascii c in
        let found =
          List.find_opt
            (fun b -> Array.exists (fun col -> col = lc) b.b_cols)
            bindings
        in
        match found with
        | Some b -> (List.assoc b.b_alias alias_level) :: acc
        | None -> acc)
    | _ ->
        let acc =
          fold_expr_queries
            (fun acc q ->
              (* Subqueries may correlate with local aliases. *)
              List.fold_left
                (fun acc sel ->
                  let refs = collect_col_refs sel in
                  List.fold_left
                    (fun acc r ->
                      match r with
                      | Some q, _ -> (
                          match
                            List.assoc_opt (String.lowercase_ascii q) alias_level
                          with
                          | Some lvl -> lvl :: acc
                          | None -> acc)
                      | None, _ -> acc)
                    acc refs)
                acc (query_selects q))
            acc e
        in
        shallow_fold_expr expr_aliases acc e
  and shallow_fold_expr f acc e =
    match e with
    | Lit _ | Col _ -> acc
    | Binop (_, a, b) -> f (f acc a) b
    | Unop (_, a) | Cast (a, _) | Is_null (a, _) -> f acc a
    | Fun_call (_, args) -> List.fold_left f acc args
    | Agg (_, _, Some a) -> f acc a
    | Agg (_, _, None) -> acc
    | Case c ->
        let acc = match c.case_operand with Some e -> f acc e | None -> acc in
        let acc =
          List.fold_left (fun acc (w, t) -> f (f acc w) t) acc c.case_branches
        in
        (match c.case_else with Some e -> f acc e | None -> acc)
    | Exists _ | Scalar_subquery _ -> acc
    | In_pred (e, In_list es, _) -> List.fold_left f (f acc e) es
    | In_pred (e, In_query _, _) -> f acc e
    | Between (a, b, c, _) -> f (f (f acc a) b) c
    | Like (a, b, _) -> f (f acc a) b
  in
  let conjunct_level e =
    match expr_aliases [] e with [] -> 0 | ls -> List.fold_left max 0 ls
  in
  let has_fun_call e =
    fold_expr_funcalls
      (fun acc name _ -> acc || not (Builtins.is_builtin name))
      false e
  in
  let level_conjuncts =
    Array.make (max n 1) ([] : expr list)
  in
  List.iter
    (fun c ->
      let lvl = conjunct_level c in
      level_conjuncts.(lvl) <- c :: level_conjuncts.(lvl))
    conjuncts;
  (* Cheap conjuncts (no stored-function calls) run first at each level. *)
  Array.iteri
    (fun i cs ->
      let cheap, costly = List.partition (fun c -> not (has_fun_call c)) cs in
      level_conjuncts.(i) <- cheap @ costly)
    level_conjuncts;
  (* Which (lowercase) column of source [i] does [e] name, if any?  An
     unqualified column must belong to source i and no other source. *)
  let col_of_source i =
    let b = bindings_arr.(i) in
    function
    | Col (Some q, c) when String.lowercase_ascii q = b.b_alias ->
        let lc = String.lowercase_ascii c in
        if Array.exists (fun col -> col = lc) b.b_cols then Some lc else None
    | Col (None, c) ->
        let lc = String.lowercase_ascii c in
        if
          Array.exists (fun col -> col = lc) b.b_cols
          && not
               (List.exists
                  (fun b' ->
                    b'.b_alias <> b.b_alias
                    && Array.exists (fun col -> col = lc) b'.b_cols)
                  bindings)
        then Some lc
        else None
    | _ -> None
  in
  let bound_before i e =
    List.for_all (fun lvl -> lvl < i) (expr_aliases [] e)
  in
  (* Hash-join detection: at level i, a conjunct of the form
     col_of_source_i = expr_bound_earlier lets us index source i. *)
  let find_hash_key i =
    let col_of_i = col_of_source i in
    let bound_elsewhere = bound_before i in
    let rec scan = function
      | [] -> None
      | c :: rest -> (
          match c with
          | Binop (Eq, a, bb) -> (
              match (col_of_i a, bound_elsewhere bb) with
              | Some col, true -> Some (col, bb, c)
              | _ -> (
                  match (col_of_i bb, bound_elsewhere a) with
                  | Some col, true -> Some (col, a, c)
                  | _ -> scan rest))
          | _ -> scan rest)
    in
    scan level_conjuncts.(i)
  in
  let hash_plans = Array.init (max n 1) (fun i -> if i < n then find_hash_key i else None) in
  (* Build the hash index lazily per source. *)
  let hash_indexes :
      (Value.t, Value.t array list) Hashtbl.t option array =
    Array.make (max n 1) None
  in
  let get_index i col rows =
    match hash_indexes.(i) with
    | Some h -> h
    | None ->
        let b = bindings_arr.(i) in
        let ci =
          let rec go j = if b.b_cols.(j) = col then j else go (j + 1) in
          go 0
        in
        let h = Hashtbl.create 256 in
        List.iter
          (fun (r : Value.t array) ->
            let k = r.(ci) in
            if not (Value.is_null k) then
              Hashtbl.replace h k
                (r :: (Option.value (Hashtbl.find_opt h k) ~default:[])))
          rows;
        hash_indexes.(i) <- Some h;
        h
  in
  (* Period-overlap scan detection: at level i over a temporal base
     table, range conjuncts on begin_time/end_time whose other side is
     bound earlier describe a window [l, u) that every surviving row
     must overlap; the table's interval index then yields the candidate
     set in O(log n + k) instead of a full scan.  The conjuncts are
     never marked satisfied — every candidate is still checked exactly —
     so the index only has to return a superset, which makes NULLs,
     non-date timestamps and empty periods trivially correct. *)
  let find_period_plan i =
    let (_, _, src), left_on = sources_arr.(i) in
    match src with
    | `Scan sc when (Table.schema sc.sc_table).Schema.temporal ->
        let schema = Table.schema sc.sc_table in
        let which e =
          match col_of_source i e with
          | Some lc when lc = Schema.begin_time_col -> Some `Begin
          | Some lc when lc = Schema.end_time_col -> Some `End
          | _ -> None
        in
        (* A usable bound must be computable before source i is bound
           and side-effect free (it is evaluated once per scan rather
           than once per row). *)
        let usable e = bound_before i e && not (has_fun_call e) in
        (* Upper bounds u: begin_time < u.  Lower bounds l: end_time > l.
           Each entry is (bound expr, inclusive, source conjunct, exact):
           inclusive comparisons are widened by one day when evaluated;
           [exact] marks conjuncts the window implies outright (every
           comparison except Eq, whose other half the window cannot
           carry), letting the scan skip their per-row re-check when the
           index has no residual rows. *)
        let ubs = ref [] and lbs = ref [] in
        let consider c =
          match c with
          | Binop (op, x, y) -> (
              match (which x, which y) with
              | Some side, None when usable y -> (
                  match (side, op) with
                  | `Begin, Le -> ubs := (y, true, c, true) :: !ubs
                  | `Begin, Eq -> ubs := (y, true, c, false) :: !ubs
                  | `Begin, Lt -> ubs := (y, false, c, true) :: !ubs
                  | `End, Ge -> lbs := (y, true, c, true) :: !lbs
                  | `End, Eq -> lbs := (y, true, c, false) :: !lbs
                  | `End, Gt -> lbs := (y, false, c, true) :: !lbs
                  | _ -> ())
              | None, Some side when usable x -> (
                  match (side, op) with
                  | `Begin, Ge -> ubs := (x, true, c, true) :: !ubs
                  | `Begin, Eq -> ubs := (x, true, c, false) :: !ubs
                  | `Begin, Gt -> ubs := (x, false, c, true) :: !ubs
                  | `End, Le -> lbs := (x, true, c, true) :: !lbs
                  | `End, Eq -> lbs := (x, true, c, false) :: !lbs
                  | `End, Lt -> lbs := (x, false, c, true) :: !lbs
                  | _ -> ())
              | _ -> ())
          | _ -> ()
        in
        let conjuncts =
          match left_on with
          | None -> level_conjuncts.(i)
          | Some on ->
              (* LEFT JOIN: matches are selected by the ON condition. *)
              let rec split = function
                | Binop (And, a, b) -> split a @ split b
                | e -> [ e ]
              in
              split on
        in
        List.iter consider conjuncts;
        if !ubs = [] && !lbs = [] then None
        else
          Some (sc, Schema.begin_index schema, Schema.end_index schema, !ubs, !lbs)
    | _ -> None
  in
  let period_plans =
    Array.init (max n 1) (fun i ->
        if i < n && env.cat.Catalog.options.Catalog.temporal_index then
          find_period_plan i
        else None)
  in
  (* One plan event per SELECT evaluation: the join order with the
     statically-chosen access path at each level.  (A period plan can
     still fall back at runtime on a non-date bound; that shows up as a
     [scan.residual_fallback] counter.) *)
  if Trace.enabled env.cat.Catalog.obs && n > 0 then begin
    let path i =
      let (_, _, src), left_on = sources_arr.(i) in
      match src with
      | `Lateral _ | `Lateral_sub _ -> "lateral"
      | `Rows _ | `Scan _ -> (
          match hash_plans.(i) with
          | Some (col, _, _)
            when left_on = None && env.cat.Catalog.options.Catalog.hash_joins ->
              "hash(" ^ col ^ ")"
          | _ -> if period_plans.(i) <> None then "index" else "full")
    in
    let parts =
      List.init n (fun i -> bindings_arr.(i).b_alias ^ ":" ^ path i)
    in
    Trace.event env.cat.Catalog.obs "join" ("order=" ^ String.concat "," parts)
  end;
  (* Run level i's period plan, if any: evaluate the bound expressions
     (declining unless every one yields a DATE) and query the interval
     index.  Candidates come back in scan order, so downstream results
     are indistinguishable from a full scan.  The second component is
     the conjuncts the window already enforces exactly (b < min u_i
     implies every upper conjunct, e > max l_i every lower one) — valid
     only when the index has no residual rows, since residuals are
     returned unchecked. *)
  let obs = env.cat.Catalog.obs in
  let period_scan i =
    match period_plans.(i) with
    | None -> None
    | Some (sc, bi, ei, ubs, lbs) -> (
        let fold init pick adjust bounds =
          List.fold_left
            (fun acc (e, incl, _, _) ->
              match acc with
              | None -> None
              | Some v -> (
                  match eval_expr env e with
                  | Value.Date d -> Some (pick v (adjust d incl))
                  | _ -> None))
            (Some init) bounds
        in
        let u = fold max_int min (fun d incl -> if incl then d + 1 else d) ubs in
        let l = fold min_int max (fun d incl -> if incl then d - 1 else d) lbs in
        match (l, u) with
        | Some l, Some u ->
            let cands =
              Table.overlapping sc.sc_table ~bi ~ei ~begin_:l ~end_:u
            in
            let satisfied =
              if Table.overlap_residuals sc.sc_table ~bi ~ei = 0 then
                List.filter_map
                  (fun (_, _, c, exact) -> if exact then Some c else None)
                  (ubs @ lbs)
              else []
            in
            if Trace.enabled obs then begin
              let tname = Table.name sc.sc_table in
              Trace.count obs "scan.indexed" 1;
              Trace.count obs ("scan.indexed:" ^ tname) 1;
              Trace.count obs "rows.probed" (List.length cands);
              let bound d inf =
                if d = min_int || d = max_int then inf else Date.to_string d
              in
              Trace.event obs "scan"
                (Printf.sprintf
                   "indexed table=%s window=(%s,%s) probes=%d elided=%d" tname
                   (bound l "-inf") (bound u "+inf") (List.length cands)
                   (List.length satisfied))
            end;
            Some
              ( (match sc.sc_tt_filter with
                | Some p -> List.filter p cands
                | None -> cands),
                satisfied )
        | _ ->
            (* A bound did not evaluate to a DATE: fall back to the full
               scan rather than trust the window. *)
            if Trace.enabled obs then begin
              Trace.count obs "scan.residual_fallback" 1;
              Trace.event obs "scan"
                (Printf.sprintf "fallback table=%s (non-date bound)"
                   (Table.name sc.sc_table))
            end;
            None)
  in
  (* Push the new frame for this SELECT. *)
  let saved_frames = env.frames in
  env.frames <- bindings :: env.frames;
  Fun.protect
    ~finally:(fun () -> env.frames <- saved_frames)
    (fun () ->
      let grouped =
        s.group_by <> [] || s.having <> None
        || List.exists
             (function
               | Proj_expr (e, _) ->
                   fold_has_agg e
               | _ -> false)
             s.proj
      in
      let snapshots = ref [] in
      let flat_rows = ref [] in
      let emit () =
        Guard.charge_rows env.guard 1;
        if grouped then
          (* Snapshot the joined row for later grouping. *)
          snapshots := Array.map (fun b -> b.b_row) bindings_arr :: !snapshots
        else begin
          let out = eval_projection env s bindings in
          let keys =
            List.map (fun (e, _) -> eval_order_key env s bindings e) s.order_by
          in
          flat_rows := Array.of_list (out @ keys) :: !flat_rows
        end
      in
      let rec extend i =
        if i = n then begin
          (* Constant conjuncts at level 0 were already checked when n>0;
             when n=0 check them here. *)
          if n = 0 then begin
            if List.for_all (fun c -> truthy (eval_expr env c)) level_conjuncts.(0)
            then emit ()
          end
          else emit ()
        end
        else begin
          let (_, _, src), left_on = sources_arr.(i) in
          let b = bindings_arr.(i) in
          let all_rows () =
            match src with
            | `Rows rows -> rows
            | `Scan sc -> Lazy.force sc.sc_rows
            | `Lateral (args, fname) ->
                let argv = List.map (eval_expr env) args in
                if List.exists Value.is_null argv then []
                else (invoke_table_function env fname argv).Result_set.rows
            | `Lateral_sub q -> (eval_query env q).Result_set.rows
          in
          match left_on with
          | Some on ->
              (* LEFT JOIN: the ON condition selects matches; when none
                 match, the right side is null-extended (WHERE-level
                 conjuncts then apply to the extended row). *)
              let matched = ref false in
              (* The ON condition is evaluated whole, so the window's
                 satisfied conjuncts cannot be elided here. *)
              let rows =
                match period_scan i with
                | Some (cands, _) -> cands
                | None ->
                    let rows = all_rows () in
                    if Trace.enabled obs then begin
                      Trace.count obs "scan.full" 1;
                      Trace.count obs "rows.probed" (List.length rows)
                    end;
                    rows
              in
              List.iter
                (fun row ->
                  b.b_row <- row;
                  if truthy (eval_expr env on) then begin
                    matched := true;
                    if
                      List.for_all
                        (fun c -> truthy (eval_expr env c))
                        level_conjuncts.(i)
                    then begin
                      Trace.count obs "rows.matched" 1;
                      extend (i + 1)
                    end
                  end)
                rows;
              if not !matched then begin
                b.b_row <- Array.make (Array.length b.b_cols) Value.Null;
                if
                  List.for_all
                    (fun c -> truthy (eval_expr env c))
                    level_conjuncts.(i)
                then extend (i + 1)
              end
          | None ->
              (* [satisfied] lists conjuncts already enforced by the
                 access path — the hash lookup's equality, or the
                 interval-index window's exact comparisons; lateral
                 sources always scan. *)
              let candidate_rows, satisfied =
                match src with
                | `Lateral _ | `Lateral_sub _ ->
                    let rows = all_rows () in
                    if Trace.enabled obs then begin
                      Trace.count obs "scan.lateral" 1;
                      Trace.count obs "rows.probed" (List.length rows)
                    end;
                    (rows, [])
                | `Rows _ | `Scan _ -> (
                    let hash_plan =
                      if env.cat.Catalog.options.Catalog.hash_joins then
                        hash_plans.(i)
                      else None
                    in
                    match hash_plan with
                    | Some (col, probe, used) ->
                        let rows =
                          let k = eval_expr env probe in
                          if Value.is_null k then []
                          else
                            match
                              Hashtbl.find_opt (get_index i col (all_rows ())) k
                            with
                            | Some rs -> rs
                            | None -> []
                        in
                        if Trace.enabled obs then begin
                          Trace.count obs "scan.hash" 1;
                          Trace.count obs "rows.probed" (List.length rows)
                        end;
                        (rows, [ used ])
                    | None -> (
                        match period_scan i with
                        | Some (cands, sat) -> (cands, sat)
                        | None ->
                            let rows = all_rows () in
                            if Trace.enabled obs then begin
                              let tname =
                                match src with
                                | `Scan sc -> Table.name sc.sc_table
                                | _ -> b.b_alias
                              in
                              Trace.count obs "scan.full" 1;
                              Trace.count obs ("scan.full:" ^ tname) 1;
                              Trace.count obs "rows.probed" (List.length rows)
                            end;
                            (rows, [])))
              in
              let checks =
                match satisfied with
                | [] -> level_conjuncts.(i)
                | sat ->
                    List.filter
                      (fun c -> not (List.memq c sat))
                      level_conjuncts.(i)
              in
              if Trace.enabled obs && satisfied <> [] then
                Trace.count obs "conjuncts.elided" (List.length satisfied);
              List.iter
                (fun row ->
                  b.b_row <- row;
                  if List.for_all (fun c -> truthy (eval_expr env c)) checks
                  then begin
                    Trace.count obs "rows.matched" 1;
                    extend (i + 1)
                  end)
                candidate_rows
        end
      in
      extend 0;
      if grouped then finish_grouped env s bindings (List.rev !snapshots)
      else finish_flat env s (List.rev !flat_rows))

and fold_has_agg e =
  let rec go = function
    | Agg _ -> true
    | Lit _ | Col _ -> false
    | Binop (_, a, b) -> go a || go b
    | Unop (_, a) | Cast (a, _) | Is_null (a, _) -> go a
    | Fun_call (_, args) -> List.exists go args
    | Case c ->
        (match c.case_operand with Some e -> go e | None -> false)
        || List.exists (fun (w, t) -> go w || go t) c.case_branches
        || (match c.case_else with Some e -> go e | None -> false)
    | Exists _ | Scalar_subquery _ -> false
    | In_pred (e, In_list es, _) -> go e || List.exists go es
    | In_pred (e, In_query _, _) -> go e
    | Between (a, b, c, _) -> go a || go b || go c
    | Like (a, b, _) -> go a || go b
  in
  go e

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
      | Proj_expr (Col (_, c), None) -> [ c ]
      | Proj_expr (Agg (af, _, _), None) ->
          [ String.lowercase_ascii (match af with
              | Count_star | Count -> "count" | Sum -> "sum" | Avg -> "avg"
              | Min -> "min" | Max -> "max") ]
      | Proj_expr (_, None) -> [ "?column?" ])
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

and eval_order_key env s bindings e =
  (* An ORDER BY item that names a projection alias refers to the output;
     anything else is evaluated in the row context. *)
  ignore s;
  ignore bindings;
  eval_expr env e

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

(* Collect (qualifier, column) references of a select block, shallowly. *)
and collect_col_refs (sel : select) : (string option * string) list =
  let acc = ref [] in
  let rec walk (e : expr) =
    match e with
    | Col (q, c) -> acc := (q, c) :: !acc
    | Lit _ -> ()
    | Binop (_, a, b) -> walk a; walk b
    | Unop (_, a) | Cast (a, _) | Is_null (a, _) -> walk a
    | Fun_call (_, args) -> List.iter walk args
    | Agg (_, _, Some a) -> walk a
    | Agg (_, _, None) -> ()
    | Case c ->
        Option.iter walk c.case_operand;
        List.iter (fun (w, t) -> walk w; walk t) c.case_branches;
        Option.iter walk c.case_else
    | Exists _ | Scalar_subquery _ -> ()
    | In_pred (e, In_list es, _) -> walk e; List.iter walk es
    | In_pred (e, In_query _, _) -> walk e
    | Between (a, b, c, _) -> walk a; walk b; walk c
    | Like (a, b, _) -> walk a; walk b
  in
  List.iter (function Proj_expr (e, _) -> walk e | _ -> ()) sel.proj;
  Option.iter walk sel.where;
  List.iter walk sel.group_by;
  Option.iter walk sel.having;
  !acc

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
  let schema = Table.schema t in
  let cols =
    Array.of_list
      (List.map
         (fun c -> String.lowercase_ascii c.Schema.col_name)
         schema.Schema.columns)
  in
  let b =
    {
      b_alias = String.lowercase_ascii (Table.name t);
      b_cols = cols;
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
