(* Abstract syntax for the SQL/PSM subset plus SQL/Temporal statement
   modifiers.

   The same AST serves four clients: the parser (lib/sqlparse), the
   evaluator (lib/sqleval), the temporal transformations (lib/core) —
   which are AST->AST, mirroring the paper's source-to-source stratum —
   and the pretty printer (Pretty), which renders the transformed
   conventional SQL/PSM back to text as in the paper's figures. *)

type ty = Sqldb.Value.ty
type value = Sqldb.Value.t

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

type binop =
  | Add | Sub | Mul | Div | Mod | Concat
  | Eq | Neq | Lt | Le | Gt | Ge
  | And | Or

type unop = Neg | Not

type agg_fun = Count_star | Count | Sum | Avg | Min | Max

type expr =
  | Lit of value
  | Col of string option * string
      (* [qualifier.]name; unqualified names also resolve PSM variables
         and routine parameters, innermost scope first *)
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Fun_call of string * expr list  (* stored or builtin scalar function *)
  | Agg of agg_fun * bool * expr option  (* aggregate, DISTINCT?, operand *)
  | Cast of expr * ty
  | Case of case
  | Exists of query
  | In_pred of expr * in_source * bool  (* negated? *)
  | Between of expr * expr * expr * bool
  | Is_null of expr * bool
  | Like of expr * expr * bool
  | Scalar_subquery of query

and case = {
  case_operand : expr option;  (* simple CASE vs searched CASE *)
  case_branches : (expr * expr) list;
  case_else : expr option;
}

and in_source = In_list of expr list | In_query of query

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

and query =
  | Select of select
  | Union of bool * query * query  (* ALL? *)
  | Except of bool * query * query
  | Intersect of bool * query * query

and select = {
  distinct : bool;
  proj : proj list;
  from : table_ref list;
  where : expr option;
  group_by : expr list;
  having : expr option;
  order_by : (expr * order_dir) list;
  offset : expr option;
      (* OFFSET n ROWS: skip the first n result rows; an expression so
         generated PSM can offset by a local variable (cursor emulation) *)
  fetch_first : expr option;
}

and proj = Star | Qual_star of string | Proj_expr of expr * string option

and order_dir = Asc | Desc

and table_ref =
  | Tref of string * string option  (* base table or view, optional alias *)
  | Tsub of query * string  (* derived table with mandatory alias *)
  | Tfun of string * expr list * string
      (* TABLE(f(args)) AS alias — table-valued function in FROM; used by
         benchmark query q19 and by the PERST transformation *)
  | Tjoin of table_ref * join_kind * table_ref * expr
      (* explicit join syntax; INNER desugars to a cross product with the
         ON condition conjoined, LEFT null-extends unmatched left rows *)

and join_kind = Jinner | Jleft

(* ------------------------------------------------------------------ *)
(* Statements (SQL + PSM)                                              *)
(* ------------------------------------------------------------------ *)

type column_def = { cd_name : string; cd_ty : ty }

type param_mode = Pin | Pout | Pinout

type param = { p_name : string; p_ty : ty; p_mode : param_mode }

type returns = Ret_scalar of ty | Ret_table of column_def list

type insert_src = Ivalues of expr list list | Iquery of query

type stmt =
  | Squery of query
  | Sinsert of string * string list option * insert_src
  | Supdate of string * (string * expr) list * expr option
  | Sdelete of string * expr option
  | Smerge of merge_stmt
      (* TEMPORAL MERGE: set-based sequenced write, planned as atomic
         time segments then executed add-then-modify (docs/merge_semantics.md) *)
  | Screate_table of create_table
  | Sdrop_table of string
  | Screate_view of string * query
  | Screate_function of routine
  | Screate_procedure of routine
  | Scall of string * expr list
      (* OUT/INOUT argument positions must be unqualified Col variables *)
  (* PSM statements *)
  | Sdeclare of string list * ty * expr option
  | Sdeclare_cursor of string * query
  | Sdeclare_handler of stmt
      (* DECLARE CONTINUE HANDLER FOR NOT FOUND <stmt>; fired when a FETCH
         or SELECT INTO finds no row — the standard cursor-loop idiom *)
  | Sset of string * expr
  | Sselect_into of select * string list
  | Sif of (expr * stmt list) list * stmt list option
  | Scase_stmt of expr option * (expr * stmt list) list * stmt list option
  | Swhile of string option * expr * stmt list
  | Srepeat of string option * stmt list * expr  (* REPEAT body UNTIL cond *)
  | Sfor of sfor
  | Sloop of string option * stmt list
  | Sleave of string
  | Siterate of string
  | Sopen of string
  | Sclose of string
  | Sfetch of string * string list  (* FETCH cursor INTO vars *)
  | Sreturn of expr option
  | Sreturn_query of query  (* RETURN TABLE (query) from a table function *)
  | Sbegin of stmt list
  | Stemporal of modifier_in * stmt
      (* a temporal statement modifier *inside* a routine body; legal only
         when the routine is invoked from a nonsequenced context (§IV-A) *)

and modifier_in =
  | Min_sequenced of (expr * expr) option
  | Min_nonsequenced

and create_table = {
  ct_name : string;
  ct_cols : column_def list;
  ct_temporal : bool;  (* ... WITH VALIDTIME *)
  ct_transaction : bool;  (* ... WITH TRANSACTIONTIME (system-maintained) *)
  ct_temp : bool;  (* CREATE TEMPORARY TABLE *)
  ct_as : query option;
  ct_constraints : table_constraint list;
      (* temporal integrity constraints; only legal on VALIDTIME tables *)
}

and table_constraint =
  | Ct_temporal_pk of string list
      (* TEMPORAL PRIMARY KEY (cols): per key tuple, valid-time periods of
         current rows must not overlap *)
  | Ct_temporal_fk of string list * string * string list
      (* TEMPORAL FOREIGN KEY (cols) REFERENCES t (cols): every referencing
         row's period must be covered without gaps by referenced rows *)

and merge_mode = Mupsert | Mpatch | Mreplace

and merge_stmt = {
  m_target : string;
  m_source : query;
      (* must produce begin_time/end_time columns alongside the payload *)
  m_mode : merge_mode;
  m_keys : string list;  (* [] = the target's declared TEMPORAL PRIMARY KEY *)
  m_ephemeral : string list;
      (* columns written through but excluded from change detection *)
}

and sfor = {
  for_label : string option;
  for_query : query;
  for_body : stmt list;
      (* the cursor's columns are in scope by name inside the body *)
}

and routine = {
  r_name : string;
  r_params : param list;
  r_returns : returns option;  (* None for procedures *)
  r_body : stmt list;
}

(* ------------------------------------------------------------------ *)
(* Temporal statement modifiers (SQL/Temporal, extended to PSM)        *)
(* ------------------------------------------------------------------ *)

type modifier =
  | Mod_current  (* no keyword: current semantics, giving TUC *)
  | Mod_sequenced of (expr * expr) option  (* VALIDTIME [bt, et) *)
  | Mod_nonsequenced  (* NONSEQUENCED VALIDTIME *)

let modifier_of_inner = function
  | Min_sequenced ctx -> Mod_sequenced ctx
  | Min_nonsequenced -> Mod_nonsequenced

(* The transaction-time dimension is system-maintained, so its modifier
   vocabulary is smaller: the current database state (default), the
   state AS OF a past instant, or the raw timestamped rows. *)
type tt_modifier =
  | Tt_current
  | Tt_asof of expr  (* TRANSACTIONTIME AS OF <date> *)
  | Tt_nonsequenced  (* NONSEQUENCED TRANSACTIONTIME *)

type temporal_stmt = {
  t_modifier : modifier;
  t_tt : tt_modifier;
  t_stmt : stmt;
}

(* ------------------------------------------------------------------ *)
(* Convenience constructors                                            *)
(* ------------------------------------------------------------------ *)

let lit_int i = Lit (Sqldb.Value.Int i)
let lit_str s = Lit (Sqldb.Value.Str s)
let lit_date d = Lit (Sqldb.Value.Date d)
let col name = Col (None, name)
let qcol q name = Col (Some q, name)
let ( &&& ) a b = Binop (And, a, b)
let ( ||| ) a b = Binop (Or, a, b)
let ( === ) a b = Binop (Eq, a, b)
let ( <<< ) a b = Binop (Lt, a, b)
let ( <== ) a b = Binop (Le, a, b)

let and_all = function
  | [] -> Lit (Sqldb.Value.Bool true)
  | e :: es -> List.fold_left ( &&& ) e es

(* Conjoin [extra] onto an optional WHERE clause. *)
let add_conjunct where extra =
  match where with None -> Some extra | Some w -> Some (w &&& extra)

let select_default =
  {
    distinct = false;
    proj = [ Star ];
    from = [];
    where = None;
    group_by = [];
    having = None;
    order_by = [];
    offset = None;
    fetch_first = None;
  }

(* ------------------------------------------------------------------ *)
(* Generic folds over the AST                                          *)
(* ------------------------------------------------------------------ *)

(* Fold [f] over an expression's direct sub-expressions, left to right.
   Subqueries are not entered; a recursive walk built on this handles
   [Exists], [Scalar_subquery] and [In_query] itself. *)
let fold_expr_children f acc e =
  match e with
  | Lit _ | Col _ | Exists _ | Scalar_subquery _ | Agg (_, _, None) -> acc
  | Binop (_, a, b) | Like (a, b, _) -> f (f acc a) b
  | Unop (_, a) | Cast (a, _) | Is_null (a, _) | Agg (_, _, Some a) -> f acc a
  | Fun_call (_, args) -> List.fold_left f acc args
  | Case c ->
      let acc = Option.fold ~none:acc ~some:(f acc) c.case_operand in
      let acc =
        List.fold_left (fun acc (w, t) -> f (f acc w) t) acc c.case_branches
      in
      Option.fold ~none:acc ~some:(f acc) c.case_else
  | In_pred (a, In_list es, _) -> List.fold_left f (f acc a) es
  | In_pred (a, In_query _, _) -> f acc a
  | Between (a, b, c, _) -> f (f (f acc a) b) c

(* Fold every sub-query reachable from an expression/query/statement.
   Used by the reachability analysis and the transformations. *)
let rec fold_expr_queries f acc e =
  let acc = fold_expr_children (fold_expr_queries f) acc e in
  match e with
  | Exists q | Scalar_subquery q | In_pred (_, In_query q, _) -> f acc q
  | _ -> acc

(* Fold every function call name appearing in an expression (not
   descending into subqueries — pass a query hook for that). *)
let rec fold_expr_funcalls f acc e =
  let acc = match e with Fun_call (name, args) -> f acc name args | _ -> acc in
  fold_expr_children (fold_expr_funcalls f) acc e

(* All SELECT blocks of a query, outermost first. *)
let rec query_selects = function
  | Select s -> [ s ]
  | Union (_, a, b) | Except (_, a, b) | Intersect (_, a, b) ->
      query_selects a @ query_selects b

(* Map the SELECT blocks of a query tree. *)
let rec map_query_selects f = function
  | Select s -> Select (f s)
  | Union (all, a, b) -> Union (all, map_query_selects f a, map_query_selects f b)
  | Except (all, a, b) -> Except (all, map_query_selects f a, map_query_selects f b)
  | Intersect (all, a, b) ->
      Intersect (all, map_query_selects f a, map_query_selects f b)
