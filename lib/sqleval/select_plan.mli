(** The SELECT planner and join loop, shared by the interpreter
    ({!Eval.eval_select_interp}) and the closure compiler (lib/compile).

    A plan is plain data, polymorphic in the expression type ['e]: the
    interpreter plans afresh on every evaluation and runs the plan over
    AST expressions; the compiler maps its expression compiler over the
    plan once ({!map}) and caches the result.  Both then execute {!run},
    so access-path choice, LEFT JOIN null-extension and the [scan.*],
    [rows.*] and [conjuncts.elided] counters and [join]/[scan] trace
    events come from one piece of code. *)

exception Sql_error of string
(** The evaluator's error; re-exported as {!Eval.Sql_error}. *)

val sql_error : ('a, unit, string, 'b) format4 -> 'a

(** One FROM item bound to its current row during join iteration. *)
type binding = {
  b_alias : string;  (** lowercase *)
  b_cols : string array;  (** lowercase column names *)
  mutable b_row : Sqldb.Value.t array;
}

(** A statement's transaction-time reading mode: the current state, the
    state AS OF a past instant, or every timestamped row. *)
type tt_mode = [ `Current | `Asof of Sqldb.Date.t | `All ]

(** {1 Plans} *)

(** What a FROM item is, as far as planning cares: a base table (period
    windows apply to temporal ones), materialised rows (a closed view,
    derived table or table function, evaluated once before the join), or
    a source re-evaluated at every outer row (a correlated one; see
    {!correlated}). *)
type kind = Base of Sqldb.Schema.t | Derived | Lateral

val columns : Sqldb.Schema.t -> string array
(** A table's column names, lowercase, in schema order. *)

val column_offset : string array -> string -> int option
(** The first offset of a (lowercase) column name among [cols]. *)

type source = {
  alias : string;  (** lowercase *)
  cols : string array;  (** lowercase *)
  kind : kind;
  on : Sqlast.Ast.expr option;  (** the ON of a LEFT JOIN's right side *)
}

(** A window bound: [begin_time < u] (upper) or [end_time > l] (lower),
    widened by one day when [bd_incl]. *)
type 'e bound = { bd : 'e; bd_incl : bool }

type 'e period = {
  pd_bi : int;  (** begin_time offset *)
  pd_ei : int;  (** end_time offset *)
  pd_ubs : 'e bound list;
  pd_lbs : 'e bound list;
  pd_sat : int;  (** level conjuncts the window implies exactly *)
  pd_checks_exact : 'e array;
      (** the level's checks minus those [pd_sat] conjuncts, run when the
          index has no residual rows *)
}

type 'e hash = {
  h_ci : int;  (** the hashed column's offset *)
  h_probe : 'e;  (** the key, computed from earlier levels *)
  h_checks : 'e array;  (** the level's checks minus the equality *)
}

type 'e level = {
  l_alias : string;
  l_cols : string array;
  l_name : string;  (** the table name in scan counters; else the alias *)
  l_lateral : bool;
  l_on : 'e option;
  l_checks : 'e array;  (** this level's conjuncts, cheap ones first *)
  l_hash : 'e hash option;  (** inner levels under [hash_joins] only *)
  l_period : 'e period option;  (** temporal base tables only *)
}

type 'e t = {
  levels : 'e level array;  (** in FROM order *)
  const_checks : 'e array;  (** the conjuncts of a SELECT without FROM *)
  grouped : bool;  (** GROUP BY, HAVING or an aggregate projection *)
  join_event : string;  (** the [join] trace event's text *)
}

(** {1 FROM items} *)

(** A FROM item once joins are flattened away; aliases are lowercase
    (a table's or view's defaults to its name). *)
type item =
  | From_name of string * string  (** a base table or view, and its alias *)
  | From_query of Sqlast.Ast.query * string  (** a derived table *)
  | From_fun of string * Sqlast.Ast.expr list * string
      (** [TABLE(f(args)) alias] *)

val item_alias : item -> string

val flatten :
  Sqlast.Ast.select ->
  (item * Sqlast.Ast.expr option) list * Sqlast.Ast.expr list
(** The SELECT's FROM items in order, each with its LEFT JOIN [ON], and
    the inner joins' [ON] conjuncts.
    @raise Sql_error on a nested join right of a LEFT JOIN. *)

val column_name : Sqlast.Ast.expr -> string
(** The output column name of an unaliased projection. *)

val table_fun_columns : Catalog.t -> string -> (string array, string) result
(** A table function's declared columns, lowercase, or why it has none. *)

val query_columns : Catalog.t -> Sqlast.Ast.query -> string array option
(** A query's output columns, statically and lowercase, as the evaluator
    names them; [None] where they rest on an unknown table or function,
    an unknown [q.*] or a view defined over itself. *)

val reaches_view : Catalog.t -> string -> Sqlast.Ast.query -> bool
(** [reaches_view cat v q]: [q] names the view [v] in some FROM,
    directly or through other views, at any depth (subqueries, derived
    tables and table-function arguments included; routine bodies not).
    A name counts as a view's even where a table of that name shadows it
    in evaluation, since the stratum expands views first. *)

val correlated : Catalog.t -> item array -> bool array
(** Which FROM items of one SELECT read a sibling's row, decided
    statically with the evaluator's name resolution.  An item is
    correlated when one of its column references — in a table function's
    arguments, a derived table's or view's query, or any subquery
    nested in them — resolves to a sibling before it:
    - a qualified [q.c] whose [q] is a sibling alias that no inner FROM
      alias shadows;
    - an unqualified [c] that no inner scope carries and some sibling
      does (or may: where a scope's columns are not known statically, a
      name a sibling carries counts).
    The item's own columns are not a sibling's.  Names that resolve to
    nothing in FROM — routine parameters, PSM variables, columns of
    enclosing queries — leave the item closed.
    @raise Sql_error when an item refers to itself or to a later item
    (a FROM item sees only those before it, as under SQL's LATERAL). *)

val memo_inputs :
  Catalog.t -> Sqlast.Ast.select -> (string array * Sqlast.Ast.expr array) option
(** What a SELECT's result is a function of, beside the transaction-time
    mode: the base tables it reads at every depth (lowercase, each once)
    and its outward references, as [Col] expressions to evaluate in the
    enclosing scope.  [None] unless every FROM item at every depth names
    a base table, every call is a builtin, every outward reference is
    known statically to leave the SELECT, and at least one table is
    read.  The verdict holds while the catalog generation, the database
    version and its temp-table epoch stay put. *)

(** {1 Planning} *)

val plan :
  Catalog.t ->
  Sqlast.Ast.select ->
  Sqlast.Ast.expr list ->
  source list ->
  Sqlast.Ast.expr t
(** [plan cat s join_conjuncts sources] places every conjunct at the
    earliest level binding each alias it references (a subquery's
    references as {!correlated} resolves them) and picks each level's
    access path, honouring [hash_joins] and [temporal_index].
    [sources] are {!flatten}'s FROM items, resolved. *)

val map : ('a -> 'b) -> 'a t -> 'b t

val bindings : 'e t -> binding array
(** Fresh, unbound bindings for one run. *)

(** {1 Row sources} *)

val tt_filter :
  Sqldb.Schema.t -> tt_mode -> (Sqldb.Value.t array -> bool) option
(** The exact transaction-time predicate of the reading mode; [None]
    when every row qualifies. *)

val base_rows :
  temporal_index:bool -> tt_mode -> Sqldb.Table.t -> Sqldb.Value.t array list
(** A base table's rows under the reading mode, in storage order; with
    [temporal_index], AS OF / CURRENT become interval-index stabbing
    queries re-checked by {!tt_filter}. *)

val hash_rows :
  int ->
  Sqldb.Value.t array list ->
  (Sqldb.Value.t, Sqldb.Value.t array list) Hashtbl.t
(** An equi-join index on a column offset; NULL keys are left out. *)

(** How a back-end supplies each level's rows, by level index. *)
type access = {
  rows : int -> Sqldb.Value.t array list;  (** a full scan *)
  hash : int -> int -> (Sqldb.Value.t, Sqldb.Value.t array list) Hashtbl.t;
      (** the hash index on a column offset *)
  base :
    int -> (Sqldb.Table.t * (Sqldb.Value.t array -> bool) option) option;
      (** a base table and its {!tt_filter}, for an indexed scan *)
}

(** {1 The join loop} *)

(** The names of the trace counters {!run} writes, for their readers
    (the stratum's [Observe] metrics).  The per-table scan counters
    append [":<table>"] to {!scan_indexed} and {!scan_full}. *)
module Counter : sig
  val scan_indexed : string
  (** interval-index scans of a period window *)

  val scan_full : string
  (** full scans *)

  val scan_hash : string
  (** hash-index probes *)

  val scan_residual_fallback : string
  (** period windows whose bounds were not all DATEs *)

  val rows_probed : string
  (** candidate rows the scans returned *)

  val rows_matched : string
  (** rows that passed their level's checks *)

  val conjuncts_elided : string
  (** conjuncts an index or hash probe enforced exactly *)

  val select_memo_hit : string
  (** SELECT evaluations the evaluator's per-statement memo answered
      without running them (written by {!Eval.eval_select}, not {!run}) *)
end

val run :
  Trace.t ->
  'e t ->
  binding array ->
  value:('e -> Sqldb.Value.t) ->
  pass:('e array -> bool) ->
  access ->
  emit:(unit -> unit) ->
  unit
(** Bind every combination of rows surviving each level's checks and
    call [emit] for each.  [value] evaluates window bounds, hash probes
    and LEFT JOIN [ON]s; [pass] tells whether all of a check array hold
    (three-valued: NULL fails). *)
