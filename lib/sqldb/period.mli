(** Half-open valid-time periods [\[begin_, end_)] at DATE granularity. *)

type t = { begin_ : Date.t; end_ : Date.t }

val make : begin_:Date.t -> end_:Date.t -> t
(** Raises [Invalid_argument] on an empty period ([begin_ >= end_]). *)

val make_opt : begin_:Date.t -> end_:Date.t -> t option
val equal : t -> t -> bool
val compare : t -> t -> int

val duration : t -> int
(** Number of granules (days) covered. *)

val contains : t -> Date.t -> bool
val overlaps : t -> t -> bool
val meets : t -> t -> bool
val intersect : t -> t -> t option
val intersect_all : t list -> t option

val merge : t -> t -> t option
(** Union of two overlapping or adjacent periods, [None] if disjoint. *)

val subtract : t -> t -> t list
(** [subtract a b] is what remains of [a] after removing [b] (0–2 pieces). *)

val always : t
(** The whole time line: [\[Date.min_date, Date.forever)]. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val coalesce : equal_value:('a -> 'a -> bool) -> ('a * t) list -> ('a * t) list
(** Merge value-equivalent overlapping or adjacent timestamped values into
    maximal periods — the classic temporal-database coalescing operation. *)

val constant_periods :
  bt:Date.t -> et:Date.t -> Date.t list -> (Date.t * Date.t) list
(** [constant_periods ~bt ~et points] are the constant periods of the
    context [\[bt, et)] under the event [points]: the ascending pairs of
    adjacent distinct points strictly inside the context, with [bt] and
    [et] as sentinels — the maximal sub-periods during which no point
    falls.  Empty when [bt >= et].  Engine-level equivalent of the
    paper's Figure 8 [ts]/[cp] computation; both the stratum's
    [taupsm_constant_periods] and the constant-period memo use it. *)
