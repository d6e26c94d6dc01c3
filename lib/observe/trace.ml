(* The tracing core: hierarchical spans, named counters, value
   distributions, and a ring-buffered event log, behind a single
   [enabled] switch.

   This module sits *below* the whole stack (sqldb, sqleval, the
   stratum all emit into it), so it depends on nothing but the
   standard library and [unix] for the clock.

   Cost model: every entry point tests [t.enabled] first; when tracing
   is off, each call is one field load and a conditional branch and no
   allocation.  Callers that must build an event string are expected to
   guard with {!enabled} themselves so the formatting work is also
   skipped — see lib/sqleval/eval.ml for the idiom. *)

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

(* A nondecreasing wall clock: [Unix.gettimeofday] clamped against the
   last value handed out, so span arithmetic (parent >= sum of
   children) cannot be broken by clock steps.  The clamp state is a
   single global shared by every trace sink — including those of the
   server's worker domains — so it is an [Atomic] advanced by
   compare-and-set rather than a bare ref (a plain read-modify-write
   here would be a cross-domain data race). *)
let last_time = Atomic.make 0.0

let rec now () =
  let t = Unix.gettimeofday () in
  let last = Atomic.get last_time in
  if t <= last then last
  else if Atomic.compare_and_set last_time last t then t
  else now ()

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

type span = {
  sp_name : string;
  sp_start : float;
  mutable sp_elapsed : float;  (* seconds; set when the span closes *)
  mutable sp_children : span list;  (* newest first while open; reversed on close *)
}

type event = {
  ev_seq : int;  (* position in the global emission order, from 0 *)
  ev_label : string;
  ev_detail : string;
}

type dist = {
  mutable d_count : int;
  mutable d_sum : float;
  mutable d_min : float;
  mutable d_max : float;
}

type t = {
  mutable enabled : bool;
  is_null : bool;  (* the shared {!null} sink; can never be enabled *)
  mutable stack : span list;  (* open spans, innermost first *)
  mutable roots : span list;  (* closed top-level spans, newest first *)
  counters : (string, int ref) Hashtbl.t;
  dists : (string, dist) Hashtbl.t;
  ring : event option array;
  mutable ring_pos : int;  (* next write position *)
  mutable seq : int;  (* events ever emitted *)
}

let create ?(ring = 1024) ?(enabled = false) () =
  {
    enabled;
    is_null = false;
    stack = [];
    roots = [];
    counters = Hashtbl.create 32;
    dists = Hashtbl.create 8;
    ring = Array.make (max 1 ring) None;
    ring_pos = 0;
    seq = 0;
  }

(* The shared do-nothing sink: the default for storage objects created
   outside any engine.  [set_enabled] on it is ignored. *)
let null = { (create ~ring:1 ()) with is_null = true }

let enabled t = t.enabled
let set_enabled t b = if not t.is_null then t.enabled <- b

let reset t =
  t.stack <- [];
  t.roots <- [];
  Hashtbl.reset t.counters;
  Hashtbl.reset t.dists;
  Array.fill t.ring 0 (Array.length t.ring) None;
  t.ring_pos <- 0;
  t.seq <- 0

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

let count t name n =
  if t.enabled then
    match Hashtbl.find_opt t.counters name with
    | Some r -> r := !r + n
    | None -> Hashtbl.replace t.counters name (ref n)

let get_count t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let counts t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ------------------------------------------------------------------ *)
(* Distributions                                                       *)
(* ------------------------------------------------------------------ *)

let record t name v =
  if t.enabled then
    match Hashtbl.find_opt t.dists name with
    | Some d ->
        d.d_count <- d.d_count + 1;
        d.d_sum <- d.d_sum +. v;
        if v < d.d_min then d.d_min <- v;
        if v > d.d_max then d.d_max <- v
    | None ->
        Hashtbl.replace t.dists name
          { d_count = 1; d_sum = v; d_min = v; d_max = v }

let get_dist t name = Hashtbl.find_opt t.dists name

let dists t =
  Hashtbl.fold (fun k d acc -> (k, d) :: acc) t.dists []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let time t name f =
  if not t.enabled then f ()
  else begin
    let t0 = now () in
    Fun.protect ~finally:(fun () -> record t name (now () -. t0)) f
  end

(* ------------------------------------------------------------------ *)
(* Events (ring buffer)                                                *)
(* ------------------------------------------------------------------ *)

let event t label detail =
  if t.enabled then begin
    t.ring.(t.ring_pos) <-
      Some { ev_seq = t.seq; ev_label = label; ev_detail = detail };
    t.ring_pos <- (t.ring_pos + 1) mod Array.length t.ring;
    t.seq <- t.seq + 1
  end

(* Retained events, oldest first. *)
let events t =
  let n = Array.length t.ring in
  let out = ref [] in
  for i = 0 to n - 1 do
    match t.ring.((t.ring_pos + n - 1 - i) mod n) with
    | Some e -> out := e :: !out
    | None -> ()
  done;
  List.sort (fun a b -> compare a.ev_seq b.ev_seq) !out

let events_emitted t = t.seq
let events_dropped t = max 0 (t.seq - Array.length t.ring)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let span_begin t name =
  if t.enabled then begin
    let sp =
      { sp_name = name; sp_start = now (); sp_elapsed = 0.0; sp_children = [] }
    in
    t.stack <- sp :: t.stack
  end

let span_end t =
  if t.enabled then
    match t.stack with
    | [] -> ()
    | sp :: rest ->
        sp.sp_elapsed <- now () -. sp.sp_start;
        sp.sp_children <- List.rev sp.sp_children;
        t.stack <- rest;
        (match rest with
        | parent :: _ -> parent.sp_children <- sp :: parent.sp_children
        | [] -> t.roots <- sp :: t.roots)

let with_span t name f =
  if not t.enabled then f ()
  else begin
    span_begin t name;
    Fun.protect ~finally:(fun () -> span_end t) f
  end

(* Closed top-level spans, oldest first.  Spans still open (a crash
   mid-span) are not reported. *)
let roots t = List.rev t.roots

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp_seconds s =
  if s >= 1.0 then Printf.sprintf "%.3f s" s
  else if s >= 1e-3 then Printf.sprintf "%.3f ms" (s *. 1e3)
  else Printf.sprintf "%.1f us" (s *. 1e6)

let rec span_lines ?(show_timings = true) ~indent sp =
  let pad = String.make (2 * indent) ' ' in
  let line =
    if show_timings then
      Printf.sprintf "%s%s  %s" pad sp.sp_name (pp_seconds sp.sp_elapsed)
    else Printf.sprintf "%s%s" pad sp.sp_name
  in
  line
  :: List.concat_map
       (span_lines ~show_timings ~indent:(indent + 1))
       sp.sp_children

(* A human-readable dump of everything recorded: spans, counters,
   distributions, and the retained tail of the event log.
   [show_timings:false] elides every wall-clock figure, leaving only
   deterministic output — the form golden tests pin. *)
let summary_to_string ?(show_timings = true) ?(with_events = true) t =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  (match roots t with
  | [] -> ()
  | rs ->
      add "spans:";
      List.iter
        (fun sp ->
          List.iter (add "%s") (span_lines ~show_timings ~indent:1 sp))
        rs);
  (match counts t with
  | [] -> ()
  | cs ->
      add "counters:";
      List.iter (fun (k, v) -> add "  %-36s %d" k v) cs);
  (match dists t with
  | [] -> ()
  | ds when show_timings ->
      add "distributions:";
      List.iter
        (fun (k, d) ->
          add "  %-36s n=%d mean=%s min=%s max=%s" k d.d_count
            (pp_seconds (d.d_sum /. float_of_int (max 1 d.d_count)))
            (pp_seconds d.d_min) (pp_seconds d.d_max))
        ds
  | ds ->
      add "distributions:";
      List.iter (fun (k, d) -> add "  %-36s n=%d" k d.d_count) ds);
  (match events t with
  | es when with_events && es <> [] ->
      add "events (%d emitted, %d dropped):" (events_emitted t)
        (events_dropped t);
      List.iter (fun e -> add "  [%s] %s" e.ev_label e.ev_detail) es
  | _ -> ());
  Buffer.contents buf
