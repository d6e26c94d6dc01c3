type t = {
  mutable deadline_seconds : float option;
  mutable row_budget : int option;
  mutable loop_cap : int option;
  mutable depth_cap : int;
  mutable fallback_to_max : bool;
  mutable atomic : bool;
  mutable active : int;
  mutable expires_at : float;
  mutable rows_used : int;
  mutable ticks : int;
}

let default () =
  {
    deadline_seconds = None;
    row_budget = None;
    loop_cap = None;
    depth_cap = 200;
    fallback_to_max = false;
    atomic = true;
    active = 0;
    expires_at = infinity;
    rows_used = 0;
    ticks = 0;
  }

let copy g = { g with active = 0; expires_at = infinity; rows_used = 0; ticks = 0 }

let exhausted r fmt = Taupsm_error.raise_error (Resource_exhausted r) fmt

(* Deadlines are armed and checked against {!Mono_clock}, not the wall
   clock: a backward NTP step must not extend a deadline, and a forward
   step must not fire one that never elapsed. *)
let enter g =
  if g.active = 0 then begin
    g.rows_used <- 0;
    g.ticks <- 0;
    g.expires_at <-
      (match g.deadline_seconds with
      | None -> infinity
      | Some s -> Mono_clock.now () +. s)
  end;
  g.active <- g.active + 1

let leave g = if g.active > 0 then g.active <- g.active - 1

let check_deadline g =
  if g.expires_at < infinity && Mono_clock.now () > g.expires_at then
    exhausted Taupsm_error.Deadline "wall-clock deadline of %gs exceeded"
      (match g.deadline_seconds with Some s -> s | None -> 0.)

let step g =
  if g.expires_at < infinity then begin
    g.ticks <- g.ticks + 1;
    if g.ticks land 7 = 0 then check_deadline g
  end

let charge_rows g n =
  match g.row_budget with
  | None -> ()
  | Some b ->
      if g.rows_used + n > b then begin
        g.rows_used <- max g.rows_used (b + 1);
        exhausted Taupsm_error.Row_budget "row budget exceeded: %d > %d"
          g.rows_used b
      end
      else g.rows_used <- g.rows_used + n

let check_loop g iters =
  (match g.loop_cap with
  | Some c when iters > c ->
      exhausted Taupsm_error.Loop_iterations
        "loop iteration cap exceeded: %d > %d" iters c
  | _ -> ());
  check_deadline g

let check_depth g d =
  if d > g.depth_cap then
    exhausted Taupsm_error.Recursion_depth
      "routine recursion depth exceeded: %d > %d" d g.depth_cap;
  check_deadline g
