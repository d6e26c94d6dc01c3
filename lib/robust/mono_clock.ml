(* A monotonized time source for deadlines and duration measurement.

   [Unix.gettimeofday] is wall-clock time: NTP steps and manual clock
   changes can move it backward (spuriously extending a deadline's
   baseline) or forward (firing deadlines that never elapsed in real
   time).  The stdlib exposes no CLOCK_MONOTONIC, so the next best
   guarantee is enforced here: readings never decrease.  A backward step
   in the source freezes the reported time until the source catches up,
   so an armed deadline can only ever fire *later* than the true
   monotonic instant — never earlier, and never twice.

   The source is injectable so tests can replay skew scenarios
   deterministically. *)

(* The clamp state is shared by every domain of the server (each
   session's guard arms and checks deadlines against this clock), so
   it is advanced by compare-and-set.  [set_source] remains a
   test-only, single-domain affair. *)
let source : (unit -> float) ref = ref Unix.gettimeofday
let last = Atomic.make neg_infinity

let rec now () =
  let t = !source () in
  let l = Atomic.get last in
  if t <= l then l else if Atomic.compare_and_set last l t then t else now ()

let set_source f =
  source := f;
  (* A fresh source starts a fresh monotone history: without this, a
     test source counting from 0 would be pinned at the wall-clock
     epoch-seconds already observed. *)
  Atomic.set last neg_infinity

let use_wall_clock () = set_source Unix.gettimeofday
