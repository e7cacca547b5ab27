(** Stress and model checks for work-stealing deques.

    The checks are written against the {!DEQUE} signature rather than
    {!Lhws_deque.Chase_lev} directly so the same harness validates the
    real deque {e and} demonstrably catches deliberately broken ones
    (mutation tests): a harness that has never failed anything proves
    nothing. *)

module type DEQUE = sig
  type 'a t

  val create : ?capacity:int -> unit -> 'a t
  val push_bottom : 'a t -> 'a -> unit
  val pop_bottom : 'a t -> 'a option
  val steal : 'a t -> 'a option
end

module Chase_lev_deque : DEQUE with type 'a t = 'a Lhws_deque.Chase_lev.t

type report = {
  pushed : int;  (** elements the owner pushed *)
  popped : int;  (** elements consumed by the owner *)
  stolen : int;  (** elements consumed by thieves *)
  lost : int;  (** pushed but never consumed by anyone *)
  duplicated : int;  (** consumed more than once *)
  reordered : int;  (** order violations (see the individual checks) *)
}

val ok : report -> bool
(** No element lost, duplicated, or reordered. *)

val pp_report : Format.formatter -> report -> unit

val hammer :
  (module DEQUE) ->
  ?thieves:int ->
  ?items:int ->
  ?pop_every:int ->
  ?owner_pause_every:int ->
  unit ->
  report
(** Multi-domain hammer: one owner domain pushes [items] distinct values
    (popping a few of its own every [pop_every] pushes, then draining),
    while [thieves] (default 3) concurrent domains steal until the deque
    is exhausted.  Checks that every value is consumed exactly once and
    that each individual thief observes strictly increasing values — the
    Chase–Lev top index only moves forward, so any single thief's
    successful steals must come out in push (FIFO) order.

    [owner_pause_every] (default 0 = never) makes the owner sleep ~1 µs
    every that many pushes.  Mutation checks that need a thief to land
    several {e consecutive} steals use it: on a single-core machine the
    thieves only run while the owner is off the CPU, and without a real
    sleep the owner monopolises it. *)

val sequential_model :
  (module DEQUE) -> ?ops:int -> seed:int -> unit -> report
(** Single-domain random push/pop/steal sequence compared against a
    reference double-ended list model: with no concurrency, [pop_bottom]
    must return exactly the newest element and [steal] exactly the
    oldest.
    Any disagreement counts as [reordered] (and as [lost] /
    [duplicated] when the multiset diverges). *)
