(** Stall watchdog: detects what no deadline is watching.

    Deadlines protect individual waits; a closed descriptor is caught
    only when a readiness pass reports it.  The watchdog is the backstop for
    silent failures — a completion lost in transit leaving a fiber
    parked with nobody to wake it (the hazard
    {!Io.chaos_drop_completions} simulates), a registration that forgot
    a closed descriptor, a worker wedged inside a task.  Attach the
    reactors to watch ({!attach_io}) and the pools' heartbeat counters
    ({!attach_heartbeats}), then register {!poll} as a pool poller —
    each pump election gives the sweep a ride, and the watchdog paces
    itself.

    Detections are counted (feeding the pools' [stalls_detected] /
    [oldest_parked_ms] stats fields through
    [register_watchdog_stats]) and reported to {!add_on_stall} hooks;
    in [Fail] mode a lost-wakeup fiber is additionally completed loudly
    with {!Stalled}, turning a forever-hang into an error the
    application handles like any other I/O failure. *)

type t

(** What to do about a lost wakeup found past the grace period. *)
type action =
  | Warn  (** count and report, leave the fiber parked *)
  | Fail
      (** complete the fiber with [Error (Stalled _)], claiming the
          intent so a racing deadline loses — the production setting:
          a hung fiber becomes a loud, attributable error *)

exception Stalled of string
(** Raised in (or delivered to) a parked fiber whose wakeup was lost.
    Re-exported as [Net.Stalled] for serving-layer callers. *)

val create :
  ?grace:float -> ?action:action -> ?interval:float -> ?stuck_after:float ->
  unit -> t
(** [grace] (default 0.25 s) is the minimum age before a parked intent
    is examined at all — every legitimate park shorter than this is
    invisible to the watchdog.  [action] defaults to [Fail].
    [interval] (default [grace /. 4]) paces the sweep.  [stuck_after]
    (default [max (10 * grace) 1s]) is the no-heartbeat threshold for
    declaring a worker stuck; it is deliberately far above [grace]
    because a long-running legitimate task is indistinguishable from a
    wedged worker (stuck workers are warn-only, never failed).  It also
    paces per-intent stale-fd probes in the reactor sweep: a parked
    intent's descriptor is probed at most once per [stuck_after], so
    idle long-parked connections cost one syscall per threshold, not
    one per sweep. *)

val grace : t -> float

val attach_io : t -> Io.t -> unit
(** Put a reactor's parked intents under surveillance: starts the
    reactor's intent census ({!Io.start_census}).  Intents parked
    before the call are not watched.  Thread-safe. *)

val attach_heartbeats : t -> name:string -> (unit -> int array) -> unit
(** Watch a pool's per-worker heartbeat counters (e.g.
    [fun () -> Lhws_pool.heartbeats p]); [name] labels reports.
    Thread-safe. *)

val add_on_stall : t -> (string -> unit) -> unit
(** Hook every detection report (human-readable, one line).  Used by
    pools to emit [Stalled] tracing events, by tests to capture
    reports.  Thread-safe. *)

val poll : t -> int
(** One paced watchdog tick: no-op within [interval] of the last sweep,
    otherwise runs {!sweep_now}.  Returns stalls newly detected.
    Register with [register_poller]; safe under concurrent election
    (one sweeper runs, losers skip). *)

val sweep_now : t -> int
(** Force a full sweep immediately, ignoring pacing: reactors first
    (lost wakeups, stale registrations), then heartbeats.  Returns
    stalls newly detected. *)

val stalls_detected : t -> int
(** Total stalls found so far (lost wakeups, stale fds, stuck workers). *)

val worker_stalls : t -> int
(** The subset of {!stalls_detected} that were stuck-worker reports. *)

val oldest_parked_ms : t -> float
(** Age of the oldest intent currently parked across the attached
    reactors (0 when idle) — the staleness gauge. *)

val snapshot : t -> int * float
(** [(stalls_detected, oldest_parked_ms)] — the shape
    [register_watchdog_stats] wants. *)
