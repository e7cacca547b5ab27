(** The latency-hiding work-stealing scheduler, running for real on OCaml 5
    domains.

    A multi-deque suspend/resume policy over the shared {!Scheduler_core}
    engine.  This is the algorithm of Section 3 at thread granularity (the
    paper's own prototype works the same way): the scheduler runs when a
    fiber ends, forks, joins or suspends.  Each worker owns a growing
    collection of Chase–Lev deques, one active at a time.  A fiber that suspends
    (e.g. {!sleep}, or {!await} on an unresolved promise) has its
    continuation paired with the worker's active deque; when it resumes,
    the continuation is batched back into that deque — always its home,
    on the worker that owns it — and the deque re-enters the owner's
    ready set.  Thieves target a uniformly random deque in the global
    deque table and take one task per successful steal.

    Latency-incurring operations never block the underlying domain: a
    worker whose fibers are all waiting switches deques or steals. *)

type t

type steal_policy =
  | Global_deque
      (** The analyzed policy (Section 3): thieves target a uniformly
          random slot of the global deque table. *)
  | Worker_then_deque
      (** The implemented policy (Section 6): thieves target a random
          worker, then a random one of its non-empty deques — fewer
          failed steals, at the cost of synchronizing briefly with the
          victim. *)

val create :
  ?name:string ->
  ?workers:int ->
  ?steal_policy:steal_policy ->
  ?initial_deques:int ->
  unit ->
  t
(** Spawns [workers - 1] extra domains (default: 2 workers,
    [Global_deque]).  The calling domain becomes worker 0 while inside
    {!run}.  The instance registers in {!Scheduler_core.Registry} under
    [name] until {!shutdown}.

    Resumed continuations re-enter their home deque as one stealable
    pfor tree per batch (Figure 3's addResumedVertices), and the deque
    joins its owner's ready stack newest-first.

    A successful steal takes the victim deque's oldest task, and the
    thief runs it in a fresh deque of its own.  Under
    [Worker_then_deque] the victim worker draw is biased by a
    per-thief EWMA of past steal hits (see
    {!Scheduler_core.Victim_stats}); [Global_deque] keeps the paper's
    uniform draw.

    [initial_deques] sizes the global deque table (default 1024 slots);
    the table grows by doubling when lifetime allocations exceed it —
    there is no hard bound. *)

val run : t -> (unit -> 'a) -> 'a
(** Executes the thunk as the root fiber and participates as worker 0
    until it completes.  Re-raises the fiber's exception, if any.
    Not reentrant; call from the domain that created the pool.
    @raise Invalid_argument if called while another [run] is in progress
    or after {!shutdown}. *)

val shutdown : t -> unit
(** Stops and joins the worker domains.  The pool cannot be reused:
    subsequent {!run} calls raise [Invalid_argument].  Idempotent —
    a second [shutdown] is a no-op.  Safe to call after a root fiber
    raised: the workers are still joined cleanly. *)

val with_pool :
  ?name:string ->
  ?workers:int ->
  ?steal_policy:steal_policy ->
  ?initial_deques:int ->
  (t -> 'a) ->
  'a
(** [create] / [shutdown] bracket. *)

val name : t -> string
(** The {!Scheduler_core.Registry} name this pool was created under. *)

val submit : t -> (unit -> unit) -> unit
(** Pool-pinned external submission: the thunk lands in one worker's
    inbox (round robin) and is guaranteed to start on a worker of this
    pool.  Safe from any thread — non-workers and other pools' workers
    included.  An exception escaping the thunk is printed to stderr and
    the worker keeps running.  See {!Scheduler_core.Make.submit} for the
    cold-start latency caveat. *)

(** {2 Cross-pool scavenging}

    See the overview in {!Scheduler_core}.  Only fresh, not-yet-started
    fibers are exported to a scavenging sibling; captured continuations
    and internal re-injections stay home.  Off unless {!set_scavenge} is
    called. *)

val scavenge_source : t -> Scheduler_core.scavenge_source
(** This pool's stealable surface, to hand to a sibling pool (of any
    policy) via its [set_scavenge]. *)

val set_scavenge : t -> Scheduler_core.scavenge_source -> unit
(** Designate a sibling to raid when this pool's workers idle (after
    local steals fail, before deep backoff).
    @raise Invalid_argument when handed this pool's own source. *)

val clear_scavenge : t -> unit

val set_tracer : t -> Tracing.t -> unit
(** Records worker events (task runs, suspensions, resume batches, steals)
    into the tracer from now on; see {!Tracing.to_chrome_json}.  Set before
    {!run}; adds two clock reads per task. *)

val register_poller :
  t -> ?pending:(unit -> int) -> ?syscalls:(unit -> int) -> (unit -> int) -> unit
(** Adds an event source that workers poll once per scheduling iteration
    — e.g. {!Io.poll} for file-descriptor readiness.  One worker at a
    time runs the pollers; an idle one runs them with its backoff sleep
    lent through {!Io.lend_idle_wait}, so {!Io.poll} may block in its
    readiness pass for up to one pacing interval.  The callback returns
    how many events it fired.  Register before {!run}; not thread-safe
    against concurrent registration. *)

val register_shed_counter : t -> (unit -> int) -> unit
(** Adds a monotone overload-shed counter summed into the [conns_shed]
    stats field; thread-safe, may be called from running tasks. *)

val register_watchdog : t -> Watchdog.t -> unit
(** Complete pool-side watchdog wiring in one call: the sweep rides this
    pool's pump, detections feed [stalls_detected] / [oldest_parked_ms]
    and emit {!Tracing.Stalled}, and this pool's workers come under
    heartbeat surveillance.  Pair with [Reactor.fibers ~watchdog] to put
    the reactor's parked intents under the same watchdog.  See
    {!Scheduler_core.Make.register_watchdog}. *)

val heartbeats : t -> int array
(** Per-worker scheduling-loop iteration counts, for
    {!Watchdog.attach_heartbeats}. *)

(** {2 Operations usable inside fibers of this pool} *)

val async : t -> (unit -> 'a) -> 'a Promise.t
(** Spawns a fiber onto the current worker's active deque (right-child
    spawn).  Also works from a registered poller between tasks (the
    reactor pump dispatching a request), where the worker may have no
    active deque: it then starts one.  Called from anywhere but a
    worker of this pool (another pool's worker or pump, a plain
    thread), it falls back to {!submit}, so the fiber never lands in a
    foreign pool's deque. *)

val await : 'a Promise.t -> 'a
(** Returns the promise's value, suspending the calling fiber if pending.
    Re-raises the spawned fiber's exception. *)

val fork2 : t -> (unit -> 'a) -> (unit -> 'b) -> 'a * 'b
(** [fork2 t f g] runs both in parallel: [g] is spawned, [f] runs in the
    current fiber, then the results join. *)

val sleep : t -> float -> unit
(** Simulated latency of the given number of seconds: suspends the fiber
    on the shared timer; the worker keeps executing other work.  This is
    the runtime analogue of a heavy edge. *)

val parallel_for : t -> lo:int -> hi:int -> (int -> unit) -> unit
(** Fork–join over [\[lo, hi)], splitting in halves. *)

val parallel_map_reduce :
  t -> lo:int -> hi:int -> map:(int -> 'a) -> combine:('a -> 'a -> 'a) -> id:'a -> 'a
(** The distMapReduce of Figure 8 over index range [\[lo, hi)]. *)

(** {2 Introspection}

    The unified stats record shared by every pool. *)

type stats = Scheduler_core.stats

val stats : t -> stats
