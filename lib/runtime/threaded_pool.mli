(** The "lightweight threads" alternative that Section 7 contrasts with
    latency-hiding work stealing: every spawned task gets an OS thread, so
    blocking operations hide latency by oversubscription — at the cost of
    thread creation, stacks, and kernel scheduling, the overhead the paper's
    approach avoids ("our approach ... avoids the additional state and
    thread-scheduling overhead associated with (even lightweight)
    threads").

    Task granularity must therefore be kept coarse (use [grain] /
    [cutoff]); exceeding [max_threads] concurrent tasks makes [async]
    block until threads retire. *)

type t

val create : ?name:string -> ?max_threads:int -> unit -> t
(** Default [max_threads] = 512.  The instance registers in
    {!Scheduler_core.Registry} under [name] (with [max_threads] as its
    worker capacity) until {!shutdown}. *)

val run : t -> (unit -> 'a) -> 'a
(** Runs on the calling thread ([async] from within is fine). *)

val shutdown : t -> unit
(** Waits for all spawned threads to retire. *)

val with_pool : ?name:string -> ?max_threads:int -> (t -> 'a) -> 'a

val name : t -> string
(** The {!Scheduler_core.Registry} name this pool was created under. *)

val submit : t -> (unit -> unit) -> unit
(** Pool-pinned external submission: spawns a thread for the thunk,
    like {!async}, discarding the promise.  Safe from any thread (blocks
    while at [max_threads], as [async] does). *)

val set_tracer : t -> Tracing.t -> unit
(** Records task runs and blocking sleeps into the tracer from now on.
    All events land in worker slot 0 (threads have no stable worker
    identity), serialized by a mutex. *)

val register_shed_counter : t -> (unit -> int) -> unit
(** Adds a monotone overload-shed counter summed into the [conns_shed]
    stats field; thread-safe, may be called from running tasks. *)

val async : t -> (unit -> 'a) -> 'a Promise.t
(** Spawns a thread for the task (blocking while at [max_threads]). *)

val await : t -> 'a Promise.t -> 'a
(** Blocks the calling thread on a condition variable. *)

val fork2 : t -> (unit -> 'a) -> (unit -> 'b) -> 'a * 'b

val sleep : t -> float -> unit
(** [Unix.sleepf]: blocks this thread; other threads keep running. *)

val parallel_for : t -> ?grain:int -> lo:int -> hi:int -> (int -> unit) -> unit
(** Splits into at most [ceil((hi-lo)/grain)] threads (default grain:
    range/64, at least 1). *)

val parallel_map_reduce :
  t ->
  ?grain:int ->
  lo:int ->
  hi:int ->
  map:(int -> 'a) ->
  combine:('a -> 'a -> 'a) ->
  id:'a ->
  'a

val threads_spawned : t -> int
(** Total threads created so far — the overhead the paper's fibers avoid. *)

val peak_threads : t -> int
(** Maximum simultaneously live threads. *)

(** The unified stats record shared by every pool; a thread-per-task pool
    has no deques, steals or suspensions, so the scheduler counters are
    zero ([tasks_run] reports {!threads_spawned}).  Use
    {!threads_spawned} / {!peak_threads} for this pool's real costs. *)

type stats = Scheduler_core.stats

val stats : t -> stats
