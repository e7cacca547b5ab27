(** First-class pool interface: workloads are written once against [POOL]
    and run on the latency-hiding pool, the blocking baseline, or the
    thread-per-task pool.

    Every operation takes the pool handle, including [await] (the
    baseline's helping join needs it to find other work); the
    latency-hiding instance simply ignores it there.  [stats] returns the
    unified {!Lhws_runtime.Scheduler_core.stats} record from every pool,
    with degenerate values where a counter does not apply. *)

module type POOL = sig
  type t

  val name : string

  (** [create ?name] registers the instance in
      {!Lhws_runtime.Scheduler_core.Registry} under [name] (topologies
      name their member pools through it). *)
  val create : ?name:string -> ?workers:int -> unit -> t
  val shutdown : t -> unit
  val run : t -> (unit -> 'a) -> 'a

  val async : t -> (unit -> 'a) -> 'a Lhws_runtime.Promise.t
  (** Spawns a task; must be called from within {!run} (from any thread
      for the thread-per-task pool). *)

  val await : t -> 'a Lhws_runtime.Promise.t -> 'a
  (** Joins the promise: suspends the fiber (lhws), helps with other work
      (ws), or blocks the thread (threads).  Re-raises the task's
      exception. *)

  val fork2 : t -> (unit -> 'a) -> (unit -> 'b) -> 'a * 'b
  val sleep : t -> float -> unit
  val parallel_for : t -> lo:int -> hi:int -> (int -> unit) -> unit

  val parallel_map_reduce :
    t -> lo:int -> hi:int -> map:(int -> 'a) -> combine:('a -> 'a -> 'a) -> id:'a -> 'a

  val stats : t -> Lhws_runtime.Scheduler_core.stats
  val set_tracer : t -> Lhws_runtime.Tracing.t -> unit

  val register_shed_counter : t -> (unit -> int) -> unit
  (** Publishes a monotone counter into the [conns_shed] field of
      {!stats} — serving layers report overload-shed connections through
      this.  Thread-safe; callable from running tasks. *)

  val submit : t -> (unit -> unit) -> unit
  (** Pool-pinned external submission: the thunk is guaranteed to start
      on this pool.  Safe from any thread, unlike {!async}. *)

  val scavenge_source :
    t -> Lhws_runtime.Scheduler_core.scavenge_source option
  (** The pool's stealable surface, or [None] when it has nothing a
      sibling could steal (thread-per-task: tasks become threads
      immediately). *)

  val set_scavenge : t -> Lhws_runtime.Scheduler_core.scavenge_source -> bool
  (** Points this pool's idle workers at a sibling's source; returns
      [false] when this pool cannot scavenge (thread-per-task: its
      threads never idle-loop).
      @raise Invalid_argument when handed the pool's own source. *)
end

type pool = (module POOL)

(** The instances are exposed with their concrete pool types so callers
    can mix POOL-generic code with pool-specific setup (e.g. registering
    an I/O poller on an {!Lhws_instance}-created pool). *)

module Lhws_instance : POOL with type t = Lhws_runtime.Lhws_pool.t
module Ws_instance : POOL with type t = Lhws_runtime.Ws_pool.t
module Threaded_instance : POOL with type t = Lhws_runtime.Threaded_pool.t

val lhws : pool
(** {!Lhws_runtime.Lhws_pool}: suspending fibers, latency hidden. *)

val ws : pool
(** {!Lhws_runtime.Ws_pool}: blocking sleeps, latency not hidden. *)

val threads : pool
(** {!Lhws_runtime.Threaded_pool}: a thread per task, latency hidden by
    oversubscription. *)

val by_name : string -> pool
(** ["lhws"], ["ws"] or ["threads"].
    @raise Invalid_argument otherwise. *)
