(** Micropools: several scheduler pools coexisting in one process, each
    owning a {e task class}, with optional cross-pool scavenging.

    One flat pool cannot isolate latency-sensitive traffic from batch
    compute: a 500 ms batch job ahead of a 1 ms RPC handler in the same
    deque adds itself to the handler's tail latency.  A topology gives
    each class its own pool (its own worker domains, timers, stats,
    tracing — different policies and sizes side by side, LHWS next to
    thread-per-task), so the latency class's p99 is bounded by its own
    work.  Submission is {e pool-pinned}: {!submit}[ ~class_] routes the
    thunk to the owning pool and it can only ever start there.

    Isolation wastes idle cycles; {e scavenging} gives them back without
    giving up the pinning direction that matters.  A pool whose spec
    names a donor class raids that sibling when its own workers idle
    (after local steals fail, before deep backoff): only fresh,
    not-yet-started tasks cross, and they become native tasks of the
    thief.  Typical shape: the latency pool scavenges the batch pool —
    batch throughput improves when RPC traffic is quiet, while batch
    work can never invade the latency pool.  Scavenging is off unless a
    spec asks for it.

    Cross-group steals cost more than local ones ("A new analysis of
    Work Stealing with latency", arXiv 1805.00857), which is why the
    scavenge path is a last resort below local stealing, and why resumes
    stay in their home pool (arXiv 2111.04994: steals dominate cache
    cost). *)

type class_ =
  | Latency  (** short, deadline-sensitive work (e.g. RPC handlers) *)
  | Batch  (** long compute jobs (e.g. map-reduce legs) *)
  | Custom of string

val class_name : class_ -> string
(** ["latency"], ["batch"], or the custom string. *)

type spec
(** One member pool: class, pool kind, size, and an optional scavenge
    edge. *)

val spec :
  ?pool:Pool_intf.pool ->
  ?workers:int ->
  ?scavenges:class_ ->
  class_ ->
  spec
(** Defaults: the lhws pool kind, 2 workers, no scavenging.  [scavenges] names the {e donor} class this pool may
    raid when idle. *)

type t

val create : ?name:string -> spec list -> t
(** Creates every member pool (registered as ["<name>.<class>"] in
    {!Lhws_runtime.Scheduler_core.Registry}) and wires the scavenge
    edges.  Each member is held inside its [run] by a driver domain for
    the topology's lifetime, so all of its configured workers serve
    from the moment [create] returns — nobody needs to (or may) call
    the member's own [run].  On a bad edge (unknown or self donor,
    donor with nothing stealable, thief that cannot scavenge, duplicate
    class) every already-created pool is shut down before raising.
    @raise Invalid_argument as above. *)

val shutdown : t -> unit
(** Stops the driver domains and shuts down every member pool.
    Idempotent. *)

val with_topology : ?name:string -> spec list -> (t -> 'a) -> 'a

val name : t -> string

val classes : t -> class_ list
(** In spec order. *)

val pool_names : t -> (class_ * string) list
(** Class to pool-kind name (["lhws"], ["ws"], ...). *)

val submit : t -> class_:class_ -> (unit -> unit) -> unit
(** Pool-pinned submission: the thunk starts on the class's own pool,
    never elsewhere.  Safe from any thread — including another member
    pool's workers, which is how a latency handler hands compute to the
    batch class.
    @raise Invalid_argument on an unknown class. *)

val dispatcher : t -> class_:class_ -> (unit -> unit) -> unit
(** [dispatcher t ~class_] is [submit t ~class_] with the member lookup
    done once — the shape serving layers take (see
    {!Lhws_net.Listener.serve}'s [dispatch]). *)

val run : t -> class_:class_ -> (unit -> 'a) -> 'a
(** Runs the thunk as a task of the class's pool (via the pool-pinned
    {!submit} path — the member's own [run] is held by its driver) and
    blocks the calling thread until it finishes, re-raising its
    exception.  Call from outside the topology's pools; inside them,
    use the member's [async]/[await] through {!use} instead of blocking
    a worker. *)

val stats : t -> (class_ * Lhws_runtime.Scheduler_core.stats) list
(** Per-member stats, in spec order.  Across a topology the scavenge
    books balance: the sum of [tasks_scavenged] over thieves equals the
    sum of [tasks_donated] over donors. *)

(** {2 Escape hatch} *)

type 'a user = { use : 'p. (module Pool_intf.POOL with type t = 'p) -> 'p -> 'a }

val use : t -> class_:class_ -> 'a user -> 'a
(** Unpacks the member pool for operations beyond the closed set above
    (e.g. registering an I/O poller, async/await from inside its
    fibers).  The member is already inside its [run] (held by the
    topology's driver domain), so calling [P.run] on it raises; use the
    task-level operations. *)
