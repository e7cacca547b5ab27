(** Accepting sockets onto a pool: one handler task per connection.

    The accept loop runs as an ordinary pool task — a fiber on the
    latency-hiding pools (parking on listen-fd readiness), a blocking
    task on the baselines.  Each accepted connection becomes a
    {!Conn.t} handed to [handler] in its own pool task, so request
    handling interleaves with whatever else the pool is computing: the
    paper's "parallel server obtaining and fulfilling requests". *)

type config = {
  backlog : int;  (** [Unix.listen] queue depth (default 128) *)
  max_conns : int;
      (** backpressure gate: while this many handlers are live the loop
          stops accepting and lets the kernel queue hold arrivals
          (default 1024) *)
  shed_above : int option;
      (** overload high-water mark: at/above this many live handlers,
          arrivals are rejected fast — accepted and closed immediately,
          counted in {!shed} and the pool's [conns_shed] stats field —
          instead of queueing unanswered (default [None]: no shedding) *)
  shed_pred : (unit -> bool) option;
      (** deadline-aware shed signal ORed with [shed_above]: while it
          returns [true] arrivals are rejected fast.  The serving layer
          supplies an age check — e.g. {!Http}'s oldest-pending-request
          gauge against its [max_queue_age] — so admission stops the
          moment queued work is already too old to serve in time
          (default [None]) *)
  idle_timeout : float option;
      (** reap connections with no completed I/O for this long *)
  read_timeout : float option;  (** per-operation deadline handed to each {!Conn.t} *)
  write_timeout : float option;
  reap_interval : float;  (** idle-reaper period, seconds (default 0.05) *)
}

val default_config : config

type t

val serve :
  (module Lhws_workloads.Pool_intf.POOL with type t = 'p) ->
  'p ->
  Reactor.t ->
  ?config:config ->
  ?dispatch:((unit -> unit) -> unit) ->
  Unix.sockaddr ->
  handler:(Conn.t -> unit) ->
  t
(** Binds, listens and starts the accept loop (plus the idle reaper when
    [idle_timeout] is set) as tasks on the pool.  Must be called from
    within [P.run] (or any pool task); the handler's [Net.Closed],
    [Net.Timeout] and [End_of_file] escapes are normal connection
    endings, any other exception also just ends that connection.  The
    connection is closed when the handler returns.

    [dispatch] routes each connection's handler task (default: [P.async]
    on the serving pool).  Pass a topology class's
    {!Lhws_workloads.Topology.dispatcher} to pin connection handling to
    that class's pool — the acceptor and idle reaper always stay on the
    serving pool. *)

val addr : t -> Unix.sockaddr
(** The actual bound address — useful after binding port 0. *)

val live : t -> int
(** Connections currently being handled. *)

val accepted : t -> int
(** Total connections handed to handlers so far (shed arrivals are not
    counted here; see {!shed}). *)

val shed : t -> int
(** Arrivals rejected fast by the [shed_above] overload gate.  Also
    summed into the pool's [conns_shed] stats field. *)

val shutdown : ?grace:float -> t -> unit
(** Graceful stop: stop accepting, wait up to [grace] seconds (default
    5) for live handlers to drain, then force-close the stragglers and
    wait for their handlers to unwind.  Idempotent.  Must be called from
    within a task of the same pool: the drain is a deadline wait in
    [P.sleep] ticks, while a gated acceptor is woken at once. *)
