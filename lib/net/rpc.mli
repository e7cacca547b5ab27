(** Length-prefixed request/response RPC with pipelining.

    Wire format (big-endian): a request frame is
    [4B payload length | 8B request id | payload]; a response frame adds
    a status byte after the id (0 = ok, 1 = the handler raised, payload
    carries the exception text).  Many requests may be in flight per
    connection; ids pair responses with calls, so responses travel in
    {e completion} order — on the server, every decoded request is
    dispatched as its own pool task, which is exactly how real packet
    arrival order feeds the scheduler's resume path.

    Layers, both directions on one read driver ({!Conn.start_reader})
    and one frame decoder:
    - server: {!serve_handler} decodes request frames where the reader
      delivers them (the reactor pump in fiber mode) and dispatches
      each as a pool task; replies leave through an {!Outbox};
    - client: {!Client} decodes reply frames the same way and resolves
      each call's promise there. *)

val max_frame : int
(** Largest accepted payload (8 MiB); bigger frames fail with
    [Net.Protocol_error]. *)

(** {1 Server} *)

val serve_handler :
  (module Lhws_workloads.Pool_intf.POOL with type t = 'p) ->
  'p ->
  ?dispatch:((unit -> unit) -> unit) ->
  handler:(bytes -> bytes) ->
  Conn.t ->
  unit
(** The {!Listener} connection handler: reads the connection through
    {!Conn.start_reader} (see {!Session}), so in fiber mode the reactor
    pump decodes each request frame where its bytes arrive and
    dispatches it as a pool task there, with no reader fiber to resume.
    Responses are serialised through one {!Outbox}.  At most 256
    requests may be dispatched-but-unanswered per connection; past that
    the reader is held until responses drain, so a client pipelining
    without reading responses is throttled through TCP instead of
    queueing unbounded tasks.  Returns when the peer hangs up (after
    in-flight responses drain), once per connection.  On a blocking
    reactor the same path runs with this task reading.

    [dispatch] routes each decoded request's task (default: [P.async] on
    the serving pool).  Pass a topology class's
    {!Lhws_workloads.Topology.dispatcher} to pin RPC handlers to that
    class's pool while the connection stays put. *)

val serve :
  (module Lhws_workloads.Pool_intf.POOL with type t = 'p) ->
  'p ->
  Reactor.t ->
  ?config:Listener.config ->
  ?dispatch:((unit -> unit) -> unit) ->
  Unix.sockaddr ->
  handler:(bytes -> bytes) ->
  Listener.t
(** [Listener.serve] with {!serve_handler} as the connection handler;
    [dispatch] reaches the per-request tasks (the connection tasks stay
    on the serving pool). *)

(** {1 Pipelined client}

    Replies are decoded by one incremental frame decoder per client,
    the one the server decodes requests with, fed by the reader
    {!Conn.start_reader} runs (the read driver {!Http.Client} and both
    servers share):

    - On a fiber-mode reactor there is no reader task.  The connection
      keeps one persistent read intent ({!Conn.start_reader}); the
      reactor pump reads each reply as it arrives, decodes it and
      fulfils the call's promise right there, so the caller's resume is
      queued without a scheduling hop through a reader fiber.
    - On a blocking reactor the reader is a pool task that loops a
      kernel read into the decoder, so the pool's [async] must give it
      its own execution context: a dedicated thread (thread pool).
      {b Not} for the helping-await WS pool — helping would run the
      non-terminating read loop inside a caller's [await] and bury its
      continuation; use {!call_sync} there. *)

module Client : sig
  type t

  val connect :
    (module Lhws_workloads.Pool_intf.POOL with type t = 'p) ->
    'p ->
    Reactor.t ->
    ?read_timeout:float ->
    ?write_timeout:float ->
    Unix.sockaddr ->
    t
  (** Connects and starts the reply reader: the pump-side read intent in
      fiber mode, a reader pool task on a blocking reactor.
      [read_timeout] bounds each wait for the next reply bytes, not the
      client's life: when it passes with nothing read, the connection
      is closed and pending calls fail with [Net.Closed]. *)

  val call : t -> bytes -> bytes Lhws_runtime.Promise.t
  (** Sends one request; the promise resolves when its response arrives
      (out of order with other calls).  Await it with the pool's
      [await].  Fails with [Net.Remote_error] if the server handler
      raised, [Net.Closed] if the connection dies cleanly first, and
      [Net.Peer_closed] if the server hung up mid-frame with responses
      still owed (transient endpoint failure — retryable on a fresh
      connection, which {!Resilience.Client} automates). *)

  val close : t -> unit
  (** Closes the connection; pending calls fail with [Net.Closed].
      Returns once the reader has stopped, awaiting it through the
      pool's [await].  In fiber mode a call's promise is fulfilled in
      the reactor pump, so never call [close] from a waiter registered
      on it ({!Lhws_runtime.Promise.add_waiter}); await the promise and
      close from the task instead. *)
end

val call_sync : Conn.t -> bytes -> bytes
(** One synchronous round-trip on a raw connection — the blocking
    baseline's client path (the caller owns any connection sharing).
    @raise Net.Remote_error if the server handler raised.
    @raise Net.Closed if the peer hangs up at a frame boundary.
    @raise Net.Peer_closed if it hangs up mid-frame. *)
