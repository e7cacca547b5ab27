(** HTTP/1.1 serving layer over {!Conn}/{!Listener}/{!Reactor}.

    The paper's thesis is about {e interacting} parallel computations:
    many small latency-bound requests interleaved with parallel
    compute.  The RPC stack proves the scheduler story over a custom
    length-prefixed framing; this module speaks the protocol real
    traffic arrives in, so the c10k-class load legs measure the same
    scheduler under HTTP/1.1 keep-alive connections.

    Three layers:

    - {!Parser}: the incremental, allocation-conscious HTTP/1.1 decoder —
      feed it arbitrary byte slices (any split boundary, byte-at-a-time
      if need be), pull complete requests out.  Bodies are framed by
      [Content-Length] or chunked transfer-encoding; malformed input
      yields a typed error carrying the status to answer with (400 /
      413 / 431 / 501 / 505) instead of an exception or a hang.
    - {!serve} / {!Router}: each connection is read by
      {!Conn.start_reader} (through {!Session}), so in fiber mode the
      reactor pump feeds each chunk to the {!Parser} and dispatches
      every complete request as a pool task where its bytes arrived —
      no reader fiber is resumed per request.  Responses are serialized
      {e in request order} through a per-connection {!Outbox} that
      coalesces whatever is ready into one vectored write, so pipelined
      clients get correct ordering and the server pays ~one gathering
      syscall for a burst of responses.  Routes can carry their own
      dispatcher, which is how a {!Lhws_workloads.Topology} pins a
      compute route to the batch micropool while I/O routes stay on the
      latency pool.  A blocking reactor runs the same path, with the
      connection task reading in place of the pump.
    - {!Client}: a pipelined keep-alive client for the load generator
      and tests, on fiber and blocking reactors alike.  It reads
      responses through the same {!Parser} state machine and the same
      read driver.

    Overload and shutdown map onto status codes: a read deadline that
    expires {e mid-request} is answered with 408 before closing; a
    server past its [shed_above] high-water mark or draining after
    {!shutdown} answers 503 (draining adds [Connection: close]).  A
    request that cannot be parsed is answered with its error's status
    and the connection closed — never silently dropped, never a parked
    fiber leaked. *)

type version = [ `Http_1_0 | `Http_1_1 ]

type request = {
  meth : string;  (** verb as sent, e.g. ["GET"] — case-sensitive *)
  target : string;  (** raw request-target *)
  path : string;  (** [target] up to [?] *)
  query : string;  (** after [?], [""] when absent *)
  version : version;
  headers : (string * string) list;
      (** in arrival order, names lowercased, values trimmed *)
  body : Bytes.t;
  keep_alive : bool;
      (** the connection semantics the peer asked for: 1.1 default
          persistent unless [Connection: close]; 1.0 default close
          unless [Connection: keep-alive] *)
}

val header : request -> string -> string option
(** First header with this (lowercased) name. *)

type response = {
  status : int;
  reason : string;  (** [""] picks the standard reason phrase *)
  resp_headers : (string * string) list;
      (** extra headers; [Date], [Content-Length] and [Connection] are
          emitted by the serializer — occurrences here are dropped *)
  resp_body : Bytes.t;
}

val response :
  ?status:int -> ?reason:string -> ?headers:(string * string) list -> Bytes.t -> response
(** Defaults: status 200, derived reason, no extra headers. *)

val text : ?status:int -> string -> response
(** Plain-text response ([Content-Type: text/plain]). *)

val reason_phrase : int -> string

(** {1 Incremental parsing}

    One decoder reads both directions: this interface parses requests,
    and {!Client} reads responses through the same buffer, head scan,
    body framing, limits and trailer checks.  Only the start line and
    the body rule differ (a response to HEAD, and a 1xx, 204 or 304
    response, has no body). *)

module Parser : sig
  type t

  type error = { status : int; reason : string }
  (** What to answer before closing: 400 (malformed, including
      smuggling-shaped input: conflicting [Content-Length] pairs,
      [Content-Length] alongside [Transfer-Encoding]), 413 (body over
      [max_body_bytes]), 431 (head over [max_header_bytes]), 501
      (transfer-coding other than chunked), 505 (version). *)

  type event =
    | Need_more  (** no complete request buffered; feed more bytes *)
    | Request of request
    | Failed of error
        (** the stream is poisoned: answer, close, stop feeding *)

  val create : ?max_header_bytes:int -> ?max_body_bytes:int -> unit -> t
  (** Defaults: 16 KiB head, 8 MiB body. *)

  val feed : t -> ?off:int -> ?len:int -> Bytes.t -> unit
  (** Appends a slice ([off]/[len] default to the whole buffer).  Any
      fragmentation is fine — the parser's results are identical
      whether the stream arrives in one slab or byte-at-a-time (the
      property the robustness battery pins). *)

  val next : t -> event
  (** Pulls the next complete request.  Call repeatedly: several
      pipelined requests fed in one slice come back one per call.
      After [Failed] every subsequent call returns the same error. *)

  val at_boundary : t -> bool
  (** No partial request buffered — distinguishes an idle keep-alive
      connection timing out (just close) from a peer dying mid-request
      (answer 408).  True initially and after each complete request. *)

  val buffered : t -> int
  (** Bytes fed but not yet consumed into a request. *)
end

(** {1 Routing} *)

module Router : sig
  type params = (string * string) list
  (** Captured path segments, e.g. [[("n", "32")]] for [/fib/:n]. *)

  type route

  val route :
    ?dispatch:((unit -> unit) -> unit) ->
    meth:string ->
    string ->
    (params -> request -> response) ->
    route
  (** [route ~meth pattern handler].  Pattern segments: literals,
      [:name] captures one segment, a trailing [*] captures the rest
      (param ["*"]).  [dispatch] overrides the server's dispatcher for
      this route — pass {!Lhws_workloads.Topology.dispatcher} to pin a
      route class to its micropool.
      @raise Invalid_argument on an empty pattern. *)

  type t

  val create : ?fallback:(request -> response) -> route list -> t
  (** First match in list order wins.  Without [fallback], unmatched
      paths get 404 and matched paths with the wrong method 405 (with
      an [Allow] header). *)

  val dispatch_of : t -> request -> ((unit -> unit) -> unit) option * (unit -> response)
  (** The route's dispatcher override (if any) and a thunk producing
      the response — what {!serve_router} runs as a pool task. *)
end

(** {1 Serving} *)

type config = {
  listener : Listener.config;
  max_header_bytes : int;
  max_body_bytes : int;
  max_pipeline : int;
      (** per-connection cap on dispatched-but-unanswered requests
          (replies the server decides itself, such as a 503, count
          too); at it no request leaves the parser and the reader is
          held, so backpressure reaches the peer through TCP *)
  shed_above : int option;
      (** server-wide in-flight request high-water mark: at/above it
          new requests are answered 503 without dispatching *)
  max_queue_age : float option;
      (** deadline-aware brownout budget, seconds: while the oldest
          admitted-but-unanswered request is older than this, new
          requests on live connections are answered 503 +
          [Retry-After] and new connections are shed at accept (the
          gauge is wired into the listener's [shed_pred]) — admission
          stops the moment queued work is already too old to serve in
          time, instead of deepening the queue everyone waits behind
          (default [None]) *)
}

val default_config : config
(** {!Listener.default_config} with [max_conns] raised to 16384 (the
    c10k legs need headroom; the reactor's poll backend has no
    descriptor ceiling), 16 KiB heads, 8 MiB bodies, 64 pipelined
    requests, no shedding. *)

type server

val serve :
  (module Lhws_workloads.Pool_intf.POOL with type t = 'p) ->
  'p ->
  Reactor.t ->
  ?config:config ->
  ?dispatch:((unit -> unit) -> unit) ->
  Unix.sockaddr ->
  handler:(request -> response) ->
  server
(** Binds, listens, serves.  Requests are decoded where the
    connection's bytes are read: in the reactor pump in fiber mode, in
    the connection's task on a blocking reactor.  Every
    parsed request runs as a pool task through [dispatch] (default:
    [P.async] on the serving pool); replies the server decides itself
    (503, 400, 408) are written by a task of the serving pool.  A
    handler that raises is answered 500 with the exception text. *)

val serve_router :
  (module Lhws_workloads.Pool_intf.POOL with type t = 'p) ->
  'p ->
  Reactor.t ->
  ?config:config ->
  ?dispatch:((unit -> unit) -> unit) ->
  Unix.sockaddr ->
  router:Router.t ->
  server
(** {!serve} with per-route dispatcher overrides honoured. *)

val listener : server -> Listener.t
val addr : server -> Unix.sockaddr

val inflight : server -> int
(** Requests dispatched whose handler has not returned yet,
    server-wide. *)

val served : server -> int
(** Responses written (all statuses). *)

val shed_503 : server -> int
(** Requests answered 503 by the shed / drain / brownout fast paths. *)

val draining : server -> bool

val oldest_pending_age : server -> float
(** Age in seconds of the oldest admitted request whose handler has
    not returned (0 when none are pending) — the gauge the
    [max_queue_age] brownout reads. *)

val shutdown : ?grace:float -> server -> unit
(** Drain: mark the server draining (new requests on live connections
    answer 503 + [Connection: close]), stop accepting, give in-flight
    handlers [grace] seconds (default 5), then force-close stragglers.
    Idempotent. *)

(** {1 Client} *)

module Client : sig
  type t

  type resp = {
    status : int;
    reason : string;
    headers : (string * string) list;  (** names lowercased *)
    body : Bytes.t;
  }

  val connect :
    (module Lhws_workloads.Pool_intf.POOL with type t = 'p) ->
    'p ->
    Reactor.t ->
    ?read_timeout:float ->
    ?write_timeout:float ->
    Unix.sockaddr ->
    t
  (** One keep-alive connection and its response reader
      ({!Conn.start_reader}): in fiber mode the reactor pump decodes each
      response and resolves its call where the bytes are read; on a
      blocking reactor a reader pool task does.  Same pool restrictions
      as {!Rpc.Client.connect} (not the helping-await WS pool).
      [read_timeout] bounds each wait for the next response bytes: when
      it passes with nothing read, the connection is closed and pending
      calls fail with [Net.Closed]. *)

  val call :
    t ->
    ?headers:(string * string) list ->
    ?body:Bytes.t ->
    meth:string ->
    target:string ->
    unit ->
    resp Lhws_runtime.Promise.t
  (** Pipelined: requests from concurrent fibers are serialized onto
      the wire and responses matched back in wire order.
      @raise Net.Closed once the connection is gone. *)

  val close : t -> unit
  (** Closes the connection; pending calls fail with [Net.Closed].
      Returns once the reader has stopped, awaiting it through the
      pool's [await].  In fiber mode a call's promise is fulfilled in
      the reactor pump, so never call [close] from a waiter registered
      on it; await the promise and close from the task instead. *)
end
