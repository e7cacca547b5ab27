(** Closed-loop multi-connection load generator.

    [conns] pipelined connections × [inflight] generator tasks per
    connection, each issuing [iters] requests back to back: the offered
    load is fixed at [conns * inflight] outstanding requests, and the
    report carries wall-clock throughput plus a latency histogram
    summary.  Used by both the tests and [bench/scenarios_net.ml].

    Two drivers share the machinery: {!Rpc.Client} calls against an
    {!Rpc.serve} endpoint, and {!Http.Client} requests against an
    {!Http.serve} endpoint (keep-alive connections, pipelined) — the
    c10k serving legs in [bench/scenarios_http.ml] run the latter. *)

type report = {
  total : int;  (** requests offered ([conns * inflight * iters]) *)
  errors : int;
      (** calls whose transport failed (timeout, closed, mid-run
          reset) — includes the full share of connections that never
          connected *)
  connect_failures : int;
      (** connections whose dial was refused or reset; their calls are
          counted in [errors], and the run carries on with the rest *)
  non_2xx : int;
      (** requests the server answered, but not with success: HTTP
          statuses outside 2xx (503 shed, 500 handler failure, …), or
          [Net.Remote_error] on the RPC driver.  Disjoint from
          [errors]; excluded from [throughput_rps] and the latency
          summary. *)
  wall_s : float;
  throughput_rps : float;  (** successful requests per second *)
  p50_us : float;  (** median request latency, microseconds *)
  p99_us : float;
  max_us : float;
  mean_us : float;  (** mean successful-request latency, microseconds *)
  max_rounds_behind : int;
      (** fairness tally: when the first generator task finished its
          share, how many full pipeline rounds ([inflight] calls) the
          most-starved connection lagged behind the farthest-ahead one.
          Grows with [conns] when the freshest work always wins. *)
  slowest_conn_mean_us : float;
      (** the worst single connection's mean latency — a starved
          connection surfaces here long before it moves the pooled
          p99 *)
}

val run :
  (module Lhws_workloads.Pool_intf.POOL with type t = 'p) ->
  'p ->
  Reactor.t ->
  ?conns:int ->
  ?inflight:int ->
  ?iters:int ->
  ?payload:(int -> bytes) ->
  Unix.sockaddr ->
  report
(** Runs the load against an {!Rpc.serve} endpoint.  Must be called from
    within [P.run], on a pool where {!Rpc.Client} is safe (latency-hiding
    or thread pool; defaults: 4 conns, 8 in-flight, 50 iters, 8-byte
    payloads). *)

(** {1 Per-class load}

    A bimodal (or n-modal) workload offers several request classes at
    once — say 1 ms RPCs next to long compute calls — and what matters
    is each class's own latency tail, which a single merged histogram
    hides.  [run_classes] drives every class concurrently against one
    endpoint and reports p50/p99 {e per class}. *)

type class_spec

val class_spec :
  ?conns:int ->
  ?inflight:int ->
  ?iters:int ->
  ?payload:(int -> bytes) ->
  string ->
  class_spec
(** One RPC request class: its name plus its own offered load (same
    defaults as {!run}).  [payload] is how the server tells classes
    apart — encode the class tag in it and route in the handler. *)

type http_req = { meth : string; target : string; req_body : bytes option }

val get : string -> http_req
(** [get target] — the GET request most serving legs issue. *)

val http_spec :
  ?conns:int ->
  ?inflight:int ->
  ?iters:int ->
  ?req:(int -> http_req) ->
  string ->
  class_spec
(** One HTTP request class (default request: [GET /]).  Classes tell
    themselves apart by [target], which is also how a routed server
    pins them to different micropools. *)

val run_classes :
  (module Lhws_workloads.Pool_intf.POOL with type t = 'p) ->
  'p ->
  Reactor.t ->
  classes:class_spec list ->
  Unix.sockaddr ->
  (string * report) list
(** Runs every class's closed-loop load concurrently (each class gets
    its own connections), returning a report per class in input order.
    [wall_s] is the whole run's wall clock — classes finish at
    different times but are measured against the shared window.  Same
    calling restrictions as {!run}; HTTP and RPC classes must not be
    mixed against one endpoint (the server speaks one protocol).
    @raise Invalid_argument on an empty class list. *)

val run_http :
  (module Lhws_workloads.Pool_intf.POOL with type t = 'p) ->
  'p ->
  Reactor.t ->
  ?conns:int ->
  ?inflight:int ->
  ?iters:int ->
  ?req:(int -> http_req) ->
  Unix.sockaddr ->
  report
(** {!run}'s shape for an {!Http.serve} endpoint. *)
