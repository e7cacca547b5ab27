(** One server connection, read by its {!Conn} reader: the shared
    driver under {!Rpc.serve} and {!Http.serve}.

    The reader hands each chunk to the protocol's decoder where it is
    read: in the reactor pump in fiber mode; on a blocking reactor the
    connection task itself reads, so a blocking server still costs one
    thread per connection.  Each complete request leaves as a pool task
    ({!spawn}) right there; the pump never runs a handler and never
    waits on the {!Outbox}.  At most [max_pipeline] spawned tasks may
    be unfinished: at the limit the reader is held ({!Conn.Hold}), so
    the peer's further bytes wait in the kernel, and the task that
    brings the count back below it decodes what is already buffered and
    resumes the reader. *)

type t

val spawn : t -> ?dispatch:((unit -> unit) -> unit) -> (unit -> unit) -> unit
(** Runs a task that owes the peer a reply, through [dispatch] (default:
    the serving pool's [async]).  It counts against [max_pipeline] until
    it returns, so it should return once its reply is written.  Call it
    from [step] or [ended]: the task is dispatched, in spawn order, once
    they have returned and the session's lock is released, so a
    dispatcher that blocks (a thread pool at its cap) never holds up a
    finishing task. *)

val serve :
  (module Lhws_workloads.Pool_intf.POOL with type t = 'p) ->
  'p ->
  Conn.t ->
  max_pipeline:int ->
  feed:(Bytes.t -> int -> int -> unit) ->
  step:(t -> [ `Next | `Need | `Stop ]) ->
  ended:(t -> exn option -> unit) ->
  unit
(** The listener's connection task.  Starts the reader (on a blocking
    reactor, reads here until the connection ends or is held), then
    waits once for the connection to end and for every spawned task to
    return.

    [feed buf pos len] appends a chunk to the protocol's decoder.
    [step] takes the next complete request out of it and spawns its
    task ([`Next]), reports that none is buffered ([`Need]), or ends
    decoding ([`Stop], after spawning any last reply).  [ended] runs
    once if the reader ends before a [`Stop], with the reader's
    [on_end] argument (so [Some Net.Timeout] for a stalled peer): it may
    spawn a last reply.  [feed], [step] and [ended] run under the
    session's lock, in the pump in fiber mode: they must not block. *)
