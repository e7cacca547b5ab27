(** One connection's write path: frames from many concurrent tasks
    leave in sequence order, coalesced into few vectored writes.

    Every frame has a sequence number.  Ready frames wait in a table
    until every earlier number has been written; then one flusher at a
    time writes every consecutive ready frame in one {!Conn.writev_all}.
    A writer whose frame another task flushes waits on a one-shot
    promise through the pool's [await] — it never polls — so the same
    outbox serves fiber and blocking reactors alike.  When a batch fails
    to write, exactly its writers see the error and the connection is
    closed; frames sequenced after it then fail with [Net.Closed].

    HTTP/1.1 reserves a number per request at decode time
    ({!reserve}, then {!send_at}), so responses leave in request order.
    Rpc frames carry ids and leave in completion order ({!send}). *)

type t

val create : await:(unit Lhws_runtime.Promise.t -> unit) -> Conn.t -> t
(** [await] is the pool's [await]. *)

val reserve : t -> int
(** Takes the next sequence number.  Each reserved number must reach
    exactly one {!send_at}: a number that never does holds back every
    later frame. *)

val send_at : t -> seq:int -> ?close_after:bool -> Bytes.t list -> unit
(** Queues the frame at [seq] and returns once it is on the wire.  With
    [close_after] (default [false]) the connection is closed once the
    batch holding the frame is written.
    @raise e the write error, if the batch holding the frame failed. *)

val send : t -> Bytes.t list -> unit
(** {!reserve} and queue in one step, under the table lock, so the
    frame takes the next free number and never leaves a gap; then as
    {!send_at}. *)

(** A count with at most one waiter at a time, woken by events instead
    of polled: the waiter publishes a one-shot promise and re-checks the
    count, and a {!decr} or {!wake} that finds the promise fulfils it. *)
module Counter : sig
  type t

  val create : unit -> t
  val get : t -> int
  val incr : t -> unit

  val decr : t -> unit
  (** Decrements and wakes the waiter, if any. *)

  val wake : t -> unit
  (** Wakes the waiter, if any, so it re-evaluates its condition: for a
      condition that also reads state other than the count. *)

  val wait : t -> await:(unit Lhws_runtime.Promise.t -> unit) -> (int -> bool) -> unit
  (** [wait t ~await ready] returns once [ready (get t)] holds,
      suspending through [await] between wake-ups.  At most one task
      may wait on [t] at a time. *)
end
