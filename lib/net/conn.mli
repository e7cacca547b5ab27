(** A buffered connection with per-operation deadlines.

    Reads are buffered (framing layers issue many small reads); writes
    go straight through.  Kernel operations are driven through
    {!Reactor.run_io}, so in fiber mode each one is attempted eagerly
    inline and otherwise completes in the reactor pump.  [read_timeout]
    / [write_timeout] are relative seconds applied per operation: a wait
    that outlives its deadline raises {!Net.Timeout} instead of parking
    the fiber (or blocking the worker) forever. *)

type t

val create :
  Reactor.t -> ?read_timeout:float -> ?write_timeout:float -> Unix.file_descr -> t
(** Wraps the descriptor (setting it non-blocking in fiber mode).  The
    connection takes ownership: close it only through {!close}. *)

val fd : t -> Unix.file_descr

val read : t -> bytes -> int -> int -> int
(** Returns 0 at end of file (a reset peer reads as EOF).
    @raise Net.Timeout when [read_timeout] expires first.
    @raise Net.Closed on a connection closed by {!close}. *)

val read_exactly : t -> bytes -> int -> unit
(** Fills the buffer's first [len] bytes. @raise End_of_file at EOF. *)

exception Hold
(** Raised by a reader's [on_data] to hold it; see {!start_reader}. *)

val start_reader :
  t ->
  spawn:((unit -> unit) -> unit) ->
  on_data:(Bytes.t -> int -> int -> unit) ->
  on_end:(exn option -> unit) ->
  unit
(** Reads the connection for the rest of its life, handing each chunk
    to [on_data buf pos len].  [buf] is the connection's own buffer, so
    [on_data] must copy what it keeps, and nothing else may {!read} the
    connection once the reader has started.  Start it before anything
    has read from the connection.  This is the one read driver of the
    pipelined clients and of the {!Rpc} and {!Http} servers.

    In fiber mode the reader lives in the reactor pump.  One persistent
    intent is registered; each time the descriptor turns readable the
    pump makes one kernel read and calls [on_data] right there, then
    re-arms the intent without waking any fiber.  The reader pins the
    descriptor until it ends, draws one fault verdict per kernel read
    (an injected delay postpones the next read through the reactor's
    timer) and counts each read in the reactor's syscalls, like {!read}.
    On a blocking reactor, [spawn] runs a task (the pool's [async]) that
    loops {!read}'s kernel read into the same buffer.

    {b The hold.}  When [on_data] raises {!Hold}, the reader stops
    reading after that chunk without ending: no read is pending until
    {!resume_reader}.  A server holds its reader while its handler count
    is at its pipeline limit, so the peer's further bytes wait in the
    kernel and backpressure reaches it through TCP.  The resume may run
    on any thread, even before the hold has been recorded; each {!Hold}
    must be answered by exactly one resume.  A held reader is not
    waiting on the peer, so [read_timeout] does not run while it is
    held and restarts at the resume.  In fiber mode a held reader keeps
    its pin on the descriptor, and {!close} ends it with
    [Some Net.Closed]; on a blocking reactor a held reader has no task
    and pins nothing, and the resume starts a fresh one through
    [spawn].

    [on_end] runs exactly once, when the reader stops: [None] at end of
    file (a reset peer reads as EOF, as with {!read}), [Some Net.Timeout]
    when [read_timeout] passes with no chunk arriving, [Some Net.Closed]
    on a connection closed by {!close}, and [Some e] when the read or
    [on_data] raised [e] (other than {!Hold}).  In fiber mode both
    callbacks run in the pump (or, for a deadline, a timer callback;
    for a held reader ended by {!close}, the closer): they must not
    block or suspend.  {!close} ends the reader: the shutdown makes the
    descriptor read EOF.
    @raise Net.Closed in fiber mode if the connection is already closed.
    @raise Invalid_argument when an earlier {!read} left bytes in the
    connection's buffer. *)

val resume_reader : t -> unit
(** Answers one {!Hold}: the reader reads again.  A no-op on a
    connection whose reader never started. *)

val write_all : t -> bytes -> unit
(** Writes the whole buffer.
    @raise Net.Closed if the peer is gone or {!close} was called.
    @raise Net.Timeout when [write_timeout] expires first. *)

val writev_all : t -> Bytes.t list -> unit
(** Writes the whole vector, coalescing the buffers into as few kernel
    writes as the socket accepts (one, absent backpressure) via
    {!Lhws_runtime.Io.Iov}.  Same errors as {!write_all}.  This is how
    framing layers send header+payload pairs without a copy per frame.
    An injected short-write storm against one [writev_all] call is
    counted once in {!Fault} stats, however many retry chunks it
    fragments the vector into. *)

val close : t -> unit
(** Idempotent and thread-safe.  Shuts the socket down immediately,
    waking any reader currently blocked or parked on the descriptor and
    ending a held one ({!start_reader}); the
    descriptor itself is closed only once in-flight operations drain
    (each read/write pins it), so a racing operation can never land on a
    recycled fd number. *)

val is_closed : t -> bool

val last_active : t -> float
(** [Unix.gettimeofday] timestamp of the last completed read or write;
    the listener's idle reaper compares it against [idle_timeout]. *)
