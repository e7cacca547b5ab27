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
    waking any reader currently blocked or parked on the descriptor; the
    descriptor itself is closed only once in-flight operations drain
    (each read/write pins it), so a racing operation can never land on a
    recycled fd number. *)

val is_closed : t -> bool

val last_active : t -> float
(** [Unix.gettimeofday] timestamp of the last completed read or write;
    the listener's idle reaper compares it against [idle_timeout]. *)
