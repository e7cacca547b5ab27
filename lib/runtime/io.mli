(** Submission/completion I/O for fibers: real I/O latency, hidden —
    and batched.

    Fibers submit {e intents} — (fd, direction, an optional kernel
    operation, a completion callback) — into per-worker lock-free
    submission rings.  The worker that wins the pool's pump election
    drains the rings, registers the intents against an incrementally
    maintained [poll(2)] interest set (no descriptor ceiling, which the
    10k-connection HTTP serving legs require), issues {e one} batched
    readiness pass per pump, executes the ready operations directly,
    and delivers completions through the callbacks, which resume fibers
    over the pools' existing MPSC resume channels.  Register {!poll}
    with {!Lhws_pool.register_poller} — exactly the polling
    implementation of resume callbacks sketched in Section 6 of the
    paper.

    All waits must happen on fibers of a suspension-capable pool.  The
    blocking baseline simply issues blocking reads/writes instead —
    that is the comparison the paper draws.

    Descriptor errors are surfaced, never swallowed: a descriptor closed
    under a parked fiber comes back from the readiness pass as
    [POLLNVAL], is treated as ready, and the operation's own syscall
    raises [EBADF] in the parked fiber. *)

type t

val create : unit -> t

val start_census : t -> unit
(** From now on, record every submitted intent in the census that
    {!sweep_stalled} and {!oldest_parked_ms} read.  Called by
    {!Watchdog.attach_io}; the sweep is the census's only pruner, so a
    reactor without a watchdog keeps no census at all. *)

(** {1 Descriptor-scale helpers}

    The pieces of the c10k story that are not about intents at all. *)

val poll_single :
  [ `R | `W ] ->
  Unix.file_descr ->
  timeout_us:int ->
  [ `Ready | `Timeout | `Interrupted ]
(** One descriptor, one direction, a microsecond timeout (negative waits
    forever) — the blocking-mode wait primitive, with no [FD_SETSIZE]
    ceiling, so the threaded baselines can hold thousands of
    connections too.  On Linux the timeout is kept at full resolution
    ([ppoll(2)]); elsewhere it is rounded up to whole milliseconds, so
    the wait may run long but never times out early.  [`Ready]
    includes error/hang-up conditions (the caller's next syscall
    surfaces the actual error); [`Interrupted] is [EINTR] (recompute the
    timeout and retry).
    @raise Unix.Unix_error [EBADF] when the descriptor is not open. *)

val raise_nofile : int -> int
(** Best-effort bump of the process's soft [RLIMIT_NOFILE] toward
    [min want hard]; returns the soft limit now in force.  The
    10k-connection bench legs call it so a conservative shell default
    does not read as a scheduler ceiling. *)

(** {1 Intent submission}

    The core entry points.  Submission is lock-free: one CAS onto the
    calling worker's ring. *)

type intent

type outcome =
  | Complete  (** the operation ran (or the fd is ready, for waits) *)
  | Error of exn  (** the operation raised, or the fd turned bad *)
  | Cancelled
      (** a {!cancel} lost its claim race while the pump held the
          intent; delivered so the canceller's deadline still wins *)

val submit :
  t ->
  kind:[ `R | `W ] ->
  fd:Unix.file_descr ->
  run:(unit -> [ `Done | `Again ]) ->
  (outcome -> unit) ->
  intent
(** Enqueues an intent.  Once the fd is ready the pump calls [run]:
    [`Done] means the operation completed (stash results in the
    closure); [`Again] means it would still block, or that a persistent
    intent wants the next readiness edge too — the intent is re-armed
    without a completion, and counts as parked from that pass on;
    raising delivers [Error].  Exactly one completion is delivered
    unless {!cancel} claims the intent first. *)

val cancel : t -> intent -> bool
(** Atomically claims the intent: [true] guarantees its callback will
    never fire iff it had not already fired (or been claimed).  The
    arbiter for wait-vs-deadline races.  When the pump is mid-operation
    on the intent, [cancel] returns [false] and the pump delivers
    either the operation's outcome or [Cancelled] — exactly one of the
    two — so the caller can still lose the race it asked to win. *)

(** {1 Blocking fiber I/O} *)

val read : t -> Unix.file_descr -> bytes -> int -> int -> int
(** [read t fd buf pos len] waits for readability, then [Unix.read].
    Returns the number of bytes read (0 at end of file).  Wait-first
    (no eager attempt): safe on descriptors still in blocking mode.
    @raise Unix.Unix_error [EBADF] if the descriptor is closed while the
    fiber is parked. *)

val write : t -> Unix.file_descr -> bytes -> int -> int -> int
(** Waits for writability, then [Unix.write]. *)

val read_exactly : t -> Unix.file_descr -> bytes -> int -> unit
(** Reads exactly [len] bytes into the buffer's prefix.
    @raise End_of_file if the descriptor closes first.
    @raise Unix.Unix_error like {!read}. *)

val write_all : t -> Unix.file_descr -> bytes -> unit
(** Writes the whole buffer. *)

(** {1 Vectored I/O}

    One kernel round trip for a whole buffer vector.  Writes on
    non-blocking descriptors are a real [writev(2)] from the buffers
    themselves; blocking writes and reads coalesce several buffers
    through one scratch copy, so the runtime lock can be released around
    the call that blocks. *)

module Iov : sig
  val length : Bytes.t list -> int

  val drop : Bytes.t list -> int -> Bytes.t list
  (** The vector minus its first [n] bytes (resume after a short write). *)

  val take : Bytes.t list -> int -> Bytes.t list
  (** The vector clamped to its first [cap] bytes (injected shorts). *)

  val write : nonblocking:bool -> Unix.file_descr -> Bytes.t list -> int
  (** One gathering write; returns bytes written (may be short).  With
      [~nonblocking:true] — which the caller must only pass for a
      descriptor in non-blocking mode — it is one [writev(2)] over at
      most the first 64 buffers, copying nothing, and a full descriptor
      raises [Unix.Unix_error EAGAIN] at once.  With [~nonblocking:false]
      several buffers are concatenated into one scratch buffer and
      written with [Unix.write], which may block.
      @raise Unix.Unix_error as the underlying call does. *)

  val read : Unix.file_descr -> Bytes.t list -> int
  (** One scattering read; returns bytes read (0 at end of file). *)
end

(** {1 Polling and introspection} *)

val poll : t -> int
(** The pump: drains the submission rings, issues at most one batched
    readiness pass, executes ready operations and delivers their
    completions; returns how many completions were delivered (including
    operations that raised, e.g. on a closed descriptor).  Thread-safe;
    call from worker loops.

    Passes are paced: at most one per 50 µs plus 0.2 µs per registered
    descriptor, and a pass only looks (zero timeout) — unless the
    calling domain has lent an idle wait with {!lend_idle_wait}.  Then,
    if any intent is registered, the pass is made at once, blocks until
    the first descriptor is ready or for at most the lent time or the
    pacing interval, whichever is shorter, and consumes the loan.  With
    nothing registered the loan is left for the next reactor polled on
    this domain, or for {!reclaim_idle_wait}. *)

val lend_idle_wait : float -> unit
(** [lend_idle_wait s] stores [s] seconds in a slot that belongs to the
    calling domain: the time its worker is about to spend idle.  The
    next {!poll} on this domain that makes a readiness pass spends it
    blocked in that pass instead (see {!poll}), so the first readiness
    edge wakes the worker.  The scheduler's idle path lends its backoff
    sleep this way to the pump owner's pollers; nothing else needs to. *)

val reclaim_idle_wait : unit -> float
(** Empties the calling domain's slot and returns what was left in it:
    the lent time when no {!poll} used it (the caller should then sleep
    as it would have), [0.] when a pass consumed it. *)

val pending : t -> int
(** Intents currently submitted and undecided (parked fibers). *)

val syscalls : t -> int
(** Kernel I/O calls issued through this reactor so far: readiness
    passes, stall-sweep probes, and every operation counted via
    {!count_syscall}.  Feeds the pools' [io_syscalls] stats counter. *)

val count_syscall : t -> unit
(** Adds one kernel I/O call to {!syscalls}.  Called by the layers that
    issue operations outside {!poll} (eager attempts, blocking-mode
    syscalls) so the counter stays a complete census. *)

val oldest_parked_ms : t -> float
(** Age in milliseconds of the oldest intent still armed in this
    reactor's census, measured from when it was last armed — its
    submission, or its latest re-arm on [`Again] (0 when nothing is
    parked, or before {!start_census}) — the staleness gauge behind the
    pools' [oldest_parked_ms] stats field. *)

val sweep_stalled :
  t ->
  grace:float ->
  ?probe_every:float ->
  fail:(string -> exn) option ->
  unit ->
  int
(** One stall sweep over every census intent older than [grace] seconds
    (younger intents are never touched).  Detects {e lost wakeups} —
    armed intents registered nowhere, which nothing will ever complete
    (exactly what {!chaos_drop_completions} manufactures) — and {e stale
    registrations} — armed intents whose fd a zero-timeout probe finds
    closed, a backstop for the batched pass's [POLLNVAL] path and the
    hazard an epoll-style wait's silent auto-deregistration would
    introduce.  With [fail = Some mk], a lost wakeup completes the fiber
    loudly with [Error (mk description)], claiming the intent so a
    racing deadline loses; with [None] it is counted once and left
    parked.  Stale descriptors always complete with the underlying
    [Unix.Unix_error].  Stale-registration probes cost one syscall per
    intent, so each intent is probed at most once per [probe_every]
    seconds (default [max (10 * grace) 1s], mirroring the watchdog's
    stuck-worker threshold) — long-parked idle connections are not
    re-probed on every sweep.  Returns how many stalls were newly
    detected.  Normally driven by {!Watchdog.poll}, not called
    directly. *)

val chaos_drop_completions : t -> every:int -> unit
(** Test-only mutation hook: silently drop every [every]-th completion
    (the submitting fiber stays parked).  Exists so the chaos suite can
    prove a lost completion is {e detected} — deadline waits fire, the
    [io_pending] gauge sticks — rather than hanging the run.  [0]
    disables. *)
