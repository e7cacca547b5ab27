(* A buffered connection over a descriptor.  Reads go through a small
   input buffer (length-prefixed RPC framing issues many tiny reads);
   writes go straight to the kernel.  Every kernel operation is driven
   through {!Reactor.run_io}: in fiber mode it is attempted inline once
   (eager completion) and otherwise submitted as an intent the pump
   executes on readiness; in blocking mode the deadline becomes the
   poll timeout — either way a dead peer costs Net.Timeout, never a
   worker parked forever.  The one exception is the pump-side reader
   ([start_reader] in fiber mode), which keeps a persistent intent of
   its own. *)

module Iov = Lhws_runtime.Io.Iov

type t = {
  fd : Unix.file_descr;
  rt : Reactor.t;
  rbuf : Bytes.t;
  mutable rpos : int;  (* next unread byte in rbuf *)
  mutable rlen : int;  (* bytes buffered in rbuf *)
  read_timeout : float option;
  write_timeout : float option;
  mutable last_active : float;  (* for idle reaping; monotone enough *)
  closed : bool Atomic.t;
  (* In-flight kernel operations plus one reference for the open handle.
     [close] shuts the socket down immediately (waking parked waiters) but
     defers [Unix.close] until the count drains: an fd number freed while a
     fiber sits between its closed-check and [Unix.read], or parked in the
     reactor, could be reused by a freshly accepted connection and the
     stale operation would target the wrong descriptor. *)
  ops : int Atomic.t;
  fd_closed : bool Atomic.t;  (* [Unix.close] runs at most once *)
  mutable resume : unit -> unit;  (* [resume_reader], set by [start_reader] *)
  mutable end_held : unit -> unit;  (* ends a held reader; run by [close] *)
}

let buf_capacity = 16 * 1024

let create rt ?read_timeout ?write_timeout fd =
  if Reactor.is_fibers rt then Unix.set_nonblock fd;
  (* Small pipelined frames over one socket hit the classic Nagle +
     delayed-ACK interaction: a second sub-MSS write stalls until the
     peer ACKs (~40 ms), which shows up directly as RPC tail latency.
     This is a latency-first stack, so disable coalescing on every data
     connection.  Non-TCP fds (Unix-domain sockets) reject the option;
     that is fine. *)
  (try Unix.setsockopt fd Unix.TCP_NODELAY true
   with Unix.Unix_error _ | Invalid_argument _ -> ());
  {
    fd;
    rt;
    rbuf = Bytes.create buf_capacity;
    rpos = 0;
    rlen = 0;
    read_timeout;
    write_timeout;
    last_active = Unix.gettimeofday ();
    closed = Atomic.make false;
    ops = Atomic.make 1;
    fd_closed = Atomic.make false;
    resume = ignore;
    end_held = ignore;
  }

let fd t = t.fd
let is_closed t = Atomic.get t.closed
let last_active t = t.last_active

(* Drop one reference; the last one out actually closes the fd.  The
   [fd_closed] CAS keeps a late arrival (an [enter] that raced past a
   completed close) from issuing a second [Unix.close] that could hit a
   reused descriptor number. *)
let release t =
  if
    Atomic.fetch_and_add t.ops (-1) = 1
    && Atomic.compare_and_set t.fd_closed false true
  then begin
    (* The fd number is about to be reusable: drop any fault-plane
       blackout window so a freshly accepted connection that lands on
       the same number does not inherit it. *)
    Fault.forget_fd (Reactor.fault t.rt) t.fd;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

(* Pin the fd for one operation.  The incr-then-check order means a
   concurrent [close] either sees our reference (and leaves the fd open
   until we [release]) or we see its [closed] flag and back out. *)
let enter t =
  Atomic.incr t.ops;
  if Atomic.get t.closed then begin
    release t;
    raise Net.Closed
  end

let close t =
  if Atomic.compare_and_set t.closed false true then begin
    (* [close] alone does not wake a blocked reader on Linux; [shutdown]
       does, and it also makes fiber-mode parked waiters fail fast
       (reads return EOF / the next poll pass flags the fd).  The descriptor
       itself stays open until in-flight operations release it. *)
    (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error ((Unix.ENOTCONN | Unix.ENOTSOCK | Unix.EBADF | Unix.EINVAL), _, _) ->
       ());
    (* A held reader has no read to wake; end it so its pin goes. *)
    t.end_held ();
    release t
  end

let deadline_of = function None -> None | Some s -> Some (Unix.gettimeofday () +. s)

(* Kernel operations consult the reactor's fault plane from inside the
   [exec] closure handed to {!Reactor.run_io}, so an injected verdict
   applies wherever the operation actually runs — the eager inline
   attempt or the pump.  An injected error is raised as the genuine
   [Unix.Unix_error], so it flows through exactly the handlers a
   kernel-reported one would (injected [EAGAIN] in particular forces the
   real park/submit path); a [Short] verdict clamps the byte count
   (framing code must tolerate fragmentation).  A [Delay] cannot sleep
   where [exec] runs — the pump has no fiber to suspend — so it raises
   {!Injected_delay}, which the operation loop catches back on the fiber
   to sleep and retry; [owed] then replays the already-drawn verdict so
   the decision stream advances exactly once per delayed operation,
   keeping the fault schedule seed-replayable. *)
exception Injected_delay of float

let draw_or_owed owed draw =
  match !owed with
  | Some v ->
      owed := None;
      v
  | None -> draw ()

let apply_verdict owed op v k =
  match v with
  | Fault.Delay d ->
      owed := Some Fault.Pass;
      raise (Injected_delay d)
  | Fault.Fail e -> raise (Unix.Unix_error (e, op, "injected"))
  | (Fault.Pass | Fault.Short _) as v -> k v

let clamp len = function Fault.Short cap -> min len (max 1 cap) | _ -> len

(* One kernel read into [buf].  Returns 0 at EOF (and treats a reset
   peer as EOF — for a server, a client that vanished is
   indistinguishable from one that hung up). *)
let read_once t buf pos len =
  enter t;
  Fun.protect ~finally:(fun () -> release t) @@ fun () ->
  let deadline = deadline_of t.read_timeout in
  let owed = ref None in
  let exec () =
    let v = draw_or_owed owed (fun () -> Fault.on_read (Reactor.fault t.rt) t.fd) in
    apply_verdict owed "read" v (fun v -> Unix.read t.fd buf pos (clamp len v))
  in
  let rec go () =
    match Reactor.run_io t.rt ?deadline `Readable t.fd ~exec with
    | n ->
        t.last_active <- Unix.gettimeofday ();
        n
    | exception Injected_delay d ->
        Reactor.sleep t.rt d;
        go ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> 0
    (* An EBADF after a concurrent [close] (reaper, listener shutdown) —
       whether from the inline attempt or a parked intent the reactor
       failed — is this connection ending, not a reactor bug. *)
    | exception Unix.Unix_error (Unix.EBADF, _, _) when Atomic.get t.closed -> raise Net.Closed
  in
  go ()

let refill t =
  let n = read_once t t.rbuf 0 buf_capacity in
  t.rpos <- 0;
  t.rlen <- n;
  n

let read t buf pos len =
  if t.rpos < t.rlen then begin
    let n = min len (t.rlen - t.rpos) in
    Bytes.blit t.rbuf t.rpos buf pos n;
    t.rpos <- t.rpos + n;
    n
  end
  else if len >= buf_capacity then read_once t buf pos len
  else
    let n = refill t in
    if n = 0 then 0
    else begin
      let k = min len n in
      Bytes.blit t.rbuf 0 buf pos k;
      t.rpos <- k;
      k
    end

let read_exactly t buf len =
  let rec go pos =
    if pos < len then begin
      let n = read t buf pos (len - pos) in
      if n = 0 then raise End_of_file;
      go (pos + n)
    end
  in
  go 0

(* --- the reader: pump-side in fiber mode, a task otherwise ---

   One persistent read intent per connection.  Its [run] executes in
   the reactor pump whenever the descriptor turns readable: one kernel
   read into [rbuf], the bytes handed to [on_data] right there, and
   [`Again], so {!Io} re-arms the intent without waking anything.  A
   reply or a request therefore completes where the readiness is
   observed, not in a fiber that first has to be scheduled.

   It keeps every contract of {!read}:
   - the fd is pinned ([enter]) for the whole registration and released
     when the reader ends, so [Unix.close] waits for it;
   - each kernel read draws one fault verdict.  [Short] clamps the read,
     an injected error is raised as the genuine [Unix_error], and a
     [Delay] ends the current intent and re-submits a fresh one from the
     reactor's timer, with the owed verdict replayed;
   - [read_timeout] is a cancellable timer that races the intent.  It is
     re-armed lazily: when it fires before [read_timeout] has passed
     since the last chunk, it re-adds itself for the new deadline, which
     costs one heap operation per timeout period instead of one per
     chunk;
   - EOF, a reset peer and a closed handle end the reader like [read]'s
     0 and [Net.Closed].

   The hold: [on_data] raising [Hold] ends the current intent like a
   delay does, but nothing re-arms it until [resume_reader].  A resume
   that lands before the pump has recorded the hold sets [wake], and the
   hold re-arms at once.  A held reader still pins the fd and is not
   waiting on the peer, so its deadline restarts on every watch and at
   the resume; [close] ends it.

   [r_mu] serializes only the rare transitions (delay re-submission,
   hold, deadline, end) between the pump, timer callbacks and resuming
   tasks, which may run on different workers; the per-chunk path takes
   no lock.  Lock order is [r_mu] before the reactor's own mutex
   (through {!Io.cancel}); {!Io} calls [run] and completion callbacks
   without holding it. *)

exception Hold

type reader = {
  conn : t;
  io : Lhws_runtime.Io.t;
  timer : Lhws_runtime.Timer.t;
  on_data : Bytes.t -> int -> int -> unit;
  on_end : exn option -> unit;
  r_owed : Fault.verdict option ref;
  r_mu : Mutex.t;
  mutable current : Lhws_runtime.Io.intent option;  (* [None] while a delay or a hold has it *)
  mutable deadline_passed : bool;
  mutable ended : bool;
  mutable th : Lhws_runtime.Timer.handle option;  (* the read_timeout watch *)
  mutable last_chunk : float;
  mutable held : bool;
  mutable wake : bool;  (* a resume overtook the hold it answers *)
}

let reader_end r e =
  Mutex.lock r.r_mu;
  let first = not r.ended in
  r.ended <- true;
  let th = r.th in
  r.th <- None;
  Mutex.unlock r.r_mu;
  if first then begin
    Option.iter (Lhws_runtime.Timer.cancel r.timer) th;
    release r.conn;
    r.on_end e
  end

let reader_run r () =
  let t = r.conn in
  Lhws_runtime.Io.count_syscall r.io;
  let v = draw_or_owed r.r_owed (fun () -> Fault.on_read (Reactor.fault t.rt) t.fd) in
  match
    apply_verdict r.r_owed "read" v (fun v -> Unix.read t.fd t.rbuf 0 (clamp buf_capacity v))
  with
  | 0 -> `Done
  | n ->
      let now = Unix.gettimeofday () in
      t.last_active <- now;
      r.last_chunk <- now;
      r.on_data t.rbuf 0 n;
      `Again
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> `Again

let rec reader_arm r =
  Mutex.lock r.r_mu;
  if r.ended then Mutex.unlock r.r_mu
  else if r.deadline_passed then begin
    Mutex.unlock r.r_mu;
    reader_end r (Some Net.Timeout)
  end
  else begin
    r.current <-
      Some
        (Lhws_runtime.Io.submit r.io ~kind:`R ~fd:r.conn.fd ~run:(reader_run r)
           (reader_done r));
    Mutex.unlock r.r_mu
  end

and reader_done r outcome =
  match outcome with
  | Lhws_runtime.Io.Complete -> reader_end r None
  | Lhws_runtime.Io.Cancelled -> reader_end r (Some Net.Timeout)
  | Lhws_runtime.Io.Error Hold ->
      Mutex.lock r.r_mu;
      r.current <- None;
      let wake = r.wake in
      r.wake <- false;
      r.held <- not wake;
      Mutex.unlock r.r_mu;
      if wake then reader_arm r
  | Lhws_runtime.Io.Error (Injected_delay d) ->
      Mutex.lock r.r_mu;
      r.current <- None;
      Mutex.unlock r.r_mu;
      Lhws_runtime.Timer.add r.timer ~deadline:(Unix.gettimeofday () +. d) (fun () ->
          reader_arm r)
  | Lhws_runtime.Io.Error (Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _)) ->
      reader_end r None
  | Lhws_runtime.Io.Error (Unix.Unix_error (Unix.EBADF, _, _)) when Atomic.get r.conn.closed
    ->
      reader_end r (Some Net.Closed)
  | Lhws_runtime.Io.Error e -> reader_end r (Some e)

let reader_resume r () =
  Mutex.lock r.r_mu;
  let held = r.held in
  r.held <- false;
  r.wake <- not held;
  r.last_chunk <- Unix.gettimeofday ();
  Mutex.unlock r.r_mu;
  if held then reader_arm r

(* Claims the hold under [r_mu], so a racing resume cannot re-arm an
   intent on a descriptor whose pin is about to go. *)
let reader_end_held r () =
  Mutex.lock r.r_mu;
  let held = r.held in
  r.held <- false;
  Mutex.unlock r.r_mu;
  if held then reader_end r (Some Net.Closed)

(* The deadline watch.  Once it passes, [deadline_passed] stays set, so
   whichever way the current intent ends — claimed here, [Cancelled] by
   the pump, or an injected delay whose re-arm finds the flag — the
   reader ends with [Net.Timeout]. *)
let rec reader_watch r timeout =
  r.th <-
    Some
      (Lhws_runtime.Timer.add_cancellable r.timer ~deadline:(r.last_chunk +. timeout)
         (fun () -> reader_deadline r timeout))

and reader_deadline r timeout =
  Mutex.lock r.r_mu;
  if r.ended then Mutex.unlock r.r_mu
  else if r.held || Unix.gettimeofday () < r.last_chunk +. timeout then begin
    if r.held then r.last_chunk <- Unix.gettimeofday ();
    reader_watch r timeout;
    Mutex.unlock r.r_mu
  end
  else begin
    r.th <- None;
    r.deadline_passed <- true;
    let claimed =
      match r.current with Some w -> Lhws_runtime.Io.cancel r.io w | None -> false
    in
    Mutex.unlock r.r_mu;
    if claimed then reader_end r (Some Net.Timeout)
  end

(* On a blocking reactor there is no pump: a task loops [read_once]
   into the same buffer and ends the same way.  A hold ends the task,
   and the resume starts a fresh one through [spawn]: the old task
   touches nothing after [on_data] raised, so the two never overlap,
   and a held reader pins nothing. *)
let read_task t ~on_data ~on_end () =
  let rec loop () =
    match read_once t t.rbuf 0 buf_capacity with
    | 0 -> Some None
    | n -> ( match on_data t.rbuf 0 n with () -> loop () | exception Hold -> None)
  in
  match loop () with
  | Some e -> on_end e
  | None -> ()
  | exception e -> on_end (Some e)

let start_reader t ~spawn ~on_data ~on_end =
  if t.rpos < t.rlen then invalid_arg "Conn.start_reader: bytes already buffered";
  match Reactor.fiber_io t.rt with
  | None ->
      t.resume <- (fun () -> spawn (read_task t ~on_data ~on_end));
      t.resume ()
  | Some (io, timer) ->
      enter t;
      let r =
        {
          conn = t;
          io;
          timer;
          on_data;
          on_end;
          r_owed = ref None;
          r_mu = Mutex.create ();
          current = None;
          deadline_passed = false;
          ended = false;
          th = None;
          last_chunk = Unix.gettimeofday ();
          held = false;
          wake = false;
        }
      in
      t.resume <- reader_resume r;
      t.end_held <- reader_end_held r;
      Option.iter
        (fun s ->
          Mutex.lock r.r_mu;
          reader_watch r s;
          Mutex.unlock r.r_mu)
        t.read_timeout;
      reader_arm r

let resume_reader t = t.resume ()

(* The shared engine under [write_all] / [writev_all]: drive the vector
   through the kernel until empty.  One logical operation draws one fault
   verdict per kernel attempt, but an injected short-write storm is
   counted once per logical op ([short_seen]) — a storm that fragments a
   big buffer into hundreds of 1-byte writes would otherwise swamp the
   chaos accounting with retry noise. *)
let writev_all t iovs =
  enter t;
  Fun.protect ~finally:(fun () -> release t) @@ fun () ->
  let deadline = deadline_of t.write_timeout in
  let rem = ref iovs in
  let owed = ref None in
  let short_seen = ref false in
  let exec () =
    let v =
      draw_or_owed owed (fun () ->
          let v =
            Fault.on_write ~count_short:(not !short_seen) (Reactor.fault t.rt) t.fd
          in
          (match v with Fault.Short _ -> short_seen := true | _ -> ());
          v)
    in
    (* Fiber mode set the descriptor non-blocking in [create], so its
       writes take the copy-free writev. *)
    let nonblocking = Reactor.is_fibers t.rt in
    apply_verdict owed "write" v (fun v ->
        match v with
        | Fault.Short cap -> Iov.write ~nonblocking t.fd (Iov.take !rem (max 1 cap))
        | _ -> Iov.write ~nonblocking t.fd !rem)
  in
  let rec go () =
    if Iov.length !rem > 0 then
      match Reactor.run_io t.rt ?deadline `Writable t.fd ~exec with
      | n ->
          t.last_active <- Unix.gettimeofday ();
          rem := Iov.drop !rem n;
          go ()
      | exception Injected_delay d ->
          Reactor.sleep t.rt d;
          go ()
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          (* The stream is broken mid-write: close the connection so
             readers parked on it (ours and, via the FIN, the peer's)
             find out, instead of waiting on bytes that already sank. *)
          close t;
          raise Net.Closed
      | exception Unix.Unix_error (Unix.EBADF, _, _) when Atomic.get t.closed -> raise Net.Closed
  in
  go ()

let write_all t buf = writev_all t [ buf ]
