open Lhws_runtime

type mode =
  | Fibers of { io : Io.t; timer : Timer.t }
  | Blocking

type t = { mode : mode; fault : Fault.t option }

(* A write into a peer-closed socket raises EPIPE only if SIGPIPE is not
   delivered first — by default it kills the process.  Every write path
   here handles EPIPE (close the conn, surface Net.Closed), so the signal
   carries no information we want; ignore it once, at reactor creation,
   like any socket-serving runtime.  [try] guards platforms without it. *)
let ignore_sigpipe =
  lazy (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ())

let fibers ~register ?fault ?watchdog () =
  Lazy.force ignore_sigpipe;
  let io = Io.create () in
  let timer = Timer.create () in
  register
    ~pending:(Some (fun () -> Io.pending io))
    ~syscalls:(Some (fun () -> Io.syscalls io))
    (fun () -> Io.poll io);
  register ~pending:None ~syscalls:None (fun () -> Timer.poll timer);
  (* Watchdog sweep rides the same pump as Io.poll.  Registered after it,
     and pollers run last-registered-first, so the sweep tends to run
     before the poll pass — harmless either way: [Io.sweep_stalled]
     drains the submission rings itself before judging intents. *)
  (match watchdog with
  | None -> ()
  | Some wd ->
      Watchdog.attach_io wd io;
      register ~pending:None ~syscalls:None (fun () -> Watchdog.poll wd));
  { mode = Fibers { io; timer }; fault }

let blocking ?fault () =
  Lazy.force ignore_sigpipe;
  { mode = Blocking; fault }

let is_fibers t = match t.mode with Fibers _ -> true | Blocking -> false

let fault t = t.fault

let fiber_io t = match t.mode with Fibers { io; timer } -> Some (io, timer) | Blocking -> None

(* Sleep without holding a worker in fiber mode: park the fiber on the
   reactor's deadline timer (the same one racing I/O waits).  Blocking
   mode just blocks — that is its cost model.  Used by injected-latency
   faults and retry backoff. *)
let sleep t d =
  if d > 0. then
    match t.mode with
    | Blocking -> Unix.sleepf d
    | Fibers { timer; _ } ->
        let deadline = Unix.gettimeofday () +. d in
        Fiber.suspend (fun resume -> Timer.add timer ~deadline resume)

(* Blocking pools park in [poll(2)] itself ({!Io.poll_single}, no
   FD_SETSIZE ceiling); the deadline becomes its timeout, so a
   dead peer still cannot hold a worker forever.  The timeout is rounded
   {e up} to the microsecond: a deadline never fires early with the fd
   unready, and on Linux it is not overshot by more than the wake-up
   latency (elsewhere poll's millisecond granularity still applies). *)
let wait_blocking kind fd ~deadline =
  let kind = match kind with `Readable -> `R | `Writable -> `W in
  let timeout_us () =
    match deadline with
    | None -> -1 (* no deadline: block until ready *)
    | Some d ->
        let left = d -. Unix.gettimeofday () in
        if left <= 0. then 0 else int_of_float (ceil (left *. 1e6))
  in
  let rec go () =
    match Io.poll_single kind fd ~timeout_us:(timeout_us ()) with
    | `Ready -> ()
    | `Interrupted -> go ()
    | `Timeout ->
        if deadline = None then go () (* spurious zero-timeout wake *)
        else if timeout_us () = 0 then raise Net.Timeout
        else go ()
  in
  go ()

(* --- the submission/completion operation driver --- *)

(* Fiber mode: try [exec] inline once (eager completion — most loopback
   operations succeed immediately and never touch the reactor); on
   would-block, submit an intent whose pump-side [run] re-issues [exec]
   directly when the fd turns ready, stashing the result, so the fiber
   wakes with its operation already done.  The park races [deadline]
   through {!Io.cancel}: both the Io completion and the timer callback
   funnel through the reactor's intent-state mutex, so exactly one of
   them resumes the fiber, exactly once.

   Exceptions from [exec] other than EAGAIN/EINTR — kernel errors and
   injected faults alike, whether raised inline or in the pump — re-raise
   in the calling fiber, so call-site handlers see exactly what a plain
   syscall would have thrown. *)
type verdict = Ready | Timed_out | Bad of exn

let run_io_fibers io timer kind fd ~deadline ~exec =
  let ikind = match kind with `Readable -> `R | `Writable -> `W in
  let counted () =
    Io.count_syscall io;
    exec ()
  in
  let park () =
    let res = ref None in
    let verdict = ref Ready in
    let th = ref None in
    Fiber.suspend (fun resume ->
        let rec run () =
          match counted () with
          | v ->
              res := Some v;
              `Done
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> run ()
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
              `Again
        in
        let w =
          Io.submit io ~kind:ikind ~fd ~run (fun o ->
              (match o with
              | Io.Complete -> ()
              | Io.Cancelled -> verdict := Timed_out
              | Io.Error e -> verdict := Bad e);
              resume ())
        in
        match deadline with
        | None -> ()
        | Some d ->
            th :=
              Some
                (Timer.add_cancellable timer ~deadline:d (fun () ->
                     if Io.cancel io w then begin
                       verdict := Timed_out;
                       resume ()
                     end)));
    (* Withdraw the deadline entry when the I/O side won, so waits with
       long timeouts don't pile dead closures into the timer heap.
       Harmless if the timer fired (it removed itself) or is firing (its
       [Io.cancel] lost the race and does nothing). *)
    (match !th with None -> () | Some h -> Timer.cancel timer h);
    match !verdict with
    (* [Complete] only follows a [`Done] run, which stashed the result. *)
    | Ready -> Option.get !res
    | Timed_out -> raise Net.Timeout
    | Bad e -> raise e
  in
  let rec attempt () =
    match counted () with
    | v -> v
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> attempt ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> park ()
  in
  attempt ()

(* Blocking mode keeps the pre-change shape: enforce the deadline up
   front by waiting with a timeout (a blocking op cannot be interrupted
   mid-call), then loop the plain syscall. *)
let run_io_blocking kind fd ~deadline ~exec =
  let rec go () =
    match exec () with
    | v -> v
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        wait_blocking kind fd ~deadline;
        go ()
  in
  if deadline <> None then wait_blocking kind fd ~deadline;
  go ()

let run_io t ?deadline kind fd ~exec =
  match t.mode with
  | Fibers { io; timer } -> run_io_fibers io timer kind fd ~deadline ~exec
  | Blocking -> run_io_blocking kind fd ~deadline ~exec

(* Expose the reactor's I/O counter for benches that want syscalls/op
   without going through a pool's stats plumbing. *)
let io_syscalls t = match t.mode with Fibers { io; _ } -> Io.syscalls io | Blocking -> 0

(* Test-only: see {!Lhws_runtime.Io.chaos_drop_completions}. *)
let chaos_drop_completions t ~every =
  match t.mode with
  | Fibers { io; _ } -> Io.chaos_drop_completions io ~every
  | Blocking -> ()
