module Pool_intf = Lhws_workloads.Pool_intf

type config = {
  backlog : int;
  max_conns : int;  (* backpressure: stop accepting while [live] is at the gate *)
  shed_above : int option;
      (* overload high-water mark: at/above this many live handlers,
         reject-fast (accept then close immediately) instead of letting
         arrivals queue — see [shed] and the [conns_shed] stats field *)
  shed_pred : (unit -> bool) option;
      (* extra deadline-aware shed signal, ORed with [shed_above]: the
         serving layer reports "my oldest pending request is too old" and
         the acceptor sheds arrivals while the condition holds *)
  idle_timeout : float option;
  read_timeout : float option;
  write_timeout : float option;
  reap_interval : float;
}

let default_config =
  {
    backlog = 128;
    max_conns = 1024;
    shed_above = None;
    shed_pred = None;
    idle_timeout = None;
    read_timeout = None;
    write_timeout = None;
    reap_interval = 0.05;
  }

type state = {
  listen_fd : Unix.file_descr;
  bound : Unix.sockaddr;
  cfg : config;
  rt : Reactor.t;
  stop : bool Atomic.t;
  live : Outbox.Counter.t;
  accepted : int Atomic.t;
  shed : int Atomic.t;
  conns_mu : Mutex.t;
  conns : (int, Conn.t) Hashtbl.t;
  next_id : int Atomic.t;
  acceptor_done : bool Atomic.t;
  reaper_done : bool Atomic.t;
}

type t = L : (module Pool_intf.POOL with type t = 'p) * 'p * state -> t

let conns_snapshot s =
  Mutex.lock s.conns_mu;
  let cs = Hashtbl.fold (fun _ c acc -> c :: acc) s.conns [] in
  Mutex.unlock s.conns_mu;
  cs

let add_conn s id c =
  Mutex.lock s.conns_mu;
  Hashtbl.replace s.conns id c;
  Mutex.unlock s.conns_mu

let remove_conn s id =
  Mutex.lock s.conns_mu;
  Hashtbl.remove s.conns id;
  Mutex.unlock s.conns_mu

(* Accept one connection, or return None once [stop] is observed.  The
   accept is driven through {!Reactor.run_io}: in fiber mode it is tried
   inline (most accepts under load find a queued connection and never
   touch the reactor) and otherwise submitted as an intent the pump
   completes — the accepted descriptor comes back through the
   completion; in blocking mode [accept] occupies the worker and
   shutdown wakes it with a self-connection. *)
let rec accept_one s =
  if Atomic.get s.stop then None
  else
    match
      (* The fault plane can fail the attempt (the pending connection
         stays in the kernel queue; we retry) or delay it. *)
      match Fault.on_accept (Reactor.fault s.rt) with
      | Fault.Fail e -> raise (Unix.Unix_error (e, "accept", "injected"))
      | Fault.Delay d ->
          Reactor.sleep s.rt d;
          Reactor.run_io s.rt `Readable s.listen_fd ~exec:(fun () ->
              Unix.accept ~cloexec:true s.listen_fd)
      | Fault.Pass | Fault.Short _ ->
          Reactor.run_io s.rt `Readable s.listen_fd ~exec:(fun () ->
              Unix.accept ~cloexec:true s.listen_fd)
    with
    | fd, _ ->
        if Atomic.get s.stop then begin
          (* Likely the shutdown wake-up connection; drop it. *)
          (try Unix.close fd with Unix.Unix_error _ -> ());
          None
        end
        else Some fd
    | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> accept_one s
    | exception Unix.Unix_error _ when Atomic.get s.stop -> None

let serve (type p) (module P : Pool_intf.POOL with type t = p) (pool : p) rt
    ?(config = default_config) ?dispatch addr ~handler =
  (* [dispatch] routes each connection's handler task; the default keeps
     it on the serving pool.  A topology passes its latency class's
     dispatcher here so batch work sharing the process never queues
     ahead of connection handling.  The acceptor and reaper always stay
     on the serving pool — they are this listener's control plane. *)
  let dispatch =
    match dispatch with
    | Some d -> d
    | None -> fun f -> ignore (P.async pool f : unit Lhws_runtime.Promise.t)
  in
  let listen_fd = Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
     Unix.bind listen_fd addr;
     Unix.listen listen_fd config.backlog;
     if Reactor.is_fibers rt then Unix.set_nonblock listen_fd
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise e);
  let s =
    {
      listen_fd;
      bound = Unix.getsockname listen_fd;
      cfg = config;
      rt;
      stop = Atomic.make false;
      live = Outbox.Counter.create ();
      accepted = Atomic.make 0;
      shed = Atomic.make 0;
      conns_mu = Mutex.create ();
      conns = Hashtbl.create 64;
      next_id = Atomic.make 0;
      acceptor_done = Atomic.make false;
      reaper_done = Atomic.make (config.idle_timeout = None);
    }
  in
  let spawn_handler fd =
    let c = Conn.create rt ?read_timeout:config.read_timeout ?write_timeout:config.write_timeout fd in
    let id = Atomic.fetch_and_add s.next_id 1 in
    Outbox.Counter.incr s.live;
    Atomic.incr s.accepted;
    add_conn s id c;
    dispatch (fun () ->
        Fun.protect
          ~finally:(fun () ->
            remove_conn s id;
            Conn.close c;
            Outbox.Counter.decr s.live)
          (fun () ->
            try handler c
            with Net.Closed | Net.Timeout | Net.Peer_closed | End_of_file -> ()))
  in
  (* Overload shedding: at or above the high-water mark, keep accepting
     but close each arrival immediately — the client gets a prompt EOF
     (and can back off or go elsewhere) instead of sitting unanswered in
     a queue that only grows.  Without a mark, the [max_conns] gate
     holds arrivals in the kernel backlog as before. *)
  let shed_now () =
    (match config.shed_above with
    | Some hw -> Outbox.Counter.get s.live >= hw
    | None -> false)
    || (match config.shed_pred with Some pred -> pred () | None -> false)
  in
  (* At the [max_conns] gate the acceptor waits for a handler's exit (or
     for [shutdown]) to wake it.  [shed_pred] is re-read only on those
     wake-ups, so arrivals that come while the gate is shut wait in the
     backlog until the next exit even if the predicate turns true. *)
  let rec accept_loop () =
    Outbox.Counter.wait s.live ~await:(P.await pool) (fun live ->
        live < config.max_conns || Atomic.get s.stop || shed_now ());
    if Atomic.get s.stop then ()
    else
      match accept_one s with
      | None -> ()
      | Some fd ->
          (* Re-check at the moment of decision: [live] may have moved
             while the acceptor was parked. *)
          if shed_now () then begin
            Atomic.incr s.shed;
            (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
            (try Unix.close fd with Unix.Unix_error _ -> ())
          end
          else spawn_handler fd;
          accept_loop ()
  in
  P.register_shed_counter pool (fun () -> Atomic.get s.shed);
  ignore
    (P.async pool (fun () ->
         Fun.protect
           ~finally:(fun () -> Atomic.set s.acceptor_done true)
           accept_loop));
  (match config.idle_timeout with
  | None -> ()
  | Some idle ->
      let rec reap_loop () =
        if Atomic.get s.stop then ()
        else begin
          P.sleep pool config.reap_interval;
          let now = Unix.gettimeofday () in
          List.iter
            (fun c -> if now -. Conn.last_active c > idle then Conn.close c)
            (conns_snapshot s);
          reap_loop ()
        end
      in
      ignore
        (P.async pool (fun () ->
             Fun.protect ~finally:(fun () -> Atomic.set s.reaper_done true) reap_loop)));
  L ((module P), pool, s)

let addr (L (_, _, s)) = s.bound
let live (L (_, _, s)) = Outbox.Counter.get s.live
let accepted (L (_, _, s)) = Atomic.get s.accepted
let shed (L (_, _, s)) = Atomic.get s.shed

(* Nudge a parked or blocked acceptor: it cannot be interrupted, but a
   connection to our own listen address makes [accept] return, after
   which it observes [stop] and exits. *)
let wake_acceptor s =
  match Unix.socket ~cloexec:true (Unix.domain_of_sockaddr s.bound) Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.connect fd s.bound with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())

let shutdown ?(grace = 5.) (L ((module P), pool, s)) =
  if Atomic.compare_and_set s.stop false true then begin
    let tick = 0.002 in
    Outbox.Counter.wake s.live;
    wake_acceptor s;
    while not (Atomic.get s.acceptor_done && Atomic.get s.reaper_done) do
      P.sleep pool tick
    done;
    (try Unix.close s.listen_fd with Unix.Unix_error _ -> ());
    (* Drain: give in-flight handlers [grace] seconds to finish... *)
    let waited = ref 0. in
    while Outbox.Counter.get s.live > 0 && !waited < grace do
      P.sleep pool tick;
      waited := !waited +. tick
    done;
    (* ...then force the stragglers: closing wakes their parked waits,
       the handler observes Net.Closed / EOF and unwinds. *)
    List.iter Conn.close (conns_snapshot s);
    while Outbox.Counter.get s.live > 0 do
      P.sleep pool tick
    done
  end
