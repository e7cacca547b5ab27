module Pool_intf = Lhws_workloads.Pool_intf

(* [mu] guards the decoder, [held], [spawned] and the step loop: the
   pump, reading tasks and finishing tasks all take it, never across
   I/O or a wait.  Tasks spawned under it are dispatched once it is
   released ([locked]): a dispatcher may block — a thread pool at its
   cap waits for a thread to retire — and the retiring task needs [mu]
   to finish.  [held] is set and cleared under it, so each hold is
   answered by one resume.  [stopped] is fulfilled once, under [mu],
   and the connection task waits on it before it waits for the count:
   a wait on the count alone would be woken by every finishing task. *)

type t = {
  conn : Conn.t;
  mu : Mutex.t;
  outstanding : Outbox.Counter.t;  (* tasks that owe the peer a reply *)
  max_pipeline : int;
  async : (unit -> unit) -> unit;
  step : t -> [ `Next | `Need | `Stop ];
  mutable held : bool;
  mutable spawned : (((unit -> unit) -> unit) * (unit -> unit)) list;  (* newest first *)
  stopped : unit Lhws_runtime.Promise.t;  (* no more decoding *)
}

exception Stop

(* Caller holds [mu]. *)
let stop s =
  if not (Lhws_runtime.Promise.is_resolved s.stopped) then
    Lhws_runtime.Promise.fulfill s.stopped (Ok ())

(* Caller holds [mu]. *)
let rec decode s =
  if Lhws_runtime.Promise.is_resolved s.stopped then `Stop
  else if Outbox.Counter.get s.outstanding >= s.max_pipeline then `Hold
  else
    match s.step s with
    | `Next -> decode s
    | `Need -> `Need
    | `Stop ->
        stop s;
        `Stop

(* Releases [mu], then dispatches what was spawned under it, in order. *)
let unlock s =
  let spawned = s.spawned in
  s.spawned <- [];
  Mutex.unlock s.mu;
  List.iter (fun (dispatch, task) -> dispatch task) (List.rev spawned)

(* Runs [f] under [mu]. *)
let locked s f =
  Mutex.lock s.mu;
  match f () with
  | r ->
      unlock s;
      r
  | exception e ->
      unlock s;
      raise e

(* Caller holds [mu]. *)
let rec spawn s ?(dispatch = s.async) f =
  Outbox.Counter.incr s.outstanding;
  s.spawned <- (dispatch, fun () -> Fun.protect ~finally:(fun () -> finish s) f) :: s.spawned

(* A task has replied.  If that brings a held connection below the
   limit, the buffered requests go first, and the reader reads again
   only if they leave room. *)
and finish s =
  let resume =
    locked s (fun () ->
        Outbox.Counter.decr s.outstanding;
        s.held && Outbox.Counter.get s.outstanding < s.max_pipeline
        && begin
             s.held <- false;
             match decode s with
             | `Need -> true
             | `Hold ->
                 s.held <- true;
                 false
             | `Stop -> false
           end)
  in
  if resume then Conn.resume_reader s.conn

let on_data s feed buf pos len =
  let r =
    locked s (fun () ->
        feed buf pos len;
        let r = decode s in
        if r = `Hold then s.held <- true;
        r)
  in
  match r with `Need -> () | `Hold -> raise Conn.Hold | `Stop -> raise Stop

let on_end s ended e =
  locked s (fun () ->
      if not (Lhws_runtime.Promise.is_resolved s.stopped) then begin
        ended s e;
        stop s
      end)

let serve (type p) (module P : Pool_intf.POOL with type t = p) (pool : p) conn ~max_pipeline
    ~feed ~step ~ended =
  let async f = ignore (P.async pool f : unit Lhws_runtime.Promise.t) in
  let s =
    {
      conn;
      mu = Mutex.create ();
      outstanding = Outbox.Counter.create ();
      max_pipeline;
      async;
      step;
      held = false;
      spawned = [];
      stopped = Lhws_runtime.Promise.create ();
    }
  in
  (* On a blocking reactor this task is the reader, and a resume reads
     in the task that resumed it: one thread per connection, as a
     blocking server costs, not two. *)
  Conn.start_reader conn
    ~spawn:(fun read -> read ())
    ~on_data:(on_data s feed) ~on_end:(on_end s ended);
  (* The listener closes the connection once this returns: every task
     that owes a reply must have written it. *)
  P.await pool s.stopped;
  Outbox.Counter.wait s.outstanding ~await:(P.await pool) (fun n -> n = 0)
