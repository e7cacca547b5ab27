module Promise = Lhws_runtime.Promise

(* Writers must not poll (sleep and re-check): a few hundred pollers
   behind one slow frame make enough timer wake-ups to keep every
   worker busy, and the task that would fill the gap then waits unrun at
   the old end of a deque — the connection never recovers. *)

type entry = { iov : Bytes.t list; sent : unit Promise.t; close_after : bool }

type t = {
  conn : Conn.t;
  await : unit Promise.t -> unit;
  mu : Mutex.t;  (* guards [ready] + [next_send]; never held across I/O *)
  ready : (int, entry) Hashtbl.t;
  mutable next_send : int;
  next_seq : int Atomic.t;
  flushing : bool Atomic.t;  (* thread-agnostic: holder may park mid-writev *)
}

let create ~await conn =
  {
    conn;
    await;
    mu = Mutex.create ();
    ready = Hashtbl.create 16;
    next_send = 0;
    next_seq = Atomic.make 0;
    flushing = Atomic.make false;
  }

let reserve ob = Atomic.fetch_and_add ob.next_seq 1

(* Writes the ready run that starts at [next_send], if any. *)
let flush ob =
  Mutex.lock ob.mu;
  let rec collect acc n =
    match Hashtbl.find_opt ob.ready n with
    | Some e ->
        Hashtbl.remove ob.ready n;
        collect (e :: acc) (n + 1)
    | None -> (List.rev acc, n)
  in
  let batch, n' = collect [] ob.next_send in
  ob.next_send <- n';
  Mutex.unlock ob.mu;
  if batch <> [] then
    match Conn.writev_all ob.conn (List.concat_map (fun e -> e.iov) batch) with
    | () ->
        List.iter (fun e -> Promise.fulfill e.sent (Ok ())) batch;
        (* [close_after] takes effect only after the bytes are out;
           anything sequenced after it fails with Net.Closed on the
           next pass. *)
        if List.exists (fun e -> e.close_after) batch then Conn.close ob.conn
    | exception ex ->
        List.iter (fun e -> Promise.fulfill e.sent (Error ex)) batch;
        Conn.close ob.conn

let next_is_ready ob =
  Mutex.lock ob.mu;
  let ready = Hashtbl.mem ob.ready ob.next_send in
  Mutex.unlock ob.mu;
  ready

(* Flush if nobody else is.  A writer that finds the flag taken leaves
   its entry to the holder, so the holder looks once more after putting
   the flag down: an entry inserted during its write, whose writer saw
   the flag still up, is flushed then instead of being stranded. *)
let rec try_flush ob =
  if Atomic.compare_and_set ob.flushing false true then begin
    (match flush ob with
    | () -> Atomic.set ob.flushing false
    | exception ex ->
        Atomic.set ob.flushing false;
        raise ex);
    if next_is_ready ob then try_flush ob
  end

let deliver ob e =
  try_flush ob;
  ob.await e.sent

let send_at ob ~seq ?(close_after = false) iov =
  let e = { iov; sent = Promise.create (); close_after } in
  Mutex.lock ob.mu;
  Hashtbl.replace ob.ready seq e;
  Mutex.unlock ob.mu;
  deliver ob e

let send ob iov =
  let e = { iov; sent = Promise.create (); close_after = false } in
  Mutex.lock ob.mu;
  Hashtbl.replace ob.ready (reserve ob) e;
  Mutex.unlock ob.mu;
  deliver ob e

(* A count with at most one waiter.  The waiter publishes a one-shot
   promise in [waiter] and only then re-reads the count; a [decr] moves
   the count and only then looks at [waiter].  Both orders are
   sequentially consistent atomics, so either the waiter's re-read sees
   the new count or the decrement sees the promise: a wake-up is never
   lost.  Whichever side takes the promise out of the slot fulfils it,
   so it is fulfilled at most once. *)
module Counter = struct
  type t = { n : int Atomic.t; waiter : unit Promise.t option Atomic.t }

  let create () = { n = Atomic.make 0; waiter = Atomic.make None }
  let get t = Atomic.get t.n
  let incr t = Atomic.incr t.n

  let wake t =
    match Atomic.exchange t.waiter None with
    | Some p -> Promise.fulfill p (Ok ())
    | None -> ()

  let decr t =
    Atomic.decr t.n;
    if Option.is_some (Atomic.get t.waiter) then wake t

  let rec wait t ~await ready =
    if not (ready (Atomic.get t.n)) then begin
      let p = Promise.create () in
      let slot = Some p in
      Atomic.set t.waiter slot;
      if ready (Atomic.get t.n) then ignore (Atomic.compare_and_set t.waiter slot None)
      else begin
        await p;
        wait t ~await ready
      end
    end
end
