module Pool_intf = Lhws_workloads.Pool_intf
module Promise = Lhws_runtime.Promise

(* --- circuit breaker --- *)

module Breaker = struct
  type state = Closed | Open | Half_open

  (* All transitions under one mutex: breaker operations are rare (one
     CAS-free lock per call attempt, not per byte) and the state machine
     is much easier to audit than a lock-free encoding.  The critical
     sections never block or allocate on the heap. *)
  type t = {
    failure_threshold : int;
    cooldown : float;
    half_open_probes : int;
    mu : Mutex.t;
    mutable st : state;
    mutable consec_failures : int;  (* while Closed *)
    mutable opened_at : float;  (* while Open *)
    mutable probes : int;  (* in-flight half-open probes *)
    mutable trip_count : int;
  }

  let create ?(failure_threshold = 5) ?(cooldown = 1.0) ?(half_open_probes = 1) () =
    if failure_threshold < 1 then invalid_arg "Breaker.create: failure_threshold < 1";
    if cooldown < 0. then invalid_arg "Breaker.create: negative cooldown";
    if half_open_probes < 1 then invalid_arg "Breaker.create: half_open_probes < 1";
    {
      failure_threshold;
      cooldown;
      half_open_probes;
      mu = Mutex.create ();
      st = Closed;
      consec_failures = 0;
      opened_at = 0.;
      probes = 0;
      trip_count = 0;
    }

  let locked b f =
    Mutex.lock b.mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock b.mu) f

  (* Open -> Half_open when the cooldown has elapsed.  Called with the
     lock held; both [allow] and [state] go through it so a passive
     observer sees the same state a caller would act on. *)
  let refresh b =
    if b.st = Open && Unix.gettimeofday () -. b.opened_at >= b.cooldown then begin
      b.st <- Half_open;
      b.probes <- 0
    end

  let state b =
    locked b (fun () ->
        refresh b;
        b.st)

  let allow b =
    locked b (fun () ->
        refresh b;
        match b.st with
        | Closed -> true
        | Open -> false
        | Half_open ->
            if b.probes < b.half_open_probes then begin
              b.probes <- b.probes + 1;
              true
            end
            else false)

  let trip b =
    b.st <- Open;
    b.opened_at <- Unix.gettimeofday ();
    b.trip_count <- b.trip_count + 1

  let on_success b =
    locked b (fun () ->
        match b.st with
        | Closed -> b.consec_failures <- 0
        | Half_open ->
            (* One good probe is evidence enough: close and start clean. *)
            b.st <- Closed;
            b.consec_failures <- 0;
            b.probes <- 0
        | Open -> ())

  let on_failure b =
    locked b (fun () ->
        match b.st with
        | Closed ->
            b.consec_failures <- b.consec_failures + 1;
            if b.consec_failures >= b.failure_threshold then trip b
        | Half_open -> trip b  (* the probe failed: back to cooldown *)
        | Open -> ())

  let failures b = locked b (fun () -> b.consec_failures)
  let trips b = locked b (fun () -> b.trip_count)
end

(* --- retry --- *)

module Retry = struct
  type policy = {
    max_attempts : int;
    base_backoff : float;
    max_backoff : float;
    budget : float option;
    seed : int;
    retryable : exn -> bool;
  }

  let default_retryable = function
    | Net.Timeout | Net.Closed | Net.Peer_closed | End_of_file -> true
    | Unix.Unix_error
        ( ( Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.ECONNABORTED | Unix.EPIPE
          | Unix.ETIMEDOUT | Unix.EHOSTUNREACH | Unix.ENETUNREACH | Unix.ENETDOWN
          | Unix.ENETRESET | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR ),
          _,
          _ ) ->
        true
    | _ -> false

  let policy ?(max_attempts = 4) ?(base_backoff = 0.001) ?(max_backoff = 0.1) ?budget
      ?(seed = 0) ?(retryable = default_retryable) () =
    if max_attempts < 1 then invalid_arg "Retry.policy: max_attempts < 1";
    if base_backoff < 0. || max_backoff < base_backoff then
      invalid_arg "Retry.policy: bad backoff range";
    { max_attempts; base_backoff; max_backoff; budget; seed; retryable }

  let no_retry = policy ~max_attempts:1 ()

  (* Same splitmix64-style mixing as the fault plane, so a seeded policy
     replays its jitter schedule the way a seeded fault config replays
     its fault schedule.  The per-process nonce decorrelates concurrent
     calls sharing one policy — without it every in-flight call would
     draw the identical backoff for attempt i and the retries would
     stampede in lockstep, which is the failure mode jitter exists to
     break. *)
  let mix64 z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let nonce_counter = Atomic.make 0

  let uniform ~seed ~nonce ~attempt =
    let h =
      mix64
        (Int64.logxor
           (Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L)
           (Int64.logxor
              (Int64.mul (Int64.of_int nonce) 0xBF58476D1CE4E5B9L)
              (Int64.mul (Int64.of_int (attempt + 1)) 0x94D049BB133111EBL)))
    in
    Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.

  let run ~sleep ?breaker p f =
    let nonce = Atomic.fetch_and_add nonce_counter 1 in
    let deadline =
      match p.budget with
      | None -> infinity
      | Some b -> Unix.gettimeofday () +. b
    in
    let report ok =
      match breaker with
      | None -> ()
      | Some b -> if ok then Breaker.on_success b else Breaker.on_failure b
    in
    let rec attempt i prev_backoff =
      (match breaker with
      | Some b when not (Breaker.allow b) -> raise Net.Circuit_open
      | _ -> ());
      match f i with
      | v ->
          report true;
          v
      | exception e ->
          let retryable = p.retryable e in
          (* Non-retryable failures (Remote_error, Protocol_error,
             caller bugs) say nothing about endpoint health, so they
             neither trip nor reset the breaker. *)
          if retryable then report false;
          let remaining = deadline -. Unix.gettimeofday () in
          if (not retryable) || i + 1 >= p.max_attempts || remaining <= 0. then raise e
          else begin
            (* Decorrelated jitter: U(base, 3*prev) capped, never past
               the budget — the budget races the per-op deadlines inside
               [f]; the backoff must not be what overruns it. *)
            let hi =
              Float.min p.max_backoff (Float.max p.base_backoff (prev_backoff *. 3.))
            in
            let u = uniform ~seed:p.seed ~nonce ~attempt:i in
            let d = p.base_backoff +. (u *. (hi -. p.base_backoff)) in
            let d = Float.min d remaining in
            if d > 0. then sleep d;
            if Unix.gettimeofday () >= deadline then raise e else attempt (i + 1) d
          end
    in
    attempt 0 p.base_backoff

  let call (type p) (module P : Pool_intf.POOL with type t = p) (pool : p) ?breaker
      policy f =
    run ~sleep:(fun d -> P.sleep pool d) ?breaker policy f
end

(* --- shared dial helper --- *)

let dial rt ?read_timeout ?write_timeout addr =
  let fd = Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  (try Unix.connect fd addr
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  Conn.create rt ?read_timeout ?write_timeout fd

(* --- reconnecting pipelined client --- *)

module Client = struct
  type 'p inner = {
    pool_sleep : float -> unit;
    rt : Reactor.t;
    addr : Unix.sockaddr;
    policy : Retry.policy;
    breaker : Breaker.t option;
    read_timeout : float option;
    write_timeout : float option;
    (* Single flight: the first caller to find the slot empty installs
       a promise and dials; later callers await that promise.  A failed
       dial clears the slot before it fulfils [Error], so the retry that
       follows dials afresh. *)
    slot : Rpc.Client.t Promise.t option Atomic.t;
    reconnect_count : int Atomic.t;
    dialed_once : bool Atomic.t;
    closed : bool Atomic.t;
  }

  type t = C : (module Pool_intf.POOL with type t = 'p) * 'p * 'p inner -> t

  let create (type p) (module P : Pool_intf.POOL with type t = p) (pool : p) rt
      ?(policy = Retry.policy ()) ?breaker ?read_timeout ?write_timeout addr =
    C
      ( (module P),
        pool,
        {
          pool_sleep = (fun d -> P.sleep pool d);
          rt;
          addr;
          policy;
          breaker;
          read_timeout;
          write_timeout;
          slot = Atomic.make None;
          reconnect_count = Atomic.make 0;
          dialed_once = Atomic.make false;
          closed = Atomic.make false;
        } )

  (* Reuse the live connection or dial a fresh one.  Dial failures
     (ECONNREFUSED and friends) escape to the retry loop as ordinary
     retryable attempt failures.  The dialer re-reads [closed] after
     publishing its promise and [close] empties the slot after setting
     [closed], so either the dialer sees the close and gives up, or
     [close] finds the promise and closes what it yields. *)
  let acquire_client (type p) (module P : Pool_intf.POOL with type t = p) (pool : p) st
      =
    let rec go () =
      if Atomic.get st.closed then raise Net.Closed;
      match Atomic.get st.slot with
      | Some p -> P.await pool p
      | None ->
          let p = Promise.create () in
          let slot = Some p in
          if not (Atomic.compare_and_set st.slot None slot) then go ()
          else
            let give_up e =
              ignore (Atomic.compare_and_set st.slot slot None);
              Promise.fulfill p (Error e);
              raise e
            in
            if Atomic.get st.closed then give_up Net.Closed;
            match
              Rpc.Client.connect (module P) pool st.rt ?read_timeout:st.read_timeout
                ?write_timeout:st.write_timeout st.addr
            with
            | exception e -> give_up e
            | cl ->
                if Atomic.get st.dialed_once then Atomic.incr st.reconnect_count
                else Atomic.set st.dialed_once true;
                Promise.fulfill p (Ok cl);
                cl
    in
    go ()

  (* The connection just failed a call: drop it so the next attempt
     dials fresh.  The slot is cleared only while it still holds [cl],
     so concurrent failures on the same client drop it once, and a
     client installed by a faster retry survives. *)
  let drop_client st cl =
    (match Atomic.get st.slot with
    | Some p as cur -> (
        match Promise.poll p with
        | Some (Ok c) when c == cl -> ignore (Atomic.compare_and_set st.slot cur None)
        | _ -> ())
    | None -> ());
    Rpc.Client.close cl

  let call (C ((module P), pool, st)) payload =
    if Atomic.get st.closed then raise Net.Closed;
    Retry.run ~sleep:st.pool_sleep ?breaker:st.breaker st.policy (fun _attempt ->
        let cl = acquire_client (module P) pool st in
        match P.await pool (Rpc.Client.call cl payload) with
        | v -> v
        | exception e ->
            if st.policy.Retry.retryable e then drop_client st cl;
            raise e)

  let close (C ((module P), pool, st)) =
    if Atomic.compare_and_set st.closed false true then
      match Atomic.exchange st.slot None with
      | Some p -> (
          match P.await pool p with
          | cl -> Rpc.Client.close cl
          | exception _ -> ())
      | None -> ()

  let reconnects (C (_, _, st)) = Atomic.get st.reconnect_count
end

(* --- reconnecting synchronous client (blocking baselines) --- *)

module Sync_client = struct
  type t = {
    rt : Reactor.t;
    addr : Unix.sockaddr;
    policy : Retry.policy;
    breaker : Breaker.t option;
    read_timeout : float option;
    write_timeout : float option;
    mutable cur : Conn.t option;
    mutable reconnect_count : int;
    mutable dialed_once : bool;
    mutable closed : bool;
  }

  let create rt ?(policy = Retry.policy ()) ?breaker ?read_timeout ?write_timeout addr
      =
    {
      rt;
      addr;
      policy;
      breaker;
      read_timeout;
      write_timeout;
      cur = None;
      reconnect_count = 0;
      dialed_once = false;
      closed = false;
    }

  let acquire c =
    match c.cur with
    | Some conn -> conn
    | None ->
        let conn = dial c.rt ?read_timeout:c.read_timeout ?write_timeout:c.write_timeout c.addr in
        if c.dialed_once then c.reconnect_count <- c.reconnect_count + 1
        else c.dialed_once <- true;
        c.cur <- Some conn;
        conn

  let drop c =
    match c.cur with
    | None -> ()
    | Some conn ->
        c.cur <- None;
        Conn.close conn

  let call c payload =
    if c.closed then raise Net.Closed;
    (* Blocking cost model throughout: the backoff occupies the calling
       worker, exactly like the I/O it paces. *)
    Retry.run ~sleep:(fun d -> Reactor.sleep c.rt d) ?breaker:c.breaker c.policy
      (fun _attempt ->
        let conn = acquire c in
        match Rpc.call_sync conn payload with
        | v -> v
        | exception e ->
            if c.policy.Retry.retryable e then drop c;
            raise e)

  let close c =
    if not c.closed then begin
      c.closed <- true;
      drop c
    end

  let reconnects c = c.reconnect_count
end
