open Lhws_runtime
module P = Lhws_workloads.Pool_intf
module Net = Lhws_net.Net
module Reactor = Lhws_net.Reactor
module Conn = Lhws_net.Conn
module Listener = Lhws_net.Listener
module Rpc = Lhws_net.Rpc
module Load = Lhws_net.Load
module Nmr = Lhws_net.Net_map_reduce
module Fault = Lhws_net.Fault

let loopback0 = Unix.ADDR_INET (Unix.inet_addr_loopback, 0)

let with_lhws_net ?(workers = 2) ?fault f =
  Lhws_pool.with_pool ~workers (fun p ->
      let rt =
        Reactor.fibers
          ~register:(fun ~pending ~syscalls poll ->
            Lhws_pool.register_poller p ?pending ?syscalls poll)
          ?fault ()
      in
      f p rt)

let raw_connect addr =
  let fd = Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  (try Unix.connect fd addr
   with e ->
     Unix.close fd;
     raise e);
  fd

(* --- RPC echo under the load generator (fibers) --- *)

let test_rpc_echo_load () =
  with_lhws_net ~workers:2 (fun p rt ->
      let module Pl = P.Lhws_instance in
      let report =
        Pl.run p (fun () ->
            let l = Rpc.serve (module Pl) p rt loopback0 ~handler:Fun.id in
            let r =
              Load.run (module Pl) p rt ~conns:2 ~inflight:4 ~iters:10 (Listener.addr l)
            in
            Listener.shutdown ~grace:2. l;
            r)
      in
      Alcotest.(check int) "no failed calls" 0 report.Load.errors;
      Alcotest.(check int) "all calls issued" 80 report.Load.total;
      Alcotest.(check bool) "p99 >= p50" true (report.Load.p99_us >= report.Load.p50_us))

(* --- concurrent large frames: writers must survive parking mid-write.
       512 KiB frames overflow loopback socket buffers, so the fiber
       holding the frame-write lock parks on EAGAIN and resumes on
       whichever worker steals it — an OS mutex held across that park
       would be unlocked from the wrong thread and wedge the
       connection. --- *)

(* The same frames on the blocking path: the outbox's waiting writers
   block (thread pool) or help (WS pool) instead of suspending.  The
   client half needs a demux of its own, so on the helping WS pool it
   runs on the thread pool — a WS helper could bury the demux loop. *)
let large_concurrent_echo (type s c) (module S : P.POOL with type t = s) (sp : s) srt
    (module C : P.POOL with type t = c) (cp : c) crt =
  let size = 512 * 1024 in
  let k = 8 in
  S.run sp (fun () ->
      let l = Rpc.serve (module S) sp srt loopback0 ~handler:Fun.id in
      let client = Rpc.Client.connect (module C) cp crt (Listener.addr l) in
      let payload i = Bytes.make size (Char.chr (Char.code 'a' + i)) in
      let tasks =
        List.init k (fun i ->
            C.async cp (fun () ->
                let resp = C.await cp (Rpc.Client.call client (payload i)) in
                Bytes.equal resp (payload i)))
      in
      let ok = List.for_all (fun t -> C.await cp t) tasks in
      Rpc.Client.close client;
      Listener.shutdown ~grace:5. l;
      ok)

let test_rpc_large_concurrent_writes () =
  let check what ok = Alcotest.(check bool) (what ^ ": large frames all echo intact") true ok in
  with_lhws_net ~workers:4 (fun p rt ->
      let module Pl = P.Lhws_instance in
      check "lhws fibers" (large_concurrent_echo (module Pl) p rt (module Pl) p rt));
  let module Pt = P.Threaded_instance in
  let module Pw = P.Ws_instance in
  let tp = Pt.create () in
  Fun.protect
    ~finally:(fun () -> Pt.shutdown tp)
    (fun () ->
      let rt = Reactor.blocking () in
      check "threads blocking" (large_concurrent_echo (module Pt) tp rt (module Pt) tp rt);
      Ws_pool.with_pool ~workers:4 (fun wp ->
          check "ws blocking" (large_concurrent_echo (module Pw) wp rt (module Pt) tp rt)))

(* --- queued writers wait, they do not poll: 32 calls of 256 KiB queue
       behind a flush parked on a full socket (the server reads nothing
       for 100 ms).  Writers that sleep 200 us and re-check cost
       thousands of suspensions here (about 6 000 measured); waiting
       ones suspend about once each. --- *)

let test_rpc_queued_writes_do_not_poll () =
  with_lhws_net ~workers:2 (fun p rt ->
      let module Pl = P.Lhws_instance in
      Pl.run p (fun () ->
          let l =
            Listener.serve (module Pl) p rt loopback0 ~handler:(fun conn ->
                Pl.sleep p 0.1;
                Rpc.serve_handler (module Pl) p ~handler:Fun.id conn)
          in
          let client = Rpc.Client.connect (module Pl) p rt (Listener.addr l) in
          let payload i = Bytes.make (256 * 1024) (Char.chr (Char.code 'a' + (i mod 26))) in
          let before = (Pl.stats p).Scheduler_core.suspensions in
          let calls =
            List.init 32 (fun i ->
                Pl.async p (fun () -> Pl.await p (Rpc.Client.call client (payload i))))
          in
          let replies = List.map (Pl.await p) calls in
          let suspensions = (Pl.stats p).Scheduler_core.suspensions - before in
          Alcotest.(check bool) "every reply intact" true
            (List.for_all2 Bytes.equal replies (List.init 32 payload));
          Alcotest.(check bool)
            (Printf.sprintf "%d suspensions while 32 writes queued" suspensions)
            true (suspensions < 2000);
          Rpc.Client.close client;
          Listener.shutdown ~grace:2. l))

(* --- handler exceptions travel back as Remote_error --- *)

let test_rpc_remote_error () =
  with_lhws_net (fun p rt ->
      let module Pl = P.Lhws_instance in
      let got =
        Pl.run p (fun () ->
            let l = Rpc.serve (module Pl) p rt loopback0 ~handler:(fun _ -> failwith "boom") in
            let client = Rpc.Client.connect (module Pl) p rt (Listener.addr l) in
            let got =
              match Pl.await p (Rpc.Client.call client (Bytes.of_string "x")) with
              | (_ : bytes) -> "ok"
              | exception Net.Remote_error msg ->
                  if Astring.String.is_infix ~affix:"boom" msg then "remote" else msg
            in
            Rpc.Client.close client;
            Listener.shutdown ~grace:2. l;
            got)
      in
      Alcotest.(check string) "handler failure surfaced" "remote" got)

(* --- a reply resolves its call where its readiness is seen ---

   Both workers run chains of short tasks for 50 ms, each task spawning
   its successor before it spins, so neither worker's active deque ever
   runs dry and neither steals.  The chains are submitted from the
   server's domain while the pool is idle, so each starts on a fresh
   deque: whatever deque a reply-reading fiber is homed on is only
   ready, never active, and would not run again until a chain ends.  The
   reply must resolve its call within a few ms of leaving the server
   anyway — the pump, which runs between tasks, reads and resolves it. *)

let listening_socket () =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind fd loopback0;
  Unix.listen fd 8;
  fd

let really_read fd buf len =
  let rec go pos =
    if pos < len then
      match Unix.read fd buf pos (len - pos) with
      | 0 -> raise End_of_file
      | n -> go (pos + n)
  in
  go 0

let test_rpc_reply_resolves_while_busy () =
  let now = Unix.gettimeofday in
  let lfd = listening_socket () in
  let sent_at = Atomic.make 0. in
  let chain_until = Atomic.make infinity in
  with_lhws_net ~workers:2 (fun p rt ->
      let module Pl = P.Lhws_instance in
      let rec chain () =
        if now () < Atomic.get chain_until then begin
          ignore (Pl.async p chain : unit Promise.t);
          let t = now () +. 0.0002 in
          while now () < t do
            Domain.cpu_relax ()
          done
        end
      in
      (* A raw Rpc peer: one request in, one response out. *)
      let server =
        Domain.spawn (fun () ->
            let fd, _ = Unix.accept ~cloexec:true lfd in
            let hdr = Bytes.create 12 in
            really_read fd hdr 12;
            let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
            really_read fd (Bytes.create len) len;
            Unix.sleepf 0.005;  (* the caller sleeps; the pool is idle *)
            Atomic.set chain_until (now () +. 0.05);
            Lhws_pool.submit p chain;
            Lhws_pool.submit p chain;
            Unix.sleepf 0.005;
            let resp = Bytes.create 15 in
            Bytes.set_int32_be resp 0 2l;
            Bytes.blit hdr 4 resp 4 8;
            Bytes.set_uint8 resp 12 0;
            Bytes.blit_string "ok" 0 resp 13 2;
            ignore (Unix.write fd resp 0 15 : int);
            Atomic.set sent_at (now ());
            (try really_read fd (Bytes.create 1) 1 with End_of_file | Unix.Unix_error _ -> ());
            Unix.close fd)
      in
      let reply, resolved =
        Pl.run p (fun () ->
            let c = Rpc.Client.connect (module Pl) p rt (Unix.getsockname lfd) in
            let pr = Rpc.Client.call c (Bytes.of_string "x") in
            let resolved = Atomic.make 0. in
            if not (Promise.add_waiter pr (fun () -> Atomic.set resolved (now ()))) then
              Atomic.set resolved (now ());
            Pl.sleep p 0.1;
            let reply = Bytes.to_string (Pl.await p pr) in
            Rpc.Client.close c;
            (reply, Atomic.get resolved))
      in
      Domain.join server;
      Unix.close lfd;
      let lag = resolved -. Atomic.get sent_at in
      Alcotest.(check string) "reply" "ok" reply;
      Alcotest.(check bool)
        (Printf.sprintf "resolved %.2f ms after the send, workers busy" (lag *. 1e3))
        true (lag < 0.005))

(* --- Client ?read_timeout bounds each wait for a reply chunk, not the
       client's life --- *)

let test_rpc_read_timeout_silent_server () =
  (* Connections queue in the backlog and are never accepted: requests
     go out, nothing ever comes back. *)
  let lfd = listening_socket () in
  with_lhws_net (fun p rt ->
      let module Pl = P.Lhws_instance in
      let outcome, waited =
        Pl.run p (fun () ->
            let c =
              Rpc.Client.connect (module Pl) p rt ~read_timeout:0.1 (Unix.getsockname lfd)
            in
            let t0 = Unix.gettimeofday () in
            let calls = List.init 3 (fun _ -> Rpc.Client.call c (Bytes.of_string "x")) in
            let outcome =
              List.map
                (fun pr ->
                  match Pl.await p pr with
                  | _ -> "answered"
                  | exception Net.Closed -> "closed"
                  | exception e -> Printexc.to_string e)
                calls
            in
            let waited = Unix.gettimeofday () -. t0 in
            Rpc.Client.close c;
            (outcome, waited))
      in
      Unix.close lfd;
      Alcotest.(check (list string)) "every pending call fails Closed"
        [ "closed"; "closed"; "closed" ] outcome;
      Alcotest.(check bool)
        (Printf.sprintf "failed after %.0f ms (read_timeout 100 ms)" (waited *. 1e3))
        true
        (waited >= 0.08 && waited < 1.))

let test_rpc_read_timeout_slow_server () =
  (* Each reply takes 50 ms, under the 150 ms read_timeout; six in a row
     take twice the timeout, and the client must survive them all. *)
  with_lhws_net (fun p rt ->
      let module Pl = P.Lhws_instance in
      let replies, took =
        Pl.run p (fun () ->
            let l =
              Rpc.serve (module Pl) p rt loopback0 ~handler:(fun b ->
                  Pl.sleep p 0.05;
                  b)
            in
            let c = Rpc.Client.connect (module Pl) p rt ~read_timeout:0.15 (Listener.addr l) in
            let t0 = Unix.gettimeofday () in
            let replies =
              List.init 6 (fun i ->
                  let b = Bytes.of_string (string_of_int i) in
                  Bytes.equal b (Pl.await p (Rpc.Client.call c b)))
            in
            let took = Unix.gettimeofday () -. t0 in
            Rpc.Client.close c;
            Listener.shutdown ~grace:2. l;
            (replies, took))
      in
      Alcotest.(check (list bool)) "every slow reply arrives" (List.init 6 (fun _ -> true))
        replies;
      Alcotest.(check bool)
        (Printf.sprintf "the whole wait (%.0f ms) outlasts read_timeout" (took *. 1e3))
        true (took > 0.15))

(* --- per-operation deadlines --- *)

let test_conn_deadline_fibers () =
  with_lhws_net (fun p rt ->
      let module Pl = P.Lhws_instance in
      let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let outcome, conn =
        Pl.run p (fun () ->
            let c = Conn.create rt ~read_timeout:0.05 a in
            let buf = Bytes.create 1 in
            let o =
              match Conn.read c buf 0 1 with
              | _ -> "read"
              | exception Net.Timeout -> "timeout"
            in
            (o, c))
      in
      Conn.close conn;
      Unix.close b;
      Alcotest.(check string) "fiber read deadline" "timeout" outcome)

let test_conn_deadline_blocking () =
  (* Blocking mode needs no pool at all: the deadline is poll's timeout. *)
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rt = Reactor.blocking () in
  let c = Conn.create rt ~read_timeout:0.05 a in
  let buf = Bytes.create 1 in
  let outcome =
    match Conn.read c buf 0 1 with _ -> "read" | exception Net.Timeout -> "timeout"
  in
  Conn.close c;
  Unix.close b;
  Alcotest.(check string) "blocking read deadline" "timeout" outcome

(* --- close while a reader is parked: shutdown must wake it, and the
       deferred [Unix.close] (refcounted against in-flight ops) must
       still release the descriptor once the reader unwinds --- *)

let test_close_while_parked_no_leak () =
  let count_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let before = count_fds () in
  with_lhws_net ~workers:2 (fun p rt ->
      let module Pl = P.Lhws_instance in
      let outcome =
        Pl.run p (fun () ->
            let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            let c = Conn.create rt a in
            let reader =
              Pl.async p (fun () ->
                  let buf = Bytes.create 1 in
                  match Conn.read c buf 0 1 with
                  | 0 -> "eof"
                  | _ -> "data"
                  | exception Net.Closed -> "closed")
            in
            Pl.sleep p 0.02;  (* let the reader park in the reactor *)
            Conn.close c;
            let o = Pl.await p reader in
            Unix.close b;
            o)
      in
      Alcotest.(check bool) "parked reader woken by close" true
        (outcome = "eof" || outcome = "closed"));
  Alcotest.(check int) "descriptor released after drain" before (count_fds ())

(* --- graceful shutdown waits for the in-flight response --- *)

let test_graceful_drain () =
  with_lhws_net ~workers:4 (fun p rt ->
      let module Pl = P.Lhws_instance in
      let started = Atomic.make false in
      let resp, live_after =
        Pl.run p (fun () ->
            let l =
              Rpc.serve (module Pl) p rt loopback0
                ~handler:(fun b ->
                  Atomic.set started true;
                  Pl.sleep p 0.15;
                  b)
            in
            let client = Rpc.Client.connect (module Pl) p rt (Listener.addr l) in
            let call = Rpc.Client.call client (Bytes.of_string "ping") in
            while not (Atomic.get started) do
              Pl.sleep p 0.005
            done;
            (* shut down while the handler is mid-request: the drain must
               let its response out before the listener dies *)
            let sd = Pl.async p (fun () -> Listener.shutdown ~grace:5. l) in
            let resp = Bytes.to_string (Pl.await p call) in
            Rpc.Client.close client;
            Pl.await p sd;
            (resp, Listener.live l))
      in
      Alcotest.(check string) "in-flight response delivered" "ping" resp;
      Alcotest.(check int) "all handlers drained" 0 live_after)

(* --- the max_conns gate waits for a handler to exit, it does not poll:
       over 100 ms at the gate a polling acceptor suspends about 200
       times (one per 0.5 ms); a waiting one about once. --- *)

let test_listener_gate_waits () =
  with_lhws_net ~workers:2 (fun p rt ->
      let module Pl = P.Lhws_instance in
      Pl.run p (fun () ->
          let config = { Listener.default_config with max_conns = 1 } in
          (* Greet with one byte, then hold the connection until EOF. *)
          let l =
            Listener.serve (module Pl) p rt ~config loopback0 ~handler:(fun c ->
                Conn.write_all c (Bytes.of_string "x");
                let b = Bytes.create 1 in
                while Conn.read c b 0 1 > 0 do
                  ()
                done)
          in
          let greeted fd =
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.;
            let b = Bytes.create 1 in
            match Unix.read fd b 0 1 with
            | 1 -> Bytes.get b 0 = 'x'
            | _ -> false
            | exception Unix.Unix_error _ -> false
          in
          let first = raw_connect (Listener.addr l) in
          Alcotest.(check bool) "first connection served" true (greeted first);
          let before = (Pl.stats p).Scheduler_core.suspensions in
          Pl.sleep p 0.1;
          let suspensions = (Pl.stats p).Scheduler_core.suspensions - before in
          Alcotest.(check bool)
            (Printf.sprintf "%d suspensions in 100 ms at the gate" suspensions)
            true (suspensions <= 10);
          let second = raw_connect (Listener.addr l) in
          Unix.close first;
          Alcotest.(check bool) "second connection served once the first closed" true
            (greeted second);
          Unix.close second;
          Listener.shutdown ~grace:2. l))

(* --- idle connections are reaped --- *)

let test_idle_reap () =
  with_lhws_net ~workers:2 (fun p rt ->
      let module Pl = P.Lhws_instance in
      let reaped =
        Pl.run p (fun () ->
            let config =
              { Listener.default_config with idle_timeout = Some 0.05; reap_interval = 0.01 }
            in
            let l =
              Listener.serve (module Pl) p rt ~config loopback0
                ~handler:(fun c ->
                  let b = Bytes.create 1 in
                  ignore (Conn.read c b 0 1 : int))
            in
            (* connect, then go silent: the reaper must close us *)
            let fd = raw_connect (Listener.addr l) in
            while Listener.live l < 1 do
              Pl.sleep p 0.005
            done;
            let rec wait_reap n =
              if Listener.live l = 0 then true
              else if n > 400 then false
              else begin
                Pl.sleep p 0.01;
                wait_reap (n + 1)
              end
            in
            let reaped = wait_reap 0 in
            Unix.close fd;
            Listener.shutdown ~grace:2. l;
            reaped)
      in
      Alcotest.(check bool) "idle connection reaped" true reaped)

(* --- the acceptance bar: 500 concurrent connections, graceful
       shutdown, zero leaked descriptors --- *)

let test_many_connections_no_leak () =
  let count_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let before = count_fds () in
  let n = 500 in
  let max_gauge = ref 0 in
  with_lhws_net ~workers:4 (fun p rt ->
      let module Pl = P.Lhws_instance in
      Pl.run p (fun () ->
          let config = { Listener.default_config with max_conns = 600 } in
          let l =
            Rpc.serve (module Pl) p rt ~config loopback0
              ~handler:(fun b ->
                Pl.sleep p 0.08;
                b)
          in
          let addr = Listener.addr l in
          let conns = Array.init n (fun _ -> Conn.create rt (raw_connect addr)) in
          let calls =
            Array.map
              (fun c -> Pl.async p (fun () -> Bytes.to_string (Rpc.call_sync c (Bytes.of_string "m"))))
              conns
          in
          (* sample the io_pending gauge while the fleet is parked *)
          for _ = 1 to 120 do
            max_gauge := max !max_gauge (Pl.stats p).Scheduler_core.io_pending;
            Pl.sleep p 0.001
          done;
          Array.iter (fun t -> Alcotest.(check string) "echoed" "m" (Pl.await p t)) calls;
          Alcotest.(check int) "every connection accepted" n (Listener.accepted l);
          Array.iter Conn.close conns;
          Listener.shutdown ~grace:5. l;
          Alcotest.(check int) "all handlers drained" 0 (Listener.live l)));
  let after = count_fds () in
  Alcotest.(check int) "zero leaked fds" before after;
  Alcotest.(check bool)
    (Printf.sprintf "io_pending gauge saw the parked fleet (max %d)" !max_gauge)
    true
    (!max_gauge >= n)

(* --- net_map_reduce checksum agreement across pool modes --- *)

let test_net_map_reduce_modes () =
  Nmr.with_data_server ~delta:0. (fun addr ->
      let n = 24 and fib_n = 5 in
      let expect = Nmr.expected ~n ~fib_n in
      with_lhws_net ~workers:2 (fun p rt ->
          let module Pl = P.Lhws_instance in
          let sum =
            Pl.run p (fun () -> Nmr.run (module Pl) p rt ~addr ~n ~conns:2 ~fib_n ())
          in
          Alcotest.(check int) "lhws pipelined checksum" expect sum);
      (let module Pw = P.Ws_instance in
       Ws_pool.with_pool ~workers:2 (fun p ->
           let rt = Reactor.blocking () in
           let sum = Pw.run p (fun () -> Nmr.run (module Pw) p rt ~addr ~n ~conns:2 ~fib_n ()) in
           Alcotest.(check int) "ws blocking checksum" expect sum));
      let module Pt = P.Threaded_instance in
      let p = Pt.create () in
      Fun.protect
        ~finally:(fun () -> Pt.shutdown p)
        (fun () ->
          let rt = Reactor.blocking () in
          let sum = Pt.run p (fun () -> Nmr.run (module Pt) p rt ~addr ~n ~conns:2 ~fib_n ()) in
          Alcotest.(check int) "threads blocking checksum" expect sum))

(* --- Rpc.serve decoding request frames from a raw-socket peer ---

   Each script goes out whole and byte by byte, on a fiber and on a
   blocking reactor, under a seeded fault plane (CHAOS_SEED) that
   splits reads and delays them.  Replies leave in completion order,
   so a case's replies compare sorted. *)

let req_frame id payload =
  let b = Bytes.create (12 + String.length payload) in
  Bytes.set_int32_be b 0 (Int32.of_int (String.length payload));
  Bytes.set_int64_be b 4 (Int64.of_int id);
  Bytes.blit_string payload 0 b 12 (String.length payload);
  Bytes.to_string b

(* "id:status:payload" rows of a reply stream; a torn tail shows. *)
let render_frames s =
  let rec go acc i =
    if i = String.length s then List.sort compare acc
    else if String.length s - i < 13 then List.sort compare (("torn " ^ string_of_int i) :: acc)
    else
      let b = Bytes.unsafe_of_string s in
      let len = Int32.to_int (Bytes.get_int32_be b i) in
      let id = Int64.to_int (Bytes.get_int64_be b (i + 4)) in
      let status = Bytes.get_uint8 b (i + 12) in
      let len = min len (String.length s - i - 13) in
      go (Printf.sprintf "%d:%d:%s" id status (String.sub s (i + 13) len) :: acc) (i + 13 + len)
  in
  go [] 0

(* (name, what the peer sends, whether it then half-closes, the replies).
   A peer that does not half-close waits for the server to end the
   connection: a bad frame length, or the read deadline. *)
let rpc_server_cases =
  let bad_len =
    let b = Bytes.create 12 in
    Bytes.set_int32_be b 0 (Int32.of_int (Rpc.max_frame + 1));
    Bytes.set_int64_be b 4 9L;
    Bytes.to_string b
  in
  [
    ("one frame", req_frame 1 "hello", true, [ "1:0:hello" ]);
    ( "pipelined burst, empty payload included",
      String.concat "" (List.map (fun i -> req_frame i (String.make i 'x')) [ 0; 1; 2; 3; 4 ]),
      true,
      [ "0:0:"; "1:0:x"; "2:0:xx"; "3:0:xxx"; "4:0:xxxx" ] );
    ("EOF mid-frame", req_frame 1 "ok" ^ String.sub (req_frame 2 "xx") 0 7, true, [ "1:0:ok" ]);
    ("frame length out of range", req_frame 1 "ok" ^ bad_len ^ req_frame 2 "never", false, [ "1:0:ok" ]);
    ("stall mid-frame", req_frame 1 "ok" ^ String.sub (req_frame 2 "xx") 0 13, false, [ "1:0:ok" ]);
  ]

let run_rpc_server_cases (type p) (module Pl : P.POOL with type t = p) (p : p) rt ~label =
  let config = { Listener.default_config with read_timeout = Some 0.15 } in
  let rows =
    Pl.run p (fun () ->
        let l = Rpc.serve (module Pl) p rt ~config loopback0 ~handler:Fun.id in
        let rows =
          List.concat_map
            (fun bytewise ->
              List.map
                (fun (name, script, half_close, expect) ->
                  let got = Atomic.make None in
                  let peer =
                    Domain.spawn (fun () ->
                        let fd = raw_connect (Listener.addr l) in
                        let n = String.length script in
                        let piece = if bytewise then 1 else n in
                        let rec put off =
                          if off < n then
                            put (off + Unix.write_substring fd script off (min piece (n - off)))
                        in
                        (* A server that has already closed on a bad frame
                           resets the rest of the script. *)
                        (try put 0
                         with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
                        if half_close then Unix.shutdown fd Unix.SHUTDOWN_SEND;
                        let b = Buffer.create 64 and chunk = Bytes.create 4096 in
                        let rec slurp () =
                          match Unix.read fd chunk 0 4096 with
                          | 0 -> ()
                          | k ->
                              Buffer.add_subbytes b chunk 0 k;
                              slurp ()
                          | exception Unix.Unix_error _ -> ()
                        in
                        slurp ();
                        Unix.close fd;
                        Atomic.set got (Some (Buffer.contents b)))
                  in
                  let rec wait i =
                    if Atomic.get got = None && i < 1000 then begin
                      Pl.sleep p 0.005;
                      wait (i + 1)
                    end
                  in
                  wait 0;
                  Domain.join peer;
                  let row outcomes =
                    Printf.sprintf "%s, %s: %s" name
                      (if bytewise then "bytewise" else "whole")
                      (String.concat " | " outcomes)
                  in
                  ( row expect,
                    row
                      (match Atomic.get got with
                      | Some a -> render_frames a
                      | None -> [ "peer stuck" ]) ))
                rpc_server_cases)
            [ false; true ]
        in
        Listener.shutdown ~grace:2. l;
        rows)
  in
  Alcotest.(check (list string)) label (List.map fst rows) (List.map snd rows)

let rpc_server_fault () =
  let seed =
    match Sys.getenv_opt "CHAOS_SEED" with Some s -> int_of_string s | None -> 0x59c
  in
  ( seed,
    Fault.create
      {
        (Fault.storm ~seed ~rate:0.0 ()) with
        Fault.p_short = 0.3;
        p_eagain = 0.05;
        p_delay = 0.05;
        delay_s = 0.001;
      } )

let check_injected fault =
  let inj = Fault.injected fault in
  Alcotest.(check bool)
    (Printf.sprintf "short reads and delays injected (%d, %d)" inj.shorts inj.delays)
    true
    (inj.shorts > 0 && inj.delays > 0)

let test_rpc_server_decoding_lhws () =
  let count_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let before = count_fds () in
  let seed, fault = rpc_server_fault () in
  with_lhws_net ~workers:2 ~fault (fun p rt ->
      run_rpc_server_cases (module P.Lhws_instance) p rt
        ~label:(Printf.sprintf "lhws fibers (seed %#x)" seed);
      Alcotest.(check int) "io_pending gauge drained" 0
        (P.Lhws_instance.stats p).Scheduler_core.io_pending);
  check_injected fault;
  Alcotest.(check int) "no descriptor leaked" before (count_fds ())

let test_rpc_server_decoding_threads () =
  let count_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let before = count_fds () in
  let seed, fault = rpc_server_fault () in
  let module Pt = P.Threaded_instance in
  let tp = Pt.create () in
  Fun.protect
    ~finally:(fun () -> Pt.shutdown tp)
    (fun () ->
      run_rpc_server_cases (module Pt) tp (Reactor.blocking ~fault ())
        ~label:(Printf.sprintf "threads blocking (seed %#x)" seed));
  check_injected fault;
  Alcotest.(check int) "no descriptor leaked" before (count_fds ())

(* --- the reader's hold: after [on_data] raises [Hold] nothing more is
       read until [resume_reader], and [close] ends a held reader in
       fiber mode, releasing its descriptor --- *)

let test_conn_reader_hold () =
  let count_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let before = count_fds () in
  with_lhws_net (fun p rt ->
      let module Pl = P.Lhws_instance in
      let chunks, ended =
        Pl.run p (fun () ->
            let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            let c = Conn.create rt a in
            let chunks = ref [] and ended = Promise.create () in
            Conn.start_reader c
              ~spawn:(fun f -> ignore (Pl.async p f : unit Promise.t))
              ~on_data:(fun buf pos len ->
                chunks := Bytes.sub_string buf pos len :: !chunks;
                raise Conn.Hold)
              ~on_end:(fun e -> Promise.fulfill ended (Ok e));
            let send s = ignore (Unix.write_substring b s 0 (String.length s) : int) in
            send "x";
            Pl.sleep p 0.02;
            send "y";
            Pl.sleep p 0.02;
            let held = List.rev !chunks in
            Conn.resume_reader c;
            Pl.sleep p 0.02;
            let resumed = List.rev !chunks in
            Conn.close c;
            let e = Pl.await p ended in
            Unix.close b;
            ( [ String.concat "," held; String.concat "," resumed ],
              match e with Some Net.Closed -> "closed" | _ -> "other" ))
      in
      Alcotest.(check (list string)) "nothing read while held" [ "x"; "x,y" ] chunks;
      Alcotest.(check string) "close ends the held reader" "closed" ended;
      Alcotest.(check int) "io_pending gauge drained" 0
        (Pl.stats p).Scheduler_core.io_pending);
  Alcotest.(check int) "descriptor released" before (count_fds ())

let () =
  Alcotest.run "net"
    [
      ( "rpc",
        [
          Alcotest.test_case "echo under load" `Quick test_rpc_echo_load;
          Alcotest.test_case "large concurrent frames" `Quick test_rpc_large_concurrent_writes;
          Alcotest.test_case "remote error" `Quick test_rpc_remote_error;
          Alcotest.test_case "queued writes do not poll" `Quick
            test_rpc_queued_writes_do_not_poll;
          Alcotest.test_case "reply resolves while its home worker stays busy" `Quick
            test_rpc_reply_resolves_while_busy;
          Alcotest.test_case "read_timeout fails a silent server" `Quick
            test_rpc_read_timeout_silent_server;
          Alcotest.test_case "read_timeout spans slow replies" `Quick
            test_rpc_read_timeout_slow_server;
          Alcotest.test_case "server decoding on lhws fibers" `Quick
            test_rpc_server_decoding_lhws;
          Alcotest.test_case "server decoding on threads blocking" `Quick
            test_rpc_server_decoding_threads;
        ] );
      ( "conn",
        [
          Alcotest.test_case "deadline (fibers)" `Quick test_conn_deadline_fibers;
          Alcotest.test_case "deadline (blocking)" `Quick test_conn_deadline_blocking;
          Alcotest.test_case "close while parked" `Quick test_close_while_parked_no_leak;
          Alcotest.test_case "reader hold" `Quick test_conn_reader_hold;
        ] );
      ( "listener",
        [
          Alcotest.test_case "graceful drain" `Quick test_graceful_drain;
          Alcotest.test_case "idle reap" `Quick test_idle_reap;
          Alcotest.test_case "500 conns, no fd leak" `Quick test_many_connections_no_leak;
          Alcotest.test_case "max_conns gate waits" `Quick test_listener_gate_waits;
        ] );
      ( "workload",
        [ Alcotest.test_case "net_map_reduce checksums" `Quick test_net_map_reduce_modes ] );
    ]
