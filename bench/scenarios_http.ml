(* HTTP/1.1 serving scenarios: the c10k-class load story.

   The server runs in a forked child process (spawned via
   [Sys.executable_name --http-child ...], see bench/main.ml), for two
   reasons: the descriptor budget — 10k client sockets plus 10k server
   sockets will not fit one process under a 20k RLIMIT_NOFILE — and
   honesty: server and generator share nothing but the loopback wire.

   Two experiments:
   - http_keepalive: plaintext GETs over [conns] keep-alive connections,
     closed-loop, at two scales (1k and 10k connections at full profile),
     served once by a 2-worker latency-hiding pool (every connection a
     fiber parked on fd readiness) and once by the thread-per-task
     blocking baseline (every connection a live OS thread for its whole
     lifetime, plus a thread per request).  req/s and p99 are recorded
     per leg; bench_guard pins both against the committed baseline, and
     at the largest scale the latency-hiding pool must win the tail.
   - http_mixed_topo: a bimodal handler mix on one server — POST /echo
     I/O next to GET /fib/:n compute — riding a two-class topology in
     the child, so the compute route is pinned to the batch micropool
     and the echo route's p99 stays bounded by its own work. *)

module W = Lhws_workloads
module P = W.Pool_intf
module T = W.Topology
module R = Registry
module Reactor = Lhws_net.Reactor
module Http = Lhws_net.Http
module Load = Lhws_net.Load
module Net = Lhws_net.Net
module Conn = Lhws_net.Conn
module Io = Lhws_runtime.Io

(* ---------- the server child ---------- *)

(* One router for every child: the plaintext leg hits /plaintext, the
   mixed leg /echo and /fib/:n.  [dispatch] pins a route's class when
   the child runs a topology. *)
let child_router ?fib_dispatch ?echo_dispatch () =
  Http.Router.create
    [
      Http.Router.route ~meth:"GET" "/plaintext" (fun _ _ ->
          Http.text "Hello, World!");
      Http.Router.route ?dispatch:echo_dispatch ~meth:"POST" "/echo"
        (fun _ req -> Http.response req.Http.body);
      Http.Router.route ?dispatch:fib_dispatch ~meth:"GET" "/fib/:n"
        (fun params _ ->
          let n = int_of_string (List.assoc "n" params) in
          Http.text (string_of_int (W.Fib.seq n)));
    ]

let announce srv =
  let port =
    match Http.addr srv with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  (* stdout carries exactly this line; the parent reads it to find us. *)
  Printf.printf "PORT %d\n%!" port

(* Block until the parent closes our stdin — its end-of-leg signal.
   The blocking variant is for the threaded child, where occupying the
   root task's thread costs nothing. *)
let wait_for_parent () =
  let b = Bytes.create 256 in
  let rec go () =
    match Unix.read Unix.stdin b 0 256 with
    | 0 -> ()
    | _ -> go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* The fiber variant parks the root task on the stdin pipe through the
   reactor.  The whole child lifetime must stay inside one [Pool.run]:
   the calling thread is worker 0, so with [workers:1] nothing runs
   between [run] calls — returning from [run] to wait on the main
   thread deadlocks the pool. *)
let wait_for_parent_fiber rt =
  let c = Conn.create rt Unix.stdin in
  let b = Bytes.create 256 in
  let rec go () = if Conn.read c b 0 256 > 0 then go () in
  try go () with Net.Peer_closed | Net.Closed | End_of_file -> ()

let any_addr = Unix.ADDR_INET (Unix.inet_addr_loopback, 0)

(* 10k simultaneous connects overflow the default 128-deep listen queue:
   the kernel drops the excess SYNs and those clients sit out 1 s+
   retransmit backoffs while the acceptor needs ~80 wake-ups to drain
   the arrivals 128 at a time.  Both child flavors listen with the
   deepest queue the kernel grants (net.core.somaxconn; listen() clamps
   silently), so acceptance takes a handful of backlog drains and the
   measured latencies are service, not SYN retries. *)
let child_config =
  {
    Http.default_config with
    listener =
      { Http.default_config.listener with Lhws_net.Listener.backlog = 10000 };
  }

(* argv after "--http-child": ["lhws"; workers] | ["threads"; max_threads]
   | ["topo"].  Serves until stdin closes, then
   drains and exits. *)
let child_main args =
  ignore (Io.raise_nofile 20000 : int);
  match Array.to_list args with
  | [ "lhws"; workers ] ->
      let workers = int_of_string workers in
      Lhws_runtime.Lhws_pool.with_pool ~workers (fun p ->
          let rt =
            Reactor.fibers
              ~register:(fun ~pending ~syscalls poll ->
                Lhws_runtime.Lhws_pool.register_poller p ?pending ?syscalls poll)
              ()
          in
          let module Pool = P.Lhws_instance in
          Pool.run p (fun () ->
              let srv =
                Http.serve_router (module Pool) p rt ~config:child_config any_addr
                  ~router:(child_router ())
              in
              announce srv;
              wait_for_parent_fiber rt;
              Http.shutdown ~grace:2. srv))
  | [ "threads"; max_threads ] ->
      let max_threads = int_of_string max_threads in
      let p = Lhws_runtime.Threaded_pool.create ~max_threads () in
      Fun.protect
        ~finally:(fun () -> Lhws_runtime.Threaded_pool.shutdown p)
        (fun () ->
          let rt = Reactor.blocking () in
          let module Pool = P.Threaded_instance in
          Pool.run p (fun () ->
              let srv =
                Http.serve_router (module Pool) p rt ~config:child_config any_addr
                  ~router:(child_router ())
              in
              announce srv;
              wait_for_parent ();
              Http.shutdown ~grace:2. srv))
  | [ "topo" ] ->
      T.with_topology ~name:"httpbench"
        [ T.spec ~workers:1 T.Latency; T.spec ~workers:1 T.Batch ]
        (fun topo ->
          Lhws_runtime.Lhws_pool.with_pool ~workers:1 (fun drv ->
              let rt =
                Reactor.fibers
                  ~register:(fun ~pending ~syscalls poll ->
                    Lhws_runtime.Lhws_pool.register_poller drv ?pending
                      ?syscalls poll)
                  ()
              in
              let module Pool = P.Lhws_instance in
              let router =
                child_router
                  ~fib_dispatch:(T.dispatcher topo ~class_:T.Batch)
                  ~echo_dispatch:(T.dispatcher topo ~class_:T.Latency)
                  ()
              in
              Pool.run drv (fun () ->
                  let srv =
                    Http.serve_router (module Pool) drv rt ~config:child_config any_addr ~router
                  in
                  announce srv;
                  wait_for_parent_fiber rt;
                  Http.shutdown ~grace:2. srv)))
  | args ->
      Printf.eprintf "unknown --http-child spec: %s\n"
        (String.concat " " args);
      exit 2

(* ---------- spawning and stopping the child ---------- *)

type child = { pid : int; to_child : Unix.file_descr; addr : Unix.sockaddr }

let spawn_child args =
  (* cloexec on every end: the child must inherit nothing but the 0/1
     dups create_process makes, or it holds the write end of its own
     stdin pipe and can never see the parent's EOF. *)
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe
      (Array.append [| exe; "--http-child" |] args)
      in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  (* First (only) stdout line: "PORT <n>". *)
  let buf = Buffer.create 16 in
  let b = Bytes.create 1 in
  let rec line () =
    match Unix.read out_r b 0 1 with
    | 0 -> failwith "http server child exited before announcing its port"
    | _ ->
        let c = Bytes.get b 0 in
        if c = '\n' then Buffer.contents buf
        else begin
          Buffer.add_char buf c;
          line ()
        end
  in
  let l = line () in
  Unix.close out_r;
  let port = Scanf.sscanf l "PORT %d" Fun.id in
  {
    pid;
    to_child = in_w;
    addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port);
  }

let stop_child c =
  (try Unix.close c.to_child with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] c.pid)

let with_child args f =
  let c = spawn_child args in
  Fun.protect ~finally:(fun () -> stop_child c) (fun () -> f c.addr)

(* The measuring side: the generator always runs on a latency-hiding
   pool (10k client connections need parked fibers too); what varies
   between legs is the server child behind the wire. *)
let with_client_rt f =
  Lhws_runtime.Lhws_pool.with_pool ~workers:2 (fun p ->
      let rt =
        Reactor.fibers
          ~register:(fun ~pending ~syscalls poll ->
            Lhws_runtime.Lhws_pool.register_poller p ?pending ?syscalls poll)
          ()
      in
      f p rt)

let record ~scenario ~pool (r : Load.report) =
  Bench_json.record ~scenario ~pool ~workers:2 ~wall_s:r.Load.wall_s
    ~counters:
      [
        ("requests", r.Load.total);
        ("errors", r.Load.errors);
        ("connect_failures", r.Load.connect_failures);
        ("non_2xx", r.Load.non_2xx);
        ("throughput_rps", int_of_float r.Load.throughput_rps);
        ("p50_us", int_of_float r.Load.p50_us);
        ("p99_us", int_of_float r.Load.p99_us);
        ("mean_us", int_of_float r.Load.mean_us);
        ("max_rounds_behind", r.Load.max_rounds_behind);
        ("slowest_conn_mean_us", int_of_float r.Load.slowest_conn_mean_us);
      ]
    ()

let print_leg name (r : Load.report) =
  Printf.printf
    "  %-10s %8.0f req/s   p50 %8.0f us   p99 %8.0f us   mean %8.0f us   \
     behind %3d   (%d req, %d err, %d non-2xx, %d connect fail)\n\
     %!"
    name r.Load.throughput_rps r.Load.p50_us r.Load.p99_us r.Load.mean_us
    r.Load.max_rounds_behind r.Load.total r.Load.errors r.Load.non_2xx
    r.Load.connect_failures

(* ---------- HTTP1 | plaintext keep-alive at 1k / 10k connections ---------- *)

let keepalive profile =
  R.section
    "HTTP1 | plaintext keep-alive: closed-loop GETs, latency-hiding server vs \
     thread-per-connection blocking server (forked child)";
  ignore (Io.raise_nofile 20000 : int);
  let legs = R.pick profile ~full:[ (1000, 20); (10000, 5) ] ~smoke:[ (64, 15); (256, 8) ] in
  let last_conns = fst (List.nth legs (List.length legs - 1)) in
  List.iter
    (fun (conns, iters) ->
      let run_leg child_args =
        with_child child_args (fun addr ->
            with_client_rt (fun p rt ->
                let module Pool = P.Lhws_instance in
                Pool.run p (fun () ->
                    Load.run_http (module Pool) p rt ~conns ~inflight:1 ~iters
                      ~req:(fun _ -> Load.get "/plaintext")
                      addr)))
      in
      Printf.printf "\n%d keep-alive connections x %d requests each:\n%!" conns
        iters;
      let lhws = run_leg [| "lhws"; "2" |] in
      print_leg "lhws" lhws;
      (* Thread cap: one live thread per connection for the whole leg,
         plus headroom for the per-request handler threads. *)
      let threads = run_leg [| "threads"; string_of_int (conns + 128) |] in
      print_leg "threads" threads;
      (* Every offered request must come back 200 on both servers: the
         blocking baseline is slower, not lossy. *)
      R.expect
        (lhws.Load.errors = 0 && lhws.Load.non_2xx = 0
        && lhws.Load.connect_failures = 0);
      R.expect
        (threads.Load.errors = 0 && threads.Load.non_2xx = 0
        && threads.Load.connect_failures = 0);
      (* The c10k claim: at the largest scale the latency-hiding server
         wins the tail. *)
      if conns = last_conns then R.expect (lhws.Load.p99_us <= threads.Load.p99_us);
      (* The starvation pin: resumes re-enter their home deque newest-first,
         yet no connection may starve, so the tail stays a bounded multiple
         of the mean.  The absolute grace absorbs the connect transient at
         smoke sizes (hundreds of conns dial one acceptor at t=0, so early
         requests of late-accepted connections carry admission latency
         that is not scheduler unfairness); at full c10k scale the mean is
         large and the 3x ratio does the work. *)
      if conns = last_conns then
        R.expect (lhws.Load.p99_us <= (3. *. lhws.Load.mean_us) +. 30_000.);
      record ~scenario:(Printf.sprintf "http_plaintext_c%d" conns) ~pool:"lhws" lhws;
      record ~scenario:(Printf.sprintf "http_plaintext_c%d" conns) ~pool:"threads"
        threads;
      Printf.printf "  p99 threads/lhws: %.2fx   p99/mean lhws: %.2fx\n%!"
        (threads.Load.p99_us /. Float.max 1. lhws.Load.p99_us)
        (lhws.Load.p99_us /. Float.max 1. lhws.Load.mean_us))
    legs

(* ---------- HTTP2 | mixed CPU+I/O handlers on a topology ---------- *)

let mixed profile =
  R.section
    "HTTP2 | mixed handlers, two-class topology in the child: GET /fib/:n \
     pinned to the batch pool, POST /echo on the latency pool";
  ignore (Io.raise_nofile 20000 : int);
  let io_conns = R.pick profile ~full:128 ~smoke:24 in
  let io_iters = R.pick profile ~full:40 ~smoke:10 in
  let cpu_conns = R.pick profile ~full:4 ~smoke:2 in
  let cpu_iters = R.pick profile ~full:25 ~smoke:8 in
  let fib_n = R.pick profile ~full:20 ~smoke:15 in
  let body = Bytes.of_string "mixed-load-echo-payload" in
  let reports =
    with_child [| "topo" |] (fun addr ->
        with_client_rt (fun p rt ->
            let module Pool = P.Lhws_instance in
            Pool.run p (fun () ->
                Load.run_classes (module Pool) p rt
                  ~classes:
                    [
                      Load.http_spec ~conns:io_conns ~inflight:2 ~iters:io_iters
                        ~req:(fun _ ->
                          { Load.meth = "POST"; target = "/echo"; req_body = Some body })
                        "io";
                      Load.http_spec ~conns:cpu_conns ~inflight:2 ~iters:cpu_iters
                        ~req:(fun _ -> Load.get (Printf.sprintf "/fib/%d" fib_n))
                        "cpu";
                    ]
                  addr)))
  in
  let io = List.assoc "io" reports and cpu = List.assoc "cpu" reports in
  Printf.printf "%d echo conns + %d fib(%d) conns, concurrently:\n%!" io_conns
    cpu_conns fib_n;
  print_leg "io/echo" io;
  print_leg "cpu/fib" cpu;
  R.expect (io.Load.errors = 0 && io.Load.non_2xx = 0 && io.Load.connect_failures = 0);
  R.expect (cpu.Load.errors = 0 && cpu.Load.non_2xx = 0 && cpu.Load.connect_failures = 0);
  record ~scenario:"http_mixed_topo" ~pool:"io-latency" io;
  record ~scenario:"http_mixed_topo" ~pool:"cpu-batch" cpu

let register () =
  R.register ~name:"http_keepalive" ~skip_in_quick:true keepalive;
  R.register ~name:"http_mixed_topo" ~skip_in_quick:true mixed
