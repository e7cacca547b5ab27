(* The HTTP serving layer's robustness battery.

   Parser side: the incremental parser must produce byte-identical
   results whether a recorded request stream arrives as one slab,
   byte-at-a-time, or split at random boundaries (seeded, replayable) —
   and malformed input must come back as a typed 4xx/5xx error, never an
   exception, never a hang.

   Server side: keep-alive echo and routing over a real lhws pool,
   pipelined response ordering, 400-close on garbage, 408 on a
   mid-request stall, 503 on shed/drain, and the fd/io_pending hygiene
   checks every net suite here pins.

   Client side: Http.Client against a raw-socket peer, on a fiber and a
   blocking reactor, decoding every response framing whole and byte by
   byte under a seeded fault plane, and resolving a reply while both
   workers are busy. *)

open Lhws_runtime
module P = Lhws_workloads.Pool_intf
module Net = Lhws_net.Net
module Reactor = Lhws_net.Reactor
module Conn = Lhws_net.Conn
module Listener = Lhws_net.Listener
module Http = Lhws_net.Http
module Load = Lhws_net.Load
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

(* Read everything until EOF on a raw blocking socket. *)
let slurp fd =
  let b = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> Buffer.contents b
    | n ->
        Buffer.add_subbytes b chunk 0 n;
        go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Parser: split-invariance property                                   *)
(* ------------------------------------------------------------------ *)

(* Canonical rendering of a parse outcome, so outcomes compare as
   strings and a mismatch prints both sides. *)
let render_request (r : Http.request) =
  Printf.sprintf "%s %s path=%s query=%s v=%s keep=%b hdrs=[%s] body=%S" r.meth
    r.target r.path r.query
    (match r.version with `Http_1_1 -> "1.1" | `Http_1_0 -> "1.0")
    r.keep_alive
    (String.concat "; " (List.map (fun (n, v) -> n ^ "=" ^ v) r.headers))
    (Bytes.to_string r.body)

let drain p =
  let rec go acc =
    match Http.Parser.next p with
    | Http.Parser.Request r -> go (render_request r :: acc)
    | Http.Parser.Need_more -> (List.rev acc, None)
    | Http.Parser.Failed e -> (List.rev acc, Some (e.status, e.reason))
  in
  go []

(* Feed [stream] split at the given cut points, draining after every
   fragment (so intermediate Need_more states are exercised too). *)
let parse_with_cuts stream cuts =
  let p = Http.Parser.create () in
  let bytes = Bytes.of_string stream in
  let n = Bytes.length bytes in
  let reqs = ref [] in
  let err = ref None in
  let feed_seg off len =
    Http.Parser.feed p ~off ~len bytes;
    let rs, e = drain p in
    reqs := !reqs @ rs;
    if !err = None then err := e
  in
  let rec go off = function
    | [] -> if off < n then feed_seg off (n - off)
    | c :: tl ->
        feed_seg off (c - off);
        go c tl
  in
  go 0 (List.sort_uniq compare (List.filter (fun c -> c > 0 && c < n) cuts));
  (!reqs, !err)

let whole stream = parse_with_cuts stream []
let bytewise stream = parse_with_cuts stream (List.init (String.length stream) Fun.id)

let recorded_stream =
  String.concat ""
    [
      "GET /hello?x=1&y=2 HTTP/1.1\r\nHost: t\r\nUser-Agent: battery\r\n\r\n";
      "POST /echo HTTP/1.1\r\nHost: t\r\nContent-Length: 11\r\n\r\nhello world";
      "POST /chunky HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n"
      ^ "4;ext=1\r\nWiki\r\n5\r\npedia\r\n0\r\nX-Trailer: ignored\r\n\r\n";
      "HEAD /stats HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
      "DELETE /last HTTP/1.1\r\nConnection: close\r\n\r\n";
    ]

let test_parser_simple () =
  let reqs, err = whole recorded_stream in
  Alcotest.(check (option (pair int string))) "stream parses clean" None err;
  Alcotest.(check int) "five requests" 5 (List.length reqs);
  let first = List.nth reqs 0 in
  Alcotest.(check bool) "query split" true
    (Astring.String.is_infix ~affix:"path=/hello query=x=1&y=2" first);
  Alcotest.(check bool) "1.1 default keep-alive" true
    (Astring.String.is_infix ~affix:"keep=true" first);
  Alcotest.(check bool) "chunked body reassembled" true
    (Astring.String.is_infix ~affix:"body=\"Wikipedia\"" (List.nth reqs 2));
  Alcotest.(check bool) "1.0 keep-alive opt-in honoured" true
    (Astring.String.is_infix ~affix:"keep=true" (List.nth reqs 3));
  Alcotest.(check bool) "explicit close honoured" true
    (Astring.String.is_infix ~affix:"keep=false" (List.nth reqs 4))

let test_parser_split_invariance () =
  let reference = whole recorded_stream in
  Alcotest.(check (pair (list string) (option (pair int string))))
    "byte-at-a-time delivery parses identically" reference (bytewise recorded_stream);
  let n = String.length recorded_stream in
  for seed = 0 to 19 do
    let st = Random.State.make [| 0xB17E; seed |] in
    let cuts = List.init 12 (fun _ -> 1 + Random.State.int st (n - 1)) in
    Alcotest.(check (pair (list string) (option (pair int string))))
      (Printf.sprintf "random split (seed %d) parses identically" seed)
      reference
      (parse_with_cuts recorded_stream cuts)
  done

let test_parser_malformed () =
  let expect_status what stream status =
    (* Whole-slab and byte-at-a-time must agree on the failure too. *)
    List.iter
      (fun (mode, (reqs, err)) ->
        match err with
        | Some (got, reason) ->
            Alcotest.(check int)
              (Printf.sprintf "%s (%s) fails with %d (got %d: %s, after %d reqs)"
                 what mode status got reason (List.length reqs))
              status got
        | None -> Alcotest.failf "%s (%s): expected status %d, parsed clean" what mode status)
      [ ("whole", whole stream); ("bytewise", bytewise stream) ]
  in
  expect_status "conflicting content-length pair"
    "POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello" 400;
  expect_status "content-length alongside transfer-encoding"
    "POST / HTTP/1.1\r\nContent-Length: 5\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n"
    400;
  expect_status "non-numeric content-length"
    "POST / HTTP/1.1\r\nContent-Length: 5x\r\n\r\n" 400;
  expect_status "bad chunk size"
    "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\nhi\r\n0\r\n\r\n" 400;
  expect_status "chunk data overruns its size"
    "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nhello\r\n0\r\n\r\n" 400;
  expect_status "space before header colon"
    "GET / HTTP/1.1\r\nHost : t\r\n\r\n" 400;
  expect_status "obsolete line folding" "GET / HTTP/1.1\r\nA: b\r\n c\r\n\r\n" 400;
  expect_status "bare CR inside request line" "GET /\rx HTTP/1.1\r\n\r\n" 400;
  expect_status "unsupported transfer coding"
    "POST / HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n" 501;
  expect_status "unsupported protocol version" "GET / HTTP/2.0\r\n\r\n" 505;
  expect_status "garbage request line" "florble blorp\r\n\r\n" 400;
  (* Oversized head: build one bigger than the default 16 KiB limit. *)
  expect_status "oversized header block"
    ("GET / HTTP/1.1\r\nBig: " ^ String.make (17 * 1024) 'x' ^ "\r\n\r\n")
    431;
  (* A poisoned parser stays poisoned. *)
  let p = Http.Parser.create () in
  Http.Parser.feed p (Bytes.of_string "florble\r\n\r\n");
  (match Http.Parser.next p with
  | Http.Parser.Failed _ -> ()
  | _ -> Alcotest.fail "expected Failed");
  Http.Parser.feed p (Bytes.of_string "GET / HTTP/1.1\r\n\r\n");
  match Http.Parser.next p with
  | Http.Parser.Failed _ -> ()
  | _ -> Alcotest.fail "parser must stay failed after poisoning"

let test_parser_limits () =
  let p = Http.Parser.create ~max_body_bytes:8 () in
  Http.Parser.feed p
    (Bytes.of_string "POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789");
  (match Http.Parser.next p with
  | Http.Parser.Failed e -> Alcotest.(check int) "oversized body is 413" 413 e.status
  | _ -> Alcotest.fail "expected 413");
  let p = Http.Parser.create ~max_body_bytes:8 () in
  Http.Parser.feed p
    (Bytes.of_string
       "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n6\r\nabcdef\r\n6\r\nabcdef\r\n0\r\n\r\n");
  match Http.Parser.next p with
  | Http.Parser.Failed e -> Alcotest.(check int) "oversized chunked body is 413" 413 e.status
  | _ -> Alcotest.fail "expected 413 for chunked overrun"

(* ------------------------------------------------------------------ *)
(* Router                                                              *)
(* ------------------------------------------------------------------ *)

let dummy_req ?(meth = "GET") target =
  let p = Http.Parser.create () in
  Http.Parser.feed p (Bytes.of_string (meth ^ " " ^ target ^ " HTTP/1.1\r\n\r\n"));
  match Http.Parser.next p with
  | Http.Parser.Request r -> r
  | _ -> Alcotest.fail "dummy request failed to parse"

let test_router () =
  let r =
    Http.Router.create
      [
        Http.Router.route ~meth:"GET" "/fib/:n" (fun ps _ ->
            Http.text ("fib " ^ List.assoc "n" ps));
        Http.Router.route ~meth:"POST" "/echo" (fun _ req -> Http.response req.Http.body);
        Http.Router.route ~meth:"GET" "/files/*" (fun ps _ ->
            Http.text (List.assoc "*" ps));
      ]
  in
  let run req =
    let _, thunk = Http.Router.dispatch_of r req in
    thunk ()
  in
  let resp = run (dummy_req "/fib/32") in
  Alcotest.(check string) "capture" "fib 32" (Bytes.to_string resp.Http.resp_body);
  let resp = run (dummy_req "/files/a/b/c.txt") in
  Alcotest.(check string) "tail wildcard" "a/b/c.txt" (Bytes.to_string resp.Http.resp_body);
  let resp = run (dummy_req "/nope") in
  Alcotest.(check int) "unmatched path is 404" 404 resp.Http.status;
  let resp = run (dummy_req ~meth:"PUT" "/echo") in
  Alcotest.(check int) "wrong method is 405" 405 resp.Http.status;
  Alcotest.(check (option string))
    "405 carries allow" (Some "POST")
    (List.assoc_opt "allow" resp.Http.resp_headers)

(* ------------------------------------------------------------------ *)
(* Serving                                                             *)
(* ------------------------------------------------------------------ *)

let echo_handler (req : Http.request) =
  match req.Http.path with
  | "/echo" -> Http.response req.Http.body
  | p -> Http.text ("hi " ^ p)

let test_http_echo_keepalive () =
  let count_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let before = count_fds () in
  with_lhws_net ~workers:2 (fun p rt ->
      let module Pl = P.Lhws_instance in
      Pl.run p (fun () ->
          let srv = Http.serve (module Pl) p rt loopback0 ~handler:echo_handler in
          let cl = Http.Client.connect (module Pl) p rt (Http.addr srv) in
          (* Sequential keep-alive reuse. *)
          for i = 1 to 5 do
            let body = Bytes.of_string (Printf.sprintf "round %d" i) in
            let resp =
              Pl.await p (Http.Client.call cl ~body ~meth:"POST" ~target:"/echo" ())
            in
            Alcotest.(check int) "echo status" 200 resp.Http.Client.status;
            Alcotest.(check string)
              "echo body" (Bytes.to_string body)
              (Bytes.to_string resp.Http.Client.body)
          done;
          (* Pipelined burst from concurrent fibers on one connection. *)
          let tasks =
            List.init 16 (fun i ->
                Pl.async p (fun () ->
                    let body = Bytes.of_string (string_of_int i) in
                    let resp =
                      Pl.await p
                        (Http.Client.call cl ~body ~meth:"POST" ~target:"/echo" ())
                    in
                    resp.Http.Client.status = 200
                    && Bytes.to_string resp.Http.Client.body = string_of_int i))
          in
          Alcotest.(check bool)
            "pipelined echoes all intact" true
            (List.for_all (fun t -> Pl.await p t) tasks);
          (* HEAD gets headers but no body. *)
          let resp =
            Pl.await p (Http.Client.call cl ~meth:"HEAD" ~target:"/stats" ())
          in
          Alcotest.(check int) "HEAD status" 200 resp.Http.Client.status;
          Alcotest.(check int) "HEAD body empty" 0 (Bytes.length resp.Http.Client.body);
          Alcotest.(check (option string))
            "HEAD still states the length" (Some "9")
            (List.assoc_opt "content-length" resp.Http.Client.headers);
          Http.Client.close cl;
          Alcotest.(check bool) "served counter moved" true (Http.served srv >= 22);
          Http.shutdown ~grace:2. srv);
      (* All intents drained: nothing parked once the server is down. *)
      Alcotest.(check int) "io_pending gauge drained" 0
        (Pl.stats p).Scheduler_core.io_pending);
  Alcotest.(check int) "no descriptor leaked" before (count_fds ())

let test_http_pipeline_order () =
  with_lhws_net ~workers:2 (fun p rt ->
      let module Pl = P.Lhws_instance in
      Pl.run p (fun () ->
          let router =
            Http.Router.create
              [
                Http.Router.route ~meth:"GET" "/slow" (fun _ _ ->
                    Pl.sleep p 0.1;
                    Http.text "slow");
                Http.Router.route ~meth:"GET" "/fast" (fun _ _ -> Http.text "fast");
              ]
          in
          let srv = Http.serve_router (module Pl) p rt loopback0 ~router in
          let cl = Http.Client.connect (module Pl) p rt (Http.addr srv) in
          let slow = Http.Client.call cl ~meth:"GET" ~target:"/slow" () in
          let fast = Http.Client.call cl ~meth:"GET" ~target:"/fast" () in
          let fast_resp = Pl.await p fast in
          (* HTTP/1.1 pipelining: the fast handler finished first, but
             its response cannot overtake the slow one on the wire. *)
          Alcotest.(check bool)
            "response order is request order" true
            (Promise.is_resolved slow);
          let slow_resp = Pl.await p slow in
          Alcotest.(check string) "slow body" "slow"
            (Bytes.to_string slow_resp.Http.Client.body);
          Alcotest.(check string) "fast body" "fast"
            (Bytes.to_string fast_resp.Http.Client.body);
          Http.Client.close cl;
          Http.shutdown ~grace:2. srv))

let test_http_queued_responses_do_not_poll () =
  (* 32 fast responses queued behind one slow (100 ms) handler on one
     connection wait for the gap to fill without polling: each waiting
     writer suspends once, not once per 200 µs.  Polling writers cost
     about 32 x 500 = 16k suspensions here, and a few hundred of them
     kept both workers busy enough to starve the handler that would have
     filled the gap. *)
  with_lhws_net ~workers:2 (fun p rt ->
      let module Pl = P.Lhws_instance in
      Pl.run p (fun () ->
          let router =
            Http.Router.create
              [
                Http.Router.route ~meth:"GET" "/slow" (fun _ _ ->
                    Pl.sleep p 0.1;
                    Http.text "slow");
                Http.Router.route ~meth:"GET" "/fast" (fun _ _ -> Http.text "fast");
              ]
          in
          let srv = Http.serve_router (module Pl) p rt loopback0 ~router in
          let cl = Http.Client.connect (module Pl) p rt (Http.addr srv) in
          let before = (Pl.stats p).Scheduler_core.suspensions in
          let slow = Http.Client.call cl ~meth:"GET" ~target:"/slow" () in
          let fast = List.init 32 (fun _ -> Http.Client.call cl ~meth:"GET" ~target:"/fast" ()) in
          let bodies = List.map (fun c -> Bytes.to_string (Pl.await p c).Http.Client.body) fast in
          let suspensions = (Pl.stats p).Scheduler_core.suspensions - before in
          Alcotest.(check string) "slow body" "slow"
            (Bytes.to_string (Pl.await p slow).Http.Client.body);
          Alcotest.(check bool) "every fast body" true (List.for_all (( = ) "fast") bodies);
          Alcotest.(check bool)
            (Printf.sprintf "%d suspensions while 32 responses waited 100 ms" suspensions)
            true (suspensions < 2000);
          Http.Client.close cl;
          Http.shutdown ~grace:2. srv))

(* max_pipeline bounds handlers, not reads: 200 GETs pipelined in one
   write arrive in one read, yet at most 8 handlers may run at once, and
   all 200 answers still come back in request order. *)
let test_http_max_pipeline_bounds_handlers () =
  with_lhws_net ~workers:2 (fun p rt ->
      let module Pl = P.Lhws_instance in
      Pl.run p (fun () ->
          let running = Atomic.make 0 and peak = Atomic.make 0 in
          let rec raise_peak n =
            let cur = Atomic.get peak in
            if n > cur && not (Atomic.compare_and_set peak cur n) then raise_peak n
          in
          let handler (req : Http.request) =
            raise_peak (Atomic.fetch_and_add running 1 + 1);
            Pl.sleep p 0.001;
            Atomic.decr running;
            Http.text req.Http.target
          in
          let config = { Http.default_config with max_pipeline = 8 } in
          let srv = Http.serve (module Pl) p rt ~config loopback0 ~handler in
          let n = 200 in
          let reqs =
            String.concat ""
              (List.init n (fun i ->
                   Printf.sprintf "GET /r/%d HTTP/1.1\r\nHost: t%s\r\n\r\n" i
                     (if i = n - 1 then "\r\nConnection: close" else "")))
          in
          let fd = raw_connect (Http.addr srv) in
          let b = Bytes.of_string reqs in
          ignore (Unix.write fd b 0 (Bytes.length b) : int);
          let answer = slurp fd in
          Unix.close fd;
          let bodies =
            Astring.String.cuts ~empty:false ~sep:"HTTP/1.1 200" answer
            |> List.map (fun r ->
                   match Astring.String.cut ~sep:"\r\n\r\n" r with
                   | Some (_, body) -> body
                   | None -> r)
          in
          Alcotest.(check (list string))
            "200 answers in request order"
            (List.init n (Printf.sprintf "/r/%d"))
            bodies;
          Alcotest.(check bool)
            (Printf.sprintf "peak %d handlers at once (max_pipeline 8)" (Atomic.get peak))
            true
            (Atomic.get peak <= 8);
          Http.shutdown ~grace:2. srv))

let test_http_malformed_400_and_close () =
  with_lhws_net (fun p rt ->
      let module Pl = P.Lhws_instance in
      Pl.run p (fun () ->
          let srv = Http.serve (module Pl) p rt loopback0 ~handler:echo_handler in
          let check_garbage what payload status =
            let fd = raw_connect (Http.addr srv) in
            let b = Bytes.of_string payload in
            ignore (Unix.write fd b 0 (Bytes.length b) : int);
            let answer = slurp fd in
            Unix.close fd;
            Alcotest.(check bool)
              (Printf.sprintf "%s answered %d and closed" what status)
              true
              (Astring.String.is_prefix
                 ~affix:(Printf.sprintf "HTTP/1.1 %d" status)
                 answer)
          in
          check_garbage "garbage request line" "florble blorp\r\n\r\n" 400;
          check_garbage "smuggled content-length pair"
            "POST /echo HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nhi" 400;
          check_garbage "cl+te smuggling"
            "POST /echo HTTP/1.1\r\nContent-Length: 2\r\nTransfer-Encoding: chunked\r\n\r\n"
            400;
          check_garbage "oversized header"
            ("GET / HTTP/1.1\r\nBig: " ^ String.make (17 * 1024) 'x' ^ "\r\n\r\n")
            431;
          Http.shutdown ~grace:2. srv))

let test_http_chunked_request_roundtrip () =
  with_lhws_net (fun p rt ->
      let module Pl = P.Lhws_instance in
      Pl.run p (fun () ->
          let srv = Http.serve (module Pl) p rt loopback0 ~handler:echo_handler in
          let fd = raw_connect (Http.addr srv) in
          let payload =
            "POST /echo HTTP/1.1\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
            ^ "7\r\nchunked\r\n6\r\n works\r\n0\r\n\r\n"
          in
          let b = Bytes.of_string payload in
          ignore (Unix.write fd b 0 (Bytes.length b) : int);
          let answer = slurp fd in
          Unix.close fd;
          Alcotest.(check bool) "status 200" true
            (Astring.String.is_prefix ~affix:"HTTP/1.1 200" answer);
          Alcotest.(check bool) "decoded chunked body echoed" true
            (Astring.String.is_suffix ~affix:"chunked works" answer);
          Http.shutdown ~grace:2. srv))

let test_http_408_mid_request () =
  with_lhws_net (fun p rt ->
      let module Pl = P.Lhws_instance in
      Pl.run p (fun () ->
          let config =
            {
              Http.default_config with
              listener =
                { Listener.default_config with read_timeout = Some 0.08 };
            }
          in
          let srv = Http.serve (module Pl) p rt ~config loopback0 ~handler:echo_handler in
          (* Stall mid-request: the head never terminates. *)
          let fd = raw_connect (Http.addr srv) in
          let b = Bytes.of_string "GET /echo HTTP/1.1\r\nHost: t\r\n" in
          ignore (Unix.write fd b 0 (Bytes.length b) : int);
          let answer = slurp fd in
          Unix.close fd;
          Alcotest.(check bool) "stalled request answered 408" true
            (Astring.String.is_prefix ~affix:"HTTP/1.1 408" answer);
          (* Idle at a request boundary: closed silently, no response. *)
          let fd = raw_connect (Http.addr srv) in
          let answer = slurp fd in
          Unix.close fd;
          Alcotest.(check string) "idle connection closed without a status" "" answer;
          Http.shutdown ~grace:2. srv))

let test_http_shed_503 () =
  with_lhws_net (fun p rt ->
      let module Pl = P.Lhws_instance in
      Pl.run p (fun () ->
          let config = { Http.default_config with shed_above = Some 0 } in
          let srv = Http.serve (module Pl) p rt ~config loopback0 ~handler:echo_handler in
          let cl = Http.Client.connect (module Pl) p rt (Http.addr srv) in
          let resp = Pl.await p (Http.Client.call cl ~meth:"GET" ~target:"/x" ()) in
          Alcotest.(check int) "shed answers 503" 503 resp.Http.Client.status;
          Alcotest.(check (option string))
            "shed advertises retry" (Some "1")
            (List.assoc_opt "retry-after" resp.Http.Client.headers);
          (* The connection survived the shed: a later request still works
             (here it sheds again, proving the conn is alive). *)
          let resp2 = Pl.await p (Http.Client.call cl ~meth:"GET" ~target:"/y" ()) in
          Alcotest.(check int) "connection survives shedding" 503 resp2.Http.Client.status;
          Alcotest.(check bool) "shed counter moved" true (Http.shed_503 srv >= 2);
          Http.Client.close cl;
          Http.shutdown ~grace:2. srv))

(* --- slowloris: concurrent trickled headers must all be 408'd, with
       no hung fiber and no leaked descriptor.  Seeded via CHAOS_SEED so
       a failing drip pattern replays exactly. --- *)

let test_http_slowloris_chaos () =
  let count_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let before = count_fds () in
  let seed =
    match Sys.getenv_opt "CHAOS_SEED" with Some s -> int_of_string s | None -> 0x51f
  in
  with_lhws_net ~workers:2 (fun p rt ->
      let module Pl = P.Lhws_instance in
      Pl.run p (fun () ->
          let config =
            {
              Http.default_config with
              listener =
                { Listener.default_config with read_timeout = Some 0.05 };
            }
          in
          let srv = Http.serve (module Pl) p rt ~config loopback0 ~handler:echo_handler in
          let addr = Http.addr srv in
          let n = 8 in
          let answers = Array.make n "" in
          let finished = Atomic.make 0 in
          (* Raw OS threads so the trickling clients can block freely
             without occupying pool workers. *)
          let clients =
            List.init n (fun i ->
                Thread.create
                  (fun () ->
                    let rng = Random.State.make [| seed; i |] in
                    let fd = raw_connect addr in
                    (* A header that never terminates, dripped 1-3 bytes
                       at a time with every gap longer than the read
                       timeout: the server must 408 the first stalled
                       read rather than wait for a complete request. *)
                    let header =
                      Printf.sprintf
                        "GET /drip-%d HTTP/1.1\r\nHost: slow\r\nX-Drip: 0123456789\r\n" i
                    in
                    (try
                       let off = ref 0 in
                       while !off < String.length header do
                         let k =
                           min (1 + Random.State.int rng 3) (String.length header - !off)
                         in
                         ignore (Unix.write_substring fd header !off k : int);
                         off := !off + k;
                         Unix.sleepf (0.08 +. Random.State.float rng 0.05)
                       done
                     with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
                       (* The 408+close landed mid-drip — expected. *)
                       ());
                    answers.(i) <-
                      (try slurp fd with Unix.Unix_error _ -> "");
                    Unix.close fd;
                    Atomic.incr finished)
                  ())
          in
          (* Keep this worker scheduling (fiber sleeps) while the clients
             drip: joining now would take it out of the engine, and any
             parked resume it owns — the acceptor, a conn reader — could
             never be delivered. *)
          let rec wait i =
            if Atomic.get finished < n then
              if i > 2000 then Alcotest.fail "slowloris clients stuck"
              else begin
                Pl.sleep p 0.01;
                wait (i + 1)
              end
          in
          wait 0;
          List.iter Thread.join clients;
          Array.iteri
            (fun i a ->
              Alcotest.(check bool)
                (Printf.sprintf "slowloris conn %d answered 408 (seed %#x)" i seed)
                true
                (Astring.String.is_prefix ~affix:"HTTP/1.1 408" a))
            answers;
          Http.shutdown ~grace:5. srv);
      (* Every stalled connection was reclaimed: nothing left parked. *)
      Alcotest.(check int) "io_pending gauge drained" 0
        (Pl.stats p).Scheduler_core.io_pending);
  Alcotest.(check int) "no descriptor leaked" before (count_fds ())

(* --- deadline-aware admission: once the oldest admitted request has
       waited past [max_queue_age], fresh work is browned out --- *)

let test_http_brownout_max_queue_age () =
  with_lhws_net ~workers:2 (fun p rt ->
      let module Pl = P.Lhws_instance in
      Pl.run p (fun () ->
          let config = { Http.default_config with max_queue_age = Some 0.05 } in
          let srv =
            Http.serve (module Pl) p rt ~config loopback0
              ~handler:(fun req ->
                (match req.Http.path with
                | "/slow" -> Pl.sleep p 0.4
                | "/aged" -> Pl.sleep p 0.08
                | _ -> ());
                Http.text "done")
          in
          let cl = Http.Client.connect (module Pl) p rt (Http.addr srv) in
          let slow = Http.Client.call cl ~meth:"GET" ~target:"/slow" () in
          Pl.sleep p 0.15;
          Alcotest.(check bool) "age gauge sees the stuck head" true
            (Http.oldest_pending_age srv > 0.05);
          (* Pipelined on the live connection: refused per-request. *)
          let late = Http.Client.call cl ~meth:"GET" ~target:"/fresh" () in
          (* Brand-new connection: shed at accept with a prompt EOF,
             before it can park a parser fiber the server can't afford.
             Spin on the shed counter with fiber sleeps BEFORE touching
             the raw socket: a blocking [slurp] would take this worker
             out of the engine while the acceptor's resume may be parked
             on it (see test_faults's overload-shed note). *)
          let fd = raw_connect (Http.addr srv) in
          let rec wait_shed i =
            if Listener.shed (Http.listener srv) < 1 then
              if i > 1000 then Alcotest.fail "fresh connection not shed"
              else begin
                Pl.sleep p 0.005;
                wait_shed (i + 1)
              end
          in
          wait_shed 0;
          let eof = slurp fd in
          Unix.close fd;
          Alcotest.(check string) "fresh connection shed at accept" "" eof;
          let late_resp = Pl.await p late in
          Alcotest.(check int) "brownout refuses fresh work with 503" 503
            late_resp.Http.Client.status;
          Alcotest.(check (option string))
            "brownout advertises retry" (Some "1")
            (List.assoc_opt "retry-after" late_resp.Http.Client.headers);
          let slow_resp = Pl.await p slow in
          Alcotest.(check int) "aged request still completes" 200
            slow_resp.Http.Client.status;
          (* Pressure gone: admission recovers without intervention. *)
          let ok = Pl.await p (Http.Client.call cl ~meth:"GET" ~target:"/again" ()) in
          Alcotest.(check int) "admission recovers after the queue drains" 200
            ok.Http.Client.status;
          (* Back to back, with no pause: each aged request leaves the
             gauge before its reply is written, so the request sent the
             moment that reply is read is admitted. *)
          for round = 1 to 5 do
            let aged = Pl.await p (Http.Client.call cl ~meth:"GET" ~target:"/aged" ()) in
            let again = Pl.await p (Http.Client.call cl ~meth:"GET" ~target:"/again" ()) in
            Alcotest.(check (pair int int))
              (Printf.sprintf "round %d: aged request, then admitted at once" round)
              (200, 200)
              (aged.Http.Client.status, again.Http.Client.status)
          done;
          Alcotest.(check bool) "brownout counted as shed" true (Http.shed_503 srv >= 1);
          Http.Client.close cl;
          Http.shutdown ~grace:2. srv))

let test_http_drain_503 () =
  with_lhws_net ~workers:2 (fun p rt ->
      let module Pl = P.Lhws_instance in
      Pl.run p (fun () ->
          let srv =
            Http.serve (module Pl) p rt loopback0
              ~handler:(fun req ->
                if req.Http.path = "/slow" then Pl.sleep p 0.3;
                Http.text "done")
          in
          let cl = Http.Client.connect (module Pl) p rt (Http.addr srv) in
          let slow = Http.Client.call cl ~meth:"GET" ~target:"/slow" () in
          Pl.sleep p 0.05;
          let stopper = Pl.async p (fun () -> Http.shutdown ~grace:5. srv) in
          (* Give the drain flag time to land, then pipeline another
             request on the live connection: it must get 503 + close,
             while the in-flight one still completes. *)
          while not (Http.draining srv) do
            Pl.sleep p 0.005
          done;
          let late = Http.Client.call cl ~meth:"GET" ~target:"/late" () in
          let slow_resp = Pl.await p slow in
          Alcotest.(check int) "in-flight request completes through drain" 200
            slow_resp.Http.Client.status;
          let late_status =
            match Pl.await p late with
            | resp -> resp.Http.Client.status
            | exception (Net.Closed | Net.Peer_closed) ->
                (* The force-close raced our late request in: also a
                   valid drain outcome, but with grace >> handler time
                   the 503 should win in practice. *)
                -1
          in
          Alcotest.(check int) "request during drain is refused with 503" 503
            late_status;
          Pl.await p stopper;
          Alcotest.(check bool) "drain counted a shed" true (Http.shed_503 srv >= 1);
          Http.Client.close cl))

(* --- the fault battery: a short-read/delay storm must not corrupt
       framing, leak descriptors, or leave intents parked --- *)

let test_http_fault_storm () =
  let count_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let before = count_fds () in
  let seed =
    match Sys.getenv_opt "CHAOS_SEED" with Some s -> int_of_string s | None -> 0x417
  in
  (* Shorts, spurious EAGAINs and delays only: those must be absorbed
     with zero failures.  Hard errors/resets are exercised by the RPC
     chaos suite; here the property is parse integrity under
     fragmentation. *)
  let cfg =
    {
      (Fault.storm ~seed ~rate:0.0 ()) with
      Fault.p_short = 0.15;
      p_eagain = 0.05;
      p_delay = 0.05;
      delay_s = 0.001;
    }
  in
  let fault = Fault.create cfg in
  with_lhws_net ~workers:2 ~fault (fun p rt ->
      let module Pl = P.Lhws_instance in
      Pl.run p (fun () ->
          let srv = Http.serve (module Pl) p rt loopback0 ~handler:echo_handler in
          let body i = Bytes.of_string (Printf.sprintf "payload-%04d" i) in
          let report =
            Load.run_http (module Pl) p rt ~conns:4 ~inflight:2 ~iters:10
              ~req:(fun i ->
                {
                  Load.meth = "POST";
                  target = "/echo";
                  req_body = Some (body i);
                })
              (Http.addr srv)
          in
          Alcotest.(check int)
            (Printf.sprintf "no transport errors under the storm (seed %#x)" seed)
            0 report.Load.errors;
          Alcotest.(check int) "no non-2xx under the storm" 0 report.Load.non_2xx;
          Alcotest.(check int) "no connect failures" 0 report.Load.connect_failures;
          Alcotest.(check int) "every request answered" 80 report.Load.total;
          Http.shutdown ~grace:5. srv);
      Alcotest.(check bool)
        (Printf.sprintf "storm actually injected (seed %#x)" seed)
        true
        (Fault.total (Fault.injected fault) > 0);
      Alcotest.(check int) "io_pending gauge drained" 0
        (Pl.stats p).Scheduler_core.io_pending);
  Alcotest.(check int) "no descriptor leaked" before (count_fds ())

(* --- the load generator surfaces application failures per class --- *)

let test_http_load_counters () =
  with_lhws_net (fun p rt ->
      let module Pl = P.Lhws_instance in
      Pl.run p (fun () ->
          let srv =
            Http.serve (module Pl) p rt loopback0 ~handler:(fun req ->
                if req.Http.path = "/fail" then Http.text ~status:500 "boom"
                else Http.text "ok")
          in
          let report =
            Load.run_http (module Pl) p rt ~conns:2 ~inflight:1 ~iters:10
              ~req:(fun i -> Load.get (if i mod 2 = 0 then "/ok" else "/fail"))
              (Http.addr srv)
          in
          Alcotest.(check int) "transport clean" 0 report.Load.errors;
          Alcotest.(check int) "non-2xx counted per failing request" 10
            report.Load.non_2xx;
          Alcotest.(check int) "offered load accounted" 20 report.Load.total;
          Http.shutdown ~grace:2. srv))

(* ------------------------------------------------------------------ *)
(* Client: decoding responses from a raw-socket peer                   *)
(* ------------------------------------------------------------------ *)

let listening_socket () =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind fd loopback0;
  Unix.listen fd 8;
  fd

(* Reads until [n] request heads have arrived: the client's requests
   carry no body, so each ends at its blank line. *)
let read_heads fd n =
  let b = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let count () =
    let s = Buffer.contents b in
    let rec go i k =
      match Astring.String.find_sub ~start:i ~sub:"\r\n\r\n" s with
      | Some j -> go (j + 4) (k + 1)
      | None -> k
    in
    go 0 0
  in
  while count () < n do
    match Unix.read fd chunk 0 4096 with
    | 0 -> failwith "client hung up before sending its requests"
    | k -> Buffer.add_subbytes b chunk 0 k
  done

(* [piece] bytes per write; 1 is byte by byte. *)
let write_pieces fd s ~piece =
  let n = String.length s in
  let rec go off =
    if off < n then begin
      let k = Unix.write_substring fd s off (min piece (n - off)) in
      go (off + k)
    end
  in
  try go 0 with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()

let render_outcome = function
  | Ok (r : Http.Client.resp) ->
      Printf.sprintf "%d %s cl=%s %S" r.status r.reason
        (Option.value (List.assoc_opt "content-length" r.headers) ~default:"-")
        (Bytes.to_string r.body)
  | Error Net.Closed -> "Closed"
  | Error Net.Peer_closed -> "Peer_closed"
  | Error (Net.Protocol_error _) -> "Protocol_error"
  | Error e -> Printexc.to_string e

(* (name, request methods, what the peer sends before hanging up, the
   outcome of each call).  Every response answers a request already on
   the wire. *)
let client_cases =
  let big_head = "HTTP/1.1 200 OK\r\nX-Big: " ^ String.make (70 * 1024) 'a' in
  [
    ( "content-length",
      [ "GET" ],
      "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello",
      [ "200 OK cl=5 \"hello\"" ] );
    ( "chunked with extension and trailer",
      [ "GET" ],
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
      ^ "4;ext=1\r\nWiki\r\n5\r\npedia\r\n0\r\nX-Trailer: t\r\n\r\n",
      [ "200 OK cl=- \"Wikipedia\"" ] );
    ( "HEAD with content-length, then pipelined GET",
      [ "HEAD"; "GET" ],
      "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n"
      ^ "HTTP/1.1 201 Created\r\nContent-Length: 3\r\n\r\nabc",
      [ "200 OK cl=5 \"\""; "201 Created cl=3 \"abc\"" ] );
    ( "204 and 304 carry no body",
      [ "GET"; "GET"; "GET" ],
      "HTTP/1.1 204 No Content\r\n\r\n"
      ^ "HTTP/1.1 304 Not Modified\r\nContent-Length: 7\r\n\r\n"
      ^ "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
      [ "204 No Content cl=- \"\""; "304 Not Modified cl=7 \"\""; "200 OK cl=2 \"ok\"" ] );
    ( "Connection: close",
      [ "GET"; "GET" ],
      "HTTP/1.1 200 OK\r\nContent-Length: 3\r\nConnection: close\r\n\r\nbye",
      [ "200 OK cl=3 \"bye\""; "Closed" ] );
    ( "EOF at a message boundary",
      [ "GET"; "GET" ],
      "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
      [ "200 OK cl=2 \"ok\""; "Closed" ] );
    ( "EOF mid-body",
      [ "GET" ],
      "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc",
      [ "Peer_closed" ] );
    ("EOF mid-head", [ "GET" ], "HTTP/1.1 200 OK\r\nContent-Le", [ "Peer_closed" ]);
    ("oversized head", [ "GET" ], big_head, [ "Protocol_error" ]);
    ( "bad chunk size",
      [ "GET" ],
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\nhello\r\n0\r\n\r\n",
      [ "Protocol_error" ] );
    ( "malformed trailer line",
      [ "GET" ],
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
      ^ "2\r\nok\r\n0\r\nno colon here\r\n\r\n",
      [ "Protocol_error" ] );
  ]

(* Runs every case, whole and byte by byte, against one pool and
   reactor, and checks them all in one table so a failure shows every
   case that differs.  The oversized head goes out in 1 KiB pieces
   rather than bytes: 70 K one-byte writes would time the peer, not the
   decoder. *)
let run_client_cases (type p) (module Pl : P.POOL with type t = p) (p : p) rt ~label =
  let failure g = List.mem g [ "Closed"; "Peer_closed"; "Protocol_error" ] in
  let rows =
    List.concat_map
      (fun bytewise ->
        List.map
          (fun (name, meths, script, expect) ->
            let lfd = listening_socket () in
            let piece =
              if not bytewise then max_int
              else if String.length script > 4096 then 1024
              else 1
            in
            let peer =
              Domain.spawn (fun () ->
                  let fd, _ = Unix.accept ~cloexec:true lfd in
                  Fun.protect
                    ~finally:(fun () -> Unix.close fd)
                    (fun () ->
                      read_heads fd (List.length meths);
                      write_pieces fd script ~piece))
            in
            (* Once a call has failed the client is closed, and a new
               call is refused at once. *)
            let fails = List.exists failure expect in
            let got =
              Pl.run p (fun () ->
                  let c = Http.Client.connect (module Pl) p rt (Unix.getsockname lfd) in
                  let prs =
                    List.map (fun meth -> Http.Client.call c ~meth ~target:"/" ()) meths
                  in
                  (* A call its reader drops would hang [await]: wait a
                     bounded time so the case fails instead. *)
                  let outcome pr =
                    let rec wait i =
                      if (not (Promise.is_resolved pr)) && i < 1000 then begin
                        Pl.sleep p 0.005;
                        wait (i + 1)
                      end
                    in
                    wait 0;
                    match Promise.poll pr with
                    | Some r -> render_outcome r
                    | None -> "unresolved after 5 s"
                  in
                  let got = List.map outcome prs in
                  let late =
                    if not fails then []
                    else
                      match Http.Client.call c ~meth:"GET" ~target:"/" () with
                      | _ -> [ "later call accepted" ]
                      | exception e -> [ "later call " ^ render_outcome (Error e) ]
                  in
                  Http.Client.close c;
                  got @ late)
            in
            Domain.join peer;
            Unix.close lfd;
            let row outcomes =
              Printf.sprintf "%s, %s: %s" name
                (if bytewise then "bytewise" else "whole")
                (String.concat " | " outcomes)
            in
            (row (expect @ if fails then [ "later call Closed" ] else []), row got))
          client_cases)
      [ false; true ]
  in
  Alcotest.(check (list string)) label (List.map fst rows) (List.map snd rows)

(* The client's reactor draws from a fault plane, so short reads split
   responses at arbitrary bytes and injected delays postpone reads.
   Seeded through CHAOS_SEED. *)
let client_fault () =
  let seed =
    match Sys.getenv_opt "CHAOS_SEED" with Some s -> int_of_string s | None -> 0xc11e
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

let test_client_decoding_lhws () =
  let count_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let before = count_fds () in
  let seed, fault = client_fault () in
  with_lhws_net ~workers:2 ~fault (fun p rt ->
      run_client_cases (module P.Lhws_instance) p rt
        ~label:(Printf.sprintf "lhws fibers (seed %#x)" seed);
      Alcotest.(check int) "io_pending gauge drained" 0
        (P.Lhws_instance.stats p).Scheduler_core.io_pending);
  let inj = Fault.injected fault in
  Alcotest.(check bool)
    (Printf.sprintf "short reads and delays injected (%d, %d)" inj.shorts inj.delays)
    true
    (inj.shorts > 0 && inj.delays > 0);
  Alcotest.(check int) "no descriptor leaked" before (count_fds ())

let test_client_decoding_threads () =
  let seed, fault = client_fault () in
  let module Pt = P.Threaded_instance in
  let tp = Pt.create () in
  Fun.protect
    ~finally:(fun () -> Pt.shutdown tp)
    (fun () ->
      run_client_cases (module Pt) tp (Reactor.blocking ~fault ())
        ~label:(Printf.sprintf "threads blocking (seed %#x)" seed));
  let inj = Fault.injected fault in
  Alcotest.(check bool)
    (Printf.sprintf "short reads and delays injected (%d, %d)" inj.shorts inj.delays)
    true
    (inj.shorts > 0 && inj.delays > 0)

(* --- an HTTP reply resolves its call where its readiness is seen ---

   The HTTP twin of test_net's Rpc case: both workers run chains of
   short tasks for 50 ms, each spawning its successor before it spins,
   so neither active deque runs dry.  The chains start on fresh deques
   while the pool is idle, so a fiber reading replies would sit on a
   deque that is ready but not active until a chain ends.  The reply
   must resolve within a few ms of leaving the peer anyway. *)

let test_client_reply_resolves_while_busy () =
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
      let peer =
        Domain.spawn (fun () ->
            let fd, _ = Unix.accept ~cloexec:true lfd in
            read_heads fd 1;
            Unix.sleepf 0.005;  (* the caller sleeps; the pool is idle *)
            Atomic.set chain_until (now () +. 0.05);
            Lhws_pool.submit p chain;
            Lhws_pool.submit p chain;
            Unix.sleepf 0.005;
            write_pieces fd "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok" ~piece:max_int;
            Atomic.set sent_at (now ());
            (try ignore (Unix.read fd (Bytes.create 1) 0 1 : int) with Unix.Unix_error _ -> ());
            Unix.close fd)
      in
      let body, resolved =
        Pl.run p (fun () ->
            let c = Http.Client.connect (module Pl) p rt (Unix.getsockname lfd) in
            let pr = Http.Client.call c ~meth:"GET" ~target:"/" () in
            let resolved = Atomic.make 0. in
            if not (Promise.add_waiter pr (fun () -> Atomic.set resolved (now ()))) then
              Atomic.set resolved (now ());
            Pl.sleep p 0.1;
            let body = Bytes.to_string (Pl.await p pr).Http.Client.body in
            Http.Client.close c;
            (body, Atomic.get resolved))
      in
      Domain.join peer;
      Unix.close lfd;
      let lag = resolved -. Atomic.get sent_at in
      Alcotest.(check string) "reply" "ok" body;
      Alcotest.(check bool)
        (Printf.sprintf "resolved %.2f ms after the send, workers busy" (lag *. 1e3))
        true (lag < 0.005))

(* ------------------------------------------------------------------ *)
(* Server: decoding requests from a raw-socket peer                    *)
(* ------------------------------------------------------------------ *)

(* The server's replies as "status body" rows, split on each head's
   Content-Length (the serializer always sends one); a torn tail shows
   as such. *)
let render_replies s =
  let rec go acc i =
    if i >= String.length s then List.rev acc
    else
      match Astring.String.find_sub ~start:i ~sub:"\r\n\r\n" s with
      | None -> List.rev (("torn " ^ String.sub s i (String.length s - i)) :: acc)
      | Some j ->
          let head = String.sub s i (j - i) in
          let status = match String.split_on_char ' ' head with _ :: c :: _ -> c | _ -> "?" in
          let len =
            List.find_map
              (fun l ->
                match Astring.String.cut ~sep:": " (String.lowercase_ascii l) with
                | Some ("content-length", v) -> int_of_string_opt (String.trim v)
                | _ -> None)
              (String.split_on_char '\n' head)
            |> Option.value ~default:0
          in
          let len = min len (String.length s - j - 4) in
          go ((status ^ " " ^ String.sub s (j + 4) len) :: acc) (j + 4 + len)
  in
  go [] 0

let server_handler (req : Http.request) =
  Http.text
    (Printf.sprintf "%s %s %s" req.Http.meth req.Http.target (Bytes.to_string req.Http.body))

(* (name, what the peer sends, whether it then half-closes, the replies).
   A peer that does not half-close keeps the connection open: it ends
   at a [Connection: close], a parse error, or the read deadline. *)
let server_cases =
  let get ?(close = false) t =
    Printf.sprintf "GET %s HTTP/1.1\r\nHost: t%s\r\n\r\n" t
      (if close then "\r\nConnection: close" else "")
  in
  [
    ( "content-length",
      "POST /a HTTP/1.1\r\nContent-Length: 5\r\nConnection: close\r\n\r\nhello",
      false,
      [ "200 POST /a hello" ] );
    ( "chunked with extension and trailer",
      "POST /c HTTP/1.1\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
      ^ "4;ext=1\r\nWiki\r\n5\r\npedia\r\n0\r\nX-Trailer: t\r\n\r\n",
      false,
      [ "200 POST /c Wikipedia" ] );
    ( "pipelined burst",
      get "/1" ^ get "/2" ^ "POST /3 HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi" ^ get ~close:true "/4",
      false,
      [ "200 GET /1 "; "200 GET /2 "; "200 POST /3 hi"; "200 GET /4 " ] );
    ("pipelined, then EOF at a boundary", get "/1" ^ get "/2", true, [ "200 GET /1 "; "200 GET /2 " ]);
    ( "malformed request line after a good one",
      get "/ok" ^ "florble blorp\r\n\r\n" ^ get "/never",
      false,
      [ "200 GET /ok "; "400 malformed request line\n" ] );
    ( "content-length alongside transfer-encoding",
      "POST /s HTTP/1.1\r\nContent-Length: 2\r\nTransfer-Encoding: chunked\r\n\r\n",
      false,
      [ "400 content-length alongside transfer-encoding\n" ] );
    ("stall mid-request", "GET /s HTTP/1.1\r\nHost: t\r\n", false, [ "408 request timeout\n" ]);
    ("stall at a boundary", get "/1", false, [ "200 GET /1 " ]);
    ("EOF mid-body", "POST /e HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc", true, []);
  ]

(* Runs every case, whole and byte by byte, against one server; a peer
   domain plays each script and reads until the server closes. *)
let run_server_cases (type p) (module Pl : P.POOL with type t = p) (p : p) rt ~label =
  let config =
    { Http.default_config with listener = { Listener.default_config with read_timeout = Some 0.15 } }
  in
  let rows =
    Pl.run p (fun () ->
        let srv = Http.serve (module Pl) p rt ~config loopback0 ~handler:server_handler in
        let rows =
          List.concat_map
            (fun bytewise ->
              List.map
                (fun (name, script, half_close, expect) ->
                  let got = Atomic.make None in
                  let peer =
                    Domain.spawn (fun () ->
                        let fd = raw_connect (Http.addr srv) in
                        write_pieces fd script ~piece:(if bytewise then 1 else max_int);
                        if half_close then Unix.shutdown fd Unix.SHUTDOWN_SEND;
                        let answer = try slurp fd with Unix.Unix_error _ -> "reset" in
                        Unix.close fd;
                        Atomic.set got (Some answer))
                  in
                  (* Keep this worker scheduling while the peer plays. *)
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
                    row (match Atomic.get got with Some a -> render_replies a | None -> [ "peer stuck" ])
                  ))
                server_cases)
            [ false; true ]
        in
        Http.shutdown ~grace:2. srv;
        rows)
  in
  Alcotest.(check (list string)) label (List.map fst rows) (List.map snd rows)

(* The server's reactor draws from a fault plane: short reads split
   requests at arbitrary bytes, injected delays postpone reads.  Seeded
   through CHAOS_SEED. *)
let server_fault () =
  let seed =
    match Sys.getenv_opt "CHAOS_SEED" with Some s -> int_of_string s | None -> 0x5e7
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

let test_server_decoding_lhws () =
  let count_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let before = count_fds () in
  let seed, fault = server_fault () in
  with_lhws_net ~workers:2 ~fault (fun p rt ->
      run_server_cases (module P.Lhws_instance) p rt
        ~label:(Printf.sprintf "lhws fibers (seed %#x)" seed);
      Alcotest.(check int) "io_pending gauge drained" 0
        (P.Lhws_instance.stats p).Scheduler_core.io_pending);
  let inj = Fault.injected fault in
  Alcotest.(check bool)
    (Printf.sprintf "short reads and delays injected (%d, %d)" inj.shorts inj.delays)
    true
    (inj.shorts > 0 && inj.delays > 0);
  Alcotest.(check int) "no descriptor leaked" before (count_fds ())

let test_server_decoding_threads () =
  let count_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let before = count_fds () in
  let seed, fault = server_fault () in
  let module Pt = P.Threaded_instance in
  let tp = Pt.create () in
  Fun.protect
    ~finally:(fun () -> Pt.shutdown tp)
    (fun () ->
      run_server_cases (module Pt) tp (Reactor.blocking ~fault ())
        ~label:(Printf.sprintf "threads blocking (seed %#x)" seed));
  let inj = Fault.injected fault in
  Alcotest.(check bool)
    (Printf.sprintf "short reads and delays injected (%d, %d)" inj.shorts inj.delays)
    true
    (inj.shorts > 0 && inj.delays > 0);
  Alcotest.(check int) "no descriptor leaked" before (count_fds ())

(* --- a blocking server costs one thread per connection: the connection
       task is the reader.  A thread pool capped at n + 2 holds the
       acceptor, n open connections and one handler at a time; a reader
       task per connection on top would fill the cap and leave no slot
       for a handler, so no request would ever be answered.  Then a
       burst of three pipelined requests on one connection: the second
       handler must wait for the first to retire, and the first must be
       able to finish while it waits. --- *)

let test_server_thread_per_connection () =
  let n = 6 in
  let module Pt = P.Threaded_instance in
  let tp = Lhws_runtime.Threaded_pool.create ~max_threads:(n + 2) () in
  Pt.run tp (fun () ->
      let srv =
        Http.serve (module Pt) tp (Reactor.blocking ()) loopback0 ~handler:server_handler
      in
      let fds = List.init n (fun _ -> raw_connect (Http.addr srv)) in
      let answers =
        List.mapi
          (fun i fd ->
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.;
            write_pieces fd (Printf.sprintf "GET /%d HTTP/1.1\r\nHost: t\r\n\r\n" i)
              ~piece:max_int;
            let b = Bytes.create 4096 in
            match Unix.read fd b 0 4096 with
            | k -> String.concat " " (render_replies (Bytes.sub_string b 0 k))
            | exception Unix.Unix_error _ -> "no reply")
          fds
      in
      (* Checked before the shutdown: a starved pool would never drain. *)
      Alcotest.(check (list string))
        (Printf.sprintf "%d open connections served under a cap of %d threads" n (n + 2))
        (List.init n (Printf.sprintf "200 GET /%d "))
        answers;
      let fd = List.hd fds in
      write_pieces fd
        (String.concat ""
           (List.init 3 (fun i ->
                Printf.sprintf "GET /p%d HTTP/1.1\r\nHost: t%s\r\n\r\n" i
                  (if i = 2 then "\r\nConnection: close" else ""))))
        ~piece:max_int;
      let burst = try render_replies (slurp fd) with Unix.Unix_error _ -> [ "no reply" ] in
      Alcotest.(check (list string)) "pipelined burst at the cap"
        [ "200 GET /p0 "; "200 GET /p1 "; "200 GET /p2 " ]
        burst;
      List.iter Unix.close fds;
      Http.shutdown ~grace:2. srv);
  Pt.shutdown tp

(* --- the held reader: a peer pipelines 4 x max_pipeline requests and
       reads nothing for 100 ms.  Replies of 1 MiB into a small receive
       buffer back up into the server's outbox (a socket send buffer
       holds at most 4 MiB by default), so handlers stay owed and the
       reader is held at the limit with requests still unread.  The
       handlers never exceed the bound, fewer than all of them run
       before the peer reads, every reply arrives in order once it
       does, and closing leaves no descriptor and no parked intent
       behind. --- *)

let test_server_held_reader () =
  let count_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let before = count_fds () in
  let limit = 4 and reply_bytes = 1024 * 1024 in
  let n = 4 * limit in
  with_lhws_net ~workers:2 (fun p rt ->
      let module Pl = P.Lhws_instance in
      Pl.run p (fun () ->
          let running = Atomic.make 0 and peak = Atomic.make 0 and calls = Atomic.make 0 in
          let rec raise_peak k =
            let cur = Atomic.get peak in
            if k > cur && not (Atomic.compare_and_set peak cur k) then raise_peak k
          in
          let handler (req : Http.request) =
            Atomic.incr calls;
            raise_peak (Atomic.fetch_and_add running 1 + 1);
            Pl.sleep p 0.002;
            Atomic.decr running;
            let tag = req.Http.target in
            Http.response
              (Bytes.of_string (tag ^ String.make (reply_bytes - String.length tag) '.'))
          in
          let config = { Http.default_config with max_pipeline = limit } in
          let srv = Http.serve (module Pl) p rt ~config loopback0 ~handler in
          let answer = Atomic.make None and calls_before_read = Atomic.make 0 in
          let peer =
            Domain.spawn (fun () ->
                let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
                Unix.setsockopt_int fd Unix.SO_RCVBUF 4096;
                Unix.connect fd (Http.addr srv);
                let reqs =
                  String.concat ""
                    (List.init n (fun i ->
                         Printf.sprintf "GET /r%02d HTTP/1.1\r\nHost: t%s\r\n\r\n" i
                           (if i = n - 1 then "\r\nConnection: close" else "")))
                in
                write_pieces fd reqs ~piece:max_int;
                Unix.sleepf 0.1;
                Atomic.set calls_before_read (Atomic.get calls);
                let a = slurp fd in
                Unix.close fd;
                Atomic.set answer (Some a))
          in
          let rec wait i =
            if Atomic.get answer = None && i < 2000 then begin
              Pl.sleep p 0.005;
              wait (i + 1)
            end
          in
          wait 0;
          Domain.join peer;
          let tags =
            match Atomic.get answer with
            | None -> [ "peer stuck" ]
            | Some a ->
                List.map
                  (fun r ->
                    match String.split_on_char ' ' r with
                    | [ status; body ] when String.length body = reply_bytes ->
                        status ^ " " ^ String.sub body 0 4
                    | _ -> "bad reply")
                  (render_replies a)
          in
          Alcotest.(check (list string))
            "every reply, in order, once the peer reads"
            (List.init n (Printf.sprintf "200 /r%02d"))
            tags;
          Alcotest.(check bool)
            (Printf.sprintf "peak %d handlers at once (max_pipeline %d)" (Atomic.get peak)
               limit)
            true
            (Atomic.get peak <= limit);
          Alcotest.(check bool)
            (Printf.sprintf "held while the peer did not read (%d of %d handlers ran)"
               (Atomic.get calls_before_read) n)
            true
            (Atomic.get calls_before_read < n);
          Http.shutdown ~grace:2. srv);
      Alcotest.(check int) "io_pending gauge drained" 0
        (Pl.stats p).Scheduler_core.io_pending);
  Alcotest.(check int) "no descriptor leaked" before (count_fds ())

let () =
  Alcotest.run "http"
    [
      ( "parser",
        [
          Alcotest.test_case "simple stream" `Quick test_parser_simple;
          Alcotest.test_case "split invariance" `Quick test_parser_split_invariance;
          Alcotest.test_case "malformed inputs" `Quick test_parser_malformed;
          Alcotest.test_case "size limits" `Quick test_parser_limits;
        ] );
      ("router", [ Alcotest.test_case "routing" `Quick test_router ]);
      ( "serving",
        [
          Alcotest.test_case "echo keep-alive" `Quick test_http_echo_keepalive;
          Alcotest.test_case "pipeline order" `Quick test_http_pipeline_order;
          Alcotest.test_case "malformed 400+close" `Quick test_http_malformed_400_and_close;
          Alcotest.test_case "chunked roundtrip" `Quick test_http_chunked_request_roundtrip;
          Alcotest.test_case "408 mid-request" `Quick test_http_408_mid_request;
          Alcotest.test_case "503 shed" `Quick test_http_shed_503;
          Alcotest.test_case "slowloris chaos" `Quick test_http_slowloris_chaos;
          Alcotest.test_case "brownout max_queue_age" `Quick
            test_http_brownout_max_queue_age;
          Alcotest.test_case "503 drain" `Quick test_http_drain_503;
          Alcotest.test_case "fault storm" `Quick test_http_fault_storm;
          Alcotest.test_case "load counters" `Quick test_http_load_counters;
          Alcotest.test_case "queued responses do not poll" `Quick
            test_http_queued_responses_do_not_poll;
          Alcotest.test_case "max_pipeline bounds handlers" `Quick
            test_http_max_pipeline_bounds_handlers;
        ] );
      ( "server",
        [
          Alcotest.test_case "decoding on lhws fibers" `Quick test_server_decoding_lhws;
          Alcotest.test_case "decoding on threads blocking" `Quick
            test_server_decoding_threads;
          Alcotest.test_case "held reader" `Quick test_server_held_reader;
          Alcotest.test_case "capped thread pool" `Quick test_server_thread_per_connection;
        ] );
      ( "client",
        [
          Alcotest.test_case "decoding on lhws fibers" `Quick test_client_decoding_lhws;
          Alcotest.test_case "decoding on threads blocking" `Quick
            test_client_decoding_threads;
          Alcotest.test_case "Http reply resolves while its home worker stays busy" `Quick
            test_client_reply_resolves_while_busy;
        ] );
    ]
