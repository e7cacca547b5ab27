(* A web crawler over real sockets: irregular, data-driven parallelism
   where every page fetch is a round trip to a page server (a separate
   domain running the threaded-blocking pool, with 10 ms of induced
   latency per fetch — the network).  Fetched pages are parsed
   (computation) and their links crawled in parallel.

   With the latency-hiding pool the fetches are pipelined RPC calls:
   every in-flight fetch is a suspended fiber, so 2 workers keep all of
   them outstanding at once while parsing the pages that have arrived.
   The blocking pool does one synchronous round trip per worker at a
   time, so the 10 ms latencies serialise.

   Run with: dune exec examples/crawler.exe *)

open Lhws_runtime
module W = Lhws_workloads
module P = W.Pool_intf
module Reactor = Lhws_net.Reactor
module Conn = Lhws_net.Conn
module Listener = Lhws_net.Listener
module Rpc = Lhws_net.Rpc

let pages = 150
let fetch_latency = 0.01
let parse_work = 15
let client_conns = 2

let encode_id i =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 (Int64.of_int i);
  b

let encode_links links =
  let b = Bytes.create (8 * List.length links) in
  List.iteri (fun k l -> Bytes.set_int64_be b (8 * k) (Int64.of_int l)) links;
  b

let decode_links b =
  List.init (Bytes.length b / 8) (fun k -> Int64.to_int (Bytes.get_int64_be b (8 * k)))

(* The page server: thread-per-request blocking pool in its own domain,
   sleeping [fetch_latency] before answering each fetch — the same shape
   as a remote store that really does take a round trip. *)
type page_server = { stop : bool Atomic.t; domain : unit Domain.t; addr : Unix.sockaddr }

let start_page_server web =
  let stop = Atomic.make false in
  let addr_slot = Atomic.make None in
  let domain =
    Domain.spawn (fun () ->
        let module Pool = P.Threaded_instance in
        let pool = Pool.create () in
        Fun.protect
          ~finally:(fun () -> Pool.shutdown pool)
          (fun () ->
            Pool.run pool (fun () ->
                let l =
                  Rpc.serve
                    (module Pool)
                    pool (Reactor.blocking ())
                    (Unix.ADDR_INET (Unix.inet_addr_loopback, 0))
                    ~handler:(fun payload ->
                      let id = Int64.to_int (Bytes.get_int64_be payload 0) in
                      Unix.sleepf fetch_latency;
                      encode_links (W.Crawler.links web id))
                in
                Atomic.set addr_slot (Some (Listener.addr l));
                while not (Atomic.get stop) do
                  Unix.sleepf 0.002
                done;
                Listener.shutdown ~grace:1. l)))
  in
  let rec await_addr () =
    match Atomic.get addr_slot with
    | Some a -> a
    | None ->
        Unix.sleepf 0.001;
        await_addr ()
  in
  { stop; domain; addr = await_addr () }

let stop_page_server s =
  Atomic.set s.stop true;
  Domain.join s.domain

(* Parallel crawl from page 0, generic over the pool and the fetch
   strategy; called from within [Pool.run].  The frontier is a shared
   visited array claimed by CAS, so each page is fetched exactly once. *)
let crawl (type p) (module Pool : P.POOL with type t = p) (pool : p) ~fetch =
  let visited = Array.init pages (fun _ -> Atomic.make false) in
  let count = Atomic.make 0 in
  let checksum = Atomic.make 0 in
  let rec visit i =
    let links = fetch i in
    ignore (W.Fib.seq parse_work : int);
    Atomic.incr count;
    ignore (Atomic.fetch_and_add checksum ((i + 1) * 2654435761 land 0xFFFFFFF) : int);
    let kids =
      List.filter_map
        (fun j ->
          if Atomic.compare_and_set visited.(j) false true then
            Some (Pool.async pool (fun () -> visit j))
          else None)
        links
    in
    List.iter (fun t -> Pool.await pool t) kids
  in
  Atomic.set visited.(0) true;
  visit 0;
  (Atomic.get count, Atomic.get checksum)

let crawl_latency_hiding addr =
  let pool = Lhws_pool.create ~workers:2 () in
  Fun.protect
    ~finally:(fun () -> Lhws_pool.shutdown pool)
    (fun () ->
      let rt =
        Reactor.fibers
          ~register:(fun ~pending ~syscalls poll ->
            Lhws_pool.register_poller pool ?pending ?syscalls poll)
          ()
      in
      let module Pool = P.Lhws_instance in
      let t0 = Unix.gettimeofday () in
      let v, c =
        Pool.run pool (fun () ->
            (* connect inside run ([close] awaits the reader's end
               through the pool), crawl with pipelined calls round-robin
               over the connections *)
            let clients =
              Array.init client_conns (fun _ -> Rpc.Client.connect (module Pool) pool rt addr)
            in
            Fun.protect
              ~finally:(fun () -> Array.iter Rpc.Client.close clients)
              (fun () ->
                let fetch i =
                  decode_links
                    (Pool.await pool
                       (Rpc.Client.call clients.(i mod client_conns) (encode_id i)))
                in
                crawl (module Pool) pool ~fetch))
      in
      (v, c, Unix.gettimeofday () -. t0))

let crawl_blocking addr =
  let module Pool = P.Ws_instance in
  let pool = Pool.create ~workers:2 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let rt = Reactor.blocking () in
      let connect () =
        let fd = Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
        (try Unix.connect fd addr
         with e ->
           (try Unix.close fd with Unix.Unix_error _ -> ());
           raise e);
        Conn.create rt fd
      in
      let conns = Array.init client_conns (fun _ -> connect ()) in
      let mus = Array.init client_conns (fun _ -> Mutex.create ()) in
      Fun.protect
        ~finally:(fun () -> Array.iter Conn.close conns)
        (fun () ->
          let fetch i =
            let k = i mod client_conns in
            Mutex.lock mus.(k);
            Fun.protect
              ~finally:(fun () -> Mutex.unlock mus.(k))
              (fun () -> decode_links (Rpc.call_sync conns.(k) (encode_id i)))
          in
          let t0 = Unix.gettimeofday () in
          let v, c = Pool.run pool (fun () -> crawl (module Pool) pool ~fetch) in
          (v, c, Unix.gettimeofday () -. t0)))

let () =
  let web = W.Crawler.make_web ~seed:7 ~pages ~max_links:4 in
  Format.printf "synthetic web behind a socket: %d pages, %d reachable, %.0f ms per fetch@."
    pages (W.Crawler.reachable web) (fetch_latency *. 1000.);
  let server = start_page_server web in
  Fun.protect
    ~finally:(fun () -> stop_page_server server)
    (fun () ->
      let v1, c1, dt1 = crawl_latency_hiding server.addr in
      let v2, c2, dt2 = crawl_blocking server.addr in
      assert (v1 = W.Crawler.reachable web);
      assert (v1 = v2);
      assert (c1 = c2);
      Format.printf "crawled %d pages (checksum %d)@." v1 c1;
      Format.printf "  latency-hiding crawl (pipelined RPC): %.3f s@." dt1;
      Format.printf "  blocking crawl (one trip at a time):  %.3f s  (%.1fx slower)@." dt2
        (dt2 /. dt1))
