(* The program under test: a 2-worker latency-hiding pool serving one
   workload through the public lhws APIs.  The generator starts it,
   reads "READY <port>" from its stdout, and then drives it with line
   commands on stdin:

     STATS     reply "STATS <cpu_s> <minor_words> <promoted_words>
               <major_collections> <tasks_run> <steals> <failed_steals>
               <tasks_stolen> <suspensions> <resumes> <io_syscalls>
               <vmhwm_kb>"
     ITEMS <n> followed by n lines "<key> <delta_us> <fib_n>" (fetch)
     RUN       one map-reduce over the items (fetch); reply
               "DONE <checksum> <makespan_s>", then either
               "LAT <µs> ..." with each item's latency, or (traced) one
               "S <start> <resolved> <resumed> <end> <ds_recv> <ds_send>"
               line per item
     QUIT      drain and exit (end of file does the same)

   Usage:  sut.exe http [--trace]
           sut.exe fetch <data-server-port> [--trace]

   With --trace, HTTP responses carry the handler's entry and exit times
   ("X-Bench-T") and echo the request's "X-Bench-Id"; fetch replies
   report per-item timestamps.  Nothing else differs. *)

open Lhws_runtime
module W = Lhws_workloads
module Pool = W.Pool_intf.Lhws_instance
module Reactor = Lhws_net.Reactor
module Conn = Lhws_net.Conn
module Net = Lhws_net.Net
module Http = Lhws_net.Http
module Rpc = Lhws_net.Rpc

let now = Bench_clock.now
let loopback port = Unix.ADDR_INET (Unix.inet_addr_loopback, port)

let reply fmt =
  Printf.ksprintf
    (fun s ->
      print_string s;
      print_char '\n';
      flush stdout)
    fmt

let vmhwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0
        | l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
        | _ -> go ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) go

let stats_line p =
  let t = Unix.times () in
  let g = Gc.quick_stat () in
  let s = Lhws_pool.stats p in
  reply "STATS %.6f %.0f %.0f %d %d %d %d %d %d %d %d %d"
    (t.Unix.tms_utime +. t.Unix.tms_stime)
    g.Gc.minor_words g.Gc.promoted_words g.Gc.major_collections
    s.Scheduler_core.tasks_run s.steals s.failed_steals s.tasks_stolen s.suspensions
    s.resumes s.io_syscalls (vmhwm_kb ())

(* Lines from stdin, read through the reactor so the control fiber
   parks like any other connection instead of blocking its worker. *)
let line_reader rt =
  let c = Conn.create rt Unix.stdin in
  let buf = Bytes.create 65536 in
  let pos = ref 0 and len = ref 0 in
  let acc = Buffer.create 128 in
  let rec next () =
    if !pos < !len then begin
      let ch = Bytes.get buf !pos in
      incr pos;
      if ch = '\n' then begin
        let l = Buffer.contents acc in
        Buffer.clear acc;
        Some l
      end
      else begin
        Buffer.add_char acc ch;
        next ()
      end
    end
    else
      match Conn.read c buf 0 (Bytes.length buf) with
      | 0 -> None
      | n ->
          pos := 0;
          len := n;
          next ()
      | exception (Net.Closed | Net.Peer_closed) -> None
  in
  next

let with_pool f =
  Lhws_pool.with_pool ~workers:2 (fun p ->
      let rt =
        Reactor.fibers
          ~register:(fun ~pending ~syscalls poll ->
            Lhws_pool.register_poller p ?pending ?syscalls poll)
          ()
      in
      Pool.run p (fun () -> f p rt))

(* Serves commands until QUIT or end of file; [on_command] handles the
   workload's own ones. *)
let control p next_line ~on_command =
  let rec loop () =
    match next_line () with
    | None | Some "QUIT" -> ()
    | Some "STATS" ->
        stats_line p;
        loop ()
    | Some l ->
        on_command l;
        loop ()
  in
  loop ()

(* ---------- http_small / http_large ---------- *)

let plaintext = "Hello, World!"

let stamped ~trace handler =
  if not trace then handler
  else fun params req ->
    let t0 = now () in
    let r = handler params req in
    let t1 = now () in
    let id = Option.value (Http.header req "x-bench-id") ~default:"" in
    {
      r with
      Http.resp_headers =
        ("X-Bench-Id", id)
        :: ("X-Bench-T", Printf.sprintf "%.9f %.9f" t0 t1)
        :: r.Http.resp_headers;
    }

let router ~trace =
  Http.Router.create
    [
      Http.Router.route ~meth:"GET" "/plaintext"
        (stamped ~trace (fun _ _ -> Http.text plaintext));
      Http.Router.route ~meth:"POST" "/echo"
        (stamped ~trace (fun _ req -> Http.response req.Http.body));
    ]

let serve_http ~trace =
  with_pool (fun p rt ->
      let srv = Http.serve_router (module Pool) p rt (loopback 0) ~router:(router ~trace) in
      (match Http.addr srv with
      | Unix.ADDR_INET (_, port) -> reply "READY %d" port
      | Unix.ADDR_UNIX _ -> assert false);
      control p (line_reader rt) ~on_command:(fun l -> reply "ERR unknown command %S" l);
      Http.shutdown ~grace:1. srv)

(* ---------- fetch_mr ---------- *)

let mask = (1 lsl 60) - 1

(* One item's fetch request: key and δ, which the data server holds the
   reply for. *)
let payload key delta_us =
  let b = Bytes.create 12 in
  Bytes.set_int64_be b 0 (Int64.of_int key);
  Bytes.set_int32_be b 8 (Int32.of_int delta_us);
  b

let run_batch p clients ~trace (payloads, fib_n) =
  let n = Array.length payloads in
  let start = Array.make n 0. and resumed = Array.make n 0. and fin = Array.make n 0. in
  let resolved = Array.make n 0. and ds_recv = Array.make n 0. and ds_send = Array.make n 0. in
  let leaf i =
    let t0 = now () in
    let pr = Rpc.Client.call clients.(i land 1) payloads.(i) in
    if trace && not (Promise.add_waiter pr (fun () -> resolved.(i) <- now ())) then
      resolved.(i) <- now ();
    let r = Pool.await p pr in
    let t1 = now () in
    let f = W.Fib.seq fib_n.(i) in
    start.(i) <- t0;
    resumed.(i) <- t1;
    fin.(i) <- now ();
    if trace then begin
      ds_recv.(i) <- Int64.float_of_bits (Bytes.get_int64_be r 8);
      ds_send.(i) <- Int64.float_of_bits (Bytes.get_int64_be r 16)
    end;
    (Int64.to_int (Bytes.get_int64_be r 0) + f) land mask
  in
  let t0 = now () in
  let sum =
    Pool.parallel_map_reduce p ~lo:0 ~hi:n ~map:leaf
      ~combine:(fun a b -> (a + b) land mask)
      ~id:0
  in
  let t1 = now () in
  reply "DONE %d %.9f" sum (t1 -. t0);
  if trace then
    for i = 0 to n - 1 do
      reply "S %.9f %.9f %.9f %.9f %.9f %.9f" start.(i) resolved.(i) resumed.(i) fin.(i)
        ds_recv.(i) ds_send.(i)
    done
  else begin
    let b = Buffer.create (8 * n) in
    Buffer.add_string b "LAT";
    Array.iteri
      (fun i s -> Buffer.add_string b (Printf.sprintf " %.1f" ((fin.(i) -. s) *. 1e6)))
      start;
    reply "%s" (Buffer.contents b)
  end

let serve_fetch ~trace ds_port =
  with_pool (fun p rt ->
      let clients =
        Array.init 2 (fun _ -> Rpc.Client.connect (module Pool) p rt (loopback ds_port))
      in
      reply "READY %d" ds_port;
      let next_line = line_reader rt in
      let items = ref ([||], [||]) in
      let read_items n =
        let parse _ =
          match next_line () with
          | Some l -> Scanf.sscanf l "%d %d %d" (fun k d f -> (payload k d, f))
          | None -> failwith "input ended inside ITEMS"
        in
        let a = Array.init n parse in
        items := (Array.map fst a, Array.map snd a)
      in
      control p next_line ~on_command:(fun l ->
          match String.split_on_char ' ' l with
          | [ "ITEMS"; n ] -> read_items (int_of_string n)
          | [ "RUN" ] -> (
              try run_batch p clients ~trace !items
              with e -> reply "ERR %s" (Printexc.to_string e))
          | _ -> reply "ERR unknown command %S" l);
      Array.iter Rpc.Client.close clients)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "http" :: rest -> serve_http ~trace:(List.mem "--trace" rest)
  | "fetch" :: port :: rest -> serve_fetch ~trace:(List.mem "--trace" rest) (int_of_string port)
  | _ ->
      prerr_endline "usage: sut.exe http [--trace] | sut.exe fetch <port> [--trace]";
      exit 2
