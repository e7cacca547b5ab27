(* The fetch_mr data server: plain Unix, one thread, at most two
   connections.  It speaks the Rpc wire format (request frame
   [4B length | 8B id | payload], response frame adds a status byte) and
   holds each reply for the δ carried in the request, so the delay the
   program under test has to hide is set by the seeded inputs, not by
   the server's own speed.

   Request payload: [8B key | 4B δ µs].  Reply payload: [8B value], and
   in the traced run also the receive and send times as float bits.

   stdin commands: "LATE" replies "LATE <p50_us> <p99_us> <count>" over
   the replies sent since the last LATE, where lateness is how long after
   its due time a reply went out; end of file stops the server. *)

open Bench_inputs

let now = Bench_clock.now

(* A growable byte buffer with a consumed prefix. *)
module Bbuf = struct
  type t = { mutable b : Bytes.t; mutable len : int }

  let create n = { b = Bytes.create n; len = 0 }

  let reserve t n =
    if t.len + n > Bytes.length t.b then begin
      let nb = Bytes.create (max (2 * Bytes.length t.b) (t.len + n)) in
      Bytes.blit t.b 0 nb 0 t.len;
      t.b <- nb
    end

  let consume t n =
    Bytes.blit t.b n t.b 0 (t.len - n);
    t.len <- t.len - n
end

type conn = { fd : Unix.file_descr; inb : Bbuf.t; out : Bbuf.t; mutable closed : bool }
type pending = { due : float; c : conn; id : int; key : int; recv : float }

(* Binary min-heap of pending replies by due time. *)
module Heap = struct
  type t = { mutable a : pending array; mutable n : int }

  let create () = { a = [||]; n = 0 }
  let swap a i j =
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x

  let push h p =
    if h.n = Array.length h.a then begin
      let na = Array.make (max 64 (2 * h.n)) p in
      Array.blit h.a 0 na 0 h.n;
      h.a <- na
    end;
    h.a.(h.n) <- p;
    let rec up i =
      let parent = (i - 1) / 2 in
      if i > 0 && h.a.(i).due < h.a.(parent).due then begin
        swap h.a i parent;
        up parent
      end
    in
    up h.n;
    h.n <- h.n + 1

  let top h = if h.n = 0 then None else Some h.a.(0)

  let pop h =
    h.n <- h.n - 1;
    h.a.(0) <- h.a.(h.n);
    let rec down i =
      let l = (2 * i) + 1 and r = (2 * i) + 2 in
      let m = if l < h.n && h.a.(l).due < h.a.(i).due then l else i in
      let m = if r < h.n && h.a.(r).due < h.a.(m).due then r else m in
      if m <> i then begin
        swap h.a i m;
        down m
      end
    in
    down 0
end

let max_conns = 2

let run ~trace =
  let lfd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 8;
  (match Unix.getsockname lfd with
  | Unix.ADDR_INET (_, port) -> Printf.printf "PORT %d\n%!" port
  | Unix.ADDR_UNIX _ -> assert false);
  let conns = ref [] in
  let heap = Heap.create () in
  let late = Stats.Samples.create () |> ref in
  let stdin_buf = Buffer.create 64 in
  let rbuf = Bytes.create 65536 in
  let running = ref true in
  let close_conn c =
    c.closed <- true;
    conns := List.filter (fun x -> x != c) !conns;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  in
  let on_command = function
    | "LATE" ->
        let a = Stats.sorted (Stats.Samples.to_array !late) in
        Printf.printf "LATE %.3f %.3f %d\n%!"
          (Stats.percentile_sorted a 50.)
          (Stats.percentile_sorted a 99.)
          (Array.length a);
        late := Stats.Samples.create ()
    | "QUIT" -> running := false
    | l -> Printf.printf "ERR unknown command %S\n%!" l
  in
  let read_stdin () =
    match Unix.read Unix.stdin rbuf 0 (Bytes.length rbuf) with
    | 0 -> running := false
    | n ->
        for i = 0 to n - 1 do
          match Bytes.get rbuf i with
          | '\n' ->
              on_command (Buffer.contents stdin_buf);
              Buffer.clear stdin_buf
          | ch -> Buffer.add_char stdin_buf ch
        done
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let accept () =
    match Unix.accept ~cloexec:true lfd with
    | fd, _ ->
        Unix.set_nonblock fd;
        Unix.setsockopt fd Unix.TCP_NODELAY true;
        conns := { fd; inb = Bbuf.create 65536; out = Bbuf.create 65536; closed = false } :: !conns
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  let parse c t =
    let b = c.inb.Bbuf.b in
    let rec go off =
      if c.inb.Bbuf.len - off >= 12 then begin
        let len = Int32.to_int (Bytes.get_int32_be b off) in
        if c.inb.Bbuf.len - off >= 12 + len then begin
          let id = Int64.to_int (Bytes.get_int64_be b (off + 4)) in
          let key = Int64.to_int (Bytes.get_int64_be b (off + 12)) in
          let delta_us = Int32.to_int (Bytes.get_int32_be b (off + 20)) in
          Heap.push heap { due = t +. (float_of_int delta_us *. 1e-6); c; id; key; recv = t };
          go (off + 12 + len)
        end
        else off
      end
      else off
    in
    Bbuf.consume c.inb (go 0)
  in
  let read_conn c =
    Bbuf.reserve c.inb 65536;
    match Unix.read c.fd c.inb.Bbuf.b c.inb.Bbuf.len 65536 with
    | 0 -> close_conn c
    | n ->
        let t = now () in
        c.inb.Bbuf.len <- c.inb.Bbuf.len + n;
        parse c t
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> close_conn c
  in
  let flush c =
    if c.out.Bbuf.len > 0 && not c.closed then
      match Unix.single_write c.fd c.out.Bbuf.b 0 c.out.Bbuf.len with
      | n -> Bbuf.consume c.out n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> close_conn c
  in
  let plen = if trace then 24 else 8 in
  let fire () =
    let t = now () in
    let rec go () =
      match Heap.top heap with
      | Some p when p.due <= t ->
          Heap.pop heap;
          if not p.c.closed then begin
            let o = p.c.out in
            Bbuf.reserve o (13 + plen);
            let b = o.Bbuf.b and at = o.Bbuf.len in
            Bytes.set_int32_be b at (Int32.of_int plen);
            Bytes.set_int64_be b (at + 4) (Int64.of_int p.id);
            Bytes.set_uint8 b (at + 12) 0;
            Bytes.set_int64_be b (at + 13) (Int64.of_int (Inputs.value_of_key p.key));
            if trace then begin
              Bytes.set_int64_be b (at + 21) (Int64.bits_of_float p.recv);
              Bytes.set_int64_be b (at + 29) (Int64.bits_of_float (now ()))
            end;
            o.Bbuf.len <- at + 13 + plen;
            Stats.Samples.add !late ((t -. p.due) *. 1e6)
          end;
          go ()
      | _ -> ()
    in
    go ();
    List.iter flush !conns
  in
  while !running do
    let timeout =
      match Heap.top heap with Some p -> Float.max 0. (p.due -. now ()) | None -> 1.0
    in
    let rd =
      (Unix.stdin :: (if List.length !conns < max_conns then [ lfd ] else []))
      @ List.map (fun c -> c.fd) !conns
    in
    let wr = List.filter_map (fun c -> if c.out.Bbuf.len > 0 then Some c.fd else None) !conns in
    let r, w =
      match Unix.select rd wr [] timeout with
      | r, w, _ -> (r, w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
    in
    if List.mem Unix.stdin r then read_stdin ();
    if List.mem lfd r then accept ();
    List.iter (fun c -> if List.mem c.fd r then read_conn c) !conns;
    List.iter (fun c -> if List.mem c.fd w then flush c) !conns;
    fire ()
  done;
  List.iter close_conn !conns;
  Unix.close lfd
