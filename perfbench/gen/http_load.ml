(* The HTTP load generator: pipelined keep-alive requests over
   non-blocking sockets, driven by one select loop in one thread.

   Requests are queued as byte chunks (an echo body is a slice of the
   seeded pattern, never copied); small chunks are gathered into one
   write.  Responses are parsed as they arrive and matched to requests
   in order; every body is compared byte for byte with what the request
   expects. *)

let now = Bench_clock.now

type req = {
  id : int;  (** echoed back in the traced run; -1 otherwise *)
  due : float;
  mutable sent : float;  (** first byte handed to the kernel *)
  exp : Bytes.t;  (** expected body: [exp_len] bytes at [exp_off] *)
  exp_off : int;
  exp_len : int;
}

type resp = {
  req : req;
  ok : bool;  (** status 200, body and (traced) id as expected *)
  done_at : float;  (** the response's last byte read *)
  h0 : float;  (** handler entry and exit, traced run only *)
  h1 : float;
}

type chunk = { buf : Bytes.t; off : int; len : int; first_of : req option }

type conn = {
  fd : Unix.file_descr;
  outq : chunk Queue.t;
  mutable out_done : int;  (** bytes of the head chunk already written *)
  inflight : req Queue.t;
  head : Buffer.t;
  mutable crlf : int;  (** progress through the "\r\n\r\n" head terminator *)
  mutable body_left : int;  (** -1 while reading a head *)
  mutable body_pos : int;
  mutable body_ok : bool;
  mutable status : int;
  mutable resp_id : int;
  mutable h0 : float;
  mutable h1 : float;
}

exception Broken of string

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close fd;
     raise e);
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.set_nonblock fd;
  {
    fd;
    outq = Queue.create ();
    out_done = 0;
    inflight = Queue.create ();
    head = Buffer.create 256;
    crlf = 0;
    body_left = -1;
    body_pos = 0;
    body_ok = true;
    status = 0;
    resp_id = -1;
    h0 = 0.;
    h1 = 0.;
  }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()
let outstanding c = Queue.length c.inflight

let enqueue c r chunks =
  List.iteri
    (fun i (buf, off, len) ->
      Queue.push { buf; off; len; first_of = (if i = 0 then Some r else None) } c.outq)
    chunks;
  Queue.push r c.inflight

(* ---------- writing ---------- *)

let gather_buf = Bytes.create 65536

let stamp ch t =
  match ch.first_of with Some r when r.sent = 0. -> r.sent <- t | _ -> ()

let rec consume c k =
  if k > 0 then begin
    let ch = Queue.peek c.outq in
    let left = ch.len - c.out_done in
    if k >= left then begin
      ignore (Queue.pop c.outq);
      c.out_done <- 0;
      consume c (k - left)
    end
    else c.out_done <- c.out_done + k
  end

(* Writes as much of the queue as the socket takes. *)
let rec flush c =
  if not (Queue.is_empty c.outq) then begin
    let t = now () in
    let first = Queue.peek c.outq in
    let buf, off, n =
      if Queue.length c.outq = 1 || first.len - c.out_done >= 16384 then begin
        stamp first t;
        (first.buf, first.off + c.out_done, first.len - c.out_done)
      end
      else begin
        let n = ref 0 in
        (try
           Queue.iter
             (fun ch ->
               let skip = if ch == first then c.out_done else 0 in
               let l = ch.len - skip in
               if !n + l > Bytes.length gather_buf then raise Exit;
               stamp ch t;
               Bytes.blit ch.buf (ch.off + skip) gather_buf !n l;
               n := !n + l)
             c.outq
         with Exit -> ());
        (gather_buf, 0, !n)
      end
    in
    match Unix.single_write c.fd buf off n with
    | k ->
        consume c k;
        if k = n then flush c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush c
    | exception Unix.Unix_error (e, _, _) -> raise (Broken (Unix.error_message e))
  end

(* ---------- reading ---------- *)

let head_complete c =
  let h = Buffer.contents c.head in
  Buffer.clear c.head;
  c.crlf <- 0;
  c.status <- (try int_of_string (String.sub h 9 3) with _ -> 0);
  c.resp_id <- -1;
  c.h0 <- 0.;
  c.h1 <- 0.;
  let cl = ref 0 in
  List.iter
    (fun line ->
      if line <> "" then
        match (line.[0], String.index_opt line ':') with
        | ('C' | 'c' | 'X' | 'x'), Some i -> (
            let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
            match String.lowercase_ascii (String.sub line 0 i) with
            | "content-length" -> cl := int_of_string v
            | "x-bench-id" -> c.resp_id <- Option.value (int_of_string_opt v) ~default:(-1)
            | "x-bench-t" ->
                Scanf.sscanf v "%f %f" (fun a b ->
                    c.h0 <- a;
                    c.h1 <- b)
            | _ -> ())
        | _ -> ())
    (String.split_on_char '\n' h);
  c.body_left <- !cl;
  c.body_pos <- 0;
  c.body_ok <- true

let complete c t ~on_resp =
  if Queue.is_empty c.inflight then raise (Broken "response without a request");
  let r = Queue.pop c.inflight in
  let ok =
    c.status = 200 && c.body_ok && c.body_pos = r.exp_len && (r.id < 0 || c.resp_id = r.id)
  in
  c.body_left <- -1;
  on_resp { req = r; ok; done_at = t; h0 = c.h0; h1 = c.h1 }

(* Compares [k] body bytes with the expected ones, 8 at a time. *)
let check c b off k =
  if Queue.is_empty c.inflight then raise (Broken "response without a request");
  let r = Queue.peek c.inflight in
  if c.body_pos + k > r.exp_len then c.body_ok <- false
  else if c.body_ok then begin
    let e = r.exp and eo = r.exp_off + c.body_pos in
    let i = ref 0 in
    while !i + 8 <= k && c.body_ok do
      if not (Int64.equal (Bytes.get_int64_ne b (off + !i)) (Bytes.get_int64_ne e (eo + !i)))
      then c.body_ok <- false;
      i := !i + 8
    done;
    while !i < k && c.body_ok do
      if Bytes.unsafe_get b (off + !i) <> Bytes.unsafe_get e (eo + !i) then c.body_ok <- false;
      incr i
    done
  end

let rec parse c b off len t ~on_resp =
  if len > 0 then
    if c.body_left < 0 then begin
      let stop = off + len in
      let i = ref off in
      while !i < stop && c.crlf < 4 do
        (c.crlf <-
           match (c.crlf, Bytes.unsafe_get b !i) with
           | (0 | 2), '\r' -> c.crlf + 1
           | (1 | 3), '\n' -> c.crlf + 1
           | _, '\r' -> 1
           | _ -> 0);
        incr i
      done;
      Buffer.add_subbytes c.head b off (!i - off);
      if c.crlf = 4 then begin
        head_complete c;
        if c.body_left = 0 then complete c t ~on_resp;
        parse c b !i (stop - !i) t ~on_resp
      end
    end
    else begin
      let k = min len c.body_left in
      check c b off k;
      c.body_left <- c.body_left - k;
      c.body_pos <- c.body_pos + k;
      if c.body_left = 0 then complete c t ~on_resp;
      parse c b (off + k) (len - k) t ~on_resp
    end

let rbuf = Bytes.create 65536

let read c ~on_resp =
  match Unix.read c.fd rbuf 0 (Bytes.length rbuf) with
  | 0 -> raise (Broken "the server closed the connection")
  | n -> parse c rbuf 0 n (now ()) ~on_resp
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (e, _, _) -> raise (Broken (Unix.error_message e))

(* One select round: write what is queued, read what arrived. *)
let pump conns ~timeout ~on_resp =
  let rd = Array.to_list (Array.map (fun c -> c.fd) conns) in
  let wr =
    Array.to_list conns
    |> List.filter_map (fun c -> if Queue.is_empty c.outq then None else Some c.fd)
  in
  match Unix.select rd wr [] timeout with
  | r, w, _ ->
      Array.iter (fun c -> if List.mem c.fd w then flush c) conns;
      Array.iter (fun c -> if List.mem c.fd r then read c ~on_resp) conns
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* ---------- the two load shapes ---------- *)

(* Open loop: request [i] is due at [t0 + arrivals.(i)] and goes out on
   connection [i mod 2] however many are still unanswered.  [on_late]
   gets each request's due time and how far behind it the generator
   queued the request.  Returns the number of requests still unanswered
   [grace] seconds after the last was due. *)
let open_loop conns ~t0 ~arrivals ~mk ~grace ~on_late ~on_resp =
  let n = Array.length arrivals in
  let i = ref 0 and pending = ref 0 in
  let deadline = t0 +. (if n = 0 then 0. else arrivals.(n - 1)) +. grace in
  let on_resp x =
    decr pending;
    on_resp x
  in
  while (!i < n || !pending > 0) && now () < deadline do
    let tn = now () in
    while !i < n && t0 +. arrivals.(!i) <= tn do
      let due = t0 +. arrivals.(!i) in
      on_late due (tn -. due);
      let r, chunks = mk due in
      enqueue conns.(!i land 1) r chunks;
      incr pending;
      incr i
    done;
    Array.iter flush conns;
    let timeout = if !i < n then Float.max 0. (t0 +. arrivals.(!i) -. now ()) else 0.01 in
    pump conns ~timeout ~on_resp
  done;
  !pending

(* Closed batch: [k] requests, at most [depth] unanswered per
   connection.  Returns the batch's makespan (first request queued to
   last response read) and how many requests went unanswered within
   [timeout] seconds. *)
let closed_batch conns ~k ~depth ~mk ~timeout ~on_resp =
  let t0 = now () in
  let issued = ref 0 and completed = ref 0 and last = ref t0 in
  let top_up () =
    Array.iter
      (fun c ->
        while outstanding c < depth && !issued < k do
          let r, chunks = mk (now ()) in
          enqueue c r chunks;
          incr issued
        done)
      conns
  in
  let on_resp x =
    incr completed;
    last := x.done_at;
    on_resp x
  in
  let deadline = t0 +. timeout in
  top_up ();
  while !completed < k && now () < deadline do
    Array.iter flush conns;
    pump conns ~timeout:0.01 ~on_resp;
    top_up ()
  done;
  (!last -. t0, k - !completed)
