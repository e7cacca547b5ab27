module Pool_intf = Lhws_workloads.Pool_intf
module Promise = Lhws_runtime.Promise

(* Wire format (all integers big-endian):
     request   4B payload length | 8B request id | payload
     response  4B payload length | 8B request id | 1B status | payload
   status 0 = Ok (payload is the result), 1 = handler raised (payload is
   the exception text, surfaced to the caller as Net.Remote_error). *)

let max_frame = 8 * 1024 * 1024

let check_len len =
  if len < 0 || len > max_frame then
    raise (Net.Protocol_error (Printf.sprintf "frame length %d out of range" len))

(* Frames are header+payload iovs, not copies: the vectored write path
   sends both in one syscall, so there is no reason to blit the payload
   into a fresh buffer first. *)
let request_frame ~id payload =
  let len = Bytes.length payload in
  if len > max_frame then invalid_arg "Rpc: request payload exceeds max_frame";
  let hdr = Bytes.create 12 in
  Bytes.set_int32_be hdr 0 (Int32.of_int len);
  Bytes.set_int64_be hdr 4 (Int64.of_int id);
  if len = 0 then [ hdr ] else [ hdr; payload ]

let response_frame ~id ~status payload =
  let len = Bytes.length payload in
  if len > max_frame then invalid_arg "Rpc: response payload exceeds max_frame";
  let hdr = Bytes.create 13 in
  Bytes.set_int32_be hdr 0 (Int32.of_int len);
  Bytes.set_int64_be hdr 4 (Int64.of_int id);
  Bytes.set_uint8 hdr 12 status;
  if len = 0 then [ hdr ] else [ hdr; payload ]

(* --- incremental frame decoding ---

   Bytes go in as they arrive, in chunks of any size, and each completed
   frame comes out through [frame], from wherever {!Conn.start_reader}
   delivers them: the reactor pump in fiber mode, a reader task on
   blocking reactors.  The server decodes requests (a 12-byte header),
   the client responses (13 bytes: the status byte follows the id). *)
module Decoder = struct
  type t = {
    hdr : Bytes.t;  (* 12 or 13 bytes *)
    mutable have : int;  (* header bytes so far; the header's length once in the payload *)
    mutable payload : Bytes.t;
    mutable filled : int;
  }

  let create ~hdr_len = { hdr = Bytes.create hdr_len; have = 0; payload = Bytes.empty; filled = 0 }

  (* A frame has started but not finished: EOF now is the peer dying
     mid-frame.  The distinction matters to retry policies: a peer that
     died mid-frame is a transient endpoint failure (retryable on a
     fresh connection), while Protocol_error — reserved for bytes that
     do not parse — means a replay would resend the same garbage. *)
  let mid_frame d = d.have > 0

  (* Bytes that finish the header, or the payload once it has one. *)
  let wanted d =
    if d.have < Bytes.length d.hdr then Bytes.length d.hdr - d.have
    else Bytes.length d.payload - d.filled

  (* [frame id status payload]; a request's status is 0. *)
  let rec feed d buf pos len ~frame =
    let hlen = Bytes.length d.hdr in
    if d.have < hlen then begin
      if len > 0 then begin
        let k = min len (hlen - d.have) in
        Bytes.blit buf pos d.hdr d.have k;
        d.have <- d.have + k;
        if d.have = hlen then begin
          let plen = Int32.to_int (Bytes.get_int32_be d.hdr 0) in
          check_len plen;
          d.payload <- Bytes.create plen;
          d.filled <- 0
        end;
        feed d buf (pos + k) (len - k) ~frame
      end
    end
    else begin
      let k = min len (Bytes.length d.payload - d.filled) in
      Bytes.blit buf pos d.payload d.filled k;
      d.filled <- d.filled + k;
      if d.filled = Bytes.length d.payload then begin
        let id = Int64.to_int (Bytes.get_int64_be d.hdr 4) in
        let status = if hlen > 12 then Bytes.get_uint8 d.hdr 12 else 0 in
        let payload = d.payload in
        d.have <- 0;
        d.payload <- Bytes.empty;
        frame id status payload
      end;
      if len > k then feed d buf (pos + k) (len - k) ~frame
    end
end

(* --- server --- *)

(* Per-connection cap on dispatched-but-unanswered requests.  [max_frame]
   bounds each frame, but a client that pipelines without reading
   responses could otherwise queue unbounded tasks and response buffers;
   past the cap the reader is held, so backpressure reaches the peer
   through TCP. *)
let max_pipeline = 256

(* Frames decoded from one chunk wait in [frames] until the pipeline
   has room; the reader is held meanwhile, so at most one chunk's worth
   waits.  A frame length out of range queues [None] behind the good
   frames before it, which are still answered.  Each frame becomes a
   pool task: responses go out in completion order, ids let the client
   demultiplex — this is where packet arrival order feeds the
   scheduler. *)
let serve_handler (type p) (module P : Pool_intf.POOL with type t = p) (pool : p)
    ?dispatch ~handler conn =
  let ob = Outbox.create ~await:(P.await pool) conn in
  let decoder = Decoder.create ~hdr_len:12 in
  let frames = Queue.create () in
  let step s =
    match Queue.take_opt frames with
    | None -> `Need
    | Some None -> `Stop
    | Some (Some (id, payload)) ->
        Session.spawn s ?dispatch (fun () ->
            let status, resp =
              match handler payload with
              | v -> (0, v)
              | exception e -> (1, Bytes.of_string (Printexc.to_string e))
            in
            (* A response that cannot be written is not just this
               request's problem: the client is now owed a frame it
               will never get, so the stream contract is broken.  The
               outbox closes the connection — the client sees EOF and
               can retry on a fresh one — rather than silently dropping
               the frame on a live socket. *)
            try Outbox.send ob (response_frame ~id ~status resp)
            with Net.Closed | Net.Timeout -> ());
        `Next
  in
  Session.serve
    (module P)
    pool conn ~max_pipeline
    ~feed:(fun buf pos len ->
      try
        Decoder.feed decoder buf pos len ~frame:(fun id _ payload ->
            Queue.push (Some (id, payload)) frames)
      with Net.Protocol_error _ -> Queue.push None frames)
    ~step
    ~ended:(fun _ _ -> ())

let serve (type p) (module P : Pool_intf.POOL with type t = p) (pool : p) rt ?config
    ?dispatch addr ~handler =
  Listener.serve (module P) pool rt ?config addr
    ~handler:(fun conn -> serve_handler (module P) pool ?dispatch ~handler conn)

(* --- pipelined client --- *)

module Client = struct
  type t = {
    conn : Conn.t;
    ob : Outbox.t;
    pending_mu : Mutex.t;
    pending : (int, Bytes.t Promise.t) Hashtbl.t;
    next_id : int Atomic.t;
    closed : bool Atomic.t;
    decoder : Decoder.t;
    reader_done : unit Promise.t;  (* fulfilled once the reader has stopped *)
    await : unit Promise.t -> unit;  (* the pool's [await] *)
  }

  let take_pending c id =
    Mutex.lock c.pending_mu;
    let p = Hashtbl.find_opt c.pending id in
    Hashtbl.remove c.pending id;
    Mutex.unlock c.pending_mu;
    p

  let fail_all c e =
    Mutex.lock c.pending_mu;
    let ps = Hashtbl.fold (fun _ p acc -> p :: acc) c.pending [] in
    Hashtbl.reset c.pending;
    Mutex.unlock c.pending_mu;
    List.iter (fun p -> try Promise.fulfill p (Error e) with Invalid_argument _ -> ()) ps

  (* The client is dead: mark it closed {e before} draining, so a racing
     [call] that inserts its promise after the drain observes [closed] on
     its re-check and fails itself — otherwise nothing would ever resolve
     that promise and the caller's await parks forever.  The connection
     itself must be closed here too: a later [close] call is a no-op
     (its closed-CAS loses to ours), so skipping it would leak the fd —
     and the peer's handler, which never sees EOF, stays live until it
     saturates the listener's [max_conns] gate. *)
  let fail_conn c e =
    Atomic.set c.closed true;
    Conn.close c.conn;
    fail_all c e

  let resolve c id status payload =
    match take_pending c id with
    | None -> ()  (* response to a call we already failed *)
    | Some p ->
        let r =
          if status = 0 then Ok payload
          else Error (Net.Remote_error (Bytes.to_string payload))
        in
        (try Promise.fulfill p r with Invalid_argument _ -> ())

  let on_data c buf pos len = Decoder.feed c.decoder buf pos len ~frame:(resolve c)

  (* The reader stopped: [None] is end of stream.  EOF mid-frame means
     the server died with responses owed; pending calls then fail with
     Peer_closed, so retry policies know the failure is
     endpoint-transient, not protocol-fatal.  A silent connection past
     [read_timeout] fails them with Closed. *)
  let on_end c e =
    let e =
      match e with
      | None -> if Decoder.mid_frame c.decoder then Net.Peer_closed else Net.Closed
      | Some (Net.Closed | Net.Timeout | End_of_file) -> Net.Closed
      | Some e -> e
    in
    fail_conn c e;
    Promise.fulfill c.reader_done (Ok ())

  let connect (type p) (module P : Pool_intf.POOL with type t = p) (pool : p) rt
      ?read_timeout ?write_timeout addr =
    let fd = Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
    (try Unix.connect fd addr
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    let conn = Conn.create rt ?read_timeout ?write_timeout fd in
    let c =
      {
        conn;
        ob = Outbox.create ~await:(P.await pool) conn;
        pending_mu = Mutex.create ();
        pending = Hashtbl.create 32;
        next_id = Atomic.make 1;
        closed = Atomic.make false;
        decoder = Decoder.create ~hdr_len:13;
        reader_done = Promise.create ();
        await = P.await pool;
      }
    in
    Conn.start_reader conn
      ~spawn:(fun f -> ignore (P.async pool f : unit Promise.t))
      ~on_data:(on_data c) ~on_end:(on_end c);
    c

  let call c payload =
    if Atomic.get c.closed then raise Net.Closed;
    let id = Atomic.fetch_and_add c.next_id 1 in
    let p = Promise.create () in
    Mutex.lock c.pending_mu;
    Hashtbl.replace c.pending id p;
    Mutex.unlock c.pending_mu;
    (* Re-check after publishing: if the reader ended between the first
       check and our insert, its drain may already have swept [pending]
       and would never see [p].  Any close after this point finds [p]
       there. *)
    if Atomic.get c.closed then begin
      ignore (take_pending c id : _ option);
      raise Net.Closed
    end;
    (try Outbox.send c.ob (request_frame ~id payload)
     with e ->
       ignore (take_pending c id : _ option);
       raise e);
    p

  (* [close] waits for the reader to stop, because it holds a reference
     on the connection while registered (fiber mode) or parked in a read
     (a blocking reader task): the descriptor must not outlive the
     client.  Closing the conn first makes the reader's next read see
     EOF, so the wait is bounded.  Never call [close] from the reader's
     path — a call's promise waiter runs there in fiber mode; it would
     wait on itself ([fail_conn] is the internal teardown). *)
  let close c =
    if Atomic.compare_and_set c.closed false true then begin
      Conn.close c.conn;  (* ends the reader, which fails pending *)
      fail_all c Net.Closed
    end;
    c.await c.reader_done
end

(* --- synchronous round-trip, for blocking pools --- *)

let call_sync conn payload =
  Conn.writev_all conn (request_frame ~id:0 payload);
  let d = Decoder.create ~hdr_len:13 and reply = ref None in
  let buf = Bytes.create 4096 in
  while Option.is_none !reply do
    (* Never past the reply: the caller owns the rest of the stream. *)
    match Conn.read conn buf 0 (min 4096 (Decoder.wanted d)) with
    | 0 -> raise (if Decoder.mid_frame d then Net.Peer_closed else Net.Closed)
    | n -> Decoder.feed d buf 0 n ~frame:(fun _ status p -> reply := Some (status, p))
  done;
  match !reply with
  | Some (0, resp) -> resp
  | Some (_, err) -> raise (Net.Remote_error (Bytes.to_string err))
  | None -> assert false
