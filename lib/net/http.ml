module Pool_intf = Lhws_workloads.Pool_intf
module Promise = Lhws_runtime.Promise

(* ------------------------------------------------------------------ *)
(* Messages                                                           *)
(* ------------------------------------------------------------------ *)

type version = [ `Http_1_0 | `Http_1_1 ]

type request = {
  meth : string;
  target : string;
  path : string;
  query : string;
  version : version;
  headers : (string * string) list;
  body : Bytes.t;
  keep_alive : bool;
}

let header req name = List.assoc_opt name req.headers

type response = {
  status : int;
  reason : string;
  resp_headers : (string * string) list;
  resp_body : Bytes.t;
}

let reason_phrase = function
  | 100 -> "Continue"
  | 200 -> "OK"
  | 201 -> "Created"
  | 202 -> "Accepted"
  | 204 -> "No Content"
  | 301 -> "Moved Permanently"
  | 302 -> "Found"
  | 304 -> "Not Modified"
  | 400 -> "Bad Request"
  | 403 -> "Forbidden"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 411 -> "Length Required"
  | 413 -> "Content Too Large"
  | 414 -> "URI Too Long"
  | 417 -> "Expectation Failed"
  | 429 -> "Too Many Requests"
  | 431 -> "Request Header Fields Too Large"
  | 500 -> "Internal Server Error"
  | 501 -> "Not Implemented"
  | 502 -> "Bad Gateway"
  | 503 -> "Service Unavailable"
  | 505 -> "HTTP Version Not Supported"
  | _ -> "Status"

let response ?(status = 200) ?(reason = "") ?(headers = []) body =
  { status; reason; resp_headers = headers; resp_body = body }

let text ?(status = 200) s =
  response ~status
    ~headers:[ ("content-type", "text/plain") ]
    (Bytes.of_string s)

(* ------------------------------------------------------------------ *)
(* Lexical helpers (RFC 9110 token / whitespace)                      *)
(* ------------------------------------------------------------------ *)

(* Parse failures carry the status code the server answers with before
   closing; the client translates them to [Net.Protocol_error]. *)
exception Parse_err of int * string

let parse_err status reason = raise (Parse_err (status, reason))

let is_tchar = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true
  | '!' | '#' | '$' | '%' | '&' | '\'' | '*' | '+' | '-' | '.' | '^' | '_' | '`'
  | '|' | '~' ->
      true
  | _ -> false

let is_token s =
  s <> "" && String.for_all is_tchar s

let trim_ows s =
  let n = String.length s in
  let i = ref 0 and j = ref n in
  while !i < !j && (s.[!i] = ' ' || s.[!i] = '\t') do incr i done;
  while !j > !i && (s.[!j - 1] = ' ' || s.[!j - 1] = '\t') do decr j done;
  if !i = 0 && !j = n then s else String.sub s !i (!j - !i)

(* Split a head block (no trailing CRLF) into lines.  A '\r' not
   followed by '\n' stays inside its line and is rejected by the line
   parsers below — bare-CR smuggling never silently splits a header. *)
let split_crlf s =
  let n = String.length s in
  let rec sep i =
    match String.index_from_opt s i '\r' with
    | Some j when j + 1 < n && s.[j + 1] = '\n' -> Some j
    | Some j when j + 1 < n -> sep (j + 1)
    | _ -> None
  in
  let rec go acc i =
    if i > n then List.rev acc
    else
      match sep i with
      | None -> List.rev (String.sub s i (n - i) :: acc)
      | Some j -> go (String.sub s i (j - i) :: acc) (j + 2)
  in
  go [] 0

let clean_line kind s =
  if String.contains s '\r' then parse_err 400 (kind ^ " contains a bare CR");
  s

(* "name: value" with no whitespace allowed before the colon (a
   smuggling vector: two hops disagreeing on where the name ends). *)
let parse_header_line line =
  let line = clean_line "header line" line in
  match String.index_opt line ':' with
  | None -> parse_err 400 "header line without a colon"
  | Some i ->
      let name = String.sub line 0 i in
      if not (is_token name) then parse_err 400 "invalid header field name";
      let value = trim_ows (String.sub line (i + 1) (String.length line - i - 1)) in
      (String.lowercase_ascii name, value)

let parse_header_lines lines =
  List.map
    (fun line ->
      if line <> "" && (line.[0] = ' ' || line.[0] = '\t') then
        parse_err 400 "obsolete line folding";
      parse_header_line line)
    lines

(* Comma-separated list membership, case-insensitive — for
   [Connection: keep-alive, te] style values. *)
let list_has value member =
  String.split_on_char ',' value
  |> List.exists (fun tok -> String.lowercase_ascii (trim_ows tok) = member)

let keep_alive_of ~version headers =
  let conn = List.filter (fun (n, _) -> n = "connection") headers in
  let has m = List.exists (fun (_, v) -> list_has v m) conn in
  if has "close" then false
  else match version with `Http_1_1 -> true | `Http_1_0 -> has "keep-alive"

(* All Content-Length occurrences — separate headers and comma-joined
   values alike — must be the same pure-digit string; anything else is
   request smuggling material and poisons the stream. *)
let content_length_of headers ~max_body =
  let values =
    List.concat_map
      (fun (n, v) ->
        if n <> "content-length" then []
        else List.map trim_ows (String.split_on_char ',' v))
      headers
  in
  match values with
  | [] -> None
  | v :: rest ->
      if not (String.for_all (function '0' .. '9' -> true | _ -> false) v) || v = ""
      then parse_err 400 "malformed content-length";
      if List.exists (fun v' -> v' <> v) rest then
        parse_err 400 "conflicting content-length values";
      if String.length v > 15 then parse_err 413 "content-length out of range";
      let n = int_of_string v in
      if n > max_body then parse_err 413 "body exceeds the configured limit";
      Some n

type framing = Fixed of int | Chunked

let framing_of headers ~max_body =
  let te = List.filter (fun (n, _) -> n = "transfer-encoding") headers in
  let cl = content_length_of headers ~max_body in
  match (te, cl) with
  | [], None -> Fixed 0
  | [], Some n -> Fixed n
  | _ :: _, Some _ ->
      (* The classic CL.TE desync: two intermediaries picking different
         framings see different request boundaries.  Refuse. *)
      parse_err 400 "content-length alongside transfer-encoding"
  | tes, None ->
      let codings =
        List.concat_map
          (fun (_, v) ->
            List.map (fun c -> String.lowercase_ascii (trim_ows c))
              (String.split_on_char ',' v))
          tes
      in
      if codings = [ "chunked" ] then Chunked
      else parse_err 501 "unsupported transfer-encoding"

(* ------------------------------------------------------------------ *)
(* Incremental HTTP/1.1 decoder                                       *)
(* ------------------------------------------------------------------ *)

(* One decoder for both directions: the server parses requests with it
   and {!Client} reads responses with it.  They share the buffer, the
   head scan, the [Fixed]/chunked body states, the limits and the
   trailer checks.  Only the start line ([head]) and the body rule
   ([framing]) differ. *)
module Parser = struct
  type error = { status : int; reason : string }

  type event = Need_more | Request of request | Failed of error

  (* A head decodes into the message itself with an empty body; the
     body states carry it until [with_body] completes it. *)
  type 'm state =
    | Scan_head
    | Body_fixed of 'm * int
    | Chunk_size of 'm * Buffer.t
    | Chunk_data of 'm * Buffer.t * int
    | Chunk_trailer of 'm * Buffer.t * int  (* trailer bytes consumed *)
    | Broken of error

  type 'm decoder = {
    mutable buf : Bytes.t;
    mutable pos : int;  (* consumed prefix *)
    mutable len : int;  (* filled prefix *)
    mutable scanned : int;  (* head-terminator scan high-water mark *)
    mutable st : 'm state;
    max_header : int;
    max_body : int;
    head : string -> 'm;
        (* the head block, without its final CRLF, into the body-less
           message *)
    framing : max_body:int -> 'm -> framing;
    with_body : 'm -> Bytes.t -> 'm;
  }

  type t = request decoder

  let make ~max_header ~max_body ~head ~framing ~with_body =
    {
      buf = Bytes.create 4096;
      pos = 0;
      len = 0;
      scanned = 0;
      st = Scan_head;
      max_header;
      max_body;
      head;
      framing;
      with_body;
    }

  let buffered t = t.len - t.pos
  let at_boundary t = (match t.st with Scan_head -> true | _ -> false) && buffered t = 0

  let feed t ?(off = 0) ?len src =
    let n = match len with Some n -> n | None -> Bytes.length src - off in
    if n < 0 || off < 0 || off + n > Bytes.length src then
      invalid_arg "Http.Parser.feed";
    match t.st with
    | Broken _ -> ()  (* poisoned stream: bytes are discarded *)
    | _ ->
        let cap = Bytes.length t.buf in
        if t.len + n > cap then begin
          (* Compact the consumed prefix first; grow only if the live
             region still does not fit. *)
          if t.pos > 0 then begin
            Bytes.blit t.buf t.pos t.buf 0 (t.len - t.pos);
            t.len <- t.len - t.pos;
            t.scanned <- max 0 (t.scanned - t.pos);
            t.pos <- 0
          end;
          if t.len + n > cap then begin
            let cap' =
              let c = ref (max 1 cap) in
              while t.len + n > !c do
                c := !c * 2
              done;
              !c
            in
            let b = Bytes.create cap' in
            Bytes.blit t.buf 0 b 0 t.len;
            t.buf <- b
          end
        end;
        Bytes.blit src off t.buf t.len n;
        t.len <- t.len + n

  (* Find "\r\n" at or after [from]; [None] if it is not buffered yet. *)
  let find_crlf t from =
    let rec go i =
      if i + 1 >= t.len then None
      else if Bytes.get t.buf i = '\r' && Bytes.get t.buf (i + 1) = '\n' then Some i
      else go (i + 1)
    in
    go (max from t.pos)

  let find_crlfcrlf t from =
    let rec go i =
      if i + 3 >= t.len then None
      else if
        Bytes.get t.buf i = '\r'
        && Bytes.get t.buf (i + 1) = '\n'
        && Bytes.get t.buf (i + 2) = '\r'
        && Bytes.get t.buf (i + 3) = '\n'
      then Some i
      else go (i + 1)
    in
    go (max from t.pos)

  let parse_request_line line =
    let line = clean_line "request line" line in
    match String.split_on_char ' ' line with
    | [ meth; target; version ] ->
        if not (is_token meth) then parse_err 400 "invalid method";
        if target = "" then parse_err 400 "empty request-target";
        let version =
          match version with
          | "HTTP/1.1" -> `Http_1_1
          | "HTTP/1.0" -> `Http_1_0
          | v when String.length v >= 5 && String.sub v 0 5 = "HTTP/" ->
              parse_err 505 ("unsupported protocol version " ^ v)
          | _ -> parse_err 400 "malformed request line"
        in
        (meth, target, version)
    | _ -> parse_err 400 "malformed request line"

  let request_head text =
    match split_crlf text with
    | [] -> parse_err 400 "empty head"
    | rline :: hlines ->
        let meth, target, version = parse_request_line rline in
        let headers = parse_header_lines hlines in
        let path, query =
          match String.index_opt target '?' with
          | None -> (target, "")
          | Some i ->
              ( String.sub target 0 i,
                String.sub target (i + 1) (String.length target - i - 1) )
        in
        {
          meth;
          target;
          path;
          query;
          version;
          headers;
          body = Bytes.empty;
          keep_alive = keep_alive_of ~version headers;
        }

  let response_head text =
    match split_crlf text with
    | [] -> parse_err 400 "empty head"
    | sline :: hlines ->
        let status, reason =
          match String.split_on_char ' ' sline with
          | version :: code :: rest when String.starts_with ~prefix:"HTTP/" version -> (
              match int_of_string_opt code with
              | Some s when s >= 100 && s <= 999 -> (s, String.concat " " rest)
              | _ -> parse_err 400 "malformed status code")
          | _ -> parse_err 400 "malformed status line"
        in
        let resp_headers = parse_header_lines hlines in
        ({ status; reason; resp_headers; resp_body = Bytes.empty } : response)

  (* A response has a body unless it answers a HEAD request or its
     status rules one out (1xx, 204, 304).  [head_only] is asked once
     per response head. *)
  let response_framing ~head_only ~max_body (r : response) =
    if head_only () || r.status < 200 || r.status = 204 || r.status = 304 then Fixed 0
    else framing_of r.resp_headers ~max_body

  let create ?(max_header_bytes = 16 * 1024) ?(max_body_bytes = 8 * 1024 * 1024) () =
    make ~max_header:max_header_bytes ~max_body:max_body_bytes ~head:request_head
      ~framing:(fun ~max_body r -> framing_of r.headers ~max_body)
      ~with_body:(fun r body -> { r with body })

  (* The client's limits: a 64 KiB head and no body cap. *)
  let responses ~head_only =
    make ~max_header:(64 * 1024) ~max_body:max_int ~head:response_head
      ~framing:(response_framing ~head_only)
      ~with_body:(fun r body -> { r with resp_body = body })

  (* Chunk-size lines are tiny ("<hex>[;ext]"); a kilobyte of slack
     covers any sane extension without letting a hostile peer buffer
     forever looking for CRLF. *)
  let max_chunk_line = 1024

  let parse_chunk_size line =
    let line = clean_line "chunk size line" line in
    let hex =
      match String.index_opt line ';' with
      | None -> trim_ows line
      | Some i -> trim_ows (String.sub line 0 i)
    in
    if hex = "" || String.length hex > 14
       || not
            (String.for_all
               (function 'a' .. 'f' | 'A' .. 'F' | '0' .. '9' -> true | _ -> false)
               hex)
    then parse_err 400 "malformed chunk size";
    int_of_string ("0x" ^ hex)

  (* Raised by [step] when the next message is not all buffered yet. *)
  exception Need

  (* The message is complete and [pos] is past it. *)
  let finish t m =
    t.st <- Scan_head;
    t.scanned <- t.pos;
    m

  let rec step t =
    match t.st with
    | Broken e -> parse_err e.status e.reason
    | Scan_head -> (
        match find_crlfcrlf t t.scanned with
        | None ->
            (* Remember how far we scanned (a terminator can still start
               in the last three bytes), and refuse heads that outgrow
               the limit before terminating. *)
            t.scanned <- max t.scanned (max t.pos (t.len - 3));
            if buffered t > t.max_header then
              parse_err 431 "head exceeds the configured limit";
            raise_notrace Need
        | Some i -> (
            let head_len = i + 4 - t.pos in
            if head_len > t.max_header then
              parse_err 431 "head exceeds the configured limit";
            let text = Bytes.sub_string t.buf t.pos (i - t.pos) in
            let m = t.head text in
            let framing = t.framing ~max_body:t.max_body m in
            t.pos <- i + 4;
            t.scanned <- t.pos;
            match framing with
            | Fixed 0 -> m
            | Fixed n ->
                t.st <- Body_fixed (m, n);
                step t
            | Chunked ->
                t.st <- Chunk_size (m, Buffer.create 256);
                step t))
    | Body_fixed (m, n) ->
        if buffered t < n then raise_notrace Need;
        let body = Bytes.sub t.buf t.pos n in
        t.pos <- t.pos + n;
        finish t (t.with_body m body)
    | Chunk_size (m, body) -> (
        match find_crlf t t.pos with
        | None ->
            if buffered t > max_chunk_line then
              parse_err 400 "chunk size line too long";
            raise_notrace Need
        | Some i ->
            if i - t.pos > max_chunk_line then
              parse_err 400 "chunk size line too long";
            let line = Bytes.sub_string t.buf t.pos (i - t.pos) in
            let size = parse_chunk_size line in
            if size > t.max_body || Buffer.length body + size > t.max_body then
              parse_err 413 "chunked body exceeds the configured limit";
            t.pos <- i + 2;
            t.st <-
              (if size = 0 then Chunk_trailer (m, body, 0)
               else Chunk_data (m, body, size));
            step t)
    | Chunk_data (m, body, n) ->
        (* Wait for the data plus its trailing CRLF: the boundary check
           below is what catches a peer whose chunk sizes lie. *)
        if buffered t < n + 2 then raise_notrace Need;
        Buffer.add_subbytes body t.buf t.pos n;
        if Bytes.get t.buf (t.pos + n) <> '\r' || Bytes.get t.buf (t.pos + n + 1) <> '\n'
        then parse_err 400 "chunk data not terminated by CRLF";
        t.pos <- t.pos + n + 2;
        t.st <- Chunk_size (m, body);
        step t
    | Chunk_trailer (m, body, consumed) -> (
        match find_crlf t t.pos with
        | None ->
            if consumed + buffered t > t.max_header then
              parse_err 431 "chunked trailer exceeds the configured limit";
            raise_notrace Need
        | Some i when i = t.pos ->
            (* Blank line: the chunked message ends.  Trailer fields
               above were validated and discarded. *)
            t.pos <- t.pos + 2;
            finish t (t.with_body m (Buffer.to_bytes body))
        | Some i ->
            let line = Bytes.sub_string t.buf t.pos (i - t.pos) in
            ignore (parse_header_line line : string * string);
            let consumed = consumed + (i + 2 - t.pos) in
            if consumed > t.max_header then
              parse_err 431 "chunked trailer exceeds the configured limit";
            t.pos <- i + 2;
            t.st <- Chunk_trailer (m, body, consumed);
            step t)

  (* The next message through [msg], [need] when it is not all buffered
     yet, or the stream's failure through [failed]: a parse error poisons
     the stream, and every later call fails the same way. *)
  let decode t ~msg ~need ~failed =
    match step t with
    | m -> msg m
    | exception Need -> need
    | exception Parse_err (status, reason) ->
        let e = { status; reason } in
        t.st <- Broken e;
        failed e

  let next t =
    decode t ~msg:(fun r -> Request r) ~need:Need_more ~failed:(fun e -> Failed e)

  let next_response t =
    decode t ~msg:Option.some ~need:None ~failed:(fun e ->
        raise (Net.Protocol_error e.reason))
end

(* ------------------------------------------------------------------ *)
(* Response serialization                                             *)
(* ------------------------------------------------------------------ *)

let day_name = [| "Sun"; "Mon"; "Tue"; "Wed"; "Thu"; "Fri"; "Sat" |]

let month_name =
  [| "Jan"; "Feb"; "Mar"; "Apr"; "May"; "Jun"; "Jul"; "Aug"; "Sep"; "Oct"; "Nov"; "Dec" |]

let imf_fixdate t =
  let tm = Unix.gmtime t in
  Printf.sprintf "%s, %02d %s %04d %02d:%02d:%02d GMT" day_name.(tm.Unix.tm_wday)
    tm.Unix.tm_mday month_name.(tm.Unix.tm_mon) (tm.Unix.tm_year + 1900)
    tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec

(* Every response carries a Date header; formatting one per response
   would dominate small-request serialization, so cache per second.
   Racing writers at a second boundary at worst format it twice. *)
let date_cache = Atomic.make (0., "")

let date_header () =
  let now = Unix.time () in
  let sec, str = Atomic.get date_cache in
  if sec = now && str <> "" then str
  else begin
    let s = imf_fixdate now in
    Atomic.set date_cache (now, s);
    s
  end

let reserved_header = function
  | "date" | "content-length" | "connection" -> true
  | _ -> false

(* Header block + body as an iov: the {!Outbox} hands batches of these
   to one [Conn.writev_all], so a burst of pipelined responses costs one
   gathering syscall. *)
let serialize ?(head_only = false) ~keep_alive r =
  let b = Buffer.create 256 in
  let reason = if r.reason = "" then reason_phrase r.status else r.reason in
  Buffer.add_string b "HTTP/1.1 ";
  Buffer.add_string b (string_of_int r.status);
  Buffer.add_char b ' ';
  Buffer.add_string b reason;
  Buffer.add_string b "\r\nDate: ";
  Buffer.add_string b (date_header ());
  Buffer.add_string b "\r\nContent-Length: ";
  Buffer.add_string b (string_of_int (Bytes.length r.resp_body));
  Buffer.add_string b
    (if keep_alive then "\r\nConnection: keep-alive" else "\r\nConnection: close");
  List.iter
    (fun (n, v) ->
      if not (reserved_header (String.lowercase_ascii n)) then begin
        Buffer.add_string b "\r\n";
        Buffer.add_string b n;
        Buffer.add_string b ": ";
        Buffer.add_string b v
      end)
    r.resp_headers;
  Buffer.add_string b "\r\n\r\n";
  let head = Buffer.to_bytes b in
  if head_only || Bytes.length r.resp_body = 0 then [ head ] else [ head; r.resp_body ]

(* ------------------------------------------------------------------ *)
(* Router                                                             *)
(* ------------------------------------------------------------------ *)

module Router = struct
  type params = (string * string) list

  type seg = Lit of string | Cap of string | Tail

  type route = {
    r_meth : string;
    r_segs : seg list;
    r_dispatch : ((unit -> unit) -> unit) option;
    r_handler : params -> request -> response;
  }

  let split_path p = String.split_on_char '/' p |> List.filter (fun s -> s <> "")

  let route ?dispatch ~meth pattern handler =
    if pattern = "" then invalid_arg "Http.Router.route: empty pattern";
    let segs =
      split_path pattern
      |> List.map (fun s ->
             if s = "*" then Tail
             else if String.length s > 1 && s.[0] = ':' then
               Cap (String.sub s 1 (String.length s - 1))
             else Lit s)
    in
    let rec check = function
      | [] | [ Tail ] -> ()
      | Tail :: _ -> invalid_arg "Http.Router.route: * must be the last segment"
      | _ :: tl -> check tl
    in
    check segs;
    { r_meth = meth; r_segs = segs; r_dispatch = dispatch; r_handler = handler }

  type t = { routes : route list; fallback : (request -> response) option }

  let create ?fallback routes = { routes; fallback }

  let match_segs segs path =
    let rec go acc segs path =
      match (segs, path) with
      | [], [] -> Some (List.rev acc)
      | [ Tail ], rest -> Some (List.rev (("*", String.concat "/" rest) :: acc))
      | Lit l :: tl, p :: ptl when l = p -> go acc tl ptl
      | Cap n :: tl, p :: ptl -> go ((n, p) :: acc) tl ptl
      | _ -> None
    in
    go [] segs path

  let dispatch_of t req =
    let psegs = split_path req.path in
    let rec find allow = function
      | [] ->
          let thunk =
            match t.fallback with
            | Some f -> fun () -> f req
            | None ->
                if allow <> [] then
                  let allow = String.concat ", " (List.rev allow) in
                  fun () ->
                    response ~status:405
                      ~headers:
                        [ ("allow", allow); ("content-type", "text/plain") ]
                      (Bytes.of_string "method not allowed\n")
                else fun () -> text ~status:404 "not found\n"
          in
          (None, thunk)
      | r :: tl -> (
          match match_segs r.r_segs psegs with
          | Some ps when r.r_meth = req.meth ->
              (r.r_dispatch, fun () -> r.r_handler ps req)
          | Some _ ->
              let allow = if List.mem r.r_meth allow then allow else r.r_meth :: allow in
              find allow tl
          | None -> find allow tl)
    in
    find [] t.routes
end

(* ------------------------------------------------------------------ *)
(* Oldest-pending-request age gauge                                   *)
(* ------------------------------------------------------------------ *)

(* Deadline-aware admission needs one number: how long ago was the
   oldest request we admitted and have not yet answered?  Admissions are
   FIFO by construction (ids increase with time), so a lazy-deletion
   queue gives it in O(1) amortized: completions mark their id done and
   drain the marked front, so the structure is bounded by the in-flight
   count even if the age is never read. *)
type age_gauge = {
  ag_mu : Mutex.t;
  ag_q : (int * float) Queue.t;  (* (id, admitted-at), oldest first *)
  ag_done : (int, unit) Hashtbl.t;  (* completed ids not yet popped *)
  mutable ag_next : int;
  ag_born : float Atomic.t;
      (* admit time of the oldest pending entry as of the last refresh
         or completion (infinity = empty).  A snapshot for the hot
         admission path: ages derived from it keep growing in real time
         without taking [ag_mu].  Completions publish it at once; it is
         at most [gauge_refresh_s] behind on admissions. *)
  ag_born_at : float Atomic.t;  (* when [ag_born] was last refreshed *)
}

let make_gauge () =
  {
    ag_mu = Mutex.create ();
    ag_q = Queue.create ();
    ag_done = Hashtbl.create 64;
    ag_next = 0;
    ag_born = Atomic.make infinity;
    ag_born_at = Atomic.make 0.;
  }

(* Pop completed entries off the front; caller holds [ag_mu].  Returns
   the oldest still-pending entry, if any. *)
let rec gauge_front_locked g =
  match Queue.peek_opt g.ag_q with
  | Some (id, _) when Hashtbl.mem g.ag_done id ->
      Hashtbl.remove g.ag_done id;
      ignore (Queue.pop g.ag_q : int * float);
      gauge_front_locked g
  | other -> other

let gauge_admit g =
  Mutex.lock g.ag_mu;
  let id = g.ag_next in
  g.ag_next <- id + 1;
  Queue.push (id, Unix.gettimeofday ()) g.ag_q;
  Mutex.unlock g.ag_mu;
  id

let born_of = function None -> infinity | Some (_, t) -> t

let gauge_finish g id =
  Mutex.lock g.ag_mu;
  Hashtbl.replace g.ag_done id ();
  (* Drain here, not only on read: a server that never consults the
     gauge must not accumulate one queue entry per request forever.
     Publishing the new front keeps the admission snapshot from
     outliving a completion by up to [gauge_refresh_s]. *)
  Atomic.set g.ag_born (born_of (gauge_front_locked g));
  Mutex.unlock g.ag_mu

let gauge_oldest_age g =
  Mutex.lock g.ag_mu;
  let f = gauge_front_locked g in
  Mutex.unlock g.ag_mu;
  match f with None -> 0. | Some (_, t) -> Unix.gettimeofday () -. t

(* The admission paths (accept-loop shed_pred, per-request brownout
   check) run on every arrival under exactly the overload the gauge
   exists to detect — they read a lock-free snapshot refreshed at most
   every [gauge_refresh_s] instead of contending on [ag_mu].  The
   snapshot stores the oldest entry's admit time, so the derived age
   stays exact in real time.  Completions publish the new front
   themselves; only an admission to an empty gauge can go unseen, for
   at most one refresh interval — noise against queue-age budgets
   measured in tens of milliseconds. *)
let gauge_refresh_s = 0.002

let gauge_oldest_age_fast g =
  let now = Unix.gettimeofday () in
  let at = Atomic.get g.ag_born_at in
  let born =
    if now -. at <= gauge_refresh_s then Atomic.get g.ag_born
    else if Atomic.compare_and_set g.ag_born_at at now then begin
      (* Elected refresher: recompute and publish under the mutex, so
         a stale front cannot overwrite one [gauge_finish] published. *)
      Mutex.lock g.ag_mu;
      let b = born_of (gauge_front_locked g) in
      Atomic.set g.ag_born b;
      Mutex.unlock g.ag_mu;
      b
    end
    else Atomic.get g.ag_born  (* a racing refresher won; use its value *)
  in
  if born = infinity then 0. else now -. born

(* ------------------------------------------------------------------ *)
(* Server                                                             *)
(* ------------------------------------------------------------------ *)

type config = {
  listener : Listener.config;
  max_header_bytes : int;
  max_body_bytes : int;
  max_pipeline : int;
  shed_above : int option;
  max_queue_age : float option;
}

let default_config =
  {
    listener = { Listener.default_config with max_conns = 16384 };
    max_header_bytes = 16 * 1024;
    max_body_bytes = 8 * 1024 * 1024;
    max_pipeline = 64;
    shed_above = None;
    max_queue_age = None;
  }

type server = {
  mutable lst : Listener.t option;  (* filled right after Listener.serve *)
  s_draining : bool Atomic.t;
  s_inflight : int Atomic.t;
  s_served : int Atomic.t;
  s_shed : int Atomic.t;
  s_gauge : age_gauge;
}

let listener s =
  match s.lst with
  | Some l -> l
  | None -> invalid_arg "Http.listener: server not fully started"

let addr s = Listener.addr (listener s)
let inflight s = Atomic.get s.s_inflight
let served s = Atomic.get s.s_served
let shed_503 s = Atomic.get s.s_shed
let draining s = Atomic.get s.s_draining
let oldest_pending_age s = gauge_oldest_age s.s_gauge

(* One connection: {!Session} runs the parser where the bytes are read
   and hands each request to the pool through its dispatcher (the
   default, or a route's own — the topology pinning seam); responses
   are sequenced through the {!Outbox} in request order.  Replies the
   decoder decides itself (503 drain, shed and brownout, a parse
   error's status, 408) are written by a spawned task too, so the pump
   never waits on the outbox. *)
let serve_conn (type p) (module P : Pool_intf.POOL with type t = p) (pool : p) ~cfg
    ~st ?dispatch ~route conn =
  let parser =
    Parser.create ~max_header_bytes:cfg.max_header_bytes
      ~max_body_bytes:cfg.max_body_bytes ()
  in
  let ob = Outbox.create ~await:(P.await pool) conn in
  let submit ~seq ~head_only ~keep_alive resp =
    let iov = serialize ~head_only ~keep_alive resp in
    (try Outbox.send_at ob ~seq ~close_after:(not keep_alive) iov
     with Net.Closed | Net.Timeout | Unix.Unix_error _ -> Conn.close conn);
    Atomic.incr st.s_served
  in
  let reply s ?(head_only = false) ~keep_alive resp =
    let seq = Outbox.reserve ob in
    Session.spawn s (fun () -> submit ~seq ~head_only ~keep_alive resp)
  in
  let continue_if keep_alive = if keep_alive then `Next else `Stop in
  let handle s (req : request) =
    let head_only = req.meth = "HEAD" in
    if Atomic.get st.s_draining then begin
      (* Drain: answer, announce the close, stop decoding. *)
      Atomic.incr st.s_shed;
      reply s ~head_only ~keep_alive:false (text ~status:503 "draining\n");
      `Stop
    end
    else if
      (match cfg.shed_above with
      | Some hi -> Atomic.get st.s_inflight >= hi
      | None -> false)
      ||
      (* Deadline-aware brownout: when the oldest admitted-but-unanswered
         request is already older than the budget, admitting more work
         only deepens the queue everyone is stuck behind.  Answer 503
         with a Retry-After instead — the freshest arrivals are exactly
         the ones whose deadline a retry can still meet. *)
      match cfg.max_queue_age with
      | Some age -> gauge_oldest_age_fast st.s_gauge > age
      | None -> false
    then begin
      (* Overload shed: reject fast without running the handler, but
         keep the connection — the peer may retry after backing off. *)
      Atomic.incr st.s_shed;
      reply s ~head_only ~keep_alive:req.keep_alive
        (response ~status:503
           ~headers:[ ("retry-after", "1"); ("content-type", "text/plain") ]
           (Bytes.of_string "overloaded\n"));
      continue_if req.keep_alive
    end
    else begin
      let dispatch_override, thunk = route req in
      let dispatch =
        if Option.is_some dispatch_override then dispatch_override else dispatch
      in
      let seq = Outbox.reserve ob in
      let gid = gauge_admit st.s_gauge in
      Atomic.incr st.s_inflight;
      Session.spawn s ?dispatch (fun () ->
          let resp =
            match thunk () with
            | r -> r
            | exception e -> text ~status:500 (Printexc.to_string e ^ "\n")
          in
          (* The request leaves the admission gauges once its handler
             has returned, before the reply is written: a peer that
             reads the reply and sends at once must not find it still
             the oldest pending request. *)
          gauge_finish st.s_gauge gid;
          Atomic.decr st.s_inflight;
          submit ~seq ~head_only ~keep_alive:req.keep_alive resp);
      continue_if req.keep_alive
    end
  in
  let step s =
    match Parser.next parser with
    | Parser.Request req -> handle s req
    | Parser.Need_more -> `Need
    | Parser.Failed err ->
        (* Poisoned stream: answer with the parse error's status and
           close — never leave the peer hanging, never keep reading. *)
        reply s ~keep_alive:false (text ~status:err.Parser.status (err.Parser.reason ^ "\n"));
        `Stop
  in
  (* EOF with a partial request has no one to answer, and an idle
     keep-alive connection timing out is closed silently; a peer that
     stalled mid-request is told before the close. *)
  let ended s = function
    | Some Net.Timeout when not (Parser.at_boundary parser) ->
        reply s ~keep_alive:false (text ~status:408 "request timeout\n")
    | _ -> ()
  in
  Session.serve
    (module P)
    pool conn ~max_pipeline:cfg.max_pipeline
    ~feed:(fun buf pos len -> Parser.feed parser ~off:pos ~len buf)
    ~step ~ended

let serve_gen (type p) (module P : Pool_intf.POOL with type t = p) (pool : p) rt
    ?(config = default_config) ?dispatch addr ~route =
  let st =
    {
      lst = None;
      s_draining = Atomic.make false;
      s_inflight = Atomic.make 0;
      s_served = Atomic.make 0;
      s_shed = Atomic.make 0;
      s_gauge = make_gauge ();
    }
  in
  (* With a queue-age budget, admission control reaches all the way to
     the acceptor: while the oldest pending request is over age, new
     {e connections} are shed at accept (closed immediately) on top of
     the per-request 503s on live connections. *)
  let lcfg =
    match config.max_queue_age with
    | None -> config.listener
    | Some age ->
        let over_age () = gauge_oldest_age_fast st.s_gauge > age in
        let pred =
          match config.listener.Listener.shed_pred with
          | None -> over_age
          | Some p -> fun () -> p () || over_age ()
        in
        { config.listener with Listener.shed_pred = Some pred }
  in
  let l =
    Listener.serve
      (module P)
      pool rt ~config:lcfg addr
      ~handler:(fun conn ->
        serve_conn (module P) pool ~cfg:config ~st ?dispatch ~route conn)
  in
  st.lst <- Some l;
  st

let serve (type p) (module P : Pool_intf.POOL with type t = p) (pool : p) rt ?config
    ?dispatch addr ~handler =
  serve_gen (module P) pool rt ?config ?dispatch addr ~route:(fun req ->
      (None, fun () -> handler req))

let serve_router (type p) (module P : Pool_intf.POOL with type t = p) (pool : p) rt
    ?config ?dispatch addr ~router =
  serve_gen (module P) pool rt ?config ?dispatch addr
    ~route:(Router.dispatch_of router)

let shutdown ?grace s =
  Atomic.set s.s_draining true;
  Listener.shutdown ?grace (listener s)

(* ------------------------------------------------------------------ *)
(* Client                                                             *)
(* ------------------------------------------------------------------ *)

module Client = struct
  type resp = {
    status : int;
    reason : string;
    headers : (string * string) list;
    body : Bytes.t;
  }

  (* Responses come back in request order, so each call's promise waits
     in a FIFO.  [e_head_only] marks a HEAD request, whose response has
     no body whatever its headers say. *)
  type entry = { e_promise : resp Promise.t; e_head_only : bool }

  type t = {
    conn : Conn.t;
    parser : response Parser.decoder;
    q_mu : Mutex.t;
    q : entry Queue.t;
    ob : Outbox.t;
    closed : bool Atomic.t;
    reader_done : unit Promise.t;  (* fulfilled once the reader has stopped *)
    await : unit Promise.t -> unit;  (* the pool's [await] *)
  }

  (* Asked by the decoder when a response head is complete.  The reader
     is the only one to pop [q], so the front entry is still the one
     this response answers when [on_data] pops it. *)
  let front_head_only q_mu q () =
    Mutex.lock q_mu;
    let e = Queue.peek_opt q in
    Mutex.unlock q_mu;
    match e with
    | Some e -> e.e_head_only
    | None -> parse_err 400 "response with no outstanding request"

  let fail_all c e =
    Mutex.lock c.q_mu;
    let es = Queue.fold (fun acc en -> en :: acc) [] c.q in
    Queue.clear c.q;
    Mutex.unlock c.q_mu;
    List.iter
      (fun en ->
        try Promise.fulfill en.e_promise (Error e) with Invalid_argument _ -> ())
      es

  (* Same teardown discipline as Rpc.Client: mark closed before the
     drain so racing calls observe it, and close the conn ourselves so
     neither the fd nor the peer's handler outlives the client. *)
  let fail_conn c e =
    Atomic.set c.closed true;
    Conn.close c.conn;
    fail_all c e

  (* Runs wherever the reader delivers bytes: in the reactor pump in
     fiber mode, so a reply resolves its call as soon as it is read. *)
  let on_data c buf pos len =
    let rec drain () =
      match Parser.next_response c.parser with
      | None -> ()
      | Some (r : response) ->
          Mutex.lock c.q_mu;
          let en = Queue.take_opt c.q in
          Mutex.unlock c.q_mu;
          Option.iter
            (fun en ->
              let resp =
                {
                  status = r.status;
                  reason = r.reason;
                  headers = r.resp_headers;
                  body = r.resp_body;
                }
              in
              try Promise.fulfill en.e_promise (Ok resp) with Invalid_argument _ -> ())
            en;
          let close (n, v) = n = "connection" && list_has v "close" in
          if List.exists close r.resp_headers then fail_conn c Net.Closed
          else drain ()
    in
    if not (Atomic.get c.closed) then begin
      Parser.feed c.parser ~off:pos ~len buf;
      drain ()
    end

  (* The reader stopped: [None] is end of stream.  EOF inside a response
     means the server died with it owed, so pending calls fail with
     Peer_closed; EOF between responses, or a silent connection past
     [read_timeout], fails them with Closed. *)
  let on_end c e =
    let e =
      match e with
      | None -> if Parser.at_boundary c.parser then Net.Closed else Net.Peer_closed
      | Some (Net.Closed | Net.Timeout | End_of_file) -> Net.Closed
      | Some e -> e
    in
    fail_conn c e;
    Promise.fulfill c.reader_done (Ok ())

  let connect (type p) (module P : Pool_intf.POOL with type t = p) (pool : p) rt
      ?read_timeout ?write_timeout addr =
    let fd =
      Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0
    in
    (try Unix.connect fd addr
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    let conn = Conn.create rt ?read_timeout ?write_timeout fd in
    let q_mu = Mutex.create () and q = Queue.create () in
    let c =
      {
        conn;
        parser = Parser.responses ~head_only:(front_head_only q_mu q);
        q_mu;
        q;
        ob = Outbox.create ~await:(P.await pool) conn;
        closed = Atomic.make false;
        reader_done = Promise.create ();
        await = P.await pool;
      }
    in
    Conn.start_reader conn
      ~spawn:(fun f -> ignore (P.async pool f : unit Promise.t))
      ~on_data:(on_data c) ~on_end:(on_end c);
    c

  let request_iov ?(headers = []) ?body ~meth ~target () =
    let b = Buffer.create 128 in
    Buffer.add_string b meth;
    Buffer.add_char b ' ';
    Buffer.add_string b target;
    Buffer.add_string b " HTTP/1.1\r\nHost: lhws";
    let body_len = match body with None -> 0 | Some bd -> Bytes.length bd in
    if
      not
        (List.exists
           (fun (n, _) -> String.lowercase_ascii n = "content-length")
           headers)
    then begin
      Buffer.add_string b "\r\nContent-Length: ";
      Buffer.add_string b (string_of_int body_len)
    end;
    List.iter
      (fun (n, v) ->
        Buffer.add_string b "\r\n";
        Buffer.add_string b n;
        Buffer.add_string b ": ";
        Buffer.add_string b v)
      headers;
    Buffer.add_string b "\r\n\r\n";
    let head = Buffer.to_bytes b in
    match body with
    | Some bd when Bytes.length bd > 0 -> [ head; bd ]
    | _ -> [ head ]

  (* The wire order of requests must equal the FIFO order of promises —
     that is the whole demultiplexing scheme — so the request takes its
     outbox sequence number and its queue slot under one lock; the
     outbox then writes in sequence order, and no lock is held across
     the write.  Nothing between [reserve] and [send_at] can raise, so
     no number is left without a frame.  A call that races a teardown
     and lands in the queue after its drain fails its own write (the
     conn is closed) and drains the queue again. *)
  let call c ?headers ?body ~meth ~target () =
    if Atomic.get c.closed then raise Net.Closed;
    let iov = request_iov ?headers ?body ~meth ~target () in
    let p = Promise.create () in
    let entry = { e_promise = p; e_head_only = meth = "HEAD" } in
    Mutex.lock c.q_mu;
    let seq = Outbox.reserve c.ob in
    Queue.push entry c.q;
    Mutex.unlock c.q_mu;
    (try Outbox.send_at c.ob ~seq iov
     with e ->
       fail_conn c e;
       raise e);
    p

  (* As with Rpc.Client, [close] waits for the reader to stop, so never
     call it from a waiter on a call's promise: in fiber mode that runs
     in the reader's path. *)
  let close c =
    if Atomic.compare_and_set c.closed false true then begin
      Conn.close c.conn;
      fail_all c Net.Closed
    end;
    c.await c.reader_done
end
