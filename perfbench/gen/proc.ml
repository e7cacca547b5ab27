(* Child processes with a line protocol on their stdin/stdout.  Every
   child is remembered until it is reaped, and [reap_all] (run at exit,
   on success or failure) kills and waits for whatever is left, so
   back-to-back runs never leak processes, ports or descriptors. *)

type t = {
  pid : int;
  to_child : out_channel;
  from_child : Unix.file_descr;
  mutable data : string;  (** bytes read but not yet returned as lines *)
  mutable pos : int;
  mutable reaped : bool;
}

let live : t list ref = ref []

exception Child_failed of string

let spawn exe args =
  (* cloexec everywhere: the child keeps only the 0/1 dups, so it sees
     end of file on stdin as soon as we close our end. *)
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.append [| exe |] args) in_r out_w Unix.stderr in
  Unix.close in_r;
  Unix.close out_w;
  let c =
    {
      pid;
      to_child = Unix.out_channel_of_descr in_w;
      from_child = out_r;
      data = "";
      pos = 0;
      reaped = false;
    }
  in
  live := c :: !live;
  c

let chunk = Bytes.create 65536

(* The next line from the child, waiting at most [timeout] seconds. *)
let read_line ?(timeout = 30.) c =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match String.index_from_opt c.data c.pos '\n' with
    | Some i ->
        let l = String.sub c.data c.pos (i - c.pos) in
        c.pos <- i + 1;
        l
    | None ->
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0. then raise (Child_failed "timed out waiting for the child");
        (match Unix.select [ c.from_child ] [] [] left with
        | [], _, _ -> ()
        | _ -> (
            match Unix.read c.from_child chunk 0 (Bytes.length chunk) with
            | 0 -> raise (Child_failed "the child closed its output")
            | n ->
                c.data <-
                  String.sub c.data c.pos (String.length c.data - c.pos)
                  ^ Bytes.sub_string chunk 0 n;
                c.pos <- 0)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        go ()
  in
  go ()

let send c s =
  try
    output_string c.to_child s;
    output_char c.to_child '\n';
    flush c.to_child
  with Sys_error e -> raise (Child_failed e)

let request ?timeout c s =
  send c s;
  read_line ?timeout c

let reap c =
  if not c.reaped then begin
    c.reaped <- true;
    live := List.filter (fun x -> x != c) !live;
    (try close_out c.to_child with Sys_error _ -> ());
    (try Unix.close c.from_child with Unix.Unix_error _ -> ());
    (* A child that has not exited on its own in 5 s is killed. *)
    let deadline = Unix.gettimeofday () +. 5. in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] c.pid with
      | 0, _ when Unix.gettimeofday () < deadline ->
          Unix.sleepf 0.002;
          wait ()
      | 0, _ ->
          (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] c.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    wait ()
  end

(* Ask politely, then reap. *)
let stop c =
  (try send c "QUIT" with Child_failed _ -> ());
  reap c

let reap_all () =
  List.iter
    (fun c -> try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ())
    !live;
  List.iter reap !live
