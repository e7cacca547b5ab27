(* The submission/completion reactor's contract, driven through
   [Reactor.run_io] on real descriptors:

   - eager completion: a non-blocking op that succeeds immediately never
     touches the reactor (one exec, no park);
   - an EAGAIN — kernel-reported or injected — forces the park/submit
     path, the pump executes the op on readiness, and the fiber resumes
     exactly once with the result;
   - a deadline claims a parked intent and surfaces Net.Timeout, leaving
     io_pending drained;
   - without a watchdog a completed park is not retained: live words
     stay flat across 20k parks;
   - the mutation check: a completion dropped on the floor (the bug the
     chaos hook simulates) is *detected* — every racing deadline fires,
     the gauge sticks while parked — rather than hanging the suite;
   - vectored writes deliver exact byte streams for multi-buffer
     vectors — more than one writev(2) call's worth of buffers included —
     a full non-blocking socket answers EAGAIN so the write parks, and
     the drop/take algebra holds. *)

open Lhws_runtime
module P = Lhws_workloads.Pool_intf
module Net = Lhws_net.Net
module Reactor = Lhws_net.Reactor
module Conn = Lhws_net.Conn

let with_rt ?(workers = 2) f =
  Lhws_pool.with_pool ~workers (fun p ->
      let rt =
        Reactor.fibers
          ~register:(fun ~pending ~syscalls poll ->
            Lhws_pool.register_poller p ?pending ?syscalls poll)
          ()
      in
      let module Pl = P.Lhws_instance in
      Pl.run p (fun () -> f p rt))

let socketpair () =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock a;
  Unix.set_nonblock b;
  (a, b)

let close_both (a, b) =
  (try Unix.close a with Unix.Unix_error _ -> ());
  try Unix.close b with Unix.Unix_error _ -> ()

let drained p =
  (* The gauge may lag the resume by one pump iteration. *)
  let module Pl = P.Lhws_instance in
  let rec go i =
    let g = (Pl.stats p).Scheduler_core.io_pending in
    if g = 0 then true
    else if i > 1000 then false
    else begin
      Pl.sleep p 0.002;
      go (i + 1)
    end
  in
  go 0

(* --- eager completion: a ready op never parks --- *)

let test_eager_inline () =
  with_rt (fun p rt ->
      let ((a, b) as pair) = socketpair () in
      Fun.protect ~finally:(fun () -> close_both pair) @@ fun () ->
      ignore (Unix.write b (Bytes.of_string "x") 0 1 : int);
      let execs = ref 0 in
      let buf = Bytes.create 1 in
      let n =
        Reactor.run_io rt `Readable a ~exec:(fun () ->
            incr execs;
            Unix.read a buf 0 1)
      in
      Alcotest.(check int) "one byte" 1 n;
      Alcotest.(check char) "the byte" 'x' (Bytes.get buf 0);
      Alcotest.(check int) "exactly one exec, inline" 1 !execs;
      Alcotest.(check int) "nothing parked"
        0
        (P.Lhws_instance.stats p).Scheduler_core.io_pending;
      Alcotest.(check bool) "ops are counted" true (Reactor.io_syscalls rt > 0))

(* --- an injected EAGAIN forces park/submit; resume is exactly once --- *)

let test_injected_eagain_parks () =
  with_rt (fun p rt ->
      let ((a, b) as pair) = socketpair () in
      Fun.protect ~finally:(fun () -> close_both pair) @@ fun () ->
      (* Data is already there, but the first exec lies EAGAIN: eager
         completion must NOT retry inline — the injected would-block has
         to push the op through the real submit/park/pump path. *)
      ignore (Unix.write b (Bytes.of_string "y") 0 1 : int);
      let execs = ref 0 in
      let resumes = ref 0 in
      let buf = Bytes.create 1 in
      let n =
        Reactor.run_io rt `Readable a ~exec:(fun () ->
            incr execs;
            if !execs = 1 then raise (Unix.Unix_error (Unix.EAGAIN, "read", "injected"))
            else Unix.read a buf 0 1)
      in
      incr resumes;
      Alcotest.(check int) "one byte through the pump" 1 n;
      Alcotest.(check char) "the byte" 'y' (Bytes.get buf 0);
      Alcotest.(check int) "eager attempt + one pump execution" 2 !execs;
      Alcotest.(check int) "resumed exactly once" 1 !resumes;
      Alcotest.(check bool) "io_pending drains" true (drained p))

(* --- a real park: empty socket, writer fires later, one resume --- *)

let test_parked_read_batched () =
  with_rt (fun p rt ->
      let ((a, b) as pair) = socketpair () in
      Fun.protect ~finally:(fun () -> close_both pair) @@ fun () ->
      let module Pl = P.Lhws_instance in
      let execs = ref 0 in
      let buf = Bytes.create 1 in
      let reader =
        Pl.async p (fun () ->
            Reactor.run_io rt `Readable a ~exec:(fun () ->
                incr execs;
                Unix.read a buf 0 1))
      in
      Pl.sleep p 0.02;
      ignore (Unix.write b (Bytes.of_string "z") 0 1 : int);
      let n = Pl.await p reader in
      Alcotest.(check int) "one byte after the park" 1 n;
      Alcotest.(check char) "the byte" 'z' (Bytes.get buf 0);
      (* Eager EAGAIN + pump exec = 2: the op ran once for real and the
         fiber resumed once. *)
      Alcotest.(check int) "no duplicate executions" 2 !execs;
      Alcotest.(check bool) "io_pending drains" true (drained p))

(* --- no watchdog, no census: a completed park leaves nothing behind --- *)

let test_parks_not_retained () =
  with_rt (fun p rt ->
      let module Pl = P.Lhws_instance in
      let ((a, _) as pair) = socketpair () in
      Fun.protect ~finally:(fun () -> close_both pair) @@ fun () ->
      (* The socket is always writable and [exec] writes nothing, but its
         first call lies EAGAIN: the eager attempt parks and the pump's
         execution completes, so every [run_io] is one full park. *)
      let park_many n =
        let fibers = 20 in
        List.init fibers (fun _ ->
            Pl.async p (fun () ->
                for _ = 1 to n / fibers do
                  let tried = ref false in
                  Reactor.run_io rt `Writable a ~exec:(fun () ->
                      if not !tried then begin
                        tried := true;
                        raise (Unix.Unix_error (Unix.EAGAIN, "write", "injected"))
                      end)
                done))
        |> List.iter (Pl.await p)
      in
      let live_words () =
        Gc.full_major ();
        (Gc.stat ()).Gc.live_words
      in
      let n = 20_000 in
      park_many 2_000;  (* warm up rings, tables and deques *)
      let before = live_words () in
      let s0 = Reactor.io_syscalls rt in
      park_many n;
      let after = live_words () in
      Alcotest.(check bool) "every call parked once" true
        (Reactor.io_syscalls rt - s0 >= 2 * n);
      let per_park = float_of_int (after - before) /. float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "%.2f live words per completed park (< 2)" per_park)
        true (per_park < 2.);
      Alcotest.(check bool) "io_pending drains" true (drained p))

(* --- deadline beats a never-ready intent; the intent is reclaimed --- *)

let test_deadline_claims_intent () =
  with_rt (fun p rt ->
      let ((a, _b) as pair) = socketpair () in
      Fun.protect ~finally:(fun () -> close_both pair) @@ fun () ->
      let buf = Bytes.create 1 in
      let deadline = Unix.gettimeofday () +. 0.05 in
      (match
         Reactor.run_io rt ~deadline `Readable a ~exec:(fun () -> Unix.read a buf 0 1)
       with
      | (_ : int) -> Alcotest.fail "nothing was ever written"
      | exception Net.Timeout -> ());
      Alcotest.(check bool) "cancelled intent leaves no pending" true (drained p))

(* --- the mutation check: dropped completions are detected, not hung ---

   [chaos_drop_completions ~every:1] loses every completion in transit —
   the exact bug the hook exists to simulate.  Twenty concurrent reads,
   each with data available (after an eager-defeating injected EAGAIN)
   and each raced against a deadline: every single fiber must come back
   with Net.Timeout — the deadline reclaims the orphaned intent — and
   none may hang.  While the orphans are parked the io_pending gauge
   sticks at a non-zero value, which is what the 500-conn chaos suite's
   drain assertion would catch; after the timeouts it drains to zero. *)

let test_dropped_completion_detected () =
  with_rt ~workers:2 (fun p rt ->
      let module Pl = P.Lhws_instance in
      let n = 20 in
      let pairs = Array.init n (fun _ -> socketpair ()) in
      Fun.protect ~finally:(fun () -> Array.iter close_both pairs) @@ fun () ->
      Reactor.chaos_drop_completions rt ~every:1;
      Fun.protect ~finally:(fun () -> Reactor.chaos_drop_completions rt ~every:0)
      @@ fun () ->
      let tasks =
        Array.map
          (fun (a, b) ->
            Pl.async p (fun () ->
                ignore (Unix.write b (Bytes.of_string "!") 0 1 : int);
                let tried = ref 0 in
                let buf = Bytes.create 1 in
                let deadline = Unix.gettimeofday () +. 0.1 in
                match
                  Reactor.run_io rt ~deadline `Readable a ~exec:(fun () ->
                      incr tried;
                      if !tried = 1 then
                        raise (Unix.Unix_error (Unix.EAGAIN, "read", "injected"))
                      else Unix.read a buf 0 1)
                with
                | (_ : int) -> `Completed
                | exception Net.Timeout -> `Timed_out))
          pairs
      in
      let timeouts =
        Array.fold_left
          (fun acc t -> match Pl.await p t with `Timed_out -> acc + 1 | `Completed -> acc)
          0 tasks
      in
      Alcotest.(check int) "every dropped completion surfaced as a timeout" n timeouts;
      Alcotest.(check bool) "gauge drains once the deadlines reclaim" true (drained p))

(* --- vectored I/O: the shim's algebra and its wire behaviour --- *)

let test_iov_algebra () =
  let module Iov = Io.Iov in
  let v = [ Bytes.of_string "ab"; Bytes.of_string ""; Bytes.of_string "cdef" ] in
  let str iovs = String.concat "" (List.map Bytes.to_string iovs) in
  Alcotest.(check int) "length" 6 (Iov.length v);
  Alcotest.(check string) "drop 0" "abcdef" (str (Iov.drop v 0));
  Alcotest.(check string) "drop within first" "bcdef" (str (Iov.drop v 1));
  Alcotest.(check string) "drop across buffers" "def" (str (Iov.drop v 3));
  Alcotest.(check string) "drop all" "" (str (Iov.drop v 6));
  Alcotest.(check string) "take 0" "" (str (Iov.take v 0));
  Alcotest.(check string) "take within first" "a" (str (Iov.take v 1));
  Alcotest.(check string) "take across buffers" "abcd" (str (Iov.take v 4));
  Alcotest.(check string) "take beyond end" "abcdef" (str (Iov.take v 99))

let test_writev_wire () =
  with_rt (fun _p rt ->
      let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let conn = Conn.create rt b in
      Fun.protect
        ~finally:(fun () ->
          Conn.close conn;
          try Unix.close a with Unix.Unix_error _ -> ())
      @@ fun () ->
      (* Header+payload shaped vectors, like Rpc frames. *)
      let frames =
        [
          [ Bytes.of_string "HDR1"; Bytes.of_string "payload-one" ];
          [ Bytes.of_string "HDR2"; Bytes.of_string "" ];
          [ Bytes.of_string "HDR3"; Bytes.of_string "payload-three" ];
        ]
      in
      List.iter (Conn.writev_all conn) frames;
      let expect = "HDR1payload-oneHDR2HDR3payload-three" in
      let buf = Bytes.create (String.length expect) in
      let rec read_all pos =
        if pos < Bytes.length buf then
          match Unix.read a buf pos (Bytes.length buf - pos) with
          | 0 -> Alcotest.fail "peer closed early"
          | n -> read_all (pos + n)
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
              Unix.sleepf 0.002;
              read_all pos
      in
      read_all 0;
      Alcotest.(check string) "vectors arrive intact and in order" expect
        (Bytes.to_string buf))

(* Read exactly [len] bytes from a non-blocking descriptor, napping on
   EAGAIN (the test thread is not a pool worker). *)
let read_exact fd len =
  let buf = Bytes.create len in
  let rec go pos =
    if pos < len then
      match Unix.read fd buf pos (len - pos) with
      | 0 -> Alcotest.fail "peer closed early"
      | n -> go (pos + n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          Unix.sleepf 0.001;
          go pos
  in
  go 0;
  Bytes.to_string buf

let test_writev_full_socket_parks () =
  with_rt (fun p rt ->
      let module Pl = P.Lhws_instance in
      let ((a, b) as pair) = socketpair () in
      Fun.protect ~finally:(fun () -> close_both pair) @@ fun () ->
      let v = [ Bytes.make 3000 'x'; Bytes.make 1000 'y' ] in
      let rec fill total =
        match Io.Iov.write ~nonblocking:true a v with
        | n -> fill (total + n)
        | exception Unix.Unix_error (Unix.EAGAIN, "writev", _) -> total
      in
      let filled = fill 0 in
      Alcotest.(check bool) "the socket filled up" true (filled > 0);
      Alcotest.check_raises "a full socket answers EAGAIN"
        (Unix.Unix_error (Unix.EAGAIN, "writev", "")) (fun () ->
          ignore (Io.Iov.write ~nonblocking:true a v : int));
      (* So [run_io] parks the write until the peer drains. *)
      let writer =
        Pl.async p (fun () ->
            Reactor.run_io rt `Writable a ~exec:(fun () ->
                Io.Iov.write ~nonblocking:true a v))
      in
      Pl.sleep p 0.02;
      Alcotest.(check int) "the write is parked" 1
        (Pl.stats p).Scheduler_core.io_pending;
      ignore (read_exact b filled : string);
      let n = Pl.await p writer in
      Alcotest.(check bool) "the parked write went out" true (n > 0 && n <= 4000);
      Alcotest.(check bool) "io_pending drains" true (drained p))

let test_writev_many_buffers () =
  with_rt (fun _p rt ->
      let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.set_nonblock a;
      let conn = Conn.create rt b in
      Fun.protect
        ~finally:(fun () ->
          Conn.close conn;
          try Unix.close a with Unix.Unix_error _ -> ())
      @@ fun () ->
      (* 300 distinct buffers: several writev(2) calls' worth (at most 64
         each), and ~600 KB, more than the socket holds, so the write
         also parks and resumes on the short-write path. *)
      let bufs =
        List.init 300 (fun i ->
            Bytes.of_string
              (Printf.sprintf "<%03d>" i ^ String.make 2000 (Char.chr (97 + (i mod 26)))))
      in
      let expect = String.concat "" (List.map Bytes.to_string bufs) in
      (* The peer reads from a plain thread, so the pool's workers stay
         free to pump the parked write. *)
      let got = ref "" in
      let reader =
        Thread.create (fun () -> got := read_exact a (String.length expect)) ()
      in
      Conn.writev_all conn bufs;
      Thread.join reader;
      Alcotest.(check int) "every byte arrived" (String.length expect) (String.length !got);
      Alcotest.(check bool) "in order" true (String.equal expect !got))

let () =
  Alcotest.run "reactor"
    [
      ( "eager",
        [
          Alcotest.test_case "ready op completes inline" `Quick test_eager_inline;
          Alcotest.test_case "injected EAGAIN parks, resumes once" `Quick
            test_injected_eagain_parks;
        ] );
      ( "park",
        [
          Alcotest.test_case "pump executes on readiness (batched)" `Quick
            test_parked_read_batched;
          Alcotest.test_case "deadline claims a parked intent" `Quick
            test_deadline_claims_intent;
          Alcotest.test_case "completed parks are not retained" `Quick
            test_parks_not_retained;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "dropped completions detected, not hung" `Quick
            test_dropped_completion_detected;
        ] );
      ( "vectored",
        [
          Alcotest.test_case "iov drop/take algebra" `Quick test_iov_algebra;
          Alcotest.test_case "writev frames arrive intact" `Quick test_writev_wire;
          Alcotest.test_case "full socket: EAGAIN, then the write parks" `Quick
            test_writev_full_socket_parks;
          Alcotest.test_case "more than 64 buffers arrive in order" `Quick
            test_writev_many_buffers;
        ] );
    ]
