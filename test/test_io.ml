open Lhws_runtime
module Pool = Lhws_pool

let with_io_pool f =
  Pool.with_pool ~workers:2 (fun p ->
      let io = Io.create () in
      Pool.register_poller p (fun () -> Io.poll io);
      f p io)

let test_pipe_roundtrip () =
  with_io_pool (fun p io ->
      let r, w = Unix.pipe ~cloexec:true () in
      Fun.protect
        ~finally:(fun () ->
          Unix.close r;
          Unix.close w)
        (fun () ->
          let msg =
            Pool.run p (fun () ->
                let reader =
                  Pool.async p (fun () ->
                      let buf = Bytes.create 5 in
                      Io.read_exactly io r buf 5;
                      Bytes.to_string buf)
                in
                (* writer delays so the reader genuinely parks on the fd *)
                Pool.sleep p 0.01;
                Io.write_all io w (Bytes.of_string "hello");
                Pool.await reader)
          in
          Alcotest.(check string) "round trip" "hello" msg))

let test_read_does_not_block_worker () =
  (* One worker, a fiber parked on an fd, another fiber computing: the
     computation must proceed — the whole point of latency hiding. *)
  Pool.with_pool ~workers:1 (fun p ->
      let io = Io.create () in
      Pool.register_poller p (fun () -> Io.poll io);
      let r, w = Unix.pipe ~cloexec:true () in
      Fun.protect
        ~finally:(fun () ->
          Unix.close r;
          Unix.close w)
        (fun () ->
          let result =
            Pool.run p (fun () ->
                let reader =
                  Pool.async p (fun () ->
                      let buf = Bytes.create 1 in
                      ignore (Io.read io r buf 0 1);
                      Bytes.get buf 0)
                in
                (* compute while the read is pending *)
                let x = Lhws_workloads.Fib.seq 20 in
                Io.write_all io w (Bytes.of_string "z");
                let c = Pool.await reader in
                (x, c))
          in
          Alcotest.(check (pair int char)) "compute + io" (6765, 'z') result))

let test_eof () =
  with_io_pool (fun p io ->
      let r, w = Unix.pipe ~cloexec:true () in
      Unix.close w;
      Fun.protect
        ~finally:(fun () -> Unix.close r)
        (fun () ->
          let n =
            Pool.run p (fun () ->
                let buf = Bytes.create 4 in
                Io.read io r buf 0 4)
          in
          Alcotest.(check int) "eof reads 0" 0 n))

let test_read_exactly_eof_raises () =
  with_io_pool (fun p io ->
      let r, w = Unix.pipe ~cloexec:true () in
      Fun.protect
        ~finally:(fun () -> Unix.close r)
        (fun () ->
          let result =
            Pool.run p (fun () ->
                let writer =
                  Pool.async p (fun () ->
                      ignore (Unix.write w (Bytes.of_string "ab") 0 2);
                      Unix.close w)
                in
                let buf = Bytes.create 4 in
                let r =
                  match Io.read_exactly io r buf 4 with
                  | () -> "full"
                  | exception End_of_file -> "eof"
                in
                Pool.await writer;
                r)
          in
          Alcotest.(check string) "truncated" "eof" result))

let test_many_pipes () =
  with_io_pool (fun p io ->
      let n = 16 in
      let pipes = Array.init n (fun _ -> Unix.pipe ~cloexec:true ()) in
      Fun.protect
        ~finally:(fun () ->
          Array.iter
            (fun (r, w) ->
              Unix.close r;
              try Unix.close w with Unix.Unix_error _ -> ())
            pipes)
        (fun () ->
          let total =
            Pool.run p (fun () ->
                let readers =
                  Array.to_list
                    (Array.mapi
                       (fun i (r, _) ->
                         Pool.async p (fun () ->
                             let buf = Bytes.create 1 in
                             Io.read_exactly io r buf 1;
                             Char.code (Bytes.get buf 0) + i))
                       pipes)
                in
                (* Write in reverse order with pauses: readers resume out of
                   order, exercising the reactor's bookkeeping. *)
                for i = n - 1 downto 0 do
                  let _, w = pipes.(i) in
                  Io.write_all io w (Bytes.make 1 (Char.chr (65 + i)))
                done;
                List.fold_left (fun acc pr -> acc + Pool.await pr) 0 readers)
          in
          let expect = List.fold_left ( + ) 0 (List.init n (fun i -> 65 + i + i)) in
          Alcotest.(check int) "all pipes served" expect total))

let test_pending_count () =
  with_io_pool (fun p io ->
      let r, w = Unix.pipe ~cloexec:true () in
      Fun.protect
        ~finally:(fun () ->
          Unix.close r;
          Unix.close w)
        (fun () ->
          Pool.run p (fun () ->
              let reader =
                Pool.async p (fun () ->
                    let buf = Bytes.create 1 in
                    ignore (Io.read io r buf 0 1))
              in
              Pool.sleep p 0.01;
              Alcotest.(check int) "one parked fiber" 1 (Io.pending io);
              Io.write_all io w (Bytes.of_string "x");
              Pool.await reader;
              Alcotest.(check int) "drained" 0 (Io.pending io))))

(* Closing a descriptor under a parked fiber must resume it with the
   Unix error, not leave it parked forever: poll reports the closed fd
   as POLLNVAL, the pump treats that as ready for the direction it was
   registered for, and the fiber's own syscall raises EBADF. *)
let fd_error_surfaces dir () =
  with_io_pool (fun p io ->
      let r, w = Unix.pipe ~cloexec:true () in
      let parked, other = match dir with `R -> (r, w) | `W -> (w, r) in
      (* A writer only parks on a full pipe. *)
      if dir = `W then begin
        Unix.set_nonblock w;
        let chunk = Bytes.create 4096 in
        try
          while true do
            ignore (Unix.write w chunk 0 4096 : int)
          done
        with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      end;
      let outcome =
        Pool.run p (fun () ->
            let op =
              Pool.async p (fun () ->
                  let buf = Bytes.create 1 in
                  match
                    match dir with
                    | `R -> Io.read io r buf 0 1
                    | `W -> Io.write io w buf 0 1
                  with
                  | _ -> "completed"
                  | exception Unix.Unix_error (Unix.EBADF, _, _) -> "ebadf")
            in
            Pool.sleep p 0.02;
            Alcotest.(check int) "the fiber is parked" 1 (Io.pending io);
            (* now close the parked descriptor underneath it *)
            Unix.close parked;
            Pool.await op)
      in
      Unix.close other;
      Alcotest.(check string) "parked fiber resumed with EBADF" "ebadf" outcome)

let test_io_pending_stat () =
  Pool.with_pool ~workers:2 (fun p ->
      let io = Io.create () in
      Pool.register_poller p ~pending:(fun () -> Io.pending io) (fun () -> Io.poll io);
      let r, w = Unix.pipe ~cloexec:true () in
      Fun.protect
        ~finally:(fun () ->
          Unix.close r;
          Unix.close w)
        (fun () ->
          Pool.run p (fun () ->
              let reader =
                Pool.async p (fun () ->
                    let buf = Bytes.create 1 in
                    ignore (Io.read io r buf 0 1))
              in
              Pool.sleep p 0.01;
              Alcotest.(check int) "gauge counts parked fiber" 1
                (Pool.stats p).Scheduler_core.io_pending;
              Io.write_all io w (Bytes.of_string "x");
              Pool.await reader;
              Alcotest.(check int) "gauge drains" 0
                (Pool.stats p).Scheduler_core.io_pending)))

(* --- the blocking idle pass ---

   With a fiber parked on a pipe nobody writes, an idle pump owner spends
   its backoff blocked in the readiness pass.  Timers must not wait for
   it (due pool-timer entries are fired outside the pump election, and
   the owner's wait is clamped to the next deadline and one pacing
   interval), and a descriptor made ready from outside the pool — here by
   a plain thread — must wake it. *)
let blocking_pass_serves ~workers () =
  Pool.with_pool ~workers (fun p ->
      let io = Io.create () in
      Pool.register_poller p (fun () -> Io.poll io);
      let idle_r, idle_w = Unix.pipe ~cloexec:true () in
      let r, w = Unix.pipe ~cloexec:true () in
      Fun.protect
        ~finally:(fun () -> List.iter Unix.close [ idle_r; idle_w; r; w ])
        (fun () ->
          let sleeps, got, resumed_after =
            Pool.run p (fun () ->
                let idle =
                  Pool.async p (fun () ->
                      let buf = Bytes.create 1 in
                      Io.read io idle_r buf 0 1)
                in
                let sleeper =
                  Pool.async p (fun () ->
                      let t0 = Unix.gettimeofday () in
                      for _ = 1 to 200 do
                        Pool.sleep p 0.0005
                      done;
                      Unix.gettimeofday () -. t0)
                in
                let reader =
                  Pool.async p (fun () ->
                      let buf = Bytes.create 1 in
                      let n = Io.read io r buf 0 1 in
                      (n, Bytes.get buf 0, Unix.gettimeofday ()))
                in
                let sleeps = Pool.await sleeper in
                let written_at = ref 0. in
                let th =
                  Thread.create
                    (fun () ->
                      Unix.sleepf 0.01;
                      written_at := Unix.gettimeofday ();
                      ignore (Unix.write_substring w "q" 0 1 : int))
                    ()
                in
                let n, c, at = Pool.await reader in
                Thread.join th;
                (* release the idle reader so the run can end *)
                ignore (Unix.write_substring idle_w "." 0 1 : int);
                ignore (Pool.await idle : int);
                (sleeps, (n, c), at -. !written_at))
          in
          Alcotest.(check bool)
            (Printf.sprintf "200 x 0.5 ms sleeps took %.3fs" sleeps)
            true
            (sleeps >= 0.1 && sleeps < 2.0);
          Alcotest.(check (pair int char)) "reader got the thread's byte" (1, 'q') got;
          Alcotest.(check bool)
            (Printf.sprintf "reader resumed %.1f ms after the write" (resumed_after *. 1e3))
            true (resumed_after < 0.5)))

(* --- a persistent intent's park time ---

   An intent whose [run] answers [`Again] after each chunk (a
   connection's reader) is re-armed by the pump on every readiness edge.
   The staleness gauge must date it from its latest re-arm: 20 chunks
   5 ms apart, then 10 ms of quiet, must read as 10 ms parked, not as
   the 100+ ms since submission.  The pump is driven by hand, no pool. *)
let test_rearm_refreshes_park_time () =
  let io = Io.create () in
  Io.start_census io;
  let r, w = Unix.pipe ~cloexec:true () in
  Fun.protect
    ~finally:(fun () ->
      Unix.close r;
      Unix.close w)
    (fun () ->
      let chunks = ref 0 in
      let buf = Bytes.create 16 in
      let run () =
        ignore (Unix.read r buf 0 16 : int);
        incr chunks;
        `Again
      in
      let submitted = Unix.gettimeofday () in
      let intent = Io.submit io ~kind:`R ~fd:r ~run (fun _ -> ()) in
      let last_write = ref submitted in
      for i = 1 to 20 do
        Unix.sleepf 0.005;
        last_write := Unix.gettimeofday ();
        ignore (Unix.write_substring w "x" 0 1 : int);
        let give_up = !last_write +. 2. in
        while !chunks < i do
          if Unix.gettimeofday () > give_up then Alcotest.fail "the pump never ran the intent";
          ignore (Io.poll io : int);
          Unix.sleepf 0.0001
        done
      done;
      Unix.sleepf 0.01;
      let gauge = Io.oldest_parked_ms io in
      let now = Unix.gettimeofday () in
      let since_last = (now -. !last_write) *. 1e3 in
      let since_submit = (now -. submitted) *. 1e3 in
      Alcotest.(check int) "still one parked intent" 1 (Io.pending io);
      Alcotest.(check bool)
        (Printf.sprintf "gauge %.1f ms <= %.1f ms since the last re-arm (%.1f ms since submit)"
           gauge since_last since_submit)
        true
        (gauge > 0. && gauge <= since_last && since_last < since_submit /. 2.);
      Alcotest.(check bool) "cancelled" true (Io.cancel io intent))

let test_poll_single_us_timeout () =
  let r, w = Unix.pipe ~cloexec:true () in
  Fun.protect
    ~finally:(fun () ->
      Unix.close r;
      Unix.close w)
    (fun () ->
      let t0 = Unix.gettimeofday () in
      let v = Io.poll_single `R r ~timeout_us:200 in
      let dt = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool) "idle pipe times out" true (v = `Timeout);
      Alcotest.(check bool)
        (Printf.sprintf "waited %.0f us, not less than the timeout" (dt *. 1e6))
        true (dt >= 0.00019);
      ignore (Unix.write_substring w "x" 0 1 : int);
      Alcotest.(check bool) "a ready pipe is ready" true
        (Io.poll_single `R r ~timeout_us:(-1) = `Ready))

let () =
  Alcotest.run "io"
    [
      ( "reactor",
        [
          Alcotest.test_case "pipe round trip" `Quick test_pipe_roundtrip;
          Alcotest.test_case "read does not block worker" `Quick test_read_does_not_block_worker;
          Alcotest.test_case "eof" `Quick test_eof;
          Alcotest.test_case "read_exactly eof" `Quick test_read_exactly_eof_raises;
          Alcotest.test_case "many pipes" `Quick test_many_pipes;
          Alcotest.test_case "pending count" `Quick test_pending_count;
          Alcotest.test_case "fd error surfaces to parked fiber" `Quick
            (fd_error_surfaces `R);
          Alcotest.test_case "fd error surfaces to parked writer" `Quick
            (fd_error_surfaces `W);
          Alcotest.test_case "io_pending stats gauge" `Quick test_io_pending_stat;
          Alcotest.test_case "re-arm refreshes park time" `Quick
            test_rearm_refreshes_park_time;
        ] );
      ( "blocking pass",
        [
          Alcotest.test_case "timers and a thread's write, one worker" `Quick
            (blocking_pass_serves ~workers:1);
          Alcotest.test_case "timers and a thread's write, two workers" `Quick
            (blocking_pass_serves ~workers:2);
          Alcotest.test_case "poll_single microsecond timeout" `Quick
            test_poll_single_us_timeout;
        ] );
    ]
