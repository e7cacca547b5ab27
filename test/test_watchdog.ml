(* The stall watchdog's contract:

   - pool heartbeat counters advance while workers schedule, and the
     watchdog only flags a worker after [stuck_after] with no progress
     (warn-only — a long legitimate task is indistinguishable from a
     wedged worker);
   - a parked intent younger than [grace], or one still backed by a live
     registration, is never flagged: no false positives on legitimate
     long parks;
   - the mutation check: a completion dropped on the floor (the
     chaos_drop hook) leaves a fiber parked with nobody to wake it, and
     the watchdog fails it loudly with [Stalled] BEFORE a generous
     per-operation deadline would have fired — the detection is the
     watchdog's, not the deadline's;
   - warn mode counts the same stall but leaves the fiber parked for the
     deadline to reclaim;
   - detections feed the pool's [stalls_detected] stats field and emit
     [Stalled] tracing events;
   - a descriptor closed behind the reactor's back fails the parked
     fiber loudly (poll's POLLNVAL path, backstopped by the watchdog's
     probe). *)

open Lhws_runtime
module P = Lhws_workloads.Pool_intf
module Net = Lhws_net.Net
module Reactor = Lhws_net.Reactor

let with_wd_rt ?(workers = 2) ?grace ?action ?interval ?stuck_after f =
  Lhws_pool.with_pool ~workers (fun p ->
      let wd = Watchdog.create ?grace ?action ?interval ?stuck_after () in
      Lhws_pool.register_watchdog p wd;
      let rt =
        Reactor.fibers
          ~register:(fun ~pending ~syscalls poll ->
            Lhws_pool.register_poller p ?pending ?syscalls poll)
          ~watchdog:wd ()
      in
      let module Pl = P.Lhws_instance in
      Pl.run p (fun () -> f p wd rt))

let socketpair () =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock a;
  Unix.set_nonblock b;
  (a, b)

let close_both (a, b) =
  (try Unix.close a with Unix.Unix_error _ -> ());
  try Unix.close b with Unix.Unix_error _ -> ()

(* --- heartbeats --- *)

let test_heartbeats_advance () =
  Lhws_pool.with_pool ~workers:2 (fun p ->
      Lhws_pool.run p (fun () ->
          (* Give every worker scheduling iterations to count. *)
          Lhws_pool.parallel_for p ~lo:0 ~hi:32 (fun _ -> Lhws_pool.sleep p 0.002));
      let hb = Lhws_pool.heartbeats p in
      Alcotest.(check int) "one counter per worker" 2 (Array.length hb);
      Array.iteri
        (fun i h ->
          Alcotest.(check bool) (Printf.sprintf "worker %d ticked" i) true (h > 0))
        hb)

let test_stuck_heartbeat_flagged_once () =
  let wd = Watchdog.create ~grace:0.01 ~stuck_after:0.05 () in
  let reports = ref [] in
  Watchdog.add_on_stall wd (fun m -> reports := m :: !reports);
  (* Counters that never advance: both workers look wedged. *)
  Watchdog.attach_heartbeats wd ~name:"fake" (fun () -> [| 3; 7 |]);
  Alcotest.(check int) "first sweep only snapshots" 0 (Watchdog.sweep_now wd);
  Unix.sleepf 0.08;
  Alcotest.(check int) "both stuck workers flagged" 2 (Watchdog.sweep_now wd);
  Alcotest.(check int) "counted as worker stalls" 2 (Watchdog.worker_stalls wd);
  Alcotest.(check int) "reported" 2 (List.length !reports);
  (* Still stuck, already flagged: one report per episode, not per sweep. *)
  Alcotest.(check int) "no re-flag while still stuck" 0 (Watchdog.sweep_now wd)

let test_advancing_heartbeat_not_flagged () =
  let wd = Watchdog.create ~grace:0.01 ~stuck_after:0.04 () in
  let c = ref 0 in
  Watchdog.attach_heartbeats wd ~name:"live" (fun () ->
      incr c;
      [| !c |]);
  ignore (Watchdog.sweep_now wd : int);
  Unix.sleepf 0.06;
  Alcotest.(check int) "progress is never a stall" 0 (Watchdog.sweep_now wd);
  Alcotest.(check int) "no worker stalls" 0 (Watchdog.worker_stalls wd)

(* --- grace and false positives --- *)

let test_legit_park_not_flagged () =
  (* A fiber legitimately parked far beyond grace, with its registration
     live and its fd healthy: the watchdog must leave it alone, and the
     oldest-parked gauge must see it. *)
  with_wd_rt ~grace:0.02 (fun p wd rt ->
      let module Pl = P.Lhws_instance in
      let ((a, b) as pair) = socketpair () in
      Fun.protect ~finally:(fun () -> close_both pair) @@ fun () ->
      let buf = Bytes.create 1 in
      let reader =
        Pl.async p (fun () ->
            Reactor.run_io rt `Readable a ~exec:(fun () -> Unix.read a buf 0 1))
      in
      Pl.sleep p 0.1;  (* several sweep intervals beyond grace *)
      Alcotest.(check int) "no stall detected" 0 (Watchdog.stalls_detected wd);
      Alcotest.(check bool) "gauge sees the parked fiber" true
        (Watchdog.oldest_parked_ms wd >= 50.);
      ignore (Unix.write b (Bytes.of_string "k") 0 1 : int);
      Alcotest.(check int) "completes normally" 1 (Pl.await p reader);
      Alcotest.(check char) "the byte" 'k' (Bytes.get buf 0))

(* --- the mutation check: watchdog beats the deadline --- *)

let test_lost_wakeup_fails_loudly () =
  with_wd_rt ~grace:0.05 (fun p wd rt ->
      let module Pl = P.Lhws_instance in
      let tr = Tracing.create ~workers:2 () in
      Lhws_pool.set_tracer p tr;
      let ((a, b) as pair) = socketpair () in
      Fun.protect ~finally:(fun () -> close_both pair) @@ fun () ->
      Reactor.chaos_drop_completions rt ~every:1;
      Fun.protect ~finally:(fun () -> Reactor.chaos_drop_completions rt ~every:0)
      @@ fun () ->
      (* Data is ready, but the first exec lies EAGAIN to defeat eager
         completion, and the chaos hook then drops the pump's completion:
         the fiber is parked with no registration behind it.  The
         deadline is deliberately generous — if this test sees Timeout,
         the deadline caught the stall, not the watchdog. *)
      ignore (Unix.write b (Bytes.of_string "!") 0 1 : int);
      let tried = ref 0 in
      let buf = Bytes.create 1 in
      let t0 = Unix.gettimeofday () in
      let deadline = t0 +. 10. in
      (match
         Reactor.run_io rt ~deadline `Readable a ~exec:(fun () ->
             incr tried;
             if !tried = 1 then
               raise (Unix.Unix_error (Unix.EAGAIN, "read", "injected"))
             else Unix.read a buf 0 1)
       with
      | (_ : int) -> Alcotest.fail "the dropped completion completed"
      | exception Net.Timeout -> Alcotest.fail "deadline won: watchdog never fired"
      | exception Net.Stalled msg ->
          Alcotest.(check bool) "stall is attributed" true
            (Astring.String.is_infix ~affix:"lost wakeup" msg));
      Alcotest.(check bool) "well before the deadline" true
        (Unix.gettimeofday () -. t0 < 5.);
      Alcotest.(check bool) "watchdog counted it" true
        (Watchdog.stalls_detected wd >= 1);
      let s = Lhws_pool.stats p in
      Alcotest.(check bool) "stats field fed" true (s.stalls_detected >= 1);
      Alcotest.(check bool) "Stalled trace event emitted" true
        (List.exists
           (fun (e : Tracing.event) -> e.Tracing.kind = Tracing.Stalled)
           (Tracing.events tr)))

let test_warn_mode_counts_but_leaves_parked () =
  with_wd_rt ~grace:0.03 ~action:Watchdog.Warn (fun _p wd rt ->
      let ((a, b) as pair) = socketpair () in
      Fun.protect ~finally:(fun () -> close_both pair) @@ fun () ->
      Reactor.chaos_drop_completions rt ~every:1;
      Fun.protect ~finally:(fun () -> Reactor.chaos_drop_completions rt ~every:0)
      @@ fun () ->
      ignore (Unix.write b (Bytes.of_string "!") 0 1 : int);
      let tried = ref 0 in
      let buf = Bytes.create 1 in
      let deadline = Unix.gettimeofday () +. 0.25 in
      (match
         Reactor.run_io rt ~deadline `Readable a ~exec:(fun () ->
             incr tried;
             if !tried = 1 then
               raise (Unix.Unix_error (Unix.EAGAIN, "read", "injected"))
             else Unix.read a buf 0 1)
       with
      | (_ : int) -> Alcotest.fail "the dropped completion completed"
      | exception Net.Stalled _ -> Alcotest.fail "warn mode must not fail the fiber"
      | exception Net.Timeout -> ());
      Alcotest.(check bool) "stall was still counted" true
        (Watchdog.stalls_detected wd >= 1))

(* --- stale fd: loud failure --- *)

let test_stale_fd_poll () =
  with_wd_rt ~grace:0.02 (fun p _wd rt ->
      let module Pl = P.Lhws_instance in
      let a, b = socketpair () in
      Fun.protect ~finally:(fun () -> try Unix.close b with Unix.Unix_error _ -> ())
      @@ fun () ->
      let buf = Bytes.create 1 in
      let t0 = Unix.gettimeofday () in
      let reader =
        Pl.async p (fun () ->
            let deadline = t0 +. 10. in
            match
              Reactor.run_io rt ~deadline `Readable a ~exec:(fun () ->
                  Unix.read a buf 0 1)
            with
            | (_ : int) -> `Completed
            | exception Net.Timeout -> `Timed_out
            | exception (Net.Stalled _ | Unix.Unix_error _) -> `Failed_loudly)
      in
      Pl.sleep p 0.05;  (* let the intent register *)
      (* Close the descriptor behind the reactor's back: no cancel, no
         Conn.close — the registration goes stale in place. *)
      Unix.close a;
      (match Pl.await p reader with
      | `Failed_loudly -> ()
      | `Completed -> Alcotest.fail "read completed on a closed fd"
      | `Timed_out -> Alcotest.fail "hung until the deadline");
      Alcotest.(check bool) "failed promptly" true
        (Unix.gettimeofday () -. t0 < 5.))

let () =
  Alcotest.run "watchdog"
    [
      ( "heartbeats",
        [
          Alcotest.test_case "pool counters advance" `Quick test_heartbeats_advance;
          Alcotest.test_case "stuck worker flagged once" `Quick
            test_stuck_heartbeat_flagged_once;
          Alcotest.test_case "progress is never flagged" `Quick
            test_advancing_heartbeat_not_flagged;
        ] );
      ( "grace",
        [
          Alcotest.test_case "legit long park not flagged" `Quick
            test_legit_park_not_flagged;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "lost wakeup fails loudly before the deadline" `Quick
            test_lost_wakeup_fails_loudly;
          Alcotest.test_case "warn mode counts, deadline reclaims" `Quick
            test_warn_mode_counts_but_leaves_parked;
        ] );
      ( "stale-fd",
        [
          Alcotest.test_case "poll backend fails loudly" `Quick test_stale_fd_poll;
        ] );
    ]
