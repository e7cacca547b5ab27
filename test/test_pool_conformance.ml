(* Policy-conformance suite: one functor over the extended POOL
   signature, run against every pool instance.  Anything here must hold
   for the latency-hiding pool, the blocking baseline and the
   thread-per-task pool alike, with no pool-specific branching —
   pool-specific behaviour (latency hiding, blocking sleeps, shutdown
   paths) stays in the per-pool test files. *)

open Lhws_runtime
module Pool_intf = Lhws_workloads.Pool_intf

module Conformance (Pool : Pool_intf.POOL) = struct
  let with_pool ?(workers = 2) f =
    let p = Pool.create ~workers () in
    Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

  let test_run_returns () =
    with_pool ~workers:1 (fun p -> Alcotest.(check int) "value" 7 (Pool.run p (fun () -> 7)))

  let test_run_reusable () =
    with_pool (fun p ->
        Alcotest.(check int) "first" 1 (Pool.run p (fun () -> 1));
        Alcotest.(check int) "second" 2 (Pool.run p (fun () -> 2)))

  let test_run_exception () =
    with_pool ~workers:1 (fun p ->
        Alcotest.check_raises "raises" (Failure "root") (fun () ->
            Pool.run p (fun () -> failwith "root")))

  let test_fork2 () =
    with_pool (fun p ->
        let a, b = Pool.run p (fun () -> Pool.fork2 p (fun () -> 10) (fun () -> 20)) in
        Alcotest.(check (pair int int)) "results" (10, 20) (a, b))

  let test_async_await () =
    with_pool (fun p ->
        let v =
          Pool.run p (fun () ->
              let pr = Pool.async p (fun () -> 5 * 5) in
              Pool.await p pr)
        in
        Alcotest.(check int) "await" 25 v)

  let test_await_exception () =
    with_pool (fun p ->
        Alcotest.check_raises "child exn" (Failure "child") (fun () ->
            Pool.run p (fun () -> Pool.await p (Pool.async p (fun () -> failwith "child")))))

  let test_nested_fib () =
    with_pool (fun p ->
        let rec fib n =
          if n < 2 then n
          else
            let a, b = Pool.fork2 p (fun () -> fib (n - 1)) (fun () -> fib (n - 2)) in
            a + b
        in
        Alcotest.(check int) "fib 16" 987 (Pool.run p (fun () -> fib 16)))

  let test_parallel_for_covers_range () =
    with_pool ~workers:3 (fun p ->
        let n = 300 in
        let hits = Array.init n (fun _ -> Atomic.make 0) in
        Pool.run p (fun () -> Pool.parallel_for p ~lo:0 ~hi:n (fun i -> Atomic.incr hits.(i)));
        Array.iteri
          (fun i h -> Alcotest.(check int) (Printf.sprintf "index %d once" i) 1 (Atomic.get h))
          hits)

  let test_parallel_map_reduce () =
    with_pool (fun p ->
        let sum =
          Pool.run p (fun () ->
              Pool.parallel_map_reduce p ~lo:1 ~hi:101 ~map:Fun.id ~combine:( + ) ~id:0)
        in
        Alcotest.(check int) "gauss" 5050 sum)

  let test_sleep_at_least () =
    (* Every pool must wait out a sleep; whether the worker blocks or
       switches meanwhile is pool-specific and tested elsewhere. *)
    with_pool ~workers:1 (fun p ->
        let d = 0.02 in
        let t0 = Unix.gettimeofday () in
        Pool.run p (fun () -> Pool.sleep p d);
        let dt = Unix.gettimeofday () -. t0 in
        Alcotest.(check bool) (Printf.sprintf "slept %.3fs >= %.3fs" dt d) true (dt >= d *. 0.9);
        Alcotest.(check unit) "sleep 0 is a no-op" () (Pool.run p (fun () -> Pool.sleep p 0.)))

  let burn_some p =
    ignore
      (Pool.run p (fun () ->
           Pool.parallel_map_reduce p ~lo:0 ~hi:64
             ~map:(fun i ->
               let rec burn k acc = if k = 0 then acc else burn (k - 1) (acc + i) in
               burn 500 0)
             ~combine:( + ) ~id:0))

  let test_stats_monotone () =
    with_pool (fun p ->
        burn_some p;
        let a = Pool.stats p in
        let nonneg (s : Scheduler_core.stats) =
          s.tasks_run >= 0 && s.steals >= 0 && s.failed_steals >= 0
          && s.tasks_stolen >= 0 && s.deques_allocated >= 0
          && s.suspensions >= 0 && s.resumes >= 0 && s.max_deques_per_worker >= 0
          && s.io_pending >= 0 && s.io_syscalls >= 0 && s.conns_shed >= 0
          && s.scavenge_steals >= 0 && s.tasks_scavenged >= 0
          && s.tasks_donated >= 0
        in
        Alcotest.(check bool) "counters non-negative" true (nonneg a);
        burn_some p;
        let b = Pool.stats p in
        Alcotest.(check bool) "counters never decrease" true
          (b.tasks_run >= a.tasks_run
          && b.steals >= a.steals
          && b.failed_steals >= a.failed_steals
          && b.tasks_stolen >= a.tasks_stolen
          && b.deques_allocated >= a.deques_allocated
          && b.suspensions >= a.suspensions && b.resumes >= a.resumes
          && b.max_deques_per_worker >= a.max_deques_per_worker
          && b.scavenge_steals >= a.scavenge_steals
          && b.tasks_scavenged >= a.tasks_scavenged
          && b.tasks_donated >= a.tasks_donated
          && b.io_syscalls >= a.io_syscalls
          (* io_pending is a gauge, not a counter: deliberately excluded *)))

  let test_steal_stats_consistent () =
    (* Every pool steals one task at a time, so the tasks moved by
       stealing are exactly the successful steals. *)
    with_pool ~workers:3 (fun p ->
        burn_some p;
        burn_some p;
        let s = Pool.stats p in
        Alcotest.(check int) "tasks_stolen = steals" s.steals s.tasks_stolen)

  let test_submit_pinned () =
    (* [submit] is safe from outside [run] and the thunk is pinned: it
       executes under this pool's own accounting.  The root [await] is
       what lets worker 0 serve its share of the inboxes (on the ws pool
       the await IS the helping loop). *)
    with_pool (fun p ->
        let before = (Pool.stats p).Scheduler_core.tasks_run in
        let n = 50 in
        let hits = Atomic.make 0 in
        let all_done = Promise.create () in
        for _ = 1 to n do
          Pool.submit p (fun () ->
              if Atomic.fetch_and_add hits 1 = n - 1 then
                Promise.fulfill all_done (Ok ()))
        done;
        Pool.run p (fun () -> Pool.await p all_done);
        Alcotest.(check int) "every submitted thunk ran once" n (Atomic.get hits);
        let after = (Pool.stats p).Scheduler_core.tasks_run in
        Alcotest.(check bool)
          (Printf.sprintf "pool executed them itself (%d -> %d)" before after)
          true
          (after - before >= n))

  let test_scavenge_books_balance () =
    (* This pool as scavenge donor, a latency-hiding pool as thief: after
       the work drains, every task the thief counted scavenged must be
       counted donated by this pool — no loot is double-counted or lost.
       Pools that export nothing (thread-per-task) skip by construction. *)
    with_pool (fun donor ->
        match Pool.scavenge_source donor with
        | None -> ()
        | Some src ->
            let module L = Pool_intf.Lhws_instance in
            let thief = L.create ~workers:2 () in
            Fun.protect
              ~finally:(fun () -> L.shutdown thief)
              (fun () ->
                Alcotest.(check bool) "thief accepts the edge" true
                  (L.set_scavenge thief src);
                let n = 30 in
                let hits = Atomic.make 0 in
                let all_done = Promise.create () in
                for _ = 1 to n do
                  Pool.submit donor (fun () ->
                      let t0 = Unix.gettimeofday () in
                      while Unix.gettimeofday () -. t0 < 0.001 do
                        Domain.cpu_relax ()
                      done;
                      if Atomic.fetch_and_add hits 1 = n - 1 then
                        Promise.fulfill all_done (Ok ()))
                done;
                Pool.run donor (fun () -> Pool.await donor all_done);
                (* Let any in-flight raid finish its bookkeeping. *)
                Unix.sleepf 0.05;
                let ds = Pool.stats donor and ts = L.stats thief in
                Alcotest.(check int) "every thunk ran exactly once" n
                  (Atomic.get hits);
                Alcotest.(check int) "donor books = thief books"
                  ds.Scheduler_core.tasks_donated ts.Scheduler_core.tasks_scavenged;
                Alcotest.(check bool) "thief raids are counted" true
                  (ts.Scheduler_core.tasks_scavenged
                  >= ts.Scheduler_core.scavenge_steals)))

  let test_echo_roundtrip () =
    (* Serving a socket must work on every pool.  Deliberately the
       lowest-common-denominator setup: a blocking reactor (valid on all
       three pools — a wait just occupies a worker) and an external
       OS-thread client, so no pool primitive ever races the
       non-terminating accept-loop task (helping [await] on the WS pool
       could otherwise bury the caller beneath it). *)
    with_pool ~workers:4 (fun p ->
        Pool.run p (fun () ->
            let rt = Lhws_net.Reactor.blocking () in
            let l =
              Lhws_net.Listener.serve
                (module Pool)
                p rt
                (Unix.ADDR_INET (Unix.inet_addr_loopback, 0))
                ~handler:(fun c ->
                  let b = Bytes.create 4 in
                  Lhws_net.Conn.read_exactly c b 4;
                  Lhws_net.Conn.write_all c b)
            in
            let got = ref "" in
            let client =
              Thread.create
                (fun () ->
                  let addr = Lhws_net.Listener.addr l in
                  let fd =
                    Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0
                  in
                  Fun.protect
                    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
                    (fun () ->
                      Unix.connect fd addr;
                      ignore (Unix.write fd (Bytes.of_string "ping") 0 4 : int);
                      let b = Bytes.create 4 in
                      let rec fill pos =
                        if pos < 4 then
                          match Unix.read fd b pos (4 - pos) with
                          | 0 -> failwith "echo: eof"
                          | n -> fill (pos + n)
                      in
                      fill 0;
                      got := Bytes.to_string b))
                ()
            in
            Thread.join client;
            Lhws_net.Listener.shutdown ~grace:2. l;
            Alcotest.(check string) "echoed" "ping" !got;
            Alcotest.(check int) "drained" 0 (Lhws_net.Listener.live l)))

  (* Retry/breaker semantics must be identical on every pool: the only
     pool-specific part is what [sleep] costs, which is not observable
     here.  Socket-level resilience (reconnects, fault storms) lives in
     test_faults.ml. *)

  let test_retry_eventually_succeeds () =
    with_pool (fun p ->
        let module R = Lhws_net.Resilience in
        let attempts = Atomic.make 0 in
        let policy = R.Retry.policy ~max_attempts:5 ~base_backoff:0.001 ~max_backoff:0.004 () in
        let v =
          Pool.run p (fun () ->
              R.Retry.call
                (module Pool)
                p policy
                (fun _ ->
                  if Atomic.fetch_and_add attempts 1 < 3 then raise Lhws_net.Net.Timeout
                  else 42))
        in
        Alcotest.(check int) "value after transient failures" 42 v;
        Alcotest.(check int) "exactly four attempts" 4 (Atomic.get attempts))

  let test_retry_stops () =
    with_pool (fun p ->
        let module R = Lhws_net.Resilience in
        (* Non-retryable: one attempt, the error passes straight through. *)
        let attempts = Atomic.make 0 in
        Alcotest.check_raises "protocol error not retried"
          (Lhws_net.Net.Protocol_error "junk") (fun () ->
            Pool.run p (fun () ->
                R.Retry.call
                  (module Pool)
                  p
                  (R.Retry.policy ~max_attempts:5 ())
                  (fun _ ->
                    Atomic.incr attempts;
                    raise (Lhws_net.Net.Protocol_error "junk"))));
        Alcotest.(check int) "single attempt" 1 (Atomic.get attempts);
        (* Retryable but persistent: max_attempts bounds the attempts and
           the last error is re-raised. *)
        let attempts = Atomic.make 0 in
        Alcotest.check_raises "exhaustion re-raises" Lhws_net.Net.Timeout (fun () ->
            Pool.run p (fun () ->
                R.Retry.call
                  (module Pool)
                  p
                  (R.Retry.policy ~max_attempts:3 ~base_backoff:0.001 ~max_backoff:0.002 ())
                  (fun _ ->
                    Atomic.incr attempts;
                    raise Lhws_net.Net.Timeout)));
        Alcotest.(check int) "max_attempts attempts" 3 (Atomic.get attempts))

  let test_breaker_lifecycle () =
    with_pool (fun p ->
        let module R = Lhws_net.Resilience in
        Pool.run p (fun () ->
            let b = R.Breaker.create ~failure_threshold:3 ~cooldown:0.05 () in
            let once = R.Retry.no_retry in
            let fail () =
              match
                R.Retry.call (module Pool) p ~breaker:b once (fun _ ->
                    raise Lhws_net.Net.Timeout)
              with
              | () -> Alcotest.fail "failing call returned"
              | exception Lhws_net.Net.Timeout -> ()
            in
            fail ();
            fail ();
            Alcotest.(check bool) "still closed below threshold" true
              (R.Breaker.state b = R.Breaker.Closed);
            fail ();
            Alcotest.(check bool) "open at threshold" true (R.Breaker.state b = R.Breaker.Open);
            Alcotest.(check int) "one trip" 1 (R.Breaker.trips b);
            (* While open: fail-fast, the protected function never runs. *)
            let ran = ref false in
            (match
               R.Retry.call (module Pool) p ~breaker:b once (fun _ ->
                   ran := true;
                   ())
             with
            | () -> Alcotest.fail "open breaker admitted a call"
            | exception Lhws_net.Net.Circuit_open -> ());
            Alcotest.(check bool) "call not attempted while open" false !ran;
            (* A failed half-open probe re-opens... *)
            Pool.sleep p 0.08;
            Alcotest.(check bool) "half-open after cooldown" true
              (R.Breaker.state b = R.Breaker.Half_open);
            fail ();
            Alcotest.(check bool) "probe failure re-opens" true
              (R.Breaker.state b = R.Breaker.Open);
            Alcotest.(check int) "second trip" 2 (R.Breaker.trips b);
            (* ...and a successful probe closes for good. *)
            Pool.sleep p 0.08;
            Alcotest.(check int) "probe admitted" 7
              (R.Retry.call (module Pool) p ~breaker:b once (fun _ -> 7));
            Alcotest.(check bool) "closed after good probe" true
              (R.Breaker.state b = R.Breaker.Closed);
            Alcotest.(check int) "healthy call flows" 8
              (R.Retry.call (module Pool) p ~breaker:b once (fun _ -> 8))))

  let test_invalid_workers () =
    match Pool.create ~workers:0 () with
    | _ -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()

  let test_tracer_smoke () =
    with_pool (fun p ->
        let tr = Tracing.create ~workers:2 () in
        Pool.set_tracer p tr;
        burn_some p;
        Alcotest.(check bool) "events recorded" true (Tracing.events tr <> []);
        Alcotest.(check int) "none dropped" 0 (Tracing.dropped tr);
        List.iter
          (fun (e : Tracing.event) ->
            if e.Tracing.worker < 0 || e.Tracing.worker >= 2 then
              Alcotest.failf "event on worker %d" e.Tracing.worker)
          (Tracing.events tr))

  let suite =
    [
      Alcotest.test_case "run returns" `Quick test_run_returns;
      Alcotest.test_case "run reusable" `Quick test_run_reusable;
      Alcotest.test_case "run exception" `Quick test_run_exception;
      Alcotest.test_case "fork2" `Quick test_fork2;
      Alcotest.test_case "async/await" `Quick test_async_await;
      Alcotest.test_case "await exception" `Quick test_await_exception;
      Alcotest.test_case "nested fib" `Quick test_nested_fib;
      Alcotest.test_case "parallel_for coverage" `Quick test_parallel_for_covers_range;
      Alcotest.test_case "map_reduce" `Quick test_parallel_map_reduce;
      Alcotest.test_case "sleep at least" `Quick test_sleep_at_least;
      Alcotest.test_case "stats monotone" `Quick test_stats_monotone;
      Alcotest.test_case "steal stats consistent" `Quick test_steal_stats_consistent;
      Alcotest.test_case "submit is pinned" `Quick test_submit_pinned;
      Alcotest.test_case "scavenge books balance" `Quick test_scavenge_books_balance;
      Alcotest.test_case "echo round trip" `Quick test_echo_roundtrip;
      Alcotest.test_case "retry eventually succeeds" `Quick test_retry_eventually_succeeds;
      Alcotest.test_case "retry stops" `Quick test_retry_stops;
      Alcotest.test_case "breaker lifecycle" `Quick test_breaker_lifecycle;
      Alcotest.test_case "invalid workers" `Quick test_invalid_workers;
      Alcotest.test_case "tracer smoke" `Quick test_tracer_smoke;
    ]
end

module Lhws = Conformance (Pool_intf.Lhws_instance)
module Ws = Conformance (Pool_intf.Ws_instance)
module Threads = Conformance (Pool_intf.Threaded_instance)

let () =
  Alcotest.run "pool_conformance"
    [
      ("lhws", Lhws.suite);
      ("ws", Ws.suite);
      ("threads", Threads.suite);
    ]
