(* Latency-hiding-specific behaviour: suspension, deque recycling,
   pollers, steal policies and shutdown paths.  The policy-independent
   contract (run/fork/await/parallel_for/stats/tracing) is covered for
   every pool by test_pool_conformance.ml. *)

open Lhws_runtime
module Pool = Lhws_pool

let test_sleep_duration () =
  Pool.with_pool ~workers:1 (fun p ->
      let t0 = Unix.gettimeofday () in
      Pool.run p (fun () -> Pool.sleep p 0.05);
      let dt = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool) "slept at least 50ms" true (dt >= 0.045);
      Alcotest.(check bool) "did not oversleep wildly" true (dt < 0.5))

let test_sleep_zero () =
  Pool.with_pool ~workers:1 (fun p ->
      Alcotest.(check unit) "no-op" () (Pool.run p (fun () -> Pool.sleep p 0.)))

let test_latency_hiding_one_worker () =
  (* The headline behaviour: k concurrent sleeps of d seconds on ONE worker
     finish in ~d, not k*d, because fibers suspend instead of blocking. *)
  Pool.with_pool ~workers:1 (fun p ->
      let k = 10 and d = 0.04 in
      let t0 = Unix.gettimeofday () in
      Pool.run p (fun () ->
          Pool.parallel_for p ~lo:0 ~hi:k (fun _ -> Pool.sleep p d));
      let dt = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "%.3fs ~ d, not k*d" dt)
        true
        (dt < float_of_int k *. d /. 2.))

let test_suspension_stats () =
  Pool.with_pool ~workers:1 (fun p ->
      Pool.run p (fun () -> Pool.parallel_for p ~lo:0 ~hi:8 (fun _ -> Pool.sleep p 0.01));
      let st = Pool.stats p in
      Alcotest.(check bool) "some suspensions" true (st.Scheduler_core.suspensions >= 8);
      Alcotest.(check bool) "resumed as many" true (st.Scheduler_core.resumes >= 8);
      Alcotest.(check bool) "allocated deques" true (st.Scheduler_core.deques_allocated >= 1))

let test_many_fibers () =
  Pool.with_pool ~workers:2 (fun p ->
      let n = 2000 in
      let sum =
        Pool.run p (fun () ->
            Pool.parallel_map_reduce p ~lo:0 ~hi:n ~map:(fun i -> i mod 7) ~combine:( + ) ~id:0)
      in
      let expect = List.fold_left (fun a i -> a + (i mod 7)) 0 (List.init n Fun.id) in
      Alcotest.(check int) "sum" expect sum)

let test_mixed_sleep_compute () =
  Pool.with_pool ~workers:2 (fun p ->
      let v =
        Pool.run p (fun () ->
            Pool.parallel_map_reduce p ~lo:0 ~hi:20
              ~map:(fun i ->
                if i mod 2 = 0 then Pool.sleep p 0.005;
                i)
              ~combine:( + ) ~id:0)
      in
      Alcotest.(check int) "sum" 190 v)

let test_yield () =
  Pool.with_pool ~workers:1 (fun p ->
      let order = ref [] in
      Pool.run p (fun () ->
          let pr =
            Pool.async p (fun () -> order := "child" :: !order)
          in
          Fiber.yield ();
          order := "parent" :: !order;
          Pool.await pr);
      (* Exact interleaving depends on drain timing; both must have run. *)
      Alcotest.(check (list string)) "both ran" [ "child"; "parent" ]
        (List.sort compare !order))

let test_deep_nesting () =
  Pool.with_pool ~workers:2 (fun p ->
      let rec nest d = if d = 0 then 1 else fst (Pool.fork2 p (fun () -> nest (d - 1)) (fun () -> 0)) in
      Alcotest.(check int) "deep" 1 (Pool.run p (fun () -> nest 200)))

let test_exception_after_suspension () =
  (* A fiber that suspends and then fails: the exception must surface at
     the await, not kill a worker. *)
  Pool.with_pool ~workers:2 (fun p ->
      Alcotest.check_raises "late failure" (Failure "after sleep") (fun () ->
          Pool.run p (fun () ->
              let pr =
                Pool.async p (fun () ->
                    Pool.sleep p 0.005;
                    failwith "after sleep")
              in
              Pool.await pr));
      (* pool still healthy afterwards *)
      Alcotest.(check int) "still works" 3 (Pool.run p (fun () -> 3)))

let test_many_runs_with_suspension () =
  (* Repeated run cycles leave no residue: deques recycle, counters grow
     consistently. *)
  Pool.with_pool ~workers:2 (fun p ->
      for round = 1 to 5 do
        let v =
          Pool.run p (fun () ->
              Pool.parallel_map_reduce p ~lo:0 ~hi:8
                ~map:(fun i ->
                  Pool.sleep p 0.002;
                  i)
                ~combine:( + ) ~id:0)
        in
        Alcotest.(check int) (Printf.sprintf "round %d" round) 28 v
      done;
      let st = Pool.stats p in
      Alcotest.(check bool) "suspensions accumulated" true (st.Scheduler_core.suspensions >= 5 * 8))

let test_timer_and_io_pollers_coexist () =
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
                let sleeper =
                  Pool.async p (fun () ->
                      Pool.sleep p 0.01;
                      Io.write_all io w (Bytes.of_string "k");
                      1)
                in
                let reader =
                  Pool.async p (fun () ->
                      let buf = Bytes.create 1 in
                      Io.read_exactly io r buf 1;
                      2)
                in
                Pool.await sleeper + Pool.await reader)
          in
          Alcotest.(check int) "both event sources served" 3 result))

let test_deque_table_growth () =
  (* Regression for the fixed-size global deque table, which used to die
     with [failwith "deque table overflow"] when allocations outran its
     slots.  Deque ids are never reused (recycling keeps the id), so the
     table's high-water mark is lifetime fresh allocations.  On one
     worker a submitted fiber gets a fresh deque when it is injected
     while the worker has no active deque — right after a scheduling
     pass that ran nothing, which is what the poller below waits for
     ([tasks_run] unchanged between two polls) before submitting the
     next fiber.  Each fiber then suspends on its own deque and pins it,
     so with all of them suspended at once no deque can be recycled and
     a 2-slot table goes through several doublings.  Every suspension
     must still resume and the grown table must serve normal compute. *)
  Pool.with_pool ~workers:1 ~initial_deques:2 (fun p ->
      let fibers = 12 in
      let gate = Promise.create () and all_done = Promise.create () in
      let started = ref 0 and suspended = Atomic.make 0 and finished = Atomic.make 0 in
      let last_run = ref (-1) in
      let fiber () =
        Atomic.incr suspended;
        Pool.await gate;
        if Atomic.fetch_and_add finished 1 = fibers - 1 then Promise.fulfill all_done (Ok ())
      in
      Pool.register_poller p (fun () ->
          let ran = (Pool.stats p).Scheduler_core.tasks_run in
          let idle_pass = ran = !last_run in
          last_run := ran;
          if not idle_pass || Atomic.get suspended < !started then 0
          else if !started < fibers then begin
            incr started;
            Pool.submit p fiber;
            1
          end
          else if not (Promise.is_resolved gate) then begin
            Promise.fulfill gate (Ok ());
            1
          end
          else 0);
      Pool.run p (fun () -> Pool.await all_done);
      Alcotest.(check int) "every fiber crossed its suspension" fibers (Atomic.get finished);
      let st = Pool.stats p in
      Alcotest.(check bool)
        (Printf.sprintf "grew past the initial table (%d allocated)"
           st.Scheduler_core.deques_allocated)
        true
        (st.Scheduler_core.deques_allocated > 2);
      (* The grown table serves normal compute untouched. *)
      Alcotest.(check int) "map_reduce after growth" 5050
        (Pool.run p (fun () ->
             Pool.parallel_map_reduce p ~lo:1 ~hi:101 ~map:Fun.id ~combine:( + )
               ~id:0)))

(* Lemma 7 on the real pool: a worker owns at most U + 1 deques, where U
   is the suspension width.  N fibers each alternate a short compute with
   a sleep; the sleeps are the only latency edges (the root's await is a
   join), so U = N.  The bound must hold on one and on two workers.  On
   one worker there are no steals, so every deque a resume revives is
   recycled, and the lifetime allocation count must not grow with the
   number of suspend/resume rounds: a run of 10 rounds and 90 more on the
   same pool end with the same [deques_allocated]. *)
let lemma7_fibers = 8

let lemma7_rounds p ~rounds =
  Pool.run p (fun () ->
      let fiber i =
        Pool.async p (fun () ->
            let acc = ref i in
            for _ = 1 to rounds do
              for k = 1 to 2_000 do
                acc := (!acc * 31) + k
              done;
              Pool.sleep p 0.0005
            done;
            !acc)
      in
      List.init lemma7_fibers fiber |> List.iter (fun f -> ignore (Pool.await f : int)))

let check_lemma7 ?(u = lemma7_fibers) label (st : Pool.stats) =
  Alcotest.(check bool)
    (Printf.sprintf "%s: max_deques_per_worker %d <= U + 1 = %d" label
       st.Scheduler_core.max_deques_per_worker (u + 1))
    true
    (st.Scheduler_core.max_deques_per_worker <= u + 1)

let test_lemma7_one_worker () =
  Pool.with_pool ~workers:1 (fun p ->
      lemma7_rounds p ~rounds:10;
      let after10 = Pool.stats p in
      lemma7_rounds p ~rounds:90;
      let after100 = Pool.stats p in
      check_lemma7 "10 rounds" after10;
      check_lemma7 "100 rounds" after100;
      Alcotest.(check int) "deques_allocated flat from 10 to 100 rounds"
        after10.Scheduler_core.deques_allocated after100.Scheduler_core.deques_allocated)

let test_lemma7_two_workers () =
  Pool.with_pool ~workers:2 (fun p ->
      lemma7_rounds p ~rounds:100;
      check_lemma7 "2 workers" (Pool.stats p))

(* --- async from the pump ---

   The reactor pump dispatches requests with [async] between tasks,
   where the worker may have no active deque.  A poller stands in for
   it: on a pass right after a scheduling round that ran nothing (the
   worker has just retired its deque), it spawns a fiber.  Each must
   run. *)

let test_async_from_pump () =
  Pool.with_pool ~workers:1 (fun p ->
      let want = 20 in
      let spawned = ref 0 and ran = Atomic.make 0 and last_run = ref (-1) in
      Pool.register_poller p (fun () ->
          let tasks = (Pool.stats p).Scheduler_core.tasks_run in
          let idle_pass = tasks = !last_run in
          last_run := tasks;
          if idle_pass && !spawned < want then begin
            incr spawned;
            ignore (Pool.async p (fun () -> Atomic.incr ran) : unit Promise.t);
            1
          end
          else 0);
      Pool.run p (fun () ->
          let rec wait i =
            if Atomic.get ran < want && i < 2000 then begin
              Pool.sleep p 0.001;
              wait (i + 1)
            end
          in
          wait 0);
      Alcotest.(check int) "every fiber spawned from the pump ran" want (Atomic.get ran))

(* Lemma 7 with the pump spawning too: every [every]-th pass spawns a
   short compute fiber, with or without an active deque.  The spawns
   never suspend and a deque the pump starts is the active one, so the
   bound is still U + 1.  Here U counts the root too: its [await] on a
   fiber suspends (a join is a heavy edge in this pool, ROADMAP item 1),
   so up to N + 1 fibers are suspended at once.  The tests above rely on
   the root's deque also holding sleepers; with the pump's extra deques
   and steals, a worker was seen owning N + 2 deques under load. *)
let pump_spawner p ~every =
  let passes = ref 0 and ran = Atomic.make 0 in
  Pool.register_poller p (fun () ->
      incr passes;
      if !passes mod every <> 0 then 0
      else begin
        ignore (Pool.async p (fun () -> Atomic.incr ran) : unit Promise.t);
        1
      end);
  ran

let test_lemma7_pump_one_worker () =
  Pool.with_pool ~workers:1 (fun p ->
      let ran = pump_spawner p ~every:7 in
      lemma7_rounds p ~rounds:10;
      let after10 = Pool.stats p in
      lemma7_rounds p ~rounds:90;
      let after100 = Pool.stats p in
      let u = lemma7_fibers + 1 in
      check_lemma7 ~u "10 rounds" after10;
      check_lemma7 ~u "100 rounds" after100;
      Alcotest.(check int) "deques_allocated flat from 10 to 100 rounds"
        after10.Scheduler_core.deques_allocated after100.Scheduler_core.deques_allocated;
      Alcotest.(check bool)
        (Printf.sprintf "pump spawns ran (%d)" (Atomic.get ran))
        true
        (Atomic.get ran > 0))

let test_lemma7_pump_two_workers () =
  Pool.with_pool ~workers:2 (fun p ->
      let ran = pump_spawner p ~every:7 in
      lemma7_rounds p ~rounds:100;
      check_lemma7 ~u:(lemma7_fibers + 1) "2 workers" (Pool.stats p);
      Alcotest.(check bool)
        (Printf.sprintf "pump spawns ran (%d)" (Atomic.get ran))
        true
        (Atomic.get ran > 0))

(* A pump running on a worker of pool B spawns onto pool A (a shared
   reactor, or a connection closed from another pool's task).  The
   fiber must run on A's worker, never in B's deque: A runs in a domain
   of its own, B on this one. *)
let test_async_from_foreign_pump () =
  let ran_on = Atomic.make None and a_handle = Atomic.make None in
  let a_domain =
    Domain.spawn (fun () ->
        Pool.with_pool ~workers:1 (fun a ->
            Atomic.set a_handle (Some a);
            Pool.run a (fun () ->
                let rec wait i =
                  if Atomic.get ran_on = None && i < 2000 then begin
                    Pool.sleep a 0.001;
                    wait (i + 1)
                  end
                in
                wait 0));
        (Domain.self () :> int))
  in
  let rec pool_a () =
    match Atomic.get a_handle with
    | Some a -> a
    | None ->
        Unix.sleepf 0.001;
        pool_a ()
  in
  let a = pool_a () in
  Pool.with_pool ~workers:1 (fun b ->
      let spawned = ref false in
      Pool.register_poller b (fun () ->
          if !spawned then 0
          else begin
            spawned := true;
            ignore
              (Pool.async a (fun () -> Atomic.set ran_on (Some (Domain.self () :> int)))
                : unit Promise.t);
            1
          end);
      Pool.run b (fun () ->
          let rec wait i =
            if Atomic.get ran_on = None && i < 2000 then begin
              Pool.sleep b 0.001;
              wait (i + 1)
            end
          in
          wait 0));
  let a_id = Domain.join a_domain in
  Alcotest.(check (option int)) "the fiber ran on pool A's worker" (Some a_id)
    (Atomic.get ran_on)

let test_victim_stats_growth () =
  let module VS = Scheduler_core.Victim_stats in
  let t = VS.create ~victims:2 in
  Alcotest.(check int) "initial capacity" 2 (VS.capacity t);
  VS.record t 0 ~hit:true;
  VS.record t 0 ~hit:true;
  VS.record t 1 ~hit:false;
  let r0 = VS.rate t 0 and r1 = VS.rate t 1 in
  Alcotest.(check bool) "hits raise the rate" true (r0 > 0.5);
  Alcotest.(check bool) "misses lower the rate" true (r1 < 0.5);
  VS.ensure_capacity t 8;
  Alcotest.(check int) "grown" 8 (VS.capacity t);
  Alcotest.(check (float 1e-9)) "existing rate kept (hit)" r0 (VS.rate t 0);
  Alcotest.(check (float 1e-9)) "existing rate kept (miss)" r1 (VS.rate t 1);
  Alcotest.(check (float 1e-9)) "new slots start at the prior" 0.5 (VS.rate t 5);
  VS.ensure_capacity t 4;
  Alcotest.(check int) "never shrinks" 8 (VS.capacity t)

let test_victim_stats_pick_foreign () =
  let module VS = Scheduler_core.Victim_stats in
  let t = VS.create ~victims:8 in
  let rng = Random.State.make [| 42 |] in
  Alcotest.(check int) "single victim" 0 (VS.pick_foreign t rng ~n:1);
  (* [n] may trail the tracker's capacity: draws stay inside [0, n). *)
  for _ = 1 to 200 do
    let v = VS.pick_foreign t rng ~n:3 in
    if v < 0 || v >= 3 then Alcotest.failf "draw %d out of range" v
  done;
  (* Two-choice bias: with one clearly hot slot, most draws find it. *)
  for v = 0 to 2 do
    for _ = 1 to 20 do
      VS.record t v ~hit:(v = 2)
    done
  done;
  let hot = ref 0 in
  for _ = 1 to 200 do
    if VS.pick_foreign t rng ~n:3 = 2 then incr hot
  done;
  Alcotest.(check bool)
    (Printf.sprintf "hot victim favoured (%d/200)" !hot)
    (* Two-choice sampling over 3 slots draws the hot slot with
       probability 1 - (2/3)^2 = 5/9, so the mean is 111/200; 90 sits
       ~3σ below that and well above the unbiased 67. *)
    true (!hot > 90)

let test_worker_steal_policy () =
  (* Section 6's worker-targeted steals: same results, and with latency in
     play steals still succeed (fibers migrate). *)
  Pool.with_pool ~workers:2 ~steal_policy:Pool.Worker_then_deque (fun p ->
      let v =
        Pool.run p (fun () ->
            Pool.parallel_map_reduce p ~lo:0 ~hi:40
              ~map:(fun i ->
                if i mod 4 = 0 then Pool.sleep p 0.002;
                Lhws_workloads.Fib.seq 10 + i)
              ~combine:( + ) ~id:0)
      in
      let expect = List.fold_left (fun a i -> a + 55 + i) 0 (List.init 40 Fun.id) in
      Alcotest.(check int) "value" expect v;
      let rec fib n =
        if n < 2 then n
        else
          let a, b = Pool.fork2 p (fun () -> fib (n - 1)) (fun () -> fib (n - 2)) in
          a + b
      in
      Alcotest.(check int) "fib under worker steals" 987 (Pool.run p (fun () -> fib 16)))

let test_resume_batch_ordering () =
  (* addResumedVertices contract: a batch of resumes drained together is
     re-injected as a pfor tree that unfolds in arrival order.  One worker;
     k fibers suspend, parking their resume callbacks; a blocker task then
     pins the worker while an external domain fires every callback in index
     order, so all k land in the deque's MPSC channel as one batch.  On a
     single worker the pfor tree must then execute them 0, 1, ..., k-1. *)
  let k = 16 in
  Pool.with_pool ~workers:1 (fun p ->
      let slots = Array.make k (fun () -> ()) in
      let registered = Atomic.make 0 in
      let release = Atomic.make false in
      let order = ref [] in
      let executed =
        Pool.run p (fun () ->
            (* Pushed first = popped last: the blocker runs only after every
               suspender has suspended. *)
            let blocker =
              Pool.async p (fun () ->
                  while not (Atomic.get release) do
                    Domain.cpu_relax ()
                  done)
            in
            let prs =
              List.init k (fun i ->
                  Pool.async p (fun () ->
                      Fiber.suspend (fun resume ->
                          slots.(i) <- resume;
                          Atomic.incr registered);
                      order := i :: !order))
            in
            let firer =
              Domain.spawn (fun () ->
                  while Atomic.get registered < k do
                    Domain.cpu_relax ()
                  done;
                  Array.iter (fun resume -> resume ()) slots;
                  Atomic.set release true)
            in
            List.iter (fun pr -> Pool.await pr) prs;
            Pool.await blocker;
            Domain.join firer;
            List.rev !order)
      in
      Alcotest.(check (list int)) "batch executes in arrival order" (List.init k Fun.id) executed)

let test_idle_backoff_wakes_for_timer () =
  (* The idle path backs off exponentially, but the sleep is clamped to the
     next timer deadline: a 1 ms timer on an otherwise-idle pool must not
     be overslept by workers parked at the 1 ms backoff cap.  The upper
     bound is wall-clock on a possibly-shared machine, so the measurement
     retries a few times — the test only fails if every attempt exceeds
     the tolerance, which OS scheduling jitter alone will not sustain. *)
  Pool.with_pool ~workers:4 (fun p ->
      ignore (Pool.run p (fun () -> 0));
      let tolerance = 0.05 in
      let attempts = 3 in
      let rec measure attempt =
        (* give the other workers time to climb to the backoff cap *)
        Unix.sleepf 0.02;
        let t0 = Unix.gettimeofday () in
        Pool.run p (fun () -> Pool.sleep p 0.001);
        let dt = Unix.gettimeofday () -. t0 in
        Alcotest.(check bool) (Printf.sprintf "slept %.4fs >= 1ms" dt) true (dt >= 0.001);
        if dt >= tolerance && attempt < attempts then measure (attempt + 1)
        else
          Alcotest.(check bool)
            (Printf.sprintf "woke within %.0fms (%.4fs, attempt %d/%d)"
               (tolerance *. 1e3) dt attempt attempts)
            true (dt < tolerance)
      in
      measure 1)

(* --- shutdown paths --- *)

let test_shutdown_after_root_exception () =
  (* A root fiber that raises (after actually suspending) must not wedge
     the workers: shutdown still joins every domain promptly. *)
  let p = Pool.create ~workers:3 () in
  (try
     Pool.run p (fun () ->
         Pool.parallel_for p ~lo:0 ~hi:4 (fun _ -> Pool.sleep p 0.002);
         failwith "boom")
   with Failure _ -> ());
  Pool.shutdown p;
  Alcotest.(check pass) "joined cleanly" () ()

let test_double_shutdown () =
  let p = Pool.create ~workers:2 () in
  Alcotest.(check int) "works" 1 (Pool.run p (fun () -> 1));
  Pool.shutdown p;
  Pool.shutdown p;
  Alcotest.(check pass) "second shutdown is a no-op" () ()

let test_run_after_shutdown_raises () =
  let p = Pool.create ~workers:2 () in
  Pool.shutdown p;
  Alcotest.check_raises "run after shutdown"
    (Invalid_argument "Lhws_pool.run: pool is shut down") (fun () ->
      ignore (Pool.run p (fun () -> 0)))

let test_with_pool_propagates_and_shuts_down () =
  (* with_pool must shut the pool down even when the body raises, and the
     body's exception wins. *)
  Alcotest.check_raises "body exception surfaces" (Failure "body") (fun () ->
      Pool.with_pool ~workers:2 (fun p ->
          ignore (Pool.run p (fun () -> 1));
          failwith "body"))

let test_raising_submit_keeps_worker () =
  (* Nobody joins a submitted thunk, so one that raises must not take its
     worker down: the exception is reported (on stderr) and the worker
     keeps scheduling.  Round robin puts the second submission on worker
     1, a spawned domain that runs without [run]. *)
  let p = Pool.create ~workers:2 () in
  Pool.submit p (fun () -> ());
  Pool.submit p (fun () -> failwith "boom on worker 1");
  (* Worker 1 drains its inbox within one idle backoff (<= 1 ms). *)
  Unix.sleepf 0.02;
  let before = (Pool.heartbeats p).(1) in
  Unix.sleepf 0.05;
  let after = (Pool.heartbeats p).(1) in
  Alcotest.(check bool)
    (Printf.sprintf "worker 1 still loops (heartbeats %d -> %d)" before after)
    true (after > before);
  Pool.shutdown p;
  Alcotest.(check pass) "shutdown returns normally" () ()

let test_shutdown_timely () =
  (* Domains with nothing to do are spinning thieves; shutdown must not
     wait on timers or sleeps to stop them. *)
  let p = Pool.create ~workers:4 () in
  ignore (Pool.run p (fun () -> 0));
  let t0 = Unix.gettimeofday () in
  Pool.shutdown p;
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) (Printf.sprintf "shutdown took %.3fs" dt) true (dt < 1.0)

let () =
  Alcotest.run "lhws_pool"
    [
      ("basics", [ Alcotest.test_case "worker steal policy" `Quick test_worker_steal_policy ]);
      ( "deques",
        [
          Alcotest.test_case "table growth under suspension" `Quick
            test_deque_table_growth;
          Alcotest.test_case "lemma 7 bound, one worker" `Quick test_lemma7_one_worker;
          Alcotest.test_case "lemma 7 bound, two workers" `Quick test_lemma7_two_workers;
          Alcotest.test_case "async from the pump" `Quick test_async_from_pump;
          Alcotest.test_case "lemma 7 bound with pump spawns, one worker" `Quick
            test_lemma7_pump_one_worker;
          Alcotest.test_case "lemma 7 bound with pump spawns, two workers" `Quick
            test_lemma7_pump_two_workers;
          Alcotest.test_case "async from another pool's pump" `Quick
            test_async_from_foreign_pump;
          Alcotest.test_case "victim stats growth" `Quick test_victim_stats_growth;
          Alcotest.test_case "victim stats pick_foreign" `Quick
            test_victim_stats_pick_foreign;
        ] );
      ( "latency",
        [
          Alcotest.test_case "sleep duration" `Quick test_sleep_duration;
          Alcotest.test_case "sleep zero" `Quick test_sleep_zero;
          Alcotest.test_case "hiding on one worker" `Quick test_latency_hiding_one_worker;
          Alcotest.test_case "suspension stats" `Quick test_suspension_stats;
          Alcotest.test_case "mixed sleep/compute" `Quick test_mixed_sleep_compute;
          Alcotest.test_case "exception after suspension" `Quick test_exception_after_suspension;
          Alcotest.test_case "many runs with suspension" `Quick test_many_runs_with_suspension;
          Alcotest.test_case "timer + io pollers" `Quick test_timer_and_io_pollers_coexist;
          Alcotest.test_case "resume batch ordering" `Quick test_resume_batch_ordering;
          Alcotest.test_case "idle backoff wakes for timer" `Quick test_idle_backoff_wakes_for_timer;
        ] );
      ( "stress",
        [
          Alcotest.test_case "many fibers" `Slow test_many_fibers;
          Alcotest.test_case "yield" `Quick test_yield;
          Alcotest.test_case "deep nesting" `Slow test_deep_nesting;
        ] );
      ( "shutdown",
        [
          Alcotest.test_case "after root exception" `Quick test_shutdown_after_root_exception;
          Alcotest.test_case "double shutdown" `Quick test_double_shutdown;
          Alcotest.test_case "run after shutdown raises" `Quick test_run_after_shutdown_raises;
          Alcotest.test_case "with_pool on body exception" `Quick
            test_with_pool_propagates_and_shuts_down;
          Alcotest.test_case "shutdown is timely" `Quick test_shutdown_timely;
          Alcotest.test_case "raising submit keeps its worker" `Quick
            test_raising_submit_keeps_worker;
        ] );
    ]
