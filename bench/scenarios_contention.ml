(* Contention microbenchmarks for the scheduler's hot paths: the resume
   channel (yield storm), the steal candidate scan (a fork tree of tiny
   tasks under both steal policies), the shared timer (sleep storm) and
   the suspend/resume round-trip (ping-pong, run across every pool).
   Each runs at several worker counts so oversubscription and cross-domain
   traffic show up; the JSON samples are what the CI regression guard
   compares against the committed baseline. *)

module R = Registry
module P = Lhws_workloads.Pool_intf
module Lhws = Lhws_runtime.Lhws_pool
module Ws = Lhws_runtime.Ws_pool
module Core = Lhws_runtime.Scheduler_core
module Fiber = Lhws_runtime.Fiber
module Channel = Lhws_runtime.Channel

let stat_counters (stats : Lhws_runtime.Scheduler_core.stats) =
  [
    ("steals", stats.steals);
    ("failed_steals", stats.failed_steals);
    ("tasks_stolen", stats.tasks_stolen);
    ("deques_allocated", stats.deques_allocated);
    ("suspensions", stats.suspensions);
    ("resumes", stats.resumes);
    ("io_pending", stats.io_pending);
    ("io_syscalls", stats.io_syscalls);
  ]

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let kops ops wall = float_of_int ops /. wall /. 1e3

(* Every fiber yields in a tight loop: each yield is one suspend + one
   same-or-cross-domain resume through the deque's resume channel and the
   owner's notification channel — the exact path on_resume/drain_resumed
   implement. *)
let resume_storm profile =
  R.section "CONT1 | resume-storm: suspend/resume channel throughput (yield loops)";
  (* Smoke stays CI-sized but large enough (tens of ms) that the regression
     guard's 25% threshold measures the scheduler, not timer noise. *)
  let fibers = R.pick profile ~full:256 ~smoke:128 in
  let yields = R.pick profile ~full:1000 ~smoke:500 in
  let ops = fibers * yields in
  Printf.printf "%d fibers x %d yields = %d suspend/resume pairs\n" fibers yields ops;
  Printf.printf "%8s %12s %14s\n" "workers" "wall (s)" "kops/s";
  List.iter
    (fun workers ->
      Lhws.with_pool ~workers (fun p ->
          let (), wall =
            time (fun () ->
                Lhws.run p (fun () ->
                    Lhws.parallel_for p ~lo:0 ~hi:fibers (fun _ ->
                        for _ = 1 to yields do
                          Fiber.yield ()
                        done)))
          in
          Bench_json.record ~scenario:"contention_resume_storm" ~pool:"lhws" ~workers
            ~wall_s:wall
            ~counters:(stat_counters (Lhws.stats p))
            ();
          Printf.printf "%8d %12.4f %14.1f\n%!" workers wall (kops ops wall)))
    (R.pick profile ~full:[ 4; 8 ] ~smoke:[ 2 ])

(* A wide tree of tiny tasks: thieves spend most of their time scanning
   for victims, so the cost of the candidate scan (previously an O(n)
   List.filter under the victim's lock) dominates.  Runs both lhws victim
   policies and the blocking baseline. *)
let steal_storm profile =
  R.section "CONT2 | steal-storm: tiny-task fork tree, steal policies";
  let leaves = R.pick profile ~full:32768 ~smoke:256 in
  let spin = R.pick profile ~full:80 ~smoke:20 in
  Printf.printf "%d leaves, ~%d-iteration spin each\n" leaves spin;
  Printf.printf "%8s %-18s %12s %14s %10s\n" "workers" "policy" "wall (s)" "kleaves/s" "steals";
  let spin_leaf i =
    let acc = ref i in
    for k = 1 to spin do
      acc := (!acc * 31) + k
    done;
    Sys.opaque_identity !acc |> ignore;
    1
  in
  let report ~pool label workers wall (st : Core.stats) =
    Bench_json.record
      ~scenario:(Printf.sprintf "contention_steal_storm_%s" label)
      ~pool ~workers ~wall_s:wall ~counters:(stat_counters st) ();
    Printf.printf "%8d %-18s %12.4f %14.1f %10d\n%!" workers label wall (kops leaves wall)
      st.steals
  in
  List.iter
    (fun workers ->
      List.iter
        (fun (label, policy) ->
          Lhws.with_pool ~workers ~steal_policy:policy (fun p ->
              let v, wall =
                time (fun () ->
                    Lhws.run p (fun () ->
                        Lhws.parallel_map_reduce p ~lo:0 ~hi:leaves ~map:spin_leaf
                          ~combine:( + ) ~id:0))
              in
              R.expect (v = leaves);
              report ~pool:"lhws" label workers wall (Lhws.stats p)))
        [ ("global", Lhws.Global_deque); ("worker", Lhws.Worker_then_deque) ];
      Ws.with_pool ~workers (fun p ->
          let v, wall =
            time (fun () ->
                Ws.run p (fun () ->
                    Ws.parallel_map_reduce p ~lo:0 ~hi:leaves ~map:spin_leaf ~combine:( + )
                      ~id:0))
          in
          R.expect (v = leaves);
          report ~pool:"ws" "ws_one" workers wall (Ws.stats p)))
    (R.pick profile ~full:[ 4; 8 ] ~smoke:[ 2 ])

(* Many fibers sleeping tiny durations: every worker used to probe the
   timer's mutex plus a clock read on every loop iteration; here the heap
   is hot and the probes are the contention. *)
let timer_storm profile =
  R.section "CONT3 | timer-storm: tiny sleeps hammering the shared timer";
  let fibers = R.pick profile ~full:128 ~smoke:8 in
  let sleeps = R.pick profile ~full:20 ~smoke:3 in
  let d = 0.001 in
  let ops = fibers * sleeps in
  Printf.printf "%d fibers x %d sleeps of %.0fus (ideal wall ~%.3fs)\n" fibers sleeps (d *. 1e6)
    (float_of_int sleeps *. d);
  Printf.printf "%8s %12s %14s\n" "workers" "wall (s)" "ktimers/s";
  List.iter
    (fun workers ->
      Lhws.with_pool ~workers (fun p ->
          let (), wall =
            time (fun () ->
                Lhws.run p (fun () ->
                    Lhws.parallel_for p ~lo:0 ~hi:fibers (fun _ ->
                        for _ = 1 to sleeps do
                          Lhws.sleep p d
                        done)))
          in
          Bench_json.record ~scenario:"contention_timer_storm" ~pool:"lhws" ~workers
            ~wall_s:wall
            ~counters:(stat_counters (Lhws.stats p))
            ();
          Printf.printf "%8d %12.4f %14.1f\n%!" workers wall (kops ops wall)))
    (R.pick profile ~full:[ 4; 8 ] ~smoke:[ 2 ])

(* Spawn/suspend/resume round-trip latency, across every pool: awaiting a
   just-spawned child forces the parent through one full suspend/resume
   cycle per round on the latency-hiding pool (and through the helping
   loop on the blocking baseline, a thread join on the thread pool). *)
let ping_pong profile =
  R.section "CONT4 | ping-pong: await(async ()) round-trips per pool";
  let rounds = R.pick profile ~full:20000 ~smoke:50 in
  Printf.printf "%d rounds\n" rounds;
  Printf.printf "%8s %-10s %12s %14s\n" "workers" "pool" "wall (s)" "krounds/s";
  List.iter
    (fun workers ->
      List.iter
        (fun (pool : P.pool) ->
          let module Pool = (val pool : P.POOL) in
          let p = Pool.create ~workers () in
          Fun.protect
            ~finally:(fun () -> Pool.shutdown p)
            (fun () ->
              let (), wall =
                time (fun () ->
                    Pool.run p (fun () ->
                        for _ = 1 to rounds do
                          Pool.await p (Pool.async p (fun () -> ()))
                        done))
              in
              Bench_json.record ~scenario:"contention_ping_pong" ~pool:Pool.name ~workers
                ~wall_s:wall
                ~counters:(stat_counters (Pool.stats p))
                ();
              Printf.printf "%8d %-10s %12.4f %14.1f\n%!" workers Pool.name wall
                (kops rounds wall)))
        [ P.lhws; P.ws; P.threads ])
    (R.pick profile ~full:[ 4; 8 ] ~smoke:[ 2 ]);
  (* Channel ping-pong: two fibers handing a token back and forth, two
     suspensions + two cross-deque resumes per round (lhws only: the
     blocking pools cannot park a receiver). *)
  Printf.printf "channel token ping-pong (lhws):\n";
  Printf.printf "%8s %12s %14s\n" "workers" "wall (s)" "krounds/s";
  List.iter
    (fun workers ->
      Lhws.with_pool ~workers (fun p ->
          let (), wall =
            time (fun () ->
                Lhws.run p (fun () ->
                    let c1 = Channel.create () and c2 = Channel.create () in
                    let (), () =
                      Lhws.fork2 p
                        (fun () ->
                          for _ = 1 to rounds do
                            Channel.send c1 ();
                            Channel.recv c2
                          done)
                        (fun () ->
                          for _ = 1 to rounds do
                            Channel.recv c1;
                            Channel.send c2 ()
                          done)
                    in
                    ()))
          in
          Bench_json.record ~scenario:"contention_channel_ping_pong" ~pool:"lhws" ~workers
            ~wall_s:wall
            ~counters:(stat_counters (Lhws.stats p))
            ();
          Printf.printf "%8d %12.4f %14.1f\n%!" workers wall (kops rounds wall)))
    (R.pick profile ~full:[ 4; 8 ] ~smoke:[ 2 ])

let register () =
  R.register ~name:"contention_resume_storm" resume_storm;
  R.register ~name:"contention_steal_storm" steal_storm;
  R.register ~name:"contention_timer_storm" timer_storm;
  R.register ~name:"contention_ping_pong" ping_pong
