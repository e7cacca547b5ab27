module Pool_intf = Lhws_workloads.Pool_intf

type report = {
  total : int;
  errors : int;
  connect_failures : int;
  non_2xx : int;
  wall_s : float;
  throughput_rps : float;
  p50_us : float;
  p99_us : float;
  max_us : float;
  mean_us : float;
  max_rounds_behind : int;
  slowest_conn_mean_us : float;
}

type http_req = { meth : string; target : string; req_body : bytes option }

let get target = { meth = "GET"; target; req_body = None }

(* One generator machinery, two protocols: the driver decides what a
   "call" is and whether its answer counts as success (latency sample),
   an application-level failure (non-2xx) or a transport error. *)
type driver = Rpc_driver of (int -> bytes) | Http_driver of (int -> http_req)

type class_spec = {
  cls : string;
  conns : int;
  inflight : int;
  iters : int;
  driver : driver;
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let idx = int_of_float (ceil (q *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) idx))

let default_payload i =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 (Int64.of_int i);
  b

let check_arity ~what conns inflight iters =
  if conns < 1 || inflight < 1 || iters < 1 then
    invalid_arg (what ^ ": conns, inflight and iters must be >= 1")

let class_spec ?(conns = 4) ?(inflight = 8) ?(iters = 50)
    ?(payload = default_payload) cls =
  check_arity ~what:"Load.class_spec" conns inflight iters;
  { cls; conns; inflight; iters; driver = Rpc_driver payload }

let http_spec ?(conns = 4) ?(inflight = 8) ?(iters = 50)
    ?(req = fun _ -> get "/") cls =
  check_arity ~what:"Load.http_spec" conns inflight iters;
  { cls; conns; inflight; iters; driver = Http_driver req }

type client = Crpc of Rpc.Client.t | Chttp of Http.Client.t

(* Per-class in-flight accounting, shared with the generator tasks. *)
type class_state = {
  spec : class_spec;
  lats : float array array;
  errors : int Atomic.t;
  connect_failures : int Atomic.t;
  non_2xx : int Atomic.t;
  clients : client option array;
  (* Fairness tallies: per-connection completed-call counters, and a
     one-shot snapshot of their spread taken the moment the first
     generator task finishes its share.  A scheduler that always favours
     the freshest work lets some connections race ahead while others
     crawl — the spread at first-finish, in units of full pipeline
     rounds, measures that starvation. *)
  rounds : int Atomic.t array;
  behind : int Atomic.t;
  snapped : bool Atomic.t;
}

let snapshot_behind st =
  if Atomic.compare_and_set st.snapped false true then begin
    let hi = ref 0 and lo = ref max_int in
    Array.iteri
      (fun i cl ->
        if Option.is_some cl then begin
          let c = Atomic.get st.rounds.(i) in
          if c > !hi then hi := c;
          if c < !lo then lo := c
        end)
      st.clients;
    if !lo <= !hi then Atomic.set st.behind ((!hi - !lo) / st.spec.inflight)
  end

(* Closed-loop: per class, [conns] pipelined connections with [inflight]
   generator tasks each, every task issuing [iters] calls back to back —
   so the offered load is Σ conns·inflight outstanding requests, all
   classes concurrently.  Call from within [P.run]. *)
let run_classes (type p) (module P : Pool_intf.POOL with type t = p) (pool : p)
    rt ~classes addr =
  if classes = [] then invalid_arg "Load.run_classes: no classes";
  let states =
    List.map
      (fun spec ->
        (* A refused or reset dial fails that connection's share of the
           load, not the whole run: an overloaded or fault-injected
           server refusing some arrivals is a result worth reporting,
           not a generator crash. *)
        let connect_failures = Atomic.make 0 in
        let dial () =
          match spec.driver with
          | Rpc_driver _ -> Crpc (Rpc.Client.connect (module P) pool rt addr)
          | Http_driver _ -> Chttp (Http.Client.connect (module P) pool rt addr)
        in
        {
          spec;
          lats =
            Array.init (spec.conns * spec.inflight) (fun _ ->
                Array.make spec.iters nan);
          errors = Atomic.make 0;
          connect_failures;
          non_2xx = Atomic.make 0;
          clients =
            Array.init spec.conns (fun _ ->
                match dial () with
                | cl -> Some cl
                | exception (Unix.Unix_error _ | Net.Closed) ->
                    Atomic.incr connect_failures;
                    None);
          rounds = Array.init spec.conns (fun _ -> Atomic.make 0);
          behind = Atomic.make 0;
          snapped = Atomic.make false;
        })
      classes
  in
  let t0 = Unix.gettimeofday () in
  let tasks =
    List.concat_map
      (fun st ->
        List.concat_map
          (fun ci ->
            List.init st.spec.inflight (fun j ->
                let slot = st.lats.((ci * st.spec.inflight) + j) in
                P.async pool (fun () ->
                    match st.clients.(ci) with
                    | None ->
                        (* Never connected: its whole share of the
                           offered load fails. *)
                        ignore
                          (Atomic.fetch_and_add st.errors st.spec.iters : int)
                    | Some (Crpc cl) ->
                        let payload =
                          match st.spec.driver with
                          | Rpc_driver f -> f
                          | Http_driver _ -> assert false
                        in
                        for k = 0 to st.spec.iters - 1 do
                          let t = Unix.gettimeofday () in
                          (match P.await pool (Rpc.Client.call cl (payload k)) with
                          | (_ : bytes) ->
                              slot.(k) <- (Unix.gettimeofday () -. t) *. 1e6
                          | exception Net.Remote_error _ ->
                              Atomic.incr st.non_2xx
                          | exception _ -> Atomic.incr st.errors);
                          Atomic.incr st.rounds.(ci)
                        done;
                        snapshot_behind st
                    | Some (Chttp cl) ->
                        let req =
                          match st.spec.driver with
                          | Http_driver f -> f
                          | Rpc_driver _ -> assert false
                        in
                        for k = 0 to st.spec.iters - 1 do
                          let r = req k in
                          let t = Unix.gettimeofday () in
                          (match
                             P.await pool
                               (Http.Client.call cl ?body:r.req_body ~meth:r.meth
                                  ~target:r.target ())
                           with
                          | resp ->
                              if resp.Http.Client.status / 100 = 2 then
                                slot.(k) <- (Unix.gettimeofday () -. t) *. 1e6
                              else Atomic.incr st.non_2xx
                          | exception _ -> Atomic.incr st.errors);
                          Atomic.incr st.rounds.(ci)
                        done;
                        snapshot_behind st)))
          (List.init st.spec.conns Fun.id))
      states
  in
  List.iter (fun t -> P.await pool t) tasks;
  let wall_s = Unix.gettimeofday () -. t0 in
  List.map
    (fun st ->
      Array.iter
        (Option.iter (function
          | Crpc cl -> Rpc.Client.close cl
          | Chttp cl -> Http.Client.close cl))
        st.clients;
      let ok =
        Array.to_list st.lats
        |> List.concat_map (fun slot ->
               Array.to_list slot |> List.filter (fun x -> not (Float.is_nan x)))
        |> Array.of_list
      in
      Array.sort compare ok;
      let mean arr =
        if Array.length arr = 0 then 0.
        else Array.fold_left ( +. ) 0. arr /. float_of_int (Array.length arr)
      in
      (* Per-connection mean: samples of connection [ci] live in lats
         slots [ci*inflight .. (ci+1)*inflight).  The slowest
         connection's mean is the fairness headline's denominator-side
         witness — a starved connection shows up here long before it
         moves the pooled p99. *)
      let slowest_conn_mean =
        let worst = ref 0. in
        for ci = 0 to st.spec.conns - 1 do
          let samples =
            List.init st.spec.inflight (fun j ->
                st.lats.((ci * st.spec.inflight) + j))
            |> List.concat_map (fun slot ->
                   Array.to_list slot |> List.filter (fun x -> not (Float.is_nan x)))
            |> Array.of_list
          in
          let m = mean samples in
          if m > !worst then worst := m
        done;
        !worst
      in
      ( st.spec.cls,
        {
          total = st.spec.conns * st.spec.inflight * st.spec.iters;
          errors = Atomic.get st.errors;
          connect_failures = Atomic.get st.connect_failures;
          non_2xx = Atomic.get st.non_2xx;
          wall_s;
          throughput_rps =
            (if wall_s > 0. then float_of_int (Array.length ok) /. wall_s else 0.);
          p50_us = percentile ok 0.50;
          p99_us = percentile ok 0.99;
          max_us = (if Array.length ok = 0 then 0. else ok.(Array.length ok - 1));
          mean_us = mean ok;
          max_rounds_behind = Atomic.get st.behind;
          slowest_conn_mean_us = slowest_conn_mean;
        } ))
    states

let run (type p) (module P : Pool_intf.POOL with type t = p) (pool : p) rt
    ?(conns = 4) ?(inflight = 8) ?(iters = 50) ?(payload = default_payload) addr =
  check_arity ~what:"Load.run" conns inflight iters;
  match
    run_classes (module P) pool rt
      ~classes:[ class_spec ~conns ~inflight ~iters ~payload "all" ]
      addr
  with
  | [ (_, r) ] -> r
  | _ -> assert false

let run_http (type p) (module P : Pool_intf.POOL with type t = p) (pool : p) rt
    ?(conns = 4) ?(inflight = 8) ?(iters = 50) ?req addr =
  check_arity ~what:"Load.run_http" conns inflight iters;
  match
    run_classes (module P) pool rt
      ~classes:[ http_spec ~conns ~inflight ~iters ?req "all" ]
      addr
  with
  | [ (_, r) ] -> r
  | _ -> assert false
