type t = {
  mu : Mutex.t;
  retired : Condition.t;  (* signalled when a thread finishes *)
  max_threads : int;
  mutable live : int;
  mutable spawned : int;
  mutable peak : int;
  trace_mu : Mutex.t;  (* Tracing buffers are single-writer; serialize *)
  mutable tracer : Tracing.t option;
  shed_fns : (unit -> int) list Atomic.t;  (* overload-shed counters, see stats *)
  mutable entry : Scheduler_core.registry_entry option;
}

type stats = Scheduler_core.stats

(* No deques, no steals, no suspensions: every scheduler counter is
   degenerate; [tasks_run] is the threads spawned and the serving-layer
   shed counter is real. *)
let stats t : stats =
  {
    Scheduler_core.tasks_run =
      (Mutex.lock t.mu;
       let n = t.spawned in
       Mutex.unlock t.mu;
       n);
    steals = 0;
    failed_steals = 0;
    tasks_stolen = 0;
    deques_allocated = 0;
    suspensions = 0;
    resumes = 0;
    max_deques_per_worker = 0;
    io_pending = 0;
    io_syscalls = 0;
    conns_shed = List.fold_left (fun acc f -> acc + f ()) 0 (Atomic.get t.shed_fns);
    scavenge_steals = 0;
    tasks_scavenged = 0;
    tasks_donated = 0;
    stalls_detected = 0;
    oldest_parked_ms = 0.;
  }

let create ?name ?(max_threads = 512) () =
  if max_threads < 1 then invalid_arg "Threaded_pool.create: max_threads must be >= 1";
  let t =
    {
      mu = Mutex.create ();
      retired = Condition.create ();
      max_threads;
      live = 0;
      spawned = 0;
      peak = 0;
      trace_mu = Mutex.create ();
      tracer = None;
      shed_fns = Atomic.make [];
      entry = None;
    }
  in
  (* [workers] is a capacity here, not a domain count. *)
  t.entry <-
    Some
      (Scheduler_core.Registry.register ?name ~label:"Threaded_pool"
         ~workers:max_threads
         ~stats:(fun () -> stats t)
         ());
  t

let set_tracer t tracer = t.tracer <- Some tracer

let register_shed_counter t f =
  let rec push () =
    let old = Atomic.get t.shed_fns in
    if not (Atomic.compare_and_set t.shed_fns old (f :: old)) then push ()
  in
  push ()

(* All events land in worker slot 0: there is no stable worker identity in
   a thread-per-task pool. *)
let emit t kind ~start_us ~dur_us =
  match t.tracer with
  | None -> ()
  | Some tr ->
      Mutex.lock t.trace_mu;
      Tracing.record tr ~worker:0 kind ~start_us ~dur_us;
      Mutex.unlock t.trace_mu

let run _t f = f ()

let async t f =
  let p = Promise.create () in
  Mutex.lock t.mu;
  while t.live >= t.max_threads do
    Condition.wait t.retired t.mu
  done;
  t.live <- t.live + 1;
  t.spawned <- t.spawned + 1;
  if t.live > t.peak then t.peak <- t.live;
  Mutex.unlock t.mu;
  let body () =
    (match t.tracer with
    | None -> Promise.fulfill p (try Ok (f ()) with e -> Error e)
    | Some _ ->
        let start_us = Tracing.now_us () in
        Promise.fulfill p (try Ok (f ()) with e -> Error e);
        emit t Tracing.Task_run ~start_us ~dur_us:(Tracing.now_us () -. start_us));
    Mutex.lock t.mu;
    t.live <- t.live - 1;
    Condition.broadcast t.retired;
    Mutex.unlock t.mu
  in
  ignore (Thread.create body () : Thread.t);
  p

let await _t p =
  match Promise.poll p with
  | Some (Ok v) -> v
  | Some (Error e) -> raise e
  | None ->
      let mu = Mutex.create () in
      let cond = Condition.create () in
      let ready = ref false in
      let wake () =
        Mutex.lock mu;
        ready := true;
        Condition.signal cond;
        Mutex.unlock mu
      in
      if Promise.add_waiter p wake then begin
        Mutex.lock mu;
        while not !ready do
          Condition.wait cond mu
        done;
        Mutex.unlock mu
      end;
      Promise.get_exn p

let shutdown t =
  Mutex.lock t.mu;
  while t.live > 0 do
    Condition.wait t.retired t.mu
  done;
  Mutex.unlock t.mu;
  match t.entry with
  | Some e ->
      Scheduler_core.Registry.unregister e;
      t.entry <- None
  | None -> ()

let with_pool ?name ?max_threads f =
  let t = create ?name ?max_threads () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let name t =
  match t.entry with
  | Some e -> e.Scheduler_core.reg_name
  | None -> "Threaded_pool (shut down)"

(* Pool-pinned trivially: every task is its own thread of this pool. *)
let submit t f = ignore (async t f : unit Promise.t)

let fork2 t f g =
  let pg = async t g in
  let fv = f () in
  (fv, await t pg)

let sleep t seconds =
  if seconds > 0. then begin
    match t.tracer with
    | None -> Unix.sleepf seconds
    | Some _ ->
        let start_us = Tracing.now_us () in
        Unix.sleepf seconds;
        emit t Tracing.Blocked ~start_us ~dur_us:(Tracing.now_us () -. start_us)
  end

let default_grain lo hi = max 1 ((hi - lo + 63) / 64)

let parallel_for t ?grain ~lo ~hi body =
  let grain = match grain with Some g -> max 1 g | None -> default_grain lo hi in
  let rec go lo hi =
    if hi - lo <= 0 then ()
    else if hi - lo <= grain then
      for i = lo to hi - 1 do
        body i
      done
    else
      let mid = lo + ((hi - lo) / 2) in
      let (), () = fork2 t (fun () -> go lo mid) (fun () -> go mid hi) in
      ()
  in
  go lo hi

let parallel_map_reduce t ?grain ~lo ~hi ~map ~combine ~id =
  let grain = match grain with Some g -> max 1 g | None -> default_grain lo hi in
  let rec go lo hi =
    if hi - lo <= 0 then id
    else if hi - lo <= grain then begin
      let acc = ref (map lo) in
      for i = lo + 1 to hi - 1 do
        acc := combine !acc (map i)
      done;
      !acc
    end
    else
      let mid = lo + ((hi - lo) / 2) in
      let a, b = fork2 t (fun () -> go lo mid) (fun () -> go mid hi) in
      combine a b
  in
  go lo hi

let threads_spawned t =
  Mutex.lock t.mu;
  let n = t.spawned in
  Mutex.unlock t.mu;
  n

let peak_threads t =
  Mutex.lock t.mu;
  let n = t.peak in
  Mutex.unlock t.mu;
  n

