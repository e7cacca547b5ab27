module Chase_lev = Lhws_deque.Chase_lev
module Padding = Lhws_deque.Padding
module Core = Scheduler_core

(* Tasks are fresh fibers, captured continuations of suspended ones, or
   pool-pinned internal thunks.  [Fresh] is a user thunk that has not
   started running: it is {e pool-portable} — a sibling pool's scavenger
   may take it and run it as its own (the fiber then lives entirely in
   the thief pool).  [Pinned] is the same representation but for
   policy-internal re-injections (pfor batch unfolding, resume-batch
   wrappers) whose closures capture this pool's [pstate]; like [Resume]
   continuations — whose effect handlers close over it — they must never
   leave the pool. *)
type task =
  | Fresh of (unit -> unit)
  | Pinned of (unit -> unit)
  | Resume of (unit, unit) Effect.Deep.continuation

(* The resume and notification paths are multi-producer (any domain may
   complete an I/O or timer and resume a fiber) single-consumer (only the
   owning worker re-injects).  Both are Treiber-stack MPSC channels: a
   producer conses with a CAS loop, the consumer drains everything with a
   single atomic exchange — no mutex anywhere on the resume path.
   [push] returns whether the channel was empty, so the first producer
   after a drain knows to raise the one notification the owner needs. *)
let rec mpsc_push chan x =
  let old = Atomic.get chan in
  if Atomic.compare_and_set chan old (x :: old) then old == [] else mpsc_push chan x

(* Newest-first; callers [List.rev] to recover arrival order. *)
let mpsc_drain chan = Atomic.exchange chan []

type deque = {
  id : int;
  owner : int;
  q : task Chase_lev.t;
  suspend_ctr : int Atomic.t;
  resumed : task list Atomic.t;  (* MPSC: any domain conses, owner drains *)
  freed : bool Atomic.t;
  mutable in_ready : bool;  (* owner only *)
}

type wrec = {
  ctx : Core.ctx;
  mutable active : deque option;
  mutable ready : deque list;
  notified : deque list Atomic.t;  (* MPSC: deques with fresh resumes *)
  mutable empty : deque list;  (* freed deques for reuse; owner only *)
  mutable owned_live : int;
  owned_snap : deque array Atomic.t;
      (* immutable snapshot of the live owned deques, republished by the
         owner on alloc/free so thieves scan candidates without a lock *)
  victims : Core.Victim_stats.t;
      (* EWMA steal hit rate per victim worker; thief-local, used only by
         the Worker_then_deque policy (Global_deque targets deques, not
         workers, and stays uniform — it is the analyzed policy) *)
}

type steal_policy = Global_deque | Worker_then_deque

let default_initial_deques = 1024

type pstate = {
  slots : wrec array;
  (* The deque table grows (doubling under [grow_lock]) instead of
     failing at a fixed bound; thieves read the current snapshot with one
     atomic load.  All writes — slot publication and growth — happen
     under the lock, which is only ever taken on the fresh-allocation
     path ([w.empty] recycling never touches the table), so the steal
     and pop hot paths stay lock-free. *)
  gdeques : deque option array Atomic.t;
  grow_lock : Mutex.t;
  gtotal : int Atomic.t;
  steal_policy : steal_policy;
  self_wid : unit -> int;
}

(* The worker this domain is currently executing as; continuations migrate
   between workers, so effect handlers must resolve it dynamically. *)
let self p = p.slots.(p.self_wid ())

(* --- deque table --- *)

(* Owner only: single-writer, so a plain [Atomic.set] publish suffices. *)
let snap_add w d =
  let old = Atomic.get w.owned_snap in
  let n = Array.length old in
  let next = Array.make (n + 1) d in
  Array.blit old 0 next 0 n;
  Atomic.set w.owned_snap next

let snap_remove w d =
  let old = Atomic.get w.owned_snap in
  Atomic.set w.owned_snap
    (Array.of_list (List.filter (fun d' -> d' != d) (Array.to_list old)))

let alloc_deque p w =
  let d =
    match w.empty with
    | d :: rest ->
        w.empty <- rest;
        Atomic.set d.freed false;
        d
    | [] ->
        (* Fresh allocation: serialize table writes so a concurrent
           doubling can never lose a just-published slot.  [gtotal] is
           bumped last, so a reader that sees the new count either reads
           the slot or (through a stale table snapshot / plain read)
           sees [None] and treats it as a failed steal. *)
        Mutex.lock p.grow_lock;
        let id = Atomic.get p.gtotal in
        let d =
          {
            id;
            owner = w.ctx.wid;
            q = Chase_lev.create ();
            suspend_ctr = Atomic.make 0;
            resumed = Padding.make_atomic [];
            freed = Atomic.make false;
            in_ready = false;
          }
        in
        let arr = Atomic.get p.gdeques in
        let arr =
          if id < Array.length arr then arr
          else begin
            let len = ref (max 1 (Array.length arr)) in
            while id >= !len do
              len := !len * 2
            done;
            let grown = Array.make !len None in
            Array.blit arr 0 grown 0 (Array.length arr);
            Atomic.set p.gdeques grown;
            grown
          end
        in
        arr.(id) <- Some d;
        Atomic.incr p.gtotal;
        Mutex.unlock p.grow_lock;
        d
  in
  w.owned_live <- w.owned_live + 1;
  if w.owned_live > w.ctx.counters.max_owned then w.ctx.counters.max_owned <- w.owned_live;
  snap_add w d;
  d

let free_deque w d =
  Atomic.set d.freed true;
  w.owned_live <- w.owned_live - 1;
  w.empty <- d :: w.empty;
  snap_remove w d

(* Remove a deque from the owner's recycle pool (revival after a resume
   raced with freeing).  Owner-only. *)
let unfree w d =
  Atomic.set d.freed false;
  w.empty <- List.filter (fun d' -> d' != d) w.empty;
  w.owned_live <- w.owned_live + 1;
  if w.owned_live > w.ctx.counters.max_owned then w.ctx.counters.max_owned <- w.owned_live;
  snap_add w d

(* --- resume path: runs on any domain, lock- and allocation-light ---
   One CAS-cons onto the deque's resume channel; the producer that found
   it empty also conses one notification onto the owner's channel. *)

(* Hand a task to a deque's resume channel and raise the owner's
   notification.  Does NOT touch [suspend_ctr] — that belongs to the
   suspend/resume pairing; cross-pool scavengers also use this to return
   non-portable loot they cannot run, and those tasks were never
   suspended. *)
let requeue_home p d task =
  let was_empty = mpsc_push d.resumed task in
  if was_empty then ignore (mpsc_push p.slots.(d.owner).notified d : bool)

(* A resumed continuation always goes back to the deque it suspended
   with, on that deque's owner — the locality-preserving placement
   ("Analysis of Work-Stealing and Parallel Cache Complexity", arXiv
   2111.04994: steals dominate cache cost, so resumes should not
   migrate).  The owner's [drain_resumed] then re-injects it. *)
let on_resume p d task =
  let was_empty = mpsc_push d.resumed task in
  Atomic.decr d.suspend_ctr;
  if was_empty then ignore (mpsc_push p.slots.(d.owner).notified d : bool)

(* --- fiber execution --- *)

let rec exec_fresh p f =
  let open Effect.Deep in
  match_with f ()
    {
      retc = (fun () -> ());
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Fiber.Suspend register ->
              Some
                (fun (k : (a, _) continuation) ->
                  let w = self p in
                  let d =
                    match w.active with
                    | Some d -> d
                    | None -> failwith "Lhws_pool: suspend with no active deque"
                  in
                  Atomic.incr d.suspend_ctr;
                  w.ctx.counters.suspensions <- w.ctx.counters.suspensions + 1;
                  Core.mark w.ctx Tracing.Suspend;
                  register (fun () -> on_resume p d (Resume k)))
          | _ -> None);
    }

and run_task p task =
  match task with
  | Fresh f | Pinned f -> exec_fresh p f
  | Resume k -> Effect.Deep.continue k ()

(* Execute a batch of resumed continuations as a pfor tree: halves are
   pushed as spawnable tasks, so the batch unfolds in parallel with
   logarithmic span, exactly as addResumedVertices prescribes. *)
let rec pfor_exec p batch lo hi =
  let n = hi - lo in
  if n = 1 then run_task p batch.(lo)
  else begin
    let mid = lo + (n / 2) in
    let w = self p in
    (match w.active with
    | Some d -> Chase_lev.push_bottom d.q (Pinned (fun () -> pfor_exec p batch mid hi))
    | None -> assert false);
    pfor_exec p batch lo mid
  end

(* addResumedVertices: drain notifications, re-inject each deque's resumed
   batch, move the deque to the ready set.  Owner only.  The empty check
   first keeps the idle fast path to one atomic load (no exchange, which
   is a store even when the channel is empty).

   The batch re-enters its home deque as one task — a pfor tree when
   there are several, so it unfolds in parallel and stays stealable — and
   the deque joins the owner's ready {e stack}: LIFO at both levels, for
   locality. *)
let drain_resumed p w =
  if Atomic.get w.notified != [] then begin
    let notified = mpsc_drain w.notified in
    List.iter
      (fun d ->
        let batch = mpsc_drain d.resumed in
        match batch with
        | [] -> ()
        | _ ->
            Core.mark w.ctx Tracing.Resume_batch;
            w.ctx.counters.resumes <- w.ctx.counters.resumes + List.length batch;
            if Atomic.get d.freed then unfree w d;
            let task =
              match batch with
              | [ single ] -> single
              | _ ->
                  let arr = Array.of_list (List.rev batch) in
                  Pinned (fun () -> pfor_exec p arr 0 (Array.length arr))
            in
            Chase_lev.push_bottom d.q task;
            let is_active = match w.active with Some a -> a == d | None -> false in
            if (not is_active) && not d.in_ready then begin
              d.in_ready <- true;
              w.ready <- d :: w.ready
            end)
      (List.rev notified)
  end

(* Retire an exhausted active deque: free it if nothing will come back. *)
let retire_active w =
  match w.active with
  | None -> ()
  | Some d ->
      w.active <- None;
      if Atomic.get d.suspend_ctr = 0 then begin
        (* A racing resume may still slip in; drain_resumed revives. *)
        let quiet = Atomic.get d.resumed == [] in
        if quiet && Chase_lev.is_empty d.q then free_deque w d
      end

(* Steal the oldest task of victim deque [d].  On success the thief
   allocates a fresh deque of its own, makes it active, and returns the
   stolen task to run now; a lost race allocates nothing. *)
let steal_from p w d =
  match Chase_lev.steal d.q with
  | Some task ->
      w.ctx.counters.steals <- w.ctx.counters.steals + 1;
      Core.mark w.ctx Tracing.Steal;
      w.active <- Some (alloc_deque p w);
      Some task
  | None -> None

(* Uniformly random one of the currently non-empty deques in a published
   snapshot; [None] when all are empty (or emptied between the count and
   the draw).  Consumes at most one RNG draw, and only when a candidate
   exists. *)
let random_nonempty_deque rng owned =
  let nonempty = ref 0 in
  Array.iter (fun d -> if not (Chase_lev.is_empty d.q) then incr nonempty) owned;
  if !nonempty = 0 then None
  else begin
    let target = Random.State.int rng !nonempty in
    let pick = ref None in
    let seen = ref 0 in
    (try
       Array.iter
         (fun d ->
           if not (Chase_lev.is_empty d.q) then begin
             if !seen = target then begin
               pick := Some d;
               raise Exit
             end;
             incr seen
           end)
         owned
     with Exit -> ());
    !pick
  end

let try_steal p w =
  let fail () =
    w.ctx.counters.failed_steals <- w.ctx.counters.failed_steals + 1;
    None
  in
  match p.steal_policy with
  | Global_deque -> (
      (* The analyzed policy: uniform over the global deque table.  The
         table snapshot and the count are read independently; clamping to
         the shorter of the two keeps a stale snapshot safe. *)
      let arr = Atomic.get p.gdeques in
      let n = min (Atomic.get p.gtotal) (Array.length arr) in
      if n = 0 then None
      else
        match arr.(Random.State.int w.ctx.rng n) with
        | None -> fail ()
        | Some d ->
            if Atomic.get d.freed then fail ()
            else (match steal_from p w d with Some _ as got -> got | None -> fail ()))
  | Worker_then_deque ->
      (* Section 6's implementation: pick a victim worker — never self; a
         "steal" from one's own deque is just a deque switch and would
         corrupt the steal count — then a uniformly random one of its
         currently non-empty deques, read from the victim's published
         snapshot: no lock taken and no O(n) list walk under one.  The
         victim worker draw is EWMA-biased (power-of-two-choices over
         observed hit rates) so thieves drift away from chronically empty
         workers; the hit/miss below feeds the estimate. *)
      let n = Array.length p.slots in
      if n <= 1 then None
      else begin
        let vid = Core.Victim_stats.pick w.victims w.ctx.rng ~self:w.ctx.wid in
        let miss () =
          Core.Victim_stats.record w.victims vid ~hit:false;
          fail ()
        in
        let owned = Atomic.get p.slots.(vid).owned_snap in
        match random_nonempty_deque w.ctx.rng owned with
        | None -> miss ()
        | Some d -> (
            match steal_from p w d with
            | Some _ as got ->
                Core.Victim_stats.record w.victims vid ~hit:true;
                got
            | None -> miss ())
      end

(* One cross-pool steal attempt, run by a sibling pool's idle worker — a
   foreign thread with no [wrec] here, so nothing below may touch this
   pool's per-worker state or counters.  The victim worker is drawn from
   the {e thief's} EWMA [tracker] (grown to our worker count by the
   caller), the deque by the same published-snapshot scan the internal
   [Worker_then_deque] thief uses; this works whatever our own
   [steal_policy] is, because every pool maintains the snapshots.  Only
   [Fresh] thunks are exported: [Resume] continuations re-enter effect
   handlers closed over this pool, and [Pinned] thunks capture its
   [pstate]; both go back to their home deque via [requeue_home], never
   dropped.  Returns whether a thunk was delivered to [sink]. *)
let export_steal p ~rng ~tracker ~sink =
  let n = Array.length p.slots in
  let vid = Core.Victim_stats.pick_foreign tracker rng ~n in
  let stolen =
    match random_nonempty_deque rng (Atomic.get p.slots.(vid).owned_snap) with
    | None -> None
    | Some d -> Option.map (fun task -> (d, task)) (Chase_lev.steal d.q)
  in
  Core.Victim_stats.record tracker vid ~hit:(stolen <> None);
  match stolen with
  | None -> false
  | Some (_, Fresh f) ->
      sink f;
      true
  | Some (d, ((Pinned _ | Resume _) as task)) ->
      requeue_home p d task;
      false

(* One scheduling decision: the next task to run, switching or stealing as
   needed.  Mirrors lines 40-56 of Figure 3. *)
let next_task p w =
  let from_active () =
    match w.active with
    | Some d -> (
        match Chase_lev.pop_bottom d.q with
        | Some task -> Some task
        | None ->
            retire_active w;
            None)
    | None -> None
  in
  match from_active () with
  | Some task -> Some task
  | None -> (
      match w.ready with
      | d :: rest -> (
          w.ready <- rest;
          d.in_ready <- false;
          w.active <- Some d;
          match Chase_lev.pop_bottom d.q with
          | Some task -> Some task
          | None ->
              (* emptied by thieves since it was enqueued *)
              retire_active w;
              None)
      | [] ->
          (* On success [steal_from] has already allocated the thief's
             new deque, made it active and counted the steal. *)
          try_steal p w)

(* --- the policy: multi-deque suspend/resume over the shared engine --- *)

module Policy = struct
  let label = "Lhws_pool"
  let rng_salt = 0xACE5

  type config = { steal_policy : steal_policy; initial_deques : int }

  let default_config = { steal_policy = Global_deque; initial_deques = default_initial_deques }

  type nonrec task = task
  type pool = pstate
  type wstate = wrec

  let make_pool { steal_policy; initial_deques } ~ctxs ~self_wid =
    let victims = Array.length ctxs in
    {
      slots =
        Array.map
          (fun ctx ->
            {
              ctx;
              active = None;
              ready = [];
              notified = Padding.make_atomic [];
              empty = [];
              owned_live = 0;
              owned_snap = Padding.make_atomic [||];
              victims = Core.Victim_stats.create ~victims;
            })
          ctxs;
      gdeques = Atomic.make (Array.make (max 1 initial_deques) None);
      grow_lock = Mutex.create ();
      gtotal = Atomic.make 0;
      steal_policy;
      self_wid;
    }

  let worker p i = p.slots.(i)

  (* Any owned deque with suspended fibers (or an undrained resume batch)
     means a resume can land at any moment: stay on the fast idle poll. *)
  let expects_resumes _p w =
    let owned = Atomic.get w.owned_snap in
    let n = Array.length owned in
    let rec scan i =
      i < n
      && (Atomic.get owned.(i).suspend_ctr > 0
         || Atomic.get owned.(i).resumed != []
         || scan (i + 1))
    in
    scan 0

  let drain = drain_resumed
  let next = next_task
  let exec p _w task = run_task p task

  let inject p w ~pinned thunk =
    (* Bootstrap: give the worker an active deque holding the root fiber. *)
    let d = match w.active with Some d -> d | None -> alloc_deque p w in
    w.active <- Some d;
    Chase_lev.push_bottom d.q (if pinned then Pinned thunk else Fresh thunk)

  let deques_allocated p = Atomic.get p.gtotal
  let export_steal = export_steal
end

module C = Core.Make (Policy)

type t = C.t

let config ?(steal_policy = Global_deque) ?(initial_deques = default_initial_deques) () =
  { Policy.steal_policy; initial_deques }

let create ?name ?workers ?steal_policy ?initial_deques () =
  C.create ?name ?workers ~config:(config ?steal_policy ?initial_deques ()) ()

let run = C.run
let shutdown = C.shutdown

let with_pool ?name ?workers ?steal_policy ?initial_deques f =
  C.with_pool ?name ?workers ~config:(config ?steal_policy ?initial_deques ()) f

let register_poller = C.register_poller
let register_shed_counter = C.register_shed_counter
let register_watchdog = C.register_watchdog
let heartbeats = C.heartbeats
let set_tracer = C.set_tracer
let name = C.name
let submit = C.submit
let scavenge_source = C.scavenge_source
let set_scavenge = C.set_scavenge
let clear_scavenge = C.clear_scavenge

(* --- fiber-facing operations --- *)

(* From a task the fiber lands on the running deque.  The reactor pump
   also spawns here, between tasks, where the worker may have retired
   its active deque: it then starts one, as [inject] does.  A caller
   that is not a worker of this pool (another pool's worker or pump, a
   plain thread) goes through [submit], so the task never lands in a
   foreign pool's deque. *)
let async t f =
  let p = Promise.create () in
  let task () = Promise.fulfill p (try Ok (f ()) with e -> Error e) in
  (match C.self_opt () with
  | Some (ctx, w) when (C.pool t).slots.(ctx.Core.wid) == w ->
      let d =
        match w.active with
        | Some d -> d
        | None ->
            let d = alloc_deque (C.pool t) w in
            w.active <- Some d;
            d
      in
      Chase_lev.push_bottom d.q (Fresh task)
  | _ -> C.submit t task);
  p

let await p =
  (match Promise.poll p with
  | Some _ -> ()
  | None ->
      Fiber.suspend (fun resume -> if not (Promise.add_waiter p resume) then resume ()));
  match Promise.poll p with
  | Some (Ok v) -> v
  | Some (Error e) -> raise e
  | None -> assert false

let fork2 t f g =
  let pg = async t g in
  let fv = f () in
  let gv = await pg in
  (fv, gv)

let sleep t seconds =
  if seconds <= 0. then ()
  else Fiber.suspend (fun resume -> Timer.add_in (C.timer t) ~seconds resume)

let rec parallel_for t ~lo ~hi body =
  let n = hi - lo in
  if n <= 0 then ()
  else if n = 1 then body lo
  else
    let mid = lo + (n / 2) in
    let (), () =
      fork2 t (fun () -> parallel_for t ~lo ~hi:mid body) (fun () -> parallel_for t ~lo:mid ~hi body)
    in
    ()

let rec parallel_map_reduce t ~lo ~hi ~map ~combine ~id =
  let n = hi - lo in
  if n <= 0 then id
  else if n = 1 then map lo
  else
    let mid = lo + (n / 2) in
    let a, b =
      fork2 t
        (fun () -> parallel_map_reduce t ~lo ~hi:mid ~map ~combine ~id)
        (fun () -> parallel_map_reduce t ~lo:mid ~hi ~map ~combine ~id)
    in
    combine a b

(* --- stats --- *)

type stats = Scheduler_core.stats

let stats = C.stats
