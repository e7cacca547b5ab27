module Chase_lev = Lhws_deque.Chase_lev
module Core = Scheduler_core

type wrec = {
  ctx : Core.ctx;
  q : (unit -> unit) Chase_lev.t;
  victims : Core.Victim_stats.t;  (* EWMA steal hit rate per victim, thief-local *)
  (* Owner-only stash for pinned injections (the [run] root task): kept
     out of [q] so neither local thieves nor cross-pool scavengers can
     export it.  Only touched from the owner's thread. *)
  mutable pinned : (unit -> unit) list;
}

type pstate = { slots : wrec array }

(* Victim choice is EWMA-biased (power-of-two-choices over observed hit
   rates), so repeated attempts against a chronically empty worker decay
   fast.  A successful steal takes the victim's oldest task. *)
let try_steal p w =
  let n = Array.length p.slots in
  if n = 1 then None
  else begin
    let vid = Core.Victim_stats.pick w.victims w.ctx.rng ~self:w.ctx.wid in
    if vid >= n then begin
      (* [w] can belong to a different (larger) pool than [p]: a blocking
         [await] inside a scavenged task helps against its home pool with
         the thief pool's worker state, whose tracker covers more victim
         slots than [p] has.  Treat an out-of-range draw as a miss. *)
      w.ctx.counters.failed_steals <- w.ctx.counters.failed_steals + 1;
      Core.Victim_stats.record w.victims vid ~hit:false;
      None
    end
    else
      match Chase_lev.steal p.slots.(vid).q with
      | Some task ->
          w.ctx.counters.steals <- w.ctx.counters.steals + 1;
          Core.Victim_stats.record w.victims vid ~hit:true;
          Core.mark w.ctx Tracing.Steal;
          Some task
      | None ->
          w.ctx.counters.failed_steals <- w.ctx.counters.failed_steals + 1;
          Core.Victim_stats.record w.victims vid ~hit:false;
          None
  end

(* One cross-pool steal attempt against this pool, run by a sibling
   pool's idle worker.  Every task here is a plain thunk, so the stolen
   one always goes to [sink].  Caveat: a thunk that uses this pool's
   fiber operations ([await]/[fork2] capture the pool handle) is only
   safe to scavenge into another [Ws_pool]; leaf thunks are safe
   anywhere. *)
let export_steal p ~rng ~tracker ~sink =
  let n = Array.length p.slots in
  let vid = Core.Victim_stats.pick_foreign tracker rng ~n in
  let stolen = Chase_lev.steal p.slots.(vid).q in
  Core.Victim_stats.record tracker vid ~hit:(stolen <> None);
  match stolen with
  | Some task ->
      sink task;
      true
  | None -> false

(* --- the policy: one deque per worker, tasks run to completion --- *)

module Policy = struct
  let label = "Ws_pool"
  let rng_salt = 0xB10C

  type config = unit

  let default_config = ()

  type task = unit -> unit
  type pool = pstate
  type wstate = wrec

  let make_pool () ~ctxs ~self_wid:_ =
    let victims = Array.length ctxs in
    {
      slots =
        Array.map
          (fun (ctx : Core.ctx) ->
            ctx.counters.max_owned <- 1;
            {
              ctx;
              q = Chase_lev.create ();
              victims = Core.Victim_stats.create ~victims;
              pinned = [];
            })
          ctxs;
    }

  let worker p i = p.slots.(i)
  let expects_resumes _ _ = false
  let drain _ _ = ()

  let next p w =
    match w.pinned with
    | task :: rest ->
        w.pinned <- rest;
        Some task
    | [] -> (
        match Chase_lev.pop_bottom w.q with
        | Some task -> Some task
        | None -> try_steal p w)

  let exec _ _ task = task ()

  let inject _ w ~pinned thunk =
    if pinned then w.pinned <- w.pinned @ [ thunk ]
    else Chase_lev.push_bottom w.q thunk
  let deques_allocated p = Array.length p.slots
  let export_steal = export_steal
end

module C = Core.Make (Policy)

type t = C.t

let create ?name ?workers () = C.create ?name ?workers ()

let run = C.run
let shutdown = C.shutdown

let with_pool ?name ?workers f = C.with_pool ?name ?workers f

let set_tracer = C.set_tracer
let register_poller = C.register_poller
let register_shed_counter = C.register_shed_counter
let name = C.name
let submit = C.submit
let scavenge_source = C.scavenge_source
let set_scavenge = C.set_scavenge
let clear_scavenge = C.clear_scavenge

let async _t f =
  let p = Promise.create () in
  let _, w = C.self () in
  Chase_lev.push_bottom w.q (fun () -> Promise.fulfill p (try Ok (f ()) with e -> Error e));
  p

let await t p =
  (match Promise.poll p with
  | Some _ -> ()
  | None -> C.help t ~until:(fun () -> Promise.is_resolved p));
  match Promise.poll p with
  | Some (Ok v) -> v
  | Some (Error e) -> raise e
  | None ->
      (* stop was raised while helping *)
      failwith "Ws_pool.await: pool stopped before promise resolved"

let fork2 t f g =
  let pg = async t g in
  let fv = f () in
  let gv = await t pg in
  (fv, gv)

let sleep _t seconds =
  if seconds > 0. then begin
    match C.self_opt () with
    | Some (ctx, _) when ctx.tracing () ->
        let start_us = Tracing.now_us () in
        Unix.sleepf seconds;
        ctx.emit Tracing.Blocked ~start_us ~dur_us:(Tracing.now_us () -. start_us)
    | _ -> Unix.sleepf seconds
  end

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

type stats = Scheduler_core.stats

let stats = C.stats
