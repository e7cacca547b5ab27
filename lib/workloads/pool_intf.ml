module type POOL = sig
  type t

  val name : string
  val create : ?name:string -> ?workers:int -> unit -> t
  val shutdown : t -> unit
  val run : t -> (unit -> 'a) -> 'a
  val async : t -> (unit -> 'a) -> 'a Lhws_runtime.Promise.t
  val await : t -> 'a Lhws_runtime.Promise.t -> 'a
  val fork2 : t -> (unit -> 'a) -> (unit -> 'b) -> 'a * 'b
  val sleep : t -> float -> unit
  val parallel_for : t -> lo:int -> hi:int -> (int -> unit) -> unit

  val parallel_map_reduce :
    t -> lo:int -> hi:int -> map:(int -> 'a) -> combine:('a -> 'a -> 'a) -> id:'a -> 'a

  val stats : t -> Lhws_runtime.Scheduler_core.stats
  val set_tracer : t -> Lhws_runtime.Tracing.t -> unit
  val register_shed_counter : t -> (unit -> int) -> unit
  val submit : t -> (unit -> unit) -> unit

  val scavenge_source :
    t -> Lhws_runtime.Scheduler_core.scavenge_source option

  val set_scavenge : t -> Lhws_runtime.Scheduler_core.scavenge_source -> bool
end

type pool = (module POOL)

module Lhws_instance = struct
  include Lhws_runtime.Lhws_pool

  (* Re-pin optional arguments to the POOL signature. *)
  let create ?name ?workers () = create ?name ?workers ()
  let name = "lhws"

  (* Lhws_pool's await suspends the fiber and needs no pool handle. *)
  let await _t p = await p

  let scavenge_source t = Some (Lhws_runtime.Lhws_pool.scavenge_source t)

  let set_scavenge t src =
    Lhws_runtime.Lhws_pool.set_scavenge t src;
    true
end

module Ws_instance = struct
  include Lhws_runtime.Ws_pool

  let create ?name ?workers () = create ?name ?workers ()
  let name = "ws"
  let scavenge_source t = Some (Lhws_runtime.Ws_pool.scavenge_source t)

  let set_scavenge t src =
    Lhws_runtime.Ws_pool.set_scavenge t src;
    true
end

module Threaded_instance = struct
  include Lhws_runtime.Threaded_pool

  (* [workers] bounds concurrency only loosely here: threads are created
     per task, so keep the default generous cap and validate the arity. *)
  let create ?name ?(workers = 2) () =
    if workers < 1 then invalid_arg "Threaded_pool.create: workers must be >= 1";
    create ?name ()

  let parallel_for t ~lo ~hi body = parallel_for t ?grain:None ~lo ~hi body

  let parallel_map_reduce t ~lo ~hi ~map ~combine ~id =
    parallel_map_reduce t ?grain:None ~lo ~hi ~map ~combine ~id

  let name = "threads"

  (* A thread-per-task pool has no queued-but-unstarted work to steal
     (tasks become threads immediately), and its threads never idle-loop,
     so it can neither donate nor scavenge. *)
  let scavenge_source _t = None
  let set_scavenge _t _src = false
end

let lhws : pool = (module Lhws_instance)
let ws : pool = (module Ws_instance)
let threads : pool = (module Threaded_instance)

let by_name = function
  | "lhws" -> lhws
  | "ws" -> ws
  | "threads" -> threads
  | s ->
      invalid_arg (Printf.sprintf "Pool_intf.by_name: unknown pool %S (want lhws|ws|threads)" s)
