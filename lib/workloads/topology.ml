type class_ = Latency | Batch | Custom of string

let class_name = function Latency -> "latency" | Batch -> "batch" | Custom s -> s

type spec = {
  spec_class : class_;
  spec_pool : Pool_intf.pool;
  spec_workers : int;
  spec_scavenges : class_ option;
}

let spec ?(pool = Pool_intf.lhws) ?(workers = 2) ?scavenges class_ =
  { spec_class = class_; spec_pool = pool; spec_workers = workers; spec_scavenges = scavenges }

(* One member pool, existentially packaged: the class is the routing key,
   the module + handle pair is everything needed to talk to it.

   Each member also gets a {e driver} domain holding the pool inside
   [P.run] for the topology's lifetime.  Scheduler_core pools only run
   their worker 0 inside [run] (the caller becomes that worker), so a
   pool nobody runs serves with one worker missing — and externally
   submitted thunks round-robined to worker 0's inbox would never be
   picked up.  The driver's root task just awaits the stop promise:
   on the lhws pool the fiber suspends and worker 0 helps freely, on
   the ws pool the await IS the helping loop, on the thread-per-task
   pool it blocks the driver thread, which owns no work anyway. *)
type member =
  | Member : {
      m_class : class_;
      m_pool : (module Pool_intf.POOL with type t = 'p);
      m_handle : 'p;
      m_stop : unit Lhws_runtime.Promise.t;
      m_driver : unit Domain.t;
    }
      -> member

type t = { name : string; members : member list; shut : bool Atomic.t }

(* Polymorphic accessor: callers that need pool-typed operations beyond
   the closed set below unpack the member themselves through this. *)
type 'a user = { use : 'p. (module Pool_intf.POOL with type t = 'p) -> 'p -> 'a }

let member_class (Member m) = m.m_class

let find t class_ =
  match List.find_opt (fun m -> member_class m = class_) t.members with
  | Some m -> m
  | None ->
      invalid_arg
        (Printf.sprintf "Topology %s: no pool for class %S" t.name
           (class_name class_))

let use t ~class_ { use } =
  let (Member m) = find t class_ in
  use m.m_pool m.m_handle

let stop_member (Member m) =
  let (module P) = m.m_pool in
  (try Lhws_runtime.Promise.fulfill m.m_stop (Ok ())
   with Invalid_argument _ -> ());
  Domain.join m.m_driver;
  P.shutdown m.m_handle

let create ?(name = "topology") specs =
  if specs = [] then invalid_arg "Topology.create: no pools";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let c = class_name s.spec_class in
      if Hashtbl.mem seen c then
        invalid_arg (Printf.sprintf "Topology.create: duplicate class %S" c);
      Hashtbl.add seen c ())
    specs;
  let members =
    List.map
      (fun s ->
        let (module P : Pool_intf.POOL) = s.spec_pool in
        let handle =
          P.create
            ~name:(name ^ "." ^ class_name s.spec_class)
            ~workers:s.spec_workers ()
        in
        let stop = Lhws_runtime.Promise.create () in
        let driver =
          Domain.spawn (fun () -> P.run handle (fun () -> P.await handle stop))
        in
        Member
          {
            m_class = s.spec_class;
            m_pool = (module P);
            m_handle = handle;
            m_stop = stop;
            m_driver = driver;
          })
      specs
  in
  let t = { name; members; shut = Atomic.make false } in
  (* Wire the scavenge edges now that every member is live.  Partially
     built pools are torn down on a bad edge so a failed [create] leaks
     no domains. *)
  (try
     List.iter
       (fun s ->
         match s.spec_scavenges with
         | None -> ()
         | Some donor_class ->
             if donor_class = s.spec_class then
               invalid_arg
                 (Printf.sprintf
                    "Topology.create: class %S cannot scavenge itself"
                    (class_name s.spec_class));
             let (Member donor) = find t donor_class in
             let (module D) = donor.m_pool in
             let src =
               match D.scavenge_source donor.m_handle with
               | Some src -> src
               | None ->
                   invalid_arg
                     (Printf.sprintf
                        "Topology.create: class %S (%s) has nothing a sibling \
                         can steal"
                        (class_name donor_class) D.name)
             in
             let (Member thief) = find t s.spec_class in
             let (module T) = thief.m_pool in
             if not (T.set_scavenge thief.m_handle src) then
               invalid_arg
                 (Printf.sprintf
                    "Topology.create: class %S (%s) cannot scavenge"
                    (class_name s.spec_class) T.name))
       specs
   with e ->
     List.iter stop_member members;
     raise e);
  t

let name t = t.name
let classes t = List.map member_class t.members

let submit t ~class_ f =
  let (Member m) = find t class_ in
  let (module P) = m.m_pool in
  P.submit m.m_handle f

let dispatcher t ~class_ =
  let (Member m) = find t class_ in
  let (module P) = m.m_pool in
  fun f -> P.submit m.m_handle f

(* [run] cannot enter the member's own [P.run] — its driver already
   holds it for the topology's lifetime — so the thunk travels the same
   pool-pinned submit path as everything else and the caller blocks on a
   condvar until the member's workers finish it. *)
let run t ~class_ f =
  let m = Mutex.create () in
  let cv = Condition.create () in
  let slot = ref None in
  submit t ~class_ (fun () ->
      let r = try Ok (f ()) with e -> Error e in
      Mutex.lock m;
      slot := Some r;
      Condition.signal cv;
      Mutex.unlock m);
  Mutex.lock m;
  while Option.is_none !slot do
    Condition.wait cv m
  done;
  Mutex.unlock m;
  match Option.get !slot with Ok v -> v | Error e -> raise e

let stats t =
  List.map
    (fun (Member m) ->
      let (module P) = m.m_pool in
      (m.m_class, P.stats m.m_handle))
    t.members

let pool_names t =
  List.map
    (fun (Member m) ->
      let (module P) = m.m_pool in
      (m.m_class, P.name))
    t.members

let shutdown t =
  if Atomic.compare_and_set t.shut false true then List.iter stop_member t.members

let with_topology ?name specs f =
  let t = create ?name specs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
