(* Stall watchdog: the part of the runtime that notices when nothing
   else will.

   Every other liveness mechanism in the stack is attached to a
   specific wait — a deadline races one intent, a closed descriptor
   comes back from the batched pass as POLLNVAL.  The watchdog is the
   backstop for the failures those cannot see: a completion dropped in
   transit (the fiber stays parked with nobody left to wake it), a
   registration that silently forgot a descriptor, a worker wedged
   inside a task.  It periodically sweeps the reactors' intent census
   ({!Io.sweep_stalled}) and compares per-worker heartbeat counters,
   counts what it finds, and — in [Fail] mode — completes lost-wakeup
   fibers loudly with {!Stalled} so an orphaned parked fiber becomes an
   error the application sees instead of a hang the operator
   discovers. *)

type action = Warn | Fail

exception Stalled of string

let () =
  Printexc.register_printer (function
    | Stalled msg -> Some (Printf.sprintf "Watchdog.Stalled(%s)" msg)
    | _ -> None)

(* One pool's heartbeat surface: per-worker loop-iteration counters plus
   the sweep's memory of when each last advanced.  Sweep-only state —
   the single elected sweeper is the one writer. *)
type hb = {
  hb_name : string;
  hb_read : unit -> int array;
  mutable hb_last : int array;  (* counter values at the previous sweep *)
  mutable hb_since : float array;  (* when each counter last advanced *)
  mutable hb_flagged : bool array;  (* already reported this stuck episode *)
}

type t = {
  grace : float;
  stuck_after : float;
  interval : float;
  action : action;
  ios : Io.t list Atomic.t;
  hbs : hb list Atomic.t;
  on_stall : (string -> unit) list Atomic.t;
  stalls : int Atomic.t;
  worker_stalls : int Atomic.t;
  last_sweep : float Atomic.t;
  sweeping : bool Atomic.t;  (* one sweeper at a time; losers skip *)
}

let rec push_atomic l x =
  let old = Atomic.get l in
  if not (Atomic.compare_and_set l old (x :: old)) then push_atomic l x

let create ?(grace = 0.25) ?(action = Fail) ?interval ?stuck_after () =
  if grace <= 0. then invalid_arg "Watchdog.create: grace must be positive";
  let interval = match interval with Some i -> i | None -> grace /. 4. in
  let stuck_after =
    match stuck_after with Some s -> s | None -> Float.max (10. *. grace) 1.
  in
  {
    grace;
    stuck_after;
    interval;
    action;
    ios = Atomic.make [];
    hbs = Atomic.make [];
    on_stall = Atomic.make [];
    stalls = Atomic.make 0;
    worker_stalls = Atomic.make 0;
    last_sweep = Atomic.make 0.;
    sweeping = Atomic.make false;
  }

let grace t = t.grace
let attach_io t io =
  Io.start_census io;
  push_atomic t.ios io

let attach_heartbeats t ~name read =
  push_atomic t.hbs
    {
      hb_name = name;
      hb_read = read;
      hb_last = [||];
      hb_since = [||];
      hb_flagged = [||];
    }

let add_on_stall t f = push_atomic t.on_stall f

let report t msg = List.iter (fun f -> f msg) (Atomic.get t.on_stall)

(* Compare one pool's heartbeats against the last sweep's snapshot.  A
   worker whose counter has not moved for [stuck_after] is reported once
   per stuck episode (warn-only: there is no safe way to fail a wedged
   domain, and a long-running legitimate task is indistinguishable from
   a deadlock — which is why the threshold is far above [grace]). *)
let check_heartbeats t hb ~now =
  let cur = hb.hb_read () in
  let n = Array.length cur in
  if Array.length hb.hb_last <> n then begin
    hb.hb_last <- Array.copy cur;
    hb.hb_since <- Array.make n now;
    hb.hb_flagged <- Array.make n false;
    0
  end
  else begin
    let found = ref 0 in
    for i = 0 to n - 1 do
      if cur.(i) <> hb.hb_last.(i) then begin
        hb.hb_last.(i) <- cur.(i);
        hb.hb_since.(i) <- now;
        hb.hb_flagged.(i) <- false
      end
      else if (not hb.hb_flagged.(i)) && now -. hb.hb_since.(i) > t.stuck_after
      then begin
        hb.hb_flagged.(i) <- true;
        incr found;
        Atomic.incr t.worker_stalls;
        report t
          (Printf.sprintf "worker %d of %s: no heartbeat for %.0f ms" i
             hb.hb_name
             ((now -. hb.hb_since.(i)) *. 1e3))
      end
    done;
    !found
  end

(* One full sweep, unpaced: reactors first (lost wakeups, stale
   registrations), then heartbeats.  Exposed for tests; production
   callers go through {!poll}. *)
let sweep_now t =
  let now = Unix.gettimeofday () in
  let fail =
    match t.action with Fail -> Some (fun msg -> Stalled msg) | Warn -> None
  in
  let io_stalls =
    List.fold_left
      (fun acc io ->
        acc
        + Io.sweep_stalled io ~grace:t.grace ~probe_every:t.stuck_after ~fail ())
      0 (Atomic.get t.ios)
  in
  if io_stalls > 0 then begin
    ignore (Atomic.fetch_and_add t.stalls io_stalls : int);
    report t
      (Printf.sprintf "%d stalled intent%s swept" io_stalls
         (if io_stalls = 1 then "" else "s"))
  end;
  let hb_stalls =
    List.fold_left (fun acc hb -> acc + check_heartbeats t hb ~now) 0
      (Atomic.get t.hbs)
  in
  if hb_stalls > 0 then ignore (Atomic.fetch_and_add t.stalls hb_stalls : int);
  io_stalls + hb_stalls

let poll t =
  let now = Unix.gettimeofday () in
  if now -. Atomic.get t.last_sweep < t.interval then 0
  else if not (Atomic.compare_and_set t.sweeping false true) then 0
  else
    Fun.protect
      ~finally:(fun () -> Atomic.set t.sweeping false)
      (fun () ->
        Atomic.set t.last_sweep now;
        sweep_now t)

let stalls_detected t = Atomic.get t.stalls
let worker_stalls t = Atomic.get t.worker_stalls

let oldest_parked_ms t =
  List.fold_left
    (fun acc io -> Float.max acc (Io.oldest_parked_ms io))
    0. (Atomic.get t.ios)

let snapshot t = (stalls_detected t, oldest_parked_ms t)
