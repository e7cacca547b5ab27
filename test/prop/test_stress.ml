(* The Chase-Lev stress layer, and the mutation checks that prove it can
   actually catch deque bugs: three deliberately broken deques — a racy
   unsynchronized one, one that steals from the wrong end, and one that
   silently drops elements — must each be flagged. *)

module Stress = Lhws_proptest.Stress
module CL = Lhws_deque.Chase_lev

let real = (module Stress.Chase_lev_deque : Stress.DEQUE)

let test_real_hammer () =
  let r = Stress.hammer real ~thieves:3 ~items:20_000 () in
  if not (Stress.ok r) then Alcotest.failf "chase-lev flagged: %a" (fun ppf -> Stress.pp_report ppf) r;
  Alcotest.(check int) "all consumed" 20_000 (r.Stress.popped + r.Stress.stolen)

let test_real_hammer_many_thieves () =
  let r = Stress.hammer real ~thieves:6 ~items:8_000 ~pop_every:3 () in
  if not (Stress.ok r) then Alcotest.failf "chase-lev flagged: %a" (fun ppf -> Stress.pp_report ppf) r

let test_real_sequential_model () =
  for seed = 1 to 10 do
    let r = Stress.sequential_model real ~ops:4_000 ~seed () in
    if not (Stress.ok r) then
      Alcotest.failf "seed %d flagged: %a" seed (fun ppf -> Stress.pp_report ppf) r
  done

(* --- mutation 1: no synchronization at all --- *)

module Racy : Stress.DEQUE = struct
  type 'a t = { mutable buf : 'a array; mutable top : int; mutable bottom : int }

  let create ?(capacity = 16) () =
    { buf = Array.make (max 16 capacity) (Obj.magic 0); top = 0; bottom = 0 }

  let grow d =
    let n = Array.length d.buf in
    let buf = Array.make (2 * n) (Obj.magic 0) in
    Array.blit d.buf 0 buf 0 n;
    d.buf <- buf

  let push_bottom d x =
    if d.bottom >= Array.length d.buf then grow d;
    d.buf.(d.bottom) <- x;
    d.bottom <- d.bottom + 1

  let pop_bottom d =
    if d.bottom > d.top then begin
      d.bottom <- d.bottom - 1;
      Some d.buf.(d.bottom)
    end
    else None

  let steal d =
    if d.top < d.bottom then begin
      let x = d.buf.(d.top) in
      (* Widen the race window: every interleaving of two thieves between
         the read and the increment duplicates an element.  The window is
         a long relax loop, not a single relax, so that on a single-core
         machine — where the race needs an OS preemption to land exactly
         between the read and the increment — the window covers a large
         enough fraction of the steal loop to be hit reliably. *)
      for _ = 1 to 256 do
        Domain.cpu_relax ()
      done;
      d.top <- d.top + 1;
      Some x
    end
    else None
end

let test_racy_deque_caught () =
  (* Racy by nature, so give it a few attempts; on any multi-core machine
     a 20k-element hammer against unsynchronized indices is effectively
     guaranteed to lose or duplicate something. *)
  let violations = ref 0 in
  let attempts = 10 in
  (try
     for _ = 1 to attempts do
       let r = Stress.hammer (module Racy) ~thieves:4 ~items:20_000 () in
       violations := !violations + r.Stress.lost + r.Stress.duplicated + r.Stress.reordered;
       if !violations > 0 then raise Exit
     done
   with Exit -> ());
  Alcotest.(check bool) "harness caught the race" true (!violations > 0)

(* --- mutation 2: steal takes the newest element (LIFO) instead of the
   oldest.  Properly locked, so only the order oracle can see it. --- *)

module Wrong_end : Stress.DEQUE = struct
  type 'a t = { mu : Mutex.t; mutable items : 'a list (* newest first *) }

  let create ?capacity:_ () = { mu = Mutex.create (); items = [] }

  let with_mu d f =
    Mutex.lock d.mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock d.mu) f

  let push_bottom d x = with_mu d (fun () -> d.items <- x :: d.items)

  let pop_bottom d =
    with_mu d (fun () ->
        match d.items with
        | [] -> None
        | x :: rest ->
            d.items <- rest;
            Some x)

  let steal = pop_bottom (* BUG: should take the oldest *)
end

let test_wrong_end_caught () =
  let r = Stress.sequential_model (module Wrong_end) ~ops:2_000 ~seed:11 () in
  Alcotest.(check bool) "reorder caught" true (r.Stress.reordered > 0)

let test_wrong_end_caught_concurrent () =
  (* An inversion needs one thief to land two back-to-back steals (LIFO
     steals interleaved with owner pushes can look increasing).  On a
     single-core machine a thief's timeslice may land zero or one steal
     before the owner drains the deque, so retry until a run produces the
     burst — any multi-core or lucky single-core schedule catches it on
     the first attempt. *)
  let reordered = ref 0 in
  let attempts = 10 in
  (try
     for _ = 1 to attempts do
       let r =
         Stress.hammer (module Wrong_end) ~thieves:2 ~items:5_000 ~owner_pause_every:50 ()
       in
       reordered := !reordered + r.Stress.reordered;
       if !reordered > 0 then raise Exit
     done
   with Exit -> ());
  Alcotest.(check bool) "thief saw non-increasing steals" true (!reordered > 0)

(* --- mutation 3: drops every 37th popped element --- *)

module Lossy : Stress.DEQUE = struct
  type 'a t = { d : 'a CL.t; mutable pops : int }

  let create ?capacity () = { d = CL.create ?capacity (); pops = 0 }
  let push_bottom t x = CL.push_bottom t.d x

  let pop_bottom t =
    t.pops <- t.pops + 1;
    let got = CL.pop_bottom t.d in
    if t.pops mod 37 = 0 && got <> None then CL.pop_bottom t.d (* BUG: drops [got] *)
    else got

  let steal t = CL.steal t.d
end

let test_lossy_caught () =
  let r = Stress.sequential_model (module Lossy) ~ops:4_000 ~seed:3 () in
  Alcotest.(check bool) "loss caught" true (r.Stress.lost > 0 || r.Stress.reordered > 0)

let () =
  Alcotest.run "stress"
    [
      ( "chase-lev",
        [
          Alcotest.test_case "owner vs thieves" `Slow test_real_hammer;
          Alcotest.test_case "six thieves" `Slow test_real_hammer_many_thieves;
          Alcotest.test_case "sequential model" `Quick test_real_sequential_model;
        ] );
      ( "mutations",
        [
          Alcotest.test_case "racy deque caught" `Slow test_racy_deque_caught;
          Alcotest.test_case "wrong-end steal caught" `Quick test_wrong_end_caught;
          Alcotest.test_case "wrong-end steal caught (hammer)" `Slow test_wrong_end_caught_concurrent;
          Alcotest.test_case "lossy pop caught" `Quick test_lossy_caught;
        ] );
    ]
