module CL = Lhws_deque.Chase_lev

let check_opt = Alcotest.(check (option int))

let test_sequential_lifo () =
  let d = CL.create () in
  List.iter (CL.push_bottom d) [ 1; 2; 3 ];
  check_opt "pop 3" (Some 3) (CL.pop_bottom d);
  check_opt "pop 2" (Some 2) (CL.pop_bottom d);
  check_opt "pop 1" (Some 1) (CL.pop_bottom d);
  check_opt "empty" None (CL.pop_bottom d)

let test_sequential_steal_fifo () =
  let d = CL.create () in
  List.iter (CL.push_bottom d) [ 1; 2; 3 ];
  check_opt "steal 1" (Some 1) (CL.steal d);
  check_opt "steal 2" (Some 2) (CL.steal d);
  check_opt "steal 3" (Some 3) (CL.steal d);
  check_opt "empty" None (CL.steal d)

let test_empty_after_mixed () =
  let d = CL.create () in
  List.iter (CL.push_bottom d) [ 1; 2 ];
  ignore (CL.steal d);
  ignore (CL.pop_bottom d);
  Alcotest.(check bool) "empty" true (CL.is_empty d);
  check_opt "pop none" None (CL.pop_bottom d);
  check_opt "steal none" None (CL.steal d);
  (* still usable *)
  CL.push_bottom d 9;
  check_opt "after reuse" (Some 9) (CL.pop_bottom d)

let test_growth () =
  let d = CL.create ~capacity:2 () in
  for i = 1 to 200 do
    CL.push_bottom d i
  done;
  Alcotest.(check int) "size" 200 (CL.size d);
  check_opt "steal oldest" (Some 1) (CL.steal d);
  check_opt "pop newest" (Some 200) (CL.pop_bottom d)

let test_interleaved_grow_steal () =
  let d = CL.create ~capacity:2 () in
  for i = 1 to 50 do
    CL.push_bottom d i;
    if i mod 3 = 0 then ignore (CL.steal d)
  done;
  (* drain and verify no element lost or duplicated *)
  let seen = Hashtbl.create 64 in
  let rec drain () =
    match CL.pop_bottom d with
    | Some x ->
        Alcotest.(check bool) "no dup" false (Hashtbl.mem seen x);
        Hashtbl.add seen x ();
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "drained the rest" (50 - 16) (Hashtbl.length seen)

(* Concurrency: one owner domain pushes/pops, several thieves steal; every
   element must be consumed exactly once across all parties. *)
let test_concurrent_owner_thieves () =
  let total = 20_000 in
  let nthieves = 3 in
  let d = CL.create () in
  let consumed = Array.make (total + 1) 0 in
  let consumed_mu = Mutex.create () in
  let record xs =
    Mutex.lock consumed_mu;
    List.iter (fun x -> consumed.(x) <- consumed.(x) + 1) xs;
    Mutex.unlock consumed_mu
  in
  let done_pushing = Atomic.make false in
  let thief () =
    let mine = ref [] in
    let rec go misses =
      match CL.steal d with
      | Some x ->
          mine := x :: !mine;
          go 0
      | None ->
          if Atomic.get done_pushing && misses > 100 then ()
          else begin
            Domain.cpu_relax ();
            go (misses + 1)
          end
    in
    go 0;
    record !mine
  in
  let thieves = Array.init nthieves (fun _ -> Domain.spawn thief) in
  let mine = ref [] in
  for i = 1 to total do
    CL.push_bottom d i;
    (* owner occasionally pops a few *)
    if i mod 7 = 0 then
      match CL.pop_bottom d with Some x -> mine := x :: !mine | None -> ()
  done;
  Atomic.set done_pushing true;
  (* owner drains what remains *)
  let rec drain () =
    match CL.pop_bottom d with
    | Some x ->
        mine := x :: !mine;
        drain ()
    | None -> ()
  in
  drain ();
  Array.iter Domain.join thieves;
  record !mine;
  let missing = ref 0 and dup = ref 0 in
  for i = 1 to total do
    if consumed.(i) = 0 then incr missing;
    if consumed.(i) > 1 then incr dup
  done;
  Alcotest.(check int) "no element lost" 0 !missing;
  Alcotest.(check int) "no element duplicated" 0 !dup

(* The grow path under fire: starting from the minimum capacity, the owner
   pushes enough to force many buffer doublings while three thieves drain
   concurrently, so grows race with in-flight steals of the old buffer.
   Every element must still be consumed exactly once. *)
let test_concurrent_grow () =
  let total = 50_000 in
  let nthieves = 3 in
  let d = CL.create ~capacity:2 () in
  let consumed = Array.make (total + 1) 0 in
  let consumed_mu = Mutex.create () in
  let record xs =
    Mutex.lock consumed_mu;
    List.iter (fun x -> consumed.(x) <- consumed.(x) + 1) xs;
    Mutex.unlock consumed_mu
  in
  let done_pushing = Atomic.make false in
  let thief () =
    let mine = ref [] in
    let rec go misses =
      match CL.steal d with
      | Some x ->
          mine := x :: !mine;
          go 0
      | None ->
          if Atomic.get done_pushing && misses > 100 then ()
          else begin
            Domain.cpu_relax ();
            go (misses + 1)
          end
    in
    go 0;
    record !mine
  in
  let thieves = Array.init nthieves (fun _ -> Domain.spawn thief) in
  for i = 1 to total do
    CL.push_bottom d i
  done;
  Atomic.set done_pushing true;
  let mine = ref [] in
  let rec drain () =
    match CL.pop_bottom d with
    | Some x ->
        mine := x :: !mine;
        drain ()
    | None -> ()
  in
  drain ();
  Array.iter Domain.join thieves;
  record !mine;
  let missing = ref 0 and dup = ref 0 in
  for i = 1 to total do
    if consumed.(i) = 0 then incr missing;
    if consumed.(i) > 1 then incr dup
  done;
  Alcotest.(check int) "no element lost" 0 !missing;
  Alcotest.(check int) "no element duplicated" 0 !dup

let () =
  Alcotest.run "chase_lev"
    [
      ( "sequential",
        [
          Alcotest.test_case "LIFO pop" `Quick test_sequential_lifo;
          Alcotest.test_case "FIFO steal" `Quick test_sequential_steal_fifo;
          Alcotest.test_case "empty after mixed" `Quick test_empty_after_mixed;
          Alcotest.test_case "growth" `Quick test_growth;
          Alcotest.test_case "interleaved grow/steal" `Quick test_interleaved_grow_steal;
        ] );
      ( "concurrent",
        [
          Alcotest.test_case "owner vs thieves" `Slow test_concurrent_owner_thieves;
          Alcotest.test_case "grow under steals" `Slow test_concurrent_grow;
        ] );
    ]
