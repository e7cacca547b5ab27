module Rng = Lhws_core.Rng

module type DEQUE = sig
  type 'a t

  val create : ?capacity:int -> unit -> 'a t
  val push_bottom : 'a t -> 'a -> unit
  val pop_bottom : 'a t -> 'a option
  val steal : 'a t -> 'a option
end

module Chase_lev_deque = Lhws_deque.Chase_lev

type report = {
  pushed : int;
  popped : int;
  stolen : int;
  lost : int;
  duplicated : int;
  reordered : int;
}

let ok r = r.lost = 0 && r.duplicated = 0 && r.reordered = 0

let pp_report ppf r =
  Format.fprintf ppf
    "pushed %d, popped %d, stolen %d; lost %d, duplicated %d, reordered %d" r.pushed r.popped
    r.stolen r.lost r.duplicated r.reordered

let count_inversions xs =
  (* Strictly increasing is the expectation; count adjacent violations. *)
  let rec go acc = function
    | a :: (b :: _ as rest) -> go (if b <= a then acc + 1 else acc) rest
    | _ -> acc
  in
  go 0 xs

let hammer (module D : DEQUE) ?(thieves = 3) ?(items = 20_000) ?(pop_every = 7)
    ?(owner_pause_every = 0) () =
  let d = D.create () in
  let done_pushing = Atomic.make false in
  let thief () =
    (* Collected newest-first; reversed before the order check. *)
    let mine = ref [] in
    let rec go misses =
      match D.steal d with
      | Some x ->
          mine := x :: !mine;
          go 0
      | None ->
          if Atomic.get done_pushing && misses > 200 then ()
          else begin
            Domain.cpu_relax ();
            go (misses + 1)
          end
    in
    go 0;
    List.rev !mine
  in
  let thief_domains = Array.init thieves (fun _ -> Domain.spawn thief) in
  let owner = ref [] in
  for i = 1 to items do
    D.push_bottom d i;
    (if pop_every > 0 && i mod pop_every = 0 then
       match D.pop_bottom d with Some x -> owner := x :: !owner | None -> ());
    (* A real sleep, not [cpu_relax]: on a single core the thieves only
       run when the owner gives up the CPU, and some checks (bursts of
       consecutive steals) need the owner quiescent while they do. *)
    if owner_pause_every > 0 && i mod owner_pause_every = 0 then Unix.sleepf 1e-6
  done;
  Atomic.set done_pushing true;
  (* The drain honours [owner_pause_every] too: checks that need a thief
     to act while the owner is mid-drain get their windows on a single
     core. *)
  let drained = ref 0 in
  let rec drain () =
    match D.pop_bottom d with
    | Some x ->
        owner := x :: !owner;
        incr drained;
        if owner_pause_every > 0 && !drained mod owner_pause_every = 0 then Unix.sleepf 1e-6;
        drain ()
    | None -> ()
  in
  drain ();
  let stolen_lists = Array.to_list (Array.map Domain.join thief_domains) in
  let consumed = Array.make (items + 1) 0 in
  let record xs = List.iter (fun x -> if x >= 1 && x <= items then consumed.(x) <- consumed.(x) + 1) xs in
  record !owner;
  List.iter record stolen_lists;
  let lost = ref 0 and duplicated = ref 0 in
  for i = 1 to items do
    if consumed.(i) = 0 then incr lost;
    if consumed.(i) > 1 then duplicated := !duplicated + (consumed.(i) - 1)
  done;
  {
    pushed = items;
    popped = List.length !owner;
    stolen = List.fold_left (fun acc l -> acc + List.length l) 0 stolen_lists;
    lost = !lost;
    duplicated = !duplicated;
    reordered = List.fold_left (fun acc l -> acc + count_inversions l) 0 stolen_lists;
  }

let sequential_model (module D : DEQUE) ?(ops = 5_000) ~seed () =
  let d = D.create ~capacity:2 () in
  let rng = Rng.make seed in
  (* Reference model: a plain list, oldest first. *)
  let model = ref [] in
  let model_push x = model := !model @ [ x ] in
  let model_pop () =
    match List.rev !model with
    | [] -> None
    | newest :: rest_rev ->
        model := List.rev rest_rev;
        Some newest
  in
  let model_steal () =
    match !model with
    | [] -> None
    | oldest :: rest ->
        model := rest;
        Some oldest
  in
  let next = ref 0 in
  let pushed = ref 0 and popped = ref 0 and stolen = ref 0 and reordered = ref 0 in
  let consumed = Hashtbl.create ops in
  let consume = function
    | None -> ()
    | Some x -> Hashtbl.replace consumed x (1 + Option.value ~default:0 (Hashtbl.find_opt consumed x))
  in
  for _ = 1 to ops do
    match Rng.int rng 6 with
    | 0 | 1 | 2 ->
        incr next;
        incr pushed;
        D.push_bottom d !next;
        model_push !next
    | 3 ->
        let got = D.pop_bottom d in
        if got <> None then incr popped;
        consume got;
        if got <> model_pop () then incr reordered
    | _ ->
        let got = D.steal d in
        if got <> None then incr stolen;
        consume got;
        if got <> model_steal () then incr reordered
  done;
  (* Drain what remains so loss/duplication are judged on the full run. *)
  let rec drain () =
    match D.pop_bottom d with
    | Some _ as got ->
        incr popped;
        consume got;
        if got <> model_pop () then incr reordered;
        drain ()
    | None -> if model_pop () <> None then incr reordered
  in
  drain ();
  let lost = ref 0 and duplicated = ref 0 in
  for x = 1 to !next do
    match Hashtbl.find_opt consumed x with
    | None -> incr lost
    | Some 1 -> ()
    | Some k -> duplicated := !duplicated + (k - 1)
  done;
  {
    pushed = !pushed;
    popped = !popped;
    stolen = !stolen;
    lost = !lost;
    duplicated = !duplicated;
    reordered = !reordered;
  }
