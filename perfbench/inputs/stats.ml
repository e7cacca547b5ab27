(* Order statistics over float samples. *)

(* Nearest-rank percentile of an already sorted array; 0 when empty. *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then 0.
  else
    let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) k))

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let percentile a p = percentile_sorted (sorted a) p
let median a = percentile a 50.

(* A growable float buffer for latency samples. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let length t = t.n
  let to_array t = Array.sub t.a 0 t.n
end

(* Mean of the middle half: a quarter of the values (rounded down) is
   dropped at each end. *)
let midmean a =
  let a = sorted a in
  let n = Array.length a in
  let k = n / 4 in
  if n = 0 then 0.
  else Array.fold_left ( +. ) 0. (Array.sub a k (n - (2 * k))) /. float_of_int (n - (2 * k))

(* Samples split into windows (the caller numbers them, typically by
   time).  A percentile is taken in each window and the midmean over
   windows is reported, so a stall moves one window's figure rather than
   the whole run's, and the run's figure still averages many windows. *)
module Windowed = struct
  type t = (int, Samples.t) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let add t ~window x =
    let s =
      match Hashtbl.find_opt t window with
      | Some s -> s
      | None ->
          let s = Samples.create () in
          Hashtbl.add t window s;
          s
    in
    Samples.add s x

  let count t = Hashtbl.fold (fun _ s n -> n + Samples.length s) t 0

  (* Windows with fewer samples than this (the partial ones at the ends
     of a phase) are left out, unless no window has as many. *)
  let min_count = 1000

  (* Midmean over windows of each window's [p]th percentile. *)
  let percentile t p =
    let all = Hashtbl.fold (fun _ s acc -> s :: acc) t [] in
    let full = List.filter (fun s -> Samples.length s >= min_count) all in
    let use = if full = [] then all else full in
    midmean (Array.of_list (List.map (fun s -> percentile (Samples.to_array s) p) use))
end
