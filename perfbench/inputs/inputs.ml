(* Seeded inputs for every workload.  Each stream draws from its own
   [Random.State] made from the seed and a stream tag, so one stream's
   length never shifts another's draws, and the same seed gives the
   same inputs on every run.  The program under test receives only what
   these functions produce. *)

let state ~seed tag = Random.State.make [| 0x6c6877; seed; tag |]

(* ---------- fetch_mr ---------- *)

type item = { key : int; delta_us : int; fib_n : int }

(* δ spreads uniformly over 0.5–1.5 ms around the paper's 1 ms fetch.
   The work is skewed: nine items in ten run a small fib (17–21), one in
   ten a large one (23–25), so a few leaves dominate and stealing has
   something to balance.  The sizes form a fixed multiset in seeded
   order: every seed asks for the same total work, and seeds differ in
   where the heavy items fall and in the keys and δs. *)
let fetch_items ~seed ~n =
  let st = state ~seed 1 in
  let fib_n = Array.init n (fun i -> if i < n / 10 then 23 + (i mod 3) else 17 + (i mod 5)) in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = fib_n.(i) in
    fib_n.(i) <- fib_n.(j);
    fib_n.(j) <- t
  done;
  Array.map
    (fun fib_n ->
      let key = Random.State.bits st in
      let delta_us = 500 + Random.State.int st 1001 in
      { key; delta_us; fib_n })
    fib_n

(* The data server's key -> value map (a 62-bit integer mix). *)
let value_of_key k =
  let x = (k lxor (k lsr 29)) * 0x3C6EF372FE94F82B in
  let x = (x lxor (x lsr 32)) * 0x1B873593 in
  (x lxor (x lsr 29)) land 0xFFFF_FFFF_FFFF

(* Leaf results and partial sums are reduced modulo 2^60. *)
let mask = (1 lsl 60) - 1

(* Iterative, so the checksum never touches the pool or its recursive
   fib. *)
let fib n =
  let rec go a b k = if k = 0 then a else go b (a + b) (k - 1) in
  go 0 1 n

let leaf_value it = (value_of_key it.key + fib it.fib_n) land mask

let checksum items = Array.fold_left (fun acc it -> (acc + leaf_value it) land mask) 0 items

(* ---------- http ---------- *)

(* Poisson arrival offsets (seconds from the phase start) at [rate] per
   second over [duration] seconds. *)
let arrivals ~seed ~rate ~duration =
  let st = state ~seed 2 in
  let rec go t acc =
    let t = t -. (log (1. -. Random.State.float st 1.0) /. rate) in
    if t >= duration then Array.of_list (List.rev acc) else go t (t :: acc)
  in
  go 0. []

let min_body = 4096
let max_body = 65536

(* Log-uniform body sizes over 4–64 KiB (both ends included), so about
   a third of the bodies fit in one 16 KiB read buffer and the rest span
   several. *)
let body_sizes ~seed ~count =
  let st = state ~seed 3 in
  Array.init count (fun _ ->
      let s = float_of_int min_body *. (16. ** Random.State.float st 1.0) in
      max min_body (min max_body (int_of_float s)))

(* Where each body starts inside {!body_pattern}. *)
let body_offsets ~seed ~count =
  let st = state ~seed 4 in
  Array.init count (fun _ -> Random.State.int st max_body)

(* Two maximal bodies' worth of seeded letters; body [i] is the slice at
   [body_offsets.(i)] of length [body_sizes.(i)]. *)
let body_pattern ~seed =
  let st = state ~seed 5 in
  Bytes.init (2 * max_body) (fun _ -> Char.chr (97 + Random.State.int st 26))
