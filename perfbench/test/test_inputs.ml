(* The benchmark's seeded inputs: the same seed gives identical inputs,
   another seed different ones, and every input stays in its stated
   range.  Also checks the fetch checksum and the order statistics the
   reported figures rest on. *)

open Bench_inputs

let check name ok = if not ok then failwith name

let seeded name f =
  check (name ^ ": the same seed gave different inputs") (f 7 = f 7);
  check (name ^ ": different seeds gave identical inputs") (f 7 <> f 8)

let () =
  seeded "fetch_items" (fun seed -> Inputs.fetch_items ~seed ~n:1000);
  seeded "arrivals" (fun seed -> Inputs.arrivals ~seed ~rate:5000. ~duration:1.);
  seeded "body_sizes" (fun seed -> Inputs.body_sizes ~seed ~count:1000);
  seeded "body_offsets" (fun seed -> Inputs.body_offsets ~seed ~count:1000);
  seeded "body_pattern" (fun seed -> Inputs.body_pattern ~seed);
  (* Ranges. *)
  Array.iter
    (fun it ->
      check "delta in 0.5-1.5 ms" (it.Inputs.delta_us >= 500 && it.Inputs.delta_us <= 1500);
      check "fib_n in 17-25" (it.Inputs.fib_n >= 17 && it.Inputs.fib_n <= 25))
    (Inputs.fetch_items ~seed:3 ~n:5000);
  let sizes = Inputs.body_sizes ~seed:3 ~count:5000 in
  Array.iter (fun s -> check "body size in 4-64 KiB" (s >= 4096 && s <= 65536)) sizes;
  check "bodies straddle the 16 KiB read buffer"
    (Array.exists (fun s -> s < 16384) sizes && Array.exists (fun s -> s > 16384) sizes);
  Array.iter
    (fun o -> check "body inside the pattern" (o >= 0 && o + 65536 <= 2 * 65536))
    (Inputs.body_offsets ~seed:3 ~count:5000);
  let arr = Inputs.arrivals ~seed:3 ~rate:10000. ~duration:2. in
  check "arrivals ascend" (Array.for_all Fun.id (Array.init (Array.length arr - 1) (fun i -> arr.(i) < arr.(i + 1))));
  check "arrival rate" (abs (Array.length arr - 20000) < 600);
  (* The checksum agrees with a recursive fib and a left fold. *)
  let rec fib n = if n < 2 then n else fib (n - 1) + fib (n - 2) in
  check "iterative fib" (List.for_all (fun n -> Inputs.fib n = fib n) (List.init 26 Fun.id));
  let items = Inputs.fetch_items ~seed:3 ~n:50 in
  let by_hand =
    Array.fold_left
      (fun acc it -> (acc + Inputs.value_of_key it.Inputs.key + fib it.Inputs.fib_n) land Inputs.mask)
      0 items
  in
  check "checksum" (Inputs.checksum items = by_hand);
  (* Order statistics. *)
  let a = Array.init 100 (fun i -> float_of_int (100 - i)) in
  check "p50" (Stats.percentile a 50. = 50.);
  check "p99" (Stats.percentile a 99. = 99.);
  check "p100" (Stats.percentile a 100. = 100.);
  check "empty" (Stats.percentile [||] 50. = 0.);
  check "midmean" (Stats.midmean [| 100.; 1.; 2.; 3.; 4.; 5.; 6.; -50. |] = 3.5);
  let w = Stats.Windowed.create () in
  for i = 0 to 7999 do
    Stats.Windowed.add w ~window:(i / 1000) (if i < 1000 then 1000. else 1.)
  done;
  check "one slow window in eight does not move the windowed figure"
    (Stats.Windowed.percentile w 99. = 1.);
  print_endline "bench inputs: ok"
