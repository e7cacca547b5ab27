(* Smoke-level benchmark regression guard.

   Compares a fresh BENCH_results.json against a committed baseline taken
   with the same profile and fails (exit 1) when a guarded sample degrades
   more than the threshold:

   - every baseline sample with a [speedup] field but no [wall_s] (the
     figure11* sweeps are deterministic simulator runs, so these are
     noise-free): fail when the current speedup drops below
     baseline / 1.25;
   - baseline samples with both [speedup] and [wall_s] (wall-clock
     self-speedups, e.g. the net_map_reduce loopback runs): the same rule
     with a 4x threshold, since both sides of the ratio are real
     milliseconds-scale timings on a shared runner;
   - resume-storm samples ([contention_resume_storm]): fail when the
     current wall exceeds baseline * 1.25 plus a 25 ms absolute grace, so
     tiny walls on a shared CI runner don't flake the guard;
   - net_echo* and http_* samples carrying a [p99_us] counter: fail when
     the current p99 exceeds baseline * 2 plus a 2 ms absolute grace —
     the "batched reactor must not trade tail latency for syscall count"
     check, with margins sized for loopback timings on a shared runner;
   - http_* samples carrying a [throughput_rps] counter: fail when the
     current req/s drops below baseline * 0.8 — the serving-layer
     regression pin for the keep-alive and mixed-topology legs;
   - http_plaintext_* samples from the [lhws] pool carrying both
     [p99_us] and [mean_us]: fail when the CURRENT run's p99 exceeds 3x
     its own mean plus a 30 ms absolute grace — the starvation pin: with
     resumes re-entering their home deque newest-first, no keep-alive
     connection may starve, so the tail must stay a bounded multiple of
     the mean, regardless of what the baseline recorded.

   Other wall-clock samples are reported but not guarded: at smoke sizes
   they are milliseconds and dominated by machine noise.

   Usage: bench_guard CURRENT.json BASELINE.json

   The parser below handles exactly the flat schema Bench_json emits (an
   array of objects with string/number fields and one nested counters
   object) — the repo takes no JSON dependency. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

let parse (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (if !pos >= n then fail "unterminated escape";
           match s.[!pos] with
           | '"' -> Buffer.add_char buf '"'
           | '\\' -> Buffer.add_char buf '\\'
           | '/' -> Buffer.add_char buf '/'
           | 'n' -> Buffer.add_char buf '\n'
           | 't' -> Buffer.add_char buf '\t'
           | 'r' -> Buffer.add_char buf '\r'
           | 'b' -> Buffer.add_char buf '\b'
           | 'f' -> Buffer.add_char buf '\012'
           | 'u' ->
               if !pos + 4 >= n then fail "truncated \\u escape";
               let hex = String.sub s (!pos + 1) 4 in
               let code = int_of_string ("0x" ^ hex) in
               (* the schema only escapes control chars, all < 0x80 *)
               Buffer.add_char buf (Char.chr (code land 0x7f));
               pos := !pos + 4
           | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
          advance ();
          go ()
      | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((key, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((key, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (v :: acc)
            | Some ']' ->
                advance ();
                Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elements []
        end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* --- samples --- *)

type sample = {
  scenario : string;
  pool : string;
  workers : int;
  wall_s : float option;
  speedup : float option;
  p99_us : float option;  (* from the nested counters object, when present *)
  throughput_rps : float option;  (* likewise *)
  mean_us : float option;  (* likewise *)
}

let field k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let as_num = function Some (Num f) -> Some f | _ -> None
let as_str = function Some (Str s) -> Some s | _ -> None

let samples_of_file path =
  let text =
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with Sys_error msg ->
      (* [msg] already names the path, e.g. "foo.json: No such file ..." *)
      Printf.eprintf "bench_guard: cannot read input: %s\n" msg;
      exit 2
  in
  match parse text with
  | Arr items ->
      List.filter_map
        (fun item ->
          match (as_str (field "scenario" item), as_str (field "pool" item)) with
          | Some scenario, Some pool ->
              Some
                {
                  scenario;
                  pool;
                  workers =
                    (match as_num (field "workers" item) with
                    | Some w -> int_of_float w
                    | None -> 0);
                  wall_s = as_num (field "wall_s" item);
                  speedup = as_num (field "speedup" item);
                  p99_us =
                    (match field "counters" item with
                    | Some counters -> as_num (field "p99_us" counters)
                    | None -> None);
                  throughput_rps =
                    (match field "counters" item with
                    | Some counters -> as_num (field "throughput_rps" counters)
                    | None -> None);
                  mean_us =
                    (match field "counters" item with
                    | Some counters -> as_num (field "mean_us" counters)
                    | None -> None);
                }
          | _ -> None)
        items
  | _ -> failwith (path ^ ": expected a JSON array of samples")

let find samples s =
  List.find_opt
    (fun c -> c.scenario = s.scenario && c.pool = s.pool && c.workers = s.workers)
    samples

(* --- the guard --- *)

let threshold = 1.25
let wall_speedup_threshold = 4. (* both ratio legs are noisy wall-clock timings *)
let wall_grace_s = 0.025 (* absolute grace for tiny walls on noisy runners *)
let p99_threshold = 2.
let p99_grace_us = 2000. (* loopback p99s are hundreds of us; don't flake *)
let rps_floor = 0.8 (* http_* req/s must stay within 20% of baseline *)
let fairness_ratio = 3. (* lhws keep-alive legs: p99 must stay <= 3x own mean... *)
let fairness_grace_us = 30_000. (* ...plus the smoke-size connect transient *)

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let () =
  let current_path, baseline_path =
    match Sys.argv with
    | [| _; c; b |] -> (c, b)
    | _ ->
        prerr_endline "usage: bench_guard CURRENT.json BASELINE.json";
        exit 2
  in
  let current = samples_of_file current_path in
  let baseline = samples_of_file baseline_path in
  let failures = ref 0 in
  let checked = ref 0 in
  let report verdict b detail =
    Printf.printf "%-6s %-32s %-8s w=%-2d  %s\n" verdict b.scenario b.pool b.workers detail
  in
  List.iter
    (fun b ->
      match find current b with
      | None -> report "SKIP" b "no matching sample in current run"
      | Some c ->
          (match (b.throughput_rps, c.throughput_rps) with
          | Some br, Some cr when has_prefix "http_" b.scenario ->
              incr checked;
              let floor = br *. rps_floor in
              if cr < floor then begin
                incr failures;
                report "FAIL" b
                  (Printf.sprintf "throughput %.0f req/s < %.0f (baseline %.0f * %.2f)"
                     cr floor br rps_floor)
              end
              else
                report "ok" b
                  (Printf.sprintf "throughput %.0f req/s (baseline %.0f)" cr br)
          | _ -> ());
          (match (b.p99_us, c.p99_us) with
          | Some bp, Some cp
            when has_prefix "net_echo" b.scenario || has_prefix "http_" b.scenario ->
              incr checked;
              let limit = (bp *. p99_threshold) +. p99_grace_us in
              if cp > limit then begin
                incr failures;
                report "FAIL" b
                  (Printf.sprintf "p99 %.0fus > %.0fus (baseline %.0fus * %.1f + %.0f)" cp
                     limit bp p99_threshold p99_grace_us)
              end
              else report "ok" b (Printf.sprintf "p99 %.0fus (baseline %.0fus)" cp bp)
          | _ -> ());
          (* Starvation pin: an lhws keep-alive leg's tail is judged
             against its own mean in the CURRENT run — the baseline only
             tells us the sample is expected to exist. *)
          (match (c.p99_us, c.mean_us) with
          | Some cp, Some cm
            when has_prefix "http_plaintext_" b.scenario && b.pool = "lhws" ->
              incr checked;
              let limit = (cm *. fairness_ratio) +. fairness_grace_us in
              if cp > limit then begin
                incr failures;
                report "FAIL" b
                  (Printf.sprintf
                     "fairness: p99 %.0fus > %.0fus (own mean %.0fus * %.1f + %.0f)" cp
                     limit cm fairness_ratio fairness_grace_us)
              end
              else
                report "ok" b
                  (Printf.sprintf "fairness: p99 %.0fus <= %.1fx mean %.0fus + grace" cp
                     fairness_ratio cm)
          | _ -> ());
          (match (b.speedup, c.speedup) with
          | Some bs, Some cs ->
              incr checked;
              let th = if b.wall_s = None then threshold else wall_speedup_threshold in
              let floor = bs /. th in
              if cs < floor then begin
                incr failures;
                report "FAIL" b
                  (Printf.sprintf "speedup %.3f < baseline %.3f / %.2f" cs bs th)
              end
              else report "ok" b (Printf.sprintf "speedup %.3f (baseline %.3f)" cs bs)
          | _ -> (
              if has_prefix "contention_resume_storm" b.scenario then
                match (b.wall_s, c.wall_s) with
                | Some bw, Some cw ->
                    incr checked;
                    let limit = (bw *. threshold) +. wall_grace_s in
                    if cw > limit then begin
                      incr failures;
                      report "FAIL" b
                        (Printf.sprintf "wall %.4fs > %.4fs (baseline %.4fs * %.2f + %.3f)"
                           cw limit bw threshold wall_grace_s)
                    end
                    else report "ok" b (Printf.sprintf "wall %.4fs (baseline %.4fs)" cw bw)
                | _ -> report "SKIP" b "no wall_s field")))
    baseline;
  Printf.printf "\nbench guard: %d samples checked against %s, %d failure(s)\n" !checked
    baseline_path !failures;
  if !failures > 0 then exit 1
