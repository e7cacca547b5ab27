(* The host-wide monotonic clock, in seconds, with sub-microsecond
   precision; see clock_stubs.c. *)

external now : unit -> (float[@unboxed]) = "bench_clock_now_byte" "bench_clock_now"
[@@noalloc]
