/* CLOCK_MONOTONIC as float seconds.  Every process on the host reads
   the same clock, so timestamps taken by the generator, the data server
   and the program under test can be subtracted from each other; since
   boot is a small number of seconds, a double keeps sub-microsecond
   precision (gettimeofday's epoch seconds would not). */

#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double bench_clock_now(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value bench_clock_now_byte(value unit)
{
  return caml_copy_double(bench_clock_now(unit));
}
