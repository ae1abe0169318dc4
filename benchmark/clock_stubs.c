/* Monotonic nanosecond clock for the benchmark, callable without
   allocating so it can bracket single calls on the hot path (feed
   pulls, checker successors) without perturbing the GC counts beside
   them. */

#include <time.h>
#include <caml/mlvalues.h>

value pcc_bench_wall_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}
