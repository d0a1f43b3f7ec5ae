/* CPU affinity for the benchmark: which CPUs the process may run on,
   and pinning the calling thread (and the threads it creates later) to
   a set of them. Linux only. */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

value perfbench_allowed_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(res);
  cpu_set_t set;
  int i, n = 0, k = 0;
  if (sched_getaffinity(0, sizeof set, &set) != 0)
    caml_failwith("sched_getaffinity");
  for (i = 0; i < CPU_SETSIZE; i++)
    if (CPU_ISSET(i, &set)) n++;
  if (n == 0) caml_failwith("no CPU allowed");
  res = caml_alloc_tuple(n);
  for (i = 0; i < CPU_SETSIZE; i++)
    if (CPU_ISSET(i, &set)) Store_field(res, k++, Val_int(i));
  CAMLreturn(res);
}

value perfbench_pin(value cpus)
{
  CAMLparam1(cpus);
  cpu_set_t set;
  mlsize_t i;
  CPU_ZERO(&set);
  for (i = 0; i < Wosize_val(cpus); i++) CPU_SET(Int_val(Field(cpus, i)), &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0)
    caml_failwith("sched_setaffinity");
  CAMLreturn(Val_unit);
}
