/* Process accounting the OCaml Unix library does not expose: a
   monotonic nanosecond clock that does not allocate, and wait4 with
   the child's CPU time and peak resident set size. */

#define _GNU_SOURCE
#include <errno.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

value e20_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}

/* Blocks until [pid] ends.  Answers (exit code or -signal, user+sys
   CPU in microseconds, peak RSS in KiB). */
value e20_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  int status = 0;
  struct rusage ru;
  pid_t r;
  caml_enter_blocking_section();
  do {
    r = wait4(Int_val(vpid), &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) caml_failwith("wait4");
  res = caml_alloc_tuple(3);
  Store_field(res, 0,
              Val_int(WIFEXITED(status) ? WEXITSTATUS(status)
                                        : -WTERMSIG(status)));
  Store_field(res, 1,
              Val_long((long)(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1000000L
                       + ru.ru_utime.tv_usec + ru.ru_stime.tv_usec));
  Store_field(res, 2, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}
