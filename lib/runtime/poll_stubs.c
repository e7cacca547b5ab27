/* poll(2) and writev(2) bindings: the reactor's only readiness
   mechanism, and its gathering write.

   Unix.select cannot express a descriptor number at or above
   FD_SETSIZE (1024): the OCaml binding rejects it with EINVAL, which
   would cap the reactor at ~1k concurrent connections per process —
   three decimal orders below the serving layer's target.  poll(2) has
   no such ceiling and is POSIX, present on every platform this repo
   builds on.

   The interface is deliberately dumb: parallel arrays of fds and
   interest bits in; out, the ready entries packed at the front of a
   second pair of arrays — each one's fd and its result bits — so the
   OCaml side owns all bookkeeping and the stub stays a straight syscall
   wrapper.  The ready entries name their fd rather than a slot index:
   the interest arrays may be rearranged by another domain (a cancel
   removing an entry) while the wait blocks, and a slot index would then
   pin one fd's readiness on another.  Interest/result bits:

     1 = readable (POLLIN;  results also set it on POLLERR/POLLHUP so a
         broken fd wakes its waiter, whose own syscall then surfaces
         the error)
     2 = writable (POLLOUT; same error/hup widening)
     4 = invalid  (POLLNVAL: the fd is not open.  Results also carry it
         as ready in every direction it registered, so the batched
         pass's parked operation raises EBADF from its own syscall; the
         single-fd wait raises EBADF itself)

   The timeout is in microseconds (negative waits forever).  On Linux
   the wait is ppoll(2), which takes it at full resolution; elsewhere
   poll(2) gets it rounded up to whole milliseconds, so a wait may run
   long but never returns early with nothing ready.

   Return value: the number of ready entries written, or -1 for EINTR —
   the caller retries with a recomputed timeout.  Other errors
   (EFAULT/EINVAL/ENOMEM) are programming or resource errors and raise
   Failure.

   The fd/events arrays are copied out before releasing the runtime
   lock and the results written back only after re-acquiring it: the GC
   may move the OCaml arrays while the lock is down. */

#if defined(__linux__) && !defined(_GNU_SOURCE)
#define _GNU_SOURCE /* ppoll */
#endif

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

#include <errno.h>
#include <poll.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/uio.h>
#include <time.h>
#include <limits.h>

CAMLprim value lhws_poll_stub(value vfds, value vevents, value vn,
                              value vtimeout_us, value vready_fds,
                              value vready_bits)
{
  CAMLparam5(vfds, vevents, vn, vtimeout_us, vready_fds);
  CAMLxparam1(vready_bits);
  int n = Int_val(vn);
  long timeout_us = Long_val(vtimeout_us);
  struct pollfd small[64];
  struct pollfd *pfds = small;
  int ret, k = 0;

  if (n < 0 || n > Wosize_val(vfds) || n > Wosize_val(vevents)
      || n > Wosize_val(vready_fds) || n > Wosize_val(vready_bits))
    caml_failwith("lhws_poll: bad length");

  if (n > 64) {
    pfds = malloc((size_t)n * sizeof(struct pollfd));
    if (pfds == NULL) caml_failwith("lhws_poll: out of memory");
  }

  for (int i = 0; i < n; i++) {
    int ev = Int_val(Field(vevents, i));
    pfds[i].fd = Int_val(Field(vfds, i));
    pfds[i].events = (short)(((ev & 1) ? POLLIN : 0) | ((ev & 2) ? POLLOUT : 0));
    pfds[i].revents = 0;
  }

  {
#ifdef __linux__
    struct timespec ts, *tsp = NULL;
    if (timeout_us >= 0) {
      ts.tv_sec = (time_t)(timeout_us / 1000000);
      ts.tv_nsec = (long)(timeout_us % 1000000) * 1000;
      tsp = &ts;
    }
    caml_enter_blocking_section();
    ret = ppoll(pfds, (nfds_t)n, tsp, NULL);
    caml_leave_blocking_section();
#else
    int timeout_ms;
    if (timeout_us < 0) timeout_ms = -1;
    else if (timeout_us >= (long)INT_MAX * 1000) timeout_ms = INT_MAX;
    else timeout_ms = (int)((timeout_us + 999) / 1000);
    caml_enter_blocking_section();
    ret = poll(pfds, (nfds_t)n, timeout_ms);
    caml_leave_blocking_section();
#endif
  }

  if (ret < 0) {
    int e = errno;
    if (pfds != small) free(pfds);
    if (e == EINTR) CAMLreturn(Val_int(-1));
    caml_failwith("lhws_poll: poll(2) failed");
  }

  for (int i = 0; i < n && k < ret; i++) {
    short re = pfds[i].revents;
    short ev = pfds[i].events;
    int out = 0;
    if (re == 0) continue;
    if ((ev & POLLIN) && (re & (POLLIN | POLLERR | POLLHUP | POLLNVAL))) out |= 1;
    if ((ev & POLLOUT) && (re & (POLLOUT | POLLERR | POLLHUP | POLLNVAL))) out |= 2;
    if (re & POLLNVAL) out |= 4;
    Store_field(vready_fds, k, Val_int(pfds[i].fd));
    Store_field(vready_bits, k, Val_int(out));
    k++;
  }

  if (pfds != small) free(pfds);
  CAMLreturn(Val_int(k));
}

CAMLprim value lhws_poll_byte(value *argv, int argn)
{
  (void)argn;
  return lhws_poll_stub(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5]);
}

/* One gathering write of an OCaml [bytes list] on a {e non-blocking}
   descriptor: at most LHWS_IOV_MAX buffers go out per call (the caller's
   short-write loop sends the rest).  The iovecs point straight into the
   OCaml buffers — no copy — which is sound only because the runtime lock
   stays held: the GC cannot move a block while this domain is outside a
   blocking section, and a non-blocking writev returns at once (EAGAIN
   rather than waiting), so holding the lock costs nothing.  Never call
   this on a blocking descriptor: a full socket would then stall every
   domain's next stop-the-world collection behind this one.  Errors raise
   [Unix.Unix_error], EAGAIN included. */
#if defined(IOV_MAX) && IOV_MAX < 64
#define LHWS_IOV_MAX IOV_MAX
#else
#define LHWS_IOV_MAX 64
#endif

CAMLprim value lhws_writev_stub(value vfd, value vbufs)
{
  CAMLparam2(vfd, vbufs);
  struct iovec iov[LHWS_IOV_MAX];
  int cnt = 0;
  ssize_t ret;

  for (value l = vbufs; l != Val_emptylist && cnt < LHWS_IOV_MAX; l = Field(l, 1)) {
    value b = Field(l, 0);
    size_t len = caml_string_length(b);
    if (len == 0) continue;
    iov[cnt].iov_base = (void *)Bytes_val(b);
    iov[cnt].iov_len = len;
    cnt++;
  }
  if (cnt == 0) CAMLreturn(Val_int(0));
  ret = writev(Int_val(vfd), iov, cnt);
  if (ret < 0) caml_uerror("writev", Nothing);
  CAMLreturn(Val_long(ret));
}

/* Best-effort RLIMIT_NOFILE raise: lift the soft limit toward the hard
   limit, up to [want] descriptors, and return the resulting soft
   limit.  The c10k bench legs call this so a default 1024-fd shell
   does not masquerade as a scheduler ceiling; failure is not an error
   (the caller scales the leg to what it got). */
CAMLprim value lhws_raise_nofile_stub(value vwant)
{
  CAMLparam1(vwant);
  struct rlimit rl;
  rlim_t want = (rlim_t)Long_val(vwant);

  if (getrlimit(RLIMIT_NOFILE, &rl) != 0) CAMLreturn(Val_long(-1));
  if (rl.rlim_cur < want) {
    rlim_t target = want;
    if (rl.rlim_max != RLIM_INFINITY && target > rl.rlim_max)
      target = rl.rlim_max;
    if (target > rl.rlim_cur) {
      struct rlimit nrl = rl;
      nrl.rlim_cur = target;
      if (setrlimit(RLIMIT_NOFILE, &nrl) == 0) rl.rlim_cur = target;
    }
  }
  if (rl.rlim_cur == RLIM_INFINITY) CAMLreturn(Val_long(1 << 30));
  CAMLreturn(Val_long((long)rl.rlim_cur));
}
