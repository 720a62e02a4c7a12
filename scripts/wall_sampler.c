/* Wall-clock stack sampler for a process's main thread, loaded with
 * LD_PRELOAD by scripts/profile.sh.
 *
 * A CLOCK_MONOTONIC timer signals the main thread (SIGEV_THREAD_ID) every
 * millisecond, whether it is running or waiting, so a sample lands on
 * whatever the event loop is doing in wall time, waits included. The
 * handler only runs backtrace() into a preallocated buffer. At exit the
 * sampler writes wallprof.out in the working directory, one line per
 * sample, innermost frame first: frames in the main program as hex
 * addresses in its own address space (what addr2line -e takes, for PIE and
 * fixed-address executables alike), "-" for frames in shared libraries.
 *
 *   cc -O2 -shared -fPIC -o wall_sampler.so wall_sampler.c
 *   LD_PRELOAD=./wall_sampler.so ./program
 */
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

enum { kMaxDepth = 96, kBufferWords = 1 << 23 };

/* Samples as [depth, frame 0, ..., frame depth-1] runs. */
static void* samples[kBufferWords];
static volatile size_t used;
static timer_t timer;
static int armed;

/* The main program's load bias and its loaded segments. */
enum { kMaxSegments = 16 };
static uintptr_t main_bias;
static uintptr_t segment_begin[kMaxSegments], segment_end[kMaxSegments];
static int segments;

static void OnTick(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  (void)context;
  const int saved_errno = errno;
  if (used + kMaxDepth + 1 <= kBufferWords) {
    void** run = &samples[used];
    const int depth = backtrace(run + 1, kMaxDepth);
    run[0] = (void*)(uintptr_t)depth;
    used += (size_t)depth + 1;
  }
  errno = saved_errno;
}

/* The first object dl_iterate_phdr reports is the main program. */
static int FindMainProgram(struct dl_phdr_info* info, size_t size,
                           void* data) {
  (void)size;
  (void)data;
  main_bias = (uintptr_t)info->dlpi_addr;
  for (int i = 0; i < info->dlpi_phnum && segments < kMaxSegments; ++i) {
    const ElfW(Phdr)* ph = &info->dlpi_phdr[i];
    if (ph->p_type != PT_LOAD) continue;
    segment_begin[segments] = main_bias + ph->p_vaddr;
    segment_end[segments] = main_bias + ph->p_vaddr + ph->p_memsz;
    ++segments;
  }
  return 1;
}

static int InMainProgram(uintptr_t pc) {
  for (int i = 0; i < segments; ++i) {
    if (pc >= segment_begin[i] && pc < segment_end[i]) return 1;
  }
  return 0;
}

__attribute__((constructor)) static void Start(void) {
  /* The first backtrace() loads the unwinder; do it outside the handler. */
  void* warm[4];
  backtrace(warm, 4);
  dl_iterate_phdr(FindMainProgram, NULL);

  struct sigaction action;
  memset(&action, 0, sizeof action);
  action.sa_sigaction = OnTick;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  if (sigaction(SIGPROF, &action, NULL) != 0) return;

  struct sigevent event;
  memset(&event, 0, sizeof event);
  event.sigev_notify = SIGEV_THREAD_ID;
  event.sigev_signo = SIGPROF;
  event._sigev_un._tid = (pid_t)syscall(SYS_gettid);
  if (timer_create(CLOCK_MONOTONIC, &event, &timer) != 0) return;
  const struct itimerspec every_ms = {{0, 1000000}, {0, 1000000}};
  if (timer_settime(timer, 0, &every_ms, NULL) != 0) return;
  armed = 1;
}

__attribute__((destructor)) static void Stop(void) {
  if (!armed) return;
  armed = 0;
  timer_delete(timer);
  signal(SIGPROF, SIG_IGN); /* A tick already queued must not append now. */
  FILE* out = fopen("wallprof.out", "w");
  if (out == NULL) return;
  for (size_t i = 0; i < used;) {
    const int depth = (int)(uintptr_t)samples[i++];
    for (int k = 0; k < depth; ++k, ++i) {
      const uintptr_t pc = (uintptr_t)samples[i];
      if (InMainProgram(pc)) {
        fprintf(out, " %#lx", (unsigned long)(pc - main_bias));
      } else {
        fputs(" -", out);
      }
    }
    fputc('\n', out);
  }
  fclose(out);
}
