/* A SIGPROF sampler to LD_PRELOAD into a single-threaded x86-64 process.
 *
 * A 1 kHz CLOCK_MONOTONIC timer interrupts the process; each sample keeps
 * the interrupted rip, the word at rsp (the return address while inside a
 * frameless libc routine such as memcmp) and the frame-pointer chain's
 * return addresses. Samples go to $PROFILE_OUT (default profile.raw) as
 * u64 words: a count n, then n addresses. At exit /proc/self/maps is
 * copied to $PROFILE_OUT.maps, followed by the run-time address of each
 * IFUNC-selected libc routine, which the stripped libc cannot name.
 * resolve.py turns the two files into a profile.
 *
 *   cc -O2 -shared -fPIC -o sampler.so sampler.c -ldl -lrt
 *   LD_PRELOAD=$PWD/sampler.so PROFILE_OUT=run.raw ./binary args...
 *
 * Build the profiled binary with RUSTFLAGS="-C force-frame-pointers=yes"
 * so that its frames chain; run the binary itself, not `cargo run`, or
 * cargo is sampled too.
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_FRAMES 128
#define BUF_WORDS (1 << 16)

static uint64_t buf[BUF_WORDS];
static size_t used;
static int out_fd = -1;
static uintptr_t stack_lo, stack_hi;
static char out_path[4096];

static void flush(void) {
    if (used > 0 && write(out_fd, buf, used * sizeof buf[0]) < 0) {
        out_fd = -1;
    }
    used = 0;
}

static void on_sigprof(int sig, siginfo_t *info, void *uc_) {
    (void)sig, (void)info;
    ucontext_t *uc = uc_;
    if (out_fd < 0) return;
    if (used + MAX_FRAMES + 4 > BUF_WORDS) flush();
    size_t at = used++;
    uint64_t *rec = &buf[used];
    size_t n = 0;
    rec[n++] = uc->uc_mcontext.gregs[REG_RIP];
    rec[n++] = *(uint64_t *)uc->uc_mcontext.gregs[REG_RSP];
    uintptr_t fp = uc->uc_mcontext.gregs[REG_RBP];
    /* follow saved rbp while it stays on this stack and moves up it */
    while (n < MAX_FRAMES && fp >= stack_lo && fp + 16 <= stack_hi && fp % 8 == 0) {
        rec[n++] = ((uint64_t *)fp)[1];
        uintptr_t next = ((uint64_t *)fp)[0];
        if (next <= fp) break;
        fp = next;
    }
    buf[at] = n;
    used += n;
}

__attribute__((constructor)) static void start(void) {
    const char *path = getenv("PROFILE_OUT");
    snprintf(out_path, sizeof out_path, "%s", path ? path : "profile.raw");
    out_fd = open(out_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    pthread_attr_t attr;
    void *lo;
    size_t size;
    if (out_fd < 0 || pthread_getattr_np(pthread_self(), &attr) != 0) return;
    pthread_attr_getstack(&attr, &lo, &size);
    stack_lo = (uintptr_t)lo, stack_hi = stack_lo + size;

    struct sigaction sa = {.sa_sigaction = on_sigprof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct sigevent sev = {.sigev_notify = SIGEV_SIGNAL, .sigev_signo = SIGPROF};
    timer_t timer;
    struct itimerspec every_ms = {{0, 1000000}, {0, 1000000}};
    if (timer_create(CLOCK_MONOTONIC, &sev, &timer) == 0) timer_settime(timer, 0, &every_ms, NULL);
}

__attribute__((destructor)) static void stop(void) {
    signal(SIGPROF, SIG_IGN);
    if (out_fd < 0) return;
    flush();
    close(out_fd);
    char maps_path[4200];
    snprintf(maps_path, sizeof maps_path, "%s.maps", out_path);
    FILE *in = fopen("/proc/self/maps", "r"), *out = fopen(maps_path, "w");
    if (!in || !out) return;
    char line[4096];
    while (fgets(line, sizeof line, in)) fputs(line, out);
    const char *ifuncs[] = {"memcmp", "memmove", "memcpy", "memset", "strlen", "bcmp"};
    for (size_t i = 0; i < sizeof ifuncs / sizeof ifuncs[0]; i++) {
        fprintf(out, "symbol %s %p\n", ifuncs[i], dlsym(RTLD_DEFAULT, ifuncs[i]));
    }
    fclose(in);
    fclose(out);
}
