/*
 * pc_sample: a SIGPROF program-counter sampler to preload into any
 * dynamically linked program. It acts only on the process it is loaded
 * into and adds no code to the program itself.
 *
 *   cc -O2 -shared -fPIC -o pc_sample.so tools/pc_sample.c
 *   LD_PRELOAD=$PWD/pc_sample.so ./program args...
 *   python3 tools/pc_sample.py pc_sample.<pid>.txt
 *
 * A 1 ms ITIMER_PROF timer runs on the CPU time of the whole process,
 * every thread included. Each expiry delivers SIGPROF to a running
 * thread, and the handler stores the interrupted program counter in a
 * fixed buffer. The kernel delivers at most one expiry per scheduler
 * tick, so the real rate can fall below 1 kHz; shares are unaffected.
 *
 * At normal exit the library writes pc_sample.<pid>.txt to the working
 * directory: the process's executable mappings ("map START END OFFSET
 * PATH", from /proc/self/maps), then one "pc ADDR" line per sample, all
 * in hex. A process that ends in _exit() or a signal writes nothing.
 */

#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

/* 2^21 samples: over half an hour of CPU time at 1 kHz. */
#define PC_SAMPLE_CAP (1u << 21)

static uintptr_t samples[PC_SAMPLE_CAP];
static volatile unsigned long n_samples;
static unsigned long n_dropped;

static void
on_prof(int sig, siginfo_t *info, void *uctx)
{
    (void)sig;
    (void)info;
    const ucontext_t *uc = (const ucontext_t *)uctx;
#if defined(__x86_64__)
    uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    uintptr_t pc = (uintptr_t)uc->uc_mcontext.pc;
#else
#error "pc_sample: unsupported architecture"
#endif
    unsigned long i = __atomic_fetch_add(&n_samples, 1, __ATOMIC_RELAXED);
    if (i < PC_SAMPLE_CAP) {
        samples[i] = pc;
    } else {
        __atomic_fetch_add(&n_dropped, 1, __ATOMIC_RELAXED);
    }
}

__attribute__((constructor)) static void
pc_sample_start(void)
{
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, NULL) != 0) {
        perror("pc_sample: sigaction");
        return;
    }
    struct itimerval it;
    it.it_interval.tv_sec = 0;
    it.it_interval.tv_usec = 1000;
    it.it_value = it.it_interval;
    if (setitimer(ITIMER_PROF, &it, NULL) != 0) {
        perror("pc_sample: setitimer");
    }
}

__attribute__((destructor)) static void
pc_sample_write(void)
{
    struct itimerval off;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, NULL);

    char path[64];
    snprintf(path, sizeof path, "pc_sample.%ld.txt", (long)getpid());
    FILE *out = fopen(path, "w");
    if (!out) {
        perror("pc_sample: fopen");
        return;
    }
    FILE *maps = fopen("/proc/self/maps", "r");
    if (maps) {
        char line[4096];
        while (fgets(line, sizeof line, maps)) {
            unsigned long start, end, offset;
            char perms[8];
            int path_at = 0;
            if (sscanf(line, "%lx-%lx %7s %lx %*s %*s %n", &start, &end,
                       perms, &offset, &path_at) < 4 ||
                perms[2] != 'x' || path_at == 0 || line[path_at] != '/') {
                continue;
            }
            line[strcspn(line, "\n")] = '\0';
            fprintf(out, "map %lx %lx %lx %s\n", start, end, offset,
                    line + path_at);
        }
        fclose(maps);
    }
    unsigned long n = n_samples < PC_SAMPLE_CAP ? n_samples : PC_SAMPLE_CAP;
    for (unsigned long i = 0; i < n; ++i) {
        fprintf(out, "pc %lx\n", (unsigned long)samples[i]);
    }
    fclose(out);
    fprintf(stderr, "pc_sample: %lu samples (%lu dropped) -> %s\n", n,
            n_dropped, path);
}
