#include "util/clock.hpp"

#include <fcntl.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace m2p::util {

double wall_seconds() {
    using clock = std::chrono::steady_clock;
    static const clock::time_point epoch = clock::now();
    return std::chrono::duration<double>(clock::now() - epoch).count();
}

double thread_cpu_seconds() {
    timespec ts{};
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0.0;
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {
std::atomic<double (*)()> g_rank_cpu_provider{nullptr};
}  // namespace

double rank_cpu_seconds() {
    if (double (*fn)() = g_rank_cpu_provider.load(std::memory_order_acquire))
        return fn();
    return thread_cpu_seconds();
}

void set_rank_cpu_provider(double (*provider)()) {
    g_rank_cpu_provider.store(provider, std::memory_order_release);
}

double process_system_seconds() {
    rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
    return static_cast<double>(ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
}

double thread_user_share(int os_tid) {
    char path[64];
    std::snprintf(path, sizeof path, "/proc/self/task/%d/stat", os_tid);
    const int fd = ::open(path, O_RDONLY | O_CLOEXEC);
    if (fd < 0) return -1.0;
    char buf[1024];
    const ssize_t n = ::read(fd, buf, sizeof buf - 1);
    ::close(fd);
    if (n <= 0) return -1.0;
    buf[n] = '\0';
    // The command name (field 2) may hold spaces and parentheses; the
    // fields after its closing ')' start at field 3, so utime and stime
    // (fields 14 and 15) are the 12th and 13th.
    const char* p = std::strrchr(buf, ')');
    if (p == nullptr) return -1.0;
    unsigned long long utime = 0, stime = 0;
    if (std::sscanf(p + 1, " %*s %*s %*s %*s %*s %*s %*s %*s %*s %*s %*s %llu %llu",
                    &utime, &stime) != 2 ||
        utime + stime == 0)
        return -1.0;
    return static_cast<double>(utime) / static_cast<double>(utime + stime);
}

unsigned usable_cpu_count() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)  // e.g. over CPU_SETSIZE CPUs
        return std::max(1u, std::thread::hardware_concurrency());
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

void burn_thread_cpu(double seconds) {
    // CLOCK_THREAD_CPUTIME_ID reads are real syscalls (kernel time);
    // keep them rare so the burned time is almost entirely *user*
    // time, as a compute kernel's would be.
    const double end = thread_cpu_seconds() + seconds;
    volatile std::uint64_t sink = 0;
    while (thread_cpu_seconds() < end) {
        std::uint64_t acc = 0;
        for (int i = 0; i < 400000; ++i)
            acc += static_cast<std::uint64_t>(i) * 2654435761u + (acc >> 7);
        sink = sink + acc;
    }
}

void burn_system_time(double seconds) {
    const double end = wall_seconds() + seconds;
    // Large reads from /dev/zero: the kernel zero-fills the buffer, so
    // nearly all the consumed CPU is system time (tiny user-mode
    // overhead per crossing).
    static thread_local std::vector<char> buf(1 << 20);
    int fd = ::open("/dev/zero", O_RDONLY);
    while (wall_seconds() < end) {
        if (fd >= 0) {
            for (int i = 0; i < 4; ++i) {
                [[maybe_unused]] ssize_t n = ::read(fd, buf.data(), buf.size());
            }
        } else {
            (void)::getpid();
        }
    }
    if (fd >= 0) ::close(fd);
}

namespace {
struct TickAnchor {
    std::uint64_t t = ticks();
    double w = wall_seconds();
};
}  // namespace

TickCalibration calibrate_ticks() {
    static const TickAnchor anchor;  // magic static: thread-safe init
    std::uint64_t t1 = ticks();
    double w1 = wall_seconds();
    // The rate needs a non-trivial window; only the very first caller
    // right after process start can land inside it.
    while (w1 - anchor.w < 1e-4) {
        t1 = ticks();
        w1 = wall_seconds();
    }
    TickCalibration c;
    c.t0 = anchor.t;
    c.wall0 = anchor.w;
    const std::uint64_t dt = t1 - anchor.t;
    c.seconds_per_tick = dt ? (w1 - anchor.w) / static_cast<double>(dt) : 1e-9;
    return c;
}

}  // namespace m2p::util
