#include "util/clock.hpp"

#include <fcntl.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
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

namespace {
std::int64_t clock_ns(clockid_t c) {
    timespec ts{};
    if (clock_gettime(c, &ts) != 0) return -1;
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
}  // namespace

ThreadCpu thread_cpu(clockid_t thread_clock, bool with_user) {
    ThreadCpu t;
    t.total_ns = clock_ns(thread_clock);
    if (!with_user) return t;
    // Linux keeps a thread CPU clock's kind in the id's low two bits:
    // 2 (what pthread_getcpuclockid returns) samples the exact runtime,
    // 1 the user-mode ticks and 0 all ticks.
    const auto kind = [&](int k) { return static_cast<clockid_t>((thread_clock & ~3) | k); };
    const std::int64_t user_ticks = clock_ns(kind(1)), all_ticks = clock_ns(kind(0));
    if (t.total_ns >= 0 && user_ticks >= 0 && all_ticks > 0)
        t.user_ns = static_cast<std::int64_t>(static_cast<double>(t.total_ns) *
                                              static_cast<double>(user_ticks) /
                                              static_cast<double>(all_ticks));
    return t;
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
    // Zero pages spliced from /dev/zero through a pipe into /dev/null:
    // the kernel fills and drops them, so nearly all the consumed CPU is
    // system time, and no user buffer crosses the boundary.  (A 1 MiB
    // read() into one made a thread sanitizer's user-mode bookkeeping of
    // the buffer 80% of the CPU.)  A 1 MiB pipe keeps the syscalls few:
    // at the default 64 KiB, 7% of the CPU was user time.  Where
    // /dev/zero cannot splice, large reads from it stand in.
    const int zero = ::open("/dev/zero", O_RDONLY | O_CLOEXEC);
    const int null = ::open("/dev/null", O_WRONLY | O_CLOEXEC);
    int pipe_fds[2] = {-1, -1};
    bool splicing = zero >= 0 && null >= 0 && ::pipe2(pipe_fds, O_CLOEXEC) == 0;
    const int chunk = splicing ? std::max(::fcntl(pipe_fds[1], F_SETPIPE_SZ, 1 << 20), 1 << 16)
                               : 0;
    static thread_local std::vector<char> buf;
    while (wall_seconds() < end) {
        for (int i = 0; i < 4; ++i) {
            if (splicing) {
                ssize_t n = ::splice(zero, nullptr, pipe_fds[1], nullptr,
                                     static_cast<std::size_t>(chunk), 0);
                splicing = n > 0;
                while (n > 0) {
                    const ssize_t m = ::splice(pipe_fds[0], nullptr, null, nullptr,
                                               static_cast<std::size_t>(n), 0);
                    if (m <= 0) {
                        splicing = false;
                        break;
                    }
                    n -= m;
                }
                if (splicing) continue;
            }
            if (zero >= 0) {
                buf.resize(1 << 20);
                [[maybe_unused]] ssize_t n = ::read(zero, buf.data(), buf.size());
            } else {
                (void)::getpid();
            }
        }
    }
    for (const int fd : {zero, null, pipe_fds[0], pipe_fds[1]})
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
