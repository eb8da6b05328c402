// Time sources used throughout the tool.
//
// The paper's Paradyn uses three kinds of timers: wall-clock timers
// (for synchronization waiting time), per-process CPU timers (for
// CPUBound detection), and system-time accounting (which Paradyn 4.0
// notably lacked -- the "system-time" PPerfMark program fails for that
// reason).  We expose all three so the reproduction can both implement
// the tool's metrics and demonstrate the gap.
#pragma once

#include <time.h>

#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#else
#include <chrono>
#endif

namespace m2p::util {

/// Monotonic wall-clock time in seconds since an arbitrary epoch.
double wall_seconds();

/// CPU time consumed by the *calling thread*, in seconds.
///
/// simmpi ranks are threads, so this plays the role of per-process CPU
/// time on a cluster node (CLOCK_THREAD_CPUTIME_ID on Linux).
double thread_cpu_seconds();

/// CPU time consumed by the *calling rank context*, in seconds.
///
/// Defaults to thread_cpu_seconds().  An execution engine that
/// multiplexes ranks over worker threads (the simmpi fiber scheduler)
/// installs a provider so a start/stop timer pair reads one rank's
/// CPU clock even when the rank parks and resumes on a different
/// worker thread between the two reads -- the thread clock there
/// would subtract two different threads' clocks and produce
/// meaningless (possibly negative) deltas.  Timer metrics (proc_time
/// and friends) must use this, never thread_cpu_seconds() directly.
double rank_cpu_seconds();

/// Install the rank_cpu_seconds() provider (nullptr restores the
/// thread-clock default).  The provider must be callable from any
/// thread and fall back to the thread clock off-rank.
void set_rank_cpu_provider(double (*provider)());

/// System (kernel) CPU time consumed by the whole process, in seconds.
/// Used only by the system-time PPerfMark program's ground truth.
double process_system_seconds();

/// CPU time of a thread of this process, read through its CPU clock
/// (@p thread_clock, from pthread_getcpuclockid) from any thread: the
/// exact runtime and, when @p with_user, the user part of it split as
/// the kernel splits a thread's runtime for getrusage(RUSAGE_THREAD) --
/// in proportion to the clock ticks that landed in user mode.  One clock
/// read (about 250 ns), three with the split.  user_ns stays negative
/// without the split and until a tick has landed.
struct ThreadCpu {
    std::int64_t total_ns = 0;
    std::int64_t user_ns = -1;
};
ThreadCpu thread_cpu(clockid_t thread_clock, bool with_user);

/// CPUs this process may run on: the size of its sched_getaffinity
/// mask (at least 1; hardware_concurrency if the mask cannot be read).
/// Unlike std::thread::hardware_concurrency, it honours taskset and
/// cpusets.
unsigned usable_cpu_count();

/// Busy-spins until the calling thread has burned @p seconds of CPU
/// time.  This is PPerfMark's `waste_time`: a purely computational
/// bottleneck that registers on CPU timers, not on sync timers.
void burn_thread_cpu(double seconds);

/// Busy-loop performing real syscalls until roughly @p seconds of
/// wall time pass.  Time accrues as *system* time, which the default
/// metric set cannot see (paper Table 2, "system-time": Fail).
void burn_system_time(double seconds);

/// Cheap monotonic timestamp for the flight recorder's event rings:
/// the TSC on x86 (a few ns per read, no syscall/vDSO crossing), the
/// steady clock's raw nanosecond count elsewhere.  Raw ticks have no
/// fixed unit -- convert with calibrate_ticks()/ticks_to_wall() at
/// export time, never on the recording path.  Inline on purpose: a
/// function-call round trip per stamp would double the cost of the
/// flight recorder's hot path.
inline std::uint64_t ticks() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/// Linear map from raw ticks to the wall_seconds() time base, sampled
/// against a process-lifetime anchor.  Calibration spins for ~100 us
/// the first time it is called very early in the process; afterwards
/// the elapsed window makes the rate estimate essentially free.
struct TickCalibration {
    std::uint64_t t0 = 0;          ///< anchor tick count
    double wall0 = 0.0;            ///< wall_seconds() at the anchor
    double seconds_per_tick = 0.0;
};
TickCalibration calibrate_ticks();

inline double ticks_to_wall(const TickCalibration& c, std::uint64_t t) {
    return c.wall0 +
           static_cast<double>(static_cast<std::int64_t>(t - c.t0)) * c.seconds_per_tick;
}

}  // namespace m2p::util
