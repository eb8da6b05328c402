/// \file sched.hpp
/// Work-stealing fiber scheduler for simmpi (DESIGN.md section 12).
///
/// Every simmpi rank is a fiber.  The scheduler multiplexes rank
/// fibers over a pool of OS worker threads.  Each worker owns a local
/// run queue; idle workers steal from peers and drain a shared
/// injection queue that non-worker threads (tool threads, the
/// deadline sweeper) push wakeups through.  The pool starts with the
/// first fiber: max(1, hardware_concurrency) workers by default.  Once
/// a tool has attached (set_measured) it also grows on demand: a fiber
/// that holds its worker for a long slice while others wait gets the
/// worker replaced, so ranks progress as preempted processes would.
///
/// Blocking is expressed through WaitToken, the one primitive every
/// simmpi wait site uses.  On a fiber it is a park/unpark state
/// machine with targeted wakeups (no polling slice at all); on a
/// plain OS thread that is not a rank (a tool thread, a helper thread
/// a rank starts, a test driving tokens directly) it degrades to a
/// mutex/condvar wait capped at a 5 ms liveness slice.  Either way
/// callers keep their re-check loops: parks may return spuriously,
/// and all abandon predicates (peer death, poison, deadline) are
/// re-evaluated after every wakeup.
///
/// Parking and resuming take no scheduler-wide lock: a park's
/// deadline lives in an atomic on its Fiber, and the deadline sweeper
/// finds due parks by scanning the fiber list for Parked tokens.
///
/// Wakeup sources for a parked fiber:
///   - a targeted WaitToken::unpark() from whoever satisfied the wait,
///   - unpark_all() from a site that releases many waiters at once
///     (barrier close, collective publish, start gate),
///   - Scheduler::unpark_all_parked() on death-epoch bump / poison,
///   - the deadline sweeper when the park's own deadline expires.
#pragma once

#include <time.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "simmpi/fiber.hpp"
#include "simmpi/handle_table.hpp"

namespace m2p::simmpi::sched {

class WaitToken;

/// The clock fiber slices and UnparkedClock transitions are stamped
/// with: calibrated TSC nanoseconds (a few ns per read, no syscall).
std::int64_t slice_clock_ns();

/// How long a rank has asked for CPU: the wall time since it started
/// during which it was neither parked on its WaitToken nor finished
/// (the Performance Consultant sizes CPUBound's capacity by it).  Only
/// the scheduler moves it, from the stamps it already takes at
/// switch-in and switch-out, with one relaxed load and store, no locked
/// RMW.  One word holds the running flag and the base, so a reader on
/// any thread never sees the two torn.
class UnparkedClock {
public:
    /// Owner only: start (or resume) asking for CPU at @p now_ns.
    /// No-op while already running.
    void resume(std::int64_t now_ns) {
        const std::int64_t w = word_.load(std::memory_order_relaxed);
        if ((w & 1) == 0)
            word_.store((((w >> 1) - now_ns) << 1) | 1, std::memory_order_relaxed);
    }
    /// Owner only: park or finish at @p now_ns.  No-op while stopped.
    void pause(std::int64_t now_ns) {
        const std::int64_t w = word_.load(std::memory_order_relaxed);
        if ((w & 1) != 0)
            word_.store(((w >> 1) + now_ns) << 1, std::memory_order_relaxed);
    }
    /// Unparked seconds so far; any thread.
    double seconds() const {
        const std::int64_t w = word_.load(std::memory_order_relaxed);
        const std::int64_t ns = (w & 1) != 0 ? (w >> 1) + slice_clock_ns() : w >> 1;
        return static_cast<double>(ns) * 1e-9;
    }

private:
    /// (base << 1) | running.  Stopped: base is the unparked total.
    /// Running since t: base is total - t, so the total reads base + now.
    std::atomic<std::int64_t> word_{0};
};

/// A rank's CPU time, charged slice by slice by the workers that run
/// it and readable from any thread, the slice in progress included.
/// Each slice is charged one of two ways, picked at its switch-in:
///   - TSC (a raw world): the slice's slice_clock_ns() wall time, all
///     of it user time.  No system call, but a worker preempted
///     mid-slice charges its off-CPU time to the running fiber.
///   - kernel (Scheduler::set_measured, a world with a tool attached):
///     the advance of the worker thread's own getrusage(RUSAGE_THREAD)
///     counters, which excludes preemption and splits user from
///     system time.  Two system calls per slice.
/// Only the worker running the fiber writes it; a sequence word (odd
/// while that worker writes) lets readers take a consistent copy
/// without a lock.
class CpuAccount {
public:
    struct Reading {
        std::int64_t total_ns = 0;  ///< user + system
        std::int64_t user_ns = 0;
    };
    /// Charged slices plus the one in progress; any thread.  A kernel
    /// slice in progress reads its worker's CPU clock, and, for its user
    /// part (only when @p with_user), the worker's tick split too
    /// (util::thread_cpu).
    Reading read(bool with_user) const;

private:
    friend class Scheduler;
    /// Owner worker only: open a slice at switch-in / charge it at
    /// switch-out.  @p tsc_now is the slice_clock_ns() stamp the
    /// scheduler took there (the TSC charge's clock).
    void begin_slice(const Worker& w, bool kernel, std::int64_t tsc_now);
    void end_slice(std::int64_t tsc_now);

    std::atomic<std::uint32_t> seq_{0};
    std::atomic<std::int64_t> total_ns_{0};  ///< charged slices
    std::atomic<std::int64_t> user_ns_{0};
    /// The slice in progress: its worker (null between slices), how it
    /// is charged, and its switch-in stamps on that charge's clock.
    std::atomic<const Worker*> on_{nullptr};
    std::atomic<bool> kernel_{false};
    std::atomic<std::int64_t> in_total_ns_{0};
    std::atomic<std::int64_t> in_user_ns_{0};
};

/// Wake every token in @p toks with exactly the effect of calling
/// unpark() on each, but requeue the fibers found Parked in one batch:
/// from a worker, one push onto its own run queue and one wakeup of
/// idle workers; from any other thread, one injection-queue push.
/// Thread-mode tokens are notified as unpark() notifies them.  The one
/// primitive for fan-out wakeups.
void unpark_all(std::span<const std::shared_ptr<WaitToken>> toks);

/// The single blocking handle.  Fiber-owned tokens are created by the
/// scheduler; any other thread gets a lazily-created thread-local one
/// from current_wait_token().
class WaitToken {
public:
    /// Block the calling context until unpark() or (roughly) the
    /// deadline.  May return early/spuriously; callers loop re-checking
    /// their predicate.  Must only be called by the owning context.
    void park_until(std::chrono::steady_clock::time_point deadline);

    /// Wake the owner if parked; otherwise leave a pending notify that
    /// the owner's next park consumes.  Safe from any thread, any time.
    void unpark();

    /// Fiber owner only: charge this fiber's parks to @p clock, which
    /// resumes now; null pauses and detaches the current one.  A rank
    /// brackets its body with the two calls.  The clock runs from each
    /// switch-in to the next park switch-out, so a woken fiber still
    /// waiting in a run queue counts as parked (no stamp marks its
    /// unpark).
    void track_unparked(UnparkedClock* clock);

private:
    friend class Fiber;
    friend class Scheduler;
    friend void unpark_all(std::span<const std::shared_ptr<WaitToken>>);

    /// The unpark state machine.  Returns the owner fiber when it was
    /// Parked (the caller must requeue it), else null; thread-mode
    /// tokens are notified inline.
    Fiber* wake();
    /// Consume a pending notify (Notified -> Idle) as an RMW; see the
    /// definition for why a plain store loses wakeups.
    void consume_notify();

    enum State : std::uint32_t {
        kIdle = 0,      ///< running, no pending notify
        kNotified = 1,  ///< notify pending; next park returns at once
        kParking = 2,   ///< fiber announced intent, switch in progress
        kParked = 3,    ///< fully parked; unpark requeues the fiber
        kDone = 4,      ///< fiber finished; unparks are no-ops
    };

    std::atomic<std::uint32_t> state_{kIdle};
    Fiber* fiber_ = nullptr;  ///< set once at fiber creation, else null
    /// The owner's unparked-time account, or null when nobody tracks it.
    UnparkedClock* unparked_ = nullptr;

    // Thread-mode fallback for OS threads that are not ranks: plain
    // mutex/condvar with a 5 ms liveness slice cap.
    std::mutex mu_;
    std::condition_variable cv_;
};

/// Per-worker event counters behind the sched.* pvars.  Each is
/// written only by its owning worker, with a relaxed load and store
/// (no locked RMW on the hot path); Scheduler::stats() sums them.
struct WorkerCounters {
    std::atomic<std::uint64_t> parks{0};        ///< park switch-outs
    std::atomic<std::uint64_t> batch_wakes{0};  ///< fibers requeued by unpark_all
    std::atomic<std::uint64_t> steals{0};       ///< fibers taken from a peer queue
    std::atomic<std::uint64_t> idle_sleeps{0};  ///< idle waits entered
    /// Idle waits that ran out their 20 ms backstop while some run
    /// queue held work: on a quiet host, the signature of a missed
    /// notify (an oversubscribed host, where a notified worker may not
    /// run for 20 ms, also produces them).
    std::atomic<std::uint64_t> idle_backstop_with_work{0};
};

struct Worker {
    Scheduler* sched = nullptr;
    int index = -1;
    std::thread th;
    /// The thread's CPU clock, for CpuAccount readers on other threads;
    /// set before the worker runs its first fiber.
    clockid_t cpu_clock{};
    StackContext sched_ctx;  ///< the worker loop's own context
    Fiber* current = nullptr;
    /// slice_clock_ns() at the running slice's switch-in, 0 between
    /// slices: the sweeper's long-slice test reads it.
    std::atomic<std::int64_t> slice_since{0};
    std::mutex mu;
    std::deque<Fiber*> q;
    std::atomic<int> qsize{0};
    WorkerCounters counters;
};

class Scheduler {
public:
    /// A pool of @p workers (0 picks max(1, hardware_concurrency)),
    /// started by the first spawn; the deadline sweeper starts with the
    /// first timed park.  A scheduler that never runs a fiber starts no
    /// thread.
    explicit Scheduler(std::size_t workers);
    ~Scheduler();

    Scheduler(const Scheduler&) = delete;
    Scheduler& operator=(const Scheduler&) = delete;

    /// Create a fiber and make it runnable.  The returned pointer is
    /// owned by the scheduler and stays valid until destruction.
    /// @p cpu, when given, is charged the fiber's slices.  @p ictx
    /// seeds the fiber's migrated instr TLS (rank identity, trace sink)
    /// before the first switch-in.
    Fiber* spawn(Fiber::Body body, std::size_t stack_bytes, CpuAccount* cpu = nullptr,
                 const instr::ThreadContext& ictx = {});

    /// Measured mode, for a world a tool watches (irreversible): slices
    /// are charged to CpuAccounts from the kernel's per-thread counters
    /// instead of the TSC, and the pool grows on demand.  Whenever
    /// fibers wait for a worker while some worker's slice has run
    /// longer than kLongSliceNs, the sweeper adds a worker per such
    /// slice, so a fiber that never parks cannot hold up the others.
    /// The pool never outgrows the live fibers, nor kMaxWorkers; each
    /// worker is an OS thread, and a thread the OS refuses just stops
    /// the growth.
    void set_measured() { measured_.store(true, std::memory_order_relaxed); }

    /// A slice at least this long holds its worker the way a process
    /// the kernel would have preempted holds a CPU (measured mode).
    static constexpr std::int64_t kLongSliceNs = 5'000'000;

    /// Make a suspended fiber runnable (scheduler-internal and token
    /// unpark path).
    void ready(Fiber* f);

    /// Broadcast: unpark every currently-parked fiber so it re-checks
    /// its abandon predicate.  Called on death-epoch bump and poison.
    void unpark_all_parked();

    std::size_t worker_count() const { return workers_.size(); }

    /// Totals behind the sched.* pvars (see WorkerCounters).
    struct Stats {
        std::uint64_t parks = 0;
        std::uint64_t batch_wakes = 0;
        std::uint64_t steals = 0;
        std::uint64_t idle_sleeps = 0;
        std::uint64_t sweeps = 0;  ///< deadline-sweeper scans of the fiber list
        std::uint64_t idle_backstop_with_work = 0;
    };
    Stats stats() const;

    /// Cheap runnable-work probe for maybe_yield().
    int injected_size() const {
        return inject_size_.load(std::memory_order_relaxed);
    }

private:
    friend class Fiber;
    friend class WaitToken;
    friend void unpark_all(std::span<const std::shared_ptr<WaitToken>>);

    /// Make every fiber in @p fs runnable at once: ready() is the
    /// one-fiber case, unpark_all's requeue the many-fiber one.
    void ready_batch(std::span<Fiber* const> fs);
    void worker_main(Worker& w);
    Fiber* next_runnable(Worker& w);
    /// Any run queue or the injection queue non-empty (the idle
    /// recheck, the backstop count).
    bool has_queued_work() const;
    /// Wake idle workers after @p n fibers landed in our own run queue.
    void wake_idle(std::size_t n);
    /// Measured mode, after fibers were queued: have the sweeper look
    /// for long slices in kLongSliceNs (at most one look pending at a
    /// time).  Even a push that finds a worker idle arms it: that one
    /// worker may take a fiber that never parks and leave the rest.
    void arm_growth();
    /// The sweeper's look: add a worker per long slice while fibers
    /// wait.  Returns when to look again (steady_clock ns; max: no
    /// fiber waits, disarmed).
    std::int64_t grow_for_long_slices();
    void run_one(Worker& w, Fiber* f);
    void finalize_park(Worker& w, Fiber* f);
    void finalize_finish(Fiber* f);
    void poke_sweeper(std::int64_t deadline_ns);
    void sweeper_main();
    /// The pool a raw world runs on: pool_, or max(1,
    /// hardware_concurrency) when that is 0.
    std::size_t base_pool() const;
    /// Start workers until the pool has @p n (at most kMaxWorkers).
    /// Throws what std::thread throws when the OS refuses a thread.
    void ensure_workers(std::size_t n);
    /// One sweep: collect the tokens of Parked fibers whose deadline has
    /// passed into @p due; returns the earliest deadline still ahead.
    std::int64_t scan_parked(std::vector<std::shared_ptr<WaitToken>>& due);

    /// Switch from @p from to @p to, with sanitizer annotations.
    /// Returns the SwitchOp value passed by whoever switches back.
    static void* transfer(StackContext& from, StackContext& to, void* arg,
                          bool from_dying);

    /// Append-only: readers (stats, has_queued_work, the steal loop)
    /// walk it without a lock while ensure_workers grows it.  One
    /// worker per chunk, so growth builds only the workers it starts.
    HandleTable<Worker, 0, 0> workers_;
    /// The pool's ceiling: the table's capacity.  A measured world with
    /// more live fibers than this shares the workers it has.
    static constexpr std::size_t kMaxWorkers =
        HandleTable<Worker, 0, 0>::kMaxChunks * HandleTable<Worker, 0, 0>::kChunkSize;
    /// Workers [0, started_) run a thread; written under grow_mu_.
    std::atomic<std::size_t> started_{0};
    /// A growth look is pending (arm_growth / grow_for_long_slices).
    std::atomic<bool> growth_armed_{false};
    std::mutex grow_mu_;       ///< serializes ensure_workers and sweeper start
    std::size_t pool_ = 0;  ///< workers a raw world runs on; 0: hardware_concurrency
    std::atomic<bool> measured_{false};
    std::atomic<std::size_t> live_{0};  ///< spawned fibers not yet finished
    std::atomic<bool> stop_{false};

    std::mutex inject_mu_;
    std::condition_variable inject_cv_;
    std::deque<Fiber*> inject_;
    std::atomic<int> inject_size_{0};
    std::atomic<int> idle_workers_{0};

    /// unpark_all requeues made from threads that own no Worker of this
    /// scheduler (the sweeper, tool threads); workers count theirs in
    /// WorkerCounters.
    std::atomic<std::uint64_t> offworker_batch_wakes_{0};

    // Deadline sweeper.  park_mu_ guards only the poke mailbox and the
    // sweeper's sleep -- never the park/resume path.
    std::mutex park_mu_;
    std::condition_variable park_cv_;
    /// Earliest deadline poked since the sweeper last slept (max: none).
    std::int64_t sweep_pending_ns_ = std::numeric_limits<std::int64_t>::max();
    std::thread sweeper_;  ///< started by the first timed park
    std::atomic<bool> sweeper_started_{false};
    /// steady_clock nanoseconds by which the sweeper will rescan; max
    /// while it is scanning or has no timer.  finalize_park reads it
    /// after publishing Parked and pokes only for an earlier deadline,
    /// so a timed park costs no lock and no futex wake in the common
    /// case (an unconditional poke per park is O(n^2) sweeper work
    /// across one n-rank collective).
    std::atomic<std::int64_t> sweep_horizon_ns_{
        std::numeric_limits<std::int64_t>::max()};
    std::atomic<std::uint64_t> sweeps_{0};  ///< written by the sweeper only

    /// Every fiber ever spawned (finished ones keep their small Fiber
    /// object); the sweeper scans it for Parked tokens.
    std::mutex fibers_mu_;
    std::vector<std::unique_ptr<Fiber>> fibers_;
};

/// The calling context's wait token: the running fiber's own token, or
/// a lazily-created thread-local one for plain OS threads.
const std::shared_ptr<WaitToken>& current_wait_token();

/// True when called on a fiber stack.
bool on_fiber();

/// Sleep by parking the calling context's wait token until the
/// deadline: a fiber's worker runs other ranks meanwhile, and the rank
/// counts the sleep as parked, not as asking for CPU.
/// Used for simulated costs (I/O latency, spawn cost, fault hangs) so
/// a sleeping rank never wedges a worker.
void sleep_for(std::chrono::nanoseconds d);

template <class Rep, class Period>
inline void sleep_for(std::chrono::duration<Rep, Period> d) {
    sleep_for(std::chrono::duration_cast<std::chrono::nanoseconds>(d));
}

/// Cooperative fairness point: yields the worker iff other fibers are
/// runnable.  Costs two relaxed loads when the queues are empty.
/// Called from the MPI dispatch boundary so busy-poll loops
/// (MPI_Iprobe spinning) cannot starve peers on a small worker pool.
void maybe_yield();

/// slice_clock_ns() time of the current fiber's in-progress slice; 0
/// off fiber.
std::int64_t current_slice_cpu_ns();

}  // namespace m2p::simmpi::sched
