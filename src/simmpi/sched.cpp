#include "simmpi/sched.hpp"

#include <pthread.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "util/clock.hpp"

namespace m2p::simmpi::sched {

// The TSC charge (raw worlds) and UnparkedClock stamps run on every
// fiber switch-in/out, so they must not be a syscall: a calibrated TSC
// delta reads in a few ns.  It measures wall time, so an involuntary
// preemption of the worker mid-slice is charged to the running fiber;
// a world with a tool attached charges kernel CPU instead (CpuAccount).
std::int64_t slice_clock_ns() {
    static const double ns_per_tick =
        util::calibrate_ticks().seconds_per_tick * 1e9;
    return static_cast<std::int64_t>(
        static_cast<double>(util::ticks()) * ns_per_tick);
}

namespace {

thread_local Worker* t_worker = nullptr;

constexpr auto kThreadSlice = std::chrono::milliseconds(5);

// util::rank_cpu_seconds() provider (installed by the first Scheduler):
// on a fiber, its own account -- the thread CPU clock would subtract two
// different workers' clocks when a rank migrates between a timer's
// start and stop reads.  Off fiber, the thread clock is the context's
// own and stays correct.
double fiber_aware_cpu_seconds() {
    Worker* w = t_worker;
    if (w == nullptr || w->current == nullptr) return util::thread_cpu_seconds();
    if (const CpuAccount* a = w->current->cpu_account())
        return static_cast<double>(a->read(false).total_ns) * 1e-9;
    return static_cast<double>(current_slice_cpu_ns()) * 1e-9;
}

std::int64_t timeval_ns(const timeval& t) {
    return static_cast<std::int64_t>(t.tv_sec) * 1'000'000'000 +
           static_cast<std::int64_t>(t.tv_usec) * 1'000;
}

// The calling thread's own CPU counters: the kernel's exact runtime for
// the thread, split by where its clock ticks landed.
CpuAccount::Reading kernel_stamp() {
    rusage ru{};
    getrusage(RUSAGE_THREAD, &ru);
    const std::int64_t user = timeval_ns(ru.ru_utime);
    return {user + timeval_ns(ru.ru_stime), user};
}

// A park deadline at this sentinel means "no timer": the sweeper skips
// it entirely.  kNoDeadlineNs is the same instant in nanoseconds.
constexpr std::chrono::steady_clock::time_point kNoDeadline =
    std::chrono::steady_clock::time_point::max();
constexpr std::int64_t kNoDeadlineNs = std::numeric_limits<std::int64_t>::max();

std::int64_t to_ns(std::chrono::steady_clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch())
        .count();
}

// Owner-only counter bump: a relaxed load and store, no locked RMW.
void bump(std::atomic<std::uint64_t>& c, std::uint64_t n = 1) {
    c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

}  // namespace

// ---------------------------------------------------------------------------
// WaitToken
// ---------------------------------------------------------------------------

void WaitToken::park_until(std::chrono::steady_clock::time_point deadline) {
    if (fiber_ != nullptr) {
        // Fiber mode: the caller must BE the fiber.
        if (state_.load(std::memory_order_acquire) == kNotified) {
            consume_notify();
            return;
        }
        if (deadline != kNoDeadline &&
            deadline <= std::chrono::steady_clock::now()) {
            // Already past due: don't enter the park machinery, but do
            // give peers a chance so an expired-deadline re-check loop
            // cannot monopolize the worker.
            maybe_yield();
            return;
        }
        // The deadline goes out before the announcement: the sweeper
        // reads it for any fiber it finds Parked.
        fiber_->park_deadline_ns_.store(to_ns(deadline), std::memory_order_relaxed);
        // Announce the park with a CAS, not a store: an unpark on
        // another thread may have CASed kIdle -> kNotified after the
        // fast-path load above, and a blind kParking store would
        // overwrite (lose) that notify -- a deadline-less park would
        // then sleep until an unrelated broadcast.
        std::uint32_t expected = kIdle;
        if (!state_.compare_exchange_strong(expected, kParking,
                                            std::memory_order_acq_rel)) {
            // expected == kNotified: consume it and return instead of
            // parking.
            consume_notify();
            return;
        }
        fiber_->suspend(SwitchOp::Park);
        // Resumed: state is kIdle, or kNotified from a second unpark
        // (left pending for the next park -- a benign spurious pass).
        return;
    }
    // Thread mode (not a rank): a 5 ms liveness slice so dead-peer and
    // poison re-checks happen even without targeted wakeups.
    std::unique_lock lk(mu_);
    const auto slice = std::chrono::steady_clock::now() + kThreadSlice;
    cv_.wait_until(lk, std::min(deadline, slice), [this] {
        return state_.load(std::memory_order_relaxed) == kNotified;
    });
    state_.store(kIdle, std::memory_order_relaxed);
}

void WaitToken::track_unparked(UnparkedClock* clock) {
    const std::int64_t now = slice_clock_ns();
    if (unparked_ != nullptr) unparked_->pause(now);
    unparked_ = clock;
    if (unparked_ != nullptr) unparked_->resume(now);
}

void WaitToken::unpark() {
    if (Fiber* f = wake()) f->sched_->ready(f);
}

Fiber* WaitToken::wake() {
    if (fiber_ == nullptr) {
        {
            std::lock_guard lk(mu_);
            state_.store(kNotified, std::memory_order_relaxed);
        }
        cv_.notify_one();
        return nullptr;
    }
    for (;;) {
        std::uint32_t s = state_.load(std::memory_order_acquire);
        switch (s) {
            case kParked:
                if (state_.compare_exchange_weak(s, kIdle, std::memory_order_acq_rel))
                    return fiber_;
                break;
            case kParking:
                // The owner is mid-switch; flagging it makes the
                // scheduler's finalize turn the park into a requeue.
            case kIdle:
            case kNotified:
                // Already notified still takes an RMW (Notified ->
                // Notified); see consume_notify().
                if (state_.compare_exchange_weak(s, kNotified, std::memory_order_acq_rel))
                    return nullptr;
                break;
            default:  // kDone: the fiber finished
                return nullptr;
        }
    }
}

// Both sides of a pending notify are RMWs on state_: this consume and
// the already-notified case of wake().  They are therefore totally
// ordered, and whichever comes second reads the other's write, so a
// waker's predicate store is always visible to the owner that absorbs
// its notify (or the waker leaves a fresh notify behind).  A plain Idle
// store here plus a load-only no-op in wake() is a store-buffering
// race: the waker's predicate store can sit in its store buffer while
// it reads the old Notified, and the owner then stores Idle, reads the
// predicate unset, and parks with nobody left to wake it.
void WaitToken::consume_notify() { state_.exchange(kIdle, std::memory_order_acq_rel); }

void unpark_all(std::span<const std::shared_ptr<WaitToken>> toks) {
    // Run every token's state machine first, then requeue the fibers
    // found Parked in one batch per owning scheduler.
    std::vector<Fiber*> woken;
    Scheduler* owner = nullptr;
    const auto requeue = [&] {
        if (owner == nullptr) return;
        if (Worker* w = t_worker; w != nullptr && w->sched == owner)
            bump(w->counters.batch_wakes, woken.size());
        else
            owner->offworker_batch_wakes_.fetch_add(woken.size(),
                                                    std::memory_order_relaxed);
        owner->ready_batch(woken);
    };
    for (const auto& t : toks) {
        Fiber* f = t->wake();
        if (f == nullptr) continue;
        if (f->scheduler() != owner) {
            requeue();
            woken.clear();
            woken.reserve(toks.size());
            owner = f->scheduler();
        }
        woken.push_back(f);
    }
    requeue();
}

// ---------------------------------------------------------------------------
// CpuAccount
// ---------------------------------------------------------------------------

// Writers bracket their stores with an odd sequence number (the
// seqlock pattern); readers retry until they read one even number on
// both sides of their copy.
void CpuAccount::begin_slice(const Worker& w, bool kernel, std::int64_t tsc_now) {
    const Reading in = kernel ? kernel_stamp() : Reading{tsc_now, tsc_now};
    const std::uint32_t s = seq_.load(std::memory_order_relaxed);
    seq_.store(s + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    kernel_.store(kernel, std::memory_order_relaxed);
    in_total_ns_.store(in.total_ns, std::memory_order_relaxed);
    in_user_ns_.store(in.user_ns, std::memory_order_relaxed);
    on_.store(&w, std::memory_order_relaxed);
    seq_.store(s + 2, std::memory_order_release);
}

void CpuAccount::end_slice(std::int64_t tsc_now) {
    const Reading out = kernel_.load(std::memory_order_relaxed)
                            ? kernel_stamp()
                            : Reading{tsc_now, tsc_now};
    const std::uint32_t s = seq_.load(std::memory_order_relaxed);
    seq_.store(s + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    total_ns_.store(total_ns_.load(std::memory_order_relaxed) + out.total_ns -
                        in_total_ns_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    user_ns_.store(user_ns_.load(std::memory_order_relaxed) + out.user_ns -
                       in_user_ns_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    on_.store(nullptr, std::memory_order_relaxed);
    seq_.store(s + 2, std::memory_order_release);
}

CpuAccount::Reading CpuAccount::read(bool with_user) const {
    Reading r;
    const Worker* w = nullptr;
    bool kernel = false;
    std::int64_t in_total = 0, in_user = 0;
    util::ThreadCpu now;
    for (;;) {
        const std::uint32_t s = seq_.load(std::memory_order_acquire);
        if ((s & 1) != 0) {
            std::this_thread::yield();
            continue;
        }
        r.total_ns = total_ns_.load(std::memory_order_relaxed);
        r.user_ns = user_ns_.load(std::memory_order_relaxed);
        w = on_.load(std::memory_order_relaxed);
        if (w != nullptr) {
            kernel = kernel_.load(std::memory_order_relaxed);
            in_total = in_total_ns_.load(std::memory_order_relaxed);
            in_user = in_user_ns_.load(std::memory_order_relaxed);
            // Read inside the window: a clock read after the slice ended
            // would charge this fiber the worker's next slice.
            if (kernel)
                now = util::thread_cpu(w->cpu_clock, with_user);
            else
                now.total_ns = slice_clock_ns();
        }
        std::atomic_thread_fence(std::memory_order_acquire);
        if (seq_.load(std::memory_order_relaxed) == s) break;
    }
    if (w == nullptr) return r;
    const std::int64_t slice = std::max<std::int64_t>(0, now.total_ns - in_total);
    r.total_ns += slice;
    if (!kernel)
        r.user_ns += slice;
    else if (with_user && now.user_ns >= 0)
        // The worker's user time now less its user time at switch-in,
        // both the kernel's split, so switch-out's exact charge lands
        // where the readings already are.
        r.user_ns += std::clamp<std::int64_t>(now.user_ns - in_user, 0, slice);
    return r;
}

// ---------------------------------------------------------------------------
// Fiber <-> scheduler handoff
// ---------------------------------------------------------------------------

void Fiber::suspend(SwitchOp op) {
    Worker* w = t_worker;
    if (w == nullptr || w->current != this) {
        std::fprintf(stderr, "simmpi sched: suspend off own worker\n");
        std::abort();
    }
    Scheduler::transfer(ctx_, w->sched_ctx,
                        reinterpret_cast<void*>(static_cast<std::uintptr_t>(op)),
                        /*from_dying=*/op == SwitchOp::Finished);
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

Scheduler::Scheduler(std::size_t workers) {
    // The provider checks t_worker itself, so it is safe to leave
    // installed after this scheduler is destroyed (it then degrades to
    // the thread clock) and idempotent across schedulers.
    util::set_rank_cpu_provider(&fiber_aware_cpu_seconds);
    pool_ = workers;
}

Scheduler::~Scheduler() {
    stop_.store(true, std::memory_order_release);
    {
        std::lock_guard lk(inject_mu_);
    }
    inject_cv_.notify_all();
    {
        std::lock_guard lk(park_mu_);  // the sweeper's predicate reads stop_
    }
    park_cv_.notify_all();
    for (std::size_t i = 0; i < workers_.size(); ++i)
        if (std::thread& th = workers_.find(static_cast<std::int32_t>(i))->th;
            th.joinable())  // a slot whose thread failed to start has none
            th.join();
    if (sweeper_.joinable()) sweeper_.join();
    // Any fiber still suspended here leaked out of join_all (which
    // aborts the process on wedged ranks first); its stack goes now.
}

std::size_t Scheduler::base_pool() const {
    static const std::size_t hardware = std::max(1u, std::thread::hardware_concurrency());
    return pool_ != 0 ? pool_ : hardware;
}

void Scheduler::ensure_workers(std::size_t n) {
    n = std::min(n, kMaxWorkers);
    if (started_.load(std::memory_order_acquire) >= n) return;
    std::lock_guard lk(grow_mu_);
    for (std::size_t i = started_.load(std::memory_order_relaxed); i < n; ++i) {
        // Published before its thread starts: a reader may find the
        // worker idle, never half built.  A slot whose thread failed to
        // start (std::thread threw) stays published and idle, and the
        // next growth starts its thread instead of appending.
        Worker* w = workers_.find(static_cast<std::int32_t>(i));
        if (w == nullptr)
            w = workers_.find(workers_.append([this](Worker& nw, std::int32_t idx) {
                nw.sched = this;
                nw.index = idx;
            }));
        w->th = std::thread([this, w] { worker_main(*w); });
        started_.store(i + 1, std::memory_order_release);
    }
}

Fiber* Scheduler::spawn(Fiber::Body body, std::size_t stack_bytes, CpuAccount* cpu,
                        const instr::ThreadContext& ictx) {
    const std::size_t live = live_.fetch_add(1, std::memory_order_relaxed) + 1;
    try {
        // A measured world starts no more workers than it has fibers;
        // long slices grow it past the base pool (grow_for_long_slices).
        ensure_workers(measured_.load(std::memory_order_relaxed)
                           ? std::min(live, base_pool())
                           : base_pool());
    } catch (...) {
        // No worker for it (the OS refused a thread): the fiber is not
        // created and the caller sees the error.
        live_.fetch_sub(1, std::memory_order_relaxed);
        throw;
    }
    auto f = std::make_unique<Fiber>(this, std::move(body), stack_bytes);
    f->cpu_ = cpu;
    f->ictx_ = ictx;
    Fiber* raw = f.get();
    {
        std::lock_guard lk(fibers_mu_);
        fibers_.push_back(std::move(f));
    }
    ready(raw);
    return raw;
}

void Scheduler::ready(Fiber* f) { ready_batch(std::span<Fiber* const>(&f, 1)); }

void Scheduler::ready_batch(std::span<Fiber* const> fs) {
    const std::size_t n = fs.size();
    Worker* self = t_worker;
    if (self != nullptr && self->sched == this) {
        // One lock for the whole batch; idle workers steal from here.
        {
            std::lock_guard lk(self->mu);
            self->q.insert(self->q.end(), fs.begin(), fs.end());
        }
        self->qsize.fetch_add(static_cast<int>(n), std::memory_order_seq_cst);
        wake_idle(n);
        return;
    }
    {
        std::lock_guard lk(inject_mu_);
        inject_.insert(inject_.end(), fs.begin(), fs.end());
    }
    inject_size_.fetch_add(static_cast<int>(n), std::memory_order_seq_cst);
    if (n == 1)
        inject_cv_.notify_one();
    else
        inject_cv_.notify_all();
    arm_growth();
}

// Called after new work landed in the calling worker's own run queue,
// which that worker drains itself; idle workers only add parallelism.
// Going idle is the mirror handshake (next_runnable): a worker counts
// itself in idle_workers_ under inject_mu_, then rechecks every queue,
// then waits, all before it drops the mutex.  The push's qsize add and
// this load are seq_cst like that count and recheck, so either the
// recheck sees the push, or this load sees the idle worker -- and then
// taking inject_mu_ once orders the notify after its wait began.
void Scheduler::wake_idle(std::size_t n) {
    arm_growth();
    if (idle_workers_.load(std::memory_order_seq_cst) == 0) return;
    { std::lock_guard lk(inject_mu_); }
    if (n == 1)
        inject_cv_.notify_one();
    else
        inject_cv_.notify_all();
}

// Arming is the mirror of grow_for_long_slices' disarm: the push's
// queue-size add, and this flag load, are seq_cst, as are the
// sweeper's flag clear and its queue recheck, so either this load
// sees the look disarmed (and arms one) or the recheck sees the push.
void Scheduler::arm_growth() {
    if (!measured_.load(std::memory_order_relaxed)) return;
    if (growth_armed_.load(std::memory_order_seq_cst) ||
        growth_armed_.exchange(true, std::memory_order_seq_cst))
        return;
    poke_sweeper(to_ns(std::chrono::steady_clock::now()) + kLongSliceNs);
}

std::int64_t Scheduler::grow_for_long_slices() {
    const auto look_again = [] {
        return to_ns(std::chrono::steady_clock::now()) + kLongSliceNs;
    };
    if (has_queued_work()) {
        const std::int64_t now = slice_clock_ns();
        std::size_t long_slices = 0;
        for (std::size_t i = 0; i < workers_.size(); ++i) {
            const std::int64_t since = workers_.find(static_cast<std::int32_t>(i))
                                           ->slice_since.load(std::memory_order_relaxed);
            if (since != 0 && now - since >= kLongSliceNs) ++long_slices;
        }
        const std::size_t want =
            std::min(live_.load(std::memory_order_relaxed), base_pool() + long_slices);
        try {
            ensure_workers(want);
        } catch (const std::exception&) {
            // The OS refused a thread: the fibers share the pool as is.
        }
        return look_again();
    }
    growth_armed_.store(false, std::memory_order_seq_cst);
    if (has_queued_work() && !growth_armed_.exchange(true, std::memory_order_seq_cst))
        return look_again();
    return kNoDeadlineNs;
}

void Scheduler::unpark_all_parked() {
    // Broadcast to EVERY fiber's token, not just the currently-parked
    // ones: a fiber that evaluated its liveness predicate just before
    // the death-epoch bump and is now mid-park would miss a
    // Parked-only sweep and sleep until its deadline.  Leaving a
    // pending notify on running/idle tokens turns that race into one
    // benign spurious pass; finished fibers (kDone) no-op.  Tokens are
    // copied out so the requeue work happens without the lock.
    std::vector<std::shared_ptr<WaitToken>> toks;
    {
        std::lock_guard lk(fibers_mu_);
        toks.reserve(fibers_.size());
        for (const auto& f : fibers_) toks.push_back(f->token_);
    }
    unpark_all(toks);
}

Scheduler::Stats Scheduler::stats() const {
    Stats s;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
        const WorkerCounters& c = workers_.find(static_cast<std::int32_t>(i))->counters;
        s.parks += c.parks.load(std::memory_order_relaxed);
        s.batch_wakes += c.batch_wakes.load(std::memory_order_relaxed);
        s.steals += c.steals.load(std::memory_order_relaxed);
        s.idle_sleeps += c.idle_sleeps.load(std::memory_order_relaxed);
        s.idle_backstop_with_work +=
            c.idle_backstop_with_work.load(std::memory_order_relaxed);
    }
    s.batch_wakes += offworker_batch_wakes_.load(std::memory_order_relaxed);
    s.sweeps = sweeps_.load(std::memory_order_relaxed);
    return s;
}

Fiber* Scheduler::next_runnable(Worker& w) {
    for (;;) {
        // Move one injected fiber into the local queue per tick, even
        // when local work exists.  Yielding fibers requeue locally, so
        // a local-first pop with no inject drain would let one spinning
        // fiber starve everything in the shared queue (spawns and
        // cross-thread unparks land there) indefinitely.
        if (inject_size_.load(std::memory_order_acquire) > 0) {
            Fiber* moved = nullptr;
            {
                std::lock_guard lk(inject_mu_);
                if (!inject_.empty()) {
                    moved = inject_.front();
                    inject_.pop_front();
                    inject_size_.fetch_sub(1, std::memory_order_relaxed);
                }
            }
            if (moved != nullptr) {
                std::lock_guard lk(w.mu);
                w.q.push_back(moved);
                w.qsize.fetch_add(1, std::memory_order_relaxed);
            }
        }
        {
            std::lock_guard lk(w.mu);
            if (!w.q.empty()) {
                Fiber* f = w.q.front();
                w.q.pop_front();
                w.qsize.fetch_sub(1, std::memory_order_relaxed);
                return f;
            }
        }
        for (std::size_t i = 0; i < workers_.size(); ++i) {
            Worker* other = workers_.find(static_cast<std::int32_t>(i));
            if (other == &w || other->qsize.load(std::memory_order_relaxed) == 0) continue;
            std::lock_guard lk(other->mu);
            if (!other->q.empty()) {
                Fiber* f = other->q.back();  // steal the cold end
                other->q.pop_back();
                other->qsize.fetch_sub(1, std::memory_order_relaxed);
                bump(w.counters.steals);
                return f;
            }
        }
        if (stop_.load(std::memory_order_acquire)) return nullptr;
        std::unique_lock lk(inject_mu_);
        if (!inject_.empty()) continue;
        idle_workers_.fetch_add(1, std::memory_order_seq_cst);
        if (has_queued_work()) {  // a push that missed the count (wake_idle)
            idle_workers_.fetch_sub(1, std::memory_order_relaxed);
            continue;
        }
        bump(w.counters.idle_sleeps);
        // Timed wait as a backstop: each expiry that finds work queued
        // is counted (a notified worker the host did not run for 20 ms,
        // or a missed notify).
        const bool expired = inject_cv_.wait_for(lk, std::chrono::milliseconds(20)) ==
                             std::cv_status::timeout;
        idle_workers_.fetch_sub(1, std::memory_order_acq_rel);
        if (expired && has_queued_work()) bump(w.counters.idle_backstop_with_work);
        if (stop_.load(std::memory_order_acquire)) return nullptr;
    }
}

bool Scheduler::has_queued_work() const {
    if (inject_size_.load(std::memory_order_seq_cst) > 0) return true;
    for (std::size_t i = 0; i < workers_.size(); ++i)
        if (workers_.find(static_cast<std::int32_t>(i))->qsize.load(
                std::memory_order_seq_cst) > 0)
            return true;
    return false;
}

void Scheduler::worker_main(Worker& w) {
    t_worker = &w;
    pthread_getcpuclockid(pthread_self(), &w.cpu_clock);
    // The worker loop's context needs no stack of its own (it runs on
    // the OS thread stack); sanitizer bookkeeping only.
    init_worker_context(w.sched_ctx);
    for (;;) {
        Fiber* f = next_runnable(w);
        if (f == nullptr) break;
        run_one(w, f);
    }
    t_worker = nullptr;
}

void Scheduler::run_one(Worker& w, Fiber* f) {
    w.current = f;
    f->slice_cpu_start_ = slice_clock_ns();
    w.slice_since.store(f->slice_cpu_start_, std::memory_order_relaxed);
    if (f->cpu_ != nullptr)
        f->cpu_->begin_slice(w, measured_.load(std::memory_order_relaxed),
                             f->slice_cpu_start_);
    // A tracked fiber's unparked time runs from a switch-in to its next
    // park, both taken from the slice stamps (no clock read of its own);
    // a yield leaves it running.  The slice may attach or detach the
    // clock (WaitToken::track_unparked), so it is read on each side.
    if (UnparkedClock* u = f->token_->unparked_) u->resume(f->slice_cpu_start_);
    const instr::ThreadContext worker_ctx =
        instr::exchange_thread_context(f->ictx_);
    void* r = transfer(w.sched_ctx, f->ctx_, f, /*from_dying=*/false);
    f->ictx_ = instr::exchange_thread_context(worker_ctx);
    const auto op = static_cast<SwitchOp>(reinterpret_cast<std::uintptr_t>(r));
    UnparkedClock* const unparked = op == SwitchOp::Park ? f->token_->unparked_ : nullptr;
    if (f->cpu_ != nullptr || unparked != nullptr) {
        const std::int64_t out = slice_clock_ns();
        if (f->cpu_ != nullptr) f->cpu_->end_slice(out);
        if (unparked != nullptr) unparked->pause(out);
    }
    w.current = nullptr;
    w.slice_since.store(0, std::memory_order_relaxed);
    switch (op) {
        case SwitchOp::Park:
            finalize_park(w, f);
            break;
        case SwitchOp::Yield:
            ready(f);
            break;
        case SwitchOp::Finished:
            finalize_finish(f);
            break;
        default:
            std::fprintf(stderr, "simmpi sched: bad switch op\n");
            std::abort();
    }
}

void Scheduler::finalize_park(Worker& w, Fiber* f) {
    bump(w.counters.parks);
    // Read the deadline before publishing kParked: once the state
    // flips, any unpark may requeue the fiber and another worker may
    // start its next park.
    const std::int64_t deadline = f->park_deadline_ns_.load(std::memory_order_relaxed);
    WaitToken& tok = *f->token_;
    std::uint32_t expected = WaitToken::kParking;
    // seq_cst: this store and the horizon load below are the parker's
    // half of the handshake described at sweeper_main.
    if (!tok.state_.compare_exchange_strong(expected, WaitToken::kParked,
                                            std::memory_order_seq_cst)) {
        // An unpark raced in while the fiber was mid-switch: the park
        // loses, the fiber runs again immediately.
        tok.consume_notify();
        ready(f);
        return;
    }
    if (deadline != kNoDeadlineNs &&
        deadline < sweep_horizon_ns_.load(std::memory_order_seq_cst))
        poke_sweeper(deadline);
}

void Scheduler::poke_sweeper(std::int64_t deadline_ns) {
    if (!sweeper_started_.load(std::memory_order_acquire)) {
        std::lock_guard lk(grow_mu_);
        if (!sweeper_started_.load(std::memory_order_relaxed)) {
            sweeper_ = std::thread([this] { sweeper_main(); });
            sweeper_started_.store(true, std::memory_order_release);
        }
    }
    {
        std::lock_guard lk(park_mu_);
        sweep_pending_ns_ = std::min(sweep_pending_ns_, deadline_ns);
    }
    park_cv_.notify_one();
}

void Scheduler::finalize_finish(Fiber* f) {
    live_.fetch_sub(1, std::memory_order_relaxed);
    f->token_->state_.store(WaitToken::kDone, std::memory_order_release);
    // Release the (large) stack eagerly; the small Fiber object stays
    // owned by fibers_ so stray pointers stay dereferenceable.
    f->release_stack();
}

// The sweeper sleeps to a horizon: the earliest deadline it knows of.
// A poke carries its deadline (poke_sweeper), so it only moves the
// horizon; the fiber list is scanned only when a horizon expires.
//
// Horizon handshake.  Scanning reads fiber states without any lock, so
// a park can land mid-scan and be missed by it.  The sweeper therefore
// stores the horizon as max ("scanning") before it reads any state,
// and finalize_park loads the horizon after it publishes kParked, all
// seq_cst.  Either the scan sees the park, or the parker sees max and
// pokes -- or it sees a horizon published after the scan, which is
// either earlier than its deadline (the sweeper will rescan in time)
// or later (it pokes).
void Scheduler::sweeper_main() {
    std::vector<std::shared_ptr<WaitToken>> due;
    std::int64_t horizon = kNoDeadlineNs;
    std::unique_lock lk(park_mu_);
    const auto poked_or_stopping = [&] {
        return stop_.load(std::memory_order_acquire) || sweep_pending_ns_ < horizon;
    };
    while (!stop_.load(std::memory_order_acquire)) {
        horizon = std::min(horizon, sweep_pending_ns_);
        sweep_pending_ns_ = kNoDeadlineNs;
        sweep_horizon_ns_.store(horizon, std::memory_order_seq_cst);
        if (horizon == kNoDeadlineNs) {
            park_cv_.wait(lk, poked_or_stopping);
            continue;
        }
        const std::chrono::steady_clock::time_point until{
            std::chrono::nanoseconds(horizon)};
        if (park_cv_.wait_until(lk, until, poked_or_stopping)) continue;
        sweep_horizon_ns_.store(kNoDeadlineNs, std::memory_order_seq_cst);
        lk.unlock();
        horizon = scan_parked(due);
        unpark_all(due);
        due.clear();
        if (growth_armed_.load(std::memory_order_seq_cst))
            horizon = std::min(horizon, grow_for_long_slices());
        lk.lock();
    }
}

std::int64_t Scheduler::scan_parked(std::vector<std::shared_ptr<WaitToken>>& due) {
    const std::int64_t now = to_ns(std::chrono::steady_clock::now());
    std::int64_t next = kNoDeadlineNs;
    {
        std::lock_guard lk(fibers_mu_);
        for (const auto& f : fibers_) {
            if (f->token_->state_.load(std::memory_order_seq_cst) != WaitToken::kParked)
                continue;
            const std::int64_t d = f->park_deadline_ns_.load(std::memory_order_relaxed);
            if (d == kNoDeadlineNs) continue;
            if (d <= now)
                due.push_back(f->token_);
            else
                next = std::min(next, d);
        }
    }
    bump(sweeps_);
    return next;
}

// ---------------------------------------------------------------------------
// Free helpers
// ---------------------------------------------------------------------------

const std::shared_ptr<WaitToken>& current_wait_token() {
    Worker* w = t_worker;
    if (w != nullptr && w->current != nullptr) return w->current->token();
    thread_local std::shared_ptr<WaitToken> t_token;
    if (!t_token) t_token = std::make_shared<WaitToken>();
    return t_token;
}

bool on_fiber() {
    Worker* w = t_worker;
    return w != nullptr && w->current != nullptr;
}

void sleep_for(std::chrono::nanoseconds d) {
    const auto end = std::chrono::steady_clock::now() + d;
    const auto& tok = current_wait_token();
    while (std::chrono::steady_clock::now() < end) tok->park_until(end);
}

void maybe_yield() {
    Worker* w = t_worker;
    if (w == nullptr || w->current == nullptr) return;
    // Strided: a fiber offers its worker only every 64th dispatch.
    // Every call sites this at the MPI dispatch boundary, so a
    // busy-polling rank (MPI_Iprobe spinning) still cannot starve
    // runnable peers forever -- but an eager sender streaming a burst
    // of small messages is not forced into a context switch per
    // message, which would serialize the whole burst with its
    // receiver and forfeit the wakeup amortization the windowed
    // protocols rely on.
    if ((w->current->next_dispatch() & 63u) != 0) return;
    if (w->qsize.load(std::memory_order_relaxed) == 0 &&
        w->sched->injected_size() == 0)
        return;
    w->current->suspend(SwitchOp::Yield);
}

std::int64_t current_slice_cpu_ns() {
    Worker* w = t_worker;
    if (w == nullptr || w->current == nullptr) return 0;
    return slice_clock_ns() - w->current->slice_cpu_start();
}

}  // namespace m2p::simmpi::sched
