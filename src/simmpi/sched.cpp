#include "simmpi/sched.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "util/clock.hpp"

namespace m2p::simmpi::sched {

// Per-slice CPU accounting runs on every fiber switch-in/out, so it
// must not be a syscall: CLOCK_THREAD_CPUTIME_ID costs ~250 ns per
// read on a virtualized host (no vDSO path), which at two reads per
// slice dominates a park/unpark cycle.  A calibrated TSC delta reads
// in a few ns.  The divergence: rdtsc measures wall time, so an
// involuntary preemption of the worker mid-slice is charged to the
// running fiber, where the thread CPU clock would exclude it.  Worker
// slices never block voluntarily (blocking sites park, switching the
// fiber out), so on a quiet host the two agree; under host
// contention the rdtsc figure errs toward the scheduling reality the
// simulation models anyway.
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
// on a fiber, its accumulated slices plus the in-progress one -- the
// thread CPU clock would subtract two different workers' clocks when a
// rank migrates between a timer's start and stop reads.  Off fiber,
// the thread clock is the context's own and stays correct.
double fiber_aware_cpu_seconds() {
    Worker* w = t_worker;
    if (w == nullptr || w->current == nullptr)
        return util::thread_cpu_seconds();
    Fiber* f = w->current;
    std::int64_t ns = current_slice_cpu_ns();
    if (std::atomic<std::int64_t>* sink = f->cpu_sink())
        ns += sink->load(std::memory_order_relaxed);
    return static_cast<double>(ns) * 1e-9;
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
    // Thread mode: legacy 5 ms liveness slice so dead-peer/poison
    // re-checks happen even without targeted wakeups.
    if (unparked_ != nullptr) unparked_->pause(slice_clock_ns());
    {
        std::unique_lock lk(mu_);
        const auto slice = std::chrono::steady_clock::now() + kThreadSlice;
        cv_.wait_until(lk, std::min(deadline, slice), [this] {
            return state_.load(std::memory_order_relaxed) == kNotified;
        });
        state_.store(kIdle, std::memory_order_relaxed);
    }
    if (unparked_ != nullptr) unparked_->resume(slice_clock_ns());
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
    if (workers == 0) {
        const unsigned hc = std::thread::hardware_concurrency();
        workers = hc == 0 ? 1 : hc;
    }
    for (std::size_t i = 0; i < workers; ++i) {
        auto w = std::make_unique<Worker>();
        w->sched = this;
        w->index = static_cast<int>(i);
        workers_.push_back(std::move(w));
    }
    for (auto& w : workers_) w->th = std::thread([this, &w] { worker_main(*w); });
    sweeper_ = std::thread([this] { sweeper_main(); });
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
    for (auto& w : workers_) w->th.join();
    sweeper_.join();
    // Any fiber still suspended here leaked out of join_all; destroying
    // its stack now is no worse than the thread engine's detach-free
    // guarantee (join_all aborts the process on wedged ranks first).
}

Fiber* Scheduler::spawn(Fiber::Body body, std::size_t stack_bytes,
                        std::atomic<std::int64_t>* cpu_sink,
                        const instr::ThreadContext& ictx) {
    auto f = std::make_unique<Fiber>(this, std::move(body), stack_bytes);
    f->set_cpu_sink(cpu_sink);
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
        self->qsize.fetch_add(static_cast<int>(n), std::memory_order_release);
        wake_idle(n);
        return;
    }
    {
        std::lock_guard lk(inject_mu_);
        inject_.insert(inject_.end(), fs.begin(), fs.end());
    }
    inject_size_.fetch_add(static_cast<int>(n), std::memory_order_release);
    if (n == 1)
        inject_cv_.notify_one();
    else
        inject_cv_.notify_all();
}

// Called after new work landed in the calling worker's own run queue,
// which that worker drains itself; idle workers only add parallelism.
// The notify can miss a worker that is just going idle (it read no work
// before this push but had not yet counted itself in idle_workers_); its
// timed wait bounds that to 20 ms, and sched.idle_backstop_with_work
// counts each such expiry.
void Scheduler::wake_idle(std::size_t n) {
    if (idle_workers_.load(std::memory_order_acquire) == 0) return;
    if (n == 1)
        inject_cv_.notify_one();
    else
        inject_cv_.notify_all();
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
    for (const auto& w : workers_) {
        const WorkerCounters& c = w->counters;
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
        for (auto& other : workers_) {
            if (other.get() == &w) continue;
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
        idle_workers_.fetch_add(1, std::memory_order_acq_rel);
        bump(w.counters.idle_sleeps);
        // Timed wait as a backstop for a missed wake_idle() notify (see
        // there); each expiry that finds work queued is counted.
        const bool expired = inject_cv_.wait_for(lk, std::chrono::milliseconds(20)) ==
                             std::cv_status::timeout;
        idle_workers_.fetch_sub(1, std::memory_order_acq_rel);
        if (expired && has_queued_work()) bump(w.counters.idle_backstop_with_work);
        if (stop_.load(std::memory_order_acquire)) return nullptr;
    }
}

bool Scheduler::has_queued_work() const {
    if (inject_size_.load(std::memory_order_relaxed) > 0) return true;
    for (const auto& w : workers_)
        if (w->qsize.load(std::memory_order_relaxed) > 0) return true;
    return false;
}

void Scheduler::worker_main(Worker& w) {
    t_worker = &w;
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
    if (f->cpu_sink_ != nullptr || unparked != nullptr) {
        const std::int64_t out = slice_clock_ns();
        if (f->cpu_sink_ != nullptr)
            f->cpu_sink_->fetch_add(out - f->slice_cpu_start_, std::memory_order_relaxed);
        if (unparked != nullptr) unparked->pause(out);
    }
    w.current = nullptr;
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
    {
        std::lock_guard lk(park_mu_);
        sweep_pending_ns_ = std::min(sweep_pending_ns_, deadline_ns);
    }
    park_cv_.notify_one();
}

void Scheduler::finalize_finish(Fiber* f) {
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
