#include "simmpi/world.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "pvar/export.hpp"
#include "simmpi/rank.hpp"

namespace m2p::simmpi {

const char* flavor_name(Flavor f) { return f == Flavor::Lam ? "LAM/MPI" : "MPICH"; }

namespace {
using instr::Category;
constexpr std::uint32_t cat(Category c) { return static_cast<std::uint32_t>(c); }

/// Usable stack bytes per fiber (plus a guard page).
constexpr std::size_t kFiberStackBytes = 256 * 1024;
/// Simulated base cost (seconds) of creating one process via spawn.
constexpr double kSpawnBaseCost = 0.0005;
}  // namespace

World::World(instr::Registry& reg, Config cfg) : reg_(reg), cfg_(std::move(cfg)) {
    register_mpi_functions();
    if (cfg_.trace_enabled) {
        trace::FlightRecorder::Options opt;
        opt.ring_capacity = cfg_.trace_ring_capacity;
        recorder_ = std::make_unique<trace::FlightRecorder>(opt);
    }
    // Its workers start with the first rank, not here.
    sched_ = std::make_unique<sched::Scheduler>(cfg_.sched_workers);
    register_pvars();
    exporter_ = pvar::ExportWriter::from_env(pvars_);
}

World::~World() { join_all(); }

void World::register_pvars() {
    // Every variable is a reader over storage its plane already
    // maintains -- registration adds nothing to any hot path.
    //
    // Dispatch plane (per-thread stat-slot shards, summed on poll).
    pvars_.add_counter(
        "instr.dispatch.events",
        [this] { return static_cast<std::uint64_t>(reg_.stats().events); }, "events",
        "instrumented dispatch-boundary calls");
    pvars_.add_counter(
        "instr.dispatch.snippets",
        [this] { return static_cast<std::uint64_t>(reg_.stats().snippets_executed); },
        "snippets", "MDL snippet executions at dispatch");

    // Transport plane.  delivered_* are registered BEFORE the queued
    // counters deliberately: a snapshot pass polls variables in id
    // order, and delivered <= queued holds at every instant with both
    // sides monotone, so reading delivered first keeps the invariant
    // true inside every published snapshot even under churn.
    pvars_.add_counter(
        "simmpi.mailbox.delivered_msgs",
        [this] { return mailbox_stats().delivered_msgs; }, "events",
        "envelopes drained by receivers");
    pvars_.add_counter(
        "simmpi.mailbox.delivered_bytes",
        [this] { return mailbox_stats().delivered_bytes; }, "bytes",
        "payload bytes drained by receivers");
    pvars_.add_counter(
        "simmpi.mailbox.eager_msgs", [this] { return mailbox_stats().eager_msgs; },
        "events", "envelopes queued under the eager protocol");
    pvars_.add_counter(
        "simmpi.mailbox.rendezvous_msgs",
        [this] { return mailbox_stats().rendezvous_msgs; }, "events",
        "envelopes queued with a rendezvous token");
    pvars_.add_counter(
        "simmpi.mailbox.flow_stalls", [this] { return mailbox_stats().flow_stalls; },
        "events", "sender parks waiting for eager headroom");
    pvars_.add_gauge(
        "simmpi.mailbox.bytes_queued", [this] { return mailbox_stats().bytes_queued; },
        "bytes", "bytes currently queued across mailboxes");
    pvars_.add_watermark(
        "simmpi.mailbox.bytes_queued_hwm",
        [this] { return mailbox_stats().bytes_queued_hwm; }, "bytes",
        "deepest mailbox backlog seen");

    // Trace plane (per-thread ring head counters).
    if (recorder_) {
        trace::FlightRecorder* fr = recorder_.get();
        pvars_.add_counter(
            "trace.ring.written", [fr] { return fr->stats().written; }, "events",
            "events pushed into flight-recorder rings");
        pvars_.add_counter(
            "trace.ring.kept", [fr] { return fr->stats().kept; }, "events",
            "events currently retained across rings");
        pvars_.add_counter(
            "trace.ring.dropped", [fr] { return fr->stats().dropped; }, "events",
            "events overwritten by ring wrap-around");
        pvars_.add_gauge(
            "trace.ring.capacity",
            [fr] { return static_cast<std::uint64_t>(fr->ring_capacity()); }, "events",
            "configured events per ring");
    }

    // Fault plane.
    pvars_.add_counter(
        "faults.epitaphs", [this] { return epitaph_count(); }, "deaths",
        "epitaphs recorded (rank deaths)");
    pvars_.add_counter(
        "simmpi.waits.deadline_expired",
        [this] { return deadline_expired_.load(std::memory_order_relaxed); }, "waits",
        "blocking waits that gave up at wait_deadline_seconds");

    // Scheduler plane (per-worker counters, summed).
    {
        const sched::Scheduler* s = sched_.get();
        pvars_.add_counter(
            "sched.parks", [s] { return s->stats().parks; }, "events",
            "fiber parks (switch-outs onto a wait token)");
        pvars_.add_counter(
            "sched.batch_wakes", [s] { return s->stats().batch_wakes; }, "events",
            "fibers requeued by unpark_all batches");
        pvars_.add_counter(
            "sched.steals", [s] { return s->stats().steals; }, "events",
            "fibers taken from a peer worker's run queue");
        pvars_.add_counter(
            "sched.idle_sleeps", [s] { return s->stats().idle_sleeps; }, "events",
            "idle waits entered by workers");
        pvars_.add_counter(
            "sched.sweeps", [s] { return s->stats().sweeps; }, "events",
            "deadline-sweeper scans of the fiber list");
        pvars_.add_counter(
            "sched.idle_backstop_with_work",
            [s] { return s->stats().idle_backstop_with_work; }, "events",
            "20 ms idle waits that expired while a run queue held work "
            "(a missed notify, or an oversubscribed host)");
    }
}

World::MailboxStats World::mailbox_stats() const {
    MailboxStats s;
    const int n = static_cast<int>(mailboxes_.size());
    for (int g = 0; g < n; ++g) {
        const Mailbox& mb = *const_cast<World*>(this)->mailboxes_.find(g);
        s.eager_msgs += mb.eager_msgs.load(std::memory_order_relaxed);
        s.rendezvous_msgs += mb.rendezvous_msgs.load(std::memory_order_relaxed);
        s.delivered_msgs += mb.delivered_msgs.load(std::memory_order_relaxed);
        s.delivered_bytes += mb.delivered_bytes.load(std::memory_order_relaxed);
        s.flow_stalls += mb.flow_stalls.load(std::memory_order_relaxed);
        s.bytes_queued += mb.bytes_queued.load(std::memory_order_relaxed);
        const std::uint64_t hwm = mb.bytes_queued_hwm.load(std::memory_order_relaxed);
        if (hwm > s.bytes_queued_hwm) s.bytes_queued_hwm = hwm;
    }
    return s;
}

void World::register_mpi_functions() {
    struct Row {
        instr::FuncId FuncIds::*mpi;
        instr::FuncId FuncIds::*pmpi;
        const char* name;
        std::uint32_t cats;
    };
    const std::uint32_t msg_send = Category::MsgSend | Category::MsgSync;
    const std::uint32_t msg_recv = Category::MsgRecv | Category::MsgSync;
    const Row rows[] = {
        {&FuncIds::MPI_Init, &FuncIds::PMPI_Init, "Init", 0},
        {&FuncIds::MPI_Finalize, &FuncIds::PMPI_Finalize, "Finalize", 0},
        {&FuncIds::MPI_Send, &FuncIds::PMPI_Send, "Send", msg_send},
        {&FuncIds::MPI_Ssend, &FuncIds::PMPI_Ssend, "Ssend", msg_send},
        {&FuncIds::MPI_Recv, &FuncIds::PMPI_Recv, "Recv", msg_recv},
        {&FuncIds::MPI_Isend, &FuncIds::PMPI_Isend, "Isend", cat(Category::MsgSend)},
        {&FuncIds::MPI_Irecv, &FuncIds::PMPI_Irecv, "Irecv", cat(Category::MsgRecv)},
        {&FuncIds::MPI_Wait, &FuncIds::PMPI_Wait, "Wait",
         Category::WaitOp | Category::MsgSync},
        {&FuncIds::MPI_Waitall, &FuncIds::PMPI_Waitall, "Waitall",
         Category::WaitOp | Category::MsgSync},
        {&FuncIds::MPI_Sendrecv, &FuncIds::PMPI_Sendrecv, "Sendrecv",
         msg_send | Category::MsgRecv},
        {&FuncIds::MPI_Barrier, &FuncIds::PMPI_Barrier, "Barrier",
         Category::Barrier | Category::MsgSync},
        {&FuncIds::MPI_Bcast, &FuncIds::PMPI_Bcast, "Bcast",
         Category::Collective | Category::MsgSync},
        {&FuncIds::MPI_Reduce, &FuncIds::PMPI_Reduce, "Reduce",
         Category::Collective | Category::MsgSync},
        {&FuncIds::MPI_Allreduce, &FuncIds::PMPI_Allreduce, "Allreduce",
         Category::Collective | Category::MsgSync},
        {&FuncIds::MPI_Gather, &FuncIds::PMPI_Gather, "Gather",
         Category::Collective | Category::MsgSync},
        {&FuncIds::MPI_Scatter, &FuncIds::PMPI_Scatter, "Scatter",
         Category::Collective | Category::MsgSync},
        {&FuncIds::MPI_Allgather, &FuncIds::PMPI_Allgather, "Allgather",
         Category::Collective | Category::MsgSync},
        {&FuncIds::MPI_Win_create, &FuncIds::PMPI_Win_create, "Win_create",
         cat(Category::RmaLifetime)},
        {&FuncIds::MPI_Win_free, &FuncIds::PMPI_Win_free, "Win_free",
         cat(Category::RmaLifetime)},
        {&FuncIds::MPI_Win_fence, &FuncIds::PMPI_Win_fence, "Win_fence",
         cat(Category::RmaActiveSync)},
        {&FuncIds::MPI_Win_start, &FuncIds::PMPI_Win_start, "Win_start",
         cat(Category::RmaActiveSync)},
        {&FuncIds::MPI_Win_complete, &FuncIds::PMPI_Win_complete, "Win_complete",
         cat(Category::RmaActiveSync)},
        {&FuncIds::MPI_Win_post, &FuncIds::PMPI_Win_post, "Win_post",
         cat(Category::RmaActiveSync)},
        {&FuncIds::MPI_Win_wait, &FuncIds::PMPI_Win_wait, "Win_wait",
         cat(Category::RmaActiveSync)},
        {&FuncIds::MPI_Win_lock, &FuncIds::PMPI_Win_lock, "Win_lock",
         cat(Category::RmaPassiveSync)},
        {&FuncIds::MPI_Win_unlock, &FuncIds::PMPI_Win_unlock, "Win_unlock",
         cat(Category::RmaPassiveSync)},
        {&FuncIds::MPI_Put, &FuncIds::PMPI_Put, "Put", cat(Category::RmaPut)},
        {&FuncIds::MPI_Get, &FuncIds::PMPI_Get, "Get", cat(Category::RmaGet)},
        {&FuncIds::MPI_Accumulate, &FuncIds::PMPI_Accumulate, "Accumulate",
         cat(Category::RmaAcc)},
        {&FuncIds::MPI_Comm_spawn, &FuncIds::PMPI_Comm_spawn, "Comm_spawn",
         cat(Category::Spawn)},
        {&FuncIds::MPI_Comm_get_parent, &FuncIds::PMPI_Comm_get_parent,
         "Comm_get_parent", 0},
        {&FuncIds::MPI_Comm_set_name, &FuncIds::PMPI_Comm_set_name, "Comm_set_name", 0},
        {&FuncIds::MPI_Win_set_name, &FuncIds::PMPI_Win_set_name, "Win_set_name", 0},
        {&FuncIds::MPI_Abort, &FuncIds::PMPI_Abort, "Abort", 0},
    };
    // The MPI_ (user-boundary) name additionally carries UserBoundary
    // so FunctionGuard feeds the flight recorder exactly one span per
    // user-level call; PMPI_ internals stay invisible to the trace.
    for (const Row& r : rows) {
        const std::uint32_t base = r.cats | Category::MpiApi;
        fids_.*(r.mpi) = reg_.register_function(std::string("MPI_") + r.name, "libmpi",
                                                base | Category::UserBoundary);
        fids_.*(r.pmpi) =
            reg_.register_function(std::string("PMPI_") + r.name, "libmpi", base);
    }
    // MPI-I/O entry points.  They carry the Io category so the
    // default I/O-blocking metrics (and the Performance Consultant's
    // ExcessiveIOBlockingTime hypothesis) cover file access.
    const Row io_rows[] = {
        {&FuncIds::MPI_File_open, &FuncIds::PMPI_File_open, "File_open",
         Category::Io | Category::Collective},
        {&FuncIds::MPI_File_close, &FuncIds::PMPI_File_close, "File_close",
         Category::Io | Category::Collective},
        {&FuncIds::MPI_File_read, &FuncIds::PMPI_File_read, "File_read",
         cat(Category::Io)},
        {&FuncIds::MPI_File_write, &FuncIds::PMPI_File_write, "File_write",
         cat(Category::Io)},
        {&FuncIds::MPI_File_read_at, &FuncIds::PMPI_File_read_at, "File_read_at",
         cat(Category::Io)},
        {&FuncIds::MPI_File_write_at, &FuncIds::PMPI_File_write_at, "File_write_at",
         cat(Category::Io)},
        {&FuncIds::MPI_File_read_all, &FuncIds::PMPI_File_read_all, "File_read_all",
         Category::Io | Category::Collective},
        {&FuncIds::MPI_File_write_all, &FuncIds::PMPI_File_write_all, "File_write_all",
         Category::Io | Category::Collective},
        {&FuncIds::MPI_File_read_shared, &FuncIds::PMPI_File_read_shared,
         "File_read_shared", cat(Category::Io)},
        {&FuncIds::MPI_File_write_shared, &FuncIds::PMPI_File_write_shared,
         "File_write_shared", cat(Category::Io)},
        {&FuncIds::MPI_File_seek, &FuncIds::PMPI_File_seek, "File_seek",
         cat(Category::Io)},
        {&FuncIds::MPI_File_sync, &FuncIds::PMPI_File_sync, "File_sync",
         cat(Category::Io)},
        {&FuncIds::MPI_File_delete, &FuncIds::PMPI_File_delete, "File_delete",
         cat(Category::Io)},
    };
    for (const Row& r : io_rows) {
        const std::uint32_t base = r.cats | Category::MpiApi;
        fids_.*(r.mpi) = reg_.register_function(std::string("MPI_") + r.name, "libmpi",
                                                base | Category::UserBoundary);
        fids_.*(r.pmpi) =
            reg_.register_function(std::string("PMPI_") + r.name, "libmpi", base);
    }

    // Transport-level functions.  MPICH ch_p4mpd moves messages with
    // socket read/write, which Paradyn's I/O metrics include -- the
    // source of the ExcessiveIOBlockingTime findings (paper Fig 3).
    fids_.io_read = reg_.register_function("read", "libc", cat(Category::Io));
    fids_.io_write = reg_.register_function("write", "libc", cat(Category::Io));
    fids_.sysv_recv = reg_.register_function("lam_ssi_rpi_sysv_recv", "liblam", 0);
    fids_.sysv_send = reg_.register_function("lam_ssi_rpi_sysv_send", "liblam", 0);
}

// ---------------------------------------------------------------------------
// Program registry
// ---------------------------------------------------------------------------

void World::register_program(const std::string& command, ProgramFn fn) {
    std::lock_guard lk(mu_);
    programs_[command] = std::move(fn);
}

bool World::has_program(const std::string& command) const {
    std::lock_guard lk(mu_);
    return programs_.count(command) != 0;
}

ProgramFn World::find_program(const std::string& command) const {
    std::lock_guard lk(mu_);
    const auto it = programs_.find(command);
    return it == programs_.end() ? ProgramFn{} : it->second;
}

// ---------------------------------------------------------------------------
// Processes
// ---------------------------------------------------------------------------

int World::create_proc(const std::string& node, const std::string& command) {
    // mu_ keeps the two tables' indices aligned across concurrent
    // spawns; the mailbox goes in first so any proc a lock-free reader
    // can see already has its mailbox.
    std::lock_guard lk(mu_);
    mailboxes_.append([](Mailbox&, std::int32_t) {});
    return procs_.append([&](ProcData& p, std::int32_t h) {
        p.global_rank = h;
        p.node = node;
        p.program = command;
    });
}

void World::set_proc_comm_world(int global_rank, Comm cw, Comm parent) {
    // Runs before start_proc; the thread-creation handoff publishes it.
    ProcData& p = procs_.at(global_rank, "simmpi: bad proc rank");
    p.comm_world = cw;
    p.parent_intercomm = parent;
}

void World::run_rank_body(int global_rank, std::vector<std::string> argv,
                          ProgramFn fn) {
    ProcData& p = procs_.at(global_rank, "simmpi: bad proc rank");
    // From here until it finishes, the rank's parks (the start gate
    // included) stop its unparked clock.
    sched::current_wait_token()->track_unparked(&p.unparked);
    // Start gate: park until released (release unparks the collected
    // waiters).
    {
        std::unique_lock lk2(mu_);
        while (!(start_released_ || !cfg_.start_paused)) {
            const std::shared_ptr<sched::WaitToken>& tok = sched::current_wait_token();
            start_waiters_.push_back(tok);
            lk2.unlock();
            tok->park_until(std::chrono::steady_clock::time_point::max());
            lk2.lock();
            start_waiters_.erase(
                std::remove(start_waiters_.begin(), start_waiters_.end(), tok),
                start_waiters_.end());
        }
    }
    {
        Rank rank(*this, global_rank);
        // A killed/poisoned rank unwinds here instead of returning;
        // the world records its epitaph and the fiber still exits
        // cleanly (finished stays the publish flag peers and the tool
        // watch).
        try {
            fn(rank, argv);
        } catch (const RankKilled& rk) {
            if (!rk.recorded) {
                Epitaph e;
                e.global_rank = global_rank;
                e.cause = rk.cause;
                e.detail = rk.detail;
                const char* lc = p.last_call.load(std::memory_order_relaxed);
                e.last_call = lc ? lc : "";
                e.calls_made = p.calls_made.load(std::memory_order_relaxed);
                record_death(std::move(e));
            }
        } catch (const std::exception& ex) {
            Epitaph e;
            e.global_rank = global_rank;
            e.cause = Epitaph::Cause::Exception;
            e.detail = ex.what();
            const char* lc = p.last_call.load(std::memory_order_relaxed);
            e.last_call = lc ? lc : "";
            e.calls_made = p.calls_made.load(std::memory_order_relaxed);
            record_death(std::move(e));
        }
    }
    sched::current_wait_token()->track_unparked(nullptr);  // finished: asks no CPU
    p.finished = true;
    // Completion notification for join_all (satellite of DESIGN.md 12:
    // no teardown polling).  The decrement happens INSIDE the join_mu_
    // critical section: join_all only reads unfinished_ under the same
    // lock, so it cannot observe zero, return, and let ~World destroy
    // join_mu_/join_cv_ while this fiber is still between the
    // decrement and the notify.
    {
        std::lock_guard lk(join_mu_);
        if (unfinished_.fetch_sub(1, std::memory_order_acq_rel) == 1)
            join_cv_.notify_all();
    }
}

void World::start_proc(int global_rank, std::vector<std::string> argv) {
    ProcData& p = procs_.at(global_rank, "simmpi: bad proc rank");
    ProgramFn fn = find_program(p.program);
    if (!fn) throw std::runtime_error("simmpi: unknown program '" + p.program + "'");
    auto body = [this, global_rank, argv = std::move(argv), fn = std::move(fn)]() mutable {
        run_rank_body(global_rank, std::move(argv), std::move(fn));
    };
    // The fiber's instr context carries the rank identity and the
    // recorder sink; workers install it at every switch-in.
    instr::ThreadContext ictx;
    ictx.rank = global_rank;
    ictx.sink = recorder_.get();
    std::lock_guard lk(mu_);
    // The increment must precede the spawn (the body may finish and
    // decrement before spawn returns), but a failed spawn must roll it
    // back or join_all stalls until the watchdog aborts the process.
    unfinished_.fetch_add(1, std::memory_order_acq_rel);
    try {
        sched_->spawn(std::move(body), kFiberStackBytes, &p.cpu, ictx);
    } catch (...) {
        unfinished_.fetch_sub(1, std::memory_order_acq_rel);
        throw;
    }
}

void World::release_start_gate() {
    std::vector<std::shared_ptr<sched::WaitToken>> waiters;
    {
        std::lock_guard lk(mu_);
        start_released_ = true;
        cfg_.start_paused = false;  // late starters run immediately
        waiters = std::move(start_waiters_);
        start_waiters_.clear();
    }
    sched::unpark_all(waiters);
}

void World::join_all() {
    // Watchdog phase: wait for every rank body to come home, woken by
    // the last finisher's notify instead of a polling loop.  On
    // deadline expiry the per-rank state goes to stderr -- turning a
    // silent CI hang into a diagnosable dump -- then the world is
    // poisoned so liveness-checked waits unwedge; a grace period later
    // the process is aborted if ranks still have not come home.
    using clock = std::chrono::steady_clock;
    auto deadline = clock::now() + std::chrono::duration_cast<clock::duration>(
                                       std::chrono::duration<double>(
                                           cfg_.join_deadline_seconds));
    bool dumped = false;
    {
        std::unique_lock lk(join_mu_);
        while (unfinished_.load(std::memory_order_acquire) != 0) {
            if (join_cv_.wait_until(lk, deadline) != std::cv_status::timeout)
                continue;
            if (clock::now() < deadline) continue;  // spurious
            lk.unlock();
            if (dumped) {
                dump_state("join_all grace period expired; aborting");
                emit_postmortem("join_all grace period expired; aborting");
                std::abort();
            }
            dump_state("join_all deadline expired; poisoning world");
            poison(MPI_ERR_OTHER);  // poison() emits the postmortem
            dumped = true;
            deadline = clock::now() + std::chrono::seconds(10);
            lk.lock();
        }
    }
}

std::size_t World::proc_count() const { return procs_.size(); }

const ProcData& World::proc(int global_rank) const {
    return procs_.at(global_rank, "simmpi: bad proc rank");
}

ProcData& World::proc_data(int global_rank) {
    return procs_.at(global_rank, "simmpi: bad proc rank");
}

// ---------------------------------------------------------------------------
// Failure plane
// ---------------------------------------------------------------------------

bool World::rank_dead(int global_rank) const {
    const ProcData* p = procs_.find(global_rank);
    return p && p->dead.load(std::memory_order_acquire);
}

bool World::rank_unreachable(int global_rank) const {
    const ProcData* p = procs_.find(global_rank);
    return p && (p->dead.load(std::memory_order_acquire) ||
                 p->finished.load(std::memory_order_acquire));
}

void WaitDeadline::note_expired() { world_.note_deadline_expired(rank_, site_); }

void World::note_deadline_expired(int rank, const char* site) {
    deadline_expired_.fetch_add(1, std::memory_order_relaxed);
    trace_event(trace::EventKind::DeadlineExpired, rank, site,
                static_cast<std::int64_t>(cfg_.wait_deadline_seconds * 1e3));
}

void World::record_death(Epitaph e) {
    ProcData* p = procs_.find(e.global_rank);
    if (!p) return;
    if (p->dead.exchange(true, std::memory_order_acq_rel)) return;  // first death wins
    // cause_name returns a string literal, so the recorded pointer
    // outlives the world.
    trace_event(trace::EventKind::Death, e.global_rank, cause_name(e.cause),
                static_cast<std::int64_t>(e.calls_made));
    {
        std::lock_guard lk(epitaph_mu_);
        epitaphs_.push_back(e);
        epitaph_count_.store(epitaphs_.size(), std::memory_order_release);
    }
    death_epoch_.fetch_add(1, std::memory_order_acq_rel);
    // Parked fibers get an explicit broadcast so their abandon
    // predicates (dead peer / poisoned world) re-run now; the waits of
    // OS threads that are not ranks notice within one 5 ms slice.
    sched_->unpark_all_parked();
    {
        std::lock_guard lk(observer_mu_);
        if (death_observer_) death_observer_(e);
    }
    // Nudge the exporter so an attached sampler sees the death
    // (faults.epitaphs and the terminal counter state) promptly; the
    // close() snapshot covers runs that end before the pass fires.
    // Asynchronous on purpose: record_death can run while the caller
    // holds an RMA shard mutex, and a publish polls every provider's
    // reader; the dying rank's stack is no place for that pass.
    if (exporter_) exporter_->request_flush();
}

std::vector<Epitaph> World::epitaphs() const {
    std::lock_guard lk(epitaph_mu_);
    return epitaphs_;
}

void World::poison(int errorcode) {
    int expected = MPI_SUCCESS;
    poison_code_.compare_exchange_strong(expected, errorcode);
    poisoned_.store(true, std::memory_order_release);
    death_epoch_.fetch_add(1, std::memory_order_acq_rel);
    sched_->unpark_all_parked();
    trace_event(trace::EventKind::Poison, -1, "world_poisoned", errorcode);
    emit_postmortem("world poisoned");
    // Asynchronous for the same reason as in record_death: poison() is
    // reachable from error paths that hold transport locks.
    if (exporter_) exporter_->request_flush();
}

bool World::any_dead(const std::vector<int>& global_ranks) const {
    for (int g : global_ranks) {
        const ProcData* p = procs_.find(g);
        if (p && p->dead.load(std::memory_order_acquire)) return true;
    }
    return false;
}

bool World::comm_has_dead_member(const CommData& cd) const {
    return any_dead(cd.group) || any_dead(cd.remote_group);
}

void World::revoke_comm(Comm c, int by_global_rank) {
    if (!comm_valid(c)) return;
    CommData& cd = comm(c);
    if (cd.revoked.exchange(true, std::memory_order_acq_rel)) return;  // idempotent
    trace_event(trace::EventKind::Revoke, by_global_rank, "MPI_Comm_revoke", c,
                static_cast<std::int64_t>(death_epoch()));
    // Same broadcast record_death uses: parked fibers re-run their
    // abandon predicates (which now see the revoked flag) immediately.
    sched_->unpark_all_parked();
}

void World::mark_recovered() {
    bool lost;
    {
        std::lock_guard lk(epitaph_mu_);
        lost = !epitaphs_.empty();
    }
    if (lost) recovered_.store(true, std::memory_order_release);
}

void World::set_death_observer(std::function<void(const Epitaph&)> obs) {
    std::lock_guard lk(observer_mu_);
    death_observer_ = std::move(obs);
}

void World::dump_state(const char* why) const {
    std::fprintf(stderr, "simmpi: %s\n", why);
    const int n = static_cast<int>(procs_.size());
    for (int g = 0; g < n; ++g) {
        const ProcData& p = *procs_.find(g);
        const char* lc = p.last_call.load(std::memory_order_relaxed);
        // Racy reads of the mailbox's atomics: the dump takes no lock
        // the ranks it describes might hold.
        const Mailbox& mb = const_cast<World*>(this)->mailbox(g);
        const std::uint64_t queued = mb.eager_msgs.load(std::memory_order_relaxed) +
                                     mb.rendezvous_msgs.load(std::memory_order_relaxed);
        const std::uint64_t drained = mb.delivered_msgs.load(std::memory_order_relaxed);
        const std::size_t depth = queued > drained ? queued - drained : 0;
        const std::size_t bytes = mb.bytes_queued.load(std::memory_order_relaxed);
        const int msg_w = mb.msg_waiter.load(std::memory_order_relaxed) != nullptr ? 1 : 0;
        const int space_w = mb.space_waiters.load(std::memory_order_relaxed);
        std::fprintf(stderr,
                     "  rank %d (%s on %s): %s, last call %s (#%llu), "
                     "mailbox %zu msgs / %zu bytes, waiters msg=%d space=%d\n",
                     g, p.program.c_str(), p.node.c_str(),
                     p.dead.load() ? "DEAD" : (p.finished.load() ? "finished" : "running"),
                     lc ? lc : "<none>",
                     static_cast<unsigned long long>(p.calls_made.load()), depth, bytes,
                     msg_w, space_w);
    }
    if (poisoned())
        std::fprintf(stderr, "  world poisoned with error code %d\n", poison_code());
}

void World::emit_postmortem(const char* why) {
    if (!recorder_) return;
    if (postmortem_emitted_.exchange(true, std::memory_order_acq_rel)) return;
    // Mirror of trace::notes_from_world, inlined here because the
    // flight-recorder layer must stay simmpi-free (see src/trace/
    // CMakeLists.txt) while the World still owns the poison/watchdog
    // emit points.
    std::vector<trace::PostmortemNote> notes;
    const std::vector<Epitaph> eps = epitaphs();
    const int n = static_cast<int>(procs_.size());
    for (int g = 0; g < n; ++g) {
        const ProcData& p = *procs_.find(g);
        trace::PostmortemNote note;
        note.rank = g;
        if (p.dead.load(std::memory_order_acquire)) {
            note.status = "DEAD";
            for (const Epitaph& e : eps) {
                if (e.global_rank != g) continue;
                note.status = std::string("DEAD: ") + cause_name(e.cause) +
                              (e.detail.empty() ? "" : " - " + e.detail);
                note.last_call = e.last_call;
                break;
            }
        } else if (p.finished.load(std::memory_order_acquire)) {
            note.status = "finished";
        } else {
            note.status = "running";
            const char* lc = p.last_call.load(std::memory_order_relaxed);
            if (lc) note.last_call = lc;
        }
        notes.push_back(std::move(note));
    }
    const std::string dump = trace::render_postmortem(*recorder_, notes, why);
    std::fwrite(dump.data(), 1, dump.size(), stderr);
    if (const char* dir = std::getenv("M2P_POSTMORTEM_DIR")) {
        static std::atomic<int> counter{0};
        char stem[96];
        std::snprintf(stem, sizeof stem, "%s/postmortem_%ld_%d", dir,
                      static_cast<long>(::getpid()),
                      counter.fetch_add(1, std::memory_order_relaxed));
        auto write_one = [](const std::string& path, const std::string& body) {
            if (std::FILE* f = std::fopen(path.c_str(), "w")) {
                std::fwrite(body.data(), 1, body.size(), f);
                std::fclose(f);
            }
        };
        write_one(std::string(stem) + ".txt", dump);
        write_one(std::string(stem) + ".trace.json", trace::render_chrome_json(*recorder_));
    }
}

std::vector<int> World::live_procs() const {
    std::vector<int> out;
    const int n = static_cast<int>(procs_.size());
    for (int g = 0; g < n; ++g)
        if (!procs_.find(g)->finished) out.push_back(g);
    return out;
}

bool World::all_finished() const {
    const int n = static_cast<int>(procs_.size());
    for (int g = 0; g < n; ++g)
        if (!procs_.find(g)->finished) return false;
    return n != 0;
}

double World::proc_cpu_seconds(int global_rank) const {
    const ProcData* p = procs_.find(global_rank);
    return p ? static_cast<double>(p->cpu.read(false).total_ns) * 1e-9 : 0.0;
}

double World::proc_user_cpu_seconds(int global_rank) const {
    const ProcData* p = procs_.find(global_rank);
    return p ? static_cast<double>(p->cpu.read(true).user_ns) * 1e-9 : 0.0;
}

double World::proc_unparked_seconds(int global_rank) const {
    const ProcData* p = procs_.find(global_rank);
    return p ? p->unparked.seconds() : 0.0;
}

// ---------------------------------------------------------------------------
// Handle tables
// ---------------------------------------------------------------------------

Comm World::create_comm(std::vector<int> group, std::vector<int> remote, bool is_inter) {
    const std::int64_t ctx =
        next_context_.fetch_add(4);  // room for collective side-channels
    return comms_.append([&](CommData& c, std::int32_t h) {
        c.handle = h;
        c.context = ctx;
        c.group = std::move(group);
        c.remote_group = std::move(remote);
        c.is_inter = is_inter;
        c.errhandler.store(cfg_.default_errhandler, std::memory_order_relaxed);
        c.gate.reset(c.group.size() + c.remote_group.size());
    });
}

CommData& World::comm(Comm c) { return comms_.at(c, "simmpi: bad communicator handle"); }

bool World::comm_valid(Comm c) const {
    const CommData* cd = comms_.find(c);
    return cd && !cd->freed;
}

void World::release_comm_member(Comm c) {
    CommData* cd = comms_.find(c);
    if (!cd || cd->freed) return;
    const int total = static_cast<int>(cd->group.size() + cd->remote_group.size());
    if (cd->free_count.fetch_add(1, std::memory_order_acq_rel) + 1 < total) return;
    // Last member out.  Nobody can still be inside an operation on this
    // comm (every member has called free), so payload storage can go;
    // the slot itself stays to keep the dense handle space stable.
    cd->freed = true;
    {
        std::lock_guard lk(name_mu_);
        cd->name.clear();
        cd->name.shrink_to_fit();
    }
    std::vector<int>().swap(cd->group);
    std::vector<int>().swap(cd->remote_group);
    cd->gate.reset(0);  // drops the members' token references
}

Group World::create_group(std::vector<int> global_ranks) {
    return groups_.append([&](GroupData& g, std::int32_t h) {
        g.handle = h;
        g.global_ranks = std::move(global_ranks);
    });
}

GroupData& World::group(Group g) { return groups_.at(g, "simmpi: bad group handle"); }

bool World::group_valid(Group g) const {
    const GroupData* gd = groups_.find(g);
    return gd && !gd->freed;
}

Info World::create_info() {
    return infos_.append([](InfoData& i, std::int32_t h) { i.handle = h; });
}

InfoData& World::info(Info i) { return infos_.at(i, "simmpi: bad info handle"); }

bool World::info_valid(Info i) const {
    const InfoData* id = infos_.find(i);
    return id && !id->freed;
}

Win World::create_win(Comm c) {
    int impl_id;
    {
        // Real MPI implementations recycle window identifiers after
        // MPI_Win_free; we do the same so the tool's N-M uniqueness
        // scheme is actually exercised (paper section 4.2.1).
        std::lock_guard lk(mu_);
        if (!free_win_impl_ids_.empty()) {
            impl_id = free_win_impl_ids_.back();
            free_win_impl_ids_.pop_back();
        } else {
            impl_id = next_win_impl_id_++;
        }
    }
    const std::size_t members = comm(c).group.size();
    const Win h = wins_.append([&](WinData& w, std::int32_t h2) {
        w.handle = h2;
        w.comm = c;
        w.impl_id = impl_id;
        w.fence.reset(members);
    });
    // Table-1 pvars for this window.  Handles are never reused (only
    // impl_ids recycle) and the WinData slot outlives MPI_Win_free, so
    // the captured pointer stays valid and final totals stay readable
    // -- the same contract win_rma_counters() documents.
    {
        const WinCounters* wc = &wins_.at(h, "simmpi: bad window handle").counters;
        const std::string base = "rma.table1.win" + std::to_string(h) + ".";
        auto ctr = [&](const char* leaf, std::atomic<std::int64_t> WinCounters::*field,
                       const char* unit) {
            pvars_.add_counter(base + leaf, [wc, field] {
                return static_cast<std::uint64_t>(
                    (wc->*field).load(std::memory_order_acquire));
            }, unit);
        };
        ctr("put_ops", &WinCounters::put_ops, "ops");
        ctr("get_ops", &WinCounters::get_ops, "ops");
        ctr("acc_ops", &WinCounters::acc_ops, "ops");
        ctr("put_bytes", &WinCounters::put_bytes, "bytes");
        ctr("get_bytes", &WinCounters::get_bytes, "bytes");
        ctr("acc_bytes", &WinCounters::acc_bytes, "bytes");
        ctr("sync_ops", &WinCounters::sync_ops, "ops");
        ctr("at_sync_wait_ns", &WinCounters::at_sync_wait_ns, "ns");
        ctr("pt_sync_wait_ns", &WinCounters::pt_sync_wait_ns, "ns");
    }
    return h;
}

WinData& World::win(Win w) { return wins_.at(w, "simmpi: bad window handle"); }

bool World::win_valid(Win w) const {
    const WinData* wd = wins_.find(w);
    return wd && !wd->freed;
}

void World::release_win_impl_id(int impl_id) {
    std::lock_guard lk(mu_);
    free_win_impl_ids_.push_back(impl_id);
}

RmaCounterSnapshot World::win_rma_counters(Win w) {
    WinData& wd = win(w);
    const WinCounters& c = wd.counters;
    RmaCounterSnapshot s;
    s.put_ops = c.put_ops.load(std::memory_order_acquire);
    s.get_ops = c.get_ops.load(std::memory_order_acquire);
    s.acc_ops = c.acc_ops.load(std::memory_order_acquire);
    s.put_bytes = c.put_bytes.load(std::memory_order_acquire);
    s.get_bytes = c.get_bytes.load(std::memory_order_acquire);
    s.acc_bytes = c.acc_bytes.load(std::memory_order_acquire);
    s.sync_ops = c.sync_ops.load(std::memory_order_acquire);
    s.rma_ops = s.put_ops + s.get_ops + s.acc_ops;
    s.rma_bytes = s.put_bytes + s.get_bytes + s.acc_bytes;
    s.at_sync_wait = static_cast<double>(c.at_sync_wait_ns.load(std::memory_order_acquire)) * 1e-9;
    s.pt_sync_wait = static_cast<double>(c.pt_sync_wait_ns.load(std::memory_order_acquire)) * 1e-9;
    s.sync_wait = s.at_sync_wait + s.pt_sync_wait;
    return s;
}

Request World::create_request(RequestData rd) {
    std::vector<Request>& free = proc_data(rd.owner_global).free_requests;
    if (!free.empty()) {
        const Request h = free.back();
        free.pop_back();
        RequestData& slot = requests_.at(h, "simmpi: bad request handle");
        rd.handle = h;
        rd.live = true;
        slot = std::move(rd);
        return h;
    }
    return requests_.append([&](RequestData& slot, std::int32_t h) {
        slot = std::move(rd);
        slot.handle = h;
        slot.live = true;
    });
}

RequestData& World::request(Request r) {
    return requests_.at(r, "simmpi: bad request handle");
}

bool World::request_valid(Request r) const {
    const RequestData* rd = requests_.find(r);
    return rd && rd->live;
}

void World::free_request(Request r) {
    RequestData* rd = requests_.find(r);
    if (!rd || !rd->live) return;
    // Drop payload references before recycling the slot.
    rd->kind = RequestKind::Null;
    rd->delivered.reset();
    rd->buf = nullptr;
    rd->live = false;
    proc_data(rd->owner_global).free_requests.push_back(r);
}

Mailbox& World::mailbox(int global_rank) {
    return mailboxes_.at(global_rank, "simmpi: bad mailbox rank");
}

// ---------------------------------------------------------------------------
// Mailbox slow paths (the lock-free fast paths are inline in world.hpp)
// ---------------------------------------------------------------------------

Mailbox::~Mailbox() {
    // Runs after every rank has been joined: each node sits in exactly
    // one of these lists, whichever mailbox allocated it.
    for (Envelope* list : {inbox.load(std::memory_order_relaxed), queue_, spares_,
                           returned_.load(std::memory_order_relaxed)}) {
        while (list != nullptr) {
            Envelope* const next = list->next;
            delete list;
            list = next;
        }
    }
}

void Mailbox::add_space_waiter(const std::shared_ptr<sched::WaitToken>& tok) {
    std::lock_guard lk(space_mu_);
    space_tokens_.push_back(tok);
    space_waiters.store(static_cast<int>(space_tokens_.size()), std::memory_order_seq_cst);
}

void Mailbox::remove_space_waiter(const std::shared_ptr<sched::WaitToken>& tok) {
    std::lock_guard lk(space_mu_);
    auto& v = space_tokens_;
    v.erase(std::remove(v.begin(), v.end(), tok), v.end());
    space_waiters.store(static_cast<int>(v.size()), std::memory_order_relaxed);
}

void Mailbox::release_senders() {
    if (space_waiters.load(std::memory_order_seq_cst) == 0) return;
    std::vector<std::shared_ptr<sched::WaitToken>> wake;
    {
        std::lock_guard lk(space_mu_);
        wake.swap(space_tokens_);
        space_waiters.store(0, std::memory_order_relaxed);
    }
    // They need different amounts of room, so all of them retry.
    sched::unpark_all(wake);
}

bool Mailbox::prepare_wait(const std::shared_ptr<sched::WaitToken>& tok) {
    if (std::find(waiter_refs_.begin(), waiter_refs_.end(), tok) == waiter_refs_.end())
        waiter_refs_.push_back(tok);
    msg_waiter.store(tok.get(), std::memory_order_seq_cst);
    return inbox.load(std::memory_order_seq_cst) == nullptr;
}

void Mailbox::adopt_returned() {
    Envelope* e = returned_.exchange(nullptr, std::memory_order_acquire);
    while (e != nullptr) {
        Envelope* const next = e->next;
        const std::size_t size = sizeof(Envelope) + e->data.capacity();
        if (spare_bytes_ + size <= kMaxSpareBytes) {
            e->next = spares_;
            spares_ = e;
            spare_bytes_ += size;
        } else {
            delete e;
        }
        e = next;
    }
}

// ---------------------------------------------------------------------------
// Simulated parallel filesystem
// ---------------------------------------------------------------------------

std::shared_ptr<StoredFile> World::fs_lookup(const std::string& filename, bool create) {
    std::lock_guard lk(mu_);
    const auto it = filesystem_.find(filename);
    if (it != filesystem_.end()) return it->second;
    if (!create) return nullptr;
    auto f = std::make_shared<StoredFile>();
    filesystem_[filename] = f;
    return f;
}

bool World::fs_exists(const std::string& filename) const {
    std::lock_guard lk(mu_);
    return filesystem_.count(filename) != 0;
}

bool World::fs_delete(const std::string& filename) {
    std::lock_guard lk(mu_);
    return filesystem_.erase(filename) != 0;
}

File World::create_file(std::string filename, std::shared_ptr<StoredFile> store,
                        Comm comm, int amode, bool delete_on_close) {
    return files_.append([&](FileData& fd, std::int32_t h) {
        fd.handle = h;
        fd.filename = std::move(filename);
        fd.store = std::move(store);
        fd.comm = comm;
        fd.amode = amode;
        fd.delete_on_close = delete_on_close;
    });
}

FileData& World::file(File f) { return files_.at(f, "simmpi: bad file handle"); }

bool World::file_valid(File f) const {
    const FileData* fd = files_.find(f);
    return fd && !fd->closed;
}

// ---------------------------------------------------------------------------
// Runtime services
// ---------------------------------------------------------------------------

std::int64_t World::win_impl_id(std::int64_t handle) const {
    const WinData* wd = wins_.find(static_cast<Win>(handle));
    return wd ? wd->impl_id : -1;
}

std::int64_t World::comm_context(std::int64_t handle) const {
    const CommData* cd = comms_.find(static_cast<Comm>(handle));
    return cd ? cd->context : -1;
}

std::string World::object_name_of_win(Win w) const {
    const WinData* wd = wins_.find(w);
    if (!wd) return {};
    std::lock_guard lk(name_mu_);
    return wd->name;
}

std::string World::object_name_of_comm(Comm c) const {
    const CommData* cd = comms_.find(c);
    if (!cd) return {};
    std::lock_guard lk(name_mu_);
    return cd->name;
}

void World::set_comm_name(Comm c, const std::string& name) {
    CommData* cd = comms_.find(c);
    if (!cd) return;
    std::lock_guard lk(name_mu_);
    cd->name = name;
}

void World::set_win_name(Win w, const std::string& name) {
    WinData* wd = wins_.find(w);
    if (!wd) return;
    std::lock_guard lk(name_mu_);
    wd->name = name;
}

void World::set_type_name(Datatype dt, std::string name) {
    std::lock_guard lk(mu_);
    type_names_[dt] = std::move(name);
}

std::string World::type_name(Datatype dt) const {
    std::lock_guard lk(mu_);
    const auto it = type_names_.find(dt);
    return it == type_names_.end() ? std::string() : it->second;
}

// ---------------------------------------------------------------------------
// Spawn
// ---------------------------------------------------------------------------

void World::set_node_pool(std::vector<std::string> nodes) {
    std::lock_guard lk(mu_);
    if (!nodes.empty()) nodes_ = std::move(nodes);
}

Comm World::do_spawn(const std::string& command, const std::vector<std::string>& argv,
                     int maxprocs, Comm parent_comm) {
    // Spawn failure is reported, never thrown: an unknown program (the
    // old path threw std::runtime_error out of the root rank's thread,
    // std::terminate-ing the process) or an injected fault returns
    // MPI_COMM_NULL, which the rendezvous in PMPI_Comm_spawn turns
    // into MPI_ERR_SPAWN on every member of the spawning communicator.
    if (!has_program(command)) {
        trace_event(trace::EventKind::Spawn, instr::current_rank(), "spawn_unknown_program",
                    maxprocs, /*ok=*/0);
        return MPI_COMM_NULL;
    }
    if (cfg_.faults) {
        // Transient launch failures (fail_spawn specs fire once) are
        // retried with bounded exponential backoff; a persistent fault
        // exhausts the attempts and fails the spawn as before.
        const int attempts = std::max(1, cfg_.spawn_retry_attempts);
        double backoff = cfg_.spawn_retry_backoff_seconds;
        bool faulted = false;
        for (int attempt = 0; attempt < attempts; ++attempt) {
            faulted = cfg_.faults->on_spawn();
            if (!faulted) break;
            trace_event(trace::EventKind::Fault, instr::current_rank(), "fault_spawn",
                        maxprocs, attempt);
            if (attempt + 1 < attempts) {
                trace_event(trace::EventKind::Spawn, instr::current_rank(),
                            "spawn_retry", maxprocs, attempt + 1);
                sched::sleep_for(std::chrono::duration<double>(backoff));
                backoff *= 2;
            }
        }
        if (faulted) {
            trace_event(trace::EventKind::Spawn, instr::current_rank(), "spawn",
                        maxprocs, /*ok=*/0);
            return MPI_COMM_NULL;
        }
    }
    // Simulated process-creation overhead: the paper calls out spawn
    // cost as something programmers will want to measure.
    sched::sleep_for(std::chrono::duration<double>(kSpawnBaseCost * maxprocs));

    std::vector<int> children;
    children.reserve(static_cast<std::size_t>(maxprocs));
    for (int i = 0; i < maxprocs; ++i) {
        std::string node;
        {
            std::lock_guard lk(mu_);
            node = nodes_[next_node_ % nodes_.size()];
            ++next_node_;
        }
        children.push_back(create_proc(node, command));
    }
    const Comm child_world = create_comm(children);
    std::vector<int> parent_group = comm(parent_comm).group;
    const Comm inter = create_comm(parent_group, children, /*is_inter=*/true);
    for (int g : children) {
        set_proc_comm_world(g, child_world, inter);
        start_proc(g, argv);
    }
    trace_event(trace::EventKind::Spawn, instr::current_rank(), "spawn", maxprocs,
                /*ok=*/1, inter);
    return inter;
}

std::vector<MpirProcDesc> World::mpir_proctable() const {
    std::vector<MpirProcDesc> out;
    if (!cfg_.mpir_enabled) return out;
    const int n = static_cast<int>(procs_.size());
    for (int g = 0; g < n; ++g) {
        const ProcData& p = *procs_.find(g);
        out.push_back({p.node, p.program, p.global_rank});
    }
    return out;
}

}  // namespace m2p::simmpi
