// Flight recorder: always-on, per-thread, lock-free event rings.
//
// Every data plane of the simulated MPI (pt2pt, collectives, RMA,
// MPI-IO, spawn, fault firings) and the tool side (PC experiments,
// resource retirement, session outcomes) drops compact binary events
// into fixed-capacity overwrite-oldest rings -- one ring per recording
// thread, so the hot path is a handful of relaxed atomic stores (one
// 56-byte slot copy) plus a release publish of the head counter.  The
// rings survive rank death: when a world poisons, aborts, or trips the
// join watchdog it renders a postmortem dump from whatever the rings
// still hold, correlated with the PR 3 epitaph table.  Accounting is
// exact: events_written == events_kept + events_dropped, always.
//
// This layer is deliberately free of simmpi dependencies (instr + util
// only) so the World can own a recorder; trace::Exporter (exporter.hpp)
// layers the world-aware conveniences and file output on top, and the
// MPE/Jumpshot log (mpe.hpp) is rebuilt as one backend reading
// MpiCall spans from these rings.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "instr/registry.hpp"
#include "util/clock.hpp"

namespace m2p::trace {

enum class EventKind : std::uint32_t {
    MpiCall = 1,          ///< one MPI_* trampoline call; t0..t1 span the guard
    Pt2ptSend,            ///< a=bytes, b=tag, c=dest global rank
    Pt2ptRecv,            ///< a=bytes, b=tag, c=source global rank
    CollBegin,            ///< a=local payload bytes, b=algo, c=comm; algo is
                          ///< Barrier's 0 LAM / 1 MPICH, else 1 (tree)
    CollEnd,              ///< b=algo, c=comm
    RmaEpoch,             ///< epoch transition at a sync call: a=win, b=wait ns, c=passive
    RmaBatch,             ///< staged-op flush: a=ops, b=bytes, c=win
    Io,                   ///< a=bytes moved, b=byte offset, c=file handle
    Spawn,                ///< a=maxprocs, b=ok (0/1), c=intercomm
    Fault,                ///< a FaultPlan firing; a=call index / nth match
    Death,                ///< name=cause, a=calls made
    Poison,               ///< world poisoned; a=error code
    ExperimentStart,      ///< PC experiment begins; name=hypothesis
    ExperimentStop,       ///< a=tested_true (0/1)
    ExperimentTruncated,  ///< rank died during the evaluation interval
    ResourceRetired,      ///< tool retired a resource; name=path prefix
    RunOutcome,           ///< session verdict; name=status, a=abort code
    Revoke,               ///< MPI_Comm_revoke; a=comm, b=death epoch at revoke
    Shrink,               ///< MPI_Comm_shrink closed; a=old comm, b=new comm, c=survivors
    Agree,                ///< MPI_Comm_agree closed; a=comm, b=flag, c=result code
    DeadlineExpired,      ///< a wait gave up at its deadline; name=wait site, a=deadline ms
};

const char* kind_name(EventKind k);

/// One compact binary record.  @p name must point at a string whose
/// lifetime covers the recorder's (string literals, registry
/// FunctionInfo names); events never own memory.
struct Event {
    std::uint64_t t0 = 0;  ///< util::ticks() at begin (== t1 for instants)
    std::uint64_t t1 = 0;  ///< util::ticks() at end
    const char* name = nullptr;
    std::int64_t a = 0;
    std::int64_t b = 0;
    std::int64_t c = 0;
    std::int32_t rank = -1;  ///< global rank, -1 for tool-side threads
    std::uint32_t kind = 0;
};

/// Fixed-capacity overwrite-oldest ring.  Single writer (the owning
/// thread); any number of concurrent snapshot readers.  Slots are
/// arrays of relaxed atomic words -- plain mov stores on x86 -- so a
/// reader racing a wrap-around overwrite reads well-defined (if stale)
/// words, and the snapshot's head re-check discards exactly the slots
/// the writer may have recycled mid-copy.
class EventRing {
public:
    static constexpr std::size_t kWords = 7;  ///< 56-byte slot

    EventRing(std::size_t capacity, int thread_index);
    EventRing(const EventRing&) = delete;
    EventRing& operator=(const EventRing&) = delete;

    void push(const Event& e) noexcept {
        const std::uint64_t seq = head_.load(std::memory_order_relaxed);
        std::atomic<std::uint64_t>* w = &words_[(seq & mask_) * kWords];
        w[0].store(e.t0, std::memory_order_relaxed);
        w[1].store(e.t1, std::memory_order_relaxed);
        w[2].store(reinterpret_cast<std::uintptr_t>(e.name), std::memory_order_relaxed);
        w[3].store(static_cast<std::uint64_t>(e.a), std::memory_order_relaxed);
        w[4].store(static_cast<std::uint64_t>(e.b), std::memory_order_relaxed);
        w[5].store(static_cast<std::uint64_t>(e.c), std::memory_order_relaxed);
        w[6].store(static_cast<std::uint32_t>(e.rank) |
                       (static_cast<std::uint64_t>(e.kind) << 32),
                   std::memory_order_relaxed);
        head_.store(seq + 1, std::memory_order_release);
    }

    std::uint64_t written() const { return head_.load(std::memory_order_acquire); }
    std::uint64_t kept() const { return std::min<std::uint64_t>(written(), cap_); }
    std::uint64_t dropped() const { return written() - kept(); }
    std::size_t capacity() const { return cap_; }
    int thread_index() const { return thread_index_; }

    /// Appends the surviving events (oldest first) to @p out.  Safe
    /// against a concurrently pushing writer: slots the writer may have
    /// recycled during the copy are discarded, never returned torn.
    void snapshot(std::vector<Event>& out) const;

private:
    const std::size_t cap_;  ///< power of two
    const std::uint64_t mask_;
    const int thread_index_;
    std::atomic<std::uint64_t> head_{0};
    std::unique_ptr<std::atomic<std::uint64_t>[]> words_;
};

/// The recorder: hands each recording thread its own EventRing and
/// implements the instr::CallTraceSink seam so FunctionGuard's
/// user-boundary timestamps become MpiCall span events.
class FlightRecorder : public instr::CallTraceSink {
public:
    struct Options {
        std::size_t ring_capacity = 8192;  ///< events per thread, rounded up to 2^k
    };

    FlightRecorder();  ///< default Options
    explicit FlightRecorder(Options opts);
    ~FlightRecorder() override;
    FlightRecorder(const FlightRecorder&) = delete;
    FlightRecorder& operator=(const FlightRecorder&) = delete;

    /// Records an instant event stamped now.
    void record(EventKind kind, int rank, const char* name, std::int64_t a = 0,
                std::int64_t b = 0, std::int64_t c = 0) noexcept;
    /// Records a span event with caller-provided tick stamps.
    void record_span(EventKind kind, int rank, const char* name, std::uint64_t t0,
                     std::uint64_t t1, std::int64_t a = 0, std::int64_t b = 0,
                     std::int64_t c = 0) noexcept;

    void on_boundary_call(const instr::FunctionInfo& info, int rank, std::uint64_t t0,
                          std::uint64_t t1) noexcept override;

    struct Stats {
        std::uint64_t written = 0;
        std::uint64_t kept = 0;
        std::uint64_t dropped = 0;
        int rings = 0;
    };
    Stats stats() const;
    std::size_t ring_capacity() const { return cap_; }

    /// Merged snapshot of every ring, ordered by end timestamp.
    std::vector<Event> snapshot() const;

private:
    EventRing& thread_ring() noexcept;

    const std::uint64_t uid_;  ///< process-unique (thread-local cache key)
    const std::size_t cap_;
    mutable std::mutex mu_;
    std::vector<std::unique_ptr<EventRing>> rings_;
};

// ---------------------------------------------------------------------------
// Renderers.  simmpi-free on purpose: World calls them from its own
// failure plane (poison / watchdog) with notes built from the epitaph
// table; trace::Exporter wraps them for tool/test use.
// ---------------------------------------------------------------------------

/// Per-rank annotation for the postmortem dump (built from epitaphs).
struct PostmortemNote {
    int rank = -1;
    std::string status;     ///< "DEAD (fault plan: ...)", "running", ...
    std::string last_call;  ///< the epitaph's last-call record (dead ranks)
};

/// Plain-text postmortem: recorder totals, then per rank its status,
/// epitaph last call, and the tail of its recorded events -- the
/// "what was everyone doing when it died" view.
std::string render_postmortem(const FlightRecorder& fr,
                              const std::vector<PostmortemNote>& notes,
                              const std::string& why, std::size_t tail_events = 8);

/// Chrome trace-event JSON (chrome://tracing / Perfetto): MpiCall and
/// collective begin/end pairs become complete ("X") slices, everything
/// else instant ("i") events, one track per rank (tool side on its own
/// track).
std::string render_chrome_json(const FlightRecorder& fr);

}  // namespace m2p::trace
