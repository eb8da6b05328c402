#include "trace/flight_recorder.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <sstream>

namespace m2p::trace {

namespace {

std::size_t round_up_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return std::max<std::size_t>(p, 2);
}

std::atomic<std::uint64_t> g_recorder_uid{1};

/// Per-thread ring cache: one entry per recorder this thread has
/// recorded into.  Keyed by process-unique recorder uid, so a stale
/// entry for a destroyed recorder can never match a live one.
struct RingRef {
    std::uint64_t uid;
    EventRing* ring;
};
thread_local std::vector<RingRef> t_rings;

Event decode(const std::atomic<std::uint64_t>* w) {
    Event e;
    e.t0 = w[0].load(std::memory_order_relaxed);
    e.t1 = w[1].load(std::memory_order_relaxed);
    e.name = reinterpret_cast<const char*>(
        static_cast<std::uintptr_t>(w[2].load(std::memory_order_relaxed)));
    e.a = static_cast<std::int64_t>(w[3].load(std::memory_order_relaxed));
    e.b = static_cast<std::int64_t>(w[4].load(std::memory_order_relaxed));
    e.c = static_cast<std::int64_t>(w[5].load(std::memory_order_relaxed));
    const std::uint64_t rk = w[6].load(std::memory_order_relaxed);
    e.rank = static_cast<std::int32_t>(rk & 0xffffffffu);
    e.kind = static_cast<std::uint32_t>(rk >> 32);
    return e;
}

}  // namespace

const char* kind_name(EventKind k) {
    switch (k) {
        case EventKind::MpiCall: return "MpiCall";
        case EventKind::Pt2ptSend: return "Pt2ptSend";
        case EventKind::Pt2ptRecv: return "Pt2ptRecv";
        case EventKind::CollBegin: return "CollBegin";
        case EventKind::CollEnd: return "CollEnd";
        case EventKind::RmaEpoch: return "RmaEpoch";
        case EventKind::RmaBatch: return "RmaBatch";
        case EventKind::Io: return "Io";
        case EventKind::Spawn: return "Spawn";
        case EventKind::Fault: return "Fault";
        case EventKind::Death: return "Death";
        case EventKind::Poison: return "Poison";
        case EventKind::ExperimentStart: return "ExperimentStart";
        case EventKind::ExperimentStop: return "ExperimentStop";
        case EventKind::ExperimentTruncated: return "ExperimentTruncated";
        case EventKind::ResourceRetired: return "ResourceRetired";
        case EventKind::RunOutcome: return "RunOutcome";
        case EventKind::Revoke: return "Revoke";
        case EventKind::Shrink: return "Shrink";
        case EventKind::Agree: return "Agree";
        case EventKind::DeadlineExpired: return "DeadlineExpired";
    }
    return "?";
}

// ---------------------------------------------------------------------------
// EventRing
// ---------------------------------------------------------------------------

EventRing::EventRing(std::size_t capacity, int thread_index)
    : cap_(round_up_pow2(capacity)),
      mask_(cap_ - 1),
      thread_index_(thread_index),
      words_(new std::atomic<std::uint64_t>[cap_ * kWords]()) {}

void EventRing::snapshot(std::vector<Event>& out) const {
    const std::uint64_t h1 = head_.load(std::memory_order_acquire);
    const std::uint64_t n = std::min<std::uint64_t>(h1, cap_);
    const std::uint64_t first = h1 - n;
    std::vector<Event> tmp;
    tmp.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t seq = first; seq < h1; ++seq)
        tmp.push_back(decode(&words_[(seq & mask_) * kWords]));
    // Any slot whose sequence fell behind the post-copy head by a full
    // ring may have been recycled while we copied -- discard it.  The
    // counters stay exact: such events count as dropped at the final
    // head, not kept.
    const std::uint64_t h2 = head_.load(std::memory_order_acquire);
    const std::uint64_t safe_first = h2 > cap_ ? h2 - cap_ : 0;
    for (std::uint64_t seq = first; seq < h1; ++seq)
        if (seq >= safe_first) out.push_back(tmp[static_cast<std::size_t>(seq - first)]);
}

// ---------------------------------------------------------------------------
// FlightRecorder
// ---------------------------------------------------------------------------

FlightRecorder::FlightRecorder() : FlightRecorder(Options()) {}

FlightRecorder::FlightRecorder(Options opts)
    : uid_(g_recorder_uid.fetch_add(1, std::memory_order_relaxed)),
      cap_(round_up_pow2(opts.ring_capacity)) {}

FlightRecorder::~FlightRecorder() = default;

EventRing& FlightRecorder::thread_ring() noexcept {
    for (const RingRef& r : t_rings)
        if (r.uid == uid_) return *r.ring;
    std::lock_guard lk(mu_);
    rings_.push_back(std::make_unique<EventRing>(cap_, static_cast<int>(rings_.size())));
    EventRing* ring = rings_.back().get();
    t_rings.push_back({uid_, ring});
    return *ring;
}

void FlightRecorder::record(EventKind kind, int rank, const char* name, std::int64_t a,
                            std::int64_t b, std::int64_t c) noexcept {
    const std::uint64_t t = util::ticks();
    record_span(kind, rank, name, t, t, a, b, c);
}

void FlightRecorder::record_span(EventKind kind, int rank, const char* name,
                                 std::uint64_t t0, std::uint64_t t1, std::int64_t a,
                                 std::int64_t b, std::int64_t c) noexcept {
    Event e;
    e.t0 = t0;
    e.t1 = t1;
    e.name = name;
    e.a = a;
    e.b = b;
    e.c = c;
    e.rank = rank;
    e.kind = static_cast<std::uint32_t>(kind);
    thread_ring().push(e);
}

void FlightRecorder::on_boundary_call(const instr::FunctionInfo& info, int rank,
                                      std::uint64_t t0, std::uint64_t t1) noexcept {
    // A data plane may have folded a payload into this call (pt2pt
    // bytes/tag/peer); if so the span keeps the payload's kind and we
    // skip the separate instant event entirely -- one ring slot and two
    // timestamps per traced call, not two slots and three.
    const instr::BoundaryPayload p = instr::take_boundary_payload();
    if (p.kind)
        record_span(static_cast<EventKind>(p.kind), rank, info.name.c_str(), t0,
                    t1, p.a, p.b, p.c);
    else
        record_span(EventKind::MpiCall, rank, info.name.c_str(), t0, t1);
}

FlightRecorder::Stats FlightRecorder::stats() const {
    std::lock_guard lk(mu_);
    Stats s;
    s.rings = static_cast<int>(rings_.size());
    for (const auto& r : rings_) {
        s.written += r->written();
        s.kept += r->kept();
        s.dropped += r->dropped();
    }
    return s;
}

std::vector<Event> FlightRecorder::snapshot() const {
    std::vector<Event> out;
    {
        std::lock_guard lk(mu_);
        for (const auto& r : rings_) r->snapshot(out);
    }
    std::stable_sort(out.begin(), out.end(), [](const Event& x, const Event& y) {
        return static_cast<std::int64_t>(x.t1 - y.t1) < 0;
    });
    return out;
}

// ---------------------------------------------------------------------------
// Renderers
// ---------------------------------------------------------------------------

namespace {

void format_event(std::ostringstream& os, const util::TickCalibration& cal,
                  const Event& e) {
    char line[256];
    std::snprintf(line, sizeof line, "    t=%.6fs %-12s %s a=%" PRId64 " b=%" PRId64
                                     " c=%" PRId64 "\n",
                  util::ticks_to_wall(cal, e.t1), kind_name(static_cast<EventKind>(e.kind)),
                  e.name ? e.name : "-", e.a, e.b, e.c);
    os << line;
}

}  // namespace

std::string render_postmortem(const FlightRecorder& fr,
                              const std::vector<PostmortemNote>& notes,
                              const std::string& why, std::size_t tail_events) {
    const util::TickCalibration cal = util::calibrate_ticks();
    const FlightRecorder::Stats st = fr.stats();
    const std::vector<Event> events = fr.snapshot();

    std::map<int, std::vector<const Event*>> by_rank;
    for (const Event& e : events) by_rank[e.rank].push_back(&e);

    std::ostringstream os;
    os << "=== flight-recorder postmortem: " << why << " ===\n";
    os << "rings=" << st.rings << " events_written=" << st.written
       << " events_kept=" << st.kept << " events_dropped=" << st.dropped << "\n";
    auto dump_tail = [&](const std::vector<const Event*>& evs) {
        const std::size_t n = std::min(tail_events, evs.size());
        for (std::size_t i = evs.size() - n; i < evs.size(); ++i)
            format_event(os, cal, *evs[i]);
    };
    for (const PostmortemNote& note : notes) {
        os << "rank " << note.rank << " [" << note.status << "]";
        if (!note.last_call.empty()) os << " epitaph last call: " << note.last_call;
        const auto it = by_rank.find(note.rank);
        if (it == by_rank.end() || it->second.empty()) {
            os << " (no recorded events)\n";
            continue;
        }
        // The last call-boundary event is the one that must line up
        // with the epitaph's last-call record for a dead rank.
        // Pt2pt spans are MpiCall spans with a folded payload, so they
        // count as call-boundary events too.
        const Event* last_call = nullptr;
        for (const Event* e : it->second)
            if (e->kind == static_cast<std::uint32_t>(EventKind::MpiCall) ||
                e->kind == static_cast<std::uint32_t>(EventKind::Pt2ptSend) ||
                e->kind == static_cast<std::uint32_t>(EventKind::Pt2ptRecv) ||
                e->kind == static_cast<std::uint32_t>(EventKind::Fault))
                last_call = e;
        if (last_call && last_call->name) os << "; last recorded call: " << last_call->name;
        os << "\n";
        dump_tail(it->second);
    }
    const auto tool = by_rank.find(-1);
    if (tool != by_rank.end() && !tool->second.empty()) {
        os << "tool-side events:\n";
        dump_tail(tool->second);
    }
    return os.str();
}

std::string render_chrome_json(const FlightRecorder& fr) {
    const util::TickCalibration cal = util::calibrate_ticks();
    const std::vector<Event> events = fr.snapshot();
    std::string out = "{\"traceEvents\":[";
    char buf[512];
    bool first = true;
    for (const Event& e : events) {
        const double t0_us = util::ticks_to_wall(cal, e.t0) * 1e6;
        const double t1_us = util::ticks_to_wall(cal, e.t1) * 1e6;
        // Tool-side events (rank -1) get their own track.
        const int tid = e.rank >= 0 ? e.rank : 999;
        const char* name = e.name ? e.name : kind_name(static_cast<EventKind>(e.kind));
        const bool span = e.t1 != e.t0;
        if (!first) out += ',';
        first = false;
        if (span) {
            std::snprintf(buf, sizeof buf,
                          "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                          "\"pid\":0,\"tid\":%d,\"args\":{\"kind\":\"%s\",\"a\":%" PRId64
                          ",\"b\":%" PRId64 ",\"c\":%" PRId64 "}}",
                          name, t0_us, t1_us - t0_us, tid,
                          kind_name(static_cast<EventKind>(e.kind)), e.a, e.b, e.c);
        } else {
            std::snprintf(buf, sizeof buf,
                          "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,"
                          "\"pid\":0,\"tid\":%d,\"args\":{\"kind\":\"%s\",\"a\":%" PRId64
                          ",\"b\":%" PRId64 ",\"c\":%" PRId64 "}}",
                          name, t1_us, tid, kind_name(static_cast<EventKind>(e.kind)),
                          e.a, e.b, e.c);
        }
        out += buf;
    }
    out += "]}\n";
    return out;
}

}  // namespace m2p::trace
