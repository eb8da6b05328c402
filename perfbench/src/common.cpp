#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/clock.hpp"

namespace perfbench {

double now() { return m2p::util::wall_seconds(); }

std::uint64_t Rng::next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

void Tracer::begin_unit(int slots, bool active) {
    active_ = active;
    slots_.assign(static_cast<std::size_t>(active ? slots : 0), Slot{});
}

int Tracer::open(int slot, const char* name) {
    Slot& s = slots_[static_cast<std::size_t>(slot)];
    const int idx = static_cast<int>(s.spans.size());
    s.spans.push_back({name, now(), 0.0, 0.0, s.open.empty() ? -1 : s.open.back()});
    s.open.push_back(idx);
    return idx;
}

void Tracer::close(int slot, int idx) {
    Slot& s = slots_[static_cast<std::size_t>(slot)];
    Span& sp = s.spans[static_cast<std::size_t>(idx)];
    sp.t1 = now();
    s.open.pop_back();
    if (sp.parent >= 0) s.spans[static_cast<std::size_t>(sp.parent)].child += sp.t1 - sp.t0;
}

Tracer::Cover Tracer::end_unit() {
    Cover c;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        for (const Span& sp : slots_[i].spans) {
            const double d = sp.t1 - sp.t0;
            SpanStats& st = stats_[sp.name];
            st.dur.push_back(d);
            st.self += d - sp.child;
            if (sp.parent >= 0) continue;
            if (i == kMainSlot) c.main += d;
            if (i >= 2) c.ranks += d;
        }
    }
    if (active_ && !slots_.empty()) last_main_ = slots_[kMainSlot].spans;
    slots_.clear();
    active_ = false;
    return c;
}

std::vector<double> Tracer::durations(const std::string& name) const {
    const auto it = stats_.find(name);
    return it == stats_.end() ? std::vector<double>{} : it->second.dur;
}

// ---------------------------------------------------------------------------
// Probes
// ---------------------------------------------------------------------------

InitProbe::InitProbe(m2p::instr::Registry& reg, m2p::instr::FuncId mpi_init)
    : st_(std::make_shared<State>()) {
    reg.insert(mpi_init, m2p::instr::Where::Return,
               [st = st_](const m2p::instr::CallContext&) {
                   const double t = now();
                   double prev = st->last.load();
                   while (prev < t && !st->last.compare_exchange_weak(prev, t)) {
                   }
                   st->exits.fetch_add(1);
               });
}

Poller::Poller(double interval, std::function<void()> tick)
    : th_([this, interval, tick = std::move(tick)] {
          std::unique_lock lk(mu_);
          while (!cv_.wait_for(lk, std::chrono::duration<double>(interval),
                               [this] { return stop_; })) {
              lk.unlock();
              tick();
              lk.lock();
          }
      }) {}

Poller::~Poller() {
    {
        std::lock_guard lk(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    th_.join();
}

StallWatch::StallWatch(m2p::pvar::Registry& reg) : since_(now()) {
    const m2p::pvar::VarId id = reg.find("instr.dispatch.events");
    if (id == m2p::pvar::kInvalidVar)
        throw std::runtime_error("pvar instr.dispatch.events is not registered");
    last_ = reg.read(id);
    poll_.emplace(0.25, [this, &reg, id] {
        const std::uint64_t v = reg.read(id);
        const double t = now();
        if (v != last_) {
            last_ = v;
            since_ = t;
        } else {
            longest_ = std::max(longest_, t - since_);
        }
    });
}

double StallWatch::stop() {
    poll_.reset();
    return longest_;
}

namespace {
int current_threads() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
    return 0;
}
}  // namespace

ThreadPeak::ThreadPeak()
    : th_([this] {
          while (!stop_.load()) {
              peak_.store(std::max(peak_.load(), current_threads()));
              std::this_thread::sleep_for(std::chrono::milliseconds(20));
          }
      }) {}

ThreadPeak::~ThreadPeak() {
    stop_.store(true);
    th_.join();
}

std::map<std::string, double> read_pvars(m2p::pvar::Registry& reg,
                                         const std::vector<std::string>& names) {
    std::map<std::string, double> out;
    for (const std::string& n : names) {
        const m2p::pvar::VarId id = reg.find(n);
        out[n] = id == m2p::pvar::kInvalidVar ? 0.0 : static_cast<double>(reg.read(id));
    }
    return out;
}

std::vector<double> mpi_call_durations(const std::vector<m2p::trace::Event>& events,
                                       const char* fn) {
    const double spt = m2p::util::calibrate_ticks().seconds_per_tick;
    std::vector<double> out;
    // A call span keeps the kind of a payload its data plane folded into
    // it (Pt2ptSend, ...), so match on the function name -- but skip the
    // instant events (t0 == t1) the RMA plane stamps with the sync call's
    // name.
    for (const m2p::trace::Event& e : events)
        if (e.rank >= 0 && e.t1 > e.t0 && e.name && std::string_view(e.name) == fn)
            out.push_back(static_cast<double>(e.t1 - e.t0) * spt);
    return out;
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t h = v.size() / 2;
    return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * v.size()));
    return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

void Result::fail(int unit, const std::string& what) {
    failures.push_back("unit " + std::to_string(unit) + ": " + what);
    if (unit != last_failed_unit_) {
        ++failed;
        last_failed_unit_ = unit;
    }
}

double Result::class_median_mean(const std::string& key) const {
    double sum = 0.0;
    int n = 0;
    for (const auto& [cls, m] : samples) {
        const auto it = m.find(key);
        if (it == m.end() || it->second.empty()) continue;
        sum += median(it->second);
        ++n;
    }
    return n ? sum / n : 0.0;
}

double Result::class_median_sum(const std::string& key) const {
    double sum = 0.0;
    for (const auto& [cls, m] : samples) {
        const auto it = m.find(key);
        if (it != m.end() && !it->second.empty()) sum += median(it->second);
    }
    return sum;
}

void check_stall(Result& r, int unit, const std::string& what, double stall) {
    if (stall >= kStallBound)
        r.fail(unit, what + "no MPI call began or ended for " + std::to_string(stall) +
                         " s, over the " + std::to_string(kStallBound) + " s stall bound");
}

void note_inexact(Result& r, const std::vector<std::string>& keys) {
    for (const std::string& key : keys)
        for (const auto& [cls, m] : r.samples) {
            const auto it = m.find(key);
            if (it == m.end() || it->second.empty()) continue;
            const auto [lo, hi] = std::minmax_element(it->second.begin(), it->second.end());
            if (*lo != *hi) r.notes.push_back(key + " varied between " + cls + " units");
        }
}

void unavailable(Result& r, const std::string& name, const std::string& why) {
    r.layer[name] = Layer{0.0, 0, why};
}

void layer_pct(Result& r, const std::string& name, const std::vector<double>& secs,
               double pct, double scale) {
    r.layer[name] = Layer{percentile(secs, pct) * scale, secs.size(), {}};
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

namespace {

std::string jstr(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string jnum(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

}  // namespace

void write_trace_file(const std::string& path, const Tracer& t) {
    std::ostringstream os;
    os << "{\"spans\":{";
    bool first = true;
    for (const auto& [name, st] : t.stats()) {
        double total = 0.0;
        for (double d : st.dur) total += d;
        os << (first ? "" : ",") << jstr(name) << ":{\"n\":" << st.dur.size()
           << ",\"total_s\":" << jnum(total) << ",\"self_s\":" << jnum(st.self)
           << ",\"p50_us\":" << jnum(percentile(st.dur, 50) * 1e6)
           << ",\"p90_us\":" << jnum(percentile(st.dur, 90) * 1e6)
           << ",\"p99_us\":" << jnum(percentile(st.dur, 99) * 1e6) << "}";
        first = false;
    }
    os << "},\"last_unit_main_spans\":[";
    const std::vector<Span>& m = t.last_main();
    for (std::size_t i = 0; i < m.size(); ++i)
        os << (i ? "," : "") << "{\"name\":" << jstr(m[i].name)
           << ",\"start_s\":" << jnum(m[i].t0) << ",\"end_s\":" << jnum(m[i].t1)
           << ",\"parent\":" << m[i].parent << "}";
    os << "]}\n";
    std::ofstream(path) << os.str();
}

std::string render_json(const Args& a, const Result& r, int thread_peak) {
    std::ostringstream os;
    os << "{\"workload\":" << jstr(a.workload) << ",\"seed\":" << a.seed
       << ",\"seconds\":" << jnum(a.seconds) << ",\"trace\":" << (a.trace ? 1 : 0)
       << ",\"smoke\":" << (a.smoke ? "true" : "false")
       << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
       << ",\"build_type\":" << jstr(PERFBENCH_BUILD_TYPE)
       << ",\"compiler\":" << jstr(PERFBENCH_COMPILER)
       << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
       << ",\"peak_os_threads\":" << thread_peak << ",\"failures\":[";
    for (std::size_t i = 0; i < r.failures.size(); ++i)
        os << (i ? "," : "") << jstr(r.failures[i]);
    os << "],\"notes\":[";
    for (std::size_t i = 0; i < r.notes.size(); ++i)
        os << (i ? "," : "") << jstr(r.notes[i]);
    os << "],\"e2e\":{";
    bool first = true;
    for (const auto& [k, v] : r.e2e) {
        os << (first ? "" : ",") << jstr(k) << ":" << jnum(v);
        first = false;
    }
    os << "},\"per_layer\":{";
    first = true;
    for (const auto& [k, l] : r.layer) {
        os << (first ? "" : ",") << jstr(k) << ":{\"value\":" << jnum(l.value)
           << ",\"n\":" << l.n;
        if (!l.unavailable.empty()) os << ",\"unavailable\":" << jstr(l.unavailable);
        os << "}";
        first = false;
    }
    os << "},\"samples\":{";
    first = true;
    for (const auto& [cls, m] : r.samples) {
        os << (first ? "" : ",") << jstr(cls) << ":{";
        bool f2 = true;
        for (const auto& [k, v] : m) {
            os << (f2 ? "" : ",") << jstr(k) << ":[";
            for (std::size_t i = 0; i < v.size(); ++i) os << (i ? "," : "") << jnum(v[i]);
            os << "]";
            f2 = false;
        }
        os << "}";
        first = false;
    }
    os << "}}\n";
    return os.str();
}

}  // namespace perfbench
