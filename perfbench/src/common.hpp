// Shared plumbing for the benchmark workloads: command-line options,
// the benchmark's own span tracer, per-unit result records, and small
// probes that observe the libraries through their public APIs only.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "instr/registry.hpp"
#include "pvar/registry.hpp"
#include "trace/flight_recorder.hpp"

namespace perfbench {

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;  ///< separate traced run: spans on, per-layer output
    bool smoke = false;  ///< tiny sizes, one round (the self-check)
    bool plant = false;  ///< plant a wrong expectation (the self-check)
};

/// Wall clock in seconds on util::wall_seconds()'s steady time base, so
/// benchmark stamps and converted flight-recorder ticks compare directly.
double now();

/// Deterministic generator for the workload inputs (splitmix64).
class Rng {
public:
    explicit Rng(std::uint64_t seed) : s_(seed) {}
    std::uint64_t next();
    /// Fisher-Yates shuffle of @p v.
    template <class T>
    void shuffle(std::vector<T>& v) {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[next() % i]);
    }

private:
    std::uint64_t s_;
};

// ---------------------------------------------------------------------------
// Spans.  Each slot has exactly one writer (the benchmark thread, the
// poller thread, or one simulated rank), so recording takes no lock.
// Slots are keyed by rank rather than by OS thread because fibers
// migrate between scheduler workers.
// ---------------------------------------------------------------------------

inline constexpr int kMainSlot = 0;
inline constexpr int kPollerSlot = 1;
inline int rank_slot(int global_rank) { return 2 + global_rank; }

struct Span {
    const char* name;
    double t0 = 0.0, t1 = 0.0;
    double child = 0.0;  ///< time covered by direct children
    int parent = -1;     ///< index in the same slot, -1 at top level
};

/// Per-name statistics folded from finished units.
struct SpanStats {
    std::vector<double> dur;  ///< seconds
    double self = 0.0;        ///< summed self time (duration minus children)
};

class Tracer {
public:
    /// Starts a unit with @p slots writer slots; @p active decides whether
    /// spans are recorded for it (traced runs alternate on and off).
    void begin_unit(int slots, bool active);
    bool active() const { return active_; }
    int open(int slot, const char* name);
    void close(int slot, int idx);
    /// Folds the unit's spans into the per-name statistics and returns
    /// the summed top-level span time of the main slot and of the rank
    /// slots, for coverage.
    struct Cover {
        double main = 0.0, ranks = 0.0;
    };
    Cover end_unit();

    const std::map<std::string, SpanStats>& stats() const { return stats_; }
    std::vector<double> durations(const std::string& name) const;
    /// The main-slot spans of the last unit (written to the trace file).
    const std::vector<Span>& last_main() const { return last_main_; }

private:
    struct alignas(64) Slot {  // padded: neighbouring ranks write in parallel
        std::vector<Span> spans;
        std::vector<int> open;
    };
    bool active_ = false;
    std::vector<Slot> slots_;
    std::map<std::string, SpanStats> stats_;
    std::vector<Span> last_main_;
};

/// RAII span; records nothing when the tracer is inactive.
class Scoped {
public:
    Scoped(Tracer& t, int slot, const char* name)
        : t_(t.active() ? &t : nullptr), slot_(slot) {
        if (t_) idx_ = t_->open(slot, name);
    }
    ~Scoped() {
        if (t_) t_->close(slot_, idx_);
    }
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;

private:
    Tracer* t_;
    int slot_;
    int idx_ = -1;
};

// ---------------------------------------------------------------------------
// Probes.
// ---------------------------------------------------------------------------

/// Records when each rank leaves MPI_Init, through a Return snippet on
/// the MPI_Init trampoline inserted with instr's public API.  The
/// snippet stays installed for the registry's life; its one execution
/// per rank counts in instr.dispatch.snippets.
class InitProbe {
public:
    InitProbe(m2p::instr::Registry& reg, m2p::instr::FuncId mpi_init);
    int exits() const { return st_->exits.load(); }
    double last_exit() const { return st_->last.load(); }

private:
    struct State {
        std::atomic<int> exits{0};
        std::atomic<double> last{0.0};
    };
    std::shared_ptr<State> st_;
};

/// Calls @p tick every @p interval seconds on its own thread until
/// destroyed (traced runs: pvar snapshots, histogram reads).
class Poller {
public:
    Poller(double interval, std::function<void()> tick);
    ~Poller();
    Poller(const Poller&) = delete;
    Poller& operator=(const Poller&) = delete;

private:
    std::mutex mu_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::thread th_;  ///< last: started after the state it uses
};

/// A unit's stall check.  Samples instr.dispatch.events -- bumped at the
/// entry and the return of every MPI call on every rank -- four times a
/// second on its own thread and keeps the longest stretch in which it
/// did not move.  A wait that runs into wait_deadline_seconds shows up
/// as a stretch that long.  CPU stolen from a shared host slows every
/// call but stops none, so unlike a bound on the unit's whole wall time
/// this check does not trip on a slow host.
class StallWatch {
public:
    explicit StallWatch(m2p::pvar::Registry& reg);
    /// Stops sampling; returns the longest stretch (seconds) in which no
    /// MPI call began or ended.
    double stop();

private:
    std::uint64_t last_ = 0;
    double since_ = 0.0, longest_ = 0.0;
    std::optional<Poller> poll_;  ///< last: started after the state it uses
};

/// No unit may go this long (seconds) without an MPI call beginning or
/// ending: well under wait_deadline_seconds (30 s), and far above any
/// pause a loaded host imposes on a running unit.
inline constexpr double kStallBound = 10.0;

/// Samples the process's OS thread count from /proc/self/status for the
/// whole run and keeps the peak.
class ThreadPeak {
public:
    ThreadPeak();
    ~ThreadPeak();
    ThreadPeak(const ThreadPeak&) = delete;
    ThreadPeak& operator=(const ThreadPeak&) = delete;
    int peak() const { return peak_.load(); }

private:
    std::atomic<int> peak_{0};
    std::atomic<bool> stop_{false};
    std::thread th_;
};

/// Reads the named pvars now (0 for names the registry does not hold).
std::map<std::string, double> read_pvars(m2p::pvar::Registry& reg,
                                         const std::vector<std::string>& names);

/// Durations (seconds) of the recorder's call spans of MPI function @p fn.
std::vector<double> mpi_call_durations(const std::vector<m2p::trace::Event>& events,
                                       const char* fn);

// ---------------------------------------------------------------------------
// Results.
// ---------------------------------------------------------------------------

/// Median of @p v (an even count averages the middle pair); 0 when empty.
double median(std::vector<double> v);
/// Nearest-rank percentile @p p (0..100) of @p v; 0 when empty.
double percentile(std::vector<double> v, double p);

/// One per-layer metric: its value, the sample count behind it, and
/// (when the workload does not exercise the layer) why it is absent.
struct Layer {
    double value = 0.0;
    std::size_t n = 0;
    std::string unavailable;
};

/// Everything one workload run reports.  Unit classes (program x flavor,
/// bare/instrumented, trace variants) keep their own samples so the
/// end-to-end figures can be medians per class, averaged over classes.
struct Result {
    int attempted = 0;
    int failed = 0;
    std::vector<std::string> failures;
    std::vector<std::string> notes;
    std::map<std::string, double> e2e;
    std::map<std::string, Layer> layer;
    std::map<std::string, std::map<std::string, std::vector<double>>> samples;

    /// Starts a unit; returns its ordinal for messages.
    int start_unit() { return ++attempted; }
    /// Records a failed check for the current unit (counted once per unit).
    void fail(int unit, const std::string& what);
    void add(const std::string& cls, const std::string& key, double v) {
        samples[cls][key].push_back(v);
    }
    /// Mean over classes of each class's median of @p key (classes
    /// without samples are skipped).
    double class_median_mean(const std::string& key) const;
    /// Sum over classes of each class's median of @p key.
    double class_median_sum(const std::string& key) const;

private:
    int last_failed_unit_ = 0;
};

/// Fails @p unit when @p stall, its longest stretch without an MPI call
/// beginning or ending (StallWatch::stop), reached kStallBound.
void check_stall(Result& r, int unit, const std::string& what, double stall);
/// Adds a note for each of @p keys whose samples differ within a class:
/// traffic counts of fixed work should repeat exactly.
void note_inexact(Result& r, const std::vector<std::string>& keys);
/// Marks a per-layer metric as not exercised by this workload.
void unavailable(Result& r, const std::string& name, const std::string& why);
/// Sets per-layer metric @p name to the @p pct percentile of @p secs,
/// times @p scale (seconds to ms or us).
void layer_pct(Result& r, const std::string& name, const std::vector<double>& secs,
               double pct, double scale);

/// The span statistics and the last unit's main-slot spans, written to
/// @p path as JSON (the traced run's trace file).
void write_trace_file(const std::string& path, const Tracer& t);

/// Renders @p r as the JSON document run.py reads.
std::string render_json(const Args& a, const Result& r, int thread_peak);

}  // namespace perfbench
