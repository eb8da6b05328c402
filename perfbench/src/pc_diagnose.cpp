// pc-diagnose: PPerfMark oned (4 ranks, LAM and MPICH) under
// Session::run_with_consultant with default options.  The user waits
// for the Performance Consultant's diagnosis; this workload times it
// and checks that it is the right one.
#include <algorithm>
#include <deque>
#include <optional>

#include "common.hpp"
#include "core/metrics.hpp"
#include "core/session.hpp"
#include "mdl/ast.hpp"
#include "mdl/default_metrics.hpp"
#include "pperfmark/pperfmark.hpp"
#include "util/clock.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace m2p;

constexpr int kRanks = 4;
constexpr const char* kSync = "ExcessiveSyncWaitingTime";

/// One session class: oned on one flavor.  The expected finding is
/// ExcessiveSyncWaitingTime -> exchng1 -> MPI_Win_fence (PMPI_Win_fence
/// on MPICH's weak-symbol build), graded as Fig 22 grades it.
struct Combo {
    simmpi::Flavor flavor;
    const char* cls;
    /// About 5.3 s of application work under the tool.  The finding
    /// holds about 0.75 s in and the leaf 1.0-1.5 s in.  When the sync
    /// root first tests false (the ranks are still starting), the
    /// consultant retests it only after the CPUBound subtree has drained,
    /// and the finding lands about 2.8 s in; the rest is margin for that
    /// (sessions of 3.5 s occasionally ended before it).
    int iterations;
};

/// small-messages is not a session class: on four cores its expected leaf
/// (Gsend_message -> MPI_Send) measures 0.15-0.19 against the 0.2
/// threshold, so whether it is diagnosed at all is a coin toss.  Its incast
/// runs in instrumented-run instead.
constexpr Combo kCombos[] = {
    {simmpi::Flavor::Lam, "oned/lam", 78000},
    {simmpi::Flavor::Mpich, "oned/mpich", 150000},
};

ppm::Params params_for(const Combo& c) {
    ppm::Params p;
    p.iterations = c.iterations;
    p.grid_n = 48;
    return p;
}

/// Fig 22's grade: sync waiting in MPI_Win_fence inside exchng1, plus a
/// Barrier finding on LAM (fence over MPI_Barrier) and none on MPICH.
std::string grade(const Combo& c, const core::PCReport& rep) {
    if (!rep.found(kSync, "Win_fence") || !rep.found(kSync, "exchng1"))
        return "Fig 22: no sync waiting in MPI_Win_fence inside exchng1";
    const bool barrier =
        rep.found(kSync, "/SyncObject/Barrier") || rep.found(kSync, "MPI_Barrier");
    if (c.flavor == simmpi::Flavor::Lam && !barrier)
        return "Fig 22: LAM's fence-over-barrier left no Barrier finding";
    if (c.flavor == simmpi::Flavor::Mpich && barrier)
        return "Fig 22: MPICH's internal fence shows a Barrier finding";
    return {};
}

/// The leaf the drill-down ends in: ExcessiveSyncWaitingTime on
/// exchng1 -> MPI_Win_fence, with the other axes whole.
bool is_leaf(const core::PCNode& n) {
    const core::Focus& f = n.focus;
    return n.hypothesis == kSync && f.syncobj == "/SyncObject" && f.process == "/Process" &&
           f.machine == "/Machine" &&
           (f.code == "/Code/pperfmark/exchng1/MPI_Win_fence" ||
            f.code == "/Code/pperfmark/exchng1/PMPI_Win_fence");
}

/// The consultant's own focus-depth measure (segments below each axis).
int focus_depth(const core::Focus& f) {
    auto seg = [](const std::string& p) {
        return static_cast<int>(std::count(p.begin(), p.end(), '/')) - 1;
    };
    return seg(f.code) + seg(f.syncobj) + seg(f.process) + seg(f.machine);
}

/// One batch of experiments as the flight recorder saw it: the
/// ExperimentStart events (hypothesis, focus depth) in batch order, then
/// the ExperimentStop events (tested_true) in the same order.
struct Wave {
    std::vector<trace::Event> starts, stops;
};

std::vector<Wave> waves_of(const std::vector<trace::Event>& events) {
    std::vector<Wave> out;
    for (const trace::Event& e : events) {
        if (e.kind == static_cast<std::uint32_t>(trace::EventKind::ExperimentStart)) {
            if (out.empty() || !out.back().stops.empty()) out.emplace_back();
            out.back().starts.push_back(e);
        } else if (e.kind == static_cast<std::uint32_t>(trace::EventKind::ExperimentStop) &&
                   !out.empty()) {
            out.back().stops.push_back(e);
        }
    }
    return out;
}

/// One recorded experiment, named by the replay below.
struct Experiment {
    const core::PCNode* node;
    bool verdict;
    std::uint64_t stop;  ///< tick stamp of its ExperimentStop
    int started;         ///< experiments started up to and including its wave
};

/// Names every experiment the flight recorder saw.  The recorder's
/// events carry only (hypothesis, focus depth, verdict), so the final
/// report supplies the foci: replaying the consultant's search loop --
/// FIFO frontier, batches of max_batch, children queued after a TRUE
/// verdict, false nodes under TRUE parents retested whenever the
/// frontier runs dry -- over the report tree, with each verdict taken
/// from the recorder, yields the node of every recorded experiment, and
/// each must match the replay's (hypothesis, depth).  A node's children
/// are all queued at its first TRUE verdict (the resources they name
/// exist by then in oned).  Returns an empty string on success.
std::string replay(const core::PCReport& rep, const std::vector<Wave>& waves,
                   std::vector<Experiment>& out) {
    struct State {
        bool tested = false, verdict = false;
        std::size_t queued = 0;  ///< children queued so far
    };
    std::map<const core::PCNode*, State> st;
    const int max_batch = core::PerformanceConsultant::Options{}.max_batch;
    std::deque<const core::PCNode*> frontier;
    for (const auto& root : rep.roots) frontier.push_back(root.get());
    int started = 0;
    for (std::size_t w = 0; w < waves.size();) {
        if (frontier.empty()) {
            std::deque<std::pair<const core::PCNode*, bool>> q;
            for (const auto& root : rep.roots) q.emplace_back(root.get(), true);
            while (!q.empty()) {
                const auto [n, parent_true] = q.front();
                q.pop_front();
                const State& s = st[n];
                if (parent_true && s.tested && !s.verdict) frontier.push_back(n);
                for (std::size_t k = 0; k < s.queued; ++k)
                    q.emplace_back(n->children[k].get(), s.verdict);
            }
            if (frontier.empty()) return "recorder has experiments the replay cannot place";
        }
        // Untested nodes had their request refused: they use a batch
        // slot but record no experiment.
        std::vector<const core::PCNode*> tested;
        for (int i = 0; i < max_batch && !frontier.empty(); ++i) {
            if (frontier.front()->tested) tested.push_back(frontier.front());
            frontier.pop_front();
        }
        if (tested.empty()) continue;
        const Wave& wave = waves[w];
        if (wave.starts.size() != tested.size() || wave.stops.size() != tested.size())
            return "wave " + std::to_string(w) + ": replay has " +
                   std::to_string(tested.size()) + " experiments, recorder " +
                   std::to_string(wave.starts.size());
        started += static_cast<int>(tested.size());
        for (std::size_t i = 0; i < tested.size(); ++i) {
            const core::PCNode& n = *tested[i];
            if (!wave.starts[i].name || n.hypothesis != wave.starts[i].name ||
                wave.starts[i].a != focus_depth(n.focus))
                return "wave " + std::to_string(w) + ": experiment " + std::to_string(i) +
                       " does not match " + n.focus.to_string();
            State& s = st[&n];
            s.tested = true;
            s.verdict = wave.stops[i].a == 1;
            out.push_back({&n, s.verdict, wave.stops[i].t1, started});
        }
        for (const core::PCNode* n : tested) {
            State& s = st[n];
            if (!s.verdict) continue;
            for (; s.queued < n->children.size(); ++s.queued)
                frontier.push_back(n->children[s.queued].get());
        }
        ++w;
    }
    return {};
}

/// The first experiment after which Fig 22's finding holds -- TRUE sync
/// verdicts on a focus naming @p fn and on one naming @p call, matched as
/// PCReport::found matches -- or null when it never does.
const Experiment* finding(const std::vector<Experiment>& exps, const char* fn,
                          const char* call) {
    bool seen_fn = false, seen_call = false;
    for (const Experiment& e : exps) {
        if (!e.verdict || e.node->hypothesis != kSync) continue;
        const std::string f = e.node->focus.to_string();
        seen_fn = seen_fn || f.find(fn) != std::string::npos;
        seen_call = seen_call || f.find(call) != std::string::npos;
        if (seen_fn && seen_call) return &e;
    }
    return nullptr;
}

const char* metric_of(const std::string& hypothesis) {
    if (hypothesis == kSync) return "sync_wait_inclusive";
    if (hypothesis == "ExcessiveIOBlockingTime") return "io_wait_inclusive";
    return "cpu";
}

/// Re-requests and releases every (metric, focus) the search tested, on
/// the session's tool after the search (traced run only).
void replay_requests(core::PerfTool& tool, const core::PCReport& rep, Tracer& tr) {
    std::deque<const core::PCNode*> q;
    for (const auto& root : rep.roots) q.push_back(root.get());
    while (!q.empty()) {
        const core::PCNode* n = q.front();
        q.pop_front();
        for (const auto& ch : n->children) q.push_back(ch.get());
        if (!n->tested) continue;
        std::shared_ptr<core::MetricFocusPair> pair;
        {
            Scoped sp(tr, kMainSlot, "core.metrics.request");
            pair = tool.metrics().request(metric_of(n->hypothesis), n->focus);
        }
        if (!pair) continue;
        Scoped sp(tr, kMainSlot, "core.metrics.release");
        tool.metrics().release(pair);
    }
}

const std::vector<std::string> kPvars = [] {
    std::vector<std::string> v = kTrafficPvars;
    v.insert(v.end(), {"pc.experiments.started", "pc.experiments.tested_true",
                       "pc.experiments.truncated"});
    return v;
}();

/// Set-up probes per class and round.  A session yields one set-up
/// sample in about 5 s, and the median of three of them moved by up to
/// 38% from run to run.
constexpr int kSetupProbes = 8;

/// Measures one more set-up exactly as a session's -- Session
/// construction until every rank has left MPI_Init, with the consultant
/// starting its first wave meanwhile -- on a one-iteration oned.  The
/// probe is a unit checked like a session except for the diagnosis,
/// which needs the full run.
void setup_probe(const Combo& c, Result& r) {
    const int unit = r.start_unit();
    const double t0 = now();
    core::Session s(c.flavor);
    ppm::Params p = params_for(c);
    p.iterations = 1;
    // A session's set-up steps, in order, down to its pvar read.
    ppm::register_all(s.world(), p);
    read_pvars(s.world().pvars(), kPvars);
    const InitProbe probe(s.registry(), s.world().fids().MPI_Init);
    StallWatch watch(s.world().pvars());
    const core::PCReport rep =
        s.run_with_consultant(ppm::kOned, kRanks, core::PerformanceConsultant::Options{});
    const std::string what = std::string(c.cls) + " set-up probe: ";
    check_stall(r, unit, what, watch.stop());
    if (!rep.outcome.ok()) r.fail(unit, what + "run did not complete");
    if (probe.exits() != kRanks)
        r.fail(unit, what + std::to_string(probe.exits()) + " of " + std::to_string(kRanks) +
                         " ranks left MPI_Init");
    r.add(c.cls, "setup_s", probe.last_exit() - t0);
}

}  // namespace

void run_pc_diagnose(const Args& a, Tracer& tr, Result& r) {
    Rng rng(a.seed);
    const double eval_interval = core::PerformanceConsultant::Options{}.eval_interval;
    std::map<std::string, std::vector<double>> per_session;  // layer samples
    std::vector<double> gaps;
    double unit_wall = 0.0, covered = 0.0;
    const double t_begin = now();
    for (int round = 0; round == 0 || (!a.smoke && now() - t_begin < a.seconds); ++round) {
        // The seed fixes the session order within each round.
        std::vector<int> order = {0, 1};
        rng.shuffle(order);
        const bool spans = a.trace && round % 2 == 0;
        for (const int ci : order) {
            const Combo& c = kCombos[ci];
            for (int k = 0; k < kSetupProbes; ++k) setup_probe(c, r);
            const int unit = r.start_unit();
            tr.begin_unit(2, spans);
            const double t0 = now();
            std::optional<core::Session> s;
            {
                Scoped sp(tr, kMainSlot, "core.session.ctor");
                s.emplace(c.flavor);
            }
            ppm::register_all(s->world(), params_for(c));
            const auto before = read_pvars(s->world().pvars(), kPvars);
            const InitProbe probe(s->registry(), s->world().fids().MPI_Init);
            std::optional<Poller> poll;
            if (spans)
                poll.emplace(eval_interval, [&] {
                    Scoped sp(tr, kPollerSlot, "pvar.snapshot");
                    s->world().pvars().snapshot();
                });
            StallWatch watch(s->world().pvars());
            const double t_launch = now();
            core::PCReport rep;
            {
                Scoped sp(tr, kMainSlot, "core.session.run_with_consultant");
                rep = s->run_with_consultant(ppm::kOned, kRanks,
                                             core::PerformanceConsultant::Options{});
            }
            const double t_end = now();
            const double stall = watch.stop();
            poll.reset();

            const std::string what = std::string(c.cls) + ": ";
            check_stall(r, unit, what, stall);
            if (!rep.outcome.ok()) r.fail(unit, what + "run did not complete");
            if (const std::string g = grade(c, rep); !g.empty()) r.fail(unit, what + g);
            if (probe.exits() != kRanks)
                r.fail(unit, what + std::to_string(probe.exits()) + " of " +
                                 std::to_string(kRanks) + " ranks left MPI_Init");
            const std::vector<trace::Event> events = s->world().recorder()->snapshot();
            const util::TickCalibration cal = util::calibrate_ticks();
            const std::vector<Wave> waves = waves_of(events);
            std::vector<Experiment> exps;
            if (const std::string err = replay(rep, waves, exps); !err.empty())
                r.fail(unit, what + err);
            // The planted expectation names a call oned never makes.
            const Experiment* found =
                finding(exps, "exchng1", a.plant ? "Win_lock" : "Win_fence");
            if (!found) {
                r.fail(unit, what + "the recorded experiments never establish the finding");
            } else {
                r.add(c.cls, "diag_s", util::ticks_to_wall(cal, found->stop) - t_launch);
                r.add(c.cls, "diag_experiments", found->started);
            }
            for (const Experiment& e : exps)
                if (e.verdict && is_leaf(*e.node)) {
                    r.add(c.cls, "diag_leaf_s", util::ticks_to_wall(cal, e.stop) - t_launch);
                    break;
                }
            r.add(c.cls, "setup_s", probe.last_exit() - t0);
            r.add(c.cls, "session_s", t_end - t_launch);
            r.add(c.cls, spans ? "traced_session_s" : "untraced_session_s", t_end - t_launch);

            if (a.trace) {
                per_session["launch_s"].push_back(probe.last_exit() - t_launch);
                per_session["waves"].push_back(static_cast<double>(waves.size()));
                for (std::size_t w = 1; w < waves.size(); ++w)
                    if (!waves[w - 1].stops.empty())
                        gaps.push_back((static_cast<double>(waves[w].starts.front().t1) -
                                        static_cast<double>(waves[w - 1].stops.back().t1)) *
                                       cal.seconds_per_tick);
                const auto after = read_pvars(s->world().pvars(), kPvars);
                for (const std::string& n : kPvars)
                    per_session[n].push_back(after.at(n) - before.at(n));
                {
                    Scoped sp(tr, kMainSlot, "core.tool.flush");
                    s->tool().flush();
                }
                {
                    Scoped sp(tr, kMainSlot, "mdl.parse");
                    mdl::parse(mdl::default_metrics_source());
                }
                replay_requests(s->tool(), rep, tr);
            }
            const double wall = now() - t0;
            const Tracer::Cover cov = tr.end_unit();
            if (spans) {
                unit_wall += wall;
                covered += cov.main;
            }
        }
    }

    r.e2e["setup_s"] = r.class_median_mean("setup_s");
    r.e2e["diag_s"] = r.class_median_mean("diag_s");
    r.e2e["diag_leaf_s"] = r.class_median_mean("diag_leaf_s");
    r.e2e["diag_experiments"] = r.class_median_mean("diag_experiments");
    r.e2e["session_s"] = r.class_median_mean("session_s");
    r.e2e["result_s"] = r.e2e["diag_s"];
    if (!a.trace) return;

    auto mean = [](const std::vector<double>& v) {
        double s = 0.0;
        for (double x : v) s += x;
        return v.empty() ? 0.0 : s / static_cast<double>(v.size());
    };
    const std::size_t n = per_session["waves"].size();
    layer_pct(r, "core.session.ctor_ms", tr.durations("core.session.ctor"), 50, 1e3);
    layer_pct(r, "mdl.parse_ms", tr.durations("mdl.parse"), 50, 1e3);
    layer_pct(r, "simmpi.launch_ms", per_session["launch_s"], 50, 1e3);
    layer_pct(r, "core.metrics.request_us.p50", tr.durations("core.metrics.request"), 50, 1e6);
    layer_pct(r, "core.metrics.request_us.p90", tr.durations("core.metrics.request"), 90, 1e6);
    layer_pct(r, "core.metrics.release_us.p50", tr.durations("core.metrics.release"), 50, 1e6);
    layer_pct(r, "core.metrics.release_us.p90", tr.durations("core.metrics.release"), 90, 1e6);
    layer_pct(r, "core.consultant.waves", per_session["waves"], 50, 1.0);
    layer_pct(r, "core.consultant.wave_gap_ms.p50", gaps, 50, 1e3);
    layer_pct(r, "core.tool.flush_ms", tr.durations("core.tool.flush"), 50, 1e3);
    layer_pct(r, "pvar.snapshot_us.p50", tr.durations("pvar.snapshot"), 50, 1e6);
    // pvar deltas are per-session means (the pvar names are the metric names).
    for (const std::string& pv : kPvars) r.layer[pv] = Layer{mean(per_session[pv]), n, {}};
    const double started = mean(per_session["pc.experiments.started"]);
    r.layer["core.consultant.true_ratio"] =
        Layer{started > 0 ? mean(per_session["pc.experiments.tested_true"]) / started : 0.0,
              n, {}};
    r.layer["core.consultant.diag_experiments"] =
        Layer{r.class_median_mean("diag_experiments"), n, {}};
    r.layer["bench.span_coverage"] = Layer{unit_wall > 0 ? covered / unit_wall : 0.0, n, {}};
    trace_overhead(r, "session_s");

    const std::string tool_only = "pc-diagnose holds no metric-focus pair of its own";
    unavailable(r, "core.histogram.total_us.p50", tool_only);
    unavailable(r, "core.histogram.total_us.p90", tool_only);
    const std::string twin = "needs the bare twin run of instrumented-run";
    unavailable(r, "instr.snippet_ns", twin);
    unavailable(r, "tool.slowdown", twin);
    mark_call_spans_unavailable(r, "the MpiCall span breakdown is taken on instrumented-run");
    mark_rank_spans_unavailable(r, "PPerfMark rank code is not the benchmark's own");
    unavailable(r, "simmpi.join_ms",
                "join_all runs inside Session::run_with_consultant; not separable from outside");
    unavailable(r, "trace.event_ns",
                "a Session's World config cannot switch the recorder off without "
                "naming the tool's engine config");
}

}  // namespace perfbench
