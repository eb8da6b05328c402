// instrumented-run: wrong-way (2 ranks, MPICH), oned (2 ranks, LAM) and
// small-messages (4 ranks, LAM), each as a bare run (tool attached, no
// metric-focus pair) and an instrumented twin holding whole-program
// sync/IO/CPU and byte metrics from before launch to the end.  The
// difference is the per-call tool path with instrumentation held fixed.
#include <cstring>
#include <optional>

#include "common.hpp"
#include "core/metrics.hpp"
#include "core/session.hpp"
#include "mdl/ast.hpp"
#include "mdl/default_metrics.hpp"
#include "pperfmark/pperfmark.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace m2p;

struct Prog {
    const char* program;
    simmpi::Flavor flavor;
    int ranks;
    const char* cls;
    std::vector<const char*> byte_metrics;
};

const Prog kProgs[] = {
    {ppm::kWrongWay, simmpi::Flavor::Mpich, 2, "wrong-way/mpich",
     {"msg_bytes_sent", "msg_bytes_recv"}},
    // Two ranks, not four: with four rank threads plus the tool's own
    // threads on four cores, a descheduled rank stalls every fence and
    // the run time jumps between two modes (0.3 s and 1.5 s).
    {ppm::kOned, simmpi::Flavor::Lam, 2, "oned/lam", {"rma_put_bytes"}},
    {ppm::kSmallMessages, simmpi::Flavor::Lam, 4, "small-messages/lam",
     {"msg_bytes_sent", "msg_bytes_recv"}},
};
constexpr int kProgCount = sizeof kProgs / sizeof kProgs[0];

constexpr const char* kHeldMetrics[] = {"sync_wait_inclusive", "io_wait_inclusive", "cpu"};

bool is(const Prog& p, const char* program) { return std::strcmp(p.program, program) == 0; }

ppm::Params params_for(const Prog& p, bool smoke) {
    ppm::Params pp;
    if (is(p, ppm::kOned)) {
        pp.iterations = smoke ? 200 : 9000;
        pp.grid_n = 48;
    } else if (is(p, ppm::kWrongWay)) {
        pp.iterations = smoke ? 500 : 15000;
    } else {
        pp.iterations = smoke ? 2000 : 40000;
    }
    return pp;
}

/// PPerfMark truth for a held byte metric's whole-program total.
double truth(const Prog& p, const ppm::Params& pp, const std::string& metric) {
    if (metric == "rma_put_bytes")  // each rank puts one row up and one down
        return 2.0 * (p.ranks - 1) * pp.iterations * pp.grid_n * sizeof(double);
    const bool sent = metric == "msg_bytes_sent";
    if (is(p, ppm::kWrongWay)) {
        const ppm::MessageTruth t = ppm::wrong_way_truth(pp);
        return static_cast<double>(sent ? t.bytes_sent : t.bytes_received_at_server);
    }
    // small-messages: every client sends, only the server receives.
    const ppm::MessageTruth t = ppm::small_messages_truth(pp, p.ranks);
    return static_cast<double>(sent ? t.bytes_sent * (p.ranks - 1)
                                    : t.bytes_received_at_server);
}

}  // namespace

void run_instrumented(const Args& a, Tracer& tr, Result& r) {
    Rng rng(a.seed);
    const double eval_interval = core::PerformanceConsultant::Options{}.eval_interval;
    std::map<std::string, std::vector<double>> call_s;  // "<variant>/<fn>" -> seconds
    std::vector<double> launch_s;
    double unit_wall = 0.0, covered = 0.0;
    const double t_begin = now();
    for (int round = 0; round == 0 || (!a.smoke && now() - t_begin < a.seconds); ++round) {
        // The seed fixes the order of the runs within each round.
        std::vector<int> order(2 * kProgCount);
        for (int k = 0; k < 2 * kProgCount; ++k) order[k] = k;
        rng.shuffle(order);
        const bool spans = a.trace && round % 2 == 0;
        for (const int k : order) {
            const Prog& p = kProgs[k / 2];
            const bool instrumented = k % 2 == 1;
            const std::string cls =
                std::string(p.cls) + (instrumented ? "/instrumented" : "/bare");
            const ppm::Params pp = params_for(p, a.smoke);
            const int unit = r.start_unit();
            tr.begin_unit(2, spans);
            const double t0 = now();
            std::optional<core::Session> s;
            {
                Scoped sp(tr, kMainSlot, "core.session.ctor");
                s.emplace(p.flavor);
            }
            ppm::register_all(s->world(), pp);
            // Work around a discovery race in PerfTool::discover_comm: a
            // rank that finds a new tag can post its report before the
            // rank that found the communicator posts the parent's, and the
            // frontend then throws "resource parent missing" and ends the
            // process.  Registering the world communicator (handle 1 in a
            // fresh session) up front closes the window; without it one of
            // about 25 runs of this workload aborted.
            s->tool().hierarchy().add("/SyncObject/Message/comm_1",
                                      core::ResourceKind::Communicator);
            const auto before = read_pvars(s->world().pvars(), kTrafficPvars);
            const InitProbe probe(s->registry(), s->world().fids().MPI_Init);
            std::vector<std::pair<std::string, std::shared_ptr<core::MetricFocusPair>>> held;
            if (instrumented) {
                std::vector<std::string> names(std::begin(kHeldMetrics), std::end(kHeldMetrics));
                names.insert(names.end(), p.byte_metrics.begin(), p.byte_metrics.end());
                for (const std::string& m : names) {
                    Scoped sp(tr, kMainSlot, "core.metrics.request");
                    held.emplace_back(m, s->tool().metrics().request(m, core::Focus{}));
                }
            }
            std::optional<Poller> poll;
            if (spans)
                poll.emplace(eval_interval, [&] {
                    {
                        Scoped sp(tr, kPollerSlot, "pvar.snapshot");
                        s->world().pvars().snapshot();
                    }
                    for (const auto& [m, pair] : held) {
                        if (!pair) continue;
                        Scoped sp(tr, kPollerSlot, "core.histogram.total");
                        pair->total();
                    }
                });
            StallWatch watch(s->world().pvars());
            const double t_launch = now();
            core::RunOutcome out;
            {
                Scoped sp(tr, kMainSlot, "core.session.run");
                out = s->run(p.program, p.ranks);
            }
            const double t_end = now();
            const double stall = watch.stop();
            poll.reset();

            const std::string what = cls + ": ";
            check_stall(r, unit, what, stall);
            if (!out.ok()) r.fail(unit, what + "run did not complete");
            if (probe.exits() != p.ranks)
                r.fail(unit, what + std::to_string(probe.exits()) + " of " +
                                 std::to_string(p.ranks) + " ranks left MPI_Init");
            for (const auto& [m, pair] : held) {
                if (!pair) {
                    r.fail(unit, what + "request refused: " + m);
                    continue;
                }
                if (m.find("bytes") == std::string::npos) continue;
                const double want = truth(p, pp, m) + (a.plant ? 1.0 : 0.0);
                if (pair->total() != want)
                    r.fail(unit, what + m + " total " + std::to_string(pair->total()) +
                                     " != PPerfMark truth " + std::to_string(want));
            }
            r.add(cls, "setup_s", probe.last_exit() - t0);
            r.add(cls, instrumented ? "app_s" : "bare_s", t_end - t_launch);
            r.add(cls, spans ? "traced_run_s" : "untraced_run_s", t_end - t_launch);

            if (a.trace) {
                launch_s.push_back(probe.last_exit() - t_launch);
                const auto after = read_pvars(s->world().pvars(), kTrafficPvars);
                for (const std::string& n : kTrafficPvars) r.add(cls, n, after.at(n) - before.at(n));
                const std::vector<trace::Event> events = s->world().recorder()->snapshot();
                for (const char* fn : kCallSpanFns) {
                    std::vector<double>& v =
                        call_s[std::string(instrumented ? "instrumented/" : "bare/") + fn];
                    const std::vector<double> d = mpi_call_durations(events, fn);
                    v.insert(v.end(), d.begin(), d.end());
                }
                {
                    Scoped sp(tr, kMainSlot, "core.tool.flush");
                    s->tool().flush();
                }
                {
                    Scoped sp(tr, kMainSlot, "mdl.parse");
                    mdl::parse(mdl::default_metrics_source());
                }
            }
            for (const auto& [m, pair] : held) {
                Scoped sp(tr, kMainSlot, "core.metrics.release");
                s->tool().metrics().release(pair);
            }
            const double wall = now() - t0;
            const Tracer::Cover cov = tr.end_unit();
            if (spans) {
                unit_wall += wall;
                covered += cov.main;
            }
        }
    }

    const double app = r.class_median_sum("app_s");
    const double bare = r.class_median_sum("bare_s");
    r.e2e["setup_s"] = r.class_median_mean("setup_s");
    r.e2e["app_s"] = app;
    r.e2e["bare_s"] = bare;
    r.e2e["result_s"] = app;
    if (!a.trace) return;

    // Traffic counts are per fixed work: one instrumented run of each
    // program (the bare twins repeat the same MPI traffic).
    auto instrumented_sum = [&r](const std::string& key) {
        double s = 0.0;
        std::size_t n = 0;
        for (const auto& [cls, m] : r.samples) {
            if (cls.find("/instrumented") == std::string::npos) continue;
            const auto it = m.find(key);
            if (it == m.end()) continue;
            s += median(it->second);
            n += it->second.size();
        }
        return Layer{s, n, {}};
    };
    for (const std::string& n : kTrafficPvars) r.layer[n] = instrumented_sum(n);
    note_inexact(r, kExactPvars);
    double bare_snippets = 0.0;
    for (const auto& [cls, m] : r.samples)
        if (cls.find("/bare") != std::string::npos && m.count("instr.dispatch.snippets"))
            bare_snippets += median(m.at("instr.dispatch.snippets"));
    const double snippets = r.layer["instr.dispatch.snippets"].value - bare_snippets;
    r.layer["instr.snippet_ns"] =
        Layer{snippets > 0 ? (app - bare) / snippets * 1e9 : 0.0,
              r.layer["instr.dispatch.snippets"].n, {}};
    r.layer["tool.slowdown"] = Layer{bare > 0 ? app / bare : 0.0, 0, {}};
    layer_pct(r, "core.session.ctor_ms", tr.durations("core.session.ctor"), 50, 1e3);
    layer_pct(r, "mdl.parse_ms", tr.durations("mdl.parse"), 50, 1e3);
    layer_pct(r, "simmpi.launch_ms", launch_s, 50, 1e3);
    layer_pct(r, "core.metrics.request_us.p50", tr.durations("core.metrics.request"), 50, 1e6);
    layer_pct(r, "core.metrics.request_us.p90", tr.durations("core.metrics.request"), 90, 1e6);
    layer_pct(r, "core.metrics.release_us.p50", tr.durations("core.metrics.release"), 50, 1e6);
    layer_pct(r, "core.metrics.release_us.p90", tr.durations("core.metrics.release"), 90, 1e6);
    layer_pct(r, "core.histogram.total_us.p50", tr.durations("core.histogram.total"), 50, 1e6);
    layer_pct(r, "core.histogram.total_us.p90", tr.durations("core.histogram.total"), 90, 1e6);
    layer_pct(r, "core.tool.flush_ms", tr.durations("core.tool.flush"), 50, 1e3);
    layer_pct(r, "pvar.snapshot_us.p50", tr.durations("pvar.snapshot"), 50, 1e6);
    for (const char* fn : kCallSpanFns)
        for (const auto& [variant, prefix] :
             {std::pair{"instrumented/", "simmpi.call_us."},
              std::pair{"bare/", "simmpi.bare_call_us."}}) {
            const std::vector<double>& v = call_s[std::string(variant) + fn];
            layer_pct(r, std::string(prefix) + fn + ".p50", v, 50, 1e6);
            layer_pct(r, std::string(prefix) + fn + ".p99", v, 99, 1e6);
        }
    r.layer["bench.span_coverage"] = Layer{unit_wall > 0 ? covered / unit_wall : 0.0, 0, {}};
    trace_overhead(r, "run_s");

    const std::string no_pc = "instrumented-run runs no Performance Consultant";
    for (const char* m : {"core.consultant.waves", "core.consultant.wave_gap_ms.p50",
                          "core.consultant.true_ratio", "core.consultant.diag_experiments",
                          "pc.experiments.started",
                          "pc.experiments.tested_true", "pc.experiments.truncated"})
        unavailable(r, m, no_pc);
    mark_rank_spans_unavailable(r, "PPerfMark rank code is not the benchmark's own");
    unavailable(r, "simmpi.join_ms",
                "join_all runs inside Session::run; not separable from outside");
    unavailable(r, "trace.event_ns",
                "a Session's World config cannot switch the recorder off without "
                "naming the tool's engine config");
}

}  // namespace perfbench
