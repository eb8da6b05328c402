// perfbench: runs one workload for a fixed time and prints its results
// as one JSON document on stdout (run.py turns it into the report).
//
//   perfbench --workload pc-diagnose|instrumented-run|raw-256 --seed N
//             --seconds S --trace 0|1 [--smoke] [--plant] [--trace-file PATH]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "util/clock.hpp"
#include "workloads.hpp"

namespace perfbench {

void trace_overhead(Result& r, const std::string& key) {
    const double on = r.class_median_mean("traced_" + key);
    const double off = r.class_median_mean("untraced_" + key);
    if (on > 0 && off > 0)
        r.layer["bench.trace_overhead_ms"] = Layer{(on - off) * 1e3, 0, {}};
    else
        unavailable(r, "bench.trace_overhead_ms", "needs traced and untraced units");
}

void mark_call_spans_unavailable(Result& r, const std::string& why) {
    for (const char* fn : kCallSpanFns)
        for (const char* prefix : {"simmpi.call_us.", "simmpi.bare_call_us."})
            for (const char* p : {".p50", ".p99"})
                unavailable(r, std::string(prefix) + fn + p, why);
}

void mark_rank_spans_unavailable(Result& r, const std::string& why) {
    for (const char* s : kRankSpans)
        for (const char* p : {".p50", ".p99"})
            unavailable(r, std::string("simmpi.") + s + "_us" + p, why);
}

}  // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    Args a;
    std::string trace_file;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        const char* v = i + 1 < argc ? argv[i + 1] : "";
        if (k == "--workload") a.workload = v, ++i;
        else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10), ++i;
        else if (k == "--seconds") a.seconds = std::atof(v), ++i;
        else if (k == "--trace") a.trace = std::atoi(v) != 0, ++i;
        else if (k == "--trace-file") trace_file = v, ++i;
        else if (k == "--smoke") a.smoke = true;
        else if (k == "--plant") a.plant = true;
        else {
            std::fprintf(stderr, "perfbench: unknown argument %s\n", k.c_str());
            return 2;
        }
    }
    void (*run)(const Args&, Tracer&, Result&) = nullptr;
    if (a.workload == "pc-diagnose") run = run_pc_diagnose;
    else if (a.workload == "instrumented-run") run = run_instrumented;
    else if (a.workload == "raw-256") run = run_raw256;
    if (!run) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n", a.workload.c_str());
        return 2;
    }
    // Anchor the tick calibration before any timed work (the first call
    // spins briefly).
    m2p::util::calibrate_ticks();
    try {
        const ThreadPeak threads;
        Tracer tr;
        Result r;
        run(a, tr, r);
        if (a.trace && !trace_file.empty()) write_trace_file(trace_file, tr);
        std::fputs(render_json(a, r, threads.peak()).c_str(), stdout);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 3;
    }
    return 0;
}
