// Fast-path ablation: per-event dispatch cost and multi-thread scaling
// of the instrumentation substrate (the tool-perturbation knob the
// paper's whole evaluation methodology depends on -- section 5's
// known-bottleneck validation only works if the tool stays cheap).
//
// Measures the lock-free registry's entry+return dispatch cost at
// 1/4/16 threads, for uninstrumented functions (the overwhelmingly
// common case: one load and branch) and functions carrying one counter
// snippet.  The speedups over the locked design it replaced are
// recorded in EXPERIMENTS.md.
// The tracing ablation at the end guards the flight recorder's "always
// on" claim: a 2-rank eager streaming exchange (64 B messages, ~1 us of
// compute per message) through a traced and an untraced World on one
// scheduler worker, graded on the median of 31 paired traced/untraced
// ns-per-event ratios (CI runs it with --smoke and fails the build past
// 10% overhead).
#include "bench_common.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstring>
#include <thread>

#include "instr/registry.hpp"
#include "simmpi/launcher.hpp"
#include "simmpi/rank.hpp"
#include "simmpi/world.hpp"

namespace {

using namespace m2p;

/// One entry+return guard.
void fire_guard(instr::Registry& reg, instr::FuncId f) {
    instr::CallContext ctx;
    ctx.func = f;
    reg.dispatch(f, instr::Where::Entry, ctx);
    reg.dispatch(f, instr::Where::Return, ctx);
}

/// One timed run: @p guards_total entry+return pairs split across
/// @p nthreads; returns cost per event (two events per guard) in ns.
double run_once_ns_per_event(instr::Registry& reg, instr::FuncId f, int nthreads,
                             long guards_total) {
    const long per_thread = guards_total / nthreads;
    std::barrier sync(nthreads + 1);
    std::vector<std::thread> ts;
    ts.reserve(nthreads);
    for (int i = 0; i < nthreads; ++i)
        ts.emplace_back([&] {
            sync.arrive_and_wait();
            for (long n = 0; n < per_thread; ++n) fire_guard(reg, f);
        });
    sync.arrive_and_wait();
    const auto t0 = std::chrono::steady_clock::now();
    for (auto& t : ts) t.join();
    const auto t1 = std::chrono::steady_clock::now();
    const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
    return ns / (2.0 * static_cast<double>(per_thread) *
                 static_cast<double>(nthreads));
}

struct Config {
    int threads;
    bool instrumented;
    long guards;
};

/// ~1 us of integer hashing standing in for the compute phase between
/// messages -- PPerfMark's small-messages shape, still far more
/// communication-bound than the paper's actual workloads.  Two reasons
/// it matters: (a) a zero-compute stream is a producer/consumer latency
/// race whose condvar handoffs are bistable -- a ~15 ns perturbation
/// (one rdtsc) at the wrong point flips every rendezvous from the spin
/// path to a parked futex wait, and the "overhead" measured is the
/// scheduler cliff, not the tracing cost; (b) the recorder's floor is
/// two rdtsc stamps (~30 ns on this class of host) per user call, so
/// the overhead *ratio* is only meaningful against a workload that does
/// any work at all between calls.  The absolute recording cost is
/// ~9 ns per dispatch event either way; see EXPERIMENTS.md.
inline void message_compute(std::uint64_t& acc) {
    for (int i = 0; i < 1024; ++i)
        acc = acc * 2654435761u + static_cast<std::uint64_t>(i);
}

/// One 2-rank eager streaming exchange, tracing on or off; returns ns
/// per dispatch event (the registry's own event counter, so both
/// variants are normalized by identical work).  The flight-recorder
/// cost rides on real MPI calls here -- grading raw ring pushes against
/// a bare dispatch would compare a memcpy against a load-and-branch.
/// Streaming (sender runs ahead inside the mailbox's 64 KiB eager
/// window) rather than strict ping-pong: the buffering absorbs
/// scheduling jitter, so the delta between the two variants is the
/// recording path and not condvar-park weather.  Both ranks share one
/// scheduler worker: with one worker per CPU, where the OS happens to
/// place the two workers moves the untraced run by more than the
/// recorder costs.
double stream_ns_per_event(bool traced, long iters) {
    instr::Registry reg;
    simmpi::World::Config cfg;
    cfg.trace_enabled = traced;
    cfg.sched_workers = 1;
    simmpi::World world(reg, cfg);
    world.register_program(
        "stream", [iters](simmpi::Rank& r, const std::vector<std::string>&) {
            r.MPI_Init();
            const simmpi::Comm w = r.MPI_COMM_WORLD();
            int me = 0;
            r.MPI_Comm_rank(w, &me);
            char buf[64] = {};
            std::uint64_t acc = 0;
            for (long i = 0; i < iters; ++i) {
                if (me == 0) {
                    message_compute(acc);
                    r.MPI_Send(buf, sizeof buf, simmpi::MPI_BYTE, 1, 1, w);
                } else {
                    r.MPI_Recv(buf, sizeof buf, simmpi::MPI_BYTE, 0, 1, w, nullptr);
                    message_compute(acc);
                }
            }
            buf[0] = static_cast<char>(acc & 0x7f);  // keep the compute live
            r.MPI_Finalize();
        });
    simmpi::LaunchPlan plan;
    plan.placements = {"node0", "node0"};
    const auto t0 = std::chrono::steady_clock::now();
    simmpi::launch(world, "stream", {}, plan);
    world.join_all();
    const auto t1 = std::chrono::steady_clock::now();
    const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
    const std::uint64_t events = reg.stats().events;
    return events ? ns / static_cast<double>(events) : 0.0;
}

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void tracing_ablation(bench::Grader& g, bench::JsonEmitter& json, long iters,
                      int pairs) {
    stream_ns_per_event(false, iters / 4);  // warm-up: first-touch, allocator
    // Paired runs, the order alternating so neither variant always runs
    // second; the gate is the median of the per-pair ratios, which one
    // lucky or unlucky run cannot move (a best-of-N per side can).
    std::vector<double> off, on, ratio;
    for (int p = 0; p < pairs; ++p) {
        double off_ns = 0.0, on_ns = 0.0;
        if (p % 2 == 0) {
            off_ns = stream_ns_per_event(false, iters);
            on_ns = stream_ns_per_event(true, iters);
        } else {
            on_ns = stream_ns_per_event(true, iters);
            off_ns = stream_ns_per_event(false, iters);
        }
        off.push_back(off_ns);
        on.push_back(on_ns);
        ratio.push_back(off_ns > 0.0 ? on_ns / off_ns : 1.0);
    }
    const auto [lo, hi] = std::minmax_element(ratio.begin(), ratio.end());
    const double overhead_pct = (median(ratio) - 1.0) * 100.0;
    std::printf("\ntracing ablation (2-rank eager stream on one worker, %ld msgs, "
                "median of %d pairs):\n"
                "  traced off %.1f ns/event, traced on %.1f ns/event (%+.1f%%; "
                "pair ratios %.3f..%.3f)\n",
                iters, pairs, median(off), median(on), overhead_pct, *lo, *hi);
    json.record("stream_untraced_ns_per_event", median(off), "ns");
    json.record("stream_traced_ns_per_event", median(on), "ns");
    json.record("tracing_overhead_pct", overhead_pct, "%");
    g.check("flight-recorder overhead <= 10% per dispatch event (median pair ratio)",
            overhead_pct <= 10.0);
}

}  // namespace

int main(int argc, char** argv) {
    // --smoke: the CI gate -- skip the thread-scaling table, run only
    // the tracing ablation (the part this build must not regress).
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;

    bench::header("Ablation: dispatch fast path",
                  "per-event cost of the lock-free registry, tracing on and off");
    bench::Grader g;
    bench::JsonEmitter json("dispatch_fastpath");

    const Config configs[] = {
        {1, false, 400000}, {4, false, 400000}, {16, false, 320000},
        {1, true, 200000},  {4, true, 200000},  {16, true, 160000},
    };
    if (smoke) {
        tracing_ablation(g, json, /*iters=*/20000, /*pairs=*/31);
        json.write_file();
        std::printf("\nDispatch fast-path smoke: %d failures\n", g.failures());
        return g.exit_code();
    }

    util::TextTable t({"threads", "snippets", "ns/event"});
    for (const Config& c : configs) {
        instr::Registry reg;
        const instr::FuncId f = reg.register_function("f", "m", 0);
        // A second, uninstrumented function keeps the table non-trivial
        // (dispatch must resolve among entries).
        reg.register_function("g", "m", 0);
        std::atomic<std::uint64_t> sunk{0};
        if (c.instrumented)
            reg.insert(f, instr::Where::Entry, [&sunk](const instr::CallContext&) {
                sunk.fetch_add(1, std::memory_order_relaxed);
            });

        // Best of 5: the clock speed and scheduling weather of a shared
        // host change second to second.
        double ns = 1e30;
        for (int rep = 0; rep < 5; ++rep)
            ns = std::min(ns, run_once_ns_per_event(reg, f, c.threads, c.guards));

        const std::string label = std::to_string(c.threads) + "t_" +
                                  (c.instrumented ? "instrumented" : "uninstrumented");
        t.add_row({std::to_string(c.threads), c.instrumented ? "1" : "0",
                   util::fmt(ns, 1)});
        json.record("lockfree_" + label + "_ns_per_event", ns, "ns");
    }
    std::printf("%s", t.render().c_str());

    // Stats sharding must still aggregate exactly: one registry, known
    // event count across threads.
    {
        instr::Registry reg;
        const instr::FuncId f = reg.register_function("f", "m", 0);
        constexpr int kThreads = 8;
        constexpr long kGuards = 20000;
        std::vector<std::thread> ts;
        for (int i = 0; i < kThreads; ++i)
            ts.emplace_back([&] {
                for (long n = 0; n < kGuards; ++n) fire_guard(reg, f);
            });
        for (auto& t2 : ts) t2.join();
        const instr::DispatchStats s = reg.stats();
        g.check("sharded stats aggregate exactly (8 threads x 20k guards)",
                s.events == 2ULL * kThreads * kGuards);
        json.record("sharded_stats_events", static_cast<double>(s.events), "events");
    }

    tracing_ablation(g, json, /*iters=*/20000, /*pairs=*/31);

    json.write_file();
    std::printf("\nDispatch fast-path ablation: %d failures\n", g.failures());
    return g.exit_code();
}
