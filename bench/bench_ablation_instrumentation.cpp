// Ablation: the cost model behind dynamic instrumentation (the paper's
// core premise -- "its use of dynamic instrumentation can dramatically
// decrease the amount of data that must be collected ... instructions
// only need to be inserted in code sections where a performance
// problem is suspected").
//
// google-benchmark microbenchmarks of the instrumentation substrate:
//   - dispatch with 0 snippets (the always-paid trampoline cost),
//   - dispatch with 1 / 4 MDL-compiled snippets,
//   - dispatch after snippets were deleted (cost returns to baseline),
//   - snippet insert/remove cost,
//   - a timer pair plus a byte counter fired by 1 and 4 ranks at once,
//   - a full MPI_Send round through simmpi with and without a metric.
#include <benchmark/benchmark.h>

#include "instr/registry.hpp"
#include "mdl/ast.hpp"
#include "mdl/eval.hpp"
#include "simmpi/launcher.hpp"
#include "simmpi/rank.hpp"

namespace {

using namespace m2p;

struct NullServices final : mdl::Services {
    std::int64_t type_size(std::int64_t dt) const override { return dt; }
    std::int64_t window_unique_id(std::int64_t h) const override { return h; }
    std::int64_t comm_unique_id(std::int64_t h) const override { return h; }
};

void BM_DispatchNoSnippets(benchmark::State& state) {
    instr::Registry reg;
    const instr::FuncId f = reg.register_function("f", "m", 0);
    for (auto _ : state) {
        instr::FunctionGuard g(reg, f);
        benchmark::DoNotOptimize(&g);
    }
}
BENCHMARK(BM_DispatchNoSnippets);

void BM_DispatchCounterSnippets(benchmark::State& state) {
    instr::Registry reg;
    const instr::FuncId f = reg.register_function("f", "m", 0);
    const mdl::MdlFile file = mdl::parse(R"(
metric m { name "m"; base is counter {
  foreach func in s { append preinsn func.entry (* m++; *) } } }
)");
    auto services = std::make_shared<NullServices>();
    double sunk = 0;
    std::vector<mdl::CompiledMetric> cms;
    for (int i = 0; i < state.range(0); ++i) {
        cms.push_back(mdl::compile_metric(
            reg, file.metrics[0], {}, services,
            [&](const std::string&) { return std::vector<instr::FuncId>{f}; },
            [&](double, double d) { sunk += d; }));
    }
    for (auto _ : state) {
        instr::FunctionGuard g(reg, f);
        benchmark::DoNotOptimize(&g);
    }
    benchmark::DoNotOptimize(sunk);
    for (auto& cm : cms) mdl::uninstall(reg, cm);
}
BENCHMARK(BM_DispatchCounterSnippets)->Arg(1)->Arg(4);

void BM_DispatchAfterDelete(benchmark::State& state) {
    // Deleted instrumentation must cost the same as none -- this is
    // the whole point of insert/delete at run time.
    instr::Registry reg;
    const instr::FuncId f = reg.register_function("f", "m", 0);
    int hits = 0;
    const instr::SnippetHandle h =
        reg.insert(f, instr::Where::Entry, [&](const instr::CallContext&) { ++hits; });
    reg.remove(h);
    for (auto _ : state) {
        instr::FunctionGuard g(reg, f);
        benchmark::DoNotOptimize(&g);
    }
    benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_DispatchAfterDelete);

void BM_InsertRemoveSnippet(benchmark::State& state) {
    instr::Registry reg;
    const instr::FuncId f = reg.register_function("f", "m", 0);
    for (auto _ : state) {
        const instr::SnippetHandle h =
            reg.insert(f, instr::Where::Entry, [](const instr::CallContext&) {});
        reg.remove(h);
    }
}
BENCHMARK(BM_InsertRemoveSnippet);

void BM_TimerSnippetPair(benchmark::State& state) {
    instr::Registry reg;
    const instr::FuncId f = reg.register_function("f", "m", 0);
    const mdl::MdlFile file = mdl::parse(R"(
metric t { name "t"; base is walltimer {
  foreach func in s {
    append preinsn func.entry (* startWallTimer(t); *)
    prepend preinsn func.return (* stopWallTimer(t); *) } } }
)");
    auto services = std::make_shared<NullServices>();
    double sunk = 0;
    auto cm = mdl::compile_metric(
        reg, file.metrics[0], {}, services,
        [&](const std::string&) { return std::vector<instr::FuncId>{f}; },
        [&](double, double d) { sunk += d; });
    for (auto _ : state) {
        instr::FunctionGuard g(reg, f);
        benchmark::DoNotOptimize(&g);
    }
    benchmark::DoNotOptimize(sunk);
    mdl::uninstall(reg, cm);
}
BENCHMARK(BM_TimerSnippetPair);

/// The timer pair plus a byte counter with a scratch variable, on one
/// function, fired from one and from four threads that are each their
/// own rank.  Every rank fires the same two metrics, so any state the
/// metrics share between ranks serializes the threads.  No-op sinks
/// keep the histogram out of the measurement.
void BM_TimerSnippetPairPerRank(benchmark::State& state) {
    struct Shared {
        instr::Registry reg;
        instr::FuncId f = reg.register_function("f", "m", 0);
        std::vector<mdl::CompiledMetric> cms;
    };
    static std::unique_ptr<Shared> shared;
    if (state.thread_index() == 0) {
        // Thread 0 sets up; the benchmark's start barrier publishes it.
        static const mdl::MdlFile file = mdl::parse(R"(
metric t { name "t"; base is walltimer {
  foreach func in s {
    append preinsn func.entry (* startWallTimer(t); *)
    prepend preinsn func.return (* stopWallTimer(t); *) } } }
metric b { name "b"; counter bytes; base is counter {
  foreach func in s { append preinsn func.entry
    (* MPI_Type_size($arg[2], &bytes); b += bytes * $arg[1]; *) } } }
)");
        shared = std::make_unique<Shared>();
        auto services = std::make_shared<NullServices>();
        for (const auto& m : file.metrics)
            shared->cms.push_back(mdl::compile_metric(
                shared->reg, m, {}, services,
                [f = shared->f](const std::string&) { return std::vector<instr::FuncId>{f}; },
                [](double, double) {}));
    }
    instr::set_current_rank(state.thread_index());
    const std::int64_t args[] = {0, state.range(0), 8};
    for (auto _ : state) {
        instr::FunctionGuard g(shared->reg, shared->f, args);
        benchmark::DoNotOptimize(&g);
    }
    instr::set_current_rank(-1);
    if (state.thread_index() == 0) {
        // The stop barrier has every thread out of its loop.
        for (auto& cm : shared->cms) mdl::uninstall(shared->reg, cm);
        shared.reset();
    }
}
BENCHMARK(BM_TimerSnippetPairPerRank)->Arg(16)->Threads(1)->Threads(4);

/// Full message round trip through simmpi (rank 0 -> rank 1 -> rank 0),
/// with optional metric instrumentation on the PMPI send path.
void BM_PingPong(benchmark::State& state) {
    const bool instrumented = state.range(0) != 0;
    instr::Registry reg;
    simmpi::World world(reg, {});
    std::atomic<bool> stop{false};
    world.register_program("echo", [&](simmpi::Rank& r,
                                       const std::vector<std::string>&) {
        r.MPI_Init();
        char b = 0;
        while (true) {
            simmpi::Status st;
            r.MPI_Recv(&b, 1, simmpi::MPI_BYTE, 0, simmpi::MPI_ANY_TAG,
                       r.MPI_COMM_WORLD(), &st);
            if (st.MPI_TAG == 1) break;
            r.MPI_Send(&b, 1, simmpi::MPI_BYTE, 0, 0, r.MPI_COMM_WORLD());
        }
        r.MPI_Finalize();
    });
    simmpi::LaunchPlan plan;
    plan.placements = {"node0", "node0"};
    // Rank 0 is driven by the benchmark thread itself via a handle.
    world.register_program("driver", [&](simmpi::Rank& r,
                                         const std::vector<std::string>&) {
        r.MPI_Init();
        char b = 0;
        while (!stop.load()) {
            r.MPI_Send(&b, 1, simmpi::MPI_BYTE, 1, 0, r.MPI_COMM_WORLD());
            r.MPI_Recv(&b, 1, simmpi::MPI_BYTE, 1, 0, r.MPI_COMM_WORLD(), nullptr);
        }
        r.MPI_Send(&b, 1, simmpi::MPI_BYTE, 1, 1, r.MPI_COMM_WORLD());  // stop echo
        r.MPI_Finalize();
    });

    mdl::CompiledMetric cm;
    double sunk = 0;
    if (instrumented) {
        static const mdl::MdlFile file = mdl::parse(R"(
metric b { name "b"; counter bytes; base is counter {
  foreach func in s { append preinsn func.entry
    (* MPI_Type_size($arg[2], &bytes); b += bytes * $arg[1]; *) } } }
)");
        auto services = std::make_shared<NullServices>();
        cm = mdl::compile_metric(
            reg, file.metrics[0], {}, services,
            [&](const std::string&) {
                return std::vector<instr::FuncId>{reg.find("PMPI_Send"),
                                                  reg.find("PMPI_Recv")};
            },
            [&](double, double d) { sunk += d; });
    }

    // Drive the ping-pong from this thread by measuring a fixed batch
    // per iteration inside the driver; simplest: run both ranks and
    // time the whole exchange loop.
    std::atomic<long> rounds{0};
    world.register_program("bench-driver", [&](simmpi::Rank& r,
                                               const std::vector<std::string>&) {
        r.MPI_Init();
        char b = 0;
        while (!stop.load()) {
            r.MPI_Send(&b, 1, simmpi::MPI_BYTE, 1, 0, r.MPI_COMM_WORLD());
            r.MPI_Recv(&b, 1, simmpi::MPI_BYTE, 1, 0, r.MPI_COMM_WORLD(), nullptr);
            rounds.fetch_add(1, std::memory_order_relaxed);
        }
        r.MPI_Send(&b, 1, simmpi::MPI_BYTE, 1, 1, r.MPI_COMM_WORLD());
        r.MPI_Finalize();
    });
    const int d = world.create_proc("node0", "bench-driver");
    const int e = world.create_proc("node0", "echo");
    const simmpi::Comm cw = world.create_comm({d, e});
    world.set_proc_comm_world(d, cw);
    world.set_proc_comm_world(e, cw);
    world.start_proc(d, {});
    world.start_proc(e, {});

    long last = 0;
    for (auto _ : state) {
        // One benchmark iteration = observe 1000 new round trips.
        const long target = last + 1000;
        while (rounds.load(std::memory_order_relaxed) < target)
            std::this_thread::yield();
        last = target;
    }
    state.SetItemsProcessed(last * 2);  // messages
    stop = true;
    world.join_all();
    if (instrumented) mdl::uninstall(reg, cm);
    benchmark::DoNotOptimize(sunk);
}
BENCHMARK(BM_PingPong)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
