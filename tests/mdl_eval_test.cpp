// MDL compilation/evaluation semantics, independent of the tool:
// counters, timers, constraints, $arg access, runtime-service calls,
// nesting, gates, and uninstall.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <thread>

#include "instr/registry.hpp"
#include "mdl/ast.hpp"
#include "mdl/eval.hpp"
#include "util/clock.hpp"

namespace m2p::mdl {
namespace {

class FakeServices : public Services {
public:
    std::int64_t type_size(std::int64_t dt) const override { return dt * 4; }
    std::int64_t window_unique_id(std::int64_t h) const override { return h + 100; }
    std::int64_t comm_unique_id(std::int64_t h) const override { return h; }
};

struct EvalFixture {
    instr::Registry reg;
    instr::FuncId fa, fb;
    std::shared_ptr<FakeServices> services = std::make_shared<FakeServices>();
    MdlFile file;
    // The sink runs on every thread that hits an instrumented point
    // (MetricSink's contract), so it serializes its own appends.
    std::mutex sunk_mu;
    std::vector<std::pair<double, double>> sunk;  // (now, delta)

    EvalFixture() {
        fa = reg.register_function("fa", "m", 0);
        fb = reg.register_function("fb", "m", 0);
    }

    FuncSetResolver resolver() {
        return [this](const std::string& set) -> std::vector<instr::FuncId> {
            if (set == "set_a") return {fa};
            if (set == "set_b") return {fb};
            if (set == "set_ab") return {fa, fb};
            return {};
        };
    }

    MetricSink sink() {
        return [this](double now, double delta) {
            std::lock_guard lk(sunk_mu);
            sunk.emplace_back(now, delta);
        };
    }

    double total() {
        std::lock_guard lk(sunk_mu);
        double t = 0;
        for (const auto& [n, d] : sunk) t += d;
        return t;
    }
};

TEST(MdlEval, CounterIncrementFeedsSink) {
    EvalFixture fx;
    fx.file = parse(R"(
metric m { name "m"; base is counter {
  foreach func in set_a { append preinsn func.entry constrained (* m++; *) } } }
)");
    CompiledMetric cm = compile_metric(fx.reg, fx.file.metrics[0], {}, fx.services,
                                       fx.resolver(), fx.sink());
    for (int i = 0; i < 5; ++i) instr::FunctionGuard g(fx.reg, fx.fa);
    EXPECT_DOUBLE_EQ(fx.total(), 5.0);
    uninstall(fx.reg, cm);
    { instr::FunctionGuard g(fx.reg, fx.fa); }
    EXPECT_DOUBLE_EQ(fx.total(), 5.0);  // removed: no more counting
}

TEST(MdlEval, ByteArithmeticWithTypeSizeAndArgs) {
    EvalFixture fx;
    fx.file = parse(R"(
metric bytes_m { name "bytes_m"; counter bytes; counter count;
  base is counter { foreach func in set_a {
    append preinsn func.entry (* MPI_Type_size($arg[2], &bytes);
                                 count = $arg[1];
                                 bytes_m += bytes * count; *) } } }
)");
    CompiledMetric cm = compile_metric(fx.reg, fx.file.metrics[0], {}, fx.services,
                                       fx.resolver(), fx.sink());
    const std::int64_t args[] = {0, 7, 2};  // count=7, dtype=2 -> size 8
    { instr::FunctionGuard g(fx.reg, fx.fa, args); }
    EXPECT_DOUBLE_EQ(fx.total(), 56.0);
    uninstall(fx.reg, cm);
}

TEST(MdlEval, WallTimerMeasuresElapsed) {
    EvalFixture fx;
    fx.file = parse(R"(
metric t { name "t"; unitstype normalized; base is walltimer {
  foreach func in set_a {
    append preinsn func.entry (* startWallTimer(t); *)
    prepend preinsn func.return (* stopWallTimer(t); *) } } }
)");
    CompiledMetric cm = compile_metric(fx.reg, fx.file.metrics[0], {}, fx.services,
                                       fx.resolver(), fx.sink());
    {
        instr::FunctionGuard g(fx.reg, fx.fa);
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
    EXPECT_GT(fx.total(), 0.025);
    EXPECT_LT(fx.total(), 0.2);
    uninstall(fx.reg, cm);
}

TEST(MdlEval, TimerInstalledWhileItsFunctionRunsHotStillReports) {
    // A pair goes in while another thread calls the timed function in a
    // tight loop.  A call that fires the new entry snippet must find the
    // return snippet already in place: otherwise the timer stays nested
    // for the pair's whole life and every later call reports nothing.
    // The timed set is wide, as mpi_sync_calls is, so fa's entry and
    // return insertions lie many insertions apart.
    EvalFixture fx;
    std::vector<instr::FuncId> wide = {fx.fa};
    for (int i = 0; i < 63; ++i)
        wide.push_back(fx.reg.register_function("w" + std::to_string(i), "m", 0));
    const FuncSetResolver resolver = [&](const std::string&) { return wide; };
    fx.file = parse(R"(
metric t { name "t"; base is walltimer {
  foreach func in set_wide {
    append preinsn func.entry (* startWallTimer(t); *)
    prepend preinsn func.return (* stopWallTimer(t); *) } } }
)");
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> calls{0};
    std::thread caller([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            { instr::FunctionGuard g(fx.reg, fx.fa); }
            calls.fetch_add(1, std::memory_order_release);
        }
    });
    int silent = 0;
    for (int cycle = 0; cycle < 200; ++cycle) {
        auto reports = std::make_shared<std::atomic<int>>(0);
        CompiledMetric cm = compile_metric(
            fx.reg, fx.file.metrics[0], {}, fx.services, resolver,
            [reports](double, double) { reports->fetch_add(1); });
        // The second call counted from here began after every snippet
        // was in place, so it must report.
        const std::uint64_t c0 = calls.load(std::memory_order_acquire);
        while (calls.load(std::memory_order_acquire) < c0 + 2) std::this_thread::yield();
        uninstall(fx.reg, cm);
        if (reports->load() == 0) ++silent;
    }
    stop.store(true);
    caller.join();
    EXPECT_EQ(silent, 0) << "pairs whose timer never reported, of 200";
}

TEST(MdlEval, NestedTimerAccruesOnce) {
    // fa calls fb; both are in the timed set: the timer must not
    // double count (Paradyn timers nest).
    EvalFixture fx;
    fx.file = parse(R"(
metric t { name "t"; base is walltimer {
  foreach func in set_ab {
    append preinsn func.entry (* startWallTimer(t); *)
    prepend preinsn func.return (* stopWallTimer(t); *) } } }
)");
    CompiledMetric cm = compile_metric(fx.reg, fx.file.metrics[0], {}, fx.services,
                                       fx.resolver(), fx.sink());
    {
        instr::FunctionGuard outer(fx.reg, fx.fa);
        {
            instr::FunctionGuard inner(fx.reg, fx.fb);
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_GT(fx.total(), 0.035);
    EXPECT_LT(fx.total(), 0.08);  // ~40ms once, not 60ms
    ASSERT_EQ(fx.sunk.size(), 1u);
    uninstall(fx.reg, cm);
}

TEST(MdlEval, ProcTimerMeasuresCpuNotSleep) {
    EvalFixture fx;
    fx.file = parse(R"(
metric t { name "t"; base is proctimer {
  foreach func in set_a {
    append preinsn func.entry (* startProcTimer(t); *)
    prepend preinsn func.return (* stopProcTimer(t); *) } } }
)");
    CompiledMetric cm = compile_metric(fx.reg, fx.file.metrics[0], {}, fx.services,
                                       fx.resolver(), fx.sink());
    {
        instr::FunctionGuard g(fx.reg, fx.fa);
        std::this_thread::sleep_for(std::chrono::milliseconds(40));  // no CPU
        util::burn_thread_cpu(0.02);
    }
    EXPECT_GT(fx.total(), 0.015);
    EXPECT_LT(fx.total(), 0.04);  // sleep excluded
    uninstall(fx.reg, cm);
}

TEST(MdlEval, ConstraintGatesConstrainedCode) {
    EvalFixture fx;
    fx.file = parse(R"(
constraint win_c /SyncObject/Window is counter {
  foreach func in set_a {
    prepend preinsn func.entry
      (* if (DYNINSTWindow_FindUniqueId($arg[0]) == $constraint[0]) win_c = 1; *)
    append preinsn func.return (* win_c = 0; *)
  }
}
metric ops { name "ops"; constraint win_c; base is counter {
  foreach func in set_a { append preinsn func.entry constrained (* ops++; *) } } }
)");
    // Focus on window uid 103 => handle 3 matches (FakeServices: h+100).
    ConstraintBinding b{fx.file.find_constraint("win_c"), {103}, {}};
    CompiledMetric cm = compile_metric(fx.reg, fx.file.metrics[0], {b}, fx.services,
                                       fx.resolver(), fx.sink());
    const std::int64_t match[] = {3};
    const std::int64_t other[] = {4};
    { instr::FunctionGuard g(fx.reg, fx.fa, match); }
    { instr::FunctionGuard g(fx.reg, fx.fa, other); }
    { instr::FunctionGuard g(fx.reg, fx.fa, match); }
    EXPECT_DOUBLE_EQ(fx.total(), 2.0);
    uninstall(fx.reg, cm);
}

TEST(MdlEval, ConstraintFlagsNestAcrossCalls) {
    // Module-style constraint on fa; metric counts inside fb.  A
    // nested fa (fa -> fa -> fb) must keep the flag set until the
    // outermost return.
    EvalFixture fx;
    fx.file = parse(R"(
constraint mod_c /Code is counter {
  foreach func in focus_module {
    prepend preinsn func.entry (* mod_c = 1; *)
    append preinsn func.return (* mod_c = 0; *)
  }
}
metric ops { name "ops"; constraint mod_c; base is counter {
  foreach func in set_b { append preinsn func.entry constrained (* ops++; *) } } }
)");
    ConstraintBinding b{fx.file.find_constraint("mod_c"), {}, {{"focus_module", {fx.fa}}}};
    CompiledMetric cm = compile_metric(fx.reg, fx.file.metrics[0], {b}, fx.services,
                                       fx.resolver(), fx.sink());
    {
        instr::FunctionGuard g1(fx.reg, fx.fa);
        {
            instr::FunctionGuard g2(fx.reg, fx.fa);  // nested
        }
        instr::FunctionGuard g3(fx.reg, fx.fb);  // still inside fa: counted
    }
    { instr::FunctionGuard g(fx.reg, fx.fb); }  // outside fa: not counted
    EXPECT_DOUBLE_EQ(fx.total(), 1.0);
    uninstall(fx.reg, cm);
}

TEST(MdlEval, MultipleConstraintsAllMustHold) {
    EvalFixture fx;
    fx.file = parse(R"(
constraint c1 /Code is counter {
  foreach func in focus_procedure {
    prepend preinsn func.entry (* c1 = 1; *)
    append preinsn func.return (* c1 = 0; *) } }
metric ops { name "ops"; constraint c1; base is counter {
  foreach func in set_b { append preinsn func.entry constrained (* ops++; *) } } }
)");
    // Bind the same constraint twice to different functions: fb only
    // counts when inside BOTH fa and fb (i.e., never for a bare fb).
    ConstraintBinding b1{fx.file.find_constraint("c1"), {}, {{"focus_procedure", {fx.fa}}}};
    ConstraintBinding b2{fx.file.find_constraint("c1"), {}, {{"focus_procedure", {fx.fb}}}};
    CompiledMetric cm = compile_metric(fx.reg, fx.file.metrics[0], {b1, b2},
                                       fx.services, fx.resolver(), fx.sink());
    { instr::FunctionGuard g(fx.reg, fx.fb); }  // not inside fa
    EXPECT_DOUBLE_EQ(fx.total(), 0.0);
    {
        instr::FunctionGuard g1(fx.reg, fx.fa);
        instr::FunctionGuard g2(fx.reg, fx.fb);
    }
    EXPECT_DOUBLE_EQ(fx.total(), 1.0);
    uninstall(fx.reg, cm);
}

TEST(MdlEval, EventGateFiltersByRank) {
    EvalFixture fx;
    fx.file = parse(R"(
metric ops { name "ops"; base is counter {
  foreach func in set_a { append preinsn func.entry (* ops++; *) } } }
)");
    EventGate gate = [](const instr::CallContext& c) { return c.rank == 2; };
    CompiledMetric cm = compile_metric(fx.reg, fx.file.metrics[0], {}, fx.services,
                                       fx.resolver(), fx.sink(), gate);
    instr::set_current_rank(1);
    { instr::FunctionGuard g(fx.reg, fx.fa); }
    instr::set_current_rank(2);
    { instr::FunctionGuard g(fx.reg, fx.fa); }
    instr::set_current_rank(-1);
    EXPECT_DOUBLE_EQ(fx.total(), 1.0);
    uninstall(fx.reg, cm);
}

TEST(MdlEval, UnknownCallRejectedAtCompileTime) {
    EvalFixture fx;
    fx.file = parse(R"(
metric m { name "m"; base is counter {
  foreach func in set_a { append preinsn func.entry (* frobnicate($arg[0]); *) } } }
)");
    EXPECT_THROW(compile_metric(fx.reg, fx.file.metrics[0], {}, fx.services,
                                fx.resolver(), fx.sink()),
                 CompileError);
    // Nothing was inserted.
    EXPECT_EQ(fx.reg.snippet_count(fx.fa, instr::Where::Entry), 0u);
}

TEST(MdlEval, MalformedCodeIsRejectedAtCompileTime) {
    // Each form parses but could not run; compiling must reject it
    // before inserting anything, not throw from the instrumented call.
    struct Case {
        const char* what;
        const char* constraint_arg;  ///< in the constraint's entry code
        const char* metric_code;
        bool valid;
    };
    const Case cases[] = {
        {"well-formed control", "$constraint[0]", "m++;", true},
        {"$constraint[k] in metric code", "$constraint[0]", "m += $constraint[0];", false},
        {"$constraint[k] out of range", "$constraint[1]", "m++;", false},
        {"&x outside a call's out-parameter", "$constraint[0]", "m += &bytes;", false},
        {"MPI_Type_size without &", "$constraint[0]",
         "MPI_Type_size($arg[2], bytes); m += bytes;", false},
        {"timer argument not an identifier", "$constraint[0]", "startWallTimer($arg[0]);",
         false},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(c.what);
        EvalFixture fx;
        fx.file = parse(std::string(R"(
constraint win_c /SyncObject/Window is counter {
  foreach func in set_b {
    prepend preinsn func.entry (* if ($arg[0] == )") +
                        c.constraint_arg + R"() win_c = 1; *)
    append preinsn func.return (* win_c = 0; *) } }
metric m { name "m"; counter bytes; constraint win_c; base is counter {
  foreach func in set_a { append preinsn func.entry (* )" +
                        c.metric_code + " *) } } }");
        // One bound value: $constraint[1] is past its end.
        const ConstraintBinding b{fx.file.find_constraint("win_c"), {7}, {}};
        if (c.valid) {
            CompiledMetric cm = compile_metric(fx.reg, fx.file.metrics[0], {b},
                                               fx.services, fx.resolver(), fx.sink());
            EXPECT_EQ(cm.handles.size(), 3u);
            uninstall(fx.reg, cm);
        } else {
            EXPECT_THROW(compile_metric(fx.reg, fx.file.metrics[0], {b}, fx.services,
                                        fx.resolver(), fx.sink()),
                         CompileError);
        }
        for (instr::FuncId f : {fx.fa, fx.fb})
            for (instr::Where w : {instr::Where::Entry, instr::Where::Return})
                EXPECT_EQ(fx.reg.snippet_count(f, w), 0u);
    }
}

TEST(MdlEval, RankStateIsPrivateAcrossConcurrentRanks) {
    // Eight rank contexts fire three metrics at once: a walltimer that
    // nests across fa -> fb, a byte counter whose scratch variable
    // carries a per-rank value between two statements, and a counter
    // gated by a constraint on fa.  Any state shared between ranks
    // shows as a wrong total or an extra timer accrual.  The ranks sit
    // on both sides of the state table's chunk boundaries.
    EvalFixture fx;
    fx.file = parse(R"(
constraint in_a /Code is counter {
  foreach func in set_a {
    prepend preinsn func.entry (* in_a = 1; *)
    append preinsn func.return (* in_a = 0; *) } }
metric t { name "t"; base is walltimer {
  foreach func in set_ab {
    append preinsn func.entry (* startWallTimer(t); *)
    prepend preinsn func.return (* stopWallTimer(t); *) } } }
metric b { name "b"; counter bytes; base is counter {
  foreach func in set_b {
    append preinsn func.entry (* MPI_Type_size($arg[1], &bytes); b += bytes * $arg[0]; *) } } }
metric g { name "g"; constraint in_a; base is counter {
  foreach func in set_b { append preinsn func.entry constrained (* g++; *) } } }
)");
    std::atomic<std::int64_t> timer_accruals{0}, bytes{0}, gated{0};
    std::atomic<bool> negative_delta{false};
    std::vector<CompiledMetric> cms;
    cms.push_back(compile_metric(fx.reg, *fx.file.find_metric("t"), {}, fx.services,
                                 fx.resolver(), [&](double, double d) {
                                     if (d < 0) negative_delta = true;
                                     timer_accruals.fetch_add(1);
                                 }));
    cms.push_back(compile_metric(
        fx.reg, *fx.file.find_metric("b"), {}, fx.services, fx.resolver(),
        [&](double, double d) { bytes.fetch_add(static_cast<std::int64_t>(d)); }));
    ConstraintBinding in_a{fx.file.find_constraint("in_a"), {}, {}};
    cms.push_back(compile_metric(
        fx.reg, *fx.file.find_metric("g"), {in_a}, fx.services, fx.resolver(),
        [&](double, double d) { gated.fetch_add(static_cast<std::int64_t>(d)); }));

    constexpr int kIters = 10000;
    const int ranks[] = {0, 1, 63, 64, 191, 192, 447, 448};
    std::int64_t expect_bytes = 0;
    std::vector<std::thread> threads;
    for (const int rank : ranks) {
        // FakeServices: type_size(dt) = 4 dt.  Two counted fb calls per
        // iteration, each of (rank + 1) elements of datatype rank % 5 + 1.
        expect_bytes += 2LL * kIters * (rank + 1) * 4 * (rank % 5 + 1);
        threads.emplace_back([&fx, rank] {
            instr::set_current_rank(rank);
            const std::int64_t args[] = {rank + 1, rank % 5 + 1};
            for (int i = 0; i < kIters; ++i) {
                {
                    instr::FunctionGuard outer(fx.reg, fx.fa);
                    instr::FunctionGuard inner(fx.reg, fx.fb, args);  // gated: counted
                }
                instr::FunctionGuard bare(fx.reg, fx.fb, args);  // outside fa: not gated in
            }
            instr::set_current_rank(-1);
        });
    }
    for (auto& t : threads) t.join();

    constexpr std::int64_t kRanks = std::size(ranks);
    // One accrual per outer nest: fa (with fb inside) and the bare fb.
    EXPECT_EQ(timer_accruals.load(), 2 * kRanks * kIters);
    EXPECT_FALSE(negative_delta.load());
    EXPECT_EQ(bytes.load(), expect_bytes);
    EXPECT_EQ(gated.load(), kRanks * kIters);
    for (auto& cm : cms) uninstall(fx.reg, cm);
}

TEST(MdlEval, ScratchVarsArePerThread) {
    EvalFixture fx;
    fx.file = parse(R"(
metric m { name "m"; counter bytes; base is counter {
  foreach func in set_a {
    append preinsn func.entry (* bytes = $arg[0]; m += bytes; *) } } }
)");
    CompiledMetric cm = compile_metric(fx.reg, fx.file.metrics[0], {}, fx.services,
                                       fx.resolver(), fx.sink());
    std::thread t1([&] {
        for (int i = 0; i < 1000; ++i) {
            const std::int64_t a[] = {1};
            instr::FunctionGuard g(fx.reg, fx.fa, a);
        }
    });
    std::thread t2([&] {
        for (int i = 0; i < 1000; ++i) {
            const std::int64_t a[] = {2};
            instr::FunctionGuard g(fx.reg, fx.fa, a);
        }
    });
    t1.join();
    t2.join();
    EXPECT_DOUBLE_EQ(fx.total(), 1000.0 + 2000.0);
    uninstall(fx.reg, cm);
}

TEST(MdlEval, OutOfRangeArgIsZeroNotCrash) {
    EvalFixture fx;
    fx.file = parse(R"(
metric m { name "m"; base is counter {
  foreach func in set_a { append preinsn func.entry (* m += $arg[9]; *) } } }
)");
    CompiledMetric cm = compile_metric(fx.reg, fx.file.metrics[0], {}, fx.services,
                                       fx.resolver(), fx.sink());
    { instr::FunctionGuard g(fx.reg, fx.fa); }
    EXPECT_DOUBLE_EQ(fx.total(), 0.0);
    uninstall(fx.reg, cm);
}

}  // namespace
}  // namespace m2p::mdl
