// Metric-focus instantiation correctness: byte/op counters against
// ground truth, timers, constraints (window / comm / tag / procedure),
// and instrumentation removal.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "core/metrics.hpp"
#include "core/session.hpp"
#include "core/tool.hpp"
#include "simmpi/launcher.hpp"
#include "simmpi/rank.hpp"
#include "simmpi/sched.hpp"
#include "util/clock.hpp"

namespace m2p::core {
namespace {

using simmpi::Comm;
using simmpi::Flavor;
using simmpi::Rank;
using simmpi::Win;
using simmpi::MPI_BYTE;
using simmpi::MPI_INFO_NULL;
using simmpi::MPI_INT;
using simmpi::MPI_WIN_NULL;

struct Fx {
    instr::Registry reg;
    simmpi::World world;
    PerfTool tool;

    explicit Fx(Flavor f = Flavor::Lam, bool paused = false)
        : world(reg,
                [&] {
                    simmpi::World::Config c;
                    c.flavor = f;
                    c.start_paused = paused;
                    return c;
                }()),
          tool(world, PerfTool::Options{}) {}

    void run(int n, std::function<void(Rank&)> fn) {
        world.register_program("prog",
                               [fn](Rank& r, const std::vector<std::string>&) { fn(r); });
        run_app_async(tool, "prog", {}, n);
        world.join_all();
        tool.flush();
    }
};

TEST(Metrics, UnknownMetricReturnsNull) {
    Fx fx;
    EXPECT_EQ(fx.tool.metrics().request("no_such_metric", Focus{}), nullptr);
}

TEST(Metrics, MsgBytesSentMatchGroundTruth) {
    Fx fx;
    auto pair = fx.tool.metrics().request("msg_bytes_sent", Focus{});
    ASSERT_NE(pair, nullptr);
    constexpr int kMsgs = 200, kBytes = 32;
    fx.run(2, [](Rank& r) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int me = 0;
        r.MPI_Comm_rank(w, &me);
        std::vector<char> buf(kBytes, 'm');
        if (me == 0)
            for (int i = 0; i < kMsgs; ++i) r.MPI_Send(buf.data(), kBytes, MPI_BYTE, 1, 0, w);
        else
            for (int i = 0; i < kMsgs; ++i)
                r.MPI_Recv(buf.data(), kBytes, MPI_BYTE, 0, 0, w, nullptr);
        r.MPI_Finalize();
    });
    EXPECT_DOUBLE_EQ(pair->total(), kMsgs * kBytes);
    fx.tool.metrics().release(pair);
}

TEST(Metrics, MsgBytesRecvCountSendrecvToo) {
    Fx fx;
    auto pair = fx.tool.metrics().request("msg_bytes_recv", Focus{});
    ASSERT_NE(pair, nullptr);
    fx.run(2, [](Rank& r) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int me = 0;
        r.MPI_Comm_rank(w, &me);
        int mine = me, theirs = -1;
        simmpi::Status st;
        r.MPI_Sendrecv(&mine, 1, MPI_INT, 1 - me, 0, &theirs, 1, MPI_INT, 1 - me, 0, w,
                       &st);
        r.MPI_Finalize();
    });
    EXPECT_DOUBLE_EQ(pair->total(), 8.0);  // two ranks x one 4-byte recv
    fx.tool.metrics().release(pair);
}

TEST(Metrics, ByteCountersStayExactOn256RingRanks) {
    // 256 fiber ranks reach three chunks of the evaluator's
    // rank-indexed state table, which workers grow concurrently on
    // first touch, and each rank parks in MPI_Recv and may resume on
    // another scheduler worker.  Sizes differ per rank and round, so
    // the totals must still be exact.
    constexpr int kRanks = 256, kRounds = 20;
    auto ints = [](int rank, int round) { return 1 + (rank * 7 + round) % 13; };
    Fx fx;
    auto sent = fx.tool.metrics().request("msg_bytes_sent", Focus{});
    auto recv = fx.tool.metrics().request("msg_bytes_recv", Focus{});
    ASSERT_NE(sent, nullptr);
    ASSERT_NE(recv, nullptr);
    fx.run(kRanks, [&](Rank& r) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int me = 0;
        r.MPI_Comm_rank(w, &me);
        const int right = (me + 1) % kRanks, left = (me + kRanks - 1) % kRanks;
        for (int i = 0; i < kRounds; ++i) {
            std::vector<int> out(static_cast<std::size_t>(ints(me, i)), me);
            std::vector<int> in(static_cast<std::size_t>(ints(left, i)));
            auto send = [&] { r.MPI_Send(out.data(), ints(me, i), MPI_INT, right, i, w); };
            auto receive = [&] {
                r.MPI_Recv(in.data(), ints(left, i), MPI_INT, left, i, w, nullptr);
            };
            if (me % 2 == 0) {
                send();
                receive();
            } else {
                receive();
                send();
            }
        }
        r.MPI_Finalize();
    });
    double truth = 0;
    for (int rank = 0; rank < kRanks; ++rank)
        for (int i = 0; i < kRounds; ++i) truth += 4.0 * ints(rank, i);
    EXPECT_DOUBLE_EQ(sent->total(), truth);
    EXPECT_DOUBLE_EQ(recv->total(), truth);
    fx.tool.metrics().release(sent);
    fx.tool.metrics().release(recv);
}

TEST(Metrics, ProcessGateRestrictsToOneRank) {
    // Hold the job paused so the gated pair is installed before any
    // message flows (otherwise rank 1's sends can finish first on a
    // loaded host).
    Fx fx(Flavor::Lam, /*paused=*/true);
    // Count only rank 1's sends.
    fx.world.register_program("prog", [](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int me = 0, n = 0;
        r.MPI_Comm_rank(w, &me);
        r.MPI_Comm_size(w, &n);
        char b = 'z';
        if (me == 0) {
            for (int i = 0; i < 2 * (n - 1); ++i)
                r.MPI_Recv(&b, 1, MPI_BYTE, simmpi::MPI_ANY_SOURCE, 0, w, nullptr);
        } else {
            r.MPI_Send(&b, 1, MPI_BYTE, 0, 0, w);
            r.MPI_Send(&b, 1, MPI_BYTE, 0, 0, w);
        }
        r.MPI_Finalize();
    });
    run_app_async(fx.tool, "prog", {}, 3);
    fx.tool.flush();  // /Process/p1 exists once launch reports apply
    Focus f;
    f.process = "/Process/p1";
    auto pair = fx.tool.metrics().request("msgs_sent", f);
    ASSERT_NE(pair, nullptr);
    fx.world.release_start_gate();
    fx.world.join_all();
    fx.tool.flush();
    EXPECT_DOUBLE_EQ(pair->total(), 2.0);
    fx.tool.metrics().release(pair);
}

TEST(Metrics, RmaCountersAndWindowConstraint) {
    Fx fx;
    auto all_puts = fx.tool.metrics().request("rma_put_ops", Focus{});
    auto all_bytes = fx.tool.metrics().request("rma_put_bytes", Focus{});
    ASSERT_NE(all_puts, nullptr);
    ASSERT_NE(all_bytes, nullptr);

    constexpr int kPutsPerWin = 25;
    fx.run(2, [](Rank& r) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int me = 0;
        r.MPI_Comm_rank(w, &me);
        std::vector<std::int32_t> mem(8, 0);
        // Two windows; puts go to both.
        Win win1 = MPI_WIN_NULL, win2 = MPI_WIN_NULL;
        r.MPI_Win_create(mem.data(), 32, 4, MPI_INFO_NULL, w, &win1);
        r.MPI_Win_create(mem.data(), 32, 4, MPI_INFO_NULL, w, &win2);
        r.MPI_Win_fence(0, win1);
        r.MPI_Win_fence(0, win2);
        if (me == 0) {
            const std::int32_t v[2] = {1, 2};
            for (int i = 0; i < kPutsPerWin; ++i) {
                r.MPI_Put(v, 2, MPI_INT, 1, 0, 2, MPI_INT, win1);
                r.MPI_Put(v, 1, MPI_INT, 1, 0, 1, MPI_INT, win2);
            }
        }
        r.MPI_Win_fence(0, win1);
        r.MPI_Win_fence(0, win2);
        r.MPI_Win_free(&win1);
        r.MPI_Win_free(&win2);
        r.MPI_Finalize();
    });
    EXPECT_DOUBLE_EQ(all_puts->total(), 2 * kPutsPerWin);
    EXPECT_DOUBLE_EQ(all_bytes->total(), kPutsPerWin * (8 + 4));
    fx.tool.metrics().release(all_puts);
    fx.tool.metrics().release(all_bytes);
}

TEST(Metrics, WindowConstraintIsolatesOneWindow) {
    Fx fx;
    std::shared_ptr<MetricFocusPair> win1_puts;
    constexpr int kPuts = 30;
    fx.world.register_program("prog", [&](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int me = 0;
        r.MPI_Comm_rank(w, &me);
        std::vector<std::int32_t> mem(8, 0);
        Win win1 = MPI_WIN_NULL, win2 = MPI_WIN_NULL;
        r.MPI_Win_create(mem.data(), 32, 4, MPI_INFO_NULL, w, &win1);
        r.MPI_Win_create(mem.data(), 32, 4, MPI_INFO_NULL, w, &win2);
        r.MPI_Barrier(w);
        if (me == 0) {
            // Both windows are discovered now; focus on the first.
            fx.tool.flush();
            const auto wins = fx.tool.hierarchy().children("/SyncObject/Window", false);
            Focus f;
            f.syncobj = wins[0];
            win1_puts = fx.tool.metrics().request("rma_put_ops", f);
        }
        r.MPI_Barrier(w);
        r.MPI_Win_fence(0, win1);
        r.MPI_Win_fence(0, win2);
        if (me == 0) {
            const std::int32_t v = 9;
            for (int i = 0; i < kPuts; ++i) {
                r.MPI_Put(&v, 1, MPI_INT, 1, 0, 1, MPI_INT, win1);
                r.MPI_Put(&v, 1, MPI_INT, 1, 0, 1, MPI_INT, win2);
            }
        }
        r.MPI_Win_fence(0, win1);
        r.MPI_Win_fence(0, win2);
        r.MPI_Win_free(&win1);
        r.MPI_Win_free(&win2);
        r.MPI_Finalize();
    });
    run_app_async(fx.tool, "prog", {}, 2);
    fx.world.join_all();
    fx.tool.flush();
    ASSERT_NE(win1_puts, nullptr);
    EXPECT_DOUBLE_EQ(win1_puts->total(), kPuts);  // win2 puts excluded
    fx.tool.metrics().release(win1_puts);
}

TEST(Metrics, SyncWaitTimerSeesBlockingRecv) {
    Fx fx;
    auto pair = fx.tool.metrics().request("sync_wait_inclusive", Focus{});
    ASSERT_NE(pair, nullptr);
    EXPECT_EQ(pair->unitstype(), mdl::UnitsType::Normalized);
    fx.run(2, [](Rank& r) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int me = 0;
        r.MPI_Comm_rank(w, &me);
        char b = 0;
        if (me == 0) {
            // Make rank 1 wait ~60ms in MPI_Recv.
            simmpi::sched::sleep_for(std::chrono::milliseconds(60));
            r.MPI_Send(&b, 1, MPI_BYTE, 1, 0, w);
        } else {
            r.MPI_Recv(&b, 1, MPI_BYTE, 0, 0, w, nullptr);
        }
        r.MPI_Finalize();
    });
    EXPECT_GT(pair->total(), 0.04);
    EXPECT_LT(pair->total(), 0.5);
    fx.tool.metrics().release(pair);
}

TEST(Metrics, ProcedureConstraintMeasuresInclusiveSyncOfFunction) {
    Fx fx;
    instr::Registry& reg = fx.reg;
    const instr::FuncId inner = reg.register_function(
        "inner_fn", "app", static_cast<std::uint32_t>(instr::Category::AppCode));
    fx.tool.flush();

    std::shared_ptr<MetricFocusPair> pair;
    fx.world.register_program("prog", [&](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int me = 0;
        r.MPI_Comm_rank(w, &me);
        if (me == 0) {
            Focus f;
            f.code = "/Code/app/inner_fn";
            pair = fx.tool.metrics().request("sync_wait_inclusive", f);
        }
        r.MPI_Barrier(w);
        char b = 0;
        if (me == 0) {
            simmpi::sched::sleep_for(std::chrono::milliseconds(50));
            r.MPI_Send(&b, 1, MPI_BYTE, 1, 0, w);   // outside inner_fn
            simmpi::sched::sleep_for(std::chrono::milliseconds(50));
            r.MPI_Send(&b, 1, MPI_BYTE, 1, 1, w);
        } else {
            r.MPI_Recv(&b, 1, MPI_BYTE, 0, 0, w, nullptr);  // outside: ~50ms wait
            {
                instr::FunctionGuard g(reg, inner);
                r.MPI_Recv(&b, 1, MPI_BYTE, 0, 1, w, nullptr);  // inside: ~50ms
            }
        }
        r.MPI_Finalize();
    });
    run_app_async(fx.tool, "prog", {}, 2);
    fx.world.join_all();
    ASSERT_NE(pair, nullptr);
    // Only the receive inside inner_fn counts.
    EXPECT_GT(pair->total(), 0.03);
    EXPECT_LT(pair->total(), 0.085);
    fx.tool.metrics().release(pair);
}

TEST(Metrics, ReleaseRemovesInstrumentation) {
    Fx fx;
    const std::size_t before = fx.reg.snippet_count(fx.reg.find("PMPI_Put"),
                                                    instr::Where::Entry);
    auto pair = fx.tool.metrics().request("rma_put_ops", Focus{});
    ASSERT_NE(pair, nullptr);
    EXPECT_GT(fx.reg.snippet_count(fx.reg.find("PMPI_Put"), instr::Where::Entry),
              before);
    fx.tool.metrics().release(pair);
    EXPECT_EQ(fx.reg.snippet_count(fx.reg.find("PMPI_Put"), instr::Where::Entry),
              before);
    EXPECT_EQ(fx.tool.metrics().active_pairs(), 0u);
}

TEST(Metrics, NativeCpuMetricSeesBusyRank) {
    Fx fx;
    auto pair = fx.tool.metrics().request("cpu", Focus{});
    ASSERT_NE(pair, nullptr);
    fx.run(2, [](Rank& r) {
        r.MPI_Init();
        int me = 0;
        r.MPI_Comm_rank(r.MPI_COMM_WORLD(), &me);
        if (me == 0) util::burn_thread_cpu(0.08);
        r.MPI_Finalize();
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));  // final samples
    EXPECT_GT(pair->total(), 0.05);
    fx.tool.metrics().release(pair);
}

TEST(Metrics, CpuOnCodeFocusDelegatesToCpuInclusive) {
    Fx fx;
    const instr::FuncId hot = fx.reg.register_function(
        "hot_fn", "app", static_cast<std::uint32_t>(instr::Category::AppCode));
    Focus f;
    f.code = "/Code/app/hot_fn";
    auto pair = fx.tool.metrics().request("cpu", f);
    ASSERT_NE(pair, nullptr);
    EXPECT_EQ(pair->metric(), "cpu_inclusive");
    fx.run(1, [&](Rank& r) {
        r.MPI_Init();
        {
            instr::FunctionGuard g(fx.reg, hot);
            util::burn_thread_cpu(0.05);
        }
        util::burn_thread_cpu(0.05);  // outside: not counted
        r.MPI_Finalize();
    });
    EXPECT_GT(pair->total(), 0.03);
    EXPECT_LT(pair->total(), 0.085);
    fx.tool.metrics().release(pair);
}

TEST(Metrics, FiberCpuIsVisibleWhileTheSliceRuns) {
    // A rank that never parks is one long slice.  The native cpu metric
    // must see its CPU as it accrues, not only once the slice ends.
    Fx fx;
    auto pair = fx.tool.metrics().request("cpu", Focus{});
    ASSERT_NE(pair, nullptr);
    double midway = -1.0;
    fx.run(1, [&](Rank& r) {
        r.MPI_Init();
        util::burn_thread_cpu(0.15);
        midway = pair->total();  // the rank is still in its slice
        util::burn_thread_cpu(0.05);
        r.MPI_Finalize();
    });
    EXPECT_GT(midway, 0.05);
    fx.tool.metrics().release(pair);
}

TEST(Metrics, SystemTimeIsNotUserCpu) {
    // Paradyn's native cpu metric counts user time only (paper Table 2,
    // system-time): a rank in system calls must not read as CPU bound.
    Fx fx;
    auto pair = fx.tool.metrics().request("cpu", Focus{});
    ASSERT_NE(pair, nullptr);
    double wall = 0.0;
    fx.run(1, [&](Rank& r) {
        r.MPI_Init();
        const double t0 = util::wall_seconds();
        util::burn_system_time(0.1);
        wall = util::wall_seconds() - t0;
        r.MPI_Finalize();
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));  // final samples
    EXPECT_GT(fx.world.proc_cpu_seconds(0), 0.03) << "the rank burned no CPU at all";
    EXPECT_LT(pair->total(), wall / 4);
    fx.tool.metrics().release(pair);
}

TEST(Session, RankThatNeverParksDoesNotStallItsPeers) {
    // Rank 0 computes for 200 ms without an MPI call.  With the tool
    // attached its long slice gets its worker replaced, so rank 1 keeps
    // making progress through that window even though the world asked
    // for one scheduler worker.
    simmpi::World::Config cfg;
    cfg.sched_workers = 1;
    Session s(Flavor::Lam, {}, cfg);
    std::atomic<bool> computing{false}, done{false};
    std::atomic<int> overlapped{0};
    s.world().register_program("prog", [&](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        int me = 0;
        r.MPI_Comm_rank(r.MPI_COMM_WORLD(), &me);
        if (me == 0) {
            computing = true;
            const double end = util::wall_seconds() + 0.2;
            while (util::wall_seconds() < end) {
            }
            done = true;
        } else {
            while (!done) {
                if (computing) ++overlapped;
                simmpi::sched::sleep_for(std::chrono::milliseconds(1));
            }
        }
        r.MPI_Finalize();
    });
    EXPECT_TRUE(s.run("prog", 2).ok());
    EXPECT_GE(overlapped.load(), 10) << "rank 1 stalled while rank 0 computed";
}

TEST(Metrics, FocusRequiringDisallowedConstraintReturnsNull) {
    Fx fx;
    Focus f;
    f.syncobj = "/SyncObject/Window/0-0";  // not yet discovered anyway
    EXPECT_EQ(fx.tool.metrics().request("io_wait_inclusive", f), nullptr);
}

}  // namespace
}  // namespace m2p::core
