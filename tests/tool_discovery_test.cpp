// Resource discovery: the tool's window / communicator / process /
// naming instrumentation (paper sections 4.2.1-4.2.3).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/tool.hpp"
#include "simmpi/launcher.hpp"
#include "simmpi/rank.hpp"

namespace m2p::core {
namespace {

using simmpi::Comm;
using simmpi::Flavor;
using simmpi::Rank;
using simmpi::Win;
using simmpi::MPI_COMM_NULL;
using simmpi::MPI_INFO_NULL;
using simmpi::MPI_INT;
using simmpi::MPI_WIN_NULL;

struct ToolFixture {
    instr::Registry reg;
    simmpi::World world;
    PerfTool tool;

    explicit ToolFixture(Flavor f = Flavor::Lam,
                         SpawnMethod sm = SpawnMethod::Intercept, bool mpir = false)
        : world(reg,
                [&] {
                    simmpi::World::Config c;
                    c.flavor = f;
                    c.mpir_enabled = mpir;
                    return c;
                }()),
          tool(world, [&] {
              PerfTool::Options o;
              o.spawn_method = sm;
              return o;
          }()) {}

    void run(int n, std::function<void(Rank&)> fn) {
        world.register_program("prog",
                               [fn](Rank& r, const std::vector<std::string>&) { fn(r); });
        run_app_async(tool, "prog", {}, n);
        world.join_all();
        tool.flush();
    }
};

TEST(Discovery, ProcessesAndMachinesAppearOnLaunch) {
    ToolFixture fx;
    fx.run(4, [](Rank& r) {
        r.MPI_Init();
        r.MPI_Finalize();
    });
    EXPECT_TRUE(fx.tool.hierarchy().exists("/Process/p0"));
    EXPECT_TRUE(fx.tool.hierarchy().exists("/Process/p3"));
    EXPECT_TRUE(fx.tool.hierarchy().exists("/Machine/node0/p0"));
    EXPECT_TRUE(fx.tool.hierarchy().exists("/Machine/node1/p2"));
    EXPECT_EQ(fx.tool.daemons().size(), 2u);  // one per node
}

TEST(Discovery, CodeResourcesReflectSymbolVisibilityPerFlavor) {
    // LAM shows MPI_* strong symbols; MPICH's weak-symbol build shows
    // PMPI_* (paper 4.1.1).
    {
        ToolFixture lam(Flavor::Lam);
        lam.tool.flush();
        EXPECT_TRUE(lam.tool.hierarchy().exists("/Code/libmpi/MPI_Send"));
        EXPECT_FALSE(lam.tool.hierarchy().exists("/Code/libmpi/PMPI_Send"));
    }
    {
        ToolFixture mpich(Flavor::Mpich);
        mpich.tool.flush();
        EXPECT_TRUE(mpich.tool.hierarchy().exists("/Code/libmpi/PMPI_Send"));
        EXPECT_FALSE(mpich.tool.hierarchy().exists("/Code/libmpi/MPI_Send"));
        EXPECT_TRUE(mpich.tool.hierarchy().exists("/Code/libc/read"));
    }
}

TEST(Discovery, WindowsGetUniqueNMIdsAcrossReuse) {
    ToolFixture fx;
    fx.run(2, [](Rank& r) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        std::vector<char> mem(16, 0);
        for (int i = 0; i < 3; ++i) {
            Win win = MPI_WIN_NULL;
            r.MPI_Win_create(mem.data(), 16, 1, MPI_INFO_NULL, w, &win);
            r.MPI_Win_free(&win);
        }
        r.MPI_Finalize();
    });
    // The implementation reused id N; the tool minted N-0, N-1, N-2.
    auto wins = fx.tool.hierarchy().children("/SyncObject/Window", true);
    ASSERT_EQ(wins.size(), 3u);
    EXPECT_NE(wins[0], wins[1]);
    const std::string n = ResourceHierarchy::leaf(wins[0]);
    EXPECT_EQ(n.substr(0, n.find('-')),
              ResourceHierarchy::leaf(wins[1]).substr(0, n.find('-')));
    // All are freed, so all retired and excluded from PC refinement.
    EXPECT_TRUE(fx.tool.hierarchy().children("/SyncObject/Window", false).empty());
    for (const auto& p : wins) EXPECT_TRUE(fx.tool.hierarchy().get(p).retired);
}

TEST(Discovery, WindowNamingUpdatesDisplay) {
    ToolFixture fx;
    fx.run(2, [](Rank& r) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        std::vector<char> mem(16, 0);
        Win win = MPI_WIN_NULL;
        r.MPI_Win_create(mem.data(), 16, 1, MPI_INFO_NULL, w, &win);
        int me = 0;
        r.MPI_Comm_rank(w, &me);
        if (me == 0) r.MPI_Win_set_name(win, "MyWindow");
        r.MPI_Barrier(w);
        r.MPI_Win_free(&win);
        r.MPI_Finalize();
    });
    const auto wins = fx.tool.hierarchy().children("/SyncObject/Window", true);
    ASSERT_EQ(wins.size(), 1u);
    EXPECT_EQ(fx.tool.hierarchy().get(wins[0]).display, "MyWindow");
}

TEST(Discovery, LamWindowNameAppearsUnderMessageToo) {
    // LAM stores window names in the window's shadow communicator, so
    // the name shows up under /SyncObject/Message as well (Fig 23).
    ToolFixture fx(Flavor::Lam);
    fx.run(2, [](Rank& r) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        std::vector<char> mem(16, 0);
        Win win = MPI_WIN_NULL;
        r.MPI_Win_create(mem.data(), 16, 1, MPI_INFO_NULL, w, &win);
        int me = 0;
        r.MPI_Comm_rank(w, &me);
        if (me == 0) r.MPI_Win_set_name(win, "ParentChildWindow");
        r.MPI_Barrier(w);
        r.MPI_Win_free(&win);
        r.MPI_Finalize();
    });
    bool found = false;
    for (const auto& c : fx.tool.hierarchy().children("/SyncObject/Message", true))
        found = found || fx.tool.hierarchy().get(c).display == "ParentChildWindow";
    EXPECT_TRUE(found);
}

TEST(Discovery, CommunicatorsAndTagsFromMessageTraffic) {
    ToolFixture fx;
    fx.run(2, [](Rank& r) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int me = 0;
        r.MPI_Comm_rank(w, &me);
        int v = 1;
        if (me == 0) {
            r.MPI_Send(&v, 1, MPI_INT, 1, 5, w);
            r.MPI_Send(&v, 1, MPI_INT, 1, 6, w);
        } else {
            r.MPI_Recv(&v, 1, MPI_INT, 0, 5, w, nullptr);
            r.MPI_Recv(&v, 1, MPI_INT, 0, 6, w, nullptr);
        }
        r.MPI_Comm_set_name(w, "MainComm");
        r.MPI_Finalize();
    });
    const auto comms = fx.tool.hierarchy().children("/SyncObject/Message", true);
    ASSERT_EQ(comms.size(), 1u);
    EXPECT_EQ(fx.tool.hierarchy().get(comms[0]).display, "MainComm");
    const auto tags = fx.tool.hierarchy().children(comms[0], true);
    EXPECT_EQ(tags.size(), 2u);
}

TEST(Discovery, TagReportsNeverOvertakeTheirCommunicator) {
    // Two ranks meet a new communicator at once, each with its own tag.
    // The one that records the communicator must have its report queued
    // before the other's tag report; a tag report that overtakes makes
    // the frontend reject a resource whose parent is missing, which
    // aborts the run.  Thread 0 starts first and records the
    // communicator; the name lookup that precedes its report copies a
    // 1 MiB name, holding that report back while thread 1, started a
    // few microseconds later, records only its tag.  The race is timing
    // dependent: with the ordering removed this failed 18 of 20 runs on
    // 4 cores, and on one CPU the two threads cannot overlap at all.
    ToolFixture fx;
    const instr::FuncId send = fx.world.fids().PMPI_Send;
    const auto send_entry = [&](Comm c, int tag) {
        // PMPI_Send's arguments: buf, count, type, dest, tag, comm.
        const std::int64_t args[] = {0, 1, 0, 0, tag, c};
        instr::CallContext ctx;
        ctx.func = send;
        ctx.args = args;
        fx.reg.dispatch(send, instr::Where::Entry, ctx);
    };
    using Clock = std::chrono::steady_clock;
    constexpr int kRounds = 8;
    const Comm warm = fx.world.create_comm({0});
    std::vector<Comm> comms;
    for (int k = 0; k < kRounds; ++k) {
        comms.push_back(fx.world.create_comm({0}));
        fx.world.set_comm_name(comms.back(), std::string(std::size_t{1} << 20, 'n'));
    }
    std::atomic<int> round{-1};
    std::atomic<int> done{0};
    std::atomic<Clock::rep> go{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
        threads.emplace_back([&, t] {
            send_entry(warm, t);  // first dispatch on a thread is slower
            done.fetch_add(1);
            for (int k = 0; k < kRounds; ++k) {
                while (round.load() < k) std::this_thread::yield();
                const auto start = Clock::time_point(Clock::duration(go.load())) +
                                   std::chrono::microseconds(t * (2 << (k % 4)));  // 2..16 us
                while (Clock::now() < start) {
                }
                send_entry(comms[k], t);
                done.fetch_add(1);
            }
        });
    }
    for (int k = 0; k < kRounds; ++k) {
        while (done.load() < 2 * (k + 1)) std::this_thread::yield();
        go.store((Clock::now() + std::chrono::microseconds(200)).time_since_epoch().count());
        round.store(k);
    }
    for (auto& th : threads) th.join();
    fx.tool.flush();
    for (const Comm c : comms)
        EXPECT_EQ(fx.tool.hierarchy()
                      .children("/SyncObject/Message/comm_" + std::to_string(c), true)
                      .size(),
                  2u);
}

TEST(Discovery, InternalReservedTagsInvisible) {
    // The MPICH barrier's internal PMPI_Sendrecv traffic uses reserved
    // tags; they must not pollute the SyncObject hierarchy.
    ToolFixture fx(Flavor::Mpich);
    fx.run(4, [](Rank& r) {
        r.MPI_Init();
        for (int i = 0; i < 5; ++i) r.MPI_Barrier(r.MPI_COMM_WORLD());
        r.MPI_Finalize();
    });
    for (const auto& c : fx.tool.hierarchy().children("/SyncObject/Message", true))
        EXPECT_TRUE(fx.tool.hierarchy().children(c, true).empty())
            << "no user tags were used";
}

TEST(SpawnSupport, InterceptDiscoversChildrenAndCountsOverhead) {
    ToolFixture fx(Flavor::Lam, SpawnMethod::Intercept);
    fx.world.register_program("child", [](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        r.MPI_Finalize();
    });
    fx.run(1, [](Rank& r) {
        r.MPI_Init();
        Comm inter = MPI_COMM_NULL;
        std::vector<int> errcodes;
        r.MPI_Comm_spawn("child", {}, 3, MPI_INFO_NULL, 0, r.MPI_COMM_WORLD(), &inter,
                         &errcodes);
        r.MPI_Finalize();
    });
    EXPECT_TRUE(fx.tool.hierarchy().exists("/Process/p1"));
    EXPECT_TRUE(fx.tool.hierarchy().exists("/Process/p3"));
    const SpawnSupportStats& s = fx.tool.spawn_stats();
    EXPECT_EQ(s.spawns_seen, 1);
    EXPECT_EQ(s.daemons_started, 3);  // one daemon per spawned process
    EXPECT_GT(s.intercept_overhead_seconds, 0.0);
}

TEST(SpawnSupport, AttachFailsWithoutMpir) {
    // The attach method needs the MPI Debugging Interface; LAM/MPICH2
    // did not support its dynamic-process parts (paper 4.2.2).
    ToolFixture fx(Flavor::Lam, SpawnMethod::Attach, /*mpir=*/false);
    fx.world.register_program("child", [](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        r.MPI_Finalize();
    });
    fx.run(1, [](Rank& r) {
        r.MPI_Init();
        Comm inter = MPI_COMM_NULL;
        std::vector<int> errcodes;
        r.MPI_Comm_spawn("child", {}, 2, MPI_INFO_NULL, 0, r.MPI_COMM_WORLD(), &inter,
                         &errcodes);
        r.MPI_Finalize();
    });
    EXPECT_FALSE(fx.tool.hierarchy().exists("/Process/p1"));
    EXPECT_GT(fx.tool.spawn_stats().attach_failures, 0);
}

TEST(SpawnSupport, AttachWorksWithMpir) {
    ToolFixture fx(Flavor::Lam, SpawnMethod::Attach, /*mpir=*/true);
    fx.world.register_program("child", [](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        r.MPI_Finalize();
    });
    fx.run(1, [](Rank& r) {
        r.MPI_Init();
        Comm inter = MPI_COMM_NULL;
        std::vector<int> errcodes;
        r.MPI_Comm_spawn("child", {}, 2, MPI_INFO_NULL, 0, r.MPI_COMM_WORLD(), &inter,
                         &errcodes);
        r.MPI_Finalize();
    });
    EXPECT_TRUE(fx.tool.hierarchy().exists("/Process/p1"));
    EXPECT_TRUE(fx.tool.hierarchy().exists("/Process/p2"));
    EXPECT_EQ(fx.tool.spawn_stats().processes_attached, 2);
    // Attach adds no daemon-per-child overhead.
    EXPECT_EQ(fx.tool.spawn_stats().daemons_started, 0);
}

TEST(Focus, RanksForFocusFiltersAxes) {
    ToolFixture fx;
    fx.run(4, [](Rank& r) {
        r.MPI_Init();
        r.MPI_Finalize();
    });
    Focus f;
    EXPECT_EQ(fx.tool.ranks_for_focus(f).size(), 4u);
    f.process = "/Process/p2";
    EXPECT_EQ(fx.tool.ranks_for_focus(f), (std::vector<int>{2}));
    f = Focus{};
    f.machine = "/Machine/node0";
    EXPECT_EQ(fx.tool.ranks_for_focus(f), (std::vector<int>{0, 1}));
}

TEST(Tunables, ComeFromMdlFile) {
    ToolFixture fx;
    EXPECT_DOUBLE_EQ(fx.tool.tunable("PC_SyncThreshold", -1), 0.2);
    EXPECT_DOUBLE_EQ(fx.tool.tunable("Nonexistent", 7.5), 7.5);
}

}  // namespace
}  // namespace m2p::core
