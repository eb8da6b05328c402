#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <vector>

#include "simmpi/launcher.hpp"
#include "simmpi/rank.hpp"
#include "simmpi/world.hpp"

namespace m2p::simmpi {
namespace {

class CollectivesTest : public ::testing::TestWithParam<Flavor> {
protected:
    void run(int n, std::function<void(Rank&)> fn) {
        instr::Registry reg;
        World::Config cfg;
        cfg.flavor = GetParam();
        World world(reg, cfg);
        world.register_program("prog",
                               [fn](Rank& r, const std::vector<std::string>&) { fn(r); });
        LaunchPlan plan;
        for (int i = 0; i < n; ++i) plan.placements.push_back("node0");
        launch(world, "prog", {}, plan);
        world.join_all();
    }
};

TEST_P(CollectivesTest, BarrierSynchronizesRepeatedly) {
    run(5, [](Rank& r) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        for (int i = 0; i < 50; ++i) ASSERT_EQ(r.MPI_Barrier(w), MPI_SUCCESS);
        r.MPI_Finalize();
    });
}

TEST_P(CollectivesTest, BarrierOrdersSideEffects) {
    // After rank 0 sets a flag and everyone barriers, every rank must
    // observe the flag.
    static std::atomic<int> flag{0};
    flag = 0;
    run(4, [](Rank& r) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int me = 0;
        r.MPI_Comm_rank(w, &me);
        if (me == 0) flag.store(1);
        r.MPI_Barrier(w);
        EXPECT_EQ(flag.load(), 1);
        r.MPI_Finalize();
    });
}

TEST_P(CollectivesTest, BcastDeliversFromEveryRoot) {
    run(4, [](Rank& r) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int me = 0, n = 0;
        r.MPI_Comm_rank(w, &me);
        r.MPI_Comm_size(w, &n);
        for (int root = 0; root < n; ++root) {
            int v = me == root ? 1000 + root : -1;
            ASSERT_EQ(r.MPI_Bcast(&v, 1, MPI_INT, root, w), MPI_SUCCESS);
            EXPECT_EQ(v, 1000 + root);
        }
        r.MPI_Finalize();
    });
}

TEST_P(CollectivesTest, ReduceSumAtRoot) {
    run(5, [](Rank& r) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int me = 0, n = 0;
        r.MPI_Comm_rank(w, &me);
        r.MPI_Comm_size(w, &n);
        const int v = me + 1;
        int sum = 0;
        ASSERT_EQ(r.MPI_Reduce(&v, &sum, 1, MPI_INT, MPI_SUM, 0, w), MPI_SUCCESS);
        if (me == 0) EXPECT_EQ(sum, n * (n + 1) / 2);
        r.MPI_Finalize();
    });
}

TEST_P(CollectivesTest, AllreduceSumMaxMin) {
    run(4, [](Rank& r) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int me = 0, n = 0;
        r.MPI_Comm_rank(w, &me);
        r.MPI_Comm_size(w, &n);
        double v = me + 1.0;
        double sum = 0, mx = 0, mn = 0;
        ASSERT_EQ(r.MPI_Allreduce(&v, &sum, 1, MPI_DOUBLE, MPI_SUM, w), MPI_SUCCESS);
        ASSERT_EQ(r.MPI_Allreduce(&v, &mx, 1, MPI_DOUBLE, MPI_MAX, w), MPI_SUCCESS);
        ASSERT_EQ(r.MPI_Allreduce(&v, &mn, 1, MPI_DOUBLE, MPI_MIN, w), MPI_SUCCESS);
        EXPECT_DOUBLE_EQ(sum, n * (n + 1) / 2.0);
        EXPECT_DOUBLE_EQ(mx, n);
        EXPECT_DOUBLE_EQ(mn, 1.0);
        r.MPI_Finalize();
    });
}

TEST_P(CollectivesTest, AllreduceVectorPayload) {
    run(3, [](Rank& r) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int me = 0, n = 0;
        r.MPI_Comm_rank(w, &me);
        r.MPI_Comm_size(w, &n);
        std::vector<std::int32_t> v(64, me);
        std::vector<std::int32_t> out(64, -1);
        ASSERT_EQ(r.MPI_Allreduce(v.data(), out.data(), 64, MPI_INT, MPI_SUM, w),
                  MPI_SUCCESS);
        for (std::int32_t x : out) EXPECT_EQ(x, n * (n - 1) / 2);
        r.MPI_Finalize();
    });
}

TEST_P(CollectivesTest, CollectivesInterleaveWithPt2pt) {
    run(4, [](Rank& r) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int me = 0, n = 0;
        r.MPI_Comm_rank(w, &me);
        r.MPI_Comm_size(w, &n);
        for (int i = 0; i < 20; ++i) {
            if (me == 0) {
                for (int d = 1; d < n; ++d) r.MPI_Send(&i, 1, MPI_INT, d, 3, w);
            } else {
                int v = -1;
                r.MPI_Recv(&v, 1, MPI_INT, 0, 3, w, nullptr);
                EXPECT_EQ(v, i);
            }
            r.MPI_Barrier(w);
            int sum = 0;
            r.MPI_Allreduce(&me, &sum, 1, MPI_INT, MPI_SUM, w);
            EXPECT_EQ(sum, n * (n - 1) / 2);
        }
        r.MPI_Finalize();
    });
}

TEST_P(CollectivesTest, ErrorsOnBadArguments) {
    run(1, [](Rank& r) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int v = 0, out = 0;
        EXPECT_EQ(r.MPI_Barrier(999), MPI_ERR_COMM);
        EXPECT_EQ(r.MPI_Bcast(&v, 1, MPI_INT, 5, w), MPI_ERR_RANK);
        EXPECT_EQ(r.MPI_Bcast(&v, -1, MPI_INT, 0, w), MPI_ERR_COUNT);
        EXPECT_EQ(r.MPI_Reduce(&v, &out, 1, MPI_INT, MPI_SUM, 9, w), MPI_ERR_RANK);
        EXPECT_EQ(r.MPI_Allreduce(&v, &out, 1, MPI_DATATYPE_NULL, MPI_SUM, w),
                  MPI_ERR_TYPE);
        r.MPI_Finalize();
    });
}

INSTANTIATE_TEST_SUITE_P(Flavors, CollectivesTest,
                         ::testing::Values(Flavor::Lam, Flavor::Mpich),
                         [](const ::testing::TestParamInfo<Flavor>& i) {
                             return i.param == Flavor::Lam ? "Lam" : "Mpich";
                         });

// ---------------------------------------------------------------------------
// The arrival protocol behind barrier_internal (LAM's MPI_Barrier) and
// MPICH's MPI_Win_fence: withdraw on abandon, re-arrive, and a long
// interleaving of every collective that rides it.
// ---------------------------------------------------------------------------

/// Lam: MPI_Barrier; Mpich: MPI_Win_fence.
class CollectivesArrivalTest : public ::testing::TestWithParam<Flavor> {};

TEST_P(CollectivesArrivalTest, WithdrawnWaitersRearriveAndLaterRoundsSucceed) {
    // Every rank but rank 0 times out of its first arrival and withdraws
    // with an error.  Rank 0 arrives only then: it must complete the
    // others' next arrival (not a stale count), and 100 more rounds must
    // succeed on every rank, each ordering the stamps written before it.
    constexpr int kRanks = 4;
    constexpr int kRounds = 101;
    const Flavor flavor = GetParam();
    instr::Registry reg;
    World::Config cfg;
    cfg.flavor = flavor;
    cfg.wait_deadline_seconds = 1.0;
    World world(reg, cfg);
    std::atomic<int> withdrawn{0};
    std::atomic<int> finished{0};
    // Double-buffered by round parity: a rank cannot write round r+2's
    // stamps before every rank has left round r+1, so plain ints are
    // race-free exactly when the arrival orders side effects.
    std::vector<int> stamps[2] = {std::vector<int>(kRanks, -1),
                                  std::vector<int>(kRanks, -1)};
    world.register_program("prog", [&](Rank& r, const std::vector<std::string>&) {
        ASSERT_EQ(r.MPI_Init(), MPI_SUCCESS);
        const Comm w = r.MPI_COMM_WORLD();
        int me = 0;
        r.MPI_Comm_rank(w, &me);
        int cell = 0;
        Win win = MPI_WIN_NULL;
        if (flavor == Flavor::Mpich)
            ASSERT_EQ(r.MPI_Win_create(&cell, sizeof cell, 1, MPI_INFO_NULL, w, &win),
                      MPI_SUCCESS);
        const auto arrive = [&] {
            return flavor == Flavor::Mpich ? r.MPI_Win_fence(0, win) : r.MPI_Barrier(w);
        };
        if (me == 0) {
            while (withdrawn.load() < kRanks - 1) sched::sleep_for(std::chrono::milliseconds(1));
        } else {
            EXPECT_NE(arrive(), MPI_SUCCESS) << "rank " << me << " should time out";
            ++withdrawn;
        }
        for (int round = 0; round < kRounds; ++round) {
            std::vector<int>& st = stamps[round & 1];
            st[static_cast<std::size_t>(me)] = round;
            ASSERT_EQ(arrive(), MPI_SUCCESS) << "rank " << me << " round " << round;
            for (int i = 0; i < kRanks; ++i)
                ASSERT_EQ(st[static_cast<std::size_t>(i)], round)
                    << "rank " << me << " round " << round << " stamp of " << i;
        }
        if (win != MPI_WIN_NULL) ASSERT_EQ(r.MPI_Win_free(&win), MPI_SUCCESS);
        ++finished;
        r.MPI_Finalize();
    });
    LaunchPlan plan;
    plan.placements.assign(kRanks, "node0");
    launch(world, "prog", {}, plan);
    world.join_all();
    EXPECT_EQ(withdrawn.load(), kRanks - 1);
    EXPECT_EQ(finished.load(), kRanks);
    EXPECT_TRUE(world.epitaphs().empty());
}

// The case names keep the prefix they had when a second rank engine ran
// the same cases, so their ids stay stable.
INSTANTIATE_TEST_SUITE_P(Engines, CollectivesArrivalTest,
                         ::testing::Values(Flavor::Lam, Flavor::Mpich),
                         [](const ::testing::TestParamInfo<Flavor>& i) {
                             return i.param == Flavor::Lam ? "FiberLamBarrier"
                                                           : "FiberMpichFence";
                         });

class CollectivesInterleavedTest : public ::testing::TestWithParam<Flavor> {};

TEST_P(CollectivesInterleavedTest, BarrierAllreduceAndFenceOnWorldAndDupAt256Ranks) {
    // 256 fiber ranks, 8 per node, interleave MPI_Barrier, MPI_Allreduce
    // and fence epochs on MPI_COMM_WORLD and on a dup of it for 200
    // rounds.  On LAM the barrier and the fence's closing barrier ride
    // the communicator's arrival gate; on MPICH the fence rides the
    // window's.  Every value is checked every round.
    constexpr int kRanks = 256;
    constexpr int kRounds = 200;
    instr::Registry reg;
    World::Config cfg;
    cfg.flavor = GetParam();
    World world(reg, cfg);
    // stamps[comm][round parity][rank]; see the withdraw test.
    std::vector<int> stamps[2][2];
    for (auto& per_comm : stamps)
        for (auto& st : per_comm) st.assign(kRanks, -1);
    std::atomic<int> finished{0};
    world.register_program("prog", [&](Rank& r, const std::vector<std::string>&) {
        ASSERT_EQ(r.MPI_Init(), MPI_SUCCESS);
        const Comm world_comm = r.MPI_COMM_WORLD();
        Comm dup = MPI_COMM_NULL;
        ASSERT_EQ(r.MPI_Comm_dup(world_comm, &dup), MPI_SUCCESS);
        const Comm comms[2] = {world_comm, dup};
        int me = 0;
        r.MPI_Comm_rank(world_comm, &me);
        const int right = (me + 1) % kRanks;
        const int left = (me + kRanks - 1) % kRanks;
        long cells[2] = {-1, -1};
        Win wins[2] = {MPI_WIN_NULL, MPI_WIN_NULL};
        for (int c = 0; c < 2; ++c)
            ASSERT_EQ(r.MPI_Win_create(&cells[c], sizeof(long), sizeof(long), MPI_INFO_NULL,
                                       comms[c], &wins[c]),
                      MPI_SUCCESS);
        for (int round = 0; round < kRounds; ++round) {
            for (int c = 0; c < 2; ++c) {
                const Comm comm = comms[c];
                std::vector<int>& st = stamps[c][round & 1];
                st[static_cast<std::size_t>(me)] = round;
                ASSERT_EQ(r.MPI_Barrier(comm), MPI_SUCCESS);
                for (int i = 0; i < kRanks; ++i)
                    ASSERT_EQ(st[static_cast<std::size_t>(i)], round)
                        << "rank " << me << " round " << round << " comm " << c;

                const long in[2] = {me + round, me};
                long sum[2] = {0, 0};
                ASSERT_EQ(r.MPI_Allreduce(in, sum, 2, MPI_LONG, MPI_SUM, comm), MPI_SUCCESS);
                const long base = static_cast<long>(kRanks) * (kRanks - 1) / 2;
                ASSERT_EQ(sum[0], base + static_cast<long>(kRanks) * round);
                ASSERT_EQ(sum[1], base);
                long top = 0;
                ASSERT_EQ(r.MPI_Allreduce(&in[0], &top, 1, MPI_LONG, MPI_MAX, comm),
                          MPI_SUCCESS);
                ASSERT_EQ(top, kRanks - 1 + round);

                const long put = 1000L * me + round;
                ASSERT_EQ(r.MPI_Win_fence(0, wins[c]), MPI_SUCCESS);
                ASSERT_EQ(r.MPI_Put(&put, 1, MPI_LONG, right, 0, 1, MPI_LONG, wins[c]),
                          MPI_SUCCESS);
                ASSERT_EQ(r.MPI_Win_fence(0, wins[c]), MPI_SUCCESS);
                ASSERT_EQ(cells[c], 1000L * left + round)
                    << "rank " << me << " round " << round << " comm " << c;
            }
        }
        for (Win& w : wins) ASSERT_EQ(r.MPI_Win_free(&w), MPI_SUCCESS);
        ASSERT_EQ(r.MPI_Comm_free(&dup), MPI_SUCCESS);
        ++finished;
        r.MPI_Finalize();
    });
    LaunchPlan plan;
    for (int i = 0; i < kRanks; ++i) plan.placements.push_back("node" + std::to_string(i / 8));
    launch(world, "prog", {}, plan);
    world.join_all();
    EXPECT_EQ(finished.load(), kRanks);
    EXPECT_TRUE(world.epitaphs().empty());
}

INSTANTIATE_TEST_SUITE_P(Flavors, CollectivesInterleavedTest,
                         ::testing::Values(Flavor::Lam, Flavor::Mpich),
                         [](const ::testing::TestParamInfo<Flavor>& i) {
                             return i.param == Flavor::Lam ? "Lam" : "Mpich";
                         });

TEST(CollectivesFlavor, MpichBarrierUsesPmpiSendrecv) {
    // The MPICH flavor implements MPI_Barrier on PMPI_Sendrecv -- the
    // structure the paper's PC exposes (Fig 9).  LAM's does not.
    for (const Flavor flavor : {Flavor::Lam, Flavor::Mpich}) {
        instr::Registry reg;
        World::Config cfg;
        cfg.flavor = flavor;
        World world(reg, cfg);
        std::atomic<int> sendrecvs{0};
        world.register_program("prog", [&](Rank& r, const std::vector<std::string>&) {
            r.MPI_Init();
            r.MPI_Barrier(r.MPI_COMM_WORLD());
            r.MPI_Finalize();
        });
        reg.insert(reg.find("PMPI_Sendrecv"), instr::Where::Entry,
                   [&](const instr::CallContext&) { ++sendrecvs; });
        LaunchPlan plan;
        plan.placements = {"node0", "node0", "node0", "node0"};
        launch(world, "prog", {}, plan);
        world.join_all();
        if (flavor == Flavor::Mpich)
            EXPECT_GT(sendrecvs.load(), 0) << "MPICH barrier should use PMPI_Sendrecv";
        else
            EXPECT_EQ(sendrecvs.load(), 0) << "LAM barrier should not";
    }
}

}  // namespace
}  // namespace m2p::simmpi
