// Collective correctness matrix: every collective x {1, 2, 5, 16, 64,
// 256} ranks x both flavors, plus intercommunicator error returns and
// the byte-metric exactness the paper-validation runs rely on.  One
// rank is the degenerate tree with no messages; the 5- and 16-rank
// points exercise the non-power-of-two folding and the deepest tree
// levels of the binomial / recursive-doubling algorithms; 64 and 256
// run on the fiber engine far past the old thread-per-rank wall, with
// ranks spread 8 per simulated node so the node-aware allreduce takes
// its hierarchical (shm cell + cross-node leader) path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/metrics.hpp"
#include "core/tool.hpp"
#include "simmpi/launcher.hpp"
#include "simmpi/rank.hpp"
#include "simmpi/world.hpp"

namespace m2p::simmpi {
namespace {

// One matrix cell: a flavor.  `shape` is always 1, the tree family
// the transport runs; it stays in the parameter because ctest names
// each cell after the parameter's bytes.
struct MatrixParam {
    Flavor flavor;
    int shape = 1;
};

std::string param_name(const ::testing::TestParamInfo<MatrixParam>& i) {
    return i.param.flavor == Flavor::Lam ? "LamTree" : "MpichTree";
}

const auto kMatrixCells = ::testing::Values(MatrixParam{Flavor::Lam},
                                            MatrixParam{Flavor::Mpich});

class CollectivesMatrixTest : public ::testing::TestWithParam<MatrixParam> {
protected:
    void run(int n, std::function<void(Rank&)> fn) {
        instr::Registry reg;
        World::Config cfg;
        cfg.flavor = GetParam().flavor;
        World world(reg, cfg);
        world.register_program("prog",
                               [fn](Rank& r, const std::vector<std::string>&) { fn(r); });
        LaunchPlan plan;
        for (int i = 0; i < n; ++i)
            plan.placements.push_back("node" + std::to_string(i / 8));
        launch(world, "prog", {}, plan);
        world.join_all();
    }

    // The rank counts every matrix cell runs at: a one-rank comm (the
    // tree with no edges), the smallest exchange, a non-power-of-two
    // size (recursive-doubling fold path), a 4-level binomial tree,
    // and two fiber-engine scale points.
    static const std::vector<int>& sizes() {
        static const std::vector<int> s = {1, 2, 5, 16, 64, 256};
        return s;
    }
};

/// Roots to exercise for rooted collectives: every rank while that is
/// cheap, the edges and middle at scale (an all-roots sweep at 256
/// ranks would be quadratic in messages for no added coverage).
std::vector<int> roots_for(int size) {
    if (size <= 16) {
        std::vector<int> all(static_cast<std::size_t>(size));
        for (int i = 0; i < size; ++i) all[static_cast<std::size_t>(i)] = i;
        return all;
    }
    return {0, size / 2, size - 1};
}

TEST_P(CollectivesMatrixTest, BarrierSynchronizes) {
    for (int n : sizes()) {
        static std::atomic<int> arrived{0};
        arrived = 0;
        run(n, [n](Rank& r) {
            r.MPI_Init();
            const Comm w = r.MPI_COMM_WORLD();
            for (int round = 0; round < 10; ++round) {
                ++arrived;
                ASSERT_EQ(r.MPI_Barrier(w), MPI_SUCCESS);
                // Every rank incremented before anyone left the barrier.
                EXPECT_GE(arrived.load(), (round + 1) * n);
                ASSERT_EQ(r.MPI_Barrier(w), MPI_SUCCESS);
            }
            r.MPI_Finalize();
        });
    }
}

TEST_P(CollectivesMatrixTest, BcastFromEveryRoot) {
    for (int n : sizes()) {
        run(n, [](Rank& r) {
            r.MPI_Init();
            const Comm w = r.MPI_COMM_WORLD();
            int me = 0, size = 0;
            r.MPI_Comm_rank(w, &me);
            r.MPI_Comm_size(w, &size);
            for (const int root : roots_for(size)) {
                std::vector<std::int32_t> v(17, me == root ? 7000 + root : -1);
                ASSERT_EQ(r.MPI_Bcast(v.data(), 17, MPI_INT, root, w), MPI_SUCCESS);
                for (std::int32_t x : v) ASSERT_EQ(x, 7000 + root);
            }
            r.MPI_Finalize();
        });
    }
}

TEST_P(CollectivesMatrixTest, ReduceFromEveryRoot) {
    for (int n : sizes()) {
        run(n, [](Rank& r) {
            r.MPI_Init();
            const Comm w = r.MPI_COMM_WORLD();
            int me = 0, size = 0;
            r.MPI_Comm_rank(w, &me);
            r.MPI_Comm_size(w, &size);
            for (const int root : roots_for(size)) {
                const std::int32_t v[2] = {me + 1, 2 * (me + 1)};
                std::int32_t sum[2] = {0, 0};
                ASSERT_EQ(r.MPI_Reduce(v, sum, 2, MPI_INT, MPI_SUM, root, w),
                          MPI_SUCCESS);
                std::int32_t mx = 0;
                const std::int32_t mine = me * 3;
                ASSERT_EQ(r.MPI_Reduce(&mine, &mx, 1, MPI_INT, MPI_MAX, root, w),
                          MPI_SUCCESS);
                if (me == root) {
                    EXPECT_EQ(sum[0], size * (size + 1) / 2);
                    EXPECT_EQ(sum[1], size * (size + 1));
                    EXPECT_EQ(mx, (size - 1) * 3);
                }
            }
            r.MPI_Finalize();
        });
    }
}

TEST_P(CollectivesMatrixTest, AllreduceSumMaxMinProd) {
    for (int n : sizes()) {
        run(n, [](Rank& r) {
            r.MPI_Init();
            const Comm w = r.MPI_COMM_WORLD();
            int me = 0, size = 0;
            r.MPI_Comm_rank(w, &me);
            r.MPI_Comm_size(w, &size);
            std::vector<double> v(9, me + 1.0);
            std::vector<double> sum(9), mx(9), mn(9);
            ASSERT_EQ(r.MPI_Allreduce(v.data(), sum.data(), 9, MPI_DOUBLE, MPI_SUM, w),
                      MPI_SUCCESS);
            ASSERT_EQ(r.MPI_Allreduce(v.data(), mx.data(), 9, MPI_DOUBLE, MPI_MAX, w),
                      MPI_SUCCESS);
            ASSERT_EQ(r.MPI_Allreduce(v.data(), mn.data(), 9, MPI_DOUBLE, MPI_MIN, w),
                      MPI_SUCCESS);
            for (int i = 0; i < 9; ++i) {
                EXPECT_DOUBLE_EQ(sum[i], size * (size + 1) / 2.0);
                EXPECT_DOUBLE_EQ(mx[i], size);
                EXPECT_DOUBLE_EQ(mn[i], 1.0);
            }
            r.MPI_Finalize();
        });
    }
}

TEST_P(CollectivesMatrixTest, GatherFromEveryRoot) {
    for (int n : sizes()) {
        run(n, [](Rank& r) {
            r.MPI_Init();
            const Comm w = r.MPI_COMM_WORLD();
            int me = 0, size = 0;
            r.MPI_Comm_rank(w, &me);
            r.MPI_Comm_size(w, &size);
            for (const int root : roots_for(size)) {
                const std::int32_t mine[2] = {100 * me, 100 * me + 1};
                std::vector<std::int32_t> all(static_cast<std::size_t>(2 * size), -1);
                ASSERT_EQ(r.MPI_Gather(mine, 2, MPI_INT, all.data(), 2, MPI_INT, root, w),
                          MPI_SUCCESS);
                if (me == root) {
                    for (int src = 0; src < size; ++src) {
                        ASSERT_EQ(all[2 * src], 100 * src);
                        ASSERT_EQ(all[2 * src + 1], 100 * src + 1);
                    }
                }
            }
            r.MPI_Finalize();
        });
    }
}

TEST_P(CollectivesMatrixTest, ScatterFromEveryRoot) {
    for (int n : sizes()) {
        run(n, [](Rank& r) {
            r.MPI_Init();
            const Comm w = r.MPI_COMM_WORLD();
            int me = 0, size = 0;
            r.MPI_Comm_rank(w, &me);
            r.MPI_Comm_size(w, &size);
            for (const int root : roots_for(size)) {
                std::vector<std::int32_t> all;
                if (me == root)
                    for (int dst = 0; dst < size; ++dst) {
                        all.push_back(10 * dst);
                        all.push_back(10 * dst + 1);
                    }
                std::int32_t mine[2] = {-1, -1};
                ASSERT_EQ(r.MPI_Scatter(all.data(), 2, MPI_INT, mine, 2, MPI_INT, root, w),
                          MPI_SUCCESS);
                ASSERT_EQ(mine[0], 10 * me);
                ASSERT_EQ(mine[1], 10 * me + 1);
            }
            r.MPI_Finalize();
        });
    }
}

TEST_P(CollectivesMatrixTest, AllgatherEveryRankSeesAll) {
    for (int n : sizes()) {
        run(n, [](Rank& r) {
            r.MPI_Init();
            const Comm w = r.MPI_COMM_WORLD();
            int me = 0, size = 0;
            r.MPI_Comm_rank(w, &me);
            r.MPI_Comm_size(w, &size);
            const std::int32_t mine[3] = {me, me * me, -me};
            std::vector<std::int32_t> all(static_cast<std::size_t>(3 * size), -777);
            ASSERT_EQ(r.MPI_Allgather(mine, 3, MPI_INT, all.data(), 3, MPI_INT, w),
                      MPI_SUCCESS);
            for (int src = 0; src < size; ++src) {
                ASSERT_EQ(all[3 * src], src);
                ASSERT_EQ(all[3 * src + 1], src * src);
                ASSERT_EQ(all[3 * src + 2], -src);
            }
            r.MPI_Finalize();
        });
    }
}

TEST_P(CollectivesMatrixTest, MixedCollectiveSequenceStaysOrdered) {
    // Back-to-back different collectives must not cross tags: the
    // reserved-tag allocator hands each call its own window.
    for (int n : sizes()) {
        run(n, [](Rank& r) {
            r.MPI_Init();
            const Comm w = r.MPI_COMM_WORLD();
            int me = 0, size = 0;
            r.MPI_Comm_rank(w, &me);
            r.MPI_Comm_size(w, &size);
            for (int round = 0; round < 5; ++round) {
                int v = me == 0 ? round : -1;
                ASSERT_EQ(r.MPI_Bcast(&v, 1, MPI_INT, 0, w), MPI_SUCCESS);
                ASSERT_EQ(v, round);
                int sum = 0;
                ASSERT_EQ(r.MPI_Allreduce(&me, &sum, 1, MPI_INT, MPI_SUM, w),
                          MPI_SUCCESS);
                ASSERT_EQ(sum, size * (size - 1) / 2);
                std::vector<std::int32_t> all(static_cast<std::size_t>(size));
                ASSERT_EQ(r.MPI_Allgather(&me, 1, MPI_INT, all.data(), 1, MPI_INT, w),
                          MPI_SUCCESS);
                for (int src = 0; src < size; ++src) ASSERT_EQ(all[src], src);
            }
            r.MPI_Finalize();
        });
    }
}

TEST_P(CollectivesMatrixTest, IntercommCollectivesReturnErrComm) {
    // Collectives are defined on intracommunicators only in this
    // engine; an intercomm must be rejected, not deadlock.  The
    // intercomm is built directly through the World API because the
    // Mpich flavor (paper-accurately) has no MPI_Comm_spawn.
    instr::Registry reg;
    World::Config cfg;
    cfg.flavor = GetParam().flavor;
    World world(reg, cfg);
    const Comm inter = world.create_comm({0}, {1}, /*is_inter=*/true);
    world.register_program("prog", [inter](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        int v = 0, out = 0;
        EXPECT_EQ(r.MPI_Barrier(inter), MPI_ERR_COMM);
        EXPECT_EQ(r.MPI_Bcast(&v, 1, MPI_INT, 0, inter), MPI_ERR_COMM);
        EXPECT_EQ(r.MPI_Reduce(&v, &out, 1, MPI_INT, MPI_SUM, 0, inter), MPI_ERR_COMM);
        EXPECT_EQ(r.MPI_Allreduce(&v, &out, 1, MPI_INT, MPI_SUM, inter), MPI_ERR_COMM);
        EXPECT_EQ(r.MPI_Gather(&v, 1, MPI_INT, &out, 1, MPI_INT, 0, inter), MPI_ERR_COMM);
        EXPECT_EQ(r.MPI_Scatter(&v, 1, MPI_INT, &out, 1, MPI_INT, 0, inter),
                  MPI_ERR_COMM);
        EXPECT_EQ(r.MPI_Allgather(&v, 1, MPI_INT, &out, 1, MPI_INT, inter), MPI_ERR_COMM);
        r.MPI_Finalize();
    });
    LaunchPlan plan;
    plan.placements = {"node0", "node0"};
    launch(world, "prog", {}, plan);
    world.join_all();
}

TEST_P(CollectivesMatrixTest, SpawnedIntercommRejectedLamOnly) {
    // Same rejection via a real MPI_Comm_spawn intercomm; the Lam
    // flavor is the one with dynamic process creation.
    if (GetParam().flavor != Flavor::Lam) GTEST_SKIP() << "spawn is Lam-only";
    instr::Registry reg;
    World::Config cfg;
    cfg.flavor = GetParam().flavor;
    World world(reg, cfg);
    world.register_program("child", [](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        Comm parent = MPI_COMM_NULL;
        ASSERT_EQ(r.MPI_Comm_get_parent(&parent), MPI_SUCCESS);
        int v = 0;
        EXPECT_EQ(r.MPI_Barrier(parent), MPI_ERR_COMM);
        EXPECT_EQ(r.MPI_Bcast(&v, 1, MPI_INT, 0, parent), MPI_ERR_COMM);
        r.MPI_Finalize();
    });
    world.register_program("parent", [](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        Comm inter = MPI_COMM_NULL;
        std::vector<int> errcodes;
        ASSERT_EQ(r.MPI_Comm_spawn("child", {}, 2, MPI_INFO_NULL, 0, r.MPI_COMM_WORLD(),
                                   &inter, &errcodes),
                  MPI_SUCCESS);
        int v = 0, out = 0;
        EXPECT_EQ(r.MPI_Barrier(inter), MPI_ERR_COMM);
        EXPECT_EQ(r.MPI_Allreduce(&v, &out, 1, MPI_INT, MPI_SUM, inter), MPI_ERR_COMM);
        EXPECT_EQ(r.MPI_Gather(&v, 1, MPI_INT, &out, 1, MPI_INT, 0, inter), MPI_ERR_COMM);
        r.MPI_Finalize();
    });
    LaunchPlan plan;
    plan.placements = {"node0"};
    launch(world, "parent", {}, plan);
    world.join_all();
}

TEST_P(CollectivesMatrixTest, GatherScatterErrorsOnBadArguments) {
    run(2, [](Rank& r) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int me = 0;
        r.MPI_Comm_rank(w, &me);
        std::int32_t v = 0;
        std::int32_t out[2] = {0, 0};
        EXPECT_EQ(r.MPI_Gather(&v, 1, MPI_INT, out, 1, MPI_INT, 9, w), MPI_ERR_RANK);
        EXPECT_EQ(r.MPI_Gather(&v, -1, MPI_INT, out, 1, MPI_INT, 0, w), MPI_ERR_COUNT);
        EXPECT_EQ(r.MPI_Scatter(out, 1, MPI_INT, &v, 1, MPI_DATATYPE_NULL, 0, w),
                  MPI_ERR_TYPE);
        EXPECT_EQ(r.MPI_Allgather(&v, 1, MPI_INT, out, -1, MPI_INT, w), MPI_ERR_COUNT);
        EXPECT_EQ(r.MPI_Allgather(&v, 1, MPI_INT, out, 1, MPI_INT, 999), MPI_ERR_COMM);
        r.MPI_Finalize();
    });
}

INSTANTIATE_TEST_SUITE_P(Matrix, CollectivesMatrixTest, kMatrixCells, param_name);

// ---------------------------------------------------------------------------
// Tool-facing byte metrics stay exact with collectives interleaved,
// because the MDL counters instrument the MPI pt2pt entry points, not
// the transport internals.
// ---------------------------------------------------------------------------

class ByteMetricsTest : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(ByteMetricsTest, Pt2ptByteCountersStayExact) {
    instr::Registry reg;
    World::Config cfg;
    cfg.flavor = GetParam().flavor;
    World world(reg, cfg);
    core::PerfTool tool(world, core::PerfTool::Options{});
    auto sent = tool.metrics().request("msg_bytes_sent", core::Focus{});
    auto recv = tool.metrics().request("msg_bytes_recv", core::Focus{});
    ASSERT_NE(sent, nullptr);
    ASSERT_NE(recv, nullptr);

    constexpr int kMsgs = 40, kBytes = 24;
    world.register_program("prog", [](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int me = 0, size = 0;
        r.MPI_Comm_rank(w, &me);
        r.MPI_Comm_size(w, &size);
        std::vector<char> buf(kBytes, 'b');
        // Interleave collectives with the counted pt2pt traffic: the
        // internal collective messages must not leak into the MPI-level
        // byte counters.
        for (int i = 0; i < kMsgs; ++i) {
            if (me == 0)
                r.MPI_Send(buf.data(), kBytes, MPI_BYTE, 1, 5, w);
            else if (me == 1)
                r.MPI_Recv(buf.data(), kBytes, MPI_BYTE, 0, 5, w, nullptr);
            if (i % 8 == 0) {
                int sum = 0;
                r.MPI_Allreduce(&me, &sum, 1, MPI_INT, MPI_SUM, w);
                int v = me == 0 ? i : -1;
                r.MPI_Bcast(&v, 1, MPI_INT, 0, w);
            }
        }
        r.MPI_Finalize();
    });
    core::run_app_async(tool, "prog", {}, 4);
    world.join_all();
    tool.flush();

    EXPECT_DOUBLE_EQ(sent->total(), static_cast<double>(kMsgs) * kBytes);
    EXPECT_DOUBLE_EQ(recv->total(), static_cast<double>(kMsgs) * kBytes);
    tool.metrics().release(recv);
    tool.metrics().release(sent);
}

INSTANTIATE_TEST_SUITE_P(Matrix, ByteMetricsTest, kMatrixCells, param_name);

}  // namespace
}  // namespace m2p::simmpi
