// Table-1 RMA counter matrix: {Put, Get, Accumulate} x {fence, PSCW,
// lock-shared, lock-exclusive, fence epochs then own-target lock
// epochs on one window} x {2, 5, 16, 64, 256} ranks x {Lam, Mpich},
// asserting the per-window op/byte counters against hand-derived
// counts.  Lam runs every transfer on the direct-apply path; Mpich
// routes PSCW transfers through the staged queue -- the totals must be
// bit-identical either way (the epoch-batched flush contract).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <tuple>
#include <vector>

#include "simmpi/launcher.hpp"
#include "simmpi/rank.hpp"
#include "simmpi/world.hpp"

namespace m2p::simmpi {
namespace {

enum class SyncMode { Fence, Pscw, LockShared, LockExcl, FenceThenLock };

const char* mode_name(SyncMode m) {
    switch (m) {
        case SyncMode::Fence: return "Fence";
        case SyncMode::Pscw: return "Pscw";
        case SyncMode::LockShared: return "LockShared";
        case SyncMode::LockExcl: return "LockExcl";
        case SyncMode::FenceThenLock: return "FenceThenLock";
    }
    return "?";
}

/// Lock-mode iterations per rank (kept small: 16-rank cases still run
/// 16 * kIters serialized critical sections).
constexpr int kIters = 4;
/// Fence epochs FenceThenLock runs before its lock epochs.
constexpr int kFenceEpochs = 3;

class RmaMatrixTest : public ::testing::TestWithParam<std::tuple<Flavor, int, SyncMode>> {
protected:
    /// Runs @p fn on @p n ranks and returns the final Table-1 snapshot
    /// of the window the program published via @p win_out.
    RmaCounterSnapshot run(int n, std::function<void(Rank&, std::atomic<Win>&)> fn) {
        instr::Registry reg;
        World::Config cfg;
        cfg.flavor = std::get<0>(GetParam());
        World world(reg, cfg);
        std::atomic<Win> win_out{MPI_WIN_NULL};
        world.register_program("prog", [&](Rank& r, const std::vector<std::string>&) {
            fn(r, win_out);
        });
        LaunchPlan plan;
        for (int i = 0; i < n; ++i) plan.placements.push_back("node0");
        launch(world, "prog", {}, plan);
        world.join_all();
        EXPECT_NE(win_out.load(), MPI_WIN_NULL);
        return world.win_rma_counters(win_out.load());
    }
};

TEST_P(RmaMatrixTest, CountersMatchHandDerived) {
    const auto [flavor, n, mode] = GetParam();
    if (mode == SyncMode::Pscw && n < 2) GTEST_SKIP();

    RmaCounterSnapshot snap;
    switch (mode) {
        case SyncMode::Fence: {
            // Every rank: 3 Puts (2 ints), 2 Gets (2 ints), 1 Acc
            // (2 ints) to its ring neighbor between two fences.
            snap = run(n, [n](Rank& r, std::atomic<Win>& win_out) {
                r.MPI_Init();
                const Comm w = r.MPI_COMM_WORLD();
                int me = 0;
                r.MPI_Comm_rank(w, &me);
                std::vector<std::int32_t> mem(8, 0);
                Win win = MPI_WIN_NULL;
                ASSERT_EQ(r.MPI_Win_create(mem.data(), 32, 4, MPI_INFO_NULL, w, &win),
                          MPI_SUCCESS);
                if (me == 0) win_out = win;
                ASSERT_EQ(r.MPI_Win_fence(0, win), MPI_SUCCESS);
                const int t = (me + 1) % n;
                const std::int32_t p1[2] = {me * 100 + 1, me * 100 + 2};
                const std::int32_t p2[2] = {me * 100 + 3, me * 100 + 4};
                const std::int32_t p3[2] = {me * 100 + 5, me * 100 + 6};
                const std::int32_t ac[2] = {me + 1, me + 2};
                std::int32_t got[4] = {0, 0, 0, 0};
                ASSERT_EQ(r.MPI_Put(p1, 2, MPI_INT, t, 0, 2, MPI_INT, win), MPI_SUCCESS);
                ASSERT_EQ(r.MPI_Put(p2, 2, MPI_INT, t, 2, 2, MPI_INT, win), MPI_SUCCESS);
                ASSERT_EQ(r.MPI_Put(p3, 2, MPI_INT, t, 4, 2, MPI_INT, win), MPI_SUCCESS);
                ASSERT_EQ(r.MPI_Get(got, 2, MPI_INT, t, 0, 2, MPI_INT, win), MPI_SUCCESS);
                ASSERT_EQ(r.MPI_Get(got + 2, 2, MPI_INT, t, 2, 2, MPI_INT, win),
                          MPI_SUCCESS);
                ASSERT_EQ(r.MPI_Accumulate(ac, 2, MPI_INT, t, 6, 2, MPI_INT, MPI_SUM, win),
                          MPI_SUCCESS);
                ASSERT_EQ(r.MPI_Win_fence(0, win), MPI_SUCCESS);
                const int prev = (me - 1 + n) % n;
                EXPECT_EQ(mem[0], prev * 100 + 1);
                EXPECT_EQ(mem[5], prev * 100 + 6);
                EXPECT_EQ(mem[6], prev + 1);
                EXPECT_EQ(mem[7], prev + 2);
                ASSERT_EQ(r.MPI_Win_free(&win), MPI_SUCCESS);
                r.MPI_Finalize();
            });
            const std::int64_t N = n;
            EXPECT_EQ(snap.put_ops, 3 * N);
            EXPECT_EQ(snap.put_bytes, 24 * N);
            EXPECT_EQ(snap.get_ops, 2 * N);
            EXPECT_EQ(snap.get_bytes, 16 * N);
            EXPECT_EQ(snap.acc_ops, N);
            EXPECT_EQ(snap.acc_bytes, 8 * N);
            // Per rank: Win_create + 2 fences + Win_free.
            EXPECT_EQ(snap.sync_ops, 4 * N);
            EXPECT_DOUBLE_EQ(snap.pt_sync_wait, 0.0);
            break;
        }
        case SyncMode::Pscw: {
            // Rank 0 exposes (post/wait); every other rank start/
            // 2 Puts / 1 Get / 1 Acc / complete against it.
            snap = run(n, [n](Rank& r, std::atomic<Win>& win_out) {
                r.MPI_Init();
                const Comm w = r.MPI_COMM_WORLD();
                int me = 0;
                r.MPI_Comm_rank(w, &me);
                std::vector<std::int32_t> mem(static_cast<std::size_t>(2 * n + 2), 0);
                Win win = MPI_WIN_NULL;
                ASSERT_EQ(r.MPI_Win_create(mem.data(),
                                           static_cast<std::int64_t>(mem.size()) * 4, 4,
                                           MPI_INFO_NULL, w, &win),
                          MPI_SUCCESS);
                if (me == 0) win_out = win;
                Group wg = MPI_GROUP_NULL;
                r.MPI_Comm_group(w, &wg);
                if (me == 0) {
                    std::vector<int> origins;
                    for (int i = 1; i < n; ++i) origins.push_back(i);
                    Group og = MPI_GROUP_NULL;
                    r.MPI_Group_incl(wg, n - 1, origins.data(), &og);
                    ASSERT_EQ(r.MPI_Win_post(og, 0, win), MPI_SUCCESS);
                    ASSERT_EQ(r.MPI_Win_wait(win), MPI_SUCCESS);
                    for (int i = 1; i < n; ++i) {
                        EXPECT_EQ(mem[static_cast<std::size_t>(i)], i + 50);
                        EXPECT_EQ(mem[static_cast<std::size_t>(n + i)], i + 60);
                    }
                    EXPECT_EQ(mem[0], n - 1);  // each origin accumulated 1
                    r.MPI_Group_free(&og);
                } else {
                    const int zero = 0;
                    Group tg = MPI_GROUP_NULL;
                    r.MPI_Group_incl(wg, 1, &zero, &tg);
                    ASSERT_EQ(r.MPI_Win_start(tg, 0, win), MPI_SUCCESS);
                    const std::int32_t v1 = me + 50, v2 = me + 60, one = 1;
                    std::int32_t got = -1;
                    ASSERT_EQ(r.MPI_Put(&v1, 1, MPI_INT, 0, me, 1, MPI_INT, win),
                              MPI_SUCCESS);
                    ASSERT_EQ(r.MPI_Put(&v2, 1, MPI_INT, 0, n + me, 1, MPI_INT, win),
                              MPI_SUCCESS);
                    ASSERT_EQ(r.MPI_Get(&got, 1, MPI_INT, 0, 2 * n + 1, 1, MPI_INT, win),
                              MPI_SUCCESS);
                    ASSERT_EQ(r.MPI_Accumulate(&one, 1, MPI_INT, 0, 0, 1, MPI_INT,
                                               MPI_SUM, win),
                              MPI_SUCCESS);
                    ASSERT_EQ(r.MPI_Win_complete(win), MPI_SUCCESS);
                    EXPECT_EQ(got, 0);  // slot 2n+1 is never written
                    r.MPI_Group_free(&tg);
                }
                r.MPI_Barrier(w);
                ASSERT_EQ(r.MPI_Win_free(&win), MPI_SUCCESS);
                r.MPI_Finalize();
            });
            const std::int64_t O = n - 1;  // origins
            EXPECT_EQ(snap.put_ops, 2 * O);
            EXPECT_EQ(snap.put_bytes, 8 * O);
            EXPECT_EQ(snap.get_ops, O);
            EXPECT_EQ(snap.get_bytes, 4 * O);
            EXPECT_EQ(snap.acc_ops, O);
            EXPECT_EQ(snap.acc_bytes, 4 * O);
            // Rank 0: create + wait + free (post is not in the sync
            // funcset); origins: create + start + complete + free.
            EXPECT_EQ(snap.sync_ops, 3 + 4 * O);
            EXPECT_DOUBLE_EQ(snap.pt_sync_wait, 0.0);
            break;
        }
        case SyncMode::LockShared: {
            // Every rank, kIters times: lock-shared rank 0's window,
            // read two ints, unlock.
            snap = run(n, [n](Rank& r, std::atomic<Win>& win_out) {
                r.MPI_Init();
                const Comm w = r.MPI_COMM_WORLD();
                int me = 0;
                r.MPI_Comm_rank(w, &me);
                std::vector<std::int32_t> mem(static_cast<std::size_t>(n + 2),
                                              me == 0 ? 7 : 0);
                Win win = MPI_WIN_NULL;
                ASSERT_EQ(r.MPI_Win_create(mem.data(),
                                           static_cast<std::int64_t>(mem.size()) * 4, 4,
                                           MPI_INFO_NULL, w, &win),
                          MPI_SUCCESS);
                if (me == 0) win_out = win;
                for (int it = 0; it < kIters; ++it) {
                    ASSERT_EQ(r.MPI_Win_lock(MPI_LOCK_SHARED, 0, 0, win), MPI_SUCCESS);
                    std::int32_t g0 = -1, g1 = -1;
                    ASSERT_EQ(r.MPI_Get(&g0, 1, MPI_INT, 0, 0, 1, MPI_INT, win),
                              MPI_SUCCESS);
                    ASSERT_EQ(r.MPI_Get(&g1, 1, MPI_INT, 0, 1, 1, MPI_INT, win),
                              MPI_SUCCESS);
                    ASSERT_EQ(r.MPI_Win_unlock(0, win), MPI_SUCCESS);
                    EXPECT_EQ(g0, 7);
                    EXPECT_EQ(g1, 7);
                }
                r.MPI_Barrier(w);
                ASSERT_EQ(r.MPI_Win_free(&win), MPI_SUCCESS);
                r.MPI_Finalize();
            });
            const std::int64_t N = n;
            EXPECT_EQ(snap.put_ops, 0);
            EXPECT_EQ(snap.get_ops, 2 * kIters * N);
            EXPECT_EQ(snap.get_bytes, 8 * kIters * N);
            EXPECT_EQ(snap.acc_ops, 0);
            // Per rank: create + kIters * (lock + unlock) + free.
            EXPECT_EQ(snap.sync_ops, (2 + 2 * kIters) * N);
            break;
        }
        case SyncMode::LockExcl: {
            // Every rank, kIters times: lock-exclusive rank 0's
            // window, one Put and one Accumulate, unlock.
            snap = run(n, [n](Rank& r, std::atomic<Win>& win_out) {
                r.MPI_Init();
                const Comm w = r.MPI_COMM_WORLD();
                int me = 0;
                r.MPI_Comm_rank(w, &me);
                std::vector<std::int32_t> mem(static_cast<std::size_t>(n + 2), 0);
                Win win = MPI_WIN_NULL;
                ASSERT_EQ(r.MPI_Win_create(mem.data(),
                                           static_cast<std::int64_t>(mem.size()) * 4, 4,
                                           MPI_INFO_NULL, w, &win),
                          MPI_SUCCESS);
                if (me == 0) win_out = win;
                for (int it = 0; it < kIters; ++it) {
                    ASSERT_EQ(r.MPI_Win_lock(MPI_LOCK_EXCLUSIVE, 0, 0, win),
                              MPI_SUCCESS);
                    const std::int32_t v = me + 100, one = 1;
                    ASSERT_EQ(r.MPI_Put(&v, 1, MPI_INT, 0, me, 1, MPI_INT, win),
                              MPI_SUCCESS);
                    ASSERT_EQ(r.MPI_Accumulate(&one, 1, MPI_INT, 0, n, 1, MPI_INT,
                                               MPI_SUM, win),
                              MPI_SUCCESS);
                    ASSERT_EQ(r.MPI_Win_unlock(0, win), MPI_SUCCESS);
                }
                r.MPI_Barrier(w);
                if (me == 0) {
                    for (int i = 0; i < n; ++i)
                        EXPECT_EQ(mem[static_cast<std::size_t>(i)], i + 100);
                    EXPECT_EQ(mem[static_cast<std::size_t>(n)], kIters * n);
                }
                ASSERT_EQ(r.MPI_Win_free(&win), MPI_SUCCESS);
                r.MPI_Finalize();
            });
            const std::int64_t N = n;
            EXPECT_EQ(snap.put_ops, kIters * N);
            EXPECT_EQ(snap.put_bytes, 4 * kIters * N);
            EXPECT_EQ(snap.get_ops, 0);
            EXPECT_EQ(snap.acc_ops, kIters * N);
            EXPECT_EQ(snap.acc_bytes, 4 * kIters * N);
            EXPECT_EQ(snap.sync_ops, (2 + 2 * kIters) * N);
            break;
        }
        case SyncMode::FenceThenLock: {
            // Every rank: kFenceEpochs fence epochs of 2 Puts, 1 Get and
            // 1 Acc to its ring neighbor, then kIters exclusive-lock
            // epochs of 1 Put and 1 Acc on its own window slot -- both
            // sync modes flushing into one window's counters.
            snap = run(n, [n](Rank& r, std::atomic<Win>& win_out) {
                r.MPI_Init();
                const Comm w = r.MPI_COMM_WORLD();
                int me = 0;
                r.MPI_Comm_rank(w, &me);
                std::vector<std::int32_t> mem(8, 0);
                Win win = MPI_WIN_NULL;
                ASSERT_EQ(r.MPI_Win_create(mem.data(), 32, 4, MPI_INFO_NULL, w, &win),
                          MPI_SUCCESS);
                if (me == 0) win_out = win;
                const int t = (me + 1) % n;
                const std::int32_t v[2] = {me, me + 1}, one[2] = {1, 1};
                std::int32_t got[2] = {-1, -1};
                ASSERT_EQ(r.MPI_Win_fence(0, win), MPI_SUCCESS);
                for (int e = 0; e < kFenceEpochs; ++e) {
                    ASSERT_EQ(r.MPI_Put(v, 2, MPI_INT, t, 0, 2, MPI_INT, win),
                              MPI_SUCCESS);
                    ASSERT_EQ(r.MPI_Put(v, 2, MPI_INT, t, 2, 2, MPI_INT, win),
                              MPI_SUCCESS);
                    ASSERT_EQ(r.MPI_Get(got, 2, MPI_INT, t, 4, 2, MPI_INT, win),
                              MPI_SUCCESS);
                    ASSERT_EQ(r.MPI_Accumulate(one, 2, MPI_INT, t, 6, 2, MPI_INT,
                                               MPI_SUM, win),
                              MPI_SUCCESS);
                    ASSERT_EQ(r.MPI_Win_fence(0, win), MPI_SUCCESS);
                }
                EXPECT_EQ(got[0], 0);  // slots 4..5 are never written
                for (int it = 0; it < kIters; ++it) {
                    ASSERT_EQ(r.MPI_Win_lock(MPI_LOCK_EXCLUSIVE, me, 0, win),
                              MPI_SUCCESS);
                    ASSERT_EQ(r.MPI_Put(v, 2, MPI_INT, me, 0, 2, MPI_INT, win),
                              MPI_SUCCESS);
                    ASSERT_EQ(r.MPI_Accumulate(one, 2, MPI_INT, me, 6, 2, MPI_INT,
                                               MPI_SUM, win),
                              MPI_SUCCESS);
                    ASSERT_EQ(r.MPI_Win_unlock(me, win), MPI_SUCCESS);
                }
                r.MPI_Barrier(w);
                const int prev = (me - 1 + n) % n;
                EXPECT_EQ(mem[0], me);
                EXPECT_EQ(mem[2], prev);
                EXPECT_EQ(mem[6], kFenceEpochs + kIters);
                EXPECT_EQ(mem[7], kFenceEpochs + kIters);
                ASSERT_EQ(r.MPI_Win_free(&win), MPI_SUCCESS);
                r.MPI_Finalize();
            });
            const std::int64_t N = n, E = kFenceEpochs, L = kIters;
            EXPECT_EQ(snap.put_ops, (2 * E + L) * N);
            EXPECT_EQ(snap.put_bytes, 8 * (2 * E + L) * N);
            EXPECT_EQ(snap.get_ops, E * N);
            EXPECT_EQ(snap.get_bytes, 8 * E * N);
            EXPECT_EQ(snap.acc_ops, (E + L) * N);
            EXPECT_EQ(snap.acc_bytes, 8 * (E + L) * N);
            // Per rank: create + (1 + E) fences + L * (lock + unlock) + free.
            EXPECT_EQ(snap.sync_ops, (3 + E + 2 * L) * N);
            break;
        }
    }
    // Derived totals are computed from the base counters at snapshot
    // time -- always internally consistent.
    EXPECT_EQ(snap.rma_ops, snap.put_ops + snap.get_ops + snap.acc_ops);
    EXPECT_EQ(snap.rma_bytes, snap.put_bytes + snap.get_bytes + snap.acc_bytes);
    EXPECT_DOUBLE_EQ(snap.sync_wait, snap.at_sync_wait + snap.pt_sync_wait);
    EXPECT_GE(snap.at_sync_wait, 0.0);
    EXPECT_GE(snap.pt_sync_wait, 0.0);
}

std::string case_name(const ::testing::TestParamInfo<RmaMatrixTest::ParamType>& info) {
    const auto [flavor, n, mode] = info.param;
    return std::string(flavor == Flavor::Lam ? "Lam" : "Mpich") + "_n" +
           std::to_string(n) + "_" + mode_name(mode);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, RmaMatrixTest,
    ::testing::Combine(::testing::Values(Flavor::Lam, Flavor::Mpich),
                       ::testing::Values(2, 5, 16, 64, 256),
                       ::testing::Values(SyncMode::Fence, SyncMode::Pscw,
                                         SyncMode::LockShared, SyncMode::LockExcl,
                                         SyncMode::FenceThenLock)),
    case_name);

}  // namespace
}  // namespace m2p::simmpi
