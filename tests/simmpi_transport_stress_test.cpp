// Transport stress: hammer the lock-free handle tables and the
// mailbox fast path from many ranks at once while new processes are
// being spawned (table appends racing table reads).  Run under TSAN
// in CI -- the point is to give the sanitizer real concurrency to
// chew on, and to prove payload integrity under contention.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "simmpi/launcher.hpp"
#include "simmpi/rank.hpp"
#include "simmpi/world.hpp"

namespace m2p::simmpi {
namespace {

std::uint64_t payload_word(int src, int iter) {
    return (static_cast<std::uint64_t>(src) << 32) | static_cast<std::uint32_t>(iter);
}

// The collective shape the stress runs under.  The tree family is the
// transport's only one; the parameter stays because ctest names each
// case after the parameter's bytes.
enum class Shape { Tree = 1 };

class TransportStressTest : public ::testing::TestWithParam<Shape> {};

TEST_P(TransportStressTest, RingTrafficWhileSpawning) {
    // N ranks push blocking ring traffic and Isend/Wait bursts while
    // rank 0 repeatedly spawns child worlds whose ranks also exchange
    // messages: every spawn appends to the proc/mailbox tables that
    // the ring readers traverse lock-free.
    constexpr int kRing = 6;
    constexpr int kIters = 150;
    constexpr int kSpawns = 4;

    instr::Registry reg;
    World world(reg, World::Config{});
    std::atomic<int> child_ok{0};
    std::atomic<long> words_checked{0};

    world.register_program("child", [&](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int me = 0, n = 0;
        r.MPI_Comm_rank(w, &me);
        r.MPI_Comm_size(w, &n);
        // Children exchange among themselves too, on fresh handles.
        for (int i = 0; i < 20; ++i) {
            std::uint64_t out = payload_word(me + 100, i), in = 0;
            const int peer = (me + 1) % n;
            const int from = (me - 1 + n) % n;
            Status st;
            r.MPI_Sendrecv(&out, 8, MPI_BYTE, peer, 2, &in, 8, MPI_BYTE, from, 2, w, &st);
            ASSERT_EQ(in, payload_word(from + 100, i));
        }
        int sum = 0;
        r.MPI_Allreduce(&me, &sum, 1, MPI_INT, MPI_SUM, w);
        ASSERT_EQ(sum, n * (n - 1) / 2);
        ++child_ok;
        r.MPI_Finalize();
    });

    world.register_program("ring", [&](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int me = 0, n = 0;
        r.MPI_Comm_rank(w, &me);
        r.MPI_Comm_size(w, &n);
        const int next = (me + 1) % n;
        const int prev = (me - 1 + n) % n;
        for (int i = 0; i < kIters; ++i) {
            // Nonblocking burst: four in-flight sends, then a blocking
            // ring step, then drain.  Exercises the request free list
            // (slots recycled every iteration) and eager buffering.
            Request reqs[4];
            std::uint64_t out[4];
            for (int k = 0; k < 4; ++k) {
                out[k] = payload_word(me, 4 * i + k);
                ASSERT_EQ(r.MPI_Isend(&out[k], 8, MPI_BYTE, next, 10 + k, w, &reqs[k]),
                          MPI_SUCCESS);
            }
            std::uint64_t ring_out = payload_word(me, i), ring_in = 0;
            Status st;
            ASSERT_EQ(r.MPI_Sendrecv(&ring_out, 8, MPI_BYTE, next, 9, &ring_in, 8,
                                     MPI_BYTE, prev, 9, w, &st),
                      MPI_SUCCESS);
            ASSERT_EQ(ring_in, payload_word(prev, i));
            for (int k = 0; k < 4; ++k) {
                std::uint64_t in = 0;
                ASSERT_EQ(r.MPI_Recv(&in, 8, MPI_BYTE, prev, 10 + k, w, nullptr),
                          MPI_SUCCESS);
                ASSERT_EQ(in, payload_word(prev, 4 * i + k));
                ++words_checked;
            }
            Status sts[4];
            ASSERT_EQ(r.MPI_Waitall(4, reqs, sts), MPI_SUCCESS);

            // Spawn in the middle of the traffic (collective over the
            // world, rank 0 as root): handle-table appends race the
            // in-flight lock-free lookups above.
            if (i % (kIters / kSpawns) == kIters / kSpawns / 2) {
                Comm inter = MPI_COMM_NULL;
                std::vector<int> errcodes;
                ASSERT_EQ(r.MPI_Comm_spawn("child", {}, 3, MPI_INFO_NULL, 0, w,
                                           &inter, &errcodes),
                          MPI_SUCCESS);
                for (int e : errcodes) ASSERT_EQ(e, MPI_SUCCESS);
            }
        }
        r.MPI_Finalize();
    });

    LaunchPlan plan;
    for (int i = 0; i < kRing; ++i) plan.placements.push_back("node0");
    launch(world, "ring", {}, plan);
    world.join_all();

    // Four collective spawns of 3 children each.
    EXPECT_EQ(child_ok.load(), 3 * kSpawns);
    EXPECT_EQ(words_checked.load(), static_cast<long>(kRing) * kIters * 4);
    EXPECT_TRUE(world.all_finished());
}

TEST_P(TransportStressTest, HandleChurnRecyclesRequestsAndComms) {
    // Create/free communicators and requests in a loop from all ranks:
    // the comm free path releases payload, and the request free list
    // must hand slots back without ever aliasing a live request.
    instr::Registry reg;
    World world(reg, World::Config{});
    world.register_program("churn", [](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int me = 0, n = 0;
        r.MPI_Comm_rank(w, &me);
        r.MPI_Comm_size(w, &n);
        for (int i = 0; i < 40; ++i) {
            Comm dup = MPI_COMM_NULL;
            ASSERT_EQ(r.MPI_Comm_dup(w, &dup), MPI_SUCCESS);
            // Traffic on the dup, then a collective free.
            std::uint64_t out = payload_word(me, i), in = 0;
            Status st;
            ASSERT_EQ(r.MPI_Sendrecv(&out, 8, MPI_BYTE, (me + 1) % n, 3, &in, 8,
                                     MPI_BYTE, (me - 1 + n) % n, 3, dup, &st),
                      MPI_SUCCESS);
            ASSERT_EQ(in, payload_word((me - 1 + n) % n, i));
            Group g = MPI_GROUP_NULL;
            ASSERT_EQ(r.MPI_Comm_group(dup, &g), MPI_SUCCESS);
            ASSERT_EQ(r.MPI_Group_free(&g), MPI_SUCCESS);
            r.MPI_Barrier(dup);
            ASSERT_EQ(r.MPI_Comm_free(&dup), MPI_SUCCESS);
            ASSERT_EQ(dup, MPI_COMM_NULL);

            // Irecv-before-send then cancel-free rotation of requests.
            std::uint64_t nb_in = 0;
            Request rq = MPI_REQUEST_NULL;
            ASSERT_EQ(r.MPI_Irecv(&nb_in, 8, MPI_BYTE, (me - 1 + n) % n, 4, w, &rq),
                      MPI_SUCCESS);
            std::uint64_t nb_out = payload_word(me, -i - 1);
            ASSERT_EQ(r.MPI_Send(&nb_out, 8, MPI_BYTE, (me + 1) % n, 4, w),
                      MPI_SUCCESS);
            ASSERT_EQ(r.MPI_Wait(&rq, nullptr), MPI_SUCCESS);
            ASSERT_EQ(nb_in, payload_word((me - 1 + n) % n, -i - 1));
        }
        r.MPI_Finalize();
    });
    LaunchPlan plan;
    for (int i = 0; i < 5; ++i) plan.placements.push_back("node0");
    launch(world, "churn", {}, plan);
    world.join_all();
    EXPECT_TRUE(world.all_finished());
}

INSTANTIATE_TEST_SUITE_P(Algos, TransportStressTest, ::testing::Values(Shape::Tree),
                         [](const ::testing::TestParamInfo<Shape>&) { return "Tree"; });

}  // namespace
}  // namespace m2p::simmpi
