#include <gtest/gtest.h>

#include <atomic>

#include "simmpi/launcher.hpp"
#include "simmpi/rank.hpp"
#include "simmpi/world.hpp"
#include "util/clock.hpp"

namespace m2p::simmpi {
namespace {

struct Fixture {
    instr::Registry reg;
    World world;
    explicit Fixture(Flavor f = Flavor::Lam, World::Config extra = {})
        : world(reg, [&] {
              extra.flavor = f;
              return extra;
          }()) {}

    /// Runs @p fn on @p n ranks and joins.
    void run(int n, std::function<void(Rank&)> fn, const std::string& name = "prog") {
        world.register_program(name,
                               [fn](Rank& r, const std::vector<std::string>&) { fn(r); });
        LaunchPlan plan;
        for (int i = 0; i < n; ++i)
            plan.placements.push_back("node" + std::to_string(i / 2));
        launch(world, name, {}, plan);
        world.join_all();
    }
};

TEST(Pt2pt, BasicSendRecv) {
    Fixture fx;
    fx.run(2, [](Rank& r) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int me = 0;
        r.MPI_Comm_rank(w, &me);
        if (me == 0) {
            const int v = 42;
            ASSERT_EQ(r.MPI_Send(&v, 1, MPI_INT, 1, 7, w), MPI_SUCCESS);
        } else {
            int v = 0;
            Status st;
            ASSERT_EQ(r.MPI_Recv(&v, 1, MPI_INT, 0, 7, w, &st), MPI_SUCCESS);
            EXPECT_EQ(v, 42);
            EXPECT_EQ(st.MPI_SOURCE, 0);
            EXPECT_EQ(st.MPI_TAG, 7);
            int count = 0;
            EXPECT_EQ(r.MPI_Get_count(&st, MPI_INT, &count), MPI_SUCCESS);
            EXPECT_EQ(count, 1);
        }
        r.MPI_Finalize();
    });
}

TEST(Pt2pt, AnySourceAndAnyTag) {
    Fixture fx;
    fx.run(3, [](Rank& r) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int me = 0, n = 0;
        r.MPI_Comm_rank(w, &me);
        r.MPI_Comm_size(w, &n);
        if (me == 0) {
            int got = 0;
            for (int i = 0; i < n - 1; ++i) {
                int v = 0;
                Status st;
                r.MPI_Recv(&v, 1, MPI_INT, MPI_ANY_SOURCE, MPI_ANY_TAG, w, &st);
                EXPECT_EQ(v, st.MPI_SOURCE * 10 + st.MPI_TAG);
                ++got;
            }
            EXPECT_EQ(got, n - 1);
        } else {
            const int v = me * 10 + me;
            r.MPI_Send(&v, 1, MPI_INT, 0, me, w);
        }
        r.MPI_Finalize();
    });
}

TEST(Pt2pt, TagMatchingOutOfOrder) {
    Fixture fx;
    fx.run(2, [](Rank& r) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int me = 0;
        r.MPI_Comm_rank(w, &me);
        if (me == 0) {
            for (int t = 3; t >= 0; --t) r.MPI_Send(&t, 1, MPI_INT, 1, t, w);
        } else {
            for (int t = 0; t < 4; ++t) {
                int v = -1;
                r.MPI_Recv(&v, 1, MPI_INT, 0, t, w, nullptr);
                EXPECT_EQ(v, t);
            }
        }
        r.MPI_Finalize();
    });
}

TEST(Pt2pt, LargeMessageRendezvous) {
    Fixture fx;  // default eager limit 4096
    fx.run(2, [](Rank& r) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int me = 0;
        r.MPI_Comm_rank(w, &me);
        std::vector<char> buf(100000);
        if (me == 0) {
            for (std::size_t i = 0; i < buf.size(); ++i)
                buf[i] = static_cast<char>(i % 251);
            r.MPI_Send(buf.data(), static_cast<int>(buf.size()), MPI_BYTE, 1, 0, w);
        } else {
            Status st;
            r.MPI_Recv(buf.data(), static_cast<int>(buf.size()), MPI_BYTE, 0, 0, w, &st);
            EXPECT_EQ(st.count_bytes, 100000);
            for (std::size_t i = 0; i < buf.size(); i += 997)
                ASSERT_EQ(buf[i], static_cast<char>(i % 251));
        }
        r.MPI_Finalize();
    });
}

TEST(Pt2pt, ProcNullIsNoOp) {
    Fixture fx;
    fx.run(1, [](Rank& r) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int v = 5;
        EXPECT_EQ(r.MPI_Send(&v, 1, MPI_INT, MPI_PROC_NULL, 0, w), MPI_SUCCESS);
        Status st;
        EXPECT_EQ(r.MPI_Recv(&v, 1, MPI_INT, MPI_PROC_NULL, 0, w, &st), MPI_SUCCESS);
        EXPECT_EQ(st.MPI_SOURCE, MPI_PROC_NULL);
        EXPECT_EQ(v, 5);
        r.MPI_Finalize();
    });
}

TEST(Pt2pt, TruncationReportsError) {
    Fixture fx;
    fx.run(2, [](Rank& r) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int me = 0;
        r.MPI_Comm_rank(w, &me);
        if (me == 0) {
            const int big[4] = {1, 2, 3, 4};
            r.MPI_Send(big, 4, MPI_INT, 1, 0, w);
        } else {
            int small[2] = {0, 0};
            Status st;
            EXPECT_EQ(r.MPI_Recv(small, 2, MPI_INT, 0, 0, w, &st), MPI_ERR_COUNT);
            EXPECT_EQ(small[0], 1);
            EXPECT_EQ(small[1], 2);
        }
        r.MPI_Finalize();
    });
}

TEST(Pt2pt, ErrorCodesForBadArguments) {
    Fixture fx;
    fx.run(1, [](Rank& r) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int v = 0;
        EXPECT_EQ(r.MPI_Send(&v, -1, MPI_INT, 0, 0, w), MPI_ERR_COUNT);
        EXPECT_EQ(r.MPI_Send(&v, 1, MPI_INT, 9, 0, w), MPI_ERR_RANK);
        EXPECT_EQ(r.MPI_Send(&v, 1, MPI_INT, 0, -5, w), MPI_ERR_TAG);
        EXPECT_EQ(r.MPI_Send(&v, 1, MPI_INT, 0, 0, 999), MPI_ERR_COMM);
        EXPECT_EQ(r.MPI_Send(&v, 1, MPI_DATATYPE_NULL, 0, 0, w), MPI_ERR_TYPE);
        EXPECT_EQ(r.MPI_Recv(&v, 1, MPI_INT, 0, MPI_ANY_TAG, 999, nullptr),
                  MPI_ERR_COMM);
        r.MPI_Finalize();
    });
}

TEST(Pt2pt, NonblockingSendRecvWaitall) {
    Fixture fx;
    fx.run(2, [](Rank& r) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int me = 0;
        r.MPI_Comm_rank(w, &me);
        if (me == 0) {
            int vals[3] = {10, 20, 30};
            Request reqs[3];
            for (int i = 0; i < 3; ++i)
                ASSERT_EQ(r.MPI_Isend(&vals[i], 1, MPI_INT, 1, i, w, &reqs[i]),
                          MPI_SUCCESS);
            Status sts[3];
            ASSERT_EQ(r.MPI_Waitall(3, reqs, sts), MPI_SUCCESS);
            for (int i = 0; i < 3; ++i) EXPECT_EQ(reqs[i], MPI_REQUEST_NULL);
        } else {
            int vals[3] = {0, 0, 0};
            Request reqs[3];
            for (int i = 0; i < 3; ++i)
                ASSERT_EQ(r.MPI_Irecv(&vals[i], 1, MPI_INT, 0, i, w, &reqs[i]),
                          MPI_SUCCESS);
            Status sts[3];
            ASSERT_EQ(r.MPI_Waitall(3, reqs, sts), MPI_SUCCESS);
            EXPECT_EQ(vals[0], 10);
            EXPECT_EQ(vals[1], 20);
            EXPECT_EQ(vals[2], 30);
        }
        r.MPI_Finalize();
    });
}

TEST(Pt2pt, WaitRefusesARequestAnotherRankOwns) {
    // Request handles are process-local: only the owner completes one
    // and recycles its slot, so another rank's MPI_Wait on the handle is
    // refused and leaves the request pending for its owner.
    Fixture fx;
    std::atomic<Request> shared{MPI_REQUEST_NULL};
    fx.run(2, [&](Rank& r) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int me = 0;
        r.MPI_Comm_rank(w, &me);
        const int v = 1;
        Request mine = MPI_REQUEST_NULL;
        if (me == 0) {
            ASSERT_EQ(r.MPI_Isend(&v, 1, MPI_INT, MPI_PROC_NULL, 0, w, &mine), MPI_SUCCESS);
            shared = mine;
        }
        ASSERT_EQ(r.MPI_Barrier(w), MPI_SUCCESS);
        if (me == 1) {
            Request theirs = shared.load();
            EXPECT_EQ(r.MPI_Wait(&theirs, nullptr), MPI_ERR_REQUEST);
            EXPECT_EQ(theirs, shared.load());
        }
        ASSERT_EQ(r.MPI_Barrier(w), MPI_SUCCESS);
        if (me == 0) {
            EXPECT_EQ(r.MPI_Wait(&mine, nullptr), MPI_SUCCESS);
            EXPECT_EQ(mine, MPI_REQUEST_NULL);
        }
        r.MPI_Finalize();
    });
}

TEST(Pt2pt, SendrecvExchangesWithoutDeadlock) {
    Fixture fx;
    fx.run(2, [](Rank& r) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int me = 0;
        r.MPI_Comm_rank(w, &me);
        const int other = 1 - me;
        int mine = me + 100, theirs = -1;
        Status st;
        ASSERT_EQ(r.MPI_Sendrecv(&mine, 1, MPI_INT, other, 0, &theirs, 1, MPI_INT,
                                 other, 0, w, &st),
                  MPI_SUCCESS);
        EXPECT_EQ(theirs, other + 100);
        r.MPI_Finalize();
    });
}

TEST(Pt2pt, EagerFlowControlBlocksFloodingSender) {
    // With a tiny mailbox, a flooding sender must block until the
    // receiver drains -- the mechanism behind PPerfMark
    // small-messages' MPI_Send bottleneck.
    World::Config cfg;
    cfg.mailbox_capacity = 256;
    Fixture fx(Flavor::Lam, cfg);
    fx.run(2, [](Rank& r) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int me = 0;
        r.MPI_Comm_rank(w, &me);
        char b = 'x';
        if (me == 0) {
            for (int i = 0; i < 2000; ++i) r.MPI_Send(&b, 1, MPI_BYTE, 1, 0, w);
        } else {
            for (int i = 0; i < 2000; ++i) r.MPI_Recv(&b, 1, MPI_BYTE, 0, 0, w, nullptr);
        }
        r.MPI_Finalize();
    });
}

TEST(Pt2pt, CommDupCreatesSeparateContext) {
    Fixture fx;
    fx.run(2, [](Rank& r) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int me = 0;
        r.MPI_Comm_rank(w, &me);
        Comm dup = MPI_COMM_NULL;
        ASSERT_EQ(r.MPI_Comm_dup(w, &dup), MPI_SUCCESS);
        // Same tag on both comms: messages must not cross contexts.
        if (me == 0) {
            const int a = 1, b = 2;
            r.MPI_Send(&a, 1, MPI_INT, 1, 0, w);
            r.MPI_Send(&b, 1, MPI_INT, 1, 0, dup);
        } else {
            int b = 0, a = 0;
            r.MPI_Recv(&b, 1, MPI_INT, 0, 0, dup, nullptr);
            r.MPI_Recv(&a, 1, MPI_INT, 0, 0, w, nullptr);
            EXPECT_EQ(a, 1);
            EXPECT_EQ(b, 2);
        }
        r.MPI_Finalize();
    });
}

TEST(Pt2pt, WtimeAndProcessorName) {
    Fixture fx;
    fx.run(1, [](Rank& r) {
        r.MPI_Init();
        const double t = r.MPI_Wtime();
        EXPECT_GE(r.MPI_Wtime(), t);
        std::string name;
        EXPECT_EQ(r.MPI_Get_processor_name(&name), MPI_SUCCESS);
        EXPECT_EQ(name, "node0");
        r.MPI_Finalize();
    });
}

TEST(Pt2pt, WorksUnderMpichFlavorToo) {
    Fixture fx(Flavor::Mpich);
    fx.run(2, [](Rank& r) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int me = 0;
        r.MPI_Comm_rank(w, &me);
        int v = me;
        if (me == 0) {
            r.MPI_Send(&v, 1, MPI_INT, 1, 0, w);
        } else {
            r.MPI_Recv(&v, 1, MPI_INT, 0, 0, w, nullptr);
            EXPECT_EQ(v, 0);
        }
        r.MPI_Finalize();
    });
}

// ---------------------------------------------------------------------------
// The eager transport's contract: credit comes back in batches, a
// receiver never waits on a sender that flow control holds back, and
// any-source traffic keeps each sender's order.
// ---------------------------------------------------------------------------

/// A world whose mailboxes hold @p capacity eager bytes.
World::Config config(std::size_t capacity) {
    World::Config cfg;
    cfg.mailbox_capacity = capacity;
    return cfg;
}

/// Mailbox capacity holding exactly @p n envelopes of @p payload bytes.
std::size_t capacity_for(std::size_t n, std::size_t payload) {
    return n * (payload + kEnvelopeOverhead);
}

/// Spins (never parks) for about @p us microseconds.
void spin_us(int us) {
    const auto end = std::chrono::steady_clock::now() + std::chrono::microseconds(us);
    while (std::chrono::steady_clock::now() < end) {
    }
}

TEST(Pt2ptTransport, FlowControlReturnsCreditInBatches) {
    // One sender floods a mailbox that holds 64 envelopes while the
    // receiver drains slowly.  Woken only once the queue is down to
    // half, the sender parks about once per 32 messages; woken on every
    // drain, it would park about once per message.
    constexpr int kMessages = 4000;
    constexpr std::size_t kPayload = 64;
    Fixture fx(Flavor::Lam, config(capacity_for(64, kPayload)));
    std::atomic<int> received{0};
    fx.run(2, [&](Rank& r) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int me = 0;
        r.MPI_Comm_rank(w, &me);
        std::int32_t msg[kPayload / 4] = {};
        for (int i = 0; i < kMessages; ++i) {
            if (me == 0) {
                msg[0] = i;
                ASSERT_EQ(r.MPI_Send(msg, kPayload / 4, MPI_INT, 1, 0, w), MPI_SUCCESS);
            } else {
                ASSERT_EQ(r.MPI_Recv(msg, kPayload / 4, MPI_INT, 0, 0, w, nullptr),
                          MPI_SUCCESS);
                ASSERT_EQ(msg[0], i);
                spin_us(2);
                ++received;
            }
        }
        r.MPI_Finalize();
    });
    EXPECT_EQ(received.load(), kMessages);
    const World::MailboxStats ms = fx.world.mailbox_stats();
    EXPECT_EQ(ms.eager_msgs, static_cast<std::uint64_t>(kMessages));
    EXPECT_GT(ms.flow_stalls, 0u) << "the sender never filled the mailbox";
    EXPECT_LT(ms.flow_stalls, static_cast<std::uint64_t>(kMessages / 16));
    EXPECT_EQ(ms.bytes_queued, 0u);
}

TEST(Pt2ptTransport, ReceiverWaitingOnAParkedSenderMakesProgress) {
    // B fills R's mailbox and A parks on flow control.  R drains a few
    // of B's messages, staying above half the capacity, then receives
    // A's: it must release A instead of waiting out A's deadline (the
    // default 30 s).
    constexpr int kR = 0, kA = 1, kB = 2;
    constexpr int kFill = 16;
    constexpr int kDrainFirst = 3;  // 13 of 16 left: above half
    Fixture fx(Flavor::Lam, config(capacity_for(kFill, sizeof(int))));
    double waited_s = -1.0;
    fx.run(3, [&](Rank& r) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int me = 0;
        r.MPI_Comm_rank(w, &me);
        const auto parked_senders = [&] {
            return r.world().mailbox_stats().flow_stalls;
        };
        int v = 0;
        if (me == kB) {
            for (int i = 0; i < kFill; ++i)
                ASSERT_EQ(r.MPI_Send(&i, 1, MPI_INT, kR, 1, w), MPI_SUCCESS);
            EXPECT_EQ(parked_senders(), 0u) << "B alone must fit";
            ASSERT_EQ(r.MPI_Send(&v, 0, MPI_INT, kA, 9, w), MPI_SUCCESS);  // go
        } else if (me == kA) {
            ASSERT_EQ(r.MPI_Recv(&v, 0, MPI_INT, kB, 9, w, nullptr), MPI_SUCCESS);
            v = 77;
            ASSERT_EQ(r.MPI_Send(&v, 1, MPI_INT, kR, 2, w), MPI_SUCCESS);
        } else {
            while (parked_senders() == 0) sched::sleep_for(std::chrono::milliseconds(1));
            for (int i = 0; i < kDrainFirst; ++i) {
                ASSERT_EQ(r.MPI_Recv(&v, 1, MPI_INT, kB, 1, w, nullptr), MPI_SUCCESS);
                EXPECT_EQ(v, i);
            }
            const double t0 = util::wall_seconds();
            ASSERT_EQ(r.MPI_Recv(&v, 1, MPI_INT, kA, 2, w, nullptr), MPI_SUCCESS);
            waited_s = util::wall_seconds() - t0;
            EXPECT_EQ(v, 77);
            for (int i = kDrainFirst; i < kFill; ++i) {
                ASSERT_EQ(r.MPI_Recv(&v, 1, MPI_INT, kB, 1, w, nullptr), MPI_SUCCESS);
                EXPECT_EQ(v, i);
            }
        }
        r.MPI_Finalize();
    });
    EXPECT_GE(waited_s, 0.0);
    EXPECT_LT(waited_s, 1.0) << "R waited on A's flow-control deadline";
}

TEST(Pt2ptTransport, AnySourceIncastKeepsEachSendersOrder) {
    // Seven senders stream sequence numbers through flow control to one
    // MPI_ANY_SOURCE receiver.  MPI's non-overtaking rule: each
    // sender's messages arrive in the order it sent them.
    constexpr int kRanks = 8;
    constexpr int kPerSender = 1500;
    Fixture fx(Flavor::Lam, config(capacity_for(32, 2 * sizeof(int))));
    std::vector<int> got(kRanks, 0);
    fx.run(kRanks, [&](Rank& r) {
        r.MPI_Init();
        const Comm w = r.MPI_COMM_WORLD();
        int me = 0;
        r.MPI_Comm_rank(w, &me);
        int msg[2] = {me, 0};
        if (me != 0) {
            for (int i = 0; i < kPerSender; ++i) {
                msg[1] = i;
                ASSERT_EQ(r.MPI_Send(msg, 2, MPI_INT, 0, 5, w), MPI_SUCCESS);
            }
        } else {
            std::vector<int> next(kRanks, 0);
            for (int i = 0; i < (kRanks - 1) * kPerSender; ++i) {
                Status st;
                ASSERT_EQ(r.MPI_Recv(msg, 2, MPI_INT, MPI_ANY_SOURCE, 5, w, &st),
                          MPI_SUCCESS);
                ASSERT_EQ(msg[0], st.MPI_SOURCE);
                ASSERT_EQ(msg[1], next[static_cast<std::size_t>(msg[0])])
                    << "sender " << msg[0] << " overtaken";
                ++next[static_cast<std::size_t>(msg[0])];
            }
            got = next;
        }
        r.MPI_Finalize();
    });
    for (int s = 1; s < kRanks; ++s) EXPECT_EQ(got[static_cast<std::size_t>(s)], kPerSender);
    const World::MailboxStats ms = fx.world.mailbox_stats();
    EXPECT_EQ(ms.delivered_msgs, static_cast<std::uint64_t>((kRanks - 1) * kPerSender));
    EXPECT_GT(ms.flow_stalls, 0u) << "the incast never hit flow control";
    EXPECT_EQ(ms.bytes_queued, 0u);
}

}  // namespace
}  // namespace m2p::simmpi
