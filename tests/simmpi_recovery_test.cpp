// ULFM-style recovery plane: the revoked-communicator error contract
// (every op class fails with MPI_ERR_REVOKED, promptly, on every
// member, across flavors and rank counts), fault-tolerant agreement
// semantics, shrink-and-continue, comm split, spawn retry, failure
// acknowledgement, and the end-to-end tool acceptance scenario -- a
// 256-rank consultant session that loses a rank mid-search, shrinks,
// and keeps measuring survivors (RunOutcome::Recovered).  Runs under
// TSAN and ASan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "simmpi/faults.hpp"
#include "simmpi/launcher.hpp"
#include "simmpi/rank.hpp"
#include "simmpi/sched.hpp"
#include "simmpi/world.hpp"
#include "trace/flight_recorder.hpp"

namespace m2p {
namespace {

using simmpi::Comm;
using simmpi::Epitaph;
using simmpi::FaultPlan;
using simmpi::File;
using simmpi::Flavor;
using simmpi::Group;
using simmpi::LaunchPlan;
using simmpi::Rank;
using simmpi::Win;
using simmpi::World;
using simmpi::MPI_COMM_NULL;
using simmpi::MPI_ERR_PROC_FAILED;
using simmpi::MPI_ERR_REVOKED;
using simmpi::MPI_ERR_SPAWN;
using simmpi::MPI_FILE_NULL;
using simmpi::MPI_INFO_NULL;
using simmpi::MPI_INT;
using simmpi::MPI_MODE_CREATE;
using simmpi::MPI_MODE_DELETE_ON_CLOSE;
using simmpi::MPI_MODE_RDWR;
using simmpi::MPI_SUCCESS;
using simmpi::MPI_SUM;
using simmpi::MPI_UNDEFINED;
using simmpi::MPI_WIN_NULL;

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
}

/// Per-rank observations collected from inside program bodies, read
/// back on the test thread after join_all.
struct Observed {
    std::mutex mu;
    std::map<int, int> rc;          ///< rank -> probed call's return code
    std::map<int, double> elapsed;  ///< rank -> seconds inside that call
    void record(int me, int code, double secs) {
        std::lock_guard lk(mu);
        rc[me] = code;
        elapsed[me] = secs;
    }
};

World::Config recovery_cfg(Flavor f) {
    World::Config cfg;
    cfg.flavor = f;
    // Wide enough apart that a revoke serviced by the deadline sweep
    // instead of the wakeup broadcast is unmistakable in `elapsed`.
    cfg.wait_deadline_seconds = 5.0;
    cfg.join_deadline_seconds = 60.0;
    cfg.faults = std::make_shared<FaultPlan>();
    return cfg;
}

void run_ranks(World& world, const std::string& prog, int n) {
    LaunchPlan plan;
    for (int i = 0; i < n; ++i)
        plan.placements.push_back("node" + std::to_string(i % 2));
    launch(world, prog, {}, plan);
    world.join_all();
}

// ---------------------------------------------------------------------------
// The revoked-comm error contract.  One op class at a time: every rank
// but 0 blocks in the op on a dup of MPI_COMM_WORLD, rank 0 revokes the
// dup and then issues the same op itself.  Every member must come back
// with MPI_ERR_REVOKED -- the parked ranks woken by the revoke
// broadcast (well before the 5 s wait deadline), rank 0 rejected at the
// entry pre-check.  Afterwards the survivors agree and shrink the
// revoked comm and run one collective on the replacement, proving the
// revoke left no wedged state behind.
// ---------------------------------------------------------------------------

enum class OpClass { Pt2pt, Collective, RmaSync, Io };

const char* op_name(OpClass op) {
    switch (op) {
        case OpClass::Pt2pt: return "pt2pt";
        case OpClass::Collective: return "collective";
        case OpClass::RmaSync: return "rma";
        case OpClass::Io: return "io";
    }
    return "?";
}

void revoked_op_round(Flavor flavor, int nranks, OpClass op) {
    SCOPED_TRACE(std::string("flavor=") + (flavor == Flavor::Lam ? "lam" : "mpich") +
                 " nranks=" + std::to_string(nranks) + " op=" + op_name(op));
    instr::Registry reg;
    World world(reg, recovery_cfg(flavor));
    Observed obs;
    std::atomic<int> shrink_ok{0}, post_barrier_ok{0};
    const std::string scratch = std::string("revoked_") + op_name(op) + ".dat";
    world.register_program("app", [&](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        int me = 0, n = 0;
        r.MPI_Comm_rank(r.MPI_COMM_WORLD(), &me);
        r.MPI_Comm_size(r.MPI_COMM_WORLD(), &n);
        Comm c = MPI_COMM_NULL;
        ASSERT_EQ(r.MPI_Comm_dup(r.MPI_COMM_WORLD(), &c), MPI_SUCCESS);

        // Comm-scoped resources must exist before the revoke: windows
        // and file handles are created collectively.
        Win win = MPI_WIN_NULL;
        File fh = MPI_FILE_NULL;
        int base = 0;
        if (op == OpClass::RmaSync)
            ASSERT_EQ(r.MPI_Win_create(&base, sizeof base, sizeof base,
                                       MPI_INFO_NULL, c, &win),
                      MPI_SUCCESS);
        if (op == OpClass::Io)
            ASSERT_EQ(r.MPI_File_open(c, scratch,
                                      MPI_MODE_CREATE | MPI_MODE_RDWR |
                                          MPI_MODE_DELETE_ON_CLOSE,
                                      MPI_INFO_NULL, &fh),
                      MPI_SUCCESS);

        if (me == 0) {
            // Give the others time to park inside the op, then pull
            // the plug.  (The contract holds either way -- a late
            // arriver hits the entry pre-check instead -- but parking
            // first is the interesting path: it exercises the wakeup
            // broadcast, and `elapsed` below proves no one rode the
            // 5 s deadline out.)
            simmpi::sched::sleep_for(std::chrono::milliseconds(50));
            ASSERT_EQ(r.MPI_Comm_revoke(c), MPI_SUCCESS);
        }
        int rc = MPI_SUCCESS;
        const auto t0 = std::chrono::steady_clock::now();
        switch (op) {
            case OpClass::Pt2pt: {
                int v = 0;  // no matching send ever posted
                rc = r.MPI_Recv(&v, 1, MPI_INT, (me + 1) % n, 99, c, nullptr);
                break;
            }
            case OpClass::Collective:
                rc = r.MPI_Barrier(c);
                break;
            case OpClass::RmaSync:
                rc = r.MPI_Win_fence(0, win);
                break;
            case OpClass::Io: {
                int v = 0;
                rc = r.MPI_File_read_all(fh, &v, 1, MPI_INT, nullptr);
                break;
            }
        }
        obs.record(me, rc, seconds_since(t0));

        // The revoked comm still supports the recovery collectives:
        // agreement completes, shrink hands back a working comm.
        int flag = 1;
        r.MPI_Comm_agree(c, &flag);
        EXPECT_EQ(flag, 1);  // nobody died, nobody voted no
        Comm fresh = MPI_COMM_NULL;
        if (r.MPI_Comm_shrink(c, &fresh) == MPI_SUCCESS && fresh != MPI_COMM_NULL) {
            ++shrink_ok;
            if (r.MPI_Barrier(fresh) == MPI_SUCCESS) ++post_barrier_ok;
        }
        r.MPI_Finalize();
    });
    run_ranks(world, "app", nranks);

    ASSERT_TRUE(world.all_finished());
    EXPECT_TRUE(world.epitaphs().empty());
    ASSERT_EQ(static_cast<int>(obs.rc.size()), nranks);
    for (const auto& [me, rc] : obs.rc)
        EXPECT_EQ(rc, MPI_ERR_REVOKED) << "rank " << me;
    // Prompt propagation: everyone is out well before the 5 s wait
    // deadline, so the wakeup really was the broadcast, not the sweep.
    for (const auto& [me, secs] : obs.elapsed)
        EXPECT_LT(secs, 2.5) << "rank " << me;
    EXPECT_EQ(shrink_ok.load(), nranks);
    EXPECT_EQ(post_barrier_ok.load(), nranks);
}

TEST(Recovery, RevokedCommFailsEveryOpClassLam) {
    for (int nranks : {2, 64, 256})
        for (OpClass op : {OpClass::Pt2pt, OpClass::Collective, OpClass::RmaSync,
                           OpClass::Io})
            revoked_op_round(Flavor::Lam, nranks, op);
}

TEST(Recovery, RevokedCommFailsEveryOpClassMpich) {
    for (int nranks : {2, 64, 256})
        for (OpClass op : {OpClass::Pt2pt, OpClass::Collective, OpClass::RmaSync,
                           OpClass::Io})
            revoked_op_round(Flavor::Mpich, nranks, op);
}

// ---------------------------------------------------------------------------
// Agreement semantics: AND of the votes when everyone contributes
// (uniform MPI_SUCCESS), uniform MPI_ERR_PROC_FAILED when a member
// dies mid-vote -- but the survivors still all get the same flag.
// ---------------------------------------------------------------------------

TEST(Recovery, AgreeIsAndOfVotes) {
    instr::Registry reg;
    World world(reg, recovery_cfg(Flavor::Lam));
    Observed round1, round2;
    world.register_program("app", [&](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        int me = 0;
        r.MPI_Comm_rank(r.MPI_COMM_WORLD(), &me);
        int flag = 1;
        int rc = r.MPI_Comm_agree(r.MPI_COMM_WORLD(), &flag);
        round1.record(me, rc, flag);
        flag = (me == 2) ? 0 : 1;  // one dissenter flips the AND
        rc = r.MPI_Comm_agree(r.MPI_COMM_WORLD(), &flag);
        round2.record(me, rc, flag);
        r.MPI_Finalize();
    });
    run_ranks(world, "app", 4);
    for (int me = 0; me < 4; ++me) {
        EXPECT_EQ(round1.rc[me], MPI_SUCCESS) << "rank " << me;
        EXPECT_EQ(round1.elapsed[me], 1.0) << "rank " << me;
        EXPECT_EQ(round2.rc[me], MPI_SUCCESS) << "rank " << me;
        EXPECT_EQ(round2.elapsed[me], 0.0) << "rank " << me;
    }
}

TEST(Recovery, AgreeToleratesMidVoteDeath) {
    instr::Registry reg;
    World::Config cfg = recovery_cfg(Flavor::Lam);
    // Rank 2's second MPI call kills it -- and only rank 2 makes that
    // call (a barrier nobody else joins), so it dies before voting.
    cfg.faults->kill_at_call(2, 2);
    World world(reg, cfg);
    Observed obs;
    world.register_program("app", [&](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        int me = 0;
        r.MPI_Comm_rank(r.MPI_COMM_WORLD(), &me);
        if (me == 2) {
            r.MPI_Barrier(r.MPI_COMM_WORLD());  // killed here
            return;
        }
        int flag = 1;
        const int rc = r.MPI_Comm_agree(r.MPI_COMM_WORLD(), &flag);
        obs.record(me, rc, flag);
        r.MPI_Finalize();
    });
    run_ranks(world, "app", 4);

    ASSERT_EQ(world.epitaphs().size(), 1u);
    EXPECT_EQ(world.epitaphs()[0].global_rank, 2);
    for (int me : {0, 1, 3}) {
        // Uniform verdict: the vote completed, but not everyone could
        // contribute, and every survivor is told so.
        EXPECT_EQ(obs.rc[me], MPI_ERR_PROC_FAILED) << "rank " << me;
        EXPECT_EQ(obs.elapsed[me], 1.0) << "rank " << me;
    }
}

// ---------------------------------------------------------------------------
// Shrink after a real death: survivors rebuild in parent order, the
// replacement comm works, the world is marked recovered, and the
// flight recorder holds the revoke/agree/shrink breadcrumbs.
// ---------------------------------------------------------------------------

TEST(Recovery, ShrinkAfterDeathRebuildsWorkingComm) {
    constexpr int kRanks = 8, kVictim = 3;
    instr::Registry reg;
    World::Config cfg = recovery_cfg(Flavor::Lam);
    cfg.faults->kill_at_call(kVictim, 4);
    World world(reg, cfg);
    Observed obs;
    std::atomic<int> sum_checks{0};
    world.register_program("app", [&](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        int me = 0;
        r.MPI_Comm_rank(r.MPI_COMM_WORLD(), &me);
        int rc = MPI_SUCCESS;
        for (int i = 0; i < 50 && rc == MPI_SUCCESS; ++i) {
            int in = me, out = 0;
            rc = r.MPI_Allreduce(&in, &out, 1, MPI_INT, MPI_SUM, r.MPI_COMM_WORLD());
        }
        ASSERT_NE(rc, MPI_SUCCESS);  // the death must surface
        r.MPI_Comm_revoke(r.MPI_COMM_WORLD());
        int flag = 1;
        r.MPI_Comm_agree(r.MPI_COMM_WORLD(), &flag);
        Comm fresh = MPI_COMM_NULL;
        ASSERT_EQ(r.MPI_Comm_shrink(r.MPI_COMM_WORLD(), &fresh), MPI_SUCCESS);
        int n = 0, newme = -1;
        r.MPI_Comm_size(fresh, &n);
        r.MPI_Comm_rank(fresh, &newme);
        EXPECT_EQ(n, kRanks - 1);
        // Parent order preserved: ranks above the victim slide down one.
        EXPECT_EQ(newme, me < kVictim ? me : me - 1);
        int in = 1, out = 0;
        EXPECT_EQ(r.MPI_Allreduce(&in, &out, 1, MPI_INT, MPI_SUM, fresh),
                  MPI_SUCCESS);
        if (out == kRanks - 1) ++sum_checks;
        obs.record(me, MPI_SUCCESS, 0.0);
        r.MPI_Finalize();
    });
    run_ranks(world, "app", kRanks);

    ASSERT_TRUE(world.all_finished());
    ASSERT_EQ(world.epitaphs().size(), 1u);
    EXPECT_EQ(world.epitaphs()[0].global_rank, kVictim);
    EXPECT_EQ(sum_checks.load(), kRanks - 1);
    EXPECT_TRUE(world.recovered());

    // Postmortem story: the ring must show who revoked, that the vote
    // ran, and that the shrink closed.
    ASSERT_NE(world.recorder(), nullptr);
    int revokes = 0, agrees = 0, shrinks = 0;
    for (const trace::Event& e : world.recorder()->snapshot()) {
        if (e.kind == static_cast<std::uint32_t>(trace::EventKind::Revoke)) ++revokes;
        if (e.kind == static_cast<std::uint32_t>(trace::EventKind::Agree)) ++agrees;
        if (e.kind == static_cast<std::uint32_t>(trace::EventKind::Shrink)) ++shrinks;
    }
    EXPECT_GE(revokes, 1);
    EXPECT_GE(agrees, 1);
    EXPECT_GE(shrinks, 1);
}

// ---------------------------------------------------------------------------
// MPI_Comm_split: partitions by color, orders by (key, parent rank),
// MPI_UNDEFINED opts out with MPI_COMM_NULL, and the pieces work.
// ---------------------------------------------------------------------------

TEST(Recovery, SplitPartitionsByColorAndOrdersByKey) {
    constexpr int kRanks = 6;
    instr::Registry reg;
    World world(reg, recovery_cfg(Flavor::Lam));
    Observed obs;
    std::atomic<int> null_comms{0};
    world.register_program("app", [&](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        int me = 0;
        r.MPI_Comm_rank(r.MPI_COMM_WORLD(), &me);
        // Rank 5 opts out; the rest split odd/even with descending-key
        // ordering, so the largest parent rank leads each piece.
        const int color = (me == 5) ? MPI_UNDEFINED : me % 2;
        Comm part = MPI_COMM_NULL;
        ASSERT_EQ(r.MPI_Comm_split(r.MPI_COMM_WORLD(), color, -me, &part),
                  MPI_SUCCESS);
        if (me == 5) {
            EXPECT_EQ(part, MPI_COMM_NULL);
            ++null_comms;
            r.MPI_Finalize();
            return;
        }
        ASSERT_NE(part, MPI_COMM_NULL);
        int n = 0, sub = -1;
        r.MPI_Comm_size(part, &n);
        r.MPI_Comm_rank(part, &sub);
        // color 0: parents {0,2,4} keys {0,-2,-4} -> order 4,2,0.
        // color 1: parents {1,3}   keys {-1,-3}   -> order 3,1.
        const int expect_n = (me % 2 == 0) ? 3 : 2;
        const int expect_sub = (expect_n - 1) - me / 2;
        EXPECT_EQ(n, expect_n) << "rank " << me;
        int in = me, out = 0;
        ASSERT_EQ(r.MPI_Allreduce(&in, &out, 1, MPI_INT, MPI_SUM, part),
                  MPI_SUCCESS);
        EXPECT_EQ(out, me % 2 == 0 ? 0 + 2 + 4 : 1 + 3);
        obs.record(me, sub, expect_sub);
        r.MPI_Finalize();
    });
    run_ranks(world, "app", kRanks);
    EXPECT_TRUE(world.epitaphs().empty());
    EXPECT_EQ(null_comms.load(), 1);
    ASSERT_EQ(obs.rc.size(), 5u);
    for (const auto& [me, sub] : obs.rc)
        EXPECT_EQ(static_cast<double>(sub), obs.elapsed[me]) << "rank " << me;
}

// ---------------------------------------------------------------------------
// Spawn retry: a transient fail_spawn fault (specs fire once) is
// absorbed by the bounded-backoff retry loop when the config allows
// more than one attempt.
// ---------------------------------------------------------------------------

TEST(Recovery, SpawnRetryAbsorbsTransientFailure) {
    instr::Registry reg;
    World::Config cfg = recovery_cfg(Flavor::Lam);
    cfg.faults->fail_spawn(/*nth_spawn=*/1);
    cfg.spawn_retry_attempts = 3;
    cfg.spawn_retry_backoff_seconds = 0.005;
    World world(reg, cfg);
    Observed obs;
    std::atomic<int> children{0};
    world.register_program("child", [&](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        ++children;
        r.MPI_Finalize();
    });
    world.register_program("parent", [&](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        int me = 0;
        r.MPI_Comm_rank(r.MPI_COMM_WORLD(), &me);
        Comm inter = MPI_COMM_NULL;
        std::vector<int> errcodes;
        const auto t0 = std::chrono::steady_clock::now();
        const int rc = r.MPI_Comm_spawn("child", {}, 2, MPI_INFO_NULL, 0,
                                        r.MPI_COMM_WORLD(), &inter, &errcodes);
        obs.record(me, rc, seconds_since(t0));
        EXPECT_NE(inter, MPI_COMM_NULL);
        r.MPI_Finalize();
    });
    run_ranks(world, "parent", 2);

    for (int me : {0, 1}) {
        // The first attempt failed and was retried behind the caller's
        // back: one MPI_Comm_spawn, MPI_SUCCESS, at least one backoff
        // sleep worth of elapsed time.
        EXPECT_EQ(obs.rc[me], MPI_SUCCESS) << "rank " << me;
        EXPECT_GE(obs.elapsed[me], 0.004) << "rank " << me;
    }
    EXPECT_EQ(children.load(), 2);
    EXPECT_TRUE(world.epitaphs().empty());
}

// ---------------------------------------------------------------------------
// failure_ack / get_acked: after a death surfaces, the survivor can
// snapshot the failed membership as a group.
// ---------------------------------------------------------------------------

TEST(Recovery, FailureAckSnapshotsDeadMembers) {
    instr::Registry reg;
    World::Config cfg = recovery_cfg(Flavor::Lam);
    cfg.faults->kill_at_call(1, 4);
    World world(reg, cfg);
    Observed obs;
    world.register_program("app", [&](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        int me = 0;
        r.MPI_Comm_rank(r.MPI_COMM_WORLD(), &me);
        // Before any failure: an ack'd snapshot is empty.
        Group acked = simmpi::MPI_GROUP_NULL;
        ASSERT_EQ(r.MPI_Comm_failure_ack(r.MPI_COMM_WORLD()), MPI_SUCCESS);
        ASSERT_EQ(r.MPI_Comm_get_acked(r.MPI_COMM_WORLD(), &acked), MPI_SUCCESS);
        int sz = -1;
        r.MPI_Group_size(acked, &sz);
        EXPECT_EQ(sz, 0);
        r.MPI_Group_free(&acked);
        int rc = MPI_SUCCESS;
        for (int i = 0; i < 50 && rc == MPI_SUCCESS; ++i) {
            int in = me, out = 0;
            rc = r.MPI_Allreduce(&in, &out, 1, MPI_INT, MPI_SUM, r.MPI_COMM_WORLD());
        }
        ASSERT_NE(rc, MPI_SUCCESS);
        ASSERT_EQ(r.MPI_Comm_failure_ack(r.MPI_COMM_WORLD()), MPI_SUCCESS);
        ASSERT_EQ(r.MPI_Comm_get_acked(r.MPI_COMM_WORLD(), &acked), MPI_SUCCESS);
        r.MPI_Group_size(acked, &sz);
        obs.record(me, sz, 0.0);
        r.MPI_Group_free(&acked);
        r.MPI_Finalize();
    });
    run_ranks(world, "app", 4);
    ASSERT_EQ(world.epitaphs().size(), 1u);
    for (int me : {0, 2, 3}) EXPECT_EQ(obs.rc[me], 1) << "rank " << me;
}

// ---------------------------------------------------------------------------
// The acceptance scenario: a 256-rank consultant session loses a rank
// mid-collective, the application revokes / agrees / shrinks and keeps
// computing on the survivors, and the tool reports Recovered with
// clean post-shrink experiments instead of a truncated search.
// ---------------------------------------------------------------------------

TEST(Recovery, ConsultantSessionRecoversAt256Ranks) {
    constexpr int kRanks = 256, kVictim = 5;
    simmpi::World::Config wcfg;
    wcfg.wait_deadline_seconds = 2.0;
    wcfg.join_deadline_seconds = 120.0;
    wcfg.faults = std::make_shared<FaultPlan>();
    wcfg.faults->kill_at_call(kVictim, 10);
    core::Session s(Flavor::Lam, {}, wcfg);

    std::atomic<int> recovered_ranks{0};
    s.world().register_program("resilient", [&](Rank& r,
                                                const std::vector<std::string>&) {
        r.MPI_Init();
        int me = 0;
        r.MPI_Comm_rank(r.MPI_COMM_WORLD(), &me);
        Comm c = MPI_COMM_NULL;
        ASSERT_EQ(r.MPI_Comm_dup(r.MPI_COMM_WORLD(), &c), MPI_SUCCESS);
        int rc = MPI_SUCCESS;
        while (rc == MPI_SUCCESS) {
            int in = me, out = 0;
            rc = r.MPI_Allreduce(&in, &out, 1, MPI_INT, MPI_SUM, c);
        }
        // The ULFM recipe: revoke so every straggler unwedges, agree
        // on the failure, shrink, continue on the survivors' comm.
        r.MPI_Comm_revoke(c);
        int flag = 1;
        r.MPI_Comm_agree(c, &flag);
        Comm fresh = MPI_COMM_NULL;
        ASSERT_EQ(r.MPI_Comm_shrink(c, &fresh), MPI_SUCCESS);
        // Keep the survivors measurably busy long enough for the PC to
        // complete experiments over the post-loss hierarchy.  The loop
        // condition is agreed via the reduction itself so every member
        // executes the same number of collectives.
        const auto t0 = std::chrono::steady_clock::now();
        for (;;) {
            int cont = seconds_since(t0) < 1.0 ? 1 : 0, all = 0;
            if (r.MPI_Allreduce(&cont, &all, 1, MPI_INT, simmpi::MPI_MIN, fresh) !=
                    MPI_SUCCESS ||
                all == 0)
                break;
            simmpi::sched::sleep_for(std::chrono::milliseconds(2));
        }
        ++recovered_ranks;
        r.MPI_Finalize();
    });

    core::PerformanceConsultant::Options opts;
    opts.eval_interval = 0.06;
    opts.max_search_seconds = 20.0;
    const core::PCReport r = s.run_with_consultant("resilient", kRanks, opts);

    EXPECT_EQ(recovered_ranks.load(), kRanks - 1);
    EXPECT_EQ(r.outcome.status, core::RunOutcome::Status::Recovered);
    ASSERT_EQ(r.outcome.epitaphs.size(), 1u);
    EXPECT_EQ(r.outcome.epitaphs[0].global_rank, kVictim);
    EXPECT_TRUE(s.tool().hierarchy().get("/Process/p5").retired);

    // The search kept going over the survivors: at least one
    // experiment finished cleanly after the loss, and the condensed
    // report says so instead of (or in addition to) mourning.
    EXPECT_GT(r.experiments_run, 0);
    EXPECT_GE(r.post_loss_experiments, 1);
    const std::string rendered = core::PerformanceConsultant::render_condensed(r);
    EXPECT_NE(rendered.find("recovered search"), std::string::npos) << rendered;
}

}  // namespace
}  // namespace m2p
