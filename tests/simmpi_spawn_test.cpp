#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <utility>

#include "simmpi/launcher.hpp"
#include "simmpi/rank.hpp"
#include "simmpi/world.hpp"

namespace m2p::simmpi {
namespace {

struct SpawnFixture {
    instr::Registry reg;
    World world;
    explicit SpawnFixture(Flavor f = Flavor::Lam, bool mpir = false)
        : world(reg, [&] {
              World::Config c;
              c.flavor = f;
              c.mpir_enabled = mpir;
              return c;
          }()) {}

    void launch_parents(int n, const std::string& prog) {
        LaunchPlan plan;
        for (int i = 0; i < n; ++i) plan.placements.push_back("node" + std::to_string(i % 2));
        launch(world, prog, {}, plan);
        world.join_all();
    }
};

TEST(Spawn, ChildrenRunAndGetParentIntercomm) {
    SpawnFixture fx;
    std::atomic<int> children_ok{0};
    fx.world.register_program("child", [&](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        Comm parent = MPI_COMM_NULL;
        ASSERT_EQ(r.MPI_Comm_get_parent(&parent), MPI_SUCCESS);
        ASSERT_NE(parent, MPI_COMM_NULL);
        int n = 0, remote = 0, me = -1;
        r.MPI_Comm_size(parent, &n);
        r.MPI_Comm_remote_size(parent, &remote);
        r.MPI_Comm_rank(r.MPI_COMM_WORLD(), &me);
        EXPECT_EQ(remote, 2);  // two parents
        EXPECT_GE(me, 0);
        ++children_ok;
        r.MPI_Finalize();
    });
    fx.world.register_program("parent", [&](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        Comm inter = MPI_COMM_NULL;
        std::vector<int> errcodes;
        ASSERT_EQ(r.MPI_Comm_spawn("child", {}, 3, MPI_INFO_NULL, 0,
                                   r.MPI_COMM_WORLD(), &inter, &errcodes),
                  MPI_SUCCESS);
        ASSERT_NE(inter, MPI_COMM_NULL);
        ASSERT_EQ(errcodes.size(), 3u);
        for (int e : errcodes) EXPECT_EQ(e, MPI_SUCCESS);
        int remote = 0;
        r.MPI_Comm_remote_size(inter, &remote);
        EXPECT_EQ(remote, 3);
        r.MPI_Finalize();
    });
    fx.launch_parents(2, "parent");
    EXPECT_EQ(children_ok.load(), 3);
    EXPECT_EQ(fx.world.proc_count(), 5u);  // 2 parents + 3 children
}

TEST(Spawn, MessagesFlowOverIntercomm) {
    SpawnFixture fx;
    fx.world.register_program("child", [&](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        Comm parent = MPI_COMM_NULL;
        r.MPI_Comm_get_parent(&parent);
        int me = 0;
        r.MPI_Comm_rank(r.MPI_COMM_WORLD(), &me);
        const int v = 500 + me;
        r.MPI_Send(&v, 1, MPI_INT, 0, 9, parent);  // to parent rank 0
        int reply = 0;
        r.MPI_Recv(&reply, 1, MPI_INT, 0, 10, parent, nullptr);
        EXPECT_EQ(reply, 1000 + me);
        r.MPI_Finalize();
    });
    fx.world.register_program("parent", [&](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        Comm inter = MPI_COMM_NULL;
        std::vector<int> errcodes;
        r.MPI_Comm_spawn("child", {}, 2, MPI_INFO_NULL, 0, r.MPI_COMM_WORLD(), &inter,
                         &errcodes);
        int me = 0;
        r.MPI_Comm_rank(r.MPI_COMM_WORLD(), &me);
        if (me == 0) {
            for (int i = 0; i < 2; ++i) {
                int v = 0;
                Status st;
                r.MPI_Recv(&v, 1, MPI_INT, MPI_ANY_SOURCE, 9, inter, &st);
                EXPECT_EQ(v, 500 + st.MPI_SOURCE);
                const int reply = 1000 + st.MPI_SOURCE;
                r.MPI_Send(&reply, 1, MPI_INT, st.MPI_SOURCE, 10, inter);
            }
        }
        r.MPI_Finalize();
    });
    fx.launch_parents(1, "parent");
}

TEST(Spawn, IntercommMergeBuildsIntracomm) {
    SpawnFixture fx;
    std::atomic<int> checked{0};
    auto body = [&](Rank& r, Comm inter, bool is_parent) {
        Comm merged = MPI_COMM_NULL;
        ASSERT_EQ(r.MPI_Intercomm_merge(inter, /*high=*/!is_parent, &merged),
                  MPI_SUCCESS);
        int n = 0, me = -1;
        r.MPI_Comm_size(merged, &n);
        r.MPI_Comm_rank(merged, &me);
        EXPECT_EQ(n, 3);  // 1 parent + 2 children
        // Parents come first (they passed high=false).
        if (is_parent) EXPECT_EQ(me, 0);
        else EXPECT_GT(me, 0);
        // Everyone can barrier on the merged comm.
        r.MPI_Barrier(merged);
        int sum = 0;
        r.MPI_Allreduce(&me, &sum, 1, MPI_INT, MPI_SUM, merged);
        EXPECT_EQ(sum, 3);
        ++checked;
    };
    fx.world.register_program("child", [&](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        Comm parent = MPI_COMM_NULL;
        r.MPI_Comm_get_parent(&parent);
        body(r, parent, false);
        r.MPI_Finalize();
    });
    fx.world.register_program("parent", [&](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        Comm inter = MPI_COMM_NULL;
        std::vector<int> errcodes;
        r.MPI_Comm_spawn("child", {}, 2, MPI_INFO_NULL, 0, r.MPI_COMM_WORLD(), &inter,
                         &errcodes);
        body(r, inter, true);
        r.MPI_Finalize();
    });
    fx.launch_parents(1, "parent");
    EXPECT_EQ(checked.load(), 3);
}

TEST(Spawn, IntercommDupGivesEveryMemberOneHandle) {
    // MPI_Comm_dup on an intercommunicator is collective over both
    // groups: all five members (2 parents, 3 children) must get
    // MPI_SUCCESS and one shared handle, and the duplicate must carry
    // traffic between the groups.  The short deadline turns a
    // rendezvous that miscounts its members into a quick failure.
    instr::Registry reg;
    World::Config cfg;
    cfg.wait_deadline_seconds = 2.0;
    World world(reg, cfg);
    std::mutex mu;
    std::vector<std::pair<int, Comm>> dups;  // (return code, handle) per member
    std::atomic<int> received{0};
    const auto dup_and_talk = [&](Rank& r, Comm inter, bool parent) {
        Comm dup = MPI_COMM_NULL;
        const int rc = r.MPI_Comm_dup(inter, &dup);
        {
            std::lock_guard lk(mu);
            dups.emplace_back(rc, dup);
        }
        if (rc != MPI_SUCCESS) return;
        int me = 0;
        r.MPI_Comm_rank(dup, &me);
        if (parent && me == 0) {
            for (int child = 0; child < 3; ++child) {
                const int v = 100 + child;
                EXPECT_EQ(r.MPI_Send(&v, 1, MPI_INT, child, 5, dup), MPI_SUCCESS);
            }
        } else if (!parent) {
            int v = -1;
            EXPECT_EQ(r.MPI_Recv(&v, 1, MPI_INT, 0, 5, dup, nullptr), MPI_SUCCESS);
            EXPECT_EQ(v, 100 + me);
            ++received;
        }
    };
    world.register_program("child", [&](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        Comm parent = MPI_COMM_NULL;
        r.MPI_Comm_get_parent(&parent);
        dup_and_talk(r, parent, /*parent=*/false);
        r.MPI_Finalize();
    });
    Comm spawned = MPI_COMM_NULL;
    world.register_program("parent", [&](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        Comm inter = MPI_COMM_NULL;
        std::vector<int> errcodes;
        ASSERT_EQ(r.MPI_Comm_spawn("child", {}, 3, MPI_INFO_NULL, 0, r.MPI_COMM_WORLD(),
                                   &inter, &errcodes),
                  MPI_SUCCESS);
        {
            std::lock_guard lk(mu);
            spawned = inter;
        }
        dup_and_talk(r, inter, /*parent=*/true);
        r.MPI_Finalize();
    });
    LaunchPlan plan;
    plan.placements = {"node0", "node1"};
    launch(world, "parent", {}, plan);
    world.join_all();
    ASSERT_EQ(dups.size(), 5u);
    for (const auto& [rc, handle] : dups) {
        EXPECT_EQ(rc, MPI_SUCCESS);
        EXPECT_NE(handle, MPI_COMM_NULL);
        EXPECT_NE(handle, spawned);
        EXPECT_EQ(handle, dups.front().second);
    }
    EXPECT_EQ(received.load(), 3);
}

TEST(Spawn, MpichFlavorRejectsSpawn) {
    // MPICH2 0.96p2 beta did not support dynamic process creation
    // (paper 5.2.2): the paper's spawn results are LAM-only.
    SpawnFixture fx(Flavor::Mpich);
    fx.world.register_program("parent", [&](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        Comm inter = MPI_COMM_NULL;
        std::vector<int> errcodes;
        EXPECT_EQ(r.MPI_Comm_spawn("parent", {}, 2, MPI_INFO_NULL, 0,
                                   r.MPI_COMM_WORLD(), &inter, &errcodes),
                  MPI_ERR_SPAWN);
        ASSERT_EQ(errcodes.size(), 2u);
        EXPECT_EQ(errcodes[0], MPI_ERR_SPAWN);
        r.MPI_Finalize();
    });
    fx.launch_parents(1, "parent");
    EXPECT_EQ(fx.world.proc_count(), 1u);
}

TEST(Spawn, UnknownCommandFails) {
    SpawnFixture fx;
    fx.world.register_program("parent", [&](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        Comm inter = MPI_COMM_NULL;
        std::vector<int> errcodes;
        EXPECT_EQ(r.MPI_Comm_spawn("no-such-binary", {}, 1, MPI_INFO_NULL, 0,
                                   r.MPI_COMM_WORLD(), &inter, &errcodes),
                  MPI_ERR_SPAWN);
        r.MPI_Finalize();
    });
    fx.launch_parents(1, "parent");
}

TEST(Spawn, LamSpawnFileInfoKeyOverridesCommand) {
    // LAM's lam_spawn_file info key points at an application schema
    // that decides what/where to start (paper 4.2.2).
    SpawnFixture fx;
    std::atomic<int> alt_ran{0};
    fx.world.register_program("alt-child", [&](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        ++alt_ran;
        r.MPI_Finalize();
    });
    fx.world.register_program("parent", [&](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        Info info = MPI_INFO_NULL;
        r.MPI_Info_create(&info);
        r.MPI_Info_set(info, "lam_spawn_file", "alt-child");
        Comm inter = MPI_COMM_NULL;
        std::vector<int> errcodes;
        ASSERT_EQ(r.MPI_Comm_spawn("ignored-command", {}, 2, info, 0,
                                   r.MPI_COMM_WORLD(), &inter, &errcodes),
                  MPI_SUCCESS);
        r.MPI_Info_free(&info);
        r.MPI_Finalize();
    });
    fx.launch_parents(1, "parent");
    EXPECT_EQ(alt_ran.load(), 2);
}

TEST(Spawn, MpirProctableOnlyWhenEnabled) {
    for (const bool mpir : {false, true}) {
        SpawnFixture fx(Flavor::Lam, mpir);
        fx.world.register_program("child", [](Rank& r, const std::vector<std::string>&) {
            r.MPI_Init();
            r.MPI_Finalize();
        });
        fx.world.register_program("parent", [&](Rank& r, const std::vector<std::string>&) {
            r.MPI_Init();
            Comm inter = MPI_COMM_NULL;
            std::vector<int> errcodes;
            r.MPI_Comm_spawn("child", {}, 2, MPI_INFO_NULL, 0, r.MPI_COMM_WORLD(),
                             &inter, &errcodes);
            r.MPI_Finalize();
        });
        fx.launch_parents(1, "parent");
        const auto table = fx.world.mpir_proctable();
        if (mpir) {
            ASSERT_EQ(table.size(), 3u);
            EXPECT_EQ(table[1].executable_name, "child");
        } else {
            // LAM/MPICH2 did not support the MPIR dynamic-process
            // interface at the time (paper 4.2.2).
            EXPECT_TRUE(table.empty());
        }
    }
}

TEST(Spawn, SpawnedProcsPlacedOverNodePool) {
    SpawnFixture fx;
    fx.world.register_program("child", [](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        r.MPI_Finalize();
    });
    fx.world.register_program("parent", [&](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        Comm inter = MPI_COMM_NULL;
        std::vector<int> errcodes;
        r.MPI_Comm_spawn("child", {}, 4, MPI_INFO_NULL, 0, r.MPI_COMM_WORLD(), &inter,
                         &errcodes);
        r.MPI_Finalize();
    });
    fx.launch_parents(2, "parent");
    // Children round-robin over the launch nodes.
    std::set<std::string> nodes;
    for (std::size_t g = 2; g < fx.world.proc_count(); ++g)
        nodes.insert(fx.world.proc(static_cast<int>(g)).node);
    EXPECT_EQ(nodes.size(), 2u);
}

}  // namespace
}  // namespace m2p::simmpi
