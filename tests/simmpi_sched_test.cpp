// Fiber scheduler unit tests (DESIGN.md section 12): the park/unpark
// state machine, deadline sweeping, batch and broadcast wakeups,
// fiber-aware sleep, the thread-mode WaitToken fallback and the sched.*
// pvars -- exercised directly against sched::Scheduler, below the
// World/Rank layers that normally drive it (the pvar test goes through
// a World).  Named Sched.* so the TSAN job's -R regex picks them up.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "simmpi/fiber.hpp"
#include "simmpi/launcher.hpp"
#include "simmpi/rank.hpp"
#include "simmpi/sched.hpp"
#include "simmpi/world.hpp"
#include "util/clock.hpp"

namespace m2p::simmpi::sched {
namespace {

using namespace std::chrono_literals;
using clk = std::chrono::steady_clock;

constexpr std::size_t kStack = 256 * 1024;

/// Block the (plain-thread) test body until @p pred holds, using the
/// thread-mode token the fibers unpark -- the same protocol World uses
/// for join completion.
template <class Pred>
void wait_for(const Pred& pred, std::chrono::seconds deadline = 10s) {
    const auto until = clk::now() + deadline;
    const auto& tok = current_wait_token();
    while (!pred()) {
        ASSERT_LT(clk::now(), until) << "predicate never held";
        tok->park_until(clk::now() + 5ms);
    }
}

TEST(Sched, ManyFibersCompleteOnOneWorker) {
    Scheduler s(1);
    constexpr int kFibers = 512;
    std::atomic<int> done{0};
    const auto& main_tok = current_wait_token();
    for (int i = 0; i < kFibers; ++i)
        s.spawn(
            [&] {
                done.fetch_add(1, std::memory_order_relaxed);
                main_tok->unpark();
            },
            kStack);
    wait_for([&] { return done.load() == kFibers; });
}

TEST(Sched, TargetedUnparkWakesExactlyTheParkedFiber) {
    Scheduler s(1);
    std::atomic<bool> ready{false}, woken{false}, bystander_woken{false};
    std::shared_ptr<WaitToken> parked_tok;
    std::mutex mu;
    const auto& main_tok = current_wait_token();

    s.spawn(
        [&] {
            {
                std::lock_guard lk(mu);
                parked_tok = current_wait_token();
            }
            ready.store(true);
            main_tok->unpark();
            while (!woken.load())
                current_wait_token()->park_until(clk::now() + 10s);
            main_tok->unpark();
        },
        kStack);
    // A second parked fiber that must NOT wake from the targeted unpark
    // (only its own generous deadline or test teardown releases it).
    std::atomic<bool> stop_bystander{false};
    s.spawn(
        [&] {
            current_wait_token()->park_until(clk::now() + 500ms);
            bystander_woken.store(true);
            while (!stop_bystander.load())
                current_wait_token()->park_until(clk::now() + 5ms);
            main_tok->unpark();
        },
        kStack);

    wait_for([&] { return ready.load(); });
    std::this_thread::sleep_for(20ms);  // let the fiber actually park
    woken.store(true);
    {
        std::lock_guard lk(mu);
        parked_tok->unpark();
    }
    wait_for([&] { return woken.load(); });
    EXPECT_FALSE(bystander_woken.load())
        << "targeted unpark leaked to another fiber";
    stop_bystander.store(true);
    wait_for([&] { return bystander_woken.load(); });
}

TEST(Sched, UnparkBeforeParkIsConsumedByNextPark) {
    Scheduler s(1);
    std::atomic<bool> done{false};
    const auto& main_tok = current_wait_token();
    s.spawn(
        [&] {
            const auto& tok = current_wait_token();
            tok->unpark();  // pending notify on an idle token
            const auto t0 = clk::now();
            tok->park_until(t0 + 10s);  // must return at once, not in 10s
            EXPECT_LT(clk::now() - t0, 2s);
            done.store(true);
            main_tok->unpark();
        },
        kStack);
    wait_for([&] { return done.load(); });
}

TEST(Sched, RacingUnparkAgainstParkAnnouncementIsNeverLost) {
    // Hammer the Idle->Parking announcement window: the waker thread
    // fires unpark() concurrently with the fiber's park_until(), so
    // some rounds land between the fast-path load and the kParking
    // transition.  A blind store there (instead of a CAS) overwrites
    // the notify and the round stalls for the full 10 s deadline.
    Scheduler s(1);
    constexpr int kRounds = 10000;
    std::atomic<int> acked{0};
    std::atomic<bool> go{false}, done{false}, tok_ready{false};
    std::shared_ptr<WaitToken> tok;
    const auto& main_tok = current_wait_token();
    s.spawn(
        [&] {
            tok = current_wait_token();
            tok_ready.store(true);
            for (int i = 0; i < kRounds; ++i) {
                while (!go.exchange(false, std::memory_order_acq_rel))
                    current_wait_token()->park_until(clk::now() + 10s);
                acked.fetch_add(1, std::memory_order_release);
            }
            done.store(true);
            main_tok->unpark();
        },
        kStack);
    while (!tok_ready.load()) std::this_thread::sleep_for(1ms);
    for (int i = 0; i < kRounds; ++i) {
        go.store(true, std::memory_order_release);
        tok->unpark();
        const auto until = clk::now() + 10s;
        while (acked.load(std::memory_order_acquire) <= i)
            ASSERT_LT(clk::now(), until) << "unpark lost at round " << i;
    }
    wait_for([&] { return done.load(); });
}

TEST(Sched, RankCpuSecondsChargesTheFiberNotTheWorker) {
    // Two fibers share one worker: a burner that spins and an idler
    // that parks while the burner owns the worker.  Reading the thread
    // CPU clock would charge the idler the burner's work; the
    // fiber-aware rank_cpu_seconds() provider must not.
    Scheduler s(1);
    std::atomic<bool> stop{false}, done{false};
    CpuAccount burner_cpu, idler_cpu;
    std::atomic<double> idle_delta{-1.0}, burner_total{0.0};
    const auto& main_tok = current_wait_token();
    s.spawn(
        [&] {
            while (!stop.load(std::memory_order_acquire)) {
                volatile std::uint64_t acc = 0;
                for (int i = 0; i < 200000; ++i)
                    acc += static_cast<std::uint64_t>(i);
                maybe_yield();
            }
            burner_total.store(util::rank_cpu_seconds());
            main_tok->unpark();
        },
        kStack, &burner_cpu);
    s.spawn(
        [&] {
            const double t0 = util::rank_cpu_seconds();
            sleep_for(150ms);  // the burner owns the worker meanwhile
            const double t1 = util::rank_cpu_seconds();
            idle_delta.store(t1 - t0);
            stop.store(true, std::memory_order_release);
            done.store(true);
            main_tok->unpark();
        },
        kStack, &idler_cpu);
    wait_for([&] { return done.load(); });
    wait_for([&] { return burner_total.load() > 0.0; });
    EXPECT_GE(idle_delta.load(), 0.0) << "per-fiber CPU went backwards";
    EXPECT_LT(idle_delta.load(), 0.05)
        << "idle fiber was charged the worker's CPU";
    EXPECT_GT(burner_total.load(), 0.05);
}

TEST(Sched, DeadlineSweeperReleasesAnUnnotifiedPark) {
    Scheduler s(1);
    std::atomic<bool> done{false};
    const auto& main_tok = current_wait_token();
    s.spawn(
        [&] {
            const auto t0 = clk::now();
            current_wait_token()->park_until(t0 + 50ms);
            // Nobody unparks us: only the deadline can release the park.
            EXPECT_GE(clk::now() - t0, 40ms);
            done.store(true);
            main_tok->unpark();
        },
        kStack);
    wait_for([&] { return done.load(); });
}

TEST(Sched, UnparkAllParkedWakesEveryParkedFiber) {
    Scheduler s(2);
    constexpr int kFibers = 32;
    std::atomic<int> parked_hint{0}, released{0};
    std::atomic<bool> go{false};
    const auto& main_tok = current_wait_token();
    for (int i = 0; i < kFibers; ++i)
        s.spawn(
            [&] {
                parked_hint.fetch_add(1);
                while (!go.load())
                    current_wait_token()->park_until(clk::now() + 10s);
                released.fetch_add(1);
                main_tok->unpark();
            },
            kStack);
    wait_for([&] { return parked_hint.load() == kFibers; });
    std::this_thread::sleep_for(50ms);  // give everyone time to park
    go.store(true);
    // The death-epoch/poison broadcast path: every parked fiber must
    // re-check its predicate well before its 10 s deadline.
    const auto t0 = clk::now();
    s.unpark_all_parked();
    wait_for([&] { return released.load() == kFibers; });
    EXPECT_LT(clk::now() - t0, 5s);
}

TEST(Sched, SleepingFibersShareOneWorker) {
    // 16 fibers each sleep 100 ms on a single worker.  With a wedging
    // sleep this takes 1.6 s; with a parking sleep, about 100 ms.
    Scheduler s(1);
    constexpr int kFibers = 16;
    std::atomic<int> done{0};
    const auto& main_tok = current_wait_token();
    const auto t0 = clk::now();
    for (int i = 0; i < kFibers; ++i)
        s.spawn(
            [&] {
                sleep_for(100ms);
                done.fetch_add(1);
                main_tok->unpark();
            },
            kStack);
    wait_for([&] { return done.load() == kFibers; });
    EXPECT_LT(clk::now() - t0, 1s) << "sleep_for wedged the worker";
}

TEST(Sched, OnFiberAndSliceClockReflectContext) {
    EXPECT_FALSE(on_fiber());
    EXPECT_EQ(current_slice_cpu_ns(), 0);
    Scheduler s(1);
    std::atomic<bool> done{false};
    std::atomic<bool> was_on_fiber{false};
    std::atomic<std::int64_t> slice_ns{-1};
    const auto& main_tok = current_wait_token();
    s.spawn(
        [&] {
            was_on_fiber.store(on_fiber());
            // Burn a little CPU so the slice clock has something to show.
            volatile std::uint64_t acc = 0;
            for (int i = 0; i < 2'000'000; ++i) acc += static_cast<std::uint64_t>(i);
            slice_ns.store(current_slice_cpu_ns());
            done.store(true);
            main_tok->unpark();
        },
        kStack);
    wait_for([&] { return done.load(); });
    EXPECT_TRUE(was_on_fiber.load());
    EXPECT_GT(slice_ns.load(), 0);
}

TEST(Sched, ThreadModeTokenParksAndUnparksAcrossThreads) {
    // No scheduler at all: the fallback must work for plain OS threads
    // (tool threads and other OS threads that are not ranks).
    const auto& tok = current_wait_token();
    ASSERT_NE(tok, nullptr);
    std::atomic<bool> flag{false};
    std::thread waker([&] {
        std::this_thread::sleep_for(30ms);
        flag.store(true);
        tok->unpark();
    });
    const auto until = clk::now() + 10s;
    while (!flag.load()) {
        ASSERT_LT(clk::now(), until);
        tok->park_until(clk::now() + 5s);
    }
    waker.join();
    SUCCEED();
}

TEST(Sched, MaybeYieldKeepsBusyLoopsFair) {
    // Two busy-polling fibers on one worker: without the fairness point
    // the first to run would spin forever.  maybe_yield is strided, so
    // each loop iteration calls it once and the stride (64) is crossed
    // quickly.
    Scheduler s(1);
    std::atomic<int> turn{0};
    std::atomic<bool> done{false};
    const auto& main_tok = current_wait_token();
    const auto spin_until_turn = [&](int mine, int rounds) {
        for (int r = 0; r < rounds; ++r) {
            while (turn.load(std::memory_order_acquire) % 2 != mine)
                maybe_yield();  // busy poll, cooperative
            turn.fetch_add(1, std::memory_order_acq_rel);
        }
    };
    s.spawn([&] { spin_until_turn(0, 50); }, kStack);
    s.spawn(
        [&] {
            spin_until_turn(1, 50);
            done.store(true);
            main_tok->unpark();
        },
        kStack);
    wait_for([&] { return done.load(); });
    EXPECT_EQ(turn.load(), 100);
}

TEST(Sched, WorkIsStolenAcrossWorkers) {
    // Spawn from the injector with 4 workers: completion of all fibers
    // requires idle workers to pull from the shared queue / steal.
    Scheduler s(4);
    constexpr int kFibers = 64;
    std::atomic<int> done{0};
    const auto& main_tok = current_wait_token();
    for (int i = 0; i < kFibers; ++i)
        s.spawn(
            [&] {
                sleep_for(1ms);
                done.fetch_add(1);
                main_tok->unpark();
            },
            kStack);
    wait_for([&] { return done.load() == kFibers; });
    EXPECT_EQ(s.worker_count(), 4u);
}

TEST(Sched, MeasuredPoolGrowsForFibersThatNeverPark) {
    // A measured (tool-attached) scheduler on one worker: three fibers
    // spin without parking until all three have started.  The second
    // and third can start only if long slices grow the pool.
    Scheduler s(1);
    s.set_measured();
    constexpr int kFibers = 3;
    std::atomic<int> started{0}, saw_all{0}, done{0};
    const auto& main_tok = current_wait_token();
    const auto t0 = clk::now();
    for (int i = 0; i < kFibers; ++i)
        s.spawn(
            [&] {
                started.fetch_add(1);
                const auto give_up = clk::now() + 5s;
                while (started.load() < kFibers && clk::now() < give_up) {
                }
                if (started.load() == kFibers) saw_all.fetch_add(1);
                done.fetch_add(1);
                main_tok->unpark();
            },
            kStack);
    wait_for([&] { return done.load() == kFibers; }, 20s);
    EXPECT_EQ(saw_all.load(), kFibers) << "a spinning fiber held the only worker";
    EXPECT_LT(clk::now() - t0, 2s);
    EXPECT_GE(s.worker_count(), static_cast<std::size_t>(kFibers));
}

TEST(Sched, MeasuredPoolStaysSmallWhenFibersPark) {
    // 64 fibers that park every millisecond on a measured two-worker
    // scheduler: no slice is long, so the pool does not grow to one
    // worker (one OS thread) per fiber.
    Scheduler s(2);
    s.set_measured();
    constexpr int kFibers = 64;
    std::atomic<int> done{0};
    const auto& main_tok = current_wait_token();
    for (int i = 0; i < kFibers; ++i)
        s.spawn(
            [&] {
                for (int k = 0; k < 20; ++k) sleep_for(1ms);
                done.fetch_add(1);
                main_tok->unpark();
            },
            kStack);
    wait_for([&] { return done.load() == kFibers; });
    EXPECT_LT(s.worker_count(), static_cast<std::size_t>(kFibers));
}

TEST(Sched, StaggeredDeadlineParksExpireOnTimeUnderChurn) {
    // 256 fibers on 4 workers park with staggered 1-50 ms deadlines that
    // nobody unparks, three times in a row, so re-parks land while the
    // sweeper is still scanning or waking its last batch.  Meanwhile
    // ping-pong pairs churn park/unpark: deadline-less, and every other
    // round with a far deadline so those parks poke the sweeper too.
    // Every timed park must end no earlier than its deadline (only the
    // sweeper can end it) and within a generous bound after it.
    Scheduler s(4);
    constexpr int kTimed = 256;
    constexpr int kRepeats = 3;
    constexpr int kPairs = 8;
    constexpr auto kLateBound = 2s;
    const auto& main_tok = current_wait_token();

    struct Pair {
        std::atomic<int> turn{0};
        std::shared_ptr<WaitToken> tok[2];
    };
    std::vector<std::unique_ptr<Pair>> pairs;
    std::vector<std::shared_ptr<WaitToken>> churn_toks;
    std::atomic<bool> tokens_ready{false}, stop{false};
    std::atomic<int> churn_done{0};
    std::atomic<std::uint64_t> churn_rounds{0};
    for (int p = 0; p < kPairs; ++p) {
        pairs.push_back(std::make_unique<Pair>());
        Pair* pr = pairs.back().get();
        for (int side = 0; side < 2; ++side) {
            Fiber* f = s.spawn(
                [&, pr, side] {
                    const auto& me = current_wait_token();
                    while (!tokens_ready.load(std::memory_order_acquire))
                        me->park_until(clk::now() + 1ms);
                    for (std::uint64_t round = 0;; ++round) {
                        while (pr->turn.load(std::memory_order_acquire) != side) {
                            if (stop.load()) {
                                churn_done.fetch_add(1);
                                main_tok->unpark();
                                return;
                            }
                            me->park_until(round % 2 == 0 ? clk::time_point::max()
                                                          : clk::now() + 10s);
                        }
                        churn_rounds.fetch_add(1, std::memory_order_relaxed);
                        pr->turn.store(1 - side, std::memory_order_release);
                        pr->tok[1 - side]->unpark();
                    }
                },
                kStack);
            pr->tok[side] = f->token();
            churn_toks.push_back(f->token());
        }
    }
    tokens_ready.store(true, std::memory_order_release);

    std::atomic<int> timed_done{0}, early{0}, late{0};
    std::atomic<std::int64_t> worst_late_us{0};
    for (int i = 0; i < kTimed; ++i)
        s.spawn(
            [&, i] {
                for (int r = 0; r < kRepeats; ++r) {
                    const auto deadline =
                        clk::now() + std::chrono::milliseconds(1 + (i * 7 + r * 13) % 50);
                    current_wait_token()->park_until(deadline);
                    const auto now = clk::now();
                    if (now < deadline) {
                        early.fetch_add(1);
                        continue;
                    }
                    if (now - deadline > kLateBound) late.fetch_add(1);
                    const std::int64_t us =
                        std::chrono::duration_cast<std::chrono::microseconds>(now - deadline)
                            .count();
                    std::int64_t seen = worst_late_us.load();
                    while (us > seen && !worst_late_us.compare_exchange_weak(seen, us)) {
                    }
                }
                timed_done.fetch_add(1);
                main_tok->unpark();
            },
            kStack);

    wait_for([&] { return timed_done.load() == kTimed; });
    EXPECT_EQ(early.load(), 0) << "a deadline park returned before its deadline";
    EXPECT_EQ(late.load(), 0) << "worst lateness " << worst_late_us.load() << " us";
    EXPECT_GT(churn_rounds.load(), 0u) << "the churn never ran alongside the parks";
    stop.store(true);
    unpark_all(churn_toks);
    wait_for([&] { return churn_done.load() == 2 * kPairs; });
}

TEST(Sched, ReparksRacingASweepAreNeverMissed) {
    // Fibers in lockstep park with 1 ms deadlines that nobody unparks,
    // so each sweep finds them all due at once and has no deadline left
    // to sleep to, and their re-parks land while the sweeper is still
    // waking the batch, before it publishes its next horizon.  A
    // re-park the horizon handshake missed would sleep forever.
    Scheduler s(4);
    constexpr int kFibers = 64;
    constexpr int kRounds = 50;
    std::atomic<int> done{0}, late{0};
    const auto& main_tok = current_wait_token();
    for (int i = 0; i < kFibers; ++i)
        s.spawn(
            [&] {
                for (int r = 0; r < kRounds; ++r) {
                    const auto deadline = clk::now() + 1ms;
                    current_wait_token()->park_until(deadline);
                    if (clk::now() - deadline > 2s) late.fetch_add(1);
                }
                done.fetch_add(1);
                main_tok->unpark();
            },
            kStack);
    wait_for([&] { return done.load() == kFibers; });
    EXPECT_EQ(late.load(), 0);
}

TEST(Sched, UnparkAllMatchesPerTokenUnpark) {
    // One unpark_all over 256 Parked fibers, one thread-mode token and
    // one Idle fiber token must do what per-token unpark() does: every
    // Parked fiber runs, the thread-mode token is notified, and the
    // Idle token is left Notified for its owner's next park.
    Scheduler s(4);
    constexpr int kParked = 256;
    std::atomic<int> ran{0};
    std::vector<std::shared_ptr<WaitToken>> toks;
    for (int i = 0; i < kParked; ++i) {
        Fiber* f = s.spawn(
            [&] {
                // One deadline-less park: only the batch wake can end it.
                current_wait_token()->park_until(clk::time_point::max());
                ran.fetch_add(1);
            },
            kStack);
        toks.push_back(f->token());
    }
    wait_for([&] { return s.stats().parks >= kParked; });
    std::this_thread::sleep_for(20ms);  // let the last parks publish Parked

    std::atomic<bool> idle_running{false}, idle_go{false}, idle_done{false};
    std::atomic<std::int64_t> idle_park_ms{-1};
    Fiber* idle = s.spawn(
        [&] {
            idle_running.store(true);
            while (!idle_go.load()) maybe_yield();
            const auto t0 = clk::now();
            current_wait_token()->park_until(t0 + 10s);  // consumes the notify
            idle_park_ms.store(
                std::chrono::duration_cast<std::chrono::milliseconds>(clk::now() - t0)
                    .count());
            idle_done.store(true);
        },
        kStack);
    toks.push_back(idle->token());
    wait_for([&] { return idle_running.load(); });

    const auto& main_tok = current_wait_token();
    main_tok->park_until(clk::now());  // drain to Idle
    toks.push_back(main_tok);
    const std::uint64_t batch_before = s.stats().batch_wakes;

    unpark_all(toks);
    // Thread mode caps an un-notified park at its 5 ms slice, so a
    // prompt return means the batch left the token notified.
    const auto t0 = clk::now();
    main_tok->park_until(t0 + 10s);
    EXPECT_LT(clk::now() - t0, 5ms) << "thread-mode token was not notified";

    wait_for([&] { return ran.load() == kParked; });
    EXPECT_EQ(s.stats().batch_wakes - batch_before, static_cast<std::uint64_t>(kParked));
    idle_go.store(true);
    wait_for([&] { return idle_done.load(); });
    EXPECT_LT(idle_park_ms.load(), 2000) << "Idle token was not left Notified";
}

/// name -> value over one pvar snapshot.
std::map<std::string, std::uint64_t> pvar_values(pvar::Registry& reg) {
    std::map<std::string, std::uint64_t> out;
    for (const pvar::Sample& smp : reg.snapshot().samples)
        if (const pvar::Desc* d = reg.describe(smp.id)) out[d->name] = smp.value;
    return out;
}

TEST(Sched, ParksPvarIsMonotoneAcrossABarrierLoop) {
    constexpr int kRanks = 256;
    constexpr int kBarriers = 200;
    instr::Registry reg;
    World::Config cfg;
    cfg.sched_workers = 4;
    World world(reg, cfg);
    world.register_program("barriers", [](Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        for (int i = 0; i < kBarriers; ++i)
            ASSERT_EQ(r.MPI_Barrier(r.MPI_COMM_WORLD()), MPI_SUCCESS);
        r.MPI_Finalize();
    });
    pvar::Registry& pv = world.pvars();
    ASSERT_EQ(pvar_values(pv).count("sched.parks"), 1u);
    LaunchPlan plan;
    plan.placements.assign(kRanks, "node0");
    launch(world, "barriers", {}, plan);
    std::uint64_t prev = 0;
    for (int i = 0; i < 50; ++i) {
        const std::uint64_t now = pvar_values(pv).at("sched.parks");
        EXPECT_GE(now, prev) << "sched.parks went backwards at sample " << i;
        prev = now;
        std::this_thread::sleep_for(1ms);
    }
    world.join_all();
    const auto fin = pvar_values(pv);
    EXPECT_GE(fin.at("sched.parks"), prev);
    EXPECT_GT(fin.at("sched.parks"), 0u);
    EXPECT_GT(fin.at("sched.batch_wakes"), 0u) << "barrier closers wake in batches";
}

TEST(Sched, UnparkedSecondsExcludeParks) {
    // Each rank runs 60 ms (two wall-clock spins) around a 60 ms sleep:
    // the sleep parks, so it must not count as asking for CPU, and
    // neither may the time after the rank finished.  The test thread
    // reads the counts while the ranks run (TSAN sees both sides).
    instr::Registry reg;
    World::Config cfg;
    cfg.sched_workers = 2;
    World world(reg, cfg);
    world.register_program("spin-sleep-spin", [](Rank& r, const std::vector<std::string>&) {
        const auto spin = [](std::chrono::milliseconds d) {
            const auto end = clk::now() + d;
            while (clk::now() < end) {
            }
        };
        r.MPI_Init();
        spin(30ms);
        sleep_for(60ms);
        spin(30ms);
        r.MPI_Finalize();
    });
    LaunchPlan plan;
    plan.placements.assign(2, "node0");
    launch(world, "spin-sleep-spin", {}, plan);
    while (!world.all_finished()) {
        for (int g = 0; g < 2; ++g) EXPECT_GE(world.proc_unparked_seconds(g), 0.0);
        std::this_thread::sleep_for(1ms);
    }
    world.join_all();
    for (int g = 0; g < 2; ++g) {
        const double unparked = world.proc_unparked_seconds(g);
        EXPECT_GT(unparked, 0.055);
        // Counting the 60 ms sleep would read at least 0.12.
        EXPECT_LT(unparked, 0.115) << "the sleep counted";
        std::this_thread::sleep_for(20ms);
        EXPECT_EQ(world.proc_unparked_seconds(g), unparked)
            << "a finished rank still asks for CPU";
    }
}

}  // namespace
}  // namespace m2p::simmpi::sched
