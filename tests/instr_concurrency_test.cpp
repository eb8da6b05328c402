// Concurrent instrumentation churn: the lock-free dispatch path must
// deliver every snippet execution exactly once while snippets are
// inserted/removed and functions are registered from other threads.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "instr/registry.hpp"

namespace m2p::instr {
namespace {

TEST(InstrConcurrency, ChurnWhileEightThreadsDispatch) {
    Registry reg;
    const FuncId f = reg.register_function("f", "m", 0);
    constexpr int kThreads = 8;
    constexpr long kGuards = 4000;

    // Permanent snippet: counts entry fires per dispatching thread, so
    // a lost or duplicated execution shows up as a wrong exact count.
    std::atomic<std::uint64_t> per_thread[kThreads] = {};
    const SnippetHandle permanent =
        reg.insert(f, Where::Entry, [&](const CallContext& c) {
            per_thread[c.args[0]].fetch_add(1, std::memory_order_relaxed);
        });

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> churn_fires{0};
    std::atomic<std::uint64_t> churn_cycles{0};
    std::thread mutator([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            const SnippetHandle h =
                reg.insert(f, Where::Entry, [&](const CallContext&) {
                    churn_fires.fetch_add(1, std::memory_order_relaxed);
                });
            EXPECT_TRUE(reg.remove(h));
            churn_cycles.fetch_add(1, std::memory_order_relaxed);
        }
    });

    reg.reset_stats();
    std::vector<std::thread> dispatchers;
    for (int t = 0; t < kThreads; ++t)
        dispatchers.emplace_back([&, t] {
            const std::int64_t args[] = {t};
            for (long i = 0; i < kGuards; ++i) FunctionGuard g(reg, f, args);
        });
    for (auto& t : dispatchers) t.join();
    stop = true;
    mutator.join();

    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(per_thread[t].load(), static_cast<std::uint64_t>(kGuards))
            << "thread " << t << " lost or duplicated permanent-snippet fires";
    EXPECT_GT(churn_cycles.load(), 0u);
    // Churned snippet fires at most once per entry event.
    EXPECT_LE(churn_fires.load(), static_cast<std::uint64_t>(kThreads) * kGuards);

    const DispatchStats s = reg.stats();
    EXPECT_EQ(s.events, 2ULL * kThreads * kGuards);
    // Every entry event ran the permanent snippet; the churned one adds
    // exactly churn_fires executions on top.
    EXPECT_EQ(s.snippets_executed,
              static_cast<std::uint64_t>(kThreads) * kGuards + churn_fires.load());

    // Clean shutdown: after removal nothing fires any more.
    EXPECT_TRUE(reg.remove(permanent));
    EXPECT_EQ(reg.snippet_count(f, Where::Entry), 0u);
    const std::uint64_t before = per_thread[0].load();
    {
        const std::int64_t args[] = {0};
        FunctionGuard g(reg, f, args);
    }
    EXPECT_EQ(per_thread[0].load(), before);
}

TEST(InstrConcurrency, RegisterWhileDispatching) {
    // The append-only table must stay readable (no locks, no
    // reallocation) while another thread grows it past chunk
    // boundaries.
    Registry reg;
    const FuncId f = reg.register_function("hot", "m", 0);
    std::atomic<std::uint64_t> fires{0};
    reg.insert(f, Where::Entry,
               [&](const CallContext&) { fires.fetch_add(1, std::memory_order_relaxed); });

    std::atomic<bool> stop{false};
    std::thread registrar([&] {
        for (int i = 0; i < 2000 && !stop.load(std::memory_order_relaxed); ++i)
            reg.register_function("fn" + std::to_string(i), "mod" + std::to_string(i % 7),
                                  static_cast<std::uint32_t>(Category::AppCode));
    });
    constexpr long kGuards = 20000;
    for (long i = 0; i < kGuards; ++i) FunctionGuard g(reg, f);
    stop = true;
    registrar.join();
    EXPECT_EQ(fires.load(), static_cast<std::uint64_t>(kGuards));
    EXPECT_GE(reg.function_count(), 1u);
    EXPECT_EQ(reg.find("hot", "m"), f);
}

TEST(InstrConcurrency, StatsAreShardedPerRegistry) {
    // Two registries used alternately from several threads: shards must
    // not bleed between registries.
    Registry a, b;
    const FuncId fa = a.register_function("f", "m", 0);
    const FuncId fb = b.register_function("f", "m", 0);
    constexpr int kThreads = 4;
    constexpr long kGuards = 3000;
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t)
        ts.emplace_back([&] {
            for (long i = 0; i < kGuards; ++i) {
                FunctionGuard ga(a, fa);
                FunctionGuard gb(b, fb);
            }
        });
    for (auto& t : ts) t.join();
    EXPECT_EQ(a.stats().events, 2ULL * kThreads * kGuards);
    EXPECT_EQ(b.stats().events, 2ULL * kThreads * kGuards);
    a.reset_stats();
    EXPECT_EQ(a.stats().events, 0u);
    EXPECT_EQ(b.stats().events, 2ULL * kThreads * kGuards);
}

TEST(InstrConcurrency, RemoveDuringDispatchKeepsSnapshotAlive) {
    // A dispatcher walking a snapshot while the snippet is removed must
    // finish on the old snapshot (hazard protection), never crash.
    Registry reg;
    const FuncId f = reg.register_function("f", "m", 0);
    std::atomic<std::uint64_t> fires{0};
    std::atomic<bool> stop{false};
    std::thread dispatcher([&] {
        while (!stop.load(std::memory_order_relaxed)) FunctionGuard g(reg, f);
    });
    for (int i = 0; i < 3000; ++i) {
        const SnippetHandle h = reg.insert(f, Where::Return, [&](const CallContext&) {
            fires.fetch_add(1, std::memory_order_relaxed);
        });
        const SnippetHandle h2 = reg.insert(f, Where::Return, [&](const CallContext&) {
            fires.fetch_add(1, std::memory_order_relaxed);
        }, /*prepend=*/true);
        EXPECT_TRUE(reg.remove(h2));
        EXPECT_TRUE(reg.remove(h));
    }
    stop = true;
    dispatcher.join();
    EXPECT_EQ(reg.snippet_count(f, Where::Return), 0u);
    SUCCEED();
}

TEST(InstrConcurrency, ThrowingSnippetDoesNotPinItsSnapshot) {
    // A snippet that throws out of dispatch must still unpin the
    // snapshot it ran from: once removed, the snapshot (and whatever the
    // snippet captured) is freed, and the thread's next dispatch works.
    Registry reg;
    const FuncId f = reg.register_function("f", "m", 0);
    auto captured = std::make_shared<int>(7);
    const std::weak_ptr<int> watch = captured;
    const SnippetHandle thrower =
        reg.insert(f, Where::Entry, [captured](const CallContext&) {
            throw std::runtime_error("snippet failed");
        });
    captured.reset();
    EXPECT_THROW({ FunctionGuard g(reg, f); }, std::runtime_error);
    EXPECT_TRUE(reg.remove(thrower));
    // Each insert/remove retires a snapshot and rescans the hazard slots.
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(reg.remove(reg.insert(f, Where::Return, [](const CallContext&) {})));
    EXPECT_TRUE(watch.expired()) << "the throwing snippet's snapshot is still pinned";

    int fires = 0;
    const SnippetHandle counter =
        reg.insert(f, Where::Entry, [&](const CallContext&) { ++fires; });
    { FunctionGuard g(reg, f); }
    EXPECT_EQ(fires, 1);
    EXPECT_TRUE(reg.remove(counter));
}

}  // namespace
}  // namespace m2p::instr
