// Rank scaling: fiber ranks at 16..1024 in one process.
//
// Every rank is a fiber multiplexed over a small worker pool with
// park/unpark wakeups, so world size is bounded by memory, not by the
// kernel scheduler.  This bench drives three workloads -- Barrier,
// Allreduce(64 doubles), and a contended exclusive RMA lock on rank 0's
// window -- at {16, 64, 256, 1024} ranks on a raw world (no tool, the
// hardware_concurrency pool) and grades that the 1024-rank cells
// complete in-process.
//
// `--smoke` runs one tiny repetition per cell and skips the grade (CI
// uses it to keep the harness honest).
#include "bench_common.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <vector>

#include "instr/registry.hpp"
#include "simmpi/launcher.hpp"
#include "simmpi/rank.hpp"
#include "simmpi/world.hpp"

namespace {

using namespace m2p;

double wall_seconds() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

enum class Workload { Barrier, Allreduce, RmaLock };

const char* workload_name(Workload w) {
    switch (w) {
        case Workload::Barrier: return "barrier";
        case Workload::Allreduce: return "allreduce";
        case Workload::RmaLock: return "rmalock";
    }
    return "?";
}

/// Runs @p iters operations of @p wl on a fresh world of @p nranks and
/// returns wall seconds per op (timed on rank 0 between barriers).
/// Returns a negative value if any rank saw an error.
double run_workload(Workload wl, int nranks, long iters) {
    instr::Registry reg;
    simmpi::World::Config cfg;
    cfg.wait_deadline_seconds = 60.0;
    cfg.join_deadline_seconds = 300.0;
    simmpi::World world(reg, cfg);
    std::atomic<double> t0{0.0}, t1{0.0};
    std::atomic<bool> failed{false};
    world.register_program("wl", [&](simmpi::Rank& r,
                                     const std::vector<std::string>&) {
        r.MPI_Init();
        const simmpi::Comm w = r.MPI_COMM_WORLD();
        int me = 0;
        r.MPI_Comm_rank(w, &me);
        std::vector<double> acc(64, 1.0), out(64, 0.0);
        std::vector<std::int32_t> mem(64, 0);
        simmpi::Win win = simmpi::MPI_WIN_NULL;
        if (wl == Workload::RmaLock &&
            r.MPI_Win_create(mem.data(),
                             static_cast<std::int64_t>(mem.size()) * 4, 4,
                             simmpi::MPI_INFO_NULL, w, &win) !=
                simmpi::MPI_SUCCESS)
            failed.store(true);
        r.MPI_Barrier(w);
        if (me == 0) t0.store(wall_seconds());
        int rc = simmpi::MPI_SUCCESS;
        for (long i = 0; i < iters && rc == simmpi::MPI_SUCCESS; ++i) {
            switch (wl) {
                case Workload::Barrier:
                    rc = r.MPI_Barrier(w);
                    break;
                case Workload::Allreduce:
                    rc = r.MPI_Allreduce(acc.data(), out.data(), 64,
                                         simmpi::MPI_DOUBLE, simmpi::MPI_SUM, w);
                    break;
                case Workload::RmaLock: {
                    // Every rank hammers rank 0's window under an
                    // exclusive lock: the fully-serialized shape where
                    // wakeup latency, not bandwidth, is the cost.
                    const std::int32_t v = me;
                    rc = r.MPI_Win_lock(simmpi::MPI_LOCK_EXCLUSIVE, 0, 0, win);
                    if (rc == simmpi::MPI_SUCCESS)
                        rc = r.MPI_Put(&v, 1, simmpi::MPI_INT, 0,
                                       me % 64, 1, simmpi::MPI_INT, win);
                    if (rc == simmpi::MPI_SUCCESS)
                        rc = r.MPI_Win_unlock(0, win);
                    break;
                }
            }
        }
        if (rc != simmpi::MPI_SUCCESS) failed.store(true);
        r.MPI_Barrier(w);
        if (me == 0) t1.store(wall_seconds());
        if (win != simmpi::MPI_WIN_NULL) r.MPI_Win_free(&win);
        r.MPI_Finalize();
    });
    simmpi::LaunchPlan plan;
    for (int i = 0; i < nranks; ++i)
        plan.placements.push_back("node" + std::to_string(i / 8));
    simmpi::launch(world, "wl", {}, plan);
    world.join_all();
    if (failed.load() || !world.epitaphs().empty()) return -1.0;
    return (t1.load() - t0.load()) / static_cast<double>(iters);
}

long iters_for(Workload wl, int nranks, bool smoke) {
    if (smoke) return 2;
    const long budget = wl == Workload::RmaLock ? 2048 : 6144;
    return std::max<long>(3, budget / nranks);
}

}  // namespace

int main(int argc, char** argv) {
    const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
    bench::header("Rank scaling: fiber ranks, 16..1024 in one process",
                  smoke ? "smoke mode (harness check only)"
                        : "barrier/allreduce/RMA-lock wall clock, 16..1024 ranks");
    bench::Grader g;
    bench::JsonEmitter json("rankscale");
    json.describe_host();

    const Workload workloads[] = {Workload::Barrier, Workload::Allreduce,
                                  Workload::RmaLock};
    const int sizes[] = {16, 64, 256, 1024};

    bool all_completed = true;
    util::TextTable ft({"ranks", "barrier us/op", "allreduce us/op",
                        "rmalock us/op"});
    for (const int n : sizes) {
        std::vector<std::string> row{std::to_string(n)};
        for (const Workload wl : workloads) {
            const long iters = iters_for(wl, n, smoke);
            const int reps = smoke ? 1 : (n >= 1024 ? 2 : 3);
            double best = 1e30;
            for (int rep = 0; rep < reps; ++rep)
                best = std::min(best, run_workload(wl, n, iters));
            if (best < 0.0) all_completed = false;
            row.push_back(util::fmt(best * 1e6, 1));
            json.record("fiber_" + std::to_string(n) + "ranks_" +
                            workload_name(wl) + "_us_per_op",
                        best * 1e6, "us");
        }
        ft.add_row(row);
    }
    std::printf("%s", ft.render().c_str());

    g.check(smoke ? "smoke: all sizes and workloads completed"
                  : "16..1024-rank barrier+allreduce+rmalock workloads complete in-process",
            all_completed);
    const std::string body = json.render();
    g.check("json renders well-formed record set",
            body.rfind("{\"bench\":\"rankscale\"", 0) == 0 &&
                body.find("\"records\":[") != std::string::npos &&
                body.substr(body.size() - 3) == "]}\n");

    json.write_file();
    std::printf("\nRank scaling: %d failures\n", g.failures());
    return g.exit_code();
}
