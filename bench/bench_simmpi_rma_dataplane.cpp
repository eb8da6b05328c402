// RMA data-plane bench: per-op cost of simmpi's one-sided engine
// (per-target shards, zero-copy direct apply, per-epoch completion
// tokens, epoch-batched Table-1 counters) across fence-heavy, PSCW,
// own-target and all-on-one-target lock epochs, and a 16-deep
// contended lock handoff.  The speedups over the single-mutex design
// it replaced are recorded in EXPERIMENTS.md; the Table-1 counter
// contract is pinned by tests/simmpi_rma_matrix_test.cpp.
//
// `--smoke` runs a tiny iteration count (CI uses it to assert the
// harness and JSON stay sound).
#include "bench_common.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

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

/// Every rank stamps its own section start/end; the measured interval
/// is max(end) - min(start).  A single designated stamper races the
/// workload on a loaded host: if it is descheduled right after the
/// opening barrier, the other ranks' work happens before its t0 and
/// the interval under-reports (badly -- we measured 10x).
void stamp_min(std::atomic<double>& a, double v) {
    double cur = a.load();
    while ((cur == 0.0 || v < cur) && !a.compare_exchange_weak(cur, v)) {}
}

void stamp_max(std::atomic<double>& a, double v) {
    double cur = a.load();
    while (v > cur && !a.compare_exchange_weak(cur, v)) {}
}

/// Runs @p body on @p n ranks (MPICH flavor: counter fence and staged
/// PSCW) and returns wall seconds between the two timing stamps the
/// body publishes via t0/t1.
double timed_run(int n, std::function<void(simmpi::Rank&, int, std::atomic<double>&,
                                          std::atomic<double>&)>
                           body) {
    instr::Registry reg;
    simmpi::World::Config cfg;
    cfg.flavor = simmpi::Flavor::Mpich;
    simmpi::World world(reg, cfg);
    std::atomic<double> t0{0.0}, t1{0.0};
    world.register_program("rma", [&](simmpi::Rank& r, const std::vector<std::string>&) {
        r.MPI_Init();
        int me = 0;
        r.MPI_Comm_rank(r.MPI_COMM_WORLD(), &me);
        body(r, me, t0, t1);
        r.MPI_Finalize();
    });
    simmpi::LaunchPlan plan;
    for (int i = 0; i < n; ++i) plan.placements.push_back("node0");
    simmpi::launch(world, "rma", {}, plan);
    world.join_all();
    return t1.load() - t0.load();
}

// ---------------------------------------------------------------------------
// Workload shapes.
// ---------------------------------------------------------------------------

constexpr int kFencePuts = 8;      ///< puts per rank per fence epoch
constexpr int kFenceBytes = 64;    ///< bytes per fence-epoch put
constexpr int kPscwPuts = 4;       ///< puts per origin per PSCW epoch
constexpr int kPscwBytes = 256;    ///< bytes per PSCW put
constexpr int kLockPuts = 4;       ///< puts per lock epoch
constexpr int kLockBytes = 256;    ///< bytes per lock-epoch put/get

double fence_run(int n, long epochs) {
    return timed_run(n, [&](simmpi::Rank& r, int me, std::atomic<double>& t0,
                           std::atomic<double>& t1) {
               const simmpi::Comm w = r.MPI_COMM_WORLD();
               std::vector<std::byte> mem(kFencePuts * kFenceBytes, std::byte{0});
               std::vector<std::byte> src(kFenceBytes, std::byte{3});
               simmpi::Win win = simmpi::MPI_WIN_NULL;
               r.MPI_Win_create(mem.data(), kFencePuts * kFenceBytes, 1,
                                simmpi::MPI_INFO_NULL, w, &win);
               const int t = (me + 1) % n;
               r.MPI_Win_fence(0, win);
               r.MPI_Barrier(w);
               stamp_min(t0, wall_seconds());
               for (long e = 0; e < epochs; ++e) {
                   for (int j = 0; j < kFencePuts; ++j)
                       r.MPI_Put(src.data(), kFenceBytes, simmpi::MPI_BYTE, t,
                                 j * kFenceBytes, kFenceBytes, simmpi::MPI_BYTE, win);
                   r.MPI_Win_fence(0, win);
               }
               stamp_max(t1, wall_seconds());
               r.MPI_Barrier(w);
               r.MPI_Win_free(&win);
           });
}

double pscw_run(int n, long epochs) {
    return timed_run(n, [&](simmpi::Rank& r, int me, std::atomic<double>& t0,
                           std::atomic<double>& t1) {
               const simmpi::Comm w = r.MPI_COMM_WORLD();
               const std::int64_t win_bytes =
                   static_cast<std::int64_t>(n) * kPscwPuts * kPscwBytes;
               std::vector<std::byte> mem(static_cast<std::size_t>(win_bytes),
                                          std::byte{0});
               std::vector<std::byte> src(kPscwBytes, std::byte{4});
               simmpi::Win win = simmpi::MPI_WIN_NULL;
               r.MPI_Win_create(mem.data(), win_bytes, 1, simmpi::MPI_INFO_NULL, w,
                                &win);
               simmpi::Group wg = simmpi::MPI_GROUP_NULL;
               simmpi::Group eg = simmpi::MPI_GROUP_NULL;
               r.MPI_Comm_group(w, &wg);
               if (me == 0) {
                   std::vector<int> origins;
                   for (int i = 1; i < n; ++i) origins.push_back(i);
                   r.MPI_Group_incl(wg, n - 1, origins.data(), &eg);
               } else {
                   const int zero = 0;
                   r.MPI_Group_incl(wg, 1, &zero, &eg);
               }
               r.MPI_Barrier(w);
               stamp_min(t0, wall_seconds());
               for (long e = 0; e < epochs; ++e) {
                   if (me == 0) {
                       r.MPI_Win_post(eg, 0, win);
                       r.MPI_Win_wait(win);
                   } else {
                       r.MPI_Win_start(eg, 0, win);
                       for (int j = 0; j < kPscwPuts; ++j)
                           r.MPI_Put(src.data(), kPscwBytes, simmpi::MPI_BYTE, 0,
                                     ((me - 1) * kPscwPuts + j) * kPscwBytes,
                                     kPscwBytes, simmpi::MPI_BYTE, win);
                       r.MPI_Win_complete(win);
                   }
               }
               stamp_max(t1, wall_seconds());
               r.MPI_Barrier(w);
               r.MPI_Group_free(&eg);
               r.MPI_Group_free(&wg);
               r.MPI_Win_free(&win);
           });
}

/// @p storm false: each rank locks its own target (parallel epochs).
/// @p storm true: everyone hammers rank 0.
double lock_run(int n, long iters, bool storm) {
    return timed_run(n, [&](simmpi::Rank& r, int me, std::atomic<double>& t0,
                           std::atomic<double>& t1) {
               const simmpi::Comm w = r.MPI_COMM_WORLD();
               const std::int64_t win_bytes = (kLockPuts + 1) * kLockBytes;
               std::vector<std::byte> mem(static_cast<std::size_t>(win_bytes),
                                          std::byte{0});
               std::vector<std::byte> src(kLockBytes, std::byte{5});
               std::vector<std::byte> dst(kLockBytes);
               simmpi::Win win = simmpi::MPI_WIN_NULL;
               r.MPI_Win_create(mem.data(), win_bytes, 1, simmpi::MPI_INFO_NULL, w,
                                &win);
               const int t = storm ? 0 : me;
               r.MPI_Barrier(w);
               stamp_min(t0, wall_seconds());
               for (long i = 0; i < iters; ++i) {
                   r.MPI_Win_lock(simmpi::MPI_LOCK_EXCLUSIVE, t, 0, win);
                   for (int j = 0; j < kLockPuts; ++j)
                       r.MPI_Put(src.data(), kLockBytes, simmpi::MPI_BYTE, t,
                                 j * kLockBytes, kLockBytes, simmpi::MPI_BYTE, win);
                   r.MPI_Get(dst.data(), kLockBytes, simmpi::MPI_BYTE, t,
                             kLockPuts * kLockBytes, kLockBytes, simmpi::MPI_BYTE,
                             win);
                   r.MPI_Win_unlock(t, win);
               }
               stamp_max(t1, wall_seconds());
               r.MPI_Barrier(w);
               r.MPI_Win_free(&win);
           });
}

/// The contended-handoff shape: all 16 ranks queue on rank 0's
/// exclusive lock; each epoch puts 8 bytes and yields once while
/// holding the lock (standing in for in-critical-section work) so
/// waiters genuinely park instead of always finding the lock free on a
/// single-core host.  Every unlock then exercises the handoff: the FIFO
/// lock queue hands the lock to exactly the one next waiter.
double handoff_run(int n, long iters) {
    return timed_run(n, [&](simmpi::Rank& r, int me, std::atomic<double>& t0,
                           std::atomic<double>& t1) {
               const simmpi::Comm w = r.MPI_COMM_WORLD();
               std::int64_t mem = 0, v = me;
               simmpi::Win win = simmpi::MPI_WIN_NULL;
               r.MPI_Win_create(&mem, 8, 1, simmpi::MPI_INFO_NULL, w, &win);
               r.MPI_Barrier(w);
               stamp_min(t0, wall_seconds());
               for (long i = 0; i < iters; ++i) {
                   r.MPI_Win_lock(simmpi::MPI_LOCK_EXCLUSIVE, 0, 0, win);
                   r.MPI_Put(&v, 8, simmpi::MPI_BYTE, 0, 0, 8, simmpi::MPI_BYTE,
                             win);
                   std::this_thread::yield();
                   r.MPI_Win_unlock(0, win);
               }
               stamp_max(t1, wall_seconds());
               r.MPI_Barrier(w);
               r.MPI_Win_free(&win);
           });
}

}  // namespace

int main(int argc, char** argv) {
    const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
    bench::header("simmpi RMA data plane",
                  smoke ? "smoke mode (harness check only)" : "per-op epoch cost");
    bench::Grader g;
    // Record names keep the new_ prefix of the committed history, which
    // perfbench/README.md cross-references.
    bench::JsonEmitter json("rma");
    // Best of reps: the scheduling weather on a shared host changes
    // second to second.
    const int reps = smoke ? 1 : 5;

    // ---- Fence-heavy epochs -----------------------------------------------
    util::TextTable ft({"ranks", "fence us/op"});
    for (const int n : {4, 16}) {
        const long epochs = smoke ? 2 : (n == 4 ? 1000 : 300);
        const double ops =
            static_cast<double>(n) * kFencePuts * static_cast<double>(epochs);
        double best_s = 1e30;
        for (int rep = 0; rep < reps; ++rep)
            best_s = std::min(best_s, fence_run(n, epochs));
        const double us = best_s / ops * 1e6;
        ft.add_row({std::to_string(n), util::fmt(us, 2)});
        json.record("new_fence_" + std::to_string(n) + "ranks_us_per_op", us, "us");
    }
    std::printf("%s", ft.render().c_str());

    // ---- PSCW epochs ------------------------------------------------------
    util::TextTable st({"ranks", "PSCW us/op"});
    for (const int n : {4, 8}) {
        const long epochs = smoke ? 2 : (n == 4 ? 800 : 500);
        const double ops = static_cast<double>(n - 1) * kPscwPuts *
                           static_cast<double>(epochs);
        double best_s = 1e30;
        for (int rep = 0; rep < reps; ++rep)
            best_s = std::min(best_s, pscw_run(n, epochs));
        const double us = best_s / ops * 1e6;
        st.add_row({std::to_string(n), util::fmt(us, 2)});
        json.record("new_pscw_" + std::to_string(n) + "ranks_us_per_op", us, "us");
    }
    std::printf("%s", st.render().c_str());

    // ---- Passive-target lock epochs ---------------------------------------
    util::TextTable lt({"shape", "us/op"});
    for (const bool storm : {false, true}) {
        const int n = 16;
        const long iters = smoke ? 3 : (storm ? 200 : 1500);
        const double ops = static_cast<double>(n) * (kLockPuts + 1) *
                           static_cast<double>(iters);
        double best_s = 1e30;
        for (int rep = 0; rep < (storm && !smoke ? 3 : reps); ++rep)
            best_s = std::min(best_s, lock_run(n, iters, storm));
        const double us = best_s / ops * 1e6;
        const std::string label = storm ? "lock_storm_16ranks" : "lock_own_16ranks";
        lt.add_row({storm ? "16 -> rank 0 (storm)" : "16 x own target", util::fmt(us, 2)});
        json.record("new_" + label + "_us_per_op", us, "us");
    }
    {
        const int n = 16;
        const long iters = smoke ? 3 : 400;
        const double epochs = static_cast<double>(n) * static_cast<double>(iters);
        double best_s = 1e30;
        for (int rep = 0; rep < reps; ++rep)
            best_s = std::min(best_s, handoff_run(n, iters));
        const double us = best_s / epochs * 1e6;
        lt.add_row({"16-deep handoff queue (us/epoch)", util::fmt(us, 2)});
        json.record("new_lock_handoff_16ranks_us_per_epoch", us, "us");
    }
    std::printf("%s", lt.render().c_str());

    const std::string body = json.render();
    g.check("json renders well-formed record set",
            body.rfind("{\"bench\":\"rma\"", 0) == 0 &&
                body.find("\"records\":[") != std::string::npos &&
                body.substr(body.size() - 3) == "]}\n");

    json.write_file();
    std::printf("\nRMA data-plane bench: %d failures\n", g.failures());
    return g.exit_code();
}
