// Transport data-plane bench: message rate and collective cost of
// simmpi's engine (lock-free handle tables, reusable envelope buffers,
// targeted wakeups, tree collectives).  The speedups over the design
// it replaced are recorded in EXPERIMENTS.md.
//
// The point-to-point shapes are a rendezvous incast -- n-1 clients each
// stream large (above-eager-limit) messages to one server, and each
// delivery wakes exactly the one sender it completes -- and eager
// windowed streaming, where 64-deep windows amortize the wakeups and
// the per-message handle-lookup and buffer costs dominate.
//
// Collectives report wall time and the bottleneck-rank metric: the
// maximum over ranks of per-call CPU time, which a timesliced host
// cannot blur the way it blurs the wall clock.
//
// `--smoke` runs a tiny iteration count (CI uses it to assert the
// harness and JSON stay sound).
#include "bench_common.hpp"

#include <algorithm>
#include <chrono>

#include "instr/registry.hpp"
#include "simmpi/launcher.hpp"
#include "simmpi/rank.hpp"
#include "simmpi/sched.hpp"
#include "simmpi/world.hpp"

namespace {

using namespace m2p;

double wall_seconds() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

constexpr int kWindow = 64;

/// Windowed streaming exchange: in each of @p windows rounds, the even
/// rank of a pair sends kWindow 8-byte messages back to back and the
/// odd rank drains them, acking once per window.  This is the
/// message-RATE shape (cf. bandwidth benchmarks): receivers mostly find
/// messages already queued, so the per-message data-plane cost -- not
/// the futex round trip of a strict ping-pong -- dominates.  Full MPI
/// trampolines, real Registry dispatch, the production mailbox.
/// Returns wall seconds measured between two barriers that bracket the
/// traffic.
double stream_run(int nranks, long windows) {
    instr::Registry reg;
    simmpi::World world(reg, simmpi::World::Config{});
    std::atomic<double> t0{0.0}, t1{0.0};
    world.register_program("stream", [&](simmpi::Rank& r,
                                         const std::vector<std::string>&) {
        r.MPI_Init();
        const simmpi::Comm w = r.MPI_COMM_WORLD();
        int me = 0;
        r.MPI_Comm_rank(w, &me);
        const bool lead = me % 2 == 0;
        const int peer = lead ? me + 1 : me - 1;
        std::uint64_t out = 0, in = 0;
        r.MPI_Barrier(w);
        if (me == 0) t0 = wall_seconds();
        for (long wnd = 0; wnd < windows; ++wnd) {
            if (lead) {
                for (int k = 0; k < kWindow; ++k) {
                    out = static_cast<std::uint64_t>(wnd * kWindow + k);
                    r.MPI_Send(&out, 8, simmpi::MPI_BYTE, peer, 7, w);
                }
                r.MPI_Recv(&in, 8, simmpi::MPI_BYTE, peer, 8, w, nullptr);
            } else {
                for (int k = 0; k < kWindow; ++k)
                    r.MPI_Recv(&in, 8, simmpi::MPI_BYTE, peer, 7, w, nullptr);
                out = in;
                r.MPI_Send(&out, 8, simmpi::MPI_BYTE, peer, 8, w);
            }
        }
        r.MPI_Barrier(w);
        if (me == 0) t1 = wall_seconds();
        r.MPI_Finalize();
    });
    simmpi::LaunchPlan plan;
    for (int i = 0; i < nranks; ++i) plan.placements.push_back("node0");
    simmpi::launch(world, "stream", {}, plan);
    world.join_all();
    return t1.load() - t0.load();
}

/// Rendezvous incast: ranks 1..n-1 each send @p iters messages to
/// rank 0, which receives them round-robin.  The message size sits
/// above the eager limit, so every MPI_Send is a rendezvous handshake
/// completing via the per-envelope DeliveryToken (one targeted wake
/// per message).  Returns wall seconds.
double incast_run(int nranks, long iters, int bytes) {
    instr::Registry reg;
    simmpi::World world(reg, simmpi::World::Config{});
    std::atomic<double> t0{0.0}, t1{0.0};
    world.register_program("incast", [&](simmpi::Rank& r,
                                         const std::vector<std::string>&) {
        r.MPI_Init();
        const simmpi::Comm w = r.MPI_COMM_WORLD();
        int me = 0, n = 0;
        r.MPI_Comm_rank(w, &me);
        r.MPI_Comm_size(w, &n);
        std::vector<std::byte> buf(static_cast<std::size_t>(bytes), std::byte{5});
        r.MPI_Barrier(w);
        if (me == 0) {
            t0 = wall_seconds();
            for (long i = 0; i < iters; ++i)
                for (int src = 1; src < n; ++src)
                    r.MPI_Recv(buf.data(), bytes, simmpi::MPI_BYTE, src, 7, w, nullptr);
            t1 = wall_seconds();
        } else {
            for (long i = 0; i < iters; ++i)
                r.MPI_Send(buf.data(), bytes, simmpi::MPI_BYTE, 0, 7, w);
        }
        r.MPI_Finalize();
    });
    simmpi::LaunchPlan plan;
    for (int i = 0; i < nranks; ++i) plan.placements.push_back("node0");
    simmpi::launch(world, "incast", {}, plan);
    world.join_all();
    return t1.load() - t0.load();
}

struct CollResult {
    double wall_per_op;            ///< wall seconds per collective call
    double bottleneck_cpu_per_op;  ///< max over ranks of CPU seconds per call
};

/// Runs @p iters Bcasts (1 KiB) or Allreduces (64 doubles) on
/// @p nranks ranks.
CollResult collective_run(bool allreduce, int nranks, long iters) {
    instr::Registry reg;
    simmpi::World world(reg, simmpi::World::Config{});
    std::vector<double> cpu(static_cast<std::size_t>(nranks), 0.0);
    std::atomic<double> t0{0.0}, t1{0.0};
    world.register_program("coll", [&](simmpi::Rank& r,
                                       const std::vector<std::string>&) {
        r.MPI_Init();
        const simmpi::Comm w = r.MPI_COMM_WORLD();
        int me = 0;
        r.MPI_Comm_rank(w, &me);
        std::vector<std::byte> buf(1024, std::byte{1});
        std::vector<double> acc(64, me * 1.0), out(64, 0.0);
        // Per-rank CPU through the world's accounting:
        // CLOCK_THREAD_CPUTIME_ID belongs to the shared worker (it
        // would charge every rank with the whole run), while
        // proc_cpu_seconds() is the rank's own slices, the live one
        // included.
        const auto rank_cpu = [&] { return world.proc_cpu_seconds(me); };
        r.MPI_Barrier(w);
        if (me == 0) t0 = wall_seconds();
        const double c0 = rank_cpu();
        for (long i = 0; i < iters; ++i) {
            if (allreduce)
                r.MPI_Allreduce(acc.data(), out.data(), 64, simmpi::MPI_DOUBLE,
                                simmpi::MPI_SUM, w);
            else
                r.MPI_Bcast(buf.data(), 1024, simmpi::MPI_BYTE, 0, w);
        }
        cpu[static_cast<std::size_t>(me)] = rank_cpu() - c0;
        r.MPI_Barrier(w);
        if (me == 0) t1 = wall_seconds();
        r.MPI_Finalize();
    });
    simmpi::LaunchPlan plan;
    for (int i = 0; i < nranks; ++i) plan.placements.push_back("node0");
    simmpi::launch(world, "coll", {}, plan);
    world.join_all();
    CollResult res;
    res.wall_per_op = (t1.load() - t0.load()) / static_cast<double>(iters);
    double worst = 0.0;
    for (double c : cpu) worst = std::max(worst, c);
    res.bottleneck_cpu_per_op = worst / static_cast<double>(iters);
    return res;
}

}  // namespace

int main(int argc, char** argv) {
    const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
    bench::header("simmpi transport data plane",
                  smoke ? "smoke mode (harness check only)"
                        : "message rate and collective cost");
    bench::Grader g;
    // Record names keep the new_ / tree_ prefixes of the committed
    // history, so BENCH_transport.json diffs against earlier commits.
    bench::JsonEmitter json("transport");

    // ---- Point-to-point message rate: rendezvous incast -------------------
    // 8 KiB messages sit above the 4 KiB eager limit, so every send is
    // a rendezvous handshake; n-1 clients stream at one server.  Best
    // of reps: the scheduling weather on a shared host changes second
    // to second.
    const int sizes[] = {2, 4, 8, 16};
    const int reps = smoke ? 1 : 5;
    constexpr int kIncastBytes = 8 * 1024;

    util::TextTable pt({"ranks", "incast msgs/s"});
    for (const int n : sizes) {
        const long iters = smoke ? 3 : 1600 / (n - 1);
        const double msgs = static_cast<double>(n - 1) * static_cast<double>(iters);
        double best_s = 1e30;
        for (int rep = 0; rep < reps; ++rep)
            best_s = std::min(best_s, incast_run(n, iters, kIncastBytes));
        const double rate = msgs / best_s;
        pt.add_row({std::to_string(n), util::fmt(rate, 0)});
        json.record("new_pt2pt_" + std::to_string(n) + "ranks_msgs_per_s", rate,
                    "msgs/s");
    }
    std::printf("%s", pt.render().c_str());

    // ---- Eager windowed streaming -----------------------------------------
    // Small messages below the eager limit, 64-deep windows with one
    // ack per window.
    util::TextTable st({"ranks", "stream msgs/s"});
    for (const int n : sizes) {
        const long windows = smoke ? 3 : 6000 / n;
        // Data messages only (the one ack per window is overhead).
        const double msgs = static_cast<double>(n) / 2.0 *
                            static_cast<double>(windows) * kWindow;
        double best_s = 1e30;
        for (int rep = 0; rep < reps; ++rep)
            best_s = std::min(best_s, stream_run(n, windows));
        const double rate = msgs / best_s;
        st.add_row({std::to_string(n), util::fmt(rate, 0)});
        json.record("new_stream_" + std::to_string(n) + "ranks_msgs_per_s", rate,
                    "msgs/s");
    }
    std::printf("%s", st.render().c_str());

    // ---- Collectives at 16 ranks ------------------------------------------
    const long citer = smoke ? 20 : 400;
    util::TextTable ct({"collective", "wall us/op", "bottleneck us/op"});
    for (const bool allreduce : {false, true}) {
        CollResult best{1e30, 1e30};
        for (int rep = 0; rep < (smoke ? 1 : 3); ++rep) {
            const CollResult r = collective_run(allreduce, 16, citer);
            best.wall_per_op = std::min(best.wall_per_op, r.wall_per_op);
            best.bottleneck_cpu_per_op =
                std::min(best.bottleneck_cpu_per_op, r.bottleneck_cpu_per_op);
        }
        const std::string name = allreduce ? "allreduce_16ranks" : "bcast_16ranks";
        ct.add_row({allreduce ? "Allreduce(64d)" : "Bcast(1KiB)",
                    util::fmt(best.wall_per_op * 1e6, 1),
                    util::fmt(best.bottleneck_cpu_per_op * 1e6, 1)});
        json.record("tree_" + name + "_wall_us_per_op", best.wall_per_op * 1e6, "us");
        json.record("tree_" + name + "_bottleneck_us_per_op",
                    best.bottleneck_cpu_per_op * 1e6, "us");
    }
    std::printf("%s", ct.render().c_str());

    const std::string body = json.render();
    g.check("json renders well-formed record set",
            body.rfind("{\"bench\":\"transport\"", 0) == 0 &&
                body.find("\"records\":[") != std::string::npos &&
                body.substr(body.size() - 3) == "]}\n");

    json.write_file();
    std::printf("\nTransport data-plane bench: %d failures\n", g.failures());
    return g.exit_code();
}
