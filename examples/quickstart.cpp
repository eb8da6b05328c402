// Quickstart: measure an MPI application with the tool in ~40 lines.
//
// 1. Create a simulated cluster world (pick the MPI implementation).
// 2. Attach the tool (PerfTool) -- it parses the default MDL metric
//    file and installs its discovery instrumentation.
// 3. Register and launch a program; request a metric-focus pair.
// 4. Read the folding histogram / run the Performance Consultant.
#include <cstdio>

#include "core/consultant.hpp"
#include "core/metrics.hpp"
#include "core/tool.hpp"
#include "pperfmark/pperfmark.hpp"

int main() {
    using namespace m2p;

    instr::Registry registry;
    // Attaching the tool gives every rank a scheduler worker of its
    // own, so ranks progress concurrently, as the PPerfMark bottleneck
    // scenarios (and the sync-wait metric they feed) need.
    simmpi::World world(registry, {.flavor = simmpi::Flavor::Lam});
    core::PerfTool tool(world);

    // Use a PPerfMark program as the "application": clients flood one
    // server with small messages.
    ppm::Params params;
    params.iterations = 250000;  // ~2s: enough for several PC refinement waves
    ppm::register_all(world, params);

    // The tool launches the MPI job itself (6 processes, 2 per node).
    core::run_app_async(tool, ppm::kSmallMessages, {}, /*nprocs=*/6);

    // Ask for a metric-focus pair: synchronization waiting time over
    // the whole program.
    auto pair = tool.metrics().request("sync_wait_inclusive", core::Focus{});

    // Let the Performance Consultant search for bottlenecks while the
    // application runs.
    core::PerformanceConsultant::Options opts;
    opts.eval_interval = 0.1;
    core::PerformanceConsultant pc(tool, opts);
    const core::PCReport report = pc.search([&] { return !world.all_finished(); });

    world.join_all();
    tool.flush();

    std::printf("== Condensed Performance Consultant findings ==\n%s\n",
                core::PerformanceConsultant::render_condensed(report).c_str());
    std::printf("sync_wait_inclusive total: %.3f CPU-seconds over %zu bins (width %.3fs)\n",
                pair->total(), pair->histogram().active_bins(),
                pair->histogram().bin_width());
    tool.metrics().release(pair);

    std::printf("\n== Resource hierarchy (SyncObject) ==\n%s\n",
                tool.hierarchy().render("/SyncObject").c_str());
    return 0;
}
