// Figure 2: MDL metric definition and constraint examples.  Parses the
// paper's four definitions (rma_put_ops, rma_sync_wait, rma_put_bytes,
// and the RMA window constraint) verbatim, compiles them against the
// live instrumentation substrate, and shows they measure a real
// workload exactly as the built-in copies do.
#include "bench_common.hpp"

#include <atomic>

#include "mdl/ast.hpp"
#include "mdl/default_metrics.hpp"

using namespace m2p;

namespace {

// The paper's Figure 2, transcribed (modulo whitespace).
const char* kFigure2 = R"(
metric mpi_rma_put_ops {
    name "rma_put_ops";
    units ops;
    aggregateOperator sum;
    style EventCounter;
    flavor { mpi };
    unitstype unnormalized;
    constraint moduleConstraint;
    constraint procedureConstraint;
    constraint mpi_windowConstraint;
    base is counter {
        foreach func in mpi_put {
            append preinsn func.entry constrained (* mpi_rma_put_ops++; *)
        }
    }
}

metric mpi_rma_put_bytes {
    name "rma_put_bytes";
    units bytes;
    aggregateOperator sum;
    style EventCounter;
    flavor { mpi };
    constraint moduleConstraint;
    constraint procedureConstraint;
    constraint mpi_windowConstraint;
    counter bytes;
    counter count;
    base is counter {
        foreach func in mpi_put {
            append preinsn func.entry constrained
                (* MPI_Type_size($arg[2], &bytes);
                   count = $arg[1];
                   mpi_rma_put_bytes += bytes * count; *)
        }
    }
}

metric mpi_rma_syncwait {
    name "rma_sync_wait";
    units CPUs;
    aggregateOperator sum;
    style EventCounter;
    flavor { mpi };
    unitstype normalized;
    constraint procedureConstraint;
    constraint moduleConstraint;
    constraint mpi_syncobjConstraint;
    constraint mpi_windowConstraint;
    base is walltimer {
        foreach func in mpi_rma_sync {
            append preinsn func.entry constrained (* startWallTimer(mpi_rma_syncwait); *)
            prepend preinsn func.return constrained (* stopWallTimer(mpi_rma_syncwait); *)
        }
        foreach func in mpi_all_calls {
        }
    }
}

constraint mpi_windowConstraint /SyncObject/Window is counter {
    foreach func in mpi_get {
        prepend preinsn func.entry
            (* if (DYNINSTTWindow_FindUniqueId($arg[7]) == $constraint[0]) mpi_windowConstraint = 1; *)
        append preinsn func.return (* mpi_windowConstraint = 0; *)
    }
    foreach func in mpi_put {
        prepend preinsn func.entry
            (* if (DYNINSTTWindow_FindUniqueId($arg[7]) == $constraint[0]) mpi_windowConstraint = 1; *)
        append preinsn func.return (* mpi_windowConstraint = 0; *)
    }
}
)";

}  // namespace

int main() {
    bench::header("Figure 2", "the paper's MDL examples parse, compile, and measure");
    bench::Grader g;

    mdl::MdlFile fig2;
    try {
        fig2 = mdl::parse(kFigure2);
    } catch (const mdl::ParseError& e) {
        std::printf("parse error: %s\n", e.what());
        return 1;
    }
    g.check("Figure 2 source parses", true);
    g.check("three metrics parsed", fig2.metrics.size() == 3);
    g.check("window constraint parsed with /SyncObject/Window path",
            fig2.find_constraint("mpi_windowConstraint") != nullptr &&
                fig2.find_constraint("mpi_windowConstraint")->path ==
                    "/SyncObject/Window");

    // Compile the figure's metrics in a live session and compare
    // against ground truth from allcount.
    core::Session s(simmpi::Flavor::Lam);
    ppm::Params p;
    p.epochs = 20;
    p.rma_ops_per_epoch = 25;
    ppm::register_all(s.world(), p);

    auto resolver = [&](const std::string& set) {
        return s.tool().resolve_funcset(set);
    };
    // The sinks run on every rank's worker at once.
    std::atomic<double> put_ops{0}, put_bytes{0}, sync_wait{0};
    auto cm_ops = mdl::compile_metric(
        s.registry(), *fig2.find_metric("rma_put_ops"), {}, s.tool().services(),
        resolver, [&](double, double d) { put_ops.fetch_add(d); });
    auto cm_bytes = mdl::compile_metric(
        s.registry(), *fig2.find_metric("rma_put_bytes"), {}, s.tool().services(),
        resolver, [&](double, double d) { put_bytes.fetch_add(d); });
    auto cm_wait = mdl::compile_metric(
        s.registry(), *fig2.find_metric("rma_sync_wait"), {}, s.tool().services(),
        resolver, [&](double, double d) { sync_wait.fetch_add(d); });

    s.run(ppm::kAllcount, 3);
    const ppm::RmaTruth t = ppm::allcount_truth(p, 3);

    util::TextTable table({"Figure 2 metric", "measured", "expected"});
    table.add_row({"rma_put_ops", util::fmt(put_ops),
                   util::fmt(static_cast<double>(t.puts))});
    table.add_row({"rma_put_bytes", util::fmt(put_bytes),
                   util::fmt(static_cast<double>(t.put_bytes))});
    table.add_row({"rma_sync_wait (CPU-s)", util::fmt(sync_wait, 4), "> 0"});
    std::printf("%s", table.render().c_str());

    g.check("figure-2 rma_put_ops counts exactly",
            put_ops == static_cast<double>(t.puts));
    g.check("figure-2 rma_put_bytes counts exactly",
            put_bytes == static_cast<double>(t.put_bytes));
    g.check("figure-2 rma_sync_wait accrues wall time", sync_wait > 0.0);

    mdl::uninstall(s.registry(), cm_ops);
    mdl::uninstall(s.registry(), cm_bytes);
    mdl::uninstall(s.registry(), cm_wait);

    std::printf("\nFigure 2 reproduction: %d failures\n", g.failures());
    return g.exit_code();
}
