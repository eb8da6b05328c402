// Session: one measured application run -- registry + simulated
// cluster + attached tool -- with helpers to run a registered program
// to completion, optionally under the Performance Consultant.  This is
// the boilerplate every test/bench/experiment shares; it mirrors how a
// Paradyn user session looks (start tool, start MPI job, search).
#pragma once

#include <functional>
#include <string>

#include "core/consultant.hpp"
#include "core/outcome.hpp"
#include "core/tool.hpp"

namespace m2p::core {

class Session {
public:
    /// The tool attaches as the world is built (World::attach_tool), so
    /// a rank that holds its scheduler worker for a long slice gets the
    /// worker replaced: the PPerfMark bottleneck scenarios (paper
    /// Table 2) need ranks to progress as preempted processes do -- a
    /// flooded server falls behind its clients only when a client can
    /// keep producing while the server is off-CPU.
    explicit Session(simmpi::Flavor flavor, PerfTool::Options topts = {},
                     simmpi::World::Config wcfg = {});

    instr::Registry& registry() { return reg_; }
    simmpi::World& world() { return world_; }
    PerfTool& tool() { return tool_; }

    /// Launches @p command on @p nprocs processes (2 per node by
    /// default), waits for completion, flushes discovery reports.
    /// Returns how the run ended: Completed, Aborted (poisoned world),
    /// or RanksLost with the dead ranks' epitaphs.
    RunOutcome run(const std::string& command, int nprocs, int procs_per_node = 2);

    /// Launches @p command and runs the Performance Consultant while
    /// the application executes; returns the findings.  The report's
    /// `outcome` field records whether the run lost ranks mid-search.
    PCReport run_with_consultant(const std::string& command, int nprocs,
                                 PerformanceConsultant::Options opts,
                                 int procs_per_node = 2);

private:
    instr::Registry reg_;
    simmpi::World world_;
    PerfTool tool_;
};

}  // namespace m2p::core
