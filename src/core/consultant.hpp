// The Performance Consultant (paper sections 1, 4, 5): Paradyn's
// automated bottleneck search.  It forms hypotheses (here the three
// the paper's results exercise: ExcessiveSyncWaitingTime,
// ExcessiveIOBlockingTime, CPUBound), tests each on a focus by
// instantiating the corresponding metric-focus pair for an evaluation
// interval, and refines true hypotheses along the resource
// hierarchy's axes -- drilling from Whole Program through modules and
// functions on the Code axis, through communicators / tags / barriers
// / RMA windows on the SyncObject axis, and through processes.
//
// The output is the "condensed form of the PC's findings" the paper's
// figures show: the tree of hypotheses that tested true.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/outcome.hpp"
#include "core/resources.hpp"
#include "core/tool.hpp"

namespace m2p::core {

struct PCNode {
    std::string hypothesis;
    Focus focus;
    /// Measured value per unit of capacity: the metric's rate divided
    /// by the focus's process count, or for CPUBound by the CPU its
    /// processes asked for (DESIGN.md section 6).
    double value = 0.0;
    double threshold = 0.0;
    bool tested = false;     ///< program may end before deep nodes run
    bool tested_true = false;
    /// A rank died during this node's evaluation interval, so the
    /// measured value covers a shrinking process set.
    bool truncated = false;
    std::vector<std::unique_ptr<PCNode>> children;
};

struct PCReport {
    std::vector<std::unique_ptr<PCNode>> roots;
    int experiments_run = 0;
    /// Experiments that completed cleanly (no mid-experiment death)
    /// after the run had already lost ranks: the search kept producing
    /// trustworthy survivor measurements instead of truncating.
    int post_loss_experiments = 0;
    double search_seconds = 0.0;
    /// How the measured application run ended (filled by
    /// Session::run_with_consultant; default-Completed otherwise).
    RunOutcome outcome;

    /// True when some true-tested node with @p hypothesis has a focus
    /// whose string contains @p focus_substr (tests/benches use this
    /// to assert the paper's findings).
    bool found(const std::string& hypothesis, const std::string& focus_substr) const;
};

class PerformanceConsultant {
public:
    struct Options {
        double eval_interval = 0.12;  ///< seconds each experiment runs
        int max_batch = 8;            ///< concurrent experiments (cost cap)
        int max_depth = 5;
        bool refine_processes = true;
        /// Also refine along /Machine (the paper's condensed outputs
        /// map hostnames to "node k"); off by default to keep the
        /// condensed tree in the figures' shape.
        bool refine_machines = false;
        int max_children_per_axis = 8;
        /// Thresholds; negative = take from the MDL tunable constants
        /// (PC_SyncThreshold / PC_IoThreshold / PC_CpuThreshold).
        double sync_threshold = -1.0;
        double io_threshold = -1.0;
        double cpu_threshold = -1.0;
        double max_search_seconds = 30.0;
    };

    PerformanceConsultant(PerfTool& tool, Options opts);
    explicit PerformanceConsultant(PerfTool& tool)
        : PerformanceConsultant(tool, Options{}) {}

    /// Runs the search while @p still_running returns true (typically
    /// "the application has not finished").
    PCReport search(const std::function<bool()>& still_running);

    /// The condensed textual findings (the paper's figure format).
    static std::string render_condensed(const PCReport& report,
                                        bool include_false_roots = true);

private:
    struct HypothesisDef {
        std::string name;
        std::string metric;
        double threshold;
    };

    double evaluate_batch(std::vector<PCNode*>& batch,
                          const std::function<bool()>& still_running);
    std::vector<std::unique_ptr<PCNode>> refine(const PCNode& node);
    void refine_code_axis(const PCNode& node, std::vector<std::unique_ptr<PCNode>>* out);
    void refine_syncobj_axis(const PCNode& node,
                             std::vector<std::unique_ptr<PCNode>>* out);
    void refine_process_axis(const PCNode& node,
                             std::vector<std::unique_ptr<PCNode>>* out);
    void refine_machine_axis(const PCNode& node,
                             std::vector<std::unique_ptr<PCNode>>* out);
    const HypothesisDef& hypothesis(const std::string& name) const;

    PerfTool& tool_;
    Options opts_;
    std::vector<HypothesisDef> hypotheses_;
};

}  // namespace m2p::core
