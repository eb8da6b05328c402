// Metric-focus instantiation (paper section 4): "Either approach
// results in new instrumentation being inserted into the application,
// specified by metric-focus pairs, where the metric specifies what to
// measure, and the focus specifies what parts of the application ...
// to include in the measurement."
//
// MetricManager resolves a (metric name, Focus) pair into
//  * constraint bindings (module/procedure on the Code axis;
//    communicator / tag / barrier / window on the SyncObject axis),
//  * a native rank gate for the Machine/Process axes, and
//  * MDL-compiled instrumentation feeding a folding Histogram --
// or, for the whole-program "cpu" metric, a sampled native source
// (per-process user CPU read by a sampler thread, as Paradyn's daemon
// samples process timers).
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/histogram.hpp"
#include "core/resources.hpp"
#include "mdl/eval.hpp"

namespace m2p::core {

class PerfTool;

/// One live metric-focus pair: instrumentation + histogram.
class MetricFocusPair {
public:
    ~MetricFocusPair();
    MetricFocusPair(const MetricFocusPair&) = delete;
    MetricFocusPair& operator=(const MetricFocusPair&) = delete;

    const std::string& metric() const { return metric_; }
    const Focus& focus() const { return focus_; }
    mdl::UnitsType unitstype() const { return unitstype_; }
    Histogram& histogram() { return *hist_; }
    const Histogram& histogram() const { return *hist_; }

    /// Exact accumulated value (seconds for timers, counts for
    /// counters) -- the Performance Consultant differences this over
    /// its evaluation interval.
    double total() const { return hist_->total(); }

private:
    friend class MetricManager;
    MetricFocusPair() = default;

    std::string metric_;
    Focus focus_;
    mdl::UnitsType unitstype_ = mdl::UnitsType::Unnormalized;
    // Shared with snippet sinks so late in-flight events stay safe
    // after release().
    std::shared_ptr<Histogram> hist_;
    bool native_cpu_ = false;
    mdl::CompiledMetric compiled_;
    // Native-cpu sampling state: the highest user-CPU reading per rank
    // charged so far.
    std::map<int, double> cpu_last_;
};

class MetricManager {
public:
    MetricManager(PerfTool& tool, double bin_width, std::size_t bins);
    ~MetricManager();
    MetricManager(const MetricManager&) = delete;
    MetricManager& operator=(const MetricManager&) = delete;

    /// Instantiates a metric on a focus, inserting instrumentation.
    /// Returns nullptr when the metric does not exist or the focus
    /// requires a constraint the metric definition does not allow.
    std::shared_ptr<MetricFocusPair> request(const std::string& metric,
                                             const Focus& focus);
    /// Deletes the pair's instrumentation (Paradyn removes snippets
    /// when an experiment ends).  The pair's histogram stays readable.
    void release(const std::shared_ptr<MetricFocusPair>& pair);

    std::size_t active_pairs() const;
    double bin_width() const { return bin_width_; }

private:
    void sampler_loop();

    PerfTool& tool_;
    double bin_width_;
    std::size_t bins_;
    mutable std::mutex mu_;
    std::vector<std::shared_ptr<MetricFocusPair>> active_;
    bool stop_ = false;
    std::thread sampler_;
};

}  // namespace m2p::core
