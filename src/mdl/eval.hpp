// MDL compilation: turns a parsed MetricDef plus constraint bindings
// into instrumentation snippets inserted into the Registry, exactly
// Paradyn's metric-focus instantiation step.  The metric's primary
// variable feeds a MetricSink (the tool connects it to a folding
// histogram); constraint code maintains per-thread flags that gate
// `constrained` metric code, as in the paper's Figure 2.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "instr/registry.hpp"
#include "mdl/ast.hpp"

namespace m2p::mdl {

struct CompileError : std::runtime_error {
    explicit CompileError(const std::string& msg) : std::runtime_error(msg) {}
};

/// Runtime services MDL built-in calls resolve against.  Implemented
/// by the tool daemon on top of simmpi.
class Services {
public:
    virtual ~Services() = default;
    /// MPI_Type_size($arg[k], &bytes)
    virtual std::int64_t type_size(std::int64_t datatype_handle) const = 0;
    /// DYNINSTWindow_FindUniqueId($arg[k]) -- the tool-unique id of an
    /// RMA window handle (paper section 4.2.1's N-M scheme).
    virtual std::int64_t window_unique_id(std::int64_t win_handle) const = 0;
    /// DYNINSTComm_FindId($arg[k]) -- identity of a communicator handle.
    virtual std::int64_t comm_unique_id(std::int64_t comm_handle) const = 0;
};

/// Receives primary-variable deltas: (wall-clock now, delta).  The sink
/// is called concurrently from every thread that runs an instrumented
/// point, and the evaluator does not serialize those calls: a sink that
/// touches shared state must synchronize it itself.
using MetricSink = std::function<void(double now, double delta)>;

/// Native gate evaluated before metric code runs; the tool uses it for
/// process/machine foci (filter by executing rank).  May be empty.
using EventGate = std::function<bool(const instr::CallContext&)>;

/// Resolves MDL function-set names ("mpi_put", "mpi_rma_sync", ...) to
/// registered functions.  The tool owns the set definitions.
using FuncSetResolver = std::function<std::vector<instr::FuncId>(const std::string&)>;

/// Key identifying the execution context that owns per-context MDL
/// state (constraint nesting flags, scratch variables, timer nests).
/// simmpi ranks run as fibers migrating across scheduler worker
/// threads, so thread identity alone would both mix two ranks sharing
/// a worker and lose a rank's state when it moves.  Rank identity
/// (carried in the fiber's migrated instr context) keys rank state;
/// non-rank tool threads fall back to their thread id.
struct CtxKey {
    int rank = -1;
    std::thread::id tid{};
    bool operator<(const CtxKey& o) const {
        return rank != o.rank ? rank < o.rank : tid < o.tid;
    }
};

/// The calling context's key: {rank, default id} on a rank, {-1,
/// this thread's id} elsewhere.
CtxKey current_ctx_key();

/// Per-context flag state of one instantiated resource constraint.
///
/// Flags are nesting *depths*: MDL's `X = 1` at a function entry
/// increments and `X = 0` at its return decrements (clamped at zero),
/// so a module constraint stays set across nested library calls
/// (MPI_Win_fence -> PMPI_Barrier -> PMPI_Sendrecv) and clears only
/// when the outermost constrained frame returns.
class ConstraintInstance {
public:
    ConstraintInstance(std::string flag_var, std::vector<std::int64_t> bindings);

    const std::string& flag_var() const { return flag_var_; }
    std::int64_t binding(int k) const;  ///< $constraint[k]
    bool flag() const;                  ///< this context's depth > 0
    /// Nonzero v: push one nesting level; zero: pop one (clamped).
    void set_flag(std::int64_t v);

private:
    std::string flag_var_;
    std::vector<std::int64_t> bindings_;
    mutable std::mutex mu_;
    std::map<CtxKey, std::int64_t> flags_;
};

/// Counter / timer environment of one instantiated metric.
class MetricInstance {
public:
    MetricInstance(std::string primary_var, BaseType base, MetricSink sink);

    const std::string& primary_var() const { return primary_var_; }
    BaseType base() const { return base_; }

    // Scratch counters are per-context (each rank computes its own
    // `bytes`/`count` temporaries).
    std::int64_t get_var(const std::string& name) const;
    void set_var(const std::string& name, std::int64_t v);
    void add_primary(double now, double delta);

    void start_timer(const std::string& name, bool proc_time);
    void stop_timer(const std::string& name, bool proc_time);

private:
    struct TimerState {
        int nest = 0;
        double start = 0.0;
    };

    std::string primary_var_;
    BaseType base_;
    MetricSink sink_;
    mutable std::mutex mu_;
    std::map<CtxKey, std::map<std::string, std::int64_t>> scratch_;
    std::map<std::string, std::map<CtxKey, TimerState>> timers_;
};

/// A constraint to instantiate alongside a metric: the definition plus
/// the focus-resolved $constraint[] values.  `set_overrides` lets the
/// caller bind focus-dependent function sets (e.g. `focus_procedure`)
/// differently per binding, which is how nested Code-axis drill-downs
/// ("time in MPI_Send while inside Gsend_message") instantiate the
/// same procedureConstraint twice.
struct ConstraintBinding {
    const ConstraintDef* def = nullptr;
    std::vector<std::int64_t> values;
    std::map<std::string, std::vector<instr::FuncId>> set_overrides;
};

/// Everything a live metric-focus instantiation owns.  Destroying it
/// does NOT remove instrumentation; call uninstall() first (Paradyn's
/// instrumentation deletion).
struct CompiledMetric {
    std::vector<instr::SnippetHandle> handles;
    std::shared_ptr<MetricInstance> instance;
    std::vector<std::shared_ptr<ConstraintInstance>> constraints;
};

/// Compiles and inserts instrumentation for @p metric constrained by
/// @p bindings.  Throws CompileError on unknown calls or function sets.
CompiledMetric compile_metric(instr::Registry& reg, const MetricDef& metric,
                              const std::vector<ConstraintBinding>& bindings,
                              std::shared_ptr<Services> services,
                              const FuncSetResolver& resolver, MetricSink sink,
                              EventGate gate = {});

/// Removes every snippet the compilation inserted.
void uninstall(instr::Registry& reg, CompiledMetric& cm);

}  // namespace m2p::mdl
