// MDL compilation: turns a parsed MetricDef plus constraint bindings
// into instrumentation snippets inserted into the Registry, exactly
// Paradyn's metric-focus instantiation step.  The metric's primary
// variable feeds a MetricSink (the tool connects it to a folding
// histogram); constraint code maintains per-context flags that gate
// `constrained` metric code, as in the paper's Figure 2.
//
// Compiling lowers every instrumentation point's statements once into
// a resolved form -- variables and timers become slots, built-in calls
// and operators enums, `$constraint[k]` its bound value -- and rejects
// any code that could not run.  A fired snippet does no string work and
// no map lookup, and a rank reaches its own state without a lock
// (DESIGN.md section 7, "Compiled snippets").
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
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

/// The compiled code and per-context state (scratch variables, timer
/// nests, constraint nesting depths) of one metric-focus instantiation.
/// Defined in eval.cpp; the snippets share it with CompiledMetric.
class MetricInstance;

/// Everything a live metric-focus instantiation owns.  Destroying it
/// does NOT remove instrumentation; call uninstall() first (Paradyn's
/// instrumentation deletion).
struct CompiledMetric {
    std::vector<instr::SnippetHandle> handles;
    std::shared_ptr<MetricInstance> instance;
};

/// Compiles and inserts instrumentation for @p metric constrained by
/// @p bindings.  Throws CompileError, with nothing inserted, on code
/// that could not run: an unknown call or operator, a built-in called
/// with the wrong arguments, `&x` anywhere but MPI_Type_size's
/// out-parameter, or `$constraint[k]` outside constraint code or past
/// its binding's values.
CompiledMetric compile_metric(instr::Registry& reg, const MetricDef& metric,
                              const std::vector<ConstraintBinding>& bindings,
                              std::shared_ptr<Services> services,
                              const FuncSetResolver& resolver, MetricSink sink,
                              EventGate gate = {});

/// Removes every snippet the compilation inserted.
void uninstall(instr::Registry& reg, CompiledMetric& cm);

}  // namespace m2p::mdl
