// The three workloads and the per-layer helpers they share.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// Each workload runs closed-loop units until Args::seconds have passed
/// (at least one round), checks every unit, and fills @p r: end-to-end
/// figures always, per-layer figures when Args::trace is set.
void run_pc_diagnose(const Args& a, Tracer& tr, Result& r);
void run_instrumented(const Args& a, Tracer& tr, Result& r);
void run_raw256(const Args& a, Tracer& tr, Result& r);

/// bench.trace_overhead_ms: class-median wall of @p key in traced units
/// minus untraced units (samples "traced_<key>" / "untraced_<key>").
void trace_overhead(Result& r, const std::string& key);
/// Marks the simmpi.call_us.* / simmpi.bare_call_us.* metrics absent.
void mark_call_spans_unavailable(Result& r, const std::string& why);
/// Marks the raw-256 rank-program span metrics absent.
void mark_rank_spans_unavailable(Result& r, const std::string& why);

/// Traffic pvars every workload reads before and after each unit.
inline const std::vector<std::string> kTrafficPvars = {
    "instr.dispatch.events",          "instr.dispatch.snippets",
    "simmpi.mailbox.eager_msgs",      "simmpi.mailbox.rendezvous_msgs",
    "simmpi.mailbox.delivered_bytes", "simmpi.mailbox.flow_stalls",
    "trace.ring.written",             "trace.ring.dropped",
};
/// The ones fixed work repeats exactly, unit after unit.
inline const std::vector<std::string> kExactPvars = {
    "instr.dispatch.events", "simmpi.mailbox.eager_msgs",
    "simmpi.mailbox.rendezvous_msgs", "simmpi.mailbox.delivered_bytes"};

/// MPI calls whose recorder spans instrumented-run breaks down.
inline constexpr const char* kCallSpanFns[] = {"MPI_Send", "MPI_Recv", "MPI_Win_fence",
                                               "MPI_Put"};
/// The raw-256 rank program's span names (metric simmpi.<name>_us.*).
inline constexpr const char* kRankSpans[] = {"sendrecv", "allreduce", "fence_epoch",
                                             "lock_epoch"};

}  // namespace perfbench
