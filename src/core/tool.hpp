// PerfTool: the enhanced-Paradyn reproduction's front end + daemons.
//
// Mirrors the paper's architecture: "Paradyn consists of a front end
// process to collect and visualize data and search for performance
// bottlenecks; and daemons that run on each machine node, inserting
// and deleting instrumentation ... and collecting and forwarding
// performance data."  Here daemons are per-node objects whose
// discovery snippets run on the application's rank threads; they
// forward typed update reports to a front-end thread that owns the
// Resource Hierarchy -- the daemon->frontend update protocol the
// paper adds for MPI-2 object naming and resource retirement
// (section 4.2.3).
//
// The tool implements all four of the paper's MPI-2 features:
//  * RMA window discovery at MPI_Win_create return, N-M unique ids,
//    retirement at MPI_Win_free (section 4.2.1);
//  * dynamic process creation via both the intercept method (a PMPI
//    profiling wrapper that reroutes the spawn through a "paradynd"
//    stub, at measurable extra cost) and the attach method (MPIR
//    debugging-interface lookup at spawn return) (section 4.2.2);
//  * MPI object naming propagated into resource display names
//    (section 4.2.3);
//  * the LAM/MPICH launcher differences (section 4.1) via simmpi's
//    launcher, driven by tool-side run helpers.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "core/resources.hpp"
#include "mdl/ast.hpp"
#include "mdl/eval.hpp"
#include "pvar/registry.hpp"
#include "simmpi/rank.hpp"
#include "simmpi/world.hpp"

namespace m2p::core {

class MetricManager;

enum class SpawnMethod {
    None,       ///< spawned processes go unmeasured
    Intercept,  ///< PMPI wrapper reroutes spawn through paradynd (adds overhead)
    Attach,     ///< discover children via the MPIR interface, attach daemons
};

struct SpawnSupportStats {
    int spawns_seen = 0;
    int daemons_started = 0;       ///< intercept starts one per child
    int processes_attached = 0;    ///< attach-method discoveries
    int attach_failures = 0;       ///< MPIR interface unavailable
    double intercept_overhead_seconds = 0.0;
};

/// One per simulated cluster node (paper: "daemons that run on each
/// machine node").  A daemon owns the ranks placed on its node and
/// counts the update reports it forwards.
struct Daemon {
    std::string node;
    std::vector<int> ranks;
    std::uint64_t reports_sent = 0;
};

class PerfTool final : public simmpi::ProfilingLayer {
public:
    struct Options {
        double bin_width = 0.005;   ///< histogram base granularity (seconds)
        std::size_t bins = 128;     ///< histogram capacity (fold beyond)
        SpawnMethod spawn_method = SpawnMethod::Intercept;
        std::string mdl_source;     ///< empty = built-in default metric file
    };

    PerfTool(simmpi::World& world, Options opts);
    explicit PerfTool(simmpi::World& world) : PerfTool(world, Options{}) {}
    ~PerfTool() override;
    PerfTool(const PerfTool&) = delete;
    PerfTool& operator=(const PerfTool&) = delete;

    simmpi::World& world() { return world_; }
    const Options& options() const { return opts_; }
    ResourceHierarchy& hierarchy() { return hierarchy_; }
    MetricManager& metrics() { return *metrics_; }
    const mdl::MdlFile& mdl_file() const { return mdl_; }
    double tunable(const std::string& name, double fallback) const;

    /// Registers the initial application processes (the tool started
    /// them itself, as Paradyn does).  Creates daemons per node.
    void on_launch(const std::vector<int>& global_ranks);
    /// Registers one process (initial or spawned) with its daemon and
    /// the /Process and /Machine hierarchies.
    void add_process(int global_rank);

    /// Blocks until all daemon->frontend update reports are applied.
    void flush();

    // -- Window registry (paper 4.2.1) ------------------------------------
    /// Tool-unique id for a window handle; -1 if not yet discovered.
    std::int64_t window_uid(simmpi::Win handle) const;
    /// Resource path for a window uid ("" if unknown).
    std::string window_path(std::int64_t uid) const;
    /// Uid of the window whose resource path is @p path (-1 unknown).
    std::int64_t window_uid_of_path(const std::string& path) const;

    // -- Focus helpers -----------------------------------------------------
    /// Global ranks selected by the focus's machine/process axes.
    std::vector<int> ranks_for_focus(const Focus& f) const;
    std::vector<Daemon> daemons() const;
    int known_process_count() const;
    /// Resource path of the process with @p global_rank.
    std::string process_path(int global_rank) const;

    // -- MDL plumbing ------------------------------------------------------
    std::shared_ptr<mdl::Services> services() const { return services_; }
    /// Resolves a default-metric-file function-set name.
    std::vector<instr::FuncId> resolve_funcset(const std::string& set) const;
    /// Functions visible in /Code for this MPI implementation: LAM
    /// exposes MPI_* strong symbols, MPICH's weak-symbol build
    /// resolves to PMPI_* (paper section 4.1.1).
    bool function_visible(const instr::FunctionInfo& fi) const;

    // -- Performance Consultant lifecycle tallies (pc.experiments.*) -------
    /// Relaxed counters the consultant bumps as its search runs; the
    /// tool registers them as pvars in the world's registry (detached
    /// again in ~PerfTool, before the world can outlive the storage).
    struct PcCounters {
        std::atomic<std::uint64_t> started{0};      ///< experiments launched
        std::atomic<std::uint64_t> completed{0};    ///< measured to completion
        std::atomic<std::uint64_t> tested_true{0};  ///< hypothesis held
        std::atomic<std::uint64_t> truncated{0};    ///< rank died mid-interval
        std::atomic<std::uint64_t> post_loss{0};    ///< clean runs after a loss
    };
    PcCounters& pc_counters() { return pc_counters_; }

    // -- Spawn support -----------------------------------------------------
    const SpawnSupportStats& spawn_stats() const { return spawn_stats_; }
    int wrap_spawn(simmpi::Rank& rank, simmpi::SpawnArgs args, simmpi::Comm* intercomm,
                   std::vector<int>* errcodes) override;
    void wrap_init(simmpi::Rank& rank) override;

private:
    struct Report {
        enum class Kind { NewResource, NameUpdate, Retire } kind = Kind::NewResource;
        std::string path;
        ResourceKind rkind = ResourceKind::Category;
        std::string display;
        std::string daemon_node;
    };

    void install_discovery();
    void scan_code_resources();
    /// Death observer: retires the dead process's resources so the
    /// hierarchy greys it out and the PC stops refining into it.
    void on_rank_death(const simmpi::Epitaph& e);
    void post(Report r);
    void frontend_loop();
    void discover_window(std::int64_t handle);
    void retire_window(std::int64_t handle);
    void discover_comm(std::int64_t handle, std::int64_t tag);
    void attach_new_processes();

    simmpi::World& world_;
    Options opts_;
    mdl::MdlFile mdl_;
    ResourceHierarchy hierarchy_;
    std::shared_ptr<mdl::Services> services_;
    std::unique_ptr<MetricManager> metrics_;

    mutable std::mutex mu_;
    std::vector<Daemon> daemons_;
    std::map<int, std::string> rank_node_;
    std::map<simmpi::Win, std::int64_t> win_uid_by_handle_;
    std::map<std::int64_t, std::string> win_path_by_uid_;
    std::map<int, int> win_next_m_;  ///< impl id N -> next M
    std::int64_t next_win_uid_ = 0;
    std::set<simmpi::Comm> known_comms_;
    std::set<std::pair<simmpi::Comm, int>> known_tags_;
    /// Serializes discover_comm's insert-and-post (taken before mu_).
    std::mutex discover_mu_;
    std::set<int> known_procs_;
    SpawnSupportStats spawn_stats_;
    PcCounters pc_counters_;
    pvar::ProviderScope pvar_scope_;  ///< pc.experiments.* registrations

    // Daemon -> frontend report channel.
    std::mutex q_mu_;
    std::condition_variable q_cv_;
    std::deque<Report> queue_;
    bool applying_ = false;
    bool stop_ = false;
    /// Retires that arrived before their NewResource (a rank can die
    /// while its discovery reports are still in flight).  Frontend
    /// thread only -- no lock needed.
    std::set<std::string> pending_retires_;
    std::thread frontend_;
};

/// Convenience: parse + launch + attach in one call, as the Paradyn
/// front end does when it starts an MPI job itself.  Returns the
/// global ranks started.
std::vector<int> run_app_async(PerfTool& tool, const std::string& command,
                               const std::vector<std::string>& argv, int nprocs,
                               int procs_per_node = 2);

}  // namespace m2p::core
