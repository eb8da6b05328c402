#include "core/metrics.hpp"

#include <algorithm>
#include <chrono>

#include "core/tool.hpp"
#include "util/clock.hpp"

namespace m2p::core {

namespace {

std::vector<std::string> split_path(const std::string& path) {
    std::vector<std::string> out;
    std::size_t pos = 1;  // skip leading '/'
    while (pos <= path.size()) {
        const std::size_t next = path.find('/', pos);
        if (next == std::string::npos) {
            if (pos < path.size()) out.push_back(path.substr(pos));
            break;
        }
        out.push_back(path.substr(pos, next - pos));
        pos = next + 1;
    }
    return out;
}

bool starts_with(const std::string& s, const std::string& prefix) {
    return s.rfind(prefix, 0) == 0;
}

/// Histogram write-stripe count for a new metric-focus pair: one per
/// known rank thread (they are the concurrent writers), clamped so a
/// pair created before launch still gets useful striping and a huge
/// world does not over-allocate buffers.
std::size_t hist_stripes_for(PerfTool& tool) {
    return std::clamp<std::size_t>(
        static_cast<std::size_t>(tool.known_process_count()), 8, 64);
}

}  // namespace

MetricFocusPair::~MetricFocusPair() = default;

MetricManager::MetricManager(PerfTool& tool, double bin_width, std::size_t bins)
    : tool_(tool), bin_width_(bin_width), bins_(bins) {
    sampler_ = std::thread([this] { sampler_loop(); });
}

MetricManager::~MetricManager() {
    {
        std::lock_guard lk(mu_);
        stop_ = true;
    }
    if (sampler_.joinable()) sampler_.join();
    // Remove any instrumentation still installed.
    std::vector<std::shared_ptr<MetricFocusPair>> leftovers;
    {
        std::lock_guard lk(mu_);
        leftovers = active_;
        active_.clear();
    }
    for (auto& p : leftovers)
        mdl::uninstall(tool_.world().registry(), p->compiled_);
}

std::shared_ptr<MetricFocusPair> MetricManager::request(const std::string& metric,
                                                        const Focus& focus) {
    // Whole-program CPU is a sampled native metric (Paradyn's daemon
    // samples process timers); CPU on a Code focus is the MDL
    // proctimer metric cpu_inclusive.
    if (metric == "cpu") {
        if (focus.code != "/Code") return request("cpu_inclusive", focus);
        auto pair = std::shared_ptr<MetricFocusPair>(new MetricFocusPair());
        pair->metric_ = metric;
        pair->focus_ = focus;
        pair->unitstype_ = mdl::UnitsType::Sampled;
        pair->native_cpu_ = true;
        pair->hist_ = std::make_shared<Histogram>(util::wall_seconds(), bin_width_,
                                                  bins_, hist_stripes_for(tool_));
        for (int r : tool_.ranks_for_focus(focus))
            pair->cpu_last_[r] = tool_.world().proc_user_cpu_seconds(r);
        std::lock_guard lk(mu_);
        active_.push_back(pair);
        return pair;
    }

    const mdl::MetricDef* def = tool_.mdl_file().find_metric(metric);
    if (!def) return nullptr;

    std::vector<mdl::ConstraintBinding> bindings;
    const mdl::MdlFile& file = tool_.mdl_file();
    instr::Registry& reg = tool_.world().registry();

    auto allows = [&](const char* cid) {
        return std::find(def->constraints.begin(), def->constraints.end(), cid) !=
               def->constraints.end();
    };

    // ---- Code axis -------------------------------------------------------
    if (focus.code != "/Code") {
        const std::vector<std::string> seg = split_path(focus.code);
        // seg = {"Code", module, f1, f2, ...}
        if (seg.size() < 2) return nullptr;
        if (seg.size() == 2) {
            if (!allows("moduleConstraint")) return nullptr;
            const mdl::ConstraintDef* cd = file.find_constraint("moduleConstraint");
            if (!cd) return nullptr;
            mdl::ConstraintBinding b;
            b.def = cd;
            b.set_overrides["focus_module"] = reg.functions_in_module(seg[1]);
            if (b.set_overrides["focus_module"].empty()) return nullptr;
            bindings.push_back(std::move(b));
        } else {
            if (!allows("procedureConstraint")) return nullptr;
            const mdl::ConstraintDef* cd = file.find_constraint("procedureConstraint");
            if (!cd) return nullptr;
            // One nested procedure constraint per path component:
            // /Code/app/Gsend_message/MPI_Send measures inside
            // MPI_Send while inside Gsend_message.
            for (std::size_t i = 2; i < seg.size(); ++i) {
                instr::FuncId f = (i == 2) ? reg.find(seg[i], seg[1]) : reg.find(seg[i]);
                if (f == instr::kInvalidFunc) f = reg.find(seg[i]);
                if (f == instr::kInvalidFunc) return nullptr;
                mdl::ConstraintBinding b;
                b.def = cd;
                b.set_overrides["focus_procedure"] = {f};
                bindings.push_back(std::move(b));
            }
        }
    }

    // ---- SyncObject axis ---------------------------------------------------
    if (focus.syncobj != "/SyncObject") {
        if (focus.syncobj == "/SyncObject/Barrier") {
            if (!allows("mpi_barrierConstraint")) return nullptr;
            const mdl::ConstraintDef* cd = file.find_constraint("mpi_barrierConstraint");
            if (!cd) return nullptr;
            bindings.push_back({cd, {}, {}});
        } else if (starts_with(focus.syncobj, "/SyncObject/Message/comm_")) {
            const std::vector<std::string> seg = split_path(focus.syncobj);
            // seg = {"SyncObject","Message","comm_<h>"[,"tag_<t>"]}
            const std::int64_t handle = std::stoll(seg[2].substr(5));
            if (seg.size() >= 4 && starts_with(seg[3], "tag_")) {
                if (!allows("mpi_msgtagConstraint")) return nullptr;
                const mdl::ConstraintDef* cd =
                    file.find_constraint("mpi_msgtagConstraint");
                if (!cd) return nullptr;
                bindings.push_back({cd, {handle, std::stoll(seg[3].substr(4))}, {}});
            } else {
                if (!allows("mpi_msgConstraint")) return nullptr;
                const mdl::ConstraintDef* cd = file.find_constraint("mpi_msgConstraint");
                if (!cd) return nullptr;
                bindings.push_back({cd, {handle}, {}});
            }
        } else if (starts_with(focus.syncobj, "/SyncObject/Window/")) {
            if (!allows("mpi_windowConstraint")) return nullptr;
            const mdl::ConstraintDef* cd = file.find_constraint("mpi_windowConstraint");
            if (!cd) return nullptr;
            const std::int64_t uid = tool_.window_uid_of_path(focus.syncobj);
            if (uid < 0) return nullptr;
            bindings.push_back({cd, {uid}, {}});
        } else if (starts_with(focus.syncobj, "/SyncObject/File/file_")) {
            if (!allows("mpi_fileConstraint")) return nullptr;
            const mdl::ConstraintDef* cd = file.find_constraint("mpi_fileConstraint");
            if (!cd) return nullptr;
            const std::int64_t handle =
                std::stoll(focus.syncobj.substr(std::string("/SyncObject/File/file_")
                                                    .size()));
            bindings.push_back({cd, {handle}, {}});
        } else if (focus.syncobj == "/SyncObject/Message") {
            // Category-level Message focus: no object to bind; the
            // Performance Consultant refines straight to objects.
        } else {
            return nullptr;
        }
    }

    // ---- Machine / Process axes (native rank gate) ----------------------
    mdl::EventGate gate;
    if (focus.machine != "/Machine" || focus.process != "/Process") {
        std::vector<int> ranks = tool_.ranks_for_focus(focus);
        std::sort(ranks.begin(), ranks.end());
        gate = [ranks = std::move(ranks)](const instr::CallContext& ctx) {
            return std::binary_search(ranks.begin(), ranks.end(), ctx.rank);
        };
    }

    auto pair = std::shared_ptr<MetricFocusPair>(new MetricFocusPair());
    pair->metric_ = metric;
    pair->focus_ = focus;
    pair->unitstype_ = def->unitstype;
    pair->hist_ = std::make_shared<Histogram>(util::wall_seconds(), bin_width_, bins_,
                                              hist_stripes_for(tool_));

    auto sink = [hist = pair->hist_](double now, double delta) {
        hist->add(now, delta);
    };
    auto resolver = [this](const std::string& set) { return tool_.resolve_funcset(set); };

    pair->compiled_ = mdl::compile_metric(reg, *def, bindings, tool_.services(),
                                          resolver, std::move(sink), std::move(gate));
    std::lock_guard lk(mu_);
    active_.push_back(pair);
    return pair;
}

void MetricManager::release(const std::shared_ptr<MetricFocusPair>& pair) {
    if (!pair) return;
    mdl::uninstall(tool_.world().registry(), pair->compiled_);
    std::lock_guard lk(mu_);
    active_.erase(std::remove(active_.begin(), active_.end(), pair), active_.end());
}

std::size_t MetricManager::active_pairs() const {
    std::lock_guard lk(mu_);
    return active_.size();
}

void MetricManager::sampler_loop() {
    const auto tick =
        std::chrono::duration<double>(std::max(0.002, bin_width_ / 2.0));
    for (;;) {
        std::vector<std::shared_ptr<MetricFocusPair>> natives;
        {
            std::lock_guard lk(mu_);
            if (stop_) return;
            for (const auto& p : active_)
                if (p->native_cpu_) natives.push_back(p);
        }
        const double now = util::wall_seconds();
        // One reading per rank per tick, shared by every pair: reading a
        // running rank's user CPU costs three clock reads.
        std::map<int, double> user_cpu;
        for (const auto& p : natives) {
            // User CPU only: Paradyn's default metrics see no system
            // time, which is why PPerfMark's system-time program fails
            // (paper Table 2).  A reading can dip below one already
            // charged (a slice read in progress is an estimate), so
            // only a new high is charged.
            double delta = 0.0;
            for (int r : tool_.ranks_for_focus(p->focus_)) {
                auto [rd, fresh] = user_cpu.try_emplace(r, 0.0);
                if (fresh) rd->second = tool_.world().proc_user_cpu_seconds(r);
                const double cur = rd->second;
                const auto [it, first] = p->cpu_last_.try_emplace(r, cur);
                if (!first && cur > it->second) {
                    delta += cur - it->second;
                    it->second = cur;
                }
            }
            if (delta > 0.0) p->hist_->add(now, delta);
        }
        std::this_thread::sleep_for(tick);
    }
}

}  // namespace m2p::core
