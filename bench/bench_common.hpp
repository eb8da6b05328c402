// Shared helpers for the per-table/per-figure benchmark binaries.
//
// Each binary regenerates one paper artifact: it runs the relevant
// PPerfMark/Presta workload under the tool, prints what the paper
// reported next to what this reproduction measured, and exits nonzero
// if the qualitative finding (who is the bottleneck) does not hold.
#pragma once

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/session.hpp"
#include "pperfmark/pperfmark.hpp"
#include "util/clock.hpp"
#include "util/text_table.hpp"

namespace m2p::bench {

/// Machine-readable results alongside the human tables: each bench
/// binary records {metric, value, unit} rows and writes them to
/// BENCH_<name>.json in the working directory, so benchmark
/// trajectories can be tracked across commits without scraping stdout.
class JsonEmitter {
public:
    explicit JsonEmitter(std::string bench_name) : name_(std::move(bench_name)) {}

    void record(const std::string& metric, double value, const std::string& unit) {
        rows_.push_back({metric, value, unit});
    }

    /// Names the host in the JSON ("host": CPU model and the CPUs this
    /// process may use), for numbers that only mean something next to it.
    void describe_host() {
        std::ifstream in("/proc/cpuinfo");
        std::string line, model = "unknown CPU";
        while (std::getline(in, line))
            if (line.rfind("model name", 0) == 0) {
                model = line.substr(line.find(':') + 2);
                break;
            }
        host_ = model + ", " + std::to_string(util::usable_cpu_count()) + " usable CPUs";
    }

    std::string render() const {
        std::string out = "{\"bench\":\"" + escaped(name_) + "\",";
        if (!host_.empty()) out += "\"host\":\"" + escaped(host_) + "\",";
        out += "\"records\":[";
        char num[32];
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            std::snprintf(num, sizeof num, "%.9g", rows_[i].value);
            if (i) out += ',';
            out += "{\"metric\":\"" + escaped(rows_[i].metric) + "\",\"value\":" +
                   num + ",\"unit\":\"" + escaped(rows_[i].unit) + "\"}";
        }
        out += "]}\n";
        return out;
    }

    /// Writes BENCH_<name>.json; returns false (with a note on stderr)
    /// if the file cannot be created.
    bool write_file() const {
        const std::string path = "BENCH_" + name_ + ".json";
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "JsonEmitter: cannot write %s\n", path.c_str());
            return false;
        }
        const std::string body = render();
        std::fwrite(body.data(), 1, body.size(), f);
        std::fclose(f);
        std::printf("  [json] wrote %s (%zu records)\n", path.c_str(), rows_.size());
        return true;
    }

private:
    static std::string escaped(const std::string& s) {
        std::string out;
        for (char c : s) {
            if (c == '"' || c == '\\') out += '\\';
            out += c;
        }
        return out;
    }

    struct Row {
        std::string metric;
        double value;
        std::string unit;
    };
    std::string name_;
    std::string host_;
    std::vector<Row> rows_;
};

/// Iteration counts tuned so each program runs ~2-3 s under the
/// Performance Consultant on a small host (workloads are scaled from
/// the paper's cluster runs; see DESIGN.md section 2).
inline ppm::Params pc_params(const std::string& program) {
    ppm::Params p;
    p.time_to_waste = 2;
    p.waste_unit_seconds = 0.002;
    if (program == ppm::kSmallMessages) p.iterations = 400000;
    else if (program == ppm::kBigMessage) p.iterations = 150000;
    else if (program == ppm::kWrongWay) p.iterations = 500000;
    else if (program == ppm::kIntensiveServer) p.iterations = 120;
    else if (program == ppm::kRandomBarrier) p.iterations = 500;
    else if (program == ppm::kDiffuseProcedure) p.iterations = 500;
    else if (program == ppm::kSystemTime) p.iterations = 150, p.waste_unit_seconds = 0.004;
    else if (program == ppm::kHotProcedure) p.iterations = 500;
    else if (program == ppm::kSstwod) p.iterations = 30000, p.grid_n = 48;
    else if (program == ppm::kAllcount) p.iterations = 100, p.epochs = 400,
             p.rma_ops_per_epoch = 20;
    else if (program == ppm::kWincreateBlast) p.win_blast_count = 64;
    else if (program == ppm::kWinfenceSync) p.iterations = 450;
    else if (program == ppm::kWinscpwSync) p.iterations = 450;
    else if (program == ppm::kWinlockSync) p.iterations = 300;
    else if (program == ppm::kSpawnCount) p.spawn_rounds = 4, p.spawn_children = 3;
    else if (program == ppm::kSpawnSync) p.iterations = 250;
    else if (program == ppm::kSpawnwinSync) p.iterations = 350;
    else if (program == ppm::kOned) p.iterations = 25000, p.grid_n = 48;
    return p;
}

/// Process counts per program, following the paper's runs (6 for the
/// client/server programs, 2 for the pairwise ones, 4 elsewhere).
inline int pc_nprocs(const std::string& program) {
    if (program == ppm::kSmallMessages || program == ppm::kIntensiveServer ||
        program == ppm::kRandomBarrier)
        return 6;
    if (program == ppm::kBigMessage || program == ppm::kWrongWay) return 2;
    if (program == ppm::kSpawnCount || program == ppm::kSpawnSync ||
        program == ppm::kSpawnwinSync)
        return 1;
    return 4;
}

inline core::PerformanceConsultant::Options pc_options() {
    core::PerformanceConsultant::Options o;
    o.eval_interval = 0.08;
    o.max_search_seconds = 6.0;
    return o;
}

/// Waits in @p world that ran out wait_deadline_seconds (the
/// simmpi.waits.deadline_expired pvar).  The paper benches set no short
/// deadline, so each such wait is a hang or a lost wakeup the verdict
/// would otherwise hide.
inline std::uint64_t deadline_expiries(simmpi::World& world) {
    return world.pvars().read(world.pvars().find("simmpi.waits.deadline_expired"));
}

struct PcRun {
    core::PCReport report;
    std::string condensed;
    std::uint64_t deadline_expiries = 0;
};

/// Runs @p program on @p nprocs processes of a fresh session under the
/// Performance Consultant.  @p tweak may adjust params/opts first.
inline PcRun run_pc(simmpi::Flavor flavor, const std::string& program, int nprocs,
                    ppm::Params params, core::PerformanceConsultant::Options opts) {
    core::Session s(flavor);
    ppm::register_all(s.world(), params);
    PcRun out;
    out.report = s.run_with_consultant(program, nprocs, opts);
    out.condensed = core::PerformanceConsultant::render_condensed(out.report);
    out.deadline_expiries = deadline_expiries(s.world());
    return out;
}

/// Prints a standard header for one reproduced artifact.
inline void header(const std::string& artifact, const std::string& what) {
    std::printf("==========================================================\n");
    std::printf("%s -- %s\n", artifact.c_str(), what.c_str());
    std::printf("==========================================================\n");
}

/// One paper-vs-measured check line; accumulates the exit status.
class Grader {
public:
    void check(const std::string& claim, bool held) {
        std::printf("  [%s] %s\n", held ? "PASS" : "FAIL", claim.c_str());
        failed_ += held ? 0 : 1;
    }
    void note(const std::string& text) { std::printf("  [note] %s\n", text.c_str()); }
    /// One line per session: its waits that ran out their deadline
    /// (deadline_expiries); any at all is a FAIL.
    void deadlines(const std::string& session, std::uint64_t expired) {
        check(session + ": " + std::to_string(expired) + " waits ran out their deadline",
              expired == 0);
    }
    int exit_code() const { return failed_ == 0 ? 0 : 1; }
    int failures() const { return failed_; }

private:
    int failed_ = 0;
};

}  // namespace m2p::bench
