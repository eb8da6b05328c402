#include "mdl/eval.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "util/clock.hpp"

namespace m2p::mdl {

namespace {

// ---------------------------------------------------------------------------
// Resolved form
// ---------------------------------------------------------------------------
//
// A context's state is one block of int64 words: the constraint nesting
// depths first (word b for binding b), then every scratch variable (one
// word) and timer (two words: nest count, start time as double bits) at
// the word the compiler gave it on first mention.

/// One expression node.  Operands are indices of earlier nodes.
struct Node {
    enum class Op : std::uint8_t {
        Const,       ///< `k`: a number, or a $constraint[k] bound at compile time
        Var,         ///< the scratch variable at word `slot`
        Arg,         ///< $arg[`slot`]; 0 past the call's arguments
        Mul,         ///< lhs * rhs
        Add,         ///< lhs + rhs
        Eq,          ///< lhs == rhs
        Ne,          ///< lhs != rhs
        TypeSize,    ///< MPI_Type_size(lhs, &var at word `slot`)
        WindowId,    ///< DYNINSTWindow_FindUniqueId(lhs)
        CommId,      ///< DYNINSTComm_FindId(lhs)
        StartTimer,  ///< start the timer at word `slot`; yields 0
        StopTimer,   ///< stop the timer at word `slot`; yields 0
    };
    Op op = Op::Const;
    bool proc = false;     ///< timers: the rank's CPU clock, not the wall clock
    bool primary = false;  ///< StopTimer: the timer is the metric's primary variable
    std::int32_t lhs = -1;
    std::int32_t rhs = -1;
    std::int32_t slot = 0;
    std::int64_t k = 0;
};

/// One statement.
struct Step {
    enum class Op : std::uint8_t {
        AddPrimary,  ///< the sink receives `value`
        SetVar,      ///< word `slot` = value
        AddVar,      ///< word `slot` += value
        SetFlag,     ///< depth word `slot`: nonzero value pushes a level, zero pops one
        Eval,        ///< a call statement, run for its effect
        SkipUnless,  ///< value == 0: continue at step `slot` (an `if` skipping its body)
    };
    Op op = Op::Eval;
    std::int32_t slot = 0;
    std::int32_t value = -1;  ///< node index
};

/// The code of one instrumentation point: steps [first, last).
struct Point {
    std::uint32_t first = 0;
    std::uint32_t last = 0;
    bool metric_code = false;  ///< runs behind the EventGate
    bool check_flags = false;  ///< `constrained` metric code with constraints bound
    bool stateful = false;     ///< reads or writes the context's block
};

struct Program {
    std::vector<Node> nodes;
    std::vector<Step> steps;
    std::vector<Point> points;
    std::size_t flags = 0;  ///< depth words, one per constraint binding
    std::size_t words = 0;  ///< block size
};

/// Two's-complement wraparound instead of signed-overflow UB.
std::int64_t wrap(std::uint64_t v) { return static_cast<std::int64_t>(v); }

// ---------------------------------------------------------------------------
// Per-rank state
// ---------------------------------------------------------------------------

/// Rank-indexed state blocks, each padded to whole cache lines so two
/// ranks never share one.  Chunk c holds ranks [64 (2^c - 1),
/// 64 (2^(c+1) - 1)): the first covers ranks 0..63 and each later chunk
/// doubles, so a fixed directory covers every rank and a published chunk
/// never moves.  A chunk's first touch allocates it zeroed under a mutex
/// and publishes it with release; later lookups are one acquire load.
/// Only a rank's own context touches its block, so the block itself
/// needs no synchronization (a fiber's migration between workers orders
/// its accesses).
class RankTable {
public:
    explicit RankTable(std::size_t words)
        : stride_((words + kLineWords - 1) / kLineWords * kLineWords) {}

    std::int64_t* block(int rank) {
        const auto r = static_cast<std::uint32_t>(rank);
        const int c = std::bit_width(r / kFirstChunk + 1) - 1;
        std::int64_t* chunk = chunks_[c].load(std::memory_order_acquire);
        if (chunk == nullptr) chunk = grow(c);
        return chunk + (r - kFirstChunk * ((std::uint32_t{1} << c) - 1)) * stride_;
    }

private:
    static constexpr std::uint32_t kFirstChunk = 64;  ///< ranks in chunk 0
    static constexpr std::size_t kLineWords = 64 / sizeof(std::int64_t);
    static constexpr int kChunks = 26;  ///< chunk 25 ends past INT_MAX

    std::int64_t* grow(int c) {
        std::lock_guard lk(grow_mu_);
        if (std::int64_t* chunk = chunks_[c].load(std::memory_order_relaxed)) return chunk;
        const std::size_t words = (std::size_t{kFirstChunk} << c) * stride_;
        storage_[c] = std::make_unique<std::int64_t[]>(words + kLineWords);  // zeroed
        void* base = storage_[c].get();
        std::size_t space = (words + kLineWords) * sizeof(std::int64_t);
        std::align(kLineWords * sizeof(std::int64_t), words * sizeof(std::int64_t), base,
                   space);
        auto* chunk = static_cast<std::int64_t*>(base);
        chunks_[c].store(chunk, std::memory_order_release);
        return chunk;
    }

    const std::size_t stride_;
    std::array<std::atomic<std::int64_t*>, kChunks> chunks_{};
    std::mutex grow_mu_;
    std::array<std::unique_ptr<std::int64_t[]>, kChunks> storage_;  ///< guarded by grow_mu_
};

// ---------------------------------------------------------------------------
// Lowering (AST -> Program); compiling is the validation
// ---------------------------------------------------------------------------

struct Builtin {
    const char* name;
    Node::Op op;
    bool proc;
};
constexpr Builtin kBuiltins[] = {
    {"MPI_Type_size", Node::Op::TypeSize, false},
    {"DYNINSTWindow_FindUniqueId", Node::Op::WindowId, false},
    {"DYNINSTTWindow_FindUniqueId", Node::Op::WindowId, false},
    {"DYNINSTComm_FindId", Node::Op::CommId, false},
    {"startWallTimer", Node::Op::StartTimer, false},
    {"stopWallTimer", Node::Op::StopTimer, false},
    {"startProcTimer", Node::Op::StartTimer, true},
    {"stopProcTimer", Node::Op::StopTimer, true},
};

/// Lowers a metric's code and its bindings' constraint code into one
/// Program sharing one block layout.
class Lowering {
public:
    Lowering(const std::string& primary, const std::vector<ConstraintBinding>& bindings)
        : primary_(primary), bindings_(bindings) {
        prog_.flags = prog_.words = bindings.size();
    }

    /// Lowers one point; @p self is the binding whose constraint code
    /// this is, or -1 for metric code.  Returns the point's index.
    std::size_t point(const InstPoint& ip, int self) {
        self_ = self;
        stateful_ = false;
        Point p;
        p.first = static_cast<std::uint32_t>(prog_.steps.size());
        for (const auto& st : ip.code) stmt(*st);
        p.last = static_cast<std::uint32_t>(prog_.steps.size());
        p.metric_code = self < 0;
        p.check_flags = p.metric_code && ip.constrained && prog_.flags > 0;
        p.stateful = stateful_ || p.check_flags;
        prog_.points.push_back(p);
        return prog_.points.size() - 1;
    }

    Program finish() { return std::move(prog_); }

private:
    std::int32_t add(const Node& n) {
        prog_.nodes.push_back(n);
        return static_cast<std::int32_t>(prog_.nodes.size() - 1);
    }

    /// Word of a scratch variable or timer (separate namespaces, as in
    /// MDL), allocated on first mention.
    std::int32_t word(std::map<std::string, std::int32_t>& names, const std::string& name,
                      std::size_t width) {
        stateful_ = true;
        const auto [it, fresh] =
            names.try_emplace(name, static_cast<std::int32_t>(prog_.words));
        if (fresh) prog_.words += width;
        return it->second;
    }

    std::int32_t expr(const Expr& e) {
        Node n;
        switch (e.kind) {
            case Expr::Kind::Number: n.k = e.number; break;
            case Expr::Kind::Ident:
                n.op = Node::Op::Var;
                n.slot = word(vars_, e.ident, 1);
                break;
            case Expr::Kind::Arg:
                n.op = Node::Op::Arg;
                n.slot = e.index;
                break;
            case Expr::Kind::ConstraintArg: {
                const std::string what = "$constraint[" + std::to_string(e.index) + "]";
                if (self_ < 0) throw CompileError(what + " outside constraint code");
                const auto& values = bindings_[static_cast<std::size_t>(self_)].values;
                if (e.index < 0 || static_cast<std::size_t>(e.index) >= values.size())
                    throw CompileError(what + " out of range: the binding has " +
                                       std::to_string(values.size()) + " values");
                n.k = values[static_cast<std::size_t>(e.index)];
                break;
            }
            case Expr::Kind::Call: return call(e);
            case Expr::Kind::AddressOf:
                throw CompileError("'&" + e.ident +
                                   "' only valid as MPI_Type_size's out-parameter");
            case Expr::Kind::Binary:
                if (e.op == "*")
                    n.op = Node::Op::Mul;
                else if (e.op == "+")
                    n.op = Node::Op::Add;
                else if (e.op == "==")
                    n.op = Node::Op::Eq;
                else if (e.op == "!=")
                    n.op = Node::Op::Ne;
                else
                    throw CompileError("unknown operator '" + e.op + "'");
                n.lhs = expr(*e.lhs);
                n.rhs = expr(*e.rhs);
                break;
        }
        return add(n);
    }

    std::int32_t call(const Expr& e) {
        const Builtin* b = nullptr;
        for (const Builtin& k : kBuiltins)
            if (e.ident == k.name) b = &k;
        if (b == nullptr) throw CompileError("unknown MDL call '" + e.ident + "'");
        Node n;
        n.op = b->op;
        n.proc = b->proc;
        const auto& args = e.call_args;
        switch (b->op) {
            case Node::Op::TypeSize:
                if (args.size() != 2 || args[1]->kind != Expr::Kind::AddressOf)
                    throw CompileError("MPI_Type_size expects (expr, &counter)");
                n.lhs = expr(*args[0]);
                n.slot = word(vars_, args[1]->ident, 1);
                break;
            case Node::Op::StartTimer:
            case Node::Op::StopTimer:
                if (args.size() != 1 || args[0]->kind != Expr::Kind::Ident)
                    throw CompileError(e.ident + " expects a timer identifier");
                n.slot = word(timers_, args[0]->ident, 2);
                n.primary = args[0]->ident == primary_;
                break;
            default:  // the handle-identity calls
                if (args.size() != 1) throw CompileError(e.ident + " expects one argument");
                n.lhs = expr(*args[0]);
                break;
        }
        return add(n);
    }

    void stmt(const Stmt& s) {
        const bool primary = s.target == primary_;
        const bool flag = self_ >= 0 &&
                          s.target == bindings_[static_cast<std::size_t>(self_)].def->id;
        Step st;
        switch (s.kind) {
            case Stmt::Kind::Increment:
            case Stmt::Kind::AddAssign:
                st.value = s.kind == Stmt::Kind::Increment ? add(Node{.k = 1}) : expr(*s.value);
                if (primary) {
                    st.op = Step::Op::AddPrimary;
                } else if (flag) {
                    st.op = Step::Op::SetFlag;
                } else {
                    st.op = Step::Op::AddVar;
                    st.slot = word(vars_, s.target, 1);
                }
                break;
            case Stmt::Kind::Assign:  // a flag assignment outranks the primary
                st.value = expr(*s.value);
                if (flag) {
                    st.op = Step::Op::SetFlag;
                } else if (primary) {
                    st.op = Step::Op::AddPrimary;
                } else {
                    st.op = Step::Op::SetVar;
                    st.slot = word(vars_, s.target, 1);
                }
                break;
            case Stmt::Kind::If: {
                st.op = Step::Op::SkipUnless;
                st.value = expr(*s.value);
                const std::size_t at = prog_.steps.size();
                prog_.steps.push_back(st);
                stmt(*s.body);
                prog_.steps[at].slot = static_cast<std::int32_t>(prog_.steps.size());
                return;
            }
            case Stmt::Kind::Call:
                st.op = Step::Op::Eval;
                st.value = expr(*s.call);
                break;
        }
        if (st.op == Step::Op::SetFlag) {
            st.slot = self_;
            stateful_ = true;
        }
        prog_.steps.push_back(st);
    }

    const std::string& primary_;
    const std::vector<ConstraintBinding>& bindings_;
    int self_ = -1;          ///< binding of the code being lowered, -1 for metric code
    bool stateful_ = false;  ///< the point being lowered touches the block
    std::map<std::string, std::int32_t> vars_, timers_;
    Program prog_;
};

}  // namespace

// ---------------------------------------------------------------------------
// MetricInstance: runs a Program against per-context blocks
// ---------------------------------------------------------------------------

class MetricInstance {
public:
    MetricInstance(Program prog, MetricSink sink, EventGate gate,
                   std::shared_ptr<Services> services)
        : prog_(std::move(prog)),
          sink_(std::move(sink)),
          gate_(std::move(gate)),
          services_(std::move(services)),
          ranks_(prog_.words) {}

    const Point& point(std::size_t i) const { return prog_.points[i]; }

    /// Runs @p p for the context that fired it.
    void fire(const Point& p, const instr::CallContext& ctx) {
        if (p.metric_code && gate_ && !gate_(ctx)) return;
        std::int64_t* const b = p.stateful ? block(ctx.rank) : nullptr;
        if (p.check_flags)
            for (std::size_t i = 0; i < prog_.flags; ++i)
                if (b[i] == 0) return;
        for (std::uint32_t i = p.first; i < p.last;) {
            const Step& s = prog_.steps[i++];
            const std::int64_t v = eval(s.value, ctx, b);
            switch (s.op) {
                case Step::Op::AddPrimary:
                    if (sink_) sink_(util::wall_seconds(), static_cast<double>(v));
                    break;
                case Step::Op::SetVar: b[s.slot] = v; break;
                case Step::Op::AddVar:
                    b[s.slot] = wrap(static_cast<std::uint64_t>(b[s.slot]) +
                                     static_cast<std::uint64_t>(v));
                    break;
                case Step::Op::SetFlag:
                    if (v != 0)
                        ++b[s.slot];
                    else if (b[s.slot] > 0)
                        --b[s.slot];
                    break;
                case Step::Op::Eval: break;
                case Step::Op::SkipUnless:
                    if (v == 0) i = static_cast<std::uint32_t>(s.slot);
                    break;
            }
        }
    }

private:
    /// This context's block: rank-indexed without a lock on a rank,
    /// keyed by thread under a lock elsewhere (tool threads, tests).
    std::int64_t* block(int rank) {
        if (rank >= 0) return ranks_.block(rank);
        std::lock_guard lk(threads_mu_);
        auto& b = threads_[std::this_thread::get_id()];
        if (!b) b = std::make_unique<std::int64_t[]>(prog_.words);
        return b.get();
    }

    std::int64_t eval(std::int32_t n, const instr::CallContext& ctx, std::int64_t* b) {
        const Node& x = prog_.nodes[static_cast<std::size_t>(n)];
        switch (x.op) {
            case Node::Op::Const: return x.k;
            case Node::Op::Var: return b[x.slot];
            case Node::Op::Arg: {
                const auto i = static_cast<std::size_t>(x.slot);
                return i < ctx.args.size() ? ctx.args[i] : 0;  // benign zero
            }
            case Node::Op::Mul:
            case Node::Op::Add:
            case Node::Op::Eq:
            case Node::Op::Ne: {
                const std::int64_t l = eval(x.lhs, ctx, b);
                const std::int64_t r = eval(x.rhs, ctx, b);
                const auto ul = static_cast<std::uint64_t>(l);
                const auto ur = static_cast<std::uint64_t>(r);
                if (x.op == Node::Op::Mul) return wrap(ul * ur);
                if (x.op == Node::Op::Add) return wrap(ul + ur);
                return (l == r) == (x.op == Node::Op::Eq) ? 1 : 0;
            }
            case Node::Op::TypeSize:
                return b[x.slot] = services_->type_size(eval(x.lhs, ctx, b));
            case Node::Op::WindowId:
                return services_->window_unique_id(eval(x.lhs, ctx, b));
            case Node::Op::CommId: return services_->comm_unique_id(eval(x.lhs, ctx, b));
            case Node::Op::StartTimer: {
                std::int64_t* t = b + x.slot;  // {nest, start}
                if (t[0]++ == 0) t[1] = std::bit_cast<std::int64_t>(timer_clock(x.proc));
                return 0;
            }
            case Node::Op::StopTimer: {
                std::int64_t* t = b + x.slot;
                // A stop without a start is ignored; inner stops of a
                // nest, and timers other than the primary, accrue nothing.
                if (t[0] == 0 || --t[0] != 0 || !x.primary || !sink_) return 0;
                const double end = timer_clock(x.proc);
                const double delta = end - std::bit_cast<double>(t[1]);
                if (delta >= 0.0) sink_(x.proc ? util::wall_seconds() : end, delta);
                return 0;
            }
        }
        return 0;
    }

    // rank_cpu_seconds, not thread_cpu_seconds: a fiber rank can migrate
    // workers between start and stop, so the CPU clock must be the
    // rank's too or the delta subtracts two different threads' clocks.
    static double timer_clock(bool proc) {
        return proc ? util::rank_cpu_seconds() : util::wall_seconds();
    }

    const Program prog_;
    const MetricSink sink_;
    const EventGate gate_;
    const std::shared_ptr<Services> services_;
    RankTable ranks_;
    std::mutex threads_mu_;
    std::unordered_map<std::thread::id, std::unique_ptr<std::int64_t[]>>
        threads_;  ///< guarded by threads_mu_
};

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

CompiledMetric compile_metric(instr::Registry& reg, const MetricDef& metric,
                              const std::vector<ConstraintBinding>& bindings,
                              std::shared_ptr<Services> services,
                              const FuncSetResolver& resolver, MetricSink sink,
                              EventGate gate) {
    // Lower every point and resolve every function set before inserting
    // anything, so a CompileError leaves the registry untouched.
    struct Site {
        std::size_t point;
        std::vector<instr::FuncId> funcs;
        instr::Where where;
        bool prepend;
    };
    Lowering lower(metric.id, bindings);
    std::vector<Site> sites;
    auto lower_foreach = [&](const Foreach& fe, int self,
                             const std::vector<instr::FuncId>& funcs) {
        for (const auto& p : fe.points)
            sites.push_back({lower.point(p, self), funcs,
                             p.pos == PointPos::Entry ? instr::Where::Entry
                                                      : instr::Where::Return,
                             p.mode == InsertMode::Prepend});
    };
    // Constraints first so their flag-setting snippets are in place
    // before metric code consults them.
    for (std::size_t b = 0; b < bindings.size(); ++b) {
        for (const auto& fe : bindings[b].def->foreachs) {
            const auto ov = bindings[b].set_overrides.find(fe.funcset);
            lower_foreach(fe, static_cast<int>(b),
                          ov != bindings[b].set_overrides.end() ? ov->second
                                                                : resolver(fe.funcset));
        }
    }
    for (const auto& fe : metric.foreachs) lower_foreach(fe, -1, resolver(fe.funcset));

    CompiledMetric cm;
    cm.instance = std::make_shared<MetricInstance>(lower.finish(), std::move(sink),
                                                   std::move(gate), std::move(services));
    // Return sites go in before entry sites.  Ranks keep calling while
    // the snippets go in one by one, and a call that fires an entry
    // snippet must find its return snippet in place: otherwise its
    // start (timer nest, constraint flag) is never undone and the
    // pair's timer stays nested for the pair's whole life, reading 0.
    std::stable_partition(sites.begin(), sites.end(), [](const Site& s) {
        return s.where == instr::Where::Return;
    });
    for (const Site& s : sites) {
        const Point* p = &cm.instance->point(s.point);
        for (instr::FuncId f : s.funcs)
            cm.handles.push_back(reg.insert(
                f, s.where,
                [inst = cm.instance, p](const instr::CallContext& ctx) {
                    inst->fire(*p, ctx);
                },
                s.prepend));
    }
    return cm;
}

void uninstall(instr::Registry& reg, CompiledMetric& cm) {
    // Entry snippets first, the mirror of compile_metric's order.
    for (auto h = cm.handles.rbegin(); h != cm.handles.rend(); ++h) reg.remove(*h);
    cm.handles.clear();
}

}  // namespace m2p::mdl
