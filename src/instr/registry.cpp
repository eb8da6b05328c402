#include "instr/registry.hpp"

#include <algorithm>
#include <cassert>
#include <set>
#include <stdexcept>

#include "util/clock.hpp"

namespace m2p::instr {

namespace {

thread_local int t_current_rank = -1;
thread_local CallTraceSink* t_call_sink = nullptr;

}  // namespace

namespace detail {
thread_local BoundaryPayload t_boundary_payload;
thread_local bool t_boundary_active = false;
}  // namespace detail

namespace {

// ---------------------------------------------------------------------------
// Hazard-pointer domain shared by all Registries.
//
// dispatch() publishes the snippet-snapshot pointer it is about to walk
// into a per-thread hazard slot; retire() only frees a retired snapshot
// once no slot holds it.  The classic seq_cst protocol applies: the
// reader's hazard store and head re-check, and the writer's head
// exchange and slot scan, are all seq_cst, so either the writer sees
// the hazard (and keeps the snapshot) or the reader sees the new head
// (and retries without dereferencing).  Records are never freed --
// a thread releases its record on exit and a later thread reuses it --
// so the domain leaks at most one record per peak concurrent thread.
// ---------------------------------------------------------------------------

constexpr int kHazardDepth = 4;  ///< max nested dispatch from inside a snippet

struct HazardRec {
    std::atomic<const void*> slots[kHazardDepth] = {};
    std::atomic<bool> in_use{false};
    HazardRec* next = nullptr;
};

std::atomic<HazardRec*> g_hazard_head{nullptr};

HazardRec* hazard_acquire_rec() {
    for (HazardRec* r = g_hazard_head.load(std::memory_order_acquire); r;
         r = r->next) {
        bool expected = false;
        // seq_cst: the retire scan skips records whose in_use it reads
        // as false, so acquisition must be globally ordered against the
        // scan (see hazard_pinned) for the skip to be sound.
        if (!r->in_use.load(std::memory_order_relaxed) &&
            r->in_use.compare_exchange_strong(expected, true,
                                              std::memory_order_seq_cst))
            return r;
    }
    auto* r = new HazardRec;
    r->in_use.store(true, std::memory_order_relaxed);
    r->next = g_hazard_head.load(std::memory_order_relaxed);
    while (!g_hazard_head.compare_exchange_weak(r->next, r,
                                                std::memory_order_acq_rel,
                                                std::memory_order_relaxed)) {
    }
    return r;
}

struct HazardOwner {
    HazardRec* rec = nullptr;
    int depth = 0;
    ~HazardOwner() {
        if (!rec) return;
        for (auto& s : rec->slots) s.store(nullptr, std::memory_order_relaxed);
        rec->in_use.store(false, std::memory_order_release);
    }
};

thread_local HazardOwner t_hazard;

/// True while any live thread's hazard slot pins @p p.
bool hazard_pinned(const void* p) {
    for (HazardRec* r = g_hazard_head.load(std::memory_order_acquire); r;
         r = r->next) {
        if (!r->in_use.load(std::memory_order_seq_cst)) continue;
        for (const auto& s : r->slots)
            if (s.load(std::memory_order_seq_cst) == p) return true;
    }
    return false;
}

std::atomic<std::uint64_t> g_next_registry_uid{1};

}  // namespace

int current_rank() { return t_current_rank; }
void set_current_rank(int rank) { t_current_rank = rank; }

CallTraceSink* thread_call_sink() { return t_call_sink; }
void set_thread_call_sink(CallTraceSink* sink) { t_call_sink = sink; }

ThreadContext exchange_thread_context(const ThreadContext& next) {
    ThreadContext prev;
    prev.rank = t_current_rank;
    prev.sink = t_call_sink;
    prev.payload = detail::t_boundary_payload;
    prev.boundary_active = detail::t_boundary_active;
    t_current_rank = next.rank;
    t_call_sink = next.sink;
    detail::t_boundary_payload = next.payload;
    detail::t_boundary_active = next.boundary_active;
    return prev;
}

struct Registry::PointImpl {
    // RCU-published snippet snapshot.  nullptr means "no snippets": the
    // dispatch fast path is one acquire load and a branch.  Writers
    // (insert/remove) build a fresh vector copy-on-write under the
    // function's write mutex, publish it here, and retire the old one.
    std::atomic<const SnippetVec*> head{nullptr};
};

struct Registry::FuncImpl {
    FunctionInfo info;
    PointImpl points[2];
    std::mutex write_mu;  ///< serializes insert/remove on this function
};

/// One thread's shard of the dispatch statistics.  Only the owning
/// thread writes (plain load/store: no RMW, no shared cache line);
/// stats() readers sum all shards with relaxed loads.
struct Registry::StatSlot {
    alignas(64) std::atomic<std::uint64_t> events{0};
    std::atomic<std::uint64_t> executed{0};
};

namespace {
/// Per-thread map from registry uid to that registry's StatSlot,
/// move-to-front so the hot registry costs one comparison.  Entries for
/// destroyed registries never match again (uids are process-unique) and
/// are evicted from the tail once the cache outgrows kStatCacheMax.
constexpr std::size_t kStatCacheMax = 16;
thread_local std::vector<std::pair<std::uint64_t, void*>>* t_stat_cache_storage =
    nullptr;
}  // namespace

Registry::Registry()
    : boundary_bits_(new std::atomic<std::uint64_t>[kMaxChunks * kChunkSize / 64]()),
      reg_uid_(g_next_registry_uid.fetch_add(1)) {}

Registry::~Registry() {
    // Precondition (unchanged from the locked design): no dispatch may
    // be in flight at destruction, so everything can be freed directly.
    const std::uint32_t n = count_.load(std::memory_order_acquire);
    for (std::uint32_t i = 0; i < n; ++i) {
        FuncImpl& fi = *(chunks_[i >> kChunkShift].load(std::memory_order_relaxed) +
                         (i & kChunkMask));
        for (auto& pt : fi.points)
            delete pt.head.load(std::memory_order_relaxed);
    }
    for (auto& c : chunks_) delete[] c.load(std::memory_order_relaxed);
    for (const SnippetVec* v : retired_) delete v;
}

FuncId Registry::register_function(std::string_view name, std::string_view module,
                                   std::uint32_t categories) {
    std::string key;
    key.reserve(module.size() + 1 + name.size());
    key.append(module).push_back('\0');
    key.append(name);

    const auto publish_boundary_bit = [this](FuncId id, std::uint32_t cats) {
        if (has_category(cats, Category::UserBoundary))
            boundary_bits_[id >> 6].fetch_or(std::uint64_t{1} << (id & 63),
                                             std::memory_order_relaxed);
    };

    std::unique_lock lk(mu_);
    if (const auto it = by_module_name_.find(key); it != by_module_name_.end()) {
        func_impl(it->second).info.categories |= categories;
        publish_boundary_bit(it->second, categories);
        return it->second;
    }
    const std::uint32_t id = count_.load(std::memory_order_relaxed);
    const std::size_t chunk = id >> kChunkShift;
    if (chunk >= kMaxChunks) throw std::length_error("instr: function table full");
    FuncImpl* base = chunks_[chunk].load(std::memory_order_relaxed);
    if (!base) {
        base = new FuncImpl[kChunkSize];
        chunks_[chunk].store(base, std::memory_order_release);
    }
    FuncImpl& f = base[id & kChunkMask];
    f.info.id = id;
    f.info.name = std::string(name);
    f.info.module = std::string(module);
    f.info.categories = categories;
    publish_boundary_bit(id, categories);
    by_module_name_.emplace(std::move(key), id);
    by_name_.emplace(f.info.name, id);  // keeps the first id: find() order
    // Publish: readers that see the new count see the initialized slot.
    count_.store(id + 1, std::memory_order_release);
    return id;
}

FuncId Registry::find(std::string_view name) const {
    std::unique_lock lk(mu_);
    const auto it = by_name_.find(std::string(name));
    return it != by_name_.end() ? it->second : kInvalidFunc;
}

FuncId Registry::find(std::string_view name, std::string_view module) const {
    std::string key;
    key.reserve(module.size() + 1 + name.size());
    key.append(module).push_back('\0');
    key.append(name);
    std::unique_lock lk(mu_);
    const auto it = by_module_name_.find(key);
    return it != by_module_name_.end() ? it->second : kInvalidFunc;
}

const FunctionInfo& Registry::info(FuncId f) const { return func_impl(f).info; }

std::size_t Registry::function_count() const {
    return count_.load(std::memory_order_acquire);
}

std::vector<FuncId> Registry::functions_with(std::uint32_t all_of) const {
    std::unique_lock lk(mu_);
    const std::uint32_t n = count_.load(std::memory_order_acquire);
    std::vector<FuncId> out;
    for (std::uint32_t i = 0; i < n; ++i)
        if ((func_impl(i).info.categories & all_of) == all_of) out.push_back(i);
    return out;
}

std::vector<FuncId> Registry::functions_in_module(std::string_view module) const {
    std::unique_lock lk(mu_);
    const std::uint32_t n = count_.load(std::memory_order_acquire);
    std::vector<FuncId> out;
    for (std::uint32_t i = 0; i < n; ++i)
        if (func_impl(i).info.module == module) out.push_back(i);
    return out;
}

std::vector<std::string> Registry::modules() const {
    std::unique_lock lk(mu_);
    const std::uint32_t n = count_.load(std::memory_order_acquire);
    std::set<std::string_view> seen;
    std::vector<std::string> out;
    for (std::uint32_t i = 0; i < n; ++i) {
        const std::string& m = func_impl(i).info.module;
        if (seen.insert(m).second) out.push_back(m);
    }
    return out;
}

Registry::FuncImpl& Registry::func_impl(FuncId f) const {
    if (f >= count_.load(std::memory_order_acquire))
        throw std::out_of_range("instr: bad FuncId");
    return *(chunks_[f >> kChunkShift].load(std::memory_order_relaxed) +
             (f & kChunkMask));
}

Registry::StatSlot& Registry::stat_slot() const {
    auto*& cache = t_stat_cache_storage;
    if (!cache)
        cache = new std::vector<std::pair<std::uint64_t, void*>>();  // leaked
    for (std::size_t i = 0; i < cache->size(); ++i) {
        if ((*cache)[i].first == reg_uid_) {
            if (i != 0) std::swap((*cache)[0], (*cache)[i]);
            return *static_cast<StatSlot*>((*cache)[0].second);
        }
    }
    std::unique_lock lk(slots_mu_);
    slots_.push_back(std::make_unique<StatSlot>());
    StatSlot* slot = slots_.back().get();
    lk.unlock();
    if (cache->size() >= kStatCacheMax) cache->pop_back();
    cache->insert(cache->begin(), {reg_uid_, slot});
    return *slot;
}

void Registry::retire(const SnippetVec* old) const {
    if (!old) return;
    std::lock_guard lk(retire_mu_);
    retired_.push_back(old);
    std::erase_if(retired_, [](const SnippetVec* v) {
        if (hazard_pinned(v)) return false;
        delete v;
        return true;
    });
}

SnippetHandle Registry::insert(FuncId f, Where w, Snippet s, bool prepend) {
    FuncImpl& fi = func_impl(f);
    const SnippetId id = next_snippet_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard lk(fi.write_mu);
    auto& pt = fi.points[static_cast<int>(w)];
    const SnippetVec* old = pt.head.load(std::memory_order_relaxed);
    auto* next = old ? new SnippetVec(*old) : new SnippetVec();
    if (prepend)
        next->insert(next->begin(), {id, std::move(s)});
    else
        next->emplace_back(id, std::move(s));
    pt.head.store(next, std::memory_order_seq_cst);
    retire(old);
    return SnippetHandle{f, w, id};
}

bool Registry::remove(const SnippetHandle& h) {
    if (!h.valid()) return false;
    FuncImpl& fi = func_impl(h.func);
    std::lock_guard lk(fi.write_mu);
    auto& pt = fi.points[static_cast<int>(h.where)];
    const SnippetVec* old = pt.head.load(std::memory_order_relaxed);
    if (!old) return false;
    const auto it = std::find_if(old->begin(), old->end(),
                                 [&](const auto& p) { return p.first == h.id; });
    if (it == old->end()) return false;
    const SnippetVec* next = nullptr;
    if (old->size() > 1) {
        auto* copy = new SnippetVec(*old);
        copy->erase(copy->begin() + (it - old->begin()));
        next = copy;
    }
    pt.head.store(next, std::memory_order_seq_cst);
    retire(old);
    return true;
}

std::size_t Registry::snippet_count(FuncId f, Where w) const {
    FuncImpl& fi = func_impl(f);
    // The write mutex keeps the current head alive (only a later writer
    // could retire it, and writers serialize on this mutex).
    std::lock_guard lk(fi.write_mu);
    const SnippetVec* v =
        fi.points[static_cast<int>(w)].head.load(std::memory_order_acquire);
    return v ? v->size() : 0;
}

void Registry::dispatch(FuncId f, Where w, CallContext& ctx) {
    FuncImpl& fi = func_impl(f);
    StatSlot& ss = stat_slot();
    // Single-writer shard: plain add, no RMW, no cross-thread line.
    ss.events.store(ss.events.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
    auto& pt = fi.points[static_cast<int>(w)];
    const SnippetVec* snap = pt.head.load(std::memory_order_acquire);
    if (!snap) return;  // uninstrumented: the whole fast path

    ctx.func = f;
    ctx.info = &fi.info;
    ctx.rank = t_current_rank;
    std::uint64_t ran = 0;

    HazardOwner& hz = t_hazard;
    if (!hz.rec) hz.rec = hazard_acquire_rec();
    if (hz.depth >= kHazardDepth) {
        // Pathological nesting (snippet dispatching inside a snippet
        // beyond kHazardDepth): fall back to a private copy made under
        // the write mutex.  Correct, just not lock-free.
        SnippetVec local;
        {
            std::lock_guard lk(fi.write_mu);
            const SnippetVec* cur = pt.head.load(std::memory_order_acquire);
            if (!cur) return;
            local = *cur;
        }
        for (const auto& [id, s] : local) {
            s(ctx);
            ++ran;
        }
    } else {
        std::atomic<const void*>& slot = hz.rec->slots[hz.depth];
        for (;;) {
            slot.store(snap, std::memory_order_seq_cst);
            const SnippetVec* cur = pt.head.load(std::memory_order_seq_cst);
            if (cur == snap) break;
            snap = cur;
            if (!snap) {
                slot.store(nullptr, std::memory_order_seq_cst);
                return;
            }
        }
        // Unpin on every exit, a throwing snippet's included: a slot left
        // set keeps its snapshot from ever being freed, and a depth left
        // raised starts every later dispatch on this thread a level deeper.
        struct Unpin {
            HazardOwner& hz;
            std::atomic<const void*>& slot;
            ~Unpin() {
                --hz.depth;
                slot.store(nullptr, std::memory_order_seq_cst);
            }
        } unpin{hz, slot};
        ++hz.depth;
        for (const auto& [id, s] : *snap) {
            s(ctx);
            ++ran;
        }
    }
    ss.executed.store(ss.executed.load(std::memory_order_relaxed) + ran,
                      std::memory_order_relaxed);
}

DispatchStats Registry::stats() const {
    std::lock_guard lk(slots_mu_);
    DispatchStats out;
    for (const auto& s : slots_) {
        out.events += s->events.load(std::memory_order_relaxed);
        out.snippets_executed += s->executed.load(std::memory_order_relaxed);
    }
    return out;
}

void Registry::reset_stats() {
    std::lock_guard lk(slots_mu_);
    for (const auto& s : slots_) {
        s->events.store(0, std::memory_order_relaxed);
        s->executed.store(0, std::memory_order_relaxed);
    }
}

FunctionGuard::FunctionGuard(Registry& reg, FuncId f) : FunctionGuard(reg, f, {}, {}) {}

FunctionGuard::FunctionGuard(Registry& reg, FuncId f, std::span<const std::int64_t> args,
                             std::span<const std::string_view> str_args)
    : reg_(reg) {
    if (CallTraceSink* sink = t_call_sink) {
        // Bitmap probe, not info(): with a sink installed every guarded
        // call pays this test, and the inner PMPI_/transport guards of a
        // single MPI_ call are the common case, not the boundary itself.
        if (reg.is_user_boundary(f)) {
            sink_ = sink;
            sink_info_ = &reg.info(f);
            detail::t_boundary_active = true;
            detail::t_boundary_payload.kind = 0;
            t0_ticks_ = util::ticks();
        }
    }
    ctx_.func = f;
    ctx_.args = args;
    ctx_.str_args = str_args;
    reg_.dispatch(f, Where::Entry, ctx_);
}

FunctionGuard::~FunctionGuard() {
    reg_.dispatch(ctx_.func, Where::Return, ctx_);
    if (sink_) {
        detail::t_boundary_active = false;
        sink_->on_boundary_call(*sink_info_, t_current_rank, t0_ticks_, util::ticks());
    }
}

}  // namespace m2p::instr
