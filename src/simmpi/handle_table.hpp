// HandleTable: append-only chunked storage for simmpi handles.
//
// The same pattern the instrumentation registry uses for its function
// table (src/instr/registry.cpp): slots live in fixed-size chunks whose
// addresses never move, and the element count is published with a
// release store, so a handle lookup is one acquire load plus two
// indexed loads -- no lock anywhere on the lookup path.  This is what
// lets every MPI call resolve its communicator, mailbox, window, and
// request handles without funnelling through a global mutex.
//
// Handles are small dense integers.  @p Base is the value of the first
// handle: 0 for rank-indexed tables (procs, mailboxes), 1 for MPI-style
// handles where 0 and negative values mean "null"/"invalid".
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <stdexcept>

namespace m2p::simmpi {

template <class T, std::int32_t Base = 1, std::size_t ChunkShift = 6>
class HandleTable {
public:
    static constexpr std::size_t kChunkShift = ChunkShift;
    static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;
    static constexpr std::size_t kChunkMask = kChunkSize - 1;
    static constexpr std::size_t kMaxChunks = 4096;  ///< 256Ki slots at shift 6

    HandleTable() = default;
    ~HandleTable() {
        for (auto& c : chunks_) delete[] c.load(std::memory_order_relaxed);
    }
    HandleTable(const HandleTable&) = delete;
    HandleTable& operator=(const HandleTable&) = delete;

    /// Appends one slot and returns its handle.  @p init runs on the
    /// slot before the handle is published, so lock-free readers never
    /// observe a half-initialized entry.  Appends serialize on an
    /// internal writer mutex; lookups are never blocked by them.
    template <class Init>
    std::int32_t append(Init&& init) {
        std::lock_guard lk(append_mu_);
        const std::uint32_t idx = count_.load(std::memory_order_relaxed);
        const std::size_t chunk = idx >> kChunkShift;
        if (chunk >= kMaxChunks) throw std::length_error("simmpi: handle table full");
        T* base = chunks_[chunk].load(std::memory_order_relaxed);
        if (!base) {
            base = new T[kChunkSize];
            chunks_[chunk].store(base, std::memory_order_release);
        }
        const std::int32_t handle = Base + static_cast<std::int32_t>(idx);
        init(base[idx & kChunkMask], handle);
        count_.store(idx + 1, std::memory_order_release);
        return handle;
    }

    /// Lock-free lookup; nullptr when the handle was never issued.
    /// (The chunk pointer may be read relaxed: it was stored before the
    /// count_ release that made this index visible.)
    T* find(std::int32_t h) const {
        const std::int64_t idx = static_cast<std::int64_t>(h) - Base;
        if (idx < 0 ||
            idx >= static_cast<std::int64_t>(count_.load(std::memory_order_acquire)))
            return nullptr;
        T* base = chunks_[static_cast<std::size_t>(idx) >> kChunkShift].load(
            std::memory_order_relaxed);
        return base + (static_cast<std::size_t>(idx) & kChunkMask);
    }

    /// Lookup that throws std::out_of_range (message @p what) on a
    /// handle that was never issued.
    T& at(std::int32_t h, const char* what) const {
        T* p = find(h);
        if (!p) throw std::out_of_range(what);
        return *p;
    }

    std::size_t size() const { return count_.load(std::memory_order_acquire); }

private:
    std::atomic<T*> chunks_[kMaxChunks]{};
    std::atomic<std::uint32_t> count_{0};
    std::mutex append_mu_;
};

}  // namespace m2p::simmpi
