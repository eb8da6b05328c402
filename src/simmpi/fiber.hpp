/// \file fiber.hpp
/// Stackful fibers for simmpi rank bodies (DESIGN.md section 12).
///
/// A Fiber is a call stack plus a saved machine context.  The
/// scheduler (sched.hpp) multiplexes many fibers over a small pool of
/// OS worker threads: a rank that would have blocked its own thread
/// instead parks its fiber and the worker picks up the next runnable
/// one.  This is what lets simmpi run 256-1024 ranks in one process.
///
/// The context switch itself is a hand-rolled fcontext-style swap on
/// x86-64 (callee-saved registers + mxcsr/x87 control word pushed to
/// the fiber stack, stack pointers exchanged), with a ucontext
/// fallback elsewhere.  Stacks are mmap'd with a PROT_NONE guard page
/// below the usable range so an overflow faults instead of silently
/// corrupting a neighbour.
///
/// Sanitizer support: ASan and TSan both need to be told about stack
/// switches (__sanitizer_start/finish_switch_fiber, __tsan_*_fiber);
/// the hooks are declared locally in fiber.cpp and compiled in only
/// under the matching sanitizer so the plain build stays clean.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

#include "instr/registry.hpp"

namespace m2p::simmpi::sched {

class CpuAccount;
class Scheduler;
class WaitToken;
struct Worker;

/// Why a fiber handed control back to its worker.
enum class SwitchOp : std::uintptr_t {
    None = 0,
    Park = 1,      ///< blocked on a WaitToken; scheduler finalizes the park
    Yield = 2,     ///< cooperative timeslice; requeue immediately
    Finished = 3,  ///< body returned; release the stack
};

/// Machine context + sanitizer bookkeeping for one side of a switch.
/// The worker's scheduler loop owns one of these too (with no stack of
/// its own -- it runs on the OS thread stack).
struct StackContext {
    void* sp = nullptr;  ///< saved stack pointer (asm) / ucontext_t* (fallback)
    void* fake_stack = nullptr;    ///< ASan fake-stack save slot
    void* tsan_fiber = nullptr;    ///< TSan fiber handle
    const void* stack_bottom = nullptr;  ///< usable range for sanitizers
    std::size_t stack_size = 0;
};

class Fiber {
public:
    using Body = std::function<void()>;

    /// Allocates the stack and seeds the initial context so the first
    /// resume lands in the entry thunk.  Does not run anything.
    Fiber(Scheduler* sched, Body body, std::size_t stack_bytes);
    ~Fiber();

    Fiber(const Fiber&) = delete;
    Fiber& operator=(const Fiber&) = delete;

    /// The fiber's wait token: the single handle every blocking site
    /// registers to be woken through.  Shared ownership so waiter
    /// lists can outlive a racing abandon without dangling.
    const std::shared_ptr<WaitToken>& token() const { return token_; }

    Scheduler* scheduler() const { return sched_; }

    /// The account charged this fiber's slices, or null.
    CpuAccount* cpu_account() const { return cpu_; }

    /// slice_clock_ns() stamp taken at the current slice's switch-in;
    /// valid only while the fiber is running.
    std::int64_t slice_cpu_start() const { return slice_cpu_start_; }

    /// Hand control back to the worker.  Must be called on this
    /// fiber's own stack; returns when the scheduler resumes it.
    void suspend(SwitchOp op);

    /// Bumps and returns the maybe_yield() stride counter.  Only the
    /// worker currently running the fiber may call this.
    std::uint32_t next_dispatch() { return ++dispatch_count_; }

    /// First-entry landing point; internal (reached from the switch
    /// thunk), public only because extern "C" glue cannot be a friend.
    static void entry(Fiber* f);

    /// Unmap the stack early (at finish) so 1024 finished ranks don't
    /// hold 256 MiB of dead stacks until scheduler teardown.  The
    /// Fiber object itself stays alive for stray-pointer safety.
    void release_stack();

private:
    friend class Scheduler;
    friend class WaitToken;

    Scheduler* sched_;
    Body body_;
    StackContext ctx_;
    void* stack_base_ = nullptr;  ///< mmap base (includes guard page)
    std::size_t stack_total_ = 0;
    std::shared_ptr<WaitToken> token_;

    /// The current park's deadline in steady_clock nanoseconds (int64
    /// max: no timer).  Stored by park_until before it announces
    /// Parking; read lock-free by the deadline sweeper for any fiber it
    /// finds Parked.
    std::atomic<std::int64_t> park_deadline_ns_{0};

    // Scheduler-side per-slice state (touched only by the worker that
    // currently runs the fiber).
    std::uint32_t dispatch_count_ = 0;  ///< maybe_yield() stride counter
    std::int64_t slice_cpu_start_ = 0;
    CpuAccount* cpu_ = nullptr;
    instr::ThreadContext ictx_{};  ///< instr TLS migrated with the fiber
};

/// Fill in the sanitizer-side identity of a worker's scheduler context
/// (its TSan fiber handle and, under ASan, the OS thread stack bounds
/// needed to annotate switches back onto it).
void init_worker_context(StackContext& ctx);

}  // namespace m2p::simmpi::sched
