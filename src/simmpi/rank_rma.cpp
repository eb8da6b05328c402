// MPI-2 features of simmpi: one-sided communication, dynamic process
// creation, and object naming -- the features the paper adds tool
// support for.
#include <algorithm>
#include <chrono>
#include <cstring>

#include "simmpi/rank.hpp"
#include "simmpi/sched.hpp"

namespace m2p::simmpi {

namespace {

bool contains(const std::vector<int>& v, int x) {
    return std::find(v.begin(), v.end(), x) != v.end();
}

std::int64_t as_arg(const void* p) {
    return static_cast<std::int64_t>(reinterpret_cast<std::uintptr_t>(p));
}

std::int64_t ns_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/// Grants the lock to the longest eligible prefix of the FIFO waiter
/// queue: the head waiter if it wants exclusive access (and no shared
/// holders remain), or every consecutive shared waiter at the head.
/// Caller holds the shard mutex; returned waiters must be signalled
/// after it is released.
std::vector<std::shared_ptr<LockWaiter>> grant_passive_locked(PassiveLock& pl) {
    std::vector<std::shared_ptr<LockWaiter>> out;
    if (pl.waiters.empty() || pl.exclusive_holder != -1) return out;
    if (pl.waiters.front()->lock_type == MPI_LOCK_EXCLUSIVE) {
        if (!pl.shared_holders.empty()) return out;
        auto head = pl.waiters.front();
        pl.waiters.pop_front();
        head->granted = true;
        pl.exclusive_holder = head->origin;
        out.push_back(std::move(head));
        return out;
    }
    while (!pl.waiters.empty() && pl.waiters.front()->lock_type == MPI_LOCK_SHARED) {
        auto head = pl.waiters.front();
        pl.waiters.pop_front();
        head->granted = true;
        pl.shared_holders.push_back(head->origin);
        out.push_back(std::move(head));
    }
    return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Epoch-batched Table-1 accounting
// ---------------------------------------------------------------------------

/// Sync-call epilogue: constructed after argument validation in each
/// RMA synchronization body, it times the call and -- exactly once per
/// sync call, including error and fault-unwind exits -- flushes the
/// origin's staged op/byte counters and the measured wait into the
/// window's tool-visible counters.
class Rank::RmaSyncScope {
public:
    RmaSyncScope(Rank& r, const char* call, Win win, bool passive)
        : r_(r),
          call_(call),
          win_(win),
          passive_(passive),
          t0_(std::chrono::steady_clock::now()) {}
    RmaSyncScope(const RmaSyncScope&) = delete;
    RmaSyncScope& operator=(const RmaSyncScope&) = delete;
    ~RmaSyncScope() { r_.rma_sync_flush(win_, call_, passive_, ns_since(t0_)); }

private:
    Rank& r_;
    const char* call_;
    Win win_;
    bool passive_;
    std::chrono::steady_clock::time_point t0_;
};

void Rank::rma_sync_flush(Win win, const char* call, bool passive,
                          std::int64_t wait_ns) {
    // Handle-table slots persist after MPI_Win_free, so flushing is
    // safe for freed windows (tools read final totals there too).
    WinCounters& c = world_.win(win).counters;
    const auto it = rma_stage_.find(win);
    if (it != rma_stage_.end()) {
        const RmaStage& s = it->second;
        if (s.put_ops) c.put_ops.fetch_add(s.put_ops, std::memory_order_acq_rel);
        if (s.get_ops) c.get_ops.fetch_add(s.get_ops, std::memory_order_acq_rel);
        if (s.acc_ops) c.acc_ops.fetch_add(s.acc_ops, std::memory_order_acq_rel);
        if (s.put_bytes) c.put_bytes.fetch_add(s.put_bytes, std::memory_order_acq_rel);
        if (s.get_bytes) c.get_bytes.fetch_add(s.get_bytes, std::memory_order_acq_rel);
        if (s.acc_bytes) c.acc_bytes.fetch_add(s.acc_bytes, std::memory_order_acq_rel);
        const std::int64_t ops = s.put_ops + s.get_ops + s.acc_ops;
        const std::int64_t bytes = s.put_bytes + s.get_bytes + s.acc_bytes;
        world_.trace_event(trace::EventKind::RmaBatch, global_, call, ops, bytes, win);
        rma_stage_.erase(it);
    }
    c.sync_ops.fetch_add(1, std::memory_order_acq_rel);
    if (wait_ns > 0) {
        (passive ? c.pt_sync_wait_ns : c.at_sync_wait_ns)
            .fetch_add(wait_ns, std::memory_order_acq_rel);
    }
    world_.trace_event(trace::EventKind::RmaEpoch, global_, call, win, wait_ns,
                       passive ? 1 : 0);
}

void Rank::rma_flush_all_stages() {
    for (const auto& [win, s] : rma_stage_) {
        WinCounters& c = world_.win(win).counters;
        if (s.put_ops) c.put_ops.fetch_add(s.put_ops, std::memory_order_acq_rel);
        if (s.get_ops) c.get_ops.fetch_add(s.get_ops, std::memory_order_acq_rel);
        if (s.acc_ops) c.acc_ops.fetch_add(s.acc_ops, std::memory_order_acq_rel);
        if (s.put_bytes) c.put_bytes.fetch_add(s.put_bytes, std::memory_order_acq_rel);
        if (s.get_bytes) c.get_bytes.fetch_add(s.get_bytes, std::memory_order_acq_rel);
        if (s.acc_bytes) c.acc_bytes.fetch_add(s.acc_bytes, std::memory_order_acq_rel);
        world_.trace_event(trace::EventKind::RmaBatch, global_, "rma_flush_all",
                           s.put_ops + s.get_ops + s.acc_ops,
                           s.put_bytes + s.get_bytes + s.acc_bytes, win);
    }
    rma_stage_.clear();
}

// ---------------------------------------------------------------------------
// Window lifetime
// ---------------------------------------------------------------------------

int Rank::MPI_Win_create(void* base, std::int64_t size, int disp_unit, Info info,
                         Comm c, Win* win) {
    // args[5] is filled with the new window handle before the return
    // point fires, so the tool's window-discovery snippet (inserted at
    // the function return, paper section 4.2.1) can read it.
    std::int64_t a[] = {as_arg(base), size, disp_unit, info, c, 0};
    instr::FunctionGuard g(world_.registry(), world_.fids().MPI_Win_create, a);
    fault_point("MPI_Win_create");
    const int rc = PMPI_Win_create(base, size, disp_unit, info, c, win);
    if (rc == MPI_SUCCESS) a[5] = *win;
    return rc;
}

int Rank::PMPI_Win_create(void* base, std::int64_t size, int disp_unit, Info info,
                          Comm c, Win* win) {
    std::int64_t a[] = {as_arg(base), size, disp_unit, info, c, 0};
    instr::FunctionGuard g(world_.registry(), world_.fids().PMPI_Win_create, a);
    if (!win) return MPI_ERR_ARG;
    if (size < 0 || disp_unit <= 0) return MPI_ERR_ARG;
    if (!world_.comm_valid(c)) return MPI_ERR_COMM;
    CommData& cd = world_.comm(c);
    if (cd.is_inter) return MPI_ERR_COMM;
    const int me = my_rank_in(cd);

    // Window creation is collective; the barriers below are where the
    // synchronization overhead of a late-arriving process shows up
    // (paper Fig 1, top left).
    const auto t0 = std::chrono::steady_clock::now();
    if (!barrier_internal(cd)) return comm_error(c, coll_fail_code(cd));
    if (me == 0) {
        cd.win_result = world_.create_win(c);
        if (world_.flavor() == Flavor::Lam) {
            // LAM's MPI_Win structure contains a communicator created
            // with the window; window names are stored there, which is
            // why named windows also appear under /SyncObject/Message
            // in the paper's Fig 23.
            world_.win(cd.win_result).shadow_comm = world_.create_comm(cd.group);
        }
    }
    if (!barrier_internal(cd)) return comm_error(c, coll_fail_code(cd));
    const Win h = cd.win_result;
    {
        // Each member populates its own shard.  The map mutates only
        // here, between the handle rendezvous and the final creation
        // barrier: every later shard() lookup happens-after all
        // inserts, so the read side needs no lock.
        WinData& w = world_.win(h);
        std::lock_guard lk(w.mu);
        WinShard& sh = w.shards[global_];
        sh.has_member = true;
        sh.member = WinMember{static_cast<std::byte*>(base), size, disp_unit};
        member_wins_.push_back(h);
    }
    if (!barrier_internal(cd)) return comm_error(c, coll_fail_code(cd));
    *win = h;
    a[5] = h;
    // MPI_Win_create is part of the general RMA synchronization metric
    // (paper section 4.2.1); charge it now that the handle exists.
    rma_sync_flush(h, "MPI_Win_create", /*passive=*/false, ns_since(t0));
    return MPI_SUCCESS;
}

int Rank::MPI_Win_free(Win* win) {
    const std::int64_t a[] = {win ? *win : MPI_WIN_NULL};
    instr::FunctionGuard g(world_.registry(), world_.fids().MPI_Win_free, a);
    fault_point("MPI_Win_free");
    return PMPI_Win_free(win);
}

int Rank::PMPI_Win_free(Win* win) {
    const std::int64_t a[] = {win ? *win : MPI_WIN_NULL};
    instr::FunctionGuard g(world_.registry(), world_.fids().PMPI_Win_free, a);
    if (!win) return MPI_ERR_ARG;
    if (!world_.win_valid(*win)) return MPI_ERR_WIN;
    WinData& w = world_.win(*win);
    CommData& cd = world_.comm(w.comm);
    RmaSyncScope sync(*this, "MPI_Win_free", *win, /*passive=*/false);
    // MPI-2 makes a free erroneous only while one of the caller's own
    // epochs on the window is open: a lock it holds, an access epoch
    // (MPI_Win_start), or an exposure epoch it has not waited for.
    // Other members' epochs are the barrier's business: it returns only
    // once every member has called free, i.e. finished its RMA here.
    if (const auto it = held_locks_.find(*win);
        (it != held_locks_.end() && !it->second.empty()) || start_epochs_.count(*win))
        return MPI_ERR_WIN;
    if (WinShard* own = w.shard(global_)) {
        std::lock_guard lk(own->mu);
        if (own->exposure.exposed) return MPI_ERR_WIN;
    }
    // The MPI-2 standard requires barrier semantics here (paper
    // section 4.2.1: MPI_Win_free belongs in the general RMA
    // synchronization metric for exactly this reason).
    if (!barrier_internal(cd)) return comm_error(w.comm, coll_fail_code(cd));
    if (my_rank_in(cd) == 0) {
        w.freed = true;
        world_.release_win_impl_id(w.impl_id);
        // A lock after free is erroneous; such lockers park with a
        // freed-window liveness check, but drain them eagerly anyway:
        // hand each an explicit abort verdict.
        std::vector<std::shared_ptr<LockWaiter>> aborted;
        for (auto& [gr, sh] : w.shards) {
            std::lock_guard lk(sh.mu);
            for (auto& lw : sh.lock.waiters) {
                lw->aborted = true;
                aborted.push_back(lw);
            }
            sh.lock.waiters.clear();
        }
        for (auto& lw : aborted) lw->token->signal();
    }
    if (!barrier_internal(cd)) return comm_error(w.comm, coll_fail_code(cd));
    *win = MPI_WIN_NULL;
    return MPI_SUCCESS;
}

// ---------------------------------------------------------------------------
// Active-target synchronization
// ---------------------------------------------------------------------------

int Rank::MPI_Win_fence(int assert, Win win) {
    const std::int64_t a[] = {assert, win};
    instr::FunctionGuard g(world_.registry(), world_.fids().MPI_Win_fence, a);
    fault_point("MPI_Win_fence");
    return PMPI_Win_fence(assert, win);
}

int Rank::PMPI_Win_fence(int assert, Win win) {
    const std::int64_t a[] = {assert, win};
    instr::FunctionGuard g(world_.registry(), world_.fids().PMPI_Win_fence, a);
    if (!world_.win_valid(win)) return MPI_ERR_WIN;
    WinData& w = world_.win(win);
    CommData& cd = world_.comm(w.comm);
    RmaSyncScope sync(*this, "MPI_Win_fence", win, /*passive=*/false);
    // Checked before the closing-arrival bookkeeping: a post-revoke
    // fence must never close the fence and wave the parked ranks
    // through with MPI_SUCCESS.
    if (comm_revoked(cd)) return comm_error(w.comm, MPI_ERR_REVOKED);
    const int n = static_cast<int>(cd.group.size());
    if (n <= 1) return MPI_SUCCESS;

    if (world_.flavor() == Flavor::Lam) {
        // LAM implements MPI_Win_fence with nonblocking message
        // passing plus MPI_Barrier: the paper observes both the
        // Message (Fig 24) and Barrier (Fig 22) sync objects showing
        // up under a fence bottleneck with LAM.
        const int me = my_rank_in(cd);
        const int tag = next_coll_tag(w.comm);
        int tok = 0, tok2 = 0;
        Request rq = MPI_REQUEST_NULL;
        Status st;
        // Any failure in the token ring (a neighbor died or the wait
        // timed out) is remapped to the collective-failure code so all
        // survivors of a faulted fence observe the same error.
        int rc = PMPI_Isend(&tok, 1, MPI_INT, (me + 1) % n, tag, w.comm, &rq);
        if (rc != MPI_SUCCESS) return comm_error(w.comm, coll_fail_code(cd));
        rc = PMPI_Recv(&tok2, 1, MPI_INT, (me - 1 + n) % n, tag, w.comm, &st);
        if (rc != MPI_SUCCESS) return comm_error(w.comm, coll_fail_code(cd));
        rc = PMPI_Waitall(1, &rq, &st);
        if (rc != MPI_SUCCESS) return comm_error(w.comm, coll_fail_code(cd));
        return PMPI_Barrier(w.comm);
    }
    // MPICH2: internal fence counter; the waiting time is charged to
    // MPI_Win_fence itself.  The closing arrival wakes every parked
    // rank in one batch -- no lock, no shared condition variable.
    WaitDeadline deadline = wait_deadline("PMPI_Win_fence");
    const bool closed = w.fence.arrive_and_wait(
        static_cast<std::size_t>(my_rank_in(cd)),
        [&] {
            return world_.poisoned() || comm_revoked(cd) ||
                   (world_.death_epoch() != 0 && world_.comm_has_dead_member(cd)) ||
                   deadline.expired();
        },
        deadline);
    if (closed) return MPI_SUCCESS;
    // Withdrawn from the fence, so a later (post-fault) fence over the
    // survivors is not off by one.
    check_poisoned();
    return comm_error(w.comm, coll_fail_code(cd));
}

int Rank::MPI_Win_start(Group grp, int assert, Win win) {
    const std::int64_t a[] = {grp, assert, win};
    instr::FunctionGuard g(world_.registry(), world_.fids().MPI_Win_start, a);
    fault_point("MPI_Win_start");
    return PMPI_Win_start(grp, assert, win);
}

/// Blocks until @p target's exposure epoch is open to this origin and
/// marks the origin started in it.  Origins park on per-origin tokens
/// registered in the shard's post_waiters; MPI_Win_post signals each
/// exactly once.  A wakeup that does not satisfy this origin (a post
/// for a group excluding it) re-registers and parks again.
int Rank::rma_wait_exposure(WinData& w, WinShard& sh, int target) {
    WaitDeadline deadline = wait_deadline("rma_wait_exposure");
    CommData& cd = world_.comm(w.comm);
    for (;;) {
        std::shared_ptr<DeliveryToken> tok;
        {
            std::lock_guard lk(sh.mu);
            Exposure& e = sh.exposure;
            if (e.exposed && contains(e.group, global_) &&
                !contains(e.started, global_)) {
                e.started.push_back(global_);
                return MPI_SUCCESS;
            }
            tok = std::make_shared<DeliveryToken>();
            e.post_waiters.push_back(tok);
        }
        const bool signalled = tok->wait_or_abandon(
            [&] {
                return world_.poisoned() || comm_revoked(cd) ||
                       (world_.death_epoch() != 0 &&
                        world_.rank_unreachable(target)) ||
                       deadline.expired();
            },
            deadline);
        if (!signalled) {
            bool withdrawn = false;
            {
                std::lock_guard lk(sh.mu);
                auto& pw = sh.exposure.post_waiters;
                const auto it = std::find(pw.begin(), pw.end(), tok);
                if (it != pw.end()) {
                    pw.erase(it);
                    withdrawn = true;
                }
                // else a post raced the abandon decision; loop and
                // re-check.
            }
            if (withdrawn) {
                // sh.mu is released: check_poisoned/comm_error may
                // re-enter the shard mutexes via rma_detach_all.
                check_poisoned();
                return comm_error(w.comm, coll_fail_code(cd));
            }
        }
    }
}

int Rank::PMPI_Win_start(Group grp, int assert, Win win) {
    const std::int64_t a[] = {grp, assert, win};
    instr::FunctionGuard g(world_.registry(), world_.fids().PMPI_Win_start, a);
    if (!world_.win_valid(win)) return MPI_ERR_WIN;
    if (!world_.group_valid(grp)) return MPI_ERR_GROUP;
    if (start_epochs_.count(win)) return MPI_ERR_WIN;  // already in an access epoch
    WinData& w = world_.win(win);
    RmaSyncScope sync(*this, "MPI_Win_start", win, /*passive=*/false);
    const std::vector<int> targets = world_.group(grp).global_ranks;
    start_epochs_[win] = targets;
    if (world_.flavor() == Flavor::Mpich) return MPI_SUCCESS;  // defers to complete

    // LAM blocks in MPI_Win_start until the matching MPI_Win_post has
    // executed on every target -- one of the two placements the MPI-2
    // standard allows, and the source of the per-implementation
    // differences in the paper's winscpwsync findings (Fig 21).
    for (int t : targets) {
        WinShard* sh = w.shard(t);
        if (!sh) {
            start_epochs_.erase(win);
            return MPI_ERR_RANK;
        }
        if (const int rc = rma_wait_exposure(w, *sh, t); rc != MPI_SUCCESS) {
            // A target that will never post: abandon the access epoch
            // so a retry does not see it half-open.
            start_epochs_.erase(win);
            return rc;
        }
    }
    return MPI_SUCCESS;
}

int Rank::MPI_Win_complete(Win win) {
    const std::int64_t a[] = {win};
    instr::FunctionGuard g(world_.registry(), world_.fids().MPI_Win_complete, a);
    fault_point("MPI_Win_complete");
    return PMPI_Win_complete(win);
}

int Rank::PMPI_Win_complete(Win win) {
    const std::int64_t a[] = {win};
    instr::FunctionGuard g(world_.registry(), world_.fids().PMPI_Win_complete, a);
    if (!world_.win_valid(win)) return MPI_ERR_WIN;
    const auto it = start_epochs_.find(win);
    if (it == start_epochs_.end()) return MPI_ERR_WIN;
    const std::vector<int> targets = it->second;
    start_epochs_.erase(it);

    WinData& w = world_.win(win);
    RmaSyncScope sync(*this, "MPI_Win_complete", win, /*passive=*/false);
    for (int t : targets) {
        WinShard* sh = w.shard(t);
        if (!sh) return MPI_ERR_RANK;
        if (world_.flavor() == Flavor::Mpich) {
            // MPICH2 deferred the post-wait to here; flush this
            // origin's staged transfers once the target's exposure
            // epoch is open.
            if (const int rc = rma_wait_exposure(w, *sh, t); rc != MPI_SUCCESS)
                return rc;
        }
        std::shared_ptr<DeliveryToken> wake;
        {
            std::lock_guard lk(sh->mu);
            Exposure& e = sh->exposure;
            if (world_.flavor() == Flavor::Mpich) {
                auto& ops = sh->staged;
                for (auto op_it = ops.begin(); op_it != ops.end();) {
                    if (op_it->origin_global != global_) {
                        ++op_it;
                        continue;
                    }
                    const WinMember& m = sh->member;
                    std::byte* at = m.base + op_it->target_disp * m.disp_unit;
                    switch (op_it->kind) {
                        case PendingRmaOp::Kind::Put:
                            std::memcpy(at, op_it->payload.data(), op_it->payload.size());
                            break;
                        case PendingRmaOp::Kind::Get:
                            // Single copy: the target bytes land in the
                            // origin buffer here, on the origin's own
                            // thread -- no payload staging for gets.
                            std::memcpy(op_it->origin_addr, at,
                                        static_cast<std::size_t>(op_it->nbytes));
                            break;
                        case PendingRmaOp::Kind::Accumulate:
                            reduce_combine(at, op_it->payload.data(),
                                           static_cast<int>(op_it->nbytes /
                                                            datatype_size(op_it->dt)),
                                           op_it->dt, op_it->op);
                            break;
                    }
                    op_it = ops.erase(op_it);
                }
            }
            ++e.completes;
            // Hand the target's wait token over (if it is parked); the
            // waiter re-checks its predicate and re-registers when the
            // epoch is not yet fully completed.
            wake = std::move(e.wait_token);
            e.wait_token = nullptr;
        }
        if (wake) wake->signal();
    }
    return MPI_SUCCESS;
}

int Rank::MPI_Win_post(Group grp, int assert, Win win) {
    const std::int64_t a[] = {grp, assert, win};
    instr::FunctionGuard g(world_.registry(), world_.fids().MPI_Win_post, a);
    fault_point("MPI_Win_post");
    return PMPI_Win_post(grp, assert, win);
}

int Rank::PMPI_Win_post(Group grp, int assert, Win win) {
    const std::int64_t a[] = {grp, assert, win};
    instr::FunctionGuard g(world_.registry(), world_.fids().PMPI_Win_post, a);
    if (!world_.win_valid(win)) return MPI_ERR_WIN;
    if (!world_.group_valid(grp)) return MPI_ERR_GROUP;
    WinData& w = world_.win(win);
    WinShard* sh = w.shard(global_);
    if (!sh) return MPI_ERR_WIN;
    std::vector<std::shared_ptr<DeliveryToken>> wake;
    {
        std::lock_guard lk(sh->mu);
        Exposure& e = sh->exposure;
        if (e.exposed) return MPI_ERR_WIN;  // exposure epoch already open
        e.exposed = true;
        e.group = world_.group(grp).global_ranks;
        e.started.clear();
        e.completes = 0;
        wake.swap(e.post_waiters);
    }
    // Each parked origin gets exactly one targeted signal; origins the
    // new epoch does not admit re-park on a fresh token.
    for (auto& t : wake) t->signal();
    return MPI_SUCCESS;
}

int Rank::MPI_Win_wait(Win win) {
    const std::int64_t a[] = {win};
    instr::FunctionGuard g(world_.registry(), world_.fids().MPI_Win_wait, a);
    fault_point("MPI_Win_wait");
    return PMPI_Win_wait(win);
}

int Rank::PMPI_Win_wait(Win win) {
    const std::int64_t a[] = {win};
    instr::FunctionGuard g(world_.registry(), world_.fids().PMPI_Win_wait, a);
    if (!world_.win_valid(win)) return MPI_ERR_WIN;
    WinData& w = world_.win(win);
    CommData& cd = world_.comm(w.comm);
    WinShard* sh = w.shard(global_);
    if (!sh) return MPI_ERR_WIN;
    RmaSyncScope sync(*this, "MPI_Win_wait", win, /*passive=*/false);
    // Blocks until all origins in the post group have completed --
    // "MPI_Win_wait will block until all outstanding MPI_Win_complete
    // calls have been issued" (paper section 4.2.1).  The target parks
    // on its own token; each MPI_Win_complete hands it back for a
    // re-check, the last one satisfies it.
    WaitDeadline deadline = wait_deadline("PMPI_Win_wait");
    std::vector<int> post_group;
    for (;;) {
        std::shared_ptr<DeliveryToken> tok;
        {
            std::lock_guard lk(sh->mu);
            Exposure& e = sh->exposure;
            if (!e.exposed) return MPI_ERR_WIN;  // no matching MPI_Win_post
            if (e.completes >= static_cast<int>(e.group.size())) {
                e.exposed = false;
                e.started.clear();
                e.completes = 0;
                e.wait_token = nullptr;
                return MPI_SUCCESS;
            }
            post_group = e.group;
            tok = std::make_shared<DeliveryToken>();
            e.wait_token = tok;
        }
        const bool signalled = tok->wait_or_abandon(
            [&] {
                return world_.poisoned() || comm_revoked(cd) ||
                       (world_.death_epoch() != 0 && world_.any_dead(post_group)) ||
                       deadline.expired();
            },
            deadline);
        if (!signalled) {
            bool withdrawn = false;
            {
                std::lock_guard lk(sh->mu);
                if (sh->exposure.wait_token == tok) {
                    sh->exposure.wait_token = nullptr;
                    withdrawn = true;
                }
                // else a complete raced the abandon decision; loop and
                // re-check.
            }
            if (withdrawn) {
                // sh->mu is released: check_poisoned/comm_error may
                // re-enter the shard mutexes via rma_detach_all.
                check_poisoned();
                return comm_error(w.comm, coll_fail_code(cd));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Passive-target synchronization
// ---------------------------------------------------------------------------

int Rank::MPI_Win_lock(int lock_type, int rank, int assert, Win win) {
    const std::int64_t a[] = {lock_type, rank, assert, win};
    instr::FunctionGuard g(world_.registry(), world_.fids().MPI_Win_lock, a);
    fault_point("MPI_Win_lock");
    return PMPI_Win_lock(lock_type, rank, assert, win);
}

int Rank::PMPI_Win_lock(int lock_type, int rank, int assert, Win win) {
    const std::int64_t a[] = {lock_type, rank, assert, win};
    instr::FunctionGuard g(world_.registry(), world_.fids().PMPI_Win_lock, a);
    if (lock_type != MPI_LOCK_EXCLUSIVE && lock_type != MPI_LOCK_SHARED)
        return MPI_ERR_LOCKTYPE;
    if (!world_.win_valid(win)) return MPI_ERR_WIN;
    WinData& w = world_.win(win);
    CommData& cd = world_.comm(w.comm);
    if (rank < 0 || static_cast<std::size_t>(rank) >= cd.group.size())
        return MPI_ERR_RANK;
    const int target = cd.group[static_cast<std::size_t>(rank)];
    if (comm_revoked(cd)) return comm_error(w.comm, MPI_ERR_REVOKED);
    if (world_.death_epoch() != 0 && world_.rank_dead(target))
        return comm_error(w.comm, MPI_ERR_RANK);
    WinShard* sh = w.shard(target);
    if (!sh) return MPI_ERR_RANK;
    RmaSyncScope sync(*this, "MPI_Win_lock", win, /*passive=*/true);
    std::shared_ptr<LockWaiter> me;
    {
        std::lock_guard lk(sh->mu);
        PassiveLock& pl = sh->lock;
        // Immediate grant only when compatible AND nobody is queued:
        // an empty queue keeps the fast path one mutex hop; a
        // non-empty one means jumping it would starve the head waiter.
        const bool compatible = lock_type == MPI_LOCK_EXCLUSIVE
                                    ? !pl.held()
                                    : pl.exclusive_holder == -1;
        if (compatible && pl.waiters.empty()) {
            if (lock_type == MPI_LOCK_EXCLUSIVE)
                pl.exclusive_holder = global_;
            else
                pl.shared_holders.push_back(global_);
            held_locks_[win].push_back(target);
            return MPI_SUCCESS;
        }
        me = std::make_shared<LockWaiter>();
        me->origin = global_;
        me->lock_type = lock_type;
        pl.waiters.push_back(me);
    }
    WaitDeadline deadline = wait_deadline("PMPI_Win_lock");
    const auto doomed = [&] {
        if (world_.poisoned()) return true;
        if (comm_revoked(cd)) return true;
        if (w.freed.load(std::memory_order_acquire)) return true;
        if (deadline.expired()) return true;
        if (world_.death_epoch() != 0) {
            if (world_.rank_dead(target)) return true;
            // A holder that died with the lock held will never unlock.
            std::lock_guard lk(sh->mu);
            const PassiveLock& pl = sh->lock;
            if (pl.exclusive_holder != -1 && world_.rank_dead(pl.exclusive_holder))
                return true;
            if (world_.any_dead(pl.shared_holders)) return true;
        }
        return false;
    };
    const bool signalled = me->token->wait_or_abandon(doomed, deadline);
    if (!signalled) {
        bool withdrawn = false;
        bool holder_died = false;
        {
            std::lock_guard lk(sh->mu);
            if (!me->granted && !me->aborted) {
                auto& q = sh->lock.waiters;
                const auto it = std::find(q.begin(), q.end(), me);
                if (it != q.end()) q.erase(it);
                withdrawn = true;
                holder_died = world_.rank_dead(target);
                if (!holder_died && world_.death_epoch() != 0) {
                    const PassiveLock& pl = sh->lock;
                    holder_died = (pl.exclusive_holder != -1 &&
                                   world_.rank_dead(pl.exclusive_holder)) ||
                                  world_.any_dead(pl.shared_holders);
                }
            }
            // else the grant (or abort) raced the abandon decision;
            // fall through to read the verdict.
        }
        if (withdrawn) {
            // sh->mu is released: check_poisoned/comm_error may
            // re-enter the shard mutexes via rma_detach_all.
            check_poisoned();
            if (comm_revoked(cd)) return comm_error(w.comm, MPI_ERR_REVOKED);
            if (w.freed.load(std::memory_order_acquire)) return MPI_ERR_WIN;
            return comm_error(w.comm, holder_died ? MPI_ERR_RANK : MPI_ERR_OTHER);
        }
    }
    if (me->aborted) return MPI_ERR_WIN;  // window freed under the waiter
    // Granted: the granter already installed us as holder.
    held_locks_[win].push_back(target);
    return MPI_SUCCESS;
}

int Rank::MPI_Win_unlock(int rank, Win win) {
    const std::int64_t a[] = {rank, win};
    instr::FunctionGuard g(world_.registry(), world_.fids().MPI_Win_unlock, a);
    fault_point("MPI_Win_unlock");
    return PMPI_Win_unlock(rank, win);
}

int Rank::PMPI_Win_unlock(int rank, Win win) {
    const std::int64_t a[] = {rank, win};
    instr::FunctionGuard g(world_.registry(), world_.fids().PMPI_Win_unlock, a);
    if (!world_.win_valid(win)) return MPI_ERR_WIN;
    WinData& w = world_.win(win);
    CommData& cd = world_.comm(w.comm);
    if (rank < 0 || static_cast<std::size_t>(rank) >= cd.group.size())
        return MPI_ERR_RANK;
    const int target = cd.group[static_cast<std::size_t>(rank)];
    auto held = held_locks_.find(win);
    if (held == held_locks_.end()) return MPI_ERR_WIN;
    auto ht = std::find(held->second.begin(), held->second.end(), target);
    if (ht == held->second.end()) return MPI_ERR_WIN;  // unlock without lock
    held->second.erase(ht);
    WinShard* sh = w.shard(target);
    if (!sh) return MPI_ERR_RANK;
    RmaSyncScope sync(*this, "MPI_Win_unlock", win, /*passive=*/true);
    std::vector<std::shared_ptr<LockWaiter>> granted;
    {
        std::lock_guard lk(sh->mu);
        PassiveLock& pl = sh->lock;
        if (pl.exclusive_holder == global_) {
            pl.exclusive_holder = -1;
        } else {
            const auto sit =
                std::find(pl.shared_holders.begin(), pl.shared_holders.end(), global_);
            if (sit != pl.shared_holders.end()) pl.shared_holders.erase(sit);
        }
        granted = grant_passive_locked(pl);
    }
    // FIFO handoff: wake exactly the waiters that now hold the lock
    // (one exclusive, or the shared run at the head) -- nobody else.
    for (auto& lw : granted) lw->token->signal();
    return MPI_SUCCESS;
}

// ---------------------------------------------------------------------------
// RMA data transfer
// ---------------------------------------------------------------------------

void Rank::rma_detach_all() const {
    // The shard mutex is the whole protocol: a survivor's direct apply
    // memcpys through member.base while holding it, so taking it here
    // (before this rank's stack unwinds and frees the backing memory)
    // drains any in-flight copy, and clearing has_member fails every
    // later one fast.  Staged ops aimed at this rank's memory can never
    // be applied either -- drop them.
    for (const Win h : member_wins_) {
        if (!world_.win_valid(h)) continue;
        WinShard* sh = world_.win(h).shard(global_);
        if (!sh) continue;
        std::lock_guard lk(sh->mu);
        sh->has_member = false;
        sh->member = WinMember{};
        sh->staged.clear();
    }
}

int Rank::rma_check(const WinData& w, int ocount, Datatype odt, int trank,
                    std::int64_t tdisp, int tcount, Datatype tdt) const {
    if (ocount < 0 || tcount < 0) return MPI_ERR_COUNT;
    if (datatype_size(odt) <= 0 || datatype_size(tdt) <= 0) return MPI_ERR_TYPE;
    if (tdisp < 0) return MPI_ERR_ARG;
    const std::int64_t obytes = static_cast<std::int64_t>(ocount) * datatype_size(odt);
    const std::int64_t tbytes = static_cast<std::int64_t>(tcount) * datatype_size(tdt);
    if (obytes != tbytes) return MPI_ERR_ARG;
    const CommData& cd = const_cast<World&>(world_).comm(w.comm);
    if (trank < 0 || static_cast<std::size_t>(trank) >= cd.group.size())
        return MPI_ERR_RANK;
    return MPI_SUCCESS;
}

int Rank::rma_run_op(Win win, WinData& w, PendingRmaOp::Kind kind, const void* src,
                     void* dst, int trank, std::int64_t tdisp, Datatype dt, Op op,
                     std::int64_t nbytes) {
    const int target = world_.comm(w.comm).group[static_cast<std::size_t>(trank)];
    WinShard* sh = w.shard(target);
    if (!sh) return MPI_ERR_RANK;
    const auto ep = start_epochs_.find(win);
    const bool defer = world_.flavor() == Flavor::Mpich && ep != start_epochs_.end() &&
                       contains(ep->second, target);
    if (defer) {
        // Mpich start epoch: the transfer happens at MPI_Win_complete.
        // Put/Accumulate snapshot the user buffer now (the standard
        // lets the user reuse it after the call returns); Get stages
        // no payload at all -- the single copy target -> origin runs
        // at complete time on this origin's thread.
        PendingRmaOp pop;
        pop.kind = kind;
        pop.origin_global = global_;
        pop.origin_addr = static_cast<std::byte*>(dst);
        pop.target_disp = tdisp;
        pop.nbytes = nbytes;
        pop.dt = dt;
        pop.op = op;
        if (kind != PendingRmaOp::Kind::Get && nbytes > 0)
            pop.payload.assign(static_cast<const std::byte*>(src),
                               static_cast<const std::byte*>(src) + nbytes);
        std::lock_guard lk(sh->mu);
        // Shards are only ever created with a member; a cleared member
        // means the target died and detached (rma_detach_all).
        if (!sh->has_member) return MPI_ERR_PROC_FAILED;
        const std::int64_t off = tdisp * sh->member.disp_unit;
        if (off < 0 || off + nbytes > sh->member.size) return MPI_ERR_ARG;
        sh->staged.push_back(std::move(pop));
    } else {
        // Direct apply: one memcpy between the user buffer and the
        // target's window memory under that target's shard mutex --
        // the zero-copy path, no staging allocation, no second copy.
        std::lock_guard lk(sh->mu);
        // Shards are only ever created with a member; a cleared member
        // means the target died and detached (rma_detach_all).
        if (!sh->has_member) return MPI_ERR_PROC_FAILED;
        const std::int64_t off = tdisp * sh->member.disp_unit;
        if (off < 0 || off + nbytes > sh->member.size) return MPI_ERR_ARG;
        std::byte* at = sh->member.base + off;
        switch (kind) {
            case PendingRmaOp::Kind::Put:
                if (nbytes > 0) std::memcpy(at, src, static_cast<std::size_t>(nbytes));
                break;
            case PendingRmaOp::Kind::Get:
                if (nbytes > 0) std::memcpy(dst, at, static_cast<std::size_t>(nbytes));
                break;
            case PendingRmaOp::Kind::Accumulate:
                reduce_combine(at, src, static_cast<int>(nbytes / datatype_size(dt)),
                               dt, op);
                break;
        }
    }
    // Table-1 accounting: thread-local staging only; the next sync
    // call on this window flushes it to the shared counters.
    RmaStage& stg = rma_stage_[win];
    switch (kind) {
        case PendingRmaOp::Kind::Put:
            ++stg.put_ops;
            stg.put_bytes += nbytes;
            break;
        case PendingRmaOp::Kind::Get:
            ++stg.get_ops;
            stg.get_bytes += nbytes;
            break;
        case PendingRmaOp::Kind::Accumulate:
            ++stg.acc_ops;
            stg.acc_bytes += nbytes;
            break;
    }
    return MPI_SUCCESS;
}

int Rank::MPI_Put(const void* oaddr, int ocount, Datatype odt, int trank,
                  std::int64_t tdisp, int tcount, Datatype tdt, Win win) {
    const std::int64_t a[] = {as_arg(oaddr), ocount,
                              static_cast<std::int64_t>(odt), trank, tdisp, tcount,
                              static_cast<std::int64_t>(tdt), win};
    instr::FunctionGuard g(world_.registry(), world_.fids().MPI_Put, a);
    fault_point("MPI_Put");
    return PMPI_Put(oaddr, ocount, odt, trank, tdisp, tcount, tdt, win);
}

int Rank::PMPI_Put(const void* oaddr, int ocount, Datatype odt, int trank,
                   std::int64_t tdisp, int tcount, Datatype tdt, Win win) {
    const std::int64_t a[] = {as_arg(oaddr), ocount,
                              static_cast<std::int64_t>(odt), trank, tdisp, tcount,
                              static_cast<std::int64_t>(tdt), win};
    instr::FunctionGuard g(world_.registry(), world_.fids().PMPI_Put, a);
    if (!world_.win_valid(win)) return MPI_ERR_WIN;
    WinData& w = world_.win(win);
    if (const int rc = rma_check(w, ocount, odt, trank, tdisp, tcount, tdt);
        rc != MPI_SUCCESS)
        return rc;
    return rma_run_op(win, w, PendingRmaOp::Kind::Put, oaddr, nullptr, trank, tdisp,
                      odt, MPI_OP_NULL,
                      static_cast<std::int64_t>(ocount) * datatype_size(odt));
}

int Rank::MPI_Get(void* oaddr, int ocount, Datatype odt, int trank, std::int64_t tdisp,
                  int tcount, Datatype tdt, Win win) {
    const std::int64_t a[] = {as_arg(oaddr), ocount,
                              static_cast<std::int64_t>(odt), trank, tdisp, tcount,
                              static_cast<std::int64_t>(tdt), win};
    instr::FunctionGuard g(world_.registry(), world_.fids().MPI_Get, a);
    fault_point("MPI_Get");
    return PMPI_Get(oaddr, ocount, odt, trank, tdisp, tcount, tdt, win);
}

int Rank::PMPI_Get(void* oaddr, int ocount, Datatype odt, int trank, std::int64_t tdisp,
                   int tcount, Datatype tdt, Win win) {
    const std::int64_t a[] = {as_arg(oaddr), ocount,
                              static_cast<std::int64_t>(odt), trank, tdisp, tcount,
                              static_cast<std::int64_t>(tdt), win};
    instr::FunctionGuard g(world_.registry(), world_.fids().PMPI_Get, a);
    if (!world_.win_valid(win)) return MPI_ERR_WIN;
    WinData& w = world_.win(win);
    if (const int rc = rma_check(w, ocount, odt, trank, tdisp, tcount, tdt);
        rc != MPI_SUCCESS)
        return rc;
    return rma_run_op(win, w, PendingRmaOp::Kind::Get, nullptr, oaddr, trank, tdisp,
                      odt, MPI_OP_NULL,
                      static_cast<std::int64_t>(ocount) * datatype_size(odt));
}

int Rank::MPI_Accumulate(const void* oaddr, int ocount, Datatype odt, int trank,
                         std::int64_t tdisp, int tcount, Datatype tdt, Op op, Win win) {
    const std::int64_t a[] = {as_arg(oaddr), ocount,
                              static_cast<std::int64_t>(odt), trank, tdisp, tcount,
                              static_cast<std::int64_t>(tdt),
                              static_cast<std::int64_t>(op), win};
    instr::FunctionGuard g(world_.registry(), world_.fids().MPI_Accumulate, a);
    fault_point("MPI_Accumulate");
    return PMPI_Accumulate(oaddr, ocount, odt, trank, tdisp, tcount, tdt, op, win);
}

int Rank::PMPI_Accumulate(const void* oaddr, int ocount, Datatype odt, int trank,
                          std::int64_t tdisp, int tcount, Datatype tdt, Op op, Win win) {
    const std::int64_t a[] = {as_arg(oaddr), ocount,
                              static_cast<std::int64_t>(odt), trank, tdisp, tcount,
                              static_cast<std::int64_t>(tdt),
                              static_cast<std::int64_t>(op), win};
    instr::FunctionGuard g(world_.registry(), world_.fids().PMPI_Accumulate, a);
    if (!world_.win_valid(win)) return MPI_ERR_WIN;
    if (op == MPI_OP_NULL) return MPI_ERR_ARG;
    WinData& w = world_.win(win);
    if (const int rc = rma_check(w, ocount, odt, trank, tdisp, tcount, tdt);
        rc != MPI_SUCCESS)
        return rc;
    if (odt != tdt) return MPI_ERR_TYPE;
    return rma_run_op(win, w, PendingRmaOp::Kind::Accumulate, oaddr, nullptr, trank,
                      tdisp, odt, op,
                      static_cast<std::int64_t>(ocount) * datatype_size(odt));
}

// ---------------------------------------------------------------------------
// Dynamic process creation
// ---------------------------------------------------------------------------

int Rank::MPI_Comm_spawn(const std::string& command, const std::vector<std::string>& argv,
                         int maxprocs, Info info, int root, Comm c, Comm* intercomm,
                         std::vector<int>* errcodes) {
    std::int64_t a[] = {0, 0, maxprocs, info, root, c, 0};
    const std::string_view s[] = {command};
    instr::FunctionGuard g(world_.registry(), world_.fids().MPI_Comm_spawn, a, s);
    fault_point("MPI_Comm_spawn");
    int rc;
    ProfilingLayer* layer = world_.profiling_layer();
    if (layer && !in_profiling_wrapper_) {
        // The linked profiling library's MPI_Comm_spawn wrapper runs
        // instead of the implementation (the paper's intercept method).
        in_profiling_wrapper_ = true;
        SpawnArgs sa{command, argv, maxprocs, info, root, c};
        rc = layer->wrap_spawn(*this, std::move(sa), intercomm, errcodes);
        in_profiling_wrapper_ = false;
    } else {
        rc = PMPI_Comm_spawn(command, argv, maxprocs, info, root, c, intercomm, errcodes);
    }
    if (rc == MPI_SUCCESS && intercomm) a[6] = *intercomm;
    return rc;
}

int Rank::PMPI_Comm_spawn(const std::string& command, const std::vector<std::string>& argv,
                          int maxprocs, Info info, int root, Comm c, Comm* intercomm,
                          std::vector<int>* errcodes) {
    std::int64_t a[] = {0, 0, maxprocs, info, root, c, 0};
    const std::string_view s[] = {command};
    instr::FunctionGuard g(world_.registry(), world_.fids().PMPI_Comm_spawn, a, s);
    if (!intercomm) return MPI_ERR_ARG;
    if (maxprocs <= 0) return MPI_ERR_ARG;
    if (!world_.comm_valid(c)) return MPI_ERR_COMM;
    if (world_.flavor() == Flavor::Mpich) {
        // MPICH2 0.96p2 beta did not yet fully support dynamic process
        // creation (paper section 5.2.2); the paper's spawn results
        // are LAM-only.
        if (errcodes) errcodes->assign(static_cast<std::size_t>(maxprocs), MPI_ERR_SPAWN);
        return MPI_ERR_SPAWN;
    }
    CommData& cd = world_.comm(c);
    if (cd.is_inter) return MPI_ERR_COMM;
    const int n = static_cast<int>(cd.group.size());
    if (root < 0 || root >= n) return MPI_ERR_RANK;

    std::string cmd = command;
    // LAM's lam_spawn_file info key names an application schema that
    // overrides where/what to start (paper section 4.2.2).
    if (info != MPI_INFO_NULL && world_.info_valid(info)) {
        const auto& kv = world_.info(info).kv;
        const auto it = kv.find("lam_spawn_file");
        if (it != kv.end() && world_.has_program(it->second)) cmd = it->second;
    }
    if (!world_.has_program(cmd)) {
        if (errcodes) errcodes->assign(static_cast<std::size_t>(maxprocs), MPI_ERR_SPAWN);
        return MPI_ERR_SPAWN;
    }

    // Collective: every parent rank participates, so a late caller
    // shows up as spawn synchronization overhead (paper section 3).
    const auto spawn_collective_failed = [&] {
        if (errcodes) errcodes->assign(static_cast<std::size_t>(maxprocs), MPI_ERR_SPAWN);
        return comm_error(c, coll_fail_code(cd));
    };
    if (!barrier_internal(cd)) return spawn_collective_failed();
    if (my_rank_in(cd) == root)
        cd.spawn_result = world_.do_spawn(cmd, argv, maxprocs, c);
    if (!barrier_internal(cd)) return spawn_collective_failed();
    if (cd.spawn_result == MPI_COMM_NULL) {
        // The root's do_spawn failed (unknown program or an injected
        // spawn fault).  Every member sees the same null result after
        // the rendezvous, so all of them skip the final barrier and
        // report the failure consistently.
        *intercomm = MPI_COMM_NULL;
        if (errcodes) errcodes->assign(static_cast<std::size_t>(maxprocs), MPI_ERR_SPAWN);
        return MPI_ERR_SPAWN;
    }
    *intercomm = cd.spawn_result;
    a[6] = *intercomm;
    if (!barrier_internal(cd)) return spawn_collective_failed();
    if (errcodes) errcodes->assign(static_cast<std::size_t>(maxprocs), MPI_SUCCESS);
    return MPI_SUCCESS;
}

int Rank::MPI_Comm_get_parent(Comm* parent) {
    const std::int64_t a[] = {as_arg(parent)};
    instr::FunctionGuard g(world_.registry(), world_.fids().MPI_Comm_get_parent, a);
    return PMPI_Comm_get_parent(parent);
}

int Rank::MPI_Intercomm_merge(Comm intercomm, bool high, Comm* intracomm) {
    fault_point("MPI_Intercomm_merge");
    if (!intracomm) return MPI_ERR_ARG;
    if (!world_.comm_valid(intercomm)) return MPI_ERR_COMM;
    CommData& cd = world_.comm(intercomm);
    if (!cd.is_inter) return MPI_ERR_COMM;
    // Collective over both groups.  The "high" side goes second; both
    // sides must pass complementary flags for a stable order, which we
    // approximate by always ordering the original local group first
    // when high is false on that side.
    const bool on_local_side = std::find(cd.group.begin(), cd.group.end(), global_) !=
                               cd.group.end();
    std::vector<int> merged;
    const std::vector<int>& first = high == on_local_side ? cd.remote_group : cd.group;
    const std::vector<int>& second = high == on_local_side ? cd.group : cd.remote_group;
    merged.insert(merged.end(), first.begin(), first.end());
    merged.insert(merged.end(), second.begin(), second.end());

    // barrier_internal rendezvouses over BOTH groups (the op is
    // collective on the whole intercommunicator); the first process of
    // the merged order creates the handle, everyone picks it up.
    if (!barrier_internal(cd)) return comm_error(intercomm, coll_fail_code(cd));
    if (global_ == merged.front()) cd.spawn_result = world_.create_comm(merged);
    if (!barrier_internal(cd)) return comm_error(intercomm, coll_fail_code(cd));
    *intracomm = cd.spawn_result;
    if (!barrier_internal(cd)) return comm_error(intercomm, coll_fail_code(cd));
    return MPI_SUCCESS;
}

int Rank::PMPI_Comm_get_parent(Comm* parent) {
    const std::int64_t a[] = {as_arg(parent)};
    instr::FunctionGuard g(world_.registry(), world_.fids().PMPI_Comm_get_parent, a);
    if (!parent) return MPI_ERR_ARG;
    *parent = world_.proc(global_).parent_intercomm;
    return MPI_SUCCESS;
}

// ---------------------------------------------------------------------------
// Object naming
// ---------------------------------------------------------------------------

int Rank::MPI_Comm_set_name(Comm c, const std::string& name) {
    const std::int64_t a[] = {c};
    const std::string_view s[] = {name};
    instr::FunctionGuard g(world_.registry(), world_.fids().MPI_Comm_set_name, a, s);
    return PMPI_Comm_set_name(c, name);
}

int Rank::PMPI_Comm_set_name(Comm c, const std::string& name) {
    const std::int64_t a[] = {c};
    const std::string_view s[] = {name};
    instr::FunctionGuard g(world_.registry(), world_.fids().PMPI_Comm_set_name, a, s);
    if (!world_.comm_valid(c)) return MPI_ERR_COMM;
    if (name.size() >= MPI_MAX_OBJECT_NAME) return MPI_ERR_ARG;
    world_.set_comm_name(c, name);
    return MPI_SUCCESS;
}

int Rank::MPI_Comm_get_name(Comm c, std::string* name) {
    if (!name) return MPI_ERR_ARG;
    if (!world_.comm_valid(c)) return MPI_ERR_COMM;
    *name = world_.object_name_of_comm(c);
    return MPI_SUCCESS;
}

int Rank::MPI_Win_set_name(Win w, const std::string& name) {
    const std::int64_t a[] = {w};
    const std::string_view s[] = {name};
    instr::FunctionGuard g(world_.registry(), world_.fids().MPI_Win_set_name, a, s);
    return PMPI_Win_set_name(w, name);
}

int Rank::PMPI_Win_set_name(Win w, const std::string& name) {
    const std::int64_t a[] = {w};
    const std::string_view s[] = {name};
    instr::FunctionGuard g(world_.registry(), world_.fids().PMPI_Win_set_name, a, s);
    if (!world_.win_valid(w)) return MPI_ERR_WIN;
    if (name.size() >= MPI_MAX_OBJECT_NAME) return MPI_ERR_ARG;
    WinData& wd = world_.win(w);
    world_.set_win_name(w, name);
    // LAM stores window names in the window's shadow communicator
    // (paper Fig 23: "LAM stores RMA window names in the communicator
    // structure"), so the name shows up under Message as well.
    if (world_.flavor() == Flavor::Lam && wd.shadow_comm != MPI_COMM_NULL)
        world_.set_comm_name(wd.shadow_comm, name);
    return MPI_SUCCESS;
}

int Rank::MPI_Win_get_name(Win w, std::string* name) {
    if (!name) return MPI_ERR_ARG;
    if (!world_.win_valid(w)) return MPI_ERR_WIN;
    *name = world_.object_name_of_win(w);
    return MPI_SUCCESS;
}

int Rank::MPI_Type_set_name(Datatype dt, const std::string& name) {
    if (datatype_size(dt) <= 0) return MPI_ERR_TYPE;
    if (name.size() >= MPI_MAX_OBJECT_NAME) return MPI_ERR_ARG;
    world_.set_type_name(dt, name);
    return MPI_SUCCESS;
}

int Rank::MPI_Type_get_name(Datatype dt, std::string* name) {
    if (!name) return MPI_ERR_ARG;
    if (datatype_size(dt) <= 0) return MPI_ERR_TYPE;
    *name = world_.type_name(dt);
    return MPI_SUCCESS;
}

// ---------------------------------------------------------------------------
// Info objects
// ---------------------------------------------------------------------------

int Rank::MPI_Info_create(Info* info) {
    if (!info) return MPI_ERR_ARG;
    *info = world_.create_info();
    return MPI_SUCCESS;
}

int Rank::MPI_Info_set(Info info, const std::string& key, const std::string& value) {
    if (!world_.info_valid(info)) return MPI_ERR_INFO;
    if (key.empty()) return MPI_ERR_ARG;
    world_.info(info).kv[key] = value;
    return MPI_SUCCESS;
}

int Rank::MPI_Info_free(Info* info) {
    if (!info) return MPI_ERR_ARG;
    if (!world_.info_valid(*info)) return MPI_ERR_INFO;
    world_.info(*info).freed = true;
    *info = MPI_INFO_NULL;
    return MPI_SUCCESS;
}

}  // namespace m2p::simmpi
