// ULFM-style recovery collectives: MPI_Comm_revoke / shrink / agree /
// failure_ack / get_acked, plus MPI_Comm_split, which shares the
// group-based construction machinery shrink needs anyway.  Protocol
// notes live in recovery.hpp; the wait predicates that make a revoked
// communicator fail promptly are spread through rank.cpp / rank_rma.cpp
// / rank_io.cpp.
#include <algorithm>
#include <chrono>

#include "simmpi/rank.hpp"
#include "simmpi/sched.hpp"

namespace m2p::simmpi {

namespace {

bool contains(const std::vector<int>& v, int x) {
    return std::find(v.begin(), v.end(), x) != v.end();
}

}  // namespace

// ---------------------------------------------------------------------------
// The rendezvous round
// ---------------------------------------------------------------------------

int Rank::ft_rendezvous(Comm c, CommData& cd, FtRendezvous& rv,
                        std::array<int, 2> vote, bool excuse_dead,
                        void (Rank::*close_round)(CommData&, FtRendezvous&),
                        int* out_flag, Comm* out_comm) {
    WaitDeadline deadline = wait_deadline("ft_rendezvous");
    std::unique_lock lk(rv.mu);
    const std::uint64_t gen = rv.gen;
    rv.arrived.push_back(global_);
    rv.votes.push_back(vote);

    // The round closes when every member has arrived or -- for the
    // fault-tolerant ops -- will never arrive.  Monotone in deaths, so
    // re-evaluating on each death broadcast converges.
    const auto complete = [&]() -> bool {
        for (int g : cd.group) {
            if (contains(rv.arrived, g)) continue;
            if (excuse_dead && world_.rank_unreachable(g)) continue;
            return false;
        }
        return true;
    };
    // Published results are read under rv.mu; see recovery.hpp for why
    // they remain stable until every reader of this round returned.
    const auto read_result = [&]() -> int {
        if (out_flag) *out_flag = rv.result_flag;
        if (out_comm) {
            auto it = rv.result_comms.find(global_);
            if (it == rv.result_comms.end()) it = rv.result_comms.find(-1);
            *out_comm = it == rv.result_comms.end() ? MPI_COMM_NULL : it->second;
        }
        return rv.result_rc;
    };
    const auto close_now = [&]() -> int {
        (this->*close_round)(cd, rv);
        rv.arrived.clear();
        rv.votes.clear();
        ++rv.gen;
        std::vector<std::shared_ptr<sched::WaitToken>> waiters;
        waiters.swap(rv.waiters);
        const int rc = read_result();
        lk.unlock();
        sched::unpark_all(waiters);
        return rc;
    };

    if (complete()) return close_now();

    const std::shared_ptr<sched::WaitToken>& tok = sched::current_wait_token();
    while (rv.gen == gen) {
        rv.waiters.push_back(tok);
        lk.unlock();
        tok->park_until(deadline.at());
        lk.lock();
        auto& v = rv.waiters;
        v.erase(std::remove(v.begin(), v.end(), tok), v.end());
        if (rv.gen != gen) break;
        if (complete()) return close_now();
        // The fault-tolerant ops are doomed only by poison or the wait
        // deadline (deaths *help* them close); split is additionally
        // doomed by revocation or a dead member, like any collective.
        const bool doomed =
            world_.poisoned() || deadline.expired() ||
            (!excuse_dead &&
             (comm_revoked(cd) ||
              (world_.death_epoch() != 0 && world_.comm_has_dead_member(cd))));
        if (doomed) {
            // Withdraw this arrival so a later round over the
            // survivors is not off by one.
            const auto it = std::find(rv.arrived.begin(), rv.arrived.end(), global_);
            if (it != rv.arrived.end()) {
                rv.votes.erase(rv.votes.begin() + (it - rv.arrived.begin()));
                rv.arrived.erase(it);
            }
            lk.unlock();
            check_poisoned();
            return comm_error(c, excuse_dead ? MPI_ERR_OTHER : coll_fail_code(cd));
        }
    }
    return read_result();
}

// ---------------------------------------------------------------------------
// Round closers (run under rv.mu by the closing arriver)
// ---------------------------------------------------------------------------

void Rank::close_agree(CommData& cd, FtRendezvous& rv) {
    int acc = ~0;
    for (const auto& v : rv.votes) acc &= v[0];
    bool full = true;
    for (int g : cd.group) {
        if (!contains(rv.arrived, g)) {
            full = false;
            break;
        }
    }
    rv.result_flag = acc;
    // The verdict is uniform: either everyone contributed, or every
    // participant learns (via the same code) that someone could not.
    rv.result_rc = full ? MPI_SUCCESS : MPI_ERR_PROC_FAILED;
    rv.result_comms.clear();
    world_.trace_event(trace::EventKind::Agree, global_, "MPI_Comm_agree", cd.handle,
                       acc, rv.result_rc);
}

void Rank::close_shrink(CommData& cd, FtRendezvous& rv) {
    // Survivors keep their relative order from the parent comm; the
    // fresh handle gets fresh context ids, so traffic wedged on the
    // revoked parent can never match operations on the child.
    std::vector<int> survivors;
    for (int g : cd.group)
        if (contains(rv.arrived, g)) survivors.push_back(g);
    const Comm fresh = world_.create_comm(survivors);
    world_.comm(fresh).errhandler.store(cd.errhandler.load(std::memory_order_acquire),
                                        std::memory_order_release);
    rv.result_comms.clear();
    rv.result_comms[-1] = fresh;
    rv.result_flag = static_cast<int>(survivors.size());
    rv.result_rc = MPI_SUCCESS;
    world_.trace_event(trace::EventKind::Shrink, global_, "MPI_Comm_shrink", cd.handle,
                       fresh, static_cast<std::int64_t>(survivors.size()));
    // A completed shrink on a world that lost ranks is the definition
    // of recovery: survivors rebuilt and kept going.
    world_.mark_recovered();
}

void Rank::close_split(CommData& cd, FtRendezvous& rv) {
    struct Entry {
        int color, key, cr, global;
    };
    std::vector<Entry> es;
    es.reserve(rv.arrived.size());
    for (std::size_t i = 0; i < rv.arrived.size(); ++i) {
        const int g = rv.arrived[i];
        const auto pos = std::find(cd.group.begin(), cd.group.end(), g);
        const int cr = static_cast<int>(pos - cd.group.begin());
        es.push_back({rv.votes[i][0], rv.votes[i][1], cr, g});
    }
    std::sort(es.begin(), es.end(), [](const Entry& a, const Entry& b) {
        if (a.color != b.color) return a.color < b.color;
        if (a.key != b.key) return a.key < b.key;
        return a.cr < b.cr;  // ties broken by rank in the parent comm
    });
    rv.result_comms.clear();
    for (std::size_t i = 0; i < es.size();) {
        std::size_t j = i;
        while (j < es.size() && es[j].color == es[i].color) ++j;
        if (es[i].color != MPI_UNDEFINED) {
            std::vector<int> members;
            members.reserve(j - i);
            for (std::size_t k = i; k < j; ++k) members.push_back(es[k].global);
            const Comm fresh = world_.create_comm(members);
            world_.comm(fresh).errhandler.store(
                cd.errhandler.load(std::memory_order_acquire),
                std::memory_order_release);
            for (std::size_t k = i; k < j; ++k) rv.result_comms[es[k].global] = fresh;
        }
        i = j;
    }
    rv.result_flag = 0;
    rv.result_rc = MPI_SUCCESS;
}

// ---------------------------------------------------------------------------
// User-visible operations
// ---------------------------------------------------------------------------

int Rank::MPI_Comm_revoke(Comm c) {
    fault_point("MPI_Comm_revoke");
    if (!world_.comm_valid(c)) return MPI_ERR_COMM;
    world_.revoke_comm(c, global_);
    return MPI_SUCCESS;
}

int Rank::MPI_Comm_shrink(Comm c, Comm* newcomm) {
    fault_point("MPI_Comm_shrink");
    if (!newcomm) return MPI_ERR_ARG;
    if (!world_.comm_valid(c)) return MPI_ERR_COMM;
    CommData& cd = world_.comm(c);
    if (cd.is_inter) return MPI_ERR_COMM;
    *newcomm = MPI_COMM_NULL;
    Comm out = MPI_COMM_NULL;
    const int rc = ft_rendezvous(c, cd, cd.shrink_rv, {0, 0}, /*excuse_dead=*/true,
                                 &Rank::close_shrink, nullptr, &out);
    if (rc != MPI_SUCCESS) return rc;
    *newcomm = out;
    return MPI_SUCCESS;
}

int Rank::MPI_Comm_agree(Comm c, int* flag) {
    fault_point("MPI_Comm_agree");
    if (!flag) return MPI_ERR_ARG;
    if (!world_.comm_valid(c)) return MPI_ERR_COMM;
    CommData& cd = world_.comm(c);
    if (cd.is_inter) return MPI_ERR_COMM;
    int out = *flag;
    const int rc = ft_rendezvous(c, cd, cd.agree_rv, {*flag, 0}, /*excuse_dead=*/true,
                                 &Rank::close_agree, &out, nullptr);
    *flag = out;
    // The uniform not-everyone-contributed verdict is fault-class:
    // route it through the communicator's error handler.
    if (rc == MPI_ERR_PROC_FAILED) return comm_error(c, rc);
    return rc;
}

int Rank::MPI_Comm_failure_ack(Comm c) {
    fault_point("MPI_Comm_failure_ack");
    if (!world_.comm_valid(c)) return MPI_ERR_COMM;
    const CommData& cd = world_.comm(c);
    std::vector<int> dead;
    for (int g : cd.group)
        if (world_.rank_dead(g)) dead.push_back(g);
    acked_failures_[c] = std::move(dead);
    return MPI_SUCCESS;
}

int Rank::MPI_Comm_get_acked(Comm c, Group* g) {
    if (!g) return MPI_ERR_ARG;
    if (!world_.comm_valid(c)) return MPI_ERR_COMM;
    const auto it = acked_failures_.find(c);
    *g = world_.create_group(it == acked_failures_.end() ? std::vector<int>{}
                                                         : it->second);
    return MPI_SUCCESS;
}

int Rank::MPI_Comm_split(Comm c, int color, int key, Comm* out) {
    fault_point("MPI_Comm_split");
    if (!out) return MPI_ERR_ARG;
    if (!world_.comm_valid(c)) return MPI_ERR_COMM;
    CommData& cd = world_.comm(c);
    if (cd.is_inter) return MPI_ERR_COMM;
    if (color < 0 && color != MPI_UNDEFINED) return MPI_ERR_ARG;
    *out = MPI_COMM_NULL;
    if (comm_revoked(cd)) return comm_error(c, MPI_ERR_REVOKED);
    if (world_.death_epoch() != 0 && world_.comm_has_dead_member(cd))
        return comm_error(c, MPI_ERR_PROC_FAILED);
    Comm fresh = MPI_COMM_NULL;
    const int rc = ft_rendezvous(c, cd, cd.split_rv, {color, key},
                                 /*excuse_dead=*/false, &Rank::close_split, nullptr,
                                 &fresh);
    if (rc != MPI_SUCCESS) return rc;
    *out = fresh;
    return MPI_SUCCESS;
}

}  // namespace m2p::simmpi
