// Rank: the per-process (per-thread) MPI interface.
//
// Every MPI_X method is a thin instrumented trampoline around the
// matching PMPI_X method, reproducing the MPI profiling interface the
// paper relies on (section 4.1.1): the tool can instrument either
// symbol, and a "profiling library" (ProfilingLayer) can interpose on
// MPI_Comm_spawn / MPI_Init exactly as the paper's intercept method
// does.  Argument layouts visible to instrumentation snippets follow
// the C MPI bindings, so MDL code like `MPI_Type_size($arg[2], ...)`
// and `DYNINSTWindow_FindUniqueId($arg[7])` works as in the paper's
// Figure 2.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "simmpi/types.hpp"
#include "simmpi/world.hpp"

namespace m2p::simmpi {

class Rank {
public:
    Rank(World& world, int global_rank);
    Rank(const Rank&) = delete;
    Rank& operator=(const Rank&) = delete;

    World& world() { return world_; }
    int global_rank() const { return global_; }
    /// This process's MPI_COMM_WORLD (its own world for spawned children).
    Comm MPI_COMM_WORLD() const;

    // ---- Environment -----------------------------------------------------
    int MPI_Init();
    /// MPI-2 thread support: every requested level up to
    /// MPI_THREAD_MULTIPLE is granted; a rank's calls run on its own
    /// fiber or thread.
    int MPI_Init_thread(int required, int* provided);
    int MPI_Query_thread(int* provided) const;
    int MPI_Finalize();
    /// Terminates the whole job: poisons the world (every rank unwinds
    /// at its next MPI call or liveness-checked wait) and unwinds this
    /// rank.  Never returns.
    int MPI_Abort(Comm c, int errorcode);
    int PMPI_Abort(Comm c, int errorcode);
    /// Per-communicator error handler for *fault-class* errors (dead
    /// peer, failed collective): MPI_ERRORS_ARE_FATAL or
    /// MPI_ERRORS_RETURN.  Argument-validation errors always return.
    int MPI_Comm_set_errhandler(Comm c, int errhandler);
    int MPI_Comm_get_errhandler(Comm c, int* errhandler);
    bool initialized() const { return initialized_; }
    double MPI_Wtime() const;
    int MPI_Get_processor_name(std::string* name) const;
    int MPI_Type_size(Datatype dt, int* size) const;
    int MPI_Get_count(const Status* st, Datatype dt, int* count) const;

    // ---- Communicator / group queries -------------------------------------
    int MPI_Comm_size(Comm c, int* size);
    int MPI_Comm_rank(Comm c, int* rank);
    int MPI_Comm_remote_size(Comm c, int* size);
    int MPI_Comm_dup(Comm c, Comm* out);
    /// Partitions @p c by @p color (MPI_UNDEFINED opts out), ordering
    /// each result communicator by (key, rank in c).  Collective.
    int MPI_Comm_split(Comm c, int color, int key, Comm* out);
    int MPI_Comm_free(Comm* c);

    // ---- ULFM-style recovery (recovery.cpp) --------------------------------
    /// Revokes @p c: every pending and future operation on it -- on
    /// every member -- fails with MPI_ERR_REVOKED.  Parked waiters are
    /// woken by broadcast, not polled out.  Idempotent, not collective.
    int MPI_Comm_revoke(Comm c);
    /// Survivors of @p c (revoked or not) collectively build a fresh
    /// communicator from the live membership, ordered as in @p c.
    int MPI_Comm_shrink(Comm c, Comm* newcomm);
    /// Fault-tolerant agreement: returns the bitwise AND of every
    /// contributed *flag.  Completes even when members die mid-vote;
    /// all participants get the same flag, and the uniform return code
    /// is MPI_ERR_PROC_FAILED when any member could not contribute.
    int MPI_Comm_agree(Comm c, int* flag);
    /// Snapshots the currently-known failed members of @p c (local op).
    int MPI_Comm_failure_ack(Comm c);
    /// Returns the group of members acknowledged by the last
    /// MPI_Comm_failure_ack on this rank (empty if never acked).
    int MPI_Comm_get_acked(Comm c, Group* g);
    int MPI_Comm_group(Comm c, Group* g);
    int MPI_Group_incl(Group g, int n, const int* ranks, Group* out);
    int MPI_Group_size(Group g, int* size);
    int MPI_Group_free(Group* g);

    // ---- Point-to-point ----------------------------------------------------
    int MPI_Send(const void* buf, int count, Datatype dt, int dest, int tag, Comm c);
    /// Synchronous send: always rendezvous -- completes only when the
    /// receive has started, regardless of message size.
    int MPI_Ssend(const void* buf, int count, Datatype dt, int dest, int tag, Comm c);
    int MPI_Recv(void* buf, int count, Datatype dt, int src, int tag, Comm c, Status* st);
    int MPI_Isend(const void* buf, int count, Datatype dt, int dest, int tag, Comm c,
                  Request* req);
    int MPI_Irecv(void* buf, int count, Datatype dt, int src, int tag, Comm c,
                  Request* req);
    int MPI_Wait(Request* req, Status* st);
    int MPI_Waitall(int n, Request* reqs, Status* sts);
    int MPI_Sendrecv(const void* sbuf, int scount, Datatype sdt, int dest, int stag,
                     void* rbuf, int rcount, Datatype rdt, int src, int rtag, Comm c,
                     Status* st);
    /// Blocks until a matching message is available (without
    /// receiving it); fills @p st with its envelope.
    int MPI_Probe(int src, int tag, Comm c, Status* st);
    /// Non-blocking match check: sets *flag and fills @p st on a hit.
    int MPI_Iprobe(int src, int tag, Comm c, int* flag, Status* st);

    // ---- Collectives -------------------------------------------------------
    int MPI_Barrier(Comm c);
    int MPI_Bcast(void* buf, int count, Datatype dt, int root, Comm c);
    int MPI_Reduce(const void* sbuf, void* rbuf, int count, Datatype dt, Op op, int root,
                   Comm c);
    int MPI_Allreduce(const void* sbuf, void* rbuf, int count, Datatype dt, Op op, Comm c);
    int MPI_Gather(const void* sbuf, int scount, Datatype sdt, void* rbuf, int rcount,
                   Datatype rdt, int root, Comm c);
    int MPI_Scatter(const void* sbuf, int scount, Datatype sdt, void* rbuf, int rcount,
                    Datatype rdt, int root, Comm c);
    int MPI_Allgather(const void* sbuf, int scount, Datatype sdt, void* rbuf,
                      int rcount, Datatype rdt, Comm c);

    // ---- MPI-2: one-sided communication ------------------------------------
    int MPI_Win_create(void* base, std::int64_t size, int disp_unit, Info info, Comm c,
                       Win* win);
    int MPI_Win_free(Win* win);
    int MPI_Win_fence(int assert, Win win);
    int MPI_Win_start(Group g, int assert, Win win);
    int MPI_Win_complete(Win win);
    int MPI_Win_post(Group g, int assert, Win win);
    int MPI_Win_wait(Win win);
    int MPI_Win_lock(int lock_type, int rank, int assert, Win win);
    int MPI_Win_unlock(int rank, Win win);
    int MPI_Put(const void* oaddr, int ocount, Datatype odt, int trank,
                std::int64_t tdisp, int tcount, Datatype tdt, Win win);
    int MPI_Get(void* oaddr, int ocount, Datatype odt, int trank, std::int64_t tdisp,
                int tcount, Datatype tdt, Win win);
    int MPI_Accumulate(const void* oaddr, int ocount, Datatype odt, int trank,
                       std::int64_t tdisp, int tcount, Datatype tdt, Op op, Win win);

    // ---- MPI-2: dynamic process creation ------------------------------------
    int MPI_Comm_spawn(const std::string& command, const std::vector<std::string>& argv,
                       int maxprocs, Info info, int root, Comm c, Comm* intercomm,
                       std::vector<int>* errcodes);
    int MPI_Comm_get_parent(Comm* parent);
    /// Merges an intercommunicator into an intracommunicator spanning
    /// both groups (@p high orders the local group after the remote).
    int MPI_Intercomm_merge(Comm intercomm, bool high, Comm* intracomm);

    // ---- MPI-2: object naming ------------------------------------------------
    int MPI_Comm_set_name(Comm c, const std::string& name);
    int MPI_Comm_get_name(Comm c, std::string* name);
    int MPI_Win_set_name(Win w, const std::string& name);
    int MPI_Win_get_name(Win w, std::string* name);
    /// Datatype naming -- the third MPI-2 naming target the paper
    /// lists (windows and communicators were implemented; datatypes
    /// are this reproduction's extension).
    int MPI_Type_set_name(Datatype dt, const std::string& name);
    int MPI_Type_get_name(Datatype dt, std::string* name);

    // ---- MPI-2: parallel file I/O (MPI-I/O) ---------------------------------
    // "File I/O has traditionally been a performance bottleneck ...
    // MPI programmers can improve performance by utilizing the
    // parallel file I/O operations included in MPI-2" (paper sec. 3).
    int MPI_File_open(Comm c, const std::string& filename, int amode, Info info,
                      File* fh);
    int MPI_File_close(File* fh);
    int MPI_File_delete(const std::string& filename, Info info);
    int MPI_File_read(File fh, void* buf, int count, Datatype dt, Status* st);
    int MPI_File_write(File fh, const void* buf, int count, Datatype dt, Status* st);
    int MPI_File_read_at(File fh, std::int64_t offset, void* buf, int count,
                         Datatype dt, Status* st);
    int MPI_File_write_at(File fh, std::int64_t offset, const void* buf, int count,
                          Datatype dt, Status* st);
    /// Collective variants: every process of the file's communicator
    /// participates (the synchronization cost a performance tool must
    /// expose when one process is late).
    int MPI_File_read_all(File fh, void* buf, int count, Datatype dt, Status* st);
    int MPI_File_write_all(File fh, const void* buf, int count, Datatype dt,
                           Status* st);
    /// Shared-file-pointer access: all processes advance one pointer
    /// (ordering between concurrent callers is unspecified, as in the
    /// standard's non-collective shared-pointer routines).
    int MPI_File_read_shared(File fh, void* buf, int count, Datatype dt, Status* st);
    int MPI_File_write_shared(File fh, const void* buf, int count, Datatype dt,
                              Status* st);
    int MPI_File_seek(File fh, std::int64_t offset, int whence);
    int MPI_File_get_position(File fh, std::int64_t* offset);
    int MPI_File_get_size(File fh, std::int64_t* size);
    int MPI_File_sync(File fh);
    /// Contiguous file view: subsequent offsets/pointers are in units
    /// of @p etype starting at byte @p disp (collective; resets the
    /// individual and shared pointers, as the standard requires).
    int MPI_File_set_view(File fh, std::int64_t disp, Datatype etype, Info info);
    int MPI_File_get_view(File fh, std::int64_t* disp, Datatype* etype);
    /// Returns a fresh Info with the hints in effect for the file.
    int MPI_File_get_info(File fh, Info* info_out);

    int PMPI_File_open(Comm c, const std::string& filename, int amode, Info info,
                       File* fh);
    int PMPI_File_close(File* fh);
    int PMPI_File_delete(const std::string& filename, Info info);
    int PMPI_File_read(File fh, void* buf, int count, Datatype dt, Status* st);
    int PMPI_File_write(File fh, const void* buf, int count, Datatype dt, Status* st);
    int PMPI_File_read_at(File fh, std::int64_t offset, void* buf, int count,
                          Datatype dt, Status* st);
    int PMPI_File_write_at(File fh, std::int64_t offset, const void* buf, int count,
                           Datatype dt, Status* st);
    int PMPI_File_read_all(File fh, void* buf, int count, Datatype dt, Status* st);
    int PMPI_File_write_all(File fh, const void* buf, int count, Datatype dt,
                            Status* st);
    int PMPI_File_seek(File fh, std::int64_t offset, int whence);
    int PMPI_File_sync(File fh);

    // ---- MPI-2: info objects ---------------------------------------------------
    int MPI_Info_create(Info* info);
    int MPI_Info_set(Info info, const std::string& key, const std::string& value);
    int MPI_Info_free(Info* info);

    // ---- Profiling (PMPI) entry points ------------------------------------
    int PMPI_Init();
    int PMPI_Finalize();
    int PMPI_Send(const void* buf, int count, Datatype dt, int dest, int tag, Comm c);
    int PMPI_Recv(void* buf, int count, Datatype dt, int src, int tag, Comm c, Status* st);
    int PMPI_Isend(const void* buf, int count, Datatype dt, int dest, int tag, Comm c,
                   Request* req);
    int PMPI_Irecv(void* buf, int count, Datatype dt, int src, int tag, Comm c,
                   Request* req);
    int PMPI_Wait(Request* req, Status* st);
    int PMPI_Waitall(int n, Request* reqs, Status* sts);
    int PMPI_Sendrecv(const void* sbuf, int scount, Datatype sdt, int dest, int stag,
                      void* rbuf, int rcount, Datatype rdt, int src, int rtag, Comm c,
                      Status* st);
    int PMPI_Barrier(Comm c);
    int PMPI_Bcast(void* buf, int count, Datatype dt, int root, Comm c);
    int PMPI_Reduce(const void* sbuf, void* rbuf, int count, Datatype dt, Op op, int root,
                    Comm c);
    int PMPI_Allreduce(const void* sbuf, void* rbuf, int count, Datatype dt, Op op,
                       Comm c);
    int PMPI_Gather(const void* sbuf, int scount, Datatype sdt, void* rbuf, int rcount,
                    Datatype rdt, int root, Comm c);
    int PMPI_Scatter(const void* sbuf, int scount, Datatype sdt, void* rbuf, int rcount,
                     Datatype rdt, int root, Comm c);
    int PMPI_Allgather(const void* sbuf, int scount, Datatype sdt, void* rbuf,
                       int rcount, Datatype rdt, Comm c);
    int PMPI_Win_create(void* base, std::int64_t size, int disp_unit, Info info, Comm c,
                        Win* win);
    int PMPI_Win_free(Win* win);
    int PMPI_Win_fence(int assert, Win win);
    int PMPI_Win_start(Group g, int assert, Win win);
    int PMPI_Win_complete(Win win);
    int PMPI_Win_post(Group g, int assert, Win win);
    int PMPI_Win_wait(Win win);
    int PMPI_Win_lock(int lock_type, int rank, int assert, Win win);
    int PMPI_Win_unlock(int rank, Win win);
    int PMPI_Put(const void* oaddr, int ocount, Datatype odt, int trank,
                 std::int64_t tdisp, int tcount, Datatype tdt, Win win);
    int PMPI_Get(void* oaddr, int ocount, Datatype odt, int trank, std::int64_t tdisp,
                 int tcount, Datatype tdt, Win win);
    int PMPI_Accumulate(const void* oaddr, int ocount, Datatype odt, int trank,
                        std::int64_t tdisp, int tcount, Datatype tdt, Op op, Win win);
    int PMPI_Comm_spawn(const std::string& command, const std::vector<std::string>& argv,
                        int maxprocs, Info info, int root, Comm c, Comm* intercomm,
                        std::vector<int>* errcodes);
    int PMPI_Comm_get_parent(Comm* parent);
    int PMPI_Comm_set_name(Comm c, const std::string& name);
    int PMPI_Win_set_name(Win w, const std::string& name);

private:
    // Local/remote rank translation.  For intercommunicators, point-to-
    // point destination ranks address the *remote* group.
    int my_rank_in(const CommData& c) const;
    const std::vector<int>& dest_group(const CommData& c) const;
    int check_pt2pt(const CommData& c, int count, Datatype dt, int peer, int tag,
                    bool is_send) const;

    // ---- Fault plane -------------------------------------------------------
    /// Dispatch-boundary hook, called at every MPI_* trampoline: records
    /// the breadcrumb (last call + call count) used in epitaphs and
    /// watchdog dumps, unwinds if the world is poisoned, and applies the
    /// FaultPlan's kill/hang actions for this rank.
    void fault_point(const char* name);
    /// Applies @p c's error handler to fault-class error @p code:
    /// ERRORS_ARE_FATAL poisons the world and unwinds; ERRORS_RETURN
    /// returns @p code for the caller to propagate.
    int comm_error(Comm c, int code);
    /// Throws RankKilled if the world has been poisoned (MPI_Abort or a
    /// fatal error elsewhere), so blocked ranks unwind promptly.
    void check_poisoned() const;
    /// Deadline for liveness-checked waits (Config::wait_deadline_seconds
    /// from the wait's first park): the backstop for wedges no death
    /// explains, e.g. a cycle caused by a dropped message.  @p site
    /// names the wait when it runs out (a string literal).
    WaitDeadline wait_deadline(const char* site) const;

    enum class SendMode {
        Standard,     ///< eager below the limit, rendezvous above
        ForceEager,   ///< always buffered (collectives: deadlock-free)
        Synchronous,  ///< always rendezvous (MPI_Ssend)
    };
    /// Blocking send body.
    int send_body(const void* buf, int count, Datatype dt, int dest, int tag, Comm c,
                  SendMode mode);
    int recv_body(void* buf, int count, Datatype dt, int src, int tag, Comm c,
                  Status* st, std::int64_t context_offset = 0);
    int probe_body(int src, int tag, Comm c, int* flag, Status* st, bool blocking);
    /// Internal collective side-channel (uninstrumented, force-eager,
    /// separate context so user messages can never match).  The bool-
    /// returning ops report false when the collective cannot complete
    /// because a member of @p c died (callers turn that into
    /// comm_error(c, MPI_ERR_PROC_FAILED) so survivors fail alike).
    void internal_send(const void* buf, int bytes, int dest_cr, int tag, CommData& c);
    bool internal_recv(void* buf, int bytes, int src_cr, int tag, CommData& c);
    bool barrier_internal(CommData& c);
    int next_coll_tag(Comm c);
    void reduce_combine(void* acc, const void* in, int count, Datatype dt, Op op) const;
    // Binomial-tree data movement on the collective side-channel.
    bool coll_bcast_tree(void* buf, int bytes, int root_cr, int tag, CommData& c);
    /// Gathers @p block bytes per rank into @p rbuf (rank order) at
    /// @p root_cr; other ranks pass rbuf = nullptr.
    bool coll_gather_tree(const void* sbuf, void* rbuf, int block, int root_cr, int tag,
                          CommData& c);
    bool coll_scatter_tree(const void* sbuf, void* rbuf, int block, int root_cr, int tag,
                           CommData& c);
    /// Node-aware allreduce: same-node ranks fold through the comm's
    /// ShmCombineCell; node leaders run a binomial exchange across
    /// nodes and publish the result back through the cells.
    bool coll_allreduce_tree(const void* sbuf, void* rbuf, int count, Datatype dt,
                             Op op, int bytes, int tag, CommData& c);

    /// RAII collective span: CollBegin in the ctor, CollEnd at scope
    /// exit -- so a rank that unwinds mid-collective (fault, poison)
    /// still closes its span and the postmortem shows where it was.
    /// @p algo tags the shape: MPI_Barrier's 0 (LAM token exchange) or
    /// 1 (MPICH dissemination), 1 (tree) for every other collective.
    class CollScope {
    public:
        CollScope(Rank& r, const char* name, Comm c, std::int64_t bytes, int algo);
        ~CollScope();
        CollScope(const CollScope&) = delete;
        CollScope& operator=(const CollScope&) = delete;

    private:
        Rank& r_;
        const char* name_;
        Comm c_;
        int algo_;
    };

    // ---- Recovery plane (recovery.cpp) -------------------------------------
    /// True when @p cd has been revoked (relaxed load; never cleared).
    static bool comm_revoked(const CommData& cd) {
        return cd.revoked.load(std::memory_order_relaxed);
    }
    /// The uniform failure code for a collective that cannot complete
    /// on @p cd: MPI_ERR_REVOKED once the comm is revoked, else
    /// MPI_ERR_PROC_FAILED (a member died).
    static int coll_fail_code(const CommData& cd) {
        return comm_revoked(cd) ? MPI_ERR_REVOKED : MPI_ERR_PROC_FAILED;
    }
    /// One rendezvous round over @p rv: blocks until every member of
    /// @p cd has arrived (with @p excuse_dead, dead/finished members
    /// are excused -- the agree/shrink fault-tolerance rule; without
    /// it a dead member dooms the round -- the split rule), then the
    /// closing arriver runs @p close_round under rv.mu to publish the
    /// uniform verdict and unparks the rest.  Returns the published
    /// rc; *out_flag / *out_comm (either may be null) receive this
    /// member's published flag / communicator.
    int ft_rendezvous(Comm c, CommData& cd, FtRendezvous& rv,
                      std::array<int, 2> vote, bool excuse_dead,
                      void (Rank::*close_round)(CommData&, FtRendezvous&),
                      int* out_flag, Comm* out_comm);
    /// Round closers (run once, by the arriver that completes the
    /// round, under rv.mu): publish per-member results into rv.
    void close_agree(CommData& cd, FtRendezvous& rv);
    void close_shrink(CommData& cd, FtRendezvous& rv);
    void close_split(CommData& cd, FtRendezvous& rv);

    int wait_one(RequestData& rd, Status* st);
    /// Shared body of the read/write family.  @p at_offset < 0 means
    /// "use (and advance) the individual file pointer".  @p op names
    /// the user-level call (a string literal) for the flight recorder's
    /// Io event.
    int file_transfer(File fh, const char* op, std::int64_t at_offset, void* rbuf,
                      const void* wbuf, int count, Datatype dt, Status* st,
                      bool collective);
    /// Charges the simulated filesystem cost for an @p bytes transfer.
    void file_io_cost(std::int64_t bytes);

    // ---- RMA data plane ----------------------------------------------------
    int rma_check(const WinData& w, int ocount, Datatype odt, int trank,
                  std::int64_t tdisp, int tcount, Datatype tdt) const;
    /// Executes (or, for Mpich start epochs, stages) one Put/Get/
    /// Accumulate against @p trank's shard.  Immediate ops are
    /// direct-apply: one memcpy between the user buffer and the target
    /// window memory under that shard's mutex, no staging copy.
    int rma_run_op(Win win, WinData& w, PendingRmaOp::Kind kind, const void* src,
                   void* dst, int trank, std::int64_t tdisp, Datatype dt, Op op,
                   std::int64_t nbytes);
    /// Blocks until @p target's exposure epoch admits this origin,
    /// then records the origin in its started set.  Token-parked with
    /// the PR 3 liveness contract.
    int rma_wait_exposure(WinData& w, WinShard& sh, int target);
    /// Thread-local Table-1 staging for one window: ops bump these
    /// plain fields; sync calls flush them to WinCounters.
    struct RmaStage {
        std::int64_t put_ops = 0, get_ops = 0, acc_ops = 0;
        std::int64_t put_bytes = 0, get_bytes = 0, acc_bytes = 0;
    };
    /// RAII sync-call epilogue (defined in rank_rma.cpp): times the
    /// call and flushes the staged counters on destruction.
    class RmaSyncScope;
    /// Flushes this rank's staged counters for @p win and charges one
    /// sync op plus @p wait_ns of sync wait (passive- or active-target
    /// bucket) to the window's tool-visible counters.  @p call names
    /// the synchronization call (a string literal) for the flight
    /// recorder's epoch-transition and op-batch events.
    void rma_sync_flush(Win win, const char* call, bool passive, std::int64_t wait_ns);
    /// Residual flush for windows never synchronized again before
    /// MPI_Finalize (counters must not lose trailing ops).
    void rma_flush_all_stages();
    /// Window memory is user memory -- on a fiber stack, it dies with
    /// the rank's unwind.  Called before every RankKilled throw (and
    /// from MPI_Finalize): clears has_member under each shard mutex so
    /// an in-flight direct apply finishes first and every later access
    /// gets MPI_ERR_PROC_FAILED instead of a dangling-base memcpy.
    void rma_detach_all() const;

    World& world_;
    int global_;
    bool initialized_ = false;
    bool finalized_ = false;
    int thread_level_ = MPI_THREAD_SINGLE;
    bool in_profiling_wrapper_ = false;
    std::map<Comm, int> coll_seq_;
    /// Active access epochs started with MPI_Win_start: target globals.
    std::map<Win, std::vector<int>> start_epochs_;
    /// Passive-target locks currently held: win -> target globals.
    std::map<Win, std::vector<int>> held_locks_;
    /// Per-window staged Table-1 counters (this rank's ops since its
    /// last sync call on that window).  Owned by the rank thread.
    std::map<Win, RmaStage> rma_stage_;
    /// Windows this rank populated a shard in (MPI_Win_create); what
    /// rma_detach_all walks.  Owned by the rank thread.
    std::vector<Win> member_wins_;
    /// MPI_Comm_failure_ack snapshots: comm -> failed members (global
    /// ranks) known at ack time.  Owned by the rank thread.
    std::map<Comm, std::vector<int>> acked_failures_;
};

}  // namespace m2p::simmpi
