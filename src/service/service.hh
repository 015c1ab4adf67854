/**
 * @file
 * SolverService: the long-running, multi-tenant solver runtime the
 * ROADMAP's north star calls for, embedded as a library.
 *
 * A request names a tenant, a system (matrix + RHS + operator
 * config), a solver kind, and per-request execution controls
 * (deadline, priority, cancellation). submit() returns a
 * RequestHandle immediately: admission either grants a queue slot
 * and a tenant ticket, or completes the handle right away with
 * SolveStatus::Overloaded -- the service never blocks a caller on a
 * full queue. Admission routes the request to its home shard by
 * operator key; dispatch serves, within the highest priority band,
 * the tenant owed service under weighted fair share, earliest
 * deadline first (scheduler.hh), coalesces same-operator CG
 * requests already in the shard's queue into one panel, resolves
 * the prepared operator through the keyed PrepareCache (one replica
 * per shard, keyed by the key admission computed), and runs the
 * solve with the request's ExecContext attached, so cancel() and
 * deadlines land mid-iteration. Every CG batch, singleton or panel,
 * is one runCg() over the requests' own CgStates (solver/solver.hh).
 * A short-deadline arrival can ask a running singleton CG solve to
 * yield at its next iteration boundary: the request re-queues
 * holding its parked CgState, and its next dispatch resumes that
 * state in place (cooperative preemption; the resumed solve is
 * bitwise identical to an uninterrupted one).
 *
 * Determinism: with workers = 0 the service runs no threads; the
 * caller pumps dispatches on its own thread with runUntilIdle(),
 * and every scheduler decision, cache population, and solve result
 * is a pure function of the submission sequence -- the replay tests
 * pin exactly that. With workers >= 1 the same pump runs on
 * background shard threads; per-request RESULTS stay bit-identical
 * (the panel/batch bitwise contracts), while decision interleaving
 * follows real scheduling.
 *
 * Coalescing changes no answer bit: a panel advances k
 * independent CG recurrences through one applyBatch per iteration,
 * and applyBatch is pinned bitwise to the k sequential applies, so
 * a coalesced request returns exactly the bits a solo solve
 * produces -- the batching window is purely a throughput lever.
 */

#ifndef MSC_SERVICE_SERVICE_HH
#define MSC_SERVICE_SERVICE_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "runtime/exec_context.hh"
#include "service/prepare_cache.hh"
#include "service/scheduler.hh"
#include "solver/solver.hh"

namespace msc {

/** One solve, as a tenant submits it. */
struct SolveRequest
{
    std::string tenant = "default";
    int priority = 0; //!< higher dispatches first
    /** The system. Not owned; must stay alive until the request is
     *  terminal (the prepare cache copies it on first sight of the
     *  content key, but admission hashes it in place). */
    const Csr *matrix = nullptr;
    /**
     * Alternative to `matrix`: resolve the system from a file at
     * submission. A valid sidecar artifact (path + ".mscbin", see
     * sparse/binio.hh) or a direct .mscbin path is mapped zero-copy
     * -- admission then keys the cache from the artifact's stored
     * digest and a cache miss skips parse+preprocess -- while plain
     * Matrix Market text falls back to parsing. Loaded matrices are
     * kept in a bounded LRU (ServiceConfig::loadedCapBytes), so
     * repeat submissions of the same path share one mapping without
     * letting many distinct paths grow memory without bound; a path
     * whose file mtime changed since it was loaded is reloaded, so
     * a regenerated matrix is never served stale. Ignored when
     * `matrix` is set; a load failure completes the request as
     * Failed.
     */
    std::string matrixFile;
    OperatorConfig op; //!< backend + placement/device config
    std::vector<double> b; //!< right-hand side (owned)
    SolverKind kind = SolverKind::Cg;
    double tolerance = 1e-10;
    int maxIterations = 5000;
    /** Relative deadline, armed at submission; zero = none. Expires
     *  queued requests at dispatch and running solves at the next
     *  iteration poll. */
    std::chrono::nanoseconds deadline{0};
    /** Chaos/testing surface: fire the request's cancel token on
     *  the n-th ExecContext poll (see cancelAfterChecks). */
    std::uint64_t cancelAfterChecks = 0;
    /** Chaos/testing surface: raise the request's yield flag on the
     *  n-th ExecContext poll, forcing a cooperative preemption at
     *  the next iteration boundary of a singleton CG solve (the
     *  deterministic stand-in
     *  for the deadline-driven trigger, which needs real worker
     *  concurrency to fire). Zero = never. */
    std::uint64_t yieldAfterChecks = 0;
};

enum class RequestState
{
    Queued,
    Running,
    Done,
};

/** Terminal record of one request. */
struct RequestResult
{
    /** Structured outcome. Overloaded = rejected at admission;
     *  Failed = an execution fault (alloc failure, worker crash)
     *  surfaced as a status instead of an exception. */
    SolveStatus status = SolveStatus::Failed;
    SolverResult solve;    //!< solver record (when a solve ran)
    std::vector<double> x; //!< solution iterate (empty if rejected)
    bool coalesced = false; //!< ran inside a coalesced CG panel
    unsigned batchWidth = 1; //!< panel width it dispatched in
    bool cacheHit = false;  //!< prepared operator came from cache
    /** Times the solve yielded at an iteration boundary and was
     *  re-queued
     *  before reaching this terminal state. The result is bitwise
     *  identical to an uninterrupted solve regardless. */
    unsigned preemptions = 0;
    std::string error;      //!< Failed: what happened
};

namespace servicedetail {
struct PendingRequest;
struct ServiceCore;
} // namespace servicedetail

/**
 * Caller-side view of one submitted request. Copyable; all copies
 * observe the same request. A default-constructed handle is
 * invalid.
 */
class RequestHandle
{
  public:
    RequestHandle() = default;

    bool valid() const { return static_cast<bool>(p); }
    std::uint64_t id() const;
    RequestState state() const;
    bool done() const { return state() == RequestState::Done; }

    /**
     * Block until terminal and return the result (valid for the
     * handle's lifetime). With workers = 0 nothing advances the
     * queue in the background: pump SolverService::runUntilIdle()
     * before waiting.
     */
    const RequestResult &wait() const;

    /**
     * Fire the request's cancel token. A queued request is reaped
     * at the next dispatch; a running one stops at its next
     * iteration poll with the last completed iterate. Idempotent.
     */
    void cancel();

  private:
    friend class SolverService;
    std::shared_ptr<servicedetail::PendingRequest> p;
    std::shared_ptr<servicedetail::ServiceCore> core;
};

struct ServiceConfig
{
    /** Shard worker threads. 0 = deterministic manual mode: the
     *  caller pumps with runUntilIdle() (all shards, round-robin)
     *  or pumpShard(). Worker w serves shard w mod shards, so
     *  workers >= scheduler.shards keeps every shard draining. */
    int workers = 0;
    AdmissionScheduler::Config scheduler;
    std::size_t cacheBytes = 256ull << 20;
    /** Cap on matrices resolved from `matrixFile` paths (parsed
     *  bytes or mapped artifact file bytes). Least-recently-used
     *  unreferenced entries are evicted past the cap; entries still
     *  pinned by a live request are never evicted underneath it. */
    std::size_t loadedCapBytes = 256ull << 20;
};

/** Aggregate service counters (monotonic since construction). */
struct ServiceStats
{
    std::uint64_t submitted = 0;
    std::uint64_t rejected = 0; //!< Overloaded at admission
    std::uint64_t completed = 0; //!< solver ran to a terminal state
    std::uint64_t cancelled = 0;
    std::uint64_t deadlineExpired = 0;
    std::uint64_t failed = 0;  //!< execution faults
    std::uint64_t batches = 0; //!< dispatches (any width)
    std::uint64_t coalescedBatches = 0; //!< dispatches with k > 1
    /** Cooperative mid-solve yields that were re-queued. */
    std::uint64_t preempted = 0;
    /** Batches an idle shard stole from another shard's queue. */
    std::uint64_t migrated = 0;
    /** Dispatches executed per shard (index = shard). */
    std::vector<std::uint64_t> shardDispatches;
};

class SolverService
{
  public:
    explicit SolverService(const ServiceConfig &config = {});
    ~SolverService();

    SolverService(const SolverService &) = delete;
    SolverService &operator=(const SolverService &) = delete;

    const ServiceConfig &config() const { return cfg; }

    /**
     * Override one tenant's ticket allowance. Safe mid-traffic:
     * live requests keep their tickets and drain normally; the new
     * limit gates admissions from the next submit on.
     */
    void setTenantTickets(const std::string &tenant, int tickets);

    /** Fair-share weight for one tenant (default 1.0). Dispatch
     *  order under contention follows weights; tickets still bound
     *  live requests. */
    void setTenantWeight(const std::string &tenant, double weight);

    /**
     * Admit a request. Never blocks: a full queue or an
     * out-of-tickets tenant yields an immediately-terminal handle
     * with SolveStatus::Overloaded.
     */
    RequestHandle submit(SolveRequest req);

    /**
     * Drain the queue on the calling thread: dispatch-and-solve
     * across all shards, round-robin, until no dispatchable work
     * remains. The manual-mode pump; safe (if pointless) to call
     * while workers run.
     */
    void runUntilIdle();

    /**
     * One dispatch cycle for @p shard on the calling thread (reap,
     * then dispatch-and-solve one batch; an empty shard migrates
     * work per the scheduler's policy). Returns false when nothing
     * was dispatched or reaped. Deterministic single-shard stepping
     * for tests and benches.
     */
    bool pumpShard(unsigned shard);

    /**
     * Stop accepting work, reap every queued request as Cancelled,
     * finish in-flight solves, and join the workers. Idempotent;
     * the destructor calls it.
     */
    void stop();

    ServiceStats stats() const;
    PrepareCache::Stats cacheStats() const;
    /** Entries / bytes currently held by the matrixFile LRU. */
    std::size_t loadedMatrixCount() const;
    std::size_t loadedMatrixBytes() const;
    std::size_t queueDepth() const;
    /** Snapshot of the scheduler's replayable decision log: the
     *  newest AdmissionScheduler::decisionLogCap decisions. */
    std::vector<Decision> decisionLog() const;
    /** Canonical serialization of the decision log (replays of one
     *  submission sequence produce byte-identical text). */
    std::string decisionLogText() const;

  private:
    ServiceConfig cfg;
    std::shared_ptr<servicedetail::ServiceCore> core;
    std::vector<std::thread> workers;
};

} // namespace msc

#endif // MSC_SERVICE_SERVICE_HH
