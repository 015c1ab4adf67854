#include "service/service.hh"

#include <algorithm>
#include <filesystem>
#include <list>
#include <new>

#include "sparse/binio.hh"
#include "util/logging.hh"
#include "util/telemetry.hh"

namespace msc {

namespace {

constinit telemetry::Counter ctrSubmitted{"service.submitted"};
constinit telemetry::Counter ctrCompleted{"service.completed"};
constinit telemetry::Counter ctrCancelled{"service.cancelled"};
constinit telemetry::Counter
    ctrDeadlineExpired{"service.deadline_expired"};
constinit telemetry::Counter ctrFailed{"service.failed"};
constinit telemetry::Counter ctrBatches{"service.batches"};
constinit telemetry::Histogram hLatency{"service.latency_us"};
constinit telemetry::Histogram hQueueWait{"service.queue_wait_us"};
constinit telemetry::Histogram hSolve{"service.solve_us"};

} // namespace

namespace servicedetail {

struct PendingRequest
{
    std::uint64_t id = 0;
    SolveRequest req;
    ExecContext ctx;
    CacheKey key;
    /** CG recurrence and its iterate, from the first dispatch until
     *  the solve is done: a preempted request parks here and its
     *  next dispatch resumes it in place. Touched only by the thread
     *  executing the request (one dispatch at a time). */
    std::unique_ptr<CgState> cg;
    std::vector<double> x;
    unsigned preemptions = 0;
    /** File-resolved system (matrixFile submissions): pins the
     *  parsed matrix or artifact mapping while the request lives;
     *  req.matrix points into it. */
    std::shared_ptr<const LoadedMatrix> loaded;
    std::int64_t submitNs = 0;
    std::int64_t dispatchNs = 0;

    std::mutex mu;
    std::condition_variable cv;
    RequestState state = RequestState::Queued; //!< guarded by mu
    RequestResult result;                      //!< valid once Done
};

struct ServiceCore
{
    explicit ServiceCore(const ServiceConfig &cfg)
        : sched(cfg.scheduler), cache(cfg.cacheBytes),
          loadedCapBytes(cfg.loadedCapBytes)
    {
        runningPreemptible.resize(sched.shardCount());
        shardBusyNs.assign(sched.shardCount(), 0);
    }

    /** Resolve @p path through the bounded loaded-matrix LRU:
     *  reuse a fresh entry, reload a path whose file mtime changed
     *  (a regenerated matrix must never be served stale), and evict
     *  least-recently-used unreferenced entries past the byte cap
     *  -- tenant-supplied paths must not grow memory without bound.
     *  Throws FatalError (MatrixMarketError/BinioError) on a bad
     *  file. */
    std::shared_ptr<const LoadedMatrix>
    resolveMatrixFile(const std::string &path);

    std::mutex mu;
    std::condition_variable work; //!< workers: queue or stop signal
    AdmissionScheduler sched;
    PrepareCache cache;
    /** Bounded path -> resolved matrix LRU, so repeat submissions
     *  share one mapping/parse. Guarded by loadMu, not mu: loading
     *  parses files and must not stall the dispatch path. */
    std::mutex loadMu;
    struct LoadedEntry
    {
        std::shared_ptr<const LoadedMatrix> loaded;
        std::filesystem::file_time_type mtime{};
        std::size_t bytes = 0;
        std::list<std::string>::iterator lruPos;
    };
    std::unordered_map<std::string, LoadedEntry> loadedByPath;
    std::list<std::string> loadedLru; //!< most recent first
    std::size_t loadedBytes = 0;
    const std::size_t loadedCapBytes;
    std::unordered_map<std::uint64_t,
                       std::shared_ptr<PendingRequest>>
        pendings; //!< queued + running
    /** Per shard: the singleton CG solve it is executing, the one
     *  kind of solve that can yield (the preempt trigger's victims).
     *  Guarded by mu; null when the shard is idle or running
     *  non-preemptible work. */
    std::vector<std::shared_ptr<PendingRequest>> runningPreemptible;
    std::vector<std::uint64_t> shardBusyNs; //!< wall ns, guarded by mu
    ServiceStats stats;
    std::uint64_t nextId = 1;
    bool stopping = false;
};

std::shared_ptr<const LoadedMatrix>
ServiceCore::resolveMatrixFile(const std::string &path)
{
    std::lock_guard lock(loadMu);
    std::error_code ec;
    const auto mtime = std::filesystem::last_write_time(path, ec);

    auto it = loadedByPath.find(path);
    if (it != loadedByPath.end()) {
        // Freshness gate: a rewritten file invalidates the pinned
        // entry. An unreadable timestamp keeps it (the file may be
        // gone while its bytes are still wanted).
        if (ec || mtime == it->second.mtime) {
            loadedLru.splice(loadedLru.begin(), loadedLru,
                             it->second.lruPos);
            return it->second.loaded;
        }
        loadedBytes -= it->second.bytes;
        loadedLru.erase(it->second.lruPos);
        loadedByPath.erase(it);
    }

    auto loaded = std::make_shared<const LoadedMatrix>(
        loadMatrixFile(path));
    LoadedEntry entry;
    entry.loaded = loaded;
    entry.mtime =
        ec ? std::filesystem::file_time_type{} : mtime;
    // Artifact entries hold mapped file pages; parsed entries hold
    // the owning CSR arrays.
    entry.bytes =
        loaded->artifact
            ? loaded->artifact->fileBytes()
            : loaded->csr.nnz() * 12 +
                  (static_cast<std::size_t>(loaded->csr.rows()) + 1) *
                      8;
    loadedBytes += entry.bytes;
    loadedLru.push_front(path);
    entry.lruPos = loadedLru.begin();
    loadedByPath.emplace(path, std::move(entry));

    // Least-recently-used first, skipping entries a live request
    // (or caller) still references: an eviction must never unmap a
    // matrix underneath its solve.
    auto lru = loadedLru.end();
    while (loadedBytes > loadedCapBytes &&
           lru != loadedLru.begin()) {
        --lru;
        auto mapIt = loadedByPath.find(*lru);
        if (mapIt == loadedByPath.end())
            continue;
        if (mapIt->second.loaded.use_count() > 1)
            continue; // pinned by a request: skip
        loadedBytes -= mapIt->second.bytes;
        loadedByPath.erase(mapIt);
        lru = loadedLru.erase(lru);
    }
    return loaded;
}

namespace {

/** Mark @p p terminal and wake its waiters. Never called twice. */
void
finalize(PendingRequest &p, RequestResult result)
{
    {
        std::lock_guard lock(p.mu);
        p.result = std::move(result);
        p.state = RequestState::Done;
    }
    p.cv.notify_all();
    const double latencyUs =
        double(telemetry::nowNs() - p.submitNs) / 1000.0;
    hLatency.observe(latencyUs);
    telemetry::addCounterNamed(
        "service.tenant." + p.req.tenant + ".completed");
}

/** Book a terminal status into the aggregate stats (core.mu held). */
void
bookStatus(ServiceStats &stats, SolveStatus status)
{
    switch (status) {
      case SolveStatus::Cancelled:
        ++stats.cancelled;
        ctrCancelled.add();
        break;
      case SolveStatus::DeadlineExceeded:
        ++stats.deadlineExpired;
        ctrDeadlineExpired.add();
        break;
      case SolveStatus::Failed:
        ++stats.failed;
        ctrFailed.add();
        break;
      case SolveStatus::Overloaded:
        ++stats.rejected;
        break;
      default:
        ++stats.completed;
        ctrCompleted.add();
        break;
    }
}

/** Reap queued requests whose cancel/deadline fired before
 *  dispatch (core.mu held). Returns the reaped requests with their
 *  terminal status already decided. */
std::vector<std::pair<std::shared_ptr<PendingRequest>, SolveStatus>>
reapQueued(ServiceCore &core)
{
    std::vector<std::pair<std::shared_ptr<PendingRequest>,
                          SolveStatus>>
        reaped;
    for (std::uint64_t id : core.sched.queuedIds()) {
        auto it = core.pendings.find(id);
        if (it == core.pendings.end())
            continue;
        PendingRequest &p = *it->second;
        const bool cancelled = p.ctx.cancelled();
        if (!cancelled && !p.ctx.expired())
            continue;
        const SolveStatus status = cancelled
                                       ? SolveStatus::Cancelled
                                       : SolveStatus::DeadlineExceeded;
        core.sched.drop(id, status);
        bookStatus(core.stats, status);
        reaped.emplace_back(it->second, status);
        core.pendings.erase(it);
    }
    return reaped;
}

RequestResult
stoppedResult(SolveStatus status, std::size_t n)
{
    RequestResult r;
    r.status = status;
    r.solve.status = status;
    r.solve.vectorLength = n;
    r.x.assign(n, 0.0);
    return r;
}

/** Run one dispatched batch to completion (no core lock held);
 *  @p shard is the executing shard (prepare-cache replica index,
 *  busy accounting, preempt-victim registry). */
void
executeBatch(
    ServiceCore &core,
    const std::vector<std::shared_ptr<PendingRequest>> &batch,
    unsigned shard)
{
    PendingRequest &head = *batch.front();
    const auto k = static_cast<unsigned>(batch.size());
    const std::int64_t execT0 = telemetry::nowNs();

    bool cacheHit = false;
    std::shared_ptr<PreparedOperator> entry;
    std::vector<RequestResult> results(k);
    bool failed = false;
    std::string error;
    try {
        // Each shard solves on its own prepared replica, so shards
        // never serialize on one entry's exec mutex. The key is the
        // one admission computed: no second O(nnz) content hash.
        entry = core.cache.acquireKeyed(
            head.key, shard, &cacheHit, [&](CacheKey key) {
                return head.loaded && head.loaded->artifact
                           ? std::make_shared<PreparedOperator>(
                                 head.loaded->artifact, head.req.op,
                                 key)
                           : std::make_shared<PreparedOperator>(
                                 *head.req.matrix, head.req.op, key);
            });
        const auto n =
            static_cast<std::size_t>(entry->matrix().rows());
        // One logical operation at a time per shared entry: the
        // accelerator backends' scratch is per-instance.
        std::lock_guard opLock(entry->opMutex());
        telemetry::Timer solveTimer(hSolve);
        if (head.req.kind == SolverKind::Cg) {
            // Every CG batch -- a singleton, a resumed singleton or
            // a coalesced panel -- is one runCg() over the requests'
            // own states; a panel column returns exactly the bits of
            // a solo solve.
            std::vector<CgState *> states(k);
            for (unsigned c = 0; c < k; ++c) {
                PendingRequest &p = *batch[c];
                if (!p.cg) {
                    p.x.assign(n, 0.0);
                    SolverConfig scfg;
                    scfg.tolerance = p.req.tolerance;
                    scfg.maxIterations = p.req.maxIterations;
                    scfg.exec = &p.ctx;
                    p.cg = std::make_unique<CgState>(p.req.b, p.x,
                                                     scfg);
                }
                states[c] = p.cg.get();
            }
            // A singleton yields when its context asks (the preempt
            // trigger or yieldAfterChecks); a flag left over from
            // its previous segment must not park it again at once.
            if (k == 1)
                head.ctx.clearYield();
            runCg(entry->op(), states);
            for (unsigned c = 0; c < k; ++c) {
                PendingRequest &p = *batch[c];
                RequestResult &res = results[c];
                res.solve = p.cg->result();
                res.status = res.solve.status;
                res.coalesced = k > 1;
                if (p.cg->done()) {
                    p.cg.reset();
                    res.x = std::move(p.x);
                }
            }
        } else {
            RequestResult &res = results[0];
            res.x.assign(n, 0.0);
            SolverConfig scfg;
            scfg.tolerance = head.req.tolerance;
            scfg.maxIterations = head.req.maxIterations;
            scfg.exec = &head.ctx;
            res.solve = head.req.kind == SolverKind::Gmres
                            ? gmres(entry->op(), head.req.b, res.x,
                                    scfg)
                            : biCgStab(entry->op(), head.req.b,
                                       res.x, scfg);
            res.status = res.solve.status;
        }
    } catch (const PanicError &) {
        throw; // programming error: never absorb
    } catch (const BinioError &e) {
        // A bad artifact surfacing at prepare time (e.g. a forged
        // plan that decodePlan rejects): the tenant's input, not a
        // service invariant -- fail the request, keep serving.
        failed = true;
        error = e.what();
    } catch (const FatalError &) {
        throw; // config/usage error: never absorb
    } catch (const CancelledError &e) {
        // A stop that fired inside prepare() (cache build) rather
        // than inside a solve: the solvers translate their own.
        failed = true;
        for (auto &res : results) {
            res.status = e.status();
            res.solve.status = e.status();
        }
    } catch (const std::bad_alloc &) {
        failed = true;
        error = "allocation failure";
    } catch (const std::exception &e) {
        failed = true;
        error = e.what();
    }
    if (failed && !error.empty()) {
        for (auto &res : results) {
            res.status = SolveStatus::Failed;
            res.solve.status = SolveStatus::Failed;
            res.error = error;
        }
    }

    const std::int64_t execNs = telemetry::nowNs() - execT0;
    const bool preempted =
        !failed && k == 1 &&
        results[0].solve.status == SolveStatus::Preempted;

    if (preempted) {
        bool requeued = false;
        {
            std::lock_guard lock(core.mu);
            if (shard < core.runningPreemptible.size())
                core.runningPreemptible[shard] = nullptr;
            core.shardBusyNs[shard] +=
                static_cast<std::uint64_t>(execNs);
            ++core.stats.batches;
            ctrBatches.add();
            if (!core.stopping) {
                // Park it back in its home shard's queue: the
                // ticket and pendings entry stay held, so a resume
                // can never be rejected or lost. coalescable=false:
                // a mid-recurrence resume must not join a panel.
                QueueEntry entry;
                entry.id = head.id;
                entry.tenant = head.req.tenant;
                entry.priority = head.req.priority;
                entry.coalescable = false;
                entry.key = head.key;
                entry.deadlineNs =
                    head.req.deadline.count() > 0
                        ? static_cast<std::uint64_t>(
                              head.req.deadline.count())
                        : 0;
                core.sched.requeuePreempted(entry);
                ++core.stats.preempted;
                ++head.preemptions;
                {
                    std::lock_guard plock(head.mu);
                    head.state = RequestState::Queued;
                }
                requeued = true;
            } else {
                // Stopping: a parked recurrence has no dispatcher
                // left to resume it -- finish it as Cancelled and
                // release its ticket (the stop/drain contract: no
                // stranded pendings, no leaked tickets).
                core.sched.complete(head.req.tenant);
                bookStatus(core.stats, SolveStatus::Cancelled);
                core.pendings.erase(head.id);
            }
        }
        if (requeued) {
            core.work.notify_all();
        } else {
            finalize(head, stoppedResult(SolveStatus::Cancelled,
                                         head.req.b.size()));
        }
        return;
    }

    for (unsigned c = 0; c < k; ++c) {
        results[c].cacheHit = cacheHit;
        results[c].batchWidth = k;
        results[c].preemptions = batch[c]->preemptions;
        hQueueWait.observe(
            double(batch[c]->dispatchNs - batch[c]->submitNs) /
            1000.0);
    }

    {
        std::lock_guard lock(core.mu);
        if (shard < core.runningPreemptible.size())
            core.runningPreemptible[shard] = nullptr;
        core.shardBusyNs[shard] +=
            static_cast<std::uint64_t>(execNs);
        if (telemetry::metricsActive())
            telemetry::setGaugeNamed(
                "service.shard." + std::to_string(shard) +
                    ".busy_ns",
                static_cast<double>(core.shardBusyNs[shard]));
        for (unsigned c = 0; c < k; ++c) {
            core.sched.complete(batch[c]->req.tenant);
            bookStatus(core.stats, results[c].status);
            core.pendings.erase(batch[c]->id);
        }
        ++core.stats.batches;
        ctrBatches.add();
        if (k > 1)
            ++core.stats.coalescedBatches;
    }
    for (unsigned c = 0; c < k; ++c)
        finalize(*batch[c], std::move(results[c]));
}

/** One dispatch cycle for @p shard. Returns false when nothing was
 *  dispatched or reaped. */
bool
pumpOne(ServiceCore &core, unsigned shard)
{
    std::vector<std::shared_ptr<PendingRequest>> batch;
    std::vector<std::pair<std::shared_ptr<PendingRequest>,
                          SolveStatus>>
        reaped;
    {
        std::lock_guard lock(core.mu);
        reaped = reapQueued(core);
        for (const QueueEntry &e : core.sched.nextBatch(shard)) {
            auto it = core.pendings.find(e.id);
            if (it != core.pendings.end())
                batch.push_back(it->second);
        }
        // Register the preempt-trigger victim while still under the
        // lock that admits new requests: a shorter-deadline submit
        // sees this solve as running the moment we dispatch it.
        if (batch.size() == 1 &&
            batch.front()->req.kind == SolverKind::Cg &&
            shard < core.runningPreemptible.size())
            core.runningPreemptible[shard] = batch.front();
    }
    for (auto &[p, status] : reaped)
        finalize(*p, stoppedResult(status, p->req.b.size()));
    if (batch.empty())
        return !reaped.empty();

    const std::int64_t now = telemetry::nowNs();
    for (auto &p : batch) {
        std::lock_guard lock(p->mu);
        p->state = RequestState::Running;
        p->dispatchNs = now;
    }
    executeBatch(core, batch, shard);
    return true;
}

} // namespace

} // namespace servicedetail

using servicedetail::PendingRequest;
using servicedetail::ServiceCore;

std::uint64_t
RequestHandle::id() const
{
    return p ? p->id : 0;
}

RequestState
RequestHandle::state() const
{
    if (!p)
        return RequestState::Done;
    std::lock_guard lock(p->mu);
    return p->state;
}

const RequestResult &
RequestHandle::wait() const
{
    if (!p)
        panic("RequestHandle::wait: invalid handle");
    std::unique_lock lock(p->mu);
    p->cv.wait(lock,
               [&] { return p->state == RequestState::Done; });
    return p->result;
}

void
RequestHandle::cancel()
{
    if (!p)
        return;
    p->ctx.token().cancel();
    if (core)
        core->work.notify_all();
}

SolverService::SolverService(const ServiceConfig &config)
    : cfg(config),
      core(std::make_shared<ServiceCore>(config))
{
    // Worker w serves shard w mod shards: every shard keeps a
    // dispatch stream, surplus workers double up on low shards.
    const unsigned shards = core->sched.shardCount();
    for (int w = 0; w < cfg.workers; ++w) {
        const unsigned shard = static_cast<unsigned>(w) % shards;
        workers.emplace_back([c = core, shard] {
            for (;;) {
                if (servicedetail::pumpOne(*c, shard))
                    continue;
                std::unique_lock lock(c->mu);
                if (c->stopping)
                    return;
                c->work.wait(lock, [&] {
                    return c->stopping ||
                           c->sched.runnable(shard);
                });
                if (c->stopping)
                    return;
            }
        });
    }
}

SolverService::~SolverService()
{
    stop();
}

void
SolverService::setTenantTickets(const std::string &tenant,
                                int tickets)
{
    std::lock_guard lock(core->mu);
    core->sched.setTenantTickets(tenant, tickets);
}

void
SolverService::setTenantWeight(const std::string &tenant,
                               double weight)
{
    std::lock_guard lock(core->mu);
    core->sched.setTenantWeight(tenant, weight);
}

RequestHandle
SolverService::submit(SolveRequest req)
{
    auto p = std::make_shared<PendingRequest>();
    p->req = std::move(req);
    p->submitNs = telemetry::nowNs();

    RequestHandle handle;
    handle.p = p;
    handle.core = core;

    SolveRequest &r = p->req;
    std::string loadError;
    if (r.matrix == nullptr && !r.matrixFile.empty()) {
        try {
            p->loaded = core->resolveMatrixFile(r.matrixFile);
            r.matrix = &p->loaded->csr;
        } catch (const FatalError &e) {
            // MatrixMarketError / BinioError: a bad file is the
            // tenant's input, not a service invariant -- surface it
            // as a Failed result, keep serving.
            loadError = e.what();
        }
    }
    if (r.matrix == nullptr || r.matrix->rows() != r.matrix->cols() ||
        r.b.size() != static_cast<std::size_t>(r.matrix->rows())) {
        RequestResult bad;
        bad.status = SolveStatus::Failed;
        bad.error = loadError.empty()
                        ? "malformed request: matrix/RHS mismatch"
                        : loadError;
        {
            std::lock_guard lock(core->mu);
            ++core->stats.submitted;
            servicedetail::bookStatus(core->stats, SolveStatus::Failed);
        }
        servicedetail::finalize(*p, std::move(bad));
        return handle;
    }

    if (r.deadline.count() > 0)
        p->ctx.setDeadline(ExecContext::Clock::now() + r.deadline);
    if (r.cancelAfterChecks > 0)
        p->ctx.cancelAfterChecks(r.cancelAfterChecks);
    if (r.yieldAfterChecks > 0)
        p->ctx.yieldAfterChecks(r.yieldAfterChecks);
    // Artifact submissions key from the stored digest: admission
    // cost is O(1) in the matrix size instead of an O(nnz) hash.
    p->key = (p->loaded && p->loaded->artifact)
                 ? operatorKeyFrom(p->loaded->artifact->matrixKey(),
                                   r.op)
                 : operatorKey(*r.matrix, r.op);

    QueueEntry entry;
    entry.tenant = r.tenant;
    entry.priority = r.priority;
    entry.coalescable = r.kind == SolverKind::Cg;
    entry.key = p->key;
    entry.deadlineNs =
        r.deadline.count() > 0
            ? static_cast<std::uint64_t>(r.deadline.count())
            : 0;

    bool admitted = false;
    {
        std::lock_guard lock(core->mu);
        ++core->stats.submitted;
        ctrSubmitted.add();
        if (!core->stopping) {
            p->id = core->nextId++;
            entry.id = p->id;
            admitted = core->sched.tryAdmit(entry);
        }
        if (admitted) {
            core->pendings.emplace(p->id, p);
            // Preempt trigger: a deadline request asks any running
            // preemptible solve with no deadline (or a later one)
            // and no higher priority to yield at its next iteration
            // boundary. Cooperative and best-effort: the victim
            // re-queues, this request overtakes it by EDF. In
            // manual-pump mode nothing runs during submit, so the
            // trigger is inert there (tests use yieldAfterChecks).
            if (entry.deadlineNs > 0) {
                for (const auto &running :
                     core->runningPreemptible) {
                    if (!running || running->id == p->id)
                        continue;
                    const auto victimNs =
                        running->req.deadline.count();
                    const bool laterDeadline =
                        victimNs <= 0 ||
                        static_cast<std::uint64_t>(victimNs) >
                            entry.deadlineNs;
                    if (laterDeadline &&
                        running->req.priority <= r.priority)
                        running->ctx.requestYield();
                }
            }
        } else {
            servicedetail::bookStatus(core->stats, SolveStatus::Overloaded);
        }
    }
    if (!admitted) {
        RequestResult rejected;
        rejected.status = SolveStatus::Overloaded;
        rejected.solve.status = SolveStatus::Overloaded;
        servicedetail::finalize(*p, std::move(rejected));
        return handle;
    }
    core->work.notify_all();
    return handle;
}

void
SolverService::runUntilIdle()
{
    const unsigned shards = core->sched.shardCount();
    for (;;) {
        bool any = false;
        for (unsigned s = 0; s < shards; ++s)
            if (servicedetail::pumpOne(*core, s))
                any = true;
        if (!any)
            return;
    }
}

bool
SolverService::pumpShard(unsigned shard)
{
    if (shard >= core->sched.shardCount())
        return false;
    return servicedetail::pumpOne(*core, shard);
}

void
SolverService::stop()
{
    std::vector<std::shared_ptr<PendingRequest>> dropped;
    {
        std::lock_guard lock(core->mu);
        core->stopping = true;
        for (std::uint64_t id : core->sched.queuedIds()) {
            auto it = core->pendings.find(id);
            if (it == core->pendings.end())
                continue;
            core->sched.drop(id, SolveStatus::Cancelled);
            servicedetail::bookStatus(core->stats, SolveStatus::Cancelled);
            dropped.push_back(it->second);
            core->pendings.erase(it);
        }
    }
    core->work.notify_all();
    for (auto &p : dropped)
        servicedetail::finalize(
            *p, servicedetail::stoppedResult(SolveStatus::Cancelled,
                                             p->req.b.size()));
    for (std::thread &t : workers)
        t.join();
    workers.clear();
}

ServiceStats
SolverService::stats() const
{
    std::lock_guard lock(core->mu);
    ServiceStats s = core->stats;
    s.migrated = core->sched.migrations();
    s.shardDispatches = core->sched.shardDispatches();
    return s;
}

PrepareCache::Stats
SolverService::cacheStats() const
{
    return core->cache.stats();
}

std::size_t
SolverService::loadedMatrixCount() const
{
    std::lock_guard lock(core->loadMu);
    return core->loadedByPath.size();
}

std::size_t
SolverService::loadedMatrixBytes() const
{
    std::lock_guard lock(core->loadMu);
    return core->loadedBytes;
}

std::size_t
SolverService::queueDepth() const
{
    std::lock_guard lock(core->mu);
    return core->sched.queueDepth();
}

std::vector<Decision>
SolverService::decisionLog() const
{
    std::lock_guard lock(core->mu);
    const std::deque<Decision> &log = core->sched.decisions();
    return {log.begin(), log.end()};
}

std::string
SolverService::decisionLogText() const
{
    std::lock_guard lock(core->mu);
    return core->sched.dumpDecisions();
}

} // namespace msc
