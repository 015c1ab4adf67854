/**
 * @file
 * Admission scheduler: ticket-style per-tenant accounting, a bounded
 * queue with structured Overloaded rejection, weighted fair-share
 * dispatch (start-time fair queueing) with earliest-deadline-first
 * ordering inside a priority band, sharded per-accelerator queues
 * with work migration, and same-operator coalescing within a
 * request-count batching window.
 *
 * The scheduler is a pure data structure -- no threads, no clocks.
 * The service drives it under one lock, and every decision depends
 * only on the sequence of calls, so a fixed submission order replays
 * an identical decision log (the replay-determinism contract the
 * tests pin). That is also why the batching window is counted in
 * requests present in the queue at dispatch time, never in wall
 * time: a window of w coalesces min(w, queued same-key requests)
 * and NEVER waits for more to arrive, so w = 1 degenerates to
 * sequential dispatch and timing cannot change any decision. For
 * the same reason EDF keys on the *relative* deadline each request
 * was submitted with (0 = none, sorted last), not on an absolute
 * wall-clock expiry: the ordering is a pure function of the
 * submission sequence. That is a deliberate approximation -- two
 * requests with equal relative deadlines submitted far apart tie on
 * the EDF key and fall back to submission order -- bought for
 * byte-identical replay.
 *
 * Ticket accounting (after the accelerator-allocation scheme in
 * virtual-acc-app): each tenant holds a fixed number of tickets;
 * one live (queued or running) request consumes one ticket, ticket
 * exhaustion -- like queue overflow -- rejects at admission with
 * SolveStatus::Overloaded rather than blocking, so a flooding
 * tenant saturates its own allowance while others keep being
 * admitted (the fairness-under-saturation contract).
 *
 * Weighted fair share (start-time fair queueing, SFQ): each tenant
 * carries a weight (default 1). Admission stamps the request with a
 * start tag S = max(virtual time, tenant's last finish tag) and
 * advances the tenant's finish tag by 1/weight; dispatch picks, in
 * the highest priority band present, the tenant owning the minimum
 * start tag, then the earliest-deadline request of that tenant in
 * the band, and advances virtual time to the served start tag. A
 * tenant that floods only pushes its *own* tags into the future, so
 * a light tenant's requests keep dispatching at its weighted share.
 * Tickets bound live requests per tenant on top (admission control);
 * weights shape the order among admitted requests (dispatch).
 *
 * Sharding: entries are routed at admission by operator key
 * (shard = key mod shards), so repeated solves on one operator land
 * on one shard -- its prepare-cache replica stays warm and
 * same-operator coalescing stays shard-local. A shard whose queue
 * is empty migrates work from the deepest other queue (>= 2 deep,
 * lowest index on ties) instead of idling; the decision log records
 * the executing shard and the migration.
 */

#ifndef MSC_SERVICE_SCHEDULER_HH
#define MSC_SERVICE_SCHEDULER_HH

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/exec_context.hh"
#include "service/prepare_cache.hh"

namespace msc {

/** One queued unit of work, as the scheduler sees it. */
struct QueueEntry
{
    std::uint64_t id = 0;
    std::string tenant;
    int priority = 0;        //!< higher dispatches first
    bool coalescable = false; //!< CG-kind: may join a coalesced panel
    CacheKey key;            //!< prepare-cache key (coalesce match)
    /** Relative deadline at submission in nanoseconds; 0 = none
     *  (sorts last). The EDF key inside a priority band. */
    std::uint64_t deadlineNs = 0;
};

enum class DecisionKind
{
    Admit,    //!< ticket + queue slot granted
    Reject,   //!< Overloaded: queue full or tenant out of tickets
    Dispatch, //!< entry (or coalesced batch) handed to a shard
    Drop,     //!< reaped from the queue (cancel / deadline)
    Preempt,  //!< yielded mid-solve and re-queued (keeps its
              //!< ticket; bypasses the capacity bound)
};

const char *toString(DecisionKind kind);

/** One replayable scheduler decision. */
struct Decision
{
    DecisionKind kind = DecisionKind::Admit;
    std::uint64_t seq = 0;       //!< decision sequence number
    std::uint64_t requestId = 0; //!< head request
    std::string tenant;
    int priority = 0;
    /** Admit: home shard. Dispatch/Preempt: executing shard. */
    unsigned shard = 0;
    /** Dispatch only: batch was stolen from another shard's queue. */
    bool migrated = false;
    /** Dispatch: every coalesced request id, head first, in queue
     *  order. Singleton dispatches carry just the head. */
    std::vector<std::uint64_t> batch;
    /** Reject: Overloaded. Drop: Cancelled / DeadlineExceeded.
     *  Preempt: Preempted. */
    SolveStatus reason = SolveStatus::Converged;
};

class AdmissionScheduler
{
  public:
    struct Config
    {
        std::size_t queueCapacity = 64;
        int defaultTickets = 4;  //!< per-tenant live-request bound
        unsigned batchWindow = 1; //!< max requests per coalesced
                                  //!< dispatch (1 = no coalescing)
        unsigned shards = 1;      //!< dispatch queues (>= 1)
    };

    explicit AdmissionScheduler(const Config &config) : cfg(config)
    {
        queues.resize(cfg.shards == 0 ? 1 : cfg.shards);
        dispatchesPerShard.assign(queues.size(), 0);
    }

    const Config &config() const { return cfg; }

    unsigned
    shardCount() const
    {
        return static_cast<unsigned>(queues.size());
    }

    /** Home shard of an operator key (admission routing). */
    unsigned
    shardOf(const CacheKey &key) const
    {
        return static_cast<unsigned>((key.hi ^ key.lo) %
                                     queues.size());
    }

    /**
     * Override one tenant's ticket allowance. Safe mid-traffic:
     * the limit only gates future admissions -- live requests
     * (queued or running) keep the tickets they already hold and
     * drain normally, so lowering a limit below a tenant's current
     * live count never strands a queued request; it just blocks new
     * admissions until enough complete. Negative values clamp to 0.
     */
    void
    setTenantTickets(const std::string &tenant, int tickets)
    {
        limits[tenant] = tickets < 0 ? 0 : tickets;
    }

    /**
     * Fair-share weight (default 1.0; clamped to >= 1e-6). A tenant
     * with weight w receives a w-proportional share of dispatches
     * under contention. Takes effect for admissions after the call;
     * already-stamped start tags are not rewritten (determinism).
     */
    void
    setTenantWeight(const std::string &tenant, double weight)
    {
        weights[tenant] = weight < 1e-6 ? 1e-6 : weight;
    }

    /**
     * Admission: grants a queue slot + one tenant ticket, stamps the
     * fair-share start tag, and routes the entry to its home shard;
     * or records a Reject decision and returns false (the caller
     * completes the request as Overloaded).
     */
    bool tryAdmit(const QueueEntry &entry);

    /**
     * Dispatch for @p shard: in the highest priority band present,
     * the tenant owning the minimum fair-share start tag is served,
     * taking its earliest-deadline entry in the band (deadline 0
     * sorts last; ties fall back to request id, i.e. submission
     * order). When the shard's own queue is empty, the batch is
     * migrated from the deepest other queue (>= 2 entries). When
     * the dispatched head is coalescable and the window allows,
     * every same-key coalescable entry already in the *source*
     * queue (any tenant, any priority -- riding along only ever
     * helps them) joins the batch, up to batchWindow entries, in
     * queue order. Returns the batch in dispatch order (empty when
     * nothing is runnable). Tickets stay held until complete().
     */
    std::vector<QueueEntry> nextBatch(unsigned shard = 0);

    /**
     * Re-queue a dispatched request that yielded at a solver
     * iteration boundary. Keeps the ticket it already holds and bypasses
     * the capacity bound (it had a slot before the preemption), so
     * it can never be rejected. Re-enters its home shard's queue
     * with a fresh start tag at the current virtual time -- the
     * tenant is not charged a second finish-tag increment for the
     * same request. Records a Preempt decision.
     */
    void requeuePreempted(const QueueEntry &entry);

    /**
     * Reap one queued entry (cancelled / expired before dispatch):
     * removes it, records a Drop decision, and releases its ticket.
     * Returns false when @p id is not queued.
     */
    bool drop(std::uint64_t id, SolveStatus reason);

    /** Release the ticket of a dispatched request that finished. */
    void complete(const std::string &tenant);

    std::size_t
    queueDepth() const
    {
        std::size_t n = 0;
        for (const auto &q : queues)
            n += q.size();
        return n;
    }

    std::size_t
    queueDepth(unsigned shard) const
    {
        return shard < queues.size() ? queues[shard].size() : 0;
    }

    /** Would nextBatch(shard) dispatch something right now? True
     *  when the shard's own queue is non-empty or another shard
     *  holds a migratable backlog (>= 2). The worker wait
     *  predicate: sleeping on this never misses runnable work and
     *  never spins on work it cannot steal. */
    bool
    runnable(unsigned shard) const
    {
        if (shard < queues.size() && !queues[shard].empty())
            return true;
        for (std::size_t s = 0; s < queues.size(); ++s)
            if (s != shard && queues[s].size() >= 2)
                return true;
        return false;
    }

    /** Ids of every queued entry, shard-major in queue order
     *  (reap scans). */
    std::vector<std::uint64_t>
    queuedIds() const
    {
        std::vector<std::uint64_t> ids;
        for (const auto &q : queues)
            for (const Slot &s : q)
                ids.push_back(s.entry.id);
        return ids;
    }

    /** Live (queued + running) requests a tenant holds tickets for. */
    int
    tenantLive(const std::string &tenant) const
    {
        auto it = live.find(tenant);
        return it == live.end() ? 0 : it->second;
    }

    /** Dispatches executed by each shard (migrated batches count
     *  for the executing shard, not the donor). */
    const std::vector<std::uint64_t> &
    shardDispatches() const
    {
        return dispatchesPerShard;
    }

    /** Batches stolen by an idle shard from another's queue. */
    std::uint64_t migrations() const { return migrationCount; }

    /** Decisions kept in the log: the newest decisionLogCap, so a
     *  long-running service holds a fixed window, not its history.
     *  Decision::seq keeps counting across the whole run. */
    static constexpr std::size_t decisionLogCap = 8192;

    /** The newest (at most decisionLogCap) decisions, oldest first. */
    const std::deque<Decision> &decisions() const { return log; }
    void clearDecisions() { log.clear(); }

    /** Canonical one-line-per-decision serialization of the log --
     *  byte-identical across replays of the same call sequence. */
    std::string dumpDecisions() const;

  private:
    /** Queued entry plus its fair-share start tag. */
    struct Slot
    {
        QueueEntry entry;
        double startTag = 0.0;
    };

    /** Append to the log, dropping the oldest past the cap. */
    void record(Decision &&d);

    int ticketLimit(const std::string &tenant) const;
    double tenantWeight(const std::string &tenant) const;
    void publishDepth(unsigned shard) const;

    Config cfg;
    std::vector<std::deque<Slot>> queues; //!< one per shard
    std::unordered_map<std::string, int> limits;
    std::unordered_map<std::string, int> live;
    std::unordered_map<std::string, double> weights;
    /** SFQ virtual time / per-tenant last finish tag. */
    double virtualTime = 0.0;
    std::unordered_map<std::string, double> lastFinish;
    std::deque<Decision> log;
    std::uint64_t nextSeq = 0;
    std::vector<std::uint64_t> dispatchesPerShard;
    std::uint64_t migrationCount = 0;
};

} // namespace msc

#endif // MSC_SERVICE_SCHEDULER_HH
