#include "service/scheduler.hh"

#include <algorithm>
#include <limits>
#include <sstream>

#include "util/telemetry.hh"

namespace msc {

namespace {

constinit telemetry::Counter ctrAdmitted{"service.admitted"};
constinit telemetry::Counter ctrRejected{"service.rejected"};
constinit telemetry::Counter ctrDropped{"service.dropped"};
constinit telemetry::Counter ctrDispatches{"service.dispatches"};
constinit telemetry::Counter
    ctrCoalesced{"service.coalesced_requests"};
constinit telemetry::Counter ctrMigrated{"service.migrated"};
constinit telemetry::Counter ctrPreempted{"service.preempted"};
constinit telemetry::Gauge gQueueDepth{"service.queue_depth"};

/** EDF sort key: no deadline sorts last. */
std::uint64_t
deadlineKey(const QueueEntry &e)
{
    return e.deadlineNs == 0
               ? std::numeric_limits<std::uint64_t>::max()
               : e.deadlineNs;
}

} // namespace

const char *
toString(DecisionKind kind)
{
    switch (kind) {
      case DecisionKind::Admit:
        return "admit";
      case DecisionKind::Reject:
        return "reject";
      case DecisionKind::Dispatch:
        return "dispatch";
      case DecisionKind::Drop:
        return "drop";
      case DecisionKind::Preempt:
        return "preempt";
    }
    return "unknown";
}

int
AdmissionScheduler::ticketLimit(const std::string &tenant) const
{
    auto it = limits.find(tenant);
    return it == limits.end() ? cfg.defaultTickets : it->second;
}

double
AdmissionScheduler::tenantWeight(const std::string &tenant) const
{
    auto it = weights.find(tenant);
    return it == weights.end() ? 1.0 : it->second;
}

void
AdmissionScheduler::publishDepth(unsigned shard) const
{
    gQueueDepth.set(static_cast<double>(queueDepth()));
    if (telemetry::metricsActive()) {
        telemetry::setGaugeNamed(
            "service.shard." + std::to_string(shard) +
                ".queue_depth",
            static_cast<double>(queues[shard].size()));
    }
}

void
AdmissionScheduler::record(Decision &&d)
{
    log.push_back(std::move(d));
    if (log.size() > decisionLogCap)
        log.pop_front();
}

bool
AdmissionScheduler::tryAdmit(const QueueEntry &entry)
{
    Decision d;
    d.seq = nextSeq++;
    d.requestId = entry.id;
    d.tenant = entry.tenant;
    d.priority = entry.priority;
    d.shard = shardOf(entry.key);
    const bool queueFull = queueDepth() >= cfg.queueCapacity;
    const bool outOfTickets =
        tenantLive(entry.tenant) >= ticketLimit(entry.tenant);
    if (queueFull || outOfTickets) {
        d.kind = DecisionKind::Reject;
        d.reason = SolveStatus::Overloaded;
        record(std::move(d));
        ctrRejected.add();
        return false;
    }
    d.kind = DecisionKind::Admit;
    // SFQ stamp: start at the later of virtual time and the
    // tenant's last finish; charge the tenant 1/weight of virtual
    // service for this request.
    Slot slot;
    slot.entry = entry;
    double &fin = lastFinish[entry.tenant];
    slot.startTag = std::max(virtualTime, fin);
    fin = slot.startTag + 1.0 / tenantWeight(entry.tenant);
    record(std::move(d));
    ++live[entry.tenant];
    const unsigned shard = shardOf(entry.key);
    queues[shard].push_back(std::move(slot));
    ctrAdmitted.add();
    publishDepth(shard);
    return true;
}

std::vector<QueueEntry>
AdmissionScheduler::nextBatch(unsigned shard)
{
    std::vector<QueueEntry> batch;
    if (shard >= queues.size())
        return batch;
    unsigned src = shard;
    bool migrated = false;
    if (queues[src].empty()) {
        // Work migration: steal from the deepest other queue, but
        // only when it holds a backlog (>= 2) -- a single queued
        // entry is about to be served by its own shard and moving
        // it would just forfeit prepare-cache locality.
        std::size_t best = queues.size();
        for (std::size_t s = 0; s < queues.size(); ++s) {
            if (s == shard || queues[s].size() < 2)
                continue;
            if (best == queues.size() ||
                queues[s].size() > queues[best].size())
                best = s;
        }
        if (best == queues.size())
            return batch;
        src = static_cast<unsigned>(best);
        migrated = true;
    }
    std::deque<Slot> &q = queues[src];

    // 1. Highest priority band present.
    int band = q.front().entry.priority;
    for (const Slot &s : q)
        band = std::max(band, s.entry.priority);

    // 2. Fair share: the band entry with the minimum start tag
    //    (tie: submission order) names the tenant to serve.
    std::size_t minTag = q.size();
    for (std::size_t i = 0; i < q.size(); ++i) {
        if (q[i].entry.priority != band)
            continue;
        if (minTag == q.size() ||
            q[i].startTag < q[minTag].startTag ||
            (q[i].startTag == q[minTag].startTag &&
             q[i].entry.id < q[minTag].entry.id))
            minTag = i;
    }

    // 3. EDF among that tenant's band entries (tie: submission
    //    order).
    const std::string tenant = q[minTag].entry.tenant;
    std::size_t pick = q.size();
    for (std::size_t i = 0; i < q.size(); ++i) {
        if (q[i].entry.priority != band ||
            q[i].entry.tenant != tenant)
            continue;
        if (pick == q.size() ||
            deadlineKey(q[i].entry) < deadlineKey(q[pick].entry) ||
            (deadlineKey(q[i].entry) == deadlineKey(q[pick].entry) &&
             q[i].entry.id < q[pick].entry.id))
            pick = i;
    }

    // Virtual time advances to the served start tag (SFQ).
    virtualTime = std::max(virtualTime, q[minTag].startTag);

    const QueueEntry head = q[pick].entry;
    q.erase(q.begin() + static_cast<std::ptrdiff_t>(pick));
    batch.push_back(head);

    // Coalesce: same prepare-cache key, CG-kind, already queued in
    // the source shard -- the window counts requests present NOW
    // and never waits.
    if (head.coalescable && cfg.batchWindow > 1) {
        for (auto it = q.begin();
             it != q.end() && batch.size() < cfg.batchWindow;) {
            if (it->entry.coalescable &&
                it->entry.key == head.key) {
                batch.push_back(it->entry);
                it = q.erase(it);
            } else {
                ++it;
            }
        }
    }

    Decision d;
    d.kind = DecisionKind::Dispatch;
    d.seq = nextSeq++;
    d.requestId = head.id;
    d.tenant = head.tenant;
    d.priority = head.priority;
    d.shard = shard;
    d.migrated = migrated;
    for (const QueueEntry &e : batch)
        d.batch.push_back(e.id);
    record(std::move(d));
    ++dispatchesPerShard[shard];
    if (migrated) {
        ++migrationCount;
        ctrMigrated.add();
    }
    ctrDispatches.add();
    if (batch.size() > 1)
        ctrCoalesced.add(batch.size());
    publishDepth(src);
    return batch;
}

void
AdmissionScheduler::requeuePreempted(const QueueEntry &entry)
{
    Decision d;
    d.kind = DecisionKind::Preempt;
    d.seq = nextSeq++;
    d.requestId = entry.id;
    d.tenant = entry.tenant;
    d.priority = entry.priority;
    d.shard = shardOf(entry.key);
    d.reason = SolveStatus::Preempted;
    record(std::move(d));
    // No tryAdmit: the request already holds a ticket and had a
    // queue slot before dispatch, so capacity cannot reject it.
    // Start tag = current virtual time: it resumes at fair-share
    // parity without charging the tenant a second finish increment.
    Slot slot;
    slot.entry = entry;
    slot.startTag = virtualTime;
    const unsigned shard = shardOf(entry.key);
    queues[shard].push_back(std::move(slot));
    ctrPreempted.add();
    publishDepth(shard);
}

bool
AdmissionScheduler::drop(std::uint64_t id, SolveStatus reason)
{
    for (std::size_t s = 0; s < queues.size(); ++s) {
        std::deque<Slot> &q = queues[s];
        auto it = std::find_if(q.begin(), q.end(),
                               [&](const Slot &e) {
                                   return e.entry.id == id;
                               });
        if (it == q.end())
            continue;
        Decision d;
        d.kind = DecisionKind::Drop;
        d.seq = nextSeq++;
        d.requestId = it->entry.id;
        d.tenant = it->entry.tenant;
        d.priority = it->entry.priority;
        d.shard = static_cast<unsigned>(s);
        d.reason = reason;
        record(std::move(d));
        complete(it->entry.tenant);
        q.erase(it);
        ctrDropped.add();
        publishDepth(static_cast<unsigned>(s));
        return true;
    }
    return false;
}

void
AdmissionScheduler::complete(const std::string &tenant)
{
    auto it = live.find(tenant);
    if (it != live.end() && it->second > 0)
        --it->second;
}

std::string
AdmissionScheduler::dumpDecisions() const
{
    std::ostringstream out;
    for (const Decision &d : log) {
        out << d.seq << ' ' << toString(d.kind) << " req="
            << d.requestId << " tenant=" << d.tenant
            << " prio=" << d.priority << " shard=" << d.shard;
        if (d.migrated)
            out << " migrated";
        if (d.kind == DecisionKind::Dispatch) {
            out << " batch=[";
            for (std::size_t i = 0; i < d.batch.size(); ++i)
                out << (i ? "," : "") << d.batch[i];
            out << ']';
        }
        if (d.kind == DecisionKind::Reject ||
            d.kind == DecisionKind::Drop ||
            d.kind == DecisionKind::Preempt)
            out << " reason=" << toString(d.reason);
        out << '\n';
    }
    return out.str();
}

} // namespace msc
