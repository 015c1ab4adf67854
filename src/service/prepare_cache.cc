#include "service/prepare_cache.hh"

#include <algorithm>
#include <exception>

#include "accel/cluster_operator.hh"
#include "sparse/binio.hh"
#include "util/hash128.hh"
#include "util/logging.hh"
#include "util/telemetry.hh"

namespace msc {

namespace {

constinit telemetry::Counter ctrHits{"service.cache_hits"};
constinit telemetry::Counter ctrMisses{"service.cache_misses"};
constinit telemetry::Counter ctrEvictions{"service.cache_evictions"};
constinit telemetry::Counter ctrPlanReuse{"binio.plan_reuse"};

void
hashBlocking(Hash128 &h, const BlockingConfig &b)
{
    const Digest128 d = blockingConfigKey(b);
    h.u64(d.hi);
    h.u64(d.lo);
}

void
hashCluster(Hash128 &h, const ClusterConfig &c)
{
    h.u64(c.size);
    h.u64(static_cast<std::uint64_t>(c.schedule));
    h.u64(c.hybridSkew);
    h.u64(static_cast<std::uint64_t>(c.rounding));
    h.u64(c.targetMantissaBits);
    h.u64(c.earlyTermination);
    h.u64(c.anProtect);
    h.u64(c.anConstant);
    h.u64(c.cic);
    h.u64(c.adcHeadstart);
    // Appended only off the default, so Sampled keys hash exactly
    // as keys did before the field existed.
    if (c.statsFidelity != StatsFidelity::Sampled)
        h.u64(static_cast<std::uint64_t>(c.statsFidelity));
}

void
hashAccel(Hash128 &h, const AcceleratorConfig &a)
{
    h.u64(a.banks);
    h.u64(a.rowsPerBank);
    h.u64(a.clustersPerBank.size());
    for (const auto &[size, count] : a.clustersPerBank) {
        h.u64(size);
        h.u64(count);
    }
    hashCluster(h, a.cluster);
    hashBlocking(h, a.blocking);
    h.f64(a.gpuFallbackThreshold);
    h.u64(a.estimateSamplesPerSize);
}

} // namespace

CacheKey
operatorKeyFrom(Digest128 matrixKey, const OperatorConfig &cfg)
{
    Hash128 h;
    h.u64(matrixKey.hi);
    h.u64(matrixKey.lo);
    // Placement/device configuration: every field that changes the
    // prepared state (blocking decisions, placement, arithmetic).
    // Pure performance-model knobs (proc/mem timing parameters) are
    // deliberately excluded: they change cost estimates, not the
    // prepared operator's answers or placement.
    h.u64(static_cast<std::uint64_t>(cfg.backend));
    h.u64(2); // retired device-count slot: keeps keys byte-identical
    hashAccel(h, cfg.accel);
    hashBlocking(h, cfg.blocking);
    hashCluster(h, cfg.cluster);
    const Digest128 d = h.digest();
    return CacheKey{d.hi, d.lo};
}

CacheKey
operatorKey(const Csr &matrix, const OperatorConfig &cfg)
{
    return operatorKeyFrom(csrContentKey(matrix), cfg);
}

PreparedOperator::PreparedOperator(const Csr &matrix,
                                   const OperatorConfig &config,
                                   CacheKey keyIn)
    : mat(matrix), cfg(config), id(keyIn)
{
    build();
}

PreparedOperator::PreparedOperator(
    std::shared_ptr<const MappedArtifact> artifact,
    const OperatorConfig &config, CacheKey keyIn)
    : cfg(config), id(keyIn), art(std::move(artifact))
{
    mat = art->matrixView(); // move-assign preserves the view
    build();
}

void
PreparedOperator::build()
{
    // Matrix footprint: nnz * (8B value + 4B col) + 64-bit rowPtr.
    // Counted for views too -- mapped pages are resident while the
    // entry is hot, so the eviction cap should see them.
    byteEstimate = mat.nnz() * 12 +
                   (static_cast<std::size_t>(mat.rows()) + 1) * 8;

    // A stored plan is only usable when it was computed under the
    // exact blocking configuration this backend would use.
    BlockPlan artifactPlan;
    bool havePlan = false;
    if (art && art->hasPlan()) {
        const Digest128 want =
            cfg.backend == ServiceBackend::ClusterBitExact
                ? blockingConfigKey(cfg.blocking)
                : blockingConfigKey(cfg.accel.blocking);
        if (art->blockingKey() == want &&
            (cfg.backend == ServiceBackend::ClusterBitExact ||
             cfg.backend == ServiceBackend::Accel)) {
            artifactPlan = art->decodePlan();
            havePlan = true;
            ctrPlanReuse.add();
        }
    }

    switch (cfg.backend) {
      case ServiceBackend::Csr:
        oper = std::make_unique<CsrOperator>(mat);
        break;
      case ServiceBackend::Accel: {
        accel = std::make_unique<Accelerator>(cfg.accel);
        accel->prepare(mat, {}, havePlan ? &artifactPlan : nullptr);
        oper = std::make_unique<AcceleratorOperator>(*accel);
        // Placed blocks resident on crossbars, leftovers in CSR:
        // call it one more matrix copy plus per-placement scratch.
        byteEstimate += mat.nnz() * 12;
        break;
      }
      case ServiceBackend::ClusterBitExact:
        if (havePlan) {
            oper = std::make_unique<ClusterArithmeticOperator>(
                mat, std::move(artifactPlan), cfg.cluster);
        } else {
            oper = std::make_unique<ClusterArithmeticOperator>(
                mat, cfg.blocking, cfg.cluster);
        }
        // Contribution tables dominate: rough per-nnz slice state.
        byteEstimate += mat.nnz() * 64;
        break;
    }
    if (!oper)
        panic("PreparedOperator: unknown backend");
}

std::shared_ptr<PreparedOperator>
PrepareCache::acquire(const Csr &matrix, const OperatorConfig &cfg,
                      bool *hit, unsigned replica)
{
    return acquireKeyed(
        operatorKey(matrix, cfg), replica, hit,
        [&](CacheKey key) {
            return std::make_shared<PreparedOperator>(matrix, cfg,
                                                      key);
        });
}

std::shared_ptr<PreparedOperator>
PrepareCache::acquire(
    const std::shared_ptr<const MappedArtifact> &artifact,
    const OperatorConfig &cfg, bool *hit, unsigned replica)
{
    if (!artifact)
        panic("PrepareCache::acquire: null artifact");
    return acquireKeyed(
        operatorKeyFrom(artifact->matrixKey(), cfg), replica, hit,
        [&](CacheKey key) {
            return std::make_shared<PreparedOperator>(artifact, cfg,
                                                      key);
        });
}

std::shared_ptr<PreparedOperator>
PrepareCache::acquireKeyed(
    CacheKey key, unsigned replica, bool *hit,
    const std::function<std::shared_ptr<PreparedOperator>(CacheKey)>
        &build)
{
    const std::pair<CacheKey, unsigned> slot{key, replica};
    const auto inFlight = [&] {
        return std::find(building.begin(), building.end(), slot) !=
               building.end();
    };
    std::unique_lock lock(mu);
    // A hit means THIS replica already exists; other replicas of
    // the key warm nothing for it (each owns its backend state).
    // A miss whose pair is already building waits for that build
    // and looks again: a hit unless the build threw or the entry
    // was evicted meanwhile, in which case this caller builds.
    for (;;) {
        auto it = map.find(key);
        if (it != map.end() && replica < it->second.replicas.size() &&
            it->second.replicas[replica]) {
            Entry &e = it->second;
            lruOrder.splice(lruOrder.begin(), lruOrder, e.lruPos);
            ++counters.hits;
            ctrHits.add();
            if (hit)
                *hit = true;
            return e.replicas[replica];
        }
        if (!inFlight())
            break;
        buildDone.wait(lock, [&] { return !inFlight(); });
    }
    building.push_back(slot);
    lock.unlock();

    // Build outside the cache lock; whatever happens, the pair
    // leaves the in-flight list and its waiters wake.
    std::shared_ptr<PreparedOperator> built;
    std::exception_ptr failure;
    try {
        built = build(key);
    } catch (...) {
        failure = std::current_exception();
    }
    lock.lock();
    building.erase(std::find(building.begin(), building.end(), slot));
    buildDone.notify_all();
    if (failure)
        std::rethrow_exception(failure);
    ++counters.misses;
    ctrMisses.add();
    auto it = map.find(key);
    if (it == map.end()) {
        lruOrder.push_front(key);
        Entry e;
        e.lruPos = lruOrder.begin();
        it = map.emplace(key, std::move(e)).first;
    } else {
        lruOrder.splice(lruOrder.begin(), lruOrder, it->second.lruPos);
    }
    Entry &e = it->second;
    if (e.replicas.size() <= replica)
        e.replicas.resize(replica + 1);
    e.replicas[replica] = built;
    evictOverCap();
    if (hit)
        *hit = false;
    return built;
}

void
PrepareCache::evictOverCap()
{
    std::size_t resident = 0;
    for (const auto &[key, e] : map)
        resident += e.bytes();
    // Least-recently-used first, skipping entries a caller still
    // holds: a live reference must never be freed underneath its
    // solve (the ASan-verified satellite invariant). A key is
    // pinned while ANY of its replicas has an external reference.
    auto it = lruOrder.end();
    while (resident > capBytes && it != lruOrder.begin()) {
        --it;
        auto mapIt = map.find(*it);
        if (mapIt == map.end())
            continue;
        if (mapIt->second.referenced())
            continue; // live external reference: skip
        resident -= mapIt->second.bytes();
        map.erase(mapIt);
        it = lruOrder.erase(it);
        ++counters.evictions;
        ctrEvictions.add();
    }
}

PrepareCache::Stats
PrepareCache::stats() const
{
    std::lock_guard lock(mu);
    Stats s = counters;
    s.entries = map.size();
    s.bytes = 0;
    for (const auto &[key, e] : map)
        s.bytes += e.bytes();
    return s;
}

void
PrepareCache::clear()
{
    std::lock_guard lock(mu);
    for (auto it = lruOrder.begin(); it != lruOrder.end();) {
        auto mapIt = map.find(*it);
        if (mapIt != map.end() && !mapIt->second.referenced()) {
            map.erase(mapIt);
            it = lruOrder.erase(it);
        } else {
            ++it;
        }
    }
}

} // namespace msc
