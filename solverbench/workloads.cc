/**
 * @file
 * The four workloads.
 *
 * The operators of a workload are fixed: tiled SPD matrices drawn
 * from a per-workload constant, each kept only when it routes to the
 * shard its slot asks for (so the operators spread evenly over the
 * shards) and needs a band of reference CG iterations typical of its
 * size. The run's seed makes everything else: the request stream
 * (operator, solver kind, tenant, priority and cancellation of each
 * request, stratified in small blocks of a fixed mix in seeded
 * order), every right-hand side, and the order cold_ingest visits
 * its files in. Drawing the matrices from the seed as well would make
 * the per-solve work, and the modeled accelerator time, differ by
 * seed far more than the host's noise does.
 */

#include <algorithm>
#include <filesystem>

#include "bench.hh"
#include "sparse/binio.hh"
#include "sparse/gen.hh"
#include "sparse/matrix_market.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace solverbench {

using namespace msc;

namespace {

/** splitmix64 finalizer over two words: seeds every stream. */
std::uint64_t
mix(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t z = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) +
                           (a >> 2));
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

std::string
tenantName(unsigned tenant)
{
    std::string name = "t";
    name += std::to_string(tenant);
    return name;
}

std::vector<double>
makeRhs(const Workload &w, std::uint64_t index)
{
    const RequestSpec s = w.spec(index);
    Rng rng(mix(mix(w.seed, 0x5248), index));
    std::vector<double> b(
        static_cast<std::size_t>(w.ops[s.op].matrix.rows()));
    for (double &v : b)
        v = 2.0 * rng.uniform() - 1.0;
    return b;
}

namespace {

/** Reference CG iteration band a drawn matrix must fall in. */
struct Band
{
    int lo = 0;
    int hi = 0;
};

/**
 * Draw tiled SPD matrices of order @p n for operator @p slot of the
 * workload drawn from @p base until one routes to @p shard under
 * @p cfg and needs [band.lo, band.hi] reference CG iterations at
 * @p tol.
 */
Csr
drawMatrix(std::uint64_t base, unsigned slot, std::int32_t n, Band band,
           double tol, const OperatorConfig &cfg,
           const AdmissionScheduler &router, unsigned shard)
{
    for (std::uint64_t attempt = 0; attempt < 256; ++attempt) {
        TiledParams p;
        p.rows = n;
        p.tile = 32;
        p.tileDensity = 0.3;
        p.spd = true;
        p.symmetricPattern = true;
        p.diagDominance = 0.05;
        p.seed = mix(mix(base, slot), attempt);
        Csr m = genTiled(p);
        if (router.shardOf(operatorKey(m, cfg)) != shard)
            continue;
        CsrOperator op(m);
        Rng rng(p.seed);
        std::vector<double> b(static_cast<std::size_t>(n));
        for (double &v : b)
            v = 2.0 * rng.uniform() - 1.0;
        std::vector<double> x(b.size(), 0.0);
        SolverConfig sc;
        sc.tolerance = tol;
        const int its = conjugateGradient(op, b, x, sc).iterations;
        if (its >= band.lo && its <= band.hi)
            return m;
    }
    fatal("solverbench: no matrix of order ", n,
          " fits the iteration band for slot ", slot);
}

/** @p items in the seeded order of stratification block @p block. */
template <typename T>
std::vector<T>
shuffled(std::uint64_t seed, std::uint64_t block, std::vector<T> items)
{
    Rng rng(mix(seed, block));
    for (std::size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[rng.below(i)]);
    return items;
}

AdmissionScheduler
routerFor(const Workload &w)
{
    return AdmissionScheduler(w.service.scheduler);
}

/**
 * ClusterBitExact backend, two n=64 operators (one per shard),
 * 4 tenants, 16 outstanding, window 8, CG:BiCG-STAB = 3:1. Coalesced
 * CG runs the panel path (applyBatch -> Cluster::multiply(X,Y,k)),
 * BiCG-STAB the single-RHS path.
 */
Workload
bitexactMix(std::uint64_t seed, unsigned shards)
{
    Workload w;
    w.opCfg.backend = ServiceBackend::ClusterBitExact;
    w.service.scheduler.shards = shards;
    w.service.scheduler.batchWindow = 8;
    w.service.scheduler.queueCapacity = 64;
    w.service.scheduler.defaultTickets = 16;
    w.tolerance = 1e-6;
    w.residualBound = 1e-5;
    w.outstanding = 16;
    w.prefix = 16;
    w.resolveCount = 2;
    w.tailQuantile = 0.75;
    w.tenantWeights.assign(4, 1.0);
    w.tenantTickets.assign(4, 16);
    const AdmissionScheduler router = routerFor(w);
    for (unsigned k = 0; k < 2; ++k)
        w.ops.push_back({drawMatrix(0xb17e, k, 64, {20, 30},
                                    w.tolerance, w.opCfg, router,
                                    k % shards),
                         {}});
    w.warmOps = {0, 1};
    w.spec = [seed](std::uint64_t i) {
        using K = SolverKind;
        static const std::vector<std::pair<unsigned, K>> block = {
            {0, K::Cg}, {0, K::Cg}, {0, K::Cg}, {0, K::BiCgStab},
            {1, K::Cg}, {1, K::Cg}, {1, K::Cg}, {1, K::BiCgStab}};
        const auto pick = shuffled(seed, i / 8, block)[i % 8];
        RequestSpec s;
        s.op = pick.first;
        s.kind = pick.second;
        s.tenant = static_cast<unsigned>(i % 4);
        return s;
    };
    return w;
}

/**
 * Accel backend, four warm operators of n = 2048..8192, 8
 * outstanding, window 8, tolerance 1e-10. Per block of 9: CG and
 * BiCG-STAB once on every operator, GMRES once on the smallest.
 */
Workload
accelSuite(std::uint64_t seed, unsigned shards)
{
    Workload w;
    w.opCfg.backend = ServiceBackend::Accel;
    w.service.scheduler.shards = shards;
    w.service.scheduler.batchWindow = 8;
    w.service.scheduler.queueCapacity = 64;
    w.service.scheduler.defaultTickets = 8;
    w.tolerance = 1e-10;
    w.residualBound = 1e-8;
    w.outstanding = 8;
    w.prefix = 18;
    w.resolveCount = 3;
    w.tailQuantile = 0.9;
    w.tenantWeights.assign(4, 1.0);
    w.tenantTickets.assign(4, 8);
    const AdmissionScheduler router = routerFor(w);
    // Sizes paired so each shard holds about half the nonzeros.
    const std::int32_t sizes[4] = {2048, 4096, 6144, 8192};
    const Band bands[4] = {
        {360, 500}, {440, 600}, {580, 720}, {660, 900}};
    const unsigned home[4] = {0, 1, 1, 0};
    for (unsigned k = 0; k < 4; ++k)
        w.ops.push_back({drawMatrix(0xacce1, k, sizes[k], bands[k],
                                    w.tolerance, w.opCfg, router,
                                    home[k] % shards),
                         {}});
    w.warmOps = {0, 1, 2, 3};
    w.spec = [seed](std::uint64_t i) {
        using K = SolverKind;
        static const std::vector<std::pair<unsigned, K>> block = {
            {0, K::Cg},       {1, K::Cg},       {2, K::Cg},
            {3, K::Cg},       {0, K::BiCgStab}, {1, K::BiCgStab},
            {2, K::BiCgStab}, {3, K::BiCgStab}, {0, K::Gmres}};
        const auto pick = shuffled(seed, i / 9, block)[i % 9];
        RequestSpec s;
        s.op = pick.first;
        s.kind = pick.second;
        s.tenant = static_cast<unsigned>(i % 4);
        return s;
    };
    return w;
}

/**
 * Accel backend over Matrix Market files the service has not seen:
 * 24 distinct n=4096 matrices, every second one with a packed
 * .mscbin sidecar. Both service caches are capped at about three
 * entries, far below the 24-file working set, so cycling through the
 * files misses every time; one request in four re-submits the
 * previous file, so hits and evictions occur as well. 4 outstanding,
 * tolerance 1e-4.
 */
Workload
coldIngest(std::uint64_t seed, unsigned shards,
           const std::string &workDir)
{
    constexpr unsigned kFiles = 24;
    Workload w;
    w.opCfg.backend = ServiceBackend::Accel;
    w.service.scheduler.shards = shards;
    w.service.scheduler.batchWindow = 4;
    w.service.scheduler.queueCapacity = 64;
    w.service.scheduler.defaultTickets = 4;
    // A loose tolerance keeps the solves short: ingest is the point.
    w.tolerance = 1e-4;
    w.residualBound = 1e-3;
    w.outstanding = 4;
    w.prefix = 8;
    w.resolveCount = 2;
    w.tailQuantile = 0.95;
    w.tenantWeights.assign(2, 1.0);
    w.tenantTickets.assign(2, 4);
    const AdmissionScheduler router = routerFor(w);
    std::filesystem::create_directories(workDir);
    // The last operator only warms the loader during set-up, through
    // its sidecar: a text parse there was 58 of set-up's 65 ms and
    // moved setup_s by a third between runs, while the window already
    // times text parses on every second file.
    for (unsigned k = 0; k <= kFiles; ++k) {
        Operator op;
        op.matrix = drawMatrix(0xc01d, k, 4096, {270, 380}, 1e-6,
                               w.opCfg, router, k % shards);
        op.file = workDir + "/m" + std::to_string(k) + ".mtx";
        writeMatrixMarket(op.matrix, op.file);
        if (k % 2 == 1 || k == kFiles) {
            const BlockPlan plan =
                planBlocks(op.matrix, w.opCfg.accel.blocking);
            writeArtifact(artifactSidecarPath(op.file), op.matrix,
                          &plan, w.opCfg.accel.blocking);
        }
        w.ops.push_back(std::move(op));
    }
    w.warmOps = {kFiles};

    // Caps of about three entries each.
    PrepareCache probe;
    const std::size_t entryBytes =
        probe.acquire(w.ops[0].matrix, w.opCfg)->bytes();
    const Csr &m0 = w.ops[0].matrix;
    const std::size_t loadedBytes =
        m0.nnz() * 12 + (static_cast<std::size_t>(m0.rows()) + 1) * 8;
    w.service.cacheBytes = 3 * entryBytes;
    w.service.loadedCapBytes = 3 * loadedBytes;

    std::vector<unsigned> order(kFiles);
    for (unsigned k = 0; k < kFiles; ++k)
        order[k] = k;
    order = shuffled(seed, 0xf11e, order);
    w.spec = [seed, order](std::uint64_t i) {
        // One re-submit per block of 4, never in the first slot, so
        // it always follows a new file in its own block.
        const auto repeatAt = [seed](std::uint64_t block) {
            return 1 + Rng(mix(seed, block)).below(3);
        };
        const auto newIndex = [&](std::uint64_t j) {
            return j - j / 4 - (j % 4 > repeatAt(j / 4) ? 1 : 0);
        };
        std::uint64_t j = i;
        if (i % 4 == repeatAt(i / 4))
            j = i - 1;
        RequestSpec s;
        s.op = order[newIndex(j) % kFiles];
        s.tenant = static_cast<unsigned>(i % 2);
        return s;
    };
    return w;
}

/**
 * Csr backend, eight n=64 operators over both shards, 8 tenants
 * with unequal weights and tickets, three priority bands (60/35/5%)
 * and generous deadlines, 8 outstanding from one polling caller
 * thread, window 1. The top band's deadline is shorter, so its
 * submits preempt running CG solves. One request in twenty is
 * cancelled right after submit.
 */
Workload
tinyTenants(std::uint64_t seed, unsigned shards)
{
    Workload w;
    w.opCfg.backend = ServiceBackend::Csr;
    w.service.scheduler.shards = shards;
    w.service.scheduler.batchWindow = 1;
    w.service.scheduler.queueCapacity = 64;
    w.tolerance = 1e-6;
    w.residualBound = 1e-5;
    // Solves take tens of microseconds: one blocking caller thread
    // per request measured mostly the callers' own wake-ups, and 32
    // in flight put the median inside the low band's queueing wait,
    // where it moved by a third between seeds.
    w.outstanding = 8;
    w.inFlight = 8;
    w.prefix = 256;
    w.resolveCount = 16;
    w.tailQuantile = 0.99;
    // Tickets never bind (each covers all 8 in flight): the stream
    // must not be refused, only reordered.
    for (unsigned t = 0; t < 8; ++t) {
        w.tenantWeights.push_back(1.0 + t % 4);
        w.tenantTickets.push_back(32 + static_cast<int>(t));
    }
    const AdmissionScheduler router = routerFor(w);
    for (unsigned k = 0; k < 8; ++k)
        w.ops.push_back({drawMatrix(0x7177, k, 64, {20, 30},
                                    w.tolerance, w.opCfg, router,
                                    k % shards),
                         {}});
    w.warmOps = {0, 1, 2, 3, 4, 5, 6, 7};
    w.spec = [seed](std::uint64_t i) {
        static const std::vector<unsigned> ops = [] {
            std::vector<unsigned> v;
            for (unsigned k = 0; k < 40; ++k)
                v.push_back(k % 8);
            return v;
        }();
        static const std::vector<int> bands = [] {
            std::vector<int> v(40, 0);
            std::fill(v.begin() + 24, v.begin() + 38, 1);
            std::fill(v.begin() + 38, v.end(), 2);
            return v;
        }();
        static const std::vector<int> cancels = [] {
            std::vector<int> v(40, 0);
            v[0] = v[1] = 1;
            return v;
        }();
        const std::uint64_t block = i / 40;
        const std::size_t at = i % 40;
        RequestSpec s;
        s.op = shuffled(seed, block, ops)[at];
        s.priority = shuffled(mix(seed, 1), block, bands)[at];
        s.cancel = shuffled(mix(seed, 2), block, cancels)[at] != 0;
        s.tenant = static_cast<unsigned>(i % 8);
        s.deadline = std::chrono::seconds(s.priority == 2 ? 10 : 30);
        return s;
    };
    return w;
}

} // namespace

Workload
makeWorkload(const std::string &name, std::uint64_t seed,
             const std::string &workDir, unsigned shards)
{
    Workload w;
    if (name == "bitexact_mix")
        w = bitexactMix(seed, shards);
    else if (name == "accel_suite")
        w = accelSuite(seed, shards);
    else if (name == "cold_ingest")
        w = coldIngest(seed, shards, workDir);
    else if (name == "tiny_tenants")
        w = tinyTenants(seed, shards);
    else
        fatal("solverbench: unknown workload '", name, "'");
    w.name = name;
    w.seed = seed;
    return w;
}

} // namespace solverbench
