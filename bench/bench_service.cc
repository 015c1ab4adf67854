/**
 * @file
 * Closed-loop load study of the solver service (service/service.hh),
 * three phases:
 *
 * 1. Coalescing: a fixed micro workload of same-operator CG requests
 *    driven through the admission scheduler at a fixed concurrency,
 *    once with the batching window disabled (window = 1, sequential
 *    dispatch) and once with window = 8 (same-key requests coalesce
 *    into one lockstep panel per dispatch). Both run the cluster
 *    operator at StatsFidelity::Full: the panel amortizes its
 *    per-iteration slice walk across columns, so the window-8 phase
 *    must deliver a wall-clock throughput multiple on identical
 *    bits. A third window-1 run on the default Sampled fidelity (the
 *    exact-value kernel) gives the fast path's within-run multiple
 *    over the slice walk.
 *
 * 2. Shard scaling: four tenants, each pinned to its own operator,
 *    with the operators seed-picked so their cache keys route to
 *    four distinct shards (key mod 4 = 0..3 -- which also balances
 *    them mod 2 and mod 1, so the same matrices serve every shard
 *    count in {1, 2, 4}). Each shard owns an independent
 *    accelerator, so throughput is requests over the *bottleneck*
 *    shard's accelerator-busy time; the bench rebuilds each
 *    operator's cost model (Accelerator::solveCost) and charges
 *    every dispatched solve to the shard the decision log says
 *    executed it. The modeled makespan is a pure function of the
 *    dispatch schedule -- deterministic across runs and honest on a
 *    single-core host, where wall clock cannot show device-level
 *    parallelism.
 *
 * 3. Fair share: a saturating tenant (10:1 offered load) against a
 *    light tenant at equal weights; while both stay backlogged each
 *    is entitled to half the dispatch stream, and the light tenant's
 *    observed share of the contended dispatch window is the metric
 *    (0.5 = perfect isolation).
 *
 * Request latency (submit -> terminal, microseconds) comes from the
 * service's own service.latency_us histogram; the cache-warm p50/p99
 * land in the --json metrics block as service.p50_latency_us /
 * service.p99_latency_us so the perf-smoke gate tracks them.
 *
 * Usage: bench_service [--smoke] [--json out.json]
 *                      [--requests N] [--outstanding N]
 *                      [--tenants N] [--window W] [--shards S]
 *   --smoke       shrink the workload for CI and exit non-zero when
 *                 the coalescing speedup falls under 2x, the
 *                 exact-value fast path's window-1 multiple over
 *                 the slice walk falls under 10x, the 4-shard
 *                 modeled scaling falls under 2.5x, the light
 *                 tenant's fair share leaves [0.4, 0.6], or any
 *                 request fails
 *   --json        write the bench_micro-compatible baseline document
 *                 (tools/perfdiff diffs it against bench/baselines/)
 *   --requests    total requests per phase (default 64, smoke 16)
 *   --outstanding closed-loop concurrency = queue capacity
 *                 (default 8)
 *   --tenants     spread requests round-robin over N tenants
 *                 (default 1); each tenant gets a full ticket
 *                 budget, so this varies accounting, not admission
 *   --window      run ONE coalescing phase (Full fidelity) at this
 *                 batching window and print its row (for sweep
 *                 scripts) instead of the full study
 *   --shards      run ONE shard-scaling phase at this shard count
 *                 (with --tenants/--outstanding) and print its row;
 *                 shell loops over --shards {1,2,4} build the
 *                 scaling tables in EXPERIMENTS.md
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "accel/accel.hh"
#include "runtime/exec_context.hh"
#include "service/service.hh"
#include "sparse/gen.hh"
#include "util/random.hh"
#include "util/telemetry.hh"
#include "util/threadpool.hh"

namespace {

using namespace msc;

Csr
spdMatrix(std::int32_t n, std::uint64_t seed)
{
    TiledParams p;
    p.rows = n;
    p.tile = 32;
    p.tileDensity = 0.3;
    p.spd = true;
    p.symmetricPattern = true;
    p.diagDominance = 0.05;
    p.seed = seed;
    return genTiled(p);
}

std::vector<double>
seededRhs(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> b(n);
    for (double &v : b)
        v = 2.0 * rng.uniform() - 1.0;
    return b;
}

struct PhaseResult
{
    double seconds = 0.0;
    double requestsPerSec = 0.0;
    double p50Us = 0.0;
    double p99Us = 0.0;
    unsigned solved = 0;
    unsigned failed = 0;
    std::uint64_t batches = 0;
    std::uint64_t coalescedBatches = 0;
};

/**
 * Closed loop at a fixed concurrency: submit @p outstanding
 * same-operator requests, pump the service dry, repeat until
 * @p total requests completed. The prepare cache is warmed before
 * the clock starts, so the phase measures steady-state dispatch +
 * solve, not the one-time placement build.
 */
PhaseResult
runPhase(const Csr &m, unsigned window, unsigned total,
         unsigned outstanding, unsigned tenants,
         StatsFidelity fidelity)
{
    const std::size_t n = static_cast<std::size_t>(m.rows());
    OperatorConfig opCfg;
    opCfg.backend = ServiceBackend::ClusterBitExact;
    opCfg.cluster.statsFidelity = fidelity;

    ServiceConfig cfg;
    cfg.workers = 0; // deterministic: the bench thread pumps
    cfg.scheduler.batchWindow = window;
    cfg.scheduler.queueCapacity = outstanding;
    cfg.scheduler.defaultTickets =
        static_cast<int>(outstanding);
    SolverService svc(cfg);

    // Cache warmup (also primes the telemetry cells).
    {
        SolveRequest req;
        req.tenant = "bench";
        req.matrix = &m;
        req.op = opCfg;
        req.b = seededRhs(n, 4000);
        req.tolerance = 1e-6;
        RequestHandle h = svc.submit(req);
        svc.runUntilIdle();
        if (h.wait().status != SolveStatus::Converged)
            return {};
    }
    telemetry::reset(); // warmup out of the latency histogram

    PhaseResult out;
    std::vector<RequestHandle> handles;
    handles.reserve(total);
    const auto t0 = std::chrono::steady_clock::now();
    unsigned submitted = 0;
    while (submitted < total) {
        const unsigned burst =
            std::min(outstanding, total - submitted);
        for (unsigned i = 0; i < burst; ++i) {
            SolveRequest req;
            req.tenant = tenants > 1
                ? "bench" + std::to_string((submitted + i) % tenants)
                : "bench";
            req.matrix = &m;
            req.op = opCfg;
            req.b = seededRhs(n, 4100 + submitted + i);
            req.tolerance = 1e-6;
            handles.push_back(svc.submit(req));
        }
        submitted += burst;
        svc.runUntilIdle();
    }
    const auto t1 = std::chrono::steady_clock::now();

    for (auto &h : handles) {
        const RequestResult &r = h.wait();
        if (r.status == SolveStatus::Converged)
            ++out.solved;
        else
            ++out.failed;
    }
    out.seconds =
        std::chrono::duration<double>(t1 - t0).count();
    out.requestsPerSec =
        out.seconds > 0.0 ? out.solved / out.seconds : 0.0;
    for (const auto &h : telemetry::snapshotHistograms()) {
        if (h.name == "service.latency_us") {
            out.p50Us = telemetry::histogramQuantile(h, 0.5);
            out.p99Us = telemetry::histogramQuantile(h, 0.99);
        }
    }
    const ServiceStats st = svc.stats();
    out.batches = st.batches;
    out.coalescedBatches = st.coalescedBatches;
    return out;
}

struct ShardPhaseResult
{
    double makespan = 0.0;   //!< s: max over shards of modeled busy
    double busyTotal = 0.0;  //!< s: summed modeled accelerator time
    double requestsPerSec = 0.0; //!< modeled closed-loop throughput
    unsigned solved = 0;
    unsigned failed = 0;
    std::uint64_t migrated = 0;
    std::uint64_t preempted = 0;
    std::vector<std::uint64_t> shardDispatches;
};

/**
 * Pick @p count matrices whose operator keys route to shards
 * 0..count-1 under a count-shard scheduler. Because shardOf is the
 * key mod the shard count, residue i mod 4 lands on residue i mod 2
 * and i mod 1 too, so one picked set spreads evenly across every
 * shard count dividing @p count -- the same operators (and so the
 * same total modeled work) serve the 1-, 2- and 4-shard rows.
 */
std::vector<Csr>
pickShardMatrices(unsigned count, const OperatorConfig &opCfg)
{
    AdmissionScheduler::Config pc;
    pc.shards = count;
    const AdmissionScheduler probe(pc);
    std::vector<Csr> mats(count);
    std::vector<bool> found(count, false);
    unsigned have = 0;
    for (std::uint64_t seed = 6000; have < count && seed < 6000 + 512;
         ++seed) {
        Csr m = spdMatrix(64, seed);
        const unsigned s = probe.shardOf(operatorKey(m, opCfg));
        if (!found[s]) {
            found[s] = true;
            mats[s] = std::move(m);
            ++have;
        }
    }
    if (have < count) {
        std::fprintf(stderr, "bench_service: could not spread %u "
                             "operators over %u shards\n",
                     count, count);
        std::exit(2);
    }
    return mats;
}

/**
 * Shard-scaling phase: tenant i solves matrix i (i mod mats.size()),
 * closed loop at @p outstanding, the bench thread pumping all shards
 * round-robin. Throughput is modeled, not wall clock: each shard is
 * an independent accelerator, so the phase's makespan is the busiest
 * shard's summed Accelerator::solveCost over the solves the decision
 * log attributes to it (migrated batches charge the executing
 * shard). Warmup solves (one per operator, building each home
 * shard's prepared replica) are excluded.
 */
ShardPhaseResult
runShardPhase(const std::vector<Csr> &mats,
              const OperatorConfig &opCfg, unsigned shards,
              unsigned total, unsigned outstanding, unsigned tenants)
{
    const std::size_t n =
        static_cast<std::size_t>(mats.front().rows());

    // Bench-side cost models, prepared exactly as the service's
    // Accel backend prepares them.
    std::vector<std::unique_ptr<Accelerator>> models;
    for (const Csr &m : mats) {
        models.push_back(
            std::make_unique<Accelerator>(opCfg.accel));
        models.back()->prepare(m);
    }

    ServiceConfig cfg;
    cfg.workers = 0; // deterministic: the bench thread pumps
    cfg.scheduler.shards = shards;
    cfg.scheduler.batchWindow = 1;
    cfg.scheduler.queueCapacity = outstanding;
    cfg.scheduler.defaultTickets = static_cast<int>(outstanding);
    SolverService svc(cfg);

    // Warm every operator's home-shard replica; warmup request ids
    // never enter matOf, so the attribution loop skips them.
    for (std::size_t i = 0; i < mats.size(); ++i) {
        SolveRequest req;
        req.tenant = "warm";
        req.matrix = &mats[i];
        req.op = opCfg;
        req.b = seededRhs(n, 7000 + i);
        req.tolerance = 1e-6;
        RequestHandle h = svc.submit(req);
        svc.runUntilIdle();
        if (h.wait().status != SolveStatus::Converged)
            return {};
    }

    ShardPhaseResult out;
    std::vector<RequestHandle> handles;
    handles.reserve(total);
    std::unordered_map<std::uint64_t, unsigned> matOf;
    unsigned submitted = 0;
    while (submitted < total) {
        const unsigned burst =
            std::min(outstanding, total - submitted);
        for (unsigned i = 0; i < burst; ++i) {
            const unsigned slot = submitted + i;
            SolveRequest req;
            req.tenant = "shard" + std::to_string(slot % tenants);
            req.matrix = &mats[slot % mats.size()];
            req.op = opCfg;
            req.b = seededRhs(n, 7100 + slot);
            req.tolerance = 1e-6;
            RequestHandle h = svc.submit(req);
            matOf[h.id()] =
                static_cast<unsigned>(slot % mats.size());
            handles.push_back(std::move(h));
        }
        submitted += burst;
        svc.runUntilIdle();
    }

    std::unordered_map<std::uint64_t, const SolverResult *> solveOf;
    for (auto &h : handles) {
        const RequestResult &r = h.wait();
        if (r.status == SolveStatus::Converged)
            ++out.solved;
        else
            ++out.failed;
        solveOf[h.id()] = &r.solve;
    }

    // Charge each dispatched solve's modeled accelerator time to
    // the shard that executed it.
    std::vector<double> busy(shards, 0.0);
    for (const Decision &d : svc.decisionLog()) {
        if (d.kind != DecisionKind::Dispatch)
            continue;
        for (const std::uint64_t id : d.batch) {
            auto mi = matOf.find(id);
            auto si = solveOf.find(id);
            if (mi == matOf.end() || si == solveOf.end())
                continue; // warmup
            busy[d.shard] +=
                models[mi->second]->solveCost(*si->second, false)
                    .time;
        }
    }
    out.makespan = *std::max_element(busy.begin(), busy.end());
    for (const double b : busy)
        out.busyTotal += b;
    out.requestsPerSec =
        out.makespan > 0.0 ? out.solved / out.makespan : 0.0;

    const ServiceStats st = svc.stats();
    out.migrated = st.migrated;
    out.preempted = st.preempted;
    out.shardDispatches = st.shardDispatches;
    return out;
}

/**
 * Fair-share phase: a saturating tenant floods 10x the light
 * tenant's backlog at equal weights; returns the light tenant's
 * share of the first 2 * kLight dispatches -- the window in which
 * both tenants are still backlogged, so SFQ entitles each to half.
 */
double
runFairnessPhase()
{
    const unsigned kLight = 5;
    const unsigned kHeavy = 10 * kLight;
    const Csr heavyM = spdMatrix(64, 6801);
    const Csr lightM = spdMatrix(64, 6803);
    const std::size_t n =
        static_cast<std::size_t>(heavyM.rows());
    OperatorConfig opCfg;
    opCfg.backend = ServiceBackend::Csr;

    ServiceConfig cfg;
    cfg.workers = 0;
    cfg.scheduler.batchWindow = 1;
    cfg.scheduler.queueCapacity = kHeavy + kLight;
    cfg.scheduler.defaultTickets =
        static_cast<int>(kHeavy + kLight);
    SolverService svc(cfg);

    std::vector<RequestHandle> handles;
    for (unsigned i = 0; i < kHeavy; ++i) {
        SolveRequest req;
        req.tenant = "heavy";
        req.matrix = &heavyM;
        req.op = opCfg;
        req.b = seededRhs(n, 6900 + i);
        req.tolerance = 1e-6;
        handles.push_back(svc.submit(req));
    }
    for (unsigned i = 0; i < kLight; ++i) {
        SolveRequest req;
        req.tenant = "light";
        req.matrix = &lightM;
        req.op = opCfg;
        req.b = seededRhs(n, 6950 + i);
        req.tolerance = 1e-6;
        handles.push_back(svc.submit(req));
    }
    svc.runUntilIdle();
    for (auto &h : handles)
        if (h.wait().status != SolveStatus::Converged)
            return 0.0;

    unsigned dispatches = 0;
    unsigned light = 0;
    for (const Decision &d : svc.decisionLog()) {
        if (d.kind != DecisionKind::Dispatch)
            continue;
        if (dispatches < 2 * kLight && d.tenant == "light")
            ++light;
        ++dispatches;
    }
    return static_cast<double>(light) / (2.0 * kLight);
}

bool
writeJson(const std::string &path, const PhaseResult &w1,
          const PhaseResult &w8, const PhaseResult &fast,
          const ShardPhaseResult &s1, const ShardPhaseResult &s4,
          double lightShare, unsigned total)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "bench_service: cannot open %s\n",
                     path.c_str());
        return false;
    }
    const double speedup = w1.requestsPerSec > 0.0
        ? w8.requestsPerSec / w1.requestsPerSec
        : 0.0;
    const double fastPath = w1.requestsPerSec > 0.0
        ? fast.requestsPerSec / w1.requestsPerSec
        : 0.0;
    const double scaling = s1.requestsPerSec > 0.0
        ? s4.requestsPerSec / s1.requestsPerSec
        : 0.0;
    // Same document shape as bench_micro --json, so tools/perfdiff
    // can gate on the shared baseline file.
    std::fprintf(f, "{\n  \"threads\": %u,\n  \"benchmarks\": [\n",
                 globalThreads());
    const auto entry = [&](const char *name, double usPerReq,
                           unsigned iters, double rps,
                           const char *sep) {
        std::fprintf(
            f,
            "    {\"name\": \"%s\", \"matrix\": \"\", "
            "\"real_time\": %.6f, \"time_unit\": \"us\", "
            "\"iterations\": %u, \"items_per_second\": %.3f}%s\n",
            name, usPerReq, iters, rps, sep);
    };
    entry("svcClosedLoopWindow1",
          w1.solved > 0 ? w1.seconds * 1e6 / w1.solved : 0.0,
          w1.solved, w1.requestsPerSec, ",");
    entry("svcClosedLoopWindow8",
          w8.solved > 0 ? w8.seconds * 1e6 / w8.solved : 0.0,
          w8.solved, w8.requestsPerSec, ",");
    entry("svcClosedLoopFastWindow1",
          fast.solved > 0 ? fast.seconds * 1e6 / fast.solved : 0.0,
          fast.solved, fast.requestsPerSec, ",");
    // Shard rows report MODELED accelerator time per request
    // (makespan / solved): deterministic, so the perfdiff tolerance
    // only absorbs solver-path changes, not host noise.
    entry("svcShardScaling1",
          s1.solved > 0 ? s1.makespan * 1e6 / s1.solved : 0.0,
          s1.solved, s1.requestsPerSec, ",");
    entry("svcShardScaling4",
          s4.solved > 0 ? s4.makespan * 1e6 / s4.solved : 0.0,
          s4.solved, s4.requestsPerSec, "");
    std::fprintf(f,
                 "  ],\n  \"metrics\": {\n"
                 "    \"service.requests\": %u,\n"
                 "    \"service.p50_latency_us\": %.3f,\n"
                 "    \"service.p99_latency_us\": %.3f,\n"
                 "    \"service.throughput_w1_rps\": %.3f,\n"
                 "    \"service.throughput_w8_rps\": %.3f,\n"
                 "    \"service.coalesce_speedup\": %.3f,\n"
                 "    \"service.fast_path_speedup\": %.3f,\n"
                 "    \"service.shard_scaling_x4\": %.3f,\n"
                 "    \"service.shard4_migrated\": %llu,\n"
                 "    \"service.shard4_max_dispatch_skew\": %llu,\n"
                 "    \"service.fairshare_light_share\": %.3f\n"
                 "  }\n}\n",
                 total, w8.p50Us, w8.p99Us, w1.requestsPerSec,
                 w8.requestsPerSec, speedup, fastPath, scaling,
                 static_cast<unsigned long long>(s4.migrated),
                 static_cast<unsigned long long>(
                     s4.shardDispatches.empty()
                         ? 0
                         : *std::max_element(
                               s4.shardDispatches.begin(),
                               s4.shardDispatches.end()) -
                               *std::min_element(
                                   s4.shardDispatches.begin(),
                                   s4.shardDispatches.end())),
                 lightShare);
    std::fclose(f);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string jsonPath;
    unsigned requests = 0;   // 0 = pick from smoke
    unsigned outstanding = 8;
    unsigned tenants = 1;
    unsigned oneWindow = 0;  // 0 = the full study
    unsigned oneShards = 0;  // 0 = the full study
    const auto uintFlag = [&](int &i, const char *name,
                              unsigned &out) {
        const std::size_t len = std::strlen(name);
        if (std::strcmp(argv[i], name) == 0 && i + 1 < argc) {
            out = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
            return true;
        }
        if (std::strncmp(argv[i], name, len) == 0 &&
            argv[i][len] == '=') {
            out = static_cast<unsigned>(
                std::strtoul(argv[i] + len + 1, nullptr, 10));
            return true;
        }
        return false;
    };
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--json") == 0 &&
                   i + 1 < argc) {
            jsonPath = argv[++i];
        } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
            jsonPath = argv[i] + 7;
        } else if (uintFlag(i, "--requests", requests) ||
                   uintFlag(i, "--outstanding", outstanding) ||
                   uintFlag(i, "--tenants", tenants) ||
                   uintFlag(i, "--window", oneWindow) ||
                   uintFlag(i, "--shards", oneShards)) {
            // parsed in the condition
        } else {
            std::fprintf(stderr,
                         "usage: bench_service [--smoke] "
                         "[--json out.json] [--requests N] "
                         "[--outstanding N] [--tenants N] "
                         "[--window W] [--shards S]\n");
            return 2;
        }
    }
    if (outstanding == 0 || tenants == 0) {
        std::fprintf(stderr, "bench_service: --outstanding and "
                             "--tenants must be >= 1\n");
        return 2;
    }

    telemetry::Config tcfg;
    tcfg.enabled = true;
    tcfg.spans = false;
    telemetry::configure(tcfg);

    const unsigned total =
        requests > 0 ? requests : (smoke ? 16u : 64u);

    OperatorConfig shardOpCfg;
    shardOpCfg.backend = ServiceBackend::Accel;

    const auto printShardRow = [](unsigned shards,
                                  const ShardPhaseResult &r) {
        std::printf("%8u %12.3f %12.2f %9llu %9llu\n", shards,
                    r.makespan * 1e3, r.requestsPerSec,
                    static_cast<unsigned long long>(r.migrated),
                    static_cast<unsigned long long>(r.preempted));
    };

    if (oneShards > 0) {
        // Sweep mode: one shard-scaling phase at the requested
        // count. Matrices are spread over 4 shards regardless, so
        // --shards {1,2,4} rows share one workload.
        const std::vector<Csr> mats =
            pickShardMatrices(4, shardOpCfg);
        std::printf("Sharded dispatch (modeled accelerator time, "
                    "%u requests, %u outstanding, %u tenants)\n\n",
                    total, outstanding, tenants);
        std::printf("%8s %12s %12s %9s %9s\n", "shards",
                    "makespan ms", "req/s", "migrated",
                    "preempted");
        const ShardPhaseResult r =
            runShardPhase(mats, shardOpCfg, oneShards, total,
                          outstanding, tenants);
        printShardRow(oneShards, r);
        return r.failed > 0 ? 1 : 0;
    }

    const Csr m = spdMatrix(64, 41);

    std::printf("Solver service closed-loop load study "
                "(%u requests, %u outstanding, %u tenant%s, "
                "cluster bit-exact backend)\n\n",
                total, outstanding, tenants,
                tenants == 1 ? "" : "s");
    std::printf("%8s %10s %10s %12s %12s %9s\n", "window",
                "wall s", "req/s", "p50 us", "p99 us", "batches");
    const auto printRow = [](const std::string &window,
                             const PhaseResult &r) {
        std::printf("%8s %10.3f %10.2f %12.0f %12.0f %9llu\n",
                    window.c_str(), r.seconds, r.requestsPerSec,
                    r.p50Us, r.p99Us,
                    static_cast<unsigned long long>(r.batches));
    };

    // The coalescing phases pin Full fidelity: the 2x floor below
    // measures panel amortization of the slice walk.
    if (oneWindow > 0) {
        // Sweep mode: one phase at the requested window; shell
        // loops over --window/--outstanding/--tenants build the
        // load-sweep tables in EXPERIMENTS.md.
        const PhaseResult r = runPhase(m, oneWindow, total,
                                       outstanding, tenants,
                                       StatsFidelity::Full);
        printRow(std::to_string(oneWindow), r);
        return r.failed > 0 ? 1 : 0;
    }

    const PhaseResult w1 = runPhase(m, 1, total, outstanding,
                                    tenants, StatsFidelity::Full);
    printRow("1", w1);
    const PhaseResult w8 = runPhase(m, 8, total, outstanding,
                                    tenants, StatsFidelity::Full);
    printRow("8", w8);
    const PhaseResult fast = runPhase(m, 1, total, outstanding,
                                      tenants, StatsFidelity::Sampled);
    printRow("1 fast", fast);

    const double speedup = w1.requestsPerSec > 0.0
        ? w8.requestsPerSec / w1.requestsPerSec
        : 0.0;
    std::printf("\ncoalescing speedup (window 8 vs 1, Full "
                "fidelity): %.2fx\n",
                speedup);
    const double fastPath = w1.requestsPerSec > 0.0
        ? fast.requestsPerSec / w1.requestsPerSec
        : 0.0;
    std::printf("exact-value fast path (window 1, Sampled vs "
                "Full): %.2fx\n",
                fastPath);

    // Shard scaling at the ISSUE's canonical operating point: four
    // tenants, sixteen outstanding, operators spread over shards.
    const std::vector<Csr> mats = pickShardMatrices(4, shardOpCfg);
    std::printf("\nSharded dispatch (modeled accelerator time, "
                "%u requests, 16 outstanding, 4 tenants)\n\n",
                total);
    std::printf("%8s %12s %12s %9s %9s\n", "shards", "makespan ms",
                "req/s", "migrated", "preempted");
    const ShardPhaseResult s1 =
        runShardPhase(mats, shardOpCfg, 1, total, 16, 4);
    printShardRow(1, s1);
    const ShardPhaseResult s4 =
        runShardPhase(mats, shardOpCfg, 4, total, 16, 4);
    printShardRow(4, s4);
    const double scaling = s1.requestsPerSec > 0.0
        ? s4.requestsPerSec / s1.requestsPerSec
        : 0.0;
    std::printf("\nshard scaling (4 shards vs 1): %.2fx\n",
                scaling);

    const double lightShare = runFairnessPhase();
    std::printf("fair-share light-tenant dispatch share under "
                "10:1 load: %.2f (ideal 0.50)\n",
                lightShare);

    if (!jsonPath.empty() &&
        !writeJson(jsonPath, w1, w8, fast, s1, s4, lightShare,
                   total))
        return 2;

    if (smoke) {
        const unsigned failed = w1.failed + w8.failed +
                                fast.failed + s1.failed + s4.failed;
        if (failed > 0) {
            std::fprintf(stderr,
                         "bench_service: %u requests failed\n",
                         failed);
            return 1;
        }
        if (w8.coalescedBatches == 0) {
            std::fprintf(stderr, "bench_service: window 8 never "
                                 "coalesced\n");
            return 1;
        }
        // The panel amortization claim the ISSUE gates on: k = 8
        // coalescing must at least double closed-loop throughput.
        if (speedup < 2.0) {
            std::fprintf(stderr,
                         "bench_service: coalescing speedup %.2fx "
                         "under the 2x floor\n",
                         speedup);
            return 1;
        }
        // The exact-value kernel against the slice walk it replaces,
        // same window, same run: at most a fifth of the multiple
        // measured when the gate was set (see CHANGES.md).
        if (fastPath < 10.0) {
            std::fprintf(stderr,
                         "bench_service: fast path %.2fx under the "
                         "10x floor\n",
                         fastPath);
            return 1;
        }
        // Sharded dispatch must spread the four operators: modeled
        // 4-shard throughput at least 2.5x the single shard's.
        if (scaling < 2.5) {
            std::fprintf(stderr,
                         "bench_service: shard scaling %.2fx under "
                         "the 2.5x floor\n",
                         scaling);
            return 1;
        }
        // Fair share: 10:1 pressure leaves the light tenant within
        // 20% of its half share of the contended window.
        if (lightShare < 0.4 || lightShare > 0.6) {
            std::fprintf(stderr,
                         "bench_service: light tenant share %.2f "
                         "outside [0.4, 0.6]\n",
                         lightShare);
            return 1;
        }
    }
    return 0;
}
