/**
 * @file
 * Shared declarations of the solver-service benchmark.
 *
 * A workload is a set of operators (matrices, in memory or written
 * to Matrix Market files), a service configuration, and a request
 * stream whose i-th request is a pure function of (seed, i). The
 * closed loop in main.cc drives that stream through SolverService;
 * layers.cc turns the traced run into per-layer numbers.
 */

#ifndef SOLVERBENCH_BENCH_HH
#define SOLVERBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "service/service.hh"
#include "util/telemetry.hh"

namespace solverbench {

/** One distinct system a workload solves. */
struct Operator
{
    msc::Csr matrix;
    /** Matrix Market path the requests name; empty = the request
     *  carries the in-memory matrix. */
    std::string file;
};

/** One request of the stream. */
struct RequestSpec
{
    unsigned op = 0;
    msc::SolverKind kind = msc::SolverKind::Cg;
    unsigned tenant = 0;
    int priority = 0;
    std::chrono::nanoseconds deadline{0};
    bool cancel = false; //!< cancelled right after submit
};

struct Workload
{
    std::string name;
    std::uint64_t seed = 0;
    msc::OperatorConfig opCfg;
    /** Scheduler, cache caps; `workers` is filled in by main. */
    msc::ServiceConfig service;
    double tolerance = 1e-6;
    /** A converged request passes when its true relative residual,
     *  recomputed with exact Csr::spmv, is at most this. */
    double residualBound = 1e-5;
    unsigned outstanding = 1; //!< requests in flight
    /** Requests each caller thread keeps in flight (divides
     *  `outstanding`): 1 = blocking callers; more = fewer threads
     *  that poll, for workloads whose requests are too short for
     *  one thread each to measure anything but the OS scheduler. */
    unsigned inFlight = 1;
    /** Requests [0, prefix) always run, however short the window:
     *  the deterministic set behind modeled_solve_ms and the solver
     *  counts, and the pool the re-solve sample is drawn from. */
    unsigned prefix = 1;
    unsigned resolveCount = 1; //!< solo re-solves drawn from it
    /** Tail percentile, fixed per workload so every run reports the
     *  same one; chosen so the window leaves >= 10 samples above. */
    double tailQuantile = 0.9;
    std::vector<Operator> ops;
    /** Operators warmed (prepared) during set-up. */
    std::vector<unsigned> warmOps;
    std::vector<double> tenantWeights; //!< index = tenant
    std::vector<int> tenantTickets;    //!< index = tenant
    std::function<RequestSpec(std::uint64_t)> spec;
};

/** Tenant id as the service sees it. */
std::string tenantName(unsigned tenant);

/** Right-hand side of request @p index (uniform in [-1, 1)). */
std::vector<double> makeRhs(const Workload &w, std::uint64_t index);

/**
 * Build a workload: its fixed operators, and the request stream and
 * right-hand sides of @p seed. File-based workloads write their
 * matrices under @p workDir. @p shards is the service's shard count,
 * used to spread operators evenly over the shards.
 */
Workload makeWorkload(const std::string &name, std::uint64_t seed,
                      const std::string &workDir, unsigned shards);

// ---- layers.cc ------------------------------------------------

/** Count and duration of the spans of one name. */
struct SpanTotals
{
    std::uint64_t count = 0;
    double ms = 0.0; //!< summed duration
    /** Duration, and duration minus same-thread child spans, with
     *  spans inside a coalesced panel counted once per request the
     *  panel served. */
    double requestMs = 0.0;
    double requestSelfMs = 0.0;
};

/**
 * Fold a span snapshot by name. A span nested (on its thread) under
 * solver.lockstep_cg is weighted by @p panelWidth, the mean number of
 * requests a coalesced panel served, so request-time shares add up.
 */
std::map<std::string, SpanTotals>
summarizeSpans(const std::vector<msc::telemetry::SpanRecord> &spans,
               double panelWidth);

/** Sum of the totals of every span name starting with @p prefix. */
SpanTotals spanPrefix(const std::map<std::string, SpanTotals> &byName,
                      const std::string &prefix);

/** Per-layer numbers from direct calls into each layer. */
struct LayerReplay
{
    double loadTextMs = 0.0;
    double loadArtifactMs = 0.0;
    double keyMs = 0.0;
    double planMs = 0.0;
    double blockedNnzFrac = 0.0;
    double acquireMissMs = 0.0;
};

/**
 * Time loadMatrixFile (text and artifact), csrContentKey +
 * operatorKey, planBlocks, and a cold PrepareCache::acquire on up to
 * @p maxOps distinct operators, each inside a benchmark span.
 * Scratch files go under @p workDir and are removed.
 */
LayerReplay replayLayers(const Workload &w, const std::string &workDir,
                         unsigned maxOps);

/** What the solo re-solves found. */
struct ResolveReport
{
    unsigned attempted = 0;
    unsigned mismatches = 0;
    double solveMs = 0.0;    //!< summed solver wall time
    double operatorMs = 0.0; //!< of which inside apply/applyBatch
};

/** A request the service answered, kept for the re-solve check. */
struct KeptResult
{
    std::uint64_t index = 0;
    msc::RequestResult result;
};

/**
 * Re-solve each kept request solo through conjugateGradient /
 * biCgStab / gmres on a prepared operator from a benchmark-owned
 * PrepareCache, wrapped in a timing forwarder, and compare x and the
 * iteration count bitwise with the service's answer.
 */
ResolveReport resolveSolo(const Workload &w,
                          const std::vector<KeptResult> &kept);

} // namespace solverbench

#endif // SOLVERBENCH_BENCH_HH
