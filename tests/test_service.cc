/**
 * @file
 * Solver-as-a-service runtime tests (service/service.hh +
 * service/scheduler.hh + service/prepare_cache.hh), plus the CG
 * panel the coalescer dispatches into (runCg() over k CgStates,
 * solver/solver.hh).
 *
 * The contracts pinned here:
 *   - a coalesced request returns exactly the bits a solo solve
 *     produces, at every thread count (the batching window is a
 *     throughput lever, never a numerics knob);
 *   - window = 1 degenerates to sequential dispatch bit-identically;
 *   - requests with different prepare-cache keys never share a
 *     panel;
 *   - cancel/deadline land mid-queue (reaped, ticket released) and
 *     mid-panel (one column stops, siblings bitwise unchanged);
 *   - admission rejects with a structured Overloaded status -- full
 *     queue and exhausted tenant tickets alike -- and a flooding
 *     tenant cannot starve another tenant's admission;
 *   - the scheduler's decision log replays identically for a fixed
 *     submission sequence;
 *   - the prepare cache keys on matrix content + placement config
 *     (not thread count), builds once, and never evicts an entry a
 *     solve still holds (the ASan-verified invariant);
 *   - ChaosService*: the ResilientSolver escalation ladder honors
 *     stop requests even when every workspace grant fails (the
 *     regression this PR fixes), and the whole service keeps its
 *     accounting invariants under a chaos storm with worker threads
 *     (the TSan soak).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "accel/cluster_operator.hh"
#include "fault/chaos.hh"
#include "fault/faulty_operator.hh"
#include "runtime/exec_context.hh"
#include "service/prepare_cache.hh"
#include "service/scheduler.hh"
#include "service/service.hh"
#include "solver/resilient.hh"
#include "solver/solver.hh"
#include "sparse/binio.hh"
#include "sparse/gen.hh"
#include "sparse/matrix_market.hh"
#include "util/random.hh"
#include "util/threadpool.hh"

namespace msc {
namespace {

Csr
spdMatrix(std::int32_t n, std::uint64_t seed)
{
    TiledParams p;
    p.rows = n;
    p.tile = 16;
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

OperatorConfig
clusterBackend()
{
    OperatorConfig cfg;
    cfg.backend = ServiceBackend::ClusterBitExact;
    return cfg;
}

/** Solo reference solve through the same operator the service
 *  builds for @p cfg (fresh operator per call, fresh workspace). */
SolverResult
directSolve(const Csr &m, const OperatorConfig &opCfg,
            std::span<const double> b, std::vector<double> &x,
            SolverKind kind = SolverKind::Cg,
            const SolverConfig &scfg = {})
{
    x.assign(b.size(), 0.0);
    if (opCfg.backend == ServiceBackend::ClusterBitExact) {
        ClusterArithmeticOperator op(m, opCfg.blocking,
                                     opCfg.cluster);
        if (kind == SolverKind::Gmres)
            return gmres(op, b, x, scfg);
        if (kind == SolverKind::BiCgStab)
            return biCgStab(op, b, x, scfg);
        return conjugateGradient(op, b, x, scfg);
    }
    CsrOperator op(m);
    if (kind == SolverKind::Gmres)
        return gmres(op, b, x, scfg);
    if (kind == SolverKind::BiCgStab)
        return biCgStab(op, b, x, scfg);
    return conjugateGradient(op, b, x, scfg);
}

void
expectBitwiseEqual(std::span<const double> a,
                   std::span<const double> b, const char *what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], b[i]) << what << ": component " << i;
}

// --- CG panels: runCg() over k states (the coalescer's solve) --------

/** Advance k independent CG states over @p op in one runCg() panel:
 *  column c solves from X's column c under cfgs[c] (default config
 *  when @p cfgs is empty). */
std::vector<SolverResult>
panelCg(LinearOperator &op, std::span<const double> B,
        std::span<double> X, unsigned k,
        std::span<const SolverConfig> cfgs = {})
{
    const auto n = static_cast<std::size_t>(op.rows());
    std::vector<std::unique_ptr<CgState>> states;
    std::vector<CgState *> panel;
    for (unsigned c = 0; c < k; ++c) {
        states.push_back(std::make_unique<CgState>(
            B.subspan(c * n, n), X.subspan(c * n, n),
            cfgs.empty() ? SolverConfig{} : cfgs[c]));
        panel.push_back(states.back().get());
    }
    runCg(op, panel);
    std::vector<SolverResult> results;
    for (const auto &s : states) {
        EXPECT_TRUE(s->done());
        results.push_back(s->result());
    }
    return results;
}

TEST(ServiceLockstep, MatchesStandaloneCgBitwise)
{
    const Csr m = spdMatrix(96, 101);
    const std::size_t n = static_cast<std::size_t>(m.rows());
    constexpr unsigned k = 5;

    std::vector<double> B(n * k), X(n * k, 0.0);
    for (unsigned c = 0; c < k; ++c) {
        const auto b = seededRhs(n, 7000 + c);
        std::copy(b.begin(), b.end(), B.begin() + c * n);
    }

    ClusterArithmeticOperator op(m, BlockingConfig{},
                                 ClusterConfig{});
    const auto results = panelCg(op, B, X, k);
    ASSERT_EQ(results.size(), k);

    for (unsigned c = 0; c < k; ++c) {
        std::vector<double> xRef(n, 0.0);
        ClusterArithmeticOperator ref(m, BlockingConfig{},
                                      ClusterConfig{});
        const SolverResult solo = conjugateGradient(
            ref, std::span<const double>(B).subspan(c * n, n),
            xRef);
        const SolverResult &got = results[c];
        EXPECT_EQ(got.status, solo.status) << "column " << c;
        EXPECT_EQ(got.converged, solo.converged) << "column " << c;
        EXPECT_EQ(got.iterations, solo.iterations) << "column " << c;
        EXPECT_EQ(got.relResidual, solo.relResidual)
            << "column " << c;
        EXPECT_EQ(got.dotCalls, solo.dotCalls) << "column " << c;
        EXPECT_EQ(got.axpyCalls, solo.axpyCalls) << "column " << c;
        expectBitwiseEqual(
            std::span<const double>(X).subspan(c * n, n), xRef,
            "lockstep column");
    }
}

TEST(ServiceLockstep, PerColumnControlsHonored)
{
    const Csr m = spdMatrix(64, 103);
    const std::size_t n = static_cast<std::size_t>(m.rows());
    constexpr unsigned k = 3;

    std::vector<double> B(n * k), X(n * k, 0.0);
    for (unsigned c = 0; c < k; ++c) {
        const auto b = seededRhs(n, 7100 + c);
        std::copy(b.begin(), b.end(), B.begin() + c * n);
    }

    std::vector<SolverConfig> ctl(k);
    ctl[0].tolerance = 1e-4; //!< loose: stops early
    ctl[1].maxIterations = 2;
    ctl[2].tolerance = 1e-10;

    CsrOperator op(m);
    const auto results = panelCg(op, B, X, k, ctl);
    ASSERT_EQ(results.size(), k);

    EXPECT_EQ(results[0].status, SolveStatus::Converged);
    EXPECT_EQ(results[1].status, SolveStatus::MaxIterations);
    EXPECT_EQ(results[1].iterations, 2);
    EXPECT_EQ(results[2].status, SolveStatus::Converged);
    EXPECT_LT(results[0].iterations, results[2].iterations);

    // Every column still matches its solo run under the same
    // control, including the early-terminated ones.
    for (unsigned c = 0; c < k; ++c) {
        SolverConfig scfg;
        scfg.tolerance = ctl[c].tolerance;
        scfg.maxIterations = ctl[c].maxIterations;
        std::vector<double> xRef(n, 0.0);
        CsrOperator ref(m);
        const SolverResult solo = conjugateGradient(
            ref, std::span<const double>(B).subspan(c * n, n), xRef,
            scfg);
        EXPECT_EQ(results[c].iterations, solo.iterations);
        expectBitwiseEqual(
            std::span<const double>(X).subspan(c * n, n), xRef,
            "controlled column");
    }
}

TEST(ServiceLockstep, ZeroRhsColumnConvergesImmediately)
{
    const Csr m = spdMatrix(64, 107);
    const std::size_t n = static_cast<std::size_t>(m.rows());
    constexpr unsigned k = 2;

    std::vector<double> B(n * k, 0.0), X(n * k, 1.0);
    const auto b1 = seededRhs(n, 7200);
    std::copy(b1.begin(), b1.end(), B.begin() + n);

    CsrOperator op(m);
    const auto results = panelCg(op, B, X, k);
    EXPECT_EQ(results[0].status, SolveStatus::Converged);
    EXPECT_EQ(results[0].iterations, 0);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(X[i], 0.0);

    // Same warm start (x0 = 1) as the panel's sibling column.
    std::vector<double> xRef(n, 1.0);
    CsrOperator ref(m);
    conjugateGradient(ref, b1, xRef);
    expectBitwiseEqual(std::span<const double>(X).subspan(n, n),
                       xRef, "sibling of zero column");
}

TEST(ServiceLockstep, CancelledColumnLeavesSiblingsBitwise)
{
    const Csr m = spdMatrix(96, 109);
    const std::size_t n = static_cast<std::size_t>(m.rows());
    constexpr unsigned k = 4;

    std::vector<double> B(n * k), X(n * k, 0.0);
    for (unsigned c = 0; c < k; ++c) {
        const auto b = seededRhs(n, 7300 + c);
        std::copy(b.begin(), b.end(), B.begin() + c * n);
    }

    ExecContext cancelCtx;
    cancelCtx.cancelAfterChecks(5);
    std::vector<SolverConfig> ctl(k);
    ctl[1].exec = &cancelCtx;

    CsrOperator op(m);
    const auto results = panelCg(op, B, X, k, ctl);

    EXPECT_EQ(results[1].status, SolveStatus::Cancelled);
    EXPECT_FALSE(results[1].converged);

    for (unsigned c = 0; c < k; ++c) {
        if (c == 1)
            continue;
        std::vector<double> xRef(n, 0.0);
        CsrOperator ref(m);
        const SolverResult solo = conjugateGradient(
            ref, std::span<const double>(B).subspan(c * n, n),
            xRef);
        EXPECT_EQ(results[c].status, solo.status);
        EXPECT_EQ(results[c].iterations, solo.iterations);
        expectBitwiseEqual(
            std::span<const double>(X).subspan(c * n, n), xRef,
            "sibling of cancelled column");
        EXPECT_LT(results[1].iterations, solo.iterations);
    }
}

// --- service: single requests and coalesced panels ------------------

TEST(Service, SingleRequestMatchesDirectSolveBitwise)
{
    const Csr m = spdMatrix(96, 201);
    const std::size_t n = static_cast<std::size_t>(m.rows());
    const auto b = seededRhs(n, 8000);

    SolverService svc;
    SolveRequest req;
    req.matrix = &m;
    req.b = b;
    RequestHandle h = svc.submit(req);
    ASSERT_TRUE(h.valid());
    EXPECT_EQ(h.state(), RequestState::Queued);

    svc.runUntilIdle();
    const RequestResult &r = h.wait();
    EXPECT_EQ(r.status, SolveStatus::Converged);
    EXPECT_FALSE(r.coalesced);
    EXPECT_EQ(r.batchWidth, 1u);
    EXPECT_FALSE(r.cacheHit);

    std::vector<double> xRef;
    const SolverResult solo = directSolve(m, {}, b, xRef);
    EXPECT_EQ(r.solve.iterations, solo.iterations);
    EXPECT_EQ(r.solve.relResidual, solo.relResidual);
    expectBitwiseEqual(r.x, xRef, "single request");

    // Second request on the same system: prepared operator comes
    // from the cache, answer stays bitwise identical.
    RequestHandle h2 = svc.submit(req);
    svc.runUntilIdle();
    EXPECT_TRUE(h2.wait().cacheHit);
    expectBitwiseEqual(h2.wait().x, xRef, "cache-warm repeat");

    const ServiceStats st = svc.stats();
    EXPECT_EQ(st.submitted, 2u);
    EXPECT_EQ(st.completed, 2u);
    EXPECT_EQ(st.rejected, 0u);
    EXPECT_EQ(svc.cacheStats().misses, 1u);
    EXPECT_EQ(svc.cacheStats().hits, 1u);
}

TEST(Service, NonCgKindsMatchDirectSolvers)
{
    const Csr m = spdMatrix(64, 203);
    const std::size_t n = static_cast<std::size_t>(m.rows());
    const auto b = seededRhs(n, 8050);

    SolverService svc;
    for (SolverKind kind :
         {SolverKind::BiCgStab, SolverKind::Gmres}) {
        SolveRequest req;
        req.matrix = &m;
        req.b = b;
        req.kind = kind;
        req.tolerance = 1e-8;
        RequestHandle h = svc.submit(req);
        svc.runUntilIdle();
        const RequestResult &r = h.wait();
        EXPECT_EQ(r.status, SolveStatus::Converged);

        SolverConfig scfg;
        scfg.tolerance = 1e-8;
        std::vector<double> xRef;
        const SolverResult solo =
            directSolve(m, {}, b, xRef, kind, scfg);
        EXPECT_EQ(r.solve.iterations, solo.iterations);
        expectBitwiseEqual(r.x, xRef, "non-CG kind");
    }
}

/**
 * The headline bitwise contract: k same-operator requests coalesce
 * into one lockstep panel and every tenant gets exactly the bits a
 * solo solve would have produced -- at every thread count.
 */
TEST(Service, CoalescedPanelMatchesDirectBitwiseAcrossThreads)
{
    const Csr m = spdMatrix(64, 205);
    const std::size_t n = static_cast<std::size_t>(m.rows());
    constexpr unsigned k = 6;
    const OperatorConfig opCfg = clusterBackend();

    // Solo references (thread-count independence of the cluster
    // operator is pinned elsewhere; compute them once at 8 lanes).
    setGlobalThreads(8);
    std::vector<std::vector<double>> refs(k);
    std::vector<SolverResult> solo(k);
    for (unsigned c = 0; c < k; ++c)
        solo[c] =
            directSolve(m, opCfg, seededRhs(n, 8100 + c), refs[c]);

    for (unsigned threads : {1u, 2u, 8u}) {
        setGlobalThreads(threads);
        ServiceConfig cfg;
        cfg.scheduler.batchWindow = 8;
        cfg.scheduler.defaultTickets = 16;
        SolverService svc(cfg);

        std::vector<RequestHandle> handles;
        for (unsigned c = 0; c < k; ++c) {
            SolveRequest req;
            req.matrix = &m;
            req.op = opCfg;
            req.b = seededRhs(n, 8100 + c);
            handles.push_back(svc.submit(req));
        }
        svc.runUntilIdle();

        for (unsigned c = 0; c < k; ++c) {
            const RequestResult &r = handles[c].wait();
            EXPECT_EQ(r.status, SolveStatus::Converged)
                << "threads " << threads << " column " << c;
            EXPECT_TRUE(r.coalesced);
            EXPECT_EQ(r.batchWidth, k);
            EXPECT_EQ(r.solve.iterations, solo[c].iterations);
            EXPECT_EQ(r.solve.relResidual, solo[c].relResidual);
            expectBitwiseEqual(r.x, refs[c], "coalesced column");
        }
        const ServiceStats st = svc.stats();
        EXPECT_EQ(st.batches, 1u);
        EXPECT_EQ(st.coalescedBatches, 1u);
    }
    setGlobalThreads(8);
}

TEST(Service, WindowOneDegeneratesToSequentialBitwise)
{
    const Csr m = spdMatrix(64, 207);
    const std::size_t n = static_cast<std::size_t>(m.rows());
    constexpr unsigned k = 4;

    ServiceConfig cfg;
    cfg.scheduler.batchWindow = 1;
    cfg.scheduler.defaultTickets = 16;
    SolverService svc(cfg);

    std::vector<RequestHandle> handles;
    for (unsigned c = 0; c < k; ++c) {
        SolveRequest req;
        req.matrix = &m;
        req.b = seededRhs(n, 8200 + c);
        handles.push_back(svc.submit(req));
    }
    svc.runUntilIdle();

    for (unsigned c = 0; c < k; ++c) {
        const RequestResult &r = handles[c].wait();
        EXPECT_FALSE(r.coalesced);
        EXPECT_EQ(r.batchWidth, 1u);
        std::vector<double> xRef;
        const SolverResult solo =
            directSolve(m, {}, seededRhs(n, 8200 + c), xRef);
        EXPECT_EQ(r.solve.iterations, solo.iterations);
        expectBitwiseEqual(r.x, xRef, "window-1 request");
    }

    // Every dispatch decision carries exactly one request.
    unsigned dispatches = 0;
    for (const Decision &d : svc.decisionLog())
        if (d.kind == DecisionKind::Dispatch) {
            ++dispatches;
            EXPECT_EQ(d.batch.size(), 1u);
        }
    EXPECT_EQ(dispatches, k);
    EXPECT_EQ(svc.stats().coalescedBatches, 0u);
}

TEST(Service, MixedOperatorsNeverCoalesce)
{
    const Csr ma = spdMatrix(64, 209);
    const Csr mb = spdMatrix(64, 211);
    const std::size_t n = static_cast<std::size_t>(ma.rows());

    ServiceConfig cfg;
    cfg.scheduler.batchWindow = 8;
    cfg.scheduler.defaultTickets = 16;
    SolverService svc(cfg);

    // Interleave two distinct prepare-cache keys in the queue.
    std::vector<RequestHandle> handles;
    std::vector<std::uint64_t> idsA, idsB;
    for (unsigned i = 0; i < 3; ++i) {
        SolveRequest ra;
        ra.matrix = &ma;
        ra.b = seededRhs(n, 8300 + i);
        handles.push_back(svc.submit(ra));
        idsA.push_back(handles.back().id());
        SolveRequest rb;
        rb.matrix = &mb;
        rb.b = seededRhs(n, 8400 + i);
        handles.push_back(svc.submit(rb));
        idsB.push_back(handles.back().id());
    }
    svc.runUntilIdle();

    // No dispatch batch mixes ids from the two key groups.
    const auto isA = [&](std::uint64_t id) {
        return std::find(idsA.begin(), idsA.end(), id) !=
               idsA.end();
    };
    for (const Decision &d : svc.decisionLog()) {
        if (d.kind != DecisionKind::Dispatch)
            continue;
        ASSERT_FALSE(d.batch.empty());
        const bool headIsA = isA(d.batch.front());
        for (std::uint64_t id : d.batch)
            EXPECT_EQ(isA(id), headIsA)
                << "batch mixed prepare-cache keys";
    }

    // Both groups coalesced internally (3 + 3 -> 2 dispatches) and
    // every answer matches its solo solve.
    EXPECT_EQ(svc.stats().batches, 2u);
    for (unsigned i = 0; i < handles.size(); ++i) {
        const RequestResult &r = handles[i].wait();
        EXPECT_EQ(r.status, SolveStatus::Converged);
        EXPECT_EQ(r.batchWidth, 3u);
        const bool a = i % 2 == 0;
        std::vector<double> xRef;
        directSolve(a ? ma : mb, {},
                    seededRhs(n, (a ? 8300 : 8400) + i / 2), xRef);
        expectBitwiseEqual(r.x, xRef, "mixed-key request");
    }
    EXPECT_EQ(svc.cacheStats().entries, 2u);
}

TEST(Service, CancelMidPanelLeavesSiblingsBitwise)
{
    const Csr m = spdMatrix(96, 213);
    const std::size_t n = static_cast<std::size_t>(m.rows());
    constexpr unsigned k = 4;

    ServiceConfig cfg;
    cfg.scheduler.batchWindow = 8;
    cfg.scheduler.defaultTickets = 16;
    SolverService svc(cfg);

    std::vector<RequestHandle> handles;
    for (unsigned c = 0; c < k; ++c) {
        SolveRequest req;
        req.matrix = &m;
        req.b = seededRhs(n, 8500 + c);
        if (c == 2)
            req.cancelAfterChecks = 5; // fires mid-iteration
        handles.push_back(svc.submit(req));
    }
    svc.runUntilIdle();

    EXPECT_EQ(handles[2].wait().status, SolveStatus::Cancelled);
    EXPECT_TRUE(handles[2].wait().coalesced);
    for (unsigned c = 0; c < k; ++c) {
        if (c == 2)
            continue;
        const RequestResult &r = handles[c].wait();
        EXPECT_EQ(r.status, SolveStatus::Converged);
        std::vector<double> xRef;
        const SolverResult solo =
            directSolve(m, {}, seededRhs(n, 8500 + c), xRef);
        EXPECT_EQ(r.solve.iterations, solo.iterations);
        expectBitwiseEqual(r.x, xRef,
                           "sibling of cancelled request");
        EXPECT_LT(handles[2].wait().solve.iterations,
                  solo.iterations);
    }
}

// --- service: scheduling, admission, lifecycle ----------------------

TEST(Service, PriorityDispatchesFirst)
{
    const Csr ma = spdMatrix(64, 215);
    const Csr mb = spdMatrix(64, 217);
    const std::size_t n = static_cast<std::size_t>(ma.rows());

    SolverService svc;
    SolveRequest low;
    low.matrix = &ma;
    low.b = seededRhs(n, 8600);
    low.priority = 0;
    SolveRequest high;
    high.matrix = &mb;
    high.b = seededRhs(n, 8601);
    high.priority = 5;

    RequestHandle hLow = svc.submit(low);
    RequestHandle hHigh = svc.submit(high);
    svc.runUntilIdle();

    EXPECT_EQ(hLow.wait().status, SolveStatus::Converged);
    EXPECT_EQ(hHigh.wait().status, SolveStatus::Converged);

    std::vector<std::uint64_t> dispatchOrder;
    for (const Decision &d : svc.decisionLog())
        if (d.kind == DecisionKind::Dispatch)
            dispatchOrder.push_back(d.requestId);
    ASSERT_EQ(dispatchOrder.size(), 2u);
    EXPECT_EQ(dispatchOrder[0], hHigh.id());
    EXPECT_EQ(dispatchOrder[1], hLow.id());
}

TEST(Service, DeadlineExpiredMidQueueIsReaped)
{
    const Csr m = spdMatrix(64, 219);
    const std::size_t n = static_cast<std::size_t>(m.rows());

    SolverService svc;
    SolveRequest req;
    req.matrix = &m;
    req.b = seededRhs(n, 8700);
    req.deadline = std::chrono::nanoseconds(1);
    RequestHandle h = svc.submit(req);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    svc.runUntilIdle();

    const RequestResult &r = h.wait();
    EXPECT_EQ(r.status, SolveStatus::DeadlineExceeded);
    EXPECT_EQ(r.solve.iterations, 0);
    EXPECT_EQ(svc.stats().deadlineExpired, 1u);

    bool sawDrop = false;
    for (const Decision &d : svc.decisionLog())
        if (d.kind == DecisionKind::Drop && d.requestId == h.id()) {
            sawDrop = true;
            EXPECT_EQ(d.reason, SolveStatus::DeadlineExceeded);
        }
    EXPECT_TRUE(sawDrop);
}

TEST(Service, CancelMidQueueReleasesTicket)
{
    const Csr m = spdMatrix(64, 221);
    const std::size_t n = static_cast<std::size_t>(m.rows());

    ServiceConfig cfg;
    cfg.scheduler.batchWindow = 1;
    SolverService svc(cfg);

    SolveRequest req;
    req.matrix = &m;
    req.b = seededRhs(n, 8800);
    RequestHandle keep = svc.submit(req);
    req.b = seededRhs(n, 8801);
    RequestHandle victim = svc.submit(req);
    victim.cancel();
    svc.runUntilIdle();

    EXPECT_EQ(keep.wait().status, SolveStatus::Converged);
    EXPECT_EQ(victim.wait().status, SolveStatus::Cancelled);
    EXPECT_EQ(victim.wait().solve.iterations, 0);
    EXPECT_EQ(svc.stats().cancelled, 1u);
    EXPECT_EQ(svc.stats().completed, 1u);
    EXPECT_EQ(svc.queueDepth(), 0u);
}

TEST(Service, OverloadRejectsWithStructuredStatus)
{
    const Csr m = spdMatrix(64, 223);
    const std::size_t n = static_cast<std::size_t>(m.rows());

    ServiceConfig cfg;
    cfg.scheduler.queueCapacity = 2;
    cfg.scheduler.defaultTickets = 16;
    SolverService svc(cfg);

    SolveRequest req;
    req.matrix = &m;
    std::vector<RequestHandle> handles;
    for (unsigned i = 0; i < 3; ++i) {
        req.b = seededRhs(n, 8900 + i);
        handles.push_back(svc.submit(req));
    }

    // Third submission bounced immediately: terminal before any
    // pump, empty iterate, structured status.
    EXPECT_EQ(handles[2].state(), RequestState::Done);
    EXPECT_EQ(handles[2].wait().status, SolveStatus::Overloaded);
    EXPECT_TRUE(handles[2].wait().x.empty());

    svc.runUntilIdle();
    EXPECT_EQ(handles[0].wait().status, SolveStatus::Converged);
    EXPECT_EQ(handles[1].wait().status, SolveStatus::Converged);
    EXPECT_EQ(svc.stats().rejected, 1u);
}

TEST(Service, TicketExhaustionCannotStarveOtherTenants)
{
    const Csr m = spdMatrix(64, 225);
    const std::size_t n = static_cast<std::size_t>(m.rows());

    ServiceConfig cfg;
    cfg.scheduler.queueCapacity = 64;
    cfg.scheduler.defaultTickets = 2;
    SolverService svc(cfg);

    // A flooding tenant burns its two tickets; the rest bounce.
    std::vector<RequestHandle> flood;
    for (unsigned i = 0; i < 6; ++i) {
        SolveRequest req;
        req.tenant = "flood";
        req.matrix = &m;
        req.b = seededRhs(n, 9000 + i);
        flood.push_back(svc.submit(req));
    }
    // The queue has plenty of room: a different tenant still gets
    // admitted and served.
    SolveRequest quiet;
    quiet.tenant = "victim";
    quiet.matrix = &m;
    quiet.b = seededRhs(n, 9100);
    RequestHandle victim = svc.submit(quiet);
    EXPECT_EQ(victim.state(), RequestState::Queued);

    unsigned rejected = 0;
    for (auto &h : flood)
        if (h.done() &&
            h.wait().status == SolveStatus::Overloaded)
            ++rejected;
    EXPECT_EQ(rejected, 4u);

    svc.runUntilIdle();
    EXPECT_EQ(victim.wait().status, SolveStatus::Converged);
    EXPECT_EQ(svc.stats().rejected, 4u);
    EXPECT_EQ(svc.stats().completed, 3u); // 2 flood + 1 victim

    // Tickets released after completion: the tenant can submit
    // again.
    SolveRequest again;
    again.tenant = "flood";
    again.matrix = &m;
    again.b = seededRhs(n, 9200);
    RequestHandle h = svc.submit(again);
    EXPECT_EQ(h.state(), RequestState::Queued);
    svc.runUntilIdle();
    EXPECT_EQ(h.wait().status, SolveStatus::Converged);
}

TEST(Service, ReplayIdenticalDecisionLog)
{
    const Csr ma = spdMatrix(64, 227);
    const Csr mb = spdMatrix(64, 229);
    const std::size_t n = static_cast<std::size_t>(ma.rows());

    const auto drive = [&](SolverService &svc) {
        for (unsigned i = 0; i < 8; ++i) {
            SolveRequest req;
            req.tenant = i % 3 == 0 ? "a" : "b";
            req.priority = static_cast<int>(i % 2);
            req.matrix = i % 2 == 0 ? &ma : &mb;
            req.b = seededRhs(n, 9300 + i);
            svc.submit(req);
            if (i == 5)
                svc.runUntilIdle(); // mid-sequence drain
        }
        svc.runUntilIdle();
    };

    ServiceConfig cfg;
    cfg.scheduler.batchWindow = 4;
    cfg.scheduler.defaultTickets = 3;
    SolverService first(cfg);
    drive(first);
    SolverService second(cfg);
    drive(second);

    const auto logA = first.decisionLog();
    const auto logB = second.decisionLog();
    // The whole run fits the log window: nothing was trimmed.
    ASSERT_LT(logA.size(), AdmissionScheduler::decisionLogCap);
    ASSERT_FALSE(logA.empty());
    EXPECT_EQ(logA.front().seq, 0u);
    ASSERT_EQ(logA.size(), logB.size());
    for (std::size_t i = 0; i < logA.size(); ++i) {
        EXPECT_EQ(logA[i].kind, logB[i].kind) << "decision " << i;
        EXPECT_EQ(logA[i].seq, logB[i].seq) << "decision " << i;
        EXPECT_EQ(logA[i].requestId, logB[i].requestId)
            << "decision " << i;
        EXPECT_EQ(logA[i].tenant, logB[i].tenant) << "decision " << i;
        EXPECT_EQ(logA[i].priority, logB[i].priority)
            << "decision " << i;
        EXPECT_EQ(logA[i].batch, logB[i].batch) << "decision " << i;
        EXPECT_EQ(logA[i].reason, logB[i].reason) << "decision " << i;
    }
}

TEST(Service, StopReapsQueuedAndRejectsNewWork)
{
    const Csr m = spdMatrix(64, 231);
    const std::size_t n = static_cast<std::size_t>(m.rows());

    SolverService svc;
    SolveRequest req;
    req.matrix = &m;
    req.b = seededRhs(n, 9400);
    RequestHandle h1 = svc.submit(req);
    req.b = seededRhs(n, 9401);
    RequestHandle h2 = svc.submit(req);

    svc.stop();
    EXPECT_EQ(h1.wait().status, SolveStatus::Cancelled);
    EXPECT_EQ(h2.wait().status, SolveStatus::Cancelled);

    req.b = seededRhs(n, 9402);
    RequestHandle h3 = svc.submit(req);
    EXPECT_EQ(h3.wait().status, SolveStatus::Overloaded);
}

TEST(Service, MalformedRequestFailsStructurally)
{
    SolverService svc;
    SolveRequest req; // no matrix
    RequestHandle h = svc.submit(req);
    EXPECT_EQ(h.wait().status, SolveStatus::Failed);
    EXPECT_FALSE(h.wait().error.empty());

    const Csr m = spdMatrix(64, 233);
    SolveRequest bad;
    bad.matrix = &m;
    bad.b.assign(3, 1.0); // wrong length
    RequestHandle h2 = svc.submit(bad);
    EXPECT_EQ(h2.wait().status, SolveStatus::Failed);
}

/**
 * File-path submission: a request naming `matrixFile` resolves
 * through loadMatrixFile (artifact fast path when a sidecar exists),
 * lands on the same cache entry an in-memory submit of the same
 * matrix uses, and returns the same bits. A missing file fails
 * structurally, like any malformed request.
 */
TEST(Service, MatrixFileRequestSharesCacheAndBits)
{
    const Csr m = spdMatrix(96, 237);
    const std::size_t n = static_cast<std::size_t>(m.rows());
    const auto b = seededRhs(n, 9600);

    const std::string mtx = "/tmp/msc_test_service_file.mtx";
    writeMatrixMarket(m, mtx);
    writeArtifact(artifactSidecarPath(mtx), m);

    SolverService svc;
    SolveRequest inMem;
    inMem.matrix = &m;
    inMem.b = b;
    RequestHandle h1 = svc.submit(inMem);
    svc.runUntilIdle();
    ASSERT_EQ(h1.wait().status, SolveStatus::Converged);
    EXPECT_FALSE(h1.wait().cacheHit);

    SolveRequest byFile;
    byFile.matrixFile = mtx;
    byFile.b = b;
    RequestHandle h2 = svc.submit(byFile);
    svc.runUntilIdle();
    ASSERT_EQ(h2.wait().status, SolveStatus::Converged);
    // The artifact-borne key matches the in-memory one: warm hit.
    EXPECT_TRUE(h2.wait().cacheHit);
    expectBitwiseEqual(h2.wait().x, h1.wait().x, "file vs memory");

    // Sidecar gone: text parse still resolves to the same entry.
    std::remove(artifactSidecarPath(mtx).c_str());
    RequestHandle h3 = svc.submit(byFile);
    svc.runUntilIdle();
    ASSERT_EQ(h3.wait().status, SolveStatus::Converged);
    EXPECT_TRUE(h3.wait().cacheHit);
    expectBitwiseEqual(h3.wait().x, h1.wait().x, "parsed file");
    std::remove(mtx.c_str());

    SolveRequest missing;
    missing.matrixFile = "/tmp/msc_test_service_no_such_file.mtx";
    missing.b = b;
    RequestHandle h4 = svc.submit(missing);
    EXPECT_EQ(h4.wait().status, SolveStatus::Failed);
    EXPECT_FALSE(h4.wait().error.empty());
}

/**
 * The loaded-matrix LRU: a rewritten matrix file is reloaded (never
 * served stale from the pin), and many distinct tenant-supplied
 * paths stay bounded by loadedCapBytes instead of growing service
 * memory without bound.
 */
TEST(Service, MatrixFileReloadsOnRewriteAndStaysBounded)
{
    namespace fs = std::filesystem;
    const std::string mtx = "/tmp/msc_test_service_rewrite.mtx";
    const Csr a = spdMatrix(64, 241);
    const Csr b = spdMatrix(64, 251);
    const auto rhs = seededRhs(64, 9700);

    SolverService svc;
    writeMatrixMarket(a, mtx);
    SolveRequest req;
    req.matrixFile = mtx;
    req.b = rhs;
    {
        RequestHandle h = svc.submit(req);
        svc.runUntilIdle();
        ASSERT_EQ(h.wait().status, SolveStatus::Converged);
        std::vector<double> xa;
        directSolve(a, {}, rhs, xa);
        expectBitwiseEqual(h.wait().x, xa, "before rewrite");
    }
    EXPECT_EQ(svc.loadedMatrixCount(), 1u);

    // Regenerate the file; nudge the mtime explicitly so the test
    // does not depend on filesystem timestamp granularity.
    const auto oldTime = fs::last_write_time(mtx);
    writeMatrixMarket(b, mtx);
    fs::last_write_time(mtx, oldTime + std::chrono::seconds(2));
    {
        RequestHandle h = svc.submit(req);
        svc.runUntilIdle();
        ASSERT_EQ(h.wait().status, SolveStatus::Converged);
        std::vector<double> xb;
        directSolve(b, {}, rhs, xb);
        expectBitwiseEqual(h.wait().x, xb, "after rewrite");
    }
    EXPECT_EQ(svc.loadedMatrixCount(), 1u);
    std::remove(mtx.c_str());

    // Bound: with a tiny cap, each newly loaded path evicts the
    // previous (unreferenced) one instead of accumulating.
    ServiceConfig tiny;
    tiny.loadedCapBytes = 1;
    SolverService bounded(tiny);
    for (int i = 0; i < 4; ++i) {
        const std::string path =
            "/tmp/msc_test_service_lru_" + std::to_string(i) +
            ".mtx";
        writeMatrixMarket(spdMatrix(64, 261 + i), path);
        SolveRequest r;
        r.matrixFile = path;
        r.b = rhs;
        {
            RequestHandle h = bounded.submit(r);
            bounded.runUntilIdle();
            EXPECT_EQ(h.wait().status, SolveStatus::Converged);
        }
        std::remove(path.c_str());
        EXPECT_LE(bounded.loadedMatrixCount(), 2u) << "path " << i;
    }
    // The last insert sees every predecessor unreferenced: only the
    // newest entry may remain over a 1-byte cap.
    EXPECT_EQ(bounded.loadedMatrixCount(), 1u);
}

TEST(Service, AsyncWorkersDrainAndMatchDirectSolves)
{
    const Csr m = spdMatrix(64, 235);
    const std::size_t n = static_cast<std::size_t>(m.rows());
    constexpr unsigned kReqs = 10;

    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.scheduler.batchWindow = 4;
    cfg.scheduler.defaultTickets = 16;
    SolverService svc(cfg);

    std::vector<RequestHandle> handles;
    for (unsigned i = 0; i < kReqs; ++i) {
        SolveRequest req;
        req.tenant = i % 2 == 0 ? "even" : "odd";
        req.matrix = &m;
        req.b = seededRhs(n, 9500 + i);
        handles.push_back(svc.submit(req));
    }

    for (unsigned i = 0; i < kReqs; ++i) {
        const RequestResult &r = handles[i].wait();
        EXPECT_EQ(r.status, SolveStatus::Converged) << "req " << i;
        std::vector<double> xRef;
        directSolve(m, {}, seededRhs(n, 9500 + i), xRef);
        expectBitwiseEqual(r.x, xRef, "async request");
    }
    svc.stop();
    const ServiceStats st = svc.stats();
    EXPECT_EQ(st.submitted, kReqs);
    EXPECT_EQ(st.completed, kReqs);
    EXPECT_EQ(svc.queueDepth(), 0u);
}

// --- prepare cache --------------------------------------------------

TEST(ServiceCache, SameMatrixTwoConfigsTwoEntries)
{
    const Csr m = spdMatrix(64, 301);
    PrepareCache cache;

    bool hit = true;
    auto a = cache.acquire(m, {}, &hit);
    EXPECT_FALSE(hit);
    auto b = cache.acquire(m, clusterBackend(), &hit);
    EXPECT_FALSE(hit);
    EXPECT_NE(a.get(), b.get());
    EXPECT_FALSE(a->key() == b->key());

    auto a2 = cache.acquire(m, {}, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(a.get(), a2.get());
    auto b2 = cache.acquire(m, clusterBackend(), &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(b.get(), b2.get());

    const PrepareCache::Stats st = cache.stats();
    EXPECT_EQ(st.entries, 2u);
    EXPECT_EQ(st.misses, 2u);
    EXPECT_EQ(st.hits, 2u);
}

TEST(ServiceCache, KeyIgnoresThreadCountAndSeesContent)
{
    const Csr m = spdMatrix(64, 303);

    setGlobalThreads(1);
    const CacheKey k1 = operatorKey(m, {});
    setGlobalThreads(8);
    const CacheKey k8 = operatorKey(m, {});
    EXPECT_TRUE(k1 == k8);

    // Different matrix content -> different key.
    const Csr other = spdMatrix(64, 304);
    EXPECT_FALSE(operatorKey(other, {}) == k1);

    // Different placement/arithmetic config -> different key.
    OperatorConfig cl = clusterBackend();
    const CacheKey kc = operatorKey(m, cl);
    EXPECT_FALSE(kc == k1);
    cl.cluster.targetMantissaBits += 1;
    EXPECT_FALSE(operatorKey(m, cl) == kc);

    // Pinned key values: the byte stream operatorKey hashes must not
    // drift, since keys also pick each operator's home shard.
    OperatorConfig ac;
    ac.backend = ServiceBackend::Accel;
    const struct
    {
        OperatorConfig cfg;
        CacheKey want;
    } pinned[] = {
        {{}, {0xbcd8ee16fecce9ebULL, 0xf52bbbb822473091ULL}},
        {ac, {0xafa1a048ab582debULL, 0x009bb70487496a4dULL}},
        {clusterBackend(),
         {0x3b7cba74e8cda01aULL, 0x378669a82a9aaa56ULL}},
    };
    for (const auto &p : pinned) {
        const CacheKey got = operatorKey(m, p.cfg);
        EXPECT_EQ(got.hi, p.want.hi);
        EXPECT_EQ(got.lo, p.want.lo);
    }
}

TEST(ServiceCache, StatsFidelityIsPartOfTheKey)
{
    // Full fidelity prepares a different operator (no stats sample,
    // slice-level applies), so it keys a distinct entry; the default
    // Sampled mode keys exactly as the pinned values above.
    const Csr m = spdMatrix(64, 303);
    OperatorConfig full = clusterBackend();
    full.cluster.statsFidelity = StatsFidelity::Full;
    const CacheKey ks = operatorKey(m, clusterBackend());
    const CacheKey kf = operatorKey(m, full);
    EXPECT_FALSE(ks == kf);

    PrepareCache cache;
    bool hit = true;
    auto a = cache.acquire(m, clusterBackend(), &hit);
    EXPECT_FALSE(hit);
    auto b = cache.acquire(m, full, &hit);
    EXPECT_FALSE(hit);
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(cache.stats().entries, 2u);
}

/** Blocks its callers until @p n have arrived (or a generous
 *  timeout passes, so a regression fails instead of hanging);
 *  returns whether all n met. */
class Rendezvous
{
  public:
    explicit Rendezvous(unsigned n) : want(n) {}

    bool
    arriveAndWait()
    {
        std::unique_lock lock(mu);
        if (++arrived >= want)
            cv.notify_all();
        return cv.wait_for(lock, std::chrono::seconds(30),
                           [&] { return arrived >= want; });
    }

  private:
    std::mutex mu;
    std::condition_variable cv;
    unsigned arrived = 0;
    unsigned want;
};

TEST(PrepareCache, DistinctKeysBuildConcurrently)
{
    // Each build waits until both builds are running: with misses
    // serialized on one lock the second build could not start until
    // the first returned, and the rendezvous would time out.
    const Csr m = spdMatrix(32, 311);
    OperatorConfig ca, cb;
    cb.cluster.targetMantissaBits = 40; // a second key, same matrix
    PrepareCache cache;
    Rendezvous both(2);
    std::atomic<int> met{0};
    const auto acquireWith = [&](const OperatorConfig &cfg) {
        return cache.acquireKeyed(
            operatorKey(m, cfg), 0, nullptr, [&](CacheKey key) {
                if (both.arriveAndWait())
                    ++met;
                return std::make_shared<PreparedOperator>(m, cfg, key);
            });
    };
    std::shared_ptr<PreparedOperator> a, b;
    std::thread ta([&] { a = acquireWith(ca); });
    std::thread tb([&] { b = acquireWith(cb); });
    ta.join();
    tb.join();
    EXPECT_EQ(met.load(), 2);
    ASSERT_TRUE(a && b);
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(PrepareCache, ConcurrentSameKeyMissesBuildOnce)
{
    // One build is held open while more callers miss on the same
    // (key, replica): they wait for it instead of building, and all
    // receive the one entry. A second replica of the key is a
    // separate pair and builds separately.
    const Csr m = spdMatrix(32, 313);
    const OperatorConfig cfg;
    const CacheKey key = operatorKey(m, cfg);
    PrepareCache cache;
    constexpr unsigned callers = 6;
    Rendezvous started(callers + 1);
    Rendezvous inFlight(2);
    std::atomic<int> builds{0};
    const auto build = [&](CacheKey k) {
        ++builds;
        inFlight.arriveAndWait(); // until the test sees it running
        return std::make_shared<PreparedOperator>(m, cfg, k);
    };
    std::vector<std::shared_ptr<PreparedOperator>> got(callers);
    std::vector<int> hits(callers, -1);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < callers; ++t) {
        threads.emplace_back([&, t] {
            started.arriveAndWait();
            bool hit = false;
            got[t] = cache.acquireKeyed(key, 0, &hit, build);
            hits[t] = hit ? 1 : 0;
        });
    }
    started.arriveAndWait();
    EXPECT_TRUE(inFlight.arriveAndWait());
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(builds.load(), 1);
    int missCount = 0;
    for (unsigned t = 0; t < callers; ++t) {
        ASSERT_TRUE(got[t]);
        EXPECT_EQ(got[t].get(), got[0].get());
        missCount += hits[t] == 0;
    }
    EXPECT_EQ(missCount, 1);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, callers - 1);

    bool hit = true;
    auto replica = cache.acquireKeyed(key, 1, &hit, [&](CacheKey k) {
        ++builds;
        return std::make_shared<PreparedOperator>(m, cfg, k);
    });
    EXPECT_FALSE(hit);
    EXPECT_EQ(builds.load(), 2);
    EXPECT_NE(replica.get(), got[0].get());
}

TEST(PrepareCache, FailedBuildLeavesThePairBuildable)
{
    // A throwing build reaches its caller and leaves nothing in
    // flight: the next miss on the pair builds instead of waiting.
    const Csr m = spdMatrix(32, 317);
    const OperatorConfig cfg;
    const CacheKey key = operatorKey(m, cfg);
    PrepareCache cache;
    EXPECT_THROW(cache.acquireKeyed(key, 0, nullptr,
                                    [](CacheKey) -> std::shared_ptr<
                                                     PreparedOperator> {
                                        throw std::runtime_error("no");
                                    }),
                 std::runtime_error);
    bool hit = true;
    auto built = cache.acquireKeyed(key, 0, &hit, [&](CacheKey k) {
        return std::make_shared<PreparedOperator>(m, cfg, k);
    });
    EXPECT_FALSE(hit);
    ASSERT_TRUE(built);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ServiceCache, EvictionNeverFreesLiveEntries)
{
    const Csr ma = spdMatrix(64, 305);
    const Csr mb = spdMatrix(64, 306);
    const Csr mc = spdMatrix(64, 307);

    // Measure entry weight, then build a cache that fits ~1 entry.
    std::size_t oneEntry = 0;
    {
        PrepareCache probe;
        probe.acquire(ma, {}, nullptr);
        oneEntry = probe.stats().bytes;
    }
    ASSERT_GT(oneEntry, 0u);

    PrepareCache cache(oneEntry + oneEntry / 2);
    auto live = cache.acquire(ma, {}, nullptr); // held ref
    cache.acquire(mb, {}, nullptr);             // dropped ref
    cache.acquire(mc, {}, nullptr);             // dropped ref

    const PrepareCache::Stats st = cache.stats();
    EXPECT_GE(st.evictions, 1u);

    // The held entry survived every eviction pass and still works
    // (ASan guards the use-after-free half of this claim).
    bool hit = false;
    auto again = cache.acquire(ma, {}, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(live.get(), again.get());
    const std::size_t n = static_cast<std::size_t>(ma.rows());
    std::vector<double> x(n, 1.0), y(n, 0.0);
    live->op().apply(x, y);
    double sum = 0.0;
    for (double v : y)
        sum += v * v;
    EXPECT_GT(sum, 0.0);
}

TEST(ServiceCache, LruEvictsColdestUnreferencedEntry)
{
    // Same matrix, three distinct keys of identical weight: the
    // cluster arithmetic fields are part of the key even when the
    // CSR backend never reads them, so varying one forges
    // equal-sized cache entries with different identities.
    const Csr m = spdMatrix(64, 309);
    OperatorConfig ca, cb, cc;
    ca.cluster.targetMantissaBits = 21;
    cb.cluster.targetMantissaBits = 22;
    cc.cluster.targetMantissaBits = 23;

    std::size_t oneEntry = 0;
    {
        PrepareCache probe;
        probe.acquire(m, ca, nullptr);
        oneEntry = probe.stats().bytes;
    }

    PrepareCache cache(2 * oneEntry);
    cache.acquire(m, ca, nullptr);
    cache.acquire(m, cb, nullptr);
    cache.acquire(m, ca, nullptr); // refresh A: B is now coldest
    cache.acquire(m, cc, nullptr); // over cap: evicts B

    // Check A first: re-acquiring B is a miss that re-inserts it
    // and would push the cache over cap again.
    bool hit = false;
    cache.acquire(m, ca, &hit);
    EXPECT_TRUE(hit); // A survived the whole dance
    cache.acquire(m, cc, &hit);
    EXPECT_TRUE(hit); // C (just inserted) survived too
    cache.acquire(m, cb, &hit);
    EXPECT_FALSE(hit); // B was the one evicted
}

// --- chaos tier: the resilient-ladder regression and the soak -------

/**
 * Regression (this PR): the ResilientSolver escalation ladder must
 * honor a stop request even when the segment dies before the inner
 * solver's first poll. With every workspace grant failing, the
 * pre-fix ladder never polled the ExecContext at all: an armed
 * cancellation was ignored, the retry budget burned to exhaustion,
 * and the caller saw Degraded instead of Cancelled.
 */
TEST(ChaosServiceResilient, LadderHonorsCancelUnderAllocFailure)
{
    const Csr m = spdMatrix(128, 401);
    const std::size_t n = static_cast<std::size_t>(m.rows());
    std::vector<double> b(n, 1.0), x(n, 0.0);
    FaultyAccelOperator op(m, FaultCampaign{});

    ExecContext ctx;
    SolverConfig cfg;
    cfg.exec = &ctx;
    ResilientSolver solver(op, SolverKind::Cg, cfg);

    ChaosCampaign camp;
    camp.allocFailRate = 1.0;    // every segment dies at its first
                                 // workspace grant
    camp.cancelAfterChecks = 3;  // stop lands mid-ladder
    ChaosEngine chaos(camp);
    chaos.arm(ctx);

    const SolverResult r = solver.solve(b, x);
    EXPECT_EQ(r.status, SolveStatus::Cancelled);
    EXPECT_FALSE(r.converged);
    EXPECT_GE(r.recovery.allocFailures, 1u); // the storm did engage
    EXPECT_LT(r.recovery.retryAttempts, 10u); // budget NOT burned out
    for (double v : x)
        EXPECT_EQ(v, 0.0); // checkpoint restored, not garbage
}

TEST(ChaosServiceResilient, LadderHonorsDeadlineUnderAllocFailure)
{
    const Csr m = spdMatrix(128, 403);
    const std::size_t n = static_cast<std::size_t>(m.rows());
    std::vector<double> b(n, 1.0), x(n, 0.0);
    FaultyAccelOperator op(m, FaultCampaign{});

    ExecContext ctx;
    ctx.setDeadline(ExecContext::Clock::now() -
                    std::chrono::milliseconds(1));
    SolverConfig cfg;
    cfg.exec = &ctx;
    ResilientSolver solver(op, SolverKind::Cg, cfg);

    ChaosCampaign camp;
    camp.allocFailRate = 1.0;
    ChaosEngine chaos(camp);

    const SolverResult r = solver.solve(b, x);
    EXPECT_EQ(r.status, SolveStatus::DeadlineExceeded);
    EXPECT_EQ(r.recovery.retryAttempts, 0u); // stopped before rung 1
}

/**
 * The soak: worker threads + chaos injection (delays, worker
 * throws, allocation failures) + deadlines + mid-flight cancels
 * across tenants and backends. Every handle must reach a terminal
 * state with a structured status and the accounting must balance --
 * under TSan this is the service's data-race certificate.
 */
TEST(ChaosServiceSoak, MultiTenantStormKeepsInvariants)
{
    const Csr ma = spdMatrix(64, 405);
    const Csr mb = spdMatrix(64, 407);
    const std::size_t n = static_cast<std::size_t>(ma.rows());
    constexpr unsigned kReqs = 120;

    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.scheduler.batchWindow = 4;
    cfg.scheduler.queueCapacity = 32;
    cfg.scheduler.defaultTickets = 8;
    SolverService svc(cfg);

    ChaosCampaign camp;
    camp.seed = 99;
    camp.taskDelayRate = 0.05;
    camp.taskDelayUs = 5;
    camp.taskThrowRate = 0.02;
    camp.allocFailRate = 0.02;
    ChaosEngine chaos(camp);

    std::vector<RequestHandle> handles;
    handles.reserve(kReqs);
    for (unsigned i = 0; i < kReqs; ++i) {
        SolveRequest req;
        req.tenant = i % 3 == 0 ? "a" : (i % 3 == 1 ? "b" : "c");
        req.matrix = i % 2 == 0 ? &ma : &mb;
        req.b = seededRhs(n, 9900 + i);
        req.maxIterations = 400;
        if (i % 11 == 0)
            req.deadline = std::chrono::milliseconds(2);
        handles.push_back(svc.submit(req));
        if (i % 7 == 0)
            handles.back().cancel(); // mid-flight cancel storm
    }

    std::uint64_t byStatus[8] = {};
    for (auto &h : handles) {
        const RequestResult &r = h.wait();
        switch (r.status) {
          case SolveStatus::Converged:
          case SolveStatus::MaxIterations:
            ++byStatus[0];
            // A solve that ran to completion carries an iterate of
            // the right length with finite entries.
            EXPECT_EQ(r.x.size(), n);
            break;
          case SolveStatus::Cancelled:
            ++byStatus[1];
            break;
          case SolveStatus::DeadlineExceeded:
            ++byStatus[2];
            break;
          case SolveStatus::Overloaded:
            ++byStatus[3];
            EXPECT_TRUE(r.x.empty());
            break;
          case SolveStatus::Failed:
            ++byStatus[4];
            EXPECT_FALSE(r.error.empty());
            break;
          default:
            ADD_FAILURE() << "unexpected terminal status "
                          << toString(r.status);
        }
    }
    svc.stop();

    const ServiceStats st = svc.stats();
    EXPECT_EQ(st.submitted, kReqs);
    EXPECT_EQ(st.rejected + st.completed + st.cancelled +
                  st.deadlineExpired + st.failed,
              kReqs);
    EXPECT_EQ(st.rejected, byStatus[3]);
    EXPECT_EQ(st.failed, byStatus[4]);
    EXPECT_EQ(svc.queueDepth(), 0u);
    // The storm actually exercised the interesting paths.
    EXPECT_GT(byStatus[0], 0u);
    EXPECT_GT(byStatus[1], 0u);
    EXPECT_LE(svc.cacheStats().entries, 2u);
}

// ---------------------------------------------------------------
// Sharded dispatch, weighted fair share, EDF, preemption.
// ---------------------------------------------------------------

TEST(ServiceFairShare, SetTenantTicketsMidTrafficNeverStrands)
{
    const Csr m = spdMatrix(64, 233);
    const std::size_t n = static_cast<std::size_t>(m.rows());

    ServiceConfig cfg;
    cfg.scheduler.defaultTickets = 4;
    cfg.scheduler.batchWindow = 1;
    SolverService svc(cfg);

    // Three live requests, then the allowance drops to 1 under
    // them: nothing may be stranded or dropped.
    std::vector<RequestHandle> live;
    for (unsigned i = 0; i < 3; ++i) {
        SolveRequest req;
        req.tenant = "t";
        req.matrix = &m;
        req.b = seededRhs(n, 9500 + i);
        live.push_back(svc.submit(req));
    }
    svc.setTenantTickets("t", 1);

    // The lowered limit gates new admissions immediately...
    SolveRequest extra;
    extra.tenant = "t";
    extra.matrix = &m;
    extra.b = seededRhs(n, 9510);
    EXPECT_EQ(svc.submit(extra).wait().status,
              SolveStatus::Overloaded);

    // ...but every already-admitted request still dispatches.
    svc.runUntilIdle();
    for (auto &h : live)
        EXPECT_EQ(h.wait().status, SolveStatus::Converged);

    // Drained: the tenant is live again under the new limit, and
    // the second concurrent request bounces (limit now 1).
    extra.b = seededRhs(n, 9511);
    RequestHandle ok = svc.submit(extra);
    EXPECT_EQ(ok.state(), RequestState::Queued);
    extra.b = seededRhs(n, 9512);
    EXPECT_EQ(svc.submit(extra).wait().status,
              SolveStatus::Overloaded);
    svc.runUntilIdle();
    EXPECT_EQ(ok.wait().status, SolveStatus::Converged);

    // Raising mid-traffic opens admission right back up.
    svc.setTenantTickets("t", 3);
    std::vector<RequestHandle> more;
    for (unsigned i = 0; i < 3; ++i) {
        extra.b = seededRhs(n, 9520 + i);
        more.push_back(svc.submit(extra));
    }
    svc.runUntilIdle();
    for (auto &h : more)
        EXPECT_EQ(h.wait().status, SolveStatus::Converged);
}

TEST(ServiceFairShare, SaturatingTenantCannotStarveLightTenant)
{
    const Csr heavyM = spdMatrix(64, 235);
    const Csr lightM = spdMatrix(64, 237);
    const std::size_t n = static_cast<std::size_t>(heavyM.rows());

    ServiceConfig cfg;
    cfg.scheduler.batchWindow = 1;
    cfg.scheduler.queueCapacity = 128;
    cfg.scheduler.defaultTickets = 64;
    SolverService svc(cfg);

    // 10:1 offered load, equal weights: while both tenants stay
    // backlogged, each is entitled to half the dispatch stream.
    constexpr unsigned kLight = 5;
    constexpr unsigned kHeavy = 50;
    for (unsigned i = 0; i < kHeavy; ++i) {
        SolveRequest req;
        req.tenant = "heavy";
        req.matrix = &heavyM;
        req.b = seededRhs(n, 9600 + i);
        svc.submit(req);
    }
    std::vector<RequestHandle> light;
    for (unsigned i = 0; i < kLight; ++i) {
        SolveRequest req;
        req.tenant = "light";
        req.matrix = &lightM;
        req.b = seededRhs(n, 9700 + i);
        light.push_back(svc.submit(req));
    }
    svc.runUntilIdle();
    for (auto &h : light)
        EXPECT_EQ(h.wait().status, SolveStatus::Converged);

    // Light is backlogged for exactly the first 2*kLight
    // dispatches; its share of that window must be within 20% of
    // the weighted entitlement (50%).
    unsigned lightSeen = 0;
    unsigned window = 0;
    for (const Decision &d : svc.decisionLog()) {
        if (d.kind != DecisionKind::Dispatch)
            continue;
        if (window < 2 * kLight && d.tenant == "light")
            ++lightSeen;
        ++window;
    }
    const double share =
        double(lightSeen) / double(2 * kLight);
    EXPECT_GE(share, 0.5 * 0.8)
        << "light tenant starved: share " << share;
    EXPECT_LE(share, 0.5 * 1.2);
}

TEST(ServiceFairShare, WeightsShapeDispatchShares)
{
    const Csr ma = spdMatrix(64, 239);
    const Csr mb = spdMatrix(64, 241);
    const std::size_t n = static_cast<std::size_t>(ma.rows());

    ServiceConfig cfg;
    cfg.scheduler.batchWindow = 1;
    cfg.scheduler.queueCapacity = 128;
    cfg.scheduler.defaultTickets = 64;
    SolverService svc(cfg);
    svc.setTenantWeight("gold", 2.0);
    svc.setTenantWeight("bronze", 1.0);

    for (unsigned i = 0; i < 12; ++i) {
        SolveRequest req;
        req.tenant = i % 2 == 0 ? "gold" : "bronze";
        req.matrix = i % 2 == 0 ? &ma : &mb;
        req.b = seededRhs(n, 9800 + i);
        svc.submit(req);
    }
    svc.runUntilIdle();

    // In the first 6 dispatches (both tenants backlogged
    // throughout), gold's 2:1 weight should earn it about 2/3 of
    // the stream: exactly 4 of 6 under SFQ.
    unsigned goldSeen = 0, window = 0;
    for (const Decision &d : svc.decisionLog()) {
        if (d.kind != DecisionKind::Dispatch || window >= 6)
            continue;
        if (d.tenant == "gold")
            ++goldSeen;
        ++window;
    }
    EXPECT_EQ(goldSeen, 4u);
}

TEST(ServiceFairShare, EdfOrdersWithinPriorityBand)
{
    const Csr m = spdMatrix(64, 243);
    const std::size_t n = static_cast<std::size_t>(m.rows());

    ServiceConfig cfg;
    cfg.scheduler.batchWindow = 1;
    SolverService svc(cfg);

    // Same tenant, same band: EDF on the relative deadline
    // (none = last), regardless of submission order.
    SolveRequest relaxed;
    relaxed.matrix = &m;
    relaxed.b = seededRhs(n, 9900);
    RequestHandle hNone = svc.submit(relaxed);

    SolveRequest loose = relaxed;
    loose.b = seededRhs(n, 9901);
    loose.deadline = std::chrono::seconds(100);
    RequestHandle hLoose = svc.submit(loose);

    SolveRequest tight = relaxed;
    tight.b = seededRhs(n, 9902);
    tight.deadline = std::chrono::seconds(10);
    RequestHandle hTight = svc.submit(tight);

    // Priority still dominates deadlines.
    SolveRequest urgent = relaxed;
    urgent.b = seededRhs(n, 9903);
    urgent.priority = 1;
    RequestHandle hUrgent = svc.submit(urgent);

    svc.runUntilIdle();

    std::vector<std::uint64_t> order;
    for (const Decision &d : svc.decisionLog())
        if (d.kind == DecisionKind::Dispatch)
            order.push_back(d.requestId);
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], hUrgent.id());
    EXPECT_EQ(order[1], hTight.id());
    EXPECT_EQ(order[2], hLoose.id());
    EXPECT_EQ(order[3], hNone.id());
}

TEST(ServicePreempt, PreemptResumeIsBitwiseIdentical)
{
    const Csr m = spdMatrix(96, 245);
    const std::size_t n = static_cast<std::size_t>(m.rows());
    const std::vector<double> b = seededRhs(n, 10000);

    // Uninterrupted reference through the same service path.
    SolverService plain;
    SolveRequest req;
    req.matrix = &m;
    req.b = b;
    RequestHandle hRef = plain.submit(req);
    plain.runUntilIdle();
    const RequestResult &ref = hRef.wait();
    ASSERT_EQ(ref.status, SolveStatus::Converged);
    ASSERT_GT(ref.solve.iterations, 8);

    // Same request, forced to yield mid-recurrence: the resumed
    // solve must reproduce every bit and every kernel tally.
    SolverService svc;
    SolveRequest preemptee = req;
    preemptee.yieldAfterChecks = 5;
    RequestHandle h = svc.submit(preemptee);
    svc.runUntilIdle();

    const RequestResult &r = h.wait();
    EXPECT_EQ(r.status, SolveStatus::Converged);
    EXPECT_GE(r.preemptions, 1u);
    EXPECT_GE(svc.stats().preempted, 1u);
    EXPECT_EQ(r.solve.iterations, ref.solve.iterations);
    EXPECT_EQ(r.solve.spmvCalls, ref.solve.spmvCalls);
    EXPECT_EQ(r.solve.dotCalls, ref.solve.dotCalls);
    EXPECT_EQ(r.solve.axpyCalls, ref.solve.axpyCalls);
    EXPECT_EQ(r.solve.relResidual, ref.solve.relResidual);
    expectBitwiseEqual(r.x, ref.x, "preempted-resumed solve");

    // The decision log shows the preemption round trip: dispatch,
    // preempt, dispatch again.
    unsigned dispatches = 0, preempts = 0;
    for (const Decision &d : svc.decisionLog()) {
        if (d.requestId != h.id())
            continue;
        if (d.kind == DecisionKind::Dispatch)
            ++dispatches;
        if (d.kind == DecisionKind::Preempt) {
            ++preempts;
            EXPECT_EQ(d.reason, SolveStatus::Preempted);
        }
    }
    EXPECT_GE(dispatches, 2u);
    EXPECT_EQ(preempts, r.preemptions);
}

TEST(ServiceReplay, WeightedShardedLogReplaysByteIdentical)
{
    const Csr ma = spdMatrix(64, 247);
    const Csr mb = spdMatrix(64, 249);
    const Csr mc = spdMatrix(64, 251);
    const std::size_t n = static_cast<std::size_t>(ma.rows());

    const auto drive = [&](SolverService &svc) {
        svc.setTenantWeight("a", 2.0);
        svc.setTenantWeight("b", 0.5);
        const Csr *mats[] = {&ma, &mb, &mc};
        for (unsigned i = 0; i < 12; ++i) {
            SolveRequest req;
            req.tenant = i % 3 == 0 ? "a" : "b";
            req.priority = static_cast<int>(i % 2);
            req.matrix = mats[i % 3];
            req.b = seededRhs(n, 10100 + i);
            if (i % 4 == 1)
                req.deadline = std::chrono::seconds(20 + i);
            svc.submit(req);
            if (i == 7)
                svc.runUntilIdle(); // mid-sequence drain
        }
        svc.runUntilIdle();
    };

    ServiceConfig cfg;
    cfg.scheduler.batchWindow = 4;
    cfg.scheduler.defaultTickets = 8;
    cfg.scheduler.shards = 2;
    SolverService first(cfg);
    drive(first);
    SolverService second(cfg);
    drive(second);

    const std::string logA = first.decisionLogText();
    const std::string logB = second.decisionLogText();
    ASSERT_FALSE(logA.empty());
    EXPECT_EQ(logA, logB); // byte-identical replay
    EXPECT_LT(first.decisionLog().size(),
              AdmissionScheduler::decisionLogCap);
}

TEST(ServiceReplay, DecisionLogKeepsNewestWindow)
{
    // Past the cap the log drops its oldest decisions: it holds the
    // newest decisionLogCap, in order, with contiguous sequence
    // numbers that keep counting from the start of the run.
    AdmissionScheduler::Config cfg;
    cfg.queueCapacity = 4;
    AdmissionScheduler sched(cfg);
    const std::size_t cap = AdmissionScheduler::decisionLogCap;
    const std::size_t total = cap + cap / 2 + 3;
    for (std::size_t i = 0; i < total; ++i) {
        QueueEntry e;
        e.id = i;
        e.tenant = "t";
        sched.tryAdmit(e); // admits 4, then rejects: queue full
    }
    const auto &log = sched.decisions();
    ASSERT_EQ(log.size(), cap);
    EXPECT_EQ(log.front().seq, total - cap);
    EXPECT_EQ(log.back().seq, total - 1);
    for (std::size_t i = 0; i < log.size(); ++i) {
        ASSERT_EQ(log[i].seq, total - cap + i) << "entry " << i;
        ASSERT_EQ(log[i].requestId, log[i].seq);
        ASSERT_EQ(log[i].kind, DecisionKind::Reject);
    }
    // The next decision continues the global sequence.
    QueueEntry e;
    e.id = total;
    e.tenant = "t";
    sched.tryAdmit(e);
    EXPECT_EQ(log.size(), cap);
    EXPECT_EQ(log.back().seq, total);
    EXPECT_EQ(log.front().seq, total - cap + 1);
}

TEST(ServiceShard, RoutesByKeyAndMigratesBacklog)
{
    // Find two matrices whose operator keys land on different
    // shards of 2 (content-hash routing is deterministic, so probe
    // a few seeds).
    ServiceConfig cfg;
    cfg.scheduler.batchWindow = 1;
    cfg.scheduler.shards = 2;
    AdmissionScheduler probe(cfg.scheduler);
    Csr ma = spdMatrix(64, 253);
    unsigned shardA = probe.shardOf(operatorKey(ma, {}));
    Csr mb = ma;
    unsigned shardB = shardA;
    for (std::uint64_t seed = 255; shardB == shardA; seed += 2) {
        mb = spdMatrix(64, seed);
        shardB = probe.shardOf(operatorKey(mb, {}));
    }
    const std::size_t n = static_cast<std::size_t>(ma.rows());

    SolverService svc(cfg);
    std::vector<RequestHandle> handles;
    for (unsigned i = 0; i < 3; ++i) {
        SolveRequest req;
        req.matrix = &ma;
        req.b = seededRhs(n, 10200 + i);
        handles.push_back(svc.submit(req));
    }
    // Admissions recorded shard A as the home shard.
    for (const Decision &d : svc.decisionLog())
        if (d.kind == DecisionKind::Admit)
            EXPECT_EQ(d.shard, shardA);

    // Pumping the idle shard migrates one batch from A's backlog.
    EXPECT_TRUE(svc.pumpShard(shardB));
    bool sawMigration = false;
    for (const Decision &d : svc.decisionLog())
        if (d.kind == DecisionKind::Dispatch) {
            EXPECT_EQ(d.shard, shardB);
            EXPECT_TRUE(d.migrated);
            sawMigration = true;
        }
    EXPECT_TRUE(sawMigration);
    EXPECT_EQ(svc.stats().migrated, 1u);

    svc.runUntilIdle();
    for (auto &h : handles)
        EXPECT_EQ(h.wait().status, SolveStatus::Converged);
    const ServiceStats st = svc.stats();
    ASSERT_EQ(st.shardDispatches.size(), 2u);
    EXPECT_EQ(st.shardDispatches[shardA] + st.shardDispatches[shardB],
              st.batches);
}

TEST(ServiceShard, ShardedResultsMatchUnshardedBitwise)
{
    const Csr mats[4] = {spdMatrix(64, 257), spdMatrix(64, 259),
                         spdMatrix(64, 261), spdMatrix(64, 263)};
    const std::size_t n = static_cast<std::size_t>(mats[0].rows());
    constexpr unsigned kReqs = 12;

    // Unsharded single-worker reference results, computed at 8
    // lanes (thread-count independence is pinned separately).
    setGlobalThreads(8);
    std::vector<std::vector<double>> refX(kReqs);
    std::vector<SolverResult> refSolve(kReqs);
    {
        ServiceConfig cfg;
        cfg.scheduler.batchWindow = 1;
        cfg.scheduler.defaultTickets = 16;
        SolverService svc(cfg);
        std::vector<RequestHandle> handles;
        for (unsigned i = 0; i < kReqs; ++i) {
            SolveRequest req;
            req.matrix = &mats[i % 4];
            req.b = seededRhs(n, 10300 + i);
            handles.push_back(svc.submit(req));
        }
        svc.runUntilIdle();
        for (unsigned i = 0; i < kReqs; ++i) {
            refX[i] = handles[i].wait().x;
            refSolve[i] = handles[i].wait().solve;
            ASSERT_EQ(handles[i].wait().status,
                      SolveStatus::Converged);
        }
    }

    // Sharded runs must reproduce every bit at every lane count.
    for (unsigned threads : {1u, 2u, 8u}) {
        setGlobalThreads(threads);
        ServiceConfig cfg;
        cfg.scheduler.batchWindow = 1;
        cfg.scheduler.defaultTickets = 16;
        cfg.scheduler.shards = 4;
        SolverService svc(cfg);
        std::vector<RequestHandle> handles;
        for (unsigned i = 0; i < kReqs; ++i) {
            SolveRequest req;
            req.matrix = &mats[i % 4];
            req.b = seededRhs(n, 10300 + i);
            handles.push_back(svc.submit(req));
        }
        svc.runUntilIdle();
        for (unsigned i = 0; i < kReqs; ++i) {
            const RequestResult &r = handles[i].wait();
            EXPECT_EQ(r.status, SolveStatus::Converged)
                << "threads " << threads << " request " << i;
            EXPECT_EQ(r.solve.iterations, refSolve[i].iterations);
            expectBitwiseEqual(r.x, refX[i], "sharded request");
        }
    }
    setGlobalThreads(8);
}

TEST(ChaosServiceShard, StopUnderLoadQuiescesAllShards)
{
    const Csr mats[3] = {spdMatrix(64, 265), spdMatrix(64, 267),
                         spdMatrix(64, 269)};
    const std::size_t n = static_cast<std::size_t>(mats[0].rows());
    constexpr unsigned kReqs = 48;

    ServiceConfig cfg;
    cfg.workers = 4;
    cfg.scheduler.shards = 4;
    cfg.scheduler.batchWindow = 2;
    cfg.scheduler.queueCapacity = 64;
    cfg.scheduler.defaultTickets = 32;
    SolverService svc(cfg);

    std::vector<RequestHandle> handles;
    for (unsigned i = 0; i < kReqs; ++i) {
        SolveRequest req;
        req.tenant = i % 2 == 0 ? "a" : "b";
        req.matrix = &mats[i % 3];
        req.b = seededRhs(n, 10400 + i);
        if (i % 5 == 0)
            req.yieldAfterChecks = 3; // preempt mid-stop traffic
        if (i % 7 == 0)
            req.deadline = std::chrono::seconds(30);
        handles.push_back(svc.submit(req));
    }
    // Stop with shards mid-flight: every request must reach a
    // terminal state, every ticket must come back, nothing leaks.
    svc.stop();

    const ServiceStats st = svc.stats();
    EXPECT_EQ(st.submitted, kReqs);
    EXPECT_EQ(st.rejected + st.completed + st.cancelled +
                  st.deadlineExpired + st.failed,
              kReqs);
    EXPECT_EQ(svc.queueDepth(), 0u);
    for (auto &h : handles) {
        ASSERT_TRUE(h.done());
        const SolveStatus s = h.wait().status;
        EXPECT_TRUE(s == SolveStatus::Converged ||
                    s == SolveStatus::Cancelled ||
                    s == SolveStatus::Overloaded ||
                    s == SolveStatus::DeadlineExceeded)
            << toString(s);
        // A preempted-then-stopped request must never surface the
        // internal Preempted status.
        EXPECT_NE(s, SolveStatus::Preempted);
    }
    // In-flight refcounts released: with no live requests, every
    // cache entry is evictable (clear() empties the cache).
    svc.cacheStats();
    handles.clear();
}

} // namespace
} // namespace msc
