/**
 * @file
 * Tests for the execution-control layer (runtime/exec_context.hh)
 * and the chaos harness that attacks it (fault/chaos.hh): deadline
 * expiry across every solver kind, forced and cross-thread
 * cancellation promptness, retry-budget exhaustion, graceful
 * degradation under injected execution faults, and the byte-identity
 * guarantee when nothing is armed. Chaos suites carry the Chaos
 * prefix so ctest can label and schedule them separately.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "check/check.hh"
#include "fault/chaos.hh"
#include "fault/faulty_operator.hh"
#include "runtime/exec_context.hh"
#include "solver/precond.hh"
#include "solver/resilient.hh"
#include "solver/solver.hh"
#include "solver/stationary.hh"
#include "sparse/gen.hh"
#include "util/logging.hh"
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

ExecContext
expiredContext()
{
    ExecContext ctx;
    ctx.setDeadline(ExecContext::Clock::now() -
                    std::chrono::milliseconds(1));
    return ctx;
}

// --- ExecContext / CancelToken / RetryBudget units ------------------

TEST(ExecContext, DefaultContextNeverStops)
{
    ExecContext ctx;
    EXPECT_FALSE(ctx.hasDeadline());
    EXPECT_FALSE(ctx.cancelled());
    EXPECT_FALSE(ctx.expired());
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(ctx.shouldStop());
    EXPECT_NO_THROW(ctx.checkpoint());
    EXPECT_FALSE(execShouldStop(nullptr));
    EXPECT_NO_THROW(execCheckpoint(nullptr));
}

TEST(ExecContext, CancelTokenIsSharedAndIdempotent)
{
    ExecContext ctx;
    CancelToken copy = ctx.token(); // observes the same flag
    EXPECT_FALSE(ctx.shouldStop());
    copy.cancel();
    copy.cancel();
    EXPECT_TRUE(ctx.cancelled());
    EXPECT_TRUE(ctx.shouldStop());
    EXPECT_EQ(ctx.stopStatus(), SolveStatus::Cancelled);
    try {
        ctx.checkpoint();
        FAIL() << "checkpoint did not throw";
    } catch (const CancelledError &e) {
        EXPECT_EQ(e.status(), SolveStatus::Cancelled);
    }
}

TEST(ExecContext, DeadlineExpiryAndStatusPriority)
{
    ExecContext ctx = expiredContext();
    EXPECT_TRUE(ctx.hasDeadline());
    EXPECT_TRUE(ctx.expired());
    EXPECT_TRUE(ctx.shouldStop());
    EXPECT_EQ(ctx.stopStatus(), SolveStatus::DeadlineExceeded);
    // An explicit cancel outranks the deadline in the status.
    ctx.token().cancel();
    EXPECT_EQ(ctx.stopStatus(), SolveStatus::Cancelled);

    ExecContext future =
        ExecContext::withDeadline(std::chrono::hours(1));
    EXPECT_FALSE(future.shouldStop());
}

TEST(ExecContext, CancelAfterChecksFiresOnTheNthPoll)
{
    ExecContext ctx;
    ctx.cancelAfterChecks(3);
    EXPECT_FALSE(ctx.shouldStop()); // poll 1
    EXPECT_FALSE(ctx.shouldStop()); // poll 2
    EXPECT_TRUE(ctx.shouldStop());  // poll 3: token fires
    EXPECT_TRUE(ctx.cancelled());
    EXPECT_EQ(ctx.stopStatus(), SolveStatus::Cancelled);
}

TEST(ExecContext, StatusNamesAreStable)
{
    EXPECT_STREQ(toString(SolveStatus::Converged), "converged");
    EXPECT_STREQ(toString(SolveStatus::MaxIterations),
                 "max_iterations");
    EXPECT_STREQ(toString(SolveStatus::Breakdown), "breakdown");
    EXPECT_STREQ(toString(SolveStatus::Cancelled), "cancelled");
    EXPECT_STREQ(toString(SolveStatus::DeadlineExceeded),
                 "deadline_exceeded");
    EXPECT_STREQ(toString(SolveStatus::Degraded), "degraded");
}

TEST(ExecContext, RetryBudgetIsBoundedAndSeedDeterministic)
{
    RetryBudget a(3, 42);
    RetryBudget b(3, 42);
    EXPECT_FALSE(a.exhausted());
    std::chrono::nanoseconds total{0};
    std::chrono::nanoseconds prev{0};
    for (int k = 0; k < 3; ++k) {
        ASSERT_TRUE(a.tryAcquire());
        ASSERT_TRUE(b.tryAcquire());
        // Same seed, same walk: schedules are identical.
        EXPECT_EQ(a.lastDelay().count(), b.lastDelay().count());
        EXPECT_GT(a.lastDelay().count(), 0);
        // Exponential growth with <= 25% jitter never shrinks the
        // delay below the previous attempt's un-jittered base.
        EXPECT_GE(a.lastDelay(), prev / 2);
        prev = a.lastDelay();
        total += a.lastDelay();
    }
    EXPECT_TRUE(a.exhausted());
    EXPECT_EQ(a.attemptsUsed(), 3);
    EXPECT_EQ(a.attemptsLeft(), 0);
    EXPECT_FALSE(a.tryAcquire()); // consumes nothing once exhausted
    EXPECT_EQ(a.attemptsUsed(), 3);
    EXPECT_EQ(a.totalDelay(), total);

    RetryBudget other(3, 43);
    ASSERT_TRUE(other.tryAcquire());
    // Different seed, different jitter (overwhelmingly likely).
    EXPECT_NE(other.lastDelay().count(), b.lastDelay().count());

    RetryBudget none(0);
    EXPECT_TRUE(none.exhausted());
    EXPECT_FALSE(none.tryAcquire());
}

// --- deadline / cancellation through the solvers --------------------

TEST(ExecSolvers, ExpiredDeadlineStopsEveryKrylovKind)
{
    const Csr m = spdMatrix(128, 7);
    const std::size_t n = static_cast<std::size_t>(m.rows());
    CsrOperator op(m);
    std::vector<double> b(n, 1.0);

    const ExecContext ctx = expiredContext();
    SolverConfig cfg;
    cfg.tolerance = 1e-10;
    cfg.exec = &ctx;

    const JacobiPreconditioner jacobi(m);
    std::vector<double> x(n, 0.0);
    for (int kindIdx = 0; kindIdx < 5; ++kindIdx) {
        std::fill(x.begin(), x.end(), 0.0);
        SolverResult r;
        switch (kindIdx) {
          case 0:
            r = conjugateGradient(op, b, x, cfg);
            break;
          case 1:
            r = biCgStab(op, b, x, cfg);
            break;
          case 2:
            r = biCg(op, b, x, cfg);
            break;
          case 3:
            r = gmres(op, b, x, cfg, 30);
            break;
          default:
            r = preconditionedCg(op, jacobi, b, x, cfg);
            break;
        }
        EXPECT_EQ(r.status, SolveStatus::DeadlineExceeded)
            << "kind " << kindIdx;
        EXPECT_FALSE(r.converged) << "kind " << kindIdx;
        EXPECT_EQ(r.iterations, 0) << "kind " << kindIdx;
        EXPECT_EQ(r.relResidual, 1.0) << "kind " << kindIdx;
        // The iterate is untouched, not partial garbage.
        for (double v : x)
            EXPECT_EQ(v, 0.0);
    }
}

TEST(ExecSolvers, ExpiredDeadlineStopsStationarySolvers)
{
    const Csr m = spdMatrix(96, 11);
    const std::size_t n = static_cast<std::size_t>(m.rows());
    std::vector<double> b(n, 1.0);
    std::vector<double> x(n, 0.0);

    const ExecContext ctx = expiredContext();
    SolverConfig cfg;
    cfg.exec = &ctx;

    SolverResult r = jacobiIteration(m, b, x, cfg);
    EXPECT_EQ(r.status, SolveStatus::DeadlineExceeded);
    EXPECT_EQ(r.iterations, 0);
    EXPECT_EQ(r.relResidual, 1.0);

    r = gaussSeidel(m, b, x, cfg);
    EXPECT_EQ(r.status, SolveStatus::DeadlineExceeded);
    EXPECT_EQ(r.iterations, 0);

    r = sor(m, b, x, 1.3, cfg);
    EXPECT_EQ(r.status, SolveStatus::DeadlineExceeded);
    EXPECT_EQ(r.iterations, 0);
}

TEST(ExecSolvers, ForcedCancelStopsWithinOneIteration)
{
    const Csr m = spdMatrix(128, 13);
    const std::size_t n = static_cast<std::size_t>(m.rows());
    CsrOperator op(m);
    std::vector<double> b(n, 1.0);
    std::vector<double> x(n, 0.0);

    ExecContext ctx;
    ctx.cancelAfterChecks(5);
    SolverConfig cfg;
    cfg.tolerance = 0.0; // unreachable: only the cancel can stop it
    cfg.maxIterations = 100000;
    cfg.exec = &ctx;

    const SolverResult r = conjugateGradient(op, b, x, cfg);
    EXPECT_EQ(r.status, SolveStatus::Cancelled);
    EXPECT_FALSE(r.converged);
    // One poll at entry plus one per iteration: the 5th poll fires
    // before the 5th iteration body runs.
    EXPECT_LE(r.iterations, 5);
    for (double v : x)
        EXPECT_TRUE(std::isfinite(v));
}

TEST(ExecSolvers, CancelFromAnotherThreadIsPrompt)
{
    const Csr m = spdMatrix(128, 17);
    const std::size_t n = static_cast<std::size_t>(m.rows());
    std::vector<double> b(n, 1.0);
    std::vector<double> x(n, 0.0);

    ExecContext ctx;
    CancelToken controller = ctx.token();
    SolverConfig cfg;
    cfg.tolerance = 0.0; // unreachable
    cfg.maxIterations = 10000000;
    cfg.exec = &ctx;

    std::thread canceller([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        controller.cancel();
    });
    // Jacobi: no breakdown exit, so only the cancel (or the huge
    // iteration budget) can stop it -- a Krylov method at zero
    // tolerance would break down on denormal inner products first.
    const SolverResult r = jacobiIteration(m, b, x, cfg);
    canceller.join();

    EXPECT_EQ(r.status, SolveStatus::Cancelled);
    EXPECT_FALSE(r.converged);
    // Prompt: the solve stopped at an iteration boundary long before
    // its iteration budget.
    EXPECT_LT(r.iterations, cfg.maxIterations);
    for (double v : x)
        EXPECT_TRUE(std::isfinite(v));
}

TEST(ExecSolvers, QuietContextIsByteIdentical)
{
    // An armed-but-never-firing context must not perturb a single
    // bit: the context only ever stops work early, never reorders
    // it.
    const Csr m = spdMatrix(192, 19);
    const std::size_t n = static_cast<std::size_t>(m.rows());
    CsrOperator op(m);
    std::vector<double> b(n, 1.0);
    SolverConfig plain;
    plain.tolerance = 1e-10;

    std::vector<double> xPlain(n, 0.0), xCtx(n, 0.0);
    const SolverResult rPlain =
        conjugateGradient(op, b, xPlain, plain);

    const ExecContext ctx =
        ExecContext::withDeadline(std::chrono::hours(1));
    SolverConfig withCtx = plain;
    withCtx.exec = &ctx;
    const SolverResult rCtx = conjugateGradient(op, b, xCtx, withCtx);

    EXPECT_EQ(xPlain, xCtx);
    EXPECT_EQ(rPlain.iterations, rCtx.iterations);
    EXPECT_EQ(rPlain.relResidual, rCtx.relResidual);
    EXPECT_EQ(rPlain.status, rCtx.status);
}

TEST(ExecSolvers, CheckSweepHonorsTimeout)
{
    // The msc_check driver path: a sweep with an absurd iteration
    // count and a tiny budget must come back promptly, flagged.
    check::Options opt;
    opt.iters = 1000000000ULL;
    opt.timeoutSec = 0.05;
    const check::Report report = check::runChecks(opt);
    EXPECT_TRUE(report.interrupted);
    EXPECT_NE(report.toJson().find("\"interrupted\": true"),
              std::string::npos);

    // Untimed sweeps never carry the key (byte-stability of the
    // golden report).
    check::Options quick;
    quick.iters = 1;
    const check::Report full = check::runChecks(quick);
    EXPECT_FALSE(full.interrupted);
    EXPECT_EQ(full.toJson().find("interrupted"), std::string::npos);
}

// --- chaos campaigns ------------------------------------------------

TEST(ChaosCampaign, AllocFailureStormDegradesGracefully)
{
    const Csr m = spdMatrix(128, 23);
    const std::size_t n = static_cast<std::size_t>(m.rows());
    std::vector<double> b(n, 1.0);
    std::vector<double> x(n, 0.0);
    FaultyAccelOperator op(m, FaultCampaign{});
    ResilientSolver solver(op, SolverKind::Cg);

    ChaosCampaign camp;
    camp.allocFailRate = 1.0; // every workspace grant throws
    ChaosEngine chaos(camp);
    const SolverResult r = solver.solve(b, x);

    // Bounded: the retry budget caps the ladder, the final rung
    // degrades everything, and the solve reports it -- no hang, no
    // crash, no leak (the sanitize presets prove the latter).
    EXPECT_EQ(r.status, SolveStatus::Degraded);
    EXPECT_FALSE(r.converged);
    EXPECT_GE(r.recovery.allocFailures, 1u);
    EXPECT_EQ(r.recovery.retryAttempts, 10u); // policy.maxRecoveries
    EXPECT_GT(r.recovery.backoffNanos, 0u);
    EXPECT_GE(chaos.stats().allocFailures, 1u);
    for (double v : x)
        EXPECT_EQ(v, 0.0); // restored checkpoint, not garbage
}

TEST(ChaosCampaign, WorkerThrowStormIsAbsorbedAsStructuredStatus)
{
    const Csr m = spdMatrix(128, 29);
    const std::size_t n = static_cast<std::size_t>(m.rows());
    std::vector<double> b(n, 1.0);
    std::vector<double> x(n, 0.0);
    FaultyAccelOperator op(m, FaultCampaign{});
    ResilientSolver solver(op, SolverKind::Cg);

    {
        ChaosCampaign camp;
        camp.taskThrowRate = 1.0; // every chunk body throws
        ChaosEngine chaos(camp);
        const SolverResult r = solver.solve(b, x);

        EXPECT_EQ(r.status, SolveStatus::Degraded);
        EXPECT_GE(r.recovery.workerFaults, 1u);
        EXPECT_GE(chaos.stats().taskThrows, 1u);
        for (double v : x)
            EXPECT_TRUE(std::isfinite(v));
    } // engine uninstalled here

    // The pool survived the storm: plain work still runs.
    std::vector<int> hits(64, 0);
    parallelFor(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (int h : hits)
        EXPECT_EQ(h, 1);
}

TEST(ChaosCampaign, TaskDelaysDoNotChangeResults)
{
    const Csr m = spdMatrix(128, 31);
    const std::size_t n = static_cast<std::size_t>(m.rows());
    std::vector<double> b(n, 1.0);
    SolverConfig cfg;
    cfg.tolerance = 1e-8;

    std::vector<double> xClean(n, 0.0), xSlow(n, 0.0);
    SolverResult clean, slow;
    {
        FaultyAccelOperator op(m, FaultCampaign{});
        ResilientSolver solver(op, SolverKind::Cg, cfg);
        clean = solver.solve(b, xClean);
    }
    {
        FaultyAccelOperator op(m, FaultCampaign{});
        ResilientSolver solver(op, SolverKind::Cg, cfg);
        ChaosCampaign camp;
        camp.taskDelayRate = 0.05;
        camp.taskDelayUs = 1;
        ChaosEngine chaos(camp);
        slow = solver.solve(b, xSlow);
        EXPECT_GE(chaos.stats().taskDelays, 1u);
    }
    // Delays stretch the wall clock, never the arithmetic.
    EXPECT_EQ(xClean, xSlow);
    EXPECT_EQ(clean.iterations, slow.iterations);
    EXPECT_EQ(clean.relResidual, slow.relResidual);
    EXPECT_EQ(clean.status, slow.status);
}

TEST(ChaosCampaign, ForcedMidSolveCancellationIsStructured)
{
    const Csr m = spdMatrix(128, 37);
    const std::size_t n = static_cast<std::size_t>(m.rows());
    std::vector<double> b(n, 1.0);
    std::vector<double> x(n, 0.0);
    FaultyAccelOperator op(m, FaultCampaign{});

    ExecContext ctx;
    ChaosCampaign camp;
    camp.cancelAfterChecks = 40;
    ChaosEngine chaos(camp);
    chaos.arm(ctx);
    EXPECT_EQ(chaos.stats().armedCancels, 1u);

    SolverConfig cfg;
    cfg.tolerance = 0.0; // unreachable
    cfg.maxIterations = 100000;
    cfg.exec = &ctx;
    ResilientSolver solver(op, SolverKind::Cg, cfg);
    const SolverResult r = solver.solve(b, x);

    EXPECT_EQ(r.status, SolveStatus::Cancelled);
    EXPECT_FALSE(r.converged);
    EXPECT_LT(r.iterations, cfg.maxIterations);
    for (double v : x)
        EXPECT_TRUE(std::isfinite(v));
}

TEST(ChaosDeterminism, IdenticalCampaignsReplayIdentically)
{
    // Injection draws key on (seed, site, section offset, chunk) --
    // never on scheduling -- so re-running a campaign in the same
    // process replays the same faults and the same recovery.
    setGlobalThreads(4);
    const Csr m = spdMatrix(128, 41);
    const std::size_t n = static_cast<std::size_t>(m.rows());
    std::vector<double> b(n, 1.0);
    SolverConfig cfg;
    cfg.tolerance = 1e-8;
    cfg.maxIterations = 2000;

    ChaosCampaign camp;
    camp.seed = 77;
    camp.taskThrowRate = 1.0;

    auto run = [&](std::vector<double> &x, ChaosStats &stats) {
        FaultyAccelOperator op(m, FaultCampaign{});
        ResilientSolver solver(op, SolverKind::Cg, cfg);
        ChaosEngine chaos(camp);
        const SolverResult r = solver.solve(b, x);
        stats = chaos.stats();
        return r;
    };
    std::vector<double> x1(n, 0.0), x2(n, 0.0);
    ChaosStats s1, s2;
    const SolverResult r1 = run(x1, s1);
    const SolverResult r2 = run(x2, s2);

    EXPECT_EQ(r1.status, r2.status);
    EXPECT_EQ(r1.iterations, r2.iterations);
    EXPECT_EQ(r1.relResidual, r2.relResidual);
    EXPECT_EQ(r1.recovery.workerFaults, r2.recovery.workerFaults);
    EXPECT_EQ(r1.recovery.allocFailures, r2.recovery.allocFailures);
    EXPECT_EQ(r1.recovery.retryAttempts, r2.recovery.retryAttempts);
    EXPECT_EQ(r1.recovery.backoffNanos, r2.recovery.backoffNanos);
    EXPECT_EQ(r1.recovery.checkpointRestarts,
              r2.recovery.checkpointRestarts);
    EXPECT_EQ(r1.recovery.segments, r2.recovery.segments);
    EXPECT_EQ(x1, x2);
    // Per-*section* outcomes are deterministic (that is what drives
    // the solver trajectory above); the raw per-lane throw tally is
    // scheduling-dependent -- several lanes can each hit one chunk
    // before the job's cancel flag is visible -- so only its
    // presence is asserted.
    EXPECT_GE(s1.taskThrows, 1u);
    EXPECT_GE(s2.taskThrows, 1u);
    EXPECT_EQ(s1.allocFailures, s2.allocFailures);
    setGlobalThreads(8);
}

TEST(ChaosEngineApi, SecondEngineIsRejected)
{
    ChaosCampaign camp;
    ChaosEngine first(camp);
    EXPECT_THROW(ChaosEngine second(camp), PanicError);
}

} // namespace
} // namespace msc
