/**
 * @file
 * Tests for the Krylov solvers (CG, BiCG-STAB, GMRES), and for the
 * resumable CG state: a solve parked at any iteration boundary and
 * resumed is bitwise the uninterrupted solve.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "runtime/exec_context.hh"
#include "solver/precond.hh"
#include "solver/solver.hh"
#include "sparse/gen.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace msc {
namespace {

/** Residual check against the original system. */
double
relResidual(const Csr &a, std::span<const double> b,
            std::span<const double> x)
{
    std::vector<double> ax(b.size());
    a.spmv(x, ax);
    double num = 0.0, den = 0.0;
    for (std::size_t i = 0; i < b.size(); ++i) {
        num += (b[i] - ax[i]) * (b[i] - ax[i]);
        den += b[i] * b[i];
    }
    return std::sqrt(num / den);
}

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

Csr
generalMatrix(std::int32_t n, std::uint64_t seed)
{
    TiledParams p;
    p.rows = n;
    p.tile = 16;
    p.tileDensity = 0.3;
    p.scatterPerRow = 1.0;
    p.symmetricPattern = false;
    p.diagDominance = 0.2;
    p.seed = seed;
    return genTiled(p);
}

TEST(SolverCg, SolvesIdentity)
{
    const Csr id = Csr::identity(16);
    CsrOperator op(id);
    std::vector<double> b(16, 3.0), x(16, 0.0);
    const SolverResult r = conjugateGradient(op, b, x);
    EXPECT_TRUE(r.converged);
    EXPECT_LE(r.iterations, 2);
    for (double v : x)
        EXPECT_NEAR(v, 3.0, 1e-12);
}

TEST(SolverCg, SolvesSpdSystem)
{
    const Csr a = spdMatrix(400, 77);
    CsrOperator op(a);
    std::vector<double> b(400, 1.0), x(400, 0.0);
    SolverConfig cfg;
    cfg.tolerance = 1e-10;
    const SolverResult r = conjugateGradient(op, b, x, cfg);
    EXPECT_TRUE(r.converged);
    EXPECT_LT(relResidual(a, b, x), 1e-8);
    EXPECT_GT(r.iterations, 2);
    // Kernel accounting: 1 spmv per iteration (+1 setup).
    EXPECT_EQ(r.spmvCalls,
              static_cast<std::uint64_t>(r.iterations) + 1);
}

TEST(SolverCg, ZeroRhsGivesZeroSolution)
{
    const Csr a = spdMatrix(64, 5);
    CsrOperator op(a);
    std::vector<double> b(64, 0.0), x(64, 1.0);
    const SolverResult r = conjugateGradient(op, b, x);
    EXPECT_TRUE(r.converged);
    for (double v : x)
        EXPECT_EQ(v, 0.0);
}

TEST(SolverCg, WarmStartConvergesFaster)
{
    const Csr a = spdMatrix(400, 78);
    CsrOperator op(a);
    std::vector<double> b(400, 1.0);
    std::vector<double> xCold(400, 0.0);
    const SolverResult cold = conjugateGradient(op, b, xCold);
    std::vector<double> xWarm = xCold; // exact solution as start
    const SolverResult warm = conjugateGradient(op, b, xWarm);
    EXPECT_LT(warm.iterations, cold.iterations);
}

TEST(SolverCg, RespectsIterationCap)
{
    const Csr a = spdMatrix(400, 79);
    CsrOperator op(a);
    std::vector<double> b(400, 1.0), x(400, 0.0);
    SolverConfig cfg;
    cfg.tolerance = 1e-30; // unreachable
    cfg.maxIterations = 7;
    const SolverResult r = conjugateGradient(op, b, x, cfg);
    EXPECT_FALSE(r.converged);
    EXPECT_EQ(r.iterations, 7);
}

TEST(SolverCg, DimensionMismatchFatal)
{
    const Csr a = Csr::identity(8);
    CsrOperator op(a);
    std::vector<double> b(4), x(8);
    EXPECT_THROW(conjugateGradient(op, b, x), FatalError);
}

TEST(SolverBiCgStab, SolvesGeneralSystem)
{
    const Csr a = generalMatrix(400, 81);
    CsrOperator op(a);
    std::vector<double> b(400, 1.0), x(400, 0.0);
    SolverConfig cfg;
    cfg.tolerance = 1e-10;
    const SolverResult r = biCgStab(op, b, x, cfg);
    EXPECT_TRUE(r.converged);
    EXPECT_LT(relResidual(a, b, x), 1e-8);
    // Two spmv per full iteration.
    EXPECT_GE(r.spmvCalls,
              static_cast<std::uint64_t>(r.iterations));
}

TEST(SolverBiCgStab, SolvesSpdSystemToo)
{
    const Csr a = spdMatrix(300, 83);
    CsrOperator op(a);
    std::vector<double> b(300, 1.0), x(300, 0.0);
    const SolverResult r = biCgStab(op, b, x);
    EXPECT_TRUE(r.converged);
    EXPECT_LT(relResidual(a, b, x), 1e-6);
}

TEST(SolverGmres, SolvesGeneralSystem)
{
    const Csr a = generalMatrix(300, 85);
    CsrOperator op(a);
    std::vector<double> b(300, 1.0), x(300, 0.0);
    SolverConfig cfg;
    cfg.tolerance = 1e-10;
    const SolverResult r = gmres(op, b, x, cfg, 30);
    EXPECT_TRUE(r.converged);
    EXPECT_LT(relResidual(a, b, x), 1e-8);
}

TEST(SolverGmres, RestartStillConverges)
{
    const Csr a = generalMatrix(300, 87);
    CsrOperator op(a);
    std::vector<double> b(300, 1.0), x(300, 0.0);
    const SolverResult r = gmres(op, b, x, {}, 5); // tiny restart
    EXPECT_TRUE(r.converged);
    EXPECT_LT(relResidual(a, b, x), 1e-6);
}

TEST(SolverGmres, RejectsBadRestart)
{
    const Csr a = Csr::identity(4);
    CsrOperator op(a);
    std::vector<double> b(4, 1.0), x(4, 0.0);
    EXPECT_THROW(gmres(op, b, x, {}, 0), FatalError);
}

TEST(Solvers, AgreeOnTheSameSystem)
{
    const Csr a = spdMatrix(300, 91);
    CsrOperator op(a);
    std::vector<double> b(300);
    Rng rng(93);
    for (auto &v : b)
        v = rng.uniform(-1, 1);
    std::vector<double> xCg(300, 0.0), xBi(300, 0.0), xGm(300, 0.0);
    SolverConfig cfg;
    cfg.tolerance = 1e-12;
    conjugateGradient(op, b, xCg, cfg);
    biCgStab(op, b, xBi, cfg);
    gmres(op, b, xGm, cfg);
    for (std::size_t i = 0; i < b.size(); ++i) {
        EXPECT_NEAR(xCg[i], xBi[i],
                    1e-6 * (1.0 + std::fabs(xCg[i])));
        EXPECT_NEAR(xCg[i], xGm[i],
                    1e-6 * (1.0 + std::fabs(xCg[i])));
    }
}

TEST(Solvers, KernelCountsMatchStructure)
{
    const Csr a = generalMatrix(200, 95);
    CsrOperator op(a);
    std::vector<double> b(200, 1.0), x(200, 0.0);
    const SolverResult r = biCgStab(op, b, x);
    ASSERT_TRUE(r.converged);
    // BiCG-STAB: 2 spmv, ~6 dot, ~6 axpy per iteration.
    EXPECT_NEAR(static_cast<double>(r.spmvCalls),
                2.0 * r.iterations, 2.0);
    EXPECT_GE(r.dotCalls, static_cast<std::uint64_t>(
        4 * r.iterations));
    EXPECT_GE(r.axpyCalls, static_cast<std::uint64_t>(
        5 * r.iterations));
    EXPECT_EQ(r.vectorLength, 200u);
}

TEST(SolverBiCgStab, BreakdownOnSkewSystemStaysFinite)
{
    // A = [[0, 1], [-1, 0]] with b = (1, 0): the shadow residual is
    // orthogonal to A p on the first iteration (rHat . v = 0), the
    // classic BiCG-STAB breakdown. The solver must bail out with a
    // finite residual and an untouched finite iterate -- no NaN may
    // reach x.
    Coo coo;
    coo.rows = coo.cols = 2;
    coo.add(0, 1, 1.0);
    coo.add(1, 0, -1.0);
    const Csr a = Csr::fromCoo(coo);
    CsrOperator op(a);
    std::vector<double> b = {1.0, 0.0}, x = {0.0, 0.0};
    const SolverResult r = biCgStab(op, b, x);
    EXPECT_FALSE(r.converged);
    EXPECT_TRUE(std::isfinite(r.relResidual));
    for (double v : x)
        EXPECT_TRUE(std::isfinite(v));
}

TEST(SolverBiCgStab, ZeroMatrixBreakdownStaysFinite)
{
    // A = 0: v = A p vanishes, so every denominator in the recurrence
    // is zero. Guarded breakdown must return non-converged with the
    // initial residual, not divide by zero.
    Coo coo;
    coo.rows = coo.cols = 4;
    const Csr a = Csr::fromCoo(coo);
    CsrOperator op(a);
    std::vector<double> b(4, 1.0), x(4, 0.0);
    const SolverResult r = biCgStab(op, b, x);
    EXPECT_FALSE(r.converged);
    EXPECT_TRUE(std::isfinite(r.relResidual));
    EXPECT_NEAR(r.relResidual, 1.0, 1e-12); // nothing solved
    for (double v : x) {
        EXPECT_TRUE(std::isfinite(v));
        EXPECT_EQ(v, 0.0);
    }
}

TEST(SolverGmres, HappyBreakdownDoesNotFakeConvergence)
{
    // A = [[0, 1], [0, 0]] with b = (0, 1): the system is
    // inconsistent (nothing maps onto e2), and the Arnoldi process
    // breaks down at j = 1 with a zero Hessenberg column. The zero
    // column leaves its Givens rotation an identity, so the rotated
    // recurrence residual |g[2]| collapses to 0 -- the solver used to
    // report converged with relResidual 0 while x solved nothing.
    Coo coo;
    coo.rows = coo.cols = 2;
    coo.add(0, 1, 1.0);
    const Csr a = Csr::fromCoo(coo);
    CsrOperator op(a);
    std::vector<double> b = {0.0, 1.0}, x = {0.0, 0.0};
    const SolverResult r = gmres(op, b, x);
    EXPECT_FALSE(r.converged);
    EXPECT_NEAR(r.relResidual, 1.0, 1e-12);
    for (double v : x)
        EXPECT_TRUE(std::isfinite(v));
}

TEST(SolverGmres, ImmediateBreakdownHitsSingularPivotPath)
{
    // Same nilpotent operator, b = (1, 0): A v0 vanishes outright,
    // so the very first Hessenberg column is zero and the triangular
    // solve meets the singular pivot h[0][0] == 0 with g[0] != 0
    // (the warning path). x must stay untouched and finite.
    Coo coo;
    coo.rows = coo.cols = 2;
    coo.add(0, 1, 1.0);
    const Csr a = Csr::fromCoo(coo);
    CsrOperator op(a);
    std::vector<double> b = {1.0, 0.0}, x = {0.0, 0.0};
    const SolverResult r = gmres(op, b, x);
    EXPECT_FALSE(r.converged);
    EXPECT_NEAR(r.relResidual, 1.0, 1e-12);
    EXPECT_EQ(x[0], 0.0);
    EXPECT_EQ(x[1], 0.0);
}

TEST(SolverGmres, LuckyBreakdownOnEigenvectorSolvesExactly)
{
    // b is an eigenvector of the diagonal A: the Krylov subspace is
    // one-dimensional and exactly invariant, so the breakdown is the
    // "lucky" kind -- GMRES must return the exact solution b / 2 in
    // a single iteration instead of stalling or reusing a stale
    // basis vector.
    Coo coo;
    coo.rows = coo.cols = 3;
    coo.add(0, 0, 2.0);
    coo.add(1, 1, 3.0);
    coo.add(2, 2, 4.0);
    const Csr a = Csr::fromCoo(coo);
    CsrOperator op(a);
    std::vector<double> b = {6.0, 0.0, 0.0}, x(3, 0.0);
    const SolverResult r = gmres(op, b, x);
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.iterations, 1);
    EXPECT_EQ(r.relResidual, 0.0);
    EXPECT_EQ(x[0], 3.0);
    EXPECT_EQ(x[1], 0.0);
    EXPECT_EQ(x[2], 0.0);
}

TEST(SolverGmres, RestartOfOneStillConverges)
{
    // GMRES(1) degenerates to a one-dimensional minimal-residual
    // method; on an SPD system the residual still contracts. The
    // boundary restart exercises j == m at every single cycle.
    const Csr a = spdMatrix(64, 97);
    CsrOperator op(a);
    std::vector<double> b(64, 1.0), x(64, 0.0);
    SolverConfig cfg;
    cfg.tolerance = 1e-8;
    cfg.maxIterations = 5000;
    const SolverResult r = gmres(op, b, x, cfg, 1);
    EXPECT_TRUE(r.converged);
    EXPECT_LT(relResidual(a, b, x), 1e-6);
}

TEST(SolverGmres, ConvergenceExactlyAtTheRestartBoundary)
{
    // Two distinct eigenvalues => minimal polynomial of degree 2 =>
    // GMRES converges at exactly j == m for restart 2. The inner
    // loop must stop at the boundary, not spill into a fresh cycle.
    Coo coo;
    coo.rows = coo.cols = 8;
    for (std::int32_t i = 0; i < 8; ++i)
        coo.add(i, i, i < 4 ? 2.0 : 3.0);
    const Csr a = Csr::fromCoo(coo);
    CsrOperator op(a);
    Rng rng(99);
    std::vector<double> b(8), x(8, 0.0);
    for (auto &v : b)
        v = rng.uniform(-1.0, 1.0);
    const SolverResult r = gmres(op, b, x, {}, 2);
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.iterations, 2);
    EXPECT_LT(relResidual(a, b, x), 1e-9);
}

TEST(SolverBiCgStab, SingularSystemNeverProducesNan)
{
    // Singular A (one empty row) with an inconsistent rhs: the
    // method cannot converge; it must terminate via the breakdown
    // guards or the iteration cap with finite outputs either way.
    Coo coo;
    coo.rows = coo.cols = 3;
    coo.add(0, 0, 1.0);
    coo.add(1, 1, 1.0);
    const Csr a = Csr::fromCoo(coo); // row 2 is all zeros
    CsrOperator op(a);
    std::vector<double> b = {1.0, 1.0, 1.0}, x(3, 0.0);
    SolverConfig cfg;
    cfg.maxIterations = 50;
    const SolverResult r = biCgStab(op, b, x, cfg);
    EXPECT_FALSE(r.converged);
    EXPECT_TRUE(std::isfinite(r.relResidual));
    for (double v : x)
        EXPECT_TRUE(std::isfinite(v));
}

void
expectSameSolve(const SolverResult &got, const SolverResult &want,
                std::span<const double> x, std::span<const double> xRef,
                const std::string &what)
{
    EXPECT_EQ(got.status, want.status) << what;
    EXPECT_EQ(got.converged, want.converged) << what;
    EXPECT_EQ(got.iterations, want.iterations) << what;
    EXPECT_EQ(got.relResidual, want.relResidual) << what;
    EXPECT_EQ(got.spmvCalls, want.spmvCalls) << what;
    EXPECT_EQ(got.dotCalls, want.dotCalls) << what;
    EXPECT_EQ(got.axpyCalls, want.axpyCalls) << what;
    EXPECT_EQ(got.precondApplies, want.precondApplies) << what;
    ASSERT_EQ(x.size(), xRef.size()) << what;
    for (std::size_t i = 0; i < x.size(); ++i)
        ASSERT_EQ(x[i], xRef[i]) << what << ": component " << i;
}

TEST(CgPreempt, YieldAtEveryBoundaryResumesBitwise)
{
    const Csr a = spdMatrix(96, 131);
    CsrOperator op(a);
    const JacobiPreconditioner jacobi(a);
    std::vector<double> b(96);
    Rng rng(17);
    for (double &v : b)
        v = rng.uniform(-1.0, 1.0);

    for (const Preconditioner *m :
         {static_cast<const Preconditioner *>(nullptr),
          static_cast<const Preconditioner *>(&jacobi)}) {
        std::vector<double> xRef(b.size(), 0.0);
        CgState whole(b, xRef, {}, m);
        const SolverResult ref = runCg(op, whole);
        ASSERT_TRUE(ref.converged);
        ASSERT_GT(ref.iterations, 8);

        // Poll 1 is the initial one and poll j + 2 the loop head of
        // iteration j, so the yield lands at boundary j. At j = N the
        // solve converges before it polls, so it never parks.
        for (int j = 0; j <= ref.iterations; ++j) {
            const std::string what =
                std::string(m ? "pcg" : "cg") + " yield at " +
                std::to_string(j);
            ExecContext ctx;
            ctx.yieldAfterChecks(static_cast<std::uint64_t>(j) + 2);
            SolverConfig cfg;
            cfg.exec = &ctx;
            std::vector<double> x(b.size(), 0.0);
            CgState state(b, x, cfg, m);
            const SolverResult first = runCg(op, state);
            if (j < ref.iterations) {
                ASSERT_EQ(first.status, SolveStatus::Preempted)
                    << what;
                ASSERT_FALSE(state.done()) << what;
                EXPECT_EQ(first.iterations, j) << what;
                ctx.clearYield();
                runCg(op, state);
            }
            ASSERT_TRUE(state.done()) << what;
            expectSameSolve(state.result(), ref, x, xRef, what);
        }
    }
}

TEST(CgPreempt, CancelWhileParkedKeepsLastIterate)
{
    const Csr a = spdMatrix(96, 137);
    CsrOperator op(a);
    const std::vector<double> b(96, 1.0);
    constexpr int parkAt = 4;

    // The iterate after parkAt iterations, from a capped solve.
    SolverConfig capped;
    capped.maxIterations = parkAt;
    std::vector<double> xRef(b.size(), 0.0);
    const SolverResult ref = conjugateGradient(op, b, xRef, capped);
    ASSERT_EQ(ref.status, SolveStatus::MaxIterations);

    ExecContext ctx;
    ctx.yieldAfterChecks(parkAt + 2);
    SolverConfig cfg;
    cfg.exec = &ctx;
    std::vector<double> x(b.size(), 0.0);
    CgState state(b, x, cfg);
    ASSERT_EQ(runCg(op, state).status, SolveStatus::Preempted);

    ctx.clearYield();
    ctx.token().cancel();
    const SolverResult r = runCg(op, state);
    EXPECT_TRUE(state.done());
    EXPECT_EQ(r.status, SolveStatus::Cancelled);
    EXPECT_FALSE(r.converged);
    EXPECT_EQ(r.iterations, parkAt);
    EXPECT_EQ(r.relResidual, ref.relResidual);
    for (std::size_t i = 0; i < x.size(); ++i)
        ASSERT_EQ(x[i], xRef[i]) << "component " << i;
}

} // namespace
} // namespace msc
