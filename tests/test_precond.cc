/**
 * @file
 * Tests for preconditioners, PCG, and plain BiCG.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "solver/precond.hh"
#include "sparse/gen.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace msc {
namespace {

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
spdMatrix(std::int32_t n, std::uint64_t seed, double expSigma = 3.0)
{
    TiledParams p;
    p.rows = n;
    p.tile = 16;
    p.tileDensity = 0.3;
    p.spd = true;
    p.symmetricPattern = true;
    p.diagDominance = 0.03;
    p.values.tileExpSigma = expSigma;
    p.seed = seed;
    return genTiled(p);
}

TEST(Precond, JacobiInvertsDiagonal)
{
    Coo coo;
    coo.rows = coo.cols = 3;
    coo.add(0, 0, 2.0);
    coo.add(1, 1, 4.0);
    coo.add(2, 2, 0.5);
    const Csr m = Csr::fromCoo(coo);
    const JacobiPreconditioner jac(m);
    std::vector<double> r{2.0, 4.0, 1.0}, z(3);
    jac.apply(r, z);
    EXPECT_DOUBLE_EQ(z[0], 1.0);
    EXPECT_DOUBLE_EQ(z[1], 1.0);
    EXPECT_DOUBLE_EQ(z[2], 2.0);
    EXPECT_EQ(jac.opsPerApply(), 3.0);
}

TEST(Precond, JacobiRejectsZeroDiagonal)
{
    Coo coo;
    coo.rows = coo.cols = 2;
    coo.add(0, 0, 1.0);
    coo.add(1, 0, 1.0); // no (1,1)
    const Csr m = Csr::fromCoo(coo);
    EXPECT_THROW(JacobiPreconditioner{m}, FatalError);
}

TEST(Precond, SgsSolvesTriangularFactorsExactly)
{
    // For a diagonal matrix, SGS reduces to Jacobi.
    Coo coo;
    coo.rows = coo.cols = 4;
    for (std::int32_t i = 0; i < 4; ++i)
        coo.add(i, i, 2.0);
    const Csr m = Csr::fromCoo(coo);
    const SymmetricGaussSeidelPreconditioner sgs(m);
    std::vector<double> r{2, 4, 6, 8}, z(4);
    sgs.apply(r, z);
    for (int i = 0; i < 4; ++i)
        EXPECT_DOUBLE_EQ(z[i], r[i] / 2.0);
}

TEST(Precond, IdentityIsNoOp)
{
    const IdentityPreconditioner id;
    std::vector<double> r{1.0, -2.0}, z(2);
    id.apply(r, z);
    EXPECT_EQ(z, r);
}

TEST(Precond, PcgWithIdentityMatchesCg)
{
    const Csr a = spdMatrix(400, 811);
    CsrOperator op(a);
    std::vector<double> b(400, 1.0);
    std::vector<double> x1(400, 0.0), x2(400, 0.0);
    SolverConfig cfg;
    cfg.tolerance = 1e-10;
    const SolverResult plain = conjugateGradient(op, b, x1, cfg);
    const IdentityPreconditioner id;
    const SolverResult pcg = preconditionedCg(op, id, b, x2, cfg);
    EXPECT_TRUE(plain.converged);
    EXPECT_TRUE(pcg.converged);
    EXPECT_EQ(pcg.status, SolveStatus::Converged);
    // One recurrence: with z = r, PCG runs CG's arithmetic bit for
    // bit (its ||r|| is norm2(r) = sqrt(r'r), CG's residual norm).
    EXPECT_EQ(pcg.iterations, plain.iterations);
    EXPECT_EQ(pcg.relResidual, plain.relResidual);
    for (std::size_t i = 0; i < b.size(); ++i)
        ASSERT_EQ(x1[i], x2[i]) << "component " << i;
}

TEST(Precond, JacobiAcceleratesIllScaledSystems)
{
    // Wide value spread: unpreconditioned CG crawls; Jacobi fixes
    // the scaling.
    const Csr a = spdMatrix(600, 821, 8.0);
    CsrOperator op(a);
    std::vector<double> b(600, 1.0);
    SolverConfig cfg;
    cfg.tolerance = 1e-8;
    cfg.maxIterations = 4000;
    std::vector<double> x1(600, 0.0), x2(600, 0.0);
    const SolverResult plain = conjugateGradient(op, b, x1, cfg);
    const JacobiPreconditioner jac(a);
    const SolverResult pcg = preconditionedCg(op, jac, b, x2, cfg);
    EXPECT_TRUE(pcg.converged);
    EXPECT_LT(pcg.iterations, plain.iterations);
    EXPECT_LT(relResidual(a, b, x2), 1e-6);
    EXPECT_GT(pcg.precondApplies, 0u);
}

TEST(Precond, SgsBeatsJacobiOnIterations)
{
    const Csr a = spdMatrix(600, 823, 5.0);
    CsrOperator op(a);
    std::vector<double> b(600, 1.0);
    SolverConfig cfg;
    cfg.tolerance = 1e-8;
    cfg.maxIterations = 4000;
    std::vector<double> xj(600, 0.0), xs(600, 0.0);
    const JacobiPreconditioner jac(a);
    const SymmetricGaussSeidelPreconditioner sgs(a);
    const SolverResult rj = preconditionedCg(op, jac, b, xj, cfg);
    const SolverResult rs = preconditionedCg(op, sgs, b, xs, cfg);
    EXPECT_TRUE(rs.converged);
    EXPECT_LE(rs.iterations, rj.iterations);
    EXPECT_LT(relResidual(a, b, xs), 1e-6);
}

TEST(Precond, Ilu0ExactOnDenseFactorizablePattern)
{
    // For a matrix whose LU factors fit the original pattern (e.g. a
    // tridiagonal matrix), ILU(0) is an exact factorization and PCG
    // converges in one iteration.
    Coo coo;
    const std::int32_t n = 50;
    coo.rows = coo.cols = n;
    for (std::int32_t i = 0; i < n; ++i) {
        coo.add(i, i, 4.0);
        if (i + 1 < n) {
            coo.add(i, i + 1, -1.0);
            coo.add(i + 1, i, -1.0);
        }
    }
    const Csr m = Csr::fromCoo(coo);
    const Ilu0Preconditioner ilu(m);
    CsrOperator op(m);
    std::vector<double> b(static_cast<std::size_t>(n), 1.0);
    std::vector<double> x(b.size(), 0.0);
    SolverConfig cfg;
    cfg.tolerance = 1e-12;
    const SolverResult r = preconditionedCg(op, ilu, b, x, cfg);
    EXPECT_TRUE(r.converged);
    EXPECT_LE(r.iterations, 2);
    EXPECT_LT(relResidual(m, b, x), 1e-10);
}

TEST(Precond, Ilu0SolveMatchesFactorsOnTriangularSystems)
{
    // M z = r with M = L U: applying then multiplying back through
    // the factors must reproduce r.
    const Csr a = spdMatrix(200, 835);
    const Ilu0Preconditioner ilu(a);
    const Csr &f = ilu.combinedFactors();
    Rng rng(837);
    std::vector<double> r(200), z(200);
    for (auto &v : r)
        v = rng.uniform(-1, 1);
    ilu.apply(r, z);
    // Reconstruct M z = L(U z): U z first.
    std::vector<double> uz(200, 0.0), luz(200, 0.0);
    for (std::int32_t i = 0; i < 200; ++i) {
        const auto cols = f.rowCols(i);
        const auto vals = f.rowVals(i);
        double acc = 0.0;
        for (std::size_t p = 0; p < cols.size(); ++p) {
            if (cols[p] >= i)
                acc += vals[p] * z[static_cast<std::size_t>(cols[p])];
        }
        uz[static_cast<std::size_t>(i)] = acc;
    }
    for (std::int32_t i = 0; i < 200; ++i) {
        const auto cols = f.rowCols(i);
        const auto vals = f.rowVals(i);
        double acc = uz[static_cast<std::size_t>(i)]; // unit diag
        for (std::size_t p = 0; p < cols.size(); ++p) {
            if (cols[p] < i)
                acc += vals[p] *
                       uz[static_cast<std::size_t>(cols[p])];
        }
        luz[static_cast<std::size_t>(i)] = acc;
    }
    for (std::size_t i = 0; i < r.size(); ++i)
        EXPECT_NEAR(luz[i], r[i], 1e-10 * (1 + std::fabs(r[i])));
}

TEST(Precond, Ilu0BeatsJacobiOnHardSystems)
{
    const Csr a = spdMatrix(600, 839, 6.0);
    CsrOperator op(a);
    std::vector<double> b(600, 1.0);
    SolverConfig cfg;
    cfg.tolerance = 1e-8;
    cfg.maxIterations = 4000;
    std::vector<double> xj(600, 0.0), xi(600, 0.0);
    const JacobiPreconditioner jac(a);
    const Ilu0Preconditioner ilu(a);
    const SolverResult rj = preconditionedCg(op, jac, b, xj, cfg);
    const SolverResult ri = preconditionedCg(op, ilu, b, xi, cfg);
    EXPECT_TRUE(ri.converged);
    EXPECT_LT(ri.iterations, rj.iterations);
    EXPECT_LT(relResidual(a, b, xi), 1e-6);
}

TEST(Precond, Ilu0RejectsMissingDiagonal)
{
    Coo coo;
    coo.rows = coo.cols = 3;
    coo.add(0, 0, 1.0);
    coo.add(1, 1, 1.0);
    coo.add(2, 0, 1.0); // no (2,2)
    EXPECT_THROW(Ilu0Preconditioner{Csr::fromCoo(coo)}, FatalError);
}

TEST(BiCg, SolvesNonSymmetricSystem)
{
    TiledParams p;
    p.rows = 400;
    p.tile = 16;
    p.tileDensity = 0.3;
    p.scatterPerRow = 1.0;
    p.symmetricPattern = false;
    p.diagDominance = 0.15;
    p.seed = 827;
    const Csr a = genTiled(p);
    CsrOperator op(a);
    std::vector<double> b(400, 1.0), x(400, 0.0);
    SolverConfig cfg;
    cfg.tolerance = 1e-9;
    const SolverResult r = biCg(op, b, x, cfg);
    EXPECT_TRUE(r.converged);
    EXPECT_LT(relResidual(a, b, x), 1e-7);
    // Two MVMs per iteration (A and A^T).
    EXPECT_NEAR(static_cast<double>(r.spmvCalls),
                2.0 * r.iterations + 1, 2.0);
}

TEST(BiCg, MatchesCgOnSpdSystems)
{
    const Csr a = spdMatrix(300, 829);
    CsrOperator op(a);
    std::vector<double> b(300, 1.0);
    std::vector<double> x1(300, 0.0), x2(300, 0.0);
    SolverConfig cfg;
    cfg.tolerance = 1e-10;
    conjugateGradient(op, b, x1, cfg);
    const SolverResult r = biCg(op, b, x2, cfg);
    EXPECT_TRUE(r.converged);
    for (std::size_t i = 0; i < b.size(); ++i)
        EXPECT_NEAR(x1[i], x2[i], 1e-7 * (1 + std::fabs(x1[i])));
}

} // namespace
} // namespace msc
