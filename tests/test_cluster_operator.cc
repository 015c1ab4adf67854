/**
 * @file
 * Integration tests: full Krylov solves through the bit-level
 * cluster arithmetic (the paper's Section VII-C convergence claim).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "accel/cluster_operator.hh"
#include "sparse/gen.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace msc {
namespace {

Csr
testSystem(std::int32_t rows, bool spd, std::uint64_t seed)
{
    TiledParams p;
    p.rows = rows;
    p.tile = 16;
    p.tileDensity = 0.45;
    p.scatterPerRow = 0.2;
    p.spd = spd;
    p.symmetricPattern = spd;
    p.diagDominance = 0.08;
    p.seed = seed;
    return genTiled(p);
}

TEST(ClusterOperator, SpmvMatchesCsrWithinBlockRounding)
{
    setLogQuiet(true);
    const Csr m = testSystem(256, true, 2001);
    ClusterArithmeticOperator op(m);
    EXPECT_GT(op.blockPlan().blocks.size(), 0u);

    CsrOperator ref(m);
    std::vector<double> x(256), yHw(256), yRef(256);
    Rng rng(2003);
    for (auto &v : x)
        v = rng.uniform(-1.0, 1.0);
    op.apply(x, yHw);
    ref.apply(x, yRef);
    // Per-block exact rounding vs double accumulation: equal to a
    // few ulps of the row magnitude.
    for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_NEAR(yHw[i], yRef[i],
                    1e-12 * (1.0 + std::fabs(yRef[i])))
            << "row " << i;
    }
    EXPECT_GT(op.totals().adcConversions, 0u);
}

TEST(ClusterOperator, CgConvergesInSameIterationsAsFp64)
{
    // Section VII-C: "The solvers running on the proposed
    // accelerator converge in the same number of iterations...
    // since both systems perform computation at the same level of
    // precision."
    setLogQuiet(true);
    const Csr m = testSystem(256, true, 2011);
    std::vector<double> b(256, 1.0);
    SolverConfig cfg;
    cfg.tolerance = 1e-9;
    cfg.maxIterations = 1500;

    CsrOperator fp64(m);
    std::vector<double> xRef(256, 0.0);
    const SolverResult ref = conjugateGradient(fp64, b, xRef, cfg);
    ASSERT_TRUE(ref.converged);

    ClusterArithmeticOperator hw(m);
    std::vector<double> xHw(256, 0.0);
    const SolverResult run = conjugateGradient(hw, b, xHw, cfg);
    EXPECT_TRUE(run.converged);
    // Same precision class: iteration counts agree within a couple.
    EXPECT_NEAR(run.iterations, ref.iterations, 2.0);
    for (std::size_t i = 0; i < b.size(); ++i)
        EXPECT_NEAR(xHw[i], xRef[i],
                    1e-6 * (1.0 + std::fabs(xRef[i])));
}

TEST(ClusterOperator, BiCgStabOnNonSymmetricSystem)
{
    setLogQuiet(true);
    const Csr m = testSystem(192, false, 2017);
    std::vector<double> b(192, 1.0);
    SolverConfig cfg;
    cfg.tolerance = 1e-8;
    cfg.maxIterations = 1500;

    CsrOperator fp64(m);
    std::vector<double> xRef(192, 0.0);
    const SolverResult ref = biCgStab(fp64, b, xRef, cfg);
    ASSERT_TRUE(ref.converged);

    ClusterArithmeticOperator hw(m);
    std::vector<double> xHw(192, 0.0);
    const SolverResult run = biCgStab(hw, b, xHw, cfg);
    EXPECT_TRUE(run.converged);
    // BiCG-STAB is twitchier than CG; allow a modest band.
    EXPECT_NEAR(run.iterations, ref.iterations,
                0.2 * ref.iterations + 3.0);
}

TEST(ClusterOperator, NearestRoundingAlsoConverges)
{
    setLogQuiet(true);
    const Csr m = testSystem(192, true, 2027);
    std::vector<double> b(192, 1.0);
    ClusterConfig base;
    base.rounding = RoundingMode::NearestEven;
    ClusterArithmeticOperator hw(
        m, ClusterArithmeticOperator::smallSizes(), base);
    std::vector<double> x(192, 0.0);
    const SolverResult run =
        conjugateGradient(hw, b, x, {1e-9, 1500});
    EXPECT_TRUE(run.converged);
}

TEST(ClusterOperator, DimensionMismatchFatal)
{
    setLogQuiet(true);
    const Csr m = testSystem(64, true, 2029);
    ClusterArithmeticOperator op(m);
    std::vector<double> x(32), y(64);
    EXPECT_THROW(op.apply(x, y), FatalError);
}

ClusterConfig
fidelity(StatsFidelity f)
{
    ClusterConfig cfg;
    cfg.statsFidelity = f;
    return cfg;
}

void
expectSameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]),
                  std::bit_cast<std::uint64_t>(b[i]))
            << "component " << i;
}

TEST(ClusterOperator, FidelityModesSolveBitwiseAlike)
{
    // The exact-value kernel (Sampled) and the slice walk (Full)
    // drive CG and BiCG-STAB through the same trajectory: same
    // iterates, same iteration counts.
    setLogQuiet(true);
    const auto sizes = ClusterArithmeticOperator::smallSizes();
    for (const bool spd : {true, false}) {
        const Csr m = testSystem(96, spd, 2031);
        std::vector<double> b(96);
        Rng rng(2033);
        for (auto &v : b)
            v = rng.uniform(-1.0, 1.0);
        ClusterArithmeticOperator fast(
            m, sizes, fidelity(StatsFidelity::Sampled));
        ClusterArithmeticOperator slow(
            m, sizes, fidelity(StatsFidelity::Full));
        std::vector<double> xFast(96, 0.0), xSlow(96, 0.0);
        const SolverConfig cfg{1e-9, 1500};
        const SolverResult rFast = spd
            ? conjugateGradient(fast, b, xFast, cfg)
            : biCgStab(fast, b, xFast, cfg);
        const SolverResult rSlow = spd
            ? conjugateGradient(slow, b, xSlow, cfg)
            : biCgStab(slow, b, xSlow, cfg);
        EXPECT_TRUE(rFast.converged);
        EXPECT_EQ(rFast.iterations, rSlow.iterations);
        EXPECT_EQ(rFast.relResidual, rSlow.relResidual);
        expectSameBits(xFast, xSlow);
    }
}

TEST(ClusterOperator, SampledStatsAreTheOnesVectorSample)
{
    // Sampled fidelity charges every column its block's slice-level
    // stats on the all-ones vector: N applies of any (unpeeled)
    // vector total bitwise what N Full applies of ones total, sums
    // in the same order included. Only the peel count is real.
    setLogQuiet(true);
    const Csr m = testSystem(100, true, 2037); // padded edge blocks
    const auto sizes = ClusterArithmeticOperator::smallSizes();
    ClusterArithmeticOperator sampled(
        m, sizes, fidelity(StatsFidelity::Sampled));
    ClusterArithmeticOperator full(m, sizes,
                                   fidelity(StatsFidelity::Full));
    std::vector<double> x(100), ones(100, 1.0), y(100);
    Rng rng(2039);
    for (auto &v : x)
        v = rng.uniform(-1.0, 1.0);
    for (int i = 0; i < 3; ++i) {
        sampled.apply(x, y);
        full.apply(ones, y);
    }
    const ClusterStats &a = sampled.totals();
    const ClusterStats &b = full.totals();
    EXPECT_GT(a.adcConversions, 0u);
    EXPECT_EQ(a.groupsExecuted, b.groupsExecuted);
    EXPECT_EQ(a.groupsTotal, b.groupsTotal);
    EXPECT_EQ(a.xbarActivations, b.xbarActivations);
    EXPECT_EQ(a.adcConversions, b.adcConversions);
    EXPECT_EQ(a.conversionsSkipped, b.conversionsSkipped);
    EXPECT_EQ(a.columnsEarlyTerminated, b.columnsEarlyTerminated);
    EXPECT_EQ(a.peeledVectorElements, 0u);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.energy),
              std::bit_cast<std::uint64_t>(b.energy));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.latency),
              std::bit_cast<std::uint64_t>(b.latency));

    // A peeled element is counted (once per block holding its
    // column), on top of the sample.
    x[7] = 0x1.8p300;
    sampled.apply(x, y);
    EXPECT_GT(sampled.totals().peeledVectorElements, 0u);
    EXPECT_EQ(sampled.totals().adcConversions,
              b.adcConversions / 3 * 4);
}

} // namespace
} // namespace msc
