/**
 * @file
 * Tests for the system-level accelerator model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "accel/accel.hh"
#include "sparse/gen.hh"
#include "util/logging.hh"
#include "util/threadpool.hh"

namespace msc {
namespace {

Csr
bandedMatrix(std::int32_t rows, std::uint64_t seed)
{
    TiledParams p;
    p.rows = rows;
    p.tile = 48;
    p.tileDensity = 0.3;
    p.scatterPerRow = 0.5;
    p.seed = seed;
    p.symmetricPattern = true;
    p.spd = true;
    return genTiled(p);
}

TEST(Accelerator, PrepareProducesConsistentPlan)
{
    msc::setLogQuiet(true);
    Accelerator accel;
    const Csr m = bandedMatrix(8192, 301);
    const PrepareResult prep = accel.prepare(m);
    EXPECT_GT(prep.placedBlocks, 0u);
    EXPECT_EQ(prep.placedBlocks + prep.dissolvedBlocks,
              prep.blocking.blocksPerSize[0] +
                  prep.blocking.blocksPerSize[1] +
                  prep.blocking.blocksPerSize[2] +
                  prep.blocking.blocksPerSize[3]);
    EXPECT_GT(prep.spmv.time, 0.0);
    EXPECT_GT(prep.spmv.energy, 0.0);
    EXPECT_GT(prep.dotOp.time, 0.0);
    EXPECT_GT(prep.axpyOp.time, 0.0);
    EXPECT_GT(prep.programTime, 0.0);
    EXPECT_FALSE(prep.gpuFallback);
    EXPECT_EQ(prep.banksUsed, (8192 + 1199) / 1200);
}

TEST(Accelerator, FunctionalSpmvMatchesCsr)
{
    msc::setLogQuiet(true);
    Accelerator accel;
    const Csr m = bandedMatrix(4096, 307);
    accel.prepare(m);
    std::vector<double> x(4096), yAccel(4096), yCsr(4096);
    Rng rng(311);
    for (auto &v : x)
        v = rng.uniform(-1, 1);
    accel.spmv(x, yAccel);
    m.spmv(x, yCsr);
    for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_NEAR(yAccel[i], yCsr[i],
                    1e-12 * (1.0 + std::fabs(yCsr[i])))
            << "row " << i;
    }
}

TEST(Accelerator, EdgeBlocksDoNotFoldPastTheLastRow)
{
    // 103 rows with 128-wide placements: the bottom edge block's
    // window extends 25 rows past the matrix. The padded partials
    // are zero, but folding them would still read and write heap
    // memory beyond y (+= 0.0 silently turns a -0.0 into +0.0,
    // which is how the tail canary detects it bitwise). Found by
    // the msc_check accel sweep under ThreadSanitizer.
    msc::setLogQuiet(true);
    TiledParams p;
    p.rows = 103;
    p.tile = 12;
    p.tileDensity = 0x1.4cfa5e7a11b46p-1;
    p.scatterPerRow = 0x1.d47056da54504p-2;
    p.symmetricPattern = true;
    p.values.tileExpSigma = 0x1.ba8f71c5d2bdp+0;
    p.values.elemExpSigma = 0x1.aba643408832ep-1;
    p.values.outlierProb = 0.02;
    p.seed = 4430784607913861559ull;
    const Csr m = genTiled(p);
    Accelerator accel;
    const PrepareResult prep = accel.prepare(m);
    ASSERT_GT(prep.placedBlocks, 0u);

    const auto n = static_cast<std::size_t>(m.rows());
    std::vector<double> x(n, 1.0), yCsr(n);
    std::vector<double> buf(n + 32, -0.0);
    accel.spmv(x, std::span<double>(buf.data(), n));
    for (std::size_t i = n; i < buf.size(); ++i) {
        EXPECT_TRUE(std::signbit(buf[i]))
            << "spmv touched memory past y at offset " << i - n;
    }
    m.spmv(x, yCsr);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(buf[i], yCsr[i],
                    1e-12 * (1.0 + std::fabs(yCsr[i])))
            << "row " << i;
    }
}

/** 64-bit FNV-1a over the IEEE bit patterns of @p v. */
std::uint64_t
fnv1aBits(std::span<const double> v)
{
    std::uint64_t h = 14695981039346656037ull;
    for (const double d : v) {
        const auto bits = std::bit_cast<std::uint64_t>(d);
        for (int i = 0; i < 8; ++i) {
            h ^= (bits >> (8 * i)) & 0xffu;
            h *= 1099511628211ull;
        }
    }
    return h;
}

TEST(Accelerator, OutputBitsPinnedAcrossRefactor)
{
    // Absolute pin of the spmv/spmm output bits, recorded when spmv
    // and spmm still had separate loop bodies. It pins the fold
    // order itself (CSR leftovers first, then each placement's
    // partials in placement order, accumulated in element order),
    // not only spmm against spmv. The plan has one 512-block, two
    // 256-blocks and four 64-blocks. With no 512 cluster the
    // 512-block dissolves back into the CSR; the 64-blocks beside
    // the 256-blocks make 192 rows fold two placements; the
    // 256-block at row 768 extends past the last of the 1000 rows;
    // exponent outliers evict elements from blocks.
    msc::setLogQuiet(true);
    TiledParams p;
    p.rows = 1000;
    p.tile = 24;
    p.tileDensity = 0.6;
    p.tileSpread = 4;
    p.diagTiles = 2;
    p.scatterPerRow = 1.0;
    p.values.outlierProb = 0.01;
    p.seed = 9;
    const Csr m = genTiled(p);
    AcceleratorConfig cfg;
    cfg.banks = 1;
    cfg.clustersPerBank = {{256, 8}, {128, 8}, {64, 8}};
    const BlockPlan plan = planBlocks(m, cfg.blocking);
    EXPECT_TRUE(std::any_of(
        plan.blocks.begin(), plan.blocks.end(),
        [&](const MatrixBlock &b) {
            return b.size == 256 && b.rowOrigin + 256 > m.rows();
        }));
    Accelerator accel(cfg);
    const PrepareResult prep = accel.prepare(m);
    ASSERT_EQ(prep.placedBlocks, 6u);
    ASSERT_EQ(prep.dissolvedBlocks, 1u);
    ASSERT_GT(prep.blocking.expRangeEvictions, 0u);

    const auto n = static_cast<std::size_t>(m.rows());
    Rng rng(13);
    std::vector<double> X(n * 8);
    for (auto &v : X)
        v = std::ldexp(rng.uniform(-1.0, 1.0),
                       static_cast<int>(rng.range(0, 40)) - 20);

    struct Pin
    {
        unsigned k;
        std::uint64_t hash;
    };
    const Pin pins[] = {{1, 0xfd601794e4c07f21ull},
                        {3, 0x612b79f4520a5ecfull},
                        {5, 0x4730b278253c8cccull},
                        {8, 0xa6f8fb1e0e3b61baull}};
    for (const unsigned threads : {1u, 4u}) {
        setGlobalThreads(threads);
        for (const Pin &pin : pins) {
            std::vector<double> Y(n * pin.k);
            const std::span<const double> Xk(X.data(), n * pin.k);
            if (pin.k == 1)
                accel.spmv(Xk, Y);
            else
                accel.spmm(Xk, Y, pin.k);
            EXPECT_EQ(fnv1aBits(Y), pin.hash)
                << "k=" << pin.k << " threads=" << threads;
        }
    }
    setGlobalThreads(0);
}

TEST(Accelerator, ScatterMatrixFallsBackToGpu)
{
    msc::setLogQuiet(true);
    Accelerator accel;
    TiledParams p;
    p.rows = 8192;
    p.diagTiles = 0;
    p.scatterPerRow = 4.0;
    p.seed = 313;
    p.symmetricPattern = false;
    const PrepareResult prep = accel.prepare(genTiled(p));
    EXPECT_TRUE(prep.gpuFallback);
    EXPECT_EQ(prep.placedBlocks, 0u);
}

TEST(Accelerator, SolveCostComposesKernels)
{
    msc::setLogQuiet(true);
    Accelerator accel;
    const Csr m = bandedMatrix(4096, 317);
    const PrepareResult prep = accel.prepare(m);
    SolverResult run;
    run.spmvCalls = 10;
    run.dotCalls = 20;
    run.axpyCalls = 30;
    run.vectorLength = 4096;
    const AccelCost noSetup = accel.solveCost(run, false);
    const AccelCost withSetup = accel.solveCost(run, true);
    const double kernels = 10 * prep.spmv.time +
                           20 * prep.dotOp.time +
                           30 * prep.axpyOp.time;
    EXPECT_NEAR(noSetup.time, kernels, 1e-12);
    EXPECT_NEAR(withSetup.time,
                kernels + prep.programTime + prep.preprocessTime,
                1e-12);
    EXPECT_GT(withSetup.energy, noSetup.energy);
}

TEST(Accelerator, LargerMatrixUsesMoreBanks)
{
    msc::setLogQuiet(true);
    Accelerator accel;
    const Csr small = bandedMatrix(2048, 331);
    const Csr large = bandedMatrix(16384, 331);
    const int banksSmall = accel.prepare(small).banksUsed;
    Accelerator accel2;
    const int banksLarge = accel2.prepare(large).banksUsed;
    EXPECT_GT(banksLarge, banksSmall);
    // More banks -> faster vector kernels per element.
    // (dot time scales with rows/banksUsed which is capped at 1200.)
    EXPECT_LE(accel2.dotCost().time,
              accel.dotCost().time * 16384.0 / 2048.0);
}

TEST(Accelerator, AreaModelMatchesPaper)
{
    const Accelerator accel;
    const AreaBreakdown a = accel.area();
    EXPECT_NEAR(a.total(), 539.0, 15.0); // paper: 539 mm^2
    const double procMemShare =
        (a.processors + a.globalMemory) / a.total();
    EXPECT_NEAR(procMemShare, 0.136, 0.02); // paper: 13.6%
    const double adcShare =
        a.adcsOnly / (a.crossbarsAndAdcs + a.bankBuffers);
    EXPECT_NEAR(adcShare, 0.459, 0.03); // paper: 45.9%
}

TEST(Accelerator, EnduranceScalesWithSolveTime)
{
    msc::setLogQuiet(true);
    Accelerator accel;
    accel.prepare(bandedMatrix(2048, 337));
    const double shortLife = accel.enduranceYears(0.1);
    const double longLife = accel.enduranceYears(3.2);
    EXPECT_GT(longLife, shortLife);
    EXPECT_GT(longLife, 100.0); // the paper's claim at their scale
}

TEST(Accelerator, ReprogramCostScalesWithChangedFraction)
{
    msc::setLogQuiet(true);
    Accelerator accel;
    const PrepareResult prep = accel.prepare(bandedMatrix(2048, 341));
    const AccelCost full = accel.reprogramCost(1.0);
    const AccelCost half = accel.reprogramCost(0.5);
    const AccelCost none = accel.reprogramCost(0.0);
    EXPECT_NEAR(full.time, prep.programTime, 1e-12);
    EXPECT_NEAR(half.energy, 0.5 * prep.programEnergy, 1e-9);
    EXPECT_EQ(none.time, 0.0);
    EXPECT_THROW(accel.reprogramCost(1.5), FatalError);
}

TEST(Accelerator, PoolCapacityMatchesTable1)
{
    const Accelerator accel;
    const auto pools = accel.poolCapacity();
    ASSERT_EQ(pools.size(), 4u);
    EXPECT_EQ(pools[0], (std::pair<unsigned, unsigned>{512, 256}));
    EXPECT_EQ(pools[1], (std::pair<unsigned, unsigned>{256, 512}));
    EXPECT_EQ(pools[2], (std::pair<unsigned, unsigned>{128, 768}));
    EXPECT_EQ(pools[3], (std::pair<unsigned, unsigned>{64, 1024}));
}

TEST(Accelerator, MisuseIsFatal)
{
    Accelerator accel;
    std::vector<double> x(8), y(8);
    EXPECT_THROW(accel.spmv(x, y), FatalError);
    SolverResult run;
    EXPECT_THROW(accel.solveCost(run), FatalError);

    AcceleratorConfig bad;
    bad.clustersPerBank = {{64, 8}, {512, 2}}; // wrong order
    EXPECT_THROW(Accelerator{bad}, FatalError);
}

} // namespace
} // namespace msc
