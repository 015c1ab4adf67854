/**
 * @file
 * Bit-exactness lock for the batched multi-RHS execution path.
 *
 * The contract, at every layer, is column independence: a batched
 * call over a k-column panel is bitwise identical to k one-column
 * calls in column order -- batch(k) == k x batch(1) -- covering
 * outputs, per-column side channels (peeled indices), and
 * statistics, including the floating-point energy accumulations.
 * Cluster, HwCluster, Accelerator and the operator adapters run one
 * kernel body, whose single-RHS entry points are k = 1 panels; their
 * values are pinned to the straight-line references in
 * test_kernel_bitexact and, for Accelerator, to the absolute hashes
 * in test_accel. The suites here drive Cluster::multiply(X),
 * HwCluster::multiply(X), Accelerator::spmm and the operator batch
 * applies (including an active FaultCampaign and a mid-batch
 * cancellation).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "accel/accel.hh"
#include "accel/cluster_operator.hh"
#include "cluster/cluster.hh"
#include "cluster/hw_cluster.hh"
#include "fault/fault.hh"
#include "fault/faulty_operator.hh"
#include "sparse/gen.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/threadpool.hh"

namespace msc {
namespace {

MatrixBlock
randomBlock(Rng &rng, unsigned size, double density, int expSpread)
{
    MatrixBlock b;
    b.size = size;
    for (unsigned r = 0; r < size; ++r) {
        for (unsigned c = 0; c < size; ++c) {
            if (!rng.chance(density))
                continue;
            const int e = static_cast<int>(rng.range(0, expSpread));
            const double v = std::ldexp(rng.uniform(1.0, 2.0), e) *
                             (rng.chance(0.5) ? -1.0 : 1.0);
            b.elems.push_back({static_cast<std::int32_t>(r),
                               static_cast<std::int32_t>(c), v});
        }
    }
    return b;
}

std::vector<double>
randomVector(Rng &rng, unsigned size, int expSpread,
             double zeroProb = 0.1)
{
    std::vector<double> x(size);
    for (auto &v : x) {
        if (rng.chance(zeroProb)) {
            v = 0.0;
            continue;
        }
        const int e = static_cast<int>(rng.range(0, expSpread));
        v = std::ldexp(rng.uniform(1.0, 2.0), e) *
            (rng.chance(0.5) ? -1.0 : 1.0);
    }
    return x;
}

/** Bitwise comparison of double buffers (0.0 vs -0.0 differ). */
bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(),
                        a.size() * sizeof(double)) == 0);
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void
expectStatsEqual(const ClusterStats &a, const ClusterStats &b)
{
    EXPECT_EQ(a.matrixSlices, b.matrixSlices);
    EXPECT_EQ(a.vectorSlices, b.vectorSlices);
    EXPECT_EQ(a.groupsTotal, b.groupsTotal);
    EXPECT_EQ(a.groupsExecuted, b.groupsExecuted);
    EXPECT_EQ(a.xbarActivations, b.xbarActivations);
    EXPECT_EQ(a.adcConversions, b.adcConversions);
    EXPECT_EQ(a.conversionsSkipped, b.conversionsSkipped);
    EXPECT_EQ(a.columnsEarlyTerminated, b.columnsEarlyTerminated);
    EXPECT_EQ(a.emptyColumns, b.emptyColumns);
    EXPECT_EQ(a.peeledVectorElements, b.peeledVectorElements);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_TRUE(sameBits(a.latency, b.latency));
    EXPECT_TRUE(sameBits(a.energy, b.energy));
    EXPECT_TRUE(sameBits(a.adcEnergy, b.adcEnergy));
    EXPECT_TRUE(sameBits(a.arrayEnergy, b.arrayEnergy));
}

/**
 * Drive one cluster config: for each k, compare the batched multiply
 * against k single-RHS calls in column order -- outputs, folded
 * stats, and peeled indices, all bitwise.
 */
void
driveClusterConfig(const ClusterConfig &cfg, std::uint64_t seed,
                   int vecSpread)
{
    Rng rng(seed);
    Cluster cluster(cfg);
    const MatrixBlock b = randomBlock(rng, cfg.size, 0.4, 20);
    cluster.program(b);

    for (unsigned k : {1u, 3u, 8u}) {
        const std::size_t n = cfg.size;
        std::vector<double> X;
        for (unsigned c = 0; c < k; ++c) {
            // Vary the exponent spread per column so columns land in
            // different vector widths (distinct schedules) and some
            // exceed the 64-bit window (peeling).
            const int spread = (c % 3 == 2) ? vecSpread + 60
                                            : vecSpread + int(c);
            const auto xc = randomVector(rng, cfg.size, spread);
            X.insert(X.end(), xc.begin(), xc.end());
        }

        // Reference: k single-RHS calls in column order.
        std::vector<double> yRef(n * k);
        std::vector<std::vector<std::int32_t>> peelRef(k);
        ClusterStats statsRef;
        for (unsigned c = 0; c < k; ++c) {
            statsRef += cluster.multiply(
                std::span<const double>(X).subspan(c * n, n),
                std::span<double>(yRef).subspan(c * n, n),
                &peelRef[c]);
        }

        std::vector<double> yBatch(n * k, -1.0);
        std::vector<std::vector<std::int32_t>> peelBatch;
        const ClusterStats statsBatch = cluster.multiply(
            std::span<const double>(X),
            std::span<double>(yBatch), k, &peelBatch);

        EXPECT_TRUE(sameBits(yRef, yBatch))
            << "k=" << k << " outputs differ";
        expectStatsEqual(statsRef, statsBatch);
        ASSERT_EQ(peelBatch.size(), k);
        for (unsigned c = 0; c < k; ++c)
            EXPECT_EQ(peelRef[c], peelBatch[c]) << "column " << c;
    }
}

TEST(BatchCluster, BitExactAcrossSchedulesAndRounding)
{
    std::uint64_t seed = 7001;
    for (auto policy : {SchedulePolicy::Vertical,
                        SchedulePolicy::Diagonal,
                        SchedulePolicy::Hybrid}) {
        for (auto mode : {RoundingMode::TowardNegInf,
                          RoundingMode::NearestEven}) {
            ClusterConfig cfg;
            cfg.size = 16;
            cfg.schedule = policy;
            cfg.rounding = mode;
            driveClusterConfig(cfg, seed++, 20);
        }
    }
}

TEST(BatchCluster, BitExactAcrossProtectionCorners)
{
    std::uint64_t seed = 7101;
    for (bool an : {false, true}) {
        for (bool et : {false, true}) {
            ClusterConfig cfg;
            cfg.size = 16;
            cfg.anProtect = an;
            cfg.earlyTermination = et;
            driveClusterConfig(cfg, seed++, 30);
        }
    }
}

TEST(BatchCluster, BitExactWithReducedPrecisionTargets)
{
    std::uint64_t seed = 7201;
    for (unsigned target : {53u, 24u, 11u}) {
        ClusterConfig cfg;
        cfg.size = 16;
        cfg.targetMantissaBits = target;
        driveClusterConfig(cfg, seed++, 25);
    }
}

TEST(BatchCluster, BitExactOnLargerBlock)
{
    ClusterConfig cfg;
    cfg.size = 64;
    driveClusterConfig(cfg, 7301, 40);
}

TEST(BatchCluster, EmptyRowsAndZeroColumns)
{
    ClusterConfig cfg;
    cfg.size = 8;
    Cluster cluster(cfg);
    MatrixBlock b;
    b.size = 8;
    b.elems = {{3, 3, 5.0}, {5, 1, -2.5}};
    cluster.program(b);

    const unsigned k = 3;
    // Column 1 is all zeros.
    std::vector<double> X(8 * k, 0.0);
    for (unsigned i = 0; i < 8; ++i) {
        X[i] = static_cast<double>(i) - 3.0;
        X[16 + i] = std::ldexp(1.0, static_cast<int>(i));
    }

    std::vector<double> yRef(8 * k);
    ClusterStats statsRef;
    for (unsigned c = 0; c < k; ++c) {
        statsRef += cluster.multiply(
            std::span<const double>(X).subspan(c * 8, 8),
            std::span<double>(yRef).subspan(c * 8, 8));
    }
    std::vector<double> yBatch(8 * k, -1.0);
    const ClusterStats statsBatch = cluster.multiply(
        std::span<const double>(X), std::span<double>(yBatch), k);
    EXPECT_TRUE(sameBits(yRef, yBatch));
    expectStatsEqual(statsRef, statsBatch);
}

TEST(BatchCluster, SingleRhsScratchReuseIsStable)
{
    // Repeated single-RHS calls on one cluster reuse member scratch;
    // results must not depend on call history.
    ClusterConfig cfg;
    cfg.size = 16;
    Cluster cluster(cfg);
    Rng rng(7401);
    cluster.program(randomBlock(rng, 16, 0.5, 25));

    const auto x1 = randomVector(rng, 16, 70); // peels
    const auto x2 = randomVector(rng, 16, 8);  // narrow
    std::vector<double> a(16), b2(16), c(16);
    cluster.multiply(x1, a);
    cluster.multiply(x2, b2); // perturb scratch sizing
    cluster.multiply(x1, c);
    EXPECT_TRUE(sameBits(a, c));
}

void
expectHwStatsEqual(const HwClusterStats &a, const HwClusterStats &b)
{
    EXPECT_EQ(a.sliceWords, b.sliceWords);
    EXPECT_EQ(a.cleanWords, b.cleanWords);
    EXPECT_EQ(a.correctedWords, b.correctedWords);
    EXPECT_EQ(a.uncorrectableWords, b.uncorrectableWords);
    EXPECT_EQ(a.cicInvertedColumns, b.cicInvertedColumns);
}

void
driveHwConfig(const HwCluster::Config &cfg, unsigned blockSize,
              std::uint64_t seed)
{
    Rng rng(seed);
    HwCluster hw(cfg);
    hw.program(randomBlock(rng, blockSize, 0.4, 16));

    for (unsigned k : {1u, 3u, 8u}) {
        std::vector<double> X;
        for (unsigned c = 0; c < k; ++c) {
            const auto xc =
                randomVector(rng, blockSize, 12 + int(c % 4));
            X.insert(X.end(), xc.begin(), xc.end());
        }
        std::vector<double> yRef(blockSize * k);
        HwClusterStats statsRef;
        for (unsigned c = 0; c < k; ++c) {
            statsRef += hw.multiply(
                std::span<const double>(X).subspan(c * blockSize,
                                                   blockSize),
                std::span<double>(yRef).subspan(c * blockSize,
                                                blockSize));
        }
        std::vector<double> yBatch(blockSize * k, -1.0);
        const HwClusterStats statsBatch = hw.multiply(
            std::span<const double>(X), std::span<double>(yBatch),
            k);
        EXPECT_TRUE(sameBits(yRef, yBatch)) << "k=" << k;
        expectHwStatsEqual(statsRef, statsBatch);
    }
}

TEST(BatchHwCluster, BitExactAcrossProtectionCorners)
{
    std::uint64_t seed = 7501;
    for (bool an : {false, true}) {
        for (bool cic : {false, true}) {
            HwCluster::Config cfg;
            cfg.size = 16;
            cfg.anProtect = an;
            cfg.cic = cic;
            driveHwConfig(cfg, 16, seed++);
        }
    }
}

TEST(BatchHwCluster, BitExactOnMultiWordColumns)
{
    // blockSize > 64: the column reduction takes the generic
    // multi-word popcount path.
    HwCluster::Config cfg;
    cfg.size = 72;
    driveHwConfig(cfg, 72, 7601);
}

TEST(BatchHwCluster, InjectorReplaysSequentialStream)
{
    // With an attached injector the batch must replay the exact
    // sequential fault stream: compare against singles driven
    // through an identically constructed injector.
    FaultCampaign camp;
    camp.seed = 99;
    camp.stuckCellRate = 0.002;
    camp.transientUpsetRate = 0.05;

    Rng dataRng(7701);
    const MatrixBlock b = randomBlock(dataRng, 16, 0.4, 10);
    const unsigned k = 3;
    std::vector<double> X;
    for (unsigned c = 0; c < k; ++c) {
        const auto xc = randomVector(dataRng, 16, 10);
        X.insert(X.end(), xc.begin(), xc.end());
    }

    HwCluster::Config cfg;
    cfg.size = 16;

    std::vector<double> yRef(16 * k), yBatch(16 * k, -1.0);
    HwClusterStats statsRef, statsBatch;
    {
        HwCluster hw(cfg);
        hw.program(b);
        FaultInjector inj(camp);
        inj.inject(hw);
        for (unsigned c = 0; c < k; ++c) {
            statsRef += hw.multiply(
                std::span<const double>(X).subspan(c * 16, 16),
                std::span<double>(yRef).subspan(c * 16, 16));
        }
    }
    {
        HwCluster hw(cfg);
        hw.program(b);
        FaultInjector inj(camp);
        inj.inject(hw);
        statsBatch = hw.multiply(std::span<const double>(X),
                                 std::span<double>(yBatch), k);
    }
    EXPECT_TRUE(sameBits(yRef, yBatch));
    expectHwStatsEqual(statsRef, statsBatch);
}

TEST(BatchHwCluster, AnalogReadsReplayDrawOrder)
{
    HwCluster::Config cfg;
    cfg.size = 16;
    cfg.analogReads = true;

    Rng dataRng(7801);
    const MatrixBlock b = randomBlock(dataRng, 16, 0.4, 8);
    const unsigned k = 3;
    std::vector<double> X;
    for (unsigned c = 0; c < k; ++c) {
        const auto xc = randomVector(dataRng, 16, 8);
        X.insert(X.end(), xc.begin(), xc.end());
    }

    HwCluster hw(cfg);
    hw.program(b);
    std::vector<double> yRef(16 * k), yBatch(16 * k, -1.0);
    Rng noiseA(4242), noiseB(4242);
    for (unsigned c = 0; c < k; ++c) {
        hw.multiply(
            std::span<const double>(X).subspan(c * 16, 16),
            std::span<double>(yRef).subspan(c * 16, 16), &noiseA);
    }
    hw.multiply(std::span<const double>(X),
                std::span<double>(yBatch), k, &noiseB);
    EXPECT_TRUE(sameBits(yRef, yBatch));
}

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

std::vector<double>
panelOf(Rng &rng, std::size_t n, unsigned k)
{
    std::vector<double> X(n * k);
    for (auto &v : X)
        v = rng.uniform(-1.0, 1.0);
    return X;
}

TEST(BatchAccel, SpmmBitExactToRepeatedSpmv)
{
    msc::setLogQuiet(true);
    Accelerator accel;
    const std::size_t n = 2048;
    const Csr m = bandedMatrix(static_cast<std::int32_t>(n), 8101);
    accel.prepare(m);
    Rng rng(8102);
    for (unsigned k : {1u, 3u, 8u}) {
        const auto X = panelOf(rng, n, k);
        std::vector<double> yRef(n * k), yBatch(n * k, -1.0);
        for (unsigned c = 0; c < k; ++c) {
            accel.spmv(
                std::span<const double>(X).subspan(c * n, n),
                std::span<double>(yRef).subspan(c * n, n));
        }
        accel.spmm(std::span<const double>(X),
                   std::span<double>(yBatch), k);
        EXPECT_TRUE(sameBits(yRef, yBatch)) << "k=" << k;
    }
}

TEST(BatchAccel, SpmmDeterministicAcrossThreadCounts)
{
    msc::setLogQuiet(true);
    Accelerator accel;
    const std::size_t n = 2048;
    const Csr m = bandedMatrix(static_cast<std::int32_t>(n), 8201);
    accel.prepare(m);
    Rng rng(8202);
    const unsigned k = 5;
    const auto X = panelOf(rng, n, k);

    std::vector<double> y1(n * k), y2(n * k), y8(n * k);
    setGlobalThreads(1);
    accel.spmm(std::span<const double>(X), std::span<double>(y1), k);
    setGlobalThreads(2);
    accel.spmm(std::span<const double>(X), std::span<double>(y2), k);
    setGlobalThreads(8);
    accel.spmm(std::span<const double>(X), std::span<double>(y8), k);
    setGlobalThreads(0);
    EXPECT_TRUE(sameBits(y1, y2));
    EXPECT_TRUE(sameBits(y1, y8));
}

/** Both stats fidelities: every operator stats contract holds in
 *  each, and the values are the same bits in both. */
constexpr StatsFidelity bothFidelities[] = {StatsFidelity::Sampled,
                                            StatsFidelity::Full};

ClusterConfig
withFidelity(StatsFidelity f)
{
    ClusterConfig cfg;
    cfg.statsFidelity = f;
    return cfg;
}

TEST(BatchOperator, ClusterOperatorBatchMatchesApplies)
{
    setLogQuiet(true);
    const Csr m = bandedMatrix(96, 8301);
    const auto n = static_cast<std::size_t>(m.rows());
    const unsigned k = 3;
    Rng rng(8302);
    auto X = panelOf(rng, n, k);
    X[n + 5] = 0x1.8p200; // column 1 peels: sampled stats count it

    std::vector<double> yFirst;
    for (const StatsFidelity f : bothFidelities) {
        SCOPED_TRACE(f == StatsFidelity::Sampled ? "sampled" : "full");
        const ClusterConfig cfg = withFidelity(f);
        const auto sizes = ClusterArithmeticOperator::smallSizes();
        ClusterArithmeticOperator ref(m, sizes, cfg),
            bat(m, sizes, cfg);
        std::vector<double> yRef(n * k, 0.0), yBatch(n * k, 0.0);
        for (unsigned c = 0; c < k; ++c) {
            ref.apply(std::span<const double>(X).subspan(c * n, n),
                      std::span<double>(yRef).subspan(c * n, n));
        }
        bat.applyBatch(std::span<const double>(X),
                       std::span<double>(yBatch), k);
        EXPECT_TRUE(sameBits(yRef, yBatch));
        // The running aggregate -- floating-point energy/latency sums
        // included -- folds in the same (column, block) order.
        expectStatsEqual(ref.totals(), bat.totals());
        EXPECT_GT(bat.totals().peeledVectorElements, 0u);
        if (yFirst.empty())
            yFirst = yBatch;
        EXPECT_TRUE(sameBits(yFirst, yBatch));
    }
}

TEST(BatchOperator, FaultyOperatorBatchReplaysStreams)
{
    setLogQuiet(true);
    const Csr m = bandedMatrix(192, 8401);
    const auto n = static_cast<std::size_t>(m.rows());
    FaultCampaign camp;
    camp.seed = 77;
    camp.stuckCellRate = 0.02;
    camp.transientUpsetRate = 0.2;
    camp.saturationRate = 0.2;
    camp.stuckColumnRate = 0.1;
    camp.driftPerRead = 1e-6;

    const unsigned k = 4;
    Rng rng(8402);
    const auto X = panelOf(rng, n, k);

    FaultyAccelOperator ref(m, camp), bat(m, camp);
    // Warm both apply-sequence counters so the batch starts
    // mid-stream (seq and per-block read counts nonzero).
    std::vector<double> warm(n, 0.0);
    ref.apply(std::span<const double>(X).first(n), warm);
    bat.apply(std::span<const double>(X).first(n), warm);

    std::vector<double> yRef(n * k, 0.0), yBatch(n * k, 0.0);
    for (unsigned c = 0; c < k; ++c) {
        ref.apply(std::span<const double>(X).subspan(c * n, n),
                  std::span<double>(yRef).subspan(c * n, n));
    }
    bat.applyBatch(std::span<const double>(X),
                   std::span<double>(yBatch), k);

    // Bitwise, including any saturated (non-finite) conversions.
    EXPECT_TRUE(sameBits(yRef, yBatch));
    EXPECT_EQ(ref.runtimeStats().transientUpsets,
              bat.runtimeStats().transientUpsets);
    EXPECT_EQ(ref.runtimeStats().saturatedConversions,
              bat.runtimeStats().saturatedConversions);
    ASSERT_EQ(ref.blockCount(), bat.blockCount());
    for (std::size_t b = 0; b < ref.blockCount(); ++b)
        EXPECT_EQ(ref.blockReads(b), bat.blockReads(b))
            << "block " << b;
}

TEST(BatchOperator, MidBatchCancellationLeavesOperatorReusable)
{
    setLogQuiet(true);
    const Csr m = bandedMatrix(96, 8501);
    const auto n = static_cast<std::size_t>(m.rows());
    const unsigned k = 3;
    Rng rng(8502);
    const auto X = panelOf(rng, n, k);

    for (const StatsFidelity f : bothFidelities) {
        SCOPED_TRACE(f == StatsFidelity::Sampled ? "sampled" : "full");
        const ClusterConfig cfg = withFidelity(f);
        const auto sizes = ClusterArithmeticOperator::smallSizes();
        ClusterArithmeticOperator ref(m, sizes, cfg), op(m, sizes, cfg);
        std::vector<double> yRef(n * k, 0.0), y(n * k, 0.0);
        for (unsigned c = 0; c < k; ++c) {
            ref.apply(std::span<const double>(X).subspan(c * n, n),
                      std::span<double>(yRef).subspan(c * n, n));
        }

        ExecContext ctx;
        ctx.token().cancel();
        op.setExecContext(&ctx);
        EXPECT_THROW(op.applyBatch(std::span<const double>(X),
                                   std::span<double>(y), k),
                     CancelledError);
        // The abandoned batch never ran its reduction: no partial
        // stats.
        expectStatsEqual(op.totals(), ClusterStats{});

        op.setExecContext(nullptr);
        y.assign(n * k, 0.0);
        op.applyBatch(std::span<const double>(X), std::span<double>(y),
                      k);
        EXPECT_TRUE(sameBits(yRef, y));
        expectStatsEqual(ref.totals(), op.totals());
    }
}

} // namespace
} // namespace msc
