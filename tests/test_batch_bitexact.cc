/**
 * @file
 * Bit-exactness lock for the batched multi-RHS execution path.
 *
 * The contract, at every layer, is column independence: a batched
 * call over a k-column panel is bitwise identical to k one-column
 * calls in column order -- batch(k) == k x batch(1) -- covering
 * outputs, per-column side channels (peeled indices), and
 * statistics, including the floating-point energy accumulations.
 * Cluster, HwCluster and the operator adapters run one kernel body,
 * whose single-RHS entry points are k = 1 panels; their values are
 * pinned to the straight-line references in test_kernel_bitexact.
 * Accelerator::spmm is checked against its separate spmv path. The
 * suites here drive Cluster::multiply(X), HwCluster::multiply(X),
 * Accelerator::spmm, the operator batch applies (including an active
 * FaultCampaign and a mid-batch cancellation), and block-CG
 * trajectory determinism across thread counts.
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
#include "solver/block.hh"
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

/** Accelerator-backed panel operator: apply -> spmv, applyBatch ->
 *  spmm (proven bitwise identical per column above). */
class AccelPanelOperator : public LinearOperator
{
  public:
    explicit AccelPanelOperator(const Csr &m) : mat(&m)
    {
        accel.prepare(m);
    }

    std::int32_t rows() const override { return mat->rows(); }
    std::int32_t cols() const override { return mat->cols(); }

    void
    apply(std::span<const double> x, std::span<double> y) override
    {
        accel.spmv(x, y);
    }

    void
    applyBatch(std::span<const double> X, std::span<double> Y,
               unsigned k) override
    {
        accel.spmm(X, Y, k);
    }

  private:
    Accelerator accel;
    const Csr *mat;
};

TEST(BlockCg, SolvesSpdPanel)
{
    setLogQuiet(true);
    const Csr m = bandedMatrix(480, 8601);
    const auto n = static_cast<std::size_t>(m.rows());
    CsrOperator a(m);
    const unsigned k = 4;
    Rng rng(8602);
    const auto B = panelOf(rng, n, k);
    std::vector<double> X(n * k, 0.0);

    SolverConfig cfg;
    cfg.tolerance = 1e-10;
    cfg.maxIterations = 2000;
    const BlockSolverResult res =
        blockConjugateGradient(a, B, X, k, cfg);
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.status, SolveStatus::Converged);
    EXPECT_EQ(res.columns, k);
    EXPECT_GT(res.spmmCalls, 0u);

    // True residuals, recomputed from scratch.
    std::vector<double> r(n);
    for (unsigned c = 0; c < k; ++c) {
        m.spmv(std::span<const double>(X).subspan(c * n, n), r);
        double num = 0.0, den = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const double d = B[c * n + i] - r[i];
            num += d * d;
            den += B[c * n + i] * B[c * n + i];
        }
        EXPECT_LE(std::sqrt(num / den), 1e-8) << "column " << c;
    }
}

TEST(BlockCg, DeflatesZeroColumns)
{
    setLogQuiet(true);
    const Csr m = bandedMatrix(192, 8701);
    const auto n = static_cast<std::size_t>(m.rows());
    CsrOperator a(m);
    const unsigned k = 3;
    Rng rng(8702);
    auto B = panelOf(rng, n, k);
    // Middle column: zero RHS. Undeflated it would make every R'R
    // singular on the spot.
    std::fill(B.begin() + n, B.begin() + 2 * n, 0.0);
    std::vector<double> X(n * k, 1.0);

    const BlockSolverResult res =
        blockConjugateGradient(a, B, X, k);
    EXPECT_TRUE(res.converged);
    EXPECT_TRUE(sameBits(res.relResiduals[1], 0.0));
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_TRUE(sameBits(X[n + i], 0.0)) << "row " << i;
}

TEST(BlockCg, TrajectoryDeterministicAcrossThreadCounts)
{
    setLogQuiet(true);
    const Csr m = bandedMatrix(960, 8801);
    const auto n = static_cast<std::size_t>(m.rows());
    AccelPanelOperator a(m);
    const unsigned k = 3;
    Rng rng(8802);
    const auto B = panelOf(rng, n, k);

    SolverConfig cfg;
    cfg.tolerance = 1e-12;
    cfg.maxIterations = 40; // fixed budget: compare trajectories

    std::vector<std::vector<double>> xs;
    std::vector<BlockSolverResult> rs;
    for (unsigned threads : {1u, 2u, 8u}) {
        setGlobalThreads(static_cast<int>(threads));
        std::vector<double> X(n * k, 0.0);
        rs.push_back(blockConjugateGradient(a, B, X, k, cfg));
        xs.push_back(std::move(X));
    }
    setGlobalThreads(0);
    for (std::size_t i = 1; i < xs.size(); ++i) {
        EXPECT_TRUE(sameBits(xs[0], xs[i])) << "lane config " << i;
        EXPECT_EQ(rs[0].iterations, rs[i].iterations);
        EXPECT_TRUE(
            sameBits(rs[0].relResiduals, rs[i].relResiduals));
    }
}

TEST(BlockCg, CancellationReturnsLastCompletedIterate)
{
    setLogQuiet(true);
    const Csr m = bandedMatrix(480, 8901);
    const auto n = static_cast<std::size_t>(m.rows());
    CsrOperator a(m);
    const unsigned k = 3;
    Rng rng(8902);
    const auto B = panelOf(rng, n, k);

    // Reference: exactly 5 block iterations.
    SolverConfig five;
    five.tolerance = 1e-30;
    five.maxIterations = 5;
    std::vector<double> x5(n * k, 0.0);
    blockConjugateGradient(a, B, x5, k, five);

    // Cancelled run: polls land at entry (1) then at each iteration
    // top (one per iteration); the 7th poll is iteration 5's, which
    // aborts before that iteration moves X.
    ExecContext ctx;
    ctx.cancelAfterChecks(7);
    SolverConfig cfg;
    cfg.tolerance = 1e-30;
    cfg.maxIterations = 2000;
    cfg.exec = &ctx;
    std::vector<double> xc(n * k, 0.0);
    const BlockSolverResult res =
        blockConjugateGradient(a, B, xc, k, cfg);
    EXPECT_EQ(res.status, SolveStatus::Cancelled);
    EXPECT_FALSE(res.converged);
    EXPECT_TRUE(sameBits(x5, xc));
}

TEST(BatchSolver, ResilientSolveBatchMatchesSequentialSolves)
{
    setLogQuiet(true);
    const Csr m = bandedMatrix(192, 9001);
    const auto n = static_cast<std::size_t>(m.rows());
    FaultCampaign camp;
    camp.seed = 5;
    camp.stuckCellRate = 0.01;
    camp.transientUpsetRate = 0.01;
    const unsigned k = 3;
    Rng rng(9002);
    const auto B = panelOf(rng, n, k);

    SolverConfig cfg;
    cfg.tolerance = 1e-8;
    cfg.maxIterations = 400;

    FaultyAccelOperator opRef(m, camp);
    ResilientSolver ref(opRef, SolverKind::Cg, cfg);
    std::vector<double> xRef(n * k, 0.0);
    std::vector<SolverResult> seq;
    for (unsigned c = 0; c < k; ++c) {
        seq.push_back(ref.solve(
            std::span<const double>(B).subspan(c * n, n),
            std::span<double>(xRef).subspan(c * n, n)));
    }

    FaultyAccelOperator opBat(m, camp);
    ResilientSolver bat(opBat, SolverKind::Cg, cfg);
    std::vector<double> xBat(n * k, 0.0);
    const std::vector<SolverResult> batRes =
        bat.solveBatch(std::span<const double>(B),
                       std::span<double>(xBat), k);

    ASSERT_EQ(batRes.size(), k);
    EXPECT_TRUE(sameBits(xRef, xBat));
    for (unsigned c = 0; c < k; ++c) {
        EXPECT_EQ(seq[c].status, batRes[c].status) << "col " << c;
        EXPECT_EQ(seq[c].iterations, batRes[c].iterations);
        EXPECT_TRUE(
            sameBits(seq[c].relResidual, batRes[c].relResidual));
    }
}

TEST(BatchSolver, ResilientSolveBatchStopsAtColumnBoundary)
{
    setLogQuiet(true);
    const Csr m = bandedMatrix(96, 9101);
    const auto n = static_cast<std::size_t>(m.rows());
    const unsigned k = 3;
    Rng rng(9102);
    const auto B = panelOf(rng, n, k);

    ExecContext ctx;
    ctx.token().cancel();
    SolverConfig cfg;
    cfg.exec = &ctx;
    FaultyAccelOperator op(m, FaultCampaign{});
    ResilientSolver solver(op, SolverKind::Cg, cfg);
    std::vector<double> X(n * k, 0.0);
    const std::vector<SolverResult> res =
        solver.solveBatch(std::span<const double>(B),
                          std::span<double>(X), k);
    ASSERT_EQ(res.size(), k);
    for (unsigned c = 0; c < k; ++c) {
        EXPECT_EQ(res[c].status, SolveStatus::Cancelled)
            << "col " << c;
        EXPECT_FALSE(res[c].converged);
    }
    // The stamped columns were never touched.
    EXPECT_TRUE(sameBits(X, std::vector<double>(n * k, 0.0)));
}

} // namespace
} // namespace msc
