/**
 * @file
 * Bit-exactness and behavior tests for the cluster model.
 *
 * The central invariant (Sections III-B, IV): with ideal devices,
 * the cluster's block MVM equals round(sum_j A_ij x_j) with a single
 * rounding of the exact sum, for every rounding mode, schedule
 * policy, and with or without early termination and AN protection.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "cluster/cluster.hh"
#include "util/random.hh"

namespace msc {
namespace {

/** Build a random block of the given size/density/exponent spread. */
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

/** Dense row gather for the exactDot oracle. */
void
oracle(const MatrixBlock &b, const std::vector<double> &x,
       RoundingMode mode, std::vector<double> &out,
       unsigned mantissaBits = 53)
{
    const unsigned n = b.size;
    out.assign(n, 0.0);
    std::vector<std::vector<double>> rowsA(n), rowsX(n);
    for (const auto &t : b.elems) {
        rowsA[static_cast<std::size_t>(t.row)].push_back(t.val);
        rowsX[static_cast<std::size_t>(t.row)].push_back(
            x[static_cast<std::size_t>(t.col)]);
    }
    for (unsigned i = 0; i < n; ++i) {
        if (!rowsA[i].empty()) {
            out[i] = exactDot(rowsA[i].data(), rowsX[i].data(),
                              rowsA[i].size(), mode, mantissaBits);
        }
    }
}

ClusterConfig
smallConfig(unsigned size)
{
    ClusterConfig cfg;
    cfg.size = size;
    return cfg;
}

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

constexpr RoundingMode allModes[] = {
    RoundingMode::TowardNegInf, RoundingMode::TowardPosInf,
    RoundingMode::TowardZero, RoundingMode::NearestEven};

TEST(Cluster, TinyBlockKnownValues)
{
    ClusterConfig cfg = smallConfig(4);
    Cluster cluster(cfg);
    MatrixBlock b;
    b.size = 4;
    b.elems = {{0, 0, 2.0}, {0, 1, -1.0}, {1, 1, 0.5},
               {2, 0, 4.0}, {2, 2, -8.0}, {3, 3, 1.0}};
    cluster.program(b);
    const std::vector<double> x{1.0, 2.0, 3.0, -4.0};
    std::vector<double> y(4);
    cluster.multiply(x, y);
    EXPECT_EQ(y[0], 2.0 * 1 - 1.0 * 2);
    EXPECT_EQ(y[1], 0.5 * 2);
    EXPECT_EQ(y[2], 4.0 * 1 - 8.0 * 3);
    EXPECT_EQ(y[3], 1.0 * -4.0);
}

TEST(Cluster, EmptyRowsYieldZeroAndSettleImmediately)
{
    Cluster cluster(smallConfig(8));
    MatrixBlock b;
    b.size = 8;
    b.elems = {{3, 3, 5.0}};
    cluster.program(b);
    std::vector<double> x(8, 1.0), y(8, -1.0);
    const ClusterStats stats = cluster.multiply(x, y);
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(y[i], i == 3 ? 5.0 : 0.0);
    EXPECT_EQ(stats.emptyColumns, 7u);
}

TEST(Cluster, MatchesExactDotAcrossPolicies)
{
    Rng rng(101);
    for (auto policy : {SchedulePolicy::Vertical,
                        SchedulePolicy::Diagonal,
                        SchedulePolicy::Hybrid}) {
        ClusterConfig cfg = smallConfig(16);
        cfg.schedule = policy;
        Cluster cluster(cfg);
        for (int trial = 0; trial < 8; ++trial) {
            const MatrixBlock b = randomBlock(rng, 16, 0.4, 20);
            cluster.program(b);
            const auto x = randomVector(rng, 16, 20);
            std::vector<double> y(16), ref;
            cluster.multiply(x, y);
            oracle(b, x, cfg.rounding, ref);
            for (unsigned i = 0; i < 16; ++i)
                EXPECT_EQ(y[i], ref[i])
                    << toString(policy) << " row " << i
                    << " trial " << trial;
        }
    }
}

TEST(Cluster, MatchesExactDotAcrossRoundingModes)
{
    Rng rng(103);
    for (auto mode : {RoundingMode::TowardNegInf,
                      RoundingMode::TowardPosInf,
                      RoundingMode::TowardZero,
                      RoundingMode::NearestEven}) {
        ClusterConfig cfg = smallConfig(16);
        cfg.rounding = mode;
        Cluster cluster(cfg);
        for (int trial = 0; trial < 8; ++trial) {
            const MatrixBlock b = randomBlock(rng, 16, 0.5, 30);
            cluster.program(b);
            const auto x = randomVector(rng, 16, 30);
            std::vector<double> y(16), ref;
            cluster.multiply(x, y);
            oracle(b, x, mode, ref);
            for (unsigned i = 0; i < 16; ++i)
                EXPECT_EQ(y[i], ref[i]) << "mode "
                    << static_cast<int>(mode) << " row " << i;
        }
    }
}

TEST(Cluster, MatchesExactDotWithWideExponents)
{
    // Full 64-bit exponent spread in both the block and the vector:
    // the stress case for alignment and early termination.
    Rng rng(107);
    Cluster cluster(smallConfig(16));
    for (int trial = 0; trial < 10; ++trial) {
        const MatrixBlock b = randomBlock(rng, 16, 0.6, 64);
        cluster.program(b);
        const auto x = randomVector(rng, 16, 64);
        std::vector<double> y(16), ref;
        cluster.multiply(x, y);
        oracle(b, x, RoundingMode::TowardNegInf, ref);
        for (unsigned i = 0; i < 16; ++i)
            EXPECT_EQ(y[i], ref[i]) << "row " << i;
    }
}

TEST(Cluster, WideSkewGroupsMatchExactDot)
{
    // A large hybrid skew over full-width operands spreads one
    // group's segment weights past what the kernel folds into a
    // 128-bit partial, so some segments add straight into the
    // accumulator. Columns of different widths share a panel.
    Rng rng(109);
    ClusterConfig cfg = smallConfig(16);
    cfg.hybridSkew = 8;
    Cluster cluster(cfg);
    constexpr unsigned k = 3;
    for (int trial = 0; trial < 10; ++trial) {
        const MatrixBlock b = randomBlock(rng, 16, 0.6, 64);
        cluster.program(b);
        std::vector<double> X;
        for (unsigned c = 0; c < k; ++c) {
            const auto x = randomVector(rng, 16, c == 0 ? 64 : 8 * c);
            X.insert(X.end(), x.begin(), x.end());
        }
        std::vector<double> Y(16 * k), ref;
        cluster.multiply(std::span<const double>(X),
                         std::span<double>(Y), k);
        for (unsigned c = 0; c < k; ++c) {
            const std::vector<double> x(X.begin() + 16 * c,
                                        X.begin() + 16 * (c + 1));
            oracle(b, x, RoundingMode::TowardNegInf, ref);
            for (unsigned i = 0; i < 16; ++i)
                EXPECT_EQ(Y[16 * c + i], ref[i])
                    << "column " << c << " row " << i;
        }
    }
}

TEST(Cluster, EarlyTerminationDoesNotChangeResults)
{
    Rng rng(109);
    ClusterConfig with = smallConfig(16);
    with.earlyTermination = true;
    ClusterConfig without = smallConfig(16);
    without.earlyTermination = false;
    Cluster cWith(with), cWithout(without);
    std::uint64_t convWith = 0, convWithout = 0;
    for (int trial = 0; trial < 10; ++trial) {
        const MatrixBlock b = randomBlock(rng, 16, 0.5, 40);
        cWith.program(b);
        cWithout.program(b);
        const auto x = randomVector(rng, 16, 40);
        std::vector<double> y1(16), y2(16);
        convWith += cWith.multiply(x, y1).adcConversions;
        convWithout += cWithout.multiply(x, y2).adcConversions;
        for (unsigned i = 0; i < 16; ++i)
            EXPECT_EQ(y1[i], y2[i]);
    }
    // Early termination must actually save conversions.
    EXPECT_LT(convWith, convWithout);
}

TEST(Cluster, AnProtectionDoesNotChangeResults)
{
    Rng rng(113);
    ClusterConfig with = smallConfig(16);
    with.anProtect = true;
    ClusterConfig without = smallConfig(16);
    without.anProtect = false;
    Cluster cWith(with), cWithout(without);
    for (int trial = 0; trial < 10; ++trial) {
        const MatrixBlock b = randomBlock(rng, 16, 0.5, 30);
        cWith.program(b);
        cWithout.program(b);
        const auto x = randomVector(rng, 16, 30);
        std::vector<double> y1(16), y2(16);
        cWith.multiply(x, y1);
        cWithout.multiply(x, y2);
        for (unsigned i = 0; i < 16; ++i)
            EXPECT_EQ(y1[i], y2[i]);
    }
}

TEST(Cluster, ProgramInfoIsSane)
{
    Rng rng(127);
    Cluster cluster(smallConfig(32));
    const MatrixBlock b = randomBlock(rng, 32, 0.3, 10);
    const ClusterProgramInfo info = cluster.program(b);
    // 10-bit exponent spread: 53 + <=10 mantissa bits + sign + 9-bit
    // AN code.
    EXPECT_GE(info.matrixSlices, 54u);
    EXPECT_LE(info.matrixSlices, 127u);
    EXPECT_GT(info.cellsWritten, 0u);
    EXPECT_GT(info.programTime, 0.0);
    EXPECT_GT(info.programEnergy, 0.0);
    EXPECT_EQ(info.scale, cluster.programInfo().scale);
}

TEST(Cluster, StatsAccounting)
{
    Rng rng(131);
    Cluster cluster(smallConfig(16));
    const MatrixBlock b = randomBlock(rng, 16, 0.5, 8);
    cluster.program(b);
    const auto x = randomVector(rng, 16, 8, 0.0);
    std::vector<double> y(16);
    const ClusterStats s = cluster.multiply(x, y);
    EXPECT_GT(s.matrixSlices, 0u);
    EXPECT_GT(s.vectorSlices, 0u);
    EXPECT_LE(s.groupsExecuted, s.groupsTotal);
    EXPECT_GT(s.xbarActivations, 0u);
    EXPECT_GT(s.adcConversions, 0u);
    EXPECT_GT(s.energy, 0.0);
    EXPECT_GT(s.latency, 0.0);
    EXPECT_NEAR(s.energy, s.adcEnergy + s.arrayEnergy, 1e-18);
    EXPECT_EQ(s.cycles, s.groupsExecuted * 16 + 12);
}

TEST(Cluster, VectorExponentPeeling)
{
    Cluster cluster(smallConfig(8));
    MatrixBlock b;
    b.size = 8;
    for (std::int32_t i = 0; i < 8; ++i)
        b.elems.push_back({i, i, 1.0});
    cluster.program(b);
    // One vector element 2^100 away: must be peeled, not computed.
    std::vector<double> x(8, 1.0);
    x[5] = 0x1.0p100;
    std::vector<double> y(8);
    std::vector<std::int32_t> peeled;
    const ClusterStats s = cluster.multiply(x, y, &peeled);
    EXPECT_EQ(s.peeledVectorElements, 1u);
    ASSERT_EQ(peeled.size(), 1u);
    EXPECT_EQ(peeled[0], 5);
    // The peeled column's contribution is absent.
    EXPECT_EQ(y[5], 0.0);
    EXPECT_EQ(y[4], 1.0);
}

TEST(Cluster, RejectsMisuse)
{
    Cluster cluster(smallConfig(8));
    std::vector<double> x(8), y(8);
    EXPECT_THROW(cluster.multiply(x, y), FatalError); // unprogrammed

    MatrixBlock tooBig;
    tooBig.size = 16;
    EXPECT_THROW(cluster.program(tooBig), FatalError);

    MatrixBlock outOfRange;
    outOfRange.size = 8;
    outOfRange.elems = {{9, 0, 1.0}};
    EXPECT_THROW(cluster.program(outOfRange), FatalError);

    MatrixBlock wideExp;
    wideExp.size = 8;
    wideExp.elems = {{0, 0, 1.0}, {1, 1, 0x1.0p80}};
    EXPECT_THROW(cluster.program(wideExp), FatalError);

    MatrixBlock ok;
    ok.size = 8;
    ok.elems = {{0, 0, 1.0}};
    cluster.program(ok);
    std::vector<double> xb(4), yb(4);
    EXPECT_THROW(cluster.multiply(xb, yb), FatalError);
}

TEST(Cluster, SchedulePoliciesTradeStepsForActivations)
{
    Rng rng(137);
    const MatrixBlock b = randomBlock(rng, 16, 0.6, 25);
    const auto x = randomVector(rng, 16, 25, 0.0);
    std::vector<double> y(16);

    ClusterStats stats[3];
    SchedulePolicy policies[3] = {SchedulePolicy::Vertical,
                                  SchedulePolicy::Diagonal,
                                  SchedulePolicy::Hybrid};
    for (int p = 0; p < 3; ++p) {
        ClusterConfig cfg = smallConfig(16);
        cfg.schedule = policies[p];
        Cluster cluster(cfg);
        cluster.program(b);
        stats[p] = cluster.multiply(x, y);
    }
    // Diagonal saves activations relative to vertical; hybrid sits
    // between (weak inequalities: early termination is data
    // dependent).
    EXPECT_LE(stats[1].xbarActivations, stats[0].xbarActivations);
    EXPECT_LE(stats[1].xbarActivations, stats[2].xbarActivations);
    EXPECT_LE(stats[0].groupsExecuted, stats[2].groupsExecuted);
    EXPECT_LE(stats[2].groupsExecuted, stats[1].groupsExecuted);
}

TEST(Cluster, BiggerBlocksStillExact)
{
    Rng rng(139);
    Cluster cluster(smallConfig(64));
    const MatrixBlock b = randomBlock(rng, 64, 0.15, 48);
    cluster.program(b);
    const auto x = randomVector(rng, 64, 48);
    std::vector<double> y(64), ref;
    cluster.multiply(x, y);
    oracle(b, x, RoundingMode::TowardNegInf, ref);
    for (unsigned i = 0; i < 64; ++i)
        EXPECT_EQ(y[i], ref[i]) << "row " << i;
}

TEST(Cluster, NegativeHeavyBlocksExact)
{
    // All-negative coefficients stress the bias encoding.
    Rng rng(149);
    Cluster cluster(smallConfig(16));
    MatrixBlock b;
    b.size = 16;
    for (unsigned r = 0; r < 16; ++r) {
        for (unsigned c = 0; c < 16; ++c) {
            if (rng.chance(0.5)) {
                b.elems.push_back(
                    {static_cast<std::int32_t>(r),
                     static_cast<std::int32_t>(c),
                     -std::ldexp(rng.uniform(1.0, 2.0),
                                 static_cast<int>(rng.range(0, 10)))});
            }
        }
    }
    cluster.program(b);
    const auto x = randomVector(rng, 16, 10);
    std::vector<double> y(16), ref;
    cluster.multiply(x, y);
    oracle(b, x, RoundingMode::TowardNegInf, ref);
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(y[i], ref[i]);
}

TEST(Cluster, CancellationHeavyRowsExact)
{
    // Rows designed so large terms cancel: the result's leading one
    // is far below the operands; early termination must not fire
    // prematurely.
    Cluster cluster(smallConfig(4));
    MatrixBlock b;
    b.size = 4;
    b.elems = {{0, 0, 0x1.0p40}, {0, 1, -0x1.0p40}, {0, 2, 1.0},
               {1, 0, 0x1.fffffffffffffp20},
               {1, 1, -0x1.fffffffffffffp20}, {1, 2, 0x1.0p-20}};
    cluster.program(b);
    const std::vector<double> x{1.0, 1.0, 1.0, 0.0};
    std::vector<double> y(4);
    cluster.multiply(x, y);
    EXPECT_EQ(y[0], 1.0);
    EXPECT_EQ(y[1], 0x1.0p-20);
}

TEST(Cluster, ValueKernelWorstCaseWidth)
{
    // The exact-value kernel's accumulator bound: 117-bit aligned
    // operands on both sides (full 53-bit mantissas at both ends of
    // the 64-exponent window) and full 512-term rows put a row sum
    // just under 2^243. Rows: every product positive (the largest
    // sum), random signs and ends, exact cancellation, and a
    // cancellation that leaves one small residue.
    constexpr unsigned n = 512;
    const double lo = 0x1.fffffffffffffp0;
    const double hi = std::ldexp(lo, 64);
    std::vector<double> x(n);
    for (unsigned j = 0; j < n; ++j)
        x[j] = (j % 3 == 0 ? -1.0 : 1.0) * (j % 4 == 0 ? lo : hi);

    Rng rng(3107);
    MatrixBlock b;
    b.size = n;
    unsigned loSeen = 0, hiSeen = 0;
    for (std::int32_t j = 0; j < static_cast<std::int32_t>(n); ++j) {
        const double sx = x[j] < 0 ? -1.0 : 1.0;
        b.elems.push_back({0, j, sx * hi});
        b.elems.push_back({1, j,
                           (rng.chance(0.5) ? -1.0 : 1.0) *
                               (rng.chance(0.5) ? lo : hi)});
        // Products alternate sign within each |x| class (128 lo and
        // 384 hi entries, both even), so the row sums to exactly 0.
        unsigned &seen = j % 4 == 0 ? loSeen : hiSeen;
        const double cancel = (seen++ % 2 == 0 ? 1.0 : -1.0) * sx * hi;
        b.elems.push_back({2, j, cancel});
        b.elems.push_back({3, j, j == 0 ? cancel / hi * lo : cancel});
    }

    for (const RoundingMode mode : allModes) {
        ClusterConfig cfg;
        cfg.size = n;
        cfg.rounding = mode;
        Cluster cluster(cfg);
        cluster.program(b);
        EXPECT_EQ(cluster.programInfo().storedBits, 118u);
        std::vector<double> slow(n), fast(n, -1.0), ref;
        cluster.multiply(x, slow);
        cluster.multiplyValues(x, fast, 1);
        oracle(b, x, mode, ref);
        for (unsigned i = 0; i < n; ++i) {
            EXPECT_TRUE(sameBits(fast[i], slow[i]))
                << "mode " << static_cast<int>(mode) << " row " << i
                << ": " << fast[i] << " vs " << slow[i];
            EXPECT_EQ(fast[i], ref[i]) << "row " << i;
        }
        // Row 0's aligned integer sum (bit 0 weighs 2^-104) is past
        // 2^241: within two bits of the bound.
        EXPECT_GT(fast[0], std::ldexp(1.0, 241 - 104));
        EXPECT_TRUE(sameBits(fast[2], 0.0));
        EXPECT_NE(fast[3], 0.0);
    }
}

TEST(Cluster, ValueKernelExactCancellationIsPositiveZero)
{
    // An exactly cancelling row rounds to +0.0 in every rounding
    // mode and at every precision target, as does an empty row --
    // the same bits the slice walk produces.
    MatrixBlock b;
    b.size = 8;
    b.elems = {{0, 0, 0x1.8p3}, {0, 1, -0x1.8p3},
               {1, 2, 3.0}, {1, 3, -1.5},
               {2, 0, 1.0}, {2, 4, 2.0}, {2, 5, -3.0},
               {4, 0, -0x1.fffffffffffffp60}, {4, 1, 0x1.fffffffffffffp60},
               {4, 6, 0.5}, {4, 7, 0.5}};
    const std::vector<double> x{1.0, 1.0, 2.0, 4.0,
                                1.0, 1.0, 1.0, -1.0};
    for (const RoundingMode mode : allModes) {
        for (const unsigned target : {53u, 24u, 12u}) {
            ClusterConfig cfg = smallConfig(8);
            cfg.rounding = mode;
            cfg.targetMantissaBits = target;
            Cluster cluster(cfg);
            cluster.program(b);
            std::vector<double> slow(8), fast(8, -1.0);
            cluster.multiply(x, slow);
            cluster.multiplyValues(x, fast, 1);
            for (unsigned i = 0; i < 8; ++i) {
                EXPECT_TRUE(sameBits(fast[i], slow[i]))
                    << "mode " << static_cast<int>(mode) << " target "
                    << target << " row " << i;
                EXPECT_TRUE(sameBits(fast[i], 0.0))
                    << "mode " << static_cast<int>(mode) << " target "
                    << target << " row " << i << ": " << fast[i];
            }
        }
    }
}

} // namespace
} // namespace msc
