/**
 * @file
 * Tests for the differential oracle harness itself (src/check): the
 * BigNat oracle must be right before it can judge WideUInt, the
 * harness bookkeeping must count and cap correctly, reports must be
 * byte-stable, and every registered module must run green at a
 * modest iteration count (tools/msc_check scales the same sweep to
 * the 10k-iteration acceptance runs).
 *
 * All suites are prefixed Check so the preset test filters
 * (CMakePresets.json) select this tier by name.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "check/bignum.hh"
#include "check/check.hh"

namespace {

using namespace msc;
using check::BigNat;

// --- the oracle's own arithmetic, judged by __int128 ---------------

TEST(CheckBigNat, MatchesNativeArithmetic)
{
    Rng rng(2001);
    for (int trial = 0; trial < 2000; ++trial) {
        const std::uint64_t a = rng.next() >> (rng.below(64));
        const std::uint64_t b = rng.next() >> (rng.below(64));
        const BigNat ba = BigNat::fromU64(a);
        const BigNat bb = BigNat::fromU64(b);

        EXPECT_EQ(ba.add(bb).word64(0), a + b);
        if (a >= b) {
            EXPECT_EQ(ba.sub(bb).word64(0), a - b);
        }
        const unsigned __int128 prod =
            static_cast<unsigned __int128>(a) * b;
        const BigNat bp = ba.mul(bb);
        EXPECT_EQ(bp.word64(0), static_cast<std::uint64_t>(prod));
        EXPECT_EQ(bp.word64(1),
                  static_cast<std::uint64_t>(prod >> 64));
        if (b != 0) {
            BigNat q, r;
            ba.divmod(bb, q, r);
            EXPECT_EQ(q.word64(0), a / b);
            EXPECT_EQ(r.word64(0), a % b);
        }
        EXPECT_EQ(ba.popcount(),
                  static_cast<unsigned>(__builtin_popcountll(a)));
        EXPECT_EQ(ba.bitLength(),
                  a ? 64u - static_cast<unsigned>(
                                __builtin_clzll(a))
                    : 0u);
        EXPECT_EQ(ba.compare(bb), a < b ? -1 : (a == b ? 0 : 1));
    }
}

TEST(CheckBigNat, ShiftAndTruncateIdentities)
{
    Rng rng(2003);
    for (int trial = 0; trial < 500; ++trial) {
        const std::uint64_t a = rng.next();
        const unsigned s = static_cast<unsigned>(rng.below(200));
        const BigNat ba = BigNat::fromU64(a);
        // shr undoes shl exactly.
        EXPECT_EQ(ba.shl(s).shr(s).compare(ba), 0);
        EXPECT_EQ(ba.shl(s).bitLength(),
                  a ? ba.bitLength() + s : 0u);
        // truncate below the width is identity.
        EXPECT_EQ(ba.truncate(64).word64(0), a);
        EXPECT_EQ(ba.truncate(17).word64(0),
                  a & ((std::uint64_t{1} << 17) - 1));
        // divmod reconstructs: a == q*d + r with r < d.
        const std::uint64_t d = (rng.next() >> 32) | 1;
        BigNat q, r;
        ba.divmod(BigNat::fromU64(d), q, r);
        EXPECT_EQ(q.mul(BigNat::fromU64(d)).add(r).compare(ba), 0);
        EXPECT_LT(r.word64(0), d);
    }
}

TEST(CheckBigNat, MultiWordCarryChains)
{
    // 2^192 - 1 plus one carries through three 64-bit words.
    const std::uint64_t ones[] = {~0ull, ~0ull, ~0ull};
    const BigNat big = BigNat::fromWords(ones, 3);
    const BigNat bump = big.add(BigNat::fromU64(1));
    EXPECT_EQ(bump.bitLength(), 193u);
    EXPECT_EQ(bump.popcount(), 1u);
    EXPECT_EQ(bump.countTrailingZeros(), 192u);
    EXPECT_EQ(bump.sub(BigNat::fromU64(1)).compare(big), 0);
    EXPECT_EQ(bump.toHex(),
              "0x1000000000000000000000000000000000000000000000000");
}

// --- harness bookkeeping -------------------------------------------

TEST(CheckHarness, IterationSeedsDecorrelate)
{
    std::set<std::uint64_t> seen;
    for (const char *mod : {"wideint", "align", "xbar"}) {
        for (std::uint64_t it = 0; it < 100; ++it) {
            seen.insert(check::iterationSeed(1, mod, it));
            seen.insert(check::iterationSeed(2, mod, it));
        }
    }
    EXPECT_EQ(seen.size(), 600u); // no collisions across the lattice
}

TEST(CheckHarness, ExpectCountsAndCapsMessages)
{
    check::ModuleReport rep;
    rep.name = "t";
    check::Context ctx(Rng(1), 7, rep, 2);
    EXPECT_TRUE(ctx.expect(true, "never built"));
    EXPECT_FALSE(ctx.expect(false, "first: ", 42));
    EXPECT_FALSE(ctx.expect(false, "second"));
    EXPECT_FALSE(ctx.expect(false, "third (beyond cap)"));
    EXPECT_EQ(rep.checks, 4u);
    EXPECT_EQ(rep.failures, 3u);
    ASSERT_EQ(rep.messages.size(), 2u); // capped, counting continues
    EXPECT_EQ(rep.messages[0], "iter 7: first: 42");
}

TEST(CheckHarness, ModuleFilterSelectsBySubstring)
{
    check::Options opt;
    opt.iters = 1;
    opt.module = "align";
    const check::Report rep = check::runChecks(opt);
    ASSERT_EQ(rep.modules.size(), 1u);
    EXPECT_EQ(rep.modules[0].name, "align");
    EXPECT_GT(rep.totalChecks, 0u);

    opt.module = "no-such-module";
    const check::Report none = check::runChecks(opt);
    EXPECT_TRUE(none.modules.empty());
    EXPECT_TRUE(none.ok());
    EXPECT_EQ(none.totalChecks, 0u);
}

TEST(CheckHarness, ReportsAreByteStableAcrossRuns)
{
    check::Options opt;
    opt.seed = 42;
    opt.iters = 25;
    opt.module = "wideint";
    const std::string a = check::runChecks(opt).toJson();
    const std::string b = check::runChecks(opt).toJson();
    EXPECT_EQ(a, b);
    // A different seed must actually change the drawn work, which
    // the byte-stable report only reflects through counts; at least
    // confirm the report parses the seed through.
    opt.seed = 43;
    const std::string c = check::runChecks(opt).toJson();
    EXPECT_NE(a, c);
}

TEST(CheckHarness, UlpDistanceIsAMetricOnDoubles)
{
    EXPECT_EQ(check::ulpDistance(1.0, 1.0), 0u);
    EXPECT_EQ(check::ulpDistance(0.0, -0.0), 0u);
    EXPECT_EQ(check::ulpDistance(
                  1.0, std::nextafter(1.0, 2.0)), 1u);
    EXPECT_EQ(check::ulpDistance(
                  1.0, std::nextafter(1.0, 0.0)), 1u);
    EXPECT_EQ(check::ulpDistance(-1.0, -1.0), 0u);
    EXPECT_GT(check::ulpDistance(-1.0, 1.0), 1ull << 60);
    EXPECT_EQ(check::ulpDistance(0.0, 0x1.0p-1074), 1u);
    EXPECT_EQ(check::ulpDistance(-0x1.0p-1074, 0x1.0p-1074), 2u);
}

TEST(CheckHarness, ListsAllLayers)
{
    const auto names = check::moduleNames();
    ASSERT_EQ(names.size(), 9u);
    const std::set<std::string> set(names.begin(), names.end());
    for (const char *expect : {"wideint", "align", "xbar", "cluster",
                               "accel", "spmm", "solver", "binio",
                               "mmio"})
        EXPECT_TRUE(set.count(expect)) << expect;
}

// --- every module runs green at sweep scale ------------------------

void
expectClean(const char *module, std::uint64_t iters)
{
    check::Options opt;
    opt.seed = 20260806;
    opt.iters = iters;
    opt.module = module;
    const check::Report rep = check::runChecks(opt);
    EXPECT_GT(rep.totalChecks, 0u) << module;
    EXPECT_EQ(rep.totalFailures, 0u) << rep.toJson();
}

TEST(CheckModules, WideIntGreen) { expectClean("wideint", 300); }
TEST(CheckModules, AlignGreen) { expectClean("align", 300); }
TEST(CheckModules, XbarGreen) { expectClean("xbar", 150); }
TEST(CheckModules, ClusterGreen) { expectClean("cluster", 40); }
TEST(CheckModules, AccelGreen) { expectClean("accel", 4); }
TEST(CheckModules, SpmmGreen) { expectClean("spmm", 8); }
TEST(CheckModules, SolverGreen) { expectClean("solver", 12); }
TEST(CheckModules, BinioGreen) { expectClean("binio", 40); }
TEST(CheckModules, MmioGreen) { expectClean("mmio", 200); }

} // namespace
