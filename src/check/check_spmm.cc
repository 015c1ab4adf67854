/**
 * @file
 * Differential checks: a batched multi-RHS call vs k independent
 * one-column calls.
 *
 * The batch contract is "amortize the setup, change no bit", i.e.
 * column independence: Cluster::multiply(X) and HwCluster::multiply(X)
 * over k columns must produce outputs, per-column side channels
 * (peeled indices), and statistics bitwise identical to k one-column
 * calls in column order (batch(k) == k x batch(1); the single-RHS
 * overloads are k = 1 panels of the same kernel body), and
 * Accelerator::spmm must equal k spmv calls -- spmv is the k = 1
 * panel of the same chunked kernel, so this pins every chunk width
 * against width one.
 * The one-column results are themselves pinned to exactDot by the
 * cluster/accel modules, so this module only needs the
 * self-differential, swept across schedule x rounding x AN x early-
 * termination corners and random panel widths. The same panels also
 * pin Cluster::multiplyValues (the exact-value kernel) bitwise to
 * the slice-level batch: values and peel lists.
 */

#include <cmath>
#include <memory>
#include <vector>

#include "accel/accel.hh"
#include "check/check.hh"
#include "cluster/cluster.hh"
#include "cluster/hw_cluster.hh"
#include "sparse/gen.hh"

namespace msc::check {

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
            const double v =
                std::ldexp(rng.uniform(1.0, 2.0),
                           static_cast<int>(rng.range(0, expSpread))) *
                (rng.chance(0.5) ? -1.0 : 1.0);
            b.elems.push_back({static_cast<std::int32_t>(r),
                               static_cast<std::int32_t>(c), v});
        }
    }
    return b;
}

std::vector<double>
randomVector(Rng &rng, unsigned size, int expSpread)
{
    std::vector<double> x(size);
    for (auto &v : x) {
        if (rng.chance(0.1)) {
            v = 0.0;
            continue;
        }
        v = std::ldexp(rng.uniform(1.0, 2.0),
                       static_cast<int>(rng.range(0, expSpread))) *
            (rng.chance(0.5) ? -1.0 : 1.0);
    }
    return x;
}

RoundingMode
randomRounding(Rng &rng)
{
    switch (rng.below(4)) {
      case 0:
        return RoundingMode::TowardNegInf;
      case 1:
        return RoundingMode::TowardPosInf;
      case 2:
        return RoundingMode::TowardZero;
      default:
        return RoundingMode::NearestEven;
    }
}

void
expectClusterStatsEqual(Context &ctx, const ClusterStats &a,
                        const ClusterStats &b)
{
    ctx.expect(a.matrixSlices == b.matrixSlices &&
                   a.vectorSlices == b.vectorSlices &&
                   a.groupsTotal == b.groupsTotal &&
                   a.groupsExecuted == b.groupsExecuted &&
                   a.xbarActivations == b.xbarActivations &&
                   a.adcConversions == b.adcConversions &&
                   a.conversionsSkipped == b.conversionsSkipped &&
                   a.columnsEarlyTerminated ==
                       b.columnsEarlyTerminated &&
                   a.emptyColumns == b.emptyColumns &&
                   a.peeledVectorElements == b.peeledVectorElements &&
                   a.cycles == b.cycles,
               "cluster stats counters diverge");
    ctx.expect(bitEqual(a.latency, b.latency) &&
                   bitEqual(a.energy, b.energy) &&
                   bitEqual(a.adcEnergy, b.adcEnergy) &&
                   bitEqual(a.arrayEnergy, b.arrayEnergy),
               "cluster stats energy/latency sums diverge");
}

/** Batched Cluster::multiply vs k singles across config corners. */
void
checkClusterBatch(Context &ctx, Rng &rng)
{
    const unsigned size = rng.chance(0.5) ? 8 : 16;
    const double density = rng.uniform(0.15, 0.7);

    ClusterConfig cfg;
    cfg.size = size;
    cfg.rounding = randomRounding(rng);
    switch (rng.below(3)) {
      case 0:
        cfg.schedule = SchedulePolicy::Vertical;
        break;
      case 1:
        cfg.schedule = SchedulePolicy::Diagonal;
        break;
      default:
        cfg.schedule = SchedulePolicy::Hybrid;
        break;
    }
    cfg.earlyTermination = rng.chance(0.75);
    cfg.anProtect = rng.chance(0.75);
    cfg.cic = rng.chance(0.75);
    cfg.adcHeadstart = rng.chance(0.75);
    static const unsigned targets[] = {53, 53, 53, 44, 24, 12};
    cfg.targetMantissaBits = targets[rng.below(6)];

    Cluster cluster(cfg);
    cluster.program(randomBlock(rng, size, density, 20));

    const unsigned k = 2 + static_cast<unsigned>(rng.below(5));
    std::vector<double> X;
    for (unsigned c = 0; c < k; ++c) {
        // Mixed spreads: distinct vector widths (distinct schedule
        // groups) and the occasional 64-bit-window overflow (peel).
        const int spread =
            rng.chance(0.25) ? 75 : static_cast<int>(rng.below(31));
        const auto xc = randomVector(rng, size, spread);
        X.insert(X.end(), xc.begin(), xc.end());
    }

    std::vector<double> yRef(size * k);
    std::vector<std::vector<std::int32_t>> peelRef(k);
    ClusterStats statsRef;
    for (unsigned c = 0; c < k; ++c) {
        statsRef += cluster.multiply(
            std::span<const double>(X).subspan(c * size, size),
            std::span<double>(yRef).subspan(c * size, size),
            &peelRef[c]);
    }
    std::vector<double> yBatch(size * k, -1.0);
    std::vector<std::vector<std::int32_t>> peelBatch;
    const ClusterStats statsBatch =
        cluster.multiply(std::span<const double>(X),
                         std::span<double>(yBatch), k, &peelBatch);

    for (std::size_t i = 0; i < yRef.size(); ++i) {
        if (!ctx.expect(bitEqual(yRef[i], yBatch[i]),
                        "cluster k=", k, " elem ", i, ": single ",
                        yRef[i], " vs batch ", yBatch[i]))
            break;
    }
    expectClusterStatsEqual(ctx, statsRef, statsBatch);
    ctx.expect(peelBatch.size() == k, "peel column count");
    for (unsigned c = 0; c < k && peelBatch.size() == k; ++c) {
        ctx.expect(peelRef[c] == peelBatch[c],
                   "peel list diverges at column ", c);
    }

    std::vector<double> yValues(size * k, -1.0);
    std::vector<std::vector<std::int32_t>> peelValues;
    cluster.multiplyValues(std::span<const double>(X),
                           std::span<double>(yValues), k,
                           &peelValues);
    for (std::size_t i = 0; i < yRef.size(); ++i) {
        if (!ctx.expect(bitEqual(yBatch[i], yValues[i]),
                        "cluster values k=", k, " elem ", i,
                        ": slice walk ", yBatch[i], " vs values ",
                        yValues[i]))
            break;
    }
    ctx.expect(peelValues == peelBatch,
               "value kernel peel lists diverge");
}

/** Batched HwCluster::multiply vs k singles (AN x CIC corners). */
void
checkHwClusterBatch(Context &ctx, Rng &rng)
{
    HwCluster::Config cfg;
    cfg.size = 8;
    cfg.rounding = randomRounding(rng);
    cfg.anProtect = rng.chance(0.75);
    cfg.cic = rng.chance(0.75);
    HwCluster hw(cfg);
    hw.program(randomBlock(rng, 8, rng.uniform(0.2, 0.7), 12));

    const unsigned k = 2 + static_cast<unsigned>(rng.below(4));
    std::vector<double> X;
    for (unsigned c = 0; c < k; ++c) {
        const auto xc = randomVector(
            rng, 8, 8 + static_cast<int>(rng.below(8)));
        X.insert(X.end(), xc.begin(), xc.end());
    }

    std::vector<double> yRef(8 * k);
    HwClusterStats statsRef;
    for (unsigned c = 0; c < k; ++c) {
        statsRef += hw.multiply(
            std::span<const double>(X).subspan(c * 8, 8),
            std::span<double>(yRef).subspan(c * 8, 8));
    }
    std::vector<double> yBatch(8 * k, -1.0);
    const HwClusterStats statsBatch = hw.multiply(
        std::span<const double>(X), std::span<double>(yBatch), k);

    for (std::size_t i = 0; i < yRef.size(); ++i) {
        if (!ctx.expect(bitEqual(yRef[i], yBatch[i]), "hw k=", k,
                        " elem ", i, ": single ", yRef[i],
                        " vs batch ", yBatch[i]))
            break;
    }
    ctx.expect(statsRef.sliceWords == statsBatch.sliceWords &&
                   statsRef.cleanWords == statsBatch.cleanWords &&
                   statsRef.correctedWords ==
                       statsBatch.correctedWords &&
                   statsRef.uncorrectableWords ==
                       statsBatch.uncorrectableWords &&
                   statsRef.cicInvertedColumns ==
                       statsBatch.cicInvertedColumns,
               "hw stats diverge");
}

/** Iterations sharing one prepared accelerator (prepare() is the
 *  expensive step; the sweep amortizes it across a group). */
constexpr std::uint64_t groupSize = 32;

struct Fixture
{
    Csr mat;
    std::unique_ptr<Accelerator> accel;
    std::uint64_t group = ~std::uint64_t{0};
};

/** Accelerator::spmm vs k spmv calls in column order. */
void
checkAccelSpmm(Context &ctx, Rng &rng, Fixture &fx)
{
    if (ctx.iter() / groupSize != fx.group) {
        fx.group = ctx.iter() / groupSize;
        TiledParams p;
        p.rows = static_cast<std::int32_t>(96 + rng.below(161));
        p.tile = static_cast<std::int32_t>(8 + 4 * rng.below(3));
        p.tileDensity = rng.uniform(0.3, 0.7);
        p.scatterPerRow = rng.uniform(0.0, 2.0);
        p.symmetricPattern = rng.chance(0.5);
        p.spd = p.symmetricPattern && rng.chance(0.3);
        p.values.outlierProb = rng.chance(0.5) ? 0.02 : 0.0;
        p.seed = rng.next();
        fx.mat = genTiled(p);
        fx.accel = std::make_unique<Accelerator>();
        fx.accel->prepare(fx.mat);
    }

    const auto n = static_cast<std::size_t>(fx.mat.rows());
    // k = 1..9 covers every chunk width (1-4), tails behind one
    // full chunk of 4 (k = 5..7) and two full chunks (k = 8, 9).
    const unsigned k = 1 + static_cast<unsigned>(rng.below(9));
    std::vector<double> X(n * k);
    for (auto &v : X) {
        v = rng.chance(0.1)
                ? 0.0
                : std::ldexp(rng.uniform(1.0, 2.0),
                             static_cast<int>(rng.range(-8, 8))) *
                      (rng.chance(0.5) ? -1.0 : 1.0);
    }

    std::vector<double> yRef(n * k), yBatch(n * k, -1.0);
    for (unsigned c = 0; c < k; ++c) {
        fx.accel->spmv(
            std::span<const double>(X).subspan(c * n, n),
            std::span<double>(yRef).subspan(c * n, n));
    }
    fx.accel->spmm(std::span<const double>(X),
                   std::span<double>(yBatch), k);
    for (std::size_t i = 0; i < yRef.size(); ++i) {
        if (!ctx.expect(bitEqual(yRef[i], yBatch[i]), "spmm k=", k,
                        " elem ", i, ": spmv ", yRef[i],
                        " vs spmm ", yBatch[i]))
            break;
    }
}

void
iterate(Context &ctx, Fixture &fx)
{
    Rng &rng = ctx.rng();
    checkClusterBatch(ctx, rng);
    // The bit-slice hardware model is slower: every other iteration.
    if (rng.chance(0.5))
        checkHwClusterBatch(ctx, rng);
    checkAccelSpmm(ctx, rng, fx);
}

} // namespace

void
addSpmmChecks(std::vector<Module> &out)
{
    auto fx = std::make_shared<Fixture>();
    out.push_back({"spmm", [fx](Context &ctx) { iterate(ctx, *fx); }});
}

} // namespace msc::check
