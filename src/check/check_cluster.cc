/**
 * @file
 * Differential checks: Cluster and HwCluster block MVM vs exactDot.
 *
 * The central claim of the pipeline (paper Sections III-B, IV): with
 * ideal devices, a block MVM equals round(sum_j A_ij x_j) with one
 * rounding of the infinitely-precise sum -- for every rounding mode,
 * schedule policy, precision target, and with AN protection, CIC,
 * and early termination toggled freely. exactDot() accumulates in a
 * wide integer through a completely different code path
 * (fp/float64.cc), so it serves as the independent oracle here.
 * Cluster::multiplyValues, the exact-value kernel, is checked in the
 * same corners against both: bitwise against the slice walk, by
 * value against exactDot.
 */

#include <cmath>
#include <vector>

#include "check/check.hh"
#include "cluster/cluster.hh"
#include "cluster/hw_cluster.hh"

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

/** round(sum_j block[i][j] x[j]) per row, via exactDot. */
void
oracle(const MatrixBlock &b, const std::vector<double> &x,
       RoundingMode mode, unsigned mantissaBits,
       std::vector<double> &out)
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
iterate(Context &ctx)
{
    Rng &rng = ctx.rng();
    const unsigned size = rng.chance(0.5) ? 8 : 16;
    const double density = rng.uniform(0.15, 0.7);
    const int spread = static_cast<int>(rng.below(61));

    const MatrixBlock b = randomBlock(rng, size, density, spread);
    const auto x = randomVector(rng, size, spread);

    // --- functional cluster across the whole config space --------
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
    cluster.program(b);
    std::vector<double> y(size), ref;
    std::vector<std::int32_t> peeled;
    cluster.multiply(x, y, &peeled);
    ctx.expect(peeled.empty(),
               "unexpected peel with spread ", spread);
    oracle(b, x, cfg.rounding, cfg.targetMantissaBits, ref);
    for (unsigned i = 0; i < size; ++i) {
        ctx.expect(y[i] == ref[i], "cluster row ", i, ": ", y[i],
                   " vs oracle ", ref[i], " (mode ",
                   static_cast<int>(cfg.rounding), ", target ",
                   cfg.targetMantissaBits, ")");
    }
    std::vector<double> yValues(size, -1.0);
    std::vector<std::vector<std::int32_t>> peeledValues;
    cluster.multiplyValues(x, yValues, 1, &peeledValues);
    ctx.expect(peeledValues.size() == 1 && peeledValues[0].empty(),
               "value kernel peeled with spread ", spread);
    for (unsigned i = 0; i < size; ++i) {
        ctx.expect(bitEqual(yValues[i], y[i]) && yValues[i] == ref[i],
                   "cluster values row ", i, ": ", yValues[i],
                   " vs slice walk ", y[i], " vs oracle ", ref[i],
                   " (mode ", static_cast<int>(cfg.rounding),
                   ", target ", cfg.targetMantissaBits, ")");
    }

    // --- hardware-faithful cluster (bit-slice crossbars) ---------
    // Slower than the functional model, so run it on every other
    // iteration and only at size 8.
    if (rng.chance(0.5)) {
        HwCluster::Config hwCfg;
        hwCfg.size = 8;
        hwCfg.rounding = randomRounding(rng);
        hwCfg.anProtect = rng.chance(0.75);
        hwCfg.cic = rng.chance(0.75);
        HwCluster hw(hwCfg);
        const MatrixBlock hb = randomBlock(rng, 8, density, spread);
        const auto hx = randomVector(rng, 8, spread);
        hw.program(hb);
        std::vector<double> hy(8), href;
        const HwClusterStats stats = hw.multiply(hx, hy);
        oracle(hb, hx, hwCfg.rounding, 53, href);
        for (unsigned i = 0; i < 8; ++i) {
            ctx.expect(hy[i] == href[i], "hw row ", i, ": ", hy[i],
                       " vs oracle ", href[i]);
        }
        ctx.expect(stats.correctedWords == 0 &&
                       stats.uncorrectableWords == 0,
                   "clean hardware reported corrections");
        ctx.expect(hw.scrub() == 0,
                   "clean hardware failed the AN scrub");
    }
}

} // namespace

void
addClusterChecks(std::vector<Module> &out)
{
    out.push_back({"cluster", iterate});
}

} // namespace msc::check
