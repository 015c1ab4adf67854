/**
 * @file
 * Differential checks: Accelerator::spmv vs Csr::spmv under an error
 * budget, plus exact power-of-two scale equivariance.
 *
 * The accelerator's functional model starts each row from its CSR
 * leftovers (local-processor CSR, sequential), accumulates each
 * placed block's products into a per-placement partial in plain
 * double in element order, and adds the partials into y in
 * placement order; Csr::spmv accumulates the whole row sequentially.
 * Both are recursive double summations of the same nnz_i products,
 * only grouped differently. Neither is "the" answer, but both must
 * sit within a few units of sequential summation error of the true
 * row sum, so their difference is bounded by
 *
 *     |y_accel[i] - y_csr[i]| <= c * (nnz_i + 2) * eps * sum_j
 *                                 |a_ij x_j|
 *
 * with a small constant c. Scaling (A, x) by 2^k commutes exactly
 * with every rounding step, so that transform is checked bitwise.
 */

#include <cmath>
#include <memory>
#include <vector>

#include "accel/accel.hh"
#include "check/check.hh"
#include "sparse/gen.hh"

namespace msc::check {

namespace {

/** Iterations sharing one prepared accelerator (prepare() is the
 *  expensive step; the sweep amortizes it across a group). */
constexpr std::uint64_t groupSize = 32;

struct Fixture
{
    Csr mat;
    std::unique_ptr<Accelerator> accel;
    std::uint64_t group = ~std::uint64_t{0};
};

void
iterate(Context &ctx, Fixture &fx)
{
    Rng &rng = ctx.rng();

    if (ctx.iter() / groupSize != fx.group) {
        // First iteration of a group: derive a fresh system from this
        // iteration's seed (deterministic in (run seed, iteration)).
        fx.group = ctx.iter() / groupSize;
        TiledParams p;
        p.rows = static_cast<std::int32_t>(64 + rng.below(97));
        p.tile = static_cast<std::int32_t>(8 + 4 * rng.below(3));
        p.tileDensity = rng.uniform(0.3, 0.7);
        p.scatterPerRow = rng.uniform(0.0, 2.0);
        p.symmetricPattern = rng.chance(0.5);
        // genTiled requires spd => symmetricPattern.
        p.spd = p.symmetricPattern && rng.chance(0.3);
        p.values.tileExpSigma = rng.uniform(0.5, 6.0);
        p.values.elemExpSigma = rng.uniform(0.5, 2.0);
        // Occasional exponent outliers evict elements from blocks
        // into the local-processor CSR, covering the hybrid path.
        p.values.outlierProb = rng.chance(0.5) ? 0.02 : 0.0;
        p.seed = rng.next();
        fx.mat = genTiled(p);
        fx.accel = std::make_unique<Accelerator>();
        fx.accel->prepare(fx.mat);
    }

    const auto n = static_cast<std::size_t>(fx.mat.rows());
    std::vector<double> x(n);
    for (auto &v : x) {
        if (rng.chance(0.1)) {
            v = 0.0;
            continue;
        }
        v = std::ldexp(rng.uniform(1.0, 2.0),
                       static_cast<int>(rng.range(-8, 8))) *
            (rng.chance(0.5) ? -1.0 : 1.0);
    }

    std::vector<double> ya(n), yc(n);
    fx.accel->spmv(x, ya);
    fx.mat.spmv(x, yc);

    constexpr double eps = 0x1.0p-52;
    for (std::size_t i = 0; i < n; ++i) {
        const auto row = static_cast<std::int32_t>(i);
        const auto cols = fx.mat.rowCols(row);
        const auto vals = fx.mat.rowVals(row);
        double absSum = 0.0;
        for (std::size_t k = 0; k < cols.size(); ++k)
            absSum += std::fabs(
                vals[k] * x[static_cast<std::size_t>(cols[k])]);
        const double budget =
            4.0 * (static_cast<double>(cols.size()) + 2.0) * eps *
            absSum;
        if (!ctx.expect(std::fabs(ya[i] - yc[i]) <= budget,
                        "row ", i, ": accel ", ya[i], " vs csr ",
                        yc[i], " exceeds budget ", budget))
            break;
    }

    // Zero in, zero out -- no block may leak a rounding artifact.
    std::vector<double> zero(n, 0.0), yz(n, 1.0);
    fx.accel->spmv(zero, yz);
    for (std::size_t i = 0; i < n; ++i) {
        if (!ctx.expect(yz[i] == 0.0, "spmv(0) row ", i,
                        " is nonzero: ", yz[i]))
            break;
    }

    // Power-of-two scaling of x commutes bitwise with the pipeline:
    // alignment shifts the scale, every rounding keeps its relative
    // position, and the final double combine scales exactly.
    const int k = static_cast<int>(rng.range(-2, 2));
    std::vector<double> xs(n), ys(n);
    for (std::size_t i = 0; i < n; ++i)
        xs[i] = std::ldexp(x[i], k);
    fx.accel->spmv(xs, ys);
    for (std::size_t i = 0; i < n; ++i) {
        if (!ctx.expect(ys[i] == std::ldexp(ya[i], k),
                        "2^", k, " scaling not exact at row ", i,
                        ": ", ys[i], " vs ", std::ldexp(ya[i], k)))
            break;
    }
}

} // namespace

void
addAccelChecks(std::vector<Module> &out)
{
    auto fx = std::make_shared<Fixture>();
    out.push_back({"accel", [fx](Context &ctx) { iterate(ctx, *fx); }});
}

} // namespace msc::check
