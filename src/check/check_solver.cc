/**
 * @file
 * Metamorphic checks on full solver runs and the SpMV kernels.
 *
 * No oracle knows the "right" iterate sequence of a Krylov solve, but
 * invariant-preserving transforms do pin it down:
 *
 *  - power-of-two scaling: solving (2^k A) x = (2^k b) multiplies
 *    every intermediate by an exact power of two, so CG and GMRES
 *    produce bitwise-identical iterates, iteration counts, and
 *    relative residuals;
 *  - symmetric permutation: P A P^T with P b relabels the unknowns;
 *    the permuted solve must converge to the relabeled solution
 *    (compared through residuals, since accumulation order changes);
 *  - transpose consistency: A.transpose().spmv(w) accumulates the
 *    same products in the same order as A.spmvTranspose(w), hence
 *    bitwise equality; and the bilinear identity w^T(Ax) = (A^T w)^T x
 *    holds within sequential-summation error. A skew-symmetric matrix
 *    additionally satisfies spmvTranspose(x) == -spmv(x) exactly;
 *  - resumable CG: a CG or Jacobi-PCG solve parked at a random
 *    iteration boundary and resumed equals the whole solve bitwise
 *    (x, iterations, residual, every tally), and each column of a
 *    runCg() panel equals its solo conjugateGradient().
 *
 * The resumable-CG checks draw from a fork of the iteration's
 * generator, so the other checks see the inputs they always saw.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "check/check.hh"
#include "runtime/exec_context.hh"
#include "solver/precond.hh"
#include "solver/solver.hh"
#include "sparse/gen.hh"

namespace msc::check {

namespace {

Csr
spdMatrix(Rng &rng, std::int32_t n)
{
    TiledParams p;
    p.rows = n;
    p.tile = 16;
    p.tileDensity = 0.3;
    p.spd = true;
    p.symmetricPattern = true;
    p.diagDominance = 0.05;
    p.seed = rng.next();
    return genTiled(p);
}

Csr
generalMatrix(Rng &rng, std::int32_t n)
{
    TiledParams p;
    p.rows = n;
    p.tile = 16;
    p.tileDensity = 0.3;
    p.scatterPerRow = 1.0;
    p.symmetricPattern = false;
    p.diagDominance = 0.2;
    p.seed = rng.next();
    return genTiled(p);
}

std::vector<double>
randomRhs(Rng &rng, std::size_t n)
{
    std::vector<double> b(n);
    for (auto &v : b)
        v = rng.uniform(-1.0, 1.0);
    return b;
}

/** Csr with every coefficient multiplied by 2^k (exact). */
Csr
scaled(const Csr &a, int k)
{
    Csr s = a;
    for (double &v : s.values())
        v = std::ldexp(v, k);
    return s;
}

double
trueRelResidual(const Csr &a, std::span<const double> b,
                std::span<const double> x)
{
    std::vector<double> ax(b.size());
    a.spmv(x, ax);
    for (std::size_t i = 0; i < b.size(); ++i)
        ax[i] = b[i] - ax[i];
    return norm2(ax) / norm2(b);
}

/** Solving (2^k A) x = (2^k b) is bitwise the same solve. */
void
checkScaling(Context &ctx, bool useGmres)
{
    Rng &rng = ctx.rng();
    const auto n = static_cast<std::int32_t>(32 + rng.below(33));
    const Csr a = useGmres ? generalMatrix(rng, n) : spdMatrix(rng, n);
    const auto b = randomRhs(rng, static_cast<std::size_t>(n));
    const int k = static_cast<int>(rng.range(-8, 8));
    const Csr a2 = scaled(a, k);
    std::vector<double> b2(b.size());
    for (std::size_t i = 0; i < b.size(); ++i)
        b2[i] = std::ldexp(b[i], k);

    SolverConfig cfg;
    cfg.tolerance = 1e-10;
    cfg.maxIterations = 400;
    const int restart = static_cast<int>(10 + rng.below(21));

    CsrOperator op1(a), op2(a2);
    std::vector<double> x1(b.size(), 0.0), x2(b.size(), 0.0);
    SolverResult r1, r2;
    if (useGmres) {
        r1 = gmres(op1, b, x1, cfg, restart);
        r2 = gmres(op2, b2, x2, cfg, restart);
    } else {
        r1 = conjugateGradient(op1, b, x1, cfg);
        r2 = conjugateGradient(op2, b2, x2, cfg);
    }

    const char *name = useGmres ? "gmres" : "cg";
    ctx.expect(r1.iterations == r2.iterations, name, " 2^", k,
               " scaling changed iterations: ", r1.iterations,
               " vs ", r2.iterations);
    ctx.expect(r1.converged == r2.converged, name, " 2^", k,
               " scaling changed convergence");
    ctx.expect(r1.relResidual == r2.relResidual, name, " 2^", k,
               " scaling changed relResidual: ", r1.relResidual,
               " vs ", r2.relResidual);
    for (std::size_t i = 0; i < b.size(); ++i) {
        if (!ctx.expect(x1[i] == x2[i], name, " 2^", k,
                        " scaling not bitwise at ", i, ": ", x1[i],
                        " vs ", x2[i]))
            break;
    }
}

/** P A P^T with P b is the same system with relabeled unknowns. */
void
checkPermutation(Context &ctx)
{
    Rng &rng = ctx.rng();
    const auto n = static_cast<std::int32_t>(32 + rng.below(33));
    const auto un = static_cast<std::size_t>(n);
    const Csr a = spdMatrix(rng, n);

    std::vector<std::int32_t> perm(un);
    for (std::size_t i = 0; i < un; ++i)
        perm[i] = static_cast<std::int32_t>(i);
    for (std::size_t i = un; i-- > 1;) {
        std::swap(perm[i],
                  perm[static_cast<std::size_t>(rng.below(i + 1))]);
    }

    Coo coo;
    coo.rows = coo.cols = n;
    coo.entries.reserve(a.nnz());
    for (std::int32_t r = 0; r < n; ++r) {
        const auto cols = a.rowCols(r);
        const auto vals = a.rowVals(r);
        for (std::size_t k = 0; k < cols.size(); ++k) {
            coo.add(perm[static_cast<std::size_t>(r)],
                    perm[static_cast<std::size_t>(cols[k])], vals[k]);
        }
    }
    const Csr ap = Csr::fromCoo(coo);

    // SpMV level: Ap (P x) must equal P (A x) within row-sum error
    // (the permuted row accumulates the same products in a different
    // order).
    const auto x = randomRhs(rng, un);
    std::vector<double> xp(un);
    for (std::size_t i = 0; i < un; ++i)
        xp[static_cast<std::size_t>(perm[i])] = x[i];
    std::vector<double> y(un), yp(un);
    a.spmv(x, y);
    ap.spmv(xp, yp);
    constexpr double eps = 0x1.0p-52;
    for (std::size_t i = 0; i < un; ++i) {
        const auto r = static_cast<std::int32_t>(i);
        const auto cols = a.rowCols(r);
        const auto vals = a.rowVals(r);
        double absSum = 0.0;
        for (std::size_t k = 0; k < cols.size(); ++k)
            absSum += std::fabs(
                vals[k] * x[static_cast<std::size_t>(cols[k])]);
        const double budget =
            4.0 * (static_cast<double>(cols.size()) + 2.0) * eps *
            absSum;
        const double got = yp[static_cast<std::size_t>(perm[i])];
        if (!ctx.expect(std::fabs(got - y[i]) <= budget,
                        "permuted spmv row ", i, ": ", got, " vs ",
                        y[i], " exceeds budget ", budget))
            break;
    }

    // Solver level: both systems converge, and the permuted solution
    // solves the original system (compared through the true residual;
    // iterate-level comparison would need bitwise-identical dot
    // products, which reordering forfeits).
    const auto b = randomRhs(rng, un);
    std::vector<double> bp(un);
    for (std::size_t i = 0; i < un; ++i)
        bp[static_cast<std::size_t>(perm[i])] = b[i];
    SolverConfig cfg;
    cfg.tolerance = 1e-10;
    cfg.maxIterations = 500;
    CsrOperator op(a), opp(ap);
    std::vector<double> xs(un, 0.0), xps(un, 0.0);
    const SolverResult r1 = conjugateGradient(op, b, xs, cfg);
    const SolverResult r2 = conjugateGradient(opp, bp, xps, cfg);
    ctx.expect(r1.converged, "original CG did not converge");
    ctx.expect(r2.converged, "permuted CG did not converge");
    if (r1.converged && r2.converged) {
        std::vector<double> back(un);
        for (std::size_t i = 0; i < un; ++i)
            back[i] = xps[static_cast<std::size_t>(perm[i])];
        const double res = trueRelResidual(a, b, back);
        ctx.expect(res <= 100.0 * cfg.tolerance,
                   "permuted solution does not solve the original "
                   "system: residual ", res);
    }
}

void
checkTranspose(Context &ctx)
{
    Rng &rng = ctx.rng();
    const auto n = static_cast<std::int32_t>(24 + rng.below(41));
    const auto un = static_cast<std::size_t>(n);
    const Csr a = generalMatrix(rng, n);
    const auto w = randomRhs(rng, un);
    const auto x = randomRhs(rng, un);

    // transpose().spmv and spmvTranspose accumulate the same products
    // in the same (row-major source) order: bitwise equality.
    const Csr at = a.transpose();
    std::vector<double> y1(un), y2(un);
    at.spmv(w, y1);
    a.spmvTranspose(w, y2);
    for (std::size_t i = 0; i < un; ++i) {
        if (!ctx.expect(y1[i] == y2[i],
                        "transpose().spmv vs spmvTranspose differ at ",
                        i, ": ", y1[i], " vs ", y2[i]))
            break;
    }

    // Bilinear identity w^T (A x) == (A^T w)^T x within the
    // sequential-summation error over all products.
    std::vector<double> ax(un);
    a.spmv(x, ax);
    const double lhs = dot(w, ax);
    const double rhs = dot(y2, x);
    double absTotal = 0.0;
    for (std::int32_t r = 0; r < n; ++r) {
        const auto cols = a.rowCols(r);
        const auto vals = a.rowVals(r);
        for (std::size_t k = 0; k < cols.size(); ++k) {
            absTotal += std::fabs(
                vals[k] * w[static_cast<std::size_t>(r)] *
                x[static_cast<std::size_t>(cols[k])]);
        }
    }
    constexpr double eps = 0x1.0p-52;
    const double budget =
        8.0 * (static_cast<double>(a.nnz()) +
               static_cast<double>(un) + 4.0) * eps * absTotal;
    ctx.expect(std::fabs(lhs - rhs) <= budget,
               "bilinear identity violated: ", lhs, " vs ", rhs,
               " exceeds budget ", budget);

    // Skew-symmetric matrix: A^T = -A, term by term, so the transpose
    // product is the exact negation.
    Coo skew;
    skew.rows = skew.cols = n;
    for (std::int32_t i = 0; i < n; ++i) {
        for (int t = 0; t < 3; ++t) {
            const auto j = static_cast<std::int32_t>(rng.below(un));
            if (j == i)
                continue;
            const double v = rng.uniform(-2.0, 2.0);
            skew.add(i, j, v);
            skew.add(j, i, -v);
        }
    }
    const Csr sk = Csr::fromCoo(skew);
    std::vector<double> ys(un), yst(un);
    sk.spmv(x, ys);
    sk.spmvTranspose(x, yst);
    for (std::size_t i = 0; i < un; ++i) {
        if (!ctx.expect(yst[i] == -ys[i],
                        "skew spmvTranspose != -spmv at ", i, ": ",
                        yst[i], " vs ", -ys[i]))
            break;
    }
}

/** Every field of two solves and their iterates, bitwise. */
void
expectSameSolve(Context &ctx, const char *name, const SolverResult &got,
                const SolverResult &want, std::span<const double> x,
                std::span<const double> xRef)
{
    ctx.expect(got.status == want.status, name, ": status ",
               toString(got.status), " vs ", toString(want.status));
    ctx.expect(got.converged == want.converged, name,
               ": convergence differs");
    ctx.expect(got.iterations == want.iterations, name,
               ": iterations ", got.iterations, " vs ",
               want.iterations);
    ctx.expect(bitEqual(got.relResidual, want.relResidual), name,
               ": relResidual ", got.relResidual, " vs ",
               want.relResidual);
    ctx.expect(got.spmvCalls == want.spmvCalls &&
                   got.dotCalls == want.dotCalls &&
                   got.axpyCalls == want.axpyCalls &&
                   got.precondApplies == want.precondApplies,
               name, ": kernel tallies differ");
    for (std::size_t i = 0; i < x.size(); ++i) {
        if (!ctx.expect(bitEqual(x[i], xRef[i]), name,
                        ": x not bitwise at ", i, ": ", x[i], " vs ",
                        xRef[i]))
            break;
    }
}

/** CG (or Jacobi PCG) parked at a random iteration boundary and
 *  resumed is the whole solve. */
void
checkSplitSolve(Context &ctx, Rng &rng, bool jacobi)
{
    const auto n = static_cast<std::int32_t>(32 + rng.below(33));
    const Csr a = spdMatrix(rng, n);
    const auto b = randomRhs(rng, static_cast<std::size_t>(n));
    const JacobiPreconditioner m(a);
    const Preconditioner *pre = jacobi ? &m : nullptr;
    const char *name = jacobi ? "split pcg" : "split cg";

    CsrOperator op(a);
    std::vector<double> xRef(b.size(), 0.0);
    CgState whole(b, xRef, {}, pre);
    const SolverResult ref = runCg(op, whole);

    // Poll j + 2 is the loop head of iteration j (poll 1 is the
    // initial one); at j = iterations the solve ends before it.
    const auto j = static_cast<std::uint64_t>(
        rng.below(static_cast<std::uint64_t>(ref.iterations) + 1));
    ExecContext exec;
    exec.yieldAfterChecks(j + 2);
    SolverConfig cfg;
    cfg.exec = &exec;
    std::vector<double> x(b.size(), 0.0);
    CgState split(b, x, cfg, pre);
    runCg(op, split);
    if (!split.done()) {
        ctx.expect(split.result().iterations == static_cast<int>(j),
                   name, ": parked at ", split.result().iterations,
                   " instead of ", j);
        exec.clearYield();
        runCg(op, split);
    }
    ctx.expect(split.done(), name, ": resumed solve did not finish");
    expectSameSolve(ctx, name, split.result(), ref, x, xRef);
}

/** Each column of a runCg() panel is its solo conjugateGradient(). */
void
checkPanelColumns(Context &ctx, Rng &rng)
{
    const auto n = static_cast<std::int32_t>(32 + rng.below(33));
    const auto un = static_cast<std::size_t>(n);
    const Csr a = spdMatrix(rng, n);
    const auto k = static_cast<unsigned>(2 + rng.below(4));

    std::vector<std::vector<double>> bs, xs;
    std::vector<SolverConfig> cfgs(k);
    for (unsigned c = 0; c < k; ++c) {
        bs.push_back(randomRhs(rng, un));
        xs.emplace_back(un, 0.0);
        // Columns leave the panel at different iterations.
        cfgs[c].tolerance = rng.chance(0.5) ? 1e-10 : 1e-4;
        cfgs[c].maxIterations = static_cast<int>(1 + rng.below(60));
    }
    std::vector<std::unique_ptr<CgState>> states;
    std::vector<CgState *> panel;
    for (unsigned c = 0; c < k; ++c) {
        states.push_back(
            std::make_unique<CgState>(bs[c], xs[c], cfgs[c]));
        panel.push_back(states.back().get());
    }
    CsrOperator op(a);
    runCg(op, panel);

    for (unsigned c = 0; c < k; ++c) {
        std::vector<double> xRef(un, 0.0);
        const SolverResult solo =
            conjugateGradient(op, bs[c], xRef, cfgs[c]);
        expectSameSolve(ctx, "panel column", states[c]->result(),
                        solo, xs[c], xRef);
    }
}

void
iterate(Context &ctx)
{
    Rng fork = ctx.rng();
    fork = Rng(fork.next() ^ 0x63675f7374617465ULL);
    switch (fork.below(3)) {
      case 0:
        checkSplitSolve(ctx, fork, /*jacobi=*/false);
        break;
      case 1:
        checkSplitSolve(ctx, fork, /*jacobi=*/true);
        break;
      default:
        checkPanelColumns(ctx, fork);
        break;
    }

    switch (ctx.rng().below(4)) {
      case 0:
        checkScaling(ctx, /*useGmres=*/false);
        break;
      case 1:
        checkScaling(ctx, /*useGmres=*/true);
        break;
      case 2:
        checkPermutation(ctx);
        break;
      default:
        checkTranspose(ctx);
        break;
    }
}

} // namespace

void
addSolverChecks(std::vector<Module> &out)
{
    out.push_back({"solver", iterate});
}

} // namespace msc::check
