#include "solver/block.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"
#include "util/telemetry.hh"

namespace msc {

namespace {

// One tick per block iteration (each covers all k columns) + the
// worst per-column residual as a gauge.
constinit telemetry::Counter
    ctrBlockIterations{"solver.block_iterations"};
constinit telemetry::Gauge gBlockResidual{"solver.block_residual"};

/** Breakdown guard on an elimination pivot (see solver.cc). */
bool
breakdownPivot(double pivot)
{
    return !std::isfinite(pivot) || std::fabs(pivot) < 1e-300;
}

/**
 * Solve S A = RHS for the ka x ka coefficient matrix A by Gaussian
 * elimination with partial pivoting. S and rhs (both row-major) are
 * overwritten; the solution lands in rhs. Returns false when a
 * pivot is breakdown-grade (rank-deficient block).
 */
bool
solveSmall(std::vector<double> &s, std::vector<double> &rhs,
           unsigned ka)
{
    for (unsigned col = 0; col < ka; ++col) {
        unsigned piv = col;
        double best = std::fabs(s[col * ka + col]);
        for (unsigned r = col + 1; r < ka; ++r) {
            const double v = std::fabs(s[r * ka + col]);
            if (v > best) {
                best = v;
                piv = r;
            }
        }
        if (breakdownPivot(s[piv * ka + col]))
            return false;
        if (piv != col) {
            for (unsigned j = 0; j < ka; ++j) {
                std::swap(s[col * ka + j], s[piv * ka + j]);
                std::swap(rhs[col * ka + j], rhs[piv * ka + j]);
            }
        }
        const double d = s[col * ka + col];
        for (unsigned r = col + 1; r < ka; ++r) {
            const double f = s[r * ka + col] / d;
            if (f == 0.0)
                continue;
            for (unsigned j = col; j < ka; ++j)
                s[r * ka + j] -= f * s[col * ka + j];
            for (unsigned j = 0; j < ka; ++j)
                rhs[r * ka + j] -= f * rhs[col * ka + j];
        }
    }
    for (unsigned col = ka; col-- > 0;) {
        const double d = s[col * ka + col];
        for (unsigned j = 0; j < ka; ++j) {
            double sum = rhs[col * ka + j];
            for (unsigned r = col + 1; r < ka; ++r)
                sum -= s[col * ka + r] * rhs[r * ka + j];
            rhs[col * ka + j] = sum / d;
        }
    }
    return true;
}

/** M[i][j] = U_i . V_j over n-length panel columns (row-major M). */
void
gramMatrix(const double *u, const double *v, std::size_t n,
           unsigned ka, std::vector<double> &m)
{
    m.resize(static_cast<std::size_t>(ka) * ka);
    for (unsigned i = 0; i < ka; ++i) {
        for (unsigned j = 0; j < ka; ++j) {
            m[static_cast<std::size_t>(i) * ka + j] =
                dot(std::span<const double>(u + i * n, n),
                    std::span<const double>(v + j * n, n));
        }
    }
}

/** Y_c += sign * sum_j Z_j M[j][c] (column-major panels). */
void
panelMulAdd(double *y, const double *z, const double *m,
            std::size_t n, unsigned ka, double sign)
{
    for (unsigned c = 0; c < ka; ++c) {
        double *yc = y + static_cast<std::size_t>(c) * n;
        for (unsigned j = 0; j < ka; ++j) {
            const double f =
                sign * m[static_cast<std::size_t>(j) * ka + c];
            if (f == 0.0)
                continue;
            const double *zj = z + static_cast<std::size_t>(j) * n;
            for (std::size_t i = 0; i < n; ++i)
                yc[i] += f * zj[i];
        }
    }
}

} // namespace

BlockSolverResult
blockConjugateGradient(LinearOperator &a, std::span<const double> B,
                       std::span<double> X, unsigned k,
                       const SolverConfig &cfg, SolverWorkspace *ws)
{
    if (a.rows() != a.cols())
        fatal("blockCG: operator must be square");
    const auto n = static_cast<std::size_t>(a.rows());
    if (k == 0)
        fatal("blockCG: empty batch");
    if (B.size() != n * k || X.size() != n * k)
        fatal("blockCG: panel size mismatch");

    telemetry::Span span("solver.block_cg");
    BlockSolverResult res;
    res.vectorLength = n;
    res.columns = k;
    res.relResiduals.assign(k, 0.0);

    // Deflate exactly-zero RHS columns upfront: their solution is
    // zero, and keeping them in the block would make every R'R Gram
    // matrix singular.
    std::vector<unsigned> live;
    std::vector<double> bNorm(k, 0.0);
    for (unsigned c = 0; c < k; ++c) {
        bNorm[c] = norm2(B.subspan(c * n, n));
        ++res.dotCalls;
        if (bNorm[c] == 0.0) {
            const auto xc = X.subspan(c * n, n);
            std::fill(xc.begin(), xc.end(), 0.0);
        } else {
            live.push_back(c);
        }
    }
    const auto ka = static_cast<unsigned>(live.size());
    if (ka == 0) {
        res.converged = true;
        res.status = SolveStatus::Converged;
        return res;
    }

    // Panel scratch: the live columns of B and X gathered into
    // contiguous column-major panels (the batched operator contract),
    // plus the block-CG recurrence panels.
    const std::size_t pn = static_cast<std::size_t>(ka) * n;
    SolverWorkspace local;
    SolverWorkspace &wsp = ws ? *ws : local;
    std::vector<double> &bw = wsp.vec(0, pn);
    std::vector<double> &xw = wsp.vec(1, pn);
    std::vector<double> &r = wsp.vec(2, pn);
    std::vector<double> &p = wsp.vec(3, pn);
    std::vector<double> &q = wsp.vec(4, pn);
    std::vector<double> &pNew = wsp.vec(5, pn);
    for (unsigned j = 0; j < ka; ++j) {
        const std::size_t c = live[j];
        std::copy_n(B.data() + c * n, n, bw.data() + j * n);
        std::copy_n(X.data() + c * n, n, xw.data() + j * n);
    }

    // Small (ka x ka) factors of the recurrence; sMat is the
    // scratch solveSmall overwrites.
    std::vector<double> rho, rhoNew, sMat, coef;

    ExecBinding bind(a, cfg.exec);
    SolveStatus stop = SolveStatus::MaxIterations;
    bool interrupted = false;

    // Refresh the per-column residual report from diag(R'R); the
    // off-diagonal entries only feed the recurrence.
    const auto reportResiduals = [&]() {
        double worst = 0.0;
        for (unsigned j = 0; j < ka; ++j) {
            const double rr =
                rho[static_cast<std::size_t>(j) * ka + j];
            const double rel =
                std::sqrt(rr < 0.0 ? 0.0 : rr) / bNorm[live[j]];
            res.relResiduals[live[j]] = rel;
            worst = rel > worst ? rel : worst;
        }
        return worst;
    };

    try {
        execCheckpoint(cfg.exec);
        // R = B - A X (one panel apply), P = R.
        a.applyBatch(xw, r, ka);
        ++res.spmmCalls;
        for (std::size_t i = 0; i < pn; ++i)
            r[i] = bw[i] - r[i];
        p = r;

        gramMatrix(r.data(), r.data(), n, ka, rho);
        res.dotCalls += static_cast<std::uint64_t>(ka) * ka;

        for (int it = 0; it < cfg.maxIterations; ++it) {
            const double worst = reportResiduals();
            if (worst <= cfg.tolerance) {
                res.converged = true;
                break;
            }
            execCheckpoint(cfg.exec);

            a.applyBatch(p, q, ka);
            ++res.spmmCalls;
            gramMatrix(p.data(), q.data(), n, ka, sMat);
            res.dotCalls += static_cast<std::uint64_t>(ka) * ka;

            // alpha = (P'Q)^-1 (R'R)
            coef = rho;
            if (!solveSmall(sMat, coef, ka)) {
                warn("blockCG: singular P'AP block at iteration ",
                     it, "; aborting");
                stop = SolveStatus::Breakdown;
                break;
            }
            // X += P alpha ; R -= Q alpha. X moves only here, after
            // the full coefficient solve, so a cancel landing inside
            // an apply leaves the last completed block iterate.
            panelMulAdd(xw.data(), p.data(), coef.data(), n, ka,
                        1.0);
            panelMulAdd(r.data(), q.data(), coef.data(), n, ka,
                        -1.0);
            res.axpyCalls += 2ull * ka * ka;

            gramMatrix(r.data(), r.data(), n, ka, rhoNew);
            res.dotCalls += static_cast<std::uint64_t>(ka) * ka;

            // beta = (R'R)^-1 (R'R)_new
            sMat = rho;
            coef = rhoNew;
            if (!solveSmall(sMat, coef, ka)) {
                warn("blockCG: singular R'R block at iteration ", it,
                     "; aborting");
                rho = rhoNew;
                ++res.iterations;
                ctrBlockIterations.add();
                stop = SolveStatus::Breakdown;
                break;
            }
            // P = R + P beta.
            pNew = r;
            panelMulAdd(pNew.data(), p.data(), coef.data(), n, ka,
                        1.0);
            res.axpyCalls += static_cast<std::uint64_t>(ka) * ka;
            std::swap(p, pNew);

            rho = rhoNew;
            ++res.iterations;
            ctrBlockIterations.add();
            gBlockResidual.set(reportResiduals());
        }
    } catch (const CancelledError &e) {
        // relResiduals already reflect the last completed iteration;
        // xw holds its iterate (X only moves through the serial
        // panel update above).
        stop = e.status();
        interrupted = true;
    }

    // Scatter the live columns back (deflated columns were zeroed
    // upfront and never touched again).
    for (unsigned j = 0; j < ka; ++j) {
        const std::size_t c = live[j];
        std::copy_n(xw.data() + j * n, n, X.data() + c * n);
    }

    if (interrupted) {
        res.status = stop;
        return res;
    }
    res.converged = res.worstResidual() <= cfg.tolerance;
    res.status =
        res.converged ? SolveStatus::Converged : stop;
    return res;
}

} // namespace msc
