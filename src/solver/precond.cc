#include "solver/precond.hh"

#include <cmath>

#include "util/logging.hh"

namespace msc {

namespace {

std::vector<double>
extractDiagonal(const Csr &m)
{
    if (m.rows() != m.cols())
        fatal("preconditioner: matrix must be square");
    std::vector<double> d(static_cast<std::size_t>(m.rows()), 0.0);
    for (std::int32_t r = 0; r < m.rows(); ++r) {
        const auto cols = m.rowCols(r);
        const auto vals = m.rowVals(r);
        for (std::size_t k = 0; k < cols.size(); ++k) {
            if (cols[k] == r)
                d[static_cast<std::size_t>(r)] = vals[k];
        }
        if (d[static_cast<std::size_t>(r)] == 0.0)
            fatal("preconditioner: zero diagonal at row ", r);
    }
    return d;
}

} // namespace

JacobiPreconditioner::JacobiPreconditioner(const Csr &m)
{
    const auto d = extractDiagonal(m);
    invDiag.resize(d.size());
    for (std::size_t i = 0; i < d.size(); ++i)
        invDiag[i] = 1.0 / d[i];
}

void
JacobiPreconditioner::apply(std::span<const double> r,
                            std::span<double> z) const
{
    if (r.size() != invDiag.size() || z.size() != invDiag.size())
        fatal("JacobiPreconditioner: size mismatch");
    for (std::size_t i = 0; i < r.size(); ++i)
        z[i] = r[i] * invDiag[i];
}

SymmetricGaussSeidelPreconditioner::SymmetricGaussSeidelPreconditioner(
    const Csr &m)
    : mat(&m), diag(extractDiagonal(m))
{
}

void
SymmetricGaussSeidelPreconditioner::apply(std::span<const double> r,
                                          std::span<double> z) const
{
    const std::int32_t n = mat->rows();
    if (r.size() != static_cast<std::size_t>(n) ||
        z.size() != static_cast<std::size_t>(n))
        fatal("SymmetricGaussSeidelPreconditioner: size mismatch");

    // Forward sweep: (D + L) y = r.
    for (std::int32_t i = 0; i < n; ++i) {
        double acc = r[static_cast<std::size_t>(i)];
        const auto cols = mat->rowCols(i);
        const auto vals = mat->rowVals(i);
        for (std::size_t k = 0; k < cols.size(); ++k) {
            if (cols[k] < i)
                acc -= vals[k] *
                       z[static_cast<std::size_t>(cols[k])];
        }
        z[static_cast<std::size_t>(i)] =
            acc / diag[static_cast<std::size_t>(i)];
    }
    // Scale by D: w = D y.
    for (std::int32_t i = 0; i < n; ++i)
        z[static_cast<std::size_t>(i)] *=
            diag[static_cast<std::size_t>(i)];
    // Backward sweep: (D + U) z = w.
    for (std::int32_t i = n; i-- > 0;) {
        double acc = z[static_cast<std::size_t>(i)];
        const auto cols = mat->rowCols(i);
        const auto vals = mat->rowVals(i);
        for (std::size_t k = 0; k < cols.size(); ++k) {
            if (cols[k] > i)
                acc -= vals[k] *
                       z[static_cast<std::size_t>(cols[k])];
        }
        z[static_cast<std::size_t>(i)] =
            acc / diag[static_cast<std::size_t>(i)];
    }
}

Ilu0Preconditioner::Ilu0Preconditioner(const Csr &m)
    : factors(m)
{
    if (m.rows() != m.cols())
        fatal("Ilu0Preconditioner: matrix must be square");
    const std::int32_t n = factors.rows();
    const auto rowPtr = factors.rowPtr();
    const auto colIdx = factors.colIndex();
    auto vals = factors.values();

    // Position of (i, i) per row, and a column->position scatter
    // index reused across rows.
    std::vector<std::int32_t> diagPos(static_cast<std::size_t>(n),
                                      -1);
    std::vector<std::int32_t> scatter(static_cast<std::size_t>(n),
                                      -1);
    for (std::int32_t i = 0; i < n; ++i) {
        for (std::int32_t p = rowPtr[i]; p < rowPtr[i + 1]; ++p) {
            if (colIdx[p] == i)
                diagPos[static_cast<std::size_t>(i)] = p;
        }
        if (diagPos[static_cast<std::size_t>(i)] < 0)
            fatal("Ilu0Preconditioner: missing diagonal at row ", i);
    }

    for (std::int32_t i = 0; i < n; ++i) {
        // Scatter row i's positions.
        for (std::int32_t p = rowPtr[i]; p < rowPtr[i + 1]; ++p)
            scatter[static_cast<std::size_t>(colIdx[p])] = p;

        for (std::int32_t p = rowPtr[i]; p < rowPtr[i + 1]; ++p) {
            const std::int32_t k = colIdx[p];
            if (k >= i)
                break; // columns are sorted; strict lower part done
            const double ukk =
                vals[static_cast<std::size_t>(
                    diagPos[static_cast<std::size_t>(k)])];
            if (ukk == 0.0)
                fatal("Ilu0Preconditioner: zero pivot at row ", k);
            const double lik = vals[static_cast<std::size_t>(p)] /
                               ukk;
            vals[static_cast<std::size_t>(p)] = lik;
            // Update the remainder of row i against row k's upper
            // part, restricted to row i's pattern (zero fill-in).
            for (std::int32_t q =
                     diagPos[static_cast<std::size_t>(k)] + 1;
                 q < rowPtr[k + 1]; ++q) {
                const std::int32_t j = colIdx[q];
                const std::int32_t pos =
                    scatter[static_cast<std::size_t>(j)];
                if (pos >= 0) {
                    vals[static_cast<std::size_t>(pos)] -=
                        lik * vals[static_cast<std::size_t>(q)];
                }
            }
        }

        // Clear the scatter index.
        for (std::int32_t p = rowPtr[i]; p < rowPtr[i + 1]; ++p)
            scatter[static_cast<std::size_t>(colIdx[p])] = -1;
    }

    invDiagU.resize(static_cast<std::size_t>(n));
    for (std::int32_t i = 0; i < n; ++i) {
        const double uii = vals[static_cast<std::size_t>(
            diagPos[static_cast<std::size_t>(i)])];
        if (uii == 0.0)
            fatal("Ilu0Preconditioner: singular U at row ", i);
        invDiagU[static_cast<std::size_t>(i)] = 1.0 / uii;
    }
}

void
Ilu0Preconditioner::apply(std::span<const double> r,
                          std::span<double> z) const
{
    const std::int32_t n = factors.rows();
    if (r.size() != static_cast<std::size_t>(n) ||
        z.size() != static_cast<std::size_t>(n))
        fatal("Ilu0Preconditioner: size mismatch");

    // Forward: L y = r (L has implicit unit diagonal).
    for (std::int32_t i = 0; i < n; ++i) {
        double acc = r[static_cast<std::size_t>(i)];
        const auto cols = factors.rowCols(i);
        const auto vals = factors.rowVals(i);
        for (std::size_t p = 0; p < cols.size(); ++p) {
            if (cols[p] >= i)
                break;
            acc -= vals[p] * z[static_cast<std::size_t>(cols[p])];
        }
        z[static_cast<std::size_t>(i)] = acc;
    }
    // Backward: U z = y.
    for (std::int32_t i = n; i-- > 0;) {
        double acc = z[static_cast<std::size_t>(i)];
        const auto cols = factors.rowCols(i);
        const auto vals = factors.rowVals(i);
        for (std::size_t p = cols.size(); p-- > 0;) {
            if (cols[p] <= i)
                break;
            acc -= vals[p] * z[static_cast<std::size_t>(cols[p])];
        }
        z[static_cast<std::size_t>(i)] =
            acc * invDiagU[static_cast<std::size_t>(i)];
    }
}

SolverResult
preconditionedCg(LinearOperator &a, const Preconditioner &m,
                 std::span<const double> b, std::span<double> x,
                 const SolverConfig &cfg)
{
    CgState state(b, x, cfg, &m);
    return runCg(a, state);
}

} // namespace msc
