/**
 * @file
 * Preconditioners for the Krylov solvers.
 *
 * The paper runs unpreconditioned CG / BiCG-STAB; production solver
 * stacks almost always precondition, and on the accelerator the
 * preconditioner application is one more local vector kernel on the
 * bank processors (Jacobi) or a short sweep (symmetric
 * Gauss-Seidel). Both are provided so downstream users can reproduce
 * realistic end-to-end solves.
 */

#ifndef MSC_SOLVER_PRECOND_HH
#define MSC_SOLVER_PRECOND_HH

#include <vector>

#include "solver/solver.hh"

namespace msc {

/** Abstract left preconditioner: z = M^-1 r. */
class Preconditioner
{
  public:
    virtual ~Preconditioner() = default;

    virtual void apply(std::span<const double> r,
                       std::span<double> z) const = 0;

    /** Elementwise work per application, for the cost models. */
    virtual double opsPerApply() const = 0;
};

/** Identity (no preconditioning). */
class IdentityPreconditioner : public Preconditioner
{
  public:
    void
    apply(std::span<const double> r,
          std::span<double> z) const override
    {
        std::copy(r.begin(), r.end(), z.begin());
    }

    double opsPerApply() const override { return 0.0; }
};

/** Jacobi: z_i = r_i / a_ii. Fatal on a zero diagonal. */
class JacobiPreconditioner : public Preconditioner
{
  public:
    explicit JacobiPreconditioner(const Csr &m);

    void apply(std::span<const double> r,
               std::span<double> z) const override;

    double
    opsPerApply() const override
    {
        return static_cast<double>(invDiag.size());
    }

  private:
    std::vector<double> invDiag;
};

/**
 * Symmetric Gauss-Seidel: one forward and one backward sweep of
 * (D + L) D^-1 (D + U). Requires a nonzero diagonal; intended for
 * (nearly) symmetric matrices.
 */
class SymmetricGaussSeidelPreconditioner : public Preconditioner
{
  public:
    explicit SymmetricGaussSeidelPreconditioner(const Csr &m);

    void apply(std::span<const double> r,
               std::span<double> z) const override;

    double
    opsPerApply() const override
    {
        return 2.0 * static_cast<double>(mat->nnz());
    }

  private:
    const Csr *mat;
    std::vector<double> diag;
};

/**
 * Incomplete LU factorization with zero fill-in, ILU(0): L and U
 * keep exactly the sparsity pattern of A. The workhorse
 * preconditioner for non-symmetric systems; for SPD inputs it
 * reduces to incomplete Cholesky up to scaling.
 */
class Ilu0Preconditioner : public Preconditioner
{
  public:
    explicit Ilu0Preconditioner(const Csr &m);

    void apply(std::span<const double> r,
               std::span<double> z) const override;

    double
    opsPerApply() const override
    {
        return 2.0 * static_cast<double>(factors.nnz());
    }

    /** The combined LU factor matrix (unit-diagonal L below, U on
     *  and above the diagonal), for inspection in tests. */
    const Csr &combinedFactors() const { return factors; }

  private:
    Csr factors;                 //!< L (strict lower) + U
    std::vector<double> invDiagU; //!< 1 / U(i, i)
};

/**
 * Preconditioned conjugate gradient: a solo runCg() over a CgState
 * carrying @p m, so it honors cfg.exec, statuses and yields exactly
 * like conjugateGradient(). With an IdentityPreconditioner it
 * computes the same x, iterations and relResidual as
 * conjugateGradient(), bit for bit; only the tallies differ (one
 * more dot per iteration for ||r||, and precondApplies counts the
 * preconditioner applications).
 */
SolverResult preconditionedCg(LinearOperator &a,
                              const Preconditioner &m,
                              std::span<const double> b,
                              std::span<double> x,
                              const SolverConfig &cfg = {});

} // namespace msc

#endif // MSC_SOLVER_PRECOND_HH
