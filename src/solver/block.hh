/**
 * @file
 * Block-Krylov solvers over column-major multi-RHS panels.
 *
 * Scientific workloads routinely solve one system against many right
 * hand sides (load cases, time steps, probing vectors). On the
 * accelerator a block method is the natural fit for the batched SpMM
 * path (Accelerator::spmm, LinearOperator::applyBatch): every
 * iteration issues ONE panel apply, so the crossbar programming,
 * contribution tables, and schedules are amortized over all k
 * columns instead of being re-driven per RHS.
 *
 * blockConjugateGradient implements the classic block CG of O'Leary
 * (1980): the search directions of all k columns share one Krylov
 * space, the step and orthogonalization coefficients become k x k
 * systems, and -- beyond the SpMM amortization -- the shared space
 * typically converges in fewer iterations than k independent CG
 * runs. Rank deficiency of the RHS block (linearly dependent
 * columns) surfaces as SolveStatus::Breakdown, the standard behavior
 * of an undeflated block method; callers fall back to independent
 * solves (ResilientSolver::solveBatch) for such panels.
 *
 * Coalesced INDEPENDENT solves are not a block method: k CG
 * recurrences that share only the panel apply, each bitwise equal to
 * its solo solve, run through runCg() over k CgStates
 * (solver/solver.hh).
 *
 * Determinism contract: all reductions (k x k Gram matrices, the
 * small Gaussian solves, the panel updates) run serially on the
 * solve thread; the only fanned-out work is the operator's own
 * applyBatch, which is bit-deterministic for any lane count. Block
 * trajectories are therefore bit-identical across thread counts.
 */

#ifndef MSC_SOLVER_BLOCK_HH
#define MSC_SOLVER_BLOCK_HH

#include <vector>

#include "solver/solver.hh"

namespace msc {

/** Result of a block (multi-RHS) solve. */
struct BlockSolverResult
{
    bool converged = false; //!< every column met the tolerance
    int iterations = 0;     //!< block iterations (each = one SpMM)
    /** Why the solve ended. Cancelled/DeadlineExceeded results hold
     *  the last completed block iterate in X, never a partial
     *  update. */
    SolveStatus status = SolveStatus::MaxIterations;
    /** ||b_c - A x_c|| / ||b_c|| per column at exit. */
    std::vector<double> relResiduals;
    /** Kernel-call counts for the platform timing models. One
     *  spmmCall covers the whole k-column panel. */
    std::uint64_t spmmCalls = 0;
    std::uint64_t dotCalls = 0;
    std::uint64_t axpyCalls = 0;
    std::uint64_t vectorLength = 0;
    unsigned columns = 0;

    /** Largest per-column relative residual at exit. */
    double
    worstResidual() const
    {
        double worst = 0.0;
        for (double r : relResiduals)
            worst = r > worst ? r : worst;
        return worst;
    }
};

/**
 * Block conjugate gradient for symmetric positive definite A over a
 * column-major k-column panel: solves A X_c = B_c for all c at once.
 *
 * @param B   column-major n x k right-hand-side panel
 * @param X   column-major n x k iterate panel (initial guess in,
 *            solution out)
 * @param ws  optional workspace reusing the panel-sized scratch
 *            across calls (results are identical either way)
 *
 * Exactly-zero columns of B are deflated upfront (their X column is
 * zeroed and reported converged) so they cannot make the block Gram
 * matrices singular; a rank-deficient residual block among the live
 * columns stops with SolveStatus::Breakdown. cfg.exec is polled once
 * per block iteration and forwarded to the operator for
 * per-block-batch polls.
 */
BlockSolverResult blockConjugateGradient(
    LinearOperator &a, std::span<const double> B, std::span<double> X,
    unsigned k, const SolverConfig &cfg = {},
    SolverWorkspace *ws = nullptr);

} // namespace msc

#endif // MSC_SOLVER_BLOCK_HH
