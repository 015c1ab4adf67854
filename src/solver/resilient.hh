/**
 * @file
 * Self-healing solver runtime: detect -> correct -> reprogram ->
 * degrade.
 *
 * The plain Krylov solvers (solver.hh) assume a faithful operator;
 * on a memristive accelerator the operator itself can fail mid-solve
 * (stuck cells, ADC upsets, drift, dead crossbars -- src/fault).
 * ResilientSolver runs any of the mainstream methods in bounded
 * segments, monitors the residual stream between segments, and walks
 * a bounded escalation ladder when something looks wrong:
 *
 *  1. detect   -- NaN/Inf in the residual or iterate, divergence
 *                 (residual blowup vs the best seen), or stagnation
 *                 (no progress over several segments);
 *  2. correct  -- AN-readback scrub of the mapped blocks to locate
 *                 damaged hardware (RecoverableOperator::scrub);
 *  3. reprogram-- rewrite the offending cluster (spare-row remap
 *                 clears stuck cells, a fresh write clears drift);
 *  4. restart  -- restore the iterate from the last good checkpoint
 *                 and rebuild the Krylov space from there, instead
 *                 of from scratch;
 *  5. degrade  -- blocks whose hardware cannot be healed (dead
 *                 crossbars, saturated ADC columns) fall back to the
 *                 exact digital CSR path, permanently.
 *
 * Every action is recorded in RecoveryStats (surfaced through
 * SolverResult), and the whole run is deterministic given the fault
 * campaign seed: two identical configs produce identical stats and
 * iteration counts.
 *
 * Execution robustness (runtime/exec_context.hh): the escalation
 * ladder draws from a bounded RetryBudget (maxRecoveries attempts
 * with seeded exponential backoff, recorded but never slept on);
 * exhausting it degrades every block and stamps the result
 * SolveStatus::Degraded. Transient execution faults -- bad_alloc
 * from the workspace, a worker-task exception surfaced by the pool
 * -- are absorbed as one more ladder rung (checkpoint restore +
 * scrub), while cancellation/deadline stops propagate as structured
 * status and programming errors (PanicError) still escape.
 */

#ifndef MSC_SOLVER_RESILIENT_HH
#define MSC_SOLVER_RESILIENT_HH

#include <vector>

#include "solver/solver.hh"

namespace msc {

/**
 * A block-mapped operator the runtime can health-check and repair.
 * Implemented by FaultyAccelOperator (fault/faulty_operator.hh); any
 * hardware-backed operator with per-block maintenance fits.
 */
class RecoverableOperator : public LinearOperator
{
  public:
    /** Number of independently mapped (repairable) blocks. */
    virtual std::size_t blockCount() const = 0;

    /**
     * AN-readback scrub: scan the mapped blocks for persistent
     * damage and return the suspect block indices (ascending).
     * Transient upsets leave no trace and are not reported.
     */
    virtual std::vector<std::size_t> scrub() = 0;

    /**
     * Rewrite one block's crossbars (clears stuck cells via spare
     * remap, resets drift). Returns false when the fault is in
     * unrepairable periphery (dead crossbar, saturated ADC column).
     */
    virtual bool reprogram(std::size_t block) = 0;

    /** Permanently route one block through the exact CSR path. */
    virtual void degrade(std::size_t block) = 0;

    virtual bool isDegraded(std::size_t block) const = 0;
};

/** Knobs of the escalation ladder. */
struct RecoveryPolicy
{
    /** Iterations per solver segment; the checkpoint cadence. */
    int checkpointInterval = 25;
    /** Total detection events tolerated before the runtime degrades
     *  every remaining block to the exact path. */
    int maxRecoveries = 10;
    /** Rewrites attempted per block before it is degraded. */
    int maxReprogramsPerBlock = 2;
    /** A segment must shrink the residual below this factor or it
     *  counts toward stagnation. */
    double stagnationTol = 0.999;
    /** Consecutive non-improving segments that trigger escalation. */
    int stagnationSegments = 4;
    /** Residual blowup over the best seen that counts as divergence. */
    double divergenceFactor = 1e4;
    /** Background scrub cadence (segments); 0 disables. Dead
     *  hardware that only *silences* contributions may never perturb
     *  the residual stream -- periodic scrubbing catches it. */
    int scrubEverySegments = 8;
    /** Jitter seed of the retry budget (maxRecoveries attempts). */
    std::uint64_t retrySeed = 1;
    /** Exponential backoff base / cap handed to the RetryBudget.
     *  Recorded in RecoveryStats::backoffNanos, never slept on. */
    std::chrono::nanoseconds backoffBase =
        std::chrono::microseconds(100);
    std::chrono::nanoseconds backoffCap =
        std::chrono::milliseconds(100);
};

/**
 * Resilient wrapper around conjugateGradient / biCgStab / gmres.
 * solve() never propagates NaN into the caller's x: on detection the
 * iterate is restored from the last good checkpoint.
 */
class ResilientSolver
{
  public:
    explicit ResilientSolver(RecoverableOperator &op,
                             SolverKind kind = SolverKind::Cg,
                             const SolverConfig &config = {},
                             const RecoveryPolicy &policy = {});

    /** GMRES restart depth when kind == Gmres. */
    int gmresRestart = 30;

    SolverResult solve(std::span<const double> b,
                       std::span<double> x);

  private:
    SolverResult runSegment(std::span<const double> b,
                            std::span<double> x, int iters);

    RecoverableOperator &op;
    SolverKind kind;
    SolverConfig cfg;
    RecoveryPolicy policy;
    /** Scratch vectors shared by every segment of a solve: the
     *  segmented loop would otherwise reallocate them per segment. */
    SolverWorkspace workspace;
};

} // namespace msc

#endif // MSC_SOLVER_RESILIENT_HH
