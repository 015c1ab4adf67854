/**
 * @file
 * Krylov subspace solvers (Section II-B, VI).
 *
 * The paper evaluates conjugate gradient (CG) for symmetric positive
 * definite systems and BiCG-STAB for the rest; GMRES(m) is provided
 * as the third mainstream method the paper names. Solvers are
 * written against an abstract operator so the same code runs on the
 * plain CSR matrix, the accelerator functional model, or the noisy
 * device model (Figures 12/13).
 *
 * Kernel-call counts are recorded so the timing models can translate
 * one solve into accelerator and GPU execution time (Section VI-A:
 * sparse MVM, dot product, AXPY).
 *
 * CG exists once: a CgState holds one recurrence and runCg() drives
 * k of them with one operator apply per iteration. A solo solve, a
 * preconditioned solve, a coalesced service panel and a preempted,
 * later resumed solve are all that driver; conjugateGradient() and
 * preconditionedCg() are thin wrappers over it.
 */

#ifndef MSC_SOLVER_SOLVER_HH
#define MSC_SOLVER_SOLVER_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "runtime/exec_context.hh"
#include "sparse/csr.hh"

namespace msc {

/** Abstract y = A x operator. */
class LinearOperator
{
  public:
    virtual ~LinearOperator() = default;

    virtual std::int32_t rows() const = 0;
    virtual std::int32_t cols() const = 0;

    /** y = A x. */
    virtual void apply(std::span<const double> x,
                       std::span<double> y) = 0;

    /**
     * Batched multi-RHS apply over column-major k-column panels:
     * Y column c = A (X column c). The default loops apply() in
     * column order, so every override is behaviorally pinned to
     * that: implementations may share setup across columns but must
     * stay bitwise identical to the k sequential applies.
     */
    virtual void
    applyBatch(std::span<const double> X, std::span<double> Y,
               unsigned k)
    {
        const auto nc = static_cast<std::size_t>(cols());
        const auto nr = static_cast<std::size_t>(rows());
        for (unsigned c = 0; c < k; ++c)
            apply(X.subspan(c * nc, nc), Y.subspan(c * nr, nr));
    }

    /**
     * Adopt an execution context: operators that batch work over
     * blocks (accel/, fault/) poll it per batch so a cancel or
     * deadline lands mid-apply, not only at the next solver
     * iteration. The default is a no-op; @p ctx must outlive the
     * applies it governs (nullptr detaches).
     */
    virtual void setExecContext(const ExecContext *ctx)
    {
        (void)ctx;
    }
};

/** Operator that can also apply its transpose (needed by BiCG). */
class TransposableOperator : public LinearOperator
{
  public:
    /** y = A^T x. */
    virtual void applyTranspose(std::span<const double> x,
                                std::span<double> y) = 0;
};

/** Plain CSR-backed operator (the CPU/GPU reference arithmetic). */
class CsrOperator : public TransposableOperator
{
  public:
    explicit CsrOperator(const Csr &m) : mat(&m) {}

    std::int32_t rows() const override { return mat->rows(); }
    std::int32_t cols() const override { return mat->cols(); }

    void
    apply(std::span<const double> x, std::span<double> y) override
    {
        mat->spmv(x, y);
    }

    void
    applyTranspose(std::span<const double> x,
                   std::span<double> y) override
    {
        mat->spmvTranspose(x, y);
    }

  private:
    const Csr *mat;
};

/**
 * Reusable scratch vectors for the Krylov solvers.
 *
 * Each solver call needs a handful of n-length work vectors. A
 * workspace keeps their capacity alive across calls, so repeated
 * solves on the same system -- the segmented loop in
 * ResilientSolver, parameter sweeps, benches -- stop paying an
 * allocation per segment. vec() hands out a zeroed vector exactly
 * like a freshly constructed one, so results are unchanged.
 */
class SolverWorkspace
{
  public:
    /** Zeroed n-length vector for @p slot (grown on demand). */
    std::vector<double> &
    vec(std::size_t slot, std::size_t n)
    {
        if (const AllocHook hook =
                allocHook.load(std::memory_order_acquire))
            hook(n);
        if (slot >= pool.size())
            pool.resize(slot + 1);
        pool[slot].assign(n, 0.0);
        return pool[slot];
    }

    /**
     * Chaos-harness allocation hook: called with the requested
     * length before every vec() grant and may throw std::bad_alloc
     * to model memory pressure. Process-global; nullptr uninstalls.
     * One relaxed load per grant when unset.
     */
    using AllocHook = void (*)(std::size_t n);
    static void
    setAllocHook(AllocHook hook)
    {
        allocHook.store(hook, std::memory_order_release);
    }

  private:
    /** Deque, not vector: growing it must not move the vectors a
     *  solver already holds references to. */
    std::deque<std::vector<double>> pool;

    static std::atomic<AllocHook> allocHook; //!< defined in solver.cc
};

/** Which Krylov method to run. */
enum class SolverKind
{
    Auto, //!< CG for SPD entries, BiCG-STAB otherwise (the paper)
    Cg,
    BiCgStab,
    Gmres,
};

struct SolverConfig
{
    double tolerance = 1e-10;  //!< relative residual target
    int maxIterations = 5000;
    /**
     * Optional execution context (deadline / cancellation), polled
     * once per iteration and forwarded to the operator for
     * per-block-batch polls. Not owned; must outlive the solve.
     * nullptr (the default) adds no per-iteration cost.
     */
    const ExecContext *exec = nullptr;
};

/**
 * Escalation record of a resilient solve (solver/resilient.hh).
 * Zero-initialized (and meaningless) for plain solver runs.
 */
struct RecoveryStats
{
    // Detection events on the residual stream.
    std::uint64_t nanEvents = 0;        //!< NaN/Inf in residual or x
    std::uint64_t divergenceEvents = 0; //!< residual blowup vs best
    std::uint64_t stagnationEvents = 0; //!< no progress over segments
    // Escalation actions taken.
    std::uint64_t scrubs = 0;             //!< AN-readback scans
    std::uint64_t reprograms = 0;         //!< crossbar rewrites
    std::uint64_t reprogramFailures = 0;  //!< rewrite did not heal
    std::uint64_t checkpointRestarts = 0; //!< x restored to last good
    std::uint64_t fallbacks = 0;          //!< blocks degraded to CSR
    std::uint64_t segments = 0;           //!< solver segments run
    std::uint64_t degradedBlocks = 0;     //!< blocks exact at exit
    // Execution-fault record (retry budget, absorbed failures).
    std::uint64_t retryAttempts = 0; //!< RetryBudget grants consumed
    std::uint64_t backoffNanos = 0;  //!< scheduled backoff, summed
    std::uint64_t allocFailures = 0; //!< bad_alloc absorbed
    std::uint64_t workerFaults = 0;  //!< worker throws absorbed

    std::uint64_t
    events() const
    {
        return nanEvents + divergenceEvents + stagnationEvents;
    }

    std::uint64_t
    actions() const
    {
        return reprograms + checkpointRestarts + fallbacks;
    }
};

struct SolverResult
{
    bool converged = false;
    int iterations = 0;
    /** Why the solve ended. Cancelled/DeadlineExceeded results hold
     *  the last completed iterate in x, never a partial update. */
    SolveStatus status = SolveStatus::MaxIterations;
    double relResidual = 0.0; //!< ||b - Ax|| / ||b|| at exit
    /** Kernel-call counts for the platform timing models. */
    std::uint64_t spmvCalls = 0;
    std::uint64_t dotCalls = 0;
    std::uint64_t axpyCalls = 0;
    std::uint64_t precondApplies = 0;
    std::uint64_t vectorLength = 0;
    /** Fault-recovery record when run under ResilientSolver. */
    RecoveryStats recovery;
};

/**
 * RAII: attach an execution context to an operator for the duration
 * of one solve, so block-batched operators (accel/, fault/) poll it
 * mid-apply, and detach on exit -- the context may not outlive the
 * operator. No virtual call when @p ctx is null. Every solver in
 * solver/ binds through this one class.
 */
class ExecBinding
{
  public:
    ExecBinding(LinearOperator &op, const ExecContext *ctx)
        : a(op), bound(ctx != nullptr)
    {
        if (bound)
            a.setExecContext(ctx);
    }

    ~ExecBinding()
    {
        if (bound)
            a.setExecContext(nullptr);
    }

    ExecBinding(const ExecBinding &) = delete;
    ExecBinding &operator=(const ExecBinding &) = delete;

  private:
    LinearOperator &a;
    bool bound;
};

class Preconditioner; // solver/precond.hh

/**
 * One conjugate-gradient recurrence (paper Section II-B), kept as an
 * object so it can be paused and resumed: the state IS the
 * checkpoint.
 *
 * It holds the iterate x (the caller's storage), the residual r, the
 * search direction p, the scalars r'z and ||b||, the iteration count
 * and the kernel tallies, all ending in result(). Without a
 * preconditioner z is r, and the residual norm is sqrt(r'r) -- plain
 * CG. With one, z = M^-1 r and ||r|| is one more dot per iteration
 * -- PCG. r, p, A p (and z) come from a SolverWorkspace, so repeated
 * solves reuse their storage and the chaos allocation hook sees every
 * grant.
 *
 * runCg() advances states; resuming a parked (Preempted) state is
 * calling runCg() on it again: nothing is copied, and the resumed
 * iterations run the same arithmetic in the same order as an
 * uninterrupted solve, so every bit of the result matches.
 *
 * Not copyable or movable: the workspace vectors it refers to may be
 * its own.
 */
class CgState
{
  public:
    /**
     * Bind a recurrence to A x = b. @p b and @p x (the initial guess,
     * then every iterate) are not owned and must outlive the state,
     * as must @p m and @p ws when given. @p cfg supplies the
     * tolerance, the iteration budget and the optional ExecContext.
     * Without @p ws the state keeps its own workspace.
     */
    CgState(std::span<const double> b, std::span<double> x,
            const SolverConfig &cfg = {},
            const Preconditioner *m = nullptr,
            SolverWorkspace *ws = nullptr);

    CgState(const CgState &) = delete;
    CgState &operator=(const CgState &) = delete;

    /** Terminal: converged, out of budget, broken down, cancelled
     *  or past its deadline. A parked state is not done. */
    bool done() const { return finished; }

    /** The solve so far. Once done() this is the final record; a
     *  parked state reports status Preempted with the iterations
     *  and tallies of the segments run. */
    const SolverResult &result() const { return res; }

  private:
    friend void runCg(LinearOperator &a,
                      std::span<CgState *const> states);

    double residualNorm() const;
    void start();
    bool stopped();
    bool ready(bool mayYield);
    void step();
    void finish(SolveStatus stop);
    void interrupt(SolveStatus stop);

    SolverWorkspace own;
    std::span<const double> b;
    std::span<double> x;
    SolverConfig cfg;
    const Preconditioner *precond;
    std::span<double> r, p, ap, z;
    double rz = 0.0;    //!< r'z (r'r without a preconditioner)
    double rNorm = 0.0; //!< ||r||, kept only with a preconditioner
    double bNorm = 0.0;
    SolverResult res;
    bool started = false;  //!< initial residual computed
    bool finished = false; //!< terminal
    bool live = false;     //!< takes part in the driver's next apply
};

/**
 * The CG driver: advance k >= 1 states over operator @p a, ONE
 * applyBatch per iteration covering every live state. Each state
 * runs exactly the scalar recurrence of a solo solve, and applyBatch
 * is pinned bitwise to k sequential applies, so every state ends
 * with the bits it would have alone. States terminate one by one
 * and leave the panel; a finished state passed in again is skipped.
 *
 * Per state, in this order: a fresh state polls its context and
 * computes r = b - A x; then at every loop head the iteration budget,
 * the convergence test and one context poll decide whether it takes
 * the next apply. A stopped state keeps its last completed iterate.
 *
 * k == 1 (solo) binds the state's ExecContext to the operator, so a
 * stop lands mid-apply, applies straight from the state's vectors,
 * opens the `solver.cg` span, and honors a yield request at the loop
 * head by returning with the state parked (status Preempted). k > 1
 * (a coalesced panel) packs the live columns for each applyBatch,
 * binds no context -- one request's stop must not abort its
 * siblings' apply -- never yields, and opens one
 * `solver.lockstep_cg` span.
 */
void runCg(LinearOperator &a, std::span<CgState *const> states);

/** Solo runCg(): advance @p s alone and return its result. */
inline const SolverResult &
runCg(LinearOperator &a, CgState &s)
{
    CgState *const one[] = {&s};
    runCg(a, one);
    return s.result();
}

/** Conjugate gradient; requires a symmetric positive definite A.
 *  A solo runCg() over a fresh CgState. An optional workspace
 *  reuses the solver's scratch vectors across calls (results are
 *  identical either way). A yield requested on cfg.exec stops the
 *  solve at the next iteration boundary with status Preempted and
 *  the last iterate in x; resuming needs a CgState that outlives
 *  the call. */
SolverResult conjugateGradient(LinearOperator &a,
                               std::span<const double> b,
                               std::span<double> x,
                               const SolverConfig &cfg = {},
                               SolverWorkspace *ws = nullptr);

/** Stabilized bi-conjugate gradient (van der Vorst). */
SolverResult biCgStab(LinearOperator &a, std::span<const double> b,
                      std::span<double> x,
                      const SolverConfig &cfg = {},
                      SolverWorkspace *ws = nullptr);

/** Plain bi-conjugate gradient (needs A^T; Section II-B names it
 *  among the mainstream non-SPD methods). */
SolverResult biCg(TransposableOperator &a, std::span<const double> b,
                  std::span<double> x, const SolverConfig &cfg = {},
                  SolverWorkspace *ws = nullptr);

/** Restarted GMRES(m) with modified Gram-Schmidt. */
SolverResult gmres(LinearOperator &a, std::span<const double> b,
                   std::span<double> x, const SolverConfig &cfg = {},
                   int restart = 30, SolverWorkspace *ws = nullptr);

} // namespace msc

#endif // MSC_SOLVER_SOLVER_HH
