/**
 * @file
 * System-level accelerator model (Sections III, VI, VIII).
 *
 * 128 banks, each with a heterogeneous set of clusters (Table I) and
 * a LEON3-class local processor. prepare() runs the blocking
 * preprocessor, places blocks onto the system-wide cluster pools
 * (spilling small blocks into larger free clusters, dissolving true
 * overflow into the local-processor CSR), and estimates per-kernel
 * time and energy. The solver-facing operator computes y = Ax in
 * IEEE double (the cluster model proves bit-level equivalence; see
 * tests/test_cluster.cc), while time and energy come from the
 * calibrated analytic models.
 */

#ifndef MSC_ACCEL_ACCEL_HH
#define MSC_ACCEL_ACCEL_HH

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "accel/estimator.hh"
#include "bank/bank.hh"
#include "sim/spmv_sim.hh"
#include "blocking/blocking.hh"
#include "solver/solver.hh"
#include "sparse/stats.hh"

namespace msc {

struct AcceleratorConfig
{
    unsigned banks = 128;
    unsigned rowsPerBank = 1200; //!< solution-vector section size
    /** (crossbar size, clusters of that size per bank), Table I. */
    std::vector<std::pair<unsigned, unsigned>> clustersPerBank =
        {{512, 2}, {256, 4}, {128, 6}, {64, 8}};
    ClusterConfig cluster;
    BlockingConfig blocking;
    ProcessorModelParams proc;
    MemoryModelParams mem;
    double staticPower = 120.0; //!< watts: eDRAM refresh, ADC
                                //!< static share, clocks, drivers
    /** Blocking efficiency below which the matrix is routed to the
     *  GPU instead (Section VIII-A). */
    double gpuFallbackThreshold = 0.10;
    /** Blocks sampled per size class for cost estimation. */
    unsigned estimateSamplesPerSize = 24;
};

/** Cost of one kernel invocation or one solve on the accelerator. */
struct AccelCost
{
    double time = 0.0;
    double energy = 0.0;
};

/** Everything prepare() learns about a matrix. */
struct PrepareResult
{
    BlockingStats blocking;
    std::size_t placedBlocks = 0;
    std::size_t spilledBlocks = 0;  //!< placed on a larger cluster
    std::size_t dissolvedBlocks = 0;
    std::size_t dissolvedNnz = 0;   //!< overflow sent back to CSR
    bool gpuFallback = false;
    int banksUsed = 0;

    double programTime = 0.0;   //!< seconds, all clusters (parallel)
    double programEnergy = 0.0;
    std::uint64_t cellsWritten = 0;
    double preprocessTime = 0.0; //!< modeled: 4 baseline-MVM equiv.

    double maxClusterLatency = 0.0; //!< slowest cluster chain, s
    AccelCost spmv;  //!< per sparse-MVM estimate
    AccelCost dotOp; //!< per dot product
    AccelCost axpyOp;

    /** Effective unblocked nonzeros after dissolution. */
    std::size_t csrNnz = 0;
};

/** Area breakdown for Section VIII-C. */
struct AreaBreakdown
{
    double crossbarsAndAdcs = 0.0; //!< mm^2, all bit-slice crossbars
    double adcsOnly = 0.0;
    double bankBuffers = 0.0;
    double processors = 0.0;
    double globalMemory = 0.0;

    double
    total() const
    {
        return crossbarsAndAdcs + bankBuffers + processors +
               globalMemory;
    }
};

class Accelerator
{
  public:
    explicit Accelerator(const AcceleratorConfig &config = {});

    const AcceleratorConfig &config() const { return cfg; }

    /**
     * Preprocess, place, and estimate costs for a matrix.
     *
     * @param sampleX  representative input vector for the
     *                 data-dependent early-termination estimate
     *                 (e.g. the solver's b); defaults to ones.
     * @param precomputed  optional blocking plan to adopt (moved
     *                 from) instead of running planBlocks -- the
     *                 packed-artifact warm path. Must be the plan of
     *                 @p matrix under this accelerator's blocking
     *                 configuration; callers gate on
     *                 blockingConfigKey equality.
     */
    PrepareResult prepare(const Csr &matrix,
                          std::span<const double> sampleX = {},
                          BlockPlan *precomputed = nullptr);

    bool prepared() const { return isPrepared; }
    const PrepareResult &info() const { return prep; }

    /** Dimensions of the prepared matrix (0 before prepare()). */
    std::int32_t rows() const { return matRows; }
    std::int32_t cols() const { return matCols; }

    /** Functional y = A x (all placed blocks + CSR leftovers): the
     *  k = 1 panel of spmm(), under its own span and counters. */
    void spmv(std::span<const double> x, std::span<double> y) const;

    /**
     * Functional multi-RHS Y = A X over column-major k-column
     * panels (X: k columns of matCols, Y: k columns of matRows).
     * spmv() and spmm() run one kernel: placed blocks fan out over
     * the thread pool at (placement, column-chunk of up to 4)
     * granularity with private scratch per work item, and the
     * partials fold per column in fixed placement order. Every
     * column is therefore bitwise its own spmv(), for any k and any
     * lane count.
     */
    void spmm(std::span<const double> X, std::span<double> Y,
              unsigned k) const;

    /**
     * Execution context polled per work item inside prepare(),
     * spmv() and spmm() (runtime/exec_context.hh): a cancel or
     * deadline aborts mid-operation with CancelledError instead of
     * finishing the fan-out. Not owned; must outlive the calls it
     * governs, and nullptr (the default) detaches. Operator
     * adapters (ClusterArithmeticOperator, FaultyAccelOperator)
     * forward their own setExecContext() here.
     */
    void setExecContext(const ExecContext *ctx) { exec = ctx; }

    /** Map a finished solver run to accelerator time and energy,
     *  including programming and preprocessing overhead. */
    AccelCost solveCost(const SolverResult &run,
                        bool includeSetup = true) const;

    /** Per-kernel costs (after prepare()). */
    AccelCost spmvCost() const { return prep.spmv; }
    AccelCost dotCost() const { return prep.dotOp; }
    AccelCost axpyCost() const { return prep.axpyOp; }

    /** Total cluster pool capacity per size class. */
    std::vector<std::pair<unsigned, unsigned>> poolCapacity() const;

    /**
     * Cost of reprogramming after a time step in which only
     * @p fractionChanged of the coefficients changed (Section
     * VIII-D: structure preserved, subset of values updated).
     * Write time scales with the changed rows; energy with the
     * changed cells.
     */
    AccelCost reprogramCost(double fractionChanged) const;

    /**
     * Event-driven replay of one sparse MVM (sim/spmv_sim.hh):
     * cluster completions, interrupt servicing, barriers. Validates
     * the closed-form spmvCost() and exposes interrupt backlog.
     */
    SpmvSimResult simulateSpmv() const;

    /** Chip area model (Section VIII-C). */
    AreaBreakdown area() const;

    /**
     * System lifetime in years under the paper's conservative
     * assumption: every array fully rewritten between solves, the
     * system solving back-to-back (Section VIII-E).
     */
    double enduranceYears(double solveTime) const;

  private:
    struct Placement
    {
        std::size_t blockIdx = 0;
        unsigned clusterSize = 0;
        double latency = 0.0; //!< class-average MVM latency, seconds
        BlockCost cost;       //!< filled for sampled blocks only
    };

    AccelCost estimateSpmvCost() const;
    /** The one MVM body behind spmv() (k = 1) and spmm(); @p what
     *  names the entry point in fatal messages. */
    void mvm(std::span<const double> X, std::span<double> Y,
             unsigned k, const char *what) const;

    AcceleratorConfig cfg;
    bool isPrepared = false;
    PrepareResult prep;
    BlockPlan plan;
    Csr effectiveCsr; //!< unblocked + dissolved
    std::vector<Placement> placements;
    std::int32_t matRows = 0;
    std::int32_t matCols = 0;
    /** Per-(placement, column-chunk) partial outputs of the MVM
     *  fan-out, grown on demand. spmv()/spmm() are internally
     *  parallel but each is a single logical operation sharing this
     *  scratch: concurrent calls on one Accelerator are not
     *  supported, and opGuard makes a violation a deterministic
     *  fatal instead of silent corruption. */
    mutable std::vector<std::vector<double>> spmmScratch;
    /** Set while an spmv()/spmm() fan-out is in flight. */
    mutable std::atomic<bool> opGuard{false};
    const ExecContext *exec = nullptr; //!< optional, not owned
};

/**
 * LinearOperator adapter over a prepared Accelerator, so the Krylov
 * solvers (and the service runtime's prepare cache) can drive the
 * functional accelerator directly: apply() -> spmv(), applyBatch()
 * -> spmm() (one kernel, so a batch is bitwise its k sequential
 * applies), and setExecContext() forwards to the accelerator's
 * per-work-item polls. Does not own the accelerator; one logical
 * operation at a time (the accelerator's opGuard enforces it).
 */
class AcceleratorOperator : public LinearOperator
{
  public:
    explicit AcceleratorOperator(Accelerator &a) : acc(&a) {}

    std::int32_t rows() const override { return acc->rows(); }
    std::int32_t cols() const override { return acc->cols(); }

    void
    apply(std::span<const double> x, std::span<double> y) override
    {
        acc->spmv(x, y);
    }

    void
    applyBatch(std::span<const double> X, std::span<double> Y,
               unsigned k) override
    {
        acc->spmm(X, Y, k);
    }

    void
    setExecContext(const ExecContext *ctx) override
    {
        acc->setExecContext(ctx);
    }

  private:
    Accelerator *acc;
};

} // namespace msc

#endif // MSC_ACCEL_ACCEL_HH
