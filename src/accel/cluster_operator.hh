/**
 * @file
 * A solver operator that computes through the functional cluster
 * models: every blocked coefficient goes through alignment, bias
 * encoding, AN coding, bit-sliced evaluation with early termination,
 * and rounding -- exactly what the hardware produces -- while
 * unblockable leftovers run on the (IEEE-754 FPU) local-processor
 * path, as in Section VI-A1.
 *
 * This is the high-fidelity arithmetic mode: plugging it into the
 * Krylov solvers demonstrates the paper's Section VII-C claim that
 * "the solvers running on the proposed accelerator converge in the
 * same number of iterations as they do when running on the GPU."
 *
 * ClusterConfig::statsFidelity picks the kernel. Under Sampled (the
 * default) blocks run Cluster::multiplyValues, one wide-integer dot
 * per row, and every column is charged its block's stats sample;
 * under Full they run the slice-level Cluster::multiply, whose
 * per-column stats follow each vector's own termination trajectory
 * at a cost of ~100x the value kernel. The values are the same bits
 * in both modes.
 */

#ifndef MSC_ACCEL_CLUSTER_OPERATOR_HH
#define MSC_ACCEL_CLUSTER_OPERATOR_HH

#include <memory>
#include <vector>

#include "blocking/blocking.hh"
#include "cluster/cluster.hh"
#include "solver/solver.hh"

namespace msc {

class ClusterArithmeticOperator : public LinearOperator
{
  public:
    /**
     * Block @p m and program one functional cluster per block.
     *
     * @param blocking   preprocessor configuration; sizes must be
     *                   powers of two
     * @param base       cluster configuration template (schedule,
     *                   rounding, AN, ...); the size field is set
     *                   per block
     */
    explicit ClusterArithmeticOperator(
        const Csr &m, const BlockingConfig &blocking = smallSizes(),
        const ClusterConfig &base = ClusterConfig{});

    /**
     * Program from a precomputed plan (a packed artifact's, or a
     * streaming-preprocessor result) instead of running planBlocks.
     * @p precomputed must be the plan of @p m under some blocking
     * configuration -- callers gate on blockingConfigKey equality.
     * A plan whose unblocked CSR is a zero-copy view keeps its
     * backing mapping alive through the caller.
     */
    ClusterArithmeticOperator(const Csr &m, BlockPlan precomputed,
                              const ClusterConfig &base
                              = ClusterConfig{});

    std::int32_t rows() const override { return mat->rows(); }
    std::int32_t cols() const override { return mat->cols(); }

    /** The k = 1 panel apply. */
    void apply(std::span<const double> x,
               std::span<double> y) override;

    /**
     * Batched multi-RHS apply: each block's cluster runs one panel
     * call over all k columns, and the reduction folds per (column,
     * block), so outputs AND the running aggregate stats are bitwise
     * identical to k one-column applies.
     */
    void applyBatch(std::span<const double> X, std::span<double> Y,
                    unsigned k) override;

    /** Polled per block batch inside apply() (see LinearOperator). */
    void
    setExecContext(const ExecContext *ctx) override
    {
        exec = ctx;
    }

    const BlockPlan &blockPlan() const { return plan; }

    /** Aggregate cluster statistics since construction. Under
     *  StatsFidelity::Sampled every column adds its block's sample,
     *  with peeledVectorElements counting the column's real peel. */
    const ClusterStats &totals() const { return aggregate; }

    /** A blocking configuration suited to small test systems. */
    static BlockingConfig
    smallSizes()
    {
        BlockingConfig cfg;
        cfg.sizes = {64, 32, 16};
        cfg.densityFactor = 2.0;
        return cfg;
    }

  private:
    /** Shared ctor body: program one cluster per planned block. */
    void programClusters(const ClusterConfig &base);

    /** The one apply body behind apply() and applyBatch();
     *  @p spanName names its trace span. */
    void applyPanel(std::span<const double> X, std::span<double> Y,
                    unsigned k, const char *spanName);

    /** Per-block partial results, written concurrently by the block
     *  fan-out and reduced into y in fixed block order. */
    struct BlockScratch
    {
        std::vector<double> xLocal; //!< block.size x k panel
        std::vector<double> yLocal; //!< block.size x k panel
        std::vector<std::uint8_t> peeledMask; //!< per block column
        /** Per-column peel lists and (Full fidelity) stats. */
        std::vector<std::vector<std::int32_t>> peeledCols;
        std::vector<ClusterStats> colStats;
    };

    /** Fold one block's result for one RHS column into y and the
     *  aggregate stats. */
    void reduceBlock(const MatrixBlock &block, const ClusterStats &s,
                     const double *yLocal,
                     const std::vector<std::int32_t> &peeled,
                     std::vector<std::uint8_t> &peeledMask,
                     std::span<const double> x, std::span<double> y);

    const Csr *mat;
    BlockPlan plan;
    std::vector<std::unique_ptr<Cluster>> clusters;
    /** Sampled fidelity: per block, the stats of one slice-level
     *  multiply on the all-ones vector (empty under Full). */
    std::vector<ClusterStats> sampledStats;
    ClusterStats aggregate;
    std::vector<BlockScratch> scratch;
    const ExecContext *exec = nullptr; //!< optional, not owned
};

} // namespace msc

#endif // MSC_ACCEL_CLUSTER_OPERATOR_HH
