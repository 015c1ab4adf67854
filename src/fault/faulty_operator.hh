/**
 * @file
 * Fast functional solver operator with value-level fault injection.
 *
 * ClusterArithmeticOperator proves the arithmetic bit-exactly but
 * models no faults; its slice-level path is also far too slow for
 * solver-scale fault campaigns. FaultyAccelOperator keeps the same
 * structure -- blocking
 * preprocessor, one mapped unit per block, exact local-processor CSR
 * for the leftovers -- and injects the *surviving* (post-AN-
 * correction) manifestation of each fault mechanism directly on the
 * block outputs:
 *
 *  - stuck cells  -> static coefficient perturbations, cleared by a
 *                    rewrite with spare-row remapping (reprogram);
 *  - drift        -> relative output error growing with the number
 *                    of MVMs since the last program();
 *  - transients   -> sporadic large output errors, occasionally a
 *                    saturated (non-finite) conversion;
 *  - stuck ADC column  -> one block row pinned at full scale; a
 *                    rewrite cannot fix the converter;
 *  - dead crossbar     -> the whole block contributes nothing.
 *
 * It implements RecoverableOperator, so ResilientSolver can scrub,
 * reprogram, and degrade it mid-solve. All randomness derives from
 * the campaign seed (per-block programming streams + one transient
 * stream per (apply, block)), making campaigns bit-reproducible for
 * any thread count: apply() fans the blocks across the global
 * thread pool and reduces the partial outputs in fixed block order.
 */

#ifndef MSC_FAULT_FAULTY_OPERATOR_HH
#define MSC_FAULT_FAULTY_OPERATOR_HH

#include <cstdint>
#include <vector>

#include "blocking/blocking.hh"
#include "fault/fault.hh"
#include "solver/resilient.hh"

namespace msc {

class FaultyAccelOperator : public RecoverableOperator
{
  public:
    FaultyAccelOperator(const Csr &m, const FaultCampaign &campaign,
                        const BlockingConfig &blocking
                        = defaultBlocking());

    std::int32_t rows() const override { return matRows; }
    std::int32_t cols() const override { return matCols; }
    /** The k = 1 panel apply. */
    void apply(std::span<const double> x,
               std::span<double> y) override;

    /**
     * Batched multi-RHS apply: column c replays the transient stream
     * of apply sequence (entry applySeq + c) and the drift level of
     * read count (entry reads + c), so outputs, fault counters, and
     * block read counts are bitwise identical to k one-column applies
     * in column order -- for any thread count.
     */
    void applyBatch(std::span<const double> X, std::span<double> Y,
                    unsigned k) override;

    /** Polled per block batch inside apply() (see LinearOperator). */
    void
    setExecContext(const ExecContext *ctx) override
    {
        exec = ctx;
    }

    // RecoverableOperator maintenance surface.
    std::size_t blockCount() const override;
    std::vector<std::size_t> scrub() override;
    bool reprogram(std::size_t block) override;
    void degrade(std::size_t block) override;
    bool isDegraded(std::size_t block) const override;

    const BlockPlan &blockPlan() const { return plan; }
    const FaultCampaign &campaign() const { return camp; }
    /** Faults injected at programming time (all blocks). */
    const FaultStats &injected() const { return programStats; }
    /** Run-time (transient) fault counters so far. */
    const FaultStats &runtimeStats() const { return applyStats; }

    // Per-block introspection (tests, benches).
    bool blockDead(std::size_t block) const;
    int blockStuckColumn(std::size_t block) const;
    std::size_t blockStuckCells(std::size_t block) const;
    std::uint64_t blockReads(std::size_t block) const;

    /** Block sizes suited to the small matrices fault campaigns
     *  run on (mirrors ClusterArithmeticOperator::smallSizes). */
    static BlockingConfig
    defaultBlocking()
    {
        BlockingConfig cfg;
        cfg.sizes = {64, 32, 16};
        cfg.densityFactor = 2.0;
        return cfg;
    }

  private:
    /** A surviving stuck-cell error on one mapped coefficient. */
    struct StuckGlitch
    {
        std::size_t elem = 0; //!< index into the block's elems
        double delta = 0.0;   //!< additive coefficient error
    };

    struct BlockState
    {
        bool dead = false;
        bool exact = false;   //!< degraded to the digital CSR path
        int stuckColumn = -1; //!< block row pinned by a bad ADC
        double stuckValue = 0.0;
        std::vector<StuckGlitch> stuck;
        std::vector<std::int8_t> driftDir; //!< per block row, +/-1
        std::uint64_t reads = 0; //!< MVMs since last program()
    };

    /** Per-block partial output panel (block.size x k, column-major)
     *  and per-column fault tallies for one apply; written
     *  concurrently, merged in fixed (column, block) order. */
    struct ApplyScratch
    {
        std::vector<double> yLocal;
        std::vector<FaultStats> colStats;
    };

    void drawProgrammingFaults(std::size_t block);

    /** The one apply body behind apply() and applyBatch();
     *  @p spanName names its trace span. */
    void applyPanel(std::span<const double> X, std::span<double> Y,
                    unsigned k, const char *spanName);

    FaultCampaign camp;
    FaultInjector injector;
    BlockPlan plan;
    std::vector<BlockState> state;
    std::vector<ApplyScratch> scratch;
    FaultStats programStats;
    FaultStats applyStats;
    /** Columns applied so far (a k-column batch counts k):
     *  transient-upset streams derive from (campaign seed, apply
     *  sequence, block), so run-time faults are reproducible for any
     *  thread count. */
    std::uint64_t applySeq = 0;
    std::int32_t matRows = 0;
    std::int32_t matCols = 0;
    const ExecContext *exec = nullptr; //!< optional, not owned
};

} // namespace msc

#endif // MSC_FAULT_FAULTY_OPERATOR_HH
