/**
 * @file
 * Hardware-faithful cluster model.
 *
 * Where Cluster (cluster/cluster.hh) computes at element granularity
 * for speed, HwCluster materializes the actual bit-slice crossbars
 * of Figure 3 and executes the hardware dataflow literally:
 *
 *   per vector bit slice k (MSB first):
 *     1. the slice drives the rows of every crossbar;
 *     2. each crossbar's ADC scans its columns (optionally through
 *        the analog device model);
 *     3. the shift-and-add reduction combines the B bit slices into
 *        one fixed-point word per output;
 *     4. the word is de-biased (bias * popcount, Section IV-C);
 *     5. AN-code correction runs on the de-biased word -- after the
 *        reduction, before leading-one detection (Section IV-E);
 *     6. the running sum in the partial result buffer is updated.
 *
 * Because every stored cell physically exists here, faults can be
 * injected (stuck cells, transient flips) and the error-correction
 * path observed end to end. Used by the verification tests and the
 * fault-injection study; the fast functional model remains the
 * vehicle for full-matrix simulation.
 */

#ifndef MSC_CLUSTER_HW_CLUSTER_HH
#define MSC_CLUSTER_HW_CLUSTER_HH

#include <memory>
#include <vector>

#include "ancode/ancode.hh"
#include "cluster/cluster.hh"
#include "device/cell.hh"
#include "xbar/crossbar.hh"

namespace msc {

class FaultInjector;

/** Per-multiply error-handling statistics. */
struct HwClusterStats
{
    std::uint64_t sliceWords = 0;     //!< reduced words produced
    std::uint64_t cleanWords = 0;
    std::uint64_t correctedWords = 0;
    std::uint64_t uncorrectableWords = 0;
    std::uint64_t cicInvertedColumns = 0;
};

/** Field-wise sum; every counter is an order-independent total, so
 *  the batched multiply's aggregate equals folding k one-column
 *  results. */
HwClusterStats &operator+=(HwClusterStats &into,
                           const HwClusterStats &s);

class HwCluster
{
  public:
    struct Config
    {
        unsigned size = 64;
        RoundingMode rounding = RoundingMode::TowardNegInf;
        bool anProtect = true;
        std::uint64_t anConstant = 269;
        bool cic = true;
        CellParams cell;       //!< device model for noisy reads
        bool analogReads = false; //!< route reads through the device
    };

    explicit HwCluster(const Config &config);

    const Config &config() const { return cfg; }
    unsigned matrixSlices() const { return nSlices; }

    /** Map a block onto the crossbars (builds nSlices binary
     *  crossbars of size x size). */
    void program(const MatrixBlock &block);

    /**
     * Force the stored bit of crossbar @p slice at block position
     * (row @p blockRow, col @p blockCol) to @p value: a stuck-at
     * fault. Takes effect until the next program().
     */
    void injectStuckCell(unsigned slice, unsigned blockRow,
                         unsigned blockCol, bool value);

    /** Flip a stored bit (models an RTN/retention upset). */
    void flipCell(unsigned slice, unsigned blockRow,
                  unsigned blockCol);

    /**
     * Kill an entire bit-slice crossbar: every cell reads zero
     * current until the next program() (driver/selector failure).
     */
    void killSlice(unsigned slice);

    /**
     * Register a fault injector whose transient/stuck-column models
     * are applied to every ADC conversion in multiply(). Cleared by
     * passing nullptr; program() keeps the attachment (the faults
     * live in the injector, not the stored data).
     */
    void attachInjector(FaultInjector *inj) { injector = inj; }

    /**
     * AN-code readback scrub (Section IV-E applied to maintenance):
     * reconstruct every stored operand word from the bit-slice
     * crossbars and count the words whose AN residue is nonzero,
     * i.e. cells damaged since programming. Returns 0 when anProtect
     * is off (no redundancy to check against).
     */
    std::size_t scrub() const;

    /** y[i] = round(sum_j block[i][j] * x[j]) via the full hardware
     *  dataflow: the k = 1 panel multiply. */
    HwClusterStats multiply(std::span<const double> x,
                            std::span<double> y, Rng *rng = nullptr);

    /**
     * Batched multi-RHS multiply over a column-major k-column panel.
     * Columns are independent: the result is bitwise identical to k
     * one-column calls in column order, including the analog noise
     * draws taken from @p rng and an attached injector's fault
     * streams. With exact digital reads the flattened column-word
     * matrix is built once and shared across all k columns. Returns
     * the per-column stats folded (operator+=).
     */
    HwClusterStats multiply(std::span<const double> X,
                            std::span<double> Y, unsigned k,
                            Rng *rng = nullptr);

  private:
    /** Signed word / running sum in sign-magnitude form. */
    struct SignedWord
    {
        bool neg = false;
        U256 mag;

        void
        add(bool vNeg, const U256 &v)
        {
            if (vNeg == neg) {
                mag += v;
            } else if (mag >= v) {
                mag -= v;
            } else {
                mag = v - mag;
                neg = vNeg;
            }
            if (mag.isZero())
                neg = false;
        }
    };

    /** Rebuild the flattened (row, slice) column-word matrix and CIC
     *  flags into the scratch members (reads injected cell faults,
     *  so it runs per multiply, not per program). */
    void flattenColumns(unsigned nw);

    /** The one multiply body behind both overloads; @p spanName
     *  names its trace span. */
    HwClusterStats multiplyPanel(std::span<const double> X,
                                 std::span<double> Y, unsigned k,
                                 Rng *rng, const char *spanName);

    Config cfg;
    AnCode an;
    FaultInjector *injector = nullptr;
    bool programmed = false;
    unsigned blockSize = 0;
    unsigned nSlices = 0;
    int blockScale = 0;
    U256 storedBias;
    /** Signed row sums of aligned coefficients. */
    struct RowSum
    {
        bool neg = false;
        U256 mag;
    };
    std::vector<RowSum> rowSumF;
    /** One binary crossbar per operand bit slice. Crossbar rows are
     *  block columns (vector inputs); crossbar columns are block
     *  rows (outputs). */
    std::vector<BinaryCrossbar> slices;

    // Reusable per-call scratch: the flattened column words and CIC
    // flags, per-row stats partials, and per-column running sums.
    std::vector<std::uint64_t> colWordsScratch;
    std::vector<std::uint8_t> colInvScratch;
    std::vector<HwClusterStats> partScratch;
    std::vector<SignedWord> accBatch;
};

} // namespace msc

#endif // MSC_CLUSTER_HW_CLUSTER_HH
