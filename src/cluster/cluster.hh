/**
 * @file
 * Functional + timing/energy model of one cluster (Section III-B).
 *
 * A cluster is a group of up to 127 bit-slice crossbars with a
 * shift-and-add reduction tree that multiplies one fixed-size matrix
 * block by a vector, in IEEE-754-compatible double precision. The
 * model implements, bit-exactly:
 *
 *  - block alignment to fixed point (exponent range locality, IV-A/B)
 *  - per-block bias encoding of negative values (IV-C)
 *  - AN-code protection of stored operands (IV-E)
 *  - static activation scheduling (vertical/diagonal/hybrid, IV-B)
 *  - per-output early termination with carry/borrow barriers (IV-B)
 *  - final conversion to IEEE-754 under four rounding modes (IV-D)
 *
 * With no device noise, multiply() returns exactly
 * round(sum_j A_ij x_j) per block row, with the rounding applied once
 * to the infinitely-precise sum -- verified against exactDot() by the
 * property tests. multiplyValues() computes that same number directly
 * from the aligned operands, without the slice walk or its stats.
 *
 * Termination soundness note: the paper describes carry absorption
 * for non-negative partial products (Figure 5). Because the running
 * sum here is de-biased per incoming group, contributions are
 * signed, so the criterion is generalized symmetrically: the mantissa
 * is settled once the gap between the remaining-contribution bound
 * and the mantissa contains both a 0 (absorbs the single potential
 * carry) and a 1 (absorbs the single potential borrow). With AN
 * protection on, the check runs on the decoded (divided-by-A) sum.
 */

#ifndef MSC_CLUSTER_CLUSTER_HH
#define MSC_CLUSTER_CLUSTER_HH

#include <cstdint>
#include <span>
#include <vector>

#include "ancode/ancode.hh"
#include "cluster/schedule.hh"
#include "fixedpoint/align.hh"
#include "fp/float64.hh"
#include "sparse/csr.hh"
#include "xbar/model.hh"

namespace msc {

/**
 * Where an operator over many clusters gets its ClusterStats. The
 * values are the same bits either way.
 */
enum class StatsFidelity : std::uint8_t
{
    /** Values on the exact-value kernel (Cluster::multiplyValues);
     *  each block's stats are one slice-level multiply on the
     *  all-ones vector, measured once and charged per column. */
    Sampled,
    /** Values and stats from the slice-level kernel, per column. */
    Full,
};

/** Static configuration of a cluster. */
struct ClusterConfig
{
    unsigned size = 512;
    SchedulePolicy schedule = SchedulePolicy::Hybrid;
    unsigned hybridSkew = 2;
    RoundingMode rounding = RoundingMode::TowardNegInf;
    /** Target significand width. 53 = IEEE double; smaller targets
     *  ("architected to arbitrary precision requirements", paper
     *  abstract) terminate earlier and save slices/energy. */
    unsigned targetMantissaBits = 53;
    bool earlyTermination = true;
    bool anProtect = true;
    std::uint64_t anConstant = 269;
    bool cic = true;
    bool adcHeadstart = true;
    /** Read by ClusterArithmeticOperator; a lone Cluster offers
     *  both kernels. */
    StatsFidelity statsFidelity = StatsFidelity::Sampled;
    XbarModelParams xbar;
};

/** A dense sub-block of a sparse matrix, in block-local coordinates. */
struct MatrixBlock
{
    std::int32_t rowOrigin = 0;
    std::int32_t colOrigin = 0;
    unsigned size = 0;
    std::vector<Triplet> elems; //!< local row/col in [0, size)
};

/** Result of programming a block into the cluster. */
struct ClusterProgramInfo
{
    unsigned matrixSlices = 0;  //!< crossbars in use (<= 127)
    unsigned storedBits = 0;    //!< operand width before AN coding
    int scale = 0;              //!< fixed-point scale of the block
    std::uint64_t cellsWritten = 0;
    double programTime = 0.0;   //!< seconds
    double programEnergy = 0.0; //!< joules
    unsigned cicInvertedColumns = 0;
    unsigned cicCornerCases = 0;
    std::size_t droppedElems = 0; //!< exp-range evictions (callers
                                  //!< should have filtered already)
};

/** Per-multiply statistics. */
struct ClusterStats
{
    unsigned matrixSlices = 0;
    unsigned vectorSlices = 0;
    std::uint64_t groupsTotal = 0;
    std::uint64_t groupsExecuted = 0;
    std::uint64_t xbarActivations = 0;
    std::uint64_t adcConversions = 0;
    std::uint64_t conversionsSkipped = 0;
    std::uint64_t columnsEarlyTerminated = 0;
    std::uint64_t emptyColumns = 0;
    std::uint64_t peeledVectorElements = 0;
    std::uint64_t cycles = 0;
    double latency = 0.0;     //!< seconds
    double energy = 0.0;      //!< joules
    double adcEnergy = 0.0;   //!< joules (subset of energy)
    double arrayEnergy = 0.0; //!< joules (subset of energy)
};

/** Field-wise sum; the batched multiply reports the per-column stats
 *  folded in column order through this, so the aggregate is bitwise
 *  what summing k one-column results in the same order yields. */
ClusterStats &operator+=(ClusterStats &into, const ClusterStats &s);

/**
 * Functional cluster. program() maps a block; multiply() performs
 * the block MVM at the (matrix slice x vector slice) group
 * granularity the hardware uses; multiplyValues() returns the same
 * values without stats, and multiply() is its oracle.
 *
 * There is one slice-level kernel body: the k-column panel multiply.
 * Columns are bitwise independent -- multiply(X, Y, k) equals k
 * one-column panels in column order -- and the single-RHS overload is
 * the k = 1 panel, unpacking the peeled-index list.
 */
class Cluster
{
  public:
    explicit Cluster(const ClusterConfig &config);

    const ClusterConfig &config() const { return cfg; }
    const XbarModel &model() const { return xbarModel; }
    bool programmed() const { return isProgrammed; }
    const ClusterProgramInfo &programInfo() const { return progInfo; }

    /**
     * Program a matrix block. The block must fit the cluster size
     * and the 64-exponent alignment range (the blocking preprocessor
     * guarantees both); otherwise fatal.
     */
    ClusterProgramInfo program(const MatrixBlock &block);

    /**
     * y[i] = round(sum_j block[i][j] * x[j]) for every block row i.
     *
     * @param x        local input vector (block size)
     * @param y        output (block size); overwritten
     * @param peeled   optional out: indices of vector elements whose
     *                 exponents fell outside the 64-bit alignment
     *                 window; their column contributions are NOT in y
     *                 and must be handled digitally by the caller.
     *
     * Runs the panel multiply with k = 1.
     */
    ClusterStats multiply(std::span<const double> x,
                          std::span<double> y,
                          std::vector<std::int32_t> *peeled = nullptr);

    /**
     * Batched multi-RHS multiply: Y column c = round(block * X
     * column c) for k right-hand sides. Columns are independent:
     * the result is bitwise identical to k one-column calls in
     * column order.
     *
     * @param X       column-major panel, k columns of block size
     * @param Y       column-major output panel; overwritten
     * @param k       number of right-hand sides (>= 1)
     * @param peeled  optional out: resized to k; entry c receives the
     *                peeled vector-element indices of column c
     *
     * The contribution tables, ADC energy tables, and gate-bitmap
     * transposes are built once and shared across all k columns;
     * per-column trajectory state (gates, termination, stats,
     * peeling) is kept independent. Returns the per-column stats
     * folded in column order (operator+=); @p colStats (optional)
     * receives the k per-column records, each bitwise what the
     * corresponding one-column call returns -- callers that fold
     * stats across blocks AND columns (the operator adapters) need
     * them to reproduce the per-column fold order exactly.
     */
    ClusterStats multiply(
        std::span<const double> X, std::span<double> Y, unsigned k,
        std::vector<std::vector<std::int32_t>> *peeled = nullptr,
        std::vector<ClusterStats> *colStats = nullptr);

    /**
     * Exact-value panel multiply: Y and @p peeled bitwise equal to
     * multiply(X, Y, k, peeled), without the slice walk and without
     * stats. Per column it runs the same peel + align front end;
     * per row it sums the signed products of the aligned magnitudes
     * (matrix and vector operands of at most 117 bits each, at most
     * 512 terms: below 2^243) in two 256-bit accumulators and
     * rounds the difference once. An empty or exactly cancelling row
     * yields +0.0, as the slice walk's does.
     */
    void multiplyValues(
        std::span<const double> X, std::span<double> Y, unsigned k,
        std::vector<std::vector<std::int32_t>> *peeled = nullptr);

  private:
    /** Signed accumulator in sign-magnitude form. */
    struct SignedAcc
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

    /**
     * Settled test: can the top @p prec bits of |acc| still change,
     * given that the remaining contribution is bounded by 2^bound?
     */
    static bool settled(const U256 &mag, int bound, unsigned prec);

    /** Convert a (possibly early-terminated) accumulator. */
    double convert(const SignedAcc &acc, int scale, bool exact) const;

    /**
     * Precomputed per-(bLo, bHi) contribution table: the signed
     * masked difference ((stored & mask) - (storedBias & mask)) >>
     * bLo per element. It depends only on the programmed data, so
     * program() invalidates the cache and every multiply builds a
     * range lazily on first use and reuses it across columns and
     * across calls. Ranges narrow enough for int16 deltas (width <=
     * 15; every skewed schedule in practice) use a flat int16 table;
     * wider ranges fall back to sign + U128 magnitude.
     */
    struct RangeTable
    {
        unsigned bLo = 0;
        bool small = false;
        std::vector<std::int16_t> delta; //!< small: signed deltas
        std::vector<std::uint8_t> negW;  //!< wide: sign per element
        std::vector<U128> magW;          //!< wide: |delta| >> bLo
    };

    /** Lazily built table for the range (bLo, bHi) of the current
     *  program; stable reference until the next program(). */
    const RangeTable &rangeTable(unsigned bLo, unsigned bHi);

    /** Add m * 2^shift to @p a without materializing a full-width
     *  shifted temporary: at most two words are nonzero (m < 2^63,
     *  which covers the per-row delta sum, bounded by
     *  nnz * 2^15). */
    static void addSmall(SignedAcc &a, bool neg, std::uint64_t m,
                         unsigned shift);

    /** Largest relative weight at which a row's int32 segment sums
     *  (< 2^31 each, at most 127 segments per group) still fit one
     *  signed 128-bit partial: 2^(7 + 31 + 88) < 2^127. */
    static constexpr unsigned maxPartialShift = 88;

    /** Add v * 2^shift to @p a; v is a group's 128-bit partial. */
    static void addPartial(SignedAcc &a, __int128 v, unsigned shift);

    /** Exponent-window peeling of an input vector: copy x into
     *  masked with out-of-window elements zeroed, recording their
     *  indices. */
    void peelVector(std::span<const double> x,
                    std::span<double> masked, ClusterStats &stats,
                    std::vector<std::int32_t> *peeled);

    /** Shared argument checks of the panel entry points. */
    void checkPanel(std::span<const double> X, std::span<double> Y,
                    unsigned k) const;

    ClusterConfig cfg;
    XbarModel xbarModel;
    AnCode an;

    /** conversionEnergy memoized over ADC start bits (the model call
     *  rebuilds a reference crossbar and evaluates pow() every time;
     *  the table makes the per-conversion energy loop a load). */
    std::vector<double> convEnergyByStart;
    double arrayOpE = 0.0; //!< cached xbarModel.arrayOpEnergy()

    bool isProgrammed = false;
    ClusterProgramInfo progInfo;
    unsigned blockSize = 0;
    int blockScale = 0;            //!< scale of aligned magnitudes
    unsigned storedBits = 0;       //!< width incl. bias (pre-AN)
    unsigned encodedBits = 0;      //!< width of stored operands
    U256 storedBias;               //!< bias word as stored (AN-coded)
    /** Programmed elements, flattened row-major (CSR-like): row i's
     *  entries are [rowPtr[i], rowPtr[i+1]). The multiply hot loop
     *  walks elemCol/contribution tables linearly. */
    std::vector<std::uint32_t> rowPtr;
    std::vector<std::int32_t> elemCol;
    std::vector<U256> elemStored; //!< biased (and AN-coded) operands
    /** Aligned magnitude and sign per element, beside elemCol: the
     *  operands of the exact-value kernel. */
    std::vector<U128> elemMag;
    std::vector<std::uint8_t> elemNeg;
    /** Signed row sums of aligned coefficients (for vector debias). */
    std::vector<SignedAcc> rowSumF;
    /** Per (slice b, block row i): stored ones count, for CIC and
     *  ADC headstart accounting. */
    std::vector<std::vector<std::uint16_t>> sliceOnes;
    /** Per (slice b, block row i), flattened b * blockSize + i: ADC
     *  conversion energy with the headstart preset resolved. Built by
     *  program(); turns the per-group energy accounting into a gated
     *  table sum shared by all RHS columns. */
    std::vector<double> adcConvE;

    // Contribution-table cache (see RangeTable). tableIdx is a dense
    // (encodedBits+1)^2 map from (bLo, bHi) to an index in tables,
    // -1 = not built yet; program() resets it.
    std::vector<RangeTable> tables;
    std::vector<std::int16_t> tableIdx;

    // Reusable per-call scratch, hoisted out of the multiply hot
    // path: the peeling sort buffer, per-column accumulators,
    // per-(row, column) termination flags, the per-(slice k, element,
    // column) gate transpose, and the k-wide delta sums and alive
    // flags of the inner loop.
    std::vector<std::pair<int, std::int32_t>> expsScratch;
    std::vector<SignedAcc> accBatch;
    std::vector<std::uint8_t> doneBatch;
    std::vector<double> maskedBatch;
    std::vector<std::int16_t> gateTBatch;
    std::vector<std::int32_t> sumBatch;
    std::vector<std::uint8_t> actBatch;
};

} // namespace msc

#endif // MSC_CLUSTER_CLUSTER_HH
