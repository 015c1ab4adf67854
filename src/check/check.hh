/**
 * @file
 * Differential-and-metamorphic validation harness (the "oracle
 * sweep").
 *
 * The paper's central claim is bit-exact equivalence between the
 * memristive pipeline (align -> slice -> crossbar -> shift-add ->
 * AN-code -> reduce) and plain FP64 SpMV feeding the Krylov solvers
 * (PAPER Sections IV and VI). Each module here pits one layer of
 * that pipeline against an independent oracle:
 *
 *   wideint  - WideUInt arithmetic vs a schoolbook bignum (bignum.hh)
 *   align    - alignValues/biasEncode vs exact FP64 decomposition
 *   xbar     - BinaryCrossbar column reads vs a naive dense popcount
 *   cluster  - Cluster and HwCluster block MVM vs exactDot
 *   accel    - Accelerator::spmv vs Csr::spmv under a ULP budget
 *   spmm     - batched multi-RHS path (Cluster/HwCluster batch
 *              multiply, Accelerator::spmm) vs k independent
 *              one-column invocations, bitwise
 *   solver   - metamorphic solver/SpMV transforms: P*A*P^T symmetric
 *              permutation, power-of-two scaling equivariance
 *              (bitwise), and x^T(Ay) == (A^T x)^T y consistency
 *   binio    - binary artifact round-trip and streaming blocking
 *              (sparse/binio, blocking/stream) vs the in-core
 *              parse + planBlocks path, bitwise, plus corrupted
 *              artifacts failing structurally
 *   mmio     - Matrix Market tokenizer and Csr::fromCoo vs the
 *              istringstream walk and stable-sort assembly kept in
 *              mm_oracle.hh, bitwise, reject for reject
 *
 * Determinism contract: every iteration of every module draws from
 * an Rng seeded purely by (run seed, module name, iteration index).
 * Modules never read wall clock, thread ids, or shared mutable
 * state, so a report is byte-identical for any MSC_THREADS value --
 * the thread pool only parallelizes inside the checked components,
 * which carry their own bit-determinism contract (DESIGN.md 2d).
 */

#ifndef MSC_CHECK_CHECK_HH
#define MSC_CHECK_CHECK_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sparse/csr.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace msc::check {

/** Options of one harness run. */
struct Options
{
    std::uint64_t seed = 1;
    std::uint64_t iters = 1000;
    /** Substring filter on module names; empty runs every module. */
    std::string module;
    /** Failure messages kept per module (counting never stops). */
    std::size_t maxMessages = 8;
    /**
     * Wall-clock budget in seconds (0 disables). Implemented on an
     * ExecContext deadline polled between iterations: on expiry the
     * sweep stops where it is and the report carries the partial
     * results with Report::interrupted set -- CI sweeps cannot hang.
     */
    double timeoutSec = 0.0;
};

/** Per-module outcome. */
struct ModuleReport
{
    std::string name;
    std::uint64_t iters = 0;
    std::uint64_t checks = 0;   //!< assertions evaluated
    std::uint64_t failures = 0; //!< assertions that did not hold
    std::vector<std::string> messages; //!< first few failures
};

/** Whole-run outcome; toJson() is byte-stable for a fixed outcome. */
struct Report
{
    std::uint64_t seed = 0;
    std::uint64_t iters = 0;
    std::uint64_t totalChecks = 0;
    std::uint64_t totalFailures = 0;
    /** The timeout budget expired: the counts below are partial.
     *  toJson() emits an "interrupted" key only when set, so
     *  untimed reports stay byte-identical. */
    bool interrupted = false;
    std::vector<ModuleReport> modules;

    bool ok() const { return totalFailures == 0; }
    std::string toJson() const;
};

/**
 * Per-iteration context handed to a module: the seeded generator
 * plus the failure recorder.
 */
class Context
{
  public:
    Context(Rng rngIn, std::uint64_t iterIn, ModuleReport &rep,
            std::size_t maxMessages)
        : gen(rngIn), iterIdx(iterIn), report(rep),
          msgCap(maxMessages)
    {}

    Rng &rng() { return gen; }
    std::uint64_t iter() const { return iterIdx; }

    /** Record one assertion; the message is built only on failure. */
    template <typename... Args>
    bool
    expect(bool cond, Args &&...args)
    {
        ++report.checks;
        if (cond)
            return true;
        ++report.failures;
        if (report.messages.size() < msgCap) {
            report.messages.push_back(detail::concat(
                "iter ", iterIdx, ": ",
                std::forward<Args>(args)...));
        }
        return false;
    }

  private:
    Rng gen;
    std::uint64_t iterIdx;
    ModuleReport &report;
    std::size_t msgCap;
};

/**
 * One oracle module. makeModules() constructs fresh instances per
 * run, so the iteration closure may cache expensive fixtures (e.g.
 * a prepared Accelerator) across iterations of the same run.
 */
struct Module
{
    std::string name;
    std::function<void(Context &)> iteration;
};

/** Layer factories (one translation unit per checked layer). */
void addWideIntChecks(std::vector<Module> &out);
void addAlignChecks(std::vector<Module> &out);
void addXbarChecks(std::vector<Module> &out);
void addClusterChecks(std::vector<Module> &out);
void addAccelChecks(std::vector<Module> &out);
void addSpmmChecks(std::vector<Module> &out);
void addSolverChecks(std::vector<Module> &out);
void addBinioChecks(std::vector<Module> &out);
void addMmioChecks(std::vector<Module> &out);

/** All registered modules, in fixed report order. */
std::vector<Module> makeModules();

/** Names of every registered module (for --list and filters). */
std::vector<std::string> moduleNames();

/** Run the sweep. Never throws on check failures (see Report::ok);
 *  panics/fatals from the checked code are caught and counted. */
Report runChecks(const Options &opt);

// --- shared helpers for the check modules -------------------------

/** Seed for (run seed, module, iteration): splitmix64-style mix. */
std::uint64_t iterationSeed(std::uint64_t seed,
                            const std::string &module,
                            std::uint64_t iter);

/** ULP distance between two finite doubles (huge when signs differ
 *  and both are nonzero). */
std::uint64_t ulpDistance(double a, double b);

/** Bitwise double equality (0.0 vs -0.0 must not slip through). */
bool bitEqual(double a, double b);

/** Bitwise Csr equality: shape, row pointers, columns, value bits. */
bool sameCsrBits(const Csr &a, const Csr &b);

} // namespace msc::check

#endif // MSC_CHECK_CHECK_HH
