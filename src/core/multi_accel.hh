/**
 * @file
 * Multi-accelerator partitioning (Section VI).
 *
 * "On problems that are too large for a single accelerator, the MVM
 * can be split in a manner analogous to the partitioning on GPUs:
 * each accelerator handles a portion of the MVM, and the
 * accelerators synchronize between iterations."
 *
 * The matrix is split into contiguous row slabs, one per
 * accelerator. Each device owns its slab's rows of the solution and
 * derived vectors; after every MVM the devices exchange their slab
 * of x (an all-gather over the inter-chip links) and synchronize.
 * Dot products reduce partial scalars across devices.
 */

#ifndef MSC_CORE_MULTI_ACCEL_HH
#define MSC_CORE_MULTI_ACCEL_HH

#include <memory>
#include <vector>

#include "accel/accel.hh"

namespace msc {

struct MultiAcceleratorConfig
{
    int devices = 2;
    AcceleratorConfig device;       //!< per-device configuration
    double interChipBandwidth = 100e9; //!< bytes/s per link
    double interChipLatency = 1.5e-6;  //!< per synchronization
};

struct MultiPrepareResult
{
    std::vector<PrepareResult> perDevice;
    std::int32_t rows = 0;
    /** Per-iteration-kernel costs (slowest device + exchange). */
    AccelCost spmv;
    AccelCost dotOp;
    AccelCost axpyOp;
    double programTime = 0.0;
    double preprocessTime = 0.0;
    bool anyGpuFallback = false;
};

/**
 * A row-partitioned fleet of accelerators.
 */
class MultiAccelerator
{
  public:
    explicit MultiAccelerator(const MultiAcceleratorConfig &config);

    const MultiAcceleratorConfig &config() const { return cfg; }

    /** Partition, block, and place @p matrix across the devices. */
    MultiPrepareResult prepare(const Csr &matrix,
                               std::span<const double> sampleX = {});

    bool prepared() const { return isPrepared; }
    const MultiPrepareResult &info() const { return prep; }

    /** Functional y = A x across the fleet. */
    void spmv(std::span<const double> x, std::span<double> y) const;

    /** Map a solver run to fleet time/energy, including setup. */
    AccelCost solveCost(const SolverResult &run,
                        bool includeSetup = true) const;

  private:
    MultiAcceleratorConfig cfg;
    bool isPrepared = false;
    MultiPrepareResult prep;
    std::vector<std::unique_ptr<Accelerator>> devices;
    /** Row slab [start, end) per device. */
    std::vector<std::pair<std::int32_t, std::int32_t>> slabs;
    std::vector<Csr> slabMatrices;
    std::int32_t cols = 0;
};

} // namespace msc

#endif // MSC_CORE_MULTI_ACCEL_HH
