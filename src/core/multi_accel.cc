#include "core/multi_accel.hh"

#include <algorithm>

#include "util/logging.hh"

namespace msc {

MultiAccelerator::MultiAccelerator(
    const MultiAcceleratorConfig &config)
    : cfg(config)
{
    if (cfg.devices < 1)
        fatal("MultiAccelerator: need at least one device");
}

MultiPrepareResult
MultiAccelerator::prepare(const Csr &matrix,
                          std::span<const double> sampleX)
{
    prep = MultiPrepareResult{};
    prep.rows = matrix.rows();
    cols = matrix.cols();

    devices.clear();
    slabs.clear();
    slabMatrices.clear();

    const std::int32_t rowsPerDevice =
        (matrix.rows() + cfg.devices - 1) / cfg.devices;
    for (int d = 0; d < cfg.devices; ++d) {
        const std::int32_t lo = d * rowsPerDevice;
        const std::int32_t hi =
            std::min<std::int32_t>(lo + rowsPerDevice,
                                   matrix.rows());
        if (lo >= hi)
            break;
        slabs.push_back({lo, hi});

        // Extract the slab as its own matrix (full column span).
        Coo coo;
        coo.rows = hi - lo;
        coo.cols = matrix.cols();
        for (std::int32_t r = lo; r < hi; ++r) {
            const auto rowCols = matrix.rowCols(r);
            const auto rowVals = matrix.rowVals(r);
            for (std::size_t k = 0; k < rowCols.size(); ++k)
                coo.add(r - lo, rowCols[k], rowVals[k]);
        }
        slabMatrices.push_back(Csr::fromCoo(coo));
    }

    double maxSpmvTime = 0.0, sumSpmvEnergy = 0.0;
    double maxDotTime = 0.0, sumDotEnergy = 0.0;
    double maxAxpyTime = 0.0, sumAxpyEnergy = 0.0;
    for (std::size_t d = 0; d < slabMatrices.size(); ++d) {
        devices.push_back(std::make_unique<Accelerator>(cfg.device));
        const PrepareResult r =
            devices.back()->prepare(slabMatrices[d], sampleX);
        prep.perDevice.push_back(r);
        prep.anyGpuFallback |= r.gpuFallback;
        prep.programTime = std::max(prep.programTime, r.programTime);
        prep.preprocessTime += r.preprocessTime;
        maxSpmvTime = std::max(maxSpmvTime, r.spmv.time);
        sumSpmvEnergy += r.spmv.energy;
        maxDotTime = std::max(maxDotTime, r.dotOp.time);
        sumDotEnergy += r.dotOp.energy;
        maxAxpyTime = std::max(maxAxpyTime, r.axpyOp.time);
        sumAxpyEnergy += r.axpyOp.energy;
    }

    // Post-MVM exchange: each device broadcasts its updated slab of
    // the derived vector to the others (ring all-gather: every link
    // carries the full remote data once).
    const double exchangeBytes =
        static_cast<double>(matrix.rows()) * 8.0;
    const double exchangeTime = slabMatrices.size() > 1
        ? exchangeBytes / cfg.interChipBandwidth +
              cfg.interChipLatency
        : 0.0;

    prep.spmv.time = maxSpmvTime + exchangeTime;
    prep.spmv.energy = sumSpmvEnergy +
        (slabMatrices.size() > 1
             ? exchangeBytes * 20e-12 // link energy, ~20 pJ/B
             : 0.0);
    // Dot products add one scalar reduction across devices.
    prep.dotOp.time = maxDotTime +
        (slabMatrices.size() > 1 ? cfg.interChipLatency : 0.0);
    prep.dotOp.energy = sumDotEnergy;
    prep.axpyOp.time = maxAxpyTime;
    prep.axpyOp.energy = sumAxpyEnergy;

    isPrepared = true;
    return prep;
}

void
MultiAccelerator::spmv(std::span<const double> x,
                       std::span<double> y) const
{
    if (!isPrepared)
        fatal("MultiAccelerator::spmv: prepare() first");
    if (x.size() != static_cast<std::size_t>(cols) ||
        y.size() != static_cast<std::size_t>(prep.rows))
        fatal("MultiAccelerator::spmv: dimension mismatch");
    for (std::size_t d = 0; d < devices.size(); ++d) {
        const auto [lo, hi] = slabs[d];
        devices[d]->spmv(
            x, y.subspan(static_cast<std::size_t>(lo),
                         static_cast<std::size_t>(hi - lo)));
    }
}

AccelCost
MultiAccelerator::solveCost(const SolverResult &run,
                            bool includeSetup) const
{
    if (!isPrepared)
        fatal("MultiAccelerator::solveCost: prepare() first");
    AccelCost total;
    total.time = run.spmvCalls * prep.spmv.time +
                 run.dotCalls * prep.dotOp.time +
                 run.axpyCalls * prep.axpyOp.time;
    total.energy = run.spmvCalls * prep.spmv.energy +
                   run.dotCalls * prep.dotOp.energy +
                   run.axpyCalls * prep.axpyOp.energy;
    if (includeSetup) {
        total.time += prep.programTime + prep.preprocessTime;
        for (const auto &r : prep.perDevice)
            total.energy += r.programEnergy;
    }
    total.energy += total.time * cfg.device.staticPower *
                    static_cast<double>(devices.size());
    return total;
}

} // namespace msc
