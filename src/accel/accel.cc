#include "accel/accel.hh"

#include <algorithm>
#include <cmath>
#include <map>

#include "util/logging.hh"
#include "util/telemetry.hh"
#include "util/threadpool.hh"

namespace msc {

namespace {

// Per-block spans fire once per (placement, column-chunk) work item
// -- once per placed block per spmv -- so the accel.block_spans
// total is deterministic across lane counts.
constinit telemetry::Counter ctrBlockSpans{"accel.block_spans"};
constinit telemetry::Counter ctrSpmvCalls{"accel.spmv_calls"};
constinit telemetry::Counter
    ctrSampledBlocks{"accel.sampled_blocks"};
constinit telemetry::Counter
    ctrPlacedBlocks{"accel.placed_blocks"};
constinit telemetry::Histogram hSpmvUs{"accel.spmv_us"};
constinit telemetry::Counter ctrSpmmCalls{"accel.spmm_calls"};
constinit telemetry::Histogram hSpmmUs{"accel.spmm_us"};

/**
 * RAII exclusivity guard over the shared spmv/spmm scratch: entering
 * while another fan-out is in flight is a caller bug (the partials
 * would be silently corrupted), so it dies loudly instead.
 */
class OpGuard
{
  public:
    OpGuard(std::atomic<bool> &flag, const char *what) : f(flag)
    {
        if (f.exchange(true, std::memory_order_acquire)) {
            fatal(what, ": concurrent spmv()/spmm() on one "
                  "Accelerator (shared scratch) is not supported");
        }
    }
    ~OpGuard() { f.store(false, std::memory_order_release); }

  private:
    std::atomic<bool> &f;
};

/**
 * Accumulate one placed block into W columns of @p part (column c
 * at part + c * b.size), walking b.elems once. Each column's
 * partials accumulate in element order whatever W is, so at W = 1
 * this is the plain single-vector block loop.
 */
template <unsigned W>
void
accumulateBlock(const MatrixBlock &b, const double *x, std::size_t ldx,
                double *part)
{
    const std::size_t ldp = b.size;
    for (const auto &el : b.elems) {
        const auto row = static_cast<std::size_t>(el.row);
        const double *xe =
            x + static_cast<std::size_t>(b.colOrigin + el.col);
        for (unsigned c = 0; c < W; ++c)
            part[c * ldp + row] += el.val * xe[c * ldx];
    }
}

} // namespace

Accelerator::Accelerator(const AcceleratorConfig &config) : cfg(config)
{
    if (cfg.banks == 0 || cfg.clustersPerBank.empty())
        fatal("Accelerator: empty configuration");
    for (std::size_t i = 0; i + 1 < cfg.clustersPerBank.size(); ++i) {
        if (cfg.clustersPerBank[i].first <=
            cfg.clustersPerBank[i + 1].first)
            fatal("Accelerator: cluster sizes must be decreasing");
    }
}

std::vector<std::pair<unsigned, unsigned>>
Accelerator::poolCapacity() const
{
    std::vector<std::pair<unsigned, unsigned>> pools;
    pools.reserve(cfg.clustersPerBank.size());
    for (const auto &[size, count] : cfg.clustersPerBank)
        pools.push_back({size, count * cfg.banks});
    return pools;
}

PrepareResult
Accelerator::prepare(const Csr &matrix, std::span<const double> sampleX,
                     BlockPlan *precomputed)
{
    telemetry::Span span("accel.prepare");
    prep = PrepareResult{};
    matRows = matrix.rows();
    matCols = matrix.cols();

    // --- blocking -----------------------------------------------------
    if (precomputed != nullptr) {
        if (precomputed->rows != matrix.rows() ||
            precomputed->cols != matrix.cols())
            fatal("Accelerator::prepare: precomputed plan "
                  "dimensions disagree with the matrix");
        plan = std::move(*precomputed);
    } else {
        plan = planBlocks(matrix, cfg.blocking);
    }
    prep.blocking = plan.stats;
    prep.banksUsed = static_cast<int>(std::min<std::int64_t>(
        cfg.banks,
        std::max<std::int64_t>(
            1, (matrix.rows() + cfg.rowsPerBank - 1) /
                   cfg.rowsPerBank)));

    // Preprocessing cost: worst case 4x NNZ element visits on the
    // host; modeled at a calibrated preprocessing throughput.
    constexpr double visitsPerSecond = 500e6;
    prep.preprocessTime =
        static_cast<double>(plan.stats.elementVisits) /
        visitsPerSecond;

    // --- per-class cost estimation -------------------------------
    // Blocks are estimated at their own size: a small block packed
    // diagonally into a larger crossbar drives only its own rows and
    // scans only its own columns.
    std::vector<double> ones;
    if (sampleX.empty()) {
        ones.assign(static_cast<std::size_t>(matrix.cols()), 1.0);
        sampleX = ones;
    }
    if (sampleX.size() != static_cast<std::size_t>(matrix.cols()))
        fatal("Accelerator::prepare: sampleX size mismatch");

    struct ClassAgg
    {
        std::size_t count = 0;
        std::size_t sampled = 0;
        double energy = 0.0;      //!< summed over samples
        double latency = 0.0;     //!< summed over samples
        double programTime = 0.0; //!< max over samples
        double programEnergy = 0.0;
        std::uint64_t cellsWritten = 0;

        double avgEnergy() const { return energy / sampled; }
        double avgLatency() const { return latency / sampled; }
    };
    std::map<unsigned, ClassAgg> classes; // keyed by block size
    for (const auto &b : plan.blocks)
        ++classes[b.size].count;
    // Sample selection is sequential (first N blocks of each size
    // class, in block order); the cost estimation itself -- the
    // expensive early-termination trajectory -- fans out across the
    // pool and is aggregated back in sample order, so the estimates
    // are independent of the lane count.
    std::vector<std::size_t> sampleIdx;
    for (std::size_t i = 0; i < plan.blocks.size(); ++i) {
        ClassAgg &agg = classes[plan.blocks[i].size];
        if (agg.sampled >= cfg.estimateSamplesPerSize)
            continue;
        ++agg.sampled;
        sampleIdx.push_back(i);
    }
    ctrSampledBlocks.add(sampleIdx.size());
    std::vector<BlockCost> sampleCost(sampleIdx.size());
    parallelFor(
        sampleIdx.size(),
        [&](std::size_t s) {
        telemetry::Span blockSpan("accel.sample_block");
        const MatrixBlock &b = plan.blocks[sampleIdx[s]];
        std::vector<double> xLocal(b.size, 0.0);
        for (unsigned j = 0; j < b.size; ++j) {
            const std::int64_t col = b.colOrigin + j;
            if (col < matrix.cols())
                xLocal[j] = sampleX[static_cast<std::size_t>(col)];
        }
        sampleCost[s] =
            estimateBlockCost(b, xLocal, cfg.cluster, b.size);
        },
        1, exec);
    for (std::size_t s = 0; s < sampleIdx.size(); ++s) {
        ClassAgg &agg = classes[plan.blocks[sampleIdx[s]].size];
        const BlockCost &cost = sampleCost[s];
        agg.energy += cost.energy;
        agg.latency += cost.latency;
        agg.programTime = std::max(agg.programTime, cost.programTime);
        agg.programEnergy += cost.programEnergy;
        agg.cellsWritten += cost.cellsWritten;
    }
    for (auto &[size, agg] : classes) {
        if (agg.count == 0)
            continue;
        if (agg.sampled == 0)
            panic("Accelerator::prepare: class without samples");
        const double scale =
            static_cast<double>(agg.count) / agg.sampled;
        prep.programEnergy += agg.programEnergy * scale;
        prep.cellsWritten += static_cast<std::uint64_t>(
            static_cast<double>(agg.cellsWritten) * scale);
    }

    // --- placement onto the cluster pools ---------------------------
    // Capacity is measured in crossbar rows: a size-S cluster hosts
    // one S block or S/s diagonally packed s blocks, which then run
    // sequentially on that cluster.
    struct Pool
    {
        unsigned size = 0;
        unsigned clusters = 0;
        std::uint64_t units = 0;  //!< remaining row capacity
        double busy = 0.0;        //!< summed MVM latency placed here
        double progBusy = 0.0;    //!< summed program time placed here
        std::size_t blocks = 0;
    };
    std::vector<Pool> pools; // descending size, like the config
    for (const auto &[size, count] : cfg.clustersPerBank) {
        Pool p;
        p.size = size;
        p.clusters = count * cfg.banks;
        p.units = static_cast<std::uint64_t>(p.clusters) * size;
        pools.push_back(p);
    }

    placements.clear();
    std::vector<std::size_t> dissolved;
    std::vector<std::size_t> order(plan.blocks.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return plan.blocks[a].size > plan.blocks[b].size;
              });
    for (std::size_t idx : order) {
        const unsigned want = plan.blocks[idx].size;
        const ClassAgg &agg = classes[want];
        bool placed = false;
        // Smallest suitable pool first: exact size, then larger.
        for (std::size_t p = pools.size(); p-- > 0;) {
            if (pools[p].size < want || pools[p].units < want)
                continue;
            pools[p].units -= want;
            pools[p].busy += agg.avgLatency();
            pools[p].progBusy += agg.programTime;
            ++pools[p].blocks;
            Placement pl;
            pl.blockIdx = idx;
            pl.clusterSize = pools[p].size;
            pl.latency = agg.avgLatency();
            placements.push_back(pl);
            if (pools[p].size != want)
                ++prep.spilledBlocks;
            placed = true;
            break;
        }
        if (!placed) {
            dissolved.push_back(idx);
            ++prep.dissolvedBlocks;
            prep.dissolvedNnz += plan.blocks[idx].elems.size();
        }
    }
    prep.placedBlocks = placements.size();

    double maxClusterLatency = 0.0;
    double clusterEnergyPerSpmv = 0.0;
    for (const Pool &p : pools) {
        if (p.clusters == 0 || p.blocks == 0)
            continue;
        // Blocks spread over the pool's clusters; the busiest
        // cluster hosts ceil(blocks/clusters) of them and runs them
        // sequentially. (Dividing total busy time by all clusters
        // would dilute the latency when the pool is underfull.)
        const double perCluster = std::ceil(
            static_cast<double>(p.blocks) / p.clusters);
        maxClusterLatency = std::max(
            maxClusterLatency,
            (p.busy / static_cast<double>(p.blocks)) * perCluster);
        prep.programTime = std::max(
            prep.programTime,
            (p.progBusy / static_cast<double>(p.blocks)) *
                perCluster);
    }
    for (const auto &pl : placements)
        clusterEnergyPerSpmv +=
            classes[plan.blocks[pl.blockIdx].size].avgEnergy();
    prep.maxClusterLatency = maxClusterLatency;

    // Rebuild the local-processor CSR with dissolved blocks folded in.
    if (dissolved.empty()) {
        effectiveCsr = plan.unblocked;
    } else {
        Coo coo = plan.unblocked.toCoo();
        for (std::size_t idx : dissolved) {
            const MatrixBlock &b = plan.blocks[idx];
            for (const auto &el : b.elems) {
                coo.add(b.rowOrigin + el.row, b.colOrigin + el.col,
                        el.val);
            }
        }
        effectiveCsr = Csr::fromCoo(coo);
    }
    prep.csrNnz = effectiveCsr.nnz();

    const double blockedFraction = plan.stats.totalNnz == 0
        ? 0.0
        : static_cast<double>(plan.stats.totalNnz - prep.csrNnz) /
              plan.stats.totalNnz;
    prep.gpuFallback = blockedFraction < cfg.gpuFallbackThreshold;

    // --- kernel cost models ---------------------------------------
    const Bank bank(cfg.proc, cfg.mem);
    const auto &mem = cfg.mem;

    // Sparse MVM: clusters in parallel vs the local processors'
    // leftover CSR work; the owning banks service completion
    // interrupts and the system barriers at the end (Section VI-A1).
    {
        const double csrPerBank = static_cast<double>(prep.csrNnz) /
                                  prep.banksUsed;
        const double tCsr = bank.csrTime(csrPerBank);
        const double tService = bank.serviceTime(
            static_cast<double>(placements.size()) /
            std::max(1, prep.banksUsed));
        double blockBytes = 0.0;
        for (const auto &pl : placements)
            blockBytes += 16.0 * plan.blocks[pl.blockIdx].size;
        const double tMem = blockBytes / mem.globalBandwidth;
        prep.spmv.time = std::max(maxClusterLatency, tCsr) +
                         tService + mem.barrierLatency + tMem;
        const double procCycles =
            bank.csrCycles(static_cast<double>(prep.csrNnz)) +
            placements.size() * cfg.proc.clusterServiceCycles +
            prep.banksUsed * cfg.proc.kernelStartupCycles;
        prep.spmv.energy = clusterEnergyPerSpmv +
                           bank.procEnergy(procCycles) +
                           blockBytes * mem.eDramEnergyPerByte +
                           blockBytes * mem.sramEnergyPerByte;
    }

    // Dot product: local partial dots, global exchange, barrier x2
    // (Section VI-A2).
    {
        const double perBank =
            std::ceil(static_cast<double>(matrix.rows()) /
                      prep.banksUsed);
        prep.dotOp.time = bank.dotTime(perBank) +
                          2 * mem.barrierLatency +
                          prep.banksUsed * 8.0 / mem.globalBandwidth;
        prep.dotOp.energy =
            bank.procEnergy(
                bank.dotCycles(static_cast<double>(matrix.rows())) +
                prep.banksUsed * cfg.proc.kernelStartupCycles) +
            static_cast<double>(matrix.rows()) * 16.0 *
                mem.sramEnergyPerByte +
            prep.banksUsed * prep.banksUsed * 8.0 *
                mem.eDramEnergyPerByte;
    }

    // AXPY: purely local + end barrier (Section VI-A3).
    {
        const double perBank =
            std::ceil(static_cast<double>(matrix.rows()) /
                      prep.banksUsed);
        prep.axpyOp.time = bank.axpyTime(perBank) +
                           mem.barrierLatency;
        prep.axpyOp.energy =
            bank.procEnergy(
                bank.axpyCycles(static_cast<double>(matrix.rows())) +
                prep.banksUsed * cfg.proc.kernelStartupCycles) +
            static_cast<double>(matrix.rows()) * 24.0 *
                mem.sramEnergyPerByte;
    }

    ctrPlacedBlocks.add(placements.size());
    isPrepared = true;
    return prep;
}

void
Accelerator::spmv(std::span<const double> x, std::span<double> y) const
{
    telemetry::Span span("accel.spmv");
    telemetry::Timer timer(hSpmvUs);
    ctrSpmvCalls.add();
    mvm(x, y, 1, "Accelerator::spmv");
}

void
Accelerator::spmm(std::span<const double> X, std::span<double> Y,
                  unsigned k) const
{
    telemetry::Span span("accel.spmm");
    telemetry::Timer timer(hSpmmUs);
    ctrSpmmCalls.add();
    mvm(X, Y, k, "Accelerator::spmm");
}

void
Accelerator::mvm(std::span<const double> X, std::span<double> Y,
                 unsigned k, const char *what) const
{
    if (!isPrepared)
        fatal(what, ": prepare() first");
    if (k == 0)
        fatal(what, ": batch needs at least one column");
    const auto nCols = static_cast<std::size_t>(matCols);
    const auto nRows = static_cast<std::size_t>(matRows);
    if (X.size() != nCols * k || Y.size() != nRows * k)
        fatal(what, ": dimension mismatch");
    const OpGuard guard(opGuard, what);

    // CSR leftovers, per column in column order (independent
    // outputs).
    for (unsigned c = 0; c < k; ++c) {
        effectiveCsr.spmv(X.subspan(c * nCols, nCols),
                          Y.subspan(c * nRows, nRows));
    }

    // Placed blocks fan out at (placement, column-chunk)
    // granularity: enough work items to fill the pool even for few
    // large blocks, each writing only its private scratch. The
    // execution context is polled at every item boundary by
    // parallelFor.
    constexpr unsigned chunkCols = 4;
    const std::size_t nChunks = (k + chunkCols - 1) / chunkCols;
    const std::size_t nItems = placements.size() * nChunks;
    spmmScratch.resize(nItems);
    parallelFor(
        nItems,
        [&](std::size_t item) {
        telemetry::Span blockSpan("accel.block");
        ctrBlockSpans.add();
        const std::size_t p = item / nChunks;
        const unsigned c0 = static_cast<unsigned>(
            (item % nChunks) * chunkCols);
        const unsigned w = std::min(k - c0, chunkCols);
        const MatrixBlock &b = plan.blocks[placements[p].blockIdx];
        std::vector<double> &part = spmmScratch[item];
        part.assign(static_cast<std::size_t>(b.size) * w, 0.0);
        const double *x = X.data() + c0 * nCols;
        switch (w) {
          case 1:
            accumulateBlock<1>(b, x, nCols, part.data());
            break;
          case 2:
            accumulateBlock<2>(b, x, nCols, part.data());
            break;
          case 3:
            accumulateBlock<3>(b, x, nCols, part.data());
            break;
          default:
            accumulateBlock<4>(b, x, nCols, part.data());
        }
        },
        1, exec);

    // Fold per column in fixed placement order, so the result is
    // bit-identical for any lane count and every column of a panel
    // is bitwise its own k = 1 call.
    for (unsigned c = 0; c < k; ++c) {
        const std::size_t chunk = c / chunkCols;
        const unsigned cInChunk = c % chunkCols;
        const std::span<double> yc = Y.subspan(c * nRows, nRows);
        for (std::size_t p = 0; p < placements.size(); ++p) {
            const MatrixBlock &b =
                plan.blocks[placements[p].blockIdx];
            const double *pc =
                spmmScratch[p * nChunks + chunk].data() +
                static_cast<std::size_t>(cInChunk) * b.size;
            // Edge blocks extend past the last matrix row; their
            // padded tail is empty, so clamp instead of folding it
            // into memory beyond y.
            const unsigned limit = static_cast<unsigned>(std::min(
                static_cast<std::int64_t>(b.size),
                static_cast<std::int64_t>(matRows) - b.rowOrigin));
            for (unsigned i = 0; i < limit; ++i)
                yc[static_cast<std::size_t>(b.rowOrigin + i)] +=
                    pc[i];
        }
    }
}

AccelCost
Accelerator::solveCost(const SolverResult &run, bool includeSetup) const
{
    if (!isPrepared)
        fatal("Accelerator::solveCost: prepare() first");
    AccelCost total;
    total.time = run.spmvCalls * prep.spmv.time +
                 run.dotCalls * prep.dotOp.time +
                 run.axpyCalls * prep.axpyOp.time;
    total.energy = run.spmvCalls * prep.spmv.energy +
                   run.dotCalls * prep.dotOp.energy +
                   run.axpyCalls * prep.axpyOp.energy;
    if (includeSetup) {
        total.time += prep.programTime + prep.preprocessTime;
        total.energy += prep.programEnergy;
    }
    total.energy += total.time * cfg.staticPower;
    return total;
}

AccelCost
Accelerator::reprogramCost(double fractionChanged) const
{
    if (!isPrepared)
        fatal("Accelerator::reprogramCost: prepare() first");
    if (fractionChanged < 0.0 || fractionChanged > 1.0)
        fatal("Accelerator::reprogramCost: fraction out of range");
    AccelCost c;
    c.time = prep.programTime * fractionChanged;
    c.energy = prep.programEnergy * fractionChanged;
    return c;
}

SpmvSimResult
Accelerator::simulateSpmv() const
{
    if (!isPrepared)
        fatal("Accelerator::simulateSpmv: prepare() first");
    SpmvSimConfig sim;
    sim.proc = cfg.proc;
    sim.mem = cfg.mem;
    sim.banks = std::max(1, prep.banksUsed);
    sim.csrNnzPerBank.assign(
        static_cast<std::size_t>(sim.banks),
        static_cast<double>(prep.csrNnz) / sim.banks);
    std::vector<SimClusterOp> ops;
    ops.reserve(placements.size());
    int rr = 0;
    for (const auto &pl : placements) {
        SimClusterOp op;
        op.bank = rr;
        op.latency = pl.latency;
        rr = (rr + 1) % sim.banks;
        ops.push_back(op);
    }
    return msc::simulateSpmv(sim, ops);
}

AreaBreakdown
Accelerator::area() const
{
    AreaBreakdown a;
    for (const auto &[size, count] : cfg.clustersPerBank) {
        const XbarModel model(size, cfg.cluster.xbar,
                              cfg.cluster.cic);
        const double xbars = static_cast<double>(cfg.banks) * count *
                             fxp::encodedBits;
        a.crossbarsAndAdcs += xbars * model.area();
        a.adcsOnly += xbars * model.adcArea();
    }
    a.bankBuffers = cfg.banks * cfg.mem.bankBufferAreaMm2;
    a.processors = cfg.banks * cfg.proc.areaMm2;
    a.globalMemory = cfg.mem.globalMemAreaMm2;
    return a;
}

double
Accelerator::enduranceYears(double solveTime) const
{
    // Conservative: full rewrite of every array between back-to-back
    // solves (Section VIII-E).
    const double cycleTime = solveTime + prep.programTime;
    const double writesPerYear =
        cycleTime > 0.0 ? (365.25 * 86400.0) / cycleTime : 0.0;
    if (writesPerYear == 0.0)
        return 0.0;
    return cfg.cluster.xbar.cell.writeEndurance / writesPerYear;
}

} // namespace msc
