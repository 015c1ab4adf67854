#include "accel/cluster_operator.hh"

#include "util/logging.hh"
#include "util/telemetry.hh"
#include "util/threadpool.hh"

namespace msc {

namespace {

// Scheduling and early-termination tallies, folded from the
// per-block ClusterStats inside the fixed-order reduction so the
// totals are deterministic across lane counts.
constinit telemetry::Counter
    ctrGroupsExecuted{"cluster.groups_executed"};
constinit telemetry::Counter
    ctrGroupsTotal{"cluster.groups_total"};
constinit telemetry::Counter
    ctrEarlyTerminated{"cluster.columns_early_terminated"};
constinit telemetry::Counter
    ctrConversionsSkipped{"cluster.conversions_skipped"};
constinit telemetry::Counter
    ctrPeeledElements{"cluster.peeled_vector_elements"};
constinit telemetry::Counter ctrApplies{"cluster.applies"};
constinit telemetry::Counter
    ctrXbarActivations{"cluster.xbar_activations"};
constinit telemetry::Counter
    ctrAdcConversions{"cluster.adc_conversions"};

} // namespace

ClusterArithmeticOperator::ClusterArithmeticOperator(
    const Csr &m, const BlockingConfig &blocking,
    const ClusterConfig &base)
    : mat(&m), plan(planBlocks(m, blocking))
{
    programClusters(base);
}

ClusterArithmeticOperator::ClusterArithmeticOperator(
    const Csr &m, BlockPlan precomputed, const ClusterConfig &base)
    : mat(&m), plan(std::move(precomputed))
{
    if (plan.rows != m.rows() || plan.cols != m.cols())
        fatal("ClusterArithmeticOperator: precomputed plan "
              "dimensions disagree with the matrix");
    programClusters(base);
}

void
ClusterArithmeticOperator::programClusters(const ClusterConfig &base)
{
    clusters.reserve(plan.blocks.size());
    for (const MatrixBlock &block : plan.blocks) {
        ClusterConfig cfg = base;
        cfg.size = block.size;
        clusters.push_back(std::make_unique<Cluster>(cfg));
    }
    // Programming is embarrassingly parallel: one cluster per block,
    // no shared state. Sampled fidelity measures each block's stats
    // here, once, on the all-ones vector (Accelerator::prepare's
    // default sample), with padding columns 0 as applyPanel pads.
    const bool sampled =
        base.statsFidelity == StatsFidelity::Sampled;
    scratch.resize(plan.blocks.size());
    sampledStats.assign(sampled ? plan.blocks.size() : 0, {});
    parallelFor(plan.blocks.size(), [&](std::size_t bi) {
        const MatrixBlock &block = plan.blocks[bi];
        clusters[bi]->program(block);
        if (!sampled)
            return;
        std::vector<double> ones(block.size, 0.0), y(block.size);
        for (unsigned j = 0; j < block.size; ++j) {
            if (block.colOrigin + static_cast<std::int64_t>(j) <
                mat->cols())
                ones[j] = 1.0;
        }
        sampledStats[bi] = clusters[bi]->multiply(ones, y);
    });
}

void
ClusterArithmeticOperator::apply(std::span<const double> x,
                                 std::span<double> y)
{
    applyPanel(x, y, 1, "cluster.apply");
}

void
ClusterArithmeticOperator::reduceBlock(
    const MatrixBlock &block, const ClusterStats &s,
    const double *yLocal, const std::vector<std::int32_t> &peeled,
    std::vector<std::uint8_t> &peeledMask, std::span<const double> x,
    std::span<double> y)
{
    aggregate.groupsExecuted += s.groupsExecuted;
    aggregate.groupsTotal += s.groupsTotal;
    aggregate.xbarActivations += s.xbarActivations;
    aggregate.adcConversions += s.adcConversions;
    aggregate.conversionsSkipped += s.conversionsSkipped;
    aggregate.columnsEarlyTerminated += s.columnsEarlyTerminated;
    aggregate.peeledVectorElements += s.peeledVectorElements;
    aggregate.energy += s.energy;
    aggregate.latency += s.latency;

    ctrGroupsExecuted.add(s.groupsExecuted);
    ctrGroupsTotal.add(s.groupsTotal);
    ctrXbarActivations.add(s.xbarActivations);
    ctrAdcConversions.add(s.adcConversions);
    ctrEarlyTerminated.add(s.columnsEarlyTerminated);
    ctrConversionsSkipped.add(s.conversionsSkipped);
    ctrPeeledElements.add(s.peeledVectorElements);

    for (unsigned i = 0; i < block.size; ++i) {
        const std::int64_t row = block.rowOrigin + i;
        if (row < mat->rows())
            y[static_cast<std::size_t>(row)] += yLocal[i];
    }
    // Columns whose vector exponents fell outside the alignment
    // window: their contributions were not computed in-situ; the
    // local processor adds them digitally (Section VI-A1). A
    // column bitmap turns the scan into a single pass over the
    // block's elements.
    if (!peeled.empty()) {
        peeledMask.assign(block.size, 0);
        for (std::int32_t pj : peeled)
            peeledMask[static_cast<std::size_t>(pj)] = 1;
        for (const Triplet &el : block.elems) {
            if (!peeledMask[static_cast<std::size_t>(el.col)])
                continue;
            y[static_cast<std::size_t>(block.rowOrigin + el.row)] +=
                el.val *
                x[static_cast<std::size_t>(block.colOrigin +
                                           el.col)];
        }
    }
}

void
ClusterArithmeticOperator::applyBatch(std::span<const double> X,
                                      std::span<double> Y,
                                      unsigned k)
{
    applyPanel(X, Y, k, "cluster.apply_batch");
}

void
ClusterArithmeticOperator::applyPanel(std::span<const double> X,
                                      std::span<double> Y, unsigned k,
                                      const char *spanName)
{
    const auto nc = static_cast<std::size_t>(mat->cols());
    const auto nr = static_cast<std::size_t>(mat->rows());
    if (k == 0)
        fatal("ClusterArithmeticOperator: empty batch");
    if (X.size() != nc * k || Y.size() != nr * k)
        fatal("ClusterArithmeticOperator: dimension mismatch");

    telemetry::Span span(spanName);
    ctrApplies.add(k);

    // Local-processor part, per column in column order.
    for (unsigned c = 0; c < k; ++c) {
        plan.unblocked.spmv(X.subspan(c * nc, nc),
                            Y.subspan(c * nr, nr));
    }

    // Fan the block MVMs across the pool: one panel call per block
    // (under Full fidelity the contribution tables, schedules, and
    // gate transposes are shared across all k columns). Every block
    // writes only its own scratch slot. The
    // execution context is polled per block batch: a cancel mid-
    // apply abandons the remaining blocks before the reduction below
    // ever runs.
    parallelFor(
        plan.blocks.size(),
        [&](std::size_t bi) {
        telemetry::Span blockSpan("cluster.block");
        const MatrixBlock &block = plan.blocks[bi];
        BlockScratch &sc = scratch[bi];
        sc.xLocal.assign(static_cast<std::size_t>(block.size) * k,
                         0.0);
        for (unsigned c = 0; c < k; ++c) {
            for (unsigned j = 0; j < block.size; ++j) {
                const std::int64_t col = block.colOrigin + j;
                if (col < mat->cols()) {
                    sc.xLocal[static_cast<std::size_t>(c) *
                                  block.size + j] =
                        X[c * nc + static_cast<std::size_t>(col)];
                }
            }
        }
        sc.yLocal.assign(static_cast<std::size_t>(block.size) * k,
                         0.0);
        const std::span<const double> xs(sc.xLocal);
        const std::span<double> ys(sc.yLocal);
        if (sampledStats.empty())
            clusters[bi]->multiply(xs, ys, k, &sc.peeledCols,
                                   &sc.colStats);
        else
            clusters[bi]->multiplyValues(xs, ys, k, &sc.peeledCols);
        },
        1, exec);

    // Deterministic reduction in (column, block) order -- the order
    // k one-column applies fold -- so y AND the aggregate stats
    // (floating-point sums included) are bit-identical regardless of
    // the lane count and the panel width.
    for (unsigned c = 0; c < k; ++c) {
        const std::span<const double> xc = X.subspan(c * nc, nc);
        const std::span<double> yc = Y.subspan(c * nr, nr);
        for (std::size_t bi = 0; bi < plan.blocks.size(); ++bi) {
            const MatrixBlock &block = plan.blocks[bi];
            BlockScratch &sc = scratch[bi];
            ClusterStats s;
            if (sampledStats.empty()) {
                s = sc.colStats[c];
            } else {
                s = sampledStats[bi];
                s.peeledVectorElements = sc.peeledCols[c].size();
            }
            reduceBlock(block, s,
                        sc.yLocal.data() +
                            static_cast<std::size_t>(c) * block.size,
                        sc.peeledCols[c], sc.peeledMask, xc, yc);
        }
    }
}

} // namespace msc
