#include "fault/faulty_operator.hh"

#include <cmath>
#include <limits>

#include "util/logging.hh"
#include "util/telemetry.hh"
#include "util/threadpool.hh"

namespace msc {

namespace {

// Injected- and corrected-fault tallies. Apply-time counters fold
// from per-block scratch in fixed block order; programming-time
// counters fire once per drawn fault. Both are lane-count
// independent (streams are keyed by block / apply sequence).
constinit telemetry::Counter
    ctrTransients{"fault.transient_upsets"};
constinit telemetry::Counter
    ctrSaturated{"fault.saturated_conversions"};
constinit telemetry::Counter ctrStuckCells{"fault.stuck_cells"};
constinit telemetry::Counter
    ctrStuckColumns{"fault.stuck_columns"};
constinit telemetry::Counter
    ctrDeadCrossbars{"fault.dead_crossbars"};
constinit telemetry::Counter ctrReprograms{"fault.reprograms"};
constinit telemetry::Counter ctrDegrades{"fault.degrades"};
constinit telemetry::Counter ctrScrubScans{"fault.scrub_scans"};
constinit telemetry::Counter
    ctrBlockSpans{"fault.block_spans"};

/** Full-scale value a saturated ADC column pins its output to:
 *  far outside any well-scaled block's range, but finite, so the
 *  failure surfaces as divergence/stagnation rather than NaN. */
constexpr double stuckFullScale = 1e30;

/** Stream-id space for run-time transient upsets: offset past the
 *  per-block programming units (block indices are < 2^32), then one
 *  unit per (apply sequence, block). */
std::uint64_t
transientUnit(std::uint64_t seq, std::size_t nBlocks, std::size_t k)
{
    return (std::uint64_t{1} << 32) +
           seq * static_cast<std::uint64_t>(nBlocks) +
           static_cast<std::uint64_t>(k);
}

} // namespace

FaultyAccelOperator::FaultyAccelOperator(
    const Csr &m, const FaultCampaign &campaign,
    const BlockingConfig &blocking)
    : camp(campaign), injector(campaign),
      plan(planBlocks(m, blocking)),
      matRows(m.rows()), matCols(m.cols())
{
    state.resize(plan.blocks.size());
    scratch.resize(plan.blocks.size());
    for (std::size_t k = 0; k < plan.blocks.size(); ++k)
        drawProgrammingFaults(k);
}

void
FaultyAccelOperator::drawProgrammingFaults(std::size_t block)
{
    const MatrixBlock &blk = plan.blocks[block];
    BlockState &st = state[block];
    Rng rng = injector.streamFor(block);

    st.dead = rng.chance(camp.deadCrossbarRate) ||
              camp.forcedDeadBlock == static_cast<int>(block);
    if (st.dead) {
        ++programStats.deadCrossbars;
        ctrDeadCrossbars.add();
    }

    if (rng.chance(camp.stuckColumnRate)) {
        st.stuckColumn =
            static_cast<int>(rng.below(blk.size));
        st.stuckValue =
            (rng.chance(0.5) ? 1.0 : -1.0) * stuckFullScale;
        ++programStats.stuckColumns;
        ctrStuckColumns.add();
    }

    if (camp.stuckCellRate > 0.0) {
        for (std::size_t e = 0; e < blk.elems.size(); ++e) {
            if (!rng.chance(camp.stuckCellRate))
                continue;
            // A stuck cell the AN code could not absorb perturbs the
            // mapped coefficient by a bit-weighted fraction of its
            // magnitude.
            const double mag = std::fabs(blk.elems[e].val);
            StuckGlitch g;
            g.elem = e;
            g.delta = (rng.chance(0.5) ? 1.0 : -1.0) *
                      std::ldexp(mag != 0.0 ? mag : 1.0,
                                 -static_cast<int>(rng.range(0, 10)));
            st.stuck.push_back(g);
            ++programStats.stuckCells;
            ctrStuckCells.add();
        }
    }

    st.driftDir.assign(blk.size, 1);
    if (camp.driftPerRead > 0.0) {
        for (auto &d : st.driftDir)
            d = rng.chance(0.5) ? 1 : -1;
    }
}

void
FaultyAccelOperator::apply(std::span<const double> x,
                           std::span<double> y)
{
    applyPanel(x, y, 1, "fault.apply");
}

void
FaultyAccelOperator::applyBatch(std::span<const double> X,
                                std::span<double> Y, unsigned k)
{
    applyPanel(X, Y, k, "fault.apply_batch");
}

void
FaultyAccelOperator::applyPanel(std::span<const double> X,
                                std::span<double> Y, unsigned k,
                                const char *spanName)
{
    const auto nc = static_cast<std::size_t>(matCols);
    const auto nr = static_cast<std::size_t>(matRows);
    if (k == 0)
        fatal("FaultyAccelOperator: empty batch");
    if (X.size() != nc * k || Y.size() != nr * k)
        fatal("FaultyAccelOperator: dimension mismatch");

    telemetry::Span span(spanName);

    // Local-processor part: unblockable leftovers, always exact, per
    // column in column order.
    for (unsigned c = 0; c < k; ++c) {
        plan.unblocked.spmv(X.subspan(c * nc, nc),
                            Y.subspan(c * nr, nr));
    }

    const double inf = std::numeric_limits<double>::infinity();
    const std::uint64_t seq0 = applySeq;
    applySeq += k;

    // Every block works against its own scratch panel. Column c
    // draws from the transient stream keyed by (apply sequence
    // seq0 + c, block) and sees the drift level of read count
    // reads0 + c, so every injected fault lands positionally where k
    // one-column applies would have put it, independent of the lane
    // count. The execution context is polled per block batch.
    parallelFor(
        plan.blocks.size(),
        [&](std::size_t kb) {
        telemetry::Span blockSpan("fault.block");
        ctrBlockSpans.add(k);
        const MatrixBlock &blk = plan.blocks[kb];
        BlockState &st = state[kb];
        ApplyScratch &sc = scratch[kb];
        sc.colStats.assign(k, FaultStats{});
        sc.yLocal.assign(static_cast<std::size_t>(blk.size) * k,
                         0.0);
        const std::uint64_t reads0 = st.reads;

        for (unsigned c = 0; c < k; ++c) {
            double *yLocal = sc.yLocal.data() +
                             static_cast<std::size_t>(c) * blk.size;
            const std::span<const double> x =
                X.subspan(c * nc, nc);

            if (st.exact) {
                // Degraded: the digital CSR path computes this
                // block (and performs no crossbar read).
                for (const Triplet &el : blk.elems) {
                    const std::int64_t row = blk.rowOrigin + el.row;
                    const std::int64_t col = blk.colOrigin + el.col;
                    if (row < matRows && col < matCols) {
                        yLocal[static_cast<std::size_t>(el.row)] +=
                            el.val *
                            x[static_cast<std::size_t>(col)];
                    }
                }
                continue;
            }
            if (st.dead) {
                // A dead crossbar silently contributes nothing; its
                // read counter still ticks once per column (below).
                continue;
            }

            for (const Triplet &el : blk.elems) {
                const std::int64_t col = blk.colOrigin + el.col;
                if (col < matCols) {
                    yLocal[static_cast<std::size_t>(el.row)] +=
                        el.val * x[static_cast<std::size_t>(col)];
                }
            }
            for (const StuckGlitch &g : st.stuck) {
                const Triplet &el = blk.elems[g.elem];
                const std::int64_t col = blk.colOrigin + el.col;
                if (col < matCols) {
                    yLocal[static_cast<std::size_t>(el.row)] +=
                        g.delta * x[static_cast<std::size_t>(col)];
                }
            }
            if (camp.driftPerRead > 0.0) {
                const double level =
                    camp.driftPerRead *
                    static_cast<double>(reads0 + c);
                for (unsigned i = 0; i < blk.size; ++i)
                    yLocal[i] += st.driftDir[i] * level * yLocal[i];
            }
            if (st.stuckColumn >= 0)
                yLocal[static_cast<std::size_t>(st.stuckColumn)] =
                    st.stuckValue;
            if (camp.transientUpsetRate > 0.0) {
                Rng transient = injector.streamFor(transientUnit(
                    seq0 + c, plan.blocks.size(), kb));
                if (transient.chance(camp.transientUpsetRate)) {
                    const auto row = static_cast<std::size_t>(
                        transient.below(blk.size));
                    if (transient.chance(camp.saturationRate)) {
                        yLocal[row] = inf;
                        ++sc.colStats[c].saturatedConversions;
                    } else {
                        // A surviving multi-bit upset lands near the
                        // top of the output's significance window.
                        const double mag = std::fabs(yLocal[row]);
                        yLocal[row] +=
                            (transient.chance(0.5) ? 1.0 : -1.0) *
                            std::ldexp(mag != 0.0 ? mag : 1.0,
                                       static_cast<int>(
                                           transient.range(-2, 8)));
                        ++sc.colStats[c].transientUpsets;
                    }
                }
            }
        }
        // Reads tick once per column, except on a degraded block
        // (the digital path performs no crossbar read).
        if (!st.exact)
            st.reads += k;
        },
        1, exec);

    // Fixed reduction in (column, block) order -- the order k
    // one-column applies fold -- so y and the fault counters come
    // out bit-identical for any thread count.
    for (unsigned c = 0; c < k; ++c) {
        const std::span<double> y = Y.subspan(c * nr, nr);
        for (std::size_t kb = 0; kb < plan.blocks.size(); ++kb) {
            const MatrixBlock &blk = plan.blocks[kb];
            const BlockState &st = state[kb];
            const ApplyScratch &sc = scratch[kb];
            const FaultStats &fs = sc.colStats[c];
            applyStats.transientUpsets += fs.transientUpsets;
            applyStats.saturatedConversions +=
                fs.saturatedConversions;
            ctrTransients.add(fs.transientUpsets);
            ctrSaturated.add(fs.saturatedConversions);
            if (st.dead && !st.exact)
                continue;
            const double *yLocal =
                sc.yLocal.data() +
                static_cast<std::size_t>(c) * blk.size;
            for (unsigned i = 0; i < blk.size; ++i) {
                const std::int64_t row = blk.rowOrigin + i;
                if (row < matRows)
                    y[static_cast<std::size_t>(row)] += yLocal[i];
            }
        }
    }
}

std::size_t
FaultyAccelOperator::blockCount() const
{
    return plan.blocks.size();
}

std::vector<std::size_t>
FaultyAccelOperator::scrub()
{
    // AN-readback scan: persistent damage is visible by reading the
    // stored words back and checking residues; transient upsets
    // leave no trace. Degraded blocks have no mapped hardware left.
    ctrScrubScans.add();
    std::vector<std::size_t> suspects;
    for (std::size_t k = 0; k < state.size(); ++k) {
        const BlockState &st = state[k];
        if (st.exact)
            continue;
        const bool drifted =
            camp.driftPerRead > 0.0 &&
            camp.driftPerRead * static_cast<double>(st.reads) >
                camp.driftScrubThreshold;
        if (st.dead || st.stuckColumn >= 0 || !st.stuck.empty() ||
            drifted)
            suspects.push_back(k);
    }
    return suspects;
}

bool
FaultyAccelOperator::reprogram(std::size_t block)
{
    if (block >= state.size())
        fatal("FaultyAccelOperator::reprogram: no such block");
    BlockState &st = state[block];
    if (st.exact)
        return true;
    ctrReprograms.add();
    // A rewrite with spare-row remapping clears cell-level damage
    // and resets drift; it cannot resurrect dead periphery.
    st.stuck.clear();
    st.reads = 0;
    return !st.dead && st.stuckColumn < 0;
}

void
FaultyAccelOperator::degrade(std::size_t block)
{
    if (block >= state.size())
        fatal("FaultyAccelOperator::degrade: no such block");
    if (!state[block].exact)
        ctrDegrades.add();
    state[block].exact = true;
}

bool
FaultyAccelOperator::isDegraded(std::size_t block) const
{
    if (block >= state.size())
        fatal("FaultyAccelOperator::isDegraded: no such block");
    return state[block].exact;
}

bool
FaultyAccelOperator::blockDead(std::size_t block) const
{
    return state.at(block).dead;
}

int
FaultyAccelOperator::blockStuckColumn(std::size_t block) const
{
    return state.at(block).stuckColumn;
}

std::size_t
FaultyAccelOperator::blockStuckCells(std::size_t block) const
{
    return state.at(block).stuck.size();
}

std::uint64_t
FaultyAccelOperator::blockReads(std::size_t block) const
{
    return state.at(block).reads;
}

} // namespace msc
