#include "cluster/hw_cluster.hh"

#include <algorithm>
#include <bit>

#include "fault/fault.hh"
#include "util/logging.hh"
#include "util/telemetry.hh"
#include "util/threadpool.hh"

namespace msc {

namespace {

// ADC activity and AN-code outcomes per multiply, recorded from the
// merged stats on the calling thread (deterministic totals).
constinit telemetry::Counter ctrAdc{"hw.adc_conversions"};
constinit telemetry::Counter ctrAnClean{"hw.an_clean"};
constinit telemetry::Counter ctrAnCorrected{"hw.an_corrected"};
constinit telemetry::Counter
    ctrAnUncorrectable{"hw.an_uncorrectable"};
constinit telemetry::Counter
    ctrCicInverted{"hw.cic_inverted_columns"};

/**
 * Exact, unfaulted reduction of one (row, vector-slice) scan: counts
 * are <= blockSize < 2^32, so the shift-and-add reduction of the
 * slices below and above bit 64 fits two 128-bit accumulators (each
 * < 2^96) -- the same integer sum addShifted computes, without a
 * U256 temporary or a carry chain per read. The sum stays below
 * 2^160, inside the 256-bit word.
 */
inline U256
reduceRowSlice(const std::uint64_t *rowCols,
               const std::uint8_t *rowInv, const std::uint64_t *in,
               std::uint64_t pc, unsigned nSlices, unsigned nw)
{
    using Acc = unsigned __int128;
    Acc lo = 0; //!< slices 0..63 at weight 2^b
    Acc hi = 0; //!< slices 64.. at weight 2^(b - 64)
    for (unsigned b = 0; b < nSlices; ++b) {
        const std::uint64_t *cw =
            rowCols + static_cast<std::size_t>(b) * nw;
        std::uint64_t n = 0;
        for (unsigned w = 0; w < nw; ++w)
            n += static_cast<std::uint64_t>(
                std::popcount(cw[w] & in[w]));
        // Exact reads never exceed pc, so the CIC correction cannot
        // go negative here.
        if (rowInv[b])
            n = pc - n;
        if (b < 64)
            lo += static_cast<Acc>(n) << b;
        else
            hi += static_cast<Acc>(n) << (b - 64);
    }
    // lo + hi * 2^64, limb by limb.
    const Acc mid = (lo >> 64) + static_cast<std::uint64_t>(hi);
    const Acc top = (hi >> 64) + (mid >> 64);
    U256 reduced;
    reduced.setWord(0, static_cast<std::uint64_t>(lo));
    reduced.setWord(1, static_cast<std::uint64_t>(mid));
    reduced.setWord(2, static_cast<std::uint64_t>(top));
    reduced.setWord(3, static_cast<std::uint64_t>(top >> 64));
    return reduced;
}

} // namespace

HwClusterStats &
operator+=(HwClusterStats &into, const HwClusterStats &s)
{
    into.sliceWords += s.sliceWords;
    into.cleanWords += s.cleanWords;
    into.correctedWords += s.correctedWords;
    into.uncorrectableWords += s.uncorrectableWords;
    into.cicInvertedColumns += s.cicInvertedColumns;
    return into;
}

HwCluster::HwCluster(const Config &config)
    : cfg(config), an(config.anConstant, fxp::operandBits)
{
    if (cfg.size < 2)
        fatal("HwCluster: size must be >= 2");
}

void
HwCluster::program(const MatrixBlock &block)
{
    if (block.size == 0 || block.size > cfg.size)
        fatal("HwCluster::program: block does not fit");
    blockSize = block.size;

    std::vector<double> vals;
    vals.reserve(block.elems.size());
    for (const auto &t : block.elems) {
        if (t.row < 0 || t.col < 0 ||
            t.row >= static_cast<std::int32_t>(blockSize) ||
            t.col >= static_cast<std::int32_t>(blockSize))
            fatal("HwCluster::program: element outside block");
        vals.push_back(t.val);
    }
    const AlignedSet aligned = alignValues(vals);
    const BiasedSet biased = biasEncode(aligned);
    blockScale = aligned.scale;
    storedBias = cfg.anProtect ? an.encode(biased.bias())
                               : U256::from(biased.bias());

    // Dense stored-word grid: zero cells hold the bias pattern.
    std::vector<U256> stored(
        static_cast<std::size_t>(blockSize) * blockSize, storedBias);
    rowSumF.assign(blockSize, {});
    nSlices = storedBias.bitLength();
    for (std::size_t e = 0; e < block.elems.size(); ++e) {
        const Triplet &t = block.elems[e];
        const U256 word = cfg.anProtect
            ? an.encode(biased.stored[e])
            : U256::from(biased.stored[e]);
        stored[static_cast<std::size_t>(t.row) * blockSize +
               static_cast<std::size_t>(t.col)] = word;
        nSlices = std::max(nSlices, word.bitLength());
        RowSum &rs = rowSumF[static_cast<std::size_t>(t.row)];
        SignedWord tmp{rs.neg, rs.mag};
        tmp.add(aligned.neg[e] != 0, U256::from(aligned.mag[e]));
        rs.neg = tmp.neg;
        rs.mag = tmp.mag;
    }
    if (nSlices > fxp::encodedBits)
        panic("HwCluster::program: operand too wide");

    // Materialize one binary crossbar per bit slice. Crossbar row =
    // block column (vector input); crossbar column = block row.
    slices.assign(nSlices, BinaryCrossbar(blockSize, blockSize));
    for (unsigned i = 0; i < blockSize; ++i) {
        for (unsigned j = 0; j < blockSize; ++j) {
            const U256 &word =
                stored[static_cast<std::size_t>(i) * blockSize + j];
            for (unsigned b = 0; b < nSlices; ++b) {
                if (word.bit(b))
                    slices[b].set(j, i);
            }
        }
    }
    if (cfg.cic) {
        for (auto &xbar : slices)
            xbar.applyCic();
    }
    programmed = true;
}

void
HwCluster::injectStuckCell(unsigned slice, unsigned blockRow,
                           unsigned blockCol, bool value)
{
    if (!programmed)
        fatal("HwCluster::injectStuckCell: program() first");
    if (slice >= nSlices)
        fatal("HwCluster::injectStuckCell: no such slice");
    // The physical cell stores the (possibly CIC-inverted) bit.
    const bool stored = slices[slice].columnInverted(blockRow)
        ? !value : value;
    slices[slice].set(blockCol, blockRow, stored);
}

void
HwCluster::flipCell(unsigned slice, unsigned blockRow,
                    unsigned blockCol)
{
    if (!programmed)
        fatal("HwCluster::flipCell: program() first");
    if (slice >= nSlices)
        fatal("HwCluster::flipCell: no such slice");
    const bool cur = slices[slice].get(blockCol, blockRow);
    slices[slice].set(blockCol, blockRow, !cur);
}

void
HwCluster::killSlice(unsigned slice)
{
    if (!programmed)
        fatal("HwCluster::killSlice: program() first");
    if (slice >= nSlices)
        fatal("HwCluster::killSlice: no such slice");
    slices[slice].clear();
}

std::size_t
HwCluster::scrub() const
{
    if (!programmed)
        fatal("HwCluster::scrub: program() first");
    if (!cfg.anProtect)
        return 0;
    std::size_t corrupt = 0;
    for (unsigned i = 0; i < blockSize; ++i) {
        for (unsigned j = 0; j < blockSize; ++j) {
            // Reconstruct the logical stored word at block (i, j):
            // crossbar row j, column i, un-inverting CIC columns.
            U256 word;
            for (unsigned b = 0; b < nSlices; ++b) {
                bool bit = slices[b].get(j, i);
                if (slices[b].columnInverted(i))
                    bit = !bit;
                if (bit)
                    word.setBit(b);
            }
            if (!an.check(word))
                ++corrupt;
        }
    }
    return corrupt;
}

void
HwCluster::flattenColumns(unsigned nw)
{
    colWordsScratch.resize(
        static_cast<std::size_t>(blockSize) * nSlices * nw);
    colInvScratch.resize(
        static_cast<std::size_t>(blockSize) * nSlices);
    for (unsigned b = 0; b < nSlices; ++b) {
        for (unsigned i = 0; i < blockSize; ++i) {
            const auto &words = slices[b].column(i).raw();
            std::uint64_t *dst = &colWordsScratch[
                (static_cast<std::size_t>(i) * nSlices + b) * nw];
            for (unsigned w = 0; w < nw; ++w)
                dst[w] = words[w];
            colInvScratch[static_cast<std::size_t>(i) * nSlices + b] =
                slices[b].columnInverted(i) ? 1 : 0;
        }
    }
}

HwClusterStats
HwCluster::multiply(std::span<const double> x, std::span<double> y,
                    Rng *rng)
{
    return multiplyPanel(x, y, 1, rng, "hw.multiply");
}

HwClusterStats
HwCluster::multiply(std::span<const double> X, std::span<double> Y,
                    unsigned k, Rng *rng)
{
    return multiplyPanel(X, Y, k, rng, "hw.multiply_batch");
}

HwClusterStats
HwCluster::multiplyPanel(std::span<const double> X,
                         std::span<double> Y, unsigned k, Rng *rng,
                         const char *spanName)
{
    if (!programmed)
        fatal("HwCluster::multiply: program() first");
    if (k == 0)
        fatal("HwCluster::multiply: batch needs at least one column");
    const std::size_t panel =
        static_cast<std::size_t>(blockSize) * k;
    if (X.size() != panel || Y.size() != panel)
        fatal("HwCluster::multiply: panel size mismatch");

    telemetry::Span span(spanName);
    HwClusterStats stats;
    for (const auto &xbar : slices) {
        for (unsigned i = 0; i < blockSize; ++i)
            stats.cicInvertedColumns +=
                xbar.columnInverted(i) ? 1 : 0;
    }
    // Every column reports the same census.
    stats.cicInvertedColumns *= k;

    // Per-column front end: vector alignment (no peeling here: the
    // verification harness feeds in-range vectors; out-of-range input
    // is a fatal), active slices (MSB first), and running sums
    // initialized with the folded vector-bias correction -bX *
    // rowSumF. The de-bias term of a reduced word, storedBias *
    // popcount(slice), depends only on the slice, so it is
    // precomputed here instead of per (row, slice) in the scan.
    accBatch.assign(panel, SignedWord{});
    std::vector<int> outScale(k);
    std::vector<std::vector<VectorSlice>> activeC(k);
    std::vector<std::vector<U256>> biasTermsC(k);
    for (unsigned c = 0; c < k; ++c) {
        const AlignedSet vx = alignValues(X.subspan(
            static_cast<std::size_t>(c) * blockSize, blockSize));
        const BiasedSet ux = biasEncode(vx);
        outScale[c] = blockScale + vx.scale;
        activeC[c] = activeBitSlices(ux);
        biasTermsC[c].reserve(activeC[c].size());
        for (const VectorSlice &vs : activeC[c]) {
            U256 term = storedBias;
            term.mulSmall(vs.pc);
            biasTermsC[c].push_back(term);
        }
        SignedWord *const acc =
            accBatch.data() + static_cast<std::size_t>(c) * blockSize;
        for (unsigned i = 0; i < blockSize; ++i) {
            U256 init = rowSumF[i].mag << ux.biasBits;
            if (cfg.anProtect)
                init.mulSmall(cfg.anConstant);
            acc[i].neg = !rowSumF[i].neg;
            acc[i].mag = init;
            if (init.isZero())
                acc[i].neg = false;
        }
    }

    const ColumnReadModel readModel(cfg.cell);

    // Exact reads are popcounts against the stored column bits, so
    // flatten every (row, slice) column into one contiguous word
    // matrix up front -- [row][slice][word], inner scan order -- and
    // hoist the CIC flags next to it. It is shared by every (row,
    // column) scan; the flatten pays the BitVec indirections once
    // instead of per read. Analog reads keep drawing through the
    // device model, which owns the noise stream order.
    const unsigned nw =
        static_cast<unsigned>((blockSize + 63) / 64);
    if (!cfg.analogReads)
        flattenColumns(nw);
    const bool fastReads = !cfg.analogReads && !injector;

    // One output row of one column through every active slice: steps
    // 2-6 of the dataflow. (Row, column) scans are independent of
    // each other.
    auto scanRow = [&](unsigned c, unsigned i, Rng *rowRng,
                       HwClusterStats &st) {
        const std::uint64_t *rowCols = cfg.analogReads
            ? nullptr
            : &colWordsScratch[
                  static_cast<std::size_t>(i) * nSlices * nw];
        const std::uint8_t *rowInv = cfg.analogReads
            ? nullptr
            : &colInvScratch[static_cast<std::size_t>(i) * nSlices];
        const auto &active = activeC[c];
        const auto &biasTerms = biasTermsC[c];
        SignedWord &acc =
            accBatch[static_cast<std::size_t>(c) * blockSize + i];
        for (std::size_t si = 0; si < active.size(); ++si) {
            const VectorSlice &vs = active[si];
            const std::uint64_t *in = vs.bits.raw().data();
            // 2. + 3. ADC scans and shift-and-add reduction.
            U256 reduced;
            if (fastReads) {
                reduced = reduceRowSlice(rowCols, rowInv, in, vs.pc,
                                         nSlices, nw);
            } else {
                for (unsigned b = 0; b < nSlices; ++b) {
                    std::int64_t count;
                    bool invertedCol;
                    if (cfg.analogReads) {
                        count = slices[b].readColumnNoisy(
                            i, vs.bits, readModel, rowRng);
                        invertedCol = slices[b].columnInverted(i);
                    } else {
                        const std::uint64_t *cw = rowCols +
                            static_cast<std::size_t>(b) * nw;
                        std::uint64_t n = 0;
                        for (unsigned w = 0; w < nw; ++w)
                            n += static_cast<std::uint64_t>(
                                std::popcount(cw[w] & in[w]));
                        count = static_cast<std::int64_t>(n);
                        invertedCol = rowInv[b] != 0;
                    }
                    // Transient upsets and stuck ADC columns strike
                    // the raw conversion, before the digital CIC
                    // correction.
                    if (injector) {
                        count = injector->faultedRead(
                            b, i, count,
                            static_cast<std::int64_t>(blockSize));
                    }
                    if (invertedCol) {
                        count =
                            static_cast<std::int64_t>(vs.pc) - count;
                        // An analog over-read can push the digital
                        // CIC correction negative; clamp like
                        // hardware would.
                        count = std::max<std::int64_t>(count, 0);
                    }
                    U256 contrib(static_cast<std::uint64_t>(count));
                    reduced.addShifted(contrib, b);
                }
            }
            ++st.sliceWords;

            // 4. de-bias: subtract storedBias * popcount.
            const U256 &biasTerm = biasTerms[si];
            SignedWord word;
            if (reduced >= biasTerm) {
                word.neg = false;
                word.mag = reduced - biasTerm;
            } else {
                word.neg = true;
                word.mag = biasTerm - reduced;
            }

            // 5. AN correction on the de-biased (signed) word.
            if (cfg.anProtect) {
                switch (an.correctSigned(word.mag, word.neg)) {
                  case AnCode::Outcome::Clean:
                    ++st.cleanWords;
                    break;
                  case AnCode::Outcome::Corrected:
                    ++st.correctedWords;
                    break;
                  case AnCode::Outcome::Uncorrectable:
                    ++st.uncorrectableWords;
                    break;
                }
            } else {
                ++st.cleanWords;
            }

            // 6. update the running sum at weight 2^k.
            acc.add(word.neg, word.mag << vs.k);
        }
    };

    if (injector) {
        // faultedRead mutates shared injector state (its transient
        // stream and counters), so an attached injector pins the
        // scan to column-outer, row-sequential order -- the order k
        // one-column calls visit -- with the caller's generator
        // shared by every read.
        for (unsigned c = 0; c < k; ++c) {
            for (unsigned i = 0; i < blockSize; ++i)
                scanRow(c, i, rng, stats);
        }
    } else {
        // Rows scan in parallel over all k columns. Analog noise
        // streams are split off the caller's generator up front, one
        // per (column, row) in column-major order, so the draws a
        // scan sees depend only on its position -- never on the lane
        // count -- and are bitwise those of k one-column calls.
        std::vector<Rng> rowRngs;
        if (cfg.analogReads && rng) {
            rowRngs.reserve(panel);
            for (std::size_t r = 0; r < panel; ++r)
                rowRngs.emplace_back(rng->next());
        }
        partScratch.assign(blockSize, HwClusterStats{});
        parallelFor(blockSize, [&](std::size_t i) {
            for (unsigned c = 0; c < k; ++c) {
                scanRow(c, static_cast<unsigned>(i),
                        rowRngs.empty()
                            ? nullptr
                            : &rowRngs[static_cast<std::size_t>(c) *
                                           blockSize + i],
                        partScratch[i]);
            }
        });
        // The stats counters are order-independent integer totals.
        for (const HwClusterStats &p : partScratch) {
            stats.sliceWords += p.sliceWords;
            stats.cleanWords += p.cleanWords;
            stats.correctedWords += p.correctedWords;
            stats.uncorrectableWords += p.uncorrectableWords;
        }
    }

    // Final conversion: decode and round, column by column.
    for (unsigned c = 0; c < k; ++c) {
        const SignedWord *acc =
            accBatch.data() + static_cast<std::size_t>(c) * blockSize;
        const std::span<double> yc = Y.subspan(
            static_cast<std::size_t>(c) * blockSize, blockSize);
        for (unsigned i = 0; i < blockSize; ++i) {
            U256 mag = acc[i].mag;
            if (cfg.anProtect) {
                const std::uint64_t rem =
                    mag.divSmall(cfg.anConstant);
                // Residual uncorrected damage: fold the remainder
                // away (truncation) and count it.
                if (rem != 0)
                    ++stats.uncorrectableWords;
            }
            yc[i] = fixedToDouble(acc[i].neg, mag, outScale[c],
                                  cfg.rounding);
        }
    }

    // Every reduced word took one ADC conversion per weight slice.
    ctrAdc.add(stats.sliceWords * nSlices);
    ctrAnClean.add(stats.cleanWords);
    ctrAnCorrected.add(stats.correctedWords);
    ctrAnUncorrectable.add(stats.uncorrectableWords);
    ctrCicInverted.add(stats.cicInvertedColumns);
    return stats;
}

} // namespace msc
