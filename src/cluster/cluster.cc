#include "cluster/cluster.hh"

#include <algorithm>
#include <cmath>
#include <memory>

#include "util/intlog.hh"
#include "util/logging.hh"

namespace msc {

ClusterStats &
operator+=(ClusterStats &into, const ClusterStats &s)
{
    into.matrixSlices += s.matrixSlices;
    into.vectorSlices += s.vectorSlices;
    into.groupsTotal += s.groupsTotal;
    into.groupsExecuted += s.groupsExecuted;
    into.xbarActivations += s.xbarActivations;
    into.adcConversions += s.adcConversions;
    into.conversionsSkipped += s.conversionsSkipped;
    into.columnsEarlyTerminated += s.columnsEarlyTerminated;
    into.emptyColumns += s.emptyColumns;
    into.peeledVectorElements += s.peeledVectorElements;
    into.cycles += s.cycles;
    into.latency += s.latency;
    into.energy += s.energy;
    into.adcEnergy += s.adcEnergy;
    into.arrayEnergy += s.arrayEnergy;
    return into;
}

Cluster::Cluster(const ClusterConfig &config)
    : cfg(config), xbarModel(config.size, config.xbar, config.cic),
      an(config.anConstant, fxp::operandBits)
{
    if (cfg.targetMantissaBits == 0 || cfg.targetMantissaBits > 53)
        fatal("Cluster: targetMantissaBits must be in [1, 53]");
    if (cfg.anProtect && an.uniqueWindow() < fxp::encodedBits) {
        warn("Cluster: AN constant ", cfg.anConstant,
             " cannot uniquely correct over ", fxp::encodedBits,
             " bits (window ", an.uniqueWindow(), ")");
    }
    // ADC start bits never exceed bitsForCount(size) (a column has at
    // most `size` stored ones); memoize the per-conversion energy so
    // the per-group accounting loop is a table load instead of a
    // model evaluation.
    const unsigned maxStart = bitsForCount(cfg.size);
    convEnergyByStart.resize(maxStart + 1);
    for (unsigned s = 0; s <= maxStart; ++s)
        convEnergyByStart[s] = xbarModel.conversionEnergy(s);
    arrayOpE = xbarModel.arrayOpEnergy();
}

ClusterProgramInfo
Cluster::program(const MatrixBlock &block)
{
    if (block.size == 0 || block.size > cfg.size) {
        fatal("Cluster::program: block size ", block.size,
              " does not fit cluster size ", cfg.size);
    }
    blockSize = block.size;

    std::vector<double> vals;
    vals.reserve(block.elems.size());
    for (const auto &t : block.elems) {
        if (t.row < 0 || t.col < 0 ||
            t.row >= static_cast<std::int32_t>(block.size) ||
            t.col >= static_cast<std::int32_t>(block.size)) {
            fatal("Cluster::program: element outside block");
        }
        vals.push_back(t.val);
    }

    // Exponent-range locality: alignValues is fatal beyond 64; the
    // blocking preprocessor must have evicted out-of-range elements.
    const AlignedSet aligned = alignValues(vals);
    const BiasedSet biased = biasEncode(aligned);
    blockScale = aligned.scale;
    storedBits = biased.width();

    storedBias = cfg.anProtect ? an.encode(biased.bias())
                               : U256::from(biased.bias());

    // Flatten the elements row-major (CSR-like): the multiply hot
    // loop walks each row's columns and contribution-table entries
    // linearly instead of chasing per-row vectors.
    const std::size_t nnz = block.elems.size();
    rowPtr.assign(blockSize + 1, 0);
    for (const Triplet &t : block.elems)
        ++rowPtr[static_cast<std::size_t>(t.row) + 1];
    for (unsigned i = 0; i < blockSize; ++i)
        rowPtr[i + 1] += rowPtr[i];
    elemCol.assign(nnz, 0);
    elemStored.assign(nnz, U256{});
    elemMag.assign(nnz, U128{});
    elemNeg.assign(nnz, 0);
    rowSumF.assign(blockSize, {});
    std::vector<std::uint32_t> cursor(rowPtr.begin(),
                                      rowPtr.end() - 1);
    encodedBits = storedBias.bitLength();
    for (std::size_t e = 0; e < nnz; ++e) {
        const Triplet &t = block.elems[e];
        const U256 stored = cfg.anProtect
            ? an.encode(biased.stored[e])
            : U256::from(biased.stored[e]);
        encodedBits = std::max(encodedBits, stored.bitLength());
        const auto row = static_cast<std::size_t>(t.row);
        const std::uint32_t at = cursor[row]++;
        elemCol[at] = t.col;
        elemStored[at] = stored;
        elemMag[at] = aligned.mag[e];
        elemNeg[at] = aligned.neg[e];
        rowSumF[row].add(aligned.neg[e] != 0,
                         U256::from(aligned.mag[e]));
    }
    if (encodedBits > fxp::encodedBits) {
        panic("Cluster::program: encoded operand width ", encodedBits,
              " exceeds ", fxp::encodedBits);
    }

    // Per (slice, block row) stored-ones census for CIC and ADC
    // headstart. Zero cells store the bias pattern.
    sliceOnes.assign(encodedBits,
                     std::vector<std::uint16_t>(blockSize, 0));
    progInfo = ClusterProgramInfo{};
    std::uint64_t setBits = 0;
    for (unsigned i = 0; i < blockSize; ++i) {
        const auto zeroCells = static_cast<std::uint32_t>(
            blockSize - (rowPtr[i + 1] - rowPtr[i]));
        for (unsigned b = 0; b < encodedBits; ++b) {
            std::uint32_t ones = 0;
            if (storedBias.bit(b))
                ones += zeroCells;
            for (std::uint32_t e = rowPtr[i]; e < rowPtr[i + 1]; ++e)
                ones += elemStored[e].bit(b) ? 1 : 0;
            if (2 * ones > blockSize) {
                ++progInfo.cicInvertedColumns;
                ones = blockSize - ones;
            } else if (2 * ones == blockSize && ones != 0) {
                ++progInfo.cicCornerCases;
            }
            sliceOnes[b][i] = static_cast<std::uint16_t>(ones);
            setBits += ones;
        }
    }

    // Resolve the per-conversion ADC energy once per (slice, row):
    // the headstart preset depends only on the stored-ones census,
    // so every multiply -- and every column of a batched multiply --
    // reads the same table instead of re-deriving start bits.
    const unsigned resBits = xbarModel.adcResolutionBits();
    adcConvE.assign(
        static_cast<std::size_t>(encodedBits) * blockSize, 0.0);
    for (unsigned b = 0; b < encodedBits; ++b) {
        for (unsigned i = 0; i < blockSize; ++i) {
            const unsigned start = cfg.adcHeadstart
                ? bitsForCount(sliceOnes[b][i]) : resBits;
            adcConvE[static_cast<std::size_t>(b) * blockSize + i] =
                convEnergyByStart[start];
        }
    }

    // The contribution tables derive from the stored operands:
    // invalidate the cache; multiplies rebuild ranges lazily.
    tables.clear();
    tableIdx.assign(static_cast<std::size_t>(encodedBits + 1) *
                        (encodedBits + 1),
                    -1);

    progInfo.matrixSlices = encodedBits;
    progInfo.storedBits = storedBits;
    progInfo.scale = blockScale;
    // Only SET operations cost write energy; bulk RESET of the bank
    // is amortized. Programming proceeds row-by-row within a
    // crossbar, bit slices sequentially (one write driver set per
    // cluster), clusters in parallel.
    progInfo.cellsWritten = setBits;
    progInfo.programTime = encodedBits * xbarModel.programTime();
    progInfo.programEnergy = xbarModel.programEnergy(setBits);
    isProgrammed = true;
    return progInfo;
}

bool
Cluster::settled(const U256 &mag, int bound, unsigned prec)
{
    const int len = static_cast<int>(mag.bitLength());
    const int wb = len - static_cast<int>(prec);
    if (wb <= bound + 1)
        return false;
    // The gap (bound, wb) must hold a 0 (absorbs the single carry the
    // remaining positive contributions can generate) and a 1 (absorbs
    // the single borrow the remaining negative contributions can
    // generate), so the top prec bits and the leading-one position
    // are final.
    bool sawZero = false;
    bool sawOne = false;
    const int lo = std::max(bound + 1, 0);
    for (int p = lo; p < wb; ++p) {
        if (mag.bit(static_cast<unsigned>(p)))
            sawOne = true;
        else
            sawZero = true;
        if (sawZero && sawOne)
            return true;
    }
    return false;
}

double
Cluster::convert(const SignedAcc &acc, int scale, bool exact) const
{
    U256 mag = acc.mag;
    if (cfg.anProtect) {
        const std::uint64_t rem = mag.divSmall(cfg.anConstant);
        if (exact && rem != 0) {
            panic("Cluster::convert: accumulator not a multiple of A "
                  "(residue ", rem, ")");
        }
    }
    if (exact) {
        return fixedToDouble(acc.neg, mag, scale, cfg.rounding,
                             cfg.targetMantissaBits);
    }

    // Early-terminated: the top target+guard bits are settled and
    // the true remainder is strictly between 0 and one guard-ulp.
    // Clear the unsettled tail and synthesize a sticky bit.
    const unsigned prec = cfg.targetMantissaBits + 3;
    const unsigned len = mag.bitLength();
    if (len <= prec)
        panic("Cluster::convert: terminated accumulator too narrow");
    const unsigned wb = len - prec;
    U256 head = mag >> wb;
    U256 synth = head << wb;
    synth.setBit(wb - 1);
    return fixedToDouble(acc.neg, synth, scale, cfg.rounding,
                         cfg.targetMantissaBits);
}

const Cluster::RangeTable &
Cluster::rangeTable(unsigned bLo, unsigned bHi)
{
    // NOTE: building a new range may reallocate `tables`; callers
    // pre-build every range of a schedule (one pass over its groups)
    // before the group loop takes RangeTable references.
    const std::size_t dim = encodedBits + 1;
    std::int16_t &idx = tableIdx[bLo * dim + bHi];
    if (idx >= 0)
        return tables[static_cast<std::size_t>(idx)];

    const std::size_t nnz = elemCol.size();
    RangeTable t;
    t.bLo = bLo;
    const unsigned width = bHi - bLo + 1;
    t.small = width <= 15;
    if (t.small) {
        const auto biasPart = static_cast<std::int32_t>(
            storedBias.extractBits(bLo, width));
        t.delta.resize(nnz);
        for (std::size_t e = 0; e < nnz; ++e) {
            t.delta[e] = static_cast<std::int16_t>(
                static_cast<std::int32_t>(
                    elemStored[e].extractBits(bLo, width)) -
                biasPart);
        }
    } else {
        U256 mask;
        for (unsigned b = bLo; b <= bHi; ++b)
            mask.setBit(b);
        const U256 biasPart = storedBias & mask;
        t.negW.resize(nnz);
        t.magW.resize(nnz);
        for (std::size_t e = 0; e < nnz; ++e) {
            const U256 val = elemStored[e] & mask;
            U256 d;
            if (val >= biasPart) {
                d = val - biasPart;
                t.negW[e] = 0;
            } else {
                d = biasPart - val;
                t.negW[e] = 1;
            }
            d >>= bLo;
            t.magW[e] = U128::from(d);
        }
    }
    idx = static_cast<std::int16_t>(tables.size());
    tables.push_back(std::move(t));
    return tables.back();
}

void
Cluster::addSmall(SignedAcc &a, bool neg, std::uint64_t m,
                  unsigned shift)
{
    U256 v;
    const unsigned wi = shift / 64;
    const unsigned bi = shift % 64;
    v.setWord(wi, m << bi);
    if (bi && wi + 1 < U256::numWords)
        v.setWord(wi + 1, m >> (64 - bi));
    a.add(neg, v);
}

void
Cluster::addPartial(SignedAcc &a, __int128 v, unsigned shift)
{
    const bool neg = v < 0;
    const auto m = neg ? -static_cast<unsigned __int128>(v)
                       : static_cast<unsigned __int128>(v);
    const auto lo = static_cast<std::uint64_t>(m);
    const auto hi = static_cast<std::uint64_t>(m >> 64);
    const unsigned wi = shift / 64;
    const unsigned bi = shift % 64;
    const std::uint64_t words[3] = {
        lo << bi,
        bi ? (hi << bi) | (lo >> (64 - bi)) : hi,
        bi ? hi >> (64 - bi) : 0,
    };
    U256 w;
    for (unsigned j = 0; j < 3 && wi + j < U256::numWords; ++j)
        w.setWord(wi + j, words[j]);
    a.add(neg, w);
}

void
Cluster::peelVector(std::span<const double> x,
                    std::span<double> masked, ClusterStats &stats,
                    std::vector<std::int32_t> *peeled)
{
    std::copy(x.begin(), x.end(), masked.begin());
    if (peeled)
        peeled->clear();
    // Choose the 64-wide exponent window keeping the most elements;
    // peel the rest for digital handling by the bank.
    auto &exps = expsScratch;
    exps.clear();
    for (std::size_t j = 0; j < masked.size(); ++j) {
        const Fp64Parts p = decompose(masked[j]);
        if (!p.isFinite())
            fatal("Cluster::multiply: non-finite vector element");
        if (p.isZero())
            continue;
        const int lead = p.exp -
            (52 - (63 - std::countl_zero(p.mant)));
        exps.push_back({lead, static_cast<std::int32_t>(j)});
    }
    std::sort(exps.begin(), exps.end());
    if (!exps.empty() &&
        exps.back().first - exps.front().first > fxp::maxExpRange) {
        // Sliding window over sorted exponents.
        std::size_t bestLo = 0, bestCount = 0, lo = 0;
        for (std::size_t hi = 0; hi < exps.size(); ++hi) {
            while (exps[hi].first - exps[lo].first >
                   fxp::maxExpRange)
                ++lo;
            if (hi - lo + 1 > bestCount) {
                bestCount = hi - lo + 1;
                bestLo = lo;
            }
        }
        for (std::size_t idx = 0; idx < exps.size(); ++idx) {
            const bool keep = idx >= bestLo &&
                exps[idx].first - exps[bestLo].first <=
                    fxp::maxExpRange;
            if (!keep) {
                masked[static_cast<std::size_t>(
                    exps[idx].second)] = 0.0;
                ++stats.peeledVectorElements;
                if (peeled)
                    peeled->push_back(exps[idx].second);
            }
        }
    }
}

void
Cluster::checkPanel(std::span<const double> X, std::span<double> Y,
                    unsigned k) const
{
    if (!isProgrammed)
        fatal("Cluster::multiply: no block programmed");
    if (k == 0)
        fatal("Cluster::multiply: batch needs at least one column");
    const std::size_t panel =
        static_cast<std::size_t>(blockSize) * k;
    if (X.size() != panel || Y.size() != panel)
        fatal("Cluster::multiply: panel size mismatch");
}

void
Cluster::multiplyValues(std::span<const double> X, std::span<double> Y,
                        unsigned k,
                        std::vector<std::vector<std::int32_t>> *peeled)
{
    checkPanel(X, Y, k);
    if (peeled)
        peeled->resize(k);
    maskedBatch.resize(blockSize);
    const std::span<double> masked(maskedBatch.data(), blockSize);
    ClusterStats peelCount; // the value kernel reports no stats
    for (unsigned c = 0; c < k; ++c) {
        const std::size_t off = static_cast<std::size_t>(c) * blockSize;
        peelVector(X.subspan(off, blockSize), masked, peelCount,
                   peeled ? &(*peeled)[c] : nullptr);
        const AlignedSet vx = alignValues(masked);
        const int scale = blockScale + vx.scale;
        const std::span<double> yc = Y.subspan(off, blockSize);
        for (unsigned i = 0; i < blockSize; ++i) {
            // Block alignment puts every product at the common scale
            // 2^scale: each term is below 2^(117 + 117) and a row has
            // at most 512 of them, so neither sum can pass 2^243.
            U256 pos, neg;
            for (std::uint32_t e = rowPtr[i]; e < rowPtr[i + 1]; ++e) {
                const auto j = static_cast<std::size_t>(elemCol[e]);
                if (vx.mag[j].isZero())
                    continue;
                const U256 p = elemMag[e].mulWide(vx.mag[j]);
                if (elemNeg[e] != vx.neg[j])
                    neg += p;
                else
                    pos += p;
            }
            const bool sign = neg > pos;
            yc[i] = fixedToDouble(sign, sign ? neg - pos : pos - neg,
                                  scale, cfg.rounding,
                                  cfg.targetMantissaBits);
        }
    }
}

ClusterStats
Cluster::multiply(std::span<const double> x, std::span<double> y,
                  std::vector<std::int32_t> *peeled)
{
    if (!peeled)
        return multiply(x, y, 1);
    std::vector<std::vector<std::int32_t>> peeledCols;
    const ClusterStats stats = multiply(x, y, 1, &peeledCols);
    *peeled = std::move(peeledCols[0]);
    return stats;
}

ClusterStats
Cluster::multiply(std::span<const double> X, std::span<double> Y,
                  unsigned k,
                  std::vector<std::vector<std::int32_t>> *peeled,
                  std::vector<ClusterStats> *colStatsOut)
{
    checkPanel(X, Y, k);
    const std::size_t panel =
        static_cast<std::size_t>(blockSize) * k;
    if (peeled)
        peeled->resize(k);

    // --- per-column front end: peel, align, encode -----------------
    // Alignment is input-dependent, so it stays per column; the
    // programmed-side state (contribution tables, ADC energy table,
    // gate transpose) is shared below.
    maskedBatch.resize(panel);
    std::vector<ClusterStats> colStats(k);
    std::vector<BiasedSet> uxs(k);
    std::vector<int> outScale(k);
    std::vector<std::vector<VectorSlice>> vslices(k);
    std::vector<std::vector<const BitVec *>> sliceByK(k);
    std::vector<unsigned> width(k);
    unsigned maxWidth = 0;
    for (unsigned c = 0; c < k; ++c) {
        const std::span<double> mc(
            maskedBatch.data() +
                static_cast<std::size_t>(c) * blockSize,
            blockSize);
        peelVector(X.subspan(static_cast<std::size_t>(c) * blockSize,
                             blockSize),
                   mc, colStats[c],
                   peeled ? &(*peeled)[c] : nullptr);
        const AlignedSet vx = alignValues(mc);
        uxs[c] = biasEncode(vx);
        outScale[c] = blockScale + vx.scale;
        width[c] = uxs[c].width();
        maxWidth = std::max(maxWidth, width[c]);
        const std::size_t nActive =
            activeBitSlices(uxs[c], vslices[c]);
        sliceByK[c].assign(width[c], nullptr);
        for (std::size_t s = 0; s < nActive; ++s)
            sliceByK[c][vslices[c][s].k] = &vslices[c][s].bits;
        colStats[c].matrixSlices = encodedBits;
        colStats[c].vectorSlices = width[c];
    }

    // --- per-column accumulators -----------------------------------
    // Termination flags are row-major ([row][column]) so the k-wide
    // loops below read one row's flags contiguously.
    accBatch.assign(panel, SignedAcc{});
    doneBatch.assign(panel, 0);
    std::vector<std::size_t> alive(k, 0);
    std::size_t aliveAll = 0;
    for (unsigned c = 0; c < k; ++c) {
        SignedAcc *const acc =
            accBatch.data() + static_cast<std::size_t>(c) * blockSize;
        const std::span<double> yc = Y.subspan(
            static_cast<std::size_t>(c) * blockSize, blockSize);
        for (unsigned i = 0; i < blockSize; ++i) {
            if (rowPtr[i + 1] == rowPtr[i]) {
                // Bias cells cancel exactly; the hardware settles
                // these immediately.
                doneBatch[static_cast<std::size_t>(i) * k + c] = 1;
                yc[i] = 0.0;
                ++colStats[c].emptyColumns;
                continue;
            }
            ++alive[c];
            // Fold the vector-bias debias constant -bX * rowSumF into
            // the initial running sum (known at program/apply time).
            U256 init = rowSumF[i].mag << (uxs[c].biasBits);
            if (cfg.anProtect)
                init.mulSmall(cfg.anConstant);
            acc[i].neg = !rowSumF[i].neg;
            acc[i].mag = init;
            if (init.isZero())
                acc[i].neg = false;
        }
        aliveAll += alive[c];
    }

    const unsigned nBits = bitsForCount(blockSize);
    const int anShift = cfg.anProtect
        ? static_cast<int>(an.codeBits() - an.dataBits() - 1) : 0;
    // anShift = 8 for A=269: floor(log2(269)).

    // --- schedules ----------------------------------------------------
    // The activation schedule depends on the input only through the
    // biased operand width K, so columns sharing a width share one
    // schedule. Across widths, the skewed family (schedule.hh) puts
    // matrix slice b of group g on vector slice
    //   k = (K - 1) - g + stagger(b),
    // so a column of width K, run `lag = maxWidth - K` steps behind
    // the widest column, visits exactly the widest column's cells
    // with k < K, segment for segment, in the same order. One step loop
    // over the widest schedule therefore drives every column through
    // its own schedule, and the contribution loop is shared by all k
    // columns whatever their widths. Per-column trajectory state
    // (termination, stats, peeling) keeps every column bitwise
    // independent of the others.
    std::vector<std::unique_ptr<ActivationSchedule>> schedules;
    std::vector<const ActivationSchedule *> scheduleOf(k, nullptr);
    const ActivationSchedule *widest = nullptr;
    for (unsigned c = 0; c < k; ++c) {
        for (unsigned d = 0; d < c && !scheduleOf[c]; ++d) {
            if (width[d] == width[c])
                scheduleOf[c] = scheduleOf[d];
        }
        if (!scheduleOf[c]) {
            schedules.push_back(std::make_unique<ActivationSchedule>(
                encodedBits, width[c], cfg.schedule, cfg.hybridSkew));
            scheduleOf[c] = schedules.back().get();
        }
        colStats[c].groupsTotal = scheduleOf[c]->groups().size();
        if (width[c] == maxWidth)
            widest = scheduleOf[c];
    }
    const auto &steps = widest->groups();
    std::vector<std::size_t> lag(k);
    std::vector<int> sigCellBits(k);
    for (unsigned c = 0; c < k; ++c) {
        lag[c] = maxWidth - width[c];
        // Every group of a skewed schedule is nonempty, so a width-K
        // schedule has exactly `lag` fewer groups than the widest.
        if (width[c] > 0 &&
            scheduleOf[c]->groups().size() + lag[c] != steps.size())
            panic("Cluster::multiply: schedule widths misaligned");
        sigCellBits[c] = static_cast<int>(
            bitsForCount(std::min(encodedBits, width[c])));
    }

    // Ensure every range's contribution table exists before the step
    // loop takes references (rangeTable() may reallocate). The
    // widest schedule covers every column's ranges.
    for (const ScheduleGroup &group : steps) {
        for (const auto &seg : group.segments)
            rangeTable(seg.bLo, seg.bHi);
    }

    // Gate transpose: per (vector slice kc, element column j) a k-wide
    // 0/1 row, so the inner loop reads the gates of all columns in
    // one contiguous stride instead of probing k bitmaps per element.
    // A column has no gate on slices at or above its width.
    gateTBatch.assign(
        static_cast<std::size_t>(maxWidth) * blockSize * k, 0);
    for (unsigned c = 0; c < k; ++c) {
        for (unsigned kc = 0; kc < width[c]; ++kc) {
            const BitVec *gate = sliceByK[c][kc];
            if (!gate)
                continue;
            std::int16_t *gT =
                &gateTBatch[static_cast<std::size_t>(kc) * blockSize *
                            k];
            gate->forEachSetBit([&](std::size_t j) {
                gT[j * k + c] = 1;
            });
        }
    }

    sumBatch.assign(k, 0);
    actBatch.assign(k, 0);
    std::vector<std::uint8_t> part(k, 0);
    std::vector<__int128> partial(k, 0);
    std::vector<const RangeTable *> segTab;
    std::vector<unsigned> liveRows;

    // --- group-granular execution, all columns in step -------------
    for (std::size_t step = 0; step < steps.size() && aliveAll > 0;
         ++step) {
        const ScheduleGroup &ugroup = steps[step];

        // Per-column bookkeeping: a column takes part in this step iff
        // it has reached its first group and still has alive rows (a
        // column whose rows all settled stops executing groups).
        bool anyPart = false;
        for (unsigned c = 0; c < k; ++c) {
            part[c] = alive[c] > 0 && step >= lag[c] &&
                      step - lag[c] < scheduleOf[c]->groups().size();
            if (!part[c])
                continue;
            anyPart = true;
            const ScheduleGroup &group =
                scheduleOf[c]->groups()[step - lag[c]];
            ClusterStats &cs = colStats[c];
            ++cs.groupsExecuted;
            cs.xbarActivations += group.activations();
            // ADC conversions: every active crossbar scans the alive
            // columns; terminated columns are skipped (Section III-B).
            cs.adcConversions +=
                static_cast<std::uint64_t>(group.activations()) *
                alive[c];
            cs.conversionsSkipped +=
                static_cast<std::uint64_t>(group.activations()) *
                (blockSize - alive[c]);
            // The whole array pulls current during an operation
            // regardless of how many columns are converted.
            cs.arrayEnergy += group.activations() * arrayOpE;
        }
        if (!anyPart)
            continue;
        // Rows still alive in some taking-part column: the energy and
        // contribution loops below visit only these.
        liveRows.clear();
        for (unsigned i = 0; i < blockSize; ++i) {
            const std::uint8_t *done =
                &doneBatch[static_cast<std::size_t>(i) * k];
            for (unsigned c = 0; c < k; ++c) {
                if (part[c] && !done[c]) {
                    liveRows.push_back(i);
                    break;
                }
            }
        }

        // ADC energy: per-conversion energy from the per-(slice, row)
        // table program() resolved (headstart preset included),
        // summed per column over its own segments in (segment, slice,
        // row) order, skipping settled rows.
        for (unsigned c = 0; c < k; ++c) {
            if (!part[c])
                continue;
            double adcEnergy = colStats[c].adcEnergy;
            for (const auto &seg : ugroup.segments) {
                if (seg.k >= width[c])
                    continue;
                for (unsigned b = seg.bLo; b <= seg.bHi; ++b) {
                    const double *ce = &adcConvE[
                        static_cast<std::size_t>(b) * blockSize];
                    for (const unsigned i : liveRows) {
                        if (!doneBatch[static_cast<std::size_t>(i) * k +
                                       c])
                            adcEnergy += ce[i];
                    }
                }
            }
            colStats[c].adcEnergy = adcEnergy;
        }

        // Functional contribution, k-wide. Within a group the
        // sign-magnitude adds are exact integer arithmetic, so the
        // accumulator value after the group is invariant under
        // regrouping: a row's gated int16 deltas collapse into one
        // int32 sum per (segment, column) (bounded by nnz * 2^15 <
        // 2^31), the segment sums of a row collapse into one 128-bit
        // partial per column at their relative weights, and that
        // lands in a single add -- bitwise the state element-order
        // adds reach, and the termination checks that observe it only
        // run between groups. A segment too far above the group's
        // lowest weight for the 128-bit partial adds directly.
        bool anyGate = false;
        unsigned baseShift = ~0u;
        segTab.clear();
        for (const auto &seg : ugroup.segments) {
            bool gated = false;
            for (unsigned c = 0; c < k && !gated; ++c)
                gated = part[c] && seg.k < width[c] &&
                        sliceByK[c][seg.k];
            // A segment no taking-part column gates is an exact
            // no-op; nullptr marks it skipped.
            segTab.push_back(gated ? &rangeTable(seg.bLo, seg.bHi)
                                   : nullptr);
            if (gated) {
                anyGate = true;
                baseShift = std::min(baseShift, seg.bLo + seg.k);
            }
        }
        for (std::size_t r = 0; anyGate && r < liveRows.size(); ++r) {
            const unsigned i = liveRows[r];
            const std::uint8_t *done =
                &doneBatch[static_cast<std::size_t>(i) * k];
            std::uint8_t *const act = actBatch.data();
            for (unsigned c = 0; c < k; ++c) {
                act[c] = part[c] && !done[c];
                partial[c] = 0;
            }
            for (std::size_t si = 0; si < ugroup.segments.size();
                 ++si) {
                const RangeTable *tab = segTab[si];
                if (!tab)
                    continue;
                const auto &seg = ugroup.segments[si];
                const unsigned shift = seg.bLo + seg.k;
                if (tab->small) {
                    const std::int16_t *gT = &gateTBatch[
                        static_cast<std::size_t>(seg.k) * blockSize *
                        k];
                    const std::int16_t *d = tab->delta.data();
                    std::int32_t *const s = sumBatch.data();
                    for (unsigned c = 0; c < k; ++c)
                        s[c] = 0;
                    for (std::uint32_t e = rowPtr[i];
                         e < rowPtr[i + 1]; ++e) {
                        const std::int32_t dv = d[e];
                        if (dv == 0)
                            continue;
                        const std::int16_t *g = &gT[
                            static_cast<std::size_t>(elemCol[e]) * k];
                        for (unsigned c = 0; c < k; ++c)
                            s[c] += dv * g[c];
                    }
                    const unsigned rel = shift - baseShift;
                    for (unsigned c = 0; c < k; ++c) {
                        if (!act[c] || s[c] == 0)
                            continue;
                        if (rel <= maxPartialShift) {
                            partial[c] +=
                                static_cast<__int128>(s[c]) << rel;
                        } else {
                            const std::int64_t m = s[c];
                            addSmall(accBatch[static_cast<std::size_t>(
                                                  c) * blockSize + i],
                                     m < 0,
                                     static_cast<std::uint64_t>(
                                         m < 0 ? -m : m),
                                     shift);
                        }
                    }
                } else {
                    // Wide range (vertical schedules): element-wise
                    // adds per column.
                    for (unsigned c = 0; c < k; ++c) {
                        if (!act[c] || seg.k >= width[c])
                            continue;
                        const BitVec *gate = sliceByK[c][seg.k];
                        if (!gate)
                            continue;
                        SignedAcc &a = accBatch[
                            static_cast<std::size_t>(c) * blockSize +
                            i];
                        for (std::uint32_t e = rowPtr[i];
                             e < rowPtr[i + 1]; ++e) {
                            if (!gate->get(static_cast<std::size_t>(
                                    elemCol[e])))
                                continue;
                            if (tab->magW[e].isZero())
                                continue;
                            U256 v = U256::from(tab->magW[e]);
                            v <<= shift;
                            a.add(tab->negW[e] != 0, v);
                        }
                    }
                }
            }
            for (unsigned c = 0; c < k; ++c) {
                if (act[c] && partial[c] != 0)
                    addPartial(
                        accBatch[static_cast<std::size_t>(c) *
                                     blockSize + i],
                        partial[c], baseShift);
            }
        }

        // Early termination check (between groups), per column.
        if (!cfg.earlyTermination)
            continue;
        for (unsigned c = 0; c < k; ++c) {
            if (!part[c])
                continue;
            const int remSig =
                scheduleOf[c]->maxRemainingSignificance(step - lag[c]);
            if (remSig < 0)
                continue; // grid exhausted; exact completion below
            // Remaining contribution bound: each remaining cell (b, k)
            // contributes at most N * 2^(b+k); at most min(B, K) cells
            // share a significance level, and the geometric sum over
            // levels <= remSig doubles the top one.
            const int bound = remSig + static_cast<int>(nBits) +
                              sigCellBits[c] + 2;
            SignedAcc *const acc =
                accBatch.data() + static_cast<std::size_t>(c) * blockSize;
            const std::span<double> yc = Y.subspan(
                static_cast<std::size_t>(c) * blockSize, blockSize);
            for (unsigned i = 0; i < blockSize; ++i) {
                std::uint8_t &done =
                    doneBatch[static_cast<std::size_t>(i) * k + c];
                if (done)
                    continue;
                U256 decoded = acc[i].mag;
                int boundDec = bound;
                if (cfg.anProtect) {
                    decoded.divSmall(cfg.anConstant);
                    boundDec = bound - anShift + 2;
                }
                if (settled(decoded, boundDec,
                            cfg.targetMantissaBits + 3)) {
                    done = 1;
                    --alive[c];
                    --aliveAll;
                    ++colStats[c].columnsEarlyTerminated;
                    yc[i] = convert(acc[i], outScale[c], false);
                }
            }
        }
    }

    // --- exact completion + timing ------------------------------------
    for (unsigned c = 0; c < k; ++c) {
        const SignedAcc *acc =
            accBatch.data() + static_cast<std::size_t>(c) * blockSize;
        const std::span<double> yc = Y.subspan(
            static_cast<std::size_t>(c) * blockSize, blockSize);
        for (unsigned i = 0; i < blockSize; ++i) {
            if (!doneBatch[static_cast<std::size_t>(i) * k + c])
                yc[i] = convert(acc[i], outScale[c], true);
        }
        ClusterStats &cs = colStats[c];
        cs.cycles = cs.groupsExecuted * cfg.size + 12;
        cs.latency = static_cast<double>(cs.cycles) / cfg.xbar.fClkHz;
        cs.energy = cs.arrayEnergy + cs.adcEnergy;
    }

    // Aggregate in column order: bitwise the sum a caller folding
    // k one-column results would compute (k == 1 returns the
    // column's stats unchanged).
    ClusterStats agg;
    for (unsigned c = 0; c < k; ++c)
        agg += colStats[c];
    if (colStatsOut)
        *colStatsOut = std::move(colStats);
    return agg;
}

} // namespace msc
