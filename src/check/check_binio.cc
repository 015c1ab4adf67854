/**
 * @file
 * Differential checks of the binary artifact pipeline
 * (sparse/binio + blocking/stream) against the in-core path.
 *
 * Three oracles per iteration, on a random matrix and blocking
 * configuration:
 *
 *   1. planBlocksStreaming == planBlocks, bit for bit (the
 *      strip-locality claim in blocking/stream.hh);
 *   2. writeArtifact -> map round-trips the CSR arrays, the
 *      content keys, and the plan bitwise;
 *   3. a corrupted artifact (random byte flip or truncation) either
 *      fails with a structured BinioError or still maps to the
 *      bit-identical matrix (header bytes outside the checksummed
 *      payload, e.g. padding, may flip benignly) -- never garbage,
 *      never UB.
 *
 * Scratch files live under /tmp, keyed by pid + iteration so
 * concurrent sweeps do not collide; messages never embed the path,
 * keeping reports byte-stable.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "blocking/blocking.hh"
#include "blocking/stream.hh"
#include "check/check.hh"
#include "sparse/binio.hh"
#include "sparse/csr.hh"

#if __has_include(<unistd.h>)
#include <unistd.h>
#endif

namespace msc::check {

namespace {

std::string
scratchPath(std::uint64_t iter)
{
#if __has_include(<unistd.h>)
    const long pid = static_cast<long>(::getpid());
#else
    const long pid = 0;
#endif
    return "/tmp/msc_check_binio_" + std::to_string(pid) + "_" +
           std::to_string(iter) + ".mscbin";
}

bool
samePlan(const BlockPlan &a, const BlockPlan &b)
{
    if (a.rows != b.rows || a.cols != b.cols ||
        a.blocks.size() != b.blocks.size() ||
        a.stats.totalNnz != b.stats.totalNnz ||
        a.stats.blockedNnz != b.stats.blockedNnz ||
        a.stats.unblockedNnz != b.stats.unblockedNnz ||
        a.stats.expRangeEvictions != b.stats.expRangeEvictions ||
        a.stats.blocksPerSize != b.stats.blocksPerSize)
        return false;
    for (std::size_t i = 0; i < a.blocks.size(); ++i) {
        const MatrixBlock &x = a.blocks[i];
        const MatrixBlock &y = b.blocks[i];
        if (x.rowOrigin != y.rowOrigin ||
            x.colOrigin != y.colOrigin || x.size != y.size ||
            x.elems.size() != y.elems.size())
            return false;
        if (!x.elems.empty() &&
            std::memcmp(x.elems.data(), y.elems.data(),
                        x.elems.size() * sizeof(Triplet)) != 0)
            return false;
    }
    return sameCsrBits(a.unblocked, b.unblocked);
}

void
iterate(Context &ctx)
{
    Rng &rng = ctx.rng();

    // Random matrix: dimensions a few multiples of the block sizes,
    // plus ragged remainders; duplicate coordinates one iteration in
    // four (accumulation order is part of the bitwise contract).
    const std::int32_t rows = static_cast<std::int32_t>(
        rng.range(1, 96));
    const std::int32_t cols = static_cast<std::int32_t>(
        rng.range(1, 96));
    const std::size_t wanted = rng.below(
        static_cast<std::uint64_t>(rows) * cols / 2 + 1);
    Coo coo{rows, cols, {}};
    for (std::size_t k = 0; k < wanted; ++k) {
        coo.add(static_cast<std::int32_t>(rng.below(rows)),
                static_cast<std::int32_t>(rng.below(cols)),
                rng.uniform(-8.0, 8.0));
    }
    if (!coo.entries.empty() && rng.chance(0.25)) {
        const std::size_t dups = rng.below(8) + 1;
        for (std::size_t k = 0; k < dups; ++k) {
            const Triplet t =
                coo.entries[rng.below(coo.entries.size())];
            coo.add(t.row, t.col, rng.uniform(-8.0, 8.0));
        }
    }
    const Csr m = Csr::fromCoo(coo);

    BlockingConfig cfg;
    switch (rng.below(3)) {
      case 0:
        cfg.sizes = {8, 4};
        break;
      case 1:
        cfg.sizes = {16, 8};
        break;
      default:
        cfg.sizes = {16, 8, 4};
        break;
    }
    cfg.densityFactor = rng.chance(0.5) ? 0.5 : 0.25;

    // --- streaming preprocessor vs in-core oracle ----------------
    const BlockPlan incore = planBlocks(m, cfg);
    const EntrySource source = [&](const EntrySink &sink) {
        for (const Triplet &t : coo.entries)
            sink(t.row, t.col, t.val);
    };
    const std::int32_t lcmStrip = stripHeightFor(cfg);
    const std::int32_t strip =
        lcmStrip * static_cast<std::int32_t>(rng.range(1, 3));
    const BlockPlan streamed =
        planBlocksStreaming(rows, cols, source, cfg, strip);
    ctx.expect(samePlan(streamed, incore),
               "streaming plan differs from planBlocks (", rows,
               "x", cols, ", nnz ", m.nnz(), ", strip ", strip, ")");

    // --- artifact round-trip -------------------------------------
    const std::string path = scratchPath(ctx.iter());
    const bool withPlan = rng.chance(0.8);
    writeArtifact(path, m, withPlan ? &incore : nullptr, cfg);
    try {
        const auto art = MappedArtifact::map(path);
        ctx.expect(sameCsrBits(art->matrixView(), m),
                   "mapped matrix differs from source");
        ctx.expect(art->matrixKey() == csrContentKey(m),
                   "stored matrix key differs from csrContentKey");
        ctx.expect(art->hasPlan() == withPlan,
                   "hasPlan flag round-trip mismatch");
        if (withPlan) {
            ctx.expect(art->blockingKey() == blockingConfigKey(cfg),
                       "stored blocking key mismatch");
            ctx.expect(samePlan(art->decodePlan(), incore),
                       "decoded plan differs from planBlocks");
        }
    } catch (const BinioError &e) {
        ctx.expect(false, "round-trip map failed: ", e.what());
    }

    // --- corruption: structured failure or benign, never garbage --
    std::vector<char> bytes;
    {
        std::ifstream in(path, std::ios::binary | std::ios::ate);
        bytes.resize(static_cast<std::size_t>(in.tellg()));
        in.seekg(0);
        in.read(bytes.data(),
                static_cast<std::streamsize>(bytes.size()));
    }
    const bool chop = rng.chance(0.5);
    if (chop) {
        bytes.resize(rng.below(bytes.size()));
    } else {
        const std::size_t at = rng.below(bytes.size());
        bytes[at] = static_cast<char>(
            bytes[at] ^ static_cast<char>(1u << rng.below(8)));
    }
    {
        std::ofstream out(path,
                          std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }
    try {
        const auto art = MappedArtifact::map(path);
        // Only a flip in alignment padding may map benignly: the
        // checksum covers the header's semantic fields and every
        // section byte, so whatever maps is the same matrix.
        ctx.expect(sameCsrBits(art->matrixView(), m),
                   "corrupted artifact mapped to different matrix");
        if (art->hasPlan())
            (void)art->decodePlan(); // must not crash
    } catch (const BinioError &) {
        // Structured rejection is the expected outcome.
    }
    std::remove(path.c_str());
}

} // namespace

void
addBinioChecks(std::vector<Module> &out)
{
    out.push_back({"binio", iterate});
}

} // namespace msc::check
