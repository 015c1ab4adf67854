/**
 * @file
 * Binary artifact + streaming blocking tests (sparse/binio,
 * blocking/stream): the OutOfCore tier.
 *
 * The load-bearing contract is bit-identity: a matrix loaded from a
 * packed artifact -- zero-copy views straight out of the mapping --
 * must be indistinguishable, bit for bit, from the same matrix
 * parsed from Matrix Market text and preprocessed in core, all the
 * way through a full CG solve at any thread count. On top of that,
 * corrupted artifacts (chopped, bit-flipped, version-skewed) must
 * fail with a structured BinioError and fall back to text parsing
 * -- never UB, never a wrong answer.
 *
 * Suites carry the OutOfCore prefix: tests/CMakeLists.txt labels
 * them for the sanitizer presets (label OutOfCore).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#if __has_include(<unistd.h>)
#include <unistd.h>
#endif

#include <filesystem>

#include "blocking/blocking.hh"
#include "blocking/stream.hh"
#include "check/mm_oracle.hh"
#include "service/prepare_cache.hh"
#include "solver/solver.hh"
#include "sparse/binio.hh"
#include "sparse/gen.hh"
#include "sparse/matrix_market.hh"
#include "sparse/stats.hh"
#include "util/hash128.hh"
#include "util/random.hh"
#include "util/telemetry.hh"
#include "util/threadpool.hh"

namespace {

using namespace msc;

/** Per-test scratch file. Tests run as separate concurrent
 *  processes under ctest -j and several share a fixture name, so
 *  the pid is part of the path. */
std::string
tmpPath(const std::string &name)
{
#if __has_include(<unistd.h>)
    const long pid = static_cast<long>(::getpid());
#else
    const long pid = 0;
#endif
    return "/tmp/msc_test_binio_" + std::to_string(pid) + "_" +
           name;
}

/** Remove-on-scope-exit guard for scratch files. */
struct Scratch
{
    explicit Scratch(std::string p) : path(std::move(p)) {}
    ~Scratch() { std::remove(path.c_str()); }
    std::string path;
};

Csr
smallSpd(std::uint64_t seed, std::int32_t rows = 96)
{
    TiledParams gen;
    gen.rows = rows;
    gen.tile = 8;
    gen.tileDensity = 0.4;
    gen.scatterPerRow = 0.5;
    gen.spd = true;
    gen.seed = seed;
    return genTiled(gen);
}

void
expectSameCsr(const Csr &a, const Csr &b)
{
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    ASSERT_EQ(a.nnz(), b.nnz());
    const auto arp = a.rowPtr(), brp = b.rowPtr();
    const auto aci = a.colIndex(), bci = b.colIndex();
    const auto av = a.values(), bv = b.values();
    EXPECT_EQ(std::memcmp(arp.data(), brp.data(), arp.size_bytes()),
              0);
    if (a.nnz() > 0) {
        EXPECT_EQ(
            std::memcmp(aci.data(), bci.data(), aci.size_bytes()),
            0);
        EXPECT_EQ(std::memcmp(av.data(), bv.data(), av.size_bytes()),
                  0);
    }
}

void
expectSamePlan(const BlockPlan &a, const BlockPlan &b)
{
    EXPECT_EQ(a.rows, b.rows);
    EXPECT_EQ(a.cols, b.cols);
    EXPECT_EQ(a.stats.totalNnz, b.stats.totalNnz);
    EXPECT_EQ(a.stats.blockedNnz, b.stats.blockedNnz);
    EXPECT_EQ(a.stats.unblockedNnz, b.stats.unblockedNnz);
    EXPECT_EQ(a.stats.expRangeEvictions, b.stats.expRangeEvictions);
    EXPECT_EQ(a.stats.blocksPerSize, b.stats.blocksPerSize);
    ASSERT_EQ(a.blocks.size(), b.blocks.size());
    for (std::size_t i = 0; i < a.blocks.size(); ++i) {
        const MatrixBlock &x = a.blocks[i];
        const MatrixBlock &y = b.blocks[i];
        EXPECT_EQ(x.rowOrigin, y.rowOrigin) << "block " << i;
        EXPECT_EQ(x.colOrigin, y.colOrigin) << "block " << i;
        EXPECT_EQ(x.size, y.size) << "block " << i;
        ASSERT_EQ(x.elems.size(), y.elems.size()) << "block " << i;
        if (!x.elems.empty()) {
            EXPECT_EQ(std::memcmp(x.elems.data(), y.elems.data(),
                                  x.elems.size() * sizeof(Triplet)),
                      0)
                << "block " << i;
        }
    }
    expectSameCsr(a.unblocked, b.unblocked);
}

std::vector<char>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    std::vector<char> bytes(static_cast<std::size_t>(in.tellg()));
    in.seekg(0);
    in.read(bytes.data(),
            static_cast<std::streamsize>(bytes.size()));
    return bytes;
}

void
spit(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

// --- round trips ---------------------------------------------------

TEST(OutOfCoreArtifact, MatrixRoundTripsBitwise)
{
    const Csr m = smallSpd(7);
    Scratch f(tmpPath("roundtrip_matrix.mscbin"));
    writeArtifact(f.path, m);

    const auto art = MappedArtifact::map(f.path);
    EXPECT_EQ(art->rows(), m.rows());
    EXPECT_EQ(art->cols(), m.cols());
    EXPECT_EQ(art->nnz(), m.nnz());
    EXPECT_FALSE(art->hasPlan());
    EXPECT_EQ(art->matrixKey(), csrContentKey(m));
    expectSameCsr(art->matrixView(), m);

    // The view stays valid and owns nothing: copying it detaches.
    Csr copy = art->matrixView();
    const Csr deep = copy; // copy materializes
    EXPECT_TRUE(deep.owning());
    expectSameCsr(deep, m);
}

TEST(OutOfCoreArtifact, PlanRoundTripsBitwise)
{
    const Csr m = smallSpd(11);
    BlockingConfig cfg;
    const BlockPlan plan = planBlocks(m, cfg);
    Scratch f(tmpPath("roundtrip_plan.mscbin"));
    writeArtifact(f.path, m, &plan, cfg);

    const auto art = MappedArtifact::map(f.path);
    ASSERT_TRUE(art->hasPlan());
    EXPECT_EQ(art->blockingKey(), blockingConfigKey(cfg));
    expectSamePlan(art->decodePlan(), plan);
}

TEST(OutOfCoreArtifact, EmptyMatrixRoundTrips)
{
    Coo coo{5, 3, {}};
    const Csr m = Csr::fromCoo(coo);
    Scratch f(tmpPath("roundtrip_empty.mscbin"));
    writeArtifact(f.path, m);
    const auto art = MappedArtifact::map(f.path);
    EXPECT_EQ(art->nnz(), 0u);
    expectSameCsr(art->matrixView(), m);
}

TEST(OutOfCoreArtifact, SidecarPathConvention)
{
    EXPECT_EQ(artifactSidecarPath("a/b.mtx"), "a/b.mtx.mscbin");
    EXPECT_EQ(artifactSidecarPath("a/b.mscbin"), "a/b.mscbin");
}

// --- streaming blocking preprocessor -------------------------------

TEST(OutOfCoreStreaming, MatchesInCorePlanBitwise)
{
    Rng rng(0xb10c);
    for (int round = 0; round < 12; ++round) {
        const std::int32_t rows =
            static_cast<std::int32_t>(rng.range(1, 150));
        const std::int32_t cols =
            static_cast<std::int32_t>(rng.range(1, 150));
        Coo coo{rows, cols, {}};
        const std::size_t wanted = rng.below(
            static_cast<std::uint64_t>(rows) * cols / 3 + 1);
        for (std::size_t k = 0; k < wanted; ++k) {
            coo.add(static_cast<std::int32_t>(rng.below(rows)),
                    static_cast<std::int32_t>(rng.below(cols)),
                    rng.uniform(-4.0, 4.0));
        }
        // Duplicates exercise the accumulation-order contract.
        if (!coo.entries.empty()) {
            const Triplet t =
                coo.entries[rng.below(coo.entries.size())];
            coo.add(t.row, t.col, 0.125);
        }
        BlockingConfig cfg;
        if (round % 2)
            cfg.sizes = {8, 4};

        const Csr m = Csr::fromCoo(coo);
        const BlockPlan incore = planBlocks(m, cfg);
        const EntrySource src = [&](const EntrySink &sink) {
            for (const Triplet &t : coo.entries)
                sink(t.row, t.col, t.val);
        };
        // Minimal strip and a larger multiple must both match.
        const std::int32_t h = stripHeightFor(cfg);
        expectSamePlan(planBlocksStreaming(rows, cols, src, cfg),
                       incore);
        expectSamePlan(
            planBlocksStreaming(rows, cols, src, cfg, 3 * h),
            incore);
    }
}

TEST(OutOfCoreStreaming, MatrixMarketSourceMatchesParse)
{
    const Csr m = smallSpd(23, 128);
    Scratch f(tmpPath("stream_source.mtx"));
    writeMatrixMarket(m, f.path);

    BlockingConfig cfg;
    const BlockPlan incore = planBlocks(m, cfg);
    const BlockPlan streamed = planBlocksStreaming(
        m.rows(), m.cols(), matrixMarketEntrySource(f.path), cfg);
    expectSamePlan(streamed, incore);
}

TEST(OutOfCoreStreaming, SymmetricCrlfFileMatchesParseBitwise)
{
    // A symmetric file in lower-triangle column order with CRLF
    // endings, comments, blank lines and tab separators. Every strip
    // pass re-reads it through the same entry walk as the in-core
    // parse, so the plans must agree bit for bit -- and the parse
    // must match the istringstream oracle.
    const Csr m = smallSpd(29, 96);
    const Csr byCol = m.transpose(); // row c lists column c of m
    std::size_t lower = 0;
    for (std::int32_t c = 0; c < byCol.rows(); ++c) {
        for (const std::int32_t r : byCol.rowCols(c))
            lower += r >= c;
    }
    std::string text =
        "%%MatrixMarket matrix coordinate real symmetric\r\n"
        "% hand-written\r\n" +
        std::to_string(m.rows()) + " " + std::to_string(m.cols()) +
        " " + std::to_string(lower) + "\r\n";
    std::size_t k = 0;
    char value[40];
    for (std::int32_t c = 0; c < byCol.rows(); ++c) {
        const auto rows = byCol.rowCols(c);
        const auto vals = byCol.rowVals(c);
        for (std::size_t i = 0; i < rows.size(); ++i) {
            if (rows[i] < c)
                continue;
            std::snprintf(value, sizeof value, "%.17g", vals[i]);
            text += std::to_string(rows[i] + 1) + "\t" +
                    std::to_string(c + 1) + " " + value + "\r\n";
            if (++k % 7 == 0)
                text += "% every seventh entry\r\n\r\n";
        }
    }
    Scratch f(tmpPath("stream_symmetric_crlf.mtx"));
    {
        std::ofstream out(f.path, std::ios::binary);
        out << text;
    }

    const Csr parsed = readMatrixMarket(f.path);
    std::istringstream oracleIn(text);
    ASSERT_TRUE(check::sameCsrBits(
        parsed, check::readMatrixMarketByExtraction(oracleIn)));
    ASSERT_EQ(parsed.nnz(), m.nnz());

    BlockingConfig cfg;
    const BlockPlan incore = planBlocks(parsed, cfg);
    expectSamePlan(planBlocksStreaming(parsed.rows(), parsed.cols(),
                                       matrixMarketEntrySource(f.path),
                                       cfg),
                   incore);
}

TEST(OutOfCoreStreaming, RejectsIllegalStripHeight)
{
    BlockingConfig cfg;
    cfg.sizes = {8, 4};
    EXPECT_EQ(stripHeightFor(cfg), 8);
    const EntrySource none = [](const EntrySink &) {};
    EXPECT_THROW(planBlocksStreaming(16, 16, none, cfg, 4),
                 FatalError); // not a multiple of lcm
    EXPECT_THROW(planBlocksStreaming(16, 16, none, cfg, -8),
                 FatalError);
}

// --- corruption ----------------------------------------------------

class OutOfCoreCorruption : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        m = smallSpd(31, 64);
        BlockingConfig cfg;
        path = tmpPath("corrupt.mscbin");
        const BlockPlan plan = planBlocks(m, cfg);
        writeArtifact(path, m, &plan, cfg);
        pristine = slurp(path);
        ASSERT_GT(pristine.size(), 112u);
    }

    void TearDown() override { std::remove(path.c_str()); }

    BinioError::Reason
    mapReason()
    {
        try {
            (void)MappedArtifact::map(path);
        } catch (const BinioError &e) {
            return e.reason();
        }
        ADD_FAILURE() << "corrupted artifact unexpectedly mapped";
        return BinioError::Reason::CannotOpen;
    }

    Csr m;
    std::string path;
    std::vector<char> pristine;
};

TEST_F(OutOfCoreCorruption, ByteChopIsTruncated)
{
    // Every proper prefix must fail structurally -- a short mapping
    // is never dereferenced past its end.
    for (const double frac : {0.0, 0.01, 0.3, 0.7, 0.999}) {
        std::vector<char> chopped = pristine;
        chopped.resize(static_cast<std::size_t>(
            static_cast<double>(pristine.size()) * frac));
        spit(path, chopped);
        EXPECT_EQ(mapReason(), BinioError::Reason::Truncated)
            << "at fraction " << frac;
    }
    std::vector<char> oneShort = pristine;
    oneShort.pop_back();
    spit(path, oneShort);
    EXPECT_EQ(mapReason(), BinioError::Reason::Truncated);
}

TEST_F(OutOfCoreCorruption, PayloadBitFlipIsBadChecksum)
{
    // Flip bits inside actual section payloads (a flip in alignment
    // padding is benign by design; the section table in the header
    // says where the real bytes are).
    const auto u64At = [&](std::size_t off) {
        std::uint64_t v;
        std::memcpy(&v, pristine.data() + off, 8);
        return v;
    };
    const std::uint64_t sectionCount = u64At(104);
    ASSERT_GT(sectionCount, 0u);
    for (std::uint64_t i = 0; i < sectionCount; ++i) {
        const std::size_t entry = 112 + i * 24;
        const std::uint64_t off = u64At(entry + 8);
        const std::uint64_t bytes = u64At(entry + 16);
        if (bytes == 0)
            continue;
        std::vector<char> flipped = pristine;
        const std::size_t at =
            static_cast<std::size_t>(off + bytes / 2);
        flipped[at] = static_cast<char>(flipped[at] ^ 0x10);
        spit(path, flipped);
        EXPECT_EQ(mapReason(), BinioError::Reason::BadChecksum)
            << "section " << u64At(entry) << " at byte " << at;
    }
}

TEST_F(OutOfCoreCorruption, BadMagicAndVersionAndEndianness)
{
    std::vector<char> bytes = pristine;
    bytes[0] = 'X';
    spit(path, bytes);
    EXPECT_EQ(mapReason(), BinioError::Reason::BadMagic);

    bytes = pristine;
    bytes[8] = 2; // version u64 at offset 8 (little-endian)
    spit(path, bytes);
    EXPECT_EQ(mapReason(), BinioError::Reason::BadVersion);

    bytes = pristine;
    bytes[16] = static_cast<char>(bytes[16] ^ 0xff); // endian tag
    spit(path, bytes);
    EXPECT_EQ(mapReason(), BinioError::Reason::Unsupported);
}

TEST_F(OutOfCoreCorruption, RandomCorruptionNeverCrashes)
{
    Rng rng(0xdead);
    for (int round = 0; round < 200; ++round) {
        std::vector<char> bytes = pristine;
        if (rng.chance(0.4)) {
            bytes.resize(rng.below(bytes.size()));
        } else {
            const int flips = 1 + static_cast<int>(rng.below(4));
            for (int i = 0; i < flips; ++i) {
                const std::size_t at = rng.below(bytes.size());
                bytes[at] = static_cast<char>(
                    bytes[at] ^
                    static_cast<char>(1u << rng.below(8)));
            }
        }
        spit(path, bytes);
        try {
            const auto art = MappedArtifact::map(path);
            // Only flips in alignment padding may map benignly;
            // the checksum covers the header's semantic fields and
            // every section byte, so whatever maps must be the
            // bit-identical matrix.
            expectSameCsr(art->matrixView(), m);
            if (art->hasPlan())
                (void)art->decodePlan();
        } catch (const BinioError &) {
            // Structured rejection: the expected outcome.
        }
    }
}

// --- forged (consistently-checksummed) artifacts -------------------
//
// Bit flips are the checksum's job; these fixtures model a hostile
// or mis-packed *writer* that recomputes the checksum over whatever
// lie it tells. Every lie must still fail structurally.

std::uint64_t
u64At(const std::vector<char> &bytes, std::size_t off)
{
    std::uint64_t v;
    std::memcpy(&v, bytes.data() + off, 8);
    return v;
}

void
putU64At(std::vector<char> &bytes, std::size_t off, std::uint64_t v)
{
    std::memcpy(bytes.data() + off, &v, 8);
}

/** Recompute the artifact checksum the way writeArtifact does --
 *  header semantic fields, then each section's id + payload bytes --
 *  and patch it in place. This is what makes a tampered artifact
 *  "attacker-consistent": everything past the checksum gate must
 *  still reject it. */
void
rehashArtifact(std::vector<char> &bytes)
{
    Hash128 h;
    h.u64(u64At(bytes, 24)); // rows
    h.u64(u64At(bytes, 32)); // cols
    h.u64(u64At(bytes, 40)); // nnz
    h.u64(u64At(bytes, 48)); // matrix key hi
    h.u64(u64At(bytes, 56)); // matrix key lo
    h.u64(u64At(bytes, 64)); // flags
    h.u64(u64At(bytes, 72)); // blocking key hi
    h.u64(u64At(bytes, 80)); // blocking key lo
    const std::uint64_t sectionCount = u64At(bytes, 104);
    for (std::uint64_t i = 0; i < sectionCount; ++i) {
        const std::size_t entry = 112 + i * 24;
        h.u64(u64At(bytes, entry));
        h.bytes(bytes.data() + u64At(bytes, entry + 8),
                u64At(bytes, entry + 16));
    }
    const Digest128 sum = h.digest();
    putU64At(bytes, 88, sum.hi);
    putU64At(bytes, 96, sum.lo);
}

/** Hand-craft a minimal, checksum-consistent matrix artifact with
 *  arbitrary header geometry: RowPtr as given, empty ColIdx and
 *  Values sections. Exactly the shape a wrapped nnz*4 / nnz*8
 *  expected-size computation would accept. */
std::vector<char>
craftArtifact(std::uint64_t rows, std::uint64_t cols,
              std::uint64_t nnz,
              const std::vector<std::int64_t> &rowPtr)
{
    const std::size_t headerBytes = 112 + 3 * 24;
    const std::size_t rowPtrOff = (headerBytes + 63) & ~std::size_t{63};
    const std::size_t rowPtrBytes = rowPtr.size() * 8;
    const std::size_t total = rowPtrOff + rowPtrBytes;
    const std::size_t emptyOff = (total + 7) & ~std::size_t{7};

    std::vector<char> bytes(std::max(total, emptyOff), 0);
    std::memcpy(bytes.data(), "MSCBIN1\n", 8);
    putU64At(bytes, 8, 1);                     // version
    putU64At(bytes, 16, 0x0102030405060708ULL); // endian tag
    putU64At(bytes, 24, rows);
    putU64At(bytes, 32, cols);
    putU64At(bytes, 40, nnz);
    putU64At(bytes, 104, 3); // section count
    const auto putSection = [&](std::size_t slot, std::uint64_t id,
                                std::uint64_t off,
                                std::uint64_t len) {
        const std::size_t at = 112 + slot * 24;
        putU64At(bytes, at, id);
        putU64At(bytes, at + 8, off);
        putU64At(bytes, at + 16, len);
    };
    putSection(0, 1, rowPtrOff, rowPtrBytes); // RowPtr
    putSection(1, 2, emptyOff, 0);            // ColIdx
    putSection(2, 3, emptyOff, 0);            // Values
    std::memcpy(bytes.data() + rowPtrOff, rowPtr.data(),
                rowPtrBytes);
    rehashArtifact(bytes);
    return bytes;
}

TEST(OutOfCoreForged, HugeNnzCannotWrapSectionSizes)
{
    // nnz = 2^62 makes nnz*4 and nnz*8 wrap to 0, matching the empty
    // ColIdx/Values sections; pre-fix, the content check then walked
    // 2^62 column indices off the end of the mapping. The nnz bound
    // must reject this before any nnz-derived arithmetic.
    Scratch f(tmpPath("forged_nnz.mscbin"));
    spit(f.path,
         craftArtifact(2, 2, std::uint64_t{1} << 62,
                       {0, 0, std::int64_t{1} << 62}));
    try {
        (void)MappedArtifact::map(f.path);
        FAIL() << "forged nnz unexpectedly mapped";
    } catch (const BinioError &e) {
        EXPECT_EQ(e.reason(), BinioError::Reason::BadSection);
    }

    // nnz below rows*cols but still wrapping nnz*8: the file-size
    // bound catches what the geometry bound cannot.
    spit(f.path, craftArtifact(0x7fffffffULL, 0x7fffffffULL,
                               std::uint64_t{1} << 61, {0}));
    try {
        (void)MappedArtifact::map(f.path);
        FAIL() << "forged nnz unexpectedly mapped";
    } catch (const BinioError &e) {
        EXPECT_EQ(e.reason(), BinioError::Reason::Truncated);
    }
}

TEST(OutOfCoreForged, PlanSizeClassCountCannotWrap)
{
    // A forged plan-stats size-class count near 2^60 makes
    // 48 + nSizes*16 wrap to the real section length; pre-fix that
    // passed the equality check and detonated as bad_alloc inside
    // decodePlan. The structural check must fire at map time.
    const Csr m = smallSpd(67, 64);
    BlockingConfig cfg;
    const BlockPlan plan = planBlocks(m, cfg);
    Scratch f(tmpPath("forged_nsizes.mscbin"));
    writeArtifact(f.path, m, &plan, cfg);

    std::vector<char> bytes = slurp(f.path);
    const std::uint64_t sectionCount = u64At(bytes, 104);
    std::size_t statsOff = 0;
    for (std::uint64_t i = 0; i < sectionCount; ++i) {
        const std::size_t entry = 112 + i * 24;
        if (u64At(bytes, entry) == 4) // Sec::PlanStats
            statsOff = static_cast<std::size_t>(
                u64At(bytes, entry + 8));
    }
    ASSERT_GT(statsOff, 0u);
    const std::uint64_t realCount = u64At(bytes, statsOff + 40);
    // (wrapped - 48) / 16 == realCount modulo 2^60: the exact forge.
    putU64At(bytes, statsOff + 40,
             realCount + (std::uint64_t{1} << 60));
    rehashArtifact(bytes);
    spit(f.path, bytes);
    try {
        (void)MappedArtifact::map(f.path);
        FAIL() << "forged size-class count unexpectedly mapped";
    } catch (const BinioError &e) {
        EXPECT_EQ(e.reason(), BinioError::Reason::BadSection);
    }
}

TEST(OutOfCoreForged, WrongMatrixKeyRejectedAtMap)
{
    // An artifact claiming another matrix's digest (checksummed
    // consistently) would insert a shared PrepareCache entry under
    // that digest and poison later text-parse submissions of the
    // real matrix. The loader must recompute the key from the
    // mapped bytes.
    const Csr m = smallSpd(71, 64);
    Scratch f(tmpPath("forged_key.mscbin"));
    writeArtifact(f.path, m);

    // Rehash without tampering first: the recomputed checksum must
    // match the writer's, proving the forge below really gets past
    // the checksum gate and is rejected by the key verification.
    std::vector<char> bytes = slurp(f.path);
    const std::uint64_t writerSumHi = u64At(bytes, 88);
    const std::uint64_t writerSumLo = u64At(bytes, 96);
    rehashArtifact(bytes);
    ASSERT_EQ(u64At(bytes, 88), writerSumHi);
    ASSERT_EQ(u64At(bytes, 96), writerSumLo);

    putU64At(bytes, 48, u64At(bytes, 48) ^ 0xdeadbeefULL);
    rehashArtifact(bytes);
    spit(f.path, bytes);
    try {
        (void)MappedArtifact::map(f.path);
        FAIL() << "forged matrix key unexpectedly mapped";
    } catch (const BinioError &e) {
        EXPECT_EQ(e.reason(), BinioError::Reason::BadChecksum);
    }

    // And through the sidecar path it degrades to a clean parse.
    const Csr m2 = smallSpd(73, 64);
    Scratch mtx(tmpPath("forged_key.mtx"));
    Scratch side(tmpPath("forged_key.mtx.mscbin"));
    writeMatrixMarket(m2, mtx.path);
    spit(side.path, bytes);
    const LoadedMatrix lm = loadMatrixFile(mtx.path);
    EXPECT_TRUE(lm.artifact == nullptr);
    expectSameCsr(lm.csr, m2);
}

// --- loadMatrixFile: sidecar fast path + fallback ------------------

TEST(OutOfCoreLoad, SidecarPreferredFallbackCounted)
{
    telemetry::Config tcfg;
    tcfg.enabled = true;
    telemetry::configure(tcfg);
    telemetry::reset();

    const Csr m = smallSpd(41, 64);
    Scratch mtx(tmpPath("load.mtx"));
    Scratch side(tmpPath("load.mtx.mscbin"));
    writeMatrixMarket(m, mtx.path);
    writeArtifact(side.path, m);

    // Sidecar present: mapped, zero-copy, counted as a map hit.
    const LoadedMatrix viaArtifact = loadMatrixFile(mtx.path);
    ASSERT_TRUE(viaArtifact.artifact != nullptr);
    EXPECT_FALSE(viaArtifact.csr.owning());
    expectSameCsr(viaArtifact.csr, m);
    EXPECT_EQ(telemetry::counterValue("binio.map_hits"), 1u);
    EXPECT_EQ(telemetry::counterValue("binio.fallback_parse"), 0u);

    // Corrupt the sidecar: clean fallback to the text parse.
    std::vector<char> bytes = slurp(side.path);
    bytes[bytes.size() / 2] =
        static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
    spit(side.path, bytes);
    const LoadedMatrix viaParse = loadMatrixFile(mtx.path);
    EXPECT_TRUE(viaParse.artifact == nullptr);
    EXPECT_TRUE(viaParse.csr.owning());
    expectSameCsr(viaParse.csr, m);
    EXPECT_EQ(telemetry::counterValue("binio.fallback_parse"), 1u);

    // No sidecar at all: same fallback.
    std::remove(side.path.c_str());
    const LoadedMatrix viaParse2 = loadMatrixFile(mtx.path);
    EXPECT_TRUE(viaParse2.artifact == nullptr);
    expectSameCsr(viaParse2.csr, m);
    EXPECT_EQ(telemetry::counterValue("binio.fallback_parse"), 2u);

    telemetry::configure(telemetry::Config{});
}

TEST(OutOfCoreLoad, StaleSidecarFallsBackToParse)
{
    telemetry::Config tcfg;
    tcfg.enabled = true;
    telemetry::configure(tcfg);
    telemetry::reset();

    // The matrix file holds A; the sidecar holds B (a valid,
    // checksummed artifact of a different matrix -- exactly what a
    // regenerated .mtx with a forgotten repack looks like).
    const Csr a = smallSpd(79, 64);
    const Csr b = smallSpd(83, 64);
    Scratch mtx(tmpPath("stale.mtx"));
    Scratch side(tmpPath("stale.mtx.mscbin"));
    writeMatrixMarket(a, mtx.path);
    writeArtifact(side.path, b);

    namespace fs = std::filesystem;
    const auto mtxTime = fs::last_write_time(mtx.path);

    // Sidecar older than the source: stale, must parse A.
    fs::last_write_time(side.path,
                        mtxTime - std::chrono::hours(1));
    const LoadedMatrix stale = loadMatrixFile(mtx.path);
    EXPECT_TRUE(stale.artifact == nullptr);
    expectSameCsr(stale.csr, a);
    EXPECT_EQ(telemetry::counterValue("binio.stale_sidecar"), 1u);
    EXPECT_EQ(telemetry::counterValue("binio.fallback_parse"), 1u);
    EXPECT_EQ(telemetry::counterValue("binio.map_hits"), 0u);

    // Sidecar at least as new as the source: the artifact wins.
    fs::last_write_time(side.path,
                        mtxTime + std::chrono::hours(1));
    const LoadedMatrix fresh = loadMatrixFile(mtx.path);
    ASSERT_TRUE(fresh.artifact != nullptr);
    expectSameCsr(fresh.csr, b);
    EXPECT_EQ(telemetry::counterValue("binio.map_hits"), 1u);

    telemetry::configure(telemetry::Config{});
}

TEST(OutOfCoreLoad, DirectArtifactPathErrorsPropagate)
{
    // A .mscbin path is an explicit artifact request: no text
    // fallback, the structured error reaches the caller.
    EXPECT_THROW(loadMatrixFile(tmpPath("missing.mscbin")),
                 BinioError);
}

// --- cache keying + solver equivalence -----------------------------

TEST(OutOfCoreEquivalence, ArtifactAndParseShareOneCacheKey)
{
    const Csr m = smallSpd(53, 64);
    Scratch f(tmpPath("keying.mscbin"));
    writeArtifact(f.path, m);
    const auto art = MappedArtifact::map(f.path);

    for (const ServiceBackend backend :
         {ServiceBackend::Csr, ServiceBackend::Accel,
          ServiceBackend::ClusterBitExact}) {
        OperatorConfig cfg;
        cfg.backend = backend;
        const CacheKey fromMatrix = operatorKey(m, cfg);
        const CacheKey fromDigest =
            operatorKeyFrom(art->matrixKey(), cfg);
        EXPECT_EQ(fromMatrix.hi, fromDigest.hi);
        EXPECT_EQ(fromMatrix.lo, fromDigest.lo);
    }

    // And the cache actually shares the entry across the two paths.
    PrepareCache cache;
    OperatorConfig cfg;
    bool hit = true;
    const auto a = cache.acquire(m, cfg, &hit);
    EXPECT_FALSE(hit);
    const auto b = cache.acquire(art, cfg, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(a.get(), b.get());
}

TEST(OutOfCoreEquivalence, PlanReuseRequiresMatchingBlockingKey)
{
    telemetry::Config tcfg;
    tcfg.enabled = true;
    telemetry::configure(tcfg);
    telemetry::reset();

    const Csr m = smallSpd(59, 64);
    BlockingConfig blocking;
    const BlockPlan plan = planBlocks(m, blocking);
    Scratch f(tmpPath("planreuse.mscbin"));
    writeArtifact(f.path, m, &plan, blocking);
    const auto art = MappedArtifact::map(f.path);

    OperatorConfig cfg;
    cfg.backend = ServiceBackend::ClusterBitExact;
    cfg.blocking = blocking;
    {
        PrepareCache cache;
        (void)cache.acquire(art, cfg);
        EXPECT_EQ(telemetry::counterValue("binio.plan_reuse"), 1u);
    }
    // A different blocking configuration must NOT reuse the plan.
    OperatorConfig other = cfg;
    other.blocking.sizes = {4};
    {
        PrepareCache cache;
        (void)cache.acquire(art, other);
        EXPECT_EQ(telemetry::counterValue("binio.plan_reuse"), 1u);
    }
    telemetry::configure(telemetry::Config{});
}

TEST(OutOfCoreEquivalence, CgTrajectoryBitIdenticalAcrossThreads)
{
    // The acceptance gate: artifact-loaded operator vs parsed +
    // preprocessed operator through a full CG solve, bitwise, at
    // 1, 2, and 8 threads, on the exact cluster-arithmetic backend
    // (plan reuse on) and the CSR reference backend.
    const Csr parsed = smallSpd(61, 96);
    BlockingConfig blocking;
    const BlockPlan plan = planBlocks(parsed, blocking);
    Scratch f(tmpPath("trajectory.mscbin"));
    writeArtifact(f.path, parsed, &plan, blocking);
    const auto art = MappedArtifact::map(f.path);

    std::vector<double> b(parsed.rows());
    Rng rng(99);
    for (double &v : b)
        v = rng.uniform(-1.0, 1.0);

    for (const ServiceBackend backend :
         {ServiceBackend::Csr, ServiceBackend::ClusterBitExact}) {
        OperatorConfig cfg;
        cfg.backend = backend;
        cfg.blocking = blocking;

        std::vector<std::vector<double>> solutions;
        for (const unsigned threads : {1u, 2u, 8u}) {
            setGlobalThreads(threads);
            // Two independent caches so each path really builds.
            PrepareCache parseCache, artCache;
            const auto viaParse = parseCache.acquire(parsed, cfg);
            const auto viaArt = artCache.acquire(art, cfg);

            SolverConfig scfg;
            scfg.tolerance = 1e-10;
            scfg.maxIterations = 500;
            std::vector<double> xParse(b.size(), 0.0);
            std::vector<double> xArt(b.size(), 0.0);
            const SolverResult rp = conjugateGradient(
                viaParse->op(), b, xParse, scfg);
            const SolverResult ra =
                conjugateGradient(viaArt->op(), b, xArt, scfg);

            EXPECT_EQ(rp.iterations, ra.iterations);
            ASSERT_EQ(xParse.size(), xArt.size());
            EXPECT_EQ(std::memcmp(xParse.data(), xArt.data(),
                                  xParse.size() * sizeof(double)),
                      0)
                << "backend "
                << static_cast<int>(backend) << " at " << threads
                << " threads";
            solutions.push_back(std::move(xArt));
        }
        // And the solve itself is thread-count invariant (the
        // engine's bit-determinism contract carries to views).
        for (std::size_t i = 1; i < solutions.size(); ++i) {
            EXPECT_EQ(std::memcmp(solutions[0].data(),
                                  solutions[i].data(),
                                  solutions[0].size() *
                                      sizeof(double)),
                      0);
        }
    }
    setGlobalThreads(0);
}

// --- 64-bit index-width regressions --------------------------------

TEST(OutOfCoreWidth, RowOffsetsAre64Bit)
{
    // Pin the promoted types: a regression back to 32-bit offsets
    // fails these at compile time.
    static_assert(
        std::is_same_v<decltype(std::declval<const Csr &>()
                                    .rowPtr())::element_type,
                       const std::int64_t>,
        "row pointers must be 64-bit: out-of-core matrices exceed "
        "2^31 nonzeros");
    static_assert(
        std::is_same_v<decltype(std::declval<const Csr &>().rowNnz(
                           0)),
                       std::int64_t>);
    static_assert(std::is_same_v<decltype(MatrixStats::maxRowNnz),
                                 std::int64_t>);
}

TEST(OutOfCoreWidth, ViewCarriesOffsetsPastInt32)
{
    // A zero-copy view over row offsets beyond 2^31: the metadata
    // paths (rowNnz, nnz, rowPtr) must not truncate. Only the
    // pointer array is real; no element access happens.
    constexpr std::int64_t big = (std::int64_t{1} << 31) + 7;
    const std::int64_t rowPtr[2] = {0, big};
    const std::int32_t dummyCols[1] = {0};
    const double dummyVals[1] = {0.0};
    const Csr v = Csr::view(1, 1, rowPtr, dummyCols, dummyVals,
                            static_cast<std::size_t>(big));
    EXPECT_EQ(v.rowNnz(0), big);
    EXPECT_EQ(v.nnz(), static_cast<std::size_t>(big));
    EXPECT_EQ(v.rowPtr()[1], big);
}

TEST(OutOfCoreWidth, ViewValidatesEndpoints)
{
    const std::int64_t badPtr[2] = {0, 3};
    const std::int32_t cols[1] = {0};
    const double vals[1] = {1.0};
    EXPECT_THROW((void)Csr::view(1, 1, badPtr, cols, vals, 2),
                 PanicError);
    EXPECT_THROW((void)Csr::view(-1, 1, badPtr, cols, vals, 2),
                 PanicError);
}

} // namespace
