/**
 * @file
 * Fuzz-style robustness tests for the Matrix Market reader: every
 * malformed input -- truncated files, bad banners, lying headers,
 * out-of-range indices, garbage bytes -- must surface as a clean
 * FatalError, never UB, a wild allocation, or a crash. The
 * randomized sections run fine under the `sanitize` preset; seeds
 * are fixed so failures reproduce deterministically.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <vector>

#include "blocking/stream.hh"
#include "check/mm_oracle.hh"
#include "sparse/gen.hh"
#include "sparse/matrix_market.hh"
#include "util/logging.hh"
#include "util/random.hh"

#if __has_include(<unistd.h>)
#include <unistd.h>
#endif

namespace {

using namespace msc;

Csr
parse(const std::string &text)
{
    std::istringstream in(text);
    return readMatrixMarket(in);
}

void
expectRejected(const std::string &text)
{
    EXPECT_THROW(parse(text), FatalError) << "input:\n" << text;
}

// --- banner / header edges -----------------------------------------

TEST(MatrixMarketFuzz, RejectsEmptyAndBannerlessInput)
{
    expectRejected("");
    expectRejected("\n");
    expectRejected("2 2 1\n1 1 1.0\n");
    expectRejected("%%MatrixMarke matrix coordinate real general\n"
                   "1 1 1\n1 1 1.0\n");
    // Case matters for the tag itself.
    expectRejected("%%matrixmarket matrix coordinate real general\n"
                   "1 1 1\n1 1 1.0\n");
}

TEST(MatrixMarketFuzz, RejectsUnsupportedFormatsFieldsSymmetries)
{
    expectRejected("%%MatrixMarket matrix array real general\n"
                   "2 2\n1.0\n2.0\n3.0\n4.0\n");
    expectRejected("%%MatrixMarket vector coordinate real general\n"
                   "1 1 1\n1 1 1.0\n");
    expectRejected("%%MatrixMarket matrix coordinate complex general\n"
                   "1 1 1\n1 1 1.0 0.0\n");
    expectRejected("%%MatrixMarket matrix coordinate real hermitian\n"
                   "1 1 1\n1 1 1.0\n");
    // Missing banner words read as empty strings, not stale tokens.
    expectRejected("%%MatrixMarket matrix coordinate\n"
                   "1 1 1\n1 1 1.0\n");
    expectRejected("%%MatrixMarket\n1 1 1\n1 1 1.0\n");
}

TEST(MatrixMarketFuzz, BannerWordsAreCaseInsensitive)
{
    const Csr m =
        parse("%%MatrixMarket MATRIX Coordinate REAL General\n"
              "2 2 2\n1 1 3.0\n2 2 4.0\n");
    EXPECT_EQ(m.rows(), 2);
    EXPECT_EQ(m.nnz(), 2u);
}

// --- size-line edges -----------------------------------------------

/** Expect @p text to fail as MatrixMarketError BadSize with no
 *  entries read, through readMatrixMarket and through
 *  matrixMarketEntrySource (the strip-streaming planner's input). */
void
expectHeaderBadSize(const std::string &text)
{
    using Reason = MatrixMarketError::Reason;
    const auto expectBadSize = [&](const auto &read, const char *via) {
        try {
            read();
            ADD_FAILURE() << via << " accepted:\n" << text;
        } catch (const MatrixMarketError &e) {
            EXPECT_EQ(e.reason(), Reason::BadSize) << via << ":\n"
                                                   << text;
            EXPECT_EQ(e.entriesRead(), 0u) << via;
        }
    };
    expectBadSize([&] { parse(text); }, "readMatrixMarket");

#if __has_include(<unistd.h>)
    const long pid = static_cast<long>(::getpid());
#else
    const long pid = 0;
#endif
    const std::string path =
        "/tmp/msc_test_mm_fuzz_" + std::to_string(pid) + ".mtx";
    std::ofstream(path, std::ios::binary) << text;
    expectBadSize(
        [&] {
            matrixMarketEntrySource(path)(
                [](std::int32_t, std::int32_t, double) {});
        },
        "matrixMarketEntrySource");
    std::remove(path.c_str());
}

TEST(MatrixMarketFuzz, RejectsBadSizeLines)
{
    const std::string banner =
        "%%MatrixMarket matrix coordinate real general\n";
    expectRejected(banner);                    // EOF before sizes
    expectRejected(banner + "% only comments\n");
    expectRejected(banner + "abc def ghi\n");
    expectRejected(banner + "0 2 1\n1 1 1.0\n");
    expectRejected(banner + "2 0 1\n1 1 1.0\n");
    expectRejected(banner + "-2 2 1\n1 1 1.0\n");
    expectRejected(banner + "2 2 -1\n1 1 1.0\n");
    // int32 overflow in the dimensions must be caught, not wrapped.
    expectRejected(banner + "4294967297 4294967297 1\n1 1 1.0\n");
    // A (skew-)symmetric banner needs a square size line: the entry
    // (3,1) fits 3x2, its mirror (1,3) does not. Both the in-core
    // reader and the strip-streaming source refuse it at the header.
    for (const char *symmetry : {"symmetric", "skew-symmetric"}) {
        const std::string text =
            std::string("%%MatrixMarket matrix coordinate real ") +
            symmetry + "\n3 2 1\n3 1 1.0\n";
        expectHeaderBadSize(text);
    }
}

TEST(MatrixMarketFuzz, HostileNnzDoesNotPreallocate)
{
    // A lying header nnz (9e18) must fail as a truncation error,
    // not die inside vector::reserve.
    expectRejected("%%MatrixMarket matrix coordinate real general\n"
                   "4 4 9000000000000000000\n1 1 1.0\n");
}

// --- entry-list edges ----------------------------------------------

TEST(MatrixMarketFuzz, RejectsTruncatedAndMalformedEntries)
{
    const std::string head =
        "%%MatrixMarket matrix coordinate real general\n3 3 3\n";
    expectRejected(head);                        // no entries at all
    expectRejected(head + "1 1 1.0\n2 2 2.0\n"); // one short
    expectRejected(head + "1 1 1.0\n2 2\n3 3 3.0\n");  // missing v
    expectRejected(head + "1 1 1.0\nx y z\n3 3 3.0\n");
    expectRejected(head + "1\n2 2 2.0\n3 3 3.0\n");
}

TEST(MatrixMarketFuzz, RejectsOutOfRangeIndices)
{
    const std::string head =
        "%%MatrixMarket matrix coordinate real general\n3 3 1\n";
    expectRejected(head + "0 1 1.0\n");   // 1-based: 0 is invalid
    expectRejected(head + "1 0 1.0\n");
    expectRejected(head + "4 1 1.0\n");
    expectRejected(head + "1 4 1.0\n");
    expectRejected(head + "-1 1 1.0\n");
    // Huge indices must not wrap through the int32 cast back into
    // range (4294967297 - 1 wraps to 0 in 32 bits).
    expectRejected(head + "4294967297 1 1.0\n");
    expectRejected(head + "1 4294967297 1.0\n");
}

TEST(MatrixMarketFuzz, CommentsAndBlanksInsideEntriesAreSkipped)
{
    const Csr m =
        parse("%%MatrixMarket matrix coordinate real general\n"
              "% leading comment\n"
              "\n"
              "2 2 2\n"
              "1 1 5.0\n"
              "% interior comment\n"
              "\n"
              "2 2 6.0\n");
    EXPECT_EQ(m.rows(), 2);
    ASSERT_EQ(m.nnz(), 2u);
    EXPECT_DOUBLE_EQ(m.rowVals(0)[0], 5.0);
    EXPECT_DOUBLE_EQ(m.rowVals(1)[0], 6.0);
}

TEST(MatrixMarketFuzz, PatternAndSymmetryVariantsExpandCorrectly)
{
    const Csr pat =
        parse("%%MatrixMarket matrix coordinate pattern general\n"
              "2 2 2\n1 2\n2 1\n");
    ASSERT_EQ(pat.nnz(), 2u);
    EXPECT_DOUBLE_EQ(pat.rowVals(0)[0], 1.0);

    const Csr sym =
        parse("%%MatrixMarket matrix coordinate real symmetric\n"
              "3 3 2\n2 1 4.0\n3 3 9.0\n");
    ASSERT_EQ(sym.nnz(), 3u); // off-diagonal mirrored, diag not
    EXPECT_DOUBLE_EQ(sym.rowVals(0)[0], 4.0);
    EXPECT_DOUBLE_EQ(sym.rowVals(1)[0], 4.0);

    const Csr skew =
        parse("%%MatrixMarket matrix coordinate real skew-symmetric\n"
              "2 2 1\n2 1 4.0\n");
    ASSERT_EQ(skew.nnz(), 2u);
    EXPECT_DOUBLE_EQ(skew.rowVals(0)[0], -4.0);
    EXPECT_DOUBLE_EQ(skew.rowVals(1)[0], 4.0);
}

TEST(MatrixMarketFuzz, RejectsSkewSymmetricPattern)
{
    // The MM spec restricts pattern matrices to general/symmetric: a
    // skew-symmetric pattern has no values to negate, and inventing
    // -1.0 mirrors would fabricate data.
    expectRejected(
        "%%MatrixMarket matrix coordinate pattern skew-symmetric\n"
        "2 2 1\n2 1\n");
}

TEST(MatrixMarketFuzz, RejectsNonzeroSkewDiagonal)
{
    // Skew-symmetry forces a_ii == -a_ii == 0; a nonzero explicit
    // diagonal contradicts the declared symmetry.
    expectRejected(
        "%%MatrixMarket matrix coordinate real skew-symmetric\n"
        "3 3 2\n2 1 4.0\n2 2 1.0\n");
    // An explicit zero diagonal entry is redundant but legal.
    const Csr ok =
        parse("%%MatrixMarket matrix coordinate real skew-symmetric\n"
              "3 3 2\n2 1 4.0\n2 2 0.0\n");
    EXPECT_EQ(ok.rows(), 3);
    std::vector<double> diag(3, -1.0);
    for (std::int32_t r = 0; r < 3; ++r) {
        const auto cols = ok.rowCols(r);
        const auto vals = ok.rowVals(r);
        for (std::size_t k = 0; k < cols.size(); ++k) {
            if (cols[k] == r) {
                EXPECT_EQ(vals[k], 0.0);
            }
        }
    }
}

TEST(MatrixMarketFuzz, SkewSymmetricReadRoundTripsThroughTranspose)
{
    // A skew-symmetric read must produce A with A^T == -A, term by
    // term: spmvTranspose accumulates the exact negations of the
    // spmv products in the same order, so y^T == -y bitwise.
    const Csr a =
        parse("%%MatrixMarket matrix coordinate real skew-symmetric\n"
              "4 4 4\n"
              "2 1 4.0\n"
              "3 1 -0.125\n"
              "4 2 2.5\n"
              "4 3 -3.0\n");
    ASSERT_EQ(a.nnz(), 8u); // every entry mirrored with flipped sign
    EXPECT_FALSE(a.isSymmetric());

    const std::vector<double> x = {1.0, -2.0, 0.75, 3.0};
    std::vector<double> y(4), yt(4);
    a.spmv(x, y);
    a.spmvTranspose(x, yt);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(yt[i], -y[i]) << "component " << i;

    // The mirrored pairs really carry opposite values.
    const Csr at = a.transpose();
    for (std::int32_t r = 0; r < 4; ++r) {
        const auto ac = a.rowCols(r), tc = at.rowCols(r);
        const auto av = a.rowVals(r), tv = at.rowVals(r);
        ASSERT_EQ(ac.size(), tc.size());
        for (std::size_t k = 0; k < ac.size(); ++k) {
            EXPECT_EQ(ac[k], tc[k]);
            EXPECT_EQ(av[k], -tv[k]);
        }
    }
}

TEST(MatrixMarketFuzz, WriteReadRoundTripsExactly)
{
    TiledParams gen;
    gen.rows = 48;
    gen.tile = 8;
    gen.tileDensity = 0.4;
    gen.spd = true;
    gen.seed = 11;
    const Csr m = genTiled(gen);

    std::stringstream buf;
    writeMatrixMarket(m, buf);
    const Csr back = readMatrixMarket(buf);

    ASSERT_EQ(back.rows(), m.rows());
    ASSERT_EQ(back.cols(), m.cols());
    ASSERT_EQ(back.nnz(), m.nnz());
    for (std::int32_t r = 0; r < m.rows(); ++r) {
        const auto ac = m.rowCols(r), bc = back.rowCols(r);
        const auto av = m.rowVals(r), bv = back.rowVals(r);
        ASSERT_EQ(ac.size(), bc.size()) << "row " << r;
        for (std::size_t k = 0; k < ac.size(); ++k) {
            EXPECT_EQ(ac[k], bc[k]);
            EXPECT_EQ(av[k], bv[k]); // %.17g is lossless for FP64
        }
    }
}

// --- line-ending / encoding hardening ------------------------------

TEST(MatrixMarketFuzz, CrlfLineEndingsParseIdentically)
{
    // Windows-written files: every '\n' becomes "\r\n". The parsed
    // matrix must be bit-identical to the Unix version.
    const std::string unix_ =
        "%%MatrixMarket matrix coordinate real general\n"
        "% comment\n"
        "2 2 2\n"
        "1 1 5.0\n"
        "2 2 6.0\n";
    std::string dos;
    for (char c : unix_) {
        if (c == '\n')
            dos += '\r';
        dos += c;
    }
    const Csr a = parse(unix_);
    const Csr b = parse(dos);
    ASSERT_EQ(b.rows(), a.rows());
    ASSERT_EQ(b.nnz(), a.nnz());
    for (std::int32_t r = 0; r < a.rows(); ++r) {
        const auto av = a.rowVals(r), bv = b.rowVals(r);
        ASSERT_EQ(av.size(), bv.size());
        for (std::size_t k = 0; k < av.size(); ++k)
            EXPECT_EQ(av[k], bv[k]);
    }
}

TEST(MatrixMarketFuzz, Utf8BomBeforeBannerIsStripped)
{
    const Csr m =
        parse("\xef\xbb\xbf%%MatrixMarket matrix coordinate real "
              "general\n2 2 1\n1 1 3.0\n");
    EXPECT_EQ(m.rows(), 2);
    ASSERT_EQ(m.nnz(), 1u);
    EXPECT_DOUBLE_EQ(m.rowVals(0)[0], 3.0);
    // A BOM anywhere else is still garbage.
    expectRejected("%%MatrixMarket matrix coordinate real general\n"
                   "\xef\xbb\xbf" "2 2 1\n1 1 3.0\n");
}

TEST(MatrixMarketFuzz, TrailingGarbageAfterLastEntryIsRejected)
{
    const std::string head =
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n1 1 5.0\n2 2 6.0\n";
    // Blank lines and comments after the last entry stay legal.
    EXPECT_EQ(parse(head + "\n\n% trailing comment\n").nnz(), 2u);
    // Data-looking trailers are silent-truncation hazards: a file
    // whose header lies about its entry count must not half-parse.
    expectRejected(head + "1 2 7.0\n");
    expectRejected(head + "garbage\n");
    expectRejected(head + "% fine\nbut then this\n");
}

// --- structured error reasons --------------------------------------

using Reason = MatrixMarketError::Reason;

/** Parse @p text expecting rejection; return the structured reason
 *  (and parse progress via @p entries). */
Reason
reasonOf(const std::string &text, std::uint64_t *entries = nullptr)
{
    try {
        parse(text);
    } catch (const MatrixMarketError &e) {
        if (entries != nullptr)
            *entries = e.entriesRead();
        return e.reason();
    }
    ADD_FAILURE() << "input unexpectedly accepted:\n" << text;
    return Reason::EmptyInput;
}

TEST(MatrixMarketFuzz, ReasonsDistinguishFailureClasses)
{
    EXPECT_EQ(reasonOf(""), Reason::EmptyInput);
    EXPECT_EQ(reasonOf("2 2 1\n1 1 1.0\n"), Reason::BadBanner);
    EXPECT_EQ(reasonOf("%%MatrixMarket matrix array real general\n"
                       "2 2\n1.0\n"),
              Reason::Unsupported);
    const std::string banner =
        "%%MatrixMarket matrix coordinate real general\n";
    EXPECT_EQ(reasonOf(banner), Reason::Truncated); // no size line
    EXPECT_EQ(reasonOf(banner + "abc def ghi\n"), Reason::BadSize);
    EXPECT_EQ(reasonOf(banner + "3 3 1\nx y z\n"), Reason::BadEntry);
    EXPECT_EQ(reasonOf(banner + "3 3 1\n7 1 1.0\n"),
              Reason::BadEntry);
    // Trailing garbage reports as BadEntry with full progress: all
    // declared entries parsed, then the trailer broke the contract.
    std::uint64_t entries = 0;
    EXPECT_EQ(reasonOf(banner + "2 2 1\n1 1 1.0\njunk\n", &entries),
              Reason::BadEntry);
    EXPECT_EQ(entries, 1u);
    EXPECT_THROW(readMatrixMarket("/nonexistent/file.mtx"),
                 MatrixMarketError);
}

TEST(MatrixMarketFuzz, TruncationCarriesReasonAndProgress)
{
    // EOF mid-entry: structured Truncated with how far we got, so a
    // caller retrying a partial download can report progress.
    const std::string head =
        "%%MatrixMarket matrix coordinate real general\n3 3 3\n";
    std::uint64_t entries = ~0ULL;
    EXPECT_EQ(reasonOf(head + "1 1 1.0\n2 2 2.0\n", &entries),
              Reason::Truncated);
    EXPECT_EQ(entries, 2u);
    EXPECT_EQ(reasonOf(head, &entries), Reason::Truncated);
    EXPECT_EQ(entries, 0u);
    // Malformed entry also reports where it happened.
    EXPECT_EQ(reasonOf(head + "1 1 1.0\nx y z\n3 3 3.0\n",
                       &entries),
              Reason::BadEntry);
    EXPECT_EQ(entries, 1u);
}

/** Streambuf that serves a fixed prefix, then fails like a dying
 *  device: istream turns the underflow throw into badbit. */
class FlakyBuf : public std::streambuf
{
  public:
    explicit FlakyBuf(std::string head) : data(std::move(head))
    {
        setg(data.data(), data.data(),
             data.data() + data.size());
    }

  protected:
    int_type
    underflow() override
    {
        throw std::runtime_error("injected I/O failure");
    }

  private:
    std::string data;
};

TEST(MatrixMarketFuzz, UnreadableStreamIsAStreamErrorNotTruncation)
{
    // Failure on the very first read.
    {
        FlakyBuf buf("");
        std::istream in(&buf);
        try {
            readMatrixMarket(in);
            FAIL() << "unreadable stream accepted";
        } catch (const MatrixMarketError &e) {
            EXPECT_EQ(e.reason(), Reason::StreamError);
        }
    }
    // Failure mid-entry: must NOT be misreported as a truncated
    // (i.e. merely incomplete) file, and must carry progress.
    {
        FlakyBuf buf(
            "%%MatrixMarket matrix coordinate real general\n"
            "3 3 3\n"
            "1 1 1.0\n"
            "2 2 2.0\n");
        std::istream in(&buf);
        try {
            readMatrixMarket(in);
            FAIL() << "failing stream accepted";
        } catch (const MatrixMarketError &e) {
            EXPECT_EQ(e.reason(), Reason::StreamError);
            EXPECT_EQ(e.entriesRead(), 2u);
        }
    }
}

// --- randomized garbage --------------------------------------------

/** Every input, however mangled, must end in a Csr or a FatalError;
 *  anything else (crash, sanitizer report, wild alloc) is a bug. */
void
mustNotCrash(const std::string &text)
{
    try {
        const Csr m = parse(text);
        EXPECT_GE(m.rows(), 0);
        EXPECT_GE(m.cols(), 0);
    } catch (const FatalError &) {
        // Clean rejection: the expected outcome for garbage.
    }
}

TEST(MatrixMarketFuzz, RandomByteNoiseNeverCrashes)
{
    Rng rng(0xf022001);
    const char alphabet[] =
        "0123456789 .-+eE%\n\tMatrixmarket coordinate";
    for (int round = 0; round < 300; ++round) {
        std::string s;
        const std::size_t len = rng.below(200);
        for (std::size_t i = 0; i < len; ++i)
            s += alphabet[rng.below(sizeof(alphabet) - 1)];
        mustNotCrash(s);
        mustNotCrash(
            "%%MatrixMarket matrix coordinate real general\n" + s);
    }
}

TEST(MatrixMarketFuzz, MutatedValidFilesNeverCrash)
{
    TiledParams gen;
    gen.rows = 24;
    gen.tile = 8;
    gen.tileDensity = 0.5;
    gen.seed = 3;
    std::stringstream buf;
    writeMatrixMarket(genTiled(gen), buf);
    const std::string base = buf.str();

    Rng rng(0xf022002);
    for (int round = 0; round < 300; ++round) {
        std::string s = base;
        // A handful of point mutations: flip, delete, or insert.
        const int edits = 1 + static_cast<int>(rng.below(8));
        for (int e = 0; e < edits && !s.empty(); ++e) {
            const std::size_t pos = rng.below(s.size());
            switch (rng.below(3)) {
              case 0:
                s[pos] = static_cast<char>(32 + rng.below(96));
                break;
              case 1:
                s.erase(pos, 1 + rng.below(16));
                break;
              default:
                s.insert(pos, 1 + rng.below(4),
                         static_cast<char>(32 + rng.below(96)));
                break;
            }
        }
        mustNotCrash(s);
        // Truncation at every kind of boundary.
        mustNotCrash(s.substr(0, rng.below(s.size() + 1)));
    }
}

// --- tokenizer vs stream extraction --------------------------------
//
// The entry walk tokenizes with std::from_chars; the retired
// getline + istringstream `>>` walk (check/mm_oracle.hh) is the
// oracle. Every comparison covers accept/reject, entry bits, and on
// rejection the reason, progress and message text.

using check::MmOutcome;

/** Header with the widest legal dimensions, so every index that
 *  fits int32 reaches the sink instead of the range check. */
MatrixMarketHeader
wideHeader(bool pattern = false, bool skew = false)
{
    MatrixMarketHeader h;
    h.rows = h.cols = 0x7fffffff;
    h.declaredEntries = 1;
    h.pattern = pattern;
    h.symmetric = h.skewSymmetric = skew;
    return h;
}

MmOutcome
walkTokenizer(const std::string &text, const MatrixMarketHeader &h)
{
    return check::captureWalk([&](const check::MmSink &sink) {
        std::istringstream in(text);
        forEachMatrixMarketEntry(in, h, sink);
    });
}

MmOutcome
walkOracle(const std::string &text, const MatrixMarketHeader &h)
{
    return check::captureWalk([&](const check::MmSink &sink) {
        std::istringstream in(text);
        check::forEachEntryByExtraction(in, h, sink);
    });
}

/** Walk one entry line both ways; fail on any difference. Returns
 *  the tokenizer's outcome for further assertions. */
MmOutcome
expectLineParity(const std::string &line,
                 const MatrixMarketHeader &h = wideHeader())
{
    const std::string text = line + "\n";
    MmOutcome got = walkTokenizer(text, h);
    const std::string diff =
        check::outcomeMismatch(got, walkOracle(text, h));
    EXPECT_TRUE(diff.empty()) << "line [" << line << "]: " << diff;
    return got;
}

std::uint64_t
bitsOf(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

TEST(MatrixMarketFuzz, TokenizerMatchesStreamExtraction)
{
    Rng rng(0xf022003);
    const MatrixMarketHeader headers[] = {
        wideHeader(), wideHeader(true), wideHeader(false, true)};
    std::size_t accepted = 0, rejected = 0;
    for (int round = 0; round < 4000; ++round) {
        const std::string line = check::randomEntryLine(rng);
        for (const MatrixMarketHeader &h : headers)
            (expectLineParity(line, h).accepted ? accepted
                                                : rejected)++;
    }
    // The generator must exercise both sides of the grammar.
    EXPECT_GT(accepted, 3000u);
    EXPECT_GT(rejected, 1000u);
}

TEST(MatrixMarketFuzz, LeadingPlusSignIsAccepted)
{
    // `>>` takes a leading '+'; std::from_chars does not.
    const MmOutcome out = expectLineParity("+3 +00004 +2.5e+1");
    ASSERT_TRUE(out.accepted);
    ASSERT_EQ(out.entries.size(), 1u);
    EXPECT_EQ(out.entries[0].row, 2);
    EXPECT_EQ(out.entries[0].col, 3);
    EXPECT_EQ(out.entries[0].val, 25.0);
    // '+' then another sign is no number for either.
    EXPECT_FALSE(expectLineParity("+-3 1 1.0").accepted);
    EXPECT_FALSE(expectLineParity("1 1 +-1.0").accepted);
}

TEST(MatrixMarketFuzz, InfinityAndNanAreRejected)
{
    // std::from_chars accepts these spellings in any case; `>>`
    // accepts none of them.
    for (const char *v : {"inf", "INF", "-Inf", "+inf", "nan", "NaN",
                          "-nan", "nan(1)", "infinity", "Infinity",
                          "-INFINITY"}) {
        const MmOutcome out =
            expectLineParity(std::string("1 1 ") + v);
        EXPECT_FALSE(out.accepted) << v;
        EXPECT_EQ(out.reason, Reason::BadEntry) << v;
    }
}

TEST(MatrixMarketFuzz, DanglingExponentIsRejected)
{
    // std::from_chars reads "1e" as 1 and stops; `>>` consumes the
    // 'e' (and sign) and then fails for want of exponent digits.
    for (const char *v : {"1e", "1e+", "1E-", "-2.5e", "1ee5",
                          "1e+-5", "3.0e junk"}) {
        const MmOutcome out =
            expectLineParity(std::string("1 1 ") + v);
        EXPECT_FALSE(out.accepted) << v;
    }
    // A complete exponent followed by junk is fine for both.
    EXPECT_TRUE(expectLineParity("1 1 1e5e3").accepted);
}

TEST(MatrixMarketFuzz, UnderflowReadsAsSignedZero)
{
    // std::from_chars reports result_out_of_range; `>>` stores
    // strtod's correctly rounded result, here a signed zero.
    const MmOutcome pos = expectLineParity("1 1 1e-400");
    ASSERT_TRUE(pos.accepted);
    EXPECT_EQ(bitsOf(pos.entries[0].val), bitsOf(0.0));
    const MmOutcome neg = expectLineParity("1 1 -1e-400");
    ASSERT_TRUE(neg.accepted);
    EXPECT_EQ(bitsOf(neg.entries[0].val), bitsOf(-0.0));
    // Just below half the smallest subnormal rounds to zero; at half
    // it rounds up to the smallest subnormal.
    EXPECT_EQ(bitsOf(expectLineParity("1 1 2.4703282292062327e-324")
                         .entries.at(0)
                         .val),
              bitsOf(0.0));
    EXPECT_EQ(bitsOf(expectLineParity("1 1 2.4703282292062328e-324")
                         .entries.at(0)
                         .val),
              1u);
    EXPECT_TRUE(
        expectLineParity("1 1 1e-99999999999999999999").accepted);
}

TEST(MatrixMarketFuzz, OverflowIsRejected)
{
    for (const char *line :
         {"1 1 1e400", "1 1 -1e400", "1 1 1.7976931348623159e308",
          "1 1 1e99999999999999999999", "9223372036854775808 1 1.0",
          "1 -9223372036854775809 1.0",
          "99999999999999999999 1 1.0"}) {
        const MmOutcome out = expectLineParity(line);
        EXPECT_FALSE(out.accepted) << line;
        EXPECT_EQ(out.reason, Reason::BadEntry) << line;
    }
    // The largest finite value still reads exactly.
    EXPECT_EQ(expectLineParity("1 1 1.7976931348623157e308")
                  .entries.at(0)
                  .val,
              1.7976931348623157e308);
}

// --- chunk boundaries ----------------------------------------------

/** A file that puts every walk feature on the page: comments and
 *  blank lines between entries, CRLF endings, tabs, extra tokens,
 *  a long entry line, duplicates and symmetric mirroring. */
std::string
featureFile(bool crlf)
{
    std::string text =
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "% a comment long enough to straddle several reads\n"
        "\n"
        "5 5 7\n"
        "1 1 2.5\n"
        "% interior comment\n"
        "2\t1\t-0.33333333333333331\n"
        "\n"
        "3 2 +1e-310 trailing tokens are ignored\n"
        "4    3                  1.0000000000000002e+17      \n"
        "5 5 -0.0\n"
        "2 1 0.1\n" // duplicate of (2,1): accumulates in order
        "5 4 6.02214076e23\n"
        "% trailing comment\n"
        "\n";
    if (!crlf)
        return text;
    std::string dos;
    for (char c : text) {
        if (c == '\n')
            dos += '\r';
        dos += c;
    }
    return dos;
}

Csr
parseTrickled(const std::string &text, std::size_t maxRead,
              std::uint64_t seed)
{
    check::TrickleBuf buf(text, maxRead, seed);
    std::istream in(&buf);
    return readMatrixMarket(in);
}

TEST(MatrixMarketFuzz, ChunkBoundariesDoNotChangeTheParse)
{
    for (const bool crlf : {false, true}) {
        const std::string text = featureFile(crlf);
        const Csr plain = parse(text);
        std::istringstream oracleIn(text);
        ASSERT_TRUE(check::sameCsrBits(
            plain, check::readMatrixMarketByExtraction(oracleIn)));
        ASSERT_EQ(plain.nnz(), 10u);
        // One byte per read splits every CRLF pair, comment line
        // and token; 1-7 byte reads split them everywhere else.
        EXPECT_TRUE(check::sameCsrBits(parseTrickled(text, 1, 0),
                                       plain))
            << "crlf " << crlf;
        for (std::uint64_t seed = 1; seed <= 40; ++seed) {
            EXPECT_TRUE(check::sameCsrBits(
                parseTrickled(text, 7, seed), plain))
                << "crlf " << crlf << " seed " << seed;
        }
    }
}

TEST(MatrixMarketFuzz, ChunkBoundariesKeepErrorOutcomes)
{
    const std::string head =
        "%%MatrixMarket matrix coordinate real general\r\n"
        "3 3 3\r\n"
        "1 1 1.0\r\n"
        "% comment\r\n"
        "2 2 2.0\r\n";
    const std::string files[] = {
        head,                            // truncated after 2
        head + "3 3",                    // truncated mid-line
        head + "3 3 3.0\r\n4 4 4.0\r\n", // trailing garbage
        head + "3 3 3.0\r\n% ok\r\n\r\nx", // garbage after comments
        head + "3 3 1e\r\n",             // bad value
        head + "3 9 1.0\r\n",            // out of range
    };
    for (const std::string &text : files) {
        std::istringstream oracleIn(text);
        const MmOutcome want = check::captureRead(
            [&] { return check::readMatrixMarketByExtraction(oracleIn); });
        ASSERT_FALSE(want.accepted) << text;
        const std::string direct = check::outcomeMismatch(
            check::captureRead([&] { return parse(text); }), want);
        EXPECT_TRUE(direct.empty()) << direct;
        for (std::uint64_t seed = 0; seed < 20; ++seed) {
            const std::string diff = check::outcomeMismatch(
                check::captureRead([&] {
                    return parseTrickled(text, seed == 0 ? 1 : 7,
                                         seed);
                }),
                want);
            EXPECT_TRUE(diff.empty()) << "seed " << seed << ": "
                                      << diff;
        }
    }
}

TEST(MatrixMarketFuzz, LinesLongerThanTheReadBufferParse)
{
    // The walk buffers one chunk; a longer line grows the buffer
    // rather than being split or truncated.
    const std::string pad(200000, ' ');
    const std::string junk(150000, 'x');
    const std::string text =
        "%%MatrixMarket matrix coordinate real general\n"
        "3 3 3\n"
        "%" + std::string(300000, 'c') + "\n"
        "1 1" + pad + "4.5\n"
        "2 2 5.5 " + junk + "\n"
        "3" + pad + "3" + pad + "6.5" + pad + "\r\n";
    std::istringstream oracleIn(text);
    const Csr want = check::readMatrixMarketByExtraction(oracleIn);
    ASSERT_EQ(want.nnz(), 3u);
    EXPECT_TRUE(check::sameCsrBits(parse(text), want));
    EXPECT_TRUE(check::sameCsrBits(parseTrickled(text, 7, 5), want));
    // A long trailing-garbage line reports itself in full.
    const std::string bad = text + pad + "7\n";
    std::istringstream badIn(bad);
    const std::string diff = check::outcomeMismatch(
        check::captureRead([&] { return parse(bad); }),
        check::captureRead([&] {
            return check::readMatrixMarketByExtraction(badIn);
        }));
    EXPECT_TRUE(diff.empty()) << diff;
}

} // namespace
