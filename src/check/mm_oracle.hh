/**
 * @file
 * Reference Matrix Market reading for differential checks.
 *
 * Two deliberately plain implementations, kept only as oracles:
 *
 *  - the entry walk as std::getline plus one std::istringstream and
 *    `>>` extraction per line -- the grammar the chunked from_chars
 *    tokenizer in sparse/matrix_market.cc must reproduce, accept for
 *    accept, bit for bit, error for error;
 *  - CSR assembly as a std::stable_sort of an index vector by
 *    (row, col) -- the layout and duplicate-summation order the
 *    counting sort in Csr::fromCoo must reproduce.
 *
 * Both share readMatrixMarketHeader with the production reader; the
 * header is parsed by getline on either side. Around them sit the
 * pieces every differential needs: a seeded entry-line generator
 * that covers the tokens where from_chars and `>>` disagree, a
 * streambuf that serves a few bytes per read, and an outcome record
 * that compares accepted matrices bitwise and rejections by reason,
 * progress and message. Judged against them:
 * tests/test_matrix_market_fuzz.cc, tests/test_csr.cc and the `mmio`
 * check module (check_mm.cc).
 */

#ifndef MSC_CHECK_MM_ORACLE_HH
#define MSC_CHECK_MM_ORACLE_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <streambuf>
#include <string>
#include <vector>

#include "sparse/csr.hh"
#include "check/check.hh"
#include "sparse/matrix_market.hh"
#include "util/random.hh"

namespace msc::check {

using MmSink = std::function<void(std::int32_t, std::int32_t, double)>;

/** forEachMatrixMarketEntry by getline + istringstream extraction:
 *  same entries, same MatrixMarketError reason, progress and
 *  message. */
void forEachEntryByExtraction(std::istream &in,
                              const MatrixMarketHeader &header,
                              const MmSink &sink);

/** Csr::fromCoo by a stable sort of entry indices on (row, col). */
Csr assembleByStableSort(const Coo &coo);

/** readMatrixMarket(std::istream &) built from the two oracles. */
Csr readMatrixMarketByExtraction(std::istream &in);

/** One read: the entries or matrix it produced, or its rejection. */
struct MmOutcome
{
    bool accepted = false;
    std::vector<Triplet> entries; //!< walks: entries in sink order
    Csr matrix;                   //!< whole-file reads
    /** Rejected by a MatrixMarketError (reason and entriesRead
     *  set), not by another FatalError. */
    bool structured = true;
    MatrixMarketError::Reason reason{};
    std::uint64_t entriesRead = 0;
    std::string message;
};

/** Run a whole-file read, recording a MatrixMarketError or another
 *  FatalError as the outcome. */
MmOutcome captureRead(const std::function<Csr()> &read);

/** Run an entry walk, recording every entry it delivers. */
MmOutcome captureWalk(const std::function<void(const MmSink &)> &walk);

/** Empty when the outcomes agree bit for bit; otherwise a short
 *  description of the first difference. */
std::string outcomeMismatch(const MmOutcome &got,
                            const MmOutcome &want);

/**
 * A random entry line (no '\n'): two index tokens and a value token
 * in varied spellings -- up to 20-digit mantissas, subnormals,
 * signed exponents, '+' and '-' signs, tab/CR/VT/FF separators,
 * junk suffixes, missing tokens -- with a fixed share drawn from the
 * tokens where std::from_chars and `>>` disagree (leading '+',
 * inf/nan in any case, dangling exponents, underflow, overflow).
 */
std::string randomEntryLine(Rng &rng);

/**
 * Streambuf over a fixed string that serves between 1 and @p maxRead
 * bytes per underflow (sizes drawn from @p seed), so every line,
 * CRLF pair and token of a file can straddle a read boundary.
 */
class TrickleBuf : public std::streambuf
{
  public:
    TrickleBuf(std::string text, std::size_t maxRead,
               std::uint64_t seed);

  protected:
    int_type underflow() override;

  private:
    std::string data;
    std::size_t pos = 0;
    std::size_t cap;
    Rng rng;
};

} // namespace msc::check

#endif // MSC_CHECK_MM_ORACLE_HH
