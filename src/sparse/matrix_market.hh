/**
 * @file
 * Matrix Market (MM) coordinate format I/O.
 *
 * The paper's inputs come from the SuiteSparse collection, which is
 * distributed in Matrix Market format. This reader/writer supports
 * the coordinate real/integer/pattern banner with general or
 * symmetric storage, which covers the collection.
 *
 * Two consumption modes share one validation core:
 *  - readMatrixMarket() parses the whole file into a Csr;
 *  - readMatrixMarketHeader() + forEachMatrixMarketEntry() stream
 *    logical entries (symmetric storage expanded) to a callback
 *    without materializing a Coo, which is what the out-of-core
 *    blocking preprocessor (blocking/stream.hh) uses for its
 *    bounded-memory rescan passes.
 *
 * Robustness: CRLF line endings and a UTF-8 BOM before the banner
 * are accepted (SuiteSparse mirrors serve both), while trailing
 * non-comment garbage after the declared entry count is rejected --
 * it usually means a concatenated or corrupted download, and
 * silently ignoring it would hide real data loss.
 *
 * Speed: the header is read with std::getline; the entry lines,
 * which are nearly all of a file, go through one tokenizer that
 * reads the stream in fixed-size chunks into a bounded buffer,
 * splits lines with memchr and converts tokens with std::from_chars.
 * It accepts exactly what `std::istream >>` extraction accepted, with
 * the same bits and the same errors; that walk survives as the
 * differential oracle in check/mm_oracle.hh (DESIGN.md section 2k).
 */

#ifndef MSC_SPARSE_MATRIX_MARKET_HH
#define MSC_SPARSE_MATRIX_MARKET_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

#include "sparse/csr.hh"
#include "util/logging.hh"

namespace msc {

/**
 * Structured loader failure. Derives from FatalError (existing
 * catch sites keep working) but carries a machine-readable reason
 * and how many entries had been parsed, so callers -- and the fuzz
 * tests -- can distinguish a truncated download (Truncated, with
 * progress) from a malformed file (BadEntry) or a failing device
 * (StreamError) without parsing the message.
 */
class MatrixMarketError : public FatalError
{
  public:
    enum class Reason
    {
        EmptyInput,  //!< no banner line at all
        BadBanner,   //!< first line is not a MatrixMarket banner
        Unsupported, //!< valid banner, unsupported format/field
        BadSize,     //!< size line malformed or out of range
        Truncated,   //!< EOF before the declared entry count
        BadEntry,    //!< entry line malformed or inconsistent
        StreamError, //!< read failed (I/O error, not EOF)
        CannotOpen,  //!< file open failed
    };

    MatrixMarketError(Reason why, const std::string &msg,
                      std::uint64_t entriesParsed = 0)
        : FatalError(msg), r(why), parsed(entriesParsed)
    {}

    Reason reason() const { return r; }

    /** Entries successfully parsed before the failure (meaningful
     *  for Truncated/BadEntry/StreamError). */
    std::uint64_t entriesRead() const { return parsed; }

  private:
    Reason r;
    std::uint64_t parsed;
};

/** Parsed banner + size line of a coordinate MM stream. */
struct MatrixMarketHeader
{
    std::int32_t rows = 0;
    std::int32_t cols = 0;
    /** Entry lines declared by the size line (before symmetric
     *  expansion). */
    std::uint64_t declaredEntries = 0;
    bool pattern = false;
    bool symmetric = false;
    bool skewSymmetric = false;
};

/** Parse banner, comments, and size line; leaves @p in positioned
 *  at the first entry line. Throws MatrixMarketError. */
MatrixMarketHeader readMatrixMarketHeader(std::istream &in);

/**
 * Stream every logical entry in file order into @p sink: explicit
 * entries as written, each off-diagonal of a symmetric matrix
 * followed immediately by its mirrored partner. Performs the same
 * validation as readMatrixMarket (range checks, skew diagonal,
 * trailing-garbage rejection); rescanning a file therefore delivers
 * an identical entry sequence every pass.
 */
void forEachMatrixMarketEntry(
    std::istream &in, const MatrixMarketHeader &header,
    const std::function<void(std::int32_t, std::int32_t, double)>
        &sink);

/** Read a Matrix Market file; symmetric storage is expanded.
 *  Throws MatrixMarketError on malformed or unreadable input. */
Csr readMatrixMarket(const std::string &path);

/** Read Matrix Market data from a stream. */
Csr readMatrixMarket(std::istream &in);

/**
 * Write a matrix in Matrix Market coordinate real general format.
 * One-based indices per the specification.
 */
void writeMatrixMarket(const Csr &m, const std::string &path);
void writeMatrixMarket(const Csr &m, std::ostream &out);

} // namespace msc

#endif // MSC_SPARSE_MATRIX_MARKET_HH
