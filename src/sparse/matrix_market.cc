#include "sparse/matrix_market.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string_view>
#include <vector>

#include "util/logging.hh"

namespace msc {

namespace {

std::string
lowered(std::string s)
{
    for (auto &c : s)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

/** Throw the structured loader error, message formatted like
 *  fatal() so existing catch-and-print sites look unchanged. */
template <typename... Args>
[[noreturn]] void
mmFail(MatrixMarketError::Reason why, std::uint64_t parsed,
       Args &&...args)
{
    throw MatrixMarketError(
        why,
        detail::concat("fatal: ", std::forward<Args>(args)...),
        parsed);
}

/** Drop a trailing '\r' from a header line: files written on
 *  Windows arrive with CRLF line endings, and the '\r' must not leak
 *  into the banner's last word. */
void
stripCr(std::string &line)
{
    if (!line.empty() && line.back() == '\r')
        line.pop_back();
}

/**
 * Line source for the entry walk over one bounded buffer. The
 * stream is read in chunks through its streambuf, lines are split
 * with memchr, and each line is handed out as a view into the
 * buffer, with its '\n' and one trailing '\r' removed -- the lines
 * std::getline + stripCr would produce, without a string per line.
 *
 * The buffer holds one chunk, or the longest line if that is longer
 * (getline's string had to hold it too); the file is never read
 * whole. A read only asks the streambuf for bytes it reports as
 * buffered, and otherwise pulls one underflow at a time, so bytes a
 * failing streambuf served before it threw are still delivered: a
 * device error surfaces on the line it interrupts, as with getline.
 */
class LineReader
{
  public:
    explicit LineReader(std::istream &stream)
        : in(stream), buf(chunkBytes), atEnd(!stream.good()),
          readError(stream.bad())
    {}

    /** Next line; false at end of input or on a read error. A final
     *  line without '\n' is a line, a line cut by an error is not. */
    bool
    next(std::string_view &line)
    {
        for (;;) {
            if (const void *nl = std::memchr(buf.data() + scan, '\n',
                                             tail - scan)) {
                const std::size_t eol = static_cast<std::size_t>(
                    static_cast<const char *>(nl) - buf.data());
                line = take(eol);
                head = scan = eol + 1;
                return true;
            }
            scan = tail;
            if (atEnd) {
                if (readError || head == tail)
                    return false;
                line = take(tail);
                head = scan = tail;
                return true;
            }
            refill();
        }
    }

    /** The stream failed underneath the walk (not a plain EOF). */
    bool failed() const { return readError; }

  private:
    static constexpr std::size_t chunkBytes = std::size_t{64} << 10;

    std::string_view
    take(std::size_t eol) const
    {
        std::size_t len = eol - head;
        if (len > 0 && buf[head + len - 1] == '\r')
            --len;
        return {buf.data() + head, len};
    }

    void
    refill()
    {
        // Keep the unfinished line, at the front.
        if (head > 0) {
            std::memmove(buf.data(), buf.data() + head, tail - head);
            tail -= head;
            scan -= head;
            head = 0;
        }
        if (tail == buf.size())
            buf.resize(buf.size() * 2); // one line outgrew the chunk
        const std::size_t got = read(buf.data() + tail,
                                     buf.size() - tail);
        tail += got;
        if (got == 0) {
            atEnd = true;
            in.setstate(readError
                            ? std::ios_base::badbit |
                                  std::ios_base::failbit
                            : std::ios_base::eofbit |
                                  std::ios_base::failbit);
        }
    }

    std::size_t
    read(char *dst, std::size_t room)
    {
        using Traits = std::istream::traits_type;
        std::streambuf *sb = in.rdbuf();
        try {
            std::streamsize avail = sb->in_avail();
            if (avail <= 0) {
                if (Traits::eq_int_type(sb->sgetc(), Traits::eof()))
                    return 0;
                avail = std::max<std::streamsize>(sb->in_avail(), 1);
            }
            const std::streamsize got = sb->sgetn(
                dst, std::min(avail,
                              static_cast<std::streamsize>(room)));
            return got > 0 ? static_cast<std::size_t>(got) : 0;
        } catch (...) {
            readError = true;
            return 0;
        }
    }

    std::istream &in;
    std::vector<char> buf;
    std::size_t head = 0; //!< start of the unread line
    std::size_t scan = 0; //!< bytes before this hold no '\n'
    std::size_t tail = 0; //!< end of the buffered bytes
    bool atEnd;
    bool readError;
};

// Entry tokens, matched to what `std::istream >>` extracts in the
// classic locale (libstdc++ num_get): each token skips leading
// whitespace, needs no separator after it (it ends at the first
// character its grammar rejects), and std::from_chars converts the
// matched characters. The grammar check is ours because from_chars
// alone disagrees with >> on a leading '+', on inf/nan, and on a
// dangling exponent ("1e", "1e+").

bool
isSpace(char ch)
{
    return ch == ' ' || (ch >= '\t' && ch <= '\r');
}

bool
isDigit(char ch)
{
    return ch >= '0' && ch <= '9';
}

/** Integer token: optional sign, then decimal digits; overflow of
 *  long long rejects. */
bool
parseIndex(const char *&p, const char *end, long long &out)
{
    while (p != end && isSpace(*p))
        ++p;
    const char *first = p;
    if (first != end && *first == '+') {
        ++first; // from_chars takes '-' itself, never '+'
        if (first == end || !isDigit(*first))
            return false;
    }
    const auto [ptr, ec] = std::from_chars(first, end, out);
    if (ec != std::errc{})
        return false;
    p = ptr;
    return true;
}

/** Value token: optional sign, a mantissa with at least one digit
 *  and at most one '.', then an optional exponent that must carry a
 *  digit. Results that overflow reject; results that underflow keep
 *  strtod's value (from_chars reports both as out of range). */
bool
parseValue(const char *&p, const char *end, double &out)
{
    while (p != end && isSpace(*p))
        ++p;
    const char *q = p;
    if (q != end && (*q == '+' || *q == '-'))
        ++q;
    bool mantissa = false;
    for (; q != end && isDigit(*q); ++q)
        mantissa = true;
    if (q != end && *q == '.') {
        for (++q; q != end && isDigit(*q); ++q)
            mantissa = true;
    }
    if (!mantissa)
        return false;
    if (q != end && (*q == 'e' || *q == 'E')) {
        ++q;
        if (q != end && (*q == '+' || *q == '-'))
            ++q;
        if (q == end || !isDigit(*q))
            return false;
        while (q != end && isDigit(*q))
            ++q;
    }
    const char *first = *p == '+' ? p + 1 : p;
    const auto [ptr, ec] = std::from_chars(first, q, out);
    if (ec != std::errc{} || ptr != q) {
        // num_get hands the token to strtod (C locale; this library
        // never calls setlocale) and rejects only a partial parse or
        // an infinite result.
        const std::string token(p, q);
        char *stop = nullptr;
        const double v = std::strtod(token.c_str(), &stop);
        if (stop != token.c_str() + token.size() || std::isinf(v))
            return false;
        out = v;
    }
    p = q;
    return true;
}

} // namespace

MatrixMarketHeader
readMatrixMarketHeader(std::istream &in)
{
    using Reason = MatrixMarketError::Reason;
    std::string line;
    if (!std::getline(in, line)) {
        if (in.bad())
            mmFail(Reason::StreamError, 0,
                   "matrix market: read error on banner line");
        mmFail(Reason::EmptyInput, 0, "matrix market: empty input");
    }
    stripCr(line);
    // A UTF-8 byte-order mark before the banner is produced by some
    // Windows editors; the spec's banner match is byte-exact, so the
    // BOM must be stripped rather than folded into the tag.
    if (line.size() >= 3 && line[0] == '\xef' && line[1] == '\xbb' &&
        line[2] == '\xbf') {
        line.erase(0, 3);
    }

    std::istringstream banner(line);
    std::string tag, object, format, field, symmetry;
    banner >> tag >> object >> format >> field >> symmetry;
    if (tag != "%%MatrixMarket")
        mmFail(Reason::BadBanner, 0,
               "matrix market: bad banner: ", line);
    object = lowered(object);
    format = lowered(format);
    field = lowered(field);
    symmetry = lowered(symmetry);
    if (object != "matrix" || format != "coordinate")
        mmFail(Reason::Unsupported, 0,
               "matrix market: only coordinate matrices supported");
    if (field != "real" && field != "integer" && field != "pattern")
        mmFail(Reason::Unsupported, 0,
               "matrix market: unsupported field: ", field);
    MatrixMarketHeader h;
    h.pattern = (field == "pattern");
    if (symmetry == "general") {
        // nothing
    } else if (symmetry == "symmetric") {
        h.symmetric = true;
    } else if (symmetry == "skew-symmetric") {
        h.symmetric = true;
        h.skewSymmetric = true;
    } else {
        mmFail(Reason::Unsupported, 0,
               "matrix market: unsupported symmetry: ", symmetry);
    }
    // The MM spec allows pattern matrices to be general or symmetric
    // only: a skew-symmetric pattern has no values to negate, and
    // mirroring the implicit 1.0 as -1.0 would fabricate data.
    if (h.pattern && h.skewSymmetric)
        mmFail(Reason::Unsupported, 0,
               "matrix market: pattern field cannot be "
               "skew-symmetric");

    // Skip comments.
    bool haveSizeLine = false;
    while (std::getline(in, line)) {
        stripCr(line);
        if (!line.empty() && line[0] != '%') {
            haveSizeLine = true;
            break;
        }
    }
    if (!haveSizeLine) {
        if (in.bad())
            mmFail(Reason::StreamError, 0,
                   "matrix market: read error before size line");
        mmFail(Reason::Truncated, 0,
               "matrix market: missing size line");
    }
    std::istringstream sizes(line);
    long long rows = 0, cols = 0, declaredNnz = 0;
    sizes >> rows >> cols >> declaredNnz;
    if (sizes.fail() || rows <= 0 || cols <= 0 || declaredNnz < 0)
        mmFail(Reason::BadSize, 0,
               "matrix market: bad size line: ", line);
    constexpr long long dimMax = 0x7fffffff; // int32 storage
    if (rows > dimMax || cols > dimMax)
        mmFail(Reason::BadSize, 0,
               "matrix market: dimensions out of range: ", line);
    // A (skew-)symmetric matrix is square: a non-square size line
    // contradicts the banner. Refusing it here makes every reader
    // (in-core, strip-streaming, oracle) fail alike, before the
    // first mirrored entry lands past the short side.
    if (h.symmetric && rows != cols)
        mmFail(Reason::BadSize, 0,
               "matrix market: symmetric matrix must be square: ",
               line);
    h.rows = static_cast<std::int32_t>(rows);
    h.cols = static_cast<std::int32_t>(cols);
    h.declaredEntries = static_cast<std::uint64_t>(declaredNnz);
    return h;
}

void
forEachMatrixMarketEntry(
    std::istream &in, const MatrixMarketHeader &header,
    const std::function<void(std::int32_t, std::int32_t, double)>
        &sink)
{
    using Reason = MatrixMarketError::Reason;
    LineReader lines(in);
    std::string_view line;
    for (std::uint64_t k = 0; k < header.declaredEntries; ++k) {
        const std::uint64_t parsed = k;
        if (!lines.next(line)) {
            // EOF mid-entry is a truncated file (partial download);
            // a read error is the device failing underneath us.
            // Callers retrying a download need to tell them apart.
            if (lines.failed())
                mmFail(Reason::StreamError, parsed,
                       "matrix market: read error after ", k,
                       " entries");
            mmFail(Reason::Truncated, parsed,
                   "matrix market: truncated after ", k,
                   " entries");
        }
        if (line.empty() || line[0] == '%') {
            --k;
            continue;
        }
        const char *p = line.data();
        const char *const end = p + line.size();
        long long r = 0, c = 0;
        double v = 1.0;
        if (!parseIndex(p, end, r) || !parseIndex(p, end, c) ||
            (!header.pattern && !parseValue(p, end, v)))
            mmFail(Reason::BadEntry, parsed,
                   "matrix market: bad entry line: ", line);
        // Checked on the wide value: a huge 1-based index must not
        // wrap through the int32 cast into a valid-looking slot.
        if (r < 1 || r > header.rows || c < 1 || c > header.cols)
            mmFail(Reason::BadEntry, parsed,
                   "matrix market: entry index out of range: ",
                   line);
        // Skew-symmetry forces a zero diagonal; a nonzero explicit
        // diagonal entry contradicts the declared symmetry and must
        // not be silently stored.
        if (header.skewSymmetric && r == c && v != 0.0) {
            mmFail(Reason::BadEntry, parsed,
                   "matrix market: nonzero diagonal entry in "
                   "skew-symmetric matrix: ", line);
        }
        sink(static_cast<std::int32_t>(r - 1),
             static_cast<std::int32_t>(c - 1), v);
        if (header.symmetric && r != c) {
            sink(static_cast<std::int32_t>(c - 1),
                 static_cast<std::int32_t>(r - 1),
                 header.skewSymmetric ? -v : v);
        }
    }
    // Anything beyond the declared count other than blank lines or
    // comments means the file does not end where its header claims:
    // a concatenation accident or corruption, never ignorable.
    while (lines.next(line)) {
        if (line.empty() || line[0] == '%')
            continue;
        mmFail(Reason::BadEntry, header.declaredEntries,
               "matrix market: trailing garbage after ",
               header.declaredEntries, " declared entries: ", line);
    }
    if (lines.failed())
        mmFail(Reason::StreamError, header.declaredEntries,
               "matrix market: read error after last entry");
}

Csr
readMatrixMarket(std::istream &in)
{
    const MatrixMarketHeader h = readMatrixMarketHeader(in);
    Coo coo;
    coo.rows = h.rows;
    coo.cols = h.cols;
    // A hostile nnz in the header must not abort on allocation; the
    // vector grows on demand and a lying header surfaces as a
    // truncation error in the entry walk. Clamp before the symmetric
    // doubling so the product cannot wrap std::size_t.
    coo.entries.reserve(
        std::min<std::uint64_t>(h.declaredEntries, 1ull << 20) *
        (h.symmetric ? 2 : 1));
    forEachMatrixMarketEntry(
        in, h, [&coo](std::int32_t r, std::int32_t c, double v) {
            coo.add(r, c, v);
        });
    return Csr::fromCoo(coo);
}

Csr
readMatrixMarket(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        mmFail(MatrixMarketError::Reason::CannotOpen, 0,
               "matrix market: cannot open ", path);
    return readMatrixMarket(in);
}

void
writeMatrixMarket(const Csr &m, std::ostream &out)
{
    out << "%%MatrixMarket matrix coordinate real general\n";
    out << "% written by mscsim\n";
    out << m.rows() << " " << m.cols() << " " << m.nnz() << "\n";
    out.precision(17);
    for (std::int32_t r = 0; r < m.rows(); ++r) {
        const auto cols = m.rowCols(r);
        const auto vals = m.rowVals(r);
        for (std::size_t k = 0; k < cols.size(); ++k) {
            out << (r + 1) << " " << (cols[k] + 1) << " " << vals[k]
                << "\n";
        }
    }
}

void
writeMatrixMarket(const Csr &m, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        fatal("matrix market: cannot open ", path, " for writing");
    writeMatrixMarket(m, out);
}

} // namespace msc
