#include "check/mm_oracle.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "util/logging.hh"

namespace msc::check {

namespace {

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

void
stripCr(std::string &line)
{
    if (!line.empty() && line.back() == '\r')
        line.pop_back();
}

} // namespace

void
forEachEntryByExtraction(std::istream &in,
                         const MatrixMarketHeader &header,
                         const MmSink &sink)
{
    using Reason = MatrixMarketError::Reason;
    std::string line;
    for (std::uint64_t k = 0; k < header.declaredEntries; ++k) {
        const std::uint64_t parsed = k;
        if (!std::getline(in, line)) {
            if (in.bad())
                mmFail(Reason::StreamError, parsed,
                       "matrix market: read error after ", k,
                       " entries");
            mmFail(Reason::Truncated, parsed,
                   "matrix market: truncated after ", k,
                   " entries");
        }
        stripCr(line);
        if (line.empty() || line[0] == '%') {
            --k;
            continue;
        }
        std::istringstream entry(line);
        long long r = 0, c = 0;
        double v = 1.0;
        entry >> r >> c;
        if (!header.pattern)
            entry >> v;
        if (entry.fail())
            mmFail(Reason::BadEntry, parsed,
                   "matrix market: bad entry line: ", line);
        if (r < 1 || r > header.rows || c < 1 || c > header.cols)
            mmFail(Reason::BadEntry, parsed,
                   "matrix market: entry index out of range: ",
                   line);
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
    while (std::getline(in, line)) {
        stripCr(line);
        if (line.empty() || line[0] == '%')
            continue;
        mmFail(Reason::BadEntry, header.declaredEntries,
               "matrix market: trailing garbage after ",
               header.declaredEntries, " declared entries: ", line);
    }
    if (in.bad())
        mmFail(Reason::StreamError, header.declaredEntries,
               "matrix market: read error after last entry");
}

Csr
assembleByStableSort(const Coo &coo)
{
    for (const auto &t : coo.entries) {
        if (t.row < 0 || t.row >= coo.rows || t.col < 0 ||
            t.col >= coo.cols) {
            fatal("Csr::fromCoo: entry (", t.row, ",", t.col,
                  ") outside ", coo.rows, "x", coo.cols);
        }
    }
    std::vector<std::size_t> order(coo.entries.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         const auto &ea = coo.entries[a];
                         const auto &eb = coo.entries[b];
                         if (ea.row != eb.row)
                             return ea.row < eb.row;
                         return ea.col < eb.col;
                     });
    std::vector<std::int64_t> rowPtr(
        static_cast<std::size_t>(coo.rows) + 1, 0);
    std::vector<std::int32_t> cols;
    std::vector<double> vals;
    for (std::size_t k = 0; k < order.size(); ++k) {
        const Triplet &t = coo.entries[order[k]];
        if (k > 0) {
            const Triplet &prev = coo.entries[order[k - 1]];
            if (prev.row == t.row && prev.col == t.col) {
                vals.back() += t.val; // duplicate: accumulate
                continue;
            }
        }
        cols.push_back(t.col);
        vals.push_back(t.val);
        rowPtr[static_cast<std::size_t>(t.row) + 1] += 1;
    }
    for (std::size_t r = 0; r < static_cast<std::size_t>(coo.rows);
         ++r)
        rowPtr[r + 1] += rowPtr[r];
    // Copying a view materializes it into owned storage, so the
    // result does not depend on the fromCoo under test.
    const Csr view = Csr::view(coo.rows, coo.cols, rowPtr.data(),
                               cols.data(), vals.data(), cols.size());
    return Csr(view);
}

Csr
readMatrixMarketByExtraction(std::istream &in)
{
    const MatrixMarketHeader h = readMatrixMarketHeader(in);
    Coo coo;
    coo.rows = h.rows;
    coo.cols = h.cols;
    forEachEntryByExtraction(
        in, h, [&coo](std::int32_t r, std::int32_t c, double v) {
            coo.add(r, c, v);
        });
    return assembleByStableSort(coo);
}

MmOutcome
captureRead(const std::function<Csr()> &read)
{
    MmOutcome out;
    try {
        out.matrix = read();
        out.accepted = true;
    } catch (const MatrixMarketError &e) {
        out.reason = e.reason();
        out.entriesRead = e.entriesRead();
        out.message = e.what();
    } catch (const FatalError &e) {
        // Not a loader error: e.g. fromCoo refusing the mirror of a
        // symmetric header on a non-square matrix.
        out.structured = false;
        out.message = e.what();
    }
    return out;
}

MmOutcome
captureWalk(const std::function<void(const MmSink &)> &walk)
{
    MmOutcome out;
    try {
        walk([&out](std::int32_t r, std::int32_t c, double v) {
            out.entries.push_back({r, c, v});
        });
        out.accepted = true;
    } catch (const MatrixMarketError &e) {
        out.reason = e.reason();
        out.entriesRead = e.entriesRead();
        out.message = e.what();
    }
    return out;
}

std::string
outcomeMismatch(const MmOutcome &got, const MmOutcome &want)
{
    if (got.accepted != want.accepted) {
        return got.accepted ? "accepted, oracle rejected: " +
                                  want.message
                            : "rejected, oracle accepted: " +
                                  got.message;
    }
    if (!got.accepted) {
        if (got.structured != want.structured ||
            got.reason != want.reason)
            return "reason differs: " + got.message + " | " +
                   want.message;
        if (got.entriesRead != want.entriesRead)
            return detail::concat("entriesRead ", got.entriesRead,
                                  " vs ", want.entriesRead);
        if (got.message != want.message)
            return "message differs: " + got.message + " | " +
                   want.message;
        return {};
    }
    if (got.entries.size() != want.entries.size())
        return detail::concat("entry count ", got.entries.size(),
                              " vs ", want.entries.size());
    for (std::size_t k = 0; k < got.entries.size(); ++k) {
        const Triplet &g = got.entries[k], &w = want.entries[k];
        if (g.row != w.row || g.col != w.col ||
            std::bit_cast<std::uint64_t>(g.val) !=
                std::bit_cast<std::uint64_t>(w.val)) {
            return detail::concat("entry ", k, " (", g.row, ",",
                                  g.col, ",", g.val, ") vs (", w.row,
                                  ",", w.col, ",", w.val, ")");
        }
    }
    if (!sameCsrBits(got.matrix, want.matrix))
        return "matrix bits differ";
    return {};
}

namespace {

// Tokens on which std::from_chars and `>>` extraction disagree, or
// which sit on a grammar edge either could get wrong.
const char *const oddValues[] = {
    "inf", "INF", "Inf", "-inf", "+inf", "nan", "NaN", "NAN", "-nan",
    "+nan", "infinity", "Infinity", "INFINITY", "nan(1)",
    "1e", "1e+", "1E-", "-2.5e", "+7E", "1ee5", "1e5e3", "1e+-5",
    "1.2.3", ".", "-.", "+.", ".5", "-.5", "+.5", "5.", "1.e5",
    ".e5", "e5", "1e-400", "-1e-400", "+1e-400", "1e400", "-1e400",
    "2.4703282292062327e-324", "2.4703282292062328e-324",
    "-4.9406564584124654e-324", "2.2250738585072011e-308",
    "1.7976931348623157e308", "1.7976931348623159e308", "0e99999",
    "1e-99999999999999999999", "1e99999999999999999999",
    "0x1p3", "0X10", "+-1", "-+1", "--1", "++1", "1,5", "-0", "+0",
    "-0.0", "000.000e000",
};

const char *const oddIndices[] = {
    "0", "-1", "+1", "+-1", "-+1", "-", "+", "00007", "+00007",
    "9223372036854775807", "9223372036854775808",
    "-9223372036854775808", "-9223372036854775809",
    "99999999999999999999", "4294967297", "2147483647",
    "2147483648", "0x10", "1.5", "1e3", "+0", "-0", "x", "",
};

const char *const separators[] = {" ", " ", " ", "  ", "\t", " \t ",
                                  "\v", "\f", "\r", ""};

const char *const suffixes[] = {"", "", "", "", " ", "\t", "\r",
                                "\r\r", " junk", "junk", " 7 8 9",
                                " %", "e", ".", "+", "\t-"};

template <std::size_t N>
const char *
pick(Rng &rng, const char *const (&table)[N])
{
    return table[rng.below(N)];
}

std::string
randomIndex(Rng &rng)
{
    const std::uint64_t kind = rng.below(10);
    std::string s;
    if (kind < 6) {
        if (rng.below(4) == 0)
            s += rng.below(2) ? "+" : "00";
        s += std::to_string(rng.range(1, 64));
    } else if (kind < 8) {
        s += std::to_string(rng.range(1, 0x7fffffff));
    } else {
        s += pick(rng, oddIndices);
    }
    return s;
}

/** A decimal spelled digit by digit: sign, up to 20 significant
 *  digits with the point anywhere (or nowhere), exponent in any
 *  sign style with 1-3 digits. */
std::string
synthesizedDecimal(Rng &rng)
{
    static const char *const signs[] = {"", "", "-", "+"};
    std::string s = pick(rng, signs);
    const std::size_t digits = 1 + rng.below(20);
    const std::size_t point = rng.below(digits + 2); // > digits: none
    for (std::size_t k = 0; k < digits; ++k) {
        if (k == point)
            s += '.';
        s += static_cast<char>('0' + rng.below(10));
    }
    if (point == digits)
        s += '.';
    if (rng.below(2)) {
        s += rng.below(2) ? 'e' : 'E';
        s += pick(rng, signs);
        s += std::to_string(rng.below(2) ? rng.range(0, 30)
                                         : rng.range(290, 340));
    }
    return s;
}

std::string
randomValue(Rng &rng)
{
    char buf[64];
    const std::uint64_t kind = rng.below(20);
    if (kind < 6) {
        // Any finite double, 17 significant digits: the round-trip
        // spelling writeMatrixMarket emits.
        double v;
        do {
            v = std::bit_cast<double>(rng.next());
        } while (!std::isfinite(v));
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return buf;
    }
    if (kind < 9) {
        // Subnormal: zero exponent field, random mantissa and sign.
        const std::uint64_t bits =
            (rng.next() & 0x800fffffffffffffULL) | 1;
        std::snprintf(buf, sizeof buf, rng.below(2) ? "%.17g" : "%.6e",
                      std::bit_cast<double>(bits));
        return buf;
    }
    if (kind < 14)
        return synthesizedDecimal(rng);
    if (kind < 16) {
        std::snprintf(buf, sizeof buf, "%.3f", rng.uniform(-8.0, 8.0));
        return buf;
    }
    return pick(rng, oddValues);
}

} // namespace

std::string
randomEntryLine(Rng &rng)
{
    std::string line;
    if (rng.below(8) == 0)
        line += rng.below(2) ? " " : "\t";
    line += randomIndex(rng);
    line += pick(rng, separators);
    line += randomIndex(rng);
    if (rng.below(12) != 0) { // sometimes the value is missing
        line += pick(rng, separators);
        line += randomValue(rng);
    }
    line += pick(rng, suffixes);
    return line;
}

TrickleBuf::TrickleBuf(std::string text, std::size_t maxRead,
                       std::uint64_t seed)
    : data(std::move(text)), cap(maxRead), rng(seed)
{}

TrickleBuf::int_type
TrickleBuf::underflow()
{
    if (gptr() != nullptr && gptr() < egptr())
        return traits_type::to_int_type(*gptr());
    if (pos == data.size())
        return traits_type::eof();
    const std::size_t n =
        std::min<std::size_t>(1 + rng.below(cap), data.size() - pos);
    char *base = data.data() + pos;
    setg(base, base, base + n);
    pos += n;
    return traits_type::to_int_type(*base);
}

} // namespace msc::check
