/**
 * @file
 * Differential checks of the Matrix Market reader
 * (sparse/matrix_market) and CSR assembly (Csr::fromCoo) against the
 * retired implementations kept in check/mm_oracle.hh.
 *
 * Three oracles per iteration:
 *
 *   1. single entry lines from the seeded generator (the tokens where
 *      std::from_chars and `>>` disagree included), walked by the
 *      chunked tokenizer and by getline + istringstream extraction
 *      under a general, a pattern and a skew-symmetric header: same
 *      accept/reject, same entry bits, same reason/progress/message;
 *   2. a random matrix written by writeMatrixMarket, with seeded
 *      line mutations (replaced entries, banner and size edits,
 *      CRLF, BOM, comments, blanks, duplicated or deleted lines,
 *      truncation), read whole by both readers -- half the time
 *      through a streambuf serving 1-7 bytes per read: the same
 *      Csr bits or the same rejection;
 *   3. Csr::fromCoo of a shuffled entry list with repeated
 *      duplicates vs the stable-sort assembly, bitwise.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "check/check.hh"
#include "check/mm_oracle.hh"
#include "sparse/matrix_market.hh"

namespace msc::check {

namespace {

/** A value that writeMatrixMarket spells with 17 digits: any finite
 *  double, a subnormal, or a plain small number. */
double
randomEntryValue(Rng &rng)
{
    switch (rng.below(4)) {
      case 0: {
          double v;
          do {
              v = std::bit_cast<double>(rng.next());
          } while (!std::isfinite(v));
          return v;
      }
      case 1:
        return std::bit_cast<double>(
            (rng.next() & 0x800fffffffffffffULL) | 1);
      default:
        return rng.uniform(-4.0, 4.0);
    }
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::size_t at = 0;
    while (at < text.size()) {
        const std::size_t nl = text.find('\n', at);
        lines.push_back(text.substr(at, nl - at));
        at = nl + 1; // writeMatrixMarket ends every line with '\n'
    }
    return lines;
}

/** One seeded edit of a written file; lines[0] is the banner,
 *  lines[2] the size line, entries follow. */
void
mutate(Rng &rng, std::vector<std::string> &lines)
{
    const std::size_t firstEntry = 3;
    const bool haveEntries = lines.size() > firstEntry;
    const auto anyEntry = [&] {
        return firstEntry + rng.below(lines.size() - firstEntry);
    };
    switch (rng.below(10)) {
      case 0:
        if (haveEntries)
            lines[anyEntry()] = randomEntryLine(rng);
        break;
      case 1: {
          static const char *const banners[] = {
              "%%MatrixMarket matrix coordinate real symmetric",
              "%%MatrixMarket matrix coordinate real skew-symmetric",
              "%%MatrixMarket matrix coordinate pattern general",
              "%%MatrixMarket matrix coordinate integer Symmetric",
              "%%MatrixMarket matrix coordinate complex general",
              "\xef\xbb\xbf%%MatrixMarket matrix coordinate real "
              "general",
          };
          lines[0] = banners[rng.below(std::size(banners))];
          break;
      }
      case 2:
        for (std::string &line : lines)
            line += '\r';
        break;
      case 3:
        lines.insert(lines.begin() + 1 +
                         static_cast<std::ptrdiff_t>(
                             rng.below(lines.size())),
                     rng.below(2) ? "% inserted comment" : "");
        break;
      case 4:
        if (haveEntries) {
            const std::size_t at = anyEntry();
            const std::string copy = lines[at];
            lines.insert(lines.begin() +
                             static_cast<std::ptrdiff_t>(at),
                         copy);
        }
        break;
      case 5:
        if (lines.size() > 1)
            lines.erase(lines.begin() + 1 +
                        static_cast<std::ptrdiff_t>(
                            rng.below(lines.size() - 1)));
        break;
      case 6: {
          if (lines.size() < 3)
              break;
          std::istringstream size(lines[2]);
          long long r = 0, c = 0, n = 0;
          size >> r >> c >> n;
          if (n < 0 || n > (1LL << 40)) // an earlier edit's line
              n = 0;
          const long long counts[] = {n - 1, n + 1, n + 2,
                                      9000000000000000000};
          lines[2] = std::to_string(r) + " " + std::to_string(c) +
                     " " + std::to_string(counts[rng.below(4)]);
          break;
      }
      case 7:
        if (haveEntries) {
            for (char &ch : lines[anyEntry()]) {
                if (ch == ' ')
                    ch = '\t';
            }
        }
        break;
      case 8:
        lines.push_back(rng.below(2) ? "% trailing comment"
                                     : randomEntryLine(rng));
        break;
      default:
        if (haveEntries)
            lines[anyEntry()] += rng.below(2) ? " junk" : "e";
        break;
    }
}

void
iterate(Context &ctx)
{
    Rng &rng = ctx.rng();

    // --- 1. single lines, tokenizer vs extraction -----------------
    for (int k = 0; k < 8; ++k) {
        const std::string text = randomEntryLine(rng) + "\n";
        MatrixMarketHeader h;
        h.rows = h.cols = 0x7fffffff; // every int32 index in range
        h.declaredEntries = 1;
        const std::uint64_t kind = rng.below(3);
        h.pattern = kind == 1;
        h.symmetric = h.skewSymmetric = kind == 2;
        const MmOutcome got =
            captureWalk([&](const MmSink &sink) {
                std::istringstream in(text);
                forEachMatrixMarketEntry(in, h, sink);
            });
        const MmOutcome want =
            captureWalk([&](const MmSink &sink) {
                std::istringstream in(text);
                forEachEntryByExtraction(in, h, sink);
            });
        const std::string diff = outcomeMismatch(got, want);
        ctx.expect(diff.empty(), "line [",
                   text.substr(0, text.size() - 1), "] kind ", kind,
                   ": ", diff);
    }

    // --- 2. written + mutated files, both readers -----------------
    const auto rows = static_cast<std::int32_t>(rng.range(1, 32));
    const auto cols = static_cast<std::int32_t>(rng.range(1, 32));
    Coo coo{rows, cols, {}};
    const std::size_t wanted =
        rng.below(static_cast<std::uint64_t>(rows) * cols / 2 + 1);
    for (std::size_t k = 0; k < wanted; ++k) {
        coo.add(static_cast<std::int32_t>(rng.below(rows)),
                static_cast<std::int32_t>(rng.below(cols)),
                randomEntryValue(rng));
    }
    std::ostringstream written;
    writeMatrixMarket(Csr::fromCoo(coo), written);
    std::vector<std::string> lines = splitLines(written.str());
    const std::uint64_t edits = rng.below(4);
    for (std::uint64_t e = 0; e < edits; ++e)
        mutate(rng, lines);
    std::string text;
    for (const std::string &line : lines)
        text += line + "\n";
    if (rng.chance(0.15))
        text.resize(rng.below(text.size() + 1));

    const std::size_t maxRead =
        rng.chance(0.5) ? 0 : 1 + rng.below(7); // 0: plain stream
    const std::uint64_t trickleSeed = rng.next();
    const auto readWith = [&](const auto &read) {
        if (maxRead == 0) {
            std::istringstream in(text);
            return read(in);
        }
        TrickleBuf buf(text, maxRead, trickleSeed);
        std::istream in(&buf);
        return read(in);
    };
    // A mutation can turn an entry line into the size line; a row
    // count that large would have both readers allocate its row
    // pointers, so such files are compared as header + entry walk.
    bool hugeRows = false;
    try {
        std::istringstream in(text);
        hugeRows = readMatrixMarketHeader(in).rows > (1 << 16);
    } catch (const MatrixMarketError &) {
    }
    MmOutcome got, want;
    if (hugeRows) {
        got = captureWalk([&](const MmSink &sink) {
            readWith([&](std::istream &in) {
                forEachMatrixMarketEntry(
                    in, readMatrixMarketHeader(in), sink);
                return 0;
            });
        });
        want = captureWalk([&](const MmSink &sink) {
            std::istringstream in(text);
            forEachEntryByExtraction(in, readMatrixMarketHeader(in),
                                     sink);
        });
    } else {
        got = captureRead([&] {
            return readWith([](std::istream &in) {
                return readMatrixMarket(in);
            });
        });
        want = captureRead([&] {
            std::istringstream in(text);
            return readMatrixMarketByExtraction(in);
        });
    }
    const std::string diff = outcomeMismatch(got, want);
    ctx.expect(diff.empty(), "file (", rows, "x", cols, ", ", edits,
               " edits, max read ", maxRead, "): ", diff);

    // --- 3. counting-sort assembly vs stable sort -----------------
    Coo shuffled{rows, cols, {}};
    const std::size_t n =
        rng.below(4 * static_cast<std::uint64_t>(rows) + 1);
    const auto span = static_cast<std::int32_t>(rng.range(1, cols));
    // Half the time all entries fall in two rows: long rows take the
    // sort's general path, not its small-input insertion sort.
    const std::int32_t rowSpan =
        rng.chance(0.5) ? std::min(rows, 2) : rows;
    for (std::size_t k = 0; k < n; ++k) {
        shuffled.add(static_cast<std::int32_t>(rng.below(rowSpan)),
                     static_cast<std::int32_t>(rng.below(span)),
                     randomEntryValue(rng));
    }
    ctx.expect(sameCsrBits(Csr::fromCoo(shuffled),
                           assembleByStableSort(shuffled)),
               "fromCoo differs from stable-sort assembly (", rows,
               "x", cols, ", ", n, " entries)");
}

} // namespace

void
addMmioChecks(std::vector<Module> &out)
{
    out.push_back({"mmio", iterate});
}

} // namespace msc::check
