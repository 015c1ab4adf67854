#include "sparse/csr.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/logging.hh"

namespace msc {

void
Csr::rebind()
{
    rp = rowStore.empty() ? nullptr : rowStore.data();
    ci = colStore.data();
    vl = valStore.data();
    nz = colStore.size();
    viewMode = false;
}

void
Csr::materializeFrom(const Csr &o)
{
    nRows = o.nRows;
    nCols = o.nCols;
    rowStore.assign(o.rowPtr().begin(), o.rowPtr().end());
    colStore.assign(o.colIndex().begin(), o.colIndex().end());
    valStore.assign(o.values().begin(), o.values().end());
    rebind();
}

Csr::Csr(const Csr &o)
{
    materializeFrom(o);
}

Csr &
Csr::operator=(const Csr &o)
{
    if (this != &o)
        materializeFrom(o);
    return *this;
}

Csr::Csr(Csr &&o) noexcept
    : nRows(o.nRows), nCols(o.nCols), viewMode(o.viewMode),
      nz(o.nz), rowStore(std::move(o.rowStore)),
      colStore(std::move(o.colStore)),
      valStore(std::move(o.valStore)), rp(o.rp), ci(o.ci), vl(o.vl)
{
    if (!viewMode)
        rebind();
    o.nRows = o.nCols = 0;
    o.nz = 0;
    o.viewMode = false;
    o.rp = nullptr;
    o.ci = nullptr;
    o.vl = nullptr;
}

Csr &
Csr::operator=(Csr &&o) noexcept
{
    if (this == &o)
        return *this;
    nRows = o.nRows;
    nCols = o.nCols;
    viewMode = o.viewMode;
    nz = o.nz;
    rowStore = std::move(o.rowStore);
    colStore = std::move(o.colStore);
    valStore = std::move(o.valStore);
    rp = o.rp;
    ci = o.ci;
    vl = o.vl;
    if (!viewMode)
        rebind();
    o.nRows = o.nCols = 0;
    o.nz = 0;
    o.viewMode = false;
    o.rp = nullptr;
    o.ci = nullptr;
    o.vl = nullptr;
    return *this;
}

std::span<double>
Csr::values()
{
    if (viewMode)
        panic("Csr::values: mutable access to a zero-copy view "
              "(mapped storage is read-only)");
    return {valStore.data(), nz};
}

Csr
Csr::view(std::int32_t rows, std::int32_t cols,
          const std::int64_t *rowPtr, const std::int32_t *colIdx,
          const double *vals, std::size_t nnz)
{
    if (rows < 0 || cols < 0 || rowPtr == nullptr)
        panic("Csr::view: malformed arguments");
    if (rowPtr[0] != 0 ||
        rowPtr[rows] != static_cast<std::int64_t>(nnz))
        panic("Csr::view: row pointer endpoints disagree with nnz");
    Csr m;
    m.nRows = rows;
    m.nCols = cols;
    m.viewMode = true;
    m.nz = nnz;
    m.rp = rowPtr;
    m.ci = colIdx;
    m.vl = vals;
    return m;
}

Csr
Csr::fromCoo(const Coo &coo)
{
    Csr m;
    m.nRows = coo.rows;
    m.nCols = coo.cols;

    for (const auto &t : coo.entries) {
        if (t.row < 0 || t.row >= coo.rows || t.col < 0 ||
            t.col >= coo.cols) {
            fatal("Csr::fromCoo: entry (", t.row, ",", t.col,
                  ") outside ", coo.rows, "x", coo.cols);
        }
    }

    // Counting sort by row, stable: each row's entries land in
    // insertion order. rowStore[r + 1] first counts row r, then
    // (shifted prefix sum) serves as row r's fill cursor, ending at
    // row r's end -- which is row r + 1's start.
    const std::size_t rows = static_cast<std::size_t>(coo.rows);
    m.rowStore.assign(rows + 1, 0);
    for (const auto &t : coo.entries)
        ++m.rowStore[static_cast<std::size_t>(t.row) + 1];
    std::int64_t start = 0;
    for (std::size_t r = 0; r < rows; ++r) {
        const std::int64_t count = m.rowStore[r + 1];
        m.rowStore[r + 1] = start;
        start += count;
    }
    m.colStore.resize(coo.entries.size());
    m.valStore.resize(coo.entries.size());
    for (const auto &t : coo.entries) {
        const auto k = static_cast<std::size_t>(
            m.rowStore[static_cast<std::size_t>(t.row) + 1]++);
        m.colStore[k] = t.col;
        m.valStore[k] = t.val;
    }

    // Order each row by column, stably, so duplicates accumulate in
    // insertion order and a symmetric emission (v at (r,c) and at
    // (c,r)) sums in the same order on both sides, bit-identical.
    // Rows that already ascend -- all of them for a file
    // writeMatrixMarket wrote, or for transpose() -- skip the sort.
    // Duplicates then fold into their first slot, compacting the
    // arrays in place.
    std::vector<std::pair<std::int32_t, double>> sorted;
    std::size_t w = 0;
    std::size_t begin = 0;
    for (std::size_t r = 0; r < rows; ++r) {
        const auto end = static_cast<std::size_t>(m.rowStore[r + 1]);
        if (!std::is_sorted(m.colStore.begin() + begin,
                            m.colStore.begin() + end)) {
            sorted.clear();
            for (std::size_t k = begin; k < end; ++k)
                sorted.emplace_back(m.colStore[k], m.valStore[k]);
            std::stable_sort(sorted.begin(), sorted.end(),
                             [](const auto &a, const auto &b) {
                                 return a.first < b.first;
                             });
            for (std::size_t k = begin; k < end; ++k) {
                m.colStore[k] = sorted[k - begin].first;
                m.valStore[k] = sorted[k - begin].second;
            }
        }
        const std::size_t rowStart = w;
        for (std::size_t k = begin; k < end; ++k) {
            if (w > rowStart && m.colStore[w - 1] == m.colStore[k]) {
                m.valStore[w - 1] += m.valStore[k]; // duplicate
                continue;
            }
            m.colStore[w] = m.colStore[k];
            m.valStore[w] = m.valStore[k];
            ++w;
        }
        m.rowStore[r + 1] = static_cast<std::int64_t>(w);
        begin = end;
    }
    m.colStore.resize(w);
    m.valStore.resize(w);
    m.rebind();
    return m;
}

Csr
Csr::identity(std::int32_t n)
{
    Coo coo;
    coo.rows = coo.cols = n;
    coo.entries.reserve(static_cast<std::size_t>(n));
    for (std::int32_t i = 0; i < n; ++i)
        coo.add(i, i, 1.0);
    return fromCoo(coo);
}

void
Csr::spmv(std::span<const double> x, std::span<double> y) const
{
    if (x.size() != static_cast<std::size_t>(nCols) ||
        y.size() != static_cast<std::size_t>(nRows))
        fatal("Csr::spmv: dimension mismatch");
    for (std::int32_t r = 0; r < nRows; ++r) {
        double acc = 0.0;
        for (std::int64_t k = rp[r]; k < rp[r + 1]; ++k)
            acc += vl[k] * x[static_cast<std::size_t>(ci[k])];
        y[static_cast<std::size_t>(r)] = acc;
    }
}

void
Csr::spmvTranspose(std::span<const double> x, std::span<double> y) const
{
    if (x.size() != static_cast<std::size_t>(nRows) ||
        y.size() != static_cast<std::size_t>(nCols))
        fatal("Csr::spmvTranspose: dimension mismatch");
    std::fill(y.begin(), y.end(), 0.0);
    for (std::int32_t r = 0; r < nRows; ++r) {
        const double xr = x[static_cast<std::size_t>(r)];
        for (std::int64_t k = rp[r]; k < rp[r + 1]; ++k)
            y[static_cast<std::size_t>(ci[k])] += vl[k] * xr;
    }
}

Csr
Csr::transpose() const
{
    Coo coo;
    coo.rows = nCols;
    coo.cols = nRows;
    coo.entries.reserve(nnz());
    for (std::int32_t r = 0; r < nRows; ++r) {
        for (std::int64_t k = rp[r]; k < rp[r + 1]; ++k)
            coo.add(ci[k], r, vl[k]);
    }
    return fromCoo(coo);
}

bool
Csr::isSymmetric(double relTol) const
{
    if (nRows != nCols)
        return false;
    const Csr t = transpose();
    const auto tc = t.colIndex(), c = colIndex();
    const auto trp = t.rowPtr(), mrp = rowPtr();
    if (!std::equal(tc.begin(), tc.end(), c.begin(), c.end()) ||
        !std::equal(trp.begin(), trp.end(), mrp.begin(), mrp.end()))
        return false;
    for (std::size_t k = 0; k < nz; ++k) {
        const double d = std::fabs(vl[k] - t.vl[k]);
        const double scale = std::max(std::fabs(vl[k]),
                                      std::fabs(t.vl[k]));
        if (d > relTol * scale && d != 0.0)
            return false;
    }
    return true;
}

Coo
Csr::toCoo() const
{
    Coo coo;
    coo.rows = nRows;
    coo.cols = nCols;
    coo.entries.reserve(nnz());
    for (std::int32_t r = 0; r < nRows; ++r) {
        for (std::int64_t k = rp[r]; k < rp[r + 1]; ++k)
            coo.add(r, ci[k], vl[k]);
    }
    return coo;
}

std::vector<double>
Csr::rowSums() const
{
    std::vector<double> sums(static_cast<std::size_t>(nRows), 0.0);
    for (std::int32_t r = 0; r < nRows; ++r) {
        for (std::int64_t k = rp[r]; k < rp[r + 1]; ++k)
            sums[static_cast<std::size_t>(r)] += vl[k];
    }
    return sums;
}

void
axpy(double a, std::span<const double> x, std::span<double> y)
{
    if (x.size() != y.size())
        fatal("axpy: length mismatch");
    for (std::size_t i = 0; i < x.size(); ++i)
        y[i] += a * x[i];
}

double
dot(std::span<const double> x, std::span<const double> y)
{
    if (x.size() != y.size())
        fatal("dot: length mismatch");
    double acc = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i)
        acc += x[i] * y[i];
    return acc;
}

double
norm2(std::span<const double> x)
{
    return std::sqrt(dot(x, x));
}

} // namespace msc
