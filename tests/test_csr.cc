/**
 * @file
 * Tests for sparse containers, kernels, and Matrix Market I/O.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "check/mm_oracle.hh"
#include "sparse/csr.hh"
#include "sparse/matrix_market.hh"
#include "sparse/stats.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace msc {
namespace {

Coo
smallCoo()
{
    // [ 1 0 2 ]
    // [ 0 3 0 ]
    // [ 4 0 5 ]
    Coo coo;
    coo.rows = coo.cols = 3;
    coo.add(0, 0, 1);
    coo.add(0, 2, 2);
    coo.add(1, 1, 3);
    coo.add(2, 0, 4);
    coo.add(2, 2, 5);
    return coo;
}

TEST(Csr, FromCooBasicLayout)
{
    const Csr m = Csr::fromCoo(smallCoo());
    EXPECT_EQ(m.rows(), 3);
    EXPECT_EQ(m.cols(), 3);
    EXPECT_EQ(m.nnz(), 5u);
    EXPECT_EQ(m.rowNnz(0), 2);
    EXPECT_EQ(m.rowNnz(1), 1);
    EXPECT_EQ(m.rowNnz(2), 2);
    EXPECT_EQ(m.rowCols(0)[0], 0);
    EXPECT_EQ(m.rowCols(0)[1], 2);
    EXPECT_EQ(m.rowVals(2)[1], 5.0);
}

TEST(Csr, FromCooSumsDuplicates)
{
    Coo coo;
    coo.rows = coo.cols = 2;
    coo.add(0, 0, 1);
    coo.add(0, 0, 2);
    coo.add(1, 1, 5);
    const Csr m = Csr::fromCoo(coo);
    EXPECT_EQ(m.nnz(), 2u);
    EXPECT_EQ(m.rowVals(0)[0], 3.0);
}

TEST(Csr, FromCooUnsortedInput)
{
    Coo coo;
    coo.rows = coo.cols = 2;
    coo.add(1, 1, 4);
    coo.add(0, 1, 2);
    coo.add(1, 0, 3);
    coo.add(0, 0, 1);
    const Csr m = Csr::fromCoo(coo);
    EXPECT_EQ(m.rowVals(0)[0], 1.0);
    EXPECT_EQ(m.rowVals(0)[1], 2.0);
    EXPECT_EQ(m.rowVals(1)[0], 3.0);
    EXPECT_EQ(m.rowVals(1)[1], 4.0);
}

TEST(Csr, FromCooRejectsOutOfRange)
{
    Coo coo;
    coo.rows = coo.cols = 2;
    coo.add(2, 0, 1.0);
    EXPECT_THROW(Csr::fromCoo(coo), FatalError);
}

/** Values whose sums depend on the order they are added in. */
double
orderSensitiveValue(Rng &rng)
{
    static const double pool[] = {1e16, -1e16, 1.0, 0.1, -0.3, 3e-17,
                                  -0.0, 2.5};
    return pool[rng.below(sizeof pool / sizeof pool[0])] *
           (rng.below(2) ? 1.0 : rng.uniform(0.5, 2.0));
}

TEST(Csr, FromCooMatchesStableSortAssembly)
{
    // The counting-sort assembly must reproduce the stable-sort one
    // bit for bit: same layout, duplicates summed in insertion order.
    Rng rng(0xc00c);
    for (int round = 0; round < 200; ++round) {
        const auto rows = static_cast<std::int32_t>(rng.range(0, 40));
        const auto cols = static_cast<std::int32_t>(rng.range(1, 40));
        Coo coo{rows, cols, {}};
        if (rows > 0) {
            // Shuffled entries over few coordinates: many repeated
            // duplicates, most rows out of column order, and every
            // other round a few long rows (past the small-input
            // cutoff where std::sort is insertion sort, so stable).
            const std::size_t n = rng.below(6 * rows + 1);
            const auto span = static_cast<std::int32_t>(
                rng.range(1, cols));
            const std::int32_t rowSpan =
                round % 2 ? std::min(rows, 2) : rows;
            for (std::size_t k = 0; k < n; ++k) {
                coo.add(static_cast<std::int32_t>(rng.below(rowSpan)),
                        static_cast<std::int32_t>(rng.below(span)),
                        orderSensitiveValue(rng));
            }
        }
        EXPECT_TRUE(check::sameCsrBits(Csr::fromCoo(coo),
                                       check::assembleByStableSort(coo)))
            << "round " << round;
    }
}

TEST(Csr, FromCooSymmetricEmissionStaysBitIdentical)
{
    // A symmetric emission adds v at (r,c) and at (c,r); with
    // repeated duplicates in shuffled order both sides must still
    // sum in the same order, leaving A == A^T exactly.
    Rng rng(0xc00d);
    for (int round = 0; round < 100; ++round) {
        const auto n = static_cast<std::int32_t>(rng.range(1, 24));
        Coo coo{n, n, {}};
        const std::size_t pairs = rng.below(8 * n + 1);
        for (std::size_t k = 0; k < pairs; ++k) {
            const auto r = static_cast<std::int32_t>(rng.below(n));
            const auto c = static_cast<std::int32_t>(rng.below(n));
            const double v = orderSensitiveValue(rng);
            coo.add(r, c, v);
            if (r != c)
                coo.add(c, r, v);
        }
        const Csr m = Csr::fromCoo(coo);
        ASSERT_TRUE(check::sameCsrBits(m, check::assembleByStableSort(coo)))
            << "round " << round;
        EXPECT_TRUE(check::sameCsrBits(m, m.transpose()))
            << "round " << round;
    }
}

TEST(Csr, FromCooSortedAndTransposedInputs)
{
    // Already-ascending rows (writeMatrixMarket order, transpose())
    // take the no-sort path; the result must not differ.
    Rng rng(0xc00e);
    Coo coo{30, 20, {}};
    for (std::int32_t r = 0; r < 30; ++r) {
        for (std::int32_t c = 0; c < 20; ++c) {
            if (rng.below(3) == 0)
                coo.add(r, c, rng.uniform(-1.0, 1.0));
        }
    }
    const Csr m = Csr::fromCoo(coo);
    EXPECT_TRUE(check::sameCsrBits(m, check::assembleByStableSort(coo)));
    Coo flipped{20, 30, {}};
    for (const Triplet &t : coo.entries)
        flipped.add(t.col, t.row, t.val);
    EXPECT_TRUE(check::sameCsrBits(m.transpose(),
                                   check::assembleByStableSort(flipped)));
}

TEST(Csr, EmptyRowsAreHandled)
{
    Coo coo;
    coo.rows = 4;
    coo.cols = 4;
    coo.add(2, 2, 1.0);
    const Csr m = Csr::fromCoo(coo);
    EXPECT_EQ(m.rowNnz(0), 0);
    EXPECT_EQ(m.rowNnz(1), 0);
    EXPECT_EQ(m.rowNnz(2), 1);
    EXPECT_EQ(m.rowNnz(3), 0);
    std::vector<double> x(4, 1.0), y(4, -1.0);
    m.spmv(x, y);
    EXPECT_EQ(y[0], 0.0);
    EXPECT_EQ(y[2], 1.0);
}

TEST(Csr, SpmvMatchesDense)
{
    const Csr m = Csr::fromCoo(smallCoo());
    const std::vector<double> x{1.0, 2.0, 3.0};
    std::vector<double> y(3);
    m.spmv(x, y);
    EXPECT_EQ(y[0], 1 * 1 + 2 * 3.0);
    EXPECT_EQ(y[1], 3 * 2.0);
    EXPECT_EQ(y[2], 4 * 1 + 5 * 3.0);
}

TEST(Csr, SpmvDimensionMismatch)
{
    const Csr m = Csr::fromCoo(smallCoo());
    std::vector<double> x(2), y(3);
    EXPECT_THROW(m.spmv(x, y), FatalError);
}

TEST(Csr, TransposeInvolution)
{
    Rng rng(59);
    Coo coo;
    coo.rows = 20;
    coo.cols = 15;
    for (int i = 0; i < 60; ++i) {
        coo.add(static_cast<std::int32_t>(rng.below(20)),
                static_cast<std::int32_t>(rng.below(15)),
                rng.uniform(-1, 1));
    }
    const Csr m = Csr::fromCoo(coo);
    const Csr tt = m.transpose().transpose();
    EXPECT_EQ(tt.nnz(), m.nnz());
    std::vector<double> x(15), y1(20), y2(20);
    for (auto &v : x)
        v = rng.uniform(-1, 1);
    m.spmv(x, y1);
    tt.spmv(x, y2);
    for (int i = 0; i < 20; ++i)
        EXPECT_DOUBLE_EQ(y1[i], y2[i]);
}

TEST(Csr, SpmvTransposeMatchesTransposedSpmv)
{
    Rng rng(61);
    Coo coo;
    coo.rows = 12;
    coo.cols = 17;
    for (int i = 0; i < 50; ++i) {
        coo.add(static_cast<std::int32_t>(rng.below(12)),
                static_cast<std::int32_t>(rng.below(17)),
                rng.uniform(-1, 1));
    }
    const Csr m = Csr::fromCoo(coo);
    std::vector<double> x(12), ya(17), yb(17);
    for (auto &v : x)
        v = rng.uniform(-1, 1);
    m.spmvTranspose(x, ya);
    m.transpose().spmv(x, yb);
    for (int i = 0; i < 17; ++i)
        EXPECT_DOUBLE_EQ(ya[i], yb[i]);
}

TEST(Csr, SymmetryDetection)
{
    Coo coo;
    coo.rows = coo.cols = 3;
    coo.add(0, 1, 2.0);
    coo.add(1, 0, 2.0);
    coo.add(2, 2, 1.0);
    EXPECT_TRUE(Csr::fromCoo(coo).isSymmetric());
    coo.add(0, 2, 1.0);
    EXPECT_FALSE(Csr::fromCoo(coo).isSymmetric());
}

TEST(Csr, IdentityActsAsIdentity)
{
    const Csr id = Csr::identity(5);
    std::vector<double> x{1, 2, 3, 4, 5}, y(5);
    id.spmv(x, y);
    EXPECT_EQ(x, y);
}

TEST(Kernels, AxpyDotNorm)
{
    std::vector<double> x{1, 2, 3};
    std::vector<double> y{4, 5, 6};
    axpy(2.0, x, y);
    EXPECT_EQ(y[0], 6.0);
    EXPECT_EQ(y[1], 9.0);
    EXPECT_EQ(y[2], 12.0);
    EXPECT_EQ(dot(x, x), 14.0);
    EXPECT_DOUBLE_EQ(norm2(x), std::sqrt(14.0));
    std::vector<double> bad(2);
    EXPECT_THROW(axpy(1.0, bad, y), FatalError);
    EXPECT_THROW(dot(bad, y), FatalError);
}

TEST(MatrixMarket, WriteReadRoundTrip)
{
    const Csr m = Csr::fromCoo(smallCoo());
    std::stringstream ss;
    writeMatrixMarket(m, ss);
    const Csr r = readMatrixMarket(ss);
    EXPECT_EQ(r.rows(), m.rows());
    EXPECT_EQ(r.nnz(), m.nnz());
    std::vector<double> x{1.0, -2.0, 0.5}, y1(3), y2(3);
    m.spmv(x, y1);
    r.spmv(x, y2);
    EXPECT_EQ(y1, y2);
}

TEST(MatrixMarket, ReadsSymmetricStorage)
{
    std::stringstream ss;
    ss << "%%MatrixMarket matrix coordinate real symmetric\n"
       << "% comment line\n"
       << "3 3 3\n"
       << "1 1 2.0\n"
       << "2 1 -1.0\n"
       << "3 3 4.0\n";
    const Csr m = readMatrixMarket(ss);
    EXPECT_EQ(m.nnz(), 4u); // off-diagonal expands to both halves
    EXPECT_TRUE(m.isSymmetric());
}

TEST(MatrixMarket, ReadsPatternField)
{
    std::stringstream ss;
    ss << "%%MatrixMarket matrix coordinate pattern general\n"
       << "2 2 2\n"
       << "1 1\n"
       << "2 2\n";
    const Csr m = readMatrixMarket(ss);
    EXPECT_EQ(m.nnz(), 2u);
    EXPECT_EQ(m.rowVals(0)[0], 1.0);
}

TEST(MatrixMarket, RejectsBadBanner)
{
    std::stringstream ss;
    ss << "%%NotMatrixMarket nope\n";
    EXPECT_THROW(readMatrixMarket(ss), FatalError);
}

TEST(MatrixMarket, RejectsTruncatedData)
{
    std::stringstream ss;
    ss << "%%MatrixMarket matrix coordinate real general\n"
       << "2 2 2\n"
       << "1 1 1.0\n";
    EXPECT_THROW(readMatrixMarket(ss), FatalError);
}

TEST(Stats, BasicQuantities)
{
    const Csr m = Csr::fromCoo(smallCoo());
    const MatrixStats s = computeStats(m);
    EXPECT_EQ(s.rows, 3);
    EXPECT_EQ(s.nnz, 5u);
    EXPECT_NEAR(s.nnzPerRow, 5.0 / 3.0, 1e-12);
    EXPECT_EQ(s.maxRowNnz, 2);
    EXPECT_EQ(s.bandwidth, 2);
    // values 1..5: exponents 0..2
    EXPECT_EQ(s.expMin, 0);
    EXPECT_EQ(s.expMax, 2);
    // The pattern (not the values) of smallCoo happens to be
    // symmetric: (0,2) and (2,0) are both present.
    EXPECT_TRUE(s.structurallySymmetric);
    EXPECT_FALSE(m.isSymmetric());
}

} // namespace
} // namespace msc
