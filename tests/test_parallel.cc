/**
 * @file
 * Tests for the parallel execution engine (util/threadpool.hh) and
 * its determinism contract: every result produced through the thread
 * pool -- cluster-operator applies, accelerator SpMV, hardware
 * cluster scans, full fault-campaign solves -- must be bit-identical
 * for 1, 2, and 8 worker lanes.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "accel/accel.hh"
#include "accel/cluster_operator.hh"
#include "cluster/hw_cluster.hh"
#include "fault/faulty_operator.hh"
#include "solver/resilient.hh"
#include "sparse/gen.hh"
#include "util/logging.hh"
#include "util/threadpool.hh"

namespace msc {
namespace {

Csr
spdMatrix(std::int32_t n, std::uint64_t seed)
{
    TiledParams p;
    p.rows = n;
    p.tile = 16;
    p.tileDensity = 0.3;
    p.spd = true;
    p.symmetricPattern = true;
    p.diagDominance = 0.05;
    p.seed = seed;
    return genTiled(p);
}

/** Run @p body once per lane count and return the collected
 *  results; restores an 8-lane pool afterwards so the suite keeps
 *  exercising the parallel paths. */
template <typename Body>
auto
perThreadCount(Body &&body)
{
    std::vector<decltype(body())> results;
    for (unsigned lanes : {1u, 2u, 8u}) {
        setGlobalThreads(lanes);
        results.push_back(body());
    }
    return results;
}

TEST(ThreadPool, ForRangeCoversEveryIndexExactlyOnce)
{
    setGlobalThreads(8);
    constexpr std::size_t n = 10007;
    std::vector<int> hits(n, 0);
    parallelFor(n, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i], 1) << "index " << i;

    // Larger grains cover the same space.
    std::fill(hits.begin(), hits.end(), 0);
    parallelFor(n, [&](std::size_t i) { ++hits[i]; }, 64);
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i], 1) << "index " << i;
}

TEST(ThreadPool, SetGlobalThreadsControlsLaneCount)
{
    setGlobalThreads(3);
    EXPECT_EQ(globalThreads(), 3u);
    setGlobalThreads(1);
    EXPECT_EQ(globalThreads(), 1u);
    setGlobalThreads(8);
    EXPECT_EQ(globalThreads(), 8u);
}

TEST(ThreadPool, ExceptionsPropagateAndPoolSurvives)
{
    setGlobalThreads(4);
    EXPECT_THROW(
        parallelFor(1000,
                    [&](std::size_t i) {
                        if (i == 437)
                            throw std::runtime_error("boom");
                    }),
        std::runtime_error);

    // The pool is intact: the next loop completes normally.
    std::atomic<int> done{0};
    parallelFor(1000, [&](std::size_t) {
        done.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(done.load(), 1000);
}

TEST(ThreadPool, ExceptionsPropagateAtEveryLaneCount)
{
    // The inline (1-lane) and pooled paths rethrow through different
    // machinery; a throwing body must surface on the caller at each,
    // and the pool must stay usable afterwards.
    for (unsigned lanes : {1u, 2u, 8u}) {
        setGlobalThreads(lanes);
        EXPECT_THROW(
            parallelFor(1000,
                        [&](std::size_t i) {
                            if (i == 437)
                                throw std::runtime_error("boom");
                        }),
            std::runtime_error)
            << "lanes " << lanes;
        std::atomic<int> done{0};
        parallelFor(1000, [&](std::size_t) {
            done.fetch_add(1, std::memory_order_relaxed);
        });
        EXPECT_EQ(done.load(), 1000) << "lanes " << lanes;
    }
    setGlobalThreads(8);
}

TEST(ThreadPool, ReduceRethrowsBodyExceptions)
{
    for (unsigned lanes : {1u, 2u, 8u}) {
        setGlobalThreads(lanes);
        EXPECT_THROW(parallelReduce(
                         512, 0.0,
                         [](std::size_t i) -> double {
                             if (i == 260)
                                 throw std::runtime_error("reduce boom");
                             return 1.0;
                         },
                         [](double a, double b) { return a + b; }, 16),
                     std::runtime_error)
            << "lanes " << lanes;
        // Pool intact: same reduction without the throw still works.
        const double sum = parallelReduce(
            512, 0.0, [](std::size_t) { return 1.0; },
            [](double a, double b) { return a + b; }, 16);
        EXPECT_EQ(sum, 512.0) << "lanes " << lanes;
    }
    setGlobalThreads(8);
}

TEST(ThreadPool, NestedParallelSectionsRunInline)
{
    setGlobalThreads(4);
    std::vector<int> outerHits(8, 0);
    std::atomic<int> innerTotal{0};
    std::atomic<bool> sawSection{false};
    parallelFor(outerHits.size(), [&](std::size_t i) {
        ++outerHits[i];
        if (ThreadPool::inParallelSection())
            sawSection.store(true, std::memory_order_relaxed);
        // Nested loop must run inline without deadlocking.
        parallelFor(100, [&](std::size_t) {
            innerTotal.fetch_add(1, std::memory_order_relaxed);
        });
    });
    for (int h : outerHits)
        EXPECT_EQ(h, 1);
    EXPECT_EQ(innerTotal.load(), 800);
    EXPECT_TRUE(sawSection.load());
    EXPECT_FALSE(ThreadPool::inParallelSection());
}

TEST(ThreadPool, ReduceIsBitIdenticalAcrossThreadCounts)
{
    // Values with wildly mixed magnitudes: any reordering of the
    // additions would change the rounded sum.
    constexpr std::size_t n = 4096;
    std::vector<double> vals(n);
    for (std::size_t i = 0; i < n; ++i) {
        vals[i] = std::ldexp(1.0 + static_cast<double>(i % 97) / 97.0,
                             static_cast<int>(i % 61) - 30);
    }
    const auto sums = perThreadCount([&] {
        return parallelReduce(
            n, 0.0, [&](std::size_t i) { return vals[i]; },
            [](double a, double b) { return a + b; }, 32);
    });
    EXPECT_EQ(sums[0], sums[1]);
    EXPECT_EQ(sums[0], sums[2]);
}

TEST(ParallelDeterminism, ClusterOperatorApply)
{
    const Csr m = spdMatrix(192, 21);
    const std::size_t n = static_cast<std::size_t>(m.rows());
    std::vector<double> x(n);
    for (std::size_t i = 0; i < n; ++i)
        x[i] = std::sin(static_cast<double>(i) + 1.0);

    struct Out
    {
        std::vector<double> y;
        ClusterStats stats;
    };
    // Both stats fidelities: the values are the same bits in each,
    // and each mode's stats are lane-count independent.
    std::vector<double> yFirst;
    for (const StatsFidelity f :
         {StatsFidelity::Sampled, StatsFidelity::Full}) {
        SCOPED_TRACE(f == StatsFidelity::Sampled ? "sampled" : "full");
        ClusterConfig cfg;
        cfg.statsFidelity = f;
        const auto runs = perThreadCount([&] {
            ClusterArithmeticOperator op(
                m, ClusterArithmeticOperator::smallSizes(), cfg);
            Out out;
            out.y.assign(n, 0.0);
            // Two applies exercise the per-block scratch reuse.
            op.apply(x, out.y);
            op.apply(x, out.y);
            out.stats = op.totals();
            return out;
        });
        for (std::size_t r : {std::size_t{1}, std::size_t{2}}) {
            EXPECT_EQ(runs[0].y, runs[r].y);
            EXPECT_EQ(runs[0].stats.groupsExecuted,
                      runs[r].stats.groupsExecuted);
            EXPECT_EQ(runs[0].stats.adcConversions,
                      runs[r].stats.adcConversions);
            EXPECT_EQ(runs[0].stats.columnsEarlyTerminated,
                      runs[r].stats.columnsEarlyTerminated);
            EXPECT_EQ(runs[0].stats.peeledVectorElements,
                      runs[r].stats.peeledVectorElements);
            EXPECT_EQ(runs[0].stats.cycles, runs[r].stats.cycles);
            EXPECT_EQ(runs[0].stats.energy, runs[r].stats.energy);
        }
        if (yFirst.empty())
            yFirst = runs[0].y;
        EXPECT_EQ(yFirst, runs[0].y);
    }
}

TEST(ParallelDeterminism, AcceleratorSpmv)
{
    const Csr m = spdMatrix(512, 33);
    const std::size_t n = static_cast<std::size_t>(m.rows());
    std::vector<double> x(n);
    for (std::size_t i = 0; i < n; ++i)
        x[i] = std::cos(static_cast<double>(i) * 0.7);

    const auto runs = perThreadCount([&] {
        Accelerator accel;
        accel.prepare(m);
        std::vector<double> y(n, 0.0);
        accel.spmv(x, y);
        return y;
    });
    EXPECT_EQ(runs[0], runs[1]);
    EXPECT_EQ(runs[0], runs[2]);
}

TEST(ParallelDeterminism, HwClusterAnalogMultiply)
{
    constexpr unsigned size = 16;
    Rng gen(101);
    HwCluster::Config cfg;
    cfg.size = size;
    cfg.analogReads = true;
    cfg.cell.progErrorSigma = 0.05; // real noise, not ideal cells

    MatrixBlock blk;
    blk.size = size;
    for (std::int32_t r = 0; r < static_cast<std::int32_t>(size);
         ++r) {
        for (std::int32_t c = 0; c < static_cast<std::int32_t>(size);
             ++c) {
            if (gen.chance(0.4))
                blk.elems.push_back({r, c, gen.uniform(-2.0, 2.0)});
        }
    }
    std::vector<double> x(size);
    for (auto &v : x)
        v = gen.uniform(-1.0, 1.0);

    struct Out
    {
        std::vector<double> y;
        HwClusterStats stats;
    };
    const auto runs = perThreadCount([&] {
        HwCluster hw(cfg);
        hw.program(blk);
        Out out;
        out.y.assign(size, 0.0);
        Rng noise(7); // same caller stream every run
        out.stats = hw.multiply(x, out.y, &noise);
        return out;
    });
    EXPECT_EQ(runs[0].y, runs[1].y);
    EXPECT_EQ(runs[0].y, runs[2].y);
    EXPECT_EQ(runs[0].stats.sliceWords, runs[2].stats.sliceWords);
    EXPECT_EQ(runs[0].stats.cleanWords, runs[2].stats.cleanWords);
    EXPECT_EQ(runs[0].stats.correctedWords,
              runs[2].stats.correctedWords);
    EXPECT_EQ(runs[0].stats.uncorrectableWords,
              runs[2].stats.uncorrectableWords);

    // A k = 3 analog panel scans rows in parallel across all three
    // columns; its noise draws must be bitwise those of three
    // sequential one-column calls on the same caller stream.
    constexpr unsigned k = 3;
    std::vector<double> X(static_cast<std::size_t>(size) * k);
    for (auto &v : X)
        v = gen.uniform(-1.0, 1.0);
    struct PanelOut
    {
        Out panel;
        Out sequential;
        std::uint64_t panelTail = 0; //!< caller stream after the call
        std::uint64_t sequentialTail = 0;
    };
    const auto panels = perThreadCount([&] {
        HwCluster hw(cfg);
        hw.program(blk);
        PanelOut out;
        out.panel.y.assign(X.size(), 0.0);
        Rng noise(7);
        out.panel.stats = hw.multiply(
            std::span<const double>(X), std::span<double>(out.panel.y),
            k, &noise);
        out.panelTail = noise.next();

        out.sequential.y.assign(X.size(), 0.0);
        Rng seqNoise(7);
        for (unsigned c = 0; c < k; ++c) {
            out.sequential.stats += hw.multiply(
                std::span<const double>(X).subspan(c * size, size),
                std::span<double>(out.sequential.y)
                    .subspan(c * size, size),
                &seqNoise);
        }
        out.sequentialTail = seqNoise.next();
        return out;
    });
    for (const PanelOut &p : panels) {
        EXPECT_EQ(p.panel.y, p.sequential.y);
        EXPECT_EQ(p.panel.y, panels[0].panel.y);
        EXPECT_EQ(p.panelTail, p.sequentialTail);
        EXPECT_EQ(p.panel.stats.sliceWords,
                  p.sequential.stats.sliceWords);
        EXPECT_EQ(p.panel.stats.cleanWords,
                  p.sequential.stats.cleanWords);
        EXPECT_EQ(p.panel.stats.correctedWords,
                  p.sequential.stats.correctedWords);
        EXPECT_EQ(p.panel.stats.uncorrectableWords,
                  p.sequential.stats.uncorrectableWords);
        EXPECT_EQ(p.panel.stats.cicInvertedColumns,
                  p.sequential.stats.cicInvertedColumns);
    }
}

TEST(ParallelDeterminism, FaultyOperatorApplySequence)
{
    const Csr m = spdMatrix(192, 13);
    const std::size_t n = static_cast<std::size_t>(m.rows());
    FaultCampaign camp;
    camp.seed = 29;
    camp.stuckCellRate = 0.01;
    camp.transientUpsetRate = 0.05;
    camp.driftPerRead = 1e-6;

    std::vector<double> x(n, 1.0);
    struct Out
    {
        std::vector<double> y;
        FaultStats runtime;
    };
    const auto runs = perThreadCount([&] {
        FaultyAccelOperator op(m, camp);
        Out out;
        out.y.assign(n, 0.0);
        // Several applies: the per-(apply, block) transient streams
        // must line up run to run.
        for (int pass = 0; pass < 5; ++pass) {
            std::fill(out.y.begin(), out.y.end(), 0.0);
            op.apply(x, out.y);
        }
        out.runtime = op.runtimeStats();
        return out;
    });
    EXPECT_EQ(runs[0].y, runs[1].y);
    EXPECT_EQ(runs[0].y, runs[2].y);
    EXPECT_EQ(runs[0].runtime.transientUpsets,
              runs[2].runtime.transientUpsets);
    EXPECT_EQ(runs[0].runtime.saturatedConversions,
              runs[2].runtime.saturatedConversions);
}

TEST(ParallelDeterminism, ResilientSolveUnderActiveCampaign)
{
    const Csr m = spdMatrix(256, 17);
    const std::size_t n = static_cast<std::size_t>(m.rows());
    FaultCampaign camp;
    camp.seed = 41;
    camp.stuckCellRate = 0.005;
    camp.transientUpsetRate = 0.02;
    camp.saturationRate = 0.2;
    camp.deadCrossbarRate = 0.05;

    std::vector<double> b(n, 1.0);
    SolverConfig cfg;
    cfg.tolerance = 1e-8;
    cfg.maxIterations = 800;

    struct Out
    {
        std::vector<double> x;
        SolverResult run;
    };
    const auto runs = perThreadCount([&] {
        FaultyAccelOperator op(m, camp);
        ResilientSolver solver(op, SolverKind::Cg, cfg);
        Out out;
        out.x.assign(n, 0.0);
        out.run = solver.solve(b, out.x);
        return out;
    });

    // The whole trajectory -- iterate, residual, iteration count,
    // and every recovery counter -- is thread-count invariant.
    for (std::size_t r : {std::size_t{1}, std::size_t{2}}) {
        EXPECT_EQ(runs[0].x, runs[r].x);
        EXPECT_EQ(runs[0].run.iterations, runs[r].run.iterations);
        EXPECT_EQ(runs[0].run.relResidual, runs[r].run.relResidual);
        EXPECT_EQ(runs[0].run.converged, runs[r].run.converged);
        const RecoveryStats &a = runs[0].run.recovery;
        const RecoveryStats &c = runs[r].run.recovery;
        EXPECT_EQ(a.nanEvents, c.nanEvents);
        EXPECT_EQ(a.divergenceEvents, c.divergenceEvents);
        EXPECT_EQ(a.stagnationEvents, c.stagnationEvents);
        EXPECT_EQ(a.scrubs, c.scrubs);
        EXPECT_EQ(a.reprograms, c.reprograms);
        EXPECT_EQ(a.reprogramFailures, c.reprogramFailures);
        EXPECT_EQ(a.checkpointRestarts, c.checkpointRestarts);
        EXPECT_EQ(a.fallbacks, c.fallbacks);
        EXPECT_EQ(a.segments, c.segments);
        EXPECT_EQ(a.degradedBlocks, c.degradedBlocks);
    }
}

TEST(ParallelDeterminism, SolverWorkspaceDoesNotChangeResults)
{
    setGlobalThreads(8);
    const Csr m = spdMatrix(256, 53);
    const std::size_t n = static_cast<std::size_t>(m.rows());
    CsrOperator op(m);
    std::vector<double> b(n, 1.0);
    SolverConfig cfg;
    cfg.tolerance = 1e-10;

    for (int kind = 0; kind < 3; ++kind) {
        std::vector<double> xPlain(n, 0.0), xWs(n, 0.0);
        SolverWorkspace ws;
        SolverResult plain, withWs;
        switch (kind) {
          case 0:
            plain = conjugateGradient(op, b, xPlain, cfg);
            withWs = conjugateGradient(op, b, xWs, cfg, &ws);
            // Reuse once more: the recycled capacity must not leak
            // state between solves.
            std::fill(xWs.begin(), xWs.end(), 0.0);
            withWs = conjugateGradient(op, b, xWs, cfg, &ws);
            break;
          case 1:
            plain = biCgStab(op, b, xPlain, cfg);
            withWs = biCgStab(op, b, xWs, cfg, &ws);
            std::fill(xWs.begin(), xWs.end(), 0.0);
            withWs = biCgStab(op, b, xWs, cfg, &ws);
            break;
          default:
            plain = gmres(op, b, xPlain, cfg, 30);
            withWs = gmres(op, b, xWs, cfg, 30, &ws);
            std::fill(xWs.begin(), xWs.end(), 0.0);
            withWs = gmres(op, b, xWs, cfg, 30, &ws);
            break;
        }
        EXPECT_EQ(xPlain, xWs) << "kind " << kind;
        EXPECT_EQ(plain.iterations, withWs.iterations)
            << "kind " << kind;
        EXPECT_EQ(plain.relResidual, withWs.relResidual)
            << "kind " << kind;
    }
}

} // namespace
} // namespace msc
