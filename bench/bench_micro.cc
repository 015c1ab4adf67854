/**
 * @file
 * google-benchmark micro suite for the core kernels: wide-integer
 * arithmetic, AN coding, alignment, binary crossbar reads, cluster
 * MVM, blocking preprocessing throughput, CSR SpMV, and the parallel
 * block fan-out (accelerator SpMV and the fault-injecting operator).
 * These back the throughput claims in the documentation (e.g. the
 * ~1.8x NNZ average preprocessing cost) with measured numbers.
 *
 * Perf-regression harness: `bench_micro --json out.json` writes the
 * per-kernel wall times, the worker-thread count, the matrix id
 * of every matrix-driven benchmark, and a `metrics` block holding
 * the telemetry counters captured during the run (enable with
 * MSC_TELEMETRY=metrics) to a machine-readable file, so successive
 * runs (and different MSC_THREADS settings) can be compared
 * mechanically with tools/perfdiff. All other flags pass through to
 * google-benchmark (e.g. --benchmark_filter=...).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "accel/accel.hh"
#include "ancode/ancode.hh"
#include "blocking/blocking.hh"
#include "sparse/binio.hh"
#include "sparse/matrix_market.hh"
#include "cluster/cluster.hh"
#include "cluster/hw_cluster.hh"
#include "fault/faulty_operator.hh"
#include "fixedpoint/align.hh"
#include "runtime/exec_context.hh"
#include "solver/solver.hh"
#include "sparse/gen.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/telemetry.hh"
#include "util/threadpool.hh"
#include "wideint/wideint.hh"
#include "xbar/crossbar.hh"

namespace {

using namespace msc;

void
bmWideAdd(benchmark::State &state)
{
    Rng rng(1);
    U256 a, b;
    a.setWord(0, rng.next());
    a.setWord(3, rng.next());
    b.setWord(1, rng.next());
    for (auto _ : state) {
        a += b;
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(bmWideAdd);

void
bmWideMul(benchmark::State &state)
{
    Rng rng(2);
    U128 a, b;
    a.setWord(0, rng.next());
    a.setWord(1, rng.next() >> 10);
    b.setWord(0, rng.next());
    for (auto _ : state) {
        benchmark::DoNotOptimize(a.mulWide(b));
    }
}
BENCHMARK(bmWideMul);

void
bmAnEncodeCorrect(benchmark::State &state)
{
    const AnCode code;
    Rng rng(3);
    U128 v;
    v.setWord(0, rng.next());
    v.setWord(1, rng.next() >> 12);
    for (auto _ : state) {
        U256 w = code.encode(v);
        w.flipBit(static_cast<unsigned>(rng.below(120)));
        benchmark::DoNotOptimize(code.correct(w));
    }
}
BENCHMARK(bmAnEncodeCorrect);

void
bmAlignValues(benchmark::State &state)
{
    Rng rng(4);
    std::vector<double> vals(512);
    for (auto &v : vals) {
        v = std::ldexp(rng.uniform(1.0, 2.0),
                       static_cast<int>(rng.range(0, 40)));
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(alignValues(vals));
    state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(bmAlignValues);

void
bmCrossbarColumnRead(benchmark::State &state)
{
    const auto n = static_cast<unsigned>(state.range(0));
    Rng rng(5);
    BinaryCrossbar xbar(n, n);
    for (unsigned r = 0; r < n; ++r)
        for (unsigned c = 0; c < n; ++c)
            if (rng.chance(0.3))
                xbar.set(r, c);
    BitVec input(n);
    for (unsigned r = 0; r < n; ++r)
        if (rng.chance(0.5))
            input.set(r);
    unsigned col = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(xbar.readColumn(col, input));
        col = (col + 1) % n;
    }
}
BENCHMARK(bmCrossbarColumnRead)->Arg(64)->Arg(512);

void
bmClusterMultiply(benchmark::State &state)
{
    Rng rng(6);
    ClusterConfig cfg;
    cfg.size = 64;
    Cluster cluster(cfg);
    MatrixBlock block;
    block.size = 64;
    for (std::int32_t r = 0; r < 64; ++r) {
        for (std::int32_t c = 0; c < 64; ++c) {
            if (rng.chance(0.2)) {
                block.elems.push_back({r, c,
                    rng.uniform(-2.0, 2.0)});
            }
        }
    }
    cluster.program(block);
    std::vector<double> x(64), y(64);
    for (auto &v : x)
        v = rng.uniform(-1.0, 1.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(cluster.multiply(x, y));
    state.SetItemsProcessed(state.iterations() *
                            block.elems.size());
}
BENCHMARK(bmClusterMultiply);

/** Exact-value cluster MVM (Cluster::multiplyValues) on
 *  bmClusterMultiply's block and data: items/s here vs there is the
 *  fast path's multiple over the slice walk, same bits. */
void
bmClusterMultiplyValues(benchmark::State &state)
{
    Rng rng(6);
    ClusterConfig cfg;
    cfg.size = 64;
    Cluster cluster(cfg);
    MatrixBlock block;
    block.size = 64;
    for (std::int32_t r = 0; r < 64; ++r) {
        for (std::int32_t c = 0; c < 64; ++c) {
            if (rng.chance(0.2)) {
                block.elems.push_back({r, c,
                    rng.uniform(-2.0, 2.0)});
            }
        }
    }
    cluster.program(block);
    std::vector<double> x(64), y(64);
    for (auto &v : x)
        v = rng.uniform(-1.0, 1.0);
    for (auto _ : state) {
        cluster.multiplyValues(std::span<const double>(x),
                               std::span<double>(y), 1);
        benchmark::DoNotOptimize(y.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            block.elems.size());
}
BENCHMARK(bmClusterMultiplyValues);

/** Batched multi-RHS cluster MVM over a k-column panel: the same
 *  block and data distribution as bmClusterMultiply, so items/s here
 *  vs there is the per-RHS amortization factor of the shared
 *  contribution tables, schedules, and gate transposes. */
void
bmClusterMultiplyBatch(benchmark::State &state)
{
    const auto k = static_cast<unsigned>(state.range(0));
    Rng rng(6);
    ClusterConfig cfg;
    cfg.size = 64;
    Cluster cluster(cfg);
    MatrixBlock block;
    block.size = 64;
    for (std::int32_t r = 0; r < 64; ++r) {
        for (std::int32_t c = 0; c < 64; ++c) {
            if (rng.chance(0.2)) {
                block.elems.push_back({r, c,
                    rng.uniform(-2.0, 2.0)});
            }
        }
    }
    cluster.program(block);
    std::vector<double> x(64ull * k), y(64ull * k);
    for (auto &v : x)
        v = rng.uniform(-1.0, 1.0);
    for (auto _ : state) {
        cluster.multiply(std::span<const double>(x),
                         std::span<double>(y), k);
        benchmark::DoNotOptimize(y.data());
    }
    // Per-RHS normalization: nnz x k items per batched call.
    state.SetItemsProcessed(state.iterations() *
                            block.elems.size() * k);
}
BENCHMARK(bmClusterMultiplyBatch)->Arg(8);

/** Hardware-faithful cluster MVM: materialized bit-slice crossbars,
 *  noiseless digital reads (the common verification configuration). */
void
bmHwClusterMultiply(benchmark::State &state)
{
    Rng rng(12);
    HwCluster::Config cfg;
    cfg.size = 64;
    HwCluster cluster(cfg);
    MatrixBlock block;
    block.size = 64;
    for (std::int32_t r = 0; r < 64; ++r) {
        for (std::int32_t c = 0; c < 64; ++c) {
            if (rng.chance(0.2)) {
                block.elems.push_back({r, c,
                    rng.uniform(-2.0, 2.0)});
            }
        }
    }
    cluster.program(block);
    std::vector<double> x(64), y(64);
    for (auto &v : x)
        v = rng.uniform(-1.0, 1.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(cluster.multiply(x, y));
    state.SetItemsProcessed(state.iterations() *
                            block.elems.size());
}
BENCHMARK(bmHwClusterMultiply);

/** Batched multi-RHS bit-slice MVM: the crossbar word flattening
 *  and inversion census are built once and reused across the panel. */
void
bmHwClusterMultiplyBatch(benchmark::State &state)
{
    const auto k = static_cast<unsigned>(state.range(0));
    Rng rng(12);
    HwCluster::Config cfg;
    cfg.size = 64;
    HwCluster cluster(cfg);
    MatrixBlock block;
    block.size = 64;
    for (std::int32_t r = 0; r < 64; ++r) {
        for (std::int32_t c = 0; c < 64; ++c) {
            if (rng.chance(0.2)) {
                block.elems.push_back({r, c,
                    rng.uniform(-2.0, 2.0)});
            }
        }
    }
    cluster.program(block);
    std::vector<double> x(64ull * k), y(64ull * k);
    for (auto &v : x)
        v = rng.uniform(-1.0, 1.0);
    for (auto _ : state) {
        cluster.multiply(std::span<const double>(x),
                         std::span<double>(y), k);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            block.elems.size() * k);
}
BENCHMARK(bmHwClusterMultiplyBatch)->Arg(8);

/** The shared benchmark matrix: large enough that the block
 *  fan-out has hundreds of independent work items. */
Csr
benchMatrix(std::uint64_t seed)
{
    TiledParams p;
    p.rows = 8192;
    p.tile = 48;
    p.tileDensity = 0.25;
    p.scatterPerRow = 1.0;
    p.seed = seed;
    return genTiled(p);
}

void
bmBlockingPreprocess(benchmark::State &state)
{
    const Csr m = benchMatrix(7);
    for (auto _ : state)
        benchmark::DoNotOptimize(planBlocks(m));
    state.SetItemsProcessed(state.iterations() * m.nnz());
    state.SetLabel("tiled8192");
}
BENCHMARK(bmBlockingPreprocess);

/** Cold/warm artifact fixture: the tiled8192 matrix written once as
 *  Matrix Market text next to its packed sidecar, so bmColdStart and
 *  bmBinioLoad time the two halves of the same load against the same
 *  bytes; bmMatrixMarketRead times the parse inside bmColdStart.
 *  Files live for the process; successive runs overwrite. */
struct ColdWarmFixture
{
    std::string mtxPath;
    std::string artifactPath;
};

const ColdWarmFixture &
coldWarmFixture()
{
    static const ColdWarmFixture fx = [] {
        ColdWarmFixture f;
        f.mtxPath = "/tmp/msc_bench_tiled8192.mtx";
        const Csr m = benchMatrix(7);
        writeMatrixMarket(m, f.mtxPath);
        const BlockPlan plan = planBlocks(m);
        f.artifactPath = artifactSidecarPath(f.mtxPath);
        writeArtifact(f.artifactPath, m, &plan, BlockingConfig{});
        return f;
    }();
    return fx;
}

/** Cold start: Matrix Market text parse plus the blocking
 *  preprocessor -- everything a solve pays before the first SpMV
 *  when no artifact exists. Pair with bmBinioLoad: the ratio is the
 *  warm-start speedup the packed format buys. */
void
bmColdStart(benchmark::State &state)
{
    const ColdWarmFixture &fx = coldWarmFixture();
    std::size_t nnz = 0;
    for (auto _ : state) {
        const Csr m = readMatrixMarket(fx.mtxPath);
        const BlockPlan plan = planBlocks(m);
        nnz = m.nnz();
        benchmark::DoNotOptimize(plan.blocks.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(nnz));
    state.SetLabel("tiled8192");
}
BENCHMARK(bmColdStart);

/** Text parse alone: readMatrixMarket on the bmColdStart file, so
 *  the tokenizer and CSR assembly show without planBlocks. */
void
bmMatrixMarketRead(benchmark::State &state)
{
    const ColdWarmFixture &fx = coldWarmFixture();
    std::size_t nnz = 0;
    for (auto _ : state) {
        const Csr m = readMatrixMarket(fx.mtxPath);
        nnz = m.nnz();
        benchmark::DoNotOptimize(m.values().data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(nnz));
    state.SetLabel("tiled8192");
}
BENCHMARK(bmMatrixMarketRead);

/** Warm start: map the packed sidecar and decode the stored plan --
 *  the artifact fast path of loadMatrixFile. Validation (checksum
 *  over header fields and every section byte) is included, so this
 *  is the honest end-to-end warm load, not just the mmap call. */
void
bmBinioLoad(benchmark::State &state)
{
    const ColdWarmFixture &fx = coldWarmFixture();
    std::size_t nnz = 0;
    for (auto _ : state) {
        const auto art = MappedArtifact::map(fx.artifactPath);
        const BlockPlan plan = art->decodePlan();
        nnz = art->nnz();
        benchmark::DoNotOptimize(plan.blocks.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(nnz));
    state.SetLabel("tiled8192");
}
BENCHMARK(bmBinioLoad);

void
bmCsrSpmv(benchmark::State &state)
{
    const Csr m = benchMatrix(8);
    std::vector<double> x(static_cast<std::size_t>(m.cols()), 1.0);
    std::vector<double> y(static_cast<std::size_t>(m.rows()));
    for (auto _ : state) {
        m.spmv(x, y);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * m.nnz());
    state.SetLabel("tiled8192");
}
BENCHMARK(bmCsrSpmv);

/** Accelerator value-level SpMV: the k = 1 panel of the one
 *  Accelerator MVM kernel, one work item per placed block fanned
 *  through the thread pool -- the headline number for the parallel
 *  execution engine (compare runs at MSC_THREADS=1 vs N). */
void
bmAccelSpmv(benchmark::State &state)
{
    const Csr m = benchMatrix(9);
    Accelerator accel;
    accel.prepare(m);
    std::vector<double> x(static_cast<std::size_t>(m.cols()), 1.0);
    std::vector<double> y(static_cast<std::size_t>(m.rows()));
    for (auto _ : state) {
        accel.spmv(x, y);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * m.nnz());
    state.SetLabel("tiled8192");
    state.counters["threads"] = static_cast<double>(globalThreads());
    state.counters["blocks"] =
        static_cast<double>(accel.info().placedBlocks);
}
BENCHMARK(bmAccelSpmv);

/** Batched accelerator SpMM over a k-column panel: the same kernel
 *  as bmAccelSpmv, fanning (placement, column-chunk of up to 4)
 *  items over the pool, so one walk of a block's elements serves
 *  every column of a chunk. Items are per-RHS normalized (nnz x k):
 *  items/s vs bmAccelSpmv is the batch gain, and k = 1, 4, 8 put
 *  the per-column cost at chunk widths 1 and 4 beside it. */
void
bmAccelSpmm(benchmark::State &state)
{
    const auto k = static_cast<unsigned>(state.range(0));
    const Csr m = benchMatrix(9);
    Accelerator accel;
    accel.prepare(m);
    const auto n = static_cast<std::size_t>(m.cols());
    std::vector<double> x(n * k, 1.0);
    std::vector<double> y(static_cast<std::size_t>(m.rows()) * k);
    for (auto _ : state) {
        accel.spmm(std::span<const double>(x),
                   std::span<double>(y), k);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * m.nnz() * k);
    state.SetLabel("tiled8192");
    state.counters["threads"] = static_cast<double>(globalThreads());
    state.counters["blocks"] =
        static_cast<double>(accel.info().placedBlocks);
}
BENCHMARK(bmAccelSpmm)->Arg(1)->Arg(4)->Arg(8);

/** Fault-injecting operator apply: per-block fan-out plus the
 *  per-(apply, block) transient fault streams. */
void
bmFaultyOperatorApply(benchmark::State &state)
{
    const Csr m = benchMatrix(10);
    FaultCampaign camp;
    camp.seed = 11;
    camp.stuckCellRate = 1e-4;
    camp.transientUpsetRate = 1e-3;
    FaultyAccelOperator op(m, camp);
    std::vector<double> x(static_cast<std::size_t>(m.cols()), 1.0);
    std::vector<double> y(static_cast<std::size_t>(m.rows()));
    for (auto _ : state) {
        op.apply(x, y);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * m.nnz());
    state.SetLabel("tiled8192");
    state.counters["threads"] = static_cast<double>(globalThreads());
    state.counters["blocks"] =
        static_cast<double>(op.blockCount());
}
BENCHMARK(bmFaultyOperatorApply);

/** Worst observed cancel-to-return latency (microseconds) across
 *  the bmExecCancelLatency iterations; exported into the --json
 *  metrics block as exec.cancel_latency_us so perf baselines track
 *  the cancellation promptness bound alongside kernel times. */
double gCancelLatencyUs = 0.0;

/**
 * Cooperative-cancellation promptness: a controller thread fires the
 * CancelToken mid-solve and the benchmark measures how long the
 * solver takes to come back. The bound is one solver iteration (plus
 * scheduler wake-up), so this number is the service runtime's
 * preemption granularity on an iterative workload.
 */
void
bmExecCancelLatency(benchmark::State &state)
{
    TiledParams p;
    p.rows = 1024;
    p.tile = 32;
    p.tileDensity = 0.25;
    p.spd = true;
    p.symmetricPattern = true;
    p.diagDominance = 0.05;
    p.seed = 13;
    const Csr m = genTiled(p);
    const std::size_t n = static_cast<std::size_t>(m.rows());
    CsrOperator op(m);
    std::vector<double> b(n, 1.0);
    std::vector<double> x(n, 0.0);

    double worstUs = 0.0;
    for (auto _ : state) {
        ExecContext ctx;
        CancelToken controller = ctx.token();
        std::chrono::steady_clock::time_point cancelAt;
        std::thread killer([&] {
            std::this_thread::sleep_for(
                std::chrono::microseconds(200));
            cancelAt = std::chrono::steady_clock::now();
            controller.cancel();
        });
        SolverConfig cfg;
        cfg.tolerance = 0.0; // unreachable: only the cancel stops it
        cfg.maxIterations = 1 << 30;
        cfg.exec = &ctx;
        std::fill(x.begin(), x.end(), 0.0);
        const SolverResult r = conjugateGradient(op, b, x, cfg);
        const auto done = std::chrono::steady_clock::now();
        killer.join();
        benchmark::DoNotOptimize(r.iterations);
        worstUs = std::max(
            worstUs,
            std::chrono::duration<double, std::micro>(done - cancelAt)
                .count());
    }
    gCancelLatencyUs = std::max(gCancelLatencyUs, worstUs);
    state.counters["cancel_latency_us"] = worstUs;
}
BENCHMARK(bmExecCancelLatency);

/** Console output plus an in-memory capture of every finished run,
 *  dumped as JSON by main() when --json was requested. */
class CaptureReporter : public benchmark::ConsoleReporter
{
  public:
    struct Entry
    {
        std::string name;
        std::string matrix; //!< report label; empty = no matrix
        double realTime = 0.0;
        std::string timeUnit;
        std::int64_t iterations = 0;
        double itemsPerSecond = 0.0;
    };

    std::vector<Entry> entries;

    void
    ReportRuns(const std::vector<Run> &reports) override
    {
        for (const Run &run : reports) {
            if (run.error_occurred)
                continue;
            Entry e;
            e.name = run.benchmark_name();
            e.matrix = run.report_label;
            e.realTime = run.GetAdjustedRealTime();
            e.timeUnit = benchmark::GetTimeUnitString(run.time_unit);
            e.iterations = static_cast<std::int64_t>(run.iterations);
            const auto it = run.counters.find("items_per_second");
            if (it != run.counters.end())
                e.itemsPerSecond = it->second;
            entries.push_back(std::move(e));
        }
        ConsoleReporter::ReportRuns(reports);
    }
};

/** Minimal JSON string escape (names and labels are plain ASCII). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

bool
writeJson(const std::string &path,
          const std::vector<CaptureReporter::Entry> &entries)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "bench_micro: cannot open %s\n",
                     path.c_str());
        return false;
    }
    std::fprintf(f, "{\n  \"threads\": %u,\n  \"benchmarks\": [\n",
                 globalThreads());
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const auto &e = entries[i];
        std::fprintf(
            f,
            "    {\"name\": \"%s\", \"matrix\": \"%s\", "
            "\"real_time\": %.6f, \"time_unit\": \"%s\", "
            "\"iterations\": %lld, \"items_per_second\": %.3f}%s\n",
            jsonEscape(e.name).c_str(), jsonEscape(e.matrix).c_str(),
            e.realTime, e.timeUnit.c_str(),
            static_cast<long long>(e.iterations), e.itemsPerSecond,
            i + 1 < entries.size() ? "," : "");
    }
    // Telemetry counters captured during the run (empty object when
    // telemetry is disabled); tools/perfdiff compares these along
    // with the wall times.
    const auto counters = telemetry::snapshotCounters();
    std::fprintf(f, "  ],\n  \"metrics\": {");
    bool wroteAny = false;
    for (std::size_t i = 0; i < counters.size(); ++i) {
        std::fprintf(f, "%s\n    \"%s\": %llu", wroteAny ? "," : "",
                     jsonEscape(counters[i].first).c_str(),
                     static_cast<unsigned long long>(
                         counters[i].second));
        wroteAny = true;
    }
    // Cancellation promptness (bmExecCancelLatency); perfdiff treats
    // metric drift as informational, so the jittery wall-clock value
    // never fails the smoke gate but stays visible in the diff.
    if (gCancelLatencyUs > 0.0) {
        std::fprintf(f, "%s\n    \"exec.cancel_latency_us\": %.3f",
                     wroteAny ? "," : "", gCancelLatencyUs);
        wroteAny = true;
    }
    std::fprintf(f, "%s}\n}\n", wroteAny ? "\n  " : "");
    std::fclose(f);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    // Strip --json [path] / --json=path before google-benchmark sees
    // the argument list; everything else passes through.
    std::string jsonPath;
    std::vector<char *> args;
    args.reserve(static_cast<std::size_t>(argc));
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            jsonPath = argv[++i];
        } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
            jsonPath = argv[i] + 7;
        } else {
            args.push_back(argv[i]);
        }
    }
    int count = static_cast<int>(args.size());
    benchmark::Initialize(&count, args.data());
    if (benchmark::ReportUnrecognizedArguments(count, args.data()))
        return 1;

    CaptureReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    if (!jsonPath.empty() &&
        !writeJson(jsonPath, reporter.entries))
        return 1;
    return 0;
}
