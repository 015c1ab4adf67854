/**
 * @file
 * Per-layer measurement: span folding, direct calls into the sparse,
 * blocking and cache layers, and the solo re-solve that both checks
 * the service == direct contract and splits solver from operator
 * time.
 */

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <unordered_map>

#include "bench.hh"
#include "sparse/binio.hh"
#include "sparse/matrix_market.hh"

namespace solverbench {

using namespace msc;

namespace {

double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** A benchmark span that also adds its wall time to @p sinkMs. */
class TimedSpan
{
  public:
    TimedSpan(const char *name, double &sinkMs)
        : span(name), sink(sinkMs),
          t0(std::chrono::steady_clock::now())
    {}
    ~TimedSpan() { sink += msSince(t0); }
    TimedSpan(const TimedSpan &) = delete;
    TimedSpan &operator=(const TimedSpan &) = delete;

  private:
    telemetry::Span span;
    double &sink;
    std::chrono::steady_clock::time_point t0;
};

/** Forwards to a prepared operator and times every apply. */
class TimingOperator : public LinearOperator
{
  public:
    explicit TimingOperator(LinearOperator &inner) : in(inner) {}

    std::int32_t rows() const override { return in.rows(); }
    std::int32_t cols() const override { return in.cols(); }

    void
    apply(std::span<const double> x, std::span<double> y) override
    {
        const auto t0 = std::chrono::steady_clock::now();
        in.apply(x, y);
        ms += msSince(t0);
    }

    void
    applyBatch(std::span<const double> X, std::span<double> Y,
               unsigned k) override
    {
        const auto t0 = std::chrono::steady_clock::now();
        in.applyBatch(X, Y, k);
        ms += msSince(t0);
    }

    void
    setExecContext(const ExecContext *ctx) override
    {
        in.setExecContext(ctx);
    }

    double ms = 0.0;

  private:
    LinearOperator &in;
};

} // namespace

std::map<std::string, SpanTotals>
summarizeSpans(const std::vector<telemetry::SpanRecord> &spans,
               double panelWidth)
{
    // Per thread, in start order (outer before inner on ties), a
    // stack of open spans finds each span's same-thread parent.
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> byTid;
    for (std::size_t i = 0; i < spans.size(); ++i)
        byTid[spans[i].tid].push_back(i);
    std::vector<double> childNs(spans.size(), 0.0);
    std::vector<double> weight(spans.size(), 1.0);
    for (auto &[tid, idx] : byTid) {
        std::sort(idx.begin(), idx.end(),
                  [&](std::size_t a, std::size_t b) {
                      const auto &x = spans[a];
                      const auto &y = spans[b];
                      return x.startNs != y.startNs
                                 ? x.startNs < y.startNs
                                 : x.depth < y.depth;
                  });
        std::vector<std::size_t> open;
        for (const std::size_t i : idx) {
            const auto &s = spans[i];
            while (!open.empty()) {
                const auto &top = spans[open.back()];
                if (top.depth < s.depth &&
                    top.startNs + top.durNs >= s.startNs + s.durNs)
                    break;
                open.pop_back();
            }
            if (!open.empty()) {
                const std::size_t parent = open.back();
                if (spans[parent].depth + 1 == s.depth)
                    childNs[parent] += double(s.durNs);
                weight[i] = weight[parent];
            }
            if (s.name == "solver.lockstep_cg")
                weight[i] = panelWidth;
            open.push_back(i);
        }
    }
    std::map<std::string, SpanTotals> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const double ms = double(spans[i].durNs) / 1e6;
        const double selfMs =
            std::max(0.0, double(spans[i].durNs) - childNs[i]) / 1e6;
        SpanTotals &t = out[spans[i].name];
        ++t.count;
        t.ms += ms;
        t.requestMs += ms * weight[i];
        t.requestSelfMs += selfMs * weight[i];
    }
    return out;
}

SpanTotals
spanPrefix(const std::map<std::string, SpanTotals> &byName,
           const std::string &prefix)
{
    SpanTotals sum;
    for (const auto &[name, t] : byName) {
        if (name.compare(0, prefix.size(), prefix) != 0)
            continue;
        sum.count += t.count;
        sum.ms += t.ms;
        sum.requestMs += t.requestMs;
        sum.requestSelfMs += t.requestSelfMs;
    }
    return sum;
}

LayerReplay
replayLayers(const Workload &w, const std::string &workDir,
             unsigned maxOps)
{
    LayerReplay out;
    std::filesystem::create_directories(workDir);
    const BlockingConfig &blocking =
        w.opCfg.backend == ServiceBackend::ClusterBitExact
            ? w.opCfg.blocking
            : w.opCfg.accel.blocking;
    const unsigned count =
        std::min<unsigned>(maxOps, static_cast<unsigned>(w.ops.size()));
    for (unsigned k = 0; k < count; ++k) {
        const Csr &m = w.ops[k].matrix;
        const std::string text =
            workDir + "/replay" + std::to_string(k) + ".mtx";
        const std::string packed =
            workDir + "/replay" + std::to_string(k) + "p.mtx";
        writeMatrixMarket(m, text);
        writeMatrixMarket(m, packed);
        writeArtifact(artifactSidecarPath(packed), m);

        {
            TimedSpan s("bench.load_text", out.loadTextMs);
            const LoadedMatrix l = loadMatrixFile(text);
            if (l.csr.nnz() != m.nnz())
                fatal("solverbench: text reload changed the matrix");
        }
        {
            TimedSpan s("bench.load_artifact", out.loadArtifactMs);
            const LoadedMatrix l = loadMatrixFile(packed);
            if (!l.artifact || l.csr.nnz() != m.nnz())
                fatal("solverbench: sidecar was not mapped");
        }
        {
            TimedSpan s("bench.key", out.keyMs);
            if (!(operatorKey(m, w.opCfg) ==
                  operatorKeyFrom(csrContentKey(m), w.opCfg)))
                fatal("solverbench: operator key disagrees with the "
                      "content key");
        }
        {
            TimedSpan s("bench.plan", out.planMs);
            const BlockPlan plan = planBlocks(m, blocking);
            out.blockedNnzFrac += plan.stats.blockingEfficiency();
        }
        {
            PrepareCache cache;
            bool hit = true;
            TimedSpan s("bench.acquire", out.acquireMissMs);
            cache.acquire(m, w.opCfg, &hit);
            if (hit)
                fatal("solverbench: a fresh cache reported a hit");
        }
        for (const std::string &p :
             {text, packed, artifactSidecarPath(packed)})
            std::filesystem::remove(p);
    }
    if (count > 0) {
        out.loadTextMs /= count;
        out.loadArtifactMs /= count;
        out.keyMs /= count;
        out.planMs /= count;
        out.blockedNnzFrac /= count;
        out.acquireMissMs /= count;
    }
    return out;
}

ResolveReport
resolveSolo(const Workload &w, const std::vector<KeptResult> &kept)
{
    ResolveReport out;
    PrepareCache cache;
    for (const KeptResult &k : kept) {
        const RequestSpec spec = w.spec(k.index);
        const Operator &op = w.ops[spec.op];
        // Resolve the system exactly as the service does: from the
        // file (artifact or text) when the request names one.
        std::shared_ptr<PreparedOperator> entry;
        LoadedMatrix loaded;
        if (!op.file.empty()) {
            loaded = loadMatrixFile(op.file);
            entry = loaded.artifact
                        ? cache.acquire(loaded.artifact, w.opCfg)
                        : cache.acquire(loaded.csr, w.opCfg);
        } else {
            entry = cache.acquire(op.matrix, w.opCfg);
        }
        TimingOperator timed(entry->op());
        const std::vector<double> b = makeRhs(w, k.index);
        std::vector<double> x(b.size(), 0.0);
        SolverConfig cfg;
        cfg.tolerance = w.tolerance;
        const auto t0 = std::chrono::steady_clock::now();
        SolverResult r;
        switch (spec.kind) {
          case SolverKind::Cg:
            r = conjugateGradient(timed, b, x, cfg);
            break;
          case SolverKind::Gmres:
            r = gmres(timed, b, x, cfg);
            break;
          default:
            r = biCgStab(timed, b, x, cfg);
            break;
        }
        out.solveMs += msSince(t0);
        out.operatorMs += timed.ms;
        ++out.attempted;
        const std::vector<double> &sx = k.result.x;
        const bool same =
            r.iterations == k.result.solve.iterations &&
            sx.size() == x.size() &&
            std::memcmp(sx.data(), x.data(),
                        x.size() * sizeof(double)) == 0;
        if (!same) {
            ++out.mismatches;
            std::fprintf(stderr,
                         "solverbench: request %llu: solo re-solve "
                         "differs from the service (%d vs %d "
                         "iterations)\n",
                         static_cast<unsigned long long>(k.index),
                         r.iterations, k.result.solve.iterations);
        }
    }
    return out;
}

} // namespace solverbench
