/**
 * @file
 * Solver-service benchmark driver.
 *
 *   solverbench --workload <name> --seed <n> --seconds <s>
 *               --trace <0|1> [--workdir <dir>]
 *
 * Builds the named workload from the seed, sets the service up
 * several times (setup_s is the median), then drives it closed loop
 * with `outstanding` requests in flight: a caller thread submits a
 * request, waits for (or polls) its terminal state, checks it, and
 * submits the next. Every answer is checked (expected status, true
 * residual recomputed with exact Csr::spmv), and a deterministic
 * sample is re-solved solo and must match bitwise. With --trace 0
 * the last stdout line carries the end-to-end metrics; with
 * --trace 1 the window is split into an untraced and a traced half
 * and the line carries the per-layer metrics. The exit code is 1
 * when any check failed.
 */

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "accel/accel.hh"
#include "bench.hh"
#include "util/logging.hh"
#include "util/threadpool.hh"

namespace {

using namespace msc;
using namespace solverbench;
using Clock = std::chrono::steady_clock;

constexpr unsigned kShards = 2;
/** Set-up repeats: at least kMinSetups, then more until
 *  kSetupBudgetS has passed (short set-ups need many for a steady
 *  median), at most kMaxSetups. cold_ingest's set-ups spread from
 *  47 to 82 ms within one run, so a median of fewer than about 25
 *  moved by a third between runs. */
constexpr unsigned kMinSetups = 25;
constexpr unsigned kMaxSetups = 1001;
constexpr double kSetupBudgetS = 0.5;
/**
 * Requests one service instance serves before the window goes on
 * with a fresh one (set up as before; the gap counts as window
 * time). The scheduler's decision log is never trimmed (about 200
 * bytes a request), so without this tiny_tenants' peak_rss_mb read
 * 256 or 508 MB by whether the host's speed carried the log past a
 * doubling of its vector. The other workloads never reach it.
 */
constexpr std::uint64_t kRequestsPerService = 50000;
/** Slices of the window whose median rate is reported. */
constexpr unsigned kSubWindows = 5;
/** A traced window ends early once about this many spans are
 *  recorded (accel.block spans plus ~4 per request), which bounds
 *  the span buffers' memory. */
constexpr std::uint64_t kSpanBudget = 1000000;

double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workdir = ".bench_build/work";
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: solverbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--workdir <dir>]\n");
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage();
        const std::string v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::stoull(v);
        else if (a == "--seconds")
            o.seconds = std::stod(v);
        else if (a == "--trace")
            o.trace = v != "0";
        else if (a == "--workdir")
            o.workdir = v;
        else
            usage();
    }
    if (o.workload.empty() || o.seconds <= 0.0)
        usage();
    return o;
}

unsigned
onlineCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

/** One request the closed loop finished. A run keeps one per
 *  request, so it is kept small: its memory is part of peak_rss_mb. */
struct Finished
{
    double startS = 0.0; //!< submit, since the phase's origin
    double endS = 0.0;   //!< terminal state seen
    std::uint32_t spmvCalls = 0;
    bool cancelMarked = false;
    bool ok = false;     //!< passed every check
    bool solved = false; //!< converged and verified
    bool coalesced = false;

    double latencyMs() const { return (endS - startS) * 1e3; }
};

struct Phase
{
    /** Grows in fixed chunks: no doubling spikes in peak RSS. */
    std::deque<Finished> done;
    double windowS = 0.0;
    std::vector<KeptResult> prefix; //!< requests [0, w.prefix)
};

/** Exact check of one answer; prints why it failed. */
bool
checkAnswer(const Workload &w, std::uint64_t index,
            const RequestSpec &spec, const std::vector<double> &b,
            const RequestResult &r, bool *solved)
{
    *solved = false;
    if (spec.cancel && r.status == SolveStatus::Cancelled)
        return true;
    if (r.status != SolveStatus::Converged || !r.solve.converged) {
        std::fprintf(stderr,
                     "solverbench: request %llu ended with status %d\n",
                     static_cast<unsigned long long>(index),
                     static_cast<int>(r.status));
        return false;
    }
    const Csr &m = w.ops[spec.op].matrix;
    if (r.x.size() != b.size()) {
        std::fprintf(stderr, "solverbench: request %llu: x has %zu "
                             "entries, expected %zu\n",
                     static_cast<unsigned long long>(index),
                     r.x.size(), b.size());
        return false;
    }
    std::vector<double> ax(b.size());
    m.spmv(r.x, ax);
    double rr = 0.0;
    double bb = 0.0;
    for (std::size_t i = 0; i < b.size(); ++i) {
        const double d = b[i] - ax[i];
        rr += d * d;
        bb += b[i] * b[i];
    }
    const double rel = std::sqrt(rr / bb);
    if (!(rel <= w.residualBound)) {
        std::fprintf(stderr,
                     "solverbench: request %llu: true relative "
                     "residual %.3e above the bound %.1e\n",
                     static_cast<unsigned long long>(index), rel,
                     w.residualBound);
        return false;
    }
    *solved = true;
    return true;
}

/** The request the service sees for @p s, with right-hand side @p b. */
SolveRequest
makeRequest(const Workload &w, const RequestSpec &s,
            std::vector<double> b)
{
    SolveRequest req;
    req.tenant = tenantName(s.tenant);
    req.priority = s.priority;
    req.deadline = s.deadline;
    req.kind = s.kind;
    req.tolerance = w.tolerance;
    req.op = w.opCfg;
    req.b = std::move(b);
    const Operator &op = w.ops[s.op];
    if (op.file.empty())
        req.matrix = &op.matrix;
    else
        req.matrixFile = op.file;
    return req;
}

/**
 * Closed loop on @p svc, appending to @p out: w.outstanding requests
 * in flight, held by w.outstanding / w.inFlight caller threads that
 * pull stream indices from @p next until the window of @p windowS
 * seconds from @p t0 closes or @p maxRequests have been submitted
 * (and, when @p runPrefix, until every index below w.prefix has
 * run). A caller with one request in flight blocks on it; one with
 * several polls them and resubmits each as it finishes. Requests in
 * flight when the loop stops still finish and are checked. Returns
 * true when it stopped at @p maxRequests.
 */
bool
runPhase(SolverService &svc, const Workload &w,
         std::atomic<std::uint64_t> &next, Clock::time_point t0,
         double windowS, std::uint64_t maxRequests, bool runPrefix,
         const std::set<std::uint64_t> &sampled, bool capSpans,
         Phase &out)
{
    std::atomic<bool> stop{false};
    std::mutex keptMu;
    const unsigned nCallers = w.outstanding / w.inFlight;
    std::mutex quitMu;
    std::condition_variable allQuit;
    unsigned quit = 0;
    std::vector<std::deque<Finished>> perCaller(nCallers);
    const std::uint64_t first = next.load();

    struct Slot
    {
        std::uint64_t index = 0;
        RequestSpec spec;
        std::vector<double> b;
        Clock::time_point s0;
        RequestHandle h;
    };
    // Submits the next stream index into @p s; false once the
    // window has closed or maxRequests have been submitted.
    const auto submitNext = [&](Slot &s) {
        const std::uint64_t i = next.fetch_add(1);
        if ((stop.load(std::memory_order_relaxed) ||
             i - first >= maxRequests) &&
            !(runPrefix && i < w.prefix))
            return false;
        s.index = i;
        s.spec = w.spec(i);
        s.b = makeRhs(w, i);
        s.s0 = Clock::now();
        {
            telemetry::Span submit("bench.submit");
            s.h = svc.submit(makeRequest(w, s.spec, s.b));
        }
        if (s.spec.cancel)
            s.h.cancel();
        return true;
    };
    const auto finish = [&](const Slot &s, Clock::time_point s1,
                            std::deque<Finished> &mine) {
        const RequestResult &r = s.h.wait();
        Finished f;
        f.startS = seconds(s.s0 - t0);
        f.endS = seconds(s1 - t0);
        f.cancelMarked = s.spec.cancel;
        f.ok = checkAnswer(w, s.index, s.spec, s.b, r, &f.solved);
        f.coalesced = r.coalesced;
        f.spmvCalls = static_cast<std::uint32_t>(r.solve.spmvCalls);
        mine.push_back(f);
        if (runPrefix && s.index < w.prefix) {
            KeptResult k;
            k.index = s.index;
            k.result.status = r.status;
            k.result.solve = r.solve;
            if (sampled.count(s.index))
                k.result.x = r.x;
            std::lock_guard lock(keptMu);
            out.prefix.push_back(std::move(k));
        }
    };

    const auto caller = [&](unsigned c) {
        std::deque<Finished> &mine = perCaller[c];
        std::vector<Slot> slots(w.inFlight);
        std::size_t live = 0;
        while (live < slots.size() && submitNext(slots[live]))
            ++live;
        while (live > 0) {
            bool progressed = false;
            for (std::size_t k = 0; k < live;) {
                Slot &s = slots[k];
                if (w.inFlight > 1 && !s.h.done()) {
                    ++k;
                    continue;
                }
                s.h.wait();
                finish(s, Clock::now(), mine);
                progressed = true;
                if (submitNext(s)) {
                    ++k;
                } else {
                    std::swap(s, slots[--live]);
                }
            }
            if (!progressed)
                std::this_thread::yield();
        }
        // Before the window closes a caller only quits at
        // maxRequests; the last one to quit wakes the timer below.
        std::lock_guard lock(quitMu);
        if (++quit == nCallers)
            allQuit.notify_one();
    };

    std::vector<std::thread> callers;
    for (unsigned c = 0; c < nCallers; ++c)
        callers.emplace_back(caller, c);
    const Clock::time_point end =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(windowS));
    bool retired = false;
    while (Clock::now() < end) {
        std::unique_lock lock(quitMu);
        if (allQuit.wait_until(
                lock,
                std::min(end, Clock::now() + std::chrono::milliseconds(10)),
                [&] { return quit == nCallers; })) {
            retired = true;
            break;
        }
        lock.unlock();
        if (capSpans &&
            telemetry::counterValue("accel.block_spans") +
                    4 * (next.load() - first) >
                kSpanBudget)
            break;
    }
    stop.store(true);
    out.windowS = seconds(Clock::now() - t0);
    for (std::thread &t : callers)
        t.join();
    for (auto &v : perCaller) {
        out.done.insert(out.done.end(), v.begin(), v.end());
        std::deque<Finished>().swap(v);
    }
    std::sort(out.prefix.begin(), out.prefix.end(),
              [](const KeptResult &a, const KeptResult &b) {
                  return a.index < b.index;
              });
    return retired;
}

/** Nearest-rank quantile of @p v (sorted ascending). */
double
quantile(const std::vector<double> &v, double q)
{
    if (v.empty())
        return 0.0;
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v.empty() ? 0.0 : quantile(v, 0.5);
}

/**
 * Work finished per second inside the window: the median over
 * kSubWindows equal slices of it, so a transient stall of the host
 * moves one slice, not the result. Each request's work is spread
 * over its submit -> terminal interval and credited to the slices
 * that interval overlaps; a request still in flight when the window
 * closes finishes in the drain, so its full interval is known.
 * Counting whole completions instead would jump by a whole coalesced
 * panel whenever one lands just inside or just outside a slice.
 * @p work gives each request's amount.
 */
template <typename Work>
double
windowRate(const Phase &p, Work work)
{
    std::vector<double> rates;
    const double slice = p.windowS / kSubWindows;
    for (unsigned k = 0; k < kSubWindows; ++k) {
        const double a = k * slice;
        const double b = a + slice;
        double done = 0.0;
        for (const Finished &f : p.done) {
            const double lo = std::max(a, f.startS);
            const double hi = std::min(b, f.endS);
            if (hi > lo)
                done += (hi - lo) / (f.endS - f.startS) * work(f);
        }
        rates.push_back(done / slice);
    }
    return median(rates);
}

/**
 * Deterministic re-solve sample: the first non-cancelled request of
 * each solver kind in the prefix, then evenly spaced others.
 */
std::set<std::uint64_t>
chooseSample(const Workload &w)
{
    std::set<std::uint64_t> out;
    std::set<SolverKind> kinds;
    std::vector<std::uint64_t> pool;
    for (std::uint64_t i = 0; i < w.prefix; ++i) {
        const RequestSpec s = w.spec(i);
        if (s.cancel)
            continue;
        pool.push_back(i);
        if (kinds.insert(s.kind).second && out.size() < w.resolveCount)
            out.insert(i);
    }
    for (std::size_t k = 0;
         out.size() < w.resolveCount && k < pool.size(); ++k)
        out.insert(pool[k * pool.size() / w.resolveCount % pool.size()]);
    return out;
}

/** Service set-up: construct, configure tenants, warm operators. */
std::unique_ptr<SolverService>
setUp(const Workload &w, const ServiceConfig &cfg)
{
    auto svc = std::make_unique<SolverService>(cfg);
    for (std::size_t t = 0; t < w.tenantWeights.size(); ++t) {
        svc->setTenantWeight(tenantName(t), w.tenantWeights[t]);
        svc->setTenantTickets(tenantName(t), w.tenantTickets[t]);
    }
    // One single-iteration solve per operator prepares its home
    // shard's replica (and, for files, runs the loader once).
    svc->setTenantTickets("warm", static_cast<int>(w.warmOps.size()));
    std::vector<RequestHandle> warm;
    for (const unsigned k : w.warmOps) {
        RequestSpec s;
        s.op = k;
        SolveRequest req = makeRequest(
            w, s,
            std::vector<double>(
                static_cast<std::size_t>(w.ops[k].matrix.rows()), 1.0));
        req.tenant = "warm";
        req.maxIterations = 1;
        warm.push_back(svc->submit(std::move(req)));
    }
    for (const RequestHandle &h : warm) {
        const SolveStatus st = h.wait().status;
        if (st != SolveStatus::MaxIterations &&
            st != SolveStatus::Converged)
            fatal("solverbench: warm-up solve failed with status ",
                  static_cast<int>(st));
    }
    return svc;
}

/** Removes the run's scratch directory on every exit path. */
struct ScratchDir
{
    std::string path;
    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    std::isfinite(metrics[i].value) ? metrics[i].value
                                                    : 0.0,
                    metrics[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
}

std::uint64_t
counter(const char *name)
{
    return telemetry::counterValue(name);
}

int
run(const Options &opt)
{
    // Threads: two shard workers, each computing on its own thread
    // (one pool lane, unless MSC_THREADS says otherwise). A pool
    // shared by both workers (MSC_THREADS=2) measured slower and four
    // times noisier on accel_suite: the workers' parallel sections
    // contend for the same lanes. One worker per shard even on one
    // CPU: a worker serves shard w mod shards and an idle one steals
    // only batches of two or more, so a single worker left the other
    // shard's requests waiting forever.
    const unsigned nproc = onlineCpus();
    const int workers = static_cast<int>(kShards);
    if (std::getenv("MSC_THREADS") == nullptr)
        setGlobalThreads(1);
    const unsigned lanes = globalThreads();

    ScratchDir scratch{opt.workdir + "/" + opt.workload + "-" +
                       std::to_string(::getpid())};
    const Workload w =
        makeWorkload(opt.workload, opt.seed, scratch.path, kShards);
    ServiceConfig cfg = w.service;
    cfg.workers = workers;

    // Benchmark-side accelerator models of the prefix's operators
    // for modeled_solve_ms (as bench_service's shard phase does).
    std::map<unsigned, std::unique_ptr<Accelerator>> models;
    for (std::uint64_t i = 0; i < w.prefix; ++i) {
        const unsigned op = w.spec(i).op;
        if (models.count(op))
            continue;
        auto a = std::make_unique<Accelerator>(w.opCfg.accel);
        a->prepare(w.ops[op].matrix);
        models.emplace(op, std::move(a));
    }
    const std::set<std::uint64_t> sampled = chooseSample(w);

    std::vector<double> setups;
    std::unique_ptr<SolverService> svc;
    double setupTotal = 0.0;
    while (setups.size() < kMinSetups ||
           (setupTotal < kSetupBudgetS && setups.size() < kMaxSetups)) {
        svc.reset();
        const Clock::time_point t0 = Clock::now();
        svc = setUp(w, cfg);
        setups.push_back(seconds(Clock::now() - t0));
        setupTotal += setups.back();
    }

    std::atomic<std::uint64_t> next{0};
    const double firstWindow = opt.trace ? opt.seconds / 2 : opt.seconds;
    Phase plain;
    const Clock::time_point origin = Clock::now();
    while (runPhase(*svc, w, next, origin, firstWindow,
                    kRequestsPerService, true, sampled, false, plain)) {
        svc.reset();
        svc = setUp(w, cfg);
    }

    // Traced half: metrics and spans on, everything reset first.
    Phase traced;
    ServiceStats before;
    PrepareCache::Stats cacheBefore;
    std::vector<telemetry::SpanRecord> serviceSpans;
    double queueWaitMs = 0.0;
    if (opt.trace) {
        before = svc->stats();
        cacheBefore = svc->cacheStats();
        telemetry::setEnabled(true);
        telemetry::reset();
        runPhase(*svc, w, next, Clock::now(), opt.seconds / 2,
                 std::numeric_limits<std::uint64_t>::max(), false,
                 sampled, true, traced);
        serviceSpans = telemetry::snapshotSpans();
        for (const auto &h : telemetry::snapshotHistograms())
            if (h.name == "service.queue_wait_us")
                queueWaitMs = h.sum / 1e3;
    }
    const ServiceStats after = svc->stats();
    const PrepareCache::Stats cacheAfter = svc->cacheStats();
    std::uint64_t tracedMapHits = 0;
    std::uint64_t tracedFallbacks = 0;
    std::uint64_t tracedSpmvCalls = 0;
    std::uint64_t tracedClusterApplies = 0;
    if (opt.trace) {
        tracedMapHits = counter("binio.map_hits");
        tracedFallbacks = counter("binio.fallback_parse");
        tracedSpmvCalls = counter("accel.spmv_calls");
        tracedClusterApplies = counter("cluster.applies");
    }
    svc->stop();

    // Checks: every answer, then the bitwise solo re-solves.
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    for (const Phase *p : {&plain, &traced})
        for (const Finished &f : p->done) {
            ++attempted;
            failed += f.ok ? 0 : 1;
        }
    std::vector<KeptResult> toResolve;
    for (const KeptResult &k : plain.prefix)
        if (sampled.count(k.index) &&
            k.result.status == SolveStatus::Converged)
            toResolve.push_back(k);
    const std::uint64_t adc0 = counter("cluster.adc_conversions");
    const std::uint64_t groups0 = counter("cluster.groups_executed");
    const std::uint64_t groupsAll0 = counter("cluster.groups_total");
    const ResolveReport resolve = resolveSolo(w, toResolve);
    const std::uint64_t adc = counter("cluster.adc_conversions") - adc0;
    const std::uint64_t groups =
        counter("cluster.groups_executed") - groups0;
    const std::uint64_t groupsAll =
        counter("cluster.groups_total") - groupsAll0;
    // A sampled request that did not converge has no answer to
    // re-solve against: its re-solve counts as failed as well.
    attempted += sampled.size();
    failed += resolve.mismatches + (sampled.size() - toResolve.size());

    // Deterministic work over the prefix (cancel-marked excluded:
    // where a cancel lands is timing).
    double modeledS = 0.0;
    double iterations = 0.0;
    double spmvs = 0.0;
    double dots = 0.0;
    unsigned counted = 0;
    for (const KeptResult &k : plain.prefix) {
        const RequestSpec s = w.spec(k.index);
        if (s.cancel || k.result.status != SolveStatus::Converged)
            continue;
        modeledS += models.at(s.op)->solveCost(k.result.solve, false).time;
        iterations += k.result.solve.iterations;
        spmvs += double(k.result.solve.spmvCalls);
        dots += double(k.result.solve.dotCalls);
        ++counted;
    }
    const double perSolve = counted ? 1.0 / counted : 0.0;

    // Latency of every request submitted inside the window, followed
    // to its terminal state.
    std::vector<double> latencies;
    for (const Finished &f : plain.done)
        if (f.startS < plain.windowS && !f.cancelMarked)
            latencies.push_back(f.latencyMs());
    std::sort(latencies.begin(), latencies.end());
    const double tail = quantile(latencies, w.tailQuantile);
    const std::size_t beyond = static_cast<std::size_t>(
        std::count_if(latencies.begin(), latencies.end(),
                      [&](double v) { return v > tail; }));
    const auto solvedOne = [](const Finished &f) {
        return f.solved ? 1.0 : 0.0;
    };
    const auto one = [](const Finished &) { return 1.0; };

    std::printf("# solverbench workload=%s seed=%llu nproc=%u "
                "MSC_THREADS=%u workers=%d shards=%u outstanding=%u "
                "window_s=%.3f finished=%zu tail=p%g samples=%zu "
                "beyond_tail=%zu resolved=%u trace=%d\n",
                w.name.c_str(),
                static_cast<unsigned long long>(opt.seed), nproc,
                lanes, workers, kShards, w.outstanding, plain.windowS,
                plain.done.size(), w.tailQuantile * 100,
                latencies.size(), beyond, resolve.attempted,
                opt.trace ? 1 : 0);
    if (beyond < 10)
        std::fprintf(stderr,
                     "solverbench: only %zu samples beyond p%g\n",
                     beyond, w.tailQuantile * 100);

    std::vector<Metric> m;
    if (!opt.trace) {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        m = {
            {"solves_per_s", windowRate(plain, solvedOne), "1/s"},
            {"latency_p50_ms", quantile(latencies, 0.5), "ms"},
            {"latency_tail_ms", tail, "ms"},
            {"sim_spmv_per_s",
             windowRate(plain,
                        [](const Finished &f) {
                            return double(f.spmvCalls);
                        }),
             "1/s"},
            {"modeled_solve_ms", modeledS * 1e3 * perSolve, "ms"},
            {"setup_s", median(setups), "s"},
            {"peak_rss_mb", double(ru.ru_maxrss) / 1024.0, "MB"},
        };
    } else {
        const LayerReplay replay =
            replayLayers(w, scratch.path + "/replay", 4);
        const auto allSpans =
            summarizeSpans(telemetry::snapshotSpans(), 1.0);

        std::size_t coalesced = 0;
        std::uint64_t coalescedCols = 0;
        for (const Finished &f : traced.done)
            if (f.coalesced) {
                ++coalesced;
                coalescedCols += f.spmvCalls;
            }
        auto byName = summarizeSpans(serviceSpans, 1.0);
        const SpanTotals lockstep = byName["solver.lockstep_cg"];
        const double panelWidth =
            lockstep.count ? double(coalesced) / lockstep.count : 1.0;
        byName = summarizeSpans(serviceSpans, panelWidth);
        const auto get = [&](const char *n) { return byName[n]; };
        const auto meanMs = [](const SpanTotals &t) {
            return t.count ? t.ms / t.count : 0.0;
        };

        const double requests = double(traced.done.size());
        // Submit -> terminal time summed over the traced requests.
        double requestMs = 0.0;
        for (const Finished &f : traced.done)
            requestMs += f.latencyMs();
        const SpanTotals submit = get("bench.submit");
        const SpanTotals solver = spanPrefix(byName, "solver.");
        const SpanTotals prepare = get("accel.prepare");
        const SpanTotals apply = get("cluster.apply");
        const SpanTotals applyBatch = get("cluster.apply_batch");
        // The service's queue wait runs from the start of submit()
        // to dispatch, so it holds the submit call itself.
        const double activeMs =
            std::max(1e-9, requestMs - queueWaitMs + submit.ms);
        const double nonsolveMs = requestMs - solver.requestMs;
        const double batchCols =
            double(tracedClusterApplies) - double(apply.count);
        const double accelMs = get("accel.spmv").requestMs +
                               get("accel.spmm").requestMs +
                               prepare.requestMs;

        std::vector<std::uint64_t> shardDelta;
        for (std::size_t s = 0; s < after.shardDispatches.size(); ++s)
            shardDelta.push_back(
                after.shardDispatches[s] -
                (s < before.shardDispatches.size()
                     ? before.shardDispatches[s]
                     : 0));
        double skew = 0.0;
        if (!shardDelta.empty()) {
            const auto [lo, hi] =
                std::minmax_element(shardDelta.begin(), shardDelta.end());
            double mean = 0.0;
            for (auto d : shardDelta)
                mean += double(d) / shardDelta.size();
            skew = mean > 0.0 ? double(*hi - *lo) / mean : 0.0;
        }
        const double dispatches = double(after.batches - before.batches);
        const double hits = double(cacheAfter.hits - cacheBefore.hits);
        const double misses =
            double(cacheAfter.misses - cacheBefore.misses);
        const double plainRate = windowRate(plain, one);
        const double tracedRate = windowRate(traced, one);

        m = {
            {"service.submit_us",
             submit.count ? submit.ms * 1e3 / submit.count : 0.0, "us"},
            {"service.nonsolve_ms_per_req",
             requests ? nonsolveMs / requests : 0.0, "ms"},
            {"service.rejected", double(after.rejected - before.rejected),
             "count"},
            {"service.preempted",
             double(after.preempted - before.preempted), "count"},
            {"service.migrated", double(after.migrated - before.migrated),
             "count"},
            {"service.shard_dispatch_skew", skew, "ratio"},
            {"service.dispatches", dispatches, "count"},
            {"service.batch_width_mean",
             dispatches > 0.0
                 ? double(after.completed - before.completed +
                          after.preempted - before.preempted) /
                       dispatches
                 : 0.0,
             "count"},
            {"cache.hit_ratio",
             hits + misses > 0.0 ? hits / (hits + misses) : 0.0, "ratio"},
            {"cache.evictions",
             double(cacheAfter.evictions - cacheBefore.evictions),
             "count"},
            {"cache.bytes", double(cacheAfter.bytes), "bytes"},
            {"cache.acquire_miss_ms", replay.acquireMissMs, "ms"},
            {"sparse.load_text_ms", replay.loadTextMs, "ms"},
            {"sparse.load_artifact_ms", replay.loadArtifactMs, "ms"},
            {"sparse.key_ms", replay.keyMs, "ms"},
            {"sparse.map_hits", double(tracedMapHits), "count"},
            {"sparse.parse_fallbacks", double(tracedFallbacks), "count"},
            {"blocking.plan_ms", replay.planMs, "ms"},
            {"blocking.blocked_nnz_frac", replay.blockedNnzFrac, "ratio"},
            {"accel.prepare_ms", meanMs(allSpans.count("accel.prepare")
                                            ? allSpans.at("accel.prepare")
                                            : SpanTotals{}),
             "ms"},
            {"accel.spmv_ms", meanMs(get("accel.spmv")), "ms"},
            {"accel.spmv_calls", double(tracedSpmvCalls), "count"},
            {"accel.spmm_ms", meanMs(get("accel.spmm")), "ms"},
            {"accel.spmm_cols",
             w.opCfg.backend == ServiceBackend::Accel
                 ? double(coalescedCols)
                 : 0.0,
             "count"},
            {"cluster.apply_ms_per_col", meanMs(apply), "ms"},
            {"cluster.apply_batch_ms_per_col",
             batchCols > 0.0 ? applyBatch.ms / batchCols : 0.0, "ms"},
            {"cluster.apply_calls", double(apply.count), "count"},
            {"cluster.apply_batch_cols", std::max(0.0, batchCols),
             "count"},
            {"cluster.adc_conversions", double(adc), "count"},
            {"cluster.groups_executed_frac",
             groupsAll ? double(groups) / double(groupsAll) : 0.0,
             "ratio"},
            {"solver.self_ms_per_solve",
             resolve.attempted
                 ? (resolve.solveMs - resolve.operatorMs) /
                       resolve.attempted
                 : 0.0,
             "ms"},
            {"solver.iterations_mean", iterations * perSolve, "count"},
            {"solver.spmv_per_solve", spmvs * perSolve, "count"},
            {"solver.dot_per_solve", dots * perSolve, "count"},
            {"share.cluster",
             (apply.requestMs + applyBatch.requestMs) / activeMs,
             "ratio"},
            {"share.accel", accelMs / activeMs, "ratio"},
            {"share.solver_self", solver.requestSelfMs / activeMs,
             "ratio"},
            {"share.submit_prepare", (submit.ms + prepare.ms) / activeMs,
             "ratio"},
            {"share.service_nonsolve",
             requestMs > 0.0 ? nonsolveMs / requestMs : 0.0,
             "ratio"},
            {"trace.overhead_frac",
             tracedRate > 0.0 ? plainRate / tracedRate - 1.0 : 0.0,
             "ratio"},
            {"trace.coverage",
             (submit.ms + solver.requestMs + prepare.requestMs) /
                 activeMs,
             "ratio"},
        };
    }
    const bool correct = failed == 0;
    printResult(correct, attempted, failed, m);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    try {
        return run(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "solverbench: %s\n", e.what());
        return 1;
    }
}
