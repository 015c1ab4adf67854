#include "check/check.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include "runtime/exec_context.hh"

namespace msc::check {

namespace {

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Escape a string for a JSON literal. */
void
appendEscaped(std::ostringstream &out, const std::string &s)
{
    for (char c : s) {
        switch (c) {
          case '"':
            out << "\\\"";
            break;
          case '\\':
            out << "\\\\";
            break;
          case '\n':
            out << "\\n";
            break;
          case '\t':
            out << "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out << ' ';
            else
                out << c;
        }
    }
}

} // namespace

std::uint64_t
iterationSeed(std::uint64_t seed, const std::string &module,
              std::uint64_t iter)
{
    // FNV-1a over the module name decorrelates modules; splitmix
    // scrambles the (seed, iter) lattice.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : module) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return splitmix(seed ^ splitmix(h ^ (iter * 0x9e3779b97f4a7c15ULL)));
}

bool
bitEqual(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

bool
sameCsrBits(const Csr &a, const Csr &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols() ||
        a.nnz() != b.nnz())
        return false;
    const auto arp = a.rowPtr(), brp = b.rowPtr();
    const auto aci = a.colIndex(), bci = b.colIndex();
    const auto av = a.values(), bv = b.values();
    return std::equal(arp.begin(), arp.end(), brp.begin(),
                      brp.end()) &&
           std::equal(aci.begin(), aci.end(), bci.begin(),
                      bci.end()) &&
           (av.empty() ||
            std::memcmp(av.data(), bv.data(), av.size_bytes()) == 0);
}

std::uint64_t
ulpDistance(double a, double b)
{
    if (a == b)
        return 0;
    if (std::isnan(a) || std::isnan(b))
        return ~std::uint64_t{0};
    // Map to a monotone integer line: negatives mirror below zero.
    const auto key = [](double v) {
        std::int64_t bits =
            static_cast<std::int64_t>(std::bit_cast<std::uint64_t>(v));
        // INT64_MIN - bits sends -0.0 to 0 (same key as +0.0), so a
        // zero crossing counts the two subnormal steps, not one.
        return bits < 0
            ? std::numeric_limits<std::int64_t>::min() - bits
            : bits;
    };
    const std::int64_t ka = key(a);
    const std::int64_t kb = key(b);
    return ka > kb ? static_cast<std::uint64_t>(ka) - kb
                   : static_cast<std::uint64_t>(kb) - ka;
}

std::vector<Module>
makeModules()
{
    std::vector<Module> mods;
    addWideIntChecks(mods);
    addAlignChecks(mods);
    addXbarChecks(mods);
    addClusterChecks(mods);
    addAccelChecks(mods);
    addSpmmChecks(mods);
    addSolverChecks(mods);
    addBinioChecks(mods);
    addMmioChecks(mods);
    return mods;
}

std::vector<std::string>
moduleNames()
{
    std::vector<std::string> names;
    for (const Module &m : makeModules())
        names.push_back(m.name);
    return names;
}

Report
runChecks(const Options &opt)
{
    Report report;
    report.seed = opt.seed;
    report.iters = opt.iters;

    // Wall-clock budget (0 disables): polled between iterations, so
    // a partial module still lands in the report when it expires.
    ExecContext deadline;
    const bool timed = opt.timeoutSec > 0.0;
    if (timed) {
        deadline.setDeadline(
            ExecContext::Clock::now() +
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::duration<double>(opt.timeoutSec)));
    }

    std::vector<Module> mods = makeModules();
    for (Module &mod : mods) {
        if (report.interrupted)
            break;
        if (!opt.module.empty() &&
            mod.name.find(opt.module) == std::string::npos)
            continue;
        ModuleReport rep;
        rep.name = mod.name;
        for (std::uint64_t it = 0; it < opt.iters; ++it) {
            if (timed && deadline.shouldStop()) {
                report.interrupted = true;
                break;
            }
            ++rep.iters;
            Context ctx(Rng(iterationSeed(opt.seed, mod.name, it)),
                        it, rep, opt.maxMessages);
            try {
                mod.iteration(ctx);
            } catch (const std::exception &e) {
                // A panic/fatal out of the checked code is itself a
                // finding: count it like a failed assertion.
                ctx.expect(false, "unexpected exception: ", e.what());
            }
        }
        report.totalChecks += rep.checks;
        report.totalFailures += rep.failures;
        report.modules.push_back(std::move(rep));
    }
    return report;
}

std::string
Report::toJson() const
{
    std::ostringstream out;
    out << "{\n";
    out << "  \"seed\": " << seed << ",\n";
    out << "  \"iters\": " << iters << ",\n";
    out << "  \"total_checks\": " << totalChecks << ",\n";
    out << "  \"total_failures\": " << totalFailures << ",\n";
    out << "  \"ok\": " << (ok() ? "true" : "false") << ",\n";
    // Emitted only on expiry: untimed reports must stay
    // byte-identical across this key's introduction.
    if (interrupted)
        out << "  \"interrupted\": true,\n";
    out << "  \"modules\": [\n";
    for (std::size_t i = 0; i < modules.size(); ++i) {
        const ModuleReport &m = modules[i];
        out << "    {\"name\": \"";
        appendEscaped(out, m.name);
        out << "\", \"iters\": " << m.iters
            << ", \"checks\": " << m.checks
            << ", \"failures\": " << m.failures
            << ", \"messages\": [";
        for (std::size_t k = 0; k < m.messages.size(); ++k) {
            out << (k ? ", " : "") << "\"";
            appendEscaped(out, m.messages[k]);
            out << "\"";
        }
        out << "]}" << (i + 1 < modules.size() ? "," : "") << "\n";
    }
    out << "  ]\n";
    out << "}\n";
    return out.str();
}

} // namespace msc::check
