#include "solver/solver.hh"

#include <algorithm>
#include <cmath>
#include <optional>

#include "solver/precond.hh"
#include "util/logging.hh"
#include "util/telemetry.hh"

namespace msc {

std::atomic<SolverWorkspace::AllocHook>
    SolverWorkspace::allocHook{nullptr};

namespace {

// One iteration tick + residual gauge per Krylov step; totals are
// deterministic because every step runs exactly once regardless of
// the pool's lane count.
constinit telemetry::Counter ctrIterations{"solver.iterations"};
constinit telemetry::Gauge gResidual{"solver.residual"};

void
checkSystem(const LinearOperator &a, std::span<const double> b,
            std::span<double> x)
{
    if (a.rows() != a.cols())
        fatal("solver: operator must be square");
    if (b.size() != static_cast<std::size_t>(a.rows()) ||
        x.size() != b.size())
        fatal("solver: dimension mismatch");
}

/** Breakdown guard: denominators this small (or non-finite) would
 *  amplify the next update into garbage rather than progress. */
bool
breakdown(double denom)
{
    return !std::isfinite(denom) ||
           std::fabs(denom) < 1e-300;
}

} // namespace

CgState::CgState(std::span<const double> bIn, std::span<double> xIn,
                 const SolverConfig &cfgIn, const Preconditioner *m,
                 SolverWorkspace *ws)
    : b(bIn), x(xIn), cfg(cfgIn), precond(m)
{
    if (x.size() != b.size())
        fatal("solver: dimension mismatch");
    const std::size_t n = b.size();
    SolverWorkspace &wsp = ws ? *ws : own;
    r = wsp.vec(0, n);
    p = wsp.vec(1, n);
    ap = wsp.vec(2, n);
    if (precond)
        z = wsp.vec(3, n);
    res.vectorLength = n;
}

double
CgState::residualNorm() const
{
    return precond ? rNorm : std::sqrt(rz);
}

/** r holds A x: finish the initial residual r = b - A x and the
 *  first search direction. */
void
CgState::start()
{
    started = true;
    for (std::size_t i = 0; i < r.size(); ++i)
        r[i] = b[i] - r[i];
    bNorm = norm2(b);
    ++res.dotCalls;
    if (bNorm == 0.0) {
        std::fill(x.begin(), x.end(), 0.0);
        res.converged = true;
        res.status = SolveStatus::Converged;
        finished = true;
        return;
    }
    if (precond) {
        precond->apply(r, z);
        ++res.precondApplies;
        std::copy(z.begin(), z.end(), p.begin());
        rz = dot(r, z);
        rNorm = norm2(r);
        res.dotCalls += 2;
    } else {
        std::copy(r.begin(), r.end(), p.begin());
        rz = dot(r, r);
        ++res.dotCalls;
    }
}

/** Poll the context; a stop ends the state. */
bool
CgState::stopped()
{
    if (!execShouldStop(cfg.exec))
        return false;
    interrupt(cfg.exec->stopStatus());
    return true;
}

/** Loop head: true when the state takes the next apply. */
bool
CgState::ready(bool mayYield)
{
    if (res.iterations >= cfg.maxIterations ||
        residualNorm() / bNorm <= cfg.tolerance) {
        finish(SolveStatus::MaxIterations);
        return false;
    }
    if (stopped())
        return false;
    if (mayYield && cfg.exec != nullptr &&
        cfg.exec->yieldRequested()) {
        // Park: no arithmetic has run for this iteration, so the
        // next runCg() re-enters the recurrence exactly here.
        res.relResidual = residualNorm() / bNorm;
        res.status = SolveStatus::Preempted;
        return false;
    }
    return true;
}

/** ap holds A p: one CG iteration. */
void
CgState::step()
{
    const double pap = dot(p, ap);
    ++res.dotCalls;
    if (pap <= 0.0) {
        warn("CG: operator not positive definite (p'Ap = ", pap,
             "); aborting");
        finish(SolveStatus::Breakdown);
        return;
    }
    const double alpha = rz / pap;
    axpy(alpha, p, x);
    axpy(-alpha, ap, r);
    res.axpyCalls += 2;
    std::span<const double> zr = r;
    if (precond) {
        precond->apply(r, z);
        ++res.precondApplies;
        zr = z;
    }
    const double rzNew = dot(r, zr);
    ++res.dotCalls;
    const double beta = rzNew / rz;
    // p = z + beta p
    for (std::size_t i = 0; i < p.size(); ++i)
        p[i] = zr[i] + beta * p[i];
    ++res.axpyCalls;
    rz = rzNew;
    if (precond) {
        rNorm = norm2(r);
        ++res.dotCalls;
    }
    ++res.iterations;
    ctrIterations.add();
    gResidual.set(residualNorm() / bNorm);
}

/** Normal exit: Converged wins over @p stop whenever the residual
 *  meets the tolerance. */
void
CgState::finish(SolveStatus stop)
{
    res.relResidual = residualNorm() / bNorm;
    res.converged = res.relResidual <= cfg.tolerance;
    res.status = res.converged ? SolveStatus::Converged : stop;
    finished = true;
}

/** Stopped by the context: x keeps the last completed iterate
 *  (it moves only in step()'s axpy), and convergence is never
 *  claimed. */
void
CgState::interrupt(SolveStatus stop)
{
    const double rn = residualNorm();
    res.relResidual = (bNorm > 0.0 && rn > 0.0) ? rn / bNorm : 1.0;
    res.status = stop;
    finished = true;
}

void
runCg(LinearOperator &a, std::span<CgState *const> states)
{
    if (states.empty())
        fatal("runCg: no states");
    if (a.rows() != a.cols())
        fatal("solver: operator must be square");
    const auto n = static_cast<std::size_t>(a.rows());
    for (const CgState *s : states)
        if (s->b.size() != n)
            fatal("solver: dimension mismatch");

    const bool solo = states.size() == 1;
    telemetry::Span span(solo ? "solver.cg" : "solver.lockstep_cg");
    ExecBinding bind(a, solo ? states[0]->cfg.exec : nullptr);

    // One apply over the live states. Solo applies straight from the
    // state's vectors; a panel packs the live columns, runs ONE
    // applyBatch and scatters back. Copies carry bits unchanged, so
    // each state sees exactly the apply() a solo solve computes.
    std::optional<SolverWorkspace> panel;
    std::span<double> pack, packOut;
    if (!solo) {
        panel.emplace();
        pack = panel->vec(0, n * states.size());
        packOut = panel->vec(1, n * states.size());
    }
    using Vec = std::span<double> CgState::*;
    const auto applyLive = [&](Vec src, Vec dst) {
        if (solo) {
            CgState &s = *states[0];
            a.apply(s.*src, s.*dst);
            ++s.res.spmvCalls;
            return;
        }
        std::size_t k = 0;
        for (CgState *s : states)
            if (s->live)
                std::copy_n((s->*src).data(), n, &pack[(k++) * n]);
        a.applyBatch(pack.first(k * n), packOut.first(k * n),
                     static_cast<unsigned>(k));
        k = 0;
        for (CgState *s : states)
            if (s->live) {
                std::copy_n(&packOut[(k++) * n], n, (s->*dst).data());
                ++s->res.spmvCalls;
            }
    };

    try {
        // Fresh states: poll, then r = A x in one apply.
        bool fresh = false;
        for (CgState *s : states) {
            s->live = !s->started && !s->finished && !s->stopped();
            fresh = fresh || s->live;
        }
        if (fresh) {
            applyLive(&CgState::x, &CgState::r);
            for (CgState *s : states)
                if (s->live)
                    s->start();
        }

        for (;;) {
            bool any = false;
            for (CgState *s : states) {
                s->live = s->started && !s->finished && s->ready(solo);
                any = any || s->live;
            }
            if (!any)
                return;
            applyLive(&CgState::p, &CgState::ap);
            for (CgState *s : states)
                if (s->live)
                    s->step();
        }
    } catch (const CancelledError &e) {
        // Only a solo state binds its context, so only it can be
        // stopped inside an apply.
        if (!solo)
            throw;
        states[0]->interrupt(e.status());
    }
}

SolverResult
conjugateGradient(LinearOperator &a, std::span<const double> b,
                  std::span<double> x, const SolverConfig &cfg,
                  SolverWorkspace *ws)
{
    checkSystem(a, b, x);
    CgState state(b, x, cfg, nullptr, ws);
    return runCg(a, state);
}

SolverResult
biCgStab(LinearOperator &a, std::span<const double> b,
         std::span<double> x, const SolverConfig &cfg,
         SolverWorkspace *ws)
{
    checkSystem(a, b, x);
    telemetry::Span span("solver.bicgstab");
    const std::size_t n = b.size();
    SolverResult res;
    res.vectorLength = n;

    SolverWorkspace local;
    SolverWorkspace &wsp = ws ? *ws : local;
    std::vector<double> &r = wsp.vec(0, n);
    std::vector<double> &rHat = wsp.vec(1, n);
    std::vector<double> &p = wsp.vec(2, n);
    std::vector<double> &v = wsp.vec(3, n);
    std::vector<double> &s = wsp.vec(4, n);
    std::vector<double> &t = wsp.vec(5, n);
    // Last iterate whose residual was finite: breakdown must return
    // a finite residual and never leave NaN in x, even when the
    // operator itself misbehaves (fault injection).
    std::vector<double> &xSafe = wsp.vec(6, n);

    ExecBinding bind(a, cfg.exec);
    SolveStatus stop = SolveStatus::MaxIterations;
    bool interrupted = false;
    double bNorm = 0.0;
    double resNorm = 0.0;
    double safeNorm = -1.0; //!< < 0 until xSafe holds an iterate
    try {
        execCheckpoint(cfg.exec);
        a.apply(x, r);
        ++res.spmvCalls;
        for (std::size_t i = 0; i < n; ++i)
            r[i] = b[i] - r[i];
        rHat = r;

        bNorm = norm2(b);
        ++res.dotCalls;
        if (bNorm == 0.0) {
            std::fill(x.begin(), x.end(), 0.0);
            res.converged = true;
            res.status = SolveStatus::Converged;
            return res;
        }

        double rho = 1.0, alpha = 1.0, omega = 1.0;
        std::fill(p.begin(), p.end(), 0.0);
        std::fill(v.begin(), v.end(), 0.0);

        resNorm = norm2(r);
        ++res.dotCalls;
        std::copy(x.begin(), x.end(), xSafe.begin());
        safeNorm = resNorm;
        for (int it = 0; it < cfg.maxIterations; ++it) {
            if (resNorm / bNorm <= cfg.tolerance) {
                res.converged = true;
                break;
            }
            execCheckpoint(cfg.exec);
            const double rhoNew = dot(rHat, r);
            ++res.dotCalls;
            if (breakdown(rhoNew)) {
                warn("BiCG-STAB: breakdown (rho = ", rhoNew,
                     ") at iteration ", it);
                stop = SolveStatus::Breakdown;
                break;
            }
            const double beta = (rhoNew / rho) * (alpha / omega);
            if (!std::isfinite(beta)) {
                warn("BiCG-STAB: breakdown (beta not finite) at "
                     "iteration ", it);
                stop = SolveStatus::Breakdown;
                break;
            }
            rho = rhoNew;
            // p = r + beta (p - omega v)
            for (std::size_t i = 0; i < n; ++i)
                p[i] = r[i] + beta * (p[i] - omega * v[i]);
            res.axpyCalls += 2;
            a.apply(p, v);
            ++res.spmvCalls;
            const double rHatV = dot(rHat, v);
            ++res.dotCalls;
            if (breakdown(rHatV)) {
                warn("BiCG-STAB: breakdown (rHat'v = ", rHatV,
                     ") at iteration ", it);
                stop = SolveStatus::Breakdown;
                break;
            }
            alpha = rho / rHatV;
            if (!std::isfinite(alpha)) {
                warn("BiCG-STAB: breakdown (alpha not finite) at "
                     "iteration ", it);
                stop = SolveStatus::Breakdown;
                break;
            }
            for (std::size_t i = 0; i < n; ++i)
                s[i] = r[i] - alpha * v[i];
            ++res.axpyCalls;
            const double sNorm = norm2(s);
            ++res.dotCalls;
            if (sNorm / bNorm <= cfg.tolerance) {
                axpy(alpha, p, x);
                ++res.axpyCalls;
                ++res.iterations;
                ctrIterations.add();
                gResidual.set(sNorm / bNorm);
                resNorm = sNorm;
                res.converged = true;
                break;
            }
            a.apply(s, t);
            ++res.spmvCalls;
            const double tt = dot(t, t);
            const double ts = dot(t, s);
            res.dotCalls += 2;
            if (breakdown(tt)) {
                warn("BiCG-STAB: breakdown (t't = ", tt,
                     ") at iteration ", it);
                stop = SolveStatus::Breakdown;
                break;
            }
            omega = ts / tt;
            if (!std::isfinite(omega)) {
                warn("BiCG-STAB: breakdown (omega not finite) at "
                     "iteration ", it);
                stop = SolveStatus::Breakdown;
                break;
            }
            // x += alpha p + omega s ; r = s - omega t
            for (std::size_t i = 0; i < n; ++i) {
                x[i] += alpha * p[i] + omega * s[i];
                r[i] = s[i] - omega * t[i];
            }
            res.axpyCalls += 3;
            resNorm = norm2(r);
            ++res.dotCalls;
            ++res.iterations;
            ctrIterations.add();
            gResidual.set(resNorm / bNorm);
            if (std::isfinite(resNorm)) {
                std::copy(x.begin(), x.end(), xSafe.begin());
                safeNorm = resNorm;
            }
            if (breakdown(omega)) {
                // omega ~ 0: the next beta would blow up; stop with
                // the update already applied.
                warn("BiCG-STAB: breakdown (omega = ", omega,
                     ") at iteration ", it);
                stop = SolveStatus::Breakdown;
                break;
            }
        }
    } catch (const CancelledError &e) {
        stop = e.status();
        interrupted = true;
    }
    if (!std::isfinite(resNorm) && safeNorm >= 0.0) {
        // The operator injected non-finite values (device faults):
        // report the last finite state instead of propagating NaN.
        std::copy(xSafe.begin(), xSafe.end(), x.begin());
        resNorm = safeNorm;
    }
    if (interrupted) {
        res.relResidual = (bNorm > 0.0 && resNorm > 0.0)
                              ? resNorm / bNorm
                              : 1.0;
        res.status = stop;
        return res;
    }
    res.relResidual = resNorm / bNorm;
    res.converged = res.relResidual <= cfg.tolerance;
    res.status =
        res.converged ? SolveStatus::Converged : stop;
    return res;
}

SolverResult
biCg(TransposableOperator &a, std::span<const double> b,
     std::span<double> x, const SolverConfig &cfg,
     SolverWorkspace *ws)
{
    checkSystem(a, b, x);
    telemetry::Span span("solver.bicg");
    const std::size_t n = b.size();
    SolverResult res;
    res.vectorLength = n;

    SolverWorkspace local;
    SolverWorkspace &wsp = ws ? *ws : local;
    std::vector<double> &r = wsp.vec(0, n);
    std::vector<double> &rT = wsp.vec(1, n);
    std::vector<double> &p = wsp.vec(2, n);
    std::vector<double> &pT = wsp.vec(3, n);
    std::vector<double> &ap = wsp.vec(4, n);
    std::vector<double> &atp = wsp.vec(5, n);

    ExecBinding bind(a, cfg.exec);
    SolveStatus stop = SolveStatus::MaxIterations;
    bool interrupted = false;
    double bNorm = 0.0;
    double resNorm = 0.0;
    try {
        execCheckpoint(cfg.exec);
        a.apply(x, r);
        ++res.spmvCalls;
        for (std::size_t i = 0; i < n; ++i)
            r[i] = b[i] - r[i];
        rT = r;
        p = r;
        pT = rT;

        bNorm = norm2(b);
        ++res.dotCalls;
        if (bNorm == 0.0) {
            std::fill(x.begin(), x.end(), 0.0);
            res.converged = true;
            res.status = SolveStatus::Converged;
            return res;
        }

        double rho = dot(rT, r);
        ++res.dotCalls;
        resNorm = norm2(r);
        ++res.dotCalls;
        for (int it = 0; it < cfg.maxIterations; ++it) {
            if (resNorm / bNorm <= cfg.tolerance) {
                res.converged = true;
                break;
            }
            execCheckpoint(cfg.exec);
            if (rho == 0.0) {
                warn("BiCG: breakdown (rho = 0) at iteration ", it);
                stop = SolveStatus::Breakdown;
                break;
            }
            a.apply(p, ap);
            a.applyTranspose(pT, atp);
            res.spmvCalls += 2;
            const double pTap = dot(pT, ap);
            ++res.dotCalls;
            if (pTap == 0.0) {
                warn("BiCG: breakdown (pT'Ap = 0) at iteration ",
                     it);
                stop = SolveStatus::Breakdown;
                break;
            }
            const double alpha = rho / pTap;
            axpy(alpha, p, x);
            axpy(-alpha, ap, r);
            axpy(-alpha, atp, rT);
            res.axpyCalls += 3;
            const double rhoNew = dot(rT, r);
            ++res.dotCalls;
            const double beta = rhoNew / rho;
            for (std::size_t i = 0; i < n; ++i) {
                p[i] = r[i] + beta * p[i];
                pT[i] = rT[i] + beta * pT[i];
            }
            res.axpyCalls += 2;
            rho = rhoNew;
            resNorm = norm2(r);
            ++res.dotCalls;
            ++res.iterations;
            ctrIterations.add();
            gResidual.set(resNorm / bNorm);
        }
    } catch (const CancelledError &e) {
        stop = e.status();
        interrupted = true;
    }
    if (interrupted) {
        res.relResidual = (bNorm > 0.0 && resNorm > 0.0)
                              ? resNorm / bNorm
                              : 1.0;
        res.status = stop;
        return res;
    }
    res.relResidual = resNorm / bNorm;
    res.converged = res.relResidual <= cfg.tolerance;
    res.status =
        res.converged ? SolveStatus::Converged : stop;
    return res;
}

SolverResult
gmres(LinearOperator &a, std::span<const double> b,
      std::span<double> x, const SolverConfig &cfg, int restart,
      SolverWorkspace *ws)
{
    checkSystem(a, b, x);
    telemetry::Span span("solver.gmres");
    if (restart < 1)
        fatal("gmres: restart must be >= 1");
    const std::size_t n = b.size();
    const auto m = static_cast<std::size_t>(restart);
    SolverResult res;
    res.vectorLength = n;

    const double bNorm = norm2(b);
    ++res.dotCalls;
    if (bNorm == 0.0) {
        std::fill(x.begin(), x.end(), 0.0);
        res.converged = true;
        res.status = SolveStatus::Converged;
        return res;
    }

    // The Krylov basis dominates the memory traffic: m+1 n-length
    // vectors plus the work vector come from the workspace so
    // repeated calls (segmented solves) reuse their storage. The
    // O(m^2) Hessenberg factors are small and stay local.
    SolverWorkspace local;
    SolverWorkspace &wsp = ws ? *ws : local;
    std::vector<std::vector<double> *> v(m + 1);
    for (std::size_t i = 0; i <= m; ++i)
        v[i] = &wsp.vec(i, n);
    std::vector<double> &w = wsp.vec(m + 1, n);
    std::vector<std::vector<double>> h(m + 1,
                                       std::vector<double>(m, 0.0));
    std::vector<double> cs(m, 0.0), sn(m, 0.0), g(m + 1, 0.0);
    // Triangular-solve coefficients, hoisted out of the restart
    // loop; assign() below never reallocates past the first cycle.
    std::vector<double> y;
    y.reserve(m);

    ExecBinding bind(a, cfg.exec);
    SolveStatus stop = SolveStatus::MaxIterations;
    bool interrupted = false;
    double resNorm = bNorm;
    // Residual matching the committed x (cycle boundaries only): a
    // mid-cycle stop abandons the partial Krylov basis, so the
    // recurrence residual of uncommitted columns must not be
    // reported for an x that never received them.
    double committed = -1.0;
    try {
    while (res.iterations < cfg.maxIterations) {
        execCheckpoint(cfg.exec);
        // r = b - A x
        a.apply(x, w);
        ++res.spmvCalls;
        for (std::size_t i = 0; i < n; ++i)
            (*v[0])[i] = b[i] - w[i];
        resNorm = norm2(*v[0]);
        ++res.dotCalls;
        committed = resNorm;
        if (resNorm / bNorm <= cfg.tolerance) {
            res.converged = true;
            break;
        }
        for (std::size_t i = 0; i < n; ++i)
            (*v[0])[i] /= resNorm;
        std::fill(g.begin(), g.end(), 0.0);
        g[0] = resNorm;

        std::size_t j = 0;
        bool lucky = false;
        for (; j < m && res.iterations < cfg.maxIterations; ++j) {
            execCheckpoint(cfg.exec);
            a.apply(*v[j], w);
            ++res.spmvCalls;
            // Modified Gram-Schmidt.
            for (std::size_t i = 0; i <= j; ++i) {
                h[i][j] = dot(w, *v[i]);
                ++res.dotCalls;
                axpy(-h[i][j], *v[i], w);
                ++res.axpyCalls;
            }
            h[j + 1][j] = norm2(w);
            ++res.dotCalls;
            if (h[j + 1][j] != 0.0) {
                for (std::size_t i = 0; i < n; ++i)
                    (*v[j + 1])[i] = w[i] / h[j + 1][j];
            } else {
                // Lucky (happy) breakdown: A V_j already lies in
                // span(V_j), so the Krylov subspace is invariant and
                // no further basis vector exists. Fold column j into
                // the least-squares problem and stop the cycle --
                // continuing would feed the next Arnoldi step
                // whatever v[j+1] held from a previous restart cycle.
                lucky = true;
            }
            // Apply accumulated Givens rotations to column j.
            for (std::size_t i = 0; i < j; ++i) {
                const double t1 = cs[i] * h[i][j] + sn[i] * h[i + 1][j];
                h[i + 1][j] = -sn[i] * h[i][j] + cs[i] * h[i + 1][j];
                h[i][j] = t1;
            }
            const double denom = std::hypot(h[j][j], h[j + 1][j]);
            if (denom == 0.0) {
                cs[j] = 1.0;
                sn[j] = 0.0;
            } else {
                cs[j] = h[j][j] / denom;
                sn[j] = h[j + 1][j] / denom;
            }
            h[j][j] = cs[j] * h[j][j] + sn[j] * h[j + 1][j];
            h[j + 1][j] = 0.0;
            g[j + 1] = -sn[j] * g[j];
            g[j] = cs[j] * g[j];
            ++res.iterations;
            resNorm = std::fabs(g[j + 1]);
            ctrIterations.add();
            gResidual.set(resNorm / bNorm);
            if (lucky || resNorm / bNorm <= cfg.tolerance) {
                ++j;
                break;
            }
        }
        // Solve the triangular system and update x.
        y.assign(j, 0.0);
        for (std::size_t i = j; i-- > 0;) {
            double sum = g[i];
            for (std::size_t k = i + 1; k < j; ++k)
                sum -= h[i][k] * y[k];
            if (h[i][i] != 0.0) {
                y[i] = sum / h[i][i];
            } else {
                // Rank-deficient Hessenberg (singular operator): the
                // residual component in g[i] cannot be annihilated.
                if (sum != 0.0) {
                    warn("GMRES: singular Hessenberg pivot h[", i,
                         "][", i, "]; keeping y[", i, "] = 0");
                }
                y[i] = 0.0;
            }
        }
        for (std::size_t i = 0; i < j; ++i) {
            axpy(y[i], *v[i], x);
            ++res.axpyCalls;
        }
        committed = resNorm;
        if (lucky) {
            // The subspace is invariant, so restarting regenerates
            // the same space: x cannot improve further. The rotated
            // recurrence residual |g[j]| is meaningless when the
            // Hessenberg went rank deficient (the zero column left
            // the rotation an identity), so report the true residual
            // of the updated iterate instead.
            a.apply(x, w);
            ++res.spmvCalls;
            for (std::size_t i = 0; i < n; ++i)
                w[i] = b[i] - w[i];
            resNorm = norm2(w);
            ++res.dotCalls;
            break;
        }
        if (resNorm / bNorm <= cfg.tolerance) {
            res.converged = true;
            break;
        }
    }
    } catch (const CancelledError &e) {
        stop = e.status();
        interrupted = true;
    }
    if (interrupted) {
        res.relResidual =
            committed >= 0.0 ? committed / bNorm : 1.0;
        res.status = stop;
        return res;
    }
    res.relResidual = resNorm / bNorm;
    res.converged = res.relResidual <= cfg.tolerance;
    res.status =
        res.converged ? SolveStatus::Converged : stop;
    return res;
}

} // namespace msc
