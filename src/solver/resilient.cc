#include "solver/resilient.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.hh"
#include "util/telemetry.hh"

namespace msc {

namespace {

// Mirrors of the RecoveryStats tallies, so a fault campaign's
// detect -> correct -> reprogram -> degrade ladder shows up in the
// exported metrics alongside the solver and accelerator counters.
constinit telemetry::Counter ctrSegments{"resilient.segments"};
constinit telemetry::Counter ctrScrubs{"resilient.scrubs"};
constinit telemetry::Counter ctrReprograms{"resilient.reprograms"};
constinit telemetry::Counter
    ctrReprogramFailures{"resilient.reprogram_failures"};
constinit telemetry::Counter
    ctrRestarts{"resilient.checkpoint_restarts"};
constinit telemetry::Counter ctrFallbacks{"resilient.fallbacks"};
constinit telemetry::Counter ctrNan{"resilient.nan_events"};
constinit telemetry::Counter
    ctrDivergence{"resilient.divergence_events"};
constinit telemetry::Counter
    ctrStagnation{"resilient.stagnation_events"};

bool
allFinite(std::span<const double> v)
{
    for (double x : v) {
        if (!std::isfinite(x))
            return false;
    }
    return true;
}

} // namespace

ResilientSolver::ResilientSolver(RecoverableOperator &oper,
                                 SolverKind solverKind,
                                 const SolverConfig &config,
                                 const RecoveryPolicy &recovery)
    : op(oper), kind(solverKind), cfg(config), policy(recovery)
{
    if (policy.checkpointInterval < 1)
        fatal("ResilientSolver: checkpointInterval must be >= 1");
    // Auto is an experiment-level concept (core/experiment); at this
    // layer default it to the general-purpose method.
    if (kind == SolverKind::Auto)
        kind = SolverKind::BiCgStab;
}

SolverResult
ResilientSolver::runSegment(std::span<const double> b,
                            std::span<double> x, int iters)
{
    SolverConfig seg = cfg;
    seg.maxIterations = iters;
    switch (kind) {
      case SolverKind::Auto: // mapped in the constructor
      case SolverKind::BiCgStab:
        return biCgStab(op, b, x, seg, &workspace);
      case SolverKind::Cg:
        return conjugateGradient(op, b, x, seg, &workspace);
      case SolverKind::Gmres:
        return gmres(op, b, x, seg,
                     std::min(gmresRestart, iters), &workspace);
    }
    fatal("ResilientSolver: unreachable solver kind");
}

SolverResult
ResilientSolver::solve(std::span<const double> b, std::span<double> x)
{
    if (b.size() != x.size() ||
        b.size() != static_cast<std::size_t>(op.rows()))
        fatal("ResilientSolver: dimension mismatch");

    telemetry::Span solveSpan("resilient.solve");
    SolverResult total;
    total.vectorLength = b.size();
    RecoveryStats &rec = total.recovery;

    std::vector<double> xGood(x.begin(), x.end());
    if (!allFinite(xGood))
        fatal("ResilientSolver: initial guess is not finite");

    std::vector<int> repairs(op.blockCount(), 0);
    const double inf = std::numeric_limits<double>::infinity();
    double bestRes = inf;  //!< best finite residual seen
    double prevRes = inf;  //!< previous segment's residual
    double lastRes = inf;  //!< last finite residual
    int stagnant = 0;
    int itersUsed = 0;
    RetryBudget budget(policy.maxRecoveries, policy.retrySeed,
                       policy.backoffBase, policy.backoffCap);
    bool degradedAll = false; //!< budget exhausted: all-exact rung
    bool interrupted = false; //!< cancel / deadline stop
    SolveStatus stopStatus = SolveStatus::Cancelled;
    SolveStatus lastSegStatus = SolveStatus::MaxIterations;

    // Reprogram-or-degrade every suspect block; returns true when
    // any maintenance action was taken.
    const auto repairSuspects =
        [&](const std::vector<std::size_t> &suspects) {
            bool acted = false;
            for (std::size_t k : suspects) {
                if (op.isDegraded(k))
                    continue;
                if (repairs[k] < policy.maxReprogramsPerBlock) {
                    ++repairs[k];
                    ++rec.reprograms;
                    ctrReprograms.add();
                    if (!op.reprogram(k)) {
                        ++rec.reprogramFailures;
                        ctrReprogramFailures.add();
                        op.degrade(k);
                        ++rec.fallbacks;
                        ctrFallbacks.add();
                    }
                } else {
                    // Healed twice and damaged again: stop trusting
                    // the hardware for this block.
                    op.degrade(k);
                    ++rec.fallbacks;
                    ctrFallbacks.add();
                }
                acted = true;
            }
            return acted;
        };

    // One rung of the ladder after a detection event. @p restore
    // rewinds the iterate to the last good checkpoint first.
    const auto escalate = [&](bool restore) {
        telemetry::Span span("resilient.escalate");
        if (restore) {
            std::copy(xGood.begin(), xGood.end(), x.begin());
            ++rec.checkpointRestarts;
            ctrRestarts.add();
        }
        ++rec.scrubs;
        ctrScrubs.add();
        repairSuspects(op.scrub());
        budget.tryAcquire();
        if (budget.exhausted()) {
            // Final rung: graceful degradation of everything still
            // mapped; the solve finishes on exact arithmetic.
            for (std::size_t k = 0; k < op.blockCount(); ++k) {
                if (!op.isDegraded(k)) {
                    op.degrade(k);
                    ++rec.fallbacks;
                    ctrFallbacks.add();
                }
            }
            degradedAll = true;
        }
        stagnant = 0;
        prevRes = inf;
    };

    while (itersUsed < cfg.maxIterations) {
        // Poll before each segment, not only inside it: a segment
        // that dies before the inner solver's first checkpoint (the
        // workspace grant can throw under memory pressure) would
        // otherwise spin the whole escalation ladder with an armed
        // cancel or expired deadline ignored.
        if (execShouldStop(cfg.exec)) {
            stopStatus = cfg.exec->stopStatus();
            interrupted = true;
            break;
        }
        const int segIters = std::min(policy.checkpointInterval,
                                      cfg.maxIterations - itersUsed);
        SolverResult seg;
        bool segFailed = false;
        try {
            telemetry::Span segSpan("resilient.segment");
            seg = runSegment(b, x, segIters);
        } catch (const CancelledError &e) {
            // The inner solvers translate cancellation themselves;
            // this only catches a stop that fired outside a solve
            // (e.g. inside scrub-driven operator work).
            stopStatus = e.status();
            interrupted = true;
            break;
        } catch (const std::bad_alloc &) {
            ++rec.allocFailures;
            segFailed = true;
        } catch (const PanicError &) {
            throw; // programming error: never absorb
        } catch (const FatalError &) {
            throw; // config/usage error: never absorb
        } catch (const std::exception &e) {
            // A worker task died (chaos injection, transient device
            // library failure). The pool already quiesced the job;
            // treat it like any other detection event.
            ++rec.workerFaults;
            warn("ResilientSolver: segment failed (", e.what(),
                 "); retrying");
            segFailed = true;
        }
        ++rec.segments;
        ctrSegments.add();
        if (segFailed) {
            // The segment died mid-flight: x may hold a partial
            // initial residual state, so rewind to the checkpoint
            // before burning a retry attempt on the ladder.
            itersUsed += 1;
            std::copy(xGood.begin(), xGood.end(), x.begin());
            ++rec.checkpointRestarts;
            ctrRestarts.add();
            if (degradedAll) {
                // Already on the all-exact rung and still failing:
                // retrying cannot help.
                break;
            }
            escalate(false);
            continue;
        }
        lastSegStatus = seg.status;
        // Breakdown segments can report zero iterations; always
        // charge at least one so the loop is bounded.
        itersUsed += std::max(1, seg.iterations);
        total.spmvCalls += seg.spmvCalls;
        total.dotCalls += seg.dotCalls;
        total.axpyCalls += seg.axpyCalls;
        total.precondApplies += seg.precondApplies;
        if (seg.status == SolveStatus::Cancelled ||
            seg.status == SolveStatus::DeadlineExceeded) {
            stopStatus = seg.status;
            interrupted = true;
            break;
        }

        const double res = seg.relResidual;
        if (!std::isfinite(res) || !allFinite(x)) {
            ++rec.nanEvents;
            ctrNan.add();
            escalate(true);
            continue;
        }
        lastRes = res;

        if (seg.converged) {
            // Trust but verify: a residual computed by damaged
            // hardware can look converged. Scrub once; only a clean
            // scan makes the result final.
            ++rec.scrubs;
            ctrScrubs.add();
            const auto suspects = op.scrub();
            if (suspects.empty()) {
                total.converged = true;
                break;
            }
            repairSuspects(suspects);
            continue;
        }

        if (res > policy.divergenceFactor * bestRes) {
            ++rec.divergenceEvents;
            ctrDivergence.add();
            escalate(true);
            continue;
        }
        if (res > policy.stagnationTol * prevRes) {
            if (++stagnant >= policy.stagnationSegments) {
                ++rec.stagnationEvents;
                ctrStagnation.add();
                // Keep the iterate unless it regressed past the
                // checkpoint.
                escalate(res > bestRes);
                continue;
            }
        } else {
            stagnant = 0;
        }
        if (res < bestRes) {
            bestRes = res;
            std::copy(x.begin(), x.end(), xGood.begin());
        }
        prevRes = res;

        // Background scrub: silent faults (a dead crossbar simply
        // omits its contribution) may never perturb the residual
        // stream; catch them on a fixed cadence.
        if (policy.scrubEverySegments > 0 &&
            rec.segments %
                    static_cast<std::uint64_t>(
                        policy.scrubEverySegments) ==
                0) {
            ++rec.scrubs;
            ctrScrubs.add();
            repairSuspects(op.scrub());
        }
    }

    if (!allFinite(x))
        std::copy(xGood.begin(), xGood.end(), x.begin());
    total.iterations = itersUsed;
    total.relResidual = std::isfinite(lastRes) ? lastRes : bestRes;
    if (!std::isfinite(total.relResidual))
        total.relResidual = 1.0; // never report NaN/Inf upward
    if (!total.converged && !interrupted)
        total.converged = total.relResidual <= cfg.tolerance;
    // Structured terminal status. A stop request wins; Degraded
    // outranks Converged so callers see the solve ran on degraded
    // hardware even when it still met the tolerance.
    if (interrupted) {
        total.status = stopStatus;
    } else if (degradedAll) {
        total.status = SolveStatus::Degraded;
    } else if (total.converged) {
        total.status = SolveStatus::Converged;
    } else if (lastSegStatus == SolveStatus::Breakdown) {
        total.status = SolveStatus::Breakdown;
    } else {
        total.status = SolveStatus::MaxIterations;
    }
    rec.retryAttempts =
        static_cast<std::uint64_t>(budget.attemptsUsed());
    rec.backoffNanos =
        static_cast<std::uint64_t>(budget.totalDelay().count());
    for (std::size_t k = 0; k < op.blockCount(); ++k)
        rec.degradedBlocks += op.isDegraded(k) ? 1 : 0;
    return total;
}

} // namespace msc
