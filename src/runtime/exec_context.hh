/**
 * @file
 * Execution-control layer: deadlines, cooperative cancellation, and
 * retry budgets for every long-running path in the stack.
 *
 * The library is growing into a long-running multi-tenant solver
 * service (ROADMAP item 1). A service cannot admit iterative-solver
 * workloads -- which dominate end-to-end runtime on ReRAM
 * accelerators -- without being able to bound or abort a solve: a
 * pathological matrix, a fault-escalation loop, or a hung shard must
 * not run forever and take the process with it.
 *
 * An ExecContext carries three independent controls:
 *
 *  - a monotonic deadline (std::chrono::steady_clock), checked
 *    cooperatively once per solver iteration and once per block
 *    batch on the accelerator paths;
 *  - a CancelToken, a shared flag any thread may fire to abort the
 *    work promptly (bounded by one iteration / one block batch);
 *  - a RetryBudget, a bounded attempt counter with exponential
 *    backoff and seeded jitter, consumed by recovery ladders
 *    (solver/resilient.hh) so transient failures are retried a
 *    bounded number of times instead of looping forever.
 *
 * Cost model: with no deadline and no cancellation armed, a
 * shouldStop() poll is one relaxed atomic load -- cheap enough for
 * per-iteration checks -- and results are byte-identical to an
 * uncontrolled run because the context only ever stops work early,
 * never reorders it. The clock is read only when a deadline is set.
 *
 * Cancellation is delivered as a CancelledError exception carrying
 * the structured terminal status (Cancelled vs DeadlineExceeded);
 * the solvers catch it at the iteration boundary and return a
 * SolverResult with that status and the last completed iterate, so
 * no partial garbage ever propagates into the caller's x.
 */

#ifndef MSC_RUNTIME_EXEC_CONTEXT_HH
#define MSC_RUNTIME_EXEC_CONTEXT_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>

namespace msc {

/**
 * Structured terminal status of a solve (SolverResult::status).
 * Replaces the warn-and-continue convention: callers (and the
 * future service scheduler) can branch on *why* a solve ended
 * without parsing log output.
 */
enum class SolveStatus
{
    Converged,        //!< residual target met (and verified, when
                      //!< run under ResilientSolver)
    MaxIterations,    //!< iteration budget exhausted
    Breakdown,        //!< Krylov breakdown (zero/non-finite pivot)
    Cancelled,        //!< CancelToken fired mid-solve
    DeadlineExceeded, //!< ExecContext deadline passed mid-solve
    Degraded,         //!< retry budget exhausted: the resilient
                      //!< runtime degraded all hardware to the exact
                      //!< path (the solve may still have converged)
    Overloaded,       //!< service admission rejected the request
                      //!< (queue full or tenant out of tickets);
                      //!< the solve never started
    Failed,           //!< unrecoverable execution failure surfaced
                      //!< as a structured terminal status (service
                      //!< runtime; never thrown past the API)
    Preempted,        //!< cooperative yield at an iteration
                      //!< boundary: the solve parked its resumable
                      //!< state and stepped aside (service-internal;
                      //!< the service resumes it, callers never see
                      //!< it as a terminal status)
};

/** Stable lowercase name (logs, JSON reports, tests). */
const char *toString(SolveStatus status);

/**
 * Shared cancellation flag. Copies observe the same flag, so a
 * controller thread can hold one copy and fire it while the solve
 * thread polls another. cancel() is idempotent and thread-safe.
 */
class CancelToken
{
  public:
    CancelToken() : flag(std::make_shared<std::atomic<bool>>(false))
    {}

    void
    cancel()
    {
        flag->store(true, std::memory_order_release);
    }

    bool
    cancelled() const
    {
        return flag->load(std::memory_order_acquire);
    }

  private:
    std::shared_ptr<std::atomic<bool>> flag;
};

/**
 * Thrown by ExecContext::checkpoint() (and by the thread pool's
 * chunk-boundary polls) when the context wants the work stopped.
 * Solvers translate it into SolverResult::status; it never escapes
 * a solve() call.
 */
class CancelledError : public std::runtime_error
{
  public:
    explicit CancelledError(SolveStatus s)
        : std::runtime_error(s == SolveStatus::DeadlineExceeded
                                 ? "execution deadline exceeded"
                                 : "execution cancelled"),
          st(s)
    {}

    SolveStatus status() const { return st; }

  private:
    SolveStatus st;
};

/**
 * Bounded retry/backoff budget with seeded jitter.
 *
 * Recovery ladders consume one attempt per escalation; when the
 * budget is exhausted the caller must stop retrying and degrade.
 * nextDelay() returns the exponential backoff for the attempt just
 * consumed -- base * 2^attempt, capped, plus up to 25% seeded
 * jitter -- as a duration. The simulator never sleeps on it by
 * default (a solve is compute-bound); the delay is recorded so a
 * service scheduler can honor it, and the jitter stream derives
 * purely from the seed, so two identical configs produce identical
 * schedules.
 */
class RetryBudget
{
  public:
    explicit RetryBudget(
        int maxAttemptsIn = 10, std::uint64_t seedIn = 1,
        std::chrono::nanoseconds baseIn = std::chrono::microseconds(
            100),
        std::chrono::nanoseconds capIn = std::chrono::milliseconds(
            100))
        : maxAttempts(maxAttemptsIn < 0 ? 0 : maxAttemptsIn),
          base(baseIn), cap(capIn), jitterState(seedIn)
    {}

    bool exhausted() const { return used >= maxAttempts; }
    int attemptsUsed() const { return used; }
    int attemptsLeft() const { return maxAttempts - used; }

    /**
     * Consume one attempt. Returns false (and consumes nothing)
     * when the budget is already exhausted; otherwise records the
     * attempt and computes its backoff delay (lastDelay()).
     */
    bool tryAcquire();

    /** Backoff computed for the most recent successful tryAcquire(). */
    std::chrono::nanoseconds lastDelay() const { return last; }

    /** Sum of every backoff delay handed out so far. */
    std::chrono::nanoseconds totalDelay() const { return total; }

  private:
    int maxAttempts;
    int used = 0;
    std::chrono::nanoseconds base;
    std::chrono::nanoseconds cap;
    std::chrono::nanoseconds last{0};
    std::chrono::nanoseconds total{0};
    std::uint64_t jitterState; //!< splitmix64 walk, seed-determined
};

/**
 * The per-solve execution context. Not copyable (worker threads and
 * the solve thread poll the same object); pass by pointer via
 * SolverConfig::exec or the operators' setExecContext().
 *
 * A default-constructed context never stops anything and costs one
 * relaxed load per poll. Arm a deadline with setDeadline()/
 * withDeadline(), cancellation through token(), and deterministic
 * forced cancellation (the chaos harness's mid-solve cancel
 * injection) with cancelAfterChecks().
 */
class ExecContext
{
  public:
    using Clock = std::chrono::steady_clock;

    ExecContext() = default;
    ExecContext(const ExecContext &) = delete;
    ExecContext &operator=(const ExecContext &) = delete;

    /** Context that expires @p budget from now. */
    static ExecContext
    withDeadline(std::chrono::nanoseconds budget)
    {
        ExecContext ctx;
        ctx.setDeadline(Clock::now() + budget);
        return ctx;
    }

    ExecContext(ExecContext &&other) noexcept { moveFrom(other); }

    ExecContext &
    operator=(ExecContext &&other) noexcept
    {
        if (this != &other)
            moveFrom(other);
        return *this;
    }

    /** Arm (or move) the absolute monotonic deadline. */
    void
    setDeadline(Clock::time_point when)
    {
        deadlinePoint = when;
        hasDeadlineFlag = true;
    }

    bool hasDeadline() const { return hasDeadlineFlag; }
    Clock::time_point deadline() const { return deadlinePoint; }

    /** The shared cancellation flag (copy it to other threads). */
    CancelToken &token() { return tok; }
    const CancelToken &token() const { return tok; }

    /**
     * Chaos/testing surface: fire the cancel token on the @p n-th
     * future shouldStop() poll (n >= 1), deterministically. 0
     * disarms. Counted across all polling threads.
     */
    void
    cancelAfterChecks(std::uint64_t n)
    {
        checksUntilCancel.store(static_cast<std::int64_t>(n),
                                std::memory_order_relaxed);
    }

    bool cancelled() const { return tok.cancelled(); }

    /**
     * Cooperative preemption surface. A yield request asks the
     * running solve to stop at its next iteration boundary, keep its
     * resumable state, and return SolveStatus::Preempted -- unlike
     * cancellation it never discards work and the resumed
     * recurrence is bitwise identical to an uninterrupted run. Only
     * a solo CG solve (runCg() over one CgState, solver/solver.hh)
     * acts on it; the other solvers and coalesced CG panels ignore
     * the flag. The dispatcher clears the flag (clearYield) before
     * each dispatch of the request.
     */
    void
    requestYield()
    {
        yieldFlag.store(true, std::memory_order_release);
    }

    bool
    yieldRequested() const
    {
        return yieldFlag.load(std::memory_order_acquire);
    }

    void
    clearYield()
    {
        yieldFlag.store(false, std::memory_order_release);
    }

    /**
     * Chaos/testing surface: request a yield on the @p n-th future
     * shouldStop() poll (n >= 1), deterministically -- the yield
     * analogue of cancelAfterChecks(). 0 disarms.
     */
    void
    yieldAfterChecks(std::uint64_t n)
    {
        checksUntilYield.store(static_cast<std::int64_t>(n),
                               std::memory_order_relaxed);
    }

    bool
    expired() const
    {
        return hasDeadlineFlag && Clock::now() >= deadlinePoint;
    }

    /**
     * Cooperative poll: true when the work should stop. One relaxed
     * load when nothing is armed; reads the clock only under an
     * armed deadline.
     */
    bool
    shouldStop() const
    {
        // Forced-cancellation countdown (chaos campaigns): fire the
        // token when the armed poll count is consumed.
        if (checksUntilCancel.load(std::memory_order_relaxed) > 0 &&
            checksUntilCancel.fetch_sub(
                1, std::memory_order_relaxed) == 1) {
            tok.cancel();
        }
        // Forced-yield countdown: same mechanism, but a yield never
        // stops the work here -- the solver acts on the flag at its
        // next checkpoint boundary.
        if (checksUntilYield.load(std::memory_order_relaxed) > 0 &&
            checksUntilYield.fetch_sub(
                1, std::memory_order_relaxed) == 1) {
            yieldFlag.store(true, std::memory_order_release);
        }
        if (tok.cancelled())
            return true;
        return expired();
    }

    /** Explicit cancellation wins over deadline expiry. */
    SolveStatus
    stopStatus() const
    {
        return tok.cancelled() ? SolveStatus::Cancelled
                               : SolveStatus::DeadlineExceeded;
    }

    /** Poll and throw CancelledError when the work should stop. */
    void
    checkpoint() const
    {
        if (shouldStop())
            throw CancelledError(stopStatus());
    }

  private:
    void
    moveFrom(ExecContext &other)
    {
        tok = other.tok;
        hasDeadlineFlag = other.hasDeadlineFlag;
        deadlinePoint = other.deadlinePoint;
        checksUntilCancel.store(other.checksUntilCancel.load(
                                    std::memory_order_relaxed),
                                std::memory_order_relaxed);
        yieldFlag.store(
            other.yieldFlag.load(std::memory_order_relaxed),
            std::memory_order_relaxed);
        checksUntilYield.store(other.checksUntilYield.load(
                                   std::memory_order_relaxed),
                               std::memory_order_relaxed);
    }

    mutable CancelToken tok;
    bool hasDeadlineFlag = false;
    Clock::time_point deadlinePoint{};
    /** > 0: polls remaining until a forced cancel; <= 0 disarmed. */
    mutable std::atomic<std::int64_t> checksUntilCancel{0};
    /** Cooperative-preemption request (see requestYield). */
    mutable std::atomic<bool> yieldFlag{false};
    /** > 0: polls remaining until a forced yield; <= 0 disarmed. */
    mutable std::atomic<std::int64_t> checksUntilYield{0};
};

/** Null-safe poll helper for optional contexts. */
inline bool
execShouldStop(const ExecContext *ctx)
{
    return ctx != nullptr && ctx->shouldStop();
}

/** Null-safe checkpoint helper for optional contexts. */
inline void
execCheckpoint(const ExecContext *ctx)
{
    if (ctx != nullptr)
        ctx->checkpoint();
}

} // namespace msc

#endif // MSC_RUNTIME_EXEC_CONTEXT_HH
