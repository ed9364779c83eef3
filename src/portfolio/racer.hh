/**
 * @file
 * `PortfolioRacer`: fans K candidate compile strategies across the
 * thread pool, scores every finished candidate's schedule by
 * composite log-survival (src/noise/analysis), and returns the best
 * schedule together with a per-candidate `PortfolioReport`. Each
 * candidate compiles under its own `CancellationToken`, so a parent
 * cancellation / deadline aborts the whole race at pass
 * granularity, and straggler control can cut losers loose once the
 * default strategy has finished. Candidates share the base options'
 * compile cache: re-racing a request hits per-candidate.
 */

#ifndef DCMBQC_PORTFOLIO_RACER_HH
#define DCMBQC_PORTFOLIO_RACER_HH

#include <cstdint>

#include "api/driver.hh"
#include "portfolio/report.hh"
#include "portfolio/strategy.hh"

namespace dcmbqc
{

/** Tuning of one race. */
struct RaceConfig
{
    /** Strategies to race (clamped to >= 1). */
    int candidates = 2;

    /** Worker threads (0 = hardware concurrency). */
    int numThreads = 0;

    /**
     * Straggler control: once the default strategy (candidate 0)
     * has finished, losers still running get this many more
     * milliseconds before their tokens fire; 0 cancels them at
     * their next pass boundary. Negative (the default) waits for
     * every candidate — the fully deterministic mode. The default
     * strategy itself is never cut, so the "never worse than K=1"
     * guarantee survives straggler control.
     */
    std::int64_t graceMillis = -1;

    /**
     * Replay the winner on the schedule backend (64 shots) before
     * returning it. Non-Clifford or pattern-less programs skip
     * validation with a note; an execution *failure* fails the race
     * — the oracle caught an inconsistent schedule.
     */
    bool validateWinner = false;
};

/** Races K strategies and keeps the best schedule. */
class PortfolioRacer
{
  public:
    /** The race outcome: the winner's report + the race table. */
    struct Outcome
    {
        CompileReport report;
        PortfolioReport race;
    };

    PortfolioRacer(CompileOptions base, RaceConfig config);

    /**
     * Race the request across the strategy space. The returned
     * report is the winning candidate's compile report (its cache
     * key, stages, pattern — everything a K=1 compile would carry).
     * Fails only when every candidate fails (first candidate's
     * status, so a base-config error reads naturally) or when the
     * request/base options are invalid. A circuit-stream request is
     * rejected: the candidates would share its one cursor.
     *
     * Scoring model: the base options' noise config when it is
     * non-vacuous, else a built-in reference budget (delay-line
     * storage + 1.5 dB connectors) so a race without a user budget
     * still optimizes a physical objective. The model is fixed
     * across candidates — every strategy is scored against the same
     * error budget.
     */
    Expected<Outcome> race(const CompileRequest &request) const;

  private:
    CompileOptions base_;
    RaceConfig config_;
};

} // namespace dcmbqc

#endif // DCMBQC_PORTFOLIO_RACER_HH
