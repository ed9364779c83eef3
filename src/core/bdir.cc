#include "core/bdir.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/rng.hh"
#include "noise/analysis.hh"

namespace dcmbqc
{

namespace
{

/** One find-bottleneck / balance-point / pin-and-reschedule step. */
Schedule
neighborOf(const LayerSchedulingProblem &lsp, const Schedule &current,
           const ScheduleEvaluation &evaluation)
{
    const ScheduleBottleneck &bottleneck = evaluation.bottleneck;

    TaskPin pin;
    if (bottleneck.kind == ScheduleBottleneck::Kind::Remote) {
        const auto &sync = lsp.syncTasks()[bottleneck.syncTask];
        pin.isMain = false;
        pin.task = bottleneck.syncTask;
        // Equilibrium between the two associated execution layers.
        pin.slot = (current.mainStart[sync.taskA] +
                    current.mainStart[sync.taskB]) / 2;
    } else {
        pin.isMain = true;
        pin.task = bottleneck.mainTask;
        pin.slot =
            balancePointForMain(lsp, current, evaluation, pin.task);
    }
    if (pin.slot < 0)
        pin.slot = 0;

    // PINANDRESCHEDULE: priorities = current start times.
    std::vector<double> main_priority(current.mainStart.begin(),
                                      current.mainStart.end());
    std::vector<double> sync_priority(current.syncStart.begin(),
                                      current.syncStart.end());
    return listSchedule(lsp, main_priority, sync_priority, pin);
}

} // namespace

TimeSlot
balancePointForMain(const LayerSchedulingProblem &lsp,
                    const Schedule &schedule,
                    const ScheduleEvaluation &evaluation, int task)
{
    // Every term is |t - a|, a - t (wants t late) or t - a (wants t
    // early), and the cost is their maximum, so only the lowest
    // anchor of the early-pressure terms and the highest of the
    // late-pressure ones matter.
    const int pl = lsp.plRatio();
    bool has_early = false;
    bool has_late = false;
    long long early = 0;
    long long late = 0;
    const auto wantEarly = [&](long long a) {
        early = has_early ? std::min(early, a) : a;
        has_early = true;
    };
    const auto wantLate = [&](long long a) {
        late = has_late ? std::max(late, a) : a;
        has_late = true;
    };
    const auto anchor = [&](long long a) {
        wantEarly(a);
        wantLate(a);
    };

    for (int other : lsp.neighborTasks(task))
        anchor(static_cast<long long>(schedule.mainStart[other]) * pl);
    for (int k : lsp.syncsOfTask(task))
        anchor(static_cast<long long>(schedule.syncStart[k]) * pl);
    // MTime of the *current* schedule for measuree terms.
    for (int p : lsp.externalPredecessors(task))
        wantLate(evaluation.depMtime[p] + 1LL);
    for (int other : lsp.successorTasks(task))
        wantEarly(static_cast<long long>(schedule.mainStart[other]) * pl -
                  2);

    const auto cost = [&](TimeSlot t) {
        long long c = 0;
        if (has_early)
            c = std::max(c, t - early);
        if (has_late)
            c = std::max(c, late - t);
        return c;
    };

    // Search in physical cycles, return a scheduling slot.
    TimeSlot lo = 0;
    TimeSlot hi = std::max<TimeSlot>(schedule.makespan * pl, 1);
    while (hi - lo > 2) {
        const TimeSlot m1 = lo + (hi - lo) / 3;
        const TimeSlot m2 = hi - (hi - lo) / 3;
        if (cost(m1) <= cost(m2))
            hi = m2;
        else
            lo = m1;
    }
    TimeSlot best_t = lo;
    for (TimeSlot t = lo; t <= hi; ++t)
        if (cost(t) < cost(best_t))
            best_t = t;
    return best_t / pl;
}

Schedule
generateNeighbor(const LayerSchedulingProblem &lsp,
                 const Schedule &current)
{
    ScheduleEvaluation evaluation;
    evaluateSchedule(lsp, current, evaluation);
    return neighborOf(lsp, current, evaluation);
}

Schedule
bdirOptimize(const LayerSchedulingProblem &lsp, const Schedule &initial,
             const BdirConfig &config, BdirStats *stats,
             const NoiseModel *noise)
{
    Rng rng(config.seed);

    // SA cost: tau_photon when noise-blind (the paper's objective);
    // negated composite log survival when a noise model is given, so
    // "lower is better" holds for both.
    const auto costOf = [&](const Schedule &schedule,
                            const ScheduleEvaluation &evaluation) {
        if (noise)
            return -scheduleLogSurvival(lsp, schedule, evaluation,
                                        *noise);
        return static_cast<double>(evaluation.metrics.tauPhoton());
    };

    // The current schedule's evaluation and cost carry over between
    // iterations, so each move scores only its new schedule.
    Schedule current = initial;
    ScheduleEvaluation current_eval;
    evaluateSchedule(lsp, current, current_eval);
    double c_current = costOf(current, current_eval);
    const int initial_lifetime = current_eval.metrics.tauPhoton();

    Schedule best = initial;
    double c_best = c_current;
    int best_lifetime = initial_lifetime;
    double temperature = config.initialTemperature;

    ScheduleEvaluation next_eval;
    int accepted = 0;
    int improved = 0;
    for (int iter = 0; iter < config.maxIterations; ++iter) {
        Schedule next = neighborOf(lsp, current, current_eval);
        evaluateSchedule(lsp, next, next_eval);
        const double c_new = costOf(next, next_eval);
        const double delta = c_new - c_current;

        if (delta <= 0.0 ||
            rng.uniform() < std::exp(-delta / temperature)) {
            current = std::move(next);
            std::swap(current_eval, next_eval);
            c_current = c_new;
            ++accepted;
        }
        if (c_current < c_best) {
            c_best = c_current;
            best = current;
            best_lifetime = current_eval.metrics.tauPhoton();
            ++improved;
        }
        temperature *= config.coolingRate;
    }

    if (stats) {
        stats->iterations = config.maxIterations;
        stats->acceptedMoves = accepted;
        stats->improvedMoves = improved;
        stats->initialLifetime = initial_lifetime;
        stats->finalLifetime = best_lifetime;
    }
    return best;
}

} // namespace dcmbqc
