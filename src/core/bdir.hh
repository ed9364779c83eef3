/**
 * @file
 * Bottleneck-Driven Iterative Refinement (Algorithm 3): a simulated
 * annealing loop whose neighborhood generator precisely targets the
 * schedule's primary bottleneck:
 *   1. FINDBOTTLENECKTASK locates the task responsible for the
 *      current required photon lifetime;
 *   2. CALCULATEBALANCEPOINT finds the temporal equilibrium slot
 *      that balances the task's local cost sources;
 *   3. PINANDRESCHEDULE pins the task there and re-runs list
 *      scheduling with priorities equal to the current start times,
 *      preserving the schedule's relative ordering.
 *
 * Steps 1 and 2 read one evaluateSchedule sweep (core/lsp.hh), at
 * task granularity: its bottleneck is step 1, and its dependency-node
 * MTime values are the measuree anchors of step 2. The SA loop keeps
 * the current schedule's evaluation and cost between iterations, so
 * each move costs one evaluation, of the new schedule, plus one
 * list-scheduling run.
 */

#ifndef DCMBQC_CORE_BDIR_HH
#define DCMBQC_CORE_BDIR_HH

#include <cstdint>

#include "core/list_scheduler.hh"
#include "core/lsp.hh"

namespace dcmbqc
{

class NoiseModel;

/** SA parameters of Algorithm 3 (paper defaults in Section V-A). */
struct BdirConfig
{
    /** Initial temperature T0. */
    double initialTemperature = 10.0;

    /** Cooling rate alpha. */
    double coolingRate = 0.95;

    /** Maximum iterations Imax. */
    int maxIterations = 20;

    std::uint64_t seed = 17;
};

/** Diagnostics of one BDIR run. */
struct BdirStats
{
    int iterations = 0;
    int acceptedMoves = 0;
    int improvedMoves = 0;
    int initialLifetime = 0;
    int finalLifetime = 0;
};

/**
 * Run Algorithm 3 starting from `initial` (typically the default
 * list schedule).
 *
 * With a noise model, the SA objective becomes the negated schedule
 * log survival (`scheduleLogSurvival`) instead of tau_photon, so the
 * refinement trades storage and connector waits by their actual
 * composite loss instead of the worst single wait. Stats lifetimes
 * stay in tau_photon cycles either way. Without a model, behavior is
 * bit-identical to the noise-free algorithm.
 *
 * @param stats Optional out diagnostics.
 * @param noise Optional noise model driving the SA objective.
 * @return The best schedule found (never worse than `initial`).
 */
Schedule bdirOptimize(const LayerSchedulingProblem &lsp,
                      const Schedule &initial,
                      const BdirConfig &config = {},
                      BdirStats *stats = nullptr,
                      const NoiseModel *noise = nullptr);

/**
 * The neighborhood generator (exposed for tests): one
 * find-bottleneck / balance-point / pin-and-reschedule step.
 */
Schedule generateNeighbor(const LayerSchedulingProblem &lsp,
                          const Schedule &current);

/**
 * CALCULATEBALANCEPOINT (exposed for tests): the slot minimizing the
 * cost main task `task` would have at slot t with every other task
 * fixed, the maximum of
 *  - |t - a| over the start of each neighbor task and the slot of
 *    each of the task's sync tasks;
 *  - MTime(p) + 1 - t over each external predecessor p;
 *  - t - (start of s - 2) over each external successor task s;
 * all in physical cycles. The cost is piecewise-linear convex in t;
 * an integer ternary search over [0, makespan] finds the slot. Only
 * the lowest and highest anchors shape a maximum, so duplicate
 * anchors do not change the result.
 *
 * @param evaluation evaluateSchedule's output for `schedule`.
 */
TimeSlot balancePointForMain(const LayerSchedulingProblem &lsp,
                             const Schedule &schedule,
                             const ScheduleEvaluation &evaluation,
                             int task);

} // namespace dcmbqc

#endif // DCMBQC_CORE_BDIR_HH
