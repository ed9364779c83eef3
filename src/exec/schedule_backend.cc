#include "exec/schedule_backend.hh"

#include <algorithm>
#include <queue>
#include <utility>

#include "exec/loss_backend.hh"
#include "exec/noise_channel.hh"
#include "exec/stabilizer_backend.hh"
#include "mbqc/dependency.hh"
#include "noise/analysis.hh"

namespace dcmbqc
{

Expected<std::vector<NodeId>>
scheduleMeasurementOrder(const Pattern &pattern,
                         const std::vector<TimeSlot> &times,
                         std::vector<TimeSlot> *wait)
{
    const NodeId n = pattern.numNodes();
    // The stabilizer replay applies sz offsets at measurement time
    // rather than signal-shifting them away, so a valid order must
    // respect the *full* correction structure — X and Z arcs both —
    // not just the shifted real-time graph (which is empty for the
    // Clifford patterns this backend accepts).
    const DependencyGraphs deps = buildDependencyGraphs(pattern);

    std::vector<int> indeg(n, 0);
    for (NodeId p = 0; p < n; ++p) {
        for (const NodeId v : deps.xDeps.successors(p))
            ++indeg[v];
        for (const NodeId v : deps.zDeps.successors(p))
            ++indeg[v];
    }

    // Min-heap on (generation time, node id): the earliest generated
    // correction-ready photon measures next; the id tie-break keeps
    // the interleaving deterministic across platforms.
    using Ready = std::pair<TimeSlot, NodeId>;
    std::priority_queue<Ready, std::vector<Ready>,
                        std::greater<Ready>>
        ready;
    NodeId measured_total = 0;
    for (NodeId u = 0; u < n; ++u) {
        if (pattern.isOutput(u))
            continue;
        ++measured_total;
        if (indeg[u] == 0)
            ready.emplace(times[u], u);
    }

    if (wait)
        wait->assign(n, 0);
    // measure[v]: the cycle v's measurement actually happens, i.e.
    // generation delayed until every correction source has fired.
    std::vector<TimeSlot> measure(n, 0);
    std::vector<NodeId> order;
    order.reserve(measured_total);
    while (!ready.empty()) {
        const NodeId m = ready.top().second;
        ready.pop();
        measure[m] = std::max(measure[m], times[m]);
        if (wait)
            (*wait)[m] = measure[m] - times[m];
        order.push_back(m);
        for (const Digraph *g : {&deps.xDeps, &deps.zDeps}) {
            for (const NodeId v : g->successors(m)) {
                measure[v] = std::max(measure[v], measure[m]);
                if (--indeg[v] == 0)
                    ready.emplace(times[v], v);
            }
        }
    }
    if (static_cast<NodeId>(order.size()) != measured_total)
        return Status::internal(
            "correction-dependency cycle: only " +
            std::to_string(order.size()) + " of " +
            std::to_string(measured_total) +
            " measurements orderable — the pattern flow is corrupt");
    return order;
}

BackendCapabilities
ScheduleBackend::capabilities() const
{
    BackendCapabilities caps;
    caps.runsPattern = true;
    caps.runsSchedule = true;
    caps.cliffordOnly = true;
    caps.exactProbabilities = true;
    return caps;
}

Expected<ExecResult>
ScheduleBackend::run(const ExecProgram &program,
                     const ExecOptions &options) const
{
    // The dispatcher admits schedule-capable backends for baseline
    // programs too (mc-loss accepts either form); this backend
    // replays the *distributed* timeline and has nothing to
    // interleave for a monolithic baseline.
    if (!program.hasSchedule())
        return Status::failedPrecondition(
            "schedule backend executes compiled distributed "
            "schedules; this program carries " +
            std::string(program.hasBaseline()
                            ? "only a single-QPU baseline"
                            : "no schedule") +
            " — compile distributed first (dcmbqc compile --qpus K) "
            "or pick a pattern-level backend");

    const Pattern &pattern = program.pattern();
    const NodeId n = pattern.numNodes();
    if (program.graph().numNodes() != n)
        return Status::invalidArgument(
            "pattern has " + std::to_string(n) +
            " nodes but the program graph has " +
            std::to_string(program.graph().numNodes()));

    auto base_turns = cliffordQuarterTurns(pattern, "schedule");
    if (!base_turns.ok())
        return base_turns.status();

    // Per-photon generation cycles from the per-QPU timelines; any
    // payload inconsistency (partition/layer/task-count mismatch)
    // is a scheduler or artifact bug and comes back as Status.
    auto times = schedulePhotonTimes(program.schedule(), n);
    if (!times.ok())
        return times.status();
    std::vector<TimeSlot> wait;
    auto order = scheduleMeasurementOrder(pattern, *times, &wait);
    if (!order.ok())
        return order.status();

    ExecResult result;
    result.numWires = pattern.numWires();
    result.threads = resolveThreads(options.numThreads, options.shots);
    TimeSlot max_wait = 0;
    double total_wait = 0.0;
    for (const NodeId m : *order) {
        max_wait = std::max(max_wait, wait[m]);
        total_wait += static_cast<double>(wait[m]);
    }
    result.maxStorageCycles = static_cast<int>(max_wait);
    result.meanStorageCycles = order->empty()
        ? 0.0
        : total_wait / static_cast<double>(order->size());

    // Noise is charged against the *schedule's* exposure (delay-line
    // storage from the generation times, connector loss on cut
    // edges), not the schedule-free pattern exposure the simulator
    // backends use — so the survival statistics line up with the
    // mc-loss backend and the analytic model on the same schedule.
    const auto channel = NoiseChannel::make(options, [&] {
        return buildExposure(program.graph(), program.deps(), *times,
                             &program.schedule().partition.assignment());
    });
    if (!channel.ok())
        return channel.status();
    if (channel->active())
        result.analyticSuccessProbability =
            channel->analysis().successProbability;

    // The schedule-order replay shares its shot loop with the
    // stabilizer backend (identical correction bookkeeping; only the
    // *order* differs — exactly the degree of freedom the scheduler
    // exercises, and what the differential harness cross-checks).
    const Status status = sampleCliffordShots(
        pattern, *order, *base_turns, options, *channel, result);
    if (!status.ok())
        return status;
    result.notes.push_back(
        "replayed compiled schedule: " +
        std::to_string(order->size()) +
        " measurements interleaved across " +
        std::to_string(program.schedule().localSchedules.size()) +
        " QPUs (makespan " +
        std::to_string(program.schedule().schedule.makespan) +
        " slots, max delay-line wait " +
        std::to_string(result.maxStorageCycles) + " cycles)");
    if (channel->active())
        result.notes.push_back(
            "schedule-exposure noise applied per shot (" +
            channel->description() +
            "); exact probabilities omitted under noise");
    return result;
}

} // namespace dcmbqc
