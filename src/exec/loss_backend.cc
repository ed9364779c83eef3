#include "exec/loss_backend.hh"

#include "common/rng.hh"
#include "exec/noise_channel.hh"
#include "noise/analysis.hh"

namespace dcmbqc
{

Expected<std::vector<TimeSlot>>
schedulePhotonTimes(const DcMbqcResult &result, NodeId num_nodes)
{
    const auto &assignment = result.partition.assignment();
    if (static_cast<NodeId>(assignment.size()) != num_nodes)
        return Status::invalidArgument(
            "schedule partition covers " +
            std::to_string(assignment.size()) + " photons, program " +
            "has " + std::to_string(num_nodes));
    const int parts = result.partition.numParts();
    if (static_cast<int>(result.localSchedules.size()) != parts)
        return Status::invalidArgument(
            "schedule has " +
            std::to_string(result.localSchedules.size()) +
            " local schedules for " + std::to_string(parts) +
            " parts");

    // Main tasks are enumerated QPU-major, layer-minor — the same
    // order the LSP builder assigns task ids in, which is what
    // Schedule::mainStart is indexed by.
    const auto members = result.partition.partMembers();
    std::size_t total_layers = 0;
    for (const auto &local : result.localSchedules)
        total_layers += local.layers.size();
    if (result.schedule.mainStart.size() != total_layers)
        return Status::invalidArgument(
            "schedule holds " +
            std::to_string(result.schedule.mainStart.size()) +
            " main-task starts for " + std::to_string(total_layers) +
            " execution layers");

    std::vector<TimeSlot> times(num_nodes, 0);
    std::size_t task_base = 0;
    for (int qpu = 0; qpu < parts; ++qpu) {
        const auto &local = result.localSchedules[qpu];
        if (members[qpu].size() != local.nodeLayer.size())
            return Status::invalidArgument(
                "QPU " + std::to_string(qpu) + " hosts " +
                std::to_string(members[qpu].size()) +
                " photons but its local schedule maps " +
                std::to_string(local.nodeLayer.size()));
        for (std::size_t i = 0; i < members[qpu].size(); ++i) {
            const LayerId layer = local.nodeLayer[i];
            if (layer < 0 ||
                layer >= static_cast<LayerId>(local.layers.size()))
                return Status::invalidArgument(
                    "QPU " + std::to_string(qpu) + " photon " +
                    std::to_string(i) + " sits on layer " +
                    std::to_string(layer) + " of " +
                    std::to_string(local.layers.size()));
            times[members[qpu][i]] =
                result.schedule.mainStart[task_base + layer] *
                local.grid.plRatio;
        }
        task_base += local.layers.size();
    }
    return times;
}

BackendCapabilities
MonteCarloLossBackend::capabilities() const
{
    BackendCapabilities caps;
    caps.runsSchedule = true;
    return caps;
}

namespace
{

/** The default path's one-mechanism model: `model`'s delay line. */
NoiseConfig
delayLineConfig(const LossModel &model)
{
    NoiseConfig config;
    config.add("delay-line",
               {{"attenuation_db_per_km", model.attenuationDbPerKm},
                {"cycle_period_ns", model.cyclePeriodNs},
                {"speed_fraction", model.speedFraction}});
    return config;
}

} // namespace

Expected<ExecResult>
MonteCarloLossBackend::run(const ExecProgram &program,
                           const ExecOptions &options) const
{
    const NodeId n = program.graph().numNodes();

    // Derive per-photon generation times and the QPU assignment from
    // whichever compiled form the program carries. A baseline is a
    // single QPU: no assignment, every fusion intra.
    std::vector<TimeSlot> times;
    const std::vector<int> *assignment = nullptr;
    if (program.hasSchedule()) {
        auto scheduled = schedulePhotonTimes(program.schedule(), n);
        if (!scheduled.ok())
            return scheduled.status();
        times = std::move(scheduled.value());
        assignment = &program.schedule().partition.assignment();
    } else if (program.hasBaseline()) {
        const LocalSchedule &local = program.baseline().schedule;
        times.resize(n);
        for (NodeId u = 0; u < n; ++u)
            times[u] = local.nodePhysicalTime(u);
    } else {
        return Status::failedPrecondition(
            "mc-loss requires a compiled schedule or a baseline");
    }

    // A noise config charges every configured mechanism: cut edges
    // add connector insertion loss and tau_remote storage to both
    // endpoints, plus per-fusion failure. Without one, the delay
    // line of `options.lossModel` charges intra-QPU storage only
    // (connector storage is tau_remote, bounded by the scheduler).
    // The channel is built directly, so a zero-attenuation delay
    // line still reports its storage and a success probability of 1.
    auto configured = configuredNoiseModel(options);
    if (!configured.ok())
        return configured.status();
    const bool has_config = configured->has_value();
    auto model = has_config
        ? Expected<NoiseModel>(std::move(**configured))
        : buildNoiseModel(delayLineConfig(options.lossModel));
    if (!model.ok())
        return model.status();
    const NoiseChannel channel(
        std::move(model.value()),
        buildExposure(program.graph(), program.deps(), times,
                      assignment));

    ExecResult result;
    result.threads = resolveThreads(options.numThreads, options.shots);
    const NoiseAnalysis &analysis = channel.analysis();
    result.analyticSuccessProbability = analysis.successProbability;
    result.maxStorageCycles = analysis.maxStorageCycles;
    result.meanStorageCycles = analysis.meanStorageCycles;
    if (has_config)
        result.notes.push_back("noise model: " +
                               channel.description());

    std::vector<std::int32_t> lost(options.shots, 0);
    forEachShot(options.shots, result.threads, [&](int shot) {
        Rng rng(shotSeed(options.seed, shot));
        lost[shot] = channel.sampleLoss(rng);
    });
    for (const std::int32_t lost_here : lost) {
        if (lost_here > 0) {
            ++result.lostShots;
            result.lostPhotons += lost_here;
        }
    }
    result.completedShots = options.shots - result.lostShots;
    result.counts["success"] = result.completedShots;
    result.counts["loss"] = result.lostShots;
    result.probabilities["success"] = analysis.successProbability;
    result.probabilities["loss"] = 1.0 - analysis.successProbability;
    return result;
}

} // namespace dcmbqc
