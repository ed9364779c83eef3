#include "exec/stabilizer_backend.hh"

#include <cmath>

#include "common/rng.hh"
#include "exec/stabilizer_replay.hh"
#include "sim/kernel_config.hh"
#include "sim/stabilizer.hh"
#include "sim/stabilizer_reference.hh"

namespace dcmbqc
{

namespace
{

constexpr double pi = 3.14159265358979323846;

/** Angle tolerance for the Clifford (multiple of pi/2) test. */
constexpr double kAngleEpsilon = 1e-9;

/** One sampled shot: the output bits plus their exact probability. */
struct CliffordShot
{
    std::string bits;

    /** Non-deterministic output measurements in this shot. */
    int randomOutputs = 0;

    /** Photons lost to the noise channel (> 0 voids the shot). */
    int lostPhotons = 0;
};

} // namespace

Expected<std::vector<int>>
cliffordQuarterTurns(const Pattern &pattern, const char *backend)
{
    std::vector<int> turns(pattern.numNodes(), 0);
    for (NodeId u = 0; u < pattern.numNodes(); ++u) {
        if (pattern.isOutput(u))
            continue;
        const double quarters = pattern.angle(u) / (pi / 2.0);
        const long long k = std::llround(quarters);
        if (std::fabs(quarters - static_cast<double>(k)) >
            kAngleEpsilon)
            return Status::failedPrecondition(
                std::string(backend) +
                " backend requires a Clifford pattern: node " +
                std::to_string(u) + " measures at angle " +
                std::to_string(pattern.angle(u)) +
                ", not a multiple of pi/2");
        turns[u] = static_cast<int>(((k % 4) + 4) % 4);
    }
    return turns;
}

Status
sampleCliffordShots(const Pattern &pattern,
                    const std::vector<NodeId> &order,
                    const std::vector<int> &base_turns,
                    const ExecOptions &options,
                    const NoiseChannel &channel, ExecResult &result)
{
    std::vector<CliffordShot> shots(options.shots);
    const auto post = [&](int shot, StabReplayResult r) {
        shots[shot].bits = std::move(r.bits);
        shots[shot].randomOutputs = r.randomOutputs;
        if (channel.active()) {
            Rng noise_rng(noiseShotSeed(options.seed, shot));
            shots[shot].lostPhotons =
                channel.sampleShot(noise_rng, shots[shot].bits);
        }
    };
    if (simKernelConfig().packedTableau)
        sampleStabShots<StabilizerSim>(
            pattern, order, base_turns, options.applyByproducts,
            options.shots, result.threads, options.seed,
            simKernelConfig().shotTree, post);
    else
        sampleStabShots<ScalarStabilizerSim>(
            pattern, order, base_turns, options.applyByproducts,
            options.shots, result.threads, options.seed,
            simKernelConfig().shotTree, post);

    // Outcome flips decouple the sampled bitstring from its
    // chain-rule probability, so the exact map is skipped under a
    // channel.
    const bool exact = options.applyByproducts && !channel.active();
    for (CliffordShot &shot : shots) {
        if (shot.lostPhotons > 0) {
            ++result.lostShots;
            result.lostPhotons += shot.lostPhotons;
            continue;
        }
        // Chain rule over the sequential output measurements: each
        // deterministic one contributes 1, each random one 1/2.
        const double p = std::ldexp(1.0, -shot.randomOutputs);
        if (exact) {
            // The corrected distribution is outcome- and
            // order-independent, so equal bitstrings must agree on
            // their probability; a mismatch means the flow
            // corrections or the replay order are wrong.
            const auto it = result.probabilities.find(shot.bits);
            if (it != result.probabilities.end() &&
                std::fabs(it->second - p) > 1e-12)
                return Status::internal(
                    "inconsistent exact probabilities for outcome " +
                    shot.bits + ": " + std::to_string(it->second) +
                    " vs " + std::to_string(p));
            result.probabilities[shot.bits] = p;
        }
        ++result.counts[std::move(shot.bits)];
    }
    result.completedShots = options.shots - result.lostShots;
    if (!options.applyByproducts)
        result.notes.push_back(
            "exact probabilities unavailable: byproducts left "
            "uncorrected, per-shot probabilities are conditional on "
            "the intermediate outcomes");
    return Status::okStatus();
}

BackendCapabilities
StabilizerBackend::capabilities() const
{
    BackendCapabilities caps;
    caps.runsPattern = true;
    caps.cliffordOnly = true;
    caps.exactProbabilities = true;
    return caps;
}

Expected<ExecResult>
StabilizerBackend::run(const ExecProgram &program,
                       const ExecOptions &options) const
{
    const Pattern &pattern = program.pattern();
    auto base_turns = cliffordQuarterTurns(pattern, "stabilizer");
    if (!base_turns.ok())
        return base_turns.status();

    const auto channel = NoiseChannel::make(
        options, [&] { return patternExposure(pattern.numNodes()); });
    if (!channel.ok())
        return channel.status();

    ExecResult result;
    result.numWires = pattern.numWires();
    result.threads = resolveThreads(options.numThreads, options.shots);
    const Status status =
        sampleCliffordShots(pattern, pattern.measurementOrder(),
                            *base_turns, options, *channel, result);
    if (!status.ok())
        return status;
    if (channel->active())
        result.notes.push_back(
            "noise channel applied per shot (" +
            channel->description() +
            "); exact probabilities omitted under noise");
    return result;
}

} // namespace dcmbqc
