#include "exec/statevector_backend.hh"

#include <cmath>

#include "common/rng.hh"
#include "exec/noise_channel.hh"
#include "sim/pattern_runner.hh"
#include "sim/statevector.hh"

namespace dcmbqc
{

namespace
{

/** Dense amplitudes bound the backend to this many output wires. */
constexpr int kMaxWires = 20;

/** Amplitudes below this are rounding noise, not outcomes. */
constexpr double kProbEpsilon = 1e-12;

/** Bitstring key of amplitude index `idx`: char w = wire w. */
std::string
bitsOfIndex(std::size_t idx, int wires)
{
    std::string bits(wires, '0');
    for (int w = 0; w < wires; ++w)
        if (idx & (std::size_t(1) << w))
            bits[w] = '1';
    return bits;
}

} // namespace

BackendCapabilities
StatevectorBackend::capabilities() const
{
    BackendCapabilities caps;
    caps.runsPattern = true;
    caps.exactProbabilities = true;
    caps.maxWires = kMaxWires;
    return caps;
}

Expected<ExecResult>
StatevectorBackend::run(const ExecProgram &program,
                        const ExecOptions &options) const
{
    const Pattern &pattern = program.pattern();
    const int wires = pattern.numWires();

    const auto channel = NoiseChannel::make(
        options, [&] { return patternExposure(pattern.numNodes()); });
    if (!channel.ok())
        return channel.status();

    ExecResult result;
    result.numWires = wires;
    result.threads = resolveThreads(options.numThreads, options.shots);

    // Per-shot outcome slots: sampling order is (shot, wire), so the
    // aggregate is bit-identical however the pool schedules chunks.
    // Noise draws use a salted per-shot stream, never the outcome
    // stream, so an inactive channel changes nothing.
    std::vector<std::string> outcomes(options.shots);
    std::vector<std::int32_t> lost(options.shots, 0);
    // Every shot replays the whole pattern, then measures the output
    // wires in Z in wire order (removal shifts the next wire to
    // qubit 0). Dense amplitudes make a shared-prefix tree slower
    // than this naive replay.
    forEachShot(options.shots, result.threads, [&](int shot) {
        Rng rng(shotSeed(options.seed, shot));
        StateVector state =
            runPattern(pattern, rng, options.applyByproducts)
                .outputState;
        std::string bits(wires, '0');
        for (int w = 0; w < wires; ++w)
            if (state.measureZAndRemove(0, rng).outcome)
                bits[w] = '1';
        if (channel->active()) {
            Rng noise_rng(noiseShotSeed(options.seed, shot));
            lost[shot] = channel->sampleShot(noise_rng, bits);
        }
        outcomes[shot] = std::move(bits);
    });
    for (int shot = 0; shot < options.shots; ++shot) {
        if (lost[shot] > 0) {
            ++result.lostShots;
            result.lostPhotons += lost[shot];
            continue;
        }
        ++result.counts[std::move(outcomes[shot])];
    }
    result.completedShots = options.shots - result.lostShots;
    if (channel->active())
        result.notes.push_back("noise channel applied per shot (" +
                               channel->description() +
                               "); exact probabilities are noiseless");

    if (options.applyByproducts) {
        // Byproduct correction makes the output state deterministic
        // (independent of the measurement outcomes), so one extra
        // run yields the exact distribution of every outcome.
        Rng rng(shotSeed(options.seed, options.shots));
        const PatternRunResult reference =
            runPattern(pattern, rng, /*apply_byproducts=*/true);
        const auto &amps = reference.outputState.amplitudes();
        for (std::size_t idx = 0; idx < amps.size(); ++idx) {
            const double p = std::norm(amps[idx]);
            if (p > kProbEpsilon)
                result.probabilities[bitsOfIndex(idx, wires)] = p;
        }
    } else {
        result.notes.push_back(
            "exact probabilities unavailable: byproducts left "
            "uncorrected, the raw output state varies per shot");
    }
    return result;
}

} // namespace dcmbqc
