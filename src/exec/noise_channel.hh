/**
 * @file
 * `NoiseChannel`: the one per-shot sampler of loss and outcome
 * flips, shared by every execution backend. A channel is a
 * `NoiseModel` evaluated over one `NoiseExposure`:
 *   - statevector and stabilizer: `patternExposure` — a pattern run
 *     has no schedule, so storage-dependent mechanisms contribute
 *     nothing there by design;
 *   - schedule and mc-loss: `buildExposure` of the compiled
 *     schedule (delay-line storage from the generation times,
 *     connector loss on cut edges).
 *
 * Each shot draws in a fixed order:
 *   1. independent site loss, excluding correlated mechanisms'
 *      analytic factor (they sample through their hook instead);
 *      skipped when every site's probability is 0 and no mechanism
 *      is correlated;
 *   2. the correlated hooks;
 *   3. fusion-edge loss, skipped when every edge's probability is 0;
 *   4. output flips, on shots that lost no photon.
 *
 * The simulator backends draw from a noise stream separate from the
 * outcome stream (`noiseShotSeed`), so a run without a channel
 * samples bit-identical outcomes.
 */

#ifndef DCMBQC_EXEC_NOISE_CHANNEL_HH
#define DCMBQC_EXEC_NOISE_CHANNEL_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "api/status.hh"
#include "common/rng.hh"
#include "exec/options.hh"
#include "noise/analysis.hh"
#include "noise/model.hh"

namespace dcmbqc
{

/**
 * Per-shot noise stream of the outcome-sampling backends: the shot's
 * outcome seed `shotSeed(seed, shot)` salted apart.
 */
std::uint64_t noiseShotSeed(std::int64_t seed, int shot);

/**
 * `options.noise` resolved against the mechanism registry: nullopt
 * when the config is absent or vacuous (the run is noise-free),
 * Status when it is invalid.
 */
Expected<std::optional<NoiseModel>>
configuredNoiseModel(const ExecOptions &options);

/** Per-shot loss and outcome flips of one model over one exposure. */
class NoiseChannel
{
  public:
    /** Inactive: every query is a no-op and draws nothing. */
    NoiseChannel() = default;

    /**
     * Sample `model` over `exposure`. The channel is active even
     * when the model is vacuous, so a backend that always charges
     * loss still reports the analysis.
     */
    NoiseChannel(NoiseModel model, NoiseExposure exposure);

    /**
     * The channel `options.noise` asks for over the exposure
     * `expose()` returns; `expose` runs only when the config is
     * present and not vacuous, else the channel is inactive.
     */
    static Expected<NoiseChannel>
    make(const ExecOptions &options,
         const std::function<NoiseExposure()> &expose);

    bool active() const { return active_; }

    /** The analytic survival of the exposure under the model. */
    const NoiseAnalysis &analysis() const { return analysis_; }

    /**
     * Steps 1-3 of the shot: the number of lost photons and failed
     * fusions (> 0 voids the shot).
     */
    int sampleLoss(Rng &rng) const;

    /** Steps 1-4: sampleLoss, then flip `bits` if nothing was lost. */
    int sampleShot(Rng &rng, std::string &bits) const;

    /** "delay-line+depolarizing" — for result notes. */
    const std::string &description() const { return description_; }

  private:
    NoiseModel model_;
    NoiseAnalysis analysis_;
    std::vector<NoiseSite> sites_;
    double flip_ = 0.0;
    bool drawSites_ = false;
    bool drawEdges_ = false;
    bool correlated_ = false;
    bool active_ = false;
    std::string description_;
};

} // namespace dcmbqc

#endif // DCMBQC_EXEC_NOISE_CHANNEL_HH
