#include "exec/noise_channel.hh"

#include <algorithm>

#include "exec/backend.hh"

namespace dcmbqc
{

namespace
{

/** Salt separating noise draws from outcome draws. */
constexpr std::uint64_t kNoiseStreamSalt = 0x5851f42d4c957f2dull;

} // namespace

std::uint64_t
noiseShotSeed(std::int64_t seed, int shot)
{
    return shotSeed(seed, shot) ^ kNoiseStreamSalt;
}

Expected<std::optional<NoiseModel>>
configuredNoiseModel(const ExecOptions &options)
{
    if (!options.noise)
        return std::optional<NoiseModel>();
    auto model = buildNoiseModel(*options.noise);
    if (!model.ok())
        return model.status();
    if (model->vacuous())
        return std::optional<NoiseModel>();
    return std::optional<NoiseModel>(std::move(model.value()));
}

NoiseChannel::NoiseChannel(NoiseModel model, NoiseExposure exposure)
    : model_(std::move(model)),
      analysis_(analyzeNoise(exposure, model_)),
      sites_(std::move(exposure.sites)), active_(true),
      description_(model_.describe())
{
    for (const double p : analysis_.siteLoss)
        drawSites_ = drawSites_ || p > 0.0;
    for (const double p : analysis_.edgeLoss)
        drawEdges_ = drawEdges_ || p > 0.0;
    correlated_ = model_.hasCorrelated();
    flip_ = model_.flipProbability();
}

Expected<NoiseChannel>
NoiseChannel::make(const ExecOptions &options,
                   const std::function<NoiseExposure()> &expose)
{
    auto model = configuredNoiseModel(options);
    if (!model.ok())
        return model.status();
    if (!*model)
        return NoiseChannel();
    return NoiseChannel(std::move(**model), expose());
}

int
NoiseChannel::sampleLoss(Rng &rng) const
{
    int lost = 0;
    if (correlated_) {
        // A burst can hit a photon the independent draws already
        // lost; the mask keeps the count honest. One buffer per
        // worker thread: assign() recycles its capacity, so the shot
        // loop allocates nothing after warm-up.
        thread_local std::vector<char> mask;
        mask.assign(analysis_.siteLoss.size(), 0);
        for (std::size_t u = 0; u < analysis_.siteLoss.size(); ++u)
            if (rng.bernoulli(analysis_.siteLoss[u]))
                mask[u] = 1;
        model_.sampleCorrelated(sites_, rng, mask);
        lost = static_cast<int>(
            std::count(mask.begin(), mask.end(), char(1)));
    } else if (drawSites_) {
        for (const double p : analysis_.siteLoss)
            if (rng.bernoulli(p))
                ++lost;
    }
    if (drawEdges_)
        for (const double p : analysis_.edgeLoss)
            if (rng.bernoulli(p))
                ++lost;
    return lost;
}

int
NoiseChannel::sampleShot(Rng &rng, std::string &bits) const
{
    const int lost = sampleLoss(rng);
    if (lost == 0 && flip_ > 0.0)
        for (char &bit : bits)
            if (rng.bernoulli(flip_))
                bit = bit == '0' ? '1' : '0';
    return lost;
}

} // namespace dcmbqc
