#include "noise/model.hh"

#include <cmath>

namespace dcmbqc
{

double
NoiseModel::siteSurvival(const NoiseSite &site) const
{
    double survival = 1.0;
    for (const auto &mechanism : mechanisms_)
        survival *= mechanism->siteSurvival(site);
    return survival;
}

double
NoiseModel::edgeSurvival(const NoiseEdge &edge) const
{
    double survival = 1.0;
    for (const auto &mechanism : mechanisms_)
        survival *= mechanism->edgeSurvival(edge);
    return survival;
}

double
NoiseModel::flipProbability() const
{
    double keep = 1.0;
    for (const auto &mechanism : mechanisms_)
        keep *= 1.0 - mechanism->flipProbability();
    return 1.0 - keep;
}

void
NoiseModel::sampleCorrelated(const std::vector<NoiseSite> &sites,
                             Rng &rng, std::vector<char> &lost) const
{
    for (const auto &mechanism : mechanisms_)
        if (mechanism->correlated() && !mechanism->vacuous())
            mechanism->sampleCorrelated(sites, rng, lost);
}

bool
NoiseModel::vacuous() const
{
    for (const auto &mechanism : mechanisms_)
        if (!mechanism->vacuous())
            return false;
    return true;
}

bool
NoiseModel::hasCorrelated() const
{
    for (const auto &mechanism : mechanisms_)
        if (mechanism->correlated() && !mechanism->vacuous())
            return true;
    return false;
}

std::string
NoiseModel::describe() const
{
    std::string out;
    for (const auto &mechanism : mechanisms_) {
        if (!out.empty())
            out += "+";
        out += mechanism->name();
    }
    return out.empty() ? "none" : out;
}

Expected<NoiseModel>
buildNoiseModel(const NoiseConfig &config)
{
    NoiseModel model;
    model.mechanisms_.reserve(config.mechanisms.size());
    for (const MechanismSpec &spec : config.mechanisms) {
        auto mechanism = makeNoiseMechanism(spec.mechanism);
        if (!mechanism) {
            std::string known;
            for (const std::string &name : noiseMechanismNames()) {
                if (!known.empty())
                    known += "|";
                known += name;
            }
            return Status::invalidConfig(
                "unknown noise mechanism '" + spec.mechanism +
                "' (expected " + known + ")");
        }
        for (const NoiseParam &param : spec.params) {
            const Status status =
                mechanism->set(param.name, param.value);
            if (!status.ok())
                return status;
            // NaN fails no range check and +inf passes every "< 0"
            // one, so no mechanism's validate() can be trusted with
            // them: reject both here, for every mechanism.
            if (!std::isfinite(param.value))
                return Status::invalidConfig(
                    "noise parameter '" + param.name +
                    "' of mechanism '" + spec.mechanism +
                    "' must be finite");
        }
        const Status status = mechanism->validate();
        if (!status.ok())
            return status;
        model.mechanisms_.push_back(std::move(mechanism));
    }
    return model;
}

bool
noiseAffectsCompile(const NoiseConfig &config)
{
    if (config.empty())
        return false;
    auto model = buildNoiseModel(config);
    return model.ok() && !model->vacuous();
}

} // namespace dcmbqc
