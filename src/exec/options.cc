#include "exec/options.hh"

#include <cmath>
#include <sstream>

#include "exec/backend.hh"
#include "noise/model.hh"

namespace dcmbqc
{

Status
ExecOptions::validate() const
{
    std::ostringstream problems;
    int count = 0;
    const auto complain = [&](const std::string &what) {
        if (count++ > 0)
            problems << "; ";
        problems << what;
    };

    if (shots < 1)
        complain("shots must be >= 1 (got " + std::to_string(shots) +
                 ")");
    if (seed < 0)
        complain("seed must be >= 0 (got " + std::to_string(seed) +
                 ")");
    if (numThreads < 0)
        complain("numThreads must be >= 0 (got " +
                 std::to_string(numThreads) + ")");
    if (!findBackend(backend)) {
        std::string known;
        for (const std::string &name : backendNames()) {
            if (!known.empty())
                known += "|";
            known += name;
        }
        complain("unknown backend '" + backend + "' (expected " +
                 known + ")");
    }
    // Negated comparisons so NaN fails each check.
    if (!(std::isfinite(lossModel.attenuationDbPerKm) &&
          lossModel.attenuationDbPerKm >= 0.0))
        complain("loss model attenuation must be finite and >= 0 "
                 "dB/km");
    if (!(std::isfinite(lossModel.cyclePeriodNs) &&
          lossModel.cyclePeriodNs > 0.0))
        complain("loss model cycle period must be finite and "
                 "positive");
    if (!(lossModel.speedFraction > 0.0 &&
          lossModel.speedFraction <= 1.0))
        complain("loss model speed fraction must lie in (0, 1]");
    if (noise) {
        const auto model = buildNoiseModel(*noise);
        if (!model.ok())
            complain(model.status().message());
    }

    if (count > 0)
        return Status::invalidConfig(problems.str());
    return Status::okStatus();
}

} // namespace dcmbqc
