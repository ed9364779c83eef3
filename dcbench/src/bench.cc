#include "bench.hh"

#include <algorithm>
#include <cmath>

#include "photonic/grid.hh"

namespace dcbench
{

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

void
Outcome::fail(const std::string &why)
{
    ++failed;
    // The count is what the result reports; a few reasons suffice
    // to diagnose it.
    if (failures.size() < 20)
        failures.push_back(why);
}

void
Outcome::set(const std::string &name, double value,
             const std::string &unit)
{
    metrics[name] = Metric{value, unit};
}

std::uint64_t
SeedRng::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

int
SeedRng::uniform(int lo, int hi)
{
    return lo + static_cast<int>(next() % static_cast<std::uint64_t>(
                                              hi - lo + 1));
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                  : 0.5 * (values[mid - 1] + values[mid]);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t index =
        rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(index, values.size() - 1)];
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

dcmbqc::CompileOptions
cliOptions(int qpus, int qubits, std::uint64_t seed)
{
    return dcmbqc::CompileOptions()
        .numQpus(qpus)
        .kmax(4)
        .gridSize(dcmbqc::gridSizeForQubits(qubits))
        .resourceState(dcmbqc::ResourceStateType::Star5)
        .useBdir(true)
        .seed(seed);
}

} // namespace dcbench
