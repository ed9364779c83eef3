/**
 * @file
 * Tests for the program-level photon-loss analysis: per-photon
 * storage accounting of `buildExposure`, consistency with
 * Algorithm 1, the analytic success probability `analyzeNoise`
 * gives under a delay-line model, and the Monte-Carlo cross-check
 * through the backends' `NoiseChannel`.
 */

#include <gtest/gtest.h>

#include "api/api.hh"
#include "driver_helpers.hh"
#include "circuit/generators.hh"
#include "exec/loss_backend.hh"
#include "exec/noise_channel.hh"
#include "mbqc/dependency.hh"
#include "mbqc/pattern_builder.hh"
#include "noise/analysis.hh"
#include "photonic/grid.hh"

namespace dcmbqc
{
namespace
{

using test::compileBase;

/** A delay line at 0.2 dB/km with the given clock period. */
NoiseModel
delayLine(double cycle_period_ns)
{
    NoiseConfig config;
    config.add("delay-line", {{"cycle_period_ns", cycle_period_ns}});
    auto model = buildNoiseModel(config);
    EXPECT_TRUE(model.ok()) << model.status().toString();
    return std::move(model.value());
}

/** Generation cycle of every photon of a single-QPU baseline. */
std::vector<TimeSlot>
baselineTimes(const BaselineResult &baseline, NodeId n)
{
    std::vector<TimeSlot> node_time(n);
    for (NodeId u = 0; u < n; ++u)
        node_time[u] = baseline.schedule.nodePhysicalTime(u);
    return node_time;
}

TEST(LossAnalysis, FuseeStorageChargedToEarlierPhoton)
{
    Graph g(2);
    g.addEdge(0, 1);
    g.freeze();
    Digraph deps(2);
    const NoiseExposure exposure =
        buildExposure(g, deps, {3, 10}, nullptr);
    EXPECT_EQ(exposure.sites[0].storageCycles, 7);
    // Photon 1 still waits one cycle for its (dependency-free)
    // measurement per Algorithm 1.
    EXPECT_EQ(exposure.sites[1].storageCycles, 1);
    EXPECT_EQ(analyzeNoise(exposure, delayLine(10.0)).maxStorageCycles,
              7);
}

TEST(LossAnalysis, MaxEqualsRequiredLifetime)
{
    // Storage max must agree with Algorithm 1's tau_photon on a
    // compiled program.
    const auto pattern = buildPattern(makeQft(6));
    const auto deps = realTimeDependencyGraph(pattern);
    SingleQpuConfig config;
    config.grid.size = gridSizeForQubits(6);
    const auto baseline =
        compileBase(pattern.graph(), deps, config);

    const auto a = analyzeNoise(
        buildExposure(pattern.graph(), deps,
                      baselineTimes(baseline, pattern.numNodes()),
                      nullptr),
        delayLine(1.0));
    EXPECT_EQ(a.maxStorageCycles, baseline.requiredLifetime());
    EXPECT_GT(a.successProbability, 0.0);
    EXPECT_LE(a.successProbability, 1.0);
    EXPECT_LE(a.meanStorageCycles, a.maxStorageCycles);
}

TEST(LossAnalysis, SuccessProbabilityIsSurvivalProduct)
{
    Graph g(2);
    g.addEdge(0, 1);
    g.freeze();
    Digraph deps(2);
    const auto a = analyzeNoise(buildExposure(g, deps, {0, 500}, nullptr),
                                delayLine(100.0));
    const LossModel model{0.2, 100.0};
    const double expected = model.survivalProbability(500) *
        model.survivalProbability(1);
    EXPECT_NEAR(a.successProbability, expected, 1e-12);
}

TEST(LossAnalysis, SlowerClockLowersSuccess)
{
    const auto pattern = buildPattern(makeQaoaMaxcut(6, 5));
    const auto deps = realTimeDependencyGraph(pattern);
    SingleQpuConfig config;
    config.grid.size = 7;
    const auto baseline =
        compileBase(pattern.graph(), deps, config);
    const NoiseExposure exposure = buildExposure(
        pattern.graph(), deps,
        baselineTimes(baseline, pattern.numNodes()), nullptr);

    const auto fast = analyzeNoise(exposure, delayLine(1.0));
    const auto slow = analyzeNoise(exposure, delayLine(100.0));
    EXPECT_GT(fast.successProbability, slow.successProbability);
}

TEST(LossAnalysis, MonteCarloMatchesAnalytic)
{
    Graph g(3);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.freeze();
    Digraph deps(3);
    const NoiseChannel channel(
        delayLine(100.0), buildExposure(g, deps, {0, 200, 400}, nullptr));
    Rng rng(31);
    const int shots = 20000;
    int successes = 0;
    for (int shot = 0; shot < shots; ++shot)
        successes += channel.sampleLoss(rng) == 0;
    EXPECT_NEAR(static_cast<double>(successes) / shots,
                channel.analysis().successProbability, 0.02);
}

TEST(LossAnalysis, DistributionImprovesSuccessProbability)
{
    // The end-to-end point of the paper: lower required lifetime ->
    // higher survival at a fixed clock rate.
    const auto pattern = buildPattern(makeRippleCarryAdder(16));
    const auto deps = realTimeDependencyGraph(pattern);
    const int grid = gridSizeForQubits(16);

    SingleQpuConfig base_config;
    base_config.grid.size = grid;
    const auto baseline =
        compileBase(pattern.graph(), deps, base_config);

    const auto options =
        CompileOptions().numQpus(4).gridSize(grid);
    auto dc_report = CompilerDriver(options).compile(
        CompileRequest::fromGraph(pattern.graph(), deps));
    ASSERT_TRUE(dc_report.ok()) << dc_report.status().toString();
    const auto &dc = dc_report->result();
    auto dc_time = schedulePhotonTimes(dc, pattern.numNodes());
    ASSERT_TRUE(dc_time.ok()) << dc_time.status().toString();

    const NoiseModel model = delayLine(20.0);
    const auto base_loss = analyzeNoise(
        buildExposure(pattern.graph(), deps,
                      baselineTimes(baseline, pattern.numNodes()),
                      nullptr),
        model);
    // Distributed: the delay line charges intra-QPU storage only;
    // connector storage is tau_remote, bounded by the scheduler.
    const auto dc_loss = analyzeNoise(
        buildExposure(pattern.graph(), deps, *dc_time,
                      &dc.partition.assignment()),
        model);
    EXPECT_GT(dc_loss.successProbability,
              base_loss.successProbability);
}

} // namespace
} // namespace dcmbqc
