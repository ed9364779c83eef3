/**
 * @file
 * Tests for the program-level photon-loss analysis: per-photon
 * storage accounting, consistency with Algorithm 1, the analytic
 * success probability, and the Monte-Carlo cross-check.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "api/api.hh"
#include "driver_helpers.hh"
#include "circuit/generators.hh"
#include "core/lsp_builder.hh"
#include "mbqc/dependency.hh"
#include "mbqc/pattern_builder.hh"
#include "photonic/grid.hh"
#include "sim/loss_analysis.hh"

namespace dcmbqc
{
namespace
{

using test::compileBase;

TEST(LossAnalysis, FuseeStorageChargedToEarlierPhoton)
{
    Graph g(2);
    g.addEdge(0, 1);
    g.freeze();
    Digraph deps(2);
    const LossModel model{0.2, 10.0};
    const auto a = analyzeLoss(g, deps, {3, 10}, model);
    EXPECT_EQ(a.storageCycles[0], 7);
    // Photon 1 still waits one cycle for its (dependency-free)
    // measurement per Algorithm 1.
    EXPECT_EQ(a.storageCycles[1], 1);
    EXPECT_EQ(a.maxStorageCycles, 7);
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

    std::vector<TimeSlot> node_time(pattern.numNodes());
    for (NodeId u = 0; u < pattern.numNodes(); ++u)
        node_time[u] = baseline.schedule.nodePhysicalTime(u);

    const LossModel model{0.2, 1.0};
    const auto a =
        analyzeLoss(pattern.graph(), deps, node_time, model);
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
    const LossModel model{0.2, 100.0};
    const auto a = analyzeLoss(g, deps, {0, 500}, model);
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
    std::vector<TimeSlot> node_time(pattern.numNodes());
    for (NodeId u = 0; u < pattern.numNodes(); ++u)
        node_time[u] = baseline.schedule.nodePhysicalTime(u);

    const auto fast = analyzeLoss(pattern.graph(), deps, node_time,
                                  LossModel{0.2, 1.0});
    const auto slow = analyzeLoss(pattern.graph(), deps, node_time,
                                  LossModel{0.2, 100.0});
    EXPECT_GT(fast.successProbability, slow.successProbability);
}

TEST(LossAnalysis, MonteCarloMatchesAnalytic)
{
    Graph g(3);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.freeze();
    Digraph deps(3);
    const LossModel model{0.2, 100.0};
    const auto a = analyzeLoss(g, deps, {0, 200, 400}, model);
    Rng rng(31);
    const double mc = sampleSuccessProbability(a, model, rng, 20000);
    EXPECT_NEAR(mc, a.successProbability, 0.02);
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
    std::vector<TimeSlot> base_time(pattern.numNodes());
    for (NodeId u = 0; u < pattern.numNodes(); ++u)
        base_time[u] = baseline.schedule.nodePhysicalTime(u);

    const auto options =
        CompileOptions().numQpus(4).gridSize(grid);
    auto dc_report = CompilerDriver(options).compile(
        CompileRequest::fromGraph(pattern.graph(), deps));
    ASSERT_TRUE(dc_report.ok()) << dc_report.status().toString();
    const auto &dc = dc_report->result();
    const auto lsp =
        test::rebuildLsp(options, pattern.graph(), deps, dc.partition);
    std::vector<TimeSlot> dc_time(pattern.numNodes());
    for (NodeId u = 0; u < pattern.numNodes(); ++u)
        dc_time[u] =
            dc.schedule.mainStart[lsp.taskOfNode(u)] * lsp.plRatio();

    const LossModel model{0.2, 20.0};
    const auto base_loss =
        analyzeLoss(pattern.graph(), deps, base_time, model);
    // Distributed: intra-QPU edges only; connectors excluded here
    // (their storage is tau_remote, bounded by the scheduler).
    const auto dc_loss =
        analyzeLoss(lsp.localEdges(), deps, dc_time, model);
    EXPECT_GT(dc_loss.successProbability,
              base_loss.successProbability);
}

} // namespace
} // namespace dcmbqc
