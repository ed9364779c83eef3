/**
 * @file
 * google-benchmark micro-benchmarks for the framework's core
 * kernels: multilevel partitioning, adaptive partitioning
 * (Algorithm 2), single-QPU placement (a Table II program, and one
 * part of the 46x46 lattice whose routing dominates),
 * required-lifetime evaluation (Algorithm 1), list scheduling, one
 * BDIR neighborhood step and a whole BDIR run (Algorithm 3).
 */

#include <benchmark/benchmark.h>

#include "bench/bench_common.hh"
#include "circuit/circuit_stream.hh"
#include "circuit/huge_generators.hh"
#include "core/bdir.hh"
#include "core/list_scheduler.hh"
#include "core/lsp_builder.hh"
#include "partition/multilevel.hh"

using namespace dcmbqc;
using namespace dcmbqc::bench;

namespace
{

const Prepared &
qft36()
{
    static const Prepared p = prepare(Family::Qft, 36);
    return p;
}

const Prepared &
vqe36()
{
    static const Prepared p = prepare(Family::Vqe, 36);
    return p;
}

void
BM_MultilevelPartition(benchmark::State &state)
{
    const auto &p = qft36();
    MultilevelConfig config;
    config.k = static_cast<int>(state.range(0));
    for (auto _ : state) {
        auto part =
            MultilevelPartitioner(config).partition(p.pattern.graph());
        benchmark::DoNotOptimize(part);
    }
}
BENCHMARK(BM_MultilevelPartition)->Arg(2)->Arg(4)->Arg(8);

/**
 * Algorithm 2 end to end. `probes` is the number of Partition(G,
 * alpha) calls per run and `time_per_probe` their mean cost: VQE-36 at
 * k = 8 bounces between two alphas for all 256 probes, so it tracks
 * the per-probe cost, while QFT-36 at k = 4 stops after two.
 */
void
BM_AdaptivePartition(benchmark::State &state, const Prepared &(*program)(),
                     int k)
{
    const auto &p = program();
    AdaptiveConfig config;
    config.k = k;
    int probes = 0;
    for (auto _ : state) {
        auto result = adaptivePartition(p.pattern.graph(), config);
        probes = result.probes;
        benchmark::DoNotOptimize(result);
    }
    state.counters["probes"] = probes;
    state.counters["time_per_probe"] = benchmark::Counter(
        probes, benchmark::Counter::kIsIterationInvariantRate |
                    benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_AdaptivePartition, qft36_k4, qft36, 4);
BENCHMARK_CAPTURE(BM_AdaptivePartition, vqe36_k8, vqe36, 8);

/** A computation graph for one single-QPU compile, and its grid. */
struct PlacementInput
{
    Graph graph;
    Digraph deps;
    int gridSize = 0;
};

const PlacementInput &
qft36Whole()
{
    static const PlacementInput input{qft36().pattern.graph(), qft36().deps,
                                      qft36().gridSize};
    return input;
}

/**
 * Part 0 of the 46x46 graph state split four ways, on the grid the
 * CLI picks for the whole lattice (91): the routing-bound PlaceLocal
 * of `dcmbqc compile --stream-family graphstate --rows 46 --cols 46`,
 * one QPU on one thread.
 */
const PlacementInput &
lattice46Part()
{
    static const PlacementInput input = [] {
        const Pattern pattern =
            buildPattern(makeGraphStateStream(46, 46)->materialize());
        const Digraph deps = realTimeDependencyGraph(pattern);
        const int grid = gridSizeForQubits(46 * 46);
        AdaptiveConfig config = paperConfig(4, grid).partition;
        config.k = 4;
        const auto members =
            adaptivePartition(pattern.graph(), config).best.partMembers();
        PlacementInput part;
        std::vector<NodeId> to_sub;
        part.graph = pattern.graph().inducedSubgraph(members[0], &to_sub);
        part.deps = Digraph(part.graph.numNodes());
        for (NodeId u : members[0])
            for (NodeId v : deps.successors(u))
                if (to_sub[v] != invalidNode)
                    part.deps.addArc(to_sub[u], to_sub[v]);
        part.gridSize = grid;
        return part;
    }();
    return input;
}

void
BM_SingleQpuPlacement(benchmark::State &state,
                      const PlacementInput &(*input)())
{
    const PlacementInput &in = input();
    const SingleQpuCompiler compiler(baselineConfig(in.gridSize));
    for (auto _ : state) {
        auto schedule = compiler.compile(in.graph, in.deps);
        benchmark::DoNotOptimize(schedule);
    }
}
BENCHMARK_CAPTURE(BM_SingleQpuPlacement, qft36, qft36Whole);
BENCHMARK_CAPTURE(BM_SingleQpuPlacement, lattice46_part, lattice46Part)
    ->Unit(benchmark::kMillisecond);

void
BM_LifetimeEvaluation(benchmark::State &state)
{
    const auto &p = qft36();
    const auto baseline =
        compileBase(p, baselineConfig(p.gridSize));
    std::vector<TimeSlot> node_time(p.pattern.numNodes());
    for (NodeId u = 0; u < p.pattern.numNodes(); ++u)
        node_time[u] = baseline.schedule.nodePhysicalTime(u);
    for (auto _ : state) {
        auto breakdown =
            computeLifetime(p.pattern.graph(), p.deps, node_time);
        benchmark::DoNotOptimize(breakdown);
    }
}
BENCHMARK(BM_LifetimeEvaluation);

/** The LSP of a Table II program at the paper configuration. */
LayerSchedulingProblem
paperLsp(const Prepared &p, int qpus)
{
    const auto config = CompileOptions::fromConfig(
        paperConfig(qpus, p.gridSize)).build().value();
    const auto adaptive =
        adaptivePartition(p.pattern.graph(), config.partition);
    return buildLayerSchedulingProblem(
        p.pattern.graph(), p.deps, adaptive.best, config.numQpus,
        config.grid, config.order, config.kmax);
}

struct LspFixture
{
    LayerSchedulingProblem lsp;

    LspFixture() : lsp(paperLsp(qft36(), 4)) {}
};

void
BM_ListScheduling(benchmark::State &state)
{
    static const LspFixture fixture;
    for (auto _ : state) {
        auto schedule = listScheduleDefault(fixture.lsp);
        benchmark::DoNotOptimize(schedule);
    }
}
BENCHMARK(BM_ListScheduling);

void
BM_BdirNeighborStep(benchmark::State &state)
{
    static const LspFixture fixture;
    static const Schedule initial = listScheduleDefault(fixture.lsp);
    for (auto _ : state) {
        auto next = generateNeighbor(fixture.lsp, initial);
        benchmark::DoNotOptimize(next);
    }
}
BENCHMARK(BM_BdirNeighborStep);

/**
 * Algorithm 3 end to end on QFT-100 at 8 QPUs and the paper
 * configuration (49,700 photons). `time_per_move` is the mean cost
 * of one annealing move: one evaluation and one list-scheduling run.
 */
void
BM_BdirOptimize(benchmark::State &state)
{
    static const Prepared qft100 = prepare(Family::Qft, 100);
    static const LayerSchedulingProblem lsp = paperLsp(qft100, 8);
    static const Schedule initial = listScheduleDefault(lsp);
    const BdirConfig config = CompileOptions::fromConfig(
        paperConfig(8, qft100.gridSize)).build().value().bdir;
    for (auto _ : state) {
        auto refined = bdirOptimize(lsp, initial, config);
        benchmark::DoNotOptimize(refined);
    }
    state.counters["time_per_move"] = benchmark::Counter(
        config.maxIterations,
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}
BENCHMARK(BM_BdirOptimize)->Unit(benchmark::kMillisecond);

void
BM_DriverEndToEnd(benchmark::State &state)
{
    // Full pass pipeline through the public driver, including the
    // per-stage timing bookkeeping (cost of the API layer itself).
    static const Prepared p = prepare(Family::Qft, 16);
    const CompilerDriver driver(
        CompileOptions::fromConfig(paperConfig(4, p.gridSize)));
    for (auto _ : state) {
        auto report = driver.compile(makeRequest(p));
        benchmark::DoNotOptimize(report);
    }
}
BENCHMARK(BM_DriverEndToEnd);

void
BM_DriverBatch8(benchmark::State &state)
{
    // Eight identical requests fanned across the thread pool.
    static const Prepared p = prepare(Family::Qft, 16);
    const CompilerDriver driver(
        CompileOptions::fromConfig(paperConfig(4, p.gridSize)));
    const std::vector<CompileRequest> requests(8, makeRequest(p));
    for (auto _ : state) {
        auto reports = driver.compileBatch(requests);
        benchmark::DoNotOptimize(reports);
    }
}
BENCHMARK(BM_DriverBatch8);

} // namespace

BENCHMARK_MAIN();
