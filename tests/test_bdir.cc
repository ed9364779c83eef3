/**
 * @file
 * Tests for BDIR (Algorithm 3): the neighborhood generator always
 * produces feasible schedules, the SA loop never returns something
 * worse than its input, and it fixes planted bottlenecks. Pins of its
 * output on the Table II programs, and a differential test of the
 * task-level schedule evaluator against a photon-level oracle.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "api/api.hh"
#include "api/passes.hh"
#include "circuit/generators.hh"
#include "common/rng.hh"
#include "core/bdir.hh"
#include "core/lifetime.hh"
#include "core/list_scheduler.hh"
#include "photonic/grid.hh"
#include "serialize/binary.hh"
#include "serialize/codecs.hh"

namespace dcmbqc
{
namespace
{

/** 2-QPU instance with an adversarial sync between distant layers. */
LayerSchedulingProblem
bottleneckInstance()
{
    std::vector<MainTask> mains;
    for (int j = 0; j < 12; ++j)
        mains.push_back({0, j, {static_cast<NodeId>(j)}});
    for (int j = 0; j < 12; ++j)
        mains.push_back({1, j, {static_cast<NodeId>(12 + j)}});

    std::vector<SyncTask> syncs;
    // Sync between QPU0 layer 1 and QPU1 layer 10: any slot is far
    // from one of them unless the schedule shifts the layers.
    syncs.push_back({1, 22, 1, 22});
    // A benign nearby sync.
    syncs.push_back({5, 17, 5, 17});

    Graph local(24);
    // Fusee pair within QPU0 spanning layers 0 and 11.
    local.addEdge(0, 11);
    Digraph deps(24);
    return LayerSchedulingProblem(std::move(mains), std::move(syncs),
                                  std::move(local), std::move(deps), 2,
                                  4);
}

TEST(Bdir, NeighborIsAlwaysFeasible)
{
    const auto lsp = bottleneckInstance();
    Schedule current = listScheduleDefault(lsp);
    for (int i = 0; i < 10; ++i) {
        current = generateNeighbor(lsp, current);
        std::string why;
        ASSERT_TRUE(validateSchedule(lsp, current, &why)) << why;
    }
}

TEST(Bdir, NeverWorseThanInitial)
{
    const auto lsp = bottleneckInstance();
    const auto initial = listScheduleDefault(lsp);
    const int before = evaluateSchedule(lsp, initial).tauPhoton();

    BdirStats stats;
    const auto optimized = bdirOptimize(lsp, initial, {}, &stats);
    const int after = evaluateSchedule(lsp, optimized).tauPhoton();

    EXPECT_LE(after, before);
    EXPECT_EQ(stats.initialLifetime, before);
    EXPECT_EQ(stats.finalLifetime, after);
    EXPECT_TRUE(validateSchedule(lsp, optimized));
}

TEST(Bdir, StatsAreConsistent)
{
    const auto lsp = bottleneckInstance();
    const auto initial = listScheduleDefault(lsp);
    BdirConfig config;
    config.maxIterations = 15;
    BdirStats stats;
    bdirOptimize(lsp, initial, config, &stats);
    EXPECT_EQ(stats.iterations, 15);
    EXPECT_GE(stats.acceptedMoves, 0);
    EXPECT_LE(stats.acceptedMoves, 15);
    EXPECT_LE(stats.improvedMoves, stats.acceptedMoves);
}

TEST(Bdir, ImprovesPlantedRemoteBottleneck)
{
    // A hand-built schedule with the sync at a terrible slot: BDIR
    // must find the balance point.
    std::vector<MainTask> mains;
    mains.push_back({0, 0, {0}});
    mains.push_back({1, 0, {1}});
    std::vector<SyncTask> syncs;
    syncs.push_back({0, 1, 0, 1});
    Graph local(2);
    Digraph deps(2);
    LayerSchedulingProblem lsp(std::move(mains), std::move(syncs),
                               std::move(local), std::move(deps), 2, 4);

    Schedule bad;
    bad.mainStart = {0, 0};
    bad.syncStart = {20};
    bad.makespan = 21;
    ASSERT_TRUE(validateSchedule(lsp, bad));
    EXPECT_EQ(evaluateSchedule(lsp, bad).tauRemote, 20);

    const auto fixed = bdirOptimize(lsp, bad);
    EXPECT_LE(evaluateSchedule(lsp, fixed).tauPhoton(), 2);
}

TEST(Bdir, DeterministicForSeed)
{
    const auto lsp = bottleneckInstance();
    const auto initial = listScheduleDefault(lsp);
    BdirConfig config;
    config.seed = 123;
    const auto a = bdirOptimize(lsp, initial, config);
    const auto b = bdirOptimize(lsp, initial, config);
    EXPECT_EQ(a.mainStart, b.mainStart);
    EXPECT_EQ(a.syncStart, b.syncStart);
}

TEST(Bdir, HandlesInstanceWithoutSyncs)
{
    std::vector<MainTask> mains;
    for (int j = 0; j < 6; ++j)
        mains.push_back({0, j, {static_cast<NodeId>(j)}});
    Graph local(6);
    local.addEdge(0, 5);
    Digraph deps(6);
    LayerSchedulingProblem lsp(std::move(mains), {}, std::move(local),
                               std::move(deps), 1, 4);
    const auto initial = listScheduleDefault(lsp);
    const auto out = bdirOptimize(lsp, initial);
    EXPECT_TRUE(validateSchedule(lsp, out));
}

// --- Pinned Algorithm-3 results ---------------------------------------------
//
// bdirOptimize's full output on the Table II programs compiled at the
// CLI defaults (grid gridSizeForQubits, kmax 4, Star5, seed 1): the
// FNV-1a hash of the refined schedule artifact and every BdirStats
// field. The refined schedule is the distributed artifact, so any
// change to how BDIR scores or generates moves must keep these. The
// QFT-100@8 hash is also the last entry of its PlacementPins row.

struct BdirRun
{
    std::uint64_t hash = 0;
    BdirStats stats;
};

Circuit
tableTwoProgram(const std::string &family, int qubits)
{
    if (family == "vqe")
        return makeVqe(qubits);
    if (family == "qaoa")
        return makeQaoaMaxcut(qubits, 7);
    if (family == "qft")
        return makeQft(qubits);
    return makeRippleCarryAdder(qubits);
}

/**
 * The CLI-default pass pipeline (kmax 4, Star5, BDIR on, seed 1) up
 * to PlaceLocal, then ScheduleList and RefineBdir when `refine`.
 */
void
runAtCliDefaults(PassContext &ctx, const Circuit &circuit, int qpus,
                 bool refine)
{
    auto config = CompileOptions()
                      .numQpus(qpus)
                      .kmax(4)
                      .gridSize(gridSizeForQubits(circuit.numQubits()))
                      .resourceState(ResourceStateType::Star5)
                      .useBdir(true)
                      .seed(1)
                      .build();
    ASSERT_TRUE(config.ok()) << config.status().toString();
    ctx.config = config.value();
    ctx.circuit = &circuit;
    PassManager manager;
    manager.add(std::make_unique<TranspilePass>())
        .add(std::make_unique<PatternBuildPass>())
        .add(std::make_unique<PartitionPass>())
        .add(std::make_unique<PlaceLocalPass>());
    if (refine) {
        manager.add(std::make_unique<ScheduleListPass>())
            .add(std::make_unique<RefineBdirPass>());
    }
    std::vector<StageReport> stages;
    const Status status = manager.run(ctx, stages);
    ASSERT_TRUE(status.ok()) << status.toString();
}

BdirRun
refineAtCliDefaults(const Circuit &circuit, int qpus,
                    const NoiseModel *noise = nullptr)
{
    PassContext ctx;
    ctx.noise = noise;
    runAtCliDefaults(ctx, circuit, qpus, true);
    BdirRun run;
    if (!ctx.schedule)
        return run;
    const auto bytes = encodeScheduleArtifact(*ctx.schedule);
    run.hash = fnv1a64(bytes.data(), bytes.size());
    run.stats = ctx.bdirStats;
    return run;
}

struct BdirPin
{
    const char *family;
    int qubits;
    int k;
    std::uint64_t hash;
    int acceptedMoves;
    int improvedMoves;
    int initialLifetime;
    int finalLifetime;
};

const BdirPin kBdirPins[] = {
    {"vqe", 16, 4, 0x04df785554e3ee0eull, 16, 1, 52, 48},
    {"vqe", 16, 8, 0xbe365407c19e4129ull, 20, 0, 56, 56},
    {"vqe", 36, 4, 0x53526e994bdb9b80ull, 19, 0, 92, 92},
    {"vqe", 36, 8, 0xeba6da8599986502ull, 20, 0, 144, 144},
    {"qaoa", 16, 4, 0x2107c17f0c62f6b0ull, 20, 0, 52, 52},
    {"qaoa", 16, 8, 0x3457818f439f7825ull, 19, 3, 44, 40},
    {"qft", 16, 4, 0xebdf0de393dbdd42ull, 13, 0, 100, 100},
    {"qft", 16, 8, 0x06c7fc975472131bull, 13, 0, 56, 56},
    {"qft", 36, 4, 0xa69c790f4d8789d7ull, 1, 1, 302, 298},
    {"qft", 36, 8, 0xc42c8a70157e5ae2ull, 18, 0, 176, 176},
    {"rca", 16, 4, 0x53e2daff975faaa8ull, 20, 0, 44, 44},
    {"rca", 16, 8, 0xeb664a04671b29d6ull, 20, 0, 24, 24},
    {"rca", 36, 4, 0x0aca0397e61cbbd4ull, 20, 0, 52, 52},
    {"rca", 36, 8, 0x6f1da7639d2534d1ull, 20, 0, 32, 32},
    {"qft", 81, 8, 0xa65a16cc380188e2ull, 19, 0, 464, 464},
    {"qft", 100, 8, 0x771e56e83e5560ecull, 1, 1, 553, 526},
};

void
expectPinned(const BdirRun &run, const BdirPin &pin)
{
    EXPECT_EQ(run.hash, pin.hash);
    EXPECT_EQ(run.stats.iterations, BdirConfig{}.maxIterations);
    EXPECT_EQ(run.stats.acceptedMoves, pin.acceptedMoves);
    EXPECT_EQ(run.stats.improvedMoves, pin.improvedMoves);
    EXPECT_EQ(run.stats.initialLifetime, pin.initialLifetime);
    EXPECT_EQ(run.stats.finalLifetime, pin.finalLifetime);
}

TEST(BdirPins, TableTwoRefinementsAreByteStable)
{
    for (const BdirPin &pin : kBdirPins) {
        const std::string name = std::string(pin.family) + "-" +
            std::to_string(pin.qubits) + "@" + std::to_string(pin.k);
        SCOPED_TRACE(name);
        expectPinned(
            refineAtCliDefaults(tableTwoProgram(pin.family, pin.qubits),
                                pin.k),
            pin);
    }
}

TEST(BdirPins, NoiseAwareRefinementIsByteStable)
{
    // The scheduleLogSurvival objective: delay-line storage loss plus
    // a correlated burst, so every move is scored by composite loss.
    NoiseConfig config;
    config.add("delay-line", {{"cycle_period_ns", 2.5}})
        .add("correlated-burst",
             {{"burst_rate", 0.01}, {"burst_width", 4.0}});
    auto noise = buildNoiseModel(config);
    ASSERT_TRUE(noise.ok()) << noise.status().toString();
    const BdirPin pin = {"qft", 36, 8, 0x9c090a60abf60431ull,
                         20, 1, 185, 200};
    expectPinned(refineAtCliDefaults(makeQft(36), 8, &*noise), pin);
}


// --- Differential: task-level evaluator vs node-level oracle -------------
//
// evaluateSchedule and balancePointForMain work on task pairs, the
// dependency nodes and per-task anchors. The oracle below evaluates
// photon by photon and must agree with them: Algorithm 1 over every
// photon (computeLifetime), a scan over every intra-QPU edge, every
// node and every sync task for the bottleneck, and the balance point
// from every node's anchors.

std::vector<TimeSlot>
oracleNodeTimes(const LayerSchedulingProblem &lsp, const Schedule &s)
{
    std::vector<TimeSlot> times(lsp.localEdges().numNodes());
    for (NodeId u = 0; u < lsp.localEdges().numNodes(); ++u)
        times[u] = s.mainStart[lsp.taskOfNode(u)] * lsp.plRatio();
    return times;
}

ScheduleMetrics
oracleMetrics(const LayerSchedulingProblem &lsp, const Schedule &s,
              const std::vector<TimeSlot> &node_time)
{
    ScheduleMetrics metrics;
    metrics.tauLocal =
        computeLifetime(lsp.localEdges(), lsp.deps(), node_time)
            .tauPhoton();
    const int pl = lsp.plRatio();
    for (std::size_t k = 0; k < lsp.syncTasks().size(); ++k) {
        const auto &sync = lsp.syncTasks()[k];
        const TimeSlot t = s.syncStart[k] * pl;
        metrics.tauRemote = std::max(
            {metrics.tauRemote, std::abs(t - s.mainStart[sync.taskA] * pl),
             std::abs(t - s.mainStart[sync.taskB] * pl)});
    }
    TimeSlot last = -1;
    for (TimeSlot t : s.mainStart)
        last = std::max(last, t);
    for (TimeSlot t : s.syncStart)
        last = std::max(last, t);
    metrics.makespan = (last + 1) * pl;
    return metrics;
}

ScheduleBottleneck
oracleBottleneck(const LayerSchedulingProblem &lsp, const Schedule &s,
                 const std::vector<TimeSlot> &node_time)
{
    ScheduleBottleneck best;
    for (const auto &e : lsp.localEdges().edges()) {
        const int span = std::abs(node_time[e.u] - node_time[e.v]);
        if (span > best.cost) {
            best.cost = span;
            best.kind = ScheduleBottleneck::Kind::Fusee;
            const NodeId later =
                node_time[e.u] >= node_time[e.v] ? e.u : e.v;
            best.mainTask = lsp.taskOfNode(later);
        }
    }
    const auto waits = measureeWaits(lsp.deps(), node_time);
    for (NodeId u = 0; u < static_cast<NodeId>(waits.size()); ++u) {
        if (waits[u] > best.cost) {
            best.cost = waits[u];
            best.kind = ScheduleBottleneck::Kind::Measuree;
            best.mainTask = lsp.taskOfNode(u);
        }
    }
    const int pl = lsp.plRatio();
    for (std::size_t k = 0; k < lsp.syncTasks().size(); ++k) {
        const auto &sync = lsp.syncTasks()[k];
        const TimeSlot t = s.syncStart[k] * pl;
        const int d =
            std::max(std::abs(t - s.mainStart[sync.taskA] * pl),
                     std::abs(t - s.mainStart[sync.taskB] * pl));
        if (d > best.cost) {
            best.cost = d;
            best.kind = ScheduleBottleneck::Kind::Remote;
            best.mainTask = -1;
            best.syncTask = static_cast<int>(k);
        }
    }
    return best;
}

/** MTime of every node, Algorithm 1 Part 2. */
std::vector<TimeSlot>
oracleMtime(const LayerSchedulingProblem &lsp,
            const std::vector<TimeSlot> &node_time)
{
    std::vector<NodeId> order;
    lsp.deps().topologicalSort(order);
    std::vector<TimeSlot> mtime(node_time.size());
    for (NodeId u : order) {
        TimeSlot t = node_time[u] + 1;
        for (NodeId v : lsp.deps().predecessors(u))
            t = std::max(t, mtime[v] + 1);
        mtime[u] = t;
    }
    return mtime;
}

TimeSlot
oracleBalancePoint(const LayerSchedulingProblem &lsp, const Schedule &s,
                   const std::vector<TimeSlot> &node_time,
                   const std::vector<TimeSlot> &mtime, int task)
{
    std::vector<TimeSlot> abs_anchors;
    std::vector<TimeSlot> late_pressure;
    std::vector<TimeSlot> early_pressure;
    std::vector<char> in_task(lsp.localEdges().numNodes(), 0);
    for (NodeId u : lsp.mainTasks()[task].nodes)
        in_task[u] = 1;
    for (NodeId u : lsp.mainTasks()[task].nodes) {
        for (const auto &adj : lsp.localEdges().adjacency(u))
            if (!in_task[adj.neighbor])
                abs_anchors.push_back(node_time[adj.neighbor]);
        for (NodeId p : lsp.deps().predecessors(u))
            if (!in_task[p])
                late_pressure.push_back(mtime[p] + 1);
        for (NodeId c : lsp.deps().successors(u))
            if (!in_task[c])
                early_pressure.push_back(node_time[c] - 2);
    }
    for (int k : lsp.syncsOfTask(task))
        abs_anchors.push_back(s.syncStart[k] * lsp.plRatio());

    auto cost = [&](TimeSlot t) {
        long long c = 0;
        for (TimeSlot a : abs_anchors)
            c = std::max<long long>(c, std::abs(t - a));
        for (TimeSlot a : late_pressure)
            c = std::max<long long>(c, a - t);
        for (TimeSlot a : early_pressure)
            c = std::max<long long>(c, t - a);
        return c;
    };
    TimeSlot lo = 0;
    TimeSlot hi = std::max<TimeSlot>(s.makespan * lsp.plRatio(), 1);
    while (hi - lo > 2) {
        const TimeSlot m1 = lo + (hi - lo) / 3;
        const TimeSlot m2 = hi - (hi - lo) / 3;
        if (cost(m1) <= cost(m2))
            hi = m2;
        else
            lo = m1;
    }
    TimeSlot best_t = lo;
    for (TimeSlot t = lo; t <= hi; ++t)
        if (cost(t) < cost(best_t))
            best_t = t;
    return best_t / lsp.plRatio();
}

/**
 * Compare the evaluator with the oracle on one schedule: metrics,
 * bottleneck, and the balance point of every main task (all of them
 * when `every_task`, else the bottleneck's and a sample).
 */
void
expectMatchesOracle(const LayerSchedulingProblem &lsp, const Schedule &s,
                    bool every_task = true)
{
    std::string why;
    ASSERT_TRUE(validateSchedule(lsp, s, &why)) << why;
    const auto node_time = oracleNodeTimes(lsp, s);
    ScheduleEvaluation evaluation;
    evaluateSchedule(lsp, s, evaluation);

    const ScheduleMetrics want = oracleMetrics(lsp, s, node_time);
    EXPECT_EQ(evaluation.metrics.tauLocal, want.tauLocal);
    EXPECT_EQ(evaluation.metrics.tauRemote, want.tauRemote);
    EXPECT_EQ(evaluation.metrics.makespan, want.makespan);
    const ScheduleMetrics plain = evaluateSchedule(lsp, s);
    EXPECT_EQ(plain.tauLocal, want.tauLocal);
    EXPECT_EQ(plain.tauRemote, want.tauRemote);

    const ScheduleBottleneck bottleneck = oracleBottleneck(lsp, s, node_time);
    EXPECT_EQ(evaluation.bottleneck.kind, bottleneck.kind);
    EXPECT_EQ(evaluation.bottleneck.cost, bottleneck.cost);
    EXPECT_EQ(evaluation.bottleneck.mainTask, bottleneck.mainTask);
    EXPECT_EQ(evaluation.bottleneck.syncTask, bottleneck.syncTask);

    const auto mtime = oracleMtime(lsp, node_time);
    const int num_tasks = static_cast<int>(lsp.mainTasks().size());
    const int stride = every_task ? 1 : std::max(1, num_tasks / 16);
    for (int task = 0; task < num_tasks; ++task) {
        if (task % stride != 0 && task != bottleneck.mainTask)
            continue;
        EXPECT_EQ(balancePointForMain(lsp, s, evaluation, task),
                  oracleBalancePoint(lsp, s, node_time, mtime, task))
            << "main task " << task;
    }
}

/** A feasible schedule from random priorities and a random pin. */
Schedule
randomSchedule(const LayerSchedulingProblem &lsp, Rng &rng,
               TimeSlot horizon)
{
    std::vector<double> main_priority(lsp.mainTasks().size());
    for (double &p : main_priority)
        p = rng.uniform() * horizon;
    std::vector<double> sync_priority(lsp.syncTasks().size());
    for (double &p : sync_priority)
        p = rng.uniform() * horizon;
    std::optional<TaskPin> pin;
    if (rng.uniform() < 0.8) {
        TaskPin chosen;
        chosen.isMain = lsp.syncTasks().empty() || rng.uniform() < 0.6;
        const std::size_t count = chosen.isMain ? lsp.mainTasks().size()
                                                : lsp.syncTasks().size();
        chosen.task = static_cast<int>(rng.uniformInt(count));
        chosen.slot = static_cast<TimeSlot>(rng.uniformInt(horizon + 1));
        pin = chosen;
    }
    return listSchedule(lsp, main_priority, sync_priority, pin);
}

TEST(BdirEvaluator, MatchesNodeLevelOracleOnTableTwoLsps)
{
    const struct
    {
        const char *family;
        int qubits;
        int k;
    } cases[] = {
        {"qft", 16, 4}, {"vqe", 16, 8}, {"qaoa", 16, 4}, {"rca", 36, 4},
    };
    for (const auto &c : cases) {
        const std::string name = std::string(c.family) + "-" +
            std::to_string(c.qubits) + "@" + std::to_string(c.k);
        SCOPED_TRACE(name);
        const Circuit circuit = tableTwoProgram(c.family, c.qubits);
        PassContext ctx;
        runAtCliDefaults(ctx, circuit, c.k, false);
        ASSERT_TRUE(ctx.lsp.has_value());
        const LayerSchedulingProblem &lsp = *ctx.lsp;
        const Schedule initial = listScheduleDefault(lsp);
        expectMatchesOracle(lsp, initial);

        Rng rng(0x5eed + c.qubits * 8 + c.k);
        for (int i = 0; i < 24; ++i)
            expectMatchesOracle(lsp, randomSchedule(lsp, rng,
                                                    initial.makespan),
                                /*every_task=*/false);

        // Along a BDIR trajectory, where bottlenecks sit near ties.
        Schedule current = initial;
        for (int i = 0; i < 8; ++i) {
            current = generateNeighbor(lsp, current);
            expectMatchesOracle(lsp, current, /*every_task=*/false);
        }
    }
}

/**
 * Random instance: `qpus` QPUs of `layers` layers with `per_task`
 * nodes each; local edges join nodes of one QPU, arcs run along a
 * random order of the nodes, and syncs join tasks of two QPUs.
 */
LayerSchedulingProblem
randomLsp(Rng &rng, int qpus, int layers, int per_task, int edges,
          int arcs, int syncs, int pl_ratio)
{
    std::vector<MainTask> mains;
    NodeId next = 0;
    for (int q = 0; q < qpus; ++q) {
        for (int j = 0; j < layers; ++j) {
            MainTask task{q, j, {}};
            for (int n = 0; n < per_task; ++n)
                task.nodes.push_back(next++);
            mains.push_back(std::move(task));
        }
    }
    const NodeId per_qpu = layers * per_task;
    Graph local(next);
    for (int e = 0; e < edges; ++e) {
        const NodeId base =
            static_cast<NodeId>(rng.uniformInt(qpus)) * per_qpu;
        const NodeId u = base + rng.uniformInt(per_qpu);
        const NodeId v = base + rng.uniformInt(per_qpu);
        if (u != v)
            local.addEdge(u, v);
    }
    // Arcs follow a random rank, so the topological order is not the
    // node-id order and ties in the measuree wait need the id rule.
    std::vector<NodeId> rank(next);
    for (NodeId u = 0; u < next; ++u)
        rank[u] = u;
    rng.shuffle(rank);
    Digraph deps(next);
    for (int a = 0; a < arcs; ++a) {
        NodeId u = rng.uniformInt(next);
        NodeId v = rng.uniformInt(next);
        if (rank[u] > rank[v])
            std::swap(u, v);
        if (u != v)
            deps.addArc(u, v);
    }
    std::vector<SyncTask> sync_tasks;
    for (int k = 0; k < syncs && qpus > 1; ++k) {
        const int qa = static_cast<int>(rng.uniformInt(qpus));
        const int qb = (qa + 1 + static_cast<int>(rng.uniformInt(qpus - 1))) %
            qpus;
        SyncTask sync;
        sync.taskA = qa * layers + static_cast<int>(rng.uniformInt(layers));
        sync.taskB = qb * layers + static_cast<int>(rng.uniformInt(layers));
        sync.u = mains[sync.taskA].nodes[0];
        sync.v = mains[sync.taskB].nodes[0];
        sync_tasks.push_back(sync);
    }
    return LayerSchedulingProblem(std::move(mains), std::move(sync_tasks),
                                  std::move(local), std::move(deps), qpus,
                                  2, pl_ratio);
}

TEST(BdirEvaluator, MatchesNodeLevelOracleOnEdgeCases)
{
    Rng rng(2024);
    const struct
    {
        const char *what;
        int qpus, layers, perTask, edges, arcs, syncs, pl;
    } cases[] = {
        {"no sync tasks", 1, 8, 3, 20, 12, 0, 1},
        {"no sync tasks, 3 QPUs", 3, 5, 2, 15, 10, 0, 2},
        {"no dependency arcs", 2, 6, 3, 18, 0, 6, 1},
        {"no local edges", 2, 6, 2, 0, 10, 5, 1},
        {"nothing but tasks", 2, 4, 2, 0, 0, 0, 3},
        {"one node per task", 3, 6, 1, 12, 9, 6, 1},
        {"dense", 2, 5, 4, 60, 40, 10, 2},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.what);
        for (int rep = 0; rep < 6; ++rep) {
            const auto lsp = randomLsp(rng, c.qpus, c.layers, c.perTask,
                                       c.edges, c.arcs, c.syncs, c.pl);
            const Schedule initial = listScheduleDefault(lsp);
            expectMatchesOracle(lsp, initial);
            for (int i = 0; i < 10; ++i)
                expectMatchesOracle(
                    lsp, randomSchedule(lsp, rng, initial.makespan + 2));
        }
    }
}

TEST(BdirEvaluator, SpansOfZeroAndCategoryTies)
{
    // Every local edge inside one task: every span is 0, and with no
    // arcs every node waits one cycle, so the measuree bottleneck is
    // node 0's task.
    {
        std::vector<MainTask> mains = {{0, 0, {2, 3}}, {0, 1, {0, 1}}};
        Graph local(4);
        local.addEdge(0, 1);
        local.addEdge(2, 3);
        LayerSchedulingProblem lsp(std::move(mains), {}, std::move(local),
                                   Digraph(4), 1, 4);
        EXPECT_TRUE(lsp.fuseeTaskPairs().empty());
        EXPECT_TRUE(lsp.depNodes().empty());
        Schedule s;
        s.mainStart = {0, 1};
        s.makespan = 2;
        expectMatchesOracle(lsp, s);
        ScheduleEvaluation evaluation;
        evaluateSchedule(lsp, s, evaluation);
        EXPECT_EQ(evaluation.bottleneck.kind,
                  ScheduleBottleneck::Kind::Measuree);
        EXPECT_EQ(evaluation.bottleneck.mainTask, 1);
        EXPECT_EQ(evaluation.metrics.tauLocal, 1);
    }

    // Nodes 2 and 0 both wait 3 cycles, and the topological order
    // reaches node 2 first: the bottleneck is still node 0's task.
    {
        std::vector<MainTask> mains;
        for (int j = 0; j < 4; ++j)
            mains.push_back({0, j, {static_cast<NodeId>(j)}});
        for (int j = 0; j < 4; ++j)
            mains.push_back({1, j, {static_cast<NodeId>(4 + j)}});
        Digraph deps(8);
        deps.addArc(3, 2); // node 2 (slot 2) waits for node 3 (slot 3)
        deps.addArc(4, 1);
        deps.addArc(1, 0); // node 0 (slot 0) waits for 4 (0), 1 (1)
        LayerSchedulingProblem lsp(std::move(mains), {}, Graph(8),
                                   std::move(deps), 2, 4);
        ASSERT_EQ(lsp.depNodes(),
                  (std::vector<NodeId>{3, 4, 2, 1, 0}));
        Schedule s;
        s.mainStart = {0, 1, 2, 3, 0, 1, 2, 3};
        s.makespan = 4;
        expectMatchesOracle(lsp, s);
        ScheduleEvaluation evaluation;
        evaluateSchedule(lsp, s, evaluation);
        EXPECT_EQ(evaluation.bottleneck.kind,
                  ScheduleBottleneck::Kind::Measuree);
        EXPECT_EQ(evaluation.bottleneck.cost, 3);
        EXPECT_EQ(evaluation.bottleneck.mainTask, 0);
    }

    // Fusee span, measuree wait and connector wait all equal 3: the
    // fusee bottleneck wins; without the edge the measuree one does;
    // the remote one wins only with a strictly larger wait.
    using Kind = ScheduleBottleneck::Kind;
    const Kind expected[] = {Kind::Fusee, Kind::Measuree, Kind::Remote};
    for (int variant = 0; variant < 3; ++variant) {
        SCOPED_TRACE("variant " + std::to_string(variant));
        std::vector<MainTask> mains;
        for (int j = 0; j < 4; ++j)
            mains.push_back({0, j, {static_cast<NodeId>(j)}});
        for (int j = 0; j < 4; ++j)
            mains.push_back({1, j, {static_cast<NodeId>(4 + j)}});
        Graph local(8);
        if (variant == 0)
            local.addEdge(0, 3); // slots 0 and 3: span 3
        Digraph deps(8);
        // Node 4 (slot 0) waits for node 5 (slot 1): MTime 3, wait 3.
        deps.addArc(5, 4);
        std::vector<SyncTask> syncs = {{2, 6, 2, 6}};
        LayerSchedulingProblem lsp(std::move(mains), std::move(syncs),
                                   std::move(local), std::move(deps), 2,
                                   4);
        Schedule s;
        s.mainStart = {0, 1, 2, 3, 0, 1, 2, 3};
        s.syncStart = {variant == 2 ? 6 : 5}; // tasks 2 and 6 at slot 2
        s.makespan = s.syncStart[0] + 1;
        expectMatchesOracle(lsp, s);
        ScheduleEvaluation evaluation;
        evaluateSchedule(lsp, s, evaluation);
        EXPECT_EQ(evaluation.bottleneck.kind, expected[variant]);
        EXPECT_EQ(evaluation.bottleneck.cost, variant == 2 ? 4 : 3);
        expectMatchesOracle(lsp, s);
    }
}

} // namespace
} // namespace dcmbqc
