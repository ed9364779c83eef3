/**
 * @file
 * Tests for the partitioning substrate: cut/imbalance metrics,
 * modularity, the multilevel k-way partitioner, matching contraction
 * and Algorithm 2 (adaptive graph partitioning), plus pins of the
 * placed artifacts downstream of the pinned partitions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "api/api.hh"
#include "circuit/generators.hh"
#include "circuit/huge_generators.hh"
#include "common/rng.hh"
#include "graph/matching.hh"
#include "mbqc/pattern_builder.hh"
#include "partition/adaptive.hh"
#include "partition/coarsen.hh"
#include "partition/modularity.hh"
#include "partition/multilevel.hh"
#include "partition/partitioning.hh"
#include "serialize/binary.hh"
#include "serialize/codecs.hh"

namespace dcmbqc
{
namespace
{

/** k dense cliques of size m, connected in a ring by single edges. */
Graph
cliqueRing(int k, int m)
{
    Graph g(k * m);
    for (int c = 0; c < k; ++c) {
        const int base = c * m;
        for (int i = 0; i < m; ++i)
            for (int j = i + 1; j < m; ++j)
                g.addEdge(base + i, base + j);
        const int next = ((c + 1) % k) * m;
        g.addEdge(base, next);
    }
    g.freeze();
    return g;
}

Graph
randomGraph(int n, int edges, std::uint64_t seed)
{
    Graph g(n);
    Rng rng(seed);
    std::set<std::pair<NodeId, NodeId>> seen;
    int added = 0;
    while (added < edges) {
        const NodeId u = static_cast<NodeId>(rng.uniformInt(n));
        const NodeId v = static_cast<NodeId>(rng.uniformInt(n));
        if (u == v || !seen.insert(std::minmax(u, v)).second)
            continue;
        g.addEdge(u, v);
        ++added;
    }
    g.freeze();
    return g;
}

TEST(Partitioning, CutAndWeights)
{
    Graph g(4);
    g.addEdge(0, 1, 2);
    g.addEdge(1, 2, 3);
    g.addEdge(2, 3, 4);
    g.freeze();
    Partitioning p({0, 0, 1, 1}, 2);
    EXPECT_EQ(p.cutWeight(g), 3);
    EXPECT_EQ(p.numCutEdges(g), 1);
    const auto w = p.partWeights(g);
    EXPECT_EQ(w[0], 2);
    EXPECT_EQ(w[1], 2);
    EXPECT_DOUBLE_EQ(p.imbalance(g), 1.0);
}

TEST(Partitioning, ImbalanceDetectsSkew)
{
    Graph g(4);
    Partitioning p({0, 0, 0, 1}, 2);
    EXPECT_DOUBLE_EQ(p.imbalance(g), 1.5);
}

TEST(Partitioning, PartMembersOrdered)
{
    Partitioning p({1, 0, 1, 0}, 2);
    const auto members = p.partMembers();
    EXPECT_EQ(members[0], (std::vector<NodeId>{1, 3}));
    EXPECT_EQ(members[1], (std::vector<NodeId>{0, 2}));
}

TEST(Modularity, PerfectCommunitiesScoreHigh)
{
    const Graph g = cliqueRing(4, 6);
    std::vector<int> assign(g.numNodes());
    for (NodeId u = 0; u < g.numNodes(); ++u)
        assign[u] = u / 6;
    const double q_good = modularity(g, Partitioning(assign, 4));
    const double q_single =
        modularity(g, Partitioning(g.numNodes(), 1));
    EXPECT_GT(q_good, 0.6);
    EXPECT_NEAR(q_single, 0.0, 1e-9);
}

TEST(Modularity, EmptyGraphIsZero)
{
    Graph g(3);
    EXPECT_DOUBLE_EQ(modularity(g, Partitioning(3, 2)), 0.0);
}

TEST(Multilevel, BalancedBisection)
{
    const Graph g = cliqueRing(2, 20);
    MultilevelConfig cfg;
    cfg.k = 2;
    cfg.alpha = 1.0;
    const auto p = MultilevelPartitioner(cfg).partition(g);
    EXPECT_EQ(p.numParts(), 2);
    // Perfect split: one clique per part, cut = 2 ring edges.
    EXPECT_LE(p.cutWeight(g), 4);
    EXPECT_LE(p.imbalance(g), 1.1);
}

TEST(Multilevel, FourWayOnCliqueRing)
{
    const Graph g = cliqueRing(4, 16);
    MultilevelConfig cfg;
    cfg.k = 4;
    const auto p = MultilevelPartitioner(cfg).partition(g);
    EXPECT_LE(p.imbalance(g), 1.15);
    EXPECT_LE(p.cutWeight(g), 10);
}

TEST(Multilevel, RespectsBalanceOnRandomGraph)
{
    const Graph g = randomGraph(300, 900, 21);
    for (int k : {2, 4, 8}) {
        MultilevelConfig cfg;
        cfg.k = k;
        cfg.alpha = 1.0;
        const auto p = MultilevelPartitioner(cfg).partition(g);
        // One max-weight node of slack is tolerated by design.
        EXPECT_LE(p.imbalance(g), 1.0 + (1.0 * k) / 300 + 0.05)
            << "k=" << k;
    }
}

TEST(Multilevel, CutBeatsRandomAssignment)
{
    const Graph g = cliqueRing(8, 12);
    MultilevelConfig cfg;
    cfg.k = 8;
    const auto p = MultilevelPartitioner(cfg).partition(g);

    Rng rng(5);
    std::vector<int> random_assign(g.numNodes());
    for (auto &a : random_assign)
        a = static_cast<int>(rng.uniformInt(8));
    const auto cut_random =
        Partitioning(random_assign, 8).cutWeight(g);
    EXPECT_LT(p.cutWeight(g), cut_random / 2);
}

TEST(Multilevel, SinglePartTrivial)
{
    const Graph g = cliqueRing(2, 5);
    MultilevelConfig cfg;
    cfg.k = 1;
    const auto p = MultilevelPartitioner(cfg).partition(g);
    EXPECT_EQ(p.cutWeight(g), 0);
}

TEST(Multilevel, DeterministicForSeed)
{
    const Graph g = randomGraph(200, 600, 33);
    MultilevelConfig cfg;
    cfg.k = 4;
    cfg.seed = 99;
    const auto a = MultilevelPartitioner(cfg).partition(g);
    const auto b = MultilevelPartitioner(cfg).partition(g);
    EXPECT_EQ(a.assignment(), b.assignment());
}

TEST(RefineBoundary, ImprovesBadPartition)
{
    const Graph g = cliqueRing(2, 10);
    // Start from a deliberately bad split (alternating).
    std::vector<int> assign(g.numNodes());
    for (NodeId u = 0; u < g.numNodes(); ++u)
        assign[u] = u % 2;
    Partitioning p(assign, 2);
    const auto before = p.cutWeight(g);
    for (int i = 0; i < 8; ++i)
        refineBoundaryPass(g, p, 11);
    EXPECT_LT(p.cutWeight(g), before);
}

TEST(Adaptive, FindsCommunityAlignedPartition)
{
    const Graph g = cliqueRing(4, 12);
    AdaptiveConfig cfg;
    cfg.k = 4;
    const auto result = adaptivePartition(g, cfg);
    EXPECT_GT(result.modularity, 0.55);
    EXPECT_LE(result.best.imbalance(g), cfg.alphaMax + 0.1);
    EXPECT_GE(result.probes, 1);
    EXPECT_EQ(result.cutEdges, result.best.numCutEdges(g));
}

TEST(Adaptive, RespectsAlphaMax)
{
    const Graph g = randomGraph(200, 700, 55);
    AdaptiveConfig cfg;
    cfg.k = 4;
    cfg.alphaMax = 1.5;
    const auto result = adaptivePartition(g, cfg);
    EXPECT_LE(result.alphaAtBest, 1.5 + 1e-9);
    // Slack: one max-weight node as in the multilevel contract.
    EXPECT_LE(result.best.imbalance(g), 1.5 + 4.0 * 4 / 200);
}

TEST(Adaptive, TerminatesOnStagnation)
{
    const Graph g = cliqueRing(2, 8);
    AdaptiveConfig cfg;
    cfg.k = 2;
    cfg.maxIterations = 64;
    const auto result = adaptivePartition(g, cfg);
    EXPECT_LT(result.probes, 64);
}

// --- Pinned Algorithm-2 results ---------------------------------------------
//
// adaptivePartition's full output on the paper's Table II programs.
// Any change to the partitioner's internals (coarsening layout,
// buffer reuse, candidate memoization) must keep these bytes: the
// partition feeds every later pass, so a moved hash here moves
// artifacts, cycles and cache contents.

/** 64-bit FNV-1a over the assignment's 32-bit little-endian words. */
std::uint64_t
assignmentHash(const Partitioning &p)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (int part : p.assignment()) {
        const auto word = static_cast<std::uint32_t>(part);
        for (int byte = 0; byte < 4; ++byte) {
            hash ^= (word >> (8 * byte)) & 0xffu;
            hash *= 0x100000001b3ull;
        }
    }
    return hash;
}

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

struct AdaptivePin
{
    const char *family;
    int qubits;
    int k;
    std::uint64_t hash;
    int probes;
    double alphaAtBest;
    int cutEdges;
};

const AdaptivePin kAdaptivePins[] = {
    {"vqe", 16, 4, 0xe9c43023355507a6ull, 2, 1.02, 47},
    {"vqe", 16, 8, 0x4587d16dac77e3b5ull, 2, 1.02, 87},
    {"vqe", 36, 4, 0xf37793fa494e35b4ull, 2, 1.02, 96},
    {"vqe", 36, 8, 0x747c6c0971b29305ull, 256, 1.0404, 237},
    {"qaoa", 16, 4, 0x62d11d2866eb8fb5ull, 3, 1.0404, 40},
    {"qaoa", 16, 8, 0x913c31c16774fec3ull, 2, 1.02, 76},
    {"qft", 16, 4, 0x3ab908838eb17c34ull, 2, 1.02, 33},
    {"qft", 16, 8, 0xe9d03077d86827b0ull, 5, 1.02, 60},
    {"qft", 36, 4, 0x9886988d01ad3505ull, 2, 1.0, 80},
    {"qft", 36, 8, 0x1c844b67dbdf0c93ull, 2, 1.02, 152},
    {"rca", 16, 4, 0x654fec5577407445ull, 2, 1.0, 22},
    {"rca", 16, 8, 0x296f719b6f0dca03ull, 3, 1.0404, 30},
    {"rca", 36, 4, 0x21bfdc8443154366ull, 2, 1.02, 16},
    {"rca", 36, 8, 0xa596c176ae264d46ull, 2, 1.02, 45},
    {"qft", 81, 8, 0x4cf0027e83fd2f00ull, 2, 1.02, 340},
};

TEST(AdaptivePins, TableTwoPartitionsAreByteStable)
{
    for (const AdaptivePin &pin : kAdaptivePins) {
        const std::string name = std::string(pin.family) + "-" +
            std::to_string(pin.qubits) + "@" + std::to_string(pin.k);
        SCOPED_TRACE(name);
        const Pattern pattern =
            buildPattern(tableTwoProgram(pin.family, pin.qubits));
        AdaptiveConfig config;
        config.k = pin.k;
        const AdaptiveResult result =
            adaptivePartition(pattern.graph(), config);
        EXPECT_EQ(assignmentHash(result.best), pin.hash);
        EXPECT_EQ(result.probes, pin.probes);
        EXPECT_EQ(result.alphaAtBest, pin.alphaAtBest);
        EXPECT_EQ(result.cutEdges, pin.cutEdges);
    }
}

TEST(AdaptivePins, ReusedWorkspaceMatchesFreshCalls)
{
    const Graph vqe36 = buildPattern(makeVqe(36)).graph();
    const Graph qft16 = buildPattern(makeQft(16)).graph();
    const Graph rca36 = buildPattern(makeRippleCarryAdder(36)).graph();
    const Graph ring = cliqueRing(4, 12);

    // Interleave graphs and part counts so every buffer is resized
    // both ways and the slab memo sees a new graph or k each time.
    const std::vector<std::pair<const Graph *, int>> sequence = {
        {&vqe36, 8}, {&qft16, 4}, {&rca36, 8}, {&ring, 4},
        {&qft16, 8}, {&vqe36, 4}, {&rca36, 4}, {&qft16, 4},
    };
    PartitionWorkspace workspace;
    for (std::size_t i = 0; i < sequence.size(); ++i) {
        const Graph &g = *sequence[i].first;
        AdaptiveConfig config;
        config.k = sequence[i].second;
        SCOPED_TRACE("step " + std::to_string(i) + ": k=" +
                     std::to_string(config.k));
        const AdaptiveResult fresh = adaptivePartition(g, config);
        const AdaptiveResult reused =
            adaptivePartition(g, config, nullptr, &workspace);
        EXPECT_EQ(reused.best.assignment(), fresh.best.assignment());
        EXPECT_EQ(reused.probes, fresh.probes);
        EXPECT_EQ(reused.alphaAtBest, fresh.alphaAtBest);
        EXPECT_EQ(reused.modularity, fresh.modularity);
        EXPECT_EQ(reused.cutEdges, fresh.cutEdges);
    }

    // A different graph at the same address: adaptivePartition
    // rebinds on entry, so nothing memoized for the old one leaks.
    Graph slot = qft16;
    AdaptiveConfig config;
    config.k = 4;
    adaptivePartition(slot, config, nullptr, &workspace);
    slot = rca36;
    EXPECT_EQ(adaptivePartition(slot, config, nullptr, &workspace)
                  .best.assignment(),
              adaptivePartition(rca36, config).best.assignment());

    // Direct multilevel calls rebind when handed another graph.
    for (double alpha : {1.0, 1.2, 1.0}) {
        for (const Graph *g : {&vqe36, &ring}) {
            MultilevelConfig ml;
            ml.k = 4;
            ml.alpha = alpha;
            const MultilevelPartitioner partitioner(ml);
            EXPECT_EQ(partitioner.partition(*g, workspace).assignment(),
                      partitioner.partition(*g).assignment());
        }
    }
}

// --- Placement pins --------------------------------------------------------

/**
 * A compile at the CLI's defaults (grid gridSizeForQubits, kmax 4,
 * Star5, BDIR on, seed 1) reduced to FNV-1a hashes of what it placed:
 * the local schedule artifact of every QPU, then the distributed
 * schedule artifact. The baseline has one local schedule only.
 */
std::vector<std::uint64_t>
placementHashes(const CompileRequest &request, int qpus, int qubits,
                int window = 0)
{
    CompileOptions options;
    options.numQpus(qpus)
        .kmax(4)
        .gridSize(gridSizeForQubits(qubits))
        .resourceState(ResourceStateType::Star5)
        .useBdir(true)
        .seed(1);
    if (window > 0)
        options.window(window);
    const CompilerDriver driver(options);
    const auto hash = [](const std::vector<std::uint8_t> &bytes) {
        return fnv1a64(bytes.data(), bytes.size());
    };
    std::vector<std::uint64_t> hashes;
    if (qpus == 1) {
        auto report = driver.compileBaseline(request);
        EXPECT_TRUE(report.ok()) << report.status().toString();
        if (report.ok())
            hashes.push_back(hash(encodeLocalScheduleArtifact(
                report->baselineResult().schedule)));
        return hashes;
    }
    auto report = driver.compile(request);
    EXPECT_TRUE(report.ok()) << report.status().toString();
    if (!report.ok())
        return hashes;
    for (const LocalSchedule &local : report->result().localSchedules)
        hashes.push_back(hash(encodeLocalScheduleArtifact(local)));
    hashes.push_back(hash(encodeScheduleArtifact(report->result().schedule)));
    return hashes;
}

std::vector<std::uint64_t>
tableTwoPlacement(const std::string &family, int qubits, int qpus)
{
    return placementHashes(
        CompileRequest::fromCircuit(tableTwoProgram(family, qubits)), qpus,
        qubits);
}

TEST(PlacementPins, CliDefaultCompilesAreByteStable)
{
    // The partition pins fix what the single-QPU placer is handed;
    // these fix what it builds. A route that consumes other cells
    // than before moves later routes and layers, so a change to the
    // router that keeps every hop count can still move these.
    using Hashes = std::vector<std::uint64_t>;
    EXPECT_EQ(tableTwoPlacement("vqe", 81, 8),
              (Hashes{
                  0x920238531eef5c94ull, 0x0450a4da0fd1cc9aull,
                  0x263ef454bf661e51ull, 0x28a01674eb565a7bull,
                  0x358d68dfdd1bacfcull, 0x9ad977f030f842e5ull,
                  0x0d69fcb77e97fc6eull, 0xc045d13db38a2a27ull,
                  0x738ae17524939329ull}));
    EXPECT_EQ(tableTwoPlacement("vqe", 100, 4),
              (Hashes{
                  0xd4e417b89a23584full, 0xca996fa801a09efeull,
                  0xd91003966de8a69dull, 0x382997758e49abb2ull,
                  0xd5296bab340ac18dull}));
    EXPECT_EQ(tableTwoPlacement("qft", 100, 8),
              (Hashes{
                  0xbd4c27e3f3dfcd87ull, 0x0fa354c57e7553cbull,
                  0x6a4bd9cc16572480ull, 0xbc0e5e36b67f1aabull,
                  0xbb7c8857887ef3cdull, 0xd11f13f1fffb2708ull,
                  0xd646b3f8ada9f970ull, 0xff6b3d93d49981faull,
                  0x771e56e83e5560ecull}));
    EXPECT_EQ(tableTwoPlacement("rca", 81, 1),
              (Hashes{0xf5a95ea470102c7cull}));
    EXPECT_EQ(placementHashes(CompileRequest::fromCircuitStream(
                                  makeGraphStateStream(46, 46)),
                              4, 46 * 46, 256),
              (Hashes{
                  0xdc834fc93a88e300ull, 0x50d50f4045591e35ull,
                  0x64b408423f3e0711ull, 0x14b511de31190a3dull,
                  0x6156fcf0c7d01b1full}));
}

// --- Contraction layout ----------------------------------------------------

/**
 * The coarse graph with parallel edges merged at their first
 * occurrence: the first fine edge onto a coarse pair fixes the coarse
 * edge's id and (u, v) orientation, later ones add their weight.
 * This is the layout the contraction must reproduce.
 */
Graph
mergedContraction(const Graph &g, const std::vector<NodeId> &to_coarse,
                  NodeId num_coarse)
{
    Graph coarse(num_coarse);
    std::vector<int> weights(num_coarse, 0);
    for (NodeId u = 0; u < g.numNodes(); ++u)
        weights[to_coarse[u]] += g.nodeWeight(u);
    for (NodeId c = 0; c < num_coarse; ++c)
        coarse.setNodeWeight(c, weights[c]);
    std::vector<Edge> merged;
    std::map<std::pair<NodeId, NodeId>, std::size_t> index;
    for (const auto &e : g.edges()) {
        const NodeId cu = to_coarse[e.u];
        const NodeId cv = to_coarse[e.v];
        if (cu == cv)
            continue;
        const auto [it, fresh] =
            index.emplace(std::minmax(cu, cv), merged.size());
        if (fresh)
            merged.push_back({cu, cv, e.weight});
        else
            merged[it->second].weight += e.weight;
    }
    for (const Edge &e : merged)
        coarse.addEdge(e.u, e.v, e.weight);
    coarse.freeze();
    return coarse;
}

void
expectSameLayout(const Graph &flat, const Graph &merged)
{
    ASSERT_TRUE(flat.frozen());
    ASSERT_EQ(flat.numNodes(), merged.numNodes());
    ASSERT_EQ(flat.numEdges(), merged.numEdges());
    for (EdgeId e = 0; e < merged.numEdges(); ++e) {
        EXPECT_EQ(flat.edges()[e].u, merged.edge(e).u) << "edge " << e;
        EXPECT_EQ(flat.edges()[e].v, merged.edge(e).v) << "edge " << e;
        EXPECT_EQ(flat.edges()[e].weight, merged.edge(e).weight)
            << "edge " << e;
    }
    for (NodeId u = 0; u < merged.numNodes(); ++u) {
        EXPECT_EQ(flat.nodeWeight(u), merged.nodeWeight(u));
        const auto want = merged.adjacency(u);
        ASSERT_EQ(flat.adjacency(u).size(), want.size()) << "node " << u;
        std::size_t i = 0;
        for (const auto &adj : flat.adjacency(u)) {
            EXPECT_EQ(adj.neighbor, want[i].neighbor) << "node " << u;
            EXPECT_EQ(adj.edge, want[i].edge) << "node " << u;
            EXPECT_EQ(adj.weight, want[i].weight) << "node " << u;
            ++i;
        }
    }
}

TEST(Contraction, FlatLevelsMatchMergedAddEdgeLayout)
{
    // Weighted multigraph: parallel fine edges must merge as well.
    Graph multi(40);
    Rng edge_rng(4);
    for (int i = 0; i < 160; ++i) {
        const auto u = static_cast<NodeId>(edge_rng.uniformInt(40));
        const auto v = static_cast<NodeId>(edge_rng.uniformInt(40));
        if (u != v)
            multi.addEdge(u, v, 1 + static_cast<int>(edge_rng.uniformInt(3)));
    }
    for (NodeId u = 0; u < multi.numNodes(); ++u)
        multi.setNodeWeight(u, 1 + u % 3);
    multi.freeze();

    const std::vector<Graph> corpus = {
        multi,
        randomGraph(300, 900, 21),
        buildPattern(makeQft(16)).graph(),
        buildPattern(makeVqe(16)).graph(),
    };
    Contractor contractor;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        SCOPED_TRACE("graph " + std::to_string(i));
        Rng rng(100 + i);
        std::vector<NodeId> match;
        std::vector<NodeId> order;
        std::vector<NodeId> to_coarse;

        heavyEdgeMatching(corpus[i], rng, match, order);
        Graph level1;
        contractor.contract(corpus[i], match, to_coarse, level1);
        const Graph merged1 =
            mergedContraction(corpus[i], to_coarse, level1.numNodes());
        expectSameLayout(level1, merged1);

        // One level further, from the flat form.
        heavyEdgeMatching(level1, rng, match, order);
        std::vector<NodeId> merged_match;
        Rng replay(100 + i);
        heavyEdgeMatching(corpus[i], replay, merged_match, order);
        heavyEdgeMatching(merged1, replay, merged_match, order);
        EXPECT_EQ(match, merged_match);
        Graph level2;
        contractor.contract(level1, match, to_coarse, level2);
        expectSameLayout(level2, mergedContraction(merged1, to_coarse,
                                                   level2.numNodes()));
    }
}

} // namespace
} // namespace dcmbqc
