/**
 * @file
 * Unit tests for the graph substrate: Graph, Digraph, BFS, connected
 * components, RCM ordering, bandwidth and heavy-edge matching.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.hh"
#include "graph/algorithms.hh"
#include "graph/digraph.hh"
#include "graph/graph.hh"
#include "graph/matching.hh"

namespace dcmbqc
{
namespace
{

Graph
pathGraph(int n)
{
    Graph g(n);
    for (NodeId u = 0; u + 1 < n; ++u)
        g.addEdge(u, u + 1);
    g.freeze();
    return g;
}

Graph
gridGraph(int rows, int cols)
{
    Graph g(rows * cols);
    auto id = [&](int r, int c) { return r * cols + c; };
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c) {
            if (r + 1 < rows)
                g.addEdge(id(r, c), id(r + 1, c));
            if (c + 1 < cols)
                g.addEdge(id(r, c), id(r, c + 1));
        }
    g.freeze();
    return g;
}

TEST(Graph, AddNodesAndEdges)
{
    Graph g(3);
    EXPECT_EQ(g.numNodes(), 3);
    const auto e = g.addEdge(0, 1, 5);
    EXPECT_FALSE(g.frozen());
    g.freeze();
    EXPECT_TRUE(g.frozen());
    EXPECT_EQ(g.numEdges(), 1);
    EXPECT_EQ(g.edge(e).weight, 5);
    EXPECT_TRUE(g.hasEdge(0, 1));
    EXPECT_TRUE(g.hasEdge(1, 0));
    EXPECT_FALSE(g.hasEdge(0, 2));
    EXPECT_EQ(g.degree(0), 1);
    EXPECT_EQ(g.degree(2), 0);
}

/**
 * The layout an append loop over the edge list gives: each edge is
 * pushed onto both endpoints' lists in edge-id order.
 */
std::vector<std::vector<Adjacency>>
appendedAdjacency(NodeId n, const std::vector<Edge> &edges)
{
    std::vector<std::vector<Adjacency>> adjacency(n);
    for (EdgeId e = 0; e < static_cast<EdgeId>(edges.size()); ++e) {
        adjacency[edges[e].u].push_back({edges[e].v, e, edges[e].weight});
        adjacency[edges[e].v].push_back({edges[e].u, e, edges[e].weight});
    }
    return adjacency;
}

void
expectAdjacency(const Graph &g,
                const std::vector<std::vector<Adjacency>> &want)
{
    ASSERT_EQ(static_cast<std::size_t>(g.numNodes()), want.size());
    for (NodeId u = 0; u < g.numNodes(); ++u) {
        ASSERT_EQ(g.adjacency(u).size(), want[u].size()) << "node " << u;
        EXPECT_EQ(g.degree(u), static_cast<int>(want[u].size()));
        for (std::size_t i = 0; i < want[u].size(); ++i) {
            EXPECT_EQ(g.adjacency(u)[i].neighbor, want[u][i].neighbor);
            EXPECT_EQ(g.adjacency(u)[i].edge, want[u][i].edge);
            EXPECT_EQ(g.adjacency(u)[i].weight, want[u][i].weight);
        }
    }
}

TEST(Graph, FrozenMultigraphKeepsEdgeOrderAndParallelEdges)
{
    // Weighted multigraph with repeated pairs in both orientations.
    Graph g;
    Rng rng(11);
    for (int u = 0; u < 12; ++u)
        g.addNode(1 + u % 4);
    std::vector<Edge> edges;
    for (int i = 0; i < 60; ++i) {
        const auto u = static_cast<NodeId>(rng.uniformInt(12));
        const auto v = static_cast<NodeId>(rng.uniformInt(12));
        if (u == v)
            continue;
        const int w = 1 + static_cast<int>(rng.uniformInt(5));
        EXPECT_EQ(g.addEdge(u, v, w), static_cast<EdgeId>(edges.size()));
        edges.push_back({u, v, w});
    }
    g.addEdge(0, 1, 2);
    g.addEdge(1, 0, 3);
    edges.push_back({0, 1, 2});
    edges.push_back({1, 0, 3});
    g.freeze();

    // Parallel edges stay distinct, each run is in edge-id order.
    ASSERT_EQ(g.numEdges(), static_cast<EdgeId>(edges.size()));
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        EXPECT_EQ(g.edge(e).u, edges[e].u);
        EXPECT_EQ(g.edge(e).v, edges[e].v);
        EXPECT_EQ(g.edge(e).weight, edges[e].weight);
    }
    expectAdjacency(g, appendedAdjacency(12, edges));
    for (NodeId u = 0; u < g.numNodes(); ++u)
        for (std::size_t i = 1; i < g.adjacency(u).size(); ++i)
            EXPECT_LT(g.adjacency(u)[i - 1].edge, g.adjacency(u)[i].edge);

    // The induced subgraph keeps the surviving edges in order.
    const std::vector<NodeId> members = {7, 1, 0, 4, 9, 2};
    std::vector<NodeId> to_sub;
    const Graph sub = g.inducedSubgraph(members, &to_sub);
    ASSERT_TRUE(sub.frozen());
    std::vector<Edge> kept;
    for (const Edge &e : edges)
        if (to_sub[e.u] != invalidNode && to_sub[e.v] != invalidNode)
            kept.push_back({to_sub[e.u], to_sub[e.v], e.weight});
    ASSERT_EQ(sub.numEdges(), static_cast<EdgeId>(kept.size()));
    for (std::size_t i = 0; i < members.size(); ++i)
        EXPECT_EQ(sub.nodeWeight(static_cast<NodeId>(i)),
                  g.nodeWeight(members[i]));
    expectAdjacency(sub, appendedAdjacency(6, kept));
}

TEST(Graph, WeightsAndTotals)
{
    Graph g(3);
    g.setNodeWeight(0, 4);
    g.addEdge(0, 1, 2);
    g.addEdge(1, 2, 3);
    g.freeze();
    EXPECT_EQ(g.totalNodeWeight(), 4 + 1 + 1);
    EXPECT_EQ(g.degree(1), 2);
}

TEST(Graph, InducedSubgraph)
{
    Graph g(5);
    for (NodeId u = 0; u + 1 < 5; ++u)
        g.addEdge(u, u + 1);
    g.setNodeWeight(3, 7);
    g.freeze();
    std::vector<NodeId> map;
    const Graph sub = g.inducedSubgraph({1, 2, 3}, &map);
    EXPECT_EQ(sub.numNodes(), 3);
    EXPECT_EQ(sub.numEdges(), 2);
    EXPECT_TRUE(sub.hasEdge(0, 1));
    EXPECT_TRUE(sub.hasEdge(1, 2));
    EXPECT_EQ(sub.nodeWeight(2), 7);
    EXPECT_EQ(map[0], invalidNode);
    EXPECT_EQ(map[1], 0);
    EXPECT_EQ(map[4], invalidNode);
}

TEST(Digraph, TopologicalSortDag)
{
    Digraph d(4);
    d.addArc(0, 1);
    d.addArc(1, 2);
    d.addArc(0, 3);
    d.addArc(3, 2);
    std::vector<NodeId> order;
    EXPECT_TRUE(d.topologicalSort(order));
    std::vector<int> pos(4);
    for (int i = 0; i < 4; ++i)
        pos[order[i]] = i;
    EXPECT_LT(pos[0], pos[1]);
    EXPECT_LT(pos[1], pos[2]);
    EXPECT_LT(pos[3], pos[2]);
}

TEST(Digraph, DetectsCycle)
{
    Digraph d(3);
    d.addArc(0, 1);
    d.addArc(1, 2);
    d.addArc(2, 0);
    EXPECT_FALSE(d.isAcyclic());
}

TEST(Digraph, LongestPath)
{
    Digraph d(5);
    d.addArc(0, 1);
    d.addArc(1, 2);
    d.addArc(2, 3);
    d.addArc(0, 4);
    const auto dist = d.longestPathTo();
    EXPECT_EQ(dist[3], 3);
    EXPECT_EQ(dist[4], 1);
    EXPECT_EQ(dist[0], 0);
}

TEST(Algorithms, BfsDistancesOnPath)
{
    const Graph g = pathGraph(6);
    const auto dist = bfsDistances(g, 0);
    for (int u = 0; u < 6; ++u)
        EXPECT_EQ(dist[u], u);
}

TEST(Algorithms, BfsUnreachable)
{
    Graph g(4);
    g.addEdge(0, 1);
    g.freeze();
    const auto dist = bfsDistances(g, 0);
    EXPECT_EQ(dist[2], -1);
    EXPECT_EQ(dist[3], -1);
}

TEST(Algorithms, ConnectedComponents)
{
    Graph g(6);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.addEdge(3, 4);
    g.freeze();
    std::vector<int> comp;
    EXPECT_EQ(connectedComponents(g, comp), 3);
    EXPECT_EQ(comp[0], comp[2]);
    EXPECT_EQ(comp[3], comp[4]);
    EXPECT_NE(comp[0], comp[3]);
    EXPECT_NE(comp[3], comp[5]);
}

TEST(Algorithms, RcmCoversAllNodes)
{
    const Graph g = gridGraph(5, 7);
    const auto order = reverseCuthillMcKee(g);
    ASSERT_EQ(order.size(), 35u);
    std::vector<char> seen(35, 0);
    for (NodeId u : order) {
        ASSERT_FALSE(seen[u]);
        seen[u] = 1;
    }
}

TEST(Algorithms, RcmReducesBandwidth)
{
    // A random-labelled grid graph: RCM should achieve bandwidth far
    // below a random labelling.
    const Graph g = gridGraph(8, 8);
    const auto order = reverseCuthillMcKee(g);
    const auto pos = inversePermutation(order);
    const int rcm_bw = bandwidth(g, pos);

    std::vector<int> identity(g.numNodes());
    std::iota(identity.begin(), identity.end(), 0);
    const int natural_bw = bandwidth(g, identity);

    EXPECT_LE(rcm_bw, natural_bw + 2);
    EXPECT_LE(rcm_bw, 12); // optimal is 8 for an 8x8 grid
}

TEST(Algorithms, PseudoPeripheralOnPathIsEnd)
{
    const Graph g = pathGraph(9);
    const NodeId p = pseudoPeripheralNode(g, 4);
    EXPECT_TRUE(p == 0 || p == 8);
}

TEST(Matching, MatchesDisjointPairs)
{
    const Graph g = pathGraph(8);
    Rng rng(3);
    std::vector<NodeId> match;
    std::vector<NodeId> order;
    const int pairs = heavyEdgeMatching(g, rng, match, order);
    EXPECT_GE(pairs, 2);
    for (NodeId u = 0; u < 8; ++u) {
        ASSERT_GE(match[u], 0);
        EXPECT_EQ(match[match[u]], u); // involution
        if (match[u] != u)
            EXPECT_TRUE(g.hasEdge(u, match[u]));
    }
}

TEST(Matching, PrefersHeavyEdges)
{
    Graph g(3);
    g.addEdge(0, 1, 1);
    g.addEdge(1, 2, 100);
    g.freeze();
    Rng rng(5);
    std::vector<NodeId> match;
    std::vector<NodeId> order;
    heavyEdgeMatching(g, rng, match, order);
    EXPECT_EQ(match[1], 2);
    EXPECT_EQ(match[0], 0);
}

TEST(Matching, IsolatedNodesSelfMatched)
{
    Graph g(3);
    g.addEdge(0, 1);
    g.freeze();
    Rng rng(7);
    std::vector<NodeId> match;
    std::vector<NodeId> order;
    heavyEdgeMatching(g, rng, match, order);
    EXPECT_EQ(match[2], 2);
}

} // namespace
} // namespace dcmbqc
