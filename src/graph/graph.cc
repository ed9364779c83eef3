#include "graph/graph.hh"

#include <utility>

#include "common/logging.hh"

namespace dcmbqc
{

Graph::Graph(NodeId num_nodes) : nodeWeights_(num_nodes, 1) {}

NodeId
Graph::addNode(int weight)
{
    DCMBQC_ASSERT(!frozen(), "addNode on a frozen graph");
    nodeWeights_.push_back(weight);
    return static_cast<NodeId>(nodeWeights_.size() - 1);
}

EdgeId
Graph::addEdge(NodeId u, NodeId v, int weight)
{
    DCMBQC_ASSERT(!frozen(), "addEdge on a frozen graph");
    DCMBQC_ASSERT(u >= 0 && u < numNodes(), "addEdge: bad u=", u);
    DCMBQC_ASSERT(v >= 0 && v < numNodes(), "addEdge: bad v=", v);
    DCMBQC_ASSERT(u != v, "addEdge: self loop at ", u);
    edges_.push_back({u, v, weight});
    return static_cast<EdgeId>(edges_.size() - 1);
}

void
Graph::setNodeWeight(NodeId u, int w)
{
    DCMBQC_ASSERT(!frozen(), "setNodeWeight on a frozen graph");
    nodeWeights_[u] = w;
}

void
Graph::freeze()
{
    if (frozen())
        return;
    // Count degrees into offsets_[u + 1] and prefix-sum them, so
    // offsets_[u] is u's first slot; fill each run in edge order
    // using offsets_[u] as its cursor, which leaves it at u's end,
    // then shift back by one node.
    const NodeId n = numNodes();
    offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
    for (const Edge &e : edges_) {
        ++offsets_[e.u + 1];
        ++offsets_[e.v + 1];
    }
    for (NodeId u = 0; u < n; ++u)
        offsets_[u + 1] += offsets_[u];
    adjacency_.resize(offsets_[n]);
    for (EdgeId e = 0; e < numEdges(); ++e) {
        const Edge &edge = edges_[e];
        adjacency_[offsets_[edge.u]++] = {edge.v, e, edge.weight};
        adjacency_[offsets_[edge.v]++] = {edge.u, e, edge.weight};
    }
    for (NodeId u = n; u > 0; --u)
        offsets_[u] = offsets_[u - 1];
    offsets_[0] = 0;
}

bool
Graph::hasEdge(NodeId u, NodeId v) const
{
    const NodeId probe = degree(u) <= degree(v) ? u : v;
    const NodeId other = probe == u ? v : u;
    for (const auto &adj : adjacency(probe))
        if (adj.neighbor == other)
            return true;
    return false;
}

long long
Graph::totalNodeWeight() const
{
    long long total = 0;
    for (int w : nodeWeights_)
        total += w;
    return total;
}

Graph
Graph::inducedSubgraph(const std::vector<NodeId> &nodes,
                       std::vector<NodeId> *to_sub) const
{
    std::vector<NodeId> map(numNodes(), invalidNode);
    Graph sub(static_cast<NodeId>(nodes.size()));
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        DCMBQC_ASSERT(map[nodes[i]] == invalidNode,
                      "duplicate node in subgraph selection");
        map[nodes[i]] = static_cast<NodeId>(i);
        sub.nodeWeights_[i] = nodeWeight(nodes[i]);
    }
    for (const auto &e : edges_) {
        const NodeId su = map[e.u];
        const NodeId sv = map[e.v];
        if (su != invalidNode && sv != invalidNode)
            sub.edges_.push_back({su, sv, e.weight});
    }
    sub.freeze();
    if (to_sub)
        *to_sub = std::move(map);
    return sub;
}

} // namespace dcmbqc
