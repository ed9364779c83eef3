/**
 * @file
 * Undirected weighted graph. This is the representation used for
 * MBQC graph states, computation graphs (nodes = resource units,
 * edges = fusions, as in OneQ), and the partitioner's coarsened
 * graphs.
 *
 * A graph is built by appending nodes and edges, then frozen once
 * into flat CSR form: node weights, per-node offsets into one
 * adjacency array, and the edge list. Edges are never merged, so
 * parallel edges stay distinct, and freezing lays every node's
 * adjacency out in edge-id order. After freezing the graph is
 * read-only.
 */

#ifndef DCMBQC_GRAPH_GRAPH_HH
#define DCMBQC_GRAPH_GRAPH_HH

#include <cstddef>
#include <vector>

#include "common/types.hh"

namespace dcmbqc
{

/** One endpoint record in an adjacency list. */
struct Adjacency
{
    NodeId neighbor;
    EdgeId edge;
    int weight;
};

/** An undirected edge with an integer weight. */
struct Edge
{
    NodeId u;
    NodeId v;
    int weight;
};

/**
 * Undirected graph with integer node and edge weights.
 *
 * Node weights default to 1 and represent resource units for
 * workload balancing; edge weights default to 1 and represent fusion
 * multiplicity after coarsening. addNode / addEdge / setNodeWeight
 * apply before freeze(); adjacency queries apply after it.
 */
class Graph
{
  public:
    /** A node's adjacency: a contiguous run of the CSR array. */
    struct AdjacencyRange
    {
        const Adjacency *first;
        const Adjacency *last;

        const Adjacency *begin() const { return first; }
        const Adjacency *end() const { return last; }
        std::size_t size() const
        {
            return static_cast<std::size_t>(last - first);
        }
        const Adjacency &operator[](std::size_t i) const
        {
            return first[i];
        }
    };

    Graph() = default;

    /** Construct with a fixed number of isolated weight-1 nodes. */
    explicit Graph(NodeId num_nodes);

    /** Append a new isolated node and return its id. */
    NodeId addNode(int weight = 1);

    /** Append an undirected edge between u and v; returns its id. */
    EdgeId addEdge(NodeId u, NodeId v, int weight = 1);

    void setNodeWeight(NodeId u, int w);

    /**
     * Build the CSR adjacency, each node's run in edge-id order.
     * No-op on a frozen graph.
     */
    void freeze();

    bool frozen() const { return !offsets_.empty(); }

    /** True when an edge between u and v exists (scans adjacency). */
    bool hasEdge(NodeId u, NodeId v) const;

    NodeId numNodes() const { return static_cast<NodeId>(nodeWeights_.size()); }
    EdgeId numEdges() const { return static_cast<EdgeId>(edges_.size()); }

    int nodeWeight(NodeId u) const { return nodeWeights_[u]; }

    /** Sum of all node weights. */
    long long totalNodeWeight() const;

    const Edge &edge(EdgeId e) const { return edges_[e]; }
    const std::vector<Edge> &edges() const { return edges_; }

    /** Adjacency of node u (neighbor, edge id, weight triples). */
    AdjacencyRange adjacency(NodeId u) const
    {
        return {adjacency_.data() + offsets_[u],
                adjacency_.data() + offsets_[u + 1]};
    }

    /** Unweighted degree of node u. */
    int degree(NodeId u) const
    {
        return static_cast<int>(offsets_[u + 1] - offsets_[u]);
    }

    /**
     * Extract the subgraph induced by the given nodes, frozen.
     *
     * @param nodes Node ids of the subgraph, in the order they should
     *        be numbered in the result.
     * @param to_sub Optional out-map from original id to subgraph id
     *        (invalidNode for nodes outside the subgraph).
     * @return The induced subgraph; node i corresponds to nodes[i].
     */
    Graph inducedSubgraph(const std::vector<NodeId> &nodes,
                          std::vector<NodeId> *to_sub = nullptr) const;

  private:
    /** Writes coarse levels straight into the CSR arrays. */
    friend class Contractor;

    std::vector<int> nodeWeights_;
    /**
     * adjacency_[offsets_[u] .. offsets_[u + 1]) lists node u; empty
     * until the graph is frozen.
     */
    std::vector<std::size_t> offsets_;
    std::vector<Adjacency> adjacency_;
    std::vector<Edge> edges_;
};

} // namespace dcmbqc

#endif // DCMBQC_GRAPH_GRAPH_HH
