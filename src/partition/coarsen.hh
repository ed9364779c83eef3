/**
 * @file
 * Matching contraction for the multilevel partitioner, producing
 * flat (CSR) coarse levels that a partition workspace keeps across
 * probes.
 *
 * The coarse graph is laid out exactly as repeated
 * `Graph::addEdge(merge_parallel)` calls over the fine edge list
 * would lay it out: coarse edges in first-occurrence order (the
 * lowest fine edge id mapping onto each coarse pair fixes both the
 * position and the stored (u, v) orientation), weights summed, and
 * each adjacency list in coarse-edge-id order. Matching and
 * refinement therefore walk the same sequences on either form.
 *
 * Contraction works per coarse node: it merges the (edge-id sorted)
 * adjacency lists of the node's one or two fine members, so the
 * first time a coarse neighbor shows up is at its lowest fine edge
 * id, and the node's coarse adjacency comes out already in
 * coarse-edge-id order. Every node's output depends on the fine
 * graph alone, so fanning node ranges over a worker pool gives the
 * same bytes for any worker count.
 */

#ifndef DCMBQC_PARTITION_COARSEN_HH
#define DCMBQC_PARTITION_COARSEN_HH

#include <cstddef>
#include <vector>

#include "graph/graph.hh"

namespace dcmbqc
{

class ThreadPool;

/** Fine edge count from which contraction fans out over a pool. */
constexpr std::size_t kParallelContractMinEdges = std::size_t{1} << 17;

/**
 * A coarse level in flat form: node weights, CSR adjacency and the
 * edge list. Offers the read interface of `Graph` that matching,
 * contraction and refinement use (numNodes, nodeWeight, adjacency,
 * edges). Assigning a new level reuses the arrays' capacity.
 */
class CoarseGraph
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
    };

    NodeId numNodes() const
    {
        return static_cast<NodeId>(nodeWeights_.size());
    }
    EdgeId numEdges() const { return static_cast<EdgeId>(edges_.size()); }

    int nodeWeight(NodeId u) const { return nodeWeights_[u]; }

    AdjacencyRange adjacency(NodeId u) const
    {
        return {adjacency_.data() + offsets_[u],
                adjacency_.data() + offsets_[u + 1]};
    }

    const std::vector<Edge> &edges() const { return edges_; }

  private:
    friend class Contractor;

    std::vector<int> nodeWeights_;
    /** adjacency_[offsets_[u] .. offsets_[u + 1]) lists node u. */
    std::vector<std::size_t> offsets_;
    std::vector<Adjacency> adjacency_;
    std::vector<Edge> edges_;
};

/**
 * Contracts graphs along matchings into `CoarseGraph`s, keeping its
 * scratch arrays between calls.
 */
class Contractor
{
  public:
    /**
     * Contract `g` along a matching (`match[u]` = partner of u, or u
     * itself when unmatched) into `coarse`. Coarse ids are assigned
     * in fine-node order (the lower endpoint of each matched pair
     * names the coarse node). `g`'s adjacency lists must be in
     * edge-id order, as every `Graph` and `CoarseGraph` keeps them.
     *
     * @param to_coarse Out-map from fine to coarse node ids.
     * @param pool Optional worker pool; used for graphs of at least
     *        kParallelContractMinEdges edges when it has more than
     *        one worker. The result is identical either way.
     */
    void contract(const Graph &g, const std::vector<NodeId> &match,
                  std::vector<NodeId> &to_coarse, CoarseGraph &coarse,
                  ThreadPool *pool = nullptr);
    void contract(const CoarseGraph &g, const std::vector<NodeId> &match,
                  std::vector<NodeId> &to_coarse, CoarseGraph &coarse,
                  ThreadPool *pool = nullptr);

  private:
    template <class FineGraph>
    void run(const FineGraph &g, const std::vector<NodeId> &match,
             std::vector<NodeId> &to_coarse, CoarseGraph &coarse,
             ThreadPool *pool);

    /** Lower-id fine member of each coarse node. */
    std::vector<NodeId> members_;
    /** Per coarse neighbor: last coarse node that saw it, and where. */
    std::vector<NodeId> seenBy_;
    std::vector<std::size_t> slot_;
    /** Coarse edge id of each fine edge that first names a pair. */
    std::vector<EdgeId> firstToCoarse_;
};

} // namespace dcmbqc

#endif // DCMBQC_PARTITION_COARSEN_HH
