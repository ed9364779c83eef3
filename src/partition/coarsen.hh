/**
 * @file
 * Matching contraction for the multilevel partitioner, producing
 * the coarse levels that a partition workspace keeps across probes.
 *
 * Parallel fine edges between two coarse nodes merge into one coarse
 * edge in first-occurrence order: the lowest fine edge id mapping
 * onto each coarse pair fixes both the position and the stored
 * (u, v) orientation, and the weights are summed. Each adjacency run
 * comes out in coarse-edge-id order, the order every frozen `Graph`
 * keeps.
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
 * Contracts graphs along matchings, writing the coarse graph's CSR
 * arrays in place and keeping its scratch arrays between calls.
 */
class Contractor
{
  public:
    /**
     * Contract `g` along a matching (`match[u]` = partner of u, or u
     * itself when unmatched) into `coarse`. Coarse ids are assigned
     * in fine-node order (the lower endpoint of each matched pair
     * names the coarse node). `g` must be frozen; `coarse` comes out
     * frozen, and assigning into it reuses its arrays' capacity.
     *
     * @param to_coarse Out-map from fine to coarse node ids.
     * @param pool Optional worker pool; used for graphs of at least
     *        kParallelContractMinEdges edges when it has more than
     *        one worker. The result is identical either way.
     */
    void contract(const Graph &g, const std::vector<NodeId> &match,
                  std::vector<NodeId> &to_coarse, Graph &coarse,
                  ThreadPool *pool = nullptr);

  private:
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
