/**
 * @file
 * Greedy heavy-edge matching, the coarsening primitive of the
 * multilevel k-way partitioning scheme (Karypis-Kumar [32]) that
 * Algorithm 2 builds on.
 */

#ifndef DCMBQC_GRAPH_MATCHING_HH
#define DCMBQC_GRAPH_MATCHING_HH

#include <numeric>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "graph/graph.hh"

namespace dcmbqc
{

/**
 * Compute a heavy-edge matching.
 *
 * Visits nodes in a random order; each unmatched node is matched to
 * the unmatched neighbor with maximum edge weight (ties broken by
 * smaller combined node weight to keep coarse nodes balanced).
 *
 * @param match Out: match[u] = partner of u, or u itself when
 *        unmatched.
 * @param visit_order Scratch for the shuffled visiting order; only
 *        its capacity carries over between calls.
 * @return Number of matched pairs.
 */
inline int
heavyEdgeMatching(const Graph &g, Rng &rng, std::vector<NodeId> &match,
                  std::vector<NodeId> &visit_order)
{
    const NodeId n = g.numNodes();
    match.assign(n, invalidNode);
    visit_order.resize(n);
    std::iota(visit_order.begin(), visit_order.end(), 0);
    rng.shuffle(visit_order);

    int pairs = 0;
    for (NodeId u : visit_order) {
        if (match[u] != invalidNode)
            continue;
        const int weight_u = g.nodeWeight(u);
        NodeId best = invalidNode;
        int best_weight = -1;
        int best_combined = 0;
        for (const auto &adj : g.adjacency(u)) {
            if (match[adj.neighbor] != invalidNode)
                continue;
            const int combined = weight_u + g.nodeWeight(adj.neighbor);
            if (adj.weight > best_weight ||
                (adj.weight == best_weight && combined < best_combined)) {
                best = adj.neighbor;
                best_weight = adj.weight;
                best_combined = combined;
            }
        }
        if (best != invalidNode) {
            match[u] = best;
            match[best] = u;
            ++pairs;
        } else {
            match[u] = u;
        }
    }
    return pairs;
}

} // namespace dcmbqc

#endif // DCMBQC_GRAPH_MATCHING_HH
