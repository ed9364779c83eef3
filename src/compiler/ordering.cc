#include "compiler/ordering.hh"

#include <algorithm>
#include <numeric>
#include <queue>

#include "common/logging.hh"
#include "graph/algorithms.hh"

namespace dcmbqc
{

namespace
{

/**
 * Kahn topological sort choosing, among ready nodes, the one with
 * the smallest priority value.
 */
std::vector<NodeId>
priorityTopological(const Digraph &deps, const std::vector<int> &priority)
{
    const NodeId n = deps.numNodes();
    std::vector<int> indeg(n);
    for (NodeId u = 0; u < n; ++u)
        indeg[u] = deps.inDegree(u);

    using Entry = std::pair<int, NodeId>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> ready;
    for (NodeId u = 0; u < n; ++u)
        if (indeg[u] == 0)
            ready.push({priority[u], u});

    std::vector<NodeId> order;
    order.reserve(n);
    while (!ready.empty()) {
        const NodeId u = ready.top().second;
        ready.pop();
        order.push_back(u);
        for (NodeId v : deps.successors(u))
            if (--indeg[v] == 0)
                ready.push({priority[v], v});
    }
    DCMBQC_ASSERT(order.size() == static_cast<std::size_t>(n),
                  "dependency graph is cyclic");
    return order;
}

} // namespace

std::vector<NodeId>
placementOrder(const Graph &g, const Digraph &deps,
               PlacementOrder strategy)
{
    DCMBQC_ASSERT(g.frozen(), "placementOrder: graph is not frozen");
    DCMBQC_ASSERT(g.numNodes() == deps.numNodes(),
                  "graph / dependency size mismatch");
    switch (strategy) {
      case PlacementOrder::Creation: {
        std::vector<int> priority(g.numNodes());
        std::iota(priority.begin(), priority.end(), 0);
        // Creation order is topological for flow-derived deps, but
        // run the Kahn pass anyway so arbitrary dep graphs work.
        return priorityTopological(deps, priority);
      }
      case PlacementOrder::DependencyAwareRcm: {
        const auto rcm = reverseCuthillMcKee(g);
        auto position = inversePermutation(rcm);
        return priorityTopological(deps, position);
      }
    }
    panic("unknown placement order");
}

} // namespace dcmbqc
