#include "partition/coarsen.hh"

#include <algorithm>

#include "common/thread_pool.hh"

namespace dcmbqc
{

namespace
{

/**
 * Append coarse node c's distinct coarse neighbors to `out`. The
 * fine members' adjacency lists are merged by fine edge id, so each
 * neighbor is appended at its lowest fine edge id (kept in the
 * `edge` field) and the run comes out in first-occurrence order.
 * `seen_by` / `slot` detect repeats; they are indexed by coarse id.
 */
void
contractNode(const Graph &g, const std::vector<NodeId> &to_coarse,
             NodeId c, NodeId x, NodeId y, NodeId *seen_by,
             std::size_t *slot, std::vector<Adjacency> &out)
{
    auto visit = [&](const Adjacency &adj) {
        const NodeId b = to_coarse[adj.neighbor];
        if (b == c)
            return;
        if (seen_by[b] != c) {
            seen_by[b] = c;
            slot[b] = out.size();
            out.push_back({b, adj.edge, adj.weight});
        } else {
            out[slot[b]].weight += adj.weight;
        }
    };

    const Graph::AdjacencyRange ax = g.adjacency(x);
    auto i = ax.begin();
    if (y != x) {
        const Graph::AdjacencyRange ay = g.adjacency(y);
        auto j = ay.begin();
        while (i != ax.end() && j != ay.end())
            visit(i->edge < j->edge ? *i++ : *j++);
        for (; j != ay.end(); ++j)
            visit(*j);
    }
    for (; i != ax.end(); ++i)
        visit(*i);
}

} // namespace

void
Contractor::contract(const Graph &g, const std::vector<NodeId> &match,
                     std::vector<NodeId> &to_coarse, Graph &coarse,
                     ThreadPool *pool)
{
    // A pair is named when its lower member comes up.
    const NodeId n = g.numNodes();
    to_coarse.resize(n);
    members_.clear();
    coarse.nodeWeights_.clear();
    for (NodeId u = 0; u < n; ++u) {
        const NodeId partner = match[u];
        if (partner < u) {
            to_coarse[u] = to_coarse[partner];
            coarse.nodeWeights_[to_coarse[u]] += g.nodeWeight(u);
        } else {
            to_coarse[u] = static_cast<NodeId>(members_.size());
            members_.push_back(u);
            coarse.nodeWeights_.push_back(g.nodeWeight(u));
        }
    }
    const NodeId nc = static_cast<NodeId>(members_.size());

    auto &offsets = coarse.offsets_;
    auto &adjacency = coarse.adjacency_;
    offsets.resize(static_cast<std::size_t>(nc) + 1);
    adjacency.clear();

    const std::size_t fine_edges = g.edges().size();
    const int workers = pool ? pool->numThreads() : 1;
    if (workers <= 1 || fine_edges < kParallelContractMinEdges) {
        seenBy_.assign(nc, invalidNode);
        slot_.resize(nc);
        for (NodeId c = 0; c < nc; ++c) {
            offsets[c] = adjacency.size();
            contractNode(g, to_coarse, c, members_[c],
                         match[members_[c]], seenBy_.data(),
                         slot_.data(), adjacency);
        }
    } else {
        // One contiguous node range per worker, each with its own
        // repeat markers; concatenating the ranges in order gives
        // the sequential layout.
        struct Range
        {
            std::vector<std::size_t> offsets;
            std::vector<Adjacency> adjacency;
        };
        std::vector<Range> ranges(workers);
        const NodeId span = (nc + workers - 1) / workers;
        for (int r = 0; r < workers; ++r) {
            pool->submit([&, r] {
                const NodeId begin = std::min<NodeId>(r * span, nc);
                const NodeId end = std::min<NodeId>(begin + span, nc);
                std::vector<NodeId> seen_by(nc, invalidNode);
                std::vector<std::size_t> slot(nc);
                Range &range = ranges[r];
                for (NodeId c = begin; c < end; ++c) {
                    range.offsets.push_back(range.adjacency.size());
                    contractNode(g, to_coarse, c, members_[c],
                                 match[members_[c]], seen_by.data(),
                                 slot.data(), range.adjacency);
                }
            });
        }
        pool->wait();
        NodeId c = 0;
        for (const Range &range : ranges) {
            const std::size_t base = adjacency.size();
            for (std::size_t off : range.offsets)
                offsets[c++] = base + off;
            adjacency.insert(adjacency.end(), range.adjacency.begin(),
                             range.adjacency.end());
        }
    }
    offsets[nc] = adjacency.size();

    // Name coarse edges in order of their first fine edge, marked
    // from the lower end of each pair, then swap each entry's first
    // fine edge id for its coarse edge id (a monotone map, so every
    // run stays sorted). Unmarked fine edges get a name never used.
    firstToCoarse_.assign(fine_edges, 0);
    for (NodeId a = 0; a < nc; ++a)
        for (std::size_t i = offsets[a]; i < offsets[a + 1]; ++i)
            firstToCoarse_[adjacency[i].edge] |= adjacency[i].neighbor > a;
    EdgeId next = 0;
    for (EdgeId &id : firstToCoarse_) {
        const EdgeId marked = id;
        id = next;
        next += marked;
    }

    const auto &fine_edge_list = g.edges();
    coarse.edges_.resize(next);
    for (NodeId a = 0; a < nc; ++a) {
        for (std::size_t i = offsets[a]; i < offsets[a + 1]; ++i) {
            Adjacency &adj = adjacency[i];
            const EdgeId first = adj.edge;
            adj.edge = firstToCoarse_[first];
            if (adj.neighbor > a)
                coarse.edges_[adj.edge] = {
                    to_coarse[fine_edge_list[first].u],
                    to_coarse[fine_edge_list[first].v], adj.weight};
        }
    }
}

} // namespace dcmbqc
