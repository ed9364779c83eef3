#include "partition/multilevel.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "graph/matching.hh"
#include "partition/coarsen.hh"

namespace dcmbqc
{

namespace
{

/** The refined sequential-slab candidate for one balance cap. */
struct SlabCandidate
{
    int k;
    long long maxPartWeight;
    int refinePasses;
    /** False when no slab boundary fits the balance window. */
    bool feasible;
    std::vector<int> assign;
    long long cutWeight;
};

/** Slab candidates memoized per bound graph (oldest dropped first). */
constexpr std::size_t kMaxSlabCandidates = 16;

} // namespace

struct PartitionWorkspace::State
{
    const Graph *graph = nullptr;

    /** levels[i] is hierarchy level i + 1 (level 0 is the graph). */
    std::vector<Graph> levels;
    /** toCoarse[i] maps level i's nodes to level i + 1. */
    std::vector<std::vector<NodeId>> toCoarse;
    Contractor contractor;
    std::unique_ptr<ThreadPool> pool;

    std::vector<NodeId> match;
    std::vector<NodeId> visitOrder;
    std::vector<int> assign;
    std::vector<int> fineAssign;
    std::vector<long long> partWeight;
    std::vector<long long> conn;
    std::vector<NodeId> queue;
    /** Rebalance: each node's cheapest move out of its part. */
    std::vector<long long> movePenalty;
    std::vector<int> moveTarget;
    /** Refinement: nodes a sweep must visit. */
    std::vector<char> recheck;

    /** flux[p]: weight of edges crossing between ids p-1 and p. */
    std::vector<long long> flux;
    std::vector<long long> prefixWeight;
    std::vector<SlabCandidate> slabs;
};

PartitionWorkspace::PartitionWorkspace() : state_(std::make_unique<State>())
{
}

PartitionWorkspace::~PartitionWorkspace() = default;

void
PartitionWorkspace::bind(const Graph &g)
{
    state_->graph = &g;
    state_->flux.clear();
    state_->prefixWeight.clear();
    state_->slabs.clear();
}

namespace
{

using State = PartitionWorkspace::State;

void
computePartWeights(const Graph &g, const std::vector<int> &assign,
                   int k, std::vector<long long> &part_weight)
{
    part_weight.assign(k, 0);
    for (NodeId u = 0; u < g.numNodes(); ++u)
        part_weight[assign[u]] += g.nodeWeight(u);
}

long long
cutWeightOf(const Graph &g, const std::vector<int> &assign)
{
    long long cut = 0;
    for (const auto &e : g.edges())
        if (assign[e.u] != assign[e.v])
            cut += e.weight;
    return cut;
}

/**
 * Greedy graph-growing initial partition of the coarsest graph into
 * `assign`. Grows k regions by BFS from random seeds, then assigns
 * leftovers to the lightest part among their neighbors.
 */
void
initialPartition(const Graph &g, int k, long long max_part_weight,
                 Rng &rng, State &ws)
{
    const NodeId n = g.numNodes();
    std::vector<int> &assign = ws.assign;
    std::vector<long long> &part_weight = ws.partWeight;
    assign.assign(n, -1);
    part_weight.assign(k, 0);

    std::vector<NodeId> &seeds = ws.visitOrder;
    seeds.resize(n);
    std::iota(seeds.begin(), seeds.end(), 0);
    rng.shuffle(seeds);

    std::size_t seed_cursor = 0;
    std::vector<NodeId> &queue = ws.queue;
    for (int p = 0; p < k; ++p) {
        // Find an unassigned seed.
        while (seed_cursor < seeds.size() && assign[seeds[seed_cursor]] >= 0)
            ++seed_cursor;
        if (seed_cursor >= seeds.size())
            break;
        const NodeId start = seeds[seed_cursor];
        queue.clear();
        queue.push_back(start);
        assign[start] = p;
        part_weight[p] += g.nodeWeight(start);
        std::size_t head = 0;
        while (head < queue.size() && part_weight[p] < max_part_weight) {
            NodeId u = queue[head++];
            for (const auto &adj : g.adjacency(u)) {
                const NodeId v = adj.neighbor;
                if (assign[v] >= 0)
                    continue;
                if (part_weight[p] + g.nodeWeight(v) > max_part_weight)
                    continue;
                assign[v] = p;
                part_weight[p] += g.nodeWeight(v);
                queue.push_back(v);
            }
        }
    }

    // Leftovers: prefer the lightest neighboring part, else the
    // globally lightest part.
    for (NodeId u = 0; u < n; ++u) {
        if (assign[u] >= 0)
            continue;
        int best_part = -1;
        for (const auto &adj : g.adjacency(u)) {
            const int p = assign[adj.neighbor];
            if (p >= 0 && (best_part < 0 ||
                           part_weight[p] < part_weight[best_part])) {
                best_part = p;
            }
        }
        if (best_part < 0) {
            best_part = static_cast<int>(
                std::min_element(part_weight.begin(), part_weight.end()) -
                part_weight.begin());
        }
        assign[u] = best_part;
        part_weight[best_part] += g.nodeWeight(u);
    }
}

/**
 * Force every part below max_part_weight by moving nodes out of
 * overweight parts (cheapest cut penalty first), even at negative
 * gain. Needed because greedy initial partitioning can overfill the
 * part that absorbs leftovers.
 *
 * Each move takes the lexicographically least (penalty, node,
 * target part) over the overweight part's nodes. Every node's best
 * (penalty, target) is cached and re-evaluated only when a move can
 * change it: for the moved node's neighbors (their connectivity
 * changed) and for nodes whose best target no longer fits them.
 * Targets only ever get heavier while one part is drained, so every
 * other cached choice stays exact.
 */
void
rebalancePass(const Graph &g, std::vector<int> &assign, int k,
              long long max_part_weight, State &ws)
{
    std::vector<long long> &part_weight = ws.partWeight;
    std::vector<long long> &conn = ws.conn;
    computePartWeights(g, assign, k, part_weight);
    conn.resize(k);
    ws.movePenalty.resize(g.numNodes());
    ws.moveTarget.resize(g.numNodes());

    for (int from = 0; from < k; ++from) {
        if (part_weight[from] <= max_part_weight)
            continue;

        // Best move of u out of `from`; target -1 when nothing fits.
        auto evaluate = [&](NodeId u) {
            std::fill(conn.begin(), conn.end(), 0);
            for (const auto &adj : g.adjacency(u))
                conn[assign[adj.neighbor]] += adj.weight;
            int target = -1;
            long long penalty = 0;
            for (int q = 0; q < k; ++q) {
                if (q == from ||
                    part_weight[q] + g.nodeWeight(u) > max_part_weight)
                    continue;
                if (target < 0 || conn[from] - conn[q] < penalty) {
                    target = q;
                    penalty = conn[from] - conn[q];
                }
            }
            ws.moveTarget[u] = target;
            ws.movePenalty[u] = penalty;
        };
        std::vector<NodeId> &members = ws.queue;
        members.clear();
        for (NodeId u = 0; u < g.numNodes(); ++u) {
            if (assign[u] == from) {
                members.push_back(u);
                evaluate(u);
            }
        }

        int guard = g.numNodes() + 1;
        while (part_weight[from] > max_part_weight && guard-- > 0) {
            NodeId best_node = invalidNode;
            for (NodeId u : members) {
                if (assign[u] != from || ws.moveTarget[u] < 0)
                    continue;
                if (best_node == invalidNode ||
                    ws.movePenalty[u] < ws.movePenalty[best_node])
                    best_node = u;
            }
            if (best_node == invalidNode)
                break; // every other part is full; give up
            const int best_part = ws.moveTarget[best_node];
            assign[best_node] = best_part;
            part_weight[from] -= g.nodeWeight(best_node);
            part_weight[best_part] += g.nodeWeight(best_node);

            for (const auto &adj : g.adjacency(best_node))
                if (assign[adj.neighbor] == from)
                    evaluate(adj.neighbor);
            for (NodeId u : members)
                if (assign[u] == from && ws.moveTarget[u] == best_part &&
                    part_weight[best_part] + g.nodeWeight(u) >
                        max_part_weight)
                    evaluate(u);
        }
    }
}

/**
 * One boundary refinement sweep (see refineBoundaryPass).
 * `part_weight` must hold the part weights of `assign` on entry and
 * is kept up to date, so consecutive sweeps can share it.
 *
 * `recheck[u]` flags the nodes whose move decision may differ from
 * the one they got when last visited; a sweep visits only those
 * (set them all for a first sweep). A node that stayed put had no
 * positive-gain target, and keeps having none until a neighbor
 * moves, unless some such target merely did not fit: those nodes
 * and every neighbor of a moved node stay flagged. Skipping the
 * rest leaves every decision exactly as a full sweep makes it.
 */
long long
refineBoundary(const Graph &g, std::vector<int> &assign, int k,
               long long max_part_weight, std::vector<long long> &part_weight,
               std::vector<long long> &conn, std::vector<char> &recheck)
{
    conn.resize(k);
    long long total_gain = 0;

    for (NodeId u = 0; u < g.numNodes(); ++u) {
        if (!recheck[u])
            continue;
        recheck[u] = 0;
        const int from = assign[u];
        const Graph::AdjacencyRange adjacency = g.adjacency(u);
        // Most nodes are interior: find that out before tallying.
        bool boundary = false;
        for (const auto &adj : adjacency) {
            if (assign[adj.neighbor] != from) {
                boundary = true;
                break;
            }
        }
        if (!boundary)
            continue;
        std::fill(conn.begin(), conn.end(), 0);
        for (const auto &adj : adjacency)
            conn[assign[adj.neighbor]] += adj.weight;

        int best_part = from;
        long long best_gain = 0;
        bool blocked = false;
        for (int q = 0; q < k; ++q) {
            // Only a positive gain can win, so parts no better
            // connected than `from` are skipped up front.
            if (q == from || conn[q] <= conn[from])
                continue;
            if (part_weight[q] + g.nodeWeight(u) > max_part_weight) {
                blocked = true;
                continue;
            }
            const long long gain = conn[q] - conn[from];
            if (gain > best_gain ||
                (gain == best_gain && gain > 0 &&
                 part_weight[q] < part_weight[best_part])) {
                best_gain = gain;
                best_part = q;
            }
        }
        if (best_part != from && best_gain > 0) {
            assign[u] = best_part;
            part_weight[from] -= g.nodeWeight(u);
            part_weight[best_part] += g.nodeWeight(u);
            total_gain += best_gain;
            recheck[u] = 1;
            for (const auto &adj : adjacency)
                recheck[adj.neighbor] = 1;
        } else if (blocked) {
            recheck[u] = 1;
        }
    }
    return total_gain;
}

/** Up to `passes` refinement sweeps, stopping at one that gains 0. */
void
refineSweeps(const Graph &g, std::vector<int> &assign, int k,
             long long max_part_weight, int passes, State &ws)
{
    ws.recheck.assign(g.numNodes(), 1);
    for (int pass = 0; pass < passes; ++pass)
        if (refineBoundary(g, assign, k, max_part_weight, ws.partWeight,
                           ws.conn, ws.recheck) == 0)
            break;
}

/**
 * Rebalance, then refine until a sweep gains nothing. The rebalance
 * leaves ws.partWeight exact for the sweeps.
 */
void
balanceAndRefine(const Graph &g, std::vector<int> &assign, int k,
                 long long max_part_weight, int passes, State &ws)
{
    rebalancePass(g, assign, k, max_part_weight, ws);
    refineSweeps(g, assign, k, max_part_weight, passes, ws);
}

/** Hierarchy level i (0 = the input graph). */
const Graph &
level(const Graph &g, const State &ws, std::size_t i)
{
    return i == 0 ? g : ws.levels[i - 1];
}

/**
 * The pool for contracting a level of `fine_edges` edges, created on
 * first need; null when the sequential loop applies.
 */
ThreadPool *
contractionPool(State &ws, std::size_t fine_edges)
{
    if (fine_edges < kParallelContractMinEdges)
        return nullptr;
    if (!ws.pool) {
        const int workers = ThreadPool::defaultNumThreads();
        if (workers <= 1)
            return nullptr;
        ws.pool = std::make_unique<ThreadPool>(workers);
    }
    return ws.pool.get();
}

/**
 * The refined sequential-slab partition for one balance cap, from
 * the memo or built now. MBQC computation graphs are temporally
 * local (node ids follow circuit time), so contiguous slabs cut few
 * edges. The cut boundaries snap to low-flux positions (e.g.
 * gate-block boundaries) within the balance window.
 */
const SlabCandidate &
slabCandidate(const Graph &g, State &ws, int k, long long max_part_weight,
              int refine_passes)
{
    for (const SlabCandidate &slab : ws.slabs)
        if (slab.k == k && slab.maxPartWeight == max_part_weight &&
            slab.refinePasses == refine_passes)
            return slab;

    const NodeId n = g.numNodes();
    if (ws.flux.empty()) {
        ws.flux.assign(n + 1, 0);
        for (const auto &e : g.edges()) {
            const NodeId lo = std::min(e.u, e.v);
            const NodeId hi = std::max(e.u, e.v);
            ws.flux[lo + 1] += e.weight;
            ws.flux[hi + 1] -= e.weight;
        }
        for (NodeId p = 1; p <= n; ++p)
            ws.flux[p] += ws.flux[p - 1];

        ws.prefixWeight.assign(n + 1, 0);
        for (NodeId u = 0; u < n; ++u)
            ws.prefixWeight[u + 1] = ws.prefixWeight[u] + g.nodeWeight(u);
    }
    const std::vector<long long> &flux = ws.flux;
    const std::vector<long long> &prefix_weight = ws.prefixWeight;
    const long long total = prefix_weight[n];

    // Greedy left-to-right: place boundary b in the window that
    // keeps every part (including the remaining suffix) within
    // max_part_weight, at the flux minimum.
    std::vector<NodeId> cuts;
    NodeId prev = 0;
    bool feasible = true;
    for (int b = 1; b < k && feasible; ++b) {
        // Window on prefix weight: the finished parts must not
        // exceed the cap, and the remaining suffix must fit into
        // the remaining parts.
        const long long hi_weight = prefix_weight[prev] + max_part_weight;
        const long long lo_weight =
            total - static_cast<long long>(k - b) * max_part_weight;
        NodeId best = invalidNode;
        for (NodeId p = prev + 1; p < n; ++p) {
            if (prefix_weight[p] > hi_weight)
                break;
            if (prefix_weight[p] < lo_weight)
                continue;
            if (best == invalidNode || flux[p] < flux[best])
                best = p;
        }
        if (best == invalidNode) {
            feasible = false;
            break;
        }
        cuts.push_back(best);
        prev = best;
    }

    SlabCandidate slab{k, max_part_weight, refine_passes, feasible, {}, 0};
    if (feasible) {
        slab.assign.assign(n, k - 1);
        NodeId start = 0;
        for (int b = 0; b < static_cast<int>(cuts.size()); ++b) {
            for (NodeId u = start; u < cuts[b]; ++u)
                slab.assign[u] = b;
            start = cuts[b];
        }
        computePartWeights(g, slab.assign, k, ws.partWeight);
        refineSweeps(g, slab.assign, k, max_part_weight, refine_passes,
                     ws);
        slab.cutWeight = cutWeightOf(g, slab.assign);
    }
    if (ws.slabs.size() >= kMaxSlabCandidates)
        ws.slabs.erase(ws.slabs.begin());
    ws.slabs.push_back(std::move(slab));
    return ws.slabs.back();
}

} // namespace

long long
refineBoundaryPass(const Graph &g, Partitioning &p,
                   long long max_part_weight)
{
    std::vector<int> assign = p.assignment();
    std::vector<long long> part_weight;
    std::vector<long long> conn;
    std::vector<char> recheck(g.numNodes(), 1);
    computePartWeights(g, assign, p.numParts(), part_weight);
    const long long gain = refineBoundary(g, assign, p.numParts(),
                                          max_part_weight, part_weight,
                                          conn, recheck);
    p = Partitioning(std::move(assign), p.numParts());
    return gain;
}

MultilevelPartitioner::MultilevelPartitioner(MultilevelConfig config)
    : config_(std::move(config))
{
    DCMBQC_ASSERT(config_.k >= 1, "k must be positive");
    DCMBQC_ASSERT(config_.alpha >= 1.0, "alpha must be >= 1");
}

Partitioning
MultilevelPartitioner::partition(const Graph &g) const
{
    PartitionWorkspace workspace;
    return partition(g, workspace);
}

Partitioning
MultilevelPartitioner::partition(const Graph &g,
                                 PartitionWorkspace &workspace) const
{
    DCMBQC_ASSERT(g.frozen(), "partition: graph is not frozen");
    const int k = config_.k;
    if (k == 1 || g.numNodes() == 0)
        return Partitioning(g.numNodes(), std::max(k, 1));
    State &ws = *workspace.state_;
    if (ws.graph != &g)
        workspace.bind(g);

    Rng rng(config_.seed);

    const long long total = g.totalNodeWeight();
    int max_node_weight = 1;
    for (NodeId u = 0; u < g.numNodes(); ++u)
        max_node_weight = std::max(max_node_weight, g.nodeWeight(u));
    // Allow one max-weight node of slack so a feasible partition
    // always exists even for alpha = 1. Shares above the whole graph
    // constrain nothing, so clamping there (which keeps the cast in
    // range for any alpha) changes no result.
    const double share = std::min(
        config_.alpha * static_cast<double>(total) /
            static_cast<double>(k),
        static_cast<double>(total));
    const long long max_part_weight = std::max<long long>(
        static_cast<long long>(std::ceil(share)) + max_node_weight,
        max_node_weight);

    // --- Coarsening phase ------------------------------------------------
    // Level 0 is g itself; coarser levels reuse the workspace's arrays.
    const NodeId coarsen_target = std::max<NodeId>(
        static_cast<NodeId>(config_.coarsenTargetPerPart) * k, 2 * k);
    std::size_t depth = 0;
    for (;;) {
        const NodeId fine_nodes = level(g, ws, depth).numNodes();
        if (fine_nodes <= coarsen_target)
            break;
        if (ws.levels.size() <= depth) {
            ws.levels.emplace_back();
            ws.toCoarse.emplace_back();
        }
        // Taken after the emplace, which may move the levels.
        const Graph &fine = level(g, ws, depth);
        Graph &coarse = ws.levels[depth];
        heavyEdgeMatching(fine, rng, ws.match, ws.visitOrder);
        ws.contractor.contract(fine, ws.match, ws.toCoarse[depth], coarse,
                               contractionPool(ws, fine.edges().size()));
        if (coarse.numNodes() >= static_cast<NodeId>(0.95 * fine_nodes))
            break; // matching stagnated (e.g., star graphs)
        ++depth;
    }

    // --- Initial partition on the coarsest graph -------------------------
    const Graph &coarsest = level(g, ws, depth);
    initialPartition(coarsest, k, max_part_weight, rng, ws);
    balanceAndRefine(coarsest, ws.assign, k, max_part_weight,
                     config_.refinePasses, ws);

    // --- Uncoarsening with refinement -------------------------------------
    for (std::size_t l = depth; l-- > 0;) {
        const std::vector<NodeId> &to_coarse = ws.toCoarse[l];
        ws.fineAssign.resize(to_coarse.size());
        for (std::size_t u = 0; u < to_coarse.size(); ++u)
            ws.fineAssign[u] = ws.assign[to_coarse[u]];
        std::swap(ws.assign, ws.fineAssign);
        balanceAndRefine(level(g, ws, l), ws.assign, k, max_part_weight,
                         config_.refinePasses, ws);
    }

    // --- Sequential-slab candidate ----------------------------------------
    if (config_.useSequentialCandidate && g.numNodes() > k) {
        const SlabCandidate &slab = slabCandidate(
            g, ws, k, max_part_weight, config_.refinePasses);
        if (slab.feasible && slab.cutWeight < cutWeightOf(g, ws.assign))
            return Partitioning(slab.assign, k);
    }
    return Partitioning(ws.assign, k);
}

} // namespace dcmbqc
