/**
 * @file
 * Multilevel k-way graph partitioner in the style of METIS
 * (Karypis-Kumar [32]): heavy-edge-matching coarsening, greedy
 * graph-growing initial partitioning on the coarsest graph, and
 * FM-style boundary refinement during uncoarsening. This plays the
 * role of the METIS `Partition(G, alpha)` call in Algorithm 2.
 */

#ifndef DCMBQC_PARTITION_MULTILEVEL_HH
#define DCMBQC_PARTITION_MULTILEVEL_HH

#include <cstdint>
#include <memory>

#include "graph/graph.hh"
#include "partition/partitioning.hh"

namespace dcmbqc
{

/** Tuning parameters of the multilevel partitioner. */
struct MultilevelConfig
{
    /** Number of parts. */
    int k = 2;

    /**
     * Balance constraint: max part weight <= alpha * (total / k).
     * alpha = 1 requests a perfectly balanced partition (a slack of
     * one maximum node weight is always tolerated so a feasible
     * solution exists).
     */
    double alpha = 1.0;

    /** Stop coarsening below this node count (scaled by k). */
    int coarsenTargetPerPart = 30;

    /** Boundary refinement passes per uncoarsening level. */
    int refinePasses = 4;

    /**
     * Also evaluate a refined sequential-slab partition (contiguous
     * node-id blocks) and return whichever candidate cuts less.
     * MBQC computation graphs are temporally local -- node ids
     * follow circuit time -- so slabs often beat the multilevel
     * result on braid-shaped graphs (QAOA / QFT ladders).
     */
    bool useSequentialCandidate = true;

    /** RNG seed for matching and initial-partition randomization. */
    std::uint64_t seed = 1;
};

/**
 * Buffers and graph-derived data that repeated partitions of one
 * graph share: the coarse levels (graphs whose CSR arrays keep their
 * capacity), matching and refinement scratch, the contraction pool
 * once a level reaches kParallelContractMinEdges (2^17) edges (sized
 * by ThreadPool::defaultNumThreads(); the partition is byte-identical
 * for every worker count), and the sequential-slab candidate, which
 * does not depend on the seed and is memoized per (k, part-weight
 * cap, refine passes).
 *
 * Algorithm 2 probes Partition(G, alpha) up to maxIterations times on
 * the same graph; one workspace per adaptivePartition call makes a
 * probe cost only its seed-dependent work. Results are byte-identical
 * to partitioning with a fresh workspace.
 */
class PartitionWorkspace
{
  public:
    PartitionWorkspace();
    ~PartitionWorkspace();

    PartitionWorkspace(const PartitionWorkspace &) = delete;
    PartitionWorkspace &operator=(const PartitionWorkspace &) = delete;

    /**
     * Point the workspace at g, dropping everything derived from the
     * previously bound graph; buffers keep their capacity. Frozen
     * graphs never change, so call it again only when a different
     * graph now lives at g's address. g must outlive its use through
     * the workspace.
     */
    void bind(const Graph &g);

    /** The buffers themselves; opaque outside the partitioner. */
    struct State;

  private:
    friend class MultilevelPartitioner;
    std::unique_ptr<State> state_;
};

/**
 * Multilevel k-way partitioner.
 */
class MultilevelPartitioner
{
  public:
    explicit MultilevelPartitioner(MultilevelConfig config);

    /**
     * Partition the graph into k parts under the balance constraint.
     * Deterministic for a fixed config (seed included).
     */
    Partitioning partition(const Graph &g) const;

    /**
     * Same result as partition(g), reusing `workspace`'s buffers and
     * memoized slab candidates. Binds the workspace to g when it is
     * bound to another graph object.
     */
    Partitioning partition(const Graph &g,
                           PartitionWorkspace &workspace) const;

    const MultilevelConfig &config() const { return config_; }

  private:
    MultilevelConfig config_;
};

/**
 * One FM-style boundary refinement sweep used both inside the
 * multilevel scheme and exposed for testing.
 *
 * Moves boundary nodes to the neighboring part with the highest
 * positive gain while keeping every part below max_part_weight.
 *
 * @return Total cut-weight improvement achieved by the pass.
 */
long long refineBoundaryPass(const Graph &g, Partitioning &p,
                             long long max_part_weight);

} // namespace dcmbqc

#endif // DCMBQC_PARTITION_MULTILEVEL_HH
