/**
 * @file
 * Adaptive graph partitioning — Algorithm 2 of the paper.
 *
 * Starts from a perfectly balanced k-way partition (alpha = 1) and
 * adapts the balance constraint by the multiplicative step factor
 * gamma after every probe: up when modularity rose by more than
 * epsilon_Q (capped at alpha_max), down when it fell by more than
 * epsilon_Q. The loop ends when the change stays within epsilon_Q,
 * when a rise happens at alpha_max, when a fall reaches alpha = 1,
 * or after maxIterations probes. The best partition seen is kept.
 *
 * In practice the cap is what ends many runs: each probe uses a new
 * seed, so modularity can alternate between two partitions more than
 * epsilon_Q apart, and alpha then bounces between two neighboring
 * values (e.g. 1.040 and 1.061 for VQE-36 at 8 QPUs) until all
 * maxIterations probes are spent. Every probe reuses one partition
 * workspace, so a probe pays only for its seed-dependent work.
 */

#ifndef DCMBQC_PARTITION_ADAPTIVE_HH
#define DCMBQC_PARTITION_ADAPTIVE_HH

#include <cstdint>

#include "graph/graph.hh"
#include "partition/multilevel.hh"
#include "partition/partitioning.hh"

namespace dcmbqc
{

class NoiseModel;

/** Parameters of Algorithm 2 (paper defaults in Section V-A). */
struct AdaptiveConfig
{
    /** Number of QPUs / parts. */
    int k = 4;

    /** Modularity improvement threshold epsilon_Q. */
    double epsilonQ = 0.01;

    /** Maximum imbalance factor alpha_max. */
    double alphaMax = 1.5;

    /** Multiplicative step factor gamma (learning rate). */
    double gamma = 1.02;

    /** Safety cap on probe iterations. */
    int maxIterations = 256;

    std::uint64_t seed = 1;
};

/** Result of the adaptive search: best partition plus diagnostics. */
struct AdaptiveResult
{
    Partitioning best;

    /** Modularity of the best partition. */
    double modularity = -1.0;

    /** Imbalance alpha at which the best partition was found. */
    double alphaAtBest = 1.0;

    /** Cut size (number of cut edges = connector pairs). */
    int cutEdges = 0;

    /** Number of Partition(G, alpha) probes performed. */
    int probes = 0;

    /**
     * Static noise survival (log) of the best partition; only
     * meaningful when a noise model drove the selection.
     */
    double noiseLogSurvival = 0.0;
};

/**
 * Run Algorithm 2: adaptive graph partitioning.
 *
 * With a noise model, the probe trajectory (which alphas are tried,
 * driven purely by modularity deltas) is unchanged, but the *best*
 * candidate is selected by static noise survival
 * (`partitionLogSurvival`) instead of modularity — so over the same
 * candidate set the noise-aware choice never survives worse than the
 * noise-blind one. Without a model, behavior is bit-identical to the
 * noise-free algorithm.
 *
 * @param g The computation graph (nodes = resource units).
 * @param noise Optional noise model driving candidate selection.
 * @param workspace Optional workspace the probes share (bound to g on
 *        entry); null uses one local to the call. Passing one only
 *        keeps its buffers' capacity across calls, never the result.
 * @return Best partition found with diagnostics.
 */
AdaptiveResult adaptivePartition(const Graph &g,
                                 const AdaptiveConfig &config = {},
                                 const NoiseModel *noise = nullptr,
                                 PartitionWorkspace *workspace = nullptr);

} // namespace dcmbqc

#endif // DCMBQC_PARTITION_ADAPTIVE_HH
