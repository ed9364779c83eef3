/**
 * @file
 * Turning compiled programs into noise exposure, and exposure into
 * composite survival. This is the shared analytic core: the mc-loss
 * backend derives its per-shot sampling probabilities from the same
 * `NoiseExposure` the compiler's cost model scores, so partitioning
 * and BDIR refinement optimize against exactly the error budget the
 * simulator charges.
 */

#ifndef DCMBQC_NOISE_ANALYSIS_HH
#define DCMBQC_NOISE_ANALYSIS_HH

#include <vector>

#include "common/types.hh"
#include "core/lsp.hh"
#include "graph/digraph.hh"
#include "graph/graph.hh"
#include "noise/model.hh"
#include "partition/partitioning.hh"

namespace dcmbqc
{

/** Per-photon and per-fusion exposure of one compiled program. */
struct NoiseExposure
{
    /** One entry per photon (global node id). */
    std::vector<NoiseSite> sites;

    /** One entry per fusion edge, in graph edge order. */
    std::vector<NoiseEdge> edges;

    /** Endpoints of `edges[i]`, aligned. */
    std::vector<std::pair<NodeId, NodeId>> edgeEndpoints;
};

/**
 * Exposure of a schedule given per-photon generation times.
 *
 * Intra-QPU storage follows Algorithm 1's accounting (fusee waits
 * charged to the earlier photon of each same-part pair, measuree
 * waits from the MTime recurrence); its maximum is the required
 * photon lifetime.
 * Cut edges mark both endpoints as connector photons and charge the
 * generation gap |t_u - t_v| to the earlier photon's connector-side
 * storage — the sync-layer placement is not retained in a
 * DcMbqcResult, so the gap is the tightest schedule-independent
 * bound on the tau_remote wait.
 *
 * @param assignment Node -> QPU map, or null for a single-QPU
 *        program (every edge intra, no connectors).
 */
NoiseExposure
buildExposure(const Graph &g, const Digraph &deps,
              const std::vector<TimeSlot> &node_time,
              const std::vector<int> *assignment);

/**
 * Exposure of a schedule-free pattern run over `num_nodes` photons:
 * no storage, no connectors, no fusion edges.
 */
NoiseExposure patternExposure(NodeId num_nodes);

/**
 * Process-wide count of buildExposure calls. Exposure is a
 * per-program derivation: backends must build it once per run and
 * sample from it per shot. Tests snapshot this counter around a run
 * to pin the hoist — a per-shot rebuild would scale the delta with
 * the shot count.
 */
long buildExposureCallCount();

/** Exposure scored against one model. */
struct NoiseAnalysis
{
    /** Sum of log survival over all sites and edges. */
    double logSurvival = 0.0;

    /** exp(logSurvival): probability the whole shot survives. */
    double successProbability = 1.0;

    /**
     * Per-photon independent loss probability (sampling), site
     * order. Correlated mechanisms are left out: they sample through
     * their own hook, so a shot must not draw their analytic factor
     * a second time.
     */
    std::vector<double> siteLoss;

    /** Per-fusion loss probability (sampling), edge order. */
    std::vector<double> edgeLoss;

    /** Max / mean intra-QPU storage. */
    int maxStorageCycles = 0;
    double meanStorageCycles = 0.0;
};

NoiseAnalysis analyzeNoise(const NoiseExposure &exposure,
                           const NoiseModel &model);

/**
 * Static (schedule-free) survival score of a partition candidate:
 * connector insertion loss on every cut-edge endpoint plus fusion
 * failure on every edge. Storage-dependent terms are zero — at
 * partition time no schedule exists — so the score isolates exactly
 * the cut structure the partitioner controls. Higher is better.
 */
double partitionLogSurvival(const Graph &g, const Partitioning &p,
                            const NoiseModel &model);

/**
 * Survival score of a full LSP schedule, in log space (higher is
 * better): intra-QPU fusee/measuree storage, connector waits per
 * sync task (|sync start - photon generation| on both endpoints,
 * the same accounting Algorithm 3's bottleneck finder uses), and
 * per-fusion failure. This is the BDIR objective under a noise
 * model.
 *
 * @param evaluation evaluateSchedule's output for `schedule`: its
 *        MTime values give the measuree storage, so the score
 *        reuses the LSP's stored topological order.
 */
double scheduleLogSurvival(const LayerSchedulingProblem &lsp,
                           const Schedule &schedule,
                           const ScheduleEvaluation &evaluation,
                           const NoiseModel &model);

} // namespace dcmbqc

#endif // DCMBQC_NOISE_ANALYSIS_HH
