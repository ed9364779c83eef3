#include "noise/analysis.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "core/lifetime.hh"

namespace dcmbqc
{

namespace
{

/** log survival with certain loss latched to -inf, not a NaN. */
double
logOrNegInf(double survival)
{
    if (survival <= 0.0)
        return -std::numeric_limits<double>::infinity();
    return std::log(std::min(survival, 1.0));
}

/** Loss probability clamped to a sane sampling domain. */
double
lossOf(double survival)
{
    return std::min(1.0, std::max(0.0, 1.0 - survival));
}

std::atomic<long> g_exposure_calls{0};

} // namespace

long
buildExposureCallCount()
{
    return g_exposure_calls.load(std::memory_order_relaxed);
}

NoiseExposure
patternExposure(NodeId num_nodes)
{
    NoiseExposure exposure;
    exposure.sites.assign(num_nodes, NoiseSite{});
    for (NoiseSite &site : exposure.sites)
        site.totalSites = static_cast<int>(num_nodes);
    return exposure;
}

NoiseExposure
buildExposure(const Graph &g, const Digraph &deps,
              const std::vector<TimeSlot> &node_time,
              const std::vector<int> *assignment)
{
    g_exposure_calls.fetch_add(1, std::memory_order_relaxed);
    const NodeId n = g.numNodes();
    NoiseExposure exposure = patternExposure(n);
    exposure.edges.reserve(g.edges().size());
    exposure.edgeEndpoints.reserve(g.edges().size());
    for (const auto &e : g.edges()) {
        const bool remote = assignment &&
            (*assignment)[e.u] != (*assignment)[e.v];
        const TimeSlot du = node_time[e.v] - node_time[e.u];
        if (remote) {
            exposure.sites[e.u].connector = true;
            exposure.sites[e.v].connector = true;
            // The earlier photon holds its connector fusion open for
            // at least the generation gap.
            const NodeId earlier = du > 0 ? e.u : e.v;
            exposure.sites[earlier].remoteStorageCycles = std::max(
                exposure.sites[earlier].remoteStorageCycles,
                static_cast<int>(du > 0 ? du : -du));
        } else if (du > 0) {
            exposure.sites[e.u].storageCycles = std::max(
                exposure.sites[e.u].storageCycles,
                static_cast<int>(du));
        } else {
            exposure.sites[e.v].storageCycles = std::max(
                exposure.sites[e.v].storageCycles,
                static_cast<int>(-du));
        }
        NoiseEdge edge;
        edge.remote = remote;
        exposure.edges.push_back(edge);
        exposure.edgeEndpoints.emplace_back(e.u, e.v);
    }

    const auto waits = measureeWaits(deps, node_time);
    for (NodeId u = 0; u < n; ++u)
        exposure.sites[u].storageCycles = std::max(
            exposure.sites[u].storageCycles, waits[u]);
    return exposure;
}

NoiseAnalysis
analyzeNoise(const NoiseExposure &exposure, const NoiseModel &model)
{
    NoiseAnalysis analysis;
    analysis.siteLoss.reserve(exposure.sites.size());
    long long total_storage = 0;
    for (const NoiseSite &site : exposure.sites) {
        double survival = 1.0;
        double independent = 1.0;
        for (const auto &mechanism : model.mechanisms()) {
            const double factor = mechanism->siteSurvival(site);
            survival *= factor;
            if (!mechanism->correlated())
                independent *= factor;
        }
        analysis.logSurvival += logOrNegInf(survival);
        analysis.siteLoss.push_back(lossOf(independent));
        analysis.maxStorageCycles =
            std::max(analysis.maxStorageCycles, site.storageCycles);
        total_storage += site.storageCycles;
    }
    analysis.edgeLoss.reserve(exposure.edges.size());
    for (const NoiseEdge &edge : exposure.edges) {
        const double survival = model.edgeSurvival(edge);
        analysis.logSurvival += logOrNegInf(survival);
        analysis.edgeLoss.push_back(lossOf(survival));
    }
    analysis.meanStorageCycles = exposure.sites.empty()
        ? 0.0
        : static_cast<double>(total_storage) / exposure.sites.size();
    analysis.successProbability = std::exp(analysis.logSurvival);
    return analysis;
}

double
partitionLogSurvival(const Graph &g, const Partitioning &p,
                     const NoiseModel &model)
{
    const NodeId n = g.numNodes();
    std::vector<char> connector(n, 0);
    double log_survival = 0.0;
    for (const auto &e : g.edges()) {
        NoiseEdge edge;
        edge.remote = p.part(e.u) != p.part(e.v);
        if (edge.remote) {
            connector[e.u] = 1;
            connector[e.v] = 1;
        }
        log_survival += logOrNegInf(model.edgeSurvival(edge));
    }
    for (NodeId u = 0; u < n; ++u) {
        NoiseSite site;
        site.connector = connector[u] != 0;
        site.totalSites = static_cast<int>(n);
        log_survival += logOrNegInf(model.siteSurvival(site));
    }
    return log_survival;
}

double
scheduleLogSurvival(const LayerSchedulingProblem &lsp,
                    const Schedule &schedule,
                    const ScheduleEvaluation &evaluation,
                    const NoiseModel &model)
{
    const NodeId n = lsp.localEdges().numNodes();
    std::vector<TimeSlot> node_time(n);
    for (NodeId u = 0; u < n; ++u)
        node_time[u] = schedule.mainStart[lsp.taskOfNode(u)] * lsp.plRatio();

    // Measuree storage: one cycle for a node without dependency arcs,
    // the evaluation's MTime wait for the others.
    std::vector<NoiseSite> sites(n);
    for (NodeId u = 0; u < n; ++u) {
        sites[u].totalSites = static_cast<int>(n);
        sites[u].storageCycles = 1;
    }
    const auto &dep_nodes = lsp.depNodes();
    for (std::size_t i = 0; i < dep_nodes.size(); ++i) {
        const NodeId u = dep_nodes[i];
        sites[u].storageCycles =
            static_cast<int>(evaluation.depMtime[i] - node_time[u]);
    }

    // Intra-QPU fusee storage (earlier photon of each local pair).
    for (const auto &e : lsp.localEdges().edges()) {
        const TimeSlot du = node_time[e.v] - node_time[e.u];
        const NodeId waiter = du > 0 ? e.u : e.v;
        sites[waiter].storageCycles = std::max(
            sites[waiter].storageCycles,
            static_cast<int>(du > 0 ? du : -du));
    }

    // Connector waits: each endpoint holds from its generation to
    // the connection layer of its sync task.
    for (std::size_t k = 0; k < lsp.syncTasks().size(); ++k) {
        const auto &sync = lsp.syncTasks()[k];
        const TimeSlot s = schedule.syncStart[k] * lsp.plRatio();
        for (const NodeId u : {sync.u, sync.v}) {
            if (u == invalidNode)
                continue;
            sites[u].connector = true;
            const TimeSlot wait =
                s >= node_time[u] ? s - node_time[u]
                                  : node_time[u] - s;
            sites[u].remoteStorageCycles = std::max(
                sites[u].remoteStorageCycles, static_cast<int>(wait));
        }
    }

    double log_survival = 0.0;
    for (const NoiseSite &site : sites)
        log_survival += logOrNegInf(model.siteSurvival(site));

    NoiseEdge local_edge;
    for (std::size_t i = 0; i < lsp.localEdges().edges().size(); ++i)
        log_survival += logOrNegInf(model.edgeSurvival(local_edge));
    NoiseEdge remote_edge;
    remote_edge.remote = true;
    for (std::size_t k = 0; k < lsp.syncTasks().size(); ++k)
        log_survival += logOrNegInf(model.edgeSurvival(remote_edge));
    return log_survival;
}

} // namespace dcmbqc
