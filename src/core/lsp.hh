/**
 * @file
 * The Layer Scheduling Problem (Definition IV.1): schedule the main
 * tasks (per-QPU execution layers) and synchronization tasks
 * (inter-QPU connector fusions via connection layers) over a
 * discrete time horizon, minimizing the required photon lifetime
 * max(tau_local, tau_remote). NP-hard (Theorem IV.2, by reduction
 * from graph bandwidth).
 */

#ifndef DCMBQC_CORE_LSP_HH
#define DCMBQC_CORE_LSP_HH

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "graph/digraph.hh"
#include "graph/graph.hh"

namespace dcmbqc
{

/** A main task J_{i,j}: execution layer j compiled for QPU i. */
struct MainTask
{
    QpuId qpu = invalidQpu;
    int index = -1; ///< j, the local layer index

    /** Computation-graph nodes (global ids) on this layer. */
    std::vector<NodeId> nodes;
};

/** A synchronization task S_k re-establishing one cut edge. */
struct SyncTask
{
    /** Main-task ids of the two associated execution layers. */
    int taskA = -1;
    int taskB = -1;

    /** The connector photons (global node ids). */
    NodeId u = invalidNode;
    NodeId v = invalidNode;
};

/** A read-only run of ints: one row of a flat (CSR) table. */
struct IndexRange
{
    const int *first = nullptr;
    const int *last = nullptr;

    const int *begin() const { return first; }
    const int *end() const { return last; }
};

/**
 * An instance of the layer scheduling problem. Owns the fusee-edge
 * graph restricted to intra-QPU edges plus the global dependency
 * graph needed to evaluate tau_local.
 *
 * Every task-level view the schedule evaluator and BDIR read is
 * built once, on construction: the distinct fusee task pairs, the
 * dependency nodes in topological order with their predecessors,
 * and each main task's anchors (see evaluateSchedule and
 * balancePointForMain).
 */
class LayerSchedulingProblem
{
  public:
    LayerSchedulingProblem() = default;

    /**
     * @param main_tasks All main tasks, grouped by QPU with
     *        consecutive indices 0..m_i-1 per QPU.
     * @param sync_tasks All synchronization tasks.
     * @param local_edges Fusee pairs on the same QPU (global ids);
     *        frozen here if it is not yet.
     * @param deps Global real-time dependency graph.
     * @param num_qpus Number of QPUs.
     * @param kmax Connection capacity per connection layer.
     * @param pl_ratio Physical cycles per scheduling slot (logical
     *        layer); metrics are evaluated in physical cycles.
     */
    LayerSchedulingProblem(std::vector<MainTask> main_tasks,
                           std::vector<SyncTask> sync_tasks,
                           Graph local_edges, Digraph deps,
                           int num_qpus, int kmax, int pl_ratio = 1);

    int numQpus() const { return numQpus_; }
    int kmax() const { return kmax_; }
    int plRatio() const { return plRatio_; }

    const std::vector<MainTask> &mainTasks() const { return mainTasks_; }
    const std::vector<SyncTask> &syncTasks() const { return syncTasks_; }

    /** Main-task ids of QPU i, in index order. */
    const std::vector<int> &qpuTasks(QpuId i) const
    {
        return qpuTasks_[i];
    }

    /** Main task containing node u (global id); -1 when absent. */
    int taskOfNode(NodeId u) const { return taskOfNode_[u]; }

    /** Sync-task ids associated with each main task. */
    const std::vector<int> &syncsOfTask(int main_task) const
    {
        return syncsOfTask_[main_task];
    }

    /**
     * Release slot of each main task: scheduling a layer before the
     * measurement chains feeding it can resolve only adds photon
     * storage, so the scheduler treats
     *   release = (longest real-time dependency chain into the
     *              layer's nodes, in cycles) / plRatio
     * as an earliest start. Computed on construction.
     */
    TimeSlot mainRelease(int main_task) const
    {
        return mainRelease_[main_task];
    }

    const Graph &localEdges() const { return localEdges_; }
    const Digraph &deps() const { return deps_; }

    /**
     * The distinct main-task pairs (a, b), a < b, joined by an
     * intra-QPU edge, each at the position of its first edge. An
     * edge's fusee span depends only on the start slots of its two
     * tasks; edges within one task span 0 and have no pair.
     */
    const std::vector<std::pair<int, int>> &fuseeTaskPairs() const
    {
        return fuseeTaskPairs_;
    }

    /**
     * The nodes with at least one dependency arc, in the topological
     * order the release slots were computed in. Every other node
     * waits exactly one cycle for its measurement.
     */
    const std::vector<NodeId> &depNodes() const { return depNodes_; }

    /** Positions in depNodes() of the predecessors of depNodes()[i]. */
    IndexRange depPredecessors(int i) const
    {
        return depPreds_.row(i);
    }

    /** Main tasks joined to `main_task` by an intra-QPU edge. */
    IndexRange neighborTasks(int main_task) const
    {
        return neighborTasks_.row(main_task);
    }

    /**
     * Positions in depNodes() of the predecessors, outside the task,
     * of the task's nodes.
     */
    IndexRange externalPredecessors(int main_task) const
    {
        return externalPreds_.row(main_task);
    }

    /** Main tasks, other than this one, of its nodes' successors. */
    IndexRange successorTasks(int main_task) const
    {
        return successorTasks_.row(main_task);
    }

  private:
    /** Rows of ints stored flat; row r is items[offsets[r], offsets[r+1]). */
    struct Rows
    {
        std::vector<int> offsets{0};
        std::vector<int> items;

        void endRow() { offsets.push_back(static_cast<int>(items.size())); }

        IndexRange
        row(int r) const
        {
            return {items.data() + offsets[r],
                    items.data() + offsets[r + 1]};
        }
    };

    void buildTaskViews(const std::vector<NodeId> &topo_order);

    std::vector<MainTask> mainTasks_;
    std::vector<SyncTask> syncTasks_;
    std::vector<std::vector<int>> qpuTasks_;
    std::vector<std::vector<int>> syncsOfTask_;
    std::vector<int> taskOfNode_;
    std::vector<TimeSlot> mainRelease_;
    Graph localEdges_;
    Digraph deps_;
    std::vector<std::pair<int, int>> fuseeTaskPairs_;
    std::vector<NodeId> depNodes_;
    Rows depPreds_;
    Rows neighborTasks_;
    Rows externalPreds_;
    Rows successorTasks_;
    int numQpus_ = 1;
    int kmax_ = 4;
    int plRatio_ = 1;
};

/** Decision variables: start slots of every task. */
struct Schedule
{
    std::vector<TimeSlot> mainStart;
    std::vector<TimeSlot> syncStart;

    /** Latest occupied slot + 1 (in scheduling slots). */
    TimeSlot makespan = 0;
};

/** Objective components of a schedule (in physical cycles). */
struct ScheduleMetrics
{
    int tauLocal = 0;
    int tauRemote = 0;
    TimeSlot makespan = 0;

    /** The LSP objective: max(tau_local, tau_remote). */
    int tauPhoton() const { return std::max(tauLocal, tauRemote); }
};

/**
 * The schedule's primary bottleneck (FINDBOTTLENECKTASK of
 * Algorithm 3): the cost source that sets tau_photon.
 */
struct ScheduleBottleneck
{
    enum class Kind { Fusee, Measuree, Remote };

    Kind kind = Kind::Fusee;
    int cost = 0;

    /** Main task to move (Fusee / Measuree) or -1. */
    int mainTask = -1;

    /** Sync task to move (Remote) or -1. */
    int syncTask = -1;
};

/** Everything one evaluation sweep over a schedule yields. */
struct ScheduleEvaluation
{
    ScheduleMetrics metrics;
    ScheduleBottleneck bottleneck;

    /** MTime (physical cycles) of each node of lsp.depNodes(). */
    std::vector<TimeSlot> depMtime;
};

/**
 * Evaluate a (feasible) schedule in one sweep at task granularity,
 * with the values of Algorithm 1 over every photon:
 *  - tau_fusee is the largest span over fuseeTaskPairs(); the fusee
 *    bottleneck is the first pair reaching it, which is the pair of
 *    the first edge reaching it, and its later task moves;
 *  - tau_measuree comes from the MTime recurrence over depNodes()
 *    only, every other node waiting one cycle; the measuree
 *    bottleneck is the task of the lowest node id with the largest
 *    wait;
 *  - tau_remote and its bottleneck are the first sync task with the
 *    largest connector wait.
 * A later category becomes the bottleneck only with a strictly
 * greater cost (fusee, then measuree, then remote), as a scan over
 * every edge, then every node, then every sync task would find.
 *
 * @param out Overwritten; its buffers are reused across calls.
 */
void evaluateSchedule(const LayerSchedulingProblem &lsp,
                      const Schedule &schedule, ScheduleEvaluation &out);

/** The metrics of evaluateSchedule above. */
ScheduleMetrics evaluateSchedule(const LayerSchedulingProblem &lsp,
                                 const Schedule &schedule);

/**
 * Check feasibility: machine exclusivity (one main task XOR at most
 * Kmax sync tasks per QPU per slot), per-QPU main-task order, and
 * non-negative start times.
 *
 * @param why Optional out-description of the first violation.
 */
bool validateSchedule(const LayerSchedulingProblem &lsp,
                      const Schedule &schedule,
                      std::string *why = nullptr);

} // namespace dcmbqc

#endif // DCMBQC_CORE_LSP_HH
