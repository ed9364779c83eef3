#include "core/lsp.hh"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <sstream>
#include <unordered_set>

#include "common/logging.hh"

namespace dcmbqc
{

LayerSchedulingProblem::LayerSchedulingProblem(
    std::vector<MainTask> main_tasks, std::vector<SyncTask> sync_tasks,
    Graph local_edges, Digraph deps, int num_qpus, int kmax,
    int pl_ratio)
    : mainTasks_(std::move(main_tasks)),
      syncTasks_(std::move(sync_tasks)),
      localEdges_(std::move(local_edges)),
      deps_(std::move(deps)),
      numQpus_(num_qpus),
      kmax_(kmax),
      plRatio_(pl_ratio)
{
    localEdges_.freeze();
    DCMBQC_ASSERT(numQpus_ >= 1, "LSP needs at least one QPU");
    DCMBQC_ASSERT(kmax_ >= 1, "Kmax must be positive");
    DCMBQC_ASSERT(plRatio_ >= 1, "PL ratio must be positive");
    DCMBQC_ASSERT(localEdges_.numNodes() == deps_.numNodes(),
                  "local edge graph / deps size mismatch");

    qpuTasks_.assign(numQpus_, {});
    taskOfNode_.assign(localEdges_.numNodes(), -1);
    for (std::size_t id = 0; id < mainTasks_.size(); ++id) {
        const auto &task = mainTasks_[id];
        DCMBQC_ASSERT(task.qpu >= 0 && task.qpu < numQpus_,
                      "main task with bad QPU");
        DCMBQC_ASSERT(task.index ==
                          static_cast<int>(qpuTasks_[task.qpu].size()),
                      "main task indices must be dense per QPU");
        qpuTasks_[task.qpu].push_back(static_cast<int>(id));
        for (NodeId u : task.nodes) {
            DCMBQC_ASSERT(taskOfNode_[u] == -1,
                          "node in two main tasks: ", u);
            taskOfNode_[u] = static_cast<int>(id);
        }
    }
    for (NodeId u = 0; u < localEdges_.numNodes(); ++u)
        DCMBQC_ASSERT(taskOfNode_[u] >= 0, "node without main task: ", u);

    // Release slots: longest real-time dependency chain into each
    // node (in physical cycles, one per arc), converted to slots.
    // Within a QPU the release must also be monotone in the layer
    // order so it never conflicts with the order constraint.
    std::vector<NodeId> order;
    {
        const bool acyclic = deps_.topologicalSort(order);
        DCMBQC_ASSERT(acyclic, "LSP deps cyclic");
        std::vector<int> depth(deps_.numNodes(), 0);
        for (NodeId u : order)
            for (NodeId v : deps_.successors(u))
                depth[v] = std::max(depth[v], depth[u] + 1);

        mainRelease_.assign(mainTasks_.size(), 0);
        for (NodeId u = 0; u < deps_.numNodes(); ++u) {
            const int task = taskOfNode_[u];
            if (task < 0)
                continue;
            const TimeSlot release = std::max<TimeSlot>(
                (depth[u] - plRatio_) / plRatio_, 0);
            mainRelease_[task] =
                std::max(mainRelease_[task], release);
        }
        for (QpuId i = 0; i < numQpus_; ++i) {
            TimeSlot floor = 0;
            for (int task : qpuTasks_[i]) {
                mainRelease_[task] =
                    std::max(mainRelease_[task], floor);
                floor = mainRelease_[task];
            }
        }
    }

    syncsOfTask_.assign(mainTasks_.size(), {});
    for (std::size_t k = 0; k < syncTasks_.size(); ++k) {
        const auto &sync = syncTasks_[k];
        DCMBQC_ASSERT(sync.taskA >= 0 &&
                          sync.taskA < static_cast<int>(mainTasks_.size()),
                      "sync with bad taskA");
        DCMBQC_ASSERT(sync.taskB >= 0 &&
                          sync.taskB < static_cast<int>(mainTasks_.size()),
                      "sync with bad taskB");
        DCMBQC_ASSERT(mainTasks_[sync.taskA].qpu !=
                          mainTasks_[sync.taskB].qpu,
                      "sync task within one QPU");
        syncsOfTask_[sync.taskA].push_back(static_cast<int>(k));
        syncsOfTask_[sync.taskB].push_back(static_cast<int>(k));
    }
    buildTaskViews(order);
}

void
LayerSchedulingProblem::buildTaskViews(const std::vector<NodeId> &topo_order)
{
    const int num_tasks = static_cast<int>(mainTasks_.size());

    std::unordered_set<std::uint64_t> seen_pairs;
    for (const auto &e : localEdges_.edges()) {
        const int a = std::min(taskOfNode_[e.u], taskOfNode_[e.v]);
        const int b = std::max(taskOfNode_[e.u], taskOfNode_[e.v]);
        const auto key = (static_cast<std::uint64_t>(a) << 32) |
            static_cast<std::uint32_t>(b);
        if (a != b && seen_pairs.insert(key).second)
            fuseeTaskPairs_.emplace_back(a, b);
    }

    std::vector<std::vector<int>> neighbors(num_tasks);
    for (const auto &[a, b] : fuseeTaskPairs_) {
        neighbors[a].push_back(b);
        neighbors[b].push_back(a);
    }
    for (const auto &row : neighbors) {
        neighborTasks_.items.insert(neighborTasks_.items.end(),
                                    row.begin(), row.end());
        neighborTasks_.endRow();
    }

    std::vector<int> dep_index(deps_.numNodes(), -1);
    for (NodeId u : topo_order) {
        if (deps_.inDegree(u) == 0 && deps_.outDegree(u) == 0)
            continue;
        dep_index[u] = static_cast<int>(depNodes_.size());
        depNodes_.push_back(u);
    }
    for (NodeId u : depNodes_) {
        for (NodeId p : deps_.predecessors(u))
            depPreds_.items.push_back(dep_index[p]);
        depPreds_.endRow();
    }

    // Each task's anchors outside itself, once each: a stamp per
    // dependency node and per task records the last task that took it.
    std::vector<int> pred_stamp(depNodes_.size(), -1);
    std::vector<int> task_stamp(num_tasks, -1);
    for (int task = 0; task < num_tasks; ++task) {
        for (NodeId u : mainTasks_[task].nodes) {
            if (dep_index[u] < 0)
                continue;
            for (NodeId p : deps_.predecessors(u)) {
                const int i = dep_index[p];
                if (taskOfNode_[p] != task && pred_stamp[i] != task) {
                    pred_stamp[i] = task;
                    externalPreds_.items.push_back(i);
                }
            }
            for (NodeId c : deps_.successors(u)) {
                const int other = taskOfNode_[c];
                if (other != task && task_stamp[other] != task) {
                    task_stamp[other] = task;
                    successorTasks_.items.push_back(other);
                }
            }
        }
        externalPreds_.endRow();
        successorTasks_.endRow();
    }
}

void
evaluateSchedule(const LayerSchedulingProblem &lsp,
                 const Schedule &schedule, ScheduleEvaluation &out)
{
    const int pl = lsp.plRatio();
    const auto &main_start = schedule.mainStart;
    ScheduleBottleneck best;

    // Fusee storage between the layers of each local task pair; the
    // later task moves toward its partner.
    for (const auto &[a, b] : lsp.fuseeTaskPairs()) {
        const int span = std::abs(main_start[a] * pl - main_start[b] * pl);
        if (span > best.cost) {
            best.cost = span;
            best.kind = ScheduleBottleneck::Kind::Fusee;
            best.mainTask = main_start[a] >= main_start[b] ? a : b;
        }
    }
    const int tau_fusee = best.cost;

    // Measuree waits: Algorithm 1's MTime recurrence (in physical
    // cycles) over the nodes with dependency arcs. A node without a
    // predecessor waits one cycle, so when no wait exceeds one the
    // first node of the LSP is the first to reach the maximum.
    const auto &dep_nodes = lsp.depNodes();
    out.depMtime.resize(dep_nodes.size());
    int tau_measuree = lsp.localEdges().numNodes() > 0 ? 1 : 0;
    NodeId wait_node = 0;
    for (std::size_t i = 0; i < dep_nodes.size(); ++i) {
        const NodeId u = dep_nodes[i];
        const TimeSlot t = main_start[lsp.taskOfNode(u)] * pl;
        TimeSlot mtime = t + 1;
        for (int p : lsp.depPredecessors(static_cast<int>(i)))
            mtime = std::max(mtime, out.depMtime[p] + 1);
        out.depMtime[i] = mtime;
        const int wait = static_cast<int>(mtime - t);
        if (wait > tau_measuree ||
            (wait == tau_measuree && u < wait_node)) {
            tau_measuree = wait;
            wait_node = u;
        }
    }
    if (tau_measuree > best.cost) {
        best.cost = tau_measuree;
        best.kind = ScheduleBottleneck::Kind::Measuree;
        best.mainTask = lsp.taskOfNode(wait_node);
    }

    // tau_remote: connector storage between execution layer and
    // connection layer.
    int tau_remote = 0;
    for (std::size_t k = 0; k < lsp.syncTasks().size(); ++k) {
        const auto &sync = lsp.syncTasks()[k];
        const TimeSlot s = schedule.syncStart[k] * pl;
        const int d = std::max(std::abs(s - main_start[sync.taskA] * pl),
                               std::abs(s - main_start[sync.taskB] * pl));
        tau_remote = std::max(tau_remote, d);
        if (d > best.cost) {
            best.cost = d;
            best.kind = ScheduleBottleneck::Kind::Remote;
            best.mainTask = -1;
            best.syncTask = static_cast<int>(k);
        }
    }

    TimeSlot last = -1;
    for (TimeSlot t : main_start)
        last = std::max(last, t);
    for (TimeSlot t : schedule.syncStart)
        last = std::max(last, t);

    out.bottleneck = best;
    out.metrics.tauLocal = std::max(tau_fusee, tau_measuree);
    out.metrics.tauRemote = tau_remote;
    out.metrics.makespan = (last + 1) * pl;
}

ScheduleMetrics
evaluateSchedule(const LayerSchedulingProblem &lsp,
                 const Schedule &schedule)
{
    ScheduleEvaluation evaluation;
    evaluateSchedule(lsp, schedule, evaluation);
    return evaluation.metrics;
}

bool
validateSchedule(const LayerSchedulingProblem &lsp,
                 const Schedule &schedule, std::string *why)
{
    auto fail = [&](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };

    if (schedule.mainStart.size() != lsp.mainTasks().size() ||
        schedule.syncStart.size() != lsp.syncTasks().size()) {
        return fail("schedule size mismatch");
    }

    // Per-QPU main order and occupancy.
    // occupancy[qpu][slot] -> -1 free, -2 main, >=0 sync count.
    std::vector<std::map<TimeSlot, int>> occupancy(lsp.numQpus());

    for (QpuId i = 0; i < lsp.numQpus(); ++i) {
        TimeSlot prev = -1;
        for (int task : lsp.qpuTasks(i)) {
            const TimeSlot t = schedule.mainStart[task];
            if (t < 0)
                return fail("negative main start");
            if (t <= prev) {
                std::ostringstream oss;
                oss << "main order violated on QPU " << i
                    << " at slot " << t;
                return fail(oss.str());
            }
            prev = t;
            auto [it, inserted] = occupancy[i].emplace(t, -2);
            if (!inserted)
                return fail("two tasks share a QPU slot");
        }
    }

    for (std::size_t k = 0; k < lsp.syncTasks().size(); ++k) {
        const auto &sync = lsp.syncTasks()[k];
        const TimeSlot t = schedule.syncStart[k];
        if (t < 0)
            return fail("negative sync start");
        for (int task : {sync.taskA, sync.taskB}) {
            const QpuId qpu = lsp.mainTasks()[task].qpu;
            auto [it, inserted] = occupancy[qpu].emplace(t, 1);
            if (!inserted) {
                if (it->second == -2)
                    return fail("sync overlaps a main task");
                if (it->second >= lsp.kmax())
                    return fail("connection capacity exceeded");
                ++it->second;
            }
        }
    }
    return true;
}

} // namespace dcmbqc
