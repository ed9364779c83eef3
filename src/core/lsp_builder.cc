#include "core/lsp_builder.hh"

#include <algorithm>

#include "common/thread_pool.hh"
#include "compiler/single_qpu.hh"

namespace dcmbqc
{

LayerSchedulingProblem
buildLayerSchedulingProblem(const Graph &g, const Digraph &deps,
                            const Partitioning &part, int num_qpus,
                            const GridSpec &grid, PlacementOrder order,
                            int kmax,
                            std::vector<LocalSchedule> *local_out,
                            int num_workers)
{
    const auto members = part.partMembers();

    // --- Per-QPU local compilation ----------------------------------
    // Each part's induced subproblem is independent and the local
    // compiler is stateless, so the compiles run on the shared pool
    // into pre-sized slots; the assembly below walks the slots in
    // QPU order, making the output independent of the worker count.
    SingleQpuConfig local_config;
    local_config.grid = grid;
    local_config.order = order;
    const SingleQpuCompiler local_compiler(local_config);

    std::vector<LocalSchedule> locals(num_qpus);

    auto compile_one = [&](QpuId qpu) {
        std::vector<NodeId> to_sub;
        const Graph sub = g.inducedSubgraph(members[qpu], &to_sub);

        // Induced dependency graph (arcs within the part only).
        Digraph sub_deps(sub.numNodes());
        for (NodeId u : members[qpu])
            for (NodeId v : deps.successors(u))
                if (to_sub[v] != invalidNode)
                    sub_deps.addArc(to_sub[u], to_sub[v]);

        locals[qpu] = local_compiler.compile(sub, sub_deps);
    };

    if (num_workers <= 0)
        num_workers = ThreadPool::defaultNumThreads();
    num_workers = std::min(num_workers, num_qpus);
    if (num_workers > 1) {
        ThreadPool pool(num_workers);
        for (QpuId qpu = 0; qpu < num_qpus; ++qpu)
            pool.submit([&, qpu] { compile_one(qpu); });
        pool.wait();
    } else {
        for (QpuId qpu = 0; qpu < num_qpus; ++qpu)
            compile_one(qpu);
    }

    // --- Sequential assembly (QPU order fixes the task ids) ---------
    std::vector<MainTask> main_tasks;
    std::vector<int> task_of_node(g.numNodes(), -1);
    for (QpuId qpu = 0; qpu < num_qpus; ++qpu) {
        const LocalSchedule &local = locals[qpu];
        for (std::size_t layer = 0; layer < local.layers.size();
             ++layer) {
            MainTask task;
            task.qpu = qpu;
            task.index = static_cast<int>(layer);
            task.nodes.reserve(local.layers[layer].nodes.size());
            for (NodeId sub_node : local.layers[layer].nodes) {
                const NodeId global = members[qpu][sub_node];
                task.nodes.push_back(global);
                task_of_node[global] =
                    static_cast<int>(main_tasks.size());
            }
            main_tasks.push_back(std::move(task));
        }
    }
    if (local_out)
        *local_out = std::move(locals);

    // --- Connectors / synchronization tasks --------------------------
    Graph local_edges(g.numNodes());
    std::vector<SyncTask> sync_tasks;
    for (const auto &e : g.edges()) {
        if (part.part(e.u) == part.part(e.v)) {
            local_edges.addEdge(e.u, e.v, e.weight);
        } else {
            SyncTask sync;
            sync.taskA = task_of_node[e.u];
            sync.taskB = task_of_node[e.v];
            sync.u = e.u;
            sync.v = e.v;
            sync_tasks.push_back(sync);
        }
    }

    return LayerSchedulingProblem(std::move(main_tasks),
                                  std::move(sync_tasks),
                                  std::move(local_edges), deps,
                                  num_qpus, kmax, grid.plRatio);
}

} // namespace dcmbqc
