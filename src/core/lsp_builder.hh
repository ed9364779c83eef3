/**
 * @file
 * Construction of the Layer Scheduling Problem instance from a
 * partitioned computation graph: per-part single-QPU compilation,
 * main-task extraction, and connector/synchronization task
 * derivation from the cut edges. Used by the pass-based driver
 * (PlaceLocalPass) and by tests that rebuild a compile's instance.
 */

#ifndef DCMBQC_CORE_LSP_BUILDER_HH
#define DCMBQC_CORE_LSP_BUILDER_HH

#include <vector>

#include "compiler/execution_layer.hh"
#include "compiler/ordering.hh"
#include "core/lsp.hh"
#include "graph/digraph.hh"
#include "graph/graph.hh"
#include "partition/partitioning.hh"
#include "photonic/grid.hh"

namespace dcmbqc
{

/**
 * Compile every part with the single-QPU compiler and assemble the
 * LSP instance (Definition IV.1) over the resulting execution
 * layers.
 *
 * @param g Computation graph (global node ids).
 * @param deps Real-time dependency graph over the same nodes.
 * @param part k-way partition; part ids must cover [0, num_qpus).
 * @param num_qpus Number of QPUs (= parts).
 * @param grid Per-QPU resource grid.
 * @param order Placement order for the local compiler.
 * @param kmax Connection capacity per connection layer.
 * @param local_out Optional out: the per-QPU local schedules.
 * @param num_workers Workers for the per-QPU compiles (<= 0 uses
 *        the hardware default). The per-part subproblems are
 *        independent and assembled in QPU order afterwards, so the
 *        result is byte-identical for every worker count; one
 *        worker compiles them sequentially in QPU order, the
 *        oracle.
 */
LayerSchedulingProblem buildLayerSchedulingProblem(
    const Graph &g, const Digraph &deps, const Partitioning &part,
    int num_qpus, const GridSpec &grid, PlacementOrder order, int kmax,
    std::vector<LocalSchedule> *local_out = nullptr,
    int num_workers = 0);

} // namespace dcmbqc

#endif // DCMBQC_CORE_LSP_BUILDER_HH
