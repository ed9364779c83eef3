/**
 * @file
 * Per-layer grid state used by the single-QPU compiler: tracks which
 * cells host computation nodes, which are consumed by intra-layer
 * routing chains (Figure 4c), and supports transactional placement
 * so a node that does not fit can be moved to the next layer without
 * corrupting the current one.
 */

#ifndef DCMBQC_COMPILER_PLACER_HH
#define DCMBQC_COMPILER_PLACER_HH

#include <optional>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "photonic/grid.hh"

namespace dcmbqc
{

/**
 * Occupancy state of one execution layer's RSG grid.
 *
 * Cell states:
 *  - free: RSG output unused so far;
 *  - compute: hosts (part of) a computation node's super-cell;
 *  - routing: consumed by routing chains; a cell retains
 *    `routingUses` independent pass-throughs (2 for the 6-ring).
 */
class LayerGrid
{
  public:
    enum class CellState : std::uint8_t { Free, Compute, Routing };

    LayerGrid(const GridSpec &spec);

    int size() const { return size_; }
    int numCells() const { return size_ * size_; }

    /** Cells currently hosting computation nodes. */
    int computeCells() const { return computeCells_; }

    /** Cells consumed (fully or partially) by routing. */
    int routingCells() const { return routingCells_; }

    /** State of one cell (row-major index). */
    CellState cellState(int cell) const { return state_[cell]; }

    /** Pass-throughs a routing cell has left (0 for other states). */
    int routingUsesLeft(int cell) const { return routingLeft_[cell]; }

    /** Reset to an empty layer. */
    void clear();

    // Transactions --------------------------------------------------------
    /** Begin recording changes for possible rollback. */
    void beginTxn();

    /** Keep all changes made since beginTxn(). */
    void commitTxn();

    /** Undo all changes made since beginTxn(). */
    void abortTxn();

    /**
     * Place a computation node needing `degree` fusion arms.
     *
     * Computation cells live on even rows only; odd rows are routing
     * lanes, so no placed node is ever walled in. Within the
     * computation rows, cells are chosen in serpentine scan order
     * from an internal cursor (consecutive nodes stay spatially
     * adjacent) and the node grows a connected super-cell when its
     * degree exceeds one resource state's arms.
     *
     * @return Cell indices of the super-cell, or nullopt when the
     *         node does not fit on this layer.
     */
    std::optional<std::vector<int>> placeNode(int degree);

    /** Number of cells available for computation (even rows). */
    int computeCapacity() const
    {
        return static_cast<int>(computeScan_.size());
    }

    /**
     * Reserve computation cells for photons of earlier layers that
     * still await fusion partners: their columns keep hosting
     * inter-layer fusion chains, shrinking the capacity available to
     * new nodes. Clamped to half the grid so progress is always
     * possible (overflow photons spill into delay lines, which
     * Algorithm 1 charges as lifetime).
     */
    void setReservedCompute(int cells);

    /**
     * Route between two placed super-cells through free / partially
     * used routing cells (4-neighborhood). Adjacent super-cells route
     * with zero intermediate cells.
     *
     * The path is a shortest one, and among those the least direction
     * sequence: first by the index in `from` of its source cell, then
     * step by step by neighbour order (up, down, left, right). That is
     * the path a forward BFS from `from` in that order walks back from
     * the first cell it dequeues next to `to`. It is computed by an A*
     * search from `to` (Manhattan heuristic to the nearest `from` cell,
     * bucket queue) that labels every cell of every shortest path with
     * its exact distance to `to`, then a greedy walk from `from` that
     * always takes the first neighbour one step nearer.
     *
     * Unroutable pairs are rejected without searching the whole
     * layer: by a memo of regions proven closed on this layer, or
     * because the A* search or a BFS growing from `from` in lockstep
     * runs out before the two meet.
     *
     * @return Number of intermediate routing cells consumed, or
     *         nullopt when no path exists.
     */
    std::optional<int> route(const std::vector<int> &from,
                             const std::vector<int> &to);

  private:
    int size_;
    int fusionArms_;
    int routingUsesPerCell_;
    std::vector<CellState> state_;
    std::vector<std::uint8_t> routingLeft_;
    /** Serpentine scan order over the computation (even) rows. */
    std::vector<int> computeScan_;
    int cursor_ = 0;
    int computeCells_ = 0;
    int routingCells_ = 0;
    int reservedCompute_ = 0;

    struct UndoEntry
    {
        int cell;
        CellState state;
        std::uint8_t routingLeft;
    };
    std::vector<UndoEntry> undoLog_;
    bool inTxn_ = false;
    int txnCursor_ = 0;
    int txnComputeCells_ = 0;
    int txnRoutingCells_ = 0;

    // Route scratch, allocated once per grid. A `seen_` entry means
    // something only while it equals a stamp handed out for the
    // running search, so taking fresh stamps clears every mark.
    // `dist_` holds a cell's distance to `to` while `seen_` marks it
    // labelled by the A* search.
    std::vector<std::uint32_t> seen_;
    std::vector<int> dist_;
    /** Cells labelled by the A* search, `to` first. */
    std::vector<int> queue_;
    /** Cells reached by the BFS from `from`, `from` first. */
    std::vector<int> otherQueue_;
    /** A* bucket queue: cells by distance-plus-heuristic. */
    std::vector<std::vector<int>> buckets_;
    /** Row and column of each `from` cell, for the heuristic. */
    std::vector<std::pair<int, int>> fromRowCol_;
    std::uint32_t stamp_ = 0;

    // Memo of closed regions: sets of passable cells with no passable
    // neighbour outside the set. Passable cells only get scarcer
    // within a layer, so a region stays closed until clear() or an
    // abortTxn() that restores cells. Ids below firstLiveRegion_ are
    // stale; 0 marks a cell no region has claimed.
    std::vector<std::uint32_t> region_;
    std::uint32_t nextRegion_ = 1;
    std::uint32_t firstLiveRegion_ = 1;
    std::vector<std::uint32_t> sideRegions_;

    void touch(int cell);
    int nextFreeCell() const;

    bool passable(int cell) const
    {
        return state_[cell] == CellState::Free ||
               (state_[cell] == CellState::Routing &&
                routingLeft_[cell] > 0);
    }

    /** Writes the up, down, left, right neighbours; returns the count. */
    int neighbors(int cell, int (&out)[4]) const
    {
        const int x = cell / size_;
        const int y = cell % size_;
        int n = 0;
        if (x > 0)
            out[n++] = cell - size_;
        if (x + 1 < size_)
            out[n++] = cell + size_;
        if (y > 0)
            out[n++] = cell - 1;
        if (y + 1 < size_)
            out[n++] = cell + 1;
        return n;
    }

    /** First of `count` consecutive unused stamps. */
    std::uint32_t takeStamps(std::uint32_t count);
    void forgetRegions() { firstLiveRegion_ = nextRegion_; }
    /** True when the memo proves no path from `side` to `other`. */
    bool sealedOff(const std::vector<int> &side, std::uint32_t mark,
                   const std::vector<int> &other,
                   std::uint32_t other_mark);
    /** Lower bound on the intermediate cells from `cell` to `from`. */
    int towardFrom(int cell) const;
    /** First neighbour of `cell` labelled `dist` by the A* search, or -1. */
    int labelledNeighbor(int cell, std::uint32_t labelled, int dist) const;
    /** Expand one cell of the BFS from `from`; true once it meets A*. */
    bool growPartner(int cell, std::uint32_t source, std::uint32_t target,
                     std::uint32_t labelled, std::uint32_t reached);
    /** Record the passable `cells` as one new closed region. */
    void sealRegion(const std::vector<int> &cells);
};

} // namespace dcmbqc

#endif // DCMBQC_COMPILER_PLACER_HH
