#include "compiler/placer.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"
#include "photonic/resource_state.hh"

namespace dcmbqc
{

LayerGrid::LayerGrid(const GridSpec &spec)
    : size_(spec.usableSize()),
      state_(static_cast<std::size_t>(size_) * size_, CellState::Free),
      routingLeft_(state_.size(), 0), seen_(state_.size(), 0),
      parent_(state_.size(), -1), region_(state_.size(), 0)
{
    const auto info = resourceStateInfo(spec.resourceState);
    fusionArms_ = info.fusionArms;
    routingUsesPerCell_ = info.routingUses;
    DCMBQC_ASSERT(size_ >= 1, "grid has no usable cells");

    // Computation cells on even rows, serpentine order; odd rows
    // stay free as routing lanes so no placed node gets walled in.
    for (int row = 0; row < size_; row += 2) {
        if ((row / 2) % 2 == 0) {
            for (int col = 0; col < size_; ++col)
                computeScan_.push_back(row * size_ + col);
        } else {
            for (int col = size_ - 1; col >= 0; --col)
                computeScan_.push_back(row * size_ + col);
        }
    }
}

void
LayerGrid::setReservedCompute(int cells)
{
    reservedCompute_ =
        std::min(std::max(cells, 0), computeCapacity() / 2);
}

void
LayerGrid::clear()
{
    std::fill(state_.begin(), state_.end(), CellState::Free);
    std::fill(routingLeft_.begin(), routingLeft_.end(), 0);
    cursor_ = 0;
    computeCells_ = 0;
    routingCells_ = 0;
    undoLog_.clear();
    inTxn_ = false;
    forgetRegions();
}

void
LayerGrid::beginTxn()
{
    DCMBQC_ASSERT(!inTxn_, "nested transaction");
    inTxn_ = true;
    undoLog_.clear();
    txnCursor_ = cursor_;
    txnComputeCells_ = computeCells_;
    txnRoutingCells_ = routingCells_;
}

void
LayerGrid::commitTxn()
{
    DCMBQC_ASSERT(inTxn_, "commit without begin");
    inTxn_ = false;
    undoLog_.clear();
}

void
LayerGrid::abortTxn()
{
    DCMBQC_ASSERT(inTxn_, "abort without begin");
    // Restored cells may reopen a region proven closed since.
    if (!undoLog_.empty())
        forgetRegions();
    // Undo in reverse order; the log may contain duplicates, so the
    // earliest (last applied here) value wins.
    for (auto it = undoLog_.rbegin(); it != undoLog_.rend(); ++it) {
        state_[it->cell] = it->state;
        routingLeft_[it->cell] = it->routingLeft;
    }
    cursor_ = txnCursor_;
    computeCells_ = txnComputeCells_;
    routingCells_ = txnRoutingCells_;
    inTxn_ = false;
    undoLog_.clear();
}

void
LayerGrid::touch(int cell)
{
    if (inTxn_)
        undoLog_.push_back({cell, state_[cell], routingLeft_[cell]});
}

int
LayerGrid::nextFreeCell() const
{
    // Scan the computation rows serpentine-wise from the cursor so
    // consecutively placed nodes are spatially adjacent.
    const int total = static_cast<int>(computeScan_.size());
    for (int step = 0; step < total; ++step) {
        const int idx = (cursor_ + step) % total;
        if (state_[computeScan_[idx]] == CellState::Free)
            return idx;
    }
    return -1;
}

std::optional<std::vector<int>>
LayerGrid::placeNode(int degree)
{
    // Cells needed: 1, plus expansion when the degree exceeds one
    // state's arms. A chain of m cells offers m*arms - 2*(m-1) arms.
    int cells_needed = 1;
    if (degree > fusionArms_) {
        DCMBQC_ASSERT(fusionArms_ >= 3, "resource state too small");
        const int extra_arms = fusionArms_ - 2;
        cells_needed +=
            (degree - fusionArms_ + extra_arms - 1) / extra_arms;
    }

    // Capacity check including the cells reserved for pending
    // photons' fusion-chain columns. The reservation is soft: the
    // first node of a layer is always admitted so oversized
    // super-cells cannot deadlock placement.
    if (computeCells_ > 0 &&
        computeCells_ + cells_needed + reservedCompute_ >
            computeCapacity()) {
        return std::nullopt;
    }

    const int start_idx = nextFreeCell();
    if (start_idx < 0)
        return std::nullopt;
    const int start = computeScan_[start_idx];

    std::vector<int> super;
    super.push_back(start);
    touch(start);
    state_[start] = CellState::Compute;

    // Grow the super-cell over free neighbors (BFS frontier).
    std::size_t frontier = 0;
    while (static_cast<int>(super.size()) < cells_needed) {
        bool grown = false;
        int nbs[4];
        for (; frontier < super.size() && !grown; ++frontier) {
            const int count = neighbors(super[frontier], nbs);
            for (int i = 0; i < count; ++i) {
                const int nb = nbs[i];
                if (state_[nb] == CellState::Free) {
                    touch(nb);
                    state_[nb] = CellState::Compute;
                    super.push_back(nb);
                    grown = true;
                    break;
                }
            }
            if (grown)
                --frontier; // revisit this cell for more neighbors
        }
        if (!grown) {
            // Not enough adjacent space; caller aborts the txn.
            return std::nullopt;
        }
    }

    computeCells_ += cells_needed;
    cursor_ = (start_idx + 1) % static_cast<int>(computeScan_.size());
    return super;
}

std::uint32_t
LayerGrid::takeStamps(std::uint32_t count)
{
    if (stamp_ > std::numeric_limits<std::uint32_t>::max() - count) {
        std::fill(seen_.begin(), seen_.end(), 0);
        stamp_ = 0;
    }
    const std::uint32_t first = stamp_ + 1;
    stamp_ += count;
    return first;
}

bool
LayerGrid::sealedOff(const std::vector<int> &side, std::uint32_t mark,
                     const std::vector<int> &other, std::uint32_t other_mark)
{
    // Every passable cell a search from `side` could step into must
    // lie in a live closed region. Connected passable cells share
    // their region, so the last cell of any path to `other` would
    // carry one of these ids next to an `other` cell. route() has
    // already ruled out a `side` cell next to an `other` cell.
    sideRegions_.clear();
    int nbs[4];
    for (int cell : side) {
        const int count = neighbors(cell, nbs);
        for (int i = 0; i < count; ++i) {
            const int nb = nbs[i];
            if (seen_[nb] == mark || !passable(nb))
                continue;
            if (region_[nb] < firstLiveRegion_)
                return false;
            if (std::find(sideRegions_.begin(), sideRegions_.end(),
                          region_[nb]) == sideRegions_.end())
                sideRegions_.push_back(region_[nb]);
        }
    }
    for (int cell : other) {
        const int count = neighbors(cell, nbs);
        for (int i = 0; i < count; ++i) {
            const int nb = nbs[i];
            if (seen_[nb] == other_mark || !passable(nb))
                continue;
            if (std::find(sideRegions_.begin(), sideRegions_.end(),
                          region_[nb]) != sideRegions_.end())
                return false;
        }
    }
    return true;
}

bool
LayerGrid::growBackward(int cell, std::uint32_t visited,
                        std::uint32_t target, std::uint32_t reached)
{
    int nbs[4];
    const int count = neighbors(cell, nbs);
    for (int i = 0; i < count; ++i) {
        const int nb = nbs[i];
        if (seen_[nb] == visited)
            return true;
        if (seen_[nb] == target || seen_[nb] == reached ||
            !passable(nb))
            continue;
        seen_[nb] = reached;
        otherQueue_.push_back(nb);
    }
    return false;
}

void
LayerGrid::sealRegion(const std::vector<int> &cells)
{
    if (nextRegion_ == std::numeric_limits<std::uint32_t>::max()) {
        std::fill(region_.begin(), region_.end(), 0);
        nextRegion_ = 1;
        firstLiveRegion_ = 1;
    }
    const std::uint32_t id = nextRegion_++;
    for (int cell : cells)
        if (passable(cell))
            region_[cell] = id;
}

std::optional<int>
LayerGrid::route(const std::vector<int> &from, const std::vector<int> &to)
{
    // Shared cell (same RSG column) or direct adjacency: no
    // intermediate routing states needed.
    for (int a : from)
        for (int b : to)
            if (std::abs(a / size_ - b / size_) +
                    std::abs(a % size_ - b % size_) <= 1)
                return 0;

    const std::uint32_t visited = takeStamps(3);
    const std::uint32_t target = visited + 1;
    const std::uint32_t reached = visited + 2;
    for (int b : to)
        seen_[b] = target;
    for (int a : from)
        seen_[a] = visited;
    if (sealedOff(from, visited, to, target) ||
        sealedOff(to, target, from, visited))
        return std::nullopt;

    // BFS from all `from` cells to any `to` cell through cells with
    // remaining routing capacity; it alone picks the path. Until it
    // meets a search growing back from `to`, the two advance one
    // cell at a time, and a side that runs out first has visited a
    // closed region (with its terminals) that never touched the
    // other: no path exists, and the memo keeps the region. The
    // backward marks only tell the BFS that the sides met; it treats
    // those cells like any unvisited one.
    queue_.clear();
    for (int a : from) {
        parent_[a] = -1;
        queue_.push_back(a);
    }
    otherQueue_.assign(to.begin(), to.end());
    std::size_t head = 0;
    std::size_t back_head = 0;
    bool met = false;
    int found = -1;
    int nbs[4];
    while (found < 0) {
        if (head == queue_.size()) {
            sealRegion(queue_);
            return std::nullopt;
        }
        const int cell = queue_[head++];
        const int count = neighbors(cell, nbs);
        for (int i = 0; i < count; ++i) {
            const int nb = nbs[i];
            if (seen_[nb] == visited)
                continue;
            if (seen_[nb] == target) {
                found = cell; // last intermediate before target
                break;
            }
            if (!passable(nb))
                continue;
            met = met || seen_[nb] == reached;
            seen_[nb] = visited;
            parent_[nb] = cell;
            queue_.push_back(nb);
        }
        if (met || found >= 0)
            continue;
        if (back_head == otherQueue_.size()) {
            sealRegion(otherQueue_);
            return std::nullopt;
        }
        met = growBackward(otherQueue_[back_head++], visited, target,
                           reached);
    }

    // Walk back from `found` to a source cell, consuming capacity.
    int used = 0;
    for (int cell = found; parent_[cell] != -1; cell = parent_[cell]) {
        touch(cell);
        if (state_[cell] == CellState::Free) {
            state_[cell] = CellState::Routing;
            routingLeft_[cell] =
                static_cast<std::uint8_t>(routingUsesPerCell_ - 1);
            ++routingCells_;
        } else {
            DCMBQC_ASSERT(routingLeft_[cell] > 0, "routing overuse");
            --routingLeft_[cell];
        }
        ++used;
    }
    return used;
}

} // namespace dcmbqc
