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
      dist_(state_.size(), 0), region_(state_.size(), 0)
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

int
LayerGrid::towardFrom(int cell) const
{
    const int row = cell / size_;
    const int col = cell % size_;
    int nearest = std::numeric_limits<int>::max();
    for (const auto &[r, c] : fromRowCol_)
        nearest = std::min(nearest, std::abs(row - r) + std::abs(col - c));
    return nearest - 1;
}

int
LayerGrid::labelledNeighbor(int cell, std::uint32_t labelled, int dist) const
{
    int nbs[4];
    const int count = neighbors(cell, nbs);
    for (int i = 0; i < count; ++i)
        if (seen_[nbs[i]] == labelled && dist_[nbs[i]] == dist)
            return nbs[i];
    return -1;
}

bool
LayerGrid::growPartner(int cell, std::uint32_t source, std::uint32_t target,
                       std::uint32_t labelled, std::uint32_t reached)
{
    int nbs[4];
    const int count = neighbors(cell, nbs);
    for (int i = 0; i < count; ++i) {
        const int nb = nbs[i];
        // A `to` cell is where the A* search starts: meeting it is
        // meeting the search, whatever the cell's state.
        if (seen_[nb] == target || seen_[nb] == labelled)
            return true;
        if (seen_[nb] == source || seen_[nb] == reached || !passable(nb))
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

    const std::uint32_t source = takeStamps(4);
    const std::uint32_t target = source + 1;
    const std::uint32_t labelled = source + 2;
    const std::uint32_t reached = source + 3;
    for (int b : to)
        seen_[b] = target;
    for (int a : from)
        seen_[a] = source;
    if (sealedOff(from, source, to, target) ||
        sealedOff(to, target, from, source))
        return std::nullopt;

    // A* from the `to` cells toward `from` through cells with
    // remaining routing capacity. dist_ counts the intermediate cells
    // from a cell to `to`, itself included; towardFrom() never
    // overestimates the rest and changes by at most one per step, so
    // buckets come out in nondecreasing distance-plus-heuristic and a
    // cell's label is exact once it is taken out. The first cell
    // taken out next to `from` fixes the route length D. Expanding
    // every cell up to D labels every cell of every shortest path.
    //
    // Until the search meets a BFS growing from `from`, the two
    // advance one cell at a time, and a side that runs out first has
    // visited a closed region (with its terminals) that never touched
    // the other: no path exists, and the memo keeps the region.
    fromRowCol_.clear();
    for (int a : from)
        fromRowCol_.emplace_back(a / size_, a % size_);
    // Queued cells never lie more than 2 past the bucket being taken
    // out, or than the `to` cells' spread of heuristic values, so a
    // ring of buckets that wide holds them apart.
    int lowest = std::numeric_limits<int>::max();
    int highest = -1;
    for (int b : to) {
        lowest = std::min(lowest, towardFrom(b));
        highest = std::max(highest, towardFrom(b));
    }
    const int ring = highest - lowest + 3;
    if (static_cast<int>(buckets_.size()) < ring)
        buckets_.resize(static_cast<std::size_t>(ring));
    const auto bucket = [&](int f) -> std::vector<int> & {
        return buckets_[static_cast<std::size_t>(f % ring)];
    };
    const auto push = [&](int cell, int f) {
        bucket(f).push_back(cell);
        highest = std::max(highest, f);
    };
    queue_.clear();
    for (int b : to) {
        dist_[b] = 0;
        queue_.push_back(b);
        push(b, towardFrom(b));
    }
    otherQueue_.assign(from.begin(), from.end());
    std::size_t partner_head = 0;
    bool met = false;
    int length = -1;
    int nbs[4];
    int f = lowest;
    const auto drop_queued = [&] {
        for (; f <= highest; ++f)
            bucket(f).clear();
    };
    const auto fail = [&](const std::vector<int> &region) {
        sealRegion(region);
        drop_queued();
        return std::nullopt;
    };
    for (; length < 0 || f <= length; ++f) {
        if (f > highest)
            return fail(queue_);
        while (!bucket(f).empty()) {
            const int cell = bucket(f).back();
            bucket(f).pop_back();
            const int toward = towardFrom(cell);
            const int dist = dist_[cell];
            if (dist + toward != f)
                continue; // relabelled nearer since it was queued
            if (toward == 0 && length < 0)
                length = dist;
            const int count = neighbors(cell, nbs);
            for (int i = 0; i < count; ++i) {
                const int nb = nbs[i];
                if (seen_[nb] == labelled) {
                    if (dist_[nb] > dist + 1) {
                        dist_[nb] = dist + 1;
                        push(nb, dist + 1 + towardFrom(nb));
                    }
                    continue;
                }
                if (seen_[nb] == source || seen_[nb] == target ||
                    !passable(nb))
                    continue;
                met = met || seen_[nb] == reached;
                seen_[nb] = labelled;
                dist_[nb] = dist + 1;
                queue_.push_back(nb);
                push(nb, dist + 1 + towardFrom(nb));
            }
            if (met || length >= 0)
                continue;
            if (partner_head == otherQueue_.size())
                return fail(otherQueue_);
            met = growPartner(otherQueue_[partner_head++], source, target,
                              labelled, reached);
        }
    }
    drop_queued();

    // Walk from the first `from` cell with a neighbour D away from
    // `to`, always stepping to the first neighbour one nearer, and
    // consume each cell's capacity. A label never undercuts the true
    // distance, so a neighbour labelled one less than an exact cell
    // is exact too, and lies on a shortest path.
    int cell = -1;
    for (std::size_t i = 0; i < from.size() && cell < 0; ++i)
        cell = labelledNeighbor(from[i], labelled, length);
    for (int left = length;; --left) {
        DCMBQC_ASSERT(cell >= 0, "route walk left the shortest paths");
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
        if (left == 1)
            break;
        cell = labelledNeighbor(cell, labelled, left - 1);
    }
    return length;
}

} // namespace dcmbqc
