/**
 * @file
 * Tests for the per-layer grid state: placement on computation rows
 * with routing lanes, super-cell growth, routing capacity (including
 * the 6-ring double pass-through), transactional rollback, and a
 * differential check of the router against the plain BFS it replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <random>
#include <string>

#include "compiler/placer.hh"
#include "photonic/resource_state.hh"

namespace dcmbqc
{
namespace
{

GridSpec
makeSpec(int size, ResourceStateType type = ResourceStateType::Star5)
{
    GridSpec spec;
    spec.size = size;
    spec.resourceState = type;
    return spec;
}

/**
 * Reference oracle for LayerGrid::route: the plain BFS router it
 * replaced, kept on a mirror of the grid's cell states. The mirror
 * learns placements from placeNode()'s results, routes on its own,
 * and rolls back like the grid.
 */
class ReferenceRouter
{
  public:
    using State = LayerGrid::CellState;

    ReferenceRouter(int size, int routing_uses)
        : size_(size), routingUses_(routing_uses),
          state_(static_cast<std::size_t>(size) * size, State::Free),
          routingLeft_(state_.size(), 0)
    {
    }

    int computeCells() const { return computeCells_; }
    int routingCells() const { return routingCells_; }

    /** Index of the first cell whose state or uses differ, or -1. */
    int firstMismatch(const LayerGrid &grid) const
    {
        for (int cell = 0; cell < static_cast<int>(state_.size()); ++cell)
            if (grid.cellState(cell) != state_[cell] ||
                grid.routingUsesLeft(cell) != routingLeft_[cell])
                return cell;
        return -1;
    }

    /** Record a placement; every cell must be free in the mirror. */
    bool place(const std::vector<int> &cells)
    {
        for (int cell : cells) {
            if (state_[cell] != State::Free)
                return false;
            touch(cell);
            state_[cell] = State::Compute;
        }
        computeCells_ += static_cast<int>(cells.size());
        return true;
    }

    void clear()
    {
        std::fill(state_.begin(), state_.end(), State::Free);
        std::fill(routingLeft_.begin(), routingLeft_.end(), 0);
        computeCells_ = 0;
        routingCells_ = 0;
        undo_.clear();
    }

    void beginTxn()
    {
        undo_.clear();
        txnComputeCells_ = computeCells_;
        txnRoutingCells_ = routingCells_;
    }

    void commitTxn() { undo_.clear(); }

    void abortTxn()
    {
        for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
            state_[it->cell] = it->state;
            routingLeft_[it->cell] = it->routingLeft;
        }
        undo_.clear();
        computeCells_ = txnComputeCells_;
        routingCells_ = txnRoutingCells_;
    }

    std::optional<int> route(const std::vector<int> &from,
                             const std::vector<int> &to)
    {
        for (int a : from)
            for (int b : to)
                if (std::abs(a / size_ - b / size_) +
                        std::abs(a % size_ - b % size_) <= 1)
                    return 0;

        std::vector<int> parent(state_.size(), -2);
        std::vector<int> queue;
        std::vector<char> is_target(state_.size(), 0);
        for (int b : to)
            is_target[b] = 1;
        for (int a : from) {
            parent[a] = -1;
            queue.push_back(a);
        }

        auto passable = [&](int cell) {
            if (state_[cell] == State::Free)
                return true;
            return state_[cell] == State::Routing && routingLeft_[cell] > 0;
        };

        int found = -1;
        std::size_t head = 0;
        while (head < queue.size() && found < 0) {
            const int cell = queue[head++];
            for (int nb : neighbors(cell)) {
                if (parent[nb] != -2)
                    continue;
                if (is_target[nb]) {
                    parent[nb] = cell;
                    found = cell;
                    break;
                }
                if (!passable(nb))
                    continue;
                parent[nb] = cell;
                queue.push_back(nb);
            }
        }
        if (found < 0)
            return std::nullopt;

        int used = 0;
        for (int cell = found; parent[cell] != -1; cell = parent[cell]) {
            touch(cell);
            if (state_[cell] == State::Free) {
                state_[cell] = State::Routing;
                routingLeft_[cell] =
                    static_cast<std::uint8_t>(routingUses_ - 1);
                ++routingCells_;
            } else {
                --routingLeft_[cell];
            }
            ++used;
        }
        return used;
    }

  private:
    struct UndoEntry
    {
        int cell;
        State state;
        std::uint8_t routingLeft;
    };

    int size_;
    int routingUses_;
    std::vector<State> state_;
    std::vector<std::uint8_t> routingLeft_;
    std::vector<UndoEntry> undo_;
    int computeCells_ = 0;
    int routingCells_ = 0;
    int txnComputeCells_ = 0;
    int txnRoutingCells_ = 0;

    void touch(int cell)
    {
        undo_.push_back({cell, state_[cell], routingLeft_[cell]});
    }

    std::vector<int> neighbors(int cell) const
    {
        const int x = cell / size_;
        const int y = cell % size_;
        std::vector<int> result;
        if (x > 0)
            result.push_back(cell - size_);
        if (x + 1 < size_)
            result.push_back(cell + size_);
        if (y > 0)
            result.push_back(cell - 1);
        if (y + 1 < size_)
            result.push_back(cell + 1);
        return result;
    }
};

/** The grid and the oracle agree on every cell and both counters. */
void
expectSameCells(const LayerGrid &grid, const ReferenceRouter &oracle)
{
    ASSERT_EQ(oracle.firstMismatch(grid), -1);
    ASSERT_EQ(grid.computeCells(), oracle.computeCells());
    ASSERT_EQ(grid.routingCells(), oracle.routingCells());
}

TEST(LayerGrid, RoutesMatchReferenceBfsOnRandomHistories)
{
    // Seeded random layer histories on every grid side 2-41, the
    // grids the CLI picks for the 30x30, 40x40 and 46x46 lattices (59,
    // 79, 91), and all four resource states: transactions mixing
    // placements of random degree with routes between super-cells of
    // this and earlier layers, committed or aborted. Every clear() is
    // followed by routes between multi-cell super-cells of the layer
    // it closed, whose terminals are now free cells, as deferred
    // fusions route on a fresh layer. After every step the grid must
    // agree with the oracle on each cell's state and remaining uses.
    std::mt19937 rng(20261017);
    std::vector<int> sides;
    for (int side = 2; side <= 41; ++side)
        sides.push_back(side);
    for (int side : {59, 79, 91})
        sides.push_back(side);
    int routes = 0;
    int failures = 0;
    int freeTerminalRoutes = 0;
    for (int side : sides) {
        const ResourceStateType type = allResourceStateTypes[side % 4];
        LayerGrid grid(makeSpec(side, type));
        ReferenceRouter oracle(side, resourceStateInfo(type).routingUses);
        std::vector<std::vector<int>> supers;
        std::size_t layerStart = 0; // first super-cell of this layer
        const int txns = 20 + side * side / 2;
        for (int t = 0; t < txns; ++t) {
            SCOPED_TRACE("side " + std::to_string(side) + ", txn " +
                         std::to_string(t));
            if (rng() % 40 == 0) {
                grid.clear();
                oracle.clear();
                ASSERT_EQ(grid.computeCells(), 0);
                ASSERT_EQ(grid.routingCells(), 0);
                std::vector<std::size_t> multi;
                for (std::size_t i = layerStart; i < supers.size(); ++i)
                    if (supers[i].size() > 1)
                        multi.push_back(i);
                layerStart = supers.size();
                for (int d = 0; d < 8 && multi.size() >= 2; ++d) {
                    const auto &from = supers[multi[rng() % multi.size()]];
                    const auto &to = supers[multi[rng() % multi.size()]];
                    grid.beginTxn();
                    oracle.beginTxn();
                    const auto expected = oracle.route(from, to);
                    ASSERT_EQ(grid.route(from, to), expected);
                    ++routes;
                    ++freeTerminalRoutes;
                    if (expected) {
                        grid.commitTxn();
                        oracle.commitTxn();
                    } else {
                        ++failures;
                        grid.abortTxn();
                        oracle.abortTxn();
                    }
                    ASSERT_NO_FATAL_FAILURE(expectSameCells(grid, oracle));
                }
            }
            grid.beginTxn();
            oracle.beginTxn();
            bool open = true;
            const int ops = 1 + static_cast<int>(rng() % 4);
            for (int op = 0; op < ops && open; ++op) {
                if (supers.size() < 2 || rng() % 3 == 0) {
                    const int degree = 1 + static_cast<int>(rng() % 12);
                    auto cells = grid.placeNode(degree);
                    if (!cells) {
                        // A failed placement may leave partial cells:
                        // the caller must abort.
                        grid.abortTxn();
                        oracle.abortTxn();
                        open = false;
                    } else {
                        ASSERT_TRUE(oracle.place(*cells));
                        supers.push_back(*cells);
                    }
                } else {
                    const std::size_t window =
                        std::min<std::size_t>(supers.size(), 48);
                    const auto &from =
                        supers[supers.size() - 1 - rng() % window];
                    const auto &to =
                        supers[supers.size() - 1 - rng() % window];
                    const auto expected = oracle.route(from, to);
                    ASSERT_EQ(grid.route(from, to), expected);
                    ++routes;
                    failures += expected ? 0 : 1;
                }
                ASSERT_NO_FATAL_FAILURE(expectSameCells(grid, oracle));
            }
            if (open) {
                if (rng() % 5 == 0) {
                    grid.abortTxn();
                    oracle.abortTxn();
                } else {
                    grid.commitTxn();
                    oracle.commitTxn();
                }
            }
            ASSERT_NO_FATAL_FAILURE(expectSameCells(grid, oracle));
        }
    }
    // The histories must reach both outcomes in bulk.
    EXPECT_GT(routes, 5000);
    EXPECT_GT(failures, routes / 10);
    EXPECT_GT(freeTerminalRoutes, 500);
}

TEST(LayerGrid, RouteReachesTargetBesideWalledInSource)
{
    // Two routes between an 11-cell node T and a 2-cell node F leave
    // this 5x5 Star5 layer (x: used-up routing cell, B: a third node):
    //
    //     T T T T B
    //     T T T . B
    //     T T x x F
    //     T x x x F
    //     T . . . .
    //
    // F's only open cells are the bottom lane, which touches T at its
    // far end, so a third route must run along it. A search growing
    // from F runs out there long before one from T gets round: it has
    // to count the T cell beside it as a meeting, not as a wall.
    LayerGrid grid(makeSpec(5));
    ReferenceRouter oracle(5, resourceStateInfo(ResourceStateType::Star5)
                                  .routingUses);
    std::vector<std::vector<int>> nodes;
    grid.beginTxn();
    for (int degree : {23, 5, 5}) {
        auto cells = grid.placeNode(degree);
        ASSERT_TRUE(cells.has_value());
        ASSERT_TRUE(oracle.place(*cells));
        nodes.push_back(*cells);
    }
    grid.commitTxn();
    const auto &t = nodes[0];
    const auto &f = nodes[2];
    ASSERT_EQ(t.size(), 11u);
    ASSERT_EQ(f, (std::vector<int>{2 * 5 + 4, 3 * 5 + 4}));
    for (const auto &[from, to] : {std::pair(&t, &f), std::pair(&f, &t),
                                   std::pair(&f, &t)}) {
        grid.beginTxn();
        oracle.beginTxn();
        const auto expected = oracle.route(*from, *to);
        ASSERT_TRUE(expected.has_value());
        ASSERT_EQ(grid.route(*from, *to), expected);
        grid.commitTxn();
        oracle.commitTxn();
        ASSERT_NO_FATAL_FAILURE(expectSameCells(grid, oracle));
    }
    // The last route took the bottom lane: (4,4) to (4,1).
    for (int col = 1; col < 5; ++col)
        EXPECT_EQ(grid.cellState(4 * 5 + col), LayerGrid::CellState::Routing);
}

TEST(LayerGrid, ComputeCapacityIsEvenRows)
{
    // Odd rows are routing lanes: a 3x3 grid offers rows 0 and 2.
    EXPECT_EQ(LayerGrid(makeSpec(3)).computeCapacity(), 6);
    EXPECT_EQ(LayerGrid(makeSpec(7)).computeCapacity(), 28);
    EXPECT_EQ(LayerGrid(makeSpec(4)).computeCapacity(), 8);
}

TEST(LayerGrid, PlacesUntilComputeRowsFull)
{
    LayerGrid grid(makeSpec(3));
    for (int i = 0; i < grid.computeCapacity(); ++i) {
        grid.beginTxn();
        auto cells = grid.placeNode(1);
        ASSERT_TRUE(cells.has_value()) << i;
        EXPECT_EQ(cells->size(), 1u);
        grid.commitTxn();
    }
    grid.beginTxn();
    EXPECT_FALSE(grid.placeNode(1).has_value());
    grid.abortTxn();
    EXPECT_EQ(grid.computeCells(), 6);
}

TEST(LayerGrid, HighDegreeGrowsSuperCell)
{
    // Star5 has 4 arms; a chain of m cells offers 4m - 2(m-1) arms.
    LayerGrid grid(makeSpec(5));
    grid.beginTxn();
    auto cells = grid.placeNode(8); // needs 1 + ceil(4/2) = 3 cells
    ASSERT_TRUE(cells.has_value());
    EXPECT_EQ(cells->size(), 3u);
    grid.commitTxn();
    EXPECT_EQ(grid.computeCells(), 3);
}

TEST(LayerGrid, Ring4ExpansionIsLinear)
{
    // Ring4 arms=3: extra arms per expansion cell = 1.
    LayerGrid grid(makeSpec(7, ResourceStateType::Ring4));
    grid.beginTxn();
    auto cells = grid.placeNode(10); // 1 + (10-3) = 8 cells
    ASSERT_TRUE(cells.has_value());
    EXPECT_EQ(cells->size(), 8u);
    grid.commitTxn();
}

TEST(LayerGrid, AdjacentNodesRouteDirectly)
{
    LayerGrid grid(makeSpec(4));
    grid.beginTxn();
    auto a = grid.placeNode(1);
    auto b = grid.placeNode(1);
    ASSERT_TRUE(a && b);
    const auto hops = grid.route(*a, *b);
    ASSERT_TRUE(hops.has_value());
    EXPECT_EQ(*hops, 0); // serpentine keeps them adjacent
    grid.commitTxn();
    EXPECT_EQ(grid.routingCells(), 0);
}

TEST(LayerGrid, DistantNodesRouteThroughLanes)
{
    LayerGrid grid(makeSpec(5));
    grid.beginTxn();
    auto a = grid.placeNode(1); // (0,0)
    ASSERT_TRUE(a);
    std::optional<std::vector<int>> b;
    for (int i = 0; i < 7; ++i)
        b = grid.placeNode(1); // ends up on row 2
    ASSERT_TRUE(b);
    const auto hops = grid.route(*a, *b);
    ASSERT_TRUE(hops.has_value());
    EXPECT_GT(*hops, 0);
    grid.commitTxn();
    EXPECT_EQ(grid.routingCells(), *hops);
}

TEST(LayerGrid, Ring6RoutesTwiceStar5Once)
{
    // Three nodes fill computation row 0 of a 3x3 grid; routing
    // a -> c must detour through the lane row. Re-routing the same
    // pair exhausts a 5-star's single pass-through but not the
    // 6-ring's two (Section V-B).
    for (auto type :
         {ResourceStateType::Star5, ResourceStateType::Ring6}) {
        LayerGrid grid(makeSpec(3, type));
        grid.beginTxn();
        auto a = grid.placeNode(1); // (0,0)
        auto b = grid.placeNode(1); // (0,1)
        auto c = grid.placeNode(1); // (0,2)
        ASSERT_TRUE(a && b && c);
        const auto h1 = grid.route(*a, *c);
        ASSERT_TRUE(h1.has_value());
        EXPECT_GT(*h1, 0);
        const auto h2 = grid.route(*a, *c);
        if (type == ResourceStateType::Ring6)
            EXPECT_TRUE(h2.has_value());
        else
            EXPECT_FALSE(h2.has_value());
        grid.commitTxn();
    }
}

TEST(LayerGrid, RouteFailsWhenNoPath)
{
    // Filling all three computation rows of a 5x5 grid cuts the two
    // lane rows apart: a node on row 0 only reaches lane row 1, and a
    // node on row 4 is walled into lane row 3.
    LayerGrid grid(makeSpec(5));
    std::vector<std::vector<int>> nodes;
    grid.beginTxn();
    for (int i = 0; i < grid.computeCapacity(); ++i) {
        auto cells = grid.placeNode(1);
        ASSERT_TRUE(cells.has_value()) << i;
        nodes.push_back(*cells);
    }
    grid.commitTxn();
    const std::vector<int> top = {0};         // (0,0)
    const std::vector<int> bottom = {4 * 5};  // (4,0)
    ASSERT_EQ(nodes.front(), top);
    ASSERT_EQ(nodes.back(), std::vector<int>{4 * 5 + 4});

    grid.beginTxn();
    EXPECT_FALSE(grid.route(top, bottom).has_value());
    // The second try is answered from the closed lane row found by
    // the first.
    EXPECT_FALSE(grid.route(top, bottom).has_value());
    EXPECT_FALSE(grid.route(bottom, top).has_value());
    grid.commitTxn();
    EXPECT_EQ(grid.routingCells(), 0);

    // A fresh layer has open lanes again: (1,0), (2,0), (3,0).
    grid.clear();
    grid.beginTxn();
    const auto hops = grid.route(top, bottom);
    ASSERT_TRUE(hops.has_value());
    EXPECT_EQ(*hops, 3);
    grid.commitTxn();
}

TEST(LayerGrid, AbortRestoresState)
{
    LayerGrid grid(makeSpec(4));
    grid.beginTxn();
    auto a = grid.placeNode(1);
    grid.commitTxn();
    ASSERT_TRUE(a);

    grid.beginTxn();
    auto b = grid.placeNode(5);
    auto far = grid.placeNode(1);
    ASSERT_TRUE(b && far);
    (void)grid.route(*a, *far);
    grid.abortTxn();

    EXPECT_EQ(grid.computeCells(), 1);
    EXPECT_EQ(grid.routingCells(), 0);
    // The aborted cells are free again: fill the remaining
    // computation capacity.
    for (int i = 0; i < grid.computeCapacity() - 1; ++i) {
        grid.beginTxn();
        ASSERT_TRUE(grid.placeNode(1).has_value()) << i;
        grid.commitTxn();
    }
}

TEST(LayerGrid, ClearResetsEverything)
{
    LayerGrid grid(makeSpec(3));
    grid.beginTxn();
    (void)grid.placeNode(4);
    grid.commitTxn();
    grid.clear();
    EXPECT_EQ(grid.computeCells(), 0);
    EXPECT_EQ(grid.routingCells(), 0);
    for (int i = 0; i < grid.computeCapacity(); ++i) {
        grid.beginTxn();
        ASSERT_TRUE(grid.placeNode(1).has_value());
        grid.commitTxn();
    }
}

} // namespace
} // namespace dcmbqc
