#include "mbqc/pattern_builder.hh"

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/logging.hh"

namespace dcmbqc
{

namespace
{

/** Key for an undirected node pair. */
std::uint64_t
pairKey(NodeId a, NodeId b)
{
    const std::uint64_t lo = static_cast<std::uint32_t>(std::min(a, b));
    const std::uint64_t hi = static_cast<std::uint32_t>(std::max(a, b));
    return (hi << 32) | lo;
}

} // namespace

Pattern
buildPattern(const JCircuit &jcircuit)
{
    Pattern pattern;
    std::vector<NodeId> cur(jcircuit.numQubits);
    for (QubitId w = 0; w < jcircuit.numQubits; ++w)
        cur[w] = pattern.addNode(w);

    // CZ edges toggle (CZ^2 = I); J edges are always fresh.
    std::unordered_set<std::uint64_t> edge_set;
    std::vector<std::pair<NodeId, NodeId>> edge_order;

    auto toggle_edge = [&](NodeId a, NodeId b) {
        const std::uint64_t key = pairKey(a, b);
        auto it = edge_set.find(key);
        if (it != edge_set.end()) {
            edge_set.erase(it);
        } else {
            edge_set.insert(key);
            edge_order.emplace_back(a, b);
        }
    };

    for (const auto &op : jcircuit.ops) {
        if (op.kind == JOp::Kind::CZ) {
            toggle_edge(cur[op.q0], cur[op.q1]);
        } else {
            const NodeId m = cur[op.q0];
            const NodeId n = pattern.addNode(op.q0);
            toggle_edge(m, n);
            // J(alpha) measures the old node at -alpha; flow f(m)=n.
            pattern.setMeasurement(m, -op.angle, n);
            cur[op.q0] = n;
        }
    }

    // A pair toggled off and on again appears twice in edge_order;
    // emit each surviving edge exactly once.
    std::unordered_set<std::uint64_t> emitted;
    for (const auto &[a, b] : edge_order) {
        const std::uint64_t key = pairKey(a, b);
        if (edge_set.count(key) && emitted.insert(key).second)
            pattern.addEdge(a, b);
    }

    pattern.freezeGraph();
    pattern.setOutputs(cur);
    pattern.validate();
    return pattern;
}

Pattern
buildPattern(const Circuit &circuit)
{
    return buildPattern(transpileToJCz(circuit));
}

} // namespace dcmbqc
