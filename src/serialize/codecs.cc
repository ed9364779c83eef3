#include "serialize/codecs.hh"

#include <algorithm>
#include <vector>

#include "noise/mechanism.hh"

namespace dcmbqc
{

// --- Field lists -----------------------------------------------------------

template <class Io>
void
transfer(Io &io, WireRecord<Io, Gate> &gate)
{
    io.tag(gate.kind, GateKind::CCX, "gate kind");
    io(gate.q0, gate.q1, gate.q2, gate.angle);
}

template <class Io>
void
transfer(Io &io, WireRecord<Io, GridSpec> &grid)
{
    io(grid.size);
    io.tag(grid.resourceState, ResourceStateType::Star7,
           "resource-state");
    io(grid.plRatio, grid.reservedBoundary);
}

template <class Io>
void
transfer(Io &io, WireRecord<Io, Partitioning> &part)
{
    // Partitioning guards its invariant, so its fields cross the wire
    // as copies and the reader rebuilds the value once they check out.
    int k = part.numParts();
    std::vector<int> assignment = part.assignment();
    io(k, assignment);
    io.check([&]() -> std::string {
        if (k < 1)
            return "partition k must be >= 1, got " + std::to_string(k);
        for (int p : assignment)
            if (p < 0 || p >= k)
                return "partition assignment " + std::to_string(p) +
                    " outside [0, " + std::to_string(k) + ")";
        return {};
    });
    if constexpr (Io::reading)
        if (io.ok())
            part = Partitioning(std::move(assignment), k);
}

template <class Io>
void
transfer(Io &io, WireRecord<Io, ScheduleMetrics> &metrics)
{
    io(metrics.tauLocal, metrics.tauRemote, metrics.makespan);
}

template <class Io>
void
transfer(Io &io, WireRecord<Io, ExecutionLayer> &layer)
{
    io(layer.nodes, layer.computeCells, layer.routingCells);
}

template <class Io>
void
transfer(Io &io, WireRecord<Io, LocalSchedule> &schedule)
{
    io(schedule.grid);
    io.list(schedule.layers, 12);
    io(schedule.nodeLayer);
    wireAs<std::int64_t>(io, schedule.routingFusions);
    wireAs<std::int64_t>(io, schedule.edgeFusions);
    io.check([&]() -> std::string {
        const auto layers = static_cast<LayerId>(schedule.layers.size());
        for (LayerId layer : schedule.nodeLayer)
            if (layer != invalidLayer && (layer < 0 || layer >= layers))
                return "nodeLayer entry " + std::to_string(layer) +
                    " outside the " + std::to_string(layers) + " layers";
        return {};
    });
}

template <class Io>
void
transfer(Io &io, WireRecord<Io, Schedule> &schedule)
{
    io(schedule.mainStart, schedule.syncStart, schedule.makespan);
}

template <class Io>
void
transfer(Io &io, WireRecord<Io, DcMbqcResult> &result)
{
    io(result.partition, result.partitionModularity,
       result.partitionImbalance, result.numConnectors);
    io.list(result.localSchedules, 1);
    io(result.schedule, result.metrics);
}

template <class Io>
void
transfer(Io &io, WireRecord<Io, BaselineResult> &result)
{
    io(result.schedule, result.lifetime.tauFusee,
       result.lifetime.tauMeasuree);
}

template <class Io>
void
transfer(Io &io, WireRecord<Io, DcMbqcConfig> &config)
{
    io(config.numQpus, config.grid, config.kmax, config.partition.k,
       config.partition.epsilonQ, config.partition.alphaMax,
       config.partition.gamma, config.partition.maxIterations,
       config.partition.seed, config.useBdir,
       config.bdir.initialTemperature, config.bdir.coolingRate,
       config.bdir.maxIterations, config.bdir.seed);
    io.tag(config.order, PlacementOrder::DependencyAwareRcm,
           "placement-order");
}

template <class Io>
void
transfer(Io &io, WireRecord<Io, PortfolioCandidate> &entry)
{
    io(entry.strategy, entry.seed);
    io.bits("portfolio-candidate", entry.cacheHit, entry.cancelled,
            entry.winner);
    io(entry.status, entry.logSurvival, entry.successProbability,
       entry.makespan, entry.connectors, entry.wallMillis);
}

template <class Io>
void
transfer(Io &io, WireRecord<Io, PortfolioReport> &race)
{
    wireAs<std::uint32_t>(io, race.requested);
    io(race.winnerIndex, race.raceMillis);
    wireAs<std::uint32_t>(io, race.cancelledEarly);
    io(race.validated, race.validationNote);
    io.list(race.candidates, 10);
    io.check([&]() -> std::string {
        if (race.winnerIndex < -1 ||
            race.winnerIndex >= static_cast<int>(race.candidates.size()))
            return "portfolio winner index " +
                std::to_string(race.winnerIndex) +
                " outside the candidate table";
        return {};
    });
}

template <class Io>
void
transfer(Io &io, WireRecord<Io, StageReport> &stage)
{
    io(stage.pass, stage.millis, stage.status, stage.note);
}

template <class Io>
void
transfer(Io &io, WireRecord<Io, CacheStats> &stats)
{
    io(stats.hits, stats.misses, stats.evictions, stats.diskHits,
       stats.diskWrites);
}

template <class Io>
void
transfer(Io &io, WireRecord<Io, ExecResult> &result)
{
    io(result.backend, result.label, result.shots,
       result.completedShots, result.numWires, result.seed,
       result.threads, result.wallMillis);
    io.map(result.counts, 5, "histogram",
           [](const std::string &key, std::int64_t count) -> std::string {
               if (count < 0)
                   return "negative outcome count " +
                       std::to_string(count) + " for '" + key + "'";
               return {};
           });
    io.map(result.probabilities, 5, "probabilities",
           [](const std::string &key, double p) -> std::string {
               if (!(p >= 0.0 && p <= 1.0 + 1e-9))
                   return "probability of '" + key + "' outside [0, 1]";
               return {};
           });
    io(result.lostShots, result.lostPhotons,
       result.analyticSuccessProbability, result.maxStorageCycles,
       result.meanStorageCycles);
    io.list(result.notes, 4);
    io.check([&]() -> std::string {
        if (result.shots < 0 || result.completedShots < 0 ||
            result.completedShots > result.shots)
            return "shot counts inconsistent: " +
                std::to_string(result.completedShots) + " of " +
                std::to_string(result.shots) + " completed";
        // Stops at the first excess, so the sum cannot overflow.
        std::int64_t counted = 0;
        for (const auto &entry : result.counts)
            if ((counted += entry.second) > result.shots)
                return "histogram holds more than " +
                    std::to_string(result.shots) + " outcomes for " +
                    std::to_string(result.shots) + " shots";
        return {};
    });
}

// The hand-written Pattern codec as an entry of the report's list.
void
transfer(WireWriter &io, const Pattern &pattern)
{
    encodePattern(io.stream(), pattern);
}

void
transfer(WireReader &io, Pattern &pattern)
{
    pattern = decodePattern(io.stream());
}

template <class Io>
void
transfer(Io &io, WireRecord<Io, CompileReport> &report)
{
    // The flag byte says which sections follow, and every report has
    // a result. Bits 16 (executions), 32 (retained pattern) and 64
    // (race table) are absent from older artifacts, which keeps them
    // decodable byte for byte.
    bool distributed = report.distributed.has_value();
    bool baseline = report.baseline.has_value();
    bool stats = report.cacheStats.has_value();
    bool executions = !report.executions.empty();
    bool pattern = report.pattern.has_value();
    bool portfolio = report.portfolio.has_value();
    io(report.label);
    io.bits("compile-report", distributed, baseline, report.cacheHit,
            stats, executions, pattern, portfolio);
    io.check([&]() -> std::string {
        if (!distributed && !baseline)
            return "compile-report flags name no result payload";
        return {};
    });
    io.optional(distributed, report.distributed);
    io.optional(baseline, report.baseline);
    io.list(report.stages, 1);
    io.list(report.warnings, 1);
    io(report.totalMillis, report.cacheKey, report.cacheVerifier);
    io.optional(stats, report.cacheStats);
    if (executions) {
        io.list(report.executions, 1);
        io.check([&]() -> std::string {
            if (report.executions.empty())
                return "executions flag set on an empty list";
            return {};
        });
    }
    io.optional(pattern, report.pattern);
    io.optional(portfolio, report.portfolio);
}

template <class Io>
void
transfer(Io &io, WireRecord<Io, NoiseParam> &param)
{
    io(param.name, param.value);
}

template <class Io>
void
transfer(Io &io, WireRecord<Io, MechanismSpec> &spec)
{
    io(spec.mechanism);
    io.check([&]() -> std::string {
        if (!isKnownNoiseMechanism(spec.mechanism))
            return "unknown noise mechanism '" + spec.mechanism +
                "' in noise-config artifact";
        return {};
    });
    io.list(spec.params, 12);
}

template <class Io>
void
transfer(Io &io, WireRecord<Io, NoiseConfig> &config)
{
    io.list(config.mechanisms, 8);
}

template void transfer<WireWriter>(WireWriter &, const DcMbqcConfig &);
template void transfer<WireReader>(WireReader &, DcMbqcConfig &);
template void transfer<WireWriter>(WireWriter &, const NoiseConfig &);
template void transfer<WireReader>(WireReader &, NoiseConfig &);
template void transfer<WireWriter>(WireWriter &, const CacheStats &);
template void transfer<WireReader>(WireReader &, CacheStats &);

namespace
{

/**
 * The flow-derived X/Z dependency sets, computed without asserts so
 * the decoder can diff them against the embedded copies instead of
 * aborting on corrupted input. Mirrors buildDependencyGraphs().
 */
void
flowDependencies(const Pattern &pattern, Digraph &x, Digraph &z)
{
    const NodeId n = pattern.numNodes();
    x = Digraph(n);
    z = Digraph(n);
    for (NodeId m = 0; m < n; ++m) {
        if (pattern.isOutput(m))
            continue;
        const NodeId succ = pattern.flow(m);
        if (!pattern.isOutput(succ))
            x.addArc(m, succ);
        for (const auto &adj : pattern.graph().adjacency(succ)) {
            const NodeId j = adj.neighbor;
            if (j == m || pattern.isOutput(j))
                continue;
            z.addArc(m, j);
        }
    }
}

bool
sameDigraph(const Digraph &a, const Digraph &b)
{
    if (a.numNodes() != b.numNodes() || a.numArcs() != b.numArcs())
        return false;
    for (NodeId u = 0; u < a.numNodes(); ++u)
        if (a.successors(u) != b.successors(u))
            return false;
    return true;
}

template <typename Decode>
auto
decodeArtifactAs(ArtifactKind kind, const std::vector<std::uint8_t> &bytes,
                 Decode decode)
    -> decltype(decodeWhole(nullptr, 0, "", decode))
{
    auto view = openArtifact(bytes);
    if (!view.ok())
        return view.status();
    if (view->kind != kind)
        return Status::invalidArgument(
            std::string("artifact kind mismatch: expected ") +
            artifactKindName(kind) + ", found " +
            artifactKindName(view->kind));
    return decodeWhole(view->payload, view->payloadSize,
                       std::string(artifactKindName(kind)) + " artifact",
                       decode);
}

template <typename T, typename Encode>
std::vector<std::uint8_t>
sealPayload(ArtifactKind kind, const T &value, Encode encode)
{
    BinaryWriter writer;
    encode(writer, value);
    return sealArtifact(kind, writer.bytes());
}

} // namespace

// --- Circuit ---------------------------------------------------------------

void
encodeCircuitHeader(BinaryWriter &writer, int qubits,
                    const std::string &name, std::size_t gates)
{
    writer.writeI32(qubits);
    writer.writeString(name);
    writer.writeU32(static_cast<std::uint32_t>(gates));
}

void
encodeGate(BinaryWriter &writer, const Gate &gate)
{
    writeRecord(writer, gate);
}

void
encodeCircuit(BinaryWriter &writer, const Circuit &circuit)
{
    encodeCircuitHeader(writer, circuit.numQubits(), circuit.name(),
                        circuit.numGates());
    for (const Gate &gate : circuit.gates())
        encodeGate(writer, gate);
}

Circuit
decodeCircuit(BinaryReader &reader)
{
    const int qubits = reader.readI32();
    std::string name = reader.readString();
    if (!reader.ok())
        return Circuit(1);
    if (qubits < 1) {
        reader.fail("circuit qubit count must be >= 1, got " +
                    std::to_string(qubits));
        return Circuit(1);
    }
    Circuit circuit(qubits, std::move(name));
    WireReader io(reader);
    const std::uint32_t gates = reader.readCount(21);
    for (std::uint32_t i = 0; i < gates && reader.ok(); ++i) {
        Gate gate;
        io(gate);
        if (!reader.ok())
            break;
        const QubitId used[3] = {gate.q0, gate.q1, gate.q2};
        bool valid = true, distinct = true;
        for (int q = 0; q < gate.arity(); ++q) {
            valid &= used[q] >= 0 && used[q] < qubits;
            for (int p = 0; p < q; ++p)
                distinct &= used[p] != used[q];
        }
        if (!valid) {
            reader.fail("gate " + std::to_string(i) +
                        " addresses a qubit outside [0, " +
                        std::to_string(qubits) + ")");
            break;
        }
        // Circuit::append asserts distinct operands; reject first.
        if (!distinct) {
            reader.fail("gate " + std::to_string(i) +
                        " names the same qubit twice");
            break;
        }
        circuit.append(gate);
    }
    return circuit;
}

// --- Graph / Digraph -------------------------------------------------------

void
encodeGraph(BinaryWriter &writer, const Graph &graph)
{
    writer.writeI32(graph.numNodes());
    for (NodeId u = 0; u < graph.numNodes(); ++u)
        writer.writeI32(graph.nodeWeight(u));
    writer.writeU32(static_cast<std::uint32_t>(graph.numEdges()));
    for (const Edge &e : graph.edges()) {
        writer.writeI32(e.u);
        writer.writeI32(e.v);
        writer.writeI32(e.weight);
    }
}

Graph
decodeGraph(BinaryReader &reader)
{
    const NodeId n = reader.readI32();
    if (!reader.ok())
        return {};
    if (n < 0 ||
        static_cast<std::uint64_t>(n) * 4 > reader.remaining()) {
        reader.fail("graph node count " + std::to_string(n) +
                    " is invalid for the payload size");
        return {};
    }
    Graph graph;
    for (NodeId u = 0; u < n; ++u)
        graph.addNode(reader.readI32());
    const std::uint32_t edges = reader.readCount(12);
    for (std::uint32_t i = 0; i < edges && reader.ok(); ++i) {
        const NodeId u = reader.readI32();
        const NodeId v = reader.readI32();
        const int weight = reader.readI32();
        if (!reader.ok())
            break;
        if (u < 0 || u >= n || v < 0 || v >= n || u == v) {
            reader.fail("graph edge " + std::to_string(i) + " (" +
                        std::to_string(u) + ", " + std::to_string(v) +
                        ") is invalid for " + std::to_string(n) +
                        " nodes");
            break;
        }
        graph.addEdge(u, v, weight);
    }
    graph.freeze();
    return graph;
}

void
encodeDigraph(BinaryWriter &writer, const Digraph &digraph)
{
    writer.writeI32(digraph.numNodes());
    for (NodeId u = 0; u < digraph.numNodes(); ++u)
        writer.writeI32Vector(digraph.successors(u));
}

Digraph
decodeDigraph(BinaryReader &reader)
{
    const NodeId n = reader.readI32();
    if (!reader.ok())
        return {};
    if (n < 0 ||
        static_cast<std::uint64_t>(n) * 4 > reader.remaining()) {
        reader.fail("digraph node count " + std::to_string(n) +
                    " is invalid for the payload size");
        return {};
    }
    Digraph digraph(n);
    for (NodeId u = 0; u < n && reader.ok(); ++u) {
        const std::vector<std::int32_t> succ = reader.readI32Vector();
        for (NodeId v : succ) {
            if (v < 0 || v >= n) {
                reader.fail("digraph arc " + std::to_string(u) +
                            " -> " + std::to_string(v) +
                            " is out of range");
                return digraph;
            }
            digraph.addArc(u, v);
        }
    }
    return digraph;
}

// --- Pattern ---------------------------------------------------------------

void
encodePattern(BinaryWriter &writer, const Pattern &pattern)
{
    encodeGraph(writer, pattern.graph());
    const NodeId n = pattern.numNodes();
    std::vector<double> angles(n);
    std::vector<std::int32_t> flow(n), wires(n);
    for (NodeId u = 0; u < n; ++u) {
        angles[u] = pattern.angle(u);
        flow[u] = pattern.flow(u);
        wires[u] = pattern.wire(u);
    }
    writer.writeF64Vector(angles);
    writer.writeI32Vector(flow);
    writer.writeI32Vector(wires);
    writer.writeI32Vector(pattern.measurementOrder());
    writer.writeI32Vector(pattern.outputs());

    Digraph x, z;
    flowDependencies(pattern, x, z);
    encodeDigraph(writer, x);
    encodeDigraph(writer, z);
}

Pattern
decodePattern(BinaryReader &reader)
{
    Graph graph = decodeGraph(reader);
    const std::vector<double> angles = reader.readF64Vector();
    const std::vector<std::int32_t> flow = reader.readI32Vector();
    const std::vector<std::int32_t> wires = reader.readI32Vector();
    const std::vector<std::int32_t> order = reader.readI32Vector();
    const std::vector<std::int32_t> outputs = reader.readI32Vector();
    if (!reader.ok())
        return {};

    const NodeId n = graph.numNodes();
    const auto sized = [n](const auto &v) {
        return static_cast<NodeId>(v.size()) == n;
    };
    if (!sized(angles) || !sized(flow) || !sized(wires)) {
        reader.fail("pattern per-node vectors disagree with the "
                    "graph's " +
                    std::to_string(n) + " nodes");
        return {};
    }
    if (static_cast<NodeId>(order.size() + outputs.size()) != n) {
        reader.fail("pattern corrupted: " +
                    std::to_string(order.size()) + " measured + " +
                    std::to_string(outputs.size()) +
                    " outputs != " + std::to_string(n) + " nodes");
        return {};
    }
    const int num_wires = static_cast<int>(outputs.size());
    std::vector<char> measured(n, 0);
    for (NodeId u : order) {
        if (u < 0 || u >= n || measured[u]) {
            reader.fail("pattern measurement order is not a set of "
                        "distinct node ids");
            return {};
        }
        measured[u] = 1;
        if (flow[u] < 0 || flow[u] >= n || !graph.hasEdge(u, flow[u])) {
            reader.fail("flow successor of node " + std::to_string(u) +
                        " is not a graph neighbor");
            return {};
        }
    }
    for (NodeId out : outputs) {
        if (out < 0 || out >= n || measured[out] ||
            flow[out] != invalidNode) {
            reader.fail("pattern output list is inconsistent with "
                        "flow");
            return {};
        }
    }
    for (NodeId u = 0; u < n; ++u) {
        if (!measured[u] && flow[u] != invalidNode) {
            reader.fail("unmeasured node " + std::to_string(u) +
                        " carries a flow successor");
            return {};
        }
        if (wires[u] < 0 || wires[u] >= num_wires) {
            reader.fail("wire of node " + std::to_string(u) +
                        " outside [0, " + std::to_string(num_wires) +
                        ")");
            return {};
        }
        if (graph.nodeWeight(u) != 1) {
            reader.fail("pattern node " + std::to_string(u) +
                        " has weight " +
                        std::to_string(graph.nodeWeight(u)) +
                        "; pattern nodes weigh 1");
            return {};
        }
    }

    Pattern pattern(std::move(graph),
                    std::vector<QubitId>(wires.begin(), wires.end()));
    for (NodeId u : order)
        pattern.setMeasurement(u, angles[u], flow[u]);
    pattern.setOutputs(
        std::vector<NodeId>(outputs.begin(), outputs.end()));

    // The embedded X/Z dependency sets must match the flow-derived
    // ones; a mismatch means payload corruption the envelope
    // checksum cannot attribute.
    const Digraph x_stored = decodeDigraph(reader);
    const Digraph z_stored = decodeDigraph(reader);
    if (!reader.ok())
        return {};
    Digraph x, z;
    flowDependencies(pattern, x, z);
    if (!sameDigraph(x, x_stored) || !sameDigraph(z, z_stored)) {
        reader.fail("embedded X/Z dependency sets disagree with the "
                    "decoded causal flow");
        return {};
    }
    if (!x.isAcyclic()) {
        reader.fail("pattern X-dependency graph is cyclic");
        return {};
    }
    return pattern;
}

// --- Payload and artifact wrappers -----------------------------------------

// encodeX / decodeX of a record with a field list.
#define DCMBQC_RECORD_CODECS(X, Type)                                       \
    void encode##X(BinaryWriter &writer, const Type &value)                \
    {                                                                       \
        writeRecord(writer, value);                                         \
    }                                                                       \
    Type decode##X(BinaryReader &reader) { return readRecord<Type>(reader); }

// encodeXArtifact / decodeXArtifact: the payload pair encodeX /
// decodeX inside the envelope of ArtifactKind::X.
#define DCMBQC_ARTIFACT_CODECS(X, Type)                                     \
    std::vector<std::uint8_t> encode##X##Artifact(const Type &value)        \
    {                                                                       \
        return sealPayload(ArtifactKind::X, value, encode##X);              \
    }                                                                       \
    Expected<Type> decode##X##Artifact(                                     \
        const std::vector<std::uint8_t> &bytes)                             \
    {                                                                       \
        return decodeArtifactAs(ArtifactKind::X, bytes, decode##X);         \
    }

DCMBQC_RECORD_CODECS(Config, DcMbqcConfig)
DCMBQC_RECORD_CODECS(LocalSchedule, LocalSchedule)
DCMBQC_RECORD_CODECS(Schedule, Schedule)
DCMBQC_RECORD_CODECS(CompileReport, CompileReport)
DCMBQC_RECORD_CODECS(ExecResult, ExecResult)
DCMBQC_RECORD_CODECS(NoiseConfig, NoiseConfig)

DCMBQC_ARTIFACT_CODECS(Circuit, Circuit)
DCMBQC_ARTIFACT_CODECS(Graph, Graph)
DCMBQC_ARTIFACT_CODECS(Digraph, Digraph)
DCMBQC_ARTIFACT_CODECS(Pattern, Pattern)
DCMBQC_ARTIFACT_CODECS(Config, DcMbqcConfig)
DCMBQC_ARTIFACT_CODECS(LocalSchedule, LocalSchedule)
DCMBQC_ARTIFACT_CODECS(Schedule, Schedule)
DCMBQC_ARTIFACT_CODECS(CompileReport, CompileReport)
DCMBQC_ARTIFACT_CODECS(ExecResult, ExecResult)
DCMBQC_ARTIFACT_CODECS(NoiseConfig, NoiseConfig)

#undef DCMBQC_RECORD_CODECS
#undef DCMBQC_ARTIFACT_CODECS

} // namespace dcmbqc
