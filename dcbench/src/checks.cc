#include "checks.hh"

#include <cmath>
#include <complex>

#include "api/api.hh"
#include "bench.hh"
#include "circuit/generators.hh"
#include "core/lifetime.hh"
#include "core/lsp_builder.hh"
#include "mbqc/dependency.hh"
#include "serialize/codecs.hh"
#include "sim/stabilizer.hh"
#include "sim/statevector.hh"

namespace dcbench
{

using namespace dcmbqc;

namespace
{

/** "" when every photon of `graph` appears exactly once in `layers`. */
template <typename NodesOf>
std::string
coverage(NodeId num_nodes, std::size_t num_layers, NodesOf nodes_of)
{
    std::vector<int> seen(num_nodes, 0);
    for (std::size_t layer = 0; layer < num_layers; ++layer) {
        for (NodeId u : nodes_of(layer)) {
            if (u < 0 || u >= num_nodes)
                return "photon id out of range";
            ++seen[u];
        }
    }
    for (NodeId u = 0; u < num_nodes; ++u)
        if (seen[u] != 1)
            return "photon " + std::to_string(u) + " placed " +
                std::to_string(seen[u]) + " times";
    return "";
}

int
bitAt(const std::string &bits, int wire)
{
    return bits[static_cast<std::size_t>(wire)] == '1' ? 1 : 0;
}

void
applyClifford(const Circuit &circuit, StabilizerSim &sim, bool *ok)
{
    for (const Gate &gate : circuit.gates()) {
        switch (gate.kind) {
          case GateKind::H: sim.applyH(gate.q0); break;
          case GateKind::S: sim.applyS(gate.q0); break;
          case GateKind::Sdg: sim.applySdg(gate.q0); break;
          case GateKind::X: sim.applyX(gate.q0); break;
          case GateKind::Z: sim.applyZ(gate.q0); break;
          case GateKind::CZ: sim.applyCZ(gate.q0, gate.q1); break;
          case GateKind::CNOT: sim.applyCNOT(gate.q0, gate.q1); break;
          default: *ok = false; return;
        }
    }
}

} // namespace

std::string
checkDistributed(const CompileReport &report, const DcMbqcConfig &config,
                 const Graph &graph, const Digraph &deps,
                 LayerSchedulingProblem *lsp_out)
{
    if (!report.distributed)
        return "no distributed result";
    const DcMbqcResult &result = *report.distributed;
    if (result.partition.numParts() != config.numQpus)
        return "partition has " +
            std::to_string(result.partition.numParts()) + " parts";
    for (NodeId u = 0; u < graph.numNodes(); ++u) {
        const int part = result.partition.part(u);
        if (part < 0 || part >= config.numQpus)
            return "photon " + std::to_string(u) + " unassigned";
    }

    LayerSchedulingProblem lsp = buildLayerSchedulingProblem(
        graph, deps, result.partition, config.numQpus, config.grid,
        config.order, config.kmax);
    std::string why;
    if (!validateSchedule(lsp, result.schedule, &why))
        return "invalid schedule: " + why;
    why = coverage(graph.numNodes(), lsp.mainTasks().size(),
                   [&](std::size_t t) -> const std::vector<NodeId> & {
                       return lsp.mainTasks()[t].nodes;
                   });
    if (!why.empty())
        return why;
    if (static_cast<int>(lsp.syncTasks().size()) != result.numConnectors)
        return "sync tasks != cut edges";

    const ScheduleMetrics metrics = evaluateSchedule(lsp, result.schedule);
    if (metrics.makespan != result.metrics.makespan ||
        metrics.tauLocal != result.metrics.tauLocal ||
        metrics.tauRemote != result.metrics.tauRemote)
        return "reported metrics do not re-evaluate";
    if (lsp_out)
        *lsp_out = std::move(lsp);
    return "";
}

std::string
checkBaseline(const CompileReport &report, const Graph &graph,
              const Digraph &deps)
{
    if (!report.baseline)
        return "no baseline result";
    const LocalSchedule &schedule = report.baseline->schedule;
    std::string why = coverage(
        graph.numNodes(), schedule.layers.size(),
        [&](std::size_t layer) -> const std::vector<NodeId> & {
            return schedule.layers[layer].nodes;
        });
    if (!why.empty())
        return why;
    if (schedule.nodeLayer.size() !=
        static_cast<std::size_t>(graph.numNodes()))
        return "nodeLayer size mismatch";
    for (std::size_t layer = 0; layer < schedule.layers.size(); ++layer)
        for (NodeId u : schedule.layers[layer].nodes)
            if (schedule.nodeLayer[u] != static_cast<LayerId>(layer))
                return "nodeLayer disagrees with layers";

    std::vector<TimeSlot> node_time(graph.numNodes());
    for (NodeId u = 0; u < graph.numNodes(); ++u)
        node_time[u] = schedule.nodePhysicalTime(u);
    if (computeLifetime(graph, deps, node_time).tauPhoton() !=
        report.baseline->requiredLifetime())
        return "baseline lifetime does not recompute";
    return "";
}

std::string
checkOutcomesDense(const Circuit &circuit, const ExecResult &result)
{
    StateVector reference(circuit.numQubits(), /*plus_basis=*/true);
    reference.applyCircuit(circuit);
    const auto &amps = reference.amplitudes();
    const auto probability = [&](const std::string &bits) {
        std::size_t index = 0;
        for (int w = 0; w < circuit.numQubits(); ++w)
            if (bitAt(bits, w))
                index |= std::size_t(1) << w;
        return std::norm(amps[index]);
    };

    long long counted = 0;
    for (const auto &[bits, count] : result.counts) {
        if (static_cast<int>(bits.size()) != circuit.numQubits())
            return result.backend + ": outcome width mismatch";
        if (probability(bits) < 1e-12)
            return result.backend + ": outcome " + bits +
                " outside the circuit's support";
        counted += count;
    }
    if (counted != result.completedShots)
        return result.backend + ": counts do not sum to the shots";
    for (const auto &[bits, p] : result.probabilities)
        if (static_cast<int>(bits.size()) != circuit.numQubits() ||
            std::abs(probability(bits) - p) > 1e-9)
            return result.backend + ": probability of " + bits +
                " disagrees with the circuit";
    return "";
}

std::string
checkOutcomesTableau(const Circuit &circuit, const ExecResult &result,
                     int max_outcomes)
{
    const int n = circuit.numQubits();
    StabilizerSim prepared(n);
    for (int q = 0; q < n; ++q)
        prepared.applyH(q);
    bool clifford = true;
    applyClifford(circuit, prepared, &clifford);
    if (!clifford)
        return "tableau reference needs a Clifford circuit";

    long long counted = 0;
    int replayed = 0;
    for (const auto &[bits, count] : result.counts) {
        counted += count;
        if (replayed++ >= max_outcomes)
            continue;
        if (static_cast<int>(bits.size()) != n)
            return result.backend + ": outcome width mismatch";
        StabilizerSim sim = prepared;
        int random = 0;
        for (int q = 0; q < n; ++q) {
            const StabMeasureResult m =
                sim.measureZWithOutcome(q, bitAt(bits, q));
            if (!m.deterministic)
                ++random;
            else if (m.outcome != bitAt(bits, q))
                return result.backend + ": outcome " + bits +
                    " outside the circuit's support";
        }
        const auto exact = result.probabilities.find(bits);
        if (exact != result.probabilities.end() &&
            std::abs(exact->second - std::ldexp(1.0, -random)) >
                1e-12 * std::ldexp(1.0, -random))
            return result.backend + ": probability of " + bits +
                " is not 2^-" + std::to_string(random);
    }
    if (counted != result.completedShots)
        return result.backend + ": counts do not sum to the shots";
    return "";
}

std::string
checkLossSurvival(const ExecResult &result)
{
    const double p = result.analyticSuccessProbability;
    if (!(p > 0.0 && p <= 1.0) || result.shots <= 0)
        return "mc-loss: no analytic survival probability";
    const double sigma = std::sqrt(p * (1.0 - p) / result.shots);
    if (std::abs(result.survivalRate() - p) > 5.0 * sigma + 1e-3)
        return "mc-loss: survival " +
            std::to_string(result.survivalRate()) + " far from analytic " +
            std::to_string(p);
    return "";
}

std::vector<std::uint8_t>
scheduleBytes(const CompileReport &report)
{
    if (!report.distributed)
        return {};
    return encodeScheduleArtifact(report.distributed->schedule);
}

std::string
checkReplySchedule(const CompileReport &reply,
                   const std::vector<std::uint8_t> &expected)
{
    if (!reply.distributed)
        return "reply carries no schedule";
    if (scheduleBytes(reply) != expected)
        return "reply schedule bytes differ from the in-process compile";
    return "";
}

std::string
selfCheck()
{
    // A corrupted schedule: two main tasks of QPU 0 share a slot.
    const Circuit program = makeQft(8);
    const CompileOptions options = cliOptions(2, 8, 1);
    auto compiled = CompilerDriver(options).compile(
        CompileRequest::fromCircuit(program, "self-check"));
    if (!compiled.ok() || !compiled->pattern)
        return "self-check compile failed";
    const auto config = options.build();
    const Graph &graph = compiled->pattern->graph();
    const Digraph deps = realTimeDependencyGraph(*compiled->pattern);
    if (!checkDistributed(*compiled, *config, graph, deps).empty())
        return "a correct schedule was rejected";
    CompileReport broken = *compiled;
    auto &starts = broken.distributed->schedule.mainStart;
    if (starts.size() < 2)
        return "self-check program too small";
    starts[1] = starts[0];
    if (checkDistributed(broken, *config, graph, deps).empty())
        return "a schedule with overlapping main tasks passed";
    broken = *compiled;
    broken.distributed->metrics.makespan += 1;
    if (checkDistributed(broken, *config, graph, deps).empty())
        return "a schedule with a wrong makespan passed";

    // A corrupted outcome: H|+> = |0> on wire 0, so a sampled 1
    // there is outside the support.
    Circuit pinned(3, "pinned");
    pinned.h(0);
    pinned.cz(1, 2);
    ExecOptions exec;
    exec.backend = "stabilizer";
    exec.shots = 16;
    auto sampled =
        executeProgram(ExecProgram::fromCircuit(pinned), exec);
    if (!sampled.ok())
        return "self-check execution failed";
    if (!checkOutcomesTableau(pinned, *sampled, 16).empty() ||
        !checkOutcomesDense(pinned, *sampled).empty())
        return "correct outcomes were rejected";
    ExecResult flipped = *sampled;
    flipped.counts.clear();
    for (const auto &[bits, count] : sampled->counts)
        flipped.counts["1" + bits.substr(1)] += count;
    if (checkOutcomesTableau(pinned, flipped, 16).empty() ||
        checkOutcomesDense(pinned, flipped).empty())
        return "an outcome outside the support passed";

    // A corrupted reply: a flipped artifact byte must not decode,
    // and a decoded reply with a moved task must not match.
    const auto expected = scheduleBytes(*compiled);
    auto artifact = encodeCompileReportArtifact(*compiled);
    artifact[artifact.size() / 2] ^= 0x5a;
    if (decodeCompileReportArtifact(artifact).ok())
        return "a corrupted reply artifact decoded";
    broken = *compiled;
    broken.distributed->schedule.syncStart.push_back(0);
    if (checkReplySchedule(broken, expected).empty())
        return "a reply with different schedule bytes passed";
    return "";
}

} // namespace dcbench
