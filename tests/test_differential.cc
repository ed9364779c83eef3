/**
 * @file
 * Randomized differential tests closing the compile -> execute loop:
 * a seeded circuit fuzzer drives (1) the stabilizer tableau against
 * the dense statevector on Clifford circuits, outcome by outcome,
 * (2) compiled measurement patterns against direct circuit
 * simulation on Clifford+T circuits, and (3) the statevector and
 * stabilizer *execution backends* against each other on the exact
 * output probabilities. Every case is seeded, so a failure
 * reproduces from its seed alone.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "api/api.hh"
#include "circuit/generators.hh"
#include "common/rng.hh"
#include "mbqc/pattern_builder.hh"
#include "sim/kernel_config.hh"
#include "sim/pattern_runner.hh"
#include "sim/stabilizer.hh"
#include "sim/statevector.hh"

namespace dcmbqc
{
namespace
{

/** Replay a Clifford circuit on the tableau simulator. */
void
applyCircuitToTableau(const Circuit &circuit, StabilizerSim &sim)
{
    for (const Gate &gate : circuit.gates()) {
        switch (gate.kind) {
          case GateKind::H: sim.applyH(gate.q0); break;
          case GateKind::S: sim.applyS(gate.q0); break;
          case GateKind::Sdg: sim.applySdg(gate.q0); break;
          case GateKind::X: sim.applyX(gate.q0); break;
          case GateKind::Z: sim.applyZ(gate.q0); break;
          case GateKind::CZ: sim.applyCZ(gate.q0, gate.q1); break;
          case GateKind::CNOT:
            sim.applyCNOT(gate.q0, gate.q1);
            break;
          default:
            FAIL() << "non-Clifford gate " << gate.toString()
                   << " in a Clifford fuzz circuit";
        }
    }
}

/**
 * Statevector vs stabilizer on one Clifford circuit: measure every
 * qubit in Z, forcing the statevector onto the tableau's sampled
 * branch. The tableau's deterministic/random verdict must match the
 * statevector's branch probability exactly (1 or 1/2) — for a
 * stabilizer state there is nothing in between.
 */
void
checkCliffordAgreement(int qubits, int gates, std::uint64_t seed)
{
    SCOPED_TRACE("qubits=" + std::to_string(qubits) +
                 " gates=" + std::to_string(gates) +
                 " seed=" + std::to_string(seed));
    const Circuit circuit =
        makeRandomCliffordCircuit(qubits, gates, seed);

    StateVector state(qubits);
    state.applyCircuit(circuit);
    StabilizerSim tableau(qubits);
    applyCircuitToTableau(circuit, tableau);

    Rng rng(seed ^ 0xdeadbeefull);
    for (int q = 0; q < qubits; ++q) {
        const StabMeasureResult stab = tableau.measureZ(q, rng);
        // Removal shifts higher qubits down, so the front simulator
        // qubit is always the one the tableau just measured.
        const MeasureResult sv =
            state.measureZAndRemove(0, rng, stab.outcome);
        EXPECT_NEAR(sv.probability,
                    stab.deterministic ? 1.0 : 0.5, 1e-9);
    }
}

TEST(Differential, StatevectorVsStabilizerOnCliffordCircuits)
{
    // >= 120 seeded circuits across widths and depths.
    for (std::uint64_t seed = 0; seed < 120; ++seed)
        checkCliffordAgreement(/*qubits=*/2 + seed % 4,
                               /*gates=*/8 + seed % 17,
                               1000 + seed);
}

/**
 * Compiled-pattern execution vs direct circuit simulation: the
 * pattern runner (adaptive measurements, random outcomes, byproduct
 * corrections) must reproduce the circuit unitary exactly.
 */
void
checkPatternMatchesCircuit(int qubits, int gates, std::uint64_t seed)
{
    SCOPED_TRACE("qubits=" + std::to_string(qubits) +
                 " gates=" + std::to_string(gates) +
                 " seed=" + std::to_string(seed));
    const Circuit circuit =
        makeRandomCliffordTCircuit(qubits, gates, seed);
    const Pattern pattern = buildPattern(circuit);

    StateVector reference(qubits, /*plus_basis=*/true);
    reference.applyCircuit(circuit);

    Rng rng(seed * 31 + 7);
    const PatternRunResult run = runPattern(pattern, rng);
    EXPECT_NEAR(StateVector::fidelity(run.outputState, reference),
                1.0, 1e-9);
}

TEST(Differential, CompiledPatternMatchesDirectSimulation)
{
    // >= 100 seeded Clifford+T circuits.
    for (std::uint64_t seed = 0; seed < 100; ++seed)
        checkPatternMatchesCircuit(/*qubits=*/2 + seed % 3,
                                   /*gates=*/6 + seed % 13,
                                   500 + seed);
}

/**
 * Backend-level agreement: on a Clifford pattern, every outcome the
 * stabilizer backend observes carries an exact probability 2^-r; it
 * must equal the statevector backend's squared amplitude for the
 * same bitstring. No statistics, no tolerance games — both sides
 * are exact.
 */
void
checkBackendProbabilityAgreement(int qubits, int gates,
                                 std::uint64_t seed)
{
    SCOPED_TRACE("qubits=" + std::to_string(qubits) +
                 " gates=" + std::to_string(gates) +
                 " seed=" + std::to_string(seed));
    const ExecProgram program = ExecProgram::fromCircuit(
        makeRandomCliffordCircuit(qubits, gates, seed));

    ExecOptions options;
    options.shots = 24;
    options.seed = static_cast<std::int64_t>(seed);

    options.backend = "statevector";
    auto sv = executeProgram(program, options);
    ASSERT_TRUE(sv.ok()) << sv.status().toString();
    options.backend = "stabilizer";
    auto stab = executeProgram(program, options);
    ASSERT_TRUE(stab.ok()) << stab.status().toString();

    // The statevector's exact distribution must normalize.
    double total = 0.0;
    for (const auto &[bits, p] : sv->probabilities)
        total += p;
    EXPECT_NEAR(total, 1.0, 1e-9);

    ASSERT_FALSE(stab->probabilities.empty());
    for (const auto &[bits, p] : stab->probabilities) {
        const auto match = sv->probabilities.find(bits);
        ASSERT_NE(match, sv->probabilities.end())
            << "stabilizer outcome " << bits
            << " has zero statevector probability";
        EXPECT_NEAR(match->second, p, 1e-9) << "outcome " << bits;
    }
    // Sampled outcomes stay inside the exact support on both sides.
    for (const auto &[bits, count] : stab->counts)
        EXPECT_TRUE(sv->probabilities.count(bits))
            << "sampled outcome " << bits << " outside the support";
    for (const auto &[bits, count] : sv->counts)
        EXPECT_TRUE(sv->probabilities.count(bits))
            << "sampled outcome " << bits << " outside the support";
}

TEST(Differential, ExecutionBackendsAgreeOnCliffordPatterns)
{
    for (std::uint64_t seed = 0; seed < 40; ++seed)
        checkBackendProbabilityAgreement(/*qubits=*/2 + seed % 3,
                                         /*gates=*/8 + seed % 11,
                                         2000 + seed);
}

/**
 * The scheduler-verification oracle (ROADMAP item 5): compile a
 * random Clifford circuit to a distributed schedule, execute the
 * *schedule* directly — measurements interleaved across the per-QPU
 * timelines instead of pattern order — and compare the exact
 * outcome probabilities against the pattern-order stabilizer replay
 * and the statevector ground truth. A ScheduleList/RefineBdir bug
 * that corrupts the partition/layer/task enumeration either fails
 * schedulePhotonTimes validation or diverges here.
 */
void
checkScheduleMatchesStabilizer(int qubits, int gates,
                               std::uint64_t seed, int qpus)
{
    SCOPED_TRACE("qubits=" + std::to_string(qubits) +
                 " gates=" + std::to_string(gates) +
                 " seed=" + std::to_string(seed) +
                 " qpus=" + std::to_string(qpus));
    const CompilerDriver driver(
        CompileOptions().numQpus(qpus).gridSize(7).seed(seed));
    const auto request = CompileRequest::fromCircuit(
        makeRandomCliffordCircuit(qubits, gates, seed),
        "sched-diff");
    auto report = driver.compile(request);
    ASSERT_TRUE(report.ok()) << report.status().toString();
    ASSERT_TRUE(report->pattern.has_value());
    ASSERT_TRUE(report->distributed.has_value());
    const ExecProgram program =
        ExecProgram::fromPattern(*report->pattern, "sched-diff")
            .withSchedule(*report->distributed);

    ExecOptions options;
    options.shots = 24;
    options.seed = static_cast<std::int64_t>(seed);

    options.backend = "schedule";
    auto sched = executeProgram(program, options);
    ASSERT_TRUE(sched.ok()) << sched.status().toString();
    options.backend = "stabilizer";
    auto stab = executeProgram(program, options);
    ASSERT_TRUE(stab.ok()) << stab.status().toString();
    options.backend = "statevector";
    auto sv = executeProgram(program, options);
    ASSERT_TRUE(sv.ok()) << sv.status().toString();

    EXPECT_EQ(sched->completedShots, options.shots);
    ASSERT_FALSE(sched->probabilities.empty());
    // Schedule-order outcomes must sit inside the exact corrected
    // distribution with identical chain-rule probabilities.
    for (const auto &[bits, p] : sched->probabilities) {
        const auto match = sv->probabilities.find(bits);
        ASSERT_NE(match, sv->probabilities.end())
            << "schedule outcome " << bits
            << " has zero statevector probability";
        EXPECT_NEAR(match->second, p, 1e-9) << "outcome " << bits;
        const auto pattern_order = stab->probabilities.find(bits);
        if (pattern_order != stab->probabilities.end())
            EXPECT_NEAR(pattern_order->second, p, 1e-12)
                << "outcome " << bits;
    }
    // And vice versa: the pattern-order replay must agree with the
    // schedule-order replay wherever both observed an outcome.
    for (const auto &[bits, count] : sched->counts)
        EXPECT_TRUE(sv->probabilities.count(bits))
            << "sampled outcome " << bits << " outside the support";
    std::int64_t total = 0;
    for (const auto &[bits, count] : sched->counts)
        total += count;
    EXPECT_EQ(total, options.shots);
}

TEST(Differential, ScheduleBackendMatchesStabilizerOnCliffordInputs)
{
    // >= 60 seeded cross-checks over 2..5 qubits and 2..4 QPUs:
    // this is the first end-to-end differential coverage of
    // ScheduleList/RefineBdir's measurement/layer interleaving.
    for (std::uint64_t seed = 0; seed < 64; ++seed)
        checkScheduleMatchesStabilizer(/*qubits=*/2 + seed % 4,
                                       /*gates=*/8 + seed % 13,
                                       4000 + seed,
                                       /*qpus=*/2 + seed % 3);
}

/** Execute `program` on `backend` under one kernel configuration. */
ExecResult
runUnderConfig(const ExecProgram &program, const char *backend,
               std::int64_t seed, const SimKernelConfig &config)
{
    simKernelConfig() = config;
    ExecOptions options;
    options.backend = backend;
    options.shots = 24;
    options.seed = seed;
    auto result = executeProgram(program, options);
    resetSimKernelConfig();
    EXPECT_TRUE(result.ok()) << result.status().toString();
    return result.ok() ? *result : ExecResult{};
}

/**
 * The kernel-configuration axis: the same 64-circuit corpus the
 * schedule differential runs, executed once per kernel configuration
 * — full reference (scalar tableau, naive shot loop, portable
 * amplitudes), packed tableau alone, and the full fast stack — with
 * every configuration required to produce *identical* results: same
 * counts, same exact probability maps (double-equality, not
 * tolerance). This pins the optimization itself, not just backend
 * pairs: a packed-tableau phase bug or a shot-tree RNG drift flips a
 * sampled outcome and fails the EXPECT_EQ on counts.
 */
TEST(Differential, KernelConfigurationsAreBitIdenticalOnTheCorpus)
{
    const SimKernelConfig reference{/*packedTableau=*/false,
                                    /*shotTree=*/false,
                                    SvKernel::Portable,
                                    /*fuseGates=*/false};
    const SimKernelConfig packed_only{/*packedTableau=*/true,
                                      /*shotTree=*/false,
                                      SvKernel::Portable,
                                      /*fuseGates=*/false};
    const SimKernelConfig fast{/*packedTableau=*/true,
                               /*shotTree=*/true, SvKernel::Auto,
                               /*fuseGates=*/true};

    for (std::uint64_t seed = 0; seed < 64; ++seed) {
        const int qubits = 2 + static_cast<int>(seed % 4);
        const int gates = 8 + static_cast<int>(seed % 13);
        const int qpus = 2 + static_cast<int>(seed % 3);
        SCOPED_TRACE("qubits=" + std::to_string(qubits) +
                     " gates=" + std::to_string(gates) +
                     " seed=" + std::to_string(4000 + seed) +
                     " qpus=" + std::to_string(qpus));
        const CompilerDriver driver(CompileOptions()
                                        .numQpus(qpus)
                                        .gridSize(7)
                                        .seed(4000 + seed));
        const auto request = CompileRequest::fromCircuit(
            makeRandomCliffordCircuit(qubits, gates, 4000 + seed),
            "kernel-axis");
        auto report = driver.compile(request);
        ASSERT_TRUE(report.ok()) << report.status().toString();
        const ExecProgram program =
            ExecProgram::fromPattern(*report->pattern, "kernel-axis")
                .withSchedule(*report->distributed);

        for (const char *backend :
             {"statevector", "stabilizer", "schedule"}) {
            SCOPED_TRACE(backend);
            const std::int64_t exec_seed =
                static_cast<std::int64_t>(seed);
            const ExecResult base =
                runUnderConfig(program, backend, exec_seed,
                               reference);
            for (const SimKernelConfig &config :
                 {packed_only, fast}) {
                const ExecResult got = runUnderConfig(
                    program, backend, exec_seed, config);
                EXPECT_EQ(base.counts, got.counts);
                EXPECT_EQ(base.probabilities, got.probabilities);
                EXPECT_EQ(base.completedShots, got.completedShots);
                EXPECT_EQ(base.notes, got.notes);
            }
        }
    }
}

TEST(Differential, ScheduleBackendLossMatchesAnalyticSurvival)
{
    // Under a noise budget the schedule backend charges the same
    // schedule-derived exposure the mc-loss backend samples, so
    // both sampled survival rates must converge to one analytic
    // product — unlike the pattern-level simulator channels, which
    // see no storage or connectors.
    NoiseConfig noise;
    noise.add("delay-line")
        .add("connector", {{"insertion_loss_db", 0.6}});
    const CompilerDriver driver(
        CompileOptions().numQpus(2).gridSize(7).seed(5));
    const auto request = CompileRequest::fromCircuit(
        makeRandomCliffordCircuit(5, 16, 99), "sched-loss");

    ExecOptions sched;
    sched.backend = "schedule";
    sched.shots = 4000;
    sched.seed = 23;
    sched.noise = noise;
    ExecOptions loss = sched;
    loss.backend = "mc-loss";

    auto report = driver.compileAndExecute(request, {sched, loss});
    ASSERT_TRUE(report.ok()) << report.status().toString();
    ASSERT_EQ(report->executions.size(), 2u);
    const ExecResult &a = report->executions[0];
    const ExecResult &b = report->executions[1];
    ASSERT_GT(a.analyticSuccessProbability, 0.0);
    ASSERT_LT(a.analyticSuccessProbability, 1.0);
    // Identical exposure -> identical analytic product.
    EXPECT_NEAR(a.analyticSuccessProbability,
                b.analyticSuccessProbability, 1e-12);
    EXPECT_NEAR(a.survivalRate(), a.analyticSuccessProbability,
                0.03);
    EXPECT_NEAR(b.survivalRate(), b.analyticSuccessProbability,
                0.03);
}

TEST(Differential, ScheduleAndLossBackendsAgreeUnderCorrelatedBurst)
{
    // Both backends sample one channel over the same schedule
    // exposure: a burst is drawn by its correlated hook only, never
    // again through the per-site analytic factor. Every burst hits at
    // least one photon, so both survival rates sit near 1 - rate.
    NoiseConfig noise;
    noise.add("correlated-burst", {{"burst_rate", 0.5}});
    const CompilerDriver driver(
        CompileOptions().numQpus(2).gridSize(7).seed(5));
    const auto request = CompileRequest::fromCircuit(
        makeRandomCliffordCircuit(5, 16, 99), "sched-burst");

    ExecOptions sched;
    sched.backend = "schedule";
    sched.shots = 4000;
    sched.seed = 23;
    sched.noise = noise;
    ExecOptions loss = sched;
    loss.backend = "mc-loss";

    auto report = driver.compileAndExecute(request, {sched, loss});
    ASSERT_TRUE(report.ok()) << report.status().toString();
    ASSERT_EQ(report->executions.size(), 2u);
    const ExecResult &a = report->executions[0];
    const ExecResult &b = report->executions[1];
    EXPECT_NEAR(a.survivalRate(), b.survivalRate(), 0.05);
    EXPECT_NEAR(a.survivalRate(), 0.5, 0.05);
    EXPECT_NEAR(b.survivalRate(), 0.5, 0.05);
}

/**
 * The third backend differentially checked against the analytic
 * model: Monte-Carlo loss sampling over a compiled schedule must
 * converge to the closed-form survival product.
 */
TEST(Differential, LossSamplingConvergesToAnalyticModel)
{
    const CompilerDriver driver(
        CompileOptions().numQpus(2).gridSize(7).seed(3));
    ExecOptions exec;
    exec.backend = "mc-loss";
    exec.shots = 4000;
    exec.seed = 17;
    // 40 ns cycles make loss non-negligible without drowning it.
    exec.lossModel.cyclePeriodNs = 40.0;
    auto report = driver.compileAndExecute(
        CompileRequest::fromCircuit(makeQft(6), "loss-diff"), exec);
    ASSERT_TRUE(report.ok()) << report.status().toString();
    ASSERT_EQ(report->executions.size(), 1u);
    const ExecResult &result = report->executions[0];
    ASSERT_GT(result.analyticSuccessProbability, 0.0);
    ASSERT_LT(result.analyticSuccessProbability, 1.0);
    EXPECT_NEAR(result.survivalRate(),
                result.analyticSuccessProbability, 0.03);
}

} // namespace
} // namespace dcmbqc
