/**
 * @file
 * Tests of the ExecutionBackend subsystem: registry and
 * capabilities, deterministic parallel shot sampling (bit-identical
 * for any worker count), driver execute/compileAndExecute
 * integration including report stages, the ExecResult artifact
 * codec, and the rejection paths of ExecOptions / program-capability
 * mismatches (zero shots, negative seeds, unknown backends,
 * non-Clifford patterns, missing schedules).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "api/api.hh"
#include "circuit/generators.hh"
#include "circuit/huge_generators.hh"
#include "noise/analysis.hh"
#include "serialize/codecs.hh"
#include "serialize/json.hh"

namespace dcmbqc
{
namespace
{

/** Every deterministic field (wallMillis is wall-clock, excluded). */
void
expectSameExecResult(const ExecResult &a, const ExecResult &b)
{
    EXPECT_EQ(a.backend, b.backend);
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.shots, b.shots);
    EXPECT_EQ(a.completedShots, b.completedShots);
    EXPECT_EQ(a.numWires, b.numWires);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.counts, b.counts);
    EXPECT_EQ(a.probabilities, b.probabilities);
    EXPECT_EQ(a.lostShots, b.lostShots);
    EXPECT_EQ(a.lostPhotons, b.lostPhotons);
    EXPECT_DOUBLE_EQ(a.analyticSuccessProbability,
                     b.analyticSuccessProbability);
    EXPECT_EQ(a.maxStorageCycles, b.maxStorageCycles);
    EXPECT_EQ(a.notes, b.notes);
}

TEST(ExecBackendRegistry, ListsTheFourBuiltInBackends)
{
    const auto names = backendNames();
    ASSERT_EQ(names.size(), 4u);
    EXPECT_EQ(names[0], "statevector");
    EXPECT_EQ(names[1], "stabilizer");
    EXPECT_EQ(names[2], "mc-loss");
    EXPECT_EQ(names[3], "schedule");

    for (const std::string &name : names) {
        const ExecutionBackend *backend = findBackend(name);
        ASSERT_NE(backend, nullptr) << name;
        EXPECT_EQ(backend->name(), name);
    }
    EXPECT_EQ(findBackend("quantum-annealer"), nullptr);
}

TEST(ExecBackendRegistry, CapabilitiesDescribeTheContract)
{
    const auto sv = findBackend("statevector")->capabilities();
    EXPECT_TRUE(sv.runsPattern);
    EXPECT_FALSE(sv.runsSchedule);
    EXPECT_FALSE(sv.cliffordOnly);
    EXPECT_TRUE(sv.exactProbabilities);
    EXPECT_GT(sv.maxWires, 0);

    const auto stab = findBackend("stabilizer")->capabilities();
    EXPECT_TRUE(stab.runsPattern);
    EXPECT_TRUE(stab.cliffordOnly);
    EXPECT_EQ(stab.maxWires, 0);

    const auto loss = findBackend("mc-loss")->capabilities();
    EXPECT_FALSE(loss.runsPattern);
    EXPECT_TRUE(loss.runsSchedule);

    // The schedule backend consumes both payloads: the pattern for
    // semantics, the compiled schedule for measurement order.
    const auto sched = findBackend("schedule")->capabilities();
    EXPECT_TRUE(sched.runsPattern);
    EXPECT_TRUE(sched.runsSchedule);
    EXPECT_TRUE(sched.cliffordOnly);
    EXPECT_TRUE(sched.exactProbabilities);
    EXPECT_EQ(sched.maxWires, 0);
}

TEST(ExecOptionsValidation, RejectsEveryBadFieldAtOnce)
{
    ExecOptions options;
    options.shots = 0;
    options.seed = -4;
    options.numThreads = -1;
    options.backend = "quantum-annealer";

    const Status status = options.validate();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::InvalidConfig);
    // All violations in one message, not just the first.
    EXPECT_NE(status.message().find("shots"), std::string::npos);
    EXPECT_NE(status.message().find("seed"), std::string::npos);
    EXPECT_NE(status.message().find("numThreads"), std::string::npos);
    EXPECT_NE(status.message().find("quantum-annealer"),
              std::string::npos);
}

TEST(ExecOptionsValidation, RejectsBadLossModel)
{
    ExecOptions options;
    options.lossModel.cyclePeriodNs = 0.0;
    options.lossModel.speedFraction = 1.5;
    const Status status = options.validate();
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("cycle period"),
              std::string::npos);
    EXPECT_NE(status.message().find("speed fraction"),
              std::string::npos);
}

TEST(ExecOptionsValidation, RejectsNonFiniteLossModel)
{
    // NaN passes every `x <= 0` style check, so each field needs an
    // explicit finiteness test.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (const double bad : {nan, inf, -inf}) {
        SCOPED_TRACE(std::to_string(bad));
        ExecOptions attenuation;
        attenuation.lossModel.attenuationDbPerKm = bad;
        EXPECT_FALSE(attenuation.validate().ok());
        ExecOptions cycle;
        cycle.lossModel.cyclePeriodNs = bad;
        EXPECT_FALSE(cycle.validate().ok());
        ExecOptions speed;
        speed.lossModel.speedFraction = bad;
        EXPECT_FALSE(speed.validate().ok());
    }
}

TEST(ExecOptionsValidation, RejectionsFlowThroughExecuteProgram)
{
    const ExecProgram program =
        ExecProgram::fromCircuit(makeQft(3), "rejected");
    ExecOptions options;
    options.shots = 0;
    auto result = executeProgram(program, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::InvalidConfig);

    options.shots = 4;
    options.seed = -1;
    result = executeProgram(program, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::InvalidConfig);

    options.seed = 1;
    options.backend = "nope";
    result = executeProgram(program, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::InvalidConfig);
}

TEST(ExecDispatch, StabilizerRejectsNonCliffordPatterns)
{
    // QFT carries pi/4-family phases: not a Clifford pattern.
    ExecOptions options;
    options.backend = "stabilizer";
    options.shots = 4;
    auto result = executeProgram(
        ExecProgram::fromCircuit(makeQft(4)), options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(),
              StatusCode::FailedPrecondition);
    EXPECT_NE(result.status().message().find("Clifford"),
              std::string::npos);
}

TEST(ExecDispatch, PatternBackendsRejectGraphOnlyPrograms)
{
    const Pattern pattern = ExecProgram::fromCircuit(makeQft(3))
                                .pattern();
    const ExecProgram graph_only = ExecProgram::fromGraph(
        pattern.graph(),
        Digraph(pattern.graph().numNodes()), "graph-only");
    ExecOptions options;
    options.shots = 4;
    auto result = executeProgram(graph_only, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(),
              StatusCode::FailedPrecondition);
}

TEST(ExecDispatch, LossBackendRequiresACompiledSchedule)
{
    ExecOptions options;
    options.backend = "mc-loss";
    options.shots = 8;
    auto result = executeProgram(
        ExecProgram::fromCircuit(makeQft(4)), options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(),
              StatusCode::FailedPrecondition);
    EXPECT_NE(result.status().message().find("compile"),
              std::string::npos);
}

TEST(ExecDispatch, ScheduleBackendRejectsScheduleLessPrograms)
{
    // A pattern-only program (e.g. a compile artifact that was
    // never distributed-compiled) must fail via Status, not crash.
    ExecOptions options;
    options.backend = "schedule";
    options.shots = 8;
    auto result = executeProgram(
        ExecProgram::fromCircuit(
            makeRandomCliffordCircuit(3, 8, 3), "no-schedule"),
        options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(),
              StatusCode::FailedPrecondition);
    EXPECT_NE(result.status().message().find("compile"),
              std::string::npos);
}

TEST(ExecDispatch, ScheduleBackendRejectsBaselineOnlyPrograms)
{
    // The dispatcher admits baselines for schedule-capable backends
    // (mc-loss runs them); the schedule backend itself must reject
    // a monolithic baseline via Status — it has no distributed
    // timeline to interleave.
    const CompilerDriver driver(CompileOptions().gridSize(9));
    const auto request = CompileRequest::fromCircuit(
        makeRandomCliffordCircuit(3, 8, 3), "baseline-only");
    auto report = driver.compileBaseline(request);
    ASSERT_TRUE(report.ok()) << report.status().toString();
    ASSERT_TRUE(report->baseline.has_value());

    ExecOptions options;
    options.backend = "schedule";
    options.shots = 8;
    const ExecProgram program =
        ExecProgram::fromRequest(request).withBaseline(
            *report->baseline);
    auto result = executeProgram(program, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(),
              StatusCode::FailedPrecondition);
    EXPECT_NE(result.status().message().find("baseline"),
              std::string::npos);
}

TEST(ExecDispatch, ScheduleBackendRejectsNonCliffordPatterns)
{
    const CompilerDriver driver(
        CompileOptions().numQpus(2).gridSize(7).seed(1));
    const auto request =
        CompileRequest::fromCircuit(makeQft(4), "qft");
    ExecOptions options;
    options.backend = "schedule";
    options.shots = 4;
    auto report = driver.compileAndExecute(request, options);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(),
              StatusCode::FailedPrecondition);
    EXPECT_NE(report.status().message().find("Clifford"),
              std::string::npos);
}

TEST(ExecStatevector, CountsCoverAllShotsAndProbabilitiesNormalize)
{
    ExecOptions options;
    options.shots = 96;
    options.seed = 5;
    auto result = executeProgram(
        ExecProgram::fromCircuit(makeQaoaMaxcut(4, 3), "qaoa"),
        options);
    ASSERT_TRUE(result.ok()) << result.status().toString();

    EXPECT_EQ(result->backend, "statevector");
    EXPECT_EQ(result->label, "qaoa");
    EXPECT_EQ(result->shots, 96);
    EXPECT_EQ(result->completedShots, 96);
    EXPECT_EQ(result->numWires, 4);
    EXPECT_EQ(result->seed, 5);

    std::int64_t total = 0;
    for (const auto &[bits, count] : result->counts) {
        EXPECT_EQ(bits.size(), 4u);
        total += count;
    }
    EXPECT_EQ(total, 96);

    double prob_total = 0.0;
    for (const auto &[bits, p] : result->probabilities)
        prob_total += p;
    EXPECT_NEAR(prob_total, 1.0, 1e-9);
}

TEST(ExecStatevector, RawModeSkipsExactProbabilities)
{
    ExecOptions options;
    options.shots = 8;
    options.applyByproducts = false;
    auto result = executeProgram(
        ExecProgram::fromCircuit(makeQft(3)), options);
    ASSERT_TRUE(result.ok()) << result.status().toString();
    EXPECT_TRUE(result->probabilities.empty());
    ASSERT_EQ(result->notes.size(), 1u);
}

TEST(ExecParallelism, ShotSamplingIsThreadCountInvariant)
{
    // The per-shot seeding contract: 1 worker and 4 workers must
    // produce bit-identical results on every backend.
    const CompilerDriver driver(
        CompileOptions().numQpus(2).gridSize(7).seed(2));
    const auto request = CompileRequest::fromCircuit(
        makeRandomCliffordCircuit(4, 12, 9), "threads");

    for (const char *backend :
         {"statevector", "stabilizer", "mc-loss", "schedule"}) {
        ExecOptions serial;
        serial.backend = backend;
        serial.shots = 64;
        serial.seed = 11;
        serial.numThreads = 1;
        serial.lossModel.cyclePeriodNs = 50.0;
        ExecOptions parallel = serial;
        parallel.numThreads = 4;

        auto a = driver.compileAndExecute(request, serial);
        auto b = driver.compileAndExecute(request, parallel);
        ASSERT_TRUE(a.ok()) << a.status().toString();
        ASSERT_TRUE(b.ok()) << b.status().toString();
        ASSERT_EQ(a->executions.size(), 1u);
        ASSERT_EQ(b->executions.size(), 1u);
        EXPECT_EQ(b->executions[0].threads, 4);
        // Thread count is an execution detail, not a result field.
        ExecResult copy = b->executions[0];
        copy.threads = a->executions[0].threads;
        expectSameExecResult(a->executions[0], copy);
    }
}

TEST(ExecLossBackend, OncePerRunAnalysisIsHoistedOutOfTheShotLoop)
{
    // mc-loss samples thousands of shots from one analytic
    // derivation; rebuilding that derivation inside the shot loop
    // would be quadratic-ish waste invisible to result checks, so
    // the call counters pin it structurally: delta must be exactly
    // one per run, independent of the shot count.
    const CompilerDriver driver(
        CompileOptions().numQpus(2).gridSize(7).seed(13));
    const auto request = CompileRequest::fromCircuit(
        makeRandomCliffordCircuit(4, 14, 21), "hoist");
    auto report = driver.compile(request);
    ASSERT_TRUE(report.ok()) << report.status().toString();
    const ExecProgram program =
        ExecProgram::fromRequest(request).withSchedule(
            report->result());

    // Default path (no noise config): the delay line of
    // `lossModel` over the schedule-derived exposure, built once.
    ExecOptions storage_only;
    storage_only.backend = "mc-loss";
    storage_only.shots = 512;
    storage_only.seed = 6;
    storage_only.lossModel.cyclePeriodNs = 30.0;
    const long default_before = buildExposureCallCount();
    auto a = executeProgram(program, storage_only);
    ASSERT_TRUE(a.ok()) << a.status().toString();
    EXPECT_EQ(buildExposureCallCount() - default_before, 1);

    // Mechanism path: the same exposure feeds every shot's sampling
    // probabilities. The correlated mechanism also exercises the
    // per-worker mask reuse in the shot loop.
    ExecOptions noisy = storage_only;
    NoiseConfig noise;
    noise.add("connector", {{"insertion_loss_db", 1.0}})
        .add("correlated-burst",
             {{"burst_rate", 0.02}, {"burst_width", 3.0}});
    noisy.noise = noise;
    const long exposure_before = buildExposureCallCount();
    auto b = executeProgram(program, noisy);
    ASSERT_TRUE(b.ok()) << b.status().toString();
    EXPECT_EQ(buildExposureCallCount() - exposure_before, 1);
    EXPECT_EQ(b->shots, 512);
    EXPECT_EQ(b->completedShots + b->lostShots, b->shots);
}

TEST(ExecLossBackend, CertainAndZeroLossAreReportedNotAborted)
{
    const CompilerDriver driver(
        CompileOptions().numQpus(2).gridSize(7).seed(13));
    const auto request = CompileRequest::fromCircuit(
        makeRandomCliffordCircuit(4, 14, 21), "extremes");
    auto report = driver.compile(request);
    ASSERT_TRUE(report.ok()) << report.status().toString();
    const ExecProgram program =
        ExecProgram::fromRequest(request).withSchedule(
            report->result());

    // 1 s cycles: every stored photon is certainly lost.
    ExecOptions certain;
    certain.backend = "mc-loss";
    certain.shots = 64;
    certain.lossModel.cyclePeriodNs = 1e9;
    auto lost = executeProgram(program, certain);
    ASSERT_TRUE(lost.ok()) << lost.status().toString();
    EXPECT_EQ(lost->analyticSuccessProbability, 0.0);
    EXPECT_EQ(lost->lostShots, 64);
    EXPECT_GT(lost->maxStorageCycles, 0);

    // Lossless fiber: nothing is lost, yet the storage the schedule
    // charges is still reported.
    ExecOptions lossless = certain;
    lossless.lossModel.attenuationDbPerKm = 0.0;
    auto kept = executeProgram(program, lossless);
    ASSERT_TRUE(kept.ok()) << kept.status().toString();
    EXPECT_EQ(kept->analyticSuccessProbability, 1.0);
    EXPECT_EQ(kept->completedShots, 64);
    EXPECT_EQ(kept->maxStorageCycles, lost->maxStorageCycles);
    EXPECT_EQ(kept->meanStorageCycles, lost->meanStorageCycles);
}

TEST(ExecDriver, CompileAndExecuteRecordsStagesAndStatistics)
{
    const CompilerDriver driver(
        CompileOptions().numQpus(2).gridSize(7).seed(4));
    const auto request = CompileRequest::fromCircuit(
        makeRandomCliffordCircuit(4, 14, 21), "multi");

    ExecOptions sv;
    sv.shots = 32;
    sv.seed = 6;
    ExecOptions loss = sv;
    loss.backend = "mc-loss";
    loss.lossModel.cyclePeriodNs = 30.0;

    auto compile_only = driver.compile(request);
    ASSERT_TRUE(compile_only.ok());
    EXPECT_TRUE(compile_only->executions.empty());

    auto report = driver.compileAndExecute(request, {sv, loss});
    ASSERT_TRUE(report.ok()) << report.status().toString();
    ASSERT_EQ(report->executions.size(), 2u);
    EXPECT_EQ(report->executions[0].backend, "statevector");
    EXPECT_EQ(report->executions[1].backend, "mc-loss");

    // One timed "Execute[...]" stage per backend, after the passes,
    // and the total is the sum of the stages (checked within this
    // one report: wall-clock totals of two compiles do not order).
    const auto &stages = report->stages;
    ASSERT_EQ(stages.size(), compile_only->stages.size() + 2);
    EXPECT_EQ(stages[stages.size() - 2].pass,
              "Execute[statevector]");
    EXPECT_EQ(stages[stages.size() - 1].pass, "Execute[mc-loss]");
    double stage_sum = 0.0;
    for (const auto &stage : stages)
        stage_sum += stage.millis;
    EXPECT_DOUBLE_EQ(report->totalMillis, stage_sum);

    // Loss statistics are aggregated into the histogram keys.
    const ExecResult &mc = report->executions[1];
    EXPECT_EQ(mc.counts.at("success") + mc.counts.at("loss"),
              mc.shots);
    EXPECT_EQ(mc.completedShots + mc.lostShots, mc.shots);
    EXPECT_GE(mc.analyticSuccessProbability, 0.0);
    EXPECT_LE(mc.analyticSuccessProbability, 1.0);
    EXPECT_GT(mc.maxStorageCycles, 0);
}

TEST(ExecDriver, ProgramFromStreamRequestMaterializesTheStream)
{
    const auto stream = makeGraphStateStream(2, 3);
    const ExecProgram streamed = ExecProgram::fromRequest(
        CompileRequest::fromCircuitStream(stream, "lattice"));
    const ExecProgram direct =
        ExecProgram::fromCircuit(stream->materialize(), "lattice");
    EXPECT_EQ(streamed.label(), "lattice");
    EXPECT_EQ(streamed.pattern().numNodes(), direct.pattern().numNodes());
    EXPECT_EQ(streamed.graph().numEdges(), direct.graph().numEdges());
}

TEST(ExecDriver, CompileAndExecuteRejectsBadInputsViaStatus)
{
    const CompilerDriver good(
        CompileOptions().numQpus(2).gridSize(7));
    const auto request =
        CompileRequest::fromCircuit(makeQft(4), "reject");

    // No backends requested.
    auto none = good.compileAndExecute(
        request, std::vector<ExecOptions>{});
    ASSERT_FALSE(none.ok());
    EXPECT_EQ(none.status().code(), StatusCode::InvalidArgument);

    // Bad exec options are rejected up front, before any pass runs.
    ExecOptions bad_exec;
    bad_exec.shots = -3;
    auto bad = good.compileAndExecute(request, bad_exec);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::InvalidConfig);

    // Bad compile options never reach execution.
    const CompilerDriver invalid(
        CompileOptions().numQpus(0).gridSize(7));
    auto rejected = invalid.compileAndExecute(request, ExecOptions{});
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::InvalidConfig);
}

TEST(ExecSerialize, ExecResultArtifactRoundTrips)
{
    ExecOptions options;
    options.shots = 48;
    options.seed = 12;
    auto result = executeProgram(
        ExecProgram::fromCircuit(
            makeRandomCliffordCircuit(3, 10, 77), "roundtrip"),
        options);
    ASSERT_TRUE(result.ok()) << result.status().toString();

    const auto bytes = encodeExecResultArtifact(*result);
    auto decoded = decodeExecResultArtifact(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    expectSameExecResult(*result, *decoded);
    EXPECT_DOUBLE_EQ(decoded->wallMillis, result->wallMillis);
    EXPECT_EQ(decoded->threads, result->threads);

    // JSON writer accepts it (spot-check the envelope key).
    const std::string json = toJson(*decoded);
    EXPECT_NE(json.find("\"artifact\": \"exec-result\""),
              std::string::npos);
}

TEST(ExecSerialize, CorruptedExecResultArtifactIsRejected)
{
    ExecResult result;
    result.backend = "statevector";
    result.shots = 4;
    result.completedShots = 4;
    result.counts["00"] = 4;
    auto bytes = encodeExecResultArtifact(result);
    bytes[bytes.size() / 2] ^= 0x40;
    auto decoded = decodeExecResultArtifact(bytes);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::InvalidArgument);
}

TEST(ExecSerialize, InconsistentShotCountsAreRejected)
{
    ExecResult result;
    result.backend = "statevector";
    result.shots = 4;
    result.completedShots = 9; // > shots: corrupted payload
    BinaryWriter writer;
    encodeExecResult(writer, result);
    BinaryReader reader(writer.bytes());
    decodeExecResult(reader);
    ASSERT_FALSE(reader.ok());
    EXPECT_NE(reader.status().message().find("shot counts"),
              std::string::npos);
}

TEST(ExecSerialize, ReportWithExecutionsRoundTrips)
{
    const CompilerDriver driver(
        CompileOptions().numQpus(2).gridSize(7).seed(8));
    ExecOptions exec;
    exec.shots = 16;
    exec.seed = 3;
    auto report = driver.compileAndExecute(
        CompileRequest::fromCircuit(
            makeRandomCliffordCircuit(3, 8, 5), "report-rt"),
        exec);
    ASSERT_TRUE(report.ok()) << report.status().toString();
    ASSERT_EQ(report->executions.size(), 1u);

    const auto bytes = encodeCompileReportArtifact(*report);
    auto decoded = decodeCompileReportArtifact(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    ASSERT_EQ(decoded->executions.size(), 1u);
    expectSameExecResult(report->executions[0],
                         decoded->executions[0]);
    const std::string json = toJson(*decoded);
    EXPECT_NE(json.find("\"executions\""), std::string::npos);
}

} // namespace
} // namespace dcmbqc
