/**
 * @file
 * Golden artifact corpus: every `tests/golden/*.dcmb` fixture was
 * written by a past build and checked in, and the current decoder
 * must keep accepting all of them — a codec change that breaks
 * persisted artifacts fails here instead of silently orphaning
 * users' files. The files in `tests/golden/frames/` pin the payloads
 * of the dcmbqcd wire protocol the same way. Every fixture must also
 * re-encode to its exact bytes, so an encoder change that alters the
 * layout fails here too.
 *
 * Regenerate with  DCMBQC_REGEN_GOLDEN=1 ./test_golden  after an
 * *intentional*, version-bumped format change (wall-clock fields are
 * zeroed so regenerated bytes are deterministic).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "api/api.hh"
#include "circuit/generators.hh"
#include "mbqc/dependency.hh"
#include "mbqc/pattern_builder.hh"
#include "serialize/codecs.hh"
#include "service/protocol.hh"
#include "sim/kernel_config.hh"

#ifndef DCMBQC_GOLDEN_DIR
#define DCMBQC_GOLDEN_DIR "tests/golden"
#endif

namespace dcmbqc
{
namespace
{

std::string
goldenPath(const char *file)
{
    return std::string(DCMBQC_GOLDEN_DIR) + "/" + file;
}

/** The canonical program every fixture derives from. */
Circuit
goldenCircuit()
{
    return makeRandomCliffordTCircuit(4, 10, 7);
}

CompileOptions
goldenOptions()
{
    return CompileOptions().numQpus(2).gridSize(7).seed(3);
}

/** Compile + execute the canonical program, wall-clock zeroed. */
CompileReport
goldenReport()
{
    ExecOptions exec;
    exec.shots = 32;
    exec.seed = 9;
    exec.numThreads = 1;
    auto report = CompilerDriver(goldenOptions())
                      .compileAndExecute(
                          CompileRequest::fromCircuit(
                              goldenCircuit(), "golden"),
                          exec);
    if (!report.ok())
        panic("golden compile failed: ",
              report.status().toString());
    // Zero every wall-clock so regenerated fixtures are
    // byte-deterministic across machines.
    for (StageReport &stage : report->stages)
        stage.millis = 0.0;
    report->totalMillis = 0.0;
    for (ExecResult &execution : report->executions)
        execution.wallMillis = 0.0;
    return std::move(report.value());
}

/**
 * An ExecResult sampled explicitly through the shot prefix tree
 * (full fast kernel stack forced on, so a reference-default build
 * regenerates the same bytes). Wall-clock zeroed for determinism.
 */
ExecResult
goldenShotTreeResult()
{
    simKernelConfig() = {/*packedTableau=*/true, /*shotTree=*/true,
                         SvKernel::Auto, /*fuseGates=*/true};
    ExecOptions options;
    options.backend = "stabilizer";
    options.shots = 64;
    options.seed = 9;
    options.numThreads = 1;
    auto result = executeProgram(
        ExecProgram::fromCircuit(
            makeRandomCliffordCircuit(4, 12, 7), "golden-tree"),
        options);
    resetSimKernelConfig();
    if (!result.ok())
        panic("golden shot-tree run failed: ",
              result.status().toString());
    result->wallMillis = 0.0;
    return std::move(result.value());
}

/** A noise config naming several mechanisms, with and without params. */
NoiseConfig
goldenNoise()
{
    NoiseConfig noise;
    noise.add("delay-line");
    noise.add("connector", {{"insertion_loss_db", 1.5}});
    noise.add("correlated-burst",
              {{"burst_rate", 0.01}, {"burst_width", 3.0}});
    return noise;
}

/** The canonical program compiled by the monolithic baseline. */
CompileReport
goldenBaselineReport()
{
    auto report = CompilerDriver(goldenOptions())
                      .compileBaseline(CompileRequest::fromCircuit(
                          goldenCircuit(), "golden-baseline"));
    if (!report.ok())
        panic("golden baseline compile failed: ",
              report.status().toString());
    for (StageReport &stage : report->stages)
        stage.millis = 0.0;
    report->totalMillis = 0.0;
    return std::move(report.value());
}

/**
 * A report carrying every optional section besides executions: the
 * cache counters of a cold compile, the retained pattern, and a race
 * table. The table is written by hand (a live race cancels losers on
 * wall-clock deadlines) and covers every candidate flag bit and a
 * non-OK candidate status.
 */
CompileReport
goldenPortfolioReport()
{
    auto report = CompilerDriver(
                      CompileOptions(goldenOptions())
                          .cache(std::make_shared<CompileCache>()))
                      .compile(CompileRequest::fromCircuit(
                          goldenCircuit(), "golden-portfolio"));
    if (!report.ok())
        panic("golden portfolio compile failed: ",
              report.status().toString());
    for (StageReport &stage : report->stages)
        stage.millis = 0.0;
    report->totalMillis = 0.0;

    PortfolioReport race;
    race.requested = 3;
    race.winnerIndex = 1;
    race.cancelledEarly = 1;
    race.validated = true;
    race.validationNote = "winner replayed on the schedule backend";
    PortfolioCandidate first;
    first.strategy = "default";
    first.seed = 3;
    first.logSurvival = -1.25;
    first.successProbability = 0.2865047968601901;
    first.makespan = 40;
    first.connectors = 6;
    first.cacheHit = true;
    PortfolioCandidate second = first;
    second.strategy = "bdir-hot";
    second.seed = 4;
    second.logSurvival = -0.75;
    second.successProbability = 0.4723665527410147;
    second.cacheHit = false;
    second.winner = true;
    PortfolioCandidate third;
    third.strategy = "rcm-order";
    third.seed = 5;
    third.status = Status::cancelled("race decided");
    third.cancelled = true;
    race.candidates = {first, second, third};
    report->portfolio = race;
    return std::move(report.value());
}

/** A job through `request` with backends, noise and every knob set. */
ServiceJob
goldenJob(CompileRequest request)
{
    ServiceJob job;
    job.request = std::move(request);
    job.config = goldenOptions().build().value();
    job.deadlineMillis = 2500;
    job.streamProgress = true;
    ExecOptions plain;
    plain.shots = 32;
    plain.seed = 9;
    ExecOptions noisy;
    noisy.backend = "mc-loss";
    noisy.shots = 64;
    noisy.seed = -3;
    noisy.numThreads = 2;
    noisy.applyByproducts = false;
    noisy.lossModel.attenuationDbPerKm = 0.3;
    noisy.noise = NoiseConfig().add("fusion");
    job.backends = {plain, noisy};
    job.noise = goldenNoise();
    job.portfolio = 3;
    job.window = 64;
    return job;
}

ServiceJob
goldenCircuitJob()
{
    return goldenJob(
        CompileRequest::fromCircuit(goldenCircuit(), "job-circuit"));
}

ServiceJob
goldenPatternJob()
{
    ServiceJob job = goldenJob(CompileRequest::fromPattern(
        buildPattern(goldenCircuit()), "job-pattern"));
    job.baseline = true;
    return job;
}

ServiceJob
goldenGraphJob()
{
    const Pattern pattern = buildPattern(goldenCircuit());
    return goldenJob(CompileRequest::fromGraph(
        pattern.graph(), realTimeDependencyGraph(pattern), "job-graph"));
}

CacheProbe
goldenProbe()
{
    return CacheProbe{0x0123456789abcdefull, 0xfedcba9876543210ull};
}

CompileReply
goldenReply()
{
    CompileReply reply;
    reply.status = Status::deadlineExceeded("deadline of 5 ms exceeded");
    reply.cacheHit = true;
    reply.cacheKey = 0x00c0ffee00c0ffeeull;
    reply.reportArtifact = encodeCircuitArtifact(goldenCircuit());
    return reply;
}

ProgressEvent
goldenWindowEvent()
{
    ProgressEvent event;
    event.label = "golden";
    event.pass = "PatternStream";
    event.window = true;
    event.windowIndex = 3;
    event.windowSettled = 256;
    event.windowTotal = 1024;
    event.frontierLive = 17;
    return event;
}

ServiceStats
goldenStats()
{
    ServiceStats stats;
    stats.requestsTotal = 12;
    stats.compileRequests = 7;
    stats.executeRequests = 2;
    stats.statsRequests = 2;
    stats.pings = 1;
    stats.succeeded = 6;
    stats.failed = 1;
    stats.rejectedQueueFull = 1;
    stats.deadlineExceeded = 1;
    stats.cancelled = 1;
    stats.hotReplies = 3;
    stats.cacheHitReplies = 4;
    stats.inFlight = 1;
    stats.queueLimit = 16;
    stats.workers = 4;
    stats.draining = true;
    stats.uptimeMillis = 98765;
    stats.latencySamples = 9;
    stats.p50Millis = 1.5;
    stats.p99Millis = 20.25;
    stats.maxMillis = 21.0;
    stats.meanMillis = 3.75;
    stats.cache = {7, 2, 1, 3, 4};
    stats.cacheEntries = 5;
    stats.stages = {{"Partition", 6, 42.0, 9.5},
                    {"PlaceLocal", 6, 120.5, 30.25}};
    stats.portfolioRaces = 2;
    stats.portfolioCandidates = 6;
    stats.portfolioCancelledEarly = 1;
    stats.portfolioWinners = {{"default", 1}, {"bdir-hot", 1}};
    return stats;
}

/**
 * Fixture writer, enabled by DCMBQC_REGEN_GOLDEN=1. Kept inside the
 * test binary so the corpus can only ever be produced by code that
 * also passes the rest of the suite.
 */
void
regenerate()
{
    const Circuit circuit = goldenCircuit();
    const Pattern pattern = buildPattern(circuit);
    const Digraph deps = realTimeDependencyGraph(pattern);
    const CompileReport report = goldenReport();

    struct Entry
    {
        const char *file;
        std::vector<std::uint8_t> bytes;
    };
    const Entry entries[] = {
        {"circuit.dcmb", encodeCircuitArtifact(circuit)},
        {"pattern.dcmb", encodePatternArtifact(pattern)},
        {"graph.dcmb", encodeGraphArtifact(pattern.graph())},
        {"digraph.dcmb", encodeDigraphArtifact(deps)},
        {"config.dcmb",
         encodeConfigArtifact(goldenOptions().build().value())},
        {"schedule.dcmb",
         encodeScheduleArtifact(report.result().schedule)},
        {"local_schedule.dcmb",
         encodeLocalScheduleArtifact(
             report.result().localSchedules[0])},
        {"report.dcmb", encodeCompileReportArtifact(report)},
        {"exec_result.dcmb",
         encodeExecResultArtifact(report.executions[0])},
        {"exec_shot_tree.dcmb",
         encodeExecResultArtifact(goldenShotTreeResult())},
        {"noise_config.dcmb", encodeNoiseConfigArtifact(goldenNoise())},
        {"report_baseline.dcmb",
         encodeCompileReportArtifact(goldenBaselineReport())},
        {"report_portfolio.dcmb",
         encodeCompileReportArtifact(goldenPortfolioReport())},
        {"frames/job_circuit.bin", encodeServiceJob(goldenCircuitJob())},
        {"frames/job_pattern.bin", encodeServiceJob(goldenPatternJob())},
        {"frames/job_graph.bin", encodeServiceJob(goldenGraphJob())},
        {"frames/cache_probe.bin", encodeCacheProbe(goldenProbe())},
        {"frames/compile_reply.bin", encodeCompileReply(goldenReply())},
        {"frames/progress_window.bin",
         encodeProgressEvent(goldenWindowEvent())},
        {"frames/service_stats.bin", encodeServiceStats(goldenStats())},
    };
    std::filesystem::create_directories(goldenPath("frames"));
    for (const Entry &entry : entries) {
        const Status saved =
            saveArtifactFile(goldenPath(entry.file), entry.bytes);
        ASSERT_TRUE(saved.ok()) << saved.toString();
    }
}

class GoldenCorpus : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        if (std::getenv("DCMBQC_REGEN_GOLDEN"))
            regenerate();
    }

    std::vector<std::uint8_t>
    load(const char *file)
    {
        auto bytes = loadArtifactFile(goldenPath(file));
        EXPECT_TRUE(bytes.ok())
            << file << ": " << bytes.status().toString()
            << " (missing fixture? regenerate with "
               "DCMBQC_REGEN_GOLDEN=1)";
        return bytes.ok() ? *bytes : std::vector<std::uint8_t>{};
    }
};

TEST_F(GoldenCorpus, CircuitFixtureDecodesToTheExactProgram)
{
    auto decoded = decodeCircuitArtifact(load("circuit.dcmb"));
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    const Circuit expected = goldenCircuit();
    ASSERT_EQ(decoded->numGates(), expected.numGates());
    EXPECT_EQ(decoded->numQubits(), expected.numQubits());
    EXPECT_EQ(decoded->name(), expected.name());
    for (std::size_t i = 0; i < expected.numGates(); ++i) {
        EXPECT_EQ(decoded->gates()[i].kind,
                  expected.gates()[i].kind);
        EXPECT_EQ(decoded->gates()[i].q0, expected.gates()[i].q0);
        EXPECT_EQ(decoded->gates()[i].q1, expected.gates()[i].q1);
        EXPECT_DOUBLE_EQ(decoded->gates()[i].angle,
                         expected.gates()[i].angle);
    }
}

TEST_F(GoldenCorpus, PatternFixtureDecodesAndStaysExecutable)
{
    auto decoded = decodePatternArtifact(load("pattern.dcmb"));
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    decoded->validate();
    EXPECT_EQ(decoded->numWires(), 4);

    // The decoded pattern still runs on the execution backends and
    // reproduces the original circuit's exact distribution.
    ExecOptions options;
    options.shots = 8;
    options.seed = 2;
    auto from_fixture = executeProgram(
        ExecProgram::fromPattern(*decoded, "fixture"), options);
    ASSERT_TRUE(from_fixture.ok())
        << from_fixture.status().toString();
    auto fresh = executeProgram(
        ExecProgram::fromCircuit(goldenCircuit()), options);
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(from_fixture->probabilities, fresh->probabilities);
}

TEST_F(GoldenCorpus, StructuralFixturesDecode)
{
    auto graph = decodeGraphArtifact(load("graph.dcmb"));
    ASSERT_TRUE(graph.ok()) << graph.status().toString();
    EXPECT_GT(graph->numNodes(), 0);

    auto digraph = decodeDigraphArtifact(load("digraph.dcmb"));
    ASSERT_TRUE(digraph.ok()) << digraph.status().toString();
    EXPECT_EQ(digraph->numNodes(), graph->numNodes());

    auto config = decodeConfigArtifact(load("config.dcmb"));
    ASSERT_TRUE(config.ok()) << config.status().toString();
    EXPECT_EQ(config->numQpus, 2);
    EXPECT_EQ(config->grid.size, 7);

    auto schedule = decodeScheduleArtifact(load("schedule.dcmb"));
    ASSERT_TRUE(schedule.ok()) << schedule.status().toString();
    EXPECT_GT(schedule->makespan, 0);

    auto local =
        decodeLocalScheduleArtifact(load("local_schedule.dcmb"));
    ASSERT_TRUE(local.ok()) << local.status().toString();
    EXPECT_GT(local->executionTime(), 0);
}

TEST_F(GoldenCorpus, ReportFixtureDecodesWithExecutions)
{
    auto decoded = decodeCompileReportArtifact(load("report.dcmb"));
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    EXPECT_EQ(decoded->label, "golden");
    ASSERT_TRUE(decoded->distributed.has_value());
    ASSERT_EQ(decoded->executions.size(), 1u);
    const ExecResult &execution = decoded->executions[0];
    EXPECT_EQ(execution.backend, "statevector");
    EXPECT_EQ(execution.shots, 32);
    std::int64_t total = 0;
    for (const auto &[bits, count] : execution.counts)
        total += count;
    EXPECT_EQ(total, execution.shots);
}

TEST_F(GoldenCorpus, ExecResultFixtureDecodes)
{
    auto decoded =
        decodeExecResultArtifact(load("exec_result.dcmb"));
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    EXPECT_EQ(decoded->backend, "statevector");
    EXPECT_EQ(decoded->completedShots, decoded->shots);
    double total = 0.0;
    for (const auto &[bits, p] : decoded->probabilities)
        total += p;
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_F(GoldenCorpus, ShotTreeExecResultFixtureIsByteStable)
{
    // The checked-in fixture was sampled through the shot prefix
    // tree; a fresh tree-path run must reproduce it byte for byte.
    // This is the strongest statement that the kernel rewrite
    // changed nothing observable: same outcomes, same counts, same
    // serialized artifact.
    const auto bytes = load("exec_shot_tree.dcmb");
    auto decoded = decodeExecResultArtifact(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    EXPECT_EQ(decoded->backend, "stabilizer");
    EXPECT_EQ(decoded->shots, 64);
    EXPECT_EQ(decoded->completedShots, decoded->shots);

    const ExecResult fresh = goldenShotTreeResult();
    EXPECT_EQ(encodeExecResultArtifact(fresh), bytes);
}

/** Decoding `file` and encoding the value again gives its bytes. */
template <typename Decode, typename Encode>
void
expectReencodes(const char *file, const std::vector<std::uint8_t> &bytes,
                Decode decode, Encode encode)
{
    auto decoded = decode(bytes);
    ASSERT_TRUE(decoded.ok()) << file << ": "
                              << decoded.status().toString();
    EXPECT_EQ(encode(*decoded), bytes) << file;
}

TEST_F(GoldenCorpus, EveryFixtureReencodesToItsExactBytes)
{
    expectReencodes("circuit.dcmb", load("circuit.dcmb"),
                    decodeCircuitArtifact, encodeCircuitArtifact);
    expectReencodes("pattern.dcmb", load("pattern.dcmb"),
                    decodePatternArtifact, encodePatternArtifact);
    expectReencodes("graph.dcmb", load("graph.dcmb"),
                    decodeGraphArtifact, encodeGraphArtifact);
    expectReencodes("digraph.dcmb", load("digraph.dcmb"),
                    decodeDigraphArtifact, encodeDigraphArtifact);
    expectReencodes("config.dcmb", load("config.dcmb"),
                    decodeConfigArtifact, encodeConfigArtifact);
    expectReencodes("schedule.dcmb", load("schedule.dcmb"),
                    decodeScheduleArtifact, encodeScheduleArtifact);
    expectReencodes("local_schedule.dcmb", load("local_schedule.dcmb"),
                    decodeLocalScheduleArtifact,
                    encodeLocalScheduleArtifact);
    for (const char *file :
         {"report.dcmb", "report_baseline.dcmb",
          "report_portfolio.dcmb"})
        expectReencodes(file, load(file), decodeCompileReportArtifact,
                        encodeCompileReportArtifact);
    for (const char *file : {"exec_result.dcmb", "exec_shot_tree.dcmb"})
        expectReencodes(file, load(file), decodeExecResultArtifact,
                        encodeExecResultArtifact);
    expectReencodes("noise_config.dcmb", load("noise_config.dcmb"),
                    decodeNoiseConfigArtifact,
                    encodeNoiseConfigArtifact);
    for (const char *file : {"frames/job_circuit.bin",
                             "frames/job_pattern.bin",
                             "frames/job_graph.bin"})
        expectReencodes(file, load(file), decodeServiceJob,
                        encodeServiceJob);
    expectReencodes("frames/cache_probe.bin",
                    load("frames/cache_probe.bin"), decodeCacheProbe,
                    encodeCacheProbe);
    expectReencodes("frames/compile_reply.bin",
                    load("frames/compile_reply.bin"),
                    decodeCompileReply, encodeCompileReply);
    expectReencodes("frames/progress_window.bin",
                    load("frames/progress_window.bin"),
                    decodeProgressEvent, encodeProgressEvent);
    expectReencodes("frames/service_stats.bin",
                    load("frames/service_stats.bin"),
                    decodeServiceStats, encodeServiceStats);
}

TEST_F(GoldenCorpus, HandWrittenFixturesRegenerateByteForByte)
{
    EXPECT_EQ(encodeNoiseConfigArtifact(goldenNoise()),
              load("noise_config.dcmb"));
    EXPECT_EQ(encodeServiceJob(goldenCircuitJob()),
              load("frames/job_circuit.bin"));
    EXPECT_EQ(encodeServiceJob(goldenPatternJob()),
              load("frames/job_pattern.bin"));
    EXPECT_EQ(encodeServiceJob(goldenGraphJob()),
              load("frames/job_graph.bin"));
    EXPECT_EQ(encodeCacheProbe(goldenProbe()),
              load("frames/cache_probe.bin"));
    EXPECT_EQ(encodeCompileReply(goldenReply()),
              load("frames/compile_reply.bin"));
    EXPECT_EQ(encodeProgressEvent(goldenWindowEvent()),
              load("frames/progress_window.bin"));
    EXPECT_EQ(encodeServiceStats(goldenStats()),
              load("frames/service_stats.bin"));
}

TEST_F(GoldenCorpus, NoiseConfigFixtureDecodes)
{
    auto decoded = decodeNoiseConfigArtifact(load("noise_config.dcmb"));
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    EXPECT_EQ(*decoded, goldenNoise());
}

TEST_F(GoldenCorpus, BaselineReportFixtureDecodes)
{
    auto decoded =
        decodeCompileReportArtifact(load("report_baseline.dcmb"));
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    EXPECT_EQ(decoded->label, "golden-baseline");
    EXPECT_FALSE(decoded->distributed.has_value());
    ASSERT_TRUE(decoded->baseline.has_value());
    EXPECT_GT(decoded->baseline->schedule.executionTime(), 0);
}

TEST_F(GoldenCorpus, PortfolioReportFixtureCarriesEverySection)
{
    auto decoded =
        decodeCompileReportArtifact(load("report_portfolio.dcmb"));
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    ASSERT_TRUE(decoded->distributed.has_value());
    ASSERT_TRUE(decoded->cacheStats.has_value());
    EXPECT_EQ(decoded->cacheStats->misses, 1u);
    EXPECT_NE(decoded->cacheKey, 0u);
    ASSERT_TRUE(decoded->pattern.has_value());
    EXPECT_EQ(decoded->pattern->numWires(), 4);
    ASSERT_TRUE(decoded->portfolio.has_value());
    const PortfolioReport &race = *decoded->portfolio;
    EXPECT_EQ(race.winnerIndex, 1);
    EXPECT_TRUE(race.validated);
    ASSERT_EQ(race.candidates.size(), 3u);
    EXPECT_TRUE(race.candidates[0].cacheHit);
    EXPECT_TRUE(race.candidates[1].winner);
    EXPECT_TRUE(race.candidates[2].cancelled);
    EXPECT_EQ(race.candidates[2].status.code(), StatusCode::Cancelled);
}

TEST_F(GoldenCorpus, FrameFixturesDecode)
{
    const CompileRequest::EntryPoint entries[] = {
        CompileRequest::EntryPoint::Circuit,
        CompileRequest::EntryPoint::Pattern,
        CompileRequest::EntryPoint::Graph};
    const char *files[] = {"frames/job_circuit.bin",
                           "frames/job_pattern.bin",
                           "frames/job_graph.bin"};
    for (int i = 0; i < 3; ++i) {
        auto job = decodeServiceJob(load(files[i]));
        ASSERT_TRUE(job.ok()) << files[i] << ": "
                              << job.status().toString();
        ASSERT_TRUE(job->request.has_value());
        EXPECT_EQ(job->request->entryPoint(), entries[i]);
        ASSERT_EQ(job->backends.size(), 2u);
        EXPECT_EQ(job->backends[1].backend, "mc-loss");
        ASSERT_TRUE(job->backends[1].noise.has_value());
        ASSERT_TRUE(job->noise.has_value());
        EXPECT_EQ(*job->noise, goldenNoise());
        EXPECT_EQ(job->baseline,
                  entries[i] == CompileRequest::EntryPoint::Pattern);
    }

    auto reply = decodeCompileReply(load("frames/compile_reply.bin"));
    ASSERT_TRUE(reply.ok()) << reply.status().toString();
    EXPECT_EQ(reply->status.code(), StatusCode::DeadlineExceeded);
    EXPECT_TRUE(reply->cacheHit);
    EXPECT_TRUE(decodeCircuitArtifact(reply->reportArtifact).ok());

    auto event =
        decodeProgressEvent(load("frames/progress_window.bin"));
    ASSERT_TRUE(event.ok()) << event.status().toString();
    EXPECT_TRUE(event->window);
    EXPECT_EQ(event->windowTotal, 1024u);

    auto stats = decodeServiceStats(load("frames/service_stats.bin"));
    ASSERT_TRUE(stats.ok()) << stats.status().toString();
    EXPECT_EQ(stats->stages.size(), 2u);
    EXPECT_EQ(stats->portfolioWinners.size(), 2u);
}

} // namespace
} // namespace dcmbqc
