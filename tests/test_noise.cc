/**
 * @file
 * Tests of the pluggable noise subsystem (src/noise/): the
 * ErrorMechanism registry, NoiseConfig serialization (binary
 * artifact + JSON) with malformed-input rejection, the exposure /
 * analysis core, noise channels in every execution backend (seeded
 * determinism across worker counts, zero-noise bit-identity), the
 * noise-aware compiler cost model (partition selection never
 * survives worse than noise-blind, and beats it on connector-heavy
 * budgets), cache-key separation of noise-distinct compiles, and
 * the ServiceJob noise passenger.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>

#include "api/api.hh"
#include "cache/cache_key.hh"
#include "circuit/generators.hh"
#include "noise/analysis.hh"
#include "noise/config_io.hh"
#include "noise/mechanism.hh"
#include "noise/model.hh"
#include "partition/adaptive.hh"
#include "photonic/loss_model.hh"
#include "serialize/codecs.hh"
#include "service/protocol.hh"

namespace dcmbqc
{
namespace
{

NoiseConfig
connectorHeavyConfig()
{
    NoiseConfig config;
    config.add("connector", {{"insertion_loss_db", 3.0}})
        .add("fusion", {{"remote_only", 1.0}});
    return config;
}

NoiseConfig
vacuousConfig()
{
    // Attenuation zero makes the delay-line mechanism a no-op.
    NoiseConfig config;
    config.add("delay-line", {{"attenuation_db_per_km", 0.0}});
    return config;
}

std::string
writeTempFile(const std::string &name, const std::string &text)
{
    const std::string path = "/tmp/dcmbqc_noise_test_" + name;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    return path;
}

// --- Registry --------------------------------------------------------------

TEST(NoiseRegistry, ListsTheFiveBuiltInMechanisms)
{
    const auto names = noiseMechanismNames();
    ASSERT_GE(names.size(), 5u);
    for (const char *expected :
         {"delay-line", "connector", "fusion", "correlated-burst",
          "depolarizing"}) {
        EXPECT_TRUE(isKnownNoiseMechanism(expected)) << expected;
        const auto mechanism = makeNoiseMechanism(expected);
        ASSERT_NE(mechanism, nullptr) << expected;
        EXPECT_STREQ(mechanism->name(), expected);
        EXPECT_TRUE(mechanism->validate().ok()) << expected;
    }
    EXPECT_FALSE(isKnownNoiseMechanism("cosmic-ray"));
    EXPECT_EQ(makeNoiseMechanism("cosmic-ray"), nullptr);
}

TEST(NoiseRegistry, RejectsDuplicateAndEmptyRegistrations)
{
    const Status duplicate = registerNoiseMechanism(
        "delay-line", [] { return makeNoiseMechanism("fusion"); });
    EXPECT_FALSE(duplicate.ok());
    EXPECT_FALSE(registerNoiseMechanism("", [] {
                     return makeNoiseMechanism("fusion");
                 }).ok());
    EXPECT_FALSE(registerNoiseMechanism("null-factory", nullptr).ok());
}

TEST(NoiseRegistry, FusionDefaultsToTheExperimentalFailureRate)
{
    const auto fusion = makeNoiseMechanism("fusion");
    ASSERT_NE(fusion, nullptr);
    bool found = false;
    for (const NoiseParam &param : fusion->params())
        if (param.name == "failure_rate") {
            EXPECT_DOUBLE_EQ(param.value,
                             experimentalFusionFailureRate);
            found = true;
        }
    EXPECT_TRUE(found);
    // p_fail = 0.29 per connector fusion; local edges are exempt
    // under the remote_only=1 default.
    NoiseEdge remote;
    remote.remote = true;
    EXPECT_NEAR(fusion->edgeSurvival(remote),
                1.0 - experimentalFusionFailureRate, 1e-12);
    EXPECT_DOUBLE_EQ(fusion->edgeSurvival(NoiseEdge{}), 1.0);
}

TEST(NoiseRegistry, UnknownParameterIsInvalidConfig)
{
    const auto mechanism = makeNoiseMechanism("depolarizing");
    ASSERT_NE(mechanism, nullptr);
    EXPECT_FALSE(mechanism->set("probabilty", 0.1).ok()); // typo
    EXPECT_TRUE(mechanism->set("probability", 0.1).ok());
    EXPECT_TRUE(mechanism->set("probability", 0.7).ok());
    EXPECT_FALSE(mechanism->validate().ok()); // out of [0, 0.5]
}

// --- Model building --------------------------------------------------------

TEST(NoiseModel, EmptyAndZeroedConfigsAreVacuous)
{
    auto empty = buildNoiseModel(NoiseConfig{});
    ASSERT_TRUE(empty.ok());
    EXPECT_TRUE(empty->vacuous());

    auto zeroed = buildNoiseModel(vacuousConfig());
    ASSERT_TRUE(zeroed.ok());
    EXPECT_TRUE(zeroed->vacuous());

    EXPECT_FALSE(noiseAffectsCompile(NoiseConfig{}));
    EXPECT_FALSE(noiseAffectsCompile(vacuousConfig()));
    EXPECT_TRUE(noiseAffectsCompile(connectorHeavyConfig()));
}

TEST(NoiseModel, UnknownMechanismNamesTheKnownSet)
{
    NoiseConfig config;
    config.add("warp-core-breach");
    auto model = buildNoiseModel(config);
    ASSERT_FALSE(model.ok());
    EXPECT_EQ(model.status().code(), StatusCode::InvalidConfig);
    EXPECT_NE(model.status().message().find("delay-line"),
              std::string::npos)
        << model.status().message();
}

TEST(NoiseModel, NonFiniteParameterIsInvalidConfig)
{
    // NaN fails every comparison and +inf passes every "< 0" check,
    // so each mechanism's own validate() would let them through.
    const double bad[] = {std::nan(""),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity()};
    int checked = 0;
    for (const std::string &name : noiseMechanismNames()) {
        const auto mechanism = makeNoiseMechanism(name);
        ASSERT_NE(mechanism, nullptr) << name;
        for (const NoiseParam &param : mechanism->params()) {
            for (double value : bad) {
                SCOPED_TRACE(name + "." + param.name + " = " +
                             std::to_string(value));
                NoiseConfig config;
                config.add(name, {{param.name, value}});
                auto model = buildNoiseModel(config);
                ASSERT_FALSE(model.ok());
                EXPECT_EQ(model.status().code(),
                          StatusCode::InvalidConfig);
                EXPECT_FALSE(noiseAffectsCompile(config));
                ++checked;
            }
        }
    }
    EXPECT_GE(checked, 3 * 12); // the 12 parameters of the built-ins
}

TEST(NoiseModel, CompositeSurvivalIsTheProductOverMechanisms)
{
    NoiseConfig config;
    config.add("connector", {{"insertion_loss_db", 3.0}})
        .add("fusion");
    auto model = buildNoiseModel(config);
    ASSERT_TRUE(model.ok());

    NoiseSite site;
    site.connector = true;
    const auto connector = makeNoiseMechanism("connector");
    ASSERT_TRUE(connector->set("insertion_loss_db", 3.0).ok());
    // Fusion charges edges, not sites, so the composite site factor
    // equals the connector's alone.
    EXPECT_NEAR(model->siteSurvival(site),
                connector->siteSurvival(site), 1e-12);

    NoiseEdge edge;
    edge.remote = true;
    EXPECT_NEAR(model->edgeSurvival(edge),
                1.0 - experimentalFusionFailureRate, 1e-12);
}

// --- Serialization ---------------------------------------------------------

TEST(NoiseSerialize, BinaryArtifactRoundTrips)
{
    NoiseConfig config;
    config.add("delay-line", {{"cycle_period_ns", 2.5}})
        .add("correlated-burst",
             {{"burst_rate", 0.01}, {"burst_width", 4.0}});
    const auto bytes = encodeNoiseConfigArtifact(config);
    auto decoded = decodeNoiseConfigArtifact(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    EXPECT_EQ(*decoded, config);
}

TEST(NoiseSerialize, CorruptArtifactBytesAreRejected)
{
    const auto bytes =
        encodeNoiseConfigArtifact(connectorHeavyConfig());
    // Flip one payload byte: the envelope checksum must catch it.
    auto corrupt = bytes;
    corrupt[bytes.size() / 2] ^= 0x40;
    EXPECT_FALSE(decodeNoiseConfigArtifact(corrupt).ok());
    // Truncation.
    auto truncated = bytes;
    truncated.resize(truncated.size() - 5);
    EXPECT_FALSE(decodeNoiseConfigArtifact(truncated).ok());
}

TEST(NoiseSerialize, UnknownMechanismInBinaryPayloadIsRejected)
{
    NoiseConfig config;
    config.add("tachyon-flux");
    // The encoder is mechanical; the *decoder* resolves names
    // against the registry so foreign payloads cannot smuggle
    // unknown mechanisms past the Status channel.
    const auto bytes = encodeNoiseConfigArtifact(config);
    auto decoded = decodeNoiseConfigArtifact(bytes);
    ASSERT_FALSE(decoded.ok());
    EXPECT_NE(decoded.status().message().find("tachyon-flux"),
              std::string::npos)
        << decoded.status().message();
}

TEST(NoiseSerialize, JsonRoundTripsAndRejectsMalformedText)
{
    NoiseConfig config;
    config.add("connector", {{"insertion_loss_db", 1.25}})
        .add("depolarizing", {{"probability", 0.05}});
    auto parsed = parseNoiseConfigJson(toJson(config));
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    EXPECT_EQ(*parsed, config);

    EXPECT_FALSE(parseNoiseConfigJson("").ok());
    EXPECT_FALSE(parseNoiseConfigJson("{\"mechanisms\": [").ok());
    EXPECT_FALSE(parseNoiseConfigJson("{\"no\": \"list\"}").ok());
    EXPECT_FALSE(
        parseNoiseConfigJson("{\"mechanisms\": [{\"params\": {}}]}")
            .ok());
    EXPECT_FALSE(parseNoiseConfigJson("[1, 2, 3]").ok());
}

TEST(NoiseSerialize, LoadSniffsBinaryAndJsonAndValidates)
{
    const NoiseConfig config = connectorHeavyConfig();

    const auto artifact = encodeNoiseConfigArtifact(config);
    const std::string binary_path = writeTempFile(
        "load.dcmbqc",
        std::string(artifact.begin(), artifact.end()));
    auto from_binary = loadNoiseConfigFile(binary_path);
    ASSERT_TRUE(from_binary.ok()) << from_binary.status().toString();
    EXPECT_EQ(*from_binary, config);

    const std::string json_path =
        writeTempFile("load.json", toJson(config));
    auto from_json = loadNoiseConfigFile(json_path);
    ASSERT_TRUE(from_json.ok()) << from_json.status().toString();
    EXPECT_EQ(*from_json, config);

    // Unknown mechanisms are rejected at load time, with the path.
    const std::string bad_path = writeTempFile(
        "bad.json",
        "{\"mechanisms\": [{\"mechanism\": \"gremlins\"}]}");
    auto bad = loadNoiseConfigFile(bad_path);
    ASSERT_FALSE(bad.ok());
    EXPECT_NE(bad.status().message().find(bad_path),
              std::string::npos)
        << bad.status().message();

    EXPECT_FALSE(loadNoiseConfigFile("/nonexistent/noise.json").ok());
    std::remove(binary_path.c_str());
    std::remove(json_path.c_str());
    std::remove(bad_path.c_str());
}

// --- Exposure / analysis ---------------------------------------------------

TEST(NoiseAnalysis, CutEdgesChargeConnectorStorageToBothEndpoints)
{
    // Two photons on different QPUs, generated 7 slots apart. The
    // regression of the old loss backend: connector-side tau_remote
    // storage was dropped entirely — only intra-QPU fusee waits were
    // charged. buildExposure must mark both endpoints and charge the
    // generation gap to the earlier photon.
    Graph g(2);
    g.addEdge(0, 1);
    g.freeze();
    Digraph deps(2);
    const std::vector<TimeSlot> node_time = {3, 10};
    const std::vector<int> assignment = {0, 1};

    const NoiseExposure exposure =
        buildExposure(g, deps, node_time, &assignment);
    ASSERT_EQ(exposure.sites.size(), 2u);
    EXPECT_TRUE(exposure.sites[0].connector);
    EXPECT_TRUE(exposure.sites[1].connector);
    EXPECT_EQ(exposure.sites[0].remoteStorageCycles, 7);
    EXPECT_EQ(exposure.sites[1].remoteStorageCycles, 0);
    ASSERT_EQ(exposure.edges.size(), 1u);
    EXPECT_TRUE(exposure.edges[0].remote);

    // The same program on one QPU has no connector exposure.
    const NoiseExposure intra =
        buildExposure(g, deps, node_time, nullptr);
    EXPECT_FALSE(intra.sites[0].connector);
    EXPECT_FALSE(intra.edges[0].remote);

    // And a connector-bearing model punishes the cut placement.
    auto model = buildNoiseModel(connectorHeavyConfig());
    ASSERT_TRUE(model.ok());
    const NoiseAnalysis cut = analyzeNoise(exposure, *model);
    const NoiseAnalysis local = analyzeNoise(intra, *model);
    EXPECT_LT(cut.logSurvival, local.logSurvival);
    EXPECT_GT(cut.successProbability, 0.0);
    EXPECT_LE(cut.successProbability, 1.0);
}

// --- Execution backends ----------------------------------------------------

TEST(NoiseExec, ZeroNoiseConfigsAreBitIdenticalOnEveryBackend)
{
    const CompilerDriver driver(CompileOptions().seed(11));
    const auto request =
        CompileRequest::fromCircuit(makeRandomCliffordCircuit(4, 20, 3),
                                    "noise-identity");
    auto report = driver.compile(request);
    ASSERT_TRUE(report.ok()) << report.status().toString();
    const ExecProgram program =
        ExecProgram::fromRequest(request).withSchedule(
            report->result());

    for (const std::string &backend :
         {std::string("statevector"), std::string("stabilizer"),
          std::string("mc-loss")}) {
        ExecOptions plain;
        plain.backend = backend;
        plain.shots = 200;
        plain.seed = 42;
        plain.numThreads = 1;
        auto base = driver.execute(program, plain);
        ASSERT_TRUE(base.ok())
            << backend << ": " << base.status().toString();

        ExecOptions zeroed = plain;
        zeroed.noise = vacuousConfig();
        auto with_vacuous = driver.execute(program, zeroed);
        ASSERT_TRUE(with_vacuous.ok())
            << backend << ": " << with_vacuous.status().toString();

        EXPECT_EQ(base->counts, with_vacuous->counts) << backend;
        EXPECT_EQ(base->completedShots, with_vacuous->completedShots)
            << backend;
        EXPECT_EQ(base->probabilities, with_vacuous->probabilities)
            << backend;
        EXPECT_EQ(base->lostShots, with_vacuous->lostShots)
            << backend;
    }
}

TEST(NoiseExec, NoisyRunsAreDeterministicAcrossWorkerCounts)
{
    const CompilerDriver driver(CompileOptions().seed(5));
    const auto request = CompileRequest::fromCircuit(
        makeRandomCliffordCircuit(4, 20, 9), "noise-workers");
    auto report = driver.compile(request);
    ASSERT_TRUE(report.ok()) << report.status().toString();
    const ExecProgram program =
        ExecProgram::fromRequest(request).withSchedule(
            report->result());

    NoiseConfig noise;
    noise.add("depolarizing", {{"probability", 0.1}})
        .add("correlated-burst",
             {{"burst_rate", 0.02}, {"burst_width", 3.0}});

    for (const std::string &backend :
         {std::string("statevector"), std::string("stabilizer"),
          std::string("mc-loss")}) {
        ExecOptions one;
        one.backend = backend;
        one.shots = 300;
        one.seed = 77;
        one.numThreads = 1;
        one.noise = noise;
        ExecOptions four = one;
        four.numThreads = 4;

        auto a = driver.execute(program, one);
        auto b = driver.execute(program, four);
        ASSERT_TRUE(a.ok())
            << backend << ": " << a.status().toString();
        ASSERT_TRUE(b.ok())
            << backend << ": " << b.status().toString();
        EXPECT_EQ(a->counts, b->counts) << backend;
        EXPECT_EQ(a->completedShots, b->completedShots) << backend;
        EXPECT_EQ(a->lostShots, b->lostShots) << backend;
        EXPECT_EQ(a->lostPhotons, b->lostPhotons) << backend;
    }
}

TEST(NoiseExec, DepolarizingFlipsOutcomesWithoutLosingShots)
{
    const CompilerDriver driver(CompileOptions().seed(5));
    const auto request = CompileRequest::fromCircuit(
        makeRandomCliffordCircuit(4, 16, 2), "noise-flip");
    auto report = driver.compile(request);
    ASSERT_TRUE(report.ok()) << report.status().toString();
    const ExecProgram program =
        ExecProgram::fromRequest(request).withSchedule(
            report->result());

    ExecOptions plain;
    plain.backend = "statevector";
    plain.shots = 400;
    plain.seed = 3;
    plain.numThreads = 1;
    auto base = driver.execute(program, plain);
    ASSERT_TRUE(base.ok()) << base.status().toString();

    ExecOptions noisy = plain;
    NoiseConfig flip;
    flip.add("depolarizing", {{"probability", 0.5}});
    noisy.noise = flip;
    auto flipped = driver.execute(program, noisy);
    ASSERT_TRUE(flipped.ok()) << flipped.status().toString();

    EXPECT_EQ(flipped->completedShots, flipped->shots);
    EXPECT_EQ(flipped->lostShots, 0);
    EXPECT_NE(flipped->counts, base->counts);
}

TEST(NoiseExec, LossyNoiseDropsShotsOnTheSimulators)
{
    const CompilerDriver driver(CompileOptions().seed(5));
    const auto request = CompileRequest::fromCircuit(
        makeRandomCliffordCircuit(4, 16, 2), "noise-loss");
    auto report = driver.compile(request);
    ASSERT_TRUE(report.ok()) << report.status().toString();
    const ExecProgram program =
        ExecProgram::fromRequest(request).withSchedule(
            report->result());

    ExecOptions noisy;
    noisy.backend = "stabilizer";
    noisy.shots = 300;
    noisy.seed = 3;
    noisy.numThreads = 1;
    NoiseConfig burst;
    burst.add("correlated-burst",
              {{"burst_rate", 0.2}, {"burst_width", 8.0}});
    noisy.noise = burst;
    auto result = driver.execute(program, noisy);
    ASSERT_TRUE(result.ok()) << result.status().toString();
    EXPECT_GT(result->lostShots, 0);
    EXPECT_EQ(result->completedShots,
              result->shots - result->lostShots);
    std::int64_t counted = 0;
    for (const auto &entry : result->counts)
        counted += entry.second;
    EXPECT_EQ(counted, result->completedShots);
}

TEST(NoiseExec, InvalidNoiseConfigIsRejectedByOptionValidation)
{
    const CompilerDriver driver(CompileOptions().seed(5));
    const auto request = CompileRequest::fromCircuit(
        makeRandomCliffordCircuit(3, 10, 2), "noise-invalid");
    auto report = driver.compile(request);
    ASSERT_TRUE(report.ok()) << report.status().toString();
    const ExecProgram program =
        ExecProgram::fromRequest(request).withSchedule(
            report->result());

    ExecOptions bad;
    bad.backend = "statevector";
    NoiseConfig unknown;
    unknown.add("gremlins");
    bad.noise = unknown;
    auto result = driver.execute(program, bad);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::InvalidConfig);
}

TEST(NoiseExec, BaselineProgramsRunOnTheLossBackend)
{
    // Satellite: 1-QPU baseline schedules are now executable on
    // mc-loss via the BaselineResult attachment.
    const CompilerDriver driver(CompileOptions().seed(5));
    const auto request = CompileRequest::fromCircuit(
        makeQft(5), "noise-baseline");
    auto report = driver.compileBaseline(request);
    ASSERT_TRUE(report.ok()) << report.status().toString();
    const ExecProgram program =
        ExecProgram::fromRequest(request).withBaseline(
            report->baselineResult());

    ExecOptions exec;
    exec.backend = "mc-loss";
    exec.shots = 200;
    exec.seed = 9;
    exec.numThreads = 1;
    auto plain = driver.execute(program, exec);
    ASSERT_TRUE(plain.ok()) << plain.status().toString();
    EXPECT_GE(plain->analyticSuccessProbability, 0.0);

    // With a noise model attached the same program still runs, and a
    // connector-heavy budget charges nothing (no cut edges on 1 QPU)
    // beyond its fusion term.
    ExecOptions noisy = exec;
    noisy.noise = connectorHeavyConfig();
    auto result = driver.execute(program, noisy);
    ASSERT_TRUE(result.ok()) << result.status().toString();
    EXPECT_EQ(result->shots, 200);
}

// --- Compiler cost model ---------------------------------------------------

TEST(NoiseCompile, NoiseAwarePartitionNeverSurvivesWorse)
{
    auto model = buildNoiseModel(connectorHeavyConfig());
    ASSERT_TRUE(model.ok());

    Rng rng(123);
    bool found_strict_improvement = false;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        Graph g(32);
        // Random sparse graph: community structure weak enough that
        // modularity and cut-survival disagree on some seeds.
        Rng edges(seed * 7919);
        std::set<std::pair<NodeId, NodeId>> seen;
        int added = 0;
        while (added < 64) {
            const NodeId u =
                static_cast<NodeId>(edges.uniformInt(32));
            const NodeId v =
                static_cast<NodeId>(edges.uniformInt(32));
            if (u == v || !seen.insert(std::minmax(u, v)).second)
                continue;
            g.addEdge(u, v);
            ++added;
        }
        g.freeze();
        AdaptiveConfig config;
        config.k = 4;
        config.seed = seed;

        const AdaptiveResult blind = adaptivePartition(g, config);
        const AdaptiveResult aware =
            adaptivePartition(g, config, &*model);

        const double blind_survival =
            partitionLogSurvival(g, blind.best, *model);
        const double aware_survival =
            partitionLogSurvival(g, aware.best, *model);

        // Same candidate set, survival-argmax selection: the aware
        // choice can never be strictly worse.
        EXPECT_GE(aware_survival, blind_survival - 1e-12)
            << "seed " << seed;
        EXPECT_NEAR(aware.noiseLogSurvival, aware_survival, 1e-9);
        if (aware_survival > blind_survival + 1e-9 &&
            aware.best.assignment() != blind.best.assignment())
            found_strict_improvement = true;
    }
    // Acceptance: on at least one instance the noise-aware cost
    // model picks a *different* partition with *strictly higher*
    // analytic survival than the noise-blind choice.
    EXPECT_TRUE(found_strict_improvement);
}

TEST(NoiseCompile, BlindModeIsBitIdenticalToTheLegacyPartitioner)
{
    Graph g(24);
    Rng edges(42);
    std::set<std::pair<NodeId, NodeId>> seen;
    int added = 0;
    while (added < 48) {
        const NodeId u = static_cast<NodeId>(edges.uniformInt(24));
        const NodeId v = static_cast<NodeId>(edges.uniformInt(24));
        if (u == v || !seen.insert(std::minmax(u, v)).second)
            continue;
        g.addEdge(u, v);
        ++added;
    }
    g.freeze();
    AdaptiveConfig config;
    config.k = 3;
    config.seed = 7;
    const AdaptiveResult a = adaptivePartition(g, config);
    const AdaptiveResult b = adaptivePartition(g, config, nullptr);
    EXPECT_EQ(a.best.assignment(), b.best.assignment());
    EXPECT_DOUBLE_EQ(a.modularity, b.modularity);
    EXPECT_EQ(a.probes, b.probes);
}

TEST(NoiseCompile, DriverThreadsNoiseIntoThePipelineNotes)
{
    CompileOptions options;
    options.seed(3).noise(connectorHeavyConfig());
    const CompilerDriver driver(options);
    auto report = driver.compile(
        CompileRequest::fromCircuit(makeQft(5), "noise-notes"));
    ASSERT_TRUE(report.ok()) << report.status().toString();
    bool partition_notes_noise = false;
    for (const auto &stage : report->stages)
        if (stage.pass == "Partition" &&
            stage.note.find("noise log-survival") != std::string::npos)
            partition_notes_noise = true;
    EXPECT_TRUE(partition_notes_noise);
}

TEST(NoiseCompile, InvalidNoiseConfigFailsTheCompile)
{
    NoiseConfig unknown;
    unknown.add("gremlins");
    CompileOptions options;
    options.noise(unknown);
    const CompilerDriver driver(options);
    auto report = driver.compile(
        CompileRequest::fromCircuit(makeQft(4), "noise-bad"));
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::InvalidConfig);
}

// --- Cache keys ------------------------------------------------------------

TEST(NoiseCacheKey, VacuousNoiseAliasesTheNoiseFreeKey)
{
    const auto request =
        CompileRequest::fromCircuit(makeQft(4), "key");
    const DcMbqcConfig config =
        CompileOptions().seed(1).build().value();

    const CacheKeyPair plain =
        computeCacheKey(request, config, false);
    // The caller-side contract: vacuous configs never reach the
    // hasher (noiseAffectsCompile gates them to nullptr)...
    ASSERT_FALSE(noiseAffectsCompile(vacuousConfig()));
    const CacheKeyPair vacuous =
        computeCacheKey(request, config, false, nullptr);
    EXPECT_EQ(plain.key, vacuous.key);
    EXPECT_EQ(plain.verifier, vacuous.verifier);

    // ...while a compile-affecting config splits the cache line.
    const NoiseConfig heavy = connectorHeavyConfig();
    ASSERT_TRUE(noiseAffectsCompile(heavy));
    const CacheKeyPair noisy =
        computeCacheKey(request, config, false, &heavy);
    EXPECT_NE(plain.key, noisy.key);

    // And two distinct budgets never alias each other.
    NoiseConfig other = connectorHeavyConfig();
    other.mechanisms[0].params[0].value = 4.0;
    const CacheKeyPair noisy2 =
        computeCacheKey(request, config, false, &other);
    EXPECT_NE(noisy.key, noisy2.key);
}

TEST(NoiseCacheKey, CachedNoiseAwareCompilesReplayCorrectly)
{
    auto cache = std::make_shared<CompileCache>(CacheConfig{});
    CompileOptions options;
    options.seed(2).cache(cache).noise(connectorHeavyConfig());
    const CompilerDriver driver(options);
    const auto request =
        CompileRequest::fromCircuit(makeQft(5), "noise-cache");

    auto first = driver.compile(request);
    ASSERT_TRUE(first.ok()) << first.status().toString();
    EXPECT_FALSE(first->cacheHit);
    auto second = driver.compile(request);
    ASSERT_TRUE(second.ok()) << second.status().toString();
    EXPECT_TRUE(second->cacheHit);
    EXPECT_EQ(first->cacheKey, second->cacheKey);

    // A noise-free driver sharing the cache must *miss*: the noise
    // budget is part of the compile's identity.
    CompileOptions plain_options;
    plain_options.seed(2).cache(cache);
    const CompilerDriver plain(plain_options);
    auto third = plain.compile(request);
    ASSERT_TRUE(third.ok()) << third.status().toString();
    EXPECT_FALSE(third->cacheHit);
    EXPECT_NE(third->cacheKey, first->cacheKey);
}

// --- Service protocol ------------------------------------------------------

TEST(NoiseService, ServiceJobCarriesTheNoisePassenger)
{
    ServiceJob job;
    job.request = CompileRequest::fromCircuit(makeQft(4), "svc");
    job.config = CompileOptions().seed(4).build().value();
    job.noise = connectorHeavyConfig();
    ExecOptions exec;
    exec.backend = "mc-loss";
    exec.noise = vacuousConfig();
    job.backends.push_back(exec);

    auto decoded = decodeServiceJob(encodeServiceJob(job));
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    ASSERT_TRUE(decoded->noise.has_value());
    EXPECT_EQ(*decoded->noise, *job.noise);
    ASSERT_EQ(decoded->backends.size(), 1u);
    ASSERT_TRUE(decoded->backends[0].noise.has_value());
    EXPECT_EQ(*decoded->backends[0].noise, vacuousConfig());

    // Absent stays absent.
    job.noise.reset();
    job.backends[0].noise.reset();
    auto plain = decodeServiceJob(encodeServiceJob(job));
    ASSERT_TRUE(plain.ok()) << plain.status().toString();
    EXPECT_FALSE(plain->noise.has_value());
    EXPECT_FALSE(plain->backends[0].noise.has_value());
}

} // namespace
} // namespace dcmbqc
