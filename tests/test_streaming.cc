/**
 * @file
 * Tests of the streaming compilation core: the windowed pattern
 * builder and segment-emitting list scheduler against their
 * monolithic oracles (bit-identical artifacts for every window
 * size), the deterministic parallel kernels (coarsening contraction,
 * per-QPU local compiles) across worker counts,
 * stream-entry requests through the driver and the cache-key
 * aliasing between a stream and its materialized circuit, window
 * validation through the Status channel, and mid-stream cancellation
 * leaving no partial cache entries.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <set>
#include <vector>

#include "api/api.hh"
#include "api/cancellation.hh"
#include "cache/cache_key.hh"
#include "cache/compile_cache.hh"
#include "circuit/circuit_stream.hh"
#include "circuit/generators.hh"
#include "circuit/huge_generators.hh"
#include "circuit/transpile.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "core/compile_path.hh"
#include "core/list_scheduler.hh"
#include "core/lsp_builder.hh"
#include "core/streaming_schedule.hh"
#include "graph/graph.hh"
#include "mbqc/dependency.hh"
#include "mbqc/pattern_builder.hh"
#include "mbqc/streaming_builder.hh"
#include "partition/coarsen.hh"
#include "serialize/codecs.hh"

namespace dcmbqc
{
namespace
{

/** Restores the process-default compile path on scope exit. */
struct PathGuard
{
    ~PathGuard() { resetCompilePathConfig(); }
};

void
useStreamingPaths()
{
    CompilePathConfig &config = compilePathConfig();
    config.streamingFrontEnd = true;
    config.streamingScheduler = true;
}

void
useReferencePaths()
{
    CompilePathConfig &config = compilePathConfig();
    config.streamingFrontEnd = false;
    config.streamingScheduler = false;
}

const std::vector<std::uint32_t> &
windowCorpus()
{
    // 0 = one window over the whole input (the "infinite" window).
    static const std::vector<std::uint32_t> windows = {0, 1, 64,
                                                       4096};
    return windows;
}

std::vector<Circuit>
circuitCorpus()
{
    std::vector<Circuit> corpus;
    corpus.push_back(makeQft(8));
    corpus.push_back(makeQaoaMaxcut(10, 7));
    corpus.push_back(makeVqe(6, 2, 11));
    corpus.push_back(makeRandomCliffordTCircuit(7, 300, 5));
    corpus.push_back(makeGraphStateStream(4, 5)->materialize());
    corpus.push_back(makeDeepQaoaStream(8, 3)->materialize());
    corpus.push_back(makeRandomCliffordTStream(6, 200)->materialize());
    return corpus;
}

Graph
randomGraph(int n, int edges, std::uint64_t seed)
{
    Graph g(n);
    Rng rng(seed);
    std::set<std::pair<NodeId, NodeId>> seen;
    int added = 0;
    while (added < edges) {
        const NodeId u = static_cast<NodeId>(
            rng.uniformInt(static_cast<std::uint64_t>(n)));
        const NodeId v = static_cast<NodeId>(
            rng.uniformInt(static_cast<std::uint64_t>(n)));
        if (u == v || !seen.insert(std::minmax(u, v)).second)
            continue;
        g.addEdge(u, v);
        ++added;
    }
    g.freeze();
    return g;
}

// --- Windowed pattern builder vs the monolithic oracle ---------------------

TEST(StreamingPatternBuilder, BitIdenticalForEveryWindowSize)
{
    for (const Circuit &circuit : circuitCorpus()) {
        const auto oracle =
            encodePatternArtifact(buildPattern(transpileToJCz(circuit)));
        for (std::uint32_t window : windowCorpus()) {
            SCOPED_TRACE(circuit.name() + " window=" +
                         std::to_string(window));
            VectorCircuitStream stream(circuit);
            StreamStats stats;
            auto streamed = buildPatternStreamed(
                stream, StreamWindow{window}, {}, &stats);
            ASSERT_TRUE(streamed.ok()) << streamed.status().toString();
            EXPECT_EQ(encodePatternArtifact(*streamed), oracle);
            EXPECT_EQ(stats.opsStreamed,
                      static_cast<std::uint64_t>(circuit.numGates()));
            if (window > 0)
                EXPECT_GE(stats.windows, 1u);
        }
    }
}

TEST(StreamingPatternBuilder, CheckpointAbortsMidStream)
{
    const Circuit circuit = makeQft(8);
    VectorCircuitStream stream(circuit);
    int fired = 0;
    auto streamed = buildPatternStreamed(
        stream, StreamWindow{4}, [&](const WindowEvent &) -> Status {
            if (++fired >= 2)
                return Status::cancelled("stop mid-stream");
            return Status::okStatus();
        });
    ASSERT_FALSE(streamed.ok());
    EXPECT_EQ(streamed.status().code(), StatusCode::Cancelled);
    EXPECT_EQ(fired, 2);
}

TEST(StreamingPatternBuilder, WindowEventsReportSettledProgress)
{
    const Circuit circuit = makeQft(6);
    VectorCircuitStream stream(circuit);
    std::vector<WindowEvent> events;
    auto streamed = buildPatternStreamed(
        stream, StreamWindow{16}, [&](const WindowEvent &event) {
            events.push_back(event);
            return Status::okStatus();
        });
    ASSERT_TRUE(streamed.ok());
    ASSERT_FALSE(events.empty());
    std::uint64_t previous = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].index, static_cast<std::uint32_t>(i));
        EXPECT_GE(events[i].settled, previous);
        previous = events[i].settled;
        EXPECT_EQ(events[i].total,
                  static_cast<std::uint64_t>(circuit.numGates()));
    }
    EXPECT_EQ(events.back().settled,
              static_cast<std::uint64_t>(circuit.numGates()));
}

// --- Segment-emitting scheduler vs the monolithic slot loop ----------------

TEST(StreamingScheduler, BitIdenticalSegmentsCoverTimeline)
{
    const Circuit circuit = makeQft(8);
    const Pattern pattern = buildPattern(transpileToJCz(circuit));
    const Digraph deps = realTimeDependencyGraph(pattern);
    auto config = CompileOptions().numQpus(4).gridSize(7).build();
    ASSERT_TRUE(config.ok());
    std::vector<int> assign(pattern.graph().numNodes());
    for (NodeId u = 0; u < pattern.graph().numNodes(); ++u)
        assign[u] = static_cast<int>(u) % 4;
    const Partitioning part(assign, 4);
    const LayerSchedulingProblem lsp = buildLayerSchedulingProblem(
        pattern.graph(), deps, part, 4, config->grid, config->order,
        config->kmax);

    const auto oracle =
        encodeScheduleArtifact(listScheduleDefault(lsp));

    std::vector<double> main_priority(lsp.mainTasks().size());
    for (std::size_t i = 0; i < main_priority.size(); ++i)
        main_priority[i] = lsp.mainTasks()[i].index;
    std::vector<double> sync_priority(lsp.syncTasks().size());
    for (std::size_t k = 0; k < sync_priority.size(); ++k) {
        const auto &sync = lsp.syncTasks()[k];
        sync_priority[k] = 0.5 * (lsp.mainTasks()[sync.taskA].index +
                                  lsp.mainTasks()[sync.taskB].index);
    }

    for (std::uint32_t window : windowCorpus()) {
        SCOPED_TRACE("window=" + std::to_string(window));
        std::vector<ScheduleSegment> segments;
        auto streamed = listScheduleStreamed(
            lsp, main_priority, sync_priority, std::nullopt,
            StreamWindow{window}, {},
            [&](const ScheduleSegment &segment) {
                segments.push_back(segment);
            });
        ASSERT_TRUE(streamed.ok()) << streamed.status().toString();
        EXPECT_EQ(encodeScheduleArtifact(*streamed), oracle);

        // Segments tile [0, makespan) contiguously and carry every
        // main-task start exactly once.
        ASSERT_FALSE(segments.empty());
        EXPECT_EQ(segments.front().beginSlot, 0);
        std::size_t mains = 0;
        for (std::size_t i = 0; i < segments.size(); ++i) {
            if (i > 0)
                EXPECT_EQ(segments[i].beginSlot,
                          segments[i - 1].endSlot);
            mains += segments[i].mainStarts.size();
        }
        EXPECT_EQ(segments.back().endSlot, streamed->makespan);
        EXPECT_EQ(mains, lsp.mainTasks().size());
    }
}

// --- Driver: streaming paths vs the reference oracle -----------------------

/** Semantic payload of one distributed compile, for comparison. */
struct CompileFingerprint
{
    std::vector<std::uint8_t> pattern;
    std::vector<std::uint8_t> schedule;
    std::vector<int> partition;
    int connectors = 0;

    bool
    operator==(const CompileFingerprint &other) const
    {
        return pattern == other.pattern &&
            schedule == other.schedule &&
            partition == other.partition &&
            connectors == other.connectors;
    }
};

CompileFingerprint
fingerprint(const CompileReport &report)
{
    CompileFingerprint print;
    if (report.pattern)
        print.pattern = encodePatternArtifact(*report.pattern);
    print.schedule =
        encodeScheduleArtifact(report.result().schedule);
    print.partition = report.result().partition.assignment();
    print.connectors = report.result().numConnectors;
    return print;
}

TEST(StreamingDriver, MatchesReferenceOracleForEveryWindow)
{
    PathGuard guard;
    const Circuit circuit = makeQft(8);

    useReferencePaths();
    auto reference =
        CompilerDriver(
            CompileOptions().numQpus(2).gridSize(7).seed(3))
            .compile(CompileRequest::fromCircuit(circuit));
    ASSERT_TRUE(reference.ok()) << reference.status().toString();
    const CompileFingerprint oracle = fingerprint(*reference);

    useStreamingPaths();
    for (std::uint32_t window : windowCorpus()) {
        SCOPED_TRACE("window=" + std::to_string(window));
        CompileOptions options;
        options.numQpus(2).gridSize(7).seed(3);
        if (window > 0)
            options.window(static_cast<int>(window));
        auto streamed = CompilerDriver(options).compile(
            CompileRequest::fromCircuit(circuit));
        ASSERT_TRUE(streamed.ok()) << streamed.status().toString();
        EXPECT_TRUE(fingerprint(*streamed) == oracle);
        if (window > 0) {
            EXPECT_GE(streamed->streaming.windows, 1u);
            EXPECT_GT(streamed->streaming.opsStreamed, 0u);
        }
    }
}

TEST(StreamingDriver, StreamEntryMatchesCircuitEntry)
{
    PathGuard guard;
    useStreamingPaths();

    const auto stream = makeDeepQaoaStream(8, 3);
    const Circuit materialized = stream->materialize();

    const auto options = CompileOptions().numQpus(2).gridSize(7).seed(5);
    auto from_circuit = CompilerDriver(options).compile(
        CompileRequest::fromCircuit(materialized));
    ASSERT_TRUE(from_circuit.ok())
        << from_circuit.status().toString();

    auto windowed = CompileOptions(options);
    windowed.window(16);
    auto from_stream = CompilerDriver(windowed).compile(
        CompileRequest::fromCircuitStream(stream));
    ASSERT_TRUE(from_stream.ok()) << from_stream.status().toString();

    EXPECT_TRUE(fingerprint(*from_stream) ==
                fingerprint(*from_circuit));
    EXPECT_GE(from_stream->streaming.windows, 1u);
    EXPECT_GT(from_stream->streaming.frontierNodePeak, 0u);
    // getrusage-backed peak RSS is available on the CI platforms.
    EXPECT_GT(from_stream->peakRssBytes, 0u);
}

TEST(StreamingDriver, StreamEntryWorksOnReferencePathToo)
{
    PathGuard guard;
    const auto stream = makeGraphStateStream(3, 4);
    const auto options = CompileOptions().numQpus(2).gridSize(7).seed(2);

    useStreamingPaths();
    auto streamed = CompilerDriver(options).compile(
        CompileRequest::fromCircuitStream(stream));
    ASSERT_TRUE(streamed.ok()) << streamed.status().toString();

    useReferencePaths();
    auto reference = CompilerDriver(options).compile(
        CompileRequest::fromCircuitStream(stream));
    ASSERT_TRUE(reference.ok()) << reference.status().toString();

    EXPECT_TRUE(fingerprint(*streamed) == fingerprint(*reference));
}

// --- Cache interaction -----------------------------------------------------

TEST(StreamingCache, StreamAliasesItsMaterializedCircuit)
{
    const auto stream = makeRandomCliffordTStream(6, 200);
    const Circuit materialized = stream->materialize();
    auto config = CompileOptions().numQpus(2).gridSize(7).build();
    ASSERT_TRUE(config.ok());

    const CacheKeyPair from_stream = computeCacheKey(
        CompileRequest::fromCircuitStream(stream), *config, false);
    const CacheKeyPair from_circuit = computeCacheKey(
        CompileRequest::fromCircuit(materialized), *config, false);
    EXPECT_EQ(from_stream.key, from_circuit.key);
    EXPECT_EQ(from_stream.verifier, from_circuit.verifier);

    // Hashing drains the stream; the key must be reproducible from
    // a second drain (streams are replayable by contract).
    const CacheKeyPair again = computeCacheKey(
        CompileRequest::fromCircuitStream(stream), *config, false);
    EXPECT_EQ(again.key, from_stream.key);
    EXPECT_EQ(again.verifier, from_stream.verifier);
}

TEST(StreamingCache, WindowIsExcludedFromTheCacheKey)
{
    PathGuard guard;
    useStreamingPaths();
    auto cache = std::make_shared<CompileCache>();
    const Circuit circuit = makeQft(6);

    auto cold = CompilerDriver(CompileOptions()
                                   .numQpus(2)
                                   .gridSize(7)
                                   .seed(4)
                                   .window(64)
                                   .cache(cache))
                    .compile(CompileRequest::fromCircuit(circuit));
    ASSERT_TRUE(cold.ok());
    EXPECT_FALSE(cold->cacheHit);

    // Same request, different window: must replay the same artifact.
    auto warm = CompilerDriver(CompileOptions()
                                   .numQpus(2)
                                   .gridSize(7)
                                   .seed(4)
                                   .cache(cache))
                    .compile(CompileRequest::fromCircuit(circuit));
    ASSERT_TRUE(warm.ok());
    EXPECT_TRUE(warm->cacheHit);
    EXPECT_EQ(warm->cacheKey, cold->cacheKey);
}

TEST(StreamingCache, MidStreamCancellationLeavesNoPartialEntries)
{
    PathGuard guard;
    useStreamingPaths();

    const std::string dir =
        ::testing::TempDir() + "dcmbqc_stream_cancel_ut";
    std::filesystem::remove_all(dir);
    CacheConfig cache_config;
    cache_config.diskDir = dir;
    auto cache = std::make_shared<CompileCache>(cache_config);

    // Cancel from inside the first window notification: the next
    // checkpoint aborts the pattern build mid-stream.
    CancellationToken token;
    struct CancelOnWindow : PassObserver
    {
        CancellationToken *token = nullptr;
        void
        onWindow(const std::string &, const Pass &,
                 const WindowEvent &) override
        {
            token->cancel();
        }
    } observer;
    observer.token = &token;

    CompilerDriver driver(CompileOptions()
                              .numQpus(2)
                              .gridSize(7)
                              .seed(6)
                              .window(8)
                              .cache(cache));
    driver.addObserver(&observer);
    auto request = CompileRequest::fromCircuit(makeQft(8));
    request.withCancellation(&token);
    auto cancelled = driver.compile(request);
    ASSERT_FALSE(cancelled.ok());
    EXPECT_EQ(cancelled.status().code(), StatusCode::Cancelled);

    // No artifact — partial or temporary — may have reached either
    // cache tier.
    EXPECT_EQ(cache->size(), 0u);
    EXPECT_EQ(cache->stats().diskWrites, 0u);
    std::size_t files = 0;
    if (std::filesystem::exists(dir))
        for (const auto &entry :
             std::filesystem::recursive_directory_iterator(dir))
            files += entry.is_regular_file() ? 1 : 0;
    EXPECT_EQ(files, 0u);
}

// --- Validation through the Status channel ---------------------------------

TEST(StreamingValidation, NegativeWindowIsInvalidConfig)
{
    const Status status = CompileOptions().window(-3).validate();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::InvalidConfig);
    EXPECT_NE(status.message().find("window"), std::string::npos);

    auto report =
        CompilerDriver(CompileOptions().window(-3))
            .compile(CompileRequest::fromCircuit(makeQft(4)));
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::InvalidConfig);
}

TEST(StreamingValidation, NullOrEmptyStreamsAreRejected)
{
    auto null_request = CompileRequest::fromCircuitStream(nullptr);
    const Status null_status = null_request.validate();
    ASSERT_FALSE(null_status.ok());
    EXPECT_EQ(null_status.code(), StatusCode::InvalidArgument);

    auto empty = std::make_shared<GeneratorCircuitStream>(
        "empty", 3, 0, [](std::uint64_t) { return Gate{}; });
    const Status empty_status =
        CompileRequest::fromCircuitStream(empty).validate();
    ASSERT_FALSE(empty_status.ok());
    EXPECT_EQ(empty_status.code(), StatusCode::InvalidArgument);
}

// --- Deterministic parallel kernels ----------------------------------------

/** Every array of a coarse level, flattened for exact comparison. */
std::vector<long long>
coarseLayout(const Graph &c)
{
    std::vector<long long> out{c.numNodes(), c.numEdges()};
    for (NodeId u = 0; u < c.numNodes(); ++u) {
        out.push_back(c.nodeWeight(u));
        out.push_back(static_cast<long long>(c.adjacency(u).size()));
        for (const auto &adj : c.adjacency(u))
            out.insert(out.end(), {adj.neighbor, adj.edge, adj.weight});
    }
    for (const auto &e : c.edges())
        out.insert(out.end(), {e.u, e.v, e.weight});
    return out;
}

TEST(ParallelKernels, ContractionMatchesSequentialForAnyWorkerCount)
{
    // Large enough that the pooled path actually engages
    // (kParallelContractMinEdges = 131072 edges).
    const Graph g = randomGraph(5000, 200000, 17);
    ASSERT_GE(g.edges().size(), kParallelContractMinEdges);
    std::vector<NodeId> match(g.numNodes());
    for (NodeId u = 0; u < g.numNodes(); ++u)
        match[u] = (u % 2 == 0 && u + 1 < g.numNodes()) ? u + 1
            : (u % 2 == 1 ? u - 1 : u);

    Contractor contractor;
    std::vector<NodeId> to_coarse_seq;
    Graph sequential;
    contractor.contract(g, match, to_coarse_seq, sequential, nullptr);
    const auto oracle = coarseLayout(sequential);

    for (int workers : {2, 4, 8}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        ThreadPool pool(workers);
        std::vector<NodeId> to_coarse;
        Graph parallel;
        contractor.contract(g, match, to_coarse, parallel, &pool);
        EXPECT_EQ(coarseLayout(parallel), oracle);
        EXPECT_EQ(to_coarse, to_coarse_seq);
    }
}

TEST(ParallelKernels, LocalCompileIsWorkerCountInvariant)
{
    const Pattern pattern =
        buildPattern(transpileToJCz(makeQft(8)));
    const Digraph deps = realTimeDependencyGraph(pattern);
    auto config = CompileOptions().numQpus(4).gridSize(7).build();
    ASSERT_TRUE(config.ok());
    std::vector<int> assign(pattern.graph().numNodes());
    for (NodeId u = 0; u < pattern.graph().numNodes(); ++u)
        assign[u] = static_cast<int>(u) % 4;
    const Partitioning part(assign, 4);

    // Sequential oracle (one worker), then the parallel path across
    // worker counts: identical local schedules and final schedule.
    std::vector<LocalSchedule> locals_seq;
    const LayerSchedulingProblem oracle_lsp =
        buildLayerSchedulingProblem(pattern.graph(), deps, part, 4,
                                    config->grid, config->order,
                                    config->kmax, &locals_seq,
                                    /*num_workers=*/1);
    const auto oracle =
        encodeScheduleArtifact(listScheduleDefault(oracle_lsp));

    for (int workers : {2, 4, 8, 0}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        std::vector<LocalSchedule> locals;
        const LayerSchedulingProblem lsp =
            buildLayerSchedulingProblem(
                pattern.graph(), deps, part, 4, config->grid,
                config->order, config->kmax, &locals, workers);
        EXPECT_EQ(encodeScheduleArtifact(listScheduleDefault(lsp)),
                  oracle);
        ASSERT_EQ(locals.size(), locals_seq.size());
        for (std::size_t q = 0; q < locals.size(); ++q)
            EXPECT_EQ(encodeLocalScheduleArtifact(locals[q]),
                      encodeLocalScheduleArtifact(locals_seq[q]));
    }
}

// --- Huge-circuit generator streams ----------------------------------------

TEST(HugeGenerators, StreamsAreReplayableAndSized)
{
    const std::vector<std::shared_ptr<CircuitStream>> streams = {
        makeGraphStateStream(5, 7),
        makeDeepQaoaStream(9, 4, 3),
        makeRandomCliffordTStream(8, 500, 19),
    };
    for (const auto &stream : streams) {
        SCOPED_TRACE(stream->name());
        const Circuit first = stream->materialize();
        stream->reset();
        const Circuit second = stream->materialize();
        EXPECT_EQ(encodeCircuitArtifact(first),
                  encodeCircuitArtifact(second));
        EXPECT_EQ(static_cast<std::uint64_t>(first.numGates()),
                  stream->totalGates());
        EXPECT_EQ(first.numQubits(), stream->numQubits());
    }
}

} // namespace
} // namespace dcmbqc
