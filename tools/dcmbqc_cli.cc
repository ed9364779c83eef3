/**
 * @file
 * `dcmbqc`: the out-of-process front end of the DC-MBQC compiler.
 *
 *   dcmbqc compile   compile a generated or serialized circuit and
 *                    write the compile-report artifact to a file
 *   dcmbqc run       compile a serialized circuit/pattern artifact
 *                    and execute it on the execution backends
 *   dcmbqc inspect   pretty-print any artifact file as JSON
 *   dcmbqc stats     one-screen summary of an artifact file, a
 *                    daemon's serving statistics (--daemon), or an
 *                    on-disk cache store (--cache-dir)
 *
 * `compile` and `run` accept `--daemon SOCK` to route the job to a
 * running `dcmbqcd` instead of compiling in-process, sharing its hot
 * cache with every other client; `--autostart` spawns the daemon on
 * demand when nothing serves the socket yet.
 *
 * Every failure travels through the Status channel and exits with a
 * non-zero code; nothing in this tool aborts.
 */

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "api/api.hh"
#include "cache/compile_cache.hh"
#include "circuit/generators.hh"
#include "circuit/huge_generators.hh"
#include "common/table.hh"
#include "flags.hh"
#include "noise/config_io.hh"
#include "photonic/grid.hh"
#include "serialize/codecs.hh"
#include "serialize/json.hh"
#include "service/client.hh"
#include "service/protocol.hh"

using namespace dcmbqc;
using cli::Flags;

namespace
{

int
usage()
{
    cli::printUsage(cli::Compile | cli::Run | cli::Inspect | cli::Stats);
    return 2;
}

int
fail(const Status &status)
{
    std::fprintf(stderr, "dcmbqc: %s\n", status.toString().c_str());
    return 1;
}

/**
 * Load an artifact file, decode it by its kind, and pass the view
 * and the decoded value to `visit`: the one map from artifact kinds
 * to decoders. Returns `visit`'s Status or the load/decode failure.
 */
template <typename Visit>
Status
visitArtifact(const std::string &path, Visit &&visit)
{
    auto bytes = loadArtifactFile(path);
    if (!bytes.ok())
        return bytes.status();
    auto view = openArtifact(*bytes);
    if (!view.ok())
        return view.status();
    const auto apply = [&](auto decoded) -> Status {
        if (!decoded.ok())
            return decoded.status();
        return visit(*view, std::move(decoded.value()));
    };
    switch (view->kind) {
      case ArtifactKind::Circuit:
        return apply(decodeCircuitArtifact(*bytes));
      case ArtifactKind::Graph:
        return apply(decodeGraphArtifact(*bytes));
      case ArtifactKind::Digraph:
        return apply(decodeDigraphArtifact(*bytes));
      case ArtifactKind::Pattern:
        return apply(decodePatternArtifact(*bytes));
      case ArtifactKind::Config:
        return apply(decodeConfigArtifact(*bytes));
      case ArtifactKind::LocalSchedule:
        return apply(decodeLocalScheduleArtifact(*bytes));
      case ArtifactKind::Schedule:
        return apply(decodeScheduleArtifact(*bytes));
      case ArtifactKind::CompileReport:
        return apply(decodeCompileReportArtifact(*bytes));
      case ArtifactKind::ExecResult:
        return apply(decodeExecResultArtifact(*bytes));
      case ArtifactKind::NoiseConfig:
        return apply(decodeNoiseConfigArtifact(*bytes));
    }
    return Status::invalidArgument("unsupported artifact kind");
}

// --- program input ---------------------------------------------------------

Expected<Circuit>
makeFamilyCircuit(const std::string &family, int qubits,
                  std::uint64_t seed)
{
    if (qubits < 1)
        return Status::invalidArgument(
            "--qubits must be >= 1 (got " + std::to_string(qubits) +
            ")");
    if (family == "qft")
        return makeQft(qubits);
    if (family == "qaoa")
        return makeQaoaMaxcut(qubits, seed == 0 ? 7 : seed);
    if (family == "vqe")
        return makeVqe(qubits);
    if (family == "rca") {
        if (qubits < 6)
            return Status::invalidArgument(
                "rca needs --qubits >= 6");
        return makeRippleCarryAdder(qubits);
    }
    // Random Clifford programs: executable on every backend,
    // including the stabilizer tableau (dcmbqc run --backend all).
    if (family == "clifford")
        return makeRandomCliffordCircuit(qubits, 5 * qubits,
                                         seed == 0 ? 7 : seed);
    return Status::invalidArgument(
        "unknown --family '" + family +
        "' (expected qft|qaoa|vqe|rca|clifford)");
}

Expected<Circuit>
loadCircuit(const std::string &path)
{
    auto bytes = loadArtifactFile(path);
    if (!bytes.ok())
        return bytes.status();
    return decodeCircuitArtifact(*bytes);
}

/** One of the O(1)-state huge-circuit streams. */
Expected<std::shared_ptr<CircuitStream>>
makeStream(const Flags &flags)
{
    const std::string &family = flags.streamFamily;
    if (family == "graphstate") {
        if (flags.rows < 1 || flags.cols < 1)
            return Status::invalidArgument(
                "--stream-family graphstate needs --rows and "
                "--cols (lattice shape)");
        return makeGraphStateStream(flags.rows, flags.cols);
    }
    if (family == "deepqaoa") {
        if (flags.qubits < 3 || flags.depth < 1)
            return Status::invalidArgument(
                "--stream-family deepqaoa needs --qubits >= 3 "
                "and --depth (QAOA layers)");
        return makeDeepQaoaStream(flags.qubits, flags.depth,
                                  flags.seed);
    }
    if (family == "cliffordt") {
        if (flags.qubits < 1 || flags.gates == 0)
            return Status::invalidArgument(
                "--stream-family cliffordt needs --qubits and "
                "--gates (total gate count)");
        return makeRandomCliffordTStream(flags.qubits, flags.gates,
                                         flags.seed);
    }
    return Status::invalidArgument(
        "unknown stream family '" + family +
        "' (expected graphstate, deepqaoa, or cliffordt)");
}

/** The program `compile` names: a family, a circuit file, or a stream. */
Expected<CompileRequest>
compileInput(const Flags &flags)
{
    const auto named = [&](const std::string &name) {
        return flags.label.empty() ? name : flags.label;
    };
    if (!flags.streamFamily.empty()) {
        auto stream = makeStream(flags);
        if (!stream.ok())
            return stream.status();
        const std::string label = named((*stream)->name());
        return CompileRequest::fromCircuitStream(*stream, label);
    }
    auto circuit = flags.in.empty()
        ? makeFamilyCircuit(flags.family, flags.qubits, flags.seed)
        : loadCircuit(flags.in);
    if (!circuit.ok())
        return circuit.status();
    const std::string label = named(circuit->name());
    return CompileRequest::fromCircuit(std::move(circuit.value()), label);
}

/** The program `run` executes: a circuit or pattern artifact. */
Expected<CompileRequest>
runInput(const std::string &path)
{
    std::optional<CompileRequest> request;
    const Status status = visitArtifact(
        path, [&](const ArtifactView &view, auto &&value) {
            using T = std::decay_t<decltype(value)>;
            if constexpr (std::is_same_v<T, Circuit>)
                request = CompileRequest::fromCircuit(std::move(value), path);
            else if constexpr (std::is_same_v<T, Pattern>)
                request = CompileRequest::fromPattern(std::move(value), path);
            else
                return Status::invalidArgument(
                    std::string("run executes circuit or pattern "
                                "artifacts; '") +
                    artifactKindName(view.kind) +
                    "' carries no program semantics");
            return Status();
        });
    if (!status.ok())
        return status;
    return std::move(*request);
}

/** Qubits (pattern wires) that size the default grid. */
int
programQubits(const CompileRequest &request)
{
    switch (request.entryPoint()) {
      case CompileRequest::EntryPoint::Circuit:
        return request.circuit().numQubits();
      case CompileRequest::EntryPoint::CircuitStream:
        return request.stream().numQubits();
      case CompileRequest::EntryPoint::Pattern:
        return request.pattern().numWires();
      case CompileRequest::EntryPoint::Graph:
        break;
    }
    return 0;
}

/**
 * The CompileOptions the flags ask for: the grid defaults to
 * gridSizeForQubits(`qubits`), --noise is loaded, and --cache-dir
 * opens an in-process cache unless a daemon serves the job.
 */
Expected<CompileOptions>
compileOptions(const Flags &flags, int qubits)
{
    CompileOptions options;
    options.numQpus(flags.baseline ? 1 : flags.qpus)
        .kmax(flags.kmax)
        .gridSize(flags.grid > 0 ? flags.grid
                                 : gridSizeForQubits(qubits))
        .resourceState(flags.resourceState)
        .useBdir(!flags.noBdir)
        .seed(flags.seed);
    if (flags.plRatio > 0)
        options.plRatio(flags.plRatio);
    if (!flags.noise.empty()) {
        auto loaded = loadNoiseConfigFile(flags.noise);
        if (!loaded.ok())
            return loaded.status();
        options.noise(std::move(loaded.value()));
    }
    if (flags.portfolio > 1) {
        if (flags.baseline)
            return Status::invalidArgument(
                "--portfolio needs the distributed pipeline; drop "
                "--baseline");
        options.portfolio(flags.portfolio);
    }
    // Set even when negative: CompileOptions::validate vets it, so
    // a bad --window comes back as one InvalidConfig status.
    if (flags.window != 0)
        options.window(flags.window);
    if (!flags.cacheDir.empty() && flags.daemon.empty()) {
        CacheConfig cache_config;
        cache_config.diskDir = flags.cacheDir;
        options.cache(std::make_shared<CompileCache>(cache_config));
    }
    return options;
}

// --- compiling, in-process or on the daemon --------------------------------

/**
 * The daemon executable to autostart: the `dcmbqcd` binary next to
 * this `dcmbqc` binary when present (the build tree and installs put
 * them side by side), otherwise whatever PATH resolves.
 */
std::string
daemonExecutable()
{
    char buf[4096];
    const ssize_t n =
        ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        std::string path(buf);
        const std::size_t slash = path.rfind('/');
        if (slash != std::string::npos) {
            path = path.substr(0, slash + 1) + "dcmbqcd";
            if (::access(path.c_str(), X_OK) == 0)
                return path;
        }
    }
    return "dcmbqcd";
}

/**
 * Connect to --daemon, spawning it first under --autostart. Without
 * --daemon the client stays unconnected and jobs run in-process.
 */
Status
connectDaemon(ServiceClient &client, const Flags &flags)
{
    if (flags.daemon.empty())
        return Status();
    if (!flags.autostart)
        return client.connect(flags.daemon);
    std::vector<std::string> argv = {daemonExecutable(), "--socket",
                                     flags.daemon, "--quiet"};
    if (!flags.cacheDir.empty()) {
        argv.push_back("--cache-dir");
        argv.push_back(flags.cacheDir);
    }
    return client.connectOrStart(flags.daemon, argv);
}

/**
 * Compile `request` on the daemon when `client` is connected, else
 * in-process. A daemon job then runs `backends`; compile-only jobs
 * go through the probe-first path, so a warm daemon answers the
 * 16-byte content-address probe with the raw artifact instead of
 * making the client re-ship the request IR.
 */
Expected<ClientCompileResult>
compileJob(const Flags &flags, const CompileOptions &options,
           const CompileRequest &request, ServiceClient &client,
           std::vector<ExecOptions> backends = {}, bool progress = true)
{
    if (!client.connected()) {
        const CompilerDriver driver(options);
        auto report = flags.baseline ? driver.compileBaseline(request)
                                     : driver.compile(request);
        if (!report.ok())
            return report.status();
        const bool hit = report->cacheHit;
        return ClientCompileResult{std::move(report.value()), hit};
    }
    auto config = options.build();
    if (!config.ok())
        return config.status();
    ServiceJob job;
    job.request = request;
    job.config = *config;
    job.baseline = flags.baseline;
    job.deadlineMillis =
        static_cast<std::uint32_t>(std::max(0, flags.deadlineMs));
    job.streamProgress = flags.progress && progress;
    job.backends = std::move(backends);
    job.noise = options.noiseConfig();
    job.portfolio =
        static_cast<std::uint32_t>(flags.portfolio > 1 ? flags.portfolio
                                                       : 0);
    job.window = static_cast<std::uint32_t>(std::max(0, flags.window));

    const auto echo = [&](const ProgressEvent &event) {
        if (flags.quiet)
            return;
        if (event.window) {
            std::printf("  [daemon] %-14s window %u: %llu",
                        event.pass.c_str(), event.windowIndex,
                        (unsigned long long)event.windowSettled);
            if (event.windowTotal > 0)
                std::printf("/%llu",
                            (unsigned long long)event.windowTotal);
            std::printf(" settled, frontier %llu\n",
                        (unsigned long long)event.frontierLive);
            return;
        }
        if (!event.finished)
            return;
        std::printf("  [daemon] %-14s %8.2f ms  %s\n",
                    event.pass.c_str(), event.millis,
                    event.note.c_str());
    };
    return client.compileCached(
        job, job.streamProgress
                 ? std::function<void(const ProgressEvent &)>(echo)
                 : nullptr);
}

// --- reporting -------------------------------------------------------------

/** Render a portfolio race table (winner marked with '*'). */
void
printPortfolioTable(const PortfolioReport &race)
{
    std::printf("portfolio race: %d candidate(s), %.2f ms",
                race.requested, race.raceMillis);
    if (race.cancelledEarly > 0)
        std::printf(", %d cancelled early", race.cancelledEarly);
    std::printf("\n");
    for (const PortfolioCandidate &entry : race.candidates) {
        if (entry.status.ok())
            std::printf("  %c %-18s survival %.4f  makespan %5d  "
                        "connectors %4d  %7.2f ms%s\n",
                        entry.winner ? '*' : ' ',
                        entry.strategy.c_str(),
                        entry.successProbability, entry.makespan,
                        entry.connectors, entry.wallMillis,
                        entry.cacheHit ? "  (cache hit)" : "");
        else
            std::printf("  %c %-18s %s%s\n",
                        entry.winner ? '*' : ' ',
                        entry.strategy.c_str(),
                        entry.cancelled
                            ? "cancelled"
                            : entry.status.toString().c_str(),
                        entry.cancelled ? " (straggler)" : "");
    }
    if (!race.validationNote.empty())
        std::printf("  %s\n", race.validationNote.c_str());
}

/**
 * The one tail of `compile` and `run`, wherever the report came
 * from: write the -o artifact, then print the report's summary.
 */
int
finish(const Flags &flags, const ClientCompileResult &served)
{
    const CompileReport &report = served.report;
    if (!flags.out.empty()) {
        const Status saved = saveArtifactFile(
            flags.out, encodeCompileReportArtifact(report));
        if (!saved.ok())
            return fail(saved);
    }
    if (flags.quiet)
        return 0;
    if (report.portfolio)
        printPortfolioTable(*report.portfolio);
    const std::string via =
        flags.daemon.empty() ? "" : " via " + flags.daemon;
    std::printf("compiled %s%s: %s\n", report.label.c_str(), via.c_str(),
                served.hotServed  ? "hot cache hit (served raw)"
                : served.cacheHit ? "cache hit (no pass ran)"
                                  : "full pipeline");
    std::printf("%s", report.describeStages().c_str());
    std::printf("  execution time    %8d cycles\n",
                flags.baseline ? report.baselineResult().executionTime()
                               : report.result().executionTime());
    std::printf("  required lifetime %8d cycles\n",
                flags.baseline
                    ? report.baselineResult().requiredLifetime()
                    : report.result().requiredLifetime());
    if (report.streaming.windows > 0)
        std::printf("  streaming         %llu windows, peak "
                    "%llu frontier nodes / %llu pending edges\n",
                    (unsigned long long)report.streaming.windows,
                    (unsigned long long)report.streaming.frontierNodePeak,
                    (unsigned long long)report.streaming.pendingEdgePeak);
    if (report.peakRssBytes > 0)
        std::printf("  peak RSS          %8.1f MiB\n",
                    static_cast<double>(report.peakRssBytes) /
                        (1024.0 * 1024.0));
    if (report.cacheStats) {
        const CacheStats &s = *report.cacheStats;
        std::printf("  cache             %llu hits / %llu misses "
                    "/ %llu evictions\n",
                    (unsigned long long)s.hits,
                    (unsigned long long)s.misses,
                    (unsigned long long)s.evictions);
    }
    for (const std::string &warning : report.warnings)
        std::printf("  warning: %s\n", warning.c_str());
    if (!flags.out.empty()) {
        std::printf("wrote report artifact %s", flags.out.c_str());
        if (!report.executions.empty())
            std::printf(" (%zu execution(s))", report.executions.size());
        std::printf("\n");
    }
    return 0;
}

void
printExecSummary(const ExecResult &result)
{
    std::printf("backend %-11s %d/%d shots, %d thread(s), %.2f ms\n",
                result.backend.c_str(), result.completedShots,
                result.shots, result.threads, result.wallMillis);
    if (result.analyticSuccessProbability >= 0.0) {
        std::printf("  survival rate     %.4f (analytic %.4f)\n",
                    result.survivalRate(),
                    result.analyticSuccessProbability);
        std::printf("  photon storage    max %d cycles, mean %.1f "
                    "cycles\n",
                    result.maxStorageCycles,
                    result.meanStorageCycles);
        return;
    }
    // Top outcomes by frequency (ties broken by bitstring).
    std::vector<std::pair<std::string, std::int64_t>> top(
        result.counts.begin(), result.counts.end());
    std::sort(top.begin(), top.end(),
              [](const auto &a, const auto &b) {
                  return a.second != b.second ? a.second > b.second
                                              : a.first < b.first;
              });
    const std::size_t shown = std::min<std::size_t>(top.size(), 8);
    for (std::size_t i = 0; i < shown; ++i) {
        const auto prob = result.probabilities.find(top[i].first);
        if (prob != result.probabilities.end())
            std::printf("  %-20s %6lld  (exact p %.4f)\n",
                        top[i].first.c_str(),
                        (long long)top[i].second, prob->second);
        else
            std::printf("  %-20s %6lld\n", top[i].first.c_str(),
                        (long long)top[i].second);
    }
    if (top.size() > shown)
        std::printf("  ... %zu more outcome(s)\n", top.size() - shown);
    for (const std::string &note : result.notes)
        std::printf("  note: %s\n", note.c_str());
}

// --- compile / run ---------------------------------------------------------

int
runCompile(const Flags &flags)
{
    const int sources = !flags.family.empty() + !flags.in.empty() +
        !flags.streamFamily.empty();
    if (sources != 1) {
        std::fprintf(stderr,
                     "dcmbqc: compile needs exactly one of --family, "
                     "--in, or --stream-family\n");
        return usage();
    }
    auto request = compileInput(flags);
    if (!request.ok())
        return fail(request.status());
    if (!flags.saveCircuit.empty()) {
        const bool streamed = request->entryPoint() ==
            CompileRequest::EntryPoint::CircuitStream;
        const Status saved = saveArtifactFile(
            flags.saveCircuit,
            encodeCircuitArtifact(streamed
                                      ? request->stream().materialize()
                                      : request->circuit()));
        if (!saved.ok())
            return fail(saved);
        if (!flags.quiet)
            std::printf("wrote circuit artifact %s\n",
                        flags.saveCircuit.c_str());
    }
    auto options = compileOptions(flags, programQubits(*request));
    if (!options.ok())
        return fail(options.status());

    ServiceClient client;
    const Status connected = connectDaemon(client, flags);
    if (!connected.ok())
        return fail(connected);
    auto served = compileJob(flags, *options, *request, client);
    if (!served.ok())
        return fail(served.status());
    return finish(flags, *served);
}

int
runRun(const Flags &flags)
{
    if (flags.file.empty()) {
        std::fprintf(stderr, "dcmbqc: run needs an artifact file\n");
        return usage();
    }
    auto request = runInput(flags.file);
    if (!request.ok())
        return fail(request.status());
    auto options = compileOptions(flags, programQubits(*request));
    if (!options.ok())
        return fail(options.status());
    // The daemon's baseline jobs are compile-only by protocol
    // contract; a baseline execution must run in-process.
    if (flags.baseline && !flags.daemon.empty())
        return fail(Status::invalidArgument(
            "run --baseline executes in-process; drop --daemon"));

    ExecOptions exec;
    exec.shots = flags.shots;
    exec.numThreads = flags.threads;
    exec.applyByproducts = !flags.raw;
    exec.lossModel.cyclePeriodNs = flags.cycleNs;
    exec.noise = options->noiseConfig();
    // The compile seed doubles as the execution seed unless
    // overridden (clamped into the signed domain validate() checks).
    exec.seed = flags.execSeed.value_or(
        static_cast<std::int64_t>(flags.seed & 0x7fffffffffffffffull));

    // In-process, one compile feeds every backend. On the daemon,
    // each backend is its own compile+execute job; only the first
    // pays the pipeline, the rest hit the daemon's shared cache.
    ServiceClient client;
    const Status connected = connectDaemon(client, flags);
    if (!connected.ok())
        return fail(connected);
    std::optional<ClientCompileResult> served;
    std::optional<ExecProgram> program;
    if (!client.connected()) {
        auto compiled = compileJob(flags, *options, *request, client);
        if (!compiled.ok())
            return fail(compiled.status());
        served = std::move(compiled.value());
        program = ExecProgram::fromRequest(*request);
        if (flags.baseline)
            program->withBaseline(served->report.baselineResult());
        else
            program->withSchedule(served->report.result());
    }
    const CompilerDriver driver(*options);
    const auto execute = [&]() -> Status {
        if (program) {
            auto result = driver.execute(*program, exec);
            if (!result.ok())
                return result.status();
            served->report.addExecution(std::move(result.value()));
            return Status();
        }
        auto job = compileJob(flags, *options, *request, client, {exec},
                              /*progress=*/!served);
        if (!job.ok())
            return job.status();
        if (!served)
            served = std::move(job.value());
        else
            for (ExecResult &result : job->report.executions)
                served->report.addExecution(std::move(result));
        return Status();
    };

    // Under "all", a backend that cannot run *this* program
    // (non-Clifford pattern, too many wires) is reported and
    // skipped; an explicitly requested backend is fatal.
    const bool run_all = flags.backend == "all";
    for (const std::string &name :
         run_all ? backendNames() : std::vector<std::string>{flags.backend}) {
        exec.backend = name;
        const std::size_t before =
            served ? served->report.executions.size() : 0;
        const Status status = execute();
        if (run_all && status.code() == StatusCode::FailedPrecondition) {
            if (!flags.quiet)
                std::printf("backend %-11s skipped: %s\n", name.c_str(),
                            status.message().c_str());
            continue;
        }
        if (!status.ok())
            return fail(status);
        const std::vector<ExecResult> &done = served->report.executions;
        for (std::size_t e = before; e < done.size() && !flags.quiet; ++e)
            printExecSummary(done[e]);
    }
    if (!served || served->report.executions.empty())
        return fail(Status::failedPrecondition(
            "no requested backend could execute this program"));
    return finish(flags, *served);
}

// --- inspect / stats -------------------------------------------------------

/** Decode an artifact file and JSON-print its payload. */
int
runInspect(const Flags &flags)
{
    if (flags.file.empty())
        return usage();
    const Status status = visitArtifact(
        flags.file, [](const ArtifactView &, const auto &value) {
            std::printf("%s\n", toJson(value).c_str());
            return Status();
        });
    return status.ok() ? 0 : fail(status);
}

// The kind-specific rows of `dcmbqc stats FILE`; kinds without a
// row set print the envelope rows only.

template <typename T>
void
addStatsRows(TextTable &, const T &)
{
}

void
addStatsRows(TextTable &table, const Circuit &circuit)
{
    table.row().cell("name").cell(circuit.name());
    table.row().cell("qubits").cell(circuit.numQubits());
    table.row()
        .cell("gates")
        .cell(static_cast<long long>(circuit.numGates()));
    table.row()
        .cell("2q gates")
        .cell(static_cast<long long>(circuit.numTwoQubitGates()));
    table.row().cell("depth").cell(circuit.depth());
}

void
addStatsRows(TextTable &table, const Graph &graph)
{
    table.row().cell("nodes").cell(graph.numNodes());
    table.row().cell("edges").cell(graph.numEdges());
}

void
addStatsRows(TextTable &table, const Digraph &digraph)
{
    table.row().cell("nodes").cell(digraph.numNodes());
    table.row()
        .cell("arcs")
        .cell(static_cast<long long>(digraph.numArcs()));
}

void
addStatsRows(TextTable &table, const Pattern &pattern)
{
    table.row().cell("photons").cell(pattern.numNodes());
    table.row().cell("edges").cell(pattern.graph().numEdges());
    table.row().cell("wires").cell(pattern.numWires());
}

void
addStatsRows(TextTable &table, const CompileReport &report)
{
    const bool distributed = report.distributed.has_value();
    table.row().cell("label").cell(report.label);
    table.row()
        .cell("pipeline")
        .cell(distributed ? "distributed" : "baseline");
    table.row()
        .cell("execution time")
        .cell(distributed ? report.result().executionTime()
                          : report.baselineResult().executionTime());
    table.row()
        .cell("required lifetime")
        .cell(distributed ? report.result().requiredLifetime()
                          : report.baselineResult().requiredLifetime());
    table.row()
        .cell("stages")
        .cell(static_cast<long long>(report.stages.size()));
    table.row().cell("total ms").cell(report.totalMillis, 2);
    table.row()
        .cell("executions")
        .cell(static_cast<long long>(report.executions.size()));
    for (const ExecResult &execution : report.executions)
        table.row()
            .cell("  " + execution.backend)
            .cell(std::to_string(execution.completedShots) + "/" +
                  std::to_string(execution.shots) + " shots");
    if (distributed) {
        table.row()
            .cell("connectors")
            .cell(report.result().numConnectors);
        table.row()
            .cell("QPUs")
            .cell(static_cast<int>(report.result().localSchedules.size()));
    }
}

void
addStatsRows(TextTable &table, const ExecResult &result)
{
    table.row().cell("backend").cell(result.backend);
    table.row().cell("label").cell(result.label);
    table.row()
        .cell("shots")
        .cell(std::to_string(result.completedShots) + "/" +
              std::to_string(result.shots));
    table.row().cell("wires").cell(result.numWires);
    table.row()
        .cell("distinct outcomes")
        .cell(static_cast<long long>(result.counts.size()));
    if (result.analyticSuccessProbability >= 0.0) {
        table.row()
            .cell("survival rate")
            .cell(result.survivalRate(), 4);
        table.row()
            .cell("analytic success")
            .cell(result.analyticSuccessProbability, 4);
    }
}

/** `dcmbqc stats --daemon SOCK`: the daemon's serving statistics. */
int
statsDaemon(const std::string &socket_path, bool json)
{
    ServiceClient client;
    Status status = client.connect(socket_path);
    if (!status.ok())
        return fail(status);
    auto stats = client.stats();
    if (!stats.ok())
        return fail(stats.status());
    if (json) {
        std::printf("%s\n", toJson(*stats).c_str());
        return 0;
    }

    const ServiceStats &s = *stats;
    TextTable table({"field", "value"});
    table.row().cell("socket").cell(socket_path);
    table.row()
        .cell("uptime")
        .cell(std::to_string(s.uptimeMillis / 1000) + " s");
    table.row()
        .cell("requests")
        .cell(static_cast<long long>(s.requestsTotal));
    table.row()
        .cell("  compile / execute")
        .cell(std::to_string(s.compileRequests) + " / " +
              std::to_string(s.executeRequests));
    table.row()
        .cell("  succeeded / failed")
        .cell(std::to_string(s.succeeded) + " / " +
              std::to_string(s.failed));
    table.row()
        .cell("  queue-full rejections")
        .cell(static_cast<long long>(s.rejectedQueueFull));
    table.row()
        .cell("  deadline exceeded")
        .cell(static_cast<long long>(s.deadlineExceeded));
    table.row()
        .cell("  cancelled")
        .cell(static_cast<long long>(s.cancelled));
    table.row()
        .cell("cache hit replies")
        .cell(static_cast<long long>(s.cacheHitReplies));
    table.row()
        .cell("  hot (served raw)")
        .cell(static_cast<long long>(s.hotReplies));
    const std::uint64_t lookups = s.cache.hits + s.cache.misses;
    table.row()
        .cell("cache hit rate")
        .cell(lookups > 0 ? static_cast<double>(s.cache.hits) /
                      static_cast<double>(lookups)
                          : 0.0,
              4);
    table.row()
        .cell("cache entries (memory)")
        .cell(static_cast<long long>(s.cacheEntries));
    table.row()
        .cell("cache disk hits/writes")
        .cell(std::to_string(s.cache.diskHits) + " / " +
              std::to_string(s.cache.diskWrites));
    table.row()
        .cell("queue")
        .cell(std::to_string(s.inFlight) + " in flight of " +
              std::to_string(s.queueLimit) + " slots, " +
              std::to_string(s.workers) + " worker(s)");
    table.row().cell("latency p50").cell(s.p50Millis, 2);
    table.row().cell("latency p99").cell(s.p99Millis, 2);
    table.row().cell("latency max").cell(s.maxMillis, 2);
    table.row()
        .cell("draining")
        .cell(s.draining ? "yes" : "no");
    if (s.portfolioRaces > 0) {
        table.row()
            .cell("portfolio races")
            .cell(static_cast<long long>(s.portfolioRaces));
        table.row()
            .cell("  candidates compiled")
            .cell(static_cast<long long>(s.portfolioCandidates));
        table.row()
            .cell("  cancelled early")
            .cell(static_cast<long long>(s.portfolioCancelledEarly));
        for (const ServiceStats::WinnerCount &winner :
             s.portfolioWinners)
            table.row()
                .cell("  wins " + winner.strategy)
                .cell(static_cast<long long>(winner.wins));
    }
    for (const ServiceStats::StageAggregate &stage : s.stages)
        table.row()
            .cell("stage " + stage.pass)
            .cell(std::to_string(stage.count) + " run(s), " +
                  std::to_string(stage.totalMillis) + " ms total");
    std::printf("%s", table.render("daemon stats").c_str());
    return 0;
}

/** `dcmbqc stats --cache-dir DIR`: offline disk-store summary. */
int
statsCacheDir(const std::string &dir)
{
    const DiskStoreStats stats = CompileCache::scanDiskStore(dir);
    TextTable table({"field", "value"});
    table.row().cell("store").cell(dir);
    table.row()
        .cell("entries")
        .cell(static_cast<long long>(stats.entries));
    table.row()
        .cell("total bytes")
        .cell(static_cast<long long>(stats.totalBytes));
    table.row().cell("shard dirs").cell(stats.shardDirs);
    table.row()
        .cell("flat (pre-shard) entries")
        .cell(static_cast<long long>(stats.flatEntries));
    table.row()
        .cell("unreadable entries")
        .cell(static_cast<long long>(stats.unreadable));
    std::printf("%s", table.render("cache store stats").c_str());
    return 0;
}

/**
 * `dcmbqc stats`: a daemon's serving stats, an on-disk cache store,
 * or (the original form) one artifact file.
 */
int
runStats(const Flags &flags)
{
    if (!flags.daemon.empty())
        return statsDaemon(flags.daemon, flags.json);
    if (!flags.cacheDir.empty())
        return statsCacheDir(flags.cacheDir);
    if (flags.file.empty())
        return usage();
    const Status status = visitArtifact(
        flags.file, [&](const ArtifactView &view, const auto &value) {
            TextTable table({"field", "value"});
            table.row().cell("file").cell(flags.file);
            table.row().cell("kind").cell(artifactKindName(view.kind));
            table.row().cell("format version").cell(view.version);
            table.row()
                .cell("payload bytes")
                .cell(static_cast<long long>(view.payloadSize));
            addStatsRows(table, value);
            std::printf("%s", table.render("artifact stats").c_str());
            return Status();
        });
    return status.ok() ? 0 : fail(status);
}

} // namespace

int
main(int argc, char **argv)
{
    static const std::pair<cli::Command, int (*)(const Flags &)>
        commands[] = {{cli::Compile, runCompile},
                      {cli::Run, runRun},
                      {cli::Inspect, runInspect},
                      {cli::Stats, runStats}};
    const std::string name = argc > 1 ? argv[1] : "";
    for (const auto &[command, run] : commands) {
        if (name != cli::commandName(command))
            continue;
        Flags flags;
        if (!cli::parseFlags(command, {argv + 2, argv + argc}, flags))
            return usage();
        return run(flags);
    }
    return usage();
}
