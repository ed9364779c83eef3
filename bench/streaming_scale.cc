/**
 * @file
 * Streaming-compilation scale harness: compiles the huge-circuit
 * generator families through the windowed front end and reports
 * throughput (gates/s), wall-clock, process peak RSS, and the
 * streaming high-water marks (frontier nodes, pending edges,
 * resident sync slots) that bound live intermediate state by the
 * circuit's width rather than its length. The final stage compiles
 * a single graph-state instance whose size is taken from argv
 * (default 500x500; CI passes 1000x1000 for the million-qubit run
 * under an address-space ulimit). The harness exits nonzero if any
 * frontier high-water mark exceeds the qubit count — the
 * width-not-length property that makes million-qubit inputs
 * compile in bounded memory at all. A grid-scaling stage compiles
 * the 100x100 graph state with BDIR on at per-QPU grids 25, 49, 99
 * and 199 (199 is the CLI default), then the 200x200 graph state at
 * its CLI default grid 399, and reports per-stage milliseconds, the
 * view that shows PlaceLocal's routing cost as the grid grows.
 * Results are mirrored to BENCH_streaming.json.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "api/api.hh"
#include "bench/bench_json.hh"
#include "circuit/circuit_stream.hh"
#include "circuit/huge_generators.hh"
#include "common/resource.hh"
#include "common/table.hh"
#include "photonic/grid.hh"
#include "serialize/json.hh"

using namespace dcmbqc;
using namespace dcmbqc::bench;

namespace
{

constexpr int kWindow = 4096;

struct Measurement
{
    std::string name;
    int grid = 0;
    bool bdir = false;
    unsigned long long qubits = 0;
    unsigned long long gates = 0;
    double wallMs = 0.0;
    double gatesPerSecond = 0.0;
    StreamStats streaming;
    unsigned long long peakRssBytes = 0;
    std::vector<StageReport> stages;
};

[[noreturn]] void
fail(const std::string &message)
{
    std::fprintf(stderr, "streaming_scale: %s\n", message.c_str());
    std::exit(1);
}

/** One streamed compile of `stream` (bdir off unless asked). */
Measurement
measure(const std::shared_ptr<CircuitStream> &stream, int num_qpus,
        int grid_size, bool bdir = false)
{
    Measurement m;
    m.name = stream->name();
    m.grid = grid_size;
    m.bdir = bdir;
    m.qubits = static_cast<unsigned long long>(stream->numQubits());
    m.gates = stream->totalGates();

    CompileOptions options;
    options.numQpus(num_qpus)
        .gridSize(grid_size)
        .seed(1)
        .useBdir(bdir)
        .window(kWindow);
    const auto start = std::chrono::steady_clock::now();
    auto report = CompilerDriver(options).compile(
        CompileRequest::fromCircuitStream(stream));
    m.wallMs = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start)
                   .count();
    if (!report.ok())
        fail(m.name + ": " + report.status().toString());
    m.gatesPerSecond =
        m.wallMs > 0.0 ? 1e3 * (double)m.gates / m.wallMs : 0.0;
    m.streaming = report->streaming;
    m.peakRssBytes = report->peakRssBytes;
    m.stages = report->stages;
    return m;
}

void
appendJson(JsonWriter &json, const Measurement &m)
{
    json.beginObject();
    json.key("name").value(m.name);
    json.key("qubits").value(m.qubits);
    json.key("gates").value(m.gates);
    json.key("grid").value(m.grid);
    json.key("bdir").value(m.bdir);
    json.key("window").value(kWindow);
    json.key("wallMs").value(m.wallMs);
    json.key("gatesPerSecond").value(m.gatesPerSecond);
    json.key("windows").value(
        (unsigned long long)m.streaming.windows);
    json.key("frontierNodePeak")
        .value((unsigned long long)m.streaming.frontierNodePeak);
    json.key("pendingEdgePeak")
        .value((unsigned long long)m.streaming.pendingEdgePeak);
    json.key("schedulerLivePeak")
        .value((unsigned long long)m.streaming.schedulerLivePeak);
    json.key("segmentsEmitted")
        .value((unsigned long long)m.streaming.segmentsEmitted);
    json.key("peakRssBytes").value(m.peakRssBytes);
    json.key("stages").beginArray();
    for (const StageReport &stage : m.stages) {
        json.beginObject();
        json.key("pass").value(stage.pass);
        json.key("millis").value(stage.millis);
        json.endObject();
    }
    json.endArray();
    json.endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    int rows = 500;
    int cols = 500;
    if (argc == 3) {
        rows = std::atoi(argv[1]);
        cols = std::atoi(argv[2]);
        if (rows < 2 || cols < 2)
            fail("usage: streaming_scale [rows cols]");
    } else if (argc != 1) {
        fail("usage: streaming_scale [rows cols]");
    }

    // Family sweep at a fixed moderate size: the per-family
    // throughput and high-water marks CI diffs across commits.
    std::vector<Measurement> families;
    families.push_back(
        measure(makeGraphStateStream(100, 100), 4, 7));
    families.push_back(measure(makeDeepQaoaStream(512, 24), 4, 7));
    families.push_back(
        measure(makeRandomCliffordTStream(512, 100000), 4, 7));

    TextTable table({"program", "qubits", "gates", "wall ms",
                     "gates/s", "windows", "frontier", "pending",
                     "sched live", "peak RSS MiB"});
    for (const Measurement &m : families)
        table.row()
            .cell(m.name)
            .cell((long long)m.qubits)
            .cell((long long)m.gates)
            .cell(m.wallMs, 0)
            .cell(m.gatesPerSecond, 0)
            .cell((long long)m.streaming.windows)
            .cell((long long)m.streaming.frontierNodePeak)
            .cell((long long)m.streaming.pendingEdgePeak)
            .cell((long long)m.streaming.schedulerLivePeak)
            .cell((long long)(m.peakRssBytes >> 20));
    std::printf("%s",
                table.render("streaming compile, window 4096")
                    .c_str());

    // The deep-QAOA family is where streaming shines: length >>
    // width, so the frontier (one open wire per qubit) must stay at
    // the qubit count while the gate count is ~50x larger. Gate on
    // that — a frontier that tracks gates means the settled-prefix
    // emission regressed into buffering the whole program.
    const Measurement &deep = families[1];
    if (deep.streaming.frontierNodePeak > deep.qubits)
        fail("deep-QAOA frontier high-water mark " +
             std::to_string(deep.streaming.frontierNodePeak) +
             " exceeds the qubit count " +
             std::to_string(deep.qubits) +
             " — live state grows with circuit length");

    // Grid scaling: the 100x100 graph state under the CLI's defaults
    // (BDIR on) at growing per-QPU grids, 199 being what
    // gridSizeForQubits picks for it; then 200x200 at its default 399.
    std::vector<Measurement> grids;
    for (int grid : {25, 49, 99, 199})
        grids.push_back(
            measure(makeGraphStateStream(100, 100), 4, grid, true));
    grids.push_back(measure(makeGraphStateStream(200, 200), 4,
                            gridSizeForQubits(200 * 200), true));
    std::vector<std::string> grid_headers = {"program", "grid", "wall ms"};
    for (const StageReport &stage : grids.front().stages)
        grid_headers.push_back(stage.pass);
    TextTable grid_table(grid_headers);
    for (const Measurement &m : grids) {
        grid_table.row().cell(m.name).cell(m.grid).cell(m.wallMs, 0);
        for (const StageReport &stage : m.stages)
            grid_table.cell(stage.millis, 1);
    }
    std::printf("%s",
                grid_table
                    .render("graph-state per-stage ms by grid, BDIR on")
                    .c_str());

    // Scale stage: one wide graph state (CI passes 1000 1000 for
    // the million-qubit run under an address-space ulimit).
    const Measurement scale =
        measure(makeGraphStateStream(rows, cols), 4, 7);
    std::printf("scale %s: %llu qubits, %llu gates, %.0f ms, "
                "%.0f gates/s, frontier peak %llu, peak RSS "
                "%llu MiB\n",
                scale.name.c_str(), scale.qubits, scale.gates,
                scale.wallMs, scale.gatesPerSecond,
                (unsigned long long)scale.streaming.frontierNodePeak,
                scale.peakRssBytes >> 20);
    if (scale.streaming.windows < 2)
        fail("scale run did not stream (fewer than 2 windows)");
    if (scale.streaming.frontierNodePeak > scale.qubits)
        fail("scale frontier high-water mark " +
             std::to_string(scale.streaming.frontierNodePeak) +
             " exceeds the qubit count " +
             std::to_string(scale.qubits) +
             " — live state grows with circuit length");

    JsonWriter json;
    json.beginObject();
    json.key("bench").value("streaming_scale");
    json.key("families").beginArray();
    for (const Measurement &m : families)
        appendJson(json, m);
    json.endArray();
    json.key("gridScaling").beginArray();
    for (const Measurement &m : grids)
        appendJson(json, m);
    json.endArray();
    json.key("scale");
    appendJson(json, scale);
    json.endObject();
    writeBenchJson("streaming", json.take());
    return 0;
}
