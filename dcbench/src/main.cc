/**
 * @file
 * dcbench: the end-to-end benchmark of the DC-MBQC toolchain.
 *
 *   dcbench --workload NAME --seed N --seconds S --trace 0|1
 *           [--work-dir DIR] [--trace-out FILE]
 *
 * Runs the checker self-check, repeats the workload's set-up, then
 * measures reps of the workload until S seconds have passed, checks
 * every output, and prints one JSON object as the last line of
 * stdout. `--trace 0` reports end-to-end metrics; `--trace 1`
 * alternates traced and untraced reps and reports per-layer metrics
 * from the spans, plus the tracing overhead.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hh"
#include "checks.hh"
#include "common/resource.hh"
#include "trace.hh"

using namespace dcbench;

namespace
{

/** Set-up repetitions; setup_s is their median. */
constexpr int kSetupReps = 7;

/** Measured reps run at least this often, whatever --seconds says. */
constexpr int kMinReps = 3;

int
usage()
{
    std::fprintf(stderr,
                 "usage: dcbench --workload compile_paper|compile_lattice|"
                 "run_clifford|serve_mix --seed N --seconds S --trace 0|1 "
                 "[--work-dir DIR] [--trace-out FILE]\n");
    return 2;
}

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *value = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            args.workload = value;
        } else if (key == "--seed") {
            args.seed = std::strtoull(value, &end, 10);
            if (*end != '\0')
                return false;
        } else if (key == "--seconds") {
            args.seconds = std::strtod(value, &end);
            if (*end != '\0' || !(args.seconds > 0))
                return false;
        } else if (key == "--trace") {
            args.trace = std::strcmp(value, "1") == 0;
        } else if (key == "--work-dir") {
            args.workDir = value;
        } else if (key == "--trace-out") {
            args.traceOut = value;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && !args.workload.empty();
}

std::unique_ptr<Workload>
makeWorkload(const Args &args)
{
    if (args.workload == "compile_paper")
        return makeCompilePaper(args);
    if (args.workload == "compile_lattice")
        return makeCompileLattice(args);
    if (args.workload == "run_clifford")
        return makeRunClifford(args);
    if (args.workload == "serve_mix")
        return makeServeMix(args);
    return nullptr;
}

void
printResult(const Outcome &outcome)
{
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                outcome.failed == 0 ? "true" : "false",
                outcome.attempted, outcome.failed);
    bool first = true;
    for (const auto &[name, metric] : outcome.metrics) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", name.c_str(),
                    std::isfinite(metric.value) ? metric.value : 0.0,
                    metric.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args))
        return usage();
    std::unique_ptr<Workload> workload = makeWorkload(args);
    if (!workload)
        return usage();

    Outcome outcome;
    ++outcome.attempted;
    const std::string broken = selfCheck();
    if (!broken.empty())
        outcome.fail("checker self-check: " + broken);

    std::vector<double> setup_ms;
    for (int i = 0; i < kSetupReps; ++i) {
        const long long failed = outcome.failed;
        const auto start = Clock::now();
        workload->setup(outcome);
        setup_ms.push_back(msSince(start));
        if (outcome.failed > failed) {
            // Nothing can be measured on a workload that did not start.
            for (const std::string &why : outcome.failures)
                std::fprintf(stderr, "dcbench: FAILED %s\n", why.c_str());
            return 1;
        }
    }

    // Traced runs alternate traced and untraced reps so the overhead
    // is measured on the same inputs in the same process; the first
    // rep (cold, and the one that runs the checks) is left out.
    Tracer tracer;
    std::vector<double> traced_ms, untraced_ms;
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(args.seconds));
    for (int rep = 0;
         Clock::now() < deadline || rep < kMinReps; ++rep) {
        const bool traced = args.trace && rep % 2 == 1;
        const double ms =
            workload->rep(traced ? &tracer : nullptr, outcome);
        if (rep > 0)
            (traced ? traced_ms : untraced_ms).push_back(ms);
    }

    workload->finish(outcome, args.trace ? &tracer : nullptr);

    if (args.trace) {
        const double plain = median(untraced_ms);
        outcome.set("trace.overhead_pct",
                    plain > 0 ? 100.0 * (median(traced_ms) - plain) / plain
                              : 0.0,
                    "%");
        outcome.set("trace.spans", static_cast<double>(tracer.size()),
                    "count");
        if (!args.traceOut.empty() && !tracer.writeChrome(args.traceOut))
            std::fprintf(stderr, "dcbench: cannot write %s\n",
                         args.traceOut.c_str());
    } else {
        outcome.set("setup_s", median(setup_ms) / 1e3, "s");
        outcome.set("peak_rss_mib",
                    dcmbqc::peakRssBytes() / (1024.0 * 1024.0), "MiB");
        outcome.set("ok_ratio",
                    outcome.attempted > 0
                        ? 1.0 - static_cast<double>(outcome.failed) /
                              outcome.attempted
                        : 0.0,
                    "ratio");
    }
    for (const std::string &why : outcome.failures)
        std::fprintf(stderr, "dcbench: FAILED %s\n", why.c_str());
    std::fflush(stderr);
    printResult(outcome);
    return 0;
}
