/**
 * @file
 * Shared plumbing of the dcbench workloads: command-line arguments,
 * the per-run outcome (attempted/failed counts plus named metrics),
 * seeded input draws, and the order statistics every timing is
 * reported with.
 */

#ifndef DCBENCH_BENCH_HH
#define DCBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/options.hh"

namespace dcbench
{

class Tracer;

using Clock = std::chrono::steady_clock;

/** Milliseconds elapsed since `start`. */
double msSince(Clock::time_point start);

/** Parsed command line of the benchmark binary. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;

    /** Directory for run-local files (sockets, cache dirs). */
    std::string workDir = ".";

    /** Chrome trace-event JSON output of a traced run ("" = none). */
    std::string traceOut;
};

/** One reported metric value with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/**
 * What one run learned: how many operations it attempted, which of
 * them failed (errors and failed correctness checks alike), and the
 * metrics it reports.
 */
struct Outcome
{
    long long attempted = 0;
    long long failed = 0;
    std::vector<std::string> failures;
    std::map<std::string, Metric> metrics;

    /** Count one failed operation; `why` goes to stderr. */
    void fail(const std::string &why);

    void set(const std::string &name, double value,
             const std::string &unit);
};

/**
 * SplitMix64 stream: the benchmark's own input generator, so the
 * inputs depend on `--seed` alone and never on library internals.
 */
class SeedRng
{
  public:
    explicit SeedRng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next();

    /** Uniform integer in [lo, hi]. */
    int uniform(int lo, int hi);

  private:
    std::uint64_t state_;
};

/** Median of `values` (0 when empty). */
double median(std::vector<double> values);

/** Nearest-rank quantile, q in [0, 1] (0 when empty). */
double quantile(std::vector<double> values, double q);

/** Geometric mean of positive values (0 when empty). */
double geomean(const std::vector<double> &values);

/**
 * The options `dcmbqc compile` runs at by default, for `qpus` QPUs
 * and a `qubits`-qubit input: kmax 4, the `gridSizeForQubits` grid,
 * Star5 resource states, BDIR on and compile seed `seed`.
 */
dcmbqc::CompileOptions cliOptions(int qpus, int qubits,
                                  std::uint64_t seed);

/**
 * One workload: `setup` prepares inputs and warms the process (it is
 * timed and repeated); `rep` runs one unit of measured work, traced
 * when `tracer` is non-null, and returns its wall-clock in ms;
 * `finish` runs the remaining checks and fills the end-to-end metrics,
 * or the per-layer ones when `tracer` is non-null.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual void setup(Outcome &outcome) = 0;

    virtual double rep(Tracer *tracer, Outcome &outcome) = 0;

    virtual void finish(Outcome &outcome, Tracer *tracer) = 0;
};

std::unique_ptr<Workload> makeCompilePaper(const Args &args);
std::unique_ptr<Workload> makeCompileLattice(const Args &args);
std::unique_ptr<Workload> makeRunClifford(const Args &args);
std::unique_ptr<Workload> makeServeMix(const Args &args);

} // namespace dcbench

#endif // DCBENCH_BENCH_HH
