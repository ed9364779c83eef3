/**
 * @file
 * run_clifford: seeded random Clifford circuits compiled at the CLI
 * defaults and executed on every backend that fits them, the
 * `dcmbqc run --backend all` path. Twelve 10-12 qubit circuits run on
 * all four backends (the dense statevector fits); four 48-qubit
 * circuits run on stabilizer, schedule and mc-loss. The circuits are
 * pinned and the seed draws each request's sampling seed, so the
 * compiled schedules stay fixed while the sampled outcomes (and the
 * shot-tree paths they take) change. Execution
 * dominates and the compile is a few ms, so simulation-kernel and
 * shot-tree changes show here and nowhere else. compile_s times the
 * compile alone: a few cold compiles of the circuit set after every
 * untraced rep, so its samples spread over the whole run.
 */

#include <algorithm>
#include <thread>

#include "api/api.hh"
#include "bench.hh"
#include "checks.hh"
#include "circuit/generators.hh"
#include "mbqc/dependency.hh"
#include "trace.hh"

namespace dcbench
{

using namespace dcmbqc;

namespace
{

const char *const kBackends[] = {"statevector", "stabilizer", "schedule",
                                 "mc-loss"};

/** Cold compiles of the circuit set after each untraced rep. */
constexpr int kCompileRounds = 4;

/** Shots per request; a rep runs each backend for ~0.2-0.5 s. */
int
shotsFor(const std::string &backend)
{
    if (backend == "statevector")
        return 16;
    if (backend == "mc-loss")
        return 5000;
    return 64;
}

struct RunJob
{
    Circuit circuit;
    std::optional<CompileRequest> request;
    CompileOptions options;
    std::vector<ExecOptions> backends;
    std::unique_ptr<CompilerDriver> plain;
    std::unique_ptr<CompilerDriver> observed;

    /** Outcome counts of the first rep; later reps must repeat them. */
    std::vector<std::map<std::string, std::int64_t>> firstCounts;

    /** Wall-clock of each untraced request, ms. */
    std::vector<double> ms;
};

class RunClifford final : public Workload
{
  public:
    explicit RunClifford(const Args &args) : args_(args) {}

    void
    setup(Outcome &) override
    {
        jobs_.clear();
        SeedRng rng(args_.seed);
        const int threads = static_cast<int>(
            std::min(4u, std::max(1u, std::thread::hardware_concurrency())));
        for (int qubits : {10, 11, 12, 48, 10, 11, 12, 48, 10, 11, 12, 48,
                           10, 11, 12, 48}) {
            // Pinned circuits (generator seeds 1..16, the CLI's gate
            // count); the seed draws the sampling seeds.
            RunJob job{makeRandomCliffordCircuit(qubits, 5 * qubits,
                                                 jobs_.size() + 1),
                       std::nullopt, cliOptions(4, qubits, 1), {}, nullptr,
                       nullptr, {}, {}};
            job.request = CompileRequest::fromCircuit(job.circuit);
            const std::int64_t exec_seed =
                static_cast<std::int64_t>(rng.next() >> 2);
            for (const char *backend : kBackends) {
                if (qubits > 12 && std::string(backend) == "statevector")
                    continue;
                ExecOptions exec;
                exec.backend = backend;
                exec.shots = shotsFor(backend);
                exec.seed = exec_seed;
                exec.numThreads = threads;
                job.backends.push_back(exec);
            }
            job.plain = std::make_unique<CompilerDriver>(job.options);
            jobs_.push_back(std::move(job));
        }
        // Warm the compile and shot thread pools and the SIMD kernel
        // dispatch before anything is timed: every job at 1/16 of its
        // shots.
        for (const RunJob &job : jobs_) {
            std::vector<ExecOptions> warm = job.backends;
            for (ExecOptions &exec : warm)
                exec.shots = std::max(1, exec.shots / 16);
            (void)job.plain->compileAndExecute(*job.request, warm);
        }
    }

    double
    rep(Tracer *tracer, Outcome &outcome) override
    {
        if (tracer && !observer_)
            observer_ = std::make_unique<TraceObserver>(*tracer);
        const std::size_t mark = tracer ? tracer->size() : 0;
        double total_ms = 0;
        for (RunJob &job : jobs_) {
            ++outcome.attempted;
            const auto start = Clock::now();
            Expected<CompileReport> report =
                tracer ? runTraced(job, *tracer)
                       : job.plain->compileAndExecute(*job.request,
                                                      job.backends);
            const double ms = msSince(start);
            total_ms += ms;
            if (!report.ok()) {
                outcome.fail(job.circuit.name() + ": " +
                             report.status().toString());
                continue;
            }
            if (!tracer)
                job.ms.push_back(ms);
            inspect(job, *report, outcome);
        }
        if (tracer)
            tracedSelf_.push_back(tracer->selfMillis(mark));
        else
            compileRounds(outcome);
        return total_ms;
    }

    void
    finish(Outcome &outcome, Tracer *tracer) override
    {
        if (!tracer) {
            // A request's latency is its median over the reps.
            std::vector<double> request_ms;
            for (const RunJob &job : jobs_)
                request_ms.push_back(median(job.ms));
            outcome.set("compile_s", median(compileMs_) / 1e3, "s");
            outcome.set("request_ms_p50", median(request_ms), "ms");
            outcome.set("request_ms_p99", quantile(request_ms, 0.99),
                        "ms");
            outcome.set("exec_cycles", geomean(execCycles_), "cycles");
            outcome.set("lifetime_cycles", geomean(lifetimeCycles_),
                        "cycles");
            return;
        }
        setPassLayerMetrics(outcome, tracedSelf_);
        std::vector<double> compile_ms;
        for (const LayerMillis &rep : tracedSelf_) {
            double ms = 0;
            for (const auto &[layer, self] : rep)
                if (layer.rfind("execute.", 0) != 0)
                    ms += self;
            compile_ms.push_back(ms);
        }
        outcome.set("execute.compile_ms", median(compile_ms), "ms");
        for (const char *backend : kBackends) {
            const std::string layer = std::string("execute.") + backend;
            const double ms = medianLayer(tracedSelf_, layer);
            outcome.set(layer + ".ms", ms, "ms");
            outcome.set(layer + ".shots_per_s",
                        ms > 0 ? shotsPerSet(backend) / (ms / 1e3) : 0,
                        "1/s");
        }
    }

  private:
    /**
     * The compile is a few ms of each request; time it on its own,
     * cold, more often than the reps alone would.
     */
    void
    compileRounds(Outcome &outcome)
    {
        for (int round = 0; round < kCompileRounds; ++round) {
            std::vector<Expected<CompileReport>> reports;
            const auto start = Clock::now();
            for (const RunJob &job : jobs_)
                reports.push_back(job.plain->compile(*job.request));
            compileMs_.push_back(msSince(start));
            for (std::size_t i = 0; i < reports.size(); ++i) {
                ++outcome.attempted;
                if (!reports[i].ok())
                    outcome.fail(jobs_[i].circuit.name() + " compile: " +
                                 reports[i].status().toString());
            }
        }
    }

    /**
     * compileAndExecute split into its public parts so each call is
     * a span: the compile (pass spans inside), then one
     * executeProgram per backend on the compiled program.
     */
    Expected<CompileReport>
    runTraced(RunJob &job, Tracer &tracer)
    {
        if (!job.observed) {
            job.observed = std::make_unique<CompilerDriver>(job.options);
            job.observed->addObserver(observer_.get());
        }
        tracer.beginRequest();
        SpanScope request_span(&tracer, "run", job.circuit.name());
        Expected<CompileReport> report = [&] {
            SpanScope span(&tracer, "compile", job.circuit.name());
            return job.observed->compile(*job.request);
        }();
        if (!report.ok())
            return report;
        ExecProgram program =
            ExecProgram::fromPattern(*report->pattern, job.circuit.name());
        program.withSchedule(report->result());
        for (const ExecOptions &exec : job.backends) {
            SpanScope span(&tracer, "execute." + exec.backend,
                           exec.backend);
            auto result = executeProgram(program, exec);
            if (!result.ok())
                return result.status();
            report->addExecution(std::move(result.value()));
        }
        return report;
    }

    double
    shotsPerSet(const std::string &backend) const
    {
        double shots = 0;
        for (const RunJob &job : jobs_)
            for (const ExecOptions &exec : job.backends)
                if (exec.backend == backend)
                    shots += exec.shots;
        return shots;
    }

    /** Checks on the first rep; later reps must repeat its outcomes. */
    void
    inspect(RunJob &job, const CompileReport &report, Outcome &outcome)
    {
        if (report.executions.size() != job.backends.size()) {
            outcome.fail(job.circuit.name() + ": missing executions");
            return;
        }
        if (!job.firstCounts.empty()) {
            for (std::size_t i = 0; i < report.executions.size(); ++i)
                if (report.executions[i].counts != job.firstCounts[i])
                    outcome.fail(job.circuit.name() + "/" +
                                 report.executions[i].backend +
                                 ": outcomes differ between reps");
            return;
        }
        for (const ExecResult &result : report.executions)
            job.firstCounts.push_back(result.counts);

        const Digraph deps = realTimeDependencyGraph(*report.pattern);
        std::string why = checkDistributed(
            report, *job.options.build(), report.pattern->graph(), deps);
        if (!why.empty())
            outcome.fail(job.circuit.name() + ": " + why);
        execCycles_.push_back(std::max(1, report.result().executionTime()));
        lifetimeCycles_.push_back(
            std::max(1, report.result().requiredLifetime()));
        const bool dense = job.circuit.numQubits() <= 12;
        for (const ExecResult &result : report.executions) {
            if (result.backend == "mc-loss")
                why = checkLossSurvival(result);
            else if (dense)
                why = checkOutcomesDense(job.circuit, result);
            else
                why = checkOutcomesTableau(job.circuit, result, 256);
            if (!why.empty())
                outcome.fail(job.circuit.name() + ": " + why);
        }
    }

    const Args &args_;
    std::vector<RunJob> jobs_;
    std::unique_ptr<TraceObserver> observer_;
    std::vector<double> compileMs_;
    std::vector<double> execCycles_, lifetimeCycles_;
    std::vector<LayerMillis> tracedSelf_;
};

} // namespace

std::unique_ptr<Workload>
makeRunClifford(const Args &args)
{
    return std::make_unique<RunClifford>(args);
}

} // namespace dcbench
