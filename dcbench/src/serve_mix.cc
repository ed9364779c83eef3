/**
 * @file
 * serve_mix: an in-process `ServiceServer` on a socket under the
 * run's work directory, with a disk-tier cache, driven by one
 * closed-loop client (the next request leaves when the previous
 * reply arrived). Per 100 requests: 50 by-key `fetch` and 40
 * probe-first `compileCached` over a hot set of Table II programs,
 * and 10 cold jobs, each with a fresh compile seed, so it gets a new
 * key and pays the full pipeline, a cache insert and a disk write.
 * The only workload for the cache, serialize and service layers, and
 * it puts reads beside writes. compile_s is an in-process cold
 * compile of the hot set, one after every untraced rep, so its
 * samples spread over the whole run.
 */

#include <filesystem>

#include "api/api.hh"
#include "bench.hh"
#include "cache/compile_cache.hh"
#include "checks.hh"
#include "circuit/generators.hh"
#include "serialize/codecs.hh"
#include "service/client.hh"
#include "service/server.hh"
#include "trace.hh"

namespace dcbench
{

using namespace dcmbqc;

namespace
{

/** Requests per rep. */
constexpr int kBatch = 50;

/** The hot set's compile seed, the CLI's default. */
constexpr std::uint64_t kCompileSeed = 1;

enum class Kind { Fetch, Probe, Cold };

struct HotProgram
{
    std::string name;
    CompileRequest request;
    int qubits = 0;
    std::uint64_t key = 0;
    std::uint64_t verifier = 0;

    /** Schedule bytes of the daemon's first (cold) reply. */
    std::vector<std::uint8_t> servedBytes;
};

/** A cold job's identity and reply, re-compiled in-process at the end. */
struct ColdReply
{
    std::size_t program = 0;
    std::uint64_t seed = 0;
    std::vector<std::uint8_t> bytes;
};

class ServeMix final : public Workload
{
  public:
    explicit ServeMix(const Args &args) : args_(args), mix_(args.seed ^ 0x5e7e) {}

    ~ServeMix() override { teardown(); }

    void
    setup(Outcome &outcome) override
    {
        teardown();
        const std::filesystem::path dir =
            std::filesystem::path(args_.workDir) / "serve";
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir / "cache");

        ServiceConfig config;
        config.socketPath = (dir / "s.sock").string();
        config.cacheDir = (dir / "cache").string();
        config.workers = 2;
        server_ = std::make_unique<ServiceServer>(config);
        Status status = server_->start();
        if (status.ok()) {
            client_ = std::make_unique<ServiceClient>();
            status = client_->connect(config.socketPath);
        }
        if (!status.ok()) {
            outcome.fail("serve_mix start: " + status.toString());
            return;
        }

        // Pinned hot set (artifacts of 14-85 KiB); the seed draws the
        // traffic and the cold jobs' compile seeds.
        hot_.clear();
        for (int n : {12, 16}) {
            addHot(makeVqe(n), n);
            addHot(makeQaoaMaxcut(n, 7), n);
            addHot(makeQft(n), n);
            addHot(makeRippleCarryAdder(n), n);
        }
        addHot(makeRippleCarryAdder(36), 36);
        coldSeed_ = SeedRng(args_.seed).next() % 1000000000 + 2;
        // Warm the hot set: one cold daemon compile each, which also
        // lands every artifact in the memory and disk tiers, then one
        // fetch and one probe each to fault in the hot path.
        for (HotProgram &program : hot_) {
            ++outcome.attempted;
            auto reply = client_->compile(job(program, kCompileSeed));
            if (!reply.ok() || !reply->report.distributed) {
                outcome.fail(program.name + " warm-up: " +
                             (reply.ok() ? "no schedule"
                                         : reply.status().toString()));
                continue;
            }
            program.key = reply->report.cacheKey;
            program.verifier = reply->report.cacheVerifier;
            program.servedBytes = scheduleBytes(reply->report);
            (void)client_->fetch(program.key, program.verifier);
            (void)client_->compileCached(job(program, kCompileSeed));
        }
    }

    double
    rep(Tracer *tracer, Outcome &outcome) override
    {
        double total_ms = 0;
        for (int i = 0; i < kBatch; ++i) {
            const int draw = mix_.uniform(0, 99);
            const Kind kind = draw < 50 ? Kind::Fetch
                : draw < 90             ? Kind::Probe
                                        : Kind::Cold;
            const std::size_t index = mix_.next() % hot_.size();
            HotProgram &program = hot_[index];
            const std::uint64_t seed =
                kind == Kind::Cold ? ++coldSeed_ : kCompileSeed;

            ++outcome.attempted;
            if (tracer)
                tracer->beginRequest();
            const auto start = Clock::now();
            Expected<ClientCompileResult> reply = [&] {
                SpanScope span(tracer, "service",
                               kind == Kind::Fetch   ? "fetch"
                                   : kind == Kind::Probe ? "probe"
                                                         : "cold");
                return kind == Kind::Fetch
                    ? client_->fetch(program.key, program.verifier)
                    : client_->compileCached(job(program, seed));
            }();
            const double ms = msSince(start);
            total_ms += ms;
            if (!reply.ok()) {
                outcome.fail(program.name + ": " +
                             reply.status().toString());
                continue;
            }
            if (!tracer) {
                allMs_.push_back(ms);
                (kind == Kind::Cold ? coldMs_ : hitMs_).push_back(ms);
            }
            if (kind != Kind::Cold) {
                const std::string why =
                    checkReplySchedule(reply->report, program.servedBytes);
                if (!why.empty())
                    outcome.fail(program.name + ": " + why);
            } else if (cold_.size() < kVerifiedCold) {
                cold_.push_back({index, seed, scheduleBytes(reply->report)});
            } else if (!reply->report.distributed) {
                outcome.fail(program.name + ": cold reply without schedule");
            }
        }
        if (!tracer)
            compileHotSet(outcome);
        return total_ms;
    }

    void
    finish(Outcome &outcome, Tracer *tracer) override
    {
        // The in-process reference: the first cold compile of the hot
        // set, whose schedule bytes every served reply must equal.
        const std::vector<CompileReport> &reports = reports_;
        std::vector<double> exec_cycles, lifetime_cycles;
        for (std::size_t i = 0; i < hot_.size(); ++i) {
            ++outcome.attempted;
            const std::string why =
                checkReplySchedule(reports[i], hot_[i].servedBytes);
            if (!why.empty()) {
                outcome.fail(hot_[i].name + ": " + why);
                continue;
            }
            exec_cycles.push_back(
                std::max(1, reports[i].result().executionTime()));
            lifetime_cycles.push_back(
                std::max(1, reports[i].result().requiredLifetime()));
        }
        for (const ColdReply &cold : cold_) {
            const HotProgram &program = hot_[cold.program];
            auto report =
                CompilerDriver(cliOptions(4, program.qubits, cold.seed))
                    .compile(program.request);
            const std::string why = report.ok()
                ? checkReplySchedule(*report, cold.bytes)
                : report.status().toString();
            if (!why.empty())
                outcome.fail(program.name + " cold: " + why);
        }
        auto stats = client_ ? client_->stats()
                             : Expected<ServiceStats>(
                                   Status::unavailable("no daemon"));
        ++outcome.attempted;
        if (!stats.ok()) {
            outcome.fail("stats: " + stats.status().toString());
            return;
        }
        if (stats->failed > 0)
            outcome.fail("daemon reports " + std::to_string(stats->failed) +
                         " failed requests");

        if (!tracer) {
            outcome.set("compile_s", median(setMillis_) / 1e3, "s");
            outcome.set("request_ms_p50", median(allMs_), "ms");
            outcome.set("request_ms_p99", quantile(allMs_, 0.99), "ms");
            outcome.set("exec_cycles", geomean(exec_cycles), "cycles");
            outcome.set("lifetime_cycles", geomean(lifetime_cycles),
                        "cycles");
            return;
        }
        outcome.set("service.hit_ms_p50", median(hitMs_), "ms");
        outcome.set("service.hit_ms_p99", quantile(hitMs_, 0.99), "ms");
        outcome.set("service.miss_ms_p50", median(coldMs_), "ms");
        outcome.set("service.server_p50_ms", stats->p50Millis, "ms");
        outcome.set("service.server_p99_ms", stats->p99Millis, "ms");
        outcome.set("service.hot_replies",
                    static_cast<double>(stats->hotReplies), "count");
        const double lookups =
            static_cast<double>(stats->cache.hits + stats->cache.misses);
        outcome.set("cache.hit_ratio",
                    lookups > 0 ? stats->cache.hits / lookups : 0, "ratio");
        outcome.set("cache.disk_writes",
                    static_cast<double>(stats->cache.diskWrites), "count");
        measureInProcess(reports, *tracer, outcome);
    }

  private:
    static constexpr std::size_t kVerifiedCold = 32;

    /**
     * One cold in-process compile of the hot set (no cache), timed;
     * the first one's reports are the reference of the reply checks.
     */
    void
    compileHotSet(Outcome &outcome)
    {
        const bool keep = reports_.empty();
        const auto start = Clock::now();
        std::vector<Expected<CompileReport>> reports;
        for (const HotProgram &program : hot_)
            reports.push_back(CompilerDriver(cliOptions(4, program.qubits,
                                                        kCompileSeed))
                                  .compile(program.request));
        setMillis_.push_back(msSince(start));
        for (std::size_t i = 0; i < reports.size(); ++i) {
            ++outcome.attempted;
            if (!reports[i].ok())
                outcome.fail(hot_[i].name + " in-process: " +
                             reports[i].status().toString());
            if (keep)
                reports_.push_back(reports[i].ok()
                                       ? std::move(reports[i].value())
                                       : CompileReport());
        }
    }

    void
    addHot(Circuit circuit, int qubits)
    {
        const std::string name = circuit.name();
        hot_.push_back(HotProgram{
            name, CompileRequest::fromCircuit(std::move(circuit), name),
            qubits, 0, 0, {}});
    }

    ServiceJob
    job(const HotProgram &program, std::uint64_t seed) const
    {
        ServiceJob job;
        job.request = program.request;
        job.config = *cliOptions(4, program.qubits, seed).build();
        return job;
    }

    /**
     * The layers behind a hit, timed in-process over the hot set: a
     * warm `compile` through an attached cache, and the artifact
     * codec's encode and decode.
     */
    void
    measureInProcess(const std::vector<CompileReport> &reports,
                     Tracer &tracer, Outcome &outcome)
    {
        auto cache = std::make_shared<CompileCache>();
        std::vector<std::unique_ptr<CompilerDriver>> drivers;
        for (const HotProgram &program : hot_) {
            drivers.push_back(std::make_unique<CompilerDriver>(
                cliOptions(4, program.qubits, kCompileSeed).cache(cache)));
            (void)drivers.back()->compile(program.request);
        }
        std::vector<double> warm_ms, encode_ms, decode_ms;
        double kib = 0;
        for (int round = 0; round < 20; ++round) {
            for (std::size_t i = 0; i < hot_.size(); ++i) {
                tracer.beginRequest();
                auto start = Clock::now();
                {
                    SpanScope span(&tracer, "cache", "warm-compile");
                    (void)drivers[i]->compile(hot_[i].request);
                }
                warm_ms.push_back(msSince(start));
                std::vector<std::uint8_t> bytes;
                start = Clock::now();
                {
                    SpanScope span(&tracer, "serialize", "encode");
                    bytes = encodeCompileReportArtifact(reports[i]);
                }
                encode_ms.push_back(msSince(start));
                start = Clock::now();
                bool decoded = false;
                {
                    SpanScope span(&tracer, "serialize", "decode");
                    decoded = decodeCompileReportArtifact(bytes).ok();
                }
                decode_ms.push_back(msSince(start));
                if (!decoded)
                    outcome.fail(hot_[i].name + ": artifact does not decode");
                if (round == 0)
                    kib += bytes.size() / 1024.0 / hot_.size();
            }
        }
        outcome.set("cache.warm_hit_ms", median(warm_ms), "ms");
        outcome.set("serialize.encode_ms", median(encode_ms), "ms");
        outcome.set("serialize.decode_ms", median(decode_ms), "ms");
        outcome.set("serialize.artifact_kib", kib, "KiB");
    }

    void
    teardown()
    {
        if (client_)
            client_->close();
        client_.reset();
        if (server_)
            server_->stop();
        server_.reset();
    }

    const Args &args_;
    SeedRng mix_;
    std::unique_ptr<ServiceServer> server_;
    std::unique_ptr<ServiceClient> client_;
    std::vector<HotProgram> hot_;
    std::uint64_t coldSeed_ = 0;
    std::vector<ColdReply> cold_;
    std::vector<double> allMs_, hitMs_, coldMs_;
    std::vector<double> setMillis_;
    std::vector<CompileReport> reports_;
};

} // namespace

std::unique_ptr<Workload>
makeServeMix(const Args &args)
{
    return std::make_unique<ServeMix>(args);
}

} // namespace dcbench
