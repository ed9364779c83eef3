/**
 * @file
 * End-to-end tests of the dcmbqcd compile service: a real
 * ServiceServer on a Unix-domain socket driven through ServiceClient.
 * Covers result parity with the in-process driver, the hot-cache and
 * probe/fetch fast paths, streamed progress, execution jobs,
 * concurrent clients getting bit-identical schedules, admission
 * control under a burst, deadline enforcement, and graceful drain.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hh"
#include "circuit/generators.hh"
#include "service/admission.hh"
#include "service/client.hh"
#include "service/server.hh"

namespace dcmbqc
{
namespace
{

/** A short, unique socket path (sun_path caps at ~107 bytes). */
std::string
testSocketPath(const char *tag)
{
    static std::atomic<int> counter{0};
    return "/tmp/dcmbqc-test-" +
        std::to_string(static_cast<long>(::getpid())) + "-" + tag +
        "-" + std::to_string(counter.fetch_add(1)) + ".sock";
}

void
expectSameDistributedResult(const DcMbqcResult &a,
                            const DcMbqcResult &b)
{
    EXPECT_EQ(a.partition.assignment(), b.partition.assignment());
    EXPECT_EQ(a.schedule.mainStart, b.schedule.mainStart);
    EXPECT_EQ(a.schedule.syncStart, b.schedule.syncStart);
    EXPECT_EQ(a.schedule.makespan, b.schedule.makespan);
    EXPECT_EQ(a.metrics.tauLocal, b.metrics.tauLocal);
    EXPECT_EQ(a.metrics.tauRemote, b.metrics.tauRemote);
    EXPECT_EQ(a.numConnectors, b.numConnectors);
    ASSERT_EQ(a.localSchedules.size(), b.localSchedules.size());
    for (std::size_t i = 0; i < a.localSchedules.size(); ++i) {
        EXPECT_EQ(a.localSchedules[i].nodeLayer,
                  b.localSchedules[i].nodeLayer);
        EXPECT_EQ(a.localSchedules[i].edgeFusions,
                  b.localSchedules[i].edgeFusions);
        EXPECT_EQ(a.localSchedules[i].routingFusions,
                  b.localSchedules[i].routingFusions);
    }
}

ServiceJob
qftJob(int qubits, const std::string &label)
{
    ServiceJob job;
    job.request = CompileRequest::fromCircuit(makeQft(qubits), label);
    job.config.numQpus = 2;
    job.config.grid.size = 7;
    return job;
}

/** A running server + connected client, torn down in order. */
struct Harness
{
    explicit Harness(ServiceConfig config)
        : server(std::move(config))
    {
        const Status up = server.start();
        EXPECT_TRUE(up.ok()) << up.toString();
        const Status connected =
            client.connect(server.socketPath());
        EXPECT_TRUE(connected.ok()) << connected.toString();
    }

    ~Harness()
    {
        client.close();
        server.stop();
    }

    ServiceServer server;
    ServiceClient client;
};

ServiceConfig
basicConfig(const char *tag)
{
    ServiceConfig config;
    config.socketPath = testSocketPath(tag);
    config.workers = 2;
    return config;
}

TEST(ServiceServerApi, CompileMatchesInProcessDriver)
{
    Harness h(basicConfig("parity"));
    const ServiceJob job = qftJob(6, "qft-6");

    auto remote = h.client.compile(job);
    ASSERT_TRUE(remote.ok()) << remote.status().toString();
    EXPECT_FALSE(remote->cacheHit);
    EXPECT_FALSE(remote->hotServed);
    EXPECT_EQ(remote->report.label, "qft-6");
    EXPECT_NE(remote->cacheKey, 0u);

    const CompilerDriver local(CompileOptions::fromConfig(job.config));
    auto in_process = local.compile(*job.request);
    ASSERT_TRUE(in_process.ok()) << in_process.status().toString();
    expectSameDistributedResult(in_process->result(),
                                remote->report.result());
}

TEST(ServiceServerApi, SecondCompileIsHotServed)
{
    Harness h(basicConfig("hot"));
    const ServiceJob job = qftJob(6, "hot");

    auto miss = h.client.compile(job);
    ASSERT_TRUE(miss.ok()) << miss.status().toString();
    EXPECT_FALSE(miss->hotServed);

    auto hit = h.client.compile(job);
    ASSERT_TRUE(hit.ok()) << hit.status().toString();
    EXPECT_TRUE(hit->cacheHit);
    EXPECT_TRUE(hit->hotServed);
    EXPECT_EQ(hit->cacheKey, miss->cacheKey);
    expectSameDistributedResult(miss->report.result(),
                                hit->report.result());
    // The hot replay still carries the lowered pattern (zero
    // re-lowering on the client side).
    EXPECT_TRUE(hit->report.pattern.has_value());

    const ServiceStats stats = h.server.statsSnapshot();
    EXPECT_EQ(stats.compileRequests, 2u);
    EXPECT_EQ(stats.hotReplies, 1u);
    EXPECT_EQ(stats.cacheHitReplies, 1u);
    EXPECT_EQ(stats.succeeded, 2u);
}

TEST(ServiceServerApi, ProbeFastPathServesWarmJobs)
{
    Harness h(basicConfig("probe"));
    const ServiceJob job = qftJob(6, "probe");

    // Cold: the probe misses, the client falls back to a full
    // compile in the same call.
    auto cold = h.client.compileCached(job);
    ASSERT_TRUE(cold.ok()) << cold.status().toString();
    EXPECT_FALSE(cold->hotServed);

    // Warm: the 16-byte probe alone brings back the artifact.
    auto warm = h.client.compileCached(job);
    ASSERT_TRUE(warm.ok()) << warm.status().toString();
    EXPECT_TRUE(warm->hotServed);
    EXPECT_EQ(warm->cacheKey, cold->cacheKey);
    EXPECT_EQ(warm->report.label, "probe");
    expectSameDistributedResult(cold->report.result(),
                                warm->report.result());

    // A missed probe is not counted as a compile request (its
    // follow-up full job is), a served probe is.
    const ServiceStats stats = h.server.statsSnapshot();
    EXPECT_EQ(stats.compileRequests, 2u);
    EXPECT_EQ(stats.hotReplies, 1u);
}

TEST(ServiceServerApi, FetchByContentAddress)
{
    Harness h(basicConfig("fetch"));
    const ServiceJob job = qftJob(6, "fetch");

    auto miss = h.client.compile(job);
    ASSERT_TRUE(miss.ok()) << miss.status().toString();
    ASSERT_NE(miss->report.cacheKey, 0u);

    auto fetched = h.client.fetch(miss->report.cacheKey,
                                  miss->report.cacheVerifier);
    ASSERT_TRUE(fetched.ok()) << fetched.status().toString();
    EXPECT_TRUE(fetched->hotServed);
    // The fetched artifact keeps the label it was compiled under.
    EXPECT_EQ(fetched->report.label, "fetch");
    expectSameDistributedResult(miss->report.result(),
                                fetched->report.result());

    // An unknown key is a precondition failure, not a compile.
    auto unknown = h.client.fetch(miss->report.cacheKey + 1,
                                  miss->report.cacheVerifier);
    ASSERT_FALSE(unknown.ok());
    EXPECT_EQ(unknown.status().code(),
              StatusCode::FailedPrecondition);
}

TEST(ServiceServerApi, StreamedProgressCoversEveryPass)
{
    Harness h(basicConfig("progress"));
    ServiceJob job = qftJob(6, "progress");
    job.streamProgress = true;

    std::vector<ProgressEvent> events;
    auto result = h.client.compile(
        job, [&](const ProgressEvent &event) {
            events.push_back(event);
        });
    ASSERT_TRUE(result.ok()) << result.status().toString();
    ASSERT_FALSE(events.empty());
    for (const ProgressEvent &event : events)
        EXPECT_EQ(event.label, "progress");
    // Pass-boundary events come in begin/end pairs; window events
    // (v4) are interleaved mid-pass and never marked finished.
    std::vector<ProgressEvent> boundaries;
    for (const ProgressEvent &event : events) {
        if (event.window)
            EXPECT_FALSE(event.finished);
        else
            boundaries.push_back(event);
    }
    EXPECT_EQ(boundaries.size() % 2, 0u);
    EXPECT_FALSE(boundaries.front().finished);
    EXPECT_TRUE(boundaries.back().finished);
}

TEST(ServiceServerApi, ExecutionJobRunsBackendsServerSide)
{
    Harness h(basicConfig("exec"));
    ServiceJob job = qftJob(4, "exec");
    ExecOptions exec;
    exec.backend = "statevector";
    exec.shots = 32;
    exec.seed = 7;
    job.backends = {exec};

    auto result = h.client.compile(job);
    ASSERT_TRUE(result.ok()) << result.status().toString();
    ASSERT_EQ(result->report.executions.size(), 1u);
    EXPECT_EQ(result->report.executions[0].backend, "statevector");
    EXPECT_EQ(result->report.executions[0].shots, 32);

    const ServiceStats stats = h.server.statsSnapshot();
    EXPECT_EQ(stats.executeRequests, 1u);
}

TEST(ServiceServerApi, BaselineJobWithBackendsRejected)
{
    Harness h(basicConfig("baseline"));
    ServiceJob job = qftJob(4, "baseline-exec");
    job.baseline = true;
    job.backends = {ExecOptions{}};

    auto result = h.client.compile(job);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::InvalidArgument);
}

TEST(ServiceServerApi, ConcurrentClientsGetBitIdenticalSchedules)
{
    ServiceConfig config = basicConfig("concurrent");
    config.workers = 4;
    ServiceServer server(config);
    ASSERT_TRUE(server.start().ok());

    constexpr int kClients = 8;
    const ServiceJob job = qftJob(7, "swarm");

    std::vector<std::optional<ClientCompileResult>> results(kClients);
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
        threads.emplace_back([&, i] {
            ServiceClient client;
            if (!client.connect(config.socketPath).ok())
                return;
            auto result = client.compile(job);
            if (result.ok())
                results[i] = std::move(result.value());
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    ASSERT_TRUE(results[0].has_value());
    for (int i = 1; i < kClients; ++i) {
        ASSERT_TRUE(results[i].has_value()) << "client " << i;
        expectSameDistributedResult(results[0]->report.result(),
                                    results[i]->report.result());
    }

    const ServiceStats stats = server.statsSnapshot();
    EXPECT_EQ(stats.compileRequests,
              static_cast<std::uint64_t>(kClients));
    EXPECT_EQ(stats.succeeded, static_cast<std::uint64_t>(kClients));
    EXPECT_EQ(stats.failed, 0u);
    server.stop();
}

TEST(ServiceServerApi, DeadlineEnforcedAtPassBoundaries)
{
    Harness h(basicConfig("deadline"));
    // Big enough that the pipeline cannot finish inside 1 ms.
    ServiceJob job = qftJob(24, "deadline");
    job.deadlineMillis = 1;

    auto result = h.client.compile(job);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::DeadlineExceeded);

    const ServiceStats stats = h.server.statsSnapshot();
    EXPECT_EQ(stats.deadlineExceeded, 1u);
    EXPECT_EQ(stats.succeeded, 0u);
}

TEST(AdmissionGateApi, SlotsAreBoundedAndReusable)
{
    AdmissionGate gate(2);
    EXPECT_EQ(gate.limit(), 2);
    EXPECT_TRUE(gate.tryAcquire().ok());
    EXPECT_TRUE(gate.tryAcquire().ok());
    EXPECT_EQ(gate.inFlight(), 2);

    const Status full = gate.tryAcquire();
    ASSERT_FALSE(full.ok());
    EXPECT_EQ(full.code(), StatusCode::ResourceExhausted);

    gate.release();
    EXPECT_TRUE(gate.tryAcquire().ok());
    gate.release();
    gate.release();
    gate.waitIdle();
    EXPECT_EQ(gate.inFlight(), 0);
}

TEST(ServiceServerApi, BurstBeyondQueueDepthIsLoadShed)
{
    ServiceConfig config = basicConfig("burst");
    config.workers = 1;
    config.queueDepth = 1;
    ServiceServer server(config);
    ASSERT_TRUE(server.start().ok());

    // Distinct programs so no request can be answered from cache.
    constexpr int kClients = 6;
    std::atomic<int> ok{0};
    std::atomic<int> shed{0};
    std::atomic<int> other{0};
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
        threads.emplace_back([&, i] {
            ServiceClient client;
            if (!client.connect(config.socketPath).ok()) {
                ++other;
                return;
            }
            const ServiceJob job =
                qftJob(14 + i, "burst-" + std::to_string(i));
            auto result = client.compile(job);
            if (result.ok())
                ++ok;
            else if (result.status().code() ==
                     StatusCode::ResourceExhausted)
                ++shed;
            else
                ++other;
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    // Every request either compiled or was shed at the front door;
    // at least one always gets through. Whether any are shed depends
    // on timing, but the counters must agree with the stats RPC.
    EXPECT_EQ(other.load(), 0);
    EXPECT_GE(ok.load(), 1);
    EXPECT_EQ(ok.load() + shed.load(), kClients);
    const ServiceStats stats = server.statsSnapshot();
    EXPECT_EQ(stats.rejectedQueueFull,
              static_cast<std::uint64_t>(shed.load()));
    EXPECT_EQ(stats.succeeded,
              static_cast<std::uint64_t>(ok.load()));
    server.stop();
}

TEST(ServiceServerApi, PingAndStatsRoundTrip)
{
    Harness h(basicConfig("ping"));
    EXPECT_TRUE(h.client.ping().ok());
    auto stats = h.client.stats();
    ASSERT_TRUE(stats.ok()) << stats.status().toString();
    EXPECT_EQ(stats->workers, 2);
    EXPECT_GE(stats->pings, 1u);
    EXPECT_GE(stats->statsRequests, 1u);
    EXPECT_FALSE(stats->draining);
}

TEST(ServiceServerApi, NonFiniteConfigGetsErrorReplyAndServerStaysUp)
{
    // A decoded job config is caller input: NaN / inf partition
    // parameters must come back as an error reply, not abort the
    // daemon in the partitioner.
    Harness h(basicConfig("nonfinite"));
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    ServiceJob nan_gamma = qftJob(6, "nan-gamma");
    nan_gamma.config.partition.gamma = nan;
    ServiceJob inf_alpha = qftJob(6, "inf-alpha");
    inf_alpha.config.partition.alphaMax = inf;
    inf_alpha.config.partition.gamma = 1e300;
    for (const ServiceJob *job : {&nan_gamma, &inf_alpha}) {
        SCOPED_TRACE(job->request->label());
        auto reply = h.client.compile(*job);
        ASSERT_FALSE(reply.ok());
        EXPECT_EQ(reply.status().code(), StatusCode::InvalidConfig)
            << reply.status().toString();
    }

    auto stats = h.client.stats();
    ASSERT_TRUE(stats.ok()) << stats.status().toString();
    EXPECT_EQ(stats->workers, 2);
    auto valid = h.client.compile(qftJob(6, "after"));
    EXPECT_TRUE(valid.ok()) << valid.status().toString();
}

TEST(ServiceServerApi, CertainLossJobGetsReplyAndServerStaysUp)
{
    // A job's loss model is caller input too: at 1 ms per cycle
    // every stored photon is certainly lost, which mc-loss reports
    // as analytic success 0 instead of aborting the daemon.
    Harness h(basicConfig("certainloss"));
    ServiceJob job = qftJob(4, "certain-loss");
    ExecOptions exec;
    exec.backend = "mc-loss";
    exec.shots = 32;
    exec.lossModel.cyclePeriodNs = 1e6;
    job.backends = {exec};
    auto reply = h.client.compile(job);
    ASSERT_TRUE(reply.ok()) << reply.status().toString();
    ASSERT_EQ(reply->report.executions.size(), 1u);
    EXPECT_EQ(reply->report.executions[0].analyticSuccessProbability,
              0.0);
    EXPECT_EQ(reply->report.executions[0].completedShots, 0);

    auto stats = h.client.stats();
    ASSERT_TRUE(stats.ok()) << stats.status().toString();
    EXPECT_EQ(stats->workers, 2);
    auto valid = h.client.compile(qftJob(6, "after"));
    EXPECT_TRUE(valid.ok()) << valid.status().toString();
}

TEST(ServiceServerApi, DrainStopsAcceptingAndUnlinksSocket)
{
    ServiceConfig config = basicConfig("drain");
    ServiceServer server(config);
    ASSERT_TRUE(server.start().ok());

    ServiceClient client;
    ASSERT_TRUE(client.connect(config.socketPath).ok());
    ASSERT_TRUE(client.drain().ok());
    EXPECT_TRUE(server.draining());
    client.close();
    server.wait();

    // The socket file is gone and new connections are refused.
    EXPECT_NE(::access(config.socketPath.c_str(), F_OK), 0);
    ServiceClient late;
    EXPECT_FALSE(late.connect(config.socketPath).ok());
}

TEST(ServiceServerApi, RestartOverStaleSocketFile)
{
    ServiceConfig config = basicConfig("stale");
    {
        // Leave a stale socket file behind by skipping the drain
        // unlink: create it directly.
        ServiceServer first(config);
        ASSERT_TRUE(first.start().ok());
        first.stop();
    }
    // A fresh server binds over whatever was left behind.
    ServiceServer second(config);
    ASSERT_TRUE(second.start().ok());
    ServiceClient client;
    EXPECT_TRUE(client.connect(config.socketPath).ok());
    EXPECT_TRUE(client.ping().ok());
    client.close();
    second.stop();
}

} // namespace
} // namespace dcmbqc
