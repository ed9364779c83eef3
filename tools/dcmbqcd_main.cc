/**
 * @file
 * `dcmbqcd`: the long-running compile/execute daemon. Serves the
 * framed protocol of service/protocol.hh on a Unix-domain socket,
 * sharing one hot compile cache across every client:
 *
 *   dcmbqcd --socket /run/dcmbqcd.sock [--cache-dir DIR] ...
 *       serve in the foreground until drained
 *   dcmbqcd --drain --socket /run/dcmbqcd.sock
 *       ask the daemon serving that socket to drain and exit
 *   dcmbqcd --stats --socket /run/dcmbqcd.sock
 *       print the daemon's serving statistics as JSON
 *
 * SIGINT/SIGTERM trigger the same graceful drain as `--drain`:
 * in-flight requests finish, the socket is unlinked, and the process
 * exits 0.
 */

#include <csignal>
#include <cstdio>
#include <cstring>

#include "flags.hh"
#include "service/client.hh"
#include "service/server.hh"

using namespace dcmbqc;

namespace
{

int
usage()
{
    cli::printUsage(cli::Daemon);
    return 2;
}

int
fail(const Status &status)
{
    std::fprintf(stderr, "dcmbqcd: %s\n", status.toString().c_str());
    return 1;
}

/**
 * The signal path into the graceful drain. requestDrain() is
 * async-signal-safe (atomic store + pipe write), so the handler can
 * call it directly.
 */
ServiceServer *signalTarget = nullptr;

void
onSignal(int)
{
    if (signalTarget)
        signalTarget->requestDrain();
}

/** `--drain` or `--stats`: one request to the serving daemon. */
int
sendRequest(const cli::Flags &flags)
{
    ServiceClient client;
    Status status = client.connect(flags.socket);
    if (status.ok() && flags.drain)
        status = client.drain();
    if (!status.ok())
        return fail(status);
    if (flags.drain) {
        std::printf("dcmbqcd: drain acknowledged on %s\n",
                    flags.socket.c_str());
        return 0;
    }
    auto stats = client.stats();
    if (!stats.ok())
        return fail(stats.status());
    std::printf("%s\n", toJson(*stats).c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    cli::Flags flags;
    if (!cli::parseFlags(cli::Daemon, {argv + 1, argv + argc}, flags))
        return usage();
    ServiceConfig config;
    config.socketPath = flags.socket;
    config.cacheDir = flags.cacheDir;
    config.workers = flags.workers.value;
    config.queueDepth = flags.queueDepth.value;
    config.cacheCapacity =
        static_cast<std::size_t>(flags.cacheCapacity.value);
    config.defaultDeadlineMillis =
        static_cast<std::uint32_t>(flags.defaultDeadlineMs.value);

    if (config.socketPath.empty()) {
        std::fprintf(stderr, "dcmbqcd: --socket is required\n");
        return usage();
    }
    if (flags.drain && flags.stats) {
        std::fprintf(stderr,
                     "dcmbqcd: --drain and --stats are exclusive\n");
        return usage();
    }
    if (flags.drain || flags.stats)
        return sendRequest(flags);

    ServiceServer server(config);
    const Status started = server.start();
    if (!started.ok())
        return fail(started);

    signalTarget = &server;
    struct sigaction action;
    std::memset(&action, 0, sizeof(action));
    action.sa_handler = onSignal;
    ::sigaction(SIGINT, &action, nullptr);
    ::sigaction(SIGTERM, &action, nullptr);
    // A client vanishing mid-write must surface as a Status on that
    // session, never kill the daemon.
    ::signal(SIGPIPE, SIG_IGN);

    if (!flags.quiet)
        std::printf("dcmbqcd: serving %s (%d worker(s), queue depth "
                    "%d%s%s)\n",
                    config.socketPath.c_str(),
                    config.workers > 0
                        ? config.workers
                        : ThreadPool::defaultNumThreads(),
                    config.queueDepth,
                    config.cacheDir.empty() ? "" : ", disk cache ",
                    config.cacheDir.c_str());

    server.wait();
    signalTarget = nullptr;
    if (!flags.quiet)
        std::printf("dcmbqcd: drained, exiting\n");
    return 0;
}
