#include "service/protocol.hh"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>

#include "serialize/binary.hh"
#include "serialize/codecs.hh"
#include "serialize/json.hh"

namespace dcmbqc
{

namespace
{

constexpr std::size_t frameHeaderSize = 16;
constexpr std::size_t frameTrailerSize = 8;
constexpr std::uint8_t frameMagic[4] = {'D', 'S', 'V', 'C'};

struct FrameHeader
{
    FrameType type;
    std::uint64_t payloadSize;
};

/** Validate a frame header: magic, version, type tag, payload limit. */
Expected<FrameHeader>
parseFrameHeader(const std::uint8_t *header, std::size_t max_payload)
{
    if (std::memcmp(header, frameMagic, sizeof(frameMagic)) != 0)
        return Status::invalidArgument(
            "bad service frame magic (not a dcmbqcd stream?)");
    BinaryReader fields(header + 4, frameHeaderSize - 4);
    const std::uint16_t version = fields.readU16();
    const std::uint16_t tag = fields.readU16();
    const std::uint64_t payload_size = fields.readU64();
    if (version != serviceProtocolVersion)
        return Status::invalidArgument(
            "unsupported service protocol version " +
            std::to_string(version) + " (this build speaks " +
            std::to_string(serviceProtocolVersion) + ")");
    if (tag < static_cast<std::uint16_t>(FrameType::CompileRequest) ||
        tag > static_cast<std::uint16_t>(FrameType::CacheProbeMiss))
        return Status::invalidArgument(
            "unknown service frame type tag " + std::to_string(tag));
    if (payload_size > max_payload)
        return Status::invalidArgument(
            "service frame payload of " +
            std::to_string(payload_size) +
            " bytes exceeds the limit of " +
            std::to_string(max_payload));
    return FrameHeader{static_cast<FrameType>(tag), payload_size};
}

/** Check a frame's payload against the FNV-1a checksum trailer. */
Expected<Frame>
checkFrameTrailer(Frame frame, const std::uint8_t *trailer)
{
    BinaryReader checksum(trailer, frameTrailerSize);
    if (checksum.readU64() !=
        fnv1a64(frame.payload.data(), frame.payload.size()))
        return Status::invalidArgument(
            "service frame checksum mismatch (corrupted in flight)");
    return frame;
}

/** Read exactly `size` bytes; false on EOF/error. */
bool
recvAll(int fd, std::uint8_t *data, std::size_t size,
        std::size_t *received)
{
    std::size_t done = 0;
    while (done < size) {
        const ssize_t n = ::recv(fd, data + done, size - done, 0);
        if (n > 0) {
            done += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        break;
    }
    if (received)
        *received = done;
    return done == size;
}

} // namespace

const char *
frameTypeName(FrameType type)
{
    switch (type) {
      case FrameType::CompileRequest: return "compile-request";
      case FrameType::CompileReply: return "compile-reply";
      case FrameType::Progress: return "progress";
      case FrameType::StatsRequest: return "stats-request";
      case FrameType::StatsReply: return "stats-reply";
      case FrameType::Ping: return "ping";
      case FrameType::Pong: return "pong";
      case FrameType::Drain: return "drain";
      case FrameType::DrainReply: return "drain-reply";
      case FrameType::CacheProbe: return "cache-probe";
      case FrameType::CacheProbeMiss: return "cache-probe-miss";
    }
    return "unknown";
}

std::vector<std::uint8_t>
encodeFrame(FrameType type, const std::vector<std::uint8_t> &payload)
{
    BinaryWriter writer;
    writer.writeBytes(frameMagic, sizeof(frameMagic));
    writer.writeU16(serviceProtocolVersion);
    writer.writeU16(static_cast<std::uint16_t>(type));
    writer.writeU64(payload.size());
    writer.writeBytes(payload.data(), payload.size());
    writer.writeU64(fnv1a64(payload.data(), payload.size()));
    return writer.take();
}

Expected<Frame>
decodeFrame(const std::uint8_t *data, std::size_t size,
            std::size_t max_payload)
{
    if (size < frameHeaderSize + frameTrailerSize)
        return Status::invalidArgument(
            "service frame truncated: " + std::to_string(size) +
            " bytes is smaller than header + checksum");
    auto header = parseFrameHeader(data, max_payload);
    if (!header.ok())
        return header.status();
    const std::uint64_t payload_size = header->payloadSize;
    if (size != frameHeaderSize + payload_size + frameTrailerSize)
        return Status::invalidArgument(
            "service frame size mismatch: header promises " +
            std::to_string(payload_size) + " payload bytes, buffer "
            "holds " + std::to_string(size));
    const std::uint8_t *payload = data + frameHeaderSize;
    Frame frame;
    frame.type = header->type;
    frame.payload.assign(payload, payload + payload_size);
    return checkFrameTrailer(std::move(frame), payload + payload_size);
}

Expected<Frame>
decodeFrame(const std::vector<std::uint8_t> &bytes,
            std::size_t max_payload)
{
    return decodeFrame(bytes.data(), bytes.size(), max_payload);
}

Status
writeFrame(int fd, FrameType type,
           const std::vector<std::uint8_t> &payload)
{
    const std::vector<std::uint8_t> frame = encodeFrame(type, payload);
    std::size_t done = 0;
    while (done < frame.size()) {
        const ssize_t n = ::send(fd, frame.data() + done,
                                 frame.size() - done, MSG_NOSIGNAL);
        if (n > 0) {
            done += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        return Status::unavailable(
            std::string("service connection write failed: ") +
            std::strerror(errno));
    }
    return Status::okStatus();
}

Expected<Frame>
readFrame(int fd, std::size_t max_payload)
{
    std::uint8_t header[frameHeaderSize];
    std::size_t got = 0;
    if (!recvAll(fd, header, sizeof(header), &got)) {
        if (got == 0)
            return Status::unavailable("peer closed the connection");
        return Status::invalidArgument(
            "service frame header truncated at " +
            std::to_string(got) + " bytes");
    }
    // The size is validated before a payload byte is allocated.
    auto parsed = parseFrameHeader(header, max_payload);
    if (!parsed.ok())
        return parsed.status();
    Frame frame;
    frame.type = parsed->type;
    frame.payload.resize(parsed->payloadSize);
    if (!frame.payload.empty() &&
        !recvAll(fd, frame.payload.data(), frame.payload.size(), nullptr))
        return Status::invalidArgument(
            "service frame payload truncated (peer hung up "
            "mid-frame)");
    std::uint8_t trailer[frameTrailerSize];
    if (!recvAll(fd, trailer, sizeof(trailer), nullptr))
        return Status::invalidArgument(
            "service frame checksum truncated");
    return checkFrameTrailer(std::move(frame), trailer);
}

// --- Message field lists ---------------------------------------------------

template <class Io>
void
transfer(Io &io, WireRecord<Io, ExecOptions> &options)
{
    io(options.backend, options.shots, options.seed, options.numThreads,
       options.applyByproducts, options.lossModel.attenuationDbPerKm,
       options.lossModel.cyclePeriodNs, options.lossModel.speedFraction);
    io.optional(options.noise);
}

/**
 * A job's request: an entry-point tag (1 circuit, 2 pattern, 3 graph
 * + deps), its IR payload through the hand-written codecs, then the
 * label. The reader rebuilds the request through CompileRequest's
 * factories, which is why this entry is not a plain field list.
 */
template <class Io>
void
transfer(Io &io, WireRecord<Io, std::optional<CompileRequest>> &request)
{
    using Entry = CompileRequest::EntryPoint;
    if constexpr (Io::reading) {
        std::uint8_t entry = 0;
        io(entry);
        BinaryReader &reader = io.stream();
        if (entry == 1) {
            Circuit circuit = decodeCircuit(reader);
            if (io.ok())
                request = CompileRequest::fromCircuit(std::move(circuit));
        } else if (entry == 2) {
            Pattern pattern = decodePattern(reader);
            if (io.ok())
                request = CompileRequest::fromPattern(std::move(pattern));
        } else if (entry == 3) {
            Graph graph = decodeGraph(reader);
            Digraph deps = decodeDigraph(reader);
            if (io.ok())
                request = CompileRequest::fromGraph(std::move(graph),
                                                    std::move(deps));
        } else {
            io.fail("invalid job entry-point tag " +
                    std::to_string(entry));
        }
        std::string label;
        io(label);
        if (request)
            request->withLabel(std::move(label));
    } else {
        BinaryWriter &writer = io.stream();
        switch (request->entryPoint()) {
          case Entry::Circuit:
            io(std::uint8_t{1});
            encodeCircuit(writer, request->circuit());
            break;
          case Entry::CircuitStream:
            // Streams cross the wire materialized under the Circuit
            // tag: the compiled artifact is byte-identical either
            // way, and the daemon's windowed ingest is governed by
            // `job.window`, not by the entry representation.
            io(std::uint8_t{1});
            encodeCircuit(writer, request->stream().materialize());
            break;
          case Entry::Pattern:
            io(std::uint8_t{2});
            encodePattern(writer, request->pattern());
            break;
          case Entry::Graph:
            io(std::uint8_t{3});
            encodeGraph(writer, request->graph());
            encodeDigraph(writer, request->deps());
            break;
        }
        io(request->label());
    }
}

template <class Io>
void
transfer(Io &io, WireRecord<Io, ServiceJob> &job)
{
    io(job.request, job.config, job.baseline, job.deadlineMillis,
       job.streamProgress);
    io.list(job.backends, 1);
    io.optional(job.noise);
    io(job.portfolio);
    io.check([&]() -> std::string {
        if (job.portfolio > 64)
            return "portfolio candidate count " +
                std::to_string(job.portfolio) +
                " exceeds the limit of 64";
        return {};
    });
    io(job.window);
}

template <class Io>
void
transfer(Io &io, WireRecord<Io, CacheProbe> &probe)
{
    io(probe.key, probe.verifier);
}

template <class Io>
void
transfer(Io &io, WireRecord<Io, CompileReply> &reply)
{
    io(reply.status);
    io.bits("compile-reply", reply.cacheHit, reply.hotServed);
    io(reply.cacheKey);
    io.blob(reply.reportArtifact);
}

template <class Io>
void
transfer(Io &io, WireRecord<Io, ProgressEvent> &event)
{
    io(event.label, event.pass, event.finished, event.millis, event.note,
       event.window, event.windowIndex, event.windowSettled,
       event.windowTotal, event.frontierLive);
}

template <class Io>
void
transfer(Io &io, WireRecord<Io, ServiceStats::StageAggregate> &stage)
{
    io(stage.pass, stage.count, stage.totalMillis, stage.maxMillis);
}

template <class Io>
void
transfer(Io &io, WireRecord<Io, ServiceStats::WinnerCount> &winner)
{
    io(winner.strategy, winner.wins);
}

template <class Io>
void
transfer(Io &io, WireRecord<Io, ServiceStats> &stats)
{
    io(stats.requestsTotal, stats.compileRequests, stats.executeRequests,
       stats.statsRequests, stats.pings, stats.succeeded, stats.failed,
       stats.rejectedQueueFull, stats.deadlineExceeded, stats.cancelled,
       stats.hotReplies, stats.cacheHitReplies, stats.inFlight,
       stats.queueLimit, stats.workers, stats.draining,
       stats.uptimeMillis, stats.latencySamples, stats.p50Millis,
       stats.p99Millis, stats.maxMillis, stats.meanMillis, stats.cache,
       stats.cacheEntries);
    io.list(stats.stages, 1);
    io(stats.portfolioRaces, stats.portfolioCandidates,
       stats.portfolioCancelledEarly);
    io.list(stats.portfolioWinners, 1);
}

// --- Message codecs --------------------------------------------------------

std::vector<std::uint8_t>
encodeServiceJob(const ServiceJob &job)
{
    return encodeRecord(job);
}

Expected<ServiceJob>
decodeServiceJob(const std::vector<std::uint8_t> &bytes)
{
    return decodeRecord<ServiceJob>(bytes, "service job");
}

std::vector<std::uint8_t>
encodeCacheProbe(const CacheProbe &probe)
{
    return encodeRecord(probe);
}

Expected<CacheProbe>
decodeCacheProbe(const std::vector<std::uint8_t> &bytes)
{
    return decodeRecord<CacheProbe>(bytes, "cache-probe");
}

std::vector<std::uint8_t>
encodeCompileReply(const CompileReply &reply)
{
    return encodeRecord(reply);
}

Expected<CompileReply>
decodeCompileReply(const std::vector<std::uint8_t> &bytes)
{
    return decodeRecord<CompileReply>(bytes, "compile-reply");
}

std::vector<std::uint8_t>
encodeProgressEvent(const ProgressEvent &event)
{
    return encodeRecord(event);
}

Expected<ProgressEvent>
decodeProgressEvent(const std::vector<std::uint8_t> &bytes)
{
    return decodeRecord<ProgressEvent>(bytes, "progress");
}

std::vector<std::uint8_t>
encodeServiceStats(const ServiceStats &stats)
{
    return encodeRecord(stats);
}

Expected<ServiceStats>
decodeServiceStats(const std::vector<std::uint8_t> &bytes)
{
    return decodeRecord<ServiceStats>(bytes, "service-stats");
}

std::string
toJson(const ServiceStats &stats)
{
    JsonWriter json;
    json.beginObject();
    json.key("requests").beginObject();
    json.key("total").value((unsigned long long)stats.requestsTotal);
    json.key("compile")
        .value((unsigned long long)stats.compileRequests);
    json.key("execute")
        .value((unsigned long long)stats.executeRequests);
    json.key("stats").value((unsigned long long)stats.statsRequests);
    json.key("pings").value((unsigned long long)stats.pings);
    json.endObject();
    json.key("outcomes").beginObject();
    json.key("succeeded").value((unsigned long long)stats.succeeded);
    json.key("failed").value((unsigned long long)stats.failed);
    json.key("rejectedQueueFull")
        .value((unsigned long long)stats.rejectedQueueFull);
    json.key("deadlineExceeded")
        .value((unsigned long long)stats.deadlineExceeded);
    json.key("cancelled").value((unsigned long long)stats.cancelled);
    json.key("hotReplies")
        .value((unsigned long long)stats.hotReplies);
    json.key("cacheHitReplies")
        .value((unsigned long long)stats.cacheHitReplies);
    json.endObject();
    json.key("gauges").beginObject();
    json.key("inFlight").value(stats.inFlight);
    json.key("queueLimit").value(stats.queueLimit);
    json.key("workers").value(stats.workers);
    json.key("draining").value(stats.draining);
    json.key("uptimeMillis")
        .value((unsigned long long)stats.uptimeMillis);
    json.endObject();
    json.key("latencyMillis").beginObject();
    json.key("samples")
        .value((unsigned long long)stats.latencySamples);
    json.key("p50").value(stats.p50Millis);
    json.key("p99").value(stats.p99Millis);
    json.key("max").value(stats.maxMillis);
    json.key("mean").value(stats.meanMillis);
    json.endObject();
    json.key("cache").beginObject();
    json.key("hits").value((unsigned long long)stats.cache.hits);
    json.key("misses").value((unsigned long long)stats.cache.misses);
    json.key("evictions")
        .value((unsigned long long)stats.cache.evictions);
    json.key("diskHits")
        .value((unsigned long long)stats.cache.diskHits);
    json.key("diskWrites")
        .value((unsigned long long)stats.cache.diskWrites);
    json.key("memoryEntries")
        .value((unsigned long long)stats.cacheEntries);
    json.endObject();
    json.key("portfolio").beginObject();
    json.key("races").value((unsigned long long)stats.portfolioRaces);
    json.key("candidates")
        .value((unsigned long long)stats.portfolioCandidates);
    json.key("cancelledEarly")
        .value((unsigned long long)stats.portfolioCancelledEarly);
    json.key("winners").beginArray();
    for (const ServiceStats::WinnerCount &winner :
         stats.portfolioWinners) {
        json.beginObject();
        json.key("strategy").value(winner.strategy);
        json.key("wins").value((unsigned long long)winner.wins);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    json.key("stages").beginArray();
    for (const ServiceStats::StageAggregate &stage : stats.stages) {
        json.beginObject();
        json.key("pass").value(stage.pass);
        json.key("count").value((unsigned long long)stage.count);
        json.key("totalMillis").value(stage.totalMillis);
        json.key("maxMillis").value(stage.maxMillis);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return json.take();
}

} // namespace dcmbqc
