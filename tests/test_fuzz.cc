/**
 * @file
 * Deterministic mutation fuzzer over every binary decoder. Each golden
 * fixture (tests/golden/) is mutated with seed-pinned byte flips,
 * truncations, length-field edits and byte insertions/deletions.
 * Artifact payloads are re-sealed after mutating, so the envelope
 * checksum passes and the mutation reaches the payload codec.
 *
 * Two properties hold for every mutant:
 *   - the decoder returns a value or a Status; it never aborts;
 *   - an accepted payload re-encodes to a fixed point:
 *     encode(decode(encode(decode(x)))) == encode(decode(x)).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "serialize/codecs.hh"
#include "service/protocol.hh"

#ifndef DCMBQC_GOLDEN_DIR
#define DCMBQC_GOLDEN_DIR "tests/golden"
#endif

namespace dcmbqc
{
namespace
{

using Bytes = std::vector<std::uint8_t>;

/** Decode `bytes`, then encode the value again. */
using Reencode = std::function<Expected<Bytes>(const Bytes &)>;

template <typename Decode, typename Encode>
Reencode
reencode(Decode decode, Encode encode)
{
    return [decode, encode](const Bytes &bytes) -> Expected<Bytes> {
        auto value = decode(bytes);
        if (!value.ok())
            return value.status();
        return encode(*value);
    };
}

struct Target
{
    const char *file;

    /** True for a DCMB artifact, false for a raw frame payload. */
    bool artifact;

    Reencode codec;
};

std::vector<Target>
targets()
{
    return {
        {"circuit.dcmb", true,
         reencode(decodeCircuitArtifact, encodeCircuitArtifact)},
        {"pattern.dcmb", true,
         reencode(decodePatternArtifact, encodePatternArtifact)},
        {"graph.dcmb", true,
         reencode(decodeGraphArtifact, encodeGraphArtifact)},
        {"digraph.dcmb", true,
         reencode(decodeDigraphArtifact, encodeDigraphArtifact)},
        {"config.dcmb", true,
         reencode(decodeConfigArtifact, encodeConfigArtifact)},
        {"schedule.dcmb", true,
         reencode(decodeScheduleArtifact, encodeScheduleArtifact)},
        {"local_schedule.dcmb", true,
         reencode(decodeLocalScheduleArtifact,
                  encodeLocalScheduleArtifact)},
        {"report.dcmb", true,
         reencode(decodeCompileReportArtifact,
                  encodeCompileReportArtifact)},
        {"report_baseline.dcmb", true,
         reencode(decodeCompileReportArtifact,
                  encodeCompileReportArtifact)},
        {"report_portfolio.dcmb", true,
         reencode(decodeCompileReportArtifact,
                  encodeCompileReportArtifact)},
        {"exec_result.dcmb", true,
         reencode(decodeExecResultArtifact, encodeExecResultArtifact)},
        {"exec_shot_tree.dcmb", true,
         reencode(decodeExecResultArtifact, encodeExecResultArtifact)},
        {"noise_config.dcmb", true,
         reencode(decodeNoiseConfigArtifact,
                  encodeNoiseConfigArtifact)},
        {"frames/job_circuit.bin", false,
         reencode(decodeServiceJob, encodeServiceJob)},
        {"frames/job_pattern.bin", false,
         reencode(decodeServiceJob, encodeServiceJob)},
        {"frames/job_graph.bin", false,
         reencode(decodeServiceJob, encodeServiceJob)},
        {"frames/cache_probe.bin", false,
         reencode(decodeCacheProbe, encodeCacheProbe)},
        {"frames/compile_reply.bin", false,
         reencode(decodeCompileReply, encodeCompileReply)},
        {"frames/progress_window.bin", false,
         reencode(decodeProgressEvent, encodeProgressEvent)},
        {"frames/service_stats.bin", false,
         reencode(decodeServiceStats, encodeServiceStats)},
    };
}

/** Seed-pinned mutator; every draw comes from one mt19937_64. */
class Mutator
{
  public:
    explicit Mutator(std::uint64_t seed) : rng_(seed) {}

    Bytes
    mutate(Bytes bytes)
    {
        switch (below(5)) {
          case 0:
            flipBytes(bytes);
            break;
          case 1:
            if (!bytes.empty())
                bytes.resize(below(bytes.size()));
            break;
          case 2:
            editLength(bytes);
            break;
          case 3:
            if (!bytes.empty())
                bytes.erase(bytes.begin() + below(bytes.size()));
            break;
          default:
            bytes.insert(bytes.begin() + below(bytes.size() + 1),
                         static_cast<std::uint8_t>(below(256)));
        }
        return bytes;
    }

  private:
    std::uint64_t below(std::uint64_t n) { return rng_() % n; }

    void
    flipBytes(Bytes &bytes)
    {
        if (bytes.empty())
            return;
        const std::uint64_t flips = 1 + below(3);
        for (std::uint64_t i = 0; i < flips; ++i)
            bytes[below(bytes.size())] ^=
                static_cast<std::uint8_t>(1 + below(255));
    }

    /**
     * Rewrite a little-endian u32 that looks like a length or count
     * (non-zero and no larger than the buffer) with a nearby or
     * hostile value; falls back to a random offset.
     */
    void
    editLength(Bytes &bytes)
    {
        if (bytes.size() < 4)
            return;
        std::vector<std::size_t> lengths;
        for (std::size_t at = 0; at + 4 <= bytes.size(); ++at) {
            const std::uint32_t v = read32(bytes, at);
            if (v > 0 && v <= bytes.size())
                lengths.push_back(at);
        }
        const std::size_t at = lengths.empty()
            ? below(bytes.size() - 3)
            : lengths[below(lengths.size())];
        const std::uint32_t v = read32(bytes, at);
        const std::uint32_t edits[] = {
            0u, v + 1, v - 1, v * 2, 0xffffffffu, 0x7fffffffu,
            static_cast<std::uint32_t>(bytes.size())};
        const std::uint32_t edited = edits[below(std::size(edits))];
        for (int i = 0; i < 4; ++i)
            bytes[at + i] = static_cast<std::uint8_t>(edited >> (8 * i));
    }

    static std::uint32_t
    read32(const Bytes &bytes, std::size_t at)
    {
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(bytes[at + i]) << (8 * i);
        return v;
    }

    std::mt19937_64 rng_;
};

constexpr int kMutantsPerTarget = 800;

TEST(DecoderFuzz, MutantsDecodeOrFailAndReencodeToAFixedPoint)
{
    int accepted = 0, rejected = 0;
    std::uint64_t seed = 0x5eed;
    for (const Target &target : targets()) {
        auto loaded = loadArtifactFile(std::string(DCMBQC_GOLDEN_DIR) +
                                       "/" + target.file);
        ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
        ArtifactKind kind = ArtifactKind::Circuit;
        Bytes seed_bytes = *loaded;
        if (target.artifact) {
            auto view = openArtifact(*loaded);
            ASSERT_TRUE(view.ok()) << target.file;
            kind = view->kind;
            seed_bytes.assign(view->payload,
                              view->payload + view->payloadSize);
        }
        ASSERT_TRUE(target.codec(*loaded).ok()) << target.file;

        Mutator mutator(seed++);
        for (int i = 0; i < kMutantsPerTarget; ++i) {
            Bytes input = mutator.mutate(seed_bytes);
            if (target.artifact)
                input = sealArtifact(kind, input);
            const auto once = target.codec(input);
            if (!once.ok()) {
                ++rejected;
                continue;
            }
            ++accepted;
            const auto twice = target.codec(*once);
            ASSERT_TRUE(twice.ok())
                << target.file << " mutant " << i
                << ": re-encoded payload rejected: "
                << twice.status().toString();
            ASSERT_EQ(*twice, *once)
                << target.file << " mutant " << i
                << ": re-encoding is not a fixed point";
        }
    }
    // Both outcomes must be reached, or the mutator is not testing
    // the decoders at all.
    EXPECT_GT(accepted, 0);
    EXPECT_GT(rejected, 0);
}

} // namespace
} // namespace dcmbqc
