/**
 * @file
 * The one flag table of the `dcmbqc` and `dcmbqcd` front ends. Every
 * flag is one row of the table in flags.cc: its name, the commands
 * that accept it, the `Flags` field it sets, and its usage
 * placeholder. `parseFlags` is the parse loop of every command and
 * `printUsage` prints the table.
 */

#ifndef DCMBQC_TOOLS_FLAGS_HH
#define DCMBQC_TOOLS_FLAGS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "photonic/resource_state.hh"
#include "service/server.hh"

namespace dcmbqc
{
namespace cli
{

/** The commands a flag row can belong to (a bit set). */
enum Command : unsigned
{
    Compile = 1u << 0,
    Run = 1u << 1,
    Inspect = 1u << 2,
    Stats = 1u << 3,
    /** The `dcmbqcd` executable. */
    Daemon = 1u << 4,
};

/** A dcmbqcd sizing value: a non-negative integer up to 2^30. */
struct Count
{
    int value = 0;
};

/** Every flag's value, starting at the command defaults. */
struct Flags
{
    // Program source. `file` is the positional argument of run,
    // inspect and stats.
    std::string family, in, streamFamily, label, saveCircuit, file;
    int qubits = 0, rows = 0, cols = 0, depth = 0;
    std::uint64_t gates = 0;

    // Compile options and the report artifact.
    int qpus = 4, grid = 0, kmax = 4, plRatio = 0, portfolio = 1;
    int window = 0;
    std::uint64_t seed = 1;
    ResourceStateType resourceState = ResourceStateType::Star5;
    bool noBdir = false, baseline = false, quiet = false;
    std::string noise, cacheDir, out;

    // Execution (run). An unset exec seed follows --seed.
    std::string backend = "all";
    int shots = 256, threads = 0;
    std::optional<std::int64_t> execSeed;
    double cycleNs = 1.0;
    bool raw = false;

    // Daemon client.
    std::string daemon;
    int deadlineMs = 0;
    bool autostart = false, progress = false, json = false;

    // dcmbqcd, starting at ServiceConfig's defaults.
    std::string socket;
    bool drain = false, stats = false;
    Count workers{ServiceConfig().workers};
    Count queueDepth{ServiceConfig().queueDepth};
    Count cacheCapacity{static_cast<int>(ServiceConfig().cacheCapacity)};
    Count defaultDeadlineMs{
        static_cast<int>(ServiceConfig().defaultDeadlineMillis)};
};

/** The name `command` is invoked by ("compile", ..., "dcmbqcd"). */
const char *commandName(Command command);

/**
 * Parse `args` as `command`'s flags into `flags`. A usage error
 * (unknown flag, missing or malformed value, stray argument) is
 * printed to stderr and returns false; the caller exits 2.
 */
bool parseFlags(Command command, const std::vector<std::string> &args,
                Flags &flags);

/** Print the usage of every command in the `commands` bit set. */
void printUsage(unsigned commands);

} // namespace cli
} // namespace dcmbqc

#endif // DCMBQC_TOOLS_FLAGS_HH
