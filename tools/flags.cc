#include "flags.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <type_traits>
#include <variant>

namespace dcmbqc
{
namespace cli
{
namespace
{

/** The field a flag sets; a bool field takes no value. */
using Slot = std::variant<bool Flags::*, std::string Flags::*,
                          int Flags::*, Count Flags::*,
                          std::uint64_t Flags::*,
                          std::optional<std::int64_t> Flags::*,
                          double Flags::*, ResourceStateType Flags::*>;

struct Row
{
    const char *name;
    unsigned commands;
    Slot slot;
    /** Usage placeholder of the value; bool flags have none. */
    const char *value = nullptr;
};

constexpr unsigned kBuild = Compile | Run;

const Row kTable[] = {
    // Program source.
    {"--family", Compile, &Flags::family, "qft|qaoa|vqe|rca|clifford"},
    {"--in", Compile, &Flags::in, "CIRCUIT.dcmbqc"},
    {"--stream-family", Compile, &Flags::streamFamily,
     "graphstate|deepqaoa|cliffordt"},
    {"--rows", Compile, &Flags::rows, "R"},
    {"--cols", Compile, &Flags::cols, "C"},
    {"--qubits", Compile, &Flags::qubits, "N"},
    {"--depth", Compile, &Flags::depth, "L"},
    {"--gates", Compile, &Flags::gates, "G"},
    {"--window", Compile, &Flags::window, "N"},
    {"--label", Compile, &Flags::label, "NAME"},
    {"--save-circuit", Compile, &Flags::saveCircuit, "FILE.dcmbqc"},
    // Execution.
    {"--backend", Run, &Flags::backend,
     "statevector|stabilizer|mc-loss|schedule|all"},
    {"--shots", Run, &Flags::shots, "N"},
    {"--exec-seed", Run, &Flags::execSeed, "S"},
    {"--threads", Run, &Flags::threads, "N"},
    {"--raw", Run, &Flags::raw},
    {"--cycle-ns", Run, &Flags::cycleNs, "X"},
    // Compile options and the report artifact.
    {"-o", kBuild, &Flags::out, "REPORT.dcmbqc"},
    {"--out", kBuild, &Flags::out, "REPORT.dcmbqc"},
    {"--qpus", kBuild, &Flags::qpus, "N"},
    {"--grid", kBuild, &Flags::grid, "L"},
    {"--kmax", kBuild, &Flags::kmax, "K"},
    {"--seed", kBuild, &Flags::seed, "S"},
    {"--pl-ratio", kBuild, &Flags::plRatio, "R"},
    {"--resource-state", Compile, &Flags::resourceState,
     "ring4|star5|ring6|star7"},
    {"--no-bdir", kBuild, &Flags::noBdir},
    {"--baseline", kBuild, &Flags::baseline},
    {"--noise", kBuild, &Flags::noise, "NOISE.json|.dcmbqc"},
    {"--portfolio", kBuild, &Flags::portfolio, "K"},
    {"--cache-dir", kBuild | Stats | Daemon, &Flags::cacheDir, "DIR"},
    {"--quiet", kBuild | Daemon, &Flags::quiet},
    // Daemon client.
    {"--daemon", kBuild | Stats, &Flags::daemon, "SOCK"},
    {"--autostart", kBuild, &Flags::autostart},
    {"--deadline-ms", kBuild, &Flags::deadlineMs, "N"},
    {"--progress", kBuild, &Flags::progress},
    {"--json", Stats, &Flags::json},
    // dcmbqcd.
    {"--socket", Daemon, &Flags::socket, "PATH"},
    {"--drain", Daemon, &Flags::drain},
    {"--stats", Daemon, &Flags::stats},
    {"--workers", Daemon, &Flags::workers, "N"},
    {"--queue-depth", Daemon, &Flags::queueDepth, "N"},
    {"--cache-capacity", Daemon, &Flags::cacheCapacity, "N"},
    {"--default-deadline-ms", Daemon, &Flags::defaultDeadlineMs, "N"},
};

const struct
{
    Command command;
    const char *name;
    const char *positional;
} kCommands[] = {
    {Compile, "compile", ""},
    {Run, "run", " ARTIFACT.dcmbqc"},
    {Inspect, "inspect", " FILE.dcmbqc"},
    {Stats, "stats", " [FILE.dcmbqc]"},
    {Daemon, "dcmbqcd", ""},
};

// Parse a flag value into its field; on failure, return what the
// flag expects.

/**
 * The one numeric parser: all of `text` must be a T within
 * [lo, hi]. Out-of-range values fail instead of wrapping, since a
 * truncated --seed would quietly run a different experiment.
 */
template <typename T>
const char *
parseValue(const char *text, T &out,
           T lo = std::numeric_limits<T>::lowest(),
           T hi = std::numeric_limits<T>::max())
{
    const char *expected = std::is_floating_point_v<T> ? "a number"
        : std::is_signed_v<T> ? "an integer"
                              : "an unsigned 64-bit integer";
    char *end = nullptr;
    errno = 0;
    T value;
    if constexpr (std::is_floating_point_v<T>) {
        value = std::strtod(text, &end);
    } else if constexpr (std::is_signed_v<T>) {
        const long long parsed = std::strtoll(text, &end, 10);
        if (parsed < lo || parsed > hi)
            return expected;
        value = static_cast<T>(parsed);
    } else {
        // strtoull would wrap a negative into range.
        if (text[0] == '-')
            return expected;
        const unsigned long long parsed = std::strtoull(text, &end, 10);
        if (parsed < lo || parsed > hi)
            return expected;
        value = static_cast<T>(parsed);
    }
    if (end == text || *end != '\0' || errno == ERANGE)
        return expected;
    out = value;
    return nullptr;
}

const char *
parseValue(const char *text, Count &out)
{
    return parseValue(text, out.value, 0, 1 << 30)
        ? "a non-negative integer"
        : nullptr;
}

const char *
parseValue(const char *text, std::optional<std::int64_t> &out)
{
    std::int64_t value = 0;
    const char *expected = parseValue(text, value);
    if (!expected)
        out = value;
    return expected;
}

const char *
parseValue(const char *text, std::string &out)
{
    out = text;
    return nullptr;
}

const char *
parseValue(const char *text, ResourceStateType &out)
{
    // In ResourceStateType order.
    static const char *const names[] = {"ring4", "star5", "ring6",
                                        "star7"};
    for (int i = 0; i < 4; ++i)
        if (std::strcmp(text, names[i]) == 0) {
            out = static_cast<ResourceStateType>(i);
            return nullptr;
        }
    return "ring4|star5|ring6|star7";
}

} // namespace

const char *
commandName(Command command)
{
    for (const auto &entry : kCommands)
        if (entry.command == command)
            return entry.name;
    return "";
}

bool
parseFlags(Command command, const std::vector<std::string> &args,
           Flags &flags)
{
    const char *tool = command == Daemon ? "dcmbqcd" : "dcmbqc";
    const bool takes_file = command & (Run | Inspect | Stats);
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        const Row *row = std::find_if(
            std::begin(kTable), std::end(kTable), [&](const Row &r) {
                return (r.commands & command) && arg == r.name;
            });
        if (row == std::end(kTable)) {
            const bool option = arg.size() > 1 && arg[0] == '-';
            if (takes_file && flags.file.empty() && !option) {
                flags.file = arg;
                continue;
            }
            std::fprintf(stderr, "%s: %s '%s'\n", tool,
                         option ? "unknown option" : "unexpected argument",
                         arg.c_str());
            return false;
        }
        if (const auto *flag = std::get_if<bool Flags::*>(&row->slot)) {
            flags.**flag = true;
            continue;
        }
        if (i + 1 >= args.size()) {
            std::fprintf(stderr, "%s: %s needs a value\n", tool,
                         row->name);
            return false;
        }
        const char *value = args[++i].c_str();
        const char *expected = std::visit(
            [&](auto field) -> const char * {
                if constexpr (std::is_same_v<decltype(field),
                                             bool Flags::*>)
                    return nullptr;
                else
                    return parseValue(value, flags.*field);
            },
            row->slot);
        if (expected) {
            std::fprintf(stderr, "%s: %s expects %s, got '%s'\n", tool,
                         row->name, expected, value);
            return false;
        }
    }
    return true;
}

void
printUsage(unsigned commands)
{
    std::fprintf(stderr, "usage:\n");
    for (const auto &entry : kCommands) {
        if (!(entry.command & commands))
            continue;
        const std::string head = entry.command == Daemon
            ? std::string("  dcmbqcd")
            : std::string("  dcmbqc ") + entry.name;
        std::string line = head + entry.positional;
        for (const Row &row : kTable) {
            if (!(row.commands & entry.command))
                continue;
            const std::string word = std::string(" [") + row.name +
                (row.value ? std::string(" ") + row.value : "") + "]";
            if (line.size() + word.size() > 76) {
                std::fprintf(stderr, "%s\n", line.c_str());
                line = std::string(head.size(), ' ');
            }
            line += word;
        }
        std::fprintf(stderr, "%s\n", line.c_str());
    }
}

} // namespace cli
} // namespace dcmbqc
