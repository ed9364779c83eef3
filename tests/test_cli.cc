/**
 * @file
 * End-to-end tests of the `dcmbqc` and `dcmbqcd` executables. They
 * pin what a user of the front ends relies on: exit code 2 for usage
 * errors and 1 for Status errors (never a crash), artifacts equal to
 * a library compile under the CLI defaults, the daemon round trip,
 * the `run --backend all` skip rule, and inspect/stats over the
 * golden corpus.
 *
 * The binaries are passed in as DCMBQC_CLI_PATH / DCMBQCD_PATH.
 */

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hh"
#include "circuit/generators.hh"
#include "photonic/grid.hh"
#include "serialize/binary.hh"
#include "serialize/codecs.hh"
#include "serialize/json.hh"

#ifndef DCMBQC_GOLDEN_DIR
#define DCMBQC_GOLDEN_DIR "tests/golden"
#endif

namespace dcmbqc
{
namespace
{

namespace fs = std::filesystem;

/** One scratch directory per test; binaries run with it as cwd. */
class Cli : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = fs::temp_directory_path() /
            ("dcli" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()
                 ->current_test_info()
                 ->name());
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string path(const std::string &name) const
    {
        return (dir_ / name).string();
    }

    /** Exit code of `binary args` run in the scratch directory. */
    int
    exec(const std::string &binary, const std::string &args) const
    {
        const std::string command = "cd '" + dir_.string() + "' && '" +
            binary + "' " + args + " >/dev/null 2>&1";
        const int status = std::system(command.c_str());
        if (WIFEXITED(status))
            return WEXITSTATUS(status);
        return 128 + WTERMSIG(status);
    }

    int cli(const std::string &args) const
    {
        return exec(DCMBQC_CLI_PATH, args);
    }

    int daemon(const std::string &args) const
    {
        return exec(DCMBQCD_PATH, args);
    }

    /** A small circuit saved where the CLI can read it. */
    void
    saveCircuit(const std::string &name, const Circuit &circuit) const
    {
        ASSERT_TRUE(saveArtifactFile(path(name),
                                     encodeCircuitArtifact(circuit))
                        .ok());
    }

    /** The JSON of a report from its "distributed" section on. */
    static std::string
    distributedSection(const CompileReport &report)
    {
        const std::string json = toJson(report);
        const std::size_t at = json.find("\"distributed\"");
        return at == std::string::npos ? "" : json.substr(at);
    }

    std::string
    distributedSection(const std::string &name) const
    {
        auto bytes = loadArtifactFile(path(name));
        EXPECT_TRUE(bytes.ok());
        if (!bytes.ok())
            return "";
        auto report = decodeCompileReportArtifact(*bytes);
        EXPECT_TRUE(report.ok()) << report.status().toString();
        return report.ok() ? distributedSection(*report) : "";
    }

    /** The library compile `dcmbqc compile` runs by default. */
    static std::string
    libraryDefaultSection(const Circuit &circuit)
    {
        const CompilerDriver driver(
            CompileOptions()
                .numQpus(4)
                .kmax(4)
                .gridSize(gridSizeForQubits(circuit.numQubits()))
                .resourceState(ResourceStateType::Star5)
                .useBdir(true)
                .seed(1));
        auto report = driver.compile(CompileRequest::fromCircuit(circuit));
        EXPECT_TRUE(report.ok()) << report.status().toString();
        return report.ok() ? distributedSection(*report) : "";
    }

    fs::path dir_;
};

TEST_F(Cli, UsageErrorsExitTwo)
{
    saveCircuit("c.dcmbqc", makeQft(4));
    const char *cases[] = {
        "compile --family qft --qubits 4 --bogus",
        "compile --family qft --qubits",
        "compile --family qft --qubits 4 --qpus four",
        "compile --family qft --qubits 4 --seed -1",
        "compile --family qft --qubits 4 --seed 99999999999999999999999",
        "compile --family qft --qubits 4 --resource-state ring5",
        "compile --family qft --qubits 4 --in c.dcmbqc",
        "compile --qubits 4",
        "run c.dcmbqc c.dcmbqc",
        "run",
        "run c.dcmbqc --shots many",
        "stats",
        "bogus",
    };
    for (const char *args : cases)
        EXPECT_EQ(cli(args), 2) << "dcmbqc " << args;
    EXPECT_EQ(daemon("--socket d.sock --bogus"), 2);
    EXPECT_EQ(daemon("--socket d.sock --workers -1"), 2);
    EXPECT_EQ(daemon("--workers 2"), 2);
}

TEST_F(Cli, StatusErrorsExitOne)
{
    saveCircuit("c.dcmbqc", makeQft(4));
    const char *cases[] = {
        "compile --family qft --qubits 4 --window -5",
        "compile --family nope --qubits 4",
        "compile --in missing.dcmbqc",
        "compile --family qft --qubits 4 --portfolio 4 --baseline",
        "run c.dcmbqc --baseline --daemon d.sock",
        "run missing.dcmbqc",
        "inspect missing.dcmbqc",
    };
    for (const char *args : cases)
        EXPECT_EQ(cli(args), 1) << "dcmbqc " << args;
}

TEST_F(Cli, StreamPortfolioIsAStatusError)
{
    EXPECT_EQ(cli("compile --stream-family graphstate --rows 4 "
                  "--cols 4 --portfolio 4 --quiet"),
              1);
}

TEST_F(Cli, RepeatedQubitCircuitIsAStatusError)
{
    // A well-sealed circuit artifact whose CNOT names qubit 1 twice.
    BinaryWriter writer;
    writer.writeI32(3);
    writer.writeString("bad-cx");
    writer.writeU32(1);
    writer.writeU8(static_cast<std::uint8_t>(GateKind::CNOT));
    writer.writeI32(1);
    writer.writeI32(1);
    writer.writeI32(0);
    writer.writeF64(0.0);
    ASSERT_TRUE(saveArtifactFile(path("bad.dcmbqc"),
                                 sealArtifact(ArtifactKind::Circuit,
                                              writer.bytes()))
                    .ok());
    EXPECT_EQ(cli("compile --in bad.dcmbqc --quiet"), 1);
    EXPECT_EQ(cli("inspect bad.dcmbqc"), 1);
}

TEST_F(Cli, CompileMatchesLibraryDefaults)
{
    ASSERT_EQ(cli("compile --family qft --qubits 8 -o r.dcmbqc"), 0);
    const std::string section = distributedSection("r.dcmbqc");
    ASSERT_FALSE(section.empty());
    EXPECT_EQ(section, libraryDefaultSection(makeQft(8)));
}

TEST_F(Cli, DaemonCompileMatchesLibraryDefaults)
{
    ASSERT_EQ(cli("compile --family qft --qubits 8 --daemon d.sock "
                  "--autostart -o d.dcmbqc"),
              0);
    EXPECT_EQ(daemon("--drain --socket d.sock"), 0);
    // The drained daemon unlinks its socket on the way out.
    for (int i = 0; i < 100 && fs::exists(path("d.sock")); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(fs::exists(path("d.sock")));

    const std::string section = distributedSection("d.dcmbqc");
    ASSERT_FALSE(section.empty());
    EXPECT_EQ(section, libraryDefaultSection(makeQft(8)));
}

TEST_F(Cli, RunAllSkipsBackendsThatCannotRun)
{
    // QFT's T-like rotations are non-Clifford: the stabilizer and
    // schedule backends cannot run it.
    saveCircuit("qft.dcmbqc", makeQft(4));
    EXPECT_EQ(cli("run qft.dcmbqc --backend all --shots 8 -o all.dcmbqc"),
              0);
    auto bytes = loadArtifactFile(path("all.dcmbqc"));
    ASSERT_TRUE(bytes.ok());
    auto report = decodeCompileReportArtifact(*bytes);
    ASSERT_TRUE(report.ok());
    EXPECT_GE(report->executions.size(), 1u);
    for (const ExecResult &execution : report->executions)
        EXPECT_NE(execution.backend, "stabilizer");
    EXPECT_EQ(cli("run qft.dcmbqc --backend stabilizer --shots 8"), 1);
}

TEST_F(Cli, CertainLossRunsAndNonFiniteCycleIsRejected)
{
    // At 1 ms per cycle every stored photon is certainly lost: the
    // run reports it (analytic success 0, every shot lost) instead
    // of aborting. A NaN cycle period is a Status error.
    saveCircuit("clifford.dcmbqc", makeRandomCliffordCircuit(6, 30, 3));
    EXPECT_EQ(cli("run clifford.dcmbqc --qpus 2 --backend mc-loss "
                  "--shots 32 --cycle-ns 1e6 -o lost.dcmbqc"),
              0);
    auto bytes = loadArtifactFile(path("lost.dcmbqc"));
    ASSERT_TRUE(bytes.ok());
    auto report = decodeCompileReportArtifact(*bytes);
    ASSERT_TRUE(report.ok()) << report.status().toString();
    ASSERT_EQ(report->executions.size(), 1u);
    const ExecResult &lost = report->executions[0];
    EXPECT_EQ(lost.analyticSuccessProbability, 0.0);
    EXPECT_EQ(lost.completedShots, 0);
    EXPECT_EQ(lost.lostShots, 32);
    EXPECT_EQ(cli("run clifford.dcmbqc --qpus 2 --backend mc-loss "
                  "--shots 32 --cycle-ns nan"),
              1);
}

TEST_F(Cli, NonFiniteNoiseParameterIsAStatusError)
{
    // 1e999 parses to +inf; at zero storage the delay line's survival
    // would be exp(-inf * 0) = NaN.
    saveCircuit("clifford.dcmbqc", makeRandomCliffordCircuit(5, 20, 3));
    {
        std::ofstream out(path("inf.json"));
        out << R"({"mechanisms": [{"mechanism": "delay-line", )"
               R"("params": {"attenuation_db_per_km": 1e999}}]})";
    }
    EXPECT_EQ(cli("run clifford.dcmbqc --qpus 2 --backend all --shots 8 "
                  "--noise inf.json"),
              1);
    EXPECT_EQ(cli("compile --in clifford.dcmbqc --qpus 2 --noise inf.json "
                  "--quiet"),
              1);
}

TEST_F(Cli, InspectAndStatsReadEveryGoldenFile)
{
    int files = 0;
    for (const auto &entry :
         fs::directory_iterator(DCMBQC_GOLDEN_DIR)) {
        // frames/ holds raw wire payloads, not artifacts.
        if (!entry.is_regular_file())
            continue;
        const std::string file = "'" + entry.path().string() + "'";
        EXPECT_EQ(cli("inspect " + file), 0) << file;
        EXPECT_EQ(cli("stats " + file), 0) << file;
        ++files;
    }
    EXPECT_GE(files, 13);
}

} // namespace
} // namespace dcmbqc
