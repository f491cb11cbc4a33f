// Regression tests that run the real valmod_cli and valmod_server binaries.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <string>

#ifndef VALMOD_CLI_BINARY
#error "VALMOD_CLI_BINARY must point at the valmod_cli executable"
#endif
#ifndef VALMOD_SERVER_BINARY
#error "VALMOD_SERVER_BINARY must point at the valmod_server executable"
#endif

namespace valmod {
namespace {

struct CliRun {
  int status = -1;
  std::string out;
};

/// Runs a shell command and captures its stdout and wait status.
CliRun RunCommand(const std::string& command) {
  std::FILE* pipe = popen(command.c_str(), "r");
  CliRun run;
  if (pipe == nullptr) return run;
  char buffer[4096];
  std::size_t n;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    run.out.append(buffer, n);
  }
  run.status = pclose(pipe);
  return run;
}

/// Runs valmod_cli with `args`; `env` (e.g. "VAR=value") prefixes the
/// command's environment.
CliRun RunCli(const std::string& args, const std::string& env = "") {
  return RunCommand(env + " " + VALMOD_CLI_BINARY + " " + args +
                    " 2>/dev/null");
}

/// Exit code of a run that exited normally, else -1.
int ExitCode(const CliRun& run) {
  return WIFEXITED(run.status) ? WEXITSTATUS(run.status) : -1;
}

// A huge --threads used to allocate one full set of scan state (a
// partial-profile set of n*p entries plus two profile arrays) per requested
// thread, and the process was killed. The scan now sizes its per-worker
// state by the pool size, and the motifs do not depend on the thread count.
TEST(CliTest, HugeThreadCountRunsAndMatchesSerial) {
  const std::string motifs =
      "motifs --generate=ecg --n=4096 --lmin=64 --lmax=66";
  const CliRun serial = RunCli(motifs + " --threads=1");
  ASSERT_EQ(serial.status, 0);
  const CliRun huge = RunCli(motifs + " --threads=100000");
  ASSERT_EQ(huge.status, 0);
  EXPECT_NE(huge.out.find("\n64,1,"), std::string::npos) << huge.out;
  EXPECT_NE(huge.out.find("\n66,1,"), std::string::npos) << huge.out;
  EXPECT_EQ(huge.out, serial.out);
}

// avx512 is not a dispatch target. As a flag it is a usage error; as the
// VALMOD_SIMD value it only warns and keeps the auto-detected target, so the
// motifs are the bytes of a run without it.
TEST(CliTest, Avx512IsAnUnknownSimdTarget) {
  const std::string motifs =
      "motifs --generate=ecg --n=1024 --lmin=32 --lmax=34";
  EXPECT_NE(RunCli(motifs + " --simd=avx512").status, 0);
  const CliRun plain = RunCli(motifs);
  ASSERT_EQ(plain.status, 0);
  const CliRun env = RunCli(motifs, "VALMOD_SIMD=avx512");
  ASSERT_EQ(env.status, 0);
  EXPECT_EQ(env.out, plain.out);
}

// The backend choice is a pure function of the request's shape, so there
// is no --calibrate flag: both binaries reject it like any other unknown
// flag (usage error, exit 2, named on stderr).
TEST(CliTest, CalibrateIsAnUnknownFlag) {
  const CliRun cli = RunCommand(
      std::string(VALMOD_CLI_BINARY) +
      " motifs --generate=ecg --n=1024 --lmin=32 --lmax=34 --calibrate 2>&1");
  EXPECT_EQ(ExitCode(cli), 2) << cli.out;
  EXPECT_NE(cli.out.find("unknown flag --calibrate"), std::string::npos)
      << cli.out;

  const CliRun server =
      RunCommand(std::string(VALMOD_SERVER_BINARY) +
                 " --stdio --calibrate 2>&1 </dev/null");
  EXPECT_EQ(ExitCode(server), 2) << server.out;
  EXPECT_NE(server.out.find("unknown flag --calibrate"), std::string::npos)
      << server.out;
}

// Length 1 would give an all-zero profile: it is the library's
// InvalidArgument (exit 1), and length 2 runs.
TEST(CliTest, ProfileRejectsLengthOne) {
  const std::string profile =
      "profile --generate=ecg --n=512 --output=/dev/null";
  const CliRun one = RunCommand(std::string(VALMOD_CLI_BINARY) + " " +
                                profile + " --l=1 2>&1");
  EXPECT_EQ(ExitCode(one), 1) << one.out;
  EXPECT_NE(one.out.find("subsequence length must be >= 2"),
            std::string::npos)
      << one.out;
  EXPECT_EQ(ExitCode(RunCli(profile + " --l=2")), 0);
}

}  // namespace
}  // namespace valmod
