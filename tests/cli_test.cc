// Regression tests that run the real valmod_cli binary.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#ifndef VALMOD_CLI_BINARY
#error "VALMOD_CLI_BINARY must point at the valmod_cli executable"
#endif

namespace valmod {
namespace {

struct CliRun {
  int status = -1;
  std::string out;
};

/// Runs valmod_cli with `args`; `env` (e.g. "VAR=value") prefixes the
/// command's environment.
CliRun RunCli(const std::string& args, const std::string& env = "") {
  const std::string command =
      env + " " + VALMOD_CLI_BINARY + " " + args + " 2>/dev/null";
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

}  // namespace
}  // namespace valmod
