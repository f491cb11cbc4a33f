// Golden results for VALMOD motif output (see mass::kResultsVersion). The
// automatic backend selection determines the exact ulps of every motif
// distance, so the output of the one selection policy is pinned
// byte-for-byte in motifs_<case>_v<kResultsVersion>.csv. Any change to the
// cost model that shifts a choice fails this test; if the shift is
// intentional, bump mass::kResultsVersion and regenerate in place per the
// README ("Regenerating goldens"):
//
//      VALMOD_REGEN_GOLDENS=1 ./build/valmod_golden_test
//
// The golden cases recompute rows through the engine, so the pinned bytes
// cover the backend the cost model picks, not just the initial scan.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/valmod.h"
#include "series/generators.h"

#ifndef VALMOD_GOLDEN_DIR
#error "VALMOD_GOLDEN_DIR must point at tests/goldens"
#endif

namespace valmod::core {
namespace {

struct GoldenCase {
  const char* name;
  const char* generator;
  std::size_t n;
  std::uint64_t seed;
  std::size_t lmin, lmax, k, p;
};

// Must stay in sync with the header comment of the committed goldens; the
// files bind each case to exact output bytes.
constexpr GoldenCase kCases[] = {
    {"ecg8192", "ecg", 8192, 7, 120, 136, 2, 10},
    {"random_walk3000", "random_walk", 3000, 5, 48, 64, 3, 5},
};

/// Renders a result exactly as the golden files store it: full-precision
/// %.17g so equality means bit-equality of every double.
std::string FormatGolden(const GoldenCase& c, const ValmodResult& result) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "# valmod motif golden: case=%s generator=%s n=%zu seed=%llu "
                "lmin=%zu lmax=%zu k=%zu p=%zu results_version=%d\n",
                c.name, c.generator, c.n,
                static_cast<unsigned long long>(c.seed), c.lmin, c.lmax, c.k,
                c.p, mass::kResultsVersion);
  out += line;
  out += "length,rank,offset_a,offset_b,distance,normalized\n";
  for (const auto& lm : result.per_length) {
    for (std::size_t r = 0; r < lm.motifs.size(); ++r) {
      const auto& m = lm.motifs[r];
      std::snprintf(line, sizeof(line), "%zu,%zu,%lld,%lld,%.17g,%.17g\n",
                    lm.length, r + 1, static_cast<long long>(m.offset_a),
                    static_cast<long long>(m.offset_b), m.distance,
                    m.normalized_distance);
      out += line;
    }
  }
  return out;
}

std::string GoldenPath(const GoldenCase& c) {
  return std::string(VALMOD_GOLDEN_DIR) + "/motifs_" + c.name + "_v" +
         std::to_string(mass::kResultsVersion) + ".csv";
}

std::string RunCase(const GoldenCase& c) {
  auto series = synth::ByName(c.generator, c.n, c.seed);
  EXPECT_TRUE(series.ok());
  ValmodOptions options;
  options.min_length = c.lmin;
  options.max_length = c.lmax;
  options.k = c.k;
  options.p = c.p;
  auto result = RunValmod(*series, options);
  EXPECT_TRUE(result.ok());
  return FormatGolden(c, *result);
}

bool RegenRequested() {
  const char* regen = std::getenv("VALMOD_REGEN_GOLDENS");
  return regen != nullptr && regen[0] != '\0' && regen[0] != '0';
}

void CompareOrRegen(const GoldenCase& c) {
  const std::string actual = RunCase(c);
  const std::string path = GoldenPath(c);
  if (RegenRequested()) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    ASSERT_TRUE(out.good());
    std::printf("regenerated %s\n", path.c_str());
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " (run with VALMOD_REGEN_GOLDENS=1 to create)";
  std::stringstream want;
  want << in.rdbuf();
  // Byte equality, not numeric closeness: the golden pins the exact result
  // ulps of this case under the current policy.
  EXPECT_EQ(actual, want.str())
      << "output of " << c.name << " diverged from " << path
      << "; if the backend-selection policy changed intentionally, bump "
         "mass::kResultsVersion and regenerate (see README)";
}

class GoldenTest : public ::testing::TestWithParam<GoldenCase> {};

// The policy's output is pinned, so an accidental cost-model drift (new
// weights, new formula) cannot silently change released results.
TEST_P(GoldenTest, CurrentVersionMatchesGolden) { CompareOrRegen(GetParam()); }

INSTANTIATE_TEST_SUITE_P(Cases, GoldenTest, ::testing::ValuesIn(kCases));

}  // namespace
}  // namespace valmod::core
