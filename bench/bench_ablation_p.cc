// Ablation A (research paper [4], parameter study): sensitivity of VALMOD
// to p, the initial number of entries kept per partial distance profile.
// Larger p certifies more rows without exact recomputation, at O(n p)
// memory and per-length update cost for the seeding scan's per-worker
// sets. Recomputed rows grow past p on their own, so the run's partial
// profiles hold up to n * max(p, 32) entries whatever p is, and small p
// loses less than it did with a fixed capacity.
//
//   ./build/bench/bench_ablation_p [--n=8192] [--lmin=64] [--lmax=128]
//                                  [--ps=1,2,5,10,20,50]

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "core/valmod.h"

namespace {

std::vector<std::size_t> ParseList(const std::string& text) {
  std::vector<std::size_t> values;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    values.push_back(static_cast<std::size_t>(
        std::strtoull(text.substr(start, comma - start).c_str(), nullptr,
                      10)));
    start = comma + 1;
  }
  return values;
}

int Run(int argc, char** argv) {
  const valmod::Flags flags = valmod::Flags::Parse(argc, argv);
  const std::size_t n = static_cast<std::size_t>(flags.GetInt("n", 8192));
  const std::size_t lmin = static_cast<std::size_t>(flags.GetInt("lmin", 64));
  const std::size_t lmax = static_cast<std::size_t>(flags.GetInt("lmax", 128));
  const std::vector<std::size_t> ps =
      ParseList(flags.GetString("ps", "1,2,5,10,20,50"));

  auto series = valmod::bench::MakeDataset("ecg", n, 1);
  if (!series.ok()) {
    std::fprintf(stderr, "%s\n", series.status().ToString().c_str());
    return 1;
  }

  std::printf("# Ablation: sensitivity to p (ECG n=%zu, range [%zu, %zu])\n",
              n, lmin, lmax);
  std::printf("%6s %12s %12s %14s %16s\n", "p", "init (s)", "update (s)",
              "total (s)", "rows recomputed");
  for (std::size_t p : ps) {
    valmod::core::ValmodOptions options;
    options.min_length = lmin;
    options.max_length = lmax;
    options.p = p;
    auto result = valmod::core::RunValmod(*series, options);
    if (!result.ok()) {
      std::fprintf(stderr, "p=%zu: %s\n", p,
                   result.status().ToString().c_str());
      continue;
    }
    std::size_t recomputed = 0;
    for (const auto& s : result->stats) recomputed += s.recomputed_rows;
    std::printf("%6zu %12.3f %12.3f %14.3f %16zu\n", p,
                result->init_seconds, result->update_seconds,
                result->init_seconds + result->update_seconds, recomputed);
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
