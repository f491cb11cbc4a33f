// Figure 2: the partial distance-profile machinery in action. Reports, per
// length, how many rows the p stored entries certified (valid partial
// profiles), how many could not be certified, how many were never scored
// because their lower bound stayed above the length's top-1 distance
// (bounded), and how many required an exact recomputation — plus the
// LB-pruning ablation: VALMOD's variable-length phase vs recomputing every
// profile at every length.
//
//   ./build/bench/bench_fig2_pruning [--n=8192] [--lmin=64] [--lmax=192]
//                                    [--p=10] [--timeout=30] [--dataset=ecg]

#include <cstdio>
#include <string>

#include "baselines/stomp_range.h"
#include "bench_util.h"
#include "common/flags.h"
#include "core/valmod.h"

namespace {

using valmod::Deadline;
using valmod::bench::FormatSeconds;
using valmod::bench::RunTimed;
using valmod::bench::TimedRun;

int Run(int argc, char** argv) {
  const valmod::Flags flags = valmod::Flags::Parse(argc, argv);
  const std::size_t n = static_cast<std::size_t>(flags.GetInt("n", 8192));
  const std::size_t lmin = static_cast<std::size_t>(flags.GetInt("lmin", 64));
  const std::size_t lmax = static_cast<std::size_t>(flags.GetInt("lmax", 192));
  const std::size_t p = static_cast<std::size_t>(flags.GetInt("p", 10));
  const double timeout = flags.GetDouble("timeout", 30.0);
  const std::string dataset = flags.GetString("dataset", "ecg");

  auto series = valmod::bench::MakeDataset(dataset, n, 1);
  if (!series.ok()) {
    std::fprintf(stderr, "%s\n", series.status().ToString().c_str());
    return 1;
  }

  valmod::core::ValmodOptions options;
  options.min_length = lmin;
  options.max_length = lmax;
  options.p = p;
  auto result = valmod::core::RunValmod(*series, options);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }

  std::printf("# Figure 2: partial distance-profile pruning, %s n=%zu "
              "lmin=%zu lmax=%zu p=%zu\n",
              dataset.c_str(), n, lmin, lmax, p);
  std::printf("%8s %12s %12s %12s %12s %12s %8s\n", "length", "valid",
              "invalid", "bounded", "constant", "recomputed", "passes");
  std::size_t total_recomputed = 0, total_rows = 0;
  const std::size_t step = result->stats.size() > 16
                               ? result->stats.size() / 16
                               : 1;
  for (std::size_t i = 0; i < result->stats.size(); ++i) {
    const auto& s = result->stats[i];
    total_recomputed += s.recomputed_rows;
    total_rows +=
        s.valid_rows + s.invalid_rows + s.bounded_rows + s.constant_rows;
    if (i % step == 0 || i + 1 == result->stats.size()) {
      std::printf("%8zu %12zu %12zu %12zu %12zu %12zu %8zu\n", s.length,
                  s.valid_rows, s.invalid_rows, s.bounded_rows,
                  s.constant_rows, s.recomputed_rows, s.passes);
    }
  }
  std::printf("\ntotal: %zu of %zu row-lengths recomputed exactly (%.3f%%); "
              "the rest were answered by their stored entries (p=%zu to "
              "start) or ruled out by their lower bound\n",
              total_recomputed, total_rows,
              100.0 * static_cast<double>(total_recomputed) /
                  static_cast<double>(total_rows ? total_rows : 1),
              p);

  // Ablation C: what the same range costs without the lower-bound pruning
  // (i.e. a full profile per length — the STOMP-adapted baseline).
  const TimedRun no_pruning = RunTimed(timeout, [&](Deadline deadline) {
    valmod::baselines::StompRangeOptions baseline;
    baseline.min_length = lmin;
    baseline.max_length = lmax;
    baseline.deadline = deadline;
    return valmod::baselines::RunStompRange(*series, baseline).status();
  });
  std::printf("\nablation (LB pruning off = full profile per length):\n");
  std::printf("%-28s %12.3f s (init %.3f + updates %.3f)\n",
              "VALMOD with LB pruning",
              result->init_seconds + result->update_seconds,
              result->init_seconds, result->update_seconds);
  std::printf("%-28s %12s s\n", "full recompute per length",
              FormatSeconds(no_pruning, timeout).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
