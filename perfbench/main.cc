// The repository benchmark (perfbench/README.md). One process runs one
// workload:
//
//   valmod_perfbench --workload <valmod_scan|valmod_sweep|serve_mixed>
//       --seed <n> --seconds <s> --trace <0|1> [--tiny] [--perturb]
//
// The last stdout line is the result object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// carrying the end-to-end metrics with --trace 0 and the per-layer metrics
// with --trace 1. The line before it repeats the workload's figures under
// the names the workload definitions use (motifs_s, query_p99_ms, ...).
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "perfbench.h"

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--perturb") {
      options.perturb = true;
    } else {
      std::cerr << "valmod_perfbench: unknown argument '" << arg << "'\n";
      return 2;
    }
  }

  perfbench::Outcome outcome;
  int status = 2;
  if (options.workload == "valmod_scan" || options.workload == "valmod_sweep") {
    status = perfbench::RunValmodWorkload(options, &outcome);
  } else if (options.workload == "serve_mixed") {
    status = perfbench::RunServeMixed(options, &outcome);
  } else {
    std::cerr << "valmod_perfbench: unknown workload '" << options.workload << "'\n";
  }
  if (status != 0) return status;

  const perfbench::Tally& tally = outcome.tally;
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"detail\": %s}\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              outcome.detail.Json().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              tally.failed == 0 && tally.attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed),
              (options.trace ? outcome.per_layer : outcome.end_to_end).Json().c_str());
  return 0;
}
