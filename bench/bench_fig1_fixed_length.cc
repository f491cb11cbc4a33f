// Figure 1 (left): matrix profile and index profile of an ECG snippet at a
// fixed subsequence length. Prints the top motifs (the "partial heartbeat"
// of the paper) and emits the profile data as CSV.
//
//   ./build/bench/bench_fig1_fixed_length [--n=5000] [--l=50]
//                                         [--out=fig1_left.csv]

#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/timer.h"
#include "mp/motif.h"
#include "mp/stomp.h"
#include "series/generators.h"
#include "series/io.h"

namespace {

int Run(int argc, char** argv) {
  const valmod::Flags flags = valmod::Flags::Parse(argc, argv);
  const std::size_t n = static_cast<std::size_t>(flags.GetInt("n", 5000));
  const std::size_t l = static_cast<std::size_t>(flags.GetInt("l", 50));
  const std::string out = flags.GetString("out", "fig1_left.csv");

  valmod::synth::EcgOptions ecg;
  ecg.length = n;
  ecg.seed = 7;
  ecg.samples_per_beat = 400.0;
  auto series = valmod::synth::Ecg(ecg);
  if (!series.ok()) {
    std::fprintf(stderr, "%s\n", series.status().ToString().c_str());
    return 1;
  }

  valmod::WallTimer timer;
  auto profile = valmod::mp::ComputeStomp(*series, l, {});
  if (!profile.ok()) {
    std::fprintf(stderr, "%s\n", profile.status().ToString().c_str());
    return 1;
  }
  std::printf("# Figure 1 (left): ECG matrix profile, l=%zu, n=%zu\n", l, n);
  std::printf("matrix profile computed in %.3fs\n", timer.ElapsedSeconds());

  const auto motifs = valmod::mp::TopKMotifs(*profile, 4);
  std::printf("top fixed-length motifs (partial heartbeats at this scale):\n");
  std::printf("%6s %10s %10s %12s\n", "rank", "offset_a", "offset_b",
              "distance");
  for (std::size_t i = 0; i < motifs.size(); ++i) {
    std::printf("%6zu %10lld %10lld %12.4f\n", i + 1,
                static_cast<long long>(motifs[i].offset_a),
                static_cast<long long>(motifs[i].offset_b),
                motifs[i].distance);
  }

  std::vector<double> raw(series->values().begin(), series->values().end());
  std::vector<double> indices(profile->indices.begin(),
                              profile->indices.end());
  auto status = valmod::series::WriteColumnsCsv(
      {valmod::series::Column{"ecg", raw},
       valmod::series::Column{"matrix_profile", profile->distances},
       valmod::series::Column{"index_profile", indices}},
      out);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
