// Shared pieces of the repository benchmark (see perfbench/README.md):
// command-line options, order statistics, the metric report, the
// correctness tally, and the per-layer probes every workload runs in its
// traced mode.
#ifndef VALMOD_PERFBENCH_PERFBENCH_H_
#define VALMOD_PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/valmod.h"
#include "fft/plan.h"
#include "mass/engine.h"
#include "series/data_series.h"
#include "service/server.h"
#include "simd/dispatch.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small inputs, so the self-test finishes in seconds.
  bool tiny = false;
  /// Corrupts one answer before it is checked (self-test of the oracles).
  bool perturb = false;
};

/// A generator's draw at a fixed base seed plus Gaussian noise from `seed`
/// at 1e-3 of the draw's standard deviation. How much pruning certifies,
/// and so what a VALMOD run costs, depends on the draw: random_walk runs of
/// the valmod_sweep shape took 1.4 s to 5.3 s across draws, and the cost of
/// a streaming append depends on how many rows each eviction orphans.
/// Perturbing one base draw gives every seed fresh values and the same
/// difficulty, so run-to-run spread measures the code, not the draw. Base
/// seed 1 is the draw valmod_cli uses by default.
valmod::Result<valmod::series::DataSeries> PerturbedSeries(const std::string& generator,
                                                           std::size_t n, std::uint64_t seed);

/// Quantile with linear interpolation between closest ranks; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
/// (Q3 - Q1) / median; 0 when fewer than two samples.
double RelativeIqr(const std::vector<double>& values);

/// A blocking TCP connection to 127.0.0.1:`port` with TCP_NODELAY set, or
/// -1.
int ConnectLoopback(int port);

double ProcessCpuSeconds();
double ThreadCpuSeconds();
double PeakRssMib();

/// Named metrics with units, rendered in insertion order.
class Metrics {
 public:
  void Add(std::string name, double value, std::string unit);
  std::string Json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Operations attempted and failed. A wrong answer is a failure.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Counts one operation; logs `what` to stderr when it failed.
  void Record(bool ok, const std::string& what);
};

/// |a - b| within a relative tolerance (absolute near zero).
bool Close(double a, double b, double tolerance = 1e-6);

/// Everything a workload hands back to main: end-to-end metrics (untraced
/// mode), per-layer metrics (traced mode), the figures under the workload
/// definitions' own names for the detail line, and the correctness tally.
struct Outcome {
  Metrics end_to_end;
  Metrics per_layer;
  Metrics detail;
  Tally tally;
};

int RunValmodWorkload(const Options& options, Outcome* outcome);
int RunServeMixed(const Options& options, Outcome* outcome);

// ---------------------------------------------------------------------------
// Per-layer probes (traced mode). Each reads counters the layers export or
// times calls into a layer's public functions; nothing inside src/ changes.
// ---------------------------------------------------------------------------

/// Process-wide counters of the mass, fft and simd layers at one instant.
struct CounterSnapshot {
  valmod::mass::EngineCounters mass;
  valmod::fft::PlanRegistryCounters fft;
  valmod::simd::KernelCounters simd;
  static CounterSnapshot Take();
};

/// mass.rows_*, mass.chunk_spectra_*, fft.plan_* and simd.calls.* as the
/// difference between two snapshots.
void AddCounterDeltas(const CounterSnapshot& before,
                      const CounterSnapshot& after, Metrics* out);

/// core.* from one VALMOD result; `scan_s`, `sweep_s` and `motifs_s` are
/// passed separately so callers can report medians over several runs.
void AddCoreMetrics(const valmod::core::ValmodResult& result,
                    std::size_t series_size, std::size_t min_length,
                    double scan_s, double sweep_s, double motifs_s,
                    Metrics* out);

/// mass.row_us.{overlap_save,fft_pair}: per-row time of
/// MassEngine::ComputeRowProfiles with the backend forced, on a warm
/// engine, in batches of 16 rows at each of `lengths`.
void ProbeMassBackends(const valmod::series::DataSeries& series,
                       const std::vector<std::size_t>& lengths, Metrics* out);

/// mp.append_ms / mp.topk_ms: StreamingProfile::AppendAll of 128-point
/// batches and TopMotifs(1) at l=64, W=2048 (the serve_mixed stream),
/// fed from `source` (reused cyclically).
void ProbeStreaming(std::span<const double> source, Metrics* out);

/// Median duration per span name (parse, cache_lookup, queue_wait,
/// compute, serialize) over the span trees the service's slow-query log
/// holds, as service.span_p50_us.<name>.
void AddSpanMetrics(valmod::service::Service& service, Metrics* out);

/// service.cache_hit_ratio / coalesced / rejected / shed from the cache
/// and scheduler counters.
void AddServiceCounters(valmod::service::Service& service, Metrics* out);

/// trace.overhead_ratio and trace.overhead_below_noise from the traced and
/// untraced samples of one quantity. When the difference of the medians is
/// within the untraced samples' spread (range / median), the ratio reported
/// is that noise bound and the flag is 1.
void AddTraceOverhead(const std::vector<double>& untraced,
                      const std::vector<double>& traced, Metrics* out);

}  // namespace perfbench

#endif  // VALMOD_PERFBENCH_PERFBENCH_H_
