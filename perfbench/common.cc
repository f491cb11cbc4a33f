#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <iostream>
#include <map>
#include <random>

#include "common/json.h"
#include "mp/streaming.h"
#include "perfbench.h"
#include "series/generators.h"

namespace perfbench {

namespace vm = valmod;

vm::Result<vm::series::DataSeries> PerturbedSeries(const std::string& generator,
                                                   std::size_t n, std::uint64_t seed) {
  constexpr std::uint64_t kBaseSeed = 1;
  constexpr double kNoise = 1e-3;
  VALMOD_ASSIGN_OR_RETURN(vm::series::DataSeries base,
                          vm::synth::ByName(generator, n, kBaseSeed));
  std::vector<double> values(base.values().begin(), base.values().end());
  double mean = 0.0, square = 0.0;
  for (const double v : values) {
    mean += v;
    square += v * v;
  }
  const double count = static_cast<double>(values.size());
  mean /= count;
  const double stddev = std::sqrt(std::max(0.0, square / count - mean * mean));
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> noise(0.0, kNoise * stddev);
  for (double& v : values) v += noise(rng);
  return vm::series::DataSeries::Create(std::move(values));
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double RelativeIqr(const std::vector<double>& values) {
  const double median = Median(values);
  if (values.size() < 2 || median == 0.0) return 0.0;
  return (Quantile(values, 0.75) - Quantile(values, 0.25)) / median;
}

int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int one = 1;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Metrics::Add(std::string name, double value, std::string unit) {
  entries_.push_back({std::move(name), std::isfinite(value) ? value : 0.0,
                      std::move(unit)});
}

std::string Metrics::Json() const {
  std::string out = "{";
  char number[64];
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += ", ";
    std::snprintf(number, sizeof(number), "%.17g", entries_[i].value);
    out += "\"" + entries_[i].name + "\": {\"value\": " + number +
           ", \"unit\": \"" + entries_[i].unit + "\"}";
  }
  return out + "}";
}

void Tally::Record(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::cerr << "perfbench: FAILED " << what << "\n";
  }
}

bool Close(double a, double b, double tolerance) {
  return std::fabs(a - b) <= tolerance * std::max(1.0, std::fabs(b));
}

CounterSnapshot CounterSnapshot::Take() {
  return {vm::mass::EngineCountersSnapshot(),
          vm::fft::PlanRegistryCountersSnapshot(),
          vm::simd::KernelCountersSnapshot()};
}

namespace {

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void AddCounterDeltas(const CounterSnapshot& before,
                      const CounterSnapshot& after, Metrics* out) {
  const auto d = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };
  const vm::mass::EngineCounters& m0 = before.mass;
  const vm::mass::EngineCounters& m1 = after.mass;
  out->Add("mass.rows_overlap_save", d(m0.rows_overlap_save, m1.rows_overlap_save), "count");
  out->Add("mass.rows_fft_pair", d(m0.rows_fft_pair, m1.rows_fft_pair), "count");
  out->Add("mass.rows_fft_single", d(m0.rows_fft_single, m1.rows_fft_single), "count");
  out->Add("mass.rows_direct", d(m0.rows_direct, m1.rows_direct), "count");
  const double chunk_hits = d(m0.chunk_spectra_hits, m1.chunk_spectra_hits);
  const double chunk_misses = d(m0.chunk_spectra_misses, m1.chunk_spectra_misses);
  out->Add("mass.chunk_spectra_hit_ratio", Ratio(chunk_hits, chunk_hits + chunk_misses), "ratio");
  out->Add("mass.chunk_spectra_evictions",
           d(m0.chunk_spectra_evictions, m1.chunk_spectra_evictions), "count");
  out->Add("mass.chunk_spectra_adopted",
           d(m0.chunk_spectra_adopted, m1.chunk_spectra_adopted), "count");
  const double plan_hits = d(before.fft.hits, after.fft.hits);
  const double plan_misses = d(before.fft.misses, after.fft.misses);
  out->Add("fft.plan_hit_ratio", Ratio(plan_hits, plan_hits + plan_misses), "ratio");
  out->Add("fft.plan_misses", plan_misses, "count");
  const int target = static_cast<int>(vm::simd::ActiveTarget());
  for (int kind = 0; kind < vm::simd::kNumKernelKinds; ++kind) {
    out->Add(std::string("simd.calls.") +
                 vm::simd::KernelKindName(static_cast<vm::simd::KernelKind>(kind)),
             d(before.simd.calls[target][kind], after.simd.calls[target][kind]),
             "count");
  }
}

void AddCoreMetrics(const vm::core::ValmodResult& result, std::size_t series_size,
                    std::size_t min_length, double scan_s, double sweep_s,
                    double motifs_s, Metrics* out) {
  std::size_t valid = 0, invalid = 0, recomputed = 0, passes = 0;
  for (const vm::core::LengthStats& s : result.stats) {
    valid += s.valid_rows;
    invalid += s.invalid_rows;
    recomputed += s.recomputed_rows;
    passes += s.passes;
  }
  // Pairs the initial scan visits: every diagonal at or beyond the
  // exclusion zone of the min_length window count (computed, not counted).
  const double windows = static_cast<double>(series_size - min_length + 1);
  const double zone = static_cast<double>(vm::mp::ExclusionZoneFor(min_length, 0.5));
  const double diagonals = std::max(0.0, windows - zone);
  const double pairs = diagonals * (diagonals + 1.0) / 2.0;
  out->Add("core.motifs_s", motifs_s, "s");
  out->Add("core.scan_s", scan_s, "s");
  out->Add("core.sweep_s", sweep_s, "s");
  out->Add("core.scan_pairs_per_s", Ratio(pairs, scan_s), "pairs/s");
  out->Add("core.recomputed_rows", static_cast<double>(recomputed), "count");
  out->Add("core.certified_ratio",
           Ratio(static_cast<double>(valid), static_cast<double>(valid + invalid)),
           "ratio");
  out->Add("core.passes", static_cast<double>(passes), "count");
}

void ProbeMassBackends(const vm::series::DataSeries& series,
                       const std::vector<std::size_t>& lengths, Metrics* out) {
  constexpr std::size_t kBatch = 16;
  constexpr int kBatchesPerLength = 6;
  vm::mass::MassEngine engine(series);
  const std::pair<const char*, vm::mass::ConvolutionBackend> backends[] = {
      {"mass.row_us.overlap_save", vm::mass::ConvolutionBackend::kOverlapSave},
      {"mass.row_us.fft_pair", vm::mass::ConvolutionBackend::kFftPair}};
  for (const auto& [name, backend] : backends) {
    std::vector<double> per_row_us;
    for (const std::size_t length : lengths) {
      const std::size_t windows = series.size() - length + 1;
      std::vector<std::size_t> rows(kBatch);
      for (int b = -1; b < kBatchesPerLength; ++b) {  // b == -1 warms up
        for (std::size_t r = 0; r < kBatch; ++r) {
          rows[r] = ((static_cast<std::size_t>(b + 1) * kBatch + r) * 7919) % windows;
        }
        const Clock::time_point start = Clock::now();
        auto profiles = engine.ComputeRowProfiles(rows, length, 1, backend);
        const double us = SecondsSince(start) * 1e6 / kBatch;
        if (profiles.ok() && b >= 0) per_row_us.push_back(us);
      }
    }
    out->Add(name, Median(per_row_us), "us");
  }
}

void ProbeStreaming(std::span<const double> source, Metrics* out) {
  constexpr std::size_t kLength = 64, kWindow = 2048, kBatch = 128;
  constexpr int kBatches = 32;
  vm::mp::StreamingOptions options;
  options.max_points = kWindow;
  auto profile = vm::mp::StreamingProfile::Create(kLength, options);
  std::vector<double> append_ms, topk_ms;
  if (profile.ok() && !source.empty()) {
    std::vector<double> batch(kWindow);
    std::size_t cursor = 0;
    const auto fill = [&](std::size_t count) {
      batch.resize(count);
      for (double& v : batch) v = source[cursor++ % source.size()];
    };
    fill(kWindow);
    (void)profile->AppendAll(batch);
    for (int b = 0; b < kBatches; ++b) {
      fill(kBatch);
      Clock::time_point start = Clock::now();
      const bool ok = profile->AppendAll(batch).ok();
      append_ms.push_back(SecondsSince(start) * 1e3);
      start = Clock::now();
      const auto top = profile->TopMotifs(1);
      topk_ms.push_back(SecondsSince(start) * 1e3);
      if (!ok || top.empty()) break;
    }
  }
  out->Add("mp.append_ms", Median(append_ms), "ms");
  out->Add("mp.topk_ms", Median(topk_ms), "ms");
}

void AddSpanMetrics(vm::service::Service& service, Metrics* out) {
  static const char* const kNames[] = {"parse", "cache_lookup", "queue_wait",
                                       "compute", "serialize"};
  std::map<std::string, std::vector<double>> durations;
  for (const vm::service::SlowLog::Entry& entry : service.slowlog().Snapshot()) {
    if (entry.spans_json.empty()) continue;
    auto tree = vm::json::Parse(entry.spans_json);
    if (!tree.ok()) continue;
    const vm::json::Value* spans = tree->Find("spans");
    if (spans == nullptr || !spans->is_array()) continue;
    for (const vm::json::Value& span : spans->AsArray()) {
      durations[span.GetString("name", "")].push_back(
          span.GetNumber("duration_ns", 0.0) / 1e3);
    }
  }
  for (const char* name : kNames) {
    out->Add(std::string("service.span_p50_us.") + name, Median(durations[name]), "us");
  }
}

void AddServiceCounters(vm::service::Service& service, Metrics* out) {
  const vm::service::ResultCache::Stats cache = service.result_cache().stats();
  const vm::service::SchedulerStats sched = service.scheduler().stats();
  out->Add("service.cache_hit_ratio",
           Ratio(static_cast<double>(cache.hits),
                 static_cast<double>(cache.hits + cache.misses)),
           "ratio");
  out->Add("service.coalesced", static_cast<double>(cache.coalesced), "count");
  out->Add("service.rejected", static_cast<double>(sched.rejected), "count");
  out->Add("service.shed", static_cast<double>(sched.shed), "count");
}

void AddTraceOverhead(const std::vector<double>& untraced,
                      const std::vector<double>& traced, Metrics* out) {
  const double base = Median(untraced);
  if (untraced.empty() || traced.empty() || base <= 0.0) {
    out->Add("trace.overhead_ratio", 0.0, "ratio");
    out->Add("trace.overhead_below_noise", 1.0, "flag");
    return;
  }
  const auto [lo, hi] = std::minmax_element(untraced.begin(), untraced.end());
  const double noise = (*hi - *lo) / base;
  const double ratio = Median(traced) / base - 1.0;
  const bool below_noise = std::fabs(ratio) <= noise;
  out->Add("trace.overhead_ratio", below_noise ? noise : ratio, "ratio");
  out->Add("trace.overhead_below_noise", below_noise ? 1.0 : 0.0, "flag");
}

}  // namespace perfbench
