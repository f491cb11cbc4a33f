#include "service/openmetrics.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/json.h"
#include "fft/plan.h"
#include "mass/backend.h"
#include "mass/engine.h"
#include "simd/dispatch.h"

namespace valmod::service {

namespace {

void AppendU64(std::uint64_t value, std::string* out) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%" PRIu64, value);
  *out += buffer;
}

void AppendSeconds(double value, std::string* out) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  *out += buffer;
}

/// `# TYPE family type` header. `family` is the name WITHOUT the _total
/// suffix for counters, per the exposition format.
void Type(std::string_view family, std::string_view type, std::string* out) {
  *out += "# TYPE ";
  out->append(family);
  *out += ' ';
  out->append(type);
  *out += '\n';
}

void CounterLine(std::string_view family, std::string_view labels,
                 std::uint64_t value, std::string* out) {
  out->append(family);
  *out += "_total";
  out->append(labels);
  *out += ' ';
  AppendU64(value, out);
  *out += '\n';
}

void GaugeLine(std::string_view name, std::string_view labels, double value,
               std::string* out) {
  out->append(name);
  out->append(labels);
  *out += ' ';
  AppendSeconds(value, out);
  *out += '\n';
}

std::string VerbLabel(const std::string& verb) {
  return "{verb=\"" + verb + "\"}";
}

}  // namespace

std::string RenderOpenMetrics(const VerbMetrics& metrics,
                              const ResultCache::Stats& cache,
                              const SchedulerStats& scheduler) {
  std::string out;
  out.reserve(8192);
  const std::vector<VerbMetrics::VerbSnapshot> verbs = metrics.Snapshot();

  Type("valmod_uptime_seconds", "gauge", &out);
  GaugeLine("valmod_uptime_seconds", "", metrics.UptimeSeconds(), &out);

  Type("valmod_build_info", "gauge", &out);
  out += "valmod_build_info{simd_target=\"";
  out += simd::TargetName(simd::ActiveTarget());
  out += "\",results_version=\"";
  AppendU64(static_cast<std::uint64_t>(mass::kResultsVersion), &out);
  out += "\"} 1\n";

  // Per-verb request counters.
  Type("valmod_requests", "counter", &out);
  for (const auto& verb : verbs) {
    CounterLine("valmod_requests", VerbLabel(verb.verb), verb.count, &out);
  }
  Type("valmod_request_errors", "counter", &out);
  for (const auto& verb : verbs) {
    CounterLine("valmod_request_errors", VerbLabel(verb.verb), verb.errors,
                &out);
  }

  // Per-verb latency histograms: the quarter-octave histogram re-rendered
  // as cumulative per-doubling buckets, with `le` edges in SECONDS (the
  // exposition convention). The top stored bucket absorbs overflow, so its
  // cumulative count equals the total and +Inf adds no information beyond
  // closing the histogram.
  Type("valmod_request_latency_seconds", "histogram", &out);
  for (const auto& verb : verbs) {
    for (int d = 0; d < LatencyHistogram::kDoublings; ++d) {
      const double upper_ms =
          LatencyHistogram::kMinMs * std::exp2(static_cast<double>(d + 1));
      out += "valmod_request_latency_seconds_bucket{verb=\"";
      out += verb.verb;
      out += "\",le=\"";
      AppendSeconds(upper_ms / 1e3, &out);
      out += "\"} ";
      AppendU64(verb.cumulative[static_cast<std::size_t>(d)], &out);
      out += '\n';
    }
    out += "valmod_request_latency_seconds_bucket{verb=\"";
    out += verb.verb;
    out += "\",le=\"+Inf\"} ";
    AppendU64(verb.count, &out);
    out += '\n';
    out += "valmod_request_latency_seconds_sum";
    out += VerbLabel(verb.verb);
    out += ' ';
    AppendSeconds(verb.sum_ms / 1e3, &out);
    out += '\n';
    out += "valmod_request_latency_seconds_count";
    out += VerbLabel(verb.verb);
    out += ' ';
    AppendU64(verb.count, &out);
    out += '\n';
  }

  // Result cache: lookup traffic plus the flight-coalescing protocol.
  Type("valmod_result_cache_hits", "counter", &out);
  CounterLine("valmod_result_cache_hits", "", cache.hits, &out);
  Type("valmod_result_cache_misses", "counter", &out);
  CounterLine("valmod_result_cache_misses", "", cache.misses, &out);
  Type("valmod_result_cache_insertions", "counter", &out);
  CounterLine("valmod_result_cache_insertions", "", cache.insertions, &out);
  Type("valmod_result_cache_evictions", "counter", &out);
  CounterLine("valmod_result_cache_evictions", "", cache.evictions, &out);
  Type("valmod_result_cache_flights_led", "counter", &out);
  CounterLine("valmod_result_cache_flights_led", "", cache.flights_led, &out);
  Type("valmod_result_cache_coalesced_waiters", "counter", &out);
  CounterLine("valmod_result_cache_coalesced_waiters", "", cache.coalesced,
              &out);
  Type("valmod_result_cache_waiters_served", "counter", &out);
  CounterLine("valmod_result_cache_waiters_served", "", cache.waiters_served,
              &out);
  Type("valmod_result_cache_failovers", "counter", &out);
  CounterLine("valmod_result_cache_failovers", "", cache.failovers, &out);
  Type("valmod_result_cache_entries", "gauge", &out);
  GaugeLine("valmod_result_cache_entries", "",
            static_cast<double>(cache.entries), &out);
  Type("valmod_result_cache_inflight_flights", "gauge", &out);
  GaugeLine("valmod_result_cache_inflight_flights", "",
            static_cast<double>(cache.inflight), &out);

  // Scheduler admission/retirement counters and queue gauges.
  Type("valmod_scheduler_admitted", "counter", &out);
  CounterLine("valmod_scheduler_admitted", "", scheduler.admitted, &out);
  Type("valmod_scheduler_completed", "counter", &out);
  CounterLine("valmod_scheduler_completed", "", scheduler.completed, &out);
  Type("valmod_scheduler_rejected", "counter", &out);
  CounterLine("valmod_scheduler_rejected", "", scheduler.rejected, &out);
  Type("valmod_scheduler_shed", "counter", &out);
  CounterLine("valmod_scheduler_shed", "", scheduler.shed, &out);
  Type("valmod_scheduler_cancelled", "counter", &out);
  CounterLine("valmod_scheduler_cancelled", "", scheduler.cancelled, &out);
  Type("valmod_scheduler_expired", "counter", &out);
  CounterLine("valmod_scheduler_expired", "", scheduler.expired, &out);
  Type("valmod_scheduler_overruns", "counter", &out);
  CounterLine("valmod_scheduler_overruns", "", scheduler.overruns, &out);
  Type("valmod_scheduler_queue_depth", "gauge", &out);
  GaugeLine("valmod_scheduler_queue_depth", "",
            static_cast<double>(scheduler.queue_depth), &out);
  Type("valmod_scheduler_active", "gauge", &out);
  GaugeLine("valmod_scheduler_active", "",
            static_cast<double>(scheduler.active), &out);
  Type("valmod_scheduler_stalled", "gauge", &out);
  GaugeLine("valmod_scheduler_stalled", "",
            static_cast<double>(scheduler.stalled), &out);

  // Engine caches and per-backend row throughput (process-wide totals).
  const mass::EngineCounters engine = mass::EngineCountersSnapshot();
  Type("valmod_engine_series_spectra_hits", "counter", &out);
  CounterLine("valmod_engine_series_spectra_hits", "",
              engine.series_spectra_hits, &out);
  Type("valmod_engine_series_spectra_misses", "counter", &out);
  CounterLine("valmod_engine_series_spectra_misses", "",
              engine.series_spectra_misses, &out);
  Type("valmod_engine_chunk_spectra_hits", "counter", &out);
  CounterLine("valmod_engine_chunk_spectra_hits", "",
              engine.chunk_spectra_hits, &out);
  Type("valmod_engine_chunk_spectra_misses", "counter", &out);
  CounterLine("valmod_engine_chunk_spectra_misses", "",
              engine.chunk_spectra_misses, &out);
  Type("valmod_engine_chunk_spectra_evictions", "counter", &out);
  CounterLine("valmod_engine_chunk_spectra_evictions", "",
              engine.chunk_spectra_evictions, &out);
  Type("valmod_engine_rows", "counter", &out);
  CounterLine("valmod_engine_rows", "{backend=\"direct\"}", engine.rows_direct,
              &out);
  CounterLine("valmod_engine_rows", "{backend=\"fft_pair\"}",
              engine.rows_fft_pair, &out);
  CounterLine("valmod_engine_rows", "{backend=\"overlap_save\"}",
              engine.rows_overlap_save, &out);

  // FFT plan registry.
  const fft::PlanRegistryCounters plans = fft::PlanRegistryCountersSnapshot();
  Type("valmod_fft_plan_hits", "counter", &out);
  CounterLine("valmod_fft_plan_hits", "", plans.hits, &out);
  Type("valmod_fft_plan_misses", "counter", &out);
  CounterLine("valmod_fft_plan_misses", "", plans.misses, &out);
  Type("valmod_fft_plan_evictions", "counter", &out);
  CounterLine("valmod_fft_plan_evictions", "", plans.evictions, &out);

  // SIMD dispatch: one series per (target, kernel), zeros included so the
  // series set is stable across scrapes.
  const simd::KernelCounters kernels = simd::KernelCountersSnapshot();
  Type("valmod_simd_kernel_calls", "counter", &out);
  for (int t = 0; t < simd::kNumTargets; ++t) {
    for (int k = 0; k < simd::kNumKernelKinds; ++k) {
      std::string labels = "{target=\"";
      labels += simd::TargetName(static_cast<simd::Target>(t));
      labels += "\",kernel=\"";
      labels += simd::KernelKindName(static_cast<simd::KernelKind>(k));
      labels += "\"}";
      CounterLine("valmod_simd_kernel_calls", labels, kernels.calls[t][k],
                  &out);
    }
  }

  out += "# EOF\n";
  return out;
}

std::string RenderTraceJson(const trace::TraceContext& context) {
  const std::vector<trace::TraceContext::Span> spans = context.Snapshot();
  std::string out = "{\"wall_ns\":";
  AppendU64(context.ElapsedNs(), &out);
  out += ",\"dropped\":";
  AppendU64(context.dropped(), &out);
  out += ",\"spans\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"name\":";
    json::AppendQuoted(spans[i].name, &out);
    out += ",\"parent\":";
    out += std::to_string(spans[i].parent);
    out += ",\"start_ns\":";
    AppendU64(spans[i].start_ns, &out);
    out += ",\"duration_ns\":";
    AppendU64(spans[i].duration_ns, &out);
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace valmod::service
