#include "service/telemetry.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <utility>
#include <vector>

#include "common/json.h"
#include "fft/plan.h"
#include "mass/backend.h"
#include "mass/engine.h"
#include "simd/dispatch.h"

namespace valmod::service {

namespace {

using json::Value;

constexpr SampleGroup kProcess{"", "valmod"};
constexpr SampleGroup kCache{"cache", "valmod_result_cache"};
constexpr SampleGroup kScheduler{"scheduler", "valmod_scheduler"};
constexpr SampleGroup kEngine{"engine", "valmod_engine"};
constexpr SampleGroup kFftPlan{"fft_plan", "valmod_fft_plan"};
constexpr SampleGroup kSimd{"simd", "valmod_simd"};

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

std::string VerbLabel(const std::string& verb) {
  return "{verb=\"" + verb + "\"}";
}

/// The child object under `key`, created on first use.
Value::Object& ChildObject(Value::Object& parent, std::string_view key) {
  Value& child = parent[std::string(key)];
  if (!child.is_object()) child = Value(Value::Object{});
  return child.AsObject();
}

}  // namespace

Telemetry CollectTelemetry(const VerbMetrics& metrics,
                           const ResultCache& cache,
                           const QueryScheduler& scheduler) {
  Telemetry out;
  out.verbs = metrics.Snapshot();
  out.simd_target = simd::TargetName(simd::ActiveTarget());
  out.results_version = mass::kResultsVersion;
  const auto counter = [&out](const SampleGroup& group, std::string_view name,
                              double value,
                              std::vector<SampleLabel> labels = {}) {
    out.samples.push_back(
        {&group, name, Sample::Kind::kCounter, std::move(labels), value});
  };
  const auto gauge = [&out](const SampleGroup& group, std::string_view name,
                            double value) {
    out.samples.push_back({&group, name, Sample::Kind::kGauge, {}, value});
  };

  gauge(kProcess, "uptime_seconds", metrics.UptimeSeconds());

  // Result cache: lookup traffic plus the flight-coalescing protocol.
  const ResultCache::Stats c = cache.stats();
  gauge(kCache, "entries", c.entries);
  gauge(kCache, "capacity", c.capacity);
  counter(kCache, "hits", c.hits);
  counter(kCache, "misses", c.misses);
  counter(kCache, "insertions", c.insertions);
  counter(kCache, "evictions", c.evictions);
  gauge(kCache, "inflight", c.inflight);
  counter(kCache, "coalesced", c.coalesced);
  counter(kCache, "failovers", c.failovers);
  counter(kCache, "flights_led", c.flights_led);
  counter(kCache, "waiters_served", c.waiters_served);

  // Scheduler admission/retirement counters, queue gauges and timings.
  const SchedulerStats q = scheduler.stats();
  gauge(kScheduler, "queue_depth", q.queue_depth);
  gauge(kScheduler, "active", q.active);
  counter(kScheduler, "admitted", q.admitted);
  counter(kScheduler, "completed", q.completed);
  counter(kScheduler, "rejected", q.rejected);
  counter(kScheduler, "shed", q.shed);
  counter(kScheduler, "cancelled", q.cancelled);
  counter(kScheduler, "expired", q.expired);
  counter(kScheduler, "overruns", q.overruns);
  gauge(kScheduler, "stalled", q.stalled);
  gauge(kScheduler, "mean_queue_wait_ms", q.mean_queue_wait_ms);
  gauge(kScheduler, "max_queue_wait_ms", q.max_queue_wait_ms);
  gauge(kScheduler, "mean_service_ms", q.mean_service_ms);
  gauge(kScheduler, "retry_after_ms", q.retry_after_ms);

  // Engine caches and per-backend row throughput (process-wide totals).
  const mass::EngineCounters e = mass::EngineCountersSnapshot();
  counter(kEngine, "series_spectra_hits", e.series_spectra_hits);
  counter(kEngine, "series_spectra_misses", e.series_spectra_misses);
  counter(kEngine, "chunk_spectra_hits", e.chunk_spectra_hits);
  counter(kEngine, "chunk_spectra_misses", e.chunk_spectra_misses);
  counter(kEngine, "chunk_spectra_evictions", e.chunk_spectra_evictions);
  for (const auto& [backend, rows] :
       {std::pair{mass::ConvolutionBackend::kDirect, e.rows_direct},
        std::pair{mass::ConvolutionBackend::kFftPair, e.rows_fft_pair},
        std::pair{mass::ConvolutionBackend::kOverlapSave,
                  e.rows_overlap_save}}) {
    counter(kEngine, "rows", rows,
            {{"backend", mass::ConvolutionBackendName(backend)}});
  }

  const fft::PlanRegistryCounters plans = fft::PlanRegistryCountersSnapshot();
  counter(kFftPlan, "hits", plans.hits);
  counter(kFftPlan, "misses", plans.misses);

  // SIMD dispatch: one sample per (target, kernel), zeros included so the
  // series set is stable across scrapes.
  const simd::KernelCounters kernels = simd::KernelCountersSnapshot();
  for (int t = 0; t < simd::kNumTargets; ++t) {
    for (int k = 0; k < simd::kNumKernelKinds; ++k) {
      counter(kSimd, "kernel_calls", kernels.calls[t][k],
              {{"target", simd::TargetName(static_cast<simd::Target>(t))},
               {"kernel",
                simd::KernelKindName(static_cast<simd::KernelKind>(k))}});
    }
  }
  return out;
}

Value::Object RenderStatsJson(const Telemetry& telemetry) {
  Value::Object out;
  for (const Sample& sample : telemetry.samples) {
    Value::Object* node = &out;
    if (!sample.group->json_key.empty()) {
      node = &ChildObject(*node, sample.group->json_key);
    }
    std::string_view key = sample.name;
    for (const SampleLabel& label : sample.labels) {
      node = &ChildObject(*node, key);
      key = label.value;
    }
    node->emplace(std::string(key), Value(sample.value));
  }

  // Per-verb latency/throughput: exact mean/stddev from the Welford
  // accumulators, p50/p99 from the log-scale histograms.
  Value::Array verbs;
  for (const VerbMetrics::VerbSnapshot& v : telemetry.verbs) {
    Value::Object o;
    o.emplace("verb", Value(v.verb));
    o.emplace("count", Value(v.count));
    o.emplace("errors", Value(v.errors));
    o.emplace("mean_ms", Value(v.mean_ms));
    o.emplace("stddev_ms", Value(v.stddev_ms));
    o.emplace("min_ms", Value(v.min_ms));
    o.emplace("max_ms", Value(v.max_ms));
    o.emplace("p50_ms", Value(v.p50_ms));
    o.emplace("p99_ms", Value(v.p99_ms));
    o.emplace("requests_per_second", Value(v.requests_per_second));
    verbs.push_back(Value(std::move(o)));
  }
  out.emplace("verbs", Value(std::move(verbs)));
  out.emplace("results_version", Value(telemetry.results_version));
  out.emplace("simd_target", Value(std::string(telemetry.simd_target)));
  return out;
}

std::string RenderOpenMetrics(const Telemetry& telemetry) {
  std::string out;
  out.reserve(8192);

  Type("valmod_build_info", "gauge", &out);
  out += "valmod_build_info{simd_target=\"";
  out.append(telemetry.simd_target);
  out += "\",results_version=\"";
  out += std::to_string(telemetry.results_version);
  out += "\"} 1\n";

  std::string previous;
  for (const Sample& sample : telemetry.samples) {
    const bool is_counter = sample.kind == Sample::Kind::kCounter;
    std::string family(sample.group->family_prefix);
    family += '_';
    family.append(sample.name);
    if (family != previous) {
      Type(family, is_counter ? "counter" : "gauge", &out);
    }
    out += family;
    if (is_counter) out += "_total";
    for (std::size_t i = 0; i < sample.labels.size(); ++i) {
      out += i == 0 ? '{' : ',';
      out.append(sample.labels[i].key);
      out += "=\"";
      out.append(sample.labels[i].value);
      out += '"';
    }
    if (!sample.labels.empty()) out += '}';
    out += ' ';
    // The JSON number spelling, so both surfaces print the same digits.
    Value(sample.value).SerializeTo(&out);
    out += '\n';
    previous = std::move(family);
  }

  // Per-verb request counters.
  Type("valmod_requests", "counter", &out);
  for (const auto& verb : telemetry.verbs) {
    out += "valmod_requests_total" + VerbLabel(verb.verb) + ' ';
    AppendU64(verb.count, &out);
    out += '\n';
  }
  Type("valmod_request_errors", "counter", &out);
  for (const auto& verb : telemetry.verbs) {
    out += "valmod_request_errors_total" + VerbLabel(verb.verb) + ' ';
    AppendU64(verb.errors, &out);
    out += '\n';
  }

  // Per-verb latency histograms: the quarter-octave histogram re-rendered
  // as cumulative per-doubling buckets, with `le` edges in SECONDS (the
  // exposition convention). The top stored bucket absorbs overflow, so its
  // cumulative count equals the total and +Inf adds no information beyond
  // closing the histogram.
  Type("valmod_request_latency_seconds", "histogram", &out);
  for (const auto& verb : telemetry.verbs) {
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
