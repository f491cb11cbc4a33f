#ifndef VALMOD_SERVICE_TELEMETRY_H_
#define VALMOD_SERVICE_TELEMETRY_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "common/trace.h"
#include "service/metrics.h"
#include "service/result_cache.h"
#include "service/scheduler.h"

namespace valmod::service {

/// Where a sample lives on each surface: the `stats` object it renders
/// under (empty = the top level of `result`) and the OpenMetrics family
/// prefix its name is appended to.
struct SampleGroup {
  std::string_view json_key;
  std::string_view family_prefix;
};

/// One label of a sample. Label values come from fixed vocabularies
/// (backend, SIMD target and kernel names), never from client text.
struct SampleLabel {
  std::string_view key;
  std::string_view value;
};

/// One exported number. `stats` renders it at
/// `result.<group.json_key>.<name>[.<label value>]...`; `metrics` renders
/// it as `<group.family_prefix>_<name>[_total]{<labels>}`, with the
/// `_total` suffix on counters.
struct Sample {
  enum class Kind { kCounter, kGauge };

  const SampleGroup* group = nullptr;
  std::string_view name;
  Kind kind = Kind::kCounter;
  std::vector<SampleLabel> labels;
  double value = 0.0;
};

/// Everything the `stats` and `metrics` verbs export, snapshotted once.
/// `samples` holds the process's cache, scheduler, MASS engine, FFT plan
/// registry and SIMD dispatch counters plus the uptime; `verbs` holds the
/// per-verb panel, which `stats` renders as quantiles and `metrics` as
/// latency histograms.
struct Telemetry {
  std::vector<Sample> samples;
  std::vector<VerbMetrics::VerbSnapshot> verbs;
  std::string_view simd_target;
  int results_version = 0;
};

/// Snapshots the result cache, the scheduler, the per-verb metrics and —
/// through their process-wide snapshot APIs — the MASS engine, FFT plan
/// registry and SIMD dispatch counters. Samples of one family are
/// adjacent in the list.
Telemetry CollectTelemetry(const VerbMetrics& metrics,
                           const ResultCache& cache,
                           const QueryScheduler& scheduler);

/// The `stats` rendering: one object per sample group, the `verbs` panel,
/// `uptime_seconds`, `results_version` and `simd_target`.
json::Value::Object RenderStatsJson(const Telemetry& telemetry);

/// The `metrics` rendering, as OpenMetrics text (the Prometheus exposition
/// format): every family has a `# TYPE` line, counters carry the `_total`
/// suffix, the per-verb histograms emit cumulative `_bucket{le="..."}` (in
/// seconds) plus `_sum`/`_count`, and the text ends with `# EOF`.
std::string RenderOpenMetrics(const Telemetry& telemetry);

/// Renders a request's span tree as a JSON object:
///   {"wall_ns":N,"dropped":D,"spans":[
///     {"name":"...","parent":-1,"start_ns":S,"duration_ns":D}, ...]}
/// Span indices are implicit (array order matches BeginSpan order), so
/// `parent` references are array indices; `start_ns` is relative to the
/// context's origin. A span still open at render time reports
/// duration_ns 0.
std::string RenderTraceJson(const trace::TraceContext& context);

}  // namespace valmod::service

#endif  // VALMOD_SERVICE_TELEMETRY_H_
