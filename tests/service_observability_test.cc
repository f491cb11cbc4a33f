// Observability surface tests: the `metrics` verb's OpenMetrics exposition
// (validated by an in-test syntax checker — no network or scrape-tool
// dependencies), counter monotonicity across scrapes, end-to-end request
// tracing ("trace":true span trees whose stage spans account for the
// request's wall time), the slow-query log, the flight counters in
// `stats`, and a real-binary smoke of the new verbs plus --log-json.

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/trace.h"
#include "service/openmetrics.h"
#include "service/server.h"

namespace valmod::service {
namespace {

using json::Value;

Value Roundtrip(Service& service, const std::string& line) {
  const std::string response = service.HandleRequest(line);
  auto parsed = json::Parse(response);
  EXPECT_TRUE(parsed.ok()) << "unparseable response: " << response;
  return parsed.ok() ? *parsed : Value();
}

bool Ok(const Value& response) { return response.GetBool("ok", false); }

void LoadBench(Service& service, std::size_t n = 4096) {
  Value load = Roundtrip(
      service,
      R"({"verb":"load","dataset":"bench","params":{"generator":"ecg","n":)" +
          std::to_string(n) + "}}");
  ASSERT_TRUE(Ok(load)) << load.Serialize();
}

/// Minimal in-test OpenMetrics validator. Enforces the structural rules a
/// scraper depends on: every sample belongs to a family declared by a
/// preceding `# TYPE` line (with the counter `_total` / histogram
/// `_bucket|_sum|_count` suffix conventions), every value parses as a
/// number, the exposition ends with `# EOF`, and nothing follows it.
std::vector<std::string> ValidateOpenMetrics(const std::string& body) {
  std::vector<std::string> errors;
  std::map<std::string, std::string> families;  // name -> type
  std::vector<std::string> lines;
  std::size_t start = 0, newline;
  while ((newline = body.find('\n', start)) != std::string::npos) {
    lines.push_back(body.substr(start, newline - start));
    start = newline + 1;
  }
  if (start != body.size()) errors.push_back("missing trailing newline");
  if (lines.empty() || lines.back() != "# EOF") {
    errors.push_back("exposition must end with '# EOF'");
    return errors;
  }
  const auto matches_family = [&](const std::string& name) {
    const auto direct = families.find(name);
    if (direct != families.end()) return direct->second == "gauge";
    for (const char* suffix : {"_total", "_bucket", "_sum", "_count"}) {
      const std::string s = suffix;
      if (name.size() > s.size() &&
          name.compare(name.size() - s.size(), s.size(), s) == 0) {
        const std::string family = name.substr(0, name.size() - s.size());
        const auto it = families.find(family);
        if (it == families.end()) continue;
        if (s == "_total") return it->second == "counter";
        return it->second == "histogram";
      }
    }
    return false;
  };
  for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (line.empty()) {
      errors.push_back("blank line at " + std::to_string(i));
      continue;
    }
    if (line[0] == '#') {
      if (line.rfind("# TYPE ", 0) == 0) {
        const std::string rest = line.substr(7);
        const std::size_t space = rest.find(' ');
        if (space == std::string::npos) {
          errors.push_back("malformed TYPE line: " + line);
          continue;
        }
        families[rest.substr(0, space)] = rest.substr(space + 1);
      }
      continue;  // HELP/UNIT/comments are legal and unchecked
    }
    // Sample line: name[{labels}] value
    std::size_t name_end = line.find('{');
    std::string labels;
    std::size_t value_begin;
    if (name_end != std::string::npos) {
      const std::size_t close = line.find('}', name_end);
      if (close == std::string::npos || close + 1 >= line.size() ||
          line[close + 1] != ' ') {
        errors.push_back("malformed labels: " + line);
        continue;
      }
      labels = line.substr(name_end, close - name_end + 1);
      value_begin = close + 2;
    } else {
      name_end = line.find(' ');
      if (name_end == std::string::npos) {
        errors.push_back("no value: " + line);
        continue;
      }
      value_begin = name_end + 1;
    }
    const std::string name = line.substr(0, name_end);
    if (!matches_family(name)) {
      errors.push_back("sample without matching TYPE: " + name);
    }
    const std::string value = line.substr(value_begin);
    char* end = nullptr;
    (void)std::strtod(value.c_str(), &end);
    if (end == value.c_str() ||
        (*end != '\0' && std::string(end) != "+Inf")) {
      if (value != "+Inf") {
        errors.push_back("unparseable value '" + value + "' in: " + line);
      }
    }
  }
  return errors;
}

/// Extracts the scraped value of `sample` (exact name-plus-labels match),
/// or -1 when the series is absent.
double MetricValue(const std::string& body, const std::string& sample) {
  const std::string prefix = sample + " ";
  std::size_t pos;
  if (body.rfind(prefix, 0) == 0) {
    pos = 0;
  } else {
    pos = body.find("\n" + prefix);
    if (pos == std::string::npos) return -1.0;
    ++pos;
  }
  return std::strtod(body.c_str() + pos + prefix.size(), nullptr);
}

/// All `name{labels} value` samples in the exposition, for monotonicity
/// comparison across scrapes.
std::map<std::string, double> AllSamples(const std::string& body) {
  std::map<std::string, double> out;
  std::size_t start = 0, newline;
  while ((newline = body.find('\n', start)) != std::string::npos) {
    const std::string line = body.substr(start, newline - start);
    start = newline + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t brace = line.find('{');
    std::size_t space;
    if (brace != std::string::npos) {
      space = line.find("} ", brace);
      if (space == std::string::npos) continue;
      ++space;
    } else {
      space = line.find(' ');
      if (space == std::string::npos) continue;
    }
    out[line.substr(0, space)] =
        std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

std::string ScrapeMetrics(Service& service) {
  Value response = Roundtrip(service, R"({"verb":"metrics"})");
  EXPECT_TRUE(Ok(response)) << response.Serialize();
  const Value* result = response.Find("result");
  if (result == nullptr) return "";
  EXPECT_EQ(result->GetString("format", ""), "openmetrics");
  return result->GetString("body", "");
}

TEST(OpenMetricsTest, ExpositionIsValidAndCarriesEngineAndVerbSeries) {
  trace::SetEnabled(true);
  Service service;
  LoadBench(service);
  const std::string motifs =
      R"({"verb":"motifs","dataset":"bench","params":{"lmin":64,"lmax":66}})";
  ASSERT_TRUE(Ok(Roundtrip(service, motifs)));  // miss: computes
  ASSERT_TRUE(Ok(Roundtrip(service, motifs)));  // hit
  // VALMOD's initial scan is a fused STOMP sweep that bypasses the MASS
  // kernels (and the profile verb runs STOMP too); a query's distance
  // profile goes through the engine, so this is the request that
  // guarantees non-zero engine row counters below.
  std::string query =
      R"({"verb":"query","dataset":"bench","params":{"values":[)";
  for (int i = 0; i < 64; ++i) {
    query += (i == 0 ? "" : ",") + std::to_string(std::sin(0.2 * i));
  }
  query += "]}}";
  ASSERT_TRUE(Ok(Roundtrip(service, query)));

  const std::string body = ScrapeMetrics(service);
  ASSERT_FALSE(body.empty());
  const std::vector<std::string> errors = ValidateOpenMetrics(body);
  EXPECT_TRUE(errors.empty()) << errors.front() << " (of " << errors.size()
                              << " errors)";

  // Per-verb request counters and latency histogram buckets.
  EXPECT_GE(MetricValue(body, "valmod_requests_total{verb=\"motifs\"}"), 2.0);
  EXPECT_GE(MetricValue(
                body,
                "valmod_request_latency_seconds_bucket{verb=\"motifs\","
                "le=\"+Inf\"}"),
            2.0);
  EXPECT_GE(MetricValue(body,
                        "valmod_request_latency_seconds_count{verb=\"motifs\"}"),
            2.0);

  // Result-cache counters: one miss, one hit, one flight led.
  EXPECT_GE(MetricValue(body, "valmod_result_cache_hits_total"), 1.0);
  EXPECT_GE(MetricValue(body, "valmod_result_cache_misses_total"), 1.0);
  EXPECT_GE(MetricValue(body, "valmod_result_cache_flights_led_total"), 1.0);

  // Engine telemetry: the computed request pushed rows through some
  // backend, and the engine cache counters are exposed (process-wide).
  double rows = 0.0;
  for (const char* backend :
       {"direct", "fft_pair", "overlap_save"}) {
    const double v = MetricValue(
        body, std::string("valmod_engine_rows_total{backend=\"") + backend +
                  "\"}");
    EXPECT_GE(v, 0.0) << backend;
    rows += v;
  }
  EXPECT_GT(rows, 0.0);
  EXPECT_GE(MetricValue(body, "valmod_engine_series_spectra_hits_total"), 0.0);
  EXPECT_GE(MetricValue(body, "valmod_fft_plan_hits_total"), 0.0);
  EXPECT_NE(body.find("valmod_simd_kernel_calls_total{target="),
            std::string::npos);
  EXPECT_NE(body.find("valmod_build_info{simd_target="), std::string::npos);
}

TEST(OpenMetricsTest, CountersAreMonotonicAcrossScrapes) {
  Service service;
  LoadBench(service);
  ASSERT_TRUE(Ok(Roundtrip(
      service,
      R"({"verb":"profile","dataset":"bench","params":{"l":64}})")));
  const std::string first = ScrapeMetrics(service);
  // More traffic between scrapes, including a repeat (cache hit).
  ASSERT_TRUE(Ok(Roundtrip(
      service,
      R"({"verb":"profile","dataset":"bench","params":{"l":64}})")));
  ASSERT_TRUE(Ok(Roundtrip(
      service,
      R"({"verb":"profile","dataset":"bench","params":{"l":72}})")));
  const std::string second = ScrapeMetrics(service);

  const auto before = AllSamples(first);
  const auto after = AllSamples(second);
  std::size_t compared = 0;
  for (const auto& [sample, value] : before) {
    // Counter samples only; gauges (queue depth, entries) may go anywhere.
    if (sample.find("_total") == std::string::npos &&
        sample.find("_bucket") == std::string::npos &&
        sample.find("_count") == std::string::npos) {
      continue;
    }
    const auto it = after.find(sample);
    ASSERT_NE(it, after.end()) << "series vanished: " << sample;
    EXPECT_GE(it->second, value) << "counter went backwards: " << sample;
    ++compared;
  }
  EXPECT_GT(compared, 50u);  // the exposition is substantial
  EXPECT_GT(after.at("valmod_requests_total{verb=\"profile\"}"),
            before.at("valmod_requests_total{verb=\"profile\"}"));
}

std::size_t CountLinesWithPrefix(const std::string& body,
                                const std::string& prefix) {
  std::size_t lines = 0;
  for (std::size_t pos = 0; pos < body.size();) {
    if (body.compare(pos, prefix.size(), prefix) == 0) ++lines;
    const std::size_t newline = body.find('\n', pos);
    if (newline == std::string::npos) break;
    pos = newline + 1;
  }
  return lines;
}

// The verb is client-supplied text. An unrecognized one must not reach
// the exposition, where it would be written unescaped into a label; it is
// counted under the fixed label "unknown" instead, while the JSON error
// still echoes it (escaped).
TEST(OpenMetricsTest, UnknownVerbCannotInjectExpositionLines) {
  Service service;
  const std::string verb = "bogus\"} 7\nvalmod_injected_total 99\n# x";
  const Value response = Roundtrip(
      service, R"({"verb":"bogus\"} 7\nvalmod_injected_total 99\n# x"})");
  EXPECT_FALSE(Ok(response));
  EXPECT_EQ(response.GetString("verb", ""), verb);
  const Value* error = response.Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_NE(error->GetString("message", "").find(verb), std::string::npos);
  // A request that fails its envelope checks before the verb is dispatched
  // is labelled the same way.
  EXPECT_FALSE(Ok(Roundtrip(
      service,
      R"({"verb":"bogus\"} 7\nvalmod_injected_total 99\n# x","params":5})")));

  const std::string body = ScrapeMetrics(service);
  const std::vector<std::string> errors = ValidateOpenMetrics(body);
  EXPECT_TRUE(errors.empty()) << errors.front() << " (of " << errors.size()
                              << " errors)";
  EXPECT_EQ(body.find("valmod_injected"), std::string::npos);
  EXPECT_EQ(MetricValue(body, "valmod_requests_total{verb=\"unknown\"}"), 2.0);
  EXPECT_EQ(MetricValue(body, "valmod_request_errors_total{verb=\"unknown\"}"),
            2.0);
}

// Every verb the protocol documents is recorded under its own label when it
// fails, even before dispatch (here: a malformed `params`). Dispatch and the
// label both read the service's one verb table.
TEST(OpenMetricsTest, EveryDocumentedVerbFailsUnderItsOwnLabel) {
  Service service;
  const char* const verbs[] = {
      "load",   "unload",  "append",  "stats",    "faults",
      "health", "metrics", "slowlog", "shutdown", "motifs",
      "valmap", "profile", "query",   "discords"};
  for (const char* verb : verbs) {
    EXPECT_FALSE(Ok(Roundtrip(service, std::string(R"({"verb":")") + verb +
                                           R"(","params":5})")))
        << verb;
  }
  const std::string body = ScrapeMetrics(service);
  for (const char* verb : verbs) {
    EXPECT_EQ(MetricValue(body, std::string("valmod_request_errors_total{"
                                            "verb=\"") +
                                    verb + "\"}"),
              1.0)
        << verb;
  }
  EXPECT_EQ(MetricValue(body, "valmod_request_errors_total{verb=\"unknown\"}"),
            -1.0);
}

// Distinct unknown verbs share one label set, so a client cannot grow the
// exposition without bound by inventing verbs.
TEST(OpenMetricsTest, DistinctUnknownVerbsAddOneLabel) {
  Service service;
  (void)ScrapeMetrics(service);  // registers the "metrics" verb itself
  const std::string before = ScrapeMetrics(service);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(Ok(Roundtrip(
        service, "{\"verb\":\"bogus" + std::to_string(i) + "\"}")));
  }
  const std::string after = ScrapeMetrics(service);
  EXPECT_EQ(CountLinesWithPrefix(after, "valmod_requests_total{"),
            CountLinesWithPrefix(before, "valmod_requests_total{") + 1);
  EXPECT_EQ(MetricValue(after, "valmod_requests_total{verb=\"unknown\"}"),
            100.0);
  EXPECT_EQ(after.find("bogus"), std::string::npos);
}

TEST(TracingTest, TracedRequestSpansAccountForWallTime) {
  trace::SetEnabled(true);
  Service service;
  LoadBench(service, 8192);
  Value response = Roundtrip(
      service,
      R"({"verb":"motifs","dataset":"bench",)"
      R"("params":{"lmin":128,"lmax":132},"trace":true})");
  ASSERT_TRUE(Ok(response)) << response.Serialize();

  const std::string trace_id = response.GetString("trace_id", "");
  ASSERT_EQ(trace_id.size(), 16u);
  for (const char c : trace_id) {
    EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(c))) << trace_id;
  }

  const Value* trace = response.Find("trace");
  ASSERT_NE(trace, nullptr);
  EXPECT_GT(trace->GetNumber("wall_ns", 0), 0.0);
  const Value* spans = trace->Find("spans");
  ASSERT_NE(spans, nullptr);
  const auto& list = spans->AsArray();
  ASSERT_GE(list.size(), 4u);
  EXPECT_EQ(list[0].GetString("name", ""), "request");
  EXPECT_DOUBLE_EQ(list[0].GetNumber("parent", 0), -1.0);

  // The stage spans parented directly under the root — parse, plan,
  // cache_lookup, queue_wait, compute — cover the request end to end, so
  // their durations must sum to within 10% of the root's wall time.
  double child_sum_ns = 0.0;
  bool saw_compute = false, saw_parse = false, saw_queue_wait = false;
  for (std::size_t i = 1; i < list.size(); ++i) {
    const std::string name = list[i].GetString("name", "");
    if (list[i].GetNumber("parent", -1) == 0.0) {
      child_sum_ns += list[i].GetNumber("duration_ns", 0);
    }
    saw_compute |= name == "compute";
    saw_parse |= name == "parse";
    saw_queue_wait |= name == "queue_wait";
  }
  EXPECT_TRUE(saw_compute);
  EXPECT_TRUE(saw_parse);
  EXPECT_TRUE(saw_queue_wait);
  const double root_ns = list[0].GetNumber("duration_ns", 0);
  ASSERT_GT(root_ns, 0.0);
  EXPECT_GE(child_sum_ns, 0.90 * root_ns)
      << "stage spans cover only " << (child_sum_ns / root_ns * 100.0)
      << "% of the request";
  EXPECT_LE(child_sum_ns, 1.10 * root_ns);

  // Untraced requests must not carry the fields.
  Value untraced = Roundtrip(
      service,
      R"({"verb":"motifs","dataset":"bench",)"
      R"("params":{"lmin":128,"lmax":132}})");
  ASSERT_TRUE(Ok(untraced));
  EXPECT_EQ(untraced.Find("trace_id"), nullptr);
  EXPECT_EQ(untraced.Find("trace"), nullptr);
}

// Inside `compute`, a motifs request's `valmod_run` span splits into its two
// phases: the O(n^2) initial scan and the per-length sweep. Together they
// must account for the run, so a trace shows where its time went.
TEST(TracingTest, ValmodRunSplitsIntoScanAndSweepSpans) {
  trace::SetEnabled(true);
  Service service;
  LoadBench(service, 16384);
  Value response = Roundtrip(
      service,
      R"({"verb":"motifs","dataset":"bench",)"
      R"("params":{"lmin":128,"lmax":132},"trace":true})");
  ASSERT_TRUE(Ok(response)) << response.Serialize();
  const Value* trace = response.Find("trace");
  ASSERT_NE(trace, nullptr);
  const Value* spans = trace->Find("spans");
  ASSERT_NE(spans, nullptr);
  const auto& list = spans->AsArray();

  int run = -1;
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (list[i].GetString("name", "") == "valmod_run") {
      run = static_cast<int>(i);
    }
  }
  ASSERT_GE(run, 0) << response.Serialize();
  double phases_ns = 0.0;
  bool saw_scan = false, saw_sweep = false;
  for (const Value& span : list) {
    if (span.GetNumber("parent", -1) != run) continue;
    const std::string name = span.GetString("name", "");
    saw_scan |= name == "initial_scan";
    saw_sweep |= name == "length_sweep";
    if (name == "initial_scan" || name == "length_sweep") {
      phases_ns += span.GetNumber("duration_ns", 0);
    }
  }
  EXPECT_TRUE(saw_scan);
  EXPECT_TRUE(saw_sweep);
  const double run_ns = list[run].GetNumber("duration_ns", 0);
  ASSERT_GT(run_ns, 0.0);
  EXPECT_GE(phases_ns, 0.90 * run_ns)
      << "initial_scan + length_sweep cover only "
      << (phases_ns / run_ns * 100.0) << "% of valmod_run";
}

TEST(TracingTest, ErrorResponsesCarryTraceWhenRequested) {
  trace::SetEnabled(true);
  Service service;
  Value response = Roundtrip(
      service, R"({"verb":"motifs","dataset":"missing","trace":true})");
  EXPECT_FALSE(Ok(response));
  EXPECT_EQ(response.GetString("trace_id", "").size(), 16u);
  EXPECT_NE(response.Find("trace"), nullptr);
  // A non-boolean trace param is a type error like any other envelope field.
  Value bad = Roundtrip(service, R"({"verb":"stats","trace":"yes"})");
  EXPECT_FALSE(Ok(bad));
}

TEST(SlowlogVerbTest, ReturnsWorstRequestsSlowestFirstWithTraces) {
  trace::SetEnabled(true);
  ServiceOptions options;
  options.slowlog_capacity = 4;
  Service service(options);
  LoadBench(service);
  ASSERT_TRUE(Ok(Roundtrip(
      service,
      R"({"verb":"motifs","dataset":"bench","params":{"lmin":64,"lmax":66}})")));
  ASSERT_TRUE(Ok(Roundtrip(service, R"({"verb":"stats"})")));

  Value response = Roundtrip(service, R"({"verb":"slowlog"})");
  ASSERT_TRUE(Ok(response)) << response.Serialize();
  const Value* entries = response.Find("result")->Find("entries");
  ASSERT_NE(entries, nullptr);
  const auto& list = entries->AsArray();
  ASSERT_GE(list.size(), 2u);
  double previous = 1e300;
  for (const Value& entry : list) {
    const double latency = entry.GetNumber("latency_ms", -1);
    EXPECT_GE(latency, 0.0);
    EXPECT_LE(latency, previous);  // slowest first
    previous = latency;
    EXPECT_FALSE(entry.GetString("verb", "").empty());
    EXPECT_EQ(entry.GetString("trace_id", "").size(), 16u);
    EXPECT_NE(entry.Find("trace"), nullptr);
  }
  // The motifs compute is slow enough to be retained (whether load's data
  // generation or the compute lands first is timing, not contract).
  bool saw_motifs = false;
  for (const Value& entry : list) {
    saw_motifs = saw_motifs || entry.GetString("verb", "") == "motifs";
  }
  EXPECT_TRUE(saw_motifs);
}

TEST(StatsVerbTest, ExposesFlightCounters) {
  Service service;
  LoadBench(service);
  const std::string request =
      R"({"verb":"profile","dataset":"bench","params":{"l":64}})";
  ASSERT_TRUE(Ok(Roundtrip(service, request)));  // miss: leads a flight
  ASSERT_TRUE(Ok(Roundtrip(service, request)));  // hit
  Value stats = Roundtrip(service, R"({"verb":"stats"})");
  ASSERT_TRUE(Ok(stats));
  const Value* cache = stats.Find("result")->Find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_GE(cache->GetNumber("flights_led", -1), 1.0);
  EXPECT_GE(cache->GetNumber("waiters_served", -1), 0.0);
}

TEST(RenderTraceJsonTest, SerializesSpanTree) {
  trace::TraceContext context;
  const int root = context.BeginSpan("request", -1);
  const int child = context.BeginSpan("parse", root);
  context.EndSpan(child);
  context.EndSpan(root);
  const std::string rendered = RenderTraceJson(context);
  auto parsed = json::Parse(rendered);
  ASSERT_TRUE(parsed.ok()) << rendered;
  EXPECT_EQ(parsed->GetNumber("dropped", -1), 0.0);
  const auto& spans = parsed->Find("spans")->AsArray();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].GetString("name", ""), "request");
  EXPECT_EQ(spans[1].GetString("name", ""), "parse");
  EXPECT_DOUBLE_EQ(spans[1].GetNumber("parent", -1), 0.0);
}

#ifdef VALMOD_SERVER_BINARY
// Real-binary smoke: the new verbs through the full --stdio main() path,
// with the exposition validated by the same in-test checker.
TEST(ServerBinaryObservabilityTest, MetricsAndSlowlogOverStdio) {
  const std::string script =
      R"({"id":1,"verb":"load","dataset":"d","params":{"generator":"ecg","n":1024}})" "\n"
      R"({"id":2,"verb":"motifs","dataset":"d","params":{"lmin":32,"lmax":34},"trace":true})" "\n"
      R"({"id":3,"verb":"metrics"})" "\n"
      R"({"id":4,"verb":"slowlog"})" "\n"
      R"({"id":5,"verb":"shutdown"})" "\n";
  const std::string command = std::string("printf '%s' '") + script +
                              "' | " + VALMOD_SERVER_BINARY +
                              " --stdio 2>/dev/null";
  std::FILE* pipe = popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string output;
  char buffer[4096];
  std::size_t n;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    output.append(buffer, n);
  }
  EXPECT_EQ(pclose(pipe), 0);

  std::vector<std::string> lines;
  std::size_t start = 0, newline;
  while ((newline = output.find('\n', start)) != std::string::npos) {
    lines.push_back(output.substr(start, newline - start));
    start = newline + 1;
  }
  ASSERT_EQ(lines.size(), 5u) << output;
  auto parse = [](const std::string& line) {
    auto v = json::Parse(line);
    EXPECT_TRUE(v.ok()) << line;
    return v.ok() ? *v : Value();
  };
  EXPECT_TRUE(parse(lines[0]).GetBool("ok", false));
  Value motifs = parse(lines[1]);
  EXPECT_TRUE(motifs.GetBool("ok", false));
  EXPECT_EQ(motifs.GetString("trace_id", "").size(), 16u);
  Value metrics = parse(lines[2]);
  ASSERT_TRUE(metrics.GetBool("ok", false));
  const std::string body = metrics.Find("result")->GetString("body", "");
  const auto errors = ValidateOpenMetrics(body);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());
  EXPECT_GE(MetricValue(body, "valmod_requests_total{verb=\"motifs\"}"), 1.0);
  Value slowlog = parse(lines[3]);
  EXPECT_TRUE(slowlog.GetBool("ok", false));
  EXPECT_FALSE(
      slowlog.Find("result")->Find("entries")->AsArray().empty());
  EXPECT_TRUE(parse(lines[4]).GetBool("ok", false));
}

// --log-json turns stderr into one JSON object per line.
TEST(ServerBinaryObservabilityTest, LogJsonEmitsStructuredStderr) {
  const std::string command =
      std::string("printf '%s' '{\"verb\":\"shutdown\"}\n' | ") +
      VALMOD_SERVER_BINARY +
      " --stdio --log-json --preload=d --generate=ecg --n=512 2>&1 "
      ">/dev/null";
  std::FILE* pipe = popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string output;
  char buffer[4096];
  std::size_t n;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    output.append(buffer, n);
  }
  EXPECT_EQ(pclose(pipe), 0);
  ASSERT_FALSE(output.empty());
  const std::string first_line = output.substr(0, output.find('\n'));
  auto event = json::Parse(first_line);
  ASSERT_TRUE(event.ok()) << first_line;
  EXPECT_EQ(event->GetString("level", ""), "info");
  EXPECT_EQ(event->GetString("msg", ""), "preloaded dataset");
  EXPECT_EQ(event->GetString("dataset", ""), "d");
}
#endif  // VALMOD_SERVER_BINARY

}  // namespace
}  // namespace valmod::service
