#include "service/server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/json.h"
#include "common/timer.h"
#include "common/trace.h"
#include "service/openmetrics.h"
#include "core/valmod.h"
#include "core/variable_discords.h"
#include "mass/backend.h"
#include "mass/query_search.h"
#include "mp/stomp.h"
#include "series/generators.h"
#include "series/io.h"
#include "series/znorm.h"
#include "simd/dispatch.h"

namespace valmod::service {

namespace {

using json::Value;

// ---------------------------------------------------------------------------
// Response envelopes
// ---------------------------------------------------------------------------

void AppendEnvelopePrefix(const Value& id, const std::string& verb,
                          bool cached, bool coalesced, std::string* out) {
  *out += "{\"id\":";
  id.SerializeTo(out);
  *out += ",\"ok\":true,\"verb\":";
  json::AppendQuoted(verb, out);
  *out += cached ? ",\"cached\":true" : ",\"cached\":false";
  if (coalesced) *out += ",\"coalesced\":true";
}

/// Wire encoding of a successful response: one '\n'-terminated line when
/// the serialized result fits in `page_bytes` (or paging is off), else
/// ceil(size / page_bytes) chunk lines. Every page repeats the envelope;
/// non-final pages carry "partial":true, the final page "partial":false
/// plus the total page count; concatenating the `chunk` fragments in
/// `seq` order reproduces the result bytes. This envelope "partial" (more
/// pages follow) is unrelated to allow_partial's in-result "partial" (the
/// computation was deadline-truncated).
std::string EncodeOkWire(const Value& id, const std::string& verb, bool cached,
                         bool coalesced, const std::string& payload,
                         std::size_t page_bytes,
                         const std::string& trace_fragment = {}) {
  if (page_bytes == 0 || payload.size() <= page_bytes) {
    std::string out;
    AppendEnvelopePrefix(id, verb, cached, coalesced, &out);
    out += ",\"result\":";
    out += payload;
    out += trace_fragment;
    out += "}\n";
    return out;
  }
  const std::size_t pages = (payload.size() + page_bytes - 1) / page_bytes;
  std::string out;
  out.reserve(payload.size() + pages * 96);
  for (std::size_t i = 0; i < pages; ++i) {
    AppendEnvelopePrefix(id, verb, cached, coalesced, &out);
    const bool last = i + 1 == pages;
    out += last ? ",\"partial\":false" : ",\"partial\":true";
    out += ",\"seq\":";
    out += std::to_string(i);
    if (last) {
      out += ",\"pages\":";
      out += std::to_string(pages);
    }
    out += ",\"chunk\":";
    json::AppendQuoted(
        std::string_view(payload).substr(i * page_bytes, page_bytes), &out);
    // Trace fields ride the FINAL page only: RetryClient's reassembly
    // keeps the last page's envelope, so the reassembled response carries
    // them without any client-side special casing.
    if (last) out += trace_fragment;
    out += "}\n";
  }
  return out;
}


std::string ErrorResponse(const Value& id, const std::string& verb,
                          const Status& status,
                          const std::string& trace_fragment = {}) {
  std::string out = "{\"id\":";
  id.SerializeTo(&out);
  out += ",\"ok\":false";
  if (!verb.empty()) {
    out += ",\"verb\":";
    json::AppendQuoted(verb, &out);
  }
  out += ",\"error\":{\"code\":";
  json::AppendQuoted(StatusCodeName(status.code()), &out);
  out += ",\"message\":";
  json::AppendQuoted(status.message(), &out);
  if (status.retry_after_ms() > 0) {
    out += ",\"retry_after_ms\":";
    out += std::to_string(status.retry_after_ms());
  }
  out += '}';
  out += trace_fragment;
  out += '}';
  return out;
}

/// The `,"trace_id":"...","trace":{...}` envelope suffix for a request
/// that asked for tracing; empty otherwise.
std::string TraceFragment(const trace::TraceContext* context,
                          bool want_trace) {
  if (context == nullptr || !want_trace) return {};
  std::string out = ",\"trace_id\":\"";
  out += trace::TraceIdHex(context->trace_id());
  out += "\",\"trace\":";
  out += RenderTraceJson(*context);
  return out;
}

// ---------------------------------------------------------------------------
// Typed param extraction
// ---------------------------------------------------------------------------

/// Rejects params objects carrying keys the verb does not know, mirroring
/// Flags::RejectUnknown for the protocol: a typo'd "results_versoin" or
/// "lmxa" must fail loudly, not silently run under defaults — the same
/// silent-wrong-label hazard the CLI's closed flag tables eliminate.
Status RejectUnknownParams(const Value& params,
                           std::initializer_list<std::string_view> known) {
  for (const auto& [key, value] : params.AsObject()) {
    bool found = false;
    for (const std::string_view k : known) {
      if (key == k) {
        found = true;
        break;
      }
    }
    if (!found) {
      std::string message = "unknown param '" + key + "' (accepted:";
      for (const std::string_view k : known) {
        message += ' ';
        message += k;
      }
      message += ")";
      return Status::InvalidArgument(std::move(message));
    }
  }
  return Status::Ok();
}

/// Upper bound on integer-valued params. Far above any meaningful series
/// size / k / thread count, and small enough that the double -> integer
/// casts below are always in range (casting a double above the target
/// type's max is undefined behavior, and params are untrusted input — the
/// server's contract is structured errors, never UB or process death).
constexpr double kMaxIntegerParam = 1e12;

Result<std::size_t> SizeParam(const Value& params, std::string_view key,
                              std::size_t default_value) {
  const Value* v = params.Find(key);
  if (v == nullptr) return default_value;
  if (!v->is_number() || v->AsDouble() < 0.0 ||
      v->AsDouble() > kMaxIntegerParam ||
      v->AsDouble() != std::floor(v->AsDouble())) {
    return Status::InvalidArgument("param '" + std::string(key) +
                                   "' must be an integer in [0, 1e12]");
  }
  return static_cast<std::size_t>(v->AsDouble());
}

Result<int> IntParam(const Value& params, std::string_view key,
                     int default_value) {
  const Value* v = params.Find(key);
  if (v == nullptr) return default_value;
  if (!v->is_number() || v->AsDouble() < 0.0 ||
      v->AsDouble() > 1e6 || v->AsDouble() != std::floor(v->AsDouble())) {
    return Status::InvalidArgument("param '" + std::string(key) +
                                   "' must be an integer in [0, 1e6]");
  }
  return static_cast<int>(v->AsDouble());
}

Result<bool> BoolParam(const Value& params, std::string_view key,
                       bool default_value) {
  const Value* v = params.Find(key);
  if (v == nullptr) return default_value;
  if (!v->is_bool()) {
    return Status::InvalidArgument("param '" + std::string(key) +
                                   "' must be a boolean");
  }
  return v->AsBool();
}

/// The `threads` param, clamped to the hardware thread count. Results are
/// thread-count independent, so a larger value buys nothing — and every
/// worker of the VALMOD scan allocates its own partial-profile set, so an
/// unclamped `threads` lets one request exhaust the process.
Result<int> ThreadsParam(const Value& params) {
  VALMOD_ASSIGN_OR_RETURN(int threads, IntParam(params, "threads", 1));
  const int hardware =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  return std::min(threads, hardware);
}

Result<std::vector<double>> DoublesParam(const Value& params,
                                         std::string_view key) {
  const Value* v = params.Find(key);
  if (v == nullptr || !v->is_array()) {
    return Status::InvalidArgument("param '" + std::string(key) +
                                   "' must be an array of numbers");
  }
  std::vector<double> out;
  out.reserve(v->AsArray().size());
  for (const Value& e : v->AsArray()) {
    if (!e.is_number()) {
      return Status::InvalidArgument("param '" + std::string(key) +
                                     "' must contain only numbers");
    }
    out.push_back(e.AsDouble());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Payload builders
// ---------------------------------------------------------------------------

/// The one rendering of a motif list, ranked from 1 in list order.
Value MotifListValue(std::span<const mp::MotifPair> motifs) {
  Value::Array out;
  out.reserve(motifs.size());
  for (std::size_t r = 0; r < motifs.size(); ++r) {
    const mp::MotifPair& m = motifs[r];
    Value::Object o;
    o.emplace("rank", Value(r + 1));
    o.emplace("length", Value(m.length));
    o.emplace("offset_a", Value(static_cast<long long>(m.offset_a)));
    o.emplace("offset_b", Value(static_cast<long long>(m.offset_b)));
    o.emplace("distance", Value(m.distance));
    o.emplace("normalized", Value(m.normalized_distance));
    out.push_back(Value(std::move(o)));
  }
  return Value(std::move(out));
}

/// The one rendering of a discord list, ranked from 1 in list order.
Value DiscordListValue(std::span<const mp::Discord> discords) {
  Value::Array out;
  out.reserve(discords.size());
  for (std::size_t r = 0; r < discords.size(); ++r) {
    const mp::Discord& d = discords[r];
    Value::Object o;
    o.emplace("rank", Value(r + 1));
    o.emplace("offset", Value(static_cast<long long>(d.offset)));
    o.emplace("neighbor", Value(static_cast<long long>(d.nearest_neighbor)));
    o.emplace("distance", Value(d.distance));
    o.emplace("normalized",
              Value(series::LengthNormalizedDistance(d.distance, d.length)));
    out.push_back(Value(std::move(o)));
  }
  return Value(std::move(out));
}

Value DoublesValue(std::span<const double> values) {
  Value::Array array;
  array.reserve(values.size());
  for (const double v : values) array.push_back(Value(v));
  return Value(std::move(array));
}

Value IntsValue(std::span<const int64_t> values) {
  Value::Array array;
  array.reserve(values.size());
  for (const int64_t v : values) {
    array.push_back(Value(static_cast<long long>(v)));
  }
  return Value(std::move(array));
}

Value ProfileValue(const mp::MatrixProfile& profile) {
  Value::Object o;
  o.emplace("length", Value(profile.subsequence_length));
  o.emplace("exclusion_zone", Value(profile.exclusion_zone));
  // +infinity (no eligible match yet) is not representable in JSON; the
  // protocol uses null, and `indices` already carries -1 there.
  Value::Array distances;
  distances.reserve(profile.distances.size());
  for (const double d : profile.distances) {
    distances.push_back(std::isfinite(d) ? Value(d) : Value(nullptr));
  }
  o.emplace("distances", Value(std::move(distances)));
  o.emplace("indices", IntsValue(profile.indices));
  return Value(std::move(o));
}

// ---------------------------------------------------------------------------
// Query-verb planning: each planner resolves params, derives the cache key
// material, and builds the job that computes the serialized payload.
// ---------------------------------------------------------------------------

struct QueryPlan {
  /// Canonical identity of the computation (see ResultCache); empty
  /// disables caching for this request.
  std::string cache_key;
  QueryScheduler::Job job;
  /// Set true by the job when it returned a deadline-truncated payload
  /// (allow_partial). The server must never cache such a response: it
  /// keeps the plan's cache key, and serving it to a later identical
  /// request would silently degrade an unconstrained caller.
  std::shared_ptr<std::atomic<bool>> partial_flag;
};

/// Key = dataset uid|generation|verb|params. The *uid* — not the name —
/// identifies the data: names are reusable (unload "ecg", load a different
/// series as "ecg"; static generations restart at 1), and a name-keyed
/// cache would serve the old series' responses for the new one.
std::string CacheKey(const Dataset& dataset, std::uint64_t generation,
                     std::string_view verb, const std::string& params_key) {
  std::string key = "ds";
  key += std::to_string(dataset.uid());
  key += "|g";
  key += std::to_string(generation);
  key += "|";
  key += verb;
  key += "|";
  key += params_key;
  return key;
}

/// The maintained fast path for streaming datasets: when a motifs or
/// discords request targets exactly the maintained subsequence length, the
/// answer is selected from the incrementally maintained profile instead of
/// a batch recompute. The profile is copied under the dataset lock (O(W))
/// and the selection, the same one the batch verbs run, runs outside it;
/// both only on a cache miss, since the plan is keyed by generation (see
/// PlanProfile for the benign key-races-append note). A nullopt return
/// means "not eligible, use the batch path".
std::optional<QueryPlan> PlanMaintained(
    const std::shared_ptr<Dataset>& dataset, const std::string& verb,
    std::size_t lmin, std::size_t lmax, std::size_t k) {
  const std::size_t native = dataset->streaming_length();
  if (!dataset->streaming()) return std::nullopt;
  if ((lmin != 0 && lmin != native) || (lmax != 0 && lmax != native)) {
    return std::nullopt;
  }
  QueryPlan plan;
  plan.cache_key = CacheKey(*dataset, dataset->generation(), verb,
                            "maintained,l=" + std::to_string(native) +
                                ",k=" + std::to_string(k));
  plan.job = [dataset, verb, k,
              native](const Deadline& deadline) -> Result<std::string> {
    if (deadline.Expired()) {
      return Status::DeadlineExceeded(verb + " deadline expired");
    }
    // The batch paths reject k = 0 the same way.
    if (k == 0) return Status::InvalidArgument("k must be >= 1");
    VALMOD_ASSIGN_OR_RETURN(Dataset::StreamingState state,
                            dataset->StreamingProfileSnapshot());
    Value::Object payload;
    payload.emplace("generation", Value(state.generation));
    payload.emplace("streaming", Value(true));
    payload.emplace("maintained", Value(true));
    payload.emplace("points", Value(state.points));
    payload.emplace("window_start", Value(state.window_start));
    Value::Object entry;
    entry.emplace("length", Value(native));
    if (verb == "motifs") {
      const std::vector<mp::MotifPair> motifs =
          mp::TopKMotifs(state.profile, k);
      entry.emplace("motifs", MotifListValue(motifs));
      payload.emplace("ranked",
                      MotifListValue(core::RankByNormalizedDistance(motifs)));
    } else {
      entry.emplace("discords",
                    DiscordListValue(mp::TopKDiscords(state.profile, k)));
    }
    Value::Array per_length;
    per_length.push_back(Value(std::move(entry)));
    payload.emplace("per_length", Value(std::move(per_length)));
    return Value(std::move(payload)).Serialize();
  };
  return plan;
}

Result<QueryPlan> PlanValmod(const std::shared_ptr<Dataset>& dataset,
                             const Value& params, bool build_valmap) {
  VALMOD_RETURN_IF_ERROR(RejectUnknownParams(
      params, {"lmin", "lmax", "k", "p", "threads", "allow_partial"}));
  core::ValmodOptions options;
  VALMOD_ASSIGN_OR_RETURN(options.min_length, SizeParam(params, "lmin", 0));
  VALMOD_ASSIGN_OR_RETURN(options.max_length, SizeParam(params, "lmax", 0));
  VALMOD_ASSIGN_OR_RETURN(options.k,
                          SizeParam(params, "k", build_valmap ? 4 : 1));
  if (!build_valmap) {
    // Streaming datasets answer same-length motif requests from the
    // maintained profile — no batch recomputation, no snapshot build.
    if (std::optional<QueryPlan> maintained = PlanMaintained(
            dataset, "motifs", options.min_length, options.max_length,
            options.k)) {
      return *std::move(maintained);
    }
  }
  VALMOD_ASSIGN_OR_RETURN(options.p, SizeParam(params, "p", 10));
  VALMOD_ASSIGN_OR_RETURN(options.num_threads, ThreadsParam(params));
  VALMOD_ASSIGN_OR_RETURN(options.allow_partial,
                          BoolParam(params, "allow_partial", false));
  options.build_valmap = build_valmap;

  VALMOD_ASSIGN_OR_RETURN(std::shared_ptr<const DatasetSnapshot> snapshot,
                          dataset->Snapshot());
  // `threads` is absent on purpose: results are thread-count independent.
  // `allow_partial` is also absent: a run that *completes* under
  // allow_partial is byte-identical to an unconstrained run, so the two
  // share a cache line; truncated responses are never cached at all
  // (partial_flag below).
  std::string params_key = "lmin=" + std::to_string(options.min_length) +
                           ",lmax=" + std::to_string(options.max_length) +
                           ",k=" + std::to_string(options.k) +
                           ",p=" + std::to_string(options.p);
  QueryPlan plan;
  plan.cache_key =
      CacheKey(*dataset, snapshot->generation(),
               build_valmap ? "valmap" : "motifs", params_key);
  plan.partial_flag = std::make_shared<std::atomic<bool>>(false);
  plan.job = [snapshot, options, build_valmap,
              partial_flag = plan.partial_flag](
                 const Deadline& deadline) -> Result<std::string> {
    core::ValmodOptions run_options = options;
    run_options.deadline = deadline;
    VALMOD_ASSIGN_OR_RETURN(core::ValmodResult result,
                            core::RunValmod(snapshot->engine(), run_options));
    Value::Object payload;
    payload.emplace("generation", Value(snapshot->generation()));
    payload.emplace("results_version", Value(mass::kResultsVersion));
    if (result.partial) {
      partial_flag->store(true, std::memory_order_relaxed);
      payload.emplace("partial", Value(true));
      // The longest length actually covered; per_length is an ascending,
      // gap-free prefix of [lmin, lmax].
      payload.emplace("completed_lmax",
                      Value(result.per_length.back().length));
    }
    if (build_valmap) {
      const core::Valmap& valmap = result.valmap;
      payload.emplace("size", Value(valmap.size()));
      payload.emplace("mpn", DoublesValue(valmap.normalized_profile()));
      payload.emplace("index_profile", IntsValue(valmap.index_profile()));
      Value::Array lp;
      lp.reserve(valmap.length_profile().size());
      for (const std::size_t l : valmap.length_profile()) {
        lp.push_back(Value(l));
      }
      payload.emplace("length_profile", Value(std::move(lp)));
    } else {
      Value::Array per_length;
      per_length.reserve(result.per_length.size());
      for (const core::LengthMotifs& lm : result.per_length) {
        Value::Object entry;
        entry.emplace("length", Value(lm.length));
        entry.emplace("motifs", MotifListValue(lm.motifs));
        per_length.push_back(Value(std::move(entry)));
      }
      payload.emplace("per_length", Value(std::move(per_length)));
      payload.emplace("ranked", MotifListValue(result.ranked));
    }
    return Value(std::move(payload)).Serialize();
  };
  return plan;
}

Result<QueryPlan> PlanProfile(const std::shared_ptr<Dataset>& dataset,
                              const Value& params) {
  VALMOD_RETURN_IF_ERROR(RejectUnknownParams(params, {"l", "threads"}));
  if (dataset->streaming()) {
    // The incrementally maintained profile is the dataset's native one;
    // a mismatched length request is an error rather than a silent batch
    // recompute at a different length.
    VALMOD_ASSIGN_OR_RETURN(
        std::size_t length,
        SizeParam(params, "l", dataset->streaming_length()));
    if (length != dataset->streaming_length()) {
      return Status::InvalidArgument(
          "streaming dataset '" + dataset->name() + "' maintains length " +
          std::to_string(dataset->streaming_length()) +
          "; requested l=" + std::to_string(length));
    }
    // The key derives from a cheap locked generation read; the O(n)
    // profile copy happens inside the job, i.e. only on a cache miss — a
    // polling client on a warm cache stays O(1). If an append lands
    // between the key read and the job's snapshot, the job serializes the
    // *newer* state under the older key: benign (generations only
    // advance, so a hit can only ever return data at least as fresh as
    // its key; the payload carries its true generation), and the next
    // plan keys at the new generation and recomputes.
    QueryPlan plan;
    plan.cache_key = CacheKey(*dataset, dataset->generation(), "profile",
                              "l=" + std::to_string(length));
    plan.job = [dataset](const Deadline& deadline) -> Result<std::string> {
      if (deadline.Expired()) {
        return Status::DeadlineExceeded("profile deadline expired");
      }
      VALMOD_ASSIGN_OR_RETURN(Dataset::StreamingState state,
                              dataset->StreamingProfileSnapshot());
      Value payload = ProfileValue(state.profile);
      payload.AsObject().emplace("generation", Value(state.generation));
      payload.AsObject().emplace("streaming", Value(true));
      payload.AsObject().emplace("points", Value(state.points));
      payload.AsObject().emplace("window_start", Value(state.window_start));
      return payload.Serialize();
    };
    return plan;
  }

  VALMOD_ASSIGN_OR_RETURN(std::size_t length, SizeParam(params, "l", 0));
  VALMOD_ASSIGN_OR_RETURN(int threads, ThreadsParam(params));
  VALMOD_ASSIGN_OR_RETURN(std::shared_ptr<const DatasetSnapshot> snapshot,
                          dataset->Snapshot());
  QueryPlan plan;
  // STOMP computes no convolutions, so its bytes are backend-independent
  // and the key needs nothing beyond the length.
  plan.cache_key = CacheKey(*dataset, snapshot->generation(), "profile",
                            "l=" + std::to_string(length));
  plan.job = [snapshot, length,
              threads](const Deadline& deadline) -> Result<std::string> {
    mp::ProfileOptions options;
    options.num_threads = threads;
    options.deadline = deadline;
    VALMOD_ASSIGN_OR_RETURN(
        mp::MatrixProfile profile,
        mp::ComputeStomp(snapshot->series(), length, options));
    Value payload = ProfileValue(profile);
    payload.AsObject().emplace("generation", Value(snapshot->generation()));
    payload.AsObject().emplace("streaming", Value(false));
    return payload.Serialize();
  };
  return plan;
}

Result<QueryPlan> PlanQuery(const std::shared_ptr<Dataset>& dataset,
                            const Value& params) {
  VALMOD_RETURN_IF_ERROR(
      RejectUnknownParams(params, {"values", "k"}));
  mass::QuerySearchOptions options;
  VALMOD_ASSIGN_OR_RETURN(options.k, SizeParam(params, "k", 1));
  VALMOD_ASSIGN_OR_RETURN(std::vector<double> query,
                          DoublesParam(params, "values"));
  VALMOD_ASSIGN_OR_RETURN(std::shared_ptr<const DatasetSnapshot> snapshot,
                          dataset->Snapshot());

  // The query values are part of the computation's identity, so the key
  // embeds their canonical serialization (queries are subsequence-sized —
  // tens to hundreds of points — so the key stays small).
  std::string params_key = "k=" + std::to_string(options.k) + ",values=";
  DoublesValue(query).SerializeTo(&params_key);
  QueryPlan plan;
  plan.cache_key =
      CacheKey(*dataset, snapshot->generation(), "query", params_key);
  auto shared_query = std::make_shared<std::vector<double>>(std::move(query));
  plan.job = [snapshot, options,
              shared_query](const Deadline& deadline) -> Result<std::string> {
    mass::QuerySearchOptions run_options = options;
    run_options.deadline = deadline;
    VALMOD_ASSIGN_OR_RETURN(
        std::vector<mass::QueryMatch> matches,
        mass::FindQueryMatches(snapshot->engine(), *shared_query,
                               run_options));
    Value::Object payload;
    payload.emplace("generation", Value(snapshot->generation()));
    payload.emplace("results_version", Value(mass::kResultsVersion));
    Value::Array out;
    out.reserve(matches.size());
    for (std::size_t r = 0; r < matches.size(); ++r) {
      Value::Object m;
      m.emplace("rank", Value(r + 1));
      m.emplace("offset", Value(static_cast<long long>(matches[r].offset)));
      m.emplace("distance", Value(matches[r].distance));
      out.push_back(Value(std::move(m)));
    }
    payload.emplace("matches", Value(std::move(out)));
    return Value(std::move(payload)).Serialize();
  };
  return plan;
}

Result<QueryPlan> PlanDiscords(const std::shared_ptr<Dataset>& dataset,
                               const Value& params) {
  VALMOD_RETURN_IF_ERROR(
      RejectUnknownParams(params, {"lmin", "lmax", "k", "threads"}));
  core::VariableDiscordOptions options;
  VALMOD_ASSIGN_OR_RETURN(options.min_length, SizeParam(params, "lmin", 0));
  VALMOD_ASSIGN_OR_RETURN(options.max_length, SizeParam(params, "lmax", 0));
  VALMOD_ASSIGN_OR_RETURN(options.k, SizeParam(params, "k", 1));
  VALMOD_ASSIGN_OR_RETURN(options.num_threads, ThreadsParam(params));
  // Same-length requests against a streaming dataset read the maintained
  // profile instead of recomputing (see PlanMaintained).
  if (std::optional<QueryPlan> maintained = PlanMaintained(
          dataset, "discords", options.min_length, options.max_length,
          options.k)) {
    return *std::move(maintained);
  }
  VALMOD_ASSIGN_OR_RETURN(std::shared_ptr<const DatasetSnapshot> snapshot,
                          dataset->Snapshot());
  std::string params_key = "lmin=" + std::to_string(options.min_length) +
                           ",lmax=" + std::to_string(options.max_length) +
                           ",k=" + std::to_string(options.k);
  QueryPlan plan;
  plan.cache_key = CacheKey(*dataset, snapshot->generation(), "discords",
                            params_key);
  plan.job = [snapshot,
              options](const Deadline& deadline) -> Result<std::string> {
    core::VariableDiscordOptions run_options = options;
    run_options.deadline = deadline;
    VALMOD_ASSIGN_OR_RETURN(
        core::VariableDiscordResult result,
        core::FindVariableLengthDiscords(snapshot->series(), run_options));
    Value::Object payload;
    payload.emplace("generation", Value(snapshot->generation()));
    Value::Array per_length;
    per_length.reserve(result.per_length.size());
    for (const core::LengthDiscords& ld : result.per_length) {
      Value::Object entry;
      entry.emplace("length", Value(ld.length));
      entry.emplace("discords", DiscordListValue(ld.discords));
      per_length.push_back(Value(std::move(entry)));
    }
    payload.emplace("per_length", Value(std::move(per_length)));
    return Value(std::move(payload)).Serialize();
  };
  return plan;
}

// ---------------------------------------------------------------------------
// Admin verbs (executed inline: they are registry/metadata operations, not
// compute, so they never queue behind heavy queries)
// ---------------------------------------------------------------------------

Value DatasetInfoValue(const DatasetRegistry::Info& info) {
  Value::Object o;
  o.emplace("name", Value(info.name));
  o.emplace("points", Value(info.points));
  o.emplace("generation", Value(info.generation));
  o.emplace("streaming", Value(info.streaming));
  if (info.streaming) {
    o.emplace("streaming_length", Value(info.streaming_length));
    o.emplace("max_points", Value(info.max_points));
    o.emplace("evicted", Value(info.evicted));
    o.emplace("total_appended", Value(info.total_appended));
    if (info.max_points > 0) {
      o.emplace("window_occupancy",
                Value(static_cast<double>(info.points) /
                      static_cast<double>(info.max_points)));
    }
  }
  o.emplace("memory_bytes", Value(info.memory_bytes));
  return Value(std::move(o));
}

Result<std::string> DoLoad(Service& service, const std::string& name,
                           const Value& params) {
  if (name.empty()) {
    return Status::InvalidArgument("load requires a 'dataset' name");
  }
  DatasetRegistry& registry = service.registry();
  VALMOD_RETURN_IF_ERROR(RejectUnknownParams(
      params, {"streaming_length", "exclusion_fraction", "max_points",
               "window", "path", "column", "generator", "n", "seed",
               "allow_nonfinite"}));
  std::shared_ptr<Dataset> dataset;
  if (params.Find("streaming_length") != nullptr) {
    VALMOD_ASSIGN_OR_RETURN(std::size_t length,
                            SizeParam(params, "streaming_length", 0));
    const double exclusion = params.GetNumber("exclusion_fraction", 0.5);
    // `window` is an alias for `max_points` (0 = unbounded). Both are
    // accepted for protocol symmetry with the docs; disagreeing values are
    // an error rather than a silent precedence rule.
    VALMOD_ASSIGN_OR_RETURN(std::size_t max_points,
                            SizeParam(params, "max_points", 0));
    VALMOD_ASSIGN_OR_RETURN(std::size_t window, SizeParam(params, "window", 0));
    if (max_points != 0 && window != 0 && max_points != window) {
      return Status::InvalidArgument(
          "params 'max_points' and 'window' are aliases and disagree (" +
          std::to_string(max_points) + " vs " + std::to_string(window) + ")");
    }
    if (max_points == 0) max_points = window;
    VALMOD_ASSIGN_OR_RETURN(
        dataset,
        registry.CreateStreaming(name, length, exclusion, max_points));
  } else if (params.Find("path") != nullptr) {
    VALMOD_ASSIGN_OR_RETURN(std::size_t column, SizeParam(params, "column", 0));
    series::ReadOptions read_options;
    VALMOD_ASSIGN_OR_RETURN(read_options.allow_nonfinite,
                            BoolParam(params, "allow_nonfinite", false));
    VALMOD_ASSIGN_OR_RETURN(
        series::DataSeries series,
        series::ReadDelimited(params.GetString("path", ""), column,
                              read_options));
    VALMOD_ASSIGN_OR_RETURN(dataset,
                            registry.LoadSeries(name, std::move(series)));
  } else if (params.Find("generator") != nullptr) {
    VALMOD_ASSIGN_OR_RETURN(std::size_t n, SizeParam(params, "n", 20000));
    // Generator size is bounded so a typo'd request exhausts neither time
    // nor memory (1e8 points is ~800 MB of doubles before stats).
    if (n > 100000000) {
      return Status::InvalidArgument("generator 'n' must be <= 1e8");
    }
    VALMOD_ASSIGN_OR_RETURN(std::size_t seed, SizeParam(params, "seed", 1));
    VALMOD_ASSIGN_OR_RETURN(
        series::DataSeries series,
        synth::ByName(params.GetString("generator", ""), n,
                      static_cast<std::uint64_t>(seed)));
    VALMOD_ASSIGN_OR_RETURN(dataset,
                            registry.LoadSeries(name, std::move(series)));
  } else {
    return Status::InvalidArgument(
        "load params must carry 'path', 'generator', or 'streaming_length'");
  }
  Value::Object payload;
  payload.emplace("name", Value(dataset->name()));
  payload.emplace("points", Value(dataset->size()));
  payload.emplace("generation", Value(dataset->generation()));
  payload.emplace("streaming", Value(dataset->streaming()));
  if (dataset->streaming()) {
    payload.emplace("max_points", Value(dataset->max_points()));
  }
  return Value(std::move(payload)).Serialize();
}

Result<std::string> DoUnload(Service& service, const std::string& name,
                             const Value&) {
  if (name.empty()) {
    return Status::InvalidArgument("unload requires a 'dataset' name");
  }
  VALMOD_RETURN_IF_ERROR(service.registry().Unload(name));
  std::string payload = "{\"unloaded\":";
  json::AppendQuoted(name, &payload);
  payload += "}";
  return payload;
}

Result<std::string> DoAppend(Service& service, const std::string& name,
                             const Value& params) {
  if (name.empty()) {
    return Status::InvalidArgument("append requires a 'dataset' name");
  }
  VALMOD_RETURN_IF_ERROR(RejectUnknownParams(params, {"values"}));
  VALMOD_ASSIGN_OR_RETURN(std::shared_ptr<Dataset> dataset,
                          service.registry().Get(name));
  VALMOD_ASSIGN_OR_RETURN(std::vector<double> values,
                          DoublesParam(params, "values"));
  VALMOD_ASSIGN_OR_RETURN(Dataset::AppendResult appended,
                          dataset->Append(values));
  Value::Object payload;
  payload.emplace("points", Value(appended.points));
  payload.emplace("subsequences", Value(appended.subsequences));
  payload.emplace("generation", Value(appended.generation));
  payload.emplace("window_start", Value(appended.window_start));
  payload.emplace("evicted", Value(appended.evicted));
  payload.emplace("total_appended", Value(appended.total_appended));
  return Value(std::move(payload)).Serialize();
}

Result<std::string> DoStats(Service& service, const std::string&,
                            const Value&) {
  Value::Object payload;
  Value::Array datasets;
  for (const DatasetRegistry::Info& info : service.registry().List()) {
    datasets.push_back(DatasetInfoValue(info));
  }
  payload.emplace("datasets", Value(std::move(datasets)));

  const ResultCache::Stats cache = service.result_cache().stats();
  Value::Object cache_obj;
  cache_obj.emplace("entries", Value(cache.entries));
  cache_obj.emplace("capacity", Value(cache.capacity));
  cache_obj.emplace("hits", Value(cache.hits));
  cache_obj.emplace("misses", Value(cache.misses));
  cache_obj.emplace("insertions", Value(cache.insertions));
  cache_obj.emplace("evictions", Value(cache.evictions));
  cache_obj.emplace("inflight", Value(cache.inflight));
  cache_obj.emplace("coalesced", Value(cache.coalesced));
  cache_obj.emplace("failovers", Value(cache.failovers));
  cache_obj.emplace("flights_led", Value(cache.flights_led));
  cache_obj.emplace("waiters_served", Value(cache.waiters_served));
  payload.emplace("cache", Value(std::move(cache_obj)));

  const SchedulerStats sched = service.scheduler().stats();
  Value::Object sched_obj;
  sched_obj.emplace("queue_depth", Value(sched.queue_depth));
  sched_obj.emplace("active", Value(sched.active));
  sched_obj.emplace("admitted", Value(sched.admitted));
  sched_obj.emplace("completed", Value(sched.completed));
  sched_obj.emplace("rejected", Value(sched.rejected));
  sched_obj.emplace("shed", Value(sched.shed));
  sched_obj.emplace("cancelled", Value(sched.cancelled));
  sched_obj.emplace("expired", Value(sched.expired));
  sched_obj.emplace("overruns", Value(sched.overruns));
  sched_obj.emplace("stalled", Value(sched.stalled));
  sched_obj.emplace("mean_queue_wait_ms", Value(sched.mean_queue_wait_ms));
  sched_obj.emplace("max_queue_wait_ms", Value(sched.max_queue_wait_ms));
  sched_obj.emplace("mean_service_ms", Value(sched.mean_service_ms));
  sched_obj.emplace("retry_after_ms", Value(sched.retry_after_ms));
  payload.emplace("scheduler", Value(std::move(sched_obj)));

  // Per-verb latency/throughput: exact mean/stddev from the Welford
  // accumulators, p50/p99 from the log-scale histograms.
  Value::Array verbs;
  for (const VerbMetrics::VerbSnapshot& v : service.metrics().Snapshot()) {
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
  payload.emplace("verbs", Value(std::move(verbs)));
  payload.emplace("uptime_seconds", Value(service.metrics().UptimeSeconds()));

  payload.emplace("results_version", Value(mass::kResultsVersion));
  payload.emplace("simd_target",
                  Value(std::string(simd::TargetName(simd::ActiveTarget()))));
  payload.emplace("cpu_features", Value(simd::CpuFeatureString()));
  return Value(std::move(payload)).Serialize();
}

/// Lists every armed fault point with its trigger state. Shared by the
/// `faults` verb's response and by `health` (armed faults mark the process
/// degraded — chaos harnesses must never be mistaken for a healthy server).
Value FaultListValue() {
  Value::Array points;
  if constexpr (fault::kFaultInjectionEnabled) {
    for (const fault::FaultPointInfo& info :
         fault::FaultInjector::Global().List()) {
      Value::Object o;
      o.emplace("point", Value(info.point));
      switch (info.spec.kind) {
        case fault::FaultKind::kError:
          o.emplace("kind", Value("error"));
          o.emplace("code", Value(std::string(
                                StatusCodeName(info.spec.code))));
          break;
        case fault::FaultKind::kDelay:
          o.emplace("kind", Value("delay"));
          o.emplace("delay_ms", Value(info.spec.delay_ms));
          break;
        case fault::FaultKind::kAllocFail:
          o.emplace("kind", Value("alloc"));
          break;
      }
      o.emplace("hits", Value(info.hits));
      o.emplace("fires", Value(info.fires));
      points.push_back(Value(std::move(o)));
    }
  }
  return Value(std::move(points));
}

/// `faults` verb: arm/disarm fault points at runtime, for chaos testing a
/// live server without restarting it. Unavailable (structured, not fatal)
/// when the build compiled fault injection out.
Result<std::string> DoFaults(Service&, const std::string&,
                             const Value& params) {
  VALMOD_RETURN_IF_ERROR(
      RejectUnknownParams(params, {"arm", "disarm", "disarm_all"}));
  if constexpr (!fault::kFaultInjectionEnabled) {
    return Status::Unavailable(
        "fault injection compiled out (build with -DVALMOD_FAULT_INJECTION=ON)");
  }
  fault::FaultInjector& injector = fault::FaultInjector::Global();
  if (const Value* arm = params.Find("arm")) {
    if (!arm->is_string()) {
      return Status::InvalidArgument("param 'arm' must be a directive string");
    }
    VALMOD_RETURN_IF_ERROR(injector.ArmFromString(arm->AsString()));
  }
  if (const Value* disarm = params.Find("disarm")) {
    if (!disarm->is_string()) {
      return Status::InvalidArgument(
          "param 'disarm' must be a fault point name");
    }
    injector.Disarm(disarm->AsString());
  }
  VALMOD_ASSIGN_OR_RETURN(const bool disarm_all,
                          BoolParam(params, "disarm_all", false));
  if (disarm_all) injector.DisarmAll();
  Value::Object payload;
  payload.emplace("armed", FaultListValue());
  return Value(std::move(payload)).Serialize();
}

/// `health` verb: one cheap, always-serviceable probe that summarizes
/// whether the process is degraded — stalled workers, a saturated
/// admission queue, or armed fault points — without queueing behind the
/// very overload it is reporting.
Result<std::string> DoHealth(Service& service, const std::string&,
                             const Value&) {
  const SchedulerStats sched = service.scheduler().stats();
  Value::Array reasons;
  if (sched.stalled > 0) {
    reasons.push_back(Value("stalled_workers"));
  }
  if (sched.queue_depth >= service.options().queue_capacity) {
    reasons.push_back(Value("admission_queue_full"));
  }
  int faults_armed = 0;
  if constexpr (fault::kFaultInjectionEnabled) {
    faults_armed = fault::FaultInjector::Global().armed_count();
  }
  if (faults_armed > 0) {
    reasons.push_back(Value("faults_armed"));
  }
  Value::Object payload;
  payload.emplace("status", Value(reasons.empty() ? "ok" : "degraded"));
  payload.emplace("reasons", Value(std::move(reasons)));
  payload.emplace("stalled", Value(sched.stalled));
  payload.emplace("active", Value(sched.active));
  payload.emplace("queue_depth", Value(sched.queue_depth));
  payload.emplace("queue_capacity", Value(service.options().queue_capacity));
  payload.emplace("datasets", Value(service.registry().List().size()));
  payload.emplace("faults_armed", Value(faults_armed));
  payload.emplace("simd_target",
                  Value(std::string(simd::TargetName(simd::ActiveTarget()))));
  return Value(std::move(payload)).Serialize();
}

/// `metrics` verb: the whole process's telemetry as OpenMetrics text. The
/// exposition rides the NDJSON protocol as a JSON string field, so an
/// operator (or scrape bridge) issues {"verb":"metrics"} and writes the
/// `body` bytes through verbatim.
Result<std::string> DoMetrics(Service& service, const std::string&,
                              const Value&) {
  const std::string body =
      RenderOpenMetrics(service.metrics(), service.result_cache().stats(),
                        service.scheduler().stats());
  std::string payload = "{\"format\":\"openmetrics\",\"body\":";
  json::AppendQuoted(body, &payload);
  payload += '}';
  return payload;
}

/// `slowlog` verb: the worst-latency requests the server has completed,
/// slowest first, each with its span tree when tracing was on.
Result<std::string> DoSlowlog(Service& service, const std::string&,
                              const Value&) {
  std::string payload = "{\"entries\":[";
  bool first = true;
  for (const SlowLog::Entry& entry : service.slowlog().Snapshot()) {
    if (!first) payload += ',';
    first = false;
    payload += "{\"verb\":";
    json::AppendQuoted(entry.verb, &payload);
    payload += ",\"latency_ms\":";
    payload += Value(entry.latency_ms).Serialize();
    payload += entry.ok ? ",\"ok\":true" : ",\"ok\":false";
    if (!entry.trace_id.empty()) {
      payload += ",\"trace_id\":";
      json::AppendQuoted(entry.trace_id, &payload);
    }
    if (!entry.spans_json.empty()) {
      payload += ",\"trace\":";
      payload += entry.spans_json;
    }
    payload += '}';
  }
  payload += "]}";
  return payload;
}

Result<std::string> DoShutdown(Service& service, const std::string&,
                               const Value&) {
  service.RequestShutdown();
  return std::string("{\"shutting_down\":true}");
}

Result<QueryPlan> PlanMotifs(const std::shared_ptr<Dataset>& dataset,
                             const Value& params) {
  return PlanValmod(dataset, params, /*build_valmap=*/false);
}

Result<QueryPlan> PlanValmap(const std::shared_ptr<Dataset>& dataset,
                             const Value& params) {
  return PlanValmod(dataset, params, /*build_valmap=*/true);
}

/// One entry per verb the service answers; exactly one of `admin` and
/// `plan` is set. Admin verbs run inline on the calling thread. Query verbs
/// are planned against their dataset, then coalesced, cached and
/// scheduled. Dispatch and FailureLabel both read this table, so a verb
/// cannot be answered and yet be labelled "unknown".
struct Verb {
  std::string_view name;
  Result<std::string> (*admin)(Service&, const std::string& dataset,
                               const Value& params);
  Result<QueryPlan> (*plan)(const std::shared_ptr<Dataset>&, const Value&);
};

constexpr Verb kVerbs[] = {
    {"load", DoLoad, nullptr},         {"unload", DoUnload, nullptr},
    {"append", DoAppend, nullptr},     {"stats", DoStats, nullptr},
    {"faults", DoFaults, nullptr},     {"health", DoHealth, nullptr},
    {"metrics", DoMetrics, nullptr},   {"slowlog", DoSlowlog, nullptr},
    {"shutdown", DoShutdown, nullptr}, {"motifs", nullptr, PlanMotifs},
    {"valmap", nullptr, PlanValmap},   {"profile", nullptr, PlanProfile},
    {"query", nullptr, PlanQuery},     {"discords", nullptr, PlanDiscords},
};

const Verb* FindVerb(std::string_view name) {
  for (const Verb& verb : kVerbs) {
    if (verb.name == name) return &verb;
  }
  return nullptr;
}

double ElapsedMs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
             .count() *
         1e3;
}

/// Blocking adapter for the sync entry points: parks the caller until the
/// async path invokes the captured callback (which may happen on a
/// scheduler worker thread).
struct SyncWaiter {
  std::mutex mutex;
  std::condition_variable cv;
  std::string response;
  bool signalled = false;
};

Service::ResponseCallback CaptureInto(std::shared_ptr<SyncWaiter> waiter) {
  return [waiter = std::move(waiter)](std::string response) {
    {
      std::lock_guard<std::mutex> lock(waiter->mutex);
      waiter->response = std::move(response);
      waiter->signalled = true;
    }
    waiter->cv.notify_one();
  };
}

std::string AwaitResponse(SyncWaiter& waiter) {
  std::unique_lock<std::mutex> lock(waiter.mutex);
  waiter.cv.wait(lock, [&] { return waiter.signalled; });
  return std::move(waiter.response);
}

/// The label a failed request is recorded under in the metrics and the
/// slow-query log. The verb is client-supplied, so only the verbs the
/// service answers become labels: anything else is "unknown". Otherwise
/// every distinct bogus verb would add a permanent label set, and its raw
/// text would land unescaped in the OpenMetrics exposition.
std::string FailureLabel(const std::string& verb) {
  if (verb.empty()) return "invalid";
  return FindVerb(verb) == nullptr ? "unknown" : verb;
}

}  // namespace

/// One query request in flight through the async path: everything needed
/// to execute it (or re-execute it after a fail-over promotion), deliver
/// its response, and account for it — independent of the calling thread.
struct Service::RequestContext {
  Value id;
  std::string verb;
  QueryScheduler::Job job;
  std::shared_ptr<std::atomic<bool>> partial_flag;
  std::string cache_key;
  int priority = 0;
  Deadline deadline;
  ResponseCallback done;
  std::chrono::steady_clock::time_point started_at;
  /// Per-request span tree; null when tracing is globally disabled. Shared
  /// with the job wrapper, which rebinds it on the executing worker.
  std::shared_ptr<trace::TraceContext> trace_context;
  /// Index of the root "request" span in trace_context.
  int root_span = -1;
  /// Whether the envelope asked for the span tree back ("trace":true).
  bool want_trace = false;
};

Service::Service(const ServiceOptions& options)
    : options_(options),
      cache_(options.cache_capacity),
      slowlog_(options.slowlog_capacity),
      scheduler_(SchedulerOptions{options.workers, options.queue_capacity}) {}

void Service::HandleRequestAsync(const std::string& line,
                                 ResponseCallback done) {
  Handle(line, std::move(done));
}

std::string Service::HandleRequest(const std::string& line) {
  auto waiter = std::make_shared<SyncWaiter>();
  Handle(line, CaptureInto(waiter));
  return AwaitResponse(*waiter);
}

void Service::Handle(const std::string& line, ResponseCallback done) {
  const auto started = std::chrono::steady_clock::now();
  Value id;  // null until the request proves parseable
  std::string verb;
  bool want_trace = false;

  // Every request gets a span tree while tracing is globally on; the
  // `trace` envelope param only controls whether it is *returned*. The
  // root "request" span covers arrival through delivery start; stage
  // spans nest under it. Binding the context here makes TraceSpans fire
  // for everything resolved inline on this thread (parse, planning, admin
  // verbs); the job wrapper rebinds on the scheduler worker.
  std::shared_ptr<trace::TraceContext> tctx;
  int root_span = -1;
  if (trace::Enabled()) {
    tctx = std::make_shared<trace::TraceContext>();
    root_span = tctx->BeginSpan("request", -1);
  }
  const trace::ScopedBinding bind(trace::Binding{tctx.get(), root_span});

  // Synchronous delivery for everything resolved inline: admin verbs,
  // cache hits, and every validation error. (The query path below moves
  // `done` into its context instead; control flow guarantees these
  // lambdas are never touched after that.)
  const auto fail = [&](const Status& status) {
    const std::string label = FailureLabel(verb);
    const double latency_ms = ElapsedMs(started);
    metrics_.Record(label, latency_ms, /*ok=*/false);
    if (tctx != nullptr) tctx->EndSpan(root_span);
    RecordSlowRequest(label, latency_ms, /*ok=*/false, tctx.get());
    done(ErrorResponse(id, verb, status, TraceFragment(tctx.get(), want_trace)) +
         "\n");
  };
  const auto ok = [&](const std::string& payload, bool cached) {
    const double latency_ms = ElapsedMs(started);
    metrics_.Record(verb, latency_ms, /*ok=*/true);
    if (tctx != nullptr) tctx->EndSpan(root_span);
    RecordSlowRequest(verb, latency_ms, /*ok=*/true, tctx.get());
    done(EncodeOkWire(id, verb, cached, /*coalesced=*/false, payload,
                      options_.page_bytes,
                      TraceFragment(tctx.get(), want_trace)));
  };

  Result<Value> parsed = [&] {
    const trace::TraceSpan span("parse");
    return json::Parse(line);
  }();
  if (!parsed.ok()) return fail(parsed.status());
  const Value& request = *parsed;
  if (!request.is_object()) {
    return fail(Status::InvalidArgument("request must be a JSON object"));
  }
  if (const Value* idv = request.Find("id")) id = *idv;
  verb = request.GetString("verb", "");
  if (verb.empty()) {
    return fail(
        Status::InvalidArgument("request must carry a string 'verb'"));
  }
  if (const Value* tv = request.Find("trace")) {
    if (!tv->is_bool()) {
      return fail(Status::InvalidArgument("'trace' must be a boolean"));
    }
    want_trace = tv->AsBool();
  }
  Value params{Value::Object{}};
  if (const Value* p = request.Find("params")) {
    if (!p->is_object()) {
      return fail(Status::InvalidArgument("'params' must be an object"));
    }
    params = *p;
  }
  const std::string dataset_name = request.GetString("dataset", "");

  const Verb* entry = FindVerb(verb);
  if (entry == nullptr) {
    return fail(Status::InvalidArgument("unknown verb '" + verb + "'"));
  }
  if (entry->admin != nullptr) {
    Result<std::string> payload = entry->admin(*this, dataset_name, params);
    if (!payload.ok()) return fail(payload.status());
    return ok(*payload, /*cached=*/false);
  }

  // ---- query verbs: coalesce -> scheduler ----
  if (dataset_name.empty()) {
    return fail(
        Status::InvalidArgument(verb + " requires a 'dataset' name"));
  }
  Result<std::shared_ptr<Dataset>> dataset = registry_.Get(dataset_name);
  if (!dataset.ok()) return fail(dataset.status());

  Result<QueryPlan> plan = [&]() -> Result<QueryPlan> {
    const trace::TraceSpan span("plan");
    return entry->plan(*dataset, params);
  }();
  if (!plan.ok()) return fail(plan.status());

  // Envelope numerics: wrong *types* are rejected (a string "5000" for
  // timeout_ms silently running unbounded would be the opposite of the
  // requested deadline); out-of-range *values* are clamped — an absurd
  // timeout means "effectively forever" and an absurd priority still
  // orders correctly, while unchecked double -> integer casts on
  // untrusted values would be undefined behavior.
  for (const char* field : {"timeout_ms", "priority"}) {
    const Value* v = request.Find(field);
    if (v != nullptr && !v->is_number()) {
      return fail(Status::InvalidArgument(std::string("'") + field +
                                          "' must be a number"));
    }
  }
  const double timeout_ms =
      std::min(request.GetNumber("timeout_ms", -1.0), 8.64e10);  // <= 1000d
  Deadline deadline;
  if (timeout_ms >= 0.0) {
    deadline = Deadline::After(timeout_ms / 1000.0);
  } else if (options_.default_timeout_seconds > 0.0) {
    deadline = Deadline::After(options_.default_timeout_seconds);
  }

  auto ctx = std::make_shared<RequestContext>();
  ctx->id = id;
  ctx->verb = verb;
  ctx->partial_flag = plan->partial_flag;
  ctx->cache_key = std::move(plan->cache_key);
  ctx->priority = static_cast<int>(
      std::clamp(request.GetNumber("priority", 0.0), -1.0e6, 1.0e6));
  ctx->deadline = deadline;
  ctx->done = std::move(done);
  ctx->started_at = started;
  ctx->trace_context = tctx;
  ctx->root_span = root_span;
  ctx->want_trace = want_trace;
  // The fault point's hit counter increments once per job *execution*
  // while armed, which is exactly what the coalescing tests and the
  // bench's miss-storm probe count as "underlying computations".
  ctx->job = [job = std::move(plan->job)](
                 const Deadline& d) -> Result<std::string> {
    const Status fault = VALMOD_FAULT_POINT("server.query.compute");
    if (!fault.ok()) return fault;
    return job(d);
  };

  if (ctx->cache_key.empty()) {
    // No computation identity: nothing to look up or coalesce against.
    ExecuteAsLeader(ctx);
    return;
  }
  ResultCache::InFlightWaiter waiter;
  waiter.deliver = [this, ctx](std::shared_ptr<const std::string> value) {
    if (ctx->deadline.Expired()) {
      DeliverError(ctx, Status::DeadlineExceeded(
                            "deadline expired while coalesced behind an "
                            "identical in-flight request"));
      return;
    }
    DeliverOk(ctx, *value, /*cached=*/false, /*coalesced=*/true);
  };
  waiter.promote = [this, ctx] { ExecuteAsLeader(ctx); };
  int cache_span = -1;
  if (tctx != nullptr) cache_span = tctx->BeginSpan("cache_lookup", root_span);
  const ResultCache::FlightLookup lookup =
      cache_.GetOrJoin(ctx->cache_key, std::move(waiter));
  if (tctx != nullptr) tctx->EndSpan(cache_span);
  switch (lookup.state) {
    case ResultCache::FlightState::kHit:
      DeliverOk(ctx, *lookup.value, /*cached=*/true, /*coalesced=*/false);
      return;
    case ResultCache::FlightState::kJoined:
      return;  // parked; the leader's completion fans out to us
    case ResultCache::FlightState::kLeader:
      ExecuteAsLeader(ctx);
      return;
  }
}

void Service::ExecuteAsLeader(const std::shared_ptr<RequestContext>& ctx) {
  QueryScheduler::Job job = ctx->job;
  if (ctx->trace_context != nullptr) {
    // Wrap at submit time (not in ctx->job itself) so the context never
    // owns a closure that captures its own shared_ptr. The queue_wait
    // span runs from here until a worker picks the job up; rebinding on
    // the worker lets engine-level TraceSpans attach under the root.
    auto tctx = ctx->trace_context;
    const int root = ctx->root_span;
    const int queue_span = tctx->BeginSpan("queue_wait", root);
    job = [job = std::move(job), tctx, root,
           queue_span](const Deadline& d) -> Result<std::string> {
      tctx->EndSpan(queue_span);
      const trace::ScopedBinding bind(trace::Binding{tctx.get(), root});
      const trace::TraceSpan span("compute");
      return job(d);
    };
  }
  Result<std::shared_ptr<QueryScheduler::Ticket>> ticket = scheduler_.Submit(
      std::move(job), ctx->priority, ctx->deadline,
      [this, ctx](const Result<std::string>& result) {
        OnLeaderComplete(ctx, result);
      });
  if (!ticket.ok()) {
    // Never admitted, so the completion will not fire. Deliver the
    // overload error here and pass leadership on — a parked waiter may
    // carry a higher priority or arrive at a drained queue.
    const std::string key = ctx->cache_key;
    DeliverError(ctx, ticket.status());
    if (!key.empty()) FailOverFlight(key);
  }
}

void Service::OnLeaderComplete(const std::shared_ptr<RequestContext>& ctx,
                               const Result<std::string>& result) {
  const std::string& key = ctx->cache_key;
  if (!result.ok()) {
    DeliverError(ctx, result.status());
    if (!key.empty()) FailOverFlight(key);
    return;
  }
  const bool partial = ctx->partial_flag != nullptr &&
                       ctx->partial_flag->load(std::memory_order_relaxed);
  if (partial) {
    // A deadline-truncated payload is private to the leader that opted
    // into allow_partial: it is never cached, and fanning it out would
    // hand waiters a truncated answer they did not ask for — the next
    // waiter computes for itself instead.
    DeliverOk(ctx, *result, /*cached=*/false, /*coalesced=*/false);
    if (!key.empty()) FailOverFlight(key);
    return;
  }
  auto value = std::make_shared<const std::string>(*result);
  // Close the flight (store the value, collect the waiters) BEFORE
  // delivering to the leader: the moment the leader's client sees its
  // response, an identical follow-up request must find a cache hit, not
  // a stale open flight.
  std::vector<ResultCache::InFlightWaiter> waiters;
  if (!key.empty()) {
    waiters = cache_.CompleteFlight(key, value, /*cache_value=*/true);
  }
  DeliverOk(ctx, *value, /*cached=*/false, /*coalesced=*/false);
  for (ResultCache::InFlightWaiter& waiter : waiters) {
    waiter.deliver(value);
  }
}

void Service::FailOverFlight(const std::string& key) {
  // The promotion runs outside the cache lock; a promotion that fails
  // admission recurses here with one fewer waiter, so the chain always
  // terminates.
  if (std::optional<ResultCache::InFlightWaiter> next =
          cache_.FailFlight(key)) {
    next->promote();
  }
}

void Service::DeliverOk(const std::shared_ptr<RequestContext>& ctx,
                        const std::string& payload, bool cached,
                        bool coalesced) {
  const double latency_ms = ElapsedMs(ctx->started_at);
  metrics_.Record(ctx->verb, latency_ms, /*ok=*/true);
  trace::TraceContext* tctx = ctx->trace_context.get();
  // The root span closes before the fragment renders so the returned tree
  // accounts for the full queued + computed interval. The serialize span
  // lands after that render — it cannot appear in its own response — but
  // it does reach the slowlog entry, which renders just before delivery:
  // recording ahead of done() guarantees that once a client holds its
  // response, the request is already visible to a `slowlog` scrape (done()
  // unblocks synchronous callers, which would otherwise race this thread).
  if (tctx != nullptr) tctx->EndSpan(ctx->root_span);
  const std::string fragment = TraceFragment(tctx, ctx->want_trace);
  std::string wire;
  {
    const trace::ScopedBinding bind(trace::Binding{tctx, ctx->root_span});
    const trace::TraceSpan span("serialize");
    wire = EncodeOkWire(ctx->id, ctx->verb, cached, coalesced, payload,
                        options_.page_bytes, fragment);
  }
  RecordSlowRequest(ctx->verb, latency_ms, /*ok=*/true, tctx);
  ctx->done(std::move(wire));
}

void Service::DeliverError(const std::shared_ptr<RequestContext>& ctx,
                           const Status& status) {
  const double latency_ms = ElapsedMs(ctx->started_at);
  metrics_.Record(ctx->verb, latency_ms, /*ok=*/false);
  trace::TraceContext* tctx = ctx->trace_context.get();
  if (tctx != nullptr) tctx->EndSpan(ctx->root_span);
  RecordSlowRequest(ctx->verb, latency_ms, /*ok=*/false, tctx);
  ctx->done(ErrorResponse(ctx->id, ctx->verb, status,
                          TraceFragment(tctx, ctx->want_trace)) +
            "\n");
}

void Service::RecordSlowRequest(const std::string& verb, double latency_ms,
                                bool ok, const trace::TraceContext* context) {
  if (!slowlog_.WouldAdmit(latency_ms)) return;
  SlowLog::Entry entry;
  entry.verb = verb;
  entry.latency_ms = latency_ms;
  entry.ok = ok;
  if (context != nullptr) {
    entry.trace_id = trace::TraceIdHex(context->trace_id());
    entry.spans_json = RenderTraceJson(*context);
  }
  slowlog_.Add(std::move(entry));
}

}  // namespace valmod::service
