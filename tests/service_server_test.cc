// Server protocol tests: request/response round trips through Service
// (in-process), error paths that must never kill the process, result-cache
// and generation semantics observable through the protocol, a 4-client
// concurrency run (TSan'd in CI), and an end-to-end smoke of the real
// valmod_server binary in --stdio mode.

#include "service/server.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "series/generators.h"

namespace valmod::service {
namespace {

using json::Value;

/// Sends one request line and parses the response (which must always be
/// valid JSON — that is itself part of the protocol contract).
Value Roundtrip(Service& service, const std::string& line) {
  const std::string response = service.HandleRequest(line);
  auto parsed = json::Parse(response);
  EXPECT_TRUE(parsed.ok()) << "unparseable response: " << response;
  return parsed.ok() ? *parsed : Value();
}

bool Ok(const Value& response) { return response.GetBool("ok", false); }

std::string ErrorCode(const Value& response) {
  const Value* error = response.Find("error");
  return error == nullptr ? "" : error->GetString("code", "");
}

TEST(ServiceProtocolTest, LoadQueryCacheStatsUnloadSession) {
  Service service;
  // load
  Value load = Roundtrip(service,
      R"({"id":1,"verb":"load","dataset":"ecg",)"
      R"("params":{"generator":"ecg","n":4096,"seed":1}})");
  ASSERT_TRUE(Ok(load)) << load.Serialize();
  EXPECT_DOUBLE_EQ(load.Find("id")->AsDouble(), 1.0);
  EXPECT_DOUBLE_EQ(load.Find("result")->GetNumber("points", 0), 4096.0);

  // motifs (miss, computed)
  const std::string motifs_request =
      R"({"id":2,"verb":"motifs","dataset":"ecg",)"
      R"("params":{"lmin":100,"lmax":103,"k":2}})";
  Value first = Roundtrip(service, motifs_request);
  ASSERT_TRUE(Ok(first)) << first.Serialize();
  EXPECT_FALSE(first.GetBool("cached", true));
  const Value* per_length = first.Find("result")->Find("per_length");
  ASSERT_NE(per_length, nullptr);
  EXPECT_EQ(per_length->AsArray().size(), 4u);  // lengths 100..103

  // identical motifs (hit) — byte-identical result, cached flag set
  Value second = Roundtrip(service, motifs_request);
  ASSERT_TRUE(Ok(second));
  EXPECT_TRUE(second.GetBool("cached", false));
  EXPECT_EQ(second.Find("result")->Serialize(),
            first.Find("result")->Serialize());

  // different threads param must HIT too (results are thread-count
  // independent, so `threads` is not part of the cache key)
  Value threaded = Roundtrip(service,
      R"({"id":3,"verb":"motifs","dataset":"ecg",)"
      R"("params":{"lmin":100,"lmax":103,"k":2,"threads":4}})");
  ASSERT_TRUE(Ok(threaded));
  EXPECT_TRUE(threaded.GetBool("cached", false));

  // stats reflects the hits
  Value stats = Roundtrip(service, R"({"id":4,"verb":"stats"})");
  ASSERT_TRUE(Ok(stats));
  const Value* cache = stats.Find("result")->Find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_DOUBLE_EQ(cache->GetNumber("hits", -1), 2.0);
  EXPECT_DOUBLE_EQ(cache->GetNumber("misses", -1), 1.0);
  const Value* scheduler = stats.Find("result")->Find("scheduler");
  ASSERT_NE(scheduler, nullptr);
  EXPECT_DOUBLE_EQ(scheduler->GetNumber("completed", -1), 1.0);
  const Value* datasets = stats.Find("result")->Find("datasets");
  ASSERT_NE(datasets, nullptr);
  ASSERT_EQ(datasets->AsArray().size(), 1u);
  EXPECT_EQ(datasets->AsArray()[0].GetString("name", ""), "ecg");

  // unload, then querying is NotFound
  Value unload =
      Roundtrip(service, R"({"id":5,"verb":"unload","dataset":"ecg"})");
  ASSERT_TRUE(Ok(unload));
  Value gone = Roundtrip(service, motifs_request);
  EXPECT_FALSE(Ok(gone));
  EXPECT_EQ(ErrorCode(gone), "NotFound");
}

TEST(ServiceProtocolTest, ReloadingANameNeverServesTheOldDatasetsCache) {
  Service service;
  const std::string request =
      R"({"verb":"query","dataset":"d",)"
      R"("params":{"values":[0,1,0,-1,0,1,0,-1],"k":1}})";
  // Same name, two different underlying series across an unload/reload.
  ASSERT_TRUE(Ok(Roundtrip(service,
      R"({"verb":"load","dataset":"d",)"
      R"("params":{"generator":"sine","n":512,"seed":1}})")));
  Value first = Roundtrip(service, request);
  ASSERT_TRUE(Ok(first));
  ASSERT_TRUE(Ok(Roundtrip(service, R"({"verb":"unload","dataset":"d"})")));
  ASSERT_TRUE(Ok(Roundtrip(service,
      R"({"verb":"load","dataset":"d",)"
      R"("params":{"generator":"random_walk","n":512,"seed":9}})")));
  Value second = Roundtrip(service, request);
  ASSERT_TRUE(Ok(second));
  // Must be a fresh computation against the new data, not a cache hit
  // from the old series that happened to share name and generation.
  EXPECT_FALSE(second.GetBool("cached", true));
  EXPECT_NE(second.Find("result")->Serialize(),
            first.Find("result")->Serialize());
}

TEST(ServiceProtocolTest, OutOfRangeNumericParamsAreStructuredErrors) {
  Service service;
  Roundtrip(service,
            R"({"verb":"load","dataset":"d",)"
            R"("params":{"generator":"sine","n":256}})");
  // Values beyond any representable size must come back as errors, not
  // wrap, crash, or trip UBSan.
  EXPECT_EQ(ErrorCode(Roundtrip(service,
                R"({"verb":"motifs","dataset":"d",)"
                R"("params":{"lmin":16,"lmax":20,"k":1e300}})")),
            "InvalidArgument");
  EXPECT_EQ(ErrorCode(Roundtrip(service,
                R"({"verb":"motifs","dataset":"d",)"
                R"("params":{"lmin":16,"lmax":20,"threads":1e9}})")),
            "InvalidArgument");
  EXPECT_EQ(ErrorCode(Roundtrip(service,
                R"({"verb":"load","dataset":"big",)"
                R"("params":{"generator":"sine","n":1e11}})")),
            "InvalidArgument");
  // Envelope numerics are clamped rather than rejected; the request still
  // executes.
  Value clamped = Roundtrip(service,
      R"({"verb":"motifs","dataset":"d",)"
      R"("params":{"lmin":16,"lmax":17},)"
      R"("priority":1e300,"timeout_ms":1e300})");
  EXPECT_TRUE(Ok(clamped)) << clamped.Serialize();
}

TEST(ServiceProtocolTest, MalformedRequestsReturnStructuredErrors) {
  Service service;
  // Not JSON at all.
  Value bad = Roundtrip(service, "this is not json");
  EXPECT_FALSE(Ok(bad));
  EXPECT_EQ(ErrorCode(bad), "InvalidArgument");
  EXPECT_TRUE(bad.Find("id")->is_null());

  // JSON but not an object.
  EXPECT_EQ(ErrorCode(Roundtrip(service, "[1,2,3]")), "InvalidArgument");

  // Missing verb.
  EXPECT_EQ(ErrorCode(Roundtrip(service, R"({"id":9})")), "InvalidArgument");

  // Unknown verb echoes the id.
  Value unknown = Roundtrip(service, R"({"id":9,"verb":"frobnicate"})");
  EXPECT_EQ(ErrorCode(unknown), "InvalidArgument");
  EXPECT_DOUBLE_EQ(unknown.Find("id")->AsDouble(), 9.0);

  // Bad params types.
  Roundtrip(service,
            R"({"verb":"load","dataset":"d",)"
            R"("params":{"generator":"ecg","n":512}})");
  EXPECT_EQ(ErrorCode(Roundtrip(service,
                R"({"verb":"motifs","dataset":"d",)"
                R"("params":{"lmin":-5,"lmax":100}})")),
            "InvalidArgument");
  EXPECT_EQ(ErrorCode(Roundtrip(service,
                R"({"verb":"motifs","dataset":"d",)"
                R"("params":{"lmin":100,"lmax":120,)"
                R"("results_version":99}})")),
            "InvalidArgument");
  EXPECT_EQ(ErrorCode(Roundtrip(service,
                R"({"verb":"query","dataset":"d",)"
                R"("params":{"values":"not an array"}})")),
            "InvalidArgument");

  // Typo'd param keys fail loudly instead of silently running under
  // defaults — the protocol mirror of the CLI's closed flag tables.
  Value typo = Roundtrip(service,
      R"({"verb":"motifs","dataset":"d",)"
      R"("params":{"lmin":16,"lmxa":20,"results_versoin":1}})");
  EXPECT_EQ(ErrorCode(typo), "InvalidArgument");
  EXPECT_NE(typo.Find("error")->GetString("message", "").find("lmxa"),
            std::string::npos);

  // Wrong-typed envelope fields are rejected too.
  EXPECT_EQ(ErrorCode(Roundtrip(service,
                R"({"verb":"motifs","dataset":"d",)"
                R"("params":{"lmin":16,"lmax":18},"timeout_ms":"5000"}})")),
            "InvalidArgument");

  // The service survives all of the above: a well-formed request works.
  Value good = Roundtrip(service,
      R"({"verb":"query","dataset":"d",)"
      R"("params":{"values":[1,2,3,4,5,4,3,2],"k":1}})");
  EXPECT_TRUE(Ok(good)) << good.Serialize();
}

// The backend cost model is static, so there is no `calibrate` verb: it
// gets the structured unknown-verb error that echoes the id.
TEST(ServiceProtocolTest, CalibrateIsAnUnknownVerb) {
  Service service;
  Value response = Roundtrip(service, "{\"id\":3,\"verb\":\"calibrate\"}");
  EXPECT_FALSE(Ok(response));
  EXPECT_EQ(ErrorCode(response), "InvalidArgument");
  const Value* error = response.Find("error");
  ASSERT_NE(error, nullptr) << response.Serialize();
  EXPECT_NE(error->GetString("message", "").find("unknown verb"),
            std::string::npos)
      << response.Serialize();
  EXPECT_DOUBLE_EQ(response.Find("id")->AsDouble(), 3.0);
}

// A one-point window has zero deviation, so every distance at length 1 is
// a meaningless 0. The fixed-length verbs reject it; length 2 still runs.
TEST(ServiceProtocolTest, FixedLengthVerbsRejectLengthOne) {
  Service service;
  ASSERT_TRUE(Ok(Roundtrip(service,
      R"({"verb":"load","dataset":"d",)"
      R"("params":{"generator":"ecg","n":512}})")));
  Value profile = Roundtrip(service,
      R"({"verb":"profile","dataset":"d","params":{"l":1}})");
  EXPECT_EQ(ErrorCode(profile), "InvalidArgument") << profile.Serialize();
  EXPECT_TRUE(Ok(Roundtrip(service,
      R"({"verb":"profile","dataset":"d","params":{"l":2}})")));
  Value query = Roundtrip(service,
      R"({"verb":"query","dataset":"d","params":{"values":[1]}})");
  EXPECT_EQ(ErrorCode(query), "InvalidArgument") << query.Serialize();
  EXPECT_TRUE(Ok(Roundtrip(service,
      R"({"verb":"query","dataset":"d","params":{"values":[1,2]}})")));
}

// Finite values whose sum of squares overflows would make every window
// read as constant, so queries and loaded data that large are rejected with
// a structured InvalidArgument. Magnitudes just below that are scale-free.
TEST(ServiceProtocolTest, OverflowingMagnitudesAreStructuredErrors) {
  Service service;
  ASSERT_TRUE(Ok(Roundtrip(service,
      R"({"verb":"load","dataset":"ecg",)"
      R"("params":{"generator":"ecg","n":2000}})")));
  const auto query = [&](const std::string& values) {
    return Roundtrip(service,
                     R"({"verb":"query","dataset":"ecg","params":{"values":)" +
                         values + "}}");
  };
  const auto first_offset = [](const Value& response) {
    return response.Find("result")->Find("matches")->AsArray()[0].GetNumber(
        "offset", -1);
  };
  Value plain = query("[1,-1,0,0]");
  ASSERT_TRUE(Ok(plain)) << plain.Serialize();
  EXPECT_DOUBLE_EQ(first_offset(plain), 192.0);
  Value scaled = query("[1e150,-1e150,0,0]");
  ASSERT_TRUE(Ok(scaled)) << scaled.Serialize();
  EXPECT_DOUBLE_EQ(first_offset(scaled), 192.0);
  Value overflow = query("[1e160,-1e160,3,4]");
  EXPECT_EQ(ErrorCode(overflow), "InvalidArgument") << overflow.Serialize();

  // A noisy sine loaded at three scales: the top motif pair is the same at
  // 1 and 1e150, and 1e160 fails to load.
  Rng rng(1);
  std::vector<double> sine(600);
  for (std::size_t i = 0; i < sine.size(); ++i) {
    sine[i] = std::sin(0.3 * static_cast<double>(i)) + 0.1 * rng.Gaussian();
  }
  std::vector<std::string> pairs;
  for (const double scale : {1.0, 1e150, 1e160}) {
    const std::string name = "sine" + std::to_string(pairs.size());
    const std::string path = testing::TempDir() + "/valmod_server_" + name;
    std::FILE* file = std::fopen(path.c_str(), "w");
    ASSERT_NE(file, nullptr);
    for (const double v : sine) std::fprintf(file, "%.17g\n", v * scale);
    std::fclose(file);
    Value load = Roundtrip(service,
        R"({"verb":"load","dataset":")" + name +
            R"(","params":{"path":")" + path + R"("}})");
    std::remove(path.c_str());
    if (scale > 1e155) {
      EXPECT_EQ(ErrorCode(load), "InvalidArgument") << load.Serialize();
      break;
    }
    ASSERT_TRUE(Ok(load)) << load.Serialize();
    Value motifs = Roundtrip(service,
        R"({"verb":"motifs","dataset":")" + name +
            R"(","params":{"lmin":20,"lmax":20,"k":1}})");
    ASSERT_TRUE(Ok(motifs)) << motifs.Serialize();
    const Value& top = motifs.Find("result")->Find("ranked")->AsArray()[0];
    pairs.push_back(std::to_string(top.GetNumber("offset_a", -1)) + "," +
                    std::to_string(top.GetNumber("offset_b", -1)));
  }
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0], pairs[1]);
}

TEST(ServiceProtocolTest, OverDeadlineRequestsFailStructurally) {
  Service service;
  Roundtrip(service,
            R"({"verb":"load","dataset":"d",)"
            R"("params":{"generator":"random_walk","n":4096}})");
  // timeout_ms=0: the deadline is already expired at admission.
  Value late = Roundtrip(service,
      R"({"id":7,"verb":"motifs","dataset":"d",)"
      R"("params":{"lmin":100,"lmax":140},"timeout_ms":0})");
  EXPECT_FALSE(Ok(late));
  EXPECT_EQ(ErrorCode(late), "DeadlineExceeded");
  // The failure was not cached; the process is fine.
  Value stats = Roundtrip(service, R"({"id":8,"verb":"stats"})");
  ASSERT_TRUE(Ok(stats));
  EXPECT_DOUBLE_EQ(
      stats.Find("result")->Find("cache")->GetNumber("entries", -1), 0.0);
}

TEST(ServiceProtocolTest, StreamingAppendFlowsThroughGenerations) {
  Service service;
  ASSERT_TRUE(Ok(Roundtrip(service,
      R"({"verb":"load","dataset":"s","params":{"streaming_length":8}})")));

  // Querying an empty streaming dataset is a structured error.
  EXPECT_EQ(ErrorCode(Roundtrip(service,
                R"({"verb":"motifs","dataset":"s",)"
                R"("params":{"lmin":4,"lmax":5}})")),
            "FailedPrecondition");

  Value append = Roundtrip(service,
      R"({"verb":"append","dataset":"s",)"
      R"("params":{"values":[1,2,3,1,2,3,1,2,3,1,2,3,1,2,3,1,2,3]}})");
  ASSERT_TRUE(Ok(append)) << append.Serialize();
  EXPECT_DOUBLE_EQ(append.Find("result")->GetNumber("points", 0), 18.0);
  EXPECT_DOUBLE_EQ(append.Find("result")->GetNumber("generation", 0), 2.0);

  // The incrementally maintained profile is served (and cached).
  const std::string profile_request =
      R"({"verb":"profile","dataset":"s"})";
  Value profile = Roundtrip(service, profile_request);
  ASSERT_TRUE(Ok(profile)) << profile.Serialize();
  EXPECT_TRUE(profile.Find("result")->GetBool("streaming", false));
  EXPECT_DOUBLE_EQ(profile.Find("result")->GetNumber("generation", 0), 2.0);
  const std::size_t rows_before =
      profile.Find("result")->Find("distances")->AsArray().size();
  EXPECT_EQ(rows_before, 11u);  // 18 - 8 + 1
  EXPECT_TRUE(Roundtrip(service, profile_request).GetBool("cached", false));

  // Batch verbs work against the materialized snapshot.
  Value motifs = Roundtrip(service,
      R"({"verb":"motifs","dataset":"s","params":{"lmin":4,"lmax":5}})");
  ASSERT_TRUE(Ok(motifs)) << motifs.Serialize();

  // Append again: generation bumps, cached profile is NOT reused.
  ASSERT_TRUE(Ok(Roundtrip(service,
      R"({"verb":"append","dataset":"s","params":{"values":[9,8,7]}})")));
  Value after = Roundtrip(service, profile_request);
  ASSERT_TRUE(Ok(after));
  EXPECT_FALSE(after.GetBool("cached", true));
  EXPECT_DOUBLE_EQ(after.Find("result")->GetNumber("generation", 0), 3.0);
  EXPECT_EQ(after.Find("result")->Find("distances")->AsArray().size(),
            rows_before + 3);

  // A mismatched explicit length is rejected, not silently recomputed.
  EXPECT_EQ(ErrorCode(Roundtrip(service,
                R"({"verb":"profile","dataset":"s","params":{"l":16}})")),
            "InvalidArgument");

  // Appending to a static dataset fails.
  Roundtrip(service,
            R"({"verb":"load","dataset":"fixed",)"
            R"("params":{"generator":"sine","n":256}})");
  EXPECT_EQ(ErrorCode(Roundtrip(service,
                R"({"verb":"append","dataset":"fixed",)"
                R"("params":{"values":[1]}})")),
            "FailedPrecondition");
}

TEST(ServiceProtocolTest, WindowedStreamingIngestionAndMaintainedTopK) {
  Service service;
  // `window` is an alias for `max_points`; disagreeing values are an error.
  EXPECT_EQ(ErrorCode(Roundtrip(service,
                R"({"verb":"load","dataset":"bad",)"
                R"("params":{"streaming_length":8,"max_points":32,)"
                R"("window":64}})")),
            "InvalidArgument");

  Value load = Roundtrip(service,
      R"({"verb":"load","dataset":"w",)"
      R"("params":{"streaming_length":8,"window":32}})");
  ASSERT_TRUE(Ok(load)) << load.Serialize();
  EXPECT_DOUBLE_EQ(load.Find("result")->GetNumber("max_points", 0), 32.0);

  // Stream 80 points in batches of 16: the window retains the last 32.
  std::string batch = "[";
  for (int i = 0; i < 16; ++i) {
    batch += (i ? "," : "") + std::to_string((i * 37) % 19) + ".5";
  }
  batch += "]";
  Value append;
  for (int b = 0; b < 5; ++b) {
    append = Roundtrip(service,
        R"({"verb":"append","dataset":"w","params":{"values":)" + batch +
        "}}");
    ASSERT_TRUE(Ok(append)) << append.Serialize();
  }
  const Value* result = append.Find("result");
  EXPECT_DOUBLE_EQ(result->GetNumber("points", 0), 32.0);
  EXPECT_DOUBLE_EQ(result->GetNumber("total_appended", 0), 80.0);
  EXPECT_DOUBLE_EQ(result->GetNumber("evicted", 0), 48.0);
  EXPECT_DOUBLE_EQ(result->GetNumber("window_start", 0), 48.0);

  // Maintained profile reports the retained window and its stream offset.
  Value profile = Roundtrip(service, R"({"verb":"profile","dataset":"w"})");
  ASSERT_TRUE(Ok(profile)) << profile.Serialize();
  EXPECT_DOUBLE_EQ(profile.Find("result")->GetNumber("window_start", 0),
                   48.0);
  EXPECT_EQ(profile.Find("result")->Find("distances")->AsArray().size(),
            25u);  // 32 - 8 + 1

  // Motifs at the maintained length are served from the incremental state,
  // not recomputed: the response is marked maintained and caches per
  // generation.
  const std::string motifs_request =
      R"({"verb":"motifs","dataset":"w","params":{"k":3}})";
  Value motifs = Roundtrip(service, motifs_request);
  ASSERT_TRUE(Ok(motifs)) << motifs.Serialize();
  EXPECT_TRUE(motifs.Find("result")->GetBool("maintained", false));
  EXPECT_TRUE(motifs.Find("result")->GetBool("streaming", false));
  EXPECT_DOUBLE_EQ(motifs.Find("result")->GetNumber("window_start", 0), 48.0);
  ASSERT_NE(motifs.Find("result")->Find("ranked"), nullptr);
  EXPECT_TRUE(Roundtrip(service, motifs_request).GetBool("cached", false));

  // Same for discords; an explicit matching length also qualifies.
  Value discords = Roundtrip(service,
      R"({"verb":"discords","dataset":"w",)"
      R"("params":{"lmin":8,"lmax":8,"k":2}})");
  ASSERT_TRUE(Ok(discords)) << discords.Serialize();
  EXPECT_TRUE(discords.Find("result")->GetBool("maintained", false));

  // A different length range falls back to batch compute on the snapshot.
  Value batch_motifs = Roundtrip(service,
      R"({"verb":"motifs","dataset":"w","params":{"lmin":4,"lmax":6}})");
  ASSERT_TRUE(Ok(batch_motifs)) << batch_motifs.Serialize();
  EXPECT_FALSE(batch_motifs.Find("result")->GetBool("maintained", false));

  // stats surfaces occupancy and footprint per dataset.
  Value stats = Roundtrip(service, R"({"verb":"stats"})");
  ASSERT_TRUE(Ok(stats)) << stats.Serialize();
  const Value* datasets = stats.Find("result")->Find("datasets");
  ASSERT_NE(datasets, nullptr);
  ASSERT_EQ(datasets->AsArray().size(), 1u);
  const Value& info = datasets->AsArray()[0];
  EXPECT_DOUBLE_EQ(info.GetNumber("max_points", 0), 32.0);
  EXPECT_DOUBLE_EQ(info.GetNumber("evicted", 0), 48.0);
  EXPECT_DOUBLE_EQ(info.GetNumber("total_appended", 0), 80.0);
  EXPECT_DOUBLE_EQ(info.GetNumber("window_occupancy", 0), 1.0);
  EXPECT_GT(info.GetNumber("memory_bytes", 0), 0.0);
}

// HandleRequest (the paged entry point the TCP transports and --stdio
// share) splits a large result into bounded chunk lines whose fragments
// concatenate back to the exact unpaged payload.
TEST(ServiceProtocolTest, HandleRequestPagesLargeResults) {
  ServiceOptions options;
  options.page_bytes = 512;
  Service service(options);
  ASSERT_TRUE(Ok(Roundtrip(service,
      R"({"verb":"load","dataset":"d",)"
      R"("params":{"generator":"sine","n":2048,"seed":5}})")));

  const std::string request =
      R"({"id":7,"verb":"profile","dataset":"d","params":{"l":64}})";
  const std::string wire = service.HandleRequest(request);
  ASSERT_FALSE(wire.empty());
  ASSERT_EQ(wire.back(), '\n');

  // Parse every line; reassemble the chunk fragments in seq order.
  std::vector<Value> pages;
  std::string payload;
  std::size_t start = 0;
  while (start < wire.size()) {
    const std::size_t end = wire.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    auto page = json::Parse(wire.substr(start, end - start));
    ASSERT_TRUE(page.ok());
    pages.push_back(*page);
    start = end + 1;
  }
  ASSERT_GT(pages.size(), 1u) << "a ~2000-row profile must page at 512 B";
  for (std::size_t i = 0; i < pages.size(); ++i) {
    const Value& page = pages[i];
    EXPECT_TRUE(page.GetBool("ok", false));
    EXPECT_DOUBLE_EQ(page.GetNumber("id", -1), 7.0);
    EXPECT_EQ(page.GetString("verb", ""), "profile");
    EXPECT_DOUBLE_EQ(page.GetNumber("seq", -1),
                     static_cast<double>(i));
    const bool last = i + 1 == pages.size();
    EXPECT_EQ(page.GetBool("partial", last), !last);
    if (last) {
      EXPECT_DOUBLE_EQ(page.GetNumber("pages", 0),
                       static_cast<double>(pages.size()));
    }
    const Value* chunk = page.Find("chunk");
    ASSERT_NE(chunk, nullptr);
    ASSERT_TRUE(chunk->is_string());
    EXPECT_LE(chunk->AsString().size(), 512u);
    payload += chunk->AsString();
  }
  // The reassembled payload is the result an unpaged service computes for
  // the same request.
  ServiceOptions unpaged_options;
  unpaged_options.page_bytes = 0;
  Service unpaged_service(unpaged_options);
  ASSERT_TRUE(Ok(Roundtrip(unpaged_service,
      R"({"verb":"load","dataset":"d",)"
      R"("params":{"generator":"sine","n":2048,"seed":5}})")));
  const std::string unpaged_wire = unpaged_service.HandleRequest(request);
  EXPECT_EQ(unpaged_wire.find('\n'), unpaged_wire.size() - 1);
  auto unpaged = json::Parse(unpaged_wire);
  ASSERT_TRUE(unpaged.ok());
  EXPECT_FALSE(unpaged->GetBool("cached", true));
  auto result = json::Parse(payload);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->Serialize(), unpaged->Find("result")->Serialize());

  // Errors are never paged: one line, no chunk field.
  const std::string error_wire = service.HandleRequest(
      R"({"verb":"profile","dataset":"absent","params":{"l":64}})");
  EXPECT_EQ(error_wire.find('\n'), error_wire.size() - 1);
  auto error = json::Parse(error_wire);
  ASSERT_TRUE(error.ok());
  EXPECT_FALSE(error->GetBool("ok", true));
  EXPECT_EQ(error->Find("chunk"), nullptr);
}

// The profile verb has one algorithm; `algo` is an unknown param on static
// and streaming datasets alike.
TEST(ServiceProtocolTest, ProfileRejectsAlgoParam) {
  Service service;
  ASSERT_TRUE(Ok(Roundtrip(service,
      R"({"verb":"load","dataset":"d",)"
      R"("params":{"generator":"ecg","n":1024,"seed":11}})")));
  ASSERT_TRUE(Ok(Roundtrip(service,
      R"({"verb":"load","dataset":"s","params":{"streaming_length":8}})")));
  for (const char* request :
       {R"({"verb":"profile","dataset":"d","params":{"l":64,"algo":"stamp"}})",
        R"({"verb":"profile","dataset":"d","params":{"l":64,"algo":"stomp"}})",
        R"({"verb":"profile","dataset":"s","params":{"algo":"stamp"}})"}) {
    Value response = Roundtrip(service, request);
    EXPECT_EQ(ErrorCode(response), "InvalidArgument") << request;
    EXPECT_NE(response.Find("error")->GetString("message", "").find(
                  "unknown param 'algo'"),
              std::string::npos)
        << response.Serialize();
  }
}

// A streaming dataset answers motifs and discords at its maintained length
// from the maintained profile. Those answers must equal what a static
// dataset holding the same points returns from the batch paths (VALMOD and
// the variable-length discord search): one selection, so non-overlapping
// motifs on both. A noisy sine has no constant windows and no exact
// repeats, so neither list depends on tie-breaking. The streaming dataset's
// batch answers, from its materialized snapshot, must agree as well.
TEST(ServiceProtocolTest, MaintainedTopKEqualsStaticAnswers) {
  Service service;
  ASSERT_TRUE(Ok(Roundtrip(service,
      R"({"verb":"load","dataset":"static",)"
      R"("params":{"generator":"sine","n":600,"seed":5}})")));
  ASSERT_TRUE(Ok(Roundtrip(service,
      R"({"verb":"load","dataset":"stream","params":{"streaming_length":32}})")));
  auto series = synth::ByName("sine", 600, 5);
  ASSERT_TRUE(series.ok());
  Value::Array values;
  for (const double v : series->values()) values.push_back(Value(v));
  ASSERT_TRUE(Ok(Roundtrip(service,
      R"({"verb":"append","dataset":"stream","params":{"values":)" +
          Value(std::move(values)).Serialize() + "}}")));

  const auto expect_same = [](const Value& got, const Value& want,
                              const std::string& where) {
    ASSERT_GE(want.AsArray().size(), 3u) << where;
    ASSERT_EQ(got.AsArray().size(), want.AsArray().size()) << where;
    for (std::size_t r = 0; r < want.AsArray().size(); ++r) {
      const Value& g = got.AsArray()[r];
      const Value& w = want.AsArray()[r];
      for (const char* field : {"offset_a", "offset_b", "offset"}) {
        EXPECT_EQ(g.GetNumber(field, -1), w.GetNumber(field, -1))
            << where << " " << field << " rank " << r;
      }
      EXPECT_NEAR(g.GetNumber("distance", -1), w.GetNumber("distance", -1),
                  1e-8)
          << where << " rank " << r;
    }
  };

  for (const std::string verb : {"motifs", "discords"}) {
    SCOPED_TRACE(verb);
    const std::string tail =
        R"(","params":{"lmin":32,"lmax":32,"k":4}})";
    Value maintained = Roundtrip(service,
        R"({"verb":")" + verb + R"(","dataset":"stream)" + tail);
    Value batch = Roundtrip(service,
        R"({"verb":")" + verb + R"(","dataset":"static)" + tail);
    ASSERT_TRUE(Ok(maintained)) << maintained.Serialize();
    ASSERT_TRUE(Ok(batch)) << batch.Serialize();
    EXPECT_TRUE(maintained.Find("result")->GetBool("maintained", false));
    EXPECT_FALSE(batch.Find("result")->GetBool("maintained", false));

    const auto per_length = [&](const Value& response) -> const Value& {
      return *response.Find("result")->Find("per_length")->AsArray()[0].Find(
          verb);
    };
    expect_same(per_length(maintained), per_length(batch), verb);
    if (verb == "motifs") {
      expect_same(*maintained.Find("result")->Find("ranked"),
                  *batch.Find("result")->Find("ranked"), "ranked");
    }

    // k = 0 is an error on both, not an empty maintained list.
    const std::string zero = R"(","params":{"lmin":32,"lmax":32,"k":0}})";
    for (const char* dataset : {"stream", "static"}) {
      Value response = Roundtrip(service, R"({"verb":")" + verb +
                                              R"(","dataset":")" + dataset +
                                              zero);
      EXPECT_EQ(ErrorCode(response), "InvalidArgument")
          << dataset << ": " << response.Serialize();
    }
  }

  // Requests the maintained profile cannot answer (several lengths, a
  // query) run the batch paths on the streaming dataset's materialized
  // snapshot; they must agree with the static dataset too.
  const auto request = [&](const std::string& verb, const char* dataset,
                           const std::string& params) {
    return Roundtrip(service, R"({"verb":")" + verb + R"(","dataset":")" +
                                  dataset + R"(","params":)" + params + "}");
  };
  const std::string motifs_params = R"({"lmin":32,"lmax":36,"k":4})";
  Value motifs_stream = request("motifs", "stream", motifs_params);
  Value motifs_static = request("motifs", "static", motifs_params);
  ASSERT_TRUE(Ok(motifs_stream)) << motifs_stream.Serialize();
  ASSERT_TRUE(Ok(motifs_static)) << motifs_static.Serialize();
  EXPECT_FALSE(motifs_stream.Find("result")->GetBool("maintained", false));
  const Value::Array& lengths_stream =
      motifs_stream.Find("result")->Find("per_length")->AsArray();
  const Value::Array& lengths_static =
      motifs_static.Find("result")->Find("per_length")->AsArray();
  ASSERT_EQ(lengths_static.size(), 5u);
  ASSERT_EQ(lengths_stream.size(), lengths_static.size());
  for (std::size_t i = 0; i < lengths_static.size(); ++i) {
    expect_same(*lengths_stream[i].Find("motifs"),
                *lengths_static[i].Find("motifs"),
                "motifs length " + std::to_string(32 + i));
  }
  expect_same(*motifs_stream.Find("result")->Find("ranked"),
              *motifs_static.Find("result")->Find("ranked"), "lmax 36 ranked");

  // A query that is not a window of the series, so no match sits at a
  // distance of ~0 where rounding dominates.
  auto query_series = synth::ByName("ecg", 48, 3);
  ASSERT_TRUE(query_series.ok());
  Value::Array query;
  for (const double v : query_series->values()) query.push_back(Value(v));
  const std::string query_params =
      R"({"k":3,"values":)" + Value(std::move(query)).Serialize() + "}";
  Value query_stream = request("query", "stream", query_params);
  Value query_static = request("query", "static", query_params);
  ASSERT_TRUE(Ok(query_stream)) << query_stream.Serialize();
  ASSERT_TRUE(Ok(query_static)) << query_static.Serialize();
  expect_same(*query_stream.Find("result")->Find("matches"),
              *query_static.Find("result")->Find("matches"), "query");
}

TEST(ServiceProtocolTest, AdmissionQueueFullIsAStructuredError) {
  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.cache_capacity = 0;  // force every request to compute
  Service service(options);
  Roundtrip(service,
            R"({"verb":"load","dataset":"d",)"
            R"("params":{"generator":"random_walk","n":4096}})");
  // Saturate the single worker + single queue slot from multiple clients;
  // the requests are heavy enough (hundreds of ms) that all six overlap,
  // so at least one must be bounced with ResourceExhausted (all requests
  // share the default priority, so nothing is shed) — and none may crash
  // or hang.
  std::vector<std::thread> clients;
  std::vector<std::string> codes(6);
  for (int c = 0; c < 6; ++c) {
    clients.emplace_back([&service, &codes, c] {
      const std::string request =
          R"({"verb":"motifs","dataset":"d","params":{"lmin":)" +
          std::to_string(64 + c) + R"(,"lmax":)" + std::to_string(120 + c) +
          R"(}})";
      Value response = Roundtrip(service, request);
      codes[static_cast<std::size_t>(c)] =
          Ok(response) ? "ok" : ErrorCode(response);
    });
  }
  for (std::thread& t : clients) t.join();
  std::size_t ok_count = 0;
  std::size_t bounced = 0;
  for (const std::string& code : codes) {
    if (code == "ok") ++ok_count;
    if (code == "ResourceExhausted") ++bounced;
  }
  EXPECT_EQ(ok_count + bounced, 6u) << "unexpected outcome in mix";
  EXPECT_GE(ok_count, 1u);
  EXPECT_GE(bounced, 1u);
  const SchedulerStats stats = service.scheduler().stats();
  EXPECT_EQ(stats.rejected, bounced);
}

// The acceptance-bar concurrency run: 4 clients hammering one service with
// a mixed verb stream (loads, queries, appends, stats). Under TSan in CI.
TEST(ServiceProtocolTest, FourConcurrentClientsMixedWorkload) {
  Service service;
  ASSERT_TRUE(Ok(Roundtrip(service,
      R"({"verb":"load","dataset":"shared",)"
      R"("params":{"generator":"ecg","n":2048,"seed":2}})")));
  ASSERT_TRUE(Ok(Roundtrip(service,
      R"({"verb":"load","dataset":"stream","params":{"streaming_length":16}})")));

  std::vector<std::thread> clients;
  std::vector<int> failures(4, 0);
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&service, &failures, c] {
      for (int i = 0; i < 6; ++i) {
        std::vector<std::string> requests = {
            R"({"verb":"motifs","dataset":"shared","params":{"lmin":)" +
                std::to_string(40 + 4 * c) + R"(,"lmax":)" +
                std::to_string(42 + 4 * c) + R"(}})",
            R"({"verb":"query","dataset":"shared",)"
            R"("params":{"values":[1,2,1,0,1,2,1,0,1,2,1,0],"k":2}})",
            R"({"verb":"append","dataset":"stream","params":{"values":[)" +
                std::to_string(c) + "," + std::to_string(i) + R"(,1,2,3]}})",
            R"({"verb":"stats"})",
        };
        const std::string& request =
            requests[static_cast<std::size_t>(i) % requests.size()];
        const std::string response = service.HandleRequest(request);
        auto parsed = json::Parse(response);
        if (!parsed.ok() || !parsed->GetBool("ok", false)) {
          ++failures[static_cast<std::size_t>(c)];
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(failures[static_cast<std::size_t>(c)], 0) << "client " << c;
  }
  // The service is still coherent after the storm (both datasets listed;
  // each client's append landed).
  Value stats = Roundtrip(service, R"({"verb":"stats"})");
  ASSERT_TRUE(Ok(stats));
  ASSERT_EQ(stats.Find("result")->Find("datasets")->AsArray().size(), 2u);
}

#ifdef VALMOD_SERVER_BINARY
// End-to-end --stdio smoke: pipe a scripted session through the real
// binary (full main() path: flag validation, stdio loop, shutdown verb)
// and check the response stream line by line.
TEST(ServerBinaryTest, StdioSessionEndToEnd) {
  const std::string script =
      R"({"id":1,"verb":"load","dataset":"d","params":{"generator":"ecg","n":1024}})" "\n"
      R"({"id":2,"verb":"motifs","dataset":"d","params":{"lmin":32,"lmax":34}})" "\n"
      R"({"id":3,"verb":"motifs","dataset":"d","params":{"lmin":32,"lmax":34}})" "\n"
      "not json\n"
      R"({"id":4,"verb":"stats"})" "\n"
      R"({"id":5,"verb":"unload","dataset":"d"})" "\n"
      R"({"id":6,"verb":"shutdown"})" "\n";
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
  const int exit_code = pclose(pipe);
  EXPECT_EQ(exit_code, 0);

  std::vector<std::string> lines;
  std::size_t start = 0, newline;
  while ((newline = output.find('\n', start)) != std::string::npos) {
    lines.push_back(output.substr(start, newline - start));
    start = newline + 1;
  }
  ASSERT_EQ(lines.size(), 7u) << output;
  auto parse = [](const std::string& line) {
    auto v = json::Parse(line);
    EXPECT_TRUE(v.ok()) << line;
    return v.ok() ? *v : Value();
  };
  EXPECT_TRUE(parse(lines[0]).GetBool("ok", false));         // load
  Value motifs = parse(lines[1]);
  EXPECT_TRUE(motifs.GetBool("ok", false));
  EXPECT_FALSE(motifs.GetBool("cached", true));
  Value cached = parse(lines[2]);
  EXPECT_TRUE(cached.GetBool("ok", false));
  EXPECT_TRUE(cached.GetBool("cached", false));              // cache hit
  EXPECT_FALSE(parse(lines[3]).GetBool("ok", true));         // bad JSON
  Value stats = parse(lines[4]);
  EXPECT_TRUE(stats.GetBool("ok", false));
  EXPECT_DOUBLE_EQ(
      stats.Find("result")->Find("cache")->GetNumber("hits", -1), 1.0);
  EXPECT_TRUE(parse(lines[5]).GetBool("ok", false));         // unload
  EXPECT_TRUE(parse(lines[6]).GetBool("ok", false));         // shutdown
}

TEST(ServerBinaryTest, UnknownFlagIsAUsageError) {
  const std::string command = std::string(VALMOD_SERVER_BINARY) +
                              " --stdio --thread=4 2>&1 </dev/null";
  std::FILE* pipe = popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string output;
  char buffer[1024];
  std::size_t n;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    output.append(buffer, n);
  }
  const int status = pclose(pipe);
  EXPECT_NE(status, 0);
  EXPECT_NE(output.find("--thread"), std::string::npos) << output;
}
#endif  // VALMOD_SERVER_BINARY

}  // namespace
}  // namespace valmod::service
