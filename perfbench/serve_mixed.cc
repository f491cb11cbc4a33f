// serve_mixed: an in-process Service behind the epoll front end on an
// ephemeral localhost port, driven by one epoll client thread running a
// closed loop over four connections (one request in flight on each).
//
//  - Three reader connections send motifs / valmap / profile / query
//    requests against a static ecg dataset. About 90% repeat a recently
//    completed shape (cache hits); the rest are fresh shapes drawn without
//    replacement from fixed per-verb pools (real misses).
//  - One writer connection appends 128-point batches to a windowed
//    streaming dataset (l=64, max_points=2048), each followed by a
//    maintained `motifs` read.
#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <deque>
#include <functional>
#include <iostream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/json.h"
#include "mp/stomp.h"
#include "mp/streaming.h"
#include "perfbench.h"
#include "series/generators.h"
#include "service/tcp_server.h"

namespace perfbench {

namespace vm = valmod;

namespace {

constexpr int kConnections = 4;  // connection 0 writes, the rest read
constexpr int kSetupRepeats = 3;
constexpr std::size_t kStreamLength = 64;
constexpr std::size_t kStreamWindow = 2048;
constexpr std::size_t kAppendBatch = 128;
constexpr std::size_t kStreamPool = 1 << 16;
constexpr std::size_t kHotShapesPerVerb = 8;
constexpr double kRepeatShare = 0.9;
// Read mix over motifs, valmap, profile, query. Fixed per-verb weights keep
// the share of small (motifs, query) and large (valmap, profile) responses
// steady, so the median read sits inside the small-response cluster
// instead of jumping between the two as the recent shapes drift.
constexpr double kVerbWeights[] = {0.40, 0.15, 0.15, 0.30};
// The static dataset and each verb's sequence of fresh shapes are fixed
// draws, so every seed meets the same miss costs (they vary several-fold
// between shapes). The seed drives the traffic (verb choice, repeat or
// fresh, which recent shape repeats) and the appended stream's values (see
// PerturbedSeries).
constexpr std::uint64_t kDatasetSeed = 1;

std::string NumberList(std::span<const double> values) {
  std::string out = "[";
  char number[32];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(number, sizeof(number), i > 0 ? ",%.17g" : "%.17g", values[i]);
    out += number;
  }
  return out + "]";
}

/// Read request bodies (`"verb":...,"dataset":"ecg","params":{...}`) for
/// fresh shapes, one pool per verb in a fixed shuffled order, drawn without
/// replacement.
class ShapePool {
 public:
  ShapePool(const vm::series::DataSeries& series, bool tiny) {
    std::mt19937_64 rng(kDatasetSeed);
    const std::size_t n = series.size();
    const std::size_t lmin_lo = tiny ? 16 : 24, lmin_count = tiny ? 48 : 256;
    for (std::size_t i = 0; i < lmin_count; ++i) {
      for (const std::size_t span : {std::size_t{8}, std::size_t{16}, std::size_t{24}}) {
        const std::string lengths = "\"lmin\":" + std::to_string(lmin_lo + i) +
                                    ",\"lmax\":" + std::to_string(lmin_lo + i + span);
        Add(0, "\"verb\":\"motifs\",\"dataset\":\"ecg\",\"params\":{" + lengths + ",\"k\":1}");
        Add(1, "\"verb\":\"valmap\",\"dataset\":\"ecg\",\"params\":{" + lengths + "}");
      }
    }
    for (std::size_t l = 16; l < 16 + 3 * lmin_count; ++l) {
      Add(2, "\"verb\":\"profile\",\"dataset\":\"ecg\",\"params\":{\"l\":" +
                 std::to_string(l) + "}");
    }
    const std::size_t max_query = tiny ? 64 : 160;
    for (std::size_t q = 0; q < 3 * lmin_count; ++q) {
      const std::size_t length = 32 + rng() % (max_query - 32);
      const std::size_t offset = rng() % (n - length);
      Add(3, "\"verb\":\"query\",\"dataset\":\"ecg\",\"params\":{\"values\":" +
                 NumberList(series.values().subspan(offset, length)) + "}");
    }
    for (std::vector<int>& queue : fresh_) std::shuffle(queue.begin(), queue.end(), rng);
  }

  /// A shape of `verb` never drawn before (-1 once that pool is exhausted).
  int DrawFresh(int verb) {
    std::vector<int>& queue = fresh_[verb];
    if (queue.empty()) return -1;
    const int shape = queue.back();
    queue.pop_back();
    return shape;
  }

  const std::string& Body(int shape) const { return bodies_[shape]; }
  int Verb(int shape) const { return verbs_[shape]; }

 private:
  void Add(int verb, std::string body) {
    fresh_[verb].push_back(static_cast<int>(bodies_.size()));
    bodies_.push_back(std::move(body));
    verbs_.push_back(verb);
  }

  std::vector<std::string> bodies_;
  std::vector<int> verbs_;
  std::vector<int> fresh_[4];
};

/// The service under test: Service + epoll front end + its serving thread.
struct Stack {
  std::unique_ptr<vm::service::Service> service;
  std::unique_ptr<vm::service::TcpServer> server;
  std::thread serve_thread;
  std::vector<int> fds;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() { Stop(); }

  void Stop() {
    if (service != nullptr) (void)service->HandleRequest("{\"verb\":\"shutdown\"}");
    // Closing the client ends wakes the loop, which then sees the flag.
    for (const int fd : fds) ::close(fd);
    fds.clear();
    if (serve_thread.joinable()) serve_thread.join();
    server.reset();
    service.reset();
  }
};

/// The `result` bytes of one response line ("" when absent).
std::string ResultBytes(const std::string& response) {
  constexpr std::string_view kKey = ",\"result\":";
  const std::size_t start = response.find(kKey);
  if (start == std::string::npos) return "";
  const std::size_t begin = start + kKey.size();
  // The trace fragment, when present, follows the result; otherwise the
  // envelope's closing brace (and newline) does.
  std::size_t end = response.rfind(",\"trace_id\":");
  if (end == std::string::npos || end < begin) {
    end = response.find_last_of('}');
    if (end == std::string::npos || end < begin) return "";
  }
  return response.substr(begin, end - begin);
}

bool ResponseOk(const std::string& response) {
  const std::size_t at = response.find(",\"ok\":true,");
  return at != std::string::npos && at < 48;
}

/// Samples of one load phase.
struct Phase {
  std::vector<double> read_ms;
  std::vector<double> append_ms;
  std::vector<double> hit_ms;  // the cached reads among read_ms
  double wall_s = 0.0;
  double client_cpu_s = 0.0;
};

/// The single-threaded epoll load generator.
class LoadGenerator {
 public:
  LoadGenerator(ShapePool& pool, const std::vector<std::string>& append_bodies,
                const std::vector<std::vector<double>>& append_values,
                std::mt19937_64& rng, Tally& tally, bool perturb)
      : pool_(pool),
        append_bodies_(append_bodies),
        append_values_(append_values),
        rng_(rng),
        tally_(tally),
        perturb_(perturb) {}

  ~LoadGenerator() {
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
  }
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  bool Attach(const std::vector<int>& fds) {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) return false;
    for (std::size_t i = 0; i < fds.size(); ++i) {
      conns_.push_back(Conn{});
      conns_.back().fd = fds[i];
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = i;
      if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fds[i], &ev) != 0) return false;
    }
    return true;
  }

  /// Runs the closed loop for `seconds`, then lets in-flight requests finish.
  Phase Run(double seconds, bool traced) {
    Phase phase;
    phase_ = &phase;
    traced_ = traced;
    const double cpu_start = ThreadCpuSeconds();
    const Clock::time_point start = Clock::now();
    deadline_ = start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
    for (std::size_t i = 0; i < conns_.size(); ++i) SendNext(i);
    epoll_event events[kConnections];
    while (Busy() > 0) {
      const int n = ::epoll_wait(epoll_fd_, events, kConnections, 1000);
      if (n < 0 && errno != EINTR) break;
      for (int e = 0; e < n; ++e) {
        const std::size_t index = events[e].data.u64;
        if (events[e].events & EPOLLOUT) Flush(index);
        if (events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) Receive(index);
      }
    }
    phase.wall_s = SecondsSince(start);
    phase.client_cpu_s = ThreadCpuSeconds() - cpu_start;
    phase_ = nullptr;
    return phase;
  }

  /// Points appended so far, in order (the stream the server retains a
  /// window of).
  const std::vector<double>& appended() const { return appended_; }
  int AnyHotShape() const { return hot_[0].empty() ? -1 : hot_[0].front(); }

 private:
  enum class Kind { kRead, kAppend, kStreamRead };
  struct Conn {
    int fd = -1;
    bool busy = false;
    Kind kind = Kind::kRead;
    int shape = -1;
    std::size_t batch = 0;
    std::string id_prefix;
    std::string out;
    std::size_t out_offset = 0;
    std::string in;
    Clock::time_point sent;
  };

  int Busy() const {
    int busy = 0;
    for (const Conn& c : conns_) busy += c.busy ? 1 : 0;
    return busy;
  }

  void SendNext(std::size_t index) {
    Conn& c = conns_[index];
    if (Clock::now() >= deadline_) return;
    std::string body;
    if (index == 0) {
      // Writer: append, then a maintained motifs read of the new generation.
      if (c.kind == Kind::kAppend) {
        c.kind = Kind::kStreamRead;
        body = "\"verb\":\"motifs\",\"dataset\":\"stream\",\"params\":{\"lmin\":64,"
               "\"lmax\":64,\"k\":1}";
      } else {
        c.kind = Kind::kAppend;
        c.batch = next_batch_++ % append_bodies_.size();
        body = append_bodies_[c.batch];
      }
    } else {
      c.kind = Kind::kRead;
      const int verb = verb_mix_(rng_);
      const std::deque<int>& hot = hot_[verb];
      const bool repeat = !hot.empty() &&
                          std::uniform_real_distribution<double>(0.0, 1.0)(rng_) < kRepeatShare;
      c.shape = repeat ? hot[rng_() % hot.size()] : pool_.DrawFresh(verb);
      if (c.shape < 0) c.shape = hot.empty() ? 0 : hot.front();  // pool exhausted
      body = pool_.Body(c.shape);
    }
    c.id_prefix = "{\"id\":" + std::to_string(next_id_++) + ",";
    c.out = c.id_prefix + body + (traced_ ? ",\"trace\":true}\n" : "}\n");
    c.out_offset = 0;
    c.in.clear();
    c.busy = true;
    c.sent = Clock::now();
    Flush(index);
  }

  void Flush(std::size_t index) {
    Conn& c = conns_[index];
    while (c.out_offset < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_offset,
                               c.out.size() - c.out_offset, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_offset += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      Fail(index, "send failed");
      return;
    }
    epoll_event ev{};
    ev.events = EPOLLIN | (c.out_offset < c.out.size() ? EPOLLOUT : 0u);
    ev.data.u64 = index;
    (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
  }

  void Receive(std::size_t index) {
    Conn& c = conns_[index];
    char buffer[1 << 16];
    for (;;) {
      const ssize_t n = ::recv(c.fd, buffer, sizeof(buffer), 0);
      if (n > 0) {
        c.in.append(buffer, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      Fail(index, "connection closed");
      return;
    }
    if (!c.busy || c.in.empty() || c.in.back() != '\n') return;
    const double latency_ms = SecondsSince(c.sent) * 1e3;
    c.busy = false;
    Complete(index, latency_ms);
    SendNext(index);
  }

  void Fail(std::size_t index, const std::string& why) {
    Conn& c = conns_[index];
    tally_.Record(false, "connection " + std::to_string(index) + ": " + why);
    c.busy = false;
    (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c.fd, nullptr);
  }

  void Complete(std::size_t index, double latency_ms) {
    Conn& c = conns_[index];
    const std::string& response = c.in;
    bool ok = ResponseOk(response) && response.compare(0, c.id_prefix.size(), c.id_prefix) == 0;
    switch (c.kind) {
      case Kind::kAppend:
        phase_->append_ms.push_back(latency_ms);
        if (ok) {
          const std::vector<double>& values = append_values_[c.batch];
          appended_.insert(appended_.end(), values.begin(), values.end());
        }
        tally_.Record(ok, "append: " + response.substr(0, 200));
        return;
      case Kind::kStreamRead:
        tally_.Record(ok, "maintained motifs read: " + response.substr(0, 200));
        return;
      case Kind::kRead:
        break;
    }
    phase_->read_ms.push_back(latency_ms);
    std::string result = ResultBytes(response);
    const std::size_t result_at = response.find(",\"result\":");
    const bool cached = response.find(",\"cached\":true") < result_at;
    if (cached) {
      phase_->hit_ms.push_back(latency_ms);
      if (perturb_ && !perturbed_ && !result.empty()) {
        result[result.size() / 2] ^= 1;
        perturbed_ = true;
      }
    }
    // A hit must carry exactly the bytes computed for its shape; the first
    // computed response of each shape is remembered by its hash.
    const std::size_t digest = std::hash<std::string>{}(result);
    const auto [it, inserted] = digests_.emplace(c.shape, digest);
    ok = ok && !result.empty() && it->second == digest && !(inserted && cached);
    tally_.Record(ok, "read: " + response.substr(0, 200));
    std::deque<int>& hot = hot_[pool_.Verb(c.shape)];
    if (ok && std::find(hot.begin(), hot.end(), c.shape) == hot.end()) {
      hot.push_back(c.shape);
      if (hot.size() > kHotShapesPerVerb) hot.pop_front();
    }
  }

  ShapePool& pool_;
  const std::vector<std::string>& append_bodies_;
  const std::vector<std::vector<double>>& append_values_;
  std::mt19937_64& rng_;
  Tally& tally_;
  const bool perturb_;
  bool perturbed_ = false;
  int epoll_fd_ = -1;
  std::vector<Conn> conns_;
  Phase* phase_ = nullptr;
  bool traced_ = false;
  Clock::time_point deadline_;
  std::uint64_t next_id_ = 1;
  std::size_t next_batch_ = 0;
  std::discrete_distribution<int> verb_mix_{std::begin(kVerbWeights), std::end(kVerbWeights)};
  std::deque<int> hot_[4];  // recently completed shapes, per verb
  std::unordered_map<int, std::size_t> digests_;
  std::vector<double> appended_;
};

/// After the run: the maintained top-1 motif must equal STOMP's on the
/// retained window.
bool CheckMaintainedTop1(vm::service::Service& service, const std::vector<double>& stream) {
  if (stream.size() < kStreamWindow) return false;
  const std::string response = service.HandleRequest(
      "{\"id\":0,\"verb\":\"motifs\",\"dataset\":\"stream\",\"params\":{\"lmin\":64,"
      "\"lmax\":64,\"k\":1}}");
  auto parsed = vm::json::Parse(response);
  if (!parsed.ok()) return false;
  const vm::json::Value* result = parsed->Find("result");
  const vm::json::Value* ranked = result != nullptr ? result->Find("ranked") : nullptr;
  if (ranked == nullptr || !ranked->is_array() || ranked->AsArray().empty()) return false;
  const vm::json::Value& top = ranked->AsArray()[0];
  auto window = vm::series::DataSeries::Create(
      std::vector<double>(stream.end() - kStreamWindow, stream.end()));
  if (!window.ok()) return false;
  auto profile = vm::mp::ComputeStomp(*window, kStreamLength);
  if (!profile.ok()) return false;
  const std::vector<vm::mp::MotifEntry> expected = vm::mp::TopKMotifs(*profile, 1);
  if (expected.empty()) return false;
  return Close(top.GetNumber("distance", -1.0), expected[0].distance) &&
         static_cast<std::size_t>(top.GetNumber("offset_a", -1.0)) == expected[0].offset_a &&
         static_cast<std::size_t>(top.GetNumber("offset_b", -1.0)) == expected[0].offset_b;
}

}  // namespace

int RunServeMixed(const Options& options, Outcome* outcome) {
  Tally& tally = outcome->tally;
  const std::size_t n = options.tiny ? 1024 : 4096;
  vm::trace::SetEnabled(options.trace);

  // Set-up, repeated: series and request generation, service start, loads
  // and connects. Only the last stack is kept.
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  std::unique_ptr<ShapePool> pool;
  std::vector<std::string> append_bodies;
  std::vector<std::vector<double>> append_values;
  std::vector<double> stream_pool;
  std::unique_ptr<vm::series::DataSeries> series;
  std::mt19937_64 rng(options.seed);
  for (int r = 0; r < kSetupRepeats; ++r) {
    stack.reset();  // tear-down of the previous repeat is not set-up time
    const Clock::time_point start = Clock::now();
    auto ecg = vm::synth::ByName("ecg", n, kDatasetSeed);
    auto stream = PerturbedSeries("ecg", kStreamPool, options.seed);
    if (!ecg.ok() || !stream.ok()) return 1;
    series = std::make_unique<vm::series::DataSeries>(std::move(*ecg));
    stream_pool.assign(stream->values().begin(), stream->values().end());
    pool = std::make_unique<ShapePool>(*series, options.tiny);
    append_bodies.clear();
    append_values.clear();
    for (std::size_t b = 0; b < (kStreamPool - kStreamWindow) / kAppendBatch; ++b) {
      const auto values = std::span<const double>(stream_pool)
                              .subspan(kStreamWindow + b * kAppendBatch, kAppendBatch);
      append_values.emplace_back(values.begin(), values.end());
      append_bodies.push_back(
          "\"verb\":\"append\",\"dataset\":\"stream\",\"params\":{\"values\":" +
          NumberList(values) + "}");
    }

    stack = std::make_unique<Stack>();
    vm::service::ServiceOptions service_options;
    // One scheduler worker: with the front end and the client that makes
    // three busy threads on four CPUs. Two workers kept all four busy and
    // widened the run-to-run spread of the read and append medians from
    // 0.15-0.22 to 0.29-0.37 (IQR / median over five seeds, 4-vCPU VM).
    service_options.workers = 1;
    service_options.page_bytes = 0;
    // Traced runs keep every request's span tree in the slow-query log,
    // which is where the serialize span lands.
    service_options.slowlog_capacity = options.trace ? (1 << 16) : 16;
    stack->service = std::make_unique<vm::service::Service>(service_options);
    auto server = vm::service::MakeEpollServer(*stack->service, {});
    if (!server.ok()) {
      std::cerr << "perfbench: " << server.status().ToString() << "\n";
      return 1;
    }
    stack->server = std::move(*server);
    stack->serve_thread = std::thread([s = stack->server.get()] { (void)s->Serve(); });
    vm::service::Service& service = *stack->service;
    const std::string loads[] = {
        "{\"verb\":\"load\",\"dataset\":\"ecg\",\"params\":{\"generator\":\"ecg\",\"n\":" +
            std::to_string(n) + ",\"seed\":" + std::to_string(kDatasetSeed) + "}}",
        "{\"verb\":\"load\",\"dataset\":\"stream\",\"params\":{\"streaming_length\":64,"
        "\"max_points\":2048}}",
        "{\"verb\":\"append\",\"dataset\":\"stream\",\"params\":{\"values\":" +
            NumberList(std::span<const double>(stream_pool).first(kStreamWindow)) + "}}"};
    for (const std::string& load : loads) {
      if (!ResponseOk(service.HandleRequest(load))) {
        std::cerr << "perfbench: set-up request failed: " << load.substr(0, 120) << "\n";
        return 1;
      }
    }
    for (int c = 0; c < kConnections; ++c) {
      const int fd = ConnectLoopback(stack->server->port());
      if (fd < 0 || ::fcntl(fd, F_SETFL, O_NONBLOCK) != 0) return 1;
      stack->fds.push_back(fd);
    }
    setup_s.push_back(SecondsSince(start));
  }
  vm::service::Service& service = *stack->service;

  LoadGenerator load(*pool, append_bodies, append_values, rng, tally, options.perturb);
  if (!load.Attach(stack->fds)) return 1;
  const CounterSnapshot before = CounterSnapshot::Take();
  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point loop_start = Clock::now();
  // Traced mode alternates untraced and traced phases so drift hits both
  // sides of the overhead ratio.
  const int phases = options.trace ? 6 : 1;
  std::vector<Phase> runs;
  for (int p = 0; p < phases; ++p) {
    const bool traced = options.trace && p % 2 == 1;
    vm::trace::SetEnabled(traced);
    runs.push_back(load.Run(options.seconds / phases, traced));
  }
  const double wall = SecondsSince(loop_start);
  const double cpu = ProcessCpuSeconds() - cpu_start;
  const CounterSnapshot after = CounterSnapshot::Take();
  vm::trace::SetEnabled(false);

  std::vector<double> appended = load.appended();
  appended.insert(appended.begin(), stream_pool.begin(), stream_pool.begin() + kStreamWindow);
  tally.Record(CheckMaintainedTop1(service, appended),
               "maintained top-1 vs STOMP on the retained window");

  Phase all;  // untraced phases pooled
  double client_cpu = 0.0;
  for (int p = 0; p < phases; ++p) {
    const Phase& run = runs[p];
    client_cpu += run.client_cpu_s;
    if (options.trace && p % 2 == 1) continue;
    all.read_ms.insert(all.read_ms.end(), run.read_ms.begin(), run.read_ms.end());
    all.append_ms.insert(all.append_ms.end(), run.append_ms.begin(), run.append_ms.end());
    all.hit_ms.insert(all.hit_ms.end(), run.hit_ms.begin(), run.hit_ms.end());
    all.wall_s += run.wall_s;
  }
  const double fail_ratio = static_cast<double>(tally.failed) /
                            static_cast<double>(std::max<std::uint64_t>(tally.attempted, 1));
  const double reads_per_s = static_cast<double>(all.read_ms.size()) / all.wall_s;
  const double appends_per_s = static_cast<double>(all.append_ms.size()) / all.wall_s;

  Metrics& e2e = outcome->end_to_end;
  e2e.Add("setup_s", Median(setup_s), "s");
  e2e.Add("peak_rss_mib", PeakRssMib(), "MiB");
  e2e.Add("ok_ratio", 1.0 - fail_ratio, "ratio");
  e2e.Add("op_p50_ms", Median(all.read_ms), "ms");
  e2e.Add("op_per_s", reads_per_s, "1/s");
  e2e.Add("aux_p50_ms", Median(all.append_ms), "ms");
  e2e.Add("aux_per_s", appends_per_s, "1/s");

  Metrics& detail = outcome->detail;
  detail.Add("query_p50_ms", Median(all.read_ms), "ms");
  detail.Add("query_p99_ms", Quantile(all.read_ms, 0.99), "ms");
  detail.Add("query_rps", reads_per_s, "1/s");
  detail.Add("append_p50_ms", Median(all.append_ms), "ms");
  detail.Add("append_p90_ms", Quantile(all.append_ms, 0.90), "ms");
  detail.Add("ingest_pts_per_s", appends_per_s * kAppendBatch, "points/s");
  detail.Add("fail_ratio", fail_ratio, "ratio");
  detail.Add("reads", static_cast<double>(all.read_ms.size()), "count");
  detail.Add("appends", static_cast<double>(all.append_ms.size()), "count");
  detail.Add("hit_share",
             static_cast<double>(all.hit_ms.size()) / std::max<double>(1.0, all.read_ms.size()),
             "ratio");

  if (options.trace) {
    Metrics& layers = outcome->per_layer;
    // core: one motifs miss computed directly, at a shape the readers send.
    vm::core::ValmodOptions valmod_options;
    valmod_options.min_length = options.tiny ? 32 : 64;
    valmod_options.max_length = valmod_options.min_length + 16;
    const Clock::time_point start = Clock::now();
    auto result = vm::core::RunValmod(*series, valmod_options);
    const double motifs_s = SecondsSince(start);
    if (result.ok()) {
      AddCoreMetrics(*result, n, valmod_options.min_length, result->init_seconds,
                     result->update_seconds, motifs_s, &layers);
    } else {
      AddCoreMetrics({}, n, valmod_options.min_length, 0.0, 0.0, motifs_s, &layers);
    }
    AddCounterDeltas(before, after, &layers);
    ProbeMassBackends(*series, {64, 128, 256}, &layers);
    ProbeStreaming(stream_pool, &layers);

    // The bare hit path: Service::HandleRequest with no socket, untraced.
    std::vector<double> hit_us;
    const int shape = load.AnyHotShape();
    if (shape >= 0) {
      const std::string request = "{\"id\":0," + pool->Body(shape) + "}";
      for (int i = 0; i < 64; ++i) {
        const Clock::time_point t = Clock::now();
        (void)service.HandleRequest(request);
        hit_us.push_back(SecondsSince(t) * 1e6);
      }
    }
    layers.Add("service.inproc_hit_us", Median(hit_us), "us");
    layers.Add("service.tcp_hit_us", Median(all.hit_ms) * 1e3, "us");
    AddSpanMetrics(service, &layers);
    AddServiceCounters(service, &layers);
    layers.Add("service.client_cpu_share", client_cpu / wall, "ratio");
    layers.Add("cpu.util", cpu / (wall * std::thread::hardware_concurrency()), "ratio");

    std::vector<double> untraced_p50, traced_p50;
    for (int p = 0; p < phases; ++p) {
      (p % 2 == 1 ? traced_p50 : untraced_p50).push_back(Median(runs[p].read_ms));
    }
    AddTraceOverhead(untraced_p50, traced_p50, &layers);
  }
  stack->Stop();
  return 0;
}

}  // namespace perfbench
