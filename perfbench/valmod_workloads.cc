// valmod_scan and valmod_sweep: the one-shot core::RunValmod call as
// valmod_cli runs it, plus STOMP at the first length, checked against
// exhaustive per-length STOMP.
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <thread>

#include "baselines/stomp_range.h"
#include "mp/stomp.h"
#include "perfbench.h"
#include "series/generators.h"
#include "service/tcp_server.h"

namespace perfbench {

namespace vm = valmod;

namespace {

constexpr int kOracleThreads = 4;
constexpr int kSetupRepeats = 21;
constexpr int kMinIterations = 3;

struct Shape {
  const char* generator;
  std::size_t n;
  std::size_t min_length;
  std::size_t max_length;
  int threads;
};

Shape ShapeFor(const Options& options) {
  if (options.workload == "valmod_scan") {
    return options.tiny ? Shape{"ecg", 1024, 32, 40, 4} : Shape{"ecg", 16384, 128, 160, 4};
  }
  // One thread: the sweep runs 512 certification passes, each ending in a
  // barrier across the pool. On a contended 4-vCPU VM a 4-thread run took
  // 3 s to 11 s from one run to the next; one thread took 10.3-10.6 s.
  return options.tiny ? Shape{"random_walk", 1024, 200, 240, 1}
                      : Shape{"random_walk", 4096, 896, 1152, 1};
}

/// Top-1 distance at `length` in a VALMOD result (+inf when absent).
double TopDistance(const vm::core::ValmodResult& result, std::size_t length) {
  for (const vm::core::LengthMotifs& lm : result.per_length) {
    if (lm.length == length && !lm.motifs.empty()) return lm.motifs[0].distance;
  }
  return INFINITY;
}

bool ProfilesMatch(const vm::mp::MatrixProfile& a, const vm::mp::MatrixProfile& b) {
  if (a.distances.size() != b.distances.size()) return false;
  for (std::size_t i = 0; i < a.distances.size(); ++i) {
    const double x = a.distances[i], y = b.distances[i];
    if (std::isinf(x) != std::isinf(y)) return false;
    if (!std::isinf(x) && !Close(x, y)) return false;
  }
  return true;
}

/// service.* on this workload's base draw: an in-process Service with no
/// socket serves STOMP at the first lengths (misses), then repeats them
/// (hits). Spans come from the slow-query log, sized to keep every request.
void ProbeService(const Shape& shape, Metrics* out) {
  vm::service::ServiceOptions service_options;
  service_options.workers = 2;
  service_options.page_bytes = 0;
  service_options.slowlog_capacity = 1024;
  vm::service::Service service(service_options);
  service.HandleRequest(
      std::string("{\"verb\":\"load\",\"dataset\":\"d\",\"params\":{\"generator\":\"") +
      shape.generator + "\",\"n\":" + std::to_string(shape.n) +
      ",\"seed\":1}}");
  const auto request = [&](int i) {
    return "{\"id\":" + std::to_string(i) +
           ",\"verb\":\"profile\",\"dataset\":\"d\",\"trace\":true,\"params\":{\"l\":" +
           std::to_string(shape.min_length + static_cast<std::size_t>(i % 4)) +
           ",\"threads\":" + std::to_string(shape.threads) + "}}";
  };
  std::vector<double> hit_us;
  for (int i = 0; i < 68; ++i) {
    // The last 32 hits run with tracing off: they time the bare hit path.
    vm::trace::SetEnabled(i < 36);
    const Clock::time_point start = Clock::now();
    (void)service.HandleRequest(request(i));
    if (i >= 36) hit_us.push_back(SecondsSince(start) * 1e6);
  }
  out->Add("service.inproc_hit_us", Median(hit_us), "us");

  // The same hit through the epoll front end: one connection, blocking
  // round trips, send to the response's last byte.
  std::vector<double> tcp_us;
  if (auto server = vm::service::MakeEpollServer(service, {}); server.ok()) {
    std::thread serve_thread([s = server->get()] { (void)s->Serve(); });
    const int fd = ConnectLoopback((*server)->port());
    for (int i = 0; fd >= 0 && i < 32; ++i) {
      const std::string line = request(i) + "\n";
      const Clock::time_point start = Clock::now();
      if (::send(fd, line.data(), line.size(), MSG_NOSIGNAL) != static_cast<ssize_t>(line.size())) break;
      std::string response;
      char buffer[1 << 16];
      while (response.empty() || response.back() != '\n') {
        const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
        if (n <= 0) break;
        response.append(buffer, static_cast<std::size_t>(n));
      }
      if (response.empty() || response.back() != '\n') break;
      tcp_us.push_back(SecondsSince(start) * 1e6);
    }
    (void)service.HandleRequest("{\"verb\":\"shutdown\"}");
    // A closing connection wakes the loop, which then sees the flag.
    if (fd >= 0) ::close(fd);
    if (const int wake = ConnectLoopback((*server)->port()); wake >= 0) ::close(wake);
    serve_thread.join();
  }
  vm::trace::SetEnabled(true);
  out->Add("service.tcp_hit_us", Median(tcp_us), "us");
  AddSpanMetrics(service, out);
  AddServiceCounters(service, out);
}

/// Pins the calling thread to the `i`-th of `cpus`, cyclically; no-op when
/// `cpus` is empty.
void PinToNthCpu(const std::vector<int>& cpus, int i) {
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[static_cast<std::size_t>(i) % cpus.size()], &one);
  (void)sched_setaffinity(0, sizeof(one), &one);
}

}  // namespace

int RunValmodWorkload(const Options& options, Outcome* outcome) {
  const Shape shape = ShapeFor(options);
  Tally& tally = outcome->tally;

  // Single-threaded steps move to the next CPU on every repeat. On a shared
  // VM one vCPU can run ~40% slower than the others for minutes; a run
  // that stayed where it started measured that CPU (one-thread sweep
  // medians of 6.0 s and 8.5-9.2 s by placement), while a rotating run's
  // median follows the majority of CPUs.
  cpu_set_t all_cpus;
  CPU_ZERO(&all_cpus);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(all_cpus), &all_cpus) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &all_cpus)) cpus.push_back(cpu);
    }
  }
  const std::vector<int> loop_cpus = shape.threads == 1 ? cpus : std::vector<int>{};

  std::vector<double> setup_s;
  vm::Result<vm::series::DataSeries> series = vm::Status::Internal("unset");
  for (int r = 0; r < kSetupRepeats; ++r) {
    PinToNthCpu(cpus, r);
    const Clock::time_point start = Clock::now();
    series = PerturbedSeries(shape.generator, shape.n, options.seed);
    setup_s.push_back(SecondsSince(start));
  }
  // Every CPU again before the thread pool (created on first use) starts.
  if (!cpus.empty()) (void)sched_setaffinity(0, sizeof(all_cpus), &all_cpus);
  if (!series.ok()) {
    std::cerr << "perfbench: " << series.status().ToString() << "\n";
    return 1;
  }

  vm::core::ValmodOptions valmod_options;
  valmod_options.min_length = shape.min_length;
  valmod_options.max_length = shape.max_length;
  valmod_options.k = 1;
  valmod_options.p = 10;
  valmod_options.num_threads = shape.threads;
  vm::mp::ProfileOptions stomp_options;
  stomp_options.num_threads = shape.threads;

  const std::size_t checked_lengths[] = {
      shape.min_length, (shape.min_length + shape.max_length) / 2, shape.max_length};
  std::vector<std::vector<double>> tops;  // per VALMOD run, at checked_lengths
  std::vector<double> stomp_min;          // per STOMP run: its smallest distance
  std::vector<double> motifs_ms, traced_motifs_ms, stomp_ms, scan_s, sweep_s;
  CounterSnapshot first_before{}, first_after{};
  vm::core::ValmodResult first_result;

  // Untraced mode runs every iteration bare. Traced mode alternates bare
  // and traced iterations, so drift hits both sides of the overhead ratio.
  const double cpu_start = ProcessCpuSeconds();
  const double thread_cpu_start = ThreadCpuSeconds();
  const Clock::time_point loop_start = Clock::now();
  for (int i = 0; i < kMinIterations || SecondsSince(loop_start) < options.seconds;
       ++i) {
    const bool traced = options.trace && i % 2 == 1;
    const bool snapshot = traced || i == 0;
    PinToNthCpu(loop_cpus, i);
    const CounterSnapshot before = snapshot ? CounterSnapshot::Take() : CounterSnapshot{};
    Clock::time_point start = Clock::now();
    auto result = vm::core::RunValmod(*series, valmod_options);
    const double elapsed = SecondsSince(start);
    const CounterSnapshot after = snapshot ? CounterSnapshot::Take() : CounterSnapshot{};
    if (!result.ok()) {
      tally.Record(false, "valmod run: " + result.status().ToString());
      continue;
    }
    (traced ? traced_motifs_ms : motifs_ms).push_back(elapsed * 1e3);
    if (traced) {
      scan_s.push_back(result->init_seconds);
      sweep_s.push_back(result->update_seconds);
    }
    std::vector<double> top;
    for (const std::size_t length : checked_lengths) top.push_back(TopDistance(*result, length));
    if (options.perturb && i == 0) top[0] += 1e-3;
    tops.push_back(top);

    start = Clock::now();
    auto profile = vm::mp::ComputeStomp(*series, shape.min_length, stomp_options);
    stomp_ms.push_back(SecondsSince(start) * 1e3);
    if (!profile.ok()) {
      tally.Record(false, "stomp run: " + profile.status().ToString());
      stomp_min.push_back(INFINITY);
    } else {
      double best = INFINITY;
      for (const double d : profile->distances) best = std::min(best, d);
      stomp_min.push_back(best);
      // The VALMOD run's min-length profile must equal this STOMP output.
      if (!ProfilesMatch(result->min_length_profile, *profile)) tops.back()[0] = NAN;
    }
    if (i == 0) {
      first_before = before;
      first_after = after;
      first_result = std::move(*result);
    }
  }
  const double wall = SecondsSince(loop_start);
  const double cpu = ProcessCpuSeconds() - cpu_start;
  const double thread_cpu = ThreadCpuSeconds() - thread_cpu_start;
  if (!loop_cpus.empty()) (void)sched_setaffinity(0, sizeof(all_cpus), &all_cpus);

  // Oracle: exhaustive per-length STOMP at the first, middle and last
  // lengths. Outside the timed loop and outside setup.
  std::vector<double> oracle;
  for (const std::size_t length : checked_lengths) {
    vm::baselines::StompRangeOptions range;
    range.min_length = range.max_length = length;
    range.k = 1;
    range.num_threads = kOracleThreads;
    auto exact = vm::baselines::RunStompRange(*series, range);
    oracle.push_back(exact.ok() && !exact->empty() && !(*exact)[0].motifs.empty()
                         ? (*exact)[0].motifs[0].distance
                         : NAN);
  }
  for (std::size_t r = 0; r < tops.size(); ++r) {
    bool ok = true;
    for (std::size_t j = 0; j < oracle.size(); ++j) ok = ok && Close(tops[r][j], oracle[j]);
    tally.Record(ok, "valmod run " + std::to_string(r) + " top-1 vs exhaustive STOMP");
  }
  for (std::size_t r = 0; r < stomp_min.size(); ++r) {
    if (std::isinf(stomp_min[r])) continue;  // already counted as failed
    tally.Record(Close(stomp_min[r], oracle[0]),
                 "stomp run " + std::to_string(r) + " minimum vs exhaustive STOMP");
  }

  const double fail_ratio = tally.attempted > 0
                                ? static_cast<double>(tally.failed) /
                                      static_cast<double>(tally.attempted)
                                : 1.0;
  Metrics& e2e = outcome->end_to_end;
  e2e.Add("setup_s", Median(setup_s), "s");
  e2e.Add("peak_rss_mib", PeakRssMib(), "MiB");
  e2e.Add("ok_ratio", 1.0 - fail_ratio, "ratio");
  e2e.Add("op_p50_ms", Median(motifs_ms), "ms");
  // Runs are sequential: the rates are the reciprocals of the medians.
  e2e.Add("op_per_s", 1e3 / Median(motifs_ms), "1/s");
  e2e.Add("aux_p50_ms", Median(stomp_ms), "ms");
  e2e.Add("aux_per_s", 1e3 / Median(stomp_ms), "1/s");

  Metrics& detail = outcome->detail;
  detail.Add("motifs_s", Median(motifs_ms) / 1e3, "s");
  detail.Add("profile_s", Median(stomp_ms) / 1e3, "s");
  detail.Add("fail_ratio", fail_ratio, "ratio");
  detail.Add("motifs_runs", static_cast<double>(motifs_ms.size()), "count");
  detail.Add("motifs_rel_iqr", RelativeIqr(motifs_ms), "ratio");

  if (options.trace) {
    Metrics& layers = outcome->per_layer;
    AddCoreMetrics(first_result, shape.n, shape.min_length, Median(scan_s),
                   Median(sweep_s), Median(traced_motifs_ms) / 1e3, &layers);
    AddCounterDeltas(first_before, first_after, &layers);
    ProbeMassBackends(*series, {checked_lengths[0], checked_lengths[1], checked_lengths[2]},
                      &layers);
    ProbeStreaming(series->values(), &layers);
    ProbeService(shape, &layers);
    layers.Add("service.client_cpu_share", thread_cpu / wall, "ratio");
    layers.Add("cpu.util", cpu / (wall * std::thread::hardware_concurrency()), "ratio");
    AddTraceOverhead(motifs_ms, traced_motifs_ms, &layers);
  }
  return 0;
}

}  // namespace perfbench
