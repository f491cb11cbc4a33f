// valmod_server — long-lived serving front end to the VALMOD suite.
//
// Speaks newline-delimited JSON (one request per line; large results are
// paged as bounded chunk lines — protocol reference in README "Serving")
// over either:
//
//   --stdio        stdin/stdout — the zero-networking mode CI and scripts
//                  drive; exits on EOF or the `shutdown` verb.
//   --port=P       a localhost TCP socket (127.0.0.1 only — the server
//                  executes file loads and unbounded compute on behalf of
//                  clients, so it is strictly a local tool), served by a
//                  single-threaded epoll event loop.
//
// Serving state (dataset registry, shared MASS engines, result cache)
// lives for the process: every request against a loaded dataset reuses
// the engine's cached spectra, repeated identical requests are O(1)
// result-cache hits, and identical *concurrent* misses are coalesced
// into one computation — the whole point versus one-shot valmod_cli runs.
//
// Examples:
//   valmod_server --stdio
//   valmod_server --port=7731 --workers=8 --queue=128 --cache=256
//   valmod_server --port=0 --page-bytes=65536
//   valmod_server --stdio --preload=ecg --generate=ecg --n=20000
//
//   $ printf '%s\n' \
//       '{"id":1,"verb":"load","dataset":"ecg","params":{"generator":"ecg","n":8192}}' \
//       '{"id":2,"verb":"motifs","dataset":"ecg","params":{"lmin":100,"lmax":110}}' \
//     | valmod_server --stdio

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <limits>
#include <memory>
#include <string>

#include "common/fault.h"
#include "common/flags.h"
#include "common/log.h"
#include "common/trace.h"
#include "service/server.h"
#include "service/tcp_server.h"
#include "tool_flags.h"

namespace {

using valmod::Flags;
using valmod::service::Service;

int Usage() {
  std::fprintf(stderr,
               "usage: valmod_server (--stdio | --port=<p, 0=ephemeral>) "
               "[--workers=4] [--queue=64] [--cache=128]\n"
               "       [--page-bytes=1048576] [--timeout-s=<default deadline>] "
               "[--simd=scalar|avx2|neon]\n"
               "       [--preload=<name> (--input=<csv> [--column=0] "
               "[--allow-nonfinite] | --generate=<gen> [--n] [--seed])]\n"
               "       [--log-level=debug|info|warn|error] [--log-json] "
               "[--slowlog=16] [--no-trace]\n"
               "newline-delimited JSON protocol; see README \"Serving\"\n"
               "fault injection: VALMOD_FAULTS env or the `faults` verb; "
               "see README \"Robustness\"\n");
  return 2;
}

/// Loads the --preload dataset into the registry before serving, through
/// the same source-flag semantics as valmod_cli (tools/tool_flags.h).
bool Preload(Service& service, const Flags& flags) {
  const std::string name = flags.GetString("preload", "");
  if (name.empty()) return true;
  auto series = valmod::tools::LoadSeriesFromFlags(flags);
  if (!series.ok()) {
    valmod::log::Error("preload failed")
        .Field("dataset", name)
        .Field("status", series.status().ToString());
    return false;
  }
  auto loaded = service.registry().LoadSeries(name, std::move(*series));
  if (!loaded.ok()) {
    valmod::log::Error("preload failed")
        .Field("dataset", name)
        .Field("status", loaded.status().ToString());
    return false;
  }
  valmod::log::Info("preloaded dataset")
      .Field("dataset", name)
      .Field("points", (*loaded)->size());
  return true;
}

int RunStdio(Service& service) {
  std::string line;
  while (!service.shutdown_requested() && std::getline(std::cin, line)) {
    if (line.empty()) continue;
    // HandleRequest shares the paged-response encoder with the TCP
    // transport; the returned bytes are already '\n'-terminated.
    const std::string response = service.HandleRequest(line);
    std::fputs(response.c_str(), stdout);
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A client disconnecting mid-write must error that one send(), not
  // deliver a process-killing SIGPIPE (the TCP transport's MSG_NOSIGNAL
  // covers the sockets; this covers any stray write to a closed stdio
  // pipe).
  std::signal(SIGPIPE, SIG_IGN);
  // Instantiating the injector up front applies VALMOD_FAULTS directives
  // at startup, so a chaos harness sees its faults listed by the `faults`
  // verb before any fault point has been hit.
  (void)valmod::fault::FaultInjector::Global();

  const Flags flags = Flags::Parse(argc, argv);
  // Configure logging before anything can log — including the unknown-flag
  // rejection below, whose error should already honor --log-json.
  valmod::log::SetJson(flags.GetBool("log-json", false));
  if (flags.Has("log-level")) {
    auto level = valmod::log::ParseLevel(flags.GetString("log-level", ""));
    if (!level.ok()) {
      valmod::log::Error("bad --log-level")
          .Field("status", level.status().ToString());
      return 2;
    }
    valmod::log::SetLevel(*level);
  }
  if (valmod::Status status = flags.RejectUnknown(valmod::tools::kServerFlags);
      !status.ok()) {
    valmod::log::Error("bad flags").Field("status",
                                          std::string(status.message()));
    return 2;
  }
  // Request tracing is on by default (near-zero cost until a request asks
  // for its span tree); --no-trace is the kill switch for overhead-proof
  // benchmarking.
  valmod::trace::SetEnabled(!flags.GetBool("no-trace", false));
  const bool stdio = flags.GetBool("stdio", false);
  const bool has_port = flags.Has("port");
  if (!stdio && !has_port) return Usage();
  if (stdio && has_port) {
    valmod::log::Error("--stdio and --port are exclusive");
    return 2;
  }
  // Each numeric serving knob must fit the field it sets; the initial
  // values are the defaults, and --port=0 picks an ephemeral port.
  using valmod::tools::ReadIntInRange;
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  std::int64_t port = 0, workers = 4, queue = 64, cache = 128,
               page_bytes = 1 << 20,
               slowlog = valmod::service::SlowLog::kDefaultCapacity;
  for (const valmod::Status& status :
       {ReadIntInRange(flags, "port", 0, 65535, &port),
        ReadIntInRange(flags, "workers", 1, std::numeric_limits<int>::max(),
                       &workers),
        ReadIntInRange(flags, "queue", 0, kMax, &queue),
        ReadIntInRange(flags, "cache", 0, kMax, &cache),
        ReadIntInRange(flags, "page-bytes", 0, kMax, &page_bytes),
        ReadIntInRange(flags, "slowlog", 0, kMax, &slowlog)}) {
    if (!status.ok()) {
      valmod::log::Error("bad flag value")
          .Field("status", std::string(status.message()));
      return 2;
    }
  }

  // Force the SIMD dispatch target before any request computes. The
  // env-var spelling (VALMOD_SIMD) only warns on a bad value; the flag is
  // a hard startup error.
  if (valmod::Status status = valmod::tools::ApplySimdFlag(flags);
      !status.ok()) {
    valmod::log::Error("bad --simd").Field("status",
                                           std::string(status.message()));
    return 2;
  }

  valmod::service::ServiceOptions options;
  options.workers = static_cast<int>(workers);
  options.queue_capacity = static_cast<std::size_t>(queue);
  options.cache_capacity = static_cast<std::size_t>(cache);
  options.default_timeout_seconds = flags.GetDouble("timeout-s", 0.0);
  options.page_bytes = static_cast<std::size_t>(page_bytes);
  options.slowlog_capacity = static_cast<std::size_t>(slowlog);

  Service service(options);
  if (!Preload(service, flags)) return 1;
  if (stdio) return RunStdio(service);

  auto server = valmod::service::MakeEpollServer(
      service, {.port = static_cast<int>(port)});
  if (!server.ok()) {
    valmod::log::Error("failed to start server")
        .Field("status", server.status().ToString());
    return 1;
  }
  // --port=0 binds an ephemeral port; report the real one so scripts and
  // tests can parse it from stderr instead of racing for a fixed port.
  // This line is a wire-format contract (the test harnesses regex it), so
  // it stays plain fprintf regardless of --log-json; the structured event
  // below carries the same facts for log shippers.
  std::fprintf(stderr, "valmod_server listening on 127.0.0.1:%d\n",
               (*server)->port());
  std::fflush(stderr);
  valmod::log::Info("serving")
      .Field("port", (*server)->port())
      .Field("workers", options.workers)
      .Field("tracing", valmod::trace::Enabled());
  return (*server)->Serve();
}
