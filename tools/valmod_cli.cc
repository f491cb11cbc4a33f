// valmod_cli — command-line front end to the VALMOD suite.
//
// Subcommands (first positional argument):
//   motifs    exact top-k motif pairs per length over [--lmin, --lmax]
//   discords  exact top-k discords per length (variable-length anomalies)
//   valmap    VALMAP meta-data (MPn / IP / LP) to CSV
//   profile   fixed-length matrix profile (--l) to CSV
//   query     best matches of a query file inside the series
//   generate  write a synthetic dataset to CSV
//   version   report results version, SIMD dispatch target, CPU features
//
// Input comes from --input=<csv> (one value per line, or --column=<c>) or a
// synthetic source via --generate=<name> --n=<points> --seed=<s>.
//
// Examples:
//   valmod_cli generate --generate=ecg --n=20000 --output=ecg.csv
//   valmod_cli motifs --input=ecg.csv --lmin=100 --lmax=400 --k=3
//   valmod_cli valmap --input=ecg.csv --lmin=100 --lmax=400 --output=vm.csv
//   valmod_cli query --input=ecg.csv --query=pattern.csv --k=5

#include <cstdio>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/flags.h"
#include "tool_flags.h"
#include "core/valmod.h"
#include "core/variable_discords.h"
#include "mass/backend.h"
#include "mass/query_search.h"
#include "mp/motif.h"
#include "mp/profile_io.h"
#include "mp/stomp.h"
#include "series/data_series.h"
#include "series/generators.h"
#include "series/io.h"
#include "series/znorm.h"
#include "simd/dispatch.h"

namespace {

using valmod::Flags;
using valmod::Result;
using valmod::series::DataSeries;

int Fail(const valmod::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: valmod_cli <motifs|discords|valmap|profile|query|"
               "generate|version> [flags]\n"
               "  common: --input=<csv> [--column=0] [--allow-nonfinite] | "
               "--generate=<name> --n=<points> [--seed=1]\n"
               "          (loads reject nan/inf samples unless "
               "--allow-nonfinite drops them)\n"
               "  motifs/valmap: --lmin --lmax [--k=1] [--p=10] "
               "[--threads=1]\n"
               "  discords: --lmin --lmax [--k=1] [--threads=1]\n"
               "  profile: --l [--output=profile.csv]\n"
               "  query: --query=<csv> [--k=1]\n"
               "  generate: --output=<csv>\n"
               "  version: report results version, SIMD dispatch target, "
               "and CPU features\n"
               "  all but generate: [--simd=scalar|avx2|neon] "
               "(force kernel dispatch;\n"
               "          same values as VALMOD_SIMD, but a bad flag value "
               "is a hard error)\n");
  return 2;
}

Result<DataSeries> LoadSeries(const Flags& flags) {
  return valmod::tools::LoadSeriesFromFlags(flags);
}

int RunMotifs(const Flags& flags) {
  auto series = LoadSeries(flags);
  if (!series.ok()) return Fail(series.status());

  valmod::core::ValmodOptions options;
  options.min_length = static_cast<std::size_t>(flags.GetInt("lmin", 0));
  options.max_length = static_cast<std::size_t>(flags.GetInt("lmax", 0));
  options.k = static_cast<std::size_t>(flags.GetInt("k", 1));
  options.p = static_cast<std::size_t>(flags.GetInt("p", 10));
  options.num_threads = static_cast<int>(flags.GetInt("threads", 1));
  auto result = valmod::core::RunValmod(*series, options);
  if (!result.ok()) return Fail(result.status());

  std::printf("# results_version=%d\n", valmod::mass::kResultsVersion);
  std::printf("length,rank,offset_a,offset_b,distance,normalized\n");
  for (const auto& lm : result->per_length) {
    for (std::size_t r = 0; r < lm.motifs.size(); ++r) {
      const auto& m = lm.motifs[r];
      std::printf("%zu,%zu,%lld,%lld,%.10g,%.10g\n", lm.length, r + 1,
                  static_cast<long long>(m.offset_a),
                  static_cast<long long>(m.offset_b), m.distance,
                  m.normalized_distance);
    }
  }
  std::fprintf(stderr, "ranked best: %s (init %.3fs, update %.3fs)\n",
               result->ranked.empty()
                   ? "none"
                   : valmod::mp::ToString(result->ranked[0]).c_str(),
               result->init_seconds, result->update_seconds);
  return 0;
}

int RunDiscords(const Flags& flags) {
  auto series = LoadSeries(flags);
  if (!series.ok()) return Fail(series.status());

  valmod::core::VariableDiscordOptions options;
  options.min_length = static_cast<std::size_t>(flags.GetInt("lmin", 0));
  options.max_length = static_cast<std::size_t>(flags.GetInt("lmax", 0));
  options.k = static_cast<std::size_t>(flags.GetInt("k", 1));
  options.num_threads = static_cast<int>(flags.GetInt("threads", 1));
  auto result = valmod::core::FindVariableLengthDiscords(*series, options);
  if (!result.ok()) return Fail(result.status());

  std::printf("length,rank,offset,neighbor,distance,normalized\n");
  for (const auto& ld : result->per_length) {
    for (std::size_t r = 0; r < ld.discords.size(); ++r) {
      const auto& d = ld.discords[r];
      std::printf("%zu,%zu,%lld,%lld,%.10g,%.10g\n", ld.length, r + 1,
                  static_cast<long long>(d.offset),
                  static_cast<long long>(d.nearest_neighbor), d.distance,
                  valmod::series::LengthNormalizedDistance(d.distance,
                                                           d.length));
    }
  }
  return 0;
}

int RunValmapCommand(const Flags& flags) {
  auto series = LoadSeries(flags);
  if (!series.ok()) return Fail(series.status());

  valmod::core::ValmodOptions options;
  options.min_length = static_cast<std::size_t>(flags.GetInt("lmin", 0));
  options.max_length = static_cast<std::size_t>(flags.GetInt("lmax", 0));
  options.k = static_cast<std::size_t>(flags.GetInt("k", 4));
  options.p = static_cast<std::size_t>(flags.GetInt("p", 10));
  options.num_threads = static_cast<int>(flags.GetInt("threads", 1));
  auto result = valmod::core::RunValmod(*series, options);
  if (!result.ok()) return Fail(result.status());

  const auto& valmap = result->valmap;
  const std::string output = flags.GetString("output", "valmap.csv");
  std::vector<double> lp(valmap.length_profile().begin(),
                         valmap.length_profile().end());
  std::vector<double> ip(valmap.index_profile().begin(),
                         valmap.index_profile().end());
  auto status = valmod::series::WriteColumnsCsv(
      {valmod::series::Column{"mpn", valmap.normalized_profile()},
       valmod::series::Column{"index_profile", ip},
       valmod::series::Column{"length_profile", lp}},
      output);
  if (!status.ok()) return Fail(status);
  std::printf("wrote %s (%zu entries, %zu updates beyond lmin, "
              "results_version=%d)\n",
              output.c_str(), valmap.size(), valmap.updates().size(),
              valmod::mass::kResultsVersion);
  return 0;
}

int RunProfile(const Flags& flags) {
  auto series = LoadSeries(flags);
  if (!series.ok()) return Fail(series.status());

  const std::size_t length =
      static_cast<std::size_t>(flags.GetInt("l", 0));
  valmod::mp::ProfileOptions options;
  options.num_threads = static_cast<int>(flags.GetInt("threads", 1));
  auto profile = valmod::mp::ComputeStomp(*series, length, options);
  if (!profile.ok()) return Fail(profile.status());

  const std::string output = flags.GetString("output", "profile.csv");
  auto status = valmod::mp::WriteProfileCsv(*profile, output);
  if (!status.ok()) return Fail(status);

  const auto motifs = valmod::mp::TopKMotifs(
      *profile, static_cast<std::size_t>(flags.GetInt("k", 3)));
  for (std::size_t r = 0; r < motifs.size(); ++r) {
    std::printf("motif %zu: %s\n", r + 1,
                valmod::mp::ToString(motifs[r]).c_str());
  }
  std::printf("wrote %s\n", output.c_str());
  return 0;
}

int RunQuery(const Flags& flags) {
  auto series = LoadSeries(flags);
  if (!series.ok()) return Fail(series.status());
  auto query_series = valmod::series::ReadDelimited(
      flags.GetString("query", ""),
      static_cast<std::size_t>(flags.GetInt("column", 0)));
  if (!query_series.ok()) return Fail(query_series.status());

  valmod::mass::QuerySearchOptions options;
  options.k = static_cast<std::size_t>(flags.GetInt("k", 1));
  std::vector<double> query(query_series->values().begin(),
                            query_series->values().end());
  auto matches = valmod::mass::FindQueryMatches(*series, query, options);
  if (!matches.ok()) return Fail(matches.status());

  std::printf("# results_version=%d\n", valmod::mass::kResultsVersion);
  std::printf("rank,offset,distance\n");
  for (std::size_t r = 0; r < matches->size(); ++r) {
    std::printf("%zu,%lld,%.10g\n", r + 1,
                static_cast<long long>((*matches)[r].offset),
                (*matches)[r].distance);
  }
  return 0;
}

/// `valmod_cli version` (also reachable as `valmod_cli --version`): build
/// and runtime facts, one `key: value` per line so scripts — including the
/// CI per-target loop — can `sed` out a field without parsing JSON.
/// `simd_supported` lists every dispatch target this build can run on this
/// machine, best first; `simd_target` is the one currently active (after
/// VALMOD_SIMD / --simd resolution).
int RunVersion(const Flags&) {
  std::printf("results_version: %d\n", valmod::mass::kResultsVersion);
  std::printf("simd_target: %s\n",
              valmod::simd::TargetName(valmod::simd::ActiveTarget()));
  std::string supported;
  for (const valmod::simd::Target target : valmod::simd::SupportedTargets()) {
    if (!supported.empty()) supported += ' ';
    supported += valmod::simd::TargetName(target);
  }
  std::printf("simd_supported: %s\n", supported.c_str());
  std::printf("cpu_features: %s\n",
              valmod::simd::CpuFeatureString().c_str());
  return 0;
}

int RunGenerate(const Flags& flags) {
  auto series = LoadSeries(flags);
  if (!series.ok()) return Fail(series.status());
  const std::string output = flags.GetString("output", "series.csv");
  auto status = valmod::series::WriteDelimited(*series, output);
  if (!status.ok()) return Fail(status);
  std::printf("wrote %zu points to %s\n", series->size(), output.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  // `valmod_cli --version` is the conventional spelling; it aliases the
  // `version` subcommand.
  if (flags.positional().empty()) {
    if (flags.Has("version")) return RunVersion(flags);
    return Usage();
  }
  const std::string command = flags.positional()[0];

  // Every subcommand has a closed flag table (tools/tool_flags.h, shared
  // with valmod_server): an unrecognized flag is a usage error, so a typo
  // like `--thread=4` fails loudly instead of silently running with the
  // default thread count.
  std::span<const std::string_view> known;
  if (command == "motifs") known = valmod::tools::kMotifsFlags;
  else if (command == "discords") known = valmod::tools::kDiscordsFlags;
  else if (command == "valmap") known = valmod::tools::kValmapFlags;
  else if (command == "profile") known = valmod::tools::kProfileFlags;
  else if (command == "query") known = valmod::tools::kQueryFlags;
  else if (command == "generate") known = valmod::tools::kGenerateFlags;
  else if (command == "version") known = valmod::tools::kVersionFlags;
  else return Usage();
  if (valmod::Status status = flags.RejectUnknown(known); !status.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", command.c_str(),
                 status.message().c_str());
    return 2;
  }

  // Force the SIMD dispatch target before anything computes.
  if (valmod::Status status = valmod::tools::ApplySimdFlag(flags);
      !status.ok()) {
    std::fprintf(stderr, "error: --simd: %s\n", status.message().c_str());
    return 2;
  }

  if (command == "version") return RunVersion(flags);
  if (command == "motifs") return RunMotifs(flags);
  if (command == "discords") return RunDiscords(flags);
  if (command == "valmap") return RunValmapCommand(flags);
  if (command == "profile") return RunProfile(flags);
  if (command == "query") return RunQuery(flags);
  return RunGenerate(flags);
}
