#ifndef VALMOD_TOOLS_TOOL_FLAGS_H_
#define VALMOD_TOOLS_TOOL_FLAGS_H_

// Per-subcommand flag tables shared by the tool front ends (valmod_cli and
// valmod_server). Each tool validates its parsed flags against the table
// with Flags::RejectUnknown, so a typo'd flag (`--thread=4`, `--lmax`
// misspelled) is a hard usage error instead of a silently applied default.
// Keeping the tables next to each other — and shared between the binaries —
// means the CLI and the server cannot drift apart on what a subcommand
// accepts.

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/flags.h"
#include "common/result.h"
#include "series/data_series.h"
#include "series/generators.h"
#include "series/io.h"
#include "simd/dispatch.h"

namespace valmod::tools {

/// Dataset-source flags accepted by every series-consuming subcommand.
/// `--allow-nonfinite` is the escape hatch for files carrying nan/inf
/// samples: loads reject them by default (series::ReadOptions).
inline constexpr std::string_view kSourceFlags[] = {
    "input", "column", "generate", "n", "seed", "allow-nonfinite",
};

/// Loads the series the source flags describe — `--input=<csv>
/// [--column=c] [--allow-nonfinite]` or `--generate=<name> [--n] [--seed]`
/// — with one set of defaults shared by valmod_cli and valmod_server
/// (--preload), so the two binaries cannot drift apart on source semantics
/// any more than on flag tables.
inline Result<series::DataSeries> LoadSeriesFromFlags(const Flags& flags) {
  if (flags.Has("input")) {
    series::ReadOptions options;
    options.allow_nonfinite = flags.GetBool("allow-nonfinite", false);
    return series::ReadDelimited(
        flags.GetString("input", ""),
        static_cast<std::size_t>(flags.GetInt("column", 0)), options);
  }
  return synth::ByName(flags.GetString("generate", "ecg"),
                       static_cast<std::size_t>(flags.GetInt("n", 20000)),
                       static_cast<std::uint64_t>(flags.GetInt("seed", 1)));
}

/// Reads `--<name>` into `*value` as a whole decimal integer in [min, max],
/// leaving `*value` (the default) alone when the flag is absent. Any other
/// text, or a value out of range, is InvalidArgument naming the flag, so a
/// typo cannot wrap to SIZE_MAX or bind a port the user did not ask for.
inline Status ReadIntInRange(const Flags& flags, const std::string& name,
                             std::int64_t min, std::int64_t max,
                             std::int64_t* value) {
  if (!flags.Has(name)) return Status::Ok();
  const std::string text = flags.GetString(name, "");
  std::int64_t parsed = 0;
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), parsed);
  if (error != std::errc() || end != text.data() + text.size() ||
      parsed < min || parsed > max) {
    return Status::InvalidArgument(
        "--" + name + "=" + text + ": expected a whole number in [" +
        std::to_string(min) + ", " + std::to_string(max) + "]");
  }
  *value = parsed;
  return Status::Ok();
}

/// Applies the shared `--simd=<scalar|avx2|neon>` flag: forces the
/// runtime SIMD dispatch target, exactly like the VALMOD_SIMD environment
/// variable (the flag wins over the env var because it is applied after
/// startup resolution). Unlike the env var — which only warns, so a bad
/// ops-side value cannot take down a server — the flag is a hard usage
/// error on unknown or unsupported targets. Apply it before anything
/// computes.
inline Status ApplySimdFlag(const Flags& flags) {
  if (!flags.Has("simd")) return Status::Ok();
  VALMOD_ASSIGN_OR_RETURN(simd::Target target,
                          simd::ParseTarget(flags.GetString("simd", "")));
  return simd::SetTarget(target);
}

inline constexpr std::string_view kMotifsFlags[] = {
    "input", "column", "generate", "n", "seed", "allow-nonfinite",
    "lmin", "lmax", "k", "p", "threads", "simd",
};

inline constexpr std::string_view kDiscordsFlags[] = {
    "input", "column", "generate", "n", "seed", "allow-nonfinite",
    "lmin", "lmax", "k", "threads", "simd",
};

inline constexpr std::string_view kValmapFlags[] = {
    "input", "column", "generate", "n", "seed", "allow-nonfinite",
    "lmin", "lmax", "k", "p", "threads", "output", "simd",
};

inline constexpr std::string_view kProfileFlags[] = {
    "input", "column", "generate", "n", "seed", "allow-nonfinite",
    "l", "k", "threads", "output", "simd",
};

inline constexpr std::string_view kQueryFlags[] = {
    "input", "column", "generate", "n", "seed", "allow-nonfinite",
    "query", "k", "simd",
};

inline constexpr std::string_view kGenerateFlags[] = {
    "input", "column", "generate", "n", "seed", "allow-nonfinite", "output",
};

/// The `version` subcommand reports build/runtime facts; it takes no flags
/// but keeps a (closed, empty-but-for-help) table so a typo is still
/// rejected like everywhere else.
inline constexpr std::string_view kVersionFlags[] = {
    "version",
};

/// valmod_server accepts its serving knobs plus the same source flags (for
/// --preload, which loads a dataset before serving).
inline constexpr std::string_view kServerFlags[] = {
    "input", "column", "generate", "n", "seed", "allow-nonfinite",
    "stdio", "port", "workers", "queue", "cache", "timeout-s", "preload",
    "page-bytes", "simd",
    "log-level", "log-json", "slowlog", "no-trace",
};

}  // namespace valmod::tools

#endif  // VALMOD_TOOLS_TOOL_FLAGS_H_
