#ifndef GDR_UTIL_STRINGS_H_
#define GDR_UTIL_STRINGS_H_

#include <cctype>
#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace gdr {

/// Strips leading/trailing whitespace (std::isspace) from a view — the one
/// trim used by the CFD rule parser and the workload spec/file parsers.
inline std::string_view TrimWhitespace(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

/// Checked integer parsing — the one implementation behind every numeric
/// knob (bench/example --flags, workload spec parameters, wire-protocol
/// fields). Rejects what std::atoll silently accepts: empty input, leading/
/// trailing junk ("12x", "1.5"), out-of-range magnitudes (no truncation or
/// wraparound), and, for the unsigned variant, any negative input. `what`
/// names the value in the error message ("--rows", "parameter 'records'").
inline Result<std::int64_t> ParseInt64(std::string_view text,
                                       std::string_view what) {
  std::int64_t parsed = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), parsed);
  if (ec == std::errc::result_out_of_range) {
    return Status::InvalidArgument(std::string(what) + ": integer '" +
                                   std::string(text) + "' is out of range");
  }
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return Status::InvalidArgument(std::string(what) + ": expected an "
                                   "integer, got '" + std::string(text) + "'");
  }
  return parsed;
}

/// As ParseInt64, but for unsigned values: "-1" (and any other negative) is
/// an error, never a wraparound to 18446744073709551615.
inline Result<std::uint64_t> ParseUint64(std::string_view text,
                                         std::string_view what) {
  if (!text.empty() && text.front() == '-') {
    return Status::InvalidArgument(std::string(what) + ": expected a "
                                   "non-negative integer, got '" +
                                   std::string(text) + "'");
  }
  std::uint64_t parsed = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), parsed);
  if (ec == std::errc::result_out_of_range) {
    return Status::InvalidArgument(std::string(what) + ": integer '" +
                                   std::string(text) + "' is out of range");
  }
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return Status::InvalidArgument(std::string(what) + ": expected a "
                                   "non-negative integer, got '" +
                                   std::string(text) + "'");
  }
  return parsed;
}

/// Checked double parsing: the full strtod grammar, but the whole input
/// must be consumed and it must be non-empty.
Result<double> ParseDouble(std::string_view text, std::string_view what);

/// Lowercase hex encoding of arbitrary bytes — how every wire format
/// (session snapshots, the server line protocol) carries cell values and
/// volunteered strings, so any byte is legal in transit.
std::string EncodeHex(std::string_view bytes);

/// Inverse of EncodeHex. Returns false on odd length or a non-hex digit;
/// `bytes` is clobbered either way.
bool DecodeHex(std::string_view hex, std::string* bytes);

/// Splits on every occurrence of `sep`. Empty pieces are preserved
/// (",a," -> "", "a", "") and an empty input yields one empty piece, so
/// callers see exactly the comma grammar they were given — trim/validate
/// per piece as needed.
inline std::vector<std::string> SplitString(std::string_view text, char sep) {
  std::vector<std::string> pieces;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      pieces.emplace_back(text.substr(start));
      return pieces;
    }
    pieces.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

/// 64-bit FNV-1a over arbitrary bytes. Stable across platforms and runs —
/// used for content-addressed keys (the workload cache, experiment result
/// fingerprints), never for adversarial inputs.
inline std::uint64_t Fnv1a64(std::string_view bytes,
                             std::uint64_t seed = 14695981039346656037ULL) {
  std::uint64_t hash = seed;
  for (const char c : bytes) {
    hash ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// Fnv1a64 rendered as fixed-width lowercase hex (16 digits) — the textual
/// form used in cache directory names and JSON artifacts.
std::string Fnv1a64Hex(std::string_view bytes);

}  // namespace gdr

#endif  // GDR_UTIL_STRINGS_H_
