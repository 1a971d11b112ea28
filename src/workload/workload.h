#ifndef GDR_WORKLOAD_WORKLOAD_H_
#define GDR_WORKLOAD_WORKLOAD_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace gdr {

/// A parsed workload request: a registry name plus string-keyed parameters,
/// the resolution unit of the workload subsystem. The textual form used on
/// every bench/example command line is
///
///   name                                  (no parameters)
///   name:key=value,key=value,...
///
/// e.g. "dataset1:records=4000,seed=7" or
/// "csv:clean=d/clean.csv,dirty=d/dirty.csv,rules=d/rules.txt".
///
/// Keys are unique (duplicates are a parse error); values run to the next
/// comma, so commas cannot appear inside a value in the textual form —
/// build the spec programmatically (e.g. via CsvWorkloadSpec) when a file
/// path contains one.
struct WorkloadSpec {
  std::string name;
  /// Parameters in the order written; keys are unique.
  std::vector<std::pair<std::string, std::string>> params;

  /// Parses the textual form above. Fails with a message naming the
  /// offending token on an empty name, a missing key, or a duplicate key.
  static Result<WorkloadSpec> Parse(std::string_view text);

  /// Renders back to the textual form (inverse of Parse for specs whose
  /// values contain no commas).
  std::string ToString() const;

  /// The canonical textual form: the (already whitespace-trimmed) name
  /// followed by the parameters in *sorted key order* with single
  /// separators and no padding. Two specs that differ only in parameter
  /// order or surrounding whitespace canonicalize identically — this is
  /// the content key of the workload cache. Keys are unique by
  /// construction, so the sort is total.
  std::string Canonical() const;

  /// Stable FNV-1a (64-bit) hash of Canonical(), identical across runs and
  /// platforms. Used to name cache directories; collisions are possible in
  /// principle, so every consumer must verify the stored canonical string
  /// before trusting a hash match (the cache does).
  std::uint64_t ContentHash() const;

  /// Returns the value for `key`, or nullptr when absent.
  const std::string* Find(std::string_view key) const;
  bool Has(std::string_view key) const { return Find(key) != nullptr; }

  /// Typed parameter accessors. Each returns `fallback` when the key is
  /// absent and an InvalidArgument naming the workload, key, and raw value
  /// when present but malformed (for GetDouble, also nan and inf).
  Result<std::string> GetString(std::string_view key,
                                std::string_view fallback) const;
  Result<std::size_t> GetSize(std::string_view key, std::size_t fallback) const;
  Result<std::uint64_t> GetUint64(std::string_view key,
                                  std::uint64_t fallback) const;
  Result<int> GetInt(std::string_view key, int fallback) const;
  Result<double> GetDouble(std::string_view key, double fallback) const;

  /// Fails (naming the first offender and the accepted set) when the spec
  /// carries a key outside `known` — every factory calls this first so a
  /// typo like "record=" surfaces instead of being silently ignored.
  Status RejectUnknownKeys(
      std::initializer_list<std::string_view> known) const;
};

}  // namespace gdr

#endif  // GDR_WORKLOAD_WORKLOAD_H_
