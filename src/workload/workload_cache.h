#ifndef GDR_WORKLOAD_WORKLOAD_CACHE_H_
#define GDR_WORKLOAD_WORKLOAD_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "sim/dataset.h"
#include "util/result.h"
#include "workload/workload.h"

namespace gdr {

struct WorkloadCacheOptions {
  /// Directory for the on-disk layer: each resolved workload is
  /// ExportWorkload()ed to `<cache_dir>/wl_<fnv1a-hex>/` (clean.csv,
  /// dirty.csv, rules.txt + a meta.txt recording the canonical spec), so a
  /// later resolution — in this process or the next — loads the exported
  /// csv: file set instead of re-running generation + rule discovery.
  /// Empty (the default) disables the disk layer; the cache is then
  /// in-memory only.
  std::string cache_dir;
  /// Resolved Datasets kept resident; least-recently-used entries are
  /// dropped beyond this (they remain loadable from the disk layer when
  /// one is configured). 0 disables the in-memory layer.
  std::size_t max_resident = 8;
};

/// Content-keyed cache of resolved workloads. The key is
/// WorkloadSpec::Canonical() — name plus sorted, whitespace-normalized
/// parameters — so "dataset1:seed=7,records=100" and
/// "dataset1:records=100, seed=7" are one entry. Two layers:
///
///   memory  canonical spec -> shared resident Dataset (LRU, max_resident)
///   disk    canonical spec -> ExportWorkload()ed csv: file set, which
///           loads back bit-identically (the PR 4 round-trip guarantee),
///           named by the spec's FNV-1a content hash
///
/// Hash collisions can never alias silently: the disk layer stores the
/// full canonical spec next to the files and verifies it on every hit; a
/// mismatch probes `wl_<hash>_1`, `_2`, ... until an empty or matching
/// slot is found (counted in `collisions_resolved`). The in-memory layer
/// is keyed by the canonical string itself, so it cannot collide at all.
///
/// Not thread-safe: one cache per resolving thread (the benches resolve
/// serially).
class WorkloadCache {
 public:
  struct Counters {
    std::size_t memory_hits = 0;
    std::size_t disk_hits = 0;
    std::size_t misses = 0;  // full resolutions through the registry
    std::size_t collisions_resolved = 0;

    std::size_t hits() const { return memory_hits + disk_hits; }
  };

  explicit WorkloadCache(WorkloadCacheOptions options = {});

  /// Parse + Resolve for textual specs.
  Result<std::shared_ptr<const Dataset>> Resolve(std::string_view spec_text);

  /// Returns the cached Dataset for `spec`'s canonical form, resolving it
  /// through the global WorkloadRegistry on the first request. The result
  /// is shared and immutable — many concurrent readers (one per
  /// experiment run) may hold it at once.
  Result<std::shared_ptr<const Dataset>> Resolve(const WorkloadSpec& spec);

  const Counters& counters() const { return counters_; }
  const WorkloadCacheOptions& options() const { return options_; }

 private:
  struct Resident {
    std::shared_ptr<const Dataset> dataset;
    std::uint64_t last_touch = 0;
  };

  // Returns the disk directory holding `canonical` (verified against
  // meta.txt), "" when the entry is absent. Probes collision salts.
  std::string FindDiskEntry(const std::string& canonical);
  // Exports `dataset` under `canonical`'s hash (next free salt slot).
  Status StoreDiskEntry(const std::string& canonical, const Dataset& dataset);
  Result<Dataset> LoadDiskEntry(const std::string& dir);
  void InsertResident(const std::string& canonical,
                      std::shared_ptr<const Dataset> dataset);

  WorkloadCacheOptions options_;
  Counters counters_;
  std::map<std::string, Resident> resident_;  // canonical -> entry
  std::uint64_t touch_clock_ = 0;
};

}  // namespace gdr

#endif  // GDR_WORKLOAD_WORKLOAD_CACHE_H_
