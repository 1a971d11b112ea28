#ifndef GDR_PLANE_SHARD_PLAN_H_
#define GDR_PLANE_SHARD_PLAN_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "sim/dataset.h"
#include "util/result.h"

namespace gdr::plane {

/// Half-open row range [begin, end) of one shard within the full instance.
struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  std::size_t size() const { return end - begin; }
  bool empty() const { return begin == end; }
  bool operator==(const ShardRange&) const = default;
};

/// The deterministic row partition of the sharded data plane: `num_rows`
/// initial rows split into `num_shards` contiguous ranges whose sizes
/// differ by at most one (the first `num_rows % num_shards` shards carry
/// the extra row). Rules are shared across shards — only rows split — so
/// every shard repairs against the same Σ.
class ShardPlan {
 public:
  /// Builds the partition. `num_shards` must be >= 1; when it exceeds
  /// `num_rows` the surplus shards are empty (and a per-shard session over
  /// an empty instance is a valid, immediately-done session).
  static Result<ShardPlan> Split(std::size_t num_rows, std::size_t num_shards);

  std::size_t num_shards() const { return ranges_.size(); }
  std::size_t num_rows() const { return num_rows_; }
  const ShardRange& range(std::size_t shard) const { return ranges_[shard]; }
  const std::vector<ShardRange>& ranges() const { return ranges_; }

  /// The shard owning initial row `global_row` (< num_rows()). O(1).
  std::size_t OwnerOf(std::size_t global_row) const;

 private:
  std::size_t num_rows_ = 0;
  std::vector<ShardRange> ranges_;
};

/// Materializes one shard's Dataset: the range's rows copied out of
/// `full.clean`, the dirty instance rebuilt as a copy of the shard's clean
/// table with the differing cells applied row-major (the same idiom the
/// generators and the csv: loader use, so value-id interning — and every
/// interning-order tie-break downstream — is reproduced exactly), and a
/// copy of the shared rules. `corrupted_tuples` counts the range's rows
/// with at least one differing cell. `name` is the shard's display name.
Result<Dataset> MakeShardDataset(const Dataset& full, const ShardRange& range,
                                 std::string_view name);

}  // namespace gdr::plane

#endif  // GDR_PLANE_SHARD_PLAN_H_
