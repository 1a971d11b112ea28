#ifndef GDR_REPAIR_UPDATE_POOL_H_
#define GDR_REPAIR_UPDATE_POOL_H_

#include <optional>
#include <unordered_map>
#include <vector>

#include "repair/update.h"

namespace gdr {

/// The PossibleUpdates list of Section 3: the live pool of candidate
/// updates. The on-demand generator produces at most one suggestion per
/// cell at a time (the best-scoring one); rejected suggestions are replaced,
/// so the pool is a map cell → update.
class UpdatePool {
 public:
  UpdatePool() = default;

  /// Inserts or replaces the suggestion for the update's cell.
  void Upsert(const Update& update) { pool_[update.cell()] = update; }

  /// Removes any suggestion for `cell`; returns true if one was present.
  bool Remove(CellKey cell) { return pool_.erase(cell) > 0; }

  /// Current suggestion for `cell`, if any.
  std::optional<Update> Get(CellKey cell) const {
    auto it = pool_.find(cell);
    if (it == pool_.end()) return std::nullopt;
    return it->second;
  }

  bool Contains(CellKey cell) const { return pool_.contains(cell); }

  /// True when `update` is exactly the pool's current suggestion for its
  /// cell. This is the staleness re-validation performed before consuming
  /// feedback: an update delivered earlier may have been retired (cell
  /// frozen) or replaced (regenerated suggestion) by a consistency cascade.
  bool IsLive(const Update& update) const {
    auto it = pool_.find(update.cell());
    return it != pool_.end() && it->second == update;
  }

  std::size_t size() const { return pool_.size(); }
  bool empty() const { return pool_.empty(); }

  /// Snapshot of all pooled updates, ordered by (row, attr) so that
  /// downstream grouping and ranking are deterministic.
  std::vector<Update> All() const;

  /// Group-major snapshot: ordered by (attr, value, row), so every
  /// (attribute, suggested value) group is one contiguous run — the
  /// iteration order GroupUpdates consumes, turning grouping into a single
  /// linear pass. (attr, value) runs appear in the same ascending order
  /// the old map-based grouping produced, rows ascending within each.
  std::vector<Update> AllGroupedByValue() const;

  /// The pooled updates suggesting `value` for `attr`, ascending by row:
  /// that one group's run of AllGroupedByValue, without copying or sorting
  /// the rest of the pool.
  std::vector<Update> GroupOf(AttrId attr, ValueId value) const;

 private:
  std::unordered_map<CellKey, Update, CellKeyHash> pool_;
};

}  // namespace gdr

#endif  // GDR_REPAIR_UPDATE_POOL_H_
