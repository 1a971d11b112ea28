#ifndef GDR_REPAIR_REPAIR_STATE_H_
#define GDR_REPAIR_REPAIR_STATE_H_

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "repair/update.h"

namespace gdr {

/// Per-cell repair bookkeeping of Appendix A.4/A.5:
///  * ⟨t,B⟩.Changeable — false once the cell's value has been confirmed
///    correct (by retain feedback or by applying a confirmed update); no
///    further updates are generated for it.
///  * ⟨t,B⟩.preventedList — values confirmed wrong for the cell; the update
///    generator never re-suggests them.
///
/// Cells start changeable with an empty prevented list; state is stored
/// sparsely.
class RepairState {
 public:
  RepairState() = default;

  bool IsChangeable(CellKey cell) const {
    return !frozen_.contains(cell);
  }

  /// Marks the cell's current value as confirmed-correct.
  void Freeze(CellKey cell) { frozen_.insert(cell); }

  void Prevent(CellKey cell, ValueId value) {
    prevented_[cell].insert(value);
  }

  bool IsPrevented(CellKey cell, ValueId value) const {
    auto it = prevented_.find(cell);
    return it != prevented_.end() && it->second.contains(value);
  }

  std::size_t PreventedCount(CellKey cell) const {
    auto it = prevented_.find(cell);
    return it == prevented_.end() ? 0 : it->second.size();
  }

  std::size_t frozen_count() const { return frozen_.size(); }

  /// Every frozen cell, ascending by (row, attr).
  std::vector<CellKey> FrozenCells() const {
    std::vector<CellKey> cells(frozen_.begin(), frozen_.end());
    std::sort(cells.begin(), cells.end(), CellKeyLess);
    return cells;
  }

  /// Every (cell, prevented value) pair, ascending by (row, attr, value).
  std::vector<std::pair<CellKey, ValueId>> PreventedValues() const {
    std::vector<std::pair<CellKey, ValueId>> out;
    for (const auto& [cell, values] : prevented_) {
      for (ValueId value : values) out.emplace_back(cell, value);
    }
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      if (!(a.first == b.first)) return CellKeyLess(a.first, b.first);
      return a.second < b.second;
    });
    return out;
  }

 private:
  std::unordered_set<CellKey, CellKeyHash> frozen_;
  std::unordered_map<CellKey, std::unordered_set<ValueId>, CellKeyHash>
      prevented_;
};

}  // namespace gdr

#endif  // GDR_REPAIR_REPAIR_STATE_H_
