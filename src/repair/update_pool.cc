#include "repair/update_pool.h"

#include <algorithm>

namespace gdr {

std::vector<Update> UpdatePool::All() const {
  std::vector<Update> out;
  out.reserve(pool_.size());
  for (const auto& [cell, update] : pool_) out.push_back(update);
  std::sort(out.begin(), out.end(), [](const Update& a, const Update& b) {
    if (a.row != b.row) return a.row < b.row;
    return a.attr < b.attr;
  });
  return out;
}

std::vector<Update> UpdatePool::AllGroupedByValue() const {
  std::vector<Update> out;
  out.reserve(pool_.size());
  for (const auto& [cell, update] : pool_) out.push_back(update);
  // (attr, value, row) is a strict total order here: the pool holds at
  // most one update per (row, attr) cell, so the sort is deterministic
  // regardless of the hash map's iteration order.
  std::sort(out.begin(), out.end(), [](const Update& a, const Update& b) {
    if (a.attr != b.attr) return a.attr < b.attr;
    if (a.value != b.value) return a.value < b.value;
    return a.row < b.row;
  });
  return out;
}

std::vector<Update> UpdatePool::GroupOf(AttrId attr, ValueId value) const {
  std::vector<Update> out;
  for (const auto& [cell, update] : pool_) {
    if (update.attr == attr && update.value == value) out.push_back(update);
  }
  std::sort(out.begin(), out.end(), [](const Update& a, const Update& b) {
    return a.row < b.row;
  });
  return out;
}

}  // namespace gdr
