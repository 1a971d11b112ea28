#include "inputs.h"

#include <algorithm>
#include <numeric>
#include <random>

namespace perfbench {

std::vector<std::string> RowValues(const gdr::Table& table, gdr::RowId row) {
  std::vector<std::string> values;
  values.reserve(table.num_attrs());
  for (std::size_t a = 0; a < table.num_attrs(); ++a) {
    values.push_back(table.at(row, static_cast<gdr::AttrId>(a)));
  }
  return values;
}

gdr::Result<gdr::Dataset> ShuffleRows(const gdr::Dataset& base,
                                      std::uint64_t seed) {
  std::vector<gdr::RowId> order(base.clean.num_rows());
  std::iota(order.begin(), order.end(), 0);
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);

  gdr::Dataset out(base.clean.schema());
  out.name = base.name;
  out.rules = base.rules;
  out.corrupted_tuples = base.corrupted_tuples;
  out.clean.Reserve(order.size());
  for (const gdr::RowId row : order) {
    GDR_RETURN_NOT_OK(out.clean.AppendRow(RowValues(base.clean, row)).status());
  }
  out.dirty = out.clean;
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (std::size_t a = 0; a < base.dirty.num_attrs(); ++a) {
      const auto attr = static_cast<gdr::AttrId>(a);
      if (!base.dirty.CellEquals(order[i], attr, base.clean)) {
        out.dirty.Set(static_cast<gdr::RowId>(i), attr,
                      base.dirty.at(order[i], attr));
      }
    }
  }
  return out;
}

}  // namespace perfbench
