#ifndef GDR_PERFBENCH_INPUTS_H_
#define GDR_PERFBENCH_INPUTS_H_

// Input generation shared by the workloads.
//
// A workload's content is one fixed generator instance; --seed shuffles
// its rows. Generator seeds were not used as the benchmark seed because the
// work in one instance swings with which error signature its largest
// hospitals draw: at 20k records the GDR-NoLearning session takes from 1.7
// to 4.0 s across generator seeds, far more than any regression bound. A
// row permutation keeps the work's distribution and still hands the
// program a different table (row ids, pool and group member order, ranking
// tie-breaks) for every seed.

#include <cstdint>
#include <string>
#include <vector>

#include "sim/dataset.h"
#include "util/result.h"

namespace perfbench {

std::vector<std::string> RowValues(const gdr::Table& table, gdr::RowId row);

/// `base` with its rows in the order a `seed`-driven shuffle gives. The
/// dirty table is rebuilt as a copy of the clean one with the differing
/// cells written row-major, as the generators and the csv loader build
/// theirs.
gdr::Result<gdr::Dataset> ShuffleRows(const gdr::Dataset& base,
                                      std::uint64_t seed);

}  // namespace perfbench

#endif  // GDR_PERFBENCH_INPUTS_H_
