#ifndef GDR_SIM_DATASET1_H_
#define GDR_SIM_DATASET1_H_

#include <cstdint>

#include "sim/dataset.h"
#include "util/result.h"

namespace gdr {

/// Generator options for the Dataset 1 analog (see DESIGN.md for the
/// substitution rationale: the paper's Dataset 1 is a proprietary
/// emergency-room feed from 74 Indiana hospitals with manually repaired
/// ground truth).
struct Dataset1Options {
  std::size_t num_records = 20000;
  std::size_t num_hospitals = 74;
  /// Zipf skew of hospital visit volumes; larger skew ⇒ more widely
  /// varying update-group sizes (a defining property of Dataset 1).
  double volume_skew = 0.85;
  /// Multiplier on every hospital's error rate (1.0 lands near the
  /// paper's ~30% dirty tuples).
  double error_scale = 1.0;
  std::uint64_t seed = 11;
};

/// Generates the hospital workload:
///  * Schema: PatientID, Age, Sex, Classification, Complaint,
///    HospitalName, StreetAddress, City, Zip, State, VisitDate
///    (the attribute subset of Appendix B).
///  * Clean records are sampled from the master directory: a patient's
///    address is a street of the hospital's city, with the zip/city/state
///    the directory entails.
///  * Errors are *correlated*: each hospital corrupts records at its own
///    rate with its own signature pattern (city swap to one fixed wrong
///    city, boundary-zip confusion, keyboard typos in city/state/street) —
///    the recurrent source-correlated mistakes the GDR learner exploits.
///  * Rules: one constant CFD "Zip=z → City=c; State=IN" per directory
///    zip, plus the variable CFD "StreetAddress, City → Zip" (the paper's
///    Figure 1 rule family).
/// Fails with InvalidArgument on zero hospitals or a non-finite skew.
Result<Dataset> GenerateDataset1(const Dataset1Options& options = {});

}  // namespace gdr

#endif  // GDR_SIM_DATASET1_H_
