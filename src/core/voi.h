#ifndef GDR_CORE_VOI_H_
#define GDR_CORE_VOI_H_

#include <functional>
#include <span>
#include <vector>

#include "cfd/violation_index.h"
#include "core/grouping.h"
#include "util/perf_counters.h"

namespace gdr {

/// Supplies the learned confirm probability p̃_j for an update: the
/// prediction probability of the user model once trained, falling back to
/// the repair score s_j before any feedback exists (Section 4.1, "User
/// Model"). Tests and benches pass the repair score itself.
using ConfirmProbabilityFn = std::function<double(const Update&)>;

/// Group-batched form of the same contract: fills `out` (resized to the
/// span's length) with each update's p̃_j. The session passes
/// LearnerBank::ConfirmProbabilities, which the learner_batch suite pins
/// bit-identical to a per-update committee oracle.
using ConfirmProbabilityBatchFn =
    std::function<void(std::span<const Update>, std::vector<double>*)>;

/// The VOI-based group ranking of Section 4.1. Computes the estimated
/// update benefit of acquiring feedback on a group c (Eq. 6):
///
///   E[g(c)] = Σ_φ w_φ  Σ_{r_j ∈ c}  p̃_j ·
///             (vio(D, {φ}) − vio(D^{r_j}, {φ})) / |D^{r_j} ⊨ φ|
///
/// D^{r_j} (the hypothetical database with r_j applied) is never
/// materialized. All updates of one group share an (attr, value) write
/// target, so the group's context is staged once into a HypotheticalBatch
/// and each update's effect is a closed-form integer probe against the
/// read-only shared index — scoring never mutates shared state. Rules not
/// mentioning the update's attribute contribute zero (their violation
/// counts cannot change) and are skipped, and so are the constant rules
/// whose pattern the row matches neither before nor after the write (rule
/// dispatch, see ViolationIndex::ForEachCandidateRule).
///
/// p̃_j comes from the function passed to Rank, evaluated once per group.
///
/// Ranking is serial. Parallelism lives where the work is coarse:
/// concurrent sessions (SessionManager).
class VoiRanker {
 public:
  /// `index` is read-only; `weights` must have one entry per rule (Eq. 3
  /// weights). Non-owning pointers.
  VoiRanker(const ViolationIndex* index, const std::vector<double>* weights);

  /// The benefit term of a single update r_j:
  ///   Σ_φ w_φ (vio(D,{φ}) − vio(D^rj,{φ})) / |D^rj ⊨ φ|
  /// (without the p̃_j factor). Pure read: stages a local batch, so it is
  /// safe to call concurrently.
  double UpdateBenefit(const Update& update) const;

  /// Batch-reusing variant: restages `batch` when the update's (attr,
  /// value) differs from what it holds (a no-op within one group) and
  /// probes the closed forms. Safe to call concurrently with distinct
  /// batches.
  double UpdateBenefit(const Update& update, HypotheticalBatch* batch) const;

  /// Scores all groups; returns indices into `groups` sorted by descending
  /// benefit (ties by ascending index), plus the scores themselves. Each
  /// group's score sums p̃_j times UpdateBenefit in update order.
  struct Ranking {
    std::vector<std::size_t> order;  // group indices, best first
    std::vector<double> scores;      // aligned with `groups`
  };
  Ranking Rank(const std::vector<UpdateGroup>& groups,
               const ConfirmProbabilityBatchFn& confirm_probabilities) const;
  /// Adapter for a per-update p̃: bit-identical to the batched overload fed
  /// the same values.
  Ranking Rank(const std::vector<UpdateGroup>& groups,
               const ConfirmProbabilityFn& confirm_probability) const;

  /// Cumulative probe-phase counters (kVoiProbe: benefit-probe ns plus the
  /// number of updates probed), merged in after each ranking pass. Not
  /// thread-safe w.r.t. concurrent Rank calls on the *same* ranker — each
  /// engine owns its ranker, so that never happens.
  const PerfCounters& perf_counters() const { return perf_; }
  void ResetPerfCounters() { perf_.Reset(); }

 private:
  const ViolationIndex* index_;
  const std::vector<double>* weights_;
  mutable PerfCounters perf_;
};

}  // namespace gdr

#endif  // GDR_CORE_VOI_H_
