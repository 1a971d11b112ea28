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
/// Model"). Wired to LearnerBank::ConfirmProbability in the engine.
using ConfirmProbabilityFn = std::function<double(const Update&)>;

/// Group-batched form of the same contract: fills `out` (resized to the
/// span's length) with each update's p̃_j. Wired to
/// LearnerBank::ConfirmProbabilities in the engine; must be bit-identical
/// to calling the scalar fn per update — the learner_batch suite enforces
/// exactly that.
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
/// counts cannot change) and are skipped.
///
/// p̃_j comes from the group-batched ConfirmProbabilityBatchFn when one is
/// installed (the engine installs the learner bank's), otherwise from the
/// scalar fn passed to Rank/ScoreGroup.
///
/// Ranking is serial. Parallelism lives where the work is coarse: whole
/// shards (RunShardedRepair) and concurrent sessions (SessionManager).
class VoiRanker {
 public:
  /// `index` is read-only; `weights` must have one entry per rule (Eq. 3
  /// weights). Non-owning pointers.
  VoiRanker(const ViolationIndex* index, const std::vector<double>* weights);

  /// Installs the group-batched p̃ supplier (one feature matrix and one
  /// tree-at-a-time forest pass per group). Once installed it replaces the
  /// scalar fn passed to Rank/ScoreGroup; without one, that scalar fn is
  /// called per update.
  void set_batch_probability_fn(ConfirmProbabilityBatchFn fn) {
    batch_probability_ = std::move(fn);
  }

  /// E[g(c)] for one group, staged into one internal batch.
  double ScoreGroup(const UpdateGroup& group,
                    const ConfirmProbabilityFn& confirm_probability) const;

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
  /// benefit (ties by ascending index), plus the scores themselves.
  struct Ranking {
    std::vector<std::size_t> order;  // group indices, best first
    std::vector<double> scores;      // aligned with `groups`

    /// Score of group `i`, or 0.0 when out of range — e.g. an empty
    /// ranking produced by a strategy that does not rank by VOI. GdrSession
    /// reads per-group scores through this.
    double ScoreOf(std::size_t i) const {
      return i < scores.size() ? scores[i] : 0.0;
    }
  };
  Ranking Rank(const std::vector<UpdateGroup>& groups,
               const ConfirmProbabilityFn& confirm_probability) const;

  /// Cumulative probe-phase counters (kVoiProbe: benefit-probe ns plus the
  /// number of updates probed), merged from the scratch after each
  /// ranking pass. Not thread-safe w.r.t. concurrent Rank calls on the
  /// *same* ranker — each engine owns its ranker, so that never happens.
  const PerfCounters& perf_counters() const { return perf_; }
  void ResetPerfCounters() { perf_.Reset(); }

 private:
  // Per-pass scoring state: the batched evaluator and the pass's probe
  // counters (merged into perf_ when the pass ends).
  struct Scratch {
    explicit Scratch(const ViolationIndex* index) : batch(index) {}
    HypotheticalBatch batch;
    PerfCounters perf;
  };

  // The one canonical per-group accumulation (terms in update order);
  // Rank and ScoreGroup both funnel through it, so a group scores the
  // same either way.
  double ScoreGroupTerms(const UpdateGroup& group,
                         const std::vector<double>& probabilities,
                         Scratch* scratch) const;
  void FillProbabilities(const UpdateGroup& group,
                         const ConfirmProbabilityFn& confirm_probability,
                         std::vector<double>* out) const;

  const ViolationIndex* index_;
  const std::vector<double>* weights_;
  ConfirmProbabilityBatchFn batch_probability_;
  mutable PerfCounters perf_;
};

}  // namespace gdr

#endif  // GDR_CORE_VOI_H_
