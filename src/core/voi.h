#ifndef GDR_CORE_VOI_H_
#define GDR_CORE_VOI_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "cfd/violation_index.h"
#include "core/grouping.h"
#include "core/learner_bank.h"
#include "util/perf_counters.h"

namespace gdr {

/// Supplies the learned confirm probability p̃_j for an update: the
/// prediction probability of the user model once trained, falling back to
/// the repair score s_j before any feedback exists (Section 4.1, "User
/// Model"). Tests and benches pass the repair score itself.
using ConfirmProbabilityFn = std::function<double(const Update&)>;

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
/// p̃_j comes from the LearnerBank passed to Rank (tests and benches may
/// pass a per-update function); a group's p̃ not reused (below) is
/// evaluated by one ConfirmProbabilities call, outside the kVoiProbe timer.
///
/// Re-ranking is incremental. Eq. 6's terms read only the update's row,
/// its LHS groups and the group its write would join, so Rank keeps each
/// probed update's non-zero (rule, adjustment, d_sat) terms together with
/// the group slots the probe read (ViolationIndex's change stamps). The
/// next Rank reuses an update's terms when the same (cell, value) comes
/// back and neither its row stamp nor any group stamp it read has moved
/// since; otherwise it re-probes. A reused update's benefit is recomputed
/// from the current aggregates — satisfying = SatisfyingCount(φ) + d_sat,
/// summed as w_φ·(−adjustment)/satisfying in ascending RuleId order, the
/// order a probe sums in — so scores, order and picks are bit-identical
/// to probing every update afresh. With a trained forest, an entry also
/// keeps p̃, the update's score and the value counts of its current and
/// suggested values, under the group's forest generation (TrainedOn). A
/// reused entry reuses p̃ too when those are unchanged and the row's group
/// under no variable rule moved (violations_now reads those of the rules
/// not mentioning the attribute): the encoder reads nothing else. A
/// ranker ranks for one bank; the per-update overload keeps no p̃. The
/// cache is derived state: a new ranker starts empty, UpdateBenefit never
/// reads it, and a Rank keeps only the updates it visited. It follows GroupUpdates' order, (attr,
/// value, row); updates out of that order simply re-probe.
///
/// Ranking is serial, and Rank is stateful: it updates the cache, the
/// reused HypotheticalBatch and p̃ buffers and the counters, so
/// Rank must not run concurrently on one ranker (each engine owns its
/// ranker). Parallelism lives where the work is coarse: concurrent
/// sessions (SessionManager).
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
  /// group's score sums p̃_j times UpdateBenefit in update order, reusing
  /// the previous Rank's probes, and p̃ values, where nothing they read has
  /// moved. p̃_j is bank.ConfirmProbabilities' value.
  struct Ranking {
    std::vector<std::size_t> order;  // group indices, best first
    std::vector<double> scores;      // aligned with `groups`
  };
  Ranking Rank(const std::vector<UpdateGroup>& groups,
               const LearnerBank& bank) const;
  /// The same ranking with p̃_j = confirm_probability(update), called for
  /// every update on every pass.
  Ranking Rank(const std::vector<UpdateGroup>& groups,
               const ConfirmProbabilityFn& confirm_probability) const;

  /// Cumulative probe-phase counters, merged in after each ranking pass:
  /// kVoiProbe is the scoring loop's ns and the number of updates scored,
  /// kVoiReprobe (count only) the updates actually probed rather than
  /// reused, kLearnerReuse (count only) the p̃ values reused rather than
  /// evaluated. Not thread-safe w.r.t. concurrent Rank calls on the *same*
  /// ranker — each engine owns its ranker, so that never happens.
  const PerfCounters& perf_counters() const { return perf_; }
  void ResetPerfCounters() { perf_.Reset(); }

  /// The p̃ the last Rank scored each update with, group by group in
  /// update order.
  std::span<const double> confirm_probabilities() const {
    return probabilities_;
  }

 private:
  // A FIFO of 32-bit words in fixed-size chunks recycled through a free
  // list. Rank reads the last pass's entries off the front while it
  // appends this pass's at the back, so a chunk the reader has finished is
  // the writer's next one and the cache never needs room for two passes.
  class WordQueue {
   public:
    static constexpr std::size_t kChunkWords = 4096;

    WordQueue() = default;
    WordQueue(const WordQueue&) = delete;
    WordQueue& operator=(const WordQueue&) = delete;

    /// Room for `n` ≤ kChunkWords contiguous words at the back; with
    /// `fresh_chunk`, in a chunk of their own.
    std::uint32_t* Append(std::size_t n, bool fresh_chunk = false);
    /// The next unread word. The caller knows that one was written.
    const std::uint32_t* Front() const { return head_->words + read_; }
    void PopFront(std::size_t n);

   private:
    struct Chunk {
      std::unique_ptr<Chunk> next;
      std::size_t used = 0;
      std::uint32_t words[kChunkWords];
    };
    std::unique_ptr<Chunk> head_;  // live chunks, oldest first
    Chunk* tail_ = nullptr;
    std::unique_ptr<Chunk> free_;  // recycled chunks
    std::size_t read_ = 0;         // read position in head_
  };

  // A variable rule mentioning an attribute. A probe of a write into the
  // attribute reads the row's group under it and, when the attribute is in
  // the rule's X (the write moves the key), the hypothetical key's group.
  struct VariableRule {
    RuleId rule = 0;
    bool key_moves = false;
  };

  // UpdateBenefit's probe. With `entry` set it also writes the update's
  // cache entry there (see Rank), with `p_words` words of p̃ block, or
  // leaves it empty when the probe's integers do not fit the entry's
  // 32-bit words.
  double ProbeBenefit(const Update& update, HypotheticalBatch* batch,
                      std::vector<std::uint32_t>* entry,
                      std::size_t p_words) const;

  // Both Rank overloads: p̃ from `bank` when set, else from the function.
  Ranking Rank(const std::vector<UpdateGroup>& groups, const LearnerBank* bank,
               const ConfirmProbabilityFn* confirm_probability) const;

  const ViolationIndex* index_;
  const std::vector<double>* weights_;
  // Per attribute, the variable rules mentioning it in ascending order,
  // and how many of them move their key.
  std::vector<std::vector<VariableRule>> variable_rules_;
  std::vector<std::size_t> key_reads_;
  std::vector<RuleId> all_variable_rules_;
  mutable PerfCounters perf_;
  // Rank's reused working state (see the class comment): the batch, the
  // pass's p̃, one group's benefits, cached p̃ blocks and p̃ misses, the
  // cached entries of the last pass (cached_groups_ groups, valid at index
  // version cache_version_) and one entry's scratch.
  mutable HypotheticalBatch batch_;
  mutable std::vector<double> probabilities_;
  mutable std::vector<double> benefits_;
  mutable std::vector<std::uint32_t*> p_blocks_;
  mutable std::vector<std::size_t> misses_;
  mutable std::vector<Update> miss_updates_;
  mutable std::vector<double> miss_probabilities_;
  mutable WordQueue cache_;
  mutable std::size_t cached_groups_ = 0;
  mutable std::uint64_t cache_version_ = 0;
  mutable std::vector<std::uint32_t> entry_;
};

}  // namespace gdr

#endif  // GDR_CORE_VOI_H_
