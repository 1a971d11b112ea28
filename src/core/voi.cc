#include "core/voi.h"

#include <algorithm>
#include <numeric>

namespace gdr {

VoiRanker::VoiRanker(const ViolationIndex* index,
                     const std::vector<double>* weights)
    : index_(index), weights_(weights) {}

double VoiRanker::UpdateBenefit(const Update& update) const {
  HypotheticalBatch batch(index_);
  return UpdateBenefit(update, &batch);
}

double VoiRanker::UpdateBenefit(const Update& update,
                                HypotheticalBatch* batch) const {
  // Within one group every update shares (attr, value), so this Stage is
  // a cheap no-op after the group's first update: staging is paid once
  // per group, not per update.
  batch->Stage(update.attr, update.value);
  const std::size_t affected = batch->num_affected();
  if (affected == 0) return 0.0;
  if (batch->IsNoOp(update.row)) return 0.0;  // writing the cell's own value

  // Terms over the dispatched affected rules, in ascending k. drop =
  // vio(D) − vio(D^rj) = −adjustment. A zero adjustment would contribute
  // exactly +0.0, so skipping it — and every affected rule the index does
  // not dispatch, a constant rule with the row outside its context before
  // and after the write — leaves the sum bit-identical to the sum over all
  // affected rules.
  double benefit = 0.0;
  index_->ForEachCandidateRule(
      update.row, update.attr, update.value, [&](RuleId rule) {
        const std::int32_t k = index_->AffectedSlot(update.attr, rule);
        if (k < 0) return;
        const HypotheticalBatch::Effect effect =
            batch->Probe(static_cast<std::size_t>(k), update.row);
        if (effect.adjustment == 0) return;
        if (effect.satisfying <= 0) return;  // no denominator: fully violated
        benefit += (*weights_)[static_cast<std::size_t>(rule)] *
                   static_cast<double>(-effect.adjustment) /
                   static_cast<double>(effect.satisfying);
      });
  return benefit;
}

VoiRanker::Ranking VoiRanker::Rank(
    const std::vector<UpdateGroup>& groups,
    const ConfirmProbabilityBatchFn& confirm_probabilities) const {
  Ranking ranking;
  ranking.scores.assign(groups.size(), 0.0);

  // One batch, one probability buffer and one set of probe counters for
  // the whole pass; the counters merge into perf_ when it ends.
  HypotheticalBatch batch(index_);
  PerfCounters perf;
  std::vector<double> probabilities;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const UpdateGroup& group = groups[i];
    confirm_probabilities(std::span<const Update>(group.updates),
                          &probabilities);
    const std::size_t n = group.updates.size();
    ScopedPhaseTimer timer(&perf, PerfPhase::kVoiProbe, n);
    // Terms in update order, probability times benefit.
    double score = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      score += probabilities[j] * UpdateBenefit(group.updates[j], &batch);
    }
    ranking.scores[i] = score;
  }
  perf_.MergeFrom(perf);

  ranking.order.resize(groups.size());
  std::iota(ranking.order.begin(), ranking.order.end(), 0);
  std::stable_sort(ranking.order.begin(), ranking.order.end(),
                   [&ranking](std::size_t a, std::size_t b) {
                     return ranking.scores[a] > ranking.scores[b];
                   });
  return ranking;
}

VoiRanker::Ranking VoiRanker::Rank(
    const std::vector<UpdateGroup>& groups,
    const ConfirmProbabilityFn& confirm_probability) const {
  return Rank(groups, [&confirm_probability](std::span<const Update> updates,
                                             std::vector<double>* out) {
    out->clear();
    for (const Update& update : updates) {
      out->push_back(confirm_probability(update));
    }
  });
}

}  // namespace gdr
