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

  double benefit = 0.0;
  for (std::size_t k = 0; k < affected; ++k) {
    // drop = vio(D) − vio(D^rj) = −adjustment. A zero adjustment would
    // contribute exactly +0.0, so skipping it leaves the sum unchanged.
    const HypotheticalBatch::Effect effect = batch->Probe(k, update.row);
    if (effect.adjustment == 0) continue;
    if (effect.satisfying <= 0) {
      continue;  // no denominator: rule fully violated
    }
    benefit +=
        (*weights_)[static_cast<std::size_t>(batch->affected_rule(k))] *
        static_cast<double>(-effect.adjustment) /
        static_cast<double>(effect.satisfying);
  }
  return benefit;
}

double VoiRanker::ScoreGroupTerms(const UpdateGroup& group,
                                  const std::vector<double>& probabilities,
                                  Scratch* scratch) const {
  // The one canonical accumulation: terms in update order, probability
  // times benefit. Rank and ScoreGroup both funnel through here.
  const std::size_t n = group.updates.size();
  ScopedPhaseTimer timer(&scratch->perf, PerfPhase::kVoiProbe, n);
  double score = 0.0;
  if (n != 0) {
    // Stage the group's shared (attr, value) context up front so the
    // per-update prefetch below can resolve the affected rules before the
    // first probe. Every update of a group shares the target, so this is
    // the same single Stage the loop would have paid.
    scratch->batch.Stage(group.updates.front().attr,
                         group.updates.front().value);
  }
  for (std::size_t j = 0; j < n; ++j) {
    // Pull the next update's per-rule row→group slots toward the cache
    // while the current update's closed forms execute.
    if (j + 1 < n) scratch->batch.PrefetchRow(group.updates[j + 1].row);
    score +=
        probabilities[j] * UpdateBenefit(group.updates[j], &scratch->batch);
  }
  return score;
}

void VoiRanker::FillProbabilities(
    const UpdateGroup& group, const ConfirmProbabilityFn& confirm_probability,
    std::vector<double>* out) const {
  if (batch_probability_) {
    batch_probability_(std::span<const Update>(group.updates), out);
    return;
  }
  out->clear();
  out->reserve(group.updates.size());
  for (const Update& update : group.updates) {
    out->push_back(confirm_probability(update));
  }
}

double VoiRanker::ScoreGroup(
    const UpdateGroup& group,
    const ConfirmProbabilityFn& confirm_probability) const {
  Scratch scratch(index_);
  std::vector<double> probabilities;
  FillProbabilities(group, confirm_probability, &probabilities);
  const double score = ScoreGroupTerms(group, probabilities, &scratch);
  perf_.MergeFrom(scratch.perf);
  return score;
}

VoiRanker::Ranking VoiRanker::Rank(
    const std::vector<UpdateGroup>& groups,
    const ConfirmProbabilityFn& confirm_probability) const {
  Ranking ranking;
  ranking.scores.assign(groups.size(), 0.0);

  // One scratch and one probability buffer for the whole pass.
  Scratch scratch(index_);
  std::vector<double> probabilities;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    FillProbabilities(groups[i], confirm_probability, &probabilities);
    ranking.scores[i] = ScoreGroupTerms(groups[i], probabilities, &scratch);
  }
  perf_.MergeFrom(scratch.perf);

  ranking.order.resize(groups.size());
  std::iota(ranking.order.begin(), ranking.order.end(), 0);
  std::stable_sort(ranking.order.begin(), ranking.order.end(),
                   [&ranking](std::size_t a, std::size_t b) {
                     return ranking.scores[a] > ranking.scores[b];
                   });
  return ranking;
}

}  // namespace gdr
