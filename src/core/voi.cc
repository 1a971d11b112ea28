#include "core/voi.h"

#include <algorithm>
#include <cstring>
#include <numeric>

namespace gdr {

namespace {

// One rule's term of Eq. 6's inner sum. The probe and the reuse path both
// go through it, so a reused benefit rounds exactly like a fresh one.
double Term(double weight, std::int64_t adjustment, std::int64_t satisfying) {
  return weight * static_cast<double>(-adjustment) /
         static_cast<double>(satisfying);
}

std::uint32_t Word(std::int32_t value) {
  return static_cast<std::uint32_t>(value);
}

std::int32_t Int(std::uint32_t word) { return static_cast<std::int32_t>(word); }

// A cached term is two words, [rule, adjustment << 16 | d_sat & 0xFFFF],
// or, when either integer needs more than 16 bits, three: [rule |
// kWideTerm, adjustment, d_sat]. Returns false when an integer needs more
// than 32 bits (such a probe is not cached).
constexpr std::uint32_t kWideTerm = 0x80000000u;

template <typename T>
bool Fits(std::int64_t value) {
  return value == static_cast<T>(value);
}

bool PutTerm(RuleId rule, std::int64_t adjustment, std::int64_t d_sat,
             std::vector<std::uint32_t>* words) {
  if (Fits<std::int16_t>(adjustment) && Fits<std::int16_t>(d_sat)) {
    words->push_back(Word(rule));
    words->push_back(
        static_cast<std::uint32_t>(static_cast<std::uint16_t>(adjustment))
            << 16 |
        static_cast<std::uint16_t>(d_sat));
    return true;
  }
  words->push_back(Word(rule) | kWideTerm);
  words->push_back(Word(static_cast<std::int32_t>(adjustment)));
  words->push_back(Word(static_cast<std::int32_t>(d_sat)));
  return Fits<std::int32_t>(adjustment) && Fits<std::int32_t>(d_sat);
}

struct CachedTerm {
  RuleId rule;
  std::int64_t adjustment;
  std::int64_t d_sat;
};

// Decodes the term at `words` and advances past it.
CachedTerm TakeTerm(const std::uint32_t** words) {
  const std::uint32_t* w = *words;
  if ((w[0] & kWideTerm) == 0) {
    *words += 2;
    return {Int(w[0]), static_cast<std::int16_t>(w[1] >> 16),
            static_cast<std::int16_t>(w[1] & 0xFFFFu)};
  }
  *words += 3;
  return {Int(w[0] & ~kWideTerm), Int(w[1]), Int(w[2])};
}

}  // namespace

std::uint32_t* VoiRanker::WordQueue::Append(std::size_t n, bool fresh_chunk) {
  if (!fresh_chunk && tail_ != nullptr && tail_->used + n <= kChunkWords) {
    std::uint32_t* words = tail_->words + tail_->used;
    tail_->used += n;
    return words;
  }
  std::unique_ptr<Chunk> chunk;
  if (free_ != nullptr) {
    chunk = std::move(free_);
    free_ = std::move(chunk->next);
  } else {
    chunk.reset(new Chunk);  // words left uninitialized
  }
  chunk->used = n;
  Chunk* added = chunk.get();
  if (tail_ == nullptr) {
    head_ = std::move(chunk);
    read_ = 0;
  } else {
    tail_->next = std::move(chunk);
  }
  tail_ = added;
  // The head may have been read to its end while it was the tail.
  if (read_ == head_->used && head_.get() != tail_) PopFront(0);
  return added->words;
}

void VoiRanker::WordQueue::PopFront(std::size_t n) {
  read_ += n;
  // Recycle the head as soon as it is read to its end, unless the writer
  // may still append to it.
  if (read_ == head_->used && head_.get() != tail_) {
    std::unique_ptr<Chunk> done = std::move(head_);
    head_ = std::move(done->next);
    read_ = 0;
    done->next = std::move(free_);
    free_ = std::move(done);
  }
}

VoiRanker::VoiRanker(const ViolationIndex* index,
                     const std::vector<double>* weights)
    : index_(index), weights_(weights), batch_(index) {
  const RuleSet& rules = index_->rules();
  const std::size_t num_attrs = index_->table().num_attrs();
  variable_rules_.resize(num_attrs);
  key_reads_.assign(num_attrs, 0);
  for (std::size_t a = 0; a < num_attrs; ++a) {
    const AttrId attr = static_cast<AttrId>(a);
    for (const RuleId rule : rules.RulesMentioning(attr)) {
      const Cfd& cfd = rules.rule(rule);
      if (cfd.IsConstant()) continue;
      const bool key_moves =
          std::any_of(cfd.lhs().begin(), cfd.lhs().end(),
                      [attr](const PatternCell& cell) {
                        return cell.attr == attr;
                      });
      variable_rules_[a].push_back({rule, key_moves});
      if (key_moves) ++key_reads_[a];
    }
  }
}

double VoiRanker::UpdateBenefit(const Update& update) const {
  HypotheticalBatch batch(index_);
  return UpdateBenefit(update, &batch);
}

double VoiRanker::UpdateBenefit(const Update& update,
                                HypotheticalBatch* batch) const {
  return ProbeBenefit(update, batch, nullptr);
}

double VoiRanker::ProbeBenefit(const Update& update, HypotheticalBatch* batch,
                               std::vector<std::uint32_t>* entry) const {
  const std::vector<VariableRule>* variable = nullptr;
  if (entry != nullptr) {
    const std::size_t attr = static_cast<std::size_t>(update.attr);
    variable = &variable_rules_[attr];
    // [row, #term words, one key group per key-moving variable rule,
    // then the terms]; see Rank.
    entry->assign(2 + key_reads_[attr], Word(kNoGroup));
    (*entry)[0] = Word(update.row);
    (*entry)[1] = 0;
  }
  // Within one group every update shares (attr, value), so this Stage is
  // a cheap no-op after the group's first update: staging is paid once
  // per group, not per update.
  batch->Stage(update.attr, update.value);
  // A write of a cell's own value changes nothing: zero benefit, and an
  // entry without terms (the row stamp covers the no-op test).
  if (batch->num_affected() == 0 || batch->IsNoOp(update.row)) return 0.0;

  // Terms over the dispatched affected rules, in ascending k. drop =
  // vio(D) − vio(D^rj) = −adjustment. A zero adjustment would contribute
  // exactly +0.0, so skipping it — and every affected rule the index does
  // not dispatch, a constant rule with the row outside its context before
  // and after the write — leaves the sum bit-identical to the sum over all
  // affected rules.
  std::size_t next_variable = 0;
  std::size_t next_key = 2;
  bool fits = true;
  double benefit = 0.0;
  index_->ForEachCandidateRule(
      update.row, update.attr, update.value, [&](RuleId rule) {
        const std::int32_t k = index_->AffectedSlot(update.attr, rule);
        if (k < 0) return;
        const HypotheticalBatch::Effect effect =
            batch->Probe(static_cast<std::size_t>(k), update.row);
        if (entry != nullptr) {
          // Every variable rule mentioning attr is dispatched, in the
          // same ascending order as `variable`.
          if (next_variable < variable->size() &&
              (*variable)[next_variable].rule == rule) {
            if ((*variable)[next_variable].key_moves) {
              (*entry)[next_key++] = Word(effect.key_group);
            }
            ++next_variable;
          }
          if (effect.adjustment != 0) {
            const std::size_t before = entry->size();
            fits = PutTerm(rule, effect.adjustment, effect.d_sat, entry) &&
                   fits;
            (*entry)[1] += static_cast<std::uint32_t>(entry->size() - before);
          }
        }
        if (effect.adjustment == 0) return;
        if (effect.satisfying <= 0) return;  // no denominator: fully violated
        benefit += Term((*weights_)[static_cast<std::size_t>(rule)],
                        effect.adjustment, effect.satisfying);
      });
  if (entry != nullptr && !fits) entry->clear();
  return benefit;
}

VoiRanker::Ranking VoiRanker::Rank(
    const std::vector<UpdateGroup>& groups,
    const ConfirmProbabilityBatchFn& confirm_probabilities) const {
  Ranking ranking;
  ranking.scores.assign(groups.size(), 0.0);

  // cache_ holds the last pass's probes in its visiting order: per group
  // a header [attr, value, #entries], then per update an entry [row,
  // #term words, key groups, terms] (ProbeBenefit). This pass reads them off
  // the front in step with `groups` — GroupUpdates' (attr, value, row)
  // order — and appends its own behind them.
  const auto entry_words = [this](std::size_t attr, const std::uint32_t* e) {
    return 2 + key_reads_[attr] + static_cast<std::size_t>(e[1]);
  };
  const std::size_t old_groups = cached_groups_;
  std::size_t read_groups = 0;
  const auto pop_group = [&] {
    const std::uint32_t* header = cache_.Front();
    const std::size_t attr = header[0];
    std::uint32_t entries = header[2];
    cache_.PopFront(3);
    for (; entries > 0; --entries) {
      cache_.PopFront(entry_words(attr, cache_.Front()));
    }
    ++read_groups;
  };
  // True when nothing the cached probe `e` of a write into `attr` read has
  // moved since the last pass: the row, its group under every variable
  // rule mentioning attr, and the hypothetical keys' groups.
  const auto still_valid = [this](std::size_t attr, const std::uint32_t* e) {
    const RowId row = Int(e[0]);
    if (index_->RowStamp(row) > cache_version_) return false;
    const std::uint32_t* key = e + 2;
    for (const VariableRule& variable : variable_rules_[attr]) {
      const GroupId own = index_->GroupIdOf(row, variable.rule);
      if (own != kNoGroup &&
          index_->GroupStamp(variable.rule, own) > cache_version_) {
        return false;
      }
      if (!variable.key_moves) continue;
      const GroupId read = Int(*key++);
      if (read != kNoGroup &&
          index_->GroupStamp(variable.rule, read) > cache_version_) {
        return false;
      }
    }
    return true;
  };

  PerfCounters perf;
  std::uint64_t reprobes = 0;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const UpdateGroup& group = groups[i];
    const std::size_t attr = static_cast<std::size_t>(group.attr);
    confirm_probabilities(std::span<const Update>(group.updates),
                          &probabilities_);
    const std::size_t n = group.updates.size();
    ScopedPhaseTimer timer(&perf, PerfPhase::kVoiProbe, n);

    // Drop the cached groups ordered before this one; `remaining` counts
    // the cached entries of this group's (attr, value), if any.
    std::uint32_t remaining = 0;
    while (read_groups < old_groups) {
      const std::uint32_t* header = cache_.Front();
      const AttrId cached_attr = Int(header[0]);
      const ValueId cached_value = Int(header[1]);
      if (cached_attr == group.attr && cached_value == group.value) {
        remaining = header[2];
        cache_.PopFront(3);
        ++read_groups;
        break;
      }
      if (cached_attr > group.attr ||
          (cached_attr == group.attr && cached_value > group.value)) {
        break;
      }
      pop_group();
    }
    std::uint32_t* header = cache_.Append(3, /*fresh_chunk=*/i == 0);
    header[0] = Word(group.attr);
    header[1] = Word(group.value);
    header[2] = 0;

    // Terms in update order, probability times benefit.
    double score = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const Update& update = group.updates[j];
      // Only updates carrying their group's (attr, value) are cached.
      const bool keyed = update.attr == group.attr &&
                         update.value == group.value &&
                         attr < variable_rules_.size();
      while (keyed && remaining > 0 && Int(cache_.Front()[0]) < update.row) {
        cache_.PopFront(entry_words(attr, cache_.Front()));
        --remaining;
      }
      double benefit = 0.0;
      const std::uint32_t* cached = nullptr;
      if (keyed && remaining > 0 && Int(cache_.Front()[0]) == update.row) {
        cached = cache_.Front();
        --remaining;
      }
      const std::size_t words =
          cached != nullptr ? entry_words(attr, cached) : 0;
      if (cached != nullptr && still_valid(attr, cached)) {
        const std::uint32_t* next = cached + 2 + key_reads_[attr];
        const std::uint32_t* end = next + cached[1];
        while (next < end) {
          const CachedTerm term = TakeTerm(&next);
          const std::int64_t satisfying =
              index_->SatisfyingCount(term.rule) + term.d_sat;
          if (satisfying <= 0) continue;
          benefit += Term((*weights_)[static_cast<std::size_t>(term.rule)],
                          term.adjustment, satisfying);
        }
        std::memcpy(cache_.Append(words), cached,
                    words * sizeof(std::uint32_t));
        ++header[2];
      } else {
        benefit = ProbeBenefit(update, &batch_, keyed ? &entry_ : nullptr);
        ++reprobes;
        if (keyed && !entry_.empty() &&
            entry_.size() <= WordQueue::kChunkWords) {
          std::memcpy(cache_.Append(entry_.size()), entry_.data(),
                      entry_.size() * sizeof(std::uint32_t));
          ++header[2];
        }
      }
      if (cached != nullptr) cache_.PopFront(words);
      score += probabilities_[j] * benefit;
    }
    for (; remaining > 0; --remaining) {
      cache_.PopFront(entry_words(attr, cache_.Front()));
    }
    ranking.scores[i] = score;
  }
  while (read_groups < old_groups) pop_group();
  cached_groups_ = groups.size();
  cache_version_ = index_->version();
  perf.Add(PerfPhase::kVoiReprobe, 0, reprobes);
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
