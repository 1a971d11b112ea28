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

// A cached p̃ block: [p̃ (two words), the update's score (two words),
// ValueCount of the current value, ValueCount of the suggested value].
constexpr std::size_t kConfirmWords = 6;

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
  for (const RuleId rule : rules.AllRuleIds()) {
    if (!rules.rule(rule).IsConstant()) all_variable_rules_.push_back(rule);
  }
}

double VoiRanker::UpdateBenefit(const Update& update) const {
  HypotheticalBatch batch(index_);
  return UpdateBenefit(update, &batch);
}

double VoiRanker::UpdateBenefit(const Update& update,
                                HypotheticalBatch* batch) const {
  return ProbeBenefit(update, batch, nullptr, 0);
}

double VoiRanker::ProbeBenefit(const Update& update, HypotheticalBatch* batch,
                               std::vector<std::uint32_t>* entry,
                               std::size_t p_words) const {
  const std::vector<VariableRule>* variable = nullptr;
  if (entry != nullptr) {
    const std::size_t attr = static_cast<std::size_t>(update.attr);
    variable = &variable_rules_[attr];
    // [row, #term words, one key group per key-moving variable rule, a
    // p̃ block of all ones, then the terms]; see Rank.
    entry->assign(2 + key_reads_[attr] + p_words, Word(kNoGroup));
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

VoiRanker::Ranking VoiRanker::Rank(const std::vector<UpdateGroup>& groups,
                                   const LearnerBank& bank) const {
  return Rank(groups, &bank, nullptr);
}

VoiRanker::Ranking VoiRanker::Rank(
    const std::vector<UpdateGroup>& groups,
    const ConfirmProbabilityFn& confirm_probability) const {
  return Rank(groups, nullptr, &confirm_probability);
}

VoiRanker::Ranking VoiRanker::Rank(
    const std::vector<UpdateGroup>& groups, const LearnerBank* bank,
    const ConfirmProbabilityFn* confirm_probability) const {
  Ranking ranking;
  ranking.scores.assign(groups.size(), 0.0);
  const Table& table = index_->table();

  // cache_ holds the last pass's probes in its visiting order: per group
  // a header [attr, value, #entries, forest generation], then per update
  // an entry [row, #term words, key groups, p̃ block (when the generation
  // is not 0), terms] (ProbeBenefit). This pass reads them off the front
  // in step with `groups` — GroupUpdates' (attr, value, row) order — and
  // appends its own behind them.
  const auto entry_words = [this](std::size_t attr, std::uint32_t generation,
                                  const std::uint32_t* e) {
    return 2 + key_reads_[attr] + (generation != 0 ? kConfirmWords : 0) +
           static_cast<std::size_t>(e[1]);
  };
  const std::size_t old_groups = cached_groups_;
  std::size_t read_groups = 0;
  const auto pop_group = [&] {
    const std::uint32_t* header = cache_.Front();
    const std::size_t attr = header[0];
    const std::uint32_t generation = header[3];
    std::uint32_t entries = header[2];
    cache_.PopFront(4);
    for (; entries > 0; --entries) {
      cache_.PopFront(entry_words(attr, generation, cache_.Front()));
    }
    ++read_groups;
  };
  // True when variable rule `rule`'s group slot `group` moved since the
  // last pass.
  const auto moved = [this](RuleId rule, GroupId group) {
    return group != kNoGroup &&
           index_->GroupStamp(rule, group) > cache_version_;
  };
  // True when nothing the cached probe `e` of a write into `attr` read has
  // moved since the last pass: the row, its group under every variable
  // rule mentioning attr, and the hypothetical keys' groups.
  const auto still_valid = [&](std::size_t attr, const std::uint32_t* e) {
    const RowId row = Int(e[0]);
    if (index_->RowStamp(row) > cache_version_) return false;
    const std::uint32_t* key = e + 2;
    for (const VariableRule& variable : variable_rules_[attr]) {
      if (moved(variable.rule, index_->GroupIdOf(row, variable.rule)) ||
          (variable.key_moves && moved(variable.rule, Int(*key++)))) {
        return false;
      }
    }
    return true;
  };
  // For the p̃ block `p` of a still valid entry: true when the rest of what
  // the encoder reads for `update` is unchanged too — the score, the two
  // value counts and the row's group under every variable rule (those not
  // mentioning the attribute are the new ones).
  const auto confirm_valid = [&](const Update& update, const std::uint32_t* p) {
    if (std::memcmp(p + 2, &update.score, sizeof(double)) != 0 ||
        table.ValueCount(update.attr, table.id_at(update.row, update.attr)) !=
            p[4] ||
        table.ValueCount(update.attr, update.value) != p[5]) {
      return false;
    }
    for (const RuleId rule : all_variable_rules_) {
      if (moved(rule, index_->GroupIdOf(update.row, rule))) return false;
    }
    return true;
  };

  PerfCounters perf;
  std::uint64_t reprobes = 0;
  std::uint64_t reuses = 0;
  probabilities_.clear();
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const UpdateGroup& group = groups[i];
    const std::size_t attr = static_cast<std::size_t>(group.attr);
    const bool known_attr = attr < variable_rules_.size();
    // p̃ is cached under the attribute's forest generation; 0 keeps none.
    const std::uint32_t generation = static_cast<std::uint32_t>(
        bank != nullptr && known_attr ? bank->TrainedOn(group.attr) : 0);
    const std::size_t p_words = generation != 0 ? kConfirmWords : 0;
    const std::size_t n = group.updates.size();
    benefits_.resize(n);
    if (p_words != 0) p_blocks_.assign(n, nullptr);  // where entries keep p̃
    // Drop the cached groups ordered before this one; `remaining` counts
    // the cached entries of this group's (attr, value), if any.
    std::uint32_t remaining = 0;
    std::uint32_t cached_generation = 0;
    {
      ScopedPhaseTimer timer(&perf, PerfPhase::kVoiProbe, n);
      while (read_groups < old_groups) {
        const std::uint32_t* header = cache_.Front();
        const AttrId cached_attr = Int(header[0]);
        const ValueId cached_value = Int(header[1]);
        if (cached_attr == group.attr && cached_value == group.value) {
          remaining = header[2];
          cached_generation = header[3];
          cache_.PopFront(4);
          ++read_groups;
          break;
        }
        if (cached_attr > group.attr ||
            (cached_attr == group.attr && cached_value > group.value)) {
          break;
        }
        pop_group();
      }
      std::uint32_t* header = cache_.Append(4, /*fresh_chunk=*/i == 0);
      header[0] = Word(group.attr);
      header[1] = Word(group.value);
      header[2] = 0;
      header[3] = generation;
      // An entry cached with a p̃ block only when this pass keeps one is
      // re-probed, so every entry this pass keeps is a copy of one layout.
      const bool same_layout = (cached_generation != 0) == (p_words != 0);

      for (std::size_t j = 0; j < n; ++j) {
        const Update& update = group.updates[j];
        // Only updates carrying their group's (attr, value) are cached.
        const bool keyed = update.attr == group.attr &&
                           update.value == group.value && known_attr;
        while (keyed && remaining > 0 && Int(cache_.Front()[0]) < update.row) {
          cache_.PopFront(entry_words(attr, cached_generation, cache_.Front()));
          --remaining;
        }
        double benefit = 0.0;
        const std::uint32_t* cached = nullptr;
        if (keyed && remaining > 0 && Int(cache_.Front()[0]) == update.row) {
          cached = cache_.Front();
          --remaining;
        }
        const std::uint32_t* source = nullptr;  // the entry to keep
        if (cached != nullptr && same_layout && still_valid(attr, cached)) {
          source = cached;
          const std::uint32_t* next = cached + 2 + key_reads_[attr] + p_words;
          const std::uint32_t* end = next + cached[1];
          while (next < end) {
            const CachedTerm term = TakeTerm(&next);
            const std::int64_t satisfying =
                index_->SatisfyingCount(term.rule) + term.d_sat;
            if (satisfying <= 0) continue;
            benefit += Term((*weights_)[static_cast<std::size_t>(term.rule)],
                            term.adjustment, satisfying);
          }
        } else {
          benefit = ProbeBenefit(update, &batch_, keyed ? &entry_ : nullptr,
                                 p_words);
          ++reprobes;
          if (keyed && !entry_.empty()) source = entry_.data();
        }
        const std::size_t words =
            source != nullptr ? entry_words(attr, generation, source) : 0;
        if (source != nullptr && words <= WordQueue::kChunkWords) {
          std::uint32_t* entry = cache_.Append(words);
          std::memcpy(entry, source, words * sizeof(std::uint32_t));
          ++header[2];
          if (p_words != 0) p_blocks_[j] = entry + 2 + key_reads_[attr];
        }
        if (cached != nullptr) {
          cache_.PopFront(entry_words(attr, cached_generation, cached));
        }
        benefits_[j] = benefit;
      }
      for (; remaining > 0; --remaining) {
        cache_.PopFront(entry_words(attr, cached_generation, cache_.Front()));
      }
    }

    // p̃. With p̃ blocks, each update takes its cached p̃ where nothing else
    // the encoder reads has moved (a re-probed entry's all-ones block never
    // matches); the others, and every update of a group without blocks,
    // are evaluated together, and their blocks filled in.
    const std::size_t first = probabilities_.size();
    std::span<const Update> updates(group.updates);
    if (p_words != 0) {
      probabilities_.resize(first + n);
      misses_.clear();
      miss_updates_.clear();
      for (std::size_t j = 0; j < n; ++j) {
        if (p_blocks_[j] != nullptr && cached_generation == generation &&
            confirm_valid(group.updates[j], p_blocks_[j])) {
          std::memcpy(&probabilities_[first + j], p_blocks_[j],
                      sizeof(double));
          ++reuses;
        } else {
          misses_.push_back(j);
          miss_updates_.push_back(group.updates[j]);
        }
      }
      updates = miss_updates_;
    }
    if (bank != nullptr) {
      bank->ConfirmProbabilities(updates, &miss_probabilities_);
    } else {
      miss_probabilities_.clear();
      for (const Update& update : updates) {
        miss_probabilities_.push_back((*confirm_probability)(update));
      }
    }
    if (p_words == 0) {
      probabilities_.insert(probabilities_.end(), miss_probabilities_.begin(),
                            miss_probabilities_.end());
    }
    double* const p_group = probabilities_.data() + first;
    for (std::size_t k = 0; p_words != 0 && k < updates.size(); ++k) {
      const Update& update = updates[k];
      p_group[misses_[k]] = miss_probabilities_[k];
      if (std::uint32_t* p = p_blocks_[misses_[k]]) {
        std::memcpy(p, &miss_probabilities_[k], sizeof(double));
        std::memcpy(p + 2, &update.score, sizeof(double));
        p[4] = static_cast<std::uint32_t>(table.ValueCount(
            update.attr, table.id_at(update.row, update.attr)));
        p[5] = static_cast<std::uint32_t>(
            table.ValueCount(update.attr, update.value));
      }
    }
    // Terms in update order, probability times benefit.
    double score = 0.0;
    for (std::size_t j = 0; j < n; ++j) score += p_group[j] * benefits_[j];
    ranking.scores[i] = score;
  }
  while (read_groups < old_groups) pop_group();
  cached_groups_ = groups.size();
  cache_version_ = index_->version();
  perf.Add(PerfPhase::kVoiReprobe, 0, reprobes);
  perf.Add(PerfPhase::kLearnerReuse, 0, reuses);
  perf_.MergeFrom(perf);

  ranking.order.resize(groups.size());
  std::iota(ranking.order.begin(), ranking.order.end(), 0);
  std::stable_sort(ranking.order.begin(), ranking.order.end(),
                   [&ranking](std::size_t a, std::size_t b) {
                     return ranking.scores[a] > ranking.scores[b];
                   });
  return ranking;
}

}  // namespace gdr
