// Microbenchmarks (google-benchmark) for the substrates GDR is built on:
// violation-index construction and incremental maintenance, hypothetical
// evaluation, update generation, VOI scoring, and the ML stack. Not a
// paper artifact — engineering instrumentation for this implementation.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/gdr.h"
#include "core/grouping.h"
#include "core/learner_bank.h"
#include "core/quality.h"
#include "core/session.h"
#include "core/voi.h"
#include "ml/random_forest.h"
#include "repair/consistency_manager.h"
#include "repair/update_generator.h"
#include "sim/oracle.h"
#include "sim/stream_gen.h"
#include "util/flat_table.h"
#include "util/rng.h"
#include "util/string_similarity.h"
#include "workload/registry.h"

namespace gdr {
namespace {

// Overridable via --workload=name:key=val,... (stripped from argv before
// google-benchmark sees it); every fixture shares one resolved dataset.
std::string& WorkloadSpecText() {
  static std::string spec = "dataset1:records=10000,seed=7";
  return spec;
}

const Dataset& SharedDataset() {
  static Dataset* dataset = []() {
    auto resolved =
        WorkloadRegistry::Global().Resolve(WorkloadSpecText());
    if (!resolved.ok()) {
      std::fprintf(stderr, "workload '%s': %s\n", WorkloadSpecText().c_str(),
                   resolved.status().ToString().c_str());
      std::exit(1);
    }
    return new Dataset(*resolved);
  }();
  return *dataset;
}

void BM_ViolationIndexBuild(benchmark::State& state) {
  const Dataset& dataset = SharedDataset();
  for (auto _ : state) {
    Table table = dataset.dirty;
    ViolationIndex index(&table, &dataset.rules);
    benchmark::DoNotOptimize(index.TotalViolations());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(dataset.dirty.num_rows()));
}
BENCHMARK(BM_ViolationIndexBuild)->Unit(benchmark::kMillisecond);

// Streaming ingestion head-to-head, per batch size (Arg = rows appended):
// BM_IndexAppendRow grows a ~10k-row base index incrementally by one batch
// of generated rows; BM_IndexRebuild constructs a from-scratch index over
// the equivalent final table. At small batches the incremental path should
// win by orders of magnitude; the crossover batch size is the number to
// watch across commits.
constexpr std::uint64_t kStreamBenchBase = 10'000;

StreamGenOptions StreamBenchOptions() {
  StreamGenOptions options;
  options.records = kStreamBenchBase;
  options.cities = 500;
  options.seed = 29;
  return options;
}

// Base table plus `extra` generated rows past the base, as strings.
std::vector<std::vector<std::string>> StreamBenchRows(std::uint64_t first,
                                                      std::uint64_t count) {
  const StreamGenOptions options = StreamBenchOptions();
  std::vector<std::vector<std::string>> rows(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    StreamGenRow(options, first + i, &rows[i]);
  }
  return rows;
}

void BM_IndexAppendRow(benchmark::State& state) {
  const StreamGenOptions options = StreamBenchOptions();
  auto rules_or = StreamGenRules(options);
  if (!rules_or.ok()) {
    state.SkipWithError("stream rules failed");
    return;
  }
  const RuleSet rules = *std::move(rules_or);
  const std::vector<std::vector<std::string>> base =
      StreamBenchRows(0, kStreamBenchBase);
  const std::vector<std::vector<std::string>> batch = StreamBenchRows(
      kStreamBenchBase, static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();  // rebuild the pre-append state outside the clock
    Table table(rules.schema());
    ViolationIndex index(&table, &rules);
    if (!index.AppendRows(base).ok()) {
      state.SkipWithError("base append failed");
      return;
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(index.AppendRows(batch).ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IndexAppendRow)->Arg(64)->Arg(512)->Arg(4096);

void BM_IndexRebuild(benchmark::State& state) {
  const StreamGenOptions options = StreamBenchOptions();
  auto rules_or = StreamGenRules(options);
  if (!rules_or.ok()) {
    state.SkipWithError("stream rules failed");
    return;
  }
  const RuleSet rules = *std::move(rules_or);
  Table final_table(rules.schema());
  for (const auto& row : StreamBenchRows(
           0, kStreamBenchBase + static_cast<std::uint64_t>(state.range(0)))) {
    if (!final_table.AppendRow(row).ok()) {
      state.SkipWithError("table append failed");
      return;
    }
  }
  for (auto _ : state) {
    Table table = final_table;
    ViolationIndex index(&table, &rules);
    benchmark::DoNotOptimize(index.TotalViolations());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IndexRebuild)->Arg(64)->Arg(512)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_ApplyCellChange(benchmark::State& state) {
  const Dataset& dataset = SharedDataset();
  Table table = dataset.dirty;
  ViolationIndex index(&table, &dataset.rules);
  AttrId zip = table.schema().FindAttr("Zip");
  if (zip == kInvalidAttrId) zip = 0;  // generic workloads: any attr works
  Rng rng(3);
  for (auto _ : state) {
    const RowId row = static_cast<RowId>(rng.NextBounded(table.num_rows()));
    const ValueId value =
        static_cast<ValueId>(rng.NextBounded(table.DomainSize(zip)));
    const ValueId old = index.ApplyCellChange(row, zip, value);
    index.ApplyCellChange(row, zip, old);  // restore
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_ApplyCellChange);

// First variable rule of the workload's rule set (the flattened group
// paths only exist for variable rules); kInvalidRuleId when none.
RuleId FirstVariableRule(const RuleSet& rules) {
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (rules.rule(static_cast<RuleId>(i)).IsVariable()) {
      return static_cast<RuleId>(i);
    }
  }
  return kInvalidRuleId;
}

void BM_GroupMembers(benchmark::State& state) {
  const Dataset& dataset = SharedDataset();
  Table table = dataset.dirty;
  ViolationIndex index(&table, &dataset.rules);
  const RuleId rule = FirstVariableRule(dataset.rules);
  if (rule == kInvalidRuleId) {
    state.SkipWithError("workload has no variable rule");
    return;
  }
  Rng rng(17);
  for (auto _ : state) {
    const RowId row = static_cast<RowId>(rng.NextBounded(table.num_rows()));
    benchmark::DoNotOptimize(index.GroupMembers(row, rule));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GroupMembers);

void BM_ViolationPartners(benchmark::State& state) {
  const Dataset& dataset = SharedDataset();
  Table table = dataset.dirty;
  ViolationIndex index(&table, &dataset.rules);
  const RuleId rule = FirstVariableRule(dataset.rules);
  if (rule == kInvalidRuleId) {
    state.SkipWithError("workload has no variable rule");
    return;
  }
  const std::vector<RowId> dirty = index.DirtyRows();
  if (dirty.empty()) {
    state.SkipWithError("workload has no dirty rows");
    return;
  }
  std::size_t cursor = 0;
  for (auto _ : state) {
    const RowId row = dirty[cursor++ % dirty.size()];
    benchmark::DoNotOptimize(index.ViolationPartners(row, rule));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ViolationPartners);

void BM_GroupRhsValueCount(benchmark::State& state) {
  const Dataset& dataset = SharedDataset();
  Table table = dataset.dirty;
  ViolationIndex index(&table, &dataset.rules);
  const RuleId rule = FirstVariableRule(dataset.rules);
  if (rule == kInvalidRuleId) {
    state.SkipWithError("workload has no variable rule");
    return;
  }
  const AttrId rhs = dataset.rules.rule(rule).rhs().attr;
  Rng rng(19);
  for (auto _ : state) {
    const RowId row = static_cast<RowId>(rng.NextBounded(table.num_rows()));
    const ValueId value =
        static_cast<ValueId>(rng.NextBounded(table.DomainSize(rhs)));
    benchmark::DoNotOptimize(index.GroupRhsValueCount(row, rule, value));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GroupRhsValueCount);

void BM_UpdateGeneration(benchmark::State& state) {
  const Dataset& dataset = SharedDataset();
  Table table = dataset.dirty;
  ViolationIndex index(&table, &dataset.rules);
  RepairState repair_state;
  UpdateGenerator generator(&index, &table, &repair_state);
  const std::vector<RowId> dirty = index.DirtyRows();
  std::size_t cursor = 0;
  for (auto _ : state) {
    const RowId row = dirty[cursor++ % dirty.size()];
    for (std::size_t a = 0; a < table.num_attrs(); ++a) {
      benchmark::DoNotOptimize(
          generator.UpdateAttributeTuple(row, static_cast<AttrId>(a)));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(table.num_attrs()));
}
BENCHMARK(BM_UpdateGeneration);

// The feedback cascade's shape at paper scale: one effective cell change
// on a scenario-3 projection's key attribute, then regeneration of a
// scenario-3 cell. The change toggles another row into and out of the
// regenerated cell's bucket, so every iteration touches that bucket.
void BM_RegenerateAfterChange(benchmark::State& state) {
  static const Dataset* dataset = []() {
    auto resolved =
        WorkloadRegistry::Global().Resolve("dataset1:records=20000,seed=11");
    if (!resolved.ok()) {
      std::fprintf(stderr, "dataset1: %s\n",
                   resolved.status().ToString().c_str());
      std::exit(1);
    }
    return new Dataset(*resolved);
  }();
  Table table = dataset->dirty;
  ViolationIndex index(&table, &dataset->rules);
  RepairState repair_state;
  UpdateGenerator generator(&index, &table, &repair_state);

  // First dirty cell (t, B) with B in the LHS of a rule t violates; the
  // rule's RHS attribute is then a key attribute of that projection.
  RowId row = 0;
  AttrId attr = kInvalidAttrId;
  AttrId key_attr = kInvalidAttrId;
  for (RowId r : index.DirtyRows()) {
    for (RuleId rid : index.ViolatedRules(r)) {
      const Cfd& rule = dataset->rules.rule(rid);
      if (rule.lhs().empty()) continue;
      row = r;
      attr = rule.lhs().front().attr;
      key_attr = rule.rhs().attr;
      break;
    }
    if (attr != kInvalidAttrId) break;
  }
  if (attr == kInvalidAttrId) {
    state.SkipWithError("workload has no scenario-3 cell");
    return;
  }
  const RowId other =
      static_cast<RowId>((static_cast<std::size_t>(row) + 1) %
                         table.num_rows());
  const ValueId joined = table.id_at(row, key_attr);
  ValueId left = table.id_at(other, key_attr);
  if (left == joined) left = table.InternValue(key_attr, "bench-elsewhere");
  bool in_bucket = false;
  for (auto _ : state) {
    in_bucket = !in_bucket;
    index.ApplyCellChange(other, key_attr, in_bucket ? joined : left);
    benchmark::DoNotOptimize(generator.UpdateAttributeTuple(row, attr));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegenerateAfterChange);

// The key → GroupId map substrate, head-to-head: the violation index's
// flat open-addressing table vs the std::unordered_map it replaced, over
// small vector keys with the index's FNV-1a hash. Misses are as common as
// hits on the hypothetical path, so half the probed keys are absent.
using LookupKey = std::vector<ValueId>;

struct LookupKeyHash {
  std::size_t operator()(const LookupKey& key) const {
    std::uint64_t h = 1469598103934665603ULL;
    for (ValueId id : key) {
      h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(id));
      h *= 1099511628211ULL;
    }
    return static_cast<std::size_t>(h);
  }
};

constexpr std::size_t kLookupTableSize = 4096;

std::vector<LookupKey> LookupBenchKeys() {
  // 2x the table size: the second half never gets inserted (misses).
  Rng rng(31);
  std::vector<LookupKey> keys(2 * kLookupTableSize);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = {static_cast<ValueId>(rng.NextBounded(1 << 16)),
               static_cast<ValueId>(rng.NextBounded(1 << 16)),
               static_cast<ValueId>(i)};  // distinct by construction
  }
  return keys;
}

void BM_FlatTableLookup(benchmark::State& state) {
  const std::vector<LookupKey> keys = LookupBenchKeys();
  FlatTable<LookupKey, std::uint32_t, LookupKeyHash> table;
  for (std::size_t i = 0; i < kLookupTableSize; ++i) {
    table.Insert(keys[i], static_cast<std::uint32_t>(i));
  }
  Rng rng(37);
  for (auto _ : state) {
    const LookupKey& key = keys[rng.NextBounded(keys.size())];
    benchmark::DoNotOptimize(table.Find(key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatTableLookup);

void BM_UnorderedMapLookup(benchmark::State& state) {
  const std::vector<LookupKey> keys = LookupBenchKeys();
  std::unordered_map<LookupKey, std::uint32_t, LookupKeyHash> table;
  for (std::size_t i = 0; i < kLookupTableSize; ++i) {
    table.emplace(keys[i], static_cast<std::uint32_t>(i));
  }
  Rng rng(37);
  for (auto _ : state) {
    const LookupKey& key = keys[rng.NextBounded(keys.size())];
    benchmark::DoNotOptimize(table.find(key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UnorderedMapLookup);

void BM_VoiUpdateBenefit(benchmark::State& state) {
  const Dataset& dataset = SharedDataset();
  Table table = dataset.dirty;
  ViolationIndex index(&table, &dataset.rules);
  RepairState repair_state;
  UpdateGenerator generator(&index, &table, &repair_state);
  const std::vector<double> weights = ContextRuleWeights(index);
  VoiRanker ranker(&index, &weights);
  // Collect a few hundred real updates to score.
  std::vector<Update> updates;
  for (RowId row : index.DirtyRows()) {
    for (std::size_t a = 0; a < table.num_attrs() && updates.size() < 512;
         ++a) {
      if (auto u = generator.UpdateAttributeTuple(row, static_cast<AttrId>(a))) {
        updates.push_back(*u);
      }
    }
    if (updates.size() >= 512) break;
  }
  // One reused batch, restaged whenever the next update's (attr, value)
  // differs — the per-call cost without group amortization (the ranking
  // pass below measures that).
  HypotheticalBatch batch(&index);
  std::size_t cursor = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ranker.UpdateBenefit(updates[cursor++ % updates.size()], &batch));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VoiUpdateBenefit);

// One full group-scoring pass over the engine's real round-one candidate
// pool — the ranking-layer view of the hot path BM_VoiUpdateBenefit
// measures per call, with staging amortized over each group.
struct RankFixture {
  explicit RankFixture(const Dataset& dataset)
      : table(dataset.dirty), engine(&table, &dataset.rules) {}
  Table table;
  GdrEngine engine;
  std::vector<UpdateGroup> groups;
  std::int64_t pooled_updates = 0;
};

RankFixture& SharedRankFixture() {
  static RankFixture* fixture = []() {
    auto* f = new RankFixture(SharedDataset());
    if (!f->engine.Initialize().ok()) {
      std::fprintf(stderr, "rank fixture: engine initialize failed\n");
      std::exit(1);
    }
    f->groups = GroupUpdates(f->engine.pool());
    for (const UpdateGroup& group : f->groups) {
      f->pooled_updates += static_cast<std::int64_t>(group.size());
    }
    return f;
  }();
  return *fixture;
}

// A cold pass: a fresh ranker per iteration, so every update is probed
// (a long-lived ranker would reuse the previous iteration's probes).
void BM_ScoreGroupBatched(benchmark::State& state) {
  RankFixture& fixture = SharedRankFixture();
  for (auto _ : state) {
    const VoiRanker ranker(&fixture.engine.index(),
                           &fixture.engine.rule_weights());
    const VoiRanker::Ranking ranking =
        ranker.Rank(fixture.groups, [](const Update& u) { return u.score; });
    benchmark::DoNotOptimize(ranking.order.data());
  }
  state.SetItemsProcessed(state.iterations() * fixture.pooled_updates);
}
BENCHMARK(BM_ScoreGroupBatched)->Unit(benchmark::kMillisecond);

// Incremental re-ranking as a session sees it, on Dataset 1 at 20k rows
// (the nolearn-hospital-20k content; --workload does not apply): the
// top-ranked group's updates are confirmed through the consistency
// manager, as a group session confirms them, the pool is regrouped, and
// the long-lived ranker re-ranks, re-probing only the updates whose reads
// moved. Only the re-rank is timed. When the pool runs dry the instance
// is rebuilt.
struct RerankFixture {
  explicit RerankFixture(const Dataset& source)
      : table(source.dirty),
        index(&table, &source.rules),
        generator(&index, &table, &state),
        manager(&index, &pool, &state, &generator),
        ranker(&index, &weights) {
    manager.Initialize();
    weights = ContextRuleWeights(index);
    groups = GroupUpdates(pool);
    ranking = ranker.Rank(groups, Score);
  }
  static double Score(const Update& update) { return update.score; }

  Table table;
  ViolationIndex index;
  UpdatePool pool;
  RepairState state;
  UpdateGenerator generator;
  ConsistencyManager manager;
  std::vector<double> weights;
  VoiRanker ranker;
  std::vector<UpdateGroup> groups;
  VoiRanker::Ranking ranking;
};

void BM_RerankAfterGroup(benchmark::State& state) {
  static const Dataset* const source = new Dataset(
      *WorkloadRegistry::Global().Resolve("dataset1:records=20000,seed=11"));
  auto fixture = std::make_unique<RerankFixture>(*source);
  std::int64_t reranked = 0;
  for (auto _ : state) {
    state.PauseTiming();
    if (fixture->groups.empty()) {
      fixture = std::make_unique<RerankFixture>(*source);
    }
    const UpdateGroup& top = fixture->groups[fixture->ranking.order.front()];
    for (const Update& update : top.updates) {
      if (fixture->pool.IsLive(update)) {
        fixture->manager.ApplyFeedback(update, Feedback::kConfirm);
      }
    }
    fixture->groups = GroupUpdates(fixture->pool);
    for (const UpdateGroup& group : fixture->groups) {
      reranked += static_cast<std::int64_t>(group.size());
    }
    state.ResumeTiming();
    fixture->ranking = fixture->ranker.Rank(fixture->groups,
                                            RerankFixture::Score);
    benchmark::DoNotOptimize(fixture->ranking.order.data());
  }
  state.SetItemsProcessed(reranked);
}
BENCHMARK(BM_RerankAfterGroup)->Unit(benchmark::kMillisecond);

// A warm re-rank with a trained learner, as a GDR session ranks after one
// labelled round, on the shared dataset: a LearnerBank trained from
// ground-truth answers on up to 1500 pooled updates ranks the pool once.
// Each iteration then labels the top group's first n_s = 5 live updates
// (the answers go to the bank and through the consistency manager),
// retrains that attribute, regroups, and times the long-lived ranker's
// Rank with the bank, which reuses the p̃ of the updates whose encoder
// inputs did not move. When the pool runs dry the instance is rebuilt.
struct LearnerRerankFixture {
  explicit LearnerRerankFixture(const Dataset& source)
      : table(source.dirty),
        index(&table, &source.rules),
        generator(&index, &table, &state),
        manager(&index, &pool, &state, &generator),
        bank(&table, &index),
        ranker(&index, &weights),
        oracle(&source.clean) {
    manager.Initialize();
    weights = ContextRuleWeights(index);
    groups = GroupUpdates(pool);
    constexpr std::size_t kMaxLabels = 1500;
    std::size_t labels = 0;
    for (const UpdateGroup& group : groups) {
      for (const Update& update : group.updates) {
        if (labels == kMaxLabels) break;
        ++labels;
        (void)bank.AddFeedback(update, oracle.GetFeedback(table, update));
      }
      if (labels == kMaxLabels) break;
    }
    for (std::size_t a = 0; a < table.num_attrs(); ++a) {
      (void)bank.Retrain(static_cast<AttrId>(a));
    }
    ranking = ranker.Rank(groups, bank);
  }

  Table table;
  ViolationIndex index;
  UpdatePool pool;
  RepairState state;
  UpdateGenerator generator;
  ConsistencyManager manager;
  std::vector<double> weights;
  LearnerBank bank;
  VoiRanker ranker;
  UserOracle oracle;
  std::vector<UpdateGroup> groups;
  VoiRanker::Ranking ranking;
};

void BM_RerankWithLearner(benchmark::State& state) {
  auto fixture = std::make_unique<LearnerRerankFixture>(SharedDataset());
  constexpr std::size_t kRoundLabels = 5;
  std::int64_t reranked = 0;
  // Updates scored and p̃ values reused by the timed passes: the counters
  // of each fixture's ranker, less its untimed first pass.
  std::int64_t scored = 0;
  std::int64_t reused = 0;
  const auto tally = [&](std::int64_t sign) {
    const PerfCounters& perf = fixture->ranker.perf_counters();
    scored += sign * static_cast<std::int64_t>(perf.Count(PerfPhase::kVoiProbe));
    reused +=
        sign * static_cast<std::int64_t>(perf.Count(PerfPhase::kLearnerReuse));
  };
  tally(-1);
  for (auto _ : state) {
    state.PauseTiming();
    if (fixture->groups.empty()) {
      tally(1);
      fixture = std::make_unique<LearnerRerankFixture>(SharedDataset());
      tally(-1);
    }
    const UpdateGroup top = fixture->groups[fixture->ranking.order.front()];
    std::size_t labelled = 0;
    for (const Update& update : top.updates) {
      if (labelled == kRoundLabels) break;
      if (!fixture->pool.IsLive(update)) continue;
      const Feedback feedback =
          fixture->oracle.GetFeedback(fixture->table, update);
      (void)fixture->bank.AddFeedback(update, feedback);
      fixture->manager.ApplyFeedback(update, feedback);
      ++labelled;
    }
    (void)fixture->bank.Retrain(top.attr);
    fixture->groups = GroupUpdates(fixture->pool);
    for (const UpdateGroup& group : fixture->groups) {
      reranked += static_cast<std::int64_t>(group.size());
    }
    state.ResumeTiming();
    fixture->ranking = fixture->ranker.Rank(fixture->groups, fixture->bank);
    benchmark::DoNotOptimize(fixture->ranking.order.data());
  }
  tally(1);
  state.SetItemsProcessed(reranked);
  state.counters["p_reused"] =
      scored > 0 ? static_cast<double>(reused) / static_cast<double>(scored)
                 : 0.0;
}
BENCHMARK(BM_RerankWithLearner)->Unit(benchmark::kMillisecond);

// One committee evaluation of a real candidate group, as ranking and the
// session's within-group order run it: the engine's round-one pool on the
// shared dataset, a default LearnerBank trained from ground-truth answers
// on up to 1500 pooled updates, and one LearnerBank::Votes call over the
// largest group of a trained attribute. The similarity memo is warm (an
// untimed call first), as it is after a group's first evaluation.
struct VotesFixture {
  explicit VotesFixture(const Dataset& dataset)
      : table(dataset.dirty), engine(&table, &dataset.rules) {}
  Table table;
  GdrEngine engine;
  std::unique_ptr<LearnerBank> bank;
  UpdateGroup group;
};

VotesFixture& SharedVotesFixture() {
  static VotesFixture* fixture = []() {
    const Dataset& dataset = SharedDataset();
    auto* f = new VotesFixture(dataset);
    if (!f->engine.Initialize().ok()) {
      std::fprintf(stderr, "votes fixture: engine initialize failed\n");
      std::exit(1);
    }
    const std::vector<UpdateGroup> groups = GroupUpdates(f->engine.pool());
    f->bank = std::make_unique<LearnerBank>(&f->table, &f->engine.index());
    UserOracle oracle(&dataset.clean);
    constexpr std::size_t kMaxLabels = 1500;
    std::size_t labels = 0;
    for (const UpdateGroup& group : groups) {
      for (const Update& update : group.updates) {
        if (labels == kMaxLabels) break;
        ++labels;
        (void)f->bank->AddFeedback(update,
                                   oracle.GetFeedback(f->table, update));
      }
      if (labels == kMaxLabels) break;
    }
    for (std::size_t a = 0; a < f->table.num_attrs(); ++a) {
      (void)f->bank->Retrain(static_cast<AttrId>(a));
    }
    for (const UpdateGroup& group : groups) {
      if (f->bank->IsTrained(group.attr) && group.size() > f->group.size()) {
        f->group = group;
      }
    }
    if (f->group.updates.empty()) {
      std::fprintf(stderr, "votes fixture: no trained attribute\n");
      std::exit(1);
    }
    return f;
  }();
  return *fixture;
}

void BM_LearnerVotes(benchmark::State& state) {
  VotesFixture& fixture = SharedVotesFixture();
  const std::span<const Update> updates(fixture.group.updates);
  std::vector<double> fractions;
  fixture.bank->Votes(updates, &fractions);
  for (auto _ : state) {
    fixture.bank->Votes(updates, &fractions);
    benchmark::DoNotOptimize(fractions.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(updates.size()));
  state.counters["group"] = static_cast<double>(updates.size());
}
BENCHMARK(BM_LearnerVotes);

void BM_EditDistance(benchmark::State& state) {
  const std::string a = "Michigan City";
  const std::string b = "Michigann Cty";
  for (auto _ : state) {
    benchmark::DoNotOptimize(EditDistance(a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EditDistance);

// One attribute model's retrain (Arg = training examples) on the
// learner's example layout for a hospital-like table: 17 categorical
// attribute values of mixed cardinality, then the suggested value
// (categorical) and 6 numeric relationship features; 3 feedback classes,
// the default k = 10 forest. The training set is built once, as the
// learner bank keeps it across retrains.
void BM_ForestTrain(benchmark::State& state) {
  constexpr std::size_t kAttrs = 17;
  constexpr std::uint64_t kCardinality[] = {2, 5, 20, 60, 300};
  std::vector<FeatureDesc> descs;
  for (std::size_t a = 0; a < kAttrs; ++a) {
    descs.push_back({"attr" + std::to_string(a), FeatureType::kCategorical});
  }
  descs.push_back({"suggested_value", FeatureType::kCategorical});
  for (const char* name : {"similarity", "repair_score", "log_support_current",
                           "log_support_suggested", "violations_now",
                           "violations_after"}) {
    descs.push_back({name, FeatureType::kNumeric});
  }
  TrainingSet set(FeatureSchema(descs), 3);
  Rng rng(11);
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    Example example;
    for (std::size_t a = 0; a < kAttrs; ++a) {
      example.features.push_back(static_cast<double>(
          rng.NextBounded(kCardinality[a % std::size(kCardinality)])));
    }
    const double suggested = static_cast<double>(rng.NextBounded(40));
    const double similarity = rng.NextDouble();
    const double violations_after = static_cast<double>(rng.NextBounded(3));
    example.features.insert(
        example.features.end(),
        {suggested, similarity, static_cast<double>(rng.NextBounded(20)) / 20.0,
         std::log1p(static_cast<double>(rng.NextBounded(50))),
         std::log1p(static_cast<double>(rng.NextBounded(50))),
         static_cast<double>(1 + rng.NextBounded(3)), violations_after});
    // Confirm when the suggestion mends the tuple and looks alike, retain
    // for some sources, reject otherwise; a little label noise.
    example.label = violations_after == 0.0 && similarity > 0.4 ? 0
                    : example.features[1] == 0.0                ? 2
                                                                : 1;
    if (rng.NextBounded(10) == 0) {
      example.label = static_cast<int>(rng.NextBounded(3));
    }
    if (!set.Add(std::move(example)).ok()) {
      state.SkipWithError("training set rejected an example");
      return;
    }
  }
  RandomForest forest;
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.Train(set).ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ForestTrain)->Arg(250)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_RandomForestPredict(benchmark::State& state) {
  FeatureSchema schema({{"a", FeatureType::kCategorical},
                        {"c", FeatureType::kNumeric}});
  TrainingSet set(schema, 3);
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double a = static_cast<double>(rng.NextBounded(20));
    const double c = rng.NextDouble();
    (void)set.Add({{a, c}, c > 0.6 ? 0 : (a > 10 ? 1 : 2)});
  }
  RandomForest forest;
  (void)forest.Train(set).ok();
  std::vector<double> x = {3.0, 0.4};
  std::vector<double> fractions;
  for (auto _ : state) {
    x[1] = x[1] < 0.99 ? x[1] + 0.001 : 0.0;
    forest.VoteFractionsBatch(x.data(), 1, x.size(), &fractions);
    benchmark::DoNotOptimize(RandomForest::VoteEntropy(fractions));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RandomForestPredict);

// Flattened-forest inference head-to-head (Arg = rows per group): one
// one-row VoteFractionsBatch call per row (a committee evaluation per
// update) vs a single row-major VoteFractionsBatch over the whole group
// (what LearnerBank::Votes does per attribute run). Both walk the same
// flattened SoA trees and produce bit-identical fractions; the gap is
// per-call overhead plus the tree-at-a-time locality the batch buys.
constexpr std::size_t kForestBenchFeatures = 6;

const RandomForest& ForestBenchForest() {
  static RandomForest* forest = []() {
    FeatureSchema schema({{"a", FeatureType::kCategorical},
                          {"b", FeatureType::kCategorical},
                          {"c", FeatureType::kNumeric},
                          {"d", FeatureType::kNumeric},
                          {"e", FeatureType::kNumeric},
                          {"f", FeatureType::kNumeric}});
    TrainingSet set(schema, 3);
    Rng rng(43);
    for (int i = 0; i < 1500; ++i) {
      const double a = static_cast<double>(rng.NextBounded(20));
      const double c = rng.NextDouble();
      (void)set.Add({{a, static_cast<double>(rng.NextBounded(5)), c,
                      rng.NextDouble(), rng.NextDouble(), rng.NextDouble()},
                     c > 0.6 ? 0 : (a > 10 ? 1 : 2)});
    }
    auto* f = new RandomForest();
    if (!f->Train(set).ok()) {
      std::fprintf(stderr, "forest bench: train failed\n");
      std::exit(1);
    }
    return f;
  }();
  return *forest;
}

// Row-major rows x kForestBenchFeatures probe matrix, deterministic.
std::vector<double> ForestBenchMatrix(std::size_t rows) {
  Rng rng(47);
  std::vector<double> matrix(rows * kForestBenchFeatures);
  for (std::size_t r = 0; r < rows; ++r) {
    matrix[r * kForestBenchFeatures + 0] =
        static_cast<double>(rng.NextBounded(20));
    matrix[r * kForestBenchFeatures + 1] =
        static_cast<double>(rng.NextBounded(5));
    for (std::size_t f = 2; f < kForestBenchFeatures; ++f) {
      matrix[r * kForestBenchFeatures + f] = rng.NextDouble();
    }
  }
  return matrix;
}

void BM_ForestPredictPerUpdate(benchmark::State& state) {
  const RandomForest& forest = ForestBenchForest();
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  const std::vector<double> matrix = ForestBenchMatrix(rows);
  std::vector<double> fractions;
  for (auto _ : state) {
    for (std::size_t r = 0; r < rows; ++r) {
      forest.VoteFractionsBatch(matrix.data() + r * kForestBenchFeatures, 1,
                                kForestBenchFeatures, &fractions);
      benchmark::DoNotOptimize(fractions.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ForestPredictPerUpdate)->Arg(4)->Arg(64)->Arg(1024);

void BM_ForestPredictBatch(benchmark::State& state) {
  const RandomForest& forest = ForestBenchForest();
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  const std::vector<double> matrix = ForestBenchMatrix(rows);
  std::vector<double> fractions;
  for (auto _ : state) {
    forest.VoteFractionsBatch(matrix.data(), rows, kForestBenchFeatures,
                              &fractions);
    benchmark::DoNotOptimize(fractions.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ForestPredictBatch)->Arg(4)->Arg(64)->Arg(1024);

// The GroupCounts::CountOf scan in isolation (Arg = distinct RHS values in
// the group, i.e. the length of the (value, count) arrays the branchless
// mask-and loop walks). GroupCounts is private to the index, so the probe
// goes through GroupRhsValueCount over a synthetic one-group instance: all
// rows share the LHS key and every row holds a distinct RHS value, making
// the group's counts vector exactly Arg entries long.
void BM_CountOfScan(benchmark::State& state) {
  const std::size_t distinct = static_cast<std::size_t>(state.range(0));
  const Schema schema = *Schema::Make({"L", "R"});
  RuleSet rules(schema);
  if (!rules.AddRuleFromString("v1", "L -> R").ok()) {
    state.SkipWithError("rule parse failed");
    return;
  }
  Table table(schema);
  for (std::size_t i = 0; i < distinct; ++i) {
    if (!table.AppendRow({"k", "v" + std::to_string(i)}).ok()) {
      state.SkipWithError("append failed");
      return;
    }
  }
  ViolationIndex index(&table, &rules);
  const AttrId rhs = 1;
  Rng rng(53);
  for (auto _ : state) {
    const ValueId value =
        static_cast<ValueId>(rng.NextBounded(table.DomainSize(rhs)));
    benchmark::DoNotOptimize(index.GroupRhsValueCount(0, 0, value));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(distinct));
}
BENCHMARK(BM_CountOfScan)->Arg(4)->Arg(64)->Arg(1024);

// Rehydration cost by session age (Arg = pulls answered before the
// snapshot): a 1k-row dataset1 GDR session under the paper's protocol
// (budget E, oracle user) is snapshotted after Arg pulls; each iteration
// parses the snapshot text and restores it over a fresh copy of the
// original dirty table — what a server does when an evicted session is
// touched. A checkpoint makes this flat in Arg; replaying the session's
// history made it grow with it.
void BM_RestoreAtPull(benchmark::State& state) {
  static const Dataset* dataset = new Dataset(
      *WorkloadRegistry::Global().Resolve("dataset1:records=1000,seed=7"));
  GdrOptions options;
  options.strategy = Strategy::kGdr;
  {
    Table probe_table = dataset->dirty;
    GdrSession probe(&probe_table, &dataset->rules, options);
    if (!probe.Start().ok()) {
      state.SkipWithError("start failed");
      return;
    }
    options.feedback_budget = probe.stats().initial_dirty;
  }
  Table table = dataset->dirty;
  GdrSession session(&table, &dataset->rules, options);
  UserOracle oracle(&dataset->clean);
  if (!session.Start().ok()) {
    state.SkipWithError("start failed");
    return;
  }
  for (std::int64_t pull = 0;
       pull < state.range(0) && session.state() != SessionState::kDone;
       ++pull) {
    const auto batch = session.NextBatch();
    if (!batch.ok()) {
      state.SkipWithError("pull failed");
      return;
    }
    for (const SuggestedUpdate& s : *batch) {
      if (!session.IsLive(s.update_id)) continue;
      if (!session
               .SubmitFeedback(s.update_id,
                               oracle.GetFeedback(session.table(), s.update))
               .ok()) {
        state.SkipWithError("feedback failed");
        return;
      }
    }
  }
  const std::string text = session.Snapshot().Serialize();
  for (auto _ : state) {
    Table fresh = dataset->dirty;
    GdrSession restored(&fresh, &dataset->rules, options);
    const auto snapshot = SessionSnapshot::Deserialize(text);
    if (!snapshot.ok() || !restored.Restore(*snapshot).ok()) {
      state.SkipWithError("restore failed");
      return;
    }
    benchmark::DoNotOptimize(restored.stats().user_feedback);
  }
  state.counters["snapshot_bytes"] = static_cast<double>(text.size());
}
BENCHMARK(BM_RestoreAtPull)->Arg(25)->Arg(50)->Arg(75)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gdr

// BENCHMARK_MAIN() with a --workload= pre-pass: the flag is consumed here
// (google-benchmark would reject it) and every fixture resolves through
// the workload registry.
int main(int argc, char** argv) {
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--workload=", 0) == 0) {
      gdr::WorkloadSpecText() = arg.substr(std::string("--workload=").size());
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
