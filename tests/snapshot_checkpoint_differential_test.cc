// Checkpointed restore is invisible. Two sessions run in lockstep on the
// same scripted user (appends before pull 6, volunteered values): a
// control that is never restored, and one that is snapshotted, serialized,
// parsed and restored into a brand-new session over a fresh copy of the
// original dirty table at API boundaries — between pulls, between the
// submissions of a batch, after the append. Every reply must match bit for
// bit (update ids, updates, scores, VOI, uncertainties, feedback outcomes,
// progress callbacks), a restored session must snapshot back to the very
// text it was restored from, and the finals must agree: table dump,
// FingerprintExperimentResult, stats counters.
//
// The last case restores a version-3 snapshot written by an earlier build
// (tests/golden/snapshot_v3_gdr_dataset1.txt: no checkpoint, the whole
// event log) through the tail-replay path, and requires the resumed
// session to end where that build's uninterrupted session ended.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/quality.h"
#include "core/session.h"
#include "sim/experiment.h"
#include "testing/scripted_user.h"
#include "util/fileio.h"
#include "workload/registry.h"

namespace gdr {
namespace {

using testing::AnswerScripted;
using testing::kScriptedAppendAtPull;
using testing::ScriptedAnswer;
using testing::ScriptedInput;
using testing::TableCells;

std::string Bits(double value) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(value)));
  return buf;
}

std::string Describe(const SuggestedUpdate& s) {
  return std::to_string(s.update_id) + " r" + std::to_string(s.update.row) +
         " a" + std::to_string(s.update.attr) + " v" +
         std::to_string(s.update.value) + " s" + Bits(s.update.score) + " g" +
         std::to_string(s.group_attr) + ":" + std::to_string(s.group_value) +
         " voi" + Bits(s.voi_score) + " u" + Bits(s.uncertainty) + " b" +
         std::to_string(s.budget_remaining);
}

std::vector<std::string> Describe(const std::vector<SuggestedUpdate>& batch) {
  std::vector<std::string> out;
  for (const SuggestedUpdate& s : batch) out.push_back(Describe(s));
  return out;
}

std::vector<std::size_t> Counters(const GdrStats& s) {
  return {s.initial_dirty,     s.user_feedback,   s.user_confirms,
          s.user_rejects,      s.user_retains,    s.user_suggested_values,
          s.learner_decisions, s.learner_confirms, s.forced_repairs,
          s.outer_iterations,  s.appended_rows,   s.admitted_dirty};
}

// One session plus the quality curve its progress callback records.
struct Side {
  std::unique_ptr<Table> table;
  std::unique_ptr<GdrSession> session;
  std::vector<CurvePoint> curve;
};

class Lockstep {
 public:
  Lockstep(const ScriptedInput& input, const GdrOptions& options,
           std::size_t restore_every)
      : input_(input), options_(options), restore_every_(restore_every) {
    for (Side* side : {&control_, &restored_}) {
      side->table = std::make_unique<Table>(input.dataset.dirty);
      side->session = std::make_unique<GdrSession>(
          side->table.get(), &input.dataset.rules, options);
      EXPECT_TRUE(side->session->Start().ok());
    }
    evaluator_ = std::make_unique<QualityEvaluator>(
        input.truth, &input.dataset.rules,
        control_.session->engine().rule_weights());
    initial_loss_ = evaluator_->Loss(control_.session->engine().index());
    Record(&control_);
    Record(&restored_);
  }

  // Drives both sides to completion; false after the first mismatch.
  bool Run() {
    for (int pull = 0; control_.session->state() != SessionState::kDone;
         ++pull) {
      if (pull == kScriptedAppendAtPull) {
        const auto a = control_.session->AppendDirtyRows(input_.appended);
        const auto b = restored_.session->AppendDirtyRows(input_.appended);
        if (!a.ok() || !b.ok()) return Fail("append failed");
        if (a->newly_dirty != b->newly_dirty ||
            a->pool_delta != b->pool_delta || a->revived != b->revived) {
          return Fail("append outcomes differ");
        }
        if (!Boundary()) return false;
      }
      const auto a = control_.session->NextBatch();
      const auto b = restored_.session->NextBatch();
      if (!a.ok() || !b.ok()) return Fail("pull failed");
      if (Describe(*a) != Describe(*b)) return Fail("batches differ");
      if (!Boundary()) return false;
      for (const SuggestedUpdate& s : *a) {
        const bool live = control_.session->IsLive(s.update_id);
        if (live != restored_.session->IsLive(s.update_id)) {
          return Fail("liveness differs");
        }
        if (!live) continue;
        const ScriptedAnswer answer =
            AnswerScripted(control_.session->table(), input_.truth, s.update);
        const auto fa = control_.session->SubmitFeedback(
            s.update_id, answer.feedback, answer.volunteered);
        const auto fb = restored_.session->SubmitFeedback(
            s.update_id, answer.feedback, answer.volunteered);
        if (!fa.ok() || !fb.ok() || *fa != *fb) {
          return Fail("feedback outcomes differ");
        }
        if (control_.session->state() != restored_.session->state()) {
          return Fail("states differ");
        }
        if (!Boundary()) return false;
      }
      last_update_id_ = a->empty() ? last_update_id_ : a->back().update_id;
    }
    if (restored_.session->state() != SessionState::kDone) {
      return Fail("the restored side did not finish");
    }
    return true;
  }

  std::string Fingerprint(const Side& side) const {
    ExperimentResult result;
    result.strategy_name = StrategyName(options_.strategy);
    result.stats = side.session->stats();
    result.curve = side.curve;
    result.initial_loss = initial_loss_;
    const ViolationIndex& index = side.session->engine().index();
    result.final_loss = evaluator_->Loss(index);
    result.final_improvement_pct =
        evaluator_->ImprovementPct(index, initial_loss_);
    result.remaining_violations = index.TotalViolations();
    result.accuracy =
        *ComputeRepairAccuracy(input_.dirty, *side.table, input_.truth);
    return FingerprintExperimentResult(result);
  }

  const Side& control() const { return control_; }
  const Side& restored() const { return restored_; }
  std::size_t restores() const { return restores_; }
  std::size_t restores_with_interned() const {
    return restores_with_interned_;
  }
  std::uint64_t last_update_id() const { return last_update_id_; }

 private:
  bool Fail(const std::string& what) {
    ADD_FAILURE() << what << " after " << boundaries_ << " boundaries";
    return false;
  }

  void Record(Side* side) {
    side->session->SetProgressCallback(
        [this, side](const GdrEngine& engine, std::size_t feedback) {
          side->curve.push_back(
              {feedback, evaluator_->ImprovementPct(engine.index(),
                                                    initial_loss_),
               evaluator_->Loss(engine.index())});
        });
  }

  // An API boundary: every restore_every-th one replaces the restored
  // side by a brand-new session restored from its own serialized
  // snapshot over a fresh copy of the original dirty table.
  bool Boundary() {
    if (++boundaries_ % restore_every_ != 0) return true;
    const std::string text = restored_.session->Snapshot().Serialize();
    const auto parsed = SessionSnapshot::Deserialize(text);
    if (!parsed.ok() || !parsed->checkpoint.has_value() ||
        !parsed->events.empty()) {
      return Fail("snapshot is not a checkpoint with an empty tail");
    }
    auto table = std::make_unique<Table>(input_.dataset.dirty);
    auto session = std::make_unique<GdrSession>(
        table.get(), &input_.dataset.rules, options_);
    const Status status = session->Restore(*parsed);
    if (!status.ok()) return Fail("restore failed: " + status.ToString());
    if (session->Snapshot().Serialize() != text) {
      return Fail("a restored session does not snapshot back to its text");
    }
    restored_.session = std::move(session);
    restored_.table = std::move(table);
    Record(&restored_);
    ++restores_;
    for (const std::vector<std::string>& interned :
         parsed->checkpoint->interned) {
      if (!interned.empty()) {
        ++restores_with_interned_;
        break;
      }
    }
    return true;
  }

  const ScriptedInput& input_;
  GdrOptions options_;
  std::size_t restore_every_;
  Side control_, restored_;
  std::unique_ptr<QualityEvaluator> evaluator_;
  double initial_loss_ = 0.0;
  std::size_t boundaries_ = 0;
  std::size_t restores_ = 0;
  std::size_t restores_with_interned_ = 0;  // dictionaries had grown
  std::uint64_t last_update_id_ = 0;
};

ScriptedInput Input(const std::string& spec) {
  Result<Dataset> dataset = WorkloadRegistry::Global().Resolve(spec);
  EXPECT_TRUE(dataset.ok()) << dataset.status().ToString();
  return testing::MakeScriptedInput(std::move(*dataset));
}

// The paper's protocol: a budget of E user labels, E the initial dirty
// tuple count.
GdrOptions Options(const ScriptedInput& input, Strategy strategy,
                   std::uint64_t seed) {
  GdrOptions options;
  options.strategy = strategy;
  options.seed = seed;
  Table table = input.dataset.dirty;
  GdrSession probe(&table, &input.dataset.rules, options);
  EXPECT_TRUE(probe.Start().ok());
  options.feedback_budget = probe.stats().initial_dirty;
  return options;
}

// Returns the user's volunteered values, so callers can check the
// scripted user exercised them.
std::size_t ExpectInvisibleRestores(const std::string& spec,
                                    Strategy strategy, std::uint64_t seed,
                                    std::size_t restore_every) {
  const ScriptedInput input = Input(spec);
  const GdrOptions options = Options(input, strategy, seed);
  Lockstep run(input, options, restore_every);
  const std::string label = spec + " " + StrategyName(strategy);
  EXPECT_TRUE(run.Run()) << label;
  EXPECT_GT(run.restores(), 10u) << label;
  EXPECT_GT(run.restores_with_interned(), 0u) << label;
  EXPECT_GT(run.last_update_id(), 0u) << label;
  EXPECT_EQ(TableCells(*run.control().table), TableCells(*run.restored().table))
      << label;
  EXPECT_EQ(Counters(run.control().session->stats()),
            Counters(run.restored().session->stats()))
      << label;
  EXPECT_EQ(run.control().curve.size(), run.restored().curve.size()) << label;
  EXPECT_EQ(run.Fingerprint(run.control()), run.Fingerprint(run.restored()))
      << label;
  // The scripted user really did append.
  EXPECT_EQ(run.control().session->stats().appended_rows,
            input.appended.size())
      << label;
  return run.control().session->stats().user_suggested_values;
}

constexpr Strategy kStrategies[] = {
    Strategy::kGdr,            Strategy::kGdrSLearning,
    Strategy::kGdrNoLearning,  Strategy::kActiveLearning,
    Strategy::kGreedy,         Strategy::kRandomRanking,
};

TEST(SnapshotCheckpointDifferentialTest, Dataset1EveryBoundaryAllStrategies) {
  std::size_t volunteered = 0;
  for (const Strategy strategy : kStrategies) {
    volunteered +=
        ExpectInvisibleRestores("dataset1:records=300,seed=3", strategy, 3, 1);
  }
  EXPECT_GT(volunteered, 0u);
}

TEST(SnapshotCheckpointDifferentialTest, Dataset2EveryBoundaryAllStrategies) {
  std::size_t volunteered = 0;
  for (const Strategy strategy : kStrategies) {
    volunteered +=
        ExpectInvisibleRestores("dataset2:records=300,seed=4", strategy, 4, 1);
  }
  EXPECT_GT(volunteered, 0u);
}

TEST(SnapshotCheckpointDifferentialTest, ThousandRowsEverySeventhBoundary) {
  EXPECT_GT(ExpectInvisibleRestores("dataset1:records=1000,seed=11",
                                    Strategy::kGdr, 11, 7),
            0u);
  EXPECT_GT(ExpectInvisibleRestores("dataset2:records=1000,seed=12",
                                    Strategy::kActiveLearning, 12, 7),
            0u);
}

// Written by the build before checkpoints existed, mid-batch at pull 20 of
// this scripted GDR session (dataset1:records=400,seed=5, seed 5, budget
// 150). That build's uninterrupted session ended with these counters and
// this table.
constexpr char kV3Spec[] = "dataset1:records=400,seed=5";
constexpr int kV3SnapshotPull = 20;
const std::vector<std::size_t> kV3FinalCounters = {110, 150, 90, 31, 29, 2,
                                                   12,  9,   0,  65, 8, 8};
constexpr std::uint64_t kV3FinalTableHash = 0x5d25d97fc8ff36f4ULL;

TEST(SnapshotCheckpointDifferentialTest, EarlierBuildsV3SnapshotResumes) {
  const auto text = ReadFileToString(std::string(GDR_TEST_GOLDEN_DIR) +
                                     "/snapshot_v3_gdr_dataset1.txt");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  ASSERT_EQ(text->rfind("GDRSNAP 3\n", 0), 0u);
  const auto parsed = SessionSnapshot::Deserialize(*text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_FALSE(parsed->checkpoint.has_value());
  EXPECT_FALSE(parsed->events.empty());
  // An event log serializes back to the bytes the earlier build wrote.
  EXPECT_EQ(parsed->Serialize(), *text);

  const ScriptedInput input = Input(kV3Spec);
  GdrOptions options;
  options.strategy = Strategy::kGdr;
  options.seed = 5;
  options.feedback_budget = 150;

  Table table = input.dataset.dirty;
  GdrSession resumed(&table, &input.dataset.rules, options);
  const Status restored = resumed.Restore(*parsed);
  ASSERT_TRUE(restored.ok()) << restored.ToString();
  const std::vector<SuggestedUpdate> outstanding = resumed.Outstanding();
  ASSERT_FALSE(outstanding.empty());  // it was taken mid-batch
  for (const SuggestedUpdate& s : outstanding) {
    ASSERT_TRUE(testing::AnswerIfLive(&resumed, input, s).ok());
  }
  ASSERT_TRUE(
      testing::DriveScripted(&resumed, input, kV3SnapshotPull + 1).ok());

  Table control_table = input.dataset.dirty;
  GdrSession control(&control_table, &input.dataset.rules, options);
  ASSERT_TRUE(control.Start().ok());
  ASSERT_TRUE(testing::DriveScripted(&control, input, 0).ok());

  EXPECT_EQ(Counters(resumed.stats()), kV3FinalCounters);
  EXPECT_EQ(Counters(control.stats()), kV3FinalCounters);
  EXPECT_EQ(testing::TableHash(table), kV3FinalTableHash);
  EXPECT_EQ(testing::TableHash(control_table), kV3FinalTableHash);
  EXPECT_EQ(resumed.Snapshot().Serialize(), control.Snapshot().Serialize());
}

}  // namespace
}  // namespace gdr
