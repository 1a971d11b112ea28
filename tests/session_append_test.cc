// Streaming admission through the session API: mid-stream
// snapshot/restore determinism, clean appends causing zero ranking churn,
// admitted updates joining the in-flight group, and kDone revival.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/grouping.h"
#include "core/session.h"

namespace gdr {
namespace {

Schema TestSchema() { return *Schema::Make({"City", "Zip", "State"}); }

RuleSet TestRules() {
  RuleSet rules(TestSchema());
  EXPECT_TRUE(rules.AddRuleFromString("v1", "City -> Zip").ok());
  EXPECT_TRUE(rules.AddRuleFromString("v2", "Zip -> City").ok());
  EXPECT_TRUE(
      rules.AddRuleFromString("c1", "City=Springfield -> State=IL").ok());
  return rules;
}

// Ground truth per RowId, in append order. Tests extend it alongside every
// AppendDirtyRows call so the feedback policy covers appended rows too.
using Truth = std::vector<std::vector<std::string>>;

Truth BaseTruth() {
  return {{"Springfield", "Z0", "IL"},
          {"Springfield", "Z0", "IL"},
          {"Shelby", "Z1", "IN"},
          {"Shelby", "Z1", "IN"},
          {"Dalton", "Z2", "OH"},
          {"Dalton", "Z2", "OH"}};
}

// The base dirty instance: row 1's zip and row 0's state are corrupted.
Table BaseDirty() {
  Table table(TestSchema());
  Truth rows = BaseTruth();
  rows[1][1] = "Zx";  // breaks City -> Zip (and Zip -> City) for Springfield
  rows[0][2] = "XX";  // breaks the constant rule c1
  for (const auto& row : rows) EXPECT_TRUE(table.AppendRow(row).ok());
  return table;
}

GdrOptions TestOptions() {
  GdrOptions options;
  options.strategy = Strategy::kGdrNoLearning;  // VOI ranking, no learner
  options.ns = 2;
  options.seed = 42;
  options.feedback_budget = 100;
  return options;
}

// Deterministic oracle: confirm the truth, retain already-correct cells,
// otherwise reject and volunteer the truth.
struct PolicyAnswer {
  Feedback feedback;
  std::optional<std::string> volunteered;
};

PolicyAnswer Answer(const Table& table, const Truth& truth,
                    const SuggestedUpdate& s) {
  const std::string& expected =
      truth[static_cast<std::size_t>(s.update.row)]
           [static_cast<std::size_t>(s.update.attr)];
  const std::string& suggested =
      table.dict(s.update.attr).ToString(s.update.value);
  if (suggested == expected) return {Feedback::kConfirm, std::nullopt};
  if (table.at(s.update.row, s.update.attr) == expected) {
    return {Feedback::kRetain, std::nullopt};
  }
  return {Feedback::kReject, expected};
}

// One suggestion rendered comparably across sessions (same dictionaries by
// construction, so ValueIds compare too — strings keep failures readable).
std::string TraceLine(const GdrSession& session, const SuggestedUpdate& s) {
  return std::to_string(s.update_id) + "|r" + std::to_string(s.update.row) +
         "|a" + std::to_string(s.update.attr) + "|" +
         session.table().dict(s.update.attr).ToString(s.update.value) + "|" +
         std::to_string(s.voi_score);
}

// Drives the session to completion with the policy, appending each trace
// line as it answers. Returns OK or the first error.
void Drive(GdrSession* session, const Truth& truth,
           std::vector<std::string>* trace) {
  while (session->state() != SessionState::kDone) {
    const auto batch = session->NextBatch();
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    if (batch->empty() && session->state() == SessionState::kDone) break;
    for (const SuggestedUpdate& s : *batch) {
      if (!session->IsLive(s.update_id)) continue;
      trace->push_back(TraceLine(*session, s));
      const PolicyAnswer answer = Answer(session->table(), truth, s);
      const auto outcome =
          session->SubmitFeedback(s.update_id, answer.feedback,
                                  answer.volunteered);
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    }
  }
}

std::vector<std::string> TableCells(const Table& table) {
  std::vector<std::string> cells;
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    for (std::size_t a = 0; a < table.num_attrs(); ++a) {
      cells.push_back(table.at(static_cast<RowId>(r), static_cast<AttrId>(a)));
    }
  }
  return cells;
}

void ExpectOutcomesEqual(const SessionAppendOutcome& a,
                         const SessionAppendOutcome& b) {
  EXPECT_EQ(a.rows_appended, b.rows_appended);
  EXPECT_EQ(a.newly_dirty, b.newly_dirty);
  EXPECT_EQ(a.pool_delta, b.pool_delta);
  EXPECT_EQ(a.revived, b.revived);
}

TEST(SessionAppendTest, RestoredAndUninterruptedSessionsStayIdentical) {
  const RuleSet rules = TestRules();
  Truth truth = BaseTruth();

  // Session A: pull a batch, answer only its first suggestion (mid-batch),
  // snapshot.
  Table table_a = BaseDirty();
  GdrSession a(&table_a, &rules, TestOptions());
  ASSERT_TRUE(a.Start().ok());
  const auto first_batch = a.NextBatch();
  ASSERT_TRUE(first_batch.ok());
  ASSERT_FALSE(first_batch->empty());
  std::vector<std::string> trace_a;
  {
    const SuggestedUpdate& s = first_batch->front();
    trace_a.push_back(TraceLine(a, s));
    const PolicyAnswer answer = Answer(a.table(), truth, s);
    ASSERT_TRUE(
        a.SubmitFeedback(s.update_id, answer.feedback, answer.volunteered)
            .ok());
  }
  const SessionSnapshot snap = a.Snapshot();

  // Session B: restored from the snapshot over a pristine dirty copy.
  Table table_b = BaseDirty();
  GdrSession b(&table_b, &rules, TestOptions());
  const Status restored = b.Restore(snap);
  ASSERT_TRUE(restored.ok()) << restored.ToString();
  EXPECT_EQ(TableCells(table_a), TableCells(table_b));
  std::vector<std::string> trace_b = trace_a;  // shared prefix

  // Append the identical batch to both: a dirty Springfield row (joins the
  // broken City -> Zip group) and a clean new city pair.
  const std::vector<std::vector<std::string>> arrivals = {
      {"Springfield", "Z9", "IL"},
      {"Evanston", "Z5", "IL"},
      {"Evanston", "Z5", "IL"}};
  truth.push_back({"Springfield", "Z0", "IL"});
  truth.push_back({"Evanston", "Z5", "IL"});
  truth.push_back({"Evanston", "Z5", "IL"});
  const auto out_a = a.AppendDirtyRows(arrivals);
  const auto out_b = b.AppendDirtyRows(arrivals);
  ASSERT_TRUE(out_a.ok() && out_b.ok());
  EXPECT_GE(out_a->newly_dirty, 1u);
  ExpectOutcomesEqual(*out_a, *out_b);

  // Both sessions must deliver identical NextBatch() sequences from here
  // to completion, and end with identical tables and stats.
  Drive(&a, truth, &trace_a);
  Drive(&b, truth, &trace_b);
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_EQ(TableCells(table_a), TableCells(table_b));
  EXPECT_EQ(a.stats().user_feedback, b.stats().user_feedback);
  EXPECT_EQ(a.stats().appended_rows, b.stats().appended_rows);
  EXPECT_EQ(a.stats().admitted_dirty, b.stats().admitted_dirty);
  EXPECT_EQ(a.Snapshot().Serialize(), b.Snapshot().Serialize());

  // The full history — appends included — survives a serialize round-trip
  // into a third session.
  const auto reparsed = SessionSnapshot::Deserialize(a.Snapshot().Serialize());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  Table table_c = BaseDirty();
  GdrSession c(&table_c, &rules, TestOptions());
  ASSERT_TRUE(c.Restore(*reparsed).ok());
  EXPECT_EQ(TableCells(table_a), TableCells(table_c));
  EXPECT_EQ(c.stats().appended_rows, a.stats().appended_rows);
}

TEST(SessionAppendTest, CleanAppendCausesZeroRankingChurn) {
  const RuleSet rules = TestRules();
  const Truth truth = BaseTruth();

  // Control session: no appends at all.
  Table control_table = BaseDirty();
  GdrSession control(&control_table, &rules, TestOptions());
  ASSERT_TRUE(control.Start().ok());
  std::vector<std::string> control_trace;

  // Appending session: mid-batch, rows that violate no rule arrive.
  Table table = BaseDirty();
  GdrSession session(&table, &rules, TestOptions());
  ASSERT_TRUE(session.Start().ok());
  std::vector<std::string> trace;

  const auto control_batch = control.NextBatch();
  const auto batch = session.NextBatch();
  ASSERT_TRUE(control_batch.ok() && batch.ok());
  ASSERT_FALSE(batch->empty());

  const auto outcome = session.AppendDirtyRows(
      {{"Gary", "Z7", "IN"}, {"Gary", "Z7", "IN"}});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->rows_appended, 2u);
  EXPECT_EQ(outcome->newly_dirty, 0u);
  EXPECT_EQ(outcome->pool_delta, 0);
  EXPECT_FALSE(outcome->revived);

  // Answer both sessions' batches with the same policy; every subsequent
  // suggestion must be identical — the clean rows changed nothing.
  Truth grown = truth;
  grown.push_back({"Gary", "Z7", "IN"});
  grown.push_back({"Gary", "Z7", "IN"});
  auto answer_batch = [&](GdrSession* s, const Truth& t,
                          const std::vector<SuggestedUpdate>& delivered,
                          std::vector<std::string>* out) {
    for (const SuggestedUpdate& u : delivered) {
      if (!s->IsLive(u.update_id)) continue;
      out->push_back(TraceLine(*s, u));
      const PolicyAnswer pa = Answer(s->table(), t, u);
      ASSERT_TRUE(
          s->SubmitFeedback(u.update_id, pa.feedback, pa.volunteered).ok());
    }
  };
  answer_batch(&control, truth, *control_batch, &control_trace);
  answer_batch(&session, grown, *batch, &trace);
  Drive(&control, truth, &control_trace);
  Drive(&session, grown, &trace);
  EXPECT_EQ(control_trace, trace);
  EXPECT_EQ(control.stats().user_feedback, session.stats().user_feedback);

  // The appended rows were never touched by the repair loop.
  EXPECT_EQ(table.at(6, 0), "Gary");
  EXPECT_EQ(table.at(6, 1), "Z7");
  EXPECT_EQ(table.num_rows(), 8u);
}

TEST(SessionAppendTest, AppendedRowJoinsExistingGroup) {
  const RuleSet rules = TestRules();
  Table table = BaseDirty();
  GdrSession session(&table, &rules, TestOptions());
  ASSERT_TRUE(session.Start().ok());
  const auto batch = session.NextBatch();
  ASSERT_TRUE(batch.ok());
  ASSERT_FALSE(batch->empty());

  const std::map<std::pair<AttrId, ValueId>, std::size_t> before = [&] {
    std::map<std::pair<AttrId, ValueId>, std::size_t> sizes;
    for (const UpdateGroup& g : GroupUpdates(session.engine().pool())) {
      sizes[{g.attr, g.value}] = g.updates.size();
    }
    return sizes;
  }();

  // Another Springfield row with yet another wrong zip: its zip suggestion
  // lands in the existing (Zip := Z0) group (two dirty rows now back the
  // same correction), and the implicated partners get regenerated.
  const auto outcome =
      session.AppendDirtyRows({{"Springfield", "Z8", "IL"}});
  ASSERT_TRUE(outcome.ok());
  EXPECT_GE(outcome->newly_dirty, 1u);
  EXPECT_GT(outcome->pool_delta, 0);

  bool some_group_grew = false;
  for (const UpdateGroup& g : GroupUpdates(session.engine().pool())) {
    const auto it = before.find({g.attr, g.value});
    if (it != before.end() && g.updates.size() > it->second) {
      some_group_grew = true;
    }
  }
  EXPECT_TRUE(some_group_grew);
}

// An update admitted mid-batch into the in-flight group's (attr, value)
// reaches that group's later rounds, before the next iteration regroups
// and reranks the pool. Under GDR ordering (uncertainty ties broken by
// repair score) the arrival outscores the member the caller left
// unanswered, so it leads the group's next round.
TEST(SessionAppendTest, AdmittedUpdateJoinsInFlightGroupBeforeNextIteration) {
  const RuleSet rules = TestRules();
  Table table = BaseDirty();
  GdrOptions options = TestOptions();
  options.strategy = Strategy::kGdr;
  GdrSession session(&table, &rules, options);
  ASSERT_TRUE(session.Start().ok());
  const auto first = session.NextBatch();
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->size(), 1u);
  // The picked group is Zip := Z0, backed by row 1 alone. Its suggestion
  // stays unanswered, so the group's quota is not yet met.
  const SuggestedUpdate held = first->front();
  ASSERT_EQ(held.update.row, 1);
  ASSERT_EQ(table.dict(held.group_attr).ToString(held.group_value), "Z0");
  const std::size_t iteration = session.stats().outer_iterations;

  // A Springfield row whose zip "Z00" is nearer Z0 than row 1's "Zx": its
  // Z0 suggestion joins the group with the higher repair score.
  const auto outcome = session.AppendDirtyRows({{"Springfield", "Z00", "IL"}});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->newly_dirty, 1u);

  const auto next = session.NextBatch();
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(session.stats().outer_iterations, iteration);
  ASSERT_EQ(next->size(), 1u);
  EXPECT_EQ(next->front().update.row, 6);
  EXPECT_EQ(next->front().group_attr, held.group_attr);
  EXPECT_EQ(next->front().group_value, held.group_value);
  // The group keeps the score it was picked with.
  EXPECT_EQ(next->front().voi_score, held.voi_score);
}

// The learner take-over path of the same guarantee: once the Zip model
// is trusted, the in-flight group's take-over also decides an update
// admitted mid-batch into the group. Without the refresh the take-over
// would see only the members the group was picked with, and the arrival
// would wait for a later iteration's user round.
TEST(SessionAppendTest, LearnerTakeOverDecidesUpdateAdmittedIntoInFlightGroup) {
  const RuleSet rules = TestRules();
  // Two cities, 20 clean rows each plus rows with distinct zip typos. The
  // Zip := Z1 group (10 Shelby typos) comes first and trains the Zip
  // model; the Zip := Z0 group (5 Springfield typos) follows.
  Table table(TestSchema());
  const auto add_city = [&table](const std::string& city,
                                 const std::string& zip,
                                 const std::string& state, int typos) {
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(table.AppendRow({city, zip, state}).ok());
    }
    for (int i = 0; i < typos; ++i) {
      const std::string typo = zip + static_cast<char>('a' + i);
      ASSERT_TRUE(table.AppendRow({city, typo, state}).ok());
    }
  };
  add_city("Shelby", "Z1", "IN", 10);
  add_city("Springfield", "Z0", "IL", 5);
  GdrOptions options = TestOptions();
  options.strategy = Strategy::kGdr;
  options.ns = 1;  // one label per iteration, then the take-over
  options.learner.min_training_examples = 1;
  // Loose delegation: a trained model with enough sampled predictions
  // decides, however uncertain or inaccurate.
  options.learner_max_uncertainty = 1.0;
  options.learner_min_accuracy = 0.0;
  GdrSession session(&table, &rules, options);
  ASSERT_TRUE(session.Start().ok());
  const AttrId zip = 1;

  // Confirm one Zip suggestion per pull until a batch of the Z0 group is
  // out under a trusted model; append mid-batch into that group.
  RowId arrival = -1;
  while (arrival < 0) {
    const auto batch = session.NextBatch();
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(batch->size(), 1u) << "the loop ended before the Z0 group";
    const SuggestedUpdate& s = batch->front();
    ASSERT_EQ(s.update.attr, zip);
    if (table.dict(zip).ToString(s.update.value) == "Z0") {
      ASSERT_TRUE(session.engine().learner().IsReliable(
          zip, Feedback::kConfirm, options.learner_min_accuracy));
      arrival = static_cast<RowId>(table.num_rows());
      const auto outcome =
          session.AppendDirtyRows({{"Springfield", "Z0z", "IL"}});
      ASSERT_TRUE(outcome.ok());
      ASSERT_EQ(outcome->newly_dirty, 1u);
      const auto pooled = session.engine().pool().Get(CellKey{arrival, zip});
      ASSERT_TRUE(pooled.has_value());
      ASSERT_EQ(table.dict(zip).ToString(pooled->value), "Z0");
    }
    ASSERT_TRUE(session.SubmitFeedback(s.update_id, Feedback::kConfirm).ok());
  }

  // The next pull closes the group: its take-over repairs the arrival
  // without asking the user.
  const std::size_t user_labels = session.stats().user_feedback;
  const std::size_t decisions = session.stats().learner_decisions;
  const auto next = session.NextBatch();
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(session.stats().user_feedback, user_labels);
  EXPECT_GT(session.stats().learner_decisions, decisions);
  EXPECT_EQ(table.at(arrival, zip), "Z0");
  for (const SuggestedUpdate& s : *next) EXPECT_NE(s.update.row, arrival);
}

TEST(SessionAppendTest, AppendAfterDoneRevivesTheLoop) {
  const RuleSet rules = TestRules();
  Truth truth = BaseTruth();
  Table table = BaseDirty();
  GdrSession session(&table, &rules, TestOptions());
  ASSERT_TRUE(session.Start().ok());
  std::vector<std::string> trace;
  Drive(&session, truth, &trace);
  ASSERT_EQ(session.state(), SessionState::kDone);
  const auto empty = session.NextBatch();
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());

  // New dirt after completion re-arms the loop...
  const auto outcome = session.AppendDirtyRows(
      {{"Springfield", "Z9", "XX"}, {"Springfield", "Z0", "IL"}});
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->revived);
  EXPECT_GE(outcome->newly_dirty, 1u);
  EXPECT_NE(session.state(), SessionState::kDone);

  // ...and the revived loop repairs the arrival like any other dirty row.
  truth.push_back({"Springfield", "Z0", "IL"});
  truth.push_back({"Springfield", "Z0", "IL"});
  Drive(&session, truth, &trace);
  EXPECT_EQ(session.state(), SessionState::kDone);
  const RowId revived_row = 6;
  EXPECT_EQ(table.at(revived_row, 1), "Z0");
  EXPECT_EQ(table.at(revived_row, 2), "IL");

  // Appending rows that violate nothing after kDone does not revive.
  const auto clean = session.AppendDirtyRows({{"Gary", "Z7", "IN"}});
  ASSERT_TRUE(clean.ok());
  EXPECT_FALSE(clean->revived);
  EXPECT_EQ(session.state(), SessionState::kDone);
}

TEST(SessionAppendTest, AppendRequiresStartAndValidatesArity) {
  const RuleSet rules = TestRules();
  Table table = BaseDirty();
  GdrSession session(&table, &rules, TestOptions());
  EXPECT_FALSE(session.AppendDirtyRows({{"Gary", "Z7", "IN"}}).ok());
  ASSERT_TRUE(session.Start().ok());

  // All-or-nothing surfaces through the session too.
  const std::size_t rows_before = table.num_rows();
  const auto bad =
      session.AppendDirtyRows({{"Gary", "Z7", "IN"}, {"short", "row"}});
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(table.num_rows(), rows_before);

  // An empty append is a no-op, not an event.
  const auto none = session.AppendDirtyRows({});
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none->rows_appended, 0u);
  EXPECT_EQ(session.Snapshot().events.size(), 0u);
}

}  // namespace
}  // namespace gdr
