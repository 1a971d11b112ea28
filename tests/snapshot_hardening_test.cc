// Crash-safety of snapshot persistence and restore:
//  - a truncated wire-v3 prefix (crash mid-write) can never deserialize as
//    a complete snapshot — the "end" marker regression;
//  - legacy v1/v2 texts still load, and truncated legacy prefixes never
//    crash and never strand a session;
//  - a failed Restore() rolls the session back to pristine: the table is
//    untouched and the session runs fresh to the same finals as a control;
//  - WriteFileAtomic round-trips bytes and replaces files whole.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "core/session.h"
#include "util/fileio.h"

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

using Truth = std::vector<std::vector<std::string>>;

Truth BaseTruth() {
  return {{"Springfield", "Z0", "IL"},
          {"Springfield", "Z0", "IL"},
          {"Shelby", "Z1", "IN"},
          {"Shelby", "Z1", "IN"},
          {"Dalton", "Z2", "OH"},
          {"Dalton", "Z2", "OH"}};
}

Table BaseDirty() {
  Table table(TestSchema());
  Truth rows = BaseTruth();
  rows[1][1] = "Zx";  // breaks City -> Zip (and Zip -> City)
  rows[0][2] = "XX";  // breaks the constant rule c1
  for (const auto& row : rows) EXPECT_TRUE(table.AppendRow(row).ok());
  return table;
}

GdrOptions TestOptions() {
  GdrOptions options;
  options.strategy = Strategy::kGdrNoLearning;
  options.ns = 2;
  options.seed = 42;
  options.feedback_budget = 100;
  return options;
}

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

void Drive(GdrSession* session, const Truth& truth,
           std::vector<std::string>* trace) {
  while (session->state() != SessionState::kDone) {
    const auto batch = session->NextBatch();
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    if (batch->empty() && session->state() == SessionState::kDone) break;
    for (const SuggestedUpdate& s : *batch) {
      if (!session->IsLive(s.update_id)) continue;
      trace->push_back(std::to_string(s.update_id) + "|r" +
                       std::to_string(s.update.row) + "|a" +
                       std::to_string(s.update.attr));
      const PolicyAnswer answer = Answer(session->table(), truth, s);
      const auto outcome = session->SubmitFeedback(s.update_id,
                                                   answer.feedback,
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

// Drives a session part way — one full batch answered, then a reject with
// a volunteered value carrying bytes that need hex framing — and returns
// its snapshot. The last event is a submit with a V<hex> payload, which is
// exactly the shape whose truncation used to parse silently.
SessionSnapshot PartialSnapshot(Table* table, const RuleSet* rules) {
  GdrSession session(table, rules, TestOptions());
  EXPECT_TRUE(session.Start().ok());
  auto batch = session.NextBatch();
  EXPECT_TRUE(batch.ok());
  const Truth truth = BaseTruth();
  for (const SuggestedUpdate& s : *batch) {
    if (!session.IsLive(s.update_id)) continue;
    const PolicyAnswer answer = Answer(session.table(), truth, s);
    EXPECT_TRUE(session
                    .SubmitFeedback(s.update_id, answer.feedback,
                                    answer.volunteered)
                    .ok());
  }
  batch = session.NextBatch();
  EXPECT_TRUE(batch.ok());
  EXPECT_FALSE(batch->empty());
  EXPECT_TRUE(session
                  .SubmitFeedback((*batch)[0].update_id, Feedback::kReject,
                                  std::string("Spring field\nvalue"))
                  .ok());
  return session.Snapshot();
}

bool SnapshotsEqual(const SessionSnapshot& a, const SessionSnapshot& b) {
  return a.strategy == b.strategy && a.seed == b.seed &&
         a.feedback_budget == b.feedback_budget && a.ns == b.ns &&
         a.max_outer_iterations == b.max_outer_iterations &&
         a.learner_sweep_passes == b.learner_sweep_passes &&
         a.learner_max_uncertainty == b.learner_max_uncertainty &&
         a.learner_min_accuracy == b.learner_min_accuracy &&
         a.events == b.events;
}

// Rewrites a v3 text as the legacy version: header downgraded, no "end"
// marker — byte-identical to what an old build serialized.
std::string AsLegacy(std::string text, int version) {
  const std::string v3_header = "GDRSNAP 3";
  EXPECT_EQ(text.rfind(v3_header, 0), 0u);
  text.replace(0, v3_header.size(), "GDRSNAP " + std::to_string(version));
  const std::string marker = "end\n";
  EXPECT_TRUE(text.size() >= marker.size() &&
              text.compare(text.size() - marker.size(), marker.size(),
                           marker) == 0);
  text.erase(text.size() - marker.size());
  return text;
}

TEST(SnapshotTruncationTest, V3PrefixNeverParsesAsComplete) {
  Table table = BaseDirty();
  const RuleSet rules = TestRules();
  const SessionSnapshot full = PartialSnapshot(&table, &rules);
  const std::string text = full.Serialize();
  ASSERT_GT(text.size(), 0u);

  for (std::size_t len = 0; len < text.size(); ++len) {
    const auto parsed = SessionSnapshot::Deserialize(text.substr(0, len));
    if (parsed.ok()) {
      // The only prefix allowed to parse is one differing from the full
      // text by trailing whitespace — and then it must parse *identically*,
      // never as a shortened or value-corrupted snapshot.
      EXPECT_TRUE(SnapshotsEqual(*parsed, full))
          << "prefix of length " << len << " parsed as a different snapshot";
    }
  }
  // A cut through the final submit's hex payload is the historic silent
  // corruption; pin that it now fails outright.
  const std::size_t last_v = text.rfind(" V");
  ASSERT_NE(last_v, std::string::npos);
  EXPECT_FALSE(SessionSnapshot::Deserialize(text.substr(0, last_v + 6)).ok());
}

TEST(SnapshotTruncationTest, LegacyV1V2StillLoadAndTruncationsNeverStrand) {
  Table table = BaseDirty();
  const RuleSet rules = TestRules();
  const SessionSnapshot full = PartialSnapshot(&table, &rules);
  const std::string v3_text = full.Serialize();

  const Truth truth = BaseTruth();
  for (const int version : {1, 2}) {
    const std::string text = AsLegacy(v3_text, version);

    // The complete legacy text must load and restore to the same state.
    const auto parsed = SessionSnapshot::Deserialize(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_TRUE(SnapshotsEqual(*parsed, full));

    for (std::size_t len = 0; len < text.size(); ++len) {
      const auto prefix = SessionSnapshot::Deserialize(text.substr(0, len));
      if (!prefix.ok()) continue;  // clean rejection — the common case
      // Legacy texts have no terminator, so a tail-of-hex cut can still
      // parse. The guarantee that remains: restoring it either fails
      // cleanly or yields a *usable* session that runs to completion —
      // never a crash, never a stranded half-restored loop.
      Table replay_table = BaseDirty();
      GdrSession session(&replay_table, &rules, TestOptions());
      const Status restored = session.Restore(*prefix);
      if (!restored.ok()) {
        EXPECT_EQ(TableCells(replay_table), TableCells(BaseDirty()))
            << "failed restore of a length-" << len
            << " legacy prefix left the table mutated";
        continue;
      }
      std::vector<std::string> trace;
      Drive(&session, truth, &trace);
      EXPECT_EQ(session.state(), SessionState::kDone);
    }
  }
}

// A count in the text is bounded by the bytes after it, so a corrupt spill
// file is rejected instead of asking for an allocation that throws
// std::length_error and takes the process down.
TEST(SnapshotCountTest, OversizedCountsAreRejectedNotAllocated) {
  SessionSnapshot base;
  SessionSnapshot::Event append;
  append.kind = SessionSnapshot::Event::Kind::kAppend;
  append.rows = {{"a", "", "c"}};
  base.events.push_back(append);
  const std::string text = base.Serialize();
  const std::size_t events_at = text.find("events 1\n");
  ASSERT_NE(events_at, std::string::npos);
  const std::string header = text.substr(0, events_at);
  // The well-formed neighbour of the corrupt texts still parses.
  const auto parsed = SessionSnapshot::Deserialize(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(SnapshotsEqual(*parsed, base));

  for (const std::string& body :
       {std::string("events 4000000000000000000\nend\n"),
        std::string("events 1\nA 4000000000000000000 1 0\nV61\nend\n"),
        std::string("events 1\nA 1 4000000000000000000 0\nV61\nend\n")}) {
    const auto corrupt = SessionSnapshot::Deserialize(header + body);
    ASSERT_FALSE(corrupt.ok()) << body;
    EXPECT_EQ(corrupt.status().code(), StatusCode::kInvalidArgument) << body;
  }
}

TEST(RestoreRollbackTest, FailedRestoreLeavesSessionPristineAndRunnable) {
  const RuleSet rules = TestRules();
  Table snapshot_table = BaseDirty();
  SessionSnapshot corrupted = PartialSnapshot(&snapshot_table, &rules);
  // Flip one applied submit to "not applied": replay diverges and must
  // abort partway through — after repairs have already touched the table.
  bool flipped = false;
  for (auto& event : corrupted.events) {
    if (event.kind == SessionSnapshot::Event::Kind::kSubmit &&
        event.applied) {
      event.applied = false;
      flipped = true;
      break;
    }
  }
  ASSERT_TRUE(flipped);

  // Control: the same fixture driven fresh, no restore attempt.
  Table control_table = BaseDirty();
  GdrSession control(&control_table, &rules, TestOptions());
  ASSERT_TRUE(control.Start().ok());
  std::vector<std::string> control_trace;
  Drive(&control, BaseTruth(), &control_trace);

  Table table = BaseDirty();
  GdrSession session(&table, &rules, TestOptions());
  const Status restored = session.Restore(corrupted);
  ASSERT_FALSE(restored.ok());

  // Rollback: the table holds its pre-call contents again.
  EXPECT_EQ(TableCells(table), TableCells(BaseDirty()));

  // And the session is restartable: fresh run, identical to the control.
  ASSERT_TRUE(session.Start().ok());
  std::vector<std::string> trace;
  Drive(&session, BaseTruth(), &trace);
  EXPECT_EQ(trace, control_trace);
  EXPECT_EQ(TableCells(table), TableCells(control_table));
}

TEST(RestoreRollbackTest, FailedRestoreThenValidRestoreSucceeds) {
  const RuleSet rules = TestRules();
  Table snapshot_table = BaseDirty();
  const SessionSnapshot valid = PartialSnapshot(&snapshot_table, &rules);
  SessionSnapshot corrupted = valid;
  ASSERT_FALSE(corrupted.events.empty());
  corrupted.events.push_back(SessionSnapshot::Event{
      .kind = SessionSnapshot::Event::Kind::kSubmit,
      .update_id = 9999,  // never issued: replay rejects it
      .feedback = Feedback::kConfirm,
      .applied = true});

  Table table = BaseDirty();
  GdrSession session(&table, &rules, TestOptions());
  ASSERT_FALSE(session.Restore(corrupted).ok());

  // The rollback must leave the session eligible for another Restore —
  // the server's rehydration retry path depends on this.
  const Status second = session.Restore(valid);
  ASSERT_TRUE(second.ok()) << second.ToString();
  EXPECT_EQ(TableCells(table), TableCells(snapshot_table));
  std::vector<std::string> trace;
  Drive(&session, BaseTruth(), &trace);
  EXPECT_EQ(session.state(), SessionState::kDone);
}

TEST(FileIoTest, WriteFileAtomicRoundTripsAndReplaces) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "gdr_fileio_test" /
       "nested" / "file.bin").string();
  std::filesystem::remove_all(
      std::filesystem::temp_directory_path() / "gdr_fileio_test");

  std::string bytes = "first";
  bytes.push_back('\0');
  bytes += "\nsecond\r\n";
  ASSERT_TRUE(WriteFileAtomic(path, bytes).ok());  // creates parent dirs
  auto read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, bytes);

  ASSERT_TRUE(WriteFileAtomic(path, "replaced").ok());
  read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "replaced");

  // No temp residue after a successful write.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  EXPECT_TRUE(RemoveFileIfExists(path).ok());
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(RemoveFileIfExists(path).ok());  // missing is not an error
  EXPECT_FALSE(ReadFileToString(path).ok());
  std::filesystem::remove_all(
      std::filesystem::temp_directory_path() / "gdr_fileio_test");
}

TEST(FileIoTest, SnapshotFileSurvivesTruncatedPredecessor) {
  // The end-to-end shape of the crash-safety story: a good snapshot on
  // disk, then a simulated crash mid-rewrite (a stray half-written temp
  // file) — the original must still load.
  const auto dir = std::filesystem::temp_directory_path() / "gdr_crash_test";
  std::filesystem::remove_all(dir);
  const std::string path = (dir / "session.snapshot").string();

  Table table = BaseDirty();
  const RuleSet rules = TestRules();
  const std::string good = PartialSnapshot(&table, &rules).Serialize();
  ASSERT_TRUE(WriteFileAtomic(path, good).ok());

  {  // crash mid-write: the temp file holds a prefix, never renamed
    std::FILE* f = std::fopen((path + ".tmp").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(good.data(), 1, good.size() / 2, f);
    std::fclose(f);
  }

  const auto contents = ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(*contents, good);
  const auto parsed = SessionSnapshot::Deserialize(*contents);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();

  // And the next atomic write simply replaces the stray temp file.
  ASSERT_TRUE(WriteFileAtomic(path, good).ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace gdr
