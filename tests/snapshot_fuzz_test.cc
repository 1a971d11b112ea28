// Deterministic fuzzing of the snapshot boundary. A corpus of real
// snapshots — the checked-in version-3 event log written by an earlier
// build and version-4 checkpoints of scripted GDR and Active-Learning
// sessions (mid-batch, after an append, with trained forests) — is
// mutated by byte flips, truncations, inflated counts and splices under a
// fixed seed and iteration budget. For every mutant:
//  - no exception escapes Deserialize or Restore;
//  - an accepted text is canonical after one Serialize: serializing its
//    parse again reproduces the same bytes (and the unmutated corpus
//    round-trips exactly);
//  - a failed Restore rolls back fully: the table holds the original
//    dirty cells and the session starts fresh exactly like a new one;
//  - a successful Restore leaves a session that snapshots and pulls.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/session.h"
#include "testing/scripted_user.h"
#include "util/fileio.h"
#include "util/rng.h"
#include "workload/registry.h"

namespace gdr {
namespace {

using testing::TableCells;

constexpr std::uint64_t kFuzzSeed = 0x5EED2024ULL;
constexpr int kMutantsPerText = 400;

struct CorpusItem {
  std::string name;
  std::string text;
  std::shared_ptr<const testing::ScriptedInput> input;
  GdrOptions options;
  std::vector<std::string> fresh_first_batch;  // a new session's first pull
};

std::vector<std::string> FirstBatch(GdrSession* session) {
  std::vector<std::string> out;
  const auto batch = session->NextBatch();
  if (!batch.ok()) return {"error: " + batch.status().ToString()};
  for (const SuggestedUpdate& s : *batch) {
    out.push_back(std::to_string(s.update_id) + " " +
                  std::to_string(s.update.row) + " " +
                  std::to_string(s.update.attr) + " " +
                  std::to_string(s.update.value));
  }
  return out;
}

std::shared_ptr<const testing::ScriptedInput> Input(const std::string& spec) {
  Result<Dataset> dataset = WorkloadRegistry::Global().Resolve(spec);
  EXPECT_TRUE(dataset.ok()) << dataset.status().ToString();
  return std::make_shared<const testing::ScriptedInput>(
      testing::MakeScriptedInput(std::move(*dataset)));
}

void Finish(CorpusItem* item) {
  Table table = item->input->dataset.dirty;
  GdrSession fresh(&table, &item->input->dataset.rules, item->options);
  EXPECT_TRUE(fresh.Start().ok());
  item->fresh_first_batch = FirstBatch(&fresh);
}

// A scripted session's own snapshot, taken mid-batch at `pull`.
CorpusItem Checkpointed(const std::string& spec, Strategy strategy,
                        int pull) {
  CorpusItem item;
  item.name = spec + " " + StrategyName(strategy);
  item.input = Input(spec);
  item.options.strategy = strategy;
  item.options.seed = 7;
  item.options.feedback_budget = 60;
  Table table = item.input->dataset.dirty;
  GdrSession session(&table, &item.input->dataset.rules, item.options);
  EXPECT_TRUE(session.Start().ok());
  EXPECT_TRUE(testing::DriveScripted(&session, *item.input, 0, [&](int at) {
                if (at == pull && item.text.empty()) {
                  item.text = session.Snapshot().Serialize();
                }
              }).ok());
  EXPECT_EQ(item.text.rfind("GDRSNAP 4\n", 0), 0u) << item.name;
  Finish(&item);
  return item;
}

std::vector<CorpusItem> Corpus() {
  std::vector<CorpusItem> corpus;
  CorpusItem v3;
  v3.name = "v3 golden";
  const auto text = ReadFileToString(std::string(GDR_TEST_GOLDEN_DIR) +
                                     "/snapshot_v3_gdr_dataset1.txt");
  EXPECT_TRUE(text.ok());
  v3.text = text.ok() ? *text : std::string();
  v3.input = Input("dataset1:records=400,seed=5");
  v3.options.strategy = Strategy::kGdr;
  v3.options.seed = 5;
  v3.options.feedback_budget = 150;
  Finish(&v3);
  corpus.push_back(std::move(v3));
  corpus.push_back(
      Checkpointed("dataset1:records=150,seed=9", Strategy::kGdr, 10));
  corpus.push_back(Checkpointed("dataset2:records=150,seed=9",
                                Strategy::kActiveLearning, 9));
  return corpus;
}

// Offsets of the maximal decimal digit runs in `text`.
std::vector<std::pair<std::size_t, std::size_t>> DigitRuns(
    const std::string& text) {
  std::vector<std::pair<std::size_t, std::size_t>> runs;
  for (std::size_t i = 0; i < text.size();) {
    if (text[i] < '0' || text[i] > '9') {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < text.size() && text[j] >= '0' && text[j] <= '9') ++j;
    runs.emplace_back(i, j - i);
    i = j;
  }
  return runs;
}

std::string Mutate(const std::vector<CorpusItem>& corpus,
                   const std::string& text,
                   const std::vector<std::pair<std::size_t, std::size_t>>& runs,
                   Rng* rng) {
  static constexpr char kAlphabet[] = "0123456789abcdefxV- \nAPSX";
  std::string out = text;
  switch (rng->NextBounded(4)) {
    case 0: {  // byte flips
      const int flips = 1 + static_cast<int>(rng->NextBounded(3));
      for (int i = 0; i < flips && !out.empty(); ++i) {
        out[rng->NextBounded(out.size())] =
            kAlphabet[rng->NextBounded(sizeof(kAlphabet) - 1)];
      }
      break;
    }
    case 1:  // truncation
      out.resize(rng->NextBounded(out.size() + 1));
      break;
    case 2: {  // count inflation (or deflation)
      static const char* kNumbers[] = {
          "0", "1", "2", "255", "65536", "4000000000000000000",
          "18446744073709551615", "99999999999999999999999"};
      if (runs.empty()) break;
      const auto [at, len] = runs[rng->NextBounded(runs.size())];
      out.replace(at, len,
                  kNumbers[rng->NextBounded(sizeof(kNumbers) /
                                            sizeof(kNumbers[0]))]);
      break;
    }
    default: {  // splice a piece of some corpus text over a random range
      const std::string& donor = corpus[rng->NextBounded(corpus.size())].text;
      const std::size_t from = rng->NextBounded(donor.size() + 1);
      const std::size_t len = rng->NextBounded(donor.size() - from + 1);
      const std::size_t at = rng->NextBounded(out.size() + 1);
      const std::size_t cut = rng->NextBounded(out.size() - at + 1);
      out.replace(at, cut, donor.substr(from, std::min<std::size_t>(len, 400)));
      break;
    }
  }
  return out;
}

TEST(SnapshotFuzzTest, CorpusRoundTripsExactly) {
  for (const CorpusItem& item : Corpus()) {
    const auto parsed = SessionSnapshot::Deserialize(item.text);
    ASSERT_TRUE(parsed.ok()) << item.name << ": "
                             << parsed.status().ToString();
    EXPECT_EQ(parsed->Serialize(), item.text) << item.name;
    Table table = item.input->dataset.dirty;
    GdrSession session(&table, &item.input->dataset.rules, item.options);
    const Status restored = session.Restore(*parsed);
    EXPECT_TRUE(restored.ok()) << item.name << ": " << restored.ToString();
  }
}

TEST(SnapshotFuzzTest, MutantsNeverThrowAndFailedRestoresRollBack) {
  const std::vector<CorpusItem> corpus = Corpus();
  Rng rng(kFuzzSeed);
  std::size_t accepted = 0, restored = 0, rolled_back = 0;
  for (const CorpusItem& item : corpus) {
    const std::vector<std::string> dirty_cells =
        TableCells(item.input->dataset.dirty);
    const auto runs = DigitRuns(item.text);
    for (int i = 0; i < kMutantsPerText; ++i) {
      const std::string mutant = Mutate(corpus, item.text, runs, &rng);
      const std::string label = item.name + " mutant " + std::to_string(i);
      std::optional<SessionSnapshot> parsed;
      try {
        Result<SessionSnapshot> result = SessionSnapshot::Deserialize(mutant);
        if (result.ok()) parsed = std::move(*result);
      } catch (const std::exception& e) {
        ADD_FAILURE() << label << ": Deserialize threw " << e.what();
        continue;
      }
      if (!parsed.has_value()) continue;
      ++accepted;

      const std::string canonical = parsed->Serialize();
      const auto reparsed = SessionSnapshot::Deserialize(canonical);
      ASSERT_TRUE(reparsed.ok()) << label << ": "
                                 << reparsed.status().ToString();
      EXPECT_EQ(reparsed->Serialize(), canonical) << label;

      Table table = item.input->dataset.dirty;
      GdrSession session(&table, &item.input->dataset.rules, item.options);
      Status status;
      try {
        status = session.Restore(*parsed);
      } catch (const std::exception& e) {
        ADD_FAILURE() << label << ": Restore threw " << e.what();
        continue;
      }
      if (status.ok()) {
        ++restored;
        EXPECT_TRUE(
            SessionSnapshot::Deserialize(session.Snapshot().Serialize()).ok())
            << label;
        if (session.state() != SessionState::kDone) {
          EXPECT_TRUE(session.NextBatch().ok()) << label;
        }
        continue;
      }
      ++rolled_back;
      ASSERT_EQ(TableCells(table), dirty_cells) << label;
      ASSERT_TRUE(session.Start().ok()) << label;
      EXPECT_EQ(FirstBatch(&session), item.fresh_first_batch) << label;
    }
  }
  // The budget reached every outcome.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(restored, 0u);
  EXPECT_GT(rolled_back, 0u);
}

}  // namespace
}  // namespace gdr
