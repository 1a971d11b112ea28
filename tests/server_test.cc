// The service layer: SessionManager semantics behind the BackendOps
// vtable, the line protocol over it, and the load-bearing differential —
// a session evicted to disk and rehydrated mid-run must finish with
// finals bit-identical to a never-evicted control.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "server/protocol.h"
#include "server/session_manager.h"
#include "util/strings.h"

namespace gdr::server {
using gdr::EncodeHex;
namespace {

std::string TempSpillDir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  return dir.string();
}

SessionManagerOptions TestOptions(const std::string& spill_name) {
  SessionManagerOptions options;
  options.spill_dir = TempSpillDir(spill_name);
  return options;
}

OpenConfig Figure1Config() {
  OpenConfig config;
  config.workload_spec = "figure1";
  config.feedback_budget = 40;  // bounds every drive
  config.seed = 7;
  return config;
}

// Ground-truth-free deterministic policy, a pure function of the update
// id: the point is identical event sequences across control and evicted
// sessions, not repair quality.
struct WirePolicy {
  Feedback feedback = Feedback::kConfirm;
  std::optional<std::string> value;
};

WirePolicy PolicyFor(std::uint64_t update_id) {
  if (update_id % 5 == 0) {
    return {Feedback::kReject, "vol-" + std::to_string(update_id)};
  }
  if (update_id % 3 == 0) return {Feedback::kRetain, std::nullopt};
  return {Feedback::kConfirm, std::nullopt};
}

// Drives the session to kDone through the backend. When `evict_between`
// is set, the session is forced to disk before every pull *and* between
// delivery and feedback — the adversarial placement: rehydration must
// resurrect the outstanding batch with live update ids.
void DriveToDone(const Backend& backend, const SessionKey& key,
                 bool evict_between) {
  for (int guard = 0;; ++guard) {
    ASSERT_LT(guard, 300) << "session did not terminate";
    if (evict_between) {
      const auto evicted = backend.ops->evict(backend.self, key);
      ASSERT_TRUE(evicted.ok()) << evicted.status().ToString();
    }
    const auto batch = backend.ops->next(backend.self, key);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    if (batch->suggestions.empty()) {
      EXPECT_EQ(batch->state, "done");
      break;
    }
    bool first = true;
    for (const WireSuggestion& s : batch->suggestions) {
      if (evict_between && first) {
        // Mid-batch eviction: feedback lands on a rehydrated session.
        const auto evicted = backend.ops->evict(backend.self, key);
        ASSERT_TRUE(evicted.ok()) << evicted.status().ToString();
        first = false;
      }
      const WirePolicy policy = PolicyFor(s.update_id);
      const auto outcome = backend.ops->feedback(
          backend.self, key, s.update_id, policy.feedback, policy.value);
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    }
  }
}

TEST(ValidateIdTest, AcceptsTheGrammarRejectsTheRest) {
  EXPECT_TRUE(ValidateId("tenant-1", "id").ok());
  EXPECT_TRUE(ValidateId("a.b_c-D9", "id").ok());
  EXPECT_TRUE(ValidateId(std::string(64, 'x'), "id").ok());
  EXPECT_FALSE(ValidateId("", "id").ok());
  EXPECT_FALSE(ValidateId(std::string(65, 'x'), "id").ok());
  EXPECT_FALSE(ValidateId("a b", "id").ok());
  EXPECT_FALSE(ValidateId("a/b", "id").ok());  // no path traversal
  // Dots are legal: the id is always embedded in "<tenant>__<session>.
  // snapshot", never used as a bare path component, so ".." cannot escape.
  EXPECT_TRUE(ValidateId("..", "id").ok());
  EXPECT_FALSE(ValidateId("a\nb", "id").ok());
  const Status bad = ValidateId("a/b", "tenant id");
  EXPECT_NE(bad.message().find("tenant id"), std::string::npos);
}

TEST(SessionManagerTest, OpenNextFeedbackCloseLifecycle) {
  SessionManager manager(TestOptions("gdr_spill_lifecycle"));
  const SessionKey key{"acme", "s1"};
  const auto opened = manager.Open(key, Figure1Config());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->state, "ranking");
  EXPECT_EQ(opened->initial_dirty, 5u);  // 4 corrupted + 1 implicated row
  EXPECT_GT(opened->pool_size, 0u);

  const auto batch = manager.Next(key);
  ASSERT_TRUE(batch.ok());
  ASSERT_FALSE(batch->suggestions.empty());
  EXPECT_EQ(batch->state, "awaiting-feedback");
  const WireSuggestion& s = batch->suggestions[0];
  EXPECT_GT(s.update_id, 0u);
  EXPECT_FALSE(s.attr.empty());
  EXPECT_NE(s.current_value, s.suggested_value);

  const auto outcome =
      manager.Feedback(key, s.update_id, Feedback::kConfirm, std::nullopt);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->outcome, "applied");

  const auto cells = manager.Dump(key);
  ASSERT_TRUE(cells.ok());
  EXPECT_EQ(cells->size(), 36u);  // 6 rows x 6 attrs

  EXPECT_TRUE(manager.Close(key).ok());
  EXPECT_FALSE(manager.Next(key).ok());  // gone
}

TEST(SessionManagerTest, ErrorsAreTyped) {
  SessionManager manager(TestOptions("gdr_spill_errors"));
  const SessionKey key{"acme", "s1"};

  EXPECT_EQ(manager.Next(key).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(manager.Open({"bad tenant", "s"}, Figure1Config()).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(manager.Open({"t", "s/../../etc"}, Figure1Config())
                .status().code(),
            StatusCode::kInvalidArgument);

  OpenConfig bad_workload = Figure1Config();
  bad_workload.workload_spec = "no-such-workload";
  EXPECT_FALSE(manager.Open(key, bad_workload).ok());
  // A failed open leaves no residue: the key is free again.
  ASSERT_TRUE(manager.Open(key, Figure1Config()).ok());
  EXPECT_EQ(manager.Open(key, Figure1Config()).status().code(),
            StatusCode::kAlreadyExists);

  OpenConfig bad_strategy = Figure1Config();
  bad_strategy.strategy = "no-such-strategy";
  EXPECT_FALSE(manager.Open({"acme", "s2"}, bad_strategy).ok());

  EXPECT_EQ(manager.Feedback(key, 999, Feedback::kConfirm, std::nullopt)
                .ValueOrDie()
                .outcome,
            "unknown-id");
}

TEST(SessionManagerTest, AdmissionCapRejectsBeyondMaxSessions) {
  SessionManagerOptions options = TestOptions("gdr_spill_cap");
  options.max_sessions = 2;
  SessionManager manager(options);
  ASSERT_TRUE(manager.Open({"t", "s1"}, Figure1Config()).ok());
  ASSERT_TRUE(manager.Open({"t", "s2"}, Figure1Config()).ok());
  EXPECT_EQ(manager.Open({"t", "s3"}, Figure1Config()).status().code(),
            StatusCode::kFailedPrecondition);
  // Closing one frees a slot.
  ASSERT_TRUE(manager.Close({"t", "s1"}).ok());
  EXPECT_TRUE(manager.Open({"t", "s3"}, Figure1Config()).ok());
}

TEST(SessionManagerTest, EvictedAndRehydratedMatchesResidentControl) {
  SessionManager manager(TestOptions("gdr_spill_differential"));
  const Backend backend = MakeSessionManagerBackend(&manager);
  const SessionKey control{"diff", "control"};
  const SessionKey churned{"diff", "churned"};
  ASSERT_TRUE(manager.Open(control, Figure1Config()).ok());
  ASSERT_TRUE(manager.Open(churned, Figure1Config()).ok());

  DriveToDone(backend, control, /*evict_between=*/false);
  DriveToDone(backend, churned, /*evict_between=*/true);

  const auto control_cells = manager.Dump(control);
  const auto churned_cells = manager.Dump(churned);
  ASSERT_TRUE(control_cells.ok());
  ASSERT_TRUE(churned_cells.ok());
  EXPECT_EQ(*churned_cells, *control_cells)
      << "eviction/rehydration changed the repair outcome";

  const WireServerStats stats = manager.Stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.rehydrations, 0u);
}

TEST(SessionManagerTest, MemoryBudgetEvictsColdSessionsTransparently) {
  // A budget below one session's footprint: the manager must thrash
  // sessions to disk behind the scenes while every call still succeeds.
  SessionManagerOptions options = TestOptions("gdr_spill_budget");
  options.memory_budget_bytes = 1;
  SessionManager manager(options);
  const Backend backend = MakeSessionManagerBackend(&manager);
  const std::vector<SessionKey> keys = {
      {"t", "a"}, {"t", "b"}, {"t", "c"}};
  for (const SessionKey& key : keys) {
    ASSERT_TRUE(manager.Open(key, Figure1Config()).ok());
  }
  for (const SessionKey& key : keys) {
    DriveToDone(backend, key, /*evict_between=*/false);
  }
  EXPECT_GT(manager.Stats().evictions, 0u);

  // Same drive on an unconstrained manager: identical finals.
  SessionManager unconstrained(TestOptions("gdr_spill_budget_control"));
  const Backend control = MakeSessionManagerBackend(&unconstrained);
  ASSERT_TRUE(unconstrained.Open(keys[0], Figure1Config()).ok());
  DriveToDone(control, keys[0], /*evict_between=*/false);
  EXPECT_EQ(unconstrained.Stats().evictions, 0u);
  for (const SessionKey& key : keys) {
    EXPECT_EQ(*manager.Dump(key), *unconstrained.Dump(keys[0]));
  }
}

TEST(SessionManagerTest, CloseDropsTheSpillFile) {
  SessionManagerOptions options = TestOptions("gdr_spill_close");
  SessionManager manager(options);
  const SessionKey key{"t", "s"};
  ASSERT_TRUE(manager.Open(key, Figure1Config()).ok());
  ASSERT_TRUE(manager.Evict(key).ok());
  const std::string spill =
      (std::filesystem::path(options.spill_dir) / "t__s.snapshot").string();
  EXPECT_TRUE(std::filesystem::exists(spill));
  ASSERT_TRUE(manager.Close(key).ok());
  EXPECT_FALSE(std::filesystem::exists(spill));
}

// ---------------------------------------------------------------------------
// The line protocol.
// ---------------------------------------------------------------------------

std::vector<std::string> RunScript(const std::string& script,
                                   const std::string& spill_name) {
  SessionManager manager(TestOptions(spill_name));
  const Backend backend = MakeSessionManagerBackend(&manager);
  std::istringstream in(script);
  std::ostringstream out;
  ServerLoop(backend, in, out);
  std::vector<std::string> lines;
  std::istringstream replies(out.str());
  std::string line;
  while (std::getline(replies, line)) lines.push_back(line);
  return lines;
}

TEST(ProtocolTest, ScriptedSessionSpeaksTheGrammar) {
  const auto lines = RunScript(
      "open acme s1 figure1 seed=7 budget=40\n"
      "# a comment, ignored without reply\n"
      "\n"
      "next acme s1\n"
      "stats\n"
      "snapshot acme s1\n"
      "evict acme s1\n"
      "close acme s1\n"
      "quit\n",
      "gdr_spill_protocol");
  ASSERT_GE(lines.size(), 7u);
  EXPECT_EQ(lines[0], "OK state=ranking dirty=5 pool=10");
  EXPECT_EQ(lines[1].rfind("OK state=awaiting-feedback n=", 0), 0u);
  // The counted suggestion lines follow the next-header.
  EXPECT_EQ(lines[2].rfind("S ", 0), 0u);
  std::size_t i = 2;
  while (i < lines.size() && lines[i].rfind("S ", 0) == 0) ++i;
  EXPECT_EQ(lines[i].rfind("OK resident=1 evicted=0", 0), 0u);
  EXPECT_EQ(lines[i + 1].rfind("OK bytes=", 0), 0u);  // snapshot
  EXPECT_EQ(lines[i + 2].rfind("OK bytes=", 0), 0u);  // evict
  EXPECT_EQ(lines[i + 3], "OK closed");
  EXPECT_EQ(lines[i + 4], "OK bye");
}

TEST(ProtocolTest, StatsReplyCarriesRetrainCounters) {
  const auto lines = RunScript("stats\nquit\n", "gdr_spill_protocol_stats");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find(" learner-train-s=0 learner-trains=0"),
            std::string::npos)
      << lines[0];
}

TEST(ProtocolTest, StatsReplyCarriesRegenerationCounters) {
  // Opening a session seeds its pool through the update generator, so a
  // resident session contributes a positive call count.
  const auto lines = RunScript(
      "stats\n"
      "open acme s1 figure1 seed=7 budget=40\n"
      "stats\n"
      "quit\n",
      "gdr_spill_protocol_regen");
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_NE(lines[0].find(" regenerate-s=0 regenerations=0"),
            std::string::npos)
      << lines[0];
  const std::size_t at = lines[2].find(" regenerations=");
  ASSERT_NE(at, std::string::npos) << lines[2];
  EXPECT_NE(lines[2].find(" regenerate-s="), std::string::npos) << lines[2];
  EXPECT_GT(std::stoull(lines[2].substr(at + 15)), 0u) << lines[2];
}

TEST(ProtocolTest, StatsReplyCarriesVoiReprobes) {
  const auto lines = RunScript(
      "stats\n"
      "open acme s1 figure1 seed=7 budget=40\n"
      "next acme s1\n"
      "stats\n"
      "quit\n",
      "gdr_spill_protocol_reprobes");
  ASSERT_GE(lines.size(), 4u);
  EXPECT_NE(lines.front().find(
                " voi-probes=0 voi-reprobes=0 p-reuses=0 learner-train-s="),
            std::string::npos)
      << lines.front();
  // The pull ranked the session's pool once, probing every update.
  const std::string& after_pull = lines[lines.size() - 2];
  const std::size_t probes = after_pull.find(" voi-probes=");
  const std::size_t reprobes = after_pull.find(" voi-reprobes=");
  ASSERT_NE(probes, std::string::npos) << after_pull;
  ASSERT_NE(reprobes, std::string::npos) << after_pull;
  EXPECT_GT(std::stoull(after_pull.substr(reprobes + 14)), 0u) << after_pull;
  EXPECT_EQ(std::stoull(after_pull.substr(reprobes + 14)),
            std::stoull(after_pull.substr(probes + 12)))
      << after_pull;
}

// A GDR session on Dataset 1 trains its learner and keeps re-ranking; the
// ranking p̃ values it reuses rather than evaluates show in `stats`,
// between voi-reprobes= and learner-train-s=.
TEST(ProtocolTest, StatsReplyCarriesPReuses) {
  SessionManager manager(TestOptions("gdr_spill_protocol_preuses"));
  const Backend backend = MakeSessionManagerBackend(&manager);
  const SessionKey key{"acme", "s1"};
  OpenConfig config;
  config.workload_spec = "dataset1:records=300";
  config.strategy = "GDR";
  config.feedback_budget = 150;
  config.seed = 7;
  ASSERT_TRUE(manager.Open(key, config).ok());
  ASSERT_NO_FATAL_FAILURE(DriveToDone(backend, key, /*evict_between=*/false));
  std::string reply;
  HandleCommand(backend, "stats", &reply);
  const std::size_t reprobes = reply.find(" voi-reprobes=");
  const std::size_t reuses = reply.find(" p-reuses=");
  const std::size_t trains = reply.find(" learner-train-s=");
  ASSERT_NE(reuses, std::string::npos) << reply;
  EXPECT_LT(reprobes, reuses) << reply;
  EXPECT_LT(reuses, trains) << reply;
  EXPECT_GT(std::stoull(reply.substr(reuses + 10)), 0u) << reply;
}

// A workload spec the generator cannot serve is an error reply, and the
// server goes on serving: zero hospitals used to crash Dataset 1's
// generator, and a non-finite volume skew put every row in one hospital.
TEST(ProtocolTest, OpenRejectsUnservableDataset1Specs) {
  const auto lines = RunScript(
      "open acme s1 dataset1:records=50,hospitals=0\n"
      "open acme s2 dataset1:records=50,volume_skew=nan\n"
      "open acme s3 figure1 seed=7 budget=40\n"
      "next acme s3\n"
      "quit\n",
      "gdr_spill_protocol_bad_spec");
  ASSERT_GE(lines.size(), 4u);
  EXPECT_EQ(lines[0].rfind("ERR InvalidArgument", 0), 0u) << lines[0];
  EXPECT_NE(lines[0].find("hospitals"), std::string::npos) << lines[0];
  EXPECT_EQ(lines[1].rfind("ERR InvalidArgument", 0), 0u) << lines[1];
  EXPECT_NE(lines[1].find("volume_skew"), std::string::npos) << lines[1];
  EXPECT_EQ(lines[2].rfind("OK", 0), 0u) << lines[2];
  EXPECT_EQ(lines[3].rfind("OK", 0), 0u) << lines[3];
}

TEST(ProtocolTest, StatsReplyEndsWithGroupingTime) {
  const auto lines = RunScript(
      "stats\n"
      "open acme s1 figure1 seed=7 budget=40\n"
      "next acme s1\n"
      "stats\n"
      "quit\n",
      "gdr_spill_protocol_grouping");
  ASSERT_GE(lines.size(), 4u);
  EXPECT_NE(lines.front().find(" regenerations=0 grouping-s=0"),
            std::string::npos)
      << lines.front();
  // The pull started an iteration, which grouped the session's pool.
  const std::string& after_pull = lines[lines.size() - 2];
  const std::size_t at = after_pull.find(" grouping-s=");
  ASSERT_NE(at, std::string::npos) << after_pull;
  EXPECT_GT(std::stod(after_pull.substr(at + 12)), 0.0) << after_pull;
}

TEST(ProtocolTest, StatsReplyCarriesRestoreMs) {
  const auto lines = RunScript(
      "stats\n"
      "open acme s1 figure1 seed=7 budget=40\n"
      "evict acme s1\n"
      "stats\n"
      "dump acme s1\n"
      "stats\n"
      "quit\n",
      "gdr_spill_protocol_restore");
  ASSERT_GE(lines.size(), 5u);
  EXPECT_NE(lines.front().find(" rehydrations=0 restore-ms=0 "),
            std::string::npos)
      << lines.front();
  // Evicting restores nothing; the dump rehydrated the session once.
  EXPECT_NE(lines[3].find(" rehydrations=0 restore-ms=0 "), std::string::npos)
      << lines[3];
  const std::string& after_dump = lines[lines.size() - 2];
  EXPECT_NE(after_dump.find(" rehydrations=1 restore-ms="), std::string::npos)
      << after_dump;
  const std::size_t at = after_dump.find(" restore-ms=");
  ASSERT_NE(at, std::string::npos) << after_dump;
  EXPECT_GT(std::stod(after_dump.substr(at + 12)), 0.0) << after_dump;
  // grouping-s stays the reply's last field.
  EXPECT_LT(at, after_dump.find(" grouping-s=")) << after_dump;
}

TEST(ProtocolTest, MalformedInputGetsTypedErrorsNeverCrashes) {
  const auto lines = RunScript(
      "bogus\n"
      "open\n"
      "open acme s1\n"
      "open acme s1 no-such-workload\n"
      "open acme s1 figure1 seed=NaN\n"
      "open acme s1 figure1 seed=-1\n"
      "open acme s1 figure1 ns=0\n"
      "open acme s1 figure1 frobnicate=1\n"
      "next acme missing\n"
      "feedback acme s1 12x confirm\n"
      "feedback acme s1 1 maybe\n"
      "feedback acme s1 1 reject zz\n"
      "append acme s1 nothex\n"
      // Out of int range: rejected before narrowing, not wrapped to 0/INT_MIN.
      "open acme s1 figure1 ns=4294967296\n"
      "open acme s1 figure1 max-outer=4294967296\n"
      "open acme s1 figure1 ns=2147483648\n"
      "quit\n",
      "gdr_spill_protocol_errors");
  ASSERT_EQ(lines.size(), 17u);
  for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
    EXPECT_EQ(lines[i].rfind("ERR ", 0), 0u) << lines[i];
  }
  EXPECT_EQ(lines[8].rfind("ERR NotFound", 0), 0u);
  EXPECT_EQ(lines[9].rfind("ERR InvalidArgument", 0), 0u);   // "12x"
  EXPECT_NE(lines[9].find("12x"), std::string::npos);
  for (std::size_t i = 13; i < 16; ++i) {
    EXPECT_EQ(lines[i].rfind("ERR InvalidArgument", 0), 0u) << lines[i];
  }
  EXPECT_EQ(lines[16], "OK bye");
}

TEST(ProtocolTest, AppendCarriesArbitraryBytesInHex) {
  SessionManager manager(TestOptions("gdr_spill_append"));
  const Backend backend = MakeSessionManagerBackend(&manager);
  std::string reply;
  ASSERT_TRUE(HandleCommand(backend, "open t s figure1", &reply));

  // A seventh customer contradicting phi1 (ZIP=46360 -> CT=Michigan City),
  // cells hex-encoded: Gil|H2|Oak Ave|Michigan Cty|IN|46360.
  const auto hex_row = [](const std::vector<std::string>& cells) {
    std::string row;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i > 0) row += ",";
      row += EncodeHex(cells[i]);
    }
    return row;
  };
  reply.clear();
  ASSERT_TRUE(HandleCommand(
      backend,
      "append t s " + hex_row({"Gil", "H2", "Oak Ave", "Michigan Cty", "IN",
                               "46360"}),
      &reply));
  EXPECT_EQ(reply, "OK appended=1 newly-dirty=1 revived=0\n");

  // Arity mismatch is a typed error, not a crash.
  reply.clear();
  ASSERT_TRUE(HandleCommand(
      backend, "append t s " + hex_row({"too", "short"}), &reply));
  EXPECT_EQ(reply.rfind("ERR ", 0), 0u);

  // The appended row round-trips through dump (7 rows now).
  reply.clear();
  ASSERT_TRUE(HandleCommand(backend, "dump t s", &reply));
  EXPECT_EQ(reply.rfind("OK n=42\n", 0), 0u);
  EXPECT_NE(reply.find("C " + EncodeHex("Gil")), std::string::npos);
}

TEST(ProtocolTest, QuitStopsTheLoop) {
  SessionManager manager(TestOptions("gdr_spill_quit"));
  const Backend backend = MakeSessionManagerBackend(&manager);
  std::string reply;
  EXPECT_FALSE(HandleCommand(backend, "quit", &reply));
  EXPECT_EQ(reply, "OK bye\n");

  std::istringstream in("stats\nquit\nstats\n");
  std::ostringstream out;
  EXPECT_EQ(ServerLoop(backend, in, out), 2u);  // the trailing stats never ran
}

}  // namespace
}  // namespace gdr::server
