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
      "quit\n",
      "gdr_spill_protocol_errors");
  ASSERT_EQ(lines.size(), 14u);
  for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
    EXPECT_EQ(lines[i].rfind("ERR ", 0), 0u) << lines[i];
  }
  EXPECT_EQ(lines[8].rfind("ERR NotFound", 0), 0u);
  EXPECT_EQ(lines[9].rfind("ERR InvalidArgument", 0), 0u);   // "12x"
  EXPECT_NE(lines[9].find("12x"), std::string::npos);
  EXPECT_EQ(lines[13], "OK bye");
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
