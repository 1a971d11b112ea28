// Concurrency stress over SessionManager, written for the TSan CI matrix:
// N client threads hammer open/next/feedback/evict/snapshot/close/dump
// against overlapping (tenant, session) keys while a byte budget keeps the
// background eviction scan constantly firing. The invariants: no data
// race (TSan's job), every error is a typed client-level status (never
// kInternal/kIOError), and the final counters reconcile. Under a budget
// that forces eviction mid-run, every evicted-and-rehydrated session must
// also end exactly where a never-evicted control does.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "server/session_manager.h"

namespace gdr::server {
namespace {

OpenConfig StressConfig() {
  OpenConfig config;
  config.workload_spec = "figure1";
  config.feedback_budget = 30;
  config.seed = 11;
  return config;
}

TEST(ServerStressTest, ConcurrentClientsOnOverlappingSessions) {
  const auto spill =
      std::filesystem::temp_directory_path() / "gdr_spill_stress";
  std::filesystem::remove_all(spill);
  SessionManagerOptions options;
  options.spill_dir = spill.string();
  options.memory_budget_bytes = 1;  // evict at every opportunity
  SessionManager manager(options);

  const std::vector<SessionKey> keys = {
      {"t0", "shared-a"}, {"t0", "shared-b"}, {"t1", "shared-a"},
      {"t1", "own-c"},    {"t2", "own-d"},    {"t2", "own-e"}};

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 60;
  std::atomic<int> unexpected_errors{0};
  std::atomic<int> batches_pulled{0};

  const auto worker = [&](int thread_id) {
    std::mt19937 rng(1234u + static_cast<unsigned>(thread_id));
    const auto check = [&](const Status& status) {
      if (status.ok()) return;
      if (status.code() == StatusCode::kInternal ||
          status.code() == StatusCode::kIOError) {
        unexpected_errors.fetch_add(1);
        ADD_FAILURE() << "thread " << thread_id << ": "
                      << status.ToString();
      }
    };
    for (int op = 0; op < kOpsPerThread; ++op) {
      const SessionKey& key = keys[rng() % keys.size()];
      switch (rng() % 8) {
        case 0:
          check(manager.Open(key, StressConfig()).status());
          break;
        case 1:
        case 2: {
          const auto batch = manager.Next(key);
          check(batch.status());
          if (batch.ok() && !batch->suggestions.empty()) {
            batches_pulled.fetch_add(1);
            const WireSuggestion& s = batch->suggestions[0];
            check(manager
                      .Feedback(key, s.update_id, Feedback::kConfirm,
                                std::nullopt)
                      .status());
          }
          break;
        }
        case 3:
          check(manager
                    .Feedback(key, 1 + rng() % 20, Feedback::kReject,
                              "volunteered-" + std::to_string(rng() % 3))
                    .status());
          break;
        case 4:
          check(manager.Evict(key).status());
          break;
        case 5:
          check(manager.Snapshot(key).status());
          break;
        case 6:
          check(manager.Dump(key).status());
          break;
        case 7:
          if (rng() % 4 == 0) {
            check(manager.Close(key));
          } else {
            manager.Stats();
          }
          break;
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(unexpected_errors.load(), 0);
  EXPECT_GT(batches_pulled.load(), 0);

  // The survivors are all still serviceable (rehydrating if evicted)...
  std::size_t live = 0;
  for (const SessionKey& key : keys) {
    const auto cells = manager.Dump(key);
    if (!cells.ok()) {
      EXPECT_EQ(cells.status().code(), StatusCode::kNotFound);
      continue;
    }
    ++live;
    EXPECT_EQ(cells->size() % 6, 0u);  // whole rows of the figure1 schema
    EXPECT_TRUE(manager.Close(key).ok());
  }
  // ...and after closing them the counters reconcile to an empty server.
  const WireServerStats stats = manager.Stats();
  EXPECT_EQ(stats.resident_sessions, 0u);
  EXPECT_EQ(stats.evicted_sessions, 0u);
  EXPECT_EQ(stats.resident_bytes, 0u);
  EXPECT_GT(stats.evictions, 0u);  // the 1-byte budget fired
  std::filesystem::remove_all(spill);
}

TEST(ServerStressTest, ConcurrentOpensOfTheSameKeyAdmitExactlyOne) {
  const auto spill =
      std::filesystem::temp_directory_path() / "gdr_spill_stress_open";
  std::filesystem::remove_all(spill);
  SessionManagerOptions options;
  options.spill_dir = spill.string();
  SessionManager manager(options);

  constexpr int kThreads = 4;
  std::atomic<int> admitted{0};
  std::atomic<int> duplicates{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      const auto opened = manager.Open({"race", "same"}, StressConfig());
      if (opened.ok()) {
        admitted.fetch_add(1);
      } else if (opened.status().code() == StatusCode::kAlreadyExists) {
        duplicates.fetch_add(1);
      } else {
        ADD_FAILURE() << opened.status().ToString();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(admitted.load(), 1);
  EXPECT_EQ(duplicates.load(), kThreads - 1);
  EXPECT_TRUE(manager.Close({"race", "same"}).ok());
  std::filesystem::remove_all(spill);
}

// ---- Eviction pressure: finals vs never-evicted controls ----------------

OpenConfig PressureConfig(std::size_t index) {
  OpenConfig config;
  config.workload_spec = "figure1";
  config.seed = 5 + index;  // distinct ranking RNG per session
  config.feedback_budget = 25;
  return config;
}

// A pure function of (session index, update id), so a control re-drive
// replays the exact answers without sharing state with the load threads.
struct PolicyAnswer {
  Feedback feedback;
  std::optional<std::string> value;
};

PolicyAnswer PolicyFor(std::size_t index, std::uint64_t update_id) {
  const std::uint64_t h = (index * 2654435761ull) ^ (update_id * 40503ull);
  const std::uint64_t roll = h % 100;
  if (roll < 55) return {Feedback::kConfirm, std::nullopt};
  if (roll < 80) return {Feedback::kRetain, std::nullopt};
  return {Feedback::kReject, "vol-" + std::to_string(h % 7)};
}

// Drives one session to done, forcing an eviction before a pull with
// probability `evict_chance_pct`. Returns the first failure, or "".
std::string DriveSession(SessionManager* manager, const SessionKey& key,
                         std::size_t index, int evict_chance_pct) {
  std::mt19937_64 evict_rng(9000 + index);
  for (int guard = 0; guard < 500; ++guard) {
    if (evict_chance_pct > 0 &&
        evict_rng() % 100 < static_cast<std::uint64_t>(evict_chance_pct)) {
      const auto evicted = manager->Evict(key);
      if (!evicted.ok()) return "evict: " + evicted.status().ToString();
    }
    const auto batch = manager->Next(key);
    if (!batch.ok()) return "next: " + batch.status().ToString();
    if (batch->suggestions.empty()) {
      return batch->state == "done" ? ""
                                    : "empty batch in state " + batch->state;
    }
    for (const WireSuggestion& s : batch->suggestions) {
      const PolicyAnswer answer = PolicyFor(index, s.update_id);
      const auto outcome =
          manager->Feedback(key, s.update_id, answer.feedback, answer.value);
      if (!outcome.ok()) return "feedback: " + outcome.status().ToString();
    }
  }
  return "session did not terminate within the step guard";
}

TEST(ServerStressTest, EvictionPressureFinalsMatchNeverEvictedControls) {
  constexpr std::size_t kSessions = 100;
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kProbes = 8;
  const auto spill =
      std::filesystem::temp_directory_path() / "gdr_spill_pressure";
  std::filesystem::remove_all(spill);
  SessionManagerOptions options;
  options.spill_dir = spill.string();
  options.memory_budget_bytes = 262144;
  options.max_sessions = kSessions + 8;
  SessionManager manager(options);
  const auto key_for = [](std::size_t i) {
    return SessionKey{"tenant" + std::to_string(i % 7),
                      "s" + std::to_string(i)};
  };

  // The load: client threads claim sessions and drive each to completion,
  // with forced evictions on top of whatever the byte budget evicts.
  std::vector<std::string> failures(kSessions);
  std::atomic<std::size_t> next_session{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = next_session.fetch_add(1); i < kSessions;
           i = next_session.fetch_add(1)) {
        const auto opened = manager.Open(key_for(i), PressureConfig(i));
        failures[i] = opened.ok()
                          ? DriveSession(&manager, key_for(i), i,
                                         /*evict_chance_pct=*/20)
                          : "open: " + opened.status().ToString();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t i = 0; i < kSessions; ++i) {
    EXPECT_EQ(failures[i], "") << "session " << i;
  }
  const WireServerStats stats = manager.Stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.rehydrations, 0u);

  // Re-drive the probes in a manager that never evicts: same config, same
  // answers, so the final tables must be bit-identical.
  SessionManagerOptions control_options;
  control_options.spill_dir = spill.string() + "_control";
  control_options.max_sessions = kProbes + 1;
  SessionManager control(control_options);
  for (std::size_t i = 0; i < kProbes; ++i) {
    const SessionKey key = key_for(i);
    ASSERT_TRUE(control.Open(key, PressureConfig(i)).ok());
    ASSERT_EQ(DriveSession(&control, key, i, /*evict_chance_pct=*/0), "");
    const auto loaded = manager.Dump(key);
    const auto expected = control.Dump(key);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    EXPECT_EQ(*loaded, *expected) << "session " << i;
  }
  std::filesystem::remove_all(spill);
  std::filesystem::remove_all(spill.string() + "_control");
}

}  // namespace
}  // namespace gdr::server
