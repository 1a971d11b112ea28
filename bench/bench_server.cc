// Server load driver: N concurrent repair sessions multiplexed through one
// SessionManager under a resident-memory budget small enough to force
// eviction, driven to completion by parallel client threads issuing
// randomized pull / feedback / forced-evict traffic.
//
// Numbers that matter: sessions/sec end-to-end (open -> done across the
// fleet), NextBatch latency p50/p99 (the interactive-path metric), and the
// eviction/rehydration counts (proof the budget actually engaged).
//
// Self-check (the CI gate): a sample of the evicted-and-rehydrated
// sessions is re-driven — identical config, identical feedback policy —
// in an unconstrained control manager that never evicts, and the final
// table cells must be bit-identical. Any divergence exits 2.
//
// Emits BENCH_server.json. Absolute throughput is hardware-dependent; the
// portable signals are finals_match and evictions/rehydrations > 0.
//
// Flags: --sessions=N (default 120) --threads=N client threads (default 4)
//        --budget-bytes=N (default 262144; 0 disables eviction)
//        --feedback-budget=N per session (default 25) --seed=S (default 5)
//        --spill-dir=DIR (default gdr_bench_spill)
//        --out=PATH (default BENCH_server.json)
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "server/session_manager.h"
#include "util/stopwatch.h"

namespace gdr::server {
namespace {

struct DriveResult {
  std::vector<double> next_ms;  // one sample per NextBatch round-trip
  std::size_t feedbacks = 0;
  std::size_t forced_evicts = 0;
  bool ok = true;
  std::string error;
};

OpenConfig ConfigFor(std::uint64_t base_seed, std::size_t index,
                     std::size_t feedback_budget) {
  OpenConfig config;
  config.workload_spec = "figure1";
  config.seed = base_seed + index;  // distinct ranking RNG per session
  config.feedback_budget = feedback_budget;
  return config;
}

// Deterministic pure function of (session index, update id) — the control
// re-drive must replay the exact same answers without sharing any state
// with the load threads.
struct Policy {
  Feedback feedback;
  std::optional<std::string> value;
};

Policy PolicyFor(std::size_t index, std::uint64_t update_id) {
  const std::uint64_t h = (index * 2654435761ull) ^ (update_id * 40503ull);
  const std::uint64_t roll = h % 100;
  if (roll < 55) return {Feedback::kConfirm, std::nullopt};
  if (roll < 80) return {Feedback::kRetain, std::nullopt};
  return {Feedback::kReject, "vol-" + std::to_string(h % 7)};
}

// Drives one session to kDone. `evict_chance_pct` injects forced
// evictions before pulls (the randomized part of the traffic); the
// feedback policy itself is deterministic so a control can replay it.
bool DriveSession(SessionManager* manager, const SessionKey& key,
                  std::size_t index, int evict_chance_pct,
                  DriveResult* result) {
  std::mt19937_64 evict_rng(9000 + index);
  for (int guard = 0; guard < 500; ++guard) {
    if (evict_chance_pct > 0 &&
        evict_rng() % 100 < static_cast<std::uint64_t>(evict_chance_pct)) {
      const auto evicted = manager->Evict(key);
      if (!evicted.ok()) {
        result->error = "evict: " + evicted.status().ToString();
        return result->ok = false;
      }
      ++result->forced_evicts;
    }
    const Stopwatch watch;
    const auto batch = manager->Next(key);
    result->next_ms.push_back(watch.ElapsedSeconds() * 1e3);
    if (!batch.ok()) {
      result->error = "next: " + batch.status().ToString();
      return result->ok = false;
    }
    if (batch->suggestions.empty()) {
      if (batch->state != "done") {
        result->error = "empty batch in state " + batch->state;
        return result->ok = false;
      }
      return true;
    }
    for (const WireSuggestion& s : batch->suggestions) {
      const Policy policy = PolicyFor(index, s.update_id);
      const auto outcome = manager->Feedback(key, s.update_id,
                                             policy.feedback, policy.value);
      if (!outcome.ok()) {
        result->error = "feedback: " + outcome.status().ToString();
        return result->ok = false;
      }
      ++result->feedbacks;
    }
  }
  result->error = "session did not terminate within the step guard";
  return result->ok = false;
}

double Percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

int Run(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const std::size_t num_sessions =
      static_cast<std::size_t>(flags.GetUint("sessions", 120));
  const std::size_t client_threads =
      std::max<std::size_t>(1, flags.GetUint("threads", 4));
  const std::size_t budget_bytes =
      static_cast<std::size_t>(flags.GetUint("budget-bytes", 262144));
  const std::size_t feedback_budget =
      static_cast<std::size_t>(flags.GetUint("feedback-budget", 25));
  const std::uint64_t seed = flags.GetUint("seed", 5);
  const std::string spill_dir =
      flags.GetString("spill-dir", "gdr_bench_spill");
  const std::string out_path = flags.GetString("out", "BENCH_server.json");

  std::filesystem::remove_all(spill_dir);
  SessionManagerOptions options;
  options.spill_dir = spill_dir;
  options.memory_budget_bytes = budget_bytes;
  options.max_sessions = num_sessions + 8;
  SessionManager manager(options);

  const auto key_for = [](std::size_t i) {
    return SessionKey{"tenant" + std::to_string(i % 7),
                      "s" + std::to_string(i)};
  };

  // Phase 1: the load — every session opened and driven to completion by
  // its owning client thread, with randomized forced evictions layered on
  // top of whatever the byte budget evicts on its own.
  std::vector<DriveResult> results(num_sessions);
  std::atomic<std::size_t> next_session{0};
  const Stopwatch wall;
  std::vector<std::thread> threads;
  threads.reserve(client_threads);
  for (std::size_t t = 0; t < client_threads; ++t) {
    threads.emplace_back([&] {
      while (true) {
        const std::size_t i = next_session.fetch_add(1);
        if (i >= num_sessions) return;
        DriveResult& result = results[i];
        const SessionKey key = key_for(i);
        const auto opened =
            manager.Open(key, ConfigFor(seed, i, feedback_budget));
        if (!opened.ok()) {
          result.ok = false;
          result.error = "open: " + opened.status().ToString();
          continue;
        }
        DriveSession(&manager, key, i, /*evict_chance_pct=*/20, &result);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_seconds = wall.ElapsedSeconds();

  std::size_t failures = 0;
  std::vector<double> next_ms;
  std::size_t feedbacks = 0, forced_evicts = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok) {
      ++failures;
      std::fprintf(stderr, "session %zu failed: %s\n", i,
                   results[i].error.c_str());
      continue;
    }
    next_ms.insert(next_ms.end(), results[i].next_ms.begin(),
                   results[i].next_ms.end());
    feedbacks += results[i].feedbacks;
    forced_evicts += results[i].forced_evicts;
  }
  const WireServerStats stats = manager.Stats();

  // Phase 2: the differential self-check. Re-drive a sample of sessions
  // in an eviction-free control manager and demand bit-identical finals.
  const std::size_t probes = std::min<std::size_t>(8, num_sessions);
  SessionManagerOptions control_options;
  control_options.spill_dir = spill_dir + "_control";
  control_options.max_sessions = probes + 1;
  SessionManager control(control_options);
  std::size_t finals_compared = 0, finals_matched = 0;
  for (std::size_t i = 0; i < probes; ++i) {
    if (!results[i].ok) continue;
    const SessionKey key = key_for(i);
    const auto opened = control.Open(key, ConfigFor(seed, i, feedback_budget));
    if (!opened.ok()) continue;
    DriveResult control_result;
    if (!DriveSession(&control, key, i, /*evict_chance_pct=*/0,
                      &control_result)) {
      std::fprintf(stderr, "control session %zu failed: %s\n", i,
                   control_result.error.c_str());
      continue;
    }
    const auto loaded = manager.Dump(key);
    const auto expected = control.Dump(key);
    if (!loaded.ok() || !expected.ok()) continue;
    ++finals_compared;
    if (*loaded == *expected) {
      ++finals_matched;
    } else {
      std::fprintf(stderr,
                   "FAIL: session %zu finals diverged after eviction/"
                   "rehydration\n", i);
    }
  }
  const bool finals_match = finals_compared > 0 &&
                            finals_matched == finals_compared;

  std::size_t closed = 0;
  for (std::size_t i = 0; i < num_sessions; ++i) {
    if (manager.Close(key_for(i)).ok()) ++closed;
  }

  std::sort(next_ms.begin(), next_ms.end());
  const double p50 = Percentile(next_ms, 0.50);
  const double p99 = Percentile(next_ms, 0.99);
  const double sessions_per_sec =
      wall_seconds > 0.0
          ? static_cast<double>(num_sessions - failures) / wall_seconds
          : 0.0;

  std::printf("bench_server: %zu sessions, %zu client threads, budget %zu "
              "bytes\n", num_sessions, client_threads, budget_bytes);
  std::printf("  wall     %.3fs  (%.1f sessions/sec to completion)\n",
              wall_seconds, sessions_per_sec);
  std::printf("  next     %zu calls, p50 %.3fms, p99 %.3fms\n",
              next_ms.size(), p50, p99);
  std::printf("  traffic  %zu feedbacks, %zu forced evicts\n", feedbacks,
              forced_evicts);
  std::printf("  manager  %zu evictions, %zu rehydrations, %zu opens\n",
              stats.evictions, stats.rehydrations, stats.opens);
  std::printf("  check    %zu/%zu probe finals bit-identical to "
              "never-evicted controls; %zu failures; %zu closed\n",
              finals_matched, finals_compared, failures, closed);

  if (FILE* out = std::fopen(out_path.c_str(), "w")) {
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"bench\": \"server\",\n");
    std::fprintf(out, "  \"sessions\": %zu,\n", num_sessions);
    std::fprintf(out, "  \"client_threads\": %zu,\n", client_threads);
    std::fprintf(out, "  \"hardware_concurrency\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(out, "  \"memory_budget_bytes\": %zu,\n", budget_bytes);
    std::fprintf(out, "  \"feedback_budget\": %zu,\n", feedback_budget);
    std::fprintf(out, "  \"seed\": %llu,\n",
                 static_cast<unsigned long long>(seed));
    std::fprintf(out, "  \"wall_seconds\": %.6f,\n", wall_seconds);
    std::fprintf(out, "  \"sessions_per_sec\": %.2f,\n", sessions_per_sec);
    std::fprintf(out, "  \"next_calls\": %zu,\n", next_ms.size());
    std::fprintf(out, "  \"next_p50_ms\": %.4f,\n", p50);
    std::fprintf(out, "  \"next_p99_ms\": %.4f,\n", p99);
    std::fprintf(out, "  \"feedbacks\": %zu,\n", feedbacks);
    std::fprintf(out, "  \"forced_evicts\": %zu,\n", forced_evicts);
    std::fprintf(out, "  \"evictions\": %zu,\n", stats.evictions);
    std::fprintf(out, "  \"rehydrations\": %zu,\n", stats.rehydrations);
    std::fprintf(out, "  \"session_failures\": %zu,\n", failures);
    std::fprintf(out, "  \"finals_compared\": %zu,\n", finals_compared);
    std::fprintf(out, "  \"finals_match\": %s\n",
                 finals_match ? "true" : "false");
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::filesystem::remove_all(spill_dir);
  std::filesystem::remove_all(spill_dir + "_control");

  if (failures > 0) return 1;
  if (!finals_match) {
    std::fprintf(stderr, "FAIL: evicted sessions diverged from resident "
                 "controls\n");
    return 2;
  }
  if (budget_bytes > 0 && (stats.evictions == 0 || stats.rehydrations == 0)) {
    std::fprintf(stderr, "FAIL: the memory budget never forced an "
                 "eviction/rehydration cycle\n");
    return 2;
  }
  return 0;
}

}  // namespace
}  // namespace gdr::server

int main(int argc, char** argv) { return gdr::server::Run(argc, argv); }
