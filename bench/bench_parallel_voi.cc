// VOI ranking hot path on the Dataset 1 workload, written to
// BENCH_hotpath.json.
//
// Measures one full VoiRanker::Rank() pass (the Step-4 inner loop of
// Procedure 1) over the engine's real candidate pool and records the
// constant factors: index-build seconds, UpdateBenefit ns/update through
// the group-batched closed-form probes (per group-size bucket, plus a
// group-size histogram), and the Rank() seconds. `hardware_concurrency`
// is recorded in the JSON so numbers from different machines are not
// compared blindly.
//
// The `learner` section measures p~ with real trained committees: the
// bank learns from ground-truth oracle feedback over the whole pool, then
// ConfirmProbabilities over one-update spans (one committee evaluation
// per update, the reference) and ConfirmProbabilities per group run,
// interleaved within each repeat (same forests, same thermal state), plus
// Rank fed the batched p~. The bank's phase counters
// (feature-encode / tree-walk seconds) land in the JSON so the learner's
// share of ranking time is trackable.
//
// Exit 2 = per-group vs per-update probabilities mismatch. Exit 3 =
// per-group ConfirmProbabilities slower than the per-update calls.
//
// Flags: --workload=name:key=val,... (default dataset1, parameterized by
//        the legacy flags below; the first workload is measured)
//        --records=N (default 20000) --seed=S (default 42)
//        --repeats=R (default 5, best-of)
//        --out=PATH (default BENCH_hotpath.json)
#include <array>
#include <cstdio>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/gdr.h"
#include "core/grouping.h"
#include "core/learner_bank.h"
#include "core/voi.h"
#include "sim/oracle.h"
#include "util/stopwatch.h"

namespace gdr {
namespace {

// Power-of-two-ish group-size buckets for the per-bucket hot-path numbers:
// batching amortizes staging over group size, so the win should grow with
// the bucket and the size-1 bucket bounds the staging overhead.
struct Bucket {
  const char* label;
  std::size_t max;  // inclusive upper bound on group size
};

constexpr std::size_t kNumBuckets = 6;

std::array<Bucket, kNumBuckets> BucketBounds() {
  return {{{"1", 1},
           {"2-3", 3},
           {"4-7", 7},
           {"8-15", 15},
           {"16-31", 31},
           {"32+", static_cast<std::size_t>(-1)}}};
}

std::size_t BucketOf(std::size_t size) {
  if (size <= 1) return 0;
  if (size <= 3) return 1;
  if (size <= 7) return 2;
  if (size <= 15) return 3;
  if (size <= 31) return 4;
  return 5;
}

// Best-of-`repeats` seconds of one Rank pass with p̃ from
// `confirm_probability` (per-update or group-batched).
template <typename ProbabilityFn>
double TimeRank(const VoiRanker& ranker, const std::vector<UpdateGroup>& groups,
                const ProbabilityFn& confirm_probability, int repeats,
                VoiRanker::Ranking* out) {
  double best = -1.0;
  for (int r = 0; r < repeats; ++r) {
    Stopwatch watch;
    *out = ranker.Rank(groups, confirm_probability);
    const double seconds = watch.ElapsedSeconds();
    if (best < 0.0 || seconds < best) best = seconds;
  }
  return best;
}

int RunBench(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const std::size_t records =
      static_cast<std::size_t>(flags.GetInt("records", 20000));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  const int repeats = static_cast<int>(flags.GetInt("repeats", 5));

  // This bench measures exactly one workload: resolve only the first
  // --workload occurrence rather than materializing all of them.
  std::vector<std::string> specs = flags.GetStrings("workload");
  if (specs.empty()) {
    specs = {"dataset1:records=" + std::to_string(records) +
             ",seed=" + std::to_string(seed)};
  } else if (specs.size() > 1) {
    std::printf("note: measuring only the first workload (%s)\n",
                specs.front().c_str());
    specs.resize(1);
  }
  const auto resolved = bench::ResolveWorkloadCachedOrReport(specs.front());
  if (!resolved.ok()) return 1;
  const Dataset& dataset = **resolved;
  // Report the resolved instance, not the flag defaults: with --workload
  // the --records/--seed flags play no part in what was measured.
  const std::size_t resolved_rows = dataset.dirty.num_rows();

  // Real engine state: Initialize() detects violations and seeds the pool
  // exactly as the interactive loop would see it on round one.
  Table working = dataset.dirty;
  GdrEngine engine(&working, &dataset.rules);
  if (Status status = engine.Initialize(); !status.ok()) {
    std::printf("initialize: %s\n", status.ToString().c_str());
    return 1;
  }
  const std::vector<UpdateGroup> groups = GroupUpdates(engine.pool());
  std::size_t updates = 0;
  for (const UpdateGroup& group : groups) updates += group.size();
  std::printf("== bench_parallel_voi: %s ==\n", dataset.name.c_str());
  std::printf(
      "workload=%s records=%zu groups=%zu updates=%zu repeats=%d "
      "hw_threads=%u\n",
      specs.front().c_str(), resolved_rows, groups.size(), updates, repeats,
      std::thread::hardware_concurrency());

  VoiRanker ranker(&engine.index(), &engine.rule_weights());
  VoiRanker::Ranking ranking;
  const double rank_seconds = TimeRank(
      ranker, groups, [](const Update& u) { return u.score; }, repeats,
      &ranking);

  // ---- Index build and benefit probes ----------------------------------
  // Index build: full scan over the dirty instance.
  double build_seconds = -1.0;
  for (int r = 0; r < repeats; ++r) {
    Table rebuild_table = dataset.dirty;
    Stopwatch watch;
    ViolationIndex rebuilt(&rebuild_table, &dataset.rules);
    const double seconds = watch.ElapsedSeconds();
    if (rebuilt.TotalViolations() != engine.index().TotalViolations()) {
      std::printf("index rebuild mismatch\n");
      return 1;
    }
    if (build_seconds < 0.0 || seconds < build_seconds) {
      build_seconds = seconds;
    }
  }

  // UpdateBenefit over every pooled update through one HypotheticalBatch
  // staged per group (the ranking inner loop), timed per group-size
  // bucket: batching amortizes staging over group size, so the size-1
  // bucket bounds the staging overhead.
  const std::array<Bucket, kNumBuckets> bucket_bounds = BucketBounds();
  std::array<std::size_t, kNumBuckets> bucket_groups{};
  std::array<std::size_t, kNumBuckets> bucket_updates{};
  std::map<std::size_t, std::size_t> size_histogram;
  for (const UpdateGroup& group : groups) {
    const std::size_t b = BucketOf(group.size());
    ++bucket_groups[b];
    bucket_updates[b] += group.size();
    ++size_histogram[group.size()];
  }
  double batched_seconds = -1.0;
  std::array<double, kNumBuckets> batched_bucket_seconds{};
  for (int r = 0; r < repeats; ++r) {
    HypotheticalBatch batch(&engine.index());
    std::array<double, kNumBuckets> buckets{};
    double total = 0.0;
    for (const UpdateGroup& group : groups) {
      Stopwatch watch;
      for (const Update& update : group.updates) {
        ranker.UpdateBenefit(update, &batch);
      }
      const double seconds = watch.ElapsedSeconds();
      buckets[BucketOf(group.size())] += seconds;
      total += seconds;
    }
    if (batched_seconds < 0.0 || total < batched_seconds) {
      batched_seconds = total;
      batched_bucket_seconds = buckets;
    }
  }
  const double ns_per_update_batched =
      updates == 0 ? 0.0 : batched_seconds / static_cast<double>(updates) * 1e9;
  std::printf(
      "hotpath: build=%.4fs benefit-batched=%.0fns rank=%.4fs\n",
      build_seconds, ns_per_update_batched, rank_seconds);
  std::printf("%10s %7s %8s %11s\n", "group-size", "groups", "updates",
              "batched-ns");
  for (std::size_t b = 0; b < kNumBuckets; ++b) {
    if (bucket_groups[b] == 0) continue;
    const double n = static_cast<double>(bucket_updates[b]);
    std::printf("%10s %7zu %8zu %11.0f\n", bucket_bounds[b].label,
                bucket_groups[b], bucket_updates[b],
                batched_bucket_seconds[b] / n * 1e9);
  }

  // ---- Learner-inference section ("learner") --------------------------
  // Train the bank the way a real session would: the simulated user
  // answers every pooled update from ground truth, the bank retrains once
  // per attribute. Attributes below min_training_examples stay on the
  // score fallback — `trained_attrs` records how many actually predict.
  LearnerBank bank(&working, &engine.index(), {});
  UserOracle oracle(&dataset.clean, {});
  for (const UpdateGroup& group : groups) {
    for (const Update& update : group.updates) {
      const Feedback feedback = oracle.GetFeedback(working, update);
      if (Status status = bank.AddFeedback(update, feedback); !status.ok()) {
        std::printf("learner feedback: %s\n", status.ToString().c_str());
        return 1;
      }
    }
  }
  std::size_t trained_attrs = 0;
  for (std::size_t a = 0; a < working.num_attrs(); ++a) {
    const AttrId attr = static_cast<AttrId>(a);
    if (Status status = bank.Retrain(attr); !status.ok()) {
      std::printf("learner retrain: %s\n", status.ToString().c_str());
      return 1;
    }
    if (bank.IsTrained(attr)) ++trained_attrs;
  }

  // p~ over the whole pool, both ways, interleaved within each repeat:
  // one ConfirmProbabilities call per one-update span vs one
  // ConfirmProbabilities matrix call per group. Identical committees, so
  // the probabilities must be bit-identical.
  std::vector<double> per_update_probs(updates, 0.0);
  std::vector<double> batched_probs(updates, 0.0);
  double per_update_prob_seconds = -1.0;
  double batched_prob_seconds = -1.0;
  std::vector<double> prob_out;
  for (int r = 0; r < repeats; ++r) {
    {
      Stopwatch watch;
      std::size_t i = 0;
      for (const UpdateGroup& group : groups) {
        for (const Update& update : group.updates) {
          bank.ConfirmProbabilities(std::span<const Update>(&update, 1),
                                    &prob_out);
          per_update_probs[i++] = prob_out[0];
        }
      }
      const double seconds = watch.ElapsedSeconds();
      if (per_update_prob_seconds < 0.0 ||
          seconds < per_update_prob_seconds) {
        per_update_prob_seconds = seconds;
      }
    }
    {
      double total = 0.0;
      std::size_t i = 0;
      for (const UpdateGroup& group : groups) {
        Stopwatch watch;
        bank.ConfirmProbabilities(std::span<const Update>(group.updates),
                                  &prob_out);
        total += watch.ElapsedSeconds();
        for (const double p : prob_out) batched_probs[i++] = p;
      }
      if (batched_prob_seconds < 0.0 || total < batched_prob_seconds) {
        batched_prob_seconds = total;
      }
    }
  }
  const bool learner_scores_match = per_update_probs == batched_probs;
  const double ns_confirm_per_update =
      updates == 0
          ? 0.0
          : per_update_prob_seconds / static_cast<double>(updates) * 1e9;
  const double ns_confirm_batched =
      updates == 0 ? 0.0
                   : batched_prob_seconds / static_cast<double>(updates) * 1e9;
  const double learner_batched_speedup =
      batched_prob_seconds > 0.0
          ? per_update_prob_seconds / batched_prob_seconds
          : 0.0;
  std::printf(
      "learner: trained-attrs=%zu confirm-per-update=%.0fns "
      "confirm-batched=%.0fns (%.2fx) probabilities-match=%s\n",
      trained_attrs, ns_confirm_per_update, ns_confirm_batched,
      learner_batched_speedup, learner_scores_match ? "yes" : "NO");

  // Rank with the live learner's batched p~, as the session calls it.
  const double learner_rank_seconds = TimeRank(
      ranker, groups,
      [&bank](std::span<const Update> batch, std::vector<double>* out) {
        bank.ConfirmProbabilities(batch, out);
      },
      repeats, &ranking);
  std::printf("learner: rank=%.4fs\n", learner_rank_seconds);
  // The bank's phase counters, accumulated over everything above — the
  // same numbers GdrStats::timings and the server `stats` reply surface.
  const PerfCounters& bank_perf = bank.perf_counters();

  const std::string out_path = flags.GetString("out", "BENCH_hotpath.json");
  if (FILE* out = std::fopen(out_path.c_str(), "w")) {
    std::fprintf(
        out,
        "{\n"
        "  \"bench\": \"hotpath\",\n"
        "  \"dataset\": \"%s\",\n"
        "  \"workload\": \"%s\",\n"
        "  \"records\": %zu,\n"
        "  \"groups\": %zu,\n"
        "  \"updates\": %zu,\n"
        "  \"repeats\": %d,\n"
        "  \"hardware_concurrency\": %u,\n"
        "  \"index_build_seconds\": %.6f,\n"
        "  \"update_benefit_ns_batched\": %.1f,\n"
        "  \"rank_seconds\": %.6f,\n",
        dataset.name.c_str(), specs.front().c_str(), resolved_rows,
        groups.size(), updates, repeats, std::thread::hardware_concurrency(),
        build_seconds, ns_per_update_batched, rank_seconds);
    // The learner section: trained-committee p~ both ways (interleaved
    // same-run numbers), Rank with batched p~, and the bank's phase
    // counters.
    std::fprintf(
        out,
        "  \"learner\": {\n"
        "    \"trained_attrs\": %zu,\n"
        "    \"confirm_probability_ns_per_update\": %.1f,\n"
        "    \"confirm_probability_ns_batched\": %.1f,\n"
        "    \"batched_speedup\": %.3f,\n"
        "    \"probabilities_match\": %s,\n"
        "    \"encode_seconds\": %.6f,\n"
        "    \"tree_walk_seconds\": %.6f,\n"
        "    \"inferences\": %llu,\n"
        "    \"rank_seconds\": %.6f\n"
        "  },\n",
        trained_attrs, ns_confirm_per_update, ns_confirm_batched,
        learner_batched_speedup, learner_scores_match ? "true" : "false",
        bank_perf.Seconds(PerfPhase::kLearnerEncode),
        bank_perf.Seconds(PerfPhase::kLearnerTreeWalk),
        static_cast<unsigned long long>(
            bank_perf.Count(PerfPhase::kLearnerTreeWalk)),
        learner_rank_seconds);
    std::fprintf(out, "  \"group_size_buckets\": [\n");
    bool first_bucket = true;
    for (std::size_t b = 0; b < kNumBuckets; ++b) {
      if (bucket_groups[b] == 0) continue;
      const double n = static_cast<double>(bucket_updates[b]);
      std::fprintf(out,
                   "%s    {\"sizes\": \"%s\", \"groups\": %zu, "
                   "\"updates\": %zu, \"batched_ns\": %.1f}",
                   first_bucket ? "" : ",\n", bucket_bounds[b].label,
                   bucket_groups[b], bucket_updates[b],
                   batched_bucket_seconds[b] / n * 1e9);
      first_bucket = false;
    }
    std::fprintf(out, "\n  ],\n  \"group_size_histogram\": [");
    bool first_size = true;
    for (const auto& [size, count] : size_histogram) {
      std::fprintf(out, "%s{\"size\": %zu, \"groups\": %zu}",
                   first_size ? "" : ", ", size, count);
      first_size = false;
    }
    std::fprintf(out, "]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::printf("could not write %s\n", out_path.c_str());
  }
  if (!learner_scores_match) return 2;
  // The perf gate: batched learner inference may not lose to the
  // per-update calls it replaced at this workload's scale.
  if (trained_attrs > 0 && batched_prob_seconds > per_update_prob_seconds) {
    std::fprintf(stderr,
                 "FAIL: batched learner inference slower than per-update "
                 "(%.0fns vs %.0fns per update)\n",
                 ns_confirm_batched, ns_confirm_per_update);
    return 3;
  }
  return 0;
}

}  // namespace
}  // namespace gdr

int main(int argc, char** argv) { return gdr::RunBench(argc, argv); }
