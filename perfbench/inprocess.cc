// The in-process workloads: whole repair sessions (Procedure 1 run to
// kDone under the Figure 4 protocol, budget = E) driven through the public
// GdrSession API and answered by the ground-truth UserOracle. Sessions
// cycle through a few row orders of one generated dataset until the run's
// time is spent; every repetition of an input must reach the same repair.
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cfd/violation_index.h"
#include "core/grouping.h"
#include "core/quality.h"
#include "core/session.h"
#include "core/voi.h"
#include "ml/random_forest.h"
#include "sim/oracle.h"
#include "util/strings.h"
#include "workload/registry.h"

#include "inputs.h"
#include "workloads.h"

namespace perfbench {
namespace {

using gdr::Feedback;
using gdr::FeedbackOutcome;
using gdr::GdrOptions;
using gdr::GdrSession;
using gdr::GdrStats;
using gdr::GdrTimings;
using gdr::Strategy;
using gdr::Table;

struct InProcessConfig {
  const char* dataset;
  std::size_t records;
  Strategy strategy;
  // Row orders of the content a run cycles through; sessions alternate
  // between them so one run averages over several inputs.
  std::size_t variants;
};

// The generator seed of the workload's content (the generators' default
// instance); --seed permutes its rows (see inputs.h).
constexpr std::uint64_t kContentSeed = 11;
// The loop never starts a session after this, whatever --seconds says, so
// a run stays inside its wall-clock limit.
constexpr double kMaxLoopSeconds = 100.0;
// Traced runs probe layers at these fractions of the label budget.
constexpr double kProbeFractions[] = {0.25, 0.5, 0.75};

struct Labelled {
  gdr::Update update;
  Feedback feedback;
};

struct SessionOutcome {
  double setup_s = 0.0;
  double machine_s = 0.0;  // NextBatch + SubmitFeedback, no user time
  double wall_s = 0.0;     // setup to kDone, user time included
  GdrStats stats;
  std::uint64_t fingerprint = 0;
  double improvement_pct = 0.0;
  std::size_t submissions = 0;
  std::size_t stale = 0;
  std::size_t duplicate = 0;
  std::size_t unknown_id = 0;
};

struct Samples {
  std::vector<double> next_ms;
  std::vector<double> feedback_ms;
};

// One input variant (a row order of the workload's content) and what its
// sessions share.
struct Fixture {
  std::unique_ptr<gdr::Dataset> dataset;
  GdrOptions options;
  std::unique_ptr<gdr::QualityEvaluator> evaluator;
  double initial_loss = 0.0;
};

// FNV-1a over the final cells plus the counters that identify a repair.
std::uint64_t Fingerprint(const Table& table, const GdrStats& stats) {
  std::uint64_t hash = gdr::Fnv1a64("");
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    for (std::size_t a = 0; a < table.num_attrs(); ++a) {
      hash = gdr::Fnv1a64(table.at(static_cast<gdr::RowId>(r),
                                   static_cast<gdr::AttrId>(a)),
                          hash);
      hash = gdr::Fnv1a64("\x1f", hash);
    }
  }
  for (std::size_t counter :
       {stats.user_feedback, stats.user_confirms, stats.user_rejects,
        stats.user_retains, stats.learner_decisions, stats.learner_confirms,
        stats.forced_repairs, stats.outer_iterations}) {
    hash = gdr::Fnv1a64(std::to_string(counter) + ",", hash);
  }
  return hash;
}

// Child spans of one session call, attributed from the program's own
// cumulative GdrTimings (read before and after the call).
void AttributeCore(Trace* trace, int session, int parent,
                   const GdrTimings& before, const GdrTimings& after) {
  if (!trace->enabled()) return;
  const auto child = [&](const char* name, double seconds, double value) {
    if (seconds > 0.0) trace->Attribute(name, session, parent, seconds, value);
  };
  child("core.rank", after.ranking_seconds - before.ranking_seconds, 0.0);
  child("core.group_session",
        after.session_seconds - before.session_seconds, 0.0);
  child("core.sweep",
        after.learner_sweep_seconds - before.learner_sweep_seconds, 0.0);
  child("core.total", after.total_seconds - before.total_seconds, 0.0);
  child("core.voi_probe", after.voi_probe_seconds - before.voi_probe_seconds,
        static_cast<double>(after.voi_probes - before.voi_probes));
  child("core.learner_encode",
        after.learner_encode_seconds - before.learner_encode_seconds, 0.0);
  child("ml.tree_walk",
        after.learner_tree_walk_seconds - before.learner_tree_walk_seconds,
        static_cast<double>(after.learner_inferences -
                            before.learner_inferences));
}

// The learner's feature layout (all attribute values and the suggested
// value categorical, then six numeric relationship features), rebuilt here
// because LearnerBank keeps its schema private.
gdr::FeatureSchema LearnerSchema(const Table& table) {
  std::vector<gdr::FeatureDesc> features;
  for (std::size_t a = 0; a < table.num_attrs(); ++a) {
    features.push_back({table.schema().attr_name(static_cast<gdr::AttrId>(a)),
                        gdr::FeatureType::kCategorical});
  }
  features.push_back({"suggested_value", gdr::FeatureType::kCategorical});
  for (const char* name :
       {"similarity", "repair_score", "log_support_current",
        "log_support_suggested", "violations_now", "violations_after"}) {
    features.push_back({name, gdr::FeatureType::kNumeric});
  }
  return gdr::FeatureSchema(std::move(features));
}

// Checkpoint probes of the traced run, taken between session calls so
// they never touch the session spans: grouping, VOI ranking (p̃ = repair
// score, so the learner's own counters stay untouched), a fresh violation
// index over a copy of the current table, and a forest trained on the
// labels given so far for the most-labelled attribute.
void RunProbes(const GdrSession& session, const gdr::RuleSet& rules,
               const std::vector<Labelled>& labelled, int s, Trace* trace,
               RunResult* result) {
  const gdr::GdrEngine& engine = session.engine();
  Mark begin = trace->Begin();
  const std::vector<gdr::UpdateGroup> groups = gdr::GroupUpdates(engine.pool());
  trace->Close(begin, "probe.grouping", s, -1,
               static_cast<double>(groups.size()));

  const gdr::VoiRanker ranker(&engine.index(), &engine.rule_weights());
  begin = trace->Begin();
  const gdr::VoiRanker::Ranking ranking = ranker.Rank(
      groups, [](const gdr::Update& update) { return update.score; });
  trace->Close(begin, "probe.rank", s, -1,
               static_cast<double>(ranking.order.size()));

  Table copy = session.table();
  begin = trace->Begin();
  const gdr::ViolationIndex fresh(&copy, &rules);
  trace->Close(begin, "probe.index_build", s, -1,
               static_cast<double>(fresh.TotalViolations()));
  if (fresh.TotalViolations() != engine.index().TotalViolations()) {
    result->failures.push_back("checkpoint: fresh index disagrees with the "
                               "engine's violation count");
  }
  trace->Attribute("probe.pool_size", s, -1, 0.0,
                   static_cast<double>(engine.pool().size()));

  std::vector<std::size_t> per_attr(session.table().num_attrs(), 0);
  for (const Labelled& l : labelled) ++per_attr[static_cast<std::size_t>(l.update.attr)];
  std::size_t attr = 0;
  for (std::size_t a = 1; a < per_attr.size(); ++a) {
    if (per_attr[a] > per_attr[attr]) attr = a;
  }
  gdr::TrainingSet set(LearnerSchema(session.table()),
                       gdr::kNumFeedbackClasses);
  for (const Labelled& l : labelled) {
    if (static_cast<std::size_t>(l.update.attr) != attr) continue;
    const gdr::Status added = set.Add(
        {engine.learner().Encode(l.update), static_cast<int>(l.feedback)});
    if (!added.ok()) {
      result->failures.push_back("checkpoint: " + added.ToString());
      return;
    }
  }
  if (set.empty()) return;
  gdr::RandomForest forest(gdr::RandomForestOptions{});
  begin = trace->Begin();
  const gdr::Status trained = forest.Train(set);
  trace->Close(begin, "probe.forest_train", s, -1,
               static_cast<double>(set.size()));
  if (!trained.ok()) {
    result->failures.push_back("checkpoint: " + trained.ToString());
  }
}

// One setup sample: GdrSession construction plus Start() over a fresh copy
// of the dirty table (the copy is not timed).
gdr::Status TimedSetup(const Fixture& fixture, Trace* trace, int s,
                       double* seconds) {
  Table working = fixture.dataset->dirty;
  const Mark begin = trace->Begin();
  GdrSession session(&working, &fixture.dataset->rules, fixture.options);
  const gdr::Status started = session.Start();
  *seconds = trace->Close(begin, "session.setup", s);
  return started;
}

gdr::Status DriveSession(const Fixture& fixture, int s, Trace* trace,
                         Samples* samples, RunResult* result,
                         SessionOutcome* out) {
  const gdr::Dataset& dataset = *fixture.dataset;
  Table working = dataset.dirty;
  gdr::UserOracleOptions oracle_options;
  oracle_options.seed = fixture.options.seed ^ 0xA5A5A5A5ULL;
  gdr::UserOracle oracle(&dataset.clean, oracle_options);

  const Mark setup_begin = trace->Begin();
  GdrSession session(&working, &dataset.rules, fixture.options);
  const gdr::Status started = session.Start();
  out->setup_s = trace->Close(setup_begin, "session.setup", s);
  GDR_RETURN_NOT_OK(started);

  const std::size_t budget = fixture.options.feedback_budget;
  std::vector<Labelled> labelled;
  std::size_t next_probe = 0;
  while (session.state() != gdr::SessionState::kDone) {
    GdrTimings before = session.stats().timings;
    const Mark pull = trace->Begin();
    gdr::Result<std::vector<gdr::SuggestedUpdate>> batch = session.NextBatch();
    double seconds = trace->Close(pull, "session.next", s);
    ++result->attempted;
    if (!batch.ok()) {
      ++result->failed;
      return batch.status();
    }
    samples->next_ms.push_back(seconds * 1e3);
    out->machine_s += seconds;
    AttributeCore(trace, s, trace->last(), before, session.stats().timings);

    for (const gdr::SuggestedUpdate& suggestion : *batch) {
      const Mark think = trace->Begin();
      if (!session.IsLive(suggestion.update_id)) {
        trace->Close(think, "session.user", s);
        continue;
      }
      const Feedback feedback =
          oracle.GetFeedback(session.table(), suggestion.update);
      std::optional<std::string> volunteered;
      if (feedback == Feedback::kReject) {
        volunteered = oracle.SuggestValue(session.table(), suggestion.update);
      }
      trace->Close(think, "session.user", s);

      before = session.stats().timings;
      const Mark submit = trace->Begin();
      const gdr::Result<FeedbackOutcome> outcome = session.SubmitFeedback(
          suggestion.update_id, feedback, std::move(volunteered));
      seconds = trace->Close(submit, "session.feedback", s);
      ++result->attempted;
      if (!outcome.ok()) {
        ++result->failed;
        return outcome.status();
      }
      samples->feedback_ms.push_back(seconds * 1e3);
      out->machine_s += seconds;
      AttributeCore(trace, s, trace->last(), before, session.stats().timings);

      ++out->submissions;
      switch (*outcome) {
        case FeedbackOutcome::kApplied:
          break;
        case FeedbackOutcome::kStale:
          ++out->stale;
          break;
        case FeedbackOutcome::kDuplicate:
          ++out->duplicate;
          break;
        case FeedbackOutcome::kUnknownId:
          ++out->unknown_id;
          break;
      }
      if (trace->enabled() && *outcome == FeedbackOutcome::kApplied) {
        labelled.push_back({suggestion.update, feedback});
        while (next_probe < std::size(kProbeFractions) &&
               static_cast<double>(session.stats().user_feedback) >=
                   kProbeFractions[next_probe] * static_cast<double>(budget)) {
          RunProbes(session, dataset.rules, labelled, s, trace, result);
          ++next_probe;
        }
      }
    }
  }
  out->wall_s = static_cast<double>(NowNs() - setup_begin.ns) * 1e-9;

  out->stats = session.stats();
  const gdr::GdrEngine& engine = session.engine();
  Table final_copy = session.table();
  const gdr::ViolationIndex fresh(&final_copy, &dataset.rules);
  if (fresh.TotalViolations() != engine.index().TotalViolations()) {
    result->failures.push_back(
        "session " + std::to_string(s) + ": fresh index counts " +
        std::to_string(fresh.TotalViolations()) + " violations, engine " +
        std::to_string(engine.index().TotalViolations()));
  }
  if (out->stats.user_feedback > budget) {
    result->failures.push_back("session " + std::to_string(s) + ": " +
                               std::to_string(out->stats.user_feedback) +
                               " user labels exceed the budget of " +
                               std::to_string(budget));
  }
  if (engine.rule_weights() != fixture.evaluator->weights()) {
    result->failures.push_back("session " + std::to_string(s) +
                               ": engine rule weights differ from the "
                               "evaluator's");
  }
  out->improvement_pct =
      fixture.evaluator->ImprovementPct(engine.index(), fixture.initial_loss);
  out->fingerprint = Fingerprint(session.table(), out->stats);
  return gdr::Status::OK();
}

void AddPerLayer(const Trace& trace, const std::vector<SessionOutcome>& outcomes,
                 std::vector<Metric>* metrics) {
  const auto add = [&](const char* name, double value, const char* unit) {
    metrics->push_back({name, value, unit});
  };
  // Per-session means of span totals, and per-probe means of checkpoints.
  const double n = static_cast<double>(outcomes.size());
  const auto per_session = [&](const char* name) {
    return trace.Sum({name}).seconds / n;
  };
  const auto probe_seconds = [&](const char* name) {
    const Trace::Totals t = trace.Sum({name});
    return Ratio(t.seconds, t.count);
  };
  const auto probe_value = [&](const char* name) {
    const Trace::Totals t = trace.Sum({name});
    return Ratio(t.value, t.count);
  };

  const Trace::Totals next = trace.Sum({"session.next"});
  const Trace::Totals feedback = trace.Sum({"session.feedback"});
  const Trace::Totals calls = trace.Sum({"session.next", "session.feedback"});
  const double rank_s = per_session("core.rank");
  const double group_s = per_session("core.group_session");
  const double sweep_s = per_session("core.sweep");
  const double total_s = per_session("core.total");
  add("session.next_s", next.seconds / n, "s");
  add("session.feedback_s", feedback.seconds / n, "s");
  add("session.user_s", per_session("session.user"), "s");
  add("session.next_calls", next.count / n, "count");
  add("session.feedback_calls", feedback.count / n, "count");
  add("session.closure_gap_pct",
      Ratio(100.0 * (calls.seconds / n - total_s), calls.seconds / n), "%");

  double labels = 0.0, learner = 0.0, outer = 0.0, forced = 0.0;
  double submissions = 0.0, stale = 0.0;
  std::vector<double> machine;
  for (const SessionOutcome& o : outcomes) {
    labels += static_cast<double>(o.stats.user_feedback);
    learner += static_cast<double>(o.stats.learner_decisions);
    outer += static_cast<double>(o.stats.outer_iterations);
    forced += static_cast<double>(o.stats.forced_repairs);
    submissions += static_cast<double>(o.submissions);
    stale += static_cast<double>(o.stale);
    machine.push_back(o.machine_s);
  }
  add("trace.session_s", Median(machine), "s");

  const Trace::Totals probes = trace.Sum({"core.voi_probe"});
  add("core.total_s", total_s, "s");
  add("core.rank_s", rank_s, "s");
  add("core.voi_probe_s", probes.seconds / n, "s");
  add("core.voi_probe_ns", Ratio(probes.seconds * 1e9, probes.value), "ns");
  add("core.group_session_s", group_s, "s");
  add("core.learner_encode_s", per_session("core.learner_encode"), "s");
  add("core.sweep_s", sweep_s, "s");
  add("core.unattributed_s", calls.seconds / n - rank_s - group_s - sweep_s,
      "s");
  add("core.outer_iterations", outer / n, "count");
  add("core.learner_takeover_frac", Ratio(learner, learner + labels), "ratio");
  add("core.stale_frac", Ratio(stale, submissions), "ratio");
  add("repair.forced_repairs", forced / n, "count");

  add("ml.tree_walk_s", per_session("ml.tree_walk"), "s");
  add("ml.inferences", trace.Sum({"ml.tree_walk"}).value / n, "count");
  add("ml.forest_train_s", probe_seconds("probe.forest_train"), "s");
  add("ml.train_examples", probe_value("probe.forest_train"), "count");

  add("core.grouping_s", probe_seconds("probe.grouping"), "s");
  add("core.rank_probe_s", probe_seconds("probe.rank"), "s");
  add("cfd.index_build_s", probe_seconds("probe.index_build"), "s");
  add("cfd.violations", probe_value("probe.index_build"), "count");
  add("repair.pool_size", probe_value("probe.pool_size"), "count");

  add("alloc.next_per_call", Ratio(next.allocs, next.count), "count");
  add("alloc.feedback_per_call", Ratio(feedback.allocs, feedback.count),
      "count");
  add("alloc.bytes_per_label", Ratio(calls.alloc_bytes, labels), "B");
  add("rusage.minor_faults", calls.minor_faults / n, "count");
  add("rusage.major_faults", calls.major_faults / n, "count");
  add("workload.resolve_ms", probe_seconds("workload.resolve") * 1e3, "ms");
}

}  // namespace

RunResult RunInProcess(const RunOptions& options) {
  RunResult result;
  result.trace = Trace(options.trace);
  Trace& trace = result.trace;

  InProcessConfig config;
  if (options.workload == "gdr-hospital-4k") {
    config = {"dataset1", 4000, Strategy::kGdr, 8};
  } else {
    config = {"dataset1", 20000, Strategy::kGdrNoLearning, 2};
  }
  const std::string spec = std::string(config.dataset) +
                           ":records=" + std::to_string(config.records) +
                           ",seed=" + std::to_string(kContentSeed);
  const Mark resolve_begin = trace.Begin();
  gdr::Result<gdr::Dataset> base =
      gdr::WorkloadRegistry::Global().Resolve(spec);
  trace.Close(resolve_begin, "workload.resolve", -1);
  if (!base.ok()) {
    result.failures.push_back("workload '" + spec +
                              "': " + base.status().ToString());
    return result;
  }

  std::vector<Fixture> fixtures(config.variants);
  for (std::size_t v = 0; v < fixtures.size(); ++v) {
    const std::uint64_t seed = options.seed * config.variants + v;
    gdr::Result<gdr::Dataset> shuffled = ShuffleRows(*base, seed);
    if (!shuffled.ok()) {
      result.failures.push_back("shuffle: " + shuffled.status().ToString());
      return result;
    }
    Fixture& fixture = fixtures[v];
    fixture.dataset = std::make_unique<gdr::Dataset>(std::move(*shuffled));
    const gdr::Dataset& dataset = *fixture.dataset;
    // Figure 4 protocol: the user affords E labels, E = the initially dirty
    // tuples. The evaluator's weights are the engine's: context weights of
    // the initial instance.
    Table copy = dataset.dirty;
    const gdr::ViolationIndex index(&copy, &dataset.rules);
    fixture.evaluator = std::make_unique<gdr::QualityEvaluator>(
        dataset.clean, &dataset.rules, gdr::ContextRuleWeights(index));
    fixture.initial_loss = fixture.evaluator->Loss(index);
    fixture.options.strategy = config.strategy;
    fixture.options.feedback_budget = index.DirtyRows().size();
    fixture.options.ns = 5;
    fixture.options.seed = seed;
  }
  const std::size_t initially_dirty = fixtures[0].options.feedback_budget;

  // Set-up samples: one setup-only sample before every session plus the
  // session's own, so they spread over the whole run instead of sharing
  // one stretch of machine noise. The first setup of the process warms the
  // allocator and is not recorded.
  std::vector<double> setups;
  const auto sample_setup = [&](const Fixture& fixture, bool record) {
    double seconds = 0.0;
    const gdr::Status started = TimedSetup(fixture, &trace, -1, &seconds);
    if (!started.ok()) {
      result.failures.push_back("setup: " + started.ToString());
      return false;
    }
    if (record) setups.push_back(seconds);
    return true;
  };
  if (!sample_setup(fixtures[0], false)) return result;

  Samples samples;
  std::vector<SessionOutcome> outcomes;
  const std::uint64_t loop_start = NowNs();
  const auto elapsed = [&] {
    return static_cast<double>(NowNs() - loop_start) * 1e-9;
  };
  // Every variant runs at least once and the first twice, so the
  // repetition check always has a pair to match.
  const std::size_t min_sessions = fixtures.size() + 1;
  while ((outcomes.size() < min_sessions || elapsed() < options.seconds) &&
         elapsed() < kMaxLoopSeconds) {
    const std::size_t s = outcomes.size();
    const Fixture& fixture = fixtures[s % fixtures.size()];
    if (!sample_setup(fixture, true)) return result;
    SessionOutcome outcome;
    const gdr::Status driven = DriveSession(fixture, static_cast<int>(s),
                                            &trace, &samples, &result,
                                            &outcome);
    if (!driven.ok()) {
      result.failures.push_back("session " + std::to_string(s) + ": " +
                                driven.ToString());
      return result;
    }
    setups.push_back(outcome.setup_s);
    outcomes.push_back(outcome);
  }
  const double loop_seconds = elapsed();

  std::size_t stale = 0, duplicate = 0, unknown_id = 0;
  std::vector<double> machine, wall;
  double improvement = 0.0;
  for (std::size_t s = 0; s < outcomes.size(); ++s) {
    const SessionOutcome& o = outcomes[s];
    const SessionOutcome& first = outcomes[s % fixtures.size()];
    if (o.fingerprint != first.fingerprint ||
        o.improvement_pct != first.improvement_pct) {
      result.failures.push_back("session " + std::to_string(s) +
                                " repaired differently from an earlier "
                                "repetition of the same input");
    }
    stale += o.stale;
    duplicate += o.duplicate;
    unknown_id += o.unknown_id;
    machine.push_back(o.machine_s);
    wall.push_back(o.wall_s);
    if (s < fixtures.size()) {
      improvement += o.improvement_pct / static_cast<double>(fixtures.size());
    }
  }
  const GdrStats& stats = outcomes.front().stats;
  char line[512];
  std::snprintf(line, sizeof(line),
                "%s x %zu row orders: %zu sessions in %.2fs, E=%zu, "
                "labels=%zu, learner=%zu, next samples=%zu, feedback "
                "samples=%zu, setup samples=%zu, outcomes stale=%zu "
                "duplicate=%zu unknown-id=%zu, fingerprint=%016llx",
                spec.c_str(), fixtures.size(), outcomes.size(), loop_seconds,
                initially_dirty,
                stats.user_feedback, stats.learner_decisions,
                samples.next_ms.size(), samples.feedback_ms.size(),
                setups.size(), stale, duplicate, unknown_id,
                static_cast<unsigned long long>(outcomes.front().fingerprint));
  result.notes.push_back(line);
  // A failed call ends the run before this point, so every call counted
  // here succeeded.
  std::snprintf(line, sizeof(line),
                "  next     attempted=%zu failed=0\n"
                "  feedback attempted=%zu failed=0",
                samples.next_ms.size(), samples.feedback_ms.size());
  result.notes.push_back(line);
  for (const auto& [name, ms] :
       {std::pair{"next", &samples.next_ms},
        std::pair{"feedback", &samples.feedback_ms}}) {
    std::snprintf(line, sizeof(line),
                  "  %-8s ms p50=%.4f p90=%.4f p95=%.4f p99=%.4f p99.9=%.4f",
                  name, Percentile(*ms, 0.5), Percentile(*ms, 0.9),
                  Percentile(*ms, 0.95), Percentile(*ms, 0.99),
                  Percentile(*ms, 0.999));
    result.notes.push_back(line);
  }

  if (options.trace) {
    AddPerLayer(trace, outcomes, &result.metrics);
    return result;
  }
  result.metrics = {
      {"session_s", Median(machine), "s"},
      {"setup_s", Median(setups), "s"},
      {"next_p50_ms", Percentile(samples.next_ms, 0.50), "ms"},
      {"next_p99_ms", Percentile(samples.next_ms, 0.99), "ms"},
      {"feedback_p99_ms", Percentile(samples.feedback_ms, 0.99), "ms"},
      {"sessions_per_s", 1.0 / Median(wall), "1/s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"improvement_pct", improvement, "%"},
  };
  return result;
}

}  // namespace perfbench
