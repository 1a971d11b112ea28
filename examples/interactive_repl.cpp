// Interactive repair session driving the pull-based GdrSession directly —
// the production shape: the program (not the engine) owns the loop, pulls
// VOI-ranked, uncertainty-ordered batches, and pushes answers as they
// arrive. Quitting snapshots the full loop position to disk; relaunching
// restores it and resumes mid-batch, demonstrating a session surviving a
// process restart.
//
// Answer each suggestion with
//   y — confirm (apply the suggested value)
//   n — reject (never suggest this value again)
//   v — reject and volunteer the correct value
//   k — keep/retain (the current value is correct)
//   s — skip: leave it unanswered; the machine re-ranks and asks again
//       (a group stays on the table until it is answered — quit and
//        relaunch to put a decision off for another sitting)
//   q — quit: snapshot the session and exit (relaunch to resume)
//
// Build & run:  ./build/examples/interactive_repl [--strategy NAME]
//               [--snapshot FILE] [--fresh] [--workload SPEC]
//
// The workload (default: the paper's Figure 1 running example) is resolved
// through the registry, so any scenario — a built-in generator or CSV
// files — can be repaired interactively. Resuming from a snapshot rebuilds
// the workload first, so the spec (and any files it names) must be
// unchanged between sittings.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "core/session.h"
#include "util/fileio.h"
#include "workload/registry.h"

using namespace gdr;

namespace {

const char kDefaultSnapshotPath[] = "gdr_session.snapshot";

void PrintSuggestion(const Table& table, const SuggestedUpdate& s) {
  std::printf("\ntuple t%d: %s\n", s.update.row,
              table.RowToString(s.update.row).c_str());
  std::printf("suggest %s := '%s' (currently '%s', score %.2f)\n",
              table.schema().attr_name(s.update.attr).c_str(),
              table.dict(s.update.attr).ToString(s.update.value).c_str(),
              table.at(s.update.row, s.update.attr).c_str(), s.update.score);
  std::printf("  group %s:='%s'  voi %.3f  uncertainty %.2f  budget left ",
              table.schema().attr_name(s.group_attr).c_str(),
              table.dict(s.group_attr).ToString(s.group_value).c_str(),
              s.voi_score, s.uncertainty);
  if (s.budget_remaining == GdrOptions::kUnlimitedBudget) {
    std::printf("unlimited\n");
  } else {
    std::printf("%zu\n", s.budget_remaining);
  }
}

// Returns false when the user quit (or stdin closed).
bool AnswerSuggestion(GdrSession* session, const SuggestedUpdate& s) {
  PrintSuggestion(session->table(), s);
  std::printf(
      "[y]confirm / [n]reject / [v]reject+value / [k]retain / [s]kip / "
      "[q]uit > ");
  std::fflush(stdout);
  std::string line;
  if (!std::getline(std::cin, line) || line == "q") {
    return false;
  }
  std::optional<std::string> volunteered;
  Feedback feedback = Feedback::kRetain;
  if (line == "y") {
    feedback = Feedback::kConfirm;
  } else if (line == "n") {
    feedback = Feedback::kReject;
  } else if (line == "v") {
    feedback = Feedback::kReject;
    std::printf("correct value > ");
    std::fflush(stdout);
    std::string value;
    if (std::getline(std::cin, value) && !value.empty()) volunteered = value;
  } else if (line == "s") {
    return true;  // unresolved: re-presented by a later batch
  }
  const auto outcome =
      session->SubmitFeedback(s.update_id, feedback, volunteered);
  if (!outcome.ok()) {
    std::printf("error: %s\n", outcome.status().ToString().c_str());
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string strategy_name = "GDR-NoLearning";
  std::string snapshot_path = kDefaultSnapshotPath;
  std::string workload_spec = "figure1";
  bool fresh = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--strategy" && i + 1 < argc) {
      strategy_name = argv[++i];
    } else if (arg == "--snapshot" && i + 1 < argc) {
      snapshot_path = argv[++i];
    } else if (arg == "--workload" && i + 1 < argc) {
      workload_spec = argv[++i];
    } else if (arg == "--fresh") {
      fresh = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--strategy NAME] [--snapshot FILE] [--fresh] "
                   "[--workload SPEC]\n",
                   argv[0]);
      return 2;
    }
  }
  const auto strategy = StrategyFromName(strategy_name);
  if (!strategy.ok()) {
    std::fprintf(stderr, "%s\n", strategy.status().ToString().c_str());
    return 2;
  }

  // Deterministic workloads rebuild identically on every launch — a
  // snapshot restores only over the original dirty instance.
  auto dataset = ResolveWorkloadOrReport(workload_spec);
  if (!dataset.ok()) return 2;
  Table& table = dataset->dirty;
  RuleSet& rules = dataset->rules;

  GdrOptions options;
  options.strategy = *strategy;
  options.max_outer_iterations = 64;
  GdrSession session(&table, &rules, options);

  // Resume from a previous run's snapshot when one exists. The file leads
  // with a "workload <spec>" header so a session recorded against one
  // dataset is never restored onto another.
  std::ifstream snapshot_file(snapshot_path, std::ios::binary);
  if (snapshot_file.good() && !fresh) {
    std::stringstream buffer;
    buffer << snapshot_file.rdbuf();
    std::string contents = buffer.str();
    const std::string header_prefix = "workload ";
    if (contents.rfind(header_prefix, 0) == 0) {
      const std::size_t eol = contents.find('\n');
      const std::string saved_spec =
          contents.substr(header_prefix.size(),
                          eol - header_prefix.size());
      if (saved_spec != workload_spec) {
        std::fprintf(stderr,
                     "%s was snapshotted with --workload '%s', not '%s'; "
                     "relaunch with the original workload or pass --fresh\n",
                     snapshot_path.c_str(), saved_spec.c_str(),
                     workload_spec.c_str());
        return 1;
      }
      contents.erase(0, eol == std::string::npos ? contents.size() : eol + 1);
    }
    const auto snapshot = SessionSnapshot::Deserialize(contents);
    const Status restored =
        snapshot.ok() ? session.Restore(*snapshot) : snapshot.status();
    if (!restored.ok()) {
      std::fprintf(stderr,
                   "could not resume from %s (%s); pass --fresh to discard\n",
                   snapshot_path.c_str(), restored.ToString().c_str());
      return 1;
    }
    std::printf("resumed session from %s: %zu answers so far, %zu pending\n",
                snapshot_path.c_str(), session.stats().user_feedback,
                session.Outstanding().size());
  } else {
    if (!session.Start().ok()) return 1;
    std::printf("GDR interactive session (%s): %zu dirty tuples, %zu "
                "suggestions\n",
                StrategyName(*strategy), session.stats().initial_dirty,
                session.engine().pool().size());
  }

  bool quit = false;
  while (!quit && session.state() != SessionState::kDone) {
    // A restored session may land mid-batch: drain the outstanding
    // suggestions before pulling the next batch.
    std::vector<SuggestedUpdate> batch = session.Outstanding();
    if (batch.empty()) {
      auto pulled = session.NextBatch();
      if (!pulled.ok()) {
        std::fprintf(stderr, "%s\n", pulled.status().ToString().c_str());
        return 1;
      }
      batch = std::move(*pulled);
    }
    const std::size_t pending_before = batch.size();
    for (const SuggestedUpdate& s : batch) {
      if (!session.IsLive(s.update_id)) continue;  // retired by a cascade
      if (!AnswerSuggestion(&session, s)) {
        quit = true;
        break;
      }
    }
    if (!quit && session.state() == SessionState::kAwaitingFeedback &&
        session.Outstanding().size() == pending_before) {
      // Every suggestion was skipped (or had gone stale): abandon the
      // batch so the machine re-ranks and asks again. Skipped cells stay
      // pooled — nothing is ever silently dropped.
      auto refreshed = session.NextBatch();
      if (!refreshed.ok()) {
        std::fprintf(stderr, "%s\n", refreshed.status().ToString().c_str());
        return 1;
      }
    }
  }
  if (quit) {
    // Crash-safe save: a kill mid-write must leave the previous snapshot
    // intact, never a truncated prefix that fails to deserialize.
    const Status written = WriteFileAtomic(
        snapshot_path,
        "workload " + workload_spec + '\n' + session.Snapshot().Serialize());
    if (!written.ok()) {
      std::fprintf(stderr, "\nfailed to write snapshot to %s (%s) — the "
                   "session could not be saved\n", snapshot_path.c_str(),
                   written.ToString().c_str());
      return 1;
    }
    std::printf("\nsession snapshotted to %s — relaunch to resume\n",
                snapshot_path.c_str());
    return 0;
  }

  std::remove(snapshot_path.c_str());  // completed: nothing to resume
  std::printf("\nFinal instance:\n");
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    std::printf("  t%zu: %s\n", r,
                table.RowToString(static_cast<RowId>(r)).c_str());
  }
  std::printf("Remaining violations: %lld; answers given: %zu\n",
              static_cast<long long>(session.engine().index().TotalViolations()),
              session.stats().user_feedback);
  return 0;
}
