// Quickstart: repair the paper's Figure 1 scenario with a scripted user.
//
// Demonstrates the minimal public API surface:
//   WorkloadRegistry    — resolve a named workload (or CSV files) into a
//                         clean/dirty/rules Dataset
//   FeedbackProvider    — supply user answers
//   GdrSession          — the guided-repair loop (PumpSession drives it
//                         with a FeedbackProvider)
//
// Build & run:  ./build/examples/quickstart [--workload=SPEC]
//   default SPEC is "figure1" (the paper's running example); try e.g.
//   --workload=csv:clean=examples/data/toy_clean.csv,dirty=examples/data/toy_dirty.csv,rules=examples/data/toy_rules.txt
#include <cstdio>
#include <string>

#include "core/session.h"
#include "workload/registry.h"

using namespace gdr;

namespace {

// A "user" that knows the true values of the workload's clean instance and
// answers exactly like the paper's simulated user: confirm when the
// suggestion matches the truth, retain when the cell is already right,
// else reject.
class ScriptedUser : public FeedbackProvider {
 public:
  explicit ScriptedUser(const Table* truth) : truth_(truth) {}

  Feedback GetFeedback(const Table& table, const Update& update) override {
    const std::string& truth = truth_->at(update.row, update.attr);
    const std::string& suggested =
        table.dict(update.attr).ToString(update.value);
    std::printf("  user asked about %s -> ",
                update.ToString(table).c_str());
    if (suggested == truth) {
      std::printf("confirm\n");
      return Feedback::kConfirm;
    }
    if (table.at(update.row, update.attr) == truth) {
      std::printf("retain\n");
      return Feedback::kRetain;
    }
    std::printf("reject\n");
    return Feedback::kReject;
  }

 private:
  const Table* truth_;
};

}  // namespace

int main(int argc, char** argv) {
  std::string spec = "figure1";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--workload=", 0) == 0) {
      spec = arg.substr(std::string("--workload=").size());
    } else {
      std::fprintf(stderr, "usage: %s [--workload=SPEC]\n", argv[0]);
      return 2;
    }
  }

  auto dataset = ResolveWorkloadOrReport(spec);
  if (!dataset.ok()) return 2;

  Table dirty = dataset->dirty;
  std::printf("Dirty instance (%s):\n", dataset->name.c_str());
  for (std::size_t r = 0; r < dirty.num_rows(); ++r) {
    std::printf("  t%zu: %s\n", r,
                dirty.RowToString(static_cast<RowId>(r)).c_str());
  }

  ScriptedUser user(&dataset->clean);
  GdrOptions options;
  options.strategy = Strategy::kGdrNoLearning;  // verify everything
  GdrSession session(&dirty, &dataset->rules, options);
  if (!session.Start().ok()) return 1;
  const GdrEngine& engine = session.engine();
  std::printf("\nInitially dirty tuples: %zu, suggested updates: %zu\n\n",
              engine.stats().initial_dirty, engine.pool().size());
  if (!PumpSession(&session, &user).ok()) return 1;

  std::printf("\nRepaired instance (%zu user answers, %zu forced repairs):\n",
              engine.stats().user_feedback, engine.stats().forced_repairs);
  for (std::size_t r = 0; r < dirty.num_rows(); ++r) {
    std::printf("  t%zu: %s\n", r,
                dirty.RowToString(static_cast<RowId>(r)).c_str());
  }
  std::printf("Remaining violations: %lld\n",
              static_cast<long long>(engine.index().TotalViolations()));
  return engine.index().TotalViolations() == 0 ? 0 : 2;
}
