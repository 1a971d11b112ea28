// service-mixed: repair sessions served through the wire protocol.
//
// Each pass opens 16 sessions (dataset1 and dataset2 alternating, 1000
// records, GDR, budget = E) on a fresh SessionManager and drives them to
// kDone through server::HandleCommand. Passes cycle through four input
// sets, each a different row shuffle of every session's content, written
// as csv files the server resolves on open and rehydration. Up to four
// closed-loop client threads each take the next unopened session and
// drive it alone: a client sends its next command only after the reply to
// the previous one. Every session receives copies of its own dirty rows
// mid-session (so the simulated user knows their ground truth) and is
// force-evicted on a fixed pull schedule, so the rehydration count repeats
// exactly. The user answers each wire suggestion by the UserOracle rule
// applied to the rendered strings.
#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cfd/violation_index.h"
#include "core/quality.h"
#include "core/session.h"
#include "server/protocol.h"
#include "server/session_manager.h"
#include "util/strings.h"
#include "workload/file_workload.h"
#include "workload/registry.h"

#include "inputs.h"
#include "workloads.h"

namespace perfbench {
namespace {

using gdr::Feedback;
using gdr::RowId;
using gdr::Table;
using gdr::server::Backend;
using gdr::server::BackendOps;
using gdr::server::SessionKey;

constexpr std::size_t kSessions = 16;
constexpr std::size_t kRecords = 1000;
// Session i's content is generator seed kContentSeedBase + i.
constexpr std::uint64_t kContentSeedBase = 101;
constexpr std::size_t kMaxClients = 4;
// Pull schedule: append before pull kAppendAtPull, evict before every
// kEvictEvery-th pull (so that pull rehydrates the session).
constexpr int kAppendAtPull = 6;
constexpr std::size_t kAppendRows = 8;
constexpr int kEvictEvery = 25;
constexpr int kMaxPulls = 5000;
// Sessions re-driven in process without eviction and compared cell by
// cell with the served result: one dataset1 and one dataset2 session.
constexpr std::size_t kControlSessions = 2;
// Passes cycle through this many input sets, so one run averages over
// 4 x 16 distinct session inputs.
constexpr int kInputSets = 4;
constexpr int kMinPasses = kInputSets;
constexpr double kMaxLoopSeconds = 100.0;

enum Op { kOpen, kNext, kFeedback, kAppend, kEvict, kDump, kClose, kNumOps };
constexpr std::array<const char*, kNumOps> kOpNames = {
    "open", "next", "feedback", "append", "evict", "dump", "close"};

struct ServiceSession {
  int index = 0;
  std::string spec;
  std::uint64_t seed = 0;
  std::unique_ptr<gdr::Dataset> dataset;  // clean = the ground truth
  std::size_t budget = 0;                 // E of the initial instance
  std::vector<std::vector<std::string>> appended;  // copies of dirty rows
  std::vector<RowId> appended_from;                // their source rows
  // Precomputed command lines.
  std::string key;  // "<tenant> <session>"
  std::string open_line;
  std::string append_line;

  const std::string& Truth(RowId row, gdr::AttrId attr) const {
    const Table& clean = dataset->clean;
    const std::size_t n = clean.num_rows();
    const std::size_t r = static_cast<std::size_t>(row);
    return clean.at(r < n ? row : appended_from[r - n], attr);
  }
};

// The UserOracle rule over rendered strings.
Feedback Answer(const std::string& truth, const std::string& current,
                const std::string& suggested) {
  if (suggested == truth) return Feedback::kConfirm;
  if (current == truth) return Feedback::kRetain;
  return Feedback::kReject;
}

// --- Forwarding backend (traced runs only) --------------------------------
// Times each backend op so the protocol's own cost is the HandleCommand
// span minus the op it forwarded to.

thread_local double t_backend_seconds = 0.0;

struct TimedBackend {
  Backend inner;
};

template <typename F>
auto TimeOp(F&& op) {
  const std::uint64_t start = NowNs();
  auto result = op();
  t_backend_seconds = static_cast<double>(NowNs() - start) * 1e-9;
  return result;
}

const Backend& Inner(void* self) {
  return static_cast<TimedBackend*>(self)->inner;
}

gdr::Result<gdr::server::WireOpenResult> TimedOpen(
    void* self, const SessionKey& key, const gdr::server::OpenConfig& config) {
  const Backend& b = Inner(self);
  return TimeOp([&] { return b.ops->open(b.self, key, config); });
}
gdr::Result<gdr::server::WireBatch> TimedNext(void* self,
                                              const SessionKey& key) {
  const Backend& b = Inner(self);
  return TimeOp([&] { return b.ops->next(b.self, key); });
}
gdr::Result<gdr::server::WireFeedbackResult> TimedFeedback(
    void* self, const SessionKey& key, std::uint64_t update_id,
    Feedback feedback, const std::optional<std::string>& value) {
  const Backend& b = Inner(self);
  return TimeOp(
      [&] { return b.ops->feedback(b.self, key, update_id, feedback, value); });
}
gdr::Result<gdr::server::WireAppendResult> TimedAppend(
    void* self, const SessionKey& key,
    const std::vector<std::vector<std::string>>& rows) {
  const Backend& b = Inner(self);
  return TimeOp([&] { return b.ops->append(b.self, key, rows); });
}
gdr::Result<std::size_t> TimedSnapshot(void* self, const SessionKey& key) {
  const Backend& b = Inner(self);
  return TimeOp([&] { return b.ops->snapshot(b.self, key); });
}
gdr::Result<std::size_t> TimedEvict(void* self, const SessionKey& key) {
  const Backend& b = Inner(self);
  return TimeOp([&] { return b.ops->evict(b.self, key); });
}
gdr::Result<std::vector<std::string>> TimedDump(void* self,
                                                const SessionKey& key) {
  const Backend& b = Inner(self);
  return TimeOp([&] { return b.ops->dump(b.self, key); });
}
gdr::Status TimedClose(void* self, const SessionKey& key) {
  const Backend& b = Inner(self);
  return TimeOp([&] { return b.ops->close(b.self, key); });
}
gdr::server::WireServerStats TimedStats(void* self) {
  const Backend& b = Inner(self);
  return TimeOp([&] { return b.ops->stats(b.self); });
}

constexpr BackendOps kTimedOps = {
    /*name=*/"timed",       /*open=*/&TimedOpen,
    /*next=*/&TimedNext,    /*feedback=*/&TimedFeedback,
    /*append=*/&TimedAppend, /*snapshot=*/&TimedSnapshot,
    /*evict=*/&TimedEvict,  /*dump=*/&TimedDump,
    /*close=*/&TimedClose,  /*stats=*/&TimedStats,
};

// --- Wire replies ------------------------------------------------------------

struct Suggestion {
  std::uint64_t id = 0;
  RowId row = 0;
  std::string attr;
  std::string current;
  std::string suggested;
};

std::vector<std::string_view> Split(std::string_view text, char sep) {
  std::vector<std::string_view> parts;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find(sep, start);
    if (end == std::string_view::npos) end = text.size();
    if (end > start) parts.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return parts;
}

// Value of `key=` in a one-line reply, or empty.
std::string_view Field(std::string_view reply, std::string_view key) {
  std::string needle(" ");
  needle.append(key).push_back('=');
  const std::size_t at = reply.find(needle);
  if (at == std::string_view::npos) return {};
  const std::size_t start = at + needle.size();
  std::size_t end = reply.find_first_of(" \n", start);
  if (end == std::string_view::npos) end = reply.size();
  return reply.substr(start, end - start);
}

double FieldNumber(std::string_view reply, std::string_view key) {
  const gdr::Result<std::uint64_t> parsed =
      gdr::ParseUint64(Field(reply, key), std::string(key));
  return parsed.ok() ? static_cast<double>(*parsed) : -1.0;
}

// Parses a `next` reply; false when malformed.
bool ParseBatch(std::string_view reply, std::string* state,
                std::vector<Suggestion>* out) {
  out->clear();
  const std::vector<std::string_view> lines = Split(reply, '\n');
  if (lines.empty()) return false;
  *state = std::string(Field(lines[0], "state"));
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::vector<std::string_view> t = Split(lines[i], ' ');
    if (t.size() != 9 || t[0] != "S") return false;
    Suggestion s;
    const auto id = gdr::ParseUint64(t[1], "update-id");
    const auto row = gdr::ParseInt64(t[2], "row");
    if (!id.ok() || !row.ok()) return false;
    s.id = *id;
    s.row = static_cast<RowId>(*row);
    if (!gdr::DecodeHex(t[3], &s.attr) || !gdr::DecodeHex(t[4], &s.current) ||
        !gdr::DecodeHex(t[5], &s.suggested)) {
      return false;
    }
    out->push_back(std::move(s));
  }
  return out->size() == static_cast<std::size_t>(FieldNumber(lines[0], "n"));
}

// Parses a `dump` reply into row-major cells; false when malformed.
bool ParseDump(std::string_view reply, std::vector<std::string>* cells) {
  cells->clear();
  const std::vector<std::string_view> lines = Split(reply, '\n');
  for (std::size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].size() < 2 || lines[i].substr(0, 2) != "C ") return false;
    std::string cell;
    if (!gdr::DecodeHex(lines[i].substr(2), &cell)) return false;
    cells->push_back(std::move(cell));
  }
  return !lines.empty() &&
         cells->size() == static_cast<std::size_t>(FieldNumber(lines[0], "n"));
}

// --- Clients -----------------------------------------------------------------

struct OpCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

// One client thread's state; it persists across passes and is merged into
// the run result at the end.
struct Client {
  explicit Client(bool trace) : trace(trace) {}

  Backend backend;
  Trace trace;
  std::array<OpCount, kNumOps> ops{};
  std::vector<double> open_s;
  std::vector<double> next_ms;
  std::vector<double> feedback_ms;
  double machine_s = 0.0;  // next + feedback time of finished sessions
  std::size_t sessions = 0;
  std::size_t submissions = 0;
  std::size_t applied = 0;
  std::size_t stale = 0;
  std::size_t duplicate = 0;
  std::size_t unknown_id = 0;
  std::vector<std::string> errors;
  std::string reply;
};

struct Exec {
  bool ok = false;
  double seconds = 0.0;
  int span = -1;
};

// Issues one command through the protocol layer and records its span (and,
// with the forwarding backend, the backend op as a child span).
Exec Issue(Client* c, Op op, const char* span_name, const std::string& line,
           int session) {
  c->reply.clear();
  t_backend_seconds = 0.0;
  const Mark begin = c->trace.Begin();
  gdr::server::HandleCommand(c->backend, line, &c->reply);
  Exec exec;
  exec.seconds = c->trace.Close(begin, span_name, session);
  exec.span = c->trace.last();
  c->trace.Attribute("server.backend", session, exec.span, t_backend_seconds);
  ++c->ops[op].attempted;
  exec.ok = c->reply.rfind("OK", 0) == 0;
  if (!exec.ok) {
    ++c->ops[op].failed;
    c->errors.push_back(line.substr(0, 60) + " -> " +
                        c->reply.substr(0, c->reply.find('\n')));
  }
  return exec;
}

// Drives one session from open to kDone. Returns false on any error reply
// or protocol violation (already recorded in c->errors).
bool DriveWire(Client* c, const ServiceSession& ss) {
  const int s = ss.index;
  Exec exec = Issue(c, kOpen, "server.open", ss.open_line, s);
  if (!exec.ok) return false;
  c->open_s.push_back(exec.seconds);

  const std::string next_line = "next " + ss.key;
  const std::string evict_line = "evict " + ss.key;
  const std::string feedback_prefix = "feedback " + ss.key + " ";
  double machine = 0.0;
  std::string state;
  std::vector<Suggestion> batch;
  std::string line;
  for (int pull = 0; pull < kMaxPulls; ++pull) {
    if (pull == kAppendAtPull) {
      exec = Issue(c, kAppend, "server.append", ss.append_line, s);
      if (!exec.ok) return false;
      c->trace.SetValue(exec.span, FieldNumber(c->reply, "newly-dirty"));
    }
    bool rehydrate = false;
    if (pull > 0 && pull % kEvictEvery == 0) {
      exec = Issue(c, kEvict, "server.evict", evict_line, s);
      if (!exec.ok) return false;
      c->trace.SetValue(exec.span, FieldNumber(c->reply, "bytes"));
      rehydrate = true;
    }
    exec = Issue(c, kNext, rehydrate ? "server.rehydrate" : "server.next",
                 next_line, s);
    if (!exec.ok) return false;
    machine += exec.seconds;
    c->next_ms.push_back(exec.seconds * 1e3);
    if (!ParseBatch(c->reply, &state, &batch)) {
      c->errors.push_back("malformed next reply: " + c->reply.substr(0, 60));
      ++c->ops[kNext].failed;
      return false;
    }
    if (batch.empty()) {
      if (state != "done") {
        c->errors.push_back("empty batch in state " + state);
        return false;
      }
      c->machine_s += machine;
      ++c->sessions;
      return true;
    }
    for (const Suggestion& suggestion : batch) {
      const Mark think = c->trace.Begin();
      const gdr::AttrId attr =
          ss.dataset->clean.schema().FindAttr(suggestion.attr);
      if (attr == gdr::kInvalidAttrId) {
        c->errors.push_back("suggestion names unknown attribute " +
                            suggestion.attr);
        return false;
      }
      const Feedback feedback = Answer(ss.Truth(suggestion.row, attr),
                                       suggestion.current,
                                       suggestion.suggested);
      line = feedback_prefix + std::to_string(suggestion.id) + " " +
             gdr::FeedbackName(feedback);
      c->trace.Close(think, "session.user", s);

      exec = Issue(c, kFeedback, "server.feedback", line, s);
      if (!exec.ok) return false;
      machine += exec.seconds;
      c->feedback_ms.push_back(exec.seconds * 1e3);
      ++c->submissions;
      const std::string_view outcome = Field(c->reply, "outcome");
      if (outcome == "applied") {
        ++c->applied;
      } else if (outcome == "stale") {
        ++c->stale;
      } else if (outcome == "duplicate") {
        ++c->duplicate;
      } else if (outcome == "unknown-id") {
        ++c->unknown_id;
      } else {
        c->errors.push_back("unexpected feedback reply: " + c->reply);
        ++c->ops[kFeedback].failed;
        return false;
      }
    }
  }
  c->errors.push_back("session " + std::to_string(s) +
                      " did not finish within the pull guard");
  return false;
}

// Closed-loop client threads that persist across passes, so allocator
// state (per-thread arenas) carries over instead of being rebuilt for every
// pass. Each Drive() hands the threads one pass's sessions; a thread takes
// the next undriven session, drives it to kDone, and repeats.
class ClientPool {
 public:
  explicit ClientPool(std::vector<Client>* clients) : clients_(clients) {
    for (Client& client : *clients_) {
      threads_.emplace_back([this, &client] { Loop(&client); });
    }
  }

  ~ClientPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  ClientPool(const ClientPool&) = delete;
  ClientPool& operator=(const ClientPool&) = delete;

  /// Drives every session through `backend`; false if any session failed.
  bool Drive(const std::vector<ServiceSession>* sessions, Backend backend) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      sessions_ = sessions;
      for (Client& client : *clients_) client.backend = backend;
      next_session_ = 0;
      failed_ = false;
      running_ = clients_->size();
      ++generation_;
    }
    wake_.notify_all();
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [this] { return running_ == 0; });
    return !failed_;
  }

  /// Machine time of every session the clients have finished; call
  /// between Drive()s.
  double MachineSeconds() const {
    double total = 0.0;
    for (const Client& client : *clients_) total += client.machine_s;
    return total;
  }

 private:
  void Loop(Client* client) {
    std::uint64_t seen = 0;
    while (true) {
      const std::vector<ServiceSession>* sessions = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        sessions = sessions_;
      }
      while (true) {
        const std::size_t i = next_session_.fetch_add(1);
        if (i >= sessions->size()) break;
        if (!DriveWire(client, (*sessions)[i])) failed_ = true;
      }
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (--running_ == 0) done_.notify_all();
      }
    }
  }

  std::vector<Client>* clients_;
  std::mutex mutex_;  // guards everything below but the atomics
  std::condition_variable wake_;
  std::condition_variable done_;
  const std::vector<ServiceSession>* sessions_ = nullptr;
  std::uint64_t generation_ = 0;
  std::size_t running_ = 0;
  bool stop_ = false;
  std::atomic<std::size_t> next_session_{0};
  std::atomic<bool> failed_{false};
  std::vector<std::thread> threads_;  // last: joined before the rest dies
};

struct PassOutcome {
  int set = 0;  // which input set the pass served
  double wall_s = 0.0;
  // Mean next + feedback time per session. Every pass serves the same
  // dataset1/dataset2 mix, so this does not depend on which sessions fall
  // either side of a median.
  double session_s = 0.0;
  gdr::server::WireServerStats stats;
  std::vector<std::vector<std::string>> dumps;  // per session, row-major
  std::vector<std::uint64_t> hashes;            // per session, of the dump
  bool ok = true;
};

std::uint64_t CellsHash(const std::vector<std::string>& cells) {
  std::uint64_t hash = gdr::Fnv1a64("");
  for (const std::string& cell : cells) {
    hash = gdr::Fnv1a64(cell, hash);
    hash = gdr::Fnv1a64("\x1f", hash);
  }
  return hash;
}

// One pass over a fresh manager: the pool drives every session of `set`;
// after the clock stops, every session is dumped and closed through the
// protocol.
PassOutcome RunPass(const std::vector<std::vector<ServiceSession>>& sets,
                    int set, ClientPool* pool, Client* admin, bool wrap,
                    const std::string& spill_dir) {
  const std::vector<ServiceSession>& sessions = sets[static_cast<std::size_t>(set)];
  gdr::server::SessionManagerOptions manager_options;
  manager_options.spill_dir = spill_dir;
  manager_options.memory_budget_bytes = 0;  // only the forced evictions
  manager_options.max_sessions = kSessions + 8;
  manager_options.num_threads = 1;
  gdr::server::SessionManager manager(manager_options);
  TimedBackend timed{gdr::server::MakeSessionManagerBackend(&manager)};
  const Backend backend = wrap ? Backend{&timed, &kTimedOps} : timed.inner;

  PassOutcome pass;
  pass.set = set;
  const double machine_before = pool->MachineSeconds();
  const std::uint64_t start = NowNs();
  pass.ok = pool->Drive(&sessions, backend);
  pass.wall_s = static_cast<double>(NowNs() - start) * 1e-9;
  pass.session_s = (pool->MachineSeconds() - machine_before) /
                   static_cast<double>(sessions.size());
  pass.stats = manager.Stats();

  admin->backend = backend;
  for (const ServiceSession& ss : sessions) {
    std::vector<std::string> cells;
    const Exec dumped = Issue(admin, kDump, "server.dump", "dump " + ss.key,
                              ss.index);
    if (!dumped.ok || !ParseDump(admin->reply, &cells)) pass.ok = false;
    pass.hashes.push_back(CellsHash(cells));
    pass.dumps.push_back(std::move(cells));
    if (!Issue(admin, kClose, "server.close", "close " + ss.key, ss.index).ok) {
      pass.ok = false;
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(spill_dir, ec);
  return pass;
}

// The eviction-free control: the same session driven in process through
// GdrSession with the same appends at the same pull and the same answers.
// Returns the final cells row-major, or an error.
gdr::Result<std::vector<std::string>> ControlDrive(const ServiceSession& ss,
                                                   RunResult* result) {
  Table working = ss.dataset->dirty;
  gdr::GdrOptions options;
  options.strategy = gdr::Strategy::kGdr;
  options.ns = 5;
  options.feedback_budget = ss.budget;
  options.seed = ss.seed;
  gdr::GdrSession session(&working, &ss.dataset->rules, options);
  GDR_RETURN_NOT_OK(session.Start());
  for (int pull = 0; pull < kMaxPulls; ++pull) {
    if (pull == kAppendAtPull) {
      GDR_RETURN_NOT_OK(session.AppendDirtyRows(ss.appended).status());
    }
    GDR_ASSIGN_OR_RETURN(const std::vector<gdr::SuggestedUpdate> batch,
                         session.NextBatch());
    if (batch.empty()) break;
    // Render before answering, as the wire does at delivery.
    std::vector<Feedback> answers;
    for (const gdr::SuggestedUpdate& s : batch) {
      const Table& table = session.table();
      answers.push_back(
          Answer(ss.Truth(s.update.row, s.update.attr),
                 table.at(s.update.row, s.update.attr),
                 table.dict(s.update.attr).ToString(s.update.value)));
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      GDR_RETURN_NOT_OK(
          session.SubmitFeedback(batch[i].update_id, answers[i]).status());
    }
  }
  if (session.state() != gdr::SessionState::kDone) {
    return gdr::Status::Internal("control session did not finish");
  }
  Table final_copy = session.table();
  const gdr::ViolationIndex fresh(&final_copy, &ss.dataset->rules);
  if (fresh.TotalViolations() != session.engine().index().TotalViolations()) {
    result->failures.push_back("control session " + std::to_string(ss.index) +
                               ": fresh index disagrees with the engine");
  }
  if (session.stats().user_feedback > ss.budget) {
    result->failures.push_back("control session " + std::to_string(ss.index) +
                               ": user labels exceed the budget");
  }
  std::vector<std::string> cells;
  for (std::size_t r = 0; r < final_copy.num_rows(); ++r) {
    std::vector<std::string> row = RowValues(final_copy, static_cast<RowId>(r));
    cells.insert(cells.end(), row.begin(), row.end());
  }
  return cells;
}

// Eq. 3 improvement of a served session's final table (its dump) against
// the ground truth, both extended by the appended rows.
gdr::Result<double> Improvement(const ServiceSession& ss,
                                const std::vector<std::string>& cells) {
  const gdr::Dataset& d = *ss.dataset;
  Table truth = d.clean;
  Table initial = d.dirty;
  for (std::size_t i = 0; i < ss.appended.size(); ++i) {
    GDR_RETURN_NOT_OK(
        truth.AppendRow(RowValues(d.clean, ss.appended_from[i])).status());
    GDR_RETURN_NOT_OK(initial.AppendRow(ss.appended[i]).status());
  }
  Table final_table(d.dirty.schema());
  const std::size_t width = d.dirty.num_attrs();
  if (cells.size() != truth.num_rows() * width) {
    return gdr::Status::Internal("dump has " + std::to_string(cells.size()) +
                                 " cells, expected " +
                                 std::to_string(truth.num_rows() * width));
  }
  for (std::size_t r = 0; r < truth.num_rows(); ++r) {
    GDR_RETURN_NOT_OK(
        final_table
            .AppendRow(std::vector<std::string>(
                cells.begin() + static_cast<std::ptrdiff_t>(r * width),
                cells.begin() + static_cast<std::ptrdiff_t>((r + 1) * width)))
            .status());
  }
  Table initial_copy = d.dirty;
  const gdr::ViolationIndex weight_index(&initial_copy, &d.rules);
  const gdr::QualityEvaluator evaluator(truth, &d.rules,
                                        gdr::ContextRuleWeights(weight_index));
  const gdr::ViolationIndex initial_index(&initial, &d.rules);
  const gdr::ViolationIndex final_index(&final_table, &d.rules);
  return evaluator.ImprovementPct(final_index, evaluator.Loss(initial_index));
}

// Where the run's csv inputs live; removed when the run ends.
std::string InputsDir(const RunOptions& options) {
  return options.scratch_dir + "/service-inputs";
}

// Builds input set `set`: 16 sessions with fixed content per slot, rows
// shuffled by a seed drawn from the run's seed (inputs.h), handed to the
// server as csv files it resolves on every open and rehydration.
gdr::Status PrepareSessions(const RunOptions& options, int set,
                            const std::vector<gdr::Dataset>& contents,
                            Trace* trace,
                            std::vector<ServiceSession>* sessions) {
  for (int i = 0; i < static_cast<int>(kSessions); ++i) {
    ServiceSession ss;
    ss.index = i;
    ss.seed = (options.seed * kInputSets + static_cast<std::uint64_t>(set)) *
                  1000 +
              static_cast<std::uint64_t>(i);
    gdr::Result<gdr::Dataset> permuted =
        ShuffleRows(contents[static_cast<std::size_t>(i)], ss.seed);
    if (!permuted.ok()) return permuted.status();
    ss.dataset = std::make_unique<gdr::Dataset>(std::move(*permuted));
    const std::string dir =
        InputsDir(options) + "/" + std::to_string(ss.seed);
    GDR_RETURN_NOT_OK(gdr::ExportWorkload(*ss.dataset, dir));
    ss.spec = gdr::CsvWorkloadSpec(dir).ToString();
    const Mark begin = trace->Begin();
    const gdr::Result<gdr::Dataset> resolved =
        gdr::WorkloadRegistry::Global().Resolve(ss.spec);
    trace->Close(begin, "workload.resolve", i);
    if (!resolved.ok()) return resolved.status();

    Table copy = ss.dataset->dirty;
    const gdr::ViolationIndex index(&copy, &ss.dataset->rules);
    const std::vector<RowId> dirty = index.DirtyRows();
    ss.budget = dirty.size();
    if (dirty.size() < kAppendRows) {
      return gdr::Status::Internal(ss.spec + " has too few dirty rows");
    }
    std::string payload;
    for (std::size_t k = 0; k < kAppendRows; ++k) {
      ss.appended_from.push_back(dirty[k]);
      ss.appended.push_back(RowValues(ss.dataset->dirty, dirty[k]));
      if (k > 0) payload += ';';
      for (std::size_t a = 0; a < ss.appended.back().size(); ++a) {
        if (a > 0) payload += ',';
        payload += gdr::EncodeHex(ss.appended.back()[a]);
      }
    }
    ss.key = std::string("t") + std::to_string(i % 4) + " s" +
             std::to_string(i);
    ss.open_line = "open " + ss.key + " " + ss.spec +
                   " strategy=GDR ns=5 budget=" + std::to_string(ss.budget) +
                   " seed=" + std::to_string(ss.seed);
    ss.append_line = "append " + ss.key + " " + payload;
    sessions->push_back(std::move(ss));
  }
  return gdr::Status::OK();
}

// Checks a set's first served pass: its sampled sessions against
// eviction-free in-process controls, and every session's improvement.
void CheckSet(const std::vector<ServiceSession>& sessions, int set,
              const std::vector<std::vector<std::string>>& dumps,
              RunResult* result, std::vector<double>* improvement) {
  for (std::size_t i = 0; i < kControlSessions; ++i) {
    const gdr::Result<std::vector<std::string>> control =
        ControlDrive(sessions[i], result);
    if (!control.ok()) {
      result->failures.push_back("control: " + control.status().ToString());
    } else if (*control != dumps[i]) {
      result->failures.push_back("set " + std::to_string(set) + " session " +
                                 std::to_string(i) +
                                 " served result differs from its "
                                 "eviction-free in-process control");
    }
  }
  for (std::size_t i = 0; i < kSessions; ++i) {
    const gdr::Result<double> pct = Improvement(sessions[i], dumps[i]);
    if (!pct.ok()) {
      result->failures.push_back("improvement: " + pct.status().ToString());
      return;
    }
    improvement->push_back(*pct);
  }
}

}  // namespace

RunResult RunService(const RunOptions& options) {
  RunResult result;
  result.trace = Trace(options.trace);
  const struct RemoveInputs {
    std::string dir;
    ~RemoveInputs() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } remove_inputs{InputsDir(options)};
  // Session slot i's content: dataset1 and dataset2 alternating, fixed
  // generator seeds.
  std::vector<gdr::Dataset> contents;
  for (std::size_t i = 0; i < kSessions; ++i) {
    const std::string spec =
        std::string(i % 2 == 0 ? "dataset1" : "dataset2") +
        ":records=" + std::to_string(kRecords) +
        ",seed=" + std::to_string(kContentSeedBase + i);
    gdr::Result<gdr::Dataset> content =
        gdr::WorkloadRegistry::Global().Resolve(spec);
    if (!content.ok()) {
      result.failures.push_back(spec + ": " + content.status().ToString());
      return result;
    }
    contents.push_back(std::move(*content));
  }
  std::vector<std::vector<ServiceSession>> sets(kInputSets);
  for (int set = 0; set < kInputSets; ++set) {
    const gdr::Status prepared =
        PrepareSessions(options, set, contents, &result.trace,
                        &sets[static_cast<std::size_t>(set)]);
    if (!prepared.ok()) {
      result.failures.push_back("prepare: " + prepared.ToString());
      return result;
    }
  }

  const std::size_t num_clients = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, kMaxClients);
  std::vector<Client> clients;
  for (std::size_t t = 0; t < num_clients; ++t) clients.emplace_back(options.trace);
  Client admin(false);
  int pass_index = 0;
  const auto spill_dir = [&] {
    return options.scratch_dir + "/spill-" + std::to_string(pass_index++);
  };

  // Untraced: one warm-up pass at full concurrency, whose numbers are
  // dropped. Traced: a single-client pass, the base of client_scaling.
  std::vector<Client> first(options.trace ? 1 : num_clients, Client(false));
  PassOutcome first_pass;
  {
    ClientPool first_pool(&first);
    first_pass =
        RunPass(sets, 0, &first_pool, &admin, options.trace, spill_dir());
  }
  // Output checks, run between passes: the first pass over an input set
  // compares its sampled sessions with eviction-free in-process controls
  // and scores every session's improvement; each later pass over the set
  // must end every session with the same cells. Dumps are dropped once
  // checked, so memory stays flat across passes.
  std::map<int, std::vector<std::uint64_t>> set_hashes;
  std::vector<double> improvement;
  const auto check = [&](PassOutcome* pass) {
    const auto [it, fresh] = set_hashes.try_emplace(pass->set, pass->hashes);
    if (fresh) {
      CheckSet(sets[static_cast<std::size_t>(pass->set)], pass->set,
               pass->dumps, &result, &improvement);
    } else if (it->second != pass->hashes) {
      result.failures.push_back("set " + std::to_string(pass->set) +
                                ": sessions ended differently across passes");
    }
    pass->dumps = {};
  };
  if (first_pass.ok) check(&first_pass);

  std::vector<PassOutcome> passes;
  bool ok = first_pass.ok;
  {
    ClientPool pool(&clients);
    const std::uint64_t loop_start = NowNs();
    const auto elapsed = [&] {
      return static_cast<double>(NowNs() - loop_start) * 1e-9;
    };
    while (ok && (static_cast<int>(passes.size()) < kMinPasses ||
                  elapsed() < options.seconds) &&
           elapsed() < kMaxLoopSeconds) {
      const int set = static_cast<int>(passes.size()) % kInputSets;
      passes.push_back(
          RunPass(sets, set, &pool, &admin, options.trace, spill_dir()));
      ok = passes.back().ok;
      if (ok) check(&passes.back());
    }
  }

  // Merge the client tallies (the first pass counts toward failures only).
  std::array<OpCount, kNumOps> ops{};
  std::vector<double> open_s, next_ms, feedback_ms;
  std::size_t submissions = 0, applied = 0, stale = 0, duplicate = 0,
              unknown_id = 0;
  std::vector<std::string> errors;
  for (std::vector<Client>* group : {&first, &clients}) {
    for (Client& c : *group) {
      for (int op = 0; op < kNumOps; ++op) {
        ops[op].attempted += c.ops[op].attempted;
        ops[op].failed += c.ops[op].failed;
      }
      errors.insert(errors.end(), c.errors.begin(), c.errors.end());
    }
  }
  for (Client& c : clients) {
    open_s.insert(open_s.end(), c.open_s.begin(), c.open_s.end());
    next_ms.insert(next_ms.end(), c.next_ms.begin(), c.next_ms.end());
    feedback_ms.insert(feedback_ms.end(), c.feedback_ms.begin(),
                       c.feedback_ms.end());
    submissions += c.submissions;
    applied += c.applied;
    stale += c.stale;
    duplicate += c.duplicate;
    unknown_id += c.unknown_id;
    result.trace.Append(c.trace);
  }
  for (int op = 0; op < kNumOps; ++op) {
    ops[op].attempted += admin.ops[op].attempted;
    ops[op].failed += admin.ops[op].failed;
  }
  errors.insert(errors.end(), admin.errors.begin(), admin.errors.end());
  for (const OpCount& count : ops) {
    result.attempted += count.attempted;
    result.failed += count.failed;
  }
  for (std::size_t i = 0; i < errors.size() && i < 5; ++i) {
    result.failures.push_back("service: " + errors[i]);
  }
  if (!ok || passes.empty()) {
    result.failures.push_back("service pass failed");
    return result;
  }

  if (improvement.empty()) {
    result.failures.push_back("no session was scored");
    return result;
  }
  double improvement_mean = 0.0;
  for (const double pct : improvement) improvement_mean += pct;
  improvement_mean /= static_cast<double>(improvement.size());
  const PassOutcome& last = passes.back();

  double wall = 0.0;
  std::vector<double> pass_rates, session_s;
  for (const PassOutcome& pass : passes) {
    wall += pass.wall_s;
    pass_rates.push_back(static_cast<double>(kSessions) / pass.wall_s);
    session_s.push_back(pass.session_s);
  }
  const double served = static_cast<double>(kSessions * passes.size());
  const double sessions_per_s = Median(pass_rates);

  char line[512];
  std::snprintf(line, sizeof(line),
                "service-mixed: %zu passes x %zu sessions, %zu clients, "
                "%.2fs served, next samples=%zu, feedback samples=%zu, "
                "open samples=%zu, evictions/pass=%zu, rehydrations/pass=%zu, "
                "outcomes applied=%zu stale=%zu duplicate=%zu unknown-id=%zu",
                passes.size(), kSessions, num_clients, wall, next_ms.size(),
                feedback_ms.size(), open_s.size(), last.stats.evictions,
                last.stats.rehydrations, applied, stale, duplicate, unknown_id);
  result.notes.push_back(line);
  for (int op = 0; op < kNumOps; ++op) {
    std::snprintf(line, sizeof(line), "  %-8s attempted=%llu failed=%llu",
                  kOpNames[op],
                  static_cast<unsigned long long>(ops[op].attempted),
                  static_cast<unsigned long long>(ops[op].failed));
    result.notes.push_back(line);
  }

  if (!options.trace) {
    result.metrics = {
        {"session_s", Median(session_s), "s"},
        {"setup_s", Median(open_s), "s"},
        {"next_p50_ms", Percentile(next_ms, 0.50), "ms"},
        {"next_p99_ms", Percentile(next_ms, 0.99), "ms"},
        {"feedback_p99_ms", Percentile(feedback_ms, 0.99), "ms"},
        {"sessions_per_s", sessions_per_s, "1/s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"improvement_pct", improvement_mean, "%"},
    };
    return result;
  }

  const Trace& trace = result.trace;
  const double n = served;
  const auto add = [&](const char* name, double value, const char* unit) {
    result.metrics.push_back({name, value, unit});
  };
  const auto mean_ms = [&](const char* name) {
    const Trace::Totals t = trace.Sum({name});
    return Ratio(t.seconds * 1e3, t.count);
  };
  const Trace::Totals next = trace.Sum({"server.next", "server.rehydrate"});
  const Trace::Totals feedback = trace.Sum({"server.feedback"});
  const Trace::Totals append = trace.Sum({"server.append"});
  const Trace::Totals evict = trace.Sum({"server.evict"});
  const Trace::Totals commands =
      trace.Sum({"server.open", "server.next", "server.rehydrate",
                 "server.feedback", "server.append", "server.evict"});
  add("session.next_s", next.seconds / n, "s");
  add("session.feedback_s", feedback.seconds / n, "s");
  add("session.user_s", trace.Sum({"session.user"}).seconds / n, "s");
  add("session.next_calls", next.count / n, "count");
  add("session.feedback_calls", feedback.count / n, "count");
  add("trace.session_s", Median(session_s), "s");
  add("core.stale_frac",
      Ratio(static_cast<double>(stale), static_cast<double>(submissions)),
      "ratio");

  add("server.open_ms", mean_ms("server.open"), "ms");
  add("server.next_ms", mean_ms("server.next"), "ms");
  add("server.feedback_ms", mean_ms("server.feedback"), "ms");
  add("server.append_ms", mean_ms("server.append"), "ms");
  add("server.evict_ms", mean_ms("server.evict"), "ms");
  add("server.rehydrate_ms", mean_ms("server.rehydrate"), "ms");
  add("server.snapshot_bytes", Ratio(evict.value, evict.count), "B");
  add("server.protocol_self_ms",
      Ratio((commands.seconds - trace.Sum({"server.backend"}).seconds) * 1e3,
            commands.count),
      "ms");
  add("server.evictions", static_cast<double>(last.stats.evictions), "count");
  add("server.rehydrations", static_cast<double>(last.stats.rehydrations),
      "count");
  const double base_rate = static_cast<double>(kSessions) / first_pass.wall_s;
  add("server.client_scaling",
      sessions_per_s / (static_cast<double>(num_clients) * base_rate),
      "ratio");

  add("workload.resolve_ms", mean_ms("workload.resolve"), "ms");
  add("stream.append_rows_per_s",
      Ratio(append.count * static_cast<double>(kAppendRows), append.seconds),
      "1/s");
  add("stream.newly_dirty", append.value / n, "count");

  add("alloc.next_per_call", Ratio(next.allocs, next.count), "count");
  add("alloc.feedback_per_call", Ratio(feedback.allocs, feedback.count),
      "count");
  add("alloc.bytes_per_label",
      Ratio(next.alloc_bytes + feedback.alloc_bytes,
            static_cast<double>(applied)),
      "B");
  add("rusage.minor_faults", commands.minor_faults / n, "count");
  add("rusage.major_faults", commands.major_faults / n, "count");
  return result;
}

}  // namespace perfbench
