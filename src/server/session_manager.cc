#include "server/session_manager.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "util/fileio.h"
#include "workload/registry.h"

namespace gdr::server {

namespace {

// The spill-file header, shared with examples/interactive_repl.cpp: the
// snapshot is only replayable over the workload it was recorded against.
constexpr char kWorkloadHeader[] = "workload ";

// Resident-footprint estimate for the budget policy. Exactness does not
// matter — eviction order and pressure do — so this is a monotonic proxy:
// a fixed per-session overhead (engine components, learner bank, pool)
// plus the dirty table's cells (interned ids in the table and index, dict
// strings, membership lists).
std::size_t EstimateBytes(const Dataset& dataset) {
  constexpr std::size_t kSessionOverhead = 16 * 1024;
  const std::size_t cells =
      dataset.dirty.num_rows() * dataset.dirty.num_attrs();
  return kSessionOverhead + cells * 24;
}

const char* FeedbackOutcomeName(FeedbackOutcome outcome) {
  switch (outcome) {
    case FeedbackOutcome::kApplied:
      return "applied";
    case FeedbackOutcome::kStale:
      return "stale";
    case FeedbackOutcome::kDuplicate:
      return "duplicate";
    case FeedbackOutcome::kUnknownId:
      return "unknown-id";
  }
  return "unknown";
}

WireSuggestion RenderSuggestion(const GdrSession& session,
                                const SuggestedUpdate& s) {
  const Table& table = session.table();
  WireSuggestion wire;
  wire.update_id = s.update_id;
  wire.row = s.update.row;
  wire.attr = table.schema().attr_name(s.update.attr);
  wire.current_value = table.at(s.update.row, s.update.attr);
  wire.suggested_value = table.dict(s.update.attr).ToString(s.update.value);
  wire.voi_score = s.voi_score;
  wire.uncertainty = s.uncertainty;
  wire.budget_remaining = s.budget_remaining;
  return wire;
}

}  // namespace

Status ValidateId(const std::string& id, const char* what) {
  if (id.empty() || id.size() > 64) {
    return Status::InvalidArgument(std::string(what) +
                                   " must be 1..64 characters");
  }
  for (char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) {
      return Status::InvalidArgument(
          std::string(what) + " '" + id +
          "' contains characters outside [A-Za-z0-9._-]");
    }
  }
  return Status::OK();
}

struct SessionManager::ManagedSession {
  SessionKey key;
  OpenConfig config;
  GdrOptions gdr_options;  // derived once at Open; reused by rehydration
  std::string spill_path;

  // `mutex` serializes everything below plus the GdrSession itself; the
  // atomics are additionally readable without it (eviction scan, stats).
  std::mutex mutex;
  bool defunct = false;  // closed, or its open failed — reject every op
  std::unique_ptr<Dataset> dataset;  // owns the dirty table + rules
  std::unique_ptr<GdrSession> session;

  std::atomic<bool> resident{false};
  std::atomic<std::size_t> bytes{0};
  std::atomic<std::uint64_t> last_touch{0};
};

SessionManager::SessionManager(SessionManagerOptions options)
    : options_(std::move(options)) {}

SessionManager::~SessionManager() = default;

Result<std::shared_ptr<SessionManager::ManagedSession>> SessionManager::Find(
    const SessionKey& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sessions_.find(key);
  if (it == sessions_.end()) {
    return Status::NotFound("no session '" + key.session + "' for tenant '" +
                            key.tenant + "'");
  }
  return it->second;
}

std::string SessionManager::SerializeSession(ManagedSession* session) const {
  return kWorkloadHeader + session->config.workload_spec + "\n" +
         session->session->Snapshot().Serialize();
}

Status SessionManager::Materialize(ManagedSession* session,
                                   const std::string* snapshot_text) {
  // Deterministic workloads rebuild identically on every call — the
  // registry-resolved dirty instance *is* the original dirty instance the
  // event log replays over.
  Result<Dataset> dataset =
      WorkloadRegistry::Global().Resolve(session->config.workload_spec);
  if (!dataset.ok()) return dataset.status();
  auto owned = std::make_unique<Dataset>(std::move(*dataset));
  // The ground truth is simulation-harness state; a serving session never
  // reads it. Dropping it halves the resident footprint.
  owned->clean = Table(owned->clean.schema());

  auto gdr_session = std::make_unique<GdrSession>(
      &owned->dirty, &owned->rules, session->gdr_options);
  if (snapshot_text == nullptr) {
    GDR_RETURN_NOT_OK(gdr_session->Start());
  } else {
    std::string_view text = *snapshot_text;
    if (text.rfind(kWorkloadHeader, 0) != 0) {
      return Status::Internal("spill file for session '" +
                              session->key.session +
                              "' is missing its workload header");
    }
    const std::size_t eol = text.find('\n');
    const std::string_view spec =
        text.substr(sizeof(kWorkloadHeader) - 1,
                    eol - (sizeof(kWorkloadHeader) - 1));
    if (spec != session->config.workload_spec) {
      return Status::Internal("spill file for session '" +
                              session->key.session +
                              "' was recorded against workload '" +
                              std::string(spec) + "', expected '" +
                              session->config.workload_spec + "'");
    }
    text.remove_prefix(eol == std::string_view::npos ? text.size() : eol + 1);
    Result<SessionSnapshot> snapshot = SessionSnapshot::Deserialize(text);
    if (!snapshot.ok()) return snapshot.status();
    GDR_RETURN_NOT_OK(gdr_session->Restore(*snapshot));
  }

  const std::size_t bytes = EstimateBytes(*owned);
  session->dataset = std::move(owned);
  session->session = std::move(gdr_session);
  session->bytes.store(bytes, std::memory_order_relaxed);
  session->resident.store(true, std::memory_order_release);
  resident_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  return Status::OK();
}

Status SessionManager::EnsureResident(ManagedSession* session) {
  if (session->resident.load(std::memory_order_acquire)) return Status::OK();
  Result<std::string> text = ReadFileToString(session->spill_path);
  if (!text.ok()) {
    return Status::Internal("session '" + session->key.session +
                            "' is evicted and its snapshot cannot be read: " +
                            text.status().message());
  }
  GDR_RETURN_NOT_OK(Materialize(session, &*text));
  rehydrations_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Result<std::size_t> SessionManager::Persist(ManagedSession* session) {
  const std::string text = SerializeSession(session);
  GDR_RETURN_NOT_OK(WriteFileAtomic(session->spill_path, text));
  return text.size();
}

void SessionManager::ReleaseResident(ManagedSession* session) {
  resident_bytes_.fetch_sub(session->bytes.load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
  session->bytes.store(0, std::memory_order_relaxed);
  session->session.reset();
  session->dataset.reset();
  session->resident.store(false, std::memory_order_release);
  evictions_.fetch_add(1, std::memory_order_relaxed);
}

void SessionManager::EnforceBudget() {
  const std::size_t budget = options_.memory_budget_bytes;
  if (budget == 0) return;
  if (resident_bytes_.load(std::memory_order_relaxed) <= budget) return;

  std::vector<std::shared_ptr<ManagedSession>> candidates;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    candidates.reserve(sessions_.size());
    for (const auto& [key, session] : sessions_) candidates.push_back(session);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) {
              return a->last_touch.load(std::memory_order_relaxed) <
                     b->last_touch.load(std::memory_order_relaxed);
            });
  for (const auto& candidate : candidates) {
    if (resident_bytes_.load(std::memory_order_relaxed) <= budget) break;
    // try_lock, never block: a session mid-operation is simply not a
    // victim this round, and no lock-order cycle can form.
    std::unique_lock<std::mutex> lock(candidate->mutex, std::try_to_lock);
    if (!lock.owns_lock()) continue;
    if (candidate->defunct ||
        !candidate->resident.load(std::memory_order_acquire)) {
      continue;
    }
    if (!Persist(candidate.get()).ok()) continue;  // keep resident on IO error
    ReleaseResident(candidate.get());
  }
}

Result<WireOpenResult> SessionManager::Open(const SessionKey& key,
                                            const OpenConfig& config) {
  GDR_RETURN_NOT_OK(ValidateId(key.tenant, "tenant id"));
  GDR_RETURN_NOT_OK(ValidateId(key.session, "session id"));

  auto session = std::make_shared<ManagedSession>();
  session->key = key;
  session->config = config;
  GDR_ASSIGN_OR_RETURN(session->gdr_options.strategy,
                       StrategyFromName(config.strategy));
  session->gdr_options.ns = config.ns;
  session->gdr_options.feedback_budget = config.feedback_budget;
  session->gdr_options.seed = config.seed;
  session->gdr_options.max_outer_iterations = config.max_outer_iterations;
  session->spill_path =
      (std::filesystem::path(options_.spill_dir) /
       (key.tenant + "__" + key.session + ".snapshot")).string();

  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (sessions_.contains(key)) {
      return Status::AlreadyExists("session '" + key.session +
                                   "' already open for tenant '" +
                                   key.tenant + "'");
    }
    if (sessions_.size() >= options_.max_sessions) {
      return Status::FailedPrecondition(
          "server full: " + std::to_string(sessions_.size()) +
          " sessions open (admission cap " +
          std::to_string(options_.max_sessions) + ")");
    }
    sessions_.emplace(key, session);
  }

  WireOpenResult result;
  {
    std::lock_guard<std::mutex> lock(session->mutex);
    session->last_touch.store(touch_clock_.fetch_add(1) + 1,
                              std::memory_order_relaxed);
    const Status materialized = Materialize(session.get(), nullptr);
    if (!materialized.ok()) {
      session->defunct = true;
      std::lock_guard<std::mutex> map_lock(mutex_);
      sessions_.erase(key);
      return materialized;
    }
    result.state = SessionStateName(session->session->state());
    result.initial_dirty = session->session->stats().initial_dirty;
    result.pool_size = session->session->engine().pool().size();
  }
  opens_.fetch_add(1, std::memory_order_relaxed);
  EnforceBudget();
  return result;
}

Result<WireBatch> SessionManager::Next(const SessionKey& key) {
  GDR_ASSIGN_OR_RETURN(std::shared_ptr<ManagedSession> session, Find(key));
  WireBatch batch;
  {
    std::lock_guard<std::mutex> lock(session->mutex);
    if (session->defunct) {
      return Status::NotFound("session '" + key.session + "' is closed");
    }
    session->last_touch.store(touch_clock_.fetch_add(1) + 1,
                              std::memory_order_relaxed);
    GDR_RETURN_NOT_OK(EnsureResident(session.get()));
    Result<std::vector<SuggestedUpdate>> pulled =
        session->session->NextBatch();
    if (!pulled.ok()) return pulled.status();
    batch.state = SessionStateName(session->session->state());
    batch.suggestions.reserve(pulled->size());
    for (const SuggestedUpdate& s : *pulled) {
      batch.suggestions.push_back(RenderSuggestion(*session->session, s));
    }
  }
  EnforceBudget();
  return batch;
}

Result<WireFeedbackResult> SessionManager::Feedback(
    const SessionKey& key, std::uint64_t update_id, gdr::Feedback feedback,
    const std::optional<std::string>& value) {
  GDR_ASSIGN_OR_RETURN(std::shared_ptr<ManagedSession> session, Find(key));
  WireFeedbackResult result;
  {
    std::lock_guard<std::mutex> lock(session->mutex);
    if (session->defunct) {
      return Status::NotFound("session '" + key.session + "' is closed");
    }
    session->last_touch.store(touch_clock_.fetch_add(1) + 1,
                              std::memory_order_relaxed);
    GDR_RETURN_NOT_OK(EnsureResident(session.get()));
    Result<FeedbackOutcome> outcome =
        session->session->SubmitFeedback(update_id, feedback, value);
    if (!outcome.ok()) return outcome.status();
    result.outcome = FeedbackOutcomeName(*outcome);
    result.state = SessionStateName(session->session->state());
  }
  EnforceBudget();
  return result;
}

Result<WireAppendResult> SessionManager::Append(
    const SessionKey& key,
    const std::vector<std::vector<std::string>>& rows) {
  GDR_ASSIGN_OR_RETURN(std::shared_ptr<ManagedSession> session, Find(key));
  WireAppendResult result;
  {
    std::lock_guard<std::mutex> lock(session->mutex);
    if (session->defunct) {
      return Status::NotFound("session '" + key.session + "' is closed");
    }
    session->last_touch.store(touch_clock_.fetch_add(1) + 1,
                              std::memory_order_relaxed);
    GDR_RETURN_NOT_OK(EnsureResident(session.get()));
    Result<SessionAppendOutcome> outcome =
        session->session->AppendDirtyRows(rows);
    if (!outcome.ok()) return outcome.status();
    result.rows_appended = outcome->rows_appended;
    result.newly_dirty = outcome->newly_dirty;
    result.revived = outcome->revived;
    // The instance grew; keep the budget accounting honest.
    const std::size_t bytes = EstimateBytes(*session->dataset);
    resident_bytes_.fetch_add(
        bytes - session->bytes.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    session->bytes.store(bytes, std::memory_order_relaxed);
  }
  EnforceBudget();
  return result;
}

Result<std::size_t> SessionManager::Snapshot(const SessionKey& key) {
  GDR_ASSIGN_OR_RETURN(std::shared_ptr<ManagedSession> session, Find(key));
  std::lock_guard<std::mutex> lock(session->mutex);
  if (session->defunct) {
    return Status::NotFound("session '" + key.session + "' is closed");
  }
  session->last_touch.store(touch_clock_.fetch_add(1) + 1,
                            std::memory_order_relaxed);
  if (!session->resident.load(std::memory_order_acquire)) {
    // Evicted: the spill file already is the current snapshot.
    GDR_ASSIGN_OR_RETURN(const std::string text,
                         ReadFileToString(session->spill_path));
    return text.size();
  }
  return Persist(session.get());
}

Result<std::size_t> SessionManager::Evict(const SessionKey& key) {
  GDR_ASSIGN_OR_RETURN(std::shared_ptr<ManagedSession> session, Find(key));
  std::lock_guard<std::mutex> lock(session->mutex);
  if (session->defunct) {
    return Status::NotFound("session '" + key.session + "' is closed");
  }
  if (!session->resident.load(std::memory_order_acquire)) return 0;
  GDR_ASSIGN_OR_RETURN(const std::size_t bytes, Persist(session.get()));
  ReleaseResident(session.get());
  return bytes;
}

Result<std::vector<std::string>> SessionManager::Dump(const SessionKey& key) {
  GDR_ASSIGN_OR_RETURN(std::shared_ptr<ManagedSession> session, Find(key));
  std::lock_guard<std::mutex> lock(session->mutex);
  if (session->defunct) {
    return Status::NotFound("session '" + key.session + "' is closed");
  }
  session->last_touch.store(touch_clock_.fetch_add(1) + 1,
                            std::memory_order_relaxed);
  GDR_RETURN_NOT_OK(EnsureResident(session.get()));
  const Table& table = session->session->table();
  std::vector<std::string> cells;
  cells.reserve(table.num_rows() * table.num_attrs());
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    for (std::size_t a = 0; a < table.num_attrs(); ++a) {
      cells.push_back(
          table.at(static_cast<RowId>(r), static_cast<AttrId>(a)));
    }
  }
  return cells;
}

Status SessionManager::Close(const SessionKey& key) {
  GDR_ASSIGN_OR_RETURN(std::shared_ptr<ManagedSession> session, Find(key));
  {
    std::lock_guard<std::mutex> lock(session->mutex);
    if (session->defunct) {
      return Status::NotFound("session '" + key.session + "' is closed");
    }
    session->defunct = true;
    if (session->resident.load(std::memory_order_acquire)) {
      resident_bytes_.fetch_sub(
          session->bytes.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
      session->session.reset();
      session->dataset.reset();
      session->resident.store(false, std::memory_order_release);
    }
    GDR_RETURN_NOT_OK(RemoveFileIfExists(session->spill_path));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  sessions_.erase(key);
  return Status::OK();
}

WireServerStats SessionManager::Stats() const {
  WireServerStats stats;
  std::vector<std::shared_ptr<ManagedSession>> snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot.reserve(sessions_.size());
    for (const auto& [key, session] : sessions_) {
      if (session->resident.load(std::memory_order_acquire)) {
        ++stats.resident_sessions;
      } else {
        ++stats.evicted_sessions;
      }
      snapshot.push_back(session);
    }
  }
  // Aggregate per-session hot-path counters outside the map lock: Open's
  // failure path locks session-then-map, so holding the map lock while
  // taking session locks here would close a lock-order cycle.
  for (const std::shared_ptr<ManagedSession>& session : snapshot) {
    std::lock_guard<std::mutex> session_lock(session->mutex);
    if (session->defunct || session->session == nullptr) continue;
    const GdrTimings& timings = session->session->stats().timings;
    stats.learner_encode_seconds += timings.learner_encode_seconds;
    stats.learner_tree_walk_seconds += timings.learner_tree_walk_seconds;
    stats.voi_probe_seconds += timings.voi_probe_seconds;
    stats.voi_probes += timings.voi_probes;
    stats.learner_train_seconds += timings.learner_train_seconds;
    stats.learner_trains += timings.learner_trains;
  }
  stats.resident_bytes = resident_bytes_.load(std::memory_order_relaxed);
  stats.memory_budget_bytes = options_.memory_budget_bytes;
  stats.opens = opens_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.rehydrations = rehydrations_.load(std::memory_order_relaxed);
  return stats;
}

// ---------------------------------------------------------------------------
// The vtable binding: SessionManager behind BackendOps.
// ---------------------------------------------------------------------------

namespace {

SessionManager* Self(void* self) { return static_cast<SessionManager*>(self); }

Result<WireOpenResult> ManagerOpen(void* self, const SessionKey& key,
                                   const OpenConfig& config) {
  return Self(self)->Open(key, config);
}
Result<WireBatch> ManagerNext(void* self, const SessionKey& key) {
  return Self(self)->Next(key);
}
Result<WireFeedbackResult> ManagerFeedback(
    void* self, const SessionKey& key, std::uint64_t update_id,
    Feedback feedback, const std::optional<std::string>& value) {
  return Self(self)->Feedback(key, update_id, feedback, value);
}
Result<WireAppendResult> ManagerAppend(
    void* self, const SessionKey& key,
    const std::vector<std::vector<std::string>>& rows) {
  return Self(self)->Append(key, rows);
}
Result<std::size_t> ManagerSnapshot(void* self, const SessionKey& key) {
  return Self(self)->Snapshot(key);
}
Result<std::size_t> ManagerEvict(void* self, const SessionKey& key) {
  return Self(self)->Evict(key);
}
Result<std::vector<std::string>> ManagerDump(void* self,
                                             const SessionKey& key) {
  return Self(self)->Dump(key);
}
Status ManagerClose(void* self, const SessionKey& key) {
  return Self(self)->Close(key);
}
WireServerStats ManagerStats(void* self) { return Self(self)->Stats(); }

constexpr BackendOps kSessionManagerOps = {
    /*name=*/"session-manager",
    /*open=*/&ManagerOpen,
    /*next=*/&ManagerNext,
    /*feedback=*/&ManagerFeedback,
    /*append=*/&ManagerAppend,
    /*snapshot=*/&ManagerSnapshot,
    /*evict=*/&ManagerEvict,
    /*dump=*/&ManagerDump,
    /*close=*/&ManagerClose,
    /*stats=*/&ManagerStats,
};

}  // namespace

Backend MakeSessionManagerBackend(SessionManager* manager) {
  return Backend{manager, &kSessionManagerOps};
}

}  // namespace gdr::server
