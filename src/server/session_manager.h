#ifndef GDR_SERVER_SESSION_MANAGER_H_
#define GDR_SERVER_SESSION_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/session.h"
#include "server/backend.h"
#include "sim/dataset.h"

namespace gdr::server {

struct SessionManagerOptions {
  /// Where evicted sessions spill their snapshots
  /// (`<dir>/<tenant>__<session>.snapshot`, the interactive_repl format:
  /// a "workload <spec>" header line + the versioned SessionSnapshot).
  std::string spill_dir = "gdr_spill";
  /// Resident-memory budget across all sessions (estimated); exceeding it
  /// evicts least-recently-touched sessions to disk. 0 = never evict.
  std::size_t memory_budget_bytes = 0;
  /// Admission cap: `open` beyond this many live sessions (resident +
  /// evicted) is rejected.
  std::size_t max_sessions = 4096;
  /// Unused: the manager builds no thread pool and reads this nowhere.
  /// Sessions rank serially; concurrency comes from client threads
  /// driving different sessions. The field stays declared only because
  /// perfbench/service.cc still assigns it; delete both together.
  std::size_t num_threads = 1;
};

/// The service layer over GdrSession: owns many concurrent sessions keyed
/// by (tenant, session id), each with its own registry-resolved workload,
/// and keeps them under a memory budget by snapshotting cold sessions to
/// disk and transparently rehydrating them on the next touch.
///
/// Why this works: a GdrSession's snapshot is a checkpoint of its state
/// as a delta against its deterministic workload's dirty table, so
/// (workload spec, snapshot) is the whole session. Eviction writes exactly
/// that — crash-safely, via temp-file + rename — and rehydration
/// re-resolves the spec and restores the checkpoint, reconstructing the
/// pool, learner bank, RNG streams, and outstanding batch bit-identically
/// at a cost that does not grow with the session's age. The differential
/// suites pin evicted-and-rehydrated sessions to never-evicted controls.
///
/// Concurrency: any number of client threads may call any operation. A
/// manager-wide mutex guards only the session map; each session has its
/// own mutex serializing its (stateful, single-threaded) GdrSession, so
/// operations on different sessions run concurrently. Eviction scans
/// take the map lock and only try_lock victims, so no lock-order cycle
/// exists and a session mid-operation is never evicted under its caller.
class SessionManager {
 public:
  explicit SessionManager(SessionManagerOptions options = {});
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Creates and starts a session over `config.workload_spec`. Fails on a
  /// duplicate key (AlreadyExists), a full server (FailedPrecondition), an
  /// invalid id, or a workload/strategy that does not resolve.
  Result<WireOpenResult> Open(const SessionKey& key, const OpenConfig& config);

  /// GdrSession::NextBatch through the service boundary. Touching an
  /// evicted session rehydrates it first (counted in `stats()`).
  Result<WireBatch> Next(const SessionKey& key);

  Result<WireFeedbackResult> Feedback(const SessionKey& key,
                                      std::uint64_t update_id,
                                      Feedback feedback,
                                      const std::optional<std::string>& value);

  Result<WireAppendResult> Append(
      const SessionKey& key,
      const std::vector<std::vector<std::string>>& rows);

  /// Durability on demand: persists the session's snapshot to its spill
  /// path (crash-safe); the session stays resident. Returns bytes written.
  Result<std::size_t> Snapshot(const SessionKey& key);

  /// Forced eviction (the policy does this on its own under memory
  /// pressure): snapshot to disk, free the in-memory state. Idempotent —
  /// evicting an evicted session returns 0 bytes. Returns bytes written.
  Result<std::size_t> Evict(const SessionKey& key);

  /// Current table contents, row-major (rehydrates if needed).
  Result<std::vector<std::string>> Dump(const SessionKey& key);

  /// Ends the session: drops in-memory state and the spill file.
  Status Close(const SessionKey& key);

  WireServerStats Stats() const;

  const SessionManagerOptions& options() const { return options_; }

 private:
  struct ManagedSession;

  // Map lookup only (no side effects); NotFound on a missing key.
  Result<std::shared_ptr<ManagedSession>> Find(const SessionKey& key) const;
  // Resolves the workload and builds a started (or restored) GdrSession.
  // Called under the session's mutex. `snapshot_text` null = fresh start.
  Status Materialize(ManagedSession* session,
                     const std::string* snapshot_text);
  // Rehydrates from the spill file when evicted. Under the session mutex.
  Status EnsureResident(ManagedSession* session);
  // Serializes the session (spill-file format) — under the session mutex.
  std::string SerializeSession(ManagedSession* session) const;
  // Writes the spill file crash-safely; returns bytes written.
  Result<std::size_t> Persist(ManagedSession* session);
  // Drops the in-memory state after a successful Persist.
  void ReleaseResident(ManagedSession* session);
  // Evicts least-recently-touched sessions until under budget.
  void EnforceBudget();

  SessionManagerOptions options_;

  mutable std::mutex mutex_;  // guards sessions_ (the map only)
  std::map<SessionKey, std::shared_ptr<ManagedSession>> sessions_;

  std::atomic<std::uint64_t> touch_clock_{0};
  std::atomic<std::size_t> resident_bytes_{0};
  std::atomic<std::size_t> opens_{0};
  std::atomic<std::size_t> evictions_{0};
  std::atomic<std::size_t> rehydrations_{0};
  std::atomic<std::uint64_t> restore_ns_{0};
};

/// Binds `manager` behind the vtable boundary. The returned Backend is
/// non-owning; `manager` must outlive every use.
Backend MakeSessionManagerBackend(SessionManager* manager);

}  // namespace gdr::server

#endif  // GDR_SERVER_SESSION_MANAGER_H_
