#ifndef GDR_SERVER_BACKEND_H_
#define GDR_SERVER_BACKEND_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/gdr.h"
#include "util/result.h"

namespace gdr::server {

/// A session's address: every wire command names the tenant and the
/// session id. Ids are restricted to [A-Za-z0-9._-], 1..64 chars, so they
/// can double as spill-file path components and wire tokens.
struct SessionKey {
  std::string tenant;
  std::string session;

  bool operator<(const SessionKey& other) const {
    return tenant != other.tenant ? tenant < other.tenant
                                  : session < other.session;
  }
  bool operator==(const SessionKey&) const = default;
};

/// Validates the id grammar above; `what` names the field in the error.
Status ValidateId(const std::string& id, const char* what);

/// What `open` needs to materialize a session: the workload (resolved
/// through the registry, so it is rebuildable on every rehydration) plus
/// the loop knobs that SessionSnapshot carries.
struct OpenConfig {
  std::string workload_spec;
  std::string strategy = "GDR-NoLearning";
  int ns = 5;
  std::size_t feedback_budget = GdrOptions::kUnlimitedBudget;
  std::uint64_t seed = 42;
  int max_outer_iterations = 1000000;
};

/// Transport-ready suggestion: every string resolved against the session's
/// dictionaries, so rendering needs no table access.
struct WireSuggestion {
  std::uint64_t update_id = 0;
  std::int32_t row = 0;
  std::string attr;
  std::string current_value;
  std::string suggested_value;
  double voi_score = 0.0;
  double uncertainty = 1.0;
  std::size_t budget_remaining = GdrOptions::kUnlimitedBudget;
};

struct WireOpenResult {
  std::string state;  // SessionStateName
  std::size_t initial_dirty = 0;
  std::size_t pool_size = 0;
};

struct WireBatch {
  std::string state;
  std::vector<WireSuggestion> suggestions;
};

struct WireFeedbackResult {
  std::string outcome;  // "applied" / "stale" / "duplicate" / "unknown-id"
  std::string state;
};

struct WireAppendResult {
  std::size_t rows_appended = 0;
  std::size_t newly_dirty = 0;
  bool revived = false;
};

/// Aggregate serving counters, the `stats` reply.
struct WireServerStats {
  std::size_t resident_sessions = 0;
  std::size_t evicted_sessions = 0;
  std::size_t resident_bytes = 0;
  std::size_t memory_budget_bytes = 0;
  std::size_t opens = 0;
  std::size_t evictions = 0;
  std::size_t rehydrations = 0;
  /// Hot-path phase counters aggregated over the resident sessions
  /// (GdrTimings: learner feature-encode / forest tree-walk seconds,
  /// benefit-probe seconds and probe count, forest-retrain seconds and
  /// examples trained on). Evicted sessions' time is
  /// not replayed into these — they reset to their snapshot's history on
  /// rehydration like every other timing.
  double learner_encode_seconds = 0.0;
  double learner_tree_walk_seconds = 0.0;
  double voi_probe_seconds = 0.0;
  std::uint64_t voi_probes = 0;
  double learner_train_seconds = 0.0;
  std::uint64_t learner_trains = 0;
};

/// The pluggable backend boundary: one struct of operations per backend
/// implementation (a function-pointer vtable in the C tradition — the
/// transport layer is compiled against this table only, never against a
/// concrete backend type, so an HTTP front-end or a sharded/remote backend
/// slots in without touching the protocol code). `self` is the backend's
/// opaque state pointer, threaded through every op.
struct BackendOps {
  const char* name;
  Result<WireOpenResult> (*open)(void* self, const SessionKey& key,
                                 const OpenConfig& config);
  Result<WireBatch> (*next)(void* self, const SessionKey& key);
  Result<WireFeedbackResult> (*feedback)(
      void* self, const SessionKey& key, std::uint64_t update_id,
      Feedback feedback, const std::optional<std::string>& value);
  Result<WireAppendResult> (*append)(
      void* self, const SessionKey& key,
      const std::vector<std::vector<std::string>>& rows);
  /// Persists the session's snapshot to its spill file (crash-safe write);
  /// the session stays resident. Returns bytes written.
  Result<std::size_t> (*snapshot)(void* self, const SessionKey& key);
  /// Snapshot + free the in-memory state; the next touch rehydrates.
  /// Returns bytes written.
  Result<std::size_t> (*evict)(void* self, const SessionKey& key);
  /// Current table contents, row-major — the bit-identity probe used by
  /// the differential tests and the bench self-check.
  Result<std::vector<std::string>> (*dump)(void* self, const SessionKey& key);
  Status (*close)(void* self, const SessionKey& key);
  WireServerStats (*stats)(void* self);
};

/// A bound backend: state + operations. Copyable, non-owning.
struct Backend {
  void* self = nullptr;
  const BackendOps* ops = nullptr;
};

}  // namespace gdr::server

#endif  // GDR_SERVER_BACKEND_H_
