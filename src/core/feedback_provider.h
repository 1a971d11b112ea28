#ifndef GDR_CORE_FEEDBACK_PROVIDER_H_
#define GDR_CORE_FEEDBACK_PROVIDER_H_

#include <optional>

#include "data/table.h"
#include "repair/update.h"

namespace gdr {

/// The user of the GDR loop, as a synchronous (push-model) callback: the
/// loop blocks inside GetFeedback until an answer exists. This is the
/// integration surface for harnesses whose "user" can answer inline —
/// experiments implement it with a ground-truth oracle (src/sim/oracle.h),
/// and `PumpSession()` pumps a pull-based GdrSession through it.
/// Production deployments, where feedback arrives asynchronously (a UI, a
/// review queue, a network), should drive `GdrSession` (core/session.h)
/// directly instead of implementing this interface.
class FeedbackProvider {
 public:
  virtual ~FeedbackProvider() = default;

  /// Feedback for one suggested update, given the current database state.
  virtual Feedback GetFeedback(const Table& table, const Update& update) = 0;

  /// Optionally volunteers the correct value for the update's cell
  /// (Section 4.2: "the user may also suggest a new value v' and GDR will
  /// consider it as a confirm feedback for ⟨t, A, v', 1⟩"). Consulted only
  /// after GetFeedback returned kReject. Default: no suggestion.
  virtual std::optional<std::string> SuggestValue(const Table& table,
                                                  const Update& update) {
    (void)table;
    (void)update;
    return std::nullopt;
  }
};

}  // namespace gdr

#endif  // GDR_CORE_FEEDBACK_PROVIDER_H_
