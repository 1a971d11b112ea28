#ifndef GDR_REPAIR_UPDATE_H_
#define GDR_REPAIR_UPDATE_H_

#include <cstdint>
#include <functional>
#include <string>

#include "data/table.h"

namespace gdr {

/// Identifies one database cell (t, A). Keys the update pool, the prevented
/// lists, and the changeable flags.
struct CellKey {
  RowId row = -1;
  AttrId attr = kInvalidAttrId;

  bool operator==(const CellKey& other) const {
    return row == other.row && attr == other.attr;
  }
};

/// Row-major cell order: by row, then attribute.
inline bool CellKeyLess(const CellKey& a, const CellKey& b) {
  return a.row != b.row ? a.row < b.row : a.attr < b.attr;
}

struct CellKeyHash {
  std::size_t operator()(const CellKey& key) const {
    // Rows and attrs are small non-negative ints; pack and mix.
    std::uint64_t packed =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.row))
         << 32) |
        static_cast<std::uint32_t>(key.attr);
    packed ^= packed >> 33;
    packed *= 0xFF51AFD7ED558CCDULL;
    packed ^= packed >> 33;
    return static_cast<std::size_t>(packed);
  }
};

/// A candidate update r = ⟨t, A, v, s⟩ (Section 3): replace cell (row, attr)
/// by `value`, with repair-algorithm certainty `score` = sim(t[A], v) ∈
/// [0,1] (Eq. 7).
struct Update {
  RowId row = -1;
  AttrId attr = kInvalidAttrId;
  ValueId value = kInvalidValueId;
  double score = 0.0;

  CellKey cell() const { return CellKey{row, attr}; }

  bool operator==(const Update& other) const {
    return row == other.row && attr == other.attr && value == other.value;
  }

  /// "t17.City := 'Michigan City' (s=0.82)" for logs and examples.
  std::string ToString(const Table& table) const;
};

/// The three user responses of Section 4.2 ("Learning User Feedback").
///  * kConfirm — t[A] should be v; apply the update.
///  * kReject  — v is wrong for t[A]; find another suggestion.
///  * kRetain  — t[A] is already correct; stop suggesting for this cell.
enum class Feedback : std::uint8_t {
  kConfirm = 0,
  kReject = 1,
  kRetain = 2,
};

/// Number of feedback classes; class labels for the learner are the enum
/// values.
inline constexpr int kNumFeedbackClasses = 3;

/// "confirm" / "reject" / "retain".
const char* FeedbackName(Feedback feedback);

}  // namespace gdr

#endif  // GDR_REPAIR_UPDATE_H_
