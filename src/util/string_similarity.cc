#include "util/string_similarity.h"

#include <algorithm>
#include <cctype>
#include <vector>

namespace gdr {

std::size_t EditDistance(std::string_view a, std::string_view b) {
  // A common prefix or suffix never changes the distance, and typo pairs
  // share most of theirs, so the DP only runs over the differing middle.
  while (!a.empty() && !b.empty() && a.front() == b.front()) {
    a.remove_prefix(1);
    b.remove_prefix(1);
  }
  while (!a.empty() && !b.empty() && a.back() == b.back()) {
    a.remove_suffix(1);
    b.remove_suffix(1);
  }
  if (a.size() < b.size()) std::swap(a, b);  // ensure |b| <= |a|
  if (b.empty()) return a.size();

  // One DP row of |b| + 1 cells: on the stack for the short strings the
  // update generator scores millions of times, on the heap past that.
  constexpr std::size_t kStackCells = 64;
  std::size_t stack_row[kStackCells];
  std::vector<std::size_t> heap_row;
  std::size_t* row = stack_row;
  if (b.size() + 1 > kStackCells) {
    heap_row.resize(b.size() + 1);
    row = heap_row.data();
  }
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;

  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t prev_diag = row[0];  // dp[i-1][0]
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t prev_row = row[j];  // dp[i-1][j]
      const std::size_t subst_cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      row[j] = std::min({row[j] + 1,           // delete from a
                         row[j - 1] + 1,       // insert into a
                         prev_diag + subst_cost});
      prev_diag = prev_row;
    }
  }
  return row[b.size()];
}

double NormalizedEditSimilarity(std::string_view a, std::string_view b) {
  const std::size_t max_len = std::max(a.size(), b.size());
  if (max_len == 0) return 1.0;
  const std::size_t dist = EditDistance(a, b);
  return 1.0 - static_cast<double>(dist) / static_cast<double>(max_len);
}

namespace {

double JaroSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;

  const std::size_t match_window =
      std::max<std::size_t>(1, std::max(a.size(), b.size()) / 2) - 1;

  std::vector<bool> a_matched(a.size(), false);
  std::vector<bool> b_matched(b.size(), false);

  std::size_t matches = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::size_t lo = i > match_window ? i - match_window : 0;
    const std::size_t hi = std::min(b.size(), i + match_window + 1);
    for (std::size_t j = lo; j < hi; ++j) {
      if (b_matched[j] || a[i] != b[j]) continue;
      a_matched[i] = true;
      b_matched[j] = true;
      ++matches;
      break;
    }
  }
  if (matches == 0) return 0.0;

  // Count transpositions between the matched subsequences.
  std::size_t transpositions = 0;
  std::size_t j = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!a_matched[i]) continue;
    while (!b_matched[j]) ++j;
    if (a[i] != b[j]) ++transpositions;
    ++j;
  }

  const double m = static_cast<double>(matches);
  return (m / a.size() + m / b.size() + (m - transpositions / 2.0) / m) / 3.0;
}

}  // namespace

double JaroWinklerSimilarity(std::string_view a, std::string_view b) {
  const double jaro = JaroSimilarity(a, b);
  // Standard Winkler prefix boost with p = 0.1 and max prefix length 4.
  std::size_t prefix = 0;
  const std::size_t limit = std::min({a.size(), b.size(), std::size_t{4}});
  while (prefix < limit && a[prefix] == b[prefix]) ++prefix;
  return jaro + 0.1 * static_cast<double>(prefix) * (1.0 - jaro);
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace gdr
