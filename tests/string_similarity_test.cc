#include "util/string_similarity.h"

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace gdr {
namespace {

TEST(EditDistanceTest, KnownValues) {
  EXPECT_EQ(EditDistance("", ""), 0u);
  EXPECT_EQ(EditDistance("abc", ""), 3u);
  EXPECT_EQ(EditDistance("", "abc"), 3u);
  EXPECT_EQ(EditDistance("abc", "abc"), 0u);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("flaw", "lawn"), 2u);
  EXPECT_EQ(EditDistance("46360", "46391"), 2u);
}

TEST(EditDistanceTest, Symmetry) {
  EXPECT_EQ(EditDistance("Fort Wayne", "FT Wayne"),
            EditDistance("FT Wayne", "Fort Wayne"));
}

// Full (|a|+1) x (|b|+1) Levenshtein matrix: the textbook recurrence with
// no row reuse.
std::size_t MatrixEditDistance(const std::string& a, const std::string& b) {
  std::vector<std::vector<std::size_t>> dp(
      a.size() + 1, std::vector<std::size_t>(b.size() + 1));
  for (std::size_t i = 0; i <= a.size(); ++i) dp[i][0] = i;
  for (std::size_t j = 0; j <= b.size(); ++j) dp[0][j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    for (std::size_t j = 1; j <= b.size(); ++j) {
      dp[i][j] = std::min({dp[i - 1][j] + 1, dp[i][j - 1] + 1,
                           dp[i - 1][j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1)});
    }
  }
  return dp[a.size()][b.size()];
}

TEST(EditDistanceTest, MatchesFullMatrixAcrossRowBufferSizes) {
  // Lengths straddle the 64-cell stack row, so both the stack and the
  // heap row paths run; half the pairs share a prefix and a suffix, as
  // typo pairs do, which the production path trims before its DP.
  Rng rng(17);
  auto random_string = [&rng](std::size_t max_len) {
    std::string s(rng.NextBounded(max_len), ' ');
    for (char& c : s) c = static_cast<char>('a' + rng.NextBounded(4));
    return s;
  };
  for (int trial = 0; trial < 400; ++trial) {
    std::string a = random_string(140);
    std::string b = random_string(140);
    if (trial % 2 == 1) {
      const std::string prefix = random_string(20);
      const std::string suffix = random_string(20);
      a = prefix + a + suffix;
      b = prefix + b + suffix;
    }
    ASSERT_EQ(EditDistance(a, b), MatrixEditDistance(a, b))
        << "|a|=" << a.size() << " |b|=" << b.size();
  }
}

TEST(NormalizedEditSimilarityTest, PaperEq7Examples) {
  // sim(v, v') = 1 - dist / max(|v|, |v'|)  (Eq. 7)
  EXPECT_DOUBLE_EQ(NormalizedEditSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(NormalizedEditSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(NormalizedEditSimilarity("abc", "xyz"), 0.0);
  // 46391 -> 46825: dist 3 over length 5.
  EXPECT_NEAR(NormalizedEditSimilarity("46391", "46825"), 1.0 - 3.0 / 5.0,
              1e-12);
}

TEST(NormalizedEditSimilarityTest, RangeIsUnitInterval) {
  EXPECT_GE(NormalizedEditSimilarity("a", "completely different"), 0.0);
  EXPECT_LE(NormalizedEditSimilarity("abcd", "abce"), 1.0);
}

// Property sweep: metric axioms of the edit distance on a pseudo-random
// corpus of short strings.
class EditDistancePropertyTest : public ::testing::TestWithParam<int> {};

std::string RandomWord(Rng* rng) {
  const std::size_t len = rng->NextBounded(12);
  std::string out;
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(static_cast<char>('a' + rng->NextBounded(6)));
  }
  return out;
}

TEST_P(EditDistancePropertyTest, MetricAxioms) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < 50; ++i) {
    const std::string a = RandomWord(&rng);
    const std::string b = RandomWord(&rng);
    const std::string c = RandomWord(&rng);
    const std::size_t ab = EditDistance(a, b);
    const std::size_t ba = EditDistance(b, a);
    const std::size_t bc = EditDistance(b, c);
    const std::size_t ac = EditDistance(a, c);
    EXPECT_EQ(ab, ba) << a << " / " << b;
    EXPECT_EQ(EditDistance(a, a), 0u);
    EXPECT_LE(ac, ab + bc) << a << " / " << b << " / " << c;
    // Distance is bounded by the longer string's length.
    EXPECT_LE(ab, std::max(a.size(), b.size()));
    // Identity of indiscernibles.
    if (ab == 0) EXPECT_EQ(a, b);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EditDistancePropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(JaroWinklerTest, KnownBehaviour) {
  EXPECT_DOUBLE_EQ(JaroWinklerSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(JaroWinklerSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaroWinklerSimilarity("abc", ""), 0.0);
  // Shared prefixes are boosted above plain Jaro.
  const double with_prefix = JaroWinklerSimilarity("MARTHA", "MARHTA");
  EXPECT_GT(with_prefix, 0.9);
  EXPECT_LE(with_prefix, 1.0);
}

TEST(JaroWinklerTest, PrefixBoostOrdersCandidates) {
  // Same edit distance, different prefix overlap.
  EXPECT_GT(JaroWinklerSimilarity("46360", "46361"),
            JaroWinklerSimilarity("46360", "96360"));
}

TEST(EqualsIgnoreCaseTest, Basics) {
  EXPECT_TRUE(EqualsIgnoreCase("Fort Wayne", "fort wayne"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
  EXPECT_FALSE(EqualsIgnoreCase("a", "ab"));
  EXPECT_FALSE(EqualsIgnoreCase("abc", "abd"));
}

}  // namespace
}  // namespace gdr
