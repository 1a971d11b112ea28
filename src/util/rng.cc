#include "util/rng.h"

#include <numeric>

namespace gdr {

namespace {

std::uint64_t SplitMix64(std::uint64_t& x) {
  x += 0x9E3779B97f4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t RotL(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

void Rng::Seed(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(sm);
  // Guard against the (astronomically unlikely) all-zero state, which is a
  // fixed point of xoshiro.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

std::uint64_t Rng::Next() {
  const std::uint64_t result = RotL(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = RotL(state_[3], 45);
  return result;
}

std::uint64_t Rng::NextBounded(std::uint64_t bound) {
  assert(bound > 0);
  // Rejection sampling: discard values in the biased tail.
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    const std::uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

std::int64_t Rng::NextInt(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi - lo) + 1;  // may wrap to 0 for full range
  if (span == 0) return static_cast<std::int64_t>(Next());
  return lo + static_cast<std::int64_t>(NextBounded(span));
}

double Rng::NextDouble() {
  // 53 random bits into [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::NextBernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

std::size_t Rng::NextWeighted(const std::vector<double>& weights) {
  assert(!weights.empty());
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  assert(total > 0.0);
  double target = NextDouble() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;  // numeric slack: fall into the last bucket
}

std::vector<std::size_t> Rng::SampleWithoutReplacement(std::size_t n,
                                                       std::size_t k) {
  std::vector<std::size_t> idx;
  SampleWithoutReplacementInto(n, k, &idx);
  return idx;
}

void Rng::SampleWithoutReplacementInto(std::size_t n, std::size_t k,
                                       std::vector<std::size_t>* out) {
  assert(k <= n);
  // Partial Fisher-Yates over an index vector. For the library's use cases
  // (feature subsampling, error injection) n is small enough that the O(n)
  // initialization is irrelevant.
  std::vector<std::size_t>& idx = *out;
  idx.resize(n);
  std::iota(idx.begin(), idx.end(), 0);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(NextBounded(n - i));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
}

}  // namespace gdr
