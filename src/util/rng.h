#ifndef GDR_UTIL_RNG_H_
#define GDR_UTIL_RNG_H_

#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

namespace gdr {

/// Deterministic pseudo-random number generator (xoshiro256**). Every
/// stochastic component in the library (dataset generators, error injection,
/// bagging, tie-breaking) draws from an explicitly seeded Rng so that whole
/// experiments are reproducible bit-for-bit from a single seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) { Seed(seed); }

  /// Re-seeds the generator via SplitMix64 state expansion.
  void Seed(std::uint64_t seed);

  /// The raw xoshiro state, for checkpoints: set_state(state()) resumes
  /// the stream exactly where it stood.
  using State = std::array<std::uint64_t, 4>;
  State state() const { return state_; }
  void set_state(const State& state) { state_ = state; }

  /// Next raw 64-bit value.
  std::uint64_t Next();

  /// Uniform integer in [0, bound). `bound` must be > 0. Uses rejection
  /// sampling to avoid modulo bias.
  std::uint64_t NextBounded(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t NextInt(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Bernoulli draw with success probability `p` (clamped to [0,1]).
  bool NextBernoulli(double p);

  /// Returns an index in [0, weights.size()) with probability proportional
  /// to weights[i]. All weights must be >= 0 and sum must be > 0.
  std::size_t NextWeighted(const std::vector<double>& weights);

  /// Fisher-Yates shuffles `items` in place.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(NextBounded(i));
      std::swap(items[i - 1], items[j]);
    }
  }

  /// Samples `k` distinct indices from [0, n) (k <= n), in arbitrary order.
  std::vector<std::size_t> SampleWithoutReplacement(std::size_t n,
                                                    std::size_t k);

  /// SampleWithoutReplacement into a caller-owned buffer (resized to k;
  /// no allocation once its capacity reaches n). Same draws, same result.
  void SampleWithoutReplacementInto(std::size_t n, std::size_t k,
                                    std::vector<std::size_t>* out);

 private:
  State state_;
};

}  // namespace gdr

#endif  // GDR_UTIL_RNG_H_
