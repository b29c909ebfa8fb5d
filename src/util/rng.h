// Deterministic random number generation.
//
// A simulation run owns one root Rng seeded from the scenario seed. Components
// derive independent, reproducible substreams by name (e.g. "mobility/node12",
// "channel/jitter") so that adding a new consumer never perturbs the draws
// seen by existing consumers — a property plain shared-engine designs lack.
#pragma once

#include <cstdint>
#include <random>
#include <string_view>
#include <vector>

#include "util/assert.h"

namespace manet::util {

/// 64-bit stateless mix (splitmix64 finalizer); used for seed derivation.
std::uint64_t mix64(std::uint64_t x);

/// FNV-1a hash of a string, for naming substreams.
std::uint64_t hash_name(std::string_view name);

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(mix64(seed)), seed_(seed) {}

  /// The seed this stream was constructed with.
  std::uint64_t seed() const { return seed_; }

  /// Derives an independent substream; deterministic in (seed, name).
  Rng substream(std::string_view name) const {
    return Rng(mix64(seed_ ^ hash_name(name)));
  }
  /// Derives an independent substream keyed by an integer (e.g. a node id).
  Rng substream(std::string_view name, std::uint64_t key) const {
    return Rng(mix64(mix64(seed_ ^ hash_name(name)) + key));
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }
  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi) {
    MANET_ASSERT(lo <= hi, "uniform(" << lo << ", " << hi << ")");
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }
  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    MANET_ASSERT(lo <= hi, "uniform_int(" << lo << ", " << hi << ")");
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }
  /// Standard normal draw scaled to (mean, stddev).
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }
  /// Exponential draw with the given mean (not rate). Requires mean > 0.
  double exponential_mean(double mean) {
    MANET_ASSERT(mean > 0.0);
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }
  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p) {
    MANET_ASSERT(p >= 0.0 && p <= 1.0);
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Picks a uniformly random element index for a container of size n > 0.
  std::size_t index(std::size_t n) {
    MANET_ASSERT(n > 0);
    return static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[index(i)]);
    }
  }

  /// Direct access for std distributions not wrapped above.
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uint64_t seed_;
};

}  // namespace manet::util
