#include "util/significance.h"

#include <algorithm>
#include <cmath>

#include "util/assert.h"

namespace manet::util {

double normal_cdf(double z) {
  return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

MannWhitneyResult mann_whitney(std::span<const double> a,
                               std::span<const double> b) {
  MANET_CHECK(!a.empty() && !b.empty(),
              "mann_whitney needs two non-empty samples");
  const double n1 = static_cast<double>(a.size());
  const double n2 = static_cast<double>(b.size());

  // Rank the pooled sample with midranks for ties.
  struct Tagged {
    double v;
    int group;  // 0 = a, 1 = b
  };
  std::vector<Tagged> pool;
  pool.reserve(a.size() + b.size());
  for (const double v : a) {
    pool.push_back({v, 0});
  }
  for (const double v : b) {
    pool.push_back({v, 1});
  }
  std::sort(pool.begin(), pool.end(),
            [](const Tagged& x, const Tagged& y) { return x.v < y.v; });

  double rank_sum_a = 0.0;
  double tie_term = 0.0;  // sum over tie groups of (t^3 - t)
  std::size_t i = 0;
  while (i < pool.size()) {
    std::size_t j = i;
    while (j < pool.size() && pool[j].v == pool[i].v) {
      ++j;
    }
    // Midrank for positions i..j-1 (1-based ranks).
    const double midrank =
        (static_cast<double>(i + 1) + static_cast<double>(j)) / 2.0;
    const double t = static_cast<double>(j - i);
    if (t > 1.0) {
      tie_term += t * t * t - t;
    }
    for (std::size_t k = i; k < j; ++k) {
      if (pool[k].group == 0) {
        rank_sum_a += midrank;
      }
    }
    i = j;
  }

  MannWhitneyResult r;
  r.u = rank_sum_a - n1 * (n1 + 1.0) / 2.0;
  const double mean_u = n1 * n2 / 2.0;
  const double n = n1 + n2;
  const double var_u =
      n1 * n2 / 12.0 * ((n + 1.0) - tie_term / (n * (n - 1.0)));
  if (var_u <= 0.0) {
    // All values identical: no evidence either way.
    r.z = 0.0;
    r.p_two_sided = 1.0;
    r.p_a_less = 0.5;
    r.effect_size = 0.5;
    return r;
  }
  // Continuity correction toward the mean.
  const double cc = r.u > mean_u ? -0.5 : (r.u < mean_u ? 0.5 : 0.0);
  r.z = (r.u - mean_u + cc) / std::sqrt(var_u);
  r.p_a_less = normal_cdf(r.z);  // small U -> A tends smaller -> z < 0
  r.p_two_sided = 2.0 * std::min(normal_cdf(r.z), 1.0 - normal_cdf(r.z));
  r.p_two_sided = std::min(r.p_two_sided, 1.0);
  r.effect_size = r.u / (n1 * n2);  // P(a > b) + .5P(=) ... see below
  // u here counts pairs where a outranks b; convert to P(a < b)+.5P(=).
  r.effect_size = 1.0 - r.effect_size;
  return r;
}

BootstrapCI bootstrap_ci(
    std::span<const double> sample,
    const std::function<double(std::span<const double>)>& statistic,
    double confidence, int resamples, std::uint64_t seed) {
  MANET_CHECK(!sample.empty(), "bootstrap of empty sample");
  MANET_CHECK(confidence > 0.0 && confidence < 1.0,
              "confidence=" << confidence);
  MANET_CHECK(resamples > 1);
  BootstrapCI ci;
  ci.point = statistic(sample);

  Rng rng(seed);
  std::vector<double> resample(sample.size());
  std::vector<double> stats;
  stats.reserve(static_cast<std::size_t>(resamples));
  for (int r = 0; r < resamples; ++r) {
    for (auto& v : resample) {
      v = sample[rng.index(sample.size())];
    }
    stats.push_back(statistic(resample));
  }
  std::sort(stats.begin(), stats.end());
  const double alpha = (1.0 - confidence) / 2.0;
  const auto quantile = [&](double q) {
    const double pos = q * static_cast<double>(stats.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const auto hi = std::min(lo + 1, stats.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return stats[lo] + frac * (stats[hi] - stats[lo]);
  };
  ci.lo = quantile(alpha);
  ci.hi = quantile(1.0 - alpha);
  return ci;
}

}  // namespace manet::util
