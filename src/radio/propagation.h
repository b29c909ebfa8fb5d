// Radio propagation models. The paper's ideal setting is Friis free space
// (§3.1, footnote 6: "we do not consider the effects of multipath ... fading");
// two-ray ground is the ns-2 default the CMU extensions shipped; log-distance
// and log-normal shadowing back the robustness ablation (A5 in DESIGN.md).
//
// All models return *received power in watts* given the deterministic path
// and, for stochastic models, a per-reception fading draw from the supplied
// RNG (pass nullptr for the deterministic mean — used for calibration).
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "radio/radio_params.h"
#include "util/rng.h"

namespace manet::radio {

class PropagationModel {
 public:
  virtual ~PropagationModel() = default;

  /// Received power (watts) at `distance_m` for the given radio. `fading`
  /// supplies the stochastic component; nullptr yields the deterministic
  /// median path loss. distance 0 returns the transmit power.
  virtual double rx_power_w(const RadioParams& radio, double distance_m,
                            util::Rng* fading) const = 0;

  /// True if rx_power_w uses the fading RNG.
  virtual bool stochastic() const { return false; }

  /// Distance beyond which delivery above `threshold_w` is (virtually)
  /// impossible; channels use it to bound neighbor queries. For
  /// deterministic monotone models this inverts the path loss exactly; for
  /// shadowing it adds ~3.5 sigma of headroom.
  virtual double max_range_m(const RadioParams& radio,
                             double threshold_w) const = 0;

  virtual std::string_view name() const = 0;
};

/// Friis free-space: Pr = Pt Gt Gr lambda^2 / ((4 pi d)^2 L).
class FreeSpace final : public PropagationModel {
 public:
  double rx_power_w(const RadioParams& radio, double distance_m,
                    util::Rng* fading) const override;
  double max_range_m(const RadioParams& radio,
                     double threshold_w) const override;
  std::string_view name() const override { return "free_space"; }
};

/// Two-ray ground reflection: Friis below the crossover distance
/// dc = 4 pi ht hr / lambda, then Pr = Pt Gt Gr ht^2 hr^2 / (d^4 L).
class TwoRayGround final : public PropagationModel {
 public:
  double rx_power_w(const RadioParams& radio, double distance_m,
                    util::Rng* fading) const override;
  double max_range_m(const RadioParams& radio,
                     double threshold_w) const override;
  std::string_view name() const override { return "two_ray_ground"; }

  static double crossover_distance_m(const RadioParams& radio);
};

/// Log-distance path loss: free space to d0, then exponent `n`:
/// Pr(d) = Pr(d0) * (d0/d)^n.
class LogDistance final : public PropagationModel {
 public:
  explicit LogDistance(double exponent = 2.7, double reference_m = 1.0);

  double rx_power_w(const RadioParams& radio, double distance_m,
                    util::Rng* fading) const override;
  double max_range_m(const RadioParams& radio,
                     double threshold_w) const override;
  std::string_view name() const override { return "log_distance"; }

  double exponent() const { return exponent_; }

 private:
  double exponent_;
  double reference_m_;
};

/// Log-normal shadowing on top of log-distance: each reception adds a
/// zero-mean Gaussian (in dB) of the given sigma. Per-reception independent
/// draws — a pessimistic (memoryless) fading assumption, which is exactly
/// the stress the A5 ablation wants to put on the power-ratio metric.
class LogNormalShadowing final : public PropagationModel {
 public:
  LogNormalShadowing(double exponent, double sigma_db,
                     double reference_m = 1.0);

  double rx_power_w(const RadioParams& radio, double distance_m,
                    util::Rng* fading) const override;
  bool stochastic() const override { return sigma_db_ > 0.0; }
  double max_range_m(const RadioParams& radio,
                     double threshold_w) const override;
  std::string_view name() const override { return "log_normal_shadowing"; }

  double sigma_db() const { return sigma_db_; }

 private:
  LogDistance base_;
  double sigma_db_;
};

/// Factory from a name ("free_space", "two_ray", "log_distance",
/// "shadowing"); sigma/exponent apply where meaningful.
std::unique_ptr<PropagationModel> make_propagation(std::string_view name,
                                                   double exponent = 2.7,
                                                   double sigma_db = 4.0);

}  // namespace manet::radio
