// The radio medium: a propagation model + radio parameters + a reception
// threshold calibrated so the nominal transmission range matches the
// scenario's Tx parameter (the quantity the paper sweeps 10–250 m).
//
// This mirrors how ns-2 experiments set RXThresh_ for a desired range.
#pragma once

#include <memory>

#include "radio/propagation.h"
#include "radio/radio_params.h"
#include "util/rng.h"

namespace manet::radio {

class Medium {
 public:
  /// Calibrates the reception threshold so that a node at exactly
  /// `nominal_range_m` receives at threshold power under the deterministic
  /// (median) path loss.
  Medium(std::shared_ptr<const PropagationModel> propagation,
         const RadioParams& radio, double nominal_range_m);

  const PropagationModel& propagation() const { return *propagation_; }
  const RadioParams& radio() const { return radio_; }
  double nominal_range_m() const { return nominal_range_m_; }
  double rx_threshold_w() const { return rx_threshold_w_; }

  /// Deterministic (median) received power at a distance.
  double median_rx_power_w(double distance_m) const {
    return propagation_->rx_power_w(radio_, distance_m, nullptr);
  }

  /// One reception attempt: samples fading (if any) and applies the
  /// threshold. Returns the received power, or nullopt if below threshold.
  struct Reception {
    bool delivered = false;
    double rx_power_w = 0.0;
  };
  Reception try_receive(double distance_m, util::Rng& fading) const;

  /// Upper bound on any successful reception distance; channels use it to
  /// bound spatial queries.
  double max_delivery_range_m() const { return max_range_m_; }

 private:
  std::shared_ptr<const PropagationModel> propagation_;
  RadioParams radio_;
  double nominal_range_m_;
  double rx_threshold_w_;
  double max_range_m_;
};

/// Convenience: free-space medium with ns-2 WaveLAN defaults — the paper's
/// configuration.
Medium make_paper_medium(double nominal_range_m);

}  // namespace manet::radio
