// converter.h — DC/DC converter with voltage-dependent efficiency
// (paper Section II-C.2).
//
// The hybrid architecture couples each storage to the DC bus through a
// converter whose efficiency drops as the storage-side voltage sags:
//   eta(V) = clamp(eta_max - droop * (1 - V/V_nom)^2, eta_min, eta_max)
// This is the mechanism behind the paper's observation that an overused
// ultracapacitor (large voltage swing, Eq. 8) degrades total HEES
// efficiency — and why OTEM keeps the UC near a high SoE. The quadratic
// form is smooth, so the MPC can differentiate through it.
//
// Sign convention: positive storage power = discharge toward the bus.
#pragma once

#include <algorithm>

#include "common/config.h"

namespace otem::hees {

struct ConverterParams {
  double eta_max = 0.95;       ///< peak conversion efficiency
  double eta_min = 0.70;       ///< floor (clamp) at deep voltage sag
  double droop = 0.25;         ///< quadratic droop coefficient
  double nominal_voltage = 1;  ///< voltage of peak efficiency [V]

  /// Load overrides with the given key prefix (e.g. "hees.cap_conv.").
  static ConverterParams from_config(const Config& cfg,
                                     const std::string& prefix,
                                     const ConverterParams& defaults);
};

class Converter {
 public:
  explicit Converter(ConverterParams params);

  const ConverterParams& params() const { return params_; }

  /// eta(V) — smooth except at the eta_min clamp. Inline: the MPC
  /// rollout evaluates it (and efficiency_dv) twice per horizon step.
  double efficiency(double v) const {
    const double sag = 1.0 - v / params_.nominal_voltage;
    const double eta = params_.eta_max - params_.droop * sag * sag;
    return std::clamp(eta, params_.eta_min, params_.eta_max);
  }

  /// d eta / dV (0 in the clamped region).
  double efficiency_dv(double v) const {
    const double sag = 1.0 - v / params_.nominal_voltage;
    const double eta = params_.eta_max - params_.droop * sag * sag;
    // Efficiency is locally constant in the eta_min clamp region.
    if (eta < params_.eta_min) return 0.0;
    return 2.0 * params_.droop * sag / params_.nominal_voltage;
  }

  /// Storage-side power required/absorbed for a bus-side power request.
  /// p_bus >= 0 (deliver to bus): storage supplies p_bus / eta.
  /// p_bus <  0 (charge from bus): storage receives p_bus * eta.
  double storage_power_for_bus(double p_bus, double v) const;

  /// Inverse map: bus-side power produced by a storage-side power.
  double bus_power_for_storage(double p_storage, double v) const;

  /// Partial derivatives of storage_power_for_bus — used by the MPC
  /// adjoint. d_p is w.r.t. p_bus, d_v w.r.t. the storage voltage.
  void storage_power_partials(double p_bus, double v, double& d_p,
                              double& d_v) const;

 private:
  ConverterParams params_;
};

}  // namespace otem::hees
