// powertrain.h — backward-facing EV longitudinal powertrain model.
//
// SUBSTITUTION NOTE (DESIGN.md §2): replaces ADVISOR [18] as the source
// of the EV power-request trace P_e(t). Given a speed trace, the model
// computes road load (rolling resistance, aerodynamic drag, grade,
// inertia with rotating-mass factor), passes it through a lumped
// motor+inverter+gear efficiency, applies regenerative-braking limits
// and adds the constant accessory load. The output is the electric
// power the energy storage must supply at the DC bus — positive
// discharge, negative regen — exactly the P_e input of the paper's
// Algorithm 1.
#pragma once

#include <cstddef>

#include "common/config.h"
#include "common/timeseries.h"

namespace otem::vehicle {

struct VehicleParams {
  double mass_kg = 1600.0;            ///< kerb + driver
  double rotating_mass_factor = 1.05; ///< effective inertia multiplier
  double drag_coefficient = 0.30;
  double frontal_area_m2 = 2.25;
  double rolling_resistance = 0.0095;
  double traction_efficiency = 0.85;  ///< bus -> wheels (motor+inv+gear)
  double regen_efficiency = 0.60;     ///< wheels -> bus while braking
  double max_motor_power_w = 110000.0;
  double max_regen_power_w = 40000.0; ///< cap on recovered power at the bus
  double accessory_power_w = 700.0;   ///< 12 V loads, electronics

  /// Load overrides with prefix "vehicle." from cfg.
  static VehicleParams from_config(const Config& cfg);
};

class Powertrain {
 public:
  explicit Powertrain(VehicleParams params);

  const VehicleParams& params() const { return params_; }

  /// Tractive force at the wheels [N] for speed v [m/s], acceleration a
  /// [m/s^2] and road grade [rad].
  double wheel_force(double v_mps, double a_mps2, double grade_rad = 0.0) const;

  /// Electric power request at the DC bus [W] (discharge +, regen -).
  double power_request(double v_mps, double a_mps2,
                       double grade_rad = 0.0) const;

  /// Batched power_request over n samples/lanes. The road-load
  /// constants and trig terms are loop invariants and both branch arms
  /// are evaluated then selected, so the loop vectorizes while staying
  /// bit-identical to the scalar path. Backs power_trace.
  void power_lanes(const double* v_mps, const double* a_mps2,
                   double* p_bus_w, size_t n, double grade_rad = 0.0) const;

  /// Power-request trace for a speed trace (acceleration from finite
  /// differences). Same sampling as the input.
  TimeSeries power_trace(const TimeSeries& speed,
                         double grade_rad = 0.0) const;

  /// Net bus energy to drive the trace [J] (discharge minus regen).
  double trip_energy_j(const TimeSeries& speed, double grade_rad = 0.0) const;

  /// Net consumption per distance [Wh/km] for the trace — used by the
  /// range-estimator example.
  double consumption_wh_per_km(const TimeSeries& speed,
                               double grade_rad = 0.0) const;

 private:
  VehicleParams params_;
};

}  // namespace otem::vehicle
