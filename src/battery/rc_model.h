// rc_model.h — second-order (Thevenin) transient battery model.
//
// The paper's Eq. 2-3 model is quasi-static: V = Voc(SoC) - R(SoC,T) I.
// Real cells add a polarisation transient — under a current step the
// voltage keeps sagging for tens of seconds as the diffusion
// overpotential V1 builds across an R1 || C1 branch:
//
//   V = Voc(SoC) - R0(SoC,T) I - V1,
//   C1 dV1/dt = I - V1 / R1.
//
// The paper explicitly notes that "more detailed battery electrical
// model may increase behavior modeling accuracy, [but] will not
// contradict our methodology" — this model quantifies exactly that
// (bench/ablation_battery_fidelity): how much voltage/heat error the
// quasi-static plant model carries on real drive profiles.
//
// Stateless like PackModel: the polarisation voltage V1 is carried by
// the caller and advanced with the exact exponential update.
#pragma once

#include "battery/battery_model.h"

namespace otem::battery {

struct RcParams {
  /// Polarisation branch per CELL: resistance [ohm] and capacitance
  /// [F]. Defaults give a ~30 s diffusion time constant, typical for
  /// 18650 NMC/NCA cells.
  double r1_cell = 0.025;
  double c1_cell = 1200.0;

  double tau_s() const { return r1_cell * c1_cell; }

  /// Load overrides with prefix "battery.rc." from cfg.
  static RcParams from_config(const Config& cfg);
};

class TransientPackModel {
 public:
  TransientPackModel(PackParams pack, RcParams rc);

  const PackModel& quasi_static() const { return base_; }
  const RcParams& rc() const { return rc_; }

  /// Pack-level polarisation resistance [ohm].
  double r1_pack() const;
  /// Pack-level polarisation capacitance [F].
  double c1_pack() const;

  /// Terminal voltage [V] at pack current i with polarisation state v1.
  double terminal_voltage(double soc_percent, double temp_k, double i,
                          double v1) const;

  /// Exact exponential update of the polarisation voltage over dt:
  /// v1 -> v1 e^{-dt/tau} + R1 i (1 - e^{-dt/tau}).
  double step_v1(double v1, double i, double dt) const;

  /// Steady-state polarisation voltage at sustained current i.
  double v1_steady(double i) const { return r1_pack() * i; }

  /// Solve the pack current for a terminal power request given the
  /// CURRENT polarisation state (held over the step): the quadratic of
  /// PackModel with the open-circuit voltage shifted by v1.
  PowerSolve current_for_power(double soc_percent, double temp_k,
                               double v1, double power_w) const;

  /// Total heat [W]: ohmic (R0) + polarisation (V1^2/R1) + entropic.
  double heat_generation(double soc_percent, double temp_k, double i,
                         double v1) const;

 private:
  PackModel base_;
  RcParams rc_;
};

}  // namespace otem::battery
