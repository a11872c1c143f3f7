// dual_arch.h — Dual HEES architecture with switches (paper Section
// II-C.1, baseline [16]).
//
// Two switches S_b and S_c (Fig. 3) connect the battery and/or the
// ultracapacitor to the load:
//   kBatteryOnly — S_b closed, S_c open: the battery alone carries the
//     load; the UC floats (holds its charge).
//   kUltracapOnly — S_b open, S_c closed: the UC alone carries the load
//     while the battery rests and cools passively. This is [16]'s
//     thermal-management action.
//   kParallel — both closed: identical to the parallel architecture.
//   kRecharge — the battery serves the load AND pushes a current-limited
//     charge into the bank. A bare parallel reconnection of a deeply
//     discharged bank would draw an unbounded inrush (V_b - V_c)/R_b,
//     so real dual systems recharge through a current limiter; the
//     limited recharge still adds battery current and heat — the
//     recharge self-heating the paper's Fig. 1 discussion highlights.
//
// The mode is chosen per step by a controller (core/dual_methodology);
// this class only applies the electrical consequences.
#pragma once

#include "battery/aging.h"
#include "battery/battery_model.h"
#include "hees/arch_step.h"
#include "hees/parallel_arch.h"
#include "ultracap/ultracap_model.h"

namespace otem::hees {

enum class DualMode { kBatteryOnly, kUltracapOnly, kParallel, kRecharge };

const char* to_string(DualMode mode);

class DualArchitecture {
 public:
  DualArchitecture(battery::PackModel battery, ultracap::BankModel ultracap);

  const battery::PackModel& battery() const { return parallel_.battery(); }
  const ultracap::BankModel& ultracap() const { return parallel_.ultracap(); }

  /// Ultracap voltage in the shared (pack) voltage domain.
  double cap_bus_voltage(double soe_percent) const {
    return parallel_.cap_bus_voltage(soe_percent);
  }

  /// Charge power pushed into the bank in kRecharge mode [W].
  double recharge_power_w() const { return recharge_power_w_; }
  void set_recharge_power_w(double p_w);

  /// Resolve load power p_load [W] over dt under the given switch mode.
  /// In kUltracapOnly, a load the bank cannot carry (SoE floor or power
  /// rating) falls back to the battery for the shortfall and the step is
  /// flagged infeasible — the switch-over [16] relies on is broken, the
  /// situation Fig. 1 shows for undersized banks.
  ArchStep step(double soc_percent, double soe_percent, double t_battery_k,
                double p_load_w, DualMode mode, double dt) const;

 private:
  ArchStep battery_only_step(double soc, double soe, double tb, double p_load,
                             double dt) const;
  ArchStep ultracap_only_step(double soc, double soe, double tb,
                              double p_load, double dt) const;
  ArchStep recharge_step(double soc, double soe, double tb, double p_load,
                         double dt) const;

  double recharge_power_w_ = 8000.0;

  ParallelArchitecture parallel_;
  battery::CapacityFadeModel fade_;
};

}  // namespace otem::hees
