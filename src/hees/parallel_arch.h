// parallel_arch.h — Parallel HEES architecture (paper Section II-C.1,
// baseline [15]).
//
// Battery pack and ultracapacitor are permanently connected in parallel
// across the load (Fig. 3, both switches closed): Eqs. (10)-(13)
//
//   P_l = V_l I_l,  I_l = I_b + I_c,  V_l = V_b - R_b I_b,  V_l = V_c
//
// Because the bank must share the battery's voltage domain, the rated
// capacitance is reflected to the pack voltage at equal stored energy:
// C_eff = C (V_r / V_ref)^2 with V_ref = pack Voc at 100 % SoC; the
// SoE<->voltage law (Eq. 8) is preserved. A pack-voltage bank is a long
// series string, so its terminal resistance R_c is NOT negligible at
// this voltage level (the per-cell 2.2 mOhm the paper quotes scales
// with the series count); R_c both dissipates on every ultracap current
// pulse and weakens the low-pass filtering of the battery (transients
// divide by conductance between the R_b and R_c paths). This is what
// makes the unmanaged parallel architecture the losing baseline of the
// paper's Table I: permanent circulation losses plus poorly filtered
// battery current, with no thermal management at all.
//
// There is no controller and no active cooling in this architecture:
// the coolant loop runs passively at ambient inlet temperature.
//
// The inner dynamics (UC voltage relaxation toward battery Voc) are
// stiff relative to the 1 s plant step for small banks, so the step
// integrates internally with sub-steps sized from the R_b C_eff time
// constant.
#pragma once

#include "battery/aging.h"
#include "battery/battery_model.h"
#include "hees/arch_step.h"
#include "ultracap/ultracap_model.h"

namespace otem::hees {

class ParallelArchitecture {
 public:
  /// `cap_path_resistance` is the bus-level ultracap branch resistance
  /// R_c [ohm] (bank ESR + interconnect at pack voltage).
  ParallelArchitecture(battery::PackModel battery,
                       ultracap::BankModel ultracap,
                       double cap_path_resistance = 0.8);

  double cap_path_resistance() const { return r_c_; }

  const battery::PackModel& battery() const { return battery_; }
  const ultracap::BankModel& ultracap() const { return ultracap_; }

  /// Reference (reflection) voltage: pack Voc at 100 % SoC.
  double reference_voltage() const { return v_ref_; }

  /// Effective capacitance at the pack voltage domain [F].
  double effective_capacitance() const;

  /// Ultracap terminal voltage in the pack voltage domain at SoE [%].
  double cap_bus_voltage(double soe_percent) const;

  /// SoE at which the bank voltage equals the battery's open-circuit
  /// voltage at `soc_percent` — the rest point the permanently-parallel
  /// connection relaxes to.
  double equilibrium_soe(double soc_percent) const;

  /// Resolve load power p_load [W] (discharge +, regen -) over dt.
  ArchStep step(double soc_percent, double soe_percent, double t_battery_k,
                double p_load_w, double dt) const;

 private:
  battery::PackModel battery_;
  ultracap::BankModel ultracap_;
  battery::CapacityFadeModel fade_;
  double v_ref_;
  double r_c_;
  double c_eff_;  ///< cached effective_capacitance() (params-only)
};

}  // namespace otem::hees
