// pack_thermal.h — cell-resolved battery pack thermal model.
//
// The main loop lumps the whole pack into one battery and one coolant
// temperature (cooling_system.h, the paper's Eqs. 14-15). Physically,
// the coolant HEATS UP as it flows through the pack (paper Fig. 5), so
// cells near the outlet run hotter than the lumped average — the cell
// temperature distribution [25] studies. This model resolves the pack
// into segments along the flow path:
//
//   (C_b/M) dT_b,i/dt = (h/M)(T_c,i - T_b,i) + Q_i
//   (C_c/M) dT_c,i/dt = (h/M)(T_b,i - T_c,i) + Cdot (T_c,i-1 - T_c,i)
//
// with T_c,0 = T_inlet. Summing the segment equations with uniform
// temperatures recovers the lumped model exactly, which the tests
// verify; each segment is integrated with the same trapezoidal scheme
// (a scaled CoolingSystem), swept in flow order so the advection term
// is implicitly upwinded.
//
// Use it to quantify the hot-spot margin the lumped C1 threshold needs
// (bench/ablation_hotspot) or to study inlet-position effects.
#pragma once

#include <vector>

#include "thermal/cooling_system.h"

namespace otem::thermal {

class PackThermalModel {
 public:
  /// `segments` cells-groups along the coolant path; params are the
  /// LUMPED pack values (heat capacities of the whole pack), divided
  /// internally.
  PackThermalModel(CoolingParams lumped, int segments);

  int segments() const { return segments_; }

  struct State {
    std::vector<double> t_cell_k;     ///< per segment
    std::vector<double> t_coolant_k;  ///< per segment (in-segment coolant)
  };

  /// All segments at one temperature.
  State uniform(double temp_k) const;

  /// Advance by dt under TOTAL pack heat q_total [W] (distributed
  /// uniformly across segments unless per-segment heat is given) and
  /// inlet temperature t_inlet [K].
  State step(const State& s, double q_total_w, double t_inlet_k,
             double dt) const;

  /// Per-segment heat variant (size must equal segments()).
  State step_distributed(const State& s, const std::vector<double>& q_w,
                         double t_inlet_k, double dt) const;

  // --- summaries ---------------------------------------------------------
  double hottest_cell(const State& s) const;
  double mean_cell(const State& s) const;
  /// Coolant temperature leaving the pack (last segment).
  double outlet(const State& s) const;
  /// Hot-spot margin: hottest minus mean cell temperature [K].
  double hotspot_margin(const State& s) const;

  /// Steady-state distribution under constant conditions.
  State equilibrium(double q_total_w, double t_inlet_k) const;

 private:
  CoolingParams lumped_;
  int segments_;
  CoolingSystem segment_system_;  ///< lumped params scaled to one segment
};

}  // namespace otem::thermal
