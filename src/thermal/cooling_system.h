// cooling_system.h — active battery cooling system model
// (paper Section II-D, Eqs. 14-17).
//
// Two lumped thermal states: battery pack temperature T_b and in-pack
// coolant temperature T_c. The controller's thermal actuator is the
// coolant INLET temperature T_i — lowering T_i below the outlet
// temperature costs cooler power P_c = Cdot_c / eta_c * (T_o - T_i)
// (Eq. 16). The pump runs at fixed flow, so its power is a constant.
//
//   C_b dT_b/dt = h_cb (T_c - T_b) + Q_b              (Eq. 14)
//   C_c dT_c/dt = h_bc (T_b - T_c) + Cdot_c (T_i - T_c)  (Eq. 15)
//
// Discretisation follows the paper's Eq. 17 exactly: trapezoidal
// (Crank-Nicolson) in the coupling terms, explicit in Q_b. Because the
// ODE right-hand side is LINEAR in (T_b, T_c, T_i, Q_b), the discrete
// update is an affine map
//   [T_b+, T_c+]^T = M [T_b, T_c]^T + b_i T_i + b_q Q_b
// whose coefficients depend only on the parameters and dt. The
// StepMatrix struct exposes those coefficients so the MPC adjoint can
// backpropagate through the thermal dynamics exactly.
//
// The loop passes an ambient radiator BEFORE the cooler: passively, the
// inlet relaxes part-way to ambient with effectiveness eps,
//   T_i,passive = T_o - eps (T_o - T_ambient),
// and the active cooler pulls further below that at electric cost
//   T_i = T_i,passive - P_c * eta_c / Cdot_c      (inverse of Eq. 16).
// Architectures WITHOUT an active cooler (Parallel [15], Dual [16]) use
// the same loop with P_c = 0 and no pump cost — every methodology gets
// an identical passive path to ambient, required for a fair Fig. 8/9
// comparison, while only cooling-equipped ones can pay energy to cool
// below it.
#pragma once

#include <cstddef>

#include "common/config.h"

namespace otem::thermal {

struct CoolingParams {
  /// Battery pack heat capacity C_b [J/K] (sum over cells; set from the
  /// battery pack by callers).
  double battery_heat_capacity = 96000.0;

  /// Coolant (in-pack) heat capacity C_c [J/K].
  double coolant_heat_capacity = 17500.0;

  /// Battery<->coolant heat transfer coefficient h_cb = h_bc [W/K].
  /// Cold-plate coupling: at 600 W/K a 3 kW pack heat load rides 5 K
  /// above the coolant, so the cooler genuinely controls the cells.
  double heat_transfer_w_k = 600.0;

  /// Coolant flow heat-capacity rate Cdot_c = m_dot * c_p [W/K].
  double flow_heat_capacity_rate = 700.0;

  /// Cooler efficiency eta_c (Eq. 16). The paper models it as an
  /// EFFICIENCY (< 1, heat-exchange losses between coolant, air and a
  /// secondary loop), not a refrigeration COP — so cooling is
  /// genuinely expensive, which is what makes the Fig. 9 trade-off
  /// interesting.
  double cooler_efficiency = 0.75;

  /// Cooler electric power cap P_c_max [W] — paper constraint C3.
  /// Sized so the cooler can hold the pack near its optimum even under
  /// a sustained aggressive cycle (at eta_c = 0.75 this cap moves up to
  /// ~11 kW of heat).
  double max_cooler_power_w = 15000.0;

  /// Lowest achievable inlet temperature [K] (refrigerant limit).
  double min_inlet_temp_k = 273.15;

  /// Passive ambient-radiator effectiveness eps in [0, 1): fraction of
  /// (T_o - T_ambient) shed without spending cooler power. The paper's
  /// pack is "completely isolated from outside"; the small default
  /// models parasitic losses of the plumbing only, so an unmanaged pack
  /// heats far above ambient on aggressive cycles (the paper's Fig. 1
  /// premise) and thermal management is genuinely load-bearing.
  double passive_effectiveness = 0.08;

  /// Constant pump electric power [W] (fixed coolant flow).
  double pump_power_w = 120.0;

  /// Safety band for T_b [K] — paper constraint C1. The upper bound is
  /// the "safe threshold" of Figs. 1 and 6.
  double min_battery_temp_k = 273.15;
  double max_battery_temp_k = 313.15;  // 40 C

  /// Load overrides with prefix "thermal." from cfg.
  static CoolingParams from_config(const Config& cfg);
};

/// The two thermal states.
struct ThermalState {
  double t_battery_k = 298.15;
  double t_coolant_k = 298.15;
};

/// Affine one-step update coefficients (see header comment).
struct StepMatrix {
  // [tb+; tc+] = m [tb; tc] + bi * t_inlet + bq * q_bat
  double m00 = 0, m01 = 0, m10 = 0, m11 = 0;
  double bi0 = 0, bi1 = 0;
  double bq0 = 0, bq1 = 0;
};

/// One affine thermal update in place. This is the single source of the
/// step arithmetic: CoolingSystem::step and PackThermalModel's segment
/// sweep both call it, so they produce bit-identical doubles by
/// construction.
inline void apply_step(const StepMatrix& m, double& t_battery_k,
                       double& t_coolant_k, double q_bat_w,
                       double t_inlet_k) {
  const double tb = m.m00 * t_battery_k + m.m01 * t_coolant_k +
                    m.bi0 * t_inlet_k + m.bq0 * q_bat_w;
  const double tc = m.m10 * t_battery_k + m.m11 * t_coolant_k +
                    m.bi1 * t_inlet_k + m.bq1 * q_bat_w;
  t_battery_k = tb;
  t_coolant_k = tc;
}

class CoolingSystem {
 public:
  explicit CoolingSystem(CoolingParams params);

  const CoolingParams& params() const { return params_; }

  /// Exact trapezoidal coefficients for step size dt (Eq. 17).
  StepMatrix step_matrix(double dt) const;

  /// Advance the thermal state by dt under battery heat q_bat [W] and
  /// inlet temperature t_inlet [K].
  ThermalState step(const ThermalState& s, double q_bat_w, double t_inlet_k,
                    double dt) const;

  /// Passive inlet temperature (cooler off): the ambient radiator sheds
  /// eps of the outlet-to-ambient difference.
  double passive_inlet(double t_coolant_k, double t_ambient_k) const;

  /// Inlet temperature achieved when the cooler additionally spends
  /// electric power p_c [W] (Eq. 16 inverted), clamped to the
  /// refrigerant floor.
  double inlet_for_power(double t_coolant_k, double t_ambient_k,
                         double p_c_w) const;

  /// Cooler electric power [W] required to reach t_inlet from the
  /// passive inlet (Eq. 16, T_o = T_c). Zero when the passive path
  /// already reaches it.
  double cooler_power(double t_coolant_k, double t_ambient_k,
                      double t_inlet_k) const;

  /// Lowest inlet temperature reachable under the power cap C3.
  double min_feasible_inlet(double t_coolant_k, double t_ambient_k) const;

  /// Kelvin of inlet pull-down bought per watt of cooler power:
  /// eta_c / Cdot_c. Exposed for the MPC's analytic gradients.
  double pulldown_per_watt() const;

  /// Continuous-time derivatives (Eqs. 14-15) — used by the RK4
  /// reference integrator in tests.
  void derivatives(const ThermalState& s, double q_bat_w, double t_inlet_k,
                   double& dtb_dt, double& dtc_dt) const;

  /// Classic RK4 step — reference integrator to validate the trapezoidal
  /// scheme's accuracy in tests.
  ThermalState step_rk4(const ThermalState& s, double q_bat_w,
                        double t_inlet_k, double dt) const;

  /// Steady-state temperatures under constant heat and inlet temperature
  /// (dT/dt = 0 in Eqs. 14-15) — used by equilibrium property tests.
  ThermalState equilibrium(double q_bat_w, double t_inlet_k) const;

 private:
  CoolingParams params_;
};

}  // namespace otem::thermal
