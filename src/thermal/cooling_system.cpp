#include "thermal/cooling_system.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace otem::thermal {

CoolingParams CoolingParams::from_config(const Config& cfg) {
  CoolingParams p;
  p.battery_heat_capacity =
      cfg.get_double("thermal.battery_heat_capacity", p.battery_heat_capacity);
  p.coolant_heat_capacity =
      cfg.get_double("thermal.coolant_heat_capacity", p.coolant_heat_capacity);
  p.heat_transfer_w_k =
      cfg.get_double("thermal.heat_transfer", p.heat_transfer_w_k);
  p.flow_heat_capacity_rate =
      cfg.get_double("thermal.flow_rate", p.flow_heat_capacity_rate);
  p.cooler_efficiency =
      cfg.get_double("thermal.cooler_efficiency", p.cooler_efficiency);
  p.max_cooler_power_w =
      cfg.get_double("thermal.max_cooler_power", p.max_cooler_power_w);
  p.min_inlet_temp_k =
      cfg.get_double("thermal.min_inlet_temp", p.min_inlet_temp_k);
  p.passive_effectiveness =
      cfg.get_double("thermal.passive_effectiveness", p.passive_effectiveness);
  OTEM_REQUIRE(p.passive_effectiveness >= 0.0 && p.passive_effectiveness < 1.0,
               "passive effectiveness must be in [0, 1)");
  p.pump_power_w = cfg.get_double("thermal.pump_power", p.pump_power_w);
  p.min_battery_temp_k =
      cfg.get_double("thermal.min_battery_temp", p.min_battery_temp_k);
  p.max_battery_temp_k =
      cfg.get_double("thermal.max_battery_temp", p.max_battery_temp_k);

  OTEM_REQUIRE(p.battery_heat_capacity > 0.0 && p.coolant_heat_capacity > 0.0,
               "thermal heat capacities must be positive");
  OTEM_REQUIRE(p.heat_transfer_w_k > 0.0, "heat transfer must be positive");
  OTEM_REQUIRE(p.flow_heat_capacity_rate > 0.0,
               "coolant flow rate must be positive");
  OTEM_REQUIRE(p.cooler_efficiency > 0.0,
               "cooler efficiency must be positive");
  OTEM_REQUIRE(p.min_battery_temp_k < p.max_battery_temp_k,
               "battery temperature band is empty");
  return p;
}

CoolingSystem::CoolingSystem(CoolingParams params) : params_(params) {}

StepMatrix CoolingSystem::step_matrix(double dt) const {
  OTEM_REQUIRE(dt > 0.0, "thermal step size must be positive");
  const double cb = params_.battery_heat_capacity;
  const double cc = params_.coolant_heat_capacity;
  const double a = params_.heat_transfer_w_k * dt / 2.0;
  const double f = params_.flow_heat_capacity_rate * dt;

  // Trapezoidal (Eq. 17) system A [tb+; tc+] = B [tb; tc] + [dt;0] q
  //                                           + [0; f] t_inlet
  const double a00 = cb + a;
  const double a01 = -a;
  const double a10 = -a;
  const double a11 = cc + a + f / 2.0;
  const double det = a00 * a11 - a01 * a10;
  OTEM_ENSURE(det > 0.0, "thermal step matrix is singular");

  // A^{-1} = 1/det [[a11, -a01], [-a10, a00]]
  const double i00 = a11 / det;
  const double i01 = -a01 / det;
  const double i10 = -a10 / det;
  const double i11 = a00 / det;

  const double b00 = cb - a;
  const double b01 = a;
  const double b10 = a;
  const double b11 = cc - a - f / 2.0;

  StepMatrix m;
  m.m00 = i00 * b00 + i01 * b10;
  m.m01 = i00 * b01 + i01 * b11;
  m.m10 = i10 * b00 + i11 * b10;
  m.m11 = i10 * b01 + i11 * b11;
  m.bq0 = i00 * dt;
  m.bq1 = i10 * dt;
  m.bi0 = i01 * f;
  m.bi1 = i11 * f;
  return m;
}

ThermalState CoolingSystem::step(const ThermalState& s, double q_bat_w,
                                 double t_inlet_k, double dt) const {
  const StepMatrix m = step_matrix(dt);
  ThermalState out = s;
  apply_step(m, out.t_battery_k, out.t_coolant_k, q_bat_w, t_inlet_k);
  return out;
}

double CoolingSystem::passive_inlet(double t_coolant_k,
                                    double t_ambient_k) const {
  return t_coolant_k -
         params_.passive_effectiveness * (t_coolant_k - t_ambient_k);
}

double CoolingSystem::inlet_for_power(double t_coolant_k, double t_ambient_k,
                                      double p_c_w) const {
  OTEM_REQUIRE(p_c_w >= 0.0, "cooler power must be non-negative");
  const double ti = passive_inlet(t_coolant_k, t_ambient_k) -
                    p_c_w * pulldown_per_watt();
  return std::max(params_.min_inlet_temp_k, ti);
}

double CoolingSystem::cooler_power(double t_coolant_k, double t_ambient_k,
                                   double t_inlet_k) const {
  // Eq. 16 with T_o at the radiator exit; the cooler can only cool
  // (C2), so an inlet above the passive level costs nothing.
  const double pull = passive_inlet(t_coolant_k, t_ambient_k) - t_inlet_k;
  if (pull <= 0.0) return 0.0;
  return pull / pulldown_per_watt();
}

double CoolingSystem::min_feasible_inlet(double t_coolant_k,
                                         double t_ambient_k) const {
  return inlet_for_power(t_coolant_k, t_ambient_k,
                         params_.max_cooler_power_w);
}

double CoolingSystem::pulldown_per_watt() const {
  return params_.cooler_efficiency / params_.flow_heat_capacity_rate;
}

void CoolingSystem::derivatives(const ThermalState& s, double q_bat_w,
                                double t_inlet_k, double& dtb_dt,
                                double& dtc_dt) const {
  const double h = params_.heat_transfer_w_k;
  dtb_dt = (h * (s.t_coolant_k - s.t_battery_k) + q_bat_w) /
           params_.battery_heat_capacity;
  dtc_dt = (h * (s.t_battery_k - s.t_coolant_k) +
            params_.flow_heat_capacity_rate * (t_inlet_k - s.t_coolant_k)) /
           params_.coolant_heat_capacity;
}

ThermalState CoolingSystem::step_rk4(const ThermalState& s, double q_bat_w,
                                     double t_inlet_k, double dt) const {
  auto deriv = [&](const ThermalState& st) {
    double db = 0, dc = 0;
    derivatives(st, q_bat_w, t_inlet_k, db, dc);
    return ThermalState{db, dc};
  };
  const ThermalState k1 = deriv(s);
  const ThermalState s2{s.t_battery_k + 0.5 * dt * k1.t_battery_k,
                        s.t_coolant_k + 0.5 * dt * k1.t_coolant_k};
  const ThermalState k2 = deriv(s2);
  const ThermalState s3{s.t_battery_k + 0.5 * dt * k2.t_battery_k,
                        s.t_coolant_k + 0.5 * dt * k2.t_coolant_k};
  const ThermalState k3 = deriv(s3);
  const ThermalState s4{s.t_battery_k + dt * k3.t_battery_k,
                        s.t_coolant_k + dt * k3.t_coolant_k};
  const ThermalState k4 = deriv(s4);
  return ThermalState{
      s.t_battery_k + dt / 6.0 *
                          (k1.t_battery_k + 2 * k2.t_battery_k +
                           2 * k3.t_battery_k + k4.t_battery_k),
      s.t_coolant_k + dt / 6.0 *
                          (k1.t_coolant_k + 2 * k2.t_coolant_k +
                           2 * k3.t_coolant_k + k4.t_coolant_k)};
}

ThermalState CoolingSystem::equilibrium(double q_bat_w,
                                        double t_inlet_k) const {
  // From Eq. 15 at steady state: F (Ti - Tc) + h (Tb - Tc) = 0 and from
  // Eq. 14: h (Tc - Tb) + Q = 0, so Tb - Tc = Q / h and Tc = Ti + Q / F.
  const double tc = t_inlet_k + q_bat_w / params_.flow_heat_capacity_rate;
  return ThermalState{tc + q_bat_w / params_.heat_transfer_w_k, tc};
}

}  // namespace otem::thermal
