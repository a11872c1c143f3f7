#include "hees/dual_arch.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace otem::hees {

const char* to_string(DualMode mode) {
  switch (mode) {
    case DualMode::kBatteryOnly:
      return "battery_only";
    case DualMode::kUltracapOnly:
      return "ultracap_only";
    case DualMode::kParallel:
      return "parallel";
    case DualMode::kRecharge:
      return "recharge";
  }
  return "?";
}

DualArchitecture::DualArchitecture(battery::PackModel battery,
                                   ultracap::BankModel ultracap)
    : parallel_(std::move(battery), std::move(ultracap)),
      fade_(parallel_.battery().params().cell) {}

ArchStep DualArchitecture::step(double soc_percent, double soe_percent,
                                double t_battery_k, double p_load_w,
                                DualMode mode, double dt) const {
  OTEM_REQUIRE(dt > 0.0, "step duration must be positive");
  switch (mode) {
    case DualMode::kBatteryOnly:
      return battery_only_step(soc_percent, soe_percent, t_battery_k,
                               p_load_w, dt);
    case DualMode::kUltracapOnly:
      return ultracap_only_step(soc_percent, soe_percent, t_battery_k,
                                p_load_w, dt);
    case DualMode::kParallel:
      return parallel_.step(soc_percent, soe_percent, t_battery_k, p_load_w,
                            dt);
    case DualMode::kRecharge:
      return recharge_step(soc_percent, soe_percent, t_battery_k, p_load_w,
                           dt);
  }
  throw SimError("unknown dual architecture mode");
}

void DualArchitecture::set_recharge_power_w(double p_w) {
  OTEM_REQUIRE(p_w >= 0.0, "recharge power must be non-negative");
  recharge_power_w_ = p_w;
}

ArchStep DualArchitecture::recharge_step(double soc, double soe, double tb,
                                         double p_load, double dt) const {
  const ultracap::BankModel& cap = parallel_.ultracap();
  // Current-limited charge into the bank, capped by its headroom.
  const double p_charge =
      std::min(recharge_power_w_, cap.max_charge_power(soe, dt));
  ArchStep out = battery_only_step(soc, soe, tb, p_load + p_charge, dt);
  out.soe_next = cap.step_soe(soe, -p_charge, dt);
  // Report the charge current where the bank voltage is defined; a
  // fully drained bank takes a (modelled) constant-power precharge.
  out.i_cap_a = soe > 0.01 ? cap.current_for_power(soe, -p_charge) : 0.0;
  out.e_cap_j = -p_charge * dt;
  return out;
}

ArchStep DualArchitecture::battery_only_step(double soc, double soe,
                                             double tb, double p_load,
                                             double dt) const {
  const battery::PackModel& bat = parallel_.battery();
  ArchStep out;
  const battery::PowerSolve solve = bat.current_for_power(soc, tb, p_load);
  out.feasible = solve.feasible;
  const double i_b = solve.current_a;
  const double vb = bat.open_circuit_voltage(soc);
  const double rb = bat.internal_resistance(soc, tb);

  out.i_bat_a = i_b;
  out.soc_next = bat.step_soc(soc, i_b, dt);
  out.soe_next = soe;  // UC floats
  out.q_bat_w = bat.heat_generation(soc, tb, i_b);
  out.e_bat_j = vb * i_b * dt;
  out.e_loss_j = i_b * i_b * rb * dt;
  out.qloss_percent = fade_.loss_for_step(
      std::max(i_b, 0.0) / bat.params().parallel, tb, dt);
  return out;
}

ArchStep DualArchitecture::ultracap_only_step(double soc, double soe,
                                              double tb, double p_load,
                                              double dt) const {
  const ultracap::BankModel& cap = parallel_.ultracap();
  const double r_c = parallel_.cap_path_resistance();
  ArchStep out;

  // Serve the load through the resistive bank path:
  // (V_c - R_c I) I = P. The storage then sees V_c I = P + I^2 R_c.
  const double v_c = parallel_.cap_bus_voltage(soe);
  double p_bus = p_load;

  // Peak-power limit of the resistive path.
  const double peak = v_c * v_c / (4.0 * r_c);
  if (p_bus > peak) {
    p_bus = peak;
    out.feasible = false;
  }

  double i_c = 0.0;
  double p_storage = 0.0;
  if (v_c > 1e-6) {
    const double disc = v_c * v_c - 4.0 * r_c * p_bus;
    i_c = (v_c - std::sqrt(std::max(disc, 0.0))) / (2.0 * r_c);
    p_storage = v_c * i_c;
  } else if (p_bus > 0.0) {
    out.feasible = false;  // drained bank cannot hold the bus
  }

  // Energy-window clamps on the storage side.
  if (p_storage > 0.0) {
    const double deliverable = cap.max_discharge_power(soe, dt);
    if (p_storage > deliverable) {
      p_storage = deliverable;
      i_c = v_c > 1e-6 ? p_storage / v_c : 0.0;
      p_bus = p_storage - i_c * i_c * r_c;
      out.feasible = false;
    }
  } else if (p_storage < 0.0) {
    const double acceptable = cap.max_charge_power(soe, dt);
    if (-p_storage > acceptable) {
      p_storage = -acceptable;  // brakes take the rest
      i_c = v_c > 1e-6 ? p_storage / v_c : 0.0;
      p_bus = p_storage - i_c * i_c * r_c;
    }
  }

  out.soe_next = cap.step_soe(soe, p_storage, dt);
  out.i_cap_a = i_c;
  out.e_cap_j = p_storage * dt;
  out.e_loss_j += i_c * i_c * r_c * dt;

  // Shortfall falls back to the battery (both switches momentarily
  // closed in a real system; modelled as direct battery supply).
  const double shortfall = p_load > 0.0 ? p_load - p_bus : 0.0;
  if (shortfall > 1e-9) {
    const ArchStep bat_step =
        battery_only_step(soc, soe, tb, shortfall, dt);
    out.i_bat_a = bat_step.i_bat_a;
    out.soc_next = bat_step.soc_next;
    out.q_bat_w = bat_step.q_bat_w;
    out.e_bat_j = bat_step.e_bat_j;
    out.e_loss_j += bat_step.e_loss_j;
    out.qloss_percent = bat_step.qloss_percent;
    out.feasible = out.feasible && bat_step.feasible;
  } else {
    out.soc_next = soc;
  }
  return out;
}

}  // namespace otem::hees
