#include "battery/battery_model.h"

#include <algorithm>
#include <cmath>

#include "battery/cell_math.h"
#include "common/constants.h"
#include "common/error.h"
#include "common/fast_math.h"

namespace otem::battery {

PackModel::PackModel(PackParams params) : params_(std::move(params)) {
  OTEM_REQUIRE(params_.series > 0 && params_.parallel > 0,
               "pack topology must be positive");
}

double PackModel::cell_open_circuit_voltage(double soc_percent) const {
  return cellmath::voc(params_.cell, soc_percent);
}

double PackModel::cell_internal_resistance(double soc_percent,
                                           double temp_k) const {
  OTEM_REQUIRE(temp_k > 100.0, "battery temperature must be in kelvin");
  return cellmath::r25(params_.cell, soc_percent) *
         cellmath::r_arrhenius(params_.cell, temp_k);
}

double PackModel::open_circuit_voltage(double soc_percent) const {
  return params_.series * cell_open_circuit_voltage(soc_percent);
}

double PackModel::internal_resistance(double soc_percent,
                                      double temp_k) const {
  return cell_internal_resistance(soc_percent, temp_k) * params_.series /
         params_.parallel;
}

PackModel::Electrical PackModel::electrical(double soc_percent,
                                            double temp_k) const {
  OTEM_REQUIRE(temp_k > 100.0, "battery temperature must be in kelvin");
  const CellParams& c = params_.cell;
  const double s = cellmath::unit_soc(soc_percent);
  const double s2 = s * s;
  const double exp_v = fastmath::exp(c.v2 * s);
  const double exp_r = fastmath::exp(c.r2 * s);
  const double arrhenius = cellmath::r_arrhenius(c, temp_k);

  // voc and r follow open_circuit_voltage / internal_resistance's
  // expressions and aggregation order, so they match bit for bit.
  Electrical e;
  e.voc = params_.series * cellmath::voc_at(c, s, exp_v);
  const double dcell_ds = c.v1 * c.v2 * exp_v + 4.0 * c.v3 * s2 * s +
                          3.0 * c.v4 * s2 + 2.0 * c.v5 * s + c.v6;
  // Chain rule: s = soc/100.
  e.dvoc_dsoc = params_.series * dcell_ds / 100.0;

  e.r = cellmath::r25_at(c, exp_r) * arrhenius * params_.series /
        params_.parallel;
  const double dr25_ds = c.r1 * c.r2 * exp_r;
  e.dr_dsoc =
      dr25_ds * arrhenius / 100.0 * params_.series / params_.parallel;
  // d/dT exp(k (1/T - 1/Tref)) = -k/T^2 * exp(...)
  const double k = c.resistance_activation_j_mol / constants::kGasConstant;
  e.dr_dtemp = -e.r * k / (temp_k * temp_k);
  return e;
}

double PackModel::nominal_energy_j() const {
  // Approximate: capacity [C] * Voc at 50 % SoC.
  return capacity_ah() * 3600.0 * open_circuit_voltage(50.0);
}

double PackModel::max_discharge_power(double soc_percent,
                                      double temp_k) const {
  const double voc = open_circuit_voltage(soc_percent);
  const double r = internal_resistance(soc_percent, temp_k);
  return voc * voc / (4.0 * r);
}

double PackModel::terminal_voltage(double soc_percent, double temp_k,
                                   double i) const {
  return open_circuit_voltage(soc_percent) -
         internal_resistance(soc_percent, temp_k) * i;
}

PowerSolve PackModel::current_for_power(double soc_percent, double temp_k,
                                        double power_w) const {
  PowerSolve out;
  const double voc = open_circuit_voltage(soc_percent);
  const double r = internal_resistance(soc_percent, temp_k);
  // Terminal power P = (Voc - R i) i  =>  R i^2 - Voc i + P = 0.
  // Discharge (P > 0): the physical branch is the SMALLER positive root
  // (high-voltage, low-current operating point). Charge (P < 0): the
  // negative root of the same quadratic.
  const double disc = voc * voc - 4.0 * r * power_w;
  if (disc < 0.0) {
    // Request exceeds the deliverable maximum: clamp at peak power.
    out.current_a = voc / (2.0 * r);
    out.feasible = false;
  } else {
    out.current_a = (voc - std::sqrt(disc)) / (2.0 * r);
  }
  out.terminal_voltage = voc - r * out.current_a;
  return out;
}

double PackModel::heat_generation(double soc_percent, double temp_k,
                                  double i) const {
  const double r = internal_resistance(soc_percent, temp_k);
  const double joule = i * i * r;  // I (Voc - V) = I^2 R
  // Entropic term, Eq. (4): I * T * dVoc/dT summed over the pack. The
  // per-cell coefficient scales by the series count (pack Voc = series
  // * cell Voc); cell current is i / parallel.
  const double entropic =
      i * temp_k * params_.cell.dvoc_dtemp * params_.series;
  return joule + entropic;
}

double PackModel::step_soc(double soc_percent, double i, double dt) const {
  return std::clamp(soc_percent + soc_rate(i) * dt, 0.0, 100.0);
}

double PackModel::soc_rate(double i) const {
  // Eq. (1): SoC_t = SoC_0 - 100 * integral(I / C_bat); C_bat in
  // ampere-seconds here.
  return -100.0 * i / (capacity_ah() * 3600.0);
}

PackModel::EnergySplit PackModel::energy_for_step(double soc_percent,
                                                  double temp_k, double i,
                                                  double dt) const {
  EnergySplit split;
  const double v = terminal_voltage(soc_percent, temp_k, i);
  split.terminal_j = v * i * dt;
  split.loss_j = i * i * internal_resistance(soc_percent, temp_k) * dt;
  return split;
}

}  // namespace otem::battery
