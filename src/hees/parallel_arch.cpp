#include "hees/parallel_arch.h"

#include <algorithm>
#include <cmath>

#include "battery/cell_math.h"
#include "common/error.h"

namespace otem::hees {
namespace {

// Loop-invariant parameters of one architecture, gathered once per
// step() call so the substep kernel below is pure arithmetic on
// doubles.
struct SubstepCtx {
  const battery::CellParams* cell;
  double series;          ///< pack series count
  double strings;         ///< pack parallel string count
  double r_c;             ///< ultracap branch resistance [ohm]
  double v_ref;           ///< pack reference voltage [V]
  double e_cap_capacity;  ///< bank energy capacity [J]
  double cap_as;          ///< pack charge capacity [A s]
};

struct SubstepOut {
  double soc_next;
  double soe_next;
  double rb_next;  ///< pack resistance at soc_next (next substep's rb)
  double i_b;
  double i_c;
  double e_bat_h;
  double e_cap_h;
  double e_loss_h;
  double q_heat_h;
  double qloss_h;
  double unmet_h;
  double infeasible;  ///< 1.0 when clamped or drained, else 0.0
};

// One electro-chemical substep of the permanently-parallel HEES
// circuit. Every decision is a value select over unconditionally
// computed terms; the golden reports pin the resulting bits.
//
// `rb` must be the pack resistance at (soc, t_battery_k); the kernel
// returns the resistance at soc_next so callers chain substeps without
// recomputing it (the heat term needs it anyway).
inline SubstepOut parallel_substep(const SubstepCtx& x, double arr_r,
                                   double arr_fade, double soc, double soe,
                                   double rb, double t_battery_k,
                                   double p_load_w, double h, double dt) {
  const battery::CellParams& c = *x.cell;
  SubstepOut o;

  const double series = x.series;
  const double strings = x.strings;
  const double r_c = x.r_c;
  const double l1 = c.l1;
  const double cap_ah = c.capacity_ah;

  const double vb = series * battery::cellmath::voc(c, soc);
  const double vc = x.v_ref * std::sqrt(std::clamp(soe, 0.0, 100.0) / 100.0);

  // Eqs. (10)-(13) with a resistive ultracap branch:
  //   I_b = (V_b - V_l)/R_b,  I_c = (V_c - V_l)/R_c,
  //   I_b + I_c = I_l = P_l / V_l
  // giving G V_l^2 - S V_l + P = 0 with G = 1/R_b + 1/R_c and
  // S = V_b/R_b + V_c/R_c. The physical operating point is the
  // high-voltage root. A bank at the 100 % ceiling cannot absorb
  // charge: its branch opens and surplus regen goes to the brakes.
  const bool cap_open = soe >= 100.0 && p_load_w < 0.0;
  const double inv_rc = 1.0 / r_c;
  const double vc_over_rc = vc / r_c;
  const double g = 1.0 / rb + (cap_open ? 0.0 : inv_rc);
  const double s = vb / rb + (cap_open ? 0.0 : vc_over_rc);
  const double disc = s * s - 4.0 * g * p_load_w;
  // disc < 0: peak-power clamp. Delivered power at the clamp is
  // s^2/(4g); the rest is unmet. The max() keeps the untaken sqrt arm
  // NaN-free.
  const bool clamped = disc < 0.0;
  const double root = std::sqrt(std::max(disc, 0.0));
  const double v_peak = s / (2.0 * g);
  const double v_root = (s + root) / (2.0 * g);
  const double v_l = clamped ? v_peak : v_root;
  const double unmet_full = (p_load_w - s * s / (4.0 * g)) * h / dt;
  o.unmet_h = clamped ? unmet_full : 0.0;

  const double i_b = (vb - v_l) / rb;
  const double i_c_full = (vc - v_l) / r_c;
  const double i_c_raw = cap_open ? 0.0 : i_c_full;
  // A drained bank cannot source current.
  const bool drained = soe <= 0.0 && i_c_raw > 0.0;
  const double i_c = drained ? 0.0 : i_c_raw;
  o.infeasible = clamped || drained ? 1.0 : 0.0;

  // Stored-energy flow out of the capacitor plates (loss in R_c is
  // external to the storage).
  const double p_cap = vc * i_c;

  // State updates (same expressions as BankModel/PackModel steps).
  o.soe_next =
      std::clamp(soe - 100.0 * p_cap * h / x.e_cap_capacity, 0.0, 100.0);
  o.soc_next = std::clamp(soc + (-100.0 * i_b / x.cap_as) * h, 0.0, 100.0);
  o.rb_next =
      battery::cellmath::r25(c, o.soc_next) * arr_r * series / strings;

  // Bookkeeping.
  o.e_bat_h = vb * i_b * h;
  o.e_cap_h = p_cap * h;
  o.e_loss_h = (i_b * i_b * rb + i_c * i_c * r_c) * h;
  // Heat at the updated SoC (Eq. 4): Joule term plus entropic term.
  const double joule = i_b * i_b * o.rb_next;
  const double entropic = i_b * t_battery_k * c.dvoc_dtemp * series;
  o.q_heat_h = (joule + entropic) * h;
  // Capacity fade (Eq. 5) on the discharging half-cycles. Mirrors
  // CapacityFadeModel::loss_rate_percent_per_s including its
  // pow(x, 1) == x shortcut (exact per IEEE 754).
  const double cell_i = std::max(i_b, 0.0) / strings;
  const double c_rate = cell_i / cap_ah;
  const double powed = c.l3 == 1.0 ? c_rate : std::pow(c_rate, c.l3);
  const double rate_full = l1 * arr_fade * powed;
  const double rate = cell_i <= 0.0 ? 0.0 : rate_full;
  o.qloss_h = rate * h;

  o.i_b = i_b;
  o.i_c = i_c;
  return o;
}

}  // namespace

ParallelArchitecture::ParallelArchitecture(battery::PackModel battery,
                                           ultracap::BankModel ultracap,
                                           double cap_path_resistance)
    : battery_(std::move(battery)),
      ultracap_(std::move(ultracap)),
      fade_(battery_.params().cell),
      v_ref_(battery_.open_circuit_voltage(100.0)),
      r_c_(cap_path_resistance) {
  OTEM_ENSURE(v_ref_ > 0.0, "pack reference voltage must be positive");
  OTEM_REQUIRE(r_c_ > 0.0, "ultracap path resistance must be positive");
  const double vr = ultracap_.params().rated_voltage;
  c_eff_ = ultracap_.params().capacitance_f * (vr / v_ref_) * (vr / v_ref_);
}

double ParallelArchitecture::effective_capacitance() const { return c_eff_; }

double ParallelArchitecture::cap_bus_voltage(double soe_percent) const {
  return v_ref_ * std::sqrt(std::clamp(soe_percent, 0.0, 100.0) / 100.0);
}

double ParallelArchitecture::equilibrium_soe(double soc_percent) const {
  const double ratio =
      battery_.open_circuit_voltage(soc_percent) / v_ref_;
  return std::clamp(100.0 * ratio * ratio, 0.0, 100.0);
}

ArchStep ParallelArchitecture::step(double soc_percent, double soe_percent,
                                    double t_battery_k, double p_load_w,
                                    double dt) const {
  OTEM_REQUIRE(dt > 0.0, "step duration must be positive");
  OTEM_REQUIRE(t_battery_k > 100.0, "battery temperature must be in kelvin");

  const battery::CellParams& c = battery_.params().cell;
  const SubstepCtx x{&c,
                     static_cast<double>(battery_.params().series),
                     static_cast<double>(battery_.params().parallel),
                     r_c_,
                     v_ref_,
                     ultracap_.energy_capacity_j(),
                     battery_.capacity_ah() * 3600.0};
  const double arr_r = battery::cellmath::r_arrhenius(c, t_battery_k);
  const double arr_fade = battery::cellmath::fade_arrhenius(c, t_battery_k);

  // Sub-step sizing from the (R_b + R_c) C_eff relaxation constant.
  double rb =
      battery::cellmath::r25(c, soc_percent) * arr_r * x.series / x.strings;
  const double tau = std::max((rb + r_c_) * effective_capacitance(), 1e-3);
  const int substeps =
      std::clamp(static_cast<int>(std::ceil(dt / (tau / 5.0))), 1, 200);
  const double h = dt / substeps;

  ArchStep out;
  double q_heat_accum = 0.0;
  double i_bat_accum = 0.0;
  double i_cap_accum = 0.0;

  double soc = soc_percent;
  double soe = soe_percent;

  for (int k = 0; k < substeps; ++k) {
    const SubstepOut r = parallel_substep(
        x, arr_r, arr_fade, soc, soe, rb, t_battery_k, p_load_w, h, dt);
    soc = r.soc_next;
    soe = r.soe_next;
    rb = r.rb_next;
    out.e_bat_j += r.e_bat_h;
    out.e_cap_j += r.e_cap_h;
    out.e_loss_j += r.e_loss_h;
    out.unmet_bus_w += r.unmet_h;
    out.qloss_percent += r.qloss_h;
    if (r.infeasible != 0.0) out.feasible = false;
    q_heat_accum += r.q_heat_h;
    i_bat_accum += r.i_b * h;
    i_cap_accum += r.i_c * h;
  }

  out.soc_next = soc;
  out.soe_next = soe;
  out.q_bat_w = q_heat_accum / dt;
  out.i_bat_a = i_bat_accum / dt;
  out.i_cap_a = i_cap_accum / dt;
  return out;
}

}  // namespace otem::hees
