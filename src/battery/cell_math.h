// cell_math.h — inline per-cell electrical/ageing kernels shared by the
// model entry points (PackModel, CapacityFadeModel) and the parallel
// architecture's substep kernel.
//
// Every caller MUST evaluate the same expressions in the same
// association order, so the parallel architecture and the pack model
// agree bit for bit. That is why these live in one header instead of
// being re-derived at each call site, and why they use fastmath::exp
// (see common/fast_math.h).
#pragma once

#include <algorithm>

#include "battery/params.h"
#include "common/constants.h"
#include "common/fast_math.h"

namespace otem::battery::cellmath {

/// SoC in percent -> the fits' unit variable s in [0, 1] (clamped).
inline double unit_soc(double soc_percent) {
  return std::clamp(soc_percent, 0.0, 100.0) / 100.0;
}

/// Eq. 2 fit at unit SoC s, given exp(v2 s) — for callers that reuse
/// the exp (PackModel::electrical also needs it for dVoc/dSoC).
inline double voc_at(const CellParams& c, double s, double exp_v2s) {
  const double s2 = s * s;
  return c.v1 * exp_v2s + c.v3 * s2 * s2 + c.v4 * s2 * s + c.v5 * s2 +
         c.v6 * s + c.v7;
}

/// 25 C reference resistance fit, given exp(r2 s).
inline double r25_at(const CellParams& c, double exp_r2s) {
  return c.r1 * exp_r2s + c.r3;
}

/// Open-circuit voltage of one cell [V] (paper Eq. 2 fit).
inline double voc(const CellParams& c, double soc_percent) {
  const double s = unit_soc(soc_percent);
  return voc_at(c, s, fastmath::exp(c.v2 * s));
}

/// Internal resistance of one cell at the 25 C reference [ohm].
inline double r25(const CellParams& c, double soc_percent) {
  return r25_at(c, fastmath::exp(c.r2 * unit_soc(soc_percent)));
}

/// Arrhenius resistance factor vs the reference temperature
/// (dimensionless; cell resistance = r25 * r_arrhenius).
inline double r_arrhenius(const CellParams& c, double temp_k) {
  return fastmath::exp(c.resistance_activation_j_mol /
                       constants::kGasConstant *
                       (1.0 / temp_k - 1.0 / c.ref_temp_k));
}

/// Arrhenius capacity-fade factor (paper Eq. 5's exp(-l2 / RT)).
inline double fade_arrhenius(const CellParams& c, double temp_k) {
  return fastmath::exp(-c.l2 / (constants::kGasConstant * temp_k));
}

}  // namespace otem::battery::cellmath
