// fast_math.h — branch-free, deterministic transcendentals.
//
// The plant's electro-chemical models are exp-bound: open-circuit
// voltage, the two Arrhenius factors (resistance, capacity fade) and
// the RC decay all call exp every step. This header provides one
// deterministic exp for those kernels: pure arithmetic, no tables, no
// branches on the value path, so its result depends only on IEEE 754
// mul/add/div and never on the libm build or on vectorization (the
// golden reports pin its bits).
//
// Accuracy: ~2 ulp over the clamped range (degree-13 Taylor on
// |r| <= ln2/2 after 2^k range reduction). NOT a drop-in for std::exp
// at the extremes: arguments are clamped to [-708, 708], so it returns
// exp(+-708) instead of inf/0 beyond that — every caller in this tree
// feeds it arguments in [-25, 5].
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

namespace otem::fastmath {

/// Deterministic exp(x): every operation (mul/add/div and the
/// int<->double bit casts) is exactly specified by IEEE 754.
inline double exp(double x) {
  // Clamp to the range where the 2^k scale stays a normal double.
  x = x < -708.0 ? -708.0 : x;
  x = x > 708.0 ? 708.0 : x;

  // Range reduction: x = k*ln2 + r, |r| <= ln2/2. The magic-number add
  // rounds x/ln2 to the nearest integer and parks it in the low
  // mantissa bits (1.5 * 2^52 forces the rounding); subtracting the
  // magic recovers it as a double without a branch or a lrint call.
  constexpr double kInvLn2 = 1.4426950408889634074;
  constexpr double kMagic = 6755399441055744.0;  // 1.5 * 2^52
  // ln2 split hi/lo with 32 significant bits in hi, so k*hi is exact
  // for |k| < 2^20 (fdlibm's split).
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  const double kd = x * kInvLn2 + kMagic;
  const auto k = static_cast<std::int32_t>(std::bit_cast<std::int64_t>(kd));
  const double kf = kd - kMagic;
  const double r = (x - kf * kLn2Hi) - kf * kLn2Lo;

  // exp(r) = 1 + r + r^2 * P(r), degree-13 Taylor: truncation ~4e-18
  // relative on |r| <= 0.347, below the final rounding.
  double q = 1.6059043836821613e-10;       // 1/13!
  q = q * r + 2.0876756987868100e-09;      // 1/12!
  q = q * r + 2.5052108385441720e-08;      // 1/11!
  q = q * r + 2.7557319223985888e-07;      // 1/10!
  q = q * r + 2.7557319223985893e-06;      // 1/9!
  q = q * r + 2.4801587301587302e-05;      // 1/8!
  q = q * r + 1.9841269841269841e-04;      // 1/7!
  q = q * r + 1.3888888888888889e-03;      // 1/6!
  q = q * r + 8.3333333333333332e-03;      // 1/5!
  q = q * r + 4.1666666666666664e-02;      // 1/4!
  q = q * r + 1.6666666666666666e-01;      // 1/3!
  q = q * r + 0.5;                         // 1/2!
  const double p = 1.0 + r + (r * r) * q;

  // Scale by 2^k through the exponent field. k is in [-1022, 1022]
  // after the clamp, so the biased exponent stays normal.
  const double scale =
      std::bit_cast<double>(static_cast<std::int64_t>(1023 + k) << 52);
  return p * scale;
}

}  // namespace otem::fastmath
