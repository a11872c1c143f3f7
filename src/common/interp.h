// interp.h — 1-D and 2-D table interpolation.
//
// Used for empirical maps: motor/inverter efficiency vs (speed, torque),
// DC/DC converter efficiency vs voltage, temperature-dependent parameter
// tables. All tables clamp outside their domain (physically sensible for
// efficiency/limit maps) rather than extrapolating.
#pragma once

#include <cstddef>
#include <vector>

namespace otem {

/// Piecewise-linear interpolation over strictly increasing knots.
class Interp1D {
 public:
  Interp1D() = default;

  /// Build from knot positions `x` (strictly increasing) and values `y`
  /// (same length, >= 2 entries).
  Interp1D(std::vector<double> x, std::vector<double> y);

  /// Interpolated value; clamps to the end values outside [x front, x back].
  double operator()(double x) const;

  /// Derivative dy/dx of the active segment (0 outside the domain).
  double derivative(double x) const;

  bool empty() const { return x_.empty(); }

 private:
  std::vector<double> x_;
  std::vector<double> y_;
};

/// Bilinear interpolation on a rectangular grid; clamps outside the domain.
class Interp2D {
 public:
  Interp2D() = default;

  /// `z` is row-major with shape [x.size()][y.size()].
  Interp2D(std::vector<double> x, std::vector<double> y,
           std::vector<double> z);

  double operator()(double x, double y) const;

  bool empty() const { return x_.empty(); }

 private:
  std::vector<double> x_;
  std::vector<double> y_;
  std::vector<double> z_;  // row-major [x][y]
  double at(size_t i, size_t j) const { return z_[i * y_.size() + j]; }
};

}  // namespace otem
