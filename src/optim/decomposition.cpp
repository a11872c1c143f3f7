#include "optim/decomposition.h"

#include <cmath>

#include "common/error.h"

namespace otem::optim {

void Cholesky::factor(const Matrix& a) {
  OTEM_REQUIRE(a.rows() == a.cols(), "Cholesky requires a square matrix");
  const size_t n = a.rows();
  l_.reshape(n, n);  // reuses the allocation on refactorisation
  for (size_t j = 0; j < n; ++j) {
    double d = a(j, j);
    for (size_t k = 0; k < j; ++k) d -= l_(j, k) * l_(j, k);
    OTEM_REQUIRE(d > 1e-14 * std::max(1.0, std::abs(a(j, j))),
                 "matrix is not positive definite");
    l_(j, j) = std::sqrt(d);
    for (size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (size_t k = 0; k < j; ++k) s -= l_(i, k) * l_(j, k);
      l_(i, j) = s / l_(j, j);
    }
  }
}

Vector Cholesky::solve(const Vector& b) const {
  Vector x = b;
  solve_in_place(x);
  return x;
}

void Cholesky::solve_in_place(Vector& b) const {
  const size_t n = l_.rows();
  OTEM_REQUIRE(b.size() == n, "Cholesky solve size mismatch");
  // Forward: L y = b, overwriting b with y (b[i] is read before it is
  // written and only already-solved entries are read back).
  for (size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (size_t k = 0; k < i; ++k) s -= l_(i, k) * b[k];
    b[i] = s / l_(i, i);
  }
  // Backward: L^T x = y, again in place (entries above ii are final).
  for (size_t ii = n; ii-- > 0;) {
    double s = b[ii];
    for (size_t k = ii + 1; k < n; ++k) s -= l_(k, ii) * b[k];
    b[ii] = s / l_(ii, ii);
  }
}

double Cholesky::log_det() const {
  double s = 0.0;
  for (size_t i = 0; i < l_.rows(); ++i) s += std::log(l_(i, i));
  return 2.0 * s;
}

Lu::Lu(const Matrix& a) : lu_(a), perm_(a.rows()) {
  OTEM_REQUIRE(a.rows() == a.cols(), "LU requires a square matrix");
  const size_t n = a.rows();
  for (size_t i = 0; i < n; ++i) perm_[i] = i;
  for (size_t col = 0; col < n; ++col) {
    // Partial pivot.
    size_t pivot = col;
    double best = std::abs(lu_(col, col));
    for (size_t r = col + 1; r < n; ++r) {
      const double v = std::abs(lu_(r, col));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    OTEM_REQUIRE(best > 1e-300, "singular matrix in LU factorisation");
    if (pivot != col) {
      for (size_t c = 0; c < n; ++c) std::swap(lu_(pivot, c), lu_(col, c));
      std::swap(perm_[pivot], perm_[col]);
      sign_ = -sign_;
    }
    for (size_t r = col + 1; r < n; ++r) {
      const double f = lu_(r, col) / lu_(col, col);
      lu_(r, col) = f;
      for (size_t c = col + 1; c < n; ++c) lu_(r, c) -= f * lu_(col, c);
    }
  }
}

Vector Lu::solve(const Vector& b) const {
  const size_t n = lu_.rows();
  OTEM_REQUIRE(b.size() == n, "LU solve size mismatch");
  Vector y(n);
  for (size_t i = 0; i < n; ++i) {
    double s = b[perm_[i]];
    for (size_t k = 0; k < i; ++k) s -= lu_(i, k) * y[k];
    y[i] = s;
  }
  Vector x(n);
  for (size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (size_t k = ii + 1; k < n; ++k) s -= lu_(ii, k) * x[k];
    x[ii] = s / lu_(ii, ii);
  }
  return x;
}

double Lu::det() const {
  double d = static_cast<double>(sign_);
  for (size_t i = 0; i < lu_.rows(); ++i) d *= lu_(i, i);
  return d;
}

}  // namespace otem::optim
