// decomposition.h — Cholesky and LU factorisations with solves.
//
// Used by the QP solver (KKT systems) and available for tests and
// model-fitting utilities. Both throw otem::SimError on singular /
// non-SPD input rather than returning NaNs.
#pragma once

#include <vector>

#include "optim/matrix.h"

namespace otem::optim {

/// Cholesky factorisation A = L L^T of a symmetric positive-definite
/// matrix. Throws if A is not SPD (within a pivot tolerance).
class Cholesky {
 public:
  /// Empty factorisation; call factor() before solving.
  Cholesky() = default;
  explicit Cholesky(const Matrix& a) { factor(a); }

  /// (Re)factorise, reusing the existing storage when the size matches —
  /// the adaptive-rho path of the QP solver refactorises in place.
  void factor(const Matrix& a);

  /// Solve A x = b.
  Vector solve(const Vector& b) const;

  /// Solve A x = b overwriting b with x — no allocation; the QP solver
  /// hot loop uses this against its persistent workspace.
  void solve_in_place(Vector& b) const;

  /// log(det A) — useful for conditioning diagnostics.
  double log_det() const;

  const Matrix& l() const { return l_; }

 private:
  Matrix l_;
};

/// LU factorisation with partial pivoting, P A = L U.
class Lu {
 public:
  explicit Lu(const Matrix& a);

  Vector solve(const Vector& b) const;

  /// Determinant (including pivot sign).
  double det() const;

 private:
  Matrix lu_;                  // packed L (unit diag) and U
  std::vector<size_t> perm_;   // row permutation
  int sign_ = 1;
};

}  // namespace otem::optim
