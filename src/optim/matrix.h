// matrix.h — dense row-major matrix for the optimisation stack.
//
// Sized for MPC-scale problems (tens to a few hundred rows); no BLAS, no
// expression templates — straightforward loops the compiler vectorises.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace otem::optim {

using Vector = std::vector<double>;

class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols, double fill = 0.0);

  /// Construct from nested initializer list, e.g. {{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(size_t n);
  /// Diagonal matrix from a vector.
  static Matrix diagonal(const Vector& d);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }
  double& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }

  const double* data() const { return data_.data(); }

  /// Resize to rows x cols and zero-fill, reusing the existing
  /// allocation when capacity allows. The workhorse for workspaces that
  /// persist across solver iterations / MPC steps.
  void reshape(size_t rows, size_t cols);

  /// Zero every element in place.
  void set_zero();

  Matrix transposed() const;

  Matrix operator+(const Matrix& other) const;
  Matrix operator-(const Matrix& other) const;
  Matrix operator*(const Matrix& other) const;
  Matrix operator*(double s) const;

  Vector operator*(const Vector& v) const;

  /// out = (*this) * other without allocating when `out` already has the
  /// right shape (ikj loop order, row-major cache-friendly). `out` must
  /// not alias either operand. Same accumulation order as operator*, so
  /// results are bit-identical.
  void multiply_into(const Matrix& other, Matrix& out) const;

  /// out = (*this) * v, reusing out's capacity. `out` must not alias v.
  void multiply_vector_into(const Vector& v, Vector& out) const;

  /// out = (*this)^T * (*this) — the Gram matrix A^T A — computed
  /// without materialising the transpose. Reuses out's storage.
  void gram_into(Matrix& out) const;

  /// (*this) += alpha * other, elementwise (same shape).
  void add_scaled(const Matrix& other, double alpha);

  /// y += alpha * A^T x (used by adjoint code and CG-style iterations).
  void transpose_multiply_add(const Vector& x, double alpha, Vector& y) const;

  /// Max absolute element (infinity norm of the flattened data).
  double max_abs() const;

  /// True when symmetric to within `tol` (absolute).
  bool is_symmetric(double tol = 1e-12) const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace otem::optim
