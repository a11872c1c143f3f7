#include "optim/matrix.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace otem::optim {

Matrix::Matrix(size_t rows, size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    OTEM_REQUIRE(row.size() == cols_, "ragged matrix initializer");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::diagonal(const Vector& d) {
  Matrix m(d.size(), d.size());
  for (size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
  return m;
}

void Matrix::reshape(size_t rows, size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, 0.0);
}

void Matrix::set_zero() {
  std::fill(data_.begin(), data_.end(), 0.0);
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r)
    for (size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix Matrix::operator+(const Matrix& other) const {
  OTEM_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_,
               "matrix addition shape mismatch");
  Matrix out(rows_, cols_);
  for (size_t i = 0; i < data_.size(); ++i)
    out.data_[i] = data_[i] + other.data_[i];
  return out;
}

Matrix Matrix::operator-(const Matrix& other) const {
  OTEM_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_,
               "matrix subtraction shape mismatch");
  Matrix out(rows_, cols_);
  for (size_t i = 0; i < data_.size(); ++i)
    out.data_[i] = data_[i] - other.data_[i];
  return out;
}

Matrix Matrix::operator*(const Matrix& other) const {
  OTEM_REQUIRE(cols_ == other.rows_, "matrix product shape mismatch");
  Matrix out(rows_, other.cols_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(r, k);
      if (a == 0.0) continue;
      for (size_t c = 0; c < other.cols_; ++c)
        out(r, c) += a * other(k, c);
    }
  }
  return out;
}

Matrix Matrix::operator*(double s) const {
  Matrix out(rows_, cols_);
  for (size_t i = 0; i < data_.size(); ++i) out.data_[i] = data_[i] * s;
  return out;
}

Vector Matrix::operator*(const Vector& v) const {
  OTEM_REQUIRE(cols_ == v.size(), "matrix-vector shape mismatch");
  Vector out(rows_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    double s = 0.0;
    for (size_t c = 0; c < cols_; ++c) s += (*this)(r, c) * v[c];
    out[r] = s;
  }
  return out;
}

void Matrix::multiply_into(const Matrix& other, Matrix& out) const {
  OTEM_REQUIRE(cols_ == other.rows_, "matrix product shape mismatch");
  OTEM_REQUIRE(&out != this && &out != &other,
               "multiply_into output must not alias an operand");
  out.reshape(rows_, other.cols_);
  // Raw restrict pointers let the axpy inner loop vectorise; the k-ascending
  // accumulation order is unchanged, so results stay bit-identical to
  // operator*.
  const size_t oc = other.cols_;
  const double* __restrict ap = data_.data();
  const double* __restrict bp = other.data_.data();
  double* __restrict op = out.data_.data();
  for (size_t r = 0; r < rows_; ++r) {
    double* __restrict orow = op + r * oc;
    for (size_t k = 0; k < cols_; ++k) {
      const double a = ap[r * cols_ + k];
      if (a == 0.0) continue;
      const double* __restrict brow = bp + k * oc;
      for (size_t c = 0; c < oc; ++c) orow[c] += a * brow[c];
    }
  }
}

void Matrix::multiply_vector_into(const Vector& v, Vector& out) const {
  OTEM_REQUIRE(cols_ == v.size(), "matrix-vector shape mismatch");
  OTEM_REQUIRE(&out != &v, "multiply_vector_into output must not alias v");
  out.assign(rows_, 0.0);
  // The dot-product reduction keeps c-ascending order (bit-identical to
  // operator*); hoisted row pointers just cheapen the addressing.
  const double* __restrict ap = data_.data();
  const double* __restrict vp = v.data();
  for (size_t r = 0; r < rows_; ++r) {
    const double* __restrict arow = ap + r * cols_;
    double s = 0.0;
    for (size_t c = 0; c < cols_; ++c) s += arow[c] * vp[c];
    out[r] = s;
  }
}

void Matrix::gram_into(Matrix& out) const {
  OTEM_REQUIRE(&out != this, "gram_into output must not alias the input");
  out.reshape(cols_, cols_);
  // Accumulate row r's outer contribution a_r a_r^T; summing over rows
  // in the outer loop keeps the accumulation order identical to
  // transposed() * (*this). Restrict pointers let the inner axpy
  // vectorise without reordering the sums.
  const double* __restrict ap = data_.data();
  double* __restrict op = out.data_.data();
  for (size_t r = 0; r < rows_; ++r) {
    const double* __restrict arow = ap + r * cols_;
    for (size_t i = 0; i < cols_; ++i) {
      const double a = arow[i];
      if (a == 0.0) continue;
      double* __restrict orow = op + i * cols_;
      for (size_t j = 0; j < cols_; ++j) orow[j] += a * arow[j];
    }
  }
}

void Matrix::add_scaled(const Matrix& other, double alpha) {
  OTEM_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_,
               "add_scaled shape mismatch");
  double* __restrict dp = data_.data();
  const double* __restrict op = other.data_.data();
  const size_t size = data_.size();
  for (size_t i = 0; i < size; ++i) dp[i] += alpha * op[i];
}

void Matrix::transpose_multiply_add(const Vector& x, double alpha,
                                    Vector& y) const {
  OTEM_REQUIRE(rows_ == x.size() && cols_ == y.size(),
               "transpose_multiply_add shape mismatch");
  // y must not alias this matrix's storage. The restrict-qualified axpy
  // vectorises; accumulation order (r ascending) is unchanged.
  const double* __restrict ap = data_.data();
  double* __restrict yp = y.data();
  for (size_t r = 0; r < rows_; ++r) {
    const double xr = alpha * x[r];
    if (xr == 0.0) continue;
    const double* __restrict arow = ap + r * cols_;
    for (size_t c = 0; c < cols_; ++c) yp[c] += arow[c] * xr;
  }
}

double Matrix::max_abs() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::abs(v));
  return m;
}

bool Matrix::is_symmetric(double tol) const {
  if (rows_ != cols_) return false;
  for (size_t r = 0; r < rows_; ++r)
    for (size_t c = r + 1; c < cols_; ++c)
      if (std::abs((*this)(r, c) - (*this)(c, r)) > tol) return false;
  return true;
}

}  // namespace otem::optim
