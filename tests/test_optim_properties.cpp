// Property-based sweeps over the optimisation stack: factorisations on
// structured matrix families, solver convergence across conditioning,
// and QP KKT verification on random problems.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "optim/adam.h"
#include "optim/augmented_lagrangian.h"
#include "optim/decomposition.h"
#include "optim/lbfgs.h"
#include "optim/qp.h"
#include "optim/vector_ops.h"

namespace otem::optim {
namespace {

// ---------------------------------------------------------------------------
// Factorisations on structured families.

class ConditioningSweep : public ::testing::TestWithParam<double> {};

TEST_P(ConditioningSweep, CholeskyAccurateAcrossConditioning) {
  // Diagonal-dominant SPD matrix with eigenvalue spread = condition.
  const double condition = GetParam();
  const size_t n = 20;
  Rng rng(7);
  Matrix a(n, n);
  for (size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / (n - 1);
    a(i, i) = std::pow(condition, t);  // eigenvalues 1..condition
  }
  // Random orthogonal-ish mixing via Jacobi rotations keeps SPD.
  for (int r = 0; r < 40; ++r) {
    const size_t i = rng.below(n), j = rng.below(n);
    if (i == j) continue;
    const double c = std::cos(rng.uniform(0.0, 3.14));
    const double s = std::sin(rng.uniform(0.0, 3.14));
    for (size_t k = 0; k < n; ++k) {
      const double ai = a(i, k), aj = a(j, k);
      a(i, k) = c * ai - s * aj;
      a(j, k) = s * ai + c * aj;
    }
    for (size_t k = 0; k < n; ++k) {
      const double ai = a(k, i), aj = a(k, j);
      a(k, i) = c * ai - s * aj;
      a(k, j) = s * ai + c * aj;
    }
  }
  Vector x_true(n);
  for (auto& v : x_true) v = rng.uniform(-1.0, 1.0);
  const Vector b = a * x_true;
  const Vector x = Cholesky(a).solve(b);
  const double tol = 1e-12 * condition + 1e-10;
  for (size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], tol);
}

INSTANTIATE_TEST_SUITE_P(Conditions, ConditioningSweep,
                         ::testing::Values(1.0, 1e2, 1e4, 1e6));

TEST(Decomposition, LuAndCholeskyAgreeOnSpd) {
  Rng rng(21);
  const size_t n = 15;
  Matrix a(n, n);
  for (size_t r = 0; r < n; ++r)
    for (size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
  Matrix spd = a.transposed() * a;
  for (size_t i = 0; i < n; ++i) spd(i, i) += n;
  Vector b(n);
  for (auto& v : b) v = rng.uniform(-2.0, 2.0);
  const Vector x1 = Cholesky(spd).solve(b);
  const Vector x2 = Lu(spd).solve(b);
  for (size_t i = 0; i < n; ++i) EXPECT_NEAR(x1[i], x2[i], 1e-9);
}

TEST(Decomposition, DeterminantConsistentWithLogDet) {
  Rng rng(22);
  const size_t n = 8;
  Matrix a(n, n);
  for (size_t r = 0; r < n; ++r)
    for (size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
  Matrix spd = a.transposed() * a;
  for (size_t i = 0; i < n; ++i) spd(i, i) += 2.0;
  EXPECT_NEAR(std::log(Lu(spd).det()), Cholesky(spd).log_det(), 1e-8);
}

// ---------------------------------------------------------------------------
// Inner solvers across quadratic families.

class QuadraticFamily : public ::testing::TestWithParam<int> {
 protected:
  /// f(x) = 1/2 x^T D x - b^T x with diagonal D of spread kappa.
  struct DiagQuadratic final : Objective {
    Vector d, b;
    size_t dim() const override { return d.size(); }
    double value_and_gradient(const Vector& x, Vector& g) override {
      g.assign(d.size(), 0.0);
      double f = 0.0;
      for (size_t i = 0; i < d.size(); ++i) {
        g[i] = d[i] * x[i] - b[i];
        f += 0.5 * d[i] * x[i] * x[i] - b[i] * x[i];
      }
      return f;
    }
  };

  DiagQuadratic make(int seed) const {
    Rng rng(static_cast<std::uint64_t>(seed));
    DiagQuadratic q;
    const size_t n = 6 + rng.below(10);
    q.d.resize(n);
    q.b.resize(n);
    for (size_t i = 0; i < n; ++i) {
      q.d[i] = std::pow(10.0, rng.uniform(0.0, 2.0));  // spread 1..100
      q.b[i] = rng.uniform(-5.0, 5.0);
    }
    return q;
  }
};

TEST_P(QuadraticFamily, LbfgsFindsTheMinimizer) {
  DiagQuadratic q = make(GetParam());
  Box box{Vector(q.dim(), -100.0), Vector(q.dim(), 100.0)};
  LbfgsOptions opt;
  opt.max_iterations = 200;
  const SolveResult r = minimize_lbfgs(q, box, Vector(q.dim(), 0.0), opt);
  for (size_t i = 0; i < q.dim(); ++i)
    EXPECT_NEAR(r.x[i], q.b[i] / q.d[i], 1e-5) << "seed " << GetParam();
}

TEST_P(QuadraticFamily, AdamGetsCloseDespiteConditioning) {
  DiagQuadratic q = make(GetParam());
  Box box{Vector(q.dim(), -100.0), Vector(q.dim(), 100.0)};
  AdamOptions opt;
  opt.max_iterations = 4000;
  opt.learning_rate = 0.05;
  const SolveResult r = minimize_adam(q, box, Vector(q.dim(), 0.0), opt);
  // Adam is a first-order method: accept approximate optimality.
  Vector g(q.dim());
  q.value_and_gradient(r.x, g);
  EXPECT_LT(projected_gradient_norm(box.lo, box.hi, r.x, g), 0.3)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuadraticFamily, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// QP: KKT verification on random box-constrained problems.

TEST(QpProperty, KktHoldsOnRandomBoxProblems) {
  Rng rng(33);
  for (int trial = 0; trial < 10; ++trial) {
    const size_t n = 4 + rng.below(8);
    QpProblem p;
    Matrix m(n, n);
    for (size_t r = 0; r < n; ++r)
      for (size_t c = 0; c < n; ++c) m(r, c) = rng.uniform(-1.0, 1.0);
    p.p = m.transposed() * m;
    for (size_t i = 0; i < n; ++i) p.p(i, i) += 1.0;
    p.q.resize(n);
    for (auto& v : p.q) v = rng.uniform(-3.0, 3.0);
    p.a = Matrix::identity(n);
    p.l.assign(n, -1.0);
    p.u.assign(n, 1.0);

    QpOptions opt;
    opt.eps_abs = 1e-7;
    opt.eps_rel = 1e-7;
    const QpResult r = solve_qp(p, opt);
    ASSERT_TRUE(r.converged) << "trial " << trial;

    // KKT via projected gradient of the QP objective onto the box.
    Vector g = p.p * r.x;
    for (size_t i = 0; i < n; ++i) g[i] += p.q[i];
    EXPECT_LT(projected_gradient_norm(p.l, p.u, r.x, g), 1e-4)
        << "trial " << trial;
    EXPECT_LE(box_violation(p.l, p.u, r.x), 1e-6);
  }
}

// ---------------------------------------------------------------------------
// Augmented Lagrangian on a family of scaled circle problems.

class CircleScale : public ::testing::TestWithParam<double> {};

TEST_P(CircleScale, MinimizeLinearOverDisk) {
  // min c^T x s.t. |x|^2 <= R^2 — optimum at -R c / |c|.
  const double radius = GetParam();
  struct Disk final : ConstrainedObjective {
    double r2;
    Vector c{1.0, 2.0};
    size_t dim() const override { return 2; }
    Box bounds() const override {
      return {Vector(2, -1e3), Vector(2, 1e3)};
    }
    size_t num_constraints() const override { return 1; }
    double evaluate(const Vector& x, Vector& con) override {
      con[0] = (x[0] * x[0] + x[1] * x[1] - r2) / r2;  // scaled
      return c[0] * x[0] + c[1] * x[1];
    }
    void gradient(const Vector& x, const Vector& w, Vector& g) override {
      g[0] = c[0] + w[0] * 2.0 * x[0] / r2;
      g[1] = c[1] + w[0] * 2.0 * x[1] / r2;
    }
  } disk;
  disk.r2 = radius * radius;

  AugmentedLagrangianOptions opt;
  opt.adam.max_iterations = 800;
  opt.adam.learning_rate = 0.05 * radius;
  const SolveResult r =
      minimize_augmented_lagrangian(disk, Vector(2, 0.0), opt);
  const double norm_c = std::sqrt(5.0);
  EXPECT_NEAR(r.x[0], -radius * 1.0 / norm_c, 0.02 * radius);
  EXPECT_NEAR(r.x[1], -radius * 2.0 / norm_c, 0.02 * radius);
}

INSTANTIATE_TEST_SUITE_P(Radii, CircleScale,
                         ::testing::Values(0.5, 1.0, 5.0, 20.0));

}  // namespace
}  // namespace otem::optim
