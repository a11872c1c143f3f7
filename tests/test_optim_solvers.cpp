// Tests for the optimisation solvers: projected Adam, projected L-BFGS,
// augmented Lagrangian, the ADMM QP solver and the finite-difference
// checker they are validated with.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.h"
#include "common/rng.h"
#include "optim/adam.h"
#include "optim/augmented_lagrangian.h"
#include "optim/finite_diff.h"
#include "optim/lbfgs.h"
#include "optim/qp.h"
#include "optim/vector_ops.h"

namespace otem::optim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// f(x) = sum (x_i - t_i)^2 — convex quadratic with known minimiser.
class Quadratic final : public Objective {
 public:
  explicit Quadratic(Vector target) : target_(std::move(target)) {}
  size_t dim() const override { return target_.size(); }
  double value_and_gradient(const Vector& x, Vector& grad) override {
    grad.assign(dim(), 0.0);
    double f = 0.0;
    for (size_t i = 0; i < x.size(); ++i) {
      const double d = x[i] - target_[i];
      f += d * d;
      grad[i] = 2.0 * d;
    }
    return f;
  }

 private:
  Vector target_;
};

/// 2-D Rosenbrock, the classic curved-valley stress test.
class Rosenbrock final : public Objective {
 public:
  size_t dim() const override { return 2; }
  double value_and_gradient(const Vector& x, Vector& grad) override {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    grad.assign(2, 0.0);
    grad[0] = -2.0 * a - 400.0 * x[0] * b;
    grad[1] = 200.0 * b;
    return a * a + 100.0 * b * b;
  }
};

Box unit_box(size_t n, double lo = -10.0, double hi = 10.0) {
  return {Vector(n, lo), Vector(n, hi)};
}

TEST(Adam, FindsUnconstrainedQuadraticMinimum) {
  Quadratic q({1.0, -2.0, 3.0});
  AdamOptions opt;
  opt.max_iterations = 2000;
  opt.learning_rate = 0.1;
  const SolveResult r = minimize_adam(q, unit_box(3), Vector(3, 0.0), opt);
  EXPECT_NEAR(r.x[0], 1.0, 1e-3);
  EXPECT_NEAR(r.x[1], -2.0, 1e-3);
  EXPECT_NEAR(r.x[2], 3.0, 1e-3);
}

TEST(Adam, RespectsActiveBoxBound) {
  Quadratic q({5.0});  // minimiser outside the box
  const Box box{{0.0}, {1.0}};
  AdamOptions opt;
  opt.max_iterations = 1000;
  opt.learning_rate = 0.1;
  const SolveResult r = minimize_adam(q, box, {0.5}, opt);
  EXPECT_NEAR(r.x[0], 1.0, 1e-6);
  EXPECT_TRUE(r.converged);  // projected gradient vanishes at the bound
}

TEST(Adam, ReturnsBestIterateNotLast) {
  Quadratic q({0.0});
  AdamOptions opt;
  opt.max_iterations = 3;
  opt.learning_rate = 5.0;  // wildly overshooting
  const SolveResult r = minimize_adam(q, unit_box(1), {1.0}, opt);
  EXPECT_LE(r.value, 1.0);  // never worse than the start
}

TEST(Lbfgs, SolvesRosenbrock) {
  Rosenbrock f;
  LbfgsOptions opt;
  // Backtracking-only (no Wolfe) line search tracks the curved valley
  // with short steps; give it room.
  opt.max_iterations = 2000;
  const SolveResult r = minimize_lbfgs(f, unit_box(2), {-1.2, 1.0}, opt);
  EXPECT_NEAR(r.x[0], 1.0, 1e-4);
  EXPECT_NEAR(r.x[1], 1.0, 1e-4);
}

TEST(Lbfgs, QuadraticConvergesInFewIterations) {
  Quadratic q({2.0, -1.0, 0.5, 4.0});
  LbfgsOptions opt;
  opt.max_iterations = 50;
  const SolveResult r = minimize_lbfgs(q, unit_box(4), Vector(4, 0.0), opt);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.iterations, 20u);
  EXPECT_NEAR(r.value, 0.0, 1e-10);
}

TEST(Lbfgs, BoxBoundHoldsOnRosenbrock) {
  Rosenbrock f;
  const Box box{{-10.0, -10.0}, {10.0, 0.5}};  // y capped below optimum
  const SolveResult r = minimize_lbfgs(f, box, {-1.2, 0.0});
  EXPECT_LE(r.x[1], 0.5 + 1e-12);
  // Constrained optimum has y at the bound.
  EXPECT_NEAR(r.x[1], 0.5, 1e-4);
}

// Constrained problem: min (x-2)^2 + (y-2)^2 s.t. x + y <= 2.
// Analytic solution: x = y = 1.
class DiskCorner final : public ConstrainedObjective {
 public:
  size_t dim() const override { return 2; }
  Box bounds() const override { return unit_box(2); }
  size_t num_constraints() const override { return 1; }
  double evaluate(const Vector& x, Vector& c) override {
    c[0] = x[0] + x[1] - 2.0;
    const double dx = x[0] - 2.0, dy = x[1] - 2.0;
    return dx * dx + dy * dy;
  }
  void gradient(const Vector& x, const Vector& w, Vector& g) override {
    g[0] = 2.0 * (x[0] - 2.0) + w[0];
    g[1] = 2.0 * (x[1] - 2.0) + w[0];
  }
};

TEST(AugmentedLagrangian, LinearInequalityActive) {
  DiskCorner p;
  const SolveResult r =
      minimize_augmented_lagrangian(p, {0.0, 0.0});
  EXPECT_NEAR(r.x[0], 1.0, 5e-3);
  EXPECT_NEAR(r.x[1], 1.0, 5e-3);
  EXPECT_LE(r.constraint_violation, 1e-3);
  EXPECT_TRUE(r.converged);
}

// Inactive constraint: min (x+1)^2 s.t. x <= 3 — unconstrained optimum
// is feasible and must be found exactly.
class Inactive final : public ConstrainedObjective {
 public:
  size_t dim() const override { return 1; }
  Box bounds() const override { return unit_box(1); }
  size_t num_constraints() const override { return 1; }
  double evaluate(const Vector& x, Vector& c) override {
    c[0] = x[0] - 3.0;
    return (x[0] + 1.0) * (x[0] + 1.0);
  }
  void gradient(const Vector& x, const Vector& w, Vector& g) override {
    g[0] = 2.0 * (x[0] + 1.0) + w[0];
  }
};

TEST(AugmentedLagrangian, InactiveConstraintDoesNotBias) {
  Inactive p;
  const SolveResult r = minimize_augmented_lagrangian(p, {2.0});
  EXPECT_NEAR(r.x[0], -1.0, 1e-3);
}

// Nonlinear constraint: min x + y s.t. x^2 + y^2 <= 2 (disk).
// Optimum at (-1, -1), value -2.
class DiskMin final : public ConstrainedObjective {
 public:
  size_t dim() const override { return 2; }
  Box bounds() const override { return unit_box(2); }
  size_t num_constraints() const override { return 1; }
  double evaluate(const Vector& x, Vector& c) override {
    c[0] = x[0] * x[0] + x[1] * x[1] - 2.0;
    return x[0] + x[1];
  }
  void gradient(const Vector& x, const Vector& w, Vector& g) override {
    g[0] = 1.0 + w[0] * 2.0 * x[0];
    g[1] = 1.0 + w[0] * 2.0 * x[1];
  }
};

TEST(AugmentedLagrangian, NonlinearDiskConstraint) {
  DiskMin p;
  AugmentedLagrangianOptions opt;
  opt.adam.max_iterations = 500;
  const SolveResult r = minimize_augmented_lagrangian(p, {0.0, 0.0}, opt);
  EXPECT_NEAR(r.x[0], -1.0, 1e-2);
  EXPECT_NEAR(r.x[1], -1.0, 1e-2);
  EXPECT_LE(r.constraint_violation, 1e-2);
}

TEST(AugmentedLagrangian, WarmStartMultiplierSizeChecked) {
  DiskCorner p;
  AugmentedLagrangianOptions opt;
  opt.initial_multipliers = {1.0, 2.0};  // wrong size (1 constraint)
  EXPECT_THROW(minimize_augmented_lagrangian(p, {0.0, 0.0}, opt),
               otem::SimError);
}

// --- QP (ADMM) ----------------------------------------------------------

TEST(Qp, EqualityLikeTightBounds) {
  // min 1/2 (x0^2 + x1^2) s.t. x0 + x1 = 1  ->  x = (0.5, 0.5).
  QpProblem p;
  p.p = Matrix::identity(2);
  p.q = {0.0, 0.0};
  p.a = Matrix{{1.0, 1.0}};
  p.l = {1.0};
  p.u = {1.0};
  const QpResult r = solve_qp(p);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 0.5, 1e-4);
  EXPECT_NEAR(r.x[1], 0.5, 1e-4);
}

TEST(Qp, BoxConstrainedLeastSquares) {
  // min 1/2||x - t||^2 with 0 <= x <= 1, t = (2, -1, 0.3).
  QpProblem p;
  p.p = Matrix::identity(3);
  p.q = {-2.0, 1.0, -0.3};
  p.a = Matrix::identity(3);
  p.l = {0.0, 0.0, 0.0};
  p.u = {1.0, 1.0, 1.0};
  const QpResult r = solve_qp(p);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 1.0, 1e-4);
  EXPECT_NEAR(r.x[1], 0.0, 1e-4);
  EXPECT_NEAR(r.x[2], 0.3, 1e-4);
}

TEST(Qp, InactiveConstraintsGiveUnconstrainedSolution) {
  QpProblem p;
  p.p = Matrix{{2.0, 0.5}, {0.5, 1.0}};
  p.q = {-1.0, -1.0};
  p.a = Matrix::identity(2);
  p.l = {-kInf, -kInf};
  p.u = {kInf, kInf};
  const QpResult r = solve_qp(p);
  EXPECT_TRUE(r.converged);
  // Solve P x = -q directly: [2 .5; .5 1] x = [1; 1].
  EXPECT_NEAR(2.0 * r.x[0] + 0.5 * r.x[1], 1.0, 1e-4);
  EXPECT_NEAR(0.5 * r.x[0] + 1.0 * r.x[1], 1.0, 1e-4);
}

TEST(Qp, AdaptiveRhoHandlesStiffDiagonal) {
  // Regression for the LTV-MPC shape: P ~ 1e5 on the diagonal against
  // unit-scale constraint rows. A fixed rho = 0.1 stalls for ~1e6
  // iterations; the adaptive schedule must converge quickly.
  const size_t n = 30;
  QpProblem p;
  p.p = Matrix(n, n);
  p.q.assign(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    p.p(i, i) = 1.5e5;
    p.q[i] = (i % 2) ? 8.4e4 : -1.5e5;
  }
  const size_t rows = n + 10;
  p.a = Matrix(rows, n);
  p.l.assign(rows, 0.0);
  p.u.assign(rows, 0.0);
  for (size_t i = 0; i < n; ++i) {
    p.a(i, i) = 1.0;
    p.l[i] = (i % 2) ? 0.0 : -1.0;
    p.u[i] = 1.0;
  }
  for (size_t r = n; r < rows; ++r) {
    for (size_t c2 = 0; c2 < n; ++c2)
      p.a(r, c2) = ((r + c2) % 3 == 0) ? 0.5 : 0.05;
    p.l[r] = -50.0;
    p.u[r] = 20.0;
  }
  QpOptions o;
  o.eps_abs = 1e-4;
  o.eps_rel = 1e-4;
  const QpResult r = solve_qp(p, o);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.iterations, 2000u);
  // Box-respecting KKT point: odd vars pinned at 0 (q > 0), even vars
  // at 1 (unconstrained optimum q/P = 1 exactly at the bound).
  EXPECT_NEAR(r.x[0], 1.0, 1e-3);
  EXPECT_NEAR(r.x[1], 0.0, 1e-3);
}

TEST(Qp, AdaptiveRhoCanBeDisabled) {
  QpProblem p;
  p.p = Matrix::identity(2);
  p.q = {-1.0, -1.0};
  p.a = Matrix::identity(2);
  p.l = {0.0, 0.0};
  p.u = {0.5, 0.5};
  QpOptions o;
  o.rho_update_interval = 0;
  const QpResult r = solve_qp(p, o);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 0.5, 1e-4);
}

TEST(Qp, RejectsBadShapes) {
  QpProblem p;
  p.p = Matrix::identity(2);
  p.q = {0.0, 0.0};
  p.a = Matrix{{1.0, 1.0}};
  p.l = {0.0};
  p.u = {-1.0};  // l > u
  EXPECT_THROW(solve_qp(p), otem::SimError);
}

// --- finite differences -------------------------------------------------

TEST(FiniteDiff, MatchesAnalyticGradientOfSmoothFunction) {
  auto f = [](const Vector& x) {
    return std::sin(x[0]) * std::exp(x[1]) + x[0] * x[0];
  };
  const Vector x{0.7, -0.3};
  const Vector g = finite_difference_gradient(f, x);
  EXPECT_NEAR(g[0], std::cos(0.7) * std::exp(-0.3) + 1.4, 1e-6);
  EXPECT_NEAR(g[1], std::sin(0.7) * std::exp(-0.3), 1e-6);
}

TEST(FiniteDiff, RelErrorDetectsWrongGradient) {
  auto f = [](const Vector& x) { return x[0] * x[0]; };
  const double good = gradient_max_rel_error(f, {3.0}, {6.0});
  const double bad = gradient_max_rel_error(f, {3.0}, {5.0});
  EXPECT_LT(good, 1e-6);
  EXPECT_GT(bad, 0.1);
}

}  // namespace
}  // namespace otem::optim
