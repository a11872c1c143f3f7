// Tests for the banded KKT path: fixed-size SmallMat kernels against
// the runtime-sized Matrix oracles, the block-tridiagonal Cholesky
// against the dense factorisation, the structured LtvQpSolver against
// the dense QpSolver on randomised stage problems (via
// ltv_qp_to_dense), and the controller-level dense-vs-banded agreement
// on receding-horizon sequences.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "core/otem/ltv_controller.h"
#include "optim/block_tridiag.h"
#include "optim/decomposition.h"
#include "optim/ltv_qp.h"
#include "optim/matrix.h"
#include "optim/qp.h"
#include "optim/small_mat.h"

namespace otem::optim {
namespace {

template <size_t R, size_t C>
SmallMat<R, C> random_small(Rng& rng, double lo = -1.0, double hi = 1.0) {
  SmallMat<R, C> s;
  for (size_t r = 0; r < R; ++r)
    for (size_t c = 0; c < C; ++c) s.m[r][c] = rng.uniform(lo, hi);
  return s;
}

template <size_t R, size_t C>
Matrix to_matrix(const SmallMat<R, C>& s) {
  Matrix m(R, C);
  for (size_t r = 0; r < R; ++r)
    for (size_t c = 0; c < C; ++c) m(r, c) = s.m[r][c];
  return m;
}

// ---------------------------------------------------------------------------
// SmallMat kernels vs the runtime-sized Matrix oracle.

TEST(SmallMatKernels, MultiplyAddMatchesMatrix) {
  Rng rng(1);
  const auto a = random_small<4, 2>(rng);
  const auto b = random_small<2, 6>(rng);
  SmallMat<4, 6> out = {};
  multiply_add(a, b, out);
  Matrix oracle(4, 6);
  to_matrix(a).multiply_into(to_matrix(b), oracle);
  for (size_t r = 0; r < 4; ++r)
    for (size_t c = 0; c < 6; ++c)
      EXPECT_NEAR(out.m[r][c], oracle(r, c), 1e-14);
}

TEST(SmallMatKernels, TransposeMultiplyAddMatchesMatrix) {
  Rng rng(2);
  const auto a = random_small<4, 2>(rng);
  const auto b = random_small<4, 4>(rng);
  SmallMat<2, 4> out = {};
  const double alpha = 3.25;
  transpose_multiply_add(a, b, alpha, out);
  const Matrix am = to_matrix(a);
  const Matrix bm = to_matrix(b);
  for (size_t r = 0; r < 2; ++r)
    for (size_t c = 0; c < 4; ++c) {
      double want = 0.0;
      for (size_t k = 0; k < 4; ++k) want += alpha * am(k, r) * bm(k, c);
      EXPECT_NEAR(out.m[r][c], want, 1e-14);
    }
}

TEST(SmallMatKernels, CholeskySolveMatchesDense) {
  Rng rng(3);
  // SPD via G G^T + diagonal shift.
  const auto g = random_small<6, 6>(rng);
  SmallMat<6, 6> spd = {};
  for (size_t i = 0; i < 6; ++i)
    for (size_t j = 0; j < 6; ++j) {
      double s = i == j ? 6.0 : 0.0;
      for (size_t k = 0; k < 6; ++k) s += g.m[i][k] * g.m[j][k];
      spd.m[i][j] = s;
    }
  const Matrix dense = to_matrix(spd);
  Vector b(6);
  for (auto& v : b) v = rng.uniform(-2.0, 2.0);

  SmallMat<6, 6> fac = spd;
  double inv_pivot[6];
  cholesky_factor(fac, inv_pivot);
  for (size_t i = 0; i < 6; ++i) EXPECT_EQ(inv_pivot[i], 1.0 / fac.m[i][i]);
  Vector x = b;
  forward_subst(fac, inv_pivot, x.data());
  backward_subst(fac, inv_pivot, x.data());

  const Vector oracle = Cholesky(dense).solve(b);
  for (size_t i = 0; i < 6; ++i) EXPECT_NEAR(x[i], oracle[i], 1e-10);
}

TEST(SmallMatKernels, CholeskyThrowsOnIndefiniteBlock) {
  SmallMat<2, 2> bad = {};
  bad.m[0][0] = 1.0;
  bad.m[0][1] = bad.m[1][0] = 4.0;
  bad.m[1][1] = 1.0;  // eigenvalues 5, -3
  double inv_pivot[2];
  EXPECT_THROW(cholesky_factor(bad, inv_pivot), SimError);
}

// ---------------------------------------------------------------------------
// Block-tridiagonal Cholesky vs the dense factorisation.

constexpr size_t kBlock = 6;
using Block6 = SmallMat<kBlock, kBlock>;

/// A random SPD block-tridiagonal K = L L^T, built from a block lower-
/// bidiagonal L with a dominant diagonal (SPD by construction), in
/// banded form (diag, sub) and as the dense oracle matrix.
struct RandomBlockTridiag {
  std::vector<Block6> diag, sub;
  Matrix dense;
};

RandomBlockTridiag random_block_tridiag(Rng& rng, size_t h) {
  constexpr size_t N = kBlock;
  std::vector<Block6> ldiag(h), lsub(h - 1);
  for (size_t k = 0; k < h; ++k) {
    ldiag[k] = random_small<N, N>(rng, -0.5, 0.5);
    for (size_t i = 0; i < N; ++i) {
      for (size_t j = i + 1; j < N; ++j) ldiag[k].m[i][j] = 0.0;
      ldiag[k].m[i][i] = rng.uniform(1.0, 2.0);
    }
    if (k + 1 < h) lsub[k] = random_small<N, N>(rng, -0.5, 0.5);
  }
  RandomBlockTridiag out{std::vector<Block6>(h), std::vector<Block6>(h - 1),
                         Matrix(h * N, h * N)};
  auto fill = [&](size_t bi, size_t bj, const Block6& blk) {
    for (size_t i = 0; i < N; ++i)
      for (size_t j = 0; j < N; ++j)
        out.dense(bi * N + i, bj * N + j) = blk.m[i][j];
  };
  for (size_t k = 0; k < h; ++k) {
    // Blockwise K = L L^T: D_k = Ld_k Ld_k^T + Ls_{k-1} Ls_{k-1}^T and
    // S_{k+1} = Ls_k Ld_k^T.
    Block6 d = {};
    for (size_t i = 0; i < N; ++i)
      for (size_t j = 0; j < N; ++j) {
        double s = 0.0;
        for (size_t c = 0; c < N; ++c) s += ldiag[k].m[i][c] * ldiag[k].m[j][c];
        if (k > 0)
          for (size_t c = 0; c < N; ++c)
            s += lsub[k - 1].m[i][c] * lsub[k - 1].m[j][c];
        d.m[i][j] = s;
      }
    out.diag[k] = d;
    fill(k, k, d);
    if (k + 1 < h) {
      Block6 s3 = {};
      for (size_t i = 0; i < N; ++i)
        for (size_t j = 0; j < N; ++j) {
          double acc = 0.0;
          for (size_t c = 0; c < N; ++c) acc += lsub[k].m[i][c] * ldiag[k].m[j][c];
          s3.m[i][j] = acc;
        }
      out.sub[k] = s3;
      fill(k + 1, k, s3);
      for (size_t i = 0; i < N; ++i)
        for (size_t j = 0; j < N; ++j)
          out.dense(k * N + i, (k + 1) * N + j) = s3.m[j][i];
    }
  }
  return out;
}

// From the single-stage edge to the production horizon (H=30). The
// sweeps multiply by reciprocal pivots instead of dividing, which only
// changes rounding: the solve agrees with the dense Cholesky to 1e-12
// relative.
class BlockTridiagHorizon : public ::testing::TestWithParam<size_t> {};

TEST_P(BlockTridiagHorizon, SolveMatchesDenseCholesky) {
  const size_t h = GetParam();
  Rng rng(h);
  RandomBlockTridiag k = random_block_tridiag(rng, h);
  Vector b(h * kBlock);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);

  BlockTridiagCholesky<kBlock> chol;
  chol.factor(k.diag, k.sub);
  Vector x = b;
  chol.solve_in_place(x);

  const Vector oracle = Cholesky(k.dense).solve(b);
  double err = 0.0, scale = 0.0;
  for (size_t i = 0; i < h * kBlock; ++i) {
    err = std::max(err, std::abs(x[i] - oracle[i]));
    scale = std::max(scale, std::abs(oracle[i]));
  }
  EXPECT_LE(err, 1e-12 * scale);

  // The cost counter is exact: 1 + 3(h-1) factor ops, 4h - 2 solve ops.
  EXPECT_EQ(chol.block_ops(), (1 + 3 * (h - 1)) + (4 * h - 2));
}

INSTANTIATE_TEST_SUITE_P(Horizons, BlockTridiagHorizon,
                         ::testing::Values(size_t{1}, size_t{2}, size_t{3},
                                           size_t{4}, size_t{5}, size_t{6},
                                           size_t{7}, size_t{30}));

TEST(BlockTridiagCholesky, NonSpdBlockStillThrows) {
  // A negative-definite first block, and an SPD system whose last
  // Schur complement D_k - Lt_k Lt_k^T goes indefinite.
  Rng rng(9);
  RandomBlockTridiag first = random_block_tridiag(rng, 2);
  for (size_t i = 0; i < kBlock; ++i) first.diag[0].m[i][i] = -1.0;
  BlockTridiagCholesky<kBlock> chol;
  EXPECT_THROW(chol.factor(first.diag, first.sub), SimError);

  RandomBlockTridiag last = random_block_tridiag(rng, 3);
  last.diag[2].m[kBlock - 1][kBlock - 1] = 0.0;
  EXPECT_THROW(chol.factor(last.diag, last.sub), SimError);
}

// ---------------------------------------------------------------------------
// Structured solver vs the dense oracle on randomised stage problems.

LtvQpProblem random_ltv_problem(Rng& rng, size_t horizon) {
  LtvQpProblem p;
  p.stages.resize(horizon);
  for (size_t k = 0; k < horizon; ++k) {
    LtvQpStage& s = p.stages[k];
    if (k > 0) s.aw = random_small<4, 4>(rng, -0.4, 0.4);
    s.bv = random_small<4, 2>(rng, -1.0, 1.0);
    for (size_t r = 0; r < 4; ++r) s.ew[r] = 1.0;
    for (size_t j = 0; j < 2; ++j) {
      s.v_lo[j] = -1.0;
      s.v_hi[j] = 1.0;
      s.p[j] = rng.uniform(0.5, 2.0);
      s.q[j] = rng.uniform(-1.5, 1.5);
      s.cv[j] = rng.uniform(-1.0, 1.0);
    }
    for (size_t r = 0; r < 4; ++r) {
      s.x_lo[r] = -4.0;
      s.x_hi[r] = 4.0;
      if (k > 0) s.cw[r] = rng.uniform(-0.3, 0.3);
    }
    s.b_lo = -3.0;
    s.b_hi = 3.0;
  }
  return p;
}

QpOptions tight_options() {
  QpOptions o;
  o.eps_abs = 1e-8;
  o.eps_rel = 1e-8;
  o.max_iterations = 200000;
  return o;
}

class LtvQpSeed : public ::testing::TestWithParam<int> {};

TEST_P(LtvQpSeed, BandedMatchesDenseOracle) {
  Rng rng(static_cast<std::uint64_t>(100 + GetParam()));
  const size_t horizon = 4 + static_cast<size_t>(GetParam()) % 6;
  const LtvQpProblem p = random_ltv_problem(rng, horizon);

  LtvQpSolver banded;
  const QpResult rb = banded.solve(p, tight_options());
  ASSERT_TRUE(rb.converged);
  EXPECT_GT(rb.stage_block_ops, 0u);
  EXPECT_EQ(rb.polish_rounds, 0u);  // polish off: no polish telemetry
  EXPECT_EQ(rb.polish_block_ops, 0u);

  QpSolver dense;
  const QpResult rd = dense.solve(ltv_qp_to_dense(p), tight_options());
  ASSERT_TRUE(rd.converged);
  EXPECT_EQ(rd.stage_block_ops, 0u);

  ASSERT_EQ(rb.x.size(), rd.x.size());
  for (size_t i = 0; i < rb.x.size(); ++i)
    EXPECT_NEAR(rb.x[i], rd.x[i], 2e-5) << "variable " << i;
}

TEST_P(LtvQpSeed, WarmStartReconvergesToSameSolution) {
  Rng rng(static_cast<std::uint64_t>(200 + GetParam()));
  const LtvQpProblem p = random_ltv_problem(rng, 6);

  LtvQpSolver solver;
  const QpResult cold = solver.solve(p, tight_options());
  ASSERT_TRUE(cold.converged);

  QpWarmStart warm;
  warm.x = cold.x;
  warm.y = cold.y;
  warm.rho = cold.rho_final;
  const QpResult rewarm = solver.solve(p, tight_options(), warm);
  ASSERT_TRUE(rewarm.converged);
  EXPECT_TRUE(rewarm.warm_started);
  EXPECT_LE(rewarm.iterations, cold.iterations);
  for (size_t i = 0; i < cold.x.size(); ++i)
    EXPECT_NEAR(rewarm.x[i], cold.x[i], 1e-5);
}

TEST_P(LtvQpSeed, PolishSnapsLooseSolveToTightSolution) {
  Rng rng(static_cast<std::uint64_t>(300 + GetParam()));
  const size_t horizon = 4 + static_cast<size_t>(GetParam()) % 6;
  const LtvQpProblem p = random_ltv_problem(rng, horizon);

  // Oracle: the dense solver at tight tolerance.
  QpSolver dense;
  const QpResult oracle = dense.solve(ltv_qp_to_dense(p), tight_options());
  ASSERT_TRUE(oracle.converged);

  // Banded path at a 6-decades-looser tolerance, with polish: ADMM only
  // identifies the active set, the polish snaps onto it exactly.
  QpOptions loose = tight_options();
  loose.eps_abs = 1e-2;
  loose.eps_rel = 1e-2;
  loose.polish = true;
  LtvQpSolver banded;
  const QpResult r = banded.solve(p, loose);
  ASSERT_TRUE(r.converged);
  EXPECT_TRUE(r.polished);
  EXPECT_GT(r.polish_rounds, 0u);
  EXPECT_FALSE(r.polish_capped);
  // The polish share is a strict part of the total block work.
  EXPECT_GT(r.polish_block_ops, 0u);
  EXPECT_LT(r.polish_block_ops, r.stage_block_ops);
  EXPECT_LT(r.primal_residual, 1e-6);
  EXPECT_LT(r.dual_residual, 1e-6);
  ASSERT_EQ(r.x.size(), oracle.x.size());
  for (size_t i = 0; i < r.x.size(); ++i)
    EXPECT_NEAR(r.x[i], oracle.x[i], 2e-5) << "variable " << i;
}

INSTANTIATE_TEST_SUITE_P(Seeds, LtvQpSeed, ::testing::Range(0, 6));

TEST(LtvQpSolver, FactorizationReusedOnIdenticalResolve) {
  Rng rng(7);
  const LtvQpProblem p = random_ltv_problem(rng, 5);
  QpOptions opt = tight_options();
  opt.rho_update_interval = 0;  // fixed rho: the factor depends only on data

  LtvQpSolver solver;
  const QpResult first = solver.solve(p, opt);
  ASSERT_TRUE(first.converged);
  EXPECT_GE(first.kkt_refactorizations, 1u);

  QpWarmStart warm;
  warm.x = first.x;
  warm.y = first.y;
  warm.rho = first.rho_final;
  const QpResult second = solver.solve(p, opt, warm);
  ASSERT_TRUE(second.converged);
  EXPECT_EQ(second.kkt_refactorizations, 0u);
}

TEST(LtvQpSolver, IdenticalWarmResolveKeepsRhoAndFactor) {
  // Adaptive rho on (the shipped cadence): the cold solve walks rho to
  // its equilibrium; re-solving the same problem from its own result
  // must re-enter at exactly that rho, so the cached factor still
  // matches and nothing is refactorised.
  Rng rng(11);
  const LtvQpProblem p = random_ltv_problem(rng, 8);
  const QpOptions opt = tight_options();

  LtvQpSolver solver;
  const QpResult first = solver.solve(p, opt);
  ASSERT_TRUE(first.converged);
  ASSERT_GT(first.rho_updates, 0u);  // the cold walk actually moved rho

  QpWarmStart warm;
  warm.x = first.x;
  warm.y = first.y;
  warm.rho = first.rho_final;
  const QpResult second = solver.solve(p, opt, warm);
  ASSERT_TRUE(second.converged);
  EXPECT_EQ(second.rho_final, first.rho_final);
  EXPECT_EQ(second.rho_updates, 0u);
  EXPECT_EQ(second.kkt_refactorizations, 0u);
}

TEST(LtvQpSolver, StageBlockOpsPerIterationGrowLinearlyInHorizon) {
  // The O(H) claim, on the architecture-independent counter: per-ADMM-
  // iteration block work at horizon 16 is ~2x horizon 8 (not 4x or 8x,
  // as any dense-factor path would give).
  QpOptions opt = tight_options();
  opt.rho_update_interval = 0;
  auto ops_per_iter = [&](size_t horizon) {
    Rng rng(42);  // same data modulo length
    const LtvQpProblem p = random_ltv_problem(rng, horizon);
    LtvQpSolver solver;
    const QpResult r = solver.solve(p, opt);
    EXPECT_TRUE(r.converged);
    return static_cast<double>(r.stage_block_ops) /
           static_cast<double>(r.iterations);
  };
  const double ratio = ops_per_iter(16) / ops_per_iter(8);
  EXPECT_GT(ratio, 1.6);
  EXPECT_LT(ratio, 2.4);
}

}  // namespace
}  // namespace otem::optim

// ---------------------------------------------------------------------------
// Controller level: the banded transcription solves the same problem as
// the condensed dense path, across a receding-horizon sequence.

namespace otem::core {
namespace {

LtvOptions tight_controller_options(optim::KktSolveMode mode) {
  // Tighter than the production defaults so the comparison isolates the
  // transcription, not per-round ADMM slack.
  LtvOptions o;
  o.qp.kkt_mode = mode;
  o.qp.eps_abs = 1e-6;
  o.qp.eps_rel = 1e-6;
  o.qp.max_iterations = 40000;
  return o;
}

// One-shot solves from a fresh (reset) incumbent: with identical SQP
// linearisation points, the two transcriptions must produce the same
// controls to QP tolerance. Randomises horizon, state and load window,
// so different constraint sets go active (thermal, SoC, battery power).
class BandedVsDenseSeed : public ::testing::TestWithParam<int> {};

TEST_P(BandedVsDenseSeed, OneShotControlsMatchAcrossRandomWindows) {
  Rng rng(static_cast<std::uint64_t>(30 + GetParam()));
  const SystemSpec spec = SystemSpec::from_config(Config());
  const size_t horizon = 6 + static_cast<size_t>(GetParam()) % 8;
  MpcOptions mpc;
  mpc.horizon = horizon;
  LtvOtemController banded(
      spec, mpc, tight_controller_options(optim::KktSolveMode::kBanded));
  LtvOtemController dense(
      spec, mpc, tight_controller_options(optim::KktSolveMode::kDense));

  PlantState x;
  x.t_battery_k = rng.uniform(296.0, 309.0);
  x.t_coolant_k = x.t_battery_k - rng.uniform(0.0, 3.0);
  x.soc_percent = rng.uniform(45.0, 90.0);
  x.soe_percent = rng.uniform(35.0, 90.0);
  std::vector<double> window(horizon);
  for (auto& p : window) p = rng.uniform(0.0, 45000.0);

  const auto ub = banded.solve(x, window);
  const auto ud = dense.solve(x, window);
  EXPECT_TRUE(banded.last_solve().qp_converged);
  EXPECT_TRUE(dense.last_solve().qp_converged);
  EXPECT_GT(banded.last_solve().stage_block_ops, 0u);
  EXPECT_EQ(dense.last_solve().stage_block_ops, 0u);
  EXPECT_NEAR(ub.p_cap_bus_w, ud.p_cap_bus_w, 200.0);
  EXPECT_NEAR(ub.p_cooler_w, ud.p_cooler_w, 200.0);
  EXPECT_NEAR(banded.last_solve().cost, dense.last_solve().cost,
              1e-4 * std::abs(dense.last_solve().cost) + 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BandedVsDenseSeed, ::testing::Range(0, 8));

TEST(LtvBandedController, MatchesDensePlanQualityOnRecedingHorizon) {
  // Across a receding-horizon sequence each controller re-linearises
  // around its OWN incumbent, and near SQP ties (the u = 0 loss kink)
  // watt-level QP differences can fork the trajectories — so per-step
  // control equality is NOT an invariant here. Equal plan QUALITY is:
  // both paths must accept plans of the same cost, every step.
  const SystemSpec spec = SystemSpec::from_config(Config());
  const size_t horizon = 10;
  MpcOptions mpc;
  mpc.horizon = horizon;
  LtvOtemController banded(
      spec, mpc, tight_controller_options(optim::KktSolveMode::kBanded));
  LtvOtemController dense(
      spec, mpc, tight_controller_options(optim::KktSolveMode::kDense));

  Rng rng(11);
  std::vector<double> load(horizon + 20);
  for (auto& p : load) p = rng.uniform(5000.0, 45000.0);

  PlantState x;
  x.t_battery_k = 301.0;
  x.t_coolant_k = 299.5;
  for (size_t step = 0; step + horizon <= load.size(); ++step) {
    const std::vector<double> window(load.begin() + step,
                                     load.begin() + step + horizon);
    const auto ub = banded.solve(x, window);
    const auto ud = dense.solve(x, window);
    EXPECT_TRUE(banded.last_solve().qp_converged) << "step " << step;
    EXPECT_TRUE(dense.last_solve().qp_converged) << "step " << step;
    // Controls stay inside the same physical boxes...
    EXPECT_LE(std::abs(ub.p_cap_bus_w), spec.ultracap.max_power_w + 1e-6);
    EXPECT_LE(std::abs(ub.p_cap_bus_w - ud.p_cap_bus_w),
              2.0 * spec.ultracap.max_power_w);
    // ...and the accepted plans are equally good.
    EXPECT_NEAR(banded.last_solve().cost, dense.last_solve().cost,
                0.01 * std::abs(dense.last_solve().cost))
        << "step " << step;
    x.t_battery_k += rng.uniform(-0.05, 0.05);
  }
}

}  // namespace
}  // namespace otem::core
