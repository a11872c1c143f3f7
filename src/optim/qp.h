// qp.h — dense convex quadratic programming via ADMM (OSQP-style), and
// the option / warm-start / result types the structured LTV solver
// (optim/ltv_qp.h) shares.
//
// solve_qp() solves
//     min  1/2 x^T P x + q^T x
//     s.t. l <= A x <= u
// with P symmetric positive semidefinite. It is the TEST-ONLY dense
// oracle: tests reach it directly or through ltv_qp_to_dense() to check
// LtvQpSolver, the one production QP path, against an independent
// transcription. Nothing in the library calls it.
//
// Algorithm: standard two-block ADMM with over-relaxation, cold-started
// from zero every call. Each iteration solves the KKT-regularised system
//     (P + sigma I + rho A^T A) x = sigma x_prev - q + A^T (rho z - y)
// via a dense Cholesky factorisation, refactorised only when the
// adaptive-rho schedule moves rho.
#pragma once

#include "optim/decomposition.h"
#include "optim/matrix.h"

namespace otem::optim {

struct QpProblem {
  Matrix p;   ///< n x n, symmetric PSD
  Vector q;   ///< n
  Matrix a;   ///< m x n
  Vector l;   ///< m (may contain -inf)
  Vector u;   ///< m (may contain +inf)
};

struct QpOptions {
  size_t max_iterations = 4000;
  double rho = 0.1;
  double sigma = 1e-6;
  double alpha = 1.6;       ///< over-relaxation
  double eps_abs = 1e-6;
  double eps_rel = 1e-6;
  /// Adaptive rho (OSQP-style): every `rho_update_interval` iterations
  /// rho is rebalanced by the primal/dual residual ratio (requires one
  /// re-factorisation per update). 0 disables adaptation.
  size_t rho_update_interval = 100;
  /// Factorisation reuse (LtvQpSolver only): when a solve sees the same
  /// constraint data, sigma and rho as the cached KKT factorisation and
  /// P differs elementwise by at most this tolerance,
  /// the cached Cholesky is reused without refactorising. Residual
  /// tests always use the true problem data, so this trades (bounded)
  /// convergence speed, never accuracy. 0 demands an exact P match.
  double kkt_refactor_tol = 0.0;
  /// Solution polish (LtvQpSolver only; solve_qp ignores it). After
  /// ADMM converges, one stiff equality solve on the active set the
  /// terminal duals identify snaps the iterates to the active-set-exact
  /// optimum — a few O(H) block operations that buy orders of magnitude
  /// in solution accuracy, so callers can run ADMM at a loose eps
  /// without the solution noise. The polished iterates are accepted
  /// only when BOTH residuals improve; otherwise the ADMM iterates
  /// stand (so polish can only help). See LtvQpSolver::polish().
  bool polish = false;
};

/// Initial iterates for LtvQpSolver::solve() — typically the previous
/// solution of a receding-horizon sequence (shifted by one period by the
/// caller).
/// Sizes that do not match the problem are not an error: the solve
/// silently cold-starts (QpResult::warm_started == false), which is the
/// natural fallback on a horizon change.
struct QpWarmStart {
  Vector x;          ///< primal seed (size n, empty = cold)
  Vector y;          ///< dual seed for the l <= Ax <= u rows (size m)
  double rho = 0.0;  ///< initial penalty; 0 uses QpOptions::rho
  /// y is the dual of an accepted polish whose working set settled
  /// (QpResult::polished and not polish_capped): exactly zero on
  /// inactive rows, so the polish seeds its working set from y's signs.
  bool polished = false;
};

struct QpResult {
  Vector x;   ///< terminal primal iterate (feed back as QpWarmStart::x)
  Vector y;   ///< terminal dual for the l <= Ax <= u rows
  size_t iterations = 0;
  bool converged = false;
  double primal_residual = 0.0;
  double dual_residual = 0.0;
  size_t rho_updates = 0;  ///< adaptive-rho rebalances performed
  double rho_final = 0.0;  ///< penalty at termination (QpWarmStart::rho)
  bool warm_started = false;     ///< iterates were seeded from a warm start
  /// Cholesky factorisations this solve paid for (initial + adaptive
  /// rho). 0 means the cached factorisation was reused outright.
  size_t kkt_refactorizations = 0;
  /// Fixed-size stage-block kernel applications (LtvQpSolver only;
  /// always 0 from solve_qp). Exact and machine-independent —
  /// bench/check_banded.py gates on this growing linearly in horizon.
  size_t stage_block_ops = 0;
  /// QpOptions::polish ran and the polished iterates were accepted
  /// (both residuals improved). The polish factorisation is NOT counted
  /// in kkt_refactorizations — that field measures ADMM KKT reuse — but
  /// its block work is included in stage_block_ops.
  bool polished = false;
  /// Working-set refinement rounds the polish ran (each one weighted
  /// KKT assembly + factorisation + solve; 0 when polish did not run).
  size_t polish_rounds = 0;
  /// The polish ran out of refinement rounds before its working set
  /// settled (the ADMM iterates then stand unless the accept test says
  /// otherwise).
  bool polish_capped = false;
  /// The share of stage_block_ops spent in the polish; the remainder is
  /// ADMM work (iterations, rebalances, warm-seed propagation).
  size_t polish_block_ops = 0;
};

/// Cold ADMM solve with adaptive rho (fresh workspace per call); throws
/// otem::SimError on malformed shapes. Test-only dense oracle — see the
/// header comment.
QpResult solve_qp(const QpProblem& problem, const QpOptions& options = {});

}  // namespace otem::optim
