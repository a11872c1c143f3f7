#include "core/otem/otem_controller.h"

#include <algorithm>

#include "common/error.h"
#include "obs/trace.h"

namespace otem::core {

OtemSolverOptions OtemSolverOptions::from_config(const Config& cfg) {
  OtemSolverOptions o;
  o.al.adam.max_iterations = static_cast<size_t>(cfg.get_long(
      "otem.solver.adam_iterations",
      static_cast<long>(o.al.adam.max_iterations)));
  o.al.adam.learning_rate =
      cfg.get_double("otem.solver.learning_rate", o.al.adam.learning_rate);
  o.al.lbfgs.max_iterations = static_cast<size_t>(cfg.get_long(
      "otem.solver.lbfgs_iterations",
      static_cast<long>(o.al.lbfgs.max_iterations)));
  o.al.max_outer_iterations = static_cast<size_t>(cfg.get_long(
      "otem.solver.outer_iterations",
      static_cast<long>(o.al.max_outer_iterations)));
  o.al.initial_penalty =
      cfg.get_double("otem.solver.initial_penalty", o.al.initial_penalty);
  o.al.constraint_tolerance = cfg.get_double(
      "otem.solver.constraint_tolerance", o.al.constraint_tolerance);
  return o;
}

OtemController::OtemController(const SystemSpec& spec, MpcOptions mpc_options,
                               OtemSolverOptions solver_options)
    : problem_(spec, mpc_options), solver_(solver_options) {}

void OtemController::reset() {
  have_warm_ = false;
  warm_.clear();
  info_ = SolveInfo{};
}

MpcProblem::Controls OtemController::solve(
    const PlantState& state, const std::vector<double>& p_e_window) {
  const obs::TraceSpan solve_span("otem.solve");
  problem_.set_window(state, p_e_window);

  const size_t dim = problem_.dim();
  optim::Vector x0(dim);
  info_.fallback = !(have_warm_ && warm_.size() == dim);
  if (have_warm_ && warm_.size() == dim) {
    // Shift the previous plan by one step; repeat the tail.
    for (size_t i = 0; i + 2 < dim; ++i) x0[i] = warm_[i + 2];
    x0[dim - 2] = warm_[dim - 2];
    x0[dim - 1] = warm_[dim - 1];
  } else {
    // Cold start: no UC use (z_cap = 0.5 encodes 0 W), cooler off.
    for (size_t k = 0; k < dim / 2; ++k) {
      x0[2 * k] = 0.5;
      x0[2 * k + 1] = 0.0;
    }
  }

  const optim::SolveResult r =
      optim::minimize_augmented_lagrangian(problem_, x0, solver_.al);

  warm_ = r.x;
  have_warm_ = true;

  // Refresh the rollout caches (predicted_states/last_cost) at the
  // accepted solution.
  optim::Vector c(problem_.num_constraints());
  info_.cost = problem_.evaluate(r.x, c);
  info_.constraint_violation = r.constraint_violation;
  info_.iterations = r.iterations;
  info_.converged = r.converged;
  info_.breakdown = problem_.last_cost();

  return problem_.decode(r.x, 0);
}

SolveDiagnostics OtemController::diagnostics() const {
  SolveDiagnostics d;
  d.present = true;
  d.converged = info_.converged;
  d.fallback = info_.fallback;
  d.iterations = info_.iterations;
  d.cost = info_.cost;
  d.constraint_violation = info_.constraint_violation;
  return d;
}

}  // namespace otem::core
