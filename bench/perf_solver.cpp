// perf_solver — google-benchmark microbenchmarks of the optimisation
// stack: MPC rollout (forward + adjoint), full augmented-Lagrangian
// solves across horizons, and the LTV control step with and without
// ADMM warm starts.
// Establishes the real-time budget of the controller (the paper's MPC
// must run every second on an automotive ECU) and records the
// iteration savings bench/check_warm_start.py gates on in CI.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "core/otem/ltv_controller.h"
#include "core/otem/mpc_problem.h"
#include "core/otem/otem_controller.h"
#include "obs/sketch.h"
#include "obs/timer.h"

namespace {

using namespace otem;
using namespace otem::core;

SystemSpec spec() { return SystemSpec::from_config(Config()); }

std::vector<double> load(size_t n) {
  std::vector<double> p(n);
  for (size_t k = 0; k < n; ++k)
    p[k] = 15000.0 + 30000.0 * ((k % 7) / 6.0) - 5000.0 * (k % 3);
  return p;
}

void BM_MpcForward(benchmark::State& state) {
  const size_t horizon = static_cast<size_t>(state.range(0));
  MpcOptions opt;
  opt.horizon = horizon;
  MpcProblem prob(spec(), opt);
  PlantState x0;
  prob.set_window(x0, load(horizon));
  optim::Vector z(prob.dim(), 0.6);
  optim::Vector c(prob.num_constraints());
  for (auto _ : state) {
    benchmark::DoNotOptimize(prob.evaluate(z, c));
  }
}
BENCHMARK(BM_MpcForward)->Arg(10)->Arg(30)->Arg(60);

void BM_MpcForwardBackward(benchmark::State& state) {
  const size_t horizon = static_cast<size_t>(state.range(0));
  MpcOptions opt;
  opt.horizon = horizon;
  MpcProblem prob(spec(), opt);
  PlantState x0;
  prob.set_window(x0, load(horizon));
  optim::Vector z(prob.dim(), 0.6);
  optim::Vector c(prob.num_constraints());
  optim::Vector w(prob.num_constraints(), 0.5);
  optim::Vector g(prob.dim());
  for (auto _ : state) {
    benchmark::DoNotOptimize(prob.evaluate(z, c));
    prob.gradient(z, w, g);
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_MpcForwardBackward)->Arg(10)->Arg(30)->Arg(60);

void BM_OtemSolve(benchmark::State& state) {
  const size_t horizon = static_cast<size_t>(state.range(0));
  MpcOptions opt;
  opt.horizon = horizon;
  OtemController ctrl(spec(), opt);
  PlantState x0;
  x0.t_battery_k = 305.0;
  const std::vector<double> p = load(horizon);
  double total_iters = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctrl.solve(x0, p));
    total_iters += static_cast<double>(ctrl.last_solve().iterations);
  }
  state.counters["iters_per_solve"] = benchmark::Counter(
      total_iters, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_OtemSolve)->Arg(10)->Arg(30)->Arg(60)->Unit(
    benchmark::kMillisecond);

// Median of a sample set (gbenchmark counters only aggregate means, so
// the per-step median the acceptance gate reads is computed here).
double median_of(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  return samples[mid];
}

// One LTV-QP control step on a sliding load window — the production
// hot path. Arg(0) is the horizon, Arg(1) toggles
// LtvOptions::warm_start (iterate carrying + factorisation reuse stay
// coupled to it, exactly as shipped). The acceptance criterion lives
// here: warm (Arg 1) must cut mean and median ADMM iterations per step
// by >= 85 % against cold at the same horizon (CI runs
// bench/check_warm_start.py --min-percent 85), and the warm step must
// stay under bench/check_banded.py's per-horizon iteration ceilings.
void BM_LtvControlStep(benchmark::State& state) {
  const size_t horizon = static_cast<size_t>(state.range(0));
  const bool warm = state.range(1) != 0;
  LtvOptions opt;
  opt.warm_start = warm;
  MpcOptions mpc;
  mpc.horizon = horizon;
  LtvOtemController ctrl(spec(), mpc, opt);
  const std::vector<double> p = load(horizon + 256);
  PlantState x;
  x.t_battery_k = 303.0;
  x.t_coolant_k = 301.0;
  std::vector<double> iters, refactors;
  // Per-solve wall-clock into a quantile sketch: BENCH_solver.json
  // then carries p50/p95/p99 solve latency per (horizon, warm) cell —
  // the tail is what an every-second ECU deadline actually budgets.
  obs::QuantileSketch latency_us;
  double admm_ops_total = 0.0, polish_ops_total = 0.0;
  double polish_rounds_total = 0.0;
  size_t step = 0;
  std::vector<double> window(horizon);
  for (auto _ : state) {
    const size_t base = step % 256;
    for (size_t k = 0; k < horizon; ++k) window[k] = p[base + k];
    const double t0 = obs::now_us();
    benchmark::DoNotOptimize(ctrl.solve(x, window));
    latency_us.add(obs::now_us() - t0);
    iters.push_back(static_cast<double>(ctrl.last_solve().qp_iterations));
    refactors.push_back(
        static_cast<double>(ctrl.last_solve().kkt_refactorizations));
    const LtvOtemController::SolveInfo& info = ctrl.last_solve();
    admm_ops_total += static_cast<double>(info.stage_block_ops -
                                          info.polish_block_ops);
    polish_ops_total += static_cast<double>(info.polish_block_ops);
    polish_rounds_total += static_cast<double>(info.qp_polish_rounds);
    ++step;
  }
  double iter_total = 0.0, refactor_total = 0.0;
  for (double v : iters) iter_total += v;
  for (double v : refactors) refactor_total += v;
  state.counters["admm_iters_mean"] = benchmark::Counter(
      iter_total, benchmark::Counter::kAvgIterations);
  state.counters["admm_iters_median"] = median_of(iters);
  state.counters["kkt_refactor_mean"] = benchmark::Counter(
      refactor_total, benchmark::Counter::kAvgIterations);
  // Fixed-size block-kernel applications per ADMM iteration and per
  // polish working-set round, counted apart so neither cost is
  // amortised over the other's denominator: exact, machine-independent,
  // and linear in the horizon — what bench/check_banded.py gates on.
  state.counters["stage_ops_per_iter"] =
      iter_total > 0.0 ? admm_ops_total / iter_total : 0.0;
  state.counters["polish_ops_per_round"] =
      polish_rounds_total > 0.0 ? polish_ops_total / polish_rounds_total
                                : 0.0;
  state.counters["solve_p50_us"] = latency_us.quantile(0.50);
  state.counters["solve_p95_us"] = latency_us.quantile(0.95);
  state.counters["solve_p99_us"] = latency_us.quantile(0.99);
}
BENCHMARK(BM_LtvControlStep)
    ->Args({10, 0})
    ->Args({10, 1})
    ->Args({30, 0})
    ->Args({30, 1})
    ->Args({60, 0})
    ->Args({60, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // How THIS repo's code was compiled (the stock library_build_type
  // context key reports the google-benchmark library's own build, which
  // is debug on many distros). bench/check_*.py refuse baselines whose
  // repo_build_type is not "release", so an unoptimised artifact can
  // never be committed as a perf baseline again.
#ifdef NDEBUG
  benchmark::AddCustomContext("repo_build_type", "release");
#else
  benchmark::AddCustomContext("repo_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
