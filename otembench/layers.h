// layers.h — per-layer tallies shared by the workloads.
//
//   SolveTally — aggregates core::SolveDiagnostics (what the controller
//                and the LTV QP did each step) into the controller.* and
//                qp.* metrics. All counts are exact, so they repeat
//                bit-for-bit at a fixed seed.
//   StepClock  — a benchmark-owned sim::StepSink that timestamps every
//                step it sees (one clock read per step) and keeps the
//                step's solve diagnostics.
#pragma once

#include <vector>

#include "bench.h"
#include "core/solve_diagnostics.h"
#include "obs/timer.h"
#include "sim/step_sink.h"

namespace otembench {

struct SolveTally {
  double solver_steps = 0;
  double sqp_rounds = 0, nlp_iterations = 0, fallbacks = 0;
  double warm_qp_iterations = 0, warm_steps = 0;
  double cold_qp_iterations = 0, cold_steps = 0;
  double kkt_refactorizations = 0, stage_block_ops = 0;
  double polish_hits = 0, warm_hits = 0;
  std::vector<double> solve_us;

  /// `cold` marks the first step of a mission (no warm start exists).
  void add(const otem::core::SolveDiagnostics& s, bool cold) {
    if (!s.present) return;
    ++solver_steps;
    sqp_rounds += static_cast<double>(s.sqp_rounds);
    nlp_iterations += static_cast<double>(s.iterations);
    fallbacks += s.fallback ? 1.0 : 0.0;
    (cold ? cold_qp_iterations : warm_qp_iterations) +=
        static_cast<double>(s.qp_iterations);
    ++(cold ? cold_steps : warm_steps);
    kkt_refactorizations += static_cast<double>(s.kkt_refactorizations);
    stage_block_ops += static_cast<double>(s.stage_block_ops);
    polish_hits += static_cast<double>(s.qp_polish_hits);
    warm_hits += static_cast<double>(s.qp_warm_hits);
    solve_us.push_back(s.solve_time_us);
  }

  void merge(const SolveTally& o) {
    solver_steps += o.solver_steps;
    sqp_rounds += o.sqp_rounds;
    nlp_iterations += o.nlp_iterations;
    fallbacks += o.fallbacks;
    warm_qp_iterations += o.warm_qp_iterations;
    warm_steps += o.warm_steps;
    cold_qp_iterations += o.cold_qp_iterations;
    cold_steps += o.cold_steps;
    kkt_refactorizations += o.kkt_refactorizations;
    stage_block_ops += o.stage_block_ops;
    polish_hits += o.polish_hits;
    warm_hits += o.warm_hits;
    solve_us.insert(solve_us.end(), o.solve_us.begin(), o.solve_us.end());
  }

  static double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

  /// controller.sqp_rounds_per_step, controller.fallback_steps and the
  /// qp.* counts.
  void emit_counts(Output& out) const {
    out.set("controller.sqp_rounds_per_step", ratio(sqp_rounds, solver_steps),
            "count");
    out.set("controller.fallback_steps", fallbacks, "count");
    out.set("qp.admm_iterations_per_step",
            ratio(warm_qp_iterations, warm_steps), "count");
    out.set("qp.admm_iterations_cold", ratio(cold_qp_iterations, cold_steps),
            "count");
    out.set("qp.kkt_refactorizations_per_step",
            ratio(kkt_refactorizations, solver_steps), "count");
    out.set("qp.stage_block_ops_per_step", ratio(stage_block_ops, solver_steps),
            "count");
    out.set("qp.polish_accept_ratio", ratio(polish_hits, sqp_rounds), "ratio");
    out.set("qp.warm_hit_ratio", ratio(warm_hits, sqp_rounds), "ratio");
  }

  void emit_solve_time(Output& out) const {
    out.set("controller.solve_us.p50", quantile(solve_us, 0.50), "us");
    out.set("controller.solve_us.p99", quantile(solve_us, 0.99), "us");
  }
};

class StepClock final : public otem::sim::StepSink {
 public:
  void begin(const otem::sim::RunContext& ctx) override {
    (void)ctx;
    first_ = true;
    last_us_ = otem::obs::now_us();
  }
  void record(const otem::sim::StepSample& sample) override {
    const double t = otem::obs::now_us();
    interval_us.push_back(t - last_us_);
    last_us_ = t;
    solves.add(sample.rec.solve, first_);
    first_ = false;
  }

  std::vector<double> interval_us;  ///< wall time of each step [µs]
  SolveTally solves;

 private:
  double last_us_ = 0.0;
  bool first_ = true;
};

}  // namespace otembench
