// simulator.h — closed-loop plant simulator (paper Algorithm 1 outer
// loop, generalised over methodologies).
//
// MissionStepper is the library's one step loop: per control period it
// advances the plant and pushes a StepSample through a chain of
// StepSinks (sim/step_sink.h) that own all accounting. Simulator::
// run_with_sinks() drives one to the end of a trace (runs, campaigns);
// a serve session steps one per protocol frame. run() is the classic
// convenience wrapper (metrics + optional trace).
#pragma once

#include <vector>

#include "common/timeseries.h"
#include "core/methodology.h"
#include "core/system_spec.h"
#include "core/teb.h"
#include "exec/stop_token.h"

namespace otem::sim {

class StepSink;

/// Full per-step telemetry, recorded when RunOptions::record_trace.
struct RunTrace {
  TimeSeries t_battery_k;  ///< T_b after each step
  TimeSeries t_coolant_k;
  TimeSeries soc_percent;
  TimeSeries soe_percent;
  TimeSeries p_load_w;       ///< EV request served
  TimeSeries p_cooler_w;     ///< cooler electric power
  TimeSeries p_cap_w;        ///< ultracap terminal power (discharge +)
  TimeSeries q_bat_w;        ///< battery heat generation
  TimeSeries t_inlet_k;      ///< coolant inlet applied
  TimeSeries i_bat_a;
  TimeSeries qloss_percent;  ///< cumulative capacity loss
  TimeSeries teb;            ///< combined TEB in [0, 1]
};

struct RunResult {
  double duration_s = 0.0;

  // Algorithm 1 outputs.
  double qloss_percent = 0.0;   ///< total battery capacity loss
  double energy_hees_j = 0.0;   ///< battery + ultracap energy consumed

  // Energy breakdown.
  double energy_battery_j = 0.0;
  double energy_cap_j = 0.0;
  double energy_cooling_j = 0.0;  ///< cooler + pump (subset of HEES energy
                                  ///< for self-powered coolers)
  double energy_loss_j = 0.0;     ///< resistive + conversion losses

  /// The paper's Fig. 9 / Table I metric: HEES energy over duration [W].
  double average_power_w = 0.0;

  // Thermal safety (C1).
  double max_t_battery_k = 0.0;
  double thermal_violation_s = 0.0;  ///< time spent above the C1 ceiling

  size_t infeasible_steps = 0;  ///< physical clamps fired (reliability)
  double unserved_energy_j = 0.0;  ///< bus energy the HEES failed to deliver
  core::PlantState final_state;

  RunTrace trace;  ///< populated when requested
};

struct RunOptions {
  core::PlantState initial;  ///< defaults to the paper's x0
  bool record_trace = true;
  /// Cooperative stop, consulted before every plant step. When it
  /// fires, every sink is ended with the steps completed (streams
  /// flush, totals close), then otem::SimCancelled is thrown.
  /// Default-constructed = never stops (one pointer test per step).
  exec::StopToken stop;
};

/// The one closed-loop step loop: the constructor begins a mission,
/// step() runs one control period, finish() ends it.
class MissionStepper {
 public:
  /// Resets `methodology` from `initial` with `forecast` (non-empty) as
  /// P_hat_e and begins `sinks`; both are borrowed and must outlive it.
  MissionStepper(const core::SystemSpec& spec,
                 core::Methodology& methodology, const TimeSeries& forecast,
                 const core::PlantState& initial,
                 const std::vector<StepSink*>& sinks);

  /// Serve `p_e_w` for one period and push the sample through the sinks.
  core::StepRecord step(double p_e_w);
  /// End every sink with the steps completed so far; idempotent.
  void finish();

  size_t steps_done() const { return k_; }

 private:
  core::Methodology& methodology_;
  core::TebMetric teb_;
  double dt_;
  core::PlantState state_;
  std::vector<StepSink*> every_step_, eventful_only_;
  bool want_teb_ = false, tracing_ = false, finished_ = false;
  size_t timing_stride_ = 0;
  size_t next_timed_;  ///< next timed k; SIZE_MAX when untimed
  size_t k_ = 0;
  double qloss_cum_ = 0.0;
};

class Simulator {
 public:
  explicit Simulator(const core::SystemSpec& spec);

  /// Run `methodology` over the power-request trace. Wrapper over
  /// run_with_sinks(): a MetricsAccumulator plus, when
  /// options.record_trace, a TraceRecorder, ahead of `extra_sinks`.
  RunResult run(core::Methodology& methodology,
                const TimeSeries& power_request,
                const RunOptions& options = {},
                const std::vector<StepSink*>& extra_sinks = {}) const;

  /// Drive a MissionStepper over the whole trace, pushing every step
  /// through `sinks` (all non-null, caller-owned). options.record_trace
  /// is ignored here — attach a TraceRecorder instead.
  void run_with_sinks(core::Methodology& methodology,
                      const TimeSeries& power_request,
                      const RunOptions& options,
                      const std::vector<StepSink*>& sinks) const;

 private:
  core::SystemSpec spec_;
};

}  // namespace otem::sim
