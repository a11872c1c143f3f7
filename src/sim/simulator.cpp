#include "sim/simulator.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "sim/step_sink.h"

namespace otem::sim {

MissionStepper::MissionStepper(const core::SystemSpec& spec,
                               core::Methodology& methodology,
                               const TimeSeries& forecast,
                               const core::PlantState& initial,
                               const std::vector<StepSink*>& sinks)
    : methodology_(methodology),
      teb_(spec),
      dt_(forecast.dt()),
      state_(initial) {
  OTEM_REQUIRE(!forecast.empty(), "empty power request trace");
  for (StepSink* sink : sinks)
    OTEM_REQUIRE(sink != nullptr, "null step sink attached");
  methodology_.reset(state_, forecast);

  const RunContext ctx{spec, dt_, forecast.size(), initial};
  for (StepSink* sink : sinks) sink->begin(ctx);

  // TEB costs a model evaluation per step; skip it unless some sink
  // actually consumes it (the trace/CSV sinks do, metrics does not).
  want_teb_ = std::any_of(sinks.begin(), sinks.end(),
                          [](const StepSink* s) { return s->wants_teb(); });
  // Step timing is SAMPLED at the gcd of the sinks' strides (0 = none):
  // two clock reads rival a reactive baseline's whole step.
  if (obs::enabled()) {
    for (const StepSink* sink : sinks) {
      const size_t s = sink->timing_stride();
      if (s) timing_stride_ = timing_stride_ ? std::gcd(timing_stride_, s) : s;
    }
  }
  // Tracing reuses the sampled timings as sim.step spans; with no sink
  // asking for timing it samples at the diagnostics stride.
  tracing_ = obs::trace_enabled();
  constexpr size_t kTraceStepStride = 64;
  if (tracing_ && timing_stride_ == 0) timing_stride_ = kTraceStepStride;
  // next_timed_ tracks the multiples of timing_stride_ without a
  // per-step modulo (a runtime-divisor div in the hottest loop).
  next_timed_ = timing_stride_ ? 0 : std::numeric_limits<size_t>::max();

  // Diagnostics sinks only want EVENTFUL samples; splitting the chain
  // once here keeps the per-step loop free of per-sink predicates.
  for (StepSink* sink : sinks)
    (sink->eventful_samples_only() ? eventful_only_ : every_step_)
        .push_back(sink);
}

core::StepRecord MissionStepper::step(double p_e_w) {
  const size_t k = k_;
  const bool timed = k == next_timed_;
  if (timed) next_timed_ += timing_stride_;
  const double t0 = timed ? obs::now_us() : 0.0;
  core::StepRecord rec = methodology_.step(state_, p_e_w, k, dt_);
  const double step_us = timed ? obs::now_us() - t0 : 0.0;
  if (timed && tracing_) obs::trace_emit("sim.step", t0, step_us);
  qloss_cum_ += rec.qloss_percent;
  k_ = k + 1;
  const double teb = want_teb_ ? teb_.evaluate(state_).combined()
                               : std::numeric_limits<double>::quiet_NaN();
  const StepSample sample{k, rec, state_, qloss_cum_, teb, step_us};
  for (StepSink* sink : every_step_) sink->record(sample);
  if (!eventful_only_.empty() &&
      (timed || !rec.feasible || rec.solve.present))
    for (StepSink* sink : eventful_only_) sink->record(sample);
  return rec;
}

void MissionStepper::finish() {
  if (finished_) return;
  finished_ = true;
  const RunEnd run{state_, k_, qloss_cum_};
  for (StepSink* sink : every_step_) sink->end(run);
  for (StepSink* sink : eventful_only_) sink->end(run);
}

Simulator::Simulator(const core::SystemSpec& spec) : spec_(spec) {}

RunResult Simulator::run(core::Methodology& methodology,
                         const TimeSeries& power_request,
                         const RunOptions& options,
                         const std::vector<StepSink*>& extra_sinks) const {
  MetricsAccumulator metrics;
  TraceRecorder trace;
  std::vector<StepSink*> sinks{&metrics};
  if (options.record_trace) sinks.push_back(&trace);
  sinks.insert(sinks.end(), extra_sinks.begin(), extra_sinks.end());
  run_with_sinks(methodology, power_request, options, sinks);
  RunResult result = metrics.take();
  if (options.record_trace) result.trace = trace.take();
  return result;
}

void Simulator::run_with_sinks(core::Methodology& methodology,
                               const TimeSeries& power_request,
                               const RunOptions& options,
                               const std::vector<StepSink*>& sinks) const {
  MissionStepper stepper(spec_, methodology, power_request, options.initial,
                         sinks);
  const obs::TraceSpan run_span("sim.run");
  const size_t steps = power_request.size();
  for (size_t k = 0; k < steps; ++k) {
    if (options.stop.stop_requested()) {
      // Cooperative cancellation: finalize every sink with the state as
      // of the last completed step, so streams close and totals are
      // consistent (just short), THEN report the abandonment.
      stepper.finish();
      throw SimCancelled(std::string(options.stop.deadline_expired()
                                         ? "simulation deadline expired"
                                         : "simulation cancelled") +
                         " at step " + std::to_string(k) + "/" +
                         std::to_string(steps));
    }
    stepper.step(power_request[k]);
  }
  stepper.finish();
}

}  // namespace otem::sim
