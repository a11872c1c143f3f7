// perf_campaign — google-benchmark timings for the campaign engine:
// campaign::run_campaign wall-clock at increasing thread counts
// (BM_Campaign/N), the same campaign with a metrics registry attached
// so every scenario feeds the shared sim.*/solver.* instruments
// (BM_CampaignMetrics) and with the span tracer enabled on top
// (BM_CampaignTraced) — both held to the <5 % overhead budget CI
// enforces via bench/check_overhead.py — and the obs primitives
// themselves (counter add, histogram record, scoped timer).
// bench/run_benchmarks.sh wraps this binary and emits
// BENCH_campaign.json so successive changes have a perf trajectory to
// regress against.
#include <benchmark/benchmark.h>

#include "campaign/grid.h"
#include "campaign/runner.h"
#include "obs/metrics.h"
#include "obs/sketch.h"
#include "obs/timer.h"
#include "obs/trace.h"

namespace {

using namespace otem;

/// 16 seeded synthetic routes x `parallel`. Shorter missions than the
/// deployment default keep one benchmark iteration in the
/// milliseconds; each scenario is still a full closed-loop
/// thermal/electrical simulation.
campaign::Grid grid() {
  campaign::Grid g;
  g.methodologies = {"parallel"};
  g.synthetic_routes = 16;
  g.min_duration_s = 200.0;
  g.max_duration_s = 500.0;
  g.soe0_min = 40.0;
  g.soe0_max = 100.0;
  g.seed = 7;
  return g;
}

double run(const campaign::Grid& g, size_t threads,
           obs::MetricsRegistry* metrics) {
  static const Config cfg;
  static const core::SystemSpec spec = core::SystemSpec::from_config(cfg);
  campaign::CampaignOptions options;
  options.threads = threads;
  options.metrics = metrics;
  const campaign::CampaignOutcome outcome =
      campaign::run_campaign(g, spec, cfg, options);
  return outcome.summary.find("scenarios")->as_number();
}

/// The bare campaign at a given worker count; the summary is
/// byte-identical across counts by construction (index-order commits).
void BM_Campaign(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  const campaign::Grid g = grid();
  for (auto _ : state) benchmark::DoNotOptimize(run(g, threads, nullptr));
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_Campaign)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// The same campaign with a registry attached: every scenario's
/// DiagnosticsSink writes the shared sim.*/solver.* bundle
/// concurrently, step-loop timing is on, and scenario wall times go
/// into the campaign.scenario_us sketch. CI compares this against
/// BM_Campaign at the same thread count and fails when the overhead
/// exceeds 5 %.
void BM_CampaignMetrics(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  const campaign::Grid g = grid();
  obs::MetricsRegistry registry;
  for (auto _ : state) benchmark::DoNotOptimize(run(g, threads, &registry));
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["steps_instrumented"] = static_cast<double>(
      registry.snapshot().counters.at("sim.steps"));
}
BENCHMARK(BM_CampaignMetrics)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// The same campaign with the span tracer live on top of the metrics
/// layer: every scenario records scenario.run / sim.run / sim.step
/// spans into its thread's flight-recorder ring. CI holds this to the
/// same <5 % budget against BM_Campaign (bench/check_overhead.py) — the
/// cost of leaving the tracer ENABLED, not just compiled in.
void BM_CampaignTraced(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  const campaign::Grid g = grid();
  obs::MetricsRegistry registry;
  obs::set_trace_enabled(true);
  for (auto _ : state) benchmark::DoNotOptimize(run(g, threads, &registry));
  obs::set_trace_enabled(false);
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["spans_in_rings"] =
      static_cast<double>(obs::TraceCollector().collect().size());
  obs::trace_reset();
}
BENCHMARK(BM_CampaignTraced)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// --- obs primitives ----------------------------------------------------
// The per-event costs underlying the campaign overhead: a sharded counter
// add, a histogram record (binary search + 5 atomics), and the scoped
// timer's two clock reads. The *Disabled variants measure the kill
// switch (one relaxed load, no clock).

void BM_ObsCounterAdd(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Counter& c = registry.counter("bench.counter");
  for (auto _ : state) c.add();
  benchmark::DoNotOptimize(c.value());
}
BENCHMARK(BM_ObsCounterAdd);

void BM_ObsHistogramRecord(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Histogram& h =
      registry.histogram("bench.hist", obs::latency_buckets_us());
  double v = 1.0;
  for (auto _ : state) {
    h.record(v);
    v = v < 1e6 ? v * 1.7 : 1.0;
  }
}
BENCHMARK(BM_ObsHistogramRecord);

void BM_ObsScopedTimer(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Histogram& h =
      registry.histogram("bench.timer", obs::latency_buckets_us());
  for (auto _ : state) {
    const obs::ScopedTimer t(h);
    benchmark::DoNotOptimize(&t);
  }
}
BENCHMARK(BM_ObsScopedTimer);

void BM_ObsSketchRecord(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Sketch& s = registry.sketch("bench.sketch");
  double v = 1.0;
  for (auto _ : state) {
    s.record(v);
    v = v < 1e6 ? v * 1.7 : 1.0;
  }
}
BENCHMARK(BM_ObsSketchRecord);

void BM_TraceSpanEnabled(benchmark::State& state) {
  obs::set_trace_enabled(true);
  for (auto _ : state) {
    const obs::TraceSpan span("bench.span");
    benchmark::DoNotOptimize(&span);
  }
  obs::set_trace_enabled(false);
  obs::trace_reset();
}
BENCHMARK(BM_TraceSpanEnabled);

void BM_TraceSpanDisabled(benchmark::State& state) {
  for (auto _ : state) {
    const obs::TraceSpan span("bench.span_off");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_TraceSpanDisabled);

void BM_ObsScopedTimerDisabled(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Histogram& h =
      registry.histogram("bench.timer_off", obs::latency_buckets_us());
  obs::set_enabled(false);
  for (auto _ : state) {
    const obs::ScopedTimer t(h);
    benchmark::DoNotOptimize(&t);
  }
  obs::set_enabled(true);
}
BENCHMARK(BM_ObsScopedTimerDisabled);

}  // namespace

int main(int argc, char** argv) {
  // Same stamp as perf_solver: how THIS repo was compiled, which the
  // bench/check_*.py gates require to be "release" (the stock
  // library_build_type key only describes the benchmark library).
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
