// perf_fleet — google-benchmark timings for the execution subsystem:
// fleet evaluation wall-clock at increasing thread counts (serial
// baseline at threads=1), the same fleet with full instrumentation
// attached (BM_FleetEvaluateMetrics) and with the span tracer enabled
// on top (BM_FleetEvaluateTraced) — both held to the <5 % overhead
// budget CI enforces via bench/check_overhead.py — and the obs
// primitives themselves (counter add, histogram record, scoped timer).
// bench/run_benchmarks.sh wraps this binary and emits BENCH_fleet.json
// so successive PRs have a perf trajectory to regress against.
#include <benchmark/benchmark.h>

#include <memory>

#include "core/parallel_methodology.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/sketch.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "sim/fleet.h"

namespace {

using namespace otem;

core::SystemSpec spec() { return core::SystemSpec::from_config(Config()); }

sim::FleetOptions fleet_options(size_t threads) {
  sim::FleetOptions f;  // default 16-mission fleet
  f.seed = 7;
  f.threads = threads;
  // Shorter missions than the deployment default keep one benchmark
  // iteration in the hundreds-of-ms range; the per-mission work is
  // still a full closed-loop thermal/electrical simulation.
  f.min_duration_s = 200.0;
  f.max_duration_s = 500.0;
  return f;
}

auto parallel_factory() {
  return [](const core::SystemSpec& s) {
    return std::make_unique<core::ParallelMethodology>(s);
  };
}

/// evaluate_fleet at a given execution width. threads=1 is the serial
/// fallback path (no pool, no locks); results are bit-identical across
/// widths by construction (pre-drawn mission conditions).
void BM_FleetEvaluate(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  const core::SystemSpec base = spec();
  const sim::FleetOptions options = fleet_options(threads);
  for (auto _ : state) {
    const sim::FleetResult r =
        sim::evaluate_fleet(base, parallel_factory(), options);
    benchmark::DoNotOptimize(r.qloss_percent.mean);
  }
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_FleetEvaluate)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// The same fleet with the instrumentation layer fully attached: a
/// shared fleet-aggregate MetricsRegistry written concurrently by all
/// missions (DiagnosticsSink per mission), step-loop timing on. CI
/// compares this against BM_FleetEvaluate at the same thread count and
/// fails when the overhead exceeds 5 %.
void BM_FleetEvaluateMetrics(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  const core::SystemSpec base = spec();
  obs::MetricsRegistry registry;
  sim::FleetOptions options = fleet_options(threads);
  options.metrics = &registry;
  for (auto _ : state) {
    const sim::FleetResult r =
        sim::evaluate_fleet(base, parallel_factory(), options);
    benchmark::DoNotOptimize(r.qloss_percent.mean);
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["steps_instrumented"] = static_cast<double>(
      registry.snapshot().counters.at("fleet.sim.steps"));
}
BENCHMARK(BM_FleetEvaluateMetrics)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// The same fleet with the span tracer live on top of the metrics
/// layer: every mission records fleet.mission / sim.run / sim.step
/// spans into its thread's flight-recorder ring. CI compares this
/// against BM_FleetEvaluate at the same thread count under the same
/// <5 % budget (bench/check_overhead.py) — the cost of leaving the
/// tracer ENABLED, not just compiled in.
void BM_FleetEvaluateTraced(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  const core::SystemSpec base = spec();
  obs::MetricsRegistry registry;
  sim::FleetOptions options = fleet_options(threads);
  options.metrics = &registry;
  obs::set_trace_enabled(true);
  for (auto _ : state) {
    const sim::FleetResult r =
        sim::evaluate_fleet(base, parallel_factory(), options);
    benchmark::DoNotOptimize(r.qloss_percent.mean);
  }
  obs::set_trace_enabled(false);
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["spans_in_rings"] =
      static_cast<double>(obs::TraceCollector().collect().size());
  obs::trace_reset();
}
BENCHMARK(BM_FleetEvaluateTraced)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// The batched counterpart: each worker owns one PlantBatch stepping
/// `lanes` missions in lockstep through the SoA plant kernels. Results
/// are bit-identical to BM_FleetEvaluate's (tests/test_plant_batch.cpp
/// pins that); this measures the throughput the lockstep layout buys.
void BM_FleetEvaluateBatch(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  const size_t lanes = static_cast<size_t>(state.range(1));
  const core::SystemSpec base = spec();
  sim::FleetOptions options = fleet_options(threads);
  options.batch_lanes = lanes;
  const auto factory = [](const core::SystemSpec& s, size_t n) {
    return core::make_batch_methodology("parallel", s, n);
  };
  for (auto _ : state) {
    const sim::FleetResult r =
        sim::evaluate_fleet_batched(base, factory, options);
    benchmark::DoNotOptimize(r.qloss_percent.mean);
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["lanes"] = static_cast<double>(lanes);
}
BENCHMARK(BM_FleetEvaluateBatch)
    ->Args({1, 16})
    ->Args({2, 8})
    ->Args({4, 4})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// --- obs primitives ----------------------------------------------------
// The per-event costs underlying the fleet overhead: a sharded counter
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
