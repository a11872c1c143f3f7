// campaign_reactive.cpp — the campaign-reactive workload and the campaign
// layer probe.
//
// campaign::run_campaign at threads=3 over seeded synthetic routes ×
// {parallel, dual, active_cooling} × uc_scales {0.5, 1, 2}. No solver
// runs, so the plant models, the exec pool and the ordered committer
// bound it. Campaigns of kRoutesPerRep routes repeat with fresh grid
// seeds until the measuring time is spent. After each campaign the
// first kSingleChunk scenarios of its grid are timed one by one on this
// thread (Grid::at(i) + run_scenario) and set-up is sampled, so every
// figure spreads over the same stretch of host time.
#include "campaign/grid.h"
#include "campaign/runner.h"
#include "common/error.h"
#include "core/methodology_registry.h"
#include "layers.h"
#include "obs/trace.h"
#include "sim/scenario.h"
#include "trace_capture.h"

namespace otembench {

namespace campaign = otem::campaign;
namespace sim = otem::sim;
using otem::Json;

namespace {

constexpr size_t kThreads = 3;
constexpr size_t kRoutesPerRep = 200;  ///< × 9 = 1800 scenarios per campaign
constexpr size_t kProbeRoutes = 40;
constexpr size_t kPrefixRoutes = 20;   ///< thread-invariance check grid
/// Campaigns per run, at least; the quality means cover exactly these
/// (their grids depend on the seed only).
constexpr size_t kQualityReps = 16;
constexpr size_t kSingleChunk = 200;   ///< single-thread scenarios per campaign
constexpr size_t kSimScenarios = 30;   ///< scenarios timed step by step
constexpr size_t kSetupReps = 8;       ///< set-up samples per campaign

otem::Config grid_config(std::uint64_t seed, size_t rep, size_t routes) {
  otem::Config cfg;
  cfg.set("campaign.methods", "parallel,dual,active_cooling");
  cfg.set("campaign.synthetic_routes", std::to_string(routes));
  cfg.set("campaign.uc_scales", "0.5,1,2");
  cfg.set("campaign.seed", std::to_string(derive_seed(seed, rep)));
  return cfg;
}

campaign::Grid make_grid(const otem::Config& cfg) {
  campaign::Grid grid = campaign::Grid::from_config(cfg);
  grid.validate();
  return grid;
}

/// Weighted means of one summary's per-methodology group means.
struct Quality {
  double qloss = 0, power_kw = 0, cooling_kwh = 0;
  bool finite = true;
};

Quality summary_quality(const Json& summary) {
  Quality q;
  double n = 0;
  const Json* groups = summary.find("groups");
  if (groups == nullptr) return {0, 0, 0, false};
  for (const auto& [name, g] : groups->members()) {
    const Json* count = g.find("scenarios");
    const Json* metrics = g.find("metrics");
    const auto mean_of = [&](const char* dim) {
      const Json* d = metrics ? metrics->find(dim) : nullptr;
      const Json* m = d ? d->find("mean") : nullptr;
      return m && m->is_number() ? m->as_number() : std::nan("");
    };
    const double c = count && count->is_number() ? count->as_number() : 0.0;
    q.qloss += c * mean_of("qloss_percent");
    q.power_kw += c * mean_of("average_power_w") / 1e3;
    q.cooling_kwh += c * mean_of("energy_cooling_j") / 3.6e6;
    n += c;
  }
  q.qloss /= n;
  q.power_kw /= n;
  q.cooling_kwh /= n;
  q.finite = n > 0 && finite_all({q.qloss, q.power_kw, q.cooling_kwh});
  return q;
}

struct Rep {
  double wall_s = 0.0;
  size_t scenarios = 0;
  Quality quality;
  std::string summary_text;  ///< kept only when asked for
};

Rep run_rep(std::uint64_t seed, size_t rep, size_t routes, size_t threads,
            bool keep_text = false) {
  const otem::Config cfg = grid_config(seed, rep, routes);
  const campaign::Grid grid = make_grid(cfg);
  const otem::core::SystemSpec spec = otem::core::SystemSpec::from_config(cfg);
  campaign::CampaignOptions o;
  o.threads = threads;
  Rep r;
  r.scenarios = grid.size();
  campaign::CampaignOutcome outcome;
  const double t0 = now_s();
  {
    const otem::obs::TraceSpan span("bench.campaign");
    outcome = campaign::run_campaign(grid, spec, cfg, o);
  }
  r.wall_s = now_s() - t0;
  r.quality = summary_quality(outcome.summary);
  if (keep_text) r.summary_text = std::move(outcome.summary_text);
  return r;
}

/// Scenario `i` of `grid` exactly as the local campaign runner executes
/// it, with optional extra sinks.
sim::ScenarioOutcome run_spec(const campaign::ScenarioSpec& s,
                              const otem::core::SystemSpec& base,
                              const otem::Config& cfg,
                              const std::vector<sim::StepSink*>& sinks) {
  otem::core::SystemSpec spec =
      base.with_ultracap_size(base.ultracap.capacitance_f * s.uc_scale);
  spec.ambient_k = s.ambient_k;
  sim::Scenario sc;
  sc.methodology = s.methodology;
  sc.synthetic = true;
  sc.synthetic_seed = s.route_seed;
  sc.synthetic_duration_s = s.duration_s;
  sc.synthetic_max_speed_mps = s.max_speed_mps;
  sc.ambient_k = s.ambient_k;
  sc.soak = true;
  sc.initial.soe_percent = s.soe0;
  sc.record_trace = false;
  return sim::run_scenario(sc, spec, cfg, sinks);
}

struct SinglePass {
  std::vector<double> scenario_us;
  std::vector<double> chunk_rates;  ///< scenarios/s of each chunk
  size_t nonfinite = 0;
};

/// Grid::at(i) + run_scenario on this thread for the first `count`
/// scenarios of campaign `rep`'s grid.
void single_thread_chunk(std::uint64_t seed, size_t rep, size_t routes,
                         size_t count, SinglePass& p) {
  const otem::Config cfg = grid_config(seed, rep, routes);
  const campaign::Grid grid = make_grid(cfg);
  const otem::core::SystemSpec base = otem::core::SystemSpec::from_config(cfg);
  const size_t n = std::min(count, grid.size());
  double chunk_us = 0;
  for (size_t i = 0; i < n; ++i) {
    const double t0 = otem::obs::now_us();
    const campaign::ScenarioSpec s = grid.at(i);
    const sim::RunResult r = run_spec(s, base, cfg, {}).result;
    p.scenario_us.push_back(otem::obs::now_us() - t0);
    chunk_us += p.scenario_us.back();
    if (!finite_all({r.qloss_percent, r.average_power_w, r.energy_cooling_j,
                     r.max_t_battery_k}))
      ++p.nonfinite;
  }
  p.chunk_rates.push_back(static_cast<double>(n) / (chunk_us * 1e-6));
}

double setup_once(std::uint64_t seed, size_t rep) {
  const double t0 = now_s();
  const otem::Config cfg = grid_config(seed, rep, kRoutesPerRep);
  const campaign::Grid grid = make_grid(cfg);
  const std::string fingerprint = grid.fingerprint();
  const otem::core::SystemSpec spec = otem::core::SystemSpec::from_config(cfg);
  for (const std::string& m : grid.methodologies)
    (void)otem::core::make_methodology(m, spec, cfg);
  OTEM_REQUIRE(!fingerprint.empty(), "empty grid fingerprint");
  return now_s() - t0;
}

/// The ordered committer's contract: the same prefix grid gives
/// byte-identical summaries at threads=1 and threads=3.
void check_prefix(std::uint64_t seed, Output& out) {
  const Rep one = run_rep(seed, 0, kPrefixRoutes, 1, true);
  const Rep three = run_rep(seed, 0, kPrefixRoutes, kThreads, true);
  out.attempted += one.scenarios + three.scenarios;
  const bool same = !one.summary_text.empty() &&
                    one.summary_text == three.summary_text;
  out.check("campaign.summary_identical_threads_1_vs_3", same,
            same ? "" : "summaries differ");
}

/// Campaigns at threads=3 with fresh grid seeds until `seconds` is spent
/// (at least `min_reps`). When `single` / `setup_s` are given, each
/// campaign is followed by a single-thread chunk and kSetupReps set-up
/// samples, so all three figures see the same stretch of host time.
std::vector<Rep> timed_reps(std::uint64_t seed, size_t routes, double seconds,
                            size_t min_reps, SinglePass* single = nullptr,
                            std::vector<double>* setup_s = nullptr) {
  std::vector<Rep> reps;
  const double t0 = now_s();
  while (reps.size() < min_reps || now_s() - t0 < seconds) {
    const size_t rep = reps.size();
    reps.push_back(run_rep(seed, rep, routes, kThreads));
    if (single) single_thread_chunk(seed, rep, routes, kSingleChunk, *single);
    if (setup_s)
      for (size_t i = 0; i < kSetupReps; ++i)
        setup_s->push_back(setup_once(seed, rep));
  }
  return reps;
}

double median_rate(const std::vector<Rep>& reps) {
  std::vector<double> rates;
  for (const Rep& r : reps)
    rates.push_back(static_cast<double>(r.scenarios) / r.wall_s);
  return median(rates);
}

void tally(const std::vector<Rep>& reps, Output& out) {
  for (const Rep& r : reps) {
    out.attempted += r.scenarios;
    out.check("campaign.summary_finite", r.quality.finite, "");
  }
}

/// campaign.* per-layer metrics plus the sim.* step timings.
void emit_campaign_layers(std::uint64_t seed, size_t routes, double rate_3t,
                          const SinglePass& single, Output& out) {
  const double rate_1t = median(single.chunk_rates);
  out.set("campaign.scenario_us.p50", quantile(single.scenario_us, 0.50), "us");
  out.set("campaign.scenario_us.p99", quantile(single.scenario_us, 0.99), "us");
  out.set("campaign.scenarios_per_s_1t", rate_1t, "1/s");
  out.set("campaign.scenarios_per_s_3t", rate_3t, "1/s");
  // Σ scenario time ÷ (threads × wall), with the scenario time taken
  // from the single-thread rate.
  out.set("campaign.parallel_efficiency",
          rate_3t / (static_cast<double>(kThreads) * rate_1t), "ratio");

  const otem::Config cfg = grid_config(seed, 0, routes);
  const campaign::Grid grid = make_grid(cfg);
  const otem::core::SystemSpec base = otem::core::SystemSpec::from_config(cfg);
  StepClock clock;
  double steps = 0, step_us = 0;
  std::vector<double> intervals;
  for (size_t i = 0; i < std::min(kSimScenarios, grid.size()); ++i) {
    clock.interval_us.clear();
    (void)run_spec(grid.at(i), base, cfg, {&clock});
    for (double us : clock.interval_us) step_us += us;
    steps += static_cast<double>(clock.interval_us.size());
    intervals.insert(intervals.end(), clock.interval_us.begin(),
                     clock.interval_us.end());
  }
  out.set("sim.step_ns.p50", median(intervals) * 1e3, "ns");
  out.set("sim.steps_per_s_1t", steps / (step_us * 1e-6), "1/s");
}

/// Route power-trace build time over the first campaign's routes
/// (vehicle layer).
void emit_power_trace_time(std::uint64_t seed, Output& out) {
  const otem::Config cfg = grid_config(seed, 0, kRoutesPerRep);
  const campaign::Grid grid = make_grid(cfg);
  const otem::core::SystemSpec spec = otem::core::SystemSpec::from_config(cfg);
  const size_t per_route = grid.methodologies.size() * grid.uc_scales.size();
  std::vector<double> ms;
  for (size_t route = 0; route < 20; ++route) {
    const campaign::ScenarioSpec s = grid.at(route * per_route);
    sim::Scenario sc;
    sc.synthetic = true;
    sc.synthetic_seed = s.route_seed;
    sc.synthetic_duration_s = s.duration_s;
    sc.synthetic_max_speed_mps = s.max_speed_mps;
    const double t0 = now_s();
    (void)sim::scenario_power_trace(sc, spec);
    ms.push_back((now_s() - t0) * 1e3);
  }
  out.set("vehicle.power_trace_ms", median(ms), "ms");
}

}  // namespace

void run_campaign_reactive(const Options& opts, Output& out) {
  (void)setup_once(opts.seed, 0);  // warm-up: lazy registries, first touch
  check_prefix(opts.seed, out);
  std::vector<Rep> reps;
  SinglePass single;
  std::vector<double> setup_s;
  if (!opts.trace) {
    reps = timed_reps(opts.seed, kRoutesPerRep, opts.seconds, kQualityReps,
                      &single, &setup_s);
    // Single-thread throughput: at threads=3 on a shared 4-CPU host the
    // rate swung 4.2k-9.0k scenarios/s between runs with the neighbours'
    // load, so the threads=3 figure is reported per layer instead.
    out.set("op_p50_us", quantile(single.scenario_us, 0.50), "us");
    out.set("ops_per_s", median(single.chunk_rates), "1/s");
  } else {
    // Untraced and traced campaigns; the rate gap is the tracing
    // overhead.
    reps = timed_reps(opts.seed, kRoutesPerRep, 0.5 * opts.seconds,
                      kQualityReps, &single, &setup_s);
    TraceCapture capture;
    capture.start();
    const std::vector<Rep> traced =
        timed_reps(opts.seed, kRoutesPerRep, 0.25 * opts.seconds, 1);
    SpanProfile& p = out.profile;
    p.spans = capture.stop();
    double worker_self = 0;
    for (const auto& [name, t] : p.spans)
      if (name != "bench.campaign") worker_self += t.self_us;
    for (const Rep& r : traced) {
      p.denom_us += static_cast<double>(kThreads) * r.wall_s * 1e6;
      p.steps += static_cast<double>(r.scenarios);
    }
    // The main thread only waits inside bench.campaign; the worker
    // time no scenario span covers (route build, Grid::at, commit,
    // idle) is the campaign/exec layer's.
    p.spans["bench.campaign"].self_us = std::max(0.0, p.denom_us - worker_self);
    p.denom_label = "threads x campaign wall (steps = scenarios)";
    const double rate_plain = median_rate(reps);
    out.set("obs.trace_overhead_pct",
            100.0 * (rate_plain / median_rate(traced) - 1.0), "%");
    tally(traced, out);
    emit_campaign_layers(opts.seed, kRoutesPerRep, rate_plain, single, out);
    out.set("op_p99_us", quantile(single.scenario_us, 0.99), "us");
    emit_power_trace_time(opts.seed, out);
  }
  out.set("setup_s", median(setup_s), "s");
  out.attempted += single.scenario_us.size() + setup_s.size();
  out.check("campaign.single_thread_finite", single.nonfinite == 0,
            std::to_string(single.nonfinite) + " non-finite results");
  tally(reps, out);

  // Quality over the first kQualityReps campaigns (equal sizes, so the
  // mean of their means is the mean over their scenarios).
  std::vector<double> qloss, power, cooling;
  for (size_t i = 0; i < kQualityReps; ++i) {
    qloss.push_back(reps[i].quality.qloss);
    power.push_back(reps[i].quality.power_kw);
    cooling.push_back(reps[i].quality.cooling_kwh);
  }
  out.set("qloss_pct", mean(qloss), "%");
  out.set("hees_avg_power_kw", mean(power), "kW");
  out.set("cooling_kwh", mean(cooling), "kWh");
  Json d = Json::object();
  d.set("campaigns", static_cast<double>(reps.size()));
  d.set("scenarios_per_campaign", static_cast<double>(reps.front().scenarios));
  Json rates = Json::array();
  for (const Rep& r : reps) rates.push(static_cast<double>(r.scenarios) / r.wall_s);
  d.set("scenarios_per_s_each", std::move(rates));
  out.detail.set("campaign", std::move(d));
}

void probe_campaign_layers(const Options& opts, Output& out) {
  SinglePass single;
  const std::vector<Rep> reps =
      timed_reps(opts.seed, kProbeRoutes, 0.0, 2, &single);
  tally(reps, out);
  out.attempted += single.scenario_us.size();
  out.check("campaign.single_thread_finite", single.nonfinite == 0, "");
  emit_campaign_layers(opts.seed, kProbeRoutes, median_rate(reps), single, out);
}

}  // namespace otembench
