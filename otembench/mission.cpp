// mission.cpp — the mission-us06 workload and the mission layer probe.
//
// Full US06 missions in-process on one thread, one per controller
// configuration: `otem` (shooting NLP), `otem-ltv` (3 SQP rounds, eps
// 1e-2), `otem-ltv` RTI (1 round, eps 0.2) and `parallel`, the paper's
// reactive quality reference. A set of the four repeats until the
// measuring time is spent; every set runs identical inputs, so the
// reports must repeat bit for bit. The seed draws the ambient
// temperature within ±0.1 K of the spec default (the quality means move
// about 5% per ±0.5 K, which would swamp their seed-to-seed spread). In the untraced run the
// thread is pinned to the CPU it starts on, so the scheduler does not
// migrate the single-threaded missions mid-measurement.
#include <sched.h>

#include "common/error.h"
#include "core/methodology_registry.h"
#include "layers.h"
#include "obs/trace.h"
#include "sim/report.h"
#include "sim/scenario.h"
#include "trace_capture.h"

namespace otembench {

namespace sim = otem::sim;
using otem::Json;

namespace {

constexpr size_t kMinSets = 2;
constexpr size_t kSetupReps = 5;  ///< set-up samples before each set

/// Pins the calling thread to the CPU it runs on; restores on exit.
class PinToCurrentCpu {
 public:
  PinToCurrentCpu() {
    const int cpu = sched_getcpu();
    if (cpu < 0 || sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~PinToCurrentCpu() {
    if (pinned_) (void)sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinToCurrentCpu(const PinToCurrentCpu&) = delete;
  PinToCurrentCpu& operator=(const PinToCurrentCpu&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

struct MissionConfig {
  const char* name;
  std::vector<std::pair<std::string, std::string>> overrides;
  bool solver;  ///< counted in the step-latency pool
};

const std::vector<MissionConfig>& configs() {
  static const std::vector<MissionConfig> c{
      {"otem", {{"method", "otem"}}, true},
      {"otem-ltv", {{"method", "otem-ltv"}}, true},
      {"otem-ltv-rti",
       {{"method", "otem-ltv"},
        {"ltv.sqp_iterations", "1"},
        {"ltv.qp.eps", "0.2"}},
       true},
      {"parallel", {{"method", "parallel"}}, false},
  };
  return c;
}

double ambient_k(std::uint64_t seed) {
  const double base = otem::core::SystemSpec::from_config(otem::Config()).ambient_k;
  return base + 0.2 * (unit_draw(seed, 0) - 0.5);
}

otem::Config make_config(const MissionConfig& mc, double ambient) {
  otem::Config cfg;
  cfg.set("cycle", "US06");
  cfg.set("ambient_k", ambient);
  for (const auto& [k, v] : mc.overrides) cfg.set(k, v);
  return cfg;
}

struct ConfigRun {
  double wall_s = 0.0;
  StepClock clock;
  sim::RunResult result;
};

using MissionSet = std::vector<ConfigRun>;

MissionSet run_set(double ambient) {
  MissionSet set(configs().size());
  for (size_t i = 0; i < configs().size(); ++i) {
    const otem::Config cfg = make_config(configs()[i], ambient);
    sim::Scenario sc = sim::Scenario::from_config(cfg);
    sc.record_trace = false;
    const otem::core::SystemSpec spec = otem::core::SystemSpec::from_config(cfg);
    const double t0 = now_s();
    {
      const otem::obs::TraceSpan span("bench.mission");
      set[i].result = sim::run_scenario(sc, spec, cfg, {&set[i].clock}).result;
    }
    set[i].wall_s = now_s() - t0;
  }
  return set;
}

/// Spec, scenario, route power trace and one reset controller per
/// configuration — everything before the first mission step.
double measure_setup(double ambient) {
  const double t0 = now_s();
  for (const MissionConfig& mc : configs()) {
    const otem::Config cfg = make_config(mc, ambient);
    const sim::Scenario sc = sim::Scenario::from_config(cfg);
    const otem::core::SystemSpec spec = otem::core::SystemSpec::from_config(cfg);
    const otem::TimeSeries power = sim::scenario_power_trace(sc, spec);
    auto methodology = otem::core::make_methodology(sc.methodology, spec, cfg);
    methodology->reset(sc.initial, power);
  }
  return now_s() - t0;
}

bool result_finite(const sim::RunResult& r) {
  return finite_all({r.qloss_percent, r.energy_hees_j, r.energy_battery_j,
                     r.energy_cap_j, r.energy_cooling_j, r.energy_loss_j,
                     r.average_power_w, r.max_t_battery_k,
                     r.thermal_violation_s, r.unserved_energy_j});
}

size_t index_of(const char* name) {
  for (size_t i = 0; i < configs().size(); ++i)
    if (std::string(configs()[i].name) == name) return i;
  throw otem::SimError(std::string("unknown mission config ") + name);
}

void check_sets(const std::vector<MissionSet>& sets, Output& out) {
  const MissionSet& first = sets.front();
  for (size_t i = 0; i < configs().size(); ++i)
    out.check(std::string("mission.report_finite[") + configs()[i].name + "]",
              result_finite(first[i].result), "");
  // The paper's headline ordering, for the controller that is served.
  const double q_parallel = first[index_of("parallel")].result.qloss_percent;
  for (const char* name : {"otem-ltv", "otem-ltv-rti"}) {
    const double q = first[index_of(name)].result.qloss_percent;
    out.check(std::string("mission.qloss_below_parallel[") + name + "]",
              q < q_parallel,
              "qloss " + std::to_string(q) + "% vs parallel " +
                  std::to_string(q_parallel) + "%");
  }
  for (size_t s = 1; s < sets.size(); ++s)
    for (size_t i = 0; i < configs().size(); ++i) {
      const bool same =
          sim::run_result_to_hex_json(sets[s][i].result).dump(0) ==
          sim::run_result_to_hex_json(first[i].result).dump(0);
      out.check(std::string("mission.repeat_identical[") + configs()[i].name +
                    "]",
                same, same ? "" : "set " + std::to_string(s) + " differs");
    }
}

double set_wall(const MissionSet& set) {
  double w = 0.0;
  for (const ConfigRun& r : set) w += r.wall_s;
  return w;
}

double set_steps(const MissionSet& set) {
  double n = 0.0;
  for (const ConfigRun& r : set) n += static_cast<double>(r.clock.interval_us.size());
  return n;
}

/// Per-configuration mission walls (median over sets) and the
/// shooting NLP's iterations per step.
void emit_mission_layers(const std::vector<MissionSet>& sets, Output& out) {
  for (size_t i = 0; i < configs().size(); ++i) {
    std::vector<double> walls;
    for (const MissionSet& set : sets) walls.push_back(set[i].wall_s);
    out.set(std::string("mission.wall_s.") + configs()[i].name, median(walls),
            "s");
  }
  const SolveTally& shooting = sets.front()[index_of("otem")].clock.solves;
  out.set("controller.nlp_iterations_per_step",
          SolveTally::ratio(shooting.nlp_iterations, shooting.solver_steps),
          "count");
}

/// The step intervals of the solver configurations, pooled over sets.
std::vector<double> solver_step_us(const std::vector<MissionSet>& sets) {
  std::vector<double> step_us;
  for (const MissionSet& set : sets)
    for (size_t i = 0; i < configs().size(); ++i)
      if (configs()[i].solver)
        step_us.insert(step_us.end(), set[i].clock.interval_us.begin(),
                       set[i].clock.interval_us.end());
  return step_us;
}

}  // namespace

void run_mission_us06(const Options& opts, Output& out) {
  const double ambient = ambient_k(opts.seed);
  // Set-up samples are taken before every set, so their median spans
  // the run rather than one moment of it.
  std::vector<double> setup;
  const auto sample_setup = [&] {
    (void)measure_setup(ambient);  // warm-up
    for (size_t rep = 0; rep < kSetupReps; ++rep)
      setup.push_back(measure_setup(ambient));
  };

  std::vector<MissionSet> sets;
  if (!opts.trace) {
    const PinToCurrentCpu pin;
    const double t0 = now_s();
    while (sets.size() < kMinSets || now_s() - t0 < opts.seconds) {
      sample_setup();
      sets.push_back(run_set(ambient));
    }
    // Median over sets of each set's solver-config step rate.
    std::vector<double> rates;
    for (const MissionSet& set : sets) {
      double steps = 0, wall = 0;
      for (size_t i = 0; i < configs().size(); ++i)
        if (configs()[i].solver) {
          steps += static_cast<double>(set[i].clock.interval_us.size());
          wall += set[i].wall_s;
        }
      rates.push_back(steps / wall);
    }
    out.set("op_p50_us", quantile(solver_step_us(sets), 0.50), "us");
    out.set("ops_per_s", median(rates), "1/s");
  } else {
    // One untraced set (per-layer figures) and one traced set; the wall
    // gap between them is the tracing overhead. Not pinned: the span
    // poller thread would inherit the pin and share the CPU.
    sample_setup();
    sets.push_back(run_set(ambient));
    out.set("op_p99_us", quantile(solver_step_us(sets), 0.99), "us");
    TraceCapture capture;
    capture.start();
    const MissionSet traced = run_set(ambient);
    out.profile.spans = capture.stop();
    out.profile.denom_us = set_wall(traced) * 1e6;
    out.profile.steps = set_steps(traced);
    out.profile.denom_label = "US06 mission set wall (4 configs)";
    out.set("obs.trace_overhead_pct",
            100.0 * (set_wall(traced) / set_wall(sets.front()) - 1.0), "%");
    sets.push_back(traced);

    const MissionSet& plain = sets.front();
    emit_mission_layers({plain}, out);
    SolveTally ltv;
    for (const char* name : {"otem-ltv", "otem-ltv-rti"})
      ltv.merge(plain[index_of(name)].clock.solves);
    ltv.emit_counts(out);
    ltv.emit_solve_time(out);
    const ConfigRun& reactive = plain[index_of("parallel")];
    const std::vector<double>& iv = reactive.clock.interval_us;
    double step_us = 0;
    for (double us : iv) step_us += us;
    out.set("sim.step_ns.p50", median(iv) * 1e3, "ns");
    out.set("sim.steps_per_s_1t", static_cast<double>(iv.size()) / (step_us * 1e-6),
            "1/s");
    const otem::Config cfg = make_config(configs().front(), ambient);
    const sim::Scenario sc = sim::Scenario::from_config(cfg);
    const otem::core::SystemSpec spec = otem::core::SystemSpec::from_config(cfg);
    std::vector<double> ms;
    for (int rep = 0; rep < 5; ++rep) {
      const double t0 = now_s();
      (void)sim::scenario_power_trace(sc, spec);
      ms.push_back((now_s() - t0) * 1e3);
    }
    out.set("vehicle.power_trace_ms", median(ms), "ms");
  }
  out.set("setup_s", median(setup), "s");
  out.attempted += sets.size() * configs().size();

  // The paper's three objectives, as means over one set's missions
  // (every set runs the same inputs).
  std::vector<double> qloss, power, cooling;
  for (const ConfigRun& r : sets.front()) {
    qloss.push_back(r.result.qloss_percent);
    power.push_back(r.result.average_power_w / 1e3);
    cooling.push_back(r.result.energy_cooling_j / 3.6e6);
  }
  out.set("qloss_pct", mean(qloss), "%");
  out.set("hees_avg_power_kw", mean(power), "kW");
  out.set("cooling_kwh", mean(cooling), "kWh");
  check_sets(sets, out);

  Json d = Json::object();
  d.set("ambient_k", ambient);
  d.set("sets", static_cast<double>(sets.size()));
  Json walls = Json::object();
  for (size_t i = 0; i < configs().size(); ++i) {
    Json per = Json::array();
    for (const MissionSet& set : sets) per.push(set[i].wall_s);
    walls.set(configs()[i].name, std::move(per));
  }
  d.set("mission_wall_s", std::move(walls));
  out.detail.set("mission", std::move(d));
}

void probe_mission_layers(const Options& opts, Output& out) {
  const std::vector<MissionSet> sets{run_set(ambient_k(opts.seed))};
  out.attempted += configs().size();
  emit_mission_layers(sets, out);
  check_sets(sets, out);
}

}  // namespace otembench
