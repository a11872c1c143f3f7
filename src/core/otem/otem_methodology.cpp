#include "core/otem/otem_methodology.h"

#include <algorithm>
#include <chrono>

#include "common/error.h"
#include "core/methodology_registry.h"
#include "core/otem/ltv_controller.h"

namespace otem::core {

OtemMethodology::OtemMethodology(const SystemSpec& spec,
                                 MpcOptions mpc_options,
                                 OtemSolverOptions solver_options,
                                 std::unique_ptr<ForecastModel> forecast)
    : OtemMethodology(spec,
                      std::make_unique<OtemController>(spec, mpc_options,
                                                       solver_options),
                      std::move(forecast)) {}

OtemMethodology::OtemMethodology(const SystemSpec& spec,
                                 std::unique_ptr<ControllerIface> controller,
                                 std::unique_ptr<ForecastModel> forecast)
    : arch_(spec.make_hybrid_arch()),
      cooling_(spec.make_cooling()),
      controller_(std::move(controller)),
      forecast_(forecast ? std::move(forecast)
                         : std::make_unique<PerfectForecast>()),
      ambient_k_(spec.ambient_k),
      pump_w_(spec.thermal.pump_power_w) {
  OTEM_REQUIRE(controller_ != nullptr, "OTEM needs a controller");
}

const OtemController& OtemMethodology::controller() const {
  const auto* shooting =
      dynamic_cast<const OtemController*>(controller_.get());
  OTEM_REQUIRE(shooting != nullptr,
               "diagnostics accessor requires the shooting controller");
  return *shooting;
}

void OtemMethodology::reset(const PlantState&,
                            const TimeSeries& power_forecast) {
  forecast_->reset(power_forecast);
  controller_->reset();
}

StepRecord OtemMethodology::step(PlantState& state, double p_e_w, size_t k,
                                 double dt) {
  StepRecord rec;
  rec.p_load_w = p_e_w;

  // Predicted requests for the control window (Algorithm 1 lines 11-12);
  // the window shrinks (pads with the last value) near the route end.
  const size_t n = controller_->horizon();
  std::vector<double> window = forecast_->window(k, n);
  if (window.empty()) window.push_back(p_e_w);

  // Two clock reads around a millisecond-scale solve: negligible cost,
  // and every step carries its true solver latency.
  const auto solve_begin = std::chrono::steady_clock::now();
  const MpcProblem::Controls u = controller_->solve(state, window);
  rec.solve = controller_->diagnostics();
  rec.solve.solve_time_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - solve_begin)
          .count();

  // Apply through the plant (lines 15-16). The pump runs whenever the
  // loop is active — always, for the actively-cooled architecture.
  const double p_cool = std::clamp(
      u.p_cooler_w, 0.0, cooling_.params().max_cooler_power_w);
  const double load = p_e_w + pump_w_ + p_cool;
  const double p_cap_bus = u.p_cap_bus_w;
  const double p_bat_bus = load - p_cap_bus;

  const hees::ArchStep arch =
      arch_.step(state.soc_percent, state.soe_percent, state.t_battery_k,
                 p_bat_bus, p_cap_bus, dt);

  const double t_inlet =
      cooling_.inlet_for_power(state.t_coolant_k, ambient_k_, p_cool);
  const thermal::ThermalState th = cooling_.step(
      {state.t_battery_k, state.t_coolant_k}, arch.q_bat_w, t_inlet, dt);

  state.t_battery_k = th.t_battery_k;
  state.t_coolant_k = th.t_coolant_k;
  state.soc_percent = arch.soc_next;
  state.soe_percent = arch.soe_next;

  rec.p_cooler_w = p_cool;
  rec.p_pump_w = pump_w_;
  rec.t_inlet_k = t_inlet;
  rec.i_bat_a = arch.i_bat_a;
  rec.i_cap_a = arch.i_cap_a;
  rec.q_bat_w = arch.q_bat_w;
  rec.e_bat_j = arch.e_bat_j;
  rec.e_cap_j = arch.e_cap_j;
  rec.e_cooling_j = (p_cool + pump_w_) * dt;
  rec.e_loss_j = arch.e_loss_j;
  rec.qloss_percent = arch.qloss_percent;
  rec.feasible = arch.feasible;
  rec.unmet_w = arch.unmet_bus_w;
  rec.state_after = state;
  return rec;
}

namespace detail {
void register_otem_methodologies(MethodologyRegistry& registry) {
  // "forecast" selects the prediction channel (core/forecast.h);
  // "perfect" is the paper's evaluation setting and the default.
  registry.add("otem", [](const SystemSpec& spec, const Config& cfg) {
    return std::make_unique<OtemMethodology>(
        spec, MpcOptions::from_config(cfg),
        OtemSolverOptions::from_config(cfg),
        make_forecast(cfg.get_string("forecast", "perfect")));
  });
  registry.add("otem-ltv", [](const SystemSpec& spec, const Config& cfg) {
    LtvOptions ltv;
    // A/B switch for the receding-horizon QP warm start (on by
    // default); docs/PERFORMANCE.md shows the comparison workflow.
    ltv.warm_start = cfg.get_bool("ltv.warm_start", true);
    // Linearise-solve-apply rounds per control step. 1 is the
    // real-time-iteration (RTI) setting the serve sessions run at: with
    // the receding-horizon warm start the incumbent plan is already
    // near-optimal, so a single relinearisation tracks the optimum at a
    // third of the per-step cost.
    const long rounds = cfg.get_long(
        "ltv.sqp_iterations", static_cast<long>(ltv.sqp_iterations));
    OTEM_REQUIRE(rounds >= 1, "ltv.sqp_iterations must be >= 1");
    ltv.sqp_iterations = static_cast<size_t>(rounds);
    // ADMM tolerance. The polish pass makes the accepted iterate
    // active-set-exact regardless, so eps only has to identify the
    // active set — loosening it is the latency knob the sub-millisecond
    // serve sessions turn (docs/PERFORMANCE.md shows the trade).
    const double eps = cfg.get_double("ltv.qp.eps", ltv.qp.eps_abs);
    OTEM_REQUIRE(eps > 0.0, "ltv.qp.eps must be positive");
    ltv.qp.eps_abs = eps;
    ltv.qp.eps_rel = eps;
    const long qp_iters = cfg.get_long(
        "ltv.qp.max_iterations", static_cast<long>(ltv.qp.max_iterations));
    OTEM_REQUIRE(qp_iters >= 1, "ltv.qp.max_iterations must be >= 1");
    ltv.qp.max_iterations = static_cast<size_t>(qp_iters);
    return std::make_unique<OtemMethodology>(
        spec,
        std::make_unique<LtvOtemController>(
            spec, MpcOptions::from_config(cfg), ltv),
        make_forecast(cfg.get_string("forecast", "perfect")));
  });
}
}  // namespace detail

}  // namespace otem::core
