// Tests for the receding-horizon OTEM controller.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/otem/otem_controller.h"
#include "sim/report.h"
#include "sim/scenario.h"

namespace otem::core {
namespace {

SystemSpec default_spec() { return SystemSpec::from_config(Config()); }

MpcOptions test_options(size_t horizon = 15) {
  MpcOptions o;
  o.horizon = horizon;
  return o;
}

OtemSolverOptions fast_solver() {
  OtemSolverOptions s;
  s.al.adam.max_iterations = 80;
  s.al.lbfgs.max_iterations = 15;
  s.al.max_outer_iterations = 3;
  return s;
}

TEST(OtemController, ProducesBoundedControls) {
  const SystemSpec spec = default_spec();
  OtemController ctrl(spec, test_options(), fast_solver());
  PlantState x;
  const auto u = ctrl.solve(x, std::vector<double>(15, 20000.0));
  EXPECT_LE(std::abs(u.p_cap_bus_w), spec.ultracap.max_power_w + 1e-6);
  EXPECT_GE(u.p_cooler_w, 0.0);
  EXPECT_LE(u.p_cooler_w, spec.thermal.max_cooler_power_w + 1e-6);
}

TEST(OtemController, HotBatteryTriggersCooling) {
  const SystemSpec spec = default_spec();
  OtemController ctrl(spec, test_options(20), fast_solver());
  PlantState hot;
  hot.t_battery_k = spec.thermal.max_battery_temp_k + 1.0;  // C1 violated
  hot.t_coolant_k = hot.t_battery_k - 2.0;
  const auto u = ctrl.solve(hot, std::vector<double>(20, 25000.0));
  // With T_b above the C1 ceiling the only feasible direction is
  // cooling hard.
  EXPECT_GT(u.p_cooler_w, 0.3 * spec.thermal.max_cooler_power_w);
}

TEST(OtemController, ColdIdleBatteryBarelyCools) {
  const SystemSpec spec = default_spec();
  OtemController ctrl(spec, test_options(), fast_solver());
  PlantState cold;
  cold.t_battery_k = 288.0;
  cold.t_coolant_k = 288.0;
  const auto u = ctrl.solve(cold, std::vector<double>(15, 1000.0));
  EXPECT_LT(u.p_cooler_w, 0.1 * spec.thermal.max_cooler_power_w);
}

TEST(OtemController, UltracapCarriesPartOfLargePeak) {
  const SystemSpec spec = default_spec();
  OtemController ctrl(spec, test_options(), fast_solver());
  PlantState x;
  // Large sustained request with a charged bank: the energy-loss term
  // favours splitting.
  const auto u = ctrl.solve(x, std::vector<double>(15, 60000.0));
  EXPECT_GT(u.p_cap_bus_w, 1000.0);
}

TEST(OtemController, RespectsSoeFloorWhenBankLow) {
  const SystemSpec spec = default_spec();
  OtemController ctrl(spec, test_options(), fast_solver());
  PlantState x;
  x.soe_percent = 21.0;  // just above the C5 floor
  ctrl.reset();
  const auto u = ctrl.solve(x, std::vector<double>(15, 50000.0));
  // Discharging hard from 21 % would cross the floor within a second
  // or two; the constraint must keep discharge modest (or charge).
  const double soe_after_10s =
      21.0 - 10.0 * 100.0 *
                 std::max(0.0, u.p_cap_bus_w) /
                 spec.ultracap.energy_capacity_j();
  EXPECT_GT(soe_after_10s, 15.0);
}

TEST(OtemController, SolveInfoPopulated) {
  OtemController ctrl(default_spec(), test_options(), fast_solver());
  PlantState x;
  ctrl.solve(x, std::vector<double>(15, 20000.0));
  const auto& info = ctrl.last_solve();
  EXPECT_GT(info.iterations, 0u);
  EXPECT_LT(info.constraint_violation, 1.0);
  EXPECT_EQ(ctrl.predicted_states().size(), 16u);
}

TEST(OtemController, WarmStartKeepsSolutionStable) {
  const SystemSpec spec = default_spec();
  OtemController ctrl(spec, test_options(), fast_solver());
  PlantState x;
  const std::vector<double> load(20, 30000.0);
  const auto u1 = ctrl.solve(x, load);
  // Same state, same load: the warm-started second solve must not be
  // dramatically different (the optimiser is deterministic).
  const auto u2 = ctrl.solve(x, load);
  EXPECT_NEAR(u1.p_cap_bus_w, u2.p_cap_bus_w,
              0.2 * spec.ultracap.max_power_w);
}

TEST(OtemController, DeterministicAcrossInstances) {
  PlantState x;
  x.t_battery_k = 303.0;
  const std::vector<double> load{10000, 20000, 50000, 60000, 30000,
                                 10000, 5000,  40000, 45000, 20000,
                                 15000, 25000, 35000, 30000, 10000};
  OtemController a(default_spec(), test_options(), fast_solver());
  OtemController b(default_spec(), test_options(), fast_solver());
  const auto ua = a.solve(x, load);
  const auto ub = b.solve(x, load);
  EXPECT_DOUBLE_EQ(ua.p_cap_bus_w, ub.p_cap_bus_w);
  EXPECT_DOUBLE_EQ(ua.p_cooler_w, ub.p_cooler_w);
}

// Full-mission golden for both MPC controllers. The shooting rollout
// (MpcProblem::evaluate/linearize) is a hot kernel that gets rewritten
// for speed; every such rewrite must keep the same expressions in the
// same association order, so the closed loop does not move a single
// bit. The strings below are run_result_to_hex_json of a short US06
// run (reduced horizon and iterations, as in test_scenario_engine.cpp)
// recorded before the fused PackModel::electrical query replaced the
// per-quantity calls. They pin IEEE-754 results of an x86-64 GCC/glibc
// build; a different libm may legitimately move the last bits, in which
// case re-record them from a commit whose rollout is known unchanged.
std::string us06_hex_report(const std::string& method) {
  Config cfg;
  cfg.set_pair("otem.horizon=8");
  cfg.set_pair("otem.solver.adam_iterations=40");
  cfg.set_pair("otem.solver.outer_iterations=2");
  sim::Scenario sc;
  sc.methodology = method;
  sc.cycle = "US06";
  return sim::run_result_to_hex_json(sim::run_scenario(sc, cfg).result)
      .dump(0);
}

TEST(OtemController, Us06ReportMatchesGolden) {
  EXPECT_EQ(us06_hex_report("otem"),
      R"({"duration_s":"4081980000000000",)"
      R"("qloss_percent":"3f32dd2d89ce1247",)"
      R"("energy_hees_j":"416656c6f391c490",)"
      R"("energy_battery_j":"413b00011165a707",)"
      R"("energy_cap_j":"4162f6c6d1650faf",)"
      R"("energy_cooling_j":"411cc514658d6457",)"
      R"("energy_loss_j":"412fd7c8ba5eecc1",)"
      R"("average_power_w":"40d450bc345abaf1",)"
      R"("max_t_battery_k":"4072a000bef7e08a",)"
      R"("thermal_violation_s":"0000000000000000",)"
      R"("infeasible_steps":0,)"
      R"("unserved_energy_j":"3e233ddeadf00000",)"
      R"("final_state":{"t_battery_k":"40728a38deecd913",)"
      R"("t_coolant_k":"4072894205f5a395",)"
      R"("soc_percent":"40585e0be3c115be",)"
      R"("soe_percent":"403652d5bcd8d669"}})");
}

TEST(LtvOtemController, Us06ReportMatchesGolden) {
  EXPECT_EQ(us06_hex_report("otem-ltv"),
      R"({"duration_s":"4081980000000000",)"
      R"("qloss_percent":"3f444b7c35699336",)"
      R"("energy_hees_j":"4166673c81c5a7b3",)"
      R"("energy_battery_j":"413b6b77f1473f7d",)"
      R"("energy_cap_j":"4162f9cd839cbfc3",)"
      R"("energy_cooling_j":"4113a9453271bbdb",)"
      R"("energy_loss_j":"4132b6849b957993",)"
      R"("average_power_w":"40d45fb411fb23a6",)"
      R"("max_t_battery_k":"4072a5ae27d768a0",)"
      R"("thermal_violation_s":"0000000000000000",)"
      R"("infeasible_steps":0,)"
      R"("unserved_energy_j":"3e1aaa7000000000",)"
      R"("final_state":{"t_battery_k":"4072a5759b9f94a4",)"
      R"("t_coolant_k":"4072a31ff5734233",)"
      R"("soc_percent":"40585be946d63af9",)"
      R"("soe_percent":"40364670950b4494"}})");
}

TEST(OtemSolverOptions, ConfigOverrides) {
  Config cfg;
  cfg.set_pair("otem.solver.adam_iterations=55");
  cfg.set_pair("otem.solver.learning_rate=0.01");
  const OtemSolverOptions o = OtemSolverOptions::from_config(cfg);
  EXPECT_EQ(o.al.adam.max_iterations, 55u);
  EXPECT_DOUBLE_EQ(o.al.adam.learning_rate, 0.01);
}

TEST(MpcOptions, ConfigOverrides) {
  Config cfg;
  cfg.set_pair("otem.horizon=12");
  cfg.set_pair("otem.w2=1e9");
  const MpcOptions o = MpcOptions::from_config(cfg);
  EXPECT_EQ(o.horizon, 12u);
  EXPECT_DOUBLE_EQ(o.weights.w2, 1e9);
}

}  // namespace
}  // namespace otem::core
