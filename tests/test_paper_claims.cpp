// The paper's headline claims, pinned as regression tests on reduced
// workloads (US06 x2 instead of the benches' x3-x5 — same shape,
// smaller runtime). If a refactor or recalibration breaks the
// reproduction, this suite fails before the benches are ever run. The
// OTEM claims are checked for the offline shooting controller ("otem")
// AND for the LTV-MPC controller that is served ("otem-ltv"), in its
// default and its real-time-iteration serving configuration.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "core/cooling_methodology.h"
#include "core/dual_methodology.h"
#include "core/methodology_registry.h"
#include "core/otem/otem_methodology.h"
#include "core/parallel_methodology.h"
#include "sim/simulator.h"
#include "vehicle/drive_cycle.h"
#include "vehicle/powertrain.h"

namespace otem {
namespace {

/// The OTEM controllers every OTEM claim is checked for.
const char* const kOtemControllers[] = {"otem", "otem-ltv", "otem-ltv-rti"};

/// "otem" is the shooting NLP; "otem-ltv" the LTV-MPC controller with
/// its defaults; "otem-ltv-rti" the same controller in the serving
/// configuration (one SQP round per step, ADMM eps 0.2).
std::unique_ptr<core::Methodology> make_otem(const std::string& name,
                                             const core::SystemSpec& spec) {
  if (name == "otem") return std::make_unique<core::OtemMethodology>(spec);
  Config cfg;
  if (name == "otem-ltv-rti") {
    cfg.set("ltv.sqp_iterations", "1");
    cfg.set("ltv.qp.eps", "0.2");
  }
  return core::make_methodology("otem-ltv", spec, cfg);
}

/// One shared evaluation: the three baselines and every OTEM controller
/// on US06 x2 at the paper's 25 C / 25 kF configuration. Computed once
/// for the suite.
class PaperClaims : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const core::SystemSpec spec = core::SystemSpec::from_config(Config());
    const TimeSeries power =
        vehicle::Powertrain(spec.vehicle)
            .power_trace(vehicle::generate(vehicle::CycleName::kUs06))
            .repeated(2);
    const sim::Simulator sim(spec);
    auto run = [&](std::unique_ptr<core::Methodology> m) {
      sim::RunOptions opt;
      opt.record_trace = false;
      return sim.run(*m, power, opt);
    };
    results_ = new std::map<std::string, sim::RunResult>;
    (*results_)["parallel"] =
        run(std::make_unique<core::ParallelMethodology>(spec));
    (*results_)["active_cooling"] =
        run(std::make_unique<core::CoolingMethodology>(spec));
    (*results_)["dual"] = run(std::make_unique<core::DualMethodology>(spec));
    for (const char* name : kOtemControllers)
      (*results_)[name] = run(make_otem(name, spec));
    spec_ = new core::SystemSpec(spec);
  }

  static void TearDownTestSuite() {
    delete results_;
    delete spec_;
    results_ = nullptr;
    spec_ = nullptr;
  }

  static const sim::RunResult& at(const std::string& name) {
    return results_->at(name);
  }

  static std::map<std::string, sim::RunResult>* results_;
  static core::SystemSpec* spec_;
};

std::map<std::string, sim::RunResult>* PaperClaims::results_ = nullptr;
core::SystemSpec* PaperClaims::spec_ = nullptr;

TEST_F(PaperClaims, OtemHasLowestCapacityLoss) {
  // Fig. 8 / Table I: OTEM's BLT improvement over every baseline.
  for (const char* name : kOtemControllers) {
    SCOPED_TRACE(name);
    EXPECT_LT(at(name).qloss_percent, at("parallel").qloss_percent);
    EXPECT_LT(at(name).qloss_percent, at("dual").qloss_percent);
    EXPECT_LT(at(name).qloss_percent, at("active_cooling").qloss_percent);
  }
}

TEST_F(PaperClaims, OtemReductionVsParallelIsSubstantial) {
  // Paper: 16.38 % average reduction, 57 % on US06 (Table I). Demand at
  // least 20 % here.
  for (const char* name : kOtemControllers) {
    SCOPED_TRACE(name);
    EXPECT_LT(at(name).qloss_percent, 0.8 * at("parallel").qloss_percent);
  }
}

TEST_F(PaperClaims, OtemConsumesLessThanPureActiveCooling) {
  // Fig. 9: 12.1 % average power reduction vs cooling-only. Demand a
  // positive margin here.
  for (const char* name : kOtemControllers) {
    SCOPED_TRACE(name);
    EXPECT_LT(at(name).average_power_w,
              0.99 * at("active_cooling").average_power_w);
  }
}

TEST_F(PaperClaims, ActiveCoolingIsTheMostPowerHungry) {
  // Fig. 9: "methodologies which use active battery cooling system have
  // consumed more energy compared to others" — and the blunt fixed-
  // inlet baseline tops the list.
  EXPECT_GT(at("active_cooling").average_power_w,
            at("parallel").average_power_w);
  EXPECT_GT(at("active_cooling").average_power_w,
            at("dual").average_power_w);
}

TEST_F(PaperClaims, UnmanagedArchitecturesViolateThermalLimits) {
  // Figs. 1/6: without active cooling the aggressive cycle drives the
  // pack past the safe threshold.
  EXPECT_GT(at("parallel").max_t_battery_k,
            spec_->thermal.max_battery_temp_k);
  EXPECT_GT(at("dual").max_t_battery_k, spec_->thermal.max_battery_temp_k);
}

TEST_F(PaperClaims, OtemStaysInTheSafeZone) {
  // The paper's C1 promise.
  for (const char* name : kOtemControllers) {
    SCOPED_TRACE(name);
    EXPECT_LE(at(name).thermal_violation_s, 5.0);
    EXPECT_LT(at(name).max_t_battery_k,
              spec_->thermal.max_battery_temp_k + 0.5);
  }
}

TEST_F(PaperClaims, OtemServesTheFullLoad) {
  // Floating-point boundary grazing accumulates nanojoules; anything a
  // driver could feel would be kilojoules.
  for (const char* name : kOtemControllers) {
    SCOPED_TRACE(name);
    EXPECT_LT(at(name).unserved_energy_j, 1.0);
  }
}

TEST_F(PaperClaims, ParallelDegradesWithSmallerBank) {
  // Table I, parallel column: qloss grows as the bank shrinks.
  const core::SystemSpec small = spec_->with_ultracap_size(5000.0);
  const TimeSeries power =
      vehicle::Powertrain(small.vehicle)
          .power_trace(vehicle::generate(vehicle::CycleName::kUs06))
          .repeated(2);
  core::ParallelMethodology m(small);
  sim::RunOptions opt;
  opt.record_trace = false;
  const sim::RunResult r = sim::Simulator(small).run(m, power, opt);
  EXPECT_GT(r.qloss_percent, at("parallel").qloss_percent);
}

TEST_F(PaperClaims, OtemIsNearlyBankSizeIndependent) {
  // Table I: "the OTEM ... is not much dependent on the ultracapacitor
  // size" — a 5 kF OTEM still beats the 25 kF parallel baseline.
  const core::SystemSpec small = spec_->with_ultracap_size(5000.0);
  const TimeSeries power =
      vehicle::Powertrain(small.vehicle)
          .power_trace(vehicle::generate(vehicle::CycleName::kUs06))
          .repeated(2);
  sim::RunOptions opt;
  opt.record_trace = false;
  for (const char* name : kOtemControllers) {
    SCOPED_TRACE(name);
    const auto m = make_otem(name, small);
    const sim::RunResult r = sim::Simulator(small).run(*m, power, opt);
    EXPECT_LT(r.qloss_percent, at("parallel").qloss_percent);
    EXPECT_LE(r.thermal_violation_s, 5.0);
  }
}

}  // namespace
}  // namespace otem
