// Tests for the Monte-Carlo fleet evaluation harness.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "common/error.h"
#include "core/otem/ltv_controller.h"
#include "core/otem/otem_methodology.h"
#include "core/parallel_methodology.h"
#include "sim/fleet.h"

namespace otem::sim {
namespace {

core::SystemSpec default_spec() {
  return core::SystemSpec::from_config(Config());
}

auto parallel_factory() {
  return [](const core::SystemSpec& s) {
    return std::make_unique<core::ParallelMethodology>(s);
  };
}

FleetOptions small_fleet(size_t missions = 4) {
  FleetOptions f;
  f.missions = missions;
  f.seed = 99;
  f.min_duration_s = 200.0;
  f.max_duration_s = 400.0;
  return f;
}

TEST(Fleet, DeterministicPerSeed) {
  const core::SystemSpec spec = default_spec();
  const FleetResult a = evaluate_fleet(spec, parallel_factory(),
                                       small_fleet());
  const FleetResult b = evaluate_fleet(spec, parallel_factory(),
                                       small_fleet());
  EXPECT_DOUBLE_EQ(a.qloss_percent.mean, b.qloss_percent.mean);
  EXPECT_DOUBLE_EQ(a.average_power_w.stddev, b.average_power_w.stddev);
  ASSERT_EQ(a.missions.size(), b.missions.size());
  for (size_t i = 0; i < a.missions.size(); ++i) {
    EXPECT_EQ(a.missions[i].route_seed, b.missions[i].route_seed);
    EXPECT_DOUBLE_EQ(a.missions[i].ambient_k, b.missions[i].ambient_k);
  }
}

TEST(Fleet, ThreadedIsBitIdenticalToSerial) {
  // Mission conditions are pre-drawn serially and reductions happen in
  // mission order, so execution width must not change a single bit.
  const core::SystemSpec spec = default_spec();
  FleetOptions serial = small_fleet(6);
  serial.threads = 1;
  FleetOptions threaded = small_fleet(6);
  threaded.threads = 4;
  const FleetResult a = evaluate_fleet(spec, parallel_factory(), serial);
  const FleetResult b =
      evaluate_fleet(spec, parallel_factory(), threaded);
  EXPECT_EQ(a.qloss_percent.mean, b.qloss_percent.mean);
  EXPECT_EQ(a.qloss_percent.stddev, b.qloss_percent.stddev);
  EXPECT_EQ(a.average_power_w.mean, b.average_power_w.mean);
  EXPECT_EQ(a.average_power_w.stddev, b.average_power_w.stddev);
  EXPECT_EQ(a.max_t_battery_k.min, b.max_t_battery_k.min);
  EXPECT_EQ(a.max_t_battery_k.max, b.max_t_battery_k.max);
  EXPECT_EQ(a.total_violation_s, b.total_violation_s);
  EXPECT_EQ(a.total_unserved_j, b.total_unserved_j);
  ASSERT_EQ(a.missions.size(), b.missions.size());
  for (size_t i = 0; i < a.missions.size(); ++i) {
    EXPECT_EQ(a.missions[i].route_seed, b.missions[i].route_seed);
    EXPECT_EQ(a.missions[i].ambient_k, b.missions[i].ambient_k);
    EXPECT_EQ(a.missions[i].distance_m, b.missions[i].distance_m);
    EXPECT_EQ(a.missions[i].result.qloss_percent,
              b.missions[i].result.qloss_percent);
    EXPECT_EQ(a.missions[i].result.energy_hees_j,
              b.missions[i].result.energy_hees_j);
    EXPECT_EQ(a.missions[i].result.max_t_battery_k,
              b.missions[i].result.max_t_battery_k);
  }
}

TEST(Fleet, LtvWarmStartsStayBitIdenticalAcrossThreads) {
  // Warm-started ADMM carries solver state across steps INSIDE a
  // mission; each mission owns its controller and solver, so execution
  // width and repetition must still not change a single bit.
  const core::SystemSpec spec = default_spec();
  const auto ltv_factory = [](const core::SystemSpec& s) {
    core::MpcOptions mpc;
    mpc.horizon = 8;
    return std::make_unique<core::OtemMethodology>(
        s, std::make_unique<core::LtvOtemController>(s, mpc));
  };
  FleetOptions serial = small_fleet(3);
  serial.min_duration_s = 60.0;
  serial.max_duration_s = 120.0;
  serial.threads = 1;
  FleetOptions threaded = serial;
  threaded.threads = 4;
  const FleetResult a = evaluate_fleet(spec, ltv_factory, serial);
  const FleetResult b = evaluate_fleet(spec, ltv_factory, threaded);
  const FleetResult c = evaluate_fleet(spec, ltv_factory, threaded);
  EXPECT_EQ(a.qloss_percent.mean, b.qloss_percent.mean);
  EXPECT_EQ(a.average_power_w.mean, b.average_power_w.mean);
  ASSERT_EQ(a.missions.size(), b.missions.size());
  for (size_t i = 0; i < a.missions.size(); ++i) {
    EXPECT_EQ(a.missions[i].result.qloss_percent,
              b.missions[i].result.qloss_percent);
    EXPECT_EQ(a.missions[i].result.energy_hees_j,
              b.missions[i].result.energy_hees_j);
    EXPECT_EQ(a.missions[i].result.max_t_battery_k,
              b.missions[i].result.max_t_battery_k);
    // Repeat with the same width: warm-start state resets per run.
    EXPECT_EQ(b.missions[i].result.qloss_percent,
              c.missions[i].result.qloss_percent);
    EXPECT_EQ(b.missions[i].result.energy_hees_j,
              c.missions[i].result.energy_hees_j);
  }
}

TEST(Fleet, BandedKktStaysBitIdenticalAcrossThreads) {
  // The banded KKT solver adds per-solver persistent stage workspace
  // (block factors, ADMM iterates) on top of the warm-start state; each
  // mission still owns its controller, so execution width must not
  // change a single bit.
  const core::SystemSpec spec = default_spec();
  const auto banded_factory = [](const core::SystemSpec& s) {
    core::MpcOptions mpc;
    mpc.horizon = 8;
    return std::make_unique<core::OtemMethodology>(
        s, std::make_unique<core::LtvOtemController>(s, mpc));
  };
  FleetOptions serial = small_fleet(3);
  serial.min_duration_s = 60.0;
  serial.max_duration_s = 120.0;
  serial.threads = 1;
  FleetOptions threaded = serial;
  threaded.threads = 4;
  const FleetResult a = evaluate_fleet(spec, banded_factory, serial);
  const FleetResult b = evaluate_fleet(spec, banded_factory, threaded);
  EXPECT_EQ(a.qloss_percent.mean, b.qloss_percent.mean);
  EXPECT_EQ(a.average_power_w.mean, b.average_power_w.mean);
  ASSERT_EQ(a.missions.size(), b.missions.size());
  for (size_t i = 0; i < a.missions.size(); ++i) {
    EXPECT_EQ(a.missions[i].result.qloss_percent,
              b.missions[i].result.qloss_percent);
    EXPECT_EQ(a.missions[i].result.energy_hees_j,
              b.missions[i].result.energy_hees_j);
    EXPECT_EQ(a.missions[i].result.max_t_battery_k,
              b.missions[i].result.max_t_battery_k);
  }
}

TEST(Fleet, SingleMissionHasZeroSpread) {
  const core::SystemSpec spec = default_spec();
  const FleetResult r =
      evaluate_fleet(spec, parallel_factory(), small_fleet(1));
  EXPECT_EQ(r.qloss_percent.stddev, 0.0);
  EXPECT_EQ(r.qloss_percent.mean, r.qloss_percent.min);
  EXPECT_EQ(r.qloss_percent.mean, r.qloss_percent.max);
}

TEST(Fleet, DifferentSeedsSampleDifferentMissions) {
  const core::SystemSpec spec = default_spec();
  FleetOptions f1 = small_fleet();
  FleetOptions f2 = small_fleet();
  f2.seed = 100;
  const FleetResult a = evaluate_fleet(spec, parallel_factory(), f1);
  const FleetResult b = evaluate_fleet(spec, parallel_factory(), f2);
  EXPECT_NE(a.missions[0].route_seed, b.missions[0].route_seed);
}

TEST(Fleet, StatsAreConsistent) {
  const core::SystemSpec spec = default_spec();
  const FleetResult r =
      evaluate_fleet(spec, parallel_factory(), small_fleet(6));
  ASSERT_EQ(r.missions.size(), 6u);
  EXPECT_LE(r.qloss_percent.min, r.qloss_percent.mean);
  EXPECT_LE(r.qloss_percent.mean, r.qloss_percent.max);
  EXPECT_GE(r.qloss_percent.stddev, 0.0);
  // Recompute the mean from the per-mission outcomes.
  double mean = 0.0;
  for (const auto& m : r.missions) mean += m.result.qloss_percent;
  mean /= 6.0;
  EXPECT_NEAR(r.qloss_percent.mean, mean, 1e-12);
}

TEST(Fleet, AmbientSamplesWithinRange) {
  const core::SystemSpec spec = default_spec();
  FleetOptions f = small_fleet(8);
  f.ambient_min_k = 290.0;
  f.ambient_max_k = 300.0;
  const FleetResult r = evaluate_fleet(spec, parallel_factory(), f);
  for (const auto& m : r.missions) {
    EXPECT_GE(m.ambient_k, 290.0);
    EXPECT_LE(m.ambient_k, 300.0);
    EXPECT_GE(m.duration_s, 190.0);
    EXPECT_GT(m.distance_m, 0.0);
  }
}

TEST(Fleet, OtemBeatsParallelInDistribution) {
  // The paper's ordering must hold on the paired random fleet, not
  // just the fixed schedules.
  const core::SystemSpec spec = default_spec();
  FleetOptions f = small_fleet(5);
  f.min_duration_s = 300.0;
  f.max_duration_s = 500.0;
  const FleetResult parallel =
      evaluate_fleet(spec, parallel_factory(), f);
  const FleetResult otem = evaluate_fleet(
      spec,
      [](const core::SystemSpec& s) {
        core::MpcOptions mpc;
        mpc.horizon = 12;
        core::OtemSolverOptions sopt;
        sopt.al.adam.max_iterations = 60;
        sopt.al.max_outer_iterations = 2;
        return std::make_unique<core::OtemMethodology>(s, mpc, sopt);
      },
      f);
  EXPECT_LT(otem.qloss_percent.mean, parallel.qloss_percent.mean);
  EXPECT_LE(otem.total_violation_s, parallel.total_violation_s);
}

TEST(Fleet, TelemetryPrefixStreamsOneCsvPerMission) {
  // A 16-mission fleet with streaming telemetry: every mission writes
  // <prefix>mission_<m>.csv with one row per step, while the in-process
  // results stay bit-identical to a run without telemetry (the sink
  // only observes; it never feeds back).
  const core::SystemSpec spec = default_spec();
  FleetOptions plain = small_fleet(16);
  plain.min_duration_s = 60.0;
  plain.max_duration_s = 120.0;
  FleetOptions streaming = plain;
  const std::string prefix = testing::TempDir() + "otem_fleet_";
  streaming.telemetry_csv_prefix = prefix;

  const FleetResult a = evaluate_fleet(spec, parallel_factory(), plain);
  const FleetResult b =
      evaluate_fleet(spec, parallel_factory(), streaming);

  ASSERT_EQ(b.missions.size(), 16u);
  EXPECT_EQ(a.qloss_percent.mean, b.qloss_percent.mean);
  EXPECT_EQ(a.average_power_w.mean, b.average_power_w.mean);
  for (size_t m = 0; m < b.missions.size(); ++m) {
    const std::string path = prefix + "mission_" + std::to_string(m) +
                             ".csv";
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing telemetry file " << path;
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line.rfind("t_s,p_load_w,", 0), 0u) << path;
    size_t rows = 0;
    while (std::getline(in, line)) ++rows;
    // One row per simulated step; duration() is (steps - 1) * dt.
    EXPECT_EQ(static_cast<double>(rows), b.missions[m].duration_s + 1.0)
        << path;
    std::remove(path.c_str());
  }
}

TEST(Fleet, InvalidOptionsThrow) {
  const core::SystemSpec spec = default_spec();
  FleetOptions f = small_fleet(0);
  EXPECT_THROW(evaluate_fleet(spec, parallel_factory(), f), SimError);
  FleetOptions g = small_fleet();
  g.ambient_min_k = 320.0;
  g.ambient_max_k = 280.0;
  EXPECT_THROW(evaluate_fleet(spec, parallel_factory(), g), SimError);
}

}  // namespace
}  // namespace otem::sim
