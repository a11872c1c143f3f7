// Tests for the drive-cycle generator and the powertrain model.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "common/error.h"
#include "vehicle/drive_cycle.h"
#include "vehicle/powertrain.h"

namespace otem::vehicle {
namespace {

// --- cycle builder ------------------------------------------------------

TEST(CycleBuilder, RampReachesTargetExactly) {
  CycleBuilder b;
  b.ramp_to(10.0, 3.0);
  EXPECT_DOUBLE_EQ(b.current_speed(), 10.0);
  const TimeSeries ts = b.build();
  EXPECT_DOUBLE_EQ(ts[0], 0.0);
  EXPECT_DOUBLE_EQ(ts[ts.size() - 1], 10.0);
}

TEST(CycleBuilder, RampRespectsAccelerationLimit) {
  CycleBuilder b;
  b.ramp_to(20.0, 1.5);
  const TimeSeries ts = b.build();
  for (size_t k = 1; k < ts.size(); ++k)
    EXPECT_LE(ts[k] - ts[k - 1], 1.5 + 1e-12);
}

TEST(CycleBuilder, IdleRequiresStandstill) {
  CycleBuilder b;
  b.ramp_to(5.0, 1.0);
  EXPECT_THROW(b.idle(3.0), SimError);
}

TEST(CycleBuilder, WavyCruiseReturnsToBaseSpeed) {
  CycleBuilder b;
  b.ramp_to(20.0, 2.0).cruise_wavy(30.0, 2.0, 10.0);
  EXPECT_DOUBLE_EQ(b.current_speed(), 20.0);
}

TEST(CycleBuilder, StopEndsAtZero) {
  CycleBuilder b;
  b.ramp_to(15.0, 2.0).stop(2.0, 5.0);
  EXPECT_DOUBLE_EQ(b.current_speed(), 0.0);
}

// --- cycle statistics vs published references ------------------------------

class CycleFidelity : public ::testing::TestWithParam<CycleName> {};

TEST_P(CycleFidelity, MatchesReferenceStatsWithinBands) {
  const CycleName name = GetParam();
  const TimeSeries speed = generate(name);
  const CycleStats got = stats_of(speed);
  const CycleStats ref = reference_stats(name);

  EXPECT_NEAR(got.duration_s, ref.duration_s, 0.15 * ref.duration_s)
      << to_string(name);
  EXPECT_NEAR(got.max_speed_mps, ref.max_speed_mps,
              0.03 * ref.max_speed_mps)
      << to_string(name);
  EXPECT_NEAR(got.avg_speed_mps, ref.avg_speed_mps,
              0.30 * ref.avg_speed_mps)
      << to_string(name);
  EXPECT_NEAR(got.distance_m, ref.distance_m, 0.35 * ref.distance_m)
      << to_string(name);
}

TEST_P(CycleFidelity, StartsAndEndsAtRest) {
  const TimeSeries speed = generate(GetParam());
  EXPECT_DOUBLE_EQ(speed[0], 0.0);
  EXPECT_DOUBLE_EQ(speed[speed.size() - 1], 0.0);
}

TEST_P(CycleFidelity, SpeedsNonNegative) {
  const TimeSeries speed = generate(GetParam());
  for (size_t k = 0; k < speed.size(); ++k) EXPECT_GE(speed[k], 0.0);
}

TEST_P(CycleFidelity, Deterministic) {
  const TimeSeries a = generate(GetParam());
  const TimeSeries b = generate(GetParam());
  ASSERT_EQ(a.size(), b.size());
  for (size_t k = 0; k < a.size(); ++k) EXPECT_DOUBLE_EQ(a[k], b[k]);
}

INSTANTIATE_TEST_SUITE_P(
    AllCycles, CycleFidelity,
    ::testing::ValuesIn(extended_cycles()),
    [](const ::testing::TestParamInfo<CycleName>& param_info) {
      return std::string(to_string(param_info.param));
    });

TEST(CycleRegistry, RoundtripNames) {
  for (CycleName c : all_cycles()) {
    EXPECT_EQ(cycle_from_string(to_string(c)), c);
  }
  EXPECT_THROW(cycle_from_string("NOT_A_CYCLE"), SimError);
}

TEST(CycleRegistry, Us06IsTheAggressiveOne) {
  const CycleStats us06 = stats_of(generate(CycleName::kUs06));
  const CycleStats udds = stats_of(generate(CycleName::kUdds));
  EXPECT_GT(us06.max_speed_mps, udds.max_speed_mps);
  EXPECT_GT(us06.avg_speed_mps, 2.0 * udds.avg_speed_mps);
  EXPECT_GT(us06.max_accel_mps2, 2.5);
}

TEST(SyntheticCycle, DeterministicPerSeed) {
  const TimeSeries a = generate_synthetic(7, 300.0, 20.0);
  const TimeSeries b = generate_synthetic(7, 300.0, 20.0);
  ASSERT_EQ(a.size(), b.size());
  for (size_t k = 0; k < a.size(); ++k) EXPECT_DOUBLE_EQ(a[k], b[k]);
  const TimeSeries c = generate_synthetic(8, 300.0, 20.0);
  EXPECT_NE(a.size(), c.size());
}

TEST(SyntheticCycle, RespectsMaxSpeedAndDuration) {
  const TimeSeries ts = generate_synthetic(42, 400.0, 25.0);
  EXPECT_GE(ts.duration(), 400.0);
  EXPECT_LE(stats_of(ts).max_speed_mps, 25.0 + 1e-9);
}

TEST(CycleCsv, LoadsUniformFile) {
  const std::string path = ::testing::TempDir() + "otem_cycle_test.csv";
  {
    std::ofstream f(path);
    f << "Time (s),Speed (mph)\n";
    for (int t = 0; t <= 10; ++t) f << t << "," << t * 2 << "\n";
  }
  const TimeSeries ts = load_speed_csv(path, "Time (s)", "Speed (mph)",
                                       SpeedUnit::kMilesPerHour);
  ASSERT_EQ(ts.size(), 11u);
  EXPECT_DOUBLE_EQ(ts.dt(), 1.0);
  EXPECT_NEAR(ts[5], 10.0 * 0.44704, 1e-9);
  std::remove(path.c_str());
}

TEST(CycleCsv, UnitConversions) {
  const std::string path = ::testing::TempDir() + "otem_cycle_kmh.csv";
  {
    std::ofstream f(path);
    f << "t,v\n0,36\n1,72\n";
  }
  const TimeSeries kmh =
      load_speed_csv(path, "t", "v", SpeedUnit::kKilometersPerHour);
  EXPECT_NEAR(kmh[0], 10.0, 1e-9);
  const TimeSeries mps =
      load_speed_csv(path, "t", "v", SpeedUnit::kMetersPerSecond);
  EXPECT_NEAR(mps[1], 72.0, 1e-9);
  std::remove(path.c_str());
}

TEST(CycleCsv, RejectsNonUniformSampling) {
  const std::string path = ::testing::TempDir() + "otem_cycle_bad.csv";
  {
    std::ofstream f(path);
    f << "t,v\n0,1\n1,2\n3,4\n";
  }
  EXPECT_THROW(load_speed_csv(path, "t", "v"), SimError);
  std::remove(path.c_str());
}

// --- powertrain ---------------------------------------------------------

Powertrain default_powertrain() { return Powertrain(VehicleParams{}); }

TEST(Powertrain, CruisePowerIsPositiveAndReasonable) {
  const Powertrain pt = default_powertrain();
  // 100 km/h cruise for a mid-size EV: ~12-20 kW electric.
  const double p = pt.power_request(27.8, 0.0);
  EXPECT_GT(p, 8000.0);
  EXPECT_LT(p, 25000.0);
}

TEST(Powertrain, PowerGrowsWithSpeed) {
  const Powertrain pt = default_powertrain();
  double prev = pt.power_request(5.0, 0.0);
  for (double v = 10.0; v <= 35.0; v += 5.0) {
    const double p = pt.power_request(v, 0.0);
    EXPECT_GT(p, prev);
    prev = p;
  }
}

TEST(Powertrain, HardBrakingYieldsBoundedRegen) {
  const Powertrain pt = default_powertrain();
  const double p = pt.power_request(25.0, -3.0);
  EXPECT_LT(p, 0.0);
  EXPECT_GE(p, -pt.params().max_regen_power_w +
                   pt.params().accessory_power_w - 1e-9);
}

TEST(Powertrain, StandstillDrawsOnlyAccessories) {
  const Powertrain pt = default_powertrain();
  EXPECT_NEAR(pt.power_request(0.0, 0.0), pt.params().accessory_power_w,
              1e-9);
}

TEST(Powertrain, GradeAddsLoad) {
  const Powertrain pt = default_powertrain();
  const double flat = pt.power_request(20.0, 0.0, 0.0);
  const double uphill = pt.power_request(20.0, 0.0, 0.05);
  EXPECT_GT(uphill, flat + 10000.0);  // 5 % grade at 72 km/h is heavy
}

TEST(Powertrain, MotorPowerCapApplies) {
  const Powertrain pt = default_powertrain();
  // Absurd acceleration: wheel power far beyond the motor cap.
  const double p = pt.power_request(30.0, 10.0);
  EXPECT_LE(p, pt.params().max_motor_power_w /
                       pt.params().traction_efficiency +
                   pt.params().accessory_power_w + 1e-6);
}

TEST(Powertrain, TraceHasSameShapeAsSpeed) {
  const Powertrain pt = default_powertrain();
  const TimeSeries speed = generate(CycleName::kUs06);
  const TimeSeries power = pt.power_trace(speed);
  EXPECT_EQ(power.size(), speed.size());
  EXPECT_DOUBLE_EQ(power.dt(), speed.dt());
}

TEST(Powertrain, PowerTraceMatchesPowerRequestBitForBit) {
  // power_trace evaluates the whole trace in one vectorizable sweep;
  // every sample must equal the scalar power_request exactly, on both
  // sides of the regen branch.
  const Powertrain pt = default_powertrain();
  const TimeSeries speed = generate(CycleName::kUs06);
  const double grade = 0.02;
  const TimeSeries power = pt.power_trace(speed, grade);
  ASSERT_EQ(power.size(), speed.size());
  for (size_t k = 0; k < speed.size(); ++k) {
    const double accel = k == 0 ? 0.0 : (speed[k] - speed[k - 1]) / speed.dt();
    EXPECT_EQ(power[k], pt.power_request(speed[k], accel, grade))
        << "sample " << k;
  }
}

TEST(Powertrain, Us06DemandIsAggressive) {
  const Powertrain pt = default_powertrain();
  const TimeSeries p_us06 = pt.power_trace(generate(CycleName::kUs06));
  const TimeSeries p_udds = pt.power_trace(generate(CycleName::kUdds));
  EXPECT_GT(p_us06.max(), 50000.0);       // hard accelerations
  EXPECT_GT(p_us06.mean(), p_udds.mean());
  EXPECT_LT(p_us06.min(), -5000.0);       // regen present
}

TEST(Powertrain, ConsumptionPerKmInEvRange) {
  const Powertrain pt = default_powertrain();
  // Typical EVs: ~100-250 Wh/km depending on the cycle.
  for (CycleName c : all_cycles()) {
    const double wh_km = pt.consumption_wh_per_km(generate(c));
    EXPECT_GT(wh_km, 50.0) << to_string(c);
    EXPECT_LT(wh_km, 400.0) << to_string(c);
  }
}

TEST(Powertrain, ConfigOverrides) {
  Config cfg;
  cfg.set_pair("vehicle.mass_kg=2200");
  cfg.set_pair("vehicle.cd=0.26");
  const VehicleParams p = VehicleParams::from_config(cfg);
  EXPECT_DOUBLE_EQ(p.mass_kg, 2200.0);
  EXPECT_DOUBLE_EQ(p.drag_coefficient, 0.26);
}

TEST(Powertrain, InvalidConfigThrows) {
  Config cfg;
  cfg.set_pair("vehicle.traction_efficiency=0");
  EXPECT_THROW(VehicleParams::from_config(cfg), SimError);
}

}  // namespace
}  // namespace otem::vehicle
