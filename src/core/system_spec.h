// system_spec.h — one bundle of every physical parameter set.
//
// "For fairness of the comparisons, all methodologies have been applied
// for the same system configuration" (paper Section IV-B). SystemSpec
// is that configuration: battery pack, ultracapacitor bank, cooling
// loop, converters, vehicle and environment. Benchmarks build one spec,
// then instantiate each methodology from it.
#pragma once

#include "battery/battery_model.h"
#include "common/config.h"
#include "hees/dual_arch.h"
#include "hees/hybrid_arch.h"
#include "hees/parallel_arch.h"
#include "thermal/cooling_system.h"
#include "ultracap/ultracap_model.h"
#include "vehicle/powertrain.h"

namespace otem::core {

struct SystemSpec {
  battery::PackParams battery;
  ultracap::BankParams ultracap;
  thermal::CoolingParams thermal;
  hees::HybridParams hybrid;
  vehicle::VehicleParams vehicle;

  /// Environment temperature [K] — the paper evaluates across different
  /// environment temperatures; default 25 C.
  double ambient_k = 298.15;

  /// Plant step [s] (drive cycles are 1 Hz).
  double dt = 1.0;

  /// Build with every default consistent (thermal heat capacity derived
  /// from the pack, converter nominal voltages from the storages),
  /// applying config overrides. `spec.ambient_k` reads "ambient_k";
  /// "ultracap.capacitance_f" is the Table I sweep knob.
  static SystemSpec from_config(const Config& cfg = Config());

  /// Convenience: same spec with a different ultracapacitor size [F]
  /// (converter nominal voltages stay consistent).
  SystemSpec with_ultracap_size(double capacitance_f) const;

  // --- model factories ------------------------------------------------
  battery::PackModel make_battery() const;
  ultracap::BankModel make_ultracap() const;
  thermal::CoolingSystem make_cooling() const;
  hees::ParallelArchitecture make_parallel_arch() const;
  hees::DualArchitecture make_dual_arch() const;
  hees::HybridArchitecture make_hybrid_arch() const;
};

}  // namespace otem::core
