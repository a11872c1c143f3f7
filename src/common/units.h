// units.h — unit conventions and conversion helpers used across the library.
//
// Convention: all internal computation is in SI base/derived units —
//   time        seconds       [s]
//   temperature kelvin        [K]
//   current     ampere        [A]
//   voltage     volt          [V]
//   power       watt          [W]
//   energy      joule         [J]
//   capacitance farad         [F]
//   mass        kilogram      [kg]
//   speed       metres/second [m/s]
//
// State-of-Charge (SoC) and State-of-Energy (SoE) follow the paper's
// convention and are expressed in PERCENT (0..100), not fractions.
// Battery capacity C_bat is in ampere-hours [Ah] as in the paper's Eq. (1);
// the coulomb-counting code converts explicitly.
#pragma once

namespace otem::units {

/// Convert degrees Celsius to kelvin.
constexpr double celsius_to_kelvin(double c) noexcept { return c + 273.15; }

/// Convert kelvin to degrees Celsius.
constexpr double kelvin_to_celsius(double k) noexcept { return k - 273.15; }

/// Convert ampere-hours to coulombs.
constexpr double ah_to_coulomb(double ah) noexcept { return ah * 3600.0; }

/// Convert watt-hours to joules.
constexpr double wh_to_joule(double wh) noexcept { return wh * 3600.0; }

/// Convert joules to watt-hours.
constexpr double joule_to_wh(double j) noexcept { return j / 3600.0; }

/// Convert kilowatt-hours to joules.
constexpr double kwh_to_joule(double kwh) noexcept { return kwh * 3.6e6; }

/// Convert miles per hour to metres per second.
constexpr double mph_to_mps(double mph) noexcept { return mph * 0.44704; }

/// Convert kilometres per hour to metres per second.
constexpr double kmh_to_mps(double kmh) noexcept { return kmh / 3.6; }

/// Convert metres to kilometres.
constexpr double m_to_km(double m) noexcept { return m / 1000.0; }

}  // namespace otem::units
