#include "hees/converter.h"

#include "common/error.h"

namespace otem::hees {

ConverterParams ConverterParams::from_config(const Config& cfg,
                                             const std::string& prefix,
                                             const ConverterParams& defaults) {
  ConverterParams p = defaults;
  p.eta_max = cfg.get_double(prefix + "eta_max", p.eta_max);
  p.eta_min = cfg.get_double(prefix + "eta_min", p.eta_min);
  p.droop = cfg.get_double(prefix + "droop", p.droop);
  p.nominal_voltage = cfg.get_double(prefix + "nominal_voltage",
                                     p.nominal_voltage);
  OTEM_REQUIRE(p.eta_max > 0.0 && p.eta_max <= 1.0,
               "converter eta_max must be in (0, 1]");
  OTEM_REQUIRE(p.eta_min > 0.0 && p.eta_min <= p.eta_max,
               "converter eta_min must be in (0, eta_max]");
  OTEM_REQUIRE(p.nominal_voltage > 0.0,
               "converter nominal voltage must be positive");
  return p;
}

Converter::Converter(ConverterParams params) : params_(params) {
  OTEM_REQUIRE(params_.nominal_voltage > 0.0,
               "converter nominal voltage must be positive");
}

double Converter::storage_power_for_bus(double p_bus, double v) const {
  const double eta = efficiency(v);
  return p_bus >= 0.0 ? p_bus / eta : p_bus * eta;
}

double Converter::bus_power_for_storage(double p_storage, double v) const {
  const double eta = efficiency(v);
  return p_storage >= 0.0 ? p_storage * eta : p_storage / eta;
}

void Converter::storage_power_partials(double p_bus, double v, double& d_p,
                                       double& d_v) const {
  const double eta = efficiency(v);
  const double deta = efficiency_dv(v);
  if (p_bus >= 0.0) {
    d_p = 1.0 / eta;
    d_v = -p_bus * deta / (eta * eta);
  } else {
    d_p = eta;
    d_v = p_bus * deta;
  }
}

}  // namespace otem::hees
