#include "campaign/accumulator.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/strings.h"

namespace otem::campaign {

// --- ScenarioResult -----------------------------------------------------

namespace {
constexpr const char* kDimNames[ScenarioResult::kDims] = {
    "qloss_percent",      "average_power_w",   "max_t_battery_k",
    "thermal_violation_s", "unserved_energy_j", "energy_cooling_j",
};
}  // namespace

const char* ScenarioResult::dim_name(size_t d) {
  OTEM_REQUIRE(d < kDims, "scenario result dimension out of range");
  return kDimNames[d];
}

double ScenarioResult::dim(size_t d) const {
  switch (d) {
    case 0: return qloss_percent;
    case 1: return average_power_w;
    case 2: return max_t_battery_k;
    case 3: return thermal_violation_s;
    case 4: return unserved_energy_j;
    case 5: return energy_cooling_j;
    default: OTEM_REQUIRE(false, "scenario result dimension out of range");
  }
}

void ScenarioResult::set_dim(size_t d, double v) {
  switch (d) {
    case 0: qloss_percent = v; break;
    case 1: average_power_w = v; break;
    case 2: max_t_battery_k = v; break;
    case 3: thermal_violation_s = v; break;
    case 4: unserved_energy_j = v; break;
    case 5: energy_cooling_j = v; break;
    default: OTEM_REQUIRE(false, "scenario result dimension out of range");
  }
}

ScenarioResult ScenarioResult::from_run(const sim::RunResult& r) {
  ScenarioResult out;
  out.qloss_percent = r.qloss_percent;
  out.average_power_w = r.average_power_w;
  out.max_t_battery_k = r.max_t_battery_k;
  out.thermal_violation_s = r.thermal_violation_s;
  out.unserved_energy_j = r.unserved_energy_j;
  out.energy_cooling_j = r.energy_cooling_j;
  return out;
}

Json ScenarioResult::to_json() const {
  Json doc = Json::object();
  for (size_t d = 0; d < kDims; ++d)
    doc.set(dim_name(d), strings::hex_double(dim(d)));
  return doc;
}

ScenarioResult ScenarioResult::from_json(const Json& doc) {
  ScenarioResult out;
  for (size_t d = 0; d < kDims; ++d) {
    const Json* v = doc.find(dim_name(d));
    OTEM_REQUIRE(v != nullptr && v->is_string(),
                 std::string("scenario result json: missing ") + dim_name(d));
    out.set_dim(d, strings::parse_hex_double(v->as_string()));
  }
  return out;
}

// --- Welford ------------------------------------------------------------

void Welford::add(double v) {
  if (n_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++n_;
  sum_ += v;
  const double delta = v - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (v - mean_);
}

double Welford::stddev() const {
  return n_ > 1 ? std::sqrt(m2_ / static_cast<double>(n_)) : 0.0;
}

Json Welford::to_json() const {
  Json doc = Json::object();
  doc.set("n", static_cast<double>(n_));
  doc.set("mean", strings::hex_double(mean_));
  doc.set("m2", strings::hex_double(m2_));
  doc.set("min", strings::hex_double(min_));
  doc.set("max", strings::hex_double(max_));
  doc.set("sum", strings::hex_double(sum_));
  return doc;
}

Welford Welford::from_json(const Json& doc) {
  Welford out;
  const Json* n = doc.find("n");
  OTEM_REQUIRE(n != nullptr && n->is_number(), "welford json: missing n");
  out.n_ = static_cast<std::uint64_t>(n->as_number());
  auto hex = [&](const char* key) {
    const Json* v = doc.find(key);
    OTEM_REQUIRE(v != nullptr && v->is_string(),
                 std::string("welford json: missing ") + key);
    return strings::parse_hex_double(v->as_string());
  };
  out.mean_ = hex("mean");
  out.m2_ = hex("m2");
  out.min_ = hex("min");
  out.max_ = hex("max");
  out.sum_ = hex("sum");
  return out;
}

// --- CampaignAccumulator ------------------------------------------------

CampaignAccumulator::CampaignAccumulator(size_t sketch_k) : k_(sketch_k) {}

void CampaignAccumulator::commit(const std::string& group,
                                 const ScenarioResult& r) {
  // Checked before anything is folded: a refused result leaves the
  // accumulator exactly as it was.
  for (size_t d = 0; d < ScenarioResult::kDims; ++d)
    OTEM_REQUIRE(std::isfinite(r.dim(d)),
                 std::string("campaign: non-finite ") +
                     ScenarioResult::dim_name(d) + " in a '" + group +
                     "' result");
  auto it = groups_.find(group);
  if (it == groups_.end()) {
    Group g;
    g.dims.reserve(ScenarioResult::kDims);
    for (size_t d = 0; d < ScenarioResult::kDims; ++d) g.dims.emplace_back(k_);
    it = groups_.emplace(group, std::move(g)).first;
  }
  Group& g = it->second;
  ++g.scenarios;
  for (size_t d = 0; d < ScenarioResult::kDims; ++d) {
    const double v = r.dim(d);
    g.dims[d].welford.add(v);
    g.dims[d].sketch.add(v);
  }
  ++committed_;
}

Json CampaignAccumulator::groups_json() const {
  Json out = Json::object();
  for (const auto& [name, g] : groups_) {
    Json group = Json::object();
    group.set("scenarios", static_cast<double>(g.scenarios));
    Json metrics = Json::object();
    for (size_t d = 0; d < ScenarioResult::kDims; ++d) {
      const Welford& w = g.dims[d].welford;
      const obs::QuantileSketch& s = g.dims[d].sketch;
      Json m = Json::object();
      m.set("count", static_cast<double>(w.count()));
      m.set("mean", w.mean());
      m.set("stddev", w.stddev());
      m.set("min", w.min());
      m.set("max", w.max());
      m.set("sum", w.sum());
      m.set("p50", s.quantile(0.50));
      m.set("p95", s.quantile(0.95));
      m.set("p99", s.quantile(0.99));
      metrics.set(ScenarioResult::dim_name(d), std::move(m));
    }
    group.set("metrics", std::move(metrics));
    out.set(name, std::move(group));
  }
  return out;
}

Json CampaignAccumulator::to_json() const {
  Json doc = Json::object();
  doc.set("k", k_);
  doc.set("committed", static_cast<double>(committed_));
  Json groups = Json::object();
  for (const auto& [name, g] : groups_) {
    Json group = Json::object();
    group.set("scenarios", static_cast<double>(g.scenarios));
    Json dims = Json::object();
    for (size_t d = 0; d < ScenarioResult::kDims; ++d) {
      Json dim = Json::object();
      dim.set("welford", g.dims[d].welford.to_json());
      dim.set("sketch", g.dims[d].sketch.to_json());
      dims.set(ScenarioResult::dim_name(d), std::move(dim));
    }
    group.set("dims", std::move(dims));
    groups.set(name, std::move(group));
  }
  doc.set("groups", std::move(groups));
  return doc;
}

CampaignAccumulator CampaignAccumulator::from_json(const Json& doc) {
  const Json* k = doc.find("k");
  OTEM_REQUIRE(k != nullptr && k->is_number(),
               "campaign accumulator json: missing k");
  CampaignAccumulator out(static_cast<size_t>(k->as_number()));
  const Json* committed = doc.find("committed");
  OTEM_REQUIRE(committed != nullptr && committed->is_number(),
               "campaign accumulator json: missing committed");
  out.committed_ = static_cast<std::uint64_t>(committed->as_number());
  const Json* groups = doc.find("groups");
  OTEM_REQUIRE(groups != nullptr && groups->is_object(),
               "campaign accumulator json: missing groups");
  for (const auto& [name, group] : groups->members()) {
    Group g;
    const Json* scenarios = group.find("scenarios");
    OTEM_REQUIRE(scenarios != nullptr && scenarios->is_number(),
                 "campaign accumulator json: group missing scenarios");
    g.scenarios = static_cast<std::uint64_t>(scenarios->as_number());
    const Json* dims = group.find("dims");
    OTEM_REQUIRE(dims != nullptr && dims->is_object(),
                 "campaign accumulator json: group missing dims");
    for (size_t d = 0; d < ScenarioResult::kDims; ++d) {
      const Json* dim = dims->find(ScenarioResult::dim_name(d));
      OTEM_REQUIRE(dim != nullptr,
                   std::string("campaign accumulator json: missing dim ") +
                       ScenarioResult::dim_name(d));
      const Json* welford = dim->find("welford");
      const Json* sketch = dim->find("sketch");
      OTEM_REQUIRE(welford != nullptr && sketch != nullptr,
                   "campaign accumulator json: incomplete dim");
      Dim restored(out.k_);
      restored.welford = Welford::from_json(*welford);
      restored.sketch = obs::QuantileSketch::from_json(*sketch);
      OTEM_REQUIRE(restored.sketch.k() == out.k_,
                   "campaign accumulator json: sketch k mismatch");
      g.dims.push_back(std::move(restored));
    }
    out.groups_.emplace(name, std::move(g));
  }
  return out;
}

}  // namespace otem::campaign
