// bench.h — shared vocabulary of the otembench binary.
//
// The binary runs one workload (serve-stream, mission-us06 or
// campaign-reactive) against the library's public entry points and
// fills an Output: named metrics with units, an attempted/failed
// operation tally, the correctness checks it ran, and free-form detail
// (daemon counters, the per-layer breakdown table) for the result file.
// Workloads never print the final result line; main.cpp does.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"

namespace otembench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Per-span-name self time over one traced pass.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_us = 0.0;  ///< sum of span durations
  double self_us = 0.0;   ///< durations minus nested children (same thread)
};

/// A traced pass, reduced: self time per span name plus the pass's
/// denominator (the wall time of the operations the shares refer to)
/// and the number of control steps it executed.
struct SpanProfile {
  std::map<std::string, SpanTotals> spans;
  double denom_us = 0.0;
  double steps = 0.0;
  std::string denom_label;
};

struct Output {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  struct Check {
    std::string name;
    bool ok = true;
    std::string detail;
  };
  std::vector<Check> checks;
  otem::Json detail = otem::Json::object();
  /// The workload's own traced pass (empty when untraced).
  SpanProfile profile;
  /// Traced probes of layers the workload does not drive; span metrics
  /// fall back to these.
  std::vector<SpanProfile> probe_profiles;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  bool has(const std::string& name) const { return metrics.count(name) > 0; }
  /// Record a correctness check; a failed check counts one failed op.
  void check(const std::string& name, bool ok, const std::string& detail) {
    checks.push_back({name, ok, detail});
    if (!ok) ++failed;
  }
};

inline double now_s() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank quantile of an unsorted sample (q in [0, 1]); 0 when
/// empty.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  if (idx >= v.size()) idx = v.size() - 1;
  return v[idx];
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Set-up time as reported: one discarded warm-up (lazy registries,
/// first-touch pages), then the median of `reps` timed calls of
/// `once(rep)`, each returning seconds.
template <class F>
double median_setup_s(size_t reps, F once) {
  (void)once(reps);
  std::vector<double> s;
  for (size_t rep = 0; rep < reps; ++rep) s.push_back(once(rep));
  return median(s);
}

inline bool finite_all(std::initializer_list<double> xs) {
  for (double x : xs)
    if (!std::isfinite(x)) return false;
  return true;
}

/// Deterministic 64-bit mix (SplitMix64 finalizer) for deriving
/// per-mission seeds from the benchmark seed.
inline std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// A seed in [1, 2^31) for config keys parsed as signed long.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a,
                                 std::uint64_t b = 0) {
  return 1 + mix(mix(seed) ^ mix(a * 0x100000001b3ULL + b)) % 2147483646ULL;
}

/// Uniform double in [0, 1) from a derived seed.
inline double unit_draw(std::uint64_t seed, std::uint64_t a) {
  return static_cast<double>(mix(mix(seed) ^ (a + 0x5bd1e995ULL)) >> 11) *
         0x1.0p-53;
}

// Workloads (one call fills `out` for the workload named in `opts`).
void run_serve_stream(const Options& opts, Output& out);
void run_mission_us06(const Options& opts, Output& out);
void run_campaign_reactive(const Options& opts, Output& out);

// Layer probes: fill the per-layer metrics of layers the traced
// workload does not drive, from a reduced version of their home
// workload (README.md, "Per-layer metrics").
void probe_serve_layers(const Options& opts, Output& out);
void probe_mission_layers(const Options& opts, Output& out);
void probe_campaign_layers(const Options& opts, Output& out);

}  // namespace otembench
