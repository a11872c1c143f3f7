// metrics.h — thread-safe instrumentation registry.
//
// A MetricsRegistry owns named counters, gauges and fixed-bucket
// histograms. Counters and histograms are SHARDED: each instrument
// keeps kShards cache-line-separated atomic slots and a thread writes
// the slot picked by its thread-local shard id, so concurrent missions
// (campaign workers, serve runs and sessions) update the same
// instrument without contending on one cache line. snapshot() aggregates the shards into
// plain numbers; totals are exact (integers summed) whenever the
// registry is quiescent, so `threads=N` produces the same snapshot as
// `threads=1` for the same work.
//
// Gauges are last-write-wins (a single atomic slot, no sharding) —
// they record a level, not a rate.
//
// Kill switch: obs::set_enabled(false) turns every record path into a
// cheap early-out (one relaxed load), and compiling with
// -DOTEM_OBS_DISABLED makes enabled() a constant so the compiler
// removes the instrumentation entirely. Instrument REGISTRATION always
// works; only recording is gated, so snapshots of a disabled registry
// are well-formed (all zeros).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.h"
#include "obs/sketch.h"

namespace otem::obs {

/// Global recording switch (process-wide, default on).
#ifdef OTEM_OBS_DISABLED
constexpr bool enabled() { return false; }
inline void set_enabled(bool) {}
#else
bool enabled();
void set_enabled(bool on);
#endif

namespace detail {
/// Shard count per instrument. A power of two so the shard pick is a
/// mask; 16 slots × 64 B keeps an instrument within 1 KiB.
constexpr size_t kShards = 16;

/// This thread's shard slot: a thread-local id assigned on first use,
/// masked into [0, kShards).
size_t shard_index();

/// One cache line worth of padding between shard slots.
struct alignas(64) CounterSlot {
  std::atomic<std::uint64_t> value{0};
};
struct alignas(64) GaugeSlot {
  std::atomic<double> value{0.0};
};
}  // namespace detail

/// Monotonic event count. add() is wait-free; value() is exact when
/// writers are quiescent.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (!enabled()) return;
    shards_[detail::shard_index()].value.fetch_add(
        n, std::memory_order_relaxed);
  }
  std::uint64_t value() const;

 private:
  detail::CounterSlot shards_[detail::kShards];
};

/// Last-written level (not sharded: the latest set wins globally).
class Gauge {
 public:
  void set(double v) {
    if (!enabled()) return;
    value_.value.store(v, std::memory_order_relaxed);
  }
  double value() const {
    return value_.value.load(std::memory_order_relaxed);
  }

 private:
  detail::GaugeSlot value_;
};

/// Fixed-bucket histogram: `upper_edges` are inclusive upper bounds in
/// ascending order, plus one implicit overflow bucket. record() also
/// tracks count/sum/min/max for summary statistics.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_edges);

  void record(double value);

  const std::vector<double>& upper_edges() const { return edges_; }

  struct Snapshot {
    std::vector<double> upper_edges;
    std::vector<std::uint64_t> counts;  ///< edges.size() + 1 (overflow last)
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  ///< 0 when count == 0
    double max = 0.0;
  };
  Snapshot snapshot() const;

 private:
  struct alignas(64) Summary {
    std::atomic<std::uint64_t> n{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> min{0.0};  ///< +inf until the first record
    std::atomic<double> max{0.0};  ///< -inf until the first record
  };

  std::vector<double> edges_;
  size_t stride_ = 0;  ///< bucket slots per shard, cache-line aligned
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;  ///< kShards*stride_
  Summary summaries_[detail::kShards];
};

/// Aggregated view of a whole registry; maps keep names sorted so the
/// JSON rendering is byte-stable for a given set of values.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Histogram::Snapshot> histograms;
  std::map<std::string, Sketch::Snapshot> sketches;
};

/// Named instrument registry. Lookup/creation takes a mutex (do it once
/// per run, not per step); the returned references stay valid for the
/// registry's lifetime and their record paths are lock-free.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Registers the histogram on first use; a second call with the same
  /// name returns the existing instrument (edges must match — throws
  /// otem::SimError otherwise).
  Histogram& histogram(const std::string& name,
                       const std::vector<double>& upper_edges);
  /// Mergeable quantile sketch (obs/sketch.h); k must match on
  /// re-registration (throws otem::SimError otherwise).
  Sketch& sketch(const std::string& name, size_t k = kDefaultSketchK);

  MetricsSnapshot snapshot() const;

  /// Process-wide default registry.
  static MetricsRegistry& global();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<Sketch>> sketches_;
};

/// Common bucket ladders.
/// 1-2-5 ladder covering [1 us, 10 s] — the latency default.
std::vector<double> latency_buckets_us();
/// 1-2-5 ladder covering [1, 5000] — iteration counts.
std::vector<double> iteration_buckets();
/// Powers of ten covering [1e-10, 1] — solver residuals.
std::vector<double> residual_buckets();

/// Stable JSON rendering of a snapshot (schema "otem.metrics.v1"):
/// {"schema": ..., "counters": {name: n}, "gauges": {name: v},
///  "histograms": {name: {count,sum,min,max,mean,
///                        buckets:[{le,count}...]}},
///  "sketches": {name: {count,sum,min,max,mean,p50,p95,p99,p999}}}
/// Bucket objects carry their inclusive upper edge `le`; the overflow
/// bucket's edge is the string "inf". Names are sorted. The "sketches"
/// section is additive (readers of the pre-sketch v1 shape ignore it).
Json snapshot_to_json(const MetricsSnapshot& snapshot);

/// snapshot() + snapshot_to_json() + write to `path`; throws
/// otem::SimError on I/O failure.
void write_metrics_json(const std::string& path,
                        const MetricsRegistry& registry);

}  // namespace otem::obs
