// trace_capture.h — collecting the program's own spans during a pass.
//
// The library's tracer keeps the newest kTraceRingCapacity spans per
// thread and overwrites older ones. A traced pass produces far more
// than that, so TraceCapture polls the rings from a background thread
// and keeps every span once (by id) until stop(). Self time is derived
// per thread by interval nesting rather than from recorded parents,
// because sim.step is emitted after the fact (trace_emit) and therefore
// is never the recorded parent of the solver spans it contains.
#pragma once

#include <atomic>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench.h"
#include "obs/trace.h"

namespace otembench {

class TraceCapture {
 public:
  TraceCapture() = default;
  /// Stops polling if stop() was never reached (an exception unwound).
  ~TraceCapture();
  TraceCapture(const TraceCapture&) = delete;
  TraceCapture& operator=(const TraceCapture&) = delete;

  /// Wipe the rings, enable tracing and start polling.
  void start();
  /// Disable tracing, stop polling and return the reduced span totals.
  std::map<std::string, SpanTotals> stop();

 private:
  void poll(bool final_drain);

  std::atomic<bool> running_{false};
  std::mutex mutex_;  ///< guards seen_ and spans_
  std::unordered_set<std::uint64_t> seen_;
  std::vector<otem::obs::SpanRecord> spans_;
  std::thread poller_;  ///< last: it uses every member above
};

/// Fill breakdown.<layer>.share_pct, span.<name>.self_us_per_step and
/// the printable breakdown table (out.detail["breakdown"]) from
/// out.profile, falling back to out.probe_profiles for span metrics the
/// workload's own pass never recorded.
void emit_trace_metrics(Output& out);

}  // namespace otembench
