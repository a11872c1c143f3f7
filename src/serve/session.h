// session.h — resident mission sessions for the serve daemon.
//
// A Session pins the mission `run` would build (sim::prepare_scenario:
// spec, route power trace as the forecast P_hat_e, initial state, a
// resident core::Methodology) and holds a sim::MissionStepper open over
// it. session.step is one stepper step — for otem-ltv the QP warm start
// and KKT factorization carried inside LtvOtemController survive ACROSS
// protocol steps, which is what makes a streamed control decision
// sub-millisecond where a one-shot `run` request pays a cold solve. A
// MetricsAccumulator and (given the server's bundle) a DiagnosticsSink
// ride the stepper, so session.close returns the report a batch run
// would have produced for the steps streamed, and the steps count in
// the daemon's sim.*/solver.* counters — also when the session is
// evicted or dropped instead of closed.
//
// SessionManager owns the resident table: ids are server-assigned
// ("s1", "s2", ...), and eviction is LRU-with-TTL — every access first
// retires sessions idle longer than ttl_s, then evicts from the cold end
// until the table fits max_sessions. An evicted or closed id stops
// resolving (kUnknownSession); a step already executing on an evicted
// session finishes safely on its shared_ptr. Instruments:
// serve.sessions_active (gauge), serve.sessions_evicted / _opened /
// _closed (counters).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/config.h"
#include "core/methodology.h"
#include "obs/metrics.h"
#include "sim/obs_sink.h"
#include "sim/scenario.h"
#include "sim/simulator.h"
#include "sim/step_sink.h"

namespace otem::serve {

/// One resident mission (see header comment). Thread-safe: step() and
/// close() serialize on an internal mutex, so a session id misused from
/// two connections degrades to in-order execution, never a race.
class Session {
 public:
  /// Builds the mission from the same scenario/config vocabulary `run`
  /// uses (sim::prepare_scenario) and begins stepping it with the full
  /// route as the forecast. When `instruments` is given, streamed steps
  /// also feed that sim.*/solver.* bundle; it must outlive the session.
  /// Throws otem::SimError on any invalid configuration (the server
  /// maps that to kBadRequest).
  Session(std::string id, const sim::Scenario& scenario, const Config& cfg,
          const sim::DiagnosticsSink::Instruments* instruments = nullptr);
  /// Ends the sinks if close() never ran (eviction, drain).
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const std::string& id() const { return id_; }
  const std::string& methodology() const { return methodology_name_; }
  double dt() const { return setup_.power.dt(); }
  size_t route_steps() const { return setup_.power.size(); }

  struct StepOutcome {
    size_t k = 0;             ///< step index that was just executed
    double p_request_w = 0.0; ///< the request actually served
    core::StepRecord rec;
  };

  /// Execute one plant step. `has_p` supplies an explicit power request
  /// (deviating from the forecast, as real traffic does); otherwise the
  /// session serves the next value of its own route trace. Throws
  /// otem::SimError once the route is exhausted and no explicit request
  /// is given.
  StepOutcome step(bool has_p, double p_request_w);

  /// Finalize the accumulated report over the steps streamed so far.
  /// The session is unusable afterwards (the manager removes it first).
  sim::RunResult close();

  size_t steps_done() const;

 private:
  std::string id_;
  std::string methodology_name_;
  sim::ScenarioSetup setup_;
  sim::MetricsAccumulator metrics_;
  std::unique_ptr<sim::DiagnosticsSink> diagnostics_;
  sim::MissionStepper stepper_;
  mutable std::mutex mutex_;
};

struct SessionLimits {
  /// Resident-session ceiling; opening past it evicts the LRU session.
  size_t max_sessions = 64;
  /// Idle time after which a session is evictable [s]; 0 disables the
  /// TTL sweep (LRU capacity eviction still applies).
  double ttl_s = 300.0;
};

class SessionManager {
 public:
  SessionManager(const SessionLimits& limits, obs::MetricsRegistry& registry);

  /// The next server-assigned session id ("s1", "s2", ...); unique for
  /// the server's lifetime even when the insert that follows fails.
  std::string next_id();

  /// Make `session` resident under its id, evicting expired + LRU
  /// sessions to fit. False when max_sessions == 0 (sessions disabled).
  bool insert(std::shared_ptr<Session> session);

  /// Resolve an id and mark it most-recently-used; nullptr when the id
  /// is not resident (never opened, closed, or evicted).
  std::shared_ptr<Session> find(const std::string& id);

  /// Remove an id for session.close; nullptr when not resident.
  std::shared_ptr<Session> remove(const std::string& id);

  /// Drop every resident session (drain path; not counted as
  /// evictions).
  void clear();

  size_t active() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Entry {
    std::shared_ptr<Session> session;
    Clock::time_point last_used;
    std::list<std::string>::iterator lru_pos;
  };

  /// Retire TTL-expired entries, then LRU-evict until `headroom` slots
  /// are free. Caller holds mutex_.
  void evict_locked(size_t headroom);

  SessionLimits limits_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;  ///< most-recently-used at front
  std::atomic<std::uint64_t> next_id_{1};

  obs::Gauge& active_gauge_;
  obs::Counter& opened_;
  obs::Counter& closed_;
  obs::Counter& evicted_;
};

}  // namespace otem::serve
