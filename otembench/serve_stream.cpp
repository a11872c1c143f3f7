// serve_stream.cpp — the serve-stream workload and the serve layer probe.
//
// Closed loop over localhost TCP: an in-process daemon (workers=2) and
// two persistent clients. Each client opens an otem-ltv session in the
// RTI serving config (ltv.sqp_iterations=1 ltv.qp.eps=0.2, H=30) on a
// seeded synthetic route, sends session.step for every route sample,
// waiting for each decision before the next step, then session.close.
// Clients start new missions until the measuring time is spent (and at
// least kMinMissions each, so the quality means always cover the same
// seeded routes). Every closed report is checked against an offline
// sim::run_scenario of the same route and config, bit for bit.
#include <memory>
#include <thread>

#include "common/error.h"
#include "layers.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session.h"
#include "sim/report.h"
#include "sim/scenario.h"
#include "trace_capture.h"

namespace otembench {

namespace serve = otem::serve;
namespace sim = otem::sim;
using otem::Json;

namespace {

constexpr size_t kClients = 2;
constexpr size_t kWorkers = 2;
constexpr double kRouteS = 1800.0;     ///< synthetic mission length [s]
constexpr double kProbeRouteS = 300.0; ///< route length in the layer probe
constexpr double kOneShotRouteS = 60.0;
constexpr size_t kMinMissions = 8;     ///< per client, untraced run
constexpr size_t kSetupReps = 8;       ///< before and again after streaming
constexpr size_t kCheckThreads = 3;

using Overrides = std::vector<std::pair<std::string, std::string>>;

Overrides session_overrides(std::uint64_t route_seed, double route_s) {
  return {{"method", "otem-ltv"},
          {"ltv.sqp_iterations", "1"},
          {"ltv.qp.eps", "0.2"},
          {"otem.horizon", "30"},
          {"synthetic", "true"},
          {"synthetic_seed", std::to_string(route_seed)},
          {"synthetic_duration_s", std::to_string(route_s)}};
}

otem::Config to_config(const Overrides& ov) {
  otem::Config cfg;
  for (const auto& [k, v] : ov) cfg.set(k, v);
  return cfg;
}

/// An in-process daemon on an ephemeral localhost TCP port.
class Daemon {
 public:
  Daemon() {
    serve::ServerOptions opts;
    opts.workers = kWorkers;
    opts.session_limit = 16;
    opts.cache_bytes = 8u << 20;
    server_ = std::make_unique<serve::Server>(opts);
    thread_ = std::thread([this] { (void)server_->serve_tcp("127.0.0.1:0"); });
    const double deadline = now_s() + 10.0;
    while (server_->bound_port() == 0) {
      if (now_s() > deadline) {
        server_->request_stop();
        thread_.join();
        throw otem::SimError("daemon did not bind a localhost TCP port");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    endpoint_ = "127.0.0.1:" + std::to_string(server_->bound_port());
  }
  ~Daemon() {
    server_->request_stop();
    thread_.join();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  const std::string& endpoint() const { return endpoint_; }

 private:
  std::unique_ptr<serve::Server> server_;
  std::thread thread_;
  std::string endpoint_;
};

Json call(serve::Connection& conn, const serve::Request& req) {
  return Json::parse(conn.roundtrip(serve::build_request(req), 300.0));
}

bool ok_reply(const Json& reply) {
  const Json* ok = reply.find("ok");
  return ok != nullptr && ok->is_bool() && ok->as_bool();
}

const Json* field(const Json* obj, const char* key) {
  return obj == nullptr ? nullptr : obj->find(key);
}

/// A member the protocol guarantees; its absence is a failed operation.
const Json& member(const Json* obj, const char* key) {
  const Json* v = field(obj, key);
  OTEM_REQUIRE(v != nullptr, std::string("reply lacks '") + key + "'");
  return *v;
}

double num(const Json* obj, const char* key) {
  const Json* v = field(obj, key);
  return v != nullptr && v->is_number() ? v->as_number() : std::nan("");
}

/// True when every listed member of `obj` is a number (the wire writes
/// non-finite doubles as null).
bool numbers_finite(const Json* obj, std::initializer_list<const char*> keys) {
  for (const char* k : keys)
    if (!std::isfinite(num(obj, k))) return false;
  return true;
}

bool report_finite(const Json* report) {
  if (report == nullptr || !report->is_object()) return false;
  for (const auto& [key, value] : report->members())
    if (!value.is_object() && !value.is_number()) return false;
  return true;
}

struct Mission {
  std::uint64_t route_seed = 0;
  double route_s = 0.0;
  double steps_per_s = 0.0;  ///< route steps over open-to-close time
  Json report;
  std::string report_hex;
};

struct ClientTally {
  std::vector<double> rtt_us, nonsolve_us, open_ms;
  SolveTally solves;  // from the step replies (no stage-block ops there)
  std::vector<Mission> missions;
  size_t steps = 0, requests = 0, failed = 0, nonfinite_steps = 0;
  std::string error;
};

struct PassConfig {
  double seconds = 0.0;
  size_t min_missions = 1;
  double route_s = kRouteS;
  /// After streaming, each client sends one cache-bypassed `run`: the
  /// only traffic that passes the admission queue.
  bool oneshot = false;
};

struct PassResult {
  std::vector<ClientTally> clients;
  Json stats;     ///< the daemon's `stats` reply result
  Json counters;  ///< the daemon's `metrics` counters

  double steps() const {
    double n = 0;
    for (const ClientTally& c : clients) n += static_cast<double>(c.steps);
    return n;
  }
  /// Sum over clients of each client's median per-mission step rate: a
  /// client finishing its last mission alone does not dilute it, and a
  /// burst of host load over a minority of missions does not move it.
  double steps_per_s() const {
    double r = 0;
    for (const ClientTally& c : clients) {
      std::vector<double> rates;
      for (const Mission& m : c.missions) rates.push_back(m.steps_per_s);
      r += median(rates);
    }
    return r;
  }
  std::vector<double> all(std::vector<double> ClientTally::*member) const {
    std::vector<double> v;
    for (const ClientTally& c : clients)
      v.insert(v.end(), (c.*member).begin(), (c.*member).end());
    return v;
  }
};

void run_client(const std::string& endpoint, std::uint64_t seed, size_t c,
                const PassConfig& pc, ClientTally& t) {
  try {
    serve::Connection conn(endpoint);
    const double t_start = now_s();
    for (size_t m = 0;; ++m) {
      if (m >= pc.min_missions && now_s() - t_start >= pc.seconds) break;
      Mission mission;
      mission.route_seed = derive_seed(seed, c, m);
      mission.route_s = pc.route_s;

      serve::Request open;
      open.method = "session.open";
      open.overrides = session_overrides(mission.route_seed, pc.route_s);
      const double t0 = now_s();
      size_t mission_steps = 0;
      ++t.requests;
      const Json od = call(conn, open);
      t.open_ms.push_back((now_s() - t0) * 1e3);
      OTEM_REQUIRE(ok_reply(od), "session.open refused: " + od.dump(0));
      const Json* oresult = od.find("result");
      const std::string sid = member(oresult, "session").as_string();
      const size_t route_steps =
          static_cast<size_t>(num(oresult, "route_steps"));

      serve::Request step;
      step.method = "session.step";
      step.session = sid;
      const std::string step_line = serve::build_request(step);
      for (size_t k = 0; k < route_steps; ++k) {
        std::string reply;
        ++t.requests;
        const double s0 = otem::obs::now_us();
        {
          const otem::obs::TraceSpan span("bench.session.step");
          reply = conn.roundtrip(step_line, 300.0);
        }
        const double rtt = otem::obs::now_us() - s0;
        const Json sd = Json::parse(reply);
        OTEM_REQUIRE(ok_reply(sd), "session.step refused: " + sd.dump(0));
        const Json* r = sd.find("result");
        const Json* solve = field(r, "solve");
        const bool finite =
            numbers_finite(field(r, "decision"),
                           {"p_cooler_w", "t_inlet_k", "p_cap_w", "i_bat_a",
                            "i_cap_a"}) &&
            numbers_finite(field(r, "state"),
                           {"t_battery_k", "t_coolant_k", "soc_percent",
                            "soe_percent"});
        if (!finite) {
          ++t.nonfinite_steps;
          ++t.failed;
        }
        otem::core::SolveDiagnostics d;
        d.present = true;
        const Json* fallback = field(solve, "fallback");
        d.fallback = fallback != nullptr && fallback->is_bool() &&
                     fallback->as_bool();
        d.sqp_rounds = static_cast<size_t>(num(solve, "sqp_rounds"));
        d.qp_iterations = static_cast<size_t>(num(solve, "qp_iterations"));
        d.qp_warm_hits = static_cast<size_t>(num(solve, "qp_warm_hits"));
        d.kkt_refactorizations =
            static_cast<size_t>(num(solve, "kkt_refactorizations"));
        d.qp_polish_hits = static_cast<size_t>(num(solve, "qp_polish_hits"));
        d.solve_time_us = num(solve, "solve_time_us");
        t.solves.add(d, k == 0);
        t.rtt_us.push_back(rtt);
        t.nonsolve_us.push_back(rtt - d.solve_time_us);
        ++t.steps;
        ++mission_steps;
      }

      serve::Request close;
      close.method = "session.close";
      close.session = sid;
      close.hex_doubles = true;
      ++t.requests;
      const Json cd = call(conn, close);
      OTEM_REQUIRE(ok_reply(cd), "session.close refused: " + cd.dump(0));
      mission.steps_per_s = static_cast<double>(mission_steps) / (now_s() - t0);
      const Json* cresult = cd.find("result");
      mission.report = member(cresult, "report");
      mission.report_hex = member(cresult, "report_hex").dump(0);
      t.missions.push_back(std::move(mission));
    }
  } catch (const std::exception& e) {
    t.error = e.what();
    ++t.failed;
  }
}

PassResult stream_pass(std::uint64_t seed, const PassConfig& pc) {
  PassResult pass;
  pass.clients.resize(kClients);
  Daemon daemon;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c)
    threads.emplace_back([&, c] {
      run_client(daemon.endpoint(), seed, c, pc, pass.clients[c]);
    });
  for (std::thread& th : threads) th.join();

  // The daemon's own view after the traffic: the solver.* / sim.*
  // counters sessions feed (read before any `run` request adds to
  // them), then step handling and queue-wait quantiles.
  serve::Connection probe(daemon.endpoint());
  serve::Request metrics;
  metrics.method = "metrics";
  const Json md = call(probe, metrics);
  if (ok_reply(md)) pass.counters = member(md.find("result"), "counters");
  if (pc.oneshot) {
    threads.clear();
    for (size_t c = 0; c < kClients; ++c)
      threads.emplace_back([&, c] {
        ClientTally& t = pass.clients[c];
        try {
          serve::Connection conn(daemon.endpoint());
          serve::Request run;
          run.method = "run";
          run.cache_bypass = true;
          run.overrides =
              session_overrides(derive_seed(seed, 100 + c), kOneShotRouteS);
          ++t.requests;
          const Json rd = call(conn, run);
          OTEM_REQUIRE(ok_reply(rd), "one-shot run refused: " + rd.dump(0));
        } catch (const std::exception& e) {
          t.error = e.what();
          ++t.failed;
        }
      });
    for (std::thread& th : threads) th.join();
  }
  serve::Request stats;
  stats.method = "stats";
  const Json sd = call(probe, stats);
  if (ok_reply(sd)) pass.stats = member(&sd, "result");
  pass.clients.front().requests += 2;
  return pass;
}

/// Daemon start, two connections and two session.open calls — what a
/// fleet pays before its first decision.
double measure_setup(std::uint64_t seed, size_t rep) {
  const double t0 = now_s();
  Daemon daemon;
  std::vector<std::unique_ptr<serve::Connection>> conns;
  std::vector<std::string> sids;
  for (size_t c = 0; c < kClients; ++c) {
    conns.push_back(std::make_unique<serve::Connection>(daemon.endpoint()));
    serve::Request open;
    open.method = "session.open";
    open.overrides = session_overrides(derive_seed(seed, 1000 + rep, c), kRouteS);
    const Json od = call(*conns.back(), open);
    OTEM_REQUIRE(ok_reply(od), "session.open refused: " + od.dump(0));
    sids.push_back(member(od.find("result"), "session").as_string());
  }
  const double setup = now_s() - t0;
  for (size_t c = 0; c < kClients; ++c) {
    serve::Request close;
    close.method = "session.close";
    close.session = sids[c];
    (void)call(*conns[c], close);
  }
  return setup;
}

/// Every closed report must be finite and bit-identical (hex doubles)
/// to an offline run_scenario of the same route and config.
void check_missions(const PassResult& pass, Output& out) {
  std::vector<const Mission*> missions;
  for (const ClientTally& c : pass.clients)
    for (const Mission& m : c.missions) missions.push_back(&m);
  std::vector<std::string> mismatch(missions.size());
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kCheckThreads; ++w)
    threads.emplace_back([&, w] {
      for (size_t i = w; i < missions.size(); i += kCheckThreads) {
        const Mission& m = *missions[i];
        try {
          const otem::Config cfg =
              to_config(session_overrides(m.route_seed, m.route_s));
          sim::Scenario sc = sim::Scenario::from_config(cfg);
          sc.record_trace = false;
          const std::string hex =
              sim::run_result_to_hex_json(sim::run_scenario(sc, cfg).result)
                  .dump(0);
          if (!report_finite(&m.report))
            mismatch[i] = "non-finite report";
          else if (hex != m.report_hex)
            mismatch[i] = "session report differs from offline run_scenario";
        } catch (const std::exception& e) {
          mismatch[i] = std::string("offline run failed: ") + e.what();
        }
      }
    });
  for (std::thread& th : threads) th.join();
  for (size_t i = 0; i < missions.size(); ++i) {
    out.check("serve.session_close_matches_offline[seed=" +
                  std::to_string(missions[i]->route_seed) + "]",
              mismatch[i].empty(), mismatch[i]);
  }
  for (const ClientTally& c : pass.clients) {
    out.check("serve.client_completed", c.error.empty(), c.error);
    out.check("serve.steps_finite", c.nonfinite_steps == 0,
              std::to_string(c.nonfinite_steps) + " non-finite step replies");
  }
}

/// Requests count as attempted operations; their failures surface as
/// failed checks (check_missions), which count as failed operations.
void tally_ops(const PassResult& pass, Output& out) {
  for (const ClientTally& c : pass.clients) out.attempted += c.requests;
}

/// Session::step in-process on client 0's first route: no socket, no
/// protocol. Its diagnostics carry every qp.* count, stage-block ops
/// included, exactly.
void session_inprocess(std::uint64_t seed, double route_s, Output& out,
                       double rtt_p50_us) {
  const otem::Config cfg =
      to_config(session_overrides(derive_seed(seed, 0, 0), route_s));
  serve::Session session("bench", sim::Scenario::from_config(cfg), cfg);
  std::vector<double> step_us;
  SolveTally tally;
  for (size_t k = 0; k < session.route_steps(); ++k) {
    const double t0 = otem::obs::now_us();
    const serve::Session::StepOutcome o = session.step(false, 0.0);
    step_us.push_back(otem::obs::now_us() - t0);
    tally.add(o.rec.solve, k == 0);
  }
  (void)session.close();
  const double p50 = median(step_us);
  out.set("session.step_us.p50", p50, "us");
  out.set("serve.rtt_over_session_step", p50 > 0 ? rtt_p50_us / p50 : 0.0,
          "ratio");
  tally.emit_counts(out);
}

/// The serve/session/controller/qp per-layer metrics of one untraced
/// pass, plus the daemon counters beside the client's step tally.
void emit_serve_layers(std::uint64_t seed, const PassResult& pass,
                       double route_s, Output& out) {
  const double rtt_p50 = median(pass.all(&ClientTally::rtt_us));
  out.set("serve.nonsolve_us.p50", median(pass.all(&ClientTally::nonsolve_us)),
          "us");
  const Json* step_us = pass.stats.find("session_step_us");
  const Json* queue_us = pass.stats.find("queue_wait_us");
  out.set("serve.daemon_step_us.p50", num(step_us, "p50"), "us");
  out.set("serve.queue_wait_us.p99", num(queue_us, "p99"), "us");
  out.set("serve.session_open_ms", median(pass.all(&ClientTally::open_ms)),
          "ms");
  double sent = 0, failed = 0;
  SolveTally replies;
  for (const ClientTally& c : pass.clients) {
    sent += static_cast<double>(c.requests);
    failed += static_cast<double>(c.failed);
    replies.solve_us.insert(replies.solve_us.end(), c.solves.solve_us.begin(),
                            c.solves.solve_us.end());
  }
  out.set("serve.requests_sent", sent, "count");
  out.set("serve.requests_failed", failed, "count");
  // The daemon's counters next to the client's own tally: sessions do
  // not feed solver.*/sim.* today, and this shows it rather than hiding
  // it.
  const double solves = num(&pass.counters, "solver.solves");
  const double sim_steps = num(&pass.counters, "sim.steps");
  out.set("serve.client_steps", pass.steps(), "count");
  out.set("serve.daemon.solver_solves", std::isfinite(solves) ? solves : 0.0,
          "count");
  out.set("serve.daemon.sim_steps", std::isfinite(sim_steps) ? sim_steps : 0.0,
          "count");
  replies.emit_solve_time(out);
  session_inprocess(seed, route_s, out, rtt_p50);

  Json d = Json::object();
  d.set("client_steps", pass.steps());
  d.set("daemon_counters", pass.counters);
  d.set("daemon_stats", pass.stats);
  d.set("queue_wait_samples", num(queue_us, "count"));
  out.detail.set("serve", std::move(d));
}

/// Route power-trace build time for the session route (vehicle layer).
void emit_power_trace_time(std::uint64_t seed, double route_s, Output& out) {
  const otem::Config cfg =
      to_config(session_overrides(derive_seed(seed, 0, 0), route_s));
  const sim::Scenario sc = sim::Scenario::from_config(cfg);
  const otem::core::SystemSpec spec = otem::core::SystemSpec::from_config(cfg);
  std::vector<double> ms;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_s();
    const otem::TimeSeries p = sim::scenario_power_trace(sc, spec);
    ms.push_back((now_s() - t0) * 1e3);
    OTEM_REQUIRE(!p.empty(), "empty route");
  }
  out.set("vehicle.power_trace_ms", median(ms), "ms");
}

SpanProfile traced_pass(std::uint64_t seed, const PassConfig& pc,
                        PassResult& pass) {
  TraceCapture capture;
  capture.start();
  pass = stream_pass(seed, pc);
  SpanProfile p;
  p.spans = capture.stop();
  // The client's round trip contains the daemon's whole request on
  // another thread; what remains is client, socket and framing time.
  SpanTotals& client = p.spans["bench.session.step"];
  client.self_us = std::max(0.0, client.total_us -
                                     p.spans["serve.request"].total_us);
  p.denom_us = client.total_us;
  p.steps = pass.steps();
  p.denom_label = "client session.step round trips";
  return p;
}

}  // namespace

void run_serve_stream(const Options& opts, Output& out) {
  // Set-up is sampled before and after the streaming, so its median
  // spans the run rather than one moment of it.
  std::vector<double> setup;
  const auto sample_setup = [&] {
    (void)measure_setup(opts.seed, setup.size());  // warm-up
    for (size_t rep = 0; rep < kSetupReps; ++rep)
      setup.push_back(measure_setup(opts.seed, setup.size()));
    out.attempted += (kSetupReps + 1) * kClients;
  };
  sample_setup();

  if (!opts.trace) {
    const PassResult pass =
        stream_pass(opts.seed, {opts.seconds, kMinMissions, kRouteS, false});
    sample_setup();
    out.set("setup_s", median(setup), "s");
    tally_ops(pass, out);
    const std::vector<double> rtt = pass.all(&ClientTally::rtt_us);
    out.set("op_p50_us", quantile(rtt, 0.50), "us");
    out.set("ops_per_s", pass.steps_per_s(), "1/s");
    // Quality over each client's first kMinMissions seeded routes, so
    // it is the same set on every host.
    std::vector<double> qloss, power, cooling;
    for (const ClientTally& c : pass.clients)
      for (size_t m = 0; m < std::min(kMinMissions, c.missions.size()); ++m) {
        const Json& r = c.missions[m].report;
        qloss.push_back(num(&r, "qloss_percent"));
        power.push_back(num(&r, "average_power_w") / 1e3);
        cooling.push_back(num(&r, "energy_cooling_j") / 3.6e6);
      }
    out.set("qloss_pct", mean(qloss), "%");
    out.set("hees_avg_power_kw", mean(power), "kW");
    out.set("cooling_kwh", mean(cooling), "kWh");
    check_missions(pass, out);
    Json d = Json::object();
    d.set("steps", pass.steps());
    d.set("missions_in_quality_mean", static_cast<double>(qloss.size()));
    d.set("daemon_counters", pass.counters);
    out.detail.set("serve", std::move(d));
    return;
  }

  // Traced run: an untraced pass (per-layer figures) and a traced pass
  // of equal length (breakdown, span self times); the rate gap between
  // them is the tracing overhead.
  const PassResult plain =
      stream_pass(opts.seed, {opts.seconds / 2, 1, kRouteS, true});
  PassResult traced;
  out.profile = traced_pass(opts.seed, {opts.seconds / 2, 1, kRouteS, false},
                            traced);
  tally_ops(plain, out);
  tally_ops(traced, out);
  emit_serve_layers(opts.seed, plain, kRouteS, out);
  out.set("op_p99_us", quantile(plain.all(&ClientTally::rtt_us), 0.99), "us");
  out.set("setup_s", median(setup), "s");
  emit_power_trace_time(opts.seed, kRouteS, out);
  const double rate_t = traced.steps_per_s();
  out.set("obs.trace_overhead_pct",
          rate_t > 0 ? 100.0 * (plain.steps_per_s() / rate_t - 1.0) : 0.0, "%");
  check_missions(plain, out);
  check_missions(traced, out);
}

void probe_serve_layers(const Options& opts, Output& out) {
  const PassResult plain = stream_pass(opts.seed, {0.0, 1, kProbeRouteS, true});
  tally_ops(plain, out);
  emit_serve_layers(opts.seed, plain, kProbeRouteS, out);
  check_missions(plain, out);
  PassResult traced;
  out.probe_profiles.push_back(
      traced_pass(opts.seed, {0.0, 1, kOneShotRouteS, false}, traced));
  tally_ops(traced, out);
}

}  // namespace otembench
