// main.cpp — the otembench binary: run one workload, write its result.
//
//   otembench --workload <serve-stream|mission-us06|campaign-reactive>
//                    --seed N --seconds S --trace 0|1 --out result.json
//
// Untraced (--trace 0) the workload measures its end-to-end metrics.
// Traced (--trace 1) it measures its per-layer metrics with the
// program's span tracer on; layers the workload does not drive are
// filled from reduced probes of their home workloads. The result file
// carries every metric with its unit, the attempted/failed tally and
// each correctness check. A human-readable summary goes to stdout.
// Exit codes: 0 = all checks passed, 1 = a check failed, 2 = usage or
// runtime error, 3 = not a release (NDEBUG) build.
#include <sys/resource.h>

#include <cstdio>
#include <fstream>

#include "bench.h"
#include "trace_capture.h"

namespace {

using otembench::Options;
using otembench::Output;
using otem::Json;

bool parse_args(int argc, char** argv, Options& opts, std::string& out_path) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") opts.workload = value;
    else if (key == "--seed") opts.seed = std::stoull(value);
    else if (key == "--seconds") opts.seconds = std::stod(value);
    else if (key == "--trace") opts.trace = value == "1";
    else if (key == "--out") out_path = value;
    else return false;
  }
  return argc % 2 == 1 && !opts.workload.empty() && !out_path.empty();
}

/// Run a probe into a scratch Output and keep only what `out` lacks.
void merge_probe(const Options& opts, Output& out,
                 void (*probe)(const Options&, Output&)) {
  Output p;
  probe(opts, p);
  for (const auto& [name, metric] : p.metrics)
    if (!out.has(name)) out.metrics[name] = metric;
  out.attempted += p.attempted;
  out.failed += p.failed;
  out.checks.insert(out.checks.end(), p.checks.begin(), p.checks.end());
  for (otembench::SpanProfile& prof : p.probe_profiles)
    out.probe_profiles.push_back(std::move(prof));
  if (!p.profile.spans.empty()) out.probe_profiles.push_back(p.profile);
}

/// Wall time of a fixed dependent floating-point loop [ms]: a same-run
/// reference for the host's speed, taken before and after the workload,
/// so a slow run can be told apart from a slow program.
double calibration_ms() {
  const double t0 = otembench::now_s();
  volatile double sink = 0.0;
  double x = 1.0;
  for (int i = 0; i < 20000000; ++i) x = x * 1.0000001 + 1e-9;
  sink = x;
  (void)sink;
  return (otembench::now_s() - t0) * 1e3;
}

void print_breakdown(const Json& table) {
  std::printf("per-layer breakdown (self time share of %s):\n",
              table.find("denominator")->as_string().c_str());
  std::printf("  %-22s %-10s %10s %14s %16s %8s\n", "span", "layer", "count",
              "self_us", "self_us/step", "share%");
  for (const Json& row : table.find("rows")->items())
    std::printf("  %-22s %-10s %10.0f %14.0f %16.2f %8.2f\n",
                row.find("span")->as_string().c_str(),
                row.find("layer")->as_string().c_str(),
                row.find("count")->as_number(), row.find("self_us")->as_number(),
                row.find("self_us_per_step")->as_number(),
                row.find("share_pct")->as_number());
  std::printf("  layer shares:");
  for (const auto& [layer, share] : table.find("layer_share_pct")->members())
    std::printf(" %s=%.2f%%", layer.c_str(), share.as_number());
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "otembench: refusing to measure a build without NDEBUG "
               "(configure with -DCMAKE_BUILD_TYPE=Release)\n");
  return 3;
#endif
  Options opts;
  std::string out_path;
  if (!parse_args(argc, argv, opts, out_path)) {
    std::fprintf(stderr,
                 "usage: otembench --workload W --seed N --seconds S "
                 "--trace 0|1 --out FILE\n");
    return 2;
  }
  using Run = void (*)(const Options&, Output&);
  const std::map<std::string, Run> workloads{
      {"serve-stream", otembench::run_serve_stream},
      {"mission-us06", otembench::run_mission_us06},
      {"campaign-reactive", otembench::run_campaign_reactive},
  };
  const auto it = workloads.find(opts.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", opts.workload.c_str());
    return 2;
  }

  Output out;
  const double calibration_before = calibration_ms();
  try {
    it->second(opts, out);
    if (opts.trace) {
      if (!out.has("serve.nonsolve_us.p50"))
        merge_probe(opts, out, otembench::probe_serve_layers);
      if (!out.has("mission.wall_s.otem"))
        merge_probe(opts, out, otembench::probe_mission_layers);
      if (!out.has("campaign.scenario_us.p50"))
        merge_probe(opts, out, otembench::probe_campaign_layers);
      otembench::emit_trace_metrics(out);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "otembench: %s\n", e.what());
    return 2;
  }

  Json calibration = Json::array();
  calibration.push(calibration_before);
  calibration.push(calibration_ms());

  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  out.set("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB");
  const std::uint64_t attempted = std::max<std::uint64_t>(out.attempted, 1);
  out.set("ops_ok_ratio",
          1.0 - static_cast<double>(out.failed) / static_cast<double>(attempted),
          "ratio");

  bool correct = out.failed == 0;
  Json checks = Json::array();
  size_t failed_checks = 0;
  for (const Output::Check& c : out.checks) {
    if (!c.ok) {
      correct = false;
      ++failed_checks;
      std::printf("CHECK FAILED %s: %s\n", c.name.c_str(), c.detail.c_str());
    }
    Json j = Json::object();
    j.set("name", c.name);
    j.set("ok", c.ok);
    if (!c.detail.empty()) j.set("detail", c.detail);
    checks.push(std::move(j));
  }
  std::printf("%s seed=%llu trace=%d: %zu checks, %zu failed; %llu ops "
              "attempted, %llu failed\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              opts.trace ? 1 : 0, out.checks.size(), failed_checks,
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(out.failed));
  Json metrics = Json::object();
  for (const auto& [name, m] : out.metrics) {
    std::printf("  %-40s %16.6g %s\n", name.c_str(), m.value, m.unit.c_str());
    Json mj = Json::object();
    mj.set("value", m.value);
    mj.set("unit", m.unit);
    metrics.set(name, std::move(mj));
  }
  if (const Json* table = out.detail.find("breakdown")) print_breakdown(*table);

  Json doc = Json::object();
  doc.set("schema", "otembench.result.v1");
  doc.set("workload", opts.workload);
  doc.set("seed", static_cast<double>(opts.seed));
  doc.set("seconds", opts.seconds);
  doc.set("trace", opts.trace);
  doc.set("build", "release");
  doc.set("correct", correct);
  doc.set("attempted", static_cast<double>(attempted));
  doc.set("failed", static_cast<double>(out.failed));
  doc.set("metrics", std::move(metrics));
  doc.set("checks", std::move(checks));
  doc.set("calibration_ms", std::move(calibration));
  doc.set("detail", std::move(out.detail));
  std::ofstream f(out_path);
  f << doc.dump(0) << '\n';
  if (!f) {
    std::fprintf(stderr, "otembench: cannot write %s\n", out_path.c_str());
    return 2;
  }
  return correct ? 0 : 1;
}
