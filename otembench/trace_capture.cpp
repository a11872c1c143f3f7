#include "trace_capture.h"

#include <chrono>

namespace otembench {

namespace obs = otem::obs;

namespace {

/// Self time per span name by interval nesting on each thread.
std::map<std::string, SpanTotals> reduce_spans(
    std::vector<obs::SpanRecord> spans) {
  std::sort(spans.begin(), spans.end(),
            [](const obs::SpanRecord& a, const obs::SpanRecord& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              return a.dur_us > b.dur_us;  // enclosing span first
            });
  std::vector<double> child_us(spans.size(), 0.0);
  std::vector<size_t> stack;
  constexpr double kEps = 1e-3;  // µs; clock reads are shared at edges
  for (size_t i = 0; i < spans.size(); ++i) {
    if (i > 0 && spans[i].tid != spans[i - 1].tid) stack.clear();
    const double start = spans[i].ts_us;
    const double end = start + spans[i].dur_us;
    while (!stack.empty()) {
      const obs::SpanRecord& top = spans[stack.back()];
      if (end <= top.ts_us + top.dur_us + kEps && start >= top.ts_us - kEps)
        break;
      stack.pop_back();
    }
    if (!stack.empty()) child_us[stack.back()] += spans[i].dur_us;
    stack.push_back(i);
  }
  std::map<std::string, SpanTotals> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = out[spans[i].name];
    ++t.count;
    t.total_us += spans[i].dur_us;
    t.self_us += std::max(0.0, spans[i].dur_us - child_us[i]);
  }
  return out;
}

/// The layer a span name belongs to (README.md, "Breakdown table").
std::string layer_of(const std::string& span) {
  const auto starts = [&span](const char* prefix) {
    return span.rfind(prefix, 0) == 0;
  };
  if (span == "bench.session.step") return "transport";
  if (starts("serve.")) return "serve";
  if (starts("ltv_qp.") || starts("qp.")) return "optim";
  if (starts("ltv.")) return "core";
  if (starts("sim.") || span == "scenario.run") return "sim";
  if (span == "bench.campaign") return "campaign";
  return "other";
}

/// Layers reported as breakdown.<layer>.share_pct, in table order.
const std::vector<std::string>& breakdown_layers() {
  static const std::vector<std::string> layers{
      "transport", "serve", "core", "optim", "sim", "campaign", "other"};
  return layers;
}

/// The program's existing spans reported as span.<name>.self_us_per_step.
const std::vector<std::string>& reported_spans() {
  static const std::vector<std::string> spans{
      "ltv.solve", "ltv.sqp_round", "ltv_qp.solve", "ltv_qp.factorize",
      "serve.parse"};
  return spans;
}

}  // namespace

void TraceCapture::start() {
  obs::trace_reset();
  seen_.clear();
  spans_.clear();
  obs::set_trace_enabled(true);
  running_ = true;
  poller_ = std::thread([this] {
    while (running_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      poll(false);
    }
  });
}

void TraceCapture::poll(bool final_drain) {
  const std::vector<obs::SpanRecord> records = obs::TraceCollector().collect();
  const std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = 0; i < records.size(); ++i) {
    const obs::SpanRecord& r = records[i];
    // While writers run, the oldest slot of a full ring may be mid-
    // overwrite; skip each thread's oldest record until the final
    // drain (it was read on an earlier poll or is read on a later one).
    const bool oldest_of_thread = i == 0 || records[i - 1].tid != r.tid;
    if (!final_drain && oldest_of_thread) continue;
    if (r.id == 0 || r.name == nullptr) continue;
    if (seen_.insert(r.id).second) spans_.push_back(r);
  }
}

TraceCapture::~TraceCapture() {
  if (poller_.joinable()) {
    obs::set_trace_enabled(false);
    running_ = false;
    poller_.join();
  }
}

std::map<std::string, SpanTotals> TraceCapture::stop() {
  obs::set_trace_enabled(false);
  running_ = false;
  if (poller_.joinable()) poller_.join();
  poll(true);
  return reduce_spans(std::move(spans_));
}

void emit_trace_metrics(Output& out) {
  const SpanProfile& p = out.profile;
  std::map<std::string, double> layer_us;
  for (const std::string& layer : breakdown_layers()) layer_us[layer] = 0.0;

  otem::Json rows = otem::Json::array();
  double attributed = 0.0;
  for (const auto& [name, t] : p.spans) {
    layer_us[layer_of(name)] += t.self_us;
    attributed += t.self_us;
    otem::Json row = otem::Json::object();
    row.set("span", name);
    row.set("layer", layer_of(name));
    row.set("count", static_cast<double>(t.count));
    row.set("self_us", t.self_us);
    row.set("self_us_per_step", p.steps > 0 ? t.self_us / p.steps : 0.0);
    row.set("share_pct", p.denom_us > 0 ? 100.0 * t.self_us / p.denom_us : 0.0);
    rows.push(std::move(row));
  }
  // Time inside the denominator no span covers (untraced work, idle
  // workers) belongs to no layer in particular.
  layer_us["other"] += std::max(0.0, p.denom_us - attributed);

  otem::Json table = otem::Json::object();
  table.set("denominator", p.denom_label);
  table.set("denominator_us", p.denom_us);
  table.set("steps", p.steps);
  table.set("rows", std::move(rows));
  otem::Json layers = otem::Json::object();
  for (const std::string& layer : breakdown_layers()) {
    const double share =
        p.denom_us > 0 ? 100.0 * layer_us[layer] / p.denom_us : 0.0;
    layers.set(layer, share);
    out.set("breakdown." + layer + ".share_pct", share, "%");
  }
  table.set("layer_share_pct", std::move(layers));
  out.detail.set("breakdown", std::move(table));

  for (const std::string& name : reported_spans()) {
    const SpanProfile* src = nullptr;
    if (p.spans.count(name) && p.steps > 0) src = &p;
    for (const SpanProfile& probe : out.probe_profiles)
      if (src == nullptr && probe.spans.count(name) && probe.steps > 0)
        src = &probe;
    const double v = src ? src->spans.at(name).self_us / src->steps : 0.0;
    out.set("span." + name + ".self_us_per_step", v, "us");
  }
}

}  // namespace otembench
