#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "bench.h"
#include "core/json_export.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) { return "\"" + vedr::core::json::escape(s) + "\""; }

}  // namespace

void Result::info_num(const std::string& key, double v) { info.emplace_back(key, json_number(v)); }
void Result::info_str(const std::string& key, const std::string& v) {
  info.emplace_back(key, json_string(v));
}

double checked_percentile(Result& out, const std::string& name, const std::vector<double>& v,
                          double q) {
  out.samples(name, v.size());
  const auto p = percentile(v, q);
  if (!p) {
    std::fprintf(stderr, "perfbench: %s refused: %zu samples leave fewer than %zu beyond it\n",
                 name.c_str(), v.size(), kMinSamplesBeyond);
    out.correct = false;
    return 0.0;
  }
  return *p;
}

void add_setup_s(Result& out, const std::vector<double>& setup_s) {
  out.metric("setup_s", *std::min_element(setup_s.begin(), setup_s.end()), "s");
  out.samples("setup_s", setup_s.size());
  out.info_num("setup.median_s", median(setup_s));
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"eval.build_ms", "ms"},
      {"sim.events_per_case", "count"},
      {"sim.ns_per_event", "ns"},
      {"sim.dispatch_ns_p50", "ns"},
      {"shard.barrier_wait_ratio", "ratio"},
      {"shard.events_per_window_p50", "count"},
      {"shard.windows_per_case", "count"},
      {"shard.worker_imbalance", "ratio"},
      {"shard.handoff_spills", "count"},
      {"net.packets_per_case", "count"},
      {"net.events_per_packet", "ratio"},
      {"net.pfc_pause_frames_per_case", "count"},
      {"net.queue_depth_bytes_p99", "bytes"},
      {"collective.cc_time_us_p50", "us"},
      {"telemetry.reports_per_case", "count"},
      {"telemetry.state_kb_p50", "KiB"},
      {"monitor.rtt_samples_per_case", "count"},
      {"analyzer.diagnose_ms_p50", "ms"},
      {"replay.decode_ns_per_record", "ns"},
      {"collector.ingest_ns_per_record", "ns"},
      {"collector.step_diagnose_ms_p50", "ms"},
      {"collector.step_diagnose_ms_p99", "ms"},
      {"collector.finalize_ms_p50", "ms"},
      {"serve.offer_ns_p50", "ns"},
      {"serve.handoff_ms_p50", "ms"},
      {"serve.step_diagnose_ms_p99", "ms"},
      {"serve.queue_high_watermark", "count"},
      {"serve.dropped", "count"},
      {"serve.retained_kb_per_session", "KiB"},
      {"bench.generator_lag_ms_p99", "ms"},
      {"obs.trace_overhead_pct", "%"},
      {"obs.span_coverage_pct", "%"},
      {"self.eval_pct", "%"},
      {"self.sim_pct", "%"},
      {"self.analyzer_pct", "%"},
      {"self.replay_pct", "%"},
      {"self.serve_pct", "%"},
      {"self.collector_pct", "%"},
      {"self.bench_pct", "%"},
  };
  return kMetrics;
}

void complete_per_layer(Result& r) {
  std::vector<Metric> ordered;
  for (const auto& [name, unit] : per_layer_metrics()) {
    Metric m{name, 0.0, unit};
    for (const Metric& have : r.metrics)
      if (have.name == name) m.value = have.value;
    ordered.push_back(m);
  }
  r.metrics = std::move(ordered);
}

void add_self_times(Result& r, const SpanRecorder& spans) {
  const double busy = static_cast<double>(spans.busy_ns());
  for (const auto& [layer, ns] : spans.self_by_layer())
    r.metric("self." + layer + "_pct", busy > 0 ? 100.0 * static_cast<double>(ns) / busy : 0.0,
             "%");
  r.metric("obs.span_coverage_pct", spans.coverage_pct(), "%");
}

void write_chrome_trace(const Options& opt, const SpanRecorder& spans) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(opt.root) / ".bench_build" / "traces";
  std::error_code ec;
  fs::create_directories(dir, ec);
  const fs::path path = dir / (opt.workload + "-seed" + std::to_string(opt.seed) + ".json");
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  const std::string json = spans.chrome_json();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "perfbench: wrote %s\n", path.c_str());
}

void add_provenance(Result& r, const Options& opt) {
  r.info_str("workload", opt.workload);
  r.info_num("seed", static_cast<double>(opt.seed));
  r.info_num("seconds", opt.seconds);
  r.info_str("trace", opt.trace ? "on" : "off");
  r.info_str("git_sha", opt.git_sha);
#if defined(__clang__)
  r.info_str("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  r.info_str("compiler", std::string("gcc ") + __VERSION__);
#else
  r.info_str("compiler", "unknown");
#endif
  r.info_str("build_type", PERFBENCH_BUILD_TYPE);
  r.info_num("nproc", static_cast<double>(std::thread::hardware_concurrency()));
}

std::string info_line(const Result& r) {
  std::string out = "{\"info\":{";
  for (std::size_t i = 0; i < r.info.size(); ++i) {
    if (i > 0) out += ',';
    out += json_string(r.info[i].first) + ":" + r.info[i].second;
  }
  return out + "}}";
}

std::string result_line(const Result& r) {
  std::string out = std::string("{\"correct\":") + (r.correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(r.attempted) +
                    ",\"failed\":" + std::to_string(r.failed) + ",\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    if (i > 0) out += ',';
    out += json_string(r.metrics[i].name) + ":{\"value\":" + json_number(r.metrics[i].value) +
           ",\"unit\":" + json_string(r.metrics[i].unit) + "}";
  }
  return out + "}}";
}

}  // namespace perfbench
