#include "spans.h"

#include <algorithm>
#include <cstdio>

#include "clock.h"

namespace perfbench {

namespace {

/// How a kind enters the self-time reduction.
enum class Role : std::uint8_t {
  kRoot,     ///< a lane's wall time; its self time is the benchmark's own
  kChild,    ///< a call into a layer, under `parent`
  kIdle,     ///< a wait under `parent`: taken out of the busy time
  kWorker,   ///< a span-less worker lane: its total counts as busy time
  kTraceOnly ///< Chrome trace only (its time lies inside a kWorker lane)
};

struct SpanInfo {
  const char* name;
  const char* layer;
  Role role;
  int parent;  ///< SpanKind index, -1 unless a child or idle
};

constexpr int kRoot = static_cast<int>(SpanKind::kRun);
constexpr int kLane = static_cast<int>(SpanKind::kCollectorLane);

// Indexed by SpanKind. "sim" is everything run_case does outside the
// analyzer: the simulator core, net, telemetry and monitor run inside one
// call and are told apart by their counts, not by time.
constexpr SpanInfo kInfo[] = {
    {"bench.run", "bench", Role::kRoot, -1},
    {"eval.build", "eval", Role::kChild, kRoot},
    {"eval.run_case", "sim", Role::kChild, kRoot},
    {"analyzer.diagnose", "analyzer", Role::kChild, static_cast<int>(SpanKind::kRunCase)},
    {"bench.verify", "bench", Role::kChild, kRoot},
    {"replay.decode", "replay", Role::kChild, kRoot},
    {"serve.construct", "serve", Role::kChild, kRoot},
    {"idle.pace_wait", "idle", Role::kIdle, kRoot},
    {"serve.offer", "serve", Role::kChild, kRoot},
    {"serve.close", "serve", Role::kChild, kRoot},
    {"idle.drain", "idle", Role::kIdle, kRoot},
    {"bench.collector_lane", "bench", Role::kRoot, -1},
    {"collector.ingest", "collector", Role::kChild, kLane},
    {"collector.step_diagnose", "collector", Role::kChild, kLane},
    {"collector.finalize", "collector", Role::kChild, kLane},
    {"serve.verdict", "serve", Role::kTraceOnly, -1},
    {"serve.worker", "serve", Role::kWorker, -1},
};
static_assert(sizeof(kInfo) / sizeof(kInfo[0]) == static_cast<std::size_t>(SpanKind::kCount));

}  // namespace

void SpanRecorder::record(SpanKind kind, std::uint64_t id, std::uint64_t start_ns,
                          std::uint64_t end_ns, int tid) {
  const std::uint64_t dur = end_ns > start_ns ? end_ns - start_ns : 0;
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t i = idx(kind);
  total_[i] += dur;
  if (keep_all_[i]) durations_[i].push_back(static_cast<double>(dur));
  if (count_[i]++ < keep_per_kind_) kept_.push_back({start_ns, end_ns, id, kind, tid});
}

void SpanRecorder::add_total(SpanKind kind, std::uint64_t ns, std::uint64_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  total_[idx(kind)] += ns;
  count_[idx(kind)] += count;
}

std::uint64_t SpanRecorder::self_ns(SpanKind k) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t children = 0;
  for (std::size_t c = 0; c < kKinds; ++c)
    if (kInfo[c].parent == static_cast<int>(k)) children += total_[c];
  const std::uint64_t total = total_[idx(k)];
  return total > children ? total - children : 0;
}

std::vector<std::pair<std::string, std::uint64_t>> SpanRecorder::self_by_layer() const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (std::size_t k = 0; k < kKinds; ++k) {
    if (kInfo[k].role == Role::kIdle || kInfo[k].role == Role::kTraceOnly) continue;
    const std::uint64_t self = self_ns(static_cast<SpanKind>(k));
    auto it = out.begin();
    while (it != out.end() && it->first != kInfo[k].layer) ++it;
    if (it == out.end()) {
      out.emplace_back(kInfo[k].layer, self);
    } else {
      it->second += self;
    }
  }
  return out;
}

std::uint64_t SpanRecorder::busy_ns() const {
  std::uint64_t busy = 0, idle = 0;
  for (std::size_t k = 0; k < kKinds; ++k) {
    const std::uint64_t t = total_ns(static_cast<SpanKind>(k));
    if (kInfo[k].role == Role::kRoot || kInfo[k].role == Role::kWorker) busy += t;
    if (kInfo[k].role == Role::kIdle) idle += t;
  }
  return busy - std::min(busy, idle);
}

double SpanRecorder::coverage_pct() const {
  std::uint64_t roots = 0, idle = 0, self = 0;
  for (std::size_t k = 0; k < kKinds; ++k) {
    const auto kind = static_cast<SpanKind>(k);
    if (kInfo[k].role == Role::kRoot) {
      roots += total_ns(kind);
      self += self_ns(kind);
    } else if (kInfo[k].role == Role::kIdle) {
      idle += total_ns(kind);
    }
  }
  const std::uint64_t active = roots - std::min(roots, idle);
  if (active == 0) return 0.0;
  return 100.0 * static_cast<double>(active - std::min(active, self)) / static_cast<double>(active);
}

std::string SpanRecorder::chrome_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t t0 = UINT64_MAX;
  for (const Span& s : kept_) t0 = std::min(t0, s.start_ns);
  std::string out = "{\"traceEvents\":[";
  char buf[512];
  bool first = true;
  for (const Span& s : kept_) {
    const SpanInfo& info = kInfo[idx(s.kind)];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":\"%s\"}}",
                  first ? "" : ",\n", info.name, info.layer, s.tid,
                  static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.id),
                  info.parent >= 0 ? kInfo[info.parent].name : "");
    out += buf;
    first = false;
  }
  out += "]}\n";
  return out;
}

ScopedSpan::ScopedSpan(SpanRecorder* rec, SpanKind kind, std::uint64_t id)
    : rec_(rec), kind_(kind), id_(id), start_ns_(rec != nullptr ? now_ns() : 0) {}

ScopedSpan::~ScopedSpan() {
  if (rec_ != nullptr) rec_->record(kind_, id_, start_ns_, now_ns());
}

}  // namespace perfbench
