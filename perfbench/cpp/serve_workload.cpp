// serve_paced: an in-process serve::Server (one shard worker, drop policy)
// fed by an open-loop generator on the calling thread. Eight tenant streams
// are open at any time; each replays a golden-corpus trace, and a new
// session opens whenever one finishes.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "bench.h"
#include "clock.h"
#include "obs/metrics.h"
#include "pacing.h"
#include "replay/collector.h"
#include "replay/trace_reader.h"
#include "serve/server.h"
#include "spans.h"
#include "stats.h"
#include "steps.h"

namespace perfbench {

namespace {

using namespace vedr;

/// Offered load: about 20% of the ~500 K records/s one shard worker drains
/// when saturated, so queues stay short and latency measures the pipeline,
/// not a backlog. The Server never erases sessions (~220 KiB each stays
/// resident), so the rate and round length set peak RSS: one Server fed for
/// 30 s at this rate reached 756 MiB.
constexpr double kRecordsPerSecond = 100'000;
constexpr int kStreams = 8;
/// A run is this many rounds, each feeding a fresh Server for an equal share
/// of --seconds; a reported figure is the best round's (see README.md).
constexpr int kRounds = 10;
/// Set-ups timed before each round (the last one's Server runs the round).
constexpr int kSetupBurst = 5;
constexpr const char* kCorpus[] = {"contention", "incast", "storm", "backpressure"};
constexpr int kNumTraces = 4;

/// A corpus trace decoded once in set-up; the generator offers from memory.
struct Trace {
  std::string name;
  std::vector<replay::TraceRecord> records;
  std::vector<std::uint64_t> offsets;  ///< frame-start offset of each record
  std::uint64_t bytes = 0;
  /// Per record: the highest step it closes (-1 if none), from
  /// step_closing_indices.
  std::vector<int> closes_upto;
  int steps = 0;
};

std::vector<Trace> decode_corpus(const std::string& root, SpanRecorder* spans) {
  std::vector<Trace> corpus;
  for (int t = 0; t < kNumTraces; ++t) {
    ScopedSpan span(spans, SpanKind::kDecode, static_cast<std::uint64_t>(t));
    Trace tr;
    tr.name = kCorpus[t];
    replay::TraceReader reader(root + "/tests/replay/corpus/" + tr.name + ".vtrc");
    replay::TraceRecord rec;
    std::uint64_t offset = reader.bytes_read();
    while (reader.next(rec) == replay::TraceStatus::kOk) {
      tr.records.push_back(rec);
      tr.offsets.push_back(offset);
      offset = reader.bytes_read();
    }
    if (reader.error().status != replay::TraceStatus::kOk)
      throw std::runtime_error("corpus trace " + tr.name + ": " + reader.error().str());
    tr.bytes = reader.bytes_read();
    const std::vector<std::size_t> closing = step_closing_indices(tr.records);
    if (closing.empty()) throw std::runtime_error("corpus trace " + tr.name + " has no steps");
    tr.steps = static_cast<int>(closing.size());
    tr.closes_upto.assign(tr.records.size(), -1);
    for (std::size_t s = 0; s < closing.size(); ++s) tr.closes_upto[closing[s]] = static_cast<int>(s);
    corpus.push_back(std::move(tr));
  }
  return corpus;
}

std::size_t total_records(const std::vector<Trace>& corpus) {
  std::size_t n = 0;
  for (const Trace& t : corpus) n += t.records.size();
  return n;
}

/// Records when each verdict line reaches the benchmark: the session, the
/// step (-1 for the final line) and the arrival time.
class RecordingSink : public serve::VerdictSink {
 public:
  struct Arrival {
    std::uint64_t sid;
    int step;
    std::uint64_t t_ns;
  };

  explicit RecordingSink(SpanRecorder* spans) : spans_(spans) {}

  void on_verdict(const std::string& line) override {
    const std::uint64_t t = now_ns();
    Arrival a{field(line, "\"session\":"), -1, t};
    if (line.rfind("{\"type\":\"step\"", 0) == 0) a.step = static_cast<int>(field(line, "\"step\":"));
    {
      std::lock_guard<std::mutex> lock(mu_);
      arrivals_.push_back(a);
    }
    if (spans_ != nullptr) spans_->record(SpanKind::kVerdict, a.sid, t, now_ns(), 2);
  }

  std::vector<Arrival> take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(arrivals_);
  }

 private:
  static std::uint64_t field(const std::string& line, const char* key) {
    const std::size_t at = line.find(key);
    if (at == std::string::npos) return UINT64_MAX;
    return std::strtoull(line.c_str() + at + std::char_traits<char>::length(key), nullptr, 10);
  }

  SpanRecorder* const spans_;
  std::mutex mu_;
  std::vector<Arrival> arrivals_;
};

serve::ServerConfig server_config() {
  serve::ServerConfig cfg;
  cfg.shards = 1;
  cfg.session.policy = serve::OverflowPolicy::kDropNewest;
  return cfg;
}

/// Session j of a round replays trace trace_of(seed, j): consecutive blocks
/// of four sessions each play the four traces in a seeded order.
int trace_of(std::uint64_t seed, std::uint64_t j) {
  return seeded_permutation(kNumTraces, sim::Rng::mix(seed, j / kNumTraces))[j % kNumTraces];
}

struct SessionLog {
  std::uint64_t sid = 0;
  int trace = 0;
  std::vector<std::uint64_t> close_due_ns;  ///< per step: due time of its closing record
};

struct PacedRun {
  std::vector<double> latency_ms;  ///< one per step verdict
  std::vector<SessionLog> sessions;
  std::uint64_t records = 0;
  std::uint64_t failed = 0;
  double wall_s = 0;
  double server_cpu_s = 0;
  double rss_growth_mb = 0;
  obs::Histogram lag_ns;  ///< generator lateness per record
  std::uint64_t lag_max_ns = 0;
  obs::MetricsSnapshot snap;
};

/// Feeds `server` on the open-loop schedule for `seconds` (sessions open
/// only while the schedule is inside that window; those already open finish
/// on the same schedule), waits for every session, and checks each one.
PacedRun run_paced(const std::vector<Trace>& corpus, serve::Server& server, RecordingSink& sink,
                   std::uint64_t seed, double seconds, SpanRecorder* spans) {
  PacedRun run;
  struct Stream {
    std::size_t log;  ///< index into run.sessions
    std::size_t next = 0;
  };
  auto open = [&](std::vector<Stream>& streams, std::size_t at) {
    const auto j = static_cast<std::uint64_t>(run.sessions.size());
    SessionLog log;
    log.trace = trace_of(seed, j);
    {
      ScopedSpan span(spans, SpanKind::kOffer, j);
      log.sid = server.open_session("t" + std::to_string(j));
    }
    log.close_due_ns.assign(static_cast<std::size_t>(corpus[static_cast<std::size_t>(log.trace)].steps), 0);
    run.sessions.push_back(std::move(log));
    streams[at] = Stream{run.sessions.size() - 1};
  };

  const double rss_before = current_rss_mb();
  const std::uint64_t cpu0 = process_cpu_ns();
  const std::uint64_t gen_cpu0 = thread_cpu_ns();
  const std::uint64_t t0 = now_ns() + 1'000'000;
  const OpenLoopSchedule schedule(kRecordsPerSecond, t0);
  const auto deadline = t0 + static_cast<std::uint64_t>(seconds * 1e9);

  std::vector<Stream> streams(kStreams);
  for (std::size_t s = 0; s < streams.size(); ++s) open(streams, s);
  std::uint64_t k = 0;
  std::size_t rr = 0;
  std::uint64_t idle_ns = 0, waits = 0;  // the spin waits, as one idle total
  while (!streams.empty()) {
    const std::uint64_t due_n = schedule.due_by(now_ns());
    if (k >= due_n) {
      // Spin, not sleep: a timer sleep wakes tens of microseconds late, by
      // an amount that varies with the host's load, and that lag would land
      // in every latency sample. Records are due every 10 us anyway.
      const std::uint64_t due = schedule.due_ns(k);
      const std::uint64_t wait_start = now_ns();
      std::uint64_t t = wait_start;
      while (t < due) t = now_ns();
      idle_ns += t - wait_start;
      ++waits;
      continue;
    }
    while (k < due_n && !streams.empty()) {
      rr %= streams.size();
      Stream& st = streams[rr];
      SessionLog& log = run.sessions[st.log];
      const Trace& tr = corpus[static_cast<std::size_t>(log.trace)];
      const std::size_t i = st.next++;
      const std::uint64_t due = schedule.due_ns(k);
      // A dropped record fails its session (queue_stats().dropped below).
      const std::uint64_t sent = now_ns();
      server.offer(log.sid, tr.records[i], tr.offsets[i]);
      if (spans != nullptr) spans->record(SpanKind::kOffer, st.log, sent, now_ns());
      const std::uint64_t lag = lag_ns(due, sent);
      run.lag_ns.add(static_cast<std::int64_t>(lag));
      run.lag_max_ns = std::max(run.lag_max_ns, lag);
      for (int s = tr.closes_upto[i]; s >= 0 && log.close_due_ns[static_cast<std::size_t>(s)] == 0; --s)
        log.close_due_ns[static_cast<std::size_t>(s)] = due;
      ++k;
      if (st.next == tr.records.size()) {
        {
          ScopedSpan span(spans, SpanKind::kClose, st.log);
          server.close_session(log.sid, replay::TraceError{}, tr.bytes);
        }
        if (schedule.due_ns(k) < deadline) {
          open(streams, rr);
        } else {
          streams.erase(streams.begin() + static_cast<std::ptrdiff_t>(rr));
          continue;
        }
      }
      ++rr;
    }
  }
  if (spans != nullptr) spans->add_total(SpanKind::kPaceWait, idle_ns, waits);
  {
    ScopedSpan span(spans, SpanKind::kDrain, 0);
    server.wait_all_finished();
  }
  const std::uint64_t t_end = now_ns();
  run.records = k;
  run.wall_s = static_cast<double>(t_end - t0) / 1e9;
  const std::uint64_t process_cpu = process_cpu_ns() - cpu0;
  run.server_cpu_s = static_cast<double>(server_cpu_ns(process_cpu, thread_cpu_ns() - gen_cpu0)) / 1e9;
  run.rss_growth_mb = current_rss_mb() - rss_before;
  run.snap = server.metrics_snapshot();

  // Correctness: every session finished with its footer digest matched, no
  // drops, exactly one verdict line per step and one final line.
  std::map<std::uint64_t, std::size_t> by_sid;
  for (std::size_t j = 0; j < run.sessions.size(); ++j) by_sid[run.sessions[j].sid] = j;
  std::vector<std::vector<int>> step_lines(run.sessions.size());
  std::vector<int> final_lines(run.sessions.size(), 0);
  for (const auto& a : sink.take()) {
    const auto it = by_sid.find(a.sid);
    if (it == by_sid.end()) continue;
    const SessionLog& log = run.sessions[it->second];
    if (a.step < 0) {
      ++final_lines[it->second];
      continue;
    }
    auto& lines = step_lines[it->second];
    lines.resize(std::max<std::size_t>(lines.size(), static_cast<std::size_t>(a.step) + 1), 0);
    ++lines[static_cast<std::size_t>(a.step)];
    if (static_cast<std::size_t>(a.step) < log.close_due_ns.size())
      run.latency_ms.push_back(
          static_cast<double>(a.t_ns - log.close_due_ns[static_cast<std::size_t>(a.step)]) / 1e6);
  }
  for (std::size_t j = 0; j < run.sessions.size(); ++j) {
    const SessionLog& log = run.sessions[j];
    const serve::Session* s = server.find_session(log.sid);
    bool ok = s != nullptr && s->state() == serve::SessionState::kFinished && s->digest_matched() &&
              s->queue_stats().dropped == 0 && final_lines[j] == 1 &&
              step_lines[j].size() == log.close_due_ns.size();
    for (int n : step_lines[j]) ok = ok && n == 1;
    if (!ok) {
      ++run.failed;
      std::fprintf(stderr,
                   "perfbench: session %llu (%s) failed: state=%s digest_match=%d dropped=%llu "
                   "final_lines=%d step_lines=%zu/%zu\n",
                   static_cast<unsigned long long>(log.sid),
                   corpus[static_cast<std::size_t>(log.trace)].name.c_str(),
                   s != nullptr ? serve::to_string(s->state()) : "missing",
                   s != nullptr && s->digest_matched() ? 1 : 0,
                   static_cast<unsigned long long>(s != nullptr ? s->queue_stats().dropped : 0),
                   final_lines[j], step_lines[j].size(), log.close_due_ns.size());
    }
  }
  return run;
}

/// Replays the sessions of a paced pass through StreamingCollectors on this
/// thread, as Session::pump drives them: ingest each record, diagnose when a
/// step closes, finalize at the end. One ingest span covers the records up
/// to the next step close, so span upkeep stays out of the per-record cost.
/// Returns the sessions whose digest did not match.
std::uint64_t collector_lane(const std::vector<Trace>& corpus, const std::vector<SessionLog>& sessions,
                             SpanRecorder& spans) {
  const std::uint64_t t0 = now_ns();
  std::uint64_t failed = 0;
  for (std::size_t j = 0; j < sessions.size(); ++j) {
    const Trace& tr = corpus[static_cast<std::size_t>(sessions[j].trace)];
    replay::StreamingCollector collector;
    int last_closed = -1;
    for (std::size_t i = 0; i < tr.records.size();) {
      int closed = last_closed;
      {
        ScopedSpan span(&spans, SpanKind::kIngest, j);
        while (i < tr.records.size() && closed <= last_closed) {
          collector.ingest(tr.records[i], tr.offsets[i]);
          ++i;
          closed = collector.have_footer() ? collector.max_step_seen() : collector.max_step_seen() - 1;
        }
      }
      if (closed > last_closed) {
        ScopedSpan span(&spans, SpanKind::kStepDiagnose, j);
        collector.diagnose();
        last_closed = closed;
      }
    }
    ScopedSpan span(&spans, SpanKind::kFinalize, j);
    if (!collector.finalize(replay::TraceError{}, tr.bytes).digest_matches) ++failed;
  }
  spans.record(SpanKind::kCollectorLane, 0, t0, now_ns());
  return failed;
}

/// Tears down `server`, then times one set-up: corpus decode plus Server
/// construction. Returns its wall time in seconds.
double set_up(const Options& opt, std::vector<Trace>& corpus, std::unique_ptr<serve::Server>& server,
              RecordingSink& sink, SpanRecorder* spans) {
  server.reset();
  const std::uint64_t t0 = now_ns();
  corpus = decode_corpus(opt.root, spans);
  {
    ScopedSpan span(spans, SpanKind::kConstruct, 0);
    server = std::make_unique<serve::Server>(server_config(), &sink);
  }
  return static_cast<double>(now_ns() - t0) / 1e9;
}

double per_record_us(double cpu_s, std::uint64_t records) {
  return cpu_s * 1e6 / static_cast<double>(records);
}

}  // namespace

Result run_serve_workload(const Options& opt) {
  Result out;
  add_provenance(out, opt);
  out.info_num("offered_rate_per_s", kRecordsPerSecond);
  out.info_num("streams", kStreams);
  out.info_num("shards", 1);
  out.info_num("rounds", kRounds);

  // Rounds. Each begins with a burst of set-ups (corpus decode plus Server
  // construction), so set-up is timed at kRounds points of the run. A traced
  // run traces round 1 from its last set-up on: round 0 measures retained
  // memory on fresh pages, round 2 is the untraced overhead reference,
  // warmed like the traced round.
  const double round_s = opt.seconds / kRounds;
  SpanRecorder spans;
  spans.keep_durations(SpanKind::kOffer);
  spans.keep_durations(SpanKind::kStepDiagnose);
  spans.keep_durations(SpanKind::kFinalize);
  std::vector<Trace> corpus;
  std::unique_ptr<RecordingSink> sink;
  std::unique_ptr<serve::Server> server;
  std::vector<double> setup_s;
  std::vector<PacedRun> rounds;
  std::uint64_t lane_failed = 0;
  for (int r = 0; r < kRounds; ++r) {
    const bool traced = opt.trace && r == 1;
    server.reset();
    sink = std::make_unique<RecordingSink>(traced ? &spans : nullptr);
    for (int rep = 0; rep + 1 < kSetupBurst; ++rep)
      setup_s.push_back(set_up(opt, corpus, server, *sink, nullptr));
    const std::uint64_t t_root = now_ns();
    setup_s.push_back(set_up(opt, corpus, server, *sink, traced ? &spans : nullptr));
    rounds.push_back(run_paced(corpus, *server, *sink,
                               sim::Rng::mix(opt.seed, static_cast<std::uint64_t>(r)), round_s,
                               traced ? &spans : nullptr));
    if (traced) {
      spans.record(SpanKind::kRun, 0, t_root, now_ns());
      lane_failed = collector_lane(corpus, rounds.back().sessions, spans);
    }
  }
  out.info_num("corpus_records", static_cast<double>(total_records(corpus)));
  server.reset();

  std::vector<double> p50, cpu_us;
  double sessions = 0, records = 0, wall_s = 0;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const PacedRun& pr = rounds[r];
    out.attempted += pr.sessions.size();
    out.failed += pr.failed;
    const std::string tag = "round" + std::to_string(r) + ".";
    p50.push_back(checked_percentile(out, tag + "latency_ms_p50", pr.latency_ms, 0.5));
    cpu_us.push_back(per_record_us(pr.server_cpu_s, pr.records));
    out.info_num(tag + "latency_ms_p50", p50.back());
    // The tail is reported, not bounded: a round too short for it omits it.
    if (const auto tail = percentile(pr.latency_ms, 0.99)) out.info_num(tag + "latency_ms_p99", *tail);
    out.info_num(tag + "cpu_us_per_op", cpu_us.back());
    out.info_num(tag + "generator_lag_ms_p99", static_cast<double>(pr.lag_ns.value_at_quantile(0.99)) / 1e6);
    out.info_num(tag + "generator_lag_ms_max", static_cast<double>(pr.lag_max_ns) / 1e6);
    sessions += static_cast<double>(pr.sessions.size());
    records += static_cast<double>(pr.records);
    wall_s += pr.wall_s;
  }
  out.info_num("sessions", sessions);
  out.info_num("records", records);
  out.info_num("throughput_per_s", records / wall_s);

  if (!opt.trace) {
    // Both figures come from the one round with the lowest p50, the round
    // the host disturbed least. A stalled generator makes records queue up
    // and one pump take several of them, which lowers CPU per record, so
    // the lowest CPU of any round would pick the most disturbed one.
    const auto best = static_cast<std::size_t>(std::min_element(p50.begin(), p50.end()) - p50.begin());
    add_setup_s(out, setup_s);
    out.metric("latency_ms_p50", p50[best], "ms");
    out.metric("cpu_us_per_op", cpu_us[best], "us");
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    out.info_num("best_round", static_cast<double>(best));
    if (const auto tail = percentile(rounds[best].latency_ms, 0.99))
      out.info_num("best_round.latency_ms_p99", *tail);
    return out;
  }

  const PacedRun& first = rounds[0];
  const PacedRun& traced = rounds[1];
  out.failed += lane_failed;
  out.attempted += traced.sessions.size();  // the collector lane replays them again
  auto per_ms = [](const std::vector<double>& ns) {
    std::vector<double> ms;
    for (double v : ns) ms.push_back(v / 1e6);
    return ms;
  };
  const std::vector<double> step_ms = per_ms(spans.durations(SpanKind::kStepDiagnose));
  const double step_p50 = checked_percentile(out, "collector.step_diagnose_ms_p50", step_ms, 0.5);
  out.metric("replay.decode_ns_per_record",
             static_cast<double>(spans.total_ns(SpanKind::kDecode)) /
                 static_cast<double>(total_records(corpus)),
             "ns");
  out.metric("collector.ingest_ns_per_record",
             static_cast<double>(spans.total_ns(SpanKind::kIngest)) / static_cast<double>(traced.records),
             "ns");
  out.metric("collector.step_diagnose_ms_p50", step_p50, "ms");
  out.metric("collector.step_diagnose_ms_p99",
             checked_percentile(out, "collector.step_diagnose_ms_p99", step_ms, 0.99), "ms");
  out.metric("collector.finalize_ms_p50",
             checked_percentile(out, "collector.finalize_ms_p50",
                                per_ms(spans.durations(SpanKind::kFinalize)), 0.5),
             "ms");
  out.metric("serve.offer_ns_p50",
             checked_percentile(out, "serve.offer_ns_p50", spans.durations(SpanKind::kOffer), 0.5),
             "ns");
  out.metric("serve.handoff_ms_p50", p50[1] - step_p50, "ms");
  const auto hist = traced.snap.hists.find("serve.step_diagnose_ns");
  if (hist != traced.snap.hists.end()) {
    out.metric("serve.step_diagnose_ms_p99",
               static_cast<double>(hist->second.value_at_quantile(0.99)) / 1e6, "ms");
    out.samples("serve.step_diagnose_ms_p99", hist->second.count());
  }
  auto counter = [&](const char* name) {
    const auto it = traced.snap.counters.find(name);
    return it == traced.snap.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  out.metric("serve.queue_high_watermark", counter("serve.queue_high_watermark"), "count");
  out.metric("serve.dropped", counter("serve.queue_dropped"), "count");
  out.metric("serve.retained_kb_per_session",
             first.rss_growth_mb * 1024.0 / static_cast<double>(first.sessions.size()), "KiB");
  out.metric("bench.generator_lag_ms_p99",
             static_cast<double>(traced.lag_ns.value_at_quantile(0.99)) / 1e6, "ms");
  // Server CPU per record, traced round against the untraced round after
  // it. The generator's own span recording is left out: it spins between
  // due times anyway, and its lag is reported above.
  out.metric("obs.trace_overhead_pct", 100.0 * (cpu_us[1] / cpu_us[2] - 1.0), "%");
  // The worker thread's CPU in the traced round, less the ingest, diagnose
  // and finalize calls the collector lane replays: queue, pump and sink.
  const double lane_ns = static_cast<double>(spans.total_ns(SpanKind::kIngest) +
                                             spans.total_ns(SpanKind::kStepDiagnose) +
                                             spans.total_ns(SpanKind::kFinalize));
  const double worker_ns = traced.server_cpu_s * 1e9;
  spans.add_total(SpanKind::kServerWorker,
                  static_cast<std::uint64_t>(std::max(0.0, worker_ns - lane_ns)), 1);
  out.info_num("traced_round.server_cpu_ms", worker_ns / 1e6);
  out.info_num("traced_round.collector_lane_ms", lane_ns / 1e6);
  add_self_times(out, spans);
  write_chrome_trace(opt, spans);
  complete_per_layer(out);
  return out;
}

}  // namespace perfbench
