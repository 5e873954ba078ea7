// Tests of the benchmark's own helpers. Run: perfbench_selftest <corpus dir>
// (python3 perfbench/run.py --self-test builds and runs it).
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "clock.h"
#include "pacing.h"
#include "replay/collector.h"
#include "replay/trace_reader.h"
#include "spans.h"
#include "stats.h"
#include "steps.h"

namespace perfbench {
namespace {

std::string g_corpus_dir;

std::vector<double> iota_samples(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Percentile, RefusesWithoutTenSamplesBeyond) {
  EXPECT_FALSE(percentile(iota_samples(99), 0.90).has_value());
  EXPECT_FALSE(percentile(iota_samples(19), 0.50).has_value());
  EXPECT_FALSE(percentile(iota_samples(999), 0.99).has_value());
  EXPECT_FALSE(percentile({}, 0.50).has_value());
  EXPECT_EQ(samples_beyond(100, 0.90), 10u);
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
}

TEST(Percentile, NearestRankOnceAllowed) {
  EXPECT_DOUBLE_EQ(*percentile(iota_samples(100), 0.90), 90.0);
  EXPECT_DOUBLE_EQ(*percentile(iota_samples(20), 0.50), 10.0);
  EXPECT_DOUBLE_EQ(*percentile(iota_samples(1000), 0.99), 990.0);
  std::vector<double> shuffled = {5, 3, 9, 1, 7, 2, 8, 4, 6, 10, 15, 13, 19, 11, 17, 12, 18, 14, 16, 20};
  EXPECT_DOUBLE_EQ(*percentile(shuffled, 0.50), 10.0);
}

TEST(Percentile, MedianOfSmallSets) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
}

// The closing index of every step agrees with the frontier a serve session
// computes from StreamingCollector::max_step_seen, on every corpus trace.
TEST(StepClosing, MatchesCollectorFrontierOnCorpus) {
  for (const char* name : {"contention", "incast", "storm", "backpressure"}) {
    SCOPED_TRACE(name);
    vedr::replay::TraceReader reader(g_corpus_dir + "/" + name + ".vtrc");
    std::vector<vedr::replay::TraceRecord> records;
    std::vector<std::uint64_t> offsets;
    vedr::replay::TraceRecord rec;
    std::uint64_t offset = reader.bytes_read();
    while (reader.next(rec) == vedr::replay::TraceStatus::kOk) {
      records.push_back(rec);
      offsets.push_back(offset);
      offset = reader.bytes_read();
    }
    ASSERT_EQ(reader.error().status, vedr::replay::TraceStatus::kOk);
    const std::vector<std::size_t> closing = step_closing_indices(records);
    ASSERT_FALSE(closing.empty());

    vedr::replay::StreamingCollector collector;
    std::vector<std::size_t> observed;
    for (std::size_t i = 0; i < records.size(); ++i) {
      collector.ingest(records[i], offsets[i]);
      const int closed =
          collector.have_footer() ? collector.max_step_seen() : collector.max_step_seen() - 1;
      while (static_cast<int>(observed.size()) <= closed) observed.push_back(i);
    }
    EXPECT_EQ(observed, closing);
    EXPECT_EQ(static_cast<int>(closing.size()), collector.max_step_seen() + 1);
  }
}

TEST(StepClosing, SkippedStepsCloseTogetherAndFooterClosesTheRest) {
  auto step = [](int s) {
    vedr::replay::TraceRecord r;
    r.type = vedr::replay::RecordType::kStepRecord;
    vedr::collective::StepRecord sr;
    sr.step = s;
    r.payload = sr;
    return r;
  };
  vedr::replay::TraceRecord env;  // default type: envelope
  vedr::replay::TraceRecord footer;
  footer.type = vedr::replay::RecordType::kFooter;
  footer.payload = vedr::replay::TraceFooter{};
  const std::vector<vedr::replay::TraceRecord> recs = {env, step(0), step(0), step(2), step(3), footer};
  EXPECT_EQ(step_closing_indices(recs), (std::vector<std::size_t>{3, 3, 4, 5}));
  EXPECT_TRUE(step_closing_indices({env, step(0)}).empty());  // no footer
}

TEST(OpenLoop, DueTimesFollowTheRate) {
  const OpenLoopSchedule s(200'000, 1'000'000);  // one record every 5 us
  EXPECT_EQ(s.due_ns(0), 1'000'000u);
  EXPECT_EQ(s.due_ns(1), 1'005'000u);
  EXPECT_EQ(s.due_ns(200'000), 1'001'000'000u);
  EXPECT_EQ(s.due_by(999'999), 0u);
  EXPECT_EQ(s.due_by(1'000'000), 1u);
  EXPECT_EQ(s.due_by(1'004'999), 1u);
  EXPECT_EQ(s.due_by(1'005'000), 2u);
  const OpenLoopSchedule odd(3, 7);  // period 333,333,333.3 ns
  for (std::uint64_t k = 0; k < 50; ++k) {
    EXPECT_EQ(odd.due_by(odd.due_ns(k)), k + 1);
    EXPECT_EQ(odd.due_by(odd.due_ns(k) - 1), k);
  }
}

TEST(OpenLoop, LagCountsLatenessFromDueTime) {
  const OpenLoopSchedule s(100'000, 0);  // one record every 10 us
  EXPECT_EQ(lag_ns(s.due_ns(3), 30'000), 0u);
  EXPECT_EQ(lag_ns(s.due_ns(3), 32'500), 2'500u);
  EXPECT_EQ(lag_ns(s.due_ns(3), 25'000), 0u);  // early counts as on time
}

void burn_cpu(std::uint64_t ns) {
  const std::uint64_t start = thread_cpu_ns();
  volatile std::uint64_t sink = 0;
  while (thread_cpu_ns() - start < ns) sink = sink + 1;
}

// Process CPU minus the generator thread's CPU leaves the other threads'.
TEST(CpuSplit, SubtractsGeneratorThread) {
  const std::uint64_t p0 = process_cpu_ns();
  std::uint64_t generator_ns = 0;
  std::thread generator([&] {
    const std::uint64_t t0 = thread_cpu_ns();
    burn_cpu(60'000'000);
    generator_ns = thread_cpu_ns() - t0;
  });
  std::thread server([] { burn_cpu(40'000'000); });
  generator.join();
  server.join();
  const std::uint64_t split = server_cpu_ns(process_cpu_ns() - p0, generator_ns);
  EXPECT_GE(split, 40'000'000u);
  EXPECT_LT(split, 50'000'000u);  // the server's 40 ms plus the main thread's little
  EXPECT_EQ(server_cpu_ns(5, 9), 0u);
}

TEST(Spans, SelfTimeSubtractsChildren) {
  SpanRecorder rec(2);
  rec.record(SpanKind::kRun, 0, 0, 1'000);
  rec.record(SpanKind::kRunCase, 1, 100, 600);
  rec.record(SpanKind::kRunCase, 2, 600, 900);
  rec.add_total(SpanKind::kDiagnose, 50, 2);
  rec.record(SpanKind::kVerify, 1, 900, 950);
  rec.record(SpanKind::kVerdict, 1, 0, 400, 2);  // other thread: no parent
  EXPECT_EQ(rec.self_ns(SpanKind::kRun), 150u);
  EXPECT_EQ(rec.self_ns(SpanKind::kRunCase), 750u);
  EXPECT_DOUBLE_EQ(rec.coverage_pct(), 85.0);
  std::uint64_t covered = 0;
  for (const auto& [layer, ns] : rec.self_by_layer()) covered += ns;
  EXPECT_EQ(covered, 1'000u);  // layers partition the root exactly
  EXPECT_NE(rec.chrome_json().find("\"eval.run_case\""), std::string::npos);
}

// Idle waits leave the busy time; a second root (the collector lane) and a
// span-less worker lane join it; the verdict lane is in the trace only.
TEST(Spans, BusyTimeDropsIdleWaitsAndAddsLanes) {
  SpanRecorder rec;
  rec.record(SpanKind::kRun, 0, 0, 1'000);
  rec.record(SpanKind::kPaceWait, 1, 0, 600);
  rec.record(SpanKind::kOffer, 1, 600, 900);
  rec.record(SpanKind::kCollectorLane, 0, 2'000, 2'500);
  rec.record(SpanKind::kIngest, 1, 2'000, 2'400);
  rec.add_total(SpanKind::kServerWorker, 200, 1);
  rec.record(SpanKind::kVerdict, 1, 950, 960, 2);
  EXPECT_EQ(rec.busy_ns(), 400u + 500u + 200u);
  EXPECT_NEAR(rec.coverage_pct(), 100.0 * 700.0 / 900.0, 1e-9);  // spanned roots only
  std::map<std::string, std::uint64_t> layers;
  std::uint64_t sum = 0;
  for (const auto& [layer, ns] : rec.self_by_layer()) {
    layers[layer] = ns;
    sum += ns;
  }
  EXPECT_EQ(sum, rec.busy_ns());
  EXPECT_EQ(layers["bench"], 200u);
  EXPECT_EQ(layers["serve"], 500u);
  EXPECT_EQ(layers["collector"], 400u);
  EXPECT_EQ(layers.count("idle"), 0u);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_selftest <corpus dir>\n");
    return 2;
  }
  perfbench::g_corpus_dir = argv[1];
  return RUN_ALL_TESTS();
}
