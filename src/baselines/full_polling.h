#pragma once

#include "collective/plan.h"
#include "common/ring.h"
#include "core/analyzer.h"
#include "net/network.h"

namespace vedr::baselines {

/// Full-polling baseline: every switch reports every port's telemetry on a
/// fixed period, regardless of anomalies — the paper's overhead upper bound.
/// Reports are pushed autonomously (no polling-query packets), matching the
/// paper's note that detection overhead is excluded for this baseline.
class FullPolling {
 public:
  FullPolling(net::Network& net, const collective::CollectivePlan& plan,
              sim::Tick interval = 100 * sim::kMicrosecond);

  /// Begins periodic reporting; stops after `until` (simulation time).
  void start(sim::Tick until);

  core::Diagnosis diagnose() { return analyzer_.diagnose(); }
  core::Analyzer& analyzer() { return analyzer_; }
  std::size_t sweeps() const { return sweeps_; }

  // --- event-dispatch entry points (kPollSweep / kPollReport trampolines) ---

  void sweep();
  /// The oldest pending sweep report has crossed the controller delay.
  void deliver_report();

 private:

  net::Network& net_;
  core::Analyzer analyzer_;
  sim::Tick interval_;
  sim::Tick until_ = 0;
  std::size_t sweeps_ = 0;
  std::uint64_t sweep_seq_ = 0;
  // Sweep reports in flight to the analyzer: one constant controller delay,
  // so they arrive in emission order.
  common::Ring<telemetry::SwitchReport> pending_reports_;
};

}  // namespace vedr::baselines
