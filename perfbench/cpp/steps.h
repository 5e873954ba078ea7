#pragma once

#include <cstddef>
#include <variant>
#include <vector>

#include "collective/runner.h"
#include "replay/trace_format.h"

namespace perfbench {

/// For each collective step s in [0, max step], the index of the record
/// that closes it: the first StepRecord with a step greater than s, or the
/// footer. This mirrors serve::Session, which emits step s's verdict once
/// StreamingCollector::max_step_seen() passes s or the footer arrives, so
/// the due time of that record is where step s's verdict latency starts.
/// Empty when the trace has no step records or no footer.
inline std::vector<std::size_t> step_closing_indices(
    const std::vector<vedr::replay::TraceRecord>& records) {
  std::vector<std::size_t> closing;
  int max_step = -1;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& rec = records[i];
    if (rec.type == vedr::replay::RecordType::kFooter) {
      while (static_cast<int>(closing.size()) <= max_step) closing.push_back(i);
      return closing;
    }
    if (rec.type != vedr::replay::RecordType::kStepRecord) continue;
    const int step = std::get<vedr::collective::StepRecord>(rec.payload).step;
    // Every step below this one that is not yet closed closes here.
    while (static_cast<int>(closing.size()) < step) closing.push_back(i);
    if (step > max_step) max_step = step;
  }
  return {};
}

}  // namespace perfbench
