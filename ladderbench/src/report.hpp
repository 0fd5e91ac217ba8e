// The benchmark's output: named metrics with units, printed as the JSON
// result line.
#pragma once

#include <string>
#include <vector>

namespace ladderbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
/// JSON has no NaN or infinity, so a value that is not finite (a metric
/// with no valid sample) prints as 0, next to correct=false.
std::string result_line(int attempted, int failed, const std::vector<Metric>& metrics);

}  // namespace ladderbench
