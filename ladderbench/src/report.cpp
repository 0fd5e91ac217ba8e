#include "report.hpp"

#include <cmath>
#include <sstream>

#include "metrics/json.hpp"

namespace ladderbench {

std::string result_line(int attempted, int failed, const std::vector<Metric>& metrics) {
  std::ostringstream os;
  nustencil::metrics::JsonWriter j(os);
  j.begin_object()
      .kv("correct", attempted > 0 && failed == 0)
      .kv("attempted", attempted)
      .kv("failed", failed)
      .key("metrics")
      .begin_object();
  for (const Metric& m : metrics)
    j.key(m.name)
        .begin_object()
        .kv("value", std::isfinite(m.value) ? m.value : 0.0)
        .kv("unit", m.unit)
        .end_object();
  j.end_object().end_object();
  return os.str();
}

}  // namespace ladderbench
