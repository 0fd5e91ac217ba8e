#include "host.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>

namespace ladderbench {

CpuTimes CpuTimes::now(const std::vector<int>& cores) {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string line;
  while (std::getline(in, line) && line.rfind("cpu", 0) == 0) {
    std::istringstream fields(line);
    std::string label;
    fields >> label;
    const bool wanted =
        cores.empty() ? label == "cpu"
                      : std::find_if(cores.begin(), cores.end(), [&](int c) {
                          return label == "cpu" + std::to_string(c);
                        }) != cores.end();
    if (!wanted) continue;
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user/nice, so it is not added.
    std::uint64_t v = 0;
    for (int i = 0; i < 8 && fields >> v; ++i) {
      t.total += v;
      if (i == 7) {
        t.steal += v;
        t.valid = true;
      }
    }
  }
  return t;
}

double steal_percent(const CpuTimes& before, const CpuTimes& after) {
  if (!before.valid || !after.valid || after.total <= before.total) return 0.0;
  return 100.0 * static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

long l2_cache_bytes() {
  const long v = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return v > 0 ? v : 0;
}

long l3_cache_bytes() {
  const long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return v > 0 ? v : 0;
}

int online_cpus() {
  const long v = sysconf(_SC_NPROCESSORS_ONLN);
  return v > 0 ? static_cast<int>(v) : 1;
}

int driver_core() { return online_cpus() - 1; }

}  // namespace ladderbench
