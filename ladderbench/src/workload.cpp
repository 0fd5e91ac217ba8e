#include "workload.hpp"

namespace ladderbench {

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"dram320-t1", 320, 4, 1, false},
      {"dram320-t2", 320, 4, 2, false},
      {"observed320-t2", 320, 4, 2, true},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

const std::vector<SchemeName>& comparison_schemes() {
  static const std::vector<SchemeName> all = {
      {"NaiveSSE", "naive"}, {"nuCATS", "nucats"},   {"nuCORALS", "nucorals"},
      {"nuMWD", "numwd"},    {"Pochoir", "pochoir"}, {"PLuTo", "pluto"},
  };
  return all;
}

}  // namespace ladderbench
