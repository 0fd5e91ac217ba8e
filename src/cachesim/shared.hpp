// Thread-safe wrapper around Hierarchy for trace-driven simulation of
// multi-threaded scheme executions.
//
// The executor feeds its (row-granular) access stream here when a run is
// configured with RunConfig::cache_sim.  A single mutex serialises the
// simulated accesses — acceptable because trace-driven runs use small
// domains by design; the interleaving of rows from different threads is
// then a legal (if arbitrary) schedule of the real execution.
#pragma once

#include <mutex>

#include "cachesim/hierarchy.hpp"

namespace nustencil::cachesim {

class SharedHierarchy {
 public:
  SharedHierarchy(const topology::MachineSpec& machine, int num_cores)
      : hierarchy_(machine, num_cores) {}

  void access(int core, Addr addr, Index bytes, bool write) {
    std::lock_guard<std::mutex> lock(mutex_);
    hierarchy_.access(core, addr, bytes, write);
  }

  HierarchyTraffic traffic() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return hierarchy_.traffic();
  }

  Index line_bytes() const { return hierarchy_.line_bytes(); }

  /// Simulated cache levels (fixed at construction).
  std::size_t levels() const { return hierarchy_.levels(); }

  /// Calls `read(levels)` with the per-core attribution counters of
  /// `core` (see Hierarchy::core_traffic) under the simulator's mutex, so
  /// any thread may read any core's counters while workers simulate.
  template <class Read>
  void read_core_traffic(int core, Read&& read) const {
    std::lock_guard<std::mutex> lock(mutex_);
    read(hierarchy_.core_traffic(core));
  }

 private:
  mutable std::mutex mutex_;
  Hierarchy hierarchy_;
};

}  // namespace nustencil::cachesim
