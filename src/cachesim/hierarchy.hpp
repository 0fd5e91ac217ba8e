// Multi-level, multi-core cache hierarchy built from Cache instances.
//
// Level i is private per core when the MachineSpec says shared_by_cores==1,
// otherwise one instance is shared by each group of cores (e.g. the Xeon's
// per-socket L3).  Inclusive fill path: an access walks L1 -> L2 -> ... and
// fills every missed level; dirty evictions from the last level count as
// memory writes.
#pragma once

#include <memory>
#include <vector>

#include "cachesim/cache.hpp"
#include "topology/machine.hpp"

namespace nustencil::cachesim {

struct LevelTraffic {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

struct HierarchyTraffic {
  std::vector<LevelTraffic> level;   ///< one entry per cache level
  std::uint64_t memory_reads = 0;    ///< line fills from memory
  std::uint64_t memory_writes = 0;   ///< dirty writebacks to memory

  std::uint64_t memory_bytes(Index line_bytes) const {
    return (memory_reads + memory_writes) * static_cast<std::uint64_t>(line_bytes);
  }
};

class Hierarchy {
 public:
  Hierarchy(const topology::MachineSpec& machine, int num_cores);

  /// Simulates an access of [addr, addr+bytes) by `core`; each covered
  /// cache line is accessed once.
  void access(int core, Addr addr, Index bytes, bool write);

  /// Writes back and invalidates all caches.
  void flush();

  HierarchyTraffic traffic() const;
  Index line_bytes() const { return line_bytes_; }
  std::size_t levels() const { return caches_.size(); }

  /// Per-level hit/miss counters attributed to the accessing core (one
  /// entry per cache level).  The global per-Cache counters cannot be
  /// attributed back to a thread once levels are shared; this mirror is
  /// incremented on the same walk, so summed over all cores it equals
  /// traffic().level exactly.
  const std::vector<LevelTraffic>& core_traffic(int core) const {
    return core_level_[static_cast<std::size_t>(core)];
  }

 private:
  Cache& cache_at(std::size_t level, int core);
  void access_line(int core, Addr line_addr_bytes, bool write);

  const topology::MachineSpec* machine_;
  int num_cores_;
  Index line_bytes_;
  /// caches_[level][group]
  std::vector<std::vector<std::unique_ptr<Cache>>> caches_;
  std::vector<int> group_divisor_;  ///< cores per sharing group at each level
  /// core_level_[core][level]: the per-core attribution mirror.
  std::vector<std::vector<LevelTraffic>> core_level_;
  std::uint64_t memory_reads_ = 0;
  std::uint64_t memory_writes_ = 0;
};

}  // namespace nustencil::cachesim
