// Host facts the benchmark records next to every run: CPU steal time,
// peak RSS, cache sizes and thread pinning.
#pragma once

#include <cstdint>
#include <vector>

namespace ladderbench {

/// CPU time counters from /proc/stat, in clock ticks.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
  bool valid = false;

  /// Summed over the listed cores; the all-core line when `cores` is empty.
  static CpuTimes now(const std::vector<int>& cores = {});
};

/// Steal time between two snapshots as a percentage of all CPU time
/// (0 when /proc/stat is unavailable or no time passed).
double steal_percent(const CpuTimes& before, const CpuTimes& after);

/// The process's peak resident set size in MiB.
double peak_rss_mib();

/// Cache capacities as the C library reports them (0 = unknown).
long l2_cache_bytes();
long l3_cache_bytes();

/// Online processor count.
int online_cpus();

/// Core the benchmark's own thread runs on: the last one, so it never
/// shares a core with the pinned workers 0..threads-1.
int driver_core();

}  // namespace ladderbench
