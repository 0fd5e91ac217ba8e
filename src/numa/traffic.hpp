// Per-thread NUMA traffic accounting.
//
// Executors call account() at row granularity with the byte ranges they
// touch; the recorder classifies each range against the first-touch page
// table as local (page owned by the accessing thread's node) or remote,
// adds the bytes to the thread's probe shard (prof::Probes), and records
// the node-to-node demand matrix the performance model needs.
#pragma once

#include <cstdint>
#include <vector>

#include "common/aligned.hpp"
#include "numa/page_table.hpp"
#include "prof/probes.hpp"
#include "topology/machine.hpp"

namespace nustencil::numa {

/// Thread-to-core placement policies.  The paper pins compactly — "we pin
/// the thread contexts to cores on one socket, before occupying a new
/// socket" (Section IV-B) — so that scaling studies do not exploit another
/// socket's bandwidth early.  Scatter (round-robin across sockets) is the
/// opposite policy, provided for the pinning ablation.
enum class PinPolicy { Compact, Scatter };

/// Placement of logical threads onto the simulated machine.
class VirtualTopology {
 public:
  explicit VirtualTopology(const topology::MachineSpec& machine,
                           PinPolicy policy = PinPolicy::Compact)
      : machine_(&machine), policy_(policy) {}

  int node_of_thread(int tid) const {
    if (policy_ == PinPolicy::Scatter) return tid % machine_->numa_nodes();
    return machine_->node_of_core(tid);
  }
  int num_nodes() const { return machine_->numa_nodes(); }
  const topology::MachineSpec& machine() const { return *machine_; }
  PinPolicy policy() const { return policy_; }

 private:
  const topology::MachineSpec* machine_;
  PinPolicy policy_ = PinPolicy::Compact;
};

/// One window of the locality time-series: the owned traffic a window of
/// `updates` cell updates demanded, split local/remote.  Samples make the
/// first-touch warm-up and the steady-state affinity separately visible
/// instead of folding the whole run into one scalar.
struct LocalitySample {
  std::uint64_t updates = 0;      ///< cumulative cell updates at sample time
  std::uint64_t local_bytes = 0;  ///< owned node-local bytes in this window
  std::uint64_t remote_bytes = 0; ///< owned cross-node bytes in this window

  double locality() const {
    const std::uint64_t owned = local_bytes + remote_bytes;
    return owned == 0 ? 1.0 : static_cast<double>(local_bytes) / static_cast<double>(owned);
  }
};

/// Aggregated traffic of one run.
struct TrafficStats {
  std::uint64_t local_bytes = 0;
  std::uint64_t remote_bytes = 0;
  std::uint64_t unowned_bytes = 0;
  /// Bytes demanded from each NUMA node's memory (by any thread).
  std::vector<std::uint64_t> bytes_from_node;

  /// Full node-to-node demand matrix, row-major `nodes x nodes`:
  /// entry [consumer * nodes + owner] counts the owned bytes threads on
  /// `consumer` demanded from pages owned by `owner`.  The diagonal sums
  /// to local_bytes, the off-diagonal to remote_bytes.
  std::vector<std::uint64_t> node_matrix;

  /// Windowed locality time-series (empty unless sampling was enabled);
  /// window i aggregates window i of every thread.
  std::vector<LocalitySample> samples;

  int num_nodes() const { return static_cast<int>(bytes_from_node.size()); }

  std::uint64_t matrix_at(int consumer, int owner) const {
    return node_matrix[static_cast<std::size_t>(consumer) *
                           static_cast<std::size_t>(num_nodes()) +
                       static_cast<std::size_t>(owner)];
  }

  std::uint64_t total_bytes() const { return local_bytes + remote_bytes + unowned_bytes; }

  /// Fraction of owned traffic that was node-local (1.0 when no traffic).
  double locality() const {
    const std::uint64_t owned = local_bytes + remote_bytes;
    return owned == 0 ? 1.0 : static_cast<double>(local_bytes) / static_cast<double>(owned);
  }

  void merge(const TrafficStats& o);
};

/// Per-thread traffic accounting for the threads of `probes`: the
/// local/remote/unowned byte totals live in the probe shards (readable
/// mid-run), the node matrix and the locality windows here (cache-line
/// padded per thread, merged after the run).
class TrafficRecorder {
 public:
  TrafficRecorder(const PageTable& pages, const VirtualTopology& topo,
                  prof::Probes& probes);

  /// Enables the windowed locality time-series: every thread closes a
  /// window (pushing one LocalitySample) each time its probe shard has
  /// counted another `updates` cell updates, checked at tick_updates().
  /// 0 (the default) disables sampling.
  void set_sample_window(std::uint64_t updates) { sample_window_ = updates; }
  std::uint64_t sample_window() const { return sample_window_; }

  /// Accounts `bytes(range)` of traffic by thread `tid` against the page
  /// ownership of [byte_begin, byte_end) in `region`.  Every byte of the
  /// range is attributed to exactly one node (or the unowned bucket),
  /// even when the range straddles differently-owned pages.
  void account(int tid, RegionId region, Index byte_begin, Index byte_end);

  /// Progress hook (executors call this once per tile, after counting
  /// the tile's updates into the probe shard): closes thread `tid`'s
  /// sample window when it has crossed the configured size; costs one
  /// branch when sampling is disabled.
  void tick_updates(int tid) {
    if (sample_window_ == 0) return;
    const PerThread& p = per_thread_[static_cast<std::size_t>(tid)];
    if (probes_->shard(tid).updates.load(std::memory_order_relaxed) -
            p.window_start.at(trace::SpanCounter::Updates) >=
        sample_window_)
      close_window(tid);
  }

  /// Merged statistics over all threads.
  TrafficStats collect() const;

  const VirtualTopology& topology() const { return *topo_; }

 private:
  struct alignas(kCacheLineBytes) PerThread {
    int node = 0;  ///< the thread's NUMA node (fixed by the topology)
    /// Owned bytes this thread demanded, by owning node (its row of the
    /// node matrix).
    std::vector<std::uint64_t> by_owner;
    // Locality time-series state.
    trace::CounterSet window_start;  ///< probe snapshot at the last close
    std::vector<LocalitySample> samples;
  };

  /// Pushes thread `tid`'s current window, read from a probe snapshot.
  void close_window(int tid);

  const PageTable* pages_;
  const VirtualTopology* topo_;
  prof::Probes* probes_;
  std::uint64_t sample_window_ = 0;
  std::vector<PerThread> per_thread_;
  mutable std::vector<std::vector<std::uint64_t>> scratch_;  // per-thread scratch
};

}  // namespace nustencil::numa
