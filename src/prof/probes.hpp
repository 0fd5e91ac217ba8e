// The run's probe set: the one place every counter reader snapshots.
//
// A Probes object owns one cache-line-padded shard per worker thread —
// cumulative cell updates and NUMA local/remote/unowned traffic bytes —
// plus the run's cache simulator, its hardware-counter callback and the
// layer indicator.  It answers one question, snapshot(tid, CounterSet&):
// the cumulative counters of thread `tid`.  Every reader goes through
// that read: trace spans (start/end deltas), the telemetry sampler and
// its watchdog, the --progress heartbeat and the traffic recorder's
// locality windows.
//
// Shard counters are relaxed atomics that only the owning thread writes,
// with a load and a store (trace::single_writer_add — never a locked
// read-modify-write), so the writer pays what a plain counter costs and
// any thread may read them mid-run without a data race.  The cache
// simulator is read under its own mutex.  A snapshot is
// per-thread-coherent, not globally atomic (DESIGN.md, "Live telemetry").
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "cachesim/shared.hpp"
#include "common/aligned.hpp"
#include "trace/trace.hpp"

namespace nustencil::prof {

class Probes final : public trace::CounterSampler {
 public:
  /// One thread's cumulative counters; written by that thread only.
  struct alignas(kCacheLineBytes) Shard {
    std::atomic<std::uint64_t> updates{0};
    std::atomic<std::uint64_t> local_bytes{0};    ///< node-local owned traffic
    std::atomic<std::uint64_t> remote_bytes{0};   ///< cross-node owned traffic
    std::atomic<std::uint64_t> unowned_bytes{0};  ///< never-touched pages
  };

  /// Measured hardware counters of thread `tid`, written into the
  /// CounterSet's hw slots.  A std::function keeps this library
  /// independent of src/hwc.
  using HwFn = std::function<void(int tid, trace::CounterSet& out)>;

  explicit Probes(int num_threads);

  int num_threads() const { return static_cast<int>(shards_.size()); }
  Shard& shard(int tid) { return shards_[static_cast<std::size_t>(tid)]; }
  const Shard& shard(int tid) const {
    return shards_[static_cast<std::size_t>(tid)];
  }

  /// Attaches the run's cache simulator (thread tid = simulated core
  /// tid); its per-core hit/miss mirror fills the L1..L3 slots.
  void set_cache(const cachesim::SharedHierarchy* cache) { cache_ = cache; }
  /// Simulated cache levels (0 without a simulator).
  int cache_levels() const;

  /// Attaches the hardware-counter callback; it must be safe to call from
  /// any thread for any tid.
  void set_hw(HwFn fn) { hw_ = std::move(fn); }
  bool has_hw() const { return static_cast<bool>(hw_); }

  /// Advances the run-wide layer indicator (monotonic max; any thread).
  void set_layer(long layer) {
    long cur = layer_.load(std::memory_order_relaxed);
    while (layer > cur &&
           !layer_.compare_exchange_weak(cur, layer, std::memory_order_relaxed)) {
    }
  }
  /// The highest layer any thread has entered, or -1 before the first.
  long layer() const { return layer_.load(std::memory_order_relaxed); }

  /// The cumulative counters of thread `tid`: updates and traffic bytes
  /// from its shard, per-level hits/misses from the cache simulator, and
  /// the hardware slots from the callback.  Slots without a source read
  /// zero.  Safe from any thread.
  void snapshot(int tid, trace::CounterSet& out) const;

  /// trace::CounterSampler: span ends snapshot through the same read.
  void sample(int tid, trace::CounterSet& out) const override {
    snapshot(tid, out);
  }

 private:
  std::vector<Shard> shards_;
  const cachesim::SharedHierarchy* cache_ = nullptr;
  HwFn hw_;
  std::atomic<long> layer_{-1};
};

}  // namespace nustencil::prof
