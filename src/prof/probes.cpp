#include "prof/probes.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace nustencil::prof {

Probes::Probes(int num_threads)
    : shards_(static_cast<std::size_t>(std::max(num_threads, 0))) {
  NUSTENCIL_CHECK(num_threads >= 1, "Probes: need at least one thread");
}

int Probes::cache_levels() const {
  return cache_ ? std::min<int>(static_cast<int>(cache_->levels()),
                                trace::CounterSet::kMaxCacheLevels)
                : 0;
}

void Probes::snapshot(int tid, trace::CounterSet& out) const {
  out = trace::CounterSet{};
  const Shard& s = shard(tid);
  out.at(trace::SpanCounter::Updates) = s.updates.load(std::memory_order_relaxed);
  out.at(trace::SpanCounter::LocalBytes) =
      s.local_bytes.load(std::memory_order_relaxed);
  out.at(trace::SpanCounter::RemoteBytes) =
      s.remote_bytes.load(std::memory_order_relaxed);
  out.at(trace::SpanCounter::UnownedBytes) =
      s.unowned_bytes.load(std::memory_order_relaxed);
  if (cache_) {
    cache_->read_core_traffic(
        tid, [&](const std::vector<cachesim::LevelTraffic>& levels) {
          const std::size_t n =
              std::min<std::size_t>(levels.size(), trace::CounterSet::kMaxCacheLevels);
          for (std::size_t l = 0; l < n; ++l) {
            out.v[static_cast<std::size_t>(trace::SpanCounter::L1Hits) + 2 * l] =
                levels[l].hits;
            out.v[static_cast<std::size_t>(trace::SpanCounter::L1Misses) + 2 * l] =
                levels[l].misses;
          }
        });
  }
  if (hw_) hw_(tid, out);
}

}  // namespace nustencil::prof
