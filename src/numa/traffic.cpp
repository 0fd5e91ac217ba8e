#include "numa/traffic.hpp"

#include <algorithm>

namespace nustencil::numa {

void TrafficStats::merge(const TrafficStats& o) {
  local_bytes += o.local_bytes;
  remote_bytes += o.remote_bytes;
  unowned_bytes += o.unowned_bytes;
  if (bytes_from_node.size() < o.bytes_from_node.size())
    bytes_from_node.resize(o.bytes_from_node.size(), 0);
  for (std::size_t i = 0; i < o.bytes_from_node.size(); ++i)
    bytes_from_node[i] += o.bytes_from_node[i];
  if (node_matrix.size() < o.node_matrix.size())
    node_matrix.resize(o.node_matrix.size(), 0);
  for (std::size_t i = 0; i < o.node_matrix.size(); ++i)
    node_matrix[i] += o.node_matrix[i];
  // Window i of each side aggregates into window i of the result; the
  // cumulative update counts add because they are per-thread progress.
  if (samples.size() < o.samples.size()) samples.resize(o.samples.size());
  for (std::size_t i = 0; i < o.samples.size(); ++i) {
    samples[i].updates += o.samples[i].updates;
    samples[i].local_bytes += o.samples[i].local_bytes;
    samples[i].remote_bytes += o.samples[i].remote_bytes;
  }
}

TrafficRecorder::TrafficRecorder(const PageTable& pages, const VirtualTopology& topo,
                                 prof::Probes& probes)
    : pages_(&pages), topo_(&topo), probes_(&probes),
      per_thread_(static_cast<std::size_t>(probes.num_threads())),
      scratch_(static_cast<std::size_t>(probes.num_threads())) {
  const std::size_t nodes = static_cast<std::size_t>(topo.num_nodes());
  for (int tid = 0; tid < probes.num_threads(); ++tid) {
    PerThread& p = per_thread_[static_cast<std::size_t>(tid)];
    p.by_owner.assign(nodes, 0);
    p.node = topo.node_of_thread(tid);
  }
}

void TrafficRecorder::account(int tid, RegionId region, Index byte_begin, Index byte_end) {
  NUSTENCIL_DCHECK(tid >= 0 && tid < static_cast<int>(per_thread_.size()),
                   "TrafficRecorder: bad tid");
  PerThread& p = per_thread_[static_cast<std::size_t>(tid)];
  prof::Probes::Shard& shard = probes_->shard(tid);
  auto& by_node = scratch_[static_cast<std::size_t>(tid)];
  const int nodes = topo_->num_nodes();
  pages_->count_bytes_by_node(region, byte_begin, byte_end, nodes, by_node);
  const int my_node = p.node;
  std::uint64_t local = 0, remote = 0;
  for (int n = 0; n < nodes; ++n) {
    const std::uint64_t b = by_node[static_cast<std::size_t>(n)];
    if (b == 0) continue;
    p.by_owner[static_cast<std::size_t>(n)] += b;
    if (n == my_node)
      local += b;
    else
      remote += b;
  }
  const std::uint64_t unowned = by_node[static_cast<std::size_t>(nodes)];
  if (local) trace::single_writer_add(shard.local_bytes, local);
  if (remote) trace::single_writer_add(shard.remote_bytes, remote);
  if (unowned) trace::single_writer_add(shard.unowned_bytes, unowned);
  // Exactly-once attribution: the per-node split (plus the unowned
  // bucket) must cover the range — no byte counted twice when the range
  // straddles differently-owned pages, none dropped.
  NUSTENCIL_DCHECK(local + remote + unowned ==
                       static_cast<std::uint64_t>(byte_end - byte_begin),
                   "TrafficRecorder: page-straddling range not attributed exactly once");
}

namespace {

/// The owned traffic between two probe snapshots of one thread.
LocalitySample window_between(const trace::CounterSet& start,
                              const trace::CounterSet& now) {
  LocalitySample s;
  s.updates = now.at(trace::SpanCounter::Updates);
  s.local_bytes = now.at(trace::SpanCounter::LocalBytes) -
                  start.at(trace::SpanCounter::LocalBytes);
  s.remote_bytes = now.at(trace::SpanCounter::RemoteBytes) -
                   start.at(trace::SpanCounter::RemoteBytes);
  return s;
}

}  // namespace

void TrafficRecorder::close_window(int tid) {
  PerThread& p = per_thread_[static_cast<std::size_t>(tid)];
  trace::CounterSet now;
  probes_->snapshot(tid, now);
  p.samples.push_back(window_between(p.window_start, now));
  p.window_start = now;
}

TrafficStats TrafficRecorder::collect() const {
  const std::size_t nodes = static_cast<std::size_t>(topo_->num_nodes());
  TrafficStats total;
  total.bytes_from_node.assign(nodes, 0);
  total.node_matrix.assign(nodes * nodes, 0);
  for (int tid = 0; tid < probes_->num_threads(); ++tid) {
    const PerThread& p = per_thread_[static_cast<std::size_t>(tid)];
    trace::CounterSet now;
    probes_->snapshot(tid, now);
    TrafficStats stats;
    stats.local_bytes = now.at(trace::SpanCounter::LocalBytes);
    stats.remote_bytes = now.at(trace::SpanCounter::RemoteBytes);
    stats.unowned_bytes = now.at(trace::SpanCounter::UnownedBytes);
    stats.bytes_from_node = p.by_owner;
    stats.node_matrix.assign(nodes * nodes, 0);
    std::copy(p.by_owner.begin(), p.by_owner.end(),
              stats.node_matrix.begin() +
                  static_cast<std::ptrdiff_t>(static_cast<std::size_t>(p.node) * nodes));
    stats.samples = p.samples;
    // A partially filled trailing window still carries signal; flush it
    // so short runs (and the run tail) appear in the series.
    const LocalitySample tail = window_between(p.window_start, now);
    if (sample_window_ > 0 &&
        tail.updates > p.window_start.at(trace::SpanCounter::Updates) &&
        tail.local_bytes + tail.remote_bytes > 0)
      stats.samples.push_back(tail);
    total.merge(stats);
  }
  return total;
}

}  // namespace nustencil::numa
