// First-touch page table, virtual topology and traffic accounting.
#include <gtest/gtest.h>

#include "numa/page_table.hpp"
#include "numa/traffic.hpp"
#include "topology/machine.hpp"

namespace nustencil::numa {
namespace {

TEST(PageTable, FirstTouchAssignsOnlyOnce) {
  PageTable pt(4096);
  const RegionId r = pt.register_region("a", 4096 * 4);
  EXPECT_EQ(pt.owner(r, 0), kUnowned);
  pt.first_touch(r, 0, 4096, 1);
  EXPECT_EQ(pt.owner(r, 0), 1);
  pt.first_touch(r, 0, 4096, 2);  // second touch must not steal the page
  EXPECT_EQ(pt.owner(r, 100), 1);
}

TEST(PageTable, RangeSpanningPages) {
  PageTable pt(4096);
  const RegionId r = pt.register_region("a", 4096 * 4);
  pt.first_touch(r, 100, 4096 * 2 + 50, 3);  // pages 0, 1, 2
  EXPECT_EQ(pt.owner(r, 0), 3);
  EXPECT_EQ(pt.owner(r, 4096), 3);
  EXPECT_EQ(pt.owner(r, 4096 * 2), 3);
  EXPECT_EQ(pt.owner(r, 4096 * 3), kUnowned);
}

TEST(PageTable, PlaceOverridesOwnership) {
  PageTable pt(4096);
  const RegionId r = pt.register_region("a", 4096 * 2);
  pt.first_touch(r, 0, 4096, 0);
  pt.place(r, 0, 4096, 5);
  EXPECT_EQ(pt.owner(r, 0), 5);
}

TEST(PageTable, CountBytesByNodeSplitsAtPageBoundary) {
  PageTable pt(4096);
  const RegionId r = pt.register_region("a", 4096 * 2);
  pt.first_touch(r, 0, 4096, 0);
  pt.first_touch(r, 4096, 8192, 1);
  std::vector<std::uint64_t> by_node;
  pt.count_bytes_by_node(r, 2048, 6144, 2, by_node);
  EXPECT_EQ(by_node[0], 2048u);  // [2048, 4096) on node 0
  EXPECT_EQ(by_node[1], 2048u);  // [4096, 6144) on node 1
  EXPECT_EQ(by_node[2], 0u);     // no unowned bytes
}

TEST(PageTable, UnownedBytesCounted) {
  PageTable pt(4096);
  const RegionId r = pt.register_region("a", 4096);
  std::vector<std::uint64_t> by_node;
  pt.count_bytes_by_node(r, 0, 4096, 2, by_node);
  EXPECT_EQ(by_node[2], 4096u);
}

TEST(PageTable, OwnedFraction) {
  PageTable pt(4096);
  const RegionId r = pt.register_region("a", 4096 * 4);
  pt.first_touch(r, 0, 4096 * 3, 2);
  EXPECT_DOUBLE_EQ(pt.owned_fraction(r, 2), 0.75);
  EXPECT_DOUBLE_EQ(pt.owned_fraction(r, 0), 0.0);
}

TEST(PageTable, SmallPagesForScaledDomains) {
  PageTable pt(256);
  const RegionId r = pt.register_region("a", 1024);
  pt.first_touch(r, 0, 256, 0);
  pt.first_touch(r, 256, 1024, 1);
  EXPECT_EQ(pt.owner(r, 255), 0);
  EXPECT_EQ(pt.owner(r, 256), 1);
}

TEST(PageTable, OutOfRangeThrows) {
  PageTable pt(4096);
  const RegionId r = pt.register_region("a", 4096);
  EXPECT_THROW(pt.first_touch(r, 0, 8192, 0), Error);
  EXPECT_THROW(pt.owner(r, 4096), Error);
  EXPECT_THROW(pt.owner(r + 1, 0), Error);
}

TEST(VirtualTopology, FillSocketFirst) {
  const auto machine = topology::xeonX7550();
  VirtualTopology topo(machine);
  EXPECT_EQ(topo.node_of_thread(0), 0);
  EXPECT_EQ(topo.node_of_thread(7), 0);
  EXPECT_EQ(topo.node_of_thread(8), 1);
  EXPECT_EQ(topo.num_nodes(), 4);
}

TEST(TrafficRecorder, ClassifiesLocalAndRemote) {
  const auto machine = topology::xeonX7550();
  PageTable pt(4096);
  VirtualTopology topo(machine);
  const RegionId r = pt.register_region("a", 4096 * 2);
  pt.first_touch(r, 0, 4096, 0);      // node 0
  pt.first_touch(r, 4096, 8192, 1);   // node 1

  prof::Probes probes(16);
  TrafficRecorder rec(pt, topo, probes);
  rec.account(/*tid=*/0, r, 0, 8192);    // thread 0 on node 0
  rec.account(/*tid=*/8, r, 0, 4096);    // thread 8 on node 1
  const TrafficStats stats = rec.collect();
  EXPECT_EQ(stats.local_bytes, 4096u);              // thread 0's first page
  EXPECT_EQ(stats.remote_bytes, 4096u + 4096u);     // rest is cross-node
  EXPECT_EQ(stats.bytes_from_node[0], 4096u * 2);   // node 0 served 2 pages
  EXPECT_EQ(stats.bytes_from_node[1], 4096u);
  EXPECT_NEAR(stats.locality(), 1.0 / 3.0, 1e-12);
}

TEST(TrafficRecorder, PageStraddlingRangeAttributedExactlyOnce) {
  // A range spanning two differently-owned pages must attribute each
  // page's bytes to its owner exactly once: the per-class totals have to
  // cover the range with no byte double-counted or dropped.
  const auto machine = topology::xeonX7550();
  PageTable pt(4096);
  VirtualTopology topo(machine);
  const RegionId r = pt.register_region("straddle", 4096 * 2);
  pt.first_touch(r, 0, 4096, 0);
  pt.first_touch(r, 4096, 8192, 1);

  prof::Probes probes(1);
  TrafficRecorder rec(pt, topo, probes);
  rec.account(/*tid=*/0, r, 1000, 7000);  // 3096 B on page 0, 2904 B on page 1
  const TrafficStats stats = rec.collect();
  EXPECT_EQ(stats.local_bytes, 3096u);
  EXPECT_EQ(stats.remote_bytes, 2904u);
  EXPECT_EQ(stats.unowned_bytes, 0u);
  EXPECT_EQ(stats.total_bytes(), 6000u);
  EXPECT_EQ(stats.bytes_from_node[0] + stats.bytes_from_node[1], 6000u);
}

TEST(TrafficRecorder, StraddleIntoUnownedCountedOncePerPage) {
  const auto machine = topology::xeonX7550();
  PageTable pt(4096);
  VirtualTopology topo(machine);
  const RegionId r = pt.register_region("half", 4096 * 2);
  pt.first_touch(r, 0, 4096, 1);  // second page stays untouched

  prof::Probes probes(1);
  TrafficRecorder rec(pt, topo, probes);
  rec.account(/*tid=*/0, r, 4000, 5000);
  const TrafficStats stats = rec.collect();
  EXPECT_EQ(stats.remote_bytes, 96u);    // tail of the node-1 page
  EXPECT_EQ(stats.unowned_bytes, 904u);  // head of the untouched page
  EXPECT_EQ(stats.total_bytes(), 1000u);
}

TEST(TrafficRecorder, NodeMatrixSplitsConsumerByOwner) {
  const auto machine = topology::xeonX7550();
  PageTable pt(4096);
  VirtualTopology topo(machine);
  const RegionId r = pt.register_region("m", 4096 * 2);
  pt.first_touch(r, 0, 4096, 0);
  pt.first_touch(r, 4096, 8192, 1);

  prof::Probes probes(16);
  TrafficRecorder rec(pt, topo, probes);
  rec.account(/*tid=*/0, r, 0, 8192);  // consumer node 0: one page each owner
  rec.account(/*tid=*/8, r, 0, 4096);  // consumer node 1 <- owner node 0
  const TrafficStats stats = rec.collect();
  ASSERT_EQ(stats.node_matrix.size(),
            static_cast<std::size_t>(stats.num_nodes() * stats.num_nodes()));
  EXPECT_EQ(stats.matrix_at(0, 0), 4096u);
  EXPECT_EQ(stats.matrix_at(0, 1), 4096u);
  EXPECT_EQ(stats.matrix_at(1, 0), 4096u);
  EXPECT_EQ(stats.matrix_at(1, 1), 0u);
  // The diagonal is the local traffic, the rest remote.
  EXPECT_EQ(stats.matrix_at(0, 0) + stats.matrix_at(1, 1), stats.local_bytes);
  EXPECT_EQ(stats.matrix_at(0, 1) + stats.matrix_at(1, 0), stats.remote_bytes);
}

TEST(TrafficRecorder, LocalitySeriesSamplesPerWindow) {
  const auto machine = topology::xeonX7550();
  PageTable pt(4096);
  VirtualTopology topo(machine);
  const RegionId r = pt.register_region("series", 4096 * 2);
  pt.first_touch(r, 0, 4096, 0);
  pt.first_touch(r, 4096, 8192, 1);

  prof::Probes probes(1);
  TrafficRecorder rec(pt, topo, probes);
  rec.set_sample_window(100);
  // What an executor does per tile: count the updates, then tick.
  const auto tile = [&](std::uint64_t updates) {
    trace::single_writer_add(probes.shard(0).updates, updates);
    rec.tick_updates(0);
  };
  rec.account(0, r, 0, 4096);      // local window
  tile(100);                       // closes window 1
  rec.account(0, r, 4096, 8192);   // remote window
  tile(60);
  tile(40);                        // crosses: closes window 2
  rec.account(0, r, 0, 1024);      // partial trailing window
  tile(10);                        // in progress, not yet a full window

  const TrafficStats stats = rec.collect();
  ASSERT_EQ(stats.samples.size(), 3u);
  EXPECT_EQ(stats.samples[0].updates, 100u);
  EXPECT_DOUBLE_EQ(stats.samples[0].locality(), 1.0);
  EXPECT_EQ(stats.samples[1].updates, 200u);
  EXPECT_DOUBLE_EQ(stats.samples[1].locality(), 0.0);
  EXPECT_EQ(stats.samples[2].local_bytes, 1024u);
  // The windows partition the aggregate traffic.
  std::uint64_t local = 0, remote = 0;
  for (const LocalitySample& s : stats.samples) {
    local += s.local_bytes;
    remote += s.remote_bytes;
  }
  EXPECT_EQ(local, stats.local_bytes);
  EXPECT_EQ(remote, stats.remote_bytes);
}

TEST(TrafficRecorder, SamplingDisabledKeepsSeriesEmpty) {
  const auto machine = topology::xeonX7550();
  PageTable pt(4096);
  VirtualTopology topo(machine);
  const RegionId r = pt.register_region("off", 4096);
  pt.first_touch(r, 0, 4096, 0);
  prof::Probes probes(1);
  TrafficRecorder rec(pt, topo, probes);
  rec.account(0, r, 0, 4096);
  trace::single_writer_add(probes.shard(0).updates, 1000);
  rec.tick_updates(0);
  EXPECT_TRUE(rec.collect().samples.empty());
}

TEST(TrafficStats, MergeAndEmptyLocality) {
  TrafficStats a, b;
  a.local_bytes = 10;
  b.remote_bytes = 30;
  b.bytes_from_node = {5, 25};
  a.merge(b);
  EXPECT_EQ(a.local_bytes, 10u);
  EXPECT_EQ(a.remote_bytes, 30u);
  EXPECT_EQ(a.bytes_from_node[1], 25u);
  EXPECT_DOUBLE_EQ(TrafficStats{}.locality(), 1.0);
}

}  // namespace
}  // namespace nustencil::numa
