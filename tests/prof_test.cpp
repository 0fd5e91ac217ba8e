// Per-span performance attribution: the exactness invariant (per-span
// counter deltas sum to the run-wide instrumentation totals), the
// flamegraph export (parse-back + determinism), the straggler verdicts,
// the probe set's cross-thread snapshot and the progress heartbeat.
#include <gtest/gtest.h>

#include <cstdint>
#include <atomic>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cachesim/shared.hpp"
#include "common/error.hpp"
#include "prof/attribution.hpp"
#include "prof/flamegraph.hpp"
#include "prof/probes.hpp"
#include "prof/progress.hpp"
#include "schemes/scheme.hpp"
#include "topology/machine.hpp"
#include "trace/trace.hpp"

namespace nustencil {
namespace {

constexpr int kThreads = 2;
constexpr Index kEdge = 20;
constexpr long kSteps = 4;

const topology::MachineSpec& machine() {
  static const topology::MachineSpec m = topology::xeonX7550();
  return m;
}

/// Runs `name` with every instrumentation source attached (traffic
/// recorder, cache simulator, trace with the per-span sampler) so the
/// resulting events carry full counter deltas.
schemes::RunResult run_profiled(const std::string& name,
                                sched::Schedule schedule, trace::Trace& tr,
                                cachesim::SharedHierarchy& sim,
                                int threads = kThreads) {
  const auto scheme = schemes::make_scheme(name);
  schemes::RunConfig cfg;
  cfg.num_threads = threads;
  cfg.timesteps = kSteps;
  cfg.instrument = true;
  cfg.schedule = schedule;
  cfg.cache_sim = &sim;
  cfg.machine = &machine();
  // Scatter across sockets so remote traffic (and hence the Remote
  // counters) is exercised, mirroring bench/regress.
  cfg.pin_policy = numa::PinPolicy::Scatter;
  cfg.trace = &tr;
  cfg.profile_spans = true;
  if (name == "CATS" || name == "nuCATS")
    cfg.boundary[2] = core::BoundaryKind::Dirichlet;
  core::Problem problem(Coord{kEdge, kEdge, kEdge},
                        core::StencilSpec::paper_3d7p());
  return scheme->run(problem, cfg);
}

/// Sum of every per-span counter delta held in the event rings.
trace::CounterSet sum_event_deltas(const trace::Trace& tr) {
  trace::CounterSet sum;
  for (int tid = 0; tid < tr.num_threads(); ++tid)
    for (const trace::Event& e : tr.thread(tid)->events())
      if (e.has_counters) sum.accumulate(e.counters);
  return sum;
}

/// Sum of the out-of-ring per-phase counter accumulators.
trace::CounterSet sum_counter_totals(const trace::Trace& tr) {
  trace::CounterSet sum;
  for (int tid = 0; tid < tr.num_threads(); ++tid)
    for (int p = 0; p < trace::kNumPhases; ++p)
      sum.accumulate(
          tr.thread(tid)->counter_total(static_cast<trace::Phase>(p)));
  return sum;
}

TEST(ProfAttribution, SpanDeltasSumExactlyToRunTotals) {
  for (const std::string name : {"NaiveSSE", "nuCATS", "nuCORALS"}) {
    for (const auto schedule :
         {sched::Schedule::Static, sched::Schedule::Steal}) {
      SCOPED_TRACE(name + (schedule == sched::Schedule::Steal ? "/steal"
                                                              : "/static"));
      trace::Trace tr;
      cachesim::SharedHierarchy sim(machine(), kThreads);
      const schemes::RunResult run = run_profiled(name, schedule, tr, sim);

      // The default ring comfortably holds this small run, so the event
      // deltas are complete and must equal the out-of-ring accumulators.
      for (int tid = 0; tid < tr.num_threads(); ++tid)
        ASSERT_EQ(tr.thread(tid)->dropped(), 0u);
      const trace::CounterSet events = sum_event_deltas(tr);
      const trace::CounterSet totals = sum_counter_totals(tr);
      EXPECT_EQ(events.v, totals.v);

      // ... and both must equal the run-wide instrumentation totals:
      // every update / traffic byte / cache access happens inside a
      // counter-carrying span, so nothing leaks past the sampler.
      EXPECT_EQ(totals.at(trace::SpanCounter::Updates),
                static_cast<std::uint64_t>(run.updates));
      EXPECT_EQ(totals.at(trace::SpanCounter::LocalBytes),
                run.traffic.local_bytes);
      EXPECT_EQ(totals.at(trace::SpanCounter::RemoteBytes),
                run.traffic.remote_bytes);
      EXPECT_EQ(totals.at(trace::SpanCounter::UnownedBytes),
                run.traffic.unowned_bytes);
      const cachesim::HierarchyTraffic ht = sim.traffic();
      const int levels = std::min<int>(trace::CounterSet::kMaxCacheLevels,
                                       static_cast<int>(ht.level.size()));
      for (int l = 0; l < levels; ++l) {
        EXPECT_EQ(totals.level_hits(l), ht.level[l].hits) << "L" << l + 1;
        EXPECT_EQ(totals.level_misses(l), ht.level[l].misses) << "L" << l + 1;
      }

      // The summary in RunResult carries the same exact totals.
      ASSERT_TRUE(run.prof.enabled);
      EXPECT_EQ(run.prof.totals.v, totals.v);
      EXPECT_GT(run.prof.sampled_spans, 0u);
      EXPECT_EQ(run.prof.dropped_events, 0u);
    }
  }
}

TEST(ProfAttribution, OnlyTileAndInitSpansCarryCounters) {
  trace::Trace tr;
  cachesim::SharedHierarchy sim(machine(), kThreads);
  run_profiled("nuCORALS", sched::Schedule::Static, tr, sim);
  std::uint64_t carrying = 0;
  for (int tid = 0; tid < tr.num_threads(); ++tid) {
    for (const trace::Event& e : tr.thread(tid)->events()) {
      if (trace::phase_carries_counters(e.phase)) {
        EXPECT_TRUE(e.has_counters) << trace::phase_name(e.phase);
        ++carrying;
      } else {
        EXPECT_FALSE(e.has_counters) << trace::phase_name(e.phase);
      }
    }
  }
  EXPECT_GT(carrying, 0u);
}

/// Parses "stack weight" folded lines; fails the test on malformed input.
std::map<std::string, std::uint64_t> parse_folded(const std::string& text) {
  std::map<std::string, std::uint64_t> out;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    const std::size_t space = line.rfind(' ');
    EXPECT_NE(space, std::string::npos) << line;
    if (space == std::string::npos) continue;
    const std::string stack = line.substr(0, space);
    const std::uint64_t weight = std::stoull(line.substr(space + 1));
    EXPECT_FALSE(stack.empty());
    EXPECT_GT(weight, 0u) << "zero-weight lines must be skipped: " << line;
    EXPECT_EQ(out.count(stack), 0u) << "duplicate stack: " << stack;
    out[stack] = weight;
  }
  return out;
}

TEST(ProfFlamegraph, RemoteWeightsParseBackToTheExactTotal) {
  trace::Trace tr;
  cachesim::SharedHierarchy sim(machine(), kThreads);
  const schemes::RunResult run =
      run_profiled("NaiveSSE", sched::Schedule::Static, tr, sim);
  ASSERT_GT(run.traffic.remote_bytes, 0u)
      << "scatter pinning must generate remote traffic";

  std::ostringstream os;
  prof::write_flamegraph(os, tr, "NaiveSSE", prof::FlameWeight::RemoteBytes);
  const auto folded = parse_folded(os.str());
  ASSERT_FALSE(folded.empty());
  std::uint64_t total = 0;
  for (const auto& [stack, weight] : folded) {
    EXPECT_EQ(stack.rfind("NaiveSSE;worker:", 0), 0u) << stack;
    total += weight;
  }
  // Remote bytes only accrue inside counter-carrying spans, so the
  // folded weights reproduce the run total exactly.
  EXPECT_EQ(total, run.traffic.remote_bytes);
}

TEST(ProfFlamegraph, TimeWeightCoversEveryThread) {
  trace::Trace tr;
  cachesim::SharedHierarchy sim(machine(), kThreads);
  run_profiled("nuCORALS", sched::Schedule::Static, tr, sim);
  std::ostringstream os;
  prof::write_flamegraph(os, tr, "nuCORALS", prof::FlameWeight::Time);
  const auto folded = parse_folded(os.str());
  ASSERT_FALSE(folded.empty());
  for (int tid = 0; tid < kThreads; ++tid) {
    const std::string frame =
        "nuCORALS;worker:" + std::to_string(tid);
    bool seen = false;
    for (const auto& [stack, weight] : folded)
      seen = seen || stack.rfind(frame, 0) == 0;
    EXPECT_TRUE(seen) << "no stacks for thread " << tid;
  }
}

TEST(ProfFlamegraph, CounterWeightedOutputIsDeterministic) {
  // Two identical static runs must fold to byte-identical output for the
  // counter weightings (wall-time weights are inherently noisy).  Remote
  // bytes are thread-private and deterministic at any thread count; the
  // cache-miss weights are only deterministic single-threaded, because
  // shared levels (the Xeon's per-socket L3) make each core's hit/miss
  // outcome depend on how the threads' accesses interleave.
  const auto fold = [](prof::FlameWeight w, int threads) {
    trace::Trace tr;
    cachesim::SharedHierarchy sim(machine(), threads);
    run_profiled("nuCORALS", sched::Schedule::Static, tr, sim, threads);
    std::ostringstream os;
    prof::write_flamegraph(os, tr, "nuCORALS", w);
    return os.str();
  };
  EXPECT_EQ(fold(prof::FlameWeight::RemoteBytes, kThreads),
            fold(prof::FlameWeight::RemoteBytes, kThreads));
  EXPECT_EQ(fold(prof::FlameWeight::CacheMisses, 1),
            fold(prof::FlameWeight::CacheMisses, 1));
}

TEST(ProfFlamegraph, WeightNamesRoundTrip) {
  using prof::FlameWeight;
  for (const auto w : {FlameWeight::Time, FlameWeight::RemoteBytes,
                       FlameWeight::CacheMisses})
    EXPECT_EQ(prof::parse_flame_weight(prof::flame_weight_name(w)), w);
  EXPECT_THROW(prof::parse_flame_weight("cycles"), Error);
  try {
    prof::parse_flame_weight("cycles");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("cycles"), std::string::npos);
  }
}

prof::SpanRecord tile_span(std::int64_t dur_ns, std::int64_t exclude_ns) {
  prof::SpanRecord s;
  s.phase = trace::Phase::Tile;
  s.start_ns = 0;
  s.end_ns = dur_ns;
  s.exclude_ns = exclude_ns;
  return s;
}

TEST(ProfVerdict, WaitPhasesAreSpinBoundByDefinition) {
  for (const auto p : {trace::Phase::BarrierWait, trace::Phase::SpinWait}) {
    prof::SpanRecord s;
    s.phase = p;
    s.end_ns = 1000;
    const prof::Attribution a = prof::attribute(s);
    EXPECT_EQ(a.verdict, prof::Verdict::SpinBound);
    EXPECT_DOUBLE_EQ(a.spin_frac, 1.0);
  }
}

TEST(ProfVerdict, NestedWaitingDominatesTheSpan) {
  prof::SpanRecord s = tile_span(1000000, 600000);
  const prof::Attribution a = prof::attribute(s);
  EXPECT_EQ(a.verdict, prof::Verdict::SpinBound);
  EXPECT_DOUBLE_EQ(a.spin_frac, 0.6);
}

TEST(ProfVerdict, RemoteTrafficDominates) {
  prof::SpanRecord s = tile_span(1000, 0);
  s.counters.at(trace::SpanCounter::LocalBytes) = 100;
  s.counters.at(trace::SpanCounter::RemoteBytes) = 900;
  const prof::Attribution a = prof::attribute(s);
  EXPECT_EQ(a.verdict, prof::Verdict::RemoteTrafficBound);
  EXPECT_DOUBLE_EQ(a.remote_frac, 0.9);
}

TEST(ProfVerdict, DeepestLevelMissesDominate) {
  prof::SpanRecord s = tile_span(1000, 0);
  s.counters.at(trace::SpanCounter::LocalBytes) = 900;
  s.counters.at(trace::SpanCounter::RemoteBytes) = 100;
  s.counters.at(trace::SpanCounter::L1Hits) = 50;
  s.counters.at(trace::SpanCounter::L1Misses) = 50;
  s.counters.at(trace::SpanCounter::L2Hits) = 10;
  s.counters.at(trace::SpanCounter::L2Misses) = 40;
  const prof::Attribution a = prof::attribute(s);
  EXPECT_EQ(a.verdict, prof::Verdict::CacheMissBound);
  EXPECT_DOUBLE_EQ(a.miss_rate, 0.8);  // L2 is the deepest active level
}

TEST(ProfVerdict, OtherwiseComputeBound) {
  prof::SpanRecord s = tile_span(1000, 100);
  s.counters.at(trace::SpanCounter::LocalBytes) = 900;
  s.counters.at(trace::SpanCounter::RemoteBytes) = 100;
  s.counters.at(trace::SpanCounter::L1Hits) = 95;
  s.counters.at(trace::SpanCounter::L1Misses) = 5;
  const prof::Attribution a = prof::attribute(s);
  EXPECT_EQ(a.verdict, prof::Verdict::ComputeBound);
  EXPECT_DOUBLE_EQ(a.spin_frac, 0.1);
  EXPECT_DOUBLE_EQ(a.remote_frac, 0.1);
}

TEST(ProfVerdict, NamesAreStable) {
  EXPECT_STREQ(prof::verdict_name(prof::Verdict::ComputeBound),
               "compute-bound");
  EXPECT_STREQ(prof::verdict_name(prof::Verdict::RemoteTrafficBound),
               "remote-traffic-bound");
  EXPECT_STREQ(prof::verdict_name(prof::Verdict::CacheMissBound),
               "cache-miss-bound");
  EXPECT_STREQ(prof::verdict_name(prof::Verdict::SpinBound), "spin-bound");
}

TEST(ProfSummary, StragglersAreTopKSlowestInOrder) {
  trace::Trace tr;
  cachesim::SharedHierarchy sim(machine(), kThreads);
  run_profiled("nuCORALS", sched::Schedule::Static, tr, sim);
  const prof::ProfSummary s = prof::summarize(tr, 8, /*top_k=*/5);
  ASSERT_TRUE(s.enabled);
  ASSERT_LE(s.stragglers.size(), 5u);
  ASSERT_FALSE(s.stragglers.empty());
  for (std::size_t i = 1; i < s.stragglers.size(); ++i)
    EXPECT_GE(s.stragglers[i - 1].span.dur_ns(),
              s.stragglers[i].span.dur_ns());
  for (const prof::Straggler& st : s.stragglers) {
    EXPECT_GT(st.dur_ms, 0.0);
    EXPECT_GT(st.mean_dur_ms, 0.0);
  }
}

TEST(ProfSummary, RooflineIsCappedAndAnnotated) {
  trace::Trace tr;
  cachesim::SharedHierarchy sim(machine(), kThreads);
  run_profiled("nuCORALS", sched::Schedule::Static, tr, sim);
  const prof::ProfSummary s =
      prof::summarize(tr, 8, /*top_k=*/5, /*max_roofline=*/7);
  EXPECT_LE(s.roofline.size(), 7u);
  ASSERT_FALSE(s.roofline.empty());
  for (const prof::RooflinePoint& p : s.roofline) {
    EXPECT_GT(p.ai, 0.0);
    EXPECT_GT(p.gflops, 0.0);
    EXPECT_GE(p.tid, 0);
    EXPECT_LT(p.tid, kThreads);
  }
}

TEST(ProfSummary, DisabledWithoutASampler) {
  trace::Trace tr;
  const prof::ProfSummary empty = prof::summarize(tr, 8);
  EXPECT_FALSE(empty.enabled);
  EXPECT_TRUE(empty.stragglers.empty());

  // A traced-but-unsampled run also reports disabled: spans exist but no
  // counters were attached.
  trace::Trace unsampled;
  unsampled.begin_run(1);
  const prof::ProfSummary s = prof::summarize(unsampled, 8);
  EXPECT_FALSE(s.enabled);
}

/// Adds one tile's worth of counters to thread `tid`'s shard, as the
/// executor and the traffic recorder do.
void publish(prof::Probes& probes, int tid, std::uint64_t updates,
             std::uint64_t local, std::uint64_t remote) {
  prof::Probes::Shard& s = probes.shard(tid);
  trace::single_writer_add(s.updates, updates);
  trace::single_writer_add(s.local_bytes, local);
  trace::single_writer_add(s.remote_bytes, remote);
}

TEST(Probes, CrossThreadSnapshotIsMonotoneAndExact) {
  // One writer advances its shard while this thread snapshots it: every
  // snapshot must be monotone, and the last one (after the join) must
  // equal the written totals.  The writer pauses after each batch until
  // the reader has taken another snapshot, so reads really interleave
  // with writes; the handshake orders each read before the next batch's
  // writes, never a write before a read, so under -fsanitize=thread a
  // non-atomic shard would still be reported as a race.
  constexpr std::uint64_t kTiles = 20000;
  constexpr std::uint64_t kBatch = 100;
  prof::Probes probes(2);
  std::atomic<std::uint64_t> reads{0};
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (std::uint64_t i = 1; i <= kTiles; ++i) {
      publish(probes, 1, 3, 2 * i, 1);
      trace::single_writer_add(probes.shard(1).unowned_bytes, 5);
      if (i % kBatch == 0)
        while (reads.load(std::memory_order_acquire) < i / kBatch)
          std::this_thread::yield();
    }
    done.store(true, std::memory_order_release);
  });
  trace::CounterSet prev, now;
  bool monotone = true;
  while (!done.load(std::memory_order_acquire)) {
    probes.snapshot(1, now);
    for (int i = 0; i < trace::kNumSpanCounters; ++i)
      monotone = monotone && now.v[static_cast<std::size_t>(i)] >=
                                 prev.v[static_cast<std::size_t>(i)];
    prev = now;
    reads.fetch_add(1, std::memory_order_release);
  }
  writer.join();
  EXPECT_TRUE(monotone);
  EXPECT_GE(reads.load(), kTiles / kBatch);
  probes.snapshot(1, now);
  EXPECT_EQ(now.at(trace::SpanCounter::Updates), 3 * kTiles);
  EXPECT_EQ(now.at(trace::SpanCounter::LocalBytes), kTiles * (kTiles + 1));
  EXPECT_EQ(now.at(trace::SpanCounter::RemoteBytes), kTiles);
  EXPECT_EQ(now.at(trace::SpanCounter::UnownedBytes), 5 * kTiles);
  // The other thread's shard is untouched.
  probes.snapshot(0, now);
  EXPECT_FALSE(now.any());
}

TEST(ProfProgress, RenderLineReportsLayerRateLocalityAndCompletion) {
  std::ostringstream os;
  prof::ProgressMeter meter(60.0, os);
  prof::Probes probes(2);
  meter.begin_run("nuCORALS t2", 2, 1000);
  meter.bind(&probes);
  publish(probes, 0, 100, 800, 200);
  publish(probes, 1, 150, 600, 400);
  probes.set_layer(3);
  const std::string line = meter.render_line();
  EXPECT_NE(line.find("progress [nuCORALS t2]"), std::string::npos) << line;
  EXPECT_NE(line.find("layer 3"), std::string::npos) << line;
  EXPECT_NE(line.find("M up/s"), std::string::npos) << line;
  // locality = 1400 local / 2000 owned, completion = 250 / 1000.
  EXPECT_NE(line.find("locality 70.0%"), std::string::npos) << line;
  EXPECT_NE(line.find("25.0% done"), std::string::npos) << line;
}

TEST(ProfProgress, LayerIndicatorIsMonotonic) {
  std::ostringstream os;
  prof::ProgressMeter meter(60.0, os);
  prof::Probes probes(1);
  meter.begin_run("x", 1, 0);
  meter.bind(&probes);
  probes.set_layer(5);
  probes.set_layer(2);  // late arrival must not move the indicator back
  EXPECT_NE(meter.render_line().find("layer 5"), std::string::npos);
}

TEST(ProfProgress, FinalBeatReportsEvenOnShortRuns) {
  std::ostringstream os;
  prof::ProgressMeter meter(60.0, os);  // far longer than the test
  prof::Probes probes(1);
  meter.begin_run("short", 1, 100);
  meter.bind(&probes);
  publish(probes, 0, 100, 10, 0);
  meter.emit_final();  // the telemetry sampler drives this at end_run
  const std::string out = os.str();
  EXPECT_NE(out.find("(final)"), std::string::npos) << out;
  EXPECT_NE(out.find("100.0% done"), std::string::npos) << out;
}

TEST(ProfProgress, ProbeSnapshotExposesPublishedStateToTheSampler) {
  prof::Probes probes(2);
  publish(probes, 1, 42, 100, 50);
  probes.set_layer(7);
  EXPECT_EQ(probes.num_threads(), 2);
  trace::CounterSet c;
  probes.snapshot(1, c);
  EXPECT_EQ(c.at(trace::SpanCounter::Updates), 42u);
  EXPECT_EQ(c.at(trace::SpanCounter::LocalBytes), 100u);
  EXPECT_EQ(c.at(trace::SpanCounter::RemoteBytes), 50u);
  probes.snapshot(0, c);
  EXPECT_EQ(c.at(trace::SpanCounter::Updates), 0u);
  EXPECT_EQ(probes.layer(), 7);
  // No simulator or hardware callback attached: those slots read zero.
  EXPECT_EQ(probes.cache_levels(), 0);
  EXPECT_FALSE(probes.has_hw());
}

TEST(ProfProgress, RejectsNonPositiveIntervalsAndEmptyTeams) {
  std::ostringstream os;
  EXPECT_THROW(prof::ProgressMeter(0.0, os), Error);
  EXPECT_THROW(prof::ProgressMeter(-1.0, os), Error);
  prof::ProgressMeter meter(1.0, os);
  EXPECT_THROW(meter.begin_run("x", 0, 0), Error);
}

}  // namespace
}  // namespace nustencil
