// Live telemetry: time-series rings, exact-decimation downsampling, the
// OpenMetrics exposition and JSONL event log, the stall watchdog, and
// the sampler itself in deterministic manual (fake-clock) mode plus on a
// real short run.  The zero-cost-off contract — an untelemetered run
// spawns no sampler thread — is pinned here too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "metrics/json.hpp"
#include "prof/probes.hpp"
#include "prof/progress.hpp"
#include "schemes/nucats.hpp"
#include "telemetry/events.hpp"
#include "telemetry/openmetrics.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/timeseries.hpp"
#include "telemetry/watchdog.hpp"
#include "test_util.hpp"
#include "thread/abort.hpp"

namespace nustencil {
namespace {

using telemetry::Config;
using telemetry::EventLog;
using telemetry::MetricFamily;
using telemetry::RunSources;
using telemetry::Sampler;
using telemetry::StallDiagnosis;
using telemetry::ThreadCumulative;
using telemetry::TimeSeriesStore;
using telemetry::Watchdog;
using telemetry::WatchdogAction;

std::string temp_path(const std::string& stem) {
  return testing::TempDir() + stem;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(line);
  return lines;
}

// ---------------------------------------------------------------- rings

TEST(TimeSeries, AppendsShareOneTimeAxis) {
  TimeSeriesStore store(8);
  const int a = store.add_series("a");
  const int b = store.add_series("b");
  store.append(10, {1.0, 2.0});
  store.append(20, {3.0, 4.0});
  ASSERT_EQ(store.size(), 2u);
  EXPECT_EQ(store.num_series(), 2);
  EXPECT_EQ(store.series_name(a), "a");
  EXPECT_EQ(store.time_ns_at(0), 10);
  EXPECT_EQ(store.time_ns_at(1), 20);
  EXPECT_EQ(store.value_at(a, 1), 3.0);
  EXPECT_EQ(store.value_at(b, 0), 2.0);
}

TEST(TimeSeries, RingOverwritesOldestRowsInChronologicalOrder) {
  TimeSeriesStore store(4);
  const int s = store.add_series("v");
  for (int i = 0; i < 10; ++i)
    store.append(i * 100, {static_cast<double>(i)});
  // 10 appended, 4 retained: rows 6..9 survive, oldest first.
  EXPECT_EQ(store.total_appended(), 10u);
  ASSERT_EQ(store.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(store.time_ns_at(i), static_cast<std::int64_t>((6 + i) * 100));
    EXPECT_EQ(store.value_at(s, i), static_cast<double>(6 + i));
  }
}

TEST(TimeSeries, DownsampleKeepsEverythingWhenItFits) {
  const auto all = TimeSeriesStore::downsample_indices(5, 10);
  ASSERT_EQ(all.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(all[i], i);
  // max_points == 0 means "no limit".
  EXPECT_EQ(TimeSeriesStore::downsample_indices(7, 0).size(), 7u);
  EXPECT_TRUE(TimeSeriesStore::downsample_indices(0, 4).empty());
}

TEST(TimeSeries, DownsampleIsExactDecimationKeepingFirstAndLast) {
  for (const std::size_t n : {11u, 100u, 1000u, 4096u}) {
    for (const std::size_t max_points : {2u, 10u, 160u}) {
      const auto idx = TimeSeriesStore::downsample_indices(n, max_points);
      ASSERT_FALSE(idx.empty());
      EXPECT_LE(idx.size(), max_points) << n << "/" << max_points;
      EXPECT_EQ(idx.front(), 0u);
      EXPECT_EQ(idx.back(), n - 1);
      // Strictly increasing and every index addresses an original row:
      // decimation selects samples, it never averages or invents them.
      for (std::size_t i = 1; i < idx.size(); ++i)
        EXPECT_LT(idx[i - 1], idx[i]);
      EXPECT_LT(idx.back(), n);
    }
  }
}

// ---------------------------------------------------------- OpenMetrics

TEST(OpenMetrics, ValidMetricNames) {
  EXPECT_TRUE(telemetry::valid_metric_name("nustencil_mups"));
  EXPECT_TRUE(telemetry::valid_metric_name("_x:total"));
  EXPECT_FALSE(telemetry::valid_metric_name(""));
  EXPECT_FALSE(telemetry::valid_metric_name("9lives"));
  EXPECT_FALSE(telemetry::valid_metric_name("has space"));
  EXPECT_FALSE(telemetry::valid_metric_name("has-dash"));
}

TEST(OpenMetrics, RenderedExpositionHasMetadataSamplesAndEof) {
  std::vector<MetricFamily> families;
  families.push_back({"nustencil_updates_total",
                      "counter",
                      "updates",
                      {{"thread=\"0\"", 12.0}, {"thread=\"1\"", 34.0}}});
  families.push_back({"nustencil_run_mups", "gauge", "throughput", {{"", 5.5}}});
  const std::string text = telemetry::render_openmetrics(families);

  EXPECT_NE(text.find("# TYPE nustencil_updates_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# HELP nustencil_updates_total updates"),
            std::string::npos);
  EXPECT_NE(text.find("nustencil_updates_total{thread=\"1\"} 34"),
            std::string::npos);
  EXPECT_NE(text.find("nustencil_run_mups 5.5"), std::string::npos);

  // Parse-back: every non-comment line is `name[{labels}] value` with a
  // legal metric name and a finite value, and the document ends in # EOF.
  std::istringstream in(text);
  std::string line, last;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    last = line;
    if (line[0] == '#') continue;
    const std::size_t brace = line.find('{');
    const std::size_t space = line.find(' ');
    const std::size_t name_end = std::min(brace, space);
    ASSERT_NE(name_end, std::string::npos) << line;
    EXPECT_TRUE(telemetry::valid_metric_name(line.substr(0, name_end))) << line;
    const std::size_t value_at = line.rfind(' ');
    EXPECT_NO_THROW((void)std::stod(line.substr(value_at + 1))) << line;
  }
  EXPECT_EQ(last, "# EOF");
}

TEST(OpenMetrics, FileRewriteIsAtomicReplace) {
  const std::string path = temp_path("telemetry_test_om.txt");
  std::vector<MetricFamily> families{
      {"nustencil_samples_total", "counter", "ticks", {{"", 1.0}}}};
  ASSERT_TRUE(telemetry::write_openmetrics_file(families, path));
  families[0].points[0].value = 2.0;
  ASSERT_TRUE(telemetry::write_openmetrics_file(families, path));

  const std::vector<std::string> lines = read_lines(path);
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines.back(), "# EOF");
  // The second write fully replaced the first document.
  EXPECT_NE(lines[2].find("nustencil_samples_total 2"), std::string::npos);
  // The temp file was renamed away, not left behind.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

TEST(OpenMetrics, WriteToUnwritablePathReturnsFalseInsteadOfThrowing) {
  EXPECT_FALSE(telemetry::write_openmetrics_file(
      {}, "/nonexistent-dir-for-telemetry-test/om.txt"));
}

// ------------------------------------------------------------ event log

TEST(EventLog, OneValidJsonObjectPerLineInEmissionOrder) {
  const std::string path = temp_path("telemetry_test_events.jsonl");
  {
    EventLog log(path);
    log.event("run_start", 0.0, [](metrics::JsonWriter& w) {
      w.kv("label", "t");
      w.kv("threads", 2);
    });
    log.event("sample", 10.0,
              [](metrics::JsonWriter& w) { w.kv("seq", std::uint64_t{0}); });
    log.event("sample", 20.0,
              [](metrics::JsonWriter& w) { w.kv("seq", std::uint64_t{1}); });
    log.event("run_end", 25.0);
  }
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 4u);
  const std::vector<std::string> types = {"run_start", "sample", "sample",
                                          "run_end"};
  double prev_ms = -1.0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const metrics::JsonValue ev = metrics::parse_json(lines[i]);
    ASSERT_TRUE(ev.is_object()) << lines[i];
    EXPECT_EQ(ev.at("type").str(), types[i]);
    EXPECT_GE(ev.at("t_ms").num(), prev_ms);
    prev_ms = ev.at("t_ms").num();
  }
  EXPECT_EQ(metrics::parse_json(lines[0]).at("threads").num(), 2.0);
  EXPECT_EQ(metrics::parse_json(lines[2]).at("seq").num(), 1.0);
  std::remove(path.c_str());
}

TEST(EventLog, UnopenablePathThrowsOneLineError) {
  EXPECT_THROW(EventLog("/nonexistent-dir-for-telemetry-test/e.jsonl"), Error);
}

// -------------------------------------------------------------- watchdog

std::vector<ThreadCumulative> cum2(std::uint64_t u0, std::uint64_t u1) {
  std::vector<ThreadCumulative> cum(2);
  cum[0].updates = u0;
  cum[1].updates = u1;
  return cum;
}

TEST(Watchdog, FiresAfterExactlyStallIntervalsAndOncePerEpisode) {
  Watchdog dog(3, WatchdogAction::Warn);
  dog.begin_run(2, /*t0_ns=*/0);

  // Thread 0 advances every tick; thread 1 froze at 5 updates.
  std::int64_t t = 0;
  std::uint64_t u0 = 0;
  dog.tick(t += 1000, cum2(++u0, 5));  // advance observed, arms the episode
  EXPECT_TRUE(dog.tick(t += 1000, cum2(++u0, 5)).empty());  // stuck 1
  EXPECT_TRUE(dog.tick(t += 1000, cum2(++u0, 5)).empty());  // stuck 2
  const auto fired = dog.tick(t += 1000, cum2(++u0, 5));    // stuck 3: fires
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].tid, 1);
  EXPECT_EQ(fired[0].stalled_intervals, 3);
  EXPECT_EQ(fired[0].updates, 5u);
  EXPECT_EQ(dog.stall_events(), 1);

  // The same episode never fires twice.
  EXPECT_TRUE(dog.tick(t += 1000, cum2(++u0, 5)).empty());
  EXPECT_TRUE(dog.tick(t += 1000, cum2(++u0, 5)).empty());
  EXPECT_EQ(dog.stall_events(), 1);

  // Progress re-arms; a second freeze fires a second event.
  EXPECT_TRUE(dog.tick(t += 1000, cum2(++u0, 6)).empty());
  EXPECT_TRUE(dog.tick(t += 1000, cum2(++u0, 6)).empty());
  EXPECT_TRUE(dog.tick(t += 1000, cum2(++u0, 6)).empty());
  ASSERT_EQ(dog.tick(t += 1000, cum2(++u0, 6)).size(), 1u);
  EXPECT_EQ(dog.stall_events(), 2);
}

TEST(Watchdog, DiagnosisReusesStragglerThresholds) {
  Watchdog dog(2, WatchdogAction::Warn);
  dog.begin_run(1, 0);
  // No span completed across the window: the whole window counts as
  // waiting, so the verdict must be spin-bound (same thresholds as the
  // post-mortem straggler table).
  std::vector<ThreadCumulative> cum(1);
  cum[0].updates = 7;
  cum[0].leaf_spans = 4;
  dog.tick(1'000'000, cum);
  dog.tick(2'000'000, cum);
  const auto fired = dog.tick(3'000'000, cum);
  ASSERT_EQ(fired.size(), 1u);
  const StallDiagnosis& d = fired[0];
  EXPECT_TRUE(d.no_spans_completed);
  EXPECT_EQ(d.why.verdict, prof::Verdict::SpinBound);
  EXPECT_NEAR(d.window_s, 2e-3, 1e-9);
  const std::string text = d.render("warn");
  EXPECT_NE(text.find("thread 0 stalled"), std::string::npos);
  EXPECT_NE(text.find("spin-bound"), std::string::npos);
  EXPECT_NE(text.find("action: warn"), std::string::npos);
  EXPECT_EQ(text.back(), '\n');
}

TEST(Watchdog, ParseActionIsCaseInsensitiveAndStrict) {
  EXPECT_EQ(telemetry::parse_watchdog_action("WARN"), WatchdogAction::Warn);
  EXPECT_EQ(telemetry::parse_watchdog_action("Abort"), WatchdogAction::Abort);
  EXPECT_THROW(telemetry::parse_watchdog_action("panic"), Error);
  EXPECT_EQ(std::string(telemetry::watchdog_action_name(WatchdogAction::Abort)),
            "abort");
}

// ------------------------------------------------- sampler (fake clock)

/// Manual-mode sampler over a probe set: the test IS the clock and the
/// workers.
struct ManualRig {
  std::ostringstream diag;
  prof::Probes probes;
  threading::AbortToken abort;
  Config cfg;

  explicit ManualRig(int threads) : probes(threads) {
    cfg.manual = true;
    cfg.interval_s = 0.001;
    cfg.label = "rig";
  }

  RunSources sources() {
    RunSources src;
    src.probes = &probes;
    src.timesteps = 4;
    src.abort = &abort;
    return src;
  }

  /// Sets thread `tid`'s cumulative counters (they only ever grow).
  void publish(int tid, std::uint64_t updates, std::uint64_t local,
               std::uint64_t remote) {
    prof::Probes::Shard& s = probes.shard(tid);
    s.updates.store(updates, std::memory_order_relaxed);
    s.local_bytes.store(local, std::memory_order_relaxed);
    s.remote_bytes.store(remote, std::memory_order_relaxed);
  }
};

TEST(Sampler, ManualModeIsDeterministicUnderAFakeClock) {
  ManualRig rig(2);
  Sampler sampler(rig.cfg, rig.diag);
  sampler.begin_run(rig.sources());

  // 2 threads: thread<t>/{mups,locality} then run/{mups,locality,layer}.
  const TimeSeriesStore* store = sampler.store();
  ASSERT_NE(store, nullptr);
  ASSERT_EQ(store->num_series(), 7);
  EXPECT_EQ(store->series_name(0), "thread0/mups");
  EXPECT_EQ(store->series_name(1), "thread0/locality");
  EXPECT_EQ(store->series_name(4), "run/mups");
  EXPECT_EQ(store->series_name(6), "run/layer");

  // Tick 1 at t=1ms: thread 0 did 1000 updates, 75% local traffic.
  rig.publish(0, 1000, 300, 100);
  rig.probes.set_layer(0);
  sampler.sample_once(1'000'000);
  // Tick 2 at t=3ms: +4000 updates over 2ms, all-local window.
  rig.publish(0, 5000, 700, 100);
  rig.probes.set_layer(1);
  sampler.sample_once(3'000'000);

  ASSERT_EQ(store->size(), 2u);
  EXPECT_EQ(sampler.samples_taken(), 2u);
  EXPECT_EQ(store->time_ns_at(0), 1'000'000);
  EXPECT_EQ(store->time_ns_at(1), 3'000'000);
  // Window rates are exact under the fake clock: 1000 up / 1 ms = 1 Mup/s,
  // then 4000 up / 2 ms = 2 Mup/s.
  EXPECT_DOUBLE_EQ(store->value_at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(store->value_at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(store->value_at(1, 0), 75.0);   // 300 / 400 local
  EXPECT_DOUBLE_EQ(store->value_at(1, 1), 100.0);  // +400 local, +0 remote
  // Thread 1 published nothing: zero rate, vacuous 100% locality.
  EXPECT_DOUBLE_EQ(store->value_at(2, 1), 0.0);
  EXPECT_DOUBLE_EQ(store->value_at(3, 1), 100.0);
  // Run aggregates and the layer indicator ride the same rows.
  EXPECT_DOUBLE_EQ(store->value_at(4, 1), 2.0);
  EXPECT_DOUBLE_EQ(store->value_at(6, 0), 0.0);
  EXPECT_DOUBLE_EQ(store->value_at(6, 1), 1.0);
}

TEST(Sampler, ManualModeWritesOrderedJsonlEvents) {
  const std::string path = temp_path("telemetry_test_sampler.jsonl");
  ManualRig rig(1);
  rig.cfg.log_path = path;
  {
    Sampler sampler(rig.cfg, rig.diag);
    sampler.begin_run(rig.sources());
    rig.publish(0, 10, 100, 0);
    rig.probes.set_layer(0);
    sampler.sample_once(1'000'000);
    rig.publish(0, 20, 200, 0);
    sampler.sample_once(2'000'000);
    sampler.end_run(/*seconds=*/0.002, /*updates=*/20);
  }
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_GE(lines.size(), 5u);
  std::vector<std::string> types;
  double prev_ms = -1.0;
  for (const std::string& line : lines) {
    const metrics::JsonValue ev = metrics::parse_json(line);
    types.push_back(ev.at("type").str());
    EXPECT_GE(ev.at("t_ms").num(), prev_ms) << line;
    prev_ms = ev.at("t_ms").num();
  }
  EXPECT_EQ(types.front(), "run_start");
  EXPECT_EQ(types.back(), "run_end");
  EXPECT_GE(std::count(types.begin(), types.end(), std::string("sample")), 2);
  EXPECT_EQ(std::count(types.begin(), types.end(), std::string("layer")), 1);
  // Per-thread detail rides every sample event.
  const metrics::JsonValue sample = metrics::parse_json(lines[1]);
  ASSERT_EQ(sample.at("type").str(), "sample");
  ASSERT_EQ(sample.at("threads").array.size(), 1u);
  EXPECT_EQ(sample.at("threads").array[0].at("updates").num(), 10.0);
  std::remove(path.c_str());
}

TEST(Sampler, WatchdogAbortTriggersTheRunsAbortToken) {
  ManualRig rig(1);
  rig.cfg.watchdog_stall_intervals = 3;
  rig.cfg.watchdog_action = WatchdogAction::Abort;
  Sampler sampler(rig.cfg, rig.diag);
  sampler.begin_run(rig.sources());

  // The thread never publishes: detection within exactly 3 intervals.
  sampler.sample_once(1'000'000);
  sampler.sample_once(2'000'000);
  EXPECT_EQ(sampler.stall_events(), 0);
  EXPECT_FALSE(rig.abort.triggered());
  sampler.sample_once(3'000'000);
  EXPECT_EQ(sampler.stall_events(), 1);
  EXPECT_TRUE(sampler.watchdog_aborted());
  EXPECT_TRUE(rig.abort.triggered());
  EXPECT_NE(rig.diag.str().find("stalled"), std::string::npos);
  EXPECT_NE(rig.diag.str().find("action: abort"), std::string::npos);
}

TEST(Sampler, ReportSectionDownsamplesWithoutAlteringValues) {
  ManualRig rig(1);
  Sampler sampler(rig.cfg, rig.diag);
  sampler.begin_run(rig.sources());
  for (int i = 1; i <= 50; ++i) {
    rig.publish(0, static_cast<std::uint64_t>(i) * 100, 100, 0);
    sampler.sample_once(i * 1'000'000);
  }
  const metrics::TimeseriesSection sec = sampler.report_section(10);
  EXPECT_TRUE(sec.enabled);
  EXPECT_EQ(sec.samples, 50u);
  ASSERT_LE(sec.t_ms.size(), 10u);
  ASSERT_EQ(sec.series.size(), 5u);  // 1 thread x 2 + 3 run series
  EXPECT_DOUBLE_EQ(sec.t_ms.front(), 1.0);
  EXPECT_DOUBLE_EQ(sec.t_ms.back(), 50.0);
  const auto idx = TimeSeriesStore::downsample_indices(50, 10);
  ASSERT_EQ(sec.t_ms.size(), idx.size());
  const TimeSeriesStore* store = sampler.store();
  for (const metrics::TimeseriesSection::Series& s : sec.series) {
    ASSERT_EQ(s.values.size(), idx.size()) << s.name;
    // Every exported point is an original ring row, untouched.
    int series = -1;
    for (int k = 0; k < store->num_series(); ++k)
      if (store->series_name(k) == s.name) series = k;
    ASSERT_GE(series, 0) << s.name;
    for (std::size_t i = 0; i < idx.size(); ++i)
      EXPECT_DOUBLE_EQ(s.values[i], store->value_at(series, idx[i]));
  }
}

// --------------------------------------------------- real-run contracts

TEST(Sampler, CleanShortRunStaysSilentUnderTheWatchdog) {
  std::ostringstream beat_out, diag;
  prof::ProgressMeter meter(10.0, beat_out);
  Config cfg;
  cfg.interval_s = 0.002;
  cfg.label = "clean";
  cfg.watchdog_stall_intervals = 50;  // 100 ms of true silence to fire
  Sampler sampler(cfg, diag);
  meter.begin_run("clean", /*num_threads=*/2, /*total_updates=*/0);

  schemes::NuCatsScheme scheme;
  schemes::RunConfig rc;
  rc.num_threads = 2;
  rc.timesteps = 6;
  rc.boundary[2] = core::BoundaryKind::Dirichlet;
  rc.progress = &meter;
  rc.telemetry = &sampler;
  test::expect_matches_reference(scheme, Coord{20, 18, 16},
                                 core::StencilSpec::paper_3d7p(), rc);

  EXPECT_EQ(sampler.stall_events(), 0) << diag.str();
  EXPECT_FALSE(sampler.watchdog_aborted());
  // end_run always takes a closing sample, so even a sub-interval run
  // leaves a readable ring behind.
  EXPECT_GE(sampler.samples_taken(), 1u);
  const metrics::TimeseriesSection sec = sampler.report_section();
  EXPECT_TRUE(sec.enabled);
  EXPECT_EQ(sec.t_ms.size(), sec.series.front().values.size());
}

TEST(Sampler, UntelemeteredRunsSpawnNoSamplerThreads) {
  const std::uint64_t before = Sampler::threads_started();
  schemes::NuCatsScheme scheme;
  schemes::RunConfig rc;
  rc.num_threads = 2;
  rc.timesteps = 4;
  rc.boundary[2] = core::BoundaryKind::Dirichlet;
  test::expect_matches_reference(scheme, Coord{16, 12, 14},
                                 core::StencilSpec::paper_3d7p(), rc);
  // The off path constructs nothing: no Sampler, no thread, no writes.
  EXPECT_EQ(Sampler::threads_started(), before);
}

TEST(Sampler, ParseEnabledIsCaseInsensitiveAndStrict) {
  EXPECT_TRUE(telemetry::parse_telemetry_enabled("ON"));
  EXPECT_FALSE(telemetry::parse_telemetry_enabled("Off"));
  EXPECT_THROW(telemetry::parse_telemetry_enabled("maybe"), Error);
}

}  // namespace
}  // namespace nustencil
