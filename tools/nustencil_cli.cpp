// nustencil — general-purpose command-line driver.
//
// Runs any scheme on any supported problem, optionally instrumented
// against a paper machine's virtual NUMA topology, optionally verified
// against the reference executor, with CSV output for scripting.
//
//   nustencil --scheme nuCORALS --shape 128x128x128 --steps 100 --threads 8
//   nustencil --scheme nuCATS --banded --order 2 --verify --instrument
//   nustencil --sweep-threads 1,2,4,8 --csv results.csv
//   nustencil --scheme nuCORALS --trace=trace.json --trace-svg=trace.svg \
//             --phase-metrics
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>

#include "common/args.hpp"
#include "common/provenance.hpp"
#include "hwc/backend.hpp"
#include "hwc/events.hpp"
#include "hwc/group.hpp"
#include "prof/flamegraph.hpp"
#include "prof/progress.hpp"
#include "schemes/explain.hpp"
#include "telemetry/sampler.hpp"
#include "topology/machine_file.hpp"
#include "common/table.hpp"
#include "core/executor.hpp"
#include "core/reference.hpp"
#include "metrics/run_report.hpp"
#include "metrics/schema.hpp"
#include "perf/model.hpp"
#include "schemes/scheme.hpp"
#include "trace/trace.hpp"
#include "trace/trace_svg.hpp"

namespace {

using namespace nustencil;

Coord parse_shape(const std::string& text) {
  Coord shape;
  std::vector<Index> dims;
  std::stringstream ss(text);
  std::string part;
  while (std::getline(ss, part, 'x')) dims.push_back(std::atol(part.c_str()));
  NUSTENCIL_CHECK(!dims.empty() && dims.size() <= 3,
                  "--shape expects up to three 'x'-separated extents, e.g. 128x128x128");
  switch (dims.size()) {
    case 1: return Coord{dims[0]};
    case 2: return Coord{dims[0], dims[1]};
    default: return Coord{dims[0], dims[1], dims[2]};
  }
}

std::vector<int> parse_int_list(const std::string& text) {
  std::vector<int> out;
  std::stringstream ss(text);
  std::string part;
  while (std::getline(ss, part, ',')) out.push_back(std::atoi(part.c_str()));
  return out;
}

const topology::MachineSpec* machine_by_name(const std::string& name,
                                             topology::MachineSpec& storage) {
  if (name == "xeon") {
    storage = topology::xeonX7550();
  } else if (name == "opteron") {
    storage = topology::opteron8222();
  } else if (name == "host") {
    storage = topology::host();
  } else {
    // Anything else is a machine description file (see
    // src/topology/machine_file.hpp for the format).
    storage = topology::load_machine(name);
  }
  return &storage;
}

/// Runs the reference on a copy-problem and reports the max deviation.
double verify_against_reference(core::Problem& actual, const Coord& shape,
                                const core::StencilSpec& stencil,
                                const schemes::RunConfig& cfg) {
  core::Problem expected(shape, stencil);
  expected.initialize(cfg.seed);
  if (cfg.boundary.all_periodic(shape.rank())) {
    core::reference_run(expected, cfg.timesteps);
  } else {
    const core::Box interior = core::updatable_box(shape, stencil, cfg.boundary);
    double* u0 = expected.buffer(0).data();
    double* u1 = expected.buffer(1).data();
    Coord pos = Coord::filled(shape.rank(), 0);
    for (Index i = 0; i < expected.volume(); ++i) {
      bool inside = true;
      for (int d = 0; d < shape.rank(); ++d)
        inside = inside && pos[d] >= interior.lo[d] && pos[d] < interior.hi[d];
      if (!inside) u1[i] = u0[i];
      for (int d = 0; d < shape.rank(); ++d) {
        if (++pos[d] < shape[d]) break;
        pos[d] = 0;
      }
    }
    core::Executor exec(expected);
    for (long t = 0; t < cfg.timesteps; ++t) exec.update_box(interior, t, 0);
  }
  return core::max_rel_diff(actual.buffer(cfg.timesteps),
                            expected.buffer(cfg.timesteps));
}

/// "trace.json" -> "trace.t8.json" when a sweep produces one file per
/// thread count; a single run keeps the exact name.
std::string per_run_path(const std::string& path, int threads, bool sweeping) {
  if (!sweeping) return path;
  const std::size_t dot = path.rfind('.');
  const std::string suffix = ".t" + std::to_string(threads);
  if (dot == std::string::npos || path.find('/', dot) != std::string::npos)
    return path + suffix;
  return path.substr(0, dot) + suffix + path.substr(dot);
}

/// Model placement + roofline reference lines for the run report: the
/// measured locality and node demand feed the paper's model exactly as
/// the figure harness does, and the reference lines are tabulated over
/// the power-of-two core counts of the machine (plus the run's own
/// thread count) so the dashboard can draw the full roofline.
metrics::ModelSection build_model_section(const schemes::Scheme& scheme,
                                          const topology::MachineSpec& machine,
                                          const Coord& shape,
                                          const core::StencilSpec& stencil,
                                          const schemes::RunResult& run) {
  perf::ModelInput in;
  in.machine = &machine;
  in.stencil = &stencil;
  in.threads = run.threads;
  in.traffic = scheme.estimate_traffic(machine, shape, stencil, run.threads,
                                       run.timesteps);
  in.locality = run.traffic.locality();
  in.node_demand.assign(run.traffic.bytes_from_node.begin(),
                        run.traffic.bytes_from_node.end());
  const auto [sync_base, sync_socket] = perf::scheme_sync_overhead(run.scheme);
  in.sync_overhead = sync_base;
  in.sync_per_socket = sync_socket;
  const perf::ModelOutput out = perf::model_scheme(in);

  metrics::ModelSection ms;
  ms.gupdates_per_core = out.gupdates_per_core;
  ms.gflops_per_core = out.gflops_per_core;
  ms.t_compute = out.t_compute;
  ms.t_llc = out.t_llc;
  ms.t_mem = out.t_mem;
  for (int c = 1; c <= machine.cores(); c *= 2) ms.cores.push_back(c);
  if (ms.cores.back() != machine.cores()) ms.cores.push_back(machine.cores());
  if (std::find(ms.cores.begin(), ms.cores.end(), run.threads) == ms.cores.end()) {
    ms.cores.push_back(run.threads);
    std::sort(ms.cores.begin(), ms.cores.end());
  }
  for (const int c : ms.cores) {
    ms.peak_dp.push_back(perf::peak_dp_line(machine, stencil, c));
    ms.ll1band0c.push_back(perf::ll1band0c_line(machine, stencil, c));
  }
  return ms;
}

/// Per-thread phase table for --phase-metrics.
void print_phase_metrics(const schemes::RunResult& result, double seconds) {
  Table table("phase metrics: " + result.scheme + ", " +
              std::to_string(result.threads) + " thread(s), wall " +
              std::to_string(seconds) + " s");
  table.set_header({"thread", "init s", "compute s", "barrier-wait s",
                    "spinflag-wait s", "accounted s", "accounted %"});
  for (std::size_t tid = 0; tid < result.phases.threads.size(); ++tid) {
    const auto& t = result.phases.threads[tid];
    table.add_row(std::to_string(tid),
                  {t.init_s(), t.compute_s(), t.barrier_wait_s(), t.spin_wait_s(),
                   t.accounted_s(),
                   seconds > 0 ? 100.0 * t.accounted_s() / seconds : std::nan("")});
  }
  table.print(std::cout);
  std::cout << "load imbalance (max/mean busy): " << result.phases.imbalance()
            << '\n';
}

}  // namespace

int main(int argc, char** argv) try {
  ArgParser args("nustencil", "run iterative stencil schemes (IPDPS'12 reproduction)");
  args.add_option("scheme",
                  "one of NaiveSSE, CATS, nuCATS, CORALS, nuCORALS, Pochoir, "
                  "PLuTo, MWD, nuMWD",
                  "nuCORALS");
  args.add_option("shape", "domain extents, e.g. 128x128x128", "64x64x64");
  args.add_option("steps", "time steps (the paper runs 100)", "100");
  args.add_option("threads", "worker threads", "4");
  args.add_option("schedule",
                  "tile schedule: static (owner-computes), steal "
                  "(NUMA-distance-ordered work stealing), or steal_local "
                  "(steal only within the owner's NUMA node)",
                  "static");
  args.add_option("sweep-threads", "comma-separated thread counts (overrides --threads)",
                  "");
  args.add_option("group-size",
                  "MWD/nuMWD threads per diamond group (must divide --threads); "
                  "auto = cores sharing one LLC",
                  "auto");
  args.add_option("order", "stencil order s", "1");
  args.add_option("machine",
                  "instrumentation topology: xeon, opteron, host, or a machine "
                  "description file",
                  "xeon");
  args.add_option("seed", "deterministic initial-condition seed", "42");
  args.add_option("csv", "append results as CSV to this file", "");
  args.add_option("trace",
                  "write a Chrome trace-event JSON (Perfetto-loadable) of the "
                  "run to this file (one track per thread)",
                  "");
  args.add_option("trace-svg", "render the per-thread span timeline to this SVG file",
                  "");
  args.add_option("trace-buffer", "trace event ring capacity per thread", "65536");
  args.add_option("flamegraph",
                  "write the run's span stacks in collapsed/folded format "
                  "to this file (load with speedscope or flamegraph.pl)",
                  "");
  args.add_option("flamegraph-weight",
                  "flamegraph frame weight: time (self wall time), remote "
                  "(remote traffic bytes) or misses (deepest-level cache "
                  "misses)",
                  "time");
  args.add_option("progress",
                  "print a live heartbeat (layer, updates/s, locality %) to "
                  "stderr every SECONDS seconds",
                  "");
  args.add_option("telemetry",
                  "live telemetry: on samples the run's progress, traffic, "
                  "cache and scheduler shards into in-memory time-series "
                  "rings from a background thread; off (the default) "
                  "constructs nothing",
                  "off");
  args.add_option("telemetry-interval-ms",
                  "sampling interval of the telemetry thread, in milliseconds",
                  "100");
  args.add_option("telemetry-openmetrics",
                  "atomically rewrite an OpenMetrics text file at this path "
                  "on every telemetry sample (node_exporter textfile "
                  "collector compatible; requires --telemetry=on)",
                  "");
  args.add_option("telemetry-log",
                  "append one JSON object per telemetry event (samples, run "
                  "start/end, layer transitions, steal bursts, stalls) to "
                  "this file (requires --telemetry=on)",
                  "");
  args.add_option("watchdog-stall-intervals",
                  "flag a worker as stalled after this many telemetry "
                  "intervals without progress and dump a live diagnosis "
                  "(0 = watchdog off; requires --telemetry=on)",
                  "0");
  args.add_option("watchdog",
                  "stall response: warn (diagnose and keep running) or abort "
                  "(also stop the run with a nonzero exit, for CI)",
                  "warn");
  args.add_option("report",
                  "write a schema-versioned JSON run report to this file "
                  "(enables instrumentation, phase metrics and — unless "
                  "--no-cache-sim — trace-driven cache simulation; render "
                  "with nustencil_report)",
                  "");
  args.add_option("reps",
                  "timing repetitions for a --report run: N-1 lightweight "
                  "runs plus the final instrumented run feed a "
                  "median/MAD/CI stats section, so report diffs judge "
                  "time-derived deltas by interval overlap instead of a "
                  "fixed tolerance",
                  "1");
  args.add_option("hw-counters",
                  "measure real per-thread PMU counters via perf_event_open: "
                  "auto (count what the host offers, record why when it "
                  "offers nothing), on (auto + a loud warning on "
                  "degradation), or off (the default; no syscalls at all)",
                  "off");
  args.add_option("hw-events",
                  "comma-separated events for --hw-counters (default: "
                  "cycles,instructions,cache-references,cache-misses,"
                  "stalled-cycles; the software events task-clock and "
                  "page-faults count even without a PMU)",
                  "");
  args.add_option("kernel",
                  "row-kernel policy: auto, scalar, sse2, avx2, fma (not "
                  "bit-exact), or generic (runtime-taps baseline)",
                  "auto");
  args.add_flag("banded", "variable coefficients (7-band matrix for s=1)");
  args.add_flag("dirichlet", "Dirichlet boundaries in every dimension");
  args.add_flag("instrument", "measure NUMA locality under --machine's topology");
  args.add_flag("check", "validate the space-time dependency order of every update");
  args.add_flag("verify", "compare the result against the reference executor");
  args.add_flag("pin", "pin worker threads to host cores");
  args.add_flag("phase-metrics",
                "print per-thread compute/barrier-wait/spinflag-wait/init wall-time "
                "totals and the load-imbalance ratio");
  args.add_flag("no-cache-sim",
                "skip the cache simulation a --report run would otherwise do");
  args.add_flag("explain", "print the plan the scheme would execute, then exit");
  if (!args.parse(argc, argv)) return 0;

  const Coord shape = parse_shape(args.get("shape"));
  const int order = static_cast<int>(args.get_long("order"));
  const core::StencilSpec stencil =
      args.get_flag("banded") ? core::StencilSpec::banded_star(shape.rank(), order)
      : (shape.rank() == 3 && order == 1) ? core::StencilSpec::paper_3d7p()
                                          : core::StencilSpec::stable_star(shape.rank(), order);

  topology::MachineSpec machine_storage;
  const topology::MachineSpec* machine =
      machine_by_name(args.get("machine"), machine_storage);

  std::vector<int> thread_counts;
  for (const int t : parse_int_list(args.get("sweep-threads")))
    thread_counts.push_back(ArgParser::validate_thread_count(t, machine->cores()));
  if (thread_counts.empty())
    thread_counts.push_back(ArgParser::validate_thread_count(
        args.get_long("threads"), machine->cores()));

  const sched::Schedule schedule = sched::parse_schedule(args.get("schedule"));
  // 0 = auto; explicit values are validated against each run's thread
  // count (a sweep can make the same --group-size legal for 8 threads and
  // illegal for 6).
  const long group_size_raw =
      args.get("group-size") == "auto" ? 0 : args.get_long("group-size");

  const core::KernelPolicy kernel_policy =
      core::parse_kernel_policy(args.get("kernel"));

  const hwc::Mode hw_mode = hwc::parse_mode(args.get("hw-counters"));
  std::vector<hwc::Event> hw_events;
  if (!args.get("hw-events").empty()) {
    NUSTENCIL_CHECK(hw_mode != hwc::Mode::Off,
                    "--hw-events requires --hw-counters=auto or on");
    hw_events = hwc::parse_event_list(args.get("hw-events"));
  }
  // Runtime unavailability (paranoid level, missing vPMU, seccomp)
  // degrades gracefully even under `on`; only a build without any
  // counter backend is rejected up front.
  NUSTENCIL_CHECK(hw_mode != hwc::Mode::On || hwc::real_backend().supported(),
                  "--hw-counters=on: this build has no perf_event backend "
                  "(non-Linux); use auto or off");

  // The request every executor of the run builds: drives --explain and
  // the run report.
  const core::KernelRequest kernel_request = core::kernel_request_for(stencil);

  const std::string trace_path = args.get("trace");
  const std::string trace_svg_path = args.get("trace-svg");
  const std::string report_path = args.get("report");
  const std::string flame_path = args.get("flamegraph");
  const prof::FlameWeight flame_weight =
      prof::parse_flame_weight(args.get("flamegraph-weight"));
  const bool want_trace =
      !trace_path.empty() || !trace_svg_path.empty() || !flame_path.empty();
  const bool want_report = !report_path.empty();
  const bool want_cache_sim = want_report && !args.get_flag("no-cache-sim");
  const int reps = static_cast<int>(
      ArgParser::validate_positive("--reps", args.get_long("reps")));
  if (reps > 1 && !want_report)
    std::cerr << "warning: --reps only affects --report runs (the stats "
                 "section); ignoring it\n";
  const bool want_phases =
      args.get_flag("phase-metrics") || want_trace || want_report;
  const int trace_buffer = static_cast<int>(
      ArgParser::validate_positive("--trace-buffer", args.get_long("trace-buffer")));
  // --progress takes an interval in seconds; empty (the default) is off.
  const double progress_interval =
      args.get("progress").empty()
          ? 0.0
          : ArgParser::validate_positive_seconds("--progress",
                                                 args.get_double("progress"));

  const bool telemetry_on = telemetry::parse_telemetry_enabled(args.get("telemetry"));
  const double telemetry_interval_s =
      ArgParser::validate_positive_ms("--telemetry-interval-ms",
                                      args.get_double("telemetry-interval-ms")) *
      1e-3;
  const std::string openmetrics_path = args.get("telemetry-openmetrics");
  const std::string telemetry_log_path = args.get("telemetry-log");
  const int watchdog_intervals = static_cast<int>(ArgParser::validate_non_negative(
      "--watchdog-stall-intervals", args.get_long("watchdog-stall-intervals")));
  const telemetry::WatchdogAction watchdog_action =
      telemetry::parse_watchdog_action(args.get("watchdog"));
  if (!telemetry_on) {
    NUSTENCIL_CHECK(openmetrics_path.empty(),
                    "--telemetry-openmetrics requires --telemetry=on");
    NUSTENCIL_CHECK(telemetry_log_path.empty(),
                    "--telemetry-log requires --telemetry=on");
    NUSTENCIL_CHECK(watchdog_intervals == 0,
                    "--watchdog-stall-intervals requires --telemetry=on");
    NUSTENCIL_CHECK(watchdog_action == telemetry::WatchdogAction::Warn,
                    "--watchdog=abort requires --telemetry=on");
  }

  if (args.get_flag("explain")) {
    std::cout << schemes::describe_plan(
                     args.get("scheme"), shape, stencil, *machine,
                     thread_counts.front(), args.get_long("steps"), schedule,
                     group_size_raw == 0
                         ? 0
                         : ArgParser::validate_group_size(group_size_raw,
                                                          thread_counts.front()))
              << core::explain_kernel_choice(kernel_policy, kernel_request)
              << trace::describe_observability(trace_path, trace_svg_path,
                                               args.get_flag("phase-metrics"),
                                               trace_buffer)
              << hwc::describe_hw(hw_mode, hw_events, hwc::real_backend())
              << telemetry::describe_telemetry(telemetry_on, telemetry_interval_s,
                                               openmetrics_path,
                                               telemetry_log_path,
                                               watchdog_intervals,
                                               watchdog_action)
              << metrics::describe_report(report_path, want_cache_sim);
    return 0;
  }

  const bool sweeping = thread_counts.size() > 1;
  std::vector<schemes::RunResult> results;
  std::vector<double> diffs;

  for (const int threads : thread_counts) {
    const auto scheme = schemes::make_scheme(args.get("scheme"));
    schemes::RunConfig cfg;
    cfg.num_threads = threads;
    cfg.timesteps = args.get_long("steps");
    cfg.instrument = args.get_flag("instrument");
    cfg.check_dependencies = args.get_flag("check");
    cfg.kernel = kernel_policy;
    cfg.pin_threads = args.get_flag("pin");
    cfg.schedule = schedule;
    cfg.group_size = group_size_raw == 0
                         ? 0
                         : ArgParser::validate_group_size(group_size_raw, threads);
    cfg.machine = machine;
    cfg.hw_mode = hw_mode;
    cfg.hw_events = hw_events;
    cfg.seed = static_cast<unsigned>(args.get_long("seed"));
    if (args.get_flag("dirichlet")) cfg.boundary = core::Boundary::dirichlet();
    if (args.get("scheme") == "CATS" || args.get("scheme") == "nuCATS")
      cfg.boundary[2] = core::BoundaryKind::Dirichlet;

    std::optional<trace::Trace> tr;
    if (want_trace) {
      tr.emplace(trace_buffer);
      cfg.trace = &*tr;
    }
    cfg.collect_phase_metrics = want_phases;
    // Per-span counter attribution rides on any trace; a report-only run
    // still profiles through the metrics-only recorder (no events, but
    // the exact counter totals feed the report's prof section).
    cfg.profile_spans = want_trace || want_report;

    std::optional<metrics::Registry> registry;
    std::optional<cachesim::SharedHierarchy> cache_sim;
    if (want_report) {
      cfg.instrument = true;
      registry.emplace(threads);
      cfg.metrics = &*registry;
      if (want_cache_sim) {
        cache_sim.emplace(*machine, threads);
        cfg.cache_sim = &*cache_sim;
      }
    }

    // --reps: the first reps-1 repetitions run without the trace ring,
    // registry or cache simulator so their wall clock is representative;
    // the final instrumented run below contributes the last repetition
    // (and everything else in the report).
    std::vector<double> rep_seconds, rep_gup, rep_init, rep_compute,
        rep_barrier, rep_spin, rep_imbalance;
    const auto record_rep = [&](const schemes::RunResult& r) {
      rep_seconds.push_back(r.seconds);
      rep_gup.push_back(r.gupdates_per_second());
      rep_init.push_back(r.phases.total_s(trace::Phase::Init));
      rep_compute.push_back(r.phases.total_s(trace::Phase::Tile));
      rep_barrier.push_back(r.phases.total_s(trace::Phase::BarrierWait));
      rep_spin.push_back(r.phases.total_s(trace::Phase::SpinWait));
      rep_imbalance.push_back(r.phases.imbalance());
    };
    if (want_report) {
      for (int rep = 1; rep < reps; ++rep) {
        schemes::RunConfig warm = cfg;
        warm.trace = nullptr;
        warm.metrics = nullptr;
        warm.cache_sim = nullptr;
        warm.progress = nullptr;
        warm.telemetry = nullptr;  // timing reps: no sampler thread either
        warm.profile_spans = false;
        warm.hw_mode = hwc::Mode::Off;  // timing reps: no counter syscalls
        warm.collect_phase_metrics = true;
        core::Problem rep_problem(shape, stencil);
        record_rep(schemes::make_scheme(args.get("scheme"))
                       ->run(rep_problem, warm));
      }
    }

    // One periodic-snapshot path for both features: the telemetry
    // sampler owns the only background thread, and the --progress
    // heartbeat rides it (attach_heartbeat).  --progress without
    // telemetry runs the sampler in heartbeat-only mode — no rings, no
    // exports, the same output as before.  Neither flag: no meter, no
    // sampler, no thread.
    const std::string run_label =
        args.get("scheme") + " t" + std::to_string(threads);
    std::optional<prof::ProgressMeter> progress;
    std::optional<telemetry::Sampler> sampler;
    if (telemetry_on || progress_interval > 0.0) {
      progress.emplace(
          progress_interval > 0.0 ? progress_interval : telemetry_interval_s,
          std::cerr);
      progress->begin_run(run_label, threads,
                          static_cast<std::uint64_t>(shape.product()) *
                              static_cast<std::uint64_t>(cfg.timesteps));
      cfg.progress = &*progress;

      telemetry::Config tcfg;
      tcfg.sampling = telemetry_on;
      tcfg.interval_s = telemetry_interval_s;
      tcfg.label = run_label;
      if (!openmetrics_path.empty())
        tcfg.openmetrics_path = per_run_path(openmetrics_path, threads, sweeping);
      if (!telemetry_log_path.empty())
        tcfg.log_path = per_run_path(telemetry_log_path, threads, sweeping);
      tcfg.watchdog_stall_intervals = watchdog_intervals;
      tcfg.watchdog_action = watchdog_action;
      sampler.emplace(tcfg);
      if (progress_interval > 0.0)
        sampler->attach_heartbeat(&*progress, progress_interval);
      cfg.telemetry = &*sampler;
    }

    core::Problem problem(shape, stencil);
    const schemes::RunResult result = scheme->run(problem, cfg);
    if (telemetry_on && sampler) {
      std::cout << "telemetry: " << sampler->samples_taken() << " sample(s) at "
                << telemetry_interval_s * 1e3 << " ms";
      if (sampler->stall_events() > 0)
        std::cout << ", " << sampler->stall_events() << " stall event(s)";
      if (!sampler->config().openmetrics_path.empty())
        std::cout << " | openmetrics " << sampler->config().openmetrics_path;
      if (!sampler->config().log_path.empty())
        std::cout << " | log " << sampler->config().log_path;
      std::cout << '\n';
    }
    if (result.hw.enabled) {
      if (result.hw.any_available()) {
        std::cout << "hw counters (" << result.hw.backend << "):";
        for (const auto& e : result.hw.events)
          if (e.available)
            std::cout << ' ' << hwc::event_name(e.event) << '='
                      << result.hw.totals[static_cast<std::size_t>(e.event)];
        if (result.hw.max_scaling() > 1.0)
          std::cout << " (multiplexed, scaling up to " << result.hw.max_scaling()
                    << "x — raw counts, not scaled up)";
        std::cout << '\n';
      }
      if (result.hw.status == "degraded") {
        (hw_mode == hwc::Mode::On ? std::cerr : std::cout)
            << (hw_mode == hwc::Mode::On ? "warning: --hw-counters=on degraded — "
                                         : "hw counters degraded — ")
            << result.hw.reason << '\n';
      }
    }
    const double diff = args.get_flag("verify")
                            ? verify_against_reference(problem, shape, stencil, cfg)
                            : std::nan("");

    if (tr && !trace_path.empty()) {
      const std::string path = per_run_path(trace_path, threads, sweeping);
      tr->write_chrome_json_file(path);
      std::cout << "wrote Chrome trace to " << path
                << " (load at https://ui.perfetto.dev or chrome://tracing)\n";
    }
    if (tr && !trace_svg_path.empty()) {
      const std::string path = per_run_path(trace_svg_path, threads, sweeping);
      trace::write_timeline_svg(*tr,
                                result.scheme + ", " + args.get("shape") + ", " +
                                    std::to_string(threads) + " thread(s)",
                                path);
      std::cout << "wrote timeline SVG to " << path << '\n';
    }
    if (tr && !flame_path.empty()) {
      const std::string path = per_run_path(flame_path, threads, sweeping);
      prof::write_flamegraph_file(path, *tr, result.scheme, flame_weight);
      std::cout << "wrote " << prof::flame_weight_name(flame_weight)
                << "-weighted flamegraph to " << path
                << " (load at https://speedscope.app or with flamegraph.pl)\n";
    }
    if (want_report) {
      metrics::RunReport rep;
      rep.scheme = result.scheme;
      rep.shape = args.get("shape");
      rep.timesteps = result.timesteps;
      rep.threads = threads;
      rep.kernel_policy = args.get("kernel");
      rep.kernel_variant = core::select_kernel(kernel_policy, kernel_request).name();
      rep.page_bytes = cfg.page_bytes;
      rep.seed = cfg.seed;
      rep.pin_policy =
          cfg.pin_policy == numa::PinPolicy::Compact ? "compact" : "scatter";
      rep.schedule = sched::schedule_name(schedule);
      const BuildInfo& build = build_info();
      rep.git_sha = build.git_sha;
      rep.compiler = build.compiler;
      rep.compiler_flags = build.compiler_flags;
      rep.build_type = build.build_type;
      rep.machine_conf = args.get("machine");
      rep.sched = result.sched;
      rep.prof = &result.prof;
      rep.hw = &result.hw;
      rep.machine = machine;
      rep.seconds = result.seconds;
      rep.updates = result.updates;
      rep.gupdates_per_second = result.gupdates_per_second();
      if (args.get_flag("verify")) rep.max_rel_diff = diff;
      rep.traffic = result.traffic;
      cachesim::HierarchyTraffic cache_traffic;
      if (cache_sim) {
        cache_traffic = cache_sim->traffic();
        rep.cache = &cache_traffic;
        rep.cache_line_bytes = cache_sim->line_bytes();
      }
      rep.phases = result.phases;
      record_rep(result);
      if (reps > 1) {
        metrics::StatsSection stats;
        stats.reps = reps;
        stats.add("result/seconds", rep_seconds);
        stats.add("result/gupdates_per_s", rep_gup);
        stats.add("phase/init_s", rep_init);
        stats.add("phase/compute_s", rep_compute);
        stats.add("phase/barrier_wait_s", rep_barrier);
        stats.add("phase/spinflag_wait_s", rep_spin);
        stats.add("phase/imbalance", rep_imbalance);
        rep.stats = std::move(stats);
      }
      rep.model = build_model_section(*scheme, *machine, shape, stencil, result);
      if (telemetry_on && sampler) rep.timeseries = sampler->report_section();
      metrics::export_run_to_registry(*registry, rep);
      rep.registry = &*registry;
      const std::string path = per_run_path(report_path, threads, sweeping);
      metrics::write_run_report_file(rep, path);
      std::cout << "wrote run report to " << path
                << " (render with nustencil_report)\n";
    }
    if (args.get_flag("phase-metrics")) print_phase_metrics(result, result.seconds);

    results.push_back(result);
    diffs.push_back(diff);
    if (args.get_flag("verify") && !(diff <= 1e-12)) {
      std::cerr << "VERIFICATION FAILED: max relative difference " << diff << '\n';
      return 1;
    }
  }

  // Column set: the fixed summary columns, then every scheme-reported
  // detail as a stable `detail_<key>` column, then the phase breakdown.
  std::set<std::string> detail_keys;
  for (const auto& r : results)
    for (const auto& [key, value] : r.details) {
      (void)value;
      detail_keys.insert(key);
    }
  std::vector<std::string> header = metrics::csv_summary_columns();
  for (const auto& key : detail_keys)
    header.push_back(metrics::csv_detail_column(key));
  if (want_phases)
    for (const std::string& col : metrics::csv_phase_columns())
      header.push_back(col);

  Table table("nustencil: " + args.get("scheme") + " on " + args.get("shape") +
              (args.get_flag("banded") ? " (banded)" : "") + ", s=" +
              std::to_string(order) + ", " + args.get("steps") + " steps");
  table.set_header(header);

  for (std::size_t i = 0; i < results.size(); ++i) {
    const schemes::RunResult& result = results[i];
    std::vector<double> row = {result.seconds, result.gupdates_per_second(),
                               result.gupdates_per_second() * stencil.flops(),
                               args.get_flag("instrument") || want_report
                                   ? result.traffic.locality() * 100.0
                                   : std::nan(""),
                               diffs[i]};
    for (const auto& key : detail_keys) {
      const auto it = result.details.find(key);
      row.push_back(it != result.details.end() ? it->second : std::nan(""));
    }
    if (want_phases) {
      row.push_back(result.phases.total_s(trace::Phase::Init));
      row.push_back(result.phases.total_s(trace::Phase::Tile));
      row.push_back(result.phases.total_s(trace::Phase::BarrierWait));
      row.push_back(result.phases.total_s(trace::Phase::SpinWait));
      row.push_back(result.phases.imbalance());
    }
    table.add_row(std::to_string(result.threads), row);
  }

  table.print(std::cout);
  if (const std::string csv = args.get("csv"); !csv.empty()) {
    std::ofstream out(csv, std::ios::app);
    NUSTENCIL_CHECK(out.good(), "cannot open CSV file " + csv);
    table.print_csv(out);
    std::cout << "appended CSV to " << csv << '\n';
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 2;
}
