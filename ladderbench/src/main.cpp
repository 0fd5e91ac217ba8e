// ladderbench: the repository benchmark.
//
//   ladderbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--record <file>] [--edge <cells> --steps <n>]
//               [--corrupt-solve <k>]
//
// --trace 0 interleaves the workload's schemes on pinned threads for
// about --seconds and prints the end-to-end metrics (median per scheme).
// --trace 1 is the separate traced run: it times the benchmark's own calls
// into each layer (kernel row, executor, field, schemes, thread,
// observability, host) and prints the per-layer metrics.  Either way every
// solve is checked against the reference, and the last stdout line is
// the JSON result.  --edge/--steps shrink the workload and --corrupt-solve
// damages one finished field; both exist for the benchmark's own tests.
#include <malloc.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/timer.hpp"
#include "host.hpp"
#include "interleave.hpp"
#include "metrics/json.hpp"
#include "probes.hpp"
#include "report.hpp"
#include "solve.hpp"
#include "stats.hpp"
#include "thread/team.hpp"
#include "trace/trace.hpp"
#include "workload.hpp"

namespace ladderbench {
namespace {

using nustencil::Coord;
using nustencil::Index;
using nustencil::median;
using nustencil::Timer;

struct Args {
  std::string workload;
  long long seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string record;
  Index edge = 0;
  long steps = 0;
  int corrupt_solve = 0;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "ladderbench: %s\nusage: ladderbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--record <file>] [--edge <cells> "
               "--steps <n>] [--corrupt-solve <k>]\nworkloads:",
               why.c_str());
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

long long to_integer(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0') usage(flag + " wants an integer, got '" + text + "'");
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[i + 1];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--seed") a.seed = to_integer(flag, value), have_seed = true;
    else if (flag == "--seconds") a.seconds = static_cast<double>(to_integer(flag, value));
    else if (flag == "--trace") a.trace = static_cast<int>(to_integer(flag, value));
    else if (flag == "--record") a.record = value;
    else if (flag == "--edge") a.edge = to_integer(flag, value);
    else if (flag == "--steps") a.steps = static_cast<long>(to_integer(flag, value));
    else if (flag == "--corrupt-solve") a.corrupt_solve = static_cast<int>(to_integer(flag, value));
    else usage("unknown option " + flag);
  }
  if (!find_workload(a.workload)) usage("unknown workload '" + a.workload + "'");
  if (!have_seed) usage("--seed is required");
  if (a.seconds < 1) usage("--seconds must be at least 1");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (a.edge < 0 || (a.edge > 0 && a.edge < 16)) usage("--edge must be at least 16");
  if (a.steps < 0) usage("--steps must be positive");
  return a;
}

/// One metric's samples, as the run record lists them.
struct Summary {
  std::string name;
  std::vector<double> kept;  ///< the values the metric is taken over
  int solves = -1;           ///< solves run, when more than were kept
};

/// The run's record: run-level facts that explain a noisy set after the
/// fact, and each metric's sample count and spread.  Printed and kept,
/// never gated.
std::string record_line(const Args& args, const Workload& w, const Inputs& in,
                        const nustencil::core::KernelChoice& kernel, double steal_pct,
                        const std::vector<Summary>& samples, double measured_s = 0.0) {
  const auto field_bytes =
      static_cast<std::int64_t>(in.shape.product()) * static_cast<std::int64_t>(sizeof(double));
  const auto l3 = static_cast<std::int64_t>(l3_cache_bytes());
  std::string cores;
  for (int t = 0; t < w.threads; ++t) cores += (t ? "," : "") + std::to_string(t);

  std::ostringstream os;
  nustencil::metrics::JsonWriter j(os);
  j.begin_object().key("record").begin_object();
  j.kv("workload", w.name).kv("seed", static_cast<std::int64_t>(args.seed)).kv("trace", args.trace);
  if (measured_s > 0) j.kv("measured_s", measured_s);
  j.key("environment")
      .begin_object()
      .kv("kernel", kernel.name())
      .kv("nt_stores", kernel.stream)
      .kv("l2_bytes", static_cast<std::int64_t>(l2_cache_bytes()))
      .kv("l3_bytes", l3)
      .kv("field_bytes", field_bytes)
      .kv("fields_over_l3", l3 > 0 ? 2.0 * static_cast<double>(field_bytes) / static_cast<double>(l3)
                                   : 0.0)
      .kv("nproc", online_cpus())
      .kv("worker_cores", cores)
      .kv("driver_core", driver_core())
      .kv("steal_pct", steal_pct)
      .end_object();
  j.key("samples").begin_object();
  for (const Summary& sm : samples) {
    j.key(sm.name).begin_object().kv("n", static_cast<int>(sm.kept.size()));
    if (sm.solves >= 0) j.kv("solves", sm.solves);
    j.kv("median", quantile(sm.kept, 0.5))
        .kv("q1", quantile(sm.kept, 0.25))
        .kv("q3", quantile(sm.kept, 0.75))
        .kv("iqr_share", iqr_share(sm.kept))
        .end_object();
  }
  j.end_object().end_object().end_object();
  return os.str();
}

/// One solve's measurement and the share of its cores' time that the
/// hypervisor took away (VM steal) while it ran.
struct Sample {
  double value = 0.0;
  double steal_pct = 0.0;
};

/// Steal share above which a solve counts as disturbed by the host.
constexpr double kMaxStealPct = 1.0;

/// The values an end-to-end metric's median is taken over: the solves
/// whose cores lost at most kMaxStealPct of their time to VM steal, or the
/// least-stolen half when fewer than half are that clean.  Steal is the
/// host descheduling the benchmark's cores, not work the program does, and
/// on a contended host it cut 2-thread medians by up to 40%.
std::vector<double> undisturbed(std::vector<Sample> samples) {
  std::stable_sort(samples.begin(), samples.end(), [](const Sample& a, const Sample& b) {
    return a.steal_pct < b.steal_pct;
  });
  std::size_t keep = 0;
  while (keep < samples.size() && samples[keep].steal_pct <= kMaxStealPct) ++keep;
  keep = std::max(keep, (samples.size() + 1) / 2);
  std::vector<double> out;
  for (std::size_t i = 0; i < keep; ++i) out.push_back(samples[i].value);
  return out;
}

void emit(const Args& args, const std::string& rec, int attempted, int failed,
          const std::vector<Metric>& metrics) {
  if (!args.record.empty()) {
    std::ofstream out(args.record, std::ios::app);
    out << rec << '\n';
  }
  std::printf("%s\n%s\n", rec.c_str(), result_line(attempted, failed, metrics).c_str());
  std::fflush(stdout);
}

void report_failure(const std::string& scheme, int threads, const Solve& s) {
  std::fprintf(stderr, "ladderbench: %s t%d failed: %s\n", scheme.c_str(), threads,
               s.error.c_str());
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics.

int run_end_to_end(const Args& args, const Workload& w, const Inputs& in) {
  const CpuTimes cpu0 = CpuTimes::now();
  Solver solver(in);
  solver.corrupt_solve(args.corrupt_solve);
  const Observe observe = w.observed ? Observe::all() : Observe{};
  const auto& names = comparison_schemes();
  std::vector<int> cores = {driver_core()};
  for (int t = 0; t < w.threads; ++t) cores.push_back(t);

  std::map<std::string, std::vector<Sample>> gups;
  std::vector<Sample> setup;
  Interleave arms(names.size(), args.seconds);
  for (int arm; (arm = arms.next()) >= 0;) {
    const SchemeName& s = names[static_cast<std::size_t>(arm)];
    const Timer timer;
    const CpuTimes before = CpuTimes::now(cores);
    const Solve solve = solver.run(s.legend, w.threads, observe);
    const double steal = steal_percent(before, CpuTimes::now(cores));
    arms.done(arm, timer.seconds());
    if (!solve.ok) {
      report_failure(s.legend, w.threads, solve);
      continue;
    }
    gups[s.key].push_back({solve.gups(), steal});
    setup.push_back({solve.setup_s, steal});
  }
  const double measured_s = arms.elapsed_s();

  std::vector<Metric> metrics;
  std::vector<Summary> samples;
  const auto add = [&](const std::string& name, const std::vector<Sample>& all,
                       const std::string& unit) {
    std::vector<double> kept = undisturbed(all);
    metrics.push_back({name, median(kept), unit});
    samples.push_back({name, std::move(kept), static_cast<int>(all.size())});
  };
  for (const SchemeName& s : names) add("gups." + s.key, gups[s.key], "Gup/s");
  add("setup_s", setup, "s");
  metrics.push_back({"peak_rss_mib", peak_rss_mib(), "MiB"});

  const std::string record =
      record_line(args, w, in, solver.periodic().kernel, steal_percent(cpu0, CpuTimes::now()),
                  samples, measured_s);
  emit(args, record, solver.attempted(), solver.failed(), metrics);
  return 0;
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics.

/// Plain solves of every scheme at 1 and 2 threads, interleaved while
/// --seconds lasts (L2, L3 and L4 of the ladder).
struct PlainSamples {
  std::map<std::string, std::vector<double>> t1, t2;  ///< compute-phase Gup/s
  std::map<std::string, std::vector<double>> solve_gups;  ///< at the workload's threads
  std::map<std::string, double> updates_ratio;  ///< of the scheme's last solve
};

PlainSamples plain_samples(Solver& solver, const Workload& w, double seconds) {
  const auto& names = comparison_schemes();
  PlainSamples out;
  Interleave arms(2 * names.size(), seconds);
  for (int arm; (arm = arms.next()) >= 0;) {
    const SchemeName& s = names[static_cast<std::size_t>(arm) / 2];
    const int threads = arm % 2 + 1;
    const Timer timer;
    const Solve solve = solver.run(s.legend, threads);
    arms.done(arm, timer.seconds());
    out.updates_ratio[s.key] =
        static_cast<double>(solve.result.updates) /
        static_cast<double>(expected_updates(solver.inputs(), boundary_for(s.legend)));
    if (!solve.ok) {
      report_failure(s.legend, threads, solve);
      continue;
    }
    (threads == 1 ? out.t1 : out.t2)[s.key].push_back(solve.gups());
    if (threads == w.threads)
      out.solve_gups[s.key].push_back(static_cast<double>(solve.result.updates) /
                                      solve.wall_s * 1e-9);
  }
  return out;
}

/// Per-source observability tax: nuMWD with one source on against plain
/// nuMWD, the five interleaved three times.
void observe_layers(Solver& solver, const Workload& w, std::vector<Metric>& m) {
  struct Source {
    std::string name;
    Observe observe;
    std::vector<double> gups;
  };
  std::vector<Source> sources = {{"plain", {}, {}},
                                 {"numa", {.numa = true}, {}},
                                 {"trace", {.trace = true}, {}},
                                 {"metrics", {.metrics = true}, {}},
                                 {"telemetry", {.telemetry = true}, {}}};
  double locality = 0.0;
  for (int rep = 0; rep < 3; ++rep)
    for (Source& src : sources) {
      const Solve solve = solver.run("nuMWD", w.threads, src.observe);
      if (!solve.ok) {
        report_failure("nuMWD", w.threads, solve);
        continue;
      }
      src.gups.push_back(solve.gups());
      if (src.observe.numa) locality = solve.result.traffic.locality();
    }
  for (std::size_t i = 1; i < sources.size(); ++i)
    m.push_back({"observe." + sources[i].name + ".tax",
                 median(sources[0].gups) / median(sources[i].gups), "ratio"});
  m.push_back({"observe.numa.locality", locality, "ratio"});
}

int run_layers(const Args& args, const Workload& w, const Inputs& in) {
  namespace tr = nustencil::trace;
  const CpuTimes cpu0 = CpuTimes::now();
  Solver solver(in);
  const Reference& ref_periodic = solver.periodic();
  const Reference& ref_dirichlet = solver.dirichlet();
  solver.corrupt_solve(args.corrupt_solve);
  const auto& names = comparison_schemes();
  std::vector<Metric> m;

  // L0: the kernel row.
  const double kernel_gups = kernel_row_gups(in, ref_periodic.kernel);
  m.push_back({"core.kernels.gups", kernel_gups, "Gup/s"});
  m.push_back({"core.kernels.nt", ref_periodic.kernel.stream ? 1.0 : 0.0, "flag"});

  PlainSamples plain = plain_samples(solver, w, args.seconds);

  // One phase-metrics solve per scheme at the workload's thread count.
  Index tile_width_y = in.shape[1];
  std::map<std::string, Solve> phased;
  for (const SchemeName& s : names) {
    Solve solve = solver.run(s.legend, w.threads, {.phases = true});
    if (!solve.ok) {
      report_failure(s.legend, w.threads, solve);
      continue;
    }
    const auto wy = solve.result.details.find("tile_width_y");
    if (wy != solve.result.details.end()) tile_width_y = static_cast<Index>(wy->second);
    phased[s.key] = std::move(solve);
  }

  // L1: the executor over the whole domain and over nuCATS-shaped boxes.
  const ExecutorRates exec = executor_rates(in, tile_width_y);
  m.push_back({"core.executor.sweep_gups", exec.sweep_gups, "Gup/s"});
  m.push_back({"core.executor.tile_gups", exec.tile_gups, "Gup/s"});
  m.push_back({"core.executor.tax", kernel_gups / exec.sweep_gups, "ratio"});

  const double init_s = median({exec.init_s, ref_periodic.init_s, ref_dirichlet.init_s});
  const double field_gib = static_cast<double>(in.shape.product()) * sizeof(double) /
                           (1024.0 * 1024.0 * 1024.0);
  m.push_back({"core.field.alloc_s",
               median({exec.alloc_s, ref_periodic.alloc_s, ref_dirichlet.alloc_s}),
               "s"});
  m.push_back({"core.field.init_s", init_s, "s"});
  m.push_back({"core.field.init_gibps", field_gib / init_s, "GiB/s"});

  std::vector<double> trace_overhead;
  for (const SchemeName& s : names) {
    const std::string p = "schemes." + s.key + ".";
    const double g1 = median(plain.t1[s.key]);
    const double g2 = median(plain.t2[s.key]);
    const Solve& ph = phased[s.key];
    const tr::PhaseBreakdown& b = ph.result.phases;
    const double waits = b.total_s(tr::Phase::BarrierWait) + b.total_s(tr::Phase::SpinWait);
    m.push_back({p + "tax", exec.sweep_gups / g1, "ratio"});
    m.push_back({p + "eff_t2", g2 / (2.0 * g1), "ratio"});
    m.push_back({p + "solve_gups", median(plain.solve_gups[s.key]), "Gup/s"});
    m.push_back({p + "updates_ratio", plain.updates_ratio[s.key], "ratio"});
    m.push_back({p + "compute_s", b.total_s(tr::Phase::Tile), "s"});
    m.push_back({p + "init_s", b.total_s(tr::Phase::Init), "s"});
    m.push_back({p + "wait_frac", waits / (w.threads * ph.result.seconds), "ratio"});
    m.push_back({p + "imbalance", b.imbalance(), "ratio"});
    if (ph.gups() > 0) trace_overhead.push_back((w.threads == 1 ? g1 : g2) / ph.gups());
  }
  m.push_back({"bench.trace_overhead", median(trace_overhead), "ratio"});

  // L3 primitives.
  m.push_back({"thread.barrier_ns", barrier_round_trip_ns(), "ns"});
  m.push_back({"thread.progress_ns", progress_round_trip_ns(), "ns"});

  observe_layers(solver, w, m);

  // Host: bandwidth of the level the workload's fields live in (three
  // arrays of one field each), and VM steal over the whole run.
  m.push_back({"host.triad_gibps", triad_gibps(in.shape.product(), w.threads), "GiB/s"});
  const double steal = steal_percent(cpu0, CpuTimes::now());
  m.push_back({"host.steal_pct", steal, "%"});

  std::vector<Summary> samples;
  for (const SchemeName& s : names) {
    samples.push_back({"t1." + s.key, plain.t1[s.key]});
    samples.push_back({"t2." + s.key, plain.t2[s.key]});
  }
  emit(args, record_line(args, w, in, ref_periodic.kernel, steal, samples), solver.attempted(),
       solver.failed(), m);
  return 0;
}

}  // namespace
}  // namespace ladderbench

int main(int argc, char** argv) {
  using namespace ladderbench;
  const Args args = parse_args(argc, argv);
  const Workload& w = *find_workload(args.workload);
  Inputs in;
  const Index edge = args.edge > 0 ? args.edge : w.edge;
  in.shape = Coord{edge, edge, edge};
  in.steps = args.steps > 0 ? args.steps : w.steps;
  in.seed = static_cast<unsigned>(args.seed);
  // glibc raises its mmap threshold after the first large free, so later
  // solves would take their fields from already-faulted heap pages.  A
  // fixed threshold (glibc's default) gives every solve fresh pages, as
  // in a fresh process.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  // Workers pin to cores 0..threads-1; the benchmark's own thread (and
  // the telemetry sampler it spawns) stays off them.
  nustencil::threading::pin_self_to_core(driver_core());
  try {
    return args.trace == 0 ? run_end_to_end(args, w, in) : run_layers(args, w, in);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ladderbench: %s\n", e.what());
    return 1;
  }
}
