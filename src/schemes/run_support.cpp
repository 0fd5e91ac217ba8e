#include "schemes/run_support.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "hwc/validate.hpp"
#include "telemetry/sampler.hpp"

namespace nustencil::schemes {

const topology::MachineSpec& default_machine() {
  static const topology::MachineSpec machine = topology::xeonX7550();
  return machine;
}

RunSupport::RunSupport(core::Problem& problem, const RunConfig& config)
    : problem_(&problem), config_(&config), probes_(config.num_threads) {
  machine_ = config.machine ? config.machine : &default_machine();
  NUSTENCIL_CHECK(config.timesteps >= 1, "RunConfig: need at least one time step");
  if (config.instrument) {
    NUSTENCIL_CHECK(config.num_threads <= machine_->cores(),
                    "RunConfig: more threads than cores on the instrumented machine");
    pages_.emplace(config.page_bytes);
    topo_.emplace(*machine_, config.pin_policy);
    recorder_.emplace(*pages_, *topo_, probes_);
    problem.attach(*pages_);
    // About 32 locality samples per thread over the whole run.
    const Index per_thread =
        problem.volume() * config.timesteps / config.num_threads;
    recorder_->set_sample_window(
        static_cast<std::uint64_t>(std::max<Index>(1, per_thread / 32)));
  }
  if (config.check_dependencies) checker_.emplace(problem.volume());
  probes_.set_cache(config.cache_sim);

  if (config.trace) {
    trace_ = config.trace;
  } else if (config.collect_phase_metrics) {
    own_trace_.emplace(/*events_per_thread=*/0);  // totals only, no events
    trace_ = &*own_trace_;
  }
  if (trace_) trace_->begin_run(config.num_threads);

  core::Instrumentation instr;
  instr.pages = pages_ ? &*pages_ : nullptr;
  instr.traffic = recorder_ ? &*recorder_ : nullptr;
  instr.checker = checker_ ? &*checker_ : nullptr;
  instr.cache_sim = config.cache_sim;
  instr.metrics = config.metrics;
  for (int tid = 0; tid < config.num_threads; ++tid) {
    executors_.push_back(
        std::make_unique<core::Executor>(problem, instr, config.kernel));
    executors_.back()->set_trace(recorder(tid));
    executors_.back()->set_probe(&probes_.shard(tid));
  }

  if (config.hw_mode != hwc::Mode::Off) {
    hwc::SyscallBackend& backend =
        config.hw_backend ? *config.hw_backend : hwc::real_backend();
    hw_.emplace(backend, config.hw_mode, config.hw_events, config.num_threads);
  }
  const bool hw_sampling = hw_ && hw_->active();
  if (hw_sampling)
    probes_.set_hw(
        [this](int tid, trace::CounterSet& out) { hw_->sample(tid, out); });

  // Per-span deltas are wanted for explicit profiling and whenever
  // hardware counters measure into a trace (measured deltas ride the
  // same snapshot as the simulated ones).
  if ((config.profile_spans || hw_sampling) && trace_) {
    trace_->set_sampler(&probes_);
    trace_->set_flops_per_update(problem.stencil().flops());
  }
  if (config.progress) config.progress->bind(&probes_);

  team_ = std::make_unique<threading::Team>(config.num_threads, config.pin_threads);

  // Bind the live telemetry sampler last, when every source it reads
  // exists.  It reads the probe set and the trace totals the workers
  // already write, so the hot path gains no new writes.
  if (config.telemetry) {
    telemetry::RunSources sources;
    sources.probes = &probes_;
    sources.timesteps = config.timesteps;
    sources.registry = config.metrics;
    sources.trace = trace_;
    sources.abort = &abort_;
    if (hw_) {
      const hwc::HwRunStats hw_stats = hw_->stats();
      sources.hw_status = hw_stats.status;
      sources.hw_reason = hw_stats.reason;
    }
    config.telemetry->begin_run(sources);
  }
}

RunSupport::~RunSupport() {
  // Readers must stop before the probe set they point into dies.
  if (config_->telemetry) config_->telemetry->detach_run();
  if (config_->progress) config_->progress->bind(nullptr);
  if (trace_ && trace_->sampler() == &probes_) trace_->set_sampler(nullptr);
}

void RunSupport::run_workers(const std::function<void(int)>& body) {
  team_->run([&](int tid) {
    // Counters stay enabled for the whole parallel region (one ioctl
    // pair per region, not per span); the probe set samples cumulative
    // values at span boundaries in between.
    if (hw_) hw_->attach(tid);
    try {
      body(tid);
    } catch (...) {
      abort_.trigger();
      if (hw_) hw_->detach(tid);
      throw;
    }
    if (hw_) hw_->detach(tid);
  });
}

int RunSupport::node_of_thread(int tid) const {
  return topo_ ? topo_->node_of_thread(tid) : 0;
}

sched::TaskPool* RunSupport::pool() {
  if (config_->schedule == sched::Schedule::Static) return nullptr;
  if (!pool_) {
    pool_ = std::make_unique<sched::TaskPool>(
        config_->num_threads,
        sched::thread_nodes(*machine_, config_->pin_policy, config_->num_threads),
        config_->schedule);
    pool_->bind_metrics(config_->metrics);
  }
  return pool_.get();
}

void RunSupport::serial_init() {
  core::Box whole;
  whole.lo = Coord::filled(problem_->shape().rank(), 0);
  whole.hi = problem_->shape();
  executors_[0]->first_touch_box(whole, /*node=*/0, config_->seed);
}

void RunSupport::finalize_boundary() {
  const core::Boundary& bc = config_->boundary;
  const Coord& shape = problem_->shape();
  const int rank = shape.rank();
  if (bc.all_periodic(rank)) return;

  const core::Box interior = core::updatable_box(shape, problem_->stencil(), bc);
  const Coord& strides = problem_->buffer(0).strides();
  double* u0 = problem_->buffer(0).data();
  double* u1 = problem_->buffer(1).data();

  Coord pos = Coord::filled(rank, 0);
  const Index volume = problem_->volume();
  for (Index c = 0; c < volume; ++c) {
    bool inside = true;
    for (int d = 0; d < rank; ++d)
      inside = inside && pos[d] >= interior.lo[d] && pos[d] < interior.hi[d];
    if (!inside) {
      // Storage index of the logical cell (== c for dense layouts).
      const Index i = linear_index(pos, strides);
      u1[i] = u0[i];
      if (checker_) checker_->freeze(i);
    }
    // Advance the odometer.
    for (int d = 0; d < rank; ++d) {
      if (++pos[d] < shape[d]) break;
      pos[d] = 0;
    }
  }
}

Index RunSupport::total_updates() const {
  Index total = 0;
  for (int tid = 0; tid < probes_.num_threads(); ++tid)
    total += static_cast<Index>(
        probes_.shard(tid).updates.load(std::memory_order_relaxed));
  return total;
}

RunResult RunSupport::finish(const std::string& scheme_name, double seconds) {
  RunResult r;
  r.scheme = scheme_name;
  r.threads = config_->num_threads;
  r.timesteps = config_->timesteps;
  r.seconds = seconds;
  r.updates = total_updates();
  // Stop live telemetry first: the sampler takes its closing sample and
  // emits the run_end event while every shard is still warm.
  if (config_->telemetry)
    config_->telemetry->end_run(seconds, static_cast<std::uint64_t>(r.updates));
  if (recorder_) r.traffic = recorder_->collect();
  if (trace_) r.phases = trace_->breakdown();
  if (trace_ && trace_->sampler() == &probes_ && config_->profile_spans)
    r.prof = prof::summarize(*trace_, trace_->flops_per_update());
  if (hw_) {
    r.hw = hw_->stats();
    if (trace_) {
      // Attributed totals: the exact out-of-ring sums of every Tile and
      // Init span delta — the same invariant the simulated counters
      // carry.  The remainder against `total` is real unattributed time
      // (barriers, spin-waits, scheduling) and stays visible as such.
      for (int tid = 0; tid < config_->num_threads &&
                        tid < static_cast<int>(r.hw.threads.size());
           ++tid) {
        const trace::ThreadRecorder* rec = trace_->thread(tid);
        const trace::CounterSet& tile = rec->counter_total(trace::Phase::Tile);
        const trace::CounterSet& init = rec->counter_total(trace::Phase::Init);
        for (int ev = 0; ev < hwc::kNumEvents; ++ev) {
          const trace::SpanCounter slot =
              hwc::event_slot(static_cast<hwc::Event>(ev));
          const std::uint64_t sum = tile.at(slot) + init.at(slot);
          r.hw.threads[static_cast<std::size_t>(tid)]
              .attributed[static_cast<std::size_t>(ev)] = sum;
          r.hw.attributed[static_cast<std::size_t>(ev)] += sum;
        }
      }
      if (config_->cache_sim && trace_->events_per_thread() > 0 &&
          r.hw.available(hwc::Event::CacheMisses))
        r.hw.validation = hwc::validate_against_simulation(*trace_);
    }
  }
  if (checker_) checker_->check_all_at(config_->timesteps);
  if (pool_) {
    r.sched = pool_->stats();
    r.details["steal_attempts"] = static_cast<double>(r.sched.total_attempts());
    r.details["steals"] = static_cast<double>(r.sched.total_steals());
    r.details["steal_fails"] = static_cast<double>(r.sched.total_fails());
    r.details["stolen_updates"] =
        static_cast<double>(r.sched.total_stolen_updates());
  }
  return r;
}

}  // namespace nustencil::schemes
