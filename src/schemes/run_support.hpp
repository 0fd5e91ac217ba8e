// Shared scaffolding for scheme implementations: instrumentation setup,
// the worker team, per-thread executors, boundary initialisation, and
// result assembly.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/timer.hpp"
#include "core/executor.hpp"
#include "hwc/group.hpp"
#include "core/reference.hpp"
#include "numa/page_table.hpp"
#include "numa/traffic.hpp"
#include "prof/probes.hpp"
#include "sched/pool.hpp"
#include "schemes/scheme.hpp"
#include "thread/abort.hpp"
#include "thread/team.hpp"

namespace nustencil::schemes {

/// The machine used for instrumentation when RunConfig::machine is null.
const topology::MachineSpec& default_machine();

class RunSupport {
 public:
  RunSupport(core::Problem& problem, const RunConfig& config);

  /// Detaches the probe set from the (caller-owned) trace, progress meter
  /// and telemetry sampler, so none of them dereferences a dead run.
  ~RunSupport();

  core::Problem& problem() { return *problem_; }
  const RunConfig& config() const { return *config_; }
  const topology::MachineSpec& machine() const { return *machine_; }
  threading::Team& team() { return *team_; }

  /// The run's probe set: per-thread counters, cache simulator, hardware
  /// callback and layer indicator; the one source every reader snapshots.
  prof::Probes& probes() { return probes_; }

  /// Abort token shared by all spin-waits/barriers of this run.
  const threading::AbortToken& abort() const { return abort_; }

  /// Runs body(tid) on the team; a throwing worker triggers the abort
  /// token so every other worker unwinds from its spin-waits, then the
  /// first exception is rethrown here.
  void run_workers(const std::function<void(int)>& body);

  /// Per-thread executor (one per worker; never shared between threads).
  core::Executor& executor(int tid) { return *executors_[static_cast<std::size_t>(tid)]; }

  /// Span recorder of worker `tid`; nullptr when neither RunConfig::trace
  /// nor collect_phase_metrics is set (every hook then costs one branch).
  trace::ThreadRecorder* recorder(int tid) {
    return trace_ ? trace_->thread(tid) : nullptr;
  }

  /// NUMA node of worker `tid` under the virtual (fill-socket-first)
  /// placement of the instrumented machine; 0 when not instrumenting.
  int node_of_thread(int tid) const;

  /// Work-stealing task pool of this run, or nullptr under the static
  /// schedule.  Created on first call (call before workers start: the
  /// pool resolves metrics counters, which is not thread-safe) and
  /// placed with the same machine/pin-policy node map the traffic
  /// instrumentation uses, so victim ordering is NUMA-aware even when
  /// instrumentation is off.  finish() folds its stats into the result.
  sched::TaskPool* pool();

  /// Serial allocation/initialisation by "thread 0": fills the whole
  /// problem and first-touches every page on node 0 — exactly what a
  /// NUMA-ignorant scheme gets from the kernel.
  void serial_init();

  /// Freezes Dirichlet boundary cells (copies them into the second buffer
  /// and marks them in the dependency checker).  Call after the data has
  /// been initialised.
  void finalize_boundary();

  /// Total cell updates performed by all executors so far.
  Index total_updates() const;

  /// Assembles the RunResult (collects traffic, verifies the dependency
  /// checker reached `timesteps` everywhere).
  RunResult finish(const std::string& scheme_name, double seconds);

 private:
  core::Problem* problem_;
  const RunConfig* config_;
  const topology::MachineSpec* machine_;
  prof::Probes probes_;
  std::optional<trace::Trace> own_trace_;  ///< metrics-only fallback recorder
  trace::Trace* trace_ = nullptr;
  std::optional<numa::PageTable> pages_;
  std::optional<numa::VirtualTopology> topo_;
  std::optional<numa::TrafficRecorder> recorder_;
  std::optional<hwc::ThreadSet> hw_;        ///< per-thread perf counter groups
  std::optional<core::DependencyChecker> checker_;
  std::vector<std::unique_ptr<core::Executor>> executors_;
  std::unique_ptr<threading::Team> team_;
  std::unique_ptr<sched::TaskPool> pool_;
  threading::AbortToken abort_;
};

}  // namespace nustencil::schemes
