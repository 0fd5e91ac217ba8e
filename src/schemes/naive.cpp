#include "schemes/naive.hpp"

#include <algorithm>

#include "schemes/decompose.hpp"
#include "schemes/run_support.hpp"
#include "thread/barrier.hpp"

namespace nustencil::schemes {

namespace {

/// Splits `box` into up to `parts` slabs along its longest dimension
/// other than the unit-stride one (splitting x would change the row
/// segmentation the kernels see; y/z splits only re-order whole rows, so
/// results stay bit-identical to the unsplit sweep).  Rank-1 boxes are
/// returned whole for the same reason.
std::vector<core::Box> split_for_stealing(const core::Box& box, int parts) {
  std::vector<core::Box> out;
  if (box.empty()) return out;
  const int rank = box.rank();
  int d = -1;
  for (int e = 1; e < rank; ++e)
    if (d < 0 || box.extent(e) > box.extent(d)) d = e;
  if (d < 0 || box.extent(d) < 2) {
    out.push_back(box);
    return out;
  }
  const Index extent = box.extent(d);
  const Index k = std::min<Index>(extent, parts);
  for (Index i = 0; i < k; ++i) {
    core::Box b = box;
    b.lo[d] = box.lo[d] + extent * i / k;
    b.hi[d] = box.lo[d] + extent * (i + 1) / k;
    if (!b.empty()) out.push_back(b);
  }
  return out;
}

}  // namespace

RunResult NaiveScheme::run(core::Problem& problem, const RunConfig& config) const {
  RunSupport sup(problem, config);
  const int n = config.num_threads;

  core::Box domain;
  domain.lo = Coord::filled(problem.shape().rank(), 0);
  domain.hi = problem.shape();
  const Coord counts = decompose_counts(problem.shape(), n);
  const std::vector<core::Box> tiles = decompose_domain(domain, counts);

  // NUMA-aware allocation: each thread first-touches its own tile.
  sup.run_workers([&](int tid) {
    sup.executor(tid).first_touch_box(tiles[static_cast<std::size_t>(tid)],
                                      sup.node_of_thread(tid), config.seed);
  });
  sup.finalize_boundary();

  const core::Box updatable =
      core::updatable_box(problem.shape(), problem.stencil(), config.boundary);

  threading::Barrier barrier(n);

  if (config.schedule == sched::Schedule::Static) {
    Timer timer;
    sup.run_workers([&](int tid) {
      const core::Box mine = intersect(tiles[static_cast<std::size_t>(tid)], updatable);
      core::Executor& exec = sup.executor(tid);
      trace::ThreadRecorder* rec = sup.recorder(tid);
      for (long t = 0; t < config.timesteps; ++t) {
        sup.probes().set_layer(t);
        exec.update_box(mine, t, tid);
        barrier.arrive_and_wait(&sup.abort(), rec);
      }
    });
    const double seconds = timer.seconds();

    RunResult r = sup.finish(name(), seconds);
    r.details["tiles"] = static_cast<double>(n);
    return r;
  }

  // Work-stealing schedule: refine every thread's slab into subtiles so
  // thieves can pick up fractions of an oversized slab, keeping the
  // owner on its own pages for the un-stolen majority.
  sched::TaskPool& pool = *sup.pool();
  std::vector<core::Box> tasks;
  std::vector<int> task_owner;
  for (int tid = 0; tid < n; ++tid) {
    const core::Box mine = intersect(tiles[static_cast<std::size_t>(tid)], updatable);
    for (const core::Box& b : split_for_stealing(mine, 8)) {
      tasks.push_back(b);
      task_owner.push_back(tid);
    }
  }
  const int ntasks = static_cast<int>(tasks.size());
  const auto owner_of = [&](int i) {
    return task_owner[static_cast<std::size_t>(i)];
  };

  Timer timer;
  sup.run_workers([&](int tid) {
    trace::ThreadRecorder* rec = sup.recorder(tid);
    for (long t = 0; t < config.timesteps; ++t) {
      sup.probes().set_layer(t);
      if (tid == 0) pool.reset(ntasks, owner_of);
      barrier.arrive_and_wait(&sup.abort(), rec);
      pool.run(
          tid,
          [&](int task, int wtid, bool stolen) {
            core::Executor& exec = sup.executor(wtid);
            const Index before = exec.updates_done();
            exec.update_box(tasks[static_cast<std::size_t>(task)], t, wtid);
            if (stolen) pool.add_stolen_updates(wtid, exec.updates_done() - before);
            return sched::StepResult::Done;
          },
          &sup.abort(), rec);
      // Fences the reset of the next step: every worker must have left
      // run() before tid 0 rebuilds the deques.
      barrier.arrive_and_wait(&sup.abort(), rec);
    }
  });
  const double seconds = timer.seconds();

  RunResult r = sup.finish(name(), seconds);
  r.details["tiles"] = static_cast<double>(ntasks);
  return r;
}

TrafficEstimate NaiveScheme::estimate_traffic(const topology::MachineSpec& machine,
                                              const Coord& shape,
                                              const core::StencilSpec& stencil, int threads,
                                              long /*timesteps*/) const {
  // Per update: 1 compulsory write; reads depend on how many of the 2s+1
  // source slices the last-level cache can hold per thread.  When they all
  // fit, only the leading slice misses (SysBandIC-like: 1 read); when none
  // fit, every tap misses (SysBand0C-like).
  const int s = stencil.order();
  const int rank = stencil.rank();
  double slice_doubles = 1.0;
  for (int d = 0; d + 1 < rank; ++d) slice_doubles *= static_cast<double>(shape[d]);
  const double working_set =
      (2.0 * s + 2.0) * slice_doubles * 8.0;  // source slices + the write slice
  const auto& llc = machine.last_level_cache();
  const Index instances = ceil_div(threads, llc.shared_by_cores);
  const double llc_share = static_cast<double>(llc.size_bytes) *
                           static_cast<double>(instances) / static_cast<double>(threads);
  // Fit factor in [0,1]: 1 = ideal caching of the moving slices.
  const double fit = std::clamp(llc_share / working_set, 0.0, 1.0);
  const double reads_ic = 1.0, reads_0c = static_cast<double>(stencil.npoints());
  double reads = reads_0c + (reads_ic - reads_0c) * fit;
  double writes = 1.0;
  double bands = stencil.banded() ? static_cast<double>(stencil.npoints()) : 0.0;

  TrafficEstimate e;
  e.mem_doubles_per_update = reads + writes + bands;
  e.llc_doubles_per_update = static_cast<double>(stencil.reads_per_update()) + 1.0;
  return e;
}

}  // namespace nustencil::schemes
