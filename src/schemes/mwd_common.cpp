#include "schemes/mwd_common.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/aligned.hpp"
#include "schemes/run_support.hpp"
#include "thread/barrier.hpp"
#include "thread/spinflag.hpp"

namespace nustencil::schemes {

namespace {

/// Command slot of one thread group under the stealing schedules: the
/// leader writes (column, step), then publishes via the seq counter; the
/// per-step group barrier keeps the slot single-writer (members must have
/// read command k before the leader can finish step k and issue k+1).
struct alignas(kCacheLineBytes) GroupCtrl {
  threading::ProgressCounter seq;
  std::atomic<int> col{0};
  std::atomic<long> t{0};
  long issued = 0;  ///< leader-local publication count
};

}  // namespace

MwdPlan plan_mwd(const Coord& shape, const core::StencilSpec& stencil,
                 const topology::MachineSpec& machine, int threads, long timesteps,
                 bool numa_aware, int group_size, long tau_override) {
  const int rank = shape.rank();
  const int s = stencil.order();
  const Index nz = shape[rank - 1];
  NUSTENCIL_CHECK(threads >= 1, "MWD: thread count must be >= 1");
  NUSTENCIL_CHECK(nz >= 2 * s,
                  "MWD: the traversal dimension must be at least 2s cells");

  MwdPlan plan;

  // Thread groups: auto picks the largest divisor of the thread count
  // that fits inside one LLC's sharer set, so a group really can share
  // its diamond's working set.
  if (group_size > 0) {
    NUSTENCIL_CHECK(threads % group_size == 0,
                    "MWD: group size must divide the thread count");
    plan.group_size = group_size;
  } else {
    const int cap = std::min(threads, machine.last_level_cache().shared_by_cores);
    int g = 1;
    for (int c = cap; c > 1; --c)
      if (threads % c == 0) {
        g = c;
        break;
      }
    plan.group_size = g;
  }
  plan.groups = threads / plan.group_size;

  // Cross-section split of one group: prefer cutting y (dimension
  // rank-2 keeps unit-stride rows whole), spill the rest onto x.
  plan.dim_y = rank == 3 ? 1 : (rank == 2 ? 0 : -1);
  plan.dim_x = rank == 3 ? 0 : -1;
  if (plan.dim_y >= 0) {
    const Index ny = shape[plan.dim_y];
    for (int c = plan.group_size; c >= 1; --c)
      if (plan.group_size % c == 0 && (c <= ny || c == 1)) {
        plan.gy = c;
        break;
      }
    plan.gx = plan.group_size / plan.gy;
  }

  // Diamond half-height tau: the largest value whose full-width diamond
  // (2*s*tau + 2s planes of every array) still fits half the *whole*
  // shared LLC — the group cooperates inside one diamond, so unlike the
  // CATS/CORALS sizing the budget is not divided per thread.
  const double nband =
      stencil.banded() ? static_cast<double>(stencil.npoints()) : 0.0;
  const double cell_bytes = (2.0 + nband) * 8.0;
  const double cross =
      static_cast<double>(shape.product()) / static_cast<double>(nz);
  const auto diamond_bytes = [&](long t) {
    return (2.0 * s * static_cast<double>(t) + 2.0 * s) * cross * cell_bytes;
  };
  const long tau_max = std::max<long>(1, nz / (2 * s));
  long tau;
  if (tau_override > 0) {
    tau = std::min(tau_override, tau_max);
  } else {
    const double budget = 0.5 * static_cast<double>(
                                    machine.last_level_cache().size_bytes);
    tau = 1;
    while (tau < tau_max && tau < std::max<long>(1, timesteps) &&
           diamond_bytes(tau + 1) <= budget)
      ++tau;
  }

  // Cut the ring into nd >= 1 gaps of at least 2*s*tau cells (the
  // feasibility bound of the dependency rule); when that leaves fewer
  // column pairs than groups, trade diamond height for parallelism.
  int nd = std::max<int>(1, static_cast<int>(nz / (2 * s * tau)));
  while (nd < plan.groups && tau > 1) {
    --tau;
    nd = std::max<int>(1, static_cast<int>(nz / (2 * s * tau)));
  }
  plan.tau = tau;
  plan.columns = nd;
  plan.diamond_bytes = diamond_bytes(tau);
  plan.cuts.resize(static_cast<std::size_t>(nd) + 1);
  for (int j = 0; j <= nd; ++j)
    plan.cuts[static_cast<std::size_t>(j)] = nz * j / nd;

  // Column-pair ownership: nuMWD keeps contiguous ring ranges (so a
  // group's first-touched home pages stay local); MWD deals round-robin.
  plan.owner_group.resize(static_cast<std::size_t>(nd));
  if (numa_aware) {
    for (int k = 0; k < plan.groups; ++k)
      for (int j = nd * k / plan.groups; j < nd * (k + 1) / plan.groups; ++j)
        plan.owner_group[static_cast<std::size_t>(j)] = k;
  } else {
    for (int j = 0; j < nd; ++j)
      plan.owner_group[static_cast<std::size_t>(j)] = j % plan.groups;
  }
  return plan;
}

RunResult run_mwd_like(core::Problem& problem, const RunConfig& config,
                       const MwdParams& params) {
  const int rank = problem.shape().rank();
  NUSTENCIL_CHECK(config.boundary.all_periodic(rank),
                  "MWD/nuMWD require periodic boundaries (diamond columns "
                  "wrap around the traversal ring)");
  RunSupport sup(problem, config);
  const int n = config.num_threads;
  const int s = problem.stencil().order();
  const Coord& shape = problem.shape();
  const int zd = rank - 1;
  const Index nz = shape[zd];

  const MwdPlan plan =
      plan_mwd(shape, problem.stencil(), sup.machine(), n, config.timesteps,
               params.numa_init, config.group_size, params.tau_override);
  const long tau = plan.tau;
  const int nd = plan.columns;
  const int g = plan.group_size;
  const long T = config.timesteps;
  const long cycle = 2 * tau;

  // --- diamond geometry -------------------------------------------------
  const auto breadth = [&](long t) {  // g(t): column half-width in units of s
    const long m = t % cycle;
    return std::min(m, cycle - m);
  };
  const auto v_growing = [&](long t) {
    const long m = t % cycle;
    return m >= 1 && m <= tau;
  };
  // Column index c: even = V_{c/2} (diamond around cut c/2), odd =
  // I_{c/2} (the gap after it).  The z range may be virtual (negative)
  // for V_0 — the executor wraps periodic coordinates.
  const auto col_range = [&](int c, long t, Index& zlo, Index& zhi) {
    const int j = c >> 1;
    const Index w = static_cast<Index>(s) * breadth(t);
    if ((c & 1) == 0) {
      zlo = plan.cuts[static_cast<std::size_t>(j)] - w;
      zhi = plan.cuts[static_cast<std::size_t>(j)] + w;
    } else {
      zlo = plan.cuts[static_cast<std::size_t>(j)] + w;
      zhi = plan.cuts[static_cast<std::size_t>(j) + 1] - w;
    }
  };
  const auto col_growing = [&](int c, long t) {
    return (c & 1) == 0 ? v_growing(t) : !v_growing(t);
  };
  // The two z-neighbour columns whose step-(t-1) completion a growing
  // step waits on; always the opposite family (bipartite wait graph).
  const auto neighbor = [&](int c, int side) {
    const int j = c >> 1;
    if ((c & 1) == 0) return side == 0 ? 2 * ((j + nd - 1) % nd) + 1 : 2 * j + 1;
    return side == 0 ? 2 * j : 2 * ((j + 1) % nd);
  };

  // Member chunk of a column box: split y among gy members, x among gx
  // (multi-dimensional intra-tile parallelization).  For rank 1 there is
  // no cross-section; surplus members idle (empty box) but still barrier.
  const auto member_box = [&](Index zlo, Index zhi, int mem) {
    core::Box b;
    b.lo = Coord::filled(rank, 0);
    b.hi = shape;
    b.lo[zd] = zlo;
    b.hi[zd] = zhi;
    if (plan.dim_y >= 0) {
      const Index ny = shape[plan.dim_y];
      const int my = mem % plan.gy;
      b.lo[plan.dim_y] = ny * my / plan.gy;
      b.hi[plan.dim_y] = ny * (my + 1) / plan.gy;
      if (plan.dim_x >= 0) {
        const Index nx = shape[plan.dim_x];
        const int mx = mem / plan.gy;
        b.lo[plan.dim_x] = nx * mx / plan.gx;
        b.hi[plan.dim_x] = nx * (mx + 1) / plan.gx;
      }
    } else if (mem > 0) {
      b.hi[zd] = b.lo[zd];
    }
    return b;
  };

  // --- shared state -----------------------------------------------------
  // One monotone counter per column (value = completed steps), one
  // barrier + command slot per group.
  const auto progress =
      std::make_unique<threading::ProgressCounter[]>(static_cast<std::size_t>(2 * nd));
  std::vector<std::unique_ptr<threading::Barrier>> gbar;
  std::vector<GroupCtrl> ctrl(static_cast<std::size_t>(plan.groups));
  for (int k = 0; k < plan.groups; ++k)
    gbar.push_back(std::make_unique<threading::Barrier>(g));

  // --- initialisation ---------------------------------------------------
  if (params.numa_init) {
    // Parallel first touch: every member touches its cross-section chunk
    // of the group's contiguous home range of the ring, so the pages a
    // group's diamonds breathe over live on its own node.  The group
    // ranges partition [0, Nz) even when some groups own no columns.
    sup.run_workers([&](int tid) {
      const int grp = tid / g;
      int jlo = nd, jhi = 0;
      for (int j = 0; j < nd; ++j)
        if (plan.owner_group[static_cast<std::size_t>(j)] == grp) {
          jlo = std::min(jlo, j);
          jhi = std::max(jhi, j + 1);
        }
      if (jlo >= jhi) return;
      const core::Box b = member_box(plan.cuts[static_cast<std::size_t>(jlo)],
                                     plan.cuts[static_cast<std::size_t>(jhi)], tid % g);
      if (!b.empty())
        sup.executor(tid).first_touch_box(b, sup.node_of_thread(tid), config.seed);
    });
  } else {
    sup.serial_init();
  }

  const bool stealing = config.schedule != sched::Schedule::Static;
  // Stealing state: one cursor (next step) per column; a column lives in
  // exactly one deque / executing leader at a time, so the cursor and its
  // progress counter stay single-writer.  Tasks are whole columns, owned
  // by the leader thread of the owning group.
  std::vector<long> cursors(static_cast<std::size_t>(2 * nd), 0);
  const auto owner_of = [&](int c) {
    return plan.owner_group[static_cast<std::size_t>(c >> 1)] * g;
  };
  sched::TaskPool* pool = stealing ? sup.pool() : nullptr;
  threading::Barrier start_barrier(n);

  Timer timer;
  sup.run_workers([&](int tid) {
    core::Executor& exec = sup.executor(tid);
    trace::ThreadRecorder* rec = sup.recorder(tid);
    const int grp = tid / g;
    const int mem = tid % g;

    // One step of column c by one group member: growing steps first wait
    // for both neighbour counters (shrinking steps read only their own
    // previous box), then the member computes its chunk, the group
    // barriers per time level, and the first member publishes completion.
    // `sync` false skips wait+publish (the stealing leader probed the
    // counters already and publishes after crediting).
    const auto column_step = [&](int c, long t, int member, bool sync) {
      if (sync && col_growing(c, t)) {
        const int nl = neighbor(c, 0);
        const int nr = neighbor(c, 1);
        progress[static_cast<std::size_t>(nl)].wait_for(t, &sup.abort(), rec, nl);
        progress[static_cast<std::size_t>(nr)].wait_for(t, &sup.abort(), rec, nr);
      }
      Index zlo = 0, zhi = 0;
      col_range(c, t, zlo, zhi);
      if (zhi > zlo) {
        const core::Box b = member_box(zlo, zhi, member);
        if (!b.empty()) exec.update_box(b, t, tid);
      }
      if (g > 1) gbar[static_cast<std::size_t>(grp)]->arrive_and_wait(&sup.abort(), rec);
      if (sync && member == 0)
        progress[static_cast<std::size_t>(c)].advance_to(t + 1);
    };

    if (!stealing) {
      std::vector<int> mine;
      for (int j = 0; j < nd; ++j)
        if (plan.owner_group[static_cast<std::size_t>(j)] == grp) mine.push_back(j);
      if (mine.empty() || T <= 0) return;

      // A column's window of consecutive steps, wrapped in a
      // parallelogram span (the executor records the counter-carrying
      // tile leaves itself).
      const auto run_column = [&](int c, long t0, long t1, long window) {
        const trace::ScopedSpan col_span(
            rec, trace::Phase::Parallelogram,
            {c, static_cast<std::int32_t>(window), -1, grp});
        for (long t = t0; t <= t1; ++t) column_step(c, t, mem, true);
      };

      // Step 0: the I columns sweep their full gaps, the V columns are
      // empty no-ops that still publish (wait_for(0) is trivially
      // satisfied, so no step-0 special casing exists elsewhere).
      sup.probes().set_layer(0);
      {
        const trace::ScopedSpan layer_span(rec, trace::Phase::Layer, {0, 0, 1, grp});
        for (const int j : mine) {
          run_column(2 * j, 0, 0, 0);
          run_column(2 * j + 1, 0, 0, 0);
        }
      }
      // Windows of tau steps: one family grows (diamonds opening) while
      // the other shrinks.  Shrinking columns run first — they never
      // wait, so every group always has a full window of immediately
      // runnable work before it starts waiting on neighbours.
      for (long w = 0;; ++w) {
        const long t0 = w * tau + 1;
        if (t0 >= T) break;
        const long t1 = std::min((w + 1) * tau, T - 1);
        sup.probes().set_layer(w + 1);
        const trace::ScopedSpan layer_span(
            rec, trace::Phase::Layer,
            {static_cast<std::int32_t>(w + 1), static_cast<std::int32_t>(t0),
             static_cast<std::int32_t>(t1 - t0 + 1), grp});
        const bool vgrow = w % 2 == 0;
        for (const int j : mine) run_column(vgrow ? 2 * j + 1 : 2 * j, t0, t1, w + 1);
        for (const int j : mine) run_column(vgrow ? 2 * j : 2 * j + 1, t0, t1, w + 1);
      }
      return;
    }

    // Stealing schedules: group leaders drain whole columns from the
    // pool and broadcast (column, step) to their members; a column whose
    // growing step finds a neighbour behind goes back to its owner's
    // deque instead of wedging the thief.
    if (tid == 0) pool->reset(2 * nd, owner_of);
    start_barrier.arrive_and_wait(&sup.abort(), rec);
    GroupCtrl& my_ctrl = ctrl[static_cast<std::size_t>(grp)];

    if (mem != 0) {
      // Member service loop: execute the leader's commands until the
      // done sentinel.  The per-step barrier keeps the slot in lockstep.
      long seen = 0;
      for (;;) {
        my_ctrl.seq.wait_for(seen + 1, &sup.abort(), rec, grp);
        ++seen;
        const int c = my_ctrl.col.load(std::memory_order_relaxed);
        if (c < 0) break;
        column_step(c, my_ctrl.t.load(std::memory_order_relaxed), mem, false);
      }
      return;
    }

    pool->run(
        tid,
        [&](int c, int wtid, bool stolen) {
          long& t = cursors[static_cast<std::size_t>(c)];
          bool advanced = false;
          while (t < T) {
            if (col_growing(c, t) &&
                (progress[static_cast<std::size_t>(neighbor(c, 0))].current() < t ||
                 progress[static_cast<std::size_t>(neighbor(c, 1))].current() < t))
              return advanced ? sched::StepResult::Yield : sched::StepResult::Blocked;
            if (g > 1) {
              my_ctrl.col.store(c, std::memory_order_relaxed);
              my_ctrl.t.store(t, std::memory_order_relaxed);
              my_ctrl.seq.advance_to(++my_ctrl.issued);
            }
            column_step(c, t, 0, false);
            if (stolen) {
              // The whole group computed the column's cross-section this
              // step; credit the analytic volume (member executors are
              // not safely readable from here).
              Index zlo = 0, zhi = 0;
              col_range(c, t, zlo, zhi);
              if (zhi > zlo)
                pool->add_stolen_updates(
                    wtid, static_cast<std::uint64_t>((zhi - zlo) *
                                                     (shape.product() / nz)));
            }
            progress[static_cast<std::size_t>(c)].advance_to(t + 1);
            ++t;
            advanced = true;
          }
          return sched::StepResult::Done;
        },
        &sup.abort(), rec);
    if (g > 1) {
      my_ctrl.col.store(-1, std::memory_order_relaxed);
      my_ctrl.seq.advance_to(++my_ctrl.issued);
    }
  });
  const double seconds = timer.seconds();

  RunResult r = sup.finish(params.name, seconds);
  r.details["tau"] = static_cast<double>(tau);
  r.details["columns"] = static_cast<double>(nd);
  r.details["group_size"] = static_cast<double>(g);
  r.details["groups"] = static_cast<double>(plan.groups);
  r.details["diamond_bytes"] = plan.diamond_bytes;
  return r;
}

TrafficEstimate estimate_mwd_traffic(const topology::MachineSpec& machine,
                                     const Coord& shape, const core::StencilSpec& stencil,
                                     int threads, long timesteps) {
  const int s = stencil.order();
  const MwdPlan plan = plan_mwd(shape, stencil, machine, threads, timesteps,
                                /*numa_aware=*/true, /*group_size=*/0);
  const double nband =
      stencil.banded() ? static_cast<double>(stencil.npoints()) : 0.0;
  const double tau = static_cast<double>(plan.tau);
  const double gap = static_cast<double>(shape[shape.rank() - 1]) / plan.columns;

  // Memory traffic: each window of tau steps streams a column's cells
  // once (the diamond's working set lives in the group's shared LLC, the
  // whole cache, not a per-thread share) plus a 2s-plane halo at each
  // ring cut.  Small associativity leak of the 2+nband streams, as for
  // the CORALS estimate.
  TrafficEstimate e;
  e.mem_doubles_per_update =
      (2.0 + nband) / tau * (1.0 + 2.0 * s / gap);
  e.mem_doubles_per_update +=
      0.01 * (2.0 + nband) *
      (static_cast<double>(stencil.reads_per_update()) + 1.0);

  // LLC traffic: every time level of the diamond is re-read from the
  // shared cache (that is the point — the group's members hit the LLC,
  // not memory); the caches above it shield a fraction of those reads
  // when they can hold a few planes of the cross-section.
  const double plane_bytes = static_cast<double>(shape.product()) /
                             static_cast<double>(shape[shape.rank() - 1]) *
                             (2.0 + nband) * 8.0;
  double above_bytes = 0.0;
  for (std::size_t lvl = 0; lvl + 1 < machine.caches.size(); ++lvl)
    above_bytes += static_cast<double>(machine.caches[lvl].size_bytes);
  const double shield =
      std::clamp(above_bytes / (4.0 * (2.0 * s + 1.0) * plane_bytes), 0.0, 1.0);
  e.llc_doubles_per_update =
      (static_cast<double>(stencil.reads_per_update()) + 1.0) * (1.0 - 0.45 * shield);
  return e;
}

}  // namespace nustencil::schemes
