#include "schemes/cats_common.hpp"

#include <algorithm>

#include "schemes/run_support.hpp"
#include "thread/barrier.hpp"
#include "thread/spinflag.hpp"

namespace nustencil::schemes {

namespace {

/// Bytes one cell occupies in the moving wavefront: both value buffers
/// plus, for banded stencils, every coefficient band.
double wavefront_doubles_per_cell(const core::StencilSpec& st) {
  return 2.0 + (st.banded() ? static_cast<double>(st.npoints()) : 0.0);
}

/// Tile width along y whose wavefront fits the per-core last-level cache
/// share for chunk depth Tc (>=1; may exceed Ny, callers clamp).
Index fitting_width(const core::Box& updatable, const core::StencilSpec& st,
                    const topology::MachineSpec& machine, long tc) {
  const auto& llc = machine.last_level_cache();
  const double share = static_cast<double>(llc.size_bytes) /
                       static_cast<double>(llc.shared_by_cores);
  const double usable = 0.5 * share;  // safety factor against conflict misses
  const double nx = static_cast<double>(updatable.extent(0));
  const double s = st.order();
  const double planes = static_cast<double>(tc) * s + 2.0 * s + 2.0;
  const double bytes_per_y =
      nx * planes * 8.0 * wavefront_doubles_per_cell(st) / 2.0;
  return std::max<Index>(1, static_cast<Index>(usable / bytes_per_y));
}

}  // namespace

CatsPlan plan_cats(const core::Box& updatable, const core::StencilSpec& stencil,
                   const topology::MachineSpec& machine, int threads, long timesteps,
                   bool numa_aware, int tiles_per_thread) {
  NUSTENCIL_CHECK(updatable.rank() == 3, "CATS/nuCATS support 3D domains");
  const Index ny = updatable.extent(1);
  const Index min_wy = std::max<Index>(2 * stencil.order(), 2);

  // Deepest chunk whose wavefront cross-section is still at least min_wy
  // wide (the paper runs the full 100 steps in one pass when it fits).
  CatsPlan plan;
  plan.chunk = std::max<long>(1, timesteps);
  while (plan.chunk > 1 && fitting_width(updatable, stencil, machine, plan.chunk) < min_wy)
    plan.chunk = plan.chunk / 2;
  plan.wy = std::min<Index>(ny, fitting_width(updatable, stencil, machine, plan.chunk));
  plan.wy = std::max(plan.wy, min_wy);

  const int max_tiles = std::max(1, static_cast<int>(ny / min_wy));
  int tiles = static_cast<int>(ceil_div(ny, plan.wy));
  tiles = std::clamp(tiles, 1, max_tiles);
  // Parallelisation requirement: at least one tile per thread when the
  // domain allows it (CATS round-robins them, nuCATS adjusts below).
  if (tiles < threads) tiles = std::min(max_tiles, threads);

  if (numa_aware) {
    // Section II: make the tile count a multiple of (or equal to) the
    // thread count so that the subdomain <-> tile matching is regular.
    if (tiles >= threads) {
      while (tiles % threads != 0 && tiles < max_tiles) ++tiles;
      if (tiles % threads != 0)
        tiles = std::max(threads, max_tiles / threads * threads);
      if (tiles > max_tiles) tiles = std::min(max_tiles, threads);
    }
    if (tiles < threads) {
      if (max_tiles >= threads) {
        tiles = threads;  // reduce the wavefront until one tile per thread
      } else if (threads % 2 == 0 && max_tiles >= threads / 2) {
        // Reducing the wavefront further than the cache heuristic allows:
        // stop at nthreads/2 tiles and double the tile count by cutting
        // the wavefront-traversal dimension in half instead.
        tiles = threads / 2;
        plan.z_segments = 2;
      } else {
        tiles = max_tiles;  // more threads than usable tiles; oversubscribe
      }
    }
  }
  if (tiles_per_thread > 1 && plan.z_segments == 1) {
    // Refine by an integer multiplier: tile boundaries at ny*t/tiles scale
    // exactly (ny * (m*t) / (m*tiles) == ny*t/tiles), so every thread's
    // owned y-range stays identical to the unrefined plan and only the
    // granularity available to thieves changes.
    int m = tiles_per_thread;
    while (m > 1 && tiles * m > max_tiles) --m;
    tiles *= m;
  }
  plan.tiles_y = tiles;
  plan.wy = ceil_div(ny, tiles);

  for (int zs = 0; zs < plan.z_segments; ++zs) {
    for (int ty = 0; ty < plan.tiles_y; ++ty) {
      core::Box b = updatable;
      b.lo[1] = updatable.lo[1] + ny * ty / tiles;
      b.hi[1] = updatable.lo[1] + ny * (ty + 1) / tiles;
      const Index nz = updatable.extent(2);
      b.lo[2] = updatable.lo[2] + nz * zs / plan.z_segments;
      b.hi[2] = updatable.lo[2] + nz * (zs + 1) / plan.z_segments;
      plan.tiles.push_back(b);
    }
  }

  plan.owner.resize(static_cast<std::size_t>(plan.num_tiles()));
  for (int i = 0; i < plan.num_tiles(); ++i) {
    if (!numa_aware) {
      plan.owner[static_cast<std::size_t>(i)] = i % threads;  // CATS round-robin
    } else if (plan.z_segments == 2) {
      plan.owner[static_cast<std::size_t>(i)] = i;  // one tile per thread
    } else {
      // Contiguous blocks of tiles per thread: the thread whose subdomain
      // contains (most of) the tile owns it.
      const int ty = i % plan.tiles_y;
      plan.owner[static_cast<std::size_t>(i)] =
          static_cast<int>(static_cast<long>(ty) * threads / plan.tiles_y);
    }
  }
  return plan;
}

RunResult run_cats_like(const std::string& scheme_name, bool numa_aware,
                        core::Problem& problem, const RunConfig& config) {
  NUSTENCIL_CHECK(problem.shape().rank() == 3, "CATS/nuCATS support 3D domains");
  NUSTENCIL_CHECK(config.boundary[2] == core::BoundaryKind::Dirichlet,
                  "CATS/nuCATS require a Dirichlet boundary in the wavefront "
                  "traversal dimension (z); time skewing along a periodic axis "
                  "has a cyclic dependence seam");
  RunSupport sup(problem, config);
  const int n = config.num_threads;
  const core::Box updatable =
      core::updatable_box(problem.shape(), problem.stencil(), config.boundary);
  const bool stealing = config.schedule != sched::Schedule::Static;
  // Stealing wants more tiles than threads so a lagging owner has
  // something to give away; 4x is enough granularity without shrinking
  // the wavefront below its cache-fitting width.
  const CatsPlan plan = plan_cats(updatable, problem.stencil(), sup.machine(), n,
                                  config.timesteps, numa_aware,
                                  /*tiles_per_thread=*/stealing ? 4 : 1);
  const int ntiles = plan.num_tiles();
  const int s = problem.stencil().order();

  // Initialisation: nuCATS threads first-touch their own tiles (plus any
  // left-over rows outside the updatable box go to their nearest owner);
  // CATS initialises serially on node 0.
  if (numa_aware) {
    sup.run_workers([&](int tid) {
      for (int i = 0; i < ntiles; ++i) {
        if (plan.owner[static_cast<std::size_t>(i)] != tid) continue;
        core::Box mine = plan.tiles[static_cast<std::size_t>(i)];
        // Extend boundary tiles to cover the frozen Dirichlet rim so that
        // every page is touched by its nearest owner.
        for (int d = 0; d < 3; ++d) {
          if (mine.lo[d] == updatable.lo[d]) mine.lo[d] = 0;
          if (mine.hi[d] == updatable.hi[d]) mine.hi[d] = problem.shape()[d];
        }
        sup.executor(tid).first_touch_box(mine, sup.node_of_thread(tid), config.seed);
      }
    });
  } else {
    sup.serial_init();
  }
  sup.finalize_boundary();

  // One progress counter per tile: code = p_rel * Tc_max + k + 1 after
  // plane (position p, chunk-relative time k) is done.
  std::vector<threading::ProgressCounter> progress(static_cast<std::size_t>(ntiles));
  threading::Barrier barrier(n);
  const Index zlo = updatable.lo[2], zhi = updatable.hi[2];
  const long tc_max = plan.chunk;

  // Stealing state: one (position, chunk-step) cursor per tile.  A task
  // advances its tile while every pipeline input is ready (non-blocking
  // probes of the same progress counters the static path spin-waits on)
  // and re-enqueues itself otherwise, so a thief can never wedge inside
  // a spin-wait for work that sits in its own deque.
  struct TileCursor {
    Index p = 0;
    long k = 0;
  };
  std::vector<TileCursor> cursors(static_cast<std::size_t>(ntiles));
  sched::TaskPool* pool = stealing ? sup.pool() : nullptr;

  Timer timer;
  if (stealing) {
    sup.run_workers([&](int tid) {
      trace::ThreadRecorder* rec = sup.recorder(tid);
      for (long tb = 0; tb < config.timesteps; tb += tc_max) {
        const long tc = std::min<long>(tc_max, config.timesteps - tb);
        sup.probes().set_layer(tb / tc_max);
        const trace::ScopedSpan layer_span(
            rec, trace::Phase::Layer,
            {static_cast<std::int32_t>(tb / tc_max), static_cast<std::int32_t>(tb),
             static_cast<std::int32_t>(tc)});
        const Index p_end = zhi + (tc - 1) * s;  // exclusive
        if (tid == 0) {
          for (auto& c : cursors) c = TileCursor{zlo, 0};
          pool->reset(ntiles, [&](int i) {
            return plan.owner[static_cast<std::size_t>(i)];
          });
        }
        barrier.arrive_and_wait(&sup.abort(), rec);

        // Readiness of plane (p, k) of tile i: the static path's waits,
        // as non-blocking probes — including same-owner neighbours, which
        // the static loop order satisfies implicitly but greedy per-tile
        // cursors do not.
        const auto ready = [&](int i, Index p, long k) {
          const int ty = i % plan.tiles_y;
          const int zs = i / plan.tiles_y;
          if (p - s >= zlo && plan.tiles_y > 1) {
            const long need = (p - s - zlo + 1) * tc_max;
            const int left =
                zs * plan.tiles_y + (ty + plan.tiles_y - 1) % plan.tiles_y;
            const int right = zs * plan.tiles_y + (ty + 1) % plan.tiles_y;
            if (left != i &&
                progress[static_cast<std::size_t>(left)].current() < need)
              return false;
            if (right != i &&
                progress[static_cast<std::size_t>(right)].current() < need)
              return false;
          }
          if (plan.z_segments == 2) {
            const int other = (1 - zs) * plan.tiles_y + ty;
            if (other != i) {
              if (zs == 1 && p - s - 1 >= zlo &&
                  progress[static_cast<std::size_t>(other)].current() <
                      (p - s - zlo) * tc_max)
                return false;
              if (zs == 0 && k > 0 &&
                  progress[static_cast<std::size_t>(other)].current() <
                      (p - zlo) * tc_max + k)
                return false;
            }
          }
          return true;
        };

        pool->run(
            tid,
            [&](int i, int wtid, bool stolen) {
              TileCursor& cur = cursors[static_cast<std::size_t>(i)];
              const core::Box& tile = plan.tiles[static_cast<std::size_t>(i)];
              core::Executor& ex = sup.executor(wtid);
              bool advanced = false;
              while (cur.p < p_end) {
                if (!ready(i, cur.p, cur.k))
                  return advanced ? sched::StepResult::Yield
                                  : sched::StepResult::Blocked;
                const long code_base = (cur.p - zlo) * tc_max;
                const Index z = cur.p - cur.k * s;
                if (z >= tile.lo[2] && z < tile.hi[2]) {
                  core::Box box = tile;
                  box.lo[2] = z;
                  box.hi[2] = z + 1;
                  const Index before = ex.updates_done();
                  ex.update_box(box, tb + cur.k, wtid);
                  if (stolen)
                    pool->add_stolen_updates(wtid, ex.updates_done() - before);
                }
                progress[static_cast<std::size_t>(i)].advance_to(code_base +
                                                                 cur.k + 1);
                advanced = true;
                if (++cur.k >= tc) {
                  progress[static_cast<std::size_t>(i)].advance_to(code_base +
                                                                   tc_max);
                  cur.k = 0;
                  ++cur.p;
                }
              }
              return sched::StepResult::Done;
            },
            &sup.abort(), rec);
        barrier.arrive_and_wait(&sup.abort(), rec);
        if (tb + tc < config.timesteps) {
          if (tid == 0)
            for (auto& c : progress) c.reset();
          barrier.arrive_and_wait(&sup.abort(), rec);
        }
      }
    });
    const double seconds_steal = timer.seconds();
    RunResult r = sup.finish(scheme_name, seconds_steal);
    r.details["chunk"] = static_cast<double>(plan.chunk);
    r.details["tile_width_y"] = static_cast<double>(plan.wy);
    r.details["tiles"] = static_cast<double>(ntiles);
    r.details["z_segments"] = static_cast<double>(plan.z_segments);
    return r;
  }

  sup.run_workers([&](int tid) {
    core::Executor& exec = sup.executor(tid);
    trace::ThreadRecorder* rec = sup.recorder(tid);
    const auto owner_tid = [&](int tile) {
      return plan.owner[static_cast<std::size_t>(tile)];
    };
    std::vector<int> mine;
    for (int i = 0; i < ntiles; ++i)
      if (owner_tid(i) == tid) mine.push_back(i);

    for (long tb = 0; tb < config.timesteps; tb += tc_max) {
      const long tc = std::min<long>(tc_max, config.timesteps - tb);
      sup.probes().set_layer(tb / tc_max);
      const trace::ScopedSpan layer_span(
          rec, trace::Phase::Layer,
          {static_cast<std::int32_t>(tb / tc_max), static_cast<std::int32_t>(tb),
           static_cast<std::int32_t>(tc)});
      const Index p_end = zhi + (tc - 1) * s;  // exclusive
      for (Index p = zlo; p < p_end; ++p) {
        const long code_base = (p - zlo) * tc_max;
        for (long k = 0; k < tc; ++k) {
          for (int i : mine) {
            const core::Box& tile = plan.tiles[static_cast<std::size_t>(i)];
            const int ty = i % plan.tiles_y;
            const int zs = i / plan.tiles_y;
            // Wait for the y-neighbours (periodic ring) to pass p-s.
            if (p - s >= zlo && plan.tiles_y > 1) {
              const long need = (p - s - zlo + 1) * tc_max;
              const int left = zs * plan.tiles_y + (ty + plan.tiles_y - 1) % plan.tiles_y;
              const int right = zs * plan.tiles_y + (ty + 1) % plan.tiles_y;
              if (owner_tid(left) != tid)
                progress[static_cast<std::size_t>(left)].wait_for(
                    need, &sup.abort(), rec, owner_tid(left));
              if (owner_tid(right) != tid)
                progress[static_cast<std::size_t>(right)].wait_for(
                    need, &sup.abort(), rec, owner_tid(right));
            }
            if (plan.z_segments == 2) {
              const int other = (1 - zs) * plan.tiles_y + ty;
              if (owner_tid(other) != tid) {
                if (zs == 1 && p - s - 1 >= zlo) {
                  // The upper segment's plane at (p, k) reads the lower
                  // segment's planes z-j (j = 1..s) of step k-1, which were
                  // updated at positions p-s-j — so the lower segment must
                  // have completed every position through p-s-1.  (For
                  // s = 1 this is the familiar p-2s bound; for higher
                  // orders p-2s alone is insufficient.)
                  progress[static_cast<std::size_t>(other)].wait_for(
                      (p - s - zlo) * tc_max, &sup.abort(), rec, owner_tid(other));
                }
                if (zs == 0 && k > 0) {
                  // Lower segment's top planes read the upper segment's
                  // previous time level at the same position.
                  progress[static_cast<std::size_t>(other)].wait_for(
                      code_base + k, &sup.abort(), rec, owner_tid(other));
                }
              }
            }
            const Index z = p - k * s;
            if (z >= tile.lo[2] && z < tile.hi[2]) {
              core::Box box = tile;
              box.lo[2] = z;
              box.hi[2] = z + 1;
              exec.update_box(box, tb + k, tid);
            }
            progress[static_cast<std::size_t>(i)].advance_to(code_base + k + 1);
          }
        }
        // Publish full-position completion even when the final chunk is
        // shorter than tc_max (the position-level waits above target
        // (p' + 1) * tc_max and would otherwise never be satisfied).
        for (int i : mine)
          progress[static_cast<std::size_t>(i)].advance_to(code_base + tc_max);
      }
      // Chunk boundary: everyone synchronises, then tid 0 resets counters.
      barrier.arrive_and_wait(&sup.abort(), rec);
      if (tb + tc < config.timesteps) {
        if (tid == 0)
          for (auto& c : progress) c.reset();
        barrier.arrive_and_wait(&sup.abort(), rec);
      }
    }
  });
  const double seconds = timer.seconds();

  RunResult r = sup.finish(scheme_name, seconds);
  r.details["chunk"] = static_cast<double>(plan.chunk);
  r.details["tile_width_y"] = static_cast<double>(plan.wy);
  r.details["tiles"] = static_cast<double>(ntiles);
  r.details["z_segments"] = static_cast<double>(plan.z_segments);
  return r;
}

TrafficEstimate estimate_cats_traffic(const topology::MachineSpec& machine,
                                      const Coord& shape, const core::StencilSpec& stencil,
                                      int threads, long timesteps) {
  core::Box updatable;
  updatable.lo = Coord::filled(3, 0);
  updatable.hi = shape;
  updatable.lo[2] += stencil.order();
  updatable.hi[2] -= stencil.order();
  const CatsPlan plan =
      plan_cats(updatable, stencil, machine, threads, timesteps, /*numa_aware=*/true);

  const double s = stencil.order();
  const double tc = static_cast<double>(plan.chunk);
  const double nband = stencil.banded() ? static_cast<double>(stencil.npoints()) : 0.0;
  // Per chunk pass every cell is read and written once from memory, and
  // the bands are streamed once; tile boundaries reload a halo of width s
  // from each y-neighbour per position.
  const double halo = 2.0 * s / static_cast<double>(plan.wy);
  TrafficEstimate e;
  e.mem_doubles_per_update = (2.0 + nband) / tc * (1.0 + halo) + 2.0 * halo / tc;
  // Associativity conflict leak: the wavefront interleaves 2 + nband
  // streaming arrays, and cross-interference grows roughly quadratically
  // with the stream count.  This is what pulls the banded nuCATS down
  // towards SysBandIC (Section IV-E) while leaving the constant case
  // cache-bound.
  e.mem_doubles_per_update += 0.05 * (2.0 + nband) * (2.0 + nband);
  // The moving wavefront spans ~Tc*s planes; as that approaches the depth
  // of the traversal dimension, ramp-up/drain and conflict pressure reduce
  // the effective cache bandwidth (calibrated against Figs. 6-9: nuCATS
  // tracks LL1Band0C on deep domains and falls off on shallow ones).
  const double depth = static_cast<double>(shape[2]);
  const double skew = 1.0 + 0.5 * tc * s / depth;
  e.llc_doubles_per_update =
      (static_cast<double>(stencil.reads_per_update()) + 1.0) * skew;
  (void)machine;
  return e;
}

}  // namespace nustencil::schemes
