#include "probes.hpp"

#include <algorithm>
#include <functional>
#include <thread>
#include <vector>

#include "common/stats.hpp"
#include "common/timer.hpp"
#include "core/executor.hpp"
#include "thread/barrier.hpp"
#include "thread/spinflag.hpp"
#include "thread/team.hpp"

namespace ladderbench {

namespace core = nustencil::core;
namespace threading = nustencil::threading;
using nustencil::Coord;
using nustencil::Index;
using nustencil::median;
using nustencil::Timer;

namespace {

/// Runs fn on a thread pinned to `core` and waits for it: the probes
/// measure the same core worker 0 of a solve runs on.
void run_pinned(int core, const std::function<void()>& fn) {
  std::thread worker([&] {
    threading::pin_self_to_core(core);
    fn();
  });
  worker.join();
}

/// Runs a(…) on core 0 and b(…) on core 1 concurrently.
void run_pair(const std::function<void()>& a, const std::function<void()>& b) {
  std::thread ta([&] {
    threading::pin_self_to_core(0);
    a();
  });
  std::thread tb([&] {
    threading::pin_self_to_core(1);
    b();
  });
  ta.join();
  tb.join();
}

}  // namespace

double kernel_row_gups(const Inputs& in, const core::KernelChoice& choice) {
  const Index nx = in.shape[0];
  constexpr Index kSide = 6;  // a 6x6 stack of rows stays in L2
  core::Problem slab(Coord{nx, kSide, kSide}, core::StencilSpec::paper_3d7p());
  slab.initialize(in.seed);
  const core::StencilSpec& st = slab.stencil();
  const Index sy = slab.buffer(0).strides()[1];
  const Index sz = slab.buffer(0).strides()[2];
  const Index s = st.order();

  core::KernelArgs ka;
  ka.dst = slab.buffer(1).data();
  ka.src = slab.buffer(0).data();
  ka.coeffs = st.coeffs().data();
  ka.ntaps = st.npoints();
  ka.xcap = slab.buffer(0).xstride();

  // Interior rows only, over the x range the executor's fast path covers.
  std::vector<std::vector<Index>> bases;
  std::vector<Index> rows;
  for (Index z = s; z < kSide - s; ++z)
    for (Index y = s; y < kSide - s; ++y) {
      const Index row = y * sy + z * sz;
      std::vector<Index> b;
      for (const core::StencilPoint& p : st.points()) {
        const Index stride = p.dim == 1 ? sy : p.dim == 2 ? sz : 1;
        b.push_back(row + p.offset * stride);
      }
      rows.push_back(row);
      bases.push_back(std::move(b));
    }
  const Index per_pass = static_cast<Index>(rows.size()) * (nx - 2 * s);

  const auto batch_seconds = [&](Index passes) {
    const Timer timer;
    for (Index p = 0; p < passes; ++p)
      for (std::size_t r = 0; r < rows.size(); ++r)
        choice.fn(ka, bases[r].data(), rows[r], s, nx - s);
    return timer.seconds();
  };
  std::vector<double> rates;
  run_pinned(0, [&] {
    // Size a batch to about 5 ms, then keep 15 batches.
    Index passes = 1;
    while (batch_seconds(passes) < 5e-3) passes *= 2;
    for (int batch = 0; batch < 15; ++batch)
      rates.push_back(static_cast<double>(passes * per_pass) / batch_seconds(passes) * 1e-9);
  });
  return median(rates);
}

ExecutorRates executor_rates(const Inputs& in, Index tile_width_y) {
  ExecutorRates out;
  std::vector<double> sweep, tile;
  run_pinned(0, [&] {
    const Timer t0;
    core::Problem problem(in.shape, core::StencilSpec::paper_3d7p());
    out.alloc_s = t0.seconds();
    const Timer t1;
    problem.initialize(in.seed);
    out.init_s = t1.seconds();

    core::Executor exec(problem);
    core::Box domain;
    domain.lo = Coord{0, 0, 0};
    domain.hi = in.shape;
    const Index ny = in.shape[1], nz = in.shape[2];
    const Index wy = std::clamp<Index>(tile_width_y, 1, ny);
    for (long t = 0; t < in.steps; ++t) {
      const Timer ts;
      const Index n = exec.update_box(domain, t, 0);
      sweep.push_back(static_cast<double>(n) / ts.seconds() * 1e-9);
    }
    for (long t = in.steps; t < 2 * in.steps; ++t) {
      const Timer ts;
      Index n = 0;
      for (Index y0 = 0; y0 < ny; y0 += wy)
        for (Index z = 0; z < nz; ++z) {
          core::Box box;
          box.lo = Coord{0, y0, z};
          box.hi = Coord{in.shape[0], std::min(y0 + wy, ny), z + 1};
          n += exec.update_box(box, t, 0);
        }
      tile.push_back(static_cast<double>(n) / ts.seconds() * 1e-9);
    }
  });
  out.sweep_gups = median(sweep);
  out.tile_gups = median(tile);
  return out;
}

double barrier_round_trip_ns() {
  constexpr int kTrips = 20000;
  threading::Barrier barrier(2);
  double seconds = 0.0;
  const auto side = [&](bool timed) {
    const Timer t0;
    for (int i = 0; i < kTrips; ++i) barrier.arrive_and_wait();
    if (timed) seconds = t0.seconds();
  };
  run_pair([&] { side(true); }, [&] { side(false); });
  return seconds / kTrips * 1e9;
}

double progress_round_trip_ns() {
  constexpr long kTrips = 20000;
  threading::ProgressCounter ping, pong;
  double seconds = 0.0;
  run_pair(
      [&] {
        const Timer t0;
        for (long i = 1; i <= kTrips; ++i) {
          ping.advance_to(i);
          pong.wait_for(i);
        }
        seconds = t0.seconds();
      },
      [&] {
        for (long i = 1; i <= kTrips; ++i) {
          ping.wait_for(i);
          pong.advance_to(i);
        }
      });
  return seconds / static_cast<double>(kTrips) * 1e9;
}

double triad_gibps(Index elements, int threads) {
  const auto n = static_cast<std::size_t>(elements);
  std::vector<double> a(n), b(n), c(n);
  threading::Team team(threads, /*pin=*/true);
  const auto chunk = [&](int tid, Index& lo, Index& hi) {
    lo = elements * tid / threads;
    hi = elements * (tid + 1) / threads;
  };
  team.run([&](int tid) {
    Index lo = 0, hi = 0;
    chunk(tid, lo, hi);
    for (Index i = lo; i < hi; ++i) {
      b[i] = 1.0 + static_cast<double>(i % 7);
      c[i] = 2.0;
    }
  });
  const double scalar = 0.5;
  std::vector<double> rates;
  const Timer start;
  while (rates.size() < 5 || (rates.size() < 50 && start.seconds() < 0.5)) {
    const Timer t0;
    team.run([&](int tid) {
      Index lo = 0, hi = 0;
      chunk(tid, lo, hi);
      for (Index i = lo; i < hi; ++i) a[i] = b[i] + scalar * c[i];
    });
    rates.push_back(24.0 * static_cast<double>(elements) / t0.seconds() /
                    (1024.0 * 1024.0 * 1024.0));
  }
  // Read the result back so the stores cannot be elided.
  volatile double sink = a[n / 2];
  (void)sink;
  return median(rates);
}

}  // namespace ladderbench
