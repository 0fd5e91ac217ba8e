// Region executor: kernels (scalar vs SSE2), periodic wrap in virtual
// coordinates, stencil/field plumbing, and the reference runner.
#include <gtest/gtest.h>

#include <set>

#include "core/executor.hpp"
#include "core/reference.hpp"

namespace nustencil::core {
namespace {

Box whole(const Coord& shape) {
  Box b;
  b.lo = Coord::filled(shape.rank(), 0);
  b.hi = shape;
  return b;
}

TEST(StencilSpec, TapCountsAndFlops) {
  EXPECT_EQ(StencilSpec::paper_3d7p().npoints(), 7);
  EXPECT_EQ(StencilSpec::paper_3d7p().flops(), 13);   // Section IV-B
  EXPECT_EQ(StencilSpec::stable_star(3, 2).npoints(), 13);
  EXPECT_EQ(StencilSpec::stable_star(3, 2).flops(), 25);   // Section IV-F
  EXPECT_EQ(StencilSpec::stable_star(3, 3).npoints(), 19);
  EXPECT_EQ(StencilSpec::stable_star(3, 3).flops(), 37);
  EXPECT_EQ(StencilSpec::banded_star(3, 1).reads_per_update(), 14);  // 7 + 7
}

TEST(StencilSpec, CoefficientsSumToOne) {
  for (int rank = 1; rank <= 3; ++rank)
    for (int order = 1; order <= 3; ++order) {
      const StencilSpec st = StencilSpec::stable_star(rank, order);
      double sum = 0.0;
      for (double c : st.coeffs()) sum += c;
      EXPECT_NEAR(sum, 1.0, 1e-12);
    }
}

TEST(Problem, BandRowsSumToOne) {
  Problem p(Coord{8, 6, 5}, StencilSpec::banded_star(3, 1));
  p.initialize();
  for (Index i = 0; i < p.volume(); ++i) {
    double sum = 0.0;
    for (int tap = 0; tap < 7; ++tap) sum += p.band(tap).data()[i];
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(Problem, FillRowMatchesInitialize) {
  Problem a(Coord{16, 4, 3}, StencilSpec::paper_3d7p());
  Problem b(Coord{16, 4, 3}, StencilSpec::paper_3d7p());
  a.initialize(7);
  for (Index i = 0; i < b.volume(); i += 16) b.fill_row(i, i + 16, 7);
  EXPECT_DOUBLE_EQ(max_rel_diff(a.buffer(0), b.buffer(0)), 0.0);
}

TEST(Executor, SimdMatchesScalarExactly) {
  for (const bool banded : {false, true}) {
    const StencilSpec st =
        banded ? StencilSpec::banded_star(3, 1) : StencilSpec::paper_3d7p();
    Problem a(Coord{33, 7, 5}, st);  // odd extent exercises the SSE2 tail
    Problem b(Coord{33, 7, 5}, st);
    a.initialize();
    b.initialize();
    Executor ea(a, {}, KernelPolicy::Auto);
    Executor eb(b, {}, KernelPolicy::Scalar);
    for (long t = 0; t < 3; ++t) {
      ea.update_box(whole(a.shape()), t, 0);
      eb.update_box(whole(b.shape()), t, 0);
    }
    EXPECT_LE(max_rel_diff(a.buffer(3), b.buffer(3)), 1e-15) << "banded=" << banded;
  }
}

TEST(RowSplit, DisjointAndCoversEverySegment) {
  // Every (a, b) segment of every domain width, stencil orders 1..4:
  // the three ranges must be ordered, disjoint, and cover [a, b) exactly
  // once — including tiny domains with nx < 2*order, where the old split
  // double-computed the overlap of the two boundary ranges.
  for (Index nx = 1; nx <= 12; ++nx)
    for (int s = 1; s <= 4; ++s)
      for (Index a = 0; a < nx; ++a)
        for (Index b = a; b <= nx; ++b) {
          const RowSplit r = compute_row_split(a, b, nx, s);
          ASSERT_LE(r.lo0, r.lo1);
          ASSERT_LE(r.lo1, r.fast0);
          ASSERT_LE(r.fast0, r.fast1);
          ASSERT_LE(r.fast1, r.hi0);
          ASSERT_LE(r.hi0, r.hi1);
          const Index covered =
              (r.lo1 - r.lo0) + (r.fast1 - r.fast0) + (r.hi1 - r.hi0);
          ASSERT_EQ(covered, b - a) << "a=" << a << " b=" << b << " nx=" << nx
                                    << " s=" << s;
          ASSERT_EQ(r.lo0, a);
          ASSERT_EQ(r.hi1, b);
          // Fast cells must be at least `s` away from both edges.
          if (r.fast0 < r.fast1) {
            ASSERT_GE(r.fast0, s);
            ASSERT_LE(r.fast1, nx - s);
          }
        }
}

TEST(Executor, TinyDomainMatchesBruteForce) {
  // Smallest legal domain (nx = 2*order + 1, Problem forbids anything
  // smaller): the boundary ranges leave a single interior column; every
  // cell must match a hand-rolled pmod sweep.  Domains below 2*order —
  // where the old split double-computed the overlap — are covered by the
  // exhaustive RowSplit test above.
  const StencilSpec st = StencilSpec::stable_star(3, 2);
  Problem p(Coord{5, 5, 5}, st);
  p.initialize();
  const std::vector<double> before(p.buffer(0).data(),
                                   p.buffer(0).data() + p.volume());
  Executor e(p);
  EXPECT_EQ(e.update_box(whole(p.shape()), 0, 0), 125);
  auto at = [&](Index x, Index y, Index z) {
    return before[static_cast<std::size_t>(pmod(x, 5) + 5 * (pmod(y, 5) + 5 * pmod(z, 5)))];
  };
  const auto& pts = st.points();
  const auto& cs = st.coeffs();
  for (Index z = 0; z < 5; ++z)
    for (Index y = 0; y < 5; ++y)
      for (Index x = 0; x < 5; ++x) {
        double acc = 0.0;
        for (std::size_t k = 0; k < pts.size(); ++k) {
          Index xx = x, yy = y, zz = z;
          if (pts[k].dim == 0) xx += pts[k].offset;
          if (pts[k].dim == 1) yy += pts[k].offset;
          if (pts[k].dim == 2) zz += pts[k].offset;
          acc += cs[k] * at(xx, yy, zz);
        }
        EXPECT_NEAR(p.buffer(1).at(Coord{x, y, z}), acc, 1e-15);
      }
}

TEST(Executor, PeriodicWrapIsExact) {
  // One step on a tiny domain, checked against a hand-rolled pmod sweep.
  Problem p(Coord{4, 3, 3}, StencilSpec::paper_3d7p());
  p.initialize();
  const std::vector<double> before(p.buffer(0).data(),
                                   p.buffer(0).data() + p.volume());
  Executor e(p);
  e.update_box(whole(p.shape()), 0, 0);
  const auto& c = p.stencil().coeffs();
  auto at = [&](Index x, Index y, Index z) {
    return before[static_cast<std::size_t>(pmod(x, 4) + 4 * (pmod(y, 3) + 3 * pmod(z, 3)))];
  };
  for (Index z = 0; z < 3; ++z)
    for (Index y = 0; y < 3; ++y)
      for (Index x = 0; x < 4; ++x) {
        const double expect = c[0] * at(x, y, z) + c[1] * at(x - 1, y, z) +
                              c[2] * at(x + 1, y, z) + c[3] * at(x, y - 1, z) +
                              c[4] * at(x, y + 1, z) + c[5] * at(x, y, z - 1) +
                              c[6] * at(x, y, z + 1);
        EXPECT_NEAR(p.buffer(1).at(Coord{x, y, z}), expect, 1e-15);
      }
}

TEST(Executor, VirtualBoxWrapsToSameResult) {
  // Updating [0,N) and updating the shifted virtual window [k, N+k) must
  // produce identical physical results.
  Problem a(Coord{12, 6, 5}, StencilSpec::paper_3d7p());
  Problem b(Coord{12, 6, 5}, StencilSpec::paper_3d7p());
  a.initialize();
  b.initialize();
  Executor ea(a), eb(b);
  ea.update_box(whole(a.shape()), 0, 0);
  Box shifted = whole(b.shape());
  for (int d = 0; d < 3; ++d) {
    shifted.lo[d] += 5 + d;
    shifted.hi[d] += 5 + d;
  }
  eb.update_box(shifted, 0, 0);
  EXPECT_DOUBLE_EQ(max_rel_diff(a.buffer(1), b.buffer(1)), 0.0);
}

TEST(Executor, SplitBoxesEqualWholeBox) {
  Problem a(Coord{16, 8, 8}, StencilSpec::paper_3d7p());
  Problem b(Coord{16, 8, 8}, StencilSpec::paper_3d7p());
  a.initialize();
  b.initialize();
  Executor ea(a), eb(b);
  ea.update_box(whole(a.shape()), 0, 0);
  for (Index z = 0; z < 8; z += 4)
    for (Index y = 0; y < 8; y += 2) {
      Box part;
      part.lo = Coord{0, y, z};
      part.hi = Coord{16, y + 2, z + 4};
      eb.update_box(part, 0, 0);
    }
  EXPECT_DOUBLE_EQ(max_rel_diff(a.buffer(1), b.buffer(1)), 0.0);
  EXPECT_EQ(ea.updates_done(), eb.updates_done());
}

TEST(Executor, UpdateCountAndEmptyBox) {
  Problem p(Coord{10, 5, 4}, StencilSpec::paper_3d7p());
  p.initialize();
  Executor e(p);
  EXPECT_EQ(e.update_box(whole(p.shape()), 0, 0), 200);
  Box empty = whole(p.shape());
  empty.hi[1] = empty.lo[1];
  EXPECT_EQ(e.update_box(empty, 1, 0), 0);
}

TEST(Executor, DependencyCheckerCatchesOutOfOrderUpdate) {
  Problem p(Coord{8, 5, 5}, StencilSpec::paper_3d7p());
  p.initialize();
  DependencyChecker checker(p.volume());
  Instrumentation instr;
  instr.checker = &checker;
  Executor e(p, instr);
  e.update_box(whole(p.shape()), 0, 0);
  // Re-running the same step would update cells already at t=1 from t=0.
  EXPECT_THROW(e.update_box(whole(p.shape()), 0, 0), Error);
}

TEST(Executor, DependencyCheckerCatchesSkippedStep) {
  Problem p(Coord{8, 5, 5}, StencilSpec::paper_3d7p());
  p.initialize();
  DependencyChecker checker(p.volume());
  Instrumentation instr;
  instr.checker = &checker;
  Executor e(p, instr);
  // Jumping straight to t=1 without computing t=0 must trip the checker.
  EXPECT_THROW(e.update_box(whole(p.shape()), 1, 0), Error);
}

TEST(Executor, TrafficAccountingCoversAllFields) {
  const auto machine = topology::xeonX7550();
  numa::PageTable pages(256);
  numa::VirtualTopology topo(machine);
  prof::Probes probes(1);
  numa::TrafficRecorder recorder(pages, topo, probes);
  Problem p(Coord{16, 6, 5}, StencilSpec::banded_star(3, 1));
  p.attach(pages);
  Instrumentation instr;
  instr.pages = &pages;
  instr.traffic = &recorder;
  Executor e(p, instr);
  e.first_touch_box(whole(p.shape()), 0, 42);
  e.update_box(whole(p.shape()), 0, 0);
  const auto stats = recorder.collect();
  // Accounting records unique touched bytes per row: destination row,
  // extended centre source row, 4 off-axis neighbour rows, 7 band rows —
  // at least ~13 doubles per update on this shape.
  EXPECT_GE(stats.total_bytes(), static_cast<std::uint64_t>(p.volume()) * 13 * 8);
  EXPECT_DOUBLE_EQ(stats.locality(), 1.0);  // single node owns everything
}

TEST(Reference, HighOrderAgainstBruteForce2D) {
  // Order-2 2D stencil vs a straightforward double-loop implementation.
  const StencilSpec st = StencilSpec::stable_star(2, 2);
  Problem p(Coord{9, 7}, st);
  p.initialize();
  const std::vector<double> u0(p.buffer(0).data(), p.buffer(0).data() + p.volume());
  reference_run(p, 1);
  auto at = [&](Index x, Index y) {
    return u0[static_cast<std::size_t>(pmod(x, 9) + 9 * pmod(y, 7))];
  };
  const auto& pts = st.points();
  const auto& cs = st.coeffs();
  for (Index y = 0; y < 7; ++y)
    for (Index x = 0; x < 9; ++x) {
      double acc = 0.0;
      for (std::size_t k = 0; k < pts.size(); ++k) {
        Index xx = x, yy = y;
        if (pts[k].dim == 0) xx += pts[k].offset;
        if (pts[k].dim == 1) yy += pts[k].offset;
        acc += cs[k] * at(xx, yy);
      }
      EXPECT_NEAR(p.buffer(1).at(Coord{x, y}), acc, 1e-15);
    }
}

}  // namespace
}  // namespace nustencil::core
