#include "core/executor.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace nustencil::core {

RowSplit compute_row_split(Index a, Index b, Index nx, int order) {
  const Index s = order;
  RowSplit r{};
  r.lo0 = a;
  // Clamp against `a` (segments can start past the boundary region) and
  // against `b` (tiny domains with nx < 2s, where the two boundary
  // regions meet — without the clamp they would overlap and every cell
  // in the overlap would be updated twice).
  r.lo1 = std::min(b, std::max(a, s));
  r.fast0 = std::max(a, s);
  r.fast1 = std::min(b, nx - s);
  if (r.fast1 < r.fast0) r.fast0 = r.fast1 = r.lo1;
  r.hi0 = std::min(b, std::max(nx - s, r.lo1));
  r.hi1 = b;
  return r;
}

struct Executor::RowPlan {
  Index x0v = 0, x1v = 0;       ///< virtual x range
  Index src_row = 0;            ///< physical base of the centre source row
  Index dst_row = 0;            ///< physical base of the destination row
  std::array<Index, kMaxTaps> base{};  ///< per-tap src row base, x-offset folded
};

KernelRequest kernel_request_for(const StencilSpec& stencil) {
  KernelRequest req;
  req.ntaps = stencil.npoints();
  req.banded = stencil.banded();
  req.rank = stencil.rank();
  req.order = stencil.order();
  return req;
}

Executor::Executor(Problem& problem, Instrumentation instr, KernelPolicy policy)
    : problem_(&problem), instr_(instr) {
  const Coord& shape = problem.shape();
  const StencilSpec& st = problem.stencil();
  NUSTENCIL_CHECK(st.order() <= kMaxOrder, "Executor: order too large");
  nx_ = shape[0];
  ny_ = shape.rank() >= 2 ? shape[1] : 1;
  nz_ = shape.rank() >= 3 ? shape[2] : 1;
  const Field& f0 = problem.buffer(0);
  sy_ = shape.rank() >= 2 ? f0.strides()[1] : f0.xstride();
  sz_ = shape.rank() >= 3 ? f0.strides()[2] : sy_ * ny_;
  kernel_ = select_kernel(policy, kernel_request_for(st));
  if (st.banded())
    for (int p = 0; p < st.npoints(); ++p)
      band_ptrs_[static_cast<std::size_t>(p)] = problem.band(p).data();
  if (instr_.metrics) {
    metrics::Registry& reg = *instr_.metrics;
    m_tiles_ = &reg.counter("kernel/tiles");
    m_fast_rows_ = &reg.counter("kernel/rows/" + kernel_.name());
    m_slow_cells_ = &reg.counter("kernel/slow_cells");
    m_tile_hist_ = &reg.histogram("kernel/tile_updates");
  }
}

Index Executor::update_box(const Box& box, long t, int tid) {
  if (box.empty()) return 0;
  const int rank = problem_->shape().rank();
  NUSTENCIL_DCHECK(box.rank() == rank, "update_box: rank mismatch");
  const trace::ScopedSpan span(
      trace_, trace::Phase::Tile,
      {static_cast<std::int32_t>(box.lo[0]),
       static_cast<std::int32_t>(rank >= 2 ? box.lo[1] : -1),
       static_cast<std::int32_t>(rank >= 3 ? box.lo[2] : -1), tid});

  const Index lo0 = box.lo[0], hi0 = box.hi[0];
  const Index lo1 = rank >= 2 ? box.lo[1] : 0, hi1 = rank >= 2 ? box.hi[1] : 1;
  const Index lo2 = rank >= 3 ? box.lo[2] : 0, hi2 = rank >= 3 ? box.hi[2] : 1;
  NUSTENCIL_DCHECK(hi0 - lo0 <= nx_ && hi1 - lo1 <= ny_ && hi2 - lo2 <= nz_,
                   "update_box: box wider than the periodic domain");

  const StencilSpec& st = problem_->stencil();
  const auto& points = st.points();
  const int ntaps = st.npoints();

  // Per-sweep kernel context: buffer pointers, coefficients and band
  // pointers hoisted out of the row loop once per update_box call.
  KernelArgs ka;
  ka.dst = problem_->buffer(t + 1).data();
  ka.src = problem_->buffer(t).data();
  ka.coeffs = st.coeffs().data();
  ka.bands = band_ptrs_.data();
  ka.ntaps = ntaps;

  RowPlan plan;
  plan.x0v = lo0;
  plan.x1v = hi0;
  Index done = 0;

  // The legacy baseline (KernelPolicy::GenericSimd) reproduces the
  // pre-engine update path end to end — a pmod (integer division) per
  // off-axis tap per row here, plus the per-row context rebuild in
  // update_row — so the benchmarked speedup tracks the whole engine, not
  // just the inner loop.
  const bool legacy = kernel_.variant == KernelVariant::Legacy;

  // Incremental periodic row indices: `pmod` runs once per z-plane and
  // per tap at loop entry; inside the y loop every index steps by +1
  // with a wrap compare instead.
  std::array<Index, kMaxTaps> ybase{};  // dim-1 taps: pmod(py + off, ny)
  std::array<Index, kMaxTaps> zbase{};  // dim-2 taps: pmod(pz + off, nz) * sz

  for (Index vz = lo2; vz < hi2; ++vz) {
    const Index pz = pmod(vz, nz_);
    const Index zrow = pz * sz_;
    Index py = pmod(lo1, ny_);
    for (int p = 0; p < ntaps; ++p) {
      const StencilPoint& pt = points[static_cast<std::size_t>(p)];
      if (pt.dim == 1)
        ybase[static_cast<std::size_t>(p)] = pmod(py + pt.offset, ny_);
      else if (pt.dim == 2)
        zbase[static_cast<std::size_t>(p)] = pmod(pz + pt.offset, nz_) * sz_;
    }
    for (Index vy = lo1; vy < hi1; ++vy) {
      const Index row = py * sy_ + zrow;
      plan.src_row = row;
      plan.dst_row = row;
      if (legacy) {
        const Index pyl = pmod(vy, ny_);
        for (int p = 0; p < ntaps; ++p) {
          const StencilPoint& pt = points[static_cast<std::size_t>(p)];
          Index base = row;
          if (pt.dim == 1)
            base = pmod(pyl + pt.offset, ny_) * sy_ + zrow;
          else if (pt.dim == 2)
            base = pyl * sy_ + pmod(pz + pt.offset, nz_) * sz_;
          else
            base = row + pt.offset;
          plan.base[static_cast<std::size_t>(p)] = base;
        }
      } else {
        for (int p = 0; p < ntaps; ++p) {
          const StencilPoint& pt = points[static_cast<std::size_t>(p)];
          Index base;
          if (pt.dim == 1) {
            base = ybase[static_cast<std::size_t>(p)] * sy_ + zrow;
          } else if (pt.dim == 2) {
            base = py * sy_ + zbase[static_cast<std::size_t>(p)];
          } else {
            base = row + pt.offset;  // centre and folded x taps
          }
          plan.base[static_cast<std::size_t>(p)] = base;
        }
      }
      update_row(plan, ka, t, tid);
      if (instr_.traffic || instr_.cache_sim) account_row(plan, t, tid);
      done += hi0 - lo0;
      if (++py == ny_) py = 0;
      for (int p = 0; p < ntaps; ++p) {
        if (points[static_cast<std::size_t>(p)].dim != 1) continue;
        if (++ybase[static_cast<std::size_t>(p)] == ny_)
          ybase[static_cast<std::size_t>(p)] = 0;
      }
    }
  }
  trace::single_writer_add(probe_->updates, static_cast<std::uint64_t>(done));
  if (m_tiles_) {
    m_tiles_->add(tid);
    m_tile_hist_->observe(tid, static_cast<std::uint64_t>(done));
  }
  if (instr_.traffic) instr_.traffic->tick_updates(tid);
  return done;
}

void Executor::update_row(const RowPlan& plan, const KernelArgs& ka0, long t,
                          int tid) {
  const StencilSpec& st = problem_->stencil();
  const auto& points = st.points();
  const int ntaps = ka0.ntaps;
  const int s = st.order();

  // Legacy baseline: re-derive the kernel context per row (buffer
  // pointers, coefficients, band pointer table — including the old
  // code's unconditional zero-init of the full-size table), as the
  // pre-engine update_row did.
  KernelArgs legacy_ka;
  std::array<const double*, kMaxTaps> legacy_bands;
  if (kernel_.variant == KernelVariant::Legacy) {
    legacy_bands.fill(nullptr);
    legacy_ka.dst = problem_->buffer(t + 1).data();
    legacy_ka.src = problem_->buffer(t).data();
    legacy_ka.coeffs = st.coeffs().data();
    legacy_ka.ntaps = ntaps;
    if (st.banded()) {
      for (int p = 0; p < ntaps; ++p)
        legacy_bands[static_cast<std::size_t>(p)] = problem_->band(p).data();
      legacy_ka.bands = legacy_bands.data();
    }
  }
  const KernelArgs& ka =
      kernel_.variant == KernelVariant::Legacy ? legacy_ka : ka0;
  double* dst = ka.dst;
  const double* src = ka.src;

  // Fully checked + wrapped scalar loop, used for boundary cells and for
  // every cell when the dependency checker is active.
  auto slow_cells = [&](Index a, Index b) {
    if (m_slow_cells_ && b > a)
      m_slow_cells_->add(tid, static_cast<std::uint64_t>(b - a));
    for (Index x = a; x < b; ++x) {
      const Index cell = plan.dst_row + x;
      double acc = 0.0;
      for (int p = 0; p < ntaps; ++p) {
        const StencilPoint& pt = points[static_cast<std::size_t>(p)];
        Index idx;
        if (pt.dim == 0) {
          idx = plan.src_row + pmod(x + pt.offset, nx_);
        } else {
          idx = plan.base[static_cast<std::size_t>(p)] + x;
        }
        if (instr_.checker) instr_.checker->check_input(idx, t);
        const double c = st.banded()
                             ? band_ptrs_[static_cast<std::size_t>(p)][cell]
                             : ka.coeffs[static_cast<std::size_t>(p)];
        acc += c * src[idx];
      }
      if (instr_.checker) instr_.checker->commit_update(cell, t);
      dst[cell] = acc;
    }
  };

  // Walk the virtual x range in physical segments.
  Index vx = plan.x0v;
  while (vx < plan.x1v) {
    const Index px = pmod(vx, nx_);
    const Index len = std::min(plan.x1v - vx, nx_ - px);
    const Index a = px, b = px + len;
    if (instr_.checker) {
      slow_cells(a, b);
    } else {
      const RowSplit sp = compute_row_split(a, b, nx_, s);
      slow_cells(sp.lo0, sp.lo1);
      if (sp.fast0 < sp.fast1) {
        kernel_.fn(ka, plan.base.data(), plan.dst_row, sp.fast0, sp.fast1);
        if (m_fast_rows_) m_fast_rows_->add(tid);
      }
      slow_cells(sp.hi0, sp.hi1);
    }
    vx += len;
  }
}

void Executor::account_row(const RowPlan& plan, long t, int tid) {
  const StencilSpec& st = problem_->stencil();
  const auto& points = st.points();
  const int ntaps = st.npoints();
  const int s = st.order();

  const Field& srcf = problem_->buffer(t);
  const Field& dstf = problem_->buffer(t + 1);
  const bool record = instr_.traffic && srcf.attached();

  // One sink for both consumers: the NUMA traffic recorder (classifies
  // the range against first-touch page ownership) and the trace-driven
  // cache simulator (fed the real data addresses).
  auto sink = [&](const Field& field, Index e0, Index e1, bool write) {
    if (e0 >= e1) return;
    if (record)
      instr_.traffic->account(tid, field.region(), Field::byte_of(e0), Field::byte_of(e1));
    if (instr_.cache_sim)
      instr_.cache_sim->access(
          tid, reinterpret_cast<cachesim::Addr>(field.data() + e0), (e1 - e0) * 8, write);
  };

  Index vx = plan.x0v;
  while (vx < plan.x1v) {
    const Index px = pmod(vx, nx_);
    const Index len = std::min(plan.x1v - vx, nx_ - px);
    const Index a = px, b = px + len;
    // Destination row bytes.
    sink(dstf, plan.dst_row + a, plan.dst_row + b, true);
    // Centre source row, extended by the x taps (clamped at the domain edge;
    // the wrapped spill is at most `s` elements and negligible).
    sink(srcf, plan.src_row + std::max<Index>(0, a - s),
         plan.src_row + std::min<Index>(nx_, b + s), false);
    // Each distinct off-axis neighbour row.
    for (int p = 0; p < ntaps; ++p) {
      const StencilPoint& pt = points[static_cast<std::size_t>(p)];
      if (pt.dim <= 0) continue;
      const Index base = plan.base[static_cast<std::size_t>(p)];
      sink(srcf, base + a, base + b, false);
    }
    // Coefficient bands at the destination cells.
    if (st.banded()) {
      for (int p = 0; p < ntaps; ++p)
        sink(problem_->band(p), plan.dst_row + a, plan.dst_row + b, false);
    }
    vx += len;
  }
}

void Executor::first_touch_box(const Box& box, int node, unsigned seed) {
  if (box.empty()) return;
  const trace::ScopedSpan span(trace_, trace::Phase::Init,
                               {static_cast<std::int32_t>(box.lo[0]),
                                static_cast<std::int32_t>(box.rank() >= 2 ? box.lo[1] : -1),
                                static_cast<std::int32_t>(box.rank() >= 3 ? box.lo[2] : -1),
                                node});
  const int rank = problem_->shape().rank();
  const Index lo0 = box.lo[0], hi0 = box.hi[0];
  const Index lo1 = rank >= 2 ? box.lo[1] : 0, hi1 = rank >= 2 ? box.hi[1] : 1;
  const Index lo2 = rank >= 3 ? box.lo[2] : 0, hi2 = rank >= 3 ? box.hi[2] : 1;
  NUSTENCIL_CHECK(lo0 >= 0 && hi0 <= nx_ && lo1 >= 0 && hi1 <= ny_ && lo2 >= 0 && hi2 <= nz_,
                  "first_touch_box: physical coordinates required");

  for (Index z = lo2; z < hi2; ++z) {
    for (Index y = lo1; y < hi1; ++y) {
      const Index row = y * sy_ + z * sz_;
      problem_->fill_row(row + lo0, row + hi0, seed);
      if (instr_.pages && problem_->buffer(0).attached()) {
        // Page-start rule: a page straddling two init tiles goes to the
        // owner of its first byte, deterministically, because the tiles'
        // row ranges are disjoint and cover the region (the overlap rule
        // would hand straddling pages to whichever thread touched first).
        numa::PageTable& table = *instr_.pages;
        const Index b0 = Field::byte_of(row + lo0);
        const Index b1 = Field::byte_of(row + hi0);
        table.first_touch_page_start(problem_->buffer(0).region(), b0, b1, node);
        table.first_touch_page_start(problem_->buffer(1).region(), b0, b1, node);
        if (problem_->has_bands()) {
          for (int p = 0; p < problem_->stencil().npoints(); ++p)
            table.first_touch_page_start(problem_->band(p).region(), b0, b1, node);
        }
      }
    }
  }
}

}  // namespace nustencil::core
