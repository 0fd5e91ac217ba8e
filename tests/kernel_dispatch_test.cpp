// Kernel engine: policy parsing, CPUID-driven selection, and the
// bit-exactness contract — every kernel variant the host supports
// (scalar/SSE2/AVX2, specialized and generic, constant and banded,
// orders 1-3) must produce bitwise-identical results to the scalar
// reference on randomized domains, including the periodic wrap columns,
// and must read nothing outside a tile's stencil reach.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "core/executor.hpp"
#include "core/kernels.hpp"
#include "core/reference.hpp"

#if __has_include(<sys/mman.h>)
#include <sys/mman.h>
#include <unistd.h>
#define NUSTENCIL_HAVE_MMAN 1
#endif

namespace nustencil::core {
namespace {

Box whole(const Coord& shape) {
  Box b;
  b.lo = Coord::filled(shape.rank(), 0);
  b.hi = shape;
  return b;
}

/// Every policy that resolves to a distinct runnable variant on this host.
std::vector<KernelPolicy> host_policies() {
  std::vector<KernelPolicy> ps{KernelPolicy::Scalar};
  if (kernel_isa_supported(KernelIsa::SSE2)) ps.push_back(KernelPolicy::SSE2);
  if (kernel_isa_supported(KernelIsa::AVX2)) ps.push_back(KernelPolicy::AVX2);
  ps.push_back(KernelPolicy::GenericSimd);
  ps.push_back(KernelPolicy::Auto);
  return ps;
}

/// Runs `steps` full-domain sweeps and returns the cells of the final
/// buffer.  `chosen` (optional) receives the executor's kernel choice.
std::vector<double> run_with_policy(const Coord& shape, const StencilSpec& st,
                                    KernelPolicy policy, long steps,
                                    unsigned seed,
                                    KernelChoice* chosen = nullptr) {
  Problem p(shape, st);
  p.initialize(seed);
  Executor e(p, {}, policy);
  if (chosen) *chosen = e.kernel();
  for (long t = 0; t < steps; ++t) e.update_box(whole(shape), t, 0);
  const Field& f = p.buffer(steps);
  return std::vector<double>(f.data(), f.data() + f.volume());
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(KernelDispatch, PolicyParsingRoundTrips) {
  for (KernelPolicy p :
       {KernelPolicy::Auto, KernelPolicy::Scalar, KernelPolicy::SSE2,
        KernelPolicy::AVX2, KernelPolicy::FMA, KernelPolicy::GenericSimd})
    EXPECT_EQ(parse_kernel_policy(to_string(p)), p);
  EXPECT_THROW(parse_kernel_policy("avx512"), Error);
  EXPECT_THROW(parse_kernel_policy(""), Error);
}

TEST(KernelDispatch, ScalarAlwaysAvailable) {
  EXPECT_TRUE(kernel_isa_compiled(KernelIsa::Scalar));
  EXPECT_TRUE(kernel_isa_supported(KernelIsa::Scalar));
  const KernelChoice c = select_kernel(KernelPolicy::Scalar, 7, false);
  EXPECT_EQ(c.isa, KernelIsa::Scalar);
  EXPECT_NE(c.fn, nullptr);
}

TEST(KernelDispatch, SpecializationKeyedOnTapCount) {
  for (int ntaps : {7, 13, 19}) EXPECT_TRUE(kernel_has_specialization(ntaps));
  for (int ntaps : {3, 5, 9, 11, 25}) EXPECT_FALSE(kernel_has_specialization(ntaps));
  EXPECT_TRUE(select_kernel(KernelPolicy::Auto, 7, false).specialized());
  EXPECT_FALSE(select_kernel(KernelPolicy::Auto, 9, false).specialized());
  const KernelChoice legacy = select_kernel(KernelPolicy::GenericSimd, 7, false);
  EXPECT_FALSE(legacy.specialized());
  EXPECT_EQ(legacy.variant, KernelVariant::Legacy);
}

TEST(KernelDispatch, ChoiceNamesAreDescriptive) {
  const KernelChoice c = select_kernel(KernelPolicy::Scalar, 7, true);
  EXPECT_NE(c.name().find("scalar"), std::string::npos);
  EXPECT_NE(c.name().find("7pt"), std::string::npos);
  EXPECT_NE(c.name().find("banded"), std::string::npos);
  const KernelChoice g = select_kernel(KernelPolicy::Auto, 9, false);
  EXPECT_NE(g.name().find("generic"), std::string::npos);
  const KernelChoice l = select_kernel(KernelPolicy::GenericSimd, 9, false);
  EXPECT_NE(l.name().find("legacy"), std::string::npos);
}

TEST(KernelDispatch, AutoNeverDowngradesBelowForcedScalar) {
  // Auto must resolve to a compiled, host-supported ISA and a non-null fn.
  const KernelChoice c = select_kernel(KernelPolicy::Auto, 13, false);
  EXPECT_NE(c.fn, nullptr);
  EXPECT_TRUE(kernel_isa_supported(c.isa));
}

TEST(KernelDispatch, ExplainMentionsPolicyAndKernel) {
  const std::string text =
      explain_kernel_choice(KernelPolicy::Auto, 7, false);
  EXPECT_NE(text.find("policy"), std::string::npos);
  EXPECT_NE(text.find("auto"), std::string::npos);
  EXPECT_NE(text.find("selected kernel"), std::string::npos);
  EXPECT_NE(text.find("7"), std::string::npos);
}

TEST(KernelDispatch, EveryVariantBitIdenticalToScalar) {
  // Full-domain sweeps (periodic wrap columns included) on randomized
  // data: odd x extents exercise the vector tails, the {3,3,3} shape the
  // tiny-domain boundary split.  Tap counts covered: 3D orders 1..3 hit
  // the 7/13/19-point specializations; the 2D and 1D shapes hit the
  // generic runtime-taps kernels.
  struct Case {
    Coord shape;
    int order;
  };
  const std::vector<Case> cases = {
      {Coord{33, 7, 5}, 1},  {Coord{29, 6, 5}, 2}, {Coord{27, 7, 7}, 3},
      {Coord{21, 9}, 1},     {Coord{19, 8}, 2},    {Coord{37}, 1},
      {Coord{5, 5, 5}, 2},  // smallest legal domain: 1-wide fast range
  };
  for (const Case& c : cases) {
    for (const bool banded : {false, true}) {
      const StencilSpec st = banded
                                 ? StencilSpec::banded_star(c.shape.rank(), c.order)
                                 : StencilSpec::stable_star(c.shape.rank(), c.order);
      const std::vector<double> ref =
          run_with_policy(c.shape, st, KernelPolicy::Scalar, 3, 1234);
      for (KernelPolicy policy : host_policies()) {
        const std::vector<double> got =
            run_with_policy(c.shape, st, policy, 3, 1234);
        EXPECT_TRUE(bitwise_equal(ref, got))
            << "policy=" << to_string(policy) << " shape=" << c.shape
            << " order=" << c.order << " banded=" << banded;
      }
    }
  }
}

TEST(KernelDispatch, SpecializedMatchesGenericRowKernels) {
  // Direct row harness: for every supported ISA and tap count with a
  // specialization, the unrolled kernel must agree bitwise with the
  // generic runtime-taps kernel on the same inputs, over full rows and
  // unaligned subranges (vector tails).
  std::vector<KernelIsa> isas{KernelIsa::Scalar};
  if (kernel_isa_supported(KernelIsa::SSE2)) isas.push_back(KernelIsa::SSE2);
  if (kernel_isa_supported(KernelIsa::AVX2)) isas.push_back(KernelIsa::AVX2);

  const Index nx = 41;
  const Index margin = 64;
  for (int ntaps : {7, 13, 19}) {
    std::vector<double> src(static_cast<std::size_t>(nx + 2 * margin));
    for (std::size_t i = 0; i < src.size(); ++i)
      src[i] = initial_value(static_cast<Index>(i), 7);
    std::vector<double> coeffs(static_cast<std::size_t>(ntaps));
    std::vector<Index> bases(static_cast<std::size_t>(ntaps));
    std::vector<std::vector<double>> bands(static_cast<std::size_t>(ntaps));
    std::vector<const double*> bandp(static_cast<std::size_t>(ntaps));
    for (int p = 0; p < ntaps; ++p) {
      coeffs[static_cast<std::size_t>(p)] = initial_value(p, 21);
      bases[static_cast<std::size_t>(p)] = margin + (p % 2 ? p : -p);
      bands[static_cast<std::size_t>(p)].resize(static_cast<std::size_t>(nx));
      for (Index x = 0; x < nx; ++x)
        bands[static_cast<std::size_t>(p)][static_cast<std::size_t>(x)] =
            initial_value(p * nx + x, 5);
      bandp[static_cast<std::size_t>(p)] = bands[static_cast<std::size_t>(p)].data();
    }

    for (KernelIsa isa : isas) {
      for (const bool banded : {false, true}) {
        const KernelChoice spec = select_kernel_isa(isa, false, ntaps, banded);
        const KernelChoice gen = select_kernel_isa(isa, false, ntaps, banded,
                                                   KernelVariant::Generic);
        const KernelChoice leg = select_kernel_isa(isa, false, ntaps, banded,
                                                   KernelVariant::Legacy);
        ASSERT_TRUE(spec.specialized());
        ASSERT_EQ(gen.variant, KernelVariant::Generic);
        ASSERT_EQ(leg.variant, KernelVariant::Legacy);
        for (const auto& [x0, x1] : std::vector<std::pair<Index, Index>>{
                 {0, nx}, {1, nx - 2}, {5, 9}, {3, 3}}) {
          std::vector<double> d1(static_cast<std::size_t>(nx), -1.0);
          std::vector<double> d2(static_cast<std::size_t>(nx), -1.0);
          std::vector<double> d3(static_cast<std::size_t>(nx), -1.0);
          KernelArgs ka;
          ka.src = src.data();
          ka.coeffs = coeffs.data();
          ka.bands = bandp.data();
          ka.ntaps = ntaps;
          ka.dst = d1.data();
          spec.fn(ka, bases.data(), 0, x0, x1);
          ka.dst = d2.data();
          gen.fn(ka, bases.data(), 0, x0, x1);
          ka.dst = d3.data();
          leg.fn(ka, bases.data(), 0, x0, x1);
          EXPECT_TRUE(bitwise_equal(d1, d2) && bitwise_equal(d1, d3))
              << "isa=" << to_string(isa) << " ntaps=" << ntaps
              << " banded=" << banded << " x0=" << x0 << " x1=" << x1;
        }
      }
    }
  }
}

TEST(KernelDispatch, FmaVariantIsCloseButOptIn) {
  if (!(kernel_isa_supported(KernelIsa::AVX2) && CpuFeatures::host().fma))
    GTEST_SKIP() << "host has no AVX2+FMA";
  const KernelChoice c = select_kernel(KernelPolicy::FMA, 7, false);
  EXPECT_TRUE(c.fma);
  const Coord shape{32, 8, 8};
  const StencilSpec st = StencilSpec::paper_3d7p();
  const std::vector<double> ref =
      run_with_policy(shape, st, KernelPolicy::Scalar, 3, 99);
  const std::vector<double> fma =
      run_with_policy(shape, st, KernelPolicy::FMA, 3, 99);
  double worst = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i)
    worst = std::max(worst, std::abs(ref[i] - fma[i]) /
                                std::max(1.0, std::abs(ref[i])));
  EXPECT_LE(worst, 1e-13);  // contracted, so close but not necessarily equal
}

TEST(KernelDispatch, ExecutorReportsItsKernel) {
  Problem p(Coord{16, 4, 4}, StencilSpec::paper_3d7p());
  p.initialize();
  Executor e(p, {}, KernelPolicy::Scalar);
  EXPECT_EQ(e.kernel().isa, KernelIsa::Scalar);
  EXPECT_TRUE(e.kernel().specialized());
  EXPECT_EQ(e.kernel().ntaps, 7);
}

TEST(KernelDispatch, PolicyNamesAreCaseInsensitive) {
  EXPECT_EQ(parse_kernel_policy("AVX2"), KernelPolicy::AVX2);
  EXPECT_EQ(parse_kernel_policy("Fma"), KernelPolicy::FMA);
  EXPECT_EQ(parse_kernel_policy("SCALAR"), KernelPolicy::Scalar);
}

TEST(KernelDispatch, RotatedKernelEngagesAndIsBitExact) {
  if (!kernel_isa_supported(KernelIsa::AVX2))
    GTEST_SKIP() << "host has no AVX2";
  // Prime x extents: every vector width/peel/tail path of the rotated
  // kernels runs.  All three canonical rank-3 stars must rotate.
  struct Case {
    Coord shape;
    int order;
  };
  for (const Case& c : std::vector<Case>{
           {Coord{31, 5, 4}, 1}, {Coord{37, 6, 5}, 2}, {Coord{41, 7, 7}, 3}}) {
    for (const bool banded : {false, true}) {
      const StencilSpec st = banded
                                 ? StencilSpec::banded_star(3, c.order)
                                 : StencilSpec::stable_star(3, c.order);
      const std::vector<double> ref =
          run_with_policy(c.shape, st, KernelPolicy::Scalar, 3, 42);
      KernelChoice chosen;
      const std::vector<double> got =
          run_with_policy(c.shape, st, KernelPolicy::AVX2, 3, 42, &chosen);
      EXPECT_TRUE(chosen.rotated)
          << "order=" << c.order << " banded=" << banded
          << " kernel=" << chosen.name();
      EXPECT_TRUE(bitwise_equal(ref, got))
          << "order=" << c.order << " banded=" << banded;
    }
  }
  // Non-rank-3 stencils have no rotated kernel.
  KernelChoice flat;
  run_with_policy(Coord{24, 9}, StencilSpec::stable_star(2, 1),
                  KernelPolicy::AVX2, 1, 42, &flat);
  EXPECT_FALSE(flat.rotated);
}

TEST(KernelDispatch, AutoPolicyPicksBitExactRotatedKernel) {
  if (!kernel_isa_supported(KernelIsa::AVX2))
    GTEST_SKIP() << "host has no AVX2";
  // The kernel the Auto policy picks for a prime-sized domain (unaligned
  // rows) must be the rotated one and stay bitwise identical to scalar.
  const Coord shape{29, 6, 5};
  for (const bool banded : {false, true}) {
    const StencilSpec st =
        banded ? StencilSpec::banded_star(3, 1) : StencilSpec::stable_star(3, 1);
    const std::vector<double> ref =
        run_with_policy(shape, st, KernelPolicy::Scalar, 3, 11);
    KernelChoice chosen;
    const std::vector<double> got =
        run_with_policy(shape, st, KernelPolicy::Auto, 3, 11, &chosen);
    EXPECT_TRUE(chosen.rotated) << chosen.name();
    EXPECT_TRUE(bitwise_equal(ref, got)) << "banded=" << banded;
  }
}

TEST(KernelDispatch, MidVectorTileStartMatchesScalar) {
  if (!kernel_isa_supported(KernelIsa::AVX2))
    GTEST_SKIP() << "host has no AVX2";
  // A tile whose x range starts mid-vector forces the rotated kernel's
  // scalar peel and (near the row end) its per-tap fallback loop; the
  // result must still be bitwise identical to the scalar executor on the
  // same sub-box.
  const Coord shape{33, 6, 5};
  const StencilSpec st = StencilSpec::stable_star(3, 1);
  for (const auto& [x0, x1] : std::vector<std::pair<Index, Index>>{
           {1, 29}, {5, 23}, {6, 33}, {2, 7}}) {
    Box tile;
    tile.lo = Coord{x0, 1, 1};
    tile.hi = Coord{x1, 5, 4};
    Problem ps(shape, st);
    ps.initialize(3);
    Executor es(ps, {}, KernelPolicy::Scalar);
    es.update_box(tile, 0, 0);
    Problem pv(shape, st);
    pv.initialize(3);
    Executor ev(pv, {}, KernelPolicy::Auto);
    ASSERT_TRUE(ev.kernel().rotated);
    ev.update_box(tile, 0, 0);
    EXPECT_EQ(std::memcmp(ps.buffer(1).data(), pv.buffer(1).data(),
                          static_cast<std::size_t>(ps.volume()) * sizeof(double)),
              0)
        << "x0=" << x0 << " x1=" << x1;
  }
}

TEST(KernelDispatch, KernelRequestMatchesExecutor) {
  // --explain and run reports select from kernel_request_for(stencil);
  // that must name the kernel the executor actually runs.
  for (const StencilSpec& st :
       {StencilSpec::paper_3d7p(), StencilSpec::stable_star(3, 2),
        StencilSpec::banded_star(3, 3), StencilSpec::stable_star(2, 1)}) {
    Problem p(st.rank() == 3 ? Coord{12, 12, 12} : Coord{12, 12}, st);
    for (KernelPolicy policy : host_policies()) {
      const Executor e(p, {}, policy);
      EXPECT_EQ(select_kernel(policy, kernel_request_for(st)).name(),
                e.kernel().name())
          << "policy=" << to_string(policy) << " ntaps=" << st.npoints();
    }
  }
}

#if defined(NUSTENCIL_HAVE_MMAN)

/// Row storage for the guard-page test: `nslots` data pages, each with a
/// PROT_NONE page directly below and above it, in one mapping.
class GuardedRows {
 public:
  explicit GuardedRows(int nslots)
      : page_(static_cast<std::size_t>(sysconf(_SC_PAGESIZE))),
        bytes_(page_ * static_cast<std::size_t>(2 * nslots + 1)) {
    void* m = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (m == MAP_FAILED) throw Error("GuardedRows: mmap failed");
    base_ = static_cast<double*>(m);
    for (int g = 0; g <= nslots; ++g)
      if (mprotect(static_cast<char*>(m) + 2 * static_cast<std::size_t>(g) * page_,
                   page_, PROT_NONE) != 0)
        throw Error("GuardedRows: mprotect failed");
    for (int i = 0; i < nslots; ++i)
      for (Index x = 0; x < doubles_per_page(); ++x)
        base_[begin(i) + x] = initial_value(i * doubles_per_page() + x, 17);
  }
  ~GuardedRows() { munmap(base_, bytes_); }
  GuardedRows(const GuardedRows&) = delete;
  GuardedRows& operator=(const GuardedRows&) = delete;

  const double* base() const { return base_; }
  Index doubles_per_page() const { return static_cast<Index>(page_ / sizeof(double)); }
  /// Element index (from base()) of slot i's first readable double.
  Index begin(int i) const { return (2 * i + 1) * doubles_per_page(); }
  /// One past slot i's last readable double: the next guard page.
  Index end(int i) const { return begin(i) + doubles_per_page(); }

 private:
  std::size_t page_;
  std::size_t bytes_;
  double* base_ = nullptr;
};

TEST(KernelDispatch, RowReadsStayInsideStencilReach) {
  // Every tap row is placed so that the tile's stencil reach
  // [x0 - s, x1 + s) starts exactly at the end of one PROT_NONE page or
  // ends exactly at the start of the next: a single load outside the
  // reach faults.  Every kernel the host runs (scalar, SSE2 and AVX2 v1
  // in all three variants, the rotated v2 kernels with and without FMA)
  // must stay inside and, FMA aside, match scalar bitwise.
  std::vector<KernelIsa> isas{KernelIsa::Scalar};
  if (kernel_isa_supported(KernelIsa::SSE2)) isas.push_back(KernelIsa::SSE2);
  if (kernel_isa_supported(KernelIsa::AVX2)) isas.push_back(KernelIsa::AVX2);
  const bool fma = kernel_isa_supported(KernelIsa::AVX2) && CpuFeatures::host().fma;

  for (int order = 1; order <= 3; ++order) {
    const int ntaps = 6 * order + 1;
    const int nslots = 1 + 4 * order;  // centre row + one row per y/z tap
    const GuardedRows rows(nslots);
    std::vector<double> coeffs(static_cast<std::size_t>(ntaps));
    for (int p = 0; p < ntaps; ++p)
      coeffs[static_cast<std::size_t>(p)] = initial_value(p, 21);

    for (const bool banded : {false, true}) {
      std::vector<KernelChoice> kernels;
      for (KernelIsa isa : isas)
        for (KernelVariant v :
             {KernelVariant::Specialized, KernelVariant::Generic, KernelVariant::Legacy})
          kernels.push_back(select_kernel_isa(isa, false, ntaps, banded, v));
      const KernelRequest req = kernel_request_for(
          banded ? StencilSpec::banded_star(3, order) : StencilSpec::stable_star(3, order));
      if (kernel_isa_supported(KernelIsa::AVX2)) {
        kernels.push_back(select_kernel(KernelPolicy::AVX2, req));
        EXPECT_TRUE(kernels.back().rotated) << kernels.back().name();
      }
      if (fma) {
        kernels.push_back(select_kernel(KernelPolicy::FMA, req));
        EXPECT_TRUE(kernels.back().rotated && kernels.back().fma)
            << kernels.back().name();
      }
      const KernelChoice scalar =
          select_kernel_isa(KernelIsa::Scalar, false, ntaps, banded);

      const Index full = rows.doubles_per_page() - 2 * order;
      for (const Index x0 : {Index{8}, Index{5}, Index{6}, Index{7}}) {
        for (const Index len : {Index{1}, Index{3}, Index{4}, Index{7}, Index{9},
                                Index{17}, Index{33}, Index{64}, full}) {
          const Index x1 = x0 + len;
          std::vector<std::vector<double>> bands(static_cast<std::size_t>(ntaps));
          std::vector<const double*> bandp(static_cast<std::size_t>(ntaps));
          for (int p = 0; p < ntaps; ++p) {
            auto& b = bands[static_cast<std::size_t>(p)];
            b.resize(static_cast<std::size_t>(x1));
            for (Index x = 0; x < x1; ++x)
              b[static_cast<std::size_t>(x)] = initial_value(p * x1 + x, 5);
            bandp[static_cast<std::size_t>(p)] = b.data();
          }
          KernelArgs ka;
          ka.src = rows.base();
          ka.coeffs = coeffs.data();
          ka.bands = bandp.data();
          ka.ntaps = ntaps;
          for (const bool against_upper : {false, true}) {
            // Row base of slot i under this placement.
            const auto row_of = [&](int i) {
              return against_upper ? rows.end(i) - (x1 + order)
                                   : rows.begin(i) - (x0 - order);
            };
            // Spec tap order: centre, x -s..-1, x +1..+s, then y/z taps.
            std::vector<Index> bases(static_cast<std::size_t>(ntaps));
            bases[0] = row_of(0);
            for (int p = 1; p <= 2 * order; ++p)
              bases[static_cast<std::size_t>(p)] =
                  bases[0] + (p <= order ? p - 1 - order : p - order);
            for (int p = 2 * order + 1; p < ntaps; ++p)
              bases[static_cast<std::size_t>(p)] = row_of(p - 2 * order);

            std::vector<double> ref(static_cast<std::size_t>(x1), -1.0);
            ka.dst = ref.data();
            scalar.fn(ka, bases.data(), 0, x0, x1);
            for (const KernelChoice& k : kernels) {
              std::vector<double> got(static_cast<std::size_t>(x1), -1.0);
              ka.dst = got.data();
              k.fn(ka, bases.data(), 0, x0, x1);
              const std::string where =
                  k.name() + " x0=" + std::to_string(x0) + " x1=" + std::to_string(x1) +
                  (against_upper ? " (upper guard)" : " (lower guard)");
              if (k.fma) {
                for (std::size_t i = 0; i < ref.size(); ++i)
                  ASSERT_LE(std::abs(ref[i] - got[i]), 1e-13 * std::max(1.0, std::abs(ref[i])))
                      << where;
              } else {
                ASSERT_TRUE(bitwise_equal(ref, got)) << where;
              }
            }
          }
        }
      }
    }
  }
}

#endif  // NUSTENCIL_HAVE_MMAN

}  // namespace
}  // namespace nustencil::core
