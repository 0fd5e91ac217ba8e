// AVX2 (and AVX2+FMA) kernel flavours.
//
// This TU is compiled with the *baseline* flags; the AVX2 code below sits
// inside a `#pragma GCC target("avx2,fma")` region instead of a per-file
// -mavx2 flag, so a generic x86-64 build still carries these kernels and
// enables them at runtime via CPUID, while everything the region does NOT
// cover (notably shared inline helpers from common headers, which are
// included *before* the pragma) keeps baseline codegen — the linker can
// never pick an AVX2-compiled copy of a shared comdat symbol for the
// scalar path.
//
// Two engines live here:
//   v1 — the traits-instantiated kernel_row bodies (kernels_impl.hpp):
//        per-tap unaligned vector loads, register-blocked along x.
//   v2 — rotated kernels for the canonical rank-3 stars (order 1..3):
//        the 2*order+1 unit-stride taps are produced by in-register
//        rotation of one aligned centre-row load per output vector and,
//        in the FMA tier, semi-stencil-style update splitting.
//
// The plain AVX2 variants (v1 and v2) use separate mul + add and keep the
// strict spec-order tap chain, so they stay bit-identical to the scalar
// kernels; only the explicit-intrinsic FMA variants contract.
#include "core/kernels_detail.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))

// Everything shared with other TUs is included before the target pragma
// so its inline definitions are compiled for the baseline ISA.
#include <immintrin.h>

#include <algorithm>
#include <type_traits>
#include <utility>

#include "core/kernels.hpp"

#if defined(__clang__)
#pragma clang attribute push(__attribute__((target("avx2,fma"))), \
                             apply_to = function)
#else
#pragma GCC push_options
#pragma GCC target("avx2,fma")
#endif

// The v1 template bodies are included *inside* the region: they are only
// ever instantiated with the anonymous-namespace traits below, so every
// instantiation has internal linkage and AVX2 codegen, and none of it can
// leak into another TU.
#include "core/kernels_impl.hpp"

namespace {

using nustencil::Index;
using nustencil::round_up;
using nustencil::core::KernelArgs;
using nustencil::core::KernelFn;
using nustencil::core::KernelVariant;

struct VecAvx2 {
  using reg = __m256d;
  static constexpr int width = 4;
  static reg load(const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, reg v) { _mm256_storeu_pd(p, v); }
  static reg broadcast(double c) { return _mm256_set1_pd(c); }
  static reg mul(reg a, reg b) { return _mm256_mul_pd(a, b); }
  static reg fmadd(reg a, reg b, reg acc) {
    return _mm256_add_pd(_mm256_mul_pd(a, b), acc);
  }
};

struct VecAvx2Fma : VecAvx2 {
  static reg fmadd(reg a, reg b, reg acc) {
    return _mm256_fmadd_pd(a, b, acc);
  }
};

template <int N>
using IC = std::integral_constant<int, N>;

/// Lanes K..K+3 of the 8-double concatenation [a0..a3 b0..b3] — the
/// in-register rotation primitive.  vpermpd/valignr have no 256-bit
/// double forms, so K = 1..3 are built from one cross-lane permute
/// (latency 3) plus at most one in-lane shuffle (latency 1); every K
/// reuses the same permute result, so a full tap fan-out from (prev,
/// cur, next) costs two permutes total.
template <int K>
inline __m256d shift(__m256d a, __m256d b) {
  static_assert(K >= 0 && K <= 4);
  if constexpr (K == 0) {
    return a;
  } else if constexpr (K == 4) {
    return b;
  } else if constexpr (K == 2) {
    return _mm256_permute2f128_pd(a, b, 0x21);  // [a2 a3 b0 b1]
  } else if constexpr (K == 1) {
    const __m256d t = _mm256_permute2f128_pd(a, b, 0x21);
    return _mm256_shuffle_pd(a, t, 0b0101);  // [a1 a2 a3 b0]
  } else {  // K == 3
    const __m256d t = _mm256_permute2f128_pd(a, b, 0x21);
    return _mm256_shuffle_pd(t, b, 0b0101);  // [a3 b0 b1 b2]
  }
}

/// Kernel engine v2 row body for the canonical rank-3 star of ORDER
/// (taps in spec order: centre, x -ORDER..-1 then +1..+ORDER, then the
/// y/z taps).  The unit-stride taps are rotated out of a rolling window
/// of aligned centre-row loads: one new 32B load per output vector
/// instead of 2*ORDER+1 overlapping unaligned loads.  Every read stays
/// inside the tile's stencil reach [x0 - ORDER, x1 + ORDER) of each tap
/// row, the same contract as the v1 kernels.  FMA additionally splits
/// the update semi-stencil-style into independent axis/off-axis chains
/// (NOT bit-exact — FMA-tier only).
template <int ORDER, bool BANDED, bool FMA>
void kernel_row_v2(const KernelArgs& k, const Index* bases, Index db,
                   Index x0, Index x1) {
  constexpr int W = 4;
  constexpr int NT = 6 * ORDER + 1;
  double* __restrict dst = k.dst;
  const double* __restrict src = k.src;
  const double* __restrict coeffs = k.coeffs;

  const Index row = bases[0];

  Index base[NT];
  [[maybe_unused]] __m256d creg[NT];
  [[maybe_unused]] const double* bp[NT];
  for (int p = 0; p < NT; ++p) base[p] = bases[p];
  if constexpr (BANDED) {
    for (int p = 0; p < NT; ++p) bp[p] = k.bands[p] + db;
  } else {
    for (int p = 0; p < NT; ++p) creg[p] = _mm256_set1_pd(coeffs[p]);
  }

  // Scalar cell update, identical tap order to the scalar kernel's tail.
  const auto scalar_cell = [&](Index x) {
    double acc;
    if constexpr (BANDED) {
      acc = bp[0][x] * src[base[0] + x];
      for (int p = 1; p < NT; ++p) acc += bp[p][x] * src[base[p] + x];
    } else {
      acc = coeffs[0] * src[base[0] + x];
      for (int p = 1; p < NT; ++p) acc += coeffs[p] * src[base[p] + x];
    }
    dst[db + x] = acc;
  };

  // One output vector at x, taps supplied by `tap(IC<p>{})`.  Non-FMA:
  // one serial chain in strict spec order (bit-exact vs scalar).  FMA,
  // order >= 2: the unit-stride half and the off-axis half accumulate in
  // independent chains — half the serial fmadd latency of the 13/19-point
  // updates — and combine at the end.  Only the FMA tier may reorder the
  // summation like that; the bit-exactness contract forbids it elsewhere.
  const auto accumulate = [&](Index x, auto&& tap) -> __m256d {
    const auto coeff = [&](auto pc) -> __m256d {
      constexpr int P = decltype(pc)::value;
      if constexpr (BANDED)
        return _mm256_loadu_pd(bp[P] + x);
      else
        return creg[P];
    };
    const auto step = [&](auto pc, __m256d acc) -> __m256d {
      if constexpr (FMA)
        return _mm256_fmadd_pd(coeff(pc), tap(pc), acc);
      else
        return _mm256_add_pd(_mm256_mul_pd(coeff(pc), tap(pc)), acc);
    };
    const auto chain = [&]<int FIRST, int COUNT>(IC<FIRST>, IC<COUNT>) {
      __m256d acc = _mm256_mul_pd(coeff(IC<FIRST>{}), tap(IC<FIRST>{}));
      [&]<std::size_t... P>(std::index_sequence<P...>) {
        ((acc = step(IC<FIRST + 1 + static_cast<int>(P)>{}, acc)), ...);
      }(std::make_index_sequence<COUNT - 1>{});
      return acc;
    };
    if constexpr (FMA && ORDER >= 2) {
      const __m256d axis = chain(IC<0>{}, IC<2 * ORDER + 1>{});
      const __m256d rest = chain(IC<2 * ORDER + 1>{}, IC<NT - 2 * ORDER - 1>{});
      return _mm256_add_pd(axis, rest);
    } else {
      return chain(IC<0>{}, IC<NT>{});
    }
  };

  // Rotated update: the x-dimension taps come from shifting the rolling
  // (prev, cur, next) window of the centre row; y/z taps load from their
  // own rows as usual.
  const auto update_rotated = [&](Index x, __m256d prev, __m256d cur,
                                  __m256d next) -> __m256d {
    const auto tap = [&](auto pc) -> __m256d {
      constexpr int P = decltype(pc)::value;
      if constexpr (P == 0) {
        return cur;
      } else if constexpr (P <= 2 * ORDER) {
        // Spec x-tap order: p = 1..ORDER are offsets -ORDER..-1,
        // p = ORDER+1..2*ORDER are offsets +1..+ORDER.
        constexpr int off = P <= ORDER ? P - 1 - ORDER : P - ORDER;
        if constexpr (off < 0)
          return shift<W + off>(prev, cur);
        else
          return shift<off>(cur, next);
      } else {
        return _mm256_loadu_pd(src + base[P] + x);
      }
    };
    return accumulate(x, tap);
  };

  // Per-tap-load update, the v1 read pattern: used for the vectors whose
  // rolling window would reach outside [x0 - ORDER, x1 + ORDER).
  const auto update_per_tap = [&](Index x) -> __m256d {
    const auto tap = [&](auto pc) -> __m256d {
      constexpr int P = decltype(pc)::value;
      return _mm256_loadu_pd(src + base[P] + x);
    };
    return accumulate(x, tap);
  };
  const auto store = [&](Index x, __m256d v) {
    _mm256_storeu_pd(dst + db + x, v);
  };

  // Peel scalar cells up to the next W-aligned x, so the rolling loads
  // are 32B-aligned on aligned layouts.
  Index x = x0;
  const Index xa = std::min(x1, round_up(x0, W));
  for (; x < xa; ++x) scalar_cell(x);
  // The window at x loads [x - W, x + 2W) of the centre row.  Leading
  // vectors whose prev block would start below x0 - ORDER go per tap.
  for (; x + W <= x1 && x - W < x0 - ORDER; x += W) store(x, update_per_tap(x));
  if (x + 2 * W <= x1 + ORDER) {
    __m256d prev = _mm256_loadu_pd(src + row + x - W);
    __m256d cur = _mm256_loadu_pd(src + row + x);
    // Four output vectors per iteration: four new aligned loads feed
    // four rotated updates, so the shuffle results are all reused and
    // the independent accumulator chains hide the add latency.  The
    // last load ends at x + 5W, which must not pass x1 + ORDER.
    for (; x + 5 * W <= x1 + ORDER; x += 4 * W) {
      const __m256d r1 = _mm256_loadu_pd(src + row + x + W);
      const __m256d r2 = _mm256_loadu_pd(src + row + x + 2 * W);
      const __m256d r3 = _mm256_loadu_pd(src + row + x + 3 * W);
      const __m256d r4 = _mm256_loadu_pd(src + row + x + 4 * W);
      store(x, update_rotated(x, prev, cur, r1));
      store(x + W, update_rotated(x + W, cur, r1, r2));
      store(x + 2 * W, update_rotated(x + 2 * W, r1, r2, r3));
      store(x + 3 * W, update_rotated(x + 3 * W, r2, r3, r4));
      prev = r3;
      cur = r4;
    }
    for (; x + 2 * W <= x1 + ORDER; x += W) {
      const __m256d next = _mm256_loadu_pd(src + row + x + W);
      store(x, update_rotated(x, prev, cur, next));
      prev = cur;
      cur = next;
    }
  }
  // Trailing vectors whose next block would pass x1 + ORDER.
  for (; x + W <= x1; x += W) store(x, update_per_tap(x));
  for (; x < x1; ++x) scalar_cell(x);
}

// In-region selection wrappers: taking the template addresses *here*
// forces every instantiation to happen inside the target region.
KernelFn pick_v1_avx2(int ntaps, bool banded, KernelVariant variant,
                      bool fma) {
  using namespace nustencil::core;
  if (fma) return kernel_impl::pick_kernel<VecAvx2Fma>(ntaps, banded, variant);
  return kernel_impl::pick_kernel<VecAvx2>(ntaps, banded, variant);
}

template <int ORDER>
KernelFn pick_v2_order(bool banded, bool fma) {
  if (banded)
    return fma ? &kernel_row_v2<ORDER, true, true>
               : &kernel_row_v2<ORDER, true, false>;
  return fma ? &kernel_row_v2<ORDER, false, true>
             : &kernel_row_v2<ORDER, false, false>;
}

KernelFn pick_v2_avx2(int order, bool banded, bool fma) {
  switch (order) {
    case 1:
      return pick_v2_order<1>(banded, fma);
    case 2:
      return pick_v2_order<2>(banded, fma);
    case 3:
      return pick_v2_order<3>(banded, fma);
    default:
      return nullptr;
  }
}

}  // namespace

#if defined(__clang__)
#pragma clang attribute pop
#else
#pragma GCC pop_options
#endif

namespace nustencil::core::detail {

KernelFn avx2_kernel(int ntaps, bool banded, KernelVariant variant, bool fma) {
  return pick_v1_avx2(ntaps, banded, variant, fma);
}

KernelFn avx2_kernel_v2(int order, bool banded, bool fma) {
  return pick_v2_avx2(order, banded, fma);
}

bool avx2_compiled() { return true; }
bool avx2_fma_compiled() { return true; }

}  // namespace nustencil::core::detail

#else  // not x86 with a GNU-flavoured compiler

namespace nustencil::core::detail {

KernelFn avx2_kernel(int, bool, KernelVariant, bool) { return nullptr; }
KernelFn avx2_kernel_v2(int, bool, bool) { return nullptr; }
bool avx2_compiled() { return false; }
bool avx2_fma_compiled() { return false; }

}  // namespace nustencil::core::detail

#endif
