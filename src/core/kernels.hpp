// Tap-specialized stencil kernel engine with runtime SIMD dispatch.
//
// Every scheme funnels its cell updates through one inner-row kernel, so
// this is the hottest code in the repo.  The engine provides that kernel
// in three ISA flavours (scalar / SSE2 / AVX2, plus an opt-in AVX2+FMA
// variant) times two coefficient layouts (constant star, banded matrix),
// each fully unrolled for the paper's hot tap counts (7/13/19-point —
// 3D orders 1..3, but keyed on the tap count alone, so e.g. the 2D
// order-3 13-point star hits the same specialization) with a
// runtime-`ntaps` generic fallback for everything else.
//
// The SIMD flavours live in their own translation units compiled with
// just the ISA flags they need (not -march=native), so a baseline x86-64
// build still contains the AVX2 kernels and picks them at *runtime* via
// CPUID.  Selection happens once per Executor, not per row.
//
// Bit-exactness contract: all non-FMA variants produce bitwise-identical
// results to the scalar kernel (same per-cell tap summation order, no FP
// contraction — the kernel TUs are compiled with -ffp-contract=off), so
// scheme-vs-reference comparisons stay exact no matter which variant the
// dispatcher picks.  The FMA variant trades that for throughput and is
// off by default.
#pragma once

#include <string>

#include "common/types.hpp"

namespace nustencil::core {

inline constexpr int kMaxOrder = 8;
inline constexpr int kMaxTaps = 2 * kMaxOrder * 3 + 1;

/// User-facing kernel selection policy.
///   Auto        — best ISA the host supports, tap-specialized when possible
///   Scalar/SSE2/AVX2 — force one ISA (downgraded if unsupported)
///   FMA         — AVX2 with fused multiply-add (NOT bit-exact vs scalar)
///   GenericSimd — best ISA but the legacy kernel: a faithful
///                 reproduction of the pre-engine SIMD path (runtime tap
///                 loop, one vector and one accumulator per iteration),
///                 kept as the benchmarking baseline
enum class KernelPolicy { Auto, Scalar, SSE2, AVX2, FMA, GenericSimd };

/// Which body a kernel uses for a given tap count.
///   Specialized — fully unrolled tap chain; falls back to Generic when
///                 no unrolled variant exists for the tap count
///   Generic     — runtime tap loop, but register-blocked with hoisted
///                 coefficients like the specialized bodies
///   Legacy      — the pre-engine path, byte-for-byte behaviourally: one
///                 vector per iteration, a single accumulator chain,
///                 coefficients re-broadcast from memory every iteration
enum class KernelVariant { Specialized, Generic, Legacy };

/// Parses "auto|scalar|sse2|avx2|fma|generic" (case-insensitive); throws
/// Error listing the valid names otherwise.
KernelPolicy parse_kernel_policy(const std::string& name);
std::string to_string(KernelPolicy policy);

enum class KernelIsa { Scalar, SSE2, AVX2 };
std::string to_string(KernelIsa isa);

/// Host CPU features, probed once via CPUID (works regardless of the
/// flags this binary was compiled with).
struct CpuFeatures {
  bool sse2 = false;
  bool avx2 = false;
  bool fma = false;
  static const CpuFeatures& host();
};

/// Per-sweep kernel context: everything that is loop-invariant across the
/// rows of one update_box call, hoisted out of the per-row path.
struct KernelArgs {
  double* dst = nullptr;                 ///< destination buffer (t+1)
  const double* src = nullptr;           ///< source buffer (t)
  const double* coeffs = nullptr;        ///< constant case: one per tap
  const double* const* bands = nullptr;  ///< banded case: one array per tap
  int ntaps = 0;                         ///< used by the generic kernels
  /// Unread.  Every kernel confines its reads to [x0 - order, x1 + order)
  /// around each tap base; the field stays only because ladderbench's
  /// kernel-row probe still sets it.
  Index xcap = 0;
};

/// One row update: dst[db+x] = sum_p coeff_p(db+x) * src[bases[p]+x] for
/// x in [x0, x1).  `bases` holds per-tap source row bases with the x
/// offset folded in; wrap columns are the caller's job.
using KernelFn = void (*)(const KernelArgs& args, const Index* bases, Index db,
                          Index x0, Index x1);

/// The outcome of kernel selection, fixed once per Executor.
struct KernelChoice {
  KernelFn fn = nullptr;
  KernelIsa isa = KernelIsa::Scalar;
  KernelVariant variant = KernelVariant::Generic;  ///< what actually runs
  bool fma = false;
  bool banded = false;
  /// Kernel engine v2: the unit-stride taps come from in-register
  /// rotation over one aligned load per cache line instead of 2*order+1
  /// overlapping unaligned loads per vector.
  bool rotated = false;
  /// Always false: every kernel writes through the cache, because a
  /// temporally blocked tile re-reads its output at the next time step.
  /// Kept only because ladderbench still reports it.
  bool stream = false;
  int ntaps = 0;
  /// Tap count fully unrolled?
  bool specialized() const { return variant == KernelVariant::Specialized; }
  /// e.g. "avx2+rot/7pt/const" or "sse2+generic/9pt/banded".
  std::string name() const;
};

/// Everything kernel selection wants to know about the sweep, beyond the
/// policy: the stencil geometry (rotation is keyed on the canonical
/// rank-3 star layout).  Build it with kernel_request_for() (executor.hpp)
/// so every caller describes the kernel the Executor actually runs.
struct KernelRequest {
  int ntaps = 0;
  bool banded = false;
  int rank = 0;   ///< 0 = unknown (disables rotation)
  int order = 0;
};

/// True when a fully unrolled variant exists for this tap count.
bool kernel_has_specialization(int ntaps);

/// True when the ISA's kernels were compiled into this binary.
bool kernel_isa_compiled(KernelIsa isa);

/// Compiled AND supported by the host CPU.
bool kernel_isa_supported(KernelIsa isa);

/// Low-level selection at a fixed ISA (no host checks — the caller must
/// only run the result on a machine that supports `isa`).
KernelChoice select_kernel_isa(KernelIsa isa, bool fma, int ntaps, bool banded,
                               KernelVariant variant = KernelVariant::Specialized);

/// Policy-level selection against the host CPU: resolves Auto, downgrades
/// unsupported requests (FMA -> AVX2 -> SSE2 -> Scalar).
KernelChoice select_kernel(KernelPolicy policy, int ntaps, bool banded);

/// Full selection: additionally considers the v2 rotated kernels (AVX2,
/// canonical rank-3 stars of order 1..3).  The 3-argument overload above
/// is the subset with rank unknown, which can never rotate.
KernelChoice select_kernel(KernelPolicy policy, const KernelRequest& request);

/// Human-readable report for `nustencil --explain`: detected CPU
/// features, the policy, the chosen variant and why.
std::string explain_kernel_choice(KernelPolicy policy, int ntaps, bool banded);
std::string explain_kernel_choice(KernelPolicy policy, const KernelRequest& request);

}  // namespace nustencil::core
