// Internal cross-TU hooks of the kernel engine: each ISA translation
// unit exports exactly one factory (plus a "was this ISA compiled in"
// probe).  On targets where the compiler cannot produce the ISA the
// factory returns nullptr and the dispatcher falls back.
#pragma once

#include "core/kernels.hpp"

namespace nustencil::core::detail {

KernelFn sse2_kernel(int ntaps, bool banded, KernelVariant variant);
bool sse2_compiled();

/// `fma == true` selects the fused-multiply-add variants (not bit-exact
/// against the scalar kernels); requires host AVX2 *and* FMA.
KernelFn avx2_kernel(int ntaps, bool banded, KernelVariant variant, bool fma);

/// Kernel engine v2: in-register rotation over the unit-stride taps of
/// the canonical rank-3 star of `order` (1..3), reading only inside
/// [x0 - order, x1 + order) like v1, and, for the FMA tier,
/// semi-stencil-style update splitting.  Returns nullptr for unsupported
/// orders or when the ISA is not compiled in.
KernelFn avx2_kernel_v2(int order, bool banded, bool fma);

bool avx2_compiled();
bool avx2_fma_compiled();

}  // namespace nustencil::core::detail
