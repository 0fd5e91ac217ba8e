// Kernel engine: scalar flavours, CPUID feature probe, policy parsing
// and the one-time dispatch that replaces the old per-row branch chains.
#include "core/kernels.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "common/error.hpp"
#include "core/kernels_detail.hpp"
#include "core/kernels_impl.hpp"

namespace {

std::string lowercase(const std::string& name) {
  std::string lower(name.size(), '\0');
  std::transform(name.begin(), name.end(), lower.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return lower;
}

struct VecScalar {
  using reg = double;
  static constexpr int width = 1;
  static reg load(const double* p) { return *p; }
  static void store(double* p, reg v) { *p = v; }
  static reg broadcast(double c) { return c; }
  static reg mul(reg a, reg b) { return a * b; }
  static reg fmadd(reg a, reg b, reg acc) { return a * b + acc; }
};

}  // namespace

namespace nustencil::core {

KernelPolicy parse_kernel_policy(const std::string& name) {
  // Case-insensitive, like scheme names: --kernel=AVX2 and --kernel=avx2
  // are the same request; the canonical lowercase spellings stay in
  // to_string().
  const std::string lower = lowercase(name);
  if (lower == "auto") return KernelPolicy::Auto;
  if (lower == "scalar") return KernelPolicy::Scalar;
  if (lower == "sse2") return KernelPolicy::SSE2;
  if (lower == "avx2") return KernelPolicy::AVX2;
  if (lower == "fma") return KernelPolicy::FMA;
  if (lower == "generic") return KernelPolicy::GenericSimd;
  throw Error("unknown kernel policy '" + name +
              "' (expected auto, scalar, sse2, avx2, fma or generic)");
}

std::string to_string(KernelPolicy policy) {
  switch (policy) {
    case KernelPolicy::Auto: return "auto";
    case KernelPolicy::Scalar: return "scalar";
    case KernelPolicy::SSE2: return "sse2";
    case KernelPolicy::AVX2: return "avx2";
    case KernelPolicy::FMA: return "fma";
    case KernelPolicy::GenericSimd: return "generic";
  }
  return "?";
}

std::string to_string(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::Scalar: return "scalar";
    case KernelIsa::SSE2: return "sse2";
    case KernelIsa::AVX2: return "avx2";
  }
  return "?";
}

const CpuFeatures& CpuFeatures::host() {
  static const CpuFeatures features = [] {
    CpuFeatures f;
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
    __builtin_cpu_init();
    f.sse2 = __builtin_cpu_supports("sse2") != 0;
    f.avx2 = __builtin_cpu_supports("avx2") != 0;
    f.fma = __builtin_cpu_supports("fma") != 0;
#endif
    return f;
  }();
  return features;
}

std::string KernelChoice::name() const {
  std::ostringstream os;
  os << to_string(isa);
  if (fma) os << "+fma";
  if (variant == KernelVariant::Generic) os << "+generic";
  if (variant == KernelVariant::Legacy) os << "+legacy";
  if (rotated) os << "+rot";
  os << '/' << ntaps << "pt/" << (banded ? "banded" : "const");
  return os.str();
}

bool kernel_has_specialization(int ntaps) {
  return ntaps == 7 || ntaps == 13 || ntaps == 19;
}

bool kernel_isa_compiled(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::Scalar: return true;
    case KernelIsa::SSE2: return detail::sse2_compiled();
    case KernelIsa::AVX2: return detail::avx2_compiled();
  }
  return false;
}

bool kernel_isa_supported(KernelIsa isa) {
  if (!kernel_isa_compiled(isa)) return false;
  const CpuFeatures& cpu = CpuFeatures::host();
  switch (isa) {
    case KernelIsa::Scalar: return true;
    case KernelIsa::SSE2: return cpu.sse2;
    case KernelIsa::AVX2: return cpu.avx2;
  }
  return false;
}

KernelChoice select_kernel_isa(KernelIsa isa, bool fma, int ntaps, bool banded,
                               KernelVariant variant) {
  NUSTENCIL_CHECK(ntaps >= 1 && ntaps <= kMaxTaps,
                  "select_kernel_isa: tap count out of range");
  KernelChoice choice;
  choice.isa = isa;
  choice.fma = fma && isa == KernelIsa::AVX2;
  choice.banded = banded;
  choice.ntaps = ntaps;
  // Specialized silently degrades to Generic for tap counts without an
  // unrolled body; Legacy is always honoured.
  choice.variant =
      variant == KernelVariant::Specialized && !kernel_has_specialization(ntaps)
          ? KernelVariant::Generic
          : variant;
  switch (isa) {
    case KernelIsa::Scalar:
      choice.fn = kernel_impl::pick_kernel<VecScalar>(ntaps, banded, choice.variant);
      break;
    case KernelIsa::SSE2:
      choice.fn = detail::sse2_kernel(ntaps, banded, choice.variant);
      break;
    case KernelIsa::AVX2:
      choice.fn = detail::avx2_kernel(ntaps, banded, choice.variant, choice.fma);
      break;
  }
  NUSTENCIL_CHECK(choice.fn != nullptr,
                  "kernel ISA " + to_string(isa) + (choice.fma ? "+fma" : "") +
                      " is not compiled into this binary");
  return choice;
}

namespace {

KernelIsa best_supported_isa() {
  if (kernel_isa_supported(KernelIsa::AVX2)) return KernelIsa::AVX2;
  if (kernel_isa_supported(KernelIsa::SSE2)) return KernelIsa::SSE2;
  return KernelIsa::Scalar;
}

/// Resolves a policy to (isa, fma, variant) against the host.
struct Resolution {
  KernelIsa isa = KernelIsa::Scalar;
  bool fma = false;
  KernelVariant variant = KernelVariant::Specialized;
  bool downgraded = false;  ///< the policy asked for more than the host has
};

Resolution resolve_policy(KernelPolicy policy) {
  Resolution r;
  switch (policy) {
    case KernelPolicy::Scalar:
      break;
    case KernelPolicy::SSE2:
      r.isa = kernel_isa_supported(KernelIsa::SSE2) ? KernelIsa::SSE2
                                                    : KernelIsa::Scalar;
      r.downgraded = r.isa != KernelIsa::SSE2;
      break;
    case KernelPolicy::AVX2:
      r.isa = kernel_isa_supported(KernelIsa::AVX2) ? KernelIsa::AVX2
                                                    : best_supported_isa();
      r.downgraded = r.isa != KernelIsa::AVX2;
      break;
    case KernelPolicy::FMA:
      if (kernel_isa_supported(KernelIsa::AVX2) && CpuFeatures::host().fma &&
          detail::avx2_fma_compiled()) {
        r.isa = KernelIsa::AVX2;
        r.fma = true;
      } else {
        r.isa = best_supported_isa();
        r.downgraded = true;
      }
      break;
    case KernelPolicy::GenericSimd:
      r.variant = KernelVariant::Legacy;
      r.isa = best_supported_isa();
      break;
    case KernelPolicy::Auto:
      r.isa = best_supported_isa();
      break;
  }
  return r;
}

/// The v2 rotated kernels exist for the canonical rank-3 stars whose
/// unit-stride taps are offsets -order..-1, +1..+order (stencil.hpp tap
/// order): 3D orders 1..3, i.e. the 7/13/19-point specializations.
bool rotation_eligible(const Resolution& r, const KernelRequest& q) {
  return r.isa == KernelIsa::AVX2 && r.variant == KernelVariant::Specialized &&
         q.rank == 3 && q.order >= 1 && q.order <= 3 &&
         q.ntaps == 6 * q.order + 1;
}

}  // namespace

KernelChoice select_kernel(KernelPolicy policy, int ntaps, bool banded) {
  const Resolution r = resolve_policy(policy);
  return select_kernel_isa(r.isa, r.fma, ntaps, banded, r.variant);
}

KernelChoice select_kernel(KernelPolicy policy, const KernelRequest& request) {
  const Resolution r = resolve_policy(policy);
  if (rotation_eligible(r, request)) {
    const KernelFn fn =
        detail::avx2_kernel_v2(request.order, request.banded, r.fma);
    if (fn) {
      KernelChoice choice;
      choice.fn = fn;
      choice.isa = KernelIsa::AVX2;
      choice.variant = KernelVariant::Specialized;
      choice.fma = r.fma;
      choice.banded = request.banded;
      choice.rotated = true;
      choice.ntaps = request.ntaps;
      return choice;
    }
  }
  return select_kernel_isa(r.isa, r.fma, request.ntaps, request.banded,
                           r.variant);
}

std::string explain_kernel_choice(KernelPolicy policy, int ntaps, bool banded) {
  KernelRequest request;
  request.ntaps = ntaps;
  request.banded = banded;
  return explain_kernel_choice(policy, request);
}

std::string explain_kernel_choice(KernelPolicy policy,
                                  const KernelRequest& request) {
  const int ntaps = request.ntaps;
  const bool banded = request.banded;
  const CpuFeatures& cpu = CpuFeatures::host();
  const Resolution r = resolve_policy(policy);
  const KernelChoice choice = select_kernel(policy, request);
  auto yn = [](bool b) { return b ? "yes" : "no"; };

  std::ostringstream os;
  os << "kernel engine:\n"
     << "  CPU features (cpuid)    : sse2=" << yn(cpu.sse2)
     << " avx2=" << yn(cpu.avx2) << " fma=" << yn(cpu.fma) << '\n'
     << "  compiled ISAs           : scalar"
     << (kernel_isa_compiled(KernelIsa::SSE2) ? " sse2" : "")
     << (kernel_isa_compiled(KernelIsa::AVX2) ? " avx2" : "") << '\n'
     << "  policy                  : " << to_string(policy) << '\n'
     << "  tap count               : " << ntaps << " ("
     << (banded ? "banded" : "constant") << " coefficients, "
     << (choice.variant == KernelVariant::Specialized
             ? "fully unrolled specialization"
             : choice.variant == KernelVariant::Legacy
                   ? "legacy pre-engine kernel"
                   : "generic runtime-taps kernel")
     << ")\n"
     << "  selected kernel         : " << choice.name() << '\n'
     << "  why                     : ";
  if (r.downgraded)
    os << "policy '" << to_string(policy)
       << "' exceeds what this host supports; downgraded to the widest "
          "available ISA";
  else if (policy == KernelPolicy::Auto)
    os << "auto picks the widest ISA the host supports";
  else if (policy == KernelPolicy::GenericSimd)
    os << "generic keeps the pre-engine legacy kernel as a benchmarking "
          "baseline";
  else
    os << "policy forced";
  os << '\n'
     << "  row loads               : "
     << (choice.rotated
             ? "in-register rotation (one aligned load per cache line)"
             : "per-tap vector loads")
     << '\n'
     << "  bit-exact vs scalar     : " << yn(!choice.fma)
     << (choice.fma ? " (FMA contracts mul+add; use for wall-clock runs only)"
                    : "")
     << '\n';
  return os.str();
}
}  // namespace nustencil::core
