// One solve: a fresh core::Problem run through schemes::make_scheme(...)
// ->run(), timed and checked bit for bit against the reference executor.
#pragma once

#include <cstdint>
#include <string>

#include "core/boundary.hpp"
#include "core/field.hpp"
#include "core/kernels.hpp"
#include "schemes/scheme.hpp"

namespace ladderbench {

/// The problem every solve of a run starts from.
struct Inputs {
  nustencil::Coord shape;
  long steps = 0;
  unsigned seed = 0;  ///< the only thing the program learns from --seed
};

/// nuCATS needs z-Dirichlet boundaries (as the CLI gives it); every other
/// scheme runs periodic.
nustencil::core::Boundary boundary_for(const std::string& legend);

/// Cell updates a correct solve performs: the updatable box's volume
/// times the step count.
nustencil::Index expected_updates(const Inputs& in,
                                  const nustencil::core::Boundary& bc);

/// 64-bit digest of every stored value of `f`.  Each word passes through
/// an xor-multiply step that is a bijection of the running state, so two
/// fields that differ in exactly one cell never share a digest.
std::uint64_t field_digest(const nustencil::core::Field& f);

/// The reference for one boundary kind: the final field of the reference
/// executor (a single-threaded scalar core::Executor sweeping the
/// updatable box), kept as a digest, and what building its problem shows.
struct Reference {
  std::uint64_t digest = 0;
  double alloc_s = 0.0;  ///< Problem constructor
  double init_s = 0.0;   ///< Problem::initialize(seed)
  /// The row kernel a default core::Executor selects for this problem:
  /// the one every solve's interior rows run through.
  nustencil::core::KernelChoice kernel;
};

Reference make_reference(const Inputs& in, const nustencil::core::Boundary& bc);

/// Observability sources a solve turns on.  The cache simulator is never
/// used: it is validation-only and about 60x slower.
struct Observe {
  bool numa = false;       ///< first-touch page table + traffic recorder
  bool trace = false;      ///< span trace + per-span attribution
  bool metrics = false;    ///< metrics::Registry dispatch counters
  bool telemetry = false;  ///< live sampler at its default interval
  bool phases = false;     ///< per-phase wall-time totals (RunResult.phases)

  static Observe all() {
    return {.numa = true, .trace = true, .metrics = true, .telemetry = true, .phases = true};
  }
};

struct Solve {
  bool ok = false;       ///< ran, updates as expected, field matches
  std::string error;     ///< why not, when !ok
  double setup_s = 0.0;  ///< Problem construction to compute start
  double wall_s = 0.0;   ///< Problem construction to run() return
  nustencil::schemes::RunResult result;

  double gups() const { return result.gupdates_per_second(); }
};

/// Runs and checks solves on one Inputs, counting attempts and failures.
class Solver {
 public:
  /// Computes both references up front (periodic, z-Dirichlet).
  explicit Solver(const Inputs& in);

  Solve run(const std::string& legend, int threads, const Observe& observe = {});

  const Inputs& inputs() const { return in_; }
  const Reference& periodic() const { return periodic_; }
  const Reference& dirichlet() const { return dirichlet_; }
  int attempted() const { return attempted_; }
  int failed() const { return failed_; }

  /// Test hook: flip one bit of the finished field of the n-th solve
  /// (1-based; 0 = never), before it is checked.
  void corrupt_solve(int n) { corrupt_at_ = n; }

 private:
  Inputs in_;
  Reference periodic_;
  Reference dirichlet_;
  int attempted_ = 0;
  int failed_ = 0;
  int corrupt_at_ = 0;
};

}  // namespace ladderbench
