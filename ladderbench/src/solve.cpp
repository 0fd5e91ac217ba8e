#include "solve.hpp"

#include <cstring>
#include <exception>
#include <optional>
#include <ostream>

#include "common/timer.hpp"
#include "core/executor.hpp"
#include "metrics/registry.hpp"
#include "prof/progress.hpp"
#include "telemetry/sampler.hpp"
#include "trace/trace.hpp"

namespace ladderbench {

namespace core = nustencil::core;
namespace schemes = nustencil::schemes;
using nustencil::Index;

namespace {

/// Swallows the progress meter's and the sampler's diagnostics: a solve
/// must not print, and no heartbeat is attached anyway.
std::ostream& null_stream() {
  static std::ostream sink(nullptr);
  return sink;
}

void flip_one_bit(double* cell) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, cell, sizeof bits);
  bits ^= 1;
  std::memcpy(cell, &bits, sizeof bits);
}

}  // namespace

core::Boundary boundary_for(const std::string& legend) {
  core::Boundary bc = core::Boundary::periodic();
  if (legend == "nuCATS") bc[2] = core::BoundaryKind::Dirichlet;
  return bc;
}

Index expected_updates(const Inputs& in, const core::Boundary& bc) {
  const core::Box box =
      core::updatable_box(in.shape, core::StencilSpec::paper_3d7p(), bc);
  Index volume = 1;
  for (int d = 0; d < box.rank(); ++d) volume *= box.hi[d] - box.lo[d];
  return volume * static_cast<Index>(in.steps);
}

std::uint64_t field_digest(const core::Field& f) {
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;  // FNV-1a 64-bit prime
  constexpr int kLanes = 4;  // independent chains, so the loop is not latency-bound
  std::uint64_t lane[kLanes] = {0xcbf29ce484222325ULL, 0x84222325cbf29ce4ULL,
                                0x9e3779b97f4a7c15ULL, 0xc2b2ae3d27d4eb4fULL};
  const double* data = f.data();
  const Index n = f.storage_volume();
  for (Index i = 0; i < n; ++i) {
    std::uint64_t w = 0;
    std::memcpy(&w, data + i, sizeof w);
    std::uint64_t& h = lane[i % kLanes];
    h = (h ^ w) * kPrime;
  }
  std::uint64_t h = static_cast<std::uint64_t>(n);
  for (const std::uint64_t l : lane) h = (h ^ l) * kPrime;
  return h;
}

Reference make_reference(const Inputs& in, const core::Boundary& bc) {
  Reference ref;
  nustencil::Timer timer;
  core::Problem problem(in.shape, core::StencilSpec::paper_3d7p());
  ref.alloc_s = timer.seconds();
  timer.reset();
  problem.initialize(in.seed);
  ref.init_s = timer.seconds();
  ref.kernel = core::Executor(problem).kernel();

  // Frozen Dirichlet cells keep their initial values in both buffers.
  std::memcpy(problem.buffer(1).data(), problem.buffer(0).data(),
              static_cast<std::size_t>(problem.storage_volume()) * sizeof(double));
  const core::Box box =
      core::updatable_box(in.shape, problem.stencil(), bc);
  core::Executor exec(problem, {}, core::KernelPolicy::Scalar);
  for (long t = 0; t < in.steps; ++t) exec.update_box(box, t, /*tid=*/0);
  ref.digest = field_digest(problem.buffer(in.steps));
  return ref;
}

Solver::Solver(const Inputs& in)
    : in_(in),
      periodic_(make_reference(in, core::Boundary::periodic())),
      dirichlet_(make_reference(in, boundary_for("nuCATS"))) {}

Solve Solver::run(const std::string& legend, int threads, const Observe& observe) {
  ++attempted_;
  Solve s;
  const core::Boundary bc = boundary_for(legend);

  schemes::RunConfig cfg;
  cfg.num_threads = threads;
  cfg.timesteps = in_.steps;
  cfg.boundary = bc;
  cfg.pin_threads = true;
  cfg.seed = in_.seed;
  cfg.instrument = observe.numa;  // on the default (xeon) machine
  cfg.collect_phase_metrics = observe.phases;

  // The caller-owned observability objects, built before the clock starts
  // exactly as a CLI run builds them before constructing its Problem.
  std::optional<nustencil::trace::Trace> trace;
  std::optional<nustencil::metrics::Registry> registry;
  std::optional<nustencil::prof::ProgressMeter> progress;
  std::optional<nustencil::telemetry::Sampler> sampler;
  if (observe.trace) {
    trace.emplace();
    cfg.trace = &*trace;
    cfg.profile_spans = true;
  }
  if (observe.metrics) {
    registry.emplace(threads);
    cfg.metrics = &*registry;
  }
  if (observe.telemetry) {
    nustencil::telemetry::Config tcfg;
    tcfg.label = legend;
    progress.emplace(tcfg.interval_s, null_stream());
    progress->begin_run(legend, threads,
                        static_cast<std::uint64_t>(expected_updates(in_, bc)));
    cfg.progress = &*progress;
    sampler.emplace(tcfg, null_stream());
    cfg.telemetry = &*sampler;
  }

  try {
    const auto scheme = schemes::make_scheme(legend);
    const nustencil::Timer timer;
    core::Problem problem(in_.shape, core::StencilSpec::paper_3d7p());
    s.result = scheme->run(problem, cfg);
    s.wall_s = timer.seconds();
    s.setup_s = s.wall_s - s.result.seconds;

    core::Field& final_field = problem.buffer(in_.steps);
    if (attempted_ == corrupt_at_)
      flip_one_bit(final_field.data() + final_field.storage_volume() / 2);
    const Index want = expected_updates(in_, bc);
    const std::uint64_t digest =
        (bc[2] == core::BoundaryKind::Dirichlet ? dirichlet_ : periodic_).digest;
    if (s.result.updates != want)
      s.error = "updates " + std::to_string(s.result.updates) + " != " +
                std::to_string(want);
    else if (field_digest(final_field) != digest)
      s.error = "final field differs from the reference";
    else
      s.ok = true;
  } catch (const std::exception& e) {
    s.error = std::string("threw: ") + e.what();
  }
  if (!s.ok) ++failed_;
  return s;
}

}  // namespace ladderbench
