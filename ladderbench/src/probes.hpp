// Per-layer probes of the traced run.  Each one times the benchmark's own
// calls into one layer's public functions; none adds a hook to the
// library.
#pragma once

#include "core/kernels.hpp"
#include "solve.hpp"

namespace ladderbench {

/// L0: Gupdate/s of `kernel` (the one the workload's solves select) over
/// cache-resident interior rows of the workload's x extent, median of
/// timed batches.
double kernel_row_gups(const Inputs& in, const nustencil::core::KernelChoice& kernel);

/// L1 executor throughput on one pinned thread, median over steps.
struct ExecutorRates {
  double sweep_gups = 0.0;  ///< whole-domain update_box per step
  double tile_gups = 0.0;   ///< nuCATS box shape: (nx, tile_width_y, 1)
  double alloc_s = 0.0;     ///< Problem constructor
  double init_s = 0.0;      ///< Problem::initialize(seed)
};
ExecutorRates executor_rates(const Inputs& in, nustencil::Index tile_width_y);

/// Round trip of a 2-party threading::Barrier between pinned cores 0/1.
double barrier_round_trip_ns();

/// ProgressCounter advance_to -> wait_for ping-pong round trip between
/// pinned cores 0/1.
double progress_round_trip_ns();

/// STREAM-style triad a = b + s*c on `threads` pinned workers over three
/// arrays of `elements` doubles, counting 24 bytes per element.
double triad_gibps(nustencil::Index elements, int threads);

}  // namespace ladderbench
