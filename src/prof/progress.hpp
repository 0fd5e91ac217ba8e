// The --progress heartbeat line renderer ("layer N | X.X M up/s |
// locality Y.Y%").
//
// The meter stores no counters of its own: RunSupport binds it to the
// run's probe set, and every line sums the threads' probe snapshots, so
// the heartbeat reads exactly what the trace spans and the telemetry
// sampler read.  There is exactly one periodic-snapshot thread in the
// system: the telemetry::Sampler drives emit_beat()/emit_final() on its
// own cadence.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace nustencil::prof {

class Probes;

class ProgressMeter {
 public:
  /// Heartbeats render onto `os` every `interval_s` seconds (the caller
  /// that drives emit_beat honours the interval; the meter validates it).
  ProgressMeter(double interval_s, std::ostream& os);

  ProgressMeter(const ProgressMeter&) = delete;
  ProgressMeter& operator=(const ProgressMeter&) = delete;

  /// Resets the rate window for a new run.  `label` prefixes every line;
  /// `total_updates` (0 = unknown) adds a percent-done column.
  void begin_run(const std::string& label, int num_threads,
                 std::uint64_t total_updates);

  /// The probe set the lines are read from (RunSupport binds the run's
  /// own for its lifetime); null reads as an idle run.
  void bind(const Probes* probes) { probes_ = probes; }

  /// One heartbeat line onto the configured stream; emit_final appends
  /// the " (final)" marker so runs shorter than the interval still
  /// report.  Call from one driver thread only (the rate window is
  /// stateful).
  void emit_beat();
  void emit_final();

  /// The current heartbeat line (sampled now); exposed for tests and the
  /// emit_* helpers.
  std::string render_line();

  /// Configured heartbeat cadence.
  double interval_s() const { return interval_s_; }

 private:
  double interval_s_;
  std::ostream* os_;
  std::string label_;
  std::uint64_t total_updates_ = 0;
  const Probes* probes_ = nullptr;

  // Rate window state (heartbeat driver thread only).
  std::uint64_t last_updates_ = 0;
  std::chrono::steady_clock::time_point last_beat_{};
};

}  // namespace nustencil::prof
