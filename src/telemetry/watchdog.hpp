// Stall watchdog: flags workers whose update count stops advancing.
//
// The sampler feeds one cumulative per-thread snapshot per tick.  A
// thread whose update count is unchanged for `stall_intervals`
// consecutive ticks is declared stalled; the watchdog then synthesises
// one prof::SpanRecord covering the stalled window from the counter
// deltas since the thread last advanced and reuses prof::attribute() —
// the same compute/remote/miss/spin thresholds the straggler table is
// judged by — so the live diagnosis and the post-mortem one agree by
// construction.  Each stall episode fires exactly once; a thread that
// resumes re-arms.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "prof/attribution.hpp"

namespace nustencil::telemetry {

enum class WatchdogAction : std::uint8_t {
  Warn,   ///< diagnose to stderr + event log, keep running
  Abort,  ///< also trigger the run's abort token (nonzero exit for CI)
};

/// Case-insensitive "warn" / "abort"; throws a one-line Error otherwise.
WatchdogAction parse_watchdog_action(const std::string& text);
const char* watchdog_action_name(WatchdogAction a);

/// One thread's cumulative state at a sampler tick (all monotone).
struct ThreadCumulative {
  std::uint64_t updates = 0;
  std::uint64_t local_bytes = 0;
  std::uint64_t remote_bytes = 0;
  std::uint64_t unowned_bytes = 0;
  std::uint64_t llc_hits = 0;     ///< deepest simulated cache level
  std::uint64_t llc_misses = 0;
  std::int64_t wait_ns = 0;       ///< barrier-wait + spinflag-wait total
  std::uint64_t wait_spans = 0;   ///< wait spans completed
  std::uint64_t spins = 0;        ///< spin-loop iterations
  std::uint64_t leaf_spans = 0;   ///< leaf spans completed (any phase)
  std::string last_phase;         ///< most recently active leaf phase
};

/// The live dump of one stalled worker.
struct StallDiagnosis {
  int tid = 0;
  int stalled_intervals = 0;
  double window_s = 0.0;          ///< wall time since the thread last advanced
  std::uint64_t updates = 0;      ///< cumulative updates, frozen at the stall
  prof::Attribution why;          ///< verdict + evidence over the window
  std::uint64_t window_wait_spans = 0;
  std::uint64_t window_spins = 0;
  std::uint64_t window_remote_bytes = 0;
  std::uint64_t window_misses = 0;
  bool no_spans_completed = false;  ///< stuck inside one span (e.g. a wait)
  std::string last_phase;

  /// One-paragraph stderr dump ("action" names the configured response).
  std::string render(const std::string& action) const;
};

class Watchdog {
 public:
  /// Fires when a thread's updates are unchanged for `stall_intervals`
  /// consecutive ticks (>= 1).
  Watchdog(int stall_intervals, WatchdogAction action);

  WatchdogAction action() const { return action_; }
  int stall_intervals() const { return stall_intervals_; }
  int stall_events() const { return events_; }

  void begin_run(int num_threads, std::int64_t t0_ns);

  /// One sampler tick.  Returns the diagnoses of threads that crossed
  /// the stall threshold on this tick (at most one per episode).
  std::vector<StallDiagnosis> tick(std::int64_t t_ns,
                                   const std::vector<ThreadCumulative>& cum);

 private:
  struct PerThread {
    ThreadCumulative at_advance;   ///< snapshot when updates last moved
    std::int64_t advance_t_ns = 0;
    int stuck_ticks = 0;
    bool fired = false;
  };

  StallDiagnosis diagnose(int tid, std::int64_t t_ns,
                          const ThreadCumulative& now,
                          const PerThread& state) const;

  int stall_intervals_;
  WatchdogAction action_;
  int events_ = 0;
  std::vector<PerThread> threads_;
};

}  // namespace nustencil::telemetry
