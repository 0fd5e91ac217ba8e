// Per-thread hardware counter groups and the run-level hw statistics.
//
// A ThreadSet owns one counter group per worker thread.  The fds are
// opened lazily from each worker itself — perf_event_open with pid=0
// binds the counter to the *calling* thread — and stay open for the
// whole run because the team's workers are persistent.  attach()/
// detach() bracket each parallel region with one enable/disable ioctl
// per group (not per span); inside the region the probe set samples the
// cumulative values at leaf-span boundaries, so measured deltas ride
// the exact out-of-ring accumulation the simulated counters use.
//
// Two totals come out of that split:
//   attributed — the sum of every Tile/Init span delta (equals the
//                trace's counter totals exactly, by construction), and
//   total      — the full enabled-region counts from the final read.
// Their difference is real and reported: cycles spent in barriers,
// spin-waits and scheduling are measured but belong to no compute span.
//
// Multiplexing is surfaced, never hidden: when the kernel time-shares
// the PMU, time_running < time_enabled and the per-thread scaling
// factor (enabled/running) is reported alongside the *raw* counts.  No
// value is silently multiplied up.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "hwc/backend.hpp"
#include "hwc/events.hpp"

namespace nustencil::hwc {

/// Everything the run report's "hw" section serialises.
struct HwRunStats {
  bool enabled = false;  ///< mode != off
  Mode mode = Mode::Off;
  std::string backend;        ///< backend name ("perf_event_open", "fake")
  std::string status = "off";  ///< "off" | "ok" | "degraded"
  std::string reason;          ///< why, when degraded
  int paranoid = -1;           ///< /proc/sys/kernel/perf_event_paranoid

  struct EventStatus {
    Event event = Event::Cycles;
    bool available = false;
    bool optional_event = false;  ///< absence does not degrade the run
    std::string reason;           ///< open failure explanation
  };
  std::vector<EventStatus> events;  ///< the requested set, in order

  struct Thread {
    double scaling = 1.0;      ///< time_enabled / time_running (>= 1)
    bool multiplexed = false;  ///< scaling > 1 on the final read
    std::array<std::uint64_t, kNumEvents> total{};       ///< enabled-region counts
    std::array<std::uint64_t, kNumEvents> attributed{};  ///< sum of span deltas
  };
  std::vector<Thread> threads;

  std::array<std::uint64_t, kNumEvents> totals{};      ///< sum of threads' total
  std::array<std::uint64_t, kNumEvents> attributed{};  ///< sum of threads' attributed

  /// Simulated-vs-measured cross-check: per-span cachesim misses against
  /// the measured cache-misses delta of the same span, with the Spearman
  /// rank correlation as the headline.
  struct Validation {
    std::string status;  ///< "ok" or why the check could not run
    int n = 0;           ///< spans with both values
    double spearman = 0.0;
    std::vector<std::array<double, 2>> points;  ///< {sim, measured}, capped
  };
  std::optional<Validation> validation;

  bool available(Event e) const {
    for (const EventStatus& s : events)
      if (s.event == e) return s.available;
    return false;
  }
  /// True when the run measured anything at all.
  bool any_available() const {
    for (const EventStatus& s : events)
      if (s.available) return true;
    return false;
  }
  double max_scaling() const {
    double m = 1.0;
    for (const Thread& t : threads) m = t.scaling > m ? t.scaling : m;
    return m;
  }
};

/// The per-thread counter groups of one run.
class ThreadSet {
 public:
  /// Probes each requested event once (open+close on the calling
  /// thread), fixes the per-run event set and the degradation status.
  /// No syscalls happen at all when `mode` is Off.
  ThreadSet(SyscallBackend& backend, Mode mode, std::vector<Event> requested,
            int num_threads);

  /// Closes every fd (safe from any thread once workers have joined).
  ~ThreadSet();

  ThreadSet(const ThreadSet&) = delete;
  ThreadSet& operator=(const ThreadSet&) = delete;

  /// True when at least one event survived the probe (sampling and
  /// attach are no-ops otherwise).
  bool active() const { return active_; }

  /// Call from worker `tid` at the start of a parallel region: opens the
  /// thread's group on first use, then enables it (one ioctl).
  void attach(int tid);

  /// Call from worker `tid` (or after joining) at the end of a region:
  /// disables the group.  The fds stay open for the next region.
  void detach(int tid);

  /// Cumulative counter read into the hw slots of `out` (other slots
  /// untouched).  Safe from any thread: the run's probe set calls it at
  /// leaf-span boundaries and from the telemetry sampler.
  void sample(int tid, trace::CounterSet& out) const;

  /// Final per-thread reads folded into the run stats (attributed totals
  /// are filled in by the caller from the trace).  Call after workers
  /// have joined.
  HwRunStats stats() const;

  /// The probe outcome without the per-thread totals (for --explain).
  const HwRunStats& probe() const { return probe_; }

 private:
  struct SubGroup {
    int leader_fd = -1;
    std::vector<Event> members;  ///< open order == read order
    std::vector<int> fds;        ///< parallel to members; fds[0] == leader_fd
  };
  struct PerThread {
    /// Set (release) by the worker once `groups` is built, so a sampler
    /// on another thread that sees it (acquire) also sees the groups.
    std::atomic<bool> opened{false};
    bool enabled = false;
    std::vector<SubGroup> groups;
  };

  SyscallBackend* backend_;
  Mode mode_;
  std::vector<Event> events_;  ///< probe-approved, open order
  bool active_ = false;
  HwRunStats probe_;           ///< status/reason/events, no thread data
  std::vector<PerThread> threads_;

  void open_thread(PerThread& t);
};

/// Human-readable "hardware counters" block for `nustencil --explain`.
std::string describe_hw(Mode mode, const std::vector<Event>& requested,
                        SyscallBackend& backend);

}  // namespace nustencil::hwc
