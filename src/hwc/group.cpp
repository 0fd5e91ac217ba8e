#include "hwc/group.hpp"

#include <iomanip>
#include <sstream>

#include "common/error.hpp"

namespace nustencil::hwc {
namespace {

/// Scaling factor of one reading: time_enabled / time_running.  A group
/// that never ran (tr == 0) reports 1.0 — there is nothing to scale.
double scaling_of(const GroupReading& r) {
  return r.time_running > 0
             ? static_cast<double>(r.time_enabled) /
                   static_cast<double>(r.time_running)
             : 1.0;
}

}  // namespace

ThreadSet::ThreadSet(SyscallBackend& backend, Mode mode,
                     std::vector<Event> requested, int num_threads)
    : backend_(&backend), mode_(mode) {
  probe_.mode = mode;
  probe_.backend = backend.name();
  if (mode == Mode::Off) return;  // zero syscalls in Off mode
  probe_.enabled = true;
  probe_.paranoid = backend.paranoid_level();
  if (requested.empty()) requested = default_events();

  // Probe each event once on the calling thread.  The probe fd is
  // closed immediately; its only job is to learn whether open succeeds
  // and, if not, why — before any worker commits to a group layout.
  std::vector<std::pair<std::string, std::string>> misses;  // names, reason
  for (const Event e : requested) {
    HwRunStats::EventStatus s;
    s.event = e;
    s.optional_event = event_is_optional(e);
    const int fd = backend.open(e, -1);
    if (fd >= 0) {
      backend.close(fd);
      s.available = true;
      events_.push_back(e);
    } else {
      s.reason = errno_reason(fd, probe_.paranoid);
      if (!s.optional_event) {
        // Group missing events that share a cause into one clause, so
        // "no vPMU" reads once, not once per event.
        bool merged = false;
        for (auto& [names, reason] : misses)
          if (reason == s.reason) {
            names += ", " + std::string(event_name(e));
            merged = true;
            break;
          }
        if (!merged) misses.emplace_back(event_name(e), s.reason);
      }
    }
    probe_.events.push_back(s);
  }
  std::string missing;
  for (const auto& [names, reason] : misses) {
    if (!missing.empty()) missing += "; ";
    missing += names + ": " + reason;
  }
  active_ = !events_.empty();

  if (!backend.supported()) {
    probe_.status = "degraded";
    probe_.reason = "no counter backend in this build";
  } else if (!active_) {
    probe_.status = "degraded";
    probe_.reason = missing.empty() ? "no requested event is measurable"
                                    : missing;
  } else if (!missing.empty()) {
    probe_.status = "degraded";
    probe_.reason = "unavailable events — " + missing;
  } else {
    probe_.status = "ok";
  }

  threads_ = std::vector<PerThread>(static_cast<std::size_t>(num_threads));
}

ThreadSet::~ThreadSet() {
  for (PerThread& t : threads_)
    for (const SubGroup& g : t.groups) {
      // Close siblings before the leader; the backend holds the group
      // together via the leader fd.
      for (std::size_t i = g.members.size(); i-- > 1;) backend_->close(g.fds[i]);
      backend_->close(g.leader_fd);
    }
}

void ThreadSet::open_thread(PerThread& t) {
  for (const Event e : events_) {
    int fd = -1;
    if (!t.groups.empty()) {
      // Preferred: one group, one grouped read for every event.
      fd = backend_->open(e, t.groups.front().leader_fd);
      if (fd >= 0) {
        t.groups.front().members.push_back(e);
        t.groups.front().fds.push_back(fd);
        continue;
      }
    }
    // First event, or the PMU cannot co-schedule this one (ENOSPC,
    // mixed-type restrictions): give it a group of its own.
    fd = backend_->open(e, -1);
    if (fd < 0) continue;  // probed fine but lost at run time; slot stays 0
    SubGroup g;
    g.leader_fd = fd;
    g.members.push_back(e);
    g.fds.push_back(fd);
    t.groups.push_back(std::move(g));
  }
  t.opened.store(true, std::memory_order_release);
}

void ThreadSet::attach(int tid) {
  if (!active_) return;
  PerThread& t = threads_[static_cast<std::size_t>(tid)];
  if (!t.opened.load(std::memory_order_relaxed)) open_thread(t);
  if (t.enabled) return;
  for (const SubGroup& g : t.groups) backend_->enable(g.leader_fd);
  t.enabled = true;
}

void ThreadSet::detach(int tid) {
  if (!active_) return;
  PerThread& t = threads_[static_cast<std::size_t>(tid)];
  if (!t.enabled) return;
  for (const SubGroup& g : t.groups) backend_->disable(g.leader_fd);
  t.enabled = false;
}

void ThreadSet::sample(int tid, trace::CounterSet& out) const {
  if (!active_) return;
  const PerThread& t = threads_[static_cast<std::size_t>(tid)];
  // Not opened yet: e.g. serial init on the main thread.
  if (!t.opened.load(std::memory_order_acquire)) return;
  GroupReading r;
  for (const SubGroup& g : t.groups) {
    if (backend_->read_group(g.leader_fd, static_cast<int>(g.members.size()),
                             r) != 0)
      continue;
    for (std::size_t i = 0; i < g.members.size(); ++i)
      out.at(event_slot(g.members[i])) = r.values[i];
  }
}

HwRunStats ThreadSet::stats() const {
  HwRunStats s = probe_;
  if (mode_ == Mode::Off) return s;
  s.threads.resize(threads_.size());
  for (std::size_t tid = 0; tid < threads_.size(); ++tid) {
    const PerThread& t = threads_[tid];
    HwRunStats::Thread& out = s.threads[tid];
    if (!t.opened.load(std::memory_order_acquire)) continue;
    GroupReading r;
    for (const SubGroup& g : t.groups) {
      if (backend_->read_group(g.leader_fd, static_cast<int>(g.members.size()),
                               r) != 0)
        continue;
      for (std::size_t i = 0; i < g.members.size(); ++i)
        out.total[static_cast<std::size_t>(g.members[i])] = r.values[i];
      const double scale = scaling_of(r);
      if (scale > out.scaling) out.scaling = scale;
      if (r.time_running < r.time_enabled) out.multiplexed = true;
    }
    for (int ev = 0; ev < kNumEvents; ++ev)
      s.totals[static_cast<std::size_t>(ev)] +=
          out.total[static_cast<std::size_t>(ev)];
  }
  return s;
}

std::string describe_hw(Mode mode, const std::vector<Event>& requested,
                        SyscallBackend& backend) {
  std::ostringstream os;
  auto label = [&](const std::string& name) -> std::ostream& {
    os << "  " << std::left << std::setw(24) << name << ": ";
    return os;
  };
  os << "hardware counters:\n";
  if (mode == Mode::Off) {
    label("mode") << "off (no syscalls; enable with --hw-counters=auto)\n";
    return os.str();
  }
  // Probe without threads: opens and closes one fd per event.
  ThreadSet probe(backend, mode, requested, /*num_threads=*/0);
  const HwRunStats& p = probe.probe();
  label("mode") << mode_name(mode) << '\n';
  label("backend") << p.backend << '\n';
  label("perf_event_paranoid")
      << (p.paranoid >= 0 ? std::to_string(p.paranoid) : "unknown") << '\n';
  std::string names;
  for (const auto& e : p.events) {
    if (!names.empty()) names += ", ";
    names += event_name(e.event);
    if (e.optional_event) names += " (optional)";
  }
  label("events") << names << '\n';
  for (const auto& e : p.events)
    if (!e.available)
      label(std::string("  ") + event_name(e.event))
          << "unavailable — " << e.reason << '\n';
  label("status") << p.status
                  << (p.reason.empty() ? "" : " — " + p.reason) << '\n';
  if (p.status != "ok")
    os << "  (degradation is graceful: the run still succeeds and the "
          "report records hw.status)\n";
  return os.str();
}

}  // namespace nustencil::hwc
