#include "prof/progress.hpp"

#include <iomanip>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "prof/probes.hpp"

namespace nustencil::prof {

ProgressMeter::ProgressMeter(double interval_s, std::ostream& os)
    : interval_s_(interval_s), os_(&os) {
  NUSTENCIL_CHECK(interval_s > 0.0, "ProgressMeter: interval must be positive");
}

void ProgressMeter::begin_run(const std::string& label, int num_threads,
                              std::uint64_t total_updates) {
  NUSTENCIL_CHECK(num_threads >= 1, "ProgressMeter: need at least one thread");
  label_ = label;
  total_updates_ = total_updates;
  last_updates_ = 0;
  last_beat_ = std::chrono::steady_clock::now();
}

std::string ProgressMeter::render_line() {
  std::uint64_t updates = 0, local = 0, remote = 0;
  long layer = -1;
  if (probes_) {
    trace::CounterSet c;
    for (int t = 0; t < probes_->num_threads(); ++t) {
      probes_->snapshot(t, c);
      updates += c.at(trace::SpanCounter::Updates);
      local += c.at(trace::SpanCounter::LocalBytes);
      remote += c.at(trace::SpanCounter::RemoteBytes);
    }
    layer = probes_->layer();
  }
  const auto now = std::chrono::steady_clock::now();
  const double dt = std::chrono::duration<double>(now - last_beat_).count();
  const double mups =
      dt > 0.0 ? static_cast<double>(updates - last_updates_) / dt * 1e-6 : 0.0;
  last_updates_ = updates;
  last_beat_ = now;
  const std::uint64_t owned = local + remote;
  const double locality =
      owned == 0 ? 100.0
                 : static_cast<double>(local) / static_cast<double>(owned) * 100.0;

  std::ostringstream line;
  line << "progress";
  if (!label_.empty()) line << " [" << label_ << ']';
  line << ": ";
  if (layer >= 0) line << "layer " << layer << " | ";
  line << std::fixed << std::setprecision(1) << mups << " M up/s | locality "
       << std::setprecision(1) << locality << '%';
  if (total_updates_ > 0)
    line << " | " << std::setprecision(1)
         << static_cast<double>(updates) / static_cast<double>(total_updates_) *
                100.0
         << "% done";
  return line.str();
}

void ProgressMeter::emit_beat() { *os_ << render_line() << std::endl; }

void ProgressMeter::emit_final() {
  // One closing beat so runs shorter than the interval still report.
  *os_ << render_line() << " (final)" << std::endl;
}

}  // namespace nustencil::prof
