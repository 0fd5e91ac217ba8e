#include "trace/trace.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/error.hpp"

namespace nustencil::trace {

const char* span_counter_name(SpanCounter c) {
  switch (c) {
    case SpanCounter::Updates: return "updates";
    case SpanCounter::LocalBytes: return "local_bytes";
    case SpanCounter::RemoteBytes: return "remote_bytes";
    case SpanCounter::UnownedBytes: return "unowned_bytes";
    case SpanCounter::L1Hits: return "l1_hits";
    case SpanCounter::L1Misses: return "l1_misses";
    case SpanCounter::L2Hits: return "l2_hits";
    case SpanCounter::L2Misses: return "l2_misses";
    case SpanCounter::L3Hits: return "l3_hits";
    case SpanCounter::L3Misses: return "l3_misses";
    case SpanCounter::HwCycles: return "hw_cycles";
    case SpanCounter::HwInstructions: return "hw_instructions";
    case SpanCounter::HwCacheRefs: return "hw_cache_refs";
    case SpanCounter::HwCacheMisses: return "hw_cache_misses";
    case SpanCounter::HwStalledCycles: return "hw_stalled_cycles";
    case SpanCounter::HwTaskClock: return "hw_task_clock_ns";
    case SpanCounter::HwPageFaults: return "hw_page_faults";
    case SpanCounter::kCount: break;
  }
  return "?";
}

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::Init: return "init";
    case Phase::Tile: return "tile";
    case Phase::BarrierWait: return "barrier-wait";
    case Phase::SpinWait: return "spinflag-wait";
    case Phase::Parallelogram: return "parallelogram";
    case Phase::Layer: return "layer";
    case Phase::Steal: return "steal";
    case Phase::kCount: break;
  }
  return "?";
}

std::vector<Event> ThreadRecorder::events() const {
  std::vector<Event> out;
  if (capacity_ == 0 || recorded_ == 0) return out;
  const std::size_t held = std::min<std::uint64_t>(recorded_, capacity_);
  out.reserve(held);
  // Oldest surviving event sits at next_ once the ring has wrapped.
  const std::size_t first = recorded_ > capacity_ ? next_ : 0;
  for (std::size_t k = 0; k < held; ++k)
    out.push_back(ring_[(first + k) % capacity_]);
  return out;
}

void Trace::begin_run(int num_threads) {
  NUSTENCIL_CHECK(num_threads >= 1, "Trace::begin_run: need at least one thread");
  const auto epoch = std::chrono::steady_clock::now();
  threads_ = std::vector<ThreadRecorder>(static_cast<std::size_t>(num_threads));
  for (int tid = 0; tid < num_threads; ++tid) {
    ThreadRecorder& rec = threads_[static_cast<std::size_t>(tid)];
    rec.epoch_ = epoch;
    rec.tid_ = tid;
    rec.sampler_ = sampler_;
    rec.capacity_ = events_per_thread_;
    rec.ring_.resize(events_per_thread_);
  }
}

double PhaseBreakdown::total_s(Phase p) const {
  double sum = 0.0;
  for (const Thread& t : threads) sum += t.seconds[static_cast<std::size_t>(p)];
  return sum;
}

double PhaseBreakdown::imbalance() const {
  if (threads.empty()) return 1.0;
  double max = 0.0, sum = 0.0;
  for (const Thread& t : threads) {
    max = std::max(max, t.busy_s());
    sum += t.busy_s();
  }
  const double mean = sum / static_cast<double>(threads.size());
  return mean > 0.0 ? max / mean : 1.0;
}

PhaseBreakdown Trace::breakdown() const {
  PhaseBreakdown out;
  out.enabled = !threads_.empty();
  out.threads.resize(threads_.size());
  for (std::size_t i = 0; i < threads_.size(); ++i) {
    const ThreadRecorder& rec = threads_[i];
    PhaseBreakdown::Thread& t = out.threads[i];
    for (int p = 0; p < kNumPhases; ++p) {
      const auto phase = static_cast<Phase>(p);
      t.seconds[static_cast<std::size_t>(p)] =
          static_cast<double>(rec.total_ns(phase)) * 1e-9;
      t.spans[static_cast<std::size_t>(p)] = rec.span_count(phase);
      t.spins += rec.spin_count(phase);
    }
    t.dropped = rec.dropped();
  }
  return out;
}

namespace {

const char* phase_category(Phase p) {
  switch (p) {
    case Phase::Init: return "init";
    case Phase::Tile: return "compute";
    case Phase::BarrierWait:
    case Phase::SpinWait: return "wait";
    case Phase::Parallelogram:
    case Phase::Layer: return "structure";
    case Phase::Steal: return "steal";
    case Phase::kCount: break;
  }
  return "?";
}

/// Phase-specific names for the generic a/b/c argument slots; nullptr
/// slots are omitted from the JSON.
struct ArgNames {
  const char* a;
  const char* b;
  const char* c;
};

ArgNames phase_arg_names(Phase p) {
  switch (p) {
    case Phase::Init: return {"x0", "y0", "z0"};
    case Phase::Tile: return {"x0", "y0", "z0"};
    case Phase::BarrierWait: return {nullptr, nullptr, nullptr};
    case Phase::SpinWait: return {"target", nullptr, nullptr};
    case Phase::Parallelogram: return {"base", "layer", nullptr};
    case Phase::Layer: return {"layer", "t0", "height"};
    case Phase::Steal: return {"task", "victim", nullptr};
    case Phase::kCount: break;
  }
  return {nullptr, nullptr, nullptr};
}

void write_event_json(std::ostream& os, int tid, const Event& e,
                      int flops_per_update) {
  // Timestamps in microseconds (the unit the trace-event format expects).
  os << "{\"name\":\"" << phase_name(e.phase) << "\",\"cat\":\""
     << phase_category(e.phase) << "\",\"ph\":\"X\",\"pid\":0,\"tid\":" << tid
     << ",\"ts\":" << static_cast<double>(e.start_ns) * 1e-3
     << ",\"dur\":" << static_cast<double>(e.end_ns - e.start_ns) * 1e-3
     << ",\"args\":{";
  bool first = true;
  auto arg = [&](const char* name, long long value) {
    if (!name) return;
    if (!first) os << ',';
    os << '\"' << name << "\":" << value;
    first = false;
  };
  auto argd = [&](const char* name, double value) {
    if (!first) os << ',';
    os << '\"' << name << "\":" << value;
    first = false;
  };
  const ArgNames names = phase_arg_names(e.phase);
  if (e.args.a != -1 || e.phase == Phase::Layer) arg(names.a, e.args.a);
  if (e.args.b != -1 || e.phase == Phase::Layer) arg(names.b, e.args.b);
  if (e.args.c != -1 || e.phase == Phase::Layer) arg(names.c, e.args.c);
  if (e.args.owner != -1) arg("owner", e.args.owner);
  if (e.phase == Phase::BarrierWait || e.phase == Phase::SpinWait)
    arg("spins", static_cast<long long>(e.spins));
  if (e.exclude_ns > 0) argd("excl_us", static_cast<double>(e.exclude_ns) * 1e-3);
  if (e.has_counters) {
    // Raw per-span deltas (zero-valued slots are omitted to keep the
    // document small), then the derived headline metrics.
    const CounterSet& c = e.counters;
    for (int i = 0; i < kNumSpanCounters; ++i) {
      const auto sc = static_cast<SpanCounter>(i);
      if (c.at(sc) != 0)
        arg(span_counter_name(sc), static_cast<long long>(c.at(sc)));
    }
    if (c.total_bytes() > 0) {
      arg("bytes", static_cast<long long>(c.total_bytes()));
      argd("locality_pct", c.locality() * 100.0);
      if (flops_per_update > 0 && c.at(SpanCounter::Updates) > 0)
        argd("ai_flop_per_byte",
             static_cast<double>(c.at(SpanCounter::Updates)) * flops_per_update /
                 static_cast<double>(c.total_bytes()));
    }
    if (const int deep = c.deepest_level(); deep >= 0)
      argd("miss_pct", c.miss_rate(deep) * 100.0);
    const double dur_us = static_cast<double>(e.end_ns - e.start_ns) * 1e-3;
    if (c.at(SpanCounter::Updates) > 0 && dur_us > 0.0)
      argd("mups", static_cast<double>(c.at(SpanCounter::Updates)) / dur_us);
    if (c.at(SpanCounter::HwCycles) > 0 &&
        c.at(SpanCounter::HwInstructions) > 0)
      argd("ipc", static_cast<double>(c.at(SpanCounter::HwInstructions)) /
                      static_cast<double>(c.at(SpanCounter::HwCycles)));
  }
  os << "}}";
}

/// One "C" (counter) sample per counter-carrying span: a per-thread
/// locality-% track and a per-thread remote-byte-rate track, named with
/// the worker id so Perfetto renders one track per thread.
void write_counter_samples_json(std::ostream& os, int tid, const Event& e) {
  const CounterSet& c = e.counters;
  if (c.total_bytes() == 0) return;
  const double ts_us = static_cast<double>(e.start_ns) * 1e-3;
  const double dur_s = static_cast<double>(e.end_ns - e.start_ns) * 1e-9;
  os << ",\n{\"name\":\"locality % w" << tid
     << "\",\"ph\":\"C\",\"pid\":0,\"tid\":" << tid << ",\"ts\":" << ts_us
     << ",\"args\":{\"locality\":" << c.locality() * 100.0 << "}}";
  const double remote_mbs =
      dur_s > 0.0
          ? static_cast<double>(c.at(SpanCounter::RemoteBytes)) / dur_s / 1e6
          : 0.0;
  os << ",\n{\"name\":\"remote MB/s w" << tid
     << "\",\"ph\":\"C\",\"pid\":0,\"tid\":" << tid << ",\"ts\":" << ts_us
     << ",\"args\":{\"rate\":" << remote_mbs << "}}";
}

}  // namespace

void Trace::write_chrome_json(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
        "\"args\":{\"name\":\"nustencil\"}}";
  for (int tid = 0; tid < num_threads(); ++tid)
    os << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << tid
       << ",\"args\":{\"name\":\"worker " << tid << "\"}}";
  for (int tid = 0; tid < num_threads(); ++tid) {
    std::vector<Event> events = thread(tid)->events();
    // The ring stores spans in completion order; emit them by start time
    // so nested spans appear parent-first.
    std::stable_sort(events.begin(), events.end(),
                     [](const Event& x, const Event& y) {
                       return x.start_ns < y.start_ns;
                     });
    for (const Event& e : events) {
      os << ",\n";
      write_event_json(os, tid, e, flops_per_update_);
    }
    for (const Event& e : events)
      if (e.has_counters) write_counter_samples_json(os, tid, e);
  }
  os << "\n]}\n";
}

void Trace::write_chrome_json_file(const std::string& path) const {
  std::ofstream out(path);
  NUSTENCIL_CHECK(out.good(), "Trace: cannot open " + path);
  write_chrome_json(out);
  NUSTENCIL_CHECK(out.good(), "Trace: write failed for " + path);
}

std::string describe_observability(const std::string& trace_path,
                                   const std::string& svg_path,
                                   bool phase_metrics,
                                   std::size_t events_per_thread) {
  std::ostringstream os;
  os << "observability:\n";
  os << "  chrome trace            : "
     << (trace_path.empty() ? "off" : "on -> " + trace_path) << '\n';
  os << "  timeline svg            : "
     << (svg_path.empty() ? "off" : "on -> " + svg_path) << '\n';
  os << "  event ring              : " << events_per_thread
     << " events/thread";
  if (!trace_path.empty() || !svg_path.empty())
    os << " (" << events_per_thread * sizeof(Event) / 1024 << " KiB/thread)";
  os << '\n';
  os << "  phase metrics           : " << (phase_metrics ? "on" : "off")
     << " (per-thread compute / barrier-wait / spinflag-wait / init totals)"
     << '\n';
  return os.str();
}

}  // namespace nustencil::trace
