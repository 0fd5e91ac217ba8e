// Space-time tracing: recorder semantics, ring overflow, phase totals,
// span nesting/ordering invariants on a real traced run, Chrome JSON
// validity (parsed back with a minimal JSON reader), structural
// determinism across runs, and the timeline SVG.
#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "schemes/nucorals.hpp"
#include "schemes/scheme.hpp"
#include "trace/trace.hpp"
#include "trace/trace_svg.hpp"

namespace nustencil::trace {
namespace {

// ---------------------------------------------------------------------
// A minimal JSON reader, just enough to validate the Chrome trace output
// and walk its traceEvents.  Numbers are doubles; no \u escapes.
// ---------------------------------------------------------------------
struct Json {
  enum Kind { Null, Bool, Number, String, Array, Object } kind = Null;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<Json> items;
  std::map<std::string, Json> fields;

  bool has(const std::string& key) const { return fields.count(key) > 0; }
  const Json& at(const std::string& key) const { return fields.at(key); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& src) : src_(src) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (pos_ != src_.size()) throw std::runtime_error("trailing garbage");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < src_.size() && std::isspace(static_cast<unsigned char>(src_[pos_])))
      ++pos_;
  }
  char peek() {
    if (pos_ >= src_.size()) throw std::runtime_error("unexpected end");
    return src_[pos_];
  }
  void expect(char c) {
    if (peek() != c) throw std::runtime_error(std::string("expected ") + c);
    ++pos_;
  }

  Json value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string_value();
      case 't': return keyword("true", Json{Json::Bool, true});
      case 'f': return keyword("false", Json{Json::Bool, false});
      case 'n': return keyword("null", Json{});
      default: return number();
    }
  }

  Json keyword(const std::string& word, Json result) {
    if (src_.compare(pos_, word.size(), word) != 0)
      throw std::runtime_error("bad keyword");
    pos_ += word.size();
    return result;
  }

  Json object() {
    expect('{');
    Json v;
    v.kind = Json::Object;
    skip_ws();
    if (peek() == '}') { ++pos_; return v; }
    while (true) {
      skip_ws();
      const std::string key = raw_string();
      skip_ws();
      expect(':');
      v.fields[key] = value();
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      expect('}');
      return v;
    }
  }

  Json array() {
    expect('[');
    Json v;
    v.kind = Json::Array;
    skip_ws();
    if (peek() == ']') { ++pos_; return v; }
    while (true) {
      v.items.push_back(value());
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      expect(']');
      return v;
    }
  }

  Json string_value() {
    Json v;
    v.kind = Json::String;
    v.text = raw_string();
    return v;
  }

  std::string raw_string() {
    expect('"');
    std::string out;
    while (peek() != '"') {
      char c = src_[pos_++];
      if (c == '\\') {
        c = src_[pos_++];
        if (c == 'n') c = '\n';
      }
      out += c;
    }
    ++pos_;
    return out;
  }

  Json number() {
    const std::size_t start = pos_;
    while (pos_ < src_.size() &&
           (std::isdigit(static_cast<unsigned char>(src_[pos_])) ||
            src_[pos_] == '-' || src_[pos_] == '+' || src_[pos_] == '.' ||
            src_[pos_] == 'e' || src_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) throw std::runtime_error("bad number");
    Json v;
    v.kind = Json::Number;
    v.number = std::atof(src_.substr(start, pos_ - start).c_str());
    return v;
  }

  const std::string& src_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------
// Recorder semantics.
// ---------------------------------------------------------------------

TEST(ThreadRecorder, TotalsAndRing) {
  Trace trace(8);
  trace.begin_run(1);
  ThreadRecorder* rec = trace.thread(0);
  ASSERT_NE(rec, nullptr);
  rec->record(Phase::Tile, 100, 400);
  rec->record(Phase::BarrierWait, 400, 1000, {}, 7);
  EXPECT_EQ(rec->total_ns(Phase::Tile), 300);
  EXPECT_EQ(rec->total_ns(Phase::BarrierWait), 600);
  EXPECT_EQ(rec->span_count(Phase::Tile), 1u);
  EXPECT_EQ(rec->spin_count(Phase::BarrierWait), 7u);
  EXPECT_EQ(rec->events().size(), 2u);
  EXPECT_EQ(rec->dropped(), 0u);
}

TEST(ThreadRecorder, ExcludeSubtractsFromTotalsNotEvents) {
  Trace trace(8);
  trace.begin_run(1);
  ThreadRecorder* rec = trace.thread(0);
  ASSERT_NE(rec, nullptr);
  // A 900ns tile span containing 600ns of nested spin wait.
  rec->record(Phase::SpinWait, 200, 800, {}, 3);
  rec->record(Phase::Tile, 100, 1000, {}, 0, /*exclude_ns=*/600);
  EXPECT_EQ(rec->total_ns(Phase::Tile), 300);
  EXPECT_EQ(rec->total_ns(Phase::SpinWait), 600);
  const std::vector<Event> events = rec->events();
  ASSERT_EQ(events.size(), 2u);
  // The stored event keeps its full extent for the timeline.
  EXPECT_EQ(events[1].end_ns - events[1].start_ns, 900);
}

TEST(ThreadRecorder, RingOverflowKeepsNewestAndExactTotals) {
  Trace trace(4);
  trace.begin_run(1);
  ThreadRecorder* rec = trace.thread(0);
  for (int i = 0; i < 10; ++i)
    rec->record(Phase::Tile, i * 100, i * 100 + 10);
  EXPECT_EQ(rec->dropped(), 6u);
  EXPECT_EQ(rec->span_count(Phase::Tile), 10u);   // totals unaffected
  EXPECT_EQ(rec->total_ns(Phase::Tile), 100);
  const std::vector<Event> events = rec->events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first chronological order of the survivors (events 6..9).
  for (int i = 0; i < 4; ++i) EXPECT_EQ(events[static_cast<std::size_t>(i)].start_ns, (6 + i) * 100);
}

TEST(ThreadRecorder, MetricsOnlyModeStoresNoEvents) {
  Trace trace(0);  // metrics-only
  trace.begin_run(2);
  ThreadRecorder* rec = trace.thread(1);
  for (int i = 0; i < 100; ++i) rec->record(Phase::Tile, i, i + 5);
  EXPECT_EQ(rec->events().size(), 0u);
  EXPECT_EQ(rec->dropped(), 0u);
  EXPECT_EQ(rec->total_ns(Phase::Tile), 500);
  EXPECT_EQ(rec->span_count(Phase::Tile), 100u);
}

TEST(ScopedSpan, NullRecorderIsNoOp) {
  { const ScopedSpan span(nullptr, Phase::Tile); }  // must not crash
  Trace trace(8);
  trace.begin_run(1);
  { const ScopedSpan span(trace.thread(0), Phase::Layer, {3, 0, 5, 1}); }
  const std::vector<Event> events = trace.thread(0)->events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].phase, Phase::Layer);
  EXPECT_EQ(events[0].args.a, 3);
  EXPECT_GE(events[0].end_ns, events[0].start_ns);
}

TEST(Trace, ThreadOutOfRangeIsNull) {
  Trace trace;
  EXPECT_EQ(trace.thread(0), nullptr);  // before begin_run
  trace.begin_run(2);
  EXPECT_NE(trace.thread(1), nullptr);
  EXPECT_EQ(trace.thread(2), nullptr);
  EXPECT_EQ(trace.thread(-1), nullptr);
}

TEST(Trace, BeginRunResetsRecorders) {
  Trace trace(8);
  trace.begin_run(1);
  ThreadRecorder* first = trace.thread(0);
  ASSERT_NE(first, nullptr);
  first->record(Phase::Tile, 0, 100);
  trace.begin_run(3);
  EXPECT_EQ(trace.num_threads(), 3);
  EXPECT_EQ(trace.thread(0)->span_count(Phase::Tile), 0u);
  EXPECT_EQ(trace.thread(0)->events().size(), 0u);
}

TEST(PhaseBreakdown, ImbalanceIsMaxOverMeanBusy) {
  PhaseBreakdown b;
  b.threads.resize(2);
  b.threads[0].seconds[static_cast<std::size_t>(Phase::Tile)] = 3.0;
  b.threads[1].seconds[static_cast<std::size_t>(Phase::Tile)] = 1.0;
  EXPECT_DOUBLE_EQ(b.imbalance(), 1.5);
  EXPECT_DOUBLE_EQ(b.total_s(Phase::Tile), 4.0);
  EXPECT_DOUBLE_EQ(b.imbalance(), 1.5);  // pure accessor, no state
  PhaseBreakdown empty;
  EXPECT_DOUBLE_EQ(empty.imbalance(), 1.0);
}

// ---------------------------------------------------------------------
// A real traced run.
// ---------------------------------------------------------------------

schemes::RunResult traced_run(Trace* trace, bool metrics_only = false) {
  schemes::NuCoralsScheme scheme;
  schemes::RunConfig cfg;
  cfg.num_threads = 2;
  cfg.timesteps = 6;
  cfg.trace = trace;
  cfg.collect_phase_metrics = metrics_only;
  core::Problem problem(Coord{16, 14, 12}, core::StencilSpec::paper_3d7p());
  return scheme.run(problem, cfg);
}

TEST(TracedRun, ProducesExpectedSpanKinds) {
  Trace trace;
  const schemes::RunResult result = traced_run(&trace);
  ASSERT_EQ(trace.num_threads(), 2);
  for (int tid = 0; tid < 2; ++tid) {
    const ThreadRecorder* rec = trace.thread(tid);
    EXPECT_GT(rec->span_count(Phase::Tile), 0u) << "tid " << tid;
    EXPECT_GT(rec->span_count(Phase::Init), 0u) << "tid " << tid;
    EXPECT_GT(rec->span_count(Phase::Layer), 0u) << "tid " << tid;
    EXPECT_GT(rec->span_count(Phase::Parallelogram), 0u) << "tid " << tid;
  }
  // The last barrier arrival releases the rest without waiting, so every
  // barrier round records exactly participants-1 wait spans in total:
  // with 2 threads and 2 rounds per layer the total is even and positive.
  const std::uint64_t barrier_spans =
      trace.thread(0)->span_count(Phase::BarrierWait) +
      trace.thread(1)->span_count(Phase::BarrierWait);
  EXPECT_GT(barrier_spans, 0u);
  EXPECT_EQ(barrier_spans % 2u, 0u);
  EXPECT_TRUE(result.phases.enabled);
  EXPECT_GT(result.phases.total_s(Phase::Tile), 0.0);
}

TEST(TracedRun, SpanInvariants) {
  Trace trace;
  traced_run(&trace);
  for (int tid = 0; tid < trace.num_threads(); ++tid) {
    const std::vector<Event> events = trace.thread(tid)->events();
    std::vector<Event> layers, barriers;
    for (const Event& e : events) {
      EXPECT_GE(e.start_ns, 0) << "span before the run epoch";
      EXPECT_GE(e.end_ns, e.start_ns) << "negative span duration";
      if (e.phase == Phase::Layer) layers.push_back(e);
      if (e.phase == Phase::BarrierWait) barriers.push_back(e);
    }
    // Layers are disjoint and ordered on each thread.
    for (std::size_t i = 1; i < layers.size(); ++i)
      EXPECT_GE(layers[i].start_ns, layers[i - 1].end_ns);
    // Barrier waits never overlap each other on one thread.
    for (std::size_t i = 1; i < barriers.size(); ++i)
      EXPECT_GE(barriers[i].start_ns, barriers[i - 1].end_ns);
    // Every parallelogram span nests inside some layer span.
    for (const Event& e : events) {
      if (e.phase != Phase::Parallelogram) continue;
      bool nested = false;
      for (const Event& layer : layers)
        nested = nested ||
                 (e.start_ns >= layer.start_ns && e.end_ns <= layer.end_ns);
      EXPECT_TRUE(nested) << "orphan parallelogram on tid " << tid;
    }
  }
}

TEST(TracedRun, PhaseTotalsCoverWallTime) {
  Trace trace;
  const schemes::RunResult result = traced_run(&trace);
  // Leaf totals must roughly cover each thread's share of the run; on an
  // oversubscribed CI host a thread can be descheduled between spans, so
  // only require a loose lower bound and no overshoot beyond wall time
  // plus the untimed init phase.
  for (const auto& t : result.phases.threads) {
    EXPECT_GT(t.accounted_s(), 0.0);
    EXPECT_LE(t.busy_s(), t.accounted_s());
    EXPECT_LE(t.accounted_s(),
              result.seconds + result.phases.total_s(Phase::Init) + 0.05);
  }
}

TEST(TracedRun, ChromeJsonParsesBack) {
  Trace trace;
  traced_run(&trace);
  std::ostringstream os;
  trace.write_chrome_json(os);
  const std::string text = os.str();

  Json root;
  ASSERT_NO_THROW(root = JsonParser(text).parse()) << "invalid JSON";
  ASSERT_EQ(root.kind, Json::Object);
  ASSERT_TRUE(root.has("traceEvents"));
  const Json& events = root.at("traceEvents");
  ASSERT_EQ(events.kind, Json::Array);
  ASSERT_GT(events.items.size(), 3u);

  std::map<std::string, int> by_name;
  int metadata = 0;
  for (const Json& e : events.items) {
    ASSERT_EQ(e.kind, Json::Object);
    ASSERT_TRUE(e.has("ph"));
    ASSERT_TRUE(e.has("pid"));
    ASSERT_TRUE(e.has("tid"));
    const std::string ph = e.at("ph").text;
    if (ph == "M") {
      ++metadata;
      continue;
    }
    ASSERT_EQ(ph, "X");
    ASSERT_TRUE(e.has("ts"));
    ASSERT_TRUE(e.has("dur"));
    EXPECT_GE(e.at("dur").number, 0.0);
    by_name[e.at("name").text]++;
    const int tid = static_cast<int>(e.at("tid").number);
    EXPECT_GE(tid, 0);
    EXPECT_LT(tid, 2);
  }
  // process_name + one thread_name per worker.
  EXPECT_EQ(metadata, 3);
  EXPECT_GT(by_name["tile"], 0);
  EXPECT_GT(by_name["layer"], 0);
  EXPECT_GT(by_name["parallelogram"], 0);
}

TEST(TracedRun, StructureIsDeterministic) {
  // Span *counts* of the deterministic phases must not depend on timing:
  // tiles, layers, parallelograms and init spans are fixed by the plan
  // (wait spans are inherently timing-dependent and excluded here).
  Trace a, b;
  traced_run(&a);
  traced_run(&b);
  ASSERT_EQ(a.num_threads(), b.num_threads());
  for (int tid = 0; tid < a.num_threads(); ++tid) {
    for (const Phase p : {Phase::Init, Phase::Tile, Phase::Layer, Phase::Parallelogram})
      EXPECT_EQ(a.thread(tid)->span_count(p), b.thread(tid)->span_count(p))
          << "phase " << phase_name(p) << " tid " << tid;
  }
}

TEST(TracedRun, DisabledTraceLeavesResultEmpty) {
  schemes::NuCoralsScheme scheme;
  schemes::RunConfig cfg;
  cfg.num_threads = 2;
  cfg.timesteps = 4;
  core::Problem problem(Coord{14, 12, 12}, core::StencilSpec::paper_3d7p());
  const schemes::RunResult result = scheme.run(problem, cfg);
  EXPECT_FALSE(result.phases.enabled);
  EXPECT_TRUE(result.phases.threads.empty());
}

TEST(TracedRun, MetricsOnlyModeFillsPhasesWithoutTrace) {
  const schemes::RunResult result = traced_run(nullptr, /*metrics_only=*/true);
  EXPECT_TRUE(result.phases.enabled);
  ASSERT_EQ(result.phases.threads.size(), 2u);
  EXPECT_GT(result.phases.total_s(Phase::Tile), 0.0);
  for (const auto& t : result.phases.threads) EXPECT_EQ(t.dropped, 0u);
}

// ---------------------------------------------------------------------
// Timeline SVG.
// ---------------------------------------------------------------------

TEST(TimelineSvg, RendersOneTrackPerThread) {
  Trace trace;
  traced_run(&trace);
  const report::TimelineSpec spec = timeline_spec(trace, "test run");
  EXPECT_EQ(spec.track_labels.size(), 2u);
  EXPECT_EQ(spec.class_labels.size(), static_cast<std::size_t>(kNumPhases));
  EXPECT_GT(spec.spans.size(), 0u);
  const std::string svg = report::render_timeline_svg(spec);
  EXPECT_EQ(svg.rfind("<svg", 0), 0u);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find("test run"), std::string::npos);
  EXPECT_NE(svg.find("worker 0"), std::string::npos);
  EXPECT_NE(svg.find("worker 1"), std::string::npos);
}

TEST(DescribeObservability, MentionsEveryChannel) {
  const std::string text = describe_observability("t.json", "t.svg", true, 1024);
  EXPECT_NE(text.find("t.json"), std::string::npos);
  EXPECT_NE(text.find("t.svg"), std::string::npos);
  EXPECT_NE(text.find("1024"), std::string::npos);
  const std::string off = describe_observability("", "", false, 1024);
  EXPECT_NE(off.find("off"), std::string::npos);
}

}  // namespace
}  // namespace nustencil::trace
