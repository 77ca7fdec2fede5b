// Tests for the observability layer: MetricsRegistry semantics, EventLog
// recording and capacity behavior, the Chrome-trace JSON export (validated by
// an embedded JSON parser plus span-pairing checks on a real observed run),
// zero-cost disabled mode, and determinism of the event stream.

#include "src/sim/metrics.h"

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/sim/counters.h"
#include "src/sim/event_log.h"
#include "src/workloads/workloads.h"

namespace tmh {
namespace {

// --- MetricsRegistry ---------------------------------------------------------

TEST(MetricsRegistryTest, CounterFindOrCreateIsStable) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("kernel.hard_faults");
  Counter* b = reg.GetCounter("kernel.hard_faults");
  EXPECT_EQ(a, b);
  a->Inc();
  a->Inc(4);
  EXPECT_EQ(b->value(), 5u);
  b->Set(42);
  EXPECT_EQ(a->value(), 42u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistryTest, LabelsDistinguishMetrics) {
  MetricsRegistry reg;
  Counter* hog = reg.GetCounter("as.pages_released", {{"as", "hog"}});
  Counter* other = reg.GetCounter("as.pages_released", {{"as", "interactive"}});
  EXPECT_NE(hog, other);
  hog->Inc();
  EXPECT_EQ(other->value(), 0u);
  EXPECT_EQ(MetricsRegistry::Key("as.pages_released", {{"as", "hog"}}),
            "as.pages_released{as=\"hog\"}");
  EXPECT_EQ(MetricsRegistry::Key("x", {}), "x");
}

TEST(MetricsRegistryTest, GaugeSetAndAdd) {
  MetricsRegistry reg;
  Gauge* g = reg.GetGauge("kernel.free_pages");
  g->Set(100);
  g->Add(-25);
  EXPECT_DOUBLE_EQ(g->value(), 75.0);
  EXPECT_EQ(reg.GetGauge("kernel.free_pages"), g);
}

TEST(MetricsRegistryTest, HistogramBoundsFixedAtFirstRegistration) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("lat", {10.0, 100.0});
  Histogram* again = reg.GetHistogram("lat", {99.0});  // bounds ignored
  EXPECT_EQ(h, again);
  EXPECT_EQ(h->bounds().size(), 2u);
  h->Add(5);
  h->Add(50);
  h->Add(5000);  // overflow bucket
  EXPECT_EQ(h->total(), 3u);
}

TEST(MetricsRegistryTest, TextDumpCarriesEveryKind) {
  MetricsRegistry reg;
  reg.GetCounter("b.count")->Set(7);
  reg.GetCounter("a.count", {{"as", "hog"}})->Set(3);
  reg.GetGauge("level")->Set(1.5);
  Histogram* h = reg.GetHistogram("wait_ns", ExponentialBounds(1000.0, 2.0, 8));
  h->Add(1500.0);
  h->Add(3000.0);
  const std::string dump = reg.TextDump();
  EXPECT_NE(dump.find("# tmh-metrics-v1"), std::string::npos);
  EXPECT_NE(dump.find("counter a.count{as=\"hog\"} 3"), std::string::npos);
  EXPECT_NE(dump.find("counter b.count 7"), std::string::npos);
  EXPECT_NE(dump.find("gauge level 1.5"), std::string::npos);
  EXPECT_NE(dump.find("histogram wait_ns total=2"), std::string::npos);
  // Sorted within each kind: the labeled a.count precedes b.count.
  EXPECT_LT(dump.find("a.count"), dump.find("b.count"));
}

// --- EventLog ----------------------------------------------------------------

TEST(EventLogTest, DisabledRecordIsANoOp) {
  EventLog log;
  log.Record(100, KernelEventType::kFaultBegin, 1, 0, 42);
  EXPECT_TRUE(log.events().empty());
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(EventLogTest, CapacityDropsAndCounts) {
  EventLog log;
  log.Enable(/*capacity=*/3);
  for (int i = 0; i < 5; ++i) {
    log.Record(i, KernelEventType::kReleaseEnqueue, 1, 0, i);
  }
  EXPECT_EQ(log.events().size(), 3u);
  EXPECT_EQ(log.dropped(), 2u);
  EXPECT_EQ(log.Count(KernelEventType::kReleaseEnqueue), 3u);
  EXPECT_EQ(log.Count(KernelEventType::kFaultBegin), 0u);
}

TEST(EventLogTest, EventNamesAreStable) {
  EXPECT_STREQ(KernelEventName(KernelEventType::kFaultBegin), "hard_fault");
  EXPECT_STREQ(KernelEventName(KernelEventType::kDaemonSweep), "daemon_sweep");
  EXPECT_STREQ(KernelEventName(KernelEventType::kFreePagesSample), "free_pages");
}

// --- A minimal JSON parser (no third-party dependency) -----------------------
// Enough of RFC 8259 to round-trip the Chrome trace export: objects, arrays,
// strings with escapes, numbers, true/false/null. Parse failures fail the test.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    const bool ok = ParseValue(out);
    SkipSpace();
    return ok && pos_ == text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) {
      return false;
    }
    const char c = text_[pos_];
    if (c == '{') {
      return ParseObject(out);
    }
    if (c == '[') {
      return ParseArray(out);
    }
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->str);
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out->kind = JsonValue::Kind::kBool;
      pos_ += 5;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      out->kind = JsonValue::Kind::kNull;
      pos_ += 4;
      return true;
    }
    return ParseNumber(out);
  }

  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    if (!Consume('{')) {
      return false;
    }
    if (Consume('}')) {
      return true;
    }
    while (true) {
      std::string key;
      SkipSpace();
      if (!ParseString(&key)) {
        return false;
      }
      if (!Consume(':')) {
        return false;
      }
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      out->object.emplace(std::move(key), std::move(value));
      if (Consume(',')) {
        continue;
      }
      return Consume('}');
    }
  }

  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    if (!Consume('[')) {
      return false;
    }
    if (Consume(']')) {
      return true;
    }
    while (true) {
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      out->array.push_back(std::move(value));
      if (Consume(',')) {
        continue;
      }
      return Consume(']');
    }
  }

  bool ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          return false;
        }
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'b': *out += '\b'; break;
          case 'f': *out += '\f'; break;
          case 'n': *out += '\n'; break;
          case 'r': *out += '\r'; break;
          case 't': *out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              return false;
            }
            pos_ += 4;       // control characters only in our exporter;
            *out += '?';     // the exact code point does not matter here
            break;
          }
          default:
            return false;
        }
      } else {
        *out += c;
      }
    }
    return false;  // unterminated
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) {
      return false;
    }
    out->kind = JsonValue::Kind::kNumber;
    out->number = std::stod(text_.substr(start, pos_ - start));
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// --- Chrome trace export on a real observed run -------------------------------

ExperimentResult RunObservedMatvec(AppVersion version, bool monitor = false) {
  ExperimentSpec spec;
  spec.machine.user_memory_bytes = static_cast<int64_t>(7.5 * 1024 * 1024);
  spec.workload = MakeMatvec(0.1);
  spec.version = version;
  spec.observe = true;
  spec.monitor = monitor;
  return RunExperiment(spec);
}

// Expects a `counter <prefix>.<field>{labels} <value>` dump line for every
// counter in S's table.
template <typename S>
void ExpectEveryCounter(const std::string& dump, const std::string& prefix, const S& stats,
                        const MetricLabels& labels = {}) {
  ForEachCounter(stats, [&](const char* name, uint64_t value) {
    const std::string line = "counter " + MetricsRegistry::Key(prefix + "." + name, labels) +
                             " " + std::to_string(value) + "\n";
    EXPECT_NE(dump.find(line), std::string::npos) << "missing: " << line;
  });
}

TEST(ChromeTraceTest, ExportParsesAndSpansPair) {
  const ExperimentResult result = RunObservedMatvec(AppVersion::kBuffered, /*monitor=*/true);
  ASSERT_TRUE(result.completed);
  ASSERT_FALSE(result.event_log.events().empty());
  EXPECT_EQ(result.event_log.dropped(), 0u);

  const std::string json = result.event_log.ToChromeTrace();
  JsonValue root;
  ASSERT_TRUE(JsonParser(json).Parse(&root)) << "export is not valid JSON";
  ASSERT_EQ(root.kind, JsonValue::Kind::kObject);
  const auto events_it = root.object.find("traceEvents");
  ASSERT_NE(events_it, root.object.end());
  ASSERT_EQ(events_it->second.kind, JsonValue::Kind::kArray);
  const std::vector<JsonValue>& events = events_it->second.array;
  ASSERT_GT(events.size(), 2u);

  // Every B on a thread must close with an E of the same name, properly
  // nested (a stack per tid), and timestamps must be monotone per thread.
  std::map<int, std::vector<std::string>> open_spans;
  std::map<int, double> last_ts;
  size_t metadata = 0;
  size_t spans_closed = 0;
  for (const JsonValue& e : events) {
    ASSERT_EQ(e.kind, JsonValue::Kind::kObject);
    const auto ph_it = e.object.find("ph");
    ASSERT_NE(ph_it, e.object.end());
    const std::string& ph = ph_it->second.str;
    ASSERT_NE(e.object.find("name"), e.object.end());
    ASSERT_NE(e.object.find("pid"), e.object.end());
    if (ph == "M") {
      ++metadata;
      continue;
    }
    const auto tid_it = e.object.find("tid");
    const auto ts_it = e.object.find("ts");
    ASSERT_NE(tid_it, e.object.end());
    ASSERT_NE(ts_it, e.object.end());
    const int tid = static_cast<int>(tid_it->second.number);
    const double ts = ts_it->second.number;
    EXPECT_GE(ts, last_ts[tid]) << "timestamps not monotone on tid " << tid;
    last_ts[tid] = ts;
    const std::string& name = e.object.find("name")->second.str;
    if (ph == "B") {
      open_spans[tid].push_back(name);
    } else if (ph == "E") {
      ASSERT_FALSE(open_spans[tid].empty())
          << "E '" << name << "' with no open span on tid " << tid;
      EXPECT_EQ(open_spans[tid].back(), name) << "mismatched span nesting";
      open_spans[tid].pop_back();
      ++spans_closed;
    } else if (ph == "X") {
      ASSERT_NE(e.object.find("dur"), e.object.end());
    } else {
      EXPECT_TRUE(ph == "i" || ph == "C") << "unexpected phase " << ph;
    }
  }
  for (const auto& [tid, stack] : open_spans) {
    EXPECT_TRUE(stack.empty()) << stack.size() << " unclosed span(s) on tid " << tid;
  }
  EXPECT_GT(metadata, 1u);  // process_name + at least one thread_name
  EXPECT_GT(spans_closed, 0u);

  // The B run must show the release pipeline end to end.
  const EventLog& log = result.event_log;
  EXPECT_GT(log.Count(KernelEventType::kFaultBegin), 0u);
  EXPECT_EQ(log.Count(KernelEventType::kFaultBegin), log.Count(KernelEventType::kFaultEnd));
  EXPECT_GT(log.Count(KernelEventType::kPrefetchIssue), 0u);
  EXPECT_GT(log.Count(KernelEventType::kReleaseEnqueue), 0u);
  EXPECT_GT(log.Count(KernelEventType::kReleaseFree), 0u);
  EXPECT_GT(log.Count(KernelEventType::kFreePagesSample), 0u);

  // The metrics dump came along and carries both counters and histograms.
  EXPECT_NE(result.metrics_text.find("# tmh-metrics-v1"), std::string::npos);
  EXPECT_NE(result.metrics_text.find("counter kernel.hard_faults"), std::string::npos);
  EXPECT_NE(result.metrics_text.find("histogram kernel.fault_service_ns"), std::string::npos);
  EXPECT_NE(result.metrics_text.find("prefetch.queue_wait_ns"), std::string::npos);

  // Every counter of every stats struct reaches the dump with its end-of-run
  // value: kernel-wide and monitor counters unlabeled, the rest per AS.
  ASSERT_TRUE(result.app.runtime.has_value());
  ASSERT_TRUE(result.monitor.has_value());
  const MetricLabels app = {{"as", "MATVEC"}};
  ExpectEveryCounter(result.metrics_text, "kernel", result.kernel);
  ExpectEveryCounter(result.metrics_text, "as", result.app.as_stats, app);
  ExpectEveryCounter(result.metrics_text, "faults", result.app.faults, app);
  ExpectEveryCounter(result.metrics_text, "runtime", *result.app.runtime, app);
  ExpectEveryCounter(result.metrics_text, "interp", result.app.interp, app);
  ExpectEveryCounter(result.metrics_text, "monitor", *result.monitor);
}

TEST(ChromeTraceTest, DisabledRunRecordsNothing) {
  ExperimentSpec spec;
  spec.machine.user_memory_bytes = static_cast<int64_t>(7.5 * 1024 * 1024);
  spec.workload = MakeMatvec(0.1);
  spec.version = AppVersion::kBuffered;
  spec.observe = false;
  const ExperimentResult result = RunExperiment(spec);
  ASSERT_TRUE(result.completed);
  EXPECT_TRUE(result.event_log.events().empty());
  EXPECT_TRUE(result.metrics_text.empty());
}

TEST(ChromeTraceTest, EventStreamIsDeterministic) {
  const ExperimentResult a = RunObservedMatvec(AppVersion::kRelease);
  const ExperimentResult b = RunObservedMatvec(AppVersion::kRelease);
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  ASSERT_EQ(a.event_log.events().size(), b.event_log.events().size());
  EXPECT_TRUE(a.event_log.events() == b.event_log.events());
  EXPECT_EQ(a.metrics_text, b.metrics_text);
  EXPECT_EQ(a.event_log.ToChromeTrace(), b.event_log.ToChromeTrace());
}

}  // namespace
}  // namespace tmh
