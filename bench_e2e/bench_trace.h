// In-memory span and counter recorder for bench_e2e's traced runs.
//
// Spans are recorded from benchmark code only, around each call into a
// layer's public functions (`core.search` around RunHicsSearch, ...). The
// recorder keeps every span in memory and writes two files when the run
// ends: Chrome trace events (open in Perfetto or chrome://tracing) and a
// flat counters object. Layer self time is derived from the trace by
// run_e2e.py: a span's duration minus the part its child spans cover.
//
// Cost when tracing is off: ScopedSpan's constructor tests one
// thread-local flag and records nothing, so an untraced op runs the same
// code as a traced one minus the span bookkeeping — the difference is
// trace.overhead_pct.

#ifndef HICS_BENCH_E2E_BENCH_TRACE_H_
#define HICS_BENCH_E2E_BENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_json.h"

namespace hics::bench {

/// One closed span. Times are microseconds since the recorder's epoch.
struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root span
  std::uint64_t op = 0;      ///< timed op this span belongs to; 0 = probe
  std::uint32_t thread = 0;  ///< small per-thread ordinal (Chrome "tid")
  std::vector<std::pair<std::string, std::string>> attrs;
};

class TraceRecorder {
 public:
  TraceRecorder() : epoch_(Clock::now()) {}
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Tracing state of the calling thread for the spans it opens from now
  /// on. Per thread, so concurrent clients can interleave traced and
  /// untraced ops independently; a process holds one recorder.
  void set_enabled(bool enabled) { Enabled() = enabled; }
  bool enabled() const { return Enabled(); }

  void SetCounter(const std::string& name, double value) {
    std::lock_guard<std::mutex> lock(mutex_);
    counters_[name] = value;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }
  std::map<std::string, double> counters() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
  }

  /// Chrome trace-event JSON ("X" complete events); span id, parent, op
  /// and attributes go into each event's args.
  std::string ChromeTraceJson() const {
    JsonWriter json;
    json.BeginObject().BeginArray("traceEvents");
    for (const Span& s : spans()) {
      json.BeginObject()
          .Field("name", s.name)
          .Field("cat", s.name.substr(0, s.name.find('.')))
          .Field("ph", "X")
          .Field("ts", s.start_us)
          .Field("dur", s.end_us - s.start_us)
          .Field("pid", 1)
          .Field("tid", static_cast<std::uint64_t>(s.thread))
          .BeginObject("args")
          .Field("id", s.id)
          .Field("parent", s.parent)
          .Field("op", s.op);
      for (const auto& [key, value] : s.attrs) json.Field(key, value);
      json.EndObject().EndObject();
    }
    json.EndArray().Field("displayTimeUnit", "ms").EndObject();
    return json.str();
  }

  /// Flat {"name": value} counters object.
  std::string CountersJson() const {
    JsonWriter json;
    json.BeginObject();
    for (const auto& [name, value] : counters()) json.Field(name, value);
    json.EndObject();
    return json.str();
  }

 private:
  friend class ScopedSpan;
  using Clock = std::chrono::steady_clock;

  static bool& Enabled() {
    thread_local bool enabled = false;
    return enabled;
  }

  /// Open spans of the calling thread, innermost last: (id, op).
  static std::vector<std::pair<std::uint64_t, std::uint64_t>>& OpenStack() {
    thread_local std::vector<std::pair<std::uint64_t, std::uint64_t>> stack;
    return stack;
  }

  std::uint32_t ThreadOrdinal() {
    thread_local std::uint32_t ordinal = next_thread_.fetch_add(1) + 1;
    return ordinal;
  }

  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  void Record(Span span) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
  }

  const Clock::time_point epoch_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint32_t> next_thread_{0};

  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::string, double> counters_;
};

/// RAII span. A root span (no open span on this thread) takes `op` as its
/// op id; nested spans inherit their parent's. Spans must close on the
/// thread that opened them, innermost first (scoping guarantees both).
class ScopedSpan {
 public:
  ScopedSpan(TraceRecorder& recorder, const char* name, std::uint64_t op = 0) {
    if (!recorder.enabled()) return;
    recorder_ = &recorder;
    auto& stack = TraceRecorder::OpenStack();
    span_.name = name;
    span_.id = recorder.next_id_.fetch_add(1);
    if (!stack.empty()) {
      span_.parent = stack.back().first;
      span_.op = stack.back().second;
    } else {
      span_.op = op;
    }
    span_.thread = recorder.ThreadOrdinal();
    stack.emplace_back(span_.id, span_.op);
    span_.start_us = recorder.NowUs();
  }

  ~ScopedSpan() {
    if (recorder_ == nullptr) return;
    span_.end_us = recorder_->NowUs();
    TraceRecorder::OpenStack().pop_back();
    recorder_->Record(std::move(span_));
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attaches a key/value attribute (backend, threads, ...); no-op when
  /// the span is not recording.
  void Attr(const char* key, std::string value) {
    if (recorder_ != nullptr) span_.attrs.emplace_back(key, std::move(value));
  }

 private:
  TraceRecorder* recorder_ = nullptr;
  Span span_;
};

}  // namespace hics::bench

#endif  // HICS_BENCH_E2E_BENCH_TRACE_H_
