#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

// In-memory span recorder for the traced run. The benchmark client is a
// single thread that opens a span around each call it makes into a
// layer's public functions, so spans nest strictly and a stack of open
// spans names each one's parent. Spans stay in memory until the run ends
// (WriteChromeTrace).
//
// Time() measures its call whether or not recording is on, so the
// untraced run times operations with the same two clock reads and
// records nothing.
class SpanRecorder {
 public:
  struct Span {
    const char* name;  // A string literal.
    int parent;        // Index of the enclosing span; -1 for a root.
    int root;          // Index of the root span: one id per operation.
    int64_t start_ns;
    int64_t end_ns;
    double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  // Opens a span under the innermost open one; returns its index, or -1
  // when recording is off or `name` is null.
  int Begin(const char* name);
  // Closes the innermost open span, which must be `index`.
  void End(int index);

  // Opens a span for the lifetime of the object.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* name)
        : recorder_(recorder), index_(recorder.Begin(name)) {}
    ~Scope() { recorder_.End(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    int index_;
  };

  // Runs `fn` inside a span named `name` (recorded only when enabled and
  // `name` is not null) and returns its wall time in milliseconds.
  template <typename Fn>
  double Time(const char* name, Fn&& fn) {
    const int index = Begin(name);
    const int64_t start = NowNs();
    try {
      std::forward<Fn>(fn)();
    } catch (...) {
      Close(index, start, NowNs());
      throw;
    }
    const int64_t end = NowNs();
    Close(index, start, end);
    return static_cast<double>(end - start) / 1e6;
  }

  // Appends a finished span with explicit bounds under `parent` (-1 for a
  // root), for synthetic traces; returns its index.
  int AddSpan(const char* name, int parent, int64_t start_ns, int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }

  // Self time of every span, parallel to spans(): its duration minus the
  // durations of its direct children.
  std::vector<double> SelfMs() const;

  // Durations of the spans called `name`, in recording order.
  std::vector<double> DurationsMs(std::string_view name) const;

  // Writes the spans as a Chrome trace_event file (chrome://tracing,
  // Perfetto). Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  // Closes span `index` (no-op for -1) with the given bounds.
  void Close(int index, int64_t start_ns, int64_t end_ns);

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
