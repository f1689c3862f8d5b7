#include "spans.h"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

int SpanRecorder::Begin(const char* name) {
  if (!enabled_ || name == nullptr) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  const int index = static_cast<int>(spans_.size());
  const int root = parent < 0 ? index : spans_[parent].root;
  spans_.push_back(Span{name, parent, root, NowNs(), 0});
  open_.push_back(index);
  return index;
}

void SpanRecorder::End(int index) {
  if (index >= 0) Close(index, spans_[index].start_ns, NowNs());
}

void SpanRecorder::Close(int index, int64_t start_ns, int64_t end_ns) {
  if (index < 0) return;
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("spans must close innermost first");
  }
  spans_[index].start_ns = start_ns;
  spans_[index].end_ns = end_ns;
  open_.pop_back();
}

int SpanRecorder::AddSpan(const char* name, int parent, int64_t start_ns,
                          int64_t end_ns) {
  const int index = static_cast<int>(spans_.size());
  const int root = parent < 0 ? index : spans_[parent].root;
  spans_.push_back(Span{name, parent, root, start_ns, end_ns});
  return index;
}

std::vector<double> SpanRecorder::SelfMs() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].ms();
  for (const Span& span : spans_) {
    if (span.parent >= 0) self[span.parent] -= span.ms();
  }
  return self;
}

std::vector<double> SpanRecorder::DurationsMs(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) out.push_back(span.ms());
  }
  return out;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"traceEvents\":[", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d}}",
                 i == 0 ? "" : ",", s.name,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.root);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
