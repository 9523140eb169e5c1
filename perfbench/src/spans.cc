#include "spans.h"

#include <cstdio>

namespace perfbench {

int SpanRecorder::Begin(const std::string& name) {
  if (!enabled_) return -1;
  const double entry = Now();
  SpanRecord record;
  record.name = name;
  record.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(record));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  // The span starts after its own bookkeeping so the recorder's cost is
  // charged to the overhead counter, not to the layer being measured.
  const double start = Now();
  spans_.back().start = start;
  overhead_seconds_ += start - entry;
  return open_.back();
}

void SpanRecorder::End(int index) {
  if (!enabled_ || index < 0) return;
  const double end = Now();
  spans_[static_cast<size_t>(index)].end = end;
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
  overhead_seconds_ += Now() - end;
}

void SpanRecorder::Merge(const SpanRecorder& other) {
  const int offset = static_cast<int>(spans_.size());
  for (SpanRecord record : other.spans_) {
    if (record.parent >= 0) record.parent += offset;
    spans_.push_back(std::move(record));
  }
  overhead_seconds_ += other.overhead_seconds_;
}

std::map<std::string, SpanStats> SpanRecorder::Stats() const {
  std::vector<double> child_seconds(spans_.size(), 0.0);
  for (const SpanRecord& span : spans_) {
    if (span.parent >= 0) {
      child_seconds[static_cast<size_t>(span.parent)] += span.end - span.start;
    }
  }
  std::map<std::string, SpanStats> stats;
  for (size_t i = 0; i < spans_.size(); ++i) {
    SpanStats& s = stats[spans_[i].name];
    const double duration = spans_[i].end - spans_[i].start;
    ++s.count;
    s.total_seconds += duration;
    s.self_seconds += duration - child_seconds[i];
  }
  return stats;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("[\n", out);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::string name;
    for (char c : s.name) {
      if (c == '"' || c == '\\') name += '\\';
      name += c;
    }
    std::fprintf(out,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                 "\"end\": %.9f, \"parent\": %d}%s\n",
                 i, name.c_str(), s.start, s.end, s.parent,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", out);
  return std::fclose(out) == 0;
}

}  // namespace perfbench
