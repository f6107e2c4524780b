#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <unordered_map>

namespace perfbench {

uint64_t SpanRecorder::Record(const char* name, uint64_t request,
                              uint64_t parent, int64_t start_ns,
                              int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t id = next_id_++;
  spans_.push_back({name, id, parent, request, start_ns, end_ns});
  return id;
}

void SpanRecorder::RecordRoot(uint64_t request, int64_t start_ns,
                              int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(
      {"request", RootSpanId(request), 0, request, start_ns, end_ns});
}

std::vector<Span> SpanRecorder::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(spans_);
}

namespace {

std::string LayerOf(const Span& span) {
  if (span.parent == 0) return "unattributed";
  const char* dot = std::strchr(span.name, '.');
  return dot == nullptr ? std::string(span.name)
                        : std::string(span.name, dot - span.name);
}

// Length of the union of `intervals` clipped to [lo, hi].
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>>& intervals,
                  int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cursor = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, cursor);
    end = std::min(end, hi);
    if (end > start) {
      covered += end - start;
      cursor = end;
    }
  }
  return covered;
}

}  // namespace

std::map<std::string, double> SelfTimeNsByLayer(
    const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    int64_t duration = std::max<int64_t>(0, s.end_ns - s.start_ns);
    auto it = children.find(s.id);
    if (it != children.end()) {
      duration -= CoveredNs(it->second, s.start_ns, s.end_ns);
    }
    self[LayerOf(s)] += static_cast<double>(duration);
  }
  return self;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,id,parent,request,start_ns,end_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%s,%llu,%llu,%llu,%lld,%lld\n", s.name,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
